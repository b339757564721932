//! Control-connection balancing: which server should *own* a client's
//! control association.
//!
//! Stream routing (PR 2) and rebalancing (PR 4) spread the
//! continuous-media load, but every control association still
//! terminated on whatever server the client first dialed — the
//! single-machine bottleneck the paper's SPS/SUA split was supposed
//! to avoid. The [`ControlBalancer`] closes that gap: servers account
//! their live control associations here, and an incoming association
//! (or a `SelectMovie` on a draining server) consults
//! [`ControlBalancer::refer_target`] to decide whether the client
//! should be *referred* to a less-loaded cluster member instead. The
//! decision is made from the same [`ServerLoad`] snapshots the stream
//! router and the rebalance controller use, so a draining server is
//! never named and load ties break on uncommitted disk bandwidth.
//!
//! The balancer is policy only: it never touches connections itself.
//! The MCAM layer turns a `Some(target)` into a `ReferralRsp` PDU and
//! the client's root module re-dials.

use crate::ServerLoad;
use parking_lot::RwLock;
use std::collections::HashMap;

/// Cluster-wide accounting of control associations and the referral
/// policy over them. One per cluster, shared by all member servers.
#[derive(Debug, Default)]
pub struct ControlBalancer {
    /// Live control associations per location.
    counts: RwLock<HashMap<String, usize>>,
    /// Operator steering: a pinned source refers every capable client
    /// to the pinned target, liveness unchecked.
    pins: RwLock<HashMap<String, String>>,
}

impl ControlBalancer {
    /// An empty balancer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an accepted control association at `location`.
    pub fn connected(&self, location: &str) {
        *self.counts.write().entry(location.to_string()).or_insert(0) += 1;
    }

    /// Records the end of a control association at `location`.
    pub fn disconnected(&self, location: &str) {
        if let Some(n) = self.counts.write().get_mut(location) {
            *n = n.saturating_sub(1);
        }
    }

    /// Live control associations at `location`.
    pub fn connections(&self, location: &str) -> usize {
        self.counts.read().get(location).copied().unwrap_or(0)
    }

    /// Per-location association counts, sorted by location name.
    pub fn snapshot(&self) -> Vec<(String, usize)> {
        let mut all: Vec<(String, usize)> = self
            .counts
            .read()
            .iter()
            .map(|(l, n)| (l.clone(), *n))
            .collect();
        all.sort();
        all
    }

    /// Pins `from` so that every capable client it would serve is
    /// referred to `to` instead — operator steering for maintenance
    /// (empty a machine ahead of a drain) and for exercising referral
    /// failure paths (the target's liveness is deliberately not
    /// checked here; the *client* discovers a dead or draining target
    /// and falls back across the candidate list).
    pub fn pin(&self, from: &str, to: &str) {
        self.pins.write().insert(from.to_string(), to.to_string());
    }

    /// Removes a pin set by [`ControlBalancer::pin`].
    pub fn unpin(&self, from: &str) {
        self.pins.write().remove(from);
    }

    /// Whether `location` is currently pinned away.
    pub fn is_pinned(&self, location: &str) -> bool {
        self.pins.read().contains_key(location)
    }

    /// Decides whether a server at `local` should refer an incoming
    /// control association elsewhere, given the cluster's current
    /// loads. Returns the target location, or `None` when the client
    /// should be served locally.
    ///
    /// Policy, in order:
    /// 1. a pinned source always refers to its pinned target;
    /// 2. a draining `local` — or one absent from `loads` entirely,
    ///    i.e. already decommissioned — refers to the live server
    ///    with the fewest control associations (ties: most available
    ///    disk bandwidth, then location name — fully deterministic);
    /// 3. otherwise refer only when `local` holds strictly more
    ///    associations than that least-connected live server, so
    ///    connections converge to within one of each other and a
    ///    referred client is never bounced onward (its new home is
    ///    the minimum and cannot immediately exceed another member).
    pub fn refer_target(&self, local: &str, loads: &[ServerLoad]) -> Option<String> {
        if let Some(to) = self.pins.read().get(local) {
            return Some(to.clone());
        }
        let counts = self.counts.read();
        let count = |loc: &str| counts.get(loc).copied().unwrap_or(0);
        let best = loads
            .iter()
            .filter(|s| s.in_service() && s.location != local)
            .min_by_key(|s| {
                (
                    count(&s.location),
                    std::cmp::Reverse(s.load.available_bps),
                    s.location.clone(),
                )
            })?;
        let local_out_of_service = loads
            .iter()
            .find(|s| s.location == local)
            .is_none_or(|s| !s.in_service());
        (local_out_of_service || count(local) > count(&best.location))
            .then(|| best.location.clone())
    }

    /// The candidate list a referral carries: every live server with
    /// its uncommitted disk bandwidth, least-connected first (same
    /// ordering as [`ControlBalancer::refer_target`]), so a client
    /// whose referral target died can fall back in a sensible order.
    pub fn candidates(&self, loads: &[ServerLoad]) -> Vec<(String, u64)> {
        let counts = self.counts.read();
        let count = |loc: &str| counts.get(loc).copied().unwrap_or(0);
        let mut live: Vec<&ServerLoad> = loads.iter().filter(|s| s.in_service()).collect();
        live.sort_by_key(|s| {
            (
                count(&s.location),
                std::cmp::Reverse(s.load.available_bps),
                s.location.clone(),
            )
        });
        live.into_iter()
            .map(|s| (s.location.clone(), s.load.available_bps))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LoadSnapshot;

    fn loads(specs: &[(&str, u64, bool)]) -> Vec<ServerLoad> {
        specs
            .iter()
            .map(|(name, available, draining)| ServerLoad {
                location: (*name).to_string(),
                load: LoadSnapshot {
                    available_bps: *available,
                    committed_bps: 0,
                    capacity_bps: *available,
                    open_streams: 0,
                    cache_hit_permille: 0,
                },
                draining: *draining,
                crashed: false,
            })
            .collect()
    }

    #[test]
    fn crashed_servers_are_never_referral_targets() {
        let b = ControlBalancer::new();
        let mut l = loads(&[
            ("node-1", 10, false),
            ("node-2", 99, false),
            ("node-3", 10, false),
        ]);
        l[1].crashed = true;
        b.connected("node-1");
        // node-2 would win on bandwidth, but it is dead: the referral
        // goes to the live node-3 and the candidate list omits node-2.
        assert_eq!(b.refer_target("node-1", &l), Some("node-3".into()));
        assert!(!b.candidates(&l).iter().any(|(loc, _)| loc == "node-2"));
        // A crashed local always refers away, like a draining one.
        l[0].crashed = true;
        assert_eq!(b.refer_target("node-1", &l), Some("node-3".into()));
    }

    #[test]
    fn refers_only_when_strictly_more_loaded() {
        let b = ControlBalancer::new();
        let l = loads(&[("node-1", 10, false), ("node-2", 10, false)]);
        assert_eq!(b.refer_target("node-1", &l), None, "all counts equal");
        b.connected("node-1");
        assert_eq!(b.refer_target("node-1", &l), Some("node-2".into()));
        // The referred client lands on node-2: now balanced again.
        b.connected("node-2");
        assert_eq!(b.refer_target("node-1", &l), None);
        assert_eq!(b.refer_target("node-2", &l), None);
    }

    #[test]
    fn sequential_arrivals_spread_within_one() {
        let b = ControlBalancer::new();
        let l = loads(&[
            ("node-1", 10, false),
            ("node-2", 10, false),
            ("node-3", 10, false),
            ("node-4", 10, false),
        ]);
        // Twelve clients all dial node-1; each is referred (or kept)
        // exactly the way the live system would.
        for _ in 0..12 {
            match b.refer_target("node-1", &l) {
                Some(t) => b.connected(&t),
                None => b.connected("node-1"),
            }
        }
        let counts = b.snapshot();
        assert_eq!(counts.iter().map(|(_, n)| n).sum::<usize>(), 12);
        for (loc, n) in &counts {
            assert!(*n == 3, "{loc} holds {n}, expected a perfect 3/3/3/3");
        }
    }

    #[test]
    fn draining_local_always_refers_and_is_never_a_target() {
        let b = ControlBalancer::new();
        let l = loads(&[
            ("node-1", 10, true),
            ("node-2", 10, false),
            ("node-3", 99, false),
        ]);
        // Equal counts: a live server would keep the client, the
        // draining one must not. Ties break on available bandwidth.
        assert_eq!(b.refer_target("node-1", &l), Some("node-3".into()));
        assert_eq!(b.refer_target("node-2", &l), None);
        assert!(!b.candidates(&l).iter().any(|(loc, _)| loc == "node-1"));
    }

    #[test]
    fn no_live_peer_means_no_referral() {
        let b = ControlBalancer::new();
        let l = loads(&[("node-1", 10, true)]);
        assert_eq!(
            b.refer_target("node-1", &l),
            None,
            "a draining server with nowhere to send clients keeps serving them"
        );
        assert_eq!(b.refer_target("node-1", &[]), None);
    }

    #[test]
    fn pins_override_policy_and_liveness() {
        let b = ControlBalancer::new();
        let l = loads(&[("node-1", 10, false), ("node-2", 10, false)]);
        b.pin("node-1", "node-99"); // not even a cluster member
        assert!(b.is_pinned("node-1"));
        assert_eq!(b.refer_target("node-1", &l), Some("node-99".into()));
        b.unpin("node-1");
        assert_eq!(b.refer_target("node-1", &l), None);
    }

    #[test]
    fn candidates_order_by_count_then_bandwidth() {
        let b = ControlBalancer::new();
        let l = loads(&[
            ("node-1", 50, false),
            ("node-2", 10, false),
            ("node-3", 99, false),
        ]);
        b.connected("node-1");
        assert_eq!(
            b.candidates(&l),
            vec![
                ("node-3".to_string(), 99),
                ("node-2".to_string(), 10),
                ("node-1".to_string(), 50),
            ]
        );
        // Disconnect accounting floors at zero, even if unbalanced.
        b.disconnected("node-1");
        b.disconnected("node-1");
        b.disconnected("node-7");
        assert_eq!(b.connections("node-1"), 0);
    }
}
