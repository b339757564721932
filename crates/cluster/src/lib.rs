//! `cluster` — replica placement and load-aware stream routing for a
//! multi-server movie service.
//!
//! After the storage subsystem (`store`) made disk bandwidth a
//! first-class, admission-controlled resource *within* one server,
//! this crate scales the service *across* servers: a published movie
//! is placed on K replica servers ([`Placement`]), the directory entry
//! carries every replica's location, and each `SelectMovie` is routed
//! to the replica whose admission controller reports the most
//! uncommitted bandwidth ([`ReplicaDirectory::route`]) — falling over
//! to the next replica when the first rejects, so a single popular
//! title no longer saturates one machine while its peers idle.
//!
//! The crate is deliberately independent of the protocol layer: it
//! reasons about *locations* (opaque strings such as `"node-3"`) and
//! *load probes* ([`LoadProbe`], implemented here for
//! `Arc<store::BlockStore>` and wired to the stream providers by the
//! `mcam` crate), so the same policies drive the live world, the unit
//! tests, and the `store_throughput` cluster benchmark.
//!
//! Placement is no longer decided only at publish time: the
//! [`RebalanceController`] (module [`rebalance`]) owns the whole
//! replica lifecycle — place, grow a hot title onto idle servers,
//! shrink over-provisioned ones, migrate sole copies off a draining
//! server, and decommission it — with every copy flowing through the
//! target store's admission-charged, paced write path. A server
//! handle only hands over its store ([`MigrationHost::store`]); the
//! controller calls the store's import methods by their own names.
//!
//! # Examples
//!
//! ```
//! use cluster::{Placement, ReplicaDirectory};
//! use store::{BlockStore, StoreConfig};
//!
//! let dir = ReplicaDirectory::new();
//! for name in ["node-1", "node-2", "node-3"] {
//!     dir.register(name, BlockStore::new(StoreConfig::default()));
//! }
//! let mut placement = Placement::round_robin(2);
//! let replicas = placement.place(&dir.loads());
//! assert_eq!(replicas, vec!["node-1".to_string(), "node-2".to_string()]);
//! // Route a select: candidates ordered most-available-first.
//! let order = dir.route(&replicas);
//! assert_eq!(order.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod control;
pub mod rebalance;

pub use control::ControlBalancer;
pub use rebalance::{
    DrainError, MigrationHost, RebalanceConfig, RebalanceController, RebalanceStats,
};

use parking_lot::RwLock;
use std::fmt;
use std::sync::Arc;

/// A point-in-time load snapshot of one server's storage subsystem,
/// as reported by its admission controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadSnapshot {
    /// Bandwidth still uncommitted, bits/second.
    pub available_bps: u64,
    /// Bandwidth committed to admitted streams, bits/second.
    pub committed_bps: u64,
    /// Total deliverable bandwidth, bits/second.
    pub capacity_bps: u64,
    /// Streams currently open.
    pub open_streams: usize,
    /// Fraction of block requests served without a dedicated disk
    /// read (buffer-cache hits plus coalesced in-flight reads), in
    /// per-mille. A deterministic placement tie-breaker: between two
    /// servers with equal committed bandwidth and stream count, the
    /// one whose cache works harder absorbs a new replica with less
    /// disk stress.
    pub cache_hit_permille: u32,
}

/// Anything that can report the storage load of one server machine.
pub trait LoadProbe {
    /// The server's current load.
    fn load(&self) -> LoadSnapshot;
}

impl<T: LoadProbe + ?Sized> LoadProbe for Arc<T> {
    fn load(&self) -> LoadSnapshot {
        (**self).load()
    }
}

impl LoadProbe for store::BlockStore {
    fn load(&self) -> LoadSnapshot {
        let stats = self.stats();
        LoadSnapshot {
            available_bps: stats.capacity_bps.saturating_sub(stats.committed_bps),
            committed_bps: stats.committed_bps,
            capacity_bps: stats.capacity_bps,
            open_streams: stats.open_streams,
            cache_hit_permille: (stats.service_hit_ratio() * 1000.0) as u32,
        }
    }
}

/// A named server's load, as returned by [`ReplicaDirectory::loads`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerLoad {
    /// The server's location name (e.g. `"node-3"`).
    pub location: String,
    /// Its load snapshot.
    pub load: LoadSnapshot,
    /// The server is being drained: it finishes its streams but must
    /// receive no new placement, replica, or routed stream.
    pub draining: bool,
    /// The server has crashed: its streams are gone and it must be
    /// skipped by routing, placement, and failover until it
    /// re-registers.
    pub crashed: bool,
}

impl ServerLoad {
    /// Neither draining nor crashed: the only servers placement,
    /// routing, referral and copies may choose.
    pub fn in_service(&self) -> bool {
        !self.draining && !self.crashed
    }
}

/// How [`Placement`] picks the K replica servers of a new movie.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementStrategy {
    /// Successive movies start on successive servers, wrapping around:
    /// even load for a uniform catalogue, no load feedback needed.
    #[default]
    RoundRobin,
    /// Pick the servers with the least committed bandwidth right now
    /// (ties broken by fewer open streams, then registration order).
    LeastLoaded,
}

/// Replica-placement policy: assigns each published movie to K
/// servers.
#[derive(Debug, Clone)]
pub struct Placement {
    strategy: PlacementStrategy,
    k: usize,
    cursor: usize,
}

impl Placement {
    /// A placement policy with `k` replicas per movie.
    pub(crate) fn new(strategy: PlacementStrategy, k: usize) -> Self {
        Placement {
            strategy,
            k: k.max(1),
            cursor: 0,
        }
    }

    /// Round-robin placement with `k` replicas per movie.
    pub fn round_robin(k: usize) -> Self {
        Self::new(PlacementStrategy::RoundRobin, k)
    }

    /// Least-loaded placement with `k` replicas per movie.
    pub fn least_loaded(k: usize) -> Self {
        Self::new(PlacementStrategy::LeastLoaded, k)
    }

    /// Replicas per movie.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// Chooses the replica locations for one new movie from the
    /// cluster's current loads. Returns at most `k` distinct
    /// locations (fewer when the cluster is smaller than `k`), in
    /// the order the replicas should be listed in the directory.
    pub fn place(&mut self, loads: &[ServerLoad]) -> Vec<String> {
        self.place_with(loads, self.k, &[])
    }

    /// Like [`Placement::place`] but with an explicit replica count
    /// (overriding the policy's configured `k` for this one decision)
    /// and a list of locations that must not be chosen — the record
    /// path and the rebalancer's grow step use it to pick peers for a
    /// title that already lives somewhere. Draining servers are never
    /// selected, whatever the strategy.
    pub(crate) fn place_with(
        &mut self,
        loads: &[ServerLoad],
        k: usize,
        exclude: &[String],
    ) -> Vec<String> {
        let candidates: Vec<&ServerLoad> = loads
            .iter()
            .filter(|s| s.in_service() && !exclude.contains(&s.location))
            .collect();
        if candidates.is_empty() || k == 0 {
            return Vec::new();
        }
        let k = k.min(candidates.len());
        match self.strategy {
            PlacementStrategy::RoundRobin => {
                let start = self.cursor % candidates.len();
                self.cursor = self.cursor.wrapping_add(1);
                (0..k)
                    .map(|i| candidates[(start + i) % candidates.len()].location.clone())
                    .collect()
            }
            PlacementStrategy::LeastLoaded => {
                let mut by_load = candidates;
                by_load.sort_by(|a, b| least_loaded_key(a).cmp(&least_loaded_key(b)));
                by_load
                    .into_iter()
                    .take(k)
                    .map(|s| s.location.clone())
                    .collect()
            }
        }
    }
}

/// The least-loaded ordering: least committed bandwidth first, ties
/// broken by fewer open streams, then by the higher cache hit ratio,
/// and finally by location name — fully deterministic, independent of
/// registration order.
fn least_loaded_key(s: &ServerLoad) -> (u64, usize, u32, &str) {
    (
        s.load.committed_bps,
        s.load.open_streams,
        1000 - s.load.cache_hit_permille.min(1000),
        s.location.as_str(),
    )
}

/// One registered server: its location, probe, and drain/crash flags.
struct Slot<P> {
    location: String,
    probe: P,
    draining: bool,
    crashed: bool,
}

/// The slot registered under `location`, if it is in service (see
/// [`ServerLoad::in_service`]).
fn serving<'a, P>(servers: &'a [Slot<P>], location: &str) -> Option<&'a Slot<P>> {
    servers
        .iter()
        .find(|s| s.location == location && !s.draining && !s.crashed)
}

/// The cluster-wide registry of server locations and their load
/// probes: the layer between the movie directory (which stores
/// replica *names*) and the per-server storage stacks (which answer
/// load queries and host streams).
pub struct ReplicaDirectory<P> {
    servers: RwLock<Vec<Slot<P>>>,
}

impl<P> fmt::Debug for ReplicaDirectory<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let servers = self.servers.read();
        f.debug_struct("ReplicaDirectory")
            .field(
                "servers",
                &servers.iter().map(|s| &s.location).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl<P> Default for ReplicaDirectory<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> ReplicaDirectory<P> {
    /// An empty directory.
    pub fn new() -> Self {
        ReplicaDirectory {
            servers: RwLock::new(Vec::new()),
        }
    }

    /// Number of registered servers.
    pub fn len(&self) -> usize {
        self.servers.read().len()
    }

    /// True when no server is registered.
    pub fn is_empty(&self) -> bool {
        self.servers.read().is_empty()
    }

    /// All registered locations, in registration order.
    pub fn locations(&self) -> Vec<String> {
        self.servers
            .read()
            .iter()
            .map(|s| s.location.clone())
            .collect()
    }

    /// Whether `location` is registered and in service: the servers a
    /// dialer may reach and a copy may keep landing on.
    pub fn in_service(&self, location: &str) -> bool {
        serving(&self.servers.read(), location).is_some()
    }

    /// Whether `location` is registered and currently draining.
    pub fn is_draining(&self, location: &str) -> bool {
        self.servers
            .read()
            .iter()
            .any(|s| s.location == location && s.draining)
    }

    /// Marks `location` as draining (or un-marks it): a draining
    /// server keeps serving its open streams but is skipped by
    /// [`ReplicaDirectory::route`] and by [`Placement::place`].
    /// Returns false when the location is not registered.
    pub fn set_draining(&self, location: &str, draining: bool) -> bool {
        let mut servers = self.servers.write();
        match servers.iter_mut().find(|s| s.location == location) {
            Some(slot) => {
                slot.draining = draining;
                true
            }
            None => false,
        }
    }

    /// Marks `location` as crashed (or un-marks it): unlike a drain,
    /// a crash is immediate — the server's streams are gone, and the
    /// location is skipped by routing, placement, referral, and
    /// failover until it re-registers. Returns false when the
    /// location is not registered.
    pub fn set_crashed(&self, location: &str, crashed: bool) -> bool {
        let mut servers = self.servers.write();
        match servers.iter_mut().find(|s| s.location == location) {
            Some(slot) => {
                slot.crashed = crashed;
                true
            }
            None => false,
        }
    }

    /// Removes `location` from the registry (decommission), returning
    /// its probe so the caller can abort whatever was in flight.
    pub(crate) fn deregister(&self, location: &str) -> Option<P> {
        let mut servers = self.servers.write();
        let idx = servers.iter().position(|s| s.location == location)?;
        Some(servers.remove(idx).probe)
    }
}

impl<P: LoadProbe + Clone> ReplicaDirectory<P> {
    /// Registers (or replaces) a server under `location`. A replaced
    /// registration clears any drain flag — the location is back in
    /// service.
    pub fn register(&self, location: impl Into<String>, probe: P) {
        let location = location.into();
        let mut servers = self.servers.write();
        match servers.iter_mut().find(|s| s.location == location) {
            Some(slot) => {
                slot.probe = probe;
                slot.draining = false;
                slot.crashed = false;
            }
            None => servers.push(Slot {
                location,
                probe,
                draining: false,
                crashed: false,
            }),
        }
    }

    /// The probe registered under `location`.
    pub fn get(&self, location: &str) -> Option<P> {
        self.servers
            .read()
            .iter()
            .find(|s| s.location == location)
            .map(|s| s.probe.clone())
    }

    /// The first registered probe satisfying `pred`, in registration
    /// order (e.g. the provider hosting a given stream).
    pub fn find(&self, mut pred: impl FnMut(&P) -> bool) -> Option<P> {
        self.servers
            .read()
            .iter()
            .find(|s| pred(&s.probe))
            .map(|s| s.probe.clone())
    }

    /// Current load of every registered server, in registration order
    /// (draining servers included, flagged).
    pub fn loads(&self) -> Vec<ServerLoad> {
        self.servers
            .read()
            .iter()
            .map(|s| ServerLoad {
                location: s.location.clone(),
                load: s.probe.load(),
                draining: s.draining,
                crashed: s.crashed,
            })
            .collect()
    }

    /// Orders `replicas` for a stream-open attempt: registered
    /// replicas sorted by most uncommitted `available_bps` first
    /// (ties keep the replica-list order), each paired with its
    /// probe. Locations not registered here — decommissioned servers
    /// still named by a stale directory entry — and draining or
    /// crashed servers are skipped, so routing degrades to failover
    /// instead of erroring; the caller falls back to local service
    /// when nothing matches.
    pub fn route(&self, replicas: &[String]) -> Vec<(String, P)> {
        self.route_by(replicas, |_| false)
    }

    /// [`ReplicaDirectory::route`] with an affinity tie-break: among
    /// replicas with equal uncommitted bandwidth, those for which
    /// `prefer` holds come first (before the replica-list order).
    /// Stream sharing routes the next viewer of a title to a replica
    /// already streaming it in a merge group — the joiner is likely
    /// free there, while an equally-loaded cold replica would charge
    /// a full disk stream.
    pub fn route_by(
        &self,
        replicas: &[String],
        mut prefer: impl FnMut(&P) -> bool,
    ) -> Vec<(String, P)> {
        let servers = self.servers.read();
        let mut candidates: Vec<(usize, u64, bool, String, P)> = replicas
            .iter()
            .enumerate()
            .filter_map(|(order, location)| {
                serving(&servers, location).map(|s| {
                    (
                        order,
                        s.probe.load().available_bps,
                        prefer(&s.probe),
                        s.location.clone(),
                        s.probe.clone(),
                    )
                })
            })
            .collect();
        candidates.sort_by(|a, b| b.1.cmp(&a.1).then(b.2.cmp(&a.2)).then(a.0.cmp(&b.0)));
        candidates
            .into_iter()
            .map(|(_, _, _, l, p)| (l, p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A probe whose availability and cache hit ratio the test can
    /// dial.
    #[derive(Clone)]
    struct FakeProbe(Rc<Cell<u64>>, Rc<Cell<u32>>);

    impl FakeProbe {
        fn new(available: u64) -> Self {
            FakeProbe(Rc::new(Cell::new(available)), Rc::new(Cell::new(0)))
        }
        fn set(&self, available: u64) {
            self.0.set(available);
        }
        fn set_hit(&self, permille: u32) {
            self.1.set(permille);
        }
    }

    impl LoadProbe for FakeProbe {
        fn load(&self) -> LoadSnapshot {
            LoadSnapshot {
                available_bps: self.0.get(),
                committed_bps: 1_000_000 - self.0.get().min(1_000_000),
                capacity_bps: 1_000_000,
                open_streams: 0,
                cache_hit_permille: self.1.get(),
            }
        }
    }

    fn three_server_dir() -> (ReplicaDirectory<FakeProbe>, Vec<FakeProbe>) {
        let dir = ReplicaDirectory::new();
        let probes: Vec<FakeProbe> = (0..3).map(|_| FakeProbe::new(1_000_000)).collect();
        for (i, p) in probes.iter().enumerate() {
            dir.register(format!("node-{}", i + 1), p.clone());
        }
        (dir, probes)
    }

    #[test]
    fn round_robin_rotates_start_server() {
        let (dir, _) = three_server_dir();
        let mut p = Placement::round_robin(2);
        assert_eq!(p.place(&dir.loads()), ["node-1", "node-2"]);
        assert_eq!(p.place(&dir.loads()), ["node-2", "node-3"]);
        assert_eq!(p.place(&dir.loads()), ["node-3", "node-1"]);
        assert_eq!(p.place(&dir.loads()), ["node-1", "node-2"]);
    }

    #[test]
    fn least_loaded_prefers_uncommitted_servers() {
        let (dir, probes) = three_server_dir();
        probes[0].set(100_000); // heavily committed
        probes[1].set(500_000);
        probes[2].set(900_000); // nearly idle
        let mut p = Placement::least_loaded(2);
        assert_eq!(p.place(&dir.loads()), ["node-3", "node-2"]);
    }

    #[test]
    fn k_is_clamped_to_cluster_size() {
        let (dir, _) = three_server_dir();
        let mut p = Placement::round_robin(5);
        assert_eq!(p.place(&dir.loads()).len(), 3);
        assert!(Placement::round_robin(0).k() == 1, "k=0 is clamped to 1");
        assert!(Placement::least_loaded(1).place(&[]).is_empty());
    }

    #[test]
    fn place_with_overrides_k_per_decision() {
        let (dir, probes) = three_server_dir();
        probes[2].set(900_000);
        probes[1].set(500_000);
        probes[0].set(100_000);
        let mut p = Placement::least_loaded(3);
        // A recording already on one server asks for k-1 = 1 peer.
        assert_eq!(p.place_with(&dir.loads(), 1, &[]), ["node-3"]);
        assert!(p.place_with(&dir.loads(), 0, &[]).is_empty());
        assert_eq!(p.place(&dir.loads()).len(), 3, "configured k unchanged");
    }

    #[test]
    fn place_with_skips_existing_holders_and_draining_servers() {
        let (dir, probes) = three_server_dir();
        probes[2].set(900_000); // the obvious least-loaded pick
        let mut p = Placement::least_loaded(2);
        // Growing a replica set never re-selects a holder…
        let holders = vec!["node-3".to_string()];
        assert_eq!(p.place_with(&dir.loads(), 1, &holders), ["node-1"]);
        // …and never selects a draining server, under either strategy.
        assert!(dir.set_draining("node-1", true));
        assert_eq!(p.place_with(&dir.loads(), 1, &holders), ["node-2"]);
        let mut rr = Placement::round_robin(3);
        assert_eq!(rr.place(&dir.loads()), ["node-2", "node-3"]);
        // Everything excluded: nothing to place on.
        assert!(dir.set_draining("node-2", true));
        assert!(p.place_with(&dir.loads(), 1, &holders).is_empty());
    }

    #[test]
    fn capacity_ties_break_on_streams_then_cache_then_name() {
        let (dir, probes) = three_server_dir();
        // Equal availability everywhere; node-2's cache hits more.
        probes[1].set_hit(800);
        let mut p = Placement::least_loaded(1);
        assert_eq!(p.place(&dir.loads()), ["node-2"]);
        // Full tie: lexicographic location order, not registration
        // order — re-registering in a different order changes nothing.
        probes[1].set_hit(0);
        let reversed = ReplicaDirectory::new();
        for (i, probe) in probes.iter().enumerate().rev() {
            reversed.register(format!("node-{}", i + 1), probe.clone());
        }
        assert_eq!(p.place(&reversed.loads()), ["node-1"]);
    }

    #[test]
    fn draining_servers_drop_out_of_routing_until_reregistered() {
        let (dir, _) = three_server_dir();
        let replicas: Vec<String> = vec!["node-1".into(), "node-2".into()];
        assert!(dir.set_draining("node-1", true));
        assert!(dir.is_draining("node-1"));
        let order: Vec<String> = dir.route(&replicas).into_iter().map(|(l, _)| l).collect();
        assert_eq!(order, ["node-2"], "draining replica receives no stream");
        // Deregistration removes it entirely; stale names route past it.
        let probe = dir.deregister("node-1").expect("was registered");
        assert_eq!(dir.len(), 2);
        assert!(!dir.is_draining("node-1"));
        assert!(!dir.set_draining("node-1", true), "unknown location");
        // Re-registering puts it back in service with a clean flag.
        dir.register("node-1", probe);
        assert!(!dir.is_draining("node-1"));
        assert_eq!(dir.route(&replicas).len(), 2);
    }

    #[test]
    fn crashed_servers_are_skipped_by_routing_and_placement() {
        // Regression: `route_by` used to filter only draining servers,
        // so a crashed replica was retried (and timed out) before the
        // caller's 503 fallback. A crashed location must drop out of
        // route order, placement, and candidate lists immediately.
        let (dir, probes) = three_server_dir();
        probes[0].set(900_000); // crashed node would otherwise win
        let replicas: Vec<String> = vec!["node-1".into(), "node-2".into(), "node-3".into()];
        assert!(dir.set_crashed("node-1", true));
        assert!(!dir.in_service("node-1"));
        let order: Vec<String> = dir.route(&replicas).into_iter().map(|(l, _)| l).collect();
        assert_eq!(order, ["node-2", "node-3"], "crashed replica never routed");
        // Placement never selects a crashed server either.
        let mut p = Placement::least_loaded(3);
        assert_eq!(p.place(&dir.loads()), ["node-2", "node-3"]);
        // Re-registration (recovery) puts it back in service.
        let probe = dir.get("node-1").unwrap();
        dir.register("node-1", probe);
        assert!(dir.in_service("node-1"));
        assert_eq!(dir.route(&replicas).len(), 3);
        assert!(!dir.set_crashed("node-9", true), "unknown location");
    }

    #[test]
    fn route_orders_by_available_bandwidth() {
        let (dir, probes) = three_server_dir();
        probes[0].set(200_000);
        probes[1].set(800_000);
        probes[2].set(500_000);
        let replicas: Vec<String> = vec!["node-1".into(), "node-2".into(), "node-3".into()];
        let order: Vec<String> = dir.route(&replicas).into_iter().map(|(l, _)| l).collect();
        assert_eq!(order, ["node-2", "node-3", "node-1"]);
    }

    #[test]
    fn route_by_breaks_bandwidth_ties_by_affinity() {
        let (dir, probes) = three_server_dir();
        let replicas: Vec<String> = vec!["node-1".into(), "node-2".into(), "node-3".into()];
        // All tied on availability: the preferred replica jumps the
        // replica-list order…
        let order: Vec<String> = dir
            .route_by(&replicas, |p| Rc::ptr_eq(&p.0, &probes[2].0))
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        assert_eq!(order, ["node-3", "node-1", "node-2"]);
        // …but never outranks strictly more uncommitted bandwidth.
        probes[0].set(900_000);
        probes[1].set(100_000);
        probes[2].set(100_000);
        let order: Vec<String> = dir
            .route_by(&replicas, |p| Rc::ptr_eq(&p.0, &probes[2].0))
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        assert_eq!(order, ["node-1", "node-3", "node-2"]);
    }

    #[test]
    fn route_skips_unknown_locations_and_keeps_tie_order() {
        let (dir, _) = three_server_dir();
        let replicas: Vec<String> = vec![
            "node-9".into(),
            "node-2".into(),
            "node-1".into(),
            "node-3".into(),
        ];
        let order: Vec<String> = dir.route(&replicas).into_iter().map(|(l, _)| l).collect();
        // All ties at full availability: replica-list order survives,
        // the unregistered node-9 is dropped.
        assert_eq!(order, ["node-2", "node-1", "node-3"]);
        assert!(dir.route(&["node-9".to_string()]).is_empty());
    }

    #[test]
    fn register_replaces_existing_location() {
        let dir = ReplicaDirectory::new();
        let a = FakeProbe::new(1);
        let b = FakeProbe::new(2);
        dir.register("node-1", a);
        dir.register("node-1", b);
        assert_eq!(dir.len(), 1);
        assert_eq!(dir.get("node-1").unwrap().load().available_bps, 2);
        assert!(dir.get("node-7").is_none());
        assert_eq!(dir.locations(), ["node-1"]);
    }

    #[test]
    fn block_store_probe_tracks_admission() {
        let store = store::BlockStore::new(store::StoreConfig::default());
        let snap = store.load();
        assert_eq!(snap.committed_bps, 0);
        assert_eq!(snap.available_bps, snap.capacity_bps);
        assert!(snap.capacity_bps > 0);
    }
}
