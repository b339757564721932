//! Stack construction: the two lower-stack configurations of the
//! experiment (Fig. 2) and the client root module that creates its
//! protocol stack dynamically when the application requests a
//! connection (paper §4.1).

use crate::app::{AppMachine, TO_MCA as APP_TO_MCA, TO_ROOT as APP_TO_ROOT};
use crate::mca::{ClientMca, CTRL as MCA_CTRL, DOWN as MCA_DOWN, UP as MCA_UP};
use crate::pdus::McamPdu;
use crate::service::{
    AssocSettled, McamCnf, McamOp, McamReq, ReferralSignal, ReferralStale, StartAssociate,
};
use estelle::external::{MediumModule, MEDIUM_IP};
use estelle::{
    downcast, ip, is, Ctx, IpIndex, ModuleId, ModuleKind, ModuleLabels, StateId, StateMachine,
    Transition,
};
use isode::{IsodeInterfaceModule, IsodeStack};
use netsim::{Medium, SimDuration};
use presentation::PresentationMachine;
use session::SessionMachine;
use std::rc::Rc;
use std::sync::Arc;

/// Which lower stack carries the MCAM control protocol (the paper's
/// two configurations: Estelle-generated presentation+session vs.
/// ISODE through an interface module).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    /// Estelle-generated ISO presentation + session kernels.
    EstellePS,
    /// The hand-coded ISODE stack behind the §4.3 interface module.
    Isode,
}

/// Creates the lower-stack child modules under the calling root and
/// wires `upper`'s `upper_ip` to them. Layer labels: presentation = 1,
/// session = 2, wire/ISODE = 3. `tag` suffixes the module names, so a
/// root that builds more than one stack over a connection's lifetime
/// tells the incarnations apart. Returns the created module ids so a
/// root that rebuilds its stack (e.g. a client following a referral
/// to another server) can release the old one.
pub(crate) fn wire_lower_stack(
    ctx: &mut Ctx<'_>,
    upper: ModuleId,
    upper_ip: IpIndex,
    stack: StackKind,
    medium: Box<dyn Medium>,
    conn: u16,
    tag: &str,
) -> Vec<ModuleId> {
    match stack {
        StackKind::EstellePS => {
            let pres = ctx.create_child(
                format!("pres-{tag}"),
                ModuleKind::Process,
                ModuleLabels::layer_conn(1, conn),
                PresentationMachine::default(),
            );
            let sess = ctx.create_child(
                format!("sess-{tag}"),
                ModuleKind::Process,
                ModuleLabels::layer_conn(2, conn),
                SessionMachine::default(),
            );
            let wire = ctx.create_child(
                format!("wire-{tag}"),
                ModuleKind::Process,
                ModuleLabels::layer_conn(3, conn),
                MediumModule::new(medium),
            );
            ctx.connect(ip(upper, upper_ip), ip(pres, presentation::UP));
            ctx.connect(ip(pres, presentation::DOWN), ip(sess, session::UP));
            ctx.connect(ip(sess, session::DOWN), ip(wire, MEDIUM_IP));
            vec![pres, sess, wire]
        }
        StackKind::Isode => {
            let iface = ctx.create_child(
                format!("isode-{tag}"),
                ModuleKind::Process,
                ModuleLabels::layer_conn(3, conn),
                IsodeInterfaceModule::new(IsodeStack::new(medium)),
            );
            ctx.connect(ip(upper, upper_ip), ip(iface, isode::UP));
            vec![iface]
        }
    }
}

/// Interaction point of the client root towards its application.
pub const ROOT_TO_APP: IpIndex = IpIndex(0);
/// Interaction point of the client root towards its MCA.
pub const ROOT_TO_MCA: IpIndex = IpIndex(1);

const RUN: StateId = StateId(0);

/// MCAM error code reported to the application when a referral chain
/// cannot be completed (hop budget exhausted, or every named
/// candidate is unreachable / already visited — a referral loop).
pub const ERR_REFERRAL: u32 = 907;

/// Opens fresh control connections to cluster servers by location
/// name. Implemented by the world (which owns the pipes and server
/// roots); a `None` means the location is unknown, decommissioned, or
/// draining — the caller falls back to the next referral candidate.
pub trait ControlDial {
    /// A fresh control medium to `location`'s server, or `None`.
    fn dial(&self, location: &str, conn: u16) -> Option<Box<dyn Medium>>;
}

/// How a referral chain ended without a new home.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReferralEnd {
    /// The bounded hop count was exhausted.
    HopLimit,
    /// Every candidate was unreachable or already visited (the
    /// degenerate case of a referral loop).
    Exhausted,
}

/// The client-side referral-following policy, factored out of the
/// root module so its termination properties are unit-testable: a
/// bounded hop count, loop detection over visited locations, and
/// candidate fallback when the named target cannot be dialed.
#[derive(Debug, Clone)]
pub struct ReferralFollower {
    max_hops: u32,
    hops: u32,
    visited: Vec<String>,
}

impl ReferralFollower {
    /// A follower allowing at most `max_hops` referral hops per
    /// association attempt.
    pub(crate) fn new(max_hops: u32) -> Self {
        ReferralFollower {
            max_hops,
            hops: 0,
            visited: Vec::new(),
        }
    }

    /// Starts a fresh chain anchored at `location` (the server the
    /// client dialed itself, or the one a chain settled at): hop
    /// budget restored, only `location` visited.
    pub(crate) fn anchor(&mut self, location: &str) {
        self.hops = 0;
        self.visited.clear();
        self.visited.push(location.to_string());
    }

    /// Follows one referral: tries the named `target` first, then the
    /// `candidates` in order, skipping locations already visited
    /// (loop detection) and those `dial` rejects (dead or draining).
    /// On success the chosen location is marked visited and returned
    /// with whatever `dial` produced.
    ///
    /// # Errors
    ///
    /// [`ReferralEnd::HopLimit`] when the hop budget is exhausted,
    /// [`ReferralEnd::Exhausted`] when no candidate is reachable.
    pub(crate) fn next<T>(
        &mut self,
        target: &str,
        candidates: &[(String, u64)],
        mut dial: impl FnMut(&str) -> Option<T>,
    ) -> Result<(String, T), ReferralEnd> {
        if self.hops >= self.max_hops {
            return Err(ReferralEnd::HopLimit);
        }
        self.hops += 1;
        for location in std::iter::once(target).chain(candidates.iter().map(|(l, _)| l.as_str())) {
            if self.visited.iter().any(|v| v == location) {
                continue;
            }
            if let Some(t) = dial(location) {
                self.visited.push(location.to_string());
                return Ok((location.to_string(), t));
            }
        }
        Err(ReferralEnd::Exhausted)
    }
}

/// The client root module: creates the application at initialization
/// and the MCAM module plus lower stack when the application requests
/// a connection (paper §4.1). A root equipped with a [`ControlDial`]
/// also follows server referrals: it tears the MCA and stack down,
/// dials the named cluster member, rebuilds both, and replays the
/// interrupted request — transparently to the application.
pub struct ClientRoot {
    medium: Option<Box<dyn Medium>>,
    stack: StackKind,
    conn: u16,
    client_addr: u32,
    app_machine: Option<AppMachine>,
    /// Re-dialer for referral targets; `None` makes this a legacy
    /// (pre-referral) client pinned to its original server.
    dialer: Option<Rc<dyn ControlDial>>,
    /// Location of the server the world attached this client to.
    home: String,
    /// Hop/loop bookkeeping for the current referral chain.
    follower: ReferralFollower,
    /// User name of the current association (for re-association
    /// after a referral).
    user: String,
    /// The last referral followed: where the control association now
    /// lives and the candidate list it carried. Dropped when the
    /// server reports saturation (`ErrorRsp 503`) or the association
    /// aborts — the next referral then re-resolves from fresh
    /// candidates instead of trusting a stale load hint.
    cache: Option<(String, Vec<(String, u64)>)>,
    /// Module-name generation counter across stack rebuilds.
    generation: u32,
    /// Lower-stack modules of the current incarnation.
    stack_modules: Vec<ModuleId>,
    /// The application module, once created.
    pub app: Option<ModuleId>,
    /// The MCA module, once created.
    pub mca: Option<ModuleId>,
    /// Location currently carrying the control association.
    pub control_location: String,
    /// The world's event journal; referral follows, crash failovers
    /// and failed referral chains are chained under `client-<conn>`.
    journal: Arc<journal::Journal>,
}

impl std::fmt::Debug for ClientRoot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientRoot")
            .field("stack", &self.stack)
            .field("conn", &self.conn)
            .field("app", &self.app)
            .field("mca", &self.mca)
            .field("control_location", &self.control_location)
            .finish_non_exhaustive()
    }
}

impl ClientRoot {
    /// Creates a client root for connection index `conn`, listening
    /// for streams on `client_addr`, with the given application,
    /// journaling under `client-<conn>` in `journal`. Without
    /// [`ClientRoot::with_referrals`] the client speaks the
    /// pre-referral protocol and stays on its original server.
    pub(crate) fn new(
        medium: Box<dyn Medium>,
        stack: StackKind,
        conn: u16,
        client_addr: u32,
        app: AppMachine,
        journal: Arc<journal::Journal>,
    ) -> Self {
        ClientRoot {
            medium: Some(medium),
            stack,
            conn,
            client_addr,
            app_machine: Some(app),
            dialer: None,
            home: String::new(),
            follower: ReferralFollower::new(0),
            user: String::new(),
            cache: None,
            generation: 0,
            stack_modules: Vec::new(),
            app: None,
            mca: None,
            control_location: String::new(),
            journal,
        }
    }

    /// Records an event under this client's hash chain.
    fn journal_event(&self, kind: journal::EventKind) {
        self.journal.record(&format!("client-{}", self.conn), kind);
    }

    /// Makes this a cluster-aware client: the MCA advertises referral
    /// support, and referrals are followed through `dialer` (at most
    /// `max_hops` per association attempt), starting from the `home`
    /// server the original medium leads to.
    pub(crate) fn with_referrals(
        mut self,
        dialer: Rc<dyn ControlDial>,
        home: impl Into<String>,
        max_hops: u32,
    ) -> Self {
        let home = home.into();
        self.dialer = Some(dialer);
        self.control_location.clone_from(&home);
        self.home = home;
        self.follower = ReferralFollower::new(max_hops);
        self
    }

    /// The referral target this root has cached, if any.
    pub(crate) fn cached_referral(&self) -> Option<String> {
        self.cache.as_ref().map(|(target, _)| target.clone())
    }

    /// Follows one referral: picks a reachable, unvisited target,
    /// releases the current MCA + stack, and rebuilds both over a
    /// fresh medium to the new server. Reports an [`ERR_REFERRAL`]
    /// error to the application when the chain cannot continue.
    ///
    /// A signal with an empty `target` is a *crash failover*: the
    /// association aborted mid-session, and the MCA asks to be
    /// re-homed on any survivor from the root's cached candidate
    /// list, replaying the session re-establishment ops it carried.
    fn follow_referral(&mut self, ctx: &mut Ctx<'_>, sig: ReferralSignal) {
        let dialer = match &self.dialer {
            Some(d) => Rc::clone(d),
            None => {
                // A referral reached a client that cannot re-dial
                // (should not happen: it never advertises support).
                self.journal_event(journal::EventKind::ReferralFailed {
                    target: sig.target.clone(),
                });
                self.fail_referral(ctx, "client cannot follow referrals", sig.resume);
                return;
            }
        };
        // Merge cached candidates behind the fresh ones: if the
        // referral's own list is stale or empty, the last known
        // cluster membership still offers somewhere to go.
        let mut candidates = sig.candidates.clone();
        if let Some((_, cached)) = &self.cache {
            for c in cached {
                if !candidates.iter().any(|(l, _)| l == &c.0) {
                    candidates.push(c.clone());
                }
            }
        }
        let conn = self.conn;
        match self
            .follower
            .next(&sig.target, &candidates, |loc| dialer.dial(loc, conn))
        {
            Ok((location, medium)) => {
                if sig.target.is_empty() {
                    // Crash failover, not a server-issued referral:
                    // record where the stream session moved and the
                    // frame it resumes at.
                    let title = sig
                        .resume
                        .iter()
                        .find_map(|op| match op {
                            McamOp::SelectMovie { title } => Some(title.clone()),
                            _ => None,
                        })
                        .unwrap_or_default();
                    let resume_frame = sig
                        .resume
                        .iter()
                        .find_map(|op| match op {
                            McamOp::Seek { frame } => Some(*frame),
                            _ => None,
                        })
                        .unwrap_or(0);
                    self.journal_event(journal::EventKind::StreamFailedOver {
                        title,
                        from: self.control_location.clone(),
                        to: location.clone(),
                        resume_frame,
                    });
                } else {
                    self.journal_event(journal::EventKind::ReferralFollowed {
                        target: location.clone(),
                    });
                }
                // Cache the merged candidate list: after a crash the
                // incoming signal carries none, and the survivors we
                // already knew about remain the fallback set.
                self.cache = Some((location.clone(), candidates));
                self.control_location.clone_from(&location);
                self.rebuild_stack(ctx, medium);
                ctx.output(
                    ROOT_TO_MCA,
                    StartAssociate {
                        user: self.user.clone(),
                        announce: sig.resume.is_empty(),
                        resume: sig.resume,
                    },
                );
            }
            Err(end) => {
                self.journal_event(journal::EventKind::ReferralFailed {
                    target: sig.target.clone(),
                });
                self.cache = None;
                let why = match end {
                    ReferralEnd::HopLimit => "referral hop limit exhausted",
                    ReferralEnd::Exhausted => {
                        "no reachable referral candidate (referral loop or dead targets)"
                    }
                };
                self.fail_referral(ctx, why, sig.resume);
                // The chain is over: restore the hop budget and clear
                // the visited set so a later retry (which reaches the
                // MCA's re-associate transition directly, never this
                // root) starts fresh from the surviving stack's
                // server instead of inheriting this chain's failure.
                self.reanchor();
            }
        }
    }

    /// Starts a fresh referral chain at the server now carrying the
    /// control association (`home` while none is recorded).
    fn reanchor(&mut self) {
        let at = if self.control_location.is_empty() {
            &self.home
        } else {
            &self.control_location
        };
        self.follower.anchor(at);
    }

    /// Delivers a referral failure to the application as the
    /// confirmation it is waiting for (the old MCA and stack stay up,
    /// so the application may simply try again later).
    fn fail_referral(&mut self, ctx: &mut Ctx<'_>, why: &str, resume: Vec<McamOp>) {
        let what = match resume.first() {
            Some(op) => format!("{why} while re-homing {op:?}"),
            None => why.to_string(),
        };
        ctx.output(
            ROOT_TO_APP,
            McamCnf(McamPdu::ErrorRsp {
                code: ERR_REFERRAL,
                message: what,
            }),
        );
    }

    /// Releases the current MCA and lower stack and builds fresh ones
    /// over `medium`, re-wiring the application and control channels.
    fn rebuild_stack(&mut self, ctx: &mut Ctx<'_>, medium: Box<dyn Medium>) {
        if let Some(old) = self.mca.take() {
            ctx.release_child(old);
        }
        for old in self.stack_modules.drain(..) {
            ctx.release_child(old);
        }
        self.generation += 1;
        let labels = ModuleLabels::layer_conn(0, self.conn);
        // The first incarnation keeps the historical `<conn>` names;
        // referral rebuilds are suffixed with their generation.
        let tag = if self.generation == 1 {
            self.conn.to_string()
        } else {
            format!("{}g{}", self.conn, self.generation)
        };
        let mut mca = ClientMca::new(self.client_addr);
        if self.dialer.is_some() {
            mca = mca.referral_capable();
        }
        let mca = ctx.create_child(format!("mca-{tag}"), ModuleKind::Process, labels, mca);
        self.stack_modules =
            wire_lower_stack(ctx, mca, MCA_DOWN, self.stack, medium, self.conn, &tag);
        ctx.connect(ctx.self_ip(ROOT_TO_MCA), ip(mca, MCA_CTRL));
        ctx.connect(ip(self.app.expect("init ran"), APP_TO_MCA), ip(mca, MCA_UP));
        self.mca = Some(mca);
    }
}

impl StateMachine for ClientRoot {
    fn num_ips(&self) -> usize {
        2
    }

    fn initial_state(&self) -> StateId {
        RUN
    }

    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        let app = ctx.create_child(
            format!("app-{}", self.conn),
            ModuleKind::Process,
            ModuleLabels::layer_conn(0, self.conn),
            self.app_machine.take().expect("constructed with an app"),
        );
        ctx.connect(ctx.self_ip(ROOT_TO_APP), ip(app, APP_TO_ROOT));
        self.app = Some(app);
    }

    fn transitions() -> Vec<Transition<Self>> {
        vec![
            Transition::on(
                "connection-request",
                RUN,
                ROOT_TO_APP,
                |m: &mut Self, ctx, msg| {
                    // Anything but a first Associate is dropped.
                    let req = downcast::<McamReq>(msg.unwrap()).unwrap();
                    let McamOp::Associate { user } = req.0 else {
                        return;
                    };
                    if m.mca.is_some() {
                        return;
                    }
                    m.user = user.clone();
                    m.follower.anchor(&m.home);
                    let medium = m.medium.take().expect("unused medium");
                    m.rebuild_stack(ctx, medium);
                    ctx.output(
                        ROOT_TO_MCA,
                        StartAssociate {
                            user,
                            announce: true,
                            resume: Vec::new(),
                        },
                    );
                },
            )
            .provided(|_, msg| is::<McamReq>(msg))
            .cost(SimDuration::from_micros(400)),
            // The server referred this client to another cluster
            // member: re-home the control association there.
            Transition::on("referral", RUN, ROOT_TO_MCA, |m: &mut Self, ctx, msg| {
                let sig = downcast::<ReferralSignal>(msg.unwrap()).unwrap();
                m.follow_referral(ctx, sig);
            })
            .provided(|_, msg| is::<ReferralSignal>(msg))
            .cost(SimDuration::from_micros(400)),
            // Association up: the referral chain (if any) settled —
            // restore the hop budget, anchored at the new home.
            Transition::on("settled", RUN, ROOT_TO_MCA, |m: &mut Self, _ctx, msg| {
                let _ = downcast::<AssocSettled>(msg.unwrap()).unwrap();
                m.reanchor();
            })
            .provided(|_, msg| is::<AssocSettled>(msg))
            .cost(SimDuration::from_micros(20)),
            // Saturation or abort: the cached referral no longer
            // reflects cluster load.
            Transition::on("stale", RUN, ROOT_TO_MCA, |m: &mut Self, _ctx, msg| {
                let _ = downcast::<ReferralStale>(msg.unwrap()).unwrap();
                m.cache = None;
            })
            .provided(|_, msg| is::<ReferralStale>(msg))
            .cost(SimDuration::from_micros(20)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dial stand-in: only the listed locations answer.
    fn dialer<'a>(alive: &'a [&'a str]) -> impl FnMut(&str) -> Option<String> + 'a {
        move |loc| alive.iter().find(|a| **a == loc).map(|a| (*a).to_string())
    }

    fn hint(locations: &[&str]) -> Vec<(String, u64)> {
        locations.iter().map(|l| ((*l).to_string(), 0)).collect()
    }

    #[test]
    fn follower_prefers_target_then_candidates() {
        let mut f = ReferralFollower::new(4);
        f.anchor("node-1");
        let (loc, _) = f
            .next("node-2", &hint(&["node-3"]), dialer(&["node-2", "node-3"]))
            .unwrap();
        assert_eq!(loc, "node-2");
        assert_eq!(f.hops, 1);
        assert_eq!(f.visited, ["node-1", "node-2"]);
    }

    #[test]
    fn follower_falls_back_when_target_is_dead() {
        let mut f = ReferralFollower::new(4);
        f.anchor("node-1");
        // The named target is gone (decommissioned/draining): the
        // next live candidate takes the association.
        let (loc, _) = f
            .next(
                "node-9",
                &hint(&["node-9", "node-2", "node-3"]),
                dialer(&["node-2", "node-3"]),
            )
            .unwrap();
        assert_eq!(loc, "node-2");
        // Nothing dialable at all: the chain is exhausted.
        assert_eq!(
            f.next("node-9", &hint(&["node-8"]), dialer(&[])),
            Err(ReferralEnd::Exhausted)
        );
    }

    #[test]
    fn follower_detects_referral_loops() {
        let mut f = ReferralFollower::new(8);
        f.anchor("node-1");
        // node-1 refers to node-2; node-2 refers straight back.
        // Loop detection (visited set) terminates the chain even
        // though the hop budget is far from spent.
        f.next("node-2", &hint(&[]), dialer(&["node-1", "node-2"]))
            .unwrap();
        assert_eq!(
            f.next(
                "node-1",
                &hint(&["node-1", "node-2"]),
                dialer(&["node-1", "node-2"])
            ),
            Err(ReferralEnd::Exhausted),
            "both ends of the loop are already visited"
        );
        assert!(f.hops < 8, "loops terminate well before the hop budget");
    }

    #[test]
    fn follower_enforces_hop_limit() {
        let mut f = ReferralFollower::new(2);
        f.anchor("node-1");
        let all = ["node-1", "node-2", "node-3", "node-4", "node-5"];
        f.next("node-2", &hint(&[]), dialer(&all)).unwrap();
        f.next("node-3", &hint(&[]), dialer(&all)).unwrap();
        assert_eq!(
            f.next("node-4", &hint(&[]), dialer(&all)),
            Err(ReferralEnd::HopLimit),
            "a chain longer than max_hops is cut"
        );
        // Settling re-anchors: the budget is restored for the next chain.
        f.anchor("node-3");
        assert_eq!(f.hops, 0);
        assert_eq!(f.visited, ["node-3"]);
        assert!(f.next("node-4", &hint(&[]), dialer(&all)).is_ok());
    }

    /// A re-dialer that reaches nobody.
    struct NoDial;

    impl ControlDial for NoDial {
        fn dial(&self, _location: &str, _conn: u16) -> Option<Box<dyn Medium>> {
            None
        }
    }

    fn root_homed_at(home: &str) -> ClientRoot {
        let (medium, _peer) = netsim::LoopbackMedium::pair();
        let clock = Arc::new(netsim::VirtualClock::new());
        ClientRoot::new(
            Box::new(medium),
            StackKind::EstellePS,
            0,
            1,
            AppMachine::default(),
            Arc::new(journal::Journal::new(clock)),
        )
        .with_referrals(Rc::new(NoDial), home, 4)
    }

    #[test]
    fn reanchor_starts_at_the_control_location() {
        let mut root = root_homed_at("node-1");
        root.follower
            .next("node-2", &hint(&[]), dialer(&["node-2"]))
            .unwrap();
        root.control_location = "node-2".into();
        root.reanchor();
        assert_eq!(root.follower.hops, 0);
        assert_eq!(root.follower.visited, ["node-2"]);
    }

    #[test]
    fn reanchor_falls_back_to_home() {
        let mut root = root_homed_at("node-1");
        root.follower
            .next("node-2", &hint(&[]), dialer(&["node-2"]))
            .unwrap();
        // No association recorded: the chain restarts where the world
        // attached the client.
        root.control_location.clear();
        root.reanchor();
        assert_eq!(root.follower.hops, 0);
        assert_eq!(root.follower.visited, ["node-1"]);
    }
}
