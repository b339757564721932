//! Integration tests for the Estelle runtime semantics: structural
//! rules, dynamic creation, precedence, firing policies, traces.

use estelle::sched::{run_sequential, FirePolicy, SeqOptions, StopReason};
use estelle::{
    downcast, impl_interaction, ip, Ctx, Dispatch, EstelleError, IpIndex, ModuleKind, ModuleLabels,
    Runtime, StateId, StateMachine, Transition,
};
use netsim::SimDuration;
use std::sync::Arc;

const S0: StateId = StateId(0);
const S1: StateId = StateId(1);
const IO: IpIndex = IpIndex(0);

#[derive(Debug)]
struct Token(u64);
impl_interaction!(Token);

/// A module that echoes tokens back, decrementing, until zero.
#[derive(Debug, Default)]
struct Echo {
    seen: u64,
    serve: Option<u64>,
}

impl StateMachine for Echo {
    fn num_ips(&self) -> usize {
        1
    }
    fn initial_state(&self) -> StateId {
        S0
    }
    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(n) = self.serve {
            ctx.output(IO, Token(n));
        }
    }
    fn transitions() -> Vec<Transition<Self>> {
        vec![Transition::on("echo", S0, IO, |m: &mut Self, ctx, msg| {
            let t = downcast::<Token>(msg.unwrap()).unwrap();
            m.seen += 1;
            if t.0 > 0 {
                ctx.output(IO, Token(t.0 - 1));
            }
        })]
    }
}

fn echo_pair(n: u64) -> (Runtime, estelle::ModuleId, estelle::ModuleId) {
    let (rt, _clock) = Runtime::sim();
    let a = rt
        .add_module(
            None,
            "a",
            ModuleKind::SystemProcess,
            ModuleLabels::default(),
            Echo {
                serve: Some(n),
                ..Default::default()
            },
        )
        .unwrap();
    let b = rt
        .add_module(
            None,
            "b",
            ModuleKind::SystemProcess,
            ModuleLabels::default(),
            Echo::default(),
        )
        .unwrap();
    rt.connect(ip(a, IO), ip(b, IO)).unwrap();
    rt.start().unwrap();
    (rt, a, b)
}

#[test]
fn echo_terminates_with_expected_counts() {
    let (rt, a, b) = echo_pair(9);
    let report = run_sequential(&rt, &SeqOptions::default());
    assert_eq!(report.stopped, StopReason::Quiescent);
    assert_eq!(report.firings, 10);
    assert_eq!(rt.with_machine::<Echo, _>(b, |m| m.seen).unwrap(), 5);
    assert_eq!(rt.with_machine::<Echo, _>(a, |m| m.seen).unwrap(), 5);
    assert_eq!(rt.counters().lost_outputs, 0);
}

#[test]
fn one_per_scan_policy_reaches_same_outcome() {
    let (rt, _a, b) = echo_pair(9);
    let opts = SeqOptions {
        fire_policy: FirePolicy::OnePerScan,
        ..Default::default()
    };
    let report = run_sequential(&rt, &opts);
    assert_eq!(report.firings, 10);
    assert_eq!(rt.with_machine::<Echo, _>(b, |m| m.seen).unwrap(), 5);
}

#[test]
fn budget_spent_on_last_candidate_reports_max_firings() {
    // One token, one hop: the only firing of the run is also the last
    // candidate of its pass, and it spends the whole budget.
    for fire_policy in [FirePolicy::Pass, FirePolicy::OnePerScan] {
        let (rt, _a, b) = echo_pair(0);
        let opts = SeqOptions {
            fire_policy,
            max_firings: Some(1),
            ..Default::default()
        };
        let report = run_sequential(&rt, &opts);
        assert_eq!(report.firings, 1);
        assert_eq!(report.stopped, StopReason::MaxFirings, "{fire_policy:?}");
        assert_eq!(rt.with_machine::<Echo, _>(b, |m| m.seen).unwrap(), 1);
    }
}

#[test]
fn hardcoded_dispatch_reaches_same_outcome() {
    let (rt, _a, b) = echo_pair(9);
    let opts = SeqOptions {
        dispatch: Dispatch::HardCoded,
        ..Default::default()
    };
    run_sequential(&rt, &opts);
    assert_eq!(rt.with_machine::<Echo, _>(b, |m| m.seen).unwrap(), 5);
}

// ---------------------------------------------------------------------
// Structural rules.
// ---------------------------------------------------------------------

#[test]
fn process_requires_system_ancestor() {
    let (rt, _c) = Runtime::sim();
    let err = rt
        .add_module(
            None,
            "p",
            ModuleKind::Process,
            ModuleLabels::default(),
            Echo::default(),
        )
        .unwrap_err();
    assert!(matches!(err, EstelleError::StructuralRule(_)));
}

#[test]
fn system_cannot_nest_in_attributed() {
    let (rt, _c) = Runtime::sim();
    let sys = rt
        .add_module(
            None,
            "s",
            ModuleKind::SystemProcess,
            ModuleLabels::default(),
            Echo::default(),
        )
        .unwrap();
    let err = rt
        .add_module(
            Some(sys),
            "s2",
            ModuleKind::SystemProcess,
            ModuleLabels::default(),
            Echo::default(),
        )
        .unwrap_err();
    assert!(matches!(err, EstelleError::StructuralRule(_)));
}

#[test]
fn inactive_root_may_contain_systems() {
    let (rt, _c) = Runtime::sim();
    let root = rt
        .add_module(
            None,
            "spec",
            ModuleKind::Inactive,
            ModuleLabels::default(),
            Echo::default(),
        )
        .unwrap();
    assert!(rt
        .add_module(
            Some(root),
            "srv",
            ModuleKind::SystemProcess,
            ModuleLabels::default(),
            Echo::default()
        )
        .is_ok());
    assert!(rt
        .add_module(
            Some(root),
            "cli",
            ModuleKind::SystemActivity,
            ModuleLabels::default(),
            Echo::default()
        )
        .is_ok());
}

#[test]
fn activity_parent_only_contains_activities() {
    let (rt, _c) = Runtime::sim();
    let sa = rt
        .add_module(
            None,
            "sa",
            ModuleKind::SystemActivity,
            ModuleLabels::default(),
            Echo::default(),
        )
        .unwrap();
    let err = rt
        .add_module(
            Some(sa),
            "p",
            ModuleKind::Process,
            ModuleLabels::default(),
            Echo::default(),
        )
        .unwrap_err();
    assert!(matches!(err, EstelleError::StructuralRule(_)));
    assert!(rt
        .add_module(
            Some(sa),
            "a",
            ModuleKind::Activity,
            ModuleLabels::default(),
            Echo::default()
        )
        .is_ok());
}

#[test]
fn population_frozen_after_start() {
    let (rt, _c) = Runtime::sim();
    rt.add_module(
        None,
        "s",
        ModuleKind::SystemProcess,
        ModuleLabels::default(),
        Echo::default(),
    )
    .unwrap();
    rt.start().unwrap();
    let err = rt
        .add_module(
            None,
            "late",
            ModuleKind::SystemProcess,
            ModuleLabels::default(),
            Echo::default(),
        )
        .unwrap_err();
    assert!(matches!(err, EstelleError::SystemPopulationFrozen(_)));
}

#[test]
fn double_connect_rejected() {
    let (rt, _c) = Runtime::sim();
    let a = rt
        .add_module(
            None,
            "a",
            ModuleKind::SystemProcess,
            ModuleLabels::default(),
            Echo::default(),
        )
        .unwrap();
    let b = rt
        .add_module(
            None,
            "b",
            ModuleKind::SystemProcess,
            ModuleLabels::default(),
            Echo::default(),
        )
        .unwrap();
    rt.connect(ip(a, IO), ip(b, IO)).unwrap();
    let err = rt.connect(ip(a, IO), ip(b, IO)).unwrap_err();
    assert!(matches!(err, EstelleError::AlreadyConnected(_)));
}

// ---------------------------------------------------------------------
// Dynamic creation: a server that spawns one handler child per request
// (the paper's "accept a CONNECT request and create a new child module
// to handle the new connection").
// ---------------------------------------------------------------------

#[derive(Debug)]
struct ConnectReq(u16);
#[derive(Debug)]
struct Work(u64);
impl_interaction!(ConnectReq, Work);

#[derive(Debug, Default)]
struct Handler {
    done: u64,
}
impl StateMachine for Handler {
    fn num_ips(&self) -> usize {
        1
    }
    fn initial_state(&self) -> StateId {
        S0
    }
    fn transitions() -> Vec<Transition<Self>> {
        vec![Transition::on("work", S0, IO, |m: &mut Self, _ctx, msg| {
            let w = downcast::<Work>(msg.unwrap()).unwrap();
            m.done += w.0;
        })]
    }
}

#[derive(Debug, Default)]
struct Server {
    handlers: Vec<estelle::ModuleId>,
}
impl StateMachine for Server {
    fn num_ips(&self) -> usize {
        2 // 0: listen, 1: to current handler (demo wiring)
    }
    fn initial_state(&self) -> StateId {
        S0
    }
    fn transitions() -> Vec<Transition<Self>> {
        vec![Transition::on(
            "accept",
            S0,
            IO,
            |m: &mut Self, ctx, msg| {
                let req = downcast::<ConnectReq>(msg.unwrap()).unwrap();
                let child = ctx.create_child(
                    format!("handler-{}", req.0),
                    ModuleKind::Process,
                    ModuleLabels::conn(req.0),
                    Handler::default(),
                );
                m.handlers.push(child);
                ctx.connect(ctx.self_ip(IpIndex(1)), ip(child, IO));
                ctx.output(IpIndex(1), Work(u64::from(req.0) + 1));
            },
        )]
    }
}

#[test]
fn server_spawns_handler_per_connection() {
    let (rt, _c) = Runtime::sim();
    let srv = rt
        .add_module(
            None,
            "server",
            ModuleKind::SystemProcess,
            ModuleLabels::default(),
            Server::default(),
        )
        .unwrap();
    rt.start().unwrap();
    rt.inject(ip(srv, IO), Box::new(ConnectReq(4))).unwrap();
    run_sequential(&rt, &SeqOptions::default());
    let handlers = rt
        .with_machine::<Server, _>(srv, |s| s.handlers.clone())
        .unwrap();
    assert_eq!(handlers.len(), 1);
    let meta = rt.module_meta(handlers[0]).unwrap();
    assert_eq!(meta.kind, ModuleKind::Process);
    assert_eq!(meta.labels.conn, Some(4));
    assert_eq!(meta.parent, Some(srv));
    assert_eq!(
        rt.with_machine::<Handler, _>(handlers[0], |h| h.done)
            .unwrap(),
        5
    );
    // The connect effect happened before the output effect, so nothing
    // was lost.
    assert_eq!(rt.counters().lost_outputs, 0);
}

// ---------------------------------------------------------------------
// Parent precedence: a child cannot run while the parent has work.
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct BusyParent {
    budget: u32,
    child: Option<estelle::ModuleId>,
    fired: Vec<&'static str>,
}
impl StateMachine for BusyParent {
    fn num_ips(&self) -> usize {
        1
    }
    fn initial_state(&self) -> StateId {
        S0
    }
    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        let child = ctx.create_child(
            "spinner",
            ModuleKind::Process,
            ModuleLabels::default(),
            Spinner::default(),
        );
        self.child = Some(child);
    }
    fn transitions() -> Vec<Transition<Self>> {
        vec![
            Transition::spontaneous("parent-work", S0, |m: &mut Self, _ctx, _| {
                m.budget -= 1;
                m.fired.push("parent");
            })
            .provided(|m, _| m.budget > 0),
        ]
    }
}

#[derive(Debug, Default)]
struct Spinner {
    spins: u32,
}
impl StateMachine for Spinner {
    fn num_ips(&self) -> usize {
        0
    }
    fn initial_state(&self) -> StateId {
        S0
    }
    fn transitions() -> Vec<Transition<Self>> {
        vec![
            Transition::spontaneous("spin", S0, |m: &mut Self, _ctx, _| {
                m.spins += 1;
            })
            .provided(|m, _| m.spins < 3),
        ]
    }
}

#[test]
fn parent_precedence_blocks_children() {
    let (rt, _c) = Runtime::sim();
    let p = rt
        .add_module(
            None,
            "parent",
            ModuleKind::SystemProcess,
            ModuleLabels::default(),
            BusyParent {
                budget: 5,
                ..Default::default()
            },
        )
        .unwrap();
    rt.start().unwrap();
    let child = rt
        .with_machine::<BusyParent, _>(p, |m| m.child.unwrap())
        .unwrap();
    // While the parent has budget, the child may not fire.
    use estelle::FireOutcome;
    assert!(matches!(
        rt.try_fire(child, Dispatch::TableDriven),
        FireOutcome::Blocked
    ));
    run_sequential(&rt, &SeqOptions::default());
    assert_eq!(
        rt.with_machine::<BusyParent, _>(p, |m| m.budget).unwrap(),
        0
    );
    assert_eq!(
        rt.with_machine::<Spinner, _>(child, |m| m.spins).unwrap(),
        3
    );
    assert!(rt.counters().blocked > 0);
}

// ---------------------------------------------------------------------
// Delay clause + virtual time.
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct Periodic {
    ticks: u32,
}
impl StateMachine for Periodic {
    fn num_ips(&self) -> usize {
        0
    }
    fn initial_state(&self) -> StateId {
        S0
    }
    fn transitions() -> Vec<Transition<Self>> {
        vec![
            Transition::spontaneous("tick", S0, |m: &mut Self, _ctx, _| {
                m.ticks += 1;
            })
            .delay(SimDuration::from_millis(10))
            .to(S1),
            Transition::spontaneous("rearm", S1, |_m: &mut Self, _ctx, _| {})
                .delay(SimDuration::from_millis(10))
                .to(S0),
        ]
    }
}

#[test]
fn delay_transitions_advance_virtual_time() {
    let (rt, clock) = Runtime::sim();
    let m = rt
        .add_module(
            None,
            "periodic",
            ModuleKind::SystemProcess,
            ModuleLabels::default(),
            Periodic::default(),
        )
        .unwrap();
    rt.start().unwrap();
    let opts = SeqOptions {
        max_firings: Some(10),
        ..Default::default()
    };
    let report = run_sequential(&rt, &opts);
    assert_eq!(report.stopped, StopReason::MaxFirings);
    assert_eq!(rt.with_machine::<Periodic, _>(m, |p| p.ticks).unwrap(), 5);
    // 10 firings x 10ms delay each.
    assert_eq!(clock.now().as_micros(), 100_000);
}

// ---------------------------------------------------------------------
// Trace recording.
// ---------------------------------------------------------------------

#[test]
fn trace_records_causal_dependencies() {
    let (rt, _clock) = Runtime::sim();
    let a = rt
        .add_module(
            None,
            "a",
            ModuleKind::SystemProcess,
            ModuleLabels::default(),
            Echo {
                serve: Some(3),
                ..Default::default()
            },
        )
        .unwrap();
    let b = rt
        .add_module(
            None,
            "b",
            ModuleKind::SystemProcess,
            ModuleLabels::default(),
            Echo::default(),
        )
        .unwrap();
    rt.connect(ip(a, IO), ip(b, IO)).unwrap();
    rt.enable_trace();
    rt.start().unwrap();
    run_sequential(&rt, &SeqOptions::default());
    let trace = rt.take_trace();
    trace.validate().expect("consistent trace");
    // 2 inits + 4 echo firings.
    assert_eq!(trace.records.len(), 6);
    let echo_firings: Vec<_> = trace
        .records
        .iter()
        .filter(|r| r.transition == "echo")
        .collect();
    assert_eq!(echo_firings.len(), 4);
    // Every echo firing consumed a message, so it must depend on the
    // producing firing.
    for r in &echo_firings {
        assert!(!r.deps.is_empty(), "echo firing without deps: {r:?}");
    }
    // Alternating modules a/b.
    assert_eq!(echo_firings[0].module, b);
    assert_eq!(echo_firings[1].module, a);
    assert!(trace.meta(a).is_some());
}

// ---------------------------------------------------------------------
// Release semantics.
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct Reaper {
    child: Option<estelle::ModuleId>,
    released: bool,
}
impl StateMachine for Reaper {
    fn num_ips(&self) -> usize {
        1
    }
    fn initial_state(&self) -> StateId {
        S0
    }
    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        self.child = Some(ctx.create_child(
            "victim",
            ModuleKind::Process,
            ModuleLabels::default(),
            Handler::default(),
        ));
    }
    fn transitions() -> Vec<Transition<Self>> {
        vec![Transition::spontaneous("reap", S0, |m: &mut Self, ctx, _| {
            ctx.release_child(m.child.unwrap());
            m.released = true;
        })
        .provided(|m, _| !m.released)
        .to(S1)]
    }
}

#[test]
fn release_kills_subtree() {
    let (rt, _c) = Runtime::sim();
    let p = rt
        .add_module(
            None,
            "reaper",
            ModuleKind::SystemProcess,
            ModuleLabels::default(),
            Reaper::default(),
        )
        .unwrap();
    rt.start().unwrap();
    let child = rt
        .with_machine::<Reaper, _>(p, |m| m.child.unwrap())
        .unwrap();
    assert!(rt.module_meta(child).unwrap().alive);
    run_sequential(&rt, &SeqOptions::default());
    assert!(!rt.module_meta(child).unwrap().alive);
    assert!(!rt.alive_modules().contains(&child));
}

/// A body that keeps its own waker: the shortest form of the cycle a
/// medium closes when it holds its reader's waker (slot → body →
/// waker → slot).
#[derive(Debug)]
struct Hoarder {
    dropped: Arc<std::sync::atomic::AtomicBool>,
    waker: Option<std::task::Waker>,
}

impl Drop for Hoarder {
    fn drop(&mut self) {
        self.dropped
            .store(true, std::sync::atomic::Ordering::SeqCst);
    }
}

impl StateMachine for Hoarder {
    fn num_ips(&self) -> usize {
        0
    }
    fn initial_state(&self) -> StateId {
        S0
    }
    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        self.waker = Some(ctx.waker());
    }
    fn transitions() -> Vec<Transition<Self>> {
        Vec::new()
    }
}

#[test]
fn a_dropped_runtime_frees_bodies_that_hold_their_own_waker() {
    let dropped = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (rt, _c) = Runtime::sim();
    rt.add_module(
        None,
        "hoarder",
        ModuleKind::SystemProcess,
        ModuleLabels::default(),
        Hoarder {
            dropped: Arc::clone(&dropped),
            waker: None,
        },
    )
    .unwrap();
    rt.start().unwrap();
    let dropped = || dropped.load(std::sync::atomic::Ordering::SeqCst);
    assert!(!dropped());
    drop(rt);
    assert!(dropped(), "the module body leaked");
}

/// A runtime built on the network's clock reads the instants the
/// network delivers at, and the network sees the runtime's advances.
#[test]
fn a_runtime_on_the_network_clock_shares_its_time() {
    let net = Arc::new(netsim::Network::new(0));
    let rt = Runtime::with_virtual_clock(net.clock());
    let (a, _b) = netsim::Pipe::create(&net, SimDuration::from_millis(3));
    a.send(vec![1]);
    net.run_until_idle();
    assert_eq!(rt.now(), netsim::SimTime::from_millis(3));
    rt.advance_clock_to(netsim::SimTime::from_millis(10));
    assert_eq!(net.now(), netsim::SimTime::from_millis(10));
}
