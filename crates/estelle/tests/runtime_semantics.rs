//! Integration tests for the Estelle runtime semantics: structural
//! rules, dynamic creation, precedence, firing policies, traces.

use estelle::sched::{run_sequential, FirePolicy, SeqOptions, StopReason};
use estelle::{
    downcast, impl_interaction, ip, Ctx, Dispatch, EstelleError, FireOutcome, IpIndex, ModuleId,
    ModuleKind, ModuleLabels, Runtime, StateId, StateMachine, Transition,
};
use netsim::{SimDuration, SimTime};
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

/// Adds a module with default labels.
fn add<M: StateMachine>(
    rt: &Runtime,
    parent: Option<ModuleId>,
    name: &str,
    kind: ModuleKind,
    machine: M,
) -> estelle::Result<ModuleId> {
    rt.add_module(parent, name, kind, ModuleLabels::default(), machine)
}

fn echo_pair(n: u64) -> (Runtime, ModuleId, ModuleId) {
    let (rt, _clock) = Runtime::sim();
    let a = add(
        &rt,
        None,
        "a",
        ModuleKind::SystemProcess,
        Echo {
            serve: Some(n),
            ..Default::default()
        },
    )
    .unwrap();
    let b = add(&rt, None, "b", ModuleKind::SystemProcess, Echo::default()).unwrap();
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
    let err = add(&rt, None, "p", ModuleKind::Process, Echo::default()).unwrap_err();
    assert!(matches!(err, EstelleError::StructuralRule(_)));
}

#[test]
fn system_cannot_nest_in_attributed() {
    let (rt, _c) = Runtime::sim();
    let sys = add(&rt, None, "s", ModuleKind::SystemProcess, Echo::default()).unwrap();
    let err = add(
        &rt,
        Some(sys),
        "s2",
        ModuleKind::SystemProcess,
        Echo::default(),
    )
    .unwrap_err();
    assert!(matches!(err, EstelleError::StructuralRule(_)));
}

#[test]
fn inactive_root_may_contain_systems() {
    let (rt, _c) = Runtime::sim();
    let root = add(&rt, None, "spec", ModuleKind::Inactive, Echo::default()).unwrap();
    assert!(add(
        &rt,
        Some(root),
        "srv",
        ModuleKind::SystemProcess,
        Echo::default()
    )
    .is_ok());
    assert!(add(
        &rt,
        Some(root),
        "cli",
        ModuleKind::SystemActivity,
        Echo::default()
    )
    .is_ok());
}

#[test]
fn activity_parent_only_contains_activities() {
    let (rt, _c) = Runtime::sim();
    let sa = add(&rt, None, "sa", ModuleKind::SystemActivity, Echo::default()).unwrap();
    let err = add(&rt, Some(sa), "p", ModuleKind::Process, Echo::default()).unwrap_err();
    assert!(matches!(err, EstelleError::StructuralRule(_)));
    assert!(add(&rt, Some(sa), "a", ModuleKind::Activity, Echo::default()).is_ok());
}

#[test]
fn population_frozen_after_start() {
    let (rt, _c) = Runtime::sim();
    add(&rt, None, "s", ModuleKind::SystemProcess, Echo::default()).unwrap();
    rt.start().unwrap();
    let err = add(
        &rt,
        None,
        "late",
        ModuleKind::SystemProcess,
        Echo::default(),
    )
    .unwrap_err();
    assert!(matches!(err, EstelleError::SystemPopulationFrozen(_)));
}

#[test]
fn double_connect_rejected() {
    let (rt, _c) = Runtime::sim();
    let a = add(&rt, None, "a", ModuleKind::SystemProcess, Echo::default()).unwrap();
    let b = add(&rt, None, "b", ModuleKind::SystemProcess, Echo::default()).unwrap();
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
    handlers: Vec<ModuleId>,
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
    let srv = add(
        &rt,
        None,
        "server",
        ModuleKind::SystemProcess,
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
    child: Option<ModuleId>,
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
    let p = add(
        &rt,
        None,
        "parent",
        ModuleKind::SystemProcess,
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
    let m = add(
        &rt,
        None,
        "periodic",
        ModuleKind::SystemProcess,
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

/// Emits `self.0` tokens at initialization.
#[derive(Debug)]
struct Burst(u64);
impl StateMachine for Burst {
    fn num_ips(&self) -> usize {
        1
    }
    fn initial_state(&self) -> StateId {
        S0
    }
    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.0 {
            ctx.output(IO, Token(i));
        }
    }
    fn transitions() -> Vec<Transition<Self>> {
        vec![]
    }
}

/// Consumes tokens, but only once it has been in its state for 5ms.
#[derive(Debug, Default)]
struct SlowConsumer {
    got: u32,
}
impl StateMachine for SlowConsumer {
    fn num_ips(&self) -> usize {
        1
    }
    fn initial_state(&self) -> StateId {
        S0
    }
    fn transitions() -> Vec<Transition<Self>> {
        vec![
            Transition::on("consume", S0, IO, |m: &mut Self, _ctx, _msg| {
                m.got += 1;
            })
            .delay(SimDuration::from_millis(5)),
        ]
    }
}

#[test]
fn delayed_input_transition_waits_out_its_delay() {
    let (rt, clock) = Runtime::sim();
    let p = add(&rt, None, "burst", ModuleKind::SystemProcess, Burst(3)).unwrap();
    let c = add(
        &rt,
        None,
        "slow",
        ModuleKind::SystemProcess,
        SlowConsumer::default(),
    )
    .unwrap();
    rt.connect(ip(p, IO), ip(c, IO)).unwrap();
    rt.start().unwrap();
    // Three tokens are queued at t = 0, but none may be consumed yet.
    assert!(matches!(
        rt.try_fire(c, Dispatch::TableDriven),
        FireOutcome::NotEnabled
    ));
    assert_eq!(rt.next_deadline(), Some(SimTime::from_millis(5)));
    let report = run_sequential(&rt, &SeqOptions::default());
    assert_eq!(report.stopped, StopReason::Quiescent);
    assert_eq!(rt.with_machine::<SlowConsumer, _>(c, |m| m.got).unwrap(), 3);
    // The delay runs from entering the state, and the consumer never
    // leaves it: once 5ms have passed the whole queue drains.
    assert_eq!(clock.now(), SimTime::from_millis(5));
    let counters = rt.counters();
    assert_eq!((counters.inits, counters.firings), (2, 3));
}

#[test]
fn delay_counts_from_state_entry_not_message_arrival() {
    let (rt, _clock) = Runtime::sim();
    let c = add(
        &rt,
        None,
        "slow",
        ModuleKind::SystemProcess,
        SlowConsumer::default(),
    )
    .unwrap();
    rt.start().unwrap();
    rt.inject(ip(c, IO), Box::new(Token(0))).unwrap();
    rt.advance_clock_to(SimTime::from_millis(4));
    assert!(matches!(
        rt.try_fire(c, Dispatch::TableDriven),
        FireOutcome::NotEnabled
    ));
    // A token arriving after the delay ran out is consumed at once.
    rt.advance_clock_to(SimTime::from_millis(8));
    rt.inject(ip(c, IO), Box::new(Token(1))).unwrap();
    for _ in 0..2 {
        assert!(matches!(
            rt.try_fire(c, Dispatch::TableDriven),
            FireOutcome::Fired(_)
        ));
    }
    assert_eq!(rt.with_machine::<SlowConsumer, _>(c, |m| m.got).unwrap(), 2);
}

// ---------------------------------------------------------------------
// Injection and the scheduler counters.
// ---------------------------------------------------------------------

#[test]
fn inject_rejects_unknown_modules_and_points() {
    let (rt, _c) = Runtime::sim();
    let h = add(
        &rt,
        None,
        "handler",
        ModuleKind::SystemProcess,
        Handler::default(),
    )
    .unwrap();
    rt.start().unwrap();
    let ghost = ModuleId::from_raw(99);
    assert!(matches!(
        rt.inject(ip(ghost, IO), Box::new(Work(1))),
        Err(EstelleError::UnknownModule(m)) if m == ghost
    ));
    assert!(matches!(
        rt.inject(ip(h, IpIndex(1)), Box::new(Work(1))),
        Err(EstelleError::IpOutOfRange(_))
    ));
    // Neither message was queued.
    assert!(matches!(
        rt.try_fire(h, Dispatch::TableDriven),
        FireOutcome::NotEnabled
    ));
}

#[test]
fn outputs_on_an_unconnected_point_are_counted_lost() {
    let (rt, _c) = Runtime::sim();
    add(&rt, None, "burst", ModuleKind::SystemProcess, Burst(3)).unwrap();
    rt.start().unwrap();
    let counters = rt.counters();
    assert_eq!(counters.inits, 1);
    assert_eq!(counters.firings, 0);
    assert_eq!(counters.lost_outputs, 3);
}

// ---------------------------------------------------------------------
// Trace recording.
// ---------------------------------------------------------------------

#[test]
fn trace_records_causal_dependencies() {
    let (rt, _clock) = Runtime::sim();
    let a = add(
        &rt,
        None,
        "a",
        ModuleKind::SystemProcess,
        Echo {
            serve: Some(3),
            ..Default::default()
        },
    )
    .unwrap();
    let b = add(&rt, None, "b", ModuleKind::SystemProcess, Echo::default()).unwrap();
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

#[test]
fn injected_input_depends_only_on_program_order() {
    let (rt, _clock) = Runtime::sim();
    let h = add(
        &rt,
        None,
        "handler",
        ModuleKind::SystemProcess,
        Handler::default(),
    )
    .unwrap();
    rt.enable_trace();
    rt.start().unwrap();
    rt.inject(ip(h, IO), Box::new(Work(2))).unwrap();
    run_sequential(&rt, &SeqOptions::default());
    let trace = rt.take_trace();
    let [init, work] = &trace.records[..] else {
        panic!("expected init + one firing: {:?}", trace.records);
    };
    assert_eq!(init.transition, "initialize");
    assert_eq!(work.transition, "work");
    // No firing produced the message: the only dependency is the
    // module's own previous firing.
    assert_eq!(work.deps, [init.seq]);
}

#[test]
fn tracing_does_not_change_what_fires_or_when() {
    let run = |traced: bool| {
        let (rt, a, b) = echo_pair(9);
        if traced {
            rt.enable_trace();
        }
        run_sequential(&rt, &SeqOptions::default());
        let counters = rt.counters();
        let seen = |m| rt.with_machine::<Echo, _>(m, |e| e.seen).unwrap();
        (
            (
                counters.firings,
                counters.selects,
                rt.now(),
                seen(a),
                seen(b),
            ),
            rt.take_trace().records.len(),
        )
    };
    let (plain, untraced_records) = run(false);
    let (traced, traced_records) = run(true);
    assert_eq!(plain, traced);
    assert_eq!(untraced_records, 0);
    assert_eq!(traced_records, 10);
}

// ---------------------------------------------------------------------
// Release semantics.
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct Reaper {
    child: Option<ModuleId>,
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
    let p = add(
        &rt,
        None,
        "reaper",
        ModuleKind::SystemProcess,
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

/// A body that keeps its own waker, the way a medium keeps its
/// reader's: the waker must not keep the body alive.
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
    let hoarder = add(
        &rt,
        None,
        "hoarder",
        ModuleKind::SystemProcess,
        Hoarder {
            dropped: Arc::clone(&dropped),
            waker: None,
        },
    )
    .unwrap();
    rt.start().unwrap();
    let waker = rt
        .with_machine::<Hoarder, _>(hoarder, |h| h.waker.clone())
        .unwrap()
        .expect("initialize kept the waker");
    let dropped = || dropped.load(std::sync::atomic::Ordering::SeqCst);
    assert!(!dropped());
    drop(rt);
    assert!(dropped(), "the module body leaked");
    // The waker outlives its runtime: waking it, here and from another
    // thread, sets a flag nobody reads.
    waker.wake_by_ref();
    std::thread::spawn(move || waker.wake()).join().unwrap();
    assert!(dropped());
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
