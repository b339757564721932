//! Equivalence oracle for the ready-index scheduler.
//!
//! `run_sequential` walks the runtime's ready index; the reference
//! scheduler below is the scan it replaced — every alive module, in id
//! order, every pass — run over the same specification with every
//! `.woken()` clause left out, so its guarded spontaneous rows are
//! polled the way Estelle means them. On random specifications
//! (input-only rows, guarded spontaneous rows polled and wake-driven,
//! `delay` rows with and without `when`, process and activity parents,
//! children created and released mid-run, interactions injected and
//! guards flipped between runs and from other modules' actions) both
//! must produce the same trace, record for record, and the index must
//! agree with the modules whenever the run pauses. Beside the oracle:
//! an idle module costs no selection, a flip nobody announces is named
//! by the checker, and a wake-up sent from a thread the scheduler does
//! not own while it runs is never lost.

use estelle::external::{MediumModule, WireData, MEDIUM_IP};
use estelle::sched::{run_sequential, FirePolicy, SeqOptions, StopReason};
use estelle::{
    downcast, impl_interaction, ip, Ctx, Dispatch, FireOutcome, Interaction, IpIndex, ModuleId,
    ModuleKind, ModuleLabels, Readiness, Runtime, StateId, StateMachine, Transition,
};
use netsim::{Medium, SimDuration, SimTime, ThreadMedium};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::task::Waker;

/// The scan the ready index replaced, kept as the reference semantics.
fn run_full_scan(rt: &Runtime, opts: &SeqOptions) -> u64 {
    let mut fired = 0u64;
    'pass: loop {
        let mut fired_this_pass = false;
        for id in rt.alive_modules() {
            if let FireOutcome::Fired(_) = rt.try_fire(id, opts.dispatch) {
                fired += 1;
                fired_this_pass = true;
                assert!(fired < 200_000, "specification does not terminate");
                if opts.fire_policy == FirePolicy::OnePerScan {
                    continue 'pass;
                }
            }
        }
        if !fired_this_pass {
            match rt.next_deadline() {
                Some(deadline) if deadline > rt.now() => rt.advance_clock_to(deadline),
                _ => return fired,
            }
        }
    }
}

// ---------------------------------------------------------------------
// One machine type, configured per instance, whose states cover every
// kind of row the index tells apart.
// ---------------------------------------------------------------------

/// Only `when` transitions: outside the index while the queue is empty.
const WAIT: StateId = StateId(0);
/// A guarded spontaneous transition: polled whatever the guard says.
const SPIN: StateId = StateId(1);
/// `delay` transitions without `when`, toggling to re-arm.
const TICK: StateId = StateId(2);
const TOCK: StateId = StateId(3);
/// A `delay` transition *with* `when`: a deadline only once a message
/// is queued.
const SLOW: StateId = StateId(4);
/// Two guarded spontaneous transitions whose guards read what others
/// change: a shared [`Gate`] and a field poked through
/// `with_machine_mut`. Wake-driven in `Node<true>`, polled in
/// `Node<false>`.
const LATCH: StateId = StateId(5);

const IN: IpIndex = IpIndex(0);
const OUT: IpIndex = IpIndex(1);
const CHILD: IpIndex = IpIndex(2);

/// An interaction that dies out: whatever a message causes carries a
/// smaller `ttl`, so every specification terminates.
#[derive(Debug)]
struct Msg {
    ttl: u8,
}
impl_interaction!(Msg);

/// State a `latch` guard reads and somebody else writes: credits to
/// spend, and the reader's waker beside them. Opening publishes first
/// and wakes second.
#[derive(Debug, Default)]
struct Gate {
    credits: AtomicU32,
    reader: Mutex<Option<Waker>>,
}

impl Gate {
    fn open(&self) {
        self.credits.fetch_add(1, Ordering::SeqCst);
        if let Some(reader) = self.reader.lock().unwrap().as_ref() {
            reader.wake_by_ref();
        }
    }
}

/// What a node does with a received message, after forwarding it.
#[derive(Debug, Clone, Copy)]
enum Act {
    Forward,
    Enter(StateId, u8),
    Spawn(StateId, u8),
    Release,
    /// Open the gate of the static module with this index (mod the
    /// module count): a guard flipped from another module's action.
    Open(u8),
}

/// `WOKEN` decides whether the `LATCH` rows carry the `.woken()`
/// clause; nothing else differs between the two instantiations.
#[derive(Debug, Clone)]
struct Node<const WOKEN: bool> {
    start: StateId,
    /// Spontaneous/delay firings left in the current burst.
    budget: u8,
    /// `ttl` available to the one message a burst may emit.
    energy: u8,
    /// Leave the polling row when the burst ends (else keep polling
    /// with a false guard).
    park: bool,
    /// In `SLOW`: input waits for the delayed transition.
    slow: bool,
    script: Vec<Act>,
    step: usize,
    child: Option<ModuleId>,
    child_kind: ModuleKind,
    received: u32,
    /// Read by the `latch` guard.
    gate: Arc<Gate>,
    /// The gates of every static module, for [`Act::Open`].
    gates: Arc<Vec<Arc<Gate>>>,
    /// Read by the `poke` guard; bumped through `with_machine_mut`.
    pokes: u8,
}

impl<const WOKEN: bool> Node<WOKEN> {
    /// A module that waits for input and forwards it.
    fn idle(start: StateId) -> Self {
        Node {
            start,
            budget: 0,
            energy: 0,
            park: true,
            slow: false,
            script: vec![Act::Forward],
            step: 0,
            child: None,
            child_kind: ModuleKind::Process,
            received: 0,
            gate: Arc::default(),
            gates: Arc::default(),
            pokes: 0,
        }
    }

    fn receive(&mut self, ctx: &mut Ctx<'_>, msg: Option<Box<dyn Interaction>>) {
        let msg = downcast::<Msg>(msg.expect("when clause")).expect("only Msg travels");
        self.received += 1;
        self.energy = msg.ttl;
        if msg.ttl > 0 {
            ctx.output(OUT, Msg { ttl: msg.ttl - 1 });
        }
        let act = self.script[self.step % self.script.len()];
        self.step += 1;
        match act {
            Act::Forward => {}
            Act::Enter(state, budget) => {
                self.budget = budget;
                self.slow = state == SLOW;
                ctx.goto(state);
            }
            Act::Spawn(start, budget) if self.child.is_none() => {
                let child = ctx.create_child(
                    "spawned",
                    self.child_kind,
                    ModuleLabels::default(),
                    Node {
                        start,
                        budget,
                        slow: start == SLOW,
                        script: vec![Act::Forward],
                        child: None,
                        // A gate of its own, which nobody opens: the
                        // parent's holds the parent's waker.
                        gate: Arc::default(),
                        ..self.clone()
                    },
                );
                ctx.connect(ctx.self_ip(CHILD), ip(child, IN));
                ctx.output(CHILD, Msg { ttl: 1 });
                self.child = Some(child);
            }
            Act::Release => {
                if let Some(child) = self.child.take() {
                    ctx.release_child(child);
                }
            }
            Act::Spawn(..) => {}
            Act::Open(target) => {
                if let Some(gate) = self.gates.get(target as usize % self.gates.len().max(1)) {
                    gate.open();
                }
            }
        }
    }

    /// A `latch` or `poke` firing: spends what enabled it and passes
    /// on the energy of the last message, if any.
    fn spend(&mut self, ctx: &mut Ctx<'_>) {
        if self.energy > 0 {
            ctx.output(
                OUT,
                Msg {
                    ttl: self.energy - 1,
                },
            );
            self.energy = 0;
        }
    }

    /// One spontaneous or delay firing of a burst.
    fn burst(&mut self, ctx: &mut Ctx<'_>, again: StateId) {
        self.budget -= 1;
        if self.energy > 0 {
            ctx.output(
                OUT,
                Msg {
                    ttl: self.energy - 1,
                },
            );
            self.energy = 0;
        }
        if self.budget > 0 {
            ctx.goto(again);
        } else if self.park {
            ctx.goto(WAIT);
        }
    }
}

impl<const WOKEN: bool> StateMachine for Node<WOKEN> {
    fn num_ips(&self) -> usize {
        3
    }
    fn initial_state(&self) -> StateId {
        self.start
    }
    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        *self.gate.reader.lock().unwrap() = Some(ctx.waker());
    }
    fn transitions() -> Vec<Transition<Self>> {
        let has_budget = |m: &Self, _: Option<&dyn Interaction>| m.budget > 0;
        let announced = |t: Transition<Self>| if WOKEN { t.woken() } else { t };
        vec![
            Transition::on("slow-recv", SLOW, IN, |m: &mut Self, ctx, msg| {
                m.slow = false;
                ctx.goto(WAIT);
                m.receive(ctx, msg);
            })
            .delay(SimDuration::from_millis(3)),
            Transition::on("recv", WAIT, IN, Self::receive)
                .any_state()
                .provided(|m, _| !m.slow),
            Transition::spontaneous("spin", SPIN, |m: &mut Self, ctx, _| m.burst(ctx, SPIN))
                .provided(has_budget),
            Transition::spontaneous("tick", TICK, |m: &mut Self, ctx, _| m.burst(ctx, TOCK))
                .delay(SimDuration::from_millis(7))
                .provided(has_budget),
            Transition::spontaneous("tock", TOCK, |m: &mut Self, ctx, _| m.burst(ctx, TICK))
                .delay(SimDuration::from_millis(2))
                .provided(has_budget),
            announced(
                Transition::spontaneous("latch", LATCH, |m: &mut Self, ctx, _| {
                    m.gate.credits.fetch_sub(1, Ordering::SeqCst);
                    m.spend(ctx);
                })
                .provided(|m, _| m.gate.credits.load(Ordering::SeqCst) > 0),
            ),
            announced(
                Transition::spontaneous("poke", LATCH, |m: &mut Self, ctx, _| {
                    m.pokes -= 1;
                    m.spend(ctx);
                })
                .provided(|m, _| m.pokes > 0),
            ),
        ]
    }
}

// ---------------------------------------------------------------------
// Generated specifications.
// ---------------------------------------------------------------------

/// One static module: parent choice, kind choice, start state, budget,
/// energy, park flag, script.
type NodeSpec = (u8, bool, u8, u8, u8, bool, Vec<(u8, u8, u8)>);

fn state_of(choice: u8) -> StateId {
    [WAIT, SPIN, TICK, SLOW, LATCH, LATCH][choice as usize % 6]
}

fn act_of((kind, state, budget): (u8, u8, u8)) -> Act {
    match kind % 6 {
        0 | 1 => Act::Forward,
        2 => Act::Enter(state_of(state), budget % 4),
        3 => Act::Spawn(state_of(state), budget % 4),
        4 => Act::Release,
        _ => Act::Open(state),
    }
}

fn node_spec() -> impl Strategy<Value = NodeSpec> {
    (
        any::<u8>(),
        any::<bool>(),
        0u8..6,
        0u8..4,
        0u8..3,
        any::<bool>(),
        prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..5),
    )
}

/// Builds the specification: a tree of `nodes.len()` static modules
/// (each parented on an earlier one or top level) wired OUT→IN into
/// one ring in id order. Identical calls build identical runtimes.
fn build<const WOKEN: bool>(nodes: &[NodeSpec]) -> (Runtime, Vec<ModuleId>, Arc<Vec<Arc<Gate>>>) {
    let (rt, _clock) = Runtime::sim();
    let gates: Arc<Vec<Arc<Gate>>> = Arc::new(nodes.iter().map(|_| Arc::default()).collect());
    let mut ids: Vec<ModuleId> = Vec::new();
    let mut kinds: Vec<ModuleKind> = Vec::new();
    for (i, (parent, flag, start, budget, energy, park, script)) in nodes.iter().enumerate() {
        // A third of the modules are system modules at top level; the
        // rest hang under an earlier module.
        let parent = (i > 0 && parent % 3 != 0).then(|| *parent as usize % i);
        let kind = match parent.map(|p| kinds[p]) {
            None if *flag => ModuleKind::SystemActivity,
            None => ModuleKind::SystemProcess,
            Some(k) if k.children_exclusive() || *flag => ModuleKind::Activity,
            Some(_) => ModuleKind::Process,
        };
        let node = Node::<WOKEN> {
            start: state_of(*start),
            budget: *budget,
            energy: *energy,
            park: *park,
            slow: state_of(*start) == SLOW,
            script: script.iter().copied().map(act_of).collect(),
            step: 0,
            child: None,
            child_kind: if kind.children_exclusive() {
                ModuleKind::Activity
            } else {
                ModuleKind::Process
            },
            received: 0,
            gate: Arc::clone(&gates[i]),
            gates: Arc::clone(&gates),
            pokes: 0,
        };
        let id = rt
            .add_module(
                parent.map(|p| ids[p]),
                format!("n{i}"),
                kind,
                ModuleLabels::default(),
                node,
            )
            .expect("kinds chosen to satisfy the attribute rules");
        ids.push(id);
        kinds.push(kind);
    }
    for (i, &id) in ids.iter().enumerate() {
        rt.connect(ip(id, OUT), ip(ids[(i + 1) % ids.len()], IN))
            .expect("each point used once");
    }
    rt.enable_trace();
    rt.start().expect("valid specification");
    (rt, ids, gates)
}

type Record = (u64, ModuleId, &'static str, Vec<u64>);

/// Drives one runtime through the injection rounds with `run` and
/// returns everything the two schedulers must agree on. Between runs a
/// round injects interactions (`how % 3 == 0`), opens gates from
/// outside through their wakers (`1`) and pokes machines through
/// `with_machine_mut` (`2`).
fn drive<const WOKEN: bool>(
    nodes: &[NodeSpec],
    injects: &[(u8, u8)],
    run: impl Fn(&Runtime),
) -> Result<(Vec<Record>, u64, SimTime), TestCaseError> {
    let (rt, ids, gates) = build::<WOKEN>(nodes);
    let mut rounds = injects.chunks(2);
    loop {
        run(&rt);
        let violations = rt.ready_index_violations();
        prop_assert!(violations.is_empty(), "{:?}", violations);
        prop_assert_eq!(
            rt.readiness(Dispatch::TableDriven),
            Readiness::IdleUntil(None)
        );
        let Some(round) = rounds.next() else { break };
        for &(target, how) in round {
            let target = target as usize % ids.len();
            match how % 3 {
                0 => rt
                    .inject(ip(ids[target], IN), Box::new(Msg { ttl: how % 6 }))
                    .expect("static modules are never released"),
                1 => gates[target].open(),
                _ => rt
                    .with_machine_mut::<Node<WOKEN>, _>(ids[target], |n| n.pokes += 1)
                    .expect("static modules are never released"),
            }
        }
    }
    let firings = rt.counters().firings;
    let records = rt
        .take_trace()
        .records
        .into_iter()
        .map(|r| (r.seq, r.module, r.transition, r.deps))
        .collect();
    Ok((records, firings, rt.now()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn index_scan_equals_full_scan(
        nodes in prop::collection::vec(node_spec(), 1..9),
        injects in prop::collection::vec((any::<u8>(), any::<u8>()), 0..13),
    ) {
        for fire_policy in [FirePolicy::Pass, FirePolicy::OnePerScan] {
            for dispatch in [Dispatch::TableDriven, Dispatch::HardCoded] {
                let opts = SeqOptions {
                    dispatch,
                    fire_policy,
                    max_firings: Some(200_000),
                    advance_time: true,
                };
                let reference = drive::<false>(&nodes, &injects, |rt| {
                    run_full_scan(rt, &opts);
                })?;
                let indexed = drive::<true>(&nodes, &injects, |rt| {
                    let report = run_sequential(rt, &opts);
                    assert_eq!(report.stopped, StopReason::Quiescent);
                })?;
                prop_assert_eq!(&indexed.0, &reference.0, "{:?}/{:?}", fire_policy, dispatch);
                prop_assert_eq!(indexed.1, reference.1);
                prop_assert_eq!(indexed.2, reference.2);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Idle cost is independent of the specification's size.
// ---------------------------------------------------------------------

#[test]
fn idle_input_only_modules_cost_no_selection() {
    let (rt, _clock) = Runtime::sim();
    let idle = Node::<true>::idle(WAIT);
    let ids: Vec<ModuleId> = (0..1000)
        .map(|i| {
            rt.add_module(
                None,
                format!("idle{i}"),
                ModuleKind::SystemProcess,
                ModuleLabels::default(),
                idle.clone(),
            )
            .unwrap()
        })
        .collect();
    rt.start().unwrap();
    let before = rt.counters();
    let report = run_sequential(&rt, &SeqOptions::default());
    assert_eq!(report.stopped, StopReason::Quiescent);
    assert_eq!(
        rt.readiness(Dispatch::TableDriven),
        Readiness::IdleUntil(None)
    );
    assert_eq!(rt.next_deadline(), None);
    assert_eq!(rt.counters().selects, before.selects);
    // One message costs the selections of the one module it reaches.
    rt.inject(ip(ids[617], IN), Box::new(Msg { ttl: 0 }))
        .unwrap();
    assert_eq!(rt.pending_messages(), 1);
    assert_eq!(rt.next_ready(ids[0]..rt.id_watermark()), Some(ids[617]));
    let report = run_sequential(&rt, &SeqOptions::default());
    assert_eq!(report.firings, 1);
    assert_eq!(rt.counters().selects, before.selects + 1);
    assert_eq!(rt.pending_messages(), 0);
}

#[test]
fn idle_wake_driven_modules_cost_no_selection() {
    let (rt, _clock) = Runtime::sim();
    let nodes: Vec<(ModuleId, Arc<Gate>)> = (0..1000)
        .map(|i| {
            let node = Node::<true>::idle(LATCH);
            let gate = Arc::clone(&node.gate);
            let id = rt
                .add_module(
                    None,
                    format!("latch{i}"),
                    ModuleKind::SystemProcess,
                    ModuleLabels::default(),
                    node,
                )
                .unwrap();
            (id, gate)
        })
        .collect();
    rt.start().unwrap();
    // The first look every wake-driven module is owed: guards false.
    let report = run_sequential(&rt, &SeqOptions::default());
    assert_eq!((report.firings, report.counters.selects), (0, 1000));
    let before = rt.counters();
    let report = run_sequential(&rt, &SeqOptions::default());
    assert_eq!(report.stopped, StopReason::Quiescent);
    assert_eq!(
        rt.readiness(Dispatch::TableDriven),
        Readiness::IdleUntil(None)
    );
    assert_eq!(rt.counters().selects, before.selects);
    // One wake-up costs the firing and the look after it.
    let (id, gate) = &nodes[617];
    gate.open();
    assert_eq!(rt.next_ready(nodes[0].0..rt.id_watermark()), Some(*id));
    let report = run_sequential(&rt, &SeqOptions::default());
    assert_eq!(report.firings, 1);
    assert_eq!(rt.counters().selects, before.selects + 2);
    assert_eq!(rt.ready_index_violations(), Vec::<String>::new());
}

#[test]
fn a_flip_nobody_announces_is_reported_by_module_and_transition() {
    let (rt, _clock) = Runtime::sim();
    let node = Node::<true>::idle(LATCH);
    let gate = Arc::clone(&node.gate);
    let id = rt
        .add_module(
            None,
            "forgotten",
            ModuleKind::SystemProcess,
            ModuleLabels::default(),
            node,
        )
        .unwrap();
    rt.start().unwrap();
    run_sequential(&rt, &SeqOptions::default());
    assert_eq!(rt.ready_index_violations(), Vec::<String>::new());
    // Published, never announced: the scheduler does not look...
    gate.credits.fetch_add(1, Ordering::SeqCst);
    assert_eq!(run_sequential(&rt, &SeqOptions::default()).firings, 0);
    // ...and the checker says who was forgotten.
    assert_eq!(
        rt.ready_index_violations(),
        ["missed wake-up: forgotten (Node<true>) has latch enabled and nobody woke it"]
    );
    // Once told, the module is looked at, and a look that finds the
    // latch open leaves the wake-up for the firing: it fires and the
    // report is clean again.
    gate.reader.lock().unwrap().as_ref().unwrap().wake_by_ref();
    assert_eq!(rt.next_ready(id..rt.id_watermark()), Some(id));
    assert_eq!(rt.readiness(Dispatch::TableDriven), Readiness::Enabled);
    assert_eq!(run_sequential(&rt, &SeqOptions::default()).firings, 1);
    assert_eq!(rt.ready_index_violations(), Vec::<String>::new());
}

// ---------------------------------------------------------------------
// No wake-up is lost, whether it comes from a medium, from inside a
// firing or from a thread the scheduler does not own.
//
// Two players bounce a countdown over a `ThreadMedium` pair, each
// behind a `MediumModule` whose `from-medium` row is wake-driven:
// every look that finds the medium empty takes the module out of the
// index, and only the peer's `send` (publish, then wake) brings it
// back. Meanwhile a thread outside the scheduler sends extra messages
// into the same medium. A wake-up lost between a look's clear and its
// guard would strand a message for good.
// ---------------------------------------------------------------------

const RALLY: u8 = 24;
const EXTRAS: u8 = 16;

/// Returns every countdown it receives, one lower, until zero.
#[derive(Debug, Default)]
struct Player {
    serve: Option<u8>,
    received: u32,
}

impl StateMachine for Player {
    fn num_ips(&self) -> usize {
        1
    }
    fn initial_state(&self) -> StateId {
        WAIT
    }
    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(n) = self.serve {
            ctx.output(IN, WireData(vec![n]));
        }
    }
    fn transitions() -> Vec<Transition<Self>> {
        vec![Transition::on(
            "return",
            WAIT,
            IN,
            |m: &mut Self, ctx, msg| {
                let data = downcast::<WireData>(msg.unwrap()).unwrap();
                m.received += 1;
                if data.0[0] > 0 {
                    ctx.output(IN, WireData(vec![data.0[0] - 1]));
                }
            },
        )]
    }
}

/// player-a — wire-a ═ThreadMedium═ wire-b — player-b, and a second
/// handle on wire-a's end of the medium for the outside thread.
fn rally() -> (Runtime, [ModuleId; 4], ThreadMedium) {
    let (rt, _clock) = Runtime::sim();
    let (end_a, end_b) = ThreadMedium::pair();
    let outside = end_a.clone();
    let add_player = |name: &str, serve| {
        let player = Player { serve, received: 0 };
        rt.add_module(
            None,
            name,
            ModuleKind::SystemProcess,
            ModuleLabels::default(),
            player,
        )
        .unwrap()
    };
    let add_wire = |name: &str, end: ThreadMedium| {
        rt.add_module(
            None,
            name,
            ModuleKind::SystemProcess,
            ModuleLabels::default(),
            MediumModule::new(Box::new(end)),
        )
        .unwrap()
    };
    let ids = [
        add_player("player-a", Some(RALLY)),
        add_wire("wire-a", end_a),
        add_wire("wire-b", end_b),
        add_player("player-b", None),
    ];
    rt.connect(ip(ids[0], IN), ip(ids[1], MEDIUM_IP)).unwrap();
    rt.connect(ip(ids[3], IN), ip(ids[2], MEDIUM_IP)).unwrap();
    rt.enable_trace();
    rt.start().unwrap();
    (rt, ids, outside)
}

/// Firings per module, in the order of `ids`.
fn firings_per_module(rt: &Runtime, ids: &[ModuleId; 4]) -> [usize; 4] {
    let trace = rt.take_trace();
    ids.map(|id| {
        trace
            .records
            .iter()
            .filter(|r| r.module == id && r.transition != "initialize")
            .count()
    })
}

#[test]
fn media_wakeups_from_an_unowned_thread_are_not_lost() {
    let (rt, ids, outside) = rally();
    (0..EXTRAS).for_each(|_| outside.send(vec![0]));
    run_sequential(&rt, &SeqOptions::default());
    let expected = firings_per_module(&rt, &ids);
    // Every message is one firing on each module it passes: the rally
    // crosses both wires both ways, the extras only reach player-b.
    // RALLY is even: player-b sees RALLY, RALLY - 2, …, 0 and
    // player-a the odd counts between.
    let rally_b = RALLY as usize / 2 + 1;
    let rally_a = RALLY as usize / 2;
    assert_eq!(
        expected,
        [
            rally_a,
            rally_a + rally_b,
            rally_a + rally_b + EXTRAS as usize,
            rally_b + EXTRAS as usize
        ]
    );

    for round in 0..200 {
        let (rt, ids, outside) = rally();
        let sender = std::thread::spawn(move || {
            for _ in 0..EXTRAS {
                outside.send(vec![0]);
                std::thread::yield_now();
            }
        });
        let report = run_sequential(&rt, &SeqOptions::default());
        assert_eq!(report.stopped, StopReason::Quiescent, "round {round}");
        // The scheduler may have found the world quiet between two of
        // the outside sends; what arrived later is still announced, so
        // a second run picks it up.
        sender.join().unwrap();
        let report = run_sequential(&rt, &SeqOptions::default());
        assert_eq!(report.stopped, StopReason::Quiescent, "round {round}");
        let received = rt
            .with_machine::<Player, _>(ids[3], |p| p.received)
            .unwrap();
        assert_eq!(
            received as usize,
            rally_b + EXTRAS as usize,
            "round {round}: a message was stranded"
        );
        assert_eq!(firings_per_module(&rt, &ids), expected, "round {round}");
        assert_eq!(rt.ready_index_violations(), Vec::<String>::new());
    }
}
