//! The Estelle runtime: module tree, channels, firing engine.
//!
//! This is the artifact the paper's code generator emits code *against*
//! — the runtime system that owns module instances, their individual
//! interaction-point queues, and the rules of ISO 9074 scheduling
//! (parent precedence, activity mutual exclusion, static system-module
//! population, dynamic creation by parents only).

use crate::ctx::{Ctx, Effect};
use crate::error::{EstelleError, Result};
use crate::ids::{IpIndex, IpRef, ModuleId, ModuleKind, ModuleLabels, StateId};
use crate::interaction::Interaction;
use crate::machine::{
    Dispatch, FiredInfo, Fsm, IpState, ModuleExec, QueuedMsg, Selected, StateMachine,
    DEFAULT_TRANSITION_COST,
};
use crate::trace::{ExecTrace, FiringRecord, TraceModuleMeta};
use netsim::{SimDuration, SimTime, VirtualClock};
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::time::Instant;

/// Result of attempting to fire one module once.
#[derive(Debug, Clone)]
pub enum FireOutcome {
    /// A transition fired.
    Fired(FiredMeta),
    /// No transition of the module is currently enabled.
    NotEnabled,
    /// The module is enabled but an ancestor has work (parent
    /// precedence) — it may not run now.
    Blocked,
    /// The module does not exist or has been released.
    Dead,
}

/// Details of a successful firing.
#[derive(Debug, Clone)]
pub struct FiredMeta {
    /// The module that fired.
    pub module: ModuleId,
    /// Transition name.
    pub transition: &'static str,
    /// Virtual cost of the transition.
    pub cost: SimDuration,
    /// Transitions inspected during selection.
    pub scanned: u32,
    /// State before.
    pub from_state: StateId,
    /// State after.
    pub to_state: StateId,
}

/// Static description of a module instance.
#[derive(Debug, Clone)]
pub struct ModuleMeta {
    /// Module id.
    pub id: ModuleId,
    /// Instance name.
    pub name: String,
    /// Estelle attribute.
    pub kind: ModuleKind,
    /// Grouping labels.
    pub labels: ModuleLabels,
    /// Parent module.
    pub parent: Option<ModuleId>,
    /// Whether the module is still alive.
    pub alive: bool,
}

/// Scheduler/runtime instrumentation counters (cumulative).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Transitions fired (excluding `initialize` blocks).
    pub firings: u64,
    /// `initialize` blocks run.
    pub inits: u64,
    /// Transition-selection calls (scheduler scans).
    pub selects: u64,
    /// Wall nanoseconds spent selecting (scheduler overhead): each
    /// scan is timed as a whole, from its first candidate to the
    /// transition it fires or to its end.
    pub scan_ns: u64,
    /// Wall nanoseconds spent in transition actions (useful work).
    pub action_ns: u64,
    /// Firings refused because an ancestor had work.
    pub blocked: u64,
    /// Outputs on unconnected interaction points (lost).
    pub lost_outputs: u64,
    /// Messages routed to released modules (dropped).
    pub msgs_to_dead: u64,
}

struct ModuleCore {
    exec: Box<dyn ModuleExec>,
    ips: Vec<IpState>,
    entered_at: SimTime,
    last_seq: Option<u64>,
    inited: bool,
}

/// Ready-index words are allocated in chunks shared between the
/// module table and the wake cells of the modules whose bits they
/// hold, so a waker can mark its module ready without the table (see
/// [`WakeCell::mark_ready`]).
type ReadyChunk = [AtomicU64; CHUNK_BITS / 64];

/// Module ids covered by one [`ReadyChunk`].
const CHUNK_BITS: usize = 512;

/// The word of `chunk` holding the bit of module index `i`.
fn chunk_word(chunk: &ReadyChunk, i: usize) -> &AtomicU64 {
    &chunk[i % CHUNK_BITS / 64]
}

/// The name of the transition a selection picked.
fn selected_name(exec: &dyn ModuleExec, sel: Selected) -> &'static str {
    exec.transition_info()[sel.index as usize].name
}

/// The part of a module slot that a waker touches, and the only part
/// another thread may: the wake-up flag and the module's ready bit.
/// The `Arc` around it *is* the module's [`Waker`].
struct WakeCell {
    /// Module index, which names the bit.
    index: usize,
    /// Somebody announced that a [`crate::Transition::woken`] guard of
    /// this module may have changed and no selection has looked since.
    woken: AtomicBool,
    /// The chunk of the ready index holding this module's bit.
    ready: Arc<ReadyChunk>,
}

impl WakeCell {
    /// Sets the module's ready bit. Callers publish what made the
    /// module ready (queue count, `polls`, `woken`) first.
    fn mark_ready(&self) {
        chunk_word(&self.ready, self.index).fetch_or(1 << (self.index % 64), Ordering::SeqCst);
    }

    /// A wake-up: the next selection must evaluate the guards again.
    /// Two atomic writes and no borrow, so it may come from inside any
    /// firing and from any thread.
    fn mark_woken(&self) {
        self.set_woken();
        self.mark_ready();
    }

    fn set_woken(&self) {
        self.woken.store(true, Ordering::SeqCst);
    }

    fn is_woken(&self) -> bool {
        self.woken.load(Ordering::SeqCst)
    }

    /// Consumes the wake-up on behalf of the selection the caller is
    /// about to make: clear first, evaluate the guards second, so a
    /// wake that lands in between is kept for the next look. Returns
    /// whether one was pending.
    fn take_woken(&self) -> bool {
        self.woken.swap(false, Ordering::SeqCst)
    }
}

/// [`Ctx::waker`] is the wake cell itself: one allocation per module,
/// and waking a released module only sets a flag nobody reads.
impl Wake for WakeCell {
    fn wake(self: Arc<Self>) {
        self.mark_woken();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.mark_woken();
    }
}

struct ModuleSlot {
    id: ModuleId,
    name: String,
    kind: ModuleKind,
    labels: ModuleLabels,
    parent: Option<ModuleId>,
    children: RefCell<Vec<ModuleId>>,
    core: RefCell<ModuleCore>,
    alive: Cell<bool>,
    /// Messages queued across all interaction points.
    queued: Cell<usize>,
    /// [`ModuleExec::polls`] of the current state, refreshed whenever
    /// the state may have moved.
    polls: Cell<bool>,
    wake: Arc<WakeCell>,
    /// `wake` as a [`Waker`], made once when the slot is inserted.
    waker: Waker,
}

impl ModuleSlot {
    /// The ready-index predicate: this module may have an enabled
    /// transition or a pending `delay` deadline. Inactive modules
    /// never fire, so they are never ready.
    fn can_fire(&self) -> bool {
        self.alive.get()
            && self.kind != ModuleKind::Inactive
            && (self.queued.get() > 0 || self.polls.get() || self.wake.is_woken())
    }

    /// Appends `msg` to one of the module's queues, counts it and
    /// marks the module ready; false if the interaction point does not
    /// exist.
    fn enqueue(&self, ip: IpIndex, msg: QueuedMsg) -> bool {
        let mut core = self.core.borrow_mut();
        let Some(ip) = core.ips.get_mut(ip.0 as usize) else {
            return false;
        };
        ip.queue.push_back(msg);
        self.queued.set(self.queued.get() + 1);
        self.wake.mark_ready();
        true
    }

    /// Republishes what the ready-index predicate reads of the state
    /// machine after it may have moved: the `polls` bit, and a wake-up
    /// if the state now owns a wake-driven row — the action may have
    /// changed what its guard reads, and nobody else knows.
    fn refresh(&self, exec: &dyn ModuleExec) {
        self.polls.set(exec.polls());
        if exec.wake_driven() {
            self.wake.set_woken();
        }
    }
}

/// The module table and, beside it, the ready index (see
/// [`Runtime`]). The index grows with the table; its bits flip through
/// shared references, from the table's scans and from wake cells.
#[derive(Default)]
struct Topology {
    slots: Vec<Option<ModuleSlot>>,
    /// Bit `id % 64` of word `id / 64` ⇒ module `id` is a member; the
    /// words come in chunks of [`CHUNK_BITS`] ids.
    ready: Vec<Arc<ReadyChunk>>,
}

impl Topology {
    fn slot(&self, id: ModuleId) -> Option<&ModuleSlot> {
        self.slots.get(id.index()).and_then(Option::as_ref)
    }

    fn alive(&self) -> impl Iterator<Item = &ModuleSlot> {
        self.slots.iter().flatten().filter(|s| s.alive.get())
    }

    /// The ready-index word holding the bit of module index `i`.
    fn word(&self, i: usize) -> &AtomicU64 {
        chunk_word(&self.ready[i / CHUNK_BITS], i)
    }

    /// The first index member in `range` (ascending id), dropping idle
    /// and dead members met on the way.
    fn next_ready(&self, range: Range<ModuleId>) -> Option<&ModuleSlot> {
        let end = range.end.index().min(self.slots.len());
        let mut i = range.start.index();
        while i < end {
            let word = self.word(i);
            let bits = word.load(Ordering::SeqCst) & (u64::MAX << (i % 64));
            if bits == 0 {
                i = (i / 64 + 1) * 64;
                continue;
            }
            i = i / 64 * 64 + bits.trailing_zeros() as usize;
            if i >= end {
                break;
            }
            let slot = self.slots[i]
                .as_ref()
                .expect("ready bits are set after insertion");
            if slot.can_fire() {
                return Some(slot);
            }
            word.fetch_and(!(1 << (i % 64)), Ordering::SeqCst);
            if slot.can_fire() {
                // Woken between the two looks; its own set may have
                // landed before our clear.
                slot.wake.mark_ready();
                return Some(slot);
            }
            i += 1;
        }
        None
    }
}

/// A transition that ran while the table was borrowed; its effects
/// are applied by [`Runtime::commit`] once the borrow is gone
/// (creating a child borrows the table mutably).
struct Firing {
    module: ModuleId,
    labels: ModuleLabels,
    seq: u64,
    info: FiredInfo,
    scanned: u32,
    effects: Vec<Effect>,
    /// Module type and causal dependencies, when tracing is on.
    traced: Option<(&'static str, Vec<u64>)>,
}

/// What an idle driver needs to know, answered by one walk of the
/// ready index ([`Runtime::readiness`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Readiness {
    /// Some module has an enabled transition now.
    Enabled,
    /// Nothing is enabled; the earliest `delay` deadline, if any.
    IdleUntil(Option<SimTime>),
}

/// The Estelle runtime.
///
/// Build the static part of a specification with
/// [`Runtime::add_module`] and [`Runtime::connect`], then call
/// [`Runtime::start`]; drive execution with a scheduler from
/// [`crate::sched`].
///
/// # Instruments
///
/// The runtime records two things about a run and nothing else: the
/// §5.2 scheduler [`Counters`] ([`Runtime::counters`]) and, when
/// enabled, the [`ExecTrace`] that `ksim` replays
/// ([`Runtime::enable_trace`], [`Runtime::take_trace`]). Neither
/// changes what fires or when.
///
/// # The ready index
///
/// The paper's cure for the scheduler bottleneck (§5.2) is that "each
/// part only has to check the transitions of one module". The runtime
/// applies the same idea to *which* modules are checked at all: beside
/// the module table it keeps one bit per module id, the **ready
/// index**, and every scan (the scheduler's passes, parent precedence,
/// [`Runtime::readiness`], [`Runtime::next_deadline`]) consults members
/// only.
///
/// Invariant: `alive ∧ (queued > 0 ∨ polls(state) ∨ woken)` ⇒ the
/// module's bit is set, where `queued` counts the messages in the
/// module's queues, `polls` is [`crate::ModuleExec::polls`] of its
/// current state (a transition without a `when` clause that nobody
/// announces) and `woken` says a wake-up is pending; inactive modules,
/// which never fire, are never members. A module outside that
/// predicate has `when` transitions on empty queues and
/// [`crate::Transition::woken`] transitions whose guards were false at
/// the last look with no change announced since, so `select` and
/// `next_deadline` would both yield `None`: skipping it changes
/// nothing but the counters. Polling states stay members whatever
/// their guards say — that is what a spontaneous transition means when
/// nothing else is said.
///
/// **Who sets `woken`:** the module's [`Ctx::waker`], held by whoever
/// owns what a guard reads (a medium after a delivery, the stream
/// provider when a recording finishes, the reaper list after a push);
/// [`Runtime::with_machine_mut`], because the outside hand may have
/// changed it; insertion and `initialize`, because it may have changed
/// before anybody held the waker; and the module's own firing whenever
/// the state it ends in owns a wake-driven row, because its action may
/// have changed it. **Who consumes it:** the look — the selection made
/// on the module's behalf by a firing attempt or by
/// [`Runtime::readiness`] clears the flag immediately *before* it
/// evaluates the guards. Guards false: the module drops out until the
/// next wake-up. A wake that lands after the clear stays for the next
/// look. A look that finds a transition without firing it
/// (`readiness` answering `Enabled`) puts the flag back; a look on
/// somebody else's behalf (parent precedence) and an attempt refused
/// as `Blocked` never touch it.
///
/// **Only waking is thread-safe.** The runtime belongs to the thread
/// that drives it: the module table, each module's core, queue count
/// and `polls` bit, the counters and the trace are `Cell`s and
/// `RefCell`s. One part of each module is not: its *wake cell*, which
/// holds the `woken` flag, the chunk of ready-index words that holds
/// the module's bit, and where the bit is. The module's waker *is*
/// that cell (`Arc<WakeCell>` implements [`std::task::Wake`], made
/// into a [`Waker`] once per module), and it stays atomic for two
/// reasons: a `Waker` must be `Send + Sync`, and a
/// [`netsim::ThreadMedium`] peer wakes its reader from a thread no
/// scheduler owns. Waking borrows nothing, so it may also come from
/// inside a firing, while the table and the firing module's core are
/// borrowed (a medium's `send`). A waker holds its cell and nothing
/// else: a body that keeps its own module's waker forms no cycle,
/// dropping the runtime drops every body, and waking a released module
/// (or one whose runtime is gone) sets a flag nobody reads.
///
/// The bit is set when a slot is inserted, after every enqueue (count
/// first, bit second), by every wake-up (flag first, bit second) and
/// after `initialize` leaves the module able to fire. It is cleared
/// lazily by the scan that finds the member idle or dead: clear, then
/// look at the predicate once more and set the bit back if it turned
/// true meanwhile. Queue counts and `polls` change only on the
/// runtime's thread, never during a scan's look; `woken` and the bit
/// may change under it, and for those two both sides are `SeqCst`: a
/// waker's owner publishes its own state, then `woken`, *then* the
/// bit; a scan clears the bit and *then* re-reads the predicate; a
/// look clears `woken` and *then* reads the guards. Whichever of the
/// two sides comes second sees the other, so no wake-up from another
/// thread is lost. A firing leaves its module's bit as the scan found
/// it, set: firings happen one at a time, so no other scan runs while
/// an action consumes the last message.
pub struct Runtime {
    clock: Arc<VirtualClock>,
    next_id: Cell<u32>,
    /// Borrowed shared by every scan and firing, and mutably only to
    /// insert a slot: a firing's effects wait until its borrow ends.
    topo: RefCell<Topology>,
    frozen: Cell<bool>,
    trace_on: Cell<bool>,
    trace: RefCell<Vec<FiringRecord>>,
    fire_seq: Cell<u64>,
    counters: Cell<Counters>,
    dynamic_systems: Cell<bool>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field(
                "modules",
                &self.topo.borrow().slots.iter().flatten().count(),
            )
            .field("frozen", &self.frozen.get())
            .finish_non_exhaustive()
    }
}

impl Runtime {
    /// Creates a runtime driven by the given virtual clock, the only
    /// time it reads; an idle scheduler may advance it to the next
    /// `delay` deadline.
    pub fn with_virtual_clock(clock: Arc<VirtualClock>) -> Self {
        Runtime {
            clock,
            next_id: Cell::new(0),
            topo: RefCell::default(),
            frozen: Cell::new(false),
            trace_on: Cell::new(false),
            trace: RefCell::default(),
            fire_seq: Cell::new(1),
            counters: Cell::default(),
            dynamic_systems: Cell::new(false),
        }
    }

    /// Enables the ref \[2\] Estelle enhancement ("Increasing the
    /// concurrency in Estelle", Bredereke/Gotzhein): system modules may
    /// be created *after* [`Runtime::start`], lifting the ISO 9074
    /// restriction the paper calls out in §4.1 ("the number of
    /// `systemprocess` modules cannot be changed at runtime, so the
    /// number of clients is fixed"). Dynamically added modules run
    /// their `initialize` block immediately and join scheduling on the
    /// next pass. Structural rules still apply.
    pub fn enable_dynamic_systems(&self) {
        self.dynamic_systems.set(true);
    }

    /// Whether the ref \[2\] dynamic-system extension is active.
    pub fn dynamic_systems_enabled(&self) -> bool {
        self.dynamic_systems.get()
    }

    /// Convenience: a fresh runtime with its own virtual clock.
    pub fn sim() -> (Self, Arc<VirtualClock>) {
        let vclock = Arc::new(VirtualClock::new());
        (Self::with_virtual_clock(Arc::clone(&vclock)), vclock)
    }

    /// Current time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn with_slot<R>(&self, id: ModuleId, f: impl FnOnce(&ModuleSlot) -> R) -> Option<R> {
        self.topo.borrow().slot(id).map(f)
    }

    fn count(&self, f: impl FnOnce(&mut Counters)) {
        let mut counters = self.counters.get();
        f(&mut counters);
        self.counters.set(counters);
    }

    fn next_seq(&self) -> u64 {
        self.fire_seq.replace(self.fire_seq.get() + 1)
    }

    /// Adds a module to the static part of the specification.
    ///
    /// `parent` of `None` means top level. Structural rules of ISO 9074
    /// are enforced (see [`EstelleError::StructuralRule`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the runtime has started, the parent is
    /// unknown, or an attribute rule is violated.
    pub fn add_module<M: StateMachine>(
        &self,
        parent: Option<ModuleId>,
        name: impl Into<String>,
        kind: ModuleKind,
        labels: ModuleLabels,
        machine: M,
    ) -> Result<ModuleId> {
        let frozen = self.frozen.get();
        if frozen && !self.dynamic_systems.get() {
            return Err(EstelleError::SystemPopulationFrozen(kind));
        }
        let parent_kind = match parent {
            None => None,
            Some(p) => Some(
                self.with_slot(p, |s| s.kind)
                    .ok_or(EstelleError::UnknownModule(p))?,
            ),
        };
        validate_child_kind(parent_kind, kind).map_err(EstelleError::StructuralRule)?;
        let id = ModuleId(self.next_id.replace(self.next_id.get() + 1));
        let exec = Box::new(Fsm::new(machine));
        self.insert_slot(id, parent, name.into(), kind, labels, exec);
        // Ref [2] extension: a module created after start runs its
        // initialize block immediately (start already initialized the
        // static population).
        if frozen {
            self.init_module(id);
        }
        Ok(id)
    }

    fn insert_slot(
        &self,
        id: ModuleId,
        parent: Option<ModuleId>,
        name: String,
        kind: ModuleKind,
        labels: ModuleLabels,
        exec: Box<dyn ModuleExec>,
    ) {
        let num_ips = exec.num_ips();
        let polls = exec.polls();
        let mut topo = self.topo.borrow_mut();
        if topo.slots.len() <= id.index() {
            topo.slots.resize_with(id.index() + 1, || None);
            let chunks = topo.slots.len().div_ceil(CHUNK_BITS);
            topo.ready.resize_with(chunks, Arc::default);
        }
        let wake = Arc::new(WakeCell {
            index: id.index(),
            // A wake-driven initial state gets its first look for
            // free: whatever its guards read may have changed before
            // anybody held the module's waker.
            woken: AtomicBool::new(exec.wake_driven()),
            ready: Arc::clone(&topo.ready[id.index() / CHUNK_BITS]),
        });
        wake.mark_ready();
        topo.slots[id.index()] = Some(ModuleSlot {
            id,
            name,
            kind,
            labels,
            parent,
            children: RefCell::default(),
            core: RefCell::new(ModuleCore {
                exec,
                ips: (0..num_ips).map(|_| IpState::default()).collect(),
                entered_at: self.clock.now(),
                last_seq: None,
                inited: false,
            }),
            alive: Cell::new(true),
            queued: Cell::new(0),
            polls: Cell::new(polls),
            waker: Waker::from(Arc::clone(&wake)),
            wake,
        });
        if let Some(ps) = parent.and_then(|p| topo.slot(p)) {
            ps.children.borrow_mut().push(id);
        }
    }

    /// Connects two interaction points with a channel.
    ///
    /// # Errors
    ///
    /// Returns an error if a module is unknown, an index is out of
    /// range, or either point is already connected.
    pub fn connect(&self, a: IpRef, b: IpRef) -> Result<()> {
        let topo = self.topo.borrow();
        let slot = |end: IpRef| {
            topo.slot(end.module)
                .ok_or(EstelleError::UnknownModule(end.module))
        };
        let ends = [(a, slot(a)?), (b, slot(b)?)];
        for (end, s) in ends {
            if end.ip.0 as usize >= s.core.borrow().ips.len() {
                return Err(EstelleError::IpOutOfRange(end));
            }
        }
        for (end, s) in ends {
            if s.core.borrow().ips[end.ip.0 as usize].peer.is_some() {
                return Err(EstelleError::AlreadyConnected(end));
            }
        }
        for ((end, s), peer) in ends.into_iter().zip([b, a]) {
            s.core.borrow_mut().ips[end.ip.0 as usize].peer = Some(peer);
        }
        Ok(())
    }

    /// Freezes the system-module population and runs every module's
    /// `initialize` block (cascading through children created during
    /// initialization).
    ///
    /// # Errors
    ///
    /// Currently infallible but returns `Result` for future
    /// compatibility with initialization-time validation.
    pub fn start(&self) -> Result<()> {
        self.frozen.set(true);
        let existing: Vec<ModuleId> = self
            .topo
            .borrow()
            .slots
            .iter()
            .flatten()
            .map(|s| s.id)
            .collect();
        for id in existing {
            self.init_module(id);
        }
        Ok(())
    }

    fn init_module(&self, id: ModuleId) {
        let mut effects = Vec::new();
        let seq = {
            let topo = self.topo.borrow();
            let Some(slot) = topo.slot(id).filter(|s| s.alive.get()) else {
                return;
            };
            let seq = self.next_seq();
            let mut core = slot.core.borrow_mut();
            if core.inited {
                return;
            }
            core.inited = true;
            core.last_seq = Some(seq);
            let mut ctx = Ctx::new(
                self.clock.now(),
                id,
                slot.kind,
                &mut effects,
                &self.next_id,
                &slot.waker,
            );
            core.exec.on_init(&mut ctx);
            slot.refresh(&*core.exec);
            if self.trace_on.get() {
                self.trace.borrow_mut().push(FiringRecord {
                    seq,
                    module: id,
                    labels: slot.labels,
                    module_type: core.exec.type_name(),
                    transition: "initialize",
                    cost: DEFAULT_TRANSITION_COST,
                    deps: Vec::new(),
                });
            }
            drop(core);
            if slot.can_fire() {
                slot.wake.mark_ready();
            }
            seq
        };
        self.count(|c| c.inits += 1);
        self.apply_effects(id, seq, effects);
    }

    /// Attempts to fire one transition of `id`, honouring parent
    /// precedence.
    pub fn try_fire(&self, id: ModuleId, dispatch: Dispatch) -> FireOutcome {
        let t_scan = Instant::now();
        let attempt = {
            let topo = self.topo.borrow();
            match topo.slot(id) {
                Some(slot) => self.attempt(&topo, slot, dispatch, self.clock.now(), t_scan),
                None => Err(FireOutcome::Dead),
            }
        };
        match attempt {
            Ok(firing) => FireOutcome::Fired(self.commit(firing)),
            Err(outcome) => {
                self.add_scan_ns(t_scan);
                outcome
            }
        }
    }

    /// Fires the first ready-index member of `range` (ascending id)
    /// that has an enabled, unblocked transition, and returns what
    /// fired; `None` when no member of the range can fire. One
    /// scheduler pass is a sequence of these calls with the cursor
    /// moved just past each module that fired.
    pub(crate) fn fire_next_ready(
        &self,
        range: Range<ModuleId>,
        dispatch: Dispatch,
    ) -> Option<FiredMeta> {
        let t_scan = Instant::now();
        let now = self.clock.now();
        let firing = {
            let topo = self.topo.borrow();
            let mut cursor = range.start;
            loop {
                let Some(slot) = topo.next_ready(cursor..range.end) else {
                    break None;
                };
                match self.attempt(&topo, slot, dispatch, now, t_scan) {
                    Ok(firing) => break Some(firing),
                    Err(_) => cursor = slot.id.next(),
                }
            }
        };
        match firing {
            Some(firing) => Some(self.commit(firing)),
            None => {
                self.add_scan_ns(t_scan);
                None
            }
        }
    }

    /// The first ready-index member in `range` (ascending id). A
    /// member *may* have an enabled transition; a module outside the
    /// index cannot.
    pub fn next_ready(&self, range: Range<ModuleId>) -> Option<ModuleId> {
        self.topo.borrow().next_ready(range).map(|s| s.id)
    }

    /// One past the highest module id handed out so far. A pass that
    /// scans `..id_watermark()` leaves modules created during the pass
    /// to the next one.
    pub fn id_watermark(&self) -> ModuleId {
        ModuleId(self.next_id.get())
    }

    fn add_scan_ns(&self, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        self.count(|c| c.scan_ns += ns);
    }

    /// Whether a transition of `slot` is enabled now (ignoring parent
    /// precedence). Skips modules outside the ready-index predicate,
    /// and leaves a pending wake-up alone: this look is somebody else
    /// asking, not the module's turn.
    fn enabled(&self, slot: &ModuleSlot, dispatch: Dispatch, now: SimTime) -> bool {
        if !slot.can_fire() {
            return false;
        }
        let core = slot.core.borrow();
        self.count(|c| c.selects += 1);
        core.exec
            .select(&core.ips, now, core.entered_at, dispatch)
            .is_some()
    }

    /// Selects and, if a transition is enabled and no ancestor claims
    /// precedence, fires `slot` while the caller borrows the table.
    /// `t_scan` is when the caller's scan began: a firing closes the
    /// scan interval (the time since counts as selection) and opens
    /// the action interval with the same clock read.
    fn attempt(
        &self,
        topo: &Topology,
        slot: &ModuleSlot,
        dispatch: Dispatch,
        now: SimTime,
        t_scan: Instant,
    ) -> std::result::Result<Firing, FireOutcome> {
        if !slot.alive.get() {
            return Err(FireOutcome::Dead);
        }
        if !slot.can_fire() {
            return Err(FireOutcome::NotEnabled);
        }
        // Parent precedence: every attributed ancestor must have
        // nothing to do.
        let mut anc = slot.parent;
        while let Some(ps) = anc.and_then(|pid| topo.slot(pid)) {
            if ps.kind.is_attributed() && self.enabled(ps, dispatch, now) {
                self.count(|c| c.blocked += 1);
                return Err(FireOutcome::Blocked);
            }
            anc = ps.parent;
        }
        let id = slot.id;
        let mut effects = Vec::new();
        let mut core = slot.core.borrow_mut();
        // This is the module's own look: a module whose guards turn
        // out false leaves the index until the next wake-up.
        slot.wake.take_woken();
        self.count(|c| c.selects += 1);
        let sel = core
            .exec
            .select(&core.ips, now, core.entered_at, dispatch)
            .ok_or(FireOutcome::NotEnabled)?;
        let t_act = Instant::now();
        let scan_ns = t_act.duration_since(t_scan).as_nanos() as u64;
        self.count(|c| c.scan_ns += scan_ns);
        let seq = self.next_seq();
        let mut traced = self
            .trace_on
            .get()
            .then(|| (core.exec.type_name(), Vec::from_iter(core.last_seq)));
        let input = sel
            .needs_input
            .and_then(|ip| core.ips.get_mut(ip.0 as usize))
            .and_then(|q| q.queue.pop_front());
        let input_msg = input.map(|q| {
            slot.queued.set(slot.queued.get() - 1);
            if let (Some((_, deps)), Some(p)) = (&mut traced, q.provenance) {
                deps.push(p);
            }
            q.msg
        });
        let mut ctx = Ctx::new(now, id, slot.kind, &mut effects, &self.next_id, &slot.waker);
        let info = core.exec.fire(sel, input_msg, &mut ctx);
        let action_ns = t_act.elapsed().as_nanos() as u64;
        self.count(|c| c.action_ns += action_ns);
        if info.to_state != info.from_state {
            core.entered_at = now;
        }
        core.last_seq = Some(seq);
        slot.refresh(&*core.exec);
        Ok(Firing {
            module: id,
            labels: slot.labels,
            seq,
            info,
            scanned: sel.scanned,
            effects,
            traced,
        })
    }

    /// Applies the effects of a firing and records it. Runs without
    /// borrowing the table.
    fn commit(&self, firing: Firing) -> FiredMeta {
        let Firing {
            module,
            labels,
            seq,
            info,
            scanned,
            effects,
            traced,
        } = firing;
        self.apply_effects(module, seq, effects);
        if let Some((module_type, deps)) = traced {
            self.trace.borrow_mut().push(FiringRecord {
                seq,
                module,
                labels,
                module_type,
                transition: info.transition,
                cost: info.cost,
                deps,
            });
        }
        self.count(|c| c.firings += 1);
        FiredMeta {
            module,
            transition: info.transition,
            cost: info.cost,
            scanned,
            from_state: info.from_state,
            to_state: info.to_state,
        }
    }

    /// The transition `id` would fire if it were selected now, by
    /// name, whether or not the ready index would let a scheduler look
    /// at it — for reports about what keeps a driver busy. Not counted
    /// as a selection.
    pub fn enabled_transition(&self, id: ModuleId, dispatch: Dispatch) -> Option<&'static str> {
        let topo = self.topo.borrow();
        let core = topo.slot(id).filter(|s| s.alive.get())?.core.borrow();
        let sel = core
            .exec
            .select(&core.ips, self.clock.now(), core.entered_at, dispatch)?;
        Some(selected_name(&*core.exec, sel))
    }

    /// One walk of the ready index: whether a member has an enabled
    /// transition (looked for only with a `dispatch`, and ending the
    /// walk) and the earliest `delay` deadline among the members seen.
    fn scan_ready(&self, dispatch: Option<Dispatch>) -> (bool, Option<SimTime>) {
        let t_scan = Instant::now();
        let now = self.clock.now();
        let topo = self.topo.borrow();
        let end = ModuleId(topo.slots.len() as u32);
        let mut cursor = ModuleId(0);
        let mut enabled = false;
        let mut deadline: Option<SimTime> = None;
        while let Some(slot) = topo.next_ready(cursor..end) {
            cursor = slot.id.next();
            let core = slot.core.borrow();
            if let Some(dispatch) = dispatch {
                let woken = slot.wake.take_woken();
                self.count(|c| c.selects += 1);
                let sel = core.exec.select(&core.ips, now, core.entered_at, dispatch);
                if sel.is_some() {
                    // Found, not fired: the wake-up is still owed to
                    // the scheduler that will fire it.
                    if woken {
                        slot.wake.mark_woken();
                    }
                    enabled = true;
                    break;
                }
            }
            if let Some(t) = core.exec.next_deadline(&core.ips, core.entered_at) {
                deadline = Some(deadline.map_or(t, |d| d.min(t)));
            }
        }
        drop(topo);
        self.add_scan_ns(t_scan);
        (enabled, deadline)
    }

    /// Whether anything is enabled now and, if not, when the earliest
    /// `delay` transition could become enabled — the question a driver
    /// asks before it lets time pass, answered in one walk.
    pub fn readiness(&self, dispatch: Dispatch) -> Readiness {
        match self.scan_ready(Some(dispatch)) {
            (true, _) => Readiness::Enabled,
            (false, deadline) => Readiness::IdleUntil(deadline),
        }
    }

    /// Earliest instant at which a `delay` transition could become
    /// enabled, across all modules.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.scan_ready(None).1
    }

    /// Advances the virtual clock to `t` (no-op for past instants).
    pub fn advance_clock_to(&self, t: SimTime) {
        self.clock.advance_to(t);
    }

    fn apply_effects(&self, owner: ModuleId, seq: u64, effects: Vec<Effect>) {
        let mut to_init = Vec::new();
        for e in effects {
            match e {
                Effect::Create(ce) => {
                    self.insert_slot(
                        ce.reserved,
                        Some(owner),
                        ce.name,
                        ce.kind,
                        ce.labels,
                        ce.exec,
                    );
                    to_init.push(ce.reserved);
                }
                Effect::Connect { a, b } => {
                    if let Err(err) = self.connect(a, b) {
                        panic!("invalid connect effect from {owner}: {err}");
                    }
                }
                Effect::Output { from_ip, msg } => {
                    self.route_output(owner, from_ip, msg, Some(seq));
                }
                Effect::Release { child } => {
                    self.release_subtree(owner, child);
                }
            }
        }
        for id in to_init {
            self.init_module(id);
        }
    }

    fn route_output(
        &self,
        owner: ModuleId,
        from_ip: IpIndex,
        msg: Box<dyn Interaction>,
        provenance: Option<u64>,
    ) {
        let topo = self.topo.borrow();
        let Some(slot) = topo.slot(owner) else { return };
        let peer = match slot.core.borrow().ips.get(from_ip.0 as usize) {
            Some(ip) => ip.peer,
            None => panic!("module {owner} output on out-of-range interaction point {from_ip}"),
        };
        let Some(peer) = peer else {
            self.count(|c| c.lost_outputs += 1);
            return;
        };
        let msg = QueuedMsg { msg, provenance };
        let queued = topo
            .slot(peer.module)
            .filter(|dest| dest.alive.get())
            .is_some_and(|dest| dest.enqueue(peer.ip, msg));
        if !queued {
            self.count(|c| c.msgs_to_dead += 1);
        }
    }

    fn release_subtree(&self, actor: ModuleId, child: ModuleId) {
        let topo = self.topo.borrow();
        let Some(cs) = topo.slot(child) else { return };
        if cs.parent != Some(actor) {
            panic!("module {actor} attempted to release non-child {child}");
        }
        let mut stack = vec![child];
        while let Some(id) = stack.pop() {
            let Some(s) = topo.slot(id) else { continue };
            s.alive.set(false);
            // Disconnect peers so their future outputs count as lost
            // rather than queueing at a corpse.
            let peers: Vec<IpRef> = s
                .core
                .borrow()
                .ips
                .iter()
                .filter_map(|ip| ip.peer)
                .collect();
            for p in peers {
                if let Some(ps) = topo.slot(p.module) {
                    if let Some(ip) = ps.core.borrow_mut().ips.get_mut(p.ip.0 as usize) {
                        ip.peer = None;
                    }
                }
            }
            stack.extend(s.children.borrow().iter().copied());
        }
    }

    /// Injects a message from outside the specification (test driver /
    /// environment) into an interaction point's queue.
    ///
    /// # Errors
    ///
    /// Returns an error if the module is unknown/released or the index
    /// is out of range.
    pub fn inject(&self, target: IpRef, msg: Box<dyn Interaction>) -> Result<()> {
        let topo = self.topo.borrow();
        let slot = topo
            .slot(target.module)
            .filter(|s| s.alive.get())
            .ok_or(EstelleError::UnknownModule(target.module))?;
        let msg = QueuedMsg {
            msg,
            provenance: None,
        };
        if slot.enqueue(target.ip, msg) {
            Ok(())
        } else {
            Err(EstelleError::IpOutOfRange(target))
        }
    }

    /// Snapshot of all alive module ids, in id order.
    pub fn alive_modules(&self) -> Vec<ModuleId> {
        self.topo.borrow().alive().map(|s| s.id).collect()
    }

    /// Metadata of `id`, if it ever existed.
    pub fn module_meta(&self, id: ModuleId) -> Option<ModuleMeta> {
        self.with_slot(id, |s| ModuleMeta {
            id: s.id,
            name: s.name.clone(),
            kind: s.kind,
            labels: s.labels,
            parent: s.parent,
            alive: s.alive.get(),
        })
    }

    /// Children of `id` in creation order.
    pub fn children_of(&self, id: ModuleId) -> Vec<ModuleId> {
        self.with_slot(id, |s| s.children.borrow().clone())
            .unwrap_or_default()
    }

    /// Current FSM state of `id`.
    pub fn module_state(&self, id: ModuleId) -> Option<StateId> {
        self.with_slot(id, |s| s.core.borrow().exec.state())
    }

    /// Static transition descriptions of `id` (priority order).
    pub(crate) fn transition_info(&self, id: ModuleId) -> Vec<crate::machine::TransitionInfo> {
        self.with_slot(id, |s| s.core.borrow().exec.transition_info())
            .unwrap_or_default()
    }

    /// Module type name of `id`.
    pub fn module_type(&self, id: ModuleId) -> Option<&'static str> {
        self.with_slot(id, |s| s.core.borrow().exec.type_name())
    }

    /// The peers of each interaction point of `id` (index = IP).
    pub(crate) fn ip_peers(&self, id: ModuleId) -> Vec<Option<IpRef>> {
        self.with_slot(id, |s| {
            s.core.borrow().ips.iter().map(|ip| ip.peer()).collect()
        })
        .unwrap_or_default()
    }

    /// Runs `f` against the concrete machine of module `id`, if it is
    /// an [`Fsm`] over `M`. Used by drivers and tests to observe
    /// machine-internal results.
    pub fn with_machine<M: StateMachine, R>(
        &self,
        id: ModuleId,
        f: impl FnOnce(&M) -> R,
    ) -> Option<R> {
        let topo = self.topo.borrow();
        let core = topo.slot(id)?.core.borrow();
        let fsm = core.exec.as_any().downcast_ref::<Fsm<M>>()?;
        Some(f(fsm.machine()))
    }

    /// Mutable variant of [`Runtime::with_machine`]. The outside hand
    /// may have changed what a [`crate::Transition::woken`] guard of
    /// the module reads, so a module whose current state owns such a
    /// row is woken (see "The ready index" above).
    pub fn with_machine_mut<M: StateMachine, R>(
        &self,
        id: ModuleId,
        f: impl FnOnce(&mut M) -> R,
    ) -> Option<R> {
        let topo = self.topo.borrow();
        let slot = topo.slot(id)?;
        let mut core = slot.core.borrow_mut();
        let fsm = core.exec.as_any_mut().downcast_mut::<Fsm<M>>()?;
        let result = f(fsm.machine_mut());
        if core.exec.wake_driven() {
            slot.wake.mark_woken();
        }
        Some(result)
    }

    /// Total messages queued across all interaction points.
    pub fn pending_messages(&self) -> usize {
        self.topo.borrow().alive().map(|s| s.queued.get()).sum()
    }

    /// Compares the ready index with the modules themselves and
    /// describes every disagreement: a drifted queue count or `polls`
    /// bit, a module that satisfies the membership predicate but is
    /// not a member, and a module outside the predicate for which
    /// `select` or `next_deadline` nevertheless yields something (the
    /// claim that lets scans skip it). With empty queues and no polled
    /// row, what `select` yields is a [`crate::Transition::woken`]
    /// transition whose guard changed unannounced, reported as
    /// `missed wake-up: <instance> (<type>) has <transition> enabled
    /// and nobody woke it`. Meaningful only while no scheduler is
    /// running; the equivalence tests call it between runs and
    /// `World`'s driver each time it returns (debug profile).
    #[doc(hidden)]
    pub fn ready_index_violations(&self) -> Vec<String> {
        let topo = self.topo.borrow();
        let now = self.clock.now();
        let mut found = Vec::new();
        for slot in topo.alive().filter(|s| s.kind != ModuleKind::Inactive) {
            let core = slot.core.borrow();
            let id = slot.id;
            let queued: usize = core.ips.iter().map(IpState::len).sum();
            if slot.queued.get() != queued {
                found.push(format!("{id}: queue count drifted from {queued}"));
            }
            if slot.polls.get() != core.exec.polls() {
                found.push(format!("{id}: stale polls bit in {}", core.exec.state()));
            }
            let bit = 1u64 << (id.index() % 64);
            if queued > 0 || core.exec.polls() || slot.wake.is_woken() {
                if topo.word(id.index()).load(Ordering::SeqCst) & bit == 0 {
                    found.push(format!("{id}: can fire but is not in the index"));
                }
                continue;
            }
            let selected = [Dispatch::HardCoded, Dispatch::TableDriven]
                .iter()
                .find_map(|&d| core.exec.select(&core.ips, now, core.entered_at, d));
            if let Some(sel) = selected {
                found.push(format!(
                    "missed wake-up: {} ({}) has {} enabled and nobody woke it",
                    slot.name,
                    core.exec.type_name(),
                    selected_name(&*core.exec, sel),
                ));
            } else if core
                .exec
                .next_deadline(&core.ips, core.entered_at)
                .is_some()
            {
                found.push(format!("{id}: skipped by scans but not inert"));
            }
        }
        found
    }

    /// Enables trace recording (see [`ExecTrace`]).
    pub fn enable_trace(&self) {
        self.trace_on.set(true);
    }

    /// Stops recording and returns the trace collected so far.
    pub fn take_trace(&self) -> ExecTrace {
        self.trace_on.set(false);
        let records = self.trace.take();
        let modules = self
            .topo
            .borrow()
            .slots
            .iter()
            .flatten()
            .map(|s| TraceModuleMeta {
                id: s.id,
                name: s.name.clone(),
                kind: s.kind,
                labels: s.labels,
                parent: s.parent,
            })
            .collect();
        ExecTrace { records, modules }
    }

    /// Snapshot of the instrumentation counters.
    pub fn counters(&self) -> Counters {
        self.counters.get()
    }
}

/// Checks the ISO 9074 attribute rules for placing a `child` kind under
/// a parent of `parent` kind (`None` = top level). Returns the violated
/// rule on failure. Exposed for property tests.
pub fn validate_child_kind(
    parent: Option<ModuleKind>,
    child: ModuleKind,
) -> std::result::Result<(), String> {
    use ModuleKind::*;
    match parent {
        None => match child {
            SystemProcess | SystemActivity | Inactive => Ok(()),
            Process | Activity => Err(format!(
                "{child} module must be contained (perhaps indirectly) in a system module"
            )),
        },
        Some(Inactive) => match child {
            SystemProcess | SystemActivity | Inactive => Ok(()),
            Process | Activity => Err(format!(
                "{child} module cannot be the child of an inactive module"
            )),
        },
        Some(p @ (SystemProcess | Process)) => match child {
            Process | Activity => Ok(()),
            SystemProcess | SystemActivity => Err(format!(
                "a system module cannot be contained in attributed module ({p})"
            )),
            Inactive => Err("inactive modules may only appear above system modules".into()),
        },
        Some(p @ (SystemActivity | Activity)) => match child {
            Activity => Ok(()),
            Process => Err(format!("an {p} module can only contain activity children")),
            SystemProcess | SystemActivity => Err(format!(
                "a system module cannot be contained in attributed module ({p})"
            )),
            Inactive => Err("inactive modules may only appear above system modules".into()),
        },
    }
}
