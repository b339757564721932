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
use parking_lot::{Mutex, RwLock};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
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

#[derive(Debug, Default)]
struct AtomicCounters {
    firings: AtomicU64,
    inits: AtomicU64,
    selects: AtomicU64,
    scan_ns: AtomicU64,
    action_ns: AtomicU64,
    blocked: AtomicU64,
    lost_outputs: AtomicU64,
    msgs_to_dead: AtomicU64,
}

impl AtomicCounters {
    fn snapshot(&self) -> Counters {
        Counters {
            firings: self.firings.load(Ordering::Relaxed),
            inits: self.inits.load(Ordering::Relaxed),
            selects: self.selects.load(Ordering::Relaxed),
            scan_ns: self.scan_ns.load(Ordering::Relaxed),
            action_ns: self.action_ns.load(Ordering::Relaxed),
            blocked: self.blocked.load(Ordering::Relaxed),
            lost_outputs: self.lost_outputs.load(Ordering::Relaxed),
            msgs_to_dead: self.msgs_to_dead.load(Ordering::Relaxed),
        }
    }
}

struct ModuleCore {
    exec: Box<dyn ModuleExec>,
    ips: Vec<IpState>,
    entered_at: SimTime,
    last_seq: Option<u64>,
    inited: bool,
}

/// Ready-index words are allocated in chunks shared between the
/// module table and the slots of the modules whose bits they hold, so
/// a module can be marked ready through its slot alone — without the
/// topology lock (see [`ModuleSlot::mark_ready`]).
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

struct ModuleSlot {
    id: ModuleId,
    name: String,
    kind: ModuleKind,
    labels: ModuleLabels,
    parent: Option<ModuleId>,
    children: Mutex<Vec<ModuleId>>,
    core: Mutex<ModuleCore>,
    alive: AtomicBool,
    /// Messages queued across all interaction points (bumped under the
    /// core lock, readable without it).
    queued: AtomicUsize,
    /// [`ModuleExec::polls`] of the current state, refreshed under the
    /// core lock whenever the state may have moved.
    polls: AtomicBool,
    /// Somebody announced that a [`crate::Transition::woken`] guard of
    /// this module may have changed and no selection has looked since.
    woken: AtomicBool,
    /// The chunk of the ready index holding this module's bit.
    ready: Arc<ReadyChunk>,
}

impl ModuleSlot {
    fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// The ready-index predicate: this module may have an enabled
    /// transition or a pending `delay` deadline. Inactive modules
    /// never fire, so they are never ready.
    fn can_fire(&self) -> bool {
        self.is_alive()
            && self.kind != ModuleKind::Inactive
            && (self.queued.load(Ordering::SeqCst) > 0
                || self.polls.load(Ordering::SeqCst)
                || self.woken.load(Ordering::SeqCst))
    }

    /// Sets the module's ready bit. Callers publish what made the
    /// module ready (queue count, `polls`, `woken`) first.
    fn mark_ready(&self) {
        let i = self.id.index();
        chunk_word(&self.ready, i).fetch_or(1 << (i % 64), Ordering::SeqCst);
    }

    /// Appends `msg` to one of the module's queues, counts it and
    /// marks the module ready (in that order); false if the
    /// interaction point does not exist.
    fn enqueue(&self, ip: IpIndex, msg: QueuedMsg) -> bool {
        {
            let mut core = self.core.lock();
            let Some(ip) = core.ips.get_mut(ip.0 as usize) else {
                return false;
            };
            ip.queue.push_back(msg);
            self.queued.fetch_add(1, Ordering::SeqCst);
        }
        self.mark_ready();
        true
    }

    /// A wake-up: the next selection must evaluate the guards again.
    /// Two atomic writes and no lock, so it may come from inside any
    /// firing and from any thread.
    fn mark_woken(&self) {
        self.woken.store(true, Ordering::SeqCst);
        self.mark_ready();
    }

    /// Republishes what the ready-index predicate reads of the state
    /// machine after it may have moved (under the core lock): the
    /// `polls` bit, and a wake-up if the state now owns a wake-driven
    /// row — the action may have changed what its guard reads, and
    /// nobody else knows.
    fn refresh(&self, exec: &dyn ModuleExec) {
        self.polls.store(exec.polls(), Ordering::SeqCst);
        if exec.wake_driven() {
            self.woken.store(true, Ordering::SeqCst);
        }
    }

    /// Consumes the wake-up on behalf of the selection the caller is
    /// about to make under the core lock: clear first, evaluate the
    /// guards second, so a wake that lands in between is kept for the
    /// next look. Returns whether one was pending.
    fn take_woken(&self) -> bool {
        self.woken.swap(false, Ordering::SeqCst)
    }

    /// Whether a transition is enabled now (ignoring parent
    /// precedence). Skips the core lock for modules outside the
    /// ready-index predicate, and leaves a pending wake-up alone: this
    /// look is somebody else asking, not the module's turn.
    fn enabled(&self, dispatch: Dispatch, now: SimTime, counters: &AtomicCounters) -> bool {
        if !self.can_fire() {
            return false;
        }
        let core = self.core.lock();
        counters.selects.fetch_add(1, Ordering::Relaxed);
        core.exec
            .select(&core.ips, now, core.entered_at, dispatch)
            .is_some()
    }
}

/// [`Ctx::waker`] is the slot itself: no allocation per module, and
/// waking a released module only sets a flag nobody reads.
impl Wake for ModuleSlot {
    fn wake(self: Arc<Self>) {
        self.mark_woken();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.mark_woken();
    }
}

/// The module table and, beside it, the ready index (see
/// [`Runtime`]). One lock guards both so the index grows with the table; the
/// bits themselves flip under the read guard.
#[derive(Default)]
struct Topology {
    slots: Vec<Option<Arc<ModuleSlot>>>,
    /// Bit `id % 64` of word `id / 64` ⇒ module `id` is a member; the
    /// words come in chunks of [`CHUNK_BITS`] ids.
    ready: Vec<Arc<ReadyChunk>>,
}

impl Topology {
    fn slot(&self, id: ModuleId) -> Option<&Arc<ModuleSlot>> {
        self.slots.get(id.index()).and_then(Option::as_ref)
    }

    fn alive(&self) -> impl Iterator<Item = &Arc<ModuleSlot>> {
        self.slots.iter().flatten().filter(|s| s.is_alive())
    }

    /// The ready-index word holding the bit of module index `i`.
    fn word(&self, i: usize) -> &AtomicU64 {
        chunk_word(&self.ready[i / CHUNK_BITS], i)
    }

    /// The first index member in `range` (ascending id), dropping idle
    /// and dead members met on the way.
    fn next_ready(&self, range: Range<ModuleId>) -> Option<&Arc<ModuleSlot>> {
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
            let bit = 1 << (i % 64);
            word.fetch_and(!bit, Ordering::SeqCst);
            if slot.can_fire() {
                // Made ready between the two looks; its own set may
                // have landed before our clear.
                word.fetch_or(bit, Ordering::SeqCst);
                return Some(slot);
            }
            i += 1;
        }
        None
    }
}

/// A transition that ran under the topology guard; its effects are
/// applied by [`Runtime::commit`] once the guard is gone (creating a
/// child takes the write lock).
struct Firing {
    slot: Arc<ModuleSlot>,
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
/// **Waking takes no lock.** A waker is called from inside firings —
/// a medium's `send` runs under the topology read guard and a core
/// lock, neither of which may be taken again — and from threads no
/// scheduler owns (a [`netsim::ThreadMedium`] peer). So the
/// ready-index words live in chunks shared between the table and the
/// slots, a slot knows its own bit, and a wake-up is two atomic
/// stores: flag, then bit. The waker *is* the slot (`Arc<ModuleSlot>`
/// implements [`std::task::Wake`], which asks for `Send + Sync`, so
/// the flags and bits stay atomics): no allocation per module, and
/// waking a released module does nothing. A waker therefore keeps its
/// module alive, and whoever holds it is usually held by that module's
/// body; the runtime's `Drop` ends those cycles by dropping the
/// bodies.
///
/// The bit is set when a slot is inserted, after every enqueue (count
/// first, bit second), by every wake-up (flag first, bit second) and
/// after `initialize` leaves the module able to fire. It is cleared
/// lazily by the scan that finds the member idle or dead: clear, then
/// look at the predicate once more and set the bit back if it turned
/// true meanwhile. All of these are `SeqCst`, and the same argument
/// covers all three terms: a source publishes (queue count, `polls`,
/// or its own state followed by `woken`) and *then* sets the bit; a
/// scan clears the bit and *then* re-reads the predicate; a look
/// clears `woken` and *then* reads the guards. Whichever of the two
/// sides comes second sees the other, so no wake-up from another
/// thread is lost. A firing leaves its module's bit as the scan found
/// it, set: firings happen one at a time, so no other scan runs while
/// an action consumes the last message.
pub struct Runtime {
    clock: Arc<VirtualClock>,
    next_id: AtomicU32,
    /// Never acquired while holding it or a module's core lock: the
    /// scans hold the read guard across many core locks, and a waiting
    /// writer blocks new readers.
    topo: RwLock<Topology>,
    frozen: AtomicBool,
    trace_on: AtomicBool,
    trace: Mutex<Vec<FiringRecord>>,
    fire_seq: AtomicU64,
    counters: AtomicCounters,
    dynamic_systems: AtomicBool,
}

/// The body [`Runtime`]'s `Drop` leaves in every slot: no interaction
/// points, no transitions.
struct TornDown;

impl StateMachine for TornDown {
    fn num_ips(&self) -> usize {
        0
    }
    fn initial_state(&self) -> StateId {
        StateId(0)
    }
    fn transitions() -> Vec<crate::machine::Transition<Self>> {
        Vec::new()
    }
}

/// A waker is its module's slot, and the owners of what guards read
/// keep wakers (a medium its reader's, the stream provider a waiting
/// MCA's) while the module bodies keep those owners: slot → body →
/// medium → waker → slot. The runtime ends every such cycle by
/// dropping the bodies when it goes; without this a dropped runtime's
/// modules, media and network would stay allocated for good.
impl Drop for Runtime {
    fn drop(&mut self) {
        for slot in self.topo.get_mut().slots.iter().flatten() {
            let body = std::mem::replace(&mut slot.core.lock().exec, Box::new(Fsm::new(TornDown)));
            drop(body);
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("modules", &self.topo.read().slots.iter().flatten().count())
            .field("frozen", &self.frozen.load(Ordering::Relaxed))
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
            next_id: AtomicU32::new(0),
            topo: RwLock::new(Topology::default()),
            frozen: AtomicBool::new(false),
            trace_on: AtomicBool::new(false),
            trace: Mutex::new(Vec::new()),
            fire_seq: AtomicU64::new(1),
            counters: AtomicCounters::default(),
            dynamic_systems: AtomicBool::new(false),
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
        self.dynamic_systems.store(true, Ordering::SeqCst);
    }

    /// Whether the ref \[2\] dynamic-system extension is active.
    pub fn dynamic_systems_enabled(&self) -> bool {
        self.dynamic_systems.load(Ordering::SeqCst)
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

    fn slot(&self, id: ModuleId) -> Option<Arc<ModuleSlot>> {
        self.topo.read().slot(id).cloned()
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
        let frozen = self.frozen.load(Ordering::SeqCst);
        if frozen && !self.dynamic_systems.load(Ordering::SeqCst) {
            return Err(EstelleError::SystemPopulationFrozen(kind));
        }
        let parent_kind = match parent {
            None => None,
            Some(p) => Some(self.slot(p).ok_or(EstelleError::UnknownModule(p))?.kind),
        };
        validate_child_kind(parent_kind, kind).map_err(EstelleError::StructuralRule)?;
        let id = ModuleId(self.next_id.fetch_add(1, Ordering::SeqCst));
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
        // A wake-driven initial state gets its first look for free:
        // whatever its guards read may have changed before anybody
        // held the module's waker.
        let woken = exec.wake_driven();
        let mut topo = self.topo.write();
        if topo.slots.len() <= id.index() {
            topo.slots.resize_with(id.index() + 1, || None);
            let chunks = topo.slots.len().div_ceil(CHUNK_BITS);
            topo.ready.resize_with(chunks, Arc::default);
        }
        let slot = Arc::new(ModuleSlot {
            id,
            name,
            kind,
            labels,
            parent,
            children: Mutex::new(Vec::new()),
            core: Mutex::new(ModuleCore {
                exec,
                ips: (0..num_ips).map(|_| IpState::default()).collect(),
                entered_at: self.clock.now(),
                last_seq: None,
                inited: false,
            }),
            alive: AtomicBool::new(true),
            queued: AtomicUsize::new(0),
            polls: AtomicBool::new(polls),
            woken: AtomicBool::new(woken),
            ready: Arc::clone(&topo.ready[id.index() / CHUNK_BITS]),
        });
        slot.mark_ready();
        topo.slots[id.index()] = Some(slot);
        drop(topo);
        if let Some(p) = parent {
            if let Some(ps) = self.slot(p) {
                ps.children.lock().push(id);
            }
        }
    }

    /// Connects two interaction points with a channel.
    ///
    /// # Errors
    ///
    /// Returns an error if a module is unknown, an index is out of
    /// range, or either point is already connected.
    pub fn connect(&self, a: IpRef, b: IpRef) -> Result<()> {
        let sa = self
            .slot(a.module)
            .ok_or(EstelleError::UnknownModule(a.module))?;
        let sb = self
            .slot(b.module)
            .ok_or(EstelleError::UnknownModule(b.module))?;
        if a.module == b.module {
            // Self-channel: both ends in one core; validate and set
            // under one lock.
            let mut core = sa.core.lock();
            let n = core.ips.len();
            if a.ip.0 as usize >= n {
                return Err(EstelleError::IpOutOfRange(a));
            }
            if b.ip.0 as usize >= n {
                return Err(EstelleError::IpOutOfRange(b));
            }
            if core.ips[a.ip.0 as usize].peer.is_some() {
                return Err(EstelleError::AlreadyConnected(a));
            }
            if core.ips[b.ip.0 as usize].peer.is_some() {
                return Err(EstelleError::AlreadyConnected(b));
            }
            core.ips[a.ip.0 as usize].peer = Some(b);
            core.ips[b.ip.0 as usize].peer = Some(a);
            return Ok(());
        }
        // Lock in id order to avoid deadlock with concurrent connects.
        let (first, second) = if a.module < b.module {
            (&sa, &sb)
        } else {
            (&sb, &sa)
        };
        let mut c1 = first.core.lock();
        let mut c2 = second.core.lock();
        let (core_a, core_b) = if a.module < b.module {
            (&mut *c1, &mut *c2)
        } else {
            (&mut *c2, &mut *c1)
        };
        if a.ip.0 as usize >= core_a.ips.len() {
            return Err(EstelleError::IpOutOfRange(a));
        }
        if b.ip.0 as usize >= core_b.ips.len() {
            return Err(EstelleError::IpOutOfRange(b));
        }
        if core_a.ips[a.ip.0 as usize].peer.is_some() {
            return Err(EstelleError::AlreadyConnected(a));
        }
        if core_b.ips[b.ip.0 as usize].peer.is_some() {
            return Err(EstelleError::AlreadyConnected(b));
        }
        core_a.ips[a.ip.0 as usize].peer = Some(b);
        core_b.ips[b.ip.0 as usize].peer = Some(a);
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
        self.frozen.store(true, Ordering::SeqCst);
        let existing: Vec<ModuleId> = {
            let topo = self.topo.read();
            topo.slots.iter().flatten().map(|s| s.id).collect()
        };
        for id in existing {
            self.init_module(id);
        }
        Ok(())
    }

    fn init_module(&self, id: ModuleId) {
        let Some(slot) = self.slot(id) else { return };
        if !slot.is_alive() {
            return;
        }
        let mut effects = Vec::new();
        let seq = self.fire_seq.fetch_add(1, Ordering::SeqCst);
        let waker = Waker::from(Arc::clone(&slot));
        {
            let mut core = slot.core.lock();
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
                &waker,
            );
            core.exec.on_init(&mut ctx);
            slot.refresh(&*core.exec);
        }
        if slot.can_fire() {
            slot.mark_ready();
        }
        self.counters.inits.fetch_add(1, Ordering::Relaxed);
        if self.trace_on.load(Ordering::Relaxed) {
            self.trace.lock().push(FiringRecord {
                seq,
                module: id,
                labels: slot.labels,
                module_type: slot.core.lock().exec.type_name(),
                transition: "initialize",
                cost: DEFAULT_TRANSITION_COST,
                deps: Vec::new(),
            });
        }
        self.apply_effects(id, seq, effects);
    }

    /// Attempts to fire one transition of `id`, honouring parent
    /// precedence.
    pub fn try_fire(&self, id: ModuleId, dispatch: Dispatch) -> FireOutcome {
        let t_scan = Instant::now();
        let attempt = {
            let topo = self.topo.read();
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
            let topo = self.topo.read();
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
        self.topo.read().next_ready(range).map(|s| s.id)
    }

    /// One past the highest module id handed out so far. A pass that
    /// scans `..id_watermark()` leaves modules created during the pass
    /// to the next one.
    pub fn id_watermark(&self) -> ModuleId {
        ModuleId(self.next_id.load(Ordering::SeqCst))
    }

    fn add_scan_ns(&self, since: Instant) {
        self.counters
            .scan_ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Selects and, if a transition is enabled and no ancestor claims
    /// precedence, fires `slot` under the caller's topology guard.
    /// `t_scan` is when the caller's scan began: a firing closes the
    /// scan interval (the time since counts as selection) and opens
    /// the action interval with the same clock read.
    fn attempt(
        &self,
        topo: &Topology,
        slot: &Arc<ModuleSlot>,
        dispatch: Dispatch,
        now: SimTime,
        t_scan: Instant,
    ) -> std::result::Result<Firing, FireOutcome> {
        if !slot.is_alive() {
            return Err(FireOutcome::Dead);
        }
        if !slot.can_fire() {
            return Err(FireOutcome::NotEnabled);
        }
        // Parent precedence: every attributed ancestor must have
        // nothing to do.
        let mut anc = slot.parent;
        while let Some(ps) = anc.and_then(|pid| topo.slot(pid)) {
            if ps.kind.is_attributed() && ps.enabled(dispatch, now, &self.counters) {
                self.counters.blocked.fetch_add(1, Ordering::Relaxed);
                return Err(FireOutcome::Blocked);
            }
            anc = ps.parent;
        }
        let id = slot.id;
        let mut effects = Vec::new();
        let mut core = slot.core.lock();
        // This is the module's own look: a module whose guards turn
        // out false leaves the index until the next wake-up.
        slot.take_woken();
        self.counters.selects.fetch_add(1, Ordering::Relaxed);
        let sel = core
            .exec
            .select(&core.ips, now, core.entered_at, dispatch)
            .ok_or(FireOutcome::NotEnabled)?;
        let t_act = Instant::now();
        self.counters.scan_ns.fetch_add(
            t_act.duration_since(t_scan).as_nanos() as u64,
            Ordering::Relaxed,
        );
        let seq = self.fire_seq.fetch_add(1, Ordering::SeqCst);
        let mut traced = self
            .trace_on
            .load(Ordering::Relaxed)
            .then(|| (core.exec.type_name(), Vec::from_iter(core.last_seq)));
        let input = sel
            .needs_input
            .and_then(|ip| core.ips.get_mut(ip.0 as usize))
            .and_then(|q| q.queue.pop_front());
        let input_msg = input.map(|q| {
            slot.queued.fetch_sub(1, Ordering::SeqCst);
            if let (Some((_, deps)), Some(p)) = (&mut traced, q.provenance) {
                deps.push(p);
            }
            q.msg
        });
        let waker = Waker::from(Arc::clone(slot));
        let mut ctx = Ctx::new(now, id, slot.kind, &mut effects, &self.next_id, &waker);
        let info = core.exec.fire(sel, input_msg, &mut ctx);
        self.counters
            .action_ns
            .fetch_add(t_act.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if info.to_state != info.from_state {
            core.entered_at = now;
        }
        core.last_seq = Some(seq);
        slot.refresh(&*core.exec);
        drop(core);
        Ok(Firing {
            slot: Arc::clone(slot),
            seq,
            info,
            scanned: sel.scanned,
            effects,
            traced,
        })
    }

    /// Applies the effects of a firing and records it. Runs without
    /// the topology guard.
    fn commit(&self, firing: Firing) -> FiredMeta {
        let Firing {
            slot,
            seq,
            info,
            scanned,
            effects,
            traced,
        } = firing;
        self.apply_effects(slot.id, seq, effects);
        if let Some((module_type, deps)) = traced {
            self.trace.lock().push(FiringRecord {
                seq,
                module: slot.id,
                labels: slot.labels,
                module_type,
                transition: info.transition,
                cost: info.cost,
                deps,
            });
        }
        self.counters.firings.fetch_add(1, Ordering::Relaxed);
        FiredMeta {
            module: slot.id,
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
        let slot = self.slot(id).filter(|s| s.is_alive())?;
        let core = slot.core.lock();
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
        let topo = self.topo.read();
        let end = ModuleId(topo.slots.len() as u32);
        let mut cursor = ModuleId(0);
        let mut enabled = false;
        let mut deadline: Option<SimTime> = None;
        while let Some(slot) = topo.next_ready(cursor..end) {
            cursor = slot.id.next();
            let core = slot.core.lock();
            if let Some(dispatch) = dispatch {
                let woken = slot.take_woken();
                self.counters.selects.fetch_add(1, Ordering::Relaxed);
                let sel = core.exec.select(&core.ips, now, core.entered_at, dispatch);
                if sel.is_some() {
                    // Found, not fired: the wake-up is still owed to
                    // the scheduler that will fire it.
                    if woken {
                        slot.mark_woken();
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
        let topo = self.topo.read();
        let Some(slot) = topo.slot(owner) else { return };
        let peer = match slot.core.lock().ips.get(from_ip.0 as usize) {
            Some(ip) => ip.peer,
            None => panic!("module {owner} output on out-of-range interaction point {from_ip}"),
        };
        let Some(peer) = peer else {
            self.counters.lost_outputs.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let msg = QueuedMsg { msg, provenance };
        let queued = topo
            .slot(peer.module)
            .filter(|dest| dest.is_alive())
            .is_some_and(|dest| dest.enqueue(peer.ip, msg));
        if !queued {
            self.counters.msgs_to_dead.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn release_subtree(&self, actor: ModuleId, child: ModuleId) {
        let Some(cs) = self.slot(child) else { return };
        if cs.parent != Some(actor) {
            panic!("module {actor} attempted to release non-child {child}");
        }
        let mut stack = vec![child];
        while let Some(id) = stack.pop() {
            let Some(s) = self.slot(id) else { continue };
            s.alive.store(false, Ordering::SeqCst);
            // Disconnect peers so their future outputs count as lost
            // rather than queueing at a corpse.
            let peers: Vec<IpRef> = {
                let core = s.core.lock();
                core.ips.iter().filter_map(|ip| ip.peer).collect()
            };
            for p in peers {
                if let Some(ps) = self.slot(p.module) {
                    let mut core = ps.core.lock();
                    if let Some(ip) = core.ips.get_mut(p.ip.0 as usize) {
                        ip.peer = None;
                    }
                }
            }
            stack.extend(s.children.lock().iter().copied());
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
        let topo = self.topo.read();
        let slot = topo
            .slot(target.module)
            .filter(|s| s.is_alive())
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
        self.topo.read().alive().map(|s| s.id).collect()
    }

    /// Metadata of `id`, if it ever existed.
    pub fn module_meta(&self, id: ModuleId) -> Option<ModuleMeta> {
        self.slot(id).map(|s| ModuleMeta {
            id: s.id,
            name: s.name.clone(),
            kind: s.kind,
            labels: s.labels,
            parent: s.parent,
            alive: s.is_alive(),
        })
    }

    /// Children of `id` in creation order.
    pub fn children_of(&self, id: ModuleId) -> Vec<ModuleId> {
        self.slot(id)
            .map(|s| s.children.lock().clone())
            .unwrap_or_default()
    }

    /// Current FSM state of `id`.
    pub fn module_state(&self, id: ModuleId) -> Option<StateId> {
        self.slot(id).map(|s| s.core.lock().exec.state())
    }

    /// Static transition descriptions of `id` (priority order).
    pub(crate) fn transition_info(&self, id: ModuleId) -> Vec<crate::machine::TransitionInfo> {
        self.slot(id)
            .map(|s| s.core.lock().exec.transition_info())
            .unwrap_or_default()
    }

    /// Module type name of `id`.
    pub fn module_type(&self, id: ModuleId) -> Option<&'static str> {
        self.slot(id).map(|s| s.core.lock().exec.type_name())
    }

    /// The peers of each interaction point of `id` (index = IP).
    pub(crate) fn ip_peers(&self, id: ModuleId) -> Vec<Option<IpRef>> {
        self.slot(id)
            .map(|s| s.core.lock().ips.iter().map(|ip| ip.peer()).collect())
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
        let slot = self.slot(id)?;
        let core = slot.core.lock();
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
        let slot = self.slot(id)?;
        let mut core = slot.core.lock();
        let fsm = core.exec.as_any_mut().downcast_mut::<Fsm<M>>()?;
        let result = f(fsm.machine_mut());
        if core.exec.wake_driven() {
            slot.mark_woken();
        }
        Some(result)
    }

    /// Total messages queued across all interaction points.
    pub fn pending_messages(&self) -> usize {
        self.topo
            .read()
            .alive()
            .map(|s| s.queued.load(Ordering::SeqCst))
            .sum()
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
        let topo = self.topo.read();
        let now = self.clock.now();
        let mut found = Vec::new();
        for slot in topo.alive().filter(|s| s.kind != ModuleKind::Inactive) {
            let core = slot.core.lock();
            let id = slot.id;
            let queued: usize = core.ips.iter().map(IpState::len).sum();
            if slot.queued.load(Ordering::SeqCst) != queued {
                found.push(format!("{id}: queue count drifted from {queued}"));
            }
            if slot.polls.load(Ordering::SeqCst) != core.exec.polls() {
                found.push(format!("{id}: stale polls bit in {}", core.exec.state()));
            }
            let bit = 1u64 << (id.index() % 64);
            if queued > 0 || core.exec.polls() || slot.woken.load(Ordering::SeqCst) {
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
        self.trace_on.store(true, Ordering::SeqCst);
    }

    /// Stops recording and returns the trace collected so far.
    pub fn take_trace(&self) -> ExecTrace {
        self.trace_on.store(false, Ordering::SeqCst);
        let records = std::mem::take(&mut *self.trace.lock());
        let modules = self
            .topo
            .read()
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
        self.counters.snapshot()
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
