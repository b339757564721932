//! State machines, transitions, and dispatch strategies.
//!
//! An Estelle module body is a finite state machine whose transitions
//! carry `when` (input), `provided` (guard), `priority`, and `delay`
//! clauses (ISO 9074). The paper (§5.2) studies two ways of *mapping*
//! transitions into implementation code:
//!
//! - **hard-coded**: every transition is a code block in one selection
//!   function, scanned in priority order ([`Dispatch::HardCoded`]);
//! - **table-driven**: transitions are indexed by current state so only
//!   transitions possible in that state are inspected
//!   ([`Dispatch::TableDriven`]).
//!
//! Both are implemented here so the experiment can be reproduced.

use crate::ctx::Ctx;
use crate::ids::{IpIndex, IpRef, StateId};
use crate::interaction::Interaction;
use netsim::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::fmt;

/// Default virtual cost charged per transition firing in the
/// multiprocessor simulator when a transition does not override it.
pub const DEFAULT_TRANSITION_COST: SimDuration = SimDuration::from_micros(50);

/// A `provided` guard: a predicate over the machine and, when the
/// transition has a `when` clause, the head input message.
pub type Guard<M> = fn(&M, Option<&dyn Interaction>) -> bool;

/// Source-state clause of a transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FromState {
    /// The transition may fire in any state.
    Any,
    /// The transition may fire only in the given state.
    In(StateId),
}

/// One Estelle transition of a machine of type `M`.
///
/// Constructed with [`Transition::spontaneous`] or [`Transition::on`]
/// and refined with the chainable builder methods.
pub struct Transition<M> {
    /// Name used in traces and reports.
    pub name: &'static str,
    /// `from` clause.
    pub from: FromState,
    /// `to` clause; `None` means the machine stays in its state unless
    /// the action calls [`Ctx::goto`].
    pub to: Option<StateId>,
    /// `priority` clause; lower values fire first.
    pub priority: u8,
    /// `when` clause: the interaction point whose head message enables
    /// and feeds this transition.
    pub when: Option<IpIndex>,
    /// `provided` clause: a guard over the machine and (if `when` is
    /// set) the head input message.
    pub provided: Option<Guard<M>>,
    /// `delay` clause: the transition only becomes enabled once the
    /// machine has been in the source state at least this long.
    pub delay: Option<SimDuration>,
    /// Virtual execution cost for the multiprocessor simulator.
    pub cost: SimDuration,
    /// Set by [`Transition::woken`]: the guard of this spontaneous
    /// transition only changes when the runtime is told.
    pub woken: bool,
    /// The transition body.
    pub action: fn(&mut M, &mut Ctx<'_>, Option<Box<dyn Interaction>>),
}

impl<M> fmt::Debug for Transition<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transition")
            .field("name", &self.name)
            .field("from", &self.from)
            .field("to", &self.to)
            .field("priority", &self.priority)
            .field("when", &self.when)
            .field("delay", &self.delay)
            .field("cost", &self.cost)
            .field("woken", &self.woken)
            .finish_non_exhaustive()
    }
}

impl<M> Clone for Transition<M> {
    fn clone(&self) -> Self {
        Transition {
            name: self.name,
            from: self.from,
            to: self.to,
            priority: self.priority,
            when: self.when,
            provided: self.provided,
            delay: self.delay,
            cost: self.cost,
            woken: self.woken,
            action: self.action,
        }
    }
}

impl<M> Transition<M> {
    /// A spontaneous transition (no `when` clause) from `from`.
    pub fn spontaneous(
        name: &'static str,
        from: StateId,
        action: fn(&mut M, &mut Ctx<'_>, Option<Box<dyn Interaction>>),
    ) -> Self {
        Transition {
            name,
            from: FromState::In(from),
            to: None,
            priority: u8::MAX / 2,
            when: None,
            provided: None,
            delay: None,
            cost: DEFAULT_TRANSITION_COST,
            woken: false,
            action,
        }
    }

    /// An input transition: fires when a message is at the head of
    /// interaction point `ip` while in state `from`.
    pub fn on(
        name: &'static str,
        from: StateId,
        ip: IpIndex,
        action: fn(&mut M, &mut Ctx<'_>, Option<Box<dyn Interaction>>),
    ) -> Self {
        let mut t = Self::spontaneous(name, from, action);
        t.when = Some(ip);
        t
    }

    /// Makes the transition fire from any state.
    pub fn any_state(mut self) -> Self {
        self.from = FromState::Any;
        self
    }

    /// Sets the `to` clause.
    pub fn to(mut self, state: StateId) -> Self {
        self.to = Some(state);
        self
    }

    /// Sets the `priority` clause (lower fires first).
    pub fn priority(mut self, p: u8) -> Self {
        self.priority = p;
        self
    }

    /// Sets the `provided` guard.
    pub fn provided(mut self, guard: Guard<M>) -> Self {
        self.provided = Some(guard);
        self
    }

    /// Sets the `delay` clause.
    pub fn delay(mut self, d: SimDuration) -> Self {
        self.delay = Some(d);
        self
    }

    /// Sets the virtual cost charged in the multiprocessor simulator.
    pub fn cost(mut self, c: SimDuration) -> Self {
        self.cost = c;
        self
    }

    /// Declares that the `provided` guard of this spontaneous
    /// transition only changes when somebody tells the runtime: the
    /// owner of whatever the guard reads holds the module's waker
    /// ([`Ctx::waker`]) and calls it *after* publishing the change, or
    /// the change is made through [`crate::Runtime::with_machine_mut`],
    /// or by one of the module's own actions. The runtime then
    /// evaluates the guard once after each such announcement (and once
    /// on entering the state) instead of on every scheduler pass.
    ///
    /// Without this clause a spontaneous transition is polled, which
    /// is what Estelle means by it. A row that also has a `delay`
    /// stays polled — its deadline has to be visible to the idle
    /// driver — and the clause is rejected on a row with a `when`
    /// (see [`Fsm::new`]).
    pub fn woken(mut self) -> Self {
        self.woken = true;
        self
    }

    fn matches_state(&self, s: StateId) -> bool {
        match self.from {
            FromState::Any => true,
            FromState::In(f) => f == s,
        }
    }

    /// No `when` clause, and nobody announces when the guard changes
    /// (or a `delay` has to be watched): selected on every pass.
    fn polled(&self) -> bool {
        self.when.is_none() && !self.wake_driven()
    }

    /// A `.woken()` row that is not polled: selected when told.
    fn wake_driven(&self) -> bool {
        self.woken && self.delay.is_none()
    }
}

/// A user-defined Estelle module body.
///
/// Implementors provide states (as [`StateId`] constants), the
/// transition list, and optionally initialization behaviour; the
/// framework wraps them in an [`Fsm`] for execution.
pub trait StateMachine: Sized + 'static {
    /// Number of interaction points this module exposes.
    fn num_ips(&self) -> usize;

    /// The initial state.
    fn initial_state(&self) -> StateId;

    /// The transition list (order = declaration order; ties in priority
    /// are broken by declaration order, as in the paper's generator).
    fn transitions() -> Vec<Transition<Self>>;

    /// Module type name for traces; defaults to the Rust type name.
    fn type_name(&self) -> &'static str {
        let full = std::any::type_name::<Self>();
        full.rsplit("::").next().unwrap_or(full)
    }

    /// Called once when the module instance is created, before any
    /// transition fires; the Estelle `initialize` block.
    fn on_init(&mut self, _ctx: &mut Ctx<'_>) {}
}

/// A message queued at an interaction point.
#[derive(Debug)]
pub(crate) struct QueuedMsg {
    pub msg: Box<dyn Interaction>,
    /// Firing sequence number that produced this message, for trace
    /// dependencies; `None` for messages injected from outside.
    pub provenance: Option<u64>,
}

/// Runtime state of one interaction point: its peer (if connected) and
/// its individual FIFO input queue (Estelle gives each IP its own
/// queue).
#[derive(Debug, Default)]
pub struct IpState {
    pub(crate) peer: Option<IpRef>,
    pub(crate) queue: VecDeque<QueuedMsg>,
}

impl IpState {
    /// Peeks at the head message.
    pub(crate) fn head(&self) -> Option<&dyn Interaction> {
        self.queue.front().map(|q| &*q.msg)
    }

    /// Number of queued messages.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    /// The connected peer interaction point, if any.
    pub(crate) fn peer(&self) -> Option<IpRef> {
        self.peer
    }
}

/// Transition-selection strategy (paper §5.2, "mapping of transitions").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dispatch {
    /// Scan every transition in priority order, checking the `from`
    /// clause each time — the "hard-coded selection function".
    HardCoded,
    /// Index transitions by current state and scan only those — the
    /// "table-controlled approach", reported significantly better once
    /// a module has more than about four transitions.
    #[default]
    TableDriven,
}

/// A transition chosen by [`ModuleExec::select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selected {
    /// Index into the compiled priority-ordered transition list.
    pub index: u16,
    /// Interaction point whose head message must be consumed, if the
    /// transition has a `when` clause.
    pub needs_input: Option<IpIndex>,
    /// Number of transitions inspected to find this one (dispatch work;
    /// feeds the E3 experiment).
    pub scanned: u32,
}

/// Outcome of a fired transition.
#[derive(Debug, Clone)]
pub struct FiredInfo {
    /// Transition name.
    pub transition: &'static str,
    /// State before the firing.
    pub from_state: StateId,
    /// State after the firing.
    pub to_state: StateId,
    /// Virtual cost of the firing.
    pub cost: SimDuration,
}

/// Static description of one transition, for specification export and
/// diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionInfo {
    /// Transition name.
    pub name: &'static str,
    /// `from` clause.
    pub from: FromState,
    /// `to` clause (None = same state).
    pub to: Option<StateId>,
    /// Priority.
    pub priority: u8,
    /// `when` interaction point.
    pub when: Option<IpIndex>,
    /// `delay` clause.
    pub delay: Option<SimDuration>,
    /// Whether a `provided` guard exists.
    pub guarded: bool,
}

/// Object-safe executable view of a module body, implemented by
/// [`Fsm`]. The runtime stores modules as `Box<dyn ModuleExec>`.
pub trait ModuleExec {
    /// Module type name.
    fn type_name(&self) -> &'static str;
    /// Current state.
    fn state(&self) -> StateId;
    /// Number of interaction points.
    fn num_ips(&self) -> usize;
    /// Runs the `initialize` block.
    fn on_init(&mut self, ctx: &mut Ctx<'_>);
    /// Selects the highest-priority enabled transition, if any.
    fn select(
        &self,
        ips: &[IpState],
        now: SimTime,
        entered: SimTime,
        dispatch: Dispatch,
    ) -> Option<Selected>;
    /// Executes a previously selected transition.
    fn fire(
        &mut self,
        sel: Selected,
        input: Option<Box<dyn Interaction>>,
        ctx: &mut Ctx<'_>,
    ) -> FiredInfo;
    /// Earliest instant a `delay` transition could become enabled,
    /// given current queues; `None` if no delay transition is pending.
    fn next_deadline(&self, ips: &[IpState], entered: SimTime) -> Option<SimTime>;
    /// Whether the current state owns a transition without a `when`
    /// clause (spontaneous or `delay`-only) that nobody announces
    /// (no [`Transition::woken`] clause, or one beside a `delay`).
    /// Such a state must be polled: its transitions can become enabled
    /// with every queue empty and nothing said. In any other state
    /// `next_deadline` yields `None` whenever every queue is empty,
    /// and so does `select` unless the state is
    /// [`ModuleExec::wake_driven`].
    fn polls(&self) -> bool;
    /// Whether the current state owns a [`Transition::woken`] row
    /// without a `delay`: with every queue empty, `select` can only
    /// yield such a row, and only after a wake-up (or on entering the
    /// state), so the runtime's ready index may skip the module in
    /// between.
    fn wake_driven(&self) -> bool;
    /// Static transition descriptions (priority order), for
    /// specification export.
    fn transition_info(&self) -> Vec<TransitionInfo>;
    /// Upcast for machine introspection (see
    /// [`crate::Runtime::with_machine`]).
    fn as_any(&self) -> &dyn std::any::Any;
    /// Mutable upcast.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// The executable wrapper pairing a [`StateMachine`] with its compiled
/// transition table.
pub struct Fsm<M: StateMachine> {
    machine: M,
    state: StateId,
    /// Priority-ordered transitions (stable sort by priority).
    order: Vec<Transition<M>>,
    /// Per-state indices into `order` (includes `Any`-state
    /// transitions), used by table-driven dispatch.
    by_state: Vec<Vec<u16>>,
    /// Per-state: the row holds a polled transition (see
    /// [`ModuleExec::polls`]).
    polls: Vec<bool>,
    /// Per-state: the row holds a wake-driven transition (see
    /// [`ModuleExec::wake_driven`]).
    wakes: Vec<bool>,
}

impl<M: StateMachine + fmt::Debug> fmt::Debug for Fsm<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fsm")
            .field("machine", &self.machine)
            .field("state", &self.state)
            .field("transitions", &self.order.len())
            .finish()
    }
}

impl<M: StateMachine> Fsm<M> {
    /// Compiles the machine's transition list and wraps it for
    /// execution.
    ///
    /// # Panics
    ///
    /// Panics if a transition carries both a `when` clause and
    /// [`Transition::woken`]: an input transition is announced by its
    /// message, and a specification that says otherwise is a bug.
    pub fn new(machine: M) -> Self {
        let mut order = M::transitions();
        for t in &order {
            assert!(
                !(t.woken && t.when.is_some()),
                "transition {:?} of {} has a `when` clause: only spontaneous transitions can be woken",
                t.name,
                machine.type_name()
            );
        }
        // Stable: ties keep declaration order.
        order.sort_by_key(|t| t.priority);
        let mut max_state = machine.initial_state().0 as usize;
        for t in &order {
            if let FromState::In(s) = t.from {
                max_state = max_state.max(s.0 as usize);
            }
            if let Some(s) = t.to {
                max_state = max_state.max(s.0 as usize);
            }
        }
        let mut by_state = vec![Vec::new(); max_state + 1];
        for (i, t) in order.iter().enumerate() {
            match t.from {
                FromState::Any => {
                    for v in &mut by_state {
                        v.push(i as u16);
                    }
                }
                FromState::In(s) => by_state[s.0 as usize].push(i as u16),
            }
        }
        let per_state = |pred: fn(&Transition<M>) -> bool| {
            by_state
                .iter()
                .map(|row| row.iter().any(|&i| pred(&order[i as usize])))
                .collect()
        };
        let polls = per_state(Transition::polled);
        let wakes = per_state(Transition::wake_driven);
        let state = machine.initial_state();
        Fsm {
            machine,
            state,
            order,
            by_state,
            polls,
            wakes,
        }
    }

    /// The current state's entry in a per-state table compiled from
    /// `pred`. A state past the table (reached by `Ctx::goto` only)
    /// has no row; hard-coded dispatch still matches `Any` transitions
    /// there.
    fn state_has(&self, table: &[bool], pred: fn(&Transition<M>) -> bool) -> bool {
        table
            .get(self.state.0 as usize)
            .copied()
            .unwrap_or_else(|| {
                self.order
                    .iter()
                    .any(|t| t.matches_state(self.state) && pred(t))
            })
    }

    /// Immutable access to the wrapped machine (for assertions and the
    /// external-body pattern).
    pub(crate) fn machine(&self) -> &M {
        &self.machine
    }

    /// Mutable access to the wrapped machine.
    pub(crate) fn machine_mut(&mut self) -> &mut M {
        &mut self.machine
    }

    /// Selects and fires one transition against a detached context
    /// whose effects are discarded. For dispatch micro-benchmarks
    /// (experiment E3) only — never use in real specifications.
    #[doc(hidden)]
    pub fn bench_step(
        &mut self,
        ips: &[IpState],
        now: SimTime,
        entered: SimTime,
        dispatch: Dispatch,
    ) -> bool {
        let Some(sel) = self.select(ips, now, entered, dispatch) else {
            return false;
        };
        let mut effects = Vec::new();
        let ids = std::cell::Cell::new(u32::MAX / 2);
        let mut ctx = Ctx::new(
            now,
            crate::ids::ModuleId::from_raw(0),
            crate::ids::ModuleKind::SystemProcess,
            &mut effects,
            &ids,
            std::task::Waker::noop(),
        );
        self.fire(sel, None, &mut ctx);
        true
    }

    fn enabled(&self, t: &Transition<M>, ips: &[IpState], now: SimTime, entered: SimTime) -> bool {
        if let Some(d) = t.delay {
            if now.saturating_since(entered) < d {
                return false;
            }
        }
        let head = match t.when {
            Some(ip) => match ips.get(ip.0 as usize).and_then(|q| q.head()) {
                Some(m) => Some(m),
                None => return false,
            },
            None => None,
        };
        match t.provided {
            Some(g) => g(&self.machine, head),
            None => true,
        }
    }
}

impl<M: StateMachine> ModuleExec for Fsm<M> {
    fn type_name(&self) -> &'static str {
        self.machine.type_name()
    }

    fn state(&self) -> StateId {
        self.state
    }

    fn num_ips(&self) -> usize {
        self.machine.num_ips()
    }

    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        self.machine.on_init(ctx);
        if let Some(s) = ctx.take_next_state() {
            self.state = s;
        }
    }

    fn select(
        &self,
        ips: &[IpState],
        now: SimTime,
        entered: SimTime,
        dispatch: Dispatch,
    ) -> Option<Selected> {
        match dispatch {
            Dispatch::HardCoded => {
                for (pos, t) in self.order.iter().enumerate() {
                    if !t.matches_state(self.state) {
                        continue;
                    }
                    if self.enabled(t, ips, now, entered) {
                        return Some(Selected {
                            index: pos as u16,
                            needs_input: t.when,
                            scanned: pos as u32 + 1,
                        });
                    }
                }
                None
            }
            Dispatch::TableDriven => {
                let row = self.by_state.get(self.state.0 as usize)?;
                for (pos, &i) in row.iter().enumerate() {
                    let t = &self.order[i as usize];
                    if self.enabled(t, ips, now, entered) {
                        return Some(Selected {
                            index: i,
                            needs_input: t.when,
                            scanned: pos as u32 + 1,
                        });
                    }
                }
                None
            }
        }
    }

    fn fire(
        &mut self,
        sel: Selected,
        input: Option<Box<dyn Interaction>>,
        ctx: &mut Ctx<'_>,
    ) -> FiredInfo {
        let t = &self.order[sel.index as usize];
        let name = t.name;
        let to = t.to;
        let cost = t.cost;
        let action = t.action;
        let from_state = self.state;
        action(&mut self.machine, ctx, input);
        let to_state = ctx.take_next_state().or(to).unwrap_or(from_state);
        self.state = to_state;
        FiredInfo {
            transition: name,
            from_state,
            to_state,
            cost,
        }
    }

    fn transition_info(&self) -> Vec<TransitionInfo> {
        self.order
            .iter()
            .map(|t| TransitionInfo {
                name: t.name,
                from: t.from,
                to: t.to,
                priority: t.priority,
                when: t.when,
                delay: t.delay,
                guarded: t.provided.is_some(),
            })
            .collect()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn polls(&self) -> bool {
        self.state_has(&self.polls, Transition::polled)
    }

    fn wake_driven(&self) -> bool {
        self.state_has(&self.wakes, Transition::wake_driven)
    }

    fn next_deadline(&self, ips: &[IpState], entered: SimTime) -> Option<SimTime> {
        let mut best: Option<SimTime> = None;
        for t in &self.order {
            let Some(d) = t.delay else { continue };
            if !t.matches_state(self.state) {
                continue;
            }
            // Evaluate the non-temporal clauses as of "now"; if they
            // hold, the transition fires once the delay elapses.
            let head = match t.when {
                Some(ip) => match ips.get(ip.0 as usize).and_then(|q| q.head()) {
                    Some(m) => Some(m),
                    None => continue,
                },
                None => None,
            };
            if let Some(g) = t.provided {
                if !g(&self.machine, head) {
                    continue;
                }
            }
            let at = entered + d;
            best = Some(match best {
                Some(b) => b.min(at),
                None => at,
            });
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Ctx;
    use crate::impl_interaction;

    const S0: StateId = StateId(0);
    const S1: StateId = StateId(1);

    #[derive(Debug)]
    struct Tick(#[allow(dead_code)] u32);
    impl_interaction!(Tick);

    #[derive(Debug, Default)]
    struct Toggler {
        fires: u32,
        gate_open: bool,
    }

    impl StateMachine for Toggler {
        fn num_ips(&self) -> usize {
            1
        }
        fn initial_state(&self) -> StateId {
            S0
        }
        fn transitions() -> Vec<Transition<Self>> {
            vec![
                Transition::on("consume", S0, IpIndex(0), |m: &mut Self, _ctx, msg| {
                    assert!(msg.unwrap().is::<Tick>());
                    m.fires += 1;
                })
                .to(S1),
                Transition::spontaneous("back", S1, |m: &mut Self, _ctx, _| {
                    m.fires += 1;
                })
                .to(S0),
                Transition::spontaneous("guarded", S0, |m: &mut Self, _ctx, _| {
                    m.fires += 100;
                })
                .provided(|m, _| m.gate_open)
                .priority(0),
            ]
        }
    }

    fn test_ctx(effects_sink: &mut Vec<crate::ctx::Effect>) -> Ctx<'_> {
        Ctx::for_test(effects_sink)
    }

    #[test]
    fn when_clause_requires_message() {
        let fsm = Fsm::new(Toggler::default());
        let ips = vec![IpState::default()];
        assert!(fsm
            .select(&ips, SimTime::ZERO, SimTime::ZERO, Dispatch::TableDriven)
            .is_none());
        let mut ips = ips;
        ips[0].queue.push_back(QueuedMsg {
            msg: Box::new(Tick(1)),
            provenance: None,
        });
        let sel = fsm
            .select(&ips, SimTime::ZERO, SimTime::ZERO, Dispatch::TableDriven)
            .expect("enabled by message");
        assert_eq!(sel.needs_input, Some(IpIndex(0)));
    }

    #[test]
    fn priority_and_guard_interact() {
        let mut fsm = Fsm::new(Toggler::default());
        let mut ips = vec![IpState::default()];
        ips[0].queue.push_back(QueuedMsg {
            msg: Box::new(Tick(1)),
            provenance: None,
        });
        // Gate closed: the high-priority guarded transition is not
        // enabled, so "consume" fires.
        let sel = fsm
            .select(&ips, SimTime::ZERO, SimTime::ZERO, Dispatch::HardCoded)
            .unwrap();
        let mut sink = Vec::new();
        let mut ctx = test_ctx(&mut sink);
        let msg = ips[0].queue.pop_front().map(|q| q.msg);
        let info = fsm.fire(sel, msg, &mut ctx);
        assert_eq!(info.transition, "consume");
        assert_eq!(info.to_state, S1);
        // Open the gate, return to S0: guarded wins by priority.
        fsm.machine_mut().gate_open = true;
        fsm.state = S0;
        ips[0].queue.push_back(QueuedMsg {
            msg: Box::new(Tick(2)),
            provenance: None,
        });
        let sel = fsm
            .select(&ips, SimTime::ZERO, SimTime::ZERO, Dispatch::HardCoded)
            .unwrap();
        let t = &fsm.order[sel.index as usize];
        assert_eq!(t.name, "guarded");
    }

    #[test]
    fn both_dispatch_strategies_agree() {
        let fsm = Fsm::new(Toggler::default());
        let mut ips = vec![IpState::default()];
        ips[0].queue.push_back(QueuedMsg {
            msg: Box::new(Tick(1)),
            provenance: None,
        });
        let a = fsm.select(&ips, SimTime::ZERO, SimTime::ZERO, Dispatch::HardCoded);
        let b = fsm.select(&ips, SimTime::ZERO, SimTime::ZERO, Dispatch::TableDriven);
        assert_eq!(a.map(|s| s.index), b.map(|s| s.index));
    }

    #[test]
    fn table_driven_scans_fewer() {
        #[derive(Debug, Default)]
        struct Wide;
        impl StateMachine for Wide {
            fn num_ips(&self) -> usize {
                0
            }
            fn initial_state(&self) -> StateId {
                StateId(7)
            }
            fn transitions() -> Vec<Transition<Self>> {
                // 8 states, one spontaneous transition each; current
                // state is 7, so hard-coded scans all 8, table-driven 1.
                (0..8u16)
                    .map(|s| {
                        Transition::spontaneous("t", StateId(s), |_m, _c, _i| {})
                            .to(StateId((s + 1) % 8))
                    })
                    .collect()
            }
        }
        let fsm = Fsm::new(Wide);
        let hc = fsm
            .select(&[], SimTime::ZERO, SimTime::ZERO, Dispatch::HardCoded)
            .unwrap();
        let td = fsm
            .select(&[], SimTime::ZERO, SimTime::ZERO, Dispatch::TableDriven)
            .unwrap();
        assert_eq!(hc.index, td.index);
        assert_eq!(hc.scanned, 8);
        assert_eq!(td.scanned, 1);
    }

    #[test]
    fn delay_clause_gates_enabling_and_reports_deadline() {
        #[derive(Debug, Default)]
        struct Timer;
        impl StateMachine for Timer {
            fn num_ips(&self) -> usize {
                0
            }
            fn initial_state(&self) -> StateId {
                S0
            }
            fn transitions() -> Vec<Transition<Self>> {
                vec![Transition::spontaneous("fire", S0, |_m, _c, _i| {})
                    .delay(SimDuration::from_millis(10))
                    .to(S1)]
            }
        }
        let fsm = Fsm::new(Timer);
        let entered = SimTime::from_millis(100);
        assert!(fsm
            .select(
                &[],
                SimTime::from_millis(105),
                entered,
                Dispatch::TableDriven
            )
            .is_none());
        assert!(fsm
            .select(
                &[],
                SimTime::from_millis(110),
                entered,
                Dispatch::TableDriven
            )
            .is_some());
        assert_eq!(
            fsm.next_deadline(&[], entered),
            Some(SimTime::from_millis(110))
        );
        assert!(fsm.polls(), "a delay-only row must be polled");
    }

    /// One guarded spontaneous row per state: S0 announced, S1
    /// announced but delayed, `StateId(2)` plain.
    #[derive(Debug, Default)]
    struct Announced {
        open: bool,
    }
    impl StateMachine for Announced {
        fn num_ips(&self) -> usize {
            0
        }
        fn initial_state(&self) -> StateId {
            S0
        }
        fn transitions() -> Vec<Transition<Self>> {
            let row = |name, from| {
                Transition::spontaneous(name, from, |_m: &mut Self, _c, _i| {})
                    .provided(|m, _| m.open)
            };
            vec![
                row("told", S0).woken().to(S1),
                row("told-late", S1)
                    .woken()
                    .delay(SimDuration::from_millis(1)),
                row("asked", StateId(2)),
            ]
        }
    }

    #[test]
    fn woken_rows_are_not_polled_unless_delayed() {
        let mut fsm = Fsm::new(Announced::default());
        assert!(!fsm.polls() && fsm.wake_driven());
        // The guard still decides: the clause only says when to look.
        assert!(fsm
            .select(&[], SimTime::ZERO, SimTime::ZERO, Dispatch::TableDriven)
            .is_none());
        fsm.machine_mut().open = true;
        assert!(fsm
            .select(&[], SimTime::ZERO, SimTime::ZERO, Dispatch::HardCoded)
            .is_some());
        // Beside a `delay` the row is polled: its deadline must be seen.
        fsm.state = S1;
        assert!(fsm.polls() && !fsm.wake_driven());
        assert!(fsm.next_deadline(&[], SimTime::ZERO).is_some());
        fsm.state = StateId(2);
        assert!(fsm.polls() && !fsm.wake_driven());
        // Past the table only `Any` rows match, and there are none.
        fsm.state = StateId(9);
        assert!(!fsm.polls() && !fsm.wake_driven());
    }

    #[test]
    #[should_panic(expected = "only spontaneous transitions can be woken")]
    fn woken_is_rejected_on_an_input_transition() {
        #[derive(Debug)]
        struct Confused;
        impl StateMachine for Confused {
            fn num_ips(&self) -> usize {
                1
            }
            fn initial_state(&self) -> StateId {
                S0
            }
            fn transitions() -> Vec<Transition<Self>> {
                vec![Transition::on("both", S0, IpIndex(0), |_m: &mut Self, _c, _i| {}).woken()]
            }
        }
        let _ = Fsm::new(Confused);
    }

    #[test]
    fn any_state_transitions_fire_everywhere() {
        #[derive(Debug, Default)]
        struct Abortable {
            aborted: bool,
        }
        impl StateMachine for Abortable {
            fn num_ips(&self) -> usize {
                1
            }
            fn initial_state(&self) -> StateId {
                S1
            }
            fn transitions() -> Vec<Transition<Self>> {
                vec![
                    Transition::on("abort", S0, IpIndex(0), |m: &mut Self, _c, _i| {
                        m.aborted = true;
                    })
                    .any_state()
                    .to(S0),
                ]
            }
        }
        let mut fsm = Fsm::new(Abortable::default());
        assert!(!fsm.polls(), "only `when` transitions: idle while empty");
        let mut ips = vec![IpState::default()];
        ips[0].queue.push_back(QueuedMsg {
            msg: Box::new(Tick(0)),
            provenance: None,
        });
        let sel = fsm
            .select(&ips, SimTime::ZERO, SimTime::ZERO, Dispatch::TableDriven)
            .expect("any-state transition enabled in S1");
        let mut sink = Vec::new();
        let mut ctx = test_ctx(&mut sink);
        let msg = ips[0].queue.pop_front().map(|q| q.msg);
        let info = fsm.fire(sel, msg, &mut ctx);
        assert_eq!(info.from_state, S1);
        assert_eq!(info.to_state, S0);
        assert!(fsm.machine().aborted);
    }
}
