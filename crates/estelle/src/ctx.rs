//! Execution context handed to transition actions and `initialize`
//! blocks.
//!
//! Actions do not mutate the runtime directly; they record *effects*
//! (outputs, child creation, channel connection, release) which the
//! runtime applies after the action returns, in the order recorded.
//! This keeps actions free of aliasing with the module tree: an action
//! runs while the runtime borrows its module table and the firing
//! module's core, and creating a child borrows the table mutably, so
//! the effects wait until both borrows end.

use crate::ids::{IpIndex, IpRef, ModuleId, ModuleKind, ModuleLabels, StateId};
use crate::interaction::Interaction;
use crate::machine::{Fsm, ModuleExec, StateMachine};
use netsim::SimTime;
use std::cell::Cell;
use std::fmt;
use std::task::Waker;

/// A deferred runtime mutation recorded by an action.
#[derive(Debug)]
pub(crate) enum Effect {
    /// Send `msg` out of the firing module's interaction point.
    Output {
        from_ip: IpIndex,
        msg: Box<dyn Interaction>,
    },
    /// Create a child module of the firing module.
    Create(CreateEffect),
    /// Connect two interaction points with a channel.
    Connect { a: IpRef, b: IpRef },
    /// Release (terminate) a child module and its subtree.
    Release { child: ModuleId },
}

pub(crate) struct CreateEffect {
    pub reserved: ModuleId,
    pub name: String,
    pub kind: ModuleKind,
    pub labels: ModuleLabels,
    pub exec: Box<dyn ModuleExec>,
}

impl fmt::Debug for CreateEffect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CreateEffect")
            .field("reserved", &self.reserved)
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("labels", &self.labels)
            .finish_non_exhaustive()
    }
}

/// The context available to a transition action.
#[derive(Debug)]
pub struct Ctx<'a> {
    pub(crate) now: SimTime,
    pub(crate) self_id: ModuleId,
    pub(crate) self_kind: ModuleKind,
    pub(crate) effects: &'a mut Vec<Effect>,
    pub(crate) next_state: Option<StateId>,
    pub(crate) id_alloc: &'a Cell<u32>,
    pub(crate) waker: &'a Waker,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(
        now: SimTime,
        self_id: ModuleId,
        self_kind: ModuleKind,
        effects: &'a mut Vec<Effect>,
        id_alloc: &'a Cell<u32>,
        waker: &'a Waker,
    ) -> Self {
        Ctx {
            now,
            self_id,
            self_kind,
            effects,
            next_state: None,
            id_alloc,
            waker,
        }
    }

    /// A free-standing context for unit-testing machine actions; child
    /// ids are drawn from a counter of its own.
    #[cfg(test)]
    pub(crate) fn for_test(effects: &'a mut Vec<Effect>) -> Self {
        Ctx::new(
            SimTime::ZERO,
            ModuleId(0),
            ModuleKind::SystemProcess,
            effects,
            Box::leak(Box::new(Cell::new(1_000_000))),
            Waker::noop(),
        )
    }

    /// The virtual time at which the transition fires.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the module whose transition is firing.
    pub fn self_id(&self) -> ModuleId {
        self.self_id
    }

    /// The firing module's waker: calling it tells the runtime to
    /// evaluate the module's [`crate::Transition::woken`] guards
    /// again. Hand it (typically from `on_init`) to whoever owns the
    /// state those guards read — a medium, a stream provider, a shared
    /// list — which must publish its change first and wake second.
    /// The waker is the one part of the runtime that is thread-safe:
    /// it touches only the module's wake-up flag and ready bit, so it
    /// may be called from inside another module's action, from another
    /// thread (a [`netsim::ThreadMedium`] peer) and after the runtime
    /// is gone. Waking a released module does nothing.
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Outputs `msg` on the firing module's interaction point `ip`.
    ///
    /// The message is enqueued at the connected peer after the action
    /// returns; outputs on unconnected points are counted as lost by
    /// the runtime.
    pub fn output(&mut self, ip: IpIndex, msg: impl Interaction) {
        self.effects.push(Effect::Output {
            from_ip: ip,
            msg: Box::new(msg),
        });
    }

    /// Overrides the `to` clause of the firing transition: the module
    /// enters `state` when the action returns.
    pub fn goto(&mut self, state: StateId) {
        self.next_state = Some(state);
    }

    pub(crate) fn take_next_state(&mut self) -> Option<StateId> {
        self.next_state.take()
    }

    /// Creates a child module of the firing module (Estelle `init`).
    /// Returns the child's id immediately so the same action can
    /// [`Ctx::connect`] it; the child is inserted and initialized after
    /// the action returns.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a system kind (the population of system
    /// modules is static at runtime) or if the attribute rules are
    /// violated (an `activity`/`systemactivity` parent may only contain
    /// `activity` children). These are specification bugs, mirroring an
    /// Estelle compiler rejecting the source text.
    pub fn create_child<M: StateMachine>(
        &mut self,
        name: impl Into<String>,
        kind: ModuleKind,
        labels: ModuleLabels,
        machine: M,
    ) -> ModuleId {
        assert!(
            matches!(kind, ModuleKind::Process | ModuleKind::Activity),
            "dynamic creation is limited to process/activity modules, got {kind}"
        );
        assert!(
            self.self_kind.is_attributed(),
            "inactive modules cannot create children"
        );
        if self.self_kind.children_exclusive() {
            assert!(
                kind == ModuleKind::Activity,
                "an {} module may only contain activity children",
                self.self_kind
            );
        }
        let reserved = ModuleId(self.id_alloc.replace(self.id_alloc.get() + 1));
        self.effects.push(Effect::Create(CreateEffect {
            reserved,
            name: name.into(),
            kind,
            labels,
            exec: Box::new(Fsm::new(machine)),
        }));
        reserved
    }

    /// Connects two interaction points with a channel (Estelle
    /// `connect`). Both points must be unconnected when the effect is
    /// applied.
    pub fn connect(&mut self, a: IpRef, b: IpRef) {
        self.effects.push(Effect::Connect { a, b });
    }

    /// Convenience: an [`IpRef`] to one of the firing module's own
    /// interaction points.
    pub fn self_ip(&self, ip: IpIndex) -> IpRef {
        IpRef {
            module: self.self_id,
            ip,
        }
    }

    /// Releases a child module and its whole subtree (Estelle
    /// `release`). Only the parent may release a child; the runtime
    /// verifies this when applying the effect.
    pub fn release_child(&mut self, child: ModuleId) {
        self.effects.push(Effect::Release { child });
    }
}

/// Builds an [`IpRef`] from a module and interaction point index.
pub fn ip(module: ModuleId, ip: IpIndex) -> IpRef {
    IpRef { module, ip }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impl_interaction;
    use crate::machine::{StateMachine, Transition};

    #[derive(Debug)]
    struct Nop;
    impl_interaction!(Nop);

    #[derive(Debug, Default)]
    struct Leaf;
    impl StateMachine for Leaf {
        fn num_ips(&self) -> usize {
            0
        }
        fn initial_state(&self) -> StateId {
            StateId(0)
        }
        fn transitions() -> Vec<Transition<Self>> {
            Vec::new()
        }
    }

    #[test]
    fn effects_are_recorded_in_order() {
        let mut sink = Vec::new();
        let mut ctx = Ctx::for_test(&mut sink);
        ctx.output(IpIndex(0), Nop);
        let child = ctx.create_child("leaf", ModuleKind::Process, ModuleLabels::default(), Leaf);
        ctx.connect(ctx.self_ip(IpIndex(1)), ip(child, IpIndex(0)));
        ctx.release_child(child);
        assert_eq!(sink.len(), 4);
        assert!(matches!(sink[0], Effect::Output { .. }));
        assert!(matches!(sink[1], Effect::Create(_)));
        assert!(matches!(sink[2], Effect::Connect { .. }));
        assert!(matches!(sink[3], Effect::Release { .. }));
    }

    #[test]
    fn reserved_child_ids_are_unique() {
        let mut sink = Vec::new();
        let mut ctx = Ctx::for_test(&mut sink);
        let a = ctx.create_child("a", ModuleKind::Process, ModuleLabels::default(), Leaf);
        let b = ctx.create_child("b", ModuleKind::Process, ModuleLabels::default(), Leaf);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "system")]
    fn creating_system_child_panics() {
        let mut sink = Vec::new();
        let mut ctx = Ctx::for_test(&mut sink);
        let _ = ctx.create_child(
            "bad",
            ModuleKind::SystemProcess,
            ModuleLabels::default(),
            Leaf,
        );
    }

    #[test]
    fn activity_parent_rejects_process_child() {
        let mut sink = Vec::new();
        let mut ctx = Ctx::for_test(&mut sink);
        ctx.self_kind = ModuleKind::Activity;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.create_child("bad", ModuleKind::Process, ModuleLabels::default(), Leaf)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn goto_overrides_to_clause() {
        let mut sink = Vec::new();
        let mut ctx = Ctx::for_test(&mut sink);
        ctx.goto(StateId(5));
        assert_eq!(ctx.take_next_state(), Some(StateId(5)));
        assert_eq!(ctx.take_next_state(), None);
    }
}
