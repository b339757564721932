//! `estelle` — an embedded Estelle (ISO 9074) semantic framework.
//!
//! The MCAM paper specifies its whole protocol system in Estelle —
//! hierarchically ordered communicating finite state machines — and
//! derives a parallel C++ implementation with a code generator. This
//! crate reproduces the *runtime* that generated code executes on:
//!
//! - modules with the four Estelle attributes (`systemprocess`,
//!   `systemactivity`, `process`, `activity`) plus inactive structuring
//!   modules, with the ISO structural rules enforced
//!   ([`validate_child_kind`]);
//! - transitions with `when`, `provided`, `priority`, `delay`, and
//!   `to` clauses ([`Transition`]);
//! - per-interaction-point FIFO queues and `connect`-ed channels;
//! - parent-over-child precedence, and activity mutual exclusion by
//!   firing one transition at a time;
//! - dynamic creation/release of child modules by their parent
//!   ([`Ctx::create_child`], [`Ctx::release_child`]);
//! - the two transition-dispatch mappings studied in §5.2
//!   ([`Dispatch::HardCoded`] vs [`Dispatch::TableDriven`]);
//! - one scheduler ([`sched::run_sequential`]) on the runtime's
//!   virtual clock, with scheduler-overhead instrumentation;
//! - module grouping policies ([`GroupingPolicy`]) including the
//!   paper's connection-per-processor and layer-per-processor mappings;
//! - execution tracing ([`ExecTrace`]) consumed by the `ksim`
//!   multiprocessor simulator.
//!
//! The paper's parallel runtime is reproduced by replay, not by
//! threads: `ksim` schedules the traces this runtime records on a
//! modelled multiprocessor, and its E4 experiment is the §5.2
//! comparison of a centralized with a decentralized scheduler. So a
//! [`Runtime`] belongs to the thread that drives it, and module bodies
//! and interactions need not be `Send`. Its one thread-safe part is
//! each module's waker ([`Ctx::waker`]), which a medium served by
//! another thread may call (see "The ready index" on [`Runtime`]).
//!
//! # Examples
//!
//! A two-module ping/pong specification:
//!
//! ```
//! use estelle::{
//!     impl_interaction, ip, Ctx, IpIndex, ModuleKind, ModuleLabels, Runtime,
//!     StateId, StateMachine, Transition,
//! };
//! use estelle::sched::{run_sequential, SeqOptions};
//!
//! #[derive(Debug)]
//! struct Ball(u32);
//! impl_interaction!(Ball);
//!
//! #[derive(Debug, Default)]
//! struct Player { hits: u32, serve: bool }
//!
//! const PLAY: StateId = StateId(0);
//! const IO: IpIndex = IpIndex(0);
//!
//! impl StateMachine for Player {
//!     fn num_ips(&self) -> usize { 1 }
//!     fn initial_state(&self) -> StateId { PLAY }
//!     fn on_init(&mut self, ctx: &mut Ctx<'_>) {
//!         if self.serve { ctx.output(IO, Ball(0)); }
//!     }
//!     fn transitions() -> Vec<Transition<Self>> {
//!         vec![Transition::on("return", PLAY, IO, |m, ctx, msg| {
//!             let ball = estelle::downcast::<Ball>(msg.unwrap()).unwrap();
//!             m.hits += 1;
//!             if ball.0 < 10 { ctx.output(IO, Ball(ball.0 + 1)); }
//!         })]
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (rt, _clock) = Runtime::sim();
//! let a = rt.add_module(None, "a", ModuleKind::SystemProcess,
//!                       ModuleLabels::default(), Player { serve: true, ..Default::default() })?;
//! let b = rt.add_module(None, "b", ModuleKind::SystemProcess,
//!                       ModuleLabels::default(), Player::default())?;
//! rt.connect(ip(a, IO), ip(b, IO))?;
//! rt.start()?;
//! let report = run_sequential(&rt, &SeqOptions::default());
//! assert_eq!(report.firings, 11);
//! let hits = rt.with_machine::<Player, _>(b, |p| p.hits).unwrap();
//! assert_eq!(hits, 6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod ctx;
mod error;
pub mod external;
mod grouping;
mod ids;
mod interaction;
mod machine;
mod runtime;
mod trace;

pub mod deploy;
pub mod driver;
pub mod export;
pub mod sched;

pub use ctx::{ip, Ctx};
pub use error::{EstelleError, Result};
pub use grouping::GroupingPolicy;
pub use ids::{IpIndex, IpRef, ModuleId, ModuleKind, ModuleLabels, StateId, UnitId};
pub use interaction::{downcast, is, Interaction};
pub use machine::{
    Dispatch, FiredInfo, FromState, Fsm, IpState, ModuleExec, Selected, StateMachine, Transition,
    TransitionInfo, DEFAULT_TRANSITION_COST,
};
pub use runtime::{
    validate_child_kind, Counters, FireOutcome, FiredMeta, ModuleMeta, Readiness, Runtime,
};
pub use trace::{ExecTrace, FiringRecord, TraceModuleMeta};
