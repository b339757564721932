//! The scheduler: one thread, in module-id order, on the runtime's
//! virtual clock.
//!
//! The paper's §5.2 observation — "for protocols with small processing
//! times, the Estelle scheduler becomes the bottleneck … runtime
//! percentage of the scheduler of up to 80 %; our scheduler … is
//! decentralized" — is measured here by instrumenting selection time
//! (scheduler) separately from action time (useful work). The
//! centralized/decentralized comparison itself is `ksim`'s (E4): it
//! replays the traces this scheduler records on a modelled
//! multiprocessor, with dispatch charged either to one coordinator or
//! to each unit. [`FirePolicy::OnePerScan`] is the centralized rescan
//! in its sequential form.
//!
//! The paper's cure is a scheduler in which "each part only has to
//! check the transitions of one module". This one goes a step further
//! in the same direction: it does not scan the specification. It walks
//! the runtime's **ready index** (see [`crate::Runtime`]) — the modules
//! with a queued interaction, a state that owns a polled spontaneous or
//! `delay` transition, or a pending wake-up — in ascending id order. A
//! module outside the index has `when` transitions on empty queues and
//! wake-driven transitions whose guards nobody has reported changed, so
//! visiting it could neither fire it nor block a descendant; leaving it
//! out changes no firing, trace or clock value, only how many
//! selections the run costs. States that poll stay in the index
//! whatever their guards say. The pollers the paper's external bodies
//! are made of (§4.3: `while true do if (medium.message) …`) no longer
//! do: their guards read media, the stream provider and lists whose
//! owners hold the module's waker ([`crate::Ctx::waker`]), their rows
//! are marked [`crate::Transition::woken`], and they are selected when
//! told — about 1.4 selections per firing on the benchmark's workloads
//! where the poll cost 29 to 2 362.
//!
//! A *pass* visits the members from id 0 up to the id watermark read
//! when the pass starts. A module that becomes ready during the pass
//! fires in the same pass if its id lies ahead of the cursor and in
//! the next pass otherwise; a module created during the pass is first
//! visited by the next one.

use crate::ids::ModuleId;
use crate::machine::Dispatch;
use crate::runtime::{Counters, Runtime};

/// How the scheduler commits firings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FirePolicy {
    /// Fire every eligible module found during one pass over the
    /// module list before rescanning — amortizes scan cost.
    #[default]
    Pass,
    /// Rescan from the beginning after every single firing — the
    /// classic centralized scheduler with O(modules) dispatch cost per
    /// firing.
    OnePerScan,
}

/// Options for [`run_sequential`].
#[derive(Debug, Clone)]
pub struct SeqOptions {
    /// Transition-selection strategy.
    pub dispatch: Dispatch,
    /// Firing commitment policy.
    pub fire_policy: FirePolicy,
    /// Stop after this many firings (safety valve / partial runs).
    pub max_firings: Option<u64>,
    /// Advance the virtual clock to the next `delay` deadline when no
    /// transition is enabled.
    pub advance_time: bool,
}

impl Default for SeqOptions {
    fn default() -> Self {
        SeqOptions {
            dispatch: Dispatch::TableDriven,
            fire_policy: FirePolicy::Pass,
            max_firings: None,
            advance_time: true,
        }
    }
}

/// Why a scheduler run returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No module enabled and no future deadline (or time advancement
    /// disabled).
    Quiescent,
    /// The firing budget was exhausted.
    MaxFirings,
}

/// Report of one scheduler run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Transitions fired during this run.
    pub firings: u64,
    /// Why the run stopped.
    pub stopped: StopReason,
    /// Counter deltas accumulated during the run.
    pub counters: Counters,
}

fn counters_delta(after: Counters, before: Counters) -> Counters {
    Counters {
        firings: after.firings - before.firings,
        inits: after.inits - before.inits,
        selects: after.selects - before.selects,
        scan_ns: after.scan_ns - before.scan_ns,
        action_ns: after.action_ns - before.action_ns,
        blocked: after.blocked - before.blocked,
        lost_outputs: after.lost_outputs - before.lost_outputs,
        msgs_to_dead: after.msgs_to_dead - before.msgs_to_dead,
    }
}

/// Runs the specification until quiescence (or a budget stop), one
/// firing at a time.
pub fn run_sequential(rt: &Runtime, opts: &SeqOptions) -> RunReport {
    let before = rt.counters();
    let mut fired_total = 0u64;
    let stopped = 'run: loop {
        let watermark = rt.id_watermark();
        let mut cursor = ModuleId::from_raw(0);
        let mut fired_this_pass = false;
        loop {
            // Checked after every firing (and before the first), so a
            // budget spent on the last candidate of a pass is still
            // reported as such.
            if opts.max_firings.is_some_and(|max| fired_total >= max) {
                break 'run StopReason::MaxFirings;
            }
            let Some(fired) = rt.fire_next_ready(cursor..watermark, opts.dispatch) else {
                break;
            };
            fired_total += 1;
            fired_this_pass = true;
            if opts.fire_policy == FirePolicy::OnePerScan {
                // Centralized behaviour: restart the scan after each
                // firing.
                continue 'run;
            }
            cursor = fired.module.next();
        }
        if !fired_this_pass {
            if opts.advance_time {
                if let Some(deadline) = rt.next_deadline() {
                    if deadline > rt.now() {
                        rt.advance_clock_to(deadline);
                        continue;
                    }
                }
            }
            break StopReason::Quiescent;
        }
    };
    RunReport {
        firings: fired_total,
        stopped,
        counters: counters_delta(rt.counters(), before),
    }
}
