//! Schedulers: sequential reference, decentralized thread-parallel,
//! and centralized coordinator/worker.
//!
//! The paper's §5.2 observation — "for protocols with small processing
//! times, the Estelle scheduler becomes the bottleneck … runtime
//! percentage of the scheduler of up to 80 %; our scheduler … is
//! decentralized" — is reproduced by instrumenting selection time
//! (scheduler) separately from action time (useful work) and by
//! offering both a centralized and a decentralized implementation.
//!
//! The paper's cure is a scheduler in which "each part only has to
//! check the transitions of one module". All three schedulers here go
//! one step further in the same direction: none of them scans the
//! specification. They walk the runtime's **ready index** (see
//! [`crate::Runtime`]) — the modules with a queued interaction, a
//! state that owns a polled spontaneous or `delay` transition, or a
//! pending wake-up — in ascending id order. A module outside the index
//! has `when` transitions on empty queues and wake-driven transitions
//! whose guards nobody has reported changed, so visiting it could
//! neither fire it nor block a descendant; leaving it out changes no
//! firing, trace or clock value, only how many selections the run
//! costs. States that poll stay in the index whatever their guards
//! say. The pollers the paper's external bodies are made of (§4.3:
//! `while true do if (medium.message) …`) no longer do: their guards
//! read media, the stream provider and lists whose owners hold the
//! module's waker ([`crate::Ctx::waker`]), their rows are marked
//! [`crate::Transition::woken`], and they are selected when told —
//! about 1.4 selections per firing on the benchmark's workloads where
//! the poll cost 29 to 2 362.
//!
//! A *pass* visits the members from id 0 up to the id watermark read
//! when the pass starts. A module that becomes ready during the pass
//! fires in the same pass if its id lies ahead of the cursor and in
//! the next pass otherwise; a module created during the pass is first
//! visited by the next one.

use crate::grouping::GroupingPolicy;
use crate::ids::ModuleId;
use crate::machine::Dispatch;
use crate::runtime::{Counters, FireOutcome, Readiness, Runtime};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the sequential scheduler commits firings.
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
    /// transition is enabled (requires a virtual-clock runtime).
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
    /// The wall-clock safety timeout expired.
    Timeout,
}

/// Report of one scheduler run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Transitions fired during this run.
    pub firings: u64,
    /// Wall time of the run.
    pub wall: Duration,
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

/// Runs the specification on a single thread until quiescence (or a
/// budget/deadline stop). This is the reference semantics: every
/// parallel execution must be a linearization-equivalent of what this
/// scheduler produces at the protocol level.
pub fn run_sequential(rt: &Runtime, opts: &SeqOptions) -> RunReport {
    let before = rt.counters();
    let t0 = Instant::now();
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
        wall: t0.elapsed(),
        stopped,
        counters: counters_delta(rt.counters(), before),
    }
}

/// The ready-index members below the id watermark read at the call, in
/// ascending id order: the candidates of one scan by a parallel
/// scheduler. Modules made ready ahead of the cursor join the scan.
fn candidates(rt: &Runtime) -> impl Iterator<Item = ModuleId> + '_ {
    let watermark = rt.id_watermark();
    let mut cursor = ModuleId::from_raw(0);
    std::iter::from_fn(move || {
        let id = rt.next_ready(cursor..watermark)?;
        cursor = id.next();
        Some(id)
    })
}

/// Options for the parallel schedulers.
#[derive(Debug, Clone)]
pub struct ParOptions {
    /// Number of worker threads (units).
    pub units: usize,
    /// Module-to-unit mapping policy.
    pub grouping: GroupingPolicy,
    /// Transition-selection strategy.
    pub dispatch: Dispatch,
    /// Stop after this many total firings.
    pub max_firings: Option<u64>,
    /// Wall-clock safety timeout.
    pub timeout: Duration,
    /// Advance the virtual clock at global idle (virtual-clock
    /// runtimes only).
    pub advance_time: bool,
}

impl Default for ParOptions {
    fn default() -> Self {
        ParOptions {
            units: 2,
            grouping: GroupingPolicy::RoundRobin { units: 2 },
            dispatch: Dispatch::TableDriven,
            max_firings: None,
            timeout: Duration::from_secs(30),
            advance_time: true,
        }
    }
}

/// Runs the specification on `opts.units` worker threads, each worker
/// scanning only the ready modules its unit owns (the *decentralized*
/// scheduler: "each part only has to check the transitions of one
/// module; this can be done in parallel").
pub fn run_threads(rt: &Arc<Runtime>, opts: &ParOptions) -> RunReport {
    let before = rt.counters();
    let t0 = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicU64::new(0));
    let fired = Arc::new(AtomicU64::new(0));
    let units = opts.units.max(1);

    std::thread::scope(|scope| {
        for unit in 0..units {
            let rt = Arc::clone(rt);
            let stop = Arc::clone(&stop);
            let progress = Arc::clone(&progress);
            let fired = Arc::clone(&fired);
            let opts = opts.clone();
            scope.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let mut any = false;
                    for id in candidates(&rt) {
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        if opts.grouping.assign_in(&rt, id).0 as usize % units != unit {
                            continue;
                        }
                        if let FireOutcome::Fired(_) = rt.try_fire(id, opts.dispatch) {
                            any = true;
                            progress.fetch_add(1, Ordering::SeqCst);
                            let f = fired.fetch_add(1, Ordering::SeqCst) + 1;
                            if let Some(max) = opts.max_firings {
                                if f >= max {
                                    stop.store(true, Ordering::SeqCst);
                                    return;
                                }
                            }
                        }
                    }
                    if !any {
                        std::thread::yield_now();
                    }
                }
            });
        }
        // Supervisor: detect quiescence (progress stagnant AND nothing
        // enabled), advance virtual time at global idle, enforce the
        // timeout.
        let mut last_progress = progress.load(Ordering::SeqCst);
        let mut stopped = StopReason::Quiescent;
        loop {
            std::thread::sleep(Duration::from_micros(200));
            if stop.load(Ordering::SeqCst) {
                stopped = StopReason::MaxFirings;
                break;
            }
            if t0.elapsed() > opts.timeout {
                stopped = StopReason::Timeout;
                break;
            }
            let p = progress.load(Ordering::SeqCst);
            if p != last_progress {
                last_progress = p;
                continue;
            }
            let Readiness::IdleUntil(deadline) = rt.readiness(opts.dispatch) else {
                continue;
            };
            // Re-check stagnation after the enabled scan to close the
            // window where a worker fired mid-scan.
            if progress.load(Ordering::SeqCst) != p {
                last_progress = progress.load(Ordering::SeqCst);
                continue;
            }
            if opts.advance_time {
                if let Some(deadline) = deadline.filter(|&d| d > rt.now()) {
                    rt.advance_clock_to(deadline);
                    continue;
                }
            }
            break;
        }
        stop.store(true, Ordering::SeqCst);
        stopped
    });

    let stopped = if t0.elapsed() > opts.timeout {
        StopReason::Timeout
    } else if opts
        .max_firings
        .is_some_and(|m| fired.load(Ordering::SeqCst) >= m)
    {
        StopReason::MaxFirings
    } else {
        StopReason::Quiescent
    };
    RunReport {
        firings: fired.load(Ordering::SeqCst),
        wall: t0.elapsed(),
        stopped,
        counters: counters_delta(rt.counters(), before),
    }
}

/// Runs the specification with a *centralized* scheduler: a single
/// coordinator repeatedly scans every ready module for enabled
/// transitions and hands them one at a time to a worker pool. The
/// coordinator's scan is the global bottleneck the paper measured at
/// up to 80 % of runtime.
pub fn run_centralized(rt: &Arc<Runtime>, opts: &ParOptions) -> RunReport {
    let before = rt.counters();
    let t0 = Instant::now();
    let units = opts.units.max(1);
    let (work_tx, work_rx) = crossbeam::channel::unbounded::<ModuleId>();
    let (done_tx, done_rx) = crossbeam::channel::unbounded::<bool>();
    let stop = Arc::new(AtomicBool::new(false));
    let mut fired_total = 0u64;
    let mut stopped = StopReason::Quiescent;

    std::thread::scope(|scope| {
        for _ in 0..units {
            let rt = Arc::clone(rt);
            let work_rx = work_rx.clone();
            let done_tx = done_tx.clone();
            let stop = Arc::clone(&stop);
            let dispatch = opts.dispatch;
            scope.spawn(move || {
                while let Ok(id) = work_rx.recv() {
                    if stop.load(Ordering::SeqCst) {
                        let _ = done_tx.send(false);
                        continue;
                    }
                    let fired = matches!(rt.try_fire(id, dispatch), FireOutcome::Fired(_));
                    let _ = done_tx.send(fired);
                }
            });
        }
        'outer: loop {
            if t0.elapsed() > opts.timeout {
                stopped = StopReason::Timeout;
                break;
            }
            // Coordinator scan: find all currently-enabled modules.
            let enabled: Vec<ModuleId> = candidates(rt)
                .filter(|&id| rt.module_enabled(id, opts.dispatch))
                .collect();
            if enabled.is_empty() {
                if opts.advance_time {
                    if let Some(deadline) = rt.next_deadline() {
                        if deadline > rt.now() {
                            rt.advance_clock_to(deadline);
                            continue;
                        }
                    }
                }
                stopped = StopReason::Quiescent;
                break;
            }
            let batch = enabled.len();
            for id in enabled {
                work_tx.send(id).expect("workers alive");
            }
            for _ in 0..batch {
                if done_rx.recv().unwrap_or(false) {
                    fired_total += 1;
                    if let Some(max) = opts.max_firings {
                        if fired_total >= max {
                            stopped = StopReason::MaxFirings;
                            break 'outer;
                        }
                    }
                }
            }
        }
        stop.store(true, Ordering::SeqCst);
        drop(work_tx);
    });

    RunReport {
        firings: fired_total,
        wall: t0.elapsed(),
        stopped,
        counters: counters_delta(rt.counters(), before),
    }
}
