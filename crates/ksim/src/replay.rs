//! Trace replay on the simulated multiprocessor.

use crate::machine::{Machine, Overheads};
use crate::report::SimReport;
use estelle::{ExecTrace, GroupingPolicy, ModuleId, ModuleLabels, UnitId};
use netsim::{SimDuration, SimTime};
use std::collections::HashMap;

/// Replays `trace` on `machine` under an arbitrary module→unit
/// assignment function.
///
/// Firings are processed in recorded (causally valid) order. Each
/// firing waits for: its unit's previous firing, all its dependencies
/// (plus sync cost for cross-unit edges), the coordinator when
/// centralized, and its processor. Unit `u` is pinned to processor
/// `u % P`.
pub(crate) fn simulate_with<F>(trace: &ExecTrace, mut assign: F, machine: &Machine) -> SimReport
where
    F: FnMut(ModuleId, ModuleLabels) -> UnitId,
{
    let p = machine.processors.max(1);
    let ov = machine.overheads;

    // Label lookup: prefer trace metadata, fall back to the record.
    let meta_labels: HashMap<_, _> = trace.modules.iter().map(|m| (m.id, m.labels)).collect();

    let mut unit_index: HashMap<UnitId, usize> = HashMap::new();
    let mut unit_ready: Vec<SimTime> = Vec::new();

    let mut proc_free = vec![SimTime::ZERO; p];
    let mut proc_last_unit: Vec<Option<usize>> = vec![None; p];
    let mut per_proc_busy = vec![SimDuration::ZERO; p];
    let mut coord_free = SimTime::ZERO;
    let mut finish: HashMap<u64, (SimTime, usize)> = HashMap::new(); // seq -> (finish, unit)

    let mut work = SimDuration::ZERO;
    let mut dispatch_time = SimDuration::ZERO;
    let mut sync_time = SimDuration::ZERO;
    let mut ctx_switches = 0u64;
    let mut makespan = SimTime::ZERO;

    for r in &trace.records {
        let labels: ModuleLabels = meta_labels.get(&r.module).copied().unwrap_or(r.labels);
        let uid = assign(r.module, labels);
        let next_index = unit_index.len();
        let u = *unit_index.entry(uid).or_insert(next_index);
        if u >= unit_ready.len() {
            unit_ready.resize(u + 1, SimTime::ZERO);
        }

        // Dependency readiness.
        let mut dep_ready = SimTime::ZERO;
        let mut cross_unit_deps = 0u64;
        for d in &r.deps {
            if let Some(&(df, du)) = finish.get(d) {
                let mut t = df;
                if du != u {
                    t += ov.sync;
                    sync_time += ov.sync;
                    cross_unit_deps += 1;
                }
                dep_ready = dep_ready.max(t);
            }
        }
        let mut ready = unit_ready[u].max(dep_ready);

        // Scheduler dispatch.
        if ov.centralized {
            let start_dispatch = coord_free.max(ready);
            coord_free = start_dispatch + ov.dispatch;
            dispatch_time += ov.dispatch;
            ready = coord_free;
        }

        // Processor: unit u is pinned to processor u % P.
        let proc = u % p;
        let start = ready.max(proc_free[proc]);
        let mut charged = r.cost;
        if ov.sync_occupies_cpu {
            charged += ov.sync * cross_unit_deps;
        }
        if !ov.centralized {
            charged += ov.dispatch;
            dispatch_time += ov.dispatch;
        }
        if proc_last_unit[proc].is_some_and(|lu| lu != u) {
            charged += ov.ctx_switch;
            ctx_switches += 1;
        }
        let end = start + charged;
        proc_free[proc] = end;
        proc_last_unit[proc] = Some(u);
        per_proc_busy[proc] += charged;
        unit_ready[u] = end;
        finish.insert(r.seq, (end, u));
        work += r.cost;
        makespan = makespan.max(end);
    }

    SimReport {
        makespan: makespan.saturating_since(SimTime::ZERO),
        firings: trace.records.len(),
        per_proc_busy,
        work,
        dispatch_time,
        sync_time,
        ctx_switches,
        units: unit_index.len(),
    }
}

/// Replays `trace` on `machine` under `grouping`.
///
/// The crate documentation describes the cost model.
pub fn simulate(trace: &ExecTrace, grouping: GroupingPolicy, machine: &Machine) -> SimReport {
    simulate_with(trace, |id, labels| grouping.assign(id, labels), machine)
}

/// Replays the trace sequentially (one unit, one processor) — the
/// baseline for speedup computations.
pub fn simulate_sequential(trace: &ExecTrace, overheads: Overheads) -> SimReport {
    let machine = Machine {
        processors: 1,
        overheads,
    };
    simulate(trace, GroupingPolicy::Single, &machine)
}
