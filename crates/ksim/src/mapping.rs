//! Automatic module→processor mapping (the paper's ref \[7\]).
//!
//! The paper closes §6 with: *"the mapping of Estelle modules to tasks
//! and threads influences the performance of the runtime implementation
//! to a great extent. An algorithm for an optimal mapping is currently
//! under development."* This module implements that algorithm against
//! the simulator's cost model:
//!
//! 1. a **cost model** is extracted from an execution trace — total
//!    transition work per module and the inter-module communication
//!    matrix (dependency edges that would pay the `sync` overhead if
//!    split across units) — see [`CostModel::from_trace`];
//! 2. four seeds are evaluated: LPT (longest processing time first)
//!    over individual modules, LPT over the **communication clusters**
//!    (connected components of the comm graph — which recover the
//!    paper's *connections*), and the two label-based policies of §3
//!    (by connection, by layer);
//! 3. a **local search** then repeatedly re-homes single modules and
//!    whole clusters, accepting only moves that reduce the *actual
//!    simulated makespan* (the true objective, not a proxy), until a
//!    fixed point or the round limit.
//!
//! Because the §3 policies are seeds, the result never loses to any
//! static mapping the paper considers; on skewed workloads it beats
//! them all (see the `mapping_optimizer` ablation bench).

use crate::machine::Machine;
use crate::replay::simulate_with;
use crate::report::SimReport;
use estelle::{ExecTrace, ModuleId, UnitId};
use netsim::SimDuration;
use std::collections::HashMap;

/// Per-module work and inter-module communication extracted from a
/// trace.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Modules in first-appearance order.
    pub modules: Vec<ModuleId>,
    /// Total transition cost charged by each module.
    pub work: HashMap<ModuleId, SimDuration>,
    /// Number of dependency edges between each unordered module pair
    /// (keys are stored with the smaller id first).
    pub comm: HashMap<(ModuleId, ModuleId), u64>,
    /// Firings per module.
    pub firings: HashMap<ModuleId, u64>,
    /// Connection/layer labels per module (from the trace records).
    pub labels: HashMap<ModuleId, estelle::ModuleLabels>,
}

impl CostModel {
    /// Builds the cost model for `trace`.
    pub fn from_trace(trace: &ExecTrace) -> Self {
        let mut modules = Vec::new();
        let mut work: HashMap<ModuleId, SimDuration> = HashMap::new();
        let mut firings: HashMap<ModuleId, u64> = HashMap::new();
        let mut comm: HashMap<(ModuleId, ModuleId), u64> = HashMap::new();
        let mut producer: HashMap<u64, ModuleId> = HashMap::new();
        let mut labels: HashMap<ModuleId, estelle::ModuleLabels> = HashMap::new();
        let meta: HashMap<_, _> = trace.modules.iter().map(|m| (m.id, m.labels)).collect();

        for r in &trace.records {
            if !work.contains_key(&r.module) {
                modules.push(r.module);
                labels.insert(r.module, meta.get(&r.module).copied().unwrap_or(r.labels));
            }
            *work.entry(r.module).or_insert(SimDuration::ZERO) += r.cost;
            *firings.entry(r.module).or_insert(0) += 1;
            for d in &r.deps {
                if let Some(&from) = producer.get(d) {
                    if from != r.module {
                        let key = if from.index() <= r.module.index() {
                            (from, r.module)
                        } else {
                            (r.module, from)
                        };
                        *comm.entry(key).or_insert(0) += 1;
                    }
                }
            }
            producer.insert(r.seq, r.module);
        }
        CostModel {
            modules,
            work,
            comm,
            firings,
            labels,
        }
    }

    /// Total work across all modules.
    pub fn total_work(&self) -> SimDuration {
        self.work
            .values()
            .fold(SimDuration::ZERO, |acc, &d| acc + d)
    }

    /// Connected components of the communication graph, each in
    /// first-appearance order. Modules that never exchange messages
    /// land in singleton clusters. For protocol traces this recovers
    /// the *connections*: the module groups the paper's
    /// connection-per-processor rule keeps together.
    pub fn clusters(&self) -> Vec<Vec<ModuleId>> {
        let index: HashMap<ModuleId, usize> = self
            .modules
            .iter()
            .enumerate()
            .map(|(i, &m)| (m, i))
            .collect();
        let mut parent: Vec<usize> = (0..self.modules.len()).collect();
        fn find(parent: &mut [usize], i: usize) -> usize {
            let mut root = i;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = i;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        for &(a, b) in self.comm.keys() {
            let (Some(&ia), Some(&ib)) = (index.get(&a), index.get(&b)) else {
                continue;
            };
            let (ra, rb) = (find(&mut parent, ia), find(&mut parent, ib));
            if ra != rb {
                parent[ra.max(rb)] = ra.min(rb);
            }
        }
        let mut by_root: HashMap<usize, Vec<ModuleId>> = HashMap::new();
        for (i, &m) in self.modules.iter().enumerate() {
            by_root.entry(find(&mut parent, i)).or_default().push(m);
        }
        let mut roots: Vec<usize> = by_root.keys().copied().collect();
        roots.sort_unstable();
        roots
            .into_iter()
            .map(|r| by_root.remove(&r).expect("root present"))
            .collect()
    }

    /// Total work of a module group.
    pub fn group_work(&self, group: &[ModuleId]) -> SimDuration {
        group
            .iter()
            .map(|m| self.work.get(m).copied().unwrap_or(SimDuration::ZERO))
            .fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

/// A concrete module→unit table produced by the optimizer.
///
/// Modules absent from the table (e.g. created after planning) fall
/// back to `id.index() % units`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplicitMapping {
    map: HashMap<ModuleId, UnitId>,
    units: u32,
}

impl ExplicitMapping {
    /// Creates a mapping over `units` units from explicit pairs.
    pub(crate) fn new(units: usize, pairs: impl IntoIterator<Item = (ModuleId, UnitId)>) -> Self {
        ExplicitMapping {
            map: pairs.into_iter().collect(),
            units: units.max(1) as u32,
        }
    }

    /// Unit for `id` (table lookup, then round-robin fallback).
    pub(crate) fn assign(&self, id: ModuleId) -> UnitId {
        self.map
            .get(&id)
            .copied()
            .unwrap_or(UnitId(id.index() as u32 % self.units))
    }

    /// The explicit (module, unit) pairs, sorted by module id.
    pub fn pairs(&self) -> Vec<(ModuleId, UnitId)> {
        let mut v: Vec<_> = self.map.iter().map(|(&m, &u)| (m, u)).collect();
        v.sort_by_key(|(m, _)| m.index());
        v
    }
}

/// Options controlling [`optimize`].
#[derive(Debug, Clone, Copy)]
pub struct OptimizeOptions {
    /// Number of units (normally the processor count).
    pub units: usize,
    /// Upper bound on local-search rounds (each round tries every
    /// module × unit move).
    pub max_rounds: usize,
}

/// Outcome of [`optimize`].
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The best assignment found.
    pub mapping: ExplicitMapping,
    /// Replay report under that assignment.
    pub report: SimReport,
    /// Local-search rounds actually executed.
    pub rounds: usize,
    /// Candidate assignments evaluated (full trace replays).
    pub evaluations: usize,
}

fn evaluate(trace: &ExecTrace, mapping: &ExplicitMapping, machine: &Machine) -> SimReport {
    simulate_with(trace, |id, _| mapping.assign(id), machine)
}

/// LPT over module groups: heaviest group first onto the
/// least-loaded unit.
fn lpt_seed(model: &CostModel, groups: &[Vec<ModuleId>], units: usize) -> ExplicitMapping {
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by(|&a, &b| {
        model
            .group_work(&groups[b])
            .cmp(&model.group_work(&groups[a]))
            .then(a.cmp(&b))
    });
    let mut load = vec![SimDuration::ZERO; units];
    let mut table: HashMap<ModuleId, UnitId> = HashMap::new();
    for g in order {
        let (u, _) = load
            .iter()
            .enumerate()
            .min_by_key(|(i, &l)| (l, *i))
            .expect("at least one unit");
        for m in &groups[g] {
            table.insert(*m, UnitId(u as u32));
        }
        load[u] += model.group_work(&groups[g]);
    }
    ExplicitMapping {
        map: table,
        units: units as u32,
    }
}

/// Searches for a module→unit mapping minimizing the simulated
/// makespan of `trace` on `machine`.
///
/// Four seeds are evaluated — LPT over individual modules (pure load
/// balance), LPT over communication clusters (the
/// connection-per-processor shape), and the paper's two label-based
/// policies (by connection, by layer) — and the best one starts a
/// local search that re-homes single modules and whole clusters,
/// accepting only moves that reduce the actual simulated makespan.
/// The result therefore never loses to any static policy of §3/§5.2.
///
/// Deterministic: ties are broken by module order and unit index, so
/// the same inputs always return the same mapping.
pub fn optimize(trace: &ExecTrace, machine: &Machine, opts: OptimizeOptions) -> Optimized {
    let model = CostModel::from_trace(trace);
    let units = opts.units.max(1);
    let clusters = model.clusters();

    let singleton_groups: Vec<Vec<ModuleId>> = model.modules.iter().map(|&m| vec![m]).collect();
    let policy_seed = |policy: estelle::GroupingPolicy| {
        ExplicitMapping::new(
            units,
            model.modules.iter().map(|&m| {
                let labels = model.labels.get(&m).copied().unwrap_or_default();
                (m, policy.assign(m, labels))
            }),
        )
    };
    // Seeds: pure load balance (LPT over modules), communication
    // clusters (LPT over connected components), and the two
    // label-based policies of §3 — so the search can only improve on
    // every static mapping the paper considers.
    let seeds = [
        lpt_seed(&model, &singleton_groups, units),
        lpt_seed(&model, &clusters, units),
        policy_seed(estelle::GroupingPolicy::ByConnection {
            units: units as u32,
        }),
        policy_seed(estelle::GroupingPolicy::ByLayer {
            units: units as u32,
        }),
    ];
    let mut evaluations = 0usize;
    let mut best: Option<(ExplicitMapping, SimReport)> = None;
    for seed in seeds {
        let report = evaluate(trace, &seed, machine);
        evaluations += 1;
        if best
            .as_ref()
            .is_none_or(|(_, b)| report.makespan < b.makespan)
        {
            best = Some((seed, report));
        }
    }
    let (mut best, mut best_report) = best.expect("at least one seed");
    let mut rounds = 0usize;

    for _ in 0..opts.max_rounds {
        rounds += 1;
        let mut improved = false;

        // Single-module moves.
        for m in &model.modules {
            let current = best.assign(*m);
            let mut champion: Option<(UnitId, SimReport)> = None;
            for u in 0..units as u32 {
                if UnitId(u) == current {
                    continue;
                }
                let mut candidate = best.clone();
                candidate.map.insert(*m, UnitId(u));
                let report = evaluate(trace, &candidate, machine);
                evaluations += 1;
                let beats_champion = champion
                    .as_ref()
                    .is_none_or(|(_, c)| report.makespan < c.makespan);
                if report.makespan < best_report.makespan && beats_champion {
                    champion = Some((UnitId(u), report));
                }
            }
            if let Some((u, report)) = champion {
                best.map.insert(*m, u);
                best_report = report;
                improved = true;
            }
        }

        // Whole-cluster moves (escape local optima single moves
        // cannot leave: splitting a chatty cluster is always worse
        // than keeping it together, so clusters move as one).
        for cluster in &clusters {
            if cluster.len() < 2 {
                continue; // covered by single moves
            }
            let mut champion: Option<(UnitId, SimReport)> = None;
            for u in 0..units as u32 {
                let mut candidate = best.clone();
                let mut changed = false;
                for m in cluster {
                    if candidate.assign(*m) != UnitId(u) {
                        candidate.map.insert(*m, UnitId(u));
                        changed = true;
                    }
                }
                if !changed {
                    continue;
                }
                let report = evaluate(trace, &candidate, machine);
                evaluations += 1;
                let beats_champion = champion
                    .as_ref()
                    .is_none_or(|(_, c)| report.makespan < c.makespan);
                if report.makespan < best_report.makespan && beats_champion {
                    champion = Some((UnitId(u), report));
                }
            }
            if let Some((u, report)) = champion {
                for m in cluster {
                    best.map.insert(*m, u);
                }
                best_report = report;
                improved = true;
            }
        }

        if !improved {
            break;
        }
    }

    Optimized {
        mapping: best,
        report: best_report,
        rounds,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Overheads;
    use crate::replay::{simulate, simulate_sequential};
    use crate::report::speedup;
    use estelle::{FiringRecord, GroupingPolicy, ModuleLabels};

    fn rec(seq: u64, module: u32, cost_us: u64, deps: Vec<u64>) -> FiringRecord {
        FiringRecord {
            seq,
            module: ModuleId::from_raw(module),
            labels: ModuleLabels::conn(module as u16),
            module_type: "T",
            transition: "t",
            cost: SimDuration::from_micros(cost_us),
            deps,
        }
    }

    /// `n_chains` independent chains; chain `i` has per-firing cost
    /// `costs[i]`, `len` firings each.
    fn chains(costs: &[u64], len: u64) -> ExecTrace {
        let mut records = Vec::new();
        let mut prev = vec![None::<u64>; costs.len()];
        let mut seq = 0u64;
        for _ in 0..len {
            for (i, &c) in costs.iter().enumerate() {
                seq += 1;
                records.push(rec(seq, i as u32, c, prev[i].into_iter().collect()));
                prev[i] = Some(seq);
            }
        }
        ExecTrace {
            records,
            modules: vec![],
        }
    }

    #[test]
    fn cost_model_sums_work_and_edges() {
        // Module 0 feeds module 1 on every firing.
        let mut records = Vec::new();
        for i in 0..10u64 {
            let seq = 2 * i + 1;
            records.push(rec(seq, 0, 100, vec![]));
            records.push(rec(seq + 1, 1, 50, vec![seq]));
        }
        let t = ExecTrace {
            records,
            modules: vec![],
        };
        let m = CostModel::from_trace(&t);
        assert_eq!(m.modules.len(), 2);
        assert_eq!(m.work[&ModuleId::from_raw(0)].as_micros(), 1000);
        assert_eq!(m.work[&ModuleId::from_raw(1)].as_micros(), 500);
        assert_eq!(m.comm[&(ModuleId::from_raw(0), ModuleId::from_raw(1))], 10);
        assert_eq!(m.firings[&ModuleId::from_raw(0)], 10);
        assert_eq!(m.total_work().as_micros(), 1500);
    }

    #[test]
    fn clusters_recover_connections() {
        // Pipelines 0→1 and 2→3 plus a silent singleton module 4.
        let mut records = Vec::new();
        let mut seq = 0u64;
        for _ in 0..5 {
            seq += 1;
            records.push(rec(seq, 0, 10, vec![]));
            seq += 1;
            records.push(rec(seq, 1, 10, vec![seq - 1]));
            seq += 1;
            records.push(rec(seq, 2, 10, vec![]));
            seq += 1;
            records.push(rec(seq, 3, 10, vec![seq - 1]));
            seq += 1;
            records.push(rec(seq, 4, 10, vec![]));
        }
        let t = ExecTrace {
            records,
            modules: vec![],
        };
        let model = CostModel::from_trace(&t);
        let clusters = model.clusters();
        assert_eq!(clusters.len(), 3);
        assert_eq!(
            clusters[0],
            vec![ModuleId::from_raw(0), ModuleId::from_raw(1)]
        );
        assert_eq!(
            clusters[1],
            vec![ModuleId::from_raw(2), ModuleId::from_raw(3)]
        );
        assert_eq!(clusters[2], vec![ModuleId::from_raw(4)]);
        assert_eq!(model.group_work(&clusters[0]).as_micros(), 100);
    }

    #[test]
    fn explicit_mapping_fallback() {
        let m = ExplicitMapping::new(3, [(ModuleId::from_raw(0), UnitId(2))]);
        assert_eq!(m.assign(ModuleId::from_raw(0)), UnitId(2));
        assert_eq!(m.assign(ModuleId::from_raw(7)), UnitId(1));
        assert_eq!(m.units, 3);
    }

    #[test]
    fn optimizer_balances_skewed_chains() {
        // Four chains with very different weights: 400/100/100/100.
        // Round-robin over 2 units pairs 400+100 vs 100+100 (load 500
        // vs 200); the optimizer should find 400 vs 100+100+100.
        let t = chains(&[400, 100, 100, 100], 20);
        let machine = Machine {
            processors: 2,
            overheads: Overheads::ksr1_like(),
        };
        let naive = simulate(&t, GroupingPolicy::RoundRobin { units: 2 }, &machine);
        let opt = optimize(
            &t,
            &machine,
            OptimizeOptions {
                units: 2,
                max_rounds: 8,
            },
        );
        assert!(
            opt.report.makespan <= naive.makespan,
            "optimizer {} vs round-robin {}",
            opt.report.makespan,
            naive.makespan
        );
        // The heavy chain must sit alone on its unit.
        let heavy = opt.mapping.assign(ModuleId::from_raw(0));
        for m in 1..4u32 {
            assert_ne!(opt.mapping.assign(ModuleId::from_raw(m)), heavy);
        }
    }

    #[test]
    fn optimizer_matches_by_connection_on_homogeneous_load() {
        let t = chains(&[100, 100], 30);
        let machine = Machine {
            processors: 2,
            overheads: Overheads::ksr1_like(),
        };
        let by_conn = simulate(&t, GroupingPolicy::ByConnection { units: 2 }, &machine);
        let opt = optimize(
            &t,
            &machine,
            OptimizeOptions {
                units: 2,
                max_rounds: 4,
            },
        );
        // The optimizer must do at least as well as the paper's rule.
        assert!(opt.report.makespan <= by_conn.makespan);
        let base = simulate_sequential(&t, Overheads::ksr1_like());
        assert!(speedup(&base, &opt.report) > 1.5);
    }

    #[test]
    fn optimizer_keeps_chatty_modules_together() {
        // Two tightly-coupled pipelines (0↔1 and 2↔3) under an
        // expensive sync regime: splitting a pipeline across units
        // pays 400us per hop, so each pipeline must stay in one unit.
        let mut records = Vec::new();
        let mut seq = 0u64;
        let mut prev = [None::<u64>; 2];
        for _ in 0..30 {
            for pipe in 0..2u32 {
                // Stage A.
                seq += 1;
                records.push(rec(
                    seq,
                    pipe * 2,
                    50,
                    prev[pipe as usize].into_iter().collect(),
                ));
                let a = seq;
                // Stage B depends on stage A.
                seq += 1;
                records.push(rec(seq, pipe * 2 + 1, 50, vec![a]));
                prev[pipe as usize] = Some(seq);
            }
        }
        let t = ExecTrace {
            records,
            modules: vec![],
        };
        let machine = Machine {
            processors: 2,
            overheads: Overheads::osf1_threads(),
        };
        let opt = optimize(
            &t,
            &machine,
            OptimizeOptions {
                units: 2,
                max_rounds: 8,
            },
        );
        assert_eq!(
            opt.mapping.assign(ModuleId::from_raw(0)),
            opt.mapping.assign(ModuleId::from_raw(1)),
            "pipeline 0 split across units"
        );
        assert_eq!(
            opt.mapping.assign(ModuleId::from_raw(2)),
            opt.mapping.assign(ModuleId::from_raw(3)),
            "pipeline 1 split across units"
        );
        assert_ne!(
            opt.mapping.assign(ModuleId::from_raw(0)),
            opt.mapping.assign(ModuleId::from_raw(2)),
            "the two pipelines should use both processors"
        );
    }

    #[test]
    fn optimizer_is_deterministic() {
        let t = chains(&[300, 100, 200, 100], 10);
        let machine = Machine {
            processors: 2,
            overheads: Overheads::ksr1_like(),
        };
        let a = optimize(
            &t,
            &machine,
            OptimizeOptions {
                units: 2,
                max_rounds: 8,
            },
        );
        let b = optimize(
            &t,
            &machine,
            OptimizeOptions {
                units: 2,
                max_rounds: 8,
            },
        );
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.report.makespan, b.report.makespan);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn optimizer_handles_empty_trace() {
        let t = ExecTrace {
            records: vec![],
            modules: vec![],
        };
        let machine = Machine::with_processors(4);
        let options = OptimizeOptions {
            units: machine.processors,
            max_rounds: 8,
        };
        let opt = optimize(&t, &machine, options);
        assert!(opt.report.makespan.is_zero());
        assert_eq!(opt.mapping.pairs().len(), 0);
    }
}
