//! `ksim` — a multiprocessor execution simulator (the KSR1 substitute).
//!
//! The paper ran its MCAM server on a 32-processor KSR1 under OSF/1 and
//! measured the speedup of parallel Estelle configurations. That
//! hardware is not available here, so — per the reproduction's
//! substitution rule — we simulate it: an execution trace recorded by
//! the `estelle` runtime ([`estelle::ExecTrace`]) is *replayed* on a
//! model of `P` processors under a chosen module-to-unit mapping
//! ([`estelle::GroupingPolicy`], or the assignment [`optimize`]
//! searches for), charging:
//!
//! - each firing's declared virtual **cost** on its processor,
//! - a per-firing **dispatch** overhead (the Estelle scheduler),
//!   either decentralized (charged locally) or **centralized**
//!   (serialized through a single coordinator — the configuration the
//!   paper measured at up to 80 % scheduler share),
//! - a **sync** overhead on every dependency crossing units (thread
//!   synchronization), and
//! - a **context-switch** overhead whenever a processor switches
//!   between units (the §5.2 "synchronization losses" when modules
//!   outnumber processors).
//!
//! The result is a makespan; speedup is computed against the same trace
//! replayed on one processor. This reproduces the *shape* of the
//! paper's measurements deterministically.
//!
//! The [`mapping`] module additionally implements the *automatic
//! mapping algorithm* the paper announces as under development
//! (ref \[7\]): LPT seeding plus makespan-guided local search over
//! module→unit assignments.
//!
//! # Examples
//!
//! ```
//! use estelle::{ExecTrace, FiringRecord, GroupingPolicy, ModuleId, ModuleLabels};
//! use ksim::{Machine, Overheads};
//! use netsim::SimDuration;
//!
//! // Two independent chains of work (e.g. two connections).
//! let mut records = Vec::new();
//! for i in 0..20u64 {
//!     records.push(FiringRecord {
//!         seq: i + 1,
//!         module: ModuleId::from_raw((i % 2) as u32),
//!         labels: ModuleLabels::conn((i % 2) as u16),
//!         module_type: "Conn",
//!         transition: "work",
//!         cost: SimDuration::from_micros(100),
//!         deps: if i >= 2 { vec![i - 1] } else { vec![] },
//!     });
//! }
//! let trace = ExecTrace { records, modules: vec![] };
//! let machine = Machine { processors: 2, overheads: Overheads::default() };
//! let report = ksim::simulate(&trace, GroupingPolicy::ByConnection { units: 2 }, &machine);
//! let baseline = ksim::simulate(&trace, GroupingPolicy::Single,
//!                               &Machine { processors: 1, overheads: Overheads::default() });
//! let speedup = baseline.makespan.as_secs_f64() / report.makespan.as_secs_f64();
//! assert!(speedup > 1.5, "two independent chains on two processors: {speedup}");
//! ```

#![warn(missing_docs)]

mod machine;
pub mod mapping;
mod replay;
mod report;

pub use machine::{Machine, Overheads};
pub use mapping::{optimize, CostModel, ExplicitMapping, OptimizeOptions, Optimized};
pub use replay::{simulate, simulate_sequential};
pub use report::{speedup, SimReport};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::simulate_with;
    use estelle::{ExecTrace, FiringRecord, GroupingPolicy, ModuleId, ModuleLabels};
    use netsim::SimDuration;

    fn rec(seq: u64, module: u32, conn: u16, cost_us: u64, deps: Vec<u64>) -> FiringRecord {
        FiringRecord {
            seq,
            module: ModuleId::from_raw(module),
            labels: ModuleLabels::conn(conn),
            module_type: "T",
            transition: "t",
            cost: SimDuration::from_micros(cost_us),
            deps,
        }
    }

    /// Two completely independent chains of N firings each,
    /// interleaved in sequence order.
    fn two_chains(n: u64, cost_us: u64) -> ExecTrace {
        let mut records = Vec::new();
        let mut prev = [None::<u64>; 2];
        let mut seq = 0u64;
        for _ in 0..n {
            for chain in 0..2u32 {
                seq += 1;
                records.push(rec(
                    seq,
                    chain,
                    chain as u16,
                    cost_us,
                    prev[chain as usize].into_iter().collect(),
                ));
                prev[chain as usize] = Some(seq);
            }
        }
        ExecTrace {
            records,
            modules: vec![],
        }
    }

    #[test]
    fn sequential_makespan_is_work_plus_dispatch() {
        let t = two_chains(10, 100);
        let ov = Overheads {
            dispatch: SimDuration::from_micros(5),
            ..Default::default()
        };
        let r = simulate_sequential(&t, ov);
        // 20 firings * (100 + 5) us, no switches in one unit.
        assert_eq!(r.makespan.as_micros(), 20 * 105);
        assert_eq!(r.units, 1);
        assert_eq!(r.ctx_switches, 0);
    }

    #[test]
    fn independent_chains_scale_to_two_processors() {
        let t = two_chains(50, 100);
        let base = simulate_sequential(&t, Overheads::default());
        let par = simulate(
            &t,
            GroupingPolicy::ByConnection { units: 2 },
            &Machine::with_processors(2),
        );
        let s = speedup(&base, &par);
        assert!(s > 1.8 && s <= 2.0, "speedup {s}");
        assert!(par.utilization() > 0.9);
    }

    #[test]
    fn dependent_chain_does_not_scale() {
        // One strict dependency chain bouncing over four modules.
        let mut records = Vec::new();
        for i in 1..=40u64 {
            records.push(rec(
                i,
                (i % 4) as u32,
                (i % 4) as u16,
                100,
                if i > 1 { vec![i - 1] } else { vec![] },
            ));
        }
        let t = ExecTrace {
            records,
            modules: vec![],
        };
        let base = simulate_sequential(&t, Overheads::default());
        let par = simulate(
            &t,
            GroupingPolicy::ByConnection { units: 4 },
            &Machine::with_processors(4),
        );
        let s = speedup(&base, &par);
        assert!(s < 1.05, "a serial dependency chain cannot speed up: {s}");
    }

    #[test]
    fn centralized_scheduler_becomes_bottleneck() {
        // Many tiny transitions: dispatch dominates.
        let t = two_chains(200, 5);
        let dec = simulate(
            &t,
            GroupingPolicy::ByConnection { units: 2 },
            &Machine {
                processors: 2,
                overheads: Overheads {
                    dispatch: SimDuration::from_micros(10),
                    ..Default::default()
                },
            },
        );
        let cen = simulate(
            &t,
            GroupingPolicy::ByConnection { units: 2 },
            &Machine {
                processors: 2,
                overheads: Overheads {
                    dispatch: SimDuration::from_micros(10),
                    centralized: true,
                    ..Default::default()
                },
            },
        );
        assert!(
            cen.makespan > dec.makespan,
            "coordinator serializes dispatch"
        );
        assert!(
            cen.dispatch_time > cen.work + cen.sync_time,
            "dispatch {} is most of the charged time (work {}, sync {})",
            cen.dispatch_time,
            cen.work,
            cen.sync_time
        );
    }

    #[test]
    fn grouping_beats_module_per_thread_when_oversubscribed() {
        // 8 independent chains on 2 processors.
        let mut records = Vec::new();
        let mut seq = 0u64;
        let mut prev = [None::<u64>; 8];
        for _round in 0..30 {
            for chain in 0..8u32 {
                seq += 1;
                records.push(rec(
                    seq,
                    chain,
                    chain as u16,
                    50,
                    prev[chain as usize].into_iter().collect(),
                ));
                prev[chain as usize] = Some(seq);
            }
        }
        let t = ExecTrace {
            records,
            modules: vec![],
        };
        let machine = Machine {
            processors: 2,
            overheads: Overheads::ksr1_like(),
        };
        let per_module = simulate(&t, GroupingPolicy::PerModule, &machine);
        let grouped = simulate(&t, GroupingPolicy::ByConnection { units: 2 }, &machine);
        assert!(
            grouped.makespan < per_module.makespan,
            "grouped {} vs per-module {}",
            grouped.makespan,
            per_module.makespan
        );
        assert!(grouped.ctx_switches < per_module.ctx_switches);
    }

    #[test]
    fn more_processors_than_parallelism_saturates() {
        let t = two_chains(50, 100);
        let base = simulate_sequential(&t, Overheads::default());
        let p2 = simulate(
            &t,
            GroupingPolicy::ByConnection { units: 2 },
            &Machine::with_processors(2),
        );
        let p8 = simulate(
            &t,
            GroupingPolicy::ByConnection { units: 8 },
            &Machine::with_processors(8),
        );
        let s2 = speedup(&base, &p2);
        let s8 = speedup(&base, &p8);
        assert!(
            (s8 - s2).abs() < 0.2,
            "two chains cannot use 8 CPUs: {s2} vs {s8}"
        );
    }

    #[test]
    fn report_counters_consistent() {
        let t = two_chains(10, 100);
        let r = simulate(
            &t,
            GroupingPolicy::ByConnection { units: 2 },
            &Machine::with_processors(2),
        );
        assert_eq!(r.firings, 20);
        assert_eq!(r.units, 2);
        assert_eq!(r.work.as_micros(), 2000);
        assert!(r.utilization() > 0.0 && r.utilization() <= 1.0);
    }

    #[test]
    fn simulate_with_matches_policy_simulate() {
        let t = two_chains(25, 80);
        let machine = Machine::with_processors(2);
        let policy = GroupingPolicy::ByConnection { units: 2 };
        let via_policy = simulate(&t, policy, &machine);
        let via_fn = simulate_with(&t, |id, labels| policy.assign(id, labels), &machine);
        assert_eq!(via_policy.makespan, via_fn.makespan);
        assert_eq!(via_policy.ctx_switches, via_fn.ctx_switches);
    }

    #[test]
    fn free_overheads_reach_ideal_speedup() {
        let t = two_chains(100, 100);
        let base = simulate_sequential(&t, Overheads::free());
        let par = simulate(
            &t,
            GroupingPolicy::ByConnection { units: 2 },
            &Machine {
                processors: 2,
                overheads: Overheads::free(),
            },
        );
        let s = speedup(&base, &par);
        assert!(
            (s - 2.0).abs() < 1e-9,
            "ideal machine must halve the makespan: {s}"
        );
    }
}
