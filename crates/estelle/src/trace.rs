//! Execution traces.
//!
//! A trace records every transition firing with its virtual cost and
//! its causal dependencies (program order within a module, plus the
//! producing firing of every consumed message). The `ksim` crate
//! replays such traces on a simulated multiprocessor to predict
//! speedup under different module-to-processor mappings — the KSR1
//! substitute of this reproduction.

use crate::ids::{ModuleId, ModuleKind, ModuleLabels};
use netsim::SimDuration;

/// One recorded transition (or `initialize` block) firing.
#[derive(Debug, Clone)]
pub struct FiringRecord {
    /// Global firing sequence number (total order of the recorded run).
    pub seq: u64,
    /// The module that fired.
    pub module: ModuleId,
    /// The module's grouping labels at firing time.
    pub labels: ModuleLabels,
    /// Module type name.
    pub module_type: &'static str,
    /// Transition name (`"initialize"` for init blocks).
    pub transition: &'static str,
    /// Virtual execution cost.
    pub cost: SimDuration,
    /// Sequence numbers this firing causally depends on.
    pub deps: Vec<u64>,
}

/// Metadata for one module that participated in a traced run.
#[derive(Debug, Clone)]
pub struct TraceModuleMeta {
    /// Module id.
    pub id: ModuleId,
    /// Instance name.
    pub name: String,
    /// Estelle attribute.
    pub kind: ModuleKind,
    /// Grouping labels.
    pub labels: ModuleLabels,
    /// Parent module, if any.
    pub parent: Option<ModuleId>,
}

/// A complete recorded execution.
#[derive(Debug, Clone, Default)]
pub struct ExecTrace {
    /// Firings in global sequence order.
    pub records: Vec<FiringRecord>,
    /// All modules that existed during the run (including released
    /// ones).
    pub modules: Vec<TraceModuleMeta>,
}

impl ExecTrace {
    /// Looks up the metadata of `id`.
    pub fn meta(&self, id: ModuleId) -> Option<&TraceModuleMeta> {
        self.modules.iter().find(|m| m.id == id)
    }

    /// Verifies internal consistency: seqs strictly increasing and all
    /// dependencies pointing backwards. Returns a description of the
    /// first violation found.
    pub fn validate(&self) -> Result<(), String> {
        let mut last = None;
        for r in &self.records {
            if let Some(l) = last {
                if r.seq <= l {
                    return Err(format!("seq {} not increasing after {}", r.seq, l));
                }
            }
            for &d in &r.deps {
                if d >= r.seq {
                    return Err(format!("firing {} depends on future/self {}", r.seq, d));
                }
            }
            last = Some(r.seq);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, module: u32, cost_us: u64, deps: Vec<u64>) -> FiringRecord {
        FiringRecord {
            seq,
            module: ModuleId(module),
            labels: ModuleLabels::default(),
            module_type: "T",
            transition: "t",
            cost: SimDuration::from_micros(cost_us),
            deps,
        }
    }

    #[test]
    fn validate_accepts_backward_deps() {
        let t = ExecTrace {
            records: vec![
                rec(1, 0, 10, vec![]),
                rec(2, 1, 20, vec![1]),
                rec(3, 0, 5, vec![1, 2]),
            ],
            modules: vec![],
        };
        assert!(t.validate().is_ok());
    }

    #[test]
    fn meta_looks_up_recorded_modules() {
        let t = ExecTrace {
            records: vec![],
            modules: vec![TraceModuleMeta {
                id: ModuleId(3),
                name: "srv".into(),
                kind: ModuleKind::SystemProcess,
                labels: ModuleLabels::default(),
                parent: None,
            }],
        };
        assert_eq!(t.meta(ModuleId(3)).map(|m| m.name.as_str()), Some("srv"));
        assert!(t.meta(ModuleId(4)).is_none());
    }

    #[test]
    fn validate_catches_future_dep() {
        let t = ExecTrace {
            records: vec![rec(1, 0, 10, vec![2]), rec(2, 1, 20, vec![])],
            modules: vec![],
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_catches_nonmonotonic_seq() {
        let t = ExecTrace {
            records: vec![rec(2, 0, 10, vec![]), rec(1, 1, 20, vec![])],
            modules: vec![],
        };
        assert!(t.validate().is_err());
    }
}
