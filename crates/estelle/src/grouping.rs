//! Module grouping — mapping Estelle modules to execution units.
//!
//! The paper (§5.2) shows that mapping every module to its own thread
//! loses to *grouping* modules into as many units as there are
//! processors, and (§3) that *connection-per-processor* outperforms
//! *layer-per-processor*. These policies are encoded here and consumed
//! by the `ksim` multiprocessor simulator, which replays recorded
//! traces under them.

use crate::ids::{ModuleId, ModuleLabels, UnitId};

/// A policy assigning each module to an execution unit.
///
/// Policies are pure functions of module identity/metadata so that
/// modules created dynamically (e.g. per-connection protocol entities)
/// receive a stable unit without global coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupingPolicy {
    /// One unit per module — the generator's default "maximum degree of
    /// parallelism" mapping.
    PerModule,
    /// Modules are spread over `units` round-robin by id.
    RoundRobin {
        /// Number of units.
        units: u32,
    },
    /// Connection-per-processor: modules sharing a `conn` label share a
    /// unit (`conn % units`); unlabeled modules go to unit 0.
    ByConnection {
        /// Number of units.
        units: u32,
    },
    /// Layer-per-processor: modules sharing a `layer` label share a
    /// unit (`layer % units`); unlabeled modules go to unit 0.
    ByLayer {
        /// Number of units.
        units: u32,
    },
    /// All modules in one unit — fully sequential execution.
    Single,
}

impl GroupingPolicy {
    /// Unit assignment for a module given its id and labels.
    pub fn assign(&self, id: ModuleId, labels: ModuleLabels) -> UnitId {
        match *self {
            GroupingPolicy::PerModule => UnitId(id.index() as u32),
            GroupingPolicy::RoundRobin { units } => UnitId(id.index() as u32 % units.max(1)),
            GroupingPolicy::ByConnection { units } => {
                UnitId(u32::from(labels.conn.unwrap_or(0)) % units.max(1))
            }
            GroupingPolicy::ByLayer { units } => {
                UnitId(u32::from(labels.layer.unwrap_or(0)) % units.max(1))
            }
            GroupingPolicy::Single => UnitId(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_module_is_identity() {
        let p = GroupingPolicy::PerModule;
        assert_eq!(p.assign(ModuleId(7), ModuleLabels::default()), UnitId(7));
    }

    #[test]
    fn round_robin_wraps() {
        let p = GroupingPolicy::RoundRobin { units: 3 };
        assert_eq!(p.assign(ModuleId(0), ModuleLabels::default()), UnitId(0));
        assert_eq!(p.assign(ModuleId(4), ModuleLabels::default()), UnitId(1));
    }

    #[test]
    fn by_connection_groups_conn_chains() {
        let p = GroupingPolicy::ByConnection { units: 2 };
        let c0 = ModuleLabels::conn(0);
        let c1 = ModuleLabels::conn(1);
        let c2 = ModuleLabels::conn(2);
        assert_eq!(p.assign(ModuleId(10), c0), UnitId(0));
        assert_eq!(p.assign(ModuleId(11), c1), UnitId(1));
        assert_eq!(p.assign(ModuleId(12), c2), UnitId(0));
        // Same connection, different modules => same unit.
        assert_eq!(p.assign(ModuleId(99), c1), UnitId(1));
    }

    #[test]
    fn by_layer_groups_layers() {
        let p = GroupingPolicy::ByLayer { units: 4 };
        let layer = |layer| ModuleLabels {
            layer: Some(layer),
            conn: None,
        };
        assert_eq!(p.assign(ModuleId(1), layer(2)), UnitId(2));
        assert_eq!(p.assign(ModuleId(2), layer(6)), UnitId(2));
        assert_eq!(
            p.assign(ModuleId(3), ModuleLabels::default()),
            UnitId(0),
            "unlabeled modules fall back to unit 0"
        );
    }

    #[test]
    fn zero_units_clamped() {
        let p = GroupingPolicy::RoundRobin { units: 0 };
        assert_eq!(p.assign(ModuleId(5), ModuleLabels::default()), UnitId(0));
    }

    #[test]
    fn single_maps_everything_to_zero() {
        let p = GroupingPolicy::Single;
        for i in 0..10 {
            assert_eq!(
                p.assign(ModuleId(i), ModuleLabels::layer_conn(3, 4)),
                UnitId(0)
            );
        }
    }
}
