//! Identifier newtypes for the Estelle runtime.

use std::fmt;

/// Identifies a module instance within a [`crate::Runtime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModuleId(pub(crate) u32);

impl ModuleId {
    /// Constructs a module id from a raw index. Intended for trace
    /// consumers (e.g. the `ksim` replay simulator) building synthetic
    /// traces; ids handed to a live [`crate::Runtime`] must come from
    /// that runtime.
    pub fn from_raw(raw: u32) -> Self {
        ModuleId(raw)
    }

    /// The raw index of this module id.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id after this one (scan cursors step with it).
    pub(crate) fn next(self) -> Self {
        ModuleId(self.0 + 1)
    }
}

impl fmt::Display for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A state of a finite state machine. Modules define their states as
/// constants: `const IDLE: StateId = StateId(0);`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StateId(pub u16);

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Index of an interaction point local to a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct IpIndex(pub u16);

impl fmt::Display for IpIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ip{}", self.0)
    }
}

/// A global reference to one interaction point of one module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IpRef {
    /// The owning module.
    pub module: ModuleId,
    /// The interaction point within that module.
    pub ip: IpIndex,
}

impl fmt::Display for IpRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.module, self.ip)
    }
}

/// Identifies an execution unit (a group of modules run by one worker,
/// paper §5.2 "grouping scheme").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct UnitId(pub u32);

impl fmt::Display for UnitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// The Estelle module attribute controlling hierarchy and parallelism
/// (ISO 9074; paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModuleKind {
    /// Top-level parallel module; static population, runs asynchronously
    /// and in parallel with other system modules.
    SystemProcess,
    /// Top-level module whose active descendants are mutually exclusive.
    SystemActivity,
    /// Nested module whose children of kind `process` may run in
    /// parallel with each other.
    Process,
    /// Nested module whose children are mutually exclusive.
    Activity,
    /// An unattributed structuring module (e.g. the specification root).
    /// Inactive: it has no transitions of its own and may contain system
    /// modules.
    Inactive,
}

impl ModuleKind {
    /// True for any of the four Estelle attributes (i.e. the module is
    /// active and participates in scheduling).
    pub(crate) fn is_attributed(self) -> bool {
        !matches!(self, ModuleKind::Inactive)
    }

    /// True if children of a module of this kind are mutually exclusive
    /// (`activity` semantics).
    pub fn children_exclusive(self) -> bool {
        matches!(self, ModuleKind::SystemActivity | ModuleKind::Activity)
    }
}

impl fmt::Display for ModuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ModuleKind::SystemProcess => "systemprocess",
            ModuleKind::SystemActivity => "systemactivity",
            ModuleKind::Process => "process",
            ModuleKind::Activity => "activity",
            ModuleKind::Inactive => "inactive",
        };
        f.write_str(s)
    }
}

/// Optional classification labels used by grouping policies
/// (connection-per-processor vs layer-per-processor, paper §3/§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ModuleLabels {
    /// Protocol-layer index (e.g. 0 = application, 1 = presentation,
    /// 2 = session).
    pub layer: Option<u16>,
    /// Connection index this module serves.
    pub conn: Option<u16>,
}

impl ModuleLabels {
    /// Labels with only the connection set.
    pub fn conn(conn: u16) -> Self {
        ModuleLabels {
            layer: None,
            conn: Some(conn),
        }
    }

    /// Labels with both layer and connection set.
    pub fn layer_conn(layer: u16, conn: u16) -> Self {
        ModuleLabels {
            layer: Some(layer),
            conn: Some(conn),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(ModuleKind::Process.is_attributed());
        assert!(!ModuleKind::Inactive.is_attributed());
        assert!(ModuleKind::Activity.children_exclusive());
        assert!(ModuleKind::SystemActivity.children_exclusive());
        assert!(!ModuleKind::Process.children_exclusive());
    }

    #[test]
    fn display_formats() {
        assert_eq!(ModuleId(3).to_string(), "m3");
        assert_eq!(StateId(1).to_string(), "s1");
        assert_eq!(IpIndex(2).to_string(), "ip2");
        assert_eq!(
            IpRef {
                module: ModuleId(3),
                ip: IpIndex(2)
            }
            .to_string(),
            "m3.ip2"
        );
        assert_eq!(ModuleKind::SystemActivity.to_string(), "systemactivity");
    }

    #[test]
    fn labels_builders() {
        assert_eq!(ModuleLabels::conn(2).conn, Some(2));
        let lc = ModuleLabels::layer_conn(1, 2);
        assert_eq!((lc.layer, lc.conn), (Some(1), Some(2)));
    }
}
