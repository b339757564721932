//! Deployment planning — the paper's §4.4 compilation/start model.
//!
//! §4.1/§4.4: *"In comments, we declare the location (i.e. a machine
//! name) where the module will be placed in the implementation. …
//! For each `systemprocess` module and for the specification root
//! module, we create an executable file. It is necessary to build
//! these files on each target machine … The specification module is
//! started by hand on the server machine. It will then start the
//! server itself and the specified number of clients on the different
//! client machines. The information on where to start a client is
//! taken from the comments in the Estelle source."*
//!
//! A [`DeploymentPlan`] carries those "location comments": each
//! *system* module is placed on a machine; child modules implicitly
//! follow their enclosing system module. [`DeploymentPlan::resolve`]
//! validates the plan against a built [`Runtime`] and produces a
//! [`Deployment`] with, per machine, the executables to build (one per
//! system-module *type*, plus the specification executable on the
//! launch machine) and the modules to start.

use crate::ids::{ModuleId, ModuleKind};
use crate::runtime::Runtime;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// Errors detected when resolving a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// A placed module does not exist (or is no longer alive).
    UnknownModule(ModuleId),
    /// Only system modules (and inactive structuring modules) may
    /// carry a location comment; children follow their system module.
    NotASystemModule(ModuleId),
    /// A system module has no location comment.
    Unplaced(String),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::UnknownModule(id) => write!(f, "unknown module {id}"),
            DeployError::NotASystemModule(id) => {
                write!(
                    f,
                    "module {id} is not a system module; place its system ancestor"
                )
            }
            DeployError::Unplaced(name) => {
                write!(f, "system module {name:?} has no location comment")
            }
        }
    }
}

impl std::error::Error for DeployError {}

/// The per-module "location comments" of §4.1.
#[derive(Debug, Clone, Default)]
pub struct DeploymentPlan {
    locations: HashMap<ModuleId, String>,
    launch_machine: Option<String>,
}

impl DeploymentPlan {
    /// An empty plan.
    pub fn new() -> Self {
        DeploymentPlan::default()
    }

    /// Places a system module on `machine` (the location comment).
    pub fn place(mut self, module: ModuleId, machine: impl Into<String>) -> Self {
        self.locations.insert(module, machine.into());
        self
    }

    /// Declares the machine where the specification executable is
    /// "started by hand" (the paper: the server machine). Defaults to
    /// the machine of the first placed module.
    pub fn launch_from(mut self, machine: impl Into<String>) -> Self {
        self.launch_machine = Some(machine.into());
        self
    }

    /// Validates the plan against `rt` and computes the per-machine
    /// build/start sets.
    ///
    /// # Errors
    ///
    /// Fails if a placement names an unknown or non-system module, or
    /// if any alive system module is left without a location.
    pub fn resolve(&self, rt: &Runtime) -> Result<Deployment, DeployError> {
        for &id in self.locations.keys() {
            let meta = rt.module_meta(id).ok_or(DeployError::UnknownModule(id))?;
            if !meta.alive {
                return Err(DeployError::UnknownModule(id));
            }
            if !matches!(
                meta.kind,
                ModuleKind::SystemProcess | ModuleKind::SystemActivity
            ) {
                return Err(DeployError::NotASystemModule(id));
            }
        }
        let mut machines: BTreeMap<String, MachineAssignment> = BTreeMap::new();
        for id in rt.alive_modules() {
            let Some(meta) = rt.module_meta(id) else {
                continue;
            };
            if !matches!(
                meta.kind,
                ModuleKind::SystemProcess | ModuleKind::SystemActivity
            ) {
                continue;
            }
            let machine = self
                .locations
                .get(&id)
                .ok_or_else(|| DeployError::Unplaced(meta.name.clone()))?;
            let entry = machines.entry(machine.clone()).or_default();
            entry.modules.push(id);
            if let Some(t) = rt.module_type(id) {
                entry.executables.insert(t.to_string());
            }
        }
        let launch = self
            .launch_machine
            .clone()
            .or_else(|| machines.keys().next().cloned())
            .unwrap_or_else(|| "localhost".to_string());
        // "For … the specification root module, we create an
        // executable file" — built on the launch machine.
        machines
            .entry(launch.clone())
            .or_default()
            .executables
            .insert("specification".to_string());
        Ok(Deployment { machines, launch })
    }
}

/// What one machine builds and starts.
#[derive(Debug, Clone, Default)]
pub struct MachineAssignment {
    /// System modules started on this machine, in id order.
    pub modules: Vec<ModuleId>,
    /// Executables to build on this machine (one per system-module
    /// type; the launch machine additionally builds `specification`).
    pub executables: BTreeSet<String>,
}

/// A validated deployment: per-machine assignments plus the launch
/// machine where the specification executable is started by hand.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Machine name → assignment, sorted by machine name.
    pub machines: BTreeMap<String, MachineAssignment>,
    /// Machine where the specification module is started by hand.
    pub launch: String,
}

impl Deployment {
    /// Renders the §4.4 build-and-start report.
    pub fn render(&self, rt: &Runtime) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "deployment (specification started by hand on {}):\n",
            self.launch
        ));
        for (machine, a) in &self.machines {
            out.push_str(&format!("  machine {machine}:\n"));
            let builds: Vec<&str> = a.executables.iter().map(String::as_str).collect();
            out.push_str(&format!("    build: {}\n", builds.join(", ")));
            for &m in &a.modules {
                let name = rt
                    .module_meta(m)
                    .map(|meta| meta.name)
                    .unwrap_or_else(|| m.to_string());
                out.push_str(&format!("    start: {name}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ModuleLabels, StateId};
    use crate::machine::{StateMachine, Transition};

    #[derive(Debug, Default)]
    struct Noop;
    impl StateMachine for Noop {
        fn num_ips(&self) -> usize {
            0
        }
        fn initial_state(&self) -> StateId {
            StateId(0)
        }
        fn transitions() -> Vec<Transition<Self>> {
            vec![]
        }
    }

    #[derive(Debug, Default)]
    struct Server;
    impl StateMachine for Server {
        fn num_ips(&self) -> usize {
            0
        }
        fn initial_state(&self) -> StateId {
            StateId(0)
        }
        fn transitions() -> Vec<Transition<Self>> {
            vec![]
        }
    }

    fn world() -> (Runtime, ModuleId, ModuleId, ModuleId) {
        let (rt, _c) = Runtime::sim();
        let server = rt
            .add_module(
                None,
                "server",
                ModuleKind::SystemProcess,
                ModuleLabels::default(),
                Server,
            )
            .unwrap();
        let c1 = rt
            .add_module(
                None,
                "client-1",
                ModuleKind::SystemProcess,
                ModuleLabels::conn(1),
                Noop,
            )
            .unwrap();
        let c2 = rt
            .add_module(
                None,
                "client-2",
                ModuleKind::SystemProcess,
                ModuleLabels::conn(2),
                Noop,
            )
            .unwrap();
        (rt, server, c1, c2)
    }

    #[test]
    fn full_plan_resolves_and_renders() {
        let (rt, server, c1, c2) = world();
        let plan = DeploymentPlan::new()
            .place(server, "ksr1")
            .place(c1, "sun-ws")
            .place(c2, "dec-ws")
            .launch_from("ksr1");
        let d = plan.resolve(&rt).unwrap();
        assert_eq!(
            d.machines.keys().collect::<Vec<_>>(),
            ["dec-ws", "ksr1", "sun-ws"]
        );
        assert_eq!(d.machines["ksr1"].modules, [server]);
        assert_eq!(d.machines["sun-ws"].modules, [c1]);
        // The launch machine builds the specification executable too.
        let ksr1 = &d.machines["ksr1"];
        assert!(ksr1.executables.contains("specification"));
        assert!(ksr1.executables.contains("Server"));
        // Client machines build only the client executable.
        let sun = &d.machines["sun-ws"];
        assert_eq!(
            sun.executables.iter().collect::<Vec<_>>(),
            vec![&"Noop".to_string()]
        );
        let report = d.render(&rt);
        assert!(report.contains("started by hand on ksr1"));
        assert!(report.contains("machine sun-ws"));
        assert!(report.contains("start: client-1"));
    }

    #[test]
    fn unplaced_system_module_rejected() {
        let (rt, server, c1, _c2) = world();
        let plan = DeploymentPlan::new()
            .place(server, "ksr1")
            .place(c1, "sun-ws");
        assert_eq!(
            plan.resolve(&rt).unwrap_err(),
            DeployError::Unplaced("client-2".into())
        );
    }

    #[test]
    fn placing_a_child_module_rejected() {
        let (rt, server, c1, c2) = world();
        let child = rt
            .add_module(
                Some(server),
                "entity",
                ModuleKind::Process,
                ModuleLabels::default(),
                Noop,
            )
            .unwrap();
        let plan = DeploymentPlan::new()
            .place(server, "ksr1")
            .place(c1, "a")
            .place(c2, "b")
            .place(child, "elsewhere");
        assert_eq!(
            plan.resolve(&rt).unwrap_err(),
            DeployError::NotASystemModule(child)
        );
    }

    #[test]
    fn same_type_clients_share_one_executable() {
        let (rt, server, c1, c2) = world();
        let plan = DeploymentPlan::new()
            .place(server, "ksr1")
            .place(c1, "lab")
            .place(c2, "lab");
        let d = plan.resolve(&rt).unwrap();
        let lab = &d.machines["lab"];
        assert_eq!(lab.modules.len(), 2);
        assert_eq!(lab.executables.len(), 1, "one binary per module type");
    }

    #[test]
    fn unknown_module_rejected() {
        let (rt, server, c1, c2) = world();
        let plan = DeploymentPlan::new()
            .place(server, "ksr1")
            .place(c1, "a")
            .place(c2, "b")
            .place(ModuleId::from_raw(999), "ghost");
        assert_eq!(
            plan.resolve(&rt).unwrap_err(),
            DeployError::UnknownModule(ModuleId::from_raw(999))
        );
    }
}
