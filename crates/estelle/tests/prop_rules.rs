//! Property tests: structural attribute rules and token conservation.

use estelle::sched::{run_sequential, SeqOptions};
use estelle::{
    downcast, impl_interaction, ip, Ctx, IpIndex, ModuleKind, ModuleLabels, Runtime, StateId,
    StateMachine, Transition,
};
use proptest::prelude::*;

fn kind_strategy() -> impl Strategy<Value = ModuleKind> {
    prop_oneof![
        Just(ModuleKind::SystemProcess),
        Just(ModuleKind::SystemActivity),
        Just(ModuleKind::Process),
        Just(ModuleKind::Activity),
        Just(ModuleKind::Inactive),
    ]
}

/// Reference predicate, written independently of the implementation,
/// straight from the rule list in the paper's §4.
fn reference_rule(parent: Option<ModuleKind>, child: ModuleKind) -> bool {
    use ModuleKind::*;
    match child {
        // A system module cannot be contained in another attributed
        // module; inactive containers (or top level) are fine.
        SystemProcess | SystemActivity => matches!(parent, None | Some(Inactive)),
        // Each process/activity module must be contained in a system
        // module, i.e. its parent must be attributed; activity-kind
        // parents may only contain activities.
        Process => matches!(parent, Some(SystemProcess | Process)),
        Activity => matches!(
            parent,
            Some(SystemProcess | Process | SystemActivity | Activity)
        ),
        // Inactive structuring modules only above system modules.
        Inactive => matches!(parent, None | Some(Inactive)),
    }
}

proptest! {
    #[test]
    fn validate_child_kind_matches_reference(
        parent in proptest::option::of(kind_strategy()),
        child in kind_strategy(),
    ) {
        let got = estelle::validate_child_kind(parent, child).is_ok();
        prop_assert_eq!(got, reference_rule(parent, child),
            "parent={:?} child={:?}", parent, child);
    }
}

// ---------------------------------------------------------------------
// Token conservation: on a ring of any size, a token makes exactly as
// many hops as its time to live allows.
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Hop(u32);
impl_interaction!(Hop);

const IN: IpIndex = IpIndex(0);
const OUT: IpIndex = IpIndex(1);

#[derive(Debug, Default)]
struct RingNode {
    hops_seen: u32,
    inject: Option<u32>,
}

impl StateMachine for RingNode {
    fn num_ips(&self) -> usize {
        2
    }
    fn initial_state(&self) -> StateId {
        StateId(0)
    }
    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(ttl) = self.inject {
            ctx.output(OUT, Hop(ttl));
        }
    }
    fn transitions() -> Vec<Transition<Self>> {
        vec![Transition::on(
            "forward",
            StateId(0),
            IN,
            |m: &mut Self, ctx, msg| {
                let h = downcast::<Hop>(msg.unwrap()).unwrap();
                m.hops_seen += 1;
                if h.0 > 0 {
                    ctx.output(OUT, Hop(h.0 - 1));
                }
            },
        )]
    }
}

fn build_ring(n: usize, ttl: u32) -> (Runtime, Vec<estelle::ModuleId>) {
    let (rt, _clock) = Runtime::sim();
    let ids: Vec<_> = (0..n)
        .map(|i| {
            rt.add_module(
                None,
                format!("node{i}"),
                ModuleKind::SystemProcess,
                ModuleLabels::conn(i as u16),
                RingNode {
                    inject: (i == 0).then_some(ttl),
                    ..Default::default()
                },
            )
            .unwrap()
        })
        .collect();
    for i in 0..n {
        rt.connect(ip(ids[i], OUT), ip(ids[(i + 1) % n], IN))
            .unwrap();
    }
    rt.start().unwrap();
    (rt, ids)
}

fn hops(rt: &Runtime, ids: &[estelle::ModuleId]) -> Vec<u32> {
    ids.iter()
        .map(|&id| rt.with_machine::<RingNode, _>(id, |m| m.hops_seen).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn ring_conservation(n in 2usize..8, ttl in 0u32..100) {
        let (rt, ids) = build_ring(n, ttl);
        run_sequential(&rt, &SeqOptions::default());
        let total: u32 = hops(&rt, &ids).iter().sum();
        // Token travels exactly ttl+1 hops before dying.
        prop_assert_eq!(total, ttl + 1);
        prop_assert_eq!(rt.counters().lost_outputs, 0);
    }
}
