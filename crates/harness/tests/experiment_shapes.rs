//! One walk of [`harness::EXPERIMENTS`] at the small scale: every row
//! runs and the shape the paper reports holds (the `experiments` binary
//! checks the paper-scale parameter sets). The walk is one `#[test]`
//! per row so a failure names the row twice, in the test and in the
//! message.

use harness::{Scale, EXPERIMENTS};

fn holds(id: &str) {
    let failed = harness::experiment(id).report(Scale::Small);
    assert!(failed.is_empty(), "{failed:#?}");
}

macro_rules! walk {
    ($($test:ident => $id:literal),+ $(,)?) => {
        const WALKED: &[&str] = &[$($id),+];
        $(
            #[test]
            fn $test() {
                holds($id);
            }
        )+
    };
}

walk! {
    t1_dichotomy_holds_at_small_scale => "T1",
    e1_speedup_in_band_at_small_scale => "E1",
    e2_grouping_never_loses => "E2",
    e3_dispatch_table_flatter_than_hardcoded => "E3",
    e4_centralized_scheduler_dominates_critical_path => "E4",
    e5_handcoded_fewer_firings_same_order => "E5",
    e6_parallel_asn1_never_wins => "E6",
    e7_connection_beats_layer => "E7",
    ablation_speedup_monotone_in_sync_cost => "A1",
    a2_optimizer_never_loses_to_static_policies => "A2",
}

/// The table is the paper's ten artifacts, each once and in the
/// paper's order: exactly the ids the walk above spells out.
#[test]
fn ids_are_the_papers_ten() {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|row| row.id).collect();
    assert_eq!(ids, WALKED);
}
