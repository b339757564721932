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

/// Simulated encoder speed for E6's twin: ten BER bytes per
/// microsecond of a simulated processor. At 1 000 elements (~23 KB)
/// the claim holds for any speed above about six bytes per
/// microsecond; a slower encoder makes the chunks long enough to pay
/// for the thread handoffs.
const ENCODE_BYTES_PER_US: u64 = 10;

/// The trace of one `encode_sequence_of_parallel` call over `n` movie
/// attribute sets with `workers` threads: the caller (module 0) forks,
/// worker `i` (module `i`) encodes chunk `i` of the same split the
/// encoder uses, costing its encoded bytes, and the caller joins and
/// copies every chunk under the outer TLV, costing all the bytes again.
fn parallel_encode_trace(n: usize, workers: usize) -> estelle::ExecTrace {
    use estelle::{FiringRecord, ModuleId, ModuleLabels};
    use netsim::SimDuration;
    let mut records = Vec::new();
    let mut fire = |module: u32, transition, bytes: usize, deps: Vec<u64>| {
        records.push(FiringRecord {
            seq: records.len() as u64,
            module: ModuleId::from_raw(module),
            labels: ModuleLabels::default(),
            module_type: if module == 0 { "caller" } else { "worker" },
            transition,
            cost: SimDuration::from_micros(bytes as u64 / ENCODE_BYTES_PER_US),
            deps,
        });
    };
    fire(0, "fork", 0, vec![]);
    let items = harness::movie_attribute_sets(n);
    let (mut total, mut joined) = (0, Vec::new());
    for (worker, chunk) in (1..).zip(items.chunks(n.div_ceil(workers))) {
        let bytes: usize = chunk.iter().map(|v| v.to_ber().len()).sum();
        fire(worker, "encode-chunk", bytes, vec![0]);
        total += bytes;
        joined.push(u64::from(worker));
    }
    fire(0, "join-copy", total, joined);
    estelle::ExecTrace {
        records,
        modules: vec![],
    }
}

/// E6's deterministic twin. The host-clock row races real threads and
/// can fail on a loaded machine; this replays the parallel encoder's
/// shape on `ksim` under OSF/1 thread overheads, where the outcome is
/// a function of the encoded sizes alone. The sequential side is the
/// same trace on one processor: the same encode and the same copy that
/// `encode_sequence_of` makes, so parallel can win only by overlapping
/// chunks, and the thread handoffs cost more than that saves. At
/// 10 000 elements the overlap pays, as it does on the host clock,
/// which is why the claim stops at 1 000.
#[test]
fn e6_twin_parallel_never_wins_on_simulated_threads() {
    use ksim::{simulate, simulate_sequential, Machine, Overheads};
    let replay = |n: usize, workers: usize| {
        let trace = parallel_encode_trace(n, workers);
        let machine = Machine {
            processors: workers,
            overheads: Overheads::osf1_threads(),
        };
        let parallel = simulate(&trace, estelle::GroupingPolicy::PerModule, &machine);
        let sequential = simulate_sequential(&trace, Overheads::osf1_threads());
        (parallel.makespan, sequential.makespan)
    };
    for n in [10, 100, 1_000] {
        for workers in [2, 4] {
            let (parallel, sequential) = replay(n, workers);
            assert!(
                parallel >= sequential,
                "{n} elements, {workers} workers: parallel {parallel} beat sequential {sequential}"
            );
        }
    }
    let (parallel, sequential) = replay(10_000, 2);
    assert!(
        parallel < sequential,
        "10 000 elements: parallel {parallel} should overlap enough to beat {sequential}"
    );
}

/// E3's deterministic twin. The host-clock row times the two dispatch
/// mappings; this counts the transitions each selection inspects
/// (`FiredMeta::scanned`), which no load on the host changes. Every
/// `WideFsm` fires a fixed count, a whole number of its cycles, on a
/// runtime under each mapping. Table-driven dispatch looks only at the
/// current state's row, so it inspects one transition per firing at
/// every width; hard-coded dispatch walks the list from the top, so
/// what it inspects grows with the width.
#[test]
fn e3_twin_table_driven_inspects_one_transition_at_every_width() {
    use estelle::{Dispatch, FireOutcome, ModuleKind, ModuleLabels, Runtime, StateMachine};
    use harness::{WideFsm16, WideFsm2, WideFsm32, WideFsm4, WideFsm64, WideFsm8};
    const FIRINGS: u64 = 256;
    fn scanned_per_firing<M: StateMachine + Default>(dispatch: Dispatch) -> f64 {
        let (rt, _clock) = Runtime::sim();
        let labels = ModuleLabels::default();
        let id = rt
            .add_module(
                None,
                "wide",
                ModuleKind::SystemProcess,
                labels,
                M::default(),
            )
            .unwrap();
        rt.start().unwrap();
        let scanned: u64 = (0..FIRINGS)
            .map(|_| match rt.try_fire(id, dispatch) {
                FireOutcome::Fired(meta) => u64::from(meta.scanned),
                other => panic!("a wide FSM always has a step enabled, got {other:?}"),
            })
            .sum();
        scanned as f64 / FIRINGS as f64
    }
    let runs: [fn(Dispatch) -> f64; 6] = [
        scanned_per_firing::<WideFsm2>,
        scanned_per_firing::<WideFsm4>,
        scanned_per_firing::<WideFsm8>,
        scanned_per_firing::<WideFsm16>,
        scanned_per_firing::<WideFsm32>,
        scanned_per_firing::<WideFsm64>,
    ];
    let mut previous_hard = 0.0;
    let mut last = (0.0, 0.0);
    for (width, scanned) in [2, 4, 8, 16, 32, 64].into_iter().zip(runs) {
        let table = scanned(Dispatch::TableDriven);
        let hard = scanned(Dispatch::HardCoded);
        assert_eq!(
            table, 1.0,
            "{width} transitions: table-driven scanned {table}"
        );
        assert!(
            hard > previous_hard,
            "{width} transitions: hard-coded scanned {hard}, no more than {previous_hard} at the narrower width"
        );
        previous_hard = hard;
        last = (table, hard);
    }
    let (table, hard) = last;
    assert!(
        table < hard,
        "64 transitions: table-driven {table} vs hard-coded {hard}"
    );
}
