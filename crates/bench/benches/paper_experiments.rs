//! The paper's evaluation as one bench target: every row of
//! [`harness::EXPERIMENTS`] printed at paper scale with its shape
//! check, then the timing loops — the rows that are their own measured
//! operation at the small scale, and the operations underneath the
//! others (`ksim` replays, `Fsm::bench_step`, one MCAM transaction per
//! stack, the PDU encode arena, the ASN.1 encoders).

use asn1::parallel::{encode_sequence_of, encode_sequence_of_parallel};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkGroup, Criterion};
use estelle::{Dispatch, Fsm, GroupingPolicy, IpState, StateMachine};
use harness::pstack::{build_ps_env, run_ps_env};
use harness::{Scale, WideFsm16, WideFsm64, EXPERIMENTS};
use ksim::{Machine, Overheads};
use mcam::{McamOp, McamPdu, StackKind, World};
use mtp::{FrameKind, MtpPacket};
use netsim::SimTime;
use transport::{encode_dt_into, Tpdu};

fn one_transaction(stack: StackKind) {
    let mut world = World::builder(3).build();
    let server = world.add_server("b", stack);
    let client = world.add_client(&server, stack, vec![]);
    world.start();
    let rsp = world.client_op(&client, McamOp::Associate { user: "b".into() });
    assert_eq!(rsp, Some(McamPdu::AssociateRsp { accepted: true }));
    let rsp = world.client_op(
        &client,
        McamOp::List {
            contains: String::new(),
        },
    );
    assert!(matches!(rsp, Some(McamPdu::ListMoviesRsp { .. })));
}

/// Transition selection + firing in isolation on an `M`-wide machine.
fn dispatch_step<M: StateMachine + Default>(
    group: &mut BenchmarkGroup<'_>,
    id: &str,
    dispatch: Dispatch,
) {
    let ips: Vec<IpState> = Vec::new();
    let mut fsm = Fsm::new(M::default());
    group.bench_function(id, |b| {
        b.iter(|| fsm.bench_step(&ips, SimTime::ZERO, SimTime::ZERO, dispatch));
    });
}

fn bench(c: &mut Criterion) {
    let failed: Vec<String> = EXPERIMENTS
        .iter()
        .flat_map(|row| row.report(Scale::Paper))
        .collect();
    assert!(failed.is_empty(), "shapes not reproduced: {failed:#?}");

    // The experiments cheap enough to be the measured operation
    // themselves, on their small parameter sets.
    for (group, id, row) in [
        ("table1", "characterize_1s_movie", "T1"),
        ("grouping", "experiment_4conn", "E2"),
        ("scheduler", "experiment", "E4"),
        ("ablation", "sensitivity_sweep", "A1"),
        ("mapping_optimizer", "optimize_4conn_2cpu", "A2"),
    ] {
        let row = harness::experiment(row);
        let mut group = c.benchmark_group(group);
        group.sample_size(10);
        group.bench_function(id, |b| b.iter(|| (row.run)(Scale::Small)));
        group.finish();
    }

    // E1 and E7: the replay itself on a fixed trace.
    let replay = |trace: &estelle::ExecTrace, policy, processors, overheads| {
        let machine = Machine {
            processors,
            overheads,
        };
        ksim::simulate(trace, policy, &machine)
    };
    let trace = run_ps_env(&build_ps_env(2, 100, 42), 100);
    let ov = Overheads::osf1_threads();
    let mut group = c.benchmark_group("speedup");
    group.bench_function("ksim_replay_per_module_p32", |b| {
        b.iter(|| replay(&trace, GroupingPolicy::PerModule, 32, ov));
    });
    group.bench_function("ksim_replay_sequential", |b| {
        b.iter(|| ksim::simulate_sequential(&trace, ov));
    });
    group.finish();
    let trace = run_ps_env(&build_ps_env(4, 100, 5), 100);
    let ov = Overheads::ksr1_like();
    let mut group = c.benchmark_group("mapping");
    group.bench_function("by_connection", |b| {
        b.iter(|| replay(&trace, GroupingPolicy::ByConnection { units: 4 }, 4, ov));
    });
    group.bench_function("by_layer", |b| {
        b.iter(|| replay(&trace, GroupingPolicy::ByLayer { units: 4 }, 4, ov));
    });
    group.finish();

    // E3: one selection + firing under each dispatch.
    let mut group = c.benchmark_group("dispatch");
    dispatch_step::<WideFsm16>(&mut group, "hard_coded_16", Dispatch::HardCoded);
    dispatch_step::<WideFsm16>(&mut group, "table_driven_16", Dispatch::TableDriven);
    dispatch_step::<WideFsm64>(&mut group, "hard_coded_64", Dispatch::HardCoded);
    dispatch_step::<WideFsm64>(&mut group, "table_driven_64", Dispatch::TableDriven);
    group.finish();

    // E5: one associate + list transaction over each stack.
    let mut group = c.benchmark_group("generated_vs_handcoded");
    group.sample_size(20);
    group.bench_function("estelle_ps_transaction", |b| {
        b.iter(|| one_transaction(StackKind::EstellePS));
    });
    group.bench_function("isode_transaction", |b| {
        b.iter(|| one_transaction(StackKind::Isode));
    });
    group.finish();

    // The per-frame encode arena: fresh-Vec encode() vs warm-scratch
    // encode_into() for an MTP media frame wrapped in a transport DT,
    // and owned vs borrowed-view decode. The pairs are the criterion
    // evidence that retiring the per-PDU allocations pays on the hot
    // path.
    let mut group = c.benchmark_group("pdu_encode_arena");
    let frame = MtpPacket {
        stream_id: 7,
        seq: 42,
        timestamp_us: 40_000 * 42,
        kind: FrameKind::P,
        end_of_stream: false,
        payload: vec![0xA5; 16 * 1024],
    };
    group.bench_function("frame_encode_alloc", |b| {
        b.iter(|| {
            let dt = Tpdu::Dt {
                dst_ref: 42,
                seq: frame.seq,
                eot: true,
                payload: black_box(&frame).encode(),
            };
            black_box(dt.encode())
        });
    });
    group.bench_function("frame_encode_arena", |b| {
        let mut mtp_buf = Vec::new();
        let mut dt_buf = Vec::new();
        b.iter(|| {
            black_box(&frame).encode_into(&mut mtp_buf);
            encode_dt_into(42, frame.seq, true, &mtp_buf, &mut dt_buf);
            black_box(dt_buf.len())
        });
    });
    let wire = frame.encode();
    group.bench_function("frame_decode_owned", |b| {
        b.iter(|| black_box(MtpPacket::decode(black_box(&wire)).expect("well-formed")));
    });
    group.bench_function("frame_decode_view", |b| {
        b.iter(|| {
            let view = MtpPacket::decode_view(black_box(&wire)).expect("well-formed");
            black_box(view.payload.len())
        });
    });
    group.finish();

    // E6: the encoders on 1000 movie attribute sets.
    let data = harness::movie_attribute_sets(1000);
    let mut group = c.benchmark_group("parallel_asn1");
    group.bench_function("sequential_1000", |b| {
        b.iter(|| encode_sequence_of(&data));
    });
    group.bench_function("parallel2_1000", |b| {
        b.iter(|| encode_sequence_of_parallel(&data, 2));
    });
    group.bench_function("parallel4_1000", |b| {
        b.iter(|| encode_sequence_of_parallel(&data, 4));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
