//! `control_churn` — closed loop, 8 clients on one `EstellePS` server
//! (4 dial `EstellePS`, 4 dial `Isode`), 32-title catalogue, each client
//! repeating Associate → List → Query → SelectMovie → Deselect →
//! Release. No Play: the control path and the directory do all the
//! work, store and MTP none.

use super::{sub_seed, timed_op, Round, Size};
use crate::clock::Stopwatch;
use crate::trace::Tracer;
use directory::MovieEntry;
use mcam::{McamOp, StackKind, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CLIENTS: usize = 8;
const TITLES: usize = 32;
/// Ops per client per pass.
const OPS_PER_PASS: usize = 6;

fn passes(size: Size) -> usize {
    match size {
        Size::Full => 40,
        Size::Mini => 2,
    }
}

fn title(i: usize) -> String {
    format!("title-{i:02}")
}

/// The six ops of one pass of one client.
fn pass_ops(client: usize, pick: usize) -> [McamOp; OPS_PER_PASS] {
    [
        McamOp::Associate {
            user: format!("user-{client}"),
        },
        McamOp::List {
            contains: String::new(),
        },
        McamOp::Query {
            title: title(pick),
            attrs: Vec::new(),
        },
        McamOp::SelectMovie { title: title(pick) },
        McamOp::Deselect,
        McamOp::Release,
    ]
}

pub fn round(seed: u64, size: Size, tracer: &Tracer) -> Result<Round, String> {
    let started = Stopwatch::start();
    let mut round = Round::default();
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, "control_churn"));

    let mut world = World::builder(seed).build();
    let server = world.add_server("ksr1", StackKind::EstellePS);
    let stacks: Vec<StackKind> = (0..CLIENTS)
        .map(|i| {
            if i < CLIENTS / 2 {
                StackKind::EstellePS
            } else {
                StackKind::Isode
            }
        })
        .collect();
    let clients: Vec<_> = stacks
        .iter()
        .map(|stack| world.add_client(&server, *stack, Vec::new()))
        .collect();
    world.start();
    for i in 0..TITLES {
        let mut entry = MovieEntry::new(title(i), "store");
        entry.frame_count = 250;
        world.seed_movie(&server, &entry);
        round.inputs.titles.push((title(i), 250));
    }

    // Warm-up: one un-timed pass, so every client has built its stack
    // once and the directory has served every op kind.
    let mut warm = Round::default();
    for (i, client) in clients.iter().enumerate() {
        for op in pass_ops(i, rng.gen_range(0..TITLES)) {
            timed_op(&world, client, op, "warmup", &mut warm, &Tracer::new(false));
        }
    }
    if warm.total_ops().ok != (CLIENTS * OPS_PER_PASS) as u64 {
        return Err(format!("warm-up ops failed: {:?}", warm.ops));
    }
    round.setup_s = started.cpu_s();

    let counters = world.rt.counters();
    let measured = Stopwatch::start();
    for _ in 0..passes(size) {
        for (i, client) in clients.iter().enumerate() {
            tracer.set_trace(i as u64 + 1);
            for op in pass_ops(i, rng.gen_range(0..TITLES)) {
                let (_, ns) = timed_op(&world, client, op, "control", &mut round, tracer);
                round.sample(
                    match stacks[i] {
                        StackKind::Isode => "control_op_ns.isode",
                        _ => "control_op_ns.estelle_ps",
                    },
                    ns,
                );
            }
        }
    }
    round.wall_s = measured.wall_s();
    round.cpu_s = measured.cpu_s();
    let ops = round.op("control").attempted;
    round.set(
        "core.alloc_per_control_op",
        round.world_allocs as f64 / ops as f64,
    );
    let drift = crate::stats::drift_permille(round.samples["control_op_ns"].values());
    round.set(
        "core.control_op_drift_permille",
        drift.expect("ops were timed"),
    );
    round.set_estelle(counters, world.rt.counters());
    round.set("admitted_permille", 1000.0);
    round.set_journal(&world)?;
    Ok(round)
}
