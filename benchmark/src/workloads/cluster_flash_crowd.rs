//! `cluster_flash_crowd` — 4-server cluster, `Placement::round_robin(2)`,
//! stream sharing on, 1-disk 300 kB/s stores, lossy stream link
//! (4 ms ± 1 ms, 2 % loss), 32 clients all dialling server 0 and
//! arriving 250 ms sim apart (open loop on the sim clock; half select
//! one hot title, half spread over 7 cold ones), and one crash of a
//! hot-title replica holder after the 20th arrival. Admission verdicts
//! and honest 503s, share merge/fast-feed, cluster routing, referrals,
//! failover and the journal do most of the work, under overload and
//! loss; it is the only workload with refusals and a failure.

use super::{sub_seed, timed_op, Round, Size, Stage, Viewer};
use crate::clock::Stopwatch;
use crate::trace::Tracer;
use directory::MovieEntry;
use mcam::{ClusterSpec, McamOp, McamPdu, Placement, ShareConfig, StackKind, World};
use netsim::{LinkConfig, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use store::{DiskParams, StoreConfig};

const SERVERS: usize = 4;
const COLD_TITLES: usize = 7;
const SPACING_MS: u64 = 250;

struct Shape {
    clients: usize,
    /// The crash follows this many arrivals.
    crash_after: usize,
    frames: u64,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            clients: 32,
            crash_after: 20,
            frames: 125,
        },
        Size::Mini => Shape {
            clients: 8,
            crash_after: 5,
            frames: 50,
        },
    }
}

fn title(i: usize) -> String {
    if i == 0 {
        "premiere".into()
    } else {
        format!("catalogue-{i}")
    }
}

pub fn round(seed: u64, size: Size, tracer: &Tracer) -> Result<Round, String> {
    let started = Stopwatch::start();
    let shape = shape(size);
    let mut round = Round::default();
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, "cluster_flash_crowd"));

    let mut world = World::builder(seed)
        .stream_link(LinkConfig::lossy(
            SimDuration::from_millis(4),
            SimDuration::from_millis(1),
            0.02,
        ))
        .store(StoreConfig {
            disks: 1,
            disk: DiskParams {
                transfer_bytes_per_sec: 300_000,
                ..DiskParams::default()
            },
            ..StoreConfig::default()
        })
        .share(ShareConfig::default())
        .build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        SERVERS,
        StackKind::EstellePS,
        Placement::round_robin(2),
    ));
    let clients: Vec<_> = (0..shape.clients)
        .map(|_| world.add_client(&cluster.servers[0], StackKind::EstellePS, Vec::new()))
        .collect();
    world.start();
    let mut hot_replicas = Vec::new();
    for i in 0..=COLD_TITLES {
        let mut entry = MovieEntry::new(title(i), "pending");
        entry.frame_count = shape.frames;
        let replicas = world.publish_replicated(&cluster, &entry);
        if i == 0 {
            hot_replicas = replicas;
        }
        round.inputs.titles.push((title(i), shape.frames));
    }
    // Arrivals come in pairs, two for the hot title then two for cold
    // ones (so both kinds are homed on every member, the victim
    // included); the cold titles are taken in turn so their load is even. The seed sets where
    // the turn starts and each arrival's offset within 50 ms after its
    // 250 ms mark (and, through the `World`, the link's loss and
    // jitter): enough to vary the inputs, too little to decide who is
    // admitted — a seed that reshuffled the crowd would swing
    // `admitted_permille` between 500 and 850.
    let first_cold = rng.gen_range(0..COLD_TITLES);
    let arrivals: Vec<(SimDuration, usize)> = (0..shape.clients)
        .map(|i| {
            let jitter_us = rng.gen_range(0..50_000u64);
            let pick = if i % 4 < 2 {
                0
            } else {
                1 + (first_cold + i / 4 * 2 + i % 2) % COLD_TITLES
            };
            (
                SimDuration::from_micros(i as u64 * SPACING_MS * 1000 + jitter_us),
                pick,
            )
        })
        .collect();

    // Warm-up: every association is opened (and balanced across the
    // members by referral) before timing starts.
    let mut warm = Round::default();
    for (i, client) in clients.iter().enumerate() {
        let op = McamOp::Associate {
            user: format!("fan-{i}"),
        };
        timed_op(&world, client, op, "warmup", &mut warm, &Tracer::new(false));
    }
    if warm.total_ops().ok != shape.clients as u64 {
        return Err(format!("associations failed: {:?}", warm.ops));
    }
    round.setup_s = started.cpu_s();

    // The victim: a holder of the hot title other than the member every
    // client dialled, so the clients homed there carry a referral's
    // candidate list and can fail over.
    let lead = cluster.servers[0].services.sps.location();
    let victim = cluster
        .servers
        .iter()
        .find(|s| {
            let l = s.services.sps.location();
            l != lead && hot_replicas.contains(&l)
        })
        .ok_or("no hot-title replica besides the lead server")?;
    let victim_location = victim.services.sps.location();

    let counters = world.rt.counters();
    let origin = world.net.now();
    let mut stage = Stage::new(&world, tracer);
    let mut orphaned = 0u64;
    let mut admitted = 0u64;
    let aborted = McamPdu::ErrorRsp {
        code: 999,
        message: "association aborted".into(),
    };

    for (slot, (at, pick)) in arrivals.iter().enumerate() {
        stage.run_until(origin + *at)?;
        if slot == shape.crash_after {
            tracer.set_trace(0);
            // Streams on the victim die with it.
            for v in &mut stage.viewers {
                if !v.ended() && format!("node-{}", v.provider_addr) == victim_location {
                    v.orphan();
                    orphaned += 1;
                }
            }
            let _span = tracer.span("world.crash_server");
            world.crash_server(victim);
        }
        tracer.set_trace(slot as u64 + 1);
        let client = &clients[slot];
        let select_at = world.net.now();
        let op = McamOp::SelectMovie {
            title: title(*pick),
        };
        let (reply, _) = timed_op(&world, client, op, "select", &mut round, tracer);
        if let Some(McamPdu::SelectMovieRsp {
            params: Some(params),
        }) = reply
        {
            admitted += 1;
            stage
                .viewers
                .push(Viewer::new(&world, client, slot, &params, select_at));
            let play = McamOp::Play { speed_pct: 100 };
            timed_op(&world, client, play, "play", &mut round, tracer);
        } else if matches!(
            reply,
            Some(McamPdu::ErrorRsp {
                code: 901 | 999,
                ..
            })
        ) && world.replies(client).contains(&aborted)
        {
            // The crash aborted this client's association before it
            // arrived: it is told so (999), or that it is no longer
            // associated (901). Re-associating after an abort never
            // answers, so the viewer gives up — the injected fault's
            // doing, counted with the refusals rather than as a failure.
            round.excuse_last_failure("select");
        }
    }
    // The phase covers a fixed stretch of sim time — the arrivals, one
    // title length, and a second of slack — whoever was admitted: the
    // driver's cost per sim second dwarfs the cost per frame, so ending
    // with the last frame would make the timing follow the seed's luck.
    let horizon =
        SimDuration::from_millis(shape.clients as u64 * SPACING_MS + shape.frames * 40 + 1000);
    stage.run_until(origin + horizon)?;
    stage.end_phase();

    // Only a viewer that resumed has a gap to speak of.
    let gap = stage
        .viewers
        .iter()
        .filter(|v| !v.is_orphan())
        .map(|v| v.max_gap)
        .max()
        .unwrap_or(SimDuration::ZERO);
    round.set("failover_gap_sim_ms_max", gap.as_micros() as f64 / 1000.0);
    round.set(
        "admitted_permille",
        1000.0 * admitted as f64 / shape.clients as f64,
    );
    let stranded = stage.viewers.iter().filter(|v| v.is_orphan()).count() as u64;
    round.set("cluster.viewers_orphaned", orphaned as f64);
    round.set("cluster.viewers_resumed", (orphaned - stranded) as f64);
    let referrals: u64 = clients.iter().map(|c| world.client_referrals(c).0).sum();
    round.set("cluster.referrals_followed", referrals as f64);
    round.set("cluster.route_decisions", cluster.route_decisions() as f64);
    round.set("cluster.failovers", cluster.failovers() as f64);
    let share: Vec<_> = cluster
        .servers
        .iter()
        .map(|s| s.services.share.stats())
        .collect();
    let sum = |f: fn(&mcam::ShareStats) -> u64| share.iter().map(f).sum::<u64>() as f64;
    round.set("share.merges", sum(|s| s.merges));
    round.set("share.fast_feeds", sum(|s| s.fast_feeds));
    round.set("share.conversions", sum(|s| s.conversions));
    round.set("share.promotions", sum(|s| s.promotions));
    let tick_started = Instant::now();
    cluster.rebalancer.tick(world.net.now());
    round.set(
        "cluster.rebalance_tick_ns",
        tick_started.elapsed().as_nanos() as f64,
    );
    let sim_elapsed = stage.finish(&mut round);
    round.set_estelle(counters, world.rt.counters());
    round.set_store(&cluster.servers, sim_elapsed);
    round.set_journal(&world)?;
    Ok(round)
}
