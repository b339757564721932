//! `vcr_record_mix` — one server, 2-disk SCAN store with a 32-block
//! cache; a compiled `WorkloadSpec` of 8 rewind-heavy `VcrStorm`
//! viewers, 4 recorders and 4 plain watchers, replayed by a bench-owned
//! executor (`push_op` at the compiled instants, receivers built from
//! the `SelectMovieRsp`s seen in `replies`). Open loop on the sim
//! clock: an op is pushed at its compiled instant whatever the state of
//! the ones before it. Same store/SPS/MTP layers as `steady_playback`,
//! used differently — seeks, speed changes, cache misses and the write
//! path beside reads.

use super::{request_pdu, Round, Size, Stage, Viewer};
use crate::clock::Stopwatch;
use crate::trace::Tracer;
use directory::MovieEntry;
use mcam::{ClientHandle, McamOp, McamPdu, StackKind, World};
use netsim::{LinkConfig, SimDuration, SimTime};
use std::time::Instant;
use store::{CachePolicy, DiskParams, DiskSched, StoreConfig};
use workload::{Arrival, Behaviour, Phase, Popularity, TitleSpec, VcrMix, WorkloadSpec};

struct Shape {
    stormers: usize,
    storm_ops: usize,
    recorders: usize,
    record_frames: u64,
    watchers: usize,
    title_seconds: u64,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            stormers: 8,
            storm_ops: 24,
            recorders: 4,
            record_frames: 300,
            watchers: 4,
            title_seconds: 12,
        },
        Size::Mini => Shape {
            stormers: 2,
            storm_ops: 3,
            recorders: 1,
            record_frames: 20,
            watchers: 1,
            title_seconds: 1,
        },
    }
}

const STORM_TITLES: [&str; 4] = ["storm-a", "storm-b", "storm-c", "storm-d"];
const WATCH_TITLES: [&str; 4] = ["watch-a", "watch-b", "watch-c", "watch-d"];

fn spec(seed: u64, shape: &Shape) -> WorkloadSpec {
    let mut spec = WorkloadSpec::new("vcr_record_mix", seed);
    for (i, name) in STORM_TITLES.iter().chain(&WATCH_TITLES).enumerate() {
        spec = spec.title(TitleSpec::new(*name, shape.title_seconds, i as u64));
    }
    let cycle = |titles: &[&str]| Popularity::Cycle(titles.iter().map(|t| t.to_string()).collect());
    spec.phase(Phase::new(
        "storm",
        SimDuration::ZERO,
        Arrival::Flash {
            viewers: shape.stormers,
            spacing: SimDuration::from_millis(90),
        },
        cycle(&STORM_TITLES),
        Behaviour::VcrStorm {
            ops: shape.storm_ops,
            mix: VcrMix::rewind_heavy(),
            op_interval: SimDuration::from_millis(400),
            jump_frames: 40,
        },
    ))
    .phase(Phase::new(
        "record",
        SimDuration::from_millis(150),
        Arrival::Flash {
            viewers: shape.recorders,
            spacing: SimDuration::from_millis(330),
        },
        Popularity::Single(STORM_TITLES[0].into()),
        Behaviour::Record {
            frames: shape.record_frames,
        },
    ))
    .phase(Phase::new(
        "watch",
        SimDuration::from_millis(300),
        Arrival::Flash {
            viewers: shape.watchers,
            spacing: SimDuration::from_millis(410),
        },
        cycle(&WATCH_TITLES),
        Behaviour::Watch,
    ))
}

/// One client of the executor: what was pushed and what came back.
struct Agent {
    client: ClientHandle,
    /// Ops pushed so far, with the sim instant each was due.
    pushed: Vec<(McamOp, SimTime)>,
    /// Replies matched to `pushed` so far (replies arrive in op order).
    answered: usize,
    watcher: bool,
}

/// Matches new replies to pushed ops, builds a viewer on each
/// successful select.
fn collect_replies(world: &World, agents: &mut [Agent], stage: &mut Stage<'_>, round: &mut Round) {
    for (slot, agent) in agents.iter_mut().enumerate() {
        if agent.answered == agent.pushed.len() {
            continue;
        }
        let replies = world.replies(&agent.client);
        while agent.answered < replies.len().min(agent.pushed.len()) {
            let (op, due) = &agent.pushed[agent.answered];
            let reply = &replies[agent.answered];
            agent.answered += 1;
            if agent.answered == 1 {
                continue; // the scripted Associate, answered in set-up
            }
            round.note("control", op, Some(reply));
            round
                .inputs
                .exchanges
                .push((request_pdu(op, agent.client.addr.0), reply.clone()));
            if let (
                McamOp::SelectMovie { .. },
                McamPdu::SelectMovieRsp {
                    params: Some(params),
                },
            ) = (op, reply)
            {
                round.sample(
                    "select_sim_us",
                    world.net.now().saturating_since(*due).as_micros(),
                );
                stage
                    .viewers
                    .push(Viewer::new(world, &agent.client, slot, params, *due));
            }
        }
    }
}

pub fn round(seed: u64, size: Size, tracer: &Tracer) -> Result<Round, String> {
    let started = Stopwatch::start();
    let shape = shape(size);
    let mut round = Round::default();

    let compile_started = Instant::now();
    let compiled = {
        let _span = tracer.span("workload.compile");
        spec(seed, &shape)
            .compile()
            .map_err(|e| format!("spec does not compile: {e}"))?
    };
    round.set(
        "workload.compile_ms",
        compile_started.elapsed().as_secs_f64() * 1000.0,
    );
    round.set("workload.ops", compiled.op_count() as f64);

    // A perfect link draws nothing from the network's RNG, which keeps
    // the round exactly repeatable for a seed (on a jittery link the
    // draw order follows a `HashMap` iteration inside the SPS).
    let mut world = World::builder(seed)
        .stream_link(LinkConfig::perfect(SimDuration::from_millis(2)))
        .store(StoreConfig {
            disks: 2,
            cache_blocks: 32,
            policy: CachePolicy::Interval,
            disk: DiskParams {
                sched: DiskSched::Scan,
                ..DiskParams::default()
            },
            ..StoreConfig::default()
        })
        .build();
    let server = world.add_server("ksr1", StackKind::EstellePS);
    let mut agents: Vec<Agent> = compiled
        .agents
        .iter()
        .map(|script| {
            let associate = McamOp::Associate {
                user: format!("{}-{}", script.phase, script.id),
            };
            Agent {
                client: world.add_client(&server, StackKind::EstellePS, vec![associate.clone()]),
                pushed: vec![(associate, SimTime::ZERO)],
                answered: 0,
                watcher: script.phase == "watch",
            }
        })
        .collect();
    world.start();
    for title in &compiled.titles {
        let mut entry = MovieEntry::new(&title.name, "store");
        entry.frame_count = title.frames;
        world.seed_movie(&server, &entry);
        round.inputs.titles.push((title.name.clone(), title.frames));
    }
    // Warm-up: the scripted associations settle before timing starts.
    world.run_for(SimDuration::from_millis(200));
    for agent in &agents {
        if world.replies(&agent.client) != [McamPdu::AssociateRsp { accepted: true }] {
            return Err("an association did not settle in set-up".into());
        }
    }
    round.setup_s = started.cpu_s();

    // One time-ordered replay of every agent's schedule.
    let mut timeline: Vec<(SimDuration, usize, &McamOp)> = Vec::with_capacity(compiled.op_count());
    for (slot, script) in compiled.agents.iter().enumerate() {
        for op in &script.ops {
            timeline.push((op.at, slot, &op.op));
        }
    }
    timeline.sort_by_key(|t| (t.0, t.1));

    let counters = world.rt.counters();
    let origin = world.net.now();
    let measured = Stopwatch::start();
    let mut stage = Stage::new(&world, tracer);
    for (at, slot, op) in timeline {
        let due = origin + at;
        while stage.now() < due {
            let next = due.min(stage.now() + super::SLICE);
            stage.run_until(next)?;
            collect_replies(&world, &mut agents, &mut stage, &mut round);
        }
        tracer.set_trace(slot as u64 + 1);
        {
            let _span = tracer.span("world.push_op");
            world.push_op(&agents[slot].client, op.clone());
        }
        agents[slot].pushed.push((op.clone(), due));
    }
    let horizon = stage.now();
    let tail = shape.title_seconds.max(shape.record_frames / 25 + 1);
    let limit = horizon + SimDuration::from_secs(2 * tail + 4);
    loop {
        collect_replies(&world, &mut agents, &mut stage, &mut round);
        let answered = agents.iter().all(|a| a.answered == a.pushed.len());
        let watched = stage
            .viewers
            .iter()
            .all(|v| !agents[v.slot].watcher || v.ended());
        let recorded = server.services.sps.recording_count() == 0;
        if answered && watched && recorded {
            break;
        }
        if stage.now() >= limit {
            return Err(format!(
                "not settled at sim limit: answered={answered} watched={watched} recorded={recorded}"
            ));
        }
        let next = stage.now() + super::SLICE;
        stage.run_until(next)?;
    }
    let (wall_s, cpu_s) = (measured.wall_s(), measured.cpu_s());

    let sim_elapsed = world.net.now().saturating_since(origin);
    let stats = server.services.store.stats();
    let expected_recorded = shape.recorders as u64 * shape.record_frames;
    if stats.frames_recorded != expected_recorded {
        return Err(format!(
            "recorded {} frames, expected {expected_recorded}",
            stats.frames_recorded
        ));
    }
    let selects = (shape.stormers + shape.watchers) as f64;
    round.set(
        "admitted_permille",
        1000.0 * stage.viewers.len() as f64 / selects,
    );
    // Recordings outlast the last played frame here, so the phase ends
    // when everything has settled, not with the last frame.
    stage.finish(&mut round);
    round.wall_s = wall_s;
    round.cpu_s = cpu_s;
    round.set("sim_speed_x", sim_elapsed.as_secs_f64() / wall_s);
    round.set_estelle(counters, world.rt.counters());
    round.set_store(std::slice::from_ref(&server), sim_elapsed);
    round.set_journal(&world)?;
    Ok(round)
}
