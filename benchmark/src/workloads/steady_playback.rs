//! `steady_playback` — 16 `EstellePS` viewers arriving 200 ms sim apart,
//! Zipf(1.0) over 8 titles, perfect 2 ms link, default store; the world
//! is driven in 5 ms sim slices and every receiver polled until all
//! streams end. Store pump → SPS → MTP sender → datagram net → MTP
//! receiver do the work under the `World` driver; control is a sliver.

use super::{sub_seed, timed_op, Round, Size, Stage, Viewer};
use crate::clock::Stopwatch;
use crate::trace::Tracer;
use directory::MovieEntry;
use mcam::{McamOp, McamPdu, StackKind, World};
use netsim::{LinkConfig, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workload::Zipf;

const TITLES: usize = 8;
const SPACING_MS: u64 = 200;

/// `(viewers, frames per title)`.
fn shape(size: Size) -> (usize, u64) {
    match size {
        Size::Full => (16, 250),
        Size::Mini => (3, 25),
    }
}

fn title(i: usize) -> String {
    format!("feature-{i}")
}

pub fn round(seed: u64, size: Size, tracer: &Tracer) -> Result<Round, String> {
    let started = Stopwatch::start();
    let (viewers, frames) = shape(size);
    let mut round = Round::default();
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, "steady_playback"));
    let zipf = Zipf::new(TITLES, 1.0).expect("static Zipf parameters");

    let mut world = World::builder(seed)
        .stream_link(LinkConfig::perfect(SimDuration::from_millis(2)))
        .build();
    let server = world.add_server("ksr1", StackKind::EstellePS);
    let clients: Vec<_> = (0..viewers)
        .map(|_| world.add_client(&server, StackKind::EstellePS, Vec::new()))
        .collect();
    world.start();
    for i in 0..TITLES {
        let mut entry = MovieEntry::new(title(i), "store");
        entry.frame_count = frames;
        world.seed_movie(&server, &entry);
        round.inputs.titles.push((title(i), frames));
    }
    // Arrival i lands within 50 ms after i × 200 ms and picks its title
    // by Zipf rank.
    let arrivals: Vec<(SimDuration, usize)> = (0..viewers)
        .map(|i| {
            let jitter_us = rng.gen_range(0..50_000u64);
            (
                SimDuration::from_micros(i as u64 * SPACING_MS * 1000 + jitter_us),
                zipf.sample(&mut rng),
            )
        })
        .collect();

    // Warm-up: every association is opened before timing starts, so
    // each client's stack exists and the first measured op is a select.
    let mut warm = Round::default();
    for (i, client) in clients.iter().enumerate() {
        let op = McamOp::Associate {
            user: format!("viewer-{i}"),
        };
        timed_op(&world, client, op, "warmup", &mut warm, &Tracer::new(false));
    }
    if warm.total_ops().ok != viewers as u64 {
        return Err(format!("associations failed: {:?}", warm.ops));
    }
    round.setup_s = started.cpu_s();

    let counters = world.rt.counters();
    let origin = world.net.now();
    let mut stage = Stage::new(&world, tracer);
    for (slot, (at, rank)) in arrivals.iter().enumerate() {
        stage.run_until(origin + *at)?;
        tracer.set_trace(slot as u64 + 1);
        let client = &clients[slot];
        let select_at = world.net.now();
        let op = McamOp::SelectMovie {
            title: title(*rank),
        };
        let (reply, _) = timed_op(&world, client, op, "control", &mut round, tracer);
        let Some(McamPdu::SelectMovieRsp {
            params: Some(params),
        }) = reply
        else {
            return Err(format!("viewer {slot}: select answered {reply:?}"));
        };
        stage
            .viewers
            .push(Viewer::new(&world, client, slot, &params, select_at));
        let play = McamOp::Play { speed_pct: 100 };
        timed_op(&world, client, play, "control", &mut round, tracer);
    }
    // A title lasts frames/25 sim-s; leave the same again as slack.
    let limit = stage.now() + SimDuration::from_millis(frames * 40 * 2 + 2000);
    stage.play_out(limit)?;

    let played: u64 = stage.viewers.iter().map(Viewer::played).sum();
    if played != viewers as u64 * frames {
        return Err(format!(
            "played {played} frames, expected {}",
            viewers as u64 * frames
        ));
    }
    let sim_elapsed = stage.finish(&mut round);
    round.set_estelle(counters, world.rt.counters());
    round.set_store(std::slice::from_ref(&server), sim_elapsed);
    round.set("admitted_permille", 1000.0);
    round.set_journal(&world)?;
    Ok(round)
}
