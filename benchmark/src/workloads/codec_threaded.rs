//! `codec_threaded` — `mcam::wall_clock::run` with one worker and one
//! consumer thread (= `nproc` here), 8 streams of ~16 KiB frames, then
//! the same with ~256-byte frames. Real OS threads over
//! `ThreadedBackend`, host clock only: `World`, estelle and the store
//! do nothing, so only MTP codec and conduit changes may move it. The
//! small-frame phase is where per-packet cost dominates.

use super::{sub_seed, OpCount, Round, Size};
use crate::clock::Stopwatch;
use crate::trace::Tracer;
use mcam::wall_clock::{self, WallClockConfig, WallClockReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STREAMS: usize = 8;

/// Frames per stream in the `(large, small)` phase.
fn frames(size: Size) -> (u64, u64) {
    match size {
        Size::Full => (50_000, 100_000),
        Size::Mini => (500, 500),
    }
}

fn run(tracer: &Tracer, name: &'static str, frames: u64, frame_size: usize) -> WallClockReport {
    let _span = tracer.span_n(name, frames * STREAMS as u64);
    wall_clock::run(WallClockConfig {
        threads: 1,
        streams_per_thread: STREAMS,
        frames_per_stream: frames,
        frame_size,
    })
}

pub fn round(seed: u64, size: Size, tracer: &Tracer) -> Result<Round, String> {
    let started = Stopwatch::start();
    let mut round = Round::default();
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, "codec_threaded"));
    // The seed picks the exact payload sizes (within 2 % of nominal).
    let large = 16 * 1024 - rng.gen_range(0..320usize);
    let small = 256 - rng.gen_range(0..5usize);
    let (large_frames, small_frames) = frames(size);

    // Warm-up: a twentieth of each phase, so thread start-up and the
    // allocator's first growth happen before timing.
    let quiet = Tracer::new(false);
    run(&quiet, "warmup", large_frames / 20, large);
    run(&quiet, "warmup", small_frames / 20, small);
    round.setup_s = started.cpu_s();

    let measured = Stopwatch::start();
    tracer.set_trace(1);
    let big = run(tracer, "wall_clock.run.large", large_frames, large);
    tracer.set_trace(2);
    let little = run(tracer, "wall_clock.run.small", small_frames, small);
    round.wall_s = measured.wall_s();
    round.cpu_s = measured.cpu_s();

    let offered = (large_frames + small_frames) * STREAMS as u64;
    let delivered = big.frames_delivered + little.frames_delivered;
    let sequence_errors = big.sequence_errors + little.sequence_errors;
    let steady_state_allocs = big.steady_state_allocs + little.steady_state_allocs;
    if big.bytes_delivered != large_frames * STREAMS as u64 * large as u64
        || little.bytes_delivered != small_frames * STREAMS as u64 * small as u64
    {
        return Err("delivered byte count does not match the frames offered".into());
    }
    if sequence_errors != 0 || steady_state_allocs != 0 {
        return Err(format!(
            "sequence_errors={sequence_errors} steady_state_allocs={steady_state_allocs}, both must be 0"
        ));
    }
    *round.op("frames") = OpCount {
        attempted: offered,
        ok: delivered,
        refused: 0,
        failed: offered - delivered,
    };
    round.set("frames_per_wall_s", delivered as f64 / round.wall_s);
    round.set(
        "mtp.small_frames_per_wall_s",
        little.frames_delivered as f64 / little.elapsed.as_secs_f64(),
    );
    round.set("mtp.sequence_errors", sequence_errors as f64);
    round.set("mtp.steady_state_allocs", steady_state_allocs as f64);
    round.set("mtp.received", delivered as f64);
    round.set("mtp.played", delivered as f64);
    round.inputs.frame_sizes = vec![large as u32, small as u32];
    Ok(round)
}
