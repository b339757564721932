//! The five workloads and what they share: the per-round result, the
//! viewer bookkeeping around an [`MtpReceiver`], and the slice driver
//! the three `World` playback workloads use.

pub mod cluster_flash_crowd;
pub mod codec_threaded;
pub mod control_churn;
pub mod steady_playback;
pub mod vcr_record_mix;

use crate::clock::Stopwatch;
use crate::stats::Samples;
use crate::trace::Tracer;
use bench::CountingAllocator;
use mcam::{ClientHandle, McamOp, McamPdu, ServerHandle, StreamParams, World};
use mtp::{MtpPacket, MtpReceiver, ReceiverStats};
use netsim::{DatagramSocket, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::time::Instant;

/// Workload names, in the order `--all` runs them.
pub const NAMES: [&str; 5] = [
    "control_churn",
    "steady_playback",
    "vcr_record_mix",
    "cluster_flash_crowd",
    UNBOUNDED,
];

/// Runs and reports like the others but is not listed in
/// `BENCHMARK.json` and never judged: its two threads spin on
/// `yield_now` while the other is off the CPU, so on a shared two-vCPU
/// machine its timings (wall or CPU) read 3–10× apart from run to run.
pub const UNBOUNDED: &str = "codec_threaded";

/// Full size is what `BENCHMARK.json` records; the miniature keeps the
/// shape and runs in well under a second for `cargo test`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Mini,
}

/// Runs one round of `workload`: fresh set-up from `seed`, warm-up,
/// then the fixed measured work.
pub fn run_round(workload: &str, seed: u64, size: Size, tracer: &Tracer) -> Result<Round, String> {
    match workload {
        "control_churn" => control_churn::round(seed, size, tracer),
        "steady_playback" => steady_playback::round(seed, size, tracer),
        "vcr_record_mix" => vcr_record_mix::round(seed, size, tracer),
        "cluster_flash_crowd" => cluster_flash_crowd::round(seed, size, tracer),
        "codec_threaded" => codec_threaded::round(seed, size, tracer),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// How the operations of one class ended. `refused` are honest
/// overload answers (`ErrorRsp 503`); `failed` got no answer or one
/// the protocol does not allow there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCount {
    pub attempted: u64,
    pub ok: u64,
    pub refused: u64,
    pub failed: u64,
}

impl OpCount {
    /// Sorts one answer into the class: `expected` says whether it is
    /// the positive confirmation of the op that was sent.
    pub fn note(&mut self, reply: Option<&McamPdu>, expected: bool) {
        self.attempted += 1;
        match reply {
            Some(_) if expected => self.ok += 1,
            Some(McamPdu::ErrorRsp { code: 503, .. }) => self.refused += 1,
            _ => self.failed += 1,
        }
    }

    pub fn add(&mut self, other: OpCount) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.refused += other.refused;
        self.failed += other.failed;
    }

    pub fn sum<'a>(counts: impl Iterator<Item = &'a OpCount>) -> OpCount {
        let mut total = OpCount::default();
        counts.for_each(|c| total.add(*c));
        total
    }

    pub fn balanced(&self) -> bool {
        self.attempted == self.ok + self.refused + self.failed
    }
}

/// What the layer replay needs to push the same work through each
/// layer on bench-owned instances.
#[derive(Debug, Clone, Default)]
pub struct ReplayInputs {
    /// Every control exchange of the round: request and confirmation.
    pub exchanges: Vec<(McamPdu, McamPdu)>,
    /// Payload size of every frame played at a receiver.
    pub frame_sizes: Vec<u32>,
    /// Title catalogue the round served, as `(title, frames)`.
    pub titles: Vec<(String, u64)>,
    /// Concurrent viewers at the round's peak.
    pub viewers: usize,
    /// Journal events the round produced.
    pub journal_events: u64,
}

/// Everything one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Round start → first measured op, in process CPU seconds.
    pub setup_s: f64,
    /// The measured phase in wall seconds.
    pub wall_s: f64,
    /// The measured phase in process CPU seconds.
    pub cpu_s: f64,
    /// Per-round metric values, by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Raw samples, pooled across rounds before percentiles are taken.
    pub samples: BTreeMap<&'static str, Samples>,
    /// Operation outcomes by class name.
    pub ops: BTreeMap<&'static str, OpCount>,
    /// Heap allocations made inside calls into `World` and the
    /// receivers during the measured phase.
    pub world_allocs: u64,
    /// The ops counted as failed, with their answers, for the report.
    pub unexpected: Vec<String>,
    pub inputs: ReplayInputs,
}

impl Round {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn sample(&mut self, key: &'static str, value: u64) {
        self.samples.entry(key).or_default().push(value);
    }

    pub fn op(&mut self, class: &'static str) -> &mut OpCount {
        self.ops.entry(class).or_default()
    }

    /// Sorts the answer to `op` into `class`, keeping a failed op and
    /// its answer for the report.
    pub fn note(&mut self, class: &'static str, op: &McamOp, reply: Option<&McamPdu>) {
        let expected = reply.is_some_and(|r| confirms(op, r));
        let failed_before = self.op(class).failed;
        self.op(class).note(reply, expected);
        if self.op(class).failed > failed_before {
            self.unexpected.push(format!("{op:?} answered {reply:?}"));
        }
    }

    /// Moves the failure just noted in `class` to the refusals: the
    /// workload itself provoked that answer.
    pub fn excuse_last_failure(&mut self, class: &'static str) {
        let c = self.op(class);
        c.failed -= 1;
        c.refused += 1;
        self.unexpected.pop();
    }

    pub fn total_ops(&self) -> OpCount {
        OpCount::sum(self.ops.values())
    }

    /// Estelle counter deltas over the measured phase.
    pub fn set_estelle(&mut self, before: estelle::Counters, after: estelle::Counters) {
        let firings = after.firings - before.firings;
        let selects = after.selects - before.selects;
        let scan_ns = after.scan_ns - before.scan_ns;
        let action_ns = after.action_ns - before.action_ns;
        self.set("estelle.firings", firings as f64);
        self.set("estelle.selects", selects as f64);
        self.set(
            "estelle.selects_per_firing",
            selects as f64 / firings.max(1) as f64,
        );
        self.set("estelle.scan_ns", scan_ns as f64);
        self.set("estelle.action_ns", action_ns as f64);
        self.set(
            "estelle.scheduler_share_permille",
            1000.0 * scan_ns as f64 / (scan_ns + action_ns).max(1) as f64,
        );
        self.set("estelle.blocked", (after.blocked - before.blocked) as f64);
    }

    /// Journal size, and the chain check every `World` workload ends
    /// with.
    pub fn set_journal(&mut self, world: &World) -> Result<(), String> {
        let journal = world.journal();
        journal
            .verify()
            .map_err(|e| format!("journal chain broken: {e}"))?;
        self.set("journal.events", journal.len() as f64);
        self.set("journal.jsonl_bytes", journal.to_jsonl().len() as f64);
        self.inputs.journal_events = journal.len() as u64;
        Ok(())
    }

    /// Store counters summed over `servers`, as deltas are not needed:
    /// every round starts from a fresh world.
    pub fn set_store(&mut self, servers: &[ServerHandle], sim_elapsed: SimDuration) {
        let mut hits = 0;
        let mut misses = 0;
        let mut coalesced = 0;
        let mut admitted = 0;
        let mut rejected = 0;
        let mut delivered = 0;
        let mut busy_us = 0;
        let mut disks = 0u64;
        let mut depth_max = 0;
        for s in servers {
            let st = s.services.store.stats();
            hits += st.cache.hits;
            misses += st.cache.misses;
            coalesced += st.coalesced_reads;
            admitted += st.admission.admitted;
            rejected += st.admission.rejected;
            delivered += st.blocks_delivered;
            for d in &st.disks {
                busy_us += d.busy.as_micros();
                disks += 1;
            }
        }
        for e in servers
            .first()
            .map(|s| s.services.journal.events())
            .unwrap_or_default()
        {
            if let journal::EventKind::DiskQueueSample { depth, .. } = e.kind {
                depth_max = depth_max.max(depth);
            }
        }
        self.set(
            "store.cache_hit_permille",
            1000.0 * (hits + coalesced) as f64 / (hits + misses).max(1) as f64,
        );
        self.set("store.admit_accepted", admitted as f64);
        self.set("store.admit_rejected", rejected as f64);
        self.set("store.blocks_delivered", delivered as f64);
        self.set("store.coalesced_reads", coalesced as f64);
        self.set(
            "store.disk_busy_permille",
            1000.0 * busy_us as f64 / (disks.max(1) * sim_elapsed.as_micros().max(1)) as f64,
        );
        self.set("store.disk_queue_depth_max", f64::from(depth_max));
    }
}

/// The request PDU a client's MCA sends for `op` — what the layer
/// replay encodes in its place.
pub fn request_pdu(op: &McamOp, client_addr: u32) -> McamPdu {
    match op.clone() {
        McamOp::Associate { user } => McamPdu::AssociateReq {
            user,
            referral_capable: true,
        },
        McamOp::Release => McamPdu::ReleaseReq,
        McamOp::CreateMovie {
            title,
            format,
            frame_rate,
            frame_count,
        } => McamPdu::CreateMovieReq {
            title,
            format,
            frame_rate,
            frame_count,
        },
        McamOp::DeleteMovie { title } => McamPdu::DeleteMovieReq { title },
        McamOp::SelectMovie { title } => McamPdu::SelectMovieReq { title, client_addr },
        McamOp::Deselect => McamPdu::DeselectMovieReq,
        McamOp::List { contains } => McamPdu::ListMoviesReq {
            title_contains: contains,
        },
        McamOp::Query { title, attrs } => McamPdu::QueryAttrsReq { title, attrs },
        McamOp::Modify { title, puts } => McamPdu::ModifyAttrsReq { title, puts },
        McamOp::Play { speed_pct } => McamPdu::PlayReq { speed_pct },
        McamOp::Pause => McamPdu::PauseReq,
        McamOp::Stop => McamPdu::StopReq,
        McamOp::Seek { frame } => McamPdu::SeekReq { frame },
        McamOp::Record { title, frames } => McamPdu::RecordReq { title, frames },
    }
}

/// Whether `reply` is the positive confirmation of `op`.
pub fn confirms(op: &McamOp, reply: &McamPdu) -> bool {
    matches!(
        (op, reply),
        (
            McamOp::Associate { .. },
            McamPdu::AssociateRsp { accepted: true }
        ) | (McamOp::Release, McamPdu::ReleaseRsp)
            | (
                McamOp::CreateMovie { .. },
                McamPdu::CreateMovieRsp { ok: true }
            )
            | (
                McamOp::DeleteMovie { .. },
                McamPdu::DeleteMovieRsp { ok: true }
            )
            | (
                McamOp::SelectMovie { .. },
                McamPdu::SelectMovieRsp { params: Some(_) }
            )
            | (McamOp::Deselect, McamPdu::DeselectMovieRsp)
            | (McamOp::List { .. }, McamPdu::ListMoviesRsp { .. })
            | (
                McamOp::Query { .. },
                McamPdu::QueryAttrsRsp { attrs: Some(_) }
            )
            | (McamOp::Modify { .. }, McamPdu::ModifyAttrsRsp { ok: true })
            | (McamOp::Play { .. }, McamPdu::PlayRsp { ok: true })
            | (McamOp::Pause, McamPdu::PauseRsp)
            | (McamOp::Stop, McamPdu::StopRsp)
            | (McamOp::Seek { .. }, McamPdu::SeekRsp { ok: true })
            | (McamOp::Record { .. }, McamPdu::RecordRsp { ok: true })
    )
}

/// One timed `World::client_op`: the span, the host latency sample
/// (plus both clocks' admission-verdict latency for a `SelectMovie`),
/// the outcome, the allocations made inside the call, and the exchange
/// kept for the layer replay.
pub fn timed_op(
    world: &World,
    client: &ClientHandle,
    op: McamOp,
    class: &'static str,
    round: &mut Round,
    tracer: &Tracer,
) -> (Option<McamPdu>, u64) {
    let sim_before = world.net.now();
    let allocs = CountingAllocator::allocations();
    let started = Instant::now();
    let reply = {
        let _span = tracer.span("world.client_op");
        world.client_op(client, op.clone())
    };
    let ns = started.elapsed().as_nanos() as u64;
    round.world_allocs += CountingAllocator::allocations() - allocs;
    round.sample("control_op_ns", ns);
    if matches!(op, McamOp::SelectMovie { .. }) {
        round.sample("select_ns", ns);
        round.sample(
            "select_sim_us",
            world.net.now().saturating_since(sim_before).as_micros(),
        );
    }
    round.note(class, &op, reply.as_ref());
    if let Some(r) = &reply {
        round
            .inputs
            .exchanges
            .push((request_pdu(&op, client.addr.0), r.clone()));
    }
    (reply, ns)
}

/// A viewer: its receiver and what the benchmark observes about it.
pub struct Viewer {
    /// Index of the client this viewer belongs to (also its trace id).
    pub slot: usize,
    socket: DatagramSocket,
    /// Datagram address of the provider the stream was opened on.
    pub provider_addr: u32,
    stream_id: u32,
    rx: MtpReceiver,
    /// Counters of the receiver a failover retired.
    retired: ReceiverStats,
    /// The dead stream's id while the viewer waits for its session to
    /// resume on another server.
    orphan_of: Option<u32>,
    select_at: SimTime,
    first_frame_at: Option<SimTime>,
    last_seq: Option<u32>,
    last_played_at: SimTime,
    /// Longest sim-time gap between polls that played frames, counted
    /// from the moment the viewer was orphaned.
    pub max_gap: SimDuration,
    watch_gap: bool,
}

/// Playout delay every benchmark receiver uses.
pub const PLAYOUT_DELAY: SimDuration = SimDuration::from_millis(50);

/// How long a viewer may go without a played frame before the
/// benchmark stops waiting for it.
pub const IDLE: SimDuration = SimDuration::from_secs(2);

impl Viewer {
    pub fn new(
        world: &World,
        client: &ClientHandle,
        slot: usize,
        params: &StreamParams,
        select_at: SimTime,
    ) -> Self {
        Viewer {
            slot,
            socket: client.socket.clone(),
            provider_addr: params.provider_addr,
            stream_id: params.stream_id,
            rx: world.receiver_for(client, params, PLAYOUT_DELAY),
            retired: ReceiverStats::default(),
            orphan_of: None,
            select_at,
            first_frame_at: None,
            last_seq: None,
            last_played_at: select_at,
            max_gap: SimDuration::ZERO,
            watch_gap: false,
        }
    }

    pub fn ended(&self) -> bool {
        self.rx.ended && self.rx.buffered() == 0
    }

    pub fn played(&self) -> u64 {
        self.retired.played + self.rx.stats.played
    }

    /// The stream ended, or nothing has played for [`IDLE`]: the
    /// end-of-stream marker can be lost like any datagram, and a stream
    /// that died with its server never sends one.
    pub fn finished(&self, now: SimTime) -> bool {
        self.ended() || now.saturating_since(self.last_played_at) >= IDLE
    }

    /// The viewer's server died: from now on its socket is watched for
    /// the stream its failed-over session resumes on, and the gap until
    /// frames play again is measured.
    pub fn orphan(&mut self) {
        self.orphan_of = Some(self.stream_id);
        self.watch_gap = true;
    }

    pub fn is_orphan(&self) -> bool {
        self.orphan_of.is_some()
    }

    /// Looks for the resumed stream on an orphan's socket. Its id is
    /// not observable through any public call (the replayed
    /// `SelectMovieRsp` stays inside the client's MCA), so it is read
    /// off the first datagram that is not from the dead stream, and the
    /// socket handed to a fresh receiver. That datagram is consumed by
    /// the look, so a resumed viewer's counters are one frame short.
    fn look_for_resumed_stream(&mut self, dead_stream: u32) {
        while let Some(dg) = self.socket.recv() {
            let Ok(pkt) = MtpPacket::decode_view(&dg.payload) else {
                continue;
            };
            if pkt.stream_id == dead_stream {
                continue;
            }
            let fresh = MtpReceiver::new(self.socket.clone(), pkt.stream_id, PLAYOUT_DELAY);
            let old = std::mem::replace(&mut self.rx, fresh);
            self.retired.received += old.stats.received;
            self.retired.lost += old.stats.lost;
            self.retired.late += old.stats.late;
            self.retired.played += old.stats.played;
            self.orphan_of = None;
            self.last_seq = None;
            return;
        }
    }

    /// Polls the receiver, checks the played sequence numbers strictly
    /// increase (no duplicate, no reordering), and records sizes.
    fn poll(
        &mut self,
        now: SimTime,
        tracer: &Tracer,
        sizes: &mut Vec<u32>,
    ) -> Result<bool, String> {
        tracer.set_trace(self.slot as u64 + 1);
        if let Some(dead_stream) = self.orphan_of {
            // Before the old receiver polls: it drops datagrams of any
            // stream but its own. With the socket drained it can still
            // release what it had buffered.
            self.look_for_resumed_stream(dead_stream);
        }
        let frames = {
            let _span = tracer.span("mtp.receiver_poll");
            self.rx.poll(now)
        };
        if frames.is_empty() {
            return Ok(false);
        }
        for f in &frames {
            if self.last_seq.is_some_and(|last| f.seq <= last) {
                return Err(format!(
                    "viewer {}: played seq {} after {:?}",
                    self.slot, f.seq, self.last_seq
                ));
            }
            self.last_seq = Some(f.seq);
            sizes.push(f.size as u32);
        }
        if self.first_frame_at.is_none() {
            self.first_frame_at = Some(now);
        } else if self.watch_gap {
            self.max_gap = self.max_gap.max(now.saturating_since(self.last_played_at));
        }
        self.last_played_at = now;
        Ok(true)
    }
}

/// Drives a `World` in fixed sim-time slices and polls every viewer
/// after each — the playback loop of the three `World` CM workloads.
/// The measured phase starts when the stage is built and ends with the
/// last played frame, so waiting out a lost end-of-stream marker is
/// not measured.
pub struct Stage<'a> {
    pub world: &'a World,
    pub tracer: &'a Tracer,
    pub viewers: Vec<Viewer>,
    frame_sizes: Vec<u32>,
    started: (Stopwatch, SimTime),
    last_frame: (Stopwatch, SimTime),
    run_for_ns: u64,
    run_for_sim_us: u64,
    /// Allocations inside `run_for` and the receiver polls.
    allocs: u64,
}

/// Sim time per driver slice.
pub const SLICE: SimDuration = SimDuration::from_millis(5);

impl<'a> Stage<'a> {
    pub fn new(world: &'a World, tracer: &'a Tracer) -> Self {
        let started = (Stopwatch::start(), world.net.now());
        Stage {
            world,
            tracer,
            viewers: Vec::new(),
            frame_sizes: Vec::new(),
            started,
            last_frame: started,
            run_for_ns: 0,
            run_for_sim_us: 0,
            allocs: 0,
        }
    }

    pub fn now(&self) -> SimTime {
        self.world.net.now()
    }

    /// Advances sim time to `until` in slices of at most [`SLICE`],
    /// polling every viewer after each slice.
    pub fn run_until(&mut self, until: SimTime) -> Result<(), String> {
        while self.now() < until {
            let step = until.saturating_since(self.now()).min(SLICE);
            self.tracer.set_trace(0);
            let allocs = CountingAllocator::allocations();
            let started = Instant::now();
            {
                let _span = self.tracer.span("world.run_for");
                self.world.run_for(step);
            }
            self.run_for_ns += started.elapsed().as_nanos() as u64;
            self.run_for_sim_us += step.as_micros();
            self.poll()?;
            self.allocs += CountingAllocator::allocations() - allocs;
        }
        Ok(())
    }

    fn poll(&mut self) -> Result<(), String> {
        let now = self.now();
        let mut played = false;
        for v in &mut self.viewers {
            played |= v.poll(now, self.tracer, &mut self.frame_sizes)?;
        }
        if played {
            self.last_frame = (Stopwatch::start(), now);
        }
        Ok(())
    }

    /// Ends the measured phase now instead of at the last played frame.
    pub fn end_phase(&mut self) {
        self.last_frame = (Stopwatch::start(), self.now());
    }

    /// Slices until every viewer has finished, giving up (as a failed
    /// run) at `limit`.
    pub fn play_out(&mut self, limit: SimTime) -> Result<(), String> {
        while self.viewers.iter().any(|v| !v.finished(self.now())) {
            if self.now() >= limit {
                return Err(format!("streams still running at sim limit {limit:?}"));
            }
            let next = self.now() + SLICE;
            self.run_until(next)?;
        }
        Ok(())
    }

    /// Writes what the viewers saw into `round`: frame counts, start-up
    /// and jitter samples, MTP counters, `core.run_for_*`.
    ///
    /// Returns the sim time the measured phase covered.
    pub fn finish(self, round: &mut Round) -> SimDuration {
        let (wall_s, cpu_s) = self.started.0.until(&self.last_frame.0);
        let sim_elapsed = self.last_frame.1.saturating_since(self.started.1);
        round.wall_s = wall_s;
        round.cpu_s = cpu_s;
        let mut received = 0;
        let mut lost = 0;
        let mut late = 0;
        let mut played = 0;
        for v in &self.viewers {
            received += v.retired.received + v.rx.stats.received;
            lost += v.retired.lost + v.rx.stats.lost;
            late += v.retired.late + v.rx.stats.late;
            played += v.played();
            if let Some(first) = v.first_frame_at {
                round.sample(
                    "startup_sim_us",
                    first.saturating_since(v.select_at).as_micros(),
                );
            }
            if v.rx.stats.received > 1 {
                round.sample("jitter_sim_us", v.rx.stats.jitter_us.round() as u64);
            }
        }
        round.set("mtp.received", received as f64);
        round.set("mtp.lost", lost as f64);
        round.set("mtp.late", late as f64);
        round.set("mtp.played", played as f64);
        round.set(
            "frames_lost_permille",
            1000.0 * lost as f64 / (received + lost).max(1) as f64,
        );
        round.set("frames_per_wall_s", played as f64 / wall_s);
        round.set("sim_speed_x", sim_elapsed.as_secs_f64() / wall_s);
        round.set(
            "core.run_for_wall_us_per_sim_ms",
            self.run_for_ns as f64 / self.run_for_sim_us.max(1) as f64,
        );
        round.world_allocs += self.allocs;
        round.set(
            "core.alloc_per_frame",
            round.world_allocs as f64 / played.max(1) as f64,
        );
        round.inputs.frame_sizes = self.frame_sizes;
        round.inputs.viewers = self.viewers.len();
        sim_elapsed
    }
}

/// Derives a per-purpose seed from the run seed, so independent draws
/// do not share a stream.
pub fn sub_seed(seed: u64, purpose: &str) -> u64 {
    purpose.bytes().fold(seed ^ 0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}
