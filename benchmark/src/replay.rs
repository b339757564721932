//! The layer replay of the traced run: the ops and frame sizes a round
//! generated are pushed through each layer's public entry points on
//! bench-owned instances, one span per layer and batch. A span's
//! `count` is the units it covered, so `ns / count` is the per-unit
//! cost the ledger reports.
//!
//! Batching (one span around a loop over every PDU or frame, not one
//! span per call) keeps the two clock reads out of sub-microsecond
//! measurements.

use crate::trace::Tracer;
use crate::workloads::{ReplayInputs, PLAYOUT_DELAY};
use asn1::Value;
use bench::CountingAllocator;
use cluster::ReplicaDirectory;
use directory::{Dn, Dsa, Filter, MovieEntry, Rdn, Scope};
use journal::{EventKind, Journal};
use mcam::agents::source_for_title;
use mcam::{McamPdu, StreamProviderSystem};
use mtp::{encode_frame_into, FrameKind, MtpPacket, MtpReceiver};
use netsim::{
    DatagramNet, LinkConfig, NetAddr, Network, SimBackend, SimDuration, SimTime, ThreadedBackend,
    TransportBackend,
};
use presentation::Ppdu;
use session::Spdu;
use share::{ShareConfig, ShareManager};
use std::hint::black_box;
use std::sync::Arc;
use store::{BlockStore, StoreConfig};
use transport::{encode_dt_into, Tpdu};

/// What the replay measured besides its spans.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    /// Directory operations the replayed control ops needed.
    pub directory_operations: u64,
    /// Heap allocations per `Journal::record`.
    pub journal_allocs_per_record: f64,
    /// Frames the SPS rig played (the round's frame count may differ;
    /// the ledger scales by it).
    pub cm_frames: u64,
}

/// Span names whose totals explain `World::client_op` time.
pub const CONTROL_LAYERS: [&str; 12] = [
    "core.pdu_encode",
    "presentation.ppdu_encode",
    "session.spdu_encode",
    "transport.dt_encode",
    "netsim.pipe",
    "transport.dt_decode",
    "session.spdu_decode",
    "presentation.ppdu_decode",
    "core.pdu_decode",
    "directory.read",
    "directory.search",
    "journal.record",
];

/// Span names whose totals explain `World::run_for` + receiver time.
pub const CM_LAYERS: [&str; 4] = [
    "core.sps_open",
    "core.sps_pump",
    "netsim.datagram",
    "mtp.receiver_poll.replay",
];

pub fn run(inputs: &ReplayInputs, servers: usize, tracer: &Tracer) -> ReplayCounts {
    let mut counts = ReplayCounts::default();
    tracer.set_trace(u64::MAX);
    let _root = tracer.span("replay");
    if !inputs.exchanges.is_empty() {
        control_path(inputs, tracer);
        counts.directory_operations = directory(inputs, tracer);
    }
    if !inputs.frame_sizes.is_empty() {
        frame_codec(inputs, tracer);
        threaded_conduit(inputs, tracer);
    }
    if inputs.viewers > 0 {
        counts.cm_frames = stream_provider(inputs, tracer);
        block_store(inputs, tracer);
    }
    if servers > 1 {
        share_and_cluster(inputs, servers, tracer);
    }
    if inputs.journal_events > 0 {
        counts.journal_allocs_per_record = journal(inputs, tracer);
    }
    counts
}

/// `n` empty buffers that each hold `capacity` bytes without growing
/// (`vec![Vec::with_capacity(..); n]` would keep the capacity of the
/// last one only), so the timed encodes do not allocate.
fn buffers(n: usize, capacity: usize) -> Vec<Vec<u8>> {
    (0..n).map(|_| Vec::with_capacity(capacity)).collect()
}

/// Every PDU of every exchange down the control stack, across a
/// simulated pipe, and back up.
fn control_path(inputs: &ReplayInputs, tracer: &Tracer) {
    let pdus: Vec<&McamPdu> = inputs
        .exchanges
        .iter()
        .flat_map(|(req, rsp)| [req, rsp])
        .collect();
    let n = pdus.len() as u64;
    let mut wire: Vec<Vec<u8>> = buffers(pdus.len(), 1024);

    // asn1: the attribute lists of the query confirmations are the
    // `asn1::Value`s this traffic carries.
    let values: Vec<Value> = pdus
        .iter()
        .filter_map(|p| match p {
            McamPdu::QueryAttrsRsp { attrs: Some(attrs) } => Some(Value::Seq(
                attrs
                    .iter()
                    .map(|(k, v)| Value::Seq(vec![Value::Str(k.clone()), v.clone()]))
                    .collect(),
            )),
            _ => None,
        })
        .collect();
    if !values.is_empty() {
        let mut encoded: Vec<Vec<u8>> = buffers(values.len(), 512);
        {
            let _s = tracer.span_n("asn1.value_encode", values.len() as u64);
            for (v, out) in values.iter().zip(&mut encoded) {
                v.encode_into(out);
            }
        }
        let _s = tracer.span_n("asn1.value_decode", values.len() as u64);
        for bytes in &encoded {
            black_box(Value::from_ber(bytes).expect("just encoded"));
        }
    }

    {
        let _s = tracer.span_n("core.pdu_encode", n);
        for (pdu, out) in pdus.iter().zip(&mut wire) {
            pdu.encode_into(out);
        }
    }
    // Each layer wraps the one above: build the PDU objects outside the
    // span, time only the encoding.
    let ppdus: Vec<Ppdu> = wire
        .iter()
        .map(|b| Ppdu::Td {
            context_id: 1,
            user_data: b.clone(),
        })
        .collect();
    {
        let _s = tracer.span_n("presentation.ppdu_encode", n);
        for (p, out) in ppdus.iter().zip(&mut wire) {
            p.encode_into(out);
        }
    }
    let spdus: Vec<Spdu> = wire
        .iter()
        .map(|b| Spdu::Dt {
            user_data: b.clone(),
        })
        .collect();
    {
        let _s = tracer.span_n("session.spdu_encode", n);
        for (p, out) in spdus.iter().zip(&mut wire) {
            p.encode_into(out);
        }
    }
    let tsdus = wire.clone();
    {
        let _s = tracer.span_n("transport.dt_encode", n);
        for (seq, (tsdu, out)) in tsdus.iter().zip(&mut wire).enumerate() {
            encode_dt_into(7, seq as u32, true, tsdu, out);
        }
    }

    let net = Arc::new(Network::new(1));
    let backend = SimBackend::new(&net, SimDuration::from_millis(1));
    let (near, far) = backend.connect_pipe();
    let mut delivered = Vec::with_capacity(wire.len());
    {
        let _s = tracer.span_n("netsim.pipe", n);
        for bytes in wire {
            near.send(bytes);
            net.run_until_idle();
            delivered.push(far.recv().expect("pipes are lossless").data);
        }
    }

    let mut up: Vec<Vec<u8>> = Vec::with_capacity(delivered.len());
    {
        let _s = tracer.span_n("transport.dt_decode", n);
        for bytes in &delivered {
            let dt = Tpdu::decode_dt_view(bytes)
                .expect("well-formed DT")
                .expect("is a DT");
            up.push(dt.payload.to_vec());
        }
    }
    {
        let _s = tracer.span_n("session.spdu_decode", n);
        for bytes in &mut up {
            let Ok(Spdu::Dt { user_data }) = Spdu::decode(bytes) else {
                panic!("replayed SPDU does not decode");
            };
            *bytes = user_data;
        }
    }
    {
        let _s = tracer.span_n("presentation.ppdu_decode", n);
        for bytes in &mut up {
            let Ok(Ppdu::Td { user_data, .. }) = Ppdu::decode(bytes) else {
                panic!("replayed PPDU does not decode");
            };
            *bytes = user_data;
        }
    }
    let _s = tracer.span_n("core.pdu_decode", n);
    for (bytes, sent) in up.iter().zip(&pdus) {
        let got = McamPdu::decode(bytes).expect("replayed PDU decodes");
        assert_eq!(&got, *sent, "control path round trip");
    }
}

/// The directory work behind the replayed requests: a read per title
/// lookup, a subtree search per listing. Returns the DSA's own count.
fn directory(inputs: &ReplayInputs, tracer: &Tracer) -> u64 {
    let dsa = Dsa::new("replay");
    let base: Dn = "o=movies".parse().expect("static DN");
    dsa.add(base.clone(), directory::Attrs::new())
        .expect("fresh DSA");
    let dn_of = |title: &str| base.child(Rdn::new("cn", title));
    for (title, frames) in &inputs.titles {
        let mut entry = MovieEntry::new(title, "store");
        entry.frame_count = *frames;
        dsa.add(dn_of(title), entry.to_attrs())
            .expect("fresh title");
    }
    let before = dsa.operations();
    let mut reads = Vec::new();
    let mut searches = Vec::new();
    for (req, _) in &inputs.exchanges {
        match req {
            McamPdu::QueryAttrsReq { title, .. } | McamPdu::SelectMovieReq { title, .. } => {
                reads.push(dn_of(title));
            }
            McamPdu::ListMoviesReq { title_contains } => {
                searches.push(Filter::Contains("cn".into(), title_contains.clone()));
            }
            _ => {}
        }
    }
    if !reads.is_empty() {
        let _s = tracer.span_n("directory.read", reads.len() as u64);
        for dn in &reads {
            black_box(dsa.read(dn).is_ok());
        }
    }
    if !searches.is_empty() {
        let _s = tracer.span_n("directory.search", searches.len() as u64);
        for filter in &searches {
            black_box(
                dsa.search(&base, Scope::Subtree, filter)
                    .expect("no referrals"),
            );
        }
    }
    dsa.operations() - before
}

/// The MTP codec over every frame size the receivers played.
fn frame_codec(inputs: &ReplayInputs, tracer: &Tracer) {
    // A two-size list is `codec_threaded`'s: repeat it to a batch worth
    // timing.
    let sizes: Vec<u32> = if inputs.frame_sizes.len() < 1000 {
        inputs
            .frame_sizes
            .iter()
            .copied()
            .cycle()
            .take(100_000)
            .collect()
    } else {
        inputs.frame_sizes.clone()
    };
    let largest = sizes.iter().copied().max().unwrap_or(0) as usize;
    let mut buffers: Vec<Vec<u8>> = buffers(64, largest + 32);
    // 64 warm buffers at a time, so decoding reads what encoding just
    // wrote without holding every frame in memory.
    for (chunk_no, chunk) in sizes.chunks(64).enumerate() {
        {
            let _s = tracer.span_n("mtp.frame_encode", chunk.len() as u64);
            for (i, (size, out)) in chunk.iter().zip(&mut buffers).enumerate() {
                let seq = (chunk_no * 64 + i) as u32;
                let ts = u64::from(seq) * 40_000;
                encode_frame_into(9, seq, ts, FrameKind::P, false, *size as usize, out);
            }
        }
        let _s = tracer.span_n("mtp.frame_decode", chunk.len() as u64);
        for (size, bytes) in chunk.iter().zip(&buffers) {
            let view = MtpPacket::decode_view(black_box(bytes)).expect("well-formed frame");
            assert_eq!(view.payload.len(), *size as usize);
        }
    }
}

/// One send + poll across a `ThreadedBackend` conduit per frame.
fn threaded_conduit(inputs: &ReplayInputs, tracer: &Tracer) {
    let (a, b) = ThreadedBackend::new().connect();
    let n = inputs.frame_sizes.len().clamp(10_000, 100_000) as u64;
    let mut buf = vec![0u8; inputs.frame_sizes[0] as usize];
    let _s = tracer.span_n("netsim.threaded_conduit", n);
    for _ in 0..n {
        a.send(buf);
        buf = b.poll().expect("channel delivery is immediate");
    }
}

/// Store pump → SPS → MTP sender → datagram net → MTP receiver without
/// the `World` driver or the estelle runtime: the round's viewers over
/// the round's titles, driven in the same 5 ms slices. Returns the
/// frames played.
fn stream_provider(inputs: &ReplayInputs, tracer: &Tracer) -> u64 {
    let net = Arc::new(Network::new(1));
    let dg = DatagramNet::new(&net, LinkConfig::perfect(SimDuration::from_millis(2)), 1);
    let store = BlockStore::new(StoreConfig::default());
    let sps = StreamProviderSystem::with_store(&dg, NetAddr(1), store);
    let mut receivers: Vec<MtpReceiver> = Vec::new();
    for v in 0..inputs.viewers {
        let (title, frames) = &inputs.titles[v % inputs.titles.len()];
        let addr = NetAddr(100 + v as u32);
        let socket = dg.bind(addr).expect("fresh address");
        let id = {
            let _s = tracer.span("core.sps_open");
            sps.open(source_for_title(title, 25, *frames), addr, net.now())
                .expect("the default store admits the replay's viewers")
        };
        sps.play(id, 100, net.now()).expect("stream just opened");
        receivers.push(MtpReceiver::new(socket, id, PLAYOUT_DELAY));
    }
    let longest = inputs.titles.iter().map(|t| t.1).max().unwrap_or(0);
    let limit = SimTime::from_millis(longest * 40 * 2 + 2000);
    let mut played = 0u64;
    let mut now = net.now();
    while receivers.iter().any(|r| !r.ended || r.buffered() > 0) && now < limit {
        now += crate::workloads::SLICE;
        let sent = {
            let mut s = tracer.span_n("core.sps_pump", 0);
            let sent = sps.pump(now);
            s.set_count(sent as u64);
            sent
        };
        {
            let _s = tracer.span_n("netsim.datagram", sent as u64);
            net.run_until(now);
        }
        let mut s = tracer.span_n("mtp.receiver_poll.replay", 0);
        let mut got = 0;
        for r in &mut receivers {
            got += r.poll(now).len() as u64;
        }
        s.set_count(got);
        played += got;
    }
    played
}

/// The block store on its own: opens, pumps with position notes,
/// seeks, and the recording write path, over the round's titles.
fn block_store(inputs: &ReplayInputs, tracer: &Tracer) {
    let store = BlockStore::new(StoreConfig::default());
    let sources: Vec<_> = inputs
        .titles
        .iter()
        .map(|(title, frames)| source_for_title(title, 25, *frames))
        .collect();
    let movies: Vec<_> = sources.iter().map(|s| store.register_movie(s)).collect();
    let mut now = SimTime::ZERO;
    let streams: Vec<u32> = (0..inputs.viewers as u32).collect();
    {
        let _s = tracer.span_n("store.open_stream", streams.len() as u64);
        for id in &streams {
            store
                .open_stream(*id, movies[*id as usize % movies.len()], 100, now)
                .expect("the default store admits the replay's viewers");
        }
    }
    let frames = inputs.titles.iter().map(|t| t.1).max().unwrap_or(0);
    // One pump per 5 ms slice, a position note per stream per frame
    // interval — the cadence `StreamProviderSystem::pump` keeps.
    let slices = frames * 8;
    {
        let _s = tracer.span_n("store.pump", slices);
        for slice in 0..slices {
            now += crate::workloads::SLICE;
            store.pump(now);
            if slice % 8 == 0 {
                for id in &streams {
                    store.note_position(*id, slice / 8);
                }
            }
        }
    }
    {
        let seeks = streams.len() as u64 * 16;
        let _s = tracer.span_n("store.seek", seeks);
        for k in 0..16u64 {
            for id in &streams {
                let target = (k * 37 + u64::from(*id) * 11) % frames.max(1);
                store.seek_stream(*id, target, now).expect("open stream");
            }
            now += crate::workloads::SLICE;
            store.pump(now);
        }
    }
    let recording = source_for_title("replay-recording", 25, inputs.frame_sizes.len() as u64);
    if store.open_recording(1, &recording).is_ok() {
        let _s = tracer.span_n("store.append_frame", inputs.frame_sizes.len() as u64);
        for (i, size) in inputs.frame_sizes.iter().enumerate() {
            if i % 16 == 0 {
                now += SimDuration::from_millis(640);
                store.pump(now);
            }
            store.append_frame(1, *size, now).expect("open recording");
        }
    }
}

/// `ShareManager::plan_join` against a leader per title, and
/// `ReplicaDirectory::route` over `servers` stores.
fn share_and_cluster(inputs: &ReplayInputs, servers: usize, tracer: &Tracer) {
    let share = ShareManager::new(ShareConfig::default());
    let registry: ReplicaDirectory<Arc<BlockStore>> = ReplicaDirectory::new();
    let stores: Vec<Arc<BlockStore>> = (0..servers)
        .map(|_| BlockStore::new(StoreConfig::default()))
        .collect();
    let mut movies = Vec::new();
    for (i, (title, frames)) in inputs.titles.iter().enumerate() {
        let movie = stores[0].register_movie(&source_for_title(title, 25, *frames));
        share.open_leader(i as u32 + 1, movie);
        share.note_position(i as u32 + 1, i as u64);
        movies.push(movie);
    }
    let locations: Vec<String> = (0..servers).map(|i| format!("node-{}", i + 1)).collect();
    for (location, store) in locations.iter().zip(&stores) {
        registry.register(location.clone(), Arc::clone(store));
    }
    let joins = inputs.exchanges.len().max(1000) as u64;
    {
        let _s = tracer.span_n("share.plan_join", joins);
        for k in 0..joins as usize {
            black_box(share.plan_join(movies[k % movies.len()]));
        }
    }
    let _s = tracer.span_n("cluster.route", joins);
    for k in 0..joins as usize {
        let replicas = [
            locations[k % servers].clone(),
            locations[(k + 1) % servers].clone(),
        ];
        black_box(registry.route(&replicas));
    }
}

/// As many `Journal::record` calls as the round journalled, then the
/// chain check. Returns allocations per record.
fn journal(inputs: &ReplayInputs, tracer: &Tracer) -> f64 {
    let journal = Journal::standalone();
    let n = inputs.journal_events;
    let allocs = CountingAllocator::allocations();
    {
        let _s = tracer.span_n("journal.record", n);
        for k in 0..n {
            journal.record(
                if k % 2 == 0 { "node-1" } else { "node-2" },
                EventKind::HealthSnapshot {
                    streams: k as u32,
                    control_assocs: 8,
                    available_bps: 1_000_000,
                    cache_hit_permille: 900,
                    queue_depth_max: 2,
                },
            );
        }
    }
    let per_record = (CountingAllocator::allocations() - allocs) as f64 / n as f64;
    let _s = tracer.span_n("journal.verify", n);
    journal.verify().expect("fresh chain verifies");
    per_record
}
