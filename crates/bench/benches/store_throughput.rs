//! Storage-subsystem benchmarks: streams sustained vs. disk count and
//! disk-queue discipline, streams sustained vs. *server* count in a
//! replicated cluster, buffer-cache hit ratio vs. viewer spacing, the
//! mixed record+playback workload (each active recording displaces
//! one playback stream of equal bitrate), and control-connection
//! fan-out (client associations spread across the cluster through
//! the referral protocol instead of piling onto one machine).
//!
//! Set `STORE_THROUGHPUT_SMOKE=1` to print the scenario report (with
//! its assertions) and skip the timing loops — the mode CI runs on
//! every PR to track the perf trajectory cheaply.

use cluster::{Placement, RebalanceConfig, RebalanceController, ReplicaDirectory};
use criterion::{criterion_group, criterion_main, Criterion};
use directory::MovieEntry;
use mcam::agents::source_for_entry;
use mcam::{ClusterSpec, McamOp, McamPdu, StackKind, World};
use mtp::MovieSource;
use netsim::{LinkConfig, NetAddr, SimDuration, SimTime};
use share::{JoinPlan, ShareConfig, ShareManager};
use std::sync::{Arc, Once};
use store::{BlockStore, CachePolicy, DiskParams, DiskSched, StoreConfig};
use workload::{Arrival, Behaviour, Phase, Popularity, TitleSpec, VcrMix, WorkloadSpec};

static REPORT: Once = Once::new();

fn slow_disk_config(disks: usize, sched: DiskSched) -> StoreConfig {
    StoreConfig {
        disks,
        block_size: 64 * 1024,
        cache_blocks: 0, // isolate raw disk bandwidth
        policy: CachePolicy::Lru,
        disk: DiskParams {
            transfer_bytes_per_sec: 2_000_000,
            sched,
            ..DiskParams::default()
        },
        ..StoreConfig::default()
    }
}

/// Opens streams of one movie until admission control refuses.
fn streams_sustained(disks: usize, sched: DiskSched) -> usize {
    let store = BlockStore::new(slow_disk_config(disks, sched));
    let movie = MovieSource::test_movie(60, 1);
    let id = store.register_movie(&movie);
    let mut admitted = 0;
    for stream in 0..100_000u32 {
        if store.open_stream(stream, id, 100, SimTime::ZERO).is_err() {
            break;
        }
        admitted += 1;
    }
    admitted
}

/// Streams sustained by a cluster of `servers` stores with one movie
/// per server placed on `k` replicas round-robin: every open routes
/// to the hottest title's most-available replica and falls over like
/// the `SelectMovie` path.
fn cluster_streams_sustained(servers: usize, k: usize) -> usize {
    let dir: ReplicaDirectory<std::sync::Arc<BlockStore>> = ReplicaDirectory::new();
    for i in 0..servers {
        dir.register(
            format!("srv-{i}"),
            BlockStore::new(slow_disk_config(2, DiskSched::Scan)),
        );
    }
    let mut placement = Placement::round_robin(k);
    // One title per server, spread K-wide.
    let movies: Vec<(MovieSource, Vec<String>)> = (0..servers)
        .map(|t| {
            (
                MovieSource::test_movie(60, t as u64),
                placement.place(&dir.loads()),
            )
        })
        .collect();
    let mut admitted = 0;
    let mut stream = 0u32;
    'outer: loop {
        let mut any = false;
        for (movie, replicas) in &movies {
            // Route: most-available replica first, fail over in order.
            for (_, store) in dir.route(replicas) {
                let id = store.register_movie(movie);
                stream += 1;
                if store.open_stream(stream, id, 100, SimTime::ZERO).is_ok() {
                    admitted += 1;
                    any = true;
                    break;
                }
            }
            if stream > 1_000_000 {
                break 'outer;
            }
        }
        if !any {
            break;
        }
    }
    admitted
}

/// The hot-title demand, declared: four titles, one explicit
/// 15-slot popularity cycle in which T0 takes 4 of every 5 opens and
/// the cold fifth rotates T1..T3 — exactly the slot pattern the
/// hand-wired loop used. `Saturate` marks the closed-loop intent;
/// the executor below replays the cycle until admission refuses
/// everywhere.
fn hot_title_spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::new("hot_title_skew", 0);
    for t in 0..4u64 {
        spec = spec.title(TitleSpec::new(format!("T{t}"), 60, t));
    }
    spec.phase(Phase::new(
        "skewed-demand",
        SimDuration::ZERO,
        Arrival::Saturate {
            max: 15,
            spacing: SimDuration::from_millis(1),
        },
        Popularity::Cycle(
            [
                "T0", "T0", "T0", "T0", "T1", "T0", "T0", "T0", "T0", "T2", "T0", "T0", "T0", "T0",
                "T3",
            ]
            .map(String::from)
            .to_vec(),
        ),
        Behaviour::Watch,
    ))
}

/// Hot-title skew: a 4-server cluster serving 4 titles where one
/// title receives ~80% of the demand (4 hot opens per cold open).
/// With static K=2 placement the hot title is pinned to its two
/// replicas and saturates them while the other servers idle; with
/// the rebalancing control plane the saturation is sampled, the
/// title is copied (a paced, admission-charged store workload) onto
/// the least-loaded non-holders, and the demand keeps being admitted.
/// Returns total streams sustained until the hot title is refused
/// everywhere and no further growth is possible, plus the rebalance
/// controller's journal-derived counter view.
fn hot_title_streams_sustained(dynamic: bool) -> (usize, cluster::RebalanceStats) {
    let dir: Arc<ReplicaDirectory<Arc<BlockStore>>> = Arc::new(ReplicaDirectory::new());
    for i in 0..4 {
        dir.register(
            format!("srv-{i}"),
            BlockStore::new(slow_disk_config(2, DiskSched::Scan)),
        );
    }
    let ctl = RebalanceController::new(
        Arc::clone(&dir),
        Placement::round_robin(2),
        RebalanceConfig {
            copy_speed_pct: 400,
            ..RebalanceConfig::default()
        },
    );
    let compiled = hot_title_spec().compile().expect("hot-title spec compiles");
    let titles: Vec<(String, MovieSource)> = compiled
        .titles
        .iter()
        .map(|t| (t.name.clone(), MovieSource::test_movie(t.seconds, t.seed)))
        .collect();
    for (name, source) in &titles {
        ctl.place_title(name, source);
    }
    // The compiled agents carry the demand pattern; the closed loop
    // replays it cyclically, five slots per admission round.
    let pattern: Vec<usize> = compiled
        .agents
        .iter()
        .map(|a| {
            titles
                .iter()
                .position(|(n, _)| *n == a.title)
                .expect("compiled titles are validated")
        })
        .collect();
    let mut now = SimTime::ZERO;
    let mut admitted = 0usize;
    let mut stream = 0u32;
    'demand: loop {
        for round in pattern.chunks(5) {
            let mut any = false;
            for &t in round {
                let (name, source) = &titles[t];
                let open = |now: SimTime, stream: &mut u32| {
                    for (_, store) in dir.route(&ctl.replicas_of(name).expect("tracked")) {
                        let id = store.register_movie(source);
                        *stream += 1;
                        if store.open_stream(*stream, id, 100, now).is_ok() {
                            return true;
                        }
                    }
                    false
                };
                if open(now, &mut stream) {
                    admitted += 1;
                    any = true;
                    continue;
                }
                if t != 0 {
                    continue; // a refused cold open does not end the run
                }
                if !dynamic {
                    // Static placement has no answer to a hot title
                    // refused on its whole replica set: the run is over.
                    break 'demand;
                }
                // The hot title is refused on every replica: let the
                // control plane sample the load and run its copy, then
                // retry this viewer.
                let before = ctl.stats().copies_completed;
                let mut guard = 0u32;
                loop {
                    ctl.tick(now);
                    for location in dir.locations() {
                        if let Some(store) = dir.get(&location) {
                            store.pump(now);
                        }
                    }
                    if ctl.stats().copies_completed > before {
                        if open(now, &mut stream) {
                            admitted += 1;
                            any = true;
                        }
                        break;
                    }
                    let next = dir
                        .locations()
                        .iter()
                        .filter_map(|l| dir.get(l).and_then(|s| s.next_event()))
                        .chain(ctl.next_tick_at())
                        .min();
                    match next {
                        Some(t) if t > now => now = t,
                        _ => break 'demand, // no copy possible: cluster is done growing
                    }
                    guard += 1;
                    assert!(guard < 1_000_000, "rebalance never converged");
                }
            }
            if !any || stream > 1_000_000 {
                break 'demand;
            }
        }
    }
    (admitted, ctl.stats())
}

/// The mixed record+playback fleet, declared: a record phase (each
/// agent writes a fresh title) followed by a closed-loop saturation
/// probe of viewers on one evergreen title.
fn record_playback_spec(recorders: u32) -> WorkloadSpec {
    let mut spec =
        WorkloadSpec::new("record_playback", 1).title(TitleSpec::new("Evergreen", 60, 1));
    if recorders > 0 {
        spec = spec.phase(Phase::new(
            "recorders",
            SimDuration::ZERO,
            Arrival::Flash {
                viewers: recorders as usize,
                spacing: SimDuration::from_millis(1),
            },
            Popularity::Single("Evergreen".into()),
            Behaviour::Record { frames: 1_500 },
        ));
    }
    spec.phase(Phase::new(
        "viewers",
        SimDuration::from_millis(u64::from(recorders) + 1),
        Arrival::Saturate {
            max: 1_000,
            spacing: SimDuration::from_millis(1),
        },
        Popularity::Single("Evergreen".into()),
        Behaviour::Watch,
    ))
}

/// Playback streams sustained next to `recorders` concurrent
/// recordings of an equal-bitrate source: the write path commits the
/// same admission capacity reads draw on, so every recorder displaces
/// exactly one viewer.
fn streams_sustained_while_recording(recorders: u32) -> usize {
    let compiled = record_playback_spec(recorders)
        .compile()
        .expect("record+playback spec compiles");
    let store = BlockStore::new(slow_disk_config(4, DiskSched::Scan));
    let title = &compiled.titles[0];
    let source = MovieSource::test_movie(title.seconds, title.seed);
    let fleet = compiled.agents.iter().filter(|a| a.phase == "recorders");
    for (r, _) in fleet.enumerate() {
        store
            .open_recording(90_000 + r as u32, &source)
            .expect("recorder admitted on an idle store");
    }
    let movie = store.register_movie(&source);
    let mut admitted = 0;
    let viewers = compiled.agents.iter().filter(|a| a.phase == "viewers");
    let mut exhausted = true;
    for (stream, _) in viewers.enumerate() {
        if store
            .open_stream(stream as u32, movie, 100, SimTime::ZERO)
            .is_err()
        {
            exhausted = false;
            break;
        }
        admitted += 1;
    }
    assert!(
        !exhausted,
        "the saturation probe must end at an admission refusal, \
         not by running out of compiled viewers"
    );
    admitted
}

/// Control-connection fan-out: `clients` workstations all dial the
/// first server of a `servers`-wide cluster. Legacy clients stay
/// where they dialed (`referrals = false`); cluster-aware clients
/// are spread by connect-time referrals. Returns the per-server
/// association counts (in location order) and the world's event
/// journal, whose referral chain the smoke report summarises.
fn control_fanout(
    servers: usize,
    clients: usize,
    referrals: bool,
) -> (Vec<usize>, Arc<journal::Journal>) {
    let link = LinkConfig::lossy(
        SimDuration::from_millis(2),
        SimDuration::from_micros(500),
        0.0,
    );
    let mut world = World::builder(41).stream_link(link).build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        servers,
        StackKind::EstellePS,
        Placement::round_robin(2),
    ));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            if referrals {
                world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![])
            } else {
                world.add_legacy_client(&cluster.servers[0], StackKind::EstellePS, vec![])
            }
        })
        .collect();
    world.start();
    for (i, client) in handles.iter().enumerate() {
        let rsp = world.client_op(
            client,
            McamOp::Associate {
                user: format!("viewer-{i}"),
            },
        );
        assert_eq!(rsp, Some(McamPdu::AssociateRsp { accepted: true }));
    }
    let counts = cluster.control_connections();
    let per_server = cluster
        .servers
        .iter()
        .map(|s| {
            let location = s.services.sps.location();
            counts
                .iter()
                .find(|(l, _)| *l == location)
                .map(|(_, n)| *n)
                .unwrap_or(0)
        })
        .collect();
    (per_server, Arc::clone(world.journal()))
}

/// Streams one full movie, starting a second viewer once the leader is
/// `spacing_frames` ahead; returns the cache hit ratio the pair
/// achieved.
fn hit_ratio_at_spacing(policy: CachePolicy, cache_blocks: usize, spacing_frames: u64) -> f64 {
    let config = StoreConfig {
        disks: 2,
        block_size: 64 * 1024,
        cache_blocks,
        policy,
        ..StoreConfig::default()
    };
    let store = BlockStore::new(config);
    let movie = MovieSource::test_movie(120, 7);
    let spacing = spacing_frames.min(movie.frame_count);
    let id = store.register_movie(&movie);
    store
        .open_stream(1, id, 100, SimTime::ZERO)
        .expect("leader admitted");
    let mut started_follower = false;
    let mut now = SimTime::ZERO;
    let mut guard = 0u32;
    loop {
        guard += 1;
        assert!(guard < 1_000_000, "bench did not converge");
        if let Some(t) = store.next_event() {
            now = now.max(t);
        }
        store.pump(now);
        let leader_frames = store.frames_ready_through(1).unwrap_or(0);
        store.note_position(1, leader_frames);
        if !started_follower && leader_frames >= spacing {
            store
                .open_stream(2, id, 100, now)
                .expect("follower admitted");
            started_follower = true;
        }
        if started_follower {
            store.note_position(2, store.frames_ready_through(2).unwrap_or(0));
            if store.frames_ready_through(2) == Some(movie.frame_count) {
                break;
            }
        }
    }
    store.stats().service_hit_ratio()
}

/// Outcome of one flash-crowd run.
struct FlashCrowd {
    /// Viewers admitted (any share class).
    admitted: usize,
    /// Viewers the admission controller honestly refused.
    refused: usize,
    /// Merge-engine counters at the end of the run.
    stats: share::ShareStats,
    /// The run's share-lifecycle journal.
    journal: Arc<journal::Journal>,
}

/// The flash-crowd demand, declared: one title long enough that no
/// viewer finishes inside the run, one flash arrival curve. The
/// compiled agent schedule is the arrival timetable the executor
/// below replays against the store and merge engine.
fn flash_crowd_spec(viewers: u32, spacing_us: u64) -> WorkloadSpec {
    let seconds = 2 * u64::from(viewers) * spacing_us / 1_000_000 + 60;
    WorkloadSpec::new("flash_crowd", 11)
        .title(TitleSpec::new("Premiere", seconds, 11))
        .phase(Phase::new(
            "crowd",
            SimDuration::ZERO,
            Arrival::Flash {
                viewers: viewers as usize,
                spacing: SimDuration::from_micros(spacing_us),
            },
            Popularity::Single("Premiere".into()),
            Behaviour::Watch,
        ))
}

/// Flash crowd: `viewers` arrivals spaced `spacing_us` apart, all on
/// ONE title served by a 2-disk store. With sharing off every viewer
/// charges a full disk stream and the spindles cap admissions; with
/// the merge engine one leader per position band is charged, joiners
/// inside the merge window ride the pinned cache span free, and
/// catch-up joiners charge only the fast-feed delta until they
/// converge. The run continues for as long again after the last
/// arrival so in-flight fast-feeds can converge and release.
fn flash_crowd(
    sharing: bool,
    viewers: u32,
    spacing_us: u64,
    cache_blocks: usize,
    merge_window_blocks: u64,
) -> FlashCrowd {
    let store = BlockStore::new(StoreConfig {
        disks: 2,
        block_size: 64 * 1024,
        cache_blocks,
        policy: CachePolicy::Interval,
        disk: DiskParams {
            transfer_bytes_per_sec: 2_000_000,
            sched: DiskSched::Scan,
            ..DiskParams::default()
        },
        ..StoreConfig::default()
    });
    let compiled = flash_crowd_spec(viewers, spacing_us)
        .compile()
        .expect("flash-crowd spec compiles");
    let title = &compiled.titles[0];
    let source = MovieSource::test_movie(title.seconds, title.seed);
    let movie = store.register_movie(&source);
    let share = ShareManager::new(ShareConfig {
        enabled: sharing,
        merge_window_blocks,
        catch_up_horizon_blocks: 4 * merge_window_blocks,
        catch_up_rate_pct: 125,
    });
    let journal = Arc::new(journal::Journal::new(Arc::new(netsim::VirtualClock::new())));
    share.attach_journal(Arc::clone(&journal), "bench-sps");
    let full = store.demand_for(movie, 100).expect("movie registered");
    let step = SimDuration::from_micros(spacing_us);
    // (stream, playback position in centi-frames, playback rate %).
    let mut playing: Vec<(u32, u64, u32)> = Vec::new();
    let mut now = SimTime::ZERO;
    let (mut admitted, mut refused) = (0usize, 0usize);
    // The compiled schedule drives arrivals; the run continues for as
    // long again after the last one so fast-feeds can converge.
    let mut arrivals = compiled.agents.iter().peekable();
    let mut next_id = 0u32;
    for _ in 0..2 * viewers {
        for (id, pos, rate) in playing.iter_mut() {
            *pos += spacing_us * u64::from(source.frame_rate) * u64::from(*rate) / 1_000_000;
            let frame = (*pos / 100).min(source.frame_count - 1);
            store.note_position(*id, frame);
            if let Some(block) = store.block_of_frame(movie, frame) {
                share.note_position(*id, block);
            }
        }
        store.pump(now);
        for id in share.converged_fast_feeds() {
            store
                .recharge_stream(id, 0)
                .expect("releasing a fast-feed delta always fits");
            if let Some(viewer) = playing.iter_mut().find(|v| v.0 == id) {
                viewer.2 = 100;
            }
            share.mark_converged(id);
        }
        store.set_pinned_ranges(&share.pinned_ranges());
        while arrivals
            .peek()
            .is_some_and(|a| a.start <= now.saturating_since(SimTime::ZERO))
        {
            arrivals.next();
            next_id += 1;
            let id = next_id;
            match share.plan_join(movie) {
                JoinPlan::Lead => {
                    if store.open_stream(id, movie, 100, now).is_ok() {
                        share.open_leader(id, movie);
                        playing.push((id, 0, 100));
                        admitted += 1;
                    } else {
                        refused += 1;
                    }
                }
                JoinPlan::Merge { leader, .. } => {
                    store
                        .open_stream_with_demand(id, movie, 100, 0, now)
                        .expect("zero-demand follower always admitted");
                    share.open_merged(id, movie, leader);
                    playing.push((id, 0, 100));
                    admitted += 1;
                }
                JoinPlan::FastFeed { leader, .. } => {
                    let delta = share.fast_feed_delta_bps(full);
                    if store
                        .open_stream_with_demand(id, movie, 125, delta, now)
                        .is_ok()
                    {
                        share.open_fast_feed(id, movie, leader, delta);
                        playing.push((id, 0, 125));
                        admitted += 1;
                    } else {
                        refused += 1;
                    }
                }
            }
        }
        now += step;
    }
    FlashCrowd {
        admitted,
        refused,
        stats: share.stats(),
        journal,
    }
}

/// The channel-surfing storm, declared end to end: viewers of one
/// title fire a rewind-heavy VCR op mix on a fixed cadence. The
/// compiled schedule runs on the full World driver twice — once with
/// the store's direction/stride prefetch hints enabled, once
/// disabled — and the buffer cache tells the difference.
fn vcr_storm_spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::new("vcr_storm", 77);
    for t in 0..6u64 {
        spec = spec.title(TitleSpec::new(format!("S{t}"), 600, 40 + t));
    }
    spec.phase(Phase::new(
        "storm",
        SimDuration::from_millis(10),
        Arrival::Flash {
            viewers: 6,
            spacing: SimDuration::from_millis(50),
        },
        Popularity::Cycle((0..6).map(|t| format!("S{t}")).collect()),
        Behaviour::VcrStorm {
            ops: 30,
            mix: VcrMix {
                seek_back_pct: 70,
                seek_fwd_pct: 10,
                ff_pct: 10,
                pause_pct: 5,
            },
            op_interval: SimDuration::from_millis(250),
            jump_frames: 900,
        },
    ))
}

/// Outcome of one VCR-storm run.
struct VcrStorm {
    /// The workload runner's journal-derived verdict.
    report: workload::RunReport,
    /// The store's end-to-end service cache hit ratio, in permille.
    hit_permille: u64,
    /// The compiled agent-script dump (CI uploads it as an artifact).
    agents_jsonl: String,
}

/// Runs the compiled VCR storm on the World driver with the store's
/// trick-mode prefetch hints on or off.
fn vcr_storm(hints: bool) -> VcrStorm {
    let compiled = vcr_storm_spec().compile().expect("vcr-storm spec compiles");
    let link = LinkConfig::lossy(
        SimDuration::from_millis(2),
        SimDuration::from_micros(500),
        0.0,
    );
    // Six viewers storm six private 600 s titles (≈800 blocks each
    // at 64 KiB) through a cache that holds a small fraction of any
    // one of them, so a 900-frame jump (≈48 blocks) lands outside
    // plain forward-window residency: only the hinted backward sweep
    // / widened skim horizon can have the target warm.
    let mut world = World::builder(47)
        .stream_link(link)
        .store(StoreConfig {
            disks: 2,
            block_size: 64 * 1024,
            cache_blocks: 128,
            readahead_blocks: 4,
            // LRU, not Interval: swept rewind targets have no
            // trailing sequential consumer, so interval caching would
            // evict them before the next backward jump lands.
            policy: CachePolicy::Lru,
            prefetch_hints: hints,
            ..StoreConfig::default()
        })
        .build();
    let server = world.add_server("ksr1", StackKind::EstellePS);
    let report = workload::run(&mut world, &server, &compiled);
    let stats = server.services.store.stats();
    VcrStorm {
        report,
        hit_permille: (stats.service_hit_ratio() * 1000.0).round() as u64,
        agents_jsonl: compiled.to_jsonl(),
    }
}

/// Outcome of one crash-survival run.
struct CrashSurvival {
    /// Streams in flight on the machine that crashed.
    in_flight: usize,
    /// Streams re-established on a survivor via the referral follower.
    failed_over: usize,
    /// The run's event journal (crashes, failovers, repair copies).
    journal: Arc<journal::Journal>,
}

/// Crash survival: `viewers` clients of a `servers`-wide K=2 cluster,
/// every control association homed (via a referral, so each client
/// caches the live candidate list) on the same replica that serves
/// all the streams — then that machine crashes mid-stream. Capable
/// clients must fail over through the referral follower and replay
/// their sessions on a survivor; the fraction that does is the
/// survival fraction CI tracks.
fn crash_survival(servers: usize, viewers: usize) -> CrashSurvival {
    let link = LinkConfig::lossy(
        SimDuration::from_millis(2),
        SimDuration::from_micros(500),
        0.0,
    );
    let mut world = World::builder(43).stream_link(link).build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        servers,
        StackKind::EstellePS,
        Placement::round_robin(2),
    ));
    let a = cluster.servers[0].services.sps.location();
    let b = cluster.servers[1].services.sps.location();
    let handles: Vec<_> = (0..viewers)
        .map(|_| world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]))
        .collect();
    world.start();

    // Home every client on B through one pinned referral hop (the hop
    // caches the candidate list the failover later falls back on);
    // inflated counts elsewhere keep B from referring them onward.
    for server in &cluster.servers {
        let location = server.services.sps.location();
        if location != b {
            for _ in 0..4 * viewers {
                cluster.control.connected(&location);
            }
        }
    }
    cluster.control.pin(&a, &b);
    for (i, client) in handles.iter().enumerate() {
        let rsp = world.client_op(
            client,
            McamOp::Associate {
                user: format!("viewer-{i}"),
            },
        );
        assert_eq!(rsp, Some(McamPdu::AssociateRsp { accepted: true }));
        assert_eq!(world.client_control_location(client), b);
    }
    cluster.control.unpin(&a);
    for server in &cluster.servers {
        let location = server.services.sps.location();
        if location != b {
            for _ in 0..4 * viewers {
                cluster.control.disconnected(&location);
            }
        }
    }

    let mut entry = MovieEntry::new("Blockbuster", "pending");
    entry.frame_count = 2_000;
    let replicas = world.publish_replicated(&cluster, &entry);
    assert!(replicas.contains(&b), "B holds a replica: {replicas:?}");
    // Filler load on the other replicas steers every stream onto B.
    let mut filler_addr = 3_000u32;
    for location in replicas.iter().filter(|l| **l != b) {
        let provider = cluster.peers.get(location).expect("replica registered");
        for i in 0..2 * viewers as u32 {
            let mut filler = MovieEntry::new(format!("Busy-{location}-{i}"), "pending");
            filler.frame_count = 5_000;
            filler_addr += 1;
            provider
                .open(
                    source_for_entry(&filler),
                    NetAddr(filler_addr),
                    world.net.now(),
                )
                .expect("filler admitted");
        }
    }
    for client in &handles {
        let rsp = world.client_op(
            client,
            McamOp::SelectMovie {
                title: "Blockbuster".into(),
            },
        );
        match rsp {
            Some(McamPdu::SelectMovieRsp { params: Some(p) }) => {
                assert_eq!(format!("node-{}", p.provider_addr), b);
            }
            other => panic!("select failed: {other:?}"),
        }
        assert_eq!(
            world.client_op(client, McamOp::Play { speed_pct: 100 }),
            Some(McamPdu::PlayRsp { ok: true })
        );
    }
    world.run_for(SimDuration::from_secs(2));

    let in_flight = world.crash_server(&cluster.servers[1]);
    world.run_for(SimDuration::from_secs(5));
    let failed_over = world.journal().count(journal::kind::STREAM_FAILED_OVER) as usize;
    CrashSurvival {
        in_flight,
        failed_over,
        journal: Arc::clone(world.journal()),
    }
}

/// Paced spindle rebuild under foreground load: a 4-disk store with
/// `foreground` open streams loses one arm; reconstruction reserves
/// `reserve_pct` of the remaining uncommitted bandwidth and streams
/// the lost blocks back. Returns `(lost_blocks, rebuild_millis)` on
/// the simulated clock.
fn rebuild_time(foreground: u32, reserve_pct: u64) -> (u64, u64) {
    let store = BlockStore::new(slow_disk_config(4, DiskSched::Scan));
    let movie = MovieSource::test_movie(120, 5);
    let id = store.register_movie(&movie);
    for stream in 0..foreground {
        store
            .open_stream(stream, id, 100, SimTime::ZERO)
            .expect("foreground viewer admitted");
    }
    let mut now = SimTime::ZERO;
    // Let the viewers pull a little so the layout is materialized hot.
    for _ in 0..20 {
        if let Some(t) = store.next_event() {
            now = now.max(t);
        }
        store.pump(now);
    }
    let lost = store.fail_disk(0, now);
    assert!(lost > 0, "the dead arm held blocks");
    let reserve = (store.available_bps() * reserve_pct / 100).max(1);
    store
        .begin_rebuild(reserve, now)
        .expect("rebuild reservation admitted");
    let started = now;
    let mut guard = 0u32;
    while store.rebuild_active() {
        guard += 1;
        assert!(guard < 1_000_000, "rebuild did not converge");
        if let Some(t) = store.next_event() {
            now = now.max(t);
        }
        store.pump(now);
    }
    (lost, now.saturating_since(started).as_micros() / 1_000)
}

/// Joins `{...}` rows into a deterministic JSON array literal.
fn json_array(rows: &[String]) -> String {
    rows.join(", ")
}

/// Wall-clock scaling on the threaded backend: the same per-thread
/// workload at 1, 2 and 4 worker threads. On a >= 4-core host the
/// 4-thread run must deliver at least 2x the 1-thread frames/sec; on
/// smaller hosts the assertion is skipped (the threads would only
/// time-slice one core) and the report says so. Returns the artifact
/// JSON CI uploads next to the simulated report.
fn wall_clock_scaling_report() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("store_throughput: wall-clock scaling (threaded backend, {cores} core(s))");
    let mut rows = Vec::new();
    let mut fps_at = [0u64; 3];
    for (i, threads) in [1usize, 2, 4].into_iter().enumerate() {
        let report = mcam::wall_clock::run(mcam::wall_clock::WallClockConfig {
            threads,
            streams_per_thread: 8,
            frames_per_stream: 400,
            frame_size: 16 * 1024,
        });
        assert_eq!(report.sequence_errors, 0, "conduits deliver in order");
        assert_eq!(
            report.steady_state_allocs, 0,
            "senders must live off recycled buffers after warm-up"
        );
        let fps = report.frames_per_sec();
        fps_at[i] = fps;
        println!(
            "  threads={threads} streams_sustained={:<2} frames/s={fps}",
            report.streams_sustained
        );
        rows.push(format!(
            "{{\"threads\": {threads}, \"streams_sustained\": {}, \
             \"frames_delivered\": {}, \"frames_per_sec\": {fps}}}",
            report.streams_sustained, report.frames_delivered
        ));
    }
    let scaling_asserted = cores >= 4;
    if scaling_asserted {
        assert!(
            fps_at[2] >= 2 * fps_at[0],
            "4 worker threads must sustain >= 2x the 1-thread wall-clock \
             throughput on a {cores}-core host (4t={} 1t={})",
            fps_at[2],
            fps_at[0]
        );
        println!(
            "  scaling: 4-thread >= 2x 1-thread holds ({} vs {})",
            fps_at[2], fps_at[0]
        );
    } else {
        println!("  scaling assertion skipped: {cores} core(s) < 4 would only time-slice");
    }
    format!(
        "{{\n  \"bench\": \"store_throughput\",\n  \"mode\": \"wall_clock\",\n  \
         \"backend\": \"threaded\",\n  \"cores\": {cores},\n  \
         \"scaling_asserted\": {scaling_asserted},\n  \"runs\": [{}]\n}}\n",
        rows.join(", ")
    )
}

/// Runs every scenario with its assertions, prints the human report,
/// and returns the machine-readable report (the exact bytes of
/// `BENCH_store_throughput.json`) plus the control-fanout journal and
/// the crash-survival fault journal.
fn scenario_report() -> (String, Arc<journal::Journal>, Arc<journal::Journal>, String) {
    println!("store_throughput: streams sustained vs. disk count and queue discipline");
    let mut disk_rows = Vec::new();
    let mut prev = 0;
    for disks in [1usize, 2, 4, 8] {
        let fifo = streams_sustained(disks, DiskSched::Fifo);
        let scan = streams_sustained(disks, DiskSched::Scan);
        println!(
            "  disks={disks:<2} streams_sustained fifo={fifo:<4} scan={scan:<4} \
             (+{:.0}%)",
            (scan as f64 / fifo as f64 - 1.0) * 100.0
        );
        assert!(scan >= prev, "more disks must not sustain fewer streams");
        assert!(
            scan > fifo,
            "the elevator sweep must outperform FIFO (scan={scan} fifo={fifo})"
        );
        prev = scan;
        disk_rows.push(format!(
            "{{\"disks\": {disks}, \"fifo\": {fifo}, \"scan\": {scan}}}"
        ));
    }
    println!("store_throughput: cluster streams sustained vs. server count (K=2 replicas)");
    let mut cluster_rows = Vec::new();
    let mut single = 0;
    let mut prev = 0;
    for servers in [1usize, 2, 3, 4] {
        let sustained = cluster_streams_sustained(servers, 2);
        if servers == 1 {
            single = sustained;
        }
        println!(
            "  servers={servers} streams_sustained={sustained} ({:.1}x one server)",
            sustained as f64 / single as f64
        );
        assert!(
            sustained >= prev,
            "more servers must not sustain fewer streams"
        );
        prev = sustained;
        cluster_rows.push(format!(
            "{{\"servers\": {servers}, \"streams_sustained\": {sustained}}}"
        ));
    }
    assert!(
        prev >= 3 * single,
        "4 servers must sustain at least 3x one server (got {prev} vs {single})"
    );
    println!("store_throughput: hot-title skew (80% of demand on one title, 4 servers)");
    let (static_k2, _) = hot_title_streams_sustained(false);
    let (dynamic, rebalance) = hot_title_streams_sustained(true);
    println!("  placement=static-K2  streams_sustained={static_k2}");
    println!(
        "  placement=rebalanced streams_sustained={dynamic} ({:.2}x static)",
        dynamic as f64 / static_k2 as f64
    );
    assert!(
        dynamic as f64 >= 1.5 * static_k2 as f64,
        "dynamic rebalancing must sustain >= 1.5x the streams of static K=2 \
         (dynamic={dynamic} static={static_k2})"
    );
    println!(
        "  rebalance: copies_completed={} directory_updates={}",
        rebalance.copies_completed, rebalance.directory_updates
    );
    assert!(
        rebalance.directory_updates >= rebalance.copies_completed,
        "every completed copy must surface as a directory update \
         (copies_completed={} directory_updates={})",
        rebalance.copies_completed,
        rebalance.directory_updates
    );
    println!("store_throughput: playback streams sustained vs. active recordings");
    let base = streams_sustained_while_recording(0);
    println!("  recorders=0 playback_streams={base}");
    let mut record_rows = vec![format!(
        "{{\"recorders\": 0, \"playback_streams\": {base}}}"
    )];
    for recorders in [2u32, 4] {
        let sustained = streams_sustained_while_recording(recorders);
        println!("  recorders={recorders} playback_streams={sustained}");
        assert_eq!(
            sustained,
            base - recorders as usize,
            "each recording must displace exactly one equal-bitrate viewer"
        );
        record_rows.push(format!(
            "{{\"recorders\": {recorders}, \"playback_streams\": {sustained}}}"
        ));
    }
    println!("store_throughput: interval-cache hit ratio vs. viewer spacing");
    let close = hit_ratio_at_spacing(CachePolicy::Interval, 64, 4);
    let far = hit_ratio_at_spacing(CachePolicy::Interval, 64, 100_000);
    println!("  spacing=close hit_ratio={close:.3}");
    println!("  spacing=far   hit_ratio={far:.3}");
    assert!(
        close > far,
        "closely-spaced viewers must hit the cache more (close={close:.3} far={far:.3})"
    );
    println!("store_throughput: flash crowd (1000 viewers over 60 s, one title, 2 disks)");
    let off = flash_crowd(false, 1000, 60_000, 96, 16);
    let on = flash_crowd(true, 1000, 60_000, 96, 16);
    println!(
        "  sharing=off admitted={:<4} refused={:<4} (per-spindle {})",
        off.admitted,
        off.refused,
        off.admitted / 2
    );
    println!(
        "  sharing=on  admitted={:<4} refused={:<4} (per-spindle {}, {:.1}x, \
         merges={} fast_feeds={} conversions={})",
        on.admitted,
        on.refused,
        on.admitted / 2,
        on.admitted as f64 / off.admitted as f64,
        on.stats.merges,
        on.stats.fast_feeds,
        on.stats.conversions
    );
    assert!(
        on.admitted >= 10 * off.admitted,
        "the merge engine must sustain >= 10x the sharing-off per-spindle \
         streams (on={} off={})",
        on.admitted,
        off.admitted
    );
    assert!(
        on.stats.merges > 0 && on.stats.fast_feeds > 0 && on.stats.conversions > 0,
        "a 60 s flash crowd must exercise merge, fast-feed and convergence \
         (stats={:?})",
        on.stats
    );
    journal::verify_events(&on.journal.events()).expect("share journal chain intact");
    let merges_logged = on.journal.count(journal::kind::MERGE_JOINED);
    let feeds_logged = on.journal.count(journal::kind::FAST_FEED_STARTED);
    let conversions_logged = on.journal.count(journal::kind::FAST_FEED_CONVERGED);
    println!(
        "  journal: merge_joined={merges_logged} fast_feed_started={feeds_logged} \
         fast_feed_converged={conversions_logged} ({} events, chain verified)",
        on.journal.len()
    );
    assert!(
        merges_logged > 0 && feeds_logged > 0 && conversions_logged > 0,
        "every share lifecycle step must reach the journal"
    );
    println!("store_throughput: flash-crowd calibration (40 viewers, spacing x cache x window)");
    let mut calibration_rows = Vec::new();
    for spacing_ms in [250u64, 1000, 4000] {
        for cache_blocks in [16usize, 96] {
            for window in [4u64, 16] {
                let run = flash_crowd(true, 40, spacing_ms * 1000, cache_blocks, window);
                println!(
                    "  spacing={spacing_ms:<4}ms cache={cache_blocks:<2} window={window:<2} \
                     admitted={:<2} merges={:<2} fast_feeds={:<2}",
                    run.admitted, run.stats.merges, run.stats.fast_feeds
                );
                calibration_rows.push((spacing_ms, cache_blocks, window, run));
            }
        }
    }
    for chunk in calibration_rows.chunks(2) {
        let (narrow, wide) = (&chunk[0].3, &chunk[1].3);
        assert!(
            wide.admitted >= narrow.admitted,
            "a wider merge window must never admit fewer viewers"
        );
        assert!(
            wide.stats.merges >= narrow.stats.merges,
            "a wider merge window must never merge fewer viewers"
        );
    }
    let calibration_json: Vec<String> = calibration_rows
        .iter()
        .map(|(spacing_ms, cache_blocks, window, run)| {
            format!(
                "{{\"spacing_ms\": {spacing_ms}, \"cache_blocks\": {cache_blocks}, \
                 \"merge_window\": {window}, \"admitted\": {}, \"merges\": {}, \
                 \"fast_feeds\": {}}}",
                run.admitted, run.stats.merges, run.stats.fast_feeds
            )
        })
        .collect();
    println!(
        "store_throughput: control-connection fan-out \
         (16 clients all dial server 0 of 4)"
    );
    let (legacy, _) = control_fanout(4, 16, false);
    let (spread, fanout_journal) = control_fanout(4, 16, true);
    println!("  clients=legacy        per_server={legacy:?}");
    println!("  clients=cluster-aware per_server={spread:?}");
    assert_eq!(
        legacy[0], 16,
        "legacy clients all pile onto the dialed server"
    );
    let fair = 16 / 4;
    let max = *spread.iter().max().unwrap();
    assert!(
        max <= 2 * fair,
        "referrals must hold every server at <= 2x its fair share \
         (fair={fair}, got {spread:?})"
    );
    assert!(
        spread.iter().all(|n| *n >= 1),
        "no server may be left without control work: {spread:?}"
    );
    journal::verify_events(&fanout_journal.events()).expect("fan-out journal chain intact");
    let issued = fanout_journal.count(journal::kind::REFERRAL_ISSUED);
    let followed = fanout_journal.count(journal::kind::REFERRAL_FOLLOWED);
    let failed = fanout_journal.count(journal::kind::REFERRAL_FAILED);
    println!(
        "  journal: referrals issued={issued} followed={followed} failed={failed} \
         ({} events, chain verified)",
        fanout_journal.len()
    );
    assert!(followed > 0, "cluster-aware clients must follow referrals");
    println!("store_throughput: paced spindle rebuild under 4 foreground viewers");
    let mut rebuild_rows = Vec::new();
    let mut prev_ms = u64::MAX;
    let mut prev_lost = None;
    for reserve_pct in [25u64, 75] {
        let (lost, ms) = rebuild_time(4, reserve_pct);
        println!("  reserve={reserve_pct:<2}% lost_blocks={lost} rebuild_ms={ms}");
        if let Some(prev) = prev_lost {
            assert_eq!(lost, prev, "the same arm dies in every run");
        }
        prev_lost = Some(lost);
        assert!(
            ms <= prev_ms,
            "a larger reservation must not slow the rebuild ({ms} ms after {prev_ms} ms)"
        );
        prev_ms = ms;
        rebuild_rows.push(format!(
            "{{\"reserve_pct\": {reserve_pct}, \"lost_blocks\": {lost}, \"rebuild_ms\": {ms}}}"
        ));
    }
    println!("store_throughput: crash survival (10 streams on one machine of 4, K=2)");
    let crash = crash_survival(4, 10);
    let survival_permille = 1000 * crash.failed_over / crash.in_flight.max(1);
    println!(
        "  in_flight={} failed_over={} survival={}.{}%",
        crash.in_flight,
        crash.failed_over,
        survival_permille / 10,
        survival_permille % 10
    );
    assert!(
        crash.in_flight >= 10,
        "every viewer was streaming at the crash"
    );
    assert!(
        10 * crash.failed_over >= 9 * crash.in_flight,
        "at least 90% of in-flight streams must survive the crash \
         (failed_over={} in_flight={})",
        crash.failed_over,
        crash.in_flight
    );
    journal::verify_events(&crash.journal.events()).expect("fault journal chain intact");
    let crashes = crash.journal.count(journal::kind::SERVER_CRASHED);
    let failovers = crash.journal.count(journal::kind::STREAM_FAILED_OVER);
    println!(
        "  journal: server_crashed={crashes} stream_failed_over={failovers} \
         ({} events, chain verified)",
        crash.journal.len()
    );
    assert_eq!(crashes, 1, "exactly one machine died");
    println!("store_throughput: VCR storm (rewind-heavy trick modes, prefetch hints A/B)");
    let storm_off = vcr_storm(false);
    let storm_on = vcr_storm(true);
    println!(
        "  hints=off admitted={:<2} hit_permille={}",
        storm_off.report.admitted, storm_off.hit_permille
    );
    println!(
        "  hints=on  admitted={:<2} hit_permille={}",
        storm_on.report.admitted, storm_on.hit_permille
    );
    assert_eq!(
        storm_on.report.agents, storm_off.report.agents,
        "both runs drive the same compiled schedule"
    );
    assert!(
        storm_on.report.admitted >= storm_off.report.admitted,
        "trick-mode hints must never cost admitted streams \
         (on={} off={})",
        storm_on.report.admitted,
        storm_off.report.admitted
    );
    assert!(
        storm_on.hit_permille > storm_off.hit_permille,
        "direction/stride prefetch hints must raise the cache-hit permille \
         under a rewind-heavy storm (on={} off={})",
        storm_on.hit_permille,
        storm_off.hit_permille
    );
    let fanout = |v: &[usize]| {
        v.iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    // Ratios are reported in permille so the committed file carries
    // only integers and regenerates byte-identically.
    let json = format!(
        "{{\n  \"bench\": \"store_throughput\",\n  \"mode\": \"smoke\",\n  \"scenarios\": {{\n    \"disk_sweep\": [{disk}],\n    \"cluster_sweep\": [{cluster}],\n    \"hot_title_skew\": {{\"static_k2\": {static_k2}, \"rebalanced\": {dynamic}, \"copies_completed\": {copies}, \"grows_started\": {grows}, \"directory_updates\": {dirs}}},\n    \"record_playback\": [{record}],\n    \"interval_cache\": {{\"close_hit_permille\": {close_pm}, \"far_hit_permille\": {far_pm}}},\n    \"flash_crowd\": {{\"viewers\": 1000, \"sharing_off\": {fc_off}, \"sharing_on\": {fc_on}, \"refused_on\": {fc_refused}, \"merges\": {fc_merges}, \"fast_feeds\": {fc_feeds}, \"conversions\": {fc_conversions}, \"journal_events\": {fc_journal}}},\n    \"flash_crowd_calibration\": [{calibration}],\n    \"control_fanout\": {{\"legacy_per_server\": [{legacy}], \"referred_per_server\": [{spread}], \"referrals_issued\": {issued}, \"referrals_followed\": {followed}, \"referrals_failed\": {failed}, \"journal_events\": {journal_len}}},\n    \"spindle_rebuild\": [{rebuild}],\n    \"crash_survival\": {{\"servers\": 4, \"k\": 2, \"in_flight\": {cs_in_flight}, \"failed_over\": {cs_failed_over}, \"survival_permille\": {cs_permille}, \"server_crashes\": {cs_crashes}, \"journal_events\": {cs_journal}}},\n    \"vcr_storm\": {{\"viewers\": {vs_agents}, \"ops\": {vs_ops}, \"hints_off_hit_permille\": {vs_off_pm}, \"hints_on_hit_permille\": {vs_on_pm}, \"hints_off_admitted\": {vs_off_adm}, \"hints_on_admitted\": {vs_on_adm}}}\n  }}\n}}\n",
        disk = json_array(&disk_rows),
        cluster = json_array(&cluster_rows),
        copies = rebalance.copies_completed,
        grows = rebalance.grows_started,
        dirs = rebalance.directory_updates,
        record = json_array(&record_rows),
        close_pm = (close * 1000.0).round() as u64,
        far_pm = (far * 1000.0).round() as u64,
        fc_off = off.admitted,
        fc_on = on.admitted,
        fc_refused = on.refused,
        fc_merges = on.stats.merges,
        fc_feeds = on.stats.fast_feeds,
        fc_conversions = on.stats.conversions,
        fc_journal = on.journal.len(),
        calibration = json_array(&calibration_json),
        legacy = fanout(&legacy),
        spread = fanout(&spread),
        journal_len = fanout_journal.len(),
        rebuild = json_array(&rebuild_rows),
        cs_in_flight = crash.in_flight,
        cs_failed_over = crash.failed_over,
        cs_permille = survival_permille,
        cs_crashes = crashes,
        cs_journal = crash.journal.len(),
        vs_agents = storm_on.report.agents,
        vs_ops = storm_on.report.ops,
        vs_off_pm = storm_off.hit_permille,
        vs_on_pm = storm_on.hit_permille,
        vs_off_adm = storm_off.report.admitted,
        vs_on_adm = storm_on.report.admitted,
    );
    (json, fanout_journal, crash.journal, storm_on.agents_jsonl)
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::var_os("STORE_THROUGHPUT_SMOKE").is_some();
    REPORT.call_once(|| {
        let (json, fanout_journal, crash_journal, storm_agents) = scenario_report();
        if smoke {
            // Persist the perf trajectory (committed, CI diffs it) and
            // the journals of the fan-out and fault runs (uploaded as
            // artifacts).
            let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
            let bench_path = format!("{root}/BENCH_store_throughput.json");
            std::fs::write(&bench_path, &json).expect("write BENCH_store_throughput.json");
            println!("store_throughput: wrote {bench_path}");
            let journal_dir = format!("{root}/target");
            std::fs::create_dir_all(&journal_dir).expect("create target dir");
            let journal_path = format!("{journal_dir}/store_throughput_journal.jsonl");
            std::fs::write(&journal_path, fanout_journal.to_jsonl())
                .expect("write journal artifact");
            println!("store_throughput: wrote {journal_path}");
            let fault_path = format!("{journal_dir}/crash_survival_journal.jsonl");
            std::fs::write(&fault_path, crash_journal.to_jsonl())
                .expect("write fault journal artifact");
            println!("store_throughput: wrote {fault_path}");
            // The compiled VCR-storm agent scripts: the exact per-client
            // schedule the A/B runs replayed (uploaded as an artifact).
            let agents_path = format!("{journal_dir}/vcr_storm_agents.jsonl");
            std::fs::write(&agents_path, &storm_agents).expect("write agent-script artifact");
            println!("store_throughput: wrote {agents_path}");
            // Real multi-core scaling of the threaded backend, written
            // next to the simulated report (uploaded as an artifact).
            let wall_path = format!("{journal_dir}/store_throughput_wallclock.json");
            std::fs::write(&wall_path, wall_clock_scaling_report())
                .expect("write wall-clock artifact");
            println!("store_throughput: wrote {wall_path}");
        }
    });
    if smoke {
        println!("store_throughput: smoke mode — timing loops skipped");
        return;
    }
    let mut group = c.benchmark_group("store_throughput");
    group.sample_size(10);
    group.bench_function("admission_sweep_4_disks", |b| {
        b.iter(|| criterion::black_box(streams_sustained(4, DiskSched::Scan)));
    });
    group.bench_function("cluster_admission_3_servers", |b| {
        b.iter(|| criterion::black_box(cluster_streams_sustained(3, 2)));
    });
    group.bench_function("mixed_record_playback", |b| {
        b.iter(|| criterion::black_box(streams_sustained_while_recording(2)));
    });
    group.bench_function("hot_title_rebalanced", |b| {
        b.iter(|| criterion::black_box(hot_title_streams_sustained(true).0));
    });
    group.bench_function("two_viewers_interval_cache", |b| {
        b.iter(|| criterion::black_box(hit_ratio_at_spacing(CachePolicy::Interval, 64, 4)));
    });
    group.bench_function("flash_crowd_200_viewers", |b| {
        b.iter(|| criterion::black_box(flash_crowd(true, 200, 60_000, 96, 16).admitted));
    });
    group.bench_function("control_fanout_8_clients", |b| {
        b.iter(|| criterion::black_box(control_fanout(4, 8, true).0));
    });
    group.bench_function("spindle_rebuild_4_viewers", |b| {
        b.iter(|| criterion::black_box(rebuild_time(4, 50)));
    });
    group.bench_function("crash_survival_10_viewers", |b| {
        b.iter(|| criterion::black_box(crash_survival(4, 10).failed_over));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
