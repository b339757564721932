//! Storage-subsystem benchmarks, one row of [`SCENARIOS`] each: streams
//! sustained vs. disk count and queue discipline and vs. *server*
//! count in a replicated cluster, hot-title rebalancing, the mixed
//! record+playback workload, cache hit ratio vs. viewer spacing, flash
//! crowds under stream sharing, control-connection fan-out, spindle
//! rebuild, crash survival and the VCR-storm prefetch-hint A/B.
//!
//! The run prints every scenario's report lines (with its assertions)
//! and then times the reduced runs. `STORE_THROUGHPUT_SMOKE=1` skips
//! the timing loops and writes `BENCH_store_throughput.json` and the
//! `target/` artifacts instead — the mode CI runs on every PR to track
//! the perf trajectory cheaply.

use cluster::{Placement, RebalanceConfig, RebalanceController, ReplicaDirectory};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use directory::MovieEntry;
use mcam::agents::source_for_entry;
use mcam::{ClusterSpec, McamOp, McamPdu, StackKind, World};
use mtp::MovieSource;
use netsim::{NetAddr, SimDuration, SimTime};
use share::{JoinPlan, ShareConfig, ShareManager};
use std::sync::Arc;
use store::{BlockStore, CachePolicy, DiskParams, DiskSched, StoreConfig};
use workload::{
    Arrival, Behaviour, CompiledWorkload, Phase, Popularity, TitleSpec, VcrMix, WorkloadSpec,
};

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

/// The hand-driven clock of the scenarios that run bare `BlockStore`s:
/// no `World` advances time for them. Starts at time zero.
#[derive(Default)]
struct StoreClock {
    now: SimTime,
    jumps: u32,
}

impl StoreClock {
    /// Jumps to the earliest of `pending` if it lies ahead of `now`,
    /// and says whether it did. A scenario still jumping after a
    /// million of them is not converging.
    fn jump(&mut self, pending: impl IntoIterator<Item = SimTime>) -> bool {
        self.jumps += 1;
        assert!(self.jumps < 1_000_000, "store scenario did not converge");
        match pending.into_iter().min() {
            Some(t) if t > self.now => {
                self.now = t;
                true
            }
            _ => false,
        }
    }

    /// Jumps to `store`'s next event and pumps it there.
    fn pump(&mut self, store: &BlockStore) {
        self.jump(store.next_event());
        store.pump(self.now);
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
    let stores: Vec<Arc<BlockStore>> = dir.locations().iter().filter_map(|l| dir.get(l)).collect();
    let mut clock = StoreClock::default();
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
                if open(clock.now, &mut stream) {
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
                loop {
                    ctl.tick(clock.now);
                    for store in &stores {
                        store.pump(clock.now);
                    }
                    if ctl.stats().copies_completed > before {
                        if open(clock.now, &mut stream) {
                            admitted += 1;
                            any = true;
                        }
                        break;
                    }
                    let pending = stores.iter().filter_map(|store| store.next_event());
                    if !clock.jump(pending.chain(ctl.next_tick_at())) {
                        break 'demand; // no copy possible: cluster is done growing
                    }
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
fn run_control_fanout(
    servers: usize,
    clients: usize,
    referrals: bool,
) -> (Vec<usize>, Arc<journal::Journal>) {
    let mut world = World::builder(41).build();
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
    let mut clock = StoreClock::default();
    loop {
        clock.pump(&store);
        let leader_frames = store.frames_ready_through(1).unwrap_or(0);
        store.note_position(1, leader_frames);
        if !started_follower && leader_frames >= spacing {
            store
                .open_stream(2, id, 100, clock.now)
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
fn run_flash_crowd(
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

/// Runs the compiled VCR storm on the World driver with the store's
/// trick-mode prefetch hints on or off. Returns the workload runner's
/// journal-derived verdict and the store's end-to-end service cache
/// hit ratio, in permille.
fn run_vcr_storm(compiled: &CompiledWorkload, hints: bool) -> (workload::RunReport, u64) {
    // Six viewers storm six private 600 s titles (≈800 blocks each
    // at 64 KiB) through a cache that holds a small fraction of any
    // one of them, so a 900-frame jump (≈48 blocks) lands outside
    // plain forward-window residency: only the hinted backward sweep
    // / widened skim horizon can have the target warm.
    let mut world = World::builder(47)
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
    let report = workload::run(&mut world, &server, compiled);
    let stats = server.services.store.stats();
    (report, (stats.service_hit_ratio() * 1000.0).round() as u64)
}

/// Crash survival: `viewers` clients of a `servers`-wide K=2 cluster,
/// every control association homed (via a referral, so each client
/// caches the live candidate list) on the same replica that serves
/// all the streams — then that machine crashes mid-stream. Capable
/// clients must fail over through the referral follower and replay
/// their sessions on a survivor; the fraction that does is the
/// survival fraction CI tracks. Returns the streams that were in flight
/// on the machine that crashed and the run's event journal (crashes,
/// failovers, repair copies).
fn run_crash_survival(servers: usize, viewers: usize) -> (usize, Arc<journal::Journal>) {
    let mut world = World::builder(43).build();
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
    (in_flight, Arc::clone(world.journal()))
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
    let mut clock = StoreClock::default();
    // Let the viewers pull a little so the layout is materialized hot.
    for _ in 0..20 {
        clock.pump(&store);
    }
    let lost = store.fail_disk(0, clock.now);
    assert!(lost > 0, "the dead arm held blocks");
    let reserve = (store.available_bps() * reserve_pct / 100).max(1);
    store
        .begin_rebuild(reserve, clock.now)
        .expect("rebuild reservation admitted");
    let started = clock.now;
    while store.rebuild_active() {
        clock.pump(&store);
    }
    let millis = clock.now.saturating_since(started).as_micros() / 1_000;
    (lost, millis)
}

/// `obj! {"key": value, …}`: one object of `BENCH_store_throughput.json`,
/// keys in the order written. The file holds integers, arrays and
/// objects and nothing else (ratios go in as permille), which is what
/// lets it regenerate byte for byte.
macro_rules! obj {
    ($($key:literal: $value:expr),+ $(,)?) => {
        format!("{{{}}}", [$(format!("\"{}\": {}", $key, $value)),+].join(", "))
    };
}

/// `[item, …]` of integers or objects.
fn arr<T: ToString>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|item| item.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// What the smoke run writes beside the report: path from the
/// repository root and contents, in the order the scenarios produced
/// them.
type Artifacts = Vec<(&'static str, String)>;

/// One row of [`SCENARIOS`].
struct Scenario {
    /// The scenario's key in `BENCH_store_throughput.json`.
    key: &'static str,
    /// What the report prints above the scenario's lines.
    headline: &'static str,
    /// Runs the scenario, prints its lines, asserts its claims and
    /// returns its section of the JSON file.
    run: fn(&mut Artifacts) -> String,
    /// The criterion id and body of the scenario's timing loop.
    timed: Option<(&'static str, fn())>,
}

fn disk_sweep(_: &mut Artifacts) -> String {
    let mut rows = Vec::new();
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
        rows.push(obj! {"disks": disks, "fifo": fifo, "scan": scan});
    }
    arr(rows)
}

fn cluster_sweep(_: &mut Artifacts) -> String {
    let mut rows = Vec::new();
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
        rows.push(obj! {"servers": servers, "streams_sustained": sustained});
    }
    assert!(
        prev >= 3 * single,
        "4 servers must sustain at least 3x one server (got {prev} vs {single})"
    );
    arr(rows)
}

fn hot_title_skew(_: &mut Artifacts) -> String {
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
    obj! {
        "static_k2": static_k2, "rebalanced": dynamic,
        "copies_completed": rebalance.copies_completed, "grows_started": rebalance.grows_started,
        "directory_updates": rebalance.directory_updates,
    }
}

fn record_playback(_: &mut Artifacts) -> String {
    let base = streams_sustained_while_recording(0);
    println!("  recorders=0 playback_streams={base}");
    let mut rows = vec![obj! {"recorders": 0, "playback_streams": base}];
    for recorders in [2u32, 4] {
        let sustained = streams_sustained_while_recording(recorders);
        println!("  recorders={recorders} playback_streams={sustained}");
        assert_eq!(
            sustained,
            base - recorders as usize,
            "each recording must displace exactly one equal-bitrate viewer"
        );
        rows.push(obj! {"recorders": recorders, "playback_streams": sustained});
    }
    arr(rows)
}

fn interval_cache(_: &mut Artifacts) -> String {
    let close = hit_ratio_at_spacing(CachePolicy::Interval, 64, 4);
    let far = hit_ratio_at_spacing(CachePolicy::Interval, 64, 100_000);
    println!("  spacing=close hit_ratio={close:.3}");
    println!("  spacing=far   hit_ratio={far:.3}");
    assert!(
        close > far,
        "closely-spaced viewers must hit the cache more (close={close:.3} far={far:.3})"
    );
    obj! {
        "close_hit_permille": (close * 1000.0).round() as u64,
        "far_hit_permille": (far * 1000.0).round() as u64,
    }
}

fn flash_crowd(_: &mut Artifacts) -> String {
    let off = run_flash_crowd(false, 1000, 60_000, 96, 16);
    let on = run_flash_crowd(true, 1000, 60_000, 96, 16);
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
    obj! {
        "viewers": 1000, "sharing_off": off.admitted, "sharing_on": on.admitted,
        "refused_on": on.refused, "merges": on.stats.merges, "fast_feeds": on.stats.fast_feeds,
        "conversions": on.stats.conversions, "journal_events": on.journal.len(),
    }
}

fn flash_crowd_calibration(_: &mut Artifacts) -> String {
    let mut runs = Vec::new();
    for spacing_ms in [250u64, 1000, 4000] {
        for cache_blocks in [16usize, 96] {
            for window in [4u64, 16] {
                let run = run_flash_crowd(true, 40, spacing_ms * 1000, cache_blocks, window);
                println!(
                    "  spacing={spacing_ms:<4}ms cache={cache_blocks:<2} window={window:<2} \
                     admitted={:<2} merges={:<2} fast_feeds={:<2}",
                    run.admitted, run.stats.merges, run.stats.fast_feeds
                );
                runs.push((spacing_ms, cache_blocks, window, run));
            }
        }
    }
    for chunk in runs.chunks(2) {
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
    arr(runs.iter().map(|(spacing_ms, cache_blocks, window, run)| {
        obj! {
            "spacing_ms": spacing_ms, "cache_blocks": cache_blocks, "merge_window": window,
            "admitted": run.admitted, "merges": run.stats.merges,
            "fast_feeds": run.stats.fast_feeds,
        }
    }))
}

fn control_fanout(artifacts: &mut Artifacts) -> String {
    let (legacy, _) = run_control_fanout(4, 16, false);
    let (spread, journal) = run_control_fanout(4, 16, true);
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
    journal::verify_events(&journal.events()).expect("fan-out journal chain intact");
    let issued = journal.count(journal::kind::REFERRAL_ISSUED);
    let followed = journal.count(journal::kind::REFERRAL_FOLLOWED);
    let failed = journal.count(journal::kind::REFERRAL_FAILED);
    println!(
        "  journal: referrals issued={issued} followed={followed} failed={failed} \
         ({} events, chain verified)",
        journal.len()
    );
    assert!(followed > 0, "cluster-aware clients must follow referrals");
    artifacts.push(("target/store_throughput_journal.jsonl", journal.to_jsonl()));
    obj! {
        "legacy_per_server": arr(legacy), "referred_per_server": arr(spread),
        "referrals_issued": issued, "referrals_followed": followed, "referrals_failed": failed,
        "journal_events": journal.len(),
    }
}

fn spindle_rebuild(_: &mut Artifacts) -> String {
    let mut rows = Vec::new();
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
        rows.push(obj! {"reserve_pct": reserve_pct, "lost_blocks": lost, "rebuild_ms": ms});
    }
    arr(rows)
}

fn crash_survival(artifacts: &mut Artifacts) -> String {
    let (in_flight, journal) = run_crash_survival(4, 10);
    journal::verify_events(&journal.events()).expect("fault journal chain intact");
    let crashes = journal.count(journal::kind::SERVER_CRASHED);
    // Streams re-established on a survivor via the referral follower.
    let failed_over = journal.count(journal::kind::STREAM_FAILED_OVER) as usize;
    let survival_permille = 1000 * failed_over / in_flight.max(1);
    println!(
        "  in_flight={in_flight} failed_over={failed_over} survival={}.{}%",
        survival_permille / 10,
        survival_permille % 10
    );
    assert!(in_flight >= 10, "every viewer was streaming at the crash");
    assert!(
        10 * failed_over >= 9 * in_flight,
        "at least 90% of in-flight streams must survive the crash \
         (failed_over={failed_over} in_flight={in_flight})"
    );
    println!(
        "  journal: server_crashed={crashes} stream_failed_over={failed_over} \
         ({} events, chain verified)",
        journal.len()
    );
    assert_eq!(crashes, 1, "exactly one machine died");
    artifacts.push(("target/crash_survival_journal.jsonl", journal.to_jsonl()));
    obj! {
        "servers": 4, "k": 2, "in_flight": in_flight, "failed_over": failed_over,
        "survival_permille": survival_permille, "server_crashes": crashes,
        "journal_events": journal.len(),
    }
}

fn vcr_storm(artifacts: &mut Artifacts) -> String {
    let compiled = vcr_storm_spec().compile().expect("vcr-storm spec compiles");
    let (off, off_hit_permille) = run_vcr_storm(&compiled, false);
    let (on, on_hit_permille) = run_vcr_storm(&compiled, true);
    println!(
        "  hints=off admitted={:<2} hit_permille={off_hit_permille}",
        off.admitted
    );
    println!(
        "  hints=on  admitted={:<2} hit_permille={on_hit_permille}",
        on.admitted
    );
    assert_eq!(
        on.agents, off.agents,
        "both runs drive the same compiled schedule"
    );
    assert!(
        on.admitted >= off.admitted,
        "trick-mode hints must never cost admitted streams (on={} off={})",
        on.admitted,
        off.admitted
    );
    assert!(
        on_hit_permille > off_hit_permille,
        "direction/stride prefetch hints must raise the cache-hit permille \
         under a rewind-heavy storm (on={on_hit_permille} off={off_hit_permille})"
    );
    // The exact per-client schedule both runs replayed.
    artifacts.push(("target/vcr_storm_agents.jsonl", compiled.to_jsonl()));
    obj! {
        "viewers": on.agents, "ops": on.ops,
        "hints_off_hit_permille": off_hit_permille, "hints_on_hit_permille": on_hit_permille,
        "hints_off_admitted": off.admitted, "hints_on_admitted": on.admitted,
    }
}

/// The storage evaluation, listed once: the scenario report, the
/// sections of `BENCH_store_throughput.json` and the timing loops are
/// walks of this table, in this order. A row is the scenario function
/// (whose name is its JSON key), its headline and, where it has one,
/// the criterion id and reduced run of its timing loop.
macro_rules! scenarios {
    (@timed) => { None };
    (@timed $id:literal $body:expr) => { Some(($id, || { black_box($body); })) };
    ($($run:ident: $headline:literal $(, $id:literal => $body:expr)?;)+) => {
        const SCENARIOS: &[Scenario] = &[$(Scenario {
            key: stringify!($run),
            headline: $headline,
            run: $run,
            timed: scenarios!(@timed $($id $body)?),
        }),+];
    };
}

scenarios! {
    disk_sweep: "streams sustained vs. disk count and queue discipline",
        "admission_sweep_4_disks" => streams_sustained(4, DiskSched::Scan);
    cluster_sweep: "cluster streams sustained vs. server count (K=2 replicas)",
        "cluster_admission_3_servers" => cluster_streams_sustained(3, 2);
    hot_title_skew: "hot-title skew (80% of demand on one title, 4 servers)",
        "hot_title_rebalanced" => hot_title_streams_sustained(true).0;
    record_playback: "playback streams sustained vs. active recordings",
        "mixed_record_playback" => streams_sustained_while_recording(2);
    interval_cache: "interval-cache hit ratio vs. viewer spacing",
        "two_viewers_interval_cache" => hit_ratio_at_spacing(CachePolicy::Interval, 64, 4);
    flash_crowd: "flash crowd (1000 viewers over 60 s, one title, 2 disks)",
        "flash_crowd_200_viewers" => run_flash_crowd(true, 200, 60_000, 96, 16).admitted;
    flash_crowd_calibration: "flash-crowd calibration (40 viewers, spacing x cache x window)";
    control_fanout: "control-connection fan-out (16 clients all dial server 0 of 4)",
        "control_fanout_8_clients" => run_control_fanout(4, 8, true).0;
    spindle_rebuild: "paced spindle rebuild under 4 foreground viewers",
        "spindle_rebuild_4_viewers" => rebuild_time(4, 50);
    crash_survival: "crash survival (10 streams on one machine of 4, K=2)",
        "crash_survival_10_viewers" => run_crash_survival(4, 10).0;
    vcr_storm: "VCR storm (rewind-heavy trick modes, prefetch hints A/B)";
}

fn bench(c: &mut Criterion) {
    let mut artifacts = Artifacts::new();
    let sections: Vec<String> = SCENARIOS
        .iter()
        .map(|scenario| {
            println!("store_throughput: {}", scenario.headline);
            let section = (scenario.run)(&mut artifacts);
            format!("    \"{}\": {section}", scenario.key)
        })
        .collect();
    if std::env::var_os("STORE_THROUGHPUT_SMOKE").is_some() {
        // Persist the perf trajectory (committed, CI diffs it) and, under
        // `target/`, what CI uploads: the journals of the fan-out and
        // fault runs and the compiled VCR-storm agent scripts.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let write = |file: &str, contents: &str| {
            let path = format!("{root}/{file}");
            std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("store_throughput: wrote {path}");
        };
        let report = format!(
            "{{\n  \"bench\": \"store_throughput\",\n  \"mode\": \"smoke\",\n  \
             \"scenarios\": {{\n{}\n  }}\n}}\n",
            sections.join(",\n")
        );
        write("BENCH_store_throughput.json", &report);
        std::fs::create_dir_all(format!("{root}/target")).expect("create target dir");
        for (file, contents) in &artifacts {
            write(file, contents);
        }
        println!("store_throughput: smoke mode — timing loops skipped");
        return;
    }
    let mut group = c.benchmark_group("store_throughput");
    group.sample_size(10);
    for (id, body) in SCENARIOS.iter().filter_map(|scenario| scenario.timed) {
        group.bench_function(id, |b| b.iter(body));
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
