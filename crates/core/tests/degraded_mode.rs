//! Degraded-mode operation, end to end: a spindle dies under a
//! running stream and a paced, admission-charged rebuild streams the
//! lost blocks back; a whole server crashes mid-stream and capable
//! clients fail over to a live replica, resuming near the last played
//! frame; the crash of a sole holder with saturated survivors yields
//! a clean `ErrorRsp 503`; and the event journal's hash chain stays
//! verifiable across every fault lifecycle.

use directory::MovieEntry;
use mcam::agents::source_for_entry;
use mcam::{ClusterSpec, McamOp, McamPdu, Placement, StackKind, World};
use netsim::{NetAddr, SimDuration};
use store::{CachePolicy, DiskParams, StoreConfig};

fn associate(world: &World, client: &mcam::ClientHandle, user: &str) {
    let rsp = world.client_op(client, McamOp::Associate { user: user.into() });
    assert_eq!(
        rsp,
        Some(McamPdu::AssociateRsp { accepted: true }),
        "{user}"
    );
}

fn select_params(world: &World, client: &mcam::ClientHandle, title: &str) -> mcam::StreamParams {
    match world.client_op(
        client,
        McamOp::SelectMovie {
            title: title.into(),
        },
    ) {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
        other => panic!("select {title} failed: {other:?}"),
    }
}

/// Drives the world in one-second slices until the server's rebuild
/// completes, asserting after every slice that the admission
/// controller was never over-committed (the rebuild's reservation is
/// charged against the same capacity playback draws on).
fn run_rebuild_to_completion(world: &World, server: &mcam::ServerHandle, max_secs: u32) {
    for _ in 0..max_secs {
        world.run_for(SimDuration::from_secs(1));
        let stats = server.services.store.stats();
        assert!(
            stats.committed_bps <= stats.capacity_bps,
            "admission over-commit during rebuild: {} of {} bps",
            stats.committed_bps,
            stats.capacity_bps,
        );
        if !server.services.store.rebuild_active() {
            return;
        }
    }
    panic!("rebuild still active after {max_secs}s");
}

/// A spindle dies under a running stream: the viewer stalls at the
/// lost blocks, the paced rebuild reconstructs them onto the
/// survivors, the viewer plays to completion, and the rebuild's
/// admission reservation is released — with the whole lifecycle
/// journaled under an intact hash chain.
#[test]
fn spindle_death_rebuilds_under_foreground_load() {
    let mut world = World::builder(101).build();
    let server = world.add_server("ksr1", StackKind::EstellePS);
    let client = world.add_client(&server, StackKind::EstellePS, vec![]);
    world.start();
    associate(&world, &client, "viewer");
    world.client_op(
        &client,
        McamOp::CreateMovie {
            title: "Fragile".into(),
            format: "XMovie-24".into(),
            frame_rate: 25,
            frame_count: 400,
        },
    );
    let params = select_params(&world, &client, "Fragile");
    let mut receiver = world.receiver_for(&client, &params, SimDuration::from_millis(50));
    assert_eq!(
        world.client_op(&client, McamOp::Play { speed_pct: 100 }),
        Some(McamPdu::PlayRsp { ok: true })
    );
    world.run_for(SimDuration::from_secs(1));

    // The spindle dies mid-flight; reconstruction is admitted at half
    // the surviving uncommitted bandwidth.
    let capacity_before = server.services.store.stats().capacity_bps;
    let (lost, reserve_bps) = world.fail_disk(&server, 0);
    assert!(lost > 0, "the dead arm held blocks of the stream");
    assert!(reserve_bps > 0, "the rebuild reservation was admitted");
    assert!(server.services.store.rebuild_active());
    assert!(
        server.services.store.stats().capacity_bps < capacity_before,
        "capacity shrank to the survivors' share"
    );
    assert_eq!(server.services.store.failed_disks(), vec![0]);

    run_rebuild_to_completion(&world, &server, 30);
    assert_eq!(
        server.services.store.lost_blocks_pending(),
        0,
        "every lost block reconstructed"
    );

    // The viewer survived the spindle: the full movie arrives.
    world.run_for(SimDuration::from_secs(20));
    assert_eq!(
        receiver.poll(world.net.now()).len(),
        400,
        "playback completed across the disk death"
    );

    // Closing the stream releases all admission: nothing leaks from
    // the fault path.
    world.client_op(&client, McamOp::Deselect);
    assert_eq!(
        server.services.store.stats().committed_bps,
        0,
        "stream and rebuild reservations both released"
    );

    let journal = world.journal();
    journal
        .verify()
        .expect("hash chain intact across the fault");
    assert_eq!(journal.count(journal::kind::DISK_FAILED), 1);
    assert_eq!(journal.count(journal::kind::REBUILD_STARTED), 1);
    assert_eq!(journal.count(journal::kind::REBUILD_COMPLETED), 1);
}

/// A server crash mid-stream: the client's control association and
/// its stream both die with the machine; the referral-capable client
/// fails over to a cached candidate, replays its session (select,
/// seek, play), and resumes within a bounded distance of the last
/// played frame — journaled as `StreamFailedOver`.
#[test]
fn server_crash_fails_the_stream_over_to_a_replica() {
    let mut world = World::builder(103).build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        2,
        StackKind::EstellePS,
        Placement::round_robin(2),
    ));
    let a = cluster.servers[0].services.sps.location();
    let b = cluster.servers[1].services.sps.location();
    let client = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    world.start();

    // Steer the client onto server B so it holds a cached candidate
    // list (the failover's fallback) naming A.
    cluster.control.pin(&a, &b);
    associate(&world, &client, "viewer");
    cluster.control.unpin(&a);
    assert_eq!(world.client_control_location(&client), b);

    let mut entry = MovieEntry::new("Feature", "pending");
    entry.frame_count = 1_000;
    let replicas = world.publish_replicated(&cluster, &entry);
    assert_eq!(replicas.len(), 2, "K=2 of 2: both servers hold it");

    // A filler viewer makes A the busier replica, so the client's
    // stream lands on B — the same machine that will crash.
    let provider_a = cluster.peers.get(&a).expect("A registered");
    provider_a
        .open(source_for_entry(&entry), NetAddr(900), world.net.now())
        .expect("filler admitted");
    let params = select_params(&world, &client, "Feature");
    assert_eq!(format!("node-{}", params.provider_addr), b);
    let mut receiver = world.receiver_for(&client, &params, SimDuration::from_millis(50));
    assert_eq!(
        world.client_op(&client, McamOp::Play { speed_pct: 100 }),
        Some(McamPdu::PlayRsp { ok: true })
    );
    world.run_for(SimDuration::from_secs(2));
    let played_before_crash = receiver.poll(world.net.now()).len() as u64;
    assert!(played_before_crash > 0, "the stream was mid-flight");

    // The machine dies. The client sees a provider abort, re-dials a
    // cached candidate, and replays select + seek + play there.
    let replies_before = world.replies(&client).len();
    let killed = world.crash_server(&cluster.servers[1]);
    assert!(killed >= 1, "the crash took the client's stream with it");
    world.run_for(SimDuration::from_secs(2));

    assert_eq!(
        world.client_control_location(&client),
        a,
        "the control association failed over to the survivor"
    );
    let replies = world.replies(&client);
    assert_eq!(
        replies.len(),
        replies_before + 1,
        "the replay surfaced exactly one confirmation"
    );
    assert_eq!(
        replies.last(),
        Some(&McamPdu::PlayRsp { ok: true }),
        "the session is playing again"
    );
    assert_eq!(
        cluster.servers[0].services.sps.stream_count(),
        2,
        "filler plus the failed-over stream run on the survivor"
    );

    // The resume point is within a playout-delay's worth of frames of
    // what the client had actually seen.
    let journal = world.journal();
    assert_eq!(journal.count(journal::kind::SERVER_CRASHED), 1);
    assert_eq!(journal.count(journal::kind::STREAM_FAILED_OVER), 1);
    let (from, to, resume_frame) = journal
        .events()
        .into_iter()
        .find_map(|e| match e.kind {
            journal::EventKind::StreamFailedOver {
                from,
                to,
                resume_frame,
                ..
            } => Some((from, to, resume_frame)),
            _ => None,
        })
        .expect("failover journaled");
    assert_eq!(from, b);
    assert_eq!(to, a);
    let distance = resume_frame.abs_diff(played_before_crash);
    assert!(
        distance <= 30,
        "resume frame {resume_frame} is {distance} frames from the \
         {played_before_crash} the viewer had played"
    );
    journal
        .verify()
        .expect("hash chain intact across the crash");
}

/// Crashing the sole holder of a title while every survivor is
/// saturated is answered with a clean `ErrorRsp 503` — degraded, not
/// broken.
#[test]
fn sole_holder_crash_yields_503_not_a_panic() {
    let store = StoreConfig {
        disks: 1,
        block_size: 128 * 1024,
        cache_blocks: 64,
        policy: CachePolicy::Interval,
        disk: DiskParams {
            transfer_bytes_per_sec: 250_000,
            ..DiskParams::default()
        },
        ..StoreConfig::default()
    };
    let mut world = World::builder(107).store(store).build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        2,
        StackKind::EstellePS,
        Placement::round_robin(1),
    ));
    let clients: Vec<_> = (0..2)
        .map(|i| world.add_client(&cluster.servers[i], StackKind::EstellePS, vec![]))
        .collect();
    world.start();

    let mut entry = MovieEntry::new("Single", "pending");
    entry.frame_count = 5_000;
    let replicas = world.publish_replicated(&cluster, &entry);
    assert_eq!(replicas.len(), 1, "K=1: a sole holder");
    let holder = cluster
        .servers
        .iter()
        .position(|s| s.services.sps.location() == replicas[0])
        .expect("holder is a member");
    let survivor = 1 - holder;
    let viewer = &clients[survivor];
    associate(&world, viewer, "viewer");

    // Saturate the survivor's store with two full-rate streams.
    let survivor_sps = &cluster.servers[survivor].services.sps;
    for i in 0..2u32 {
        let mut filler = MovieEntry::new(format!("Filler-{i}"), "pending");
        filler.frame_count = 5_000;
        survivor_sps
            .open(source_for_entry(&filler), NetAddr(910 + i), world.net.now())
            .expect("filler admitted");
    }

    world.crash_server(&cluster.servers[holder]);

    // The survivor routes around the dead holder but has no bandwidth
    // left: a clean admission error, not a panic or a hang.
    let rsp = world.client_op(
        viewer,
        McamOp::SelectMovie {
            title: "Single".into(),
        },
    );
    match rsp {
        Some(McamPdu::ErrorRsp { code, message }) => {
            assert_eq!(code, 503, "{message}");
        }
        other => panic!("expected a clean 503: {other:?}"),
    }
    assert_eq!(world.journal().count(journal::kind::SERVER_CRASHED), 1);
    world.journal().verify().expect("chain intact");
}

/// The full gauntlet in one world: a disk death plus rebuild on the
/// streaming server, then a crash of that same machine with a
/// failover to the surviving replica — and the journal's per-actor
/// hash chains verify across all of it, in memory and through a JSONL
/// round trip. The rebalance controller re-replicates the title the
/// crash left under-replicated.
#[test]
fn journal_chain_verifies_across_every_fault_lifecycle() {
    let mut world = World::builder(109).build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        3,
        StackKind::EstellePS,
        Placement::round_robin(2),
    ));
    let a = cluster.servers[0].services.sps.location();
    let b = cluster.servers[1].services.sps.location();
    let client = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    world.start();

    cluster.control.pin(&a, &b);
    associate(&world, &client, "viewer");
    cluster.control.unpin(&a);
    assert_eq!(world.client_control_location(&client), b);

    // Make every other member busier than B so both the placement and
    // the routing prefer B: the stream lands on the machine that will
    // lose a disk and then crash.
    for (i, server) in cluster.servers.iter().enumerate() {
        if server.services.sps.location() != b {
            let mut filler = MovieEntry::new(format!("Busy-{i}"), "pending");
            filler.frame_count = 2_000;
            server
                .services
                .sps
                .open(
                    source_for_entry(&filler),
                    NetAddr(920 + i as u32),
                    world.net.now(),
                )
                .expect("filler admitted");
        }
    }
    let mut entry = MovieEntry::new("Epic", "pending");
    entry.frame_count = 1_000;
    let replicas = world.publish_replicated(&cluster, &entry);
    assert!(replicas.contains(&b), "placement chose the idle B");

    let params = select_params(&world, &client, "Epic");
    assert_eq!(format!("node-{}", params.provider_addr), b);
    assert_eq!(
        world.client_op(&client, McamOp::Play { speed_pct: 100 }),
        Some(McamPdu::PlayRsp { ok: true })
    );
    world.run_for(SimDuration::from_secs(1));

    // Fault 1: a spindle dies on the streaming server; the rebuild
    // runs to completion under the live stream.
    let server_b = cluster
        .servers
        .iter()
        .find(|s| s.services.sps.location() == b)
        .expect("B is a member");
    let (lost, reserve_bps) = world.fail_disk(server_b, 0);
    assert!(lost > 0 && reserve_bps > 0);
    run_rebuild_to_completion(&world, server_b, 30);

    // Fault 2: the same machine crashes outright; the client fails
    // over and the title is re-replicated onto a survivor.
    world.crash_server(server_b);
    world.run_for(SimDuration::from_secs(30));
    assert_ne!(world.client_control_location(&client), b);
    let journal = world.journal();
    assert_eq!(journal.count(journal::kind::STREAM_FAILED_OVER), 1);
    let alive_holders = cluster
        .rebalancer
        .replicas_of("Epic")
        .expect("Epic is tracked");
    assert!(
        alive_holders.iter().filter(|l| **l != b).count() >= 2,
        "repair restored K=2 live copies: {alive_holders:?}"
    );

    // Every fault kind appears once, and the chains verify — live and
    // through the serialized round trip.
    assert_eq!(journal.count(journal::kind::DISK_FAILED), 1);
    assert_eq!(journal.count(journal::kind::REBUILD_STARTED), 1);
    assert_eq!(journal.count(journal::kind::REBUILD_COMPLETED), 1);
    assert_eq!(journal.count(journal::kind::SERVER_CRASHED), 1);
    journal.verify().expect("live chain verifies");
    let events = journal::events_from_jsonl(&journal.to_jsonl()).expect("round trip parses");
    journal::verify_events(&events).expect("serialized chain verifies");
}
