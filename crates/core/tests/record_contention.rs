//! Recording is a real workload: it reserves write bandwidth on the
//! same disks playback reads from, so a record in progress steals
//! admission capacity from `SelectMovie` (503 when every replica is
//! saturated), releases it on completion, and leaves behind a movie
//! that is replicated and playable from every replica.

use directory::MovieEntry;
use mcam::agents::source_for_entry;
use mcam::{ClusterSpec, McamOp, McamPdu, Placement, StackKind, World};
use netsim::SimDuration;
use store::{CachePolicy, DiskParams, StoreConfig};

/// One slow disk per server: ~1.0 Mbit/s of admissible bandwidth
/// fits a single ~0.69 Mbit/s nominal-rate stream, not two.
fn tight_store() -> StoreConfig {
    StoreConfig {
        disks: 1,
        block_size: 128 * 1024,
        cache_blocks: 64,
        policy: CachePolicy::Interval,
        disk: DiskParams {
            transfer_bytes_per_sec: 150_000,
            ..DiskParams::default()
        },
        ..StoreConfig::default()
    }
}

fn associate(world: &World, client: &mcam::ClientHandle, user: &str) {
    let rsp = world.client_op(client, McamOp::Associate { user: user.into() });
    assert_eq!(rsp, Some(McamPdu::AssociateRsp { accepted: true }));
}

/// Waits until the client's reply log contains a RecordRsp/ErrorRsp
/// for an earlier pushed Record op, returning it.
fn await_record_reply(world: &World, client: &mcam::ClientHandle, limit_secs: u64) -> McamPdu {
    for _ in 0..limit_secs {
        world.run_for(SimDuration::from_secs(1));
        if let Some(pdu) = world.replies(client).iter().rev().find(|p| {
            matches!(p, McamPdu::RecordRsp { .. }) || matches!(p, McamPdu::ErrorRsp { .. })
        }) {
            return pdu.clone();
        }
    }
    panic!(
        "no record reply within {limit_secs}s: {:?}",
        world.replies(client)
    );
}

#[test]
fn record_steals_bandwidth_and_releases_it() {
    let mut world = World::builder(11).store(tight_store()).build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        2,
        StackKind::EstellePS,
        Placement::round_robin(2),
    ));
    let recorder = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    let viewer1 = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    let viewer2 = world.add_client(&cluster.servers[1], StackKind::EstellePS, vec![]);
    world.start();

    let mut entry = MovieEntry::new("Hit", "pending");
    entry.frame_count = 60 * 25;
    let replicas = world.publish_replicated(&cluster, &entry);
    assert_eq!(replicas.len(), 2, "K=2 over a 2-server cluster");

    associate(&world, &recorder, "rec");
    associate(&world, &viewer1, "v1");
    associate(&world, &viewer2, "v2");

    // Kick off a 20-second recording on server 0 and let it get
    // admitted (the capture itself runs for 20 simulated seconds).
    world.push_op(
        &recorder,
        McamOp::Record {
            title: "Fresh".into(),
            frames: 20 * 25,
        },
    );
    world.run_for(SimDuration::from_secs(1));
    assert_eq!(cluster.recordings(), 1, "recording session admitted");
    let committed_during: u64 = cluster.bandwidth().0;
    assert!(committed_during > 0, "recording commits write bandwidth");

    // The first viewer still fits: routing steers the stream to the
    // server the recording is not loading.
    let rsp = world.client_op(
        &viewer1,
        McamOp::SelectMovie {
            title: "Hit".into(),
        },
    );
    let params = match rsp {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
        other => panic!("first viewer must be admitted: {other:?}"),
    };
    assert_ne!(
        params.provider_addr,
        cluster.servers[0].services.sps.addr().0,
        "the viewer is routed away from the recording server"
    );

    // The second viewer finds every replica saturated: the recorder
    // holds server 0, the first viewer holds server 1.
    match world.client_op(
        &viewer2,
        McamOp::SelectMovie {
            title: "Hit".into(),
        },
    ) {
        Some(McamPdu::ErrorRsp { code, message }) => {
            assert_eq!(code, 503);
            let told = "admission rejected on all 2 replica(s): stream needs ";
            assert!(message.starts_with(told), "{message}");
        }
        other => panic!("expected 503 while the record is active: {other:?}"),
    }

    // Once the recording completes, its bandwidth is released and the
    // refused viewer is re-admitted.
    let reply = await_record_reply(&world, &recorder, 40);
    assert_eq!(reply, McamPdu::RecordRsp { ok: true });
    assert_eq!(cluster.recordings(), 0);
    match world.client_op(
        &viewer2,
        McamOp::SelectMovie {
            title: "Hit".into(),
        },
    ) {
        Some(McamPdu::SelectMovieRsp { params: Some(_) }) => {}
        other => panic!("viewer re-admitted after the record: {other:?}"),
    }

    let (frames_recorded, blocks_recorded) = cluster.recorded_totals();
    assert_eq!(frames_recorded, 20 * 25, "every captured frame was stored");
    assert!(blocks_recorded > 0, "frames were packed into blocks");
}

#[test]
fn recording_is_refused_on_a_saturated_server() {
    // Standalone server, capacity for one stream only.
    let mut world = World::builder(12).store(tight_store()).build();
    let server = world.add_server("solo", StackKind::EstellePS);
    let viewer = world.add_client(&server, StackKind::EstellePS, vec![]);
    let recorder = world.add_client(&server, StackKind::EstellePS, vec![]);
    world.start();

    let mut entry = MovieEntry::new("Busy", "node-1");
    entry.frame_count = 60 * 25;
    world.seed_movie(&server, &entry);

    associate(&world, &viewer, "v");
    associate(&world, &recorder, "r");

    // The viewer takes the only admission slot…
    match world.client_op(
        &viewer,
        McamOp::SelectMovie {
            title: "Busy".into(),
        },
    ) {
        Some(McamPdu::SelectMovieRsp { params: Some(_) }) => {}
        other => panic!("viewer admitted: {other:?}"),
    }
    // …so the recorder is refused with the admission error, and the
    // camera it had acquired is released again.
    match world.client_op(
        &recorder,
        McamOp::Record {
            title: "Overload".into(),
            frames: 250,
        },
    ) {
        Some(McamPdu::ErrorRsp { code, message }) => {
            assert_eq!(code, 503);
            let told = "admission rejected: recording needs ";
            assert!(message.starts_with(told), "{message}");
            let available = " bps of disk bandwidth available";
            assert!(message.ends_with(available), "{message}");
        }
        other => panic!("expected 503 for the recorder: {other:?}"),
    }
    assert_eq!(server.services.sps.recording_count(), 0);
    let cam = equipment::EquipmentClass::Camera;
    let free = server.services.eca.list(Some(cam));
    assert!(!free.is_empty(), "camera released after the rejection");

    // Releasing the viewer clears the path for the recorder.
    world.client_op(&viewer, McamOp::Deselect);
    match world.client_op(
        &recorder,
        McamOp::Record {
            title: "Retry".into(),
            frames: 50,
        },
    ) {
        Some(McamPdu::RecordRsp { ok: true }) => {}
        other => panic!("record fits after the release: {other:?}"),
    }
}

#[test]
fn recorded_movie_is_replicated_and_playable_from_every_replica() {
    // Generous storage: contention is not the point here.
    let mut world = World::builder(13).store(StoreConfig::default()).build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        3,
        StackKind::EstellePS,
        Placement::least_loaded(2),
    ));
    let recorder = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    world.start();
    associate(&world, &recorder, "rec");

    match world.client_op(
        &recorder,
        McamOp::Record {
            title: "Homemade".into(),
            frames: 100,
        },
    ) {
        Some(McamPdu::RecordRsp { ok: true }) => {}
        other => panic!("record failed: {other:?}"),
    }

    // The finalized directory entry carries the measured facts and
    // the replica set.
    let attrs = match world.client_op(
        &recorder,
        McamOp::Query {
            title: "Homemade".into(),
            attrs: vec![],
        },
    ) {
        Some(McamPdu::QueryAttrsRsp { attrs: Some(a) }) => a.into_iter().collect(),
        other => panic!("query failed: {other:?}"),
    };
    let entry = MovieEntry::from_attrs(&attrs).expect("finalized entry decodes");
    assert_eq!(entry.frame_count, 100);
    assert!(entry.bitrate_bps > 0, "bitrate measured at record time");
    assert_eq!(entry.replicas.len(), 2, "recorder + one placed peer");
    assert_eq!(
        entry.replicas[0],
        cluster.servers[0].services.sps.location(),
        "the recorder holds the original"
    );

    // Every replica holds a block-mapped copy and can stream it.
    let source = source_for_entry(&entry);
    for location in &entry.replicas {
        let server = cluster
            .servers
            .iter()
            .find(|s| s.services.sps.location() == *location)
            .expect("replica location names a cluster member");
        let movie = server.services.store.register_movie(&source);
        assert!(
            server.services.store.allocation_of(movie).is_some(),
            "{location} holds allocated recorded blocks"
        );
        let stream = server
            .services
            .sps
            .open(source.clone(), netsim::NetAddr(900), world.net.now())
            .expect("replica admits the playback");
        server
            .services
            .sps
            .play(stream, 100, world.net.now())
            .unwrap();
        world.run_for(SimDuration::from_secs(6));
        assert_eq!(
            server.services.sps.position(stream),
            Some(100),
            "{location} streamed the recorded movie to the end"
        );
        server.services.sps.close(stream).unwrap();
    }
    // Non-replica members hold nothing.
    let copies = cluster
        .servers
        .iter()
        .filter(|s| {
            let movie = s.services.store.register_movie(&source);
            s.services.store.allocation_of(movie).is_some()
        })
        .count();
    assert_eq!(copies, 2, "exactly K copies exist in the cluster");
}
