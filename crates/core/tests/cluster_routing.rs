//! Cluster replication end-to-end: replicated publishing, load-aware
//! `SelectMovie` routing across server machines, mid-burst failover,
//! and re-routing after a release frees bandwidth.

use directory::MovieEntry;
use mcam::{ClusterHandle, ClusterSpec, McamOp, McamPdu, Placement, StackKind, World};
use netsim::{LinkConfig, SimDuration, SimTime};
use store::{CachePolicy, DiskParams, StoreConfig};

/// One slow disk per server; `transfer_bytes_per_sec` calibrates how
/// many ~0.67 Mbit/s movie streams one server's admission controller
/// sustains.
fn store_config(transfer_bytes_per_sec: u64) -> StoreConfig {
    StoreConfig {
        disks: 1,
        block_size: 128 * 1024,
        cache_blocks: 64,
        policy: CachePolicy::Interval,
        disk: DiskParams {
            transfer_bytes_per_sec,
            ..DiskParams::default()
        },
        ..StoreConfig::default()
    }
}

fn cluster_world(
    seed: u64,
    servers: usize,
    clients: usize,
    transfer_bytes_per_sec: u64,
    placement: Placement,
) -> (World, ClusterHandle, Vec<mcam::ClientHandle>) {
    let mut world = World::builder(seed)
        .stream_link(LinkConfig::lossy(
            SimDuration::from_millis(2),
            SimDuration::from_micros(500),
            0.0,
        ))
        .store(store_config(transfer_bytes_per_sec))
        .build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        servers,
        StackKind::EstellePS,
        placement,
    ));
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let server = &cluster.servers[i % servers].clone();
            world.add_client(server, StackKind::EstellePS, vec![])
        })
        .collect();
    world.start();
    for c in &handles {
        let rsp = world.client_op(
            c,
            McamOp::Associate {
                user: format!("viewer-{}", c.conn),
            },
        );
        assert_eq!(rsp, Some(McamPdu::AssociateRsp { accepted: true }));
    }
    (world, cluster, handles)
}

fn publish(world: &World, cluster: &ClusterHandle, title: &str) -> Vec<String> {
    let mut entry = MovieEntry::new(title, "placeholder");
    entry.frame_count = 200;
    world.publish_replicated(cluster, &entry)
}

/// Acceptance scenario: 3 servers × K=2 replicas, demand sized to
/// saturate one server. Selects spread across the replicas and the
/// cluster admits more streams than one server can sustain; the
/// first viewer past cluster capacity gets a clean 503.
#[test]
fn select_spreads_across_replicas_and_scales_past_one_server() {
    // ~1.69 Mbit/s per server: two ~0.67 Mbit/s streams fit, not three.
    let (world, cluster, clients) = cluster_world(101, 3, 5, 250_000, Placement::round_robin(2));
    let replicas = publish(&world, &cluster, "Hit");
    assert_eq!(replicas.len(), 2, "K=2 placement");

    let mut admitted = Vec::new();
    let mut rejected = 0;
    for c in &clients {
        match world.client_op(
            c,
            McamOp::SelectMovie {
                title: "Hit".into(),
            },
        ) {
            Some(McamPdu::SelectMovieRsp { params: Some(p) }) => admitted.push(p),
            Some(McamPdu::ErrorRsp { code, message }) => {
                assert_eq!(code, mcam::server::ERR_ADMISSION);
                assert!(message.contains("replica"), "{message}");
                rejected += 1;
            }
            other => panic!("unexpected select outcome {other:?}"),
        }
    }

    // One server sustains 2 streams; the K=2 cluster admitted 4.
    assert_eq!(admitted.len(), 4, "both replicas filled");
    assert_eq!(rejected, 1, "demand past cluster capacity is refused");
    let single_server_capacity = 2;
    assert!(admitted.len() > single_server_capacity);

    // The streams spread over exactly the two replica servers.
    let providers: std::collections::BTreeSet<u32> =
        admitted.iter().map(|p| p.provider_addr).collect();
    assert_eq!(providers.len(), 2, "both replicas host streams");
    for (location, stats) in cluster.store_stats() {
        let is_replica = replicas.contains(&location);
        assert_eq!(
            stats.open_streams,
            if is_replica { 2 } else { 0 },
            "{location}: open streams"
        );
    }
    assert_eq!(cluster.total_streams(), 4);
}

/// Fires one scheduler transition (or advances the network/clock when
/// none is enabled); returns false when the world is fully quiescent.
/// Single-stepping opens the window between a routing decision and
/// the stream open that the normal run-to-quiescence driver closes.
fn step_once(world: &World) -> bool {
    let opts = estelle::sched::SeqOptions {
        advance_time: false,
        max_firings: Some(1),
        ..Default::default()
    };
    let report = estelle::sched::run_sequential(&world.rt, &opts);
    if report.firings > 0 {
        return true;
    }
    let next_net = world.net.next_event_at();
    let next_delay = world.rt.next_deadline();
    match [next_net, next_delay].into_iter().flatten().min() {
        Some(t) => {
            if next_net.is_some_and(|n| n <= t) {
                world.net.step();
            } else {
                world.rt.advance_clock_to(t);
            }
            true
        }
        None => false,
    }
}

/// Failover: `SelectMovie` routes to the most-available replica, but
/// a competing admission (stream providers are shared services — any
/// entity may commit bandwidth between the routing decision and the
/// open) saturates it first. The open is rejected mid-flight and the
/// router re-admits the stream on the next replica instead of
/// surfacing an error.
#[test]
fn failover_readmits_on_next_replica_when_routed_one_rejects() {
    // ~1.69 Mbit/s per server; the movie demands ~0.67 Mbit/s.
    let (world, cluster, clients) = cluster_world(202, 2, 1, 250_000, Placement::round_robin(2));
    let replicas = publish(&world, &cluster, "Hit");
    let (a, b) = (
        cluster.peers.get(&replicas[0]).unwrap(),
        cluster.peers.get(&replicas[1]).unwrap(),
    );

    // A small background stream makes replica A the *less* available
    // one, so routing must pick B first.
    let mut light = mtp::MovieSource::test_movie(60, 9);
    light.i_size /= 2;
    light.p_size /= 2;
    light.b_size /= 2;
    a.open(light, netsim::NetAddr(9_000), world.net.now())
        .expect("light background stream fits");

    // Drive the select only until the MCA has taken its routing
    // decision (chose B; the open request is queued but unfired).
    world.push_op(
        &clients[0],
        McamOp::SelectMovie {
            title: "Hit".into(),
        },
    );
    let mut guard = 0;
    while cluster.route_decisions() == 0 {
        assert!(step_once(&world), "world stalled before routing");
        guard += 1;
        assert!(guard < 100_000, "select never reached the routing step");
    }

    // Mid-burst: two competing viewers land on B before the routed
    // open fires, leaving less than one stream's bandwidth.
    for seed in [11, 12] {
        b.open(
            mtp::MovieSource::test_movie(60, seed),
            netsim::NetAddr(9_001 + seed as u32),
            world.net.now(),
        )
        .expect("competing streams fit an idle replica");
    }

    world.run_until_quiet(SimTime::MAX);
    let reply = world.replies(&clients[0]).last().cloned();
    match reply {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => {
            assert_eq!(
                format!("node-{}", p.provider_addr),
                replicas[0],
                "re-admitted on replica A after B rejected"
            );
        }
        other => panic!("failover should still admit the viewer: {other:?}"),
    }
    assert_eq!(cluster.failovers(), 1);
    assert_eq!(a.stream_count(), 2, "light stream + failed-over stream");
    assert_eq!(b.stream_count(), 2, "the two competing streams");
}

/// A saturated cluster refuses with one 503 after trying every
/// replica; a release frees bandwidth and the refused viewer is
/// re-routed onto the freed replica.
#[test]
fn saturated_cluster_refuses_then_release_reroutes() {
    // ~0.81 Mbit/s per server: exactly one stream fits.
    let (world, cluster, clients) = cluster_world(404, 2, 3, 120_000, Placement::round_robin(2));
    publish(&world, &cluster, "Hit");

    let p0 = match world.client_op(
        &clients[0],
        McamOp::SelectMovie {
            title: "Hit".into(),
        },
    ) {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
        other => panic!("{other:?}"),
    };
    let p1 = match world.client_op(
        &clients[1],
        McamOp::SelectMovie {
            title: "Hit".into(),
        },
    ) {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
        other => panic!("{other:?}"),
    };
    assert_ne!(
        p0.provider_addr, p1.provider_addr,
        "routing spread the pair"
    );

    // Full: the third viewer is refused — after the router tried both
    // replicas (one failover), not after the first rejection.
    match world.client_op(
        &clients[2],
        McamOp::SelectMovie {
            title: "Hit".into(),
        },
    ) {
        Some(McamPdu::ErrorRsp { code, message }) => {
            assert_eq!(code, mcam::server::ERR_ADMISSION);
            let told = "admission rejected on all 2 replica(s): stream needs ";
            assert!(message.starts_with(told), "{message}");
        }
        other => panic!("saturated cluster must refuse: {other:?}"),
    }
    assert!(cluster.failovers() >= 1);

    // Release-then-re-route: viewer 0 deselects, freeing its replica;
    // the refused viewer is re-admitted there.
    assert_eq!(
        world.client_op(&clients[0], McamOp::Deselect),
        Some(McamPdu::DeselectMovieRsp)
    );
    match world.client_op(
        &clients[2],
        McamOp::SelectMovie {
            title: "Hit".into(),
        },
    ) {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => {
            assert_eq!(
                p.provider_addr, p0.provider_addr,
                "routed to the freed replica"
            );
        }
        other => panic!("retry after release failed: {other:?}"),
    }
    assert_eq!(cluster.total_streams(), 2);
}

/// Least-loaded placement steers new titles away from servers that
/// already carry streams, and replicated playback delivers frames
/// from whichever replica hosts the stream.
#[test]
fn least_loaded_placement_and_replicated_playback() {
    let (world, cluster, clients) = cluster_world(303, 3, 2, 250_000, Placement::least_loaded(2));
    let first = publish(&world, &cluster, "Busy");
    // Load the first replica of "Busy".
    let p0 = match world.client_op(
        &clients[0],
        McamOp::SelectMovie {
            title: "Busy".into(),
        },
    ) {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
        other => panic!("{other:?}"),
    };
    assert_eq!(format!("node-{}", p0.provider_addr), first[0]);

    // A title published now avoids the loaded server.
    let second = publish(&world, &cluster, "Fresh");
    assert!(
        !second.contains(&format!("node-{}", p0.provider_addr)),
        "least-loaded placement skips the busy server: {second:?}"
    );

    // Streams play end-to-end from a routed replica.
    let p1 = match world.client_op(
        &clients[1],
        McamOp::SelectMovie {
            title: "Fresh".into(),
        },
    ) {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
        other => panic!("{other:?}"),
    };
    let mut receiver = world.receiver_for(&clients[1], &p1, SimDuration::from_millis(80));
    assert_eq!(
        world.client_op(&clients[1], McamOp::Play { speed_pct: 100 }),
        Some(McamPdu::PlayRsp { ok: true })
    );
    world.run_for(SimDuration::from_secs(12));
    let frames = receiver.poll(world.net.now());
    assert_eq!(frames.len(), 200, "routed stream delivers the movie");

    // Deselect closes the stream on the remote replica, not locally.
    assert_eq!(
        world.client_op(&clients[1], McamOp::Deselect),
        Some(McamPdu::DeselectMovieRsp)
    );
    assert_eq!(cluster.total_streams(), 1, "only the Busy stream remains");
}
