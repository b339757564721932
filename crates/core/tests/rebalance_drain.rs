//! The cluster control plane end to end: a hot title grows onto an
//! idle server (and `SelectMovie` immediately routes to the new
//! copy), a drained server migrates its sole copies off, keeps its
//! running streams alive, and decommissions only after the last one
//! closes — and the directory stays decodable for replica-unaware
//! readers and tolerant of stale replica lists throughout.

use directory::{attr, MovieEntry};
use mcam::{ClusterSpec, McamOp, McamPdu, Placement, StackKind, World};
use netsim::SimDuration;
use store::{CachePolicy, DiskParams, StoreConfig};

/// One slow disk per server: ~1.69 Mbit/s of admissible bandwidth
/// fits two ~0.69 Mbit/s nominal-rate streams, not three.
fn tight_store() -> StoreConfig {
    StoreConfig {
        disks: 1,
        block_size: 128 * 1024,
        cache_blocks: 64,
        policy: CachePolicy::Interval,
        disk: DiskParams {
            transfer_bytes_per_sec: 250_000,
            ..DiskParams::default()
        },
        ..StoreConfig::default()
    }
}

fn associate(world: &World, client: &mcam::ClientHandle, user: &str) {
    let rsp = world.client_op(client, McamOp::Associate { user: user.into() });
    assert_eq!(rsp, Some(McamPdu::AssociateRsp { accepted: true }));
}

fn select(world: &World, client: &mcam::ClientHandle, title: &str) -> Option<McamPdu> {
    world.client_op(
        client,
        McamOp::SelectMovie {
            title: title.into(),
        },
    )
}

fn query_entry(world: &World, client: &mcam::ClientHandle, title: &str) -> directory::Attrs {
    match world.client_op(
        client,
        McamOp::Query {
            title: title.into(),
            attrs: vec![],
        },
    ) {
        Some(McamPdu::QueryAttrsRsp { attrs: Some(a) }) => a.into_iter().collect(),
        other => panic!("query failed: {other:?}"),
    }
}

/// Acceptance scenario for the grow path: a 3-server K=2 cluster, a
/// title hot enough to saturate both replicas while the third server
/// idles. The control plane copies the title over (a real, paced,
/// admission-charged store workload), rewrites the directory entry,
/// and the refused viewer is admitted on the new replica — and the
/// rewritten entry still decodes for replica-unaware readers.
#[test]
fn hot_title_grows_onto_the_idle_server_and_routing_sees_it() {
    let mut world = World::builder(31).store(tight_store()).build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        3,
        StackKind::EstellePS,
        Placement::round_robin(2),
    ));
    let clients: Vec<_> = (0..5)
        .map(|i| {
            let server = cluster.servers[i % 3].clone();
            world.add_client(&server, StackKind::EstellePS, vec![])
        })
        .collect();
    world.start();
    for (i, c) in clients.iter().enumerate() {
        associate(&world, c, &format!("viewer-{i}"));
    }

    let mut entry = MovieEntry::new("Hit", "pending");
    entry.frame_count = 200;
    let replicas = world.publish_replicated(&cluster, &entry);
    assert_eq!(replicas.len(), 2, "published K=2");

    // Four viewers fill both replicas; the fifth finds the cluster's
    // replica set saturated and is refused.
    for c in &clients[..4] {
        match select(&world, c, "Hit") {
            Some(McamPdu::SelectMovieRsp { params: Some(_) }) => {}
            other => panic!("viewer must be admitted: {other:?}"),
        }
    }
    match select(&world, &clients[4], "Hit") {
        Some(McamPdu::ErrorRsp { code, .. }) => assert_eq!(code, mcam::server::ERR_ADMISSION),
        other => panic!("expected 503 before the rebalance: {other:?}"),
    }

    // Let the control plane sample the saturation and run the copy —
    // a paced workload on the target's disks, not a teleport.
    world.run_for(SimDuration::from_secs(30));
    let stats = cluster.rebalance_stats();
    assert!(stats.grows_started >= 1, "grow scheduled: {stats:?}");
    assert!(stats.copies_completed >= 1, "copy landed: {stats:?}");
    assert!(stats.directory_updates >= 1, "entry rewritten: {stats:?}");

    // The refused viewer retries: the directory lookup now lists the
    // grown replica set and the stream opens on the new copy.
    let third = cluster
        .servers
        .iter()
        .map(|s| s.services.sps.location())
        .find(|l| !replicas.contains(l))
        .expect("one non-holder existed");
    match select(&world, &clients[4], "Hit") {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => {
            assert_eq!(
                format!("node-{}", p.provider_addr),
                third,
                "routed to the newly grown replica"
            );
        }
        other => panic!("viewer admitted after the rebalance: {other:?}"),
    }
    // The new holder carries a real block-mapped copy.
    let grown = cluster
        .servers
        .iter()
        .find(|s| s.services.sps.location() == third)
        .unwrap();
    assert!(grown.services.store.stats().blocks_imported > 0);

    // Directory round-trip: the rewritten entry decodes as-is…
    let attrs = query_entry(&world, &clients[0], "Hit");
    let rewritten = MovieEntry::from_attrs(&attrs).expect("rewritten entry decodes");
    assert_eq!(rewritten.replicas.len(), 3, "three replicas advertised");
    assert_eq!(rewritten.location, rewritten.replicas[0]);
    // …and for an old, replica-unaware reader (no `replicalocations`
    // in its schema) the primary location alone still decodes.
    let mut legacy = attrs.clone();
    legacy.remove(attr::REPLICAS);
    let old_view = MovieEntry::from_attrs(&legacy).expect("legacy reader decodes");
    assert_eq!(old_view.replicas, vec![rewritten.location.clone()]);
}

/// Acceptance scenario for the drain path: a stream keeps playing on
/// the draining server until its natural end, new `SelectMovie`s
/// route elsewhere, the sole-copy title is migrated before
/// decommission, and after completion no title is under-replicated.
#[test]
fn drain_under_load_migrates_sole_copies_and_decommissions_cleanly() {
    let mut world = World::builder(32).store(tight_store()).build();
    // K=1 placements make every title a sole copy — the hard case.
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        3,
        StackKind::EstellePS,
        Placement::round_robin(1),
    ));
    let viewer = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    // The late viewer connects to the third server: the drain's own
    // migration reserves bandwidth on the least-loaded peer (node-2),
    // and the point here is routing, not admission contention.
    let late = world.add_client(&cluster.servers[2], StackKind::EstellePS, vec![]);
    // Control-connected to the draining server itself: even its own
    // clients' new streams must land elsewhere.
    let onholder = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    world.start();
    associate(&world, &viewer, "viewer");
    associate(&world, &late, "late");
    associate(&world, &onholder, "onholder");

    let mut entry = MovieEntry::new("Solo", "pending");
    entry.frame_count = 200; // 8 seconds at 25 fps
    let replicas = world.publish_replicated(&cluster, &entry);
    let holder = replicas[0].clone();

    // A viewer is mid-movie on the holder when the drain begins.
    let params = match select(&world, &viewer, "Solo") {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
        other => panic!("{other:?}"),
    };
    assert_eq!(format!("node-{}", params.provider_addr), holder);
    let mut receiver = world.receiver_for(&viewer, &params, SimDuration::from_millis(80));
    assert_eq!(
        world.client_op(&viewer, McamOp::Play { speed_pct: 100 }),
        Some(McamPdu::PlayRsp { ok: true })
    );

    cluster.drain(&holder).expect("drain accepted");
    assert!(cluster.peers.is_draining(&holder));

    // New selects must not land on the draining server.
    match select(&world, &late, "Solo") {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => {
            assert_ne!(
                format!("node-{}", p.provider_addr),
                holder,
                "new streams route away from the draining server"
            );
        }
        other => panic!("late viewer still served: {other:?}"),
    }
    // The local-service fallback must not defeat the drain either: a
    // client whose control connection terminates *on* the draining
    // server is redirected to a live peer, not admitted locally.
    match select(&world, &onholder, "Solo") {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => {
            assert_ne!(
                format!("node-{}", p.provider_addr),
                holder,
                "the draining server admits no new stream, even from its own clients"
            );
        }
        other => panic!("on-holder viewer still served: {other:?}"),
    }

    // Drive the world: the stream plays out fully *and* the sole copy
    // migrates off through the paced import path.
    world.run_for(SimDuration::from_secs(30));
    assert_eq!(
        receiver.poll(world.net.now()).len(),
        200,
        "the stream on the draining server ran to completion"
    );
    let stats = cluster.rebalance_stats();
    assert!(stats.drain_copies_started >= 1, "{stats:?}");
    assert!(stats.copies_completed >= 1, "{stats:?}");
    assert!(
        !cluster.rebalancer.drain_complete(&holder),
        "decommission waits for the last stream to close"
    );

    // The viewer lets go: the server's last stream closes and the
    // drain completes.
    assert_eq!(
        world.client_op(&viewer, McamOp::Deselect),
        Some(McamPdu::DeselectMovieRsp)
    );
    world.run_for(SimDuration::from_secs(2));
    assert!(cluster.rebalancer.drain_complete(&holder));
    assert!(
        cluster.peers.get(&holder).is_none(),
        "decommissioned server deregistered"
    );
    // Zero under-replicated titles: every tracked title still has at
    // least one live replica, none of them the drained server.
    for (title, replicas) in cluster.rebalancer.titles() {
        assert!(!replicas.is_empty(), "{title} lost all replicas");
        assert!(
            !replicas.contains(&holder),
            "{title} still lists the decommissioned server"
        );
        for replica in &replicas {
            assert!(
                cluster.peers.get(replica).is_some(),
                "{title} names dead replica {replica}"
            );
        }
    }
    // The directory agrees with the control plane.
    let attrs = query_entry(&world, &late, "Solo");
    let entry = MovieEntry::from_attrs(&attrs).unwrap();
    assert!(!entry.replicas.contains(&holder));
    assert_eq!(entry.replicas.len(), 1, "sole copy migrated, not dropped");
    assert_eq!(cluster.rebalance_stats().drains_completed, 1);
}

/// Draining the last holder of a title is refused outright, and a
/// double drain is reported as such.
#[test]
fn drain_refusals() {
    let mut world = World::builder(33).store(tight_store()).build();
    let solo = world.add_cluster(ClusterSpec::new(
        "solo",
        1,
        StackKind::EstellePS,
        Placement::round_robin(1),
    ));
    let pair = world.add_cluster(ClusterSpec::new(
        "pair",
        2,
        StackKind::EstellePS,
        Placement::round_robin(2),
    ));
    world.start();

    let entry = MovieEntry::new("Only", "pending");
    world.publish_replicated(&solo, &entry);
    let only = solo.servers[0].services.sps.location();
    assert_eq!(
        solo.drain(&only),
        Err(mcam::DrainError::LastHolder("Only".into()))
    );
    assert_eq!(
        solo.drain("node-99"),
        Err(mcam::DrainError::UnknownServer("node-99".into()))
    );

    let a = pair.servers[0].services.sps.location();
    pair.drain(&a).expect("a two-server cluster can lose one");
    assert_eq!(pair.drain(&a), Err(mcam::DrainError::AlreadyDraining(a)));
}

/// Routing tolerates stale replica lists: entries naming servers that
/// were decommissioned (or never existed) fail over to the replicas
/// that answer, and an entry whose replicas are all dead falls back
/// to local service — never a panic, never a routing error.
#[test]
fn stale_replica_lists_fail_over_instead_of_panicking() {
    let mut world = World::builder(34).store(tight_store()).build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        2,
        StackKind::EstellePS,
        Placement::round_robin(2),
    ));
    let client = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    world.start();
    associate(&world, &client, "viewer");

    let alive = cluster.servers[1].services.sps.location();
    let local = cluster.servers[0].services.sps.location();

    // A dead replica ahead of a live one: the dead entry is skipped.
    let mut entry = MovieEntry::new("Ghost", "node-99");
    entry.frame_count = 50;
    entry.set_replicas(vec!["node-99".into(), alive.clone()]);
    world.seed_movie(&cluster.servers[0], &entry);
    match select(&world, &client, "Ghost") {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => {
            assert_eq!(format!("node-{}", p.provider_addr), alive);
        }
        other => panic!("stale head replica must fail over: {other:?}"),
    }
    world.client_op(&client, McamOp::Deselect);

    // Every listed replica dead: the serving MCA falls back to its
    // local provider rather than erroring the viewer out.
    let mut entry = MovieEntry::new("Orphan", "node-98");
    entry.frame_count = 50;
    entry.set_replicas(vec!["node-98".into(), "node-99".into()]);
    world.seed_movie(&cluster.servers[0], &entry);
    match select(&world, &client, "Orphan") {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => {
            assert_eq!(
                format!("node-{}", p.provider_addr),
                local,
                "all-dead replica list degrades to local service"
            );
        }
        other => panic!("all-dead replica list must still serve: {other:?}"),
    }
}
