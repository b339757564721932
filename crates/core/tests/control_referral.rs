//! The cluster-aware control plane for clients, end to end: servers
//! refer capable clients' control associations to less-loaded (or
//! non-draining) members through the `ReferralRsp` PDU, clients
//! follow referrals with a bounded hop count, loop detection and
//! candidate fallback, legacy clients keep being served locally, and
//! a drain empties a server of control associations before it
//! decommissions.

use directory::MovieEntry;
use mcam::{ClusterSpec, McamOp, McamPdu, Placement, StackKind, World, ERR_REFERRAL};
use netsim::SimDuration;
use store::{CachePolicy, DiskParams, StoreConfig};

fn associate(world: &World, client: &mcam::ClientHandle, user: &str) {
    let rsp = world.client_op(client, McamOp::Associate { user: user.into() });
    assert_eq!(
        rsp,
        Some(McamPdu::AssociateRsp { accepted: true }),
        "{user}"
    );
}

fn select(world: &World, client: &mcam::ClientHandle, title: &str) -> Option<McamPdu> {
    world.client_op(
        client,
        McamOp::SelectMovie {
            title: title.into(),
        },
    )
}

/// The acceptance scenario: every client dials the same server of a
/// 4-server cluster, yet the control associations spread — no member
/// ends up holding more than twice its fair share — and a referred
/// client's requests (select, play) work exactly as before.
#[test]
fn control_connections_spread_across_the_cluster() {
    let mut world = World::builder(7).build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        4,
        StackKind::EstellePS,
        Placement::round_robin(2),
    ));
    let clients: Vec<_> = (0..12)
        .map(|_| world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]))
        .collect();
    world.start();
    for (i, client) in clients.iter().enumerate() {
        associate(&world, client, &format!("viewer-{i}"));
    }

    let counts = cluster.control_connections();
    let total: usize = counts.iter().map(|(_, n)| n).sum();
    assert_eq!(total, 12, "every association accounted: {counts:?}");
    let fair = total / cluster.servers.len();
    for (location, n) in &counts {
        assert!(
            *n <= 2 * fair,
            "{location} holds {n} of {total} control connections \
             (fair share {fair}): {counts:?}"
        );
        assert!(*n >= 1, "{location} was left idle: {counts:?}");
    }
    // Twelve sequential arrivals at one member of four settle 3/3/3/3:
    // the first of each round of four stays, the other three are
    // referred, and each referral is one journal event.
    assert_eq!(
        cluster.journal.count(journal::kind::REFERRAL_ISSUED),
        9,
        "spreading 12 same-server clients takes nine referrals: {counts:?}"
    );

    // The abandoned server-side entities (one per connect-time
    // referral) are reaped after the grace period instead of
    // accumulating as zombie stacks.
    world.run_for(SimDuration::from_millis(100));
    let reaped: u64 = cluster
        .servers
        .iter()
        .map(|s| {
            world
                .rt
                .with_machine::<mcam::ServerRoot, _>(s.root, |r| r.reaped)
                .expect("server root exists")
        })
        .sum();
    assert_eq!(
        reaped,
        cluster.referrals_issued(),
        "every issued referral leaves exactly one reaped entity"
    );

    // A referred client is a fully functional client: publish a
    // movie and run a select+play through whichever member now
    // carries the association.
    let moved = clients
        .iter()
        .find(|c| world.client_control_location(c) != cluster.servers[0].services.sps.location())
        .expect("at least one client was re-homed");
    let mut entry = MovieEntry::new("Spread", "pending");
    entry.frame_count = 50;
    world.publish_replicated(&cluster, &entry);
    let params = match select(&world, moved, "Spread") {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
        other => panic!("referred client cannot select: {other:?}"),
    };
    let mut receiver = world.receiver_for(moved, &params, SimDuration::from_millis(50));
    assert_eq!(
        world.client_op(moved, McamOp::Play { speed_pct: 100 }),
        Some(McamPdu::PlayRsp { ok: true })
    );
    world.run_for(SimDuration::from_secs(3));
    assert_eq!(receiver.poll(world.net.now()).len(), 50);
}

/// Back-compatibility: a client that does not advertise referral
/// support is always served by the server it dialed — even when that
/// server is so control-loaded it would refer anyone else — and its
/// AssociateReq rides in the original two-field encoding.
#[test]
fn legacy_client_is_served_locally() {
    let mut world = World::builder(11).build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        3,
        StackKind::EstellePS,
        Placement::round_robin(2),
    ));
    let home = cluster.servers[0].services.sps.location();
    let legacy = world.add_legacy_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    world.start();

    // Make the home server look grossly over-connected.
    for _ in 0..5 {
        cluster.control.connected(&home);
    }
    let issued_before = cluster.referrals_issued();
    associate(&world, &legacy, "legacy");
    assert_eq!(
        world.client_control_location(&legacy),
        home,
        "a legacy client stays where it dialed"
    );
    assert_eq!(
        cluster.referrals_issued(),
        issued_before,
        "no referral is ever issued to a legacy client"
    );
    assert_eq!(world.client_referrals(&legacy), (0, 0));

    // And it keeps full service there.
    let mut entry = MovieEntry::new("Classic", "pending");
    entry.frame_count = 25;
    world.publish_replicated(&cluster, &entry);
    assert!(matches!(
        select(&world, &legacy, "Classic"),
        Some(McamPdu::SelectMovieRsp { params: Some(_) })
    ));
}

/// A referral naming a dead (decommissioned) or draining target is
/// not fatal: the client falls back across the carried candidate
/// list and settles on a live member.
#[test]
fn referral_to_dead_or_draining_target_falls_back() {
    let mut world = World::builder(13).build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        3,
        StackKind::EstellePS,
        Placement::round_robin(2),
    ));
    let home = cluster.servers[0].services.sps.location();
    let second = cluster.servers[1].services.sps.location();
    let third = cluster.servers[2].services.sps.location();
    let dead_target = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    let draining_target = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    world.start();

    // The operator pins the home server to a target that does not
    // exist (a just-decommissioned location, as far as clients can
    // tell): the client must land on a live candidate instead.
    cluster.control.pin(&home, "node-99");
    associate(&world, &dead_target, "fallback-1");
    let landed = world.client_control_location(&dead_target);
    assert_ne!(landed, home, "the pin moved the client off its home");
    assert_ne!(landed, "node-99", "the dead target was skipped");
    assert!(landed == second || landed == third, "{landed}");

    // Same, but the pinned target is draining: equally un-dialable.
    cluster.control.pin(&home, &second);
    cluster.peers.set_draining(&second, true);
    associate(&world, &draining_target, "fallback-2");
    assert_eq!(
        world.client_control_location(&draining_target),
        third,
        "the draining target was skipped for the live candidate"
    );
    cluster.peers.set_draining(&second, false);
    cluster.control.unpin(&home);
}

/// Referral loops terminate: two servers pinned at each other bounce
/// a client until loop detection (the visited set) gives up and the
/// application receives a clean `ERR_REFERRAL` — it is never hung
/// and never spins.
#[test]
fn referral_loops_are_detected() {
    let mut world = World::builder(17).build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        2,
        StackKind::EstellePS,
        Placement::round_robin(1),
    ));
    let a = cluster.servers[0].services.sps.location();
    let b = cluster.servers[1].services.sps.location();
    let client = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    world.start();

    cluster.control.pin(&a, &b);
    cluster.control.pin(&b, &a);
    let rsp = world.client_op(
        &client,
        McamOp::Associate {
            user: "looped".into(),
        },
    );
    match rsp {
        Some(McamPdu::ErrorRsp { code, message }) => {
            assert_eq!(code, ERR_REFERRAL);
            assert!(message.contains("referral"), "{message}");
        }
        other => panic!("a looped referral must fail cleanly: {other:?}"),
    }
    let (followed, failed) = world.client_referrals(&client);
    assert_eq!(failed, 1, "exactly one chain failure");
    assert!(
        followed <= 2,
        "loop detection stops the chain after visiting each end once"
    );

    // Unpin and the same client associates normally on a later try.
    cluster.control.unpin(&a);
    cluster.control.unpin(&b);
    associate(&world, &client, "recovered");
}

/// The bounded hop count cuts referral chains that keep naming fresh
/// servers: with a budget of 1, the second hop of a pinned
/// A → B → C chain is refused.
#[test]
fn referral_hop_limit_terminates_chains() {
    let mut world = World::builder(19).build();
    world.referral_max_hops = 1;
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        3,
        StackKind::EstellePS,
        Placement::round_robin(1),
    ));
    let a = cluster.servers[0].services.sps.location();
    let b = cluster.servers[1].services.sps.location();
    let c = cluster.servers[2].services.sps.location();
    let client = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    world.start();

    cluster.control.pin(&a, &b);
    cluster.control.pin(&b, &c);
    let rsp = world.client_op(
        &client,
        McamOp::Associate {
            user: "chained".into(),
        },
    );
    match rsp {
        Some(McamPdu::ErrorRsp { code, message }) => {
            assert_eq!(code, ERR_REFERRAL);
            assert!(message.contains("hop limit"), "{message}");
        }
        other => panic!("an over-long chain must fail cleanly: {other:?}"),
    }
    assert_eq!(
        world.client_control_location(&client),
        b,
        "the one allowed hop was taken before the budget ran out"
    );
    let _ = c;
}

/// Drain-away: a draining server refers its capable clients' next
/// `SelectMovie` to a live member — the interrupted select is
/// replayed there transparently (one request, one confirmation) —
/// and its control-association count reaches zero before
/// decommission.
#[test]
fn drain_refers_control_connections_away() {
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
    let mut world = World::builder(23).store(store).build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        3,
        StackKind::EstellePS,
        Placement::round_robin(2),
    ));
    let home = cluster.servers[0].services.sps.location();
    let client = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    world.start();
    associate(&world, &client, "viewer");
    assert_eq!(world.client_control_location(&client), home);

    let mut entry = MovieEntry::new("Feature", "pending");
    entry.frame_count = 100;
    let replicas = world.publish_replicated(&cluster, &entry);
    assert!(replicas.contains(&home), "K=2 of 3 places on the home");

    // The client's stream lands on the home server (both replicas
    // idle, replica-list order breaks the tie) and keeps the drain
    // from completing under us.
    let first = match select(&world, &client, "Feature") {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
        other => panic!("{other:?}"),
    };
    assert_eq!(format!("node-{}", first.provider_addr), home);

    cluster.drain(&home).expect("drain accepted");
    assert!(cluster.peers.is_draining(&home));

    // The next select is the drain-away moment: the draining server
    // answers it with a referral, the client re-homes and replays it,
    // and the stream opens on a live member — one request, one
    // confirmation, exactly as if nothing had happened.
    let replies_before = world.replies(&client).len();
    let params = match select(&world, &client, "Feature") {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
        other => panic!("drained-away select failed: {other:?}"),
    };
    assert_ne!(
        format!("node-{}", params.provider_addr),
        home,
        "the stream opened away from the draining server"
    );
    assert_eq!(
        world.replies(&client).len(),
        replies_before + 1,
        "the re-homed select produced exactly one confirmation"
    );
    let moved_to = world.client_control_location(&client);
    assert_ne!(moved_to, home, "the control association left with it");
    assert_eq!(
        cluster.control.connections(&home),
        0,
        "the draining server holds no control association"
    );
    assert_eq!(world.client_referrals(&client), (1, 0));
    assert_eq!(world.client_referral_cache(&client), Some(moved_to));

    // Referring the client away also closed its stream on the
    // draining server: nothing holds the drain back, and the server
    // decommissions with zero control associations on it.
    world.run_for(SimDuration::from_secs(30));
    assert!(cluster.rebalancer.drain_complete(&home));
    assert!(cluster.peers.get(&home).is_none(), "decommissioned");

    // The client keeps playing from its new home.
    let mut receiver = world.receiver_for(&client, &params, SimDuration::from_millis(80));
    assert_eq!(
        world.client_op(&client, McamOp::Play { speed_pct: 100 }),
        Some(McamPdu::PlayRsp { ok: true })
    );
    world.run_for(SimDuration::from_secs(6));
    assert_eq!(receiver.poll(world.net.now()).len(), 100);
}

/// An `ErrorRsp 503` invalidates the cached referral: the saturation
/// that produced it means the load picture behind the referral is
/// stale.
#[test]
fn saturation_invalidates_the_cached_referral() {
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
    let mut world = World::builder(29).store(store).build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        2,
        StackKind::EstellePS,
        Placement::round_robin(2),
    ));
    let home = cluster.servers[0].services.sps.location();
    let other = cluster.servers[1].services.sps.location();
    let client = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    world.start();

    // Steer the client so it has a cached referral.
    cluster.control.pin(&home, &other);
    associate(&world, &client, "viewer");
    cluster.control.unpin(&home);
    assert_eq!(world.client_referral_cache(&client), Some(other.clone()));

    // Saturate every replica of a title, then select it: 503.
    let mut entry = MovieEntry::new("Packed", "pending");
    entry.frame_count = 5_000;
    world.publish_replicated(&cluster, &entry);
    for _ in 0..4 {
        // Two viewers per server fill both stores.
        let _ = select(&world, &client, "Packed");
    }
    let rsp = loop {
        match select(&world, &client, "Packed") {
            Some(McamPdu::SelectMovieRsp { params: Some(_) }) => continue,
            other => break other,
        }
    };
    assert!(
        matches!(rsp, Some(McamPdu::ErrorRsp { code: 503, .. })),
        "saturation expected: {rsp:?}"
    );
    assert_eq!(
        world.client_referral_cache(&client),
        None,
        "the 503 dropped the cached referral"
    );
}
