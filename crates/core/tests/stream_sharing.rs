//! The stream-sharing merge engine end to end: followers of a shared
//! title admit free under saturation, fast-feeds converge and release
//! their delta reservation, a closing leader hands its disk stream to
//! the nearest follower without a playback gap, a follower seeking
//! out of its group re-admits honestly (or is refused with 503 and
//! stays merged), and the whole lifecycle lands in the verifiable
//! event journal.

use mcam::{ClusterSpec, McamOp, McamPdu, Placement, ShareConfig, StackKind, World};
use netsim::SimDuration;
use store::{CachePolicy, DiskParams, StoreConfig};

/// One slow disk: ~1.69 Mbit/s of admissible bandwidth fits two
/// ~0.69 Mbit/s nominal-rate streams, not three.
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

/// The 503 sentence is what the client is told (and its length is on
/// the wire): `what` could not be afforded, with both bandwidths named.
fn assert_refusal(message: &str, what: &str) {
    let told = format!("admission rejected: {what} needs ");
    assert!(message.starts_with(&told), "{message}");
    assert!(
        message.ends_with(" bps of disk bandwidth available"),
        "{message}"
    );
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

fn publish(world: &World, cluster: &mcam::ClusterHandle, title: &str, frames: u64) {
    let mut entry = directory::MovieEntry::new(title, "pending");
    entry.frame_count = frames;
    world.publish_replicated(cluster, &entry);
}

/// Four viewers of one title on a server that fits two full streams:
/// the first charges a disk stream and leads, the other three merge
/// free, and the admission controller's headroom does not move.
#[test]
fn followers_admit_free_under_saturation() {
    let mut world = World::builder(71)
        .store(tight_store())
        .share(ShareConfig::default())
        .build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        1,
        StackKind::EstellePS,
        Placement::round_robin(1),
    ));
    let clients: Vec<_> = (0..4)
        .map(|_| world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]))
        .collect();
    world.start();
    for (i, c) in clients.iter().enumerate() {
        associate(&world, c, &format!("viewer-{i}"));
    }
    publish(&world, &cluster, "Hit", 500);

    let store = &cluster.servers[0].services.store;
    let idle = store.available_bps();
    match select(&world, &clients[0], "Hit") {
        Some(McamPdu::SelectMovieRsp { params: Some(_) }) => {}
        other => panic!("leader must be admitted: {other:?}"),
    }
    let after_leader = store.available_bps();
    assert!(after_leader < idle, "the leader charges one full stream");

    // Without sharing the third viewer would be refused; with the
    // merge engine every follower rides the leader's stream for free.
    for c in &clients[1..] {
        match select(&world, c, "Hit") {
            Some(McamPdu::SelectMovieRsp { params: Some(_) }) => {}
            other => panic!("follower must be admitted free: {other:?}"),
        }
        assert_eq!(
            store.available_bps(),
            after_leader,
            "a merged follower must not move the admission headroom"
        );
    }
    let stats = cluster.servers[0].services.share.stats();
    assert_eq!(stats.merges, 3, "{stats:?}");
    assert_eq!(world.journal().count(journal::kind::MERGE_JOINED), 3);
}

/// A viewer joining outside the merge window but inside the catch-up
/// horizon fast-feeds: it charges only the delta bandwidth, plays at
/// the catch-up rate until its gap closes, then merges and releases
/// the delta back to admission.
#[test]
fn fast_feed_converges_and_releases_its_delta() {
    let mut world = World::builder(72)
        .store(tight_store())
        .share(ShareConfig {
            enabled: true,
            merge_window_blocks: 1,
            catch_up_horizon_blocks: 8,
            catch_up_rate_pct: 200,
        })
        .build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        1,
        StackKind::EstellePS,
        Placement::round_robin(1),
    ));
    let leader = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    let chaser = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    world.start();
    associate(&world, &leader, "leader");
    associate(&world, &chaser, "chaser");
    publish(&world, &cluster, "Hit", 500);

    let store = &cluster.servers[0].services.store;
    match select(&world, &leader, "Hit") {
        Some(McamPdu::SelectMovieRsp { params: Some(_) }) => {}
        other => panic!("leader must be admitted: {other:?}"),
    }
    let one_stream = store.available_bps();
    assert_eq!(
        world.client_op(&leader, McamOp::Play { speed_pct: 100 }),
        Some(McamPdu::PlayRsp { ok: true })
    );
    // Let the leader get a few blocks ahead: past the merge window,
    // inside the catch-up horizon.
    world.run_for(SimDuration::from_secs(4));

    match select(&world, &chaser, "Hit") {
        Some(McamPdu::SelectMovieRsp { params: Some(_) }) => {}
        other => panic!("fast-feed viewer must be admitted: {other:?}"),
    }
    let share = &cluster.servers[0].services.share;
    assert_eq!(share.stats().fast_feeds, 1, "{:?}", share.stats());
    assert!(
        store.available_bps() < one_stream,
        "the fast-feed must charge its delta"
    );
    assert_eq!(
        world.client_op(&chaser, McamOp::Play { speed_pct: 100 }),
        Some(McamPdu::PlayRsp { ok: true })
    );

    // At 2x the leader's rate the gap closes within a few seconds;
    // convergence merges the chaser and releases the delta.
    world.run_for(SimDuration::from_secs(8));
    let stats = share.stats();
    assert_eq!(stats.conversions, 1, "{stats:?}");
    assert_eq!(
        store.available_bps(),
        one_stream,
        "a converged fast-feed must release its delta reservation"
    );
    assert_eq!(world.journal().count(journal::kind::FAST_FEED_STARTED), 1);
    assert_eq!(world.journal().count(journal::kind::FAST_FEED_CONVERGED), 1);
}

/// The leader deselects mid-movie: the nearest follower is promoted,
/// re-charged one full disk stream, and its playback continues
/// without a gap — every frame of the movie still arrives, exactly
/// once.
#[test]
fn leader_close_promotes_a_follower_without_a_playback_gap() {
    let mut world = World::builder(73)
        .store(tight_store())
        .share(ShareConfig::default())
        .build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        1,
        StackKind::EstellePS,
        Placement::round_robin(1),
    ));
    let leader = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    let follower = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    world.start();
    associate(&world, &leader, "leader");
    associate(&world, &follower, "follower");
    publish(&world, &cluster, "Hit", 200);

    let store = &cluster.servers[0].services.store;
    match select(&world, &leader, "Hit") {
        Some(McamPdu::SelectMovieRsp { params: Some(_) }) => {}
        other => panic!("leader must be admitted: {other:?}"),
    }
    let one_stream = store.available_bps();
    assert_eq!(
        world.client_op(&leader, McamOp::Play { speed_pct: 100 }),
        Some(McamPdu::PlayRsp { ok: true })
    );
    let follower_params = match select(&world, &follower, "Hit") {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
        other => panic!("follower must be admitted: {other:?}"),
    };
    let mut receiver =
        world.receiver_for(&follower, &follower_params, SimDuration::from_millis(80));
    assert_eq!(
        world.client_op(&follower, McamOp::Play { speed_pct: 100 }),
        Some(McamPdu::PlayRsp { ok: true })
    );
    world.run_for(SimDuration::from_secs(2));

    // The leader lets go mid-movie: the follower takes over the disk
    // stream and the admission headroom stays at exactly one charged
    // stream (the promoted one).
    assert_eq!(
        world.client_op(&leader, McamOp::Deselect),
        Some(McamPdu::DeselectMovieRsp)
    );
    let share = &cluster.servers[0].services.share;
    assert_eq!(share.stats().promotions, 1, "{:?}", share.stats());
    assert_eq!(
        store.available_bps(),
        one_stream,
        "promotion re-charges exactly the one stream the leader freed"
    );
    assert_eq!(world.journal().count(journal::kind::LEADER_PROMOTED), 1);

    // The promoted viewer plays the movie out: all 200 frames arrive,
    // once each — no stall and no replay across the promotion.
    world.run_for(SimDuration::from_secs(12));
    assert_eq!(
        receiver.poll(world.net.now()).len(),
        200,
        "the promoted follower's playback must stay gapless"
    );
}

/// A follower seeking out of its group must pass full admission for
/// its own stream: refused with 503 while the server is saturated
/// (staying merged), admitted — and split out — once capacity frees.
#[test]
fn seek_out_of_group_readmits_or_503s_honestly() {
    let mut world = World::builder(74)
        .store(tight_store())
        .share(ShareConfig::default())
        .build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        1,
        StackKind::EstellePS,
        Placement::round_robin(1),
    ));
    let leader = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    let follower = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    let rival = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    world.start();
    associate(&world, &leader, "leader");
    associate(&world, &follower, "follower");
    associate(&world, &rival, "rival");
    publish(&world, &cluster, "Hit", 500);
    publish(&world, &cluster, "Other", 500);

    for (client, title) in [(&leader, "Hit"), (&follower, "Hit"), (&rival, "Other")] {
        match select(&world, client, title) {
            Some(McamPdu::SelectMovieRsp { params: Some(_) }) => {}
            other => panic!("viewer of {title} must be admitted: {other:?}"),
        }
    }
    // Two full streams are now charged (Hit's leader and Other's):
    // the follower's seek out of the group cannot be afforded.
    let share = &cluster.servers[0].services.share;
    match world.client_op(&follower, McamOp::Seek { frame: 400 }) {
        Some(McamPdu::ErrorRsp { code, message }) => {
            assert_eq!(code, mcam::server::ERR_ADMISSION);
            assert_refusal(&message, "leaving the merge group");
        }
        other => panic!("a seek the disks cannot afford must 503: {other:?}"),
    }
    assert_eq!(share.stats().splits, 0, "a refused seek must stay merged");
    // Nor can the rival's stream be sped up: double rate is a second
    // stream's worth of disk bandwidth.
    match world.client_op(&rival, McamOp::Play { speed_pct: 200 }) {
        Some(McamPdu::ErrorRsp { code, message }) => {
            assert_eq!(code, mcam::server::ERR_ADMISSION);
            assert_refusal(&message, "speed-up");
        }
        other => panic!("a speed-up the disks cannot afford must 503: {other:?}"),
    }

    // The rival lets go; the same seek now passes admission and the
    // follower becomes a stream of its own.
    assert_eq!(
        world.client_op(&rival, McamOp::Deselect),
        Some(McamPdu::DeselectMovieRsp)
    );
    match world.client_op(&follower, McamOp::Seek { frame: 400 }) {
        Some(McamPdu::SeekRsp { ok: true }) => {}
        other => panic!("the seek must pass once capacity frees: {other:?}"),
    }
    assert_eq!(share.stats().splits, 1, "{:?}", share.stats());
    assert_eq!(world.journal().count(journal::kind::GROUP_SPLIT), 1);
}

/// The full merge lifecycle — merge, fast-feed, convergence,
/// promotion, split — lands in one hash-chained journal that
/// verifies, and a JSONL round-trip re-verifies offline.
#[test]
fn journal_chain_verifies_across_the_merge_lifecycle() {
    let mut world = World::builder(75)
        .store(tight_store())
        .share(ShareConfig {
            enabled: true,
            merge_window_blocks: 1,
            catch_up_horizon_blocks: 8,
            catch_up_rate_pct: 200,
        })
        .build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        1,
        StackKind::EstellePS,
        Placement::round_robin(1),
    ));
    let clients: Vec<_> = (0..3)
        .map(|_| world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]))
        .collect();
    world.start();
    for (i, c) in clients.iter().enumerate() {
        associate(&world, c, &format!("viewer-{i}"));
    }
    publish(&world, &cluster, "Hit", 500);

    // Leader, an instant merge, then (after the leader pulls ahead) a
    // fast-feed that converges.
    for c in &clients[..2] {
        match select(&world, c, "Hit") {
            Some(McamPdu::SelectMovieRsp { params: Some(_) }) => {}
            other => panic!("viewer must be admitted: {other:?}"),
        }
    }
    assert_eq!(
        world.client_op(&clients[0], McamOp::Play { speed_pct: 100 }),
        Some(McamPdu::PlayRsp { ok: true })
    );
    world.run_for(SimDuration::from_secs(4));
    match select(&world, &clients[2], "Hit") {
        Some(McamPdu::SelectMovieRsp { params: Some(_) }) => {}
        other => panic!("fast-feed viewer must be admitted: {other:?}"),
    }
    assert_eq!(
        world.client_op(&clients[2], McamOp::Play { speed_pct: 100 }),
        Some(McamPdu::PlayRsp { ok: true })
    );
    world.run_for(SimDuration::from_secs(8));
    // The leader closes (promoting a follower), then the promoted
    // group's trailing member seeks out (splitting).
    assert_eq!(
        world.client_op(&clients[0], McamOp::Deselect),
        Some(McamPdu::DeselectMovieRsp)
    );
    match world.client_op(&clients[2], McamOp::Seek { frame: 450 }) {
        Some(McamPdu::SeekRsp { ok: true }) | Some(McamPdu::ErrorRsp { .. }) => {}
        other => panic!("seek must answer: {other:?}"),
    }

    let journal = world.journal();
    journal.verify().expect("hash chain intact");
    for kind in [
        journal::kind::MERGE_JOINED,
        journal::kind::FAST_FEED_STARTED,
        journal::kind::FAST_FEED_CONVERGED,
        journal::kind::LEADER_PROMOTED,
    ] {
        assert!(journal.count(kind) >= 1, "missing {kind} events");
    }
    // The recorded JSONL round-trips and re-verifies offline.
    let events = journal::events_from_jsonl(&journal.to_jsonl()).unwrap();
    journal::verify_events(&events).unwrap();
}
