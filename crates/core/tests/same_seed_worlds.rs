//! Two same-seed worlds built in one process replay each other. Each
//! `HashMap` gets its own hash seed, so a walk over one that reaches
//! the seeded link model (which packet draws which delay) or the
//! journal would make them disagree; this pins that no such walk is
//! left on the playback path.

use directory::MovieEntry;
use mcam::{McamOp, McamPdu, StackKind, World};
use mtp::ReceiverStats;
use netsim::SimDuration;

/// One server on the default jittered CM link, six viewers of six
/// titles playing for 2 s. Returns every receiver's counters and the
/// world, whose journal the test compares.
fn run(seed: u64) -> (Vec<ReceiverStats>, World) {
    let titles = ["Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta"];
    let mut world = World::builder(seed).build();
    let server = world.add_server("s", StackKind::EstellePS);
    let clients: Vec<_> = titles
        .iter()
        .map(|_| world.add_client(&server, StackKind::EstellePS, vec![]))
        .collect();
    world.start();
    let mut receivers = Vec::new();
    for (client, title) in clients.iter().zip(titles) {
        let mut entry = MovieEntry::new(title, "node-x");
        entry.frame_count = 100;
        world.seed_movie(&server, &entry);
        let user = title.to_lowercase();
        let rsp = world.client_op(client, McamOp::Associate { user });
        assert_eq!(rsp, Some(McamPdu::AssociateRsp { accepted: true }));
        let title = title.into();
        let params = match world.client_op(client, McamOp::SelectMovie { title }) {
            Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
            other => panic!("select failed: {other:?}"),
        };
        receivers.push(world.receiver_for(client, &params, SimDuration::from_millis(100)));
    }
    // With the first blocks cached, plays issued together start at the
    // same instant, so every frame tick sends one packet per stream in
    // one provider pump, in the order it walks its streams.
    world.run_for(SimDuration::from_millis(500));
    for client in &clients {
        world.push_op(client, McamOp::Play { speed_pct: 100 });
    }
    world.run_for(SimDuration::from_secs(2));
    for client in &clients {
        let last = world.replies(client).pop();
        assert_eq!(last, Some(McamPdu::PlayRsp { ok: true }));
    }
    let now = world.net.now();
    let stats = receivers
        .iter_mut()
        .map(|r| {
            r.poll(now);
            r.stats
        })
        .collect();
    (stats, world)
}

#[test]
fn same_seed_worlds_agree_on_every_receiver_and_the_journal() {
    let (first, a) = run(1994);
    let (second, b) = run(1994);
    assert!(first.iter().all(|s| s.received > 0), "{first:?}");
    for (i, (x, y)) in first.iter().zip(&second).enumerate() {
        let fields = |s: &ReceiverStats| (s.jitter_us, s.mean_transit_us, s.max_transit_us);
        assert_eq!(fields(x), fields(y), "receiver {i}");
    }
    journal::replay_check(&a.journal().to_jsonl(), b.journal()).expect("same journal");
}
