//! End-to-end MCAM protocol flows over both lower stacks.

use asn1::Value;
use directory::MovieEntry;
use mcam::{McamOp, McamPdu, StackKind, World};
use netsim::{LinkConfig, SimDuration, SimTime};

fn world_with_client(stack: StackKind) -> (World, mcam::ServerHandle, mcam::ClientHandle) {
    let mut world = World::builder(11).build();
    let server = world.add_server("s1", stack);
    let client = world.add_client(&server, stack, vec![]);
    world.start();
    (world, server, client)
}

fn associate(world: &World, client: &mcam::ClientHandle) {
    let rsp = world.client_op(
        client,
        McamOp::Associate {
            user: "tester".into(),
        },
    );
    assert_eq!(rsp, Some(McamPdu::AssociateRsp { accepted: true }));
}

#[test]
fn associate_over_estelle_stack() {
    let (world, _s, client) = world_with_client(StackKind::EstellePS);
    associate(&world, &client);
}

#[test]
fn associate_over_isode_stack() {
    let (world, _s, client) = world_with_client(StackKind::Isode);
    associate(&world, &client);
}

/// A wake source that forgets to wake is a diagnosed bug, not a bare
/// `None`: with the client medium's reader registration stolen, the
/// reply is delivered and never announced, the world goes quiet, and
/// the stall names the module and the transition nobody woke.
#[test]
#[should_panic(expected = "has from-medium enabled and nobody woke it")]
fn a_stalled_operation_names_the_row_nobody_woke() {
    let (world, _s, client) = world_with_client(StackKind::EstellePS);
    associate(&world, &client);
    world
        .net
        .on_available(client.ctrl_endpoints.0, std::task::Waker::noop().clone());
    world.client_op(&client, McamOp::Release);
}

#[test]
fn full_access_management_cycle() {
    let (world, _s, client) = world_with_client(StackKind::EstellePS);
    associate(&world, &client);

    // Create two movies over the wire.
    for title in ["Alien", "Aliens"] {
        let rsp = world.client_op(
            &client,
            McamOp::CreateMovie {
                title: title.into(),
                format: "XMovie-24".into(),
                frame_rate: 25,
                frame_count: 100,
            },
        );
        assert_eq!(rsp, Some(McamPdu::CreateMovieRsp { ok: true }));
    }
    // Duplicate creation fails.
    let rsp = world.client_op(
        &client,
        McamOp::CreateMovie {
            title: "Alien".into(),
            format: "XMovie-24".into(),
            frame_rate: 25,
            frame_count: 100,
        },
    );
    assert_eq!(rsp, Some(McamPdu::CreateMovieRsp { ok: false }));

    // List with substring.
    let rsp = world.client_op(
        &client,
        McamOp::List {
            contains: "alien".into(),
        },
    );
    match rsp {
        Some(McamPdu::ListMoviesRsp { mut titles }) => {
            titles.sort();
            assert_eq!(titles, vec!["Alien".to_string(), "Aliens".to_string()]);
        }
        other => panic!("{other:?}"),
    }

    // Query attributes.
    let rsp = world.client_op(
        &client,
        McamOp::Query {
            title: "Alien".into(),
            attrs: vec!["framerate".into()],
        },
    );
    match rsp {
        Some(McamPdu::QueryAttrsRsp { attrs: Some(attrs) }) => {
            assert_eq!(attrs, vec![("framerate".to_string(), Value::Int(25))]);
        }
        other => panic!("{other:?}"),
    }

    // Modify and re-query.
    let rsp = world.client_op(
        &client,
        McamOp::Modify {
            title: "Alien".into(),
            puts: vec![("framerate".into(), Value::Int(30))],
        },
    );
    assert_eq!(rsp, Some(McamPdu::ModifyAttrsRsp { ok: true }));
    let rsp = world.client_op(
        &client,
        McamOp::Query {
            title: "Alien".into(),
            attrs: vec!["framerate".into()],
        },
    );
    match rsp {
        Some(McamPdu::QueryAttrsRsp { attrs: Some(attrs) }) => {
            assert_eq!(attrs[0].1, Value::Int(30));
        }
        other => panic!("{other:?}"),
    }

    // Query of a missing movie returns None.
    let rsp = world.client_op(
        &client,
        McamOp::Query {
            title: "Ghost".into(),
            attrs: vec![],
        },
    );
    assert_eq!(rsp, Some(McamPdu::QueryAttrsRsp { attrs: None }));

    // Delete and verify.
    let rsp = world.client_op(
        &client,
        McamOp::DeleteMovie {
            title: "Aliens".into(),
        },
    );
    assert_eq!(rsp, Some(McamPdu::DeleteMovieRsp { ok: true }));
    let rsp = world.client_op(
        &client,
        McamOp::List {
            contains: String::new(),
        },
    );
    match rsp {
        Some(McamPdu::ListMoviesRsp { titles }) => assert_eq!(titles, vec!["Alien".to_string()]),
        other => panic!("{other:?}"),
    }
}

#[test]
fn playback_control_cycle_with_stream() {
    let (mut world, server, client) = {
        let mut world = World::builder(23).build();
        let server = world.add_server("s1", StackKind::EstellePS);
        let client = world.add_client(&server, StackKind::EstellePS, vec![]);
        world.start();
        (world, server, client)
    };
    let _ = &mut world;
    associate(&world, &client);
    let mut entry = MovieEntry::new("Brazil", "node-x");
    entry.frame_count = 200; // 8 seconds at 25 fps
    world.seed_movie(&server, &entry);

    let rsp = world.client_op(
        &client,
        McamOp::SelectMovie {
            title: "Brazil".into(),
        },
    );
    let params = match rsp {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
        other => panic!("{other:?}"),
    };
    assert_eq!(params.movie.frame_count, 200);
    assert_eq!(params.provider_addr, server.services.sps.addr().0);
    let mut receiver = world.receiver_for(&client, &params, SimDuration::from_millis(50));

    // Play one second, pause, verify stream stops, resume, stop.
    assert_eq!(
        world.client_op(&client, McamOp::Play { speed_pct: 100 }),
        Some(McamPdu::PlayRsp { ok: true })
    );
    world.run_for(SimDuration::from_secs(1));
    let first = receiver.poll(world.net.now()).len();
    assert!(first >= 20, "about a second of frames, got {first}");

    assert_eq!(
        world.client_op(&client, McamOp::Pause),
        Some(McamPdu::PauseRsp)
    );
    let paused_at = world.net.now();
    world.run_for(SimDuration::from_secs(1));
    let during_pause = receiver
        .poll(world.net.now())
        .iter()
        .filter(|f| f.seq > first as u32 + 5)
        .count();
    assert_eq!(
        during_pause, 0,
        "no new frames while paused (after {paused_at})"
    );

    assert_eq!(
        world.client_op(&client, McamOp::Seek { frame: 180 }),
        Some(McamPdu::SeekRsp { ok: true })
    );
    assert_eq!(
        world.client_op(&client, McamOp::Play { speed_pct: 100 }),
        Some(McamPdu::PlayRsp { ok: true })
    );
    world.run_for(SimDuration::from_secs(2));
    let tail = receiver.poll(world.net.now());
    assert!(
        tail.iter().any(|f| f.timestamp_us >= 180 * 40_000),
        "frames from the seek point arrived"
    );
    assert!(receiver.ended, "end-of-stream marker after frame 200");

    assert_eq!(
        world.client_op(&client, McamOp::Deselect),
        Some(McamPdu::DeselectMovieRsp)
    );
    assert_eq!(server.services.sps.stream_count(), 0, "stream closed");
}

#[test]
fn control_before_select_is_rejected() {
    let (world, _s, client) = world_with_client(StackKind::EstellePS);
    associate(&world, &client);
    match world.client_op(&client, McamOp::Play { speed_pct: 100 }) {
        Some(McamPdu::ErrorRsp { code, .. }) => assert_eq!(code, 404),
        other => panic!("{other:?}"),
    }
    match world.client_op(&client, McamOp::Pause) {
        Some(McamPdu::ErrorRsp { code, .. }) => assert_eq!(code, 404),
        other => panic!("{other:?}"),
    }
}

#[test]
fn select_unknown_movie_fails_cleanly() {
    let (world, _s, client) = world_with_client(StackKind::Isode);
    associate(&world, &client);
    let rsp = world.client_op(
        &client,
        McamOp::SelectMovie {
            title: "Nothing".into(),
        },
    );
    assert_eq!(rsp, Some(McamPdu::SelectMovieRsp { params: None }));
}

#[test]
fn record_reserves_camera_and_creates_entry() {
    let (world, server, client) = world_with_client(StackKind::EstellePS);
    associate(&world, &client);
    let rsp = world.client_op(
        &client,
        McamOp::Record {
            title: "Lecture".into(),
            frames: 250,
        },
    );
    assert_eq!(rsp, Some(McamPdu::RecordRsp { ok: true }));
    // The recording is now a listed movie.
    let rsp = world.client_op(
        &client,
        McamOp::List {
            contains: "lect".into(),
        },
    );
    match rsp {
        Some(McamPdu::ListMoviesRsp { titles }) => assert_eq!(titles, vec!["Lecture".to_string()]),
        other => panic!("{other:?}"),
    }
    // The camera was released again after the recording.
    let cams = server
        .services
        .eca
        .list(Some(equipment::EquipmentClass::Camera));
    assert!(cams.iter().all(|c| c.state == equipment::DeviceState::Free));
}

#[test]
fn release_cycle_allows_no_further_requests() {
    let (world, _s, client) = world_with_client(StackKind::EstellePS);
    associate(&world, &client);
    assert_eq!(
        world.client_op(&client, McamOp::Release),
        Some(McamPdu::ReleaseRsp)
    );
    // The association is gone: further requests fail locally.
    match world.client_op(&client, McamOp::Pause) {
        Some(McamPdu::ErrorRsp { code, .. }) => assert_eq!(code, 901),
        other => panic!("{other:?}"),
    }
}

#[test]
fn two_clients_share_one_server_machine() {
    let mut world = World::builder(31).build();
    let server = world.add_server("s1", StackKind::EstellePS);
    let c1 = world.add_client(&server, StackKind::EstellePS, vec![]);
    let c2 = world.add_client(&server, StackKind::EstellePS, vec![]);
    world.start();
    associate(&world, &c1);
    associate(&world, &c2);
    // Client 1 creates; client 2 sees it (shared movie database,
    // Fig. 2).
    let rsp = world.client_op(
        &c1,
        McamOp::CreateMovie {
            title: "Shared".into(),
            format: "XMovie-24".into(),
            frame_rate: 25,
            frame_count: 100,
        },
    );
    assert_eq!(rsp, Some(McamPdu::CreateMovieRsp { ok: true }));
    let rsp = world.client_op(
        &c2,
        McamOp::List {
            contains: String::new(),
        },
    );
    match rsp {
        Some(McamPdu::ListMoviesRsp { titles }) => assert_eq!(titles, vec!["Shared".to_string()]),
        other => panic!("{other:?}"),
    }
    // Both can stream simultaneously.
    let p1 = match world.client_op(
        &c1,
        McamOp::SelectMovie {
            title: "Shared".into(),
        },
    ) {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
        other => panic!("{other:?}"),
    };
    let p2 = match world.client_op(
        &c2,
        McamOp::SelectMovie {
            title: "Shared".into(),
        },
    ) {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
        other => panic!("{other:?}"),
    };
    assert_ne!(p1.stream_id, p2.stream_id);
    let mut r1 = world.receiver_for(&c1, &p1, SimDuration::from_millis(50));
    let mut r2 = world.receiver_for(&c2, &p2, SimDuration::from_millis(50));
    world.client_op(&c1, McamOp::Play { speed_pct: 100 });
    world.client_op(&c2, McamOp::Play { speed_pct: 100 });
    world.run_for(SimDuration::from_secs(6));
    assert_eq!(r1.poll(world.net.now()).len(), 100);
    assert_eq!(r2.poll(world.net.now()).len(), 100);
}

#[test]
fn mixed_stacks_one_server() {
    // Fig. 2 runs both control stacks side by side for conformance
    // comparison: one client on each flavour against the same server
    // machine (each connection gets its own server entity of the
    // matching stack kind, so use two roots sharing services is not
    // needed — two servers stand in for the two stack columns).
    let mut world = World::builder(41).build();
    let s_est = world.add_server("est", StackKind::EstellePS);
    let c_est = world.add_client(&s_est, StackKind::EstellePS, vec![]);
    let s_iso = world.add_server("iso", StackKind::Isode);
    let c_iso = world.add_client(&s_iso, StackKind::Isode, vec![]);
    world.start();
    associate(&world, &c_est);
    associate(&world, &c_iso);
    for c in [&c_est, &c_iso] {
        let rsp = world.client_op(
            c,
            McamOp::CreateMovie {
                title: "Conformance".into(),
                format: "XMovie-24".into(),
                frame_rate: 25,
                frame_count: 10,
            },
        );
        assert_eq!(rsp, Some(McamPdu::CreateMovieRsp { ok: true }));
    }
}

#[test]
fn scripted_application_plays_through() {
    let mut world = World::builder(55).build();
    let server = world.add_server("s1", StackKind::EstellePS);
    let script = vec![
        McamOp::Associate {
            user: "script".into(),
        },
        McamOp::CreateMovie {
            title: "Scripted".into(),
            format: "XMovie-24".into(),
            frame_rate: 25,
            frame_count: 25,
        },
        McamOp::SelectMovie {
            title: "Scripted".into(),
        },
        McamOp::Play { speed_pct: 100 },
    ];
    let client = world.add_client(&server, StackKind::EstellePS, script);
    world.start();
    world.run_until_quiet(SimTime::MAX);
    let replies = world.replies(&client);
    assert_eq!(replies.len(), 4, "all scripted ops confirmed: {replies:?}");
    assert_eq!(replies[0], McamPdu::AssociateRsp { accepted: true });
    assert_eq!(replies[1], McamPdu::CreateMovieRsp { ok: true });
    assert!(matches!(
        replies[2],
        McamPdu::SelectMovieRsp { params: Some(_) }
    ));
    assert_eq!(replies[3], McamPdu::PlayRsp { ok: true });
}

#[test]
fn lossy_stream_network_does_not_disturb_control() {
    // Table 1: the control protocol runs over the reliable stack, the
    // stream over the lossy one; heavy stream loss must not affect
    // control correctness.
    let mut world = World::builder(77)
        .stream_link(LinkConfig::lossy(
            SimDuration::from_millis(3),
            SimDuration::from_millis(1),
            0.3,
        ))
        .build();
    let server = world.add_server("s1", StackKind::EstellePS);
    let client = world.add_client(&server, StackKind::EstellePS, vec![]);
    world.start();
    associate(&world, &client);
    let mut entry = MovieEntry::new("Lossy", "node-x");
    entry.frame_count = 100;
    world.seed_movie(&server, &entry);
    let params = match world.client_op(
        &client,
        McamOp::SelectMovie {
            title: "Lossy".into(),
        },
    ) {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
        other => panic!("{other:?}"),
    };
    let mut receiver = world.receiver_for(&client, &params, SimDuration::from_millis(60));
    assert_eq!(
        world.client_op(&client, McamOp::Play { speed_pct: 100 }),
        Some(McamPdu::PlayRsp { ok: true })
    );
    world.run_for(SimDuration::from_secs(5));
    let played = receiver.poll(world.net.now());
    // The stream lost packets but control stayed perfect.
    assert!(receiver.stats.lost > 5, "lost={}", receiver.stats.lost);
    assert!(played.len() < 100);
    assert!(played.len() > 40);
    assert_eq!(
        world.client_op(&client, McamOp::Stop),
        Some(McamPdu::StopRsp)
    );
}
