//! Failure injection: bursty stream loss, directory faults through the
//! protocol, and equipment contention.

use directory::MovieEntry;
use mcam::{McamOp, McamPdu, StackKind, World};
use netsim::{DelayModel, LinkConfig, LossModel, SimDuration};

#[test]
fn bursty_gilbert_elliott_loss_on_the_stream() {
    let cfg = LinkConfig {
        delay: DelayModel::Jittered {
            mean: SimDuration::from_millis(3),
            jitter: SimDuration::from_millis(1),
        },
        loss: LossModel::GilbertElliott {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.3,
            loss_good: 0.0,
            loss_bad: 0.8,
        },
        bandwidth_bps: None,
        fifo: false,
    };
    let mut world = World::builder(97).stream_link(cfg).build();
    let server = world.add_server("s", StackKind::EstellePS);
    let client = world.add_client(&server, StackKind::EstellePS, vec![]);
    world.start();
    world.client_op(
        &client,
        McamOp::Associate {
            user: "burst".into(),
        },
    );
    let mut entry = MovieEntry::new("Bursty", "x");
    entry.frame_count = 250;
    world.seed_movie(&server, &entry);
    let params = match world.client_op(
        &client,
        McamOp::SelectMovie {
            title: "Bursty".into(),
        },
    ) {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
        other => panic!("{other:?}"),
    };
    let mut receiver = world.receiver_for(&client, &params, SimDuration::from_millis(80));
    world.client_op(&client, McamOp::Play { speed_pct: 100 });
    world.run_for(SimDuration::from_secs(12));
    let played = receiver.poll(world.net.now());
    assert!(receiver.stats.lost > 0, "bursts must cost frames");
    assert!(
        played.len() > 150,
        "stream survives bursts: {}",
        played.len()
    );
    // Control protocol still works afterwards.
    assert_eq!(
        world.client_op(&client, McamOp::Stop),
        Some(McamPdu::StopRsp)
    );
}

#[test]
fn directory_faults_surface_as_protocol_errors_not_hangs() {
    let mut world = World::builder(98).build();
    let server = world.add_server("s", StackKind::EstellePS);
    let client = world.add_client(&server, StackKind::EstellePS, vec![]);
    world.start();
    world.client_op(
        &client,
        McamOp::Associate {
            user: "fault".into(),
        },
    );
    // Delete a movie that does not exist.
    assert_eq!(
        world.client_op(
            &client,
            McamOp::DeleteMovie {
                title: "Ghost".into()
            }
        ),
        Some(McamPdu::DeleteMovieRsp { ok: false })
    );
    // Modify a movie that does not exist.
    assert_eq!(
        world.client_op(
            &client,
            McamOp::Modify {
                title: "Ghost".into(),
                puts: vec![]
            }
        ),
        Some(McamPdu::ModifyAttrsRsp { ok: false })
    );
    // Select a movie whose directory entry is corrupt (schema error).
    let dn: directory::Dn = "o=movies/cn=Broken".parse().unwrap();
    let mut attrs = MovieEntry::new("Broken", "x").to_attrs();
    attrs.remove(directory::attr::FRAME_RATE);
    server.services.dua.add(dn, attrs).unwrap();
    assert_eq!(
        world.client_op(
            &client,
            McamOp::SelectMovie {
                title: "Broken".into()
            }
        ),
        Some(McamPdu::SelectMovieRsp { params: None })
    );
    // The association is still healthy.
    assert!(matches!(
        world.client_op(
            &client,
            McamOp::List {
                contains: String::new()
            }
        ),
        Some(McamPdu::ListMoviesRsp { .. })
    ));
}

#[test]
fn equipment_contention_fails_record_cleanly() {
    let mut world = World::builder(99).build();
    let server = world.add_server("s", StackKind::EstellePS);
    let client = world.add_client(&server, StackKind::EstellePS, vec![]);
    world.start();
    world.client_op(&client, McamOp::Associate { user: "rec".into() });
    // A rival user (different client id) grabs the site's only camera
    // out-of-band.
    let eca = &server.services.eca;
    let cams = eca.list(Some(equipment::EquipmentClass::Camera));
    let mut rival = equipment::Eua::new(42);
    rival.add_site(eca);
    rival
        .reserve(eca.site(), cams[0].id)
        .expect("rival reservation");
    // Now the protocol-level record cannot acquire a camera.
    assert_eq!(
        world.client_op(
            &client,
            McamOp::Record {
                title: "Blocked".into(),
                frames: 10
            }
        ),
        Some(McamPdu::RecordRsp { ok: false })
    );
    // Release and retry succeeds.
    rival.release(eca.site(), cams[0].id).unwrap();
    assert_eq!(
        world.client_op(
            &client,
            McamOp::Record {
                title: "Unblocked".into(),
                frames: 10
            }
        ),
        Some(McamPdu::RecordRsp { ok: true })
    );
}
