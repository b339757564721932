//! State-machine discipline of the hand-coded ISODE stack: wrong-state
//! calls, context enforcement, release handshakes, aborts, and
//! garbage on the wire; and the same stack over both transport
//! backends it runs on.

use isode::{IsodeError, IsodeEvent, IsodeStack};
use netsim::TransportBackend;
use netsim::{LoopbackMedium, Medium, Network, SimBackend, SimDuration, ThreadedBackend};
use presentation::mcam_contexts;
use presentation::{ProposedContext, TRANSFER_BER};
use std::sync::Arc;

fn pair() -> (IsodeStack, IsodeStack) {
    let (a, b) = LoopbackMedium::pair();
    (IsodeStack::new(Box::new(a)), IsodeStack::new(Box::new(b)))
}

/// Pumps both stacks until neither has work.
fn settle(a: &mut IsodeStack, b: &mut IsodeStack) {
    loop {
        let n = a.pump() + b.pump();
        if n == 0 {
            break;
        }
    }
}

/// `settle` for stacks whose traffic may wait on `net`.
fn settle_on(net: &Network) -> impl Fn(&mut IsodeStack, &mut IsodeStack) + '_ {
    move |a: &mut IsodeStack, b: &mut IsodeStack| loop {
        net.run_until_idle();
        if a.pump() + b.pump() == 0 {
            break;
        }
    }
}

/// A stack pair over one connection of each backend; the simulated one
/// carries its traffic on `net`.
fn backend_pairs(net: &Arc<Network>) -> Vec<(IsodeStack, IsodeStack)> {
    let sim = SimBackend::new(net, SimDuration::from_millis(1));
    let backends: [&dyn TransportBackend; 2] = [&sim, &ThreadedBackend::new()];
    let stacks = |(a, b)| (IsodeStack::new(a), IsodeStack::new(b));
    backends.iter().map(|t| stacks(t.connect())).collect()
}

fn connect(a: &mut IsodeStack, b: &mut IsodeStack) {
    connect_over(a, b, &settle);
}

fn connect_over(
    a: &mut IsodeStack,
    b: &mut IsodeStack,
    settle: &dyn Fn(&mut IsodeStack, &mut IsodeStack),
) {
    a.p_connect_request(mcam_contexts(), b"AARQ".to_vec())
        .unwrap();
    settle(a, b);
    let Some(IsodeEvent::ConnectInd { .. }) = b.poll_event() else {
        panic!("responder must see P-CONNECT.indication");
    };
    b.p_connect_response(true, b"AARE".to_vec()).unwrap();
    settle(a, b);
    let Some(IsodeEvent::ConnectCnf { accepted: true, .. }) = a.poll_event() else {
        panic!("initiator must see P-CONNECT.confirm");
    };
    assert!(a.is_connected() && b.is_connected());
}

#[test]
fn data_before_connect_is_wrong_state() {
    let (mut a, _b) = pair();
    assert!(matches!(
        a.p_data_request(1, b"x".to_vec()),
        Err(IsodeError::WrongState(_))
    ));
    assert!(matches!(
        a.p_release_request(),
        Err(IsodeError::WrongState(_))
    ));
}

#[test]
fn double_connect_rejected() {
    let (mut a, mut b) = pair();
    connect(&mut a, &mut b);
    assert!(matches!(
        a.p_connect_request(mcam_contexts(), vec![]),
        Err(IsodeError::WrongState(_))
    ));
}

#[test]
fn unaccepted_context_rejected() {
    // Offer one BER context and one with an unsupported transfer
    // syntax: negotiation accepts only the former.
    let (mut a, mut b) = pair();
    let offered = vec![
        ProposedContext {
            id: 1,
            abstract_syntax: "mcam-pci".into(),
            transfer_syntax: TRANSFER_BER.into(),
        },
        ProposedContext {
            id: 3,
            abstract_syntax: "mcam-pci".into(),
            transfer_syntax: "per-aligned".into(),
        },
    ];
    a.p_connect_request(offered, b"AARQ".to_vec()).unwrap();
    settle(&mut a, &mut b);
    let Some(IsodeEvent::ConnectInd { .. }) = b.poll_event() else {
        panic!("no indication");
    };
    b.p_connect_response(true, b"AARE".to_vec()).unwrap();
    settle(&mut a, &mut b);
    let Some(IsodeEvent::ConnectCnf {
        accepted: true,
        results,
        ..
    }) = a.poll_event()
    else {
        panic!("no confirm");
    };
    assert_eq!(
        results.len(),
        2,
        "negotiation reports every proposed context"
    );
    assert!(results.iter().any(|r| r.id == 1 && r.accepted));
    assert!(results.iter().any(|r| r.id == 3 && !r.accepted));
    // Data on the accepted context flows; on the rejected one it
    // fails locally.
    a.p_data_request(1, b"ok".to_vec()).unwrap();
    assert_eq!(
        a.p_data_request(3, b"no".to_vec()),
        Err(IsodeError::BadContext(3))
    );
    settle(&mut a, &mut b);
    assert!(
        matches!(b.poll_event(), Some(IsodeEvent::DataInd { context_id, .. }) if context_id == 1)
    );
}

#[test]
fn rejected_association_returns_to_idle() {
    let (mut a, mut b) = pair();
    a.p_connect_request(mcam_contexts(), vec![]).unwrap();
    settle(&mut a, &mut b);
    let Some(IsodeEvent::ConnectInd { .. }) = b.poll_event() else {
        panic!("no indication");
    };
    b.p_connect_response(false, b"AARE-reject".to_vec())
        .unwrap();
    settle(&mut a, &mut b);
    assert!(matches!(
        a.poll_event(),
        Some(IsodeEvent::ConnectCnf {
            accepted: false,
            ..
        })
    ));
    assert!(!a.is_connected() && !b.is_connected());
    // Both sides can associate again.
    connect(&mut a, &mut b);
}

#[test]
fn orderly_release_handshake() {
    let (mut a, mut b) = pair();
    connect(&mut a, &mut b);
    a.p_release_request().unwrap();
    settle(&mut a, &mut b);
    assert!(matches!(b.poll_event(), Some(IsodeEvent::ReleaseInd)));
    b.p_release_response().unwrap();
    settle(&mut a, &mut b);
    assert!(matches!(a.poll_event(), Some(IsodeEvent::ReleaseCnf)));
    assert!(!a.is_connected() && !b.is_connected());
    // The association can be rebuilt afterwards (same objects).
    connect(&mut a, &mut b);
}

#[test]
fn abort_tears_down_immediately() {
    let (mut a, mut b) = pair();
    connect(&mut a, &mut b);
    a.p_abort_request(7);
    settle(&mut a, &mut b);
    assert!(matches!(
        b.poll_event(),
        Some(IsodeEvent::AbortInd { reason: 7 })
    ));
    assert!(!a.is_connected() && !b.is_connected());
}

#[test]
fn wire_garbage_counts_protocol_errors() {
    let (wire_a, wire_b) = LoopbackMedium::pair();
    let mut stack = IsodeStack::new(Box::new(wire_b));
    wire_a.send(vec![0xDE, 0xAD, 0xBE, 0xEF]);
    stack.pump();
    assert!(
        stack.protocol_errors > 0,
        "garbage must be counted, not crash"
    );
    assert!(stack.poll_event().is_none(), "garbage produces no event");
    // The stack still works afterwards.
    let mut peer = IsodeStack::new(Box::new(wire_a));
    peer.p_connect_request(mcam_contexts(), vec![]).unwrap();
    settle(&mut peer, &mut stack);
    assert!(matches!(
        stack.poll_event(),
        Some(IsodeEvent::ConnectInd { .. })
    ));
}

#[test]
fn counters_track_data_volume() {
    let (mut a, mut b) = pair();
    connect(&mut a, &mut b);
    let ctx = a.accepted_contexts[0];
    for i in 0..10u8 {
        a.p_data_request(ctx, vec![i]).unwrap();
    }
    settle(&mut a, &mut b);
    let mut got = 0;
    while let Some(ev) = b.poll_event() {
        if matches!(ev, IsodeEvent::DataInd { .. }) {
            got += 1;
        }
    }
    assert_eq!(got, 10);
    assert_eq!(a.data_sent, 10);
    assert_eq!(b.data_received, 10);
}

#[test]
fn open_transfer_release_on_every_backend() {
    let net = Arc::new(Network::new(3));
    let settle = settle_on(&net);
    for (mut a, mut b) in backend_pairs(&net) {
        connect_over(&mut a, &mut b, &settle);
        let ctx = a.accepted_contexts[0];
        a.p_data_request(ctx, b"request".to_vec()).unwrap();
        settle(&mut a, &mut b);
        let request = IsodeEvent::DataInd {
            context_id: ctx,
            user_data: b"request".to_vec(),
        };
        assert_eq!(b.poll_event(), Some(request));
        a.p_release_request().unwrap();
        settle(&mut a, &mut b);
        assert_eq!(b.poll_event(), Some(IsodeEvent::ReleaseInd));
        b.p_release_response().unwrap();
        settle(&mut a, &mut b);
        assert_eq!(a.poll_event(), Some(IsodeEvent::ReleaseCnf));
        assert!(!a.is_connected() && !b.is_connected());
    }
}

#[test]
fn empty_and_large_user_data_preserved_on_every_backend() {
    let net = Arc::new(Network::new(3));
    let settle = settle_on(&net);
    for (mut a, mut b) in backend_pairs(&net) {
        connect_over(&mut a, &mut b, &settle);
        let ctx = a.accepted_contexts[0];
        for n in [0, 1, 5000] {
            a.p_data_request(ctx, vec![0xA5; n]).unwrap();
        }
        settle(&mut a, &mut b);
        for n in [0, 1, 5000] {
            let data = IsodeEvent::DataInd {
                context_id: ctx,
                user_data: vec![0xA5; n],
            };
            assert_eq!(b.poll_event(), Some(data), "{n} octets");
        }
        assert_eq!(b.poll_event(), None);
    }
}

/// Over the threaded backend the responder runs on its own OS thread:
/// it accepts and echoes every P-DATA, and the echoes return in order.
#[test]
fn association_across_real_threads() {
    let (ma, mb) = ThreadedBackend::new().connect();
    let responder = std::thread::spawn(move || {
        let mut b = IsodeStack::new(mb);
        let mut echoed = 0;
        while echoed < 20 {
            b.pump();
            match b.poll_event() {
                Some(IsodeEvent::ConnectInd { .. }) => b.p_connect_response(true, vec![]).unwrap(),
                Some(IsodeEvent::DataInd {
                    context_id,
                    user_data,
                }) => {
                    b.p_data_request(context_id, user_data).unwrap();
                    echoed += 1;
                }
                other => assert!(other.is_none(), "unexpected {other:?}"),
            }
        }
    });
    let mut a = IsodeStack::new(ma);
    a.p_connect_request(mcam_contexts(), vec![]).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut echoes = Vec::new();
    while echoes.len() < 20 {
        assert!(
            std::time::Instant::now() < deadline,
            "echoes so far: {echoes:?}"
        );
        a.pump();
        match a.poll_event() {
            Some(IsodeEvent::ConnectCnf { accepted: true, .. }) => {
                for i in 0..20u8 {
                    a.p_data_request(a.accepted_contexts[0], vec![i]).unwrap();
                }
            }
            Some(IsodeEvent::DataInd { user_data, .. }) => echoes.extend(user_data),
            other => assert!(other.is_none(), "unexpected {other:?}"),
        }
        std::thread::yield_now();
    }
    responder.join().unwrap();
    assert_eq!(echoes, (0..20).collect::<Vec<u8>>());
}
