//! Property tests: MTP packet roundtrip, movie-source invariants,
//! stream conservation under loss.

use mtp::{FrameKind, MovieSource, MtpFeedback, MtpPacket, MtpReceiver, MtpSender};
use netsim::{DatagramNet, LinkConfig, NetAddr, Network, SimDuration};
use proptest::prelude::*;
use std::sync::Arc;

fn packet_strategy() -> impl Strategy<Value = MtpPacket> {
    let kind = prop_oneof![Just(FrameKind::I), Just(FrameKind::P), Just(FrameKind::B)];
    (
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        kind,
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(
            |(stream_id, seq, timestamp_us, kind, end_of_stream, payload)| MtpPacket {
                stream_id,
                seq,
                timestamp_us,
                kind,
                end_of_stream,
                payload,
            },
        )
}

proptest! {
    #[test]
    fn packets_roundtrip(p in packet_strategy()) {
        prop_assert_eq!(MtpPacket::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = MtpPacket::decode(&bytes);
    }

    #[test]
    fn movie_sources_are_deterministic_and_bounded(
        seconds in 1u64..20,
        seed in any::<u64>(),
    ) {
        let m = MovieSource::test_movie(seconds, seed);
        let frames: Vec<_> = m.frames().collect();
        prop_assert_eq!(frames.len() as u64, m.frame_count);
        for f in &frames {
            prop_assert!(f.size >= 64);
            prop_assert!(f.size <= m.i_size * 2);
        }
        // I frames exactly every gop.
        prop_assert!(frames.iter().all(|f| (f.kind == FrameKind::I) == (f.index % m.gop == 0)));
    }

    #[test]
    fn received_plus_lost_equals_sent(
        loss_pct in 0u32..50,
        // Up to three 40 ms frame gaps: packets overtake each other.
        jitter_us in 200u64..120_000,
        seed in 0u64..1000,
    ) {
        let net = Arc::new(Network::new(seed));
        let cfg = LinkConfig::lossy(
            SimDuration::from_millis(1),
            SimDuration::from_micros(jitter_us),
            f64::from(loss_pct) / 100.0,
        );
        let dg = DatagramNet::new(&net, cfg, seed.wrapping_add(3));
        let s = dg.bind(NetAddr(1)).unwrap();
        let r = dg.bind(NetAddr(2)).unwrap();
        let movie = MovieSource::test_movie(2, seed); // 50 frames
        let mut sender = MtpSender::new(s, NetAddr(2), 1, movie);
        let mut receiver = MtpReceiver::new(r, 1, SimDuration::from_millis(50));
        sender.play(net.now());
        let mut guard = 0;
        loop {
            guard += 1;
            prop_assert!(guard < 10_000);
            let now = net.now();
            sender.poll(now);
            match (net.next_event_at(), sender.next_due()) {
                (Some(a), Some(b)) => net.run_until(a.min(b)),
                (Some(a), None) => net.run_until(a),
                (None, Some(b)) => net.run_until(b),
                (None, None) => break,
            }
            receiver.poll(net.now());
        }
        receiver.poll(net.now() + SimDuration::from_secs(1));
        // Conservation: every data packet the sender emitted is either
        // received or inferred lost via sequence gaps; only a trailing
        // run of losses can go undetected, and the end-of-stream
        // marker closes even that when it arrives.
        let sent = sender.stats.frames_sent;
        let seen = receiver.stats.received + receiver.stats.lost;
        prop_assert!(seen <= sent);
        if receiver.ended {
            prop_assert_eq!(seen, sent, "EOS closes the ledger exactly");
        }
    }
}

proptest! {
    /// Feedback reports roundtrip through their wire encoding.
    #[test]
    fn feedback_roundtrips(
        stream_id in any::<u32>(),
        highest_seq in any::<u32>(),
        received in any::<u64>(),
        lost in any::<u64>(),
    ) {
        let fb = MtpFeedback { stream_id, highest_seq, received, lost };
        let wire = fb.encode();
        prop_assert_eq!(MtpFeedback::decode(&wire).unwrap(), fb);
    }

    /// The loss ratio is a fraction for any counter values.
    #[test]
    fn loss_ratio_is_a_fraction(received in any::<u64>(), lost in any::<u64>()) {
        let fb = MtpFeedback { stream_id: 0, highest_seq: 0, received, lost };
        let r = fb.loss_ratio();
        prop_assert!((0.0..=1.0).contains(&r), "ratio {r}");
    }

    /// Truncated feedback never decodes and never panics.
    #[test]
    fn truncated_feedback_rejected(cut in 0usize..20) {
        let fb = MtpFeedback { stream_id: 7, highest_seq: 123, received: 456, lost: 9 };
        let wire = fb.encode();
        if cut < wire.len() {
            prop_assert!(MtpFeedback::decode(&wire[..cut]).is_err());
        }
    }
}
