//! Property tests: TPDU roundtrip, the zero-copy DT path and decoder
//! robustness.

use proptest::prelude::*;
use transport::{encode_dt_into, Tpdu};

/// Up to `max` arbitrary octets.
fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max)
}

fn tpdu_strategy() -> impl Strategy<Value = Tpdu> {
    prop_oneof![
        any::<u16>().prop_map(|src_ref| Tpdu::Cr { src_ref }),
        (any::<u16>(), any::<u16>()).prop_map(|(dst_ref, src_ref)| Tpdu::Cc { dst_ref, src_ref }),
        (any::<u16>(), any::<u8>()).prop_map(|(dst_ref, reason)| Tpdu::Dr { dst_ref, reason }),
        any::<u16>().prop_map(|dst_ref| Tpdu::Dc { dst_ref }),
        (any::<u16>(), any::<u32>(), any::<bool>(), bytes(64)).prop_map(
            |(dst_ref, seq, eot, payload)| Tpdu::Dt {
                dst_ref,
                seq,
                eot,
                payload
            }
        ),
        (any::<u16>(), any::<u8>()).prop_map(|(dst_ref, cause)| Tpdu::Er { dst_ref, cause }),
    ]
}

proptest! {
    #[test]
    fn tpdus_roundtrip(t in tpdu_strategy()) {
        prop_assert_eq!(Tpdu::decode(&t.encode()).unwrap(), t);
    }

    #[test]
    fn decoder_never_panics(wire in bytes(64)) {
        let _ = Tpdu::decode(&wire);
    }

    /// `encode_into` writes what `encode` returns, whatever the buffer
    /// held before.
    #[test]
    fn encode_into_clears_a_used_buffer(t in tpdu_strategy(), stale in bytes(16)) {
        let mut out = stale;
        t.encode_into(&mut out);
        prop_assert_eq!(out, t.encode());
    }

    /// The borrowed-payload DT encoder is byte-identical to the owned one.
    #[test]
    fn encode_dt_into_matches_the_owned_dt(
        (dst_ref, seq, eot) in (any::<u16>(), any::<u32>(), any::<bool>()),
        payload in bytes(64),
        stale in bytes(16),
    ) {
        let mut out = stale;
        encode_dt_into(dst_ref, seq, eot, &payload, &mut out);
        prop_assert_eq!(out, Tpdu::Dt { dst_ref, seq, eot, payload }.encode());
    }

    /// The DT view reads every header field and borrows the payload
    /// where it lies, right after the 8-octet header.
    #[test]
    fn dt_view_borrows_the_payload_in_place(seq in any::<u32>(), payload in bytes(64)) {
        let mut wire = Vec::new();
        encode_dt_into(7, seq, true, &payload, &mut wire);
        let view = Tpdu::decode_dt_view(&wire).unwrap().expect("a DT");
        prop_assert_eq!((view.dst_ref, view.seq, view.eot), (7, seq, true));
        prop_assert_eq!(view.payload, &payload[..]);
        prop_assert_eq!(view.payload.as_ptr(), wire[8..].as_ptr());
    }

    /// Only a DT has a DT view; every control TPDU answers `None`.
    #[test]
    fn only_dt_is_a_dt_view(t in tpdu_strategy()) {
        let is_view = Tpdu::decode_dt_view(&t.encode()).unwrap().is_some();
        prop_assert_eq!(is_view, matches!(t, Tpdu::Dt { .. }));
    }

    /// A first octet that is none of the six codes is an error, and
    /// not a DT view.
    #[test]
    fn unknown_codes_are_rejected(
        code in any::<u8>().prop_filter("a known code", |c| {
            ![0xE0, 0xD0, 0x80, 0xC0, 0xF0, 0x70].contains(c)
        }),
        tail in bytes(16),
    ) {
        let wire = [vec![code], tail].concat();
        prop_assert!(Tpdu::decode(&wire).is_err());
        prop_assert_eq!(Tpdu::decode_dt_view(&wire), Ok(None));
    }

    /// The medium's record boundary ends a DT: octets appended to one
    /// are more payload, not a second TPDU or an error.
    #[test]
    fn a_dt_payload_runs_to_the_end_of_the_record(payload in bytes(32), more in bytes(32)) {
        let dt = |payload| Tpdu::Dt { dst_ref: 9, seq: 1, eot: false, payload };
        let wire = [dt(payload.clone()).encode(), more.clone()].concat();
        prop_assert_eq!(Tpdu::decode(&wire), Ok(dt([payload, more].concat())));
    }

    /// Any non-zero EOT octet ends a TSDU; re-encoding writes it as 1.
    #[test]
    fn any_nonzero_eot_octet_ends_a_tsdu(eot in 1u8..=255) {
        let t = Tpdu::decode(&[0xF0, 0, 9, 0, 0, 0, 1, eot, 0xAB]).unwrap();
        prop_assert_eq!(&t, &Tpdu::Dt { dst_ref: 9, seq: 1, eot: true, payload: vec![0xAB] });
        prop_assert_eq!(t.encode()[7], 1);
    }
}
