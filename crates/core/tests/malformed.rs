//! Wire-hostile input against `McamPdu::decode`: every truncation,
//! single-bit flip and length-octet lie of every golden line is an
//! `Err` or a PDU — never a panic, never a read past the buffer (an
//! out-of-bounds read is a panic in the overflow-checked test profile).

use asn1::{Asn1Error, Value};
use mcam::McamPdu;

#[path = "../../asn1/tests/hostile/mod.rs"]
mod hostile;

const GOLDEN: &str = include_str!("golden_pdus.txt");

/// Decodes hostile bytes. Whatever parses must be a PDU in good
/// standing: it encodes, and decodes back to itself.
fn parses(bytes: &[u8]) -> bool {
    match McamPdu::decode(bytes) {
        Ok(pdu) => {
            assert_eq!(McamPdu::decode(&pdu.encode()).as_ref(), Ok(&pdu));
            true
        }
        Err(_) => false,
    }
}

#[test]
fn every_truncation_is_an_error() {
    for (i, line) in hostile::lines(GOLDEN).enumerate() {
        assert!(parses(&line), "golden line {i}");
        for cut in 0..line.len() {
            assert!(!parses(&line[..cut]), "line {i} cut at {cut} parsed");
        }
    }
}

#[test]
fn every_bit_flip_is_an_error_or_a_pdu() {
    let mut parsed = 0;
    hostile::bit_flips(GOLDEN, |mutated| parsed += usize::from(parses(mutated)));
    assert!(parsed > 0, "flips inside string content still parse");
}

#[test]
fn every_length_lie_is_an_error_or_a_pdu() {
    let mut parsed = 0;
    hostile::length_lies(GOLDEN, |mutated| parsed += usize::from(parses(mutated)));
    assert!(parsed > 0, "a non-minimal long form still parses");
}

#[test]
fn attribute_nested_past_max_depth_is_limit_exceeded() {
    let nest = |depth| (0..depth).fold(Value::Null, |inner, _| Value::Seq(vec![inner]));
    let modify = |value| McamPdu::ModifyAttrsReq {
        title: "X".into(),
        puts: vec![("cast".into(), value)],
    };
    // PDU, attribute list and attribute take three levels of the budget.
    let deepest = asn1::ber::MAX_DEPTH - 3;
    let ok = modify(nest(deepest));
    assert_eq!(McamPdu::decode(&ok.encode()), Ok(ok));
    assert_eq!(
        McamPdu::decode(&modify(nest(deepest + 1)).encode()),
        Err(Asn1Error::LimitExceeded("nesting depth"))
    );
    assert!(McamPdu::decode(&modify(nest(10 * asn1::ber::MAX_DEPTH)).encode()).is_err());
}
