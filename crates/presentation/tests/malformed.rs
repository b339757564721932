//! Wire-hostile input against `Ppdu::decode`: every truncation,
//! single-bit flip and length-octet lie of every golden line is an
//! `Err` or a PPDU — never a panic, never a read past the buffer (an
//! out-of-bounds read is a panic in the overflow-checked test profile).

use presentation::Ppdu;

#[path = "../../asn1/tests/hostile/mod.rs"]
mod hostile;

const GOLDEN: &str = include_str!("golden_ppdus.txt");

/// Decodes hostile bytes. Whatever parses must be a PPDU in good
/// standing: it encodes, and decodes back to itself.
fn parses(bytes: &[u8]) -> bool {
    match Ppdu::decode(bytes) {
        Ok(ppdu) => {
            assert_eq!(Ppdu::decode(&ppdu.encode()).as_ref(), Ok(&ppdu));
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
fn every_bit_flip_is_an_error_or_a_ppdu() {
    let mut parsed = 0;
    hostile::bit_flips(GOLDEN, |mutated| parsed += usize::from(parses(mutated)));
    assert!(parsed > 0, "flips inside user data still parse");
}

#[test]
fn every_length_lie_is_an_error_or_a_ppdu() {
    let mut parsed = 0;
    hostile::length_lies(GOLDEN, |mutated| parsed += usize::from(parses(mutated)));
    assert!(parsed > 0, "a non-minimal long form still parses");
}
