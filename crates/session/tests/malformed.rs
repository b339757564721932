//! Wire-hostile input against `Spdu::decode`: every truncation and
//! single-bit flip of every golden line is an `Err` or an SPDU that
//! encodes and decodes back to itself — never a panic, never a read
//! past the buffer (an out-of-bounds read is a panic in the
//! overflow-checked test profile).

use session::{Spdu, VERSION_1, VERSION_2};

#[path = "../../asn1/tests/hostile/mod.rs"]
mod hostile;

/// One line per SPDU, in the order of [`samples`].
const GOLDEN: &str = include_str!("golden_spdus.txt");

fn samples() -> Vec<Spdu> {
    vec![
        Spdu::Cn {
            versions: VERSION_1 | VERSION_2,
            user_data: vec![1, 2],
        },
        Spdu::Ac {
            version: VERSION_2,
            user_data: b"ok".to_vec(),
        },
        Spdu::Rf {
            reason: 1,
            user_data: b"referral".to_vec(),
        },
        Spdu::Dt {
            user_data: b"payload".to_vec(),
        },
        Spdu::Fn { user_data: vec![] },
        Spdu::Dn { user_data: vec![9] },
        Spdu::Ab { reason: 1 },
    ]
}

/// The fixed header of the SPDU whose SI is `si`: the SI, plus the
/// version or reason octet where the SPDU has one.
fn header_len(si: u8) -> usize {
    match si {
        1 | 9 | 10 => 1,
        _ => 2,
    }
}

/// Decodes hostile bytes. Whatever parses must be an SPDU in good
/// standing: it encodes, and decodes back to itself.
fn parses(bytes: &[u8]) -> bool {
    match Spdu::decode(bytes) {
        Ok(spdu) => {
            assert_eq!(Spdu::decode(&spdu.encode()).as_ref(), Ok(&spdu));
            true
        }
        Err(_) => false,
    }
}

#[test]
fn golden_lines_are_what_the_encoder_writes() {
    let lines: Vec<Vec<u8>> = hostile::lines(GOLDEN).collect();
    let samples = samples();
    assert_eq!(lines.len(), samples.len(), "one golden line per sample");
    for (spdu, line) in samples.iter().zip(lines) {
        assert_eq!(spdu.encode(), line, "{spdu:?}");
        assert_eq!(Spdu::decode(&line).as_ref(), Ok(spdu));
    }
}

#[test]
fn a_cut_inside_the_header_is_an_error() {
    for (i, line) in hostile::lines(GOLDEN).enumerate() {
        let header = header_len(line[0]);
        for cut in 0..line.len() {
            assert_eq!(parses(&line[..cut]), cut >= header, "line {i} cut at {cut}");
        }
    }
}

#[test]
fn every_bit_flip_is_an_error_or_an_spdu() {
    let mut parsed = 0;
    hostile::bit_flips(GOLDEN, |mutated| parsed += usize::from(parses(mutated)));
    assert!(parsed > 0, "flips inside user data still parse");
}
