//! Wire-hostile input against `Tpdu::decode` and
//! `Tpdu::decode_dt_view`: every truncation and single-bit flip of
//! every golden line is an `Err` or a TPDU that encodes and decodes
//! back to itself, and the borrowed DT view agrees with the owned
//! decoder on every one of them — never a panic, never a read past
//! the buffer (an out-of-bounds read is a panic in the
//! overflow-checked test profile).

use transport::{DtView, Tpdu};

#[path = "../../asn1/tests/hostile/mod.rs"]
mod hostile;

/// One line per TPDU, in the order of [`samples`].
const GOLDEN: &str = include_str!("golden_tpdus.txt");

fn samples() -> Vec<Tpdu> {
    vec![
        Tpdu::Cr { src_ref: 5 },
        Tpdu::Cc {
            dst_ref: 5,
            src_ref: 9,
        },
        Tpdu::Dr {
            dst_ref: 9,
            reason: 2,
        },
        Tpdu::Dc { dst_ref: 9 },
        Tpdu::Dt {
            dst_ref: 9,
            seq: 1234,
            eot: true,
            payload: vec![1, 2, 3],
        },
        Tpdu::Er {
            dst_ref: 9,
            cause: 7,
        },
    ]
}

/// The fixed header of the TPDU whose code is `code`: the code, the
/// references and the one-octet fields; only DT carries more.
fn header_len(code: u8) -> usize {
    match code {
        0xE0 | 0xC0 => 3,
        0x80 | 0x70 => 4,
        0xD0 => 5,
        0xF0 => 8,
        _ => unreachable!("golden lines carry known codes"),
    }
}

/// Decodes hostile bytes both ways. Whatever parses must be a TPDU in
/// good standing (it encodes, and decodes back to itself), and the DT
/// view must say what the owned decoder says.
fn parses(bytes: &[u8]) -> bool {
    let view = Tpdu::decode_dt_view(bytes);
    match Tpdu::decode(bytes) {
        Ok(tpdu) => {
            assert_eq!(Tpdu::decode(&tpdu.encode()).as_ref(), Ok(&tpdu));
            let expected = match &tpdu {
                Tpdu::Dt {
                    dst_ref,
                    seq,
                    eot,
                    payload,
                } => Some(DtView {
                    dst_ref: *dst_ref,
                    seq: *seq,
                    eot: *eot,
                    payload,
                }),
                _ => None,
            };
            assert_eq!(view, Ok(expected), "{bytes:02x?}");
            true
        }
        Err(_) => {
            // A broken DT is broken both ways; to the view, anything
            // else is simply not a DT.
            let dt = bytes.first() == Some(&0xF0);
            assert!(
                matches!((dt, view), (true, Err(_)) | (false, Ok(None))),
                "{bytes:02x?}"
            );
            false
        }
    }
}

#[test]
fn golden_lines_are_what_the_encoder_writes() {
    let lines: Vec<Vec<u8>> = hostile::lines(GOLDEN).collect();
    let samples = samples();
    assert_eq!(lines.len(), samples.len(), "one golden line per sample");
    for (tpdu, line) in samples.iter().zip(lines) {
        assert_eq!(tpdu.encode(), line, "{tpdu:?}");
        assert_eq!(Tpdu::decode(&line).as_ref(), Ok(tpdu));
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
fn every_bit_flip_is_an_error_or_a_tpdu() {
    let mut parsed = 0;
    hostile::bit_flips(GOLDEN, |mutated| parsed += usize::from(parses(mutated)));
    assert!(parsed > 0, "flips inside references still parse");
}
