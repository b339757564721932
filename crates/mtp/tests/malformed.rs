//! Wire-hostile input against `MtpPacket::decode_view` and
//! `MtpFeedback::decode`: every truncation and single-bit flip of
//! every golden line, fed to both decoders (a receiver cannot choose
//! what arrives), is an `Err` or a packet that encodes and decodes
//! back to itself — never a panic, never a read past the buffer (an
//! out-of-bounds read is a panic in the overflow-checked test
//! profile).

use mtp::{FrameKind, MtpFeedback, MtpPacket, MTP_HEADER_LEN, TYPE_DATA, TYPE_FEEDBACK};

#[path = "../../asn1/tests/hostile/mod.rs"]
mod hostile;

/// One line per frame kind and one feedback report, in the order of
/// [`samples`].
const GOLDEN: &str = include_str!("golden_packets.txt");

/// Feedback reports have no payload: the whole packet is header.
const FEEDBACK_LEN: usize = 25;

fn samples() -> Vec<Vec<u8>> {
    let data = |stream_id, seq, timestamp_us, kind, end_of_stream, payload| MtpPacket {
        stream_id,
        seq,
        timestamp_us,
        kind,
        end_of_stream,
        payload,
    };
    vec![
        data(9, 1234, 5_000_000, FrameKind::I, false, vec![1, 2, 3, 4]).encode(),
        data(1, 0, 0, FrameKind::P, true, vec![]).encode(),
        data(7, 42, 1_000_000, FrameKind::B, false, vec![0; 2]).encode(),
        MtpFeedback {
            stream_id: 9,
            highest_seq: 1000,
            received: 950,
            lost: 50,
        }
        .encode(),
    ]
}

/// Decodes hostile bytes as data and as feedback. Whatever parses must
/// be a packet in good standing: it encodes, and decodes back to
/// itself.
fn parses(bytes: &[u8]) -> bool {
    let data = MtpPacket::decode_view(bytes).map(|view| {
        let packet = view.to_owned();
        assert_eq!(MtpPacket::decode(&packet.encode()).as_ref(), Ok(&packet));
    });
    let feedback = MtpFeedback::decode(bytes).map(|report| {
        assert_eq!(MtpFeedback::decode(&report.encode()), Ok(report));
    });
    assert!(data.is_err() || feedback.is_err(), "{bytes:02x?} is both");
    data.is_ok() || feedback.is_ok()
}

#[test]
fn golden_lines_are_what_the_encoders_write() {
    let lines: Vec<Vec<u8>> = hostile::lines(GOLDEN).collect();
    assert_eq!(lines, samples(), "one golden line per sample");
}

#[test]
fn a_cut_inside_the_header_is_an_error() {
    for (i, line) in hostile::lines(GOLDEN).enumerate() {
        let header = match line[0] {
            TYPE_DATA => MTP_HEADER_LEN,
            TYPE_FEEDBACK => FEEDBACK_LEN,
            _ => unreachable!("golden lines carry known tags"),
        };
        for cut in 0..line.len() {
            assert_eq!(parses(&line[..cut]), cut >= header, "line {i} cut at {cut}");
        }
    }
}

#[test]
fn every_bit_flip_is_an_error_or_a_packet() {
    let mut parsed = 0;
    hostile::bit_flips(GOLDEN, |mutated| parsed += usize::from(parses(mutated)));
    assert!(parsed > 0, "flips inside ids and counters still parse");
}
