//! Hostile mutations of golden wire lines, shared by the `malformed.rs`
//! suites of every crate with a hand-written or generated decoder
//! (they include this file by `#[path]`). `lines` and `bit_flips` fit
//! any format; `length_lies` rewrites BER length octets, so only the
//! BER suites (`asn1` and the `asn1::choice!` tables) call it. The
//! generators only build the mutated buffers; what a decoder must do
//! with one is the caller's assertion.

/// The golden file's lines (hex, one PDU each) as bytes.
pub fn lines(golden: &str) -> impl Iterator<Item = Vec<u8>> + '_ {
    golden.lines().map(|line| {
        (0..line.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&line[i..i + 2], 16).expect("golden lines are hex"))
            .collect()
    })
}

/// Calls `f` with every single-bit flip of every golden line.
pub fn bit_flips(golden: &str, mut f: impl FnMut(&[u8])) {
    for mut line in lines(golden) {
        for at in 0..line.len() {
            for bit in 0..8 {
                line[at] ^= 1 << bit;
                f(&line);
                line[at] ^= 1 << bit;
            }
        }
    }
}

/// Offsets of the length octets of every TLV in `data`, nested ones
/// included. Golden lines are well-formed and use low tag numbers
/// only, so a tag is one octet and its length follows it.
fn length_offsets(data: &[u8], base: usize, out: &mut Vec<usize>) {
    let mut pos = 0;
    while pos < data.len() {
        let constructed = data[pos] & 0x20 != 0;
        out.push(base + pos + 1);
        let first = data[pos + 1] as usize;
        let (len, start) = if first < 0x80 {
            (first, pos + 2)
        } else {
            let n = first & 0x7f;
            let len = data[pos + 2..pos + 2 + n]
                .iter()
                .fold(0, |len, &b| len << 8 | b as usize);
            (len, pos + 2 + n)
        };
        if constructed {
            length_offsets(&data[start..start + len], base + start, out);
        }
        pos = start + len;
    }
}

/// Calls `f` with every golden line once per length octet per lie:
/// the first length octet of a TLV replaced by a length that is too
/// short, too long, zero, indefinite, non-minimal, wider than `usize`,
/// or cut off.
#[allow(dead_code)] // unused by the fixed-header suites
pub fn length_lies(golden: &str, mut f: impl FnMut(&[u8])) {
    for line in lines(golden) {
        let mut offsets = Vec::new();
        length_offsets(&line, 0, &mut offsets);
        for at in offsets {
            let honest = line[at];
            let lies: [&[u8]; 12] = [
                &[0x00],
                &[honest.wrapping_sub(1) & 0x7f],
                &[honest.wrapping_add(1) & 0x7f],
                &[0x7f],
                &[0x80],
                &[0x81, honest],
                &[0x82, 0xff, 0xff],
                &[0x84, 0xff, 0xff, 0xff, 0xff],
                &[0x88, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff],
                &[0x89, 0x01, 0, 0, 0, 0, 0, 0, 0, 0],
                &[0x88, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff],
                &[0xff],
            ];
            for lie in lies {
                let mut mutated = line[..at].to_vec();
                mutated.extend_from_slice(lie);
                mutated.extend_from_slice(&line[at + 1..]);
                f(&mutated);
            }
        }
    }
}
