//! BER primitive encoding: lengths, TLV reader/writer.

use crate::error::{Asn1Error, Result};
use crate::tag::Tag;

/// Maximum nesting depth accepted by the decoder (defence against
/// hostile input).
pub const MAX_DEPTH: usize = 32;

/// Encodes a definite length (short or long form) into `out`.
pub(crate) fn encode_length(len: usize, out: &mut Vec<u8>) {
    if len < 128 {
        out.push(len as u8);
    } else {
        let bytes = len.to_be_bytes();
        let skip = bytes.iter().take_while(|&&b| b == 0).count();
        let sig = &bytes[skip..];
        out.push(0x80 | sig.len() as u8);
        out.extend_from_slice(sig);
    }
}

/// Writes one complete TLV with the given tag and content.
pub fn encode_tlv(tag: Tag, content: &[u8], out: &mut Vec<u8>) {
    tag.encode_into(out);
    encode_length(content.len(), out);
    out.extend_from_slice(content);
}

/// A cursor over BER input.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader {
            data,
            pos: 0,
            depth: 0,
        }
    }

    /// Current byte offset.
    pub(crate) fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when all input is consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails unless the reader is fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`Asn1Error::TrailingBytes`] if bytes remain.
    pub fn expect_end(&self) -> Result<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(Asn1Error::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    /// Peeks at the next tag without consuming it.
    ///
    /// # Errors
    ///
    /// Returns [`Asn1Error::UnexpectedEnd`] on truncated input.
    pub fn peek_tag(&self) -> Result<Tag> {
        Tag::decode(&self.data[self.pos..])
            .map(|(t, _)| t)
            .ok_or(Asn1Error::UnexpectedEnd { offset: self.pos })
    }

    fn read_length(&mut self) -> Result<usize> {
        let offset = self.pos;
        let first = *self
            .data
            .get(self.pos)
            .ok_or(Asn1Error::UnexpectedEnd { offset })?;
        self.pos += 1;
        if first < 0x80 {
            return Ok(first as usize);
        }
        let n = (first & 0x7f) as usize;
        if n == 0 || n > 8 {
            // Indefinite lengths are not produced by our encoder and
            // are rejected, as are absurd lengths.
            return Err(Asn1Error::BadLength { offset });
        }
        let mut len: usize = 0;
        for _ in 0..n {
            let b = *self
                .data
                .get(self.pos)
                .ok_or(Asn1Error::UnexpectedEnd { offset: self.pos })?;
            self.pos += 1;
            len = len.checked_shl(8).ok_or(Asn1Error::BadLength { offset })? | b as usize;
        }
        Ok(len)
    }

    /// Reads the next TLV, returning its tag and content bytes.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation or malformed length.
    pub fn read_tlv(&mut self) -> Result<(Tag, &'a [u8])> {
        let offset = self.pos;
        let (tag, used) =
            Tag::decode(&self.data[self.pos..]).ok_or(Asn1Error::UnexpectedEnd { offset })?;
        self.pos += used;
        let len = self.read_length()?;
        let start = self.pos;
        let end = start
            .checked_add(len)
            .filter(|&e| e <= self.data.len())
            .ok_or(Asn1Error::UnexpectedEnd { offset: start })?;
        self.pos = end;
        Ok((tag, &self.data[start..end]))
    }

    /// Reads a TLV and checks its tag.
    ///
    /// # Errors
    ///
    /// Returns [`Asn1Error::TagMismatch`] when the tag differs.
    pub(crate) fn read_expect(&mut self, expected: Tag) -> Result<&'a [u8]> {
        let offset = self.pos;
        let (tag, content) = self.read_tlv()?;
        if tag != expected {
            return Err(Asn1Error::TagMismatch {
                expected: expected.to_string(),
                found: tag.to_string(),
                offset,
            });
        }
        Ok(content)
    }

    /// Descends into constructed content, returning a sub-reader.
    ///
    /// # Errors
    ///
    /// Returns [`Asn1Error::LimitExceeded`] beyond [`MAX_DEPTH`].
    pub fn descend(&self, content: &'a [u8]) -> Result<Reader<'a>> {
        if self.depth + 1 > MAX_DEPTH {
            return Err(Asn1Error::LimitExceeded("nesting depth"));
        }
        Ok(Reader {
            data: content,
            pos: 0,
            depth: self.depth + 1,
        })
    }
}

// --- primitive content codecs -----------------------------------------

/// Minimal two's-complement content octets of `v`: the big-endian
/// bytes and the index the significant suffix starts at.
fn integer_content(v: i64) -> ([u8; 8], usize) {
    let bytes = v.to_be_bytes();
    // Strip redundant leading bytes while preserving the sign bit.
    let mut start = 0;
    while start < 7 {
        let b = bytes[start];
        let next = bytes[start + 1];
        let redundant = (b == 0x00 && next & 0x80 == 0) || (b == 0xff && next & 0x80 != 0);
        if redundant {
            start += 1;
        } else {
            break;
        }
    }
    (bytes, start)
}

/// Decodes INTEGER content octets.
///
/// # Errors
///
/// Returns [`Asn1Error::BadContent`] for empty or oversized content.
pub(crate) fn decode_integer_content(content: &[u8], offset: usize) -> Result<i64> {
    if content.is_empty() || content.len() > 8 {
        return Err(Asn1Error::BadContent {
            what: "INTEGER",
            offset,
        });
    }
    let negative = content[0] & 0x80 != 0;
    let mut v: i64 = if negative { -1 } else { 0 };
    for &b in content {
        v = (v << 8) | i64::from(b);
    }
    Ok(v)
}

/// Writes a complete INTEGER TLV.
pub fn write_integer(v: i64, out: &mut Vec<u8>) {
    let (bytes, start) = integer_content(v);
    encode_tlv(Tag::INTEGER, &bytes[start..], out);
}

/// Writes a complete BOOLEAN TLV.
pub(crate) fn write_bool(v: bool, out: &mut Vec<u8>) {
    encode_tlv(Tag::BOOLEAN, &[if v { 0xff } else { 0x00 }], out);
}

/// Writes a complete UTF8String TLV.
pub fn write_string(s: &str, out: &mut Vec<u8>) {
    encode_tlv(Tag::UTF8_STRING, s.as_bytes(), out);
}

/// Writes a complete OCTET STRING TLV.
pub(crate) fn write_octets(bytes: &[u8], out: &mut Vec<u8>) {
    encode_tlv(Tag::OCTET_STRING, bytes, out);
}

/// Writes a complete NULL TLV.
pub(crate) fn write_null(out: &mut Vec<u8>) {
    encode_tlv(Tag::NULL, &[], out);
}

/// Writes a complete ENUMERATED TLV.
pub(crate) fn write_enumerated(v: i64, out: &mut Vec<u8>) {
    let (bytes, start) = integer_content(v);
    encode_tlv(Tag::ENUMERATED, &bytes[start..], out);
}

/// Reads an INTEGER TLV.
///
/// # Errors
///
/// Propagates tag/length/content errors.
pub fn read_integer(r: &mut Reader<'_>) -> Result<i64> {
    let offset = r.offset();
    let content = r.read_expect(Tag::INTEGER)?;
    decode_integer_content(content, offset)
}

/// Reads a BOOLEAN TLV.
///
/// # Errors
///
/// Propagates tag errors; rejects content that is not exactly 1 byte.
pub fn read_bool(r: &mut Reader<'_>) -> Result<bool> {
    let offset = r.offset();
    let content = r.read_expect(Tag::BOOLEAN)?;
    if content.len() != 1 {
        return Err(Asn1Error::BadContent {
            what: "BOOLEAN",
            offset,
        });
    }
    Ok(content[0] != 0)
}

/// Reads a UTF8String TLV.
///
/// # Errors
///
/// Rejects invalid UTF-8.
pub fn read_string(r: &mut Reader<'_>) -> Result<String> {
    let offset = r.offset();
    let content = r.read_expect(Tag::UTF8_STRING)?;
    String::from_utf8(content.to_vec()).map_err(|_| Asn1Error::BadContent {
        what: "UTF8String",
        offset,
    })
}

/// Reads an OCTET STRING TLV.
///
/// # Errors
///
/// Propagates tag errors.
pub(crate) fn read_octets(r: &mut Reader<'_>) -> Result<Vec<u8>> {
    Ok(r.read_expect(Tag::OCTET_STRING)?.to_vec())
}

/// Reads a NULL TLV.
///
/// # Errors
///
/// Rejects non-empty content.
pub(crate) fn read_null(r: &mut Reader<'_>) -> Result<()> {
    let offset = r.offset();
    let content = r.read_expect(Tag::NULL)?;
    if !content.is_empty() {
        return Err(Asn1Error::BadContent {
            what: "NULL",
            offset,
        });
    }
    Ok(())
}

/// Reads an ENUMERATED TLV.
///
/// # Errors
///
/// Propagates tag/content errors.
pub(crate) fn read_enumerated(r: &mut Reader<'_>) -> Result<i64> {
    let offset = r.offset();
    let content = r.read_expect(Tag::ENUMERATED)?;
    decode_integer_content(content, offset)
}

/// Builds a SEQUENCE (or other constructed) TLV from a closure that
/// writes the content.
///
/// The content is written in place directly after a one-byte length
/// placeholder that is patched afterwards (contents ≥ 128 bytes shift
/// right to make room for the long-form length) — no per-node scratch
/// `Vec`, and the emitted bytes are identical to a two-pass encode.
pub fn write_constructed(tag: Tag, out: &mut Vec<u8>, f: impl FnOnce(&mut Vec<u8>)) {
    tag.encode_into(out);
    out.push(0); // short-form length placeholder
    let start = out.len();
    f(out);
    let len = out.len() - start;
    if len < 128 {
        out[start - 1] = len as u8;
    } else {
        let bytes = len.to_be_bytes();
        let skip = bytes.iter().take_while(|&&b| b == 0).count();
        let extra = bytes.len() - skip;
        out.resize(start + len + extra, 0);
        out.copy_within(start..start + len, start + extra);
        out[start - 1] = 0x80 | extra as u8;
        out[start..start + extra].copy_from_slice(&bytes[skip..]);
    }
}

/// Reads one constructed TLV tagged `tag`: `f` reads the content
/// through a sub-reader one level down and must consume all of it.
///
/// # Errors
///
/// Propagates tag, length, depth and `f`'s errors, and returns
/// [`Asn1Error::TrailingBytes`] if `f` leaves content unread.
pub fn read_constructed<'a, T>(
    tag: Tag,
    r: &mut Reader<'a>,
    f: impl FnOnce(&mut Reader<'a>) -> Result<T>,
) -> Result<T> {
    let content = r.read_expect(tag)?;
    let mut inner = r.descend(content)?;
    let value = f(&mut inner)?;
    inner.expect_end()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_forms() {
        let mut out = Vec::new();
        encode_length(5, &mut out);
        assert_eq!(out, [0x05]);
        out.clear();
        encode_length(127, &mut out);
        assert_eq!(out, [0x7f]);
        out.clear();
        encode_length(128, &mut out);
        assert_eq!(out, [0x81, 0x80]);
        out.clear();
        encode_length(300, &mut out);
        assert_eq!(out, [0x82, 0x01, 0x2c]);
    }

    #[test]
    fn integer_roundtrip_edges() {
        for v in [
            0i64,
            1,
            -1,
            127,
            128,
            -128,
            -129,
            255,
            256,
            i64::MAX,
            i64::MIN,
        ] {
            let mut out = Vec::new();
            write_integer(v, &mut out);
            let mut r = Reader::new(&out);
            assert_eq!(read_integer(&mut r).unwrap(), v, "value {v}");
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn minimal_integer_encodings() {
        let mut out = Vec::new();
        write_integer(0, &mut out);
        assert_eq!(out, [0x02, 0x01, 0x00]);
        out.clear();
        write_integer(127, &mut out);
        assert_eq!(out, [0x02, 0x01, 0x7f]);
        out.clear();
        write_integer(128, &mut out);
        assert_eq!(out, [0x02, 0x02, 0x00, 0x80]);
        out.clear();
        write_integer(-1, &mut out);
        assert_eq!(out, [0x02, 0x01, 0xff]);
    }

    #[test]
    fn string_bool_null_roundtrip() {
        let mut out = Vec::new();
        write_bool(true, &mut out);
        write_string("xmovie", &mut out);
        write_null(&mut out);
        write_octets(&[1, 2, 3], &mut out);
        let mut r = Reader::new(&out);
        assert!(read_bool(&mut r).unwrap());
        assert_eq!(read_string(&mut r).unwrap(), "xmovie");
        read_null(&mut r).unwrap();
        assert_eq!(read_octets(&mut r).unwrap(), vec![1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn constructed_nesting() {
        let mut out = Vec::new();
        write_constructed(Tag::SEQUENCE, &mut out, |c| {
            write_integer(7, c);
            write_constructed(Tag::SEQUENCE, c, |c2| {
                write_string("inner", c2);
            });
        });
        let mut r = Reader::new(&out);
        let content = r.read_expect(Tag::SEQUENCE).unwrap();
        let mut inner = r.descend(content).unwrap();
        assert_eq!(read_integer(&mut inner).unwrap(), 7);
        let c2 = inner.read_expect(Tag::SEQUENCE).unwrap();
        let mut r2 = inner.descend(c2).unwrap();
        assert_eq!(read_string(&mut r2).unwrap(), "inner");
    }

    #[test]
    fn constructed_backpatch_matches_two_pass() {
        // Short-form, long-form (1 length byte) and long-form (2
        // length bytes) contents must all match a two-pass encode.
        for size in [0usize, 10, 126, 130, 300, 70_000] {
            let payload = vec![0xab; size];
            let mut fast = Vec::new();
            write_constructed(Tag::SEQUENCE, &mut fast, |c| {
                write_octets(&payload, c);
                write_integer(size as i64, c);
            });
            let mut content = Vec::new();
            write_octets(&payload, &mut content);
            write_integer(size as i64, &mut content);
            let mut slow = Vec::new();
            encode_tlv(Tag::SEQUENCE, &content, &mut slow);
            assert_eq!(fast, slow, "content size {size}");
        }
    }

    #[test]
    fn errors_are_detected() {
        // Truncated TLV.
        let mut r = Reader::new(&[0x02, 0x05, 0x01]);
        assert!(matches!(r.read_tlv(), Err(Asn1Error::UnexpectedEnd { .. })));
        // Tag mismatch.
        let mut out = Vec::new();
        write_bool(false, &mut out);
        let mut r = Reader::new(&out);
        assert!(matches!(
            read_integer(&mut r),
            Err(Asn1Error::TagMismatch { .. })
        ));
        // Indefinite length rejected.
        let mut r = Reader::new(&[0x30, 0x80, 0x00, 0x00]);
        assert!(matches!(r.read_tlv(), Err(Asn1Error::BadLength { .. })));
        // Trailing bytes.
        let mut out = Vec::new();
        write_null(&mut out);
        out.push(0xaa);
        let mut r = Reader::new(&out);
        read_null(&mut r).unwrap();
        assert!(matches!(
            r.expect_end(),
            Err(Asn1Error::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn depth_limit_enforced() {
        let r = Reader::new(&[]);
        let mut readers = vec![r];
        let empty: &[u8] = &[];
        for i in 0..40 {
            let last = readers.last().unwrap();
            match last.descend(empty) {
                Ok(next) => readers.push(next),
                Err(Asn1Error::LimitExceeded(_)) => {
                    assert!(i >= MAX_DEPTH - 1);
                    return;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        panic!("depth limit never triggered");
    }
}
