//! BER identifier octets: tag class, constructed bit, tag number.

use std::fmt;

/// The four ASN.1 tag classes (ISO 8824).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TagClass {
    /// Built-in types.
    Universal,
    /// Application-wide types (used by MCAM PDUs).
    Application,
    /// Context-specific tags (CHOICE/SEQUENCE components).
    Context,
    /// Private-use tags.
    Private,
}

impl TagClass {
    fn bits(self) -> u8 {
        match self {
            TagClass::Universal => 0b0000_0000,
            TagClass::Application => 0b0100_0000,
            TagClass::Context => 0b1000_0000,
            TagClass::Private => 0b1100_0000,
        }
    }

    fn from_bits(b: u8) -> TagClass {
        match b & 0b1100_0000 {
            0b0000_0000 => TagClass::Universal,
            0b0100_0000 => TagClass::Application,
            0b1000_0000 => TagClass::Context,
            _ => TagClass::Private,
        }
    }
}

/// A complete BER tag: class, primitive/constructed flag, and number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag {
    /// Tag class.
    pub class: TagClass,
    /// True for constructed encodings (SEQUENCE, SET, explicit tags).
    pub constructed: bool,
    /// Tag number.
    pub number: u32,
}

impl Tag {
    /// UNIVERSAL 1 — BOOLEAN.
    pub const BOOLEAN: Tag = Tag::universal(1);
    /// UNIVERSAL 2 — INTEGER.
    pub const INTEGER: Tag = Tag::universal(2);
    /// UNIVERSAL 4 — OCTET STRING.
    pub const OCTET_STRING: Tag = Tag::universal(4);
    /// UNIVERSAL 5 — NULL.
    pub const NULL: Tag = Tag::universal(5);
    /// UNIVERSAL 6 — OBJECT IDENTIFIER.
    pub const OID: Tag = Tag::universal(6);
    /// UNIVERSAL 10 — ENUMERATED.
    pub const ENUMERATED: Tag = Tag::universal(10);
    /// UNIVERSAL 12 — UTF8String (stand-in for IA5/GraphicString).
    pub const UTF8_STRING: Tag = Tag::universal(12);
    /// UNIVERSAL 16 (constructed) — SEQUENCE / SEQUENCE OF.
    pub const SEQUENCE: Tag = Tag {
        class: TagClass::Universal,
        constructed: true,
        number: 16,
    };

    /// A primitive universal tag with the given number.
    pub const fn universal(number: u32) -> Tag {
        Tag {
            class: TagClass::Universal,
            constructed: false,
            number,
        }
    }

    /// A constructed application tag (MCAM PDU headers).
    pub const fn application(number: u32) -> Tag {
        Tag {
            class: TagClass::Application,
            constructed: true,
            number,
        }
    }

    /// A primitive context tag.
    pub const fn context(number: u32) -> Tag {
        Tag {
            class: TagClass::Context,
            constructed: false,
            number,
        }
    }

    /// Serializes the identifier octets into `out`.
    pub fn encode_into(self, out: &mut Vec<u8>) {
        let mut first = self.class.bits();
        if self.constructed {
            first |= 0b0010_0000;
        }
        if self.number < 31 {
            out.push(first | self.number as u8);
        } else {
            // High tag number form: 0b11111 then base-128 digits,
            // all-but-last with the continuation bit.
            out.push(first | 0b0001_1111);
            let mut digits = [0u8; 5];
            let mut n = self.number;
            let mut i = 0;
            loop {
                digits[i] = (n & 0x7f) as u8;
                n >>= 7;
                i += 1;
                if n == 0 {
                    break;
                }
            }
            for j in (0..i).rev() {
                let cont = if j == 0 { 0 } else { 0x80 };
                out.push(digits[j] | cont);
            }
        }
    }

    /// Parses identifier octets from `data`, returning the tag and the
    /// number of bytes consumed.
    pub fn decode(data: &[u8]) -> Option<(Tag, usize)> {
        let first = *data.first()?;
        let class = TagClass::from_bits(first);
        let constructed = first & 0b0010_0000 != 0;
        let low = first & 0b0001_1111;
        if low < 31 {
            return Some((
                Tag {
                    class,
                    constructed,
                    number: u32::from(low),
                },
                1,
            ));
        }
        let mut number: u32 = 0;
        let mut used = 1;
        for &b in data.get(1..)? {
            used += 1;
            number = number.checked_shl(7)? | u32::from(b & 0x7f);
            if b & 0x80 == 0 {
                return Some((
                    Tag {
                        class,
                        constructed,
                        number,
                    },
                    used,
                ));
            }
            if used > 5 {
                return None;
            }
        }
        None
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self.class {
            TagClass::Universal => "UNIVERSAL",
            TagClass::Application => "APPLICATION",
            TagClass::Context => "CONTEXT",
            TagClass::Private => "PRIVATE",
        };
        write!(
            f,
            "[{c} {}{}]",
            self.number,
            if self.constructed { " constructed" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(tag: Tag) {
        let mut buf = Vec::new();
        tag.encode_into(&mut buf);
        let (got, used) = Tag::decode(&buf).expect("decodable");
        assert_eq!(got, tag);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn low_tag_roundtrips() {
        roundtrip(Tag::INTEGER);
        roundtrip(Tag::SEQUENCE);
        roundtrip(Tag::application(7));
        roundtrip(Tag::context(3));
    }

    #[test]
    fn high_tag_roundtrips() {
        roundtrip(Tag::universal(31));
        roundtrip(Tag::application(200));
        roundtrip(Tag {
            class: TagClass::Private,
            constructed: true,
            number: 1_000_000,
        });
    }

    #[test]
    fn known_encodings() {
        let mut buf = Vec::new();
        Tag::INTEGER.encode_into(&mut buf);
        assert_eq!(buf, [0x02]);
        buf.clear();
        Tag::SEQUENCE.encode_into(&mut buf);
        assert_eq!(buf, [0x30]);
        buf.clear();
        Tag::application(1).encode_into(&mut buf);
        assert_eq!(buf, [0x61]);
    }

    #[test]
    fn truncated_high_tag_fails() {
        assert!(Tag::decode(&[0x1f]).is_none());
        assert!(Tag::decode(&[0x1f, 0x81]).is_none());
        assert!(Tag::decode(&[]).is_none());
    }

    #[test]
    fn display_is_descriptive() {
        assert_eq!(Tag::SEQUENCE.to_string(), "[UNIVERSAL 16 constructed]");
        assert_eq!(Tag::context(2).to_string(), "[CONTEXT 2]");
    }
}
