//! A dynamic ASN.1 value model.
//!
//! The movie directory stores attributes of heterogeneous types; the
//! [`Value`] enum is the runtime representation, with a generic BER
//! codec. Protocol PDUs with fixed shapes are [`choice!`](crate::choice)
//! tables instead.

use crate::ber::{self, Reader};
use crate::codec::Ber;
use crate::error::{Asn1Error, Result};
use crate::tag::Tag;
use std::fmt;

/// A dynamically-typed ASN.1 value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// BOOLEAN.
    Bool(bool),
    /// INTEGER.
    Int(i64),
    /// UTF8String.
    Str(String),
    /// OCTET STRING.
    Bytes(Vec<u8>),
    /// NULL.
    Null,
    /// ENUMERATED.
    Enum(i64),
    /// SEQUENCE / SEQUENCE OF.
    Seq(Vec<Value>),
}

impl Value {
    /// Encodes the value as one BER TLV appended to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Bool(b) => ber::write_bool(*b, out),
            Value::Int(i) => ber::write_integer(*i, out),
            Value::Str(s) => ber::write_string(s, out),
            Value::Bytes(b) => ber::write_octets(b, out),
            Value::Null => ber::write_null(out),
            Value::Enum(e) => ber::write_enumerated(*e, out),
            Value::Seq(items) => items.write(out),
        }
    }

    /// Encodes the value to a fresh buffer.
    pub fn to_ber(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes one value from the reader.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed input or unsupported tags.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Value> {
        let offset = r.offset();
        let tag = r.peek_tag()?;
        match tag {
            Tag::SEQUENCE => Vec::<Value>::read(r).map(Value::Seq),
            Tag::BOOLEAN => ber::read_bool(r).map(Value::Bool),
            Tag::INTEGER => ber::read_integer(r).map(Value::Int),
            Tag::UTF8_STRING => ber::read_string(r).map(Value::Str),
            Tag::OCTET_STRING => ber::read_octets(r).map(Value::Bytes),
            Tag::NULL => ber::read_null(r).map(|()| Value::Null),
            Tag::ENUMERATED => ber::read_enumerated(r).map(Value::Enum),
            _ => Err(Asn1Error::BadContent {
                what: "Value",
                offset,
            }),
        }
    }

    /// Decodes a single value occupying the whole buffer.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed input or trailing bytes.
    pub fn from_ber(data: &[u8]) -> Result<Value> {
        let mut r = Reader::new(data);
        let v = Value::decode(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }

    /// The contained integer, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The contained string, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "{} bytes", b.len()),
            Value::Null => write!(f, "NULL"),
            Value::Enum(e) => write!(f, "enum({e})"),
            Value::Seq(items) => {
                write!(f, "{{")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for v in [
            Value::Bool(true),
            Value::Int(-42),
            Value::Str("MPEG-1".into()),
            Value::Bytes(vec![0, 1, 2]),
            Value::Null,
            Value::Enum(3),
        ] {
            assert_eq!(Value::from_ber(&v.to_ber()).unwrap(), v);
        }
    }

    #[test]
    fn roundtrip_nested_sequence() {
        let v = Value::Seq(vec![
            Value::Str("movie".into()),
            Value::Int(25),
            Value::Seq(vec![Value::Bool(false), Value::Null]),
        ]);
        assert_eq!(Value::from_ber(&v.to_ber()).unwrap(), v);
    }

    #[test]
    fn empty_sequence() {
        let v = Value::Seq(vec![]);
        assert_eq!(Value::from_ber(&v.to_ber()).unwrap(), v);
    }

    #[test]
    fn display_renders() {
        let v = Value::Seq(vec![Value::Int(1), Value::Str("x".into())]);
        assert_eq!(v.to_string(), "{1, \"x\"}");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(7i64).as_int(), Some(7));
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::Int(1).as_str(), None);
    }

    #[test]
    fn rejects_trailing() {
        let mut data = Value::Int(1).to_ber();
        data.push(0);
        assert!(matches!(
            Value::from_ber(&data),
            Err(Asn1Error::TrailingBytes { .. })
        ));
    }
}
