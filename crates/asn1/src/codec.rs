//! The typed member codec ([`Ber`]) and the PDU table
//! ([`choice!`](crate::choice)) whose rows are made of such members.

use crate::ber::{self, Reader};
use crate::error::Result;
use crate::tag::Tag;
use crate::value::Value;

/// A type with one BER form as a member of a PDU.
pub trait Ber: Sized {
    /// Appends the value to `out`.
    fn write(&self, out: &mut Vec<u8>);
    /// Reads the value back; malformed input is an error.
    fn read(r: &mut Reader<'_>) -> Result<Self>;
}

/// BOOLEAN.
impl Ber for bool {
    fn write(&self, out: &mut Vec<u8>) {
        ber::write_bool(*self, out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self> {
        ber::read_bool(r)
    }
}

/// INTEGER.
impl Ber for i64 {
    fn write(&self, out: &mut Vec<u8>) {
        ber::write_integer(*self, out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self> {
        ber::read_integer(r)
    }
}

/// INTEGER; what a peer sends outside `0..=u32::MAX` is read as the
/// nearest bound.
impl Ber for u32 {
    fn write(&self, out: &mut Vec<u8>) {
        ber::write_integer(i64::from(*self), out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self> {
        Ok(ber::read_integer(r)?.clamp(0, i64::from(u32::MAX)) as u32)
    }
}

/// INTEGER of at most eight content octets, so the top bit is not
/// carried; a negative INTEGER from a peer is read as 0.
impl Ber for u64 {
    fn write(&self, out: &mut Vec<u8>) {
        ber::write_integer(*self as i64, out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self> {
        Ok(ber::read_integer(r)?.max(0) as u64)
    }
}

/// UTF8String.
impl Ber for String {
    fn write(&self, out: &mut Vec<u8>) {
        ber::write_string(self, out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self> {
        ber::read_string(r)
    }
}

/// OCTET STRING.
impl Ber for Vec<u8> {
    fn write(&self, out: &mut Vec<u8>) {
        ber::write_octets(self, out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self> {
        ber::read_octets(r)
    }
}

/// Any one value, under its own universal tag.
impl Ber for Value {
    fn write(&self, out: &mut Vec<u8>) {
        self.encode_into(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self> {
        Value::decode(r)
    }
}

/// SEQUENCE OF.
impl<T: Ber> Ber for Vec<T> {
    fn write(&self, out: &mut Vec<u8>) {
        ber::write_constructed(Tag::SEQUENCE, out, |list| {
            for item in self {
                item.write(list);
            }
        });
    }
    fn read(r: &mut Reader<'_>) -> Result<Self> {
        ber::read_constructed(Tag::SEQUENCE, r, |list| {
            let mut items = Vec::new();
            while !list.is_empty() {
                items.push(T::read(list)?);
            }
            Ok(items)
        })
    }
}

/// SEQUENCE of two members.
impl<A: Ber, B: Ber> Ber for (A, B) {
    fn write(&self, out: &mut Vec<u8>) {
        ber::write_constructed(Tag::SEQUENCE, out, |pair| {
            self.0.write(pair);
            self.1.write(pair);
        });
    }
    fn read(r: &mut Reader<'_>) -> Result<Self> {
        ber::read_constructed(Tag::SEQUENCE, r, |pair| {
            Ok((A::read(pair)?, B::read(pair)?))
        })
    }
}

/// A presence BOOLEAN, then — when it is true — the members of `T`.
impl<T: Ber> Ber for Option<T> {
    fn write(&self, out: &mut Vec<u8>) {
        self.is_some().write(out);
        if let Some(v) = self {
            v.write(out);
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self> {
        bool::read(r)?.then(|| T::read(r)).transpose()
    }
}

/// A wire form for a member of type `T` that is not `T`'s own [`Ber`]
/// form; a [`choice!`](crate::choice) row names it as
/// `field: T as Codec`.
pub trait Codec<T> {
    /// Appends `v` to `out`.
    fn write(v: &T, out: &mut Vec<u8>);
    /// Reads the member back; malformed input is an error.
    fn read(r: &mut Reader<'_>) -> Result<T>;
}

/// Codec of a member appended to a PDU after the PDU was first
/// deployed (it must be the row's last): omitted while it holds its
/// default, so the PDU is then byte-identical to the older form, and
/// read as the default when the content ends before it.
#[derive(Debug)]
pub struct Trailing;

impl<T: Ber + Default + PartialEq> Codec<T> for Trailing {
    fn write(v: &T, out: &mut Vec<u8>) {
        if *v != T::default() {
            v.write(out);
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<T> {
        if r.is_empty() {
            Ok(T::default())
        } else {
            T::read(r)
        }
    }
}

/// Calls `write`/`read` for one [`choice!`](crate::choice) member,
/// through the codec its row names or else its type's [`Ber`] impl.
#[doc(hidden)]
#[macro_export]
macro_rules! __member {
    ($ty:ty, $f:ident($($arg:expr),*)) => {
        <$ty as $crate::Ber>::$f($($arg),*)
    };
    ($ty:ty as $codec:ty, $f:ident($($arg:expr),*)) => {
        <$codec as $crate::Codec<$ty>>::$f($($arg),*)
    };
}

/// Defines a protocol's PDUs — an ASN.1 `CHOICE` of `[APPLICATION n]
/// SEQUENCE`s — as a table, one row per alternative:
///
/// ```text
/// /// doc
/// Variant = n {
///     /// doc
///     field: Type,
///     /// doc
///     field: Type as Codec,
/// },
/// ```
///
/// and generates from the rows the enum (attributes and doc comments
/// carried through), `tag()`, `encode`, `encode_into` and `decode`.
/// Members go on the wire in row order, each through its type's
/// [`Ber`] impl, or through the named [`Codec`] where the row says
/// `as`. A tag number used twice is an unreachable-pattern warning.
#[macro_export]
macro_rules! choice {
    (
        $(#[$meta:meta])*
        $vis:vis enum $Name:ident {
            $(
                $(#[$vdoc:meta])*
                $Variant:ident = $n:literal
                $({ $( $(#[$fdoc:meta])* $field:ident: $ty:ty $(as $codec:ty)? ),* $(,)? })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $Name {
            $( $(#[$vdoc])* $Variant $({ $( $(#[$fdoc])* $field: $ty ),* })?, )*
        }

        impl $Name {
            /// The `[APPLICATION n]` tag number of this alternative.
            pub fn tag(&self) -> u32 {
                match self {
                    $( $Name::$Variant { .. } => $n, )*
                }
            }

            /// Serializes the PDU as BER.
            pub fn encode(&self) -> Vec<u8> {
                let mut out = Vec::new();
                self.encode_into(&mut out);
                out
            }

            /// Serializes the PDU as BER into `out` (cleared first),
            /// preserving the buffer's capacity for reuse across PDUs:
            /// no heap allocation once the buffer is warm.
            pub fn encode_into(&self, out: &mut Vec<u8>) {
                out.clear();
                let tag = $crate::Tag::application(self.tag());
                $crate::ber::write_constructed(tag, out, |c| match self {
                    $( $Name::$Variant { $($($field),*)? } => {
                        $($(
                            $crate::__member!($ty $(as $codec)?, write($field, c));
                        )*)?
                    } )*
                });
            }

            /// Parses a PDU.
            ///
            /// # Errors
            ///
            /// Returns an `Asn1Error` on malformed BER, an unknown tag,
            /// or bytes after the PDU.
            pub fn decode(data: &[u8]) -> ::std::result::Result<$Name, $crate::Asn1Error> {
                let mut r = $crate::ber::Reader::new(data);
                let (tag, content) = r.read_tlv()?;
                let unknown = $crate::Asn1Error::UnknownVariant {
                    what: stringify!($Name),
                    value: i64::from(tag.number),
                };
                if tag.class != $crate::TagClass::Application || !tag.constructed {
                    return Err(unknown);
                }
                let mut c = r.descend(content)?;
                let pdu = match tag.number {
                    $( $n => $Name::$Variant {
                        $($(
                            $field: $crate::__member!($ty $(as $codec)?, read(&mut c))?,
                        )*)?
                    }, )*
                    _ => return Err(unknown),
                };
                c.expect_end()?;
                r.expect_end()?;
                Ok(pdu)
            }
        }
    };
}
