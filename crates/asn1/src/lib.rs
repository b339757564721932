//! `asn1` — ASN.1 (ISO 8824/8825) subset with BER encoding.
//!
//! All MCAM PDUs are specified in ASN.1 and the paper generated C++
//! data structures plus encoders/decoders from that specification (§4.2
//! and the ASN.1→Estelle translator of ref \[9\]). Here the
//! specification is a [`choice!`] table — the ASN.1 module the paper's
//! generator consumed, one row per PDU — and the macro is the
//! generator: the enum, the `[APPLICATION n]` tag, the encoder and the
//! decoder of every PDU come from its row, members going through the
//! typed codec [`Ber`]. Beneath it are the BER tag/length/value
//! primitives ([`ber`], [`Tag`]); beside it a dynamic value model
//! ([`Value`]) for directory attributes and the parallel SEQUENCE-OF
//! encoder used to reproduce the negative result of footnote 3
//! ([`parallel`]).
//!
//! # Adding a PDU
//!
//! One row in the protocol's table, plus one line in its golden file
//! (`crates/core/tests/golden_pdus.txt`,
//! `crates/presentation/tests/golden_ppdus.txt`): the sample's
//! `encode()` in hex, which is also how a PR that means to change a
//! PDU regenerates its line. The golden file pins the bytes, and its
//! test fails until every PDU has a line.
//!
//! # Examples
//!
//! ```
//! use asn1::{Trailing, Value};
//!
//! asn1::choice! {
//!     /// A two-PDU protocol.
//!     #[derive(Debug, PartialEq)]
//!     pub enum Pdu {
//!         /// Asks for frames of a movie.
//!         FetchReq = 0 {
//!             title: String,
//!             frames: Vec<u64>,
//!             /// Added in a later version: left off the wire while false.
//!             thumbnails: bool as Trailing,
//!         },
//!         /// Nothing to fetch.
//!         FetchRej = 1,
//!     }
//! }
//!
//! # fn main() -> Result<(), asn1::Asn1Error> {
//! let req = Pdu::FetchReq { title: "XMovie".into(), frames: vec![7], thumbnails: false };
//! let bytes = req.encode();
//! assert_eq!(bytes, [0x60, 0x0d, 0x0c, 6, b'X', b'M', b'o', b'v', b'i', b'e', 0x30, 3, 2, 1, 7]);
//! assert_eq!(Pdu::decode(&bytes)?, req);
//! assert_eq!(Pdu::FetchRej.tag(), 1);
//! assert!(Pdu::decode(&[0x62, 0]).is_err());
//!
//! // Dynamic values (directory attributes).
//! let v = Value::Seq(vec![Value::Str("XMovie".into()), Value::Int(25)]);
//! assert_eq!(Value::from_ber(&v.to_ber())?, v);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ber;
mod codec;
mod error;
pub mod parallel;
mod tag;
mod value;

pub use ber::Reader;
pub use codec::{Ber, Codec, Trailing};
pub use error::{Asn1Error, Result};
pub use tag::{Tag, TagClass};
pub use value::Value;
