//! `transport` — the ISO 8073 class-0 flavoured TPDU codec.
//!
//! The paper places its control stacks on the ISODE transport layer
//! and measures them over a simulated transport pipe. The running
//! stacks here do the latter: both flavours carry their sessions
//! directly over `netsim` pipes. This crate is the wire format of the
//! layer they stand on — CR/CC/DR/DC/DT/ER [`Tpdu`]s with an owned
//! decoder and a zero-copy DT path ([`encode_dt_into`],
//! [`Tpdu::decode_dt_view`]) — which the per-layer cost ledger and the
//! hostile-input suite exercise.
//!
//! # Examples
//!
//! ```
//! use transport::{encode_dt_into, Tpdu};
//!
//! let mut wire = Vec::new();
//! encode_dt_into(9, 0, true, b"T-DATA over class 0", &mut wire);
//! let view = Tpdu::decode_dt_view(&wire).unwrap().expect("a DT");
//! assert_eq!(view.payload, b"T-DATA over class 0");
//! assert_eq!(
//!     Tpdu::decode(&Tpdu::Cr { src_ref: 5 }.encode()),
//!     Ok(Tpdu::Cr { src_ref: 5 })
//! );
//! ```

#![warn(missing_docs)]

mod tpdu;

pub use tpdu::{encode_dt_into, DtView, Tpdu, TpduDecodeError};
