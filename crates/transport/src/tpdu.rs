//! TPDU wire format — a compact ISO 8073 class-0 flavoured encoding.
//!
//! A codec only: no protocol entity in the workspace sends these; the
//! running stacks carry sessions over `netsim` pipes.
//!
//! | code | meaning              | fields                               |
//! |------|----------------------|--------------------------------------|
//! | 0xE0 | CR connection request| src_ref                              |
//! | 0xD0 | CC connection confirm| dst_ref, src_ref                     |
//! | 0x80 | DR disconnect request| dst_ref, reason                      |
//! | 0xC0 | DC disconnect confirm| dst_ref                              |
//! | 0xF0 | DT data              | dst_ref, seq, eot, payload           |
//! | 0x70 | ER error             | dst_ref, cause                       |

use std::fmt;

/// A decoded transport PDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tpdu {
    /// Connection request carrying the initiator's reference.
    Cr {
        /// Initiator's connection reference.
        src_ref: u16,
    },
    /// Connection confirm.
    Cc {
        /// Initiator's reference (being confirmed).
        dst_ref: u16,
        /// Responder's reference.
        src_ref: u16,
    },
    /// Disconnect request.
    Dr {
        /// Peer's reference.
        dst_ref: u16,
        /// Reason code.
        reason: u8,
    },
    /// Disconnect confirm.
    Dc {
        /// Peer's reference.
        dst_ref: u16,
    },
    /// Data segment.
    Dt {
        /// Peer's reference.
        dst_ref: u16,
        /// Segment sequence number within the connection.
        seq: u32,
        /// End-of-TSDU marker.
        eot: bool,
        /// Segment payload.
        payload: Vec<u8>,
    },
    /// Protocol error report.
    Er {
        /// Peer's reference.
        dst_ref: u16,
        /// Cause code.
        cause: u8,
    },
}

/// Error for malformed TPDUs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TpduDecodeError {
    /// Human-readable description of the problem.
    pub reason: &'static str,
}

impl fmt::Display for TpduDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed TPDU: {}", self.reason)
    }
}
impl std::error::Error for TpduDecodeError {}

fn put_u16(v: u16, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.to_be_bytes());
}
fn put_u32(v: u32, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.to_be_bytes());
}
fn get_u16(data: &[u8], at: usize) -> Result<u16, TpduDecodeError> {
    data.get(at..at + 2)
        .map(|s| u16::from_be_bytes([s[0], s[1]]))
        .ok_or(TpduDecodeError {
            reason: "short u16",
        })
}
fn get_u32(data: &[u8], at: usize) -> Result<u32, TpduDecodeError> {
    data.get(at..at + 4)
        .map(|s| u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
        .ok_or(TpduDecodeError {
            reason: "short u32",
        })
}

/// Encodes a DT segment straight into `out` (cleared first) from a
/// borrowed payload — the zero-allocation fast path for the data hot
/// loop. Byte-identical to `Tpdu::Dt { .. }.encode()`.
pub fn encode_dt_into(dst_ref: u16, seq: u32, eot: bool, payload: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(8 + payload.len());
    out.push(0xF0);
    put_u16(dst_ref, out);
    put_u32(seq, out);
    out.push(u8::from(eot));
    out.extend_from_slice(payload);
}

/// A decoded DT segment whose payload borrows from the receive buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DtView<'a> {
    /// Peer's reference.
    pub dst_ref: u16,
    /// Segment sequence number within the connection.
    pub seq: u32,
    /// End-of-TSDU marker.
    pub eot: bool,
    /// Segment payload, borrowed from the input buffer.
    pub payload: &'a [u8],
}

impl Tpdu {
    /// Serializes the TPDU.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode_into(&mut out);
        out
    }

    /// Serializes the TPDU into `out` (cleared first), preserving the
    /// buffer's capacity for reuse across PDUs.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            Tpdu::Cr { src_ref } => {
                out.push(0xE0);
                put_u16(*src_ref, out);
            }
            Tpdu::Cc { dst_ref, src_ref } => {
                out.push(0xD0);
                put_u16(*dst_ref, out);
                put_u16(*src_ref, out);
            }
            Tpdu::Dr { dst_ref, reason } => {
                out.push(0x80);
                put_u16(*dst_ref, out);
                out.push(*reason);
            }
            Tpdu::Dc { dst_ref } => {
                out.push(0xC0);
                put_u16(*dst_ref, out);
            }
            Tpdu::Dt {
                dst_ref,
                seq,
                eot,
                payload,
            } => {
                encode_dt_into(*dst_ref, *seq, *eot, payload, out);
            }
            Tpdu::Er { dst_ref, cause } => {
                out.push(0x70);
                put_u16(*dst_ref, out);
                out.push(*cause);
            }
        }
    }

    /// Parses a DT segment without copying its payload; returns `None`
    /// for every other (control) TPDU so callers can fall back to the
    /// owned [`Tpdu::decode`].
    ///
    /// # Errors
    ///
    /// Returns [`TpduDecodeError`] on short input.
    pub fn decode_dt_view(data: &[u8]) -> Result<Option<DtView<'_>>, TpduDecodeError> {
        if data.first() != Some(&0xF0) {
            return Ok(None);
        }
        let dst_ref = get_u16(data, 1)?;
        let seq = get_u32(data, 3)?;
        let eot = *data.get(7).ok_or(TpduDecodeError { reason: "short DT" })? != 0;
        Ok(Some(DtView {
            dst_ref,
            seq,
            eot,
            payload: data.get(8..).unwrap_or(&[]),
        }))
    }

    /// Parses a TPDU.
    ///
    /// # Errors
    ///
    /// Returns [`TpduDecodeError`] on short or unknown input.
    pub fn decode(data: &[u8]) -> Result<Tpdu, TpduDecodeError> {
        let code = *data.first().ok_or(TpduDecodeError { reason: "empty" })?;
        match code {
            0xE0 => Ok(Tpdu::Cr {
                src_ref: get_u16(data, 1)?,
            }),
            0xD0 => Ok(Tpdu::Cc {
                dst_ref: get_u16(data, 1)?,
                src_ref: get_u16(data, 3)?,
            }),
            0x80 => Ok(Tpdu::Dr {
                dst_ref: get_u16(data, 1)?,
                reason: *data.get(3).ok_or(TpduDecodeError { reason: "short DR" })?,
            }),
            0xC0 => Ok(Tpdu::Dc {
                dst_ref: get_u16(data, 1)?,
            }),
            0xF0 => {
                let dst_ref = get_u16(data, 1)?;
                let seq = get_u32(data, 3)?;
                let eot = *data.get(7).ok_or(TpduDecodeError { reason: "short DT" })? != 0;
                Ok(Tpdu::Dt {
                    dst_ref,
                    seq,
                    eot,
                    payload: data.get(8..).unwrap_or(&[]).to_vec(),
                })
            }
            0x70 => Ok(Tpdu::Er {
                dst_ref: get_u16(data, 1)?,
                cause: *data.get(3).ok_or(TpduDecodeError { reason: "short ER" })?,
            }),
            _ => Err(TpduDecodeError {
                reason: "unknown TPDU code",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_roundtrip() {
        let samples = vec![
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
            Tpdu::Dt {
                dst_ref: 9,
                seq: 0,
                eot: false,
                payload: vec![],
            },
            Tpdu::Er {
                dst_ref: 9,
                cause: 7,
            },
        ];
        for t in samples {
            assert_eq!(Tpdu::decode(&t.encode()).unwrap(), t);
        }
    }

    #[test]
    fn malformed_rejected() {
        assert!(Tpdu::decode(&[]).is_err());
        assert!(Tpdu::decode(&[0x42]).is_err());
        // DT's high nibble with a non-zero low nibble is still unknown.
        assert!(Tpdu::decode(&[0xFF]).is_err());
        assert!(Tpdu::decode(&[0xE0, 0x01]).is_err());
        assert!(Tpdu::decode(&[0xF0, 0, 1, 0, 0]).is_err());
    }

    #[test]
    fn decode_errors_name_the_problem() {
        let reason = |wire: &[u8]| Tpdu::decode(wire).unwrap_err().to_string();
        assert_eq!(reason(&[]), "malformed TPDU: empty");
        assert_eq!(reason(&[0x42]), "malformed TPDU: unknown TPDU code");
        assert_eq!(reason(&[0xC0, 9]), "malformed TPDU: short u16");
        assert_eq!(reason(&[0x80, 0, 9]), "malformed TPDU: short DR");
        assert_eq!(
            reason(&[0xF0, 0, 9, 0, 0, 0, 1]),
            "malformed TPDU: short DT"
        );
    }

    #[test]
    fn dt_fast_path_matches_owned() {
        let owned = Tpdu::Dt {
            dst_ref: 9,
            seq: 77,
            eot: true,
            payload: vec![4, 5, 6],
        };
        let mut scratch = vec![0xee; 2]; // stale contents must be cleared
        encode_dt_into(9, 77, true, &[4, 5, 6], &mut scratch);
        assert_eq!(scratch, owned.encode());
        let view = Tpdu::decode_dt_view(&scratch).unwrap().unwrap();
        assert_eq!(
            (view.dst_ref, view.seq, view.eot, view.payload),
            (9, 77, true, &[4u8, 5, 6][..])
        );
        // Control PDUs are not DT views.
        let cr = Tpdu::Cr { src_ref: 1 }.encode();
        assert!(Tpdu::decode_dt_view(&cr).unwrap().is_none());
    }
}
