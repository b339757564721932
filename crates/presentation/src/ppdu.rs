//! PPDU wire format — ISO 8823 presentation kernel, BER-encoded: the
//! [`Ppdu`] table below is the module, one `[APPLICATION n]` row per
//! PPDU.

use asn1::ber::{self, Reader};
use asn1::{Asn1Error, Ber, Tag, Trailing};

/// The transfer syntax this implementation supports.
pub const TRANSFER_BER: &str = "ber";

/// One proposed presentation context (CP component).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProposedContext {
    /// Presentation context identifier (odd integers by convention).
    pub id: i64,
    /// Abstract syntax name (e.g. `"mcam-pci"`).
    pub abstract_syntax: String,
    /// Proposed transfer syntax name.
    pub transfer_syntax: String,
}

/// Result for one proposed context (CPA component).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextResult {
    /// The context identifier from the proposal.
    pub id: i64,
    /// Whether the responder accepted it.
    pub accepted: bool,
}

impl Ber for ProposedContext {
    fn write(&self, out: &mut Vec<u8>) {
        ber::write_constructed(Tag::SEQUENCE, out, |item| {
            self.id.write(item);
            self.abstract_syntax.write(item);
            self.transfer_syntax.write(item);
        });
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, Asn1Error> {
        ber::read_constructed(Tag::SEQUENCE, r, |item| {
            Ok(ProposedContext {
                id: Ber::read(item)?,
                abstract_syntax: Ber::read(item)?,
                transfer_syntax: Ber::read(item)?,
            })
        })
    }
}

impl Ber for ContextResult {
    fn write(&self, out: &mut Vec<u8>) {
        (self.id, self.accepted).write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, Asn1Error> {
        let (id, accepted) = Ber::read(r)?;
        Ok(ContextResult { id, accepted })
    }
}

asn1::choice! {
    /// A decoded presentation PDU.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Ppdu {
        /// CP, connect presentation: proposed contexts + user data.
        Cp = 0 {
            /// Proposed presentation contexts.
            contexts: Vec<ProposedContext>,
            /// Presentation-user data (e.g. an MCAM AssociateReq).
            user_data: Vec<u8>,
        },
        /// CPA, connect accept: per-context results + user data.
        Cpa = 1 {
            /// Context negotiation results.
            results: Vec<ContextResult>,
            /// Presentation-user data.
            user_data: Vec<u8>,
        },
        /// CPR, connect reject: reason plus optional responder user
        /// data (a refusing presentation user may hand back one
        /// application PDU — e.g. an MCAM referral naming a better
        /// server). Pre-referral encodings carry only the reason and
        /// decode with empty data.
        Cpr = 2 {
            /// Provider/user reason code.
            reason: i64,
            /// Presentation-user data (may be empty).
            user_data: Vec<u8> as Trailing,
        },
        /// TD, transfer data on a negotiated context.
        Td = 3 {
            /// Presentation context the payload is encoded under.
            context_id: i64,
            /// Presentation-user data.
            user_data: Vec<u8>,
        },
        /// ARU, abnormal release (abort).
        Aru = 4 {
            /// Abort reason code.
            reason: i64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_contexts() -> Vec<ProposedContext> {
        vec![
            ProposedContext {
                id: 1,
                abstract_syntax: "mcam-pci".into(),
                transfer_syntax: TRANSFER_BER.into(),
            },
            ProposedContext {
                id: 3,
                abstract_syntax: "acse".into(),
                transfer_syntax: "per".into(),
            },
        ]
    }

    fn samples() -> Vec<Ppdu> {
        vec![
            Ppdu::Cp {
                contexts: sample_contexts(),
                user_data: b"assoc".to_vec(),
            },
            Ppdu::Cp {
                contexts: vec![],
                user_data: vec![],
            },
            Ppdu::Cpa {
                results: vec![
                    ContextResult {
                        id: 1,
                        accepted: true,
                    },
                    ContextResult {
                        id: 3,
                        accepted: false,
                    },
                ],
                user_data: vec![7],
            },
            Ppdu::Cpa {
                results: vec![],
                user_data: vec![],
            },
            Ppdu::Cpr {
                reason: 2,
                user_data: vec![],
            },
            Ppdu::Cpr {
                reason: 1,
                user_data: b"referral".to_vec(),
            },
            Ppdu::Td {
                context_id: 1,
                user_data: b"P-DATA".to_vec(),
            },
            // Content past 127 bytes: long-form lengths, outer and inner.
            Ppdu::Td {
                context_id: -129,
                user_data: (0..=255).collect(),
            },
            Ppdu::Aru { reason: 1 },
        ]
    }

    /// `tests/golden_ppdus.txt` pins the wire format: line *i* is
    /// `samples()[i]` in hex, first written by the hand-written coders
    /// that preceded the table.
    #[test]
    fn all_variants_roundtrip() {
        let lines: Vec<&str> = include_str!("../tests/golden_ppdus.txt").lines().collect();
        let samples = samples();
        assert_eq!(lines.len(), samples.len(), "one golden line per sample");
        let mut seen = [false; 5];
        for (p, line) in samples.iter().zip(lines) {
            let bytes = p.encode();
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, line, "{p:?}");
            assert_eq!(Ppdu::decode(&bytes).unwrap(), *p, "{line}");
            seen[p.tag() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "an alternative has no sample");
    }

    #[test]
    fn bare_cpr_decodes_with_empty_user_data() {
        // A pre-referral CPR carried only the reason integer; such
        // encodings must keep decoding.
        let mut old = Vec::new();
        ber::write_constructed(Tag::application(2), &mut old, |c| {
            ber::write_integer(7, c);
        });
        assert_eq!(
            Ppdu::decode(&old).unwrap(),
            Ppdu::Cpr {
                reason: 7,
                user_data: vec![]
            }
        );
    }

    #[test]
    fn malformed_rejected() {
        assert!(Ppdu::decode(&[]).is_err());
        assert!(Ppdu::decode(&[0x02, 0x01, 0x00]).is_err());
        // Truncations, bit flips and lying lengths: `tests/malformed.rs`.
    }
}
