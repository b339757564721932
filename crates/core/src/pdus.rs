//! MCAM PDUs, specified in ASN.1 and encoded with BER (paper §4.2).
//!
//! The operation set follows the MCAM companion paper (Keller &
//! Effelsberg, ACM Multimedia'93): *access* (create, delete, select,
//! deselect), *management* (list, query and modify attributes), and
//! *control* (play, pause, stop, seek, speed, record), plus
//! association management and error reporting.
//!
//! The [`McamPdu`] table below is that ASN.1 module, one row per PDU;
//! `asn1::choice!` generates the enum, the tag and both coders from it.

use asn1::{Asn1Error, Ber, Codec, Reader, Trailing, Value};

/// Description of a movie carried in create/select responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MovieDesc {
    /// Movie title.
    pub title: String,
    /// Image format name.
    pub format: String,
    /// Frames per second.
    pub frame_rate: u32,
    /// Total frames.
    pub frame_count: u64,
}

/// Stream rendezvous parameters returned by a successful select.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamParams {
    /// Datagram address of the stream provider.
    pub provider_addr: u32,
    /// Stream identifier to expect in MTP packets.
    pub stream_id: u32,
    /// Movie description.
    pub movie: MovieDesc,
}

asn1::choice! {
    /// A complete MCAM protocol data unit.
    #[derive(Debug, Clone, PartialEq)]
    pub enum McamPdu {
        /// Open an MCAM association.
        AssociateReq = 0 {
            /// User name for accounting.
            user: String,
            /// The client understands a referral and will follow a
            /// redirect to another cluster server. Encoded only when
            /// true, so pre-referral clients produce (and servers
            /// accept) the original one-member form; a server never
            /// refers a client that did not advertise the capability.
            referral_capable: bool as Trailing,
        },
        /// Association response.
        AssociateRsp = 1 {
            /// Whether the association was admitted.
            accepted: bool,
        },
        /// Orderly association release.
        ReleaseReq = 2,
        /// Release confirmation.
        ReleaseRsp = 3,
        /// Create a movie entry (access service).
        CreateMovieReq = 4 {
            /// Title (also the directory RDN).
            title: String,
            /// Image format.
            format: String,
            /// Frames per second.
            frame_rate: u32,
            /// Total frames.
            frame_count: u64,
        },
        /// Create response.
        CreateMovieRsp = 5 {
            /// Success flag.
            ok: bool,
        },
        /// Delete a movie entry.
        DeleteMovieReq = 6 {
            /// Title of the movie to delete.
            title: String,
        },
        /// Delete response.
        DeleteMovieRsp = 7 {
            /// Success flag.
            ok: bool,
        },
        /// Select a movie for playback (binds a CM stream).
        SelectMovieReq = 8 {
            /// Title of the movie to select.
            title: String,
            /// Datagram address the client will listen on.
            client_addr: u32,
        },
        /// Select response with stream rendezvous parameters.
        SelectMovieRsp = 9 {
            /// Stream parameters; `None` when selection failed.
            params: Option<StreamParams>,
        },
        /// Release the selected movie and its stream.
        DeselectMovieReq = 10,
        /// Deselect response.
        DeselectMovieRsp = 11,
        /// List movies whose title contains a substring (management).
        ListMoviesReq = 12 {
            /// Case-insensitive substring; empty lists everything.
            title_contains: String,
        },
        /// Listing response.
        ListMoviesRsp = 13 {
            /// Matching titles.
            titles: Vec<String>,
        },
        /// Query attributes of a movie (management).
        QueryAttrsReq = 14 {
            /// Movie title.
            title: String,
            /// Attribute names to fetch; empty fetches all.
            attrs: Vec<String>,
        },
        /// Query response.
        QueryAttrsRsp = 15 {
            /// Attribute name/value pairs, or `None` if the movie is
            /// unknown.
            attrs: Option<Vec<(String, Value)>>,
        },
        /// Modify attributes of a movie (management).
        ModifyAttrsReq = 16 {
            /// Movie title.
            title: String,
            /// Attributes to set.
            puts: Vec<(String, Value)>,
        },
        /// Modify response.
        ModifyAttrsRsp = 17 {
            /// Success flag.
            ok: bool,
        },
        /// Start or resume playback (control).
        PlayReq = 18 {
            /// Playback speed in percent of nominal.
            speed_pct: u32 as SpeedPct,
        },
        /// Play response.
        PlayRsp = 19 {
            /// Success flag.
            ok: bool,
        },
        /// Pause playback.
        PauseReq = 20,
        /// Pause response.
        PauseRsp = 21,
        /// Stop playback and rewind.
        StopReq = 22,
        /// Stop response.
        StopRsp = 23,
        /// Seek to an absolute frame.
        SeekReq = 24 {
            /// Target frame index.
            frame: u64,
        },
        /// Seek response.
        SeekRsp = 25 {
            /// Success flag.
            ok: bool,
        },
        /// Record a new movie from CM equipment (control).
        RecordReq = 26 {
            /// Title of the new movie.
            title: String,
            /// Recording length in frames.
            frames: u64,
        },
        /// Record response.
        RecordRsp = 27 {
            /// Success flag.
            ok: bool,
        },
        /// Error report for a failed operation.
        ErrorRsp = 28 {
            /// Numeric error code.
            code: u32,
            /// Human-readable message.
            message: String,
        },
        /// Referral: the server declines to carry this client's control
        /// association (it is overloaded or draining) and names a better
        /// cluster member. Sent only to clients that advertised
        /// `referral_capable`, either as the connect-refusal user data of
        /// an association open or in place of a select response; the
        /// client re-opens its control connection at `target` (falling
        /// back across `candidates` when the target is gone) and replays
        /// the interrupted operation there.
        ReferralRsp = 29 {
            /// Location name (`"node-<n>"`) of the server to reconnect to.
            target: String,
            /// The cluster's current live servers with a load hint —
            /// `(location, available disk bandwidth in bits/second)`,
            /// best candidate first.
            candidates: Vec<(String, u64)>,
        },
    }
}

/// Operations take the tag numbers below this one in pairs, the request
/// on the even number and its response on the odd one; the PDUs from
/// here up answer a request without being its paired response.
const UNPAIRED: u32 = 28;

impl McamPdu {
    /// True for request-type PDUs (the server-processed kind).
    pub(crate) fn is_request(&self) -> bool {
        self.tag().is_multiple_of(2) && self.tag() < UNPAIRED
    }
}

/// Wire form of a playback speed: an INTEGER, read back into the
/// speeds a stream can be paced at (1 % to 10x nominal).
struct SpeedPct;

impl Codec<u32> for SpeedPct {
    fn write(v: &u32, out: &mut Vec<u8>) {
        v.write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<u32, Asn1Error> {
        Ok(u32::read(r)?.clamp(1, 1000))
    }
}

/// The members in line, not a nested SEQUENCE; a peer's `frame_rate` is
/// capped at 120 frames per second.
impl Ber for StreamParams {
    fn write(&self, out: &mut Vec<u8>) {
        self.provider_addr.write(out);
        self.stream_id.write(out);
        self.movie.title.write(out);
        self.movie.format.write(out);
        self.movie.frame_rate.write(out);
        self.movie.frame_count.write(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, Asn1Error> {
        Ok(StreamParams {
            provider_addr: Ber::read(r)?,
            stream_id: Ber::read(r)?,
            movie: MovieDesc {
                title: Ber::read(r)?,
                format: Ber::read(r)?,
                frame_rate: u32::read(r)?.min(120),
                frame_count: Ber::read(r)?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asn1::{ber, Tag};

    fn samples() -> Vec<McamPdu> {
        vec![
            McamPdu::AssociateReq {
                user: "keller".into(),
                referral_capable: false,
            },
            McamPdu::AssociateReq {
                user: "effelsberg".into(),
                referral_capable: true,
            },
            McamPdu::AssociateRsp { accepted: true },
            McamPdu::ReleaseReq,
            McamPdu::ReleaseRsp,
            McamPdu::CreateMovieReq {
                title: "Star Wars".into(),
                format: "XMovie-24".into(),
                frame_rate: 25,
                frame_count: 150_000,
            },
            McamPdu::CreateMovieRsp { ok: true },
            McamPdu::DeleteMovieReq {
                title: "Old".into(),
            },
            McamPdu::DeleteMovieRsp { ok: false },
            McamPdu::SelectMovieReq {
                title: "Star Wars".into(),
                client_addr: 12,
            },
            McamPdu::SelectMovieRsp {
                params: Some(StreamParams {
                    provider_addr: 3,
                    stream_id: 77,
                    movie: MovieDesc {
                        title: "Star Wars".into(),
                        format: "XMovie-24".into(),
                        frame_rate: 25,
                        frame_count: 150_000,
                    },
                }),
            },
            McamPdu::SelectMovieRsp { params: None },
            McamPdu::SelectMovieReq {
                title: String::new(),
                client_addr: u32::MAX,
            },
            McamPdu::DeselectMovieReq,
            McamPdu::DeselectMovieRsp,
            McamPdu::ListMoviesReq {
                title_contains: "star".into(),
            },
            McamPdu::ListMoviesRsp {
                titles: vec!["Star Wars".into(), "Star Trek".into()],
            },
            McamPdu::ListMoviesRsp { titles: vec![] },
            McamPdu::QueryAttrsReq {
                title: "X".into(),
                attrs: vec!["framerate".into()],
            },
            McamPdu::QueryAttrsRsp {
                attrs: Some(vec![("framerate".into(), Value::Int(25))]),
            },
            McamPdu::QueryAttrsRsp {
                attrs: Some(vec![]),
            },
            McamPdu::QueryAttrsRsp { attrs: None },
            McamPdu::ModifyAttrsReq {
                title: "X".into(),
                puts: vec![("framerate".into(), Value::Int(30))],
            },
            // Every `Value` alternative, and content past 127 bytes:
            // the outer and the list length are long-form.
            McamPdu::ModifyAttrsReq {
                title: "A Movie Whose Title Alone Runs To Some Sixty-Odd Bytes Of UTF-8 \u{2014} \u{fc}".into(),
                puts: vec![
                    ("colour".into(), Value::Bool(true)),
                    ("bitrate".into(), Value::Int(-1_500_000)),
                    ("codec".into(), Value::Str("XMovie-24".into())),
                    ("thumbnail".into(), Value::Bytes(vec![0xde, 0xad, 0xbe, 0xef])),
                    ("sequel".into(), Value::Null),
                    (
                        "synopsis".into(),
                        Value::Str("A long time ago in a galaxy far, far away".into()),
                    ),
                    ("rating".into(), Value::Enum(3)),
                    (
                        "cast".into(),
                        Value::Seq(vec![Value::Str("Keller".into()), Value::Seq(vec![])]),
                    ),
                ],
            },
            McamPdu::ModifyAttrsRsp { ok: true },
            McamPdu::PlayReq { speed_pct: 100 },
            McamPdu::PlayRsp { ok: true },
            McamPdu::PauseReq,
            McamPdu::PauseRsp,
            McamPdu::StopReq,
            McamPdu::StopRsp,
            McamPdu::SeekReq { frame: 1234 },
            McamPdu::SeekRsp { ok: true },
            McamPdu::RecordReq {
                title: "Lecture".into(),
                frames: 500,
            },
            McamPdu::RecordRsp { ok: true },
            McamPdu::ErrorRsp {
                code: 42,
                message: "no such movie".into(),
            },
            McamPdu::ReferralRsp {
                target: "node-3".into(),
                candidates: vec![("node-3".into(), 8_000_000), ("node-2".into(), 2_000_000)],
            },
            McamPdu::ReferralRsp {
                target: "node-1".into(),
                candidates: vec![],
            },
        ]
    }

    /// `tests/golden_pdus.txt` pins the wire format: line *i* is
    /// `samples()[i]` in hex, first written by the hand-written coders
    /// that preceded the table.
    #[test]
    fn every_pdu_roundtrips() {
        let lines: Vec<&str> = include_str!("../tests/golden_pdus.txt").lines().collect();
        let samples = samples();
        assert_eq!(lines.len(), samples.len(), "one golden line per sample");
        let mut seen = [false; 30];
        for (pdu, line) in samples.iter().zip(lines) {
            let bytes = pdu.encode();
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, line, "{pdu:?}");
            assert_eq!(McamPdu::decode(&bytes).unwrap(), *pdu, "{line}");
            seen[pdu.tag() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "an alternative has no sample");
    }

    #[test]
    fn request_classification() {
        // The numbering rule against the naming rule, for every row.
        for pdu in samples() {
            let debug = format!("{pdu:?}");
            let variant = debug.split([' ', '{']).next().unwrap();
            assert_eq!(pdu.is_request(), variant.ends_with("Req"), "{variant}");
        }
    }

    #[test]
    fn malformed_rejected() {
        assert!(McamPdu::decode(&[]).is_err());
        assert!(McamPdu::decode(&[0x02, 0x01, 0x00]).is_err());
        let mut enc = McamPdu::PauseReq.encode();
        enc[0] = 0x7f; // unknown application tag (high form)
        assert!(McamPdu::decode(&enc).is_err());
        // Truncations, bit flips and lying lengths: `tests/malformed.rs`.
    }

    #[test]
    fn old_form_associate_req_decodes_without_capability() {
        // A pre-referral client encodes only the user name; such
        // PDUs must keep decoding (capability false), and the
        // capable=false encoding must be byte-identical to it.
        let mut old = Vec::new();
        ber::write_constructed(Tag::application(0), &mut old, |c| {
            ber::write_string("legacy", c);
        });
        let incapable = McamPdu::AssociateReq {
            user: "legacy".into(),
            referral_capable: false,
        };
        assert_eq!(McamPdu::decode(&old).unwrap(), incapable);
        assert_eq!(incapable.encode(), old);
    }

    #[test]
    fn referral_is_unknown_to_old_decoders() {
        // Tag 29 did not exist before the referral extension: an old
        // decoder's `other =>` arm reported it as an unknown variant,
        // which is why servers only refer capable clients. Sanity:
        // the tag is what we claim.
        let referral = McamPdu::ReferralRsp {
            target: "node-2".into(),
            candidates: vec![],
        };
        let (tag, _) = Tag::decode(&referral.encode()).unwrap();
        assert_eq!(tag, Tag::application(29));
        assert!(!referral.is_request());
    }
}
