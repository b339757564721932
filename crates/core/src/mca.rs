//! The client-side Movie Control Agent.
//!
//! Fig. 3: only the MCA is "completely written in Estelle (header and
//! body)"; it speaks the MCAM protocol over the presentation service
//! below and the MCAM service to the application above.

use crate::pdus::McamPdu;
use crate::service::{
    AssocSettled, McamCnf, McamOp, McamReq, ReferralSignal, ReferralStale, StartAssociate,
};
use estelle::{downcast, is, Ctx, IpIndex, StateId, StateMachine, Transition};
use netsim::{SimDuration, SimTime};
use presentation::mcam_contexts;
use presentation::service::{PAbortInd, PConCnf, PConReq, PDataInd, PDataReq, PRelCnf, PRelReq};

/// Interaction point to the application module.
pub const UP: IpIndex = IpIndex(0);
/// Interaction point to the presentation service (Estelle stack or
/// ISODE interface module).
pub const DOWN: IpIndex = IpIndex(1);
/// Interaction point to the client root (control).
pub const CTRL: IpIndex = IpIndex(2);

/// No association.
pub const UNBOUND: StateId = StateId(0);
/// P-CONNECT outstanding.
pub const CONNECTING: StateId = StateId(1);
/// Associated, no request outstanding.
pub const READY: StateId = StateId(2);
/// A request PDU is outstanding.
pub const WAITING: StateId = StateId(3);
/// MCAM released, presentation release outstanding.
pub const P_RELEASING: StateId = StateId(4);

const COST_REQ: SimDuration = SimDuration::from_micros(200);

/// The client's view of its stream session, maintained from confirmed
/// request/response pairs so that a server crash can be survived: the
/// failover replays `SelectMovie` / `Seek` / `Play` on a replica,
/// resuming within a bounded distance of the last played frame.
#[derive(Debug, Clone)]
struct Session {
    title: String,
    frame_rate: u32,
    frame_count: u64,
    speed_pct: u32,
    /// Frame position as of the last confirmed play/pause/stop/seek.
    base_frame: u64,
    /// When playback last started, if currently playing.
    playing_since: Option<SimTime>,
}

impl Session {
    /// The frame the viewer has reached by `now`, extrapolated from
    /// the last confirmed position at the confirmed speed.
    fn frame_at(&self, now: SimTime) -> u64 {
        let played = match self.playing_since {
            Some(since) => {
                let elapsed_us = now.saturating_since(since).as_micros();
                elapsed_us * u64::from(self.frame_rate) * u64::from(self.speed_pct)
                    / 100
                    / 1_000_000
            }
            None => 0,
        };
        (self.base_frame + played).min(self.frame_count)
    }
}

/// The client MCA.
#[derive(Debug)]
pub struct ClientMca {
    /// Datagram address this client's stream receiver listens on.
    pub client_addr: u32,
    /// Advertise referral support in the AssociateReq and act on
    /// `ReferralRsp` (set by roots that can re-dial; a legacy client
    /// never sees a referral because it never advertises).
    referral_capable: bool,
    /// True when the outstanding request is a Release.
    release_pending: bool,
    /// Deliver the association confirmation to the application
    /// (from the current [`StartAssociate`]).
    announce: bool,
    /// Operations to replay, in order, once the association is up.
    resume: Vec<McamOp>,
    /// The operation currently outstanding on the wire, kept so a
    /// referral can carry it to the next server for replay.
    last_op: Option<McamOp>,
    /// The confirmed stream session, if a movie is selected.
    session: Option<Session>,
    /// Decode or sequencing errors.
    pub protocol_errors: u64,
}

impl ClientMca {
    /// Creates a client MCA whose streams arrive at `client_addr`,
    /// speaking the pre-referral protocol (no capability advertised).
    pub(crate) fn new(client_addr: u32) -> Self {
        ClientMca {
            client_addr,
            referral_capable: false,
            release_pending: false,
            announce: true,
            resume: Vec::new(),
            last_op: None,
            session: None,
            protocol_errors: 0,
        }
    }

    /// Advertises referral support: the server may answer the
    /// association open or a SelectMovie with a redirect, which this
    /// MCA hands to its root for re-homing.
    pub(crate) fn referral_capable(mut self) -> Self {
        self.referral_capable = true;
        self
    }

    /// Reports a failed (re-)connection to the application: the
    /// negative AssociateRsp it is waiting for, or — when the root
    /// was transparently re-homing a request — an error confirmation
    /// for that request, so the application is never left hanging.
    fn fail_connect(&mut self, ctx: &mut Ctx<'_>) {
        if self.announce {
            ctx.output(UP, McamCnf(McamPdu::AssociateRsp { accepted: false }));
        } else {
            self.resume.clear();
            ctx.output(
                UP,
                McamCnf(McamPdu::ErrorRsp {
                    code: 905,
                    message: "re-association after referral failed".into(),
                }),
            );
        }
    }

    /// Opens the presentation connection that carries `user`'s
    /// AssociateReq as its connect user data.
    fn connect(&self, ctx: &mut Ctx<'_>, user: String) {
        ctx.output(
            DOWN,
            PConReq {
                contexts: mcam_contexts(),
                user_data: self.op_to_pdu(McamOp::Associate { user }).encode(),
            },
        );
    }

    /// Sends `op` on the wire, tracking it as outstanding.
    fn send_op(&mut self, ctx: &mut Ctx<'_>, op: McamOp) {
        self.release_pending = matches!(op, McamOp::Release);
        self.last_op = Some(op.clone());
        let pdu = self.op_to_pdu(op);
        ctx.output(
            DOWN,
            PDataReq {
                context_id: 1,
                user_data: pdu.encode(),
            },
        );
    }

    /// Folds a confirmed (non-error) request/response pair into the
    /// session view the crash failover resumes from.
    fn note_response(&mut self, op: Option<McamOp>, pdu: &McamPdu, now: SimTime) {
        match pdu {
            McamPdu::SelectMovieRsp { params: Some(p) } => {
                self.session = Some(Session {
                    title: p.movie.title.clone(),
                    frame_rate: p.movie.frame_rate,
                    frame_count: p.movie.frame_count,
                    speed_pct: 100,
                    base_frame: 0,
                    playing_since: None,
                });
                return;
            }
            McamPdu::SelectMovieRsp { params: None }
            | McamPdu::DeselectMovieRsp
            | McamPdu::ReleaseRsp => {
                self.session = None;
                return;
            }
            _ => {}
        }
        let Some(frame) = self.session.as_ref().map(|s| s.frame_at(now)) else {
            return;
        };
        let sess = self.session.as_mut().expect("frame computed above");
        match op {
            Some(McamOp::Play { speed_pct }) => {
                sess.base_frame = frame;
                sess.speed_pct = speed_pct;
                sess.playing_since = Some(now);
            }
            Some(McamOp::Pause) => {
                sess.base_frame = frame;
                sess.playing_since = None;
            }
            Some(McamOp::Stop) => {
                sess.base_frame = 0;
                sess.playing_since = None;
            }
            Some(McamOp::Seek { frame }) => {
                sess.base_frame = frame.min(sess.frame_count);
                if sess.playing_since.is_some() {
                    sess.playing_since = Some(now);
                }
            }
            _ => {}
        }
    }

    fn op_to_pdu(&self, op: McamOp) -> McamPdu {
        match op {
            McamOp::Associate { user } => McamPdu::AssociateReq {
                user,
                referral_capable: self.referral_capable,
            },
            McamOp::Release => McamPdu::ReleaseReq,
            McamOp::CreateMovie {
                title,
                format,
                frame_rate,
                frame_count,
            } => McamPdu::CreateMovieReq {
                title,
                format,
                frame_rate,
                frame_count,
            },
            McamOp::DeleteMovie { title } => McamPdu::DeleteMovieReq { title },
            McamOp::SelectMovie { title } => McamPdu::SelectMovieReq {
                title,
                client_addr: self.client_addr,
            },
            McamOp::Deselect => McamPdu::DeselectMovieReq,
            McamOp::List { contains } => McamPdu::ListMoviesReq {
                title_contains: contains,
            },
            McamOp::Query { title, attrs } => McamPdu::QueryAttrsReq { title, attrs },
            McamOp::Modify { title, puts } => McamPdu::ModifyAttrsReq { title, puts },
            McamOp::Play { speed_pct } => McamPdu::PlayReq { speed_pct },
            McamOp::Pause => McamPdu::PauseReq,
            McamOp::Stop => McamPdu::StopReq,
            McamOp::Seek { frame } => McamPdu::SeekReq { frame },
            McamOp::Record { title, frames } => McamPdu::RecordReq { title, frames },
        }
    }
}

impl StateMachine for ClientMca {
    fn num_ips(&self) -> usize {
        3
    }

    fn initial_state(&self) -> StateId {
        UNBOUND
    }

    fn transitions() -> Vec<Transition<Self>> {
        vec![
            Transition::on(
                "start-associate",
                UNBOUND,
                CTRL,
                |m: &mut Self, ctx, msg| {
                    let start = downcast::<StartAssociate>(msg.unwrap()).unwrap();
                    m.announce = start.announce;
                    m.resume = start.resume;
                    m.connect(ctx, start.user);
                },
            )
            .provided(|_, msg| is::<StartAssociate>(msg))
            .to(CONNECTING)
            .cost(COST_REQ),
            Transition::on("assoc-cnf", CONNECTING, DOWN, |m: &mut Self, ctx, msg| {
                let cnf = downcast::<PConCnf>(msg.unwrap()).unwrap();
                if !cnf.accepted {
                    // A refusal may be a referral: the server declined
                    // to carry this control association and named a
                    // better cluster member in the connect user data.
                    if m.referral_capable {
                        if let Ok(McamPdu::ReferralRsp { target, candidates }) =
                            McamPdu::decode(&cnf.user_data)
                        {
                            ctx.output(
                                CTRL,
                                ReferralSignal {
                                    target,
                                    candidates,
                                    resume: std::mem::take(&mut m.resume),
                                },
                            );
                            ctx.goto(UNBOUND);
                            return;
                        }
                    }
                    m.fail_connect(ctx);
                    ctx.goto(UNBOUND);
                    return;
                }
                match McamPdu::decode(&cnf.user_data) {
                    Ok(rsp @ McamPdu::AssociateRsp { accepted: true }) => {
                        ctx.output(CTRL, AssocSettled);
                        if m.announce {
                            ctx.output(UP, McamCnf(rsp));
                        }
                        // A referral (or crash failover) interrupted
                        // the session: replay the queued operations on
                        // the new association, one at a time — the
                        // final one's confirmation is the one the
                        // application is waiting for.
                        if m.resume.is_empty() {
                            ctx.goto(READY);
                        } else {
                            let op = m.resume.remove(0);
                            m.send_op(ctx, op);
                            ctx.goto(WAITING);
                        }
                    }
                    Ok(rsp @ McamPdu::AssociateRsp { accepted: false }) => {
                        if m.announce {
                            ctx.output(UP, McamCnf(rsp));
                        } else {
                            m.fail_connect(ctx);
                        }
                        ctx.goto(UNBOUND);
                    }
                    _ => {
                        m.protocol_errors += 1;
                        m.fail_connect(ctx);
                        ctx.goto(UNBOUND);
                    }
                }
            })
            .provided(|_, msg| is::<PConCnf>(msg))
            .cost(COST_REQ),
            Transition::on("request", READY, UP, |m: &mut Self, ctx, msg| {
                let req = downcast::<McamReq>(msg.unwrap()).unwrap();
                m.send_op(ctx, req.0);
            })
            .provided(|_, msg| is::<McamReq>(msg))
            .to(WAITING)
            .cost(COST_REQ),
            Transition::on("response", WAITING, DOWN, |m: &mut Self, ctx, msg| {
                let ind = downcast::<PDataInd>(msg.unwrap()).unwrap();
                match McamPdu::decode(&ind.user_data) {
                    // Mid-session referral: the server (overloaded or
                    // draining) declined the outstanding request and
                    // named a better home. Hand target + request to
                    // the root, which re-dials and replays it there;
                    // this association is dead to us.
                    Ok(McamPdu::ReferralRsp { target, candidates }) if m.referral_capable => {
                        let mut resume: Vec<McamOp> = m.last_op.take().into_iter().collect();
                        resume.extend(std::mem::take(&mut m.resume));
                        ctx.output(
                            CTRL,
                            ReferralSignal {
                                target,
                                candidates,
                                resume,
                            },
                        );
                        ctx.goto(UNBOUND);
                    }
                    Ok(pdu) => {
                        // A saturation report voids whatever referral
                        // the root cached: cluster load has moved.
                        if matches!(pdu, McamPdu::ErrorRsp { code: 503, .. }) {
                            ctx.output(CTRL, ReferralStale);
                        }
                        let op = m.last_op.take();
                        let is_err = matches!(pdu, McamPdu::ErrorRsp { .. });
                        if !is_err {
                            m.note_response(op, &pdu, ctx.now());
                        }
                        if m.release_pending && pdu == McamPdu::ReleaseRsp {
                            // The MCAM association is gone; tear down
                            // the presentation association before
                            // confirming to the user.
                            ctx.output(DOWN, PRelReq);
                            ctx.goto(P_RELEASING);
                        } else if !is_err && !m.resume.is_empty() {
                            // Mid-replay: this confirmation belongs to
                            // a replayed step, not to an application
                            // request — swallow it and send the next.
                            let op = m.resume.remove(0);
                            m.send_op(ctx, op);
                        } else {
                            // An error aborts the rest of a replay;
                            // its report is the final confirmation.
                            m.resume.clear();
                            ctx.output(UP, McamCnf(pdu));
                            ctx.goto(READY);
                        }
                    }
                    Err(_) => {
                        m.protocol_errors += 1;
                        ctx.output(
                            UP,
                            McamCnf(McamPdu::ErrorRsp {
                                code: 900,
                                message: "undecodable response".into(),
                            }),
                        );
                        ctx.goto(READY);
                    }
                }
            })
            .provided(|_, msg| is::<PDataInd>(msg))
            .cost(COST_REQ),
            Transition::on("released", P_RELEASING, DOWN, |m: &mut Self, ctx, msg| {
                let _ = downcast::<PRelCnf>(msg.unwrap()).unwrap();
                m.release_pending = false;
                ctx.output(UP, McamCnf(McamPdu::ReleaseRsp));
            })
            .provided(|_, msg| is::<PRelCnf>(msg))
            .to(UNBOUND)
            .cost(COST_REQ),
            Transition::on("aborted", UNBOUND, DOWN, |m: &mut Self, ctx, msg| {
                let _ = downcast::<PAbortInd>(msg.unwrap()).unwrap();
                m.protocol_errors += 1;
                m.last_op = None;
                m.resume.clear();
                // Crash failover: a capable client with a confirmed
                // session asks its root to re-home it on a surviving
                // replica (empty target: the root picks from cached
                // candidates — so no ReferralStale here, the cache is
                // exactly what failover needs), replaying select /
                // seek / play to resume near the last played frame.
                // An interrupted request is superseded by the
                // re-established state; the final replayed
                // confirmation answers it.
                if m.referral_capable {
                    if let Some(sess) = m.session.take() {
                        let frame = sess.frame_at(ctx.now());
                        let mut resume = vec![McamOp::SelectMovie {
                            title: sess.title.clone(),
                        }];
                        if frame > 0 {
                            resume.push(McamOp::Seek { frame });
                        }
                        if sess.playing_since.is_some() {
                            resume.push(McamOp::Play {
                                speed_pct: sess.speed_pct,
                            });
                        }
                        ctx.output(
                            CTRL,
                            ReferralSignal {
                                target: String::new(),
                                candidates: Vec::new(),
                                resume,
                            },
                        );
                        ctx.goto(UNBOUND);
                        return;
                    }
                }
                m.session = None;
                ctx.output(CTRL, ReferralStale);
                ctx.output(
                    UP,
                    McamCnf(McamPdu::ErrorRsp {
                        code: 999,
                        message: "association aborted".into(),
                    }),
                );
            })
            .any_state()
            .provided(|_, msg| is::<PAbortInd>(msg))
            .priority(1)
            .to(UNBOUND)
            .cost(COST_REQ),
            // Re-association: after a Release the MCA returns to
            // UNBOUND; a fresh Associate from the application re-runs
            // connection establishment on the same stack.
            Transition::on("re-associate", UNBOUND, UP, |m: &mut Self, ctx, msg| {
                let req = downcast::<McamReq>(msg.unwrap()).unwrap();
                let McamOp::Associate { user } = req.0 else {
                    unreachable!("guard admits only Associate")
                };
                m.announce = true;
                m.resume.clear();
                m.connect(ctx, user);
            })
            .provided(|_, msg| {
                msg.and_then(|m| m.downcast_ref::<McamReq>())
                    .is_some_and(|r| matches!(r.0, McamOp::Associate { .. }))
            })
            .priority(100)
            .to(CONNECTING)
            .cost(COST_REQ),
            // Requests issued while no association exists fail locally.
            Transition::on("request-unbound", UNBOUND, UP, |m: &mut Self, ctx, msg| {
                let _ = downcast::<McamReq>(msg.unwrap()).unwrap();
                m.protocol_errors += 1;
                ctx.output(
                    UP,
                    McamCnf(McamPdu::ErrorRsp {
                        code: 901,
                        message: "not associated".into(),
                    }),
                );
            })
            .provided(|_, msg| is::<McamReq>(msg))
            .priority(200)
            .cost(SimDuration::from_micros(20)),
        ]
    }
}
