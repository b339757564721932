//! The server-side MCAM entity: server MCA with DUA/SUA/EUA child
//! agents, and the server root module that spawns one entity per
//! incoming connection (paper §4.1: "a protocol entity implemented as
//! a process can accept a new CONNECT request and then create a new
//! child module to handle the new connection").
//!
//! The MCA is a three-state machine (Fig. 3: the one module written
//! entirely in Estelle, delegating to agents with external bodies).
//! A request arrives in READY; `dispatch`, which has the request in
//! hand, passes the operation to an agent through `ask` and leaves
//! behind a `Pending` saying what to do with the answer; the entity
//! waits BUSY until the agent's response transition runs it. For most
//! operations the answer alone decides the reply, so what is left
//! behind is a plain function from the agent's outcome to the response
//! PDU (`Pending::Dir`, `Pending::Stream`) and one arm per agent serves
//! them all. Two operations are chains of round-trips whose later
//! steps need what earlier ones learned, and their variants carry it:
//! `SelectMovie` (lookup, then an open that falls over from replica to
//! replica — the entry, the route still untried, the count for the
//! final 503) and `Record` (camera, admission, capture, finalize,
//! directory add, camera release — the title, then the reply itself).

use crate::agents::{
    source_for_entry, source_for_title, ClusterController, DuaAgent, EuaAgent, SpsRegistry,
    SuaAgent, AGENT_IP,
};
use crate::pdus::{McamPdu, MovieDesc, StreamParams};
use crate::service::{
    DirOp, DirOutcome, DirRequest, DirResponse, EquipOp, EquipOutcome, EquipRequest, EquipResponse,
    StreamOp, StreamOutcome, StreamRequest, StreamResponse,
};
use crate::sps::StreamProviderSystem;
use crate::stacks::{wire_lower_stack, StackKind};
use directory::{Dn, Dua, MovieEntry};
use estelle::{
    downcast, ip, is, Ctx, Interaction, IpIndex, ModuleKind, ModuleLabels, StateId, StateMachine,
    Transition,
};
use netsim::{Medium, SimDuration};
use parking_lot::Mutex;
use presentation::service::{PAbortInd, PConInd, PConRsp, PDataInd, PDataReq, PRelInd, PRelRsp};
use std::collections::HashMap;
use std::sync::Arc;
use std::task::Waker;

/// Interaction point to the presentation service.
pub const DOWN: IpIndex = IpIndex(0);
/// Interaction point to the DUA child agent.
pub const TO_DUA: IpIndex = IpIndex(1);
/// Interaction point to the SUA child agent.
pub const TO_SUA: IpIndex = IpIndex(2);
/// Interaction point to the EUA child agent.
pub const TO_EUA: IpIndex = IpIndex(3);

/// Awaiting an association.
pub const IDLE: StateId = StateId(0);
/// Associated; no server-side operation outstanding.
pub const READY: StateId = StateId(1);
/// An agent round-trip is outstanding.
pub const BUSY: StateId = StateId(2);

const COST_REQ: SimDuration = SimDuration::from_micros(250);

/// How long a referred-away entity survives before the root reaps it:
/// long enough for the referral reply to drain through its stack
/// modules (whose per-transition costs are microseconds) and onto the
/// wire.
const REAP_GRACE: SimDuration = SimDuration::from_millis(20);

/// MCAM error code for disk-bandwidth admission rejection (server
/// saturated; retry later or elsewhere).
pub const ERR_ADMISSION: u32 = 503;

/// Server entities whose client was referred away, waiting for the
/// [`ServerRoot`] to collect them — and the root's waker beside the
/// list, so that pushing *is* telling the root.
#[derive(Debug, Default)]
pub struct Reaper {
    list: Mutex<Vec<(estelle::ModuleId, netsim::SimTime)>>,
    wake: Mutex<Option<Waker>>,
}

impl Reaper {
    /// Schedules the entity whose MCA is `mca` for collection once
    /// `at` has passed, then wakes the root.
    pub fn push(&self, mca: estelle::ModuleId, at: netsim::SimTime) {
        self.list.lock().push((mca, at));
        let wake = self.wake.lock().clone();
        if let Some(wake) = wake {
            wake.wake();
        }
    }

    fn is_empty(&self) -> bool {
        self.list.lock().is_empty()
    }

    /// Removes and returns the entities whose grace period is over.
    fn take_due(&self, now: netsim::SimTime) -> Vec<estelle::ModuleId> {
        let mut list = self.list.lock();
        let due = list
            .iter()
            .filter(|(_, at)| *at <= now)
            .map(|(mca, _)| *mca)
            .collect();
        list.retain(|(_, at)| *at > now);
        due
    }
}

/// Shared handles every server entity needs.
#[derive(Debug, Clone)]
pub struct ServerServices {
    /// Directory client.
    pub dua: Dua,
    /// Directory subtree holding the movies.
    pub base: Dn,
    /// Stream provider of this server machine.
    pub sps: Arc<StreamProviderSystem>,
    /// The machine's continuous-media block store (disk stripes,
    /// buffer cache, admission control) feeding the stream provider.
    pub store: Arc<store::BlockStore>,
    /// The machine's stream-sharing merge engine (leader/follower
    /// flash-crowd batching). Inspect its groups and counters here;
    /// whether it merges at all is the world's `share_config` knob.
    pub share: Arc<share::ShareManager>,
    /// The cluster's stream providers by location: `SelectMovie`
    /// routing resolves a movie's replica locations here and probes
    /// each replica's admission load. A standalone server registers
    /// only itself.
    pub peers: Arc<SpsRegistry>,
    /// The cluster's control plane, shared across its servers and
    /// with the world's publish path: it owns replica placement,
    /// adopts finished recordings (replicating them to `k - 1`
    /// peers), grows hot titles onto idle servers, and drains
    /// servers out of service.
    pub rebalancer: Arc<ClusterController>,
    /// The cluster's control-association balancer: every accepted
    /// association is accounted here, and an incoming association
    /// (or a `SelectMovie` on a draining member) consults it to
    /// decide whether the client should be *referred* to a
    /// less-loaded member instead of served locally.
    pub control: Arc<cluster::ControlBalancer>,
    /// Server entities whose client was referred away: the client
    /// abandons the connection without a release handshake, so the
    /// entity reports itself here (with the instant it may be
    /// collected) and the [`ServerRoot`] reaps it — MCA plus lower
    /// stack — once the grace period has let the referral reply
    /// drain through the stack.
    pub reaper: Arc<Reaper>,
    /// The site's equipment control agent (ECA): every entity's
    /// [`EuaAgent`] reserves the site's devices here, all as
    /// `ClientId(0)`. Read device states through it, or reserve a
    /// device as another client to contend with `Record`.
    pub eca: Arc<equipment::Eca>,
    /// The world's event journal: route decisions, failovers,
    /// referrals, and admission outcomes are chained here under this
    /// server's location.
    pub journal: Arc<journal::Journal>,
}

impl ServerServices {
    /// The stream provider at `location`, or the local one when the
    /// location is not registered (single-server worlds, seeded
    /// entries with symbolic locations).
    pub fn sps_at(&self, location: &str) -> Arc<StreamProviderSystem> {
        self.peers
            .get(location)
            .unwrap_or_else(|| Arc::clone(&self.sps))
    }
}

/// The stream a server entity currently has selected, with the
/// replica location hosting it.
#[derive(Debug, Clone)]
struct Selected {
    params: StreamParams,
    location: String,
}

/// What the entity does with the agent response it is waiting for.
#[derive(Debug, Clone)]
enum Pending {
    /// A directory operation whose outcome alone decides the reply.
    Dir(fn(DirOutcome) -> McamPdu),
    /// An operation on the selected stream: `reply` confirms it (told
    /// whether the provider reported success), and `refused` names
    /// what an admission rejection is reported as refusing — `None`
    /// for operations confirmed whatever the provider said.
    Stream {
        reply: fn(bool) -> McamPdu,
        refused: Option<&'static str>,
    },
    SelectLookup {
        client_addr: u32,
    },
    SelectOpen {
        entry: MovieEntry,
        client_addr: u32,
        /// Replica location currently being tried (for the journal's
        /// failover trail).
        current: String,
        /// Replica locations still untried, best-first; `SelectMovie`
        /// falls over to the next one when a replica rejects.
        remaining: Vec<String>,
        /// Replicas attempted so far (for the final error report).
        tried: usize,
    },
    RecordAcquire {
        title: String,
        frames: u64,
    },
    /// Recording admission outstanding at the SUA.
    RecordOpen {
        title: String,
    },
    /// Capture in progress: the MCA waits (spontaneously polled) for
    /// the SPS to finish capturing and persisting.
    RecordCapture {
        title: String,
        stream_id: u32,
    },
    /// Finalize/replicate outstanding at the SUA.
    RecordClose {
        title: String,
    },
    RecordAdd,
    /// How the record attempt ended, carried across the camera-release
    /// round-trip so the reply matches the failure.
    RecordRelease {
        reply: McamPdu,
    },
}

/// The honest 503: the server is saturated, not broken.
fn saturated(message: String) -> McamPdu {
    McamPdu::ErrorRsp {
        code: ERR_ADMISSION,
        message,
    }
}

/// The 503 for `what` not fitting the disk bandwidth still uncommitted.
fn refusal(what: &str, demanded_bps: u64, available_bps: u64) -> McamPdu {
    saturated(format!(
        "admission rejected: {what} needs {demanded_bps} bps, \
         {available_bps} bps of disk bandwidth available"
    ))
}

/// The server-side Movie Control Agent.
#[derive(Debug)]
pub struct ServerMca {
    services: ServerServices,
    /// Associated user, when bound.
    pub user: Option<String>,
    /// The associated client advertised referral support.
    client_referral_capable: bool,
    /// This entity's association is counted in the control balancer.
    counted: bool,
    selected: Option<Selected>,
    /// Recording session in progress on the local provider, if any.
    recording: Option<u32>,
    pending: Option<Pending>,
    /// Protocol/decode errors observed.
    pub protocol_errors: u64,
    /// Labels inherited by the child agents.
    labels: ModuleLabels,
}

impl ServerMca {
    /// Creates a server MCA over the shared services.
    pub fn new(services: ServerServices, labels: ModuleLabels) -> Self {
        ServerMca {
            services,
            user: None,
            client_referral_capable: false,
            counted: false,
            selected: None,
            recording: None,
            pending: None,
            protocol_errors: 0,
            labels,
        }
    }

    /// Records an event under this server's hash chain.
    fn journal(&self, kind: journal::EventKind) {
        self.services
            .journal
            .record(&self.services.sps.location(), kind);
    }

    /// Stops counting this entity's association against the local
    /// server (released, aborted, or referred away).
    fn drop_association(&mut self) {
        if self.counted {
            self.services
                .control
                .disconnected(&self.services.sps.location());
            self.counted = false;
        }
        self.user = None;
    }

    /// Closes the selected stream, if any, on whichever replica hosts
    /// it, and aborts an in-progress recording (the association died
    /// under it; its bandwidth and blocks are reclaimed).
    fn close_selected(&mut self) {
        if let Some(sel) = self.selected.take() {
            let _ = self
                .services
                .sps_at(&sel.location)
                .close(sel.params.stream_id);
        }
        if let Some(id) = self.recording.take() {
            let _ = self.services.sps.close(id);
        }
    }

    fn reply(&self, ctx: &mut Ctx<'_>, pdu: McamPdu) {
        ctx.output(
            DOWN,
            PDataReq {
                context_id: 1,
                user_data: pdu.encode(),
            },
        );
    }

    fn error(&self, ctx: &mut Ctx<'_>, code: u32, message: &str) {
        self.reply(
            ctx,
            McamPdu::ErrorRsp {
                code,
                message: message.into(),
            },
        );
    }

    /// Answers the outstanding request; the association is READY for
    /// the next one.
    fn finish(&self, ctx: &mut Ctx<'_>, pdu: McamPdu) {
        self.reply(ctx, pdu);
        ctx.goto(READY);
    }

    /// Delegates `request` to the agent behind `ip`; `then` is what
    /// the entity does with the response it goes BUSY waiting for.
    fn ask(&mut self, ctx: &mut Ctx<'_>, ip: IpIndex, request: impl Interaction, then: Pending) {
        self.pending = Some(then);
        ctx.output(ip, request);
        ctx.goto(BUSY);
    }

    /// Delegates `op` on the selected stream to the SUA.
    fn ask_stream(
        &mut self,
        ctx: &mut Ctx<'_>,
        op: impl FnOnce(u32) -> StreamOp,
        reply: fn(bool) -> McamPdu,
        refused: Option<&'static str>,
    ) {
        match self.selected.as_ref().map(|sel| sel.params.stream_id) {
            Some(id) => {
                let then = Pending::Stream { reply, refused };
                self.ask(ctx, TO_SUA, StreamRequest(op(id)), then);
            }
            None => self.error(ctx, 404, "no movie selected"),
        }
    }

    /// Gives the camera back; `reply`, the record attempt's verdict,
    /// goes out once the EUA has it.
    fn release_camera(&mut self, ctx: &mut Ctx<'_>, reply: McamPdu) {
        let then = Pending::RecordRelease { reply };
        self.ask(ctx, TO_EUA, EquipRequest(EquipOp::ReleaseAll), then);
    }

    /// Asks the SUA to open `entry` towards the client on the replica
    /// at `location` (`None`: this machine, registered or not), with
    /// `remaining` to fall over to should it reject.
    fn open_at(
        &mut self,
        ctx: &mut Ctx<'_>,
        entry: MovieEntry,
        client_addr: u32,
        location: Option<String>,
        remaining: Vec<String>,
        tried: usize,
    ) {
        let open = StreamOp::Open {
            movie: source_for_entry(&entry),
            dest: client_addr,
            location: location.clone(),
        };
        let then = Pending::SelectOpen {
            entry,
            client_addr,
            current: location.unwrap_or_else(|| self.services.sps.location()),
            remaining,
            tried,
        };
        self.ask(ctx, TO_SUA, StreamRequest(open), then);
    }

    /// Control-plane referral: when the balancer names a better member
    /// for this client, journals the hand-off and returns the referral
    /// to send. The referred client re-dials the target and never
    /// speaks to this entity again, so the whole entity is scheduled
    /// for reaping.
    fn refer(&mut self, ctx: &mut Ctx<'_>) -> Option<McamPdu> {
        let local = self.services.sps.location();
        let loads = self.services.peers.loads();
        let target = self.services.control.refer_target(&local, &loads)?;
        self.journal(journal::EventKind::ReferralIssued {
            target: target.clone(),
        });
        let candidates = self.services.control.candidates(&loads);
        self.services
            .reaper
            .push(ctx.self_id(), ctx.now() + REAP_GRACE);
        Some(McamPdu::ReferralRsp { target, candidates })
    }

    /// Routing step: the movie's replicas ordered by the disk
    /// bandwidth their admission controllers still have uncommitted —
    /// breaking ties towards a replica already streaming the title in
    /// a merge group, where this viewer is likely admitted for free —
    /// best first. With no registered replica (seeded entries with
    /// symbolic locations, or every replica dead or draining), the
    /// cluster's live servers instead: the local one first (unless it
    /// is itself draining — a new stream must not land on it), then
    /// the peers most-available-first, so a momentarily busy local
    /// store fails over instead of refusing while a peer idles.
    fn route(&self, entry: &MovieEntry) -> Vec<String> {
        let peers = &self.services.peers;
        let movie = source_for_entry(entry);
        let mut candidates: Vec<String> = peers
            .route_by(&entry.replicas, |sps| sps.shares_source(&movie))
            .into_iter()
            .map(|(location, _)| location)
            .collect();
        if candidates.is_empty() {
            let local = self.services.sps.location();
            let mut fallback: Vec<(u64, String)> = peers
                .loads()
                .into_iter()
                .filter(|s| s.in_service() && s.location != local)
                .map(|s| (s.load.available_bps, s.location))
                .collect();
            fallback.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            // Local service only while the server is in the cluster:
            // draining and decommissioned machines must not host new
            // streams.
            if peers.get(&local).is_some() && !peers.is_draining(&local) {
                candidates.push(local);
            }
            candidates.extend(fallback.into_iter().map(|(_, l)| l));
        }
        candidates
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_>, pdu: McamPdu) {
        use McamPdu::*;
        match pdu {
            AssociateReq { .. } => {
                // Association is carried in the P-CONNECT exchange;
                // a second one inside the data phase is an error.
                self.protocol_errors += 1;
                self.error(ctx, 902, "already associated");
            }
            ReleaseReq => {
                // Tear down any CM stream, then confirm.
                self.close_selected();
                self.reply(ctx, ReleaseRsp);
            }
            CreateMovieReq {
                title,
                format,
                frame_rate,
                frame_count,
            } => {
                let mut entry =
                    MovieEntry::new(title, format!("node-{}", self.services.sps.addr().0));
                entry.format = format;
                entry.frame_rate = frame_rate.clamp(1, 120);
                entry.frame_count = frame_count;
                let then = Pending::Dir(|o| CreateMovieRsp {
                    ok: o == DirOutcome::Done,
                });
                self.ask(ctx, TO_DUA, DirRequest(DirOp::Add { entry }), then);
            }
            DeleteMovieReq { title } => {
                let then = Pending::Dir(|o| DeleteMovieRsp {
                    ok: o == DirOutcome::Done,
                });
                self.ask(ctx, TO_DUA, DirRequest(DirOp::Remove { title }), then);
            }
            ListMoviesReq { title_contains } => {
                let list = DirOp::List {
                    contains: title_contains,
                };
                let then = Pending::Dir(|o| ListMoviesRsp {
                    titles: match o {
                        DirOutcome::Titles(t) => t,
                        _ => Vec::new(),
                    },
                });
                self.ask(ctx, TO_DUA, DirRequest(list), then);
            }
            QueryAttrsReq { title, attrs } => {
                let then = Pending::Dir(|o| QueryAttrsRsp {
                    attrs: match o {
                        DirOutcome::Attrs(a) => Some(a),
                        _ => None,
                    },
                });
                self.ask(ctx, TO_DUA, DirRequest(DirOp::Query { title, attrs }), then);
            }
            ModifyAttrsReq { title, puts } => {
                let then = Pending::Dir(|o| ModifyAttrsRsp {
                    ok: o == DirOutcome::Done,
                });
                self.ask(ctx, TO_DUA, DirRequest(DirOp::Modify { title, puts }), then);
            }
            SelectMovieReq { title, client_addr } => {
                // Drain-away: a draining (or operator-pinned) server
                // hands its capable clients to a live member at their
                // next select, so control associations leave well
                // before decommission — and a server that already
                // decommissioned (drained instantly, with clients
                // still attached) refers them the same way instead of
                // serving as a zombie. The client replays the select
                // at the target; this entity's association is over.
                let local = self.services.sps.location();
                let leaving = self.client_referral_capable
                    && (self.services.peers.is_draining(&local)
                        || self.services.peers.get(&local).is_none()
                        || self.services.control.is_pinned(&local));
                if leaving {
                    if let Some(referral) = self.refer(ctx) {
                        self.reply(ctx, referral);
                        self.close_selected();
                        self.drop_association();
                        ctx.goto(IDLE);
                        return;
                    }
                }
                let then = Pending::SelectLookup { client_addr };
                self.ask(ctx, TO_DUA, DirRequest(DirOp::Lookup { title }), then);
            }
            DeselectMovieReq => {
                self.ask_stream(
                    ctx,
                    |stream_id| StreamOp::Close { stream_id },
                    |_| DeselectMovieRsp,
                    None,
                );
                self.selected = None;
            }
            PlayReq { speed_pct } => self.ask_stream(
                ctx,
                |stream_id| StreamOp::Play {
                    stream_id,
                    speed_pct,
                },
                |ok| PlayRsp { ok },
                Some("speed-up"),
            ),
            // A shared follower pausing out of its merge group needs a
            // full disk stream of its own; when admission cannot take
            // it the pause is refused honestly and the viewer keeps
            // riding the group.
            PauseReq => self.ask_stream(
                ctx,
                |stream_id| StreamOp::Pause { stream_id },
                |_| PauseRsp,
                Some("leaving the merge group"),
            ),
            StopReq => self.ask_stream(
                ctx,
                |stream_id| StreamOp::Stop { stream_id },
                |_| StopRsp,
                None,
            ),
            // Same honesty for seeks: a group member that cannot
            // re-admit its own stream stays merged at its old position
            // and the client is told why.
            SeekReq { frame } => self.ask_stream(
                ctx,
                |stream_id| StreamOp::Seek { stream_id, frame },
                |ok| SeekRsp { ok },
                Some("leaving the merge group"),
            ),
            RecordReq { title, frames } => {
                let camera = EquipOp::AcquireClass(equipment::EquipmentClass::Camera);
                let then = Pending::RecordAcquire { title, frames };
                self.ask(ctx, TO_EUA, EquipRequest(camera), then);
            }
            other => {
                self.protocol_errors += 1;
                self.error(ctx, 903, &format!("unexpected PDU {other:?}"));
            }
        }
    }

    /// An agent answered while the entity waited for something else
    /// (kept, should the right answer still come).
    fn stray(&mut self, ctx: &mut Ctx<'_>, pending: Option<Pending>) {
        self.protocol_errors += 1;
        self.pending = pending;
        ctx.goto(READY);
    }

    fn on_dir_response(&mut self, ctx: &mut Ctx<'_>, outcome: DirOutcome) {
        match self.pending.take() {
            Some(Pending::Dir(reply)) => self.finish(ctx, reply(outcome)),
            Some(Pending::SelectLookup { client_addr }) => match outcome {
                DirOutcome::Movie(entry) => {
                    let mut candidates = self.route(&entry);
                    let considered = candidates.len().max(1) as u32;
                    // Nothing live anywhere: last-resort local
                    // service keeps single-server worlds working.
                    let location = (!candidates.is_empty()).then(|| candidates.remove(0));
                    self.journal(journal::EventKind::RouteDecision {
                        title: entry.title.clone(),
                        target: location
                            .clone()
                            .unwrap_or_else(|| self.services.sps.location()),
                        candidates: considered,
                    });
                    self.open_at(ctx, entry, client_addr, location, candidates, 1);
                }
                _ => self.finish(ctx, McamPdu::SelectMovieRsp { params: None }),
            },
            Some(Pending::RecordAdd) => {
                let ok = outcome == DirOutcome::Done;
                self.release_camera(ctx, McamPdu::RecordRsp { ok });
            }
            other => self.stray(ctx, other),
        }
    }

    fn on_stream_response(&mut self, ctx: &mut Ctx<'_>, outcome: StreamOutcome) {
        match self.pending.take() {
            Some(Pending::Stream { reply, refused }) => match (outcome, refused) {
                (
                    StreamOutcome::Rejected {
                        demanded_bps,
                        available_bps,
                    },
                    Some(what),
                ) => self.finish(ctx, refusal(what, demanded_bps, available_bps)),
                (outcome, _) => self.finish(ctx, reply(outcome == StreamOutcome::Done)),
            },
            Some(Pending::SelectOpen {
                entry,
                client_addr,
                current,
                mut remaining,
                tried,
            }) => match outcome {
                StreamOutcome::Opened {
                    stream_id,
                    provider_addr,
                    location,
                } => {
                    let params = StreamParams {
                        provider_addr,
                        stream_id,
                        movie: MovieDesc {
                            title: entry.title,
                            format: entry.format,
                            frame_rate: entry.frame_rate,
                            frame_count: entry.frame_count,
                        },
                    };
                    self.selected = Some(Selected {
                        params: params.clone(),
                        location,
                    });
                    let params = Some(params);
                    self.finish(ctx, McamPdu::SelectMovieRsp { params });
                }
                StreamOutcome::Rejected {
                    demanded_bps,
                    available_bps,
                } if remaining.is_empty() => {
                    let message = format!(
                        "admission rejected on all {tried} replica(s): stream \
                         needs {demanded_bps} bps, {available_bps} bps of disk \
                         bandwidth available on the last one tried"
                    );
                    self.finish(ctx, saturated(message));
                }
                StreamOutcome::Rejected { .. } => {
                    // Failover: the chosen replica filled up (or was
                    // already fuller than its load snapshot said);
                    // try the next-best one.
                    let next = remaining.remove(0);
                    self.journal(journal::EventKind::Failover {
                        title: entry.title.clone(),
                        from: current,
                        to: next.clone(),
                    });
                    self.open_at(ctx, entry, client_addr, Some(next), remaining, tried + 1);
                }
                _ => self.finish(ctx, McamPdu::SelectMovieRsp { params: None }),
            },
            Some(Pending::RecordOpen { title }) => match outcome {
                StreamOutcome::RecordStarted { stream_id } => {
                    // Capture runs on the virtual clock; the MCA holds
                    // the association BUSY and a spontaneous
                    // transition fires when the SPS reports the
                    // recording captured and durable.
                    self.services
                        .sps
                        .on_recording_finished(stream_id, ctx.waker());
                    self.recording = Some(stream_id);
                    self.pending = Some(Pending::RecordCapture { title, stream_id });
                    ctx.goto(BUSY);
                }
                // The disks cannot absorb the recording next to the
                // admitted streams: give the camera back and report
                // saturation, not failure.
                StreamOutcome::Rejected {
                    demanded_bps,
                    available_bps,
                } => self.release_camera(ctx, refusal("recording", demanded_bps, available_bps)),
                _ => self.release_camera(ctx, McamPdu::RecordRsp { ok: false }),
            },
            Some(Pending::RecordClose { title }) => {
                self.recording = None;
                match outcome {
                    StreamOutcome::Recorded {
                        frame_count,
                        frame_rate,
                        bitrate_bps,
                        replicas,
                    } => {
                        // Finalize the directory entry with what was
                        // actually captured and where it now lives.
                        let primary = replicas
                            .first()
                            .cloned()
                            .unwrap_or_else(|| self.services.sps.location());
                        let mut entry = MovieEntry::new(title, primary);
                        entry.frame_count = frame_count;
                        entry.frame_rate = frame_rate.clamp(1, 120);
                        entry.bitrate_bps = bitrate_bps;
                        if !replicas.is_empty() {
                            entry.set_replicas(replicas);
                        }
                        let add = DirRequest(DirOp::Add { entry });
                        self.ask(ctx, TO_DUA, add, Pending::RecordAdd);
                    }
                    _ => self.release_camera(ctx, McamPdu::RecordRsp { ok: false }),
                }
            }
            other => self.stray(ctx, other),
        }
    }

    fn on_equip_response(&mut self, ctx: &mut Ctx<'_>, outcome: EquipOutcome) {
        /// Frame rate cameras capture at: the `Record` write path
        /// paces captured frames — and sizes its write-bandwidth
        /// demand — at this rate.
        const RECORD_FRAME_RATE: u32 = 25;
        match self.pending.take() {
            Some(Pending::RecordAcquire { title, frames }) => match outcome {
                EquipOutcome::Acquired(_) => {
                    // Camera in hand: ask the stream provider to open
                    // the admission-controlled recording session.
                    let movie = source_for_title(&title, RECORD_FRAME_RATE, frames);
                    let open = StreamRequest(StreamOp::OpenRecord { movie });
                    self.ask(ctx, TO_SUA, open, Pending::RecordOpen { title });
                }
                _ => self.finish(ctx, McamPdu::RecordRsp { ok: false }),
            },
            Some(Pending::RecordRelease { reply }) => self.finish(ctx, reply),
            other => self.stray(ctx, other),
        }
    }
}

impl StateMachine for ServerMca {
    fn num_ips(&self) -> usize {
        4
    }

    fn initial_state(&self) -> StateId {
        IDLE
    }

    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        // Fig. 3: the MCA's three sibling agents with external bodies.
        let dua = ctx.create_child(
            "dua",
            ModuleKind::Process,
            self.labels,
            DuaAgent::new(self.services.dua.clone(), self.services.base.clone()),
        );
        let sua = ctx.create_child(
            "sua",
            ModuleKind::Process,
            self.labels,
            SuaAgent::new(
                Arc::clone(&self.services.sps),
                Arc::clone(&self.services.peers),
                Arc::clone(&self.services.rebalancer),
            ),
        );
        let eua = ctx.create_child(
            "eua",
            ModuleKind::Process,
            self.labels,
            EuaAgent::new(&self.services.eca),
        );
        ctx.connect(ctx.self_ip(TO_DUA), ip(dua, AGENT_IP));
        ctx.connect(ctx.self_ip(TO_SUA), ip(sua, AGENT_IP));
        ctx.connect(ctx.self_ip(TO_EUA), ip(eua, AGENT_IP));
    }

    fn transitions() -> Vec<Transition<Self>> {
        vec![
            Transition::on("assoc-ind", IDLE, DOWN, |m: &mut Self, ctx, msg| {
                let ind = downcast::<PConInd>(msg.unwrap()).unwrap();
                match McamPdu::decode(&ind.user_data) {
                    Ok(McamPdu::AssociateReq {
                        user,
                        referral_capable,
                    }) => {
                        // Control-plane balancing: a capable client
                        // is referred to a less-loaded (or simply
                        // non-draining) cluster member instead of
                        // piling onto this one. Legacy clients are
                        // always served locally.
                        if referral_capable {
                            if let Some(referral) = m.refer(ctx) {
                                ctx.output(
                                    DOWN,
                                    PConRsp {
                                        accept: false,
                                        user_data: referral.encode(),
                                    },
                                );
                                return;
                            }
                        }
                        m.user = Some(user);
                        m.client_referral_capable = referral_capable;
                        m.services.control.connected(&m.services.sps.location());
                        m.counted = true;
                        let aare = McamPdu::AssociateRsp { accepted: true };
                        ctx.output(
                            DOWN,
                            PConRsp {
                                accept: true,
                                user_data: aare.encode(),
                            },
                        );
                        ctx.goto(READY);
                    }
                    _ => {
                        m.protocol_errors += 1;
                        ctx.output(
                            DOWN,
                            PConRsp {
                                accept: false,
                                user_data: Vec::new(),
                            },
                        );
                    }
                }
            })
            .provided(|_, msg| is::<PConInd>(msg))
            .cost(COST_REQ),
            Transition::on("request", READY, DOWN, |m: &mut Self, ctx, msg| {
                let ind = downcast::<PDataInd>(msg.unwrap()).unwrap();
                match McamPdu::decode(&ind.user_data) {
                    Ok(pdu) if pdu.is_request() => m.dispatch(ctx, pdu),
                    Ok(_) | Err(_) => {
                        m.protocol_errors += 1;
                        m.error(ctx, 904, "malformed request");
                    }
                }
            })
            .provided(|_, msg| is::<PDataInd>(msg))
            .cost(COST_REQ),
            Transition::on("dua-rsp", BUSY, TO_DUA, |m: &mut Self, ctx, msg| {
                let rsp = downcast::<DirResponse>(msg.unwrap()).unwrap();
                m.on_dir_response(ctx, rsp.0);
            })
            .cost(COST_REQ),
            Transition::on("sua-rsp", BUSY, TO_SUA, |m: &mut Self, ctx, msg| {
                let rsp = downcast::<StreamResponse>(msg.unwrap()).unwrap();
                m.on_stream_response(ctx, rsp.0);
            })
            .cost(COST_REQ),
            Transition::on("eua-rsp", BUSY, TO_EUA, |m: &mut Self, ctx, msg| {
                let rsp = downcast::<EquipResponse>(msg.unwrap()).unwrap();
                m.on_equip_response(ctx, rsp.0);
            })
            .cost(COST_REQ),
            // Capture completion is a state of the stream provider,
            // not a message: a spontaneous transition finalizes once
            // every frame is captured and every block durable.
            Transition::spontaneous("record-done", BUSY, |m: &mut Self, ctx, _| {
                let Some(Pending::RecordCapture { title, stream_id }) = m.pending.take() else {
                    unreachable!("guarded by the provided clause");
                };
                m.pending = Some(Pending::RecordClose {
                    title: title.clone(),
                });
                ctx.output(
                    TO_SUA,
                    StreamRequest(StreamOp::CloseRecord { stream_id, title }),
                );
            })
            .provided(|m, _| {
                matches!(
                    &m.pending,
                    Some(Pending::RecordCapture { stream_id, .. })
                        if m.services.sps.recording_finished(*stream_id)
                )
            })
            // Woken by `StreamProviderSystem::pump` when the recording
            // finishes (`on_recording_finished`).
            .woken()
            .cost(COST_REQ),
            Transition::on("rel-ind", READY, DOWN, |m: &mut Self, ctx, msg| {
                let _ = downcast::<PRelInd>(msg.unwrap()).unwrap();
                m.close_selected();
                m.drop_association();
                ctx.output(DOWN, PRelRsp);
            })
            .provided(|_, msg| is::<PRelInd>(msg))
            .to(IDLE)
            .cost(COST_REQ),
            Transition::on("abort-ind", IDLE, DOWN, |m: &mut Self, ctx, msg| {
                let _ = downcast::<PAbortInd>(msg.unwrap()).unwrap();
                m.close_selected();
                m.drop_association();
                let _ = ctx;
            })
            .any_state()
            .provided(|_, msg| is::<PAbortInd>(msg))
            .priority(1)
            .to(IDLE)
            .cost(COST_REQ),
        ]
    }
}

/// The server root: one per server machine. Spawns a complete server
/// entity (MCA + lower stack) for every connection medium handed to
/// it — the dynamic child-creation pattern of §4.
pub struct ServerRoot {
    services: ServerServices,
    stack: StackKind,
    /// Connection media awaiting a server entity, with their
    /// connection index.
    pub pending_media: Vec<(Box<dyn Medium>, u16)>,
    /// MCA module ids of spawned entities.
    pub entities: Vec<estelle::ModuleId>,
    /// Lower-stack modules per entity, so reaping an abandoned
    /// entity releases its whole connection subtree.
    stacks: Vec<(estelle::ModuleId, Vec<estelle::ModuleId>)>,
    /// Entities spawned per connection index (referral re-dials
    /// reuse the index; later incarnations get a name suffix).
    spawned: HashMap<u16, u32>,
    /// Entities reaped after their client was referred away.
    pub reaped: u64,
}

impl std::fmt::Debug for ServerRoot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerRoot")
            .field("stack", &self.stack)
            .field("pending", &self.pending_media.len())
            .field("entities", &self.entities.len())
            .finish_non_exhaustive()
    }
}

impl ServerRoot {
    /// Creates a server root spawning entities of the given stack
    /// flavour.
    pub fn new(services: ServerServices, stack: StackKind) -> Self {
        ServerRoot {
            services,
            stack,
            pending_media: Vec::new(),
            entities: Vec::new(),
            stacks: Vec::new(),
            spawned: HashMap::new(),
            reaped: 0,
        }
    }
}

impl StateMachine for ServerRoot {
    fn num_ips(&self) -> usize {
        0
    }

    fn initial_state(&self) -> StateId {
        StateId(0)
    }

    fn on_init(&mut self, ctx: &mut Ctx<'_>) {
        *self.services.reaper.wake.lock() = Some(ctx.waker());
    }

    fn transitions() -> Vec<Transition<Self>> {
        // Two states: RUN (0) accepts connections; REAPING (1) is a
        // bounce the root takes when referred-away entities await
        // collection — the state *change* re-arms the delay clause
        // (delays are measured from state entry), so the grace period
        // is real and the referral reply drains through the doomed
        // stack before it is released.
        const RUN: StateId = StateId(0);
        const REAPING: StateId = StateId(1);
        vec![
            Transition::spontaneous("accept", RUN, |m: &mut Self, ctx, _| {
                let (medium, conn) = m.pending_media.remove(0);
                let labels = ModuleLabels::layer_conn(0, conn);
                let incarnation = m.spawned.entry(conn).or_insert(0);
                let tag = if *incarnation == 0 {
                    conn.to_string()
                } else {
                    format!("{conn}r{incarnation}")
                };
                *incarnation += 1;
                let mca = ctx.create_child(
                    format!("server-mca-{tag}"),
                    ModuleKind::Process,
                    labels,
                    ServerMca::new(m.services.clone(), labels),
                );
                let stack = wire_lower_stack(ctx, mca, DOWN, m.stack, medium, conn, &tag);
                m.entities.push(mca);
                m.stacks.push((mca, stack));
            })
            .any_state()
            .provided(|m, _| !m.pending_media.is_empty())
            // Woken by `Runtime::with_machine_mut` (the world hands
            // over a connection's server-side medium).
            .woken()
            .cost(SimDuration::from_micros(400)),
            Transition::spontaneous("reap-arm", RUN, |_m: &mut Self, _ctx, _| {})
                .provided(|m, _| !m.services.reaper.is_empty())
                // Woken by `Reaper::push` (`ServerMca::refer`).
                .woken()
                .to(REAPING)
                .cost(SimDuration::from_micros(10)),
            // Release entities whose client was referred to another
            // server: the client never releases the association (it
            // re-dialed), so the entity and its stack would otherwise
            // accumulate forever. Only entries past their grace
            // deadline are collected; the rest re-arm the bounce.
            Transition::spontaneous("reap", REAPING, |m: &mut Self, ctx, _| {
                for mca in m.services.reaper.take_due(ctx.now()) {
                    m.entities.retain(|e| *e != mca);
                    let Some(idx) = m.stacks.iter().position(|(e, _)| *e == mca) else {
                        continue; // already collected
                    };
                    let (_, stack) = m.stacks.swap_remove(idx);
                    ctx.release_child(mca);
                    for module in stack {
                        ctx.release_child(module);
                    }
                    m.reaped += 1;
                }
            })
            .delay(REAP_GRACE)
            .to(RUN)
            .cost(SimDuration::from_micros(100)),
        ]
    }
}
