//! The MCA's child agents (Fig. 3): DUA, SUA/SPA and EUA as Estelle
//! modules whose bodies are `external` — thin wrappers over the
//! directory, stream-provider, and equipment services.

use crate::service::{
    DirOp, DirOutcome, DirRequest, DirResponse, EquipOp, EquipOutcome, EquipRequest, EquipResponse,
    StreamOp, StreamOutcome, StreamRequest, StreamResponse,
};
use crate::sps::StreamProviderSystem;
use directory::{attr, Dn, Dua, Filter, ModOp, MovieEntry, Rdn, Scope};
use equipment::{ClientId, Eca, EquipmentId};
use estelle::{downcast, IpIndex, StateId, StateMachine, Transition};
use netsim::SimDuration;
use std::sync::Arc;
use store::StoreError;

/// Every agent exposes one interaction point to its MCA parent.
pub const AGENT_IP: IpIndex = IpIndex(0);

const RUN: StateId = StateId(0);
const AGENT_COST: SimDuration = SimDuration::from_micros(120);

/// Directory User Agent: executes [`DirOp`]s against the movie
/// directory.
#[derive(Debug)]
pub struct DuaAgent {
    dua: Dua,
    base: Dn,
}

impl DuaAgent {
    /// Creates an agent querying through `dua` under `base`.
    pub(crate) fn new(dua: Dua, base: Dn) -> Self {
        DuaAgent { dua, base }
    }

    fn movie_dn(&self, title: &str) -> Dn {
        self.base.child(Rdn::new("cn", title))
    }

    fn execute(&self, op: DirOp) -> DirOutcome {
        match op {
            DirOp::Add { entry } => {
                let dn = self.movie_dn(&entry.title);
                match self.dua.add(dn, entry.to_attrs()) {
                    Ok(()) => DirOutcome::Done,
                    Err(e) => DirOutcome::Failed(e.to_string()),
                }
            }
            DirOp::Remove { title } => match self.dua.remove(&self.movie_dn(&title)) {
                Ok(_) => DirOutcome::Done,
                Err(e) => DirOutcome::Failed(e.to_string()),
            },
            DirOp::Lookup { title } => match self.dua.read(&self.movie_dn(&title)) {
                Ok(attrs) => match MovieEntry::from_attrs(&attrs) {
                    Ok(entry) => DirOutcome::Movie(entry),
                    Err(e) => DirOutcome::Failed(e.to_string()),
                },
                Err(e) => DirOutcome::Failed(e.to_string()),
            },
            DirOp::List { contains } => {
                let filter = if contains.is_empty() {
                    Filter::eq_str(attr::OBJECT_CLASS, "movie")
                } else {
                    Filter::And(vec![
                        Filter::eq_str(attr::OBJECT_CLASS, "movie"),
                        Filter::Contains(attr::TITLE.into(), contains),
                    ])
                };
                match self.dua.search(&self.base, Scope::Subtree, &filter) {
                    Ok(hits) => DirOutcome::Titles(
                        hits.iter()
                            .filter_map(|(_, a)| {
                                a.get(attr::TITLE)
                                    .and_then(|v| v.as_str())
                                    .map(str::to_owned)
                            })
                            .collect(),
                    ),
                    Err(e) => DirOutcome::Failed(e.to_string()),
                }
            }
            DirOp::Query { title, attrs } => match self.dua.read(&self.movie_dn(&title)) {
                Ok(all) => {
                    let selected: Vec<(String, asn1::Value)> = all
                        .into_iter()
                        .filter(|(k, _)| {
                            attrs.is_empty() || attrs.iter().any(|a| a.eq_ignore_ascii_case(k))
                        })
                        .collect();
                    DirOutcome::Attrs(selected)
                }
                Err(e) => DirOutcome::Failed(e.to_string()),
            },
            DirOp::Modify { title, puts } => {
                let mods: Vec<ModOp> = puts.into_iter().map(|(k, v)| ModOp::Put(k, v)).collect();
                match self.dua.modify(&self.movie_dn(&title), &mods) {
                    Ok(()) => DirOutcome::Done,
                    Err(e) => DirOutcome::Failed(e.to_string()),
                }
            }
        }
    }
}

impl StateMachine for DuaAgent {
    fn num_ips(&self) -> usize {
        1
    }
    fn initial_state(&self) -> StateId {
        RUN
    }
    fn transitions() -> Vec<Transition<Self>> {
        vec![
            Transition::on("dir-op", RUN, AGENT_IP, |m: &mut Self, ctx, msg| {
                let req = downcast::<DirRequest>(msg.expect("when clause"))
                    .expect("DUA agents receive DirRequest only");
                let outcome = m.execute(req.0);
                ctx.output(AGENT_IP, DirResponse(outcome));
            })
            .cost(AGENT_COST),
        ]
    }
}

/// Stream agent (SPA on the server): executes [`StreamOp`]s against
/// the stream provider system — the local one, or a replica peer's
/// when the MCA's routing step named one.
#[derive(Debug)]
pub struct SuaAgent {
    sps: Arc<StreamProviderSystem>,
    peers: Arc<SpsRegistry>,
    /// The cluster control plane shared with the publish path:
    /// closing a recording hands the title to it for replication to
    /// `k - 1` peers and for later grow/shrink/drain decisions.
    rebalancer: Arc<ClusterController>,
}

/// The cluster registry of stream providers, keyed by their
/// `"node-<n>"` location names.
pub type SpsRegistry = cluster::ReplicaDirectory<Arc<StreamProviderSystem>>;

/// The cluster control plane over the stream providers.
pub type ClusterController = cluster::RebalanceController<Arc<StreamProviderSystem>>;

/// An admission refusal reaches the MCA as such — the server is
/// storage-saturated, not broken; every other error is a failure.
impl From<StoreError> for StreamOutcome {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::AdmissionRejected {
                demanded_bps,
                available_bps,
            } => StreamOutcome::Rejected {
                demanded_bps,
                available_bps,
            },
            e => StreamOutcome::Failed(e.to_string()),
        }
    }
}

impl SuaAgent {
    /// Creates an agent controlling `sps`, with `peers` resolving the
    /// replica locations named in routed open requests and
    /// `rebalancer` adopting finished recordings.
    pub(crate) fn new(
        sps: Arc<StreamProviderSystem>,
        peers: Arc<SpsRegistry>,
        rebalancer: Arc<ClusterController>,
    ) -> Self {
        SuaAgent {
            sps,
            peers,
            rebalancer,
        }
    }

    /// The provider hosting `stream_id`: the local one when it holds
    /// the stream (or when nobody does — unknown ids then fail with
    /// the local provider's error), else the registered peer hosting
    /// it. Asking the providers instead of caching an id → provider
    /// map keeps the agent stateless across stream lifetimes — the
    /// MCA may close a routed stream through any path (release,
    /// abort) without the agent leaking or misrouting stale entries.
    fn provider_of(&self, stream_id: u32) -> Arc<StreamProviderSystem> {
        if self.sps.has_stream(stream_id) {
            return Arc::clone(&self.sps);
        }
        self.peers
            .find(|sps| sps.has_stream(stream_id))
            .unwrap_or_else(|| Arc::clone(&self.sps))
    }

    fn execute(&self, op: StreamOp, now: netsim::SimTime) -> StreamOutcome {
        let done = |r: Result<(), StoreError>| match r {
            Ok(()) => StreamOutcome::Done,
            Err(e) => e.into(),
        };
        match op {
            StreamOp::Open {
                movie,
                dest,
                location,
            } => {
                let target = match &location {
                    None => Arc::clone(&self.sps),
                    Some(loc) => match self.peers.get(loc) {
                        Some(sps) => sps,
                        None => {
                            return StreamOutcome::Failed(format!("unknown replica location {loc}"))
                        }
                    },
                };
                match target.open(movie, netsim::NetAddr(dest), now) {
                    Ok(id) => StreamOutcome::Opened {
                        stream_id: id,
                        provider_addr: target.addr().0,
                        location: target.location(),
                    },
                    Err(e) => e.into(),
                }
            }
            StreamOp::Close { stream_id } => done(self.provider_of(stream_id).close(stream_id)),
            StreamOp::OpenRecord { movie } => match self.sps.record_open(movie, now) {
                Ok(id) => StreamOutcome::RecordStarted { stream_id: id },
                Err(e) => e.into(),
            },
            StreamOp::CloseRecord { stream_id, title } => match self.sps.record_close(stream_id) {
                Ok(recorded) => {
                    // Replicate like a published movie: the control
                    // plane keeps the original on the recorder, picks
                    // k - 1 peers (never a draining server), fans the
                    // copy out through their write paths, and tracks
                    // the title for later rebalancing.
                    let replicas = self.rebalancer.adopt_recording(
                        &title,
                        &recorded.source,
                        &self.sps.location(),
                        now,
                    );
                    StreamOutcome::Recorded {
                        frame_count: recorded.source.frame_count,
                        frame_rate: recorded.source.frame_rate,
                        bitrate_bps: recorded.bitrate_bps,
                        replicas,
                    }
                }
                Err(e) => e.into(),
            },
            StreamOp::Play {
                stream_id,
                speed_pct,
            } => done(self.provider_of(stream_id).play(stream_id, speed_pct, now)),
            StreamOp::Pause { stream_id } => done(self.provider_of(stream_id).pause(stream_id)),
            StreamOp::Stop { stream_id } => done(self.provider_of(stream_id).stop(stream_id, now)),
            StreamOp::Seek { stream_id, frame } => {
                done(self.provider_of(stream_id).seek(stream_id, frame, now))
            }
        }
    }
}

impl StateMachine for SuaAgent {
    fn num_ips(&self) -> usize {
        1
    }
    fn initial_state(&self) -> StateId {
        RUN
    }
    fn transitions() -> Vec<Transition<Self>> {
        vec![
            Transition::on("stream-op", RUN, AGENT_IP, |m: &mut Self, ctx, msg| {
                let req = downcast::<StreamRequest>(msg.expect("when clause"))
                    .expect("SUA agents receive StreamRequest only");
                let outcome = m.execute(req.0, ctx.now());
                ctx.output(AGENT_IP, StreamResponse(outcome));
            })
            .cost(AGENT_COST),
        ]
    }
}

/// Equipment User Agent (EUA, Fig. 3): executes [`EquipOp`]s against
/// the server site's [`Eca`], which it calls directly. It is the only
/// EUA implementation; each server entity runs one as its `eua` child.
#[derive(Debug)]
pub struct EuaAgent {
    eca: Arc<Eca>,
    held: Vec<EquipmentId>,
}

impl EuaAgent {
    /// Every server entity's agent acts as this equipment client, so
    /// they all hold the site's devices as one client.
    const CLIENT: ClientId = ClientId(0);

    /// Creates an agent for the server site `eca` serves.
    pub(crate) fn new(eca: &Arc<Eca>) -> Self {
        EuaAgent {
            eca: Arc::clone(eca),
            held: Vec::new(),
        }
    }

    fn execute(&mut self, op: EquipOp) -> EquipOutcome {
        match op {
            EquipOp::AcquireClass(class) => {
                let id = match self.eca.acquire_class(class, Self::CLIENT) {
                    Ok(id) => id,
                    Err(e) => return EquipOutcome::Failed(e.to_string()),
                };
                if let Err(e) = self.eca.activate(id, Self::CLIENT) {
                    let _ = self.eca.release(id, Self::CLIENT);
                    return EquipOutcome::Failed(e.to_string());
                }
                self.held.push(id);
                EquipOutcome::Acquired(id)
            }
            EquipOp::ReleaseAll => {
                for id in self.held.drain(..) {
                    let _ = self.eca.release(id, Self::CLIENT);
                }
                EquipOutcome::Done
            }
        }
    }
}

impl StateMachine for EuaAgent {
    fn num_ips(&self) -> usize {
        1
    }
    fn initial_state(&self) -> StateId {
        RUN
    }
    fn transitions() -> Vec<Transition<Self>> {
        vec![
            Transition::on("equip-op", RUN, AGENT_IP, |m: &mut Self, ctx, msg| {
                let req = downcast::<EquipRequest>(msg.expect("when clause"))
                    .expect("EUA agents receive EquipRequest only");
                let outcome = m.execute(req.0);
                ctx.output(AGENT_IP, EquipResponse(outcome));
            })
            .cost(AGENT_COST),
        ]
    }
}

/// Derives the synthetic stream source for a directory movie entry.
/// The per-title seed keeps frame sizes stable across selects.
pub fn source_for_entry(entry: &MovieEntry) -> mtp::MovieSource {
    source_for_title(&entry.title, entry.frame_rate, entry.frame_count)
}

/// Derives the synthetic source for `title` directly — the record
/// path uses it before any directory entry exists, and because the
/// seed depends only on the title, a later `SelectMovie` of the
/// finalized entry reproduces the same source and finds the recorded
/// blocks in the store.
pub fn source_for_title(title: &str, frame_rate: u32, frame_count: u64) -> mtp::MovieSource {
    let seed = title.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    mtp::MovieSource {
        frame_count,
        frame_rate,
        i_size: 12_000,
        p_size: 5_000,
        b_size: 1_800,
        gop: 12,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use equipment::{DeviceState, EcsError, EquipmentClass};

    const CAMERA: EquipOp = EquipOp::AcquireClass(EquipmentClass::Camera);

    fn site() -> (Arc<Eca>, EquipmentId, EquipmentId) {
        let eca = Eca::new("site-test");
        let cam = eca.register(EquipmentClass::Camera, "cam-0");
        let mic = eca.register(EquipmentClass::Microphone, "mic-0");
        (eca, cam, mic)
    }

    #[test]
    fn eua_agent_acquires_an_active_device_as_client_0() {
        let (eca, cam, _) = site();
        let mut eua = EuaAgent::new(&eca);
        assert_eq!(eua.execute(CAMERA), EquipOutcome::Acquired(cam));
        assert_eq!(eca.state(cam), Some(DeviceState::Active(ClientId(0))));
    }

    #[test]
    fn eua_agent_release_all_frees_everything_it_holds() {
        let (eca, cam, mic) = site();
        let mut eua = EuaAgent::new(&eca);
        eua.execute(CAMERA);
        let microphone = EquipOp::AcquireClass(EquipmentClass::Microphone);
        assert_eq!(eua.execute(microphone), EquipOutcome::Acquired(mic));
        assert_eq!(eua.execute(EquipOp::ReleaseAll), EquipOutcome::Done);
        assert_eq!(eca.state(cam), Some(DeviceState::Free));
        assert_eq!(eca.state(mic), Some(DeviceState::Free));
        // Nothing is held twice: a second release is a no-op.
        assert_eq!(eua.execute(EquipOp::ReleaseAll), EquipOutcome::Done);
    }

    #[test]
    fn eua_agent_reports_a_device_held_by_another_client() {
        let (eca, cam, _) = site();
        let rival = ClientId(42);
        eca.reserve(cam, rival).unwrap();
        let mut eua = EuaAgent::new(&eca);
        let refusal = EcsError::NoFreeDevice(EquipmentClass::Camera).to_string();
        assert_eq!(eua.execute(CAMERA), EquipOutcome::Failed(refusal));
        // The refusal holds nothing, so releasing leaves the rival's
        // reservation alone.
        eua.execute(EquipOp::ReleaseAll);
        assert_eq!(eca.state(cam), Some(DeviceState::Reserved(rival)));
    }

    /// ROADMAP's recorded `ClientId(0)` finding: every agent of a site
    /// is one equipment client, so a second agent is granted the
    /// camera the first holds (`vcr_record_mix`'s overlapping
    /// recorders rely on it). A client id per association changes this.
    #[test]
    fn eua_agents_of_one_site_share_its_devices_as_one_client() {
        let (eca, cam, _) = site();
        let mut first = EuaAgent::new(&eca);
        let mut second = EuaAgent::new(&eca);
        assert_eq!(first.execute(CAMERA), EquipOutcome::Acquired(cam));
        assert_eq!(second.execute(CAMERA), EquipOutcome::Acquired(cam));
        first.execute(EquipOp::ReleaseAll);
        assert_eq!(eca.state(cam), Some(DeviceState::Free));
    }
}
