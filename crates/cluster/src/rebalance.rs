//! The cluster control plane: dynamic replica rebalancing, migration,
//! and server drain.
//!
//! The paper's architecture fixes a movie's replica set at publish
//! time, so a hot title saturates its K servers while the rest of the
//! cluster idles, and a server can never be taken out of service
//! without orphaning its titles. The [`RebalanceController`] closes
//! both gaps: it owns the whole replica lifecycle —
//!
//! * **place** — the initial K-replica placement of a published or
//!   recorded title (the policy that used to be called ad hoc from
//!   the publish and record paths);
//! * **grow** — when periodic [`ServerLoad`] samples show every
//!   holder of a title too saturated to admit one more stream while
//!   idle capacity exists elsewhere, schedule a copy of the title to
//!   the least-loaded non-holder;
//! * **shrink** — when a grown title's holders all run far below
//!   saturation again, trim the surplus replica from the routing set
//!   (the blocks stay on disk; only the directory stops advertising
//!   them);
//! * **migrate** — every copy is a *real store workload*: the target
//!   reserves the copy's bandwidth in the same admission controller
//!   playback draws on and writes blocks through the allocator and
//!   the elevator/SCAN queues at the reserved pace
//!   (`BlockStore::begin_import`), so migrations visibly compete with
//!   streams instead of teleporting data;
//! * **drain** — [`RebalanceController::drain`] migrates every
//!   sole-copy title off a server, stops new streams from routing to
//!   it (the registry skips draining servers), and decommissions it
//!   once its last stream closes, leaving zero under-replicated
//!   titles behind;
//! * **repair** — when a server *crashes* (marked via
//!   [`ReplicaDirectory::set_crashed`]) every title it held is
//!   suddenly under-replicated; the repair pass schedules copies back
//!   up to K from a surviving holder, bypassing the grow pass's
//!   saturation gate and retry budget — re-replication is
//!   load-bearing, not an optimisation.
//!
//! On every completed copy the controller pushes the title's new
//! replica list through its *directory sink*, so a `SelectMovie`
//! looked up after the migration immediately routes to the new copy.
//!
//! The controller is generic over the per-server handle `P` (an
//! `Arc<BlockStore>` in the benches and unit tests, an
//! `Arc<StreamProviderSystem>` in the live world) and is driven by
//! calling [`RebalanceController::tick`] with the netsim clock — the
//! world's driver does this between scheduler passes.

use crate::{least_loaded_key, LoadProbe, Placement, ReplicaDirectory, ServerLoad};
use journal::{kind, EventKind, Journal};
use mtp::MovieSource;
use netsim::{SimDuration, SimTime};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A server that can receive replica copies: the storage-facing half
/// of the control plane, which drives the store's import path
/// directly. Paced copies (`BlockStore::begin_import` …) reserve
/// admission bandwidth and take real disk time;
/// `BlockStore::import_movie` is the record-replication fan-out — an
/// immediate background copy, written through the same allocator and
/// disk queues but not admission-charged (a recording already paid
/// for its bandwidth while capturing).
pub trait MigrationHost {
    /// The server's block store.
    fn store(&self) -> &store::BlockStore;
}

impl<T: MigrationHost + ?Sized> MigrationHost for Arc<T> {
    fn store(&self) -> &store::BlockStore {
        (**self).store()
    }
}

impl MigrationHost for store::BlockStore {
    fn store(&self) -> &store::BlockStore {
        self
    }
}

/// Why a server could not be drained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrainError {
    /// The location is not registered in the cluster.
    UnknownServer(String),
    /// The location is already draining.
    AlreadyDraining(String),
    /// The server is the last holder of this title and no other
    /// server exists to migrate it to: draining it would lose the
    /// title.
    LastHolder(String),
}

impl fmt::Display for DrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrainError::UnknownServer(l) => write!(f, "unknown server {l}"),
            DrainError::AlreadyDraining(l) => write!(f, "{l} is already draining"),
            DrainError::LastHolder(t) => {
                write!(
                    f,
                    "refusing drain: last holder of title {t:?} with no migration target"
                )
            }
        }
    }
}
impl std::error::Error for DrainError {}

/// Tuning knobs of the control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceConfig {
    /// How often the controller samples cluster loads for grow/shrink
    /// decisions (migration completions and drains are polled on
    /// every tick).
    pub sample_interval: SimDuration,
    /// Copy bandwidth as a percentage of the title's mean bitrate:
    /// the reservation charged on the target and the pace the blocks
    /// are written at. 100 makes a migration compete exactly like one
    /// viewer of the title; higher trades more displacement for a
    /// faster copy.
    pub copy_speed_pct: u32,
}

/// Consecutive samples a copy may fail admission (or find no eligible
/// target) before the controller stops retrying the title's grow.
/// Drain migrations retry indefinitely — the drain cannot complete
/// without them.
const MAX_COPY_RETRIES: u32 = 64;

/// Most copies in flight at once across the cluster.
const MAX_CONCURRENT_COPIES: usize = 2;

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            sample_interval: SimDuration::from_millis(100),
            copy_speed_pct: 200,
        }
    }
}

/// Counter view over the controller's journal chain, surfaced through
/// `ClusterHandle::rebalance_stats` in the live world. Derived from
/// the event journal — the journal is the source of truth, this is a
/// convenience summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebalanceStats {
    /// Load-sampling passes taken.
    pub samples: u64,
    /// Grow copies started (hot title onto an idle server).
    pub grows_started: u64,
    /// Drain copies started (sole-copy title off a draining server).
    pub drain_copies_started: u64,
    /// Copies finished and folded into the replica set.
    pub copies_completed: u64,
    /// Copies abandoned (target deregistered or started draining
    /// mid-flight; reservation and blocks released).
    pub copies_aborted: u64,
    /// Copy attempts refused by target admission or lacking any
    /// eligible target (each is retried on a later sample).
    pub copy_rejections: u64,
    /// Surplus replicas trimmed from cooled-down titles.
    pub shrinks: u64,
    /// Drains accepted.
    pub drains_started: u64,
    /// Drains completed (server decommissioned).
    pub drains_completed: u64,
    /// Replica lists pushed through the directory sink.
    pub directory_updates: u64,
}

/// Callback the controller uses to rewrite a title's replica list in
/// the movie directory after a rebalance. Returns false when the
/// entry could not be updated yet (e.g. the record path has not added
/// it); the controller retries on later ticks.
pub type ReplicaSink = Box<dyn Fn(&str, &[String]) -> bool + Send + Sync>;

/// What a copy was for; a grow is best-effort, a drain copy is
/// load-bearing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyReason {
    Grow,
    Drain,
}

struct ActiveCopy<P> {
    title: String,
    target: String,
    import_id: u32,
    host: P,
    reason: CopyReason,
}

#[derive(Debug, Clone)]
struct TitleRec {
    source: MovieSource,
    replicas: Vec<String>,
    /// Consecutive failed grow attempts; reset when the pressure
    /// clears or a copy lands.
    retries: u32,
    /// The replica list changed and has not reached the directory.
    dirty: bool,
}

struct Inner<P> {
    titles: BTreeMap<String, TitleRec>,
    active: Vec<ActiveCopy<P>>,
    draining: Vec<String>,
    decommissioned: Vec<String>,
    next_sample: Option<SimTime>,
}

/// The cluster control plane: owns replica placement and its
/// evolution over the cluster's lifetime. See the module docs for the
/// lifecycle it drives.
pub struct RebalanceController<P> {
    dir: Arc<ReplicaDirectory<P>>,
    placement: Mutex<Placement>,
    config: RebalanceConfig,
    sink: Option<ReplicaSink>,
    /// Every control-plane step is recorded here under `actor`'s hash
    /// chain; [`RebalanceController::stats`] is derived from it. A
    /// standalone journal (stamped via tick times) is used unless
    /// [`RebalanceController::with_journal`] wires in the shared one.
    journal: Arc<Journal>,
    actor: String,
    inner: Mutex<Inner<P>>,
}

impl<P> fmt::Debug for RebalanceController<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("RebalanceController")
            .field("titles", &inner.titles.len())
            .field("active_copies", &inner.active.len())
            .field("draining", &inner.draining)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<P> RebalanceController<P> {
    /// Counter view derived from the event journal (O(1) per field).
    pub fn stats(&self) -> RebalanceStats {
        let count = |tag| self.journal.count_for(&self.actor, tag);
        RebalanceStats {
            samples: count(kind::REBALANCE_SAMPLE),
            grows_started: count(kind::GROW_STARTED),
            drain_copies_started: count(kind::DRAIN_COPY_STARTED),
            copies_completed: count(kind::COPY_COMPLETED),
            copies_aborted: count(kind::COPY_ABORTED),
            copy_rejections: count(kind::COPY_REJECTED),
            shrinks: count(kind::SHRINK),
            drains_started: count(kind::DRAIN_STARTED),
            drains_completed: count(kind::DRAIN_COMPLETED),
            directory_updates: count(kind::DIRECTORY_UPDATE),
        }
    }
}

impl<P: LoadProbe + MigrationHost + Clone> RebalanceController<P> {
    /// Creates a controller over the cluster registry `dir`, with
    /// `placement` deciding initial replica sets.
    pub fn new(
        dir: Arc<ReplicaDirectory<P>>,
        placement: Placement,
        config: RebalanceConfig,
    ) -> Self {
        RebalanceController {
            dir,
            placement: Mutex::new(placement),
            config,
            sink: None,
            journal: Arc::new(Journal::standalone()),
            actor: "rebalance".to_string(),
            inner: Mutex::new(Inner {
                titles: BTreeMap::new(),
                active: Vec::new(),
                draining: Vec::new(),
                decommissioned: Vec::new(),
                next_sample: None,
            }),
        }
    }

    /// Attaches the directory sink invoked whenever a title's replica
    /// list changes.
    pub fn with_sink(mut self, sink: ReplicaSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Records control-plane events into `journal` under `actor`'s
    /// hash chain instead of the controller's private journal, so one
    /// simulation-wide journal tells the whole story.
    pub fn with_journal(mut self, journal: Arc<Journal>, actor: impl Into<String>) -> Self {
        self.journal = journal;
        self.actor = actor.into();
        self
    }

    /// The actor name the controller's events are chained under.
    pub fn actor(&self) -> &str {
        &self.actor
    }

    /// Copies currently in flight.
    #[cfg(test)]
    fn active_copies(&self) -> usize {
        self.inner.lock().active.len()
    }

    /// The catalog: every tracked title with its current replica set.
    pub fn titles(&self) -> Vec<(String, Vec<String>)> {
        self.inner
            .lock()
            .titles
            .iter()
            .map(|(t, rec)| (t.clone(), rec.replicas.clone()))
            .collect()
    }

    /// The tracked replica locations of `title`, if known.
    pub fn replicas_of(&self, title: &str) -> Option<Vec<String>> {
        self.inner
            .lock()
            .titles
            .get(title)
            .map(|rec| rec.replicas.clone())
    }

    /// Initial placement of a published title: K replicas per the
    /// placement policy (never on a draining server), tracked in the
    /// catalog for later grow/shrink/drain decisions. Returns the
    /// chosen locations, primary first.
    pub fn place_title(&self, title: &str, source: &MovieSource) -> Vec<String> {
        let replicas = self.placement.lock().place(&self.dir.loads());
        self.track_title(title, source, replicas.clone());
        replicas
    }

    /// Enters (or replaces) a title in the catalog with a fresh
    /// lifecycle state — the single path both publish and record
    /// tracking go through.
    fn track_title(&self, title: &str, source: &MovieSource, replicas: Vec<String>) {
        self.inner.lock().titles.insert(
            title.to_string(),
            TitleRec {
                source: source.clone(),
                replicas,
                retries: 0,
                dirty: false,
            },
        );
    }

    /// Adopts a finished recording that already lives on `origin`:
    /// picks `k - 1` peers (never the origin, never a draining
    /// server), fans the copy out to them through the bulk import
    /// path — the same machinery grow migrations use, minus the
    /// admission charge the recording already paid while capturing —
    /// and tracks the title. Returns the full replica list, origin
    /// first.
    pub fn adopt_recording(
        &self,
        title: &str,
        source: &MovieSource,
        origin: &str,
        now: SimTime,
    ) -> Vec<String> {
        let loads = self.dir.loads();
        let exclude = [origin.to_string()];
        let peers = {
            let mut placement = self.placement.lock();
            let k = placement.k();
            placement.place_with(&loads, k.saturating_sub(1), &exclude)
        };
        let mut replicas = vec![origin.to_string()];
        for location in peers {
            if let Some(host) = self.dir.get(&location) {
                host.store().import_movie(source, now);
                replicas.push(location);
            }
        }
        self.track_title(title, source, replicas.clone());
        replicas
    }

    /// Starts draining `location`: no new stream routes to it, every
    /// sole-copy title it holds is migrated to another server, and
    /// once the migrations land and its last stream closes the server
    /// is deregistered (decommissioned) and removed from every replica
    /// list.
    ///
    /// # Errors
    ///
    /// [`DrainError::UnknownServer`] / [`DrainError::AlreadyDraining`]
    /// for bad targets, and [`DrainError::LastHolder`] when the
    /// server holds the only copy of a title and no other server
    /// exists to migrate it to — draining the last holder would lose
    /// the title, so it is refused outright.
    pub fn drain(&self, location: &str) -> Result<(), DrainError> {
        if !self.dir.locations().contains(&location.to_string()) {
            return Err(DrainError::UnknownServer(location.to_string()));
        }
        if self.dir.is_draining(location) {
            return Err(DrainError::AlreadyDraining(location.to_string()));
        }
        let mut inner = self.inner.lock();
        let alive: Vec<String> = self
            .dir
            .loads()
            .into_iter()
            .filter(|s| s.in_service() && s.location != location)
            .map(|s| s.location)
            .collect();
        if alive.is_empty() {
            if let Some((title, _)) = inner
                .titles
                .iter()
                .find(|(_, rec)| rec.replicas.contains(&location.to_string()))
            {
                return Err(DrainError::LastHolder(title.clone()));
            }
        }
        self.dir.set_draining(location, true);
        inner.draining.push(location.to_string());
        self.journal.record(
            &self.actor,
            EventKind::DrainStarted {
                location: location.to_string(),
            },
        );
        Ok(())
    }

    /// Whether `location` has been fully drained and decommissioned.
    pub fn drain_complete(&self, location: &str) -> bool {
        self.inner
            .lock()
            .decommissioned
            .contains(&location.to_string())
    }

    /// The earliest instant the controller wants to run again, or
    /// `None` when it is idle (no copies in flight, no drains in
    /// progress, no retries pending, no directory updates owed) — the
    /// world's driver uses this to advance the clock without keeping
    /// an idle world alive forever.
    pub fn next_tick_at(&self) -> Option<SimTime> {
        let inner = self.inner.lock();
        let retrying = inner
            .titles
            .values()
            .any(|rec| rec.retries > 0 && rec.retries <= MAX_COPY_RETRIES);
        // An under-replicated title (a holder crashed) keeps the
        // controller awake until repair copies restore K — capped at
        // the number of live servers, so a cluster that cannot reach
        // K does not spin forever.
        let under_replicated = {
            let loads = self.dir.loads();
            let target_k = self.replication_target(&loads);
            inner.titles.values().any(|rec| {
                let alive = alive_replicas(rec, &loads);
                !alive.is_empty() && alive.len() < target_k
            })
        };
        let busy = !inner.active.is_empty()
            || !inner.draining.is_empty()
            || retrying
            || under_replicated
            || inner.titles.values().any(|rec| rec.dirty);
        match (busy, inner.next_sample) {
            (true, Some(t)) => Some(t),
            _ => None,
        }
    }

    /// One control-plane pass at `now`: polls copies in flight,
    /// advances drains, pushes pending directory updates, and — at
    /// the configured sampling interval — takes a fresh [`ServerLoad`]
    /// snapshot of the cluster and makes grow/shrink decisions from
    /// it.
    pub fn tick(&self, now: SimTime) {
        self.journal.observe_time(now);
        let mut inner = self.inner.lock();
        let inner = &mut *inner;

        self.poll_copies(inner);

        let sample_due = inner.next_sample.is_none_or(|t| now >= t);
        if sample_due {
            inner.next_sample = Some(now + self.config.sample_interval);
        }

        if !inner.draining.is_empty() || sample_due {
            let loads = self.dir.loads();
            self.advance_drains(inner, &loads, now);
            if sample_due {
                self.journal.record(&self.actor, EventKind::RebalanceSample);
                self.repair(inner, &loads, now);
                self.grow(inner, &loads, now);
                self.shrink(inner, &loads);
            }
        }

        self.flush_dirty(inner);
    }

    /// Folds finished copies into replica sets; aborts copies whose
    /// target left the cluster (or started draining) mid-flight,
    /// releasing their admission reservation and blocks.
    fn poll_copies(&self, inner: &mut Inner<P>) {
        let mut i = 0;
        while i < inner.active.len() {
            let copy = &inner.active[i];
            if !self.dir.in_service(&copy.target) {
                let copy = inner.active.swap_remove(i);
                copy.host.store().abort_import(copy.import_id);
                self.journal.record(
                    &self.actor,
                    EventKind::CopyAborted {
                        title: copy.title,
                        to: copy.target,
                    },
                );
                continue;
            }
            if copy.host.store().import_durable(copy.import_id) == Some(true) {
                let copy = inner.active.swap_remove(i);
                if copy.host.store().finish_import(copy.import_id).is_ok() {
                    if let Some(rec) = inner.titles.get_mut(&copy.title) {
                        if !rec.replicas.contains(&copy.target) {
                            rec.replicas.push(copy.target.clone());
                        }
                        rec.retries = 0;
                        rec.dirty = true;
                    }
                    self.journal.record(
                        &self.actor,
                        EventKind::CopyCompleted {
                            title: copy.title,
                            to: copy.target,
                        },
                    );
                } else {
                    self.journal.record(
                        &self.actor,
                        EventKind::CopyAborted {
                            title: copy.title,
                            to: copy.target,
                        },
                    );
                }
                continue;
            }
            i += 1;
        }
    }

    /// Migrates sole-copy titles off draining servers and
    /// decommissions any drained server whose titles are all safe and
    /// whose last stream has closed.
    fn advance_drains(&self, inner: &mut Inner<P>, loads: &[ServerLoad], now: SimTime) {
        for location in inner.draining.clone() {
            // Start (or retry) migrations for titles whose only alive
            // copy sits on the draining server. Drain copies bypass
            // the grow retry budget: the drain cannot complete
            // without them.
            let sole: Vec<String> = inner
                .titles
                .iter()
                .filter(|(title, rec)| {
                    rec.replicas.contains(&location)
                        && alive_replicas(rec, loads).is_empty()
                        && !inner.active.iter().any(|c| c.title == **title)
                })
                .map(|(title, _)| title.clone())
                .collect();
            for title in sole {
                if inner.active.len() >= MAX_CONCURRENT_COPIES {
                    break;
                }
                self.start_copy(inner, &title, loads, now, CopyReason::Drain);
            }

            let streams_open = loads
                .iter()
                .find(|s| s.location == location)
                .map_or(0, |s| s.load.open_streams);
            let all_safe = inner.titles.values().all(|rec| {
                !rec.replicas.contains(&location) || !alive_replicas(rec, loads).is_empty()
            });
            if all_safe && streams_open == 0 {
                for rec in inner.titles.values_mut() {
                    if let Some(idx) = rec.replicas.iter().position(|l| *l == location) {
                        rec.replicas.remove(idx);
                        rec.dirty = true;
                    }
                }
                self.dir.deregister(&location);
                inner.draining.retain(|l| *l != location);
                self.journal.record(
                    &self.actor,
                    EventKind::DrainCompleted {
                        location: location.clone(),
                    },
                );
                inner.decommissioned.push(location);
            }
        }
    }

    /// Replication floor this cluster can actually sustain: the
    /// configured K, capped at the number of live servers.
    fn replication_target(&self, loads: &[ServerLoad]) -> usize {
        let live = loads.iter().filter(|s| s.in_service()).count();
        self.placement.lock().k().min(live)
    }

    /// Repair pass: a title whose alive replica set fell below K — a
    /// holder crashed — gets a copy scheduled from a surviving holder
    /// regardless of load. Unlike grow, repair ignores the saturation
    /// gate and the retry budget: re-replication is load-bearing, and
    /// the copy is journalled as a drain-style (mandatory) copy.
    fn repair(&self, inner: &mut Inner<P>, loads: &[ServerLoad], now: SimTime) {
        let target_k = self.replication_target(loads);
        let titles: Vec<String> = inner.titles.keys().cloned().collect();
        for title in titles {
            if inner.active.len() >= MAX_CONCURRENT_COPIES {
                break;
            }
            if inner.active.iter().any(|c| c.title == title) {
                continue;
            }
            let alive = alive_replicas(&inner.titles[&title], loads);
            if alive.is_empty() || alive.len() >= target_k {
                // A title with zero live copies is lost until its
                // crashed holder returns; nothing to copy from.
                continue;
            }
            self.start_copy(inner, &title, loads, now, CopyReason::Drain);
        }
    }

    /// Grow pass: a title whose alive holders are all too saturated
    /// to admit one more viewer, while some non-holder could, gets a
    /// copy scheduled onto the least-loaded non-holder.
    fn grow(&self, inner: &mut Inner<P>, loads: &[ServerLoad], now: SimTime) {
        let titles: Vec<String> = inner.titles.keys().cloned().collect();
        for title in titles {
            if inner.active.len() >= MAX_CONCURRENT_COPIES {
                break;
            }
            if inner.active.iter().any(|c| c.title == title) {
                continue;
            }
            let rec = &inner.titles[&title];
            let demand = rec.source.mean_bitrate_bps().max(1);
            let holders = alive_replicas(rec, loads);
            let saturated = !holders.is_empty()
                && holders.iter().all(|location| {
                    loads
                        .iter()
                        .find(|s| s.location == *location)
                        .is_some_and(|s| s.load.available_bps < demand)
                });
            if !saturated {
                // Pressure cleared: the retry budget comes back, so a
                // later hot spell can grow the title again. (This
                // must run *before* the budget check below, or an
                // exhausted title would be excluded from growing for
                // the controller's lifetime.)
                inner.titles.get_mut(&title).expect("keyed above").retries = 0;
                continue;
            }
            if rec.retries > MAX_COPY_RETRIES {
                continue;
            }
            self.start_copy(inner, &title, loads, now, CopyReason::Grow);
        }
    }

    /// Shrink pass: a title holding more than K replicas whose
    /// holders all cooled far below saturation gives its youngest
    /// surplus replica back to the routing pool.
    fn shrink(&self, inner: &mut Inner<P>, loads: &[ServerLoad]) {
        /// A holder has cooled once its committed bandwidth falls
        /// below this percentage of its capacity.
        const SHRINK_PCT: u64 = 25;
        let k = self.placement.lock().k();
        for (title, rec) in inner.titles.iter_mut() {
            let alive = alive_replicas(rec, loads);
            if alive.len() <= k {
                continue;
            }
            let cool = alive.iter().all(|location| {
                loads
                    .iter()
                    .find(|s| s.location == *location)
                    .is_some_and(|s| {
                        let ceiling = s.load.capacity_bps / 100 * SHRINK_PCT;
                        s.load.committed_bps <= ceiling
                    })
            });
            if !cool {
                continue;
            }
            let youngest = alive.last().expect("len > k >= 1").clone();
            rec.replicas.retain(|l| *l != youngest);
            rec.dirty = true;
            self.journal.record(
                &self.actor,
                EventKind::Shrink {
                    title: title.clone(),
                    from: youngest,
                },
            );
        }
    }

    /// Begins one copy of `title` to the best eligible target; counts
    /// a rejection (and bumps the title's retry budget) when no
    /// target exists or the target's admission refuses.
    fn start_copy(
        &self,
        inner: &mut Inner<P>,
        title: &str,
        loads: &[ServerLoad],
        now: SimTime,
        reason: CopyReason,
    ) -> bool {
        let rec = inner.titles.get_mut(title).expect("caller checked");
        let reserve = rec.source.mean_bitrate_bps().max(1)
            * u64::from(self.config.copy_speed_pct.max(1))
            / 100;
        let target = loads
            .iter()
            .filter(|s| {
                s.in_service()
                    && !rec.replicas.contains(&s.location)
                    && s.load.available_bps >= reserve
            })
            .min_by(|a, b| least_loaded_key(a).cmp(&least_loaded_key(b)))
            .map(|s| s.location.clone());
        let candidate = target.clone().unwrap_or_default();
        let started = target.and_then(|target| {
            let host = self.dir.get(&target)?;
            let import_id = host.store().begin_import(&rec.source, reserve, now).ok()?;
            Some(ActiveCopy {
                title: title.to_string(),
                target,
                import_id,
                host,
                reason,
            })
        });
        match started {
            Some(copy) => {
                let kind = match copy.reason {
                    CopyReason::Grow => EventKind::GrowStarted {
                        title: copy.title.clone(),
                        to: copy.target.clone(),
                    },
                    CopyReason::Drain => EventKind::DrainCopyStarted {
                        title: copy.title.clone(),
                        to: copy.target.clone(),
                    },
                };
                self.journal.record(&self.actor, kind);
                inner.active.push(copy);
                true
            }
            None => {
                rec.retries += 1;
                self.journal.record(
                    &self.actor,
                    EventKind::CopyRejected {
                        title: title.to_string(),
                        to: candidate,
                    },
                );
                false
            }
        }
    }

    /// Pushes changed replica lists through the directory sink. A
    /// sink that reports the entry as not yet updatable (the record
    /// path adds the entry only after the capture finalizes) leaves
    /// the title dirty for the next tick. Without a sink the internal
    /// replicas map *is* the directory of record, so the update is
    /// journaled immediately — a completed copy must always be
    /// observable as a directory update.
    fn flush_dirty(&self, inner: &mut Inner<P>) {
        let Some(sink) = &self.sink else {
            for (title, rec) in inner.titles.iter_mut() {
                if rec.dirty {
                    rec.dirty = false;
                    self.journal.record(
                        &self.actor,
                        EventKind::DirectoryUpdate {
                            title: title.clone(),
                        },
                    );
                }
            }
            return;
        };
        for (title, rec) in inner.titles.iter_mut() {
            if rec.dirty && sink(title, &rec.replicas) {
                rec.dirty = false;
                self.journal.record(
                    &self.actor,
                    EventKind::DirectoryUpdate {
                        title: title.clone(),
                    },
                );
            }
        }
    }
}

/// The replicas of `rec` that are registered and in service, in
/// replica-list order.
fn alive_replicas(rec: &TitleRec, loads: &[ServerLoad]) -> Vec<String> {
    rec.replicas
        .iter()
        .filter(|location| {
            loads
                .iter()
                .any(|s| s.location == **location && s.in_service())
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use store::{BlockStore, CachePolicy, DiskParams, StoreConfig};

    /// ~1.7 Mbit/s of admissible bandwidth per server: two ~0.67
    /// Mbit/s streams fit, a third does not.
    fn tight_store() -> Arc<BlockStore> {
        BlockStore::new(StoreConfig {
            disks: 1,
            block_size: 128 * 1024,
            cache_blocks: 16,
            policy: CachePolicy::Lru,
            disk: DiskParams {
                transfer_bytes_per_sec: 250_000,
                ..DiskParams::default()
            },
            ..StoreConfig::default()
        })
    }

    fn cluster(
        n: usize,
        config: RebalanceConfig,
    ) -> (
        Arc<ReplicaDirectory<Arc<BlockStore>>>,
        RebalanceController<Arc<BlockStore>>,
    ) {
        let dir = Arc::new(ReplicaDirectory::new());
        for i in 0..n {
            dir.register(format!("node-{}", i + 1), tight_store());
        }
        let ctl = RebalanceController::new(Arc::clone(&dir), Placement::round_robin(2), config);
        (dir, ctl)
    }

    /// Advances the cluster's virtual clock along store events and
    /// controller wake-ups until `done` (or panics).
    fn run_until(
        dir: &ReplicaDirectory<Arc<BlockStore>>,
        ctl: &RebalanceController<Arc<BlockStore>>,
        mut now: SimTime,
        mut done: impl FnMut() -> bool,
    ) -> SimTime {
        let mut guard = 0;
        while !done() {
            ctl.tick(now);
            for location in dir.locations() {
                if let Some(store) = dir.get(&location) {
                    store.pump(now);
                }
            }
            if done() {
                break;
            }
            let next = dir
                .locations()
                .iter()
                .filter_map(|l| dir.get(l).and_then(|s| s.next_event()))
                .chain(ctl.next_tick_at())
                .min();
            match next {
                Some(t) if t > now => now = t,
                _ => now += SimDuration::from_millis(50),
            }
            guard += 1;
            assert!(guard < 100_000, "cluster never reached the condition");
        }
        now
    }

    fn saturate(store: &BlockStore, source: &MovieSource, base: u32) -> usize {
        let id = store.register_movie(source);
        let mut n = 0;
        while store
            .open_stream(base + n as u32, id, 100, SimTime::ZERO)
            .is_ok()
        {
            n += 1;
            assert!(n < 1000, "store never saturated");
        }
        n
    }

    #[test]
    fn grow_copies_a_saturated_title_to_the_least_loaded_idle_server() {
        let (dir, ctl) = cluster(3, RebalanceConfig::default());
        let source = MovieSource::test_movie(20, 1);
        let replicas = ctl.place_title("Hot", &source);
        assert_eq!(replicas, ["node-1", "node-2"]);
        // Fill both holders so neither admits one more viewer.
        for location in &replicas {
            saturate(&dir.get(location).unwrap(), &source, 1000);
        }
        ctl.tick(SimTime::ZERO);
        assert_eq!(ctl.active_copies(), 1, "grow copy scheduled");
        // The target reserved real admission bandwidth for the copy.
        let target = dir.get("node-3").unwrap();
        assert!(target.stats().committed_bps > 0, "copy charged on target");
        run_until(&dir, &ctl, SimTime::ZERO, || {
            ctl.stats().copies_completed == 1
        });
        assert_eq!(
            ctl.replicas_of("Hot").unwrap(),
            ["node-1", "node-2", "node-3"]
        );
        assert_eq!(target.stats().committed_bps, 0, "reservation released");
        // The copy is streamable from the new replica.
        let id = target.register_movie(&source);
        assert!(target.allocation_of(id).is_some(), "block-mapped copy");
        assert_eq!(ctl.stats().grows_started, 1);
    }

    #[test]
    fn shrink_trims_the_surplus_replica_once_the_title_cools() {
        let (dir, ctl) = cluster(3, RebalanceConfig::default());
        let source = MovieSource::test_movie(20, 2);
        let replicas = ctl.place_title("Fad", &source);
        let opened: Vec<(String, usize)> = replicas
            .iter()
            .map(|l| (l.clone(), saturate(&dir.get(l).unwrap(), &source, 2000)))
            .collect();
        let now = run_until(&dir, &ctl, SimTime::ZERO, || {
            ctl.stats().copies_completed == 1
        });
        assert_eq!(ctl.replicas_of("Fad").unwrap().len(), 3, "grown to 3");
        // The fad passes: every viewer leaves, holders cool off.
        for (location, n) in opened {
            let store = dir.get(&location).unwrap();
            for s in 0..n {
                store.close_stream(2000 + s as u32);
            }
        }
        run_until(&dir, &ctl, now, || ctl.stats().shrinks == 1);
        assert_eq!(
            ctl.replicas_of("Fad").unwrap().len(),
            2,
            "back to the configured K"
        );
    }

    #[test]
    fn copy_aborts_and_releases_reservation_when_target_is_deregistered() {
        let (dir, ctl) = cluster(3, RebalanceConfig::default());
        let source = MovieSource::test_movie(20, 3);
        let replicas = ctl.place_title("Hot", &source);
        for location in &replicas {
            saturate(&dir.get(location).unwrap(), &source, 3000);
        }
        ctl.tick(SimTime::ZERO);
        assert_eq!(ctl.active_copies(), 1);
        let target = dir.get("node-3").unwrap();
        assert!(target.stats().committed_bps > 0, "reservation in place");
        // The target machine is pulled from the cluster mid-copy.
        dir.deregister("node-3");
        ctl.tick(SimTime::from_millis(200));
        assert_eq!(ctl.active_copies(), 0);
        assert_eq!(ctl.stats().copies_aborted, 1);
        assert_eq!(
            target.stats().committed_bps,
            0,
            "aborted copy released its admission reservation"
        );
        assert_eq!(target.stats().imports_active, 0);
    }

    #[test]
    fn drain_migrates_sole_copies_and_decommissions_on_last_close() {
        let (dir, ctl) = cluster(3, RebalanceConfig::default());
        // K=1: "Solo" lives only on node-1.
        let ctl = {
            drop(ctl);
            RebalanceController::new(
                Arc::clone(&dir),
                Placement::round_robin(1),
                RebalanceConfig::default(),
            )
        };
        let source = MovieSource::test_movie(20, 4);
        assert_eq!(ctl.place_title("Solo", &source), ["node-1"]);
        // One viewer is mid-stream on node-1.
        let holder = dir.get("node-1").unwrap();
        let movie = holder.register_movie(&source);
        holder.open_stream(4000, movie, 100, SimTime::ZERO).unwrap();

        ctl.drain("node-1").unwrap();
        assert!(dir.is_draining("node-1"));
        assert!(
            matches!(ctl.drain("node-1"), Err(DrainError::AlreadyDraining(_))),
            "double drain refused"
        );
        // The sole copy migrates off while the stream keeps running.
        let now = run_until(&dir, &ctl, SimTime::ZERO, || {
            ctl.stats().copies_completed == 1
        });
        assert!(
            !ctl.drain_complete("node-1"),
            "server lives until its last stream closes"
        );
        // The viewer finishes: the server decommissions.
        holder.close_stream(4000);
        run_until(&dir, &ctl, now, || ctl.drain_complete("node-1"));
        assert!(dir.get("node-1").is_none(), "deregistered");
        let replicas = ctl.replicas_of("Solo").unwrap();
        assert_eq!(replicas.len(), 1, "zero under-replicated titles");
        assert_ne!(replicas[0], "node-1");
        assert_eq!(ctl.stats().drains_completed, 1);
    }

    #[test]
    fn crash_repair_restores_k_without_waiting_for_saturation() {
        let (dir, ctl) = cluster(3, RebalanceConfig::default());
        let source = MovieSource::test_movie(20, 6);
        let replicas = ctl.place_title("Survivor", &source);
        assert_eq!(replicas, ["node-1", "node-2"]);
        // node-1 crashes: the title is under-replicated, but nobody
        // is saturated — the grow pass would never act.
        assert!(dir.set_crashed("node-1", true));
        assert!(
            ctl.next_tick_at().is_none(),
            "no sample scheduled yet: first tick sets the cadence"
        );
        ctl.tick(SimTime::ZERO);
        assert_eq!(ctl.active_copies(), 1, "repair copy scheduled at once");
        assert!(
            ctl.next_tick_at().is_some(),
            "under-replication keeps the controller awake"
        );
        run_until(&dir, &ctl, SimTime::ZERO, || {
            ctl.stats().copies_completed == 1
        });
        let replicas = ctl.replicas_of("Survivor").unwrap();
        assert!(replicas.contains(&"node-3".to_string()), "copied to node-3");
        // K live copies again: the controller can go idle.
        let loads = dir.loads();
        let alive: Vec<&ServerLoad> = loads.iter().filter(|s| !s.crashed).collect();
        assert_eq!(alive.len(), 2);
        assert_eq!(ctl.stats().drain_copies_started, 1, "repair is mandatory");
    }

    #[test]
    fn drain_of_the_last_holder_is_refused() {
        let (_, ctl) = cluster(1, RebalanceConfig::default());
        let source = MovieSource::test_movie(20, 5);
        ctl.place_title("Only", &source);
        assert_eq!(
            ctl.drain("node-1"),
            Err(DrainError::LastHolder("Only".into()))
        );
        assert_eq!(
            ctl.drain("node-9"),
            Err(DrainError::UnknownServer("node-9".into()))
        );
    }
}
