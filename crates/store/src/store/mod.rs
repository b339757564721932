//! The block store: striped disks + buffer cache + admission control
//! behind one handle, [`BlockStore`].
//!
//! This module holds what every concern shares — configuration,
//! errors, counters, the movie table, the [`Spindles`] (disks,
//! allocators, and the one place a block write is queued), write
//! attribution, and the `pump`/`next_event` junction that drives the
//! disks. The three concerns themselves live one module each:
//!
//! - [`playback`] — read streams: admission, the per-stream
//!   prefetcher, trick-mode hints, read coalescing and delivery;
//! - [`recording`] — write sessions: captured frames accumulate into
//!   blocks that are allocated, staged through the cache and written;
//! - [`jobs`] — background block jobs: the single paced,
//!   admission-charged engine behind migration copies and
//!   spindle-death rebuilds, plus the fault (`fail_disk`) that feeds
//!   the latter and the unpaced bulk copy.

mod jobs;
mod playback;
mod recording;
#[cfg(test)]
mod tests;

pub use playback::{PrefetchDirection, PrefetchHint};
pub use recording::RecordingSummary;

use crate::admission::{AdmissionController, AdmissionStats, Rejection};
use crate::alloc::BlockAllocator;
use crate::cache::{BlockKey, BufferCache, CachePolicy, CacheStats};
use crate::disk::{Disk, DiskParams, DiskStats, IoKind};
use crate::layout::{BlockAddr, BlockMap, MovieId, StripeLayout};
use jobs::PacedJob;
use journal::{AdmissionClass, EventKind, Journal};
use mtp::MovieSource;
use netsim::SimTime;
use parking_lot::Mutex;
use playback::{consumers_of, StreamRec};
use recording::RecordingRec;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Configuration of a server's storage subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Number of disks in the stripe set.
    pub disks: usize,
    /// Block size in bytes.
    pub block_size: u32,
    /// Buffer-cache capacity in blocks.
    pub cache_blocks: usize,
    /// Buffer-cache replacement policy.
    pub policy: CachePolicy,
    /// Per-disk cost model.
    pub disk: DiskParams,
    /// Maximum outstanding block reads per stream. Sized so each disk
    /// of the stripe set holds a run of ~4 adjacent blocks per
    /// stream: the elevator sweep then serves mostly sequential
    /// continuations, which is what the admission model's
    /// 1-random-seek-per-4-blocks amortization assumes
    /// (`tests/scan_calibration.rs` measures it).
    pub prefetch_depth: u32,
    /// How many blocks past the playback position the prefetcher may
    /// run ahead (bounds cache pollution and wasted disk work for
    /// paused or slow streams).
    pub readahead_blocks: u32,
    /// Whether the prefetcher honors [`PrefetchHint`]s from the
    /// session layer. Off, every hinted call degrades to the plain
    /// forward window — the knob the VCR-storm bench flips to measure
    /// what the hints buy.
    pub prefetch_hints: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            disks: 4,
            block_size: 256 * 1024,
            cache_blocks: 512,
            policy: CachePolicy::Interval,
            disk: DiskParams::default(),
            prefetch_depth: 16,
            readahead_blocks: 32,
            prefetch_hints: true,
        }
    }
}

impl StoreConfig {
    /// Deliverable bandwidth of one disk in bits/second, accounting
    /// for a worst-case seek per block.
    pub(crate) fn effective_disk_bps(&self) -> u64 {
        let service = self.disk.service_time(u64::from(self.block_size));
        if service.is_zero() {
            return u64::MAX;
        }
        let bits = u64::from(self.block_size) * 8;
        (bits as f64 / service.as_secs_f64()) as u64
    }

    /// Admissible aggregate bandwidth across all disks (a zero disk
    /// count is clamped to one, matching the stripe set the store
    /// actually builds).
    pub fn capacity_bps(&self) -> u64 {
        /// Percentage of the raw disk bandwidth the admission
        /// controller may commit (guards against seek-heavy worst
        /// cases).
        const ADMISSION_HEADROOM_PCT: u64 = 85;
        let raw = self
            .effective_disk_bps()
            .saturating_mul(self.disks.max(1) as u64);
        raw / 100 * ADMISSION_HEADROOM_PCT
    }
}

/// Errors surfaced by the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Admission control refused the stream's bandwidth demand.
    AdmissionRejected {
        /// Bandwidth the stream would need, in bits/second.
        demanded_bps: u64,
        /// Bandwidth still uncommitted, in bits/second.
        available_bps: u64,
    },
    /// Unknown movie id.
    UnknownMovie(MovieId),
    /// Unknown stream id.
    UnknownStream(u32),
    /// The recording is still capturing frames or still has queued
    /// writes; it cannot be finalized yet.
    RecordingIncomplete(u32),
    /// The migration copy still has blocks to issue or persist; it
    /// cannot be finalized yet.
    ImportIncomplete(u32),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::AdmissionRejected {
                demanded_bps,
                available_bps,
            } => write!(
                f,
                "admission rejected: stream needs {demanded_bps} bps, {available_bps} bps available"
            ),
            StoreError::UnknownMovie(id) => write!(f, "unknown {id}"),
            StoreError::UnknownStream(id) => write!(f, "unknown stream {id}"),
            StoreError::RecordingIncomplete(id) => {
                write!(f, "recording {id} still capturing or persisting")
            }
            StoreError::ImportIncomplete(id) => {
                write!(f, "import {id} still copying or persisting")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Aggregate counters of the store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreStats {
    /// Cache counters.
    pub cache: CacheStats,
    /// Admission counters.
    pub admission: AdmissionStats,
    /// Per-disk counters.
    pub disks: Vec<DiskStats>,
    /// Blocks delivered to streams (from cache or disk).
    pub blocks_delivered: u64,
    /// Block requests served by piggybacking on another stream's
    /// in-flight disk read (no extra disk work).
    pub coalesced_reads: u64,
    /// Streams currently open.
    pub open_streams: usize,
    /// Recordings currently in progress.
    pub recordings_active: usize,
    /// Paced migration copies currently in progress.
    pub imports_active: usize,
    /// Blocks allocated and queued for write by recordings.
    pub blocks_recorded: u64,
    /// Blocks allocated and queued for write by paced migration
    /// copies.
    pub blocks_imported: u64,
    /// Frames appended by recordings.
    pub frames_recorded: u64,
    /// Bandwidth committed, bits/second.
    pub committed_bps: u64,
    /// Bandwidth capacity, bits/second.
    pub capacity_bps: u64,
}

impl StoreStats {
    /// Fraction of block requests that needed no dedicated disk read:
    /// buffer-cache hits plus coalesced in-flight reads.
    pub fn service_hit_ratio(&self) -> f64 {
        let lookups = self.cache.hits + self.cache.misses;
        if lookups == 0 {
            0.0
        } else {
            (self.cache.hits + self.coalesced_reads) as f64 / lookups as f64
        }
    }
}

/// Physical layout of one movie: analytic stripe for published
/// titles, append-built block map for recorded ones.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Layout {
    Striped(StripeLayout),
    Mapped(BlockMap),
}

impl Layout {
    fn locate(&self, index: u64) -> BlockAddr {
        match self {
            Layout::Striped(l) => l.locate(index),
            Layout::Mapped(m) => m.locate(index),
        }
    }

    fn invert(&self, addr: BlockAddr) -> Option<u64> {
        match self {
            Layout::Striped(l) => l.invert(addr),
            Layout::Mapped(m) => m.invert(addr),
        }
    }

    fn block_count(&self) -> u64 {
        match self {
            Layout::Striped(l) => l.block_count(),
            Layout::Mapped(m) => m.block_count(),
        }
    }

    /// The layout as an explicit, editable block map — an analytic
    /// stripe is materialized first, so single addresses can then be
    /// appended or rewritten.
    fn map_mut(this: &mut Arc<Layout>) -> &mut BlockMap {
        let layout = Arc::make_mut(this);
        if let Layout::Striped(stripe) = layout {
            *layout = Layout::Mapped(BlockMap::from_stripe(stripe));
        }
        match layout {
            Layout::Mapped(map) => map,
            Layout::Striped(_) => unreachable!("materialized above"),
        }
    }
}

#[derive(Debug, Clone)]
struct MovieRec {
    layout: Arc<Layout>,
    frames_per_block: u64,
    frame_count: u64,
    frame_rate: u32,
    bitrate_bps: u64,
    seed: u64,
}

impl MovieRec {
    /// The record of `source` on blocks of `block_size` bytes, laid
    /// out by `layout` (which is told the title's block count).
    fn of_source(
        source: &MovieSource,
        block_size: u32,
        layout: impl FnOnce(u64) -> Layout,
    ) -> Self {
        let bitrate_bps = source.mean_bitrate_bps().max(1);
        let block_bits = u64::from(block_size) * 8;
        let frames_per_block =
            (block_bits * u64::from(source.frame_rate.max(1)) / bitrate_bps).max(1);
        let block_count = source.frame_count.div_ceil(frames_per_block).max(1);
        MovieRec {
            layout: Arc::new(layout(block_count)),
            frames_per_block,
            frame_count: source.frame_count,
            frame_rate: source.frame_rate,
            bitrate_bps,
            seed: source.seed,
        }
    }

    /// Whether this record holds the content `source` describes. An
    /// edited title (e.g. a modified frame rate) is a different movie
    /// to the store, so admission sees its real bandwidth demand.
    fn holds(&self, source: &MovieSource) -> bool {
        self.seed == source.seed
            && self.frame_count == source.frame_count
            && self.frame_rate == source.frame_rate
    }
}

/// The stripe set: one simulated arm and one free-offset allocator
/// per disk, plus the set of arms that have died. Every block the
/// store writes is placed and queued here.
struct Spindles {
    disks: Vec<Disk>,
    allocators: Vec<BlockAllocator>,
    /// Disks that have died; their blocks are unreadable and the
    /// write path never chooses them again.
    failed: BTreeSet<usize>,
}

impl Spindles {
    fn len(&self) -> usize {
        self.disks.len()
    }

    /// Allocates a free block on the first live disk at or after
    /// `preferred` (wrapping). Falls back to `preferred` itself if
    /// every disk is dead — callers keep the store usable until then.
    fn alloc_live(&mut self, preferred: usize) -> BlockAddr {
        let disks = self.len();
        let preferred = preferred % disks;
        let disk = (0..disks)
            .map(|k| (preferred + k) % disks)
            .find(|d| !self.failed.contains(d))
            .unwrap_or(preferred);
        BlockAddr {
            disk,
            offset: self.allocators[disk].alloc(),
        }
    }

    /// Allocates a block near `preferred` and queues the write of
    /// `bytes` for `movie` on that disk's elevator/SCAN queue — the
    /// one place the store issues a write.
    fn write_block(
        &mut self,
        now: SimTime,
        movie: MovieId,
        preferred: usize,
        bytes: u64,
    ) -> BlockAddr {
        let addr = self.alloc_live(preferred);
        self.disks[addr.disk].enqueue_write(now, movie, addr.offset, bytes);
        addr
    }

    /// Writes the next block of a title growing stripe-append style
    /// from `start_disk`, returning its logical index in `map`.
    fn append_block(
        &mut self,
        now: SimTime,
        movie: MovieId,
        start_disk: usize,
        map: &mut BlockMap,
        bytes: u64,
    ) -> u64 {
        let addr = self.write_block(now, movie, start_disk + map.block_count() as usize, bytes);
        map.push(addr)
    }

    /// Returns the blocks of an abandoned write session to the free
    /// pool.
    fn release(&mut self, map: &BlockMap) {
        for addr in map.addrs() {
            self.allocators[addr.disk].release(addr.offset);
        }
    }
}

/// Who is waiting for the writes queued under a (not yet registered)
/// movie id. Movie ids are never reused, so a write that outlives an
/// aborted session finds no owner instead of a wrong one — allocator
/// offsets *are* reused, which is why ownership is not keyed on the
/// address.
#[derive(Debug, Clone, Copy)]
enum WriteOwner {
    Recording(u32),
    Copy(u32),
}

struct StoreInner {
    config: StoreConfig,
    movies: HashMap<MovieId, MovieRec>,
    next_movie: u32,
    spindles: Spindles,
    cache: BufferCache,
    admission: AdmissionController,
    streams: HashMap<u32, StreamRec>,
    /// Scratch list of the stream ids `BlockStore::pump` issues for,
    /// kept so that pumping does not allocate. Sorted: `streams`
    /// iterates in a different order in every store instance, and the
    /// issue order reaches the disk queues.
    issue_order: Vec<u32>,
    recordings: HashMap<u32, RecordingRec>,
    /// Migration copies in progress by admission id; id order is
    /// issue order.
    copies: BTreeMap<u32, PacedJob>,
    /// The spindle rebuild in progress (there is at most one) and its
    /// admission id, from the same counter as the copies'.
    rebuild: Option<(u32, PacedJob)>,
    next_job: u32,
    /// Movie under construction → the session its writes belong to.
    write_owners: HashMap<MovieId, WriteOwner>,
    /// Blocks lost with the dead spindles, awaiting reconstruction.
    lost_blocks: VecDeque<(MovieId, u64)>,
    /// Streams waiting on each in-flight disk read (read coalescing:
    /// a second viewer of the same block piggybacks instead of
    /// queueing a duplicate).
    in_flight: HashMap<BlockKey, Vec<u32>>,
    blocks_delivered: u64,
    coalesced_reads: u64,
    blocks_recorded: u64,
    blocks_imported: u64,
    frames_recorded: u64,
    /// Event journal and the server name to record under, when the
    /// store runs inside an observed simulation.
    journal: Option<(Arc<Journal>, String)>,
}

impl StoreInner {
    /// Runs an admission decision and journals its outcome: admits
    /// carry the headroom left *after* committing, rejects the
    /// headroom the demand did not fit into.
    fn admit_journaled(
        &mut self,
        class: AdmissionClass,
        id: u32,
        demanded_bps: u64,
    ) -> Result<(), StoreError> {
        match self.admission.admit(id, demanded_bps) {
            Ok(()) => {
                if let Some((journal, server)) = &self.journal {
                    journal.record(
                        server,
                        EventKind::StreamAdmit {
                            class,
                            stream: id,
                            demanded_bps,
                            available_bps: self.admission.available_bps(),
                        },
                    );
                }
                Ok(())
            }
            Err(r) => {
                if let Some((journal, server)) = &self.journal {
                    journal.record(
                        server,
                        EventKind::StreamReject {
                            class,
                            stream: id,
                            demanded_bps: r.demanded_bps,
                            available_bps: r.available_bps,
                        },
                    );
                }
                Err(reject(r))
            }
        }
    }

    /// Takes the next movie id and the disk its first block prefers.
    fn mint_movie(&mut self) -> (MovieId, usize) {
        let id = MovieId(self.next_movie);
        self.next_movie += 1;
        (id, id.0 as usize % self.spindles.len())
    }

    /// The registered movie holding `source`'s content, if any.
    fn find_source(&self, source: &MovieSource) -> Option<MovieId> {
        self.movies
            .iter()
            .find(|(_, rec)| rec.holds(source))
            .map(|(id, _)| *id)
    }

    /// Credits a write that left the disk queue — it reached the
    /// platter, or died with the arm — to the session waiting on it.
    /// A lost write counts too: its content is gone, but the owner
    /// must not wedge waiting for a completion that will never come
    /// (a lost reconstruction write is queued for rebuild again by
    /// the `fail_disk` scan, which finds its block on the dead disk).
    fn credit_write(&mut self, disk: usize, movie: MovieId, offset: u64) {
        if let Some((_, rebuild)) = &mut self.rebuild {
            if rebuild.credit_reconstruction(disk, movie, offset) {
                return;
            }
        }
        match self.write_owners.get(&movie) {
            Some(WriteOwner::Recording(id)) => {
                if let Some(rec) = self.recordings.get_mut(id) {
                    rec.blocks_durable += 1;
                }
            }
            Some(WriteOwner::Copy(id)) => {
                if let Some(job) = self.copies.get_mut(id) {
                    job.pace.durable += 1;
                }
            }
            None => {}
        }
    }

    /// Completes every disk request due at or before `now`: reads are
    /// delivered to the streams waiting on them, writes credited to
    /// their session.
    fn complete_due(&mut self, now: SimTime) -> usize {
        let mut completed = 0;
        // Playback positions cannot change while completions drain, so
        // one snapshot serves every block completed in this pass.
        let consumers = consumers_of(&self.streams);
        for disk in 0..self.spindles.len() {
            while let Some((movie, offset, kind)) = self.spindles.disks[disk].pop_due(now) {
                completed += 1;
                match kind {
                    IoKind::Write => self.credit_write(disk, movie, offset),
                    IoKind::Read => self.deliver_read(disk, movie, offset, &consumers),
                }
            }
        }
        completed
    }
}

/// The continuous-media storage subsystem of one server machine.
pub struct BlockStore {
    inner: Mutex<StoreInner>,
}

impl fmt::Debug for BlockStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("BlockStore")
            .field("disks", &inner.spindles.len())
            .field("movies", &inner.movies.len())
            .field("streams", &inner.streams.len())
            .finish_non_exhaustive()
    }
}

impl BlockStore {
    /// Creates a store from `config`.
    pub fn new(config: StoreConfig) -> Arc<Self> {
        let disks: Vec<Disk> = (0..config.disks.max(1))
            .map(|_| Disk::new(config.disk))
            .collect();
        let allocators = disks.iter().map(|_| BlockAllocator::new()).collect();
        Arc::new(BlockStore {
            inner: Mutex::new(StoreInner {
                spindles: Spindles {
                    disks,
                    allocators,
                    failed: BTreeSet::new(),
                },
                cache: BufferCache::new(config.cache_blocks, config.policy),
                admission: AdmissionController::new(config.capacity_bps()),
                movies: HashMap::new(),
                next_movie: 1,
                streams: HashMap::new(),
                issue_order: Vec::new(),
                recordings: HashMap::new(),
                copies: BTreeMap::new(),
                rebuild: None,
                next_job: jobs::JOB_ID_BASE,
                write_owners: HashMap::new(),
                lost_blocks: VecDeque::new(),
                in_flight: HashMap::new(),
                blocks_delivered: 0,
                coalesced_reads: 0,
                blocks_recorded: 0,
                blocks_imported: 0,
                frames_recorded: 0,
                journal: None,
                config,
            }),
        })
    }

    /// The store's configuration.
    pub fn config(&self) -> StoreConfig {
        self.inner.lock().config
    }

    /// Attaches an event journal: every admission decision from here
    /// on is recorded under `server`'s hash chain.
    pub fn attach_journal(&self, journal: Arc<Journal>, server: impl Into<String>) {
        self.inner.lock().journal = Some((journal, server.into()));
    }

    /// Per-disk queue depths (requests waiting plus in service), in
    /// stripe order. Sampled by health snapshots.
    pub fn disk_queue_depths(&self) -> Vec<u32> {
        let inner = self.inner.lock();
        inner
            .spindles
            .disks
            .iter()
            .map(|d| d.pending() as u32)
            .collect()
    }

    /// Registers `movie` on the stripe set and returns its id. A movie
    /// with identical parameters is registered once — repeated selects
    /// of one title share the layout and cache lines, while an edited
    /// title (e.g. a modified frame rate) gets a fresh record so
    /// admission sees its real bandwidth demand.
    pub fn register_movie(&self, movie: &MovieSource) -> MovieId {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if let Some(id) = inner.find_source(movie) {
            return id;
        }
        let (id, start_disk) = inner.mint_movie();
        let spindles = &mut inner.spindles;
        let rec = MovieRec::of_source(movie, inner.config.block_size, |block_count| {
            if spindles.failed.is_empty() {
                return Layout::Striped(StripeLayout::new(spindles.len(), start_disk, block_count));
            }
            // With a spindle down the analytic stripe would place
            // blocks on the dead disk: lay the movie out through the
            // allocators over the survivors instead.
            let mut map = BlockMap::new();
            for i in 0..block_count {
                map.push(spindles.alloc_live(start_disk + i as usize));
            }
            Layout::Mapped(map)
        });
        inner.movies.insert(id, rec);
        id
    }

    /// Looks up the registered movie matching `source` without
    /// registering it. The stream-sharing routing tie-break asks
    /// "does this replica already hold the title?" and must not mint
    /// movie ids as a side effect.
    pub fn find_movie(&self, source: &MovieSource) -> Option<MovieId> {
        self.inner.lock().find_source(source)
    }

    /// The stripe layout of a registered *published* movie (recorded
    /// movies carry an allocated block map instead — see
    /// [`BlockStore::allocation_of`]).
    pub fn layout_of(&self, movie: MovieId) -> Option<StripeLayout> {
        match &*self.inner.lock().movies.get(&movie)?.layout {
            Layout::Striped(l) => Some(*l),
            Layout::Mapped(_) => None,
        }
    }

    /// The allocated physical addresses of a *recorded or imported*
    /// movie, in logical-block order (`None` for published movies
    /// and in-progress recordings).
    pub fn allocation_of(&self, movie: MovieId) -> Option<Vec<BlockAddr>> {
        match &*self.inner.lock().movies.get(&movie)?.layout {
            Layout::Striped(_) => None,
            Layout::Mapped(m) => Some(m.addrs().to_vec()),
        }
    }

    /// Mean bitrate the store attributes to a registered movie.
    pub fn bitrate_of(&self, movie: MovieId) -> Option<u64> {
        self.inner.lock().movies.get(&movie).map(|m| m.bitrate_bps)
    }

    /// The nominal admission demand of `movie` at `speed_pct`, in
    /// bits/second.
    pub fn demand_for(&self, movie: MovieId, speed_pct: u32) -> Option<u64> {
        let inner = self.inner.lock();
        let bitrate = inner.movies.get(&movie)?.bitrate_bps;
        Some(demand_bps(bitrate, speed_pct))
    }

    /// The block index holding `frame` of `movie`.
    pub fn block_of_frame(&self, movie: MovieId, frame: u64) -> Option<u64> {
        let inner = self.inner.lock();
        let rec = inner.movies.get(&movie)?;
        Some(frame / rec.frames_per_block)
    }

    /// Completes due disk reads and tops up every prefetch pipeline.
    /// Returns the number of blocks that completed.
    pub fn pump(&self, now: SimTime) -> usize {
        let mut inner = self.inner.lock();
        let completed = inner.complete_due(now);
        let mut ids = std::mem::take(&mut inner.issue_order);
        ids.clear();
        ids.extend(inner.streams.keys().copied());
        ids.sort_unstable();
        for &id in &ids {
            inner.issue(id, now);
        }
        inner.issue_order = ids;
        inner.issue_jobs(now);
        completed
    }

    /// Earliest pending disk completion or background-job issue, if
    /// any.
    pub fn next_event(&self) -> Option<SimTime> {
        let inner = self.inner.lock();
        let disks = inner.spindles.disks.iter();
        let disk_next = disks.filter_map(Disk::next_completion).min();
        [disk_next, inner.next_job_issue()]
            .into_iter()
            .flatten()
            .min()
    }

    /// Indices of the disks that have died, in order.
    pub fn failed_disks(&self) -> Vec<usize> {
        self.inner.lock().spindles.failed.iter().copied().collect()
    }

    /// Bandwidth still available for new streams, bits/second.
    pub fn available_bps(&self) -> u64 {
        self.inner.lock().admission.available_bps()
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock();
        StoreStats {
            cache: inner.cache.stats,
            admission: inner.admission.stats,
            disks: inner.spindles.disks.iter().map(|d| d.stats).collect(),
            blocks_delivered: inner.blocks_delivered,
            coalesced_reads: inner.coalesced_reads,
            open_streams: inner.streams.len(),
            recordings_active: inner.recordings.len(),
            imports_active: inner.copies.len(),
            blocks_recorded: inner.blocks_recorded,
            blocks_imported: inner.blocks_imported,
            frames_recorded: inner.frames_recorded,
            committed_bps: inner.admission.committed_bps(),
            capacity_bps: inner.admission.capacity_bps(),
        }
    }
}

fn demand_bps(bitrate_bps: u64, speed_pct: u32) -> u64 {
    bitrate_bps.saturating_mul(u64::from(speed_pct.max(1))) / 100
}

fn reject(r: Rejection) -> StoreError {
    StoreError::AdmissionRejected {
        demanded_bps: r.demanded_bps,
        available_bps: r.available_bps,
    }
}
