//! Background block jobs: migration copies and spindle-death rebuilds.
//!
//! Both are the same thing — a [`PacedJob`]: a bandwidth reservation
//! charged to the admission capacity playback draws on, spent by
//! writing blocks no faster than the reservation allows and no more
//! than a short window ahead of the platters, so the job shares the
//! elevator queues with stream reads instead of flooding them. One
//! function, [`Pace::opens_at`], is the whole pacing policy; one
//! loop, [`StoreInner::issue_job`], runs it. The two kinds differ
//! only in what one issued block does and in how the job ends:
//!
//! - a **copy** ([`BlockStore::begin_import`]) appends each block to
//!   the map of a new title and waits for the caller's
//!   [`BlockStore::finish_import`];
//! - the **rebuild** ([`BlockStore::begin_rebuild`]) relocates one
//!   block lost to [`BlockStore::fail_disk`] onto a surviving disk,
//!   stages it through the cache so stalled viewers resume at once,
//!   and completes by itself when the lost-block queue is drained and
//!   durable. There is at most one: blocks lost while it runs join
//!   it.
//!
//! [`BlockStore::import_movie`], the unpaced bulk copy, lives here
//! too because it is the same append loop with the gate left out.

use super::{consumers_of, BlockStore, Layout, MovieRec, StoreError, StoreInner, WriteOwner};
use crate::cache::BlockKey;
use crate::disk::IoKind;
use crate::layout::{BlockMap, MovieId};
use journal::{AdmissionClass, EventKind};
use mtp::MovieSource;
use netsim::{SimDuration, SimTime};
use std::collections::HashSet;

/// Block-issue window of a paced job: enough to keep a short
/// sequential run on the disks without flooding the queues ahead of
/// stream reads.
const IMPORT_WINDOW: u64 = 8;

/// Job ids live in their own range of the 32-bit stream-id space so
/// they never collide with provider-allocated stream ids (high 16
/// bits = provider address) in the shared admission table.
pub(super) const JOB_ID_BASE: u32 = 0x4000_0000;

/// Progress of a paced job against its reservation.
#[derive(Debug)]
pub(super) struct Pace {
    reserve_bps: u64,
    started: SimTime,
    /// Blocks the job has to write in all.
    total: u64,
    /// Blocks queued for write so far.
    issued: u64,
    /// Issued blocks whose write has left the disk queue.
    pub(super) durable: u64,
}

impl Pace {
    fn new(reserve_bps: u64, started: SimTime, total: u64) -> Self {
        Pace {
            reserve_bps,
            started,
            total,
            issued: 0,
            durable: 0,
        }
    }

    /// The pacing policy: the instant the job may issue its next
    /// block, or `None` when it has none left or is window-bound (the
    /// disks' completion times cover that wait).
    ///
    /// Block *n* (from 0) may go out once the reservation has paid
    /// for the *n* blocks before it, so the first goes out at once and
    /// by time *t* at most `⌊t·reserve / block_bits⌋ + 1` have. The
    /// instant is rounded up to the clock's microsecond, so a wake-up
    /// scheduled for it never lands fractionally before the gate
    /// opens.
    fn opens_at(&self, block_bits: u64) -> Option<SimTime> {
        if self.issued >= self.total || self.issued - self.durable >= IMPORT_WINDOW {
            return None;
        }
        let paid_bits = u128::from(self.issued) * u128::from(block_bits);
        let us = (paid_bits * 1_000_000).div_ceil(u128::from(self.reserve_bps.max(1)));
        Some(self.started + SimDuration::from_micros(us as u64))
    }

    /// Every block is issued and has left the disk queues.
    fn done(&self) -> bool {
        self.durable >= self.total
    }
}

/// What one issued block of a job does.
#[derive(Debug)]
enum JobKind {
    /// Migration copy: the block is appended to the map of the new
    /// title `movie`, whose record `rec` is registered on finish.
    Copy {
        movie: MovieId,
        rec: MovieRec,
        start_disk: usize,
    },
    /// A copy of a title already resident here: nothing to write, the
    /// job exists so the caller's token resolves (and consumes an id,
    /// which the journal's hash chains can see).
    Resident { movie: MovieId },
    /// Rebuild: the next lost block is relocated to a surviving disk.
    Rebuild {
        /// The dead disk the rebuild was started for.
        disk: usize,
        /// Round-robin cursor over the surviving disks.
        next_disk: usize,
        /// Reconstruction writes in the disk queues, keyed by their
        /// physical identity: they are queued under the id of a
        /// registered movie, which names no write session.
        in_flight: HashSet<(usize, MovieId, u64)>,
    },
}

/// A background block job in progress.
#[derive(Debug)]
pub(super) struct PacedJob {
    pub(super) pace: Pace,
    kind: JobKind,
}

impl PacedJob {
    /// Credits the write at `(disk, offset)` of `movie` to this job if
    /// it is one of its reconstruction writes.
    pub(super) fn credit_reconstruction(
        &mut self,
        disk: usize,
        movie: MovieId,
        offset: u64,
    ) -> bool {
        let JobKind::Rebuild { in_flight, .. } = &mut self.kind else {
            return false;
        };
        let ours = in_flight.remove(&(disk, movie, offset));
        self.pace.durable += u64::from(ours);
        ours
    }
}

impl StoreInner {
    /// Issues the blocks of `job` due by `now`, one at a time while
    /// its gate is open.
    fn issue_job(&mut self, job: &mut PacedJob, now: SimTime) {
        let block_size = u64::from(self.config.block_size);
        let consumers = match job.kind {
            JobKind::Rebuild { .. } => consumers_of(&self.streams),
            _ => Vec::new(),
        };
        while job.pace.opens_at(block_size * 8).is_some_and(|t| t <= now) {
            match &mut job.kind {
                JobKind::Copy {
                    movie,
                    rec,
                    start_disk,
                } => {
                    let map = Layout::map_mut(&mut rec.layout);
                    self.spindles
                        .append_block(now, *movie, *start_disk, map, block_size);
                    self.blocks_imported += 1;
                }
                JobKind::Resident { .. } => unreachable!("a resident title has no blocks to copy"),
                JobKind::Rebuild {
                    next_disk,
                    in_flight,
                    ..
                } => {
                    let (movie, index) = self
                        .lost_blocks
                        .pop_front()
                        .expect("the rebuild's total counts the queued lost blocks");
                    let addr = self
                        .spindles
                        .write_block(now, movie, *next_disk, block_size);
                    let rec = self
                        .movies
                        .get_mut(&movie)
                        .expect("lost blocks name registered movies");
                    Layout::map_mut(&mut rec.layout).replace(index, addr);
                    // Staged through the cache: streams stalled on the
                    // lost block resume while the write drains.
                    self.cache.insert(BlockKey { movie, index }, &consumers);
                    in_flight.insert((addr.disk, movie, addr.offset));
                    *next_disk = (addr.disk + 1) % self.spindles.len();
                }
            }
            job.pace.issued += 1;
        }
    }

    /// Issues every job's due blocks — copies in ascending id, then
    /// the rebuild: same-instant writes queue in that order, and the
    /// disk schedule depends on it.
    pub(super) fn issue_jobs(&mut self, now: SimTime) {
        let mut copies = std::mem::take(&mut self.copies);
        for job in copies.values_mut() {
            self.issue_job(job, now);
        }
        self.copies = copies;
        if let Some((id, job)) = self.rebuild.take() {
            self.run_rebuild(id, job, now);
        }
    }

    /// Issues the rebuild's due blocks, then either keeps it running
    /// or — every lost block durable again — retires it: reservation
    /// released, completion journaled.
    fn run_rebuild(&mut self, id: u32, mut job: PacedJob, now: SimTime) {
        self.issue_job(&mut job, now);
        if !job.pace.done() {
            self.rebuild = Some((id, job));
            return;
        }
        self.admission.release(id);
        if let (Some((journal, server)), JobKind::Rebuild { disk, .. }) = (&self.journal, job.kind)
        {
            journal.record(
                server,
                EventKind::RebuildCompleted {
                    disk: disk as u32,
                    blocks: job.pace.total,
                },
            );
        }
    }

    /// Earliest instant any job's pace gate opens.
    pub(super) fn next_job_issue(&self) -> Option<SimTime> {
        let block_bits = u64::from(self.config.block_size) * 8;
        let rebuild = self.rebuild.iter().map(|(_, job)| job);
        self.copies
            .values()
            .chain(rebuild)
            .filter_map(|job| job.pace.opens_at(block_bits))
            .min()
    }
}

impl BlockStore {
    /// Opens a paced migration copy of `source` onto this store,
    /// reserving `reserve_bps` against the same admission capacity
    /// playback streams draw on: the copy's block writes are issued
    /// at that pace through the free-block allocator and the
    /// elevator/SCAN disk queues, so a migration competes with
    /// concurrent streams instead of teleporting data. Returns the
    /// import id; poll [`BlockStore::import_durable`] and call
    /// [`BlockStore::finish_import`] when every block has landed. A
    /// source already registered here completes instantly (nothing to
    /// copy) and reserves nothing.
    ///
    /// # Errors
    ///
    /// [`StoreError::AdmissionRejected`] when the reservation does not
    /// fit next to the admitted streams.
    pub fn begin_import(
        &self,
        source: &MovieSource,
        reserve_bps: u64,
        now: SimTime,
    ) -> Result<u32, StoreError> {
        let mut inner = self.inner.lock();
        let id = inner.next_job;
        let mut job = if let Some(movie) = inner.find_source(source) {
            PacedJob {
                pace: Pace::new(0, now, 0),
                kind: JobKind::Resident { movie },
            }
        } else {
            let reserve_bps = reserve_bps.max(1);
            inner.admit_journaled(AdmissionClass::Import, id, reserve_bps)?;
            let mut total = 0;
            let rec = MovieRec::of_source(source, inner.config.block_size, |block_count| {
                total = block_count;
                Layout::Mapped(BlockMap::new())
            });
            let (movie, start_disk) = inner.mint_movie();
            inner.write_owners.insert(movie, WriteOwner::Copy(id));
            PacedJob {
                pace: Pace::new(reserve_bps, now, total),
                kind: JobKind::Copy {
                    movie,
                    rec,
                    start_disk,
                },
            }
        };
        inner.next_job += 1;
        inner.issue_job(&mut job, now);
        inner.copies.insert(id, job);
        Ok(id)
    }

    /// Whether an import has issued and persisted every block (`None`
    /// for unknown imports).
    pub fn import_durable(&self, import_id: u32) -> Option<bool> {
        let inner = self.inner.lock();
        Some(inner.copies.get(&import_id)?.pace.done())
    }

    /// Finalizes a durable import: the copied block map becomes the
    /// movie's layout, the bandwidth reservation is released, and a
    /// subsequent [`BlockStore::register_movie`] of the matching
    /// source finds the copy, so the title streams from this replica.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownStream`] for unknown imports;
    /// [`StoreError::ImportIncomplete`] while blocks are still being
    /// issued or persisted.
    pub fn finish_import(&self, import_id: u32) -> Result<MovieId, StoreError> {
        let mut inner = self.inner.lock();
        match inner.copies.get(&import_id) {
            None => return Err(StoreError::UnknownStream(import_id)),
            Some(job) if !job.pace.done() => {
                return Err(StoreError::ImportIncomplete(import_id));
            }
            Some(_) => {}
        }
        let job = inner.copies.remove(&import_id).expect("checked above");
        inner.admission.release(import_id);
        match job.kind {
            JobKind::Copy { movie, rec, .. } => {
                inner.write_owners.remove(&movie);
                inner.movies.insert(movie, rec);
                Ok(movie)
            }
            JobKind::Resident { movie } => Ok(movie),
            JobKind::Rebuild { .. } => unreachable!("the copy table holds no rebuild"),
        }
    }

    /// Abandons an in-flight import (the migration's target was
    /// removed, or the copy is no longer wanted): the bandwidth
    /// reservation is released and every allocated block returns to
    /// the free pool (idempotent).
    pub fn abort_import(&self, import_id: u32) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let Some(job) = inner.copies.remove(&import_id) else {
            return;
        };
        inner.admission.release(import_id);
        if let JobKind::Copy { movie, mut rec, .. } = job.kind {
            inner.write_owners.remove(&movie);
            inner.spindles.release(Layout::map_mut(&mut rec.layout));
        }
    }

    /// Imports a copy of `source` onto this store's disks — the
    /// replication path for recorded movies: blocks are allocated
    /// from the free pool and written through the disk queues (a bulk
    /// background copy; it costs disk time but is not
    /// admission-charged), after which the movie is registered and
    /// streamable from this replica.
    pub fn import_movie(&self, source: &MovieSource, now: SimTime) -> MovieId {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if let Some(id) = inner.find_source(source) {
            return id;
        }
        let (id, start_disk) = inner.mint_movie();
        let block_size = inner.config.block_size;
        let spindles = &mut inner.spindles;
        let rec = MovieRec::of_source(source, block_size, |block_count| {
            let mut map = BlockMap::new();
            for _ in 0..block_count {
                spindles.append_block(now, id, start_disk, &mut map, u64::from(block_size));
            }
            Layout::Mapped(map)
        });
        inner.movies.insert(id, rec);
        id
    }

    /// Kills disk `disk` of the stripe set. Queued and in-service
    /// requests on the dead arm are dropped: streams waiting on them
    /// rewind their prefetchers and stall at the first lost block
    /// (until a rebuild relocates it), sessions waiting on dropped
    /// writes are not wedged. Every layout is materialized into an
    /// explicit block map, the blocks resident on the dead spindle are
    /// queued for reconstruction (joining the rebuild, if one is
    /// running), the write-path allocators stop choosing the disk,
    /// and admission capacity shrinks to the surviving disks' share —
    /// existing commitments are untouched, so the controller may read
    /// over-committed until streams drain.
    ///
    /// Returns the number of blocks lost with the spindle (0 for an
    /// out-of-range or already-dead disk). Idempotent per disk.
    pub fn fail_disk(&self, disk: usize, _now: SimTime) -> u64 {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if disk >= inner.spindles.len() || !inner.spindles.failed.insert(disk) {
            return 0;
        }
        // Unwind the requests that died with the arm.
        for (movie, offset, kind) in inner.spindles.disks[disk].fail() {
            match kind {
                IoKind::Read => inner.unwind_read(disk, movie, offset),
                IoKind::Write => inner.credit_write(disk, movie, offset),
            }
        }
        // Materialize every layout, collect the lost blocks, and
        // reserve the surviving analytic offsets so rebuild
        // allocations can never collide with live blocks.
        let disks_len = inner.spindles.len();
        let mut lost = 0u64;
        let mut high_water = vec![0u64; disks_len];
        for (mid, rec) in &mut inner.movies {
            let map = Layout::map_mut(&mut rec.layout);
            for (i, addr) in map.addrs().iter().enumerate() {
                if addr.disk == disk {
                    inner.lost_blocks.push_back((*mid, i as u64));
                    lost += 1;
                } else {
                    high_water[addr.disk] = high_water[addr.disk].max(addr.offset + 1);
                }
            }
        }
        for (d, hi) in high_water.into_iter().enumerate() {
            inner.spindles.allocators[d].reserve_through(hi);
        }
        if let Some((_, job)) = &mut inner.rebuild {
            job.pace.total += lost;
        }
        // The dead arm delivers nothing: admission capacity shrinks to
        // the survivors' share.
        let live = (disks_len - inner.spindles.failed.len()) as u64;
        let capacity = inner.config.capacity_bps() / disks_len as u64 * live;
        inner.admission.set_capacity_bps(capacity);
        if let Some((journal, server)) = &inner.journal {
            journal.record(
                server,
                EventKind::DiskFailed {
                    disk: disk as u32,
                    lost_blocks: lost,
                },
            );
        }
        lost
    }

    /// Begins the paced reconstruction of every block lost to failed
    /// disks, reserving `reserve_bps` against the same admission
    /// capacity playback draws on (so rebuild competes honestly with
    /// foreground viewers). Relocated blocks land on surviving disks
    /// and stage through the cache, unblocking stalled streams as the
    /// rebuild sweeps forward; the reservation is released and a
    /// `RebuildCompleted` event journaled when the last block is
    /// durable. Returns the rebuild's admission id. While a rebuild
    /// is running a further request starts nothing: blocks lost since
    /// have already joined the running job, whose id is returned and
    /// whose reservation stands.
    ///
    /// # Errors
    ///
    /// [`StoreError::AdmissionRejected`] when the reservation does not
    /// fit next to the admitted streams.
    pub fn begin_rebuild(&self, reserve_bps: u64, now: SimTime) -> Result<u32, StoreError> {
        let mut inner = self.inner.lock();
        if let Some((id, _)) = inner.rebuild {
            return Ok(id);
        }
        let id = inner.next_job;
        let reserve_bps = reserve_bps.max(1);
        inner.admit_journaled(AdmissionClass::Import, id, reserve_bps)?;
        inner.next_job += 1;
        let disk = inner.spindles.failed.last().copied().unwrap_or(0);
        let total = inner.lost_blocks.len() as u64;
        if let Some((journal, server)) = &inner.journal {
            journal.record(
                server,
                EventKind::RebuildStarted {
                    disk: disk as u32,
                    blocks: total,
                    reserve_bps,
                },
            );
        }
        let job = PacedJob {
            pace: Pace::new(reserve_bps, now, total),
            kind: JobKind::Rebuild {
                disk,
                next_disk: 0,
                in_flight: HashSet::new(),
            },
        };
        inner.run_rebuild(id, job, now);
        Ok(id)
    }

    /// Whether a rebuild is currently reconstructing lost blocks.
    pub fn rebuild_active(&self) -> bool {
        self.inner.lock().rebuild.is_some()
    }

    /// Rebuild progress as `(durable, total)` blocks (`None` when no
    /// rebuild is running).
    pub fn rebuild_progress(&self) -> Option<(u64, u64)> {
        let inner = self.inner.lock();
        let (_, job) = inner.rebuild.as_ref()?;
        Some((job.pace.durable, job.pace.total))
    }

    /// Blocks lost to dead spindles still awaiting reconstruction.
    pub fn lost_blocks_pending(&self) -> u64 {
        self.inner.lock().lost_blocks.len() as u64
    }
}
