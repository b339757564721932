//! Playback: read streams over registered movies.
//!
//! A stream passes bandwidth admission when it opens (and again when
//! its speed or sharing role changes), then a per-stream prefetcher
//! pipelines block reads ahead of the playback position: batched so
//! the elevator sweep sees sequential runs, coalesced so two viewers
//! of one block share one read, steered by the session layer's
//! trick-mode [`PrefetchHint`]s, and stalled — not failed — at a
//! block lost with a dead spindle until the rebuild relocates it.

use super::{demand_bps, BlockStore, StoreError, StoreInner};
use crate::cache::BlockKey;
use crate::layout::{BlockAddr, MovieId};
use journal::AdmissionClass;
use netsim::SimTime;
use std::collections::{BTreeSet, HashMap};

/// Predicted consumption direction of a [`PrefetchHint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefetchDirection {
    /// Playback advances; the prefetcher runs its usual dense window.
    #[default]
    Forward,
    /// The viewer is rewinding (backward-seek storm): blocks *behind*
    /// the playback base are worth caching.
    Backward,
}

/// A trick-mode prediction the session layer threads into the
/// prefetcher: which way the viewer's next repositioning will go and
/// how far (in blocks) each jump lands.
///
/// The default (`Forward`, stride 1) reproduces the unhinted
/// prefetcher exactly. A forward hint with stride *s* widens the
/// read-ahead horizon *s*-fold so repeated forward jumps land inside
/// prefetched ground; a backward hint arms a bounded strided sweep
/// behind the playback base that fills the cache for the next rewind
/// without ever touching the forward pipeline's delivery accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchHint {
    /// Predicted direction of the next repositioning.
    pub direction: PrefetchDirection,
    /// Predicted jump width in blocks (clamped to at least 1).
    pub stride: u32,
}

impl Default for PrefetchHint {
    fn default() -> Self {
        PrefetchHint::forward(1)
    }
}

impl PrefetchHint {
    /// A forward hint: stride 1 is the plain dense window, larger
    /// strides widen the horizon for repeated forward jumps.
    pub fn forward(stride: u32) -> Self {
        PrefetchHint {
            direction: PrefetchDirection::Forward,
            stride: stride.max(1),
        }
    }

    /// A backward hint for rewind storms jumping `stride` blocks back.
    pub fn backward(stride: u32) -> Self {
        PrefetchHint {
            direction: PrefetchDirection::Backward,
            stride: stride.max(1),
        }
    }
}

#[derive(Debug)]
pub(super) struct StreamRec {
    movie: MovieId,
    /// Next block the prefetcher will request.
    next_fetch: u64,
    /// First block of the current playback run (reset by seek).
    base_block: u64,
    /// Contiguous blocks delivered starting at `base_block`.
    contiguous: u64,
    /// Blocks delivered out of order, ahead of the contiguous run.
    early: BTreeSet<u64>,
    /// Outstanding disk reads.
    outstanding: u32,
    /// Current playback block position (for interval caching).
    position_block: u64,
    speed_pct: u32,
    /// Trick-mode prediction from the session layer (default hint =
    /// plain dense forward window).
    hint: PrefetchHint,
    /// Next descending target of the armed backward sweep, if any.
    back_fetch: Option<u64>,
    /// Backward fetches the active sweep may still issue.
    back_budget: u32,
}

impl StreamRec {
    fn new(movie: MovieId, speed_pct: u32) -> Self {
        StreamRec {
            movie,
            next_fetch: 0,
            base_block: 0,
            contiguous: 0,
            early: BTreeSet::new(),
            outstanding: 0,
            position_block: 0,
            speed_pct,
            hint: PrefetchHint::default(),
            back_fetch: None,
            back_budget: 0,
        }
    }

    /// Arms (or disarms) the backward sweep for the current hint,
    /// starting behind `base`.
    fn arm_sweep(&mut self, base: u64, budget: u32) {
        if self.hint.direction == PrefetchDirection::Backward {
            self.back_fetch = base.checked_sub(u64::from(self.hint.stride.max(1)));
            self.back_budget = budget;
        } else {
            self.back_fetch = None;
            self.back_budget = 0;
        }
    }

    fn deliver(&mut self, block: u64) {
        if block < self.base_block + self.contiguous {
            return; // stale or already-counted (pre-seek) completion
        }
        self.early.insert(block);
        while self.early.remove(&(self.base_block + self.contiguous)) {
            self.contiguous += 1;
        }
    }

    fn ready_through_block(&self) -> u64 {
        self.base_block + self.contiguous
    }
}

/// What the prefetcher's fetch step found for a block.
enum Fetch {
    /// Resident in the buffer cache.
    Cached,
    /// Already on order; the stream waits on that read.
    Joined,
    /// Queued on its disk.
    Queued,
    /// Lost with a dead spindle; nothing was issued.
    Dead,
}

/// Every open stream's `(movie, playback block)` — what the interval
/// cache policy weighs a new block against.
pub(super) fn consumers_of(streams: &HashMap<u32, StreamRec>) -> Vec<(MovieId, u64)> {
    streams
        .values()
        .map(|s| (s.movie, s.position_block))
        .collect()
}

impl StoreInner {
    /// A read left `disk`: caches the block and delivers it to every
    /// stream waiting on it.
    pub(super) fn deliver_read(
        &mut self,
        disk: usize,
        movie: MovieId,
        offset: u64,
        consumers: &[(MovieId, u64)],
    ) {
        let block = self.movies[&movie]
            .layout
            .invert(BlockAddr { disk, offset })
            .expect("disks only serve blocks the layout placed");
        let key = BlockKey {
            movie,
            index: block,
        };
        let waiters = self.in_flight.remove(&key).unwrap_or_default();
        self.cache.insert(key, consumers);
        for stream_id in waiters {
            if let Some(stream) = self.streams.get_mut(&stream_id) {
                stream.outstanding = stream.outstanding.saturating_sub(1);
                stream.deliver(block);
                self.blocks_delivered += 1;
            }
        }
    }

    /// A read died with `disk`'s arm: the streams waiting on it
    /// rewind their prefetchers to the lost block, where they stall
    /// until a rebuild relocates it.
    pub(super) fn unwind_read(&mut self, disk: usize, movie: MovieId, offset: u64) {
        let Some(block) = self
            .movies
            .get(&movie)
            .and_then(|rec| rec.layout.invert(BlockAddr { disk, offset }))
        else {
            return;
        };
        let key = BlockKey {
            movie,
            index: block,
        };
        for sid in self.in_flight.remove(&key).unwrap_or_default() {
            if let Some(s) = self.streams.get_mut(&sid) {
                s.outstanding = s.outstanding.saturating_sub(1);
                s.next_fetch = s.next_fetch.min(block);
            }
        }
    }

    /// Issues prefetch reads for `stream`, up to the configured depth
    /// and no further than the read-ahead horizon past the stream's
    /// playback position.
    ///
    /// Issue is *batched*: once the pipeline is primed, the
    /// prefetcher waits until a full batch of the read-ahead window
    /// has opened before issuing again, instead of trickling one
    /// block per block consumed. A batch puts a run of adjacent
    /// offsets on every disk at once, which is what lets the
    /// elevator sweep serve sequential continuations — the
    /// amortization `DiskParams::expected_seek` credits
    /// (`tests/scan_calibration.rs` measures it). A consumer at the
    /// delivery edge bypasses the gate so batching never adds a
    /// stall.
    pub(super) fn issue(&mut self, stream_id: u32, now: SimTime) {
        let Some(stream) = self.streams.get_mut(&stream_id) else {
            return;
        };
        let layout = &self.movies[&stream.movie].layout;
        // A forward hint's stride widens the horizon so a viewer
        // jumping ahead in fixed steps keeps landing on prefetched
        // ground; the default stride of 1 is the unhinted window.
        let fwd_stride = match stream.hint.direction {
            PrefetchDirection::Forward => u64::from(stream.hint.stride.max(1)),
            PrefetchDirection::Backward => 1,
        };
        let horizon = stream
            .position_block
            .max(stream.base_block)
            .saturating_add(u64::from(self.config.readahead_blocks.max(1)) * fwd_stride);
        let window_end = horizon.min(layout.block_count());
        let window = window_end.saturating_sub(stream.next_fetch);
        let batch = u64::from(
            self.config
                .prefetch_depth
                .clamp(1, self.config.readahead_blocks.max(2) / 2),
        );
        let starving = stream.position_block.max(stream.base_block) >= stream.ready_through_block();
        let tail = window_end >= layout.block_count();
        let gated = !starving && !tail && window < batch;
        let depth = self.config.prefetch_depth.max(1);
        let block_size = u64::from(self.config.block_size);
        // The one fetch step of both loops: puts `block` on order for
        // the stream, taking a depth slot when it now waits on a read.
        let mut fetch = |stream: &mut StreamRec, block: u64| {
            let key = BlockKey {
                movie: stream.movie,
                index: block,
            };
            if self.cache.lookup(key) {
                return Fetch::Cached;
            }
            if let Some(waiters) = self.in_flight.get_mut(&key) {
                // Another stream already has this block on order:
                // share the read instead of queueing a duplicate. A
                // stream re-requesting its own in-flight block (seek
                // back into the window) is already on the list.
                if !waiters.contains(&stream_id) {
                    waiters.push(stream_id);
                    stream.outstanding += 1;
                    self.coalesced_reads += 1;
                }
                return Fetch::Joined;
            }
            let addr = layout.locate(block);
            if self.spindles.failed.contains(&addr.disk) {
                return Fetch::Dead;
            }
            self.spindles.disks[addr.disk].enqueue(now, stream.movie, addr.offset, block_size);
            stream.outstanding += 1;
            self.in_flight.insert(key, vec![stream_id]);
            Fetch::Queued
        };
        while !gated && stream.outstanding < depth && stream.next_fetch < window_end {
            let block = stream.next_fetch;
            match fetch(stream, block) {
                // The block died with its spindle: the stream stalls
                // here until the rebuild relocates it (the relocated
                // copy lands in the cache, unblocking this loop).
                Fetch::Dead => break,
                Fetch::Cached => {
                    stream.deliver(block);
                    self.blocks_delivered += 1;
                }
                Fetch::Joined | Fetch::Queued => {}
            }
            stream.next_fetch += 1;
        }
        // Backward sweep: a rewind-storm hint pre-reads a strided,
        // budget-bounded window *behind* the playback base so the
        // next backward seek lands on cache-resident blocks. The
        // sweep never touches `next_fetch`/`contiguous` — delivery
        // ignores blocks behind the base — so the forward pipeline's
        // semantics are untouched; it runs after the forward loop, so
        // forward playback always claims the depth slots first.
        if stream.hint.direction == PrefetchDirection::Backward {
            let stride = u64::from(stream.hint.stride.max(1));
            while stream.outstanding < depth && stream.back_budget > 0 {
                let Some(block) = stream.back_fetch else {
                    break;
                };
                stream.back_fetch = block.checked_sub(stride);
                stream.back_budget -= 1;
                fetch(stream, block);
            }
        }
    }
}

impl BlockStore {
    /// Opens stream `stream_id` over `movie` at `speed_pct`, passing
    /// admission control and starting the prefetch pipeline.
    ///
    /// # Errors
    ///
    /// [`StoreError::AdmissionRejected`] when the bandwidth demand does
    /// not fit; [`StoreError::UnknownMovie`] for unregistered movies.
    pub fn open_stream(
        &self,
        stream_id: u32,
        movie: MovieId,
        speed_pct: u32,
        now: SimTime,
    ) -> Result<(), StoreError> {
        self.open_charging(stream_id, movie, speed_pct, None, now)
    }

    /// Opens stream `stream_id` over `movie` charging an explicit
    /// `demand_bps` instead of the movie's nominal demand — the
    /// stream-sharing entry point: a *merged* follower rides its
    /// leader's disk stream and charges 0 (no admission entry at
    /// all), a *fast-feed* follower charges only the catch-up delta.
    /// The prefetch pipeline starts regardless, so the follower is
    /// served from cache (or coalesced onto the leader's in-flight
    /// reads) behind the leader.
    ///
    /// # Errors
    ///
    /// [`StoreError::AdmissionRejected`] when a non-zero demand does
    /// not fit; [`StoreError::UnknownMovie`] for unregistered movies.
    pub fn open_stream_with_demand(
        &self,
        stream_id: u32,
        movie: MovieId,
        speed_pct: u32,
        demand_bps: u64,
        now: SimTime,
    ) -> Result<(), StoreError> {
        self.open_charging(stream_id, movie, speed_pct, Some(demand_bps), now)
    }

    /// Opens a stream charging `demand`, or the movie's nominal
    /// demand at `speed_pct` when `None`; a zero charge takes no
    /// admission entry at all.
    fn open_charging(
        &self,
        stream_id: u32,
        movie: MovieId,
        speed_pct: u32,
        demand: Option<u64>,
        now: SimTime,
    ) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        let Some(rec) = inner.movies.get(&movie) else {
            return Err(StoreError::UnknownMovie(movie));
        };
        let demand = demand.unwrap_or_else(|| demand_bps(rec.bitrate_bps, speed_pct));
        if demand > 0 {
            inner.admit_journaled(AdmissionClass::Stream, stream_id, demand)?;
        }
        inner
            .streams
            .insert(stream_id, StreamRec::new(movie, speed_pct));
        inner.issue(stream_id, now);
        Ok(())
    }

    /// Re-charges admission for an already-open stream without
    /// touching its pipeline — the sharing lifecycle transitions:
    /// leader promotion and group split-out admit the stream's full
    /// demand, fast-feed convergence passes 0 to release the delta
    /// reservation while the (now merged) stream stays open.
    ///
    /// # Errors
    ///
    /// [`StoreError::AdmissionRejected`] when a non-zero demand does
    /// not fit (any previous commitment is untouched);
    /// [`StoreError::UnknownStream`] for unknown ids.
    pub fn recharge_stream(&self, stream_id: u32, demand_bps: u64) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        if !inner.streams.contains_key(&stream_id) {
            return Err(StoreError::UnknownStream(stream_id));
        }
        if demand_bps == 0 {
            inner.admission.release(stream_id);
            Ok(())
        } else {
            inner.admit_journaled(AdmissionClass::Stream, stream_id, demand_bps)
        }
    }

    /// A stream's current playback position in blocks.
    pub fn stream_position_block(&self, stream_id: u32) -> Option<u64> {
        let inner = self.inner.lock();
        inner.streams.get(&stream_id).map(|s| s.position_block)
    }

    /// Bandwidth currently committed for one stream (`None` when the
    /// stream holds no admission entry — e.g. a merged follower).
    pub fn stream_demand(&self, stream_id: u32) -> Option<u64> {
        self.inner.lock().admission.demand_of(stream_id)
    }

    /// Replaces the buffer cache's pinned ranges wholesale: blocks of
    /// `movie` with `lo <= index <= hi` are protected from eviction.
    /// The stream-sharing engine pins the span between each merge
    /// group's trailing follower and its leader.
    pub fn set_pinned_ranges(&self, ranges: &[(MovieId, u64, u64)]) {
        self.inner.lock().cache.set_pinned(ranges);
    }

    /// Re-negotiates a stream's playback speed (bandwidth demand).
    ///
    /// # Errors
    ///
    /// [`StoreError::AdmissionRejected`] when the increased demand does
    /// not fit (the old speed stays committed);
    /// [`StoreError::UnknownStream`] for unknown ids.
    pub fn set_speed(&self, stream_id: u32, speed_pct: u32) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        let Some(stream) = inner.streams.get(&stream_id) else {
            return Err(StoreError::UnknownStream(stream_id));
        };
        let movie = stream.movie;
        let bitrate = inner.movies[&movie].bitrate_bps;
        let demand = demand_bps(bitrate, speed_pct);
        inner.admit_journaled(AdmissionClass::Stream, stream_id, demand)?;
        inner
            .streams
            .get_mut(&stream_id)
            .expect("checked above")
            .speed_pct = speed_pct;
        Ok(())
    }

    /// Repositions a stream's prefetcher to the block holding `frame`.
    /// Any trick-mode prefetch hint is reset: an unhinted seek means
    /// the session layer has no prediction.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownStream`] for unknown ids.
    pub fn seek_stream(&self, stream_id: u32, frame: u64, now: SimTime) -> Result<(), StoreError> {
        self.seek_stream_with_hint(stream_id, frame, PrefetchHint::default(), now)
    }

    /// Repositions a stream's prefetcher to the block holding `frame`
    /// carrying the session layer's trick-mode prediction: a backward
    /// hint arms a strided cache-filling sweep behind the new base, a
    /// forward hint with stride > 1 widens the read-ahead horizon.
    /// With [`crate::StoreConfig::prefetch_hints`] off the hint is dropped
    /// and this is exactly [`BlockStore::seek_stream`].
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownStream`] for unknown ids.
    pub fn seek_stream_with_hint(
        &self,
        stream_id: u32,
        frame: u64,
        hint: PrefetchHint,
        now: SimTime,
    ) -> Result<(), StoreError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let honor = inner.config.prefetch_hints;
        let budget = inner.config.readahead_blocks.max(1);
        let Some(stream) = inner.streams.get_mut(&stream_id) else {
            return Err(StoreError::UnknownStream(stream_id));
        };
        let rec = inner.movies[&stream.movie].clone();
        let block = (frame / rec.frames_per_block).min(rec.layout.block_count());
        stream.base_block = block;
        stream.next_fetch = block;
        stream.contiguous = 0;
        stream.early.clear();
        stream.position_block = block;
        stream.hint = if honor { hint } else { PrefetchHint::default() };
        stream.arm_sweep(block, budget);
        inner.issue(stream_id, now);
        Ok(())
    }

    /// Replaces a stream's trick-mode prefetch hint without
    /// repositioning it (the Play-at-speed path). A backward hint
    /// arms its sweep from the current playback base. No-op (beyond
    /// the error check) when [`crate::StoreConfig::prefetch_hints`] is off.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownStream`] for unknown ids.
    pub fn set_prefetch_hint(&self, stream_id: u32, hint: PrefetchHint) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        let honor = inner.config.prefetch_hints;
        let budget = inner.config.readahead_blocks.max(1);
        let Some(stream) = inner.streams.get_mut(&stream_id) else {
            return Err(StoreError::UnknownStream(stream_id));
        };
        if !honor {
            return Ok(());
        }
        stream.hint = hint;
        let base = stream.base_block.max(stream.position_block);
        stream.arm_sweep(base, budget);
        Ok(())
    }

    /// A stream's current trick-mode prefetch hint.
    #[cfg(test)]
    pub(crate) fn prefetch_hint(&self, stream_id: u32) -> Option<PrefetchHint> {
        self.inner.lock().streams.get(&stream_id).map(|s| s.hint)
    }

    /// Closes a stream, releasing its bandwidth (idempotent).
    pub fn close_stream(&self, stream_id: u32) {
        let mut inner = self.inner.lock();
        inner.admission.release(stream_id);
        inner.streams.remove(&stream_id);
    }

    /// Reports a stream's playback position (frame index) so the
    /// interval policy knows where each viewer is.
    pub fn note_position(&self, stream_id: u32, frame: u64) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let Some(stream) = inner.streams.get_mut(&stream_id) else {
            return;
        };
        let fpb = inner.movies[&stream.movie].frames_per_block;
        stream.position_block = frame / fpb;
    }
    /// Number of frames (from the stream's current playback run)
    /// whose blocks have been delivered: the sender may emit frames
    /// with index strictly below this.
    pub fn frames_ready_through(&self, stream_id: u32) -> Option<u64> {
        let inner = self.inner.lock();
        let stream = inner.streams.get(&stream_id)?;
        let rec = inner.movies.get(&stream.movie)?;
        if stream.ready_through_block() >= rec.layout.block_count() {
            return Some(rec.frame_count);
        }
        Some((stream.ready_through_block() * rec.frames_per_block).min(rec.frame_count))
    }
}
