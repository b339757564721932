//! Write sessions: recordings of captured frames.
//!
//! A recording commits the source's mean bitrate against the same
//! admission capacity playback draws on, accumulates captured frames
//! into blocks, and hands each full block to the stripe set's write
//! path (allocated stripe-append style, staged through the buffer
//! cache, queued behind the same elevator as reads). Sealing flushes
//! the partial tail and releases the bandwidth; once every write has
//! left the disk queues the session is finalized into a registered,
//! streamable movie — or aborted, its blocks returned to the free
//! pool.

use super::{consumers_of, BlockStore, Layout, MovieRec, StoreError, WriteOwner};
use crate::cache::BlockKey;
use crate::layout::{BlockMap, MovieId};
use journal::AdmissionClass;
use mtp::MovieSource;
use netsim::SimTime;
use std::sync::Arc;

/// A recording in progress: frames accumulate into blocks, blocks are
/// allocated from the free pool and queued as writes; on completion
/// the map becomes the recorded movie's layout.
#[derive(Debug)]
pub(super) struct RecordingRec {
    movie: MovieId,
    frame_rate: u32,
    seed: u64,
    start_disk: usize,
    map: BlockMap,
    partial_bytes: u64,
    total_bytes: u64,
    frames: u64,
    sealed: bool,
    pub(super) blocks_durable: u64,
}
/// What a finished recording produced, as reported by
/// [`BlockStore::finish_recording`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordingSummary {
    /// The recorded movie's id (now a registered, streamable movie).
    pub movie: MovieId,
    /// Frames captured.
    pub frame_count: u64,
    /// Capture frame rate.
    pub frame_rate: u32,
    /// Mean bitrate of the captured frames, bits/second.
    pub bitrate_bps: u64,
    /// Blocks the recording occupies on disk.
    pub blocks: u64,
}

impl BlockStore {
    /// Opens a recording session `rec_id` whose frames will match
    /// `source` (rate, seed), passing write-bandwidth admission
    /// control: recording commits the source's mean bitrate against
    /// the same disk capacity playback streams draw on, so a server
    /// near saturation refuses the recorder — or, once recording,
    /// refuses the next viewer.
    ///
    /// Returns the id the recorded movie will have once finished.
    ///
    /// # Errors
    ///
    /// [`StoreError::AdmissionRejected`] when the write bandwidth
    /// does not fit.
    pub fn open_recording(&self, rec_id: u32, source: &MovieSource) -> Result<MovieId, StoreError> {
        let mut inner = self.inner.lock();
        let demand = source.mean_bitrate_bps().max(1);
        inner.admit_journaled(AdmissionClass::Recording, rec_id, demand)?;
        let (movie, start_disk) = inner.mint_movie();
        inner.recordings.insert(
            rec_id,
            RecordingRec {
                movie,
                frame_rate: source.frame_rate.max(1),
                seed: source.seed,
                start_disk,
                map: BlockMap::new(),
                partial_bytes: 0,
                total_bytes: 0,
                frames: 0,
                sealed: false,
                blocks_durable: 0,
            },
        );
        inner
            .write_owners
            .insert(movie, WriteOwner::Recording(rec_id));
        Ok(movie)
    }

    /// Appends one captured frame of `bytes` to recording `rec_id` at
    /// `now`. Every time a block's worth of frames has accumulated,
    /// the dirty block is staged through the buffer cache (a trailing
    /// viewer of the fresh recording will hit it), a free block is
    /// allocated stripe-append style, and the write joins the disk
    /// queue under the same elevator/SCAN discipline as reads.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownStream`] for unknown or sealed sessions.
    pub fn append_frame(&self, rec_id: u32, bytes: u32, now: SimTime) -> Result<(), StoreError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let block_size = u64::from(inner.config.block_size);
        let Some(rec) = inner.recordings.get_mut(&rec_id) else {
            return Err(StoreError::UnknownStream(rec_id));
        };
        if rec.sealed {
            return Err(StoreError::UnknownStream(rec_id));
        }
        rec.partial_bytes += u64::from(bytes);
        rec.total_bytes += u64::from(bytes);
        rec.frames += 1;
        inner.frames_recorded += 1;
        while rec.partial_bytes >= block_size {
            rec.partial_bytes -= block_size;
            // Only a completed block is weighed against the viewers.
            let consumers = consumers_of(&inner.streams);
            let index = inner.spindles.append_block(
                now,
                rec.movie,
                rec.start_disk,
                &mut rec.map,
                block_size,
            );
            inner.cache.insert(
                BlockKey {
                    movie: rec.movie,
                    index,
                },
                &consumers,
            );
            inner.blocks_recorded += 1;
        }
        Ok(())
    }

    /// Seals a recording: capture is over, the partial tail block (if
    /// any) is flushed to disk, and the session's write bandwidth is
    /// released back to admission control. Queued writes keep
    /// draining; [`BlockStore::recording_durable`] reports when the
    /// last one lands. Idempotent.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownStream`] for unknown sessions.
    pub fn seal_recording(&self, rec_id: u32, now: SimTime) -> Result<(), StoreError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let block_size = u64::from(inner.config.block_size);
        let Some(rec) = inner.recordings.get_mut(&rec_id) else {
            return Err(StoreError::UnknownStream(rec_id));
        };
        if rec.sealed {
            return Ok(());
        }
        if rec.partial_bytes > 0 {
            let tail = rec.partial_bytes;
            rec.partial_bytes = 0;
            // The tail transfer costs only the bytes it holds.
            inner.spindles.append_block(
                now,
                rec.movie,
                rec.start_disk,
                &mut rec.map,
                tail.min(block_size),
            );
            inner.blocks_recorded += 1;
        }
        rec.sealed = true;
        inner.admission.release(rec_id);
        Ok(())
    }

    /// Whether a recording has been sealed *and* every queued write
    /// has reached the platter (`None` for unknown sessions).
    pub fn recording_durable(&self, rec_id: u32) -> Option<bool> {
        let inner = self.inner.lock();
        let rec = inner.recordings.get(&rec_id)?;
        Some(rec.sealed && rec.blocks_durable >= rec.map.block_count())
    }

    /// Finalizes a durable recording into a registered movie: the
    /// block map becomes the movie's layout and the actual captured
    /// frame count and mean bitrate are recorded, so a subsequent
    /// [`BlockStore::register_movie`] with the matching source finds
    /// it and playback reads the recorded blocks.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownStream`] for unknown sessions;
    /// [`StoreError::RecordingIncomplete`] while frames are still
    /// arriving or writes are still queued.
    pub fn finish_recording(&self, rec_id: u32) -> Result<RecordingSummary, StoreError> {
        let mut inner = self.inner.lock();
        match inner.recordings.get(&rec_id) {
            None => return Err(StoreError::UnknownStream(rec_id)),
            Some(rec) if !rec.sealed || rec.blocks_durable < rec.map.block_count() => {
                return Err(StoreError::RecordingIncomplete(rec_id));
            }
            Some(_) => {}
        }
        let rec = inner.recordings.remove(&rec_id).expect("checked above");
        inner.write_owners.remove(&rec.movie);
        let blocks = rec.map.block_count();
        let bitrate_bps = (rec.total_bytes * 8 * u64::from(rec.frame_rate))
            .checked_div(rec.frames)
            .unwrap_or(1)
            .max(1);
        let frames_per_block = if blocks == 0 {
            1
        } else {
            rec.frames.div_ceil(blocks).max(1)
        };
        let summary = RecordingSummary {
            movie: rec.movie,
            frame_count: rec.frames,
            frame_rate: rec.frame_rate,
            bitrate_bps,
            blocks,
        };
        inner.movies.insert(
            rec.movie,
            MovieRec {
                layout: Arc::new(Layout::Mapped(rec.map)),
                frames_per_block,
                frame_count: rec.frames,
                frame_rate: rec.frame_rate,
                bitrate_bps,
                seed: rec.seed,
            },
        );
        Ok(summary)
    }

    /// Abandons a recording: releases its bandwidth and returns its
    /// allocated blocks to the free pool (idempotent).
    pub fn abort_recording(&self, rec_id: u32) {
        let mut inner = self.inner.lock();
        inner.admission.release(rec_id);
        let Some(rec) = inner.recordings.remove(&rec_id) else {
            return;
        };
        inner.write_owners.remove(&rec.movie);
        inner.spindles.release(&rec.map);
    }
}
