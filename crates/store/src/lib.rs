//! `store` — the continuous-media storage subsystem of the MCAM
//! server.
//!
//! The paper's server streams XMovie films from disk; this crate
//! models the disk side of that path as a first-class, contended
//! resource so the stream provider can refuse work it cannot deliver:
//!
//! - [`StripeLayout`] — movies laid out block-interleaved across N
//!   simulated disks, with a property-tested bijective
//!   block → (disk, offset) map;
//! - [`Disk`] / [`DiskParams`] — a per-disk seek + transfer cost
//!   model on the `netsim` virtual clock, serving its request queue
//!   FIFO or in elevator/SCAN sweeps ([`DiskSched`]);
//! - [`BufferCache`] — a bounded block cache with LRU and
//!   interval-caching replacement ([`CachePolicy`]), the latter
//!   exploiting closely-spaced viewers of the same movie;
//! - [`AdmissionController`] — disk-bandwidth admission control that
//!   rejects work whose demand would exceed capacity, surfaced to
//!   clients as a negative MCAM response;
//! - [`BlockStore`] — all of the above behind one handle, serving
//!   three kinds of traffic that share the disks, the cache and the
//!   admission capacity but little code:
//!   - **playback** ([`BlockStore::open_stream`] …): per-stream
//!     prefetchers pipeline block reads ahead of the MTP sender's
//!     frame deadlines, coalescing reads across viewers and following
//!     the session layer's trick-mode [`PrefetchHint`]s;
//!   - **write sessions** ([`BlockStore::open_recording`] /
//!     `append_frame` / `seal_recording` / `finish_recording`):
//!     captured frames accumulate into blocks that are allocated per
//!     disk ([`BlockAllocator`]), staged through the cache and queued
//!     on the same elevator/SCAN disk queues as playback reads;
//!   - **background jobs**: one paced, admission-charged block-job
//!     engine behind both migration copies
//!     ([`BlockStore::begin_import`]) and the reconstruction of blocks
//!     lost to a dead spindle ([`BlockStore::fail_disk`] /
//!     [`BlockStore::begin_rebuild`]) — a job writes no faster than
//!     its bandwidth reservation pays for and no more than a short
//!     window ahead of the platters, so it visibly competes with
//!     viewers instead of teleporting data;
//!     [`BlockStore::import_movie`] is the unpaced bulk copy.
//!
//!   Every block any of them writes goes through one allocate-and-
//!   queue step that shuns dead spindles.
//!
//! # Examples
//!
//! ```
//! use store::{BlockStore, StoreConfig};
//! use mtp::MovieSource;
//! use netsim::SimTime;
//!
//! let store = BlockStore::new(StoreConfig::default());
//! let movie = MovieSource::test_movie(10, 42);
//! let id = store.register_movie(&movie);
//! store.open_stream(1, id, 100, SimTime::ZERO).expect("fits easily");
//! // Drive the disks until the whole movie is resident.
//! while let Some(t) = store.next_event() {
//!     store.pump(t);
//! }
//! assert_eq!(store.frames_ready_through(1), Some(movie.frame_count));
//! ```

#![warn(missing_docs)]

mod admission;
mod alloc;
mod cache;
mod disk;
mod layout;
mod store;

pub use admission::{AdmissionController, AdmissionStats, Rejection};
pub use alloc::BlockAllocator;
pub use cache::{BlockKey, BufferCache, CachePolicy, CacheStats};
pub use disk::{Disk, DiskParams, DiskSched, DiskStats, IoKind};
pub use layout::{BlockAddr, BlockMap, MovieId, StripeLayout};
pub use store::{
    BlockStore, PrefetchDirection, PrefetchHint, RecordingSummary, StoreConfig, StoreError,
    StoreStats,
};
