//! The Stream Provider System (SPS): manages MTP senders for a server
//! machine.
//!
//! The paper separates the CM-stream level from the control level
//! (Table 1); accordingly the SPS is plain hand-written code (like the
//! XMovie service it stands in for), controlled *by* the Estelle
//! specification through the SUA/SPA agent but paced by the simulation
//! driver.
//!
//! The SPS pulls every frame through a [`store::BlockStore`], the
//! continuous-media storage subsystem: every open passes
//! disk-bandwidth admission control, a per-stream prefetcher pipelines
//! block reads ahead of the sender's frame deadlines, and a frame
//! whose block has not yet arrived stalls (and is sent late) instead
//! of being synthesized out of thin air. Close-spaced viewers of one
//! title are merged behind a leader by the [`share::ShareManager`]
//! beside it (a disabled manager makes every viewer its own leader).
//!
//! The SPS also hosts *recording sessions* ([`StreamProviderSystem::
//! record_open`]): captured frames arrive at the camera's frame rate
//! on the virtual clock and are appended through the store's write
//! path, so a recording reserves and consumes real disk bandwidth and
//! can crowd out (or be refused like) a playback stream.
//!
//! Every fallible operation fails with the store's own
//! [`StoreError`]: an unknown id is [`StoreError::UnknownStream`], and
//! whatever the store refuses passes through unchanged.
//!
//! One deadline index answers "is anything due?". A min-heap holds
//! `(deadline, id)` for every playing stream whose next frame is ready
//! (each stream keeps the key its live entry carries) and for every
//! unfinished recording's next capture; an entry no longer live is
//! dropped when it surfaces. Beside it a *poll-next* list names the
//! streams the next pump polls whatever their deadline: those waiting
//! on storage (playing, the next frame's block not yet delivered; the
//! index keeps the earliest of their deadlines) and those an operation
//! touched. None of them is in the heap.
//!
//! The driver calls [`StreamProviderSystem::pump`] on every iteration.
//! A pump returns at once while the provider is *clean*, nothing
//! indexed is due, no stalled deadline has come, no feedback datagram
//! waits on its socket and no store event is due. Every operation marks
//! the provider dirty, and so does a pump that did any work: the store
//! issues prefetch reads from the positions the *previous* pump left,
//! so the pump after a busy one, even at the same instant, is the one
//! that issues the reads for the positions just reached. Only a pump
//! that found nothing to do clears the mark.
//!
//! A pump that runs polls, in ascending id, the streams whose indexed
//! deadline has come and the poll-next list. Skipping the rest is
//! exact: a stream that is not due sends nothing, reporting an
//! unchanged position to the store and the sharing engine writes what
//! is already there, and a stream's delivered-through watermark only
//! grows between the provider's own operations (a seek resets it), so
//! a ready stream stays ready. Every pump looks at every recording.
//!
//! `open`, `close` and every operation on one stream (play, pause,
//! stop, seek, a catch-up reset) touch that stream; the recording
//! operations touch their session. `mark_dirty` touches *every* stream,
//! so code that changes a provider's store from outside `pump` calls it
//! (as [`crate::World::fail_disk`] does) and needs no rule of its own.
//! In the debug profile a skipped pump runs anyway and panics, naming
//! the instant and the provider, if it changed anything; and after
//! every pump each stream it did not poll, and the index's deadlines,
//! are checked against a walk of every stream and recording.

use mtp::{MovieSource, MtpSender};
use netsim::{DatagramNet, DatagramSocket, NetAddr, SimDuration, SimTime};
use parking_lot::Mutex;
use share::{Departure, JoinPlan, ShareConfig, ShareManager};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::mem;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::task::Waker;
use store::{BlockStore, MovieId, PrefetchHint, StoreError};

/// A finished recording, as returned by
/// `StreamProviderSystem::record_close`: enough to finalize the
/// directory entry and to import the copy onto replica servers
/// ([`BlockStore::import_movie`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedMovie {
    /// The captured content (replayable source parameters).
    pub source: MovieSource,
    /// Mean bitrate measured over the captured frames, bits/second.
    pub bitrate_bps: u64,
}

/// A camera capture in progress: frames are appended to the store's
/// write path at the source's frame rate on the virtual clock.
#[derive(Debug)]
struct RecordingSession {
    source: MovieSource,
    captured: u64,
    next_frame_at: SimTime,
    sealed: bool,
    /// Whoever waits for the session to finish (see
    /// [`StreamProviderSystem::on_recording_finished`]).
    waiter: Option<Waker>,
}

impl RecordingSession {
    /// When the next frame is captured; `None` once every frame is.
    fn next_capture(&self) -> Option<SimTime> {
        (self.captured < self.source.frame_count).then_some(self.next_frame_at)
    }
}

/// One open playback stream.
struct Stream {
    sender: MtpSender,
    movie: MovieId,
    /// Last *forward* seek delta (in blocks): two consecutive forward
    /// jumps of the same width are treated as a skimming pattern and
    /// turned into a strided prefetch hint.
    last_forward_delta: Option<u64>,
    /// The deadline this stream's live entry in the index carries:
    /// `Some` while it plays with its next frame ready and no pump or
    /// operation has taken the entry yet.
    key: Option<SimTime>,
}

/// Where a sender stands for the index: its next deadline, and whether
/// that frame waits on storage (`ready` is the store's
/// delivered-through watermark). `None` while it does not play.
fn deadline(sender: &MtpSender, ready: Option<u64>) -> Option<(SimTime, bool)> {
    let due = sender.next_due()?;
    let position = sender.position();
    let stalled = position < sender.movie().frame_count && position >= ready.unwrap_or(u64::MAX);
    Some((due, stalled))
}

/// Room reserved up front in the index and its lists, so a provider
/// with up to this many streams never allocates in a pump.
const INDEX_CAPACITY: usize = 64;

/// The earlier of two optional instants.
fn earliest(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    a.into_iter().chain(b).min()
}

/// The open streams and recordings and the deadline index over them
/// (see the module docs).
struct Streams {
    /// Ordered maps: `pump` polls streams and captures recordings in
    /// ascending id, and that order is the order frames reach the
    /// datagram network and draw from its seeded link model, so it must
    /// be the same in every process.
    map: BTreeMap<u32, Stream>,
    recordings: BTreeMap<u32, RecordingSession>,
    /// `(deadline, id)`, earliest first. A stream's entry is live while
    /// its `key` is the deadline, a recording's while it is the next
    /// capture.
    heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// The poll-next list: streams waiting on storage and ids touched
    /// since the last pump.
    waiting: Vec<u32>,
    /// The earliest deadline of a stream waiting on storage.
    stalled_until: Option<SimTime>,
    /// Whether the next pump runs even if nothing is due.
    dirty: bool,
    /// The ids the last pump polled, ascending (a reused buffer).
    polled: Vec<u32>,
    /// Streams polled so far, for the tests' cost assertions.
    #[cfg(test)]
    polls: usize,
}

impl Streams {
    fn new() -> Self {
        Streams {
            map: BTreeMap::new(),
            recordings: BTreeMap::new(),
            heap: BinaryHeap::with_capacity(2 * INDEX_CAPACITY),
            waiting: Vec::with_capacity(INDEX_CAPACITY),
            stalled_until: None,
            dirty: true,
            polled: Vec::with_capacity(INDEX_CAPACITY),
            #[cfg(test)]
            polls: 0,
        }
    }

    /// Takes stream `id` out of the heap and onto the poll-next list.
    fn touch(&mut self, id: u32) {
        if let Some(stream) = self.map.get_mut(&id) {
            stream.key = None;
        }
        if !self.waiting.contains(&id) {
            self.waiting.push(id);
        }
        self.dirty = true;
    }

    /// The ids a pump at `now` polls, ascending: those whose indexed
    /// deadline has come (their entries taken) and the poll-next list.
    /// Each is re-filed by [`Streams::reindex`].
    fn take_polled(&mut self, now: SimTime) -> Vec<u32> {
        let mut polled = mem::take(&mut self.polled);
        polled.clear();
        while let Some(&Reverse((t, id))) = self.heap.peek() {
            if t > now {
                break;
            }
            self.heap.pop();
            if let Some(stream) = self.map.get_mut(&id).filter(|s| s.key == Some(t)) {
                stream.key = None;
                polled.push(id);
            }
        }
        polled.append(&mut self.waiting);
        polled.sort_unstable();
        polled.dedup();
        self.stalled_until = None;
        polled
    }

    /// Files a just-polled stream under what it now waits for.
    fn reindex(&mut self, id: u32, ready: Option<u64>) {
        let Some(stream) = self.map.get_mut(&id) else {
            return;
        };
        match deadline(&stream.sender, ready) {
            Some((t, false)) => {
                if stream.key != Some(t) {
                    stream.key = Some(t);
                    self.heap.push(Reverse((t, id)));
                }
            }
            Some((t, true)) => {
                stream.key = None;
                self.waiting.push(id);
                self.stalled_until = earliest(self.stalled_until, Some(t));
            }
            None => stream.key = None,
        }
    }

    /// The earliest live deadline in the heap; stale entries on top are
    /// dropped on the way.
    fn first_due(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((t, id))) = self.heap.peek() {
            let live = match self.map.get(&id) {
                Some(stream) => stream.key == Some(t),
                None => self.recordings.get(&id).and_then(|r| r.next_capture()) == Some(t),
            };
            if live {
                return Some(t);
            }
            self.heap.pop();
        }
        None
    }
}

/// The per-server stream provider: a registry of paced MTP senders
/// sharing one datagram socket, fed by a block store.
pub struct StreamProviderSystem {
    socket: DatagramSocket,
    addr: NetAddr,
    streams: Mutex<Streams>,
    store: Arc<BlockStore>,
    /// The stream-sharing merge engine (followers are served from the
    /// store's interval cache).
    share: Arc<ShareManager>,
    next_stream: AtomicU32,
}

impl fmt::Debug for StreamProviderSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamProviderSystem")
            .field("addr", &self.addr)
            .field("streams", &self.streams.lock().map.len())
            .finish_non_exhaustive()
    }
}

impl StreamProviderSystem {
    /// Binds the provider to `addr`, pulling every stream through
    /// `store` (admission control, cache, prefetch) with stream
    /// sharing off.
    ///
    /// # Panics
    ///
    /// Panics if the address is already bound (deployment error).
    pub fn with_store(dg: &Arc<DatagramNet>, addr: NetAddr, store: Arc<BlockStore>) -> Arc<Self> {
        let share = Arc::new(ShareManager::new(ShareConfig::off()));
        Self::with_shared_store(dg, addr, store, share)
    }

    /// Binds the provider to `addr` over `store`, with `share` merging
    /// close-spaced viewers of one title into leader/follower groups:
    /// merged followers charge no disk bandwidth (they ride the pinned
    /// cache span behind their leader), fast-feeding followers charge
    /// only the catch-up delta until they converge.
    ///
    /// # Panics
    ///
    /// Panics if the address is already bound (deployment error).
    pub(crate) fn with_shared_store(
        dg: &Arc<DatagramNet>,
        addr: NetAddr,
        store: Arc<BlockStore>,
        share: Arc<ShareManager>,
    ) -> Arc<Self> {
        let socket = dg.bind(addr).expect("SPS address available");
        // Stream ids are distinct across providers (the address seeds
        // the counter's high 16 bits), so clients and MCAs can tell
        // replicas' streams apart. `open` asserts the 16-bit
        // per-provider slice is never exhausted — wrapping into a
        // neighbour's range would make id-based bookkeeping ambiguous
        // (control-op routing itself resolves a stream's home by
        // asking the providers, not by decoding the id).
        Arc::new(StreamProviderSystem {
            socket,
            addr,
            streams: Mutex::new(Streams::new()),
            store,
            share,
            next_stream: AtomicU32::new((addr.0 << 16) | 1),
        })
    }

    /// Touches every stream: the next [`StreamProviderSystem::pump`]
    /// runs and polls them all, and until then
    /// [`StreamProviderSystem::next_due`] reads each one's deadline
    /// live. Code that changes the provider's store from outside (a
    /// failed disk) calls this.
    pub(crate) fn mark_dirty(&self) {
        let mut guard = self.streams.lock();
        let streams = &mut *guard;
        streams.waiting.clear();
        for (&id, stream) in &mut streams.map {
            stream.key = None;
            streams.waiting.push(id);
        }
        streams.dirty = true;
    }

    /// Makes the next pump run and poll stream `id`: what every method
    /// that changes one stream or recording calls (a recording's id
    /// names no stream; every pump looks at every recording).
    fn touch(&self, id: u32) {
        self.streams.lock().touch(id);
    }

    /// The provider's datagram address.
    pub fn addr(&self) -> NetAddr {
        self.addr
    }

    /// Allocates the next stream/recording id from this provider's
    /// 16-bit slice.
    fn alloc_stream_id(&self) -> u32 {
        let id = self.next_stream.fetch_add(1, Ordering::SeqCst);
        assert_eq!(
            id >> 16,
            self.addr.0,
            "stream-id slice exhausted: provider {} opened 2^16 streams",
            self.addr.0
        );
        id
    }

    /// The provider's location name as stored in directory entries.
    pub fn location(&self) -> String {
        format!("node-{}", self.addr.0)
    }

    /// Whether a merge group on this provider is currently streaming
    /// `movie` — the `SelectMovie` routing tie-break: among equally
    /// loaded replicas, the one already sharing the title serves the
    /// next viewer (nearly) for free.
    pub(crate) fn shares_source(&self, movie: &MovieSource) -> bool {
        self.store
            .find_movie(movie)
            .is_some_and(|id| self.share.shares_movie(id))
    }

    /// Opens a stream of `movie` towards `dest`, returning its id.
    ///
    /// With sharing on, the viewer is batched into an existing group
    /// when one streams the title close by: a merged follower charges
    /// **zero** disk bandwidth, a fast-feeding follower only the
    /// catch-up delta; only a fresh leader pays a full stream.
    ///
    /// # Errors
    ///
    /// [`StoreError::AdmissionRejected`] when the store's admission
    /// control cannot fit the stream's bandwidth demand.
    pub fn open(&self, movie: MovieSource, dest: NetAddr, now: SimTime) -> Result<u32, StoreError> {
        let id = self.alloc_stream_id();
        self.touch(id);
        let (store, share) = (&self.store, &self.share);
        let movie_id = store.register_movie(&movie);
        match share.plan_join(movie_id) {
            JoinPlan::Lead => {
                store.open_stream(id, movie_id, 100, now)?;
                share.open_leader(id, movie_id);
            }
            JoinPlan::Merge { leader, .. } => {
                store.open_stream_with_demand(id, movie_id, 100, 0, now)?;
                share.open_merged(id, movie_id, leader);
                store.set_pinned_ranges(&share.pinned_ranges());
            }
            JoinPlan::FastFeed { leader, .. } => {
                let bitrate = store.demand_for(movie_id, 100).unwrap_or(0);
                let delta = share.fast_feed_delta_bps(bitrate);
                store.open_stream_with_demand(id, movie_id, 100, delta, now)?;
                share.open_fast_feed(id, movie_id, leader, delta);
                store.set_pinned_ranges(&share.pinned_ranges());
            }
        }
        let stream = Stream {
            sender: MtpSender::new(self.socket.clone(), dest, id, movie),
            movie: movie_id,
            last_forward_delta: None,
            key: None,
        };
        self.streams.lock().map.insert(id, stream);
        Ok(id)
    }

    /// The movie an open stream plays; every trick operation starts
    /// here, so an unknown id fails before anything is touched.
    fn known(&self, id: u32) -> Result<MovieId, StoreError> {
        self.with_stream(id, |s| s.movie)
    }

    /// The admission demand of `stream` playing alone at nominal rate.
    fn full_demand(&self, stream: u32) -> u64 {
        self.known(stream)
            .ok()
            .and_then(|m| self.store.demand_for(m, 100))
            .unwrap_or(0)
    }

    /// Applies the sharing consequences of a trick operation on
    /// `stream` before the operation itself runs, with the stream
    /// landing at `target_block` afterwards.
    ///
    /// - A follower leaving its group must re-admit a full disk stream
    ///   of its own; rejection fails the operation (the follower stays
    ///   merged, untouched).
    /// - A leader with followers must first see its replacement leader
    ///   charged one full stream — the operation is refused when that
    ///   does not fit, the leader may not strand its followers without
    ///   bandwidth; then it departs into a standalone band (keeping
    ///   its own charge) and the nearest follower is promoted.
    fn share_departure(&self, stream: u32, target_block: u64) -> Result<(), StoreError> {
        let (store, share) = (&self.store, &self.share);
        if share.is_follower(stream) {
            store.recharge_stream(stream, self.full_demand(stream))?;
            share.split_out(stream, target_block);
            self.reset_catch_up(stream);
            store.set_pinned_ranges(&share.pinned_ranges());
        } else if share.is_leader_with_followers(stream) {
            if let Some(candidate) = share.promotion_candidate(stream) {
                store.recharge_stream(candidate, self.full_demand(candidate))?;
            }
            if let Departure::Promoted { new_leader } =
                share.on_leader_departure(stream, target_block)
            {
                self.reset_catch_up(new_leader);
            }
            store.set_pinned_ranges(&share.pinned_ranges());
        }
        Ok(())
    }

    /// A fast-feeding follower that became a leader (or split out)
    /// returns to nominal playback rate.
    fn reset_catch_up(&self, stream: u32) {
        let _ = self.with_stream(stream, |s| s.sender.set_speed_pct(100));
    }

    /// Opens a recording session capturing `movie.frame_count` frames
    /// of `movie` at its frame rate, starting at `now`, and returns
    /// the session's stream id. The session passes write-bandwidth
    /// admission control and every captured frame goes through the
    /// store's striped write path.
    ///
    /// # Errors
    ///
    /// [`StoreError::AdmissionRejected`] when the write bandwidth does
    /// not fit next to the streams already admitted.
    pub(crate) fn record_open(&self, movie: MovieSource, now: SimTime) -> Result<u32, StoreError> {
        let id = self.alloc_stream_id();
        self.touch(id);
        self.store.open_recording(id, &movie)?;
        let mut streams = self.streams.lock();
        let session = RecordingSession {
            source: movie,
            captured: 0,
            next_frame_at: now,
            sealed: false,
            waiter: None,
        };
        streams.recordings.insert(id, session);
        streams.heap.push(Reverse((now, id)));
        Ok(id)
    }

    /// Whether a recording has captured every frame and persisted
    /// every block.
    pub(crate) fn recording_finished(&self, id: u32) -> bool {
        let streams = self.streams.lock();
        streams
            .recordings
            .get(&id)
            .is_some_and(|session| self.session_finished(id, session))
    }

    fn session_finished(&self, id: u32, session: &RecordingSession) -> bool {
        session.captured >= session.source.frame_count
            && self.store.recording_durable(id) == Some(true)
    }

    /// Registers the waker [`StreamProviderSystem::pump`] calls, once,
    /// when [`StreamProviderSystem::recording_finished`] has turned
    /// true for recording `id`. A recording that is already finished is
    /// not announced after the fact: the caller looks once itself.
    pub(crate) fn on_recording_finished(&self, id: u32, waker: Waker) {
        self.touch(id);
        if let Some(session) = self.streams.lock().recordings.get_mut(&id) {
            session.waiter = Some(waker);
        }
    }

    /// Finalizes a finished recording: the store registers the
    /// captured blocks as a playable movie and the session closes.
    ///
    /// # Errors
    ///
    /// Fails for unknown ids, and with
    /// [`StoreError::RecordingIncomplete`] while the recording is
    /// still capturing or persisting.
    pub(crate) fn record_close(&self, id: u32) -> Result<RecordedMovie, StoreError> {
        self.touch(id);
        let mut streams = self.streams.lock();
        let recordings = &mut streams.recordings;
        if !recordings.contains_key(&id) {
            return Err(StoreError::UnknownStream(id));
        }
        let bitrate_bps = self.store.finish_recording(id)?.bitrate_bps;
        let session = recordings.remove(&id).expect("checked above");
        Ok(RecordedMovie {
            source: session.source,
            bitrate_bps,
        })
    }

    /// Number of recording sessions in progress.
    pub fn recording_count(&self) -> usize {
        self.streams.lock().recordings.len()
    }

    /// Tears the provider down as a machine crash: every live stream
    /// and in-progress recording is dropped without a release
    /// handshake, their admission bandwidth and partial blocks
    /// released. Returns the number of sessions killed. The datagram
    /// socket stays bound, so a later re-registration ("repair and
    /// reboot") reuses the provider.
    pub(crate) fn crash(&self) -> usize {
        self.mark_dirty();
        let recordings = mem::take(&mut self.streams.lock().recordings);
        let streams: Vec<u32> = self.streams.lock().map.keys().copied().collect();
        let killed = recordings.len() + streams.len();
        for &id in recordings.keys() {
            self.store.abort_recording(id);
        }
        for id in streams {
            let _ = self.close(id);
        }
        killed
    }

    /// Closes a stream, releasing its storage bandwidth. Closing an
    /// in-progress recording aborts it (bandwidth released, blocks
    /// freed).
    ///
    /// # Errors
    ///
    /// Fails for unknown ids.
    pub fn close(&self, id: u32) -> Result<(), StoreError> {
        self.touch(id);
        if self.streams.lock().recordings.remove(&id).is_some() {
            self.store.abort_recording(id);
            return Ok(());
        }
        self.store.close_stream(id);
        if let Departure::Promoted { new_leader } = self.share.on_close(id) {
            // The closing leader just released a full stream, so the
            // promoted follower's re-charge always fits.
            let _ = self
                .store
                .recharge_stream(new_leader, self.full_demand(new_leader));
            self.reset_catch_up(new_leader);
        }
        self.store.set_pinned_ranges(&self.share.pinned_ranges());
        self.streams
            .lock()
            .map
            .remove(&id)
            .map(|_| ())
            .ok_or(StoreError::UnknownStream(id))
    }

    fn with_stream<R>(&self, id: u32, f: impl FnOnce(&mut Stream) -> R) -> Result<R, StoreError> {
        self.touch(id);
        let mut streams = self.streams.lock();
        streams
            .map
            .get_mut(&id)
            .map(f)
            .ok_or(StoreError::UnknownStream(id))
    }

    /// Starts or resumes playback.
    ///
    /// # Errors
    ///
    /// Fails for unknown ids, and with [`StoreError::AdmissionRejected`]
    /// when a speed above nominal would exceed the store's remaining
    /// disk bandwidth (the stream then keeps its previous speed).
    pub fn play(&self, id: u32, speed_pct: u32, now: SimTime) -> Result<(), StoreError> {
        self.known(id)?;
        let (store, share) = (&self.store, &self.share);
        if speed_pct == 100 && share.is_follower(id) {
            // Nominal-rate playback inside a group: no admission
            // change. A still-converging follower keeps (or resumes)
            // the fast-feed rate, a merged one rides the leader's
            // pace exactly.
            let rate = if share.is_fast_feeding(id) {
                share.config().catch_up_rate_pct
            } else {
                100
            };
            return self.with_stream(id, |s| {
                s.sender.set_speed_pct(rate);
                s.sender.play(now);
            });
        }
        if speed_pct != 100 {
            // A trick-speed viewer leaves its band: a follower
            // re-admits, a leader hands the group over first.
            let block = store.stream_position_block(id).unwrap_or(0);
            self.share_departure(id, block)?;
        }
        store.set_speed(id, speed_pct)?;
        if speed_pct != 100 {
            // Trick-speed playback consumes forward, only faster:
            // widen the read-ahead horizon to the speed multiple (and
            // drop any stale rewind hint).
            let stride = (speed_pct / 100).clamp(1, 4);
            let _ = store.set_prefetch_hint(id, PrefetchHint::forward(stride));
        }
        self.with_stream(id, |s| {
            s.sender.set_speed_pct(speed_pct);
            s.sender.play(now);
        })
    }

    /// Pauses playback. A shared follower pausing drifts out of its
    /// group: it must re-admit a full disk stream of its own, and a
    /// leader with followers hands the group to the nearest one.
    ///
    /// # Errors
    ///
    /// Fails for unknown ids, and with [`StoreError::AdmissionRejected`]
    /// when a group member's split-out stream does not fit (the member
    /// then stays in its group, still playing).
    pub(crate) fn pause(&self, id: u32) -> Result<(), StoreError> {
        self.known(id)?;
        let block = self.store.stream_position_block(id).unwrap_or(0);
        self.share_departure(id, block)?;
        self.with_stream(id, |s| s.sender.pause())
    }

    /// Stops playback (rewinds; the prefetcher repositions to the
    /// movie's first block). Stopping is a seek to frame 0 for the
    /// sharing engine: group members split out or hand over first.
    ///
    /// # Errors
    ///
    /// Fails for unknown ids, and with [`StoreError::AdmissionRejected`]
    /// when a group member's split-out stream does not fit.
    pub(crate) fn stop(&self, id: u32, now: SimTime) -> Result<(), StoreError> {
        self.known(id)?;
        self.share_departure(id, 0)?;
        self.with_stream(id, |s| s.sender.stop())?;
        self.store.seek_stream(id, 0, now)?;
        Ok(())
    }

    /// The prefetch prediction for a seek from block `cur` to block
    /// `target`: a backward jump hints a rewind storm (stride = jump
    /// width), and two consecutive forward jumps of the same width
    /// hint a skimming pattern (horizon widened to cover the next
    /// jump). A plain one-off forward seek carries no prediction.
    fn seek_hint(last: &mut Option<u64>, cur: u64, target: u64, readahead: u64) -> PrefetchHint {
        if target < cur {
            *last = None;
            let stride = (cur - target).clamp(1, 64) as u32;
            PrefetchHint::backward(stride)
        } else if target > cur {
            let delta = target - cur;
            if last.replace(delta) == Some(delta) {
                let stride = delta.div_ceil(readahead.max(1)).clamp(1, 8) as u32;
                PrefetchHint::forward(stride)
            } else {
                PrefetchHint::default()
            }
        } else {
            PrefetchHint::default()
        }
    }

    /// Seeks to a frame (the prefetcher follows). A group member
    /// seeking out of its band splits out (follower) or hands the
    /// group over (leader) — both honestly re-admitted. The jump's
    /// direction and width are threaded into the store as a
    /// [`PrefetchHint`] so rewind storms and fixed-stride skimming
    /// land on prefetched ground.
    ///
    /// # Errors
    ///
    /// Fails for unknown ids, and with [`StoreError::AdmissionRejected`]
    /// when a group member's split-out stream does not fit (the member
    /// then stays in its group at its old position).
    pub(crate) fn seek(&self, id: u32, frame: u64, now: SimTime) -> Result<(), StoreError> {
        let movie = self.known(id)?;
        let store = &self.store;
        let block = store.block_of_frame(movie, frame).unwrap_or(0);
        self.share_departure(id, block)?;
        let cur = store.stream_position_block(id).unwrap_or(0);
        let readahead = u64::from(store.config().readahead_blocks);
        let hint = self.with_stream(id, |s| {
            s.sender.seek(frame);
            Self::seek_hint(&mut s.last_forward_delta, cur, block, readahead)
        })?;
        store.seek_stream_with_hint(id, frame, hint, now)?;
        Ok(())
    }

    /// Current playback state of a stream.
    #[cfg(test)]
    fn state(&self, id: u32) -> Option<mtp::StreamState> {
        self.with_stream(id, |s| s.sender.state()).ok()
    }

    /// Current frame position of a stream.
    pub fn position(&self, id: u32) -> Option<u64> {
        self.with_stream(id, |s| s.sender.position()).ok()
    }

    /// The waiter of a finished recording, taken out of its session
    /// (each is woken once, and outside the provider's lock).
    fn take_finished_waiter(&self) -> Option<Waker> {
        let mut streams = self.streams.lock();
        streams
            .recordings
            .iter_mut()
            .filter(|(id, session)| {
                session.waiter.is_some() && self.session_finished(**id, session)
            })
            .find_map(|(_, session)| session.waiter.take())
    }

    /// Captures all recording frames due at or before `now`, feeding
    /// them through the store's write path, and indexes each session's
    /// next capture; a session that captures its last frame is sealed
    /// in the same pass (tail flushed, bandwidth released). Returns
    /// whether any session captured or sealed.
    fn pump_recordings(&self, now: SimTime) -> bool {
        let mut worked = false;
        let mut guard = self.streams.lock();
        let streams = &mut *guard;
        for (&id, session) in &mut streams.recordings {
            let interval = SimDuration::from_micros(session.source.frame_interval_us());
            let from = session.captured;
            while let Some(at) = session.next_capture().filter(|&t| t <= now) {
                let size = session.source.frame(session.captured).map_or(0, |f| f.size);
                let _ = self.store.append_frame(id, size, at);
                session.captured += 1;
                session.next_frame_at = at + interval;
            }
            if session.captured > from {
                worked = true;
                if let Some(t) = session.next_capture() {
                    streams.heap.push(Reverse((t, id)));
                }
            }
            if session.captured >= session.source.frame_count && !session.sealed {
                session.sealed = true;
                let _ = self.store.seal_recording(id, now);
                worked = true;
            }
        }
        worked
    }

    /// Emits all frames due at or before `now` across all streams
    /// (gated on storage delivery), captures due recording frames, and
    /// routes receiver feedback reports to their senders.
    ///
    /// Returns 0 at once, touching nothing, while the provider is clean
    /// (see the module docs), no indexed deadline (a ready sender's
    /// next frame, a recording's next capture) and no stalled sender's
    /// deadline has come, no datagram waits on its socket and no store
    /// event is due by `now`. A stalled sender's deadline ends the skip
    /// although its frame waits on storage: each poll of a stalled
    /// stream counts one [`mtp::SenderStats::storage_stalls`], so a
    /// playing stream past its deadline keeps the provider pumping
    /// exactly as often as before the skip existed.
    ///
    /// A pump that runs polls, in ascending id, the streams whose
    /// indexed deadline has come and the poll-next list (every stream
    /// after a `mark_dirty`); the rest would send nothing and change
    /// nothing. A pump that did any work leaves the provider dirty.
    pub fn pump(&self, now: SimTime) -> usize {
        if self.idle_at(now) {
            #[cfg(debug_assertions)]
            {
                let before = self.snapshot();
                let sent = self.pump_all(now);
                self.check(now);
                let after = self.snapshot();
                assert!(
                    sent == 0 && !self.streams.lock().dirty && before == after,
                    "skipped pump at {now} on the stream provider at {} would have worked \
                     (sent {sent}):\nbefore: {before:?}\nafter:  {after:?}",
                    self.location(),
                );
            }
            return 0;
        }
        let sent = self.pump_all(now);
        #[cfg(debug_assertions)]
        self.check(now);
        sent
    }

    /// Whether a pump at `now` provably has nothing to do.
    fn idle_at(&self, now: SimTime) -> bool {
        let later = |t: Option<SimTime>| t.is_none_or(|t| t > now);
        let mut streams = self.streams.lock();
        !streams.dirty
            && later(streams.stalled_until)
            && later(streams.first_due())
            && self.socket.pending() == 0
            && later(self.store.next_event())
    }

    /// The pump itself. Returns the frames sent, and leaves the provider
    /// dirty after any work: frames sent or skipped, blocks completed,
    /// feedback consumed, recording frames captured, waiters woken,
    /// fast-feeds converged.
    fn pump_all(&self, now: SimTime) -> usize {
        let (store, share) = (&self.store, &self.share);
        let mut worked = self.pump_recordings(now);
        worked |= store.pump(now) > 0;
        // The store's pump is what makes a captured recording durable:
        // tell whoever waits for one that has just finished.
        while let Some(waiter) = self.take_finished_waiter() {
            waiter.wake();
            worked = true;
        }
        let mut guard = self.streams.lock();
        let streams = &mut *guard;
        while let Some(dg) = self.socket.recv() {
            worked = true;
            if let Ok(fb) = mtp::MtpFeedback::decode(&dg.payload) {
                if let Some(stream) = streams.map.get_mut(&fb.stream_id) {
                    stream.sender.handle_feedback(&fb);
                }
            }
        }
        let polled = streams.take_polled(now);
        let mut sent = 0;
        for &id in &polled {
            let Some(Stream { sender, .. }) = streams.map.get_mut(&id) else {
                continue;
            };
            let from = sender.position();
            let ready = store.frames_ready_through(id);
            sent += sender.poll_gated(now, ready);
            let position = sender.position();
            worked |= position != from;
            store.note_position(id, position);
            if let Some(block) = store.stream_position_block(id) {
                share.note_position(id, block);
            }
            streams.reindex(id, ready);
            #[cfg(test)]
            {
                streams.polls += 1;
            }
        }
        streams.polled = polled;
        // Sharing maintenance: fast-feeds whose gap has closed to the
        // merge window release their delta reservation and drop back
        // to nominal rate; the pinned cache spans track every group's
        // current [trailing follower, leader] window.
        for id in share.converged_fast_feeds() {
            let _ = store.recharge_stream(id, 0);
            if let Some(stream) = streams.map.get_mut(&id) {
                stream.sender.set_speed_pct(100);
            }
            streams.touch(id);
            share.mark_converged(id);
            worked = true;
        }
        store.set_pinned_ranges(&share.pinned_ranges());
        streams.dirty = worked || sent > 0;
        sent
    }

    /// The debug-profile check after every pump: each stream the pump
    /// neither polled nor queued is one a poll would have left alone
    /// (not due; the store's and the sharing engine's position already
    /// what reporting it would write; still filed as ready under its
    /// deadline, or not playing), and while the provider is clean the
    /// index's `(first_due, stalled_until)` is what a walk of every
    /// stream and recording finds.
    #[cfg(debug_assertions)]
    fn check(&self, now: SimTime) {
        let mut streams = self.streams.lock();
        let mut walked = (None, None);
        for (&id, stream) in &streams.map {
            let sender = &stream.sender;
            let ready = self.store.frames_ready_through(id);
            let due = deadline(sender, ready);
            match due {
                Some((t, false)) => walked.0 = earliest(walked.0, Some(t)),
                Some((t, true)) => walked.1 = earliest(walked.1, Some(t)),
                None => {}
            }
            if streams.polled.binary_search(&id).is_ok() || streams.waiting.contains(&id) {
                continue;
            }
            let store_block = self.store.stream_position_block(id);
            let noted = store_block.is_none_or(|b| {
                Some(b) == self.store.block_of_frame(stream.movie, sender.position())
                    && self.share.position_block(id).is_none_or(|s| s == b)
            });
            let filed = match due {
                Some((t, false)) => stream.key == Some(t) && t > now,
                Some((_, true)) => false,
                None => stream.key.is_none(),
            };
            assert!(
                noted && filed,
                "pump at {now} on the stream provider at {} skipped stream {id} \
                 with work to do: next due {:?}, indexed under {:?}, ready through {ready:?}, \
                 position {} (block {store_block:?} in the store, {:?} in its group)",
                self.location(),
                sender.next_due(),
                stream.key,
                sender.position(),
                self.share.position_block(id),
            );
        }
        for session in streams.recordings.values() {
            walked.0 = earliest(walked.0, session.next_capture());
        }
        if !streams.dirty {
            let index = (streams.first_due(), streams.stalled_until);
            assert!(
                index == walked,
                "pump at {now} on the stream provider at {} indexes (first due, stalled \
                 until) {index:?}, but a walk of every stream and recording finds {walked:?}",
                self.location(),
            );
        }
    }

    /// Everything a pump can change, for the dry run behind a skipped
    /// pump.
    #[cfg(debug_assertions)]
    fn snapshot(&self) -> impl PartialEq + fmt::Debug {
        let mut streams = self.streams.lock();
        let index = (streams.first_due(), streams.stalled_until);
        let senders: Vec<_> = streams
            .map
            .iter()
            .map(|(id, s)| {
                let sender = &s.sender;
                (*id, sender.position(), sender.next_due(), sender.stats)
            })
            .collect();
        let share = (
            self.share.pinned_ranges(),
            self.share.shared_streams(),
            self.share.stats(),
        );
        let store = (
            self.store.stats(),
            self.store.next_event(),
            self.store.disk_queue_depths(),
        );
        (store, senders, index, share, self.socket.pending())
    }

    /// Earliest instant at which any stream can make progress: the
    /// next frame deadline of a stream whose data is ready, the next
    /// capture of an unfinished recording, or the next storage
    /// completion (for stalled streams). The index holds the first two
    /// except for the streams on the poll-next list, whose deadlines
    /// are read live, so an operation shows before the pump that
    /// re-files its stream.
    pub(crate) fn next_due(&self) -> Option<SimTime> {
        let mut streams = self.streams.lock();
        let indexed = earliest(streams.first_due(), self.store.next_event());
        let queued = streams.waiting.iter().filter_map(|id| {
            let sender = &streams.map.get(id)?.sender;
            match deadline(sender, self.store.frames_ready_through(*id))? {
                (t, false) => Some(t),
                (_, true) => None,
            }
        });
        queued.chain(indexed).min()
    }

    /// Number of open streams.
    pub fn stream_count(&self) -> usize {
        self.streams.lock().map.len()
    }

    /// Whether this provider hosts the stream (cluster routing asks
    /// every replica to find a stream's home for control operations).
    pub(crate) fn has_stream(&self, id: u32) -> bool {
        self.streams.lock().map.contains_key(&id)
    }
}

/// Load routing asks the provider's admission controller.
impl cluster::LoadProbe for StreamProviderSystem {
    fn load(&self) -> cluster::LoadSnapshot {
        self.store.load()
    }
}

/// Migration copies land in the provider's block store through the
/// paced, admission-charged import path.
impl cluster::MigrationHost for StreamProviderSystem {
    fn store(&self) -> &BlockStore {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtp::StreamState;
    use netsim::{LinkConfig, Network, SimDuration};
    use store::StoreConfig;

    fn rig_with_store(
        config: StoreConfig,
    ) -> (Arc<Network>, Arc<DatagramNet>, Arc<StreamProviderSystem>) {
        let net = Arc::new(Network::new(0));
        let dg = DatagramNet::new(&net, LinkConfig::perfect(SimDuration::from_millis(1)), 0);
        let sps = StreamProviderSystem::with_store(&dg, NetAddr(100), BlockStore::new(config));
        (net, dg, sps)
    }

    #[test]
    fn open_play_pump_close() {
        let (net, dg, sps) = rig_with_store(StoreConfig::default());
        let client = dg.bind(NetAddr(5)).unwrap();
        let id = sps
            .open(MovieSource::test_movie(1, 1), NetAddr(5), net.now())
            .unwrap();
        assert_eq!(sps.stream_count(), 1);
        sps.play(id, 100, net.now()).unwrap();
        assert_eq!(sps.state(id), Some(StreamState::Playing));
        // Pump one second of frames.
        net.run_until(SimTime::from_secs(1));
        let sent = sps.pump(net.now());
        assert!(sent >= 25, "sent={sent}");
        net.run_until_idle();
        assert!(client.pending() >= 25);
        sps.close(id).unwrap();
        assert_eq!(sps.close(id), Err(StoreError::UnknownStream(id)));
    }

    #[test]
    fn control_ops_route_to_sender() {
        let (net, _dg, sps) = rig_with_store(StoreConfig::default());
        let id = sps
            .open(MovieSource::test_movie(2, 1), NetAddr(5), net.now())
            .unwrap();
        sps.play(id, 200, net.now()).unwrap();
        sps.pause(id).unwrap();
        assert_eq!(sps.state(id), Some(StreamState::Paused));
        sps.seek(id, 30, net.now()).unwrap();
        assert_eq!(sps.position(id), Some(30));
        sps.stop(id, net.now()).unwrap();
        assert_eq!(sps.position(id), Some(0));
        assert!(sps.play(99, 100, net.now()).is_err());
    }

    #[test]
    fn next_due_tracks_playing_streams() {
        let (net, _dg, sps) = rig_with_store(StoreConfig::default());
        assert!(sps.next_due().is_none());
        let a = sps
            .open(MovieSource::test_movie(1, 1), NetAddr(5), net.now())
            .unwrap();
        // Let the prefetched blocks arrive: after that only a playing
        // sender can ask for a wake-up.
        while let Some(t) = sps.next_due() {
            net.run_until(t);
            sps.pump(net.now());
        }
        assert!(sps.next_due().is_none(), "ready but not playing");
        sps.play(a, 100, net.now()).unwrap();
        assert_eq!(sps.next_due(), Some(net.now()));
    }

    #[test]
    fn stored_stream_stalls_until_blocks_arrive() {
        let (net, dg, sps) = rig_with_store(StoreConfig::default());
        let client = dg.bind(NetAddr(5)).unwrap();
        let id = sps
            .open(MovieSource::test_movie(1, 1), NetAddr(5), net.now())
            .unwrap();
        sps.play(id, 100, net.now()).unwrap();
        // Nothing delivered from disk yet: the first poll stalls.
        assert_eq!(sps.pump(net.now()), 0);
        // The SPS points the driver at the first disk completion.
        let wake = sps.next_due().expect("disk read outstanding");
        assert!(wake > net.now());
        // After a generous second, frames flow.
        net.run_until(SimTime::from_secs(1));
        let sent = sps.pump(net.now());
        assert!(sent >= 25, "sent={sent}");
        net.run_until_idle();
        assert!(client.pending() >= 25);
    }

    #[test]
    fn recording_captures_on_the_clock_and_closes() {
        let (net, _dg, sps) = rig_with_store(StoreConfig::default());
        let source = MovieSource::test_movie(2, 9);
        let id = sps.record_open(source.clone(), net.now()).unwrap();
        assert_eq!(sps.recording_count(), 1);
        assert!(!sps.recording_finished(id), "nothing captured yet");
        // Half the movie's duration: capture is mid-flight.
        net.run_until(SimTime::from_secs(1));
        sps.pump(net.now());
        assert!(!sps.recording_finished(id));
        assert!(sps.record_close(id).is_err(), "cannot close mid-capture");
        // Past the end plus persistence: finished.
        let mut now = SimTime::from_secs(3);
        let mut guard = 0;
        while !sps.recording_finished(id) {
            sps.pump(now);
            if let Some(t) = sps.next_due() {
                now = now.max(t);
            } else {
                now += SimDuration::from_millis(100);
            }
            guard += 1;
            assert!(guard < 10_000, "recording never finished");
        }
        let recorded = sps.record_close(id).unwrap();
        assert_eq!(recorded.source, source);
        assert!(recorded.bitrate_bps > 0);
        assert_eq!(sps.recording_count(), 0);
        // The recorded movie is now streamable from this provider.
        let stream = sps.open(source, NetAddr(5), now).unwrap();
        assert!(sps.has_stream(stream));
    }

    #[test]
    fn close_aborts_an_open_recording() {
        let net = Arc::new(Network::new(0));
        let dg = DatagramNet::new(&net, LinkConfig::perfect(SimDuration::from_millis(1)), 0);
        let store = BlockStore::new(StoreConfig::default());
        let sps = StreamProviderSystem::with_store(&dg, NetAddr(100), Arc::clone(&store));
        let id = sps
            .record_open(MovieSource::test_movie(10, 4), net.now())
            .unwrap();
        net.run_until(SimTime::from_secs(1));
        sps.pump(net.now());
        sps.close(id).unwrap();
        assert_eq!(sps.recording_count(), 0);
        assert_eq!(
            store.stats().committed_bps,
            0,
            "aborted recording released its bandwidth"
        );
    }

    #[test]
    fn shared_followers_ride_the_leader_free_and_split_honestly() {
        let net = Arc::new(Network::new(0));
        let dg = DatagramNet::new(&net, LinkConfig::perfect(SimDuration::from_millis(1)), 0);
        let store = BlockStore::new(StoreConfig::default());
        let share = Arc::new(share::ShareManager::new(share::ShareConfig::default()));
        let sps = StreamProviderSystem::with_shared_store(
            &dg,
            NetAddr(100),
            Arc::clone(&store),
            Arc::clone(&share),
        );
        let movie = MovieSource::test_movie(30, 1);
        let leader = sps.open(movie.clone(), NetAddr(5), net.now()).unwrap();
        let full = store.stats().committed_bps;
        assert!(full > 0, "the leader charges a full stream");
        // Both at block 0: the second viewer merges for free.
        let follower = sps.open(movie.clone(), NetAddr(6), net.now()).unwrap();
        assert_eq!(
            store.stats().committed_bps,
            full,
            "a merged follower charges nothing"
        );
        assert!(share.is_follower(follower));
        assert!(sps.shares_source(&movie));
        sps.play(leader, 100, net.now()).unwrap();
        sps.play(follower, 100, net.now()).unwrap();
        // The follower seeks far out of the band: it must re-admit a
        // full stream of its own.
        sps.seek(follower, movie.frame_count / 2, net.now())
            .unwrap();
        assert_eq!(store.stats().committed_bps, 2 * full);
        assert!(!share.is_follower(follower));
        assert_eq!(share.stats().splits, 1);
        // Closing the leader of a sole-member group just dissolves it.
        sps.close(leader).unwrap();
        assert_eq!(store.stats().committed_bps, full);
        sps.close(follower).unwrap();
        assert_eq!(store.stats().committed_bps, 0);
        assert_eq!(share.group_count(), 0);
    }

    #[test]
    fn leader_close_promotes_and_recharges_a_follower() {
        let net = Arc::new(Network::new(0));
        let dg = DatagramNet::new(&net, LinkConfig::perfect(SimDuration::from_millis(1)), 0);
        let store = BlockStore::new(StoreConfig::default());
        let share = Arc::new(share::ShareManager::new(share::ShareConfig::default()));
        let sps = StreamProviderSystem::with_shared_store(
            &dg,
            NetAddr(100),
            Arc::clone(&store),
            Arc::clone(&share),
        );
        let movie = MovieSource::test_movie(30, 1);
        let leader = sps.open(movie.clone(), NetAddr(5), net.now()).unwrap();
        let follower = sps.open(movie, NetAddr(6), net.now()).unwrap();
        let full = store.stats().committed_bps;
        sps.close(leader).unwrap();
        assert_eq!(
            store.stats().committed_bps,
            full,
            "the promoted follower inherits exactly the released charge"
        );
        assert!(share.is_leader_with_followers(follower) || share.group_count() == 1);
        assert_eq!(share.stats().promotions, 1);
        assert_eq!(store.stream_demand(follower), Some(full));
    }

    #[test]
    fn overload_rejected_and_released() {
        let config = StoreConfig {
            disks: 1,
            disk: store::DiskParams {
                transfer_bytes_per_sec: 500_000,
                ..store::DiskParams::default()
            },
            ..StoreConfig::default()
        };
        let (net, _dg, sps) = rig_with_store(config);
        let mut ids = Vec::new();
        let err = loop {
            match sps.open(MovieSource::test_movie(30, 1), NetAddr(5), net.now()) {
                Ok(id) => ids.push(id),
                Err(e) => break e,
            }
            assert!(ids.len() < 100, "slow disk must saturate eventually");
        };
        assert!(matches!(err, StoreError::AdmissionRejected { .. }), "{err}");
        // Closing one stream re-opens the door.
        sps.close(ids[0]).unwrap();
        sps.open(MovieSource::test_movie(30, 1), NetAddr(5), net.now())
            .unwrap();
    }

    /// Two identical rigs run one script over 32 streams with
    /// staggered deadlines — play, seek, pause, trick speed, stop and
    /// feedback over a small cache that stalls streams on storage —
    /// stepped 1 ms at a time with two pumps per step. Rig A marks the
    /// provider dirty before every pump, so every pump polls every
    /// stream; rig B lets the provider skip pumps and poll only what
    /// its index names. Both must send the same datagrams and end with
    /// the same sender and store counters, and rig B must really skip.
    #[test]
    fn skipping_pumps_changes_nothing_in_lock_step() {
        const STREAMS: u32 = 32;
        struct Rig {
            net: Arc<Network>,
            sps: Arc<StreamProviderSystem>,
            clients: Vec<DatagramSocket>,
            ids: Vec<u32>,
            received: Vec<Vec<u8>>,
        }
        // Small blocks and a shallow prefetch window: playback crosses
        // a block every few frames, and each crossing lets the next
        // pump issue reads.
        let config = StoreConfig {
            block_size: 16 * 1024,
            cache_blocks: 6,
            prefetch_depth: 2,
            readahead_blocks: 4,
            ..StoreConfig::default()
        };
        let rig = || {
            let (net, dg, sps) = rig_with_store(config);
            let clients = (0..4).map(|i| dg.bind(NetAddr(5 + i)).unwrap()).collect();
            let ids = (0..STREAMS)
                .map(|i| {
                    let movie = MovieSource::test_movie(20, 3 + u64::from(i));
                    sps.open(movie, NetAddr(5 + i % 4), net.now()).unwrap()
                })
                .collect();
            Rig {
                net,
                sps,
                clients,
                ids,
                received: Vec::new(),
            }
        };
        let (mut full, mut lazy) = (rig(), rig());
        let mut skipped = 0;
        for step in 0..3_000u64 {
            let now = SimTime::from_millis(step);
            for (rig, forced) in [(&mut full, true), (&mut lazy, false)] {
                rig.net.run_until(now);
                let (sps, ids) = (&rig.sps, &rig.ids);
                let (a, b, c) = (ids[0], ids[1], ids[17]);
                match step {
                    // Stream i starts at i ms: no two share a deadline.
                    1..=32 => sps.play(ids[step as usize - 1], 100, now).unwrap(),
                    600 => sps.seek(a, 150, now).unwrap(),
                    900 => sps.pause(c).unwrap(),
                    1_000 => sps.pause(b).unwrap(),
                    1_300 => sps.play(c, 100, now).unwrap(),
                    1_400 => sps.play(b, 200, now).unwrap(),
                    1_500 => sps.seek(c, 10, now).unwrap(),
                    1_800 => sps.seek(a, 20, now).unwrap(),
                    2_200 => {
                        let fb = mtp::MtpFeedback {
                            stream_id: a,
                            highest_seq: 10,
                            received: 9,
                            lost: 1,
                        };
                        rig.clients[0].send_to(sps.addr(), fb.encode());
                    }
                    2_400 => sps.stop(b, now).unwrap(),
                    2_500 => sps.play(b, 100, now).unwrap(),
                    _ => {}
                }
                for _ in 0..2 {
                    if forced {
                        sps.mark_dirty();
                    } else if sps.idle_at(now) {
                        skipped += 1;
                    }
                    sps.pump(now);
                }
                for client in &rig.clients {
                    while let Some(dg) = client.recv() {
                        rig.received.push(dg.payload);
                    }
                }
            }
        }
        assert!(skipped > 1_000, "the lazy rig skipped only {skipped} pumps");
        let polls = |rig: &Rig| rig.sps.streams.lock().polls;
        assert!(
            polls(&lazy) * 4 < polls(&full),
            "the index polled {} streams, the full walks {}",
            polls(&lazy),
            polls(&full),
        );
        assert!(
            full.received.len() > 1_000,
            "{} frames",
            full.received.len()
        );
        assert!(full.received == lazy.received, "different frames received");
        let senders = |rig: &Rig| -> Vec<mtp::SenderStats> {
            let streams = rig.sps.streams.lock();
            rig.ids
                .iter()
                .map(|id| streams.map[id].sender.stats)
                .collect()
        };
        assert!(senders(&full).iter().any(|s| s.storage_stalls > 0));
        assert_eq!(senders(&full), senders(&lazy));
        assert_eq!(full.sps.store.stats(), lazy.sps.store.stats());
    }

    /// 32 streams, stream i playing from i ms on, so no two share a
    /// deadline, settled until every next frame is ready.
    fn staggered_rig() -> (Arc<Network>, Arc<StreamProviderSystem>) {
        let (net, _dg, sps) = rig_with_store(StoreConfig::default());
        let ids: Vec<u32> = (0..32)
            .map(|i| {
                sps.open(MovieSource::test_movie(60, i), NetAddr(5), net.now())
                    .unwrap()
            })
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            let t = SimTime::from_millis(i as u64);
            net.run_until(t);
            sps.pump(t);
            sps.play(id, 100, t).unwrap();
        }
        while net.now() < SimTime::from_secs(2) || !sps.streams.lock().waiting.is_empty() {
            let t = sps.next_due().expect("32 streams play");
            net.run_until(t);
            sps.pump(t);
        }
        (net, sps)
    }

    #[test]
    fn a_pump_polls_only_due_streams() {
        let (net, sps) = staggered_rig();
        let polls = || sps.streams.lock().polls;
        let mut frames = 0;
        for _ in 0..64 {
            let t = sps.next_due().expect("32 streams play");
            net.run_until(t);
            let before = polls();
            let sent = sps.pump(t);
            assert!(sps.streams.lock().waiting.is_empty(), "a stream stalled");
            if sent > 0 {
                assert_eq!((sent, polls() - before), (1, 1), "at {t}");
                // The pump after a busy one issues the store's reads
                // and polls nothing: no other stream is due.
                let before = polls();
                assert_eq!(sps.pump(t), 0);
                assert_eq!(polls() - before, 0, "the second pump at {t}");
            } else {
                assert_eq!(polls() - before, 0, "a storage wake-up at {t}");
            }
            frames += sent;
        }
        assert!(frames >= 32, "{frames} frames in 64 wake-ups");
    }

    /// A provider with one recording and no stream sleeps between
    /// captures: the index wakes it at each one, and not a microsecond
    /// earlier unless the store has an event due.
    #[test]
    fn a_lone_recording_wakes_the_provider_at_each_capture() {
        let (net, _dg, sps) = rig_with_store(StoreConfig::default());
        let source = MovieSource::test_movie(2, 9);
        let id = sps.record_open(source.clone(), net.now()).unwrap();
        let next_capture = || sps.streams.lock().recordings[&id].next_capture();
        let (mut now, mut wakes) = (net.now(), 0);
        loop {
            for pumps in 0.. {
                assert!(pumps < 10, "the provider at {now} never settles");
                if sps.idle_at(now) {
                    break;
                }
                sps.pump(now);
            }
            if sps.recording_finished(id) {
                break;
            }
            if let Some(c) = next_capture() {
                assert!(!sps.idle_at(c), "the capture at {c} sleeps through");
                let before = SimTime::from_micros(c.as_micros() - 1);
                if sps.store.next_event().is_none_or(|e| e >= c) {
                    assert!(sps.idle_at(before), "the provider wakes at {before}");
                    wakes += 1;
                }
            }
            now = sps.next_due().expect("the recording is unfinished");
            net.run_until(now);
        }
        assert_eq!(
            sps.streams.lock().recordings[&id].captured,
            source.frame_count
        );
        assert!(wakes > 0, "a store event came with every capture");
    }

    /// What [`StreamProviderSystem::next_due`] must answer, by a walk:
    /// the earliest ready deadline, next capture or store event.
    fn walked_next_due(sps: &StreamProviderSystem) -> Option<SimTime> {
        let streams = sps.streams.lock();
        let ready = streams.map.iter().filter_map(|(&id, s)| {
            match deadline(&s.sender, sps.store.frames_ready_through(id))? {
                (t, false) => Some(t),
                (_, true) => None,
            }
        });
        let captures = streams
            .recordings
            .values()
            .filter_map(RecordingSession::next_capture);
        ready.chain(captures).chain(sps.store.next_event()).min()
    }

    /// An operation takes its stream out of the index at once, so
    /// `next_due` between the operation and the next pump reads that
    /// stream as it now stands, not under its old deadline.
    #[test]
    fn next_due_after_an_operation_reads_the_stream() {
        let (net, sps) = staggered_rig();
        let now = net.now();
        let first = || {
            let mut streams = sps.streams.lock();
            let t = streams.first_due().expect("32 streams play");
            let Reverse((_, id)) = *streams.heap.peek().expect("a live entry");
            assert!(
                sps.store.next_event().is_none_or(|e| e > t),
                "a store event first"
            );
            id
        };
        let paused = first();
        sps.pause(paused).unwrap();
        assert_eq!(sps.next_due(), walked_next_due(&sps), "after the pause");
        sps.seek(first(), 600, now).unwrap();
        assert_eq!(sps.next_due(), walked_next_due(&sps), "after the seek");
        sps.play(paused, 100, now).unwrap();
        assert_eq!(sps.next_due(), walked_next_due(&sps), "after the play");
        assert_eq!(sps.next_due(), Some(now));
    }

    #[test]
    fn pump_after_mark_dirty_polls_every_stream() {
        let (net, sps) = staggered_rig();
        let now = net.now();
        sps.pump(now);
        let before = sps.streams.lock().polls;
        sps.mark_dirty();
        sps.pump(now);
        assert_eq!(sps.streams.lock().polls - before, 32);
        let before = sps.streams.lock().polls;
        sps.pump(now);
        assert_eq!(
            sps.streams.lock().polls - before,
            0,
            "the walk re-filed them"
        );
    }

    /// A rig whose one stream is open, its first blocks delivered and
    /// not playing: the provider is clean and skips at `now`.
    fn idle_rig() -> (
        Arc<Network>,
        Arc<DatagramNet>,
        Arc<StreamProviderSystem>,
        u32,
    ) {
        let (net, dg, sps) = rig_with_store(StoreConfig::default());
        let id = sps
            .open(MovieSource::test_movie(4, 1), NetAddr(5), net.now())
            .unwrap();
        while let Some(t) = sps.next_due() {
            net.run_until(t);
            sps.pump(net.now());
        }
        sps.pump(net.now());
        assert!(sps.idle_at(net.now()), "the settled rig skips");
        (net, dg, sps, id)
    }

    #[test]
    fn pump_after_open_is_not_skipped() {
        let (net, _dg, sps, _) = idle_rig();
        sps.open(MovieSource::test_movie(4, 2), NetAddr(6), net.now())
            .unwrap();
        assert!(!sps.idle_at(net.now()));
    }

    #[test]
    fn pump_after_play_is_not_skipped() {
        let (net, _dg, sps, id) = idle_rig();
        sps.play(id, 100, net.now()).unwrap();
        assert!(!sps.idle_at(net.now()));
        assert_eq!(sps.pump(net.now()), 1, "the first frame goes out at once");
    }

    #[test]
    fn pump_after_seek_is_not_skipped() {
        let (net, _dg, sps, id) = idle_rig();
        sps.seek(id, 60, net.now()).unwrap();
        assert!(!sps.idle_at(net.now()));
    }

    #[test]
    fn pump_after_close_is_not_skipped() {
        let (net, _dg, sps, id) = idle_rig();
        sps.close(id).unwrap();
        assert!(!sps.idle_at(net.now()));
    }

    #[test]
    fn pump_after_record_open_is_not_skipped() {
        let (net, _dg, sps, _) = idle_rig();
        sps.record_open(MovieSource::test_movie(2, 9), net.now())
            .unwrap();
        assert!(!sps.idle_at(net.now()));
        sps.pump(net.now());
        assert_eq!(sps.store.stats().frames_recorded, 1, "frame 0 captured");
    }

    #[test]
    fn pump_with_pending_feedback_is_not_skipped() {
        let (net, dg, sps, id) = idle_rig();
        let client = dg.bind(NetAddr(5)).unwrap();
        let fb = mtp::MtpFeedback {
            stream_id: id,
            highest_seq: 0,
            received: 0,
            lost: 0,
        };
        client.send_to(sps.addr(), fb.encode());
        net.run_until_idle();
        assert!(!sps.idle_at(net.now()), "a datagram waits on the socket");
        sps.pump(net.now());
        assert_eq!(sps.streams.lock().map[&id].sender.feedback_seen, 1);
    }

    #[test]
    fn pump_after_fail_disk_is_not_skipped() {
        let mut world = crate::World::builder(7).build();
        let server = world.add_server("ksr1", crate::StackKind::EstellePS);
        world.start();
        let sps = &server.services.sps;
        sps.open(MovieSource::test_movie(60, 1), NetAddr(5), world.net.now())
            .unwrap();
        world.run_for(SimDuration::from_secs(1));
        let now = world.net.now();
        for _ in 0..3 {
            sps.pump(now);
        }
        assert!(sps.idle_at(now), "the settled provider skips");
        let (lost, _) = world.fail_disk(&server, 0);
        assert!(lost > 0, "the dead arm held blocks");
        assert!(!sps.idle_at(now));
    }

    /// Paused streams ask for nothing: once the store has settled,
    /// every pump is skipped and the cache counters stand still.
    #[test]
    fn all_paused_provider_skips_and_leaves_the_cache_alone() {
        let (net, _dg, sps) = rig_with_store(StoreConfig::default());
        let ids: Vec<u32> = (0..2)
            .map(|i| {
                sps.open(MovieSource::test_movie(8, i), NetAddr(5), net.now())
                    .unwrap()
            })
            .collect();
        for &id in &ids {
            sps.play(id, 100, net.now()).unwrap();
        }
        let mut now = SimTime::ZERO;
        while now < SimTime::from_secs(1) {
            sps.pump(now);
            now = sps.next_due().expect("playing streams have deadlines");
            net.run_until(now);
        }
        for &id in &ids {
            sps.pause(id).unwrap();
        }
        while let Some(t) = sps.next_due() {
            net.run_until(t);
            sps.pump(net.now());
        }
        sps.pump(net.now());
        let cache = sps.store.stats().cache;
        assert!(cache.hits + cache.misses > 0, "the streams read blocks");
        for step in 0..100 {
            let t = net.now() + SimDuration::from_millis(10 * step);
            assert!(sps.idle_at(t), "pump at {t} not skipped");
            assert_eq!(sps.pump(t), 0);
        }
        assert_eq!(sps.store.stats().cache, cache);
    }
}
