//! The isochronous MTP sender (Stream Provider Agent side).

use crate::feedback::MtpFeedback;
use crate::movie::{FrameKind, MovieSource};
use crate::packet;
use netsim::{DatagramSocket, NetAddr, SimTime};
use std::fmt;

/// Playback state of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamState {
    /// Created but not started.
    Ready,
    /// Emitting frames on schedule.
    Playing,
    /// Paused; position retained.
    Paused,
    /// Finished or stopped.
    Stopped,
}

/// Counters kept by the sender.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Frames handed to the network.
    pub frames_sent: u64,
    /// Frames skipped by B-frame dropping (rate adaptation).
    pub frames_skipped: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Poll passes that ended early because the next frame's data was
    /// not yet delivered by storage. This counts polls, not stall
    /// episodes: one stall waiting on a disk read adds one for every
    /// poll made while it lasts, so the value depends on how often the
    /// sender's owner polls.
    pub storage_stalls: u64,
}

/// An isochronous sender pacing one movie over a datagram socket.
pub struct MtpSender {
    socket: DatagramSocket,
    dest: NetAddr,
    movie: MovieSource,
    stream_id: u32,
    state: StreamState,
    next_frame: u64,
    seq: u32,
    /// Next instant a frame is due.
    due: SimTime,
    /// Playback speed as a percentage (100 = nominal).
    speed_pct: u32,
    /// When true, B frames are skipped — the XMovie rate-adaptation
    /// mechanism for overloaded receivers/links.
    pub drop_b_frames: bool,
    /// When true the sender toggles [`MtpSender::drop_b_frames`]
    /// automatically from receiver feedback.
    pub adaptive: bool,
    /// Loss ratio above which adaptation engages.
    pub adapt_threshold: f64,
    /// Feedback reports processed.
    pub feedback_seen: u64,
    /// Counters.
    pub stats: SenderStats,
}

impl fmt::Debug for MtpSender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MtpSender")
            .field("stream_id", &self.stream_id)
            .field("state", &self.state)
            .field("next_frame", &self.next_frame)
            .finish_non_exhaustive()
    }
}

impl MtpSender {
    /// Creates a sender for `movie` on `socket`, addressed to `dest`.
    pub fn new(socket: DatagramSocket, dest: NetAddr, stream_id: u32, movie: MovieSource) -> Self {
        MtpSender {
            socket,
            dest,
            movie,
            stream_id,
            state: StreamState::Ready,
            next_frame: 0,
            seq: 0,
            due: SimTime::ZERO,
            speed_pct: 100,
            drop_b_frames: false,
            adaptive: false,
            adapt_threshold: 0.08,
            feedback_seen: 0,
            stats: SenderStats::default(),
        }
    }

    /// Processes one receiver report; with [`MtpSender::adaptive`] set
    /// this engages B-frame dropping above the loss threshold and
    /// restores full quality once loss falls below a quarter of it.
    pub fn handle_feedback(&mut self, fb: &MtpFeedback) {
        self.feedback_seen += 1;
        if !self.adaptive {
            return;
        }
        let ratio = fb.loss_ratio();
        if ratio > self.adapt_threshold {
            self.drop_b_frames = true;
        } else if ratio < self.adapt_threshold / 4.0 {
            self.drop_b_frames = false;
        }
    }

    /// Current playback state.
    pub fn state(&self) -> StreamState {
        self.state
    }

    /// The movie this sender paces.
    pub fn movie(&self) -> &MovieSource {
        &self.movie
    }

    /// Current frame position.
    pub fn position(&self) -> u64 {
        self.next_frame
    }

    /// Starts (or restarts) playback at the current position.
    pub fn play(&mut self, now: SimTime) {
        if self.state != StreamState::Playing {
            self.state = StreamState::Playing;
            self.due = now;
        }
    }

    /// Pauses playback, retaining position.
    pub fn pause(&mut self) {
        if self.state == StreamState::Playing {
            self.state = StreamState::Paused;
        }
    }

    /// Stops playback and rewinds.
    pub fn stop(&mut self) {
        self.state = StreamState::Stopped;
        self.next_frame = 0;
    }

    /// Seeks to an absolute frame position (clamped to the movie).
    pub fn seek(&mut self, frame: u64) {
        self.next_frame = frame.min(self.movie.frame_count);
    }

    /// Sets the playback speed in percent of nominal (25–400).
    pub fn set_speed_pct(&mut self, pct: u32) {
        self.speed_pct = pct.clamp(25, 400);
    }

    /// The instant the next frame is due, when playing.
    pub fn next_due(&self) -> Option<SimTime> {
        (self.state == StreamState::Playing).then_some(self.due)
    }

    fn interval_us(&self) -> u64 {
        self.movie.frame_interval_us() * 100 / u64::from(self.speed_pct)
    }

    /// Emits every frame due at or before `now`. Returns the number of
    /// packets sent.
    pub fn poll(&mut self, now: SimTime) -> usize {
        self.poll_gated(now, None)
    }

    /// Like [`MtpSender::poll`], but emits only frames below
    /// `ready_through` (frames whose storage blocks have been
    /// delivered). A due frame that is not yet ready stalls the
    /// stream: the deadline stands, and the frames go out — late — as
    /// soon as the store delivers them. `None` disables gating
    /// (direct synthesis, no storage model).
    pub fn poll_gated(&mut self, now: SimTime, ready_through: Option<u64>) -> usize {
        let mut sent = 0;
        while self.state == StreamState::Playing && self.due <= now {
            if let Some(limit) = ready_through {
                if self.next_frame < self.movie.frame_count && self.next_frame >= limit {
                    self.stats.storage_stalls += 1;
                    break;
                }
            }
            match self.movie.frame(self.next_frame) {
                None => {
                    // End of movie: emit an empty end-of-stream marker.
                    let mut bytes = Vec::new();
                    packet::encode_frame_into(
                        self.stream_id,
                        self.seq,
                        self.next_frame * self.movie.frame_interval_us(),
                        FrameKind::I,
                        true,
                        0,
                        &mut bytes,
                    );
                    self.seq += 1;
                    self.socket.send_to(self.dest, bytes);
                    self.state = StreamState::Stopped;
                    sent += 1;
                    break;
                }
                Some(frame) => {
                    if self.drop_b_frames && frame.kind == FrameKind::B {
                        self.stats.frames_skipped += 1;
                    } else {
                        // One allocation per frame: header and
                        // zero-fill payload are written straight into
                        // the buffer the socket takes ownership of —
                        // no intermediate MtpPacket or payload Vec.
                        let mut bytes = Vec::new();
                        packet::encode_frame_into(
                            self.stream_id,
                            self.seq,
                            frame.index * self.movie.frame_interval_us(),
                            frame.kind,
                            false,
                            frame.size as usize,
                            &mut bytes,
                        );
                        self.seq += 1;
                        self.stats.frames_sent += 1;
                        self.stats.bytes_sent += u64::from(frame.size);
                        self.socket.send_to(self.dest, bytes);
                        sent += 1;
                    }
                    self.next_frame += 1;
                    self.due += netsim::SimDuration::from_micros(self.interval_us());
                }
            }
        }
        sent
    }
}
