//! The MTP receiver with playout buffer and quality-of-service
//! accounting (Stream User Agent side).

use crate::feedback::MtpFeedback;
use crate::packet::MtpPacket;
use netsim::{DatagramSocket, NetAddr, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// Quality-of-service measurements collected by a receiver — the
/// quantities Table 1 contrasts between control and stream protocols
/// (delay, jitter, reliability).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReceiverStats {
    /// Packets received (any order).
    pub received: u64,
    /// Packets detected missing via sequence gaps.
    pub lost: u64,
    /// Frames that arrived after their playout deadline.
    pub late: u64,
    /// Frames played out on time.
    pub played: u64,
    /// Payload bytes received.
    pub bytes: u64,
    /// Smoothed interarrival jitter (RFC 3550 style), microseconds.
    pub jitter_us: f64,
    /// Mean one-way transit time, microseconds.
    pub mean_transit_us: f64,
    /// Maximum one-way transit time observed, microseconds.
    pub max_transit_us: u64,
}

impl ReceiverStats {
    /// Delivered fraction (received / (received + lost)).
    pub fn delivery_ratio(&self) -> f64 {
        let total = self.received + self.lost;
        if total == 0 {
            1.0
        } else {
            self.received as f64 / total as f64
        }
    }
}

/// A frame ready for display.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlayedFrame {
    /// Sequence number.
    pub seq: u32,
    /// Media timestamp.
    pub timestamp_us: u64,
    /// Payload size.
    pub size: usize,
}

/// MTP receiver: reorders into a playout buffer, measures delay,
/// jitter and loss, and
/// releases frames at `playout_delay` after their send time.
pub struct MtpReceiver {
    socket: DatagramSocket,
    stream_id: u32,
    playout_delay: SimDuration,
    buffer: BTreeMap<u32, (SimTime, PlayedFrame)>,
    highest_seq: Option<u32>,
    last_transit_us: Option<i64>,
    transit_sum: f64,
    /// True once the end-of-stream marker arrived.
    pub ended: bool,
    /// Send a feedback report upstream every this many packets
    /// (0 disables feedback).
    pub feedback_every: u64,
    packets_since_feedback: u64,
    provider: Option<NetAddr>,
    /// Feedback reports sent.
    pub feedback_sent: u64,
    /// Quality-of-service counters.
    pub stats: ReceiverStats,
}

impl fmt::Debug for MtpReceiver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MtpReceiver")
            .field("stream_id", &self.stream_id)
            .field("buffered", &self.buffer.len())
            .field("ended", &self.ended)
            .finish_non_exhaustive()
    }
}

impl MtpReceiver {
    /// Creates a receiver for `stream_id` on `socket` with the given
    /// playout delay.
    pub fn new(socket: DatagramSocket, stream_id: u32, playout_delay: SimDuration) -> Self {
        MtpReceiver {
            socket,
            stream_id,
            playout_delay,
            buffer: BTreeMap::new(),
            highest_seq: None,
            last_transit_us: None,
            transit_sum: 0.0,
            ended: false,
            feedback_every: 0,
            packets_since_feedback: 0,
            provider: None,
            feedback_sent: 0,
            stats: ReceiverStats::default(),
        }
    }

    /// Ingests arrived datagrams and returns the frames whose playout
    /// deadline (arrival-independent: send time + playout delay) has
    /// been reached by `now`, in sequence order.
    ///
    /// The buffer is keyed by sequence number, and a frame's deadline
    /// grows with it (the sender numbers frames in the order it sends
    /// them), so the due frames are a prefix of the buffer: release
    /// stops at the first frame still ahead.
    pub fn poll(&mut self, now: SimTime) -> Vec<PlayedFrame> {
        self.ingest();
        let mut out = Vec::new();
        while let Some(head) = self.buffer.first_entry() {
            if head.get().0 > now {
                break;
            }
            let (_, frame) = head.remove();
            self.stats.played += 1;
            out.push(frame);
        }
        debug_assert!(
            self.buffer.values().all(|(deadline, _)| *deadline > now),
            "stream {}: a due frame stays buffered behind one still ahead",
            self.stream_id
        );
        out
    }

    /// Drains the socket into the playout buffer, updating the
    /// loss, transit and jitter accounting.
    fn ingest(&mut self) {
        while let Some(dg) = self.socket.recv() {
            // Borrowing decode: the payload stays in the datagram
            // buffer; only its length feeds the stats.
            let Ok(pkt) = MtpPacket::decode_view(&dg.payload) else {
                continue;
            };
            if pkt.stream_id != self.stream_id {
                continue;
            }
            self.provider = Some(dg.from);
            self.maybe_send_feedback();
            if pkt.end_of_stream {
                // The marker closes the sequence ledger: data packets
                // below its sequence number that never arrived are
                // definitively lost.
                match self.highest_seq {
                    Some(h) if pkt.seq > h => {
                        self.stats.lost += u64::from(pkt.seq - h - 1);
                        self.highest_seq = Some(pkt.seq);
                    }
                    None => {
                        self.stats.lost += u64::from(pkt.seq);
                        self.highest_seq = Some(pkt.seq);
                    }
                    _ => {}
                }
                self.ended = true;
                continue;
            }
            self.stats.received += 1;
            self.stats.bytes += pkt.payload.len() as u64;
            // Loss detection via sequence gaps; a packet from inside an
            // earlier gap arrived reordered, not lost.
            match self.highest_seq {
                Some(h) if pkt.seq > h => {
                    self.stats.lost += u64::from(pkt.seq - h - 1);
                    self.highest_seq = Some(pkt.seq);
                }
                Some(h) if pkt.seq < h => {
                    self.stats.lost = self.stats.lost.saturating_sub(1);
                }
                None => {
                    self.stats.lost += u64::from(pkt.seq); // missed from 0
                    self.highest_seq = Some(pkt.seq);
                }
                _ => {}
            }
            // Transit + jitter accounting.
            let transit_us = dg.delivered_at.saturating_since(dg.sent_at).as_micros() as i64;
            self.stats.max_transit_us = self.stats.max_transit_us.max(transit_us as u64);
            self.transit_sum += transit_us as f64;
            self.stats.mean_transit_us = self.transit_sum / self.stats.received as f64;
            if let Some(prev) = self.last_transit_us {
                let d = (transit_us - prev).abs() as f64;
                self.stats.jitter_us += (d - self.stats.jitter_us) / 16.0;
            }
            self.last_transit_us = Some(transit_us);
            // Playout scheduling.
            let deadline = dg.sent_at + self.playout_delay;
            let frame = PlayedFrame {
                seq: pkt.seq,
                timestamp_us: pkt.timestamp_us,
                size: pkt.payload.len(),
            };
            if dg.delivered_at > deadline {
                self.stats.late += 1;
                // Late frames are discarded (isochronous playout).
                continue;
            }
            self.buffer.insert(pkt.seq, (deadline, frame));
        }
    }

    fn maybe_send_feedback(&mut self) {
        if self.feedback_every == 0 {
            return;
        }
        self.packets_since_feedback += 1;
        if self.packets_since_feedback < self.feedback_every {
            return;
        }
        let Some(provider) = self.provider else {
            return;
        };
        self.packets_since_feedback = 0;
        let fb = MtpFeedback {
            stream_id: self.stream_id,
            highest_seq: self.highest_seq.unwrap_or(0),
            received: self.stats.received,
            lost: self.stats.lost,
        };
        self.socket.send_to(provider, fb.encode());
        self.feedback_sent += 1;
    }

    /// Frames currently waiting in the playout buffer.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::movie::MovieSource;
    use crate::sender::{MtpSender, StreamState};
    use netsim::{DatagramNet, LinkConfig, NetAddr, Network};
    use std::sync::Arc;

    fn rig(loss: f64, jitter_us: u64, seed: u64) -> (Arc<Network>, MtpSender, MtpReceiver) {
        let net = Arc::new(Network::new(seed));
        let cfg = LinkConfig::lossy(
            SimDuration::from_millis(2),
            SimDuration::from_micros(jitter_us),
            loss,
        );
        let dg = DatagramNet::new(&net, cfg, seed.wrapping_add(9));
        let s_sock = dg.bind(NetAddr(1)).unwrap();
        let r_sock = dg.bind(NetAddr(2)).unwrap();
        let movie = MovieSource::test_movie(4, seed); // 100 frames
        let sender = MtpSender::new(s_sock, NetAddr(2), 7, movie);
        let receiver = MtpReceiver::new(r_sock, 7, SimDuration::from_millis(40));
        (net, sender, receiver)
    }

    /// Drives sender, network, and receiver in lockstep virtual time.
    fn run_stream(
        net: &Arc<Network>,
        sender: &mut MtpSender,
        receiver: &mut MtpReceiver,
    ) -> Vec<PlayedFrame> {
        let mut played = Vec::new();
        sender.play(net.now());
        let mut guard = 0;
        while guard < 100_000 {
            guard += 1;
            let now = net.now();
            sender.poll(now);
            // Advance to the next interesting instant.
            let next = match (net.next_event_at(), sender.next_due()) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => {
                    played.extend(receiver.poll(now + SimDuration::from_secs(1)));
                    break;
                }
            };
            net.run_until(next);
            played.extend(receiver.poll(net.now()));
            if sender.state() == StreamState::Stopped && net.next_event_at().is_none() {
                // Flush the playout buffer.
                let flush_at = net.now() + SimDuration::from_secs(1);
                net.run_until(flush_at);
                played.extend(receiver.poll(flush_at));
                break;
            }
        }
        played
    }

    #[test]
    fn lossless_stream_plays_every_frame_in_order() {
        let (net, mut s, mut r) = rig(0.0, 0, 1);
        let played = run_stream(&net, &mut s, &mut r);
        assert_eq!(played.len(), 100);
        assert!(r.ended);
        let seqs: Vec<u32> = played.iter().map(|f| f.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "in playout order");
        assert_eq!(r.stats.lost, 0);
        assert_eq!(r.stats.late, 0);
        assert!((r.stats.delivery_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pacing_matches_frame_rate() {
        let (net, mut s, mut r) = rig(0.0, 0, 2);
        s.play(net.now());
        run_stream(&net, &mut s, &mut r);
        // 100 frames at 25fps: the last frame departs at 99*40ms.
        // With 2ms propagation it arrives at 3962ms; plus flush time.
        assert!(net.now().as_micros() >= 99 * 40_000);
    }

    #[test]
    fn loss_is_detected_via_gaps() {
        let (net, mut s, mut r) = rig(0.2, 0, 3);
        let played = run_stream(&net, &mut s, &mut r);
        assert!(r.stats.lost > 5, "lost={}", r.stats.lost);
        assert!(played.len() < 100);
        let ratio = r.stats.delivery_ratio();
        assert!((ratio - 0.8).abs() < 0.12, "ratio={ratio}");
    }

    #[test]
    fn jitter_grows_with_link_jitter() {
        let (net, mut s, mut r) = rig(0.0, 0, 4);
        run_stream(&net, &mut s, &mut r);
        let quiet = r.stats.jitter_us;
        let (net2, mut s2, mut r2) = rig(0.0, 1_500, 4);
        run_stream(&net2, &mut s2, &mut r2);
        let noisy = r2.stats.jitter_us;
        assert!(noisy > quiet + 100.0, "quiet={quiet} noisy={noisy}");
    }

    #[test]
    fn tight_playout_delay_drops_late_frames() {
        let net = Arc::new(Network::new(5));
        let cfg = LinkConfig::lossy(
            SimDuration::from_millis(5),
            SimDuration::from_millis(4),
            0.0,
        );
        let dg = DatagramNet::new(&net, cfg, 6);
        let s_sock = dg.bind(NetAddr(1)).unwrap();
        let r_sock = dg.bind(NetAddr(2)).unwrap();
        let movie = MovieSource::test_movie(4, 5);
        let mut s = MtpSender::new(s_sock, NetAddr(2), 7, movie);
        // Playout delay below the max link delay: some frames late.
        let mut r = MtpReceiver::new(r_sock, 7, SimDuration::from_millis(6));
        let played = run_stream(&net, &mut s, &mut r);
        assert!(r.stats.late > 0, "late={}", r.stats.late);
        assert_eq!(played.len() as u64 + r.stats.late, 100);
    }

    #[test]
    fn pause_resume_and_seek() {
        let (net, mut s, mut r) = rig(0.0, 0, 8);
        s.play(net.now());
        // Run 1 second: 25 frames.
        net.run_until(SimTime::from_secs(1));
        s.poll(net.now());
        net.run_until_idle();
        r.poll(net.now());
        assert!(s.position() >= 25);
        s.pause();
        let pos = s.position();
        net.run_until(SimTime::from_secs(2));
        assert_eq!(s.poll(net.now()), 0, "paused sender emits nothing");
        assert_eq!(s.position(), pos);
        s.seek(90);
        s.play(net.now());
        let played = run_stream(&net, &mut s, &mut r);
        assert!(s.state() == StreamState::Stopped);
        // Frames 90..100 plus those before the pause.
        assert!(played.iter().any(|f| f.timestamp_us >= 90 * 40_000));
    }

    #[test]
    fn b_frame_dropping_reduces_bandwidth() {
        let (net, mut s, mut r) = rig(0.0, 0, 9);
        s.drop_b_frames = true;
        let played = run_stream(&net, &mut s, &mut r);
        assert!(
            s.stats.frames_skipped > 30,
            "skipped={}",
            s.stats.frames_skipped
        );
        assert_eq!(
            s.stats.frames_sent + s.stats.frames_skipped,
            100,
            "every frame either sent or skipped"
        );
        assert_eq!(played.len() as u64, s.stats.frames_sent);
        // No gaps counted as loss: seq numbers are per transmitted
        // packet, not per frame.
        assert_eq!(r.stats.lost, 0);
    }

    /// The release `poll` had before it stopped at the first frame
    /// still ahead: a filter over the whole buffer for due frames,
    /// then one removal each.
    fn release_by_filter(r: &mut MtpReceiver, now: SimTime) -> Vec<PlayedFrame> {
        r.ingest();
        let due: Vec<u32> = r
            .buffer
            .iter()
            .filter(|(_, (deadline, _))| *deadline <= now)
            .map(|(&seq, _)| seq)
            .collect();
        let mut out = Vec::with_capacity(due.len());
        for seq in due {
            let (_, frame) = r.buffer.remove(&seq).expect("key just listed");
            r.stats.played += 1;
            out.push(frame);
        }
        out
    }

    /// On a lossy link whose jitter exceeds the frame interval (frames
    /// arrive out of order), polled every 23 ms so one poll releases
    /// several frames, prefix release plays exactly what the filter
    /// over the whole buffer played, in the same order.
    #[test]
    fn prefix_release_plays_what_a_full_filter_plays() {
        type Release = fn(&mut MtpReceiver, SimTime) -> Vec<PlayedFrame>;
        let play = |release: Release| {
            let (net, mut s, mut r) = rig(0.1, 15_000, 11);
            s.set_speed_pct(400);
            s.play(net.now());
            let mut played = Vec::new();
            let mut now = SimTime::ZERO;
            while s.state() == StreamState::Playing || r.buffered() > 0 {
                now += SimDuration::from_millis(23);
                s.poll(now);
                net.run_until(now);
                played.extend(release(&mut r, now));
            }
            (played, r.stats)
        };
        let (prefix, stats) = play(MtpReceiver::poll);
        let (filtered, _) = play(release_by_filter);
        assert!(stats.lost > 0 && stats.jitter_us > 1_000.0, "{stats:?}");
        assert!(prefix.len() > 50, "{} frames played", prefix.len());
        assert!(prefix.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(prefix, filtered);
    }

    #[test]
    fn speed_change_shortens_wall_time() {
        let (net, mut s, mut r) = rig(0.0, 0, 10);
        s.set_speed_pct(200);
        run_stream(&net, &mut s, &mut r);
        // 100 frames at 50fps effective: last departs at ~99*20ms.
        let end = net.now().as_micros();
        assert!(end < 99 * 40_000 + 2_000_000, "end={end}");
        assert!(r.stats.received == 100);
    }
}
