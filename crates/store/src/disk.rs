//! The simulated disk: a single head over a request queue, with a
//! seek + rotational positioning cost per discontiguous request and a
//! bandwidth-limited transfer phase, all on the `netsim` virtual
//! clock. Reads (playback prefetch) and writes (recorded frames,
//! replication copies) share the one queue and the one arm, so a
//! recording steals real head time from concurrent viewers.
//!
//! The queue is served in one of two orders ([`DiskSched`]): plain
//! FIFO, or an elevator/SCAN sweep over the platter position (movies
//! laid out consecutively, blocks within a movie in offset order) —
//! the classic CM-server discipline that turns interleaved requests
//! from many concurrent streams back into near-sequential head
//! movement.

use crate::layout::MovieId;
use netsim::{SimDuration, SimTime};

/// Direction of a queued disk request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// Fetch a block for a stream.
    Read,
    /// Persist a block of a recording or replication copy.
    Write,
}

/// Queue discipline of the simulated disk arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiskSched {
    /// Serve requests strictly in arrival order.
    Fifo,
    /// Elevator/SCAN: sweep the platter position upward, serving
    /// requests in position order, then reverse — adjacent requests
    /// from different streams coalesce into cheap sequential seeks.
    #[default]
    Scan,
}

/// Cost model of one disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskParams {
    /// Positioning cost when the head must move (new movie or
    /// non-adjacent offset).
    pub seek_random: SimDuration,
    /// Positioning cost for a sequential continuation.
    pub seek_sequential: SimDuration,
    /// Sustained media transfer rate in bytes per second.
    pub transfer_bytes_per_sec: u64,
    /// Queue discipline of the arm.
    pub sched: DiskSched,
}

impl Default for DiskParams {
    fn default() -> Self {
        DiskParams {
            seek_random: SimDuration::from_micros(5_000),
            seek_sequential: SimDuration::from_micros(500),
            transfer_bytes_per_sec: 50_000_000,
            sched: DiskSched::default(),
        }
    }
}

impl DiskParams {
    /// Time to transfer `bytes` once positioned.
    pub(crate) fn transfer_time(&self, bytes: u64) -> SimDuration {
        let rate = self.transfer_bytes_per_sec.max(1);
        SimDuration::from_micros(bytes.saturating_mul(1_000_000).div_ceil(rate))
    }

    /// Expected positioning cost per block under the configured queue
    /// discipline: FIFO pays the worst-case random seek on every
    /// block; a SCAN sweep amortizes head movement across the queue,
    /// so most positioning steps are short (modelled as one random
    /// seek per four blocks, the rest sequential — realized when the
    /// prefetch pipelines keep a run of ~4 adjacent blocks per disk
    /// queued, which the `StoreConfig` defaults are sized for;
    /// `tests/scan_calibration.rs` measures the actual fraction).
    pub fn expected_seek(&self) -> SimDuration {
        match self.sched {
            DiskSched::Fifo => self.seek_random,
            DiskSched::Scan => self.seek_sequential + (self.seek_random - self.seek_sequential) / 4,
        }
    }

    /// Expected service time for one block (positioning + transfer)
    /// under the configured discipline: the basis of the admission
    /// controller's bandwidth estimate.
    pub(crate) fn service_time(&self, bytes: u64) -> SimDuration {
        self.expected_seek() + self.transfer_time(bytes)
    }
}

/// Counters kept per disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Read requests served.
    pub reads: u64,
    /// Reads that continued on an adjacent track (cheap seek, either
    /// sweep direction).
    pub sequential_reads: u64,
    /// Bytes transferred to streams.
    pub bytes_read: u64,
    /// Write requests served.
    pub writes: u64,
    /// Writes that continued sequentially (cheap seek).
    pub sequential_writes: u64,
    /// Bytes persisted.
    pub bytes_written: u64,
    /// Total time the disk arm was busy.
    pub busy: SimDuration,
}

#[derive(Debug, Clone, Copy)]
struct QueuedIo {
    kind: IoKind,
    movie: MovieId,
    offset: u64,
    bytes: u64,
    /// Arrival instant (a request cannot start before it arrived).
    at: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct InService {
    kind: IoKind,
    movie: MovieId,
    offset: u64,
    ready_at: SimTime,
}

/// One simulated disk of the stripe set.
#[derive(Debug)]
pub struct Disk {
    params: DiskParams,
    queue: Vec<QueuedIo>,
    in_service: Option<InService>,
    busy_until: SimTime,
    head: Option<(MovieId, u64)>,
    sweep_up: bool,
    /// Counters.
    pub stats: DiskStats,
}

impl Disk {
    /// Creates an idle disk.
    pub(crate) fn new(params: DiskParams) -> Self {
        Disk {
            params,
            queue: Vec::new(),
            in_service: None,
            busy_until: SimTime::ZERO,
            head: None,
            sweep_up: true,
            stats: DiskStats::default(),
        }
    }

    /// Requests waiting plus the one in service.
    pub(crate) fn pending(&self) -> usize {
        self.queue.len() + usize::from(self.in_service.is_some())
    }

    /// Queues a read of `bytes` at block `offset` of `movie`, arriving
    /// at `now`. Service order follows [`DiskParams::sched`].
    pub(crate) fn enqueue(&mut self, now: SimTime, movie: MovieId, offset: u64, bytes: u64) {
        self.enqueue_io(IoKind::Read, now, movie, offset, bytes);
    }

    /// Queues a write of `bytes` at block `offset` of `movie`,
    /// arriving at `now`. Writes share the queue and the discipline
    /// with reads — a recording contends for the same arm.
    pub(crate) fn enqueue_write(&mut self, now: SimTime, movie: MovieId, offset: u64, bytes: u64) {
        self.enqueue_io(IoKind::Write, now, movie, offset, bytes);
    }

    fn enqueue_io(&mut self, kind: IoKind, now: SimTime, movie: MovieId, offset: u64, bytes: u64) {
        self.queue.push(QueuedIo {
            kind,
            movie,
            offset,
            bytes,
            at: now,
        });
        if self.in_service.is_none() {
            self.start_next(now);
        }
    }

    /// Completion instant of the request under the arm, if any.
    pub(crate) fn next_completion(&self) -> Option<SimTime> {
        self.in_service.map(|s| s.ready_at)
    }

    /// Completes the in-service request if it is due at or before
    /// `now`, immediately starting the next queued request (per the
    /// discipline), and returns the finished `(movie, offset, kind)`.
    pub(crate) fn pop_due(&mut self, now: SimTime) -> Option<(MovieId, u64, IoKind)> {
        let s = self.in_service?;
        if s.ready_at > now {
            return None;
        }
        self.in_service = None;
        // The arm moves on the moment the previous transfer ends.
        self.start_next(s.ready_at);
        Some((s.movie, s.offset, s.kind))
    }

    /// Linear platter position of a request: movies laid out
    /// consecutively, blocks within a movie in offset order.
    fn position(movie: MovieId, offset: u64) -> (u32, u64) {
        (movie.0, offset)
    }

    /// Picks the queue index to serve next.
    fn pick(&mut self) -> usize {
        match self.params.sched {
            DiskSched::Fifo => 0,
            DiskSched::Scan => {
                let head = self.head.map(|(m, o)| Self::position(m, o));
                let pos = |q: &QueuedIo| Self::position(q.movie, q.offset);
                let best_up = || {
                    self.queue
                        .iter()
                        .enumerate()
                        .filter(|(_, q)| head.is_none_or(|h| pos(q) >= h))
                        .min_by_key(|(i, q)| (pos(q), *i))
                        .map(|(i, _)| i)
                };
                let best_down = || {
                    self.queue
                        .iter()
                        .enumerate()
                        .filter(|(_, q)| head.is_none_or(|h| pos(q) <= h))
                        .max_by_key(|(i, q)| (pos(q), usize::MAX - *i))
                        .map(|(i, _)| i)
                };
                let (first, second) = if self.sweep_up {
                    (best_up(), best_down())
                } else {
                    (best_down(), best_up())
                };
                match first {
                    Some(i) => i,
                    None => {
                        self.sweep_up = !self.sweep_up;
                        second.expect("queue is non-empty")
                    }
                }
            }
        }
    }

    fn start_next(&mut self, free_at: SimTime) {
        if self.queue.is_empty() {
            return;
        }
        let i = self.pick();
        // `remove` keeps arrival order for the FIFO discipline; queue
        // depths are bounded by streams × prefetch_depth, so O(n)
        // removal is immaterial.
        let req = self.queue.remove(i);
        self.start(req, free_at);
    }

    fn start(&mut self, req: QueuedIo, free_at: SimTime) {
        let start = free_at.max(req.at);
        // Adjacent-track continuation in either direction is a short
        // seek: the elevator's return pass over a contiguous run is
        // as cheap per block as the outbound pass.
        let sequential = (req.offset > 0 && self.head == Some((req.movie, req.offset - 1)))
            || self.head == Some((req.movie, req.offset + 1));
        let seek = if sequential {
            self.params.seek_sequential
        } else {
            self.params.seek_random
        };
        let service = seek + self.params.transfer_time(req.bytes);
        let ready_at = start + service;
        self.busy_until = ready_at;
        self.head = Some((req.movie, req.offset));
        match req.kind {
            IoKind::Read => {
                self.stats.reads += 1;
                if sequential {
                    self.stats.sequential_reads += 1;
                }
                self.stats.bytes_read += req.bytes;
            }
            IoKind::Write => {
                self.stats.writes += 1;
                if sequential {
                    self.stats.sequential_writes += 1;
                }
                self.stats.bytes_written += req.bytes;
            }
        }
        self.stats.busy += service;
        self.in_service = Some(InService {
            kind: req.kind,
            movie: req.movie,
            offset: req.offset,
            ready_at,
        });
    }

    /// Kills the disk: the queue and the request under the arm are
    /// discarded without completing (the heads crashed mid-transfer).
    /// Returns the `(movie, offset, kind)` of every request dropped so
    /// the store can unwind its in-flight bookkeeping.
    pub(crate) fn fail(&mut self) -> Vec<(MovieId, u64, IoKind)> {
        let mut dropped: Vec<(MovieId, u64, IoKind)> = self
            .in_service
            .take()
            .map(|s| (s.movie, s.offset, s.kind))
            .into_iter()
            .collect();
        dropped.extend(self.queue.drain(..).map(|q| (q.movie, q.offset, q.kind)));
        self.busy_until = SimTime::ZERO;
        self.head = None;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(d: &mut Disk) -> Vec<(MovieId, u64)> {
        let mut order = Vec::new();
        while let Some(t) = d.next_completion() {
            let (movie, offset, _) = d.pop_due(t).expect("due at its own completion");
            order.push((movie, offset));
        }
        order
    }

    #[test]
    fn sequential_reads_are_cheaper() {
        let params = DiskParams::default();
        let mut d = Disk::new(params);
        let m = MovieId(1);
        d.enqueue(SimTime::ZERO, m, 5, 1 << 18);
        let t1 = d.next_completion().unwrap();
        assert!(d.pop_due(t1).is_some());
        d.enqueue(t1, m, 6, 1 << 18);
        let t2 = d.next_completion().unwrap();
        assert!(d.pop_due(t2).is_some());
        d.enqueue(t2, m, 100, 1 << 18);
        let t3 = d.next_completion().unwrap();
        let xfer = params.transfer_time(1 << 18);
        assert_eq!(t1 - SimTime::ZERO, params.seek_random + xfer);
        assert_eq!(t2 - t1, params.seek_sequential + xfer);
        assert_eq!(t3 - t2, params.seek_random + xfer);
        assert_eq!(d.stats.reads, 3);
        assert_eq!(d.stats.sequential_reads, 1);
    }

    #[test]
    fn requests_queue_behind_busy_arm() {
        let mut d = Disk::new(DiskParams::default());
        let m = MovieId(2);
        d.enqueue(SimTime::ZERO, m, 0, 1 << 20);
        let t1 = d.next_completion().unwrap();
        // Issued "at" time zero again, but starts only when the arm frees.
        d.enqueue(SimTime::ZERO, m, 50, 1 << 20);
        assert_eq!(d.pending(), 2);
        assert_eq!(d.pop_due(t1), Some((m, 0, IoKind::Read)));
        let t2 = d.next_completion().unwrap();
        assert!(t2 > t1);
        assert_eq!(d.pop_due(t2), Some((m, 50, IoKind::Read)));
        // Issued after the arm is long idle: starts at `now`.
        let late = t2 + SimDuration::from_secs(1);
        d.enqueue(late, m, 51, 1 << 10);
        let t3 = d.next_completion().unwrap();
        assert!(t3 > late && t3 < late + SimDuration::from_millis(10));
    }

    #[test]
    fn scan_serves_in_platter_order() {
        let p = DiskParams {
            sched: DiskSched::Scan,
            ..DiskParams::default()
        };
        let mut d = Disk::new(p);
        let m = MovieId(1);
        // First request starts immediately; the rest arrive while busy
        // and are sorted by the sweep, not by arrival.
        d.enqueue(SimTime::ZERO, m, 0, 1 << 18);
        d.enqueue(SimTime::ZERO, m, 90, 1 << 18);
        d.enqueue(SimTime::ZERO, m, 10, 1 << 18);
        d.enqueue(SimTime::ZERO, MovieId(0), 5, 1 << 18);
        let order = drain(&mut d);
        assert_eq!(
            order,
            vec![(m, 0), (m, 10), (m, 90), (MovieId(0), 5)],
            "upward sweep from the head position, then reverse"
        );
    }

    #[test]
    fn fifo_serves_in_arrival_order() {
        let p = DiskParams {
            sched: DiskSched::Fifo,
            ..DiskParams::default()
        };
        let mut d = Disk::new(p);
        let m = MovieId(1);
        d.enqueue(SimTime::ZERO, m, 0, 1 << 18);
        d.enqueue(SimTime::ZERO, m, 90, 1 << 18);
        d.enqueue(SimTime::ZERO, m, 10, 1 << 18);
        assert_eq!(drain(&mut d), vec![(m, 0), (m, 90), (m, 10)]);
    }

    #[test]
    fn scan_turns_interleaved_streams_sequential() {
        // Two streams read adjacent offset runs; requests interleave
        // at arrival. SCAN restores offset order and banks the cheap
        // sequential seeks, FIFO pays a random seek on every other
        // read.
        let serve = |sched: DiskSched| {
            let mut d = Disk::new(DiskParams {
                sched,
                ..DiskParams::default()
            });
            d.enqueue(SimTime::ZERO, MovieId(1), 0, 1 << 18);
            for off in 1..8u64 {
                d.enqueue(SimTime::ZERO, MovieId(1), off, 1 << 18);
                d.enqueue(SimTime::ZERO, MovieId(2), off, 1 << 18);
            }
            d.enqueue(SimTime::ZERO, MovieId(2), 0, 1 << 18);
            drain(&mut d);
            (d.stats.sequential_reads, d.busy_until)
        };
        let (seq_fifo, done_fifo) = serve(DiskSched::Fifo);
        let (seq_scan, done_scan) = serve(DiskSched::Scan);
        assert!(
            seq_scan > seq_fifo,
            "scan={seq_scan} fifo={seq_fifo} sequential reads"
        );
        assert!(done_scan < done_fifo, "the sweep finishes sooner");
    }

    #[test]
    fn expected_seek_reflects_discipline() {
        let fifo = DiskParams {
            sched: DiskSched::Fifo,
            ..DiskParams::default()
        };
        let scan = DiskParams {
            sched: DiskSched::Scan,
            ..DiskParams::default()
        };
        assert_eq!(fifo.expected_seek(), fifo.seek_random);
        assert!(scan.expected_seek() < fifo.expected_seek());
        assert!(scan.expected_seek() >= scan.seek_sequential);
        assert!(scan.service_time(1 << 16) < fifo.service_time(1 << 16));
    }

    #[test]
    fn writes_share_queue_arm_and_discipline() {
        let p = DiskParams {
            sched: DiskSched::Scan,
            ..DiskParams::default()
        };
        let mut d = Disk::new(p);
        let m = MovieId(3);
        // A write lands between two reads on the platter: the sweep
        // interleaves them, and the sequential continuation is cheap
        // for the write exactly as for a read.
        d.enqueue(SimTime::ZERO, m, 0, 1 << 18);
        d.enqueue(SimTime::ZERO, m, 2, 1 << 18);
        d.enqueue_write(SimTime::ZERO, m, 1, 1 << 18);
        let mut order = Vec::new();
        while let Some(t) = d.next_completion() {
            order.push(d.pop_due(t).unwrap());
        }
        assert_eq!(
            order,
            vec![
                (m, 0, IoKind::Read),
                (m, 1, IoKind::Write),
                (m, 2, IoKind::Read)
            ]
        );
        assert_eq!(d.stats.reads, 2);
        assert_eq!(d.stats.writes, 1);
        assert_eq!(d.stats.sequential_writes, 1, "offset 1 follows offset 0");
        assert_eq!(d.stats.sequential_reads, 1, "offset 2 follows offset 1");
        assert_eq!(d.stats.bytes_written, 1 << 18);
    }

    #[test]
    fn fail_drops_queue_and_in_service() {
        let mut d = Disk::new(DiskParams::default());
        let m = MovieId(4);
        d.enqueue(SimTime::ZERO, m, 0, 1 << 18);
        d.enqueue(SimTime::ZERO, m, 1, 1 << 18);
        d.enqueue_write(SimTime::ZERO, m, 2, 1 << 18);
        assert_eq!(d.pending(), 3);
        let dropped = d.fail();
        assert_eq!(dropped.len(), 3);
        assert!(dropped.contains(&(m, 0, IoKind::Read)));
        assert!(dropped.contains(&(m, 2, IoKind::Write)));
        assert_eq!(d.pending(), 0);
        assert_eq!(d.next_completion(), None);
        assert_eq!(d.pop_due(SimTime::from_secs(10)), None);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let p = DiskParams {
            transfer_bytes_per_sec: 1_000_000,
            ..DiskParams::default()
        };
        assert_eq!(p.transfer_time(1_000_000), SimDuration::from_secs(1));
        assert_eq!(p.transfer_time(500_000), SimDuration::from_millis(500));
    }
}
