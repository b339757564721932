//! The discrete-event network core.
//!
//! A [`Network`] owns a virtual clock, an event queue, and a set of
//! endpoints. Messages are scheduled for future delivery; driving the
//! simulation ([`Network::step`] / [`Network::run_until_idle`]) advances
//! the clock to each delivery instant and moves the message into the
//! destination endpoint's receive queue.

use crate::clock::VirtualClock;
use crate::models::{LinkConfig, LossState};
use crate::time::{SimDuration, SimTime};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;
use std::task::Waker;

/// Identifies an endpoint registered with a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EndpointId(u64);

/// Identifies a configured link between two endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(u64);

/// A message delivered to an endpoint.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Instant the sender handed the message to the network.
    pub sent_at: SimTime,
    /// Instant the message arrived at the destination queue.
    pub delivered_at: SimTime,
    /// Endpoint the message originated from, if sent over a link.
    pub from: Option<EndpointId>,
    /// Message payload.
    pub data: Vec<u8>,
}

impl Delivery {
    /// One-way latency experienced by this message.
    pub fn latency(&self) -> SimDuration {
        self.delivered_at.saturating_since(self.sent_at)
    }
}

/// Traffic counters kept per endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Messages handed to the network by this endpoint.
    pub sent: u64,
    /// Messages delivered into this endpoint's queue.
    pub delivered: u64,
    /// Messages addressed to this endpoint that the link dropped.
    pub dropped: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
}

impl EndpointStats {
    /// Fraction of messages addressed to this endpoint that arrived.
    ///
    /// Returns 1.0 when nothing was addressed to the endpoint.
    pub fn delivery_ratio(&self) -> f64 {
        let total = self.delivered + self.dropped;
        if total == 0 {
            1.0
        } else {
            self.delivered as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    dest: EndpointId,
    from: Option<EndpointId>,
    sent_at: SimTime,
    data: Vec<u8>,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

#[derive(Debug, Default)]
struct EndpointState {
    queue: VecDeque<Delivery>,
    stats: EndpointStats,
    /// Called after each delivery into `queue` (see
    /// [`Network::on_available`]).
    reader: Option<Waker>,
}

#[derive(Debug)]
struct LinkState {
    a: EndpointId,
    b: EndpointId,
    config: LinkConfig,
    loss_ab: LossState,
    loss_ba: LossState,
    /// Earliest permissible delivery instant per direction, used to
    /// preserve FIFO order on `fifo` links despite jitter.
    fifo_floor_ab: SimTime,
    fifo_floor_ba: SimTime,
    /// Instant the link becomes free per direction (serialization).
    busy_until_ab: SimTime,
    busy_until_ba: SimTime,
}

#[derive(Debug)]
struct Inner {
    events: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
    endpoints: HashMap<EndpointId, EndpointState>,
    links: HashMap<LinkId, LinkState>,
    next_endpoint: u64,
    next_link: u64,
    rng: StdRng,
}

/// A deterministic discrete-event message network.
///
/// # Examples
///
/// ```
/// use netsim::{Network, SimDuration};
/// let net = Network::new(1);
/// let a = net.endpoint();
/// let b = net.endpoint();
/// net.send(a, b, b"hello".to_vec(), SimDuration::from_millis(1));
/// net.run_until_idle();
/// let d = net.recv(b).expect("delivered");
/// assert_eq!(d.data, b"hello");
/// assert_eq!(d.latency(), SimDuration::from_millis(1));
/// ```
#[derive(Debug)]
pub struct Network {
    clock: Arc<VirtualClock>,
    inner: Mutex<Inner>,
}

impl Network {
    /// Creates an empty network with the given RNG seed.
    ///
    /// The same seed and workload always produce the same schedule.
    pub fn new(seed: u64) -> Self {
        Network {
            clock: Arc::new(VirtualClock::new()),
            inner: Mutex::new(Inner {
                events: BinaryHeap::new(),
                seq: 0,
                endpoints: HashMap::new(),
                links: HashMap::new(),
                next_endpoint: 0,
                next_link: 0,
                rng: StdRng::seed_from_u64(seed),
            }),
        }
    }

    /// The network's virtual clock, shared with protocol entities.
    pub fn clock(&self) -> Arc<VirtualClock> {
        Arc::clone(&self.clock)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Registers a new endpoint and returns its id.
    pub fn endpoint(&self) -> EndpointId {
        let mut inner = self.inner.lock();
        let id = EndpointId(inner.next_endpoint);
        inner.next_endpoint += 1;
        inner.endpoints.insert(id, EndpointState::default());
        id
    }

    /// Configures a bidirectional link between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is unknown.
    pub(crate) fn link(&self, a: EndpointId, b: EndpointId, config: LinkConfig) -> LinkId {
        let mut inner = self.inner.lock();
        assert!(inner.endpoints.contains_key(&a), "unknown endpoint {a:?}");
        assert!(inner.endpoints.contains_key(&b), "unknown endpoint {b:?}");
        let id = LinkId(inner.next_link);
        inner.next_link += 1;
        inner.links.insert(
            id,
            LinkState {
                a,
                b,
                config,
                loss_ab: LossState::default(),
                loss_ba: LossState::default(),
                fifo_floor_ab: SimTime::ZERO,
                fifo_floor_ba: SimTime::ZERO,
                busy_until_ab: SimTime::ZERO,
                busy_until_ba: SimTime::ZERO,
            },
        );
        id
    }

    /// Sends `data` directly to `dest` with an explicit `delay`,
    /// bypassing any link model. `from` is recorded as the source.
    pub fn send(&self, from: EndpointId, dest: EndpointId, data: Vec<u8>, delay: SimDuration) {
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        if let Some(src) = inner.endpoints.get_mut(&from) {
            src.stats.sent += 1;
            src.stats.bytes_sent += data.len() as u64;
        }
        let seq = inner.seq;
        inner.seq += 1;
        inner.events.push(Reverse(Scheduled {
            at: now + delay,
            seq,
            dest,
            from: Some(from),
            sent_at: now,
            data,
        }));
    }

    /// Sends `data` from `src` over `link`; the destination is the
    /// link's other endpoint. Applies the link's loss, delay, FIFO and
    /// bandwidth models.
    ///
    /// Returns `true` if the message was scheduled for delivery and
    /// `false` if the link dropped it.
    ///
    /// # Panics
    ///
    /// Panics if `link` is unknown or `src` is not attached to it.
    pub(crate) fn send_link(&self, link: LinkId, src: EndpointId, data: Vec<u8>) -> bool {
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let l = inner.links.get_mut(&link).expect("unknown link");
        let (dest, a_to_b) = if src == l.a {
            (l.b, true)
        } else if src == l.b {
            (l.a, false)
        } else {
            panic!("endpoint {src:?} is not attached to link {link:?}");
        };
        if let Some(s) = inner.endpoints.get_mut(&src) {
            s.stats.sent += 1;
            s.stats.bytes_sent += data.len() as u64;
        }
        let loss_state = if a_to_b {
            &mut l.loss_ab
        } else {
            &mut l.loss_ba
        };
        if l.config.loss.drops(loss_state, &mut inner.rng) {
            if let Some(d) = inner.endpoints.get_mut(&dest) {
                d.stats.dropped += 1;
            }
            return false;
        }
        // Serialization: the link transmits one message at a time per
        // direction.
        let ser = l.config.serialization(data.len());
        let busy = if a_to_b {
            &mut l.busy_until_ab
        } else {
            &mut l.busy_until_ba
        };
        let tx_start = (*busy).max(now);
        let tx_end = tx_start + ser;
        *busy = tx_end;
        let prop = l.config.delay.sample(&mut inner.rng);
        let mut arrival = tx_end + prop;
        if l.config.fifo {
            let floor = if a_to_b {
                &mut l.fifo_floor_ab
            } else {
                &mut l.fifo_floor_ba
            };
            arrival = arrival.max(*floor);
            *floor = arrival;
        }
        let seq = inner.seq;
        inner.seq += 1;
        inner.events.push(Reverse(Scheduled {
            at: arrival,
            seq,
            dest,
            from: Some(src),
            sent_at: now,
            data,
        }));
        true
    }

    /// Pops the next message from `ep`'s receive queue, if any.
    pub fn recv(&self, ep: EndpointId) -> Option<Delivery> {
        self.inner.lock().endpoints.get_mut(&ep)?.queue.pop_front()
    }

    /// Returns the number of messages waiting at `ep`.
    pub(crate) fn pending(&self, ep: EndpointId) -> usize {
        self.inner
            .lock()
            .endpoints
            .get(&ep)
            .map_or(0, |e| e.queue.len())
    }

    /// Registers the waker of whoever reads `ep`, replacing any
    /// earlier one: [`Network::step`] calls it after (never before) a
    /// delivery has been pushed onto the endpoint's receive queue, once
    /// per delivery and outside the network's lock. Unknown endpoints
    /// are ignored.
    pub fn on_available(&self, ep: EndpointId, waker: Waker) {
        if let Some(e) = self.inner.lock().endpoints.get_mut(&ep) {
            e.reader = Some(waker);
        }
    }

    /// Returns a copy of `ep`'s traffic counters.
    pub fn stats(&self, ep: EndpointId) -> EndpointStats {
        self.inner
            .lock()
            .endpoints
            .get(&ep)
            .map(|e| e.stats)
            .unwrap_or_default()
    }

    /// The instant of the next scheduled delivery, if any.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.inner.lock().events.peek().map(|Reverse(s)| s.at)
    }

    /// Delivers the earliest scheduled message, advancing the clock to
    /// its arrival instant. Returns `false` when no events remain.
    pub fn step(&self) -> bool {
        let mut inner = self.inner.lock();
        let Some(Reverse(ev)) = inner.events.pop() else {
            return false;
        };
        self.clock.advance_to(ev.at);
        let reader = inner.endpoints.get_mut(&ev.dest).and_then(|e| {
            e.stats.delivered += 1;
            e.stats.bytes_delivered += ev.data.len() as u64;
            e.queue.push_back(Delivery {
                sent_at: ev.sent_at,
                delivered_at: ev.at,
                from: ev.from,
                data: ev.data,
            });
            e.reader.clone()
        });
        drop(inner);
        // Published above, woken here.
        if let Some(reader) = reader {
            reader.wake();
        }
        true
    }

    /// Delivers every scheduled message, advancing the clock as needed.
    pub fn run_until_idle(&self) {
        while self.step() {}
    }

    /// Delivers messages scheduled at or before `t`, then advances the
    /// clock to exactly `t`.
    pub fn run_until(&self, t: SimTime) {
        loop {
            match self.next_event_at() {
                Some(at) if at <= t => {
                    self.step();
                }
                _ => break,
            }
        }
        self.clock.advance_to(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{DelayModel, LossModel};

    #[test]
    fn direct_send_delivers_in_time_order() {
        let net = Network::new(0);
        let a = net.endpoint();
        let b = net.endpoint();
        net.send(a, b, vec![2], SimDuration::from_micros(200));
        net.send(a, b, vec![1], SimDuration::from_micros(100));
        net.run_until_idle();
        assert_eq!(net.recv(b).unwrap().data, vec![1]);
        assert_eq!(net.recv(b).unwrap().data, vec![2]);
        assert_eq!(net.now().as_micros(), 200);
    }

    #[test]
    fn fifo_link_preserves_order_under_jitter() {
        let net = Network::new(9);
        let a = net.endpoint();
        let b = net.endpoint();
        let mut cfg = LinkConfig::perfect(SimDuration::from_micros(100));
        cfg.delay = DelayModel::Uniform {
            min: SimDuration::from_micros(10),
            max: SimDuration::from_micros(1000),
        };
        cfg.fifo = true;
        let l = net.link(a, b, cfg);
        for i in 0..50u8 {
            net.send_link(l, a, vec![i]);
        }
        net.run_until_idle();
        for i in 0..50u8 {
            assert_eq!(net.recv(b).unwrap().data, vec![i]);
        }
    }

    #[test]
    fn non_fifo_link_can_reorder() {
        let net = Network::new(4);
        let a = net.endpoint();
        let b = net.endpoint();
        let mut cfg = LinkConfig::perfect(SimDuration::ZERO);
        cfg.delay = DelayModel::Uniform {
            min: SimDuration::from_micros(0),
            max: SimDuration::from_micros(10_000),
        };
        cfg.fifo = false;
        let l = net.link(a, b, cfg);
        for i in 0..100u8 {
            net.send_link(l, a, vec![i]);
        }
        net.run_until_idle();
        let mut order = Vec::new();
        while let Some(d) = net.recv(b) {
            order.push(d.data[0]);
        }
        assert_eq!(order.len(), 100);
        let sorted: Vec<u8> = (0..100).collect();
        assert_ne!(order, sorted, "expected at least one reordering");
    }

    #[test]
    fn lossy_link_counts_drops() {
        let net = Network::new(5);
        let a = net.endpoint();
        let b = net.endpoint();
        let mut cfg = LinkConfig::perfect(SimDuration::from_micros(10));
        cfg.loss = LossModel::bernoulli(0.5);
        let l = net.link(a, b, cfg);
        let mut scheduled = 0;
        for _ in 0..1000 {
            if net.send_link(l, a, vec![0]) {
                scheduled += 1;
            }
        }
        net.run_until_idle();
        let st = net.stats(b);
        assert_eq!(st.delivered as usize, scheduled);
        assert_eq!(st.delivered + st.dropped, 1000);
        assert!(
            st.dropped > 300 && st.dropped < 700,
            "dropped={}",
            st.dropped
        );
        assert!((st.delivery_ratio() - 0.5).abs() < 0.2);
    }

    #[test]
    fn bandwidth_serializes_messages() {
        let net = Network::new(0);
        let a = net.endpoint();
        let b = net.endpoint();
        let mut cfg = LinkConfig::perfect(SimDuration::ZERO);
        cfg.bandwidth_bps = Some(8_000_000); // 1 byte/us
        let l = net.link(a, b, cfg);
        net.send_link(l, a, vec![0; 1000]); // tx: 0..1000us
        net.send_link(l, a, vec![0; 1000]); // tx: 1000..2000us
        net.run_until_idle();
        let d1 = net.recv(b).unwrap();
        let d2 = net.recv(b).unwrap();
        assert_eq!(d1.delivered_at.as_micros(), 1000);
        assert_eq!(d2.delivered_at.as_micros(), 2000);
    }

    #[test]
    fn run_until_stops_at_target() {
        let net = Network::new(0);
        let a = net.endpoint();
        let b = net.endpoint();
        net.send(a, b, vec![1], SimDuration::from_micros(100));
        net.send(a, b, vec![2], SimDuration::from_micros(900));
        net.run_until(SimTime::from_micros(500));
        assert_eq!(net.pending(b), 1);
        assert_eq!(net.now().as_micros(), 500);
        net.run_until_idle();
        assert_eq!(net.pending(b), 2);
    }

    #[test]
    fn determinism_same_seed_same_schedule() {
        let run = |seed| {
            let net = Network::new(seed);
            let a = net.endpoint();
            let b = net.endpoint();
            let cfg = LinkConfig::lossy(
                SimDuration::from_millis(1),
                SimDuration::from_micros(400),
                0.1,
            );
            let l = net.link(a, b, cfg);
            for i in 0..200u8 {
                net.send_link(l, a, vec![i]);
            }
            net.run_until_idle();
            let mut v = Vec::new();
            while let Some(d) = net.recv(b) {
                v.push((d.data[0], d.delivered_at.as_micros()));
            }
            v
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }
}
