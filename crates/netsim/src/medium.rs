//! Transport-medium abstraction.
//!
//! Protocol entities in this workspace exchange byte-encoded PDUs
//! through a [`Medium`] so the same state machines run over the
//! discrete-event pipe (virtual time), over in-process queues
//! (loopback), or across real threads.

use crate::pipe::PipeEnd;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::task::Waker;

/// A bidirectional message conduit for encoded PDUs.
pub trait Medium: Send + fmt::Debug {
    /// Hands a message to the medium for the peer.
    fn send(&self, data: Vec<u8>);
    /// Retrieves the next message from the peer, if available.
    fn poll(&self) -> Option<Vec<u8>>;
    /// Number of messages currently available to [`Medium::poll`].
    fn available(&self) -> usize;
    /// Registers the waker of whoever reads this end, replacing any
    /// earlier one. The medium calls it once per delivery and in this
    /// order: **publish, then wake** — first the message is visible to
    /// [`Medium::available`], then the waker runs — so a reader that
    /// looks when woken never misses a message. The waker runs with no
    /// lock of the medium held. A message delivered before the
    /// registration is not announced after the fact; the reader looks
    /// once on its own when it registers.
    fn on_available(&self, waker: Waker);
}

/// The registered reader of one end of a medium, shared with whatever
/// delivers to that end.
type Reader = Mutex<Option<Waker>>;

/// Wakes the reader registered in `reader`, if any, outside its lock.
fn wake(reader: &Reader) {
    let waker = reader.lock().clone();
    if let Some(waker) = waker {
        waker.wake();
    }
}

/// One direction of a [`LoopbackMedium`]: the messages in flight and
/// the reader they are for.
#[derive(Debug, Default)]
struct Lane {
    queue: Mutex<VecDeque<Vec<u8>>>,
    reader: Reader,
}

/// A [`Medium`] over one end of a simulated [`crate::Pipe`].
///
/// Note that messages only become available after the owning
/// [`crate::Network`] has been stepped past their delivery instant.
#[derive(Debug, Clone)]
pub struct PipeMedium {
    end: PipeEnd,
}

impl PipeMedium {
    /// Wraps a pipe end.
    pub fn new(end: PipeEnd) -> Self {
        PipeMedium { end }
    }
}

impl Medium for PipeMedium {
    fn send(&self, data: Vec<u8>) {
        self.end.send(data);
    }
    fn poll(&self) -> Option<Vec<u8>> {
        self.end.recv().map(|d| d.data)
    }
    fn available(&self) -> usize {
        self.end.pending()
    }
    fn on_available(&self, waker: Waker) {
        self.end.on_available(waker);
    }
}

/// An instantaneous in-process duplex medium (no simulated delay).
///
/// Useful for unit-testing protocol machines in isolation and for the
/// hand-coded ISODE stack where the paper's interface module polls in a
/// loop.
#[derive(Debug, Clone)]
pub struct LoopbackMedium {
    tx: Arc<Lane>,
    rx: Arc<Lane>,
}

impl LoopbackMedium {
    /// Creates a connected pair of loopback media.
    pub fn pair() -> (LoopbackMedium, LoopbackMedium) {
        let ab = Arc::new(Lane::default());
        let ba = Arc::new(Lane::default());
        (
            LoopbackMedium {
                tx: Arc::clone(&ab),
                rx: Arc::clone(&ba),
            },
            LoopbackMedium { tx: ba, rx: ab },
        )
    }
}

impl Medium for LoopbackMedium {
    fn send(&self, data: Vec<u8>) {
        self.tx.queue.lock().push_back(data);
        wake(&self.tx.reader);
    }
    fn poll(&self) -> Option<Vec<u8>> {
        self.rx.queue.lock().pop_front()
    }
    fn available(&self) -> usize {
        self.rx.queue.lock().len()
    }
    fn on_available(&self, waker: Waker) {
        *self.rx.reader.lock() = Some(waker);
    }
}

/// A thread-safe medium over crossbeam channels, for the real-thread
/// parallel runtime (the OSF/1-threads analogue).
#[derive(Debug, Clone)]
pub struct ThreadMedium {
    tx: crossbeam::channel::Sender<Vec<u8>>,
    rx: crossbeam::channel::Receiver<Vec<u8>>,
    peer: Arc<Reader>,
    reader: Arc<Reader>,
}

impl ThreadMedium {
    /// Creates a connected pair of thread media.
    pub fn pair() -> (ThreadMedium, ThreadMedium) {
        let (tx_ab, rx_ab) = crossbeam::channel::unbounded();
        let (tx_ba, rx_ba) = crossbeam::channel::unbounded();
        let (a, b) = (Arc::<Reader>::default(), Arc::<Reader>::default());
        (
            ThreadMedium {
                tx: tx_ab,
                rx: rx_ba,
                peer: Arc::clone(&b),
                reader: Arc::clone(&a),
            },
            ThreadMedium {
                tx: tx_ba,
                rx: rx_ab,
                peer: a,
                reader: b,
            },
        )
    }
}

impl Medium for ThreadMedium {
    fn send(&self, data: Vec<u8>) {
        // A disconnected peer simply discards traffic, mirroring a
        // closed pipe; protocol machines detect this at their own level.
        let _ = self.tx.send(data);
        wake(&self.peer);
    }
    fn poll(&self) -> Option<Vec<u8>> {
        self.rx.try_recv().ok()
    }
    fn available(&self) -> usize {
        self.rx.len()
    }
    fn on_available(&self, waker: Waker) {
        *self.reader.lock() = Some(waker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Network;
    use crate::pipe::Pipe;
    use crate::time::SimDuration;

    fn exercise(a: &dyn Medium, b: &dyn Medium, settle: impl Fn()) {
        a.send(vec![1, 2, 3]);
        b.send(vec![4]);
        settle();
        assert_eq!(a.available(), 1);
        assert_eq!(b.available(), 1);
        assert_eq!(b.poll().unwrap(), vec![1, 2, 3]);
        assert_eq!(a.poll().unwrap(), vec![4]);
        assert!(a.poll().is_none());
        assert!(b.poll().is_none());
    }

    /// A reader that notes, each time it is woken, how many messages
    /// its end of the medium holds at that moment.
    struct Probe {
        end: Mutex<Box<dyn Medium>>,
        seen: Mutex<Vec<usize>>,
    }

    impl std::task::Wake for Probe {
        fn wake(self: Arc<Self>) {
            let available = self.end.lock().available();
            self.seen.lock().push(available);
        }
    }

    /// The `on_available` contract, for the reader of `b` (`b_view` is
    /// a second handle on the same end): publish, then wake; once per
    /// delivery; nothing announced after the fact.
    fn exercise_wake(a: &dyn Medium, b: &dyn Medium, b_view: Box<dyn Medium>, settle: impl Fn()) {
        // Queued before anybody registered: visible, not announced.
        a.send(vec![0]);
        settle();
        let probe = Arc::new(Probe {
            end: Mutex::new(b_view),
            seen: Mutex::new(Vec::new()),
        });
        b.on_available(Waker::from(Arc::clone(&probe)));
        assert_eq!(b.available(), 1);
        assert!(probe.seen.lock().is_empty());
        // Each delivery wakes once, and the reader woken already sees
        // it (the probe could not even ask if a lock were still held).
        for n in 1..=3u8 {
            a.send(vec![n]);
            settle();
            assert_eq!(*probe.seen.lock(), (2..=n as usize + 1).collect::<Vec<_>>());
        }
        // Traffic the other way is not this reader's business.
        b.send(vec![9]);
        settle();
        assert_eq!(probe.seen.lock().len(), 3);
        assert_eq!(b.poll().unwrap(), vec![0]);
    }

    #[test]
    fn loopback_medium() {
        let (a, b) = LoopbackMedium::pair();
        exercise(&a, &b, || {});
        exercise_wake(&a, &b, Box::new(b.clone()), || {});
    }

    #[test]
    fn thread_medium() {
        let (a, b) = ThreadMedium::pair();
        exercise(&a, &b, || {});
        exercise_wake(&a, &b, Box::new(b.clone()), || {});
    }

    #[test]
    fn pipe_medium_needs_network_steps() {
        let net = std::sync::Arc::new(Network::new(0));
        let (pa, pb) = Pipe::create(&net, SimDuration::from_micros(10));
        let a = PipeMedium::new(pa);
        let b = PipeMedium::new(pb);
        a.send(vec![7]);
        assert!(b.poll().is_none(), "not delivered until the net steps");
        net.run_until_idle();
        assert_eq!(b.poll().unwrap(), vec![7]);
        exercise(&a, &b, || net.run_until_idle());
        exercise_wake(&a, &b, Box::new(b.clone()), || net.run_until_idle());
    }

    #[test]
    fn thread_medium_across_threads() {
        let (a, b) = ThreadMedium::pair();
        let h = std::thread::spawn(move || {
            while b.poll().is_none() {
                std::thread::yield_now();
            }
            b.send(vec![2]);
        });
        a.send(vec![1]);
        h.join().unwrap();
        assert_eq!(a.poll().unwrap(), vec![2]);
    }
}
