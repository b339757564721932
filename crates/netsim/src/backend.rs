//! Transport backends — where connection conduits come from.
//!
//! Every protocol entity in the workspace is written against
//! [`Medium`]; a [`TransportBackend`] decides what a freshly opened
//! connection's media actually are:
//!
//! - [`SimBackend`] mints simulated-[`Pipe`] ends on a shared
//!   discrete-event [`Network`]. Everything runs on the virtual clock,
//!   single-threaded and bit-for-bit deterministic — journals replay,
//!   benches commit stable numbers.
//! - [`ThreadedBackend`] mints cross-thread channel pairs
//!   ([`ThreadMedium`]). Delivery is immediate and the two ends may
//!   live on different OS threads, so an N-server world runs on N
//!   cores and throughput is measured on the wall clock.
//!
//! The trait has one method: `connect` mints one full-duplex conduit.
//! Making its traffic arrive is the caller's business — stepping the
//! [`Network`] for simulated pipes, nothing for channels.

use crate::medium::{Medium, PipeMedium, ThreadMedium};
use crate::net::Network;
use crate::pipe::Pipe;
use crate::time::SimDuration;
use std::fmt;
use std::sync::Arc;

/// A source of connected [`Medium`] pairs.
pub trait TransportBackend: Send + Sync + fmt::Debug {
    /// Opens one full-duplex connection and returns its two ends.
    fn connect(&self) -> (Box<dyn Medium>, Box<dyn Medium>);
}

/// The deterministic simulated-clock backend: each connection is a
/// lossless FIFO [`Pipe`] with a fixed propagation delay on a shared
/// [`Network`].
#[derive(Debug, Clone)]
pub struct SimBackend {
    net: Arc<Network>,
    delay: SimDuration,
}

impl SimBackend {
    /// Creates a backend minting pipes with `delay` on `net`.
    pub fn new(net: &Arc<Network>, delay: SimDuration) -> Self {
        SimBackend {
            net: Arc::clone(net),
            delay,
        }
    }

    /// Like [`TransportBackend::connect`], but returns the raw pipe
    /// ends for callers that need endpoint identities (traffic
    /// accounting) alongside the media.
    pub fn connect_pipe(&self) -> (crate::pipe::PipeEnd, crate::pipe::PipeEnd) {
        Pipe::create(&self.net, self.delay)
    }
}

impl TransportBackend for SimBackend {
    fn connect(&self) -> (Box<dyn Medium>, Box<dyn Medium>) {
        let (a, b) = Pipe::create(&self.net, self.delay);
        (Box::new(PipeMedium::new(a)), Box::new(PipeMedium::new(b)))
    }
}

/// The real-thread backend: each connection is a pair of unbounded
/// cross-thread channels, delivery is immediate, and the two ends can
/// be driven from different OS threads.
#[derive(Debug, Clone, Default)]
pub struct ThreadedBackend;

impl ThreadedBackend {
    /// Creates the threaded backend (stateless).
    pub fn new() -> Self {
        ThreadedBackend
    }
}

impl TransportBackend for ThreadedBackend {
    fn connect(&self) -> (Box<dyn Medium>, Box<dyn Medium>) {
        let (a, b) = ThreadMedium::pair();
        (Box::new(a), Box::new(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_backend_delivers_when_the_network_runs() {
        let net = Arc::new(Network::new(1));
        let backend = SimBackend::new(&net, SimDuration::from_millis(1));
        let (a, b) = backend.connect();
        a.send(vec![1, 2]);
        b.send(vec![3]);
        assert!(b.poll().is_none(), "pipe traffic waits for the clock");
        net.run_until_idle();
        assert_eq!(b.poll().unwrap(), vec![1, 2]);
        assert_eq!(a.poll().unwrap(), vec![3]);
        assert!(a.poll().is_none());
    }

    #[test]
    fn a_clone_mints_pipes_on_the_same_network() {
        // `World` hands its dialer a clone of its backend.
        let net = Arc::new(Network::new(1));
        let backend = SimBackend::new(&net, SimDuration::from_millis(1));
        let (a, b) = backend.clone().connect();
        a.send(vec![5]);
        net.run_until_idle();
        assert_eq!(b.poll().unwrap(), vec![5]);
        assert_eq!(net.now().as_micros(), 1_000);
    }

    #[test]
    fn connect_pipe_counts_traffic_per_endpoint() {
        let net = Arc::new(Network::new(1));
        let backend = SimBackend::new(&net, SimDuration::from_millis(1));
        let (near, far) = backend.connect_pipe();
        assert_ne!(near.endpoint(), far.endpoint());
        near.send(vec![0; 40]);
        net.run_until_idle();
        assert_eq!(net.stats(near.endpoint()).bytes_sent, 40);
        assert_eq!(net.stats(far.endpoint()).bytes_delivered, 40);
    }

    #[test]
    fn threaded_ends_work_across_threads() {
        let backend = ThreadedBackend::new();
        let (a, b) = backend.connect();
        let h = std::thread::spawn(move || loop {
            if let Some(msg) = b.poll() {
                b.send(msg);
                break;
            }
            std::thread::yield_now();
        });
        a.send(vec![42]);
        h.join().unwrap();
        assert_eq!(a.poll().unwrap(), vec![42]);
    }
}
