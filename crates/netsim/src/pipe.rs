//! The "simulated transport layer pipe" (paper §5.1).
//!
//! A [`Pipe`] is a reliable, in-order, full-duplex message channel
//! between two stacks, realized on the discrete-event [`Network`]. It is
//! the substrate under the measured session/presentation stacks, exactly
//! as in the paper's first measurement setup.

use crate::models::LinkConfig;
use crate::net::{Delivery, EndpointId, LinkId, Network};
use crate::time::SimDuration;
use std::sync::Arc;

/// One end of a reliable duplex pipe.
#[derive(Debug, Clone)]
pub struct PipeEnd {
    net: Arc<Network>,
    link: LinkId,
    local: EndpointId,
}

impl PipeEnd {
    /// Sends a message to the peer end. Delivery is reliable and
    /// in-order.
    pub fn send(&self, data: Vec<u8>) {
        let ok = self.net.send_link(self.link, self.local, data);
        debug_assert!(ok, "pipe links are lossless");
    }

    /// Receives the next message from the peer, if one has been
    /// delivered (the network must be stepped for time to pass).
    pub fn recv(&self) -> Option<Delivery> {
        self.net.recv(self.local)
    }

    /// Number of messages waiting to be received.
    pub fn pending(&self) -> usize {
        self.net.pending(self.local)
    }

    /// Registers the waker [`Network::step`] calls after each delivery
    /// into this end (see [`Network::on_available`]).
    pub(crate) fn on_available(&self, waker: std::task::Waker) {
        self.net.on_available(self.local, waker);
    }

    /// The endpoint id of this pipe end.
    pub fn endpoint(&self) -> EndpointId {
        self.local
    }
}

/// A reliable duplex pipe; construct with [`Pipe::create`].
#[derive(Debug)]
pub struct Pipe;

impl Pipe {
    /// Creates a pipe on `net` with constant one-way `delay`, returning
    /// both ends.
    pub fn create(net: &Arc<Network>, delay: SimDuration) -> (PipeEnd, PipeEnd) {
        Self::create_with(net, LinkConfig::perfect(delay))
    }

    /// Creates a pipe with a custom link configuration.
    ///
    /// The configuration is forced lossless and FIFO — a pipe is by
    /// definition reliable and ordered; use
    /// [`crate::DatagramNet`] for lossy traffic.
    pub fn create_with(net: &Arc<Network>, mut config: LinkConfig) -> (PipeEnd, PipeEnd) {
        config.loss = crate::models::LossModel::None;
        config.fifo = true;
        let a = net.endpoint();
        let b = net.endpoint();
        let link = net.link(a, b, config);
        (
            PipeEnd {
                net: Arc::clone(net),
                link,
                local: a,
            },
            PipeEnd {
                net: Arc::clone(net),
                link,
                local: b,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{DelayModel, LossModel};

    #[test]
    fn duplex_roundtrip() {
        let net = Arc::new(Network::new(0));
        let (a, b) = Pipe::create(&net, SimDuration::from_micros(100));
        a.send(b"ping".to_vec());
        net.run_until_idle();
        assert_eq!(b.recv().unwrap().data, b"ping");
        b.send(b"pong".to_vec());
        net.run_until_idle();
        assert_eq!(a.recv().unwrap().data, b"pong");
        assert!(a.recv().is_none());
    }

    #[test]
    fn pipe_is_forced_reliable() {
        let net = Arc::new(Network::new(1));
        let mut cfg = LinkConfig::perfect(SimDuration::from_micros(10));
        cfg.loss = LossModel::bernoulli(0.9);
        cfg.fifo = false;
        cfg.delay = DelayModel::Uniform {
            min: SimDuration::from_micros(1),
            max: SimDuration::from_micros(500),
        };
        let (a, b) = Pipe::create_with(&net, cfg);
        for i in 0..100u8 {
            a.send(vec![i]);
        }
        net.run_until_idle();
        for i in 0..100u8 {
            assert_eq!(b.recv().unwrap().data, vec![i], "reliable + in order");
        }
    }

    #[test]
    fn pending_counts() {
        let net = Arc::new(Network::new(0));
        let (a, b) = Pipe::create(&net, SimDuration::from_micros(5));
        a.send(vec![1]);
        a.send(vec![2]);
        assert_eq!(b.pending(), 0, "nothing delivered before stepping");
        net.run_until_idle();
        assert_eq!(b.pending(), 2);
    }
}
