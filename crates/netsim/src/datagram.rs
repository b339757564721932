//! Addressed, unreliable datagram service — the UDP/IP/FDDI substitute
//! under the XMovie MTP stream protocol (paper §3).

use crate::models::LinkConfig;
use crate::net::{Delivery, EndpointId, Network};
use crate::time::SimTime;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A node address on a [`DatagramNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetAddr(pub u32);

impl fmt::Display for NetAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// A datagram received by a socket.
#[derive(Debug, Clone)]
pub struct Datagram {
    /// Sender address.
    pub from: NetAddr,
    /// Instant the datagram was sent.
    pub sent_at: SimTime,
    /// Instant the datagram arrived.
    pub delivered_at: SimTime,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

#[derive(Debug)]
struct DgInner {
    sockets: HashMap<NetAddr, EndpointId>,
    endpoints: HashMap<EndpointId, NetAddr>,
    loss_states: HashMap<(NetAddr, NetAddr), crate::models::LossState>,
    rng: StdRng,
}

/// An unreliable datagram network layered on the event core.
///
/// All node pairs share one [`LinkConfig`] (the paper's single FDDI
/// segment); loss state is tracked per ordered pair so bursty models
/// behave independently per flow.
///
/// # Examples
///
/// ```
/// use netsim::{DatagramNet, Network, NetAddr, LinkConfig, SimDuration};
/// use std::sync::Arc;
/// let net = Arc::new(Network::new(0));
/// let dg = DatagramNet::new(&net, LinkConfig::perfect(SimDuration::from_micros(50)), 7);
/// let a = dg.bind(NetAddr(1)).unwrap();
/// let b = dg.bind(NetAddr(2)).unwrap();
/// a.send_to(NetAddr(2), b"frame".to_vec());
/// net.run_until_idle();
/// assert_eq!(b.recv().unwrap().payload, b"frame");
/// ```
#[derive(Debug)]
pub struct DatagramNet {
    net: Arc<Network>,
    config: LinkConfig,
    inner: Mutex<DgInner>,
}

/// A bound datagram socket.
#[derive(Debug, Clone)]
pub struct DatagramSocket {
    dg: Arc<DatagramNet>,
    addr: NetAddr,
    endpoint: EndpointId,
}

/// Error returned when binding an address that is already in use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrInUse(pub NetAddr);

impl fmt::Display for AddrInUse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "address already in use: {}", self.0)
    }
}

impl std::error::Error for AddrInUse {}

impl DatagramNet {
    /// Creates a datagram network over `net` with the shared link
    /// `config` and a dedicated RNG `seed` for its loss/delay draws.
    pub fn new(net: &Arc<Network>, config: LinkConfig, seed: u64) -> Arc<Self> {
        Arc::new(DatagramNet {
            net: Arc::clone(net),
            config,
            inner: Mutex::new(DgInner {
                sockets: HashMap::new(),
                endpoints: HashMap::new(),
                loss_states: HashMap::new(),
                rng: StdRng::seed_from_u64(seed),
            }),
        })
    }

    /// Binds `addr`, returning a socket.
    ///
    /// # Errors
    ///
    /// Returns [`AddrInUse`] if another socket already holds `addr`.
    pub fn bind(self: &Arc<Self>, addr: NetAddr) -> Result<DatagramSocket, AddrInUse> {
        let mut inner = self.inner.lock();
        if inner.sockets.contains_key(&addr) {
            return Err(AddrInUse(addr));
        }
        let ep = self.net.endpoint();
        inner.sockets.insert(addr, ep);
        inner.endpoints.insert(ep, addr);
        Ok(DatagramSocket {
            dg: Arc::clone(self),
            addr,
            endpoint: ep,
        })
    }

    fn addr_of(&self, ep: EndpointId) -> Option<NetAddr> {
        self.inner.lock().endpoints.get(&ep).copied()
    }

    /// Sends `payload` from `from` to `to`, applying the network's loss
    /// and delay models. Returns `true` if the datagram was scheduled
    /// (i.e. not dropped) and the destination exists.
    fn send_from(&self, from: NetAddr, to: NetAddr, payload: Vec<u8>) -> bool {
        let mut inner = self.inner.lock();
        let Some(&dest_ep) = inner.sockets.get(&to) else {
            return false;
        };
        let Some(&src_ep) = inner.sockets.get(&from) else {
            return false;
        };
        let inner = &mut *inner;
        let loss_state = inner.loss_states.entry((from, to)).or_default();
        if self.config.loss.drops(loss_state, &mut inner.rng) {
            return false;
        }
        let delay =
            self.config.delay.sample(&mut inner.rng) + self.config.serialization(payload.len());
        self.net.send(src_ep, dest_ep, payload, delay);
        true
    }
}

impl DatagramSocket {
    /// Sends `payload` to `to`. Returns `false` if the datagram was
    /// dropped by the loss model or the destination does not exist —
    /// callers that care must implement their own acknowledgements
    /// (MTP deliberately does not).
    pub fn send_to(&self, to: NetAddr, payload: Vec<u8>) -> bool {
        self.dg.send_from(self.addr, to, payload)
    }

    /// Receives the next delivered datagram, if any.
    pub fn recv(&self) -> Option<Datagram> {
        let d: Delivery = self.dg.net.recv(self.endpoint)?;
        let from = d
            .from
            .and_then(|ep| self.dg.addr_of(ep))
            .unwrap_or(NetAddr(u32::MAX));
        Some(Datagram {
            from,
            sent_at: d.sent_at,
            delivered_at: d.delivered_at,
            payload: d.data,
        })
    }

    /// Number of datagrams waiting.
    pub fn pending(&self) -> usize {
        self.dg.net.pending(self.endpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn setup(loss: f64, seed: u64) -> (Arc<Network>, DatagramSocket, DatagramSocket) {
        let net = Arc::new(Network::new(seed));
        let cfg = LinkConfig::lossy(
            SimDuration::from_micros(300),
            SimDuration::from_micros(100),
            loss,
        );
        let dg = DatagramNet::new(&net, cfg, seed.wrapping_add(1));
        let a = dg.bind(NetAddr(1)).unwrap();
        let b = dg.bind(NetAddr(2)).unwrap();
        (net, a, b)
    }

    #[test]
    fn roundtrip_with_addresses() {
        let (net, a, b) = setup(0.0, 0);
        assert!(a.send_to(NetAddr(2), vec![9]));
        net.run_until_idle();
        let d = b.recv().unwrap();
        assert_eq!(d.from, NetAddr(1));
        assert_eq!(d.payload, vec![9]);
        assert!(d.delivered_at > d.sent_at);
    }

    #[test]
    fn double_bind_rejected() {
        let net = Arc::new(Network::new(0));
        let dg = DatagramNet::new(&net, LinkConfig::default(), 0);
        let _a = dg.bind(NetAddr(7)).unwrap();
        assert_eq!(dg.bind(NetAddr(7)).unwrap_err(), AddrInUse(NetAddr(7)));
    }

    #[test]
    fn unknown_destination_is_not_an_error_just_lost() {
        let (_net, a, _b) = setup(0.0, 0);
        assert!(!a.send_to(NetAddr(99), vec![1]));
    }

    #[test]
    fn loss_rate_visible_to_sender() {
        let (net, a, b) = setup(0.3, 21);
        let mut ok = 0;
        for _ in 0..2000 {
            if a.send_to(NetAddr(2), vec![0]) {
                ok += 1;
            }
        }
        net.run_until_idle();
        let mut got = 0;
        while b.recv().is_some() {
            got += 1;
        }
        assert_eq!(got, ok);
        let rate = 1.0 - ok as f64 / 2000.0;
        assert!((rate - 0.3).abs() < 0.05, "loss rate {rate}");
    }
}
