//! `netsim` — deterministic network substrate for the MCAM reproduction.
//!
//! The ICDCS'94 MCAM system ran its control stacks over a "simulated
//! transport layer pipe" for measurements and its CM stream protocol
//! (XMovie MTP) over UDP/IP/FDDI. This crate provides both substrates
//! in-process and deterministically:
//!
//! - [`SimTime`] / [`SimDuration`] / [`VirtualClock`] — the simulated
//!   time axis;
//! - [`Network`] — a discrete-event message core with per-endpoint
//!   queues and statistics;
//! - [`Pipe`] — a reliable, in-order duplex channel (the measured
//!   transport pipe);
//! - [`DatagramNet`] — an addressed, unreliable datagram service with
//!   configurable loss ([`LossModel`], incl. bursty Gilbert–Elliott) and
//!   delay/jitter ([`DelayModel`]);
//! - [`Medium`] — the conduit abstraction protocol machines are written
//!   against, with pipe, loopback, and cross-thread implementations.
//!
//! # Examples
//!
//! ```
//! use netsim::{Network, Pipe, SimDuration};
//! use std::sync::Arc;
//!
//! let net = Arc::new(Network::new(42));
//! let (client, server) = Pipe::create(&net, SimDuration::from_millis(1));
//! client.send(b"CONNECT".to_vec());
//! net.run_until_idle();
//! assert_eq!(server.recv().unwrap().data, b"CONNECT");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
mod clock;
mod datagram;
mod medium;
mod models;
mod net;
mod pipe;
mod time;

pub use backend::{SimBackend, ThreadedBackend, TransportBackend};
pub use clock::VirtualClock;
pub use datagram::{AddrInUse, Datagram, DatagramNet, DatagramSocket, NetAddr};
pub use medium::{LoopbackMedium, Medium, PipeMedium, ThreadMedium};
pub use models::{DelayModel, LinkConfig, LossModel, LossState};
pub use net::{Delivery, EndpointId, EndpointStats, LinkId, Network};
pub use pipe::{Pipe, PipeEnd};
pub use time::{SimDuration, SimTime};
