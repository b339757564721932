//! Umbrella crate for the MCAM reproduction workspace.
//!
//! Re-exports the public crates so examples and integration tests can use
//! a single dependency root:
//!
//! - control plane: [`mcam`] (agents, PDUs, world), [`estelle`],
//!   [`asn1`], [`presentation`], [`session`], [`isode`], all carried
//!   over [`netsim`] pipes, and [`transport`] (the TPDU codec of the
//!   layer below, measured by the per-layer ledger);
//! - CM-stream plane: [`mtp`] (stream protocol) and [`store`] (striped
//!   block store, buffer cache, prefetch, disk-bandwidth admission
//!   control feeding the stream provider);
//! - capacity: [`share`] (merging close-spaced viewers behind one
//!   disk stream) and [`cluster`] (replica placement, load routing,
//!   rebalancing);
//! - services: [`directory`], [`equipment`];
//! - observability: [`journal`] (hash-chained event journal);
//! - substrate and evaluation: [`netsim`], [`ksim`], [`harness`],
//!   [`workload`] (declarative scenarios compiled to agent scripts).
pub use asn1;
pub use cluster;
pub use directory;
pub use equipment;
pub use estelle;
pub use harness;
pub use isode;
pub use journal;
pub use ksim;
pub use mcam;
pub use mtp;
pub use netsim;
pub use presentation;
pub use session;
pub use share;
pub use store;
pub use transport;
pub use workload;
