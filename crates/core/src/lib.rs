//! `mcam` — Movie Control, Access and Management: the paper's primary
//! contribution.
//!
//! MCAM is an application-layer architecture, service and protocol for
//! movie *access* (create, delete, select), *management* (query and
//! modify attributes) and *control* (playback, record) in a computer
//! network. This crate assembles the whole system of the paper:
//!
//! - [`McamPdu`] — the ASN.1/BER protocol data units (§4.2);
//! - [`ClientMca`] / [`ServerMca`] — the Movie Control Agents written
//!   as Estelle state machines (Fig. 3), with the server's DUA, SUA
//!   and EUA child agents as external-body modules ([`agents`]);
//! - [`AppMachine`] — the scriptable application module (the generated
//!   X interface substitute);
//! - [`ClientRoot`] / [`server::ServerRoot`] — system modules that
//!   create their protocol stacks *dynamically* on connection
//!   requests (§4.1), over either lower stack ([`StackKind`]);
//! - [`StreamProviderSystem`] — the XMovie stream provider feeding
//!   MTP senders (CM-stream level, deliberately outside Estelle),
//!   pulling frames through the `store` crate's striped block store
//!   with buffer cache, prefetch, and disk-bandwidth admission
//!   control (overload becomes a negative MCAM response);
//! - [`World`] — the Fig. 2 experimental configuration: clients on
//!   workstations, server entities on the (simulated) multiprocessor,
//!   control pipes and the CM datagram network, with a co-simulation
//!   driver;
//! - cluster replication (the `cluster` crate wired through
//!   [`World::add_cluster`] / [`World::publish_replicated`]): movies
//!   are placed on K replica servers, directory entries carry every
//!   replica location, and `SelectMovie` routes each stream to the
//!   replica whose admission controller has the most uncommitted
//!   disk bandwidth — falling over to the next replica on rejection
//!   and returning `ErrorRsp 503` only when all replicas are
//!   saturated;
//! - the cluster **control plane** ([`ClusterController`], one per
//!   cluster, ticked by the world's driver on the netsim clock):
//!   replica sets are no longer fixed at publish time — the
//!   controller samples per-server loads, *grows* a saturated title
//!   onto the least-loaded idle server (the copy reserves bandwidth
//!   in the target's admission controller and is written through its
//!   elevator/SCAN disk queues at the reserved pace, so it visibly
//!   competes with streams), *shrinks* it back when demand cools,
//!   and *drains* servers out of service
//!   ([`ClusterHandle::drain`]): sole-copy titles migrate
//!   off, running streams play to completion, and the server
//!   decommissions once its last stream closes;
//! - **cluster-aware clients** (the referral control plane): the
//!   *control* association is no longer pinned to whichever server a
//!   client dialed — a server that is over-connected, draining, or
//!   already decommissioned answers an association open or a
//!   `SelectMovie` with [`McamPdu::ReferralRsp`] naming a better
//!   member (plus the live candidate list with a load hint), and the
//!   client's root re-dials, re-associates, and replays the
//!   interrupted request transparently (bounded hop count, loop
//!   detection over visited servers, candidate fallback when the
//!   target died). Old clients that never advertise the capability
//!   in their `AssociateReq` keep the original wire format and are
//!   always served locally.
//!
//! # Examples
//!
//! A complete create–select–play session:
//!
//! ```
//! use mcam::{McamOp, McamPdu, StackKind, World};
//! use netsim::{SimDuration, SimTime};
//!
//! let mut world = World::builder(7).build();
//! let server = world.add_server("ksr1", StackKind::EstellePS);
//! let client = world.add_client(&server, StackKind::EstellePS, vec![]);
//! world.start();
//!
//! let rsp = world.client_op(&client, McamOp::Associate { user: "demo".into() });
//! assert_eq!(rsp, Some(McamPdu::AssociateRsp { accepted: true }));
//!
//! let rsp = world.client_op(&client, McamOp::CreateMovie {
//!     title: "Quickstart".into(),
//!     format: "XMovie-24".into(),
//!     frame_rate: 25,
//!     frame_count: 50,
//! });
//! assert_eq!(rsp, Some(McamPdu::CreateMovieRsp { ok: true }));
//!
//! let rsp = world.client_op(&client, McamOp::SelectMovie { title: "Quickstart".into() });
//! let params = match rsp {
//!     Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
//!     other => panic!("select failed: {other:?}"),
//! };
//! let mut receiver = world.receiver_for(&client, &params, SimDuration::from_millis(50));
//! let rsp = world.client_op(&client, McamOp::Play { speed_pct: 100 });
//! assert_eq!(rsp, Some(McamPdu::PlayRsp { ok: true }));
//! world.run_for(SimDuration::from_secs(3));
//! let played = receiver.poll(world.net.now());
//! assert_eq!(played.len(), 50, "all frames played");
//! ```
//!
//! Scaling a popular title past one machine: build an N-server
//! cluster, publish with K replicas, and let `SelectMovie` route each
//! viewer to the replica with the most uncommitted disk bandwidth:
//!
//! ```
//! use directory::MovieEntry;
//! use mcam::{ClusterSpec, McamOp, McamPdu, Placement, StackKind, World};
//!
//! let mut world = World::builder(9).build();
//! let cluster = world.add_cluster(ClusterSpec::new("vod", 3, StackKind::EstellePS, Placement::round_robin(2)));
//! let client = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
//! world.start();
//!
//! let replicas = world.publish_replicated(&cluster, &MovieEntry::new("Hit", "pending"));
//! assert_eq!(replicas.len(), 2, "placed on 2 of the 3 servers");
//!
//! world.client_op(&client, McamOp::Associate { user: "demo".into() });
//! let rsp = world.client_op(&client, McamOp::SelectMovie { title: "Hit".into() });
//! let params = match rsp {
//!     Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
//!     other => panic!("select failed: {other:?}"),
//! };
//! // The stream landed on one of the replicas chosen at publish time.
//! assert!(replicas.contains(&format!("node-{}", params.provider_addr)));
//! ```
//!
//! A replica set follows its demand. Saturate a title's replicas
//! while a cluster member idles, drive the world, and the control
//! plane grows the title onto the idle server — a real, paced copy
//! through the target's write path — then rewrites the directory
//! entry so the very next `SelectMovie` routes to the new copy
//! (tune the cadence with [`RebalanceConfig`] via
//! [`ClusterSpec::rebalance`]; drain a server with
//! [`ClusterHandle::drain`] — see
//! `examples/hot_title_rebalance.rs` for the full grow + drain
//! walkthrough):
//!
//! ```
//! use directory::MovieEntry;
//! use mcam::agents::source_for_entry;
//! use mcam::{ClusterSpec, McamOp, McamPdu, Placement, StackKind, World};
//! use netsim::{LinkConfig, NetAddr, SimDuration};
//! use store::{DiskParams, StoreConfig};
//!
//! // Disks sized so each server sustains two ~0.69 Mbit/s viewers.
//! let tight = StoreConfig {
//!     disks: 1,
//!     disk: DiskParams { transfer_bytes_per_sec: 250_000, ..DiskParams::default() },
//!     ..StoreConfig::default()
//! };
//! let mut world = World::builder(11).stream_link(LinkConfig::perfect(SimDuration::from_millis(2))).store(tight).build();
//! let cluster = world.add_cluster(ClusterSpec::new("vod", 3, StackKind::EstellePS, Placement::round_robin(2)));
//! let client = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
//! world.start();
//! world.client_op(&client, McamOp::Associate { user: "demo".into() });
//!
//! let mut entry = MovieEntry::new("Hot", "pending");
//! entry.frame_count = 200;
//! let replicas = world.publish_replicated(&cluster, &entry);
//! assert_eq!(replicas.len(), 2, "placed on 2 of the 3 servers");
//!
//! // Four viewers saturate both replicas while the third server idles…
//! let source = source_for_entry(&entry);
//! for i in 0..4u32 {
//!     let provider = cluster.peers.get(&replicas[i as usize % 2]).unwrap();
//!     provider.open(source.clone(), NetAddr(900 + i), world.net.now()).unwrap();
//! }
//! // …so the control plane copies "Hot" onto it and updates the
//! // directory; the next viewer is admitted there.
//! world.run_for(SimDuration::from_secs(30));
//! assert!(cluster.rebalance_stats().copies_completed >= 1);
//! let params = match world.client_op(&client, McamOp::SelectMovie { title: "Hot".into() }) {
//!     Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
//!     other => panic!("select failed: {other:?}"),
//! };
//! assert!(!replicas.contains(&format!("node-{}", params.provider_addr)));
//! ```
//!
//! Control load spreads like stream load. Clients added with
//! [`World::add_client`] are cluster-aware: dial every one of them at
//! the same server and the referral protocol fans their control
//! associations out across the cluster — a client referred away keeps
//! working unchanged, caches its new home for the rest of the
//! association, and is re-referred (select replayed and all) if that
//! home later drains ([`World::add_legacy_client`] opts out; see
//! `examples/client_redirect.rs` for the full fan-out + drain-away
//! walkthrough and [`ControlBalancer`] for the policy and its
//! operator pinning):
//!
//! ```
//! use mcam::{ClusterSpec, McamOp, McamPdu, Placement, StackKind, World};
//!
//! let mut world = World::builder(31).build();
//! let cluster = world.add_cluster(ClusterSpec::new("vod", 4, StackKind::EstellePS, Placement::round_robin(2)));
//! // Twelve workstations, all dialing the same server.
//! let clients: Vec<_> = (0..12)
//!     .map(|_| world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]))
//!     .collect();
//! world.start();
//! for (i, c) in clients.iter().enumerate() {
//!     let rsp = world.client_op(c, McamOp::Associate { user: format!("v{i}") });
//!     assert_eq!(rsp, Some(McamPdu::AssociateRsp { accepted: true }));
//! }
//! // Referrals spread the control associations: nobody exceeds
//! // twice the fair share of 3.
//! let counts = cluster.control_connections();
//! assert!(counts.iter().all(|(_, n)| *n <= 6), "{counts:?}");
//! assert!(cluster.referrals_issued() > 0);
//! ```
//!
//! # Stream sharing
//!
//! The interval cache exploits close-spaced viewers of one title;
//! **stream sharing** makes them nearly free. Enable it with
//! [`ShareConfig`] on [`World::share_config`] and each server's
//! merge engine batches viewers into multicast groups: one *leader*
//! per position band is the only stream charged against disk
//! admission, followers joining inside the merge window ride the
//! leader's stream from a pinned cache span at zero admission cost,
//! and stragglers inside the catch-up horizon are briefly *fast-fed*
//! at `catch_up_rate_pct` of nominal (charged only the delta) until
//! they converge onto the group. The lifecycle stays honest on both
//! ends: a leader that closes or seeks away hands its disk stream to
//! the nearest follower (re-charged in full before the leader may
//! go), and a follower seeking out of its group either passes full
//! admission for a stream of its own or keeps its seat and gets a
//! 503. `SelectMovie` routing breaks `available_bps` ties toward
//! replicas already streaming the title, so a flash crowd piles onto
//! the shared group instead of burning a disk stream per replica
//! (see `examples/flash_crowd.rs` for the full lifecycle):
//!
//! ```
//! use directory::MovieEntry;
//! use mcam::{ClusterSpec, McamOp, McamPdu, Placement, ShareConfig, StackKind, World};
//! use netsim::{LinkConfig, SimDuration};
//! use store::{DiskParams, StoreConfig};
//!
//! // A disk that fits two full ~0.69 Mbit/s streams…
//! let tight = StoreConfig {
//!     disks: 1,
//!     disk: DiskParams { transfer_bytes_per_sec: 250_000, ..DiskParams::default() },
//!     ..StoreConfig::default()
//! };
//! let mut world = World::builder(13)
//!     .stream_link(LinkConfig::perfect(SimDuration::from_millis(2)))
//!     .store(tight)
//!     .share(ShareConfig::default())
//!     .build();
//! let cluster = world.add_cluster(ClusterSpec::new("vod", 1, StackKind::EstellePS, Placement::round_robin(1)));
//! let clients: Vec<_> = (0..4)
//!     .map(|_| world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]))
//!     .collect();
//! world.start();
//!
//! let mut entry = MovieEntry::new("Premiere", "pending");
//! entry.frame_count = 250;
//! world.publish_replicated(&cluster, &entry);
//!
//! // …serves four simultaneous viewers of one premiere: the first
//! // leads (and is charged one stream), the rest merge in free.
//! for (i, c) in clients.iter().enumerate() {
//!     world.client_op(c, McamOp::Associate { user: format!("v{i}") });
//!     let rsp = world.client_op(c, McamOp::SelectMovie { title: "Premiere".into() });
//!     assert!(matches!(rsp, Some(McamPdu::SelectMovieRsp { params: Some(_) })));
//! }
//! let server = &cluster.servers[0].services;
//! assert_eq!(server.share.stats().merges, 3, "three followers merged free");
//! assert!(server.store.available_bps() > 0, "headroom for the next premiere remains");
//! ```
//!
//! Recording is a first-class workload, not a directory stunt: a
//! `Record` acquires the camera, passes **write-bandwidth admission
//! control**, captures frames through the striped store's write path
//! (free-block allocation, writes on the same elevator/SCAN disk
//! queues playback reads use), finalizes the directory entry with
//! the measured frame count and bitrate, and replicates the finished
//! movie to K servers — after which any replica streams it back:
//!
//! ```
//! use mcam::{ClusterSpec, McamOp, McamPdu, Placement, StackKind, World};
//! use netsim::SimDuration;
//!
//! let mut world = World::builder(21).build();
//! let cluster = world.add_cluster(ClusterSpec::new("vod", 2, StackKind::EstellePS, Placement::round_robin(2)));
//! let camera = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
//! let viewer = world.add_client(&cluster.servers[1], StackKind::EstellePS, vec![]);
//! world.start();
//!
//! world.client_op(&camera, McamOp::Associate { user: "camera".into() });
//! world.client_op(&viewer, McamOp::Associate { user: "viewer".into() });
//!
//! // Capture 2 seconds of footage: the reply arrives only after the
//! // capture ran on the virtual clock and every block is durable.
//! let rsp = world.client_op(&camera, McamOp::Record { title: "Home".into(), frames: 50 });
//! assert_eq!(rsp, Some(McamPdu::RecordRsp { ok: true }));
//!
//! // The finalized entry is replicated; the viewer streams it back.
//! let params = match world.client_op(&viewer, McamOp::SelectMovie { title: "Home".into() }) {
//!     Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
//!     other => panic!("select failed: {other:?}"),
//! };
//! assert_eq!(params.movie.frame_count, 50, "entry finalized with the captured count");
//! let mut receiver = world.receiver_for(&viewer, &params, SimDuration::from_millis(50));
//! world.client_op(&viewer, McamOp::Play { speed_pct: 100 });
//! world.run_for(SimDuration::from_secs(3));
//! assert_eq!(receiver.poll(world.net.now()).len(), 50, "the recording plays back");
//! ```
//!
//! # Observability
//!
//! Every run keeps a structured, append-only **event journal** on the
//! simulation clock ([`World::journal`], the `journal` crate): stream
//! admissions and rejections with the admission controller's
//! available bandwidth at decision time, `SelectMovie` routing and
//! failover, referrals issued/followed/failed, every rebalance step,
//! and periodic per-server health snapshots (open streams, control
//! associations, available bandwidth, cache hit ratio, disk-queue
//! depths) sampled by the world's driver every 250 ms of simulated
//! time. Events are hash-chained per actor, so
//! the JSONL dump is tamper-evident and a deterministic re-run
//! reproduces it bit for bit (`journal::replay_check`); counters such
//! as [`ClusterHandle::route_decisions`], [`ClusterHandle::failovers`]
//! and [`ClusterHandle::rebalance_stats`] are views over this journal,
//! not separate state. See `examples/journal_tour.rs` for the full
//! walkthrough.
//!
//! ```
//! use mcam::{McamOp, McamPdu, StackKind, World};
//! use netsim::SimDuration;
//!
//! let mut world = World::builder(17).build();
//! let server = world.add_server("ksr1", StackKind::EstellePS);
//! let client = world.add_client(&server, StackKind::EstellePS, vec![]);
//! world.start();
//! world.client_op(&client, McamOp::Associate { user: "demo".into() });
//! world.client_op(&client, McamOp::CreateMovie {
//!     title: "Traced".into(),
//!     format: "XMovie-24".into(),
//!     frame_rate: 25,
//!     frame_count: 25,
//! });
//! world.client_op(&client, McamOp::SelectMovie { title: "Traced".into() });
//! world.client_op(&client, McamOp::Play { speed_pct: 100 });
//! world.run_for(SimDuration::from_secs(1));
//!
//! let journal = world.journal();
//! journal.verify().expect("hash chain intact");
//! assert!(journal.count(journal::kind::STREAM_ADMIT) >= 1);
//! assert!(journal.count(journal::kind::HEALTH_SNAPSHOT) >= 1);
//! // The recorded JSONL round-trips and re-verifies offline.
//! let events = journal::events_from_jsonl(&journal.to_jsonl()).unwrap();
//! journal::verify_events(&events).unwrap();
//! ```
//!
//! # Choosing a backend
//!
//! Everything above runs on `netsim`'s virtual clock: the [`World`]
//! driver mints every control connection from a
//! [`netsim::SimBackend`], so runs are single-threaded,
//! deterministic, and replayable bit for bit — the journal proof
//! depends on it. The other [`netsim::TransportBackend`] is
//! [`netsim::ThreadedBackend`]: the same [`netsim::Medium`]-based
//! entities run unchanged over cross-thread channel conduits, so N
//! server workers really occupy N cores and throughput is measured
//! on the wall clock. The [`wall_clock`] rig drives it with the
//! exact per-frame codec the simulated world uses
//! (`mtp::encode_frame_into`), recycling each connection's frame
//! buffers on the reverse direction so steady state never touches
//! the heap. Use simulated for every correctness question and for
//! committed benchmark numbers; use threaded when the question is
//! real multi-core throughput:
//!
//! ```
//! use mcam::wall_clock::{self, WallClockConfig};
//!
//! // Real threads, real time: 2 workers x 4 streams x 100 frames.
//! let report = wall_clock::run(WallClockConfig {
//!     threads: 2,
//!     streams_per_thread: 4,
//!     frames_per_stream: 100,
//!     frame_size: 8 * 1024,
//! });
//! assert_eq!(report.frames_delivered, 2 * 4 * 100);
//! assert_eq!(report.sequence_errors, 0);
//! assert_eq!(report.steady_state_allocs, 0, "steady state stays off the heap");
//! assert!(report.frames_per_sec() > 0);
//! ```
//!
//! # Degraded mode
//!
//! Hardware dies; the server degrades instead of failing. Two fault
//! injectors exercise this end to end. [`World::fail_disk`] kills one
//! spindle of a striped store mid-flight: capacity shrinks to the
//! survivors' share, streams stall at the lost blocks, and a paced
//! reconstruction — charged through the *same* admission controller
//! playback draws on, so it can never over-commit the survivors —
//! streams every lost block back onto the remaining arms, unblocking
//! stalled viewers as it sweeps:
//!
//! ```
//! use mcam::{McamOp, McamPdu, StackKind, World};
//! use netsim::SimDuration;
//!
//! let mut world = World::builder(41).build();
//! let server = world.add_server("ksr1", StackKind::EstellePS);
//! let client = world.add_client(&server, StackKind::EstellePS, vec![]);
//! world.start();
//! world.client_op(&client, McamOp::Associate { user: "demo".into() });
//! world.client_op(&client, McamOp::CreateMovie {
//!     title: "Fragile".into(),
//!     format: "XMovie-24".into(),
//!     frame_rate: 25,
//!     frame_count: 400,
//! });
//! let params = match world.client_op(&client, McamOp::SelectMovie { title: "Fragile".into() }) {
//!     Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
//!     other => panic!("select failed: {other:?}"),
//! };
//! let mut receiver = world.receiver_for(&client, &params, SimDuration::from_millis(50));
//! world.client_op(&client, McamOp::Play { speed_pct: 100 });
//! world.run_for(SimDuration::from_secs(1));
//!
//! // One spindle dies under the running stream.
//! let (lost, reserve_bps) = world.fail_disk(&server, 0);
//! assert!(lost > 0, "the dead arm held blocks");
//! assert!(reserve_bps > 0, "reconstruction admitted");
//! world.run_for(SimDuration::from_secs(20));
//! assert!(!server.services.store.rebuild_active(), "rebuild completed");
//! assert_eq!(receiver.poll(world.net.now()).len(), 400, "the viewer survived the spindle");
//! let journal = world.journal();
//! journal.verify().expect("hash chain intact across the fault");
//! assert_eq!(journal.count(journal::kind::DISK_FAILED), 1);
//! assert_eq!(journal.count(journal::kind::REBUILD_COMPLETED), 1);
//! ```
//!
//! [`World::crash_server`] kills a whole machine: its streams die,
//! the cluster registry marks the location crashed (routing,
//! placement, referral, and re-dials all skip it), clients homed
//! there get a provider abort — referral-capable ones fail over to a
//! cached candidate and replay their session up to the last played
//! frame (journaled as `StreamFailedOver`) — and the rebalance
//! controller re-replicates the titles the crash left
//! under-replicated:
//!
//! ```
//! use directory::MovieEntry;
//! use mcam::{ClusterSpec, McamOp, McamPdu, Placement, StackKind, World};
//!
//! let mut world = World::builder(43).build();
//! let cluster = world.add_cluster(ClusterSpec::new("vod", 2, StackKind::EstellePS, Placement::round_robin(2)));
//! let client = world.add_client(&cluster.servers[1], StackKind::EstellePS, vec![]);
//! world.start();
//! world.publish_replicated(&cluster, &MovieEntry::new("Durable", "pending"));
//! world.client_op(&client, McamOp::Associate { user: "demo".into() });
//!
//! world.crash_server(&cluster.servers[0]);
//! // The survivor still serves the title; the dead replica is skipped.
//! let params = match world.client_op(&client, McamOp::SelectMovie { title: "Durable".into() }) {
//!     Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
//!     other => panic!("select failed: {other:?}"),
//! };
//! let survivor = cluster.servers[1].services.sps.location();
//! assert_eq!(format!("node-{}", params.provider_addr), survivor);
//! assert_eq!(world.journal().count(journal::kind::SERVER_CRASHED), 1);
//! world.journal().verify().expect("chain intact across the crash");
//! ```

#![warn(missing_docs)]

pub mod agents;
mod app;
mod mca;
mod pdus;
pub mod server;
mod service;
mod sps;
mod stacks;
pub mod wall_clock;
mod world;

pub use agents::{ClusterController, SpsRegistry};
pub use app::{AppMachine, TO_MCA as APP_TO_MCA, TO_ROOT as APP_TO_ROOT};
pub use cluster::{
    ControlBalancer, DrainError, Placement, PlacementStrategy, RebalanceConfig, RebalanceStats,
};
pub use mca::{ClientMca, CONNECTING, CTRL, DOWN, P_RELEASING, READY, UNBOUND, UP, WAITING};
pub use pdus::{McamPdu, MovieDesc, StreamParams};
pub use server::{ServerMca, ServerRoot, ServerServices};
pub use service::{
    AssocSettled, DirOp, DirOutcome, DirRequest, DirResponse, EquipOp, EquipOutcome, EquipRequest,
    EquipResponse, McamCnf, McamOp, McamReq, ReferralSignal, ReferralStale, StartAssociate,
    StreamOp, StreamOutcome, StreamRequest, StreamResponse,
};
pub use share::{ShareConfig, ShareStats};
pub use sps::{RecordedMovie, StreamProviderSystem};
pub use stacks::{
    ClientRoot, ControlDial, ReferralEnd, ReferralFollower, StackKind, ERR_REFERRAL, ROOT_TO_APP,
    ROOT_TO_MCA,
};
pub use world::{ClientHandle, ClusterHandle, ClusterSpec, ServerHandle, World, WorldBuilder};
