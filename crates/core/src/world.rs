//! The experimental world: clients, servers, control pipes, the CM
//! datagram network, and the co-simulation driver — Fig. 2 in code.

use crate::agents::{source_for_entry, ClusterController, SpsRegistry};
use crate::app::AppMachine;
use crate::mca::DOWN as MCA_DOWN;
use crate::pdus::{McamPdu, StreamParams};
use crate::server::{ServerRoot, ServerServices};
use crate::service::McamOp;
use crate::sps::StreamProviderSystem;
use crate::stacks::{ClientRoot, ControlDial, StackKind};
use cluster::{ControlBalancer, DrainError, Placement, RebalanceConfig, RebalanceStats};
use directory::{attr, Dn, Dsa, Dua, MovieEntry, Rdn};
use equipment::{Eca, EquipmentClass};
use estelle::sched::{run_sequential, FirePolicy, SeqOptions};
use estelle::{ip, Dispatch, ModuleId, ModuleKind, ModuleLabels, Readiness, Runtime};
use journal::{EventKind, Journal};
use mtp::MtpReceiver;
use netsim::{
    DatagramNet, DatagramSocket, LinkConfig, Medium, NetAddr, Network, PipeMedium, SimBackend,
    SimDuration, SimTime, TransportBackend,
};
use presentation::service::PAbortInd;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use store::{BlockStore, StoreConfig, StoreStats};

/// The world's [`ControlDial`] implementation: opens a fresh control
/// pipe towards a server named by location. The pipe's client end is
/// returned immediately; its server end is queued here and handed to
/// the server's root module by the world's driver loop (a transition
/// must not reach back into the runtime it is executing on).
struct WorldDialer {
    backend: SimBackend,
    /// location → (server root, the registry that knows whether the
    /// location is still live).
    targets: RefCell<HashMap<String, (ModuleId, Arc<SpsRegistry>)>>,
    /// Server-side media awaiting hand-off.
    pending: RefCell<Vec<PendingDial>>,
}

/// A dialed control pipe's server end, waiting for the world's driver
/// to hand it to its server root: (root, medium, connection index).
type PendingDial = (ModuleId, Box<dyn Medium>, u16);

/// The scheduler options of the world's driver: the defaults, except
/// that the driver itself advances the clock between passes.
const DRIVER_OPTIONS: SeqOptions = SeqOptions {
    dispatch: Dispatch::TableDriven,
    fire_policy: FirePolicy::Pass,
    max_firings: None,
    advance_time: false,
};

impl WorldDialer {
    fn new(backend: SimBackend) -> Self {
        WorldDialer {
            backend,
            targets: RefCell::default(),
            pending: RefCell::default(),
        }
    }

    fn register(&self, location: String, root: ModuleId, peers: Arc<SpsRegistry>) {
        self.targets.borrow_mut().insert(location, (root, peers));
    }

    fn take_pending(&self) -> Vec<(ModuleId, Box<dyn Medium>, u16)> {
        self.pending.take()
    }
}

impl ControlDial for WorldDialer {
    fn dial(&self, location: &str, conn: u16) -> Option<Box<dyn Medium>> {
        let (root, peers) = {
            let targets = self.targets.borrow();
            let (root, peers) = targets.get(location)?;
            (*root, Arc::clone(peers))
        };
        // Decommissioned servers leave the registry; draining and
        // crashed ones must not gain control associations either. All
        // look dead to the dialer, which makes the client fall back
        // across the referral's candidate list.
        if !peers.in_service(location) {
            return None;
        }
        let (client_medium, server_medium) = self.backend.connect();
        self.pending.borrow_mut().push((root, server_medium, conn));
        Some(client_medium)
    }
}

/// A server machine in the world.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    /// The server root module.
    pub root: ModuleId,
    /// The shared services of this server machine.
    pub services: ServerServices,
}

/// A group of server machines sharing one movie directory, one
/// replica registry, and one control plane: movies published through
/// [`World::publish_replicated`] land on K of them, any member routes
/// `SelectMovie` to the least-loaded replica, and the
/// [`cluster::RebalanceController`] grows hot titles onto idle members,
/// shrinks them back, and drains members out of service.
pub struct ClusterHandle {
    /// Cluster name (servers are `"<name>-<i>"`).
    pub name: String,
    /// The member servers.
    pub servers: Vec<ServerHandle>,
    /// The shared location → stream-provider registry.
    pub peers: Arc<SpsRegistry>,
    /// The cluster's control plane (ticked by the world's driver on
    /// the netsim clock).
    pub rebalancer: Arc<ClusterController>,
    /// The cluster's control-association balancer: accounts every
    /// member's live control associations and decides referrals
    /// (inspect it with [`ClusterHandle::control_connections`], steer
    /// it with [`cluster::ControlBalancer::pin`]).
    pub control: Arc<ControlBalancer>,
    /// The world's event journal (shared across clusters): every
    /// admission, routing, referral, and rebalance decision involving
    /// this cluster is chained here.
    pub journal: Arc<Journal>,
}

impl std::fmt::Debug for ClusterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterHandle")
            .field("name", &self.name)
            .field("servers", &self.servers.len())
            .finish_non_exhaustive()
    }
}

impl ClusterHandle {
    /// Per-server storage statistics, as `(location, stats)` pairs in
    /// member order.
    pub fn store_stats(&self) -> Vec<(String, StoreStats)> {
        self.servers
            .iter()
            .map(|s| (s.services.sps.location(), s.services.store.stats()))
            .collect()
    }

    /// Streams currently open across all members.
    pub fn total_streams(&self) -> usize {
        self.servers
            .iter()
            .map(|s| s.services.sps.stream_count())
            .sum()
    }

    /// Cluster-wide committed and capacity bandwidth, bits/second.
    pub fn bandwidth(&self) -> (u64, u64) {
        self.servers.iter().fold((0, 0), |(c, t), s| {
            let stats = s.services.store.stats();
            (c + stats.committed_bps, t + stats.capacity_bps)
        })
    }

    /// Live control associations per member, sorted by location — the
    /// control-plane counterpart of [`ClusterHandle::store_stats`].
    pub fn control_connections(&self) -> Vec<(String, usize)> {
        self.control.snapshot()
    }

    /// Recording sessions in progress across all members.
    pub fn recordings(&self) -> usize {
        self.servers
            .iter()
            .map(|s| s.services.sps.recording_count())
            .sum()
    }

    /// Cluster-wide recorded-frame and recorded-block counters, as
    /// `(frames_recorded, blocks_recorded)`.
    pub fn recorded_totals(&self) -> (u64, u64) {
        self.servers.iter().fold((0, 0), |(f, b), s| {
            let stats = s.services.store.stats();
            (f + stats.frames_recorded, b + stats.blocks_recorded)
        })
    }

    /// Control-plane counters: samples taken, copies started /
    /// completed / aborted, shrinks, drains, directory rewrites.
    /// Derived from the world's event journal — the full step-by-step
    /// trail is in [`ClusterHandle::journal`] under the
    /// `rebalance-<name>` chain.
    pub fn rebalance_stats(&self) -> RebalanceStats {
        self.rebalancer.stats()
    }

    /// `SelectMovie` routing decisions taken across all members
    /// (journal-derived; one per successful directory lookup).
    pub fn route_decisions(&self) -> u64 {
        self.count_for_members(journal::kind::ROUTE_DECISION)
    }

    /// `SelectMovie` opens that fell over to another replica after an
    /// admission rejection, across all members (journal-derived).
    pub fn failovers(&self) -> u64 {
        self.count_for_members(journal::kind::FAILOVER)
    }

    /// Control associations (and draining members' selects) referred
    /// to another member, across all members (journal-derived).
    pub fn referrals_issued(&self) -> u64 {
        self.count_for_members(journal::kind::REFERRAL_ISSUED)
    }

    /// Journal events of kind `tag` recorded by the member servers.
    fn count_for_members(&self, tag: &str) -> u64 {
        self.servers
            .iter()
            .map(|s| self.journal.count_for(&s.services.sps.location(), tag))
            .sum()
    }

    /// Starts draining the member at `location`: sole-copy titles are
    /// migrated off, new `SelectMovie`s route elsewhere, and the
    /// server is decommissioned once its last stream closes (drive
    /// the world — e.g. [`World::run_for`] — to let it progress;
    /// completion is visible via
    /// [`cluster::RebalanceController::drain_complete`]).
    ///
    /// # Errors
    ///
    /// See [`cluster::RebalanceController::drain`] — notably, draining the
    /// last holder of a title is refused.
    pub fn drain(&self, location: &str) -> Result<(), DrainError> {
        self.rebalancer.drain(location)
    }
}

/// A client workstation in the world.
#[derive(Debug, Clone)]
pub struct ClientHandle {
    /// The client root module.
    pub root: ModuleId,
    /// The client's datagram address for CM streams.
    pub addr: NetAddr,
    /// The client's stream socket (clone to build receivers).
    pub socket: DatagramSocket,
    /// Connection index.
    pub conn: u16,
    /// Network endpoints of the control pipe (client side, server
    /// side) for traffic measurements.
    pub ctrl_endpoints: (netsim::EndpointId, netsim::EndpointId),
}

/// The complete experimental environment.
pub struct World {
    /// The discrete-event network core.
    pub net: Arc<Network>,
    /// The CM datagram service (UDP/FDDI substitute).
    pub dg: Arc<DatagramNet>,
    /// The Estelle runtime hosting all control modules.
    pub rt: Runtime,
    /// The transport backend minting control-pipe conduits (the
    /// simulated, deterministic one — the world's Estelle driver runs
    /// on the virtual clock; see `wall_clock` for the threaded rig).
    backend: SimBackend,
    /// Storage configuration applied to every server (disk count,
    /// block size, cache size/policy), set through
    /// [`WorldBuilder::store`].
    store_config: StoreConfig,
    /// Stream-sharing configuration applied to every server added
    /// after this point. Off by default: every viewer charges a full
    /// disk stream, exactly the pre-sharing behaviour. Set it through
    /// [`WorldBuilder::share`] to batch flash crowds into
    /// leader/follower merge groups.
    share_config: share::ShareConfig,
    /// Referral hop budget handed to cluster-aware clients (the
    /// bounded hop count of the redirect protocol).
    pub referral_max_hops: u32,
    /// Every server machine, in the order it was added: the driver
    /// pumps their stream providers and the health sampler reports
    /// them in this order.
    servers: Vec<ServerHandle>,
    /// Every client root added so far ([`World::crash_server`] aborts
    /// the control association of clients homed on the dead machine).
    clients: Vec<ModuleId>,
    /// Every cluster's control plane, ticked by the driver loop.
    rebalancers: Vec<Arc<ClusterController>>,
    /// Opens referral-target control pipes for cluster-aware clients.
    dialer: Rc<WorldDialer>,
    next_addr: u32,
    next_conn: u16,
    /// The world's event journal, stamped from the network clock.
    journal: Arc<Journal>,
    /// Next health-snapshot deadline (armed on first driver activity).
    next_health: Cell<Option<SimTime>>,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("servers", &self.servers.len())
            .field("next_conn", &self.next_conn)
            .finish_non_exhaustive()
    }
}

/// Fluent constructor for [`World`]: every construction knob —
/// network link, storage, stream sharing — set in one chain, then
/// [`WorldBuilder::build`].
///
/// ```
/// use mcam::World;
/// use store::StoreConfig;
///
/// let world = World::builder(7)
///     .store(StoreConfig { disks: 8, ..StoreConfig::default() })
///     .share(share::ShareConfig::default())
///     .build();
/// # drop(world);
/// ```
#[derive(Debug, Clone)]
pub struct WorldBuilder {
    seed: u64,
    stream_link: LinkConfig,
    store: StoreConfig,
    share: share::ShareConfig,
}

impl WorldBuilder {
    fn new(seed: u64) -> Self {
        WorldBuilder {
            seed,
            // A mildly jittery, lossless CM network.
            stream_link: LinkConfig::lossy(
                SimDuration::from_millis(2),
                SimDuration::from_micros(500),
                0.0,
            ),
            store: StoreConfig::default(),
            share: share::ShareConfig::off(),
        }
    }

    /// Replaces the CM network's link model (delay, jitter, loss).
    pub fn stream_link(mut self, link: LinkConfig) -> Self {
        self.stream_link = link;
        self
    }

    /// Storage knobs applied to every server's block store.
    pub fn store(mut self, config: StoreConfig) -> Self {
        self.store = config;
        self
    }

    /// Stream-sharing knobs applied to every server's merge engine
    /// (off by default: every viewer charges a full disk stream).
    pub fn share(mut self, config: share::ShareConfig) -> Self {
        self.share = config;
        self
    }

    /// Builds the world. Servers and clients are added afterwards
    /// ([`World::add_server`], [`World::add_cluster`],
    /// [`World::add_client`]).
    pub fn build(self) -> World {
        let net = Arc::new(Network::new(self.seed));
        let dg = DatagramNet::new(&net, self.stream_link, self.seed.wrapping_add(17));
        let rt = Runtime::with_virtual_clock(net.clock());
        // Control pipes have a one-way delay of 1 ms.
        let backend = SimBackend::new(&net, SimDuration::from_millis(1));
        let dialer = Rc::new(WorldDialer::new(backend.clone()));
        let journal = Arc::new(Journal::new(net.clock()));
        World {
            journal,
            net,
            dg,
            rt,
            backend,
            store_config: self.store,
            share_config: self.share,
            referral_max_hops: 4,
            servers: Vec::new(),
            clients: Vec::new(),
            rebalancers: Vec::new(),
            dialer,
            next_addr: 1,
            next_conn: 0,
            next_health: Cell::new(None),
        }
    }
}

/// One cluster's shape, passed to [`World::add_cluster`]: member
/// count, protocol stack, replica placement, and (optionally)
/// control-plane tuning.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    name: String,
    servers: usize,
    stack: StackKind,
    placement: Placement,
    rebalance: RebalanceConfig,
}

impl ClusterSpec {
    /// A cluster of `servers` members named `name-0..`, speaking
    /// `stack`, placing replicas per `placement`, with the default
    /// control plane.
    pub fn new(
        name: impl Into<String>,
        servers: usize,
        stack: StackKind,
        placement: Placement,
    ) -> Self {
        ClusterSpec {
            name: name.into(),
            servers,
            stack,
            placement,
            rebalance: RebalanceConfig::default(),
        }
    }

    /// Explicit control-plane tuning (sampling interval, copy speed,
    /// concurrency).
    pub fn rebalance(mut self, config: RebalanceConfig) -> Self {
        self.rebalance = config;
        self
    }
}

impl World {
    /// Starts a fluent [`WorldBuilder`] — the one construction entry
    /// point; seed fixed up front so every build is deterministic.
    pub fn builder(seed: u64) -> WorldBuilder {
        WorldBuilder::new(seed)
    }

    /// The stream-sharing configuration servers are built with (set
    /// through [`WorldBuilder::share`]).
    pub fn share_config(&self) -> &share::ShareConfig {
        &self.share_config
    }

    /// The world's event journal: every admission decision, route,
    /// failover, referral, rebalance step, and health snapshot, hash-
    /// chained per server. Serialize it with [`Journal::to_jsonl`],
    /// check it with [`Journal::verify`].
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    fn alloc_addr(&mut self) -> NetAddr {
        let a = NetAddr(self.next_addr);
        self.next_addr += 1;
        a
    }

    /// Adds a server machine: movie directory DSA, equipment site,
    /// stream provider, and the server root module. The server is its
    /// own one-member "cluster" (its registry holds only itself, its
    /// control plane has nowhere to migrate to).
    pub fn add_server(&mut self, name: &str, stack: StackKind) -> ServerHandle {
        // A standalone server replicates recordings only to itself.
        let placement = Placement::round_robin(1);
        let members = vec![name.to_string()];
        let rebalance = RebalanceConfig::default();
        let cluster = self.build_cluster(name, members, stack, placement, rebalance);
        cluster.servers.into_iter().next().expect("one member")
    }

    /// Adds the server machines of one [`ClusterSpec`]: the members
    /// share one movie directory, one replica registry, and one
    /// control plane. Movies published with
    /// [`World::publish_replicated`] are placed on `placement.k()`
    /// of them; `SelectMovie` through any member routes the stream to
    /// the replica with the most uncommitted disk bandwidth, and the
    /// control plane rebalances replica sets as load shifts.
    pub fn add_cluster(&mut self, spec: ClusterSpec) -> ClusterHandle {
        let ClusterSpec {
            name,
            servers: count,
            stack,
            placement,
            rebalance,
        } = spec;
        let members = (0..count.max(1)).map(|i| format!("{name}-{i}")).collect();
        self.build_cluster(&name, members, stack, placement, rebalance)
    }

    /// The one construction path for servers: the cluster `name`'s
    /// DSA and base entry, replica registry, control plane with its
    /// directory sink, and control balancer, then one server per
    /// entry of `members`.
    fn build_cluster(
        &mut self,
        name: &str,
        members: Vec<String>,
        stack: StackKind,
        placement: Placement,
        rebalance: RebalanceConfig,
    ) -> ClusterHandle {
        let dsa = Dsa::new(format!("dsa-{name}"));
        let base: Dn = "o=movies".parse().expect("static DN");
        // The subtree root entry.
        dsa.add(base.clone(), directory::Attrs::new())
            .expect("fresh DSA");
        let peers = Arc::new(SpsRegistry::new());
        // Completed migrations rewrite the entry's replica list (and
        // its primary location) through this sink, so the very next
        // `SelectMovie` lookup routes to the new copy. A title whose
        // entry does not exist yet (a recording that has not
        // finalized) reports failure and is retried on a later tick.
        // A one-member cluster never changes a replica list (nowhere to
        // copy to, nothing to shrink, drain refuses a last holder).
        let sink_dua = Dua::new(&dsa);
        let sink_base = base.clone();
        let sink = Box::new(move |title: &str, replicas: &[String]| -> bool {
            let dn = sink_base.child(Rdn::new("cn", title));
            let mut puts = vec![directory::ModOp::Put(
                attr::REPLICAS.into(),
                MovieEntry::replicas_value(replicas),
            )];
            if let Some(primary) = replicas.first() {
                puts.push(directory::ModOp::Put(
                    attr::LOCATION.into(),
                    asn1::Value::Str(primary.clone()),
                ));
            }
            sink_dua.modify(&dn, &puts).is_ok()
        });
        let rebalancer = Arc::new(
            ClusterController::new(Arc::clone(&peers), placement, rebalance)
                .with_sink(sink)
                .with_journal(Arc::clone(&self.journal), format!("rebalance-{name}")),
        );
        self.rebalancers.push(Arc::clone(&rebalancer));
        let control = Arc::new(ControlBalancer::new());
        let mut servers = Vec::with_capacity(members.len());
        for member in members {
            let dua = Dua::new(&dsa);
            let eca = Eca::new(format!("site-{member}"));
            eca.register(EquipmentClass::Camera, "cam-0");
            eca.register(EquipmentClass::Microphone, "mic-0");
            eca.register(EquipmentClass::Speaker, "spk-0");
            eca.register(EquipmentClass::Display, "dsp-0");
            let sps_addr = self.alloc_addr();
            let store = BlockStore::new(self.store_config);
            let share = Arc::new(share::ShareManager::new(self.share_config));
            let sps = StreamProviderSystem::with_shared_store(
                &self.dg,
                sps_addr,
                Arc::clone(&store),
                Arc::clone(&share),
            );
            peers.register(sps.location(), Arc::clone(&sps));
            store.attach_journal(Arc::clone(&self.journal), sps.location());
            share.attach_journal(Arc::clone(&self.journal), sps.location());
            let services = ServerServices {
                dua,
                base: base.clone(),
                sps,
                store,
                share,
                peers: Arc::clone(&peers),
                rebalancer: Arc::clone(&rebalancer),
                control: Arc::clone(&control),
                reaper: Rc::default(),
                eca,
                journal: Arc::clone(&self.journal),
            };
            let root = self
                .rt
                .add_module(
                    None,
                    format!("server-{member}"),
                    ModuleKind::SystemProcess,
                    ModuleLabels::default(),
                    ServerRoot::new(services.clone(), stack),
                )
                .expect("world builds before start");
            self.dialer
                .register(services.sps.location(), root, Arc::clone(&peers));
            let server = ServerHandle { root, services };
            self.servers.push(server.clone());
            servers.push(server);
        }
        ClusterHandle {
            name: name.to_string(),
            servers,
            peers,
            rebalancer,
            control,
            journal: Arc::clone(&self.journal),
        }
    }

    /// Publishes `entry` into the cluster's shared directory, placed
    /// on K replica servers by the cluster's control plane (the
    /// entry's own location/replica fields are overwritten with the
    /// placement decision, and the title is tracked for later
    /// rebalancing). Returns the chosen replica locations.
    pub fn publish_replicated(&self, cluster: &ClusterHandle, entry: &MovieEntry) -> Vec<String> {
        let source = source_for_entry(entry);
        let replicas = cluster.rebalancer.place_title(&entry.title, &source);
        let mut entry = entry.clone();
        entry.set_replicas(replicas.clone());
        let lead = &cluster.servers[0];
        self.seed_movie(lead, &entry);
        replicas
    }

    /// Enables dynamic client generation (the ref \[2\] Estelle
    /// enhancement): [`World::add_client`] may then be called *after*
    /// [`World::start`], lifting the paper's §4.1 restriction that
    /// "the number of clients is fixed". The new client's modules are
    /// initialized immediately and join the next scheduling pass.
    pub fn enable_dynamic_clients(&self) {
        self.rt.enable_dynamic_systems();
    }

    /// Adds a cluster-aware client workstation connected to `server`
    /// by a control pipe, running `script` (first op must be
    /// `Associate` — or push operations later with [`World::push_op`]).
    /// The client advertises referral support: an overloaded or
    /// draining server may redirect its control association to
    /// another cluster member, which the client follows transparently
    /// (bounded by [`World::referral_max_hops`]). Use
    /// [`World::add_legacy_client`] for a pre-referral client.
    ///
    /// # Panics
    ///
    /// Panics if called after [`World::start`] without
    /// [`World::enable_dynamic_clients`] (base Estelle fixes the
    /// system-module population at start).
    pub fn add_client(
        &mut self,
        server: &ServerHandle,
        stack: StackKind,
        script: Vec<McamOp>,
    ) -> ClientHandle {
        self.build_client(server, stack, script, true)
    }

    /// Adds a client speaking the pre-referral protocol: it never
    /// advertises referral support, so every server keeps serving it
    /// locally — the back-compatibility contract of the referral
    /// extension.
    ///
    /// # Panics
    ///
    /// See [`World::add_client`].
    pub fn add_legacy_client(
        &mut self,
        server: &ServerHandle,
        stack: StackKind,
        script: Vec<McamOp>,
    ) -> ClientHandle {
        self.build_client(server, stack, script, false)
    }

    fn build_client(
        &mut self,
        server: &ServerHandle,
        stack: StackKind,
        script: Vec<McamOp>,
        cluster_aware: bool,
    ) -> ClientHandle {
        let conn = self.next_conn;
        self.next_conn += 1;
        let addr = self.alloc_addr();
        let socket = self.dg.bind(addr).expect("fresh client address");
        let (client_end, server_end) = self.backend.connect_pipe();
        let ctrl_endpoints = (client_end.endpoint(), server_end.endpoint());
        let server_medium: Box<dyn Medium> = Box::new(PipeMedium::new(server_end));
        // Hand the server side of the connection to the server root;
        // it will spawn a server entity for it (its "CONNECT request").
        self.rt
            .with_machine_mut::<ServerRoot, _>(server.root, |r| {
                r.pending_media.push((server_medium, conn));
            })
            .expect("server root exists");
        let app = AppMachine::with_script(script);
        let mut client_root = ClientRoot::new(
            Box::new(PipeMedium::new(client_end)),
            stack,
            conn,
            addr.0,
            app,
            Arc::clone(&self.journal),
        );
        client_root.control_location = server.services.sps.location();
        if cluster_aware {
            client_root = client_root.with_referrals(
                Rc::clone(&self.dialer) as Rc<dyn crate::stacks::ControlDial>,
                server.services.sps.location(),
                self.referral_max_hops,
            );
        }
        let root = self
            .rt
            .add_module(
                None,
                format!("client-{conn}"),
                ModuleKind::SystemProcess,
                ModuleLabels::conn(conn),
                client_root,
            )
            .expect("before start, or with dynamic clients enabled (ref [2])");
        self.clients.push(root);
        ClientHandle {
            root,
            addr,
            socket,
            conn,
            ctrl_endpoints,
        }
    }

    /// Pre-loads a movie into a server's directory (bypassing the
    /// protocol; use `McamOp::CreateMovie` to exercise the wire path).
    pub fn seed_movie(&self, server: &ServerHandle, entry: &MovieEntry) {
        let dn = server
            .services
            .base
            .child(directory::Rdn::new("cn", entry.title.clone()));
        server
            .services
            .dua
            .add(dn, entry.to_attrs())
            .expect("seeding a fresh title");
    }

    /// Freezes the system-module population and runs all `initialize`
    /// blocks.
    pub fn start(&self) {
        self.rt.start().expect("valid specification");
    }

    /// Drives control plane, stream providers, and network until
    /// everything is idle or simulated time passes `limit`.
    pub fn run_until_quiet(&self, limit: SimTime) {
        self.drive(limit, |_| false);
    }

    /// The driver loop behind [`World::run_until_quiet`] and
    /// [`World::client_op`]: runs until idle, past `limit`, or until
    /// `done` returns true (checked between scheduler passes). In the
    /// debug profile every return checks that no module was left with
    /// an enabled transition and nobody to wake it.
    fn drive(&self, limit: SimTime, done: impl FnMut(&Self) -> bool) {
        self.drive_loop(limit, done);
        #[cfg(debug_assertions)]
        self.assert_no_missed_wakeup();
    }

    /// Panics with the runtime's report if a module has an enabled
    /// transition the schedulers will never look at — a guard changed
    /// and its owner did not call the module's waker.
    fn assert_no_missed_wakeup(&self) {
        let violations = self.rt.ready_index_violations();
        assert!(
            violations.is_empty(),
            "the driver returned with the ready index out of step:\n{}",
            violations.join("\n")
        );
    }

    /// What is spinning when the driver does not quiesce: every module
    /// with an enabled transition, and the transition.
    fn enabled_report(&self) -> String {
        let mut lines = Vec::new();
        for id in self.rt.alive_modules() {
            let Some(transition) = self.rt.enabled_transition(id, DRIVER_OPTIONS.dispatch) else {
                continue;
            };
            let name = self.rt.module_meta(id).map_or_else(String::new, |m| m.name);
            let kind = self.rt.module_type(id).unwrap_or("?");
            lines.push(format!("{name} ({kind}) has {transition} enabled"));
        }
        if lines.is_empty() {
            return "no module has an enabled transition: the network, a stream \
                    provider or a controller keeps reporting work"
                .into();
        }
        lines.join("\n")
    }

    /// One iteration per network event or deadline: run the
    /// schedulers, tick the controllers, pump every stream provider,
    /// then step to the earliest next event. Every provider is offered
    /// a pump on every iteration, but a clean one with nothing due in
    /// its deadline index returns at once
    /// ([`StreamProviderSystem::pump`]); one that did any work stays
    /// dirty, so the next iteration pumps it again (at the same instant
    /// if nothing else is due) to issue the prefetch reads its new
    /// positions call for. A pump that runs polls only the streams the
    /// index names (due, waiting on storage, or touched by an operation
    /// since), not every stream, and a provider's `next_due` is the
    /// index's earliest deadline, its store's next event and the live
    /// deadline of each touched stream; it never walks the streams.
    fn drive_loop(&self, limit: SimTime, mut done: impl FnMut(&Self) -> bool) {
        let mut guard = 0u32;
        loop {
            guard += 1;
            if guard > 2_000_000 {
                panic!(
                    "driver did not quiesce within 2 000 000 iterations (sim time {}); \
                     still spinning:\n{}",
                    self.net.now(),
                    self.enabled_report()
                );
            }
            // Referral re-dials: hand queued server-side media to
            // their server roots (a client transition cannot reach
            // back into the runtime, so the dialer parks them here).
            for (server_root, medium, conn) in self.dialer.take_pending() {
                let _ = self.rt.with_machine_mut::<ServerRoot, _>(server_root, |r| {
                    r.pending_media.push((medium, conn));
                });
            }
            run_sequential(&self.rt, &DRIVER_OPTIONS);
            if done(self) {
                break;
            }
            let now = self.net.now();
            // Control-plane pass: poll migrations, advance drains,
            // sample loads at the configured interval. Ticking before
            // the wake-up computation guarantees every controller
            // deadline it reports lies strictly in the future.
            for rebalancer in &self.rebalancers {
                rebalancer.tick(now);
            }
            self.sample_health(now);
            let mut sent = 0;
            for server in &self.servers {
                sent += server.services.sps.pump(now);
            }
            if sent > 0 {
                continue;
            }
            let next_delay = match self.rt.readiness(DRIVER_OPTIONS.dispatch) {
                Readiness::Enabled => continue,
                Readiness::IdleUntil(deadline) => deadline,
            };
            let next_net = self.net.next_event_at();
            let next_due = self
                .servers
                .iter()
                .filter_map(|s| s.services.sps.next_due())
                .min();
            let next_tick = self
                .rebalancers
                .iter()
                .filter_map(|r| r.next_tick_at())
                .min();
            let candidates = [next_net, next_delay, next_due, next_tick];
            let mut next = candidates.into_iter().flatten().min();
            // Health sampling piggybacks on real activity: the
            // snapshot deadline may pull an already-scheduled wake-up
            // earlier, but never keeps an otherwise idle world alive
            // (a quiet cluster's snapshots would carry no news).
            if let (Some(base), Some(health)) = (next, self.next_health.get()) {
                if health < base {
                    next = Some(health);
                }
            }
            match next {
                Some(t) if t <= limit => {
                    if next_net.is_some_and(|n| n <= t) {
                        self.net.step();
                    } else {
                        self.rt.advance_clock_to(t);
                    }
                }
                _ => break,
            }
        }
    }

    /// Emits one round of per-server health events when the snapshot
    /// deadline has passed: per-disk queue depths, a cache hit/miss
    /// summary, and the [`EventKind::HealthSnapshot`] roll-up. The
    /// first driver pass arms the deadline without emitting (a world
    /// that has not run yet has no health to report).
    fn sample_health(&self, now: SimTime) {
        /// How often every server's health is snapshotted into the
        /// journal while the world is active.
        const HEALTH_INTERVAL: SimDuration = SimDuration::from_millis(250);
        match self.next_health.get() {
            None => {
                self.next_health.set(Some(now + HEALTH_INTERVAL));
                return;
            }
            Some(due) if now >= due => self.next_health.set(Some(now + HEALTH_INTERVAL)),
            Some(_) => return,
        }
        for ServerServices {
            sps,
            store,
            control,
            ..
        } in self.servers.iter().map(|s| &s.services)
        {
            let location = sps.location();
            let stats = store.stats();
            let depths = store.disk_queue_depths();
            for (disk, depth) in depths.iter().enumerate() {
                self.journal.record(
                    &location,
                    EventKind::DiskQueueSample {
                        disk: disk as u32,
                        depth: *depth,
                    },
                );
            }
            self.journal.record(
                &location,
                EventKind::CacheSummary {
                    hits: stats.cache.hits,
                    misses: stats.cache.misses,
                },
            );
            self.journal.record(
                &location,
                EventKind::HealthSnapshot {
                    streams: sps.stream_count() as u32,
                    control_assocs: control.connections(&location) as u32,
                    available_bps: store.available_bps(),
                    cache_hit_permille: (stats.service_hit_ratio() * 1000.0) as u32,
                    queue_depth_max: depths.iter().copied().max().unwrap_or(0),
                },
            );
        }
    }

    /// Lets simulated time progress by `d` (streams keep flowing, the
    /// control plane keeps sampling).
    pub fn run_for(&self, d: SimDuration) {
        let limit = self.net.now() + d;
        self.run_until_quiet(limit);
        self.rt.advance_clock_to(limit);
        // A quiet world still reaches the boundary instant: give the
        // control plane its sample there so saturation that built up
        // during the interval is acted on.
        for rebalancer in &self.rebalancers {
            rebalancer.tick(limit);
        }
    }

    /// Fails one spindle of `server`'s striped store mid-flight and
    /// starts the paced reconstruction of every block lost with it:
    /// capacity shrinks to the survivors' share, in-flight reads on
    /// the dead arm are unwound (their streams stall at the lost
    /// block and resume as the rebuild sweeps past it), and the
    /// rebuild reserves half the remaining uncommitted bandwidth —
    /// charged through the same admission controller playback draws
    /// on, so reconstruction never over-commits the survivors.
    ///
    /// Returns `(lost_blocks, rebuild_reserve_bps)`. A reserve of 0
    /// means the store was fully committed and no rebuild could be
    /// admitted (retry [`store::BlockStore::begin_rebuild`] after
    /// viewers release bandwidth). Drive the world (e.g.
    /// [`World::run_for`]) to let the rebuild progress; completion is
    /// visible via [`store::BlockStore::rebuild_active`] and the
    /// journal's `RebuildCompleted` event.
    pub fn fail_disk(&self, server: &ServerHandle, disk: usize) -> (u64, u64) {
        let now = self.net.now();
        let store = &server.services.store;
        let lost = store.fail_disk(disk, now);
        // The dead arm's in-flight reads were unwound: the provider's
        // stalls and prefetch changed under it without a store event.
        // `mark_dirty` touches every stream, so the next pump runs,
        // polls and re-files all of them.
        server.services.sps.mark_dirty();
        if lost == 0 {
            return (0, 0);
        }
        let reserve = (store.available_bps() / 2).max(1);
        match store.begin_rebuild(reserve, now) {
            Ok(_) => (lost, reserve),
            Err(_) => (lost, 0),
        }
    }

    /// Crashes `server` mid-stream: every open stream and recording
    /// dies with the machine, the cluster registry marks the location
    /// crashed (routing, placement, referral, and the world's dialer
    /// all skip it until it re-registers), and every client whose
    /// control association was homed there receives a provider abort.
    /// Referral-capable clients fail over to a cached candidate and
    /// replay their session (select, seek to the last played frame,
    /// play) — journaled as `StreamFailedOver`; legacy clients see
    /// `ErrorRsp 999`. The cluster's rebalance controller notices the
    /// under-replicated titles on its next sample tick and
    /// re-replicates them onto survivors.
    ///
    /// Returns the number of streams and recordings killed.
    pub fn crash_server(&self, server: &ServerHandle) -> usize {
        let location = server.services.sps.location();
        server.services.peers.set_crashed(&location, true);
        let killed = server.services.sps.crash();
        self.journal.record(
            &location,
            EventKind::ServerCrashed {
                location: location.clone(),
            },
        );
        // Clients homed on the dead machine learn of it the way a real
        // stack would: a P-ABORT indication surfacing from below.
        for &client_root in &self.clients {
            let mca = self
                .rt
                .with_machine::<ClientRoot, _>(client_root, |r| {
                    if r.control_location == location {
                        r.mca
                    } else {
                        None
                    }
                })
                .flatten();
            if let Some(mca) = mca {
                let _ = self
                    .rt
                    .inject(ip(mca, MCA_DOWN), Box::new(PAbortInd { reason: 0 }));
            }
        }
        killed
    }

    fn app_of(&self, client: &ClientHandle) -> ModuleId {
        self.rt
            .with_machine::<ClientRoot, _>(client.root, |r| r.app)
            .flatten()
            .expect("client root has an app after start")
    }

    /// Pushes an operation into a client's application queue without
    /// waiting.
    pub fn push_op(&self, client: &ClientHandle, op: McamOp) {
        let app = self.app_of(client);
        self.rt
            .with_machine_mut::<AppMachine, _>(app, |a| a.queued.push_back(op))
            .expect("app module exists");
    }

    /// The location currently carrying a client's control
    /// association: the server it was attached to, or wherever the
    /// last referral re-homed it.
    pub fn client_control_location(&self, client: &ClientHandle) -> String {
        self.rt
            .with_machine::<ClientRoot, _>(client.root, |r| r.control_location.clone())
            .expect("client root exists")
    }

    /// Referral statistics of one client, as `(followed, failed)`:
    /// referrals and crash failovers that re-homed it, and referral
    /// chains that ended without a new home (journal-derived, from the
    /// `client-<conn>` chain).
    pub fn client_referrals(&self, client: &ClientHandle) -> (u64, u64) {
        let actor = format!("client-{}", client.conn);
        let count = |tag| self.journal.count_for(&actor, tag);
        (
            count(journal::kind::REFERRAL_FOLLOWED) + count(journal::kind::STREAM_FAILED_OVER),
            count(journal::kind::REFERRAL_FAILED),
        )
    }

    /// The referral target a client has cached, if any (`None` after
    /// an `ErrorRsp 503` or an abort invalidated it).
    pub fn client_referral_cache(&self, client: &ClientHandle) -> Option<String> {
        self.rt
            .with_machine::<ClientRoot, _>(client.root, |r| r.cached_referral())
            .expect("client root exists")
    }

    /// All confirmations the client's application has received so far.
    pub fn replies(&self, client: &ClientHandle) -> Vec<McamPdu> {
        let app = self.app_of(client);
        self.rt
            .with_machine::<AppMachine, _>(app, |a| a.replies.clone())
            .expect("app module exists")
    }

    /// Executes one operation synchronously: pushes it, drives the
    /// world until the confirmation arrives (ongoing streams keep
    /// flowing but do not delay the return), and returns the
    /// confirmation (or `None` on a stall).
    ///
    /// # Panics
    ///
    /// Panics, in every profile, if the world went quiet without a
    /// confirmation *and* a module still has an enabled transition
    /// nobody woke it for: that stall is a bug in a wake source, and
    /// the message names the module and the transition.
    pub fn client_op(&self, client: &ClientHandle, op: McamOp) -> Option<McamPdu> {
        let before = self.replies(client).len();
        self.push_op(client, op);
        self.drive(SimTime::MAX, |w| w.replies(client).len() > before);
        let reply = self.replies(client).get(before).cloned();
        if reply.is_none() {
            self.assert_no_missed_wakeup();
        }
        reply
    }

    /// Builds an MTP receiver for a stream the client selected.
    pub fn receiver_for(
        &self,
        client: &ClientHandle,
        params: &StreamParams,
        playout_delay: SimDuration,
    ) -> MtpReceiver {
        MtpReceiver::new(client.socket.clone(), params.stream_id, playout_delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests and bench scenarios that say nothing about the CM link
    /// rely on this default instead of restating it.
    #[test]
    fn default_cm_link_is_2ms_jittered_and_lossless() {
        let quiet = LinkConfig::lossy(
            SimDuration::from_millis(2),
            SimDuration::from_micros(500),
            0.0,
        );
        let default = WorldBuilder::new(0).stream_link;
        assert_eq!(format!("{default:?}"), format!("{quiet:?}"));
    }
}
