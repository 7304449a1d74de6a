//! One `Deployment` API: every deployment shape behind one spec, every
//! driver behind one trait.
//!
//! The paper's whole pitch is that Harmonia is a drop-in layer: the same
//! protocol group runs unmodified whether there is one replica group or
//! sixteen behind a spine switch (§6.3), and whether it is evaluated in the
//! calibrated simulator or on real threads. This module makes the API say
//! the same thing:
//!
//! * [`DeploymentSpec`] describes *what* to deploy — protocol, Harmonia
//!   on/off, replicas per group, `groups(n)` (where unsharded is literally
//!   `groups(1)`), seed, costs, switch table geometry, link model, and the
//!   sync/sweep cadences. One spec, builder-style, no parallel config types.
//! * [`Cluster`] is *how* to talk to a running deployment, regardless of
//!   driver: a synchronous [`KvClient`], the §5.3 failover verbs
//!   ([`kill_switch`](Cluster::kill_switch) /
//!   [`replace_switch`](Cluster::replace_switch)), replica fail-stop and
//!   recovery, one read side ([`obs_snapshot`](Cluster::obs_snapshot): the
//!   switch's counters, each group's fast path and dirty-set SRAM, faults,
//!   clients and replicas — built by one function for every driver), and
//!   closed-loop scenario driving ([`run_plans`](Cluster::run_plans)).
//! * [`DeploymentSpec::build_sim`] returns the deterministic-sim
//!   implementation ([`SimCluster`]); [`DeploymentSpec::spawn_live`] the
//!   threaded one ([`LiveCluster`]); [`DeploymentSpec::spawn_udp`] the
//!   datagram one ([`UdpCluster`], every packet on a real `UdpSocket`).
//!   Tests can hold any of the three as `Box<dyn Cluster>` and never care
//!   which.

use bytes::Bytes;
use harmonia_obs::{
    Counter, FaultObs, GroupObs, ObsSnapshot, Recorder, RecorderSnapshot, Registry, SwitchObs,
    TraceEvent,
};
use harmonia_replication::{build_replica, GroupConfig, ProtocolKind};
use harmonia_sim::{LinkConfig, NetworkModel, World, WorldConfig};
use harmonia_switch::{SpineView, TableConfig};
use harmonia_types::{ClientId, Duration, Instant, NodeId, RecordedOp, ReplicaId, SwitchId};
use harmonia_workload::ShardMap;

use crate::client::{ClosedLoopClient, OpSpec, OpenLoopClient, OpenLoopConfig, SourceFn};
use crate::failover;
use crate::live::{LiveCluster, LiveError};
use crate::msg::{CostModel, Msg};
use crate::replica_step::ReplicaNode;
use crate::switch_core::SwitchCore;
use crate::udp::UdpCluster;
use crate::worker::{Hosted, SimWorker};

/// Full description of a Harmonia deployment, for any driver.
///
/// Unsharded (rack-scale, Figure 1) is literally [`groups(1)`](Self::groups)
/// — the default. The §6.3 cloud-scale deployment is the same spec with
/// `groups(n)`: `n` replica groups behind one spine switch, keyspace
/// partitioned by a pure hash ([`ShardMap`]).
///
/// Construct with the builder methods:
///
/// ```
/// use harmonia_core::deployment::DeploymentSpec;
/// use harmonia_replication::ProtocolKind;
///
/// let spec = DeploymentSpec::new()
///     .protocol(ProtocolKind::Chain)
///     .replicas(3)
///     .groups(4)
///     .seed(7);
/// assert_eq!(spec.total_replicas(), 12);
/// ```
///
/// or with struct-update syntax — every field is public.
#[derive(Clone, Debug)]
pub struct DeploymentSpec {
    /// The replication protocol every group runs.
    pub protocol: ProtocolKind,
    /// Harmonia on or off (baseline).
    pub harmonia: bool,
    /// Number of replica groups sharing the switch (1 = unsharded).
    pub groups: usize,
    /// Replication factor within each group.
    pub replicas: usize,
    /// Simulation seed. The channel driver ignores it; the UDP driver seeds
    /// its fault-injection streams from it.
    pub seed: u64,
    /// Per-message service costs at replicas.
    pub costs: CostModel,
    /// Per-group dirty-set geometry on the switch.
    pub table: TableConfig,
    /// Link model. The default is an ideal 5 µs intra-rack hop with zero
    /// jitter: one switched path delivers FIFO, which is what the paper's
    /// in-order write processing relies on. Tests override this to inject
    /// loss and reordering.
    pub link: LinkConfig,
    /// VR commit / NOPaxos sync cadence.
    pub sync_interval: Duration,
    /// How long the switch pipelines must sit idle before stale dirty
    /// entries are swept (`None`: never), on every driver.
    pub sweep_interval: Option<Duration>,
}

impl Default for DeploymentSpec {
    fn default() -> Self {
        DeploymentSpec {
            protocol: ProtocolKind::Chain,
            harmonia: true,
            groups: 1,
            replicas: 3,
            seed: 0xBEEF,
            costs: CostModel::paper_calibrated(),
            table: TableConfig::default(),
            link: LinkConfig::ideal(Duration::from_micros(5)),
            sync_interval: Duration::from_micros(200),
            sweep_interval: Some(Duration::from_millis(1)),
        }
    }
}

impl DeploymentSpec {
    /// The paper's default setup: a 3-replica Harmonia chain group.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the replication protocol.
    pub fn protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Turn the conflict-detection module on or off.
    pub fn harmonia(mut self, on: bool) -> Self {
        self.harmonia = on;
        self
    }

    /// Shorthand for [`harmonia(false)`](Self::harmonia): the §9 baselines.
    pub fn baseline(self) -> Self {
        self.harmonia(false)
    }

    /// Set the replication factor (per group).
    pub fn replicas(mut self, n: usize) -> Self {
        assert!(n > 0, "at least one replica per group");
        self.replicas = n;
        self
    }

    /// Set the number of replica groups behind the switch. `groups(1)` is
    /// the rack-scale deployment; `groups(n)` the §6.3 sharded one.
    pub fn groups(mut self, n: usize) -> Self {
        assert!(n > 0, "at least one replica group");
        self.groups = n;
        self
    }

    /// Set the simulation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the per-message service-cost model.
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Set the per-group dirty-set geometry.
    pub fn table(mut self, table: TableConfig) -> Self {
        self.table = table;
        self
    }

    /// Set the link model.
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Set the VR commit / NOPaxos sync cadence.
    pub fn sync_interval(mut self, interval: Duration) -> Self {
        self.sync_interval = interval;
        self
    }

    /// Set (or disable) the switch stale-entry sweep cadence.
    pub fn sweep_interval(mut self, interval: Option<Duration>) -> Self {
        self.sweep_interval = interval;
        self
    }

    // ----- topology (the one definition both legacy configs delegate to) --

    /// The initial switch incarnation.
    pub fn initial_switch(&self) -> SwitchId {
        SwitchId(1)
    }

    /// The stable client-facing switch address.
    pub fn switch_addr(&self) -> NodeId {
        NodeId::Switch(self.initial_switch())
    }

    /// Replies a client must collect per write under this protocol
    /// (NOPaxos replicas acknowledge the client directly; everyone else
    /// replies once).
    pub fn write_replies(&self) -> usize {
        match self.protocol {
            ProtocolKind::Nopaxos => self.protocol.quorum(self.replicas),
            _ => 1,
        }
    }

    /// The deployment's object→group map.
    pub fn shard_map(&self) -> ShardMap {
        ShardMap::new(self.groups)
    }

    /// One key per group, in group order, covering every group of the
    /// deployment (found by probing the shard hash). Bring-up harnesses
    /// write one committed value per key to arm each group's fast path —
    /// the §5.3 first-own-completion rule — exactly as a real deployment
    /// would.
    pub fn group_covering_keys(&self) -> Vec<Bytes> {
        let map = self.shard_map();
        let mut keys: Vec<Option<Bytes>> = vec![None; self.groups];
        let mut remaining = self.groups;
        let mut probe = 0u32;
        while remaining > 0 {
            let key = Bytes::from(format!("__bootstrap-{probe}__"));
            let g = map.shard_of_key(&key) as usize;
            if keys[g].is_none() {
                keys[g] = Some(key);
                remaining -= 1;
            }
            probe += 1;
        }
        keys.into_iter().map(|k| k.expect("covered")).collect()
    }

    /// Total replica count across every group.
    pub fn total_replicas(&self) -> usize {
        self.groups * self.replicas
    }

    /// The global id of replica `idx` of group `group`. Groups own disjoint
    /// contiguous slices of the replica-id space.
    pub fn replica_id(&self, group: usize, idx: usize) -> ReplicaId {
        assert!(group < self.groups && idx < self.replicas);
        ReplicaId((group * self.replicas + idx) as u32)
    }

    /// The group that provisioned replica `r` (inverse of
    /// [`replica_id`](Self::replica_id)).
    pub fn group_of_replica(&self, r: ReplicaId) -> usize {
        let g = r.0 as usize / self.replicas;
        assert!(g < self.groups, "replica {r:?} outside the deployment");
        g
    }

    /// Group `group`'s membership in role order (head/primary/leader first).
    pub fn group_members(&self, group: usize) -> Vec<ReplicaId> {
        (0..self.replicas)
            .map(|i| self.replica_id(group, i))
            .collect()
    }

    /// Per-replica group configuration for group `group` as seen by its
    /// member `idx`.
    pub fn group_config(&self, group: usize, idx: usize) -> GroupConfig {
        GroupConfig {
            protocol: self.protocol,
            me: self.replica_id(group, idx),
            members: self.group_members(group),
            harmonia: self.harmonia,
            active_switch: self.initial_switch(),
            sync_interval: self.sync_interval,
        }
    }

    /// The simulated switch of incarnation `incarnation` (initial bring-up
    /// and §5.3 replacements): one host running every group's pipeline, at
    /// line rate.
    pub(crate) fn sim_switch(&self, incarnation: SwitchId, recorder: &Recorder) -> SimWorker {
        let mut core = SwitchCore::for_deployment(self, incarnation);
        core.set_recorder(recorder);
        SimWorker::new(vec![Hosted::pipelines(core)], None)
    }

    /// A simulated storage server, queued behind this spec's costs; with
    /// `recover_from`, a fresh one that catches up from that peer first.
    pub(crate) fn sim_replica(
        &self,
        config: GroupConfig,
        recover_from: Option<ReplicaId>,
        recorder: Recorder,
    ) -> SimWorker {
        let me = config.me;
        let node = ReplicaNode::new(build_replica(config), recover_from, recorder);
        SimWorker::new(vec![Hosted::replica(me, node)], Some(self.costs))
    }

    // ----- the three drivers ----------------------------------------------

    /// Assemble this deployment in the deterministic simulator: a host per
    /// node — the switch, running every group's pipeline, and each replica.
    pub fn build_sim(&self) -> SimCluster {
        let mut world = World::new(WorldConfig {
            seed: self.seed,
            network: NetworkModel::uniform(self.link),
        });
        // Virtual time only: the registry's clock stays null, every recorder
        // call passes the world's `now` explicitly, so same-seed runs yield
        // bit-identical snapshots.
        let registry = Registry::new();
        let switch = self.sim_switch(self.initial_switch(), &registry.handle());
        world.add_node(self.switch_addr(), Box::new(switch));
        for g in 0..self.groups {
            for i in 0..self.replicas {
                let replica = self.sim_replica(self.group_config(g, i), None, registry.handle());
                world.add_node(NodeId::Replica(self.replica_id(g, i)), Box::new(replica));
            }
        }
        SimCluster {
            spec: self.clone(),
            world,
            switch: self.switch_addr(),
            workload_clients: Vec::new(),
            next_client: 900,
            registry,
        }
    }

    /// Spawn this deployment on OS threads (the live driver): as many
    /// workers as the host has cores for, hosting the pipelines and replicas.
    pub fn spawn_live(&self) -> LiveCluster {
        LiveCluster::new(self)
    }

    /// Spawn this deployment over real UDP loopback sockets (the datagram
    /// driver): same workers and packet-handling logic as
    /// [`spawn_live`](Self::spawn_live), but every packet crosses a
    /// `UdpSocket` through the wire codec, and the spec's
    /// [`link`](Self::link) fault probabilities are injected at every
    /// socket (see [`UdpCluster`]).
    pub fn spawn_udp(&self) -> UdpCluster {
        UdpCluster::new(self)
    }
}

/// A synchronous key-value handle onto a running deployment — the same
/// GET/SET surface whether the deployment is simulated or live.
///
/// The required methods take [`Bytes`]: a refcounted handle that requests,
/// retries, and histories can share without copying, so a driver's per-op
/// hot loop allocates nothing. The slice forms ([`get`](Self::get) /
/// [`set`](Self::set)) are borrowed-data conveniences that pay one copy at
/// the boundary.
pub trait KvClient {
    /// Read `key`, blocking (or simulating) until the reply, with retry.
    fn get_bytes(&mut self, key: Bytes) -> Result<Option<Bytes>, LiveError>;

    /// Write `key := value`, blocking (or simulating) until committed, with
    /// retry.
    fn set_bytes(&mut self, key: Bytes, value: Bytes) -> Result<(), LiveError>;

    /// [`get_bytes`](Self::get_bytes), copying the borrowed key once.
    fn get(&mut self, key: &[u8]) -> Result<Option<Bytes>, LiveError> {
        self.get_bytes(Bytes::copy_from_slice(key))
    }

    /// [`set_bytes`](Self::set_bytes), copying the borrowed data once.
    fn set(&mut self, key: &[u8], value: &[u8]) -> Result<(), LiveError> {
        self.set_bytes(Bytes::copy_from_slice(key), Bytes::copy_from_slice(value))
    }
}

/// The runtime surface of a running deployment, common to all three
/// drivers. Obtain one from [`DeploymentSpec::build_sim`],
/// [`DeploymentSpec::spawn_live`] or [`DeploymentSpec::spawn_udp`]; hold it
/// as `Box<dyn Cluster>` to write driver-agnostic harnesses.
pub trait Cluster {
    /// The spec this deployment was built from.
    fn spec(&self) -> &DeploymentSpec;

    /// A synchronous client handle. The simulated implementation advances
    /// virtual time under the hood, so it borrows the cluster exclusively;
    /// a threaded one is backed by its own link.
    fn client(&mut self) -> Box<dyn KvClient + '_>;

    /// §5.3 step 1: the switch fails. It retains no state and forwards
    /// nothing; in-flight and subsequent requests are lost until a
    /// replacement is activated.
    fn kill_switch(&mut self);

    /// §5.3 steps 2–3: activate a replacement switch under `new_id` (must
    /// exceed every predecessor) and move every replica's lease to it. Step
    /// 4 — fast-path re-enable on the first own-id WRITE-COMPLETION — is the
    /// conflict detector's gating, no orchestration needed.
    fn replace_switch(&mut self, new_id: SwitchId);

    /// Fail-stop replica `r` (§5.3, "handling server failures"): it loses
    /// all state, the switch drops it from the forwarding table, and its
    /// group's membership shrinks to the survivors so the protocol keeps
    /// committing without it.
    fn kill_replica(&mut self, r: ReplicaId);

    /// Bring `r` back as a *fresh, empty* replica. The group's canonical
    /// membership is restored and the switch re-admits `r` **read-gated**:
    /// no read is offloaded to it until it has caught up. The newcomer
    /// performs snapshot + log state transfer from a live peer; when the
    /// transfer completes it reports its applied point and the switch lifts
    /// the gate only if that point has passed the gate-time floor.
    fn restart_replica(&mut self, r: ReplicaId);

    /// The current switch incarnation (`None` if the switch is down).
    fn switch_incarnation(&self) -> Option<SwitchId>;

    /// One unified observability snapshot: switch/spine counters, transport
    /// and pool counters (UDP driver), injected-fault counters, client and
    /// replica counters, and client-observed latency summaries — the same
    /// typed shape from every driver. It is the one read side of a running
    /// deployment: `switch` totals every pipeline (dirty-set SRAM included,
    /// the §6.3 budget check), `per_group` has a row per group in group
    /// order (its fast path armed or not, §5.3), and both are empty while
    /// the switch is down. Render it with
    /// [`json_text`](harmonia_obs::json_text).
    fn obs_snapshot(&self) -> ObsSnapshot;

    /// Every request-lifecycle trace event still held in the deployment's
    /// bounded per-thread trace rings, unsorted. Feed them to
    /// [`format_trace`](harmonia_obs::format_trace) /
    /// [`dump_for_key`](harmonia_obs::dump_for_key) for a per-request
    /// timeline (client send → switch verdict → replica execute → done).
    fn trace_events(&self) -> Vec<TraceEvent>;

    /// Closed-loop scenario driving, expressed once for every driver: run
    /// each plan on its own logical client and return each client's
    /// completed-operation history, checker-ready (histories are returned
    /// in plan order). Client-id allocation is driver-internal: the sim
    /// gives plan `i` node id `10 + i` (the integration-test convention,
    /// so tests can inspect the actors afterwards); the threaded drivers
    /// draw a contiguous block from their shared client-id counter.
    ///
    /// On the threaded drivers a call is **one load thread** — the
    /// caller's: the plans are the lanes of one
    /// [`LiveClient`](crate::live::LiveClient), every lane's next
    /// operation in flight at once on one link. Lanes are distinct clients
    /// because a replica's client table admits one request per client id.
    /// Offered load is the plan count; a caller who wants more load
    /// *threads* holds its own [`client`](Self::client)s, one per thread.
    /// Records are stamped on the deployment's clock, so the histories of
    /// successive calls order against each other and against
    /// [`trace_events`](Self::trace_events).
    fn run_plans(&mut self, plans: Vec<Vec<OpSpec>>) -> Vec<Vec<RecordedOp>>;
}

/// A deployment assembled in the deterministic simulator: the spec plus the
/// [`World`] hosting the switch and every group's replicas.
///
/// Beyond the [`Cluster`] surface it exposes the world itself
/// ([`world`](Self::world) / [`world_mut`](Self::world_mut) /
/// [`into_world`](Self::into_world)) for metrics, network shaping, and
/// scheduled fault scripting, plus open-loop/closed-loop load-generator
/// attachment ([`add_open_loop_client`](Self::add_open_loop_client)).
pub struct SimCluster {
    spec: DeploymentSpec,
    world: World<Msg>,
    /// The address clients currently target (moves on `replace_switch`).
    switch: NodeId,
    /// Workload generators attached so far (retargeted on replacement).
    workload_clients: Vec<NodeId>,
    next_client: u32,
    /// Observability: every host's recorder shards into this registry.
    pub(crate) registry: Registry,
}

impl SimCluster {
    /// The world hosting this deployment.
    pub fn world(&self) -> &World<Msg> {
        &self.world
    }

    /// Mutable world access (network shaping, scheduled controls, metrics).
    pub fn world_mut(&mut self) -> &mut World<Msg> {
        &mut self.world
    }

    /// Unwrap into the bare world.
    pub fn into_world(self) -> World<Msg> {
        self.world
    }

    /// Advance virtual time to `t`.
    pub fn run_until(&mut self, t: Instant) {
        self.world.run_until(t);
    }

    /// Current virtual time.
    pub fn now(&self) -> Instant {
        self.world.now()
    }

    /// The pipelines of the switch clients address, if it is up.
    pub fn switch_core(&self) -> Option<&SwitchCore> {
        if self.world.is_down(self.switch) {
            return None;
        }
        self.world.actor::<SimWorker>(self.switch)?.switch()
    }

    /// Attach an open-loop load generator (the paper's DPDK-generator
    /// substitute). Returns its node id. The generator addresses the
    /// current switch; [`replace_switch`](Cluster::replace_switch)
    /// retargets it.
    pub fn add_open_loop_client(
        &mut self,
        client: ClientId,
        rate_rps: f64,
        timeout: Duration,
        source: SourceFn,
    ) -> NodeId {
        let node = NodeId::Client(client);
        let cfg = OpenLoopConfig {
            rate_rps,
            timeout,
            ..OpenLoopConfig::for_deployment(&self.spec)
        };
        self.world.add_node(
            node,
            Box::new(
                OpenLoopClient::new(client, cfg, source).with_recorder(self.registry.handle()),
            ),
        );
        self.workload_clients.push(node);
        node
    }

    /// Attach a closed-loop client that executes `plan` then stops.
    /// Returns its node id. Attaching an id again replaces its client with
    /// one that continues its session — same recorder, fresh request ids —
    /// so a long-lived world driven through many
    /// [`run_plans`](Cluster::run_plans) calls does not grow per call.
    pub fn add_closed_loop_client(
        &mut self,
        client: ClientId,
        plan: Vec<OpSpec>,
        timeout: Duration,
    ) -> NodeId {
        let node = NodeId::Client(client);
        let actor = ClosedLoopClient::new(client, self.switch, plan)
            .with_write_replies(self.spec.write_replies())
            .with_timeout(timeout);
        let actor = match self.world.actor::<ClosedLoopClient>(node) {
            Some(previous) => actor.continuing(previous),
            None => actor.with_recorder(self.registry.handle()),
        };
        self.world.add_node(node, Box::new(actor));
        if !self.workload_clients.contains(&node) {
            self.workload_clients.push(node);
        }
        node
    }

    /// [`Cluster::run_plans`] with an explicit per-attempt timeout (the
    /// trait method uses a driver-appropriate default).
    pub fn run_plans_with(
        &mut self,
        plans: Vec<Vec<OpSpec>>,
        timeout: Duration,
    ) -> Vec<Vec<RecordedOp>> {
        let clients: Vec<ClientId> = (0..plans.len()).map(|i| ClientId(10 + i as u32)).collect();
        for (&id, plan) in clients.iter().zip(plans) {
            self.add_closed_loop_client(id, plan, timeout);
        }
        // Advance in chunks until every client finished AND every scheduled
        // control action (failovers, removals) has fired, bounded by a
        // generous horizon of 2 seconds from this call; then drain. Protocol
        // timers would keep ticking harmlessly but expensively, so there is
        // no point simulating dead air — but a control event scheduled after
        // the clients finish must still run.
        let horizon = self.world.now() + Duration::from_secs(2);
        loop {
            let next = self.world.now() + Duration::from_millis(10);
            self.world.run_until(next);
            let all_done = clients.iter().all(|&id| {
                self.world
                    .actor::<ClosedLoopClient>(NodeId::Client(id))
                    .is_some_and(|cl| cl.is_done())
            });
            if (all_done && self.world.pending_controls() == 0) || next >= horizon {
                break;
            }
        }
        // Let in-flight protocol traffic (commit broadcasts, chain DOWNs of
        // the final writes) settle so state assertions see quiescence.
        let drain = self.world.now() + Duration::from_millis(20);
        self.world.run_until(drain);
        clients
            .iter()
            .map(|&id| {
                let client = self
                    .world
                    .actor_mut::<ClosedLoopClient>(NodeId::Client(id))
                    .expect("client exists");
                assert!(client.is_done(), "client {id:?} still has work");
                std::mem::take(&mut client.records)
            })
            .collect()
    }
}

impl Cluster for SimCluster {
    fn spec(&self) -> &DeploymentSpec {
        &self.spec
    }

    fn client(&mut self) -> Box<dyn KvClient + '_> {
        let id = ClientId(self.next_client);
        self.next_client += 1;
        Box::new(SimSession { cluster: self, id })
    }

    fn kill_switch(&mut self) {
        self.world.set_down(self.switch);
    }

    fn replace_switch(&mut self, new_id: SwitchId) {
        self.world.set_down(self.switch);
        self.switch = failover::activate_switch(
            &mut self.world,
            &self.spec,
            new_id,
            &self.registry.handle(),
            &self.workload_clients,
        );
    }

    fn kill_replica(&mut self, r: ReplicaId) {
        failover::remove_replica(&mut self.world, &self.spec, self.switch, r);
        // Let the removal land before the caller's next operation.
        let settle = self.world.now() + Duration::from_micros(100);
        self.world.run_until(settle);
    }

    fn restart_replica(&mut self, r: ReplicaId) {
        let recorder = self.registry.handle();
        let newcomer =
            failover::readmit_replica(&mut self.world, &self.spec, self.switch, r, recorder);
        // Let the gate land before the newcomer's transfer can complete.
        let settle = self.world.now() + Duration::from_micros(100);
        self.world.run_until(settle);
        self.world
            .replace_node(NodeId::Replica(r), Box::new(newcomer));
    }

    fn switch_incarnation(&self) -> Option<SwitchId> {
        self.switch_core().map(SwitchCore::incarnation)
    }

    fn obs_snapshot(&self) -> ObsSnapshot {
        let m = self.world.metrics();
        let faults = FaultObs {
            dropped: m.counter("net.dropped"),
            duplicated: m.counter("net.duplicated"),
            reordered: m.counter("net.reordered"),
            discarded: m.counter("net.dead_dst") + m.counter("net.down_dst"),
        };
        let (now, recorded) = (self.world.now(), self.registry.snapshot());
        let view = self.switch_core().map(SwitchCore::view);
        snapshot(&self.spec, "sim", now, &recorded, view, faults)
    }

    fn trace_events(&self) -> Vec<TraceEvent> {
        self.registry.trace_events()
    }

    fn run_plans(&mut self, plans: Vec<Vec<OpSpec>>) -> Vec<Vec<RecordedOp>> {
        self.run_plans_with(plans, Duration::from_millis(5))
    }
}

/// The snapshot every driver's [`Cluster::obs_snapshot`] returns: `spec`'s
/// topology, the recorder-backed sections from `recorded`, and the switch
/// sections from `switch` — its pipelines' [`SwitchCore::view`] rows,
/// `None` while it is down. Sweeps happen off the observation path, so
/// `swept` is the recorders' count.
pub(crate) fn snapshot(
    spec: &DeploymentSpec,
    driver: &'static str,
    taken_at: Instant,
    recorded: &RecorderSnapshot,
    switch: Option<SpineView>,
    faults: FaultObs,
) -> ObsSnapshot {
    let mut snap = ObsSnapshot {
        driver,
        protocol: spec.protocol.name(),
        groups: spec.groups as u32,
        replicas: spec.replicas as u32,
        taken_at_ns: taken_at.nanos(),
        faults,
        ..ObsSnapshot::default()
    };
    snap.apply_recorder(recorded);
    let Some(view) = switch else { return snap };
    let stats = view.stats();
    snap.switch = SwitchObs {
        reads_fast_path: stats.reads_fast_path,
        reads_normal: stats.reads_normal,
        writes_forwarded: stats.writes_forwarded,
        writes_dropped: stats.writes_dropped,
        completions: stats.completions,
        forwarded_other: stats.forwarded_other,
        swept: recorded.counter(Counter::SwitchSwept),
        fast_path_groups: view.fast_path_groups() as u64,
        dirty_len: view.dirty_len() as u64,
        memory_bytes: view.memory_bytes() as u64,
    };
    snap.per_group = view
        .groups()
        .iter()
        .map(|o| GroupObs {
            group: o.group.0,
            reads_fast_path: o.stats.reads_fast_path,
            reads_normal: o.stats.reads_normal,
            writes_forwarded: o.stats.writes_forwarded,
            writes_dropped: o.stats.writes_dropped,
            fast_path_enabled: o.fast_path_enabled,
            dirty_len: o.dirty_len as u64,
            memory_bytes: o.memory_bytes as u64,
        })
        .collect();
    snap
}

/// The simulated [`KvClient`]: a client id whose every operation is a
/// one-op [`ClosedLoopClient`] attached under it — continuing its session —
/// with the world stepped, event by event, until that client is done. An
/// operation takes exactly the virtual time it takes through
/// [`run_plans`](Cluster::run_plans).
struct SimSession<'a> {
    cluster: &'a mut SimCluster,
    id: ClientId,
}

impl SimSession<'_> {
    fn run_op(&mut self, spec: OpSpec) -> Result<Option<Bytes>, LiveError> {
        let timeout = Duration::from_millis(20);
        let node = (self.cluster).add_closed_loop_client(self.id, vec![spec], timeout);
        let world = &mut self.cluster.world;
        let done = |w: &World<Msg>| w.actor(node).is_some_and(ClosedLoopClient::is_done);
        while !done(world) && world.step() {}
        let client: Option<&mut ClosedLoopClient> = world.actor_mut(node);
        match client.and_then(|c| c.records.pop()) {
            Some(op) if op.ok => Ok(op.result),
            Some(_) => Err(LiveError::TimedOut),
            None => Err(LiveError::Disconnected),
        }
    }
}

impl KvClient for SimSession<'_> {
    fn get_bytes(&mut self, key: Bytes) -> Result<Option<Bytes>, LiveError> {
        self.run_op(OpSpec::read(key))
    }

    fn set_bytes(&mut self, key: Bytes, value: Bytes) -> Result<(), LiveError> {
        self.run_op(OpSpec::write(key, value)).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::metrics;
    use rand::Rng;

    fn run_mixed(protocol: ProtocolKind, harmonia: bool, rate: f64, millis: u64) -> (u64, u64) {
        let mut sim = DeploymentSpec::new()
            .protocol(protocol)
            .harmonia(harmonia)
            .build_sim();
        let source: SourceFn = Box::new(|rng| {
            let key = Bytes::from(format!("key-{}", rng.gen_range(0..1000u32)));
            if rng.gen_bool(0.05) {
                OpSpec::write(key, Bytes::from_static(b"value"))
            } else {
                OpSpec::read(key)
            }
        });
        sim.add_open_loop_client(ClientId(1), rate, Duration::from_millis(10), source);
        sim.run_until(Instant::ZERO + Duration::from_millis(millis));
        (
            sim.world().metrics().counter(metrics::READ_DONE),
            sim.world().metrics().counter(metrics::WRITE_DONE),
        )
    }

    #[test]
    fn every_protocol_serves_a_light_mixed_workload() {
        for protocol in [
            ProtocolKind::PrimaryBackup,
            ProtocolKind::Chain,
            ProtocolKind::Craq,
            ProtocolKind::Vr,
            ProtocolKind::Nopaxos,
        ] {
            for harmonia in [false, true] {
                if protocol == ProtocolKind::Craq && harmonia {
                    continue; // CRAQ is baseline-only
                }
                let (reads, writes) = run_mixed(protocol, harmonia, 50_000.0, 20);
                assert!(
                    reads > 700,
                    "{protocol:?} harmonia={harmonia}: reads={reads}"
                );
                assert!(
                    writes > 20,
                    "{protocol:?} harmonia={harmonia}: writes={writes}"
                );
            }
        }
    }

    #[test]
    fn harmonia_chain_outperforms_baseline_on_read_heavy_load() {
        // Offered read load well beyond one server's 0.92 MQPS capacity:
        // baseline CR is capped at the tail, Harmonia spreads over 3.
        let (base_reads, _) = run_mixed(ProtocolKind::Chain, false, 2_400_000.0, 20);
        let (harm_reads, _) = run_mixed(ProtocolKind::Chain, true, 2_400_000.0, 20);
        let ratio = harm_reads as f64 / base_reads.max(1) as f64;
        assert!(
            ratio > 2.0,
            "expected ≈3× read scaling, got {ratio:.2} ({harm_reads} vs {base_reads})"
        );
    }

    #[test]
    fn write_replies_quorum_only_for_nopaxos() {
        let spec = DeploymentSpec::new()
            .protocol(ProtocolKind::Nopaxos)
            .replicas(5);
        assert_eq!(spec.write_replies(), 3);
        assert_eq!(spec.protocol(ProtocolKind::Chain).write_replies(), 1);
    }

    #[test]
    fn replica_ids_are_disjoint_and_contiguous() {
        let spec = DeploymentSpec::new().groups(3);
        let all: Vec<u32> = (0..3)
            .flat_map(|g| spec.group_members(g))
            .map(|r| r.0)
            .collect();
        assert_eq!(all, (0..9).collect::<Vec<u32>>());
        assert_eq!(spec.group_members(2)[0], ReplicaId(6));
        assert_eq!(spec.total_replicas(), 9);
        assert_eq!(spec.group_of_replica(ReplicaId(7)), 2);
    }

    #[test]
    fn spine_memory_accounting_scales_with_group_count() {
        let one = DeploymentSpec::new().build_sim();
        let four = DeploymentSpec::new().groups(4).build_sim();
        let (one, four) = (one.obs_snapshot(), four.obs_snapshot());
        assert_eq!(four.switch.memory_bytes, 4 * one.switch.memory_bytes);
        assert_eq!(four.per_group.len(), 4);
    }

    #[test]
    fn sim_client_round_trips_through_virtual_time() {
        // A synchronous read takes the virtual time the same read takes
        // through `run_plans`, to the nanosecond, and its latency sample is
        // that time: checked histories trust these stamps.
        let mut reference = DeploymentSpec::new().build_sim();
        let read = &reference.run_plans(vec![vec![OpSpec::read("missing")]])[0][0];
        let latency = read.completed.since(read.invoked);
        let mut sim = DeploymentSpec::new().build_sim();
        assert_eq!(sim.client().get(b"missing").unwrap(), None);
        assert_eq!(sim.now().since(Instant::ZERO), latency);
        assert_eq!(sim.obs_snapshot().read_latency.max_ns, latency.nanos());
        let mut client = sim.client();
        client.set(b"alpha", b"1").unwrap();
        client.set(b"alpha", b"2").unwrap();
        assert_eq!(
            client.get(b"alpha").unwrap(),
            Some(Bytes::from_static(b"2"))
        );
        drop(client);
        assert!(sim.now() > Instant::ZERO, "virtual time advanced");
        assert_eq!(sim.obs_snapshot().switch.fast_path_groups, 1);
    }

    #[test]
    fn run_plans_horizon_starts_at_the_call_not_at_time_zero() {
        // Two 2 000-op plans need far more than one 10 ms chunk; on a clock
        // already past 2 s an absolute horizon gave them exactly one.
        let mut sim = DeploymentSpec::new().build_sim();
        sim.run_until(Instant::ZERO + Duration::from_millis(2500));
        let plans: Vec<Vec<OpSpec>> = (0..2)
            .map(|c| {
                (0..2000)
                    .map(|i| {
                        let key = Bytes::from(format!("key-{}", i % 16));
                        if i % 4 == 0 {
                            OpSpec::write(key, Bytes::from(format!("c{c}-v{i}")))
                        } else {
                            OpSpec::read(key)
                        }
                    })
                    .collect()
            })
            .collect();
        let histories = sim.run_plans_with(plans, Duration::from_millis(5));
        for history in &histories {
            assert_eq!(history.len(), 2000);
            assert!(history.iter().all(|r| r.ok));
        }
    }

    #[test]
    fn a_long_lived_world_keeps_one_session_per_client() {
        // One world driven through many `run_plans` calls (ROADMAP item 2's
        // search): every call re-adds clients 10 + i. None may add a
        // registry shard — counters, histograms, a 1 024-event trace ring —
        // or a retarget entry, and none may reuse a request id: the
        // replicas would drop those writes as stale retries, or ack them
        // from their reply cache without applying them.
        let mut sim = DeploymentSpec::new().build_sim();
        for call in 0..1000 {
            let plans: Vec<Vec<OpSpec>> = (0..4)
                .map(|c| {
                    (0..5)
                        .map(|i| {
                            let key = Bytes::from(format!("key-{}", (c + i) % 8));
                            if i % 2 == 0 {
                                OpSpec::write(key, Bytes::from(format!("{call}-{c}-{i}")))
                            } else {
                                OpSpec::read(key)
                            }
                        })
                        .collect()
                })
                .collect();
            let histories = sim.run_plans(plans);
            let all_ok = histories
                .iter()
                .all(|h| h.len() == 5 && h.iter().all(|r| r.ok));
            assert!(all_ok, "call {call}: {histories:?}");
        }
        // One ring each for the switch, the replicas and the four clients.
        let shards = 1 + sim.spec.groups * sim.spec.replicas + 4;
        let events = sim.trace_events().len();
        assert!(events <= shards * 1024, "{events} trace events held");
        assert_eq!(sim.workload_clients.len(), 4);
        let counted = sim.obs_snapshot().clients;
        assert_eq!(counted.reads_done + counted.writes_done, 4 * 5 * 1000);
        // Every key was written by the last call, and those writes applied.
        let mut client = sim.client();
        for k in 0..8 {
            let value = client.get(format!("key-{k}").as_bytes()).unwrap();
            let last = value.as_ref().is_some_and(|v| v.starts_with(b"999-"));
            assert!(last, "key-{k}: {value:?}");
        }
    }

    #[test]
    fn sim_failover_verbs_match_the_live_vocabulary() {
        let mut sim = DeploymentSpec::new().build_sim();
        {
            let mut client = sim.client();
            client.set(b"warm", b"1").unwrap();
        }
        assert_eq!(sim.obs_snapshot().switch.fast_path_groups, 1);
        assert_eq!(sim.switch_incarnation(), Some(SwitchId(1)));

        sim.kill_switch();
        assert_eq!(sim.switch_incarnation(), None);
        assert_eq!(sim.obs_snapshot().switch, SwitchObs::default());
        {
            let mut client = sim.client();
            assert!(client.get(b"warm").is_err(), "no switch, no service");
        }

        sim.replace_switch(SwitchId(2));
        assert_eq!(sim.switch_incarnation(), Some(SwitchId(2)));
        assert_eq!(sim.obs_snapshot().switch.fast_path_groups, 0);
        {
            let mut client = sim.client();
            assert_eq!(client.get(b"warm").unwrap(), Some(Bytes::from_static(b"1")));
            client.set(b"rearm", b"2").unwrap();
        }
        assert_eq!(sim.obs_snapshot().switch.fast_path_groups, 1);
    }

    #[test]
    fn sharded_world_serves_a_mixed_workload_on_every_group() {
        let mut sim = DeploymentSpec::new().groups(4).build_sim();
        let source: SourceFn = Box::new(|rng| {
            let key = Bytes::from(format!("key-{}", rng.gen_range(0..2000u32)));
            if rng.gen_bool(0.1) {
                OpSpec::write(key, Bytes::from_static(b"value"))
            } else {
                OpSpec::read(key)
            }
        });
        sim.add_open_loop_client(ClientId(1), 100_000.0, Duration::from_millis(10), source);
        sim.run_until(Instant::ZERO + Duration::from_millis(20));
        assert!(sim.world().metrics().counter(metrics::READ_DONE) > 1000);
        assert!(sim.world().metrics().counter(metrics::WRITE_DONE) > 50);
        let rows = sim.obs_snapshot().per_group;
        assert_eq!(rows.len(), 4);
        for row in rows {
            assert!(row.writes_forwarded > 0, "never saw a write: {row:?}");
            let reads = row.reads_fast_path + row.reads_normal;
            assert!(reads > 0, "never saw a read: {row:?}");
        }
    }

    #[test]
    fn single_group_stats_equal_aggregate_stats() {
        // groups = 1 must behave exactly like the classic rack deployment:
        // the shard map is the identity onto group 0.
        let mut sim = DeploymentSpec::new().build_sim();
        let source: SourceFn = Box::new(|rng| {
            let key = Bytes::from(format!("key-{}", rng.gen_range(0..100u32)));
            if rng.gen_bool(0.1) {
                OpSpec::write(key, Bytes::from_static(b"v"))
            } else {
                OpSpec::read(key)
            }
        });
        sim.add_open_loop_client(ClientId(1), 50_000.0, Duration::from_millis(10), source);
        sim.run_until(Instant::ZERO + Duration::from_millis(10));
        let snap = sim.obs_snapshot();
        let [group] = &snap.per_group[..] else {
            panic!("one group: {:?}", snap.per_group)
        };
        let total = &snap.switch;
        assert_eq!(
            (
                total.reads_fast_path,
                total.reads_normal,
                total.writes_forwarded
            ),
            (
                group.reads_fast_path,
                group.reads_normal,
                group.writes_forwarded
            )
        );
        assert!(sim.world().metrics().counter(metrics::READ_DONE) > 300);
    }
}
