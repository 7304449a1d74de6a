//! The threaded drivers: the same state machines on OS threads — with a
//! **parallel data plane** — over any packet substrate.
//!
//! Every node runs on its own thread. Nothing in the protocol or switch
//! logic changes relative to the simulation; only the driver differs. One
//! rig, [`ThreadedCluster`], owns the threads, the §5.3 verbs, and the
//! [`Cluster`] surface; a small [`Substrate`] says how bytes move between
//! them. Two substrates exist: in-process crossbeam channels (this module:
//! [`LiveCluster`], the deployment mode the examples use) and real loopback
//! `UdpSocket`s ([`crate::udp`]: `UdpCluster`).
//!
//! # Per-group switch pipelines
//!
//! A real Tofino processes different groups' packets in parallel at line
//! rate, so a driver that serializes every group's traffic through one
//! switch thread (let alone one mutex) is an artifact, not the paper's
//! design. The threaded switch is therefore a *fleet*: one pipeline thread
//! per replica group, each exclusively owning that group's
//! [`GroupCore`] — conflict detector,
//! sequencer, forwarding table, and counters. **No lock guards switch or
//! replica state**; the only lock on the packet path is the short one
//! around an ingress queue, once per send and once per batch received.
//!
//! The spine itself is a thin, stateless shard-router: sending to the
//! switch address resolves the packet's object through the deployment's
//! [`ShardMap`] *on the sender's thread* and enqueues straight onto the
//! owning group's pipeline — client threads and replica threads deliver to
//! the right pipeline without any intermediate hop or shared switch state.
//!
//! Where a packet addressed to the switch goes is one decision,
//! [`PacketBody::switch_route`], and both substrates' spines only carry it
//! out. It sends to a pipeline what Algorithm 1 or the control plane acts
//! on — requests, completions, control, and a reply *with a piggybacked
//! completion* to snoop (Figure 2b) — and forwards a reply that carries none
//! (every read reply, a rejected write, a VR / NOPaxos write ack, whose
//! completion travels standalone) to its client's own ingress, as sent: a
//! Tofino forwards such a frame for free, a pipeline *thread* would pay a
//! wake-up, a decode and a second copy of the value to do nothing. So the
//! pipelines see one packet per read and two per chain write. The replica
//! still addresses the switch, and it is the spine that forwards: with the
//! spine cleared ([`kill_switch`](Cluster::kill_switch)) or a lease still on
//! a dead incarnation, the reply resolves to nothing and vanishes like every
//! other packet of the §5.3 outage. (The simulator keeps the hop — see
//! [`crate::switch_actor`].)
//!
//! Every node loop runs to completion — [`NodeLink::recv_into`] fills its
//! inbox with everything queued, the loop handles all of it, one
//! [`NodeLink::send_many`] flushes the result — and sleeps until it has
//! something to do: with no tick or reclaimable dirty entry due, untimed.
//!
//! # One client shell
//!
//! Clients run the same kind of loop, and there is one of it:
//! [`LiveClient`], N lanes — N sans-IO client cores with N client ids — on
//! one link and one thread, the caller's. A synchronous
//! [`client`](ThreadedCluster::client) is the shell with one lane;
//! [`Cluster::run_plans`] is the shell with a lane per plan, so a call
//! spawns no thread and hands the substrate every lane's next request in
//! one flush. Load is raised by adding plans, not threads.
//!
//! Aggregate inspection ([`switch_stats`](Cluster::switch_stats),
//! [`switch_memory_bytes`](Cluster::switch_memory_bytes)) works by
//! message: each pipeline answers with a
//! [`GroupObservation`] snapshot and the facade folds them through
//! [`SpineView`] — the control plane reads totals without ever touching a
//! worker's state.
//!
//! The §5.3 switch failure/replacement sequence
//! ([`kill_switch`](Cluster::kill_switch) /
//! [`replace_switch`](Cluster::replace_switch)) applies to the whole
//! fleet atomically: every pipeline of the old incarnation is torn down and
//! joined, and a fresh fleet (fresh dirty sets and sequence spaces for
//! *every* hosted group) spawns under a larger incarnation id at the same
//! client-facing address. Single-replica reads stay disabled per group
//! until the first WRITE-COMPLETION bearing the new incarnation's id.

// Wall-clock reads are deliberate here: threaded drivers: ticks and timeouts are real time.
#![allow(clippy::disallowed_methods)]

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant as StdInstant};

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use harmonia_obs::{
    Counter, FaultObs, MonotonicClock, ObsSnapshot, Recorder, Registry, TraceEvent,
};
use harmonia_replication::{build_replica, GroupConfig};
use harmonia_switch::{GroupId, GroupObservation, SpineView, SwitchStats};
use harmonia_types::{ClientId, Instant, NodeId, PacketBody, ReplicaId, SwitchId, SwitchRoute};
use harmonia_workload::ShardMap;

use crate::client::{OpSpec, RecordedOp};
use crate::client_core::{ClientCore, Finished, Step};
use crate::control;
use crate::deployment::{spine_obs, Cluster, DeploymentSpec, KvClient};
use crate::msg::Msg;
use crate::replica_step::ReplicaNode;
use crate::switch_actor::{GroupCore, SwitchCore};

/// What a node loop can be handed: a data-plane packet or a control-plane
/// verb from its own driver. The channel substrate multiplexes these on one
/// channel; the UDP substrate splits them (packets on the socket, control on
/// a side channel) — [`NodeLink`] hides the difference.
pub enum Envelope {
    /// A data-plane packet.
    Packet(Msg),
    /// Ask the receiving pipeline for a snapshot of its group's state.
    Inspect(Sender<GroupObservation>),
    /// Leave the loop.
    Stop,
}

/// Per-attempt client reply deadline — one value for both threaded
/// drivers, so their retry envelopes can never drift apart.
const CLIENT_TIMEOUT: StdDuration = StdDuration::from_millis(200);

/// Client attempt budget of every synchronous [`KvClient`], sim included.
pub(crate) const CLIENT_ATTEMPTS: u32 = 6;

/// How long the control plane waits for a pipeline's Inspect answer.
const INSPECT_TIMEOUT: StdDuration = StdDuration::from_secs(10);

/// How long one control script gets to land before the step that depends
/// on it: a re-admission's gate before the newcomer (whose ungate report
/// must arrive after it) starts, one lease-move round before the next.
const CONTROL_SETTLE: StdDuration = StdDuration::from_millis(2);

/// Snapshot every listed pipeline over its control channel. The inspects
/// fan out first, so a fleet answers concurrently.
fn observe<'a>(ctls: impl Iterator<Item = &'a Sender<Envelope>>) -> Option<Vec<GroupObservation>> {
    let mut pending = Vec::new();
    for ctl in ctls {
        let (otx, orx) = bounded(1);
        ctl.send(Envelope::Inspect(otx)).ok()?;
        pending.push(orx);
    }
    pending
        .into_iter()
        .map(|orx| orx.recv_timeout(INSPECT_TIMEOUT).ok())
        .collect()
}

/// Tell every listed node loop to stop, then wait for all of them.
fn stop_and_join<T>(threads: Vec<(T, Sender<Envelope>, JoinHandle<()>)>) {
    for (_, ctl, _) in &threads {
        let _ = ctl.send(Envelope::Stop);
    }
    for (_, _, join) in threads {
        let _ = join.join();
    }
}

/// One node's connection to its deployment, whatever the substrate.
///
/// Everything that *handles* packets — the per-group switch pipelines, the
/// replica loops, and the [`LiveClient`] shell — is written against this
/// trait, so the threaded drivers share all packet-handling logic and
/// differ only in how bytes move: an in-process channel behind the
/// copy-on-write route table, or a `UdpSocket` behind the deployment's
/// [`AddrBook`](harmonia_net::AddrBook). A link deregisters its node when
/// dropped: a dead endpoint must not keep receiving routes.
pub trait NodeLink: Send {
    /// Send `msg` toward `to`. Never blocks on the receiver; undeliverable
    /// packets — no route, a dead node, a full queue — are dropped (clients
    /// retry — that is the reliability layer).
    fn send(&mut self, to: NodeId, msg: Msg);

    /// Flush a whole outbox, draining `batch` in order. The default loops
    /// the scalar verb (exactly what the channel substrate wants); the UDP
    /// link overrides it to feed the transport's coalescer — per-destination
    /// frames pack back-to-back into full datagrams — and batch kernel
    /// crossings through `sendmmsg`.
    fn send_many(&mut self, batch: &mut Vec<(NodeId, Msg)>) {
        for (to, msg) in batch.drain(..) {
            self.send(to, msg);
        }
    }

    /// The one receive verb: sleep until `deadline` (with `None`, until
    /// there is something to do) for the first envelope, then append every
    /// packet already queued to `inbox`, in arrival order. A driver verb
    /// ends the batch and is returned beside it — `Some` is an
    /// [`Envelope::Inspect`] or [`Envelope::Stop`], never a packet.
    /// `Timeout`: nothing arrived by the deadline; `Disconnected`: the link
    /// can never deliver again (driver shut down).
    fn recv_into(
        &mut self,
        deadline: Option<StdInstant>,
        inbox: &mut Vec<Msg>,
    ) -> Result<Option<Envelope>, RecvTimeoutError>;
}

/// What the threaded rig needs from whatever moves its packets: how a node
/// gets its [`NodeLink`] and control channel, how the spine is published
/// and cleared, how the configuration service reaches nodes, and what the
/// snapshot's fault section reports. Everything else — threads, §5.3
/// verbs, inspection, the [`Cluster`] surface — is [`ThreadedCluster`]'s,
/// written once.
pub trait Substrate: Sized + 'static {
    /// A node's connection to the deployment.
    type Link: NodeLink + 'static;
    /// Where the spine delivers one group's packets.
    type Ingress;
    /// The `driver` label of this substrate's snapshots and thread names.
    const DRIVER: &'static str;
    /// How many spaced rounds a lease move is sent in: 1 where delivery to
    /// a live node is certain, more where even a clean link can lose a
    /// packet (the move is idempotent, and a replica stranded on the old
    /// incarnation would reject the new switch's traffic forever).
    const LEASE_ROUNDS: u32;

    /// The substrate for one deployment of `spec`.
    fn new(spec: &DeploymentSpec) -> Self;

    /// Register every address in `names` — one for a replica, one per lane
    /// for a [`LiveClient`] — onto one link, and hand it back with the
    /// channel its driver verbs ([`Envelope::Stop`]) travel on — the link
    /// must surface a verb sent there even to a loop asleep with no
    /// deadline. `recorder` receives the link's wire counters, where the
    /// substrate has a wire.
    fn attach(&self, names: &[NodeId], recorder: Recorder) -> (Self::Link, Sender<Envelope>);

    /// A link for one switch pipeline — addressed only through the spine,
    /// never by unicast — with its control channel and spine ingress.
    fn attach_pipeline(&self, recorder: Recorder) -> (Self::Link, Sender<Envelope>, Self::Ingress);

    /// Route every address in `names` through `shards` onto `ingress`
    /// (indexed by group), resolved on the sending thread.
    fn publish_spine(&self, names: [NodeId; 2], shards: ShardMap, ingress: Vec<Self::Ingress>);

    /// Unpublish the spine: packets toward the switch vanish.
    fn clear_spine(&self);

    /// Deliver a configuration-service script over a link no fault model
    /// touches.
    fn deliver(&self, script: Vec<(NodeId, Msg)>);

    /// Faults injected so far (all zero where the substrate injects none).
    fn fault_obs(&self) -> FaultObs;
}

/// The channel substrate's link: a route-table handle out, a channel in.
pub struct ChannelLink {
    router: RouterHandle,
    rx: Receiver<Envelope>,
    /// The routes this link owns (none for pipelines, which the spine
    /// addresses).
    owned: Vec<NodeId>,
}

impl NodeLink for ChannelLink {
    fn send(&mut self, to: NodeId, msg: Msg) {
        self.router.send(to, msg);
    }

    fn recv_into(
        &mut self,
        deadline: Option<StdInstant>,
        inbox: &mut Vec<Msg>,
    ) -> Result<Option<Envelope>, RecvTimeoutError> {
        let first = match deadline {
            Some(at) => self.rx.recv_deadline(at)?,
            None => self.rx.recv()?,
        };
        // Whatever queued up behind it comes out under one queue lock.
        for env in std::iter::once(first).chain(self.rx.try_iter()) {
            match env {
                Envelope::Packet(msg) => inbox.push(msg),
                verb => return Ok(Some(verb)),
            }
        }
        Ok(None)
    }
}

impl Drop for ChannelLink {
    fn drop(&mut self) {
        if !self.owned.is_empty() {
            // In-flight packets toward a dead node vanish, like a dead NIC.
            self.router.router.install(|t| {
                for node in &self.owned {
                    t.remove(node);
                }
            });
        }
    }
}

/// Where a destination's packets go.
#[derive(Clone)]
enum Route {
    /// A single node's ingress channel (replicas, clients).
    Unicast(Sender<Envelope>),
    /// The switch: stateless shard-routing onto per-group pipelines,
    /// resolved on the sending thread.
    Spine(Arc<SpinePlan>),
}

/// The stateless routing a spine performs, on the sender's thread: object →
/// group for what the switch acts on, plain forwarding for what it does not.
/// Holds no group state — the pipelines own all of it.
struct SpinePlan {
    shards: ShardMap,
    /// Pipeline ingress channels, indexed by group id.
    groups: Vec<Sender<Envelope>>,
}

impl SpinePlan {
    /// Deliver `msg`, addressed to the switch, wherever
    /// [`PacketBody::switch_route`] says: a pipeline's ingress, every
    /// pipeline's, or — out of `table`, the route table this plan was found
    /// in — a client's.
    fn route(&self, table: &HashMap<NodeId, Route>, msg: Msg) {
        let ingress = match msg.body.switch_route() {
            SwitchRoute::Group(obj) => self.groups.get(self.shards.shard_of(obj) as usize),
            SwitchRoute::AnyGroup => self.groups.first(),
            // Each group's core applies only the changes addressed to it
            // (`GroupCore::handle_control` is membership-guarded).
            SwitchRoute::EveryGroup => {
                for tx in &self.groups {
                    deliver(tx, msg.clone());
                }
                return;
            }
            // Forwarded as sent. A client that is gone drops it.
            SwitchRoute::Client(client) => match table.get(&NodeId::Client(client)) {
                Some(Route::Unicast(tx)) => Some(tx),
                _ => None,
            },
        };
        if let Some(tx) = ingress {
            deliver(tx, msg);
        }
    }
}

/// Enqueue on a node's ingress, or drop: a sender that waited on a full (or
/// dead) queue could never be told to stop.
fn deliver(tx: &Sender<Envelope>, msg: Msg) {
    let _ = tx.try_send(Envelope::Packet(msg));
}

/// The route table. Registrations copy-on-write a shared snapshot and bump
/// a generation counter; senders go through a [`RouterHandle`] that caches
/// the snapshot and revalidates it with a single atomic load per send — the
/// steady-state packet path takes **no lock** here.
#[derive(Default)]
struct Router {
    table: Mutex<Arc<HashMap<NodeId, Route>>>,
    generation: AtomicU64,
}

impl Router {
    /// Apply a route-table mutation (copy-on-write, then publish).
    fn install(&self, f: impl FnOnce(&mut HashMap<NodeId, Route>)) {
        let mut guard = self.table.lock();
        let mut next = (**guard).clone();
        f(&mut next);
        *guard = Arc::new(next);
        // Publish while still holding the lock so a handle that observes
        // the new generation and then locks is guaranteed the new table.
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// A sender-side handle with its own cached snapshot.
    fn handle(self: &Arc<Self>) -> RouterHandle {
        let seen = self.generation.load(Ordering::Acquire);
        let cache = Arc::clone(&self.table.lock());
        RouterHandle {
            router: Arc::clone(self),
            cache,
            seen,
        }
    }
}

/// A per-thread sending handle: one relaxed atomic load per send in steady
/// state; the route table is re-snapshotted only after a registration.
struct RouterHandle {
    router: Arc<Router>,
    cache: Arc<HashMap<NodeId, Route>>,
    seen: u64,
}

impl RouterHandle {
    fn send(&mut self, to: NodeId, msg: Msg) {
        let generation = self.router.generation.load(Ordering::Acquire);
        if generation != self.seen {
            self.cache = Arc::clone(&self.router.table.lock());
            self.seen = generation;
        }
        match self.cache.get(&to) {
            Some(Route::Unicast(tx)) => deliver(tx, msg),
            Some(Route::Spine(plan)) => plan.route(&self.cache, msg),
            None => {}
        }
    }
}

/// The in-process substrate: crossbeam channels behind a copy-on-write
/// route table.
#[derive(Default)]
pub struct Channels {
    router: Arc<Router>,
}

impl Channels {
    fn link(&self, rx: Receiver<Envelope>, owned: Vec<NodeId>) -> ChannelLink {
        ChannelLink {
            router: self.router.handle(),
            rx,
            owned,
        }
    }
}

impl Substrate for Channels {
    type Link = ChannelLink;
    type Ingress = Sender<Envelope>;
    const DRIVER: &'static str = "live";
    const LEASE_ROUNDS: u32 = 1;

    fn new(_spec: &DeploymentSpec) -> Self {
        Channels::default()
    }

    fn attach(&self, names: &[NodeId], _recorder: Recorder) -> (ChannelLink, Sender<Envelope>) {
        // A client's queue is bounded — nobody can make it listen — at
        // 1 024 envelopes for every client name that shares it.
        let (tx, rx) = match names {
            [NodeId::Client(_), ..] => bounded(1024 * names.len()),
            _ => unbounded(),
        };
        self.router.install(|t| {
            for &name in names {
                t.insert(name, Route::Unicast(tx.clone()));
            }
        });
        (self.link(rx, names.to_vec()), tx)
    }

    fn attach_pipeline(
        &self,
        _recorder: Recorder,
    ) -> (ChannelLink, Sender<Envelope>, Sender<Envelope>) {
        let (tx, rx) = unbounded();
        (self.link(rx, Vec::new()), tx.clone(), tx)
    }

    fn publish_spine(&self, names: [NodeId; 2], shards: ShardMap, groups: Vec<Sender<Envelope>>) {
        let plan = Arc::new(SpinePlan { shards, groups });
        self.router.install(|t| {
            for name in names {
                t.insert(name, Route::Spine(Arc::clone(&plan)));
            }
        });
    }

    fn clear_spine(&self) {
        self.router
            .install(|t| t.retain(|_, route| matches!(route, Route::Unicast(_))));
    }

    fn deliver(&self, script: Vec<(NodeId, Msg)>) {
        let mut router = self.router.handle();
        for (to, msg) in script {
            router.send(to, msg);
        }
    }

    fn fault_obs(&self) -> FaultObs {
        FaultObs::default()
    }
}

/// Errors a live client can observe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiveError {
    /// No (complete) reply within the deadline, after all retries.
    TimedOut,
    /// The cluster is shutting down.
    Disconnected,
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::TimedOut => write!(f, "request timed out"),
            LiveError::Disconnected => write!(f, "cluster is shut down"),
        }
    }
}

impl std::error::Error for LiveError {}

/// One lane of a [`LiveClient`]: a client in its own right — its own id,
/// request ids and operation in flight — with the plan it works through.
struct Lane {
    core: ClientCore,
    /// Operations not begun yet, in order.
    plan: VecDeque<OpSpec>,
    /// Finished operations, in plan order.
    records: Vec<RecordedOp>,
    /// When the attempt in flight stops waiting for its reply; `None`
    /// while nothing is in flight.
    deadline: Option<StdInstant>,
    /// What the core made of the batch being dispatched.
    step: Option<Step>,
}

/// The client shell of the threaded drivers — the one reply / timeout loop
/// they have, identical on every substrate: lanes, each a `ClientCore` with
/// a [`ClientId`] of its own (a replica's client table admits one request
/// per client id, so operations in flight together must come from distinct
/// clients), multiplexed on **one** link that answers to every lane's
/// address, on the thread of whoever calls it.
///
/// [`ThreadedCluster::client`] hands out the shell with one lane: a
/// synchronous key-value client whose [`get`](Self::get) and
/// [`set`](Self::set) push one operation through the loop.
/// [`ThreadedCluster::load`] hands it out with one lane per plan, and
/// [`run`](Self::run) keeps every lane's next operation in flight until the
/// plans are through — the load half of [`Cluster::run_plans`], movable to a
/// thread of its own while the cluster is put through its §5.3 verbs.
///
/// Every pass of the loop sleeps on the link until the earliest attempt
/// deadline, takes *everything* queued, hands each reply to its lane's core,
/// expires the lanes whose attempt ran out, begins the next operation of
/// every lane that finished, and flushes what all of that produced in one
/// [`NodeLink::send_many`] — so the transport sees a burst, not a packet.
pub struct LiveClient {
    lanes: Vec<Lane>,
    /// Lane `i` is client `first + i`: a reply finds its lane by
    /// subtraction.
    first: u32,
    link: Box<dyn NodeLink>,
    switch: NodeId,
    /// Shared by the link and every lane's core (one registry shard); the
    /// shell reads its clock for the stamps of a pass.
    recorder: Recorder,
    /// Reused by every pass.
    inbox: Vec<Msg>,
    outbox: Vec<(NodeId, Msg)>,
}

impl LiveClient {
    /// The shell over `link`, which answers to clients `first..` — one per
    /// plan.
    fn over(
        link: Box<dyn NodeLink>,
        spec: &DeploymentSpec,
        first: u32,
        plans: Vec<Vec<OpSpec>>,
        recorder: Recorder,
    ) -> LiveClient {
        let lanes = (first..).zip(plans).map(|(id, plan)| Lane {
            core: ClientCore::new(
                ClientId(id),
                spec.write_replies(),
                CLIENT_ATTEMPTS,
                recorder.clone(),
            ),
            records: Vec::with_capacity(plan.len()),
            plan: plan.into(),
            deadline: None,
            step: None,
        });
        LiveClient {
            lanes: lanes.collect(),
            first,
            link,
            switch: spec.switch_addr(),
            recorder,
            inbox: Vec::new(),
            outbox: Vec::new(),
        }
    }

    /// Read `key`, blocking until the reply (with retry).
    pub fn get(&mut self, key: impl Into<Bytes>) -> Result<Option<Bytes>, LiveError> {
        self.run_one(OpSpec::read(key))
    }

    /// Write `key := value`, blocking until committed (with retry).
    pub fn set(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> Result<(), LiveError> {
        self.run_one(OpSpec::write(key, value)).map(|_| ())
    }

    /// Run every lane's plan to its end and hand back the histories, in
    /// plan order, checker-ready: stamped on the deployment's one clock, so
    /// they order against each other, against every other client of the
    /// deployment and against its [`TraceEvent`]s. If the deployment shuts
    /// down first, what was left is recorded `ok == false`.
    pub fn run(&mut self) -> Vec<Vec<RecordedOp>> {
        // A disconnect is in the records.
        let _ = self.drive();
        self.lanes
            .iter_mut()
            .map(|lane| std::mem::take(&mut lane.records))
            .collect()
    }

    /// One operation through the first lane.
    fn run_one(&mut self, spec: OpSpec) -> Result<Option<Bytes>, LiveError> {
        if let Some(lane) = self.lanes.first_mut() {
            lane.plan.push_back(spec);
        }
        let outcome = self.drive();
        let op = self.lanes.first_mut().and_then(|lane| lane.records.pop());
        outcome?;
        match op {
            Some(op) if op.ok => Ok(op.result),
            Some(_) => Err(LiveError::TimedOut),
            None => Err(LiveError::Disconnected),
        }
    }

    /// Pass after pass until no lane has anything in flight or left to do.
    fn drive(&mut self) -> Result<(), LiveError> {
        while self.pass()? {}
        Ok(())
    }

    /// One pass: receive, dispatch, expire, begin, flush. `Ok(true)` while
    /// an operation is in flight afterwards.
    fn pass(&mut self) -> Result<bool, LiveError> {
        // One wait for all lanes — until the attempt that gives up first
        // does — and none for a shell with nothing in flight yet.
        let earliest = self.lanes.iter().filter_map(|lane| lane.deadline).min();
        let received = match earliest {
            Some(_) => self.link.recv_into(earliest, &mut self.inbox),
            None => Ok(None),
        };
        // The completion stamp of the pass: read once the receive is back,
        // so never earlier than the arrival of a reply it completes.
        let now = self.recorder.now();
        if matches!(
            received,
            Ok(Some(Envelope::Stop)) | Err(RecvTimeoutError::Disconnected)
        ) {
            self.abandon(now);
            return Err(LiveError::Disconnected);
        }
        let wall = StdInstant::now();
        for msg in self.inbox.drain(..) {
            let PacketBody::Reply(reply) = msg.body else {
                continue;
            };
            // A reply for a client outside the block finds no lane; one for
            // a request already over, a core that ignores it.
            let lane = (reply.client.0.checked_sub(self.first))
                .and_then(|i| self.lanes.get_mut(i as usize));
            if let Some(lane) = lane {
                // The core sees every reply of the batch; its last word
                // stands (a quorum completed by a later reply outranks a
                // retry that an earlier, rejected one asked for).
                lane.step = lane.core.on_reply(now, reply).or(lane.step.take());
            }
        }
        // The invocation stamp of the pass: read after its completions are
        // decided and before the flush, so never later than the send — and
        // an operation never shares an instant with the one it follows on
        // its lane, which is where a checker cuts a long history.
        let invoked = self.recorder.now();
        let switch = self.switch;
        for lane in &mut self.lanes {
            if lane.step.is_none() && lane.deadline.is_some_and(|at| at <= wall) {
                lane.step = lane.core.on_timeout(now);
            }
            let mut request = None;
            match lane.step.take() {
                Some(Step::Retry(again)) => request = Some(again),
                Some(Step::Done(op)) => {
                    lane.records.push(op.record(now));
                    lane.deadline = None;
                }
                None => {}
            }
            // A lane with nothing in flight begins the next operation of
            // its plan. Keys and values move by refcount from the plan into
            // the request and the record: nothing is allocated per
            // operation.
            if lane.deadline.is_none() {
                request = (lane.plan.pop_front()).map(|spec| lane.core.begin(invoked, spec));
            }
            if let Some(req) = request {
                lane.deadline = Some(wall + CLIENT_TIMEOUT);
                let me = lane.core.node();
                (self.outbox).push((switch, Msg::new(me, switch, PacketBody::Request(req))));
            }
        }
        if !self.outbox.is_empty() {
            self.link.send_many(&mut self.outbox);
        }
        Ok(self.lanes.iter().any(|lane| lane.deadline.is_some()))
    }

    /// The link can never deliver again: every operation in flight or not
    /// begun is recorded `ok == false`, once, in plan order.
    fn abandon(&mut self, now: Instant) {
        self.inbox.clear();
        for lane in &mut self.lanes {
            lane.deadline = None;
            let in_flight = lane.core.abandon(now);
            let not_begun = lane.plan.drain(..).map(|spec| Finished {
                spec,
                invoked: now,
                result: None,
                ok: false,
            });
            (lane.records).extend(
                in_flight
                    .into_iter()
                    .chain(not_begun)
                    .map(|op| op.record(now)),
            );
        }
    }
}

impl KvClient for LiveClient {
    fn get_bytes(&mut self, key: Bytes) -> Result<Option<Bytes>, LiveError> {
        self.get(key)
    }

    fn set_bytes(&mut self, key: Bytes, value: Bytes) -> Result<(), LiveError> {
        self.set(key, value)
    }
}

/// The whole switch of one incarnation: a fleet of per-group pipeline
/// threads, each with the control channel it is inspected and stopped on.
struct SwitchFleet {
    incarnation: SwitchId,
    pipelines: Vec<(GroupId, Sender<Envelope>, JoinHandle<()>)>,
}

/// A deployment on OS threads — one replica group or many, exactly as its
/// [`DeploymentSpec`] describes — over substrate `S`: the switch pipeline
/// fleet, one thread per replica, and the configuration service's §5.3
/// verbs. All of it is reachable through [`Cluster`]; the inherent methods
/// are what the trait cannot express (a concrete [`LiveClient`] from
/// `&self`, the per-group [`switch_view`](Self::switch_view)).
pub struct ThreadedCluster<S: Substrate> {
    spec: DeploymentSpec,
    pub(crate) substrate: S,
    replicas: Vec<(ReplicaId, Sender<Envelope>, JoinHandle<()>)>,
    switch: Option<SwitchFleet>,
    next_client: AtomicU32,
    /// Observability: every pipeline, replica loop, link, and client shards
    /// into this registry; the clock is the rig's single monotonic epoch.
    registry: Registry,
}

/// An in-process deployment: threads connected by channels
/// ([`DeploymentSpec::spawn_live`]).
pub type LiveCluster = ThreadedCluster<Channels>;

impl<S: Substrate> ThreadedCluster<S> {
    /// Spawn the switch pipeline fleet and every group's replica threads
    /// for `spec`.
    pub fn new(spec: &DeploymentSpec) -> Self {
        let mut cluster = ThreadedCluster {
            spec: spec.clone(),
            substrate: S::new(spec),
            replicas: Vec::new(),
            switch: None,
            next_client: AtomicU32::new(1),
            registry: Registry::with_clock(Arc::new(MonotonicClock::new())),
        };
        cluster.spawn_switch(spec.initial_switch());
        for g in 0..spec.groups {
            for i in 0..spec.replicas {
                cluster.spawn_replica(spec.group_config(g, i), None);
            }
        }
        cluster
    }

    /// Spawn the pipeline fleet of `incarnation`: one thread per hosted
    /// group, each taking exclusive ownership of its group's fresh state.
    /// The fleet receives on the stable client-facing address and on its
    /// own incarnation's address (replicas reply to the lease holder); both
    /// resolve through the same stateless shard router.
    fn spawn_switch(&mut self, incarnation: SwitchId) {
        let core = SwitchCore::for_deployment(&self.spec, incarnation);
        let shards = core.shard_map();
        let me = self.spec.switch_addr();
        // Idle pipelines sweep stale dirty entries this often.
        let sweep = (self.spec.sweep_interval).map_or(StdDuration::from_millis(10), |d| d.to_std());
        let mut pipelines = Vec::new();
        let mut ingress = Vec::new();
        for mut core in core.into_group_cores() {
            // One recorder shard per pipeline: counters and traces stay
            // thread-local on the packet path, merged only on snapshot.
            core.set_recorder(self.registry.handle());
            let group = core.group();
            let (link, ctl, into) = self.substrate.attach_pipeline(self.registry.handle());
            let join = std::thread::Builder::new()
                .name(format!(
                    "{}-switch-{}-g{}",
                    S::DRIVER,
                    incarnation.0,
                    group.0
                ))
                .spawn(move || pipeline_main(core, link, me, sweep))
                // lint:allow(panic_path): deployment bring-up, not the data
                // plane — thread-spawn failure means the host is out of
                // resources before any traffic exists.
                .expect("spawn switch pipeline thread");
            ingress.push(into);
            pipelines.push((group, ctl, join));
        }
        self.substrate
            .publish_spine([me, NodeId::Switch(incarnation)], shards, ingress);
        self.switch = Some(SwitchFleet {
            incarnation,
            pipelines,
        });
    }

    /// Spawn one replica thread; with `recover_from` set, a *fresh* replica
    /// that catches up from that peer before serving.
    fn spawn_replica(&mut self, config: GroupConfig, recover_from: Option<ReplicaId>) {
        let me = config.me;
        let (link, ctl) = self
            .substrate
            .attach(&[NodeId::Replica(me)], self.registry.handle());
        let node = ReplicaNode::new(build_replica(config), recover_from, self.registry.handle());
        let join = std::thread::Builder::new()
            .name(format!("{}-replica-{}", S::DRIVER, me.0))
            .spawn(move || replica_main(me, node, link))
            // lint:allow(panic_path): deployment bring-up (see spawn_switch).
            .expect("spawn replica thread");
        self.replicas.push((me, ctl, join));
    }

    /// Stop and join replica threads; each link's drop takes its node out
    /// of the substrate, so packets toward it vanish mid-flight.
    fn stop_replicas(&mut self, which: impl Fn(ReplicaId) -> bool) {
        let (stopped, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut self.replicas)
            .into_iter()
            .partition(|(r, ..)| which(*r));
        self.replicas = kept;
        stop_and_join(stopped);
    }

    /// Create a synchronous client handle: the client shell with one lane.
    /// Clients address the switch; the spine routes each request to its
    /// key's group on the sending thread — clients never know, which is the
    /// §4 philosophy.
    pub fn client(&self) -> LiveClient {
        self.load(vec![Vec::new()])
    }

    /// The client shell with one lane per plan — distinct clients with a
    /// contiguous block of ids, on one link — ready to [`run`](LiveClient::run)
    /// them. [`Cluster::run_plans`] is `load(plans).run()`; a harness that
    /// fails the switch or a replica *during* the load moves the shell to a
    /// thread and keeps the cluster.
    pub fn load(&self, plans: Vec<Vec<OpSpec>>) -> LiveClient {
        let lanes = plans.len() as u32;
        let first = self.next_client.fetch_add(lanes, Ordering::Relaxed);
        let names: Vec<NodeId> = (first..first + lanes)
            .map(|c| NodeId::Client(ClientId(c)))
            .collect();
        // One shard for the link and every lane. Clients have no driver
        // verbs; their control channel is unused.
        let recorder = self.registry.handle();
        let (link, _) = self.substrate.attach(&names, recorder.clone());
        LiveClient::over(Box::new(link), &self.spec, first, plans, recorder)
    }

    /// Snapshot one group's pipeline state.
    fn observe_group(&self, group: GroupId) -> Option<GroupObservation> {
        let fleet = self.switch.as_ref()?;
        let ctl = fleet.pipelines.iter().find(|p| p.0 == group).map(|p| &p.1);
        observe(ctl.into_iter())?.pop()
    }

    /// Aggregate-only view across every pipeline (per-group snapshots);
    /// `None` while the switch is down.
    pub fn switch_view(&self) -> Option<SpineView> {
        let fleet = self.switch.as_ref()?;
        observe(fleet.pipelines.iter().map(|p| &p.1)).map(SpineView::new)
    }

    /// Stop every thread and wait for them. (Dropping the cluster does the
    /// same; this form just makes the teardown point explicit.)
    pub fn shutdown(self) {}
}

impl<S: Substrate> Drop for ThreadedCluster<S> {
    fn drop(&mut self) {
        self.kill_switch();
        self.stop_replicas(|_| true);
    }
}

impl<S: Substrate> Cluster for ThreadedCluster<S> {
    fn spec(&self) -> &DeploymentSpec {
        &self.spec
    }

    fn client(&mut self) -> Box<dyn KvClient + '_> {
        Box::new(Self::client(self))
    }

    /// Every per-group pipeline of the incarnation stops and is joined. The
    /// spine is unpublished first, so requests already in flight or sent
    /// later vanish — clients time out and retry, exactly the Figure 10
    /// outage.
    fn kill_switch(&mut self) {
        if let Some(fleet) = self.switch.take() {
            self.substrate.clear_spine();
            stop_and_join(fleet.pipelines);
        }
    }

    /// A fresh pipeline fleet — fresh dirty sets and sequence spaces for
    /// *every* hosted group — at the same client-facing address, then the
    /// lease move.
    fn replace_switch(&mut self, new_id: SwitchId) {
        self.kill_switch();
        self.spawn_switch(new_id);
        for round in 0..S::LEASE_ROUNDS {
            if round > 0 {
                std::thread::sleep(CONTROL_SETTLE);
            }
            self.substrate
                .deliver(control::lease_move(&self.spec, new_id));
        }
    }

    fn kill_replica(&mut self, r: ReplicaId) {
        self.stop_replicas(|m| m == r);
        self.substrate
            .deliver(control::removal(&self.spec, self.spec.switch_addr(), r));
    }

    fn restart_replica(&mut self, r: ReplicaId) {
        let lease = self
            .switch_incarnation()
            .unwrap_or(self.spec.initial_switch());
        let plan = control::readmission(&self.spec, self.spec.switch_addr(), lease, r);
        self.substrate.deliver(plan.script);
        // A short settle keeps the gate ahead of the newcomer's ungate
        // report.
        std::thread::sleep(CONTROL_SETTLE);
        self.spawn_replica(plan.config, Some(plan.peer));
    }

    fn switch_stats(&self) -> Option<SwitchStats> {
        self.switch_view().map(|v| v.stats())
    }

    fn group_stats(&self, group: GroupId) -> Option<SwitchStats> {
        self.observe_group(group).map(|o| o.stats)
    }

    fn fast_path_enabled(&self) -> Option<bool> {
        self.group_fast_path_enabled(GroupId(0))
    }

    fn group_fast_path_enabled(&self, group: GroupId) -> Option<bool> {
        self.observe_group(group).map(|o| o.fast_path_enabled)
    }

    fn switch_memory_bytes(&self) -> Option<usize> {
        self.switch_view().map(|v| v.memory_bytes())
    }

    fn switch_incarnation(&self) -> Option<SwitchId> {
        self.switch.as_ref().map(|f| f.incarnation)
    }

    fn obs_snapshot(&self) -> ObsSnapshot {
        let rs = self.registry.snapshot();
        let mut snap = ObsSnapshot {
            driver: S::DRIVER,
            protocol: self.spec.protocol.name(),
            groups: self.spec.groups as u32,
            replicas: self.spec.replicas as u32,
            taken_at_ns: self.registry.clock().now().nanos(),
            faults: self.substrate.fault_obs(),
            ..ObsSnapshot::default()
        };
        snap.apply_recorder(&rs);
        if let Some(view) = self.switch_view() {
            let (switch, per_group) = spine_obs(&view, rs.counter(Counter::SwitchSwept));
            snap.switch = switch;
            snap.per_group = per_group;
        }
        snap
    }

    fn trace_events(&self) -> Vec<TraceEvent> {
        self.registry.trace_events()
    }

    /// One load thread — the caller's: every plan is a lane of one
    /// [`LiveClient`], whose records are stamped on the registry clock.
    fn run_plans(&mut self, plans: Vec<Vec<OpSpec>>) -> Vec<Vec<RecordedOp>> {
        self.load(plans).run()
    }
}

/// A per-group pipeline: exclusively owns one group's switch state and runs
/// every batch to completion — fill the inbox, handle all of it, flush once.
/// Stale dirty entries are swept when it has been idle for `sweep`, and only
/// while a sweep could reclaim something; otherwise it sleeps untimed.
/// Generic over the [`NodeLink`]: the same loop serves the channel driver
/// and the UDP driver.
fn pipeline_main(mut core: GroupCore, mut link: impl NodeLink, me: NodeId, sweep: StdDuration) {
    let mut rng = SmallRng::seed_from_u64(
        0x5717c4 ^ u64::from(core.incarnation().0) ^ (u64::from(core.group().0) << 32),
    );
    let mut inbox: Vec<Msg> = Vec::new();
    let mut out: Vec<(NodeId, Msg)> = Vec::new();
    loop {
        // Idle-driven, not periodic: a busy pipeline never gets here with
        // time to spare, and its reads scrub stale entries as they probe.
        let idle_at = core.sweep_pending().then(|| StdInstant::now() + sweep);
        let verb = match link.recv_into(idle_at, &mut inbox) {
            Ok(verb) => verb,
            Err(RecvTimeoutError::Timeout) => {
                core.sweep();
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        for msg in inbox.drain(..) {
            let now = core.recorder().now();
            core.handle(now, me, msg, &mut rng, &mut out);
        }
        link.send_many(&mut out);
        match verb {
            Some(Envelope::Inspect(reply)) => {
                let _ = reply.send(core.observe());
            }
            Some(Envelope::Stop) => return,
            _ => {}
        }
    }
}

/// A replica's event loop: feed packets and ticks to its `ReplicaNode`,
/// send what a whole batch produced in one flush (one `sendmmsg` run on the
/// UDP link). A protocol without a tick sleeps untimed. Generic over the
/// [`NodeLink`], so the same loop serves every substrate.
fn replica_main(me: ReplicaId, mut node: ReplicaNode, mut link: impl NodeLink) {
    let mut inbox: Vec<Msg> = Vec::new();
    let mut outbox: Vec<(NodeId, Msg)> = Vec::new();
    node.start(me, &mut outbox);
    link.send_many(&mut outbox);
    let tick = node.tick_interval().map(|d| d.to_std());
    let mut next_tick = tick.map(|t| StdInstant::now() + t);
    loop {
        match link.recv_into(next_tick, &mut inbox) {
            Ok(Some(Envelope::Stop)) | Err(RecvTimeoutError::Disconnected) => break,
            Ok(_) | Err(RecvTimeoutError::Timeout) => {}
        }
        for msg in inbox.drain(..) {
            let now = node.recorder().now();
            node.on_packet(now, me, msg, &mut outbox);
        }
        if let (Some(at), Some(iv)) = (next_tick, tick) {
            if StdInstant::now() >= at {
                node.on_tick(me, &mut outbox);
                next_tick = Some(StdInstant::now() + iv);
            }
        }
        link.send_many(&mut outbox);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_replication::ProtocolKind;

    fn roundtrip(protocol: ProtocolKind, harmonia: bool) {
        let cluster = DeploymentSpec::new()
            .protocol(protocol)
            .harmonia(harmonia)
            .spawn_live();
        let mut client = cluster.client();
        assert_eq!(client.get("missing").unwrap(), None);
        client.set("alpha", "1").unwrap();
        client.set("beta", "2").unwrap();
        client.set("alpha", "3").unwrap();
        assert_eq!(client.get("alpha").unwrap(), Some(Bytes::from_static(b"3")));
        assert_eq!(client.get("beta").unwrap(), Some(Bytes::from_static(b"2")));
        cluster.shutdown();
    }

    #[test]
    fn live_chain_harmonia_roundtrip() {
        roundtrip(ProtocolKind::Chain, true);
    }

    #[test]
    fn live_chain_baseline_roundtrip() {
        roundtrip(ProtocolKind::Chain, false);
    }

    #[test]
    fn live_pb_roundtrip() {
        roundtrip(ProtocolKind::PrimaryBackup, true);
    }

    #[test]
    fn live_craq_roundtrip() {
        roundtrip(ProtocolKind::Craq, false);
    }

    #[test]
    fn live_vr_roundtrip() {
        roundtrip(ProtocolKind::Vr, true);
    }

    #[test]
    fn live_nopaxos_roundtrip() {
        roundtrip(ProtocolKind::Nopaxos, true);
    }

    #[test]
    fn two_clients_see_each_others_writes() {
        let cluster = DeploymentSpec::new().spawn_live();
        let mut a = cluster.client();
        let mut b = cluster.client();
        a.set("shared", "from-a").unwrap();
        assert_eq!(
            b.get("shared").unwrap(),
            Some(Bytes::from_static(b"from-a"))
        );
        b.set("shared", "from-b").unwrap();
        assert_eq!(
            a.get("shared").unwrap(),
            Some(Bytes::from_static(b"from-b"))
        );
        cluster.shutdown();
    }

    #[test]
    fn sharded_live_roundtrip_touches_every_group() {
        let cluster = DeploymentSpec::new().groups(4).spawn_live();
        let mut client = cluster.client();
        for i in 0..40 {
            client.set(format!("k{i}"), format!("v{i}")).unwrap();
        }
        for i in 0..40 {
            assert_eq!(
                client.get(format!("k{i}")).unwrap(),
                Some(Bytes::from(format!("v{i}")))
            );
        }
        for g in 0..4 {
            let stats = cluster.group_stats(GroupId(g)).unwrap();
            assert!(stats.writes_forwarded > 0, "group {g}: {stats:?}");
        }
        // The aggregate-only view folds the same per-pipeline snapshots.
        let view = cluster.switch_view().unwrap();
        assert_eq!(view.group_count(), 4);
        assert_eq!(view.stats(), cluster.switch_stats().unwrap());
        cluster.shutdown();
    }

    /// Every group's state is owned by exactly one pipeline thread — the
    /// fleet has one thread per group, and per-group counters are disjoint
    /// (a packet shows up in exactly one group's stats).
    #[test]
    fn per_group_pipelines_keep_disjoint_counters() {
        let cluster = DeploymentSpec::new().groups(3).spawn_live();
        assert_eq!(
            cluster.switch.as_ref().unwrap().pipelines.len(),
            3,
            "one pipeline per group"
        );
        let mut client = cluster.client();
        for i in 0..30 {
            client.set(format!("key-{i}"), "v").unwrap();
        }
        let view = cluster.switch_view().unwrap();
        let sum: u64 = view.groups().iter().map(|o| o.stats.writes_forwarded).sum();
        assert_eq!(sum, cluster.switch_stats().unwrap().writes_forwarded);
        assert_eq!(sum, 30);
        cluster.shutdown();
    }

    /// `NodeLink::send` never waits: a node that meets a client's full
    /// ingress queue — the tail here, whose read replies the spine forwards
    /// straight to the client — drops the reply and carries on: it keeps
    /// serving, and it still sees `Stop`. (A blocking send here parked the
    /// sender for good and `shutdown` never returned.)
    #[test]
    fn full_client_queue_drops_packets_and_never_blocks_the_sender() {
        use harmonia_types::RequestId;
        let (done_tx, done_rx) = bounded(1);
        std::thread::spawn(move || {
            let cluster = DeploymentSpec::new().spawn_live();
            // A client that asks 2 000 times and never listens. No write has
            // completed, so every read takes the normal path through the
            // tail, which answers in request order.
            let mut deaf = cluster.client();
            let id = ClientId(deaf.first);
            let me = NodeId::Client(id);
            for n in 0..2_000 {
                let req = OpSpec::read("k").request(id, RequestId(n));
                let to = deaf.switch;
                deaf.link
                    .send(to, Msg::new(me, to, PacketBody::Request(req)));
            }
            // Served behind all of them: the tail got past the full queue.
            assert_eq!(cluster.client().get("k").unwrap(), None);
            // The queue kept its bound; the overflow was dropped.
            let mut kept = Vec::new();
            while deaf
                .link
                .recv_into(Some(StdInstant::now()), &mut kept)
                .is_ok()
            {}
            assert_eq!(kept.len(), 1024);
            cluster.shutdown();
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(StdDuration::from_secs(60))
            .expect("a sender blocked on the full client queue");
    }

    /// A read is three hops: its reply carries nothing for the switch and
    /// does not stop at it. A chain write's reply carries the completion and
    /// still does — so R reads and W writes are R + 2·W packets through the
    /// pipelines, with every completion snooped and nothing left dirty.
    #[test]
    fn pipelines_handle_one_packet_per_read_and_two_per_write() {
        fn check<S: Substrate>() {
            let (reads, writes) = (40, 9);
            let cluster = ThreadedCluster::<S>::new(&DeploymentSpec::new());
            let mut client = cluster.client();
            for n in 0..writes {
                client.set(format!("k{}", n % 4), "v").unwrap();
            }
            // Hits on k0..k3, a miss on k4: every one answered.
            for n in 0..reads {
                let want = (n % 5 < 4).then(|| Bytes::from_static(b"v"));
                assert_eq!(client.get(format!("k{}", n % 5)).unwrap(), want);
            }
            let view = cluster.switch_view().unwrap();
            let counted = cluster.registry.snapshot().counter(Counter::SwitchPackets);
            cluster.shutdown();
            assert_eq!(counted, reads + 2 * writes, "{}", S::DRIVER);
            let stats = view.stats();
            assert_eq!(stats.completions, writes, "{}: {stats:?}", S::DRIVER);
            assert_eq!(stats.reads_fast_path + stats.reads_normal, reads);
            assert_eq!(view.groups()[0].dirty_len, 0, "{}", S::DRIVER);
        }
        check::<Channels>();
        check::<crate::udp::Sockets>();
    }

    /// The short route is the spine's forwarding, not a way around an
    /// outage: a replica still addresses the switch, so once `kill_switch`
    /// has cleared the spine its read reply resolves to nothing and reaches
    /// no client (§5.3, Figure 10) — on either substrate.
    #[test]
    fn a_read_reply_sent_after_kill_switch_reaches_no_client() {
        fn check<S: Substrate>() {
            use harmonia_types::RequestId;
            let mut cluster = ThreadedCluster::<S>::new(&DeploymentSpec::new());
            let mut client = cluster.client();
            let id = ClientId(client.first);
            // A replica's link, driven by hand.
            let replica = ReplicaId(99);
            let (mut link, _ctl) = cluster
                .substrate
                .attach(&[NodeId::Replica(replica)], cluster.registry.handle());
            let to = NodeId::Switch(cluster.spec.initial_switch());
            let mut send_reply = |n| {
                let req = OpSpec::read("k").request(id, RequestId(n));
                let reply = harmonia_replication::common::read_reply(replica, &req, None);
                let msg = Msg::new(NodeId::Replica(replica), to, PacketBody::Reply(reply));
                link.send(to, msg);
            };
            let mut got = Vec::new();
            let mut heard = |wait: StdDuration| {
                let _ = client
                    .link
                    .recv_into(Some(StdInstant::now() + wait), &mut got);
                got.drain(..).count()
            };
            // While the spine stands, the reply is forwarded to the client.
            send_reply(1);
            assert_eq!(heard(StdDuration::from_secs(10)), 1, "{}", S::DRIVER);
            cluster.kill_switch();
            send_reply(2);
            assert_eq!(heard(StdDuration::from_millis(100)), 0, "{}", S::DRIVER);
        }
        check::<Channels>();
        check::<crate::udp::Sockets>();
    }

    /// A link that reports the deadline of every receive, so a test can see
    /// when the loop behind it sleeps untimed.
    struct Probe<L> {
        link: L,
        waits: Sender<Option<StdInstant>>,
    }

    impl<L: NodeLink> NodeLink for Probe<L> {
        fn send(&mut self, to: NodeId, msg: Msg) {
            self.link.send(to, msg);
        }

        fn recv_into(
            &mut self,
            deadline: Option<StdInstant>,
            inbox: &mut Vec<Msg>,
        ) -> Result<Option<Envelope>, RecvTimeoutError> {
            let _ = self.waits.send(deadline);
            self.link.recv_into(deadline, inbox)
        }
    }

    /// The sweep is idle-driven and armed only while it could reclaim
    /// something: an entry whose completion was lost goes once the commit
    /// point has passed it, and then — stray live entry or not — the
    /// pipeline sleeps with no timer.
    #[test]
    fn idle_pipeline_sweeps_what_went_stale_then_sleeps_untimed() {
        use harmonia_types::{ObjectId, RequestId, SwitchSeq, WriteCompletion};
        let spec = DeploymentSpec::new();
        let registry = Registry::with_clock(Arc::new(MonotonicClock::new()));
        let mut cores = SwitchCore::for_deployment(&spec, spec.initial_switch()).into_group_cores();
        let mut core = cores.pop().unwrap();
        core.set_recorder(registry.handle());
        let me = spec.switch_addr();
        let (link, ctl, ingress) = Channels::default().attach_pipeline(registry.handle());
        let (waits, waited) = unbounded();
        let pipeline = std::thread::spawn(move || {
            pipeline_main(core, Probe { link, waits }, me, StdDuration::from_millis(2))
        });
        let next_wait = || waited.recv_timeout(StdDuration::from_secs(10)).unwrap();
        let inspect = || observe(std::iter::once(&ctl)).unwrap().pop().unwrap();
        let write = |key: &'static str, n: u64| {
            let req = OpSpec::write(key, "v").request(ClientId(1), RequestId(n));
            let msg = Msg::new(NodeId::Client(ClientId(1)), me, PacketBody::Request(req));
            ingress.send(Envelope::Packet(msg)).unwrap();
        };
        assert_eq!(next_wait(), None, "an empty dirty set arms no timer");

        // Two stamped writes; only the second one's completion arrives.
        write("a", 0);
        write("b", 1);
        let done = WriteCompletion {
            obj: ObjectId::from_key(b"b"),
            seq: SwitchSeq::new(spec.initial_switch(), 2),
        };
        let msg = Msg::new(me, me, PacketBody::Completion(done));
        ingress.send(Envelope::Packet(msg)).unwrap();
        // Timed waits while "a" sits below the commit point, until one runs
        // out and the sweep reclaims it; then no timer again.
        while next_wait().is_none() {}
        while next_wait().is_some() {}
        assert_eq!(inspect().dirty_len, 0);
        assert_eq!(registry.snapshot().counter(Counter::SwitchSwept), 1);

        // A stray entry above the commit point is not worth waking for.
        write("c", 2);
        assert_eq!(inspect().dirty_len, 1);
        ctl.send(Envelope::Stop).unwrap();
        pipeline.join().unwrap();
        assert!(
            waited.try_iter().all(|wait| wait.is_none()),
            "nothing left to reclaim, yet the pipeline armed a sweep timer"
        );
    }

    /// One receive of a [`Scripted`] link.
    enum Recv {
        /// These packets, `after` this long.
        Batch(StdDuration, Vec<Msg>),
        /// Nothing: sleep to the deadline the shell asked for.
        Timeout,
    }

    /// A link that plays a script to the shell and reports what the shell
    /// did: every request sent, the deadline of every receive. Past the end
    /// of the script it is disconnected.
    struct Scripted {
        script: VecDeque<Recv>,
        sent: Sender<harmonia_types::ClientRequest>,
        waits: Sender<StdInstant>,
    }

    impl NodeLink for Scripted {
        fn send(&mut self, _to: NodeId, msg: Msg) {
            if let PacketBody::Request(req) = msg.body {
                let _ = self.sent.send(req);
            }
        }

        fn recv_into(
            &mut self,
            deadline: Option<StdInstant>,
            inbox: &mut Vec<Msg>,
        ) -> Result<Option<Envelope>, RecvTimeoutError> {
            let deadline = deadline.expect("the shell waits for a reply with a deadline");
            let _ = self.waits.send(deadline);
            match self.script.pop_front() {
                Some(Recv::Batch(after, msgs)) => {
                    std::thread::sleep(after);
                    inbox.extend(msgs);
                    Ok(None)
                }
                Some(Recv::Timeout) => {
                    std::thread::sleep(deadline.saturating_duration_since(StdInstant::now()));
                    Err(RecvTimeoutError::Timeout)
                }
                None => Err(RecvTimeoutError::Disconnected),
            }
        }
    }

    /// What a scripted shell leaves behind for its test.
    struct Played {
        client: LiveClient,
        sent: Receiver<harmonia_types::ClientRequest>,
        waits: Receiver<StdInstant>,
        registry: Registry,
    }

    impl Played {
        /// `(client, request id)` of everything sent so far, in order.
        fn sent(&self) -> Vec<(u32, u64)> {
            let sent = self.sent.try_iter();
            sent.map(|req| (req.client.0, req.request.0)).collect()
        }
    }

    /// The first client id of every scripted shell: lane `i` is client
    /// `FIRST + i`.
    const FIRST: u32 = 40;

    /// A shell with one lane per plan over a link that plays `script`.
    fn scripted(plans: Vec<Vec<OpSpec>>, script: Vec<Recv>) -> Played {
        let registry = Registry::with_clock(Arc::new(MonotonicClock::new()));
        let (sent_tx, sent) = unbounded();
        let (waits_tx, waits) = unbounded();
        let link = Scripted {
            script: script.into(),
            sent: sent_tx,
            waits: waits_tx,
        };
        let spec = DeploymentSpec::new();
        let client = LiveClient::over(Box::new(link), &spec, FIRST, plans, registry.handle());
        Played {
            client,
            sent,
            waits,
            registry,
        }
    }

    /// Replica 0's reply to `client`'s request `rid`.
    fn reply(client: u32, rid: u64, value: Option<&'static str>) -> Msg {
        outcome(client, rid, 0, value, None)
    }

    fn outcome(
        client: u32,
        rid: u64,
        from: u32,
        value: Option<&'static str>,
        write_outcome: Option<harmonia_types::WriteOutcome>,
    ) -> Msg {
        let reply = harmonia_types::ClientReply {
            client: ClientId(client),
            from: ReplicaId(from),
            request: harmonia_types::RequestId(rid),
            obj: harmonia_types::ObjectId::from_key(b"k"),
            value: value.map(Bytes::from),
            write_outcome,
            completion: None,
        };
        let to = NodeId::Client(ClientId(client));
        Msg::new(
            NodeId::Replica(ReplicaId(from)),
            to,
            PacketBody::Reply(reply),
        )
    }

    fn now_batch(msgs: Vec<Msg>) -> Recv {
        Recv::Batch(StdDuration::ZERO, msgs)
    }

    /// Replies reach their lane by client id whatever order they arrive in;
    /// a reply for a client outside the block, and a stale one for a request
    /// its lane has finished, change nothing. Every lane's next operation is
    /// invoked strictly after the one it follows completed.
    #[test]
    fn interleaved_replies_find_their_lanes_and_strays_are_ignored() {
        let plans = (0..3)
            .map(|_| vec![OpSpec::read("k"), OpSpec::read("k")])
            .collect();
        let script = vec![
            // Lanes 2 and 0 first, around two strangers.
            now_batch(vec![
                reply(FIRST + 2, 0, Some("c0")),
                reply(FIRST + 3, 0, Some("beyond the block")),
                reply(FIRST - 1, 0, Some("before the block")),
                reply(FIRST, 0, Some("a0")),
            ]),
            // Lane 0 is on request 1 now: request 0 again is stale.
            now_batch(vec![
                reply(FIRST, 0, Some("stale")),
                reply(FIRST + 1, 0, Some("b0")),
            ]),
            now_batch(vec![
                reply(FIRST + 2, 1, Some("c1")),
                reply(FIRST + 1, 1, Some("b1")),
                reply(FIRST, 1, Some("a1")),
            ]),
        ];
        let mut played = scripted(plans, script);
        let histories = played.client.run();
        let values: Vec<Vec<&[u8]>> = histories
            .iter()
            .map(|h| h.iter().map(|r| r.result.as_deref().unwrap()).collect())
            .collect();
        assert_eq!(
            values,
            [[b"a0", b"a1"], [b"b0", b"b1"], [b"c0", b"c1"]],
            "{histories:?}"
        );
        for history in &histories {
            assert!(history.iter().all(|r| r.ok));
            assert!(history[0].invoked <= history[0].completed);
            assert!(history[0].completed < history[1].invoked, "{history:?}");
        }
        // One request per operation, a finished lane's next one in the pass
        // that finished it; nothing retried.
        let (a, b, c) = (FIRST, FIRST + 1, FIRST + 2);
        assert_eq!(
            played.sent(),
            [(a, 0), (b, 0), (c, 0), (a, 1), (c, 1), (b, 1)]
        );
        let snapshot = played.registry.snapshot();
        assert_eq!(snapshot.counter(Counter::ReadsDone), 6);
        assert_eq!(snapshot.counter(Counter::Retries), 0);
    }

    /// A lane's last word of a batch stands: a write refused and, later in
    /// the same batch, acknowledged is done — the retry the refusal asked
    /// for is never sent.
    #[test]
    fn a_rejection_completed_in_the_same_batch_sends_no_retry() {
        use harmonia_types::WriteOutcome::{Committed, Rejected};
        let plans = vec![vec![OpSpec::write("k", "v"), OpSpec::read("k")]];
        let script = vec![
            now_batch(vec![
                outcome(FIRST, 0, 0, None, Some(Rejected)),
                outcome(FIRST, 0, 1, None, Some(Committed)),
            ]),
            now_batch(vec![reply(FIRST, 1, Some("v"))]),
        ];
        let mut played = scripted(plans, script);
        let histories = played.client.run();
        assert!(histories[0].iter().all(|r| r.ok), "{histories:?}");
        assert_eq!(played.sent(), [(FIRST, 0), (FIRST, 1)]);
        let snapshot = played.registry.snapshot();
        assert_eq!(snapshot.counter(Counter::WritesRejected), 1);
        assert_eq!(snapshot.counter(Counter::WritesDone), 1);
    }

    /// One wait for all lanes, until the earliest deadline: the lane whose
    /// reply never came retries under the same request id when *its* attempt
    /// runs out, while lanes that began later keep their own deadlines and
    /// keep completing.
    #[test]
    fn one_lane_times_out_and_retries_while_the_others_complete() {
        let plans = vec![
            vec![OpSpec::read("k")],
            vec![OpSpec::read("k"), OpSpec::read("k")],
            vec![OpSpec::read("k"), OpSpec::read("k")],
        ];
        let (a, b, c) = (FIRST, FIRST + 1, FIRST + 2);
        // Lanes b and c begin their second operation half an attempt after
        // everyone's first, so only a's deadline has passed when it passes.
        let script = vec![
            Recv::Batch(
                CLIENT_TIMEOUT / 2,
                vec![reply(b, 0, None), reply(c, 0, None)],
            ),
            Recv::Timeout,
            now_batch(vec![
                reply(c, 1, None),
                reply(a, 0, None),
                reply(b, 1, None),
            ]),
        ];
        let mut played = scripted(plans, script);
        let started = StdInstant::now();
        let histories = played.client.run();
        assert!(histories.iter().flatten().all(|r| r.ok), "{histories:?}");
        assert_eq!(
            played.sent(),
            [(a, 0), (b, 0), (c, 0), (b, 1), (c, 1), (a, 0)],
            "lane a retries its request 0, and only lane a retries"
        );
        // Two waits for lane a's first attempt, the earliest deadline while
        // it lasted; then one for what b and c began half an attempt later.
        let waits: Vec<StdInstant> = played.waits.try_iter().collect();
        assert_eq!(waits.len(), 3);
        assert_eq!(waits[0], waits[1]);
        assert!(waits[0] <= started + CLIENT_TIMEOUT + StdDuration::from_millis(50));
        assert!(waits[2] >= waits[0] + CLIENT_TIMEOUT / 2, "{waits:?}");
        let snapshot = played.registry.snapshot();
        assert_eq!(snapshot.counter(Counter::Retries), 1);
        assert_eq!(snapshot.counter(Counter::Timeouts), 0);
    }

    /// A link that can never deliver again ends the call: what was in flight
    /// and what had not begun is recorded `ok == false`, once, in plan order.
    #[test]
    fn disconnected_records_every_remaining_operation_once_in_plan_order() {
        let plan = |lane: &str| -> Vec<OpSpec> {
            (0..3).map(|n| OpSpec::read(format!("{lane}{n}"))).collect()
        };
        // Lane a's first read is answered; then the script — the link — ends.
        let script = vec![now_batch(vec![reply(FIRST, 0, None)])];
        let mut played = scripted(vec![plan("a"), plan("b")], script);
        let histories = played.client.run();
        let seen: Vec<Vec<(&[u8], bool)>> = histories
            .iter()
            .map(|h| h.iter().map(|r| (&r.key[..], r.ok)).collect())
            .collect();
        let expected: [[(&[u8], bool); 3]; 2] = [
            [(b"a0", true), (b"a1", false), (b"a2", false)],
            [(b"b0", false), (b"b1", false), (b"b2", false)],
        ];
        assert_eq!(seen, expected);
        // a0, b0, and a1 went out; a2, b1 and b2 never began.
        assert_eq!(played.sent().len(), 3);
        assert_eq!(played.registry.snapshot().counter(Counter::ReadsSent), 3);
        // Nothing is left to record twice.
        assert!(played.client.run().iter().all(Vec::is_empty));
        assert_eq!(played.client.get("k"), Err(LiveError::Disconnected));
    }
}
