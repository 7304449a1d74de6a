//! The threaded drivers: the same state machines on OS threads — with a
//! **parallel data plane** — over any packet substrate.
//!
//! Nothing in the protocol or switch logic changes relative to the
//! simulation; only the driver differs. One rig, [`ThreadedCluster`], owns
//! the threads, the naming, the §5.3 verbs, and the [`Cluster`] surface; a
//! small [`Substrate`] says how bytes move between them: a link of two verbs
//! and the type of endpoint a name resolves to. Who answers to which name is
//! one name service on every substrate — `harmonia-net`'s [`AddrBook`],
//! generic over that endpoint type — which the rig publishes into and every
//! link sends through. Two substrates exist: in-process crossbeam channels
//! (this module: [`LiveCluster`], the deployment mode the examples use) and
//! real loopback `UdpSocket`s ([`crate::udp`]: `UdpCluster`).
//!
//! # One server shell: threads follow cores, not nodes
//!
//! A deployment is nodes — one switch pipeline per replica group, and the
//! replicas — and a host has cores. A thread per node on a host with fewer
//! cores than nodes buys no parallelism and pays a wake-up for every hop
//! between two nodes that share a core anyway: three per read, six per
//! chain write. So the cluster spawns `min(cores, nodes)` **workers**
//! ([`std::thread::available_parallelism`], which honours CPU affinity and
//! cgroup quota; nothing else sets it) and each worker *hosts* nodes: one
//! [`NodeLink`] that answers to every hosted node's name, one loop that
//! takes everything queued, hands each packet to the node it addresses,
//! runs the sweeps and ticks that are due and flushes the lot in one
//! [`NodeLink::send_many`]. What the loop does with a batch is the one node
//! runtime's step, [`Worker::step`] — the step the simulator runs for each
//! of its nodes, over the same sans-IO cores. Pipelines first,
//! then replicas, are dealt round-robin, so a group's replicas sit on
//! distinct workers before any worker takes a second one; with a core per
//! node every node has a thread of its own.
//!
//! The worker knows no routes. What a hosted node sends goes out through
//! the link like everything else, and a packet for a node on the same worker
//! comes back through the same inbox: on channels a push onto the worker's
//! own queue — nobody is parked on it, nobody is woken — on sockets a
//! datagram the endpoint loops back without the kernel, taken on the next
//! pass before the socket is asked. A flush is one hand-off per destination
//! loop: on channels one envelope carrying every packet for that queue, so
//! the first packet's wake-up cannot split the flush. On one core a read is
//! two wake-ups (worker, client) and so is a chain write.
//!
//! What sharing costs: a long step delays every node on the worker — a
//! replica exporting a snapshot for a recovering peer stalls the pipeline
//! beside it for as long as the export takes — and a worker that panics
//! takes all its nodes down with it, where a node's own thread took one.
//! Workers live as long as the cluster; nodes come and go by verb
//! ([`Envelope::Adopt`] / [`Envelope::Evict`], acknowledged), their names
//! bound to and released from the worker's endpoint in the book as they do.
//! A packet still queued for an evicted node finds nobody and vanishes, as
//! toward a dead NIC.
//!
//! # Per-group switch pipelines
//!
//! A real Tofino processes different groups' packets in parallel at line
//! rate, so a driver that serializes every group's traffic through one
//! switch thread (let alone one mutex) is an artifact, not the paper's
//! design. The threaded switch is therefore one pipeline per replica group,
//! each exclusively owning that group's
//! [`GroupCore`](crate::switch_core::GroupCore) — conflict detector,
//! sequencer, forwarding table, and counters — and each on whichever worker
//! its group places it, in parallel as far as the host has cores. **No lock
//! guards switch or replica state**; the only lock on the packet path is the
//! short one around an ingress queue, once per destination of a flush and
//! once per batch received.
//!
//! The spine itself is a thin, stateless shard-router, and it is an entry
//! of the book: sending to the switch address resolves the packet's object
//! through the deployment's shard map *on the sender's thread* — one
//! atomic load to revalidate the sender's cached snapshot, no lock — and
//! delivers straight to the endpoint of the worker that hosts the owning
//! group's pipeline: no intermediate hop, no shared switch state. A worker
//! that hosts several pipelines picks among them by the same route
//! ([`SwitchCore::handle`], the one route rule); what goes to every group
//! reaches it once.
//!
//! Where a packet addressed to the switch goes is one decision,
//! [`PacketBody::switch_route`], turned into endpoints in one place (the
//! book's resolve) for both substrates. It sends to a pipeline what
//! Algorithm 1 or the control plane acts
//! on — requests, completions, control, and a reply *with a piggybacked
//! completion* to snoop (Figure 2b) — and forwards a reply that carries none
//! (every read reply, a rejected write, a VR / NOPaxos write ack, whose
//! completion travels standalone) to its client's own ingress, as sent: a
//! Tofino forwards such a frame for free, a pipeline would pay a decode and
//! a second copy of the value to do nothing. So the pipelines see one packet
//! per read and two per chain write. The replica still addresses the switch,
//! and it is the spine that forwards: with the spine cleared
//! ([`kill_switch`](Cluster::kill_switch)) or a lease still on a dead
//! incarnation, the reply resolves to nothing and vanishes like every other
//! packet of the §5.3 outage. (The simulator keeps the hop — see
//! [`crate::switch_core`].)
//!
//! # One client shell
//!
//! Clients run the same kind of loop, and there is one of it:
//! [`LiveClient`] hosts the closed-loop client loop — N lanes with N client
//! ids, sans-IO, the loop the simulator's
//! [`ClosedLoopClient`](crate::client::ClosedLoopClient) hosts too — on one
//! link and one thread, the caller's. Its attempt deadlines are on the
//! deployment clock, turned into the link's wall-clock wake through a
//! `(now, wall)` pair as the worker loop turns its own. A synchronous
//! [`client`](ThreadedCluster::client) is the shell with one lane;
//! [`Cluster::run_plans`] is the shell with a lane per plan, so a call
//! spawns no thread and hands the substrate every lane's next request in
//! one flush. Load is raised by adding plans, not threads.
//!
//! The switch is read by message: for an
//! [`obs_snapshot`](Cluster::obs_snapshot) each worker that hosts pipelines
//! answers one [`Envelope::Inspect`] with their
//! [`SwitchCore::view`] rows, and the snapshot is built from them as the
//! simulator's is from its switch node's — the control plane reads the
//! switch without ever touching a worker's state.
//!
//! The §5.3 switch failure/replacement sequence
//! ([`kill_switch`](Cluster::kill_switch) /
//! [`replace_switch`](Cluster::replace_switch)) applies to every pipeline
//! at once: the spine is cleared, every pipeline of the old incarnation is
//! evicted from its worker — which keeps running its replicas — and fresh
//! ones (fresh dirty sets and sequence spaces for *every* hosted group) are
//! adopted under a larger incarnation id at the same client-facing address.
//! Single-replica reads stay disabled per group until the first
//! WRITE-COMPLETION bearing the new incarnation's id.

// Wall-clock reads are deliberate here: threaded drivers: ticks and timeouts are real time.
#![allow(clippy::disallowed_methods)]

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant as StdInstant};

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use harmonia_net::{AddrBook, Names, Resolver};
use harmonia_obs::{Clock, FaultObs, MonotonicClock, ObsSnapshot, Recorder, Registry, TraceEvent};
use harmonia_replication::{build_replica, GroupConfig};
use harmonia_switch::{GroupId, SpineView};
use harmonia_types::{ClientId, Duration, Instant, NodeId, PacketBody, ReplicaId, SwitchId};

use crate::client::{OpSpec, RecordedOp};
use crate::client_core::Lanes;
use crate::control;
use crate::deployment::{snapshot, Cluster, DeploymentSpec, KvClient};
use crate::msg::Msg;
use crate::replica_step::ReplicaNode;
use crate::switch_core::SwitchCore;
use crate::worker::{Hosted, Worker};

/// What a loop can be handed: a data-plane packet or a control-plane verb
/// from its own driver. The channel substrate multiplexes these on one
/// channel; the UDP substrate splits them (packets on the socket, control on
/// a side channel) — [`NodeLink`] hides the difference. Only workers are
/// sent verbs; a verb that asks for something is answered on the channel it
/// carries.
pub enum Envelope {
    /// Data-plane packets: everything one flush sent this loop, in send
    /// order.
    Packets(Vec<Msg>),
    /// Snapshot every pipeline the worker hosts, if it hosts any.
    Inspect(Sender<SpineView>),
    /// Host these nodes from now on; acknowledged once each has taken its
    /// first step.
    Adopt(Vec<Hosted>, Sender<()>),
    /// Stop hosting whatever answers to this name — a replica by its own,
    /// every pipeline by any address of the switch — and acknowledge. What
    /// is still queued for it finds nobody.
    Evict(NodeId, Sender<()>),
    /// Leave the loop.
    Stop,
}

/// Per-attempt client reply deadline — one value for both threaded
/// drivers, so their retry envelopes can never drift apart.
const CLIENT_TIMEOUT: Duration = Duration::from_millis(200);

/// Client attempt budget of both threaded drivers.
const CLIENT_ATTEMPTS: u32 = 6;

/// How long the control plane waits for a worker to answer a verb.
const VERB_TIMEOUT: StdDuration = StdDuration::from_secs(10);

/// How long one control script gets to land before the step that depends
/// on it: a re-admission's gate before the newcomer (whose ungate report
/// must arrive after it) starts, one lease-move round before the next.
const CONTROL_SETTLE: StdDuration = StdDuration::from_millis(2);

/// Send a worker a verb that carries the channel it is answered on. `None`:
/// the worker is gone.
fn ask<T>(ctl: &impl Verbs, verb: impl FnOnce(Sender<T>) -> Envelope) -> Option<Receiver<T>> {
    let (tx, rx) = bounded(1);
    ctl.post(verb(tx)).then_some(rx)
}

/// Where a loop's driver verbs go: the handle [`Substrate::attach`] returns
/// beside the link. Posting a verb is the whole job — it is queued where the
/// loop takes verbs, and the loop is woken to take it, whatever it sleeps
/// on — so no caller can queue a verb and forget the wake-up.
pub trait Verbs: Send + Sync + 'static {
    /// Hand the loop `verb`; `false` when the loop is gone.
    fn post(&self, verb: Envelope) -> bool;
}

/// On channels a verb travels the loop's own queue, and queuing it is the
/// wake-up.
impl Verbs for Sender<Envelope> {
    fn post(&self, verb: Envelope) -> bool {
        self.send(verb).is_ok()
    }
}

/// One loop's connection to its deployment, whatever the substrate: the
/// endpoint of a worker and all the nodes it hosts, or of a client shell and
/// all its lanes.
///
/// Everything that *handles* packets — the worker loop and the
/// [`LiveClient`] shell — is written against this trait, so the threaded
/// drivers share all packet-handling logic and differ only in how bytes
/// move: onto an in-process channel or through a `UdpSocket`, either way to
/// wherever the deployment's one name service, the substrate's
/// [`AddrBook`], resolves the destination. A link knows no names, its own
/// included: which ones reach it is the rig's business (a [`Names`] guard
/// beside the link), and a packet for one of them comes back through the
/// link's own inbox like any other.
pub trait NodeLink: Send {
    /// Flush a whole outbox, draining `batch` — one hand-off per
    /// destination loop, each loop's packets in `batch` order. Never blocks
    /// on a receiver; undeliverable packets — no route, a dead node, a full
    /// queue — are dropped (clients retry — that is the reliability layer).
    /// The channel link hands each queue one envelope: one lock, and one
    /// wake-up if that loop sleeps. The UDP link feeds the transport's
    /// coalescer — per-destination frames pack back-to-back into full
    /// datagrams — batches kernel crossings through `sendmmsg`, and loops
    /// back what is addressed to its own socket without one.
    fn send_many(&mut self, batch: &mut Vec<(NodeId, Msg)>);

    /// The one receive verb: sleep until `deadline` (with `None`, until
    /// there is something to do, with no timer) for the first envelope,
    /// then append every packet already queued to `inbox`, in arrival
    /// order. A driver verb ends the batch and is returned beside it —
    /// `Some` is never a packet — and a verb posted while the loop sleeps
    /// wakes it. The UDP link first looks at its side channel, then hands
    /// over what its endpoint already holds — hops it looped back to
    /// itself, the rest of a multi-frame datagram — without a syscall, and
    /// goes to the socket (one blocking `recv`, then one `recvmmsg` drain)
    /// only when both are empty; the verb's wake-up ends that `recv`.
    /// `Timeout`: nothing arrived by the deadline; `Disconnected`: the link
    /// can never deliver again (driver shut down).
    fn recv_into(
        &mut self,
        deadline: Option<StdInstant>,
        inbox: &mut Vec<Msg>,
    ) -> Result<Option<Envelope>, RecvTimeoutError>;
}

/// What the threaded rig needs from whatever moves its packets: what a name
/// resolves to and the book that says so, how a loop gets its [`NodeLink`]
/// and control channel, how the configuration service reaches nodes, and
/// what the snapshot's fault section reports. Everything else — workers,
/// naming, the spine, §5.3 verbs, inspection, the [`Cluster`] surface — is
/// [`ThreadedCluster`]'s, written once.
pub trait Substrate: Sized + 'static {
    /// A loop's connection to the deployment.
    type Link: NodeLink + 'static;
    /// Where that loop's driver verbs go.
    type Ctl: Verbs;
    /// Where a link receives: what a name resolves to, and what the spine
    /// delivers a group's packets to. Equal when the same link receives
    /// there.
    type Ingress: Clone + PartialEq + Send + Sync + 'static;
    /// The `driver` label of this substrate's snapshots and thread names.
    const DRIVER: &'static str;
    /// How many spaced rounds a lease move is sent in: 1 where delivery to
    /// a live node is certain, more where even a clean link can lose a
    /// packet (the move is idempotent, and a replica stranded on the old
    /// incarnation would reject the new switch's traffic forever).
    const LEASE_ROUNDS: u32;

    /// The substrate for one deployment of `spec`.
    fn new(spec: &DeploymentSpec) -> Self;

    /// The deployment's name service: every link of this substrate sends
    /// wherever it says.
    fn book(&self) -> &Arc<AddrBook<Self::Ingress>>;

    /// One link for a loop that will answer to `names` — a client shell's
    /// lanes, or none yet for a worker, whose nodes come and go — with the
    /// handle its driver verbs are posted through and where it receives.
    /// The rig binds the names; the substrate only sizes the link by them.
    /// A verb posted through the handle must wake the loop even where it
    /// sleeps with no deadline, at once — not at the next tick of a timer.
    /// `recorder` receives the link's wire counters, where the substrate
    /// has a wire.
    fn attach(
        &self,
        names: &[NodeId],
        recorder: Recorder,
    ) -> (Self::Link, Self::Ctl, Self::Ingress);

    /// Deliver a configuration-service script over a link no fault model
    /// touches.
    fn deliver(&self, script: Vec<(NodeId, Msg)>);

    /// Faults injected so far (all zero where the substrate injects none).
    fn fault_obs(&self) -> FaultObs;
}

/// Where a channel link receives: the sending half of its queue and, for a
/// client shell's, the room left in it. Two are equal when they feed the
/// same queue.
#[derive(Clone)]
pub struct Ingress {
    tx: Sender<Envelope>,
    room: Option<Arc<Room>>,
}

impl PartialEq for Ingress {
    fn eq(&self, other: &Ingress) -> bool {
        self.tx.same_channel(&other.tx)
    }
}

impl Ingress {
    /// Enqueue one flush's packets for this loop — one lock, and one wake-up
    /// if the loop sleeps — or drop them: a sender that waited on a full (or
    /// dead) queue could never be told to stop. A client's queue takes what
    /// fits and drops the rest.
    fn hand_over(&self, mut msgs: Vec<Msg>) {
        if let Some(room) = &self.room {
            msgs.truncate(room.claim(msgs.len()));
            if msgs.is_empty() {
                return;
            }
        }
        let _ = self.tx.try_send(Envelope::Packets(msgs));
    }
}

/// A client queue's bound, counted in packets — an envelope carries a whole
/// flush, so a count of envelopes bounds nothing. Senders count packets in
/// through the [`Ingress`], the link counts them out as it takes them.
struct Room {
    queued: AtomicUsize,
    bound: usize,
}

impl Room {
    /// Claim places for up to `want` packets; how many were free. Relaxed:
    /// the count publishes nothing, the packets travel under the queue lock.
    fn claim(&self, want: usize) -> usize {
        let mut got = 0;
        let _ = self
            .queued
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |queued| {
                got = want.min(self.bound.saturating_sub(queued));
                Some(queued + got)
            });
        got
    }
}

/// Hand a whole outbox over, one envelope per destination queue: every
/// packet resolved against one publication of the book, grouped by the queue
/// it resolves to, in send order within each. With an envelope per packet
/// the first would wake a sleeping loop, which on a shared core can run
/// before the rest of the flush is queued.
fn flush(names: &mut Resolver<Ingress>, batch: impl IntoIterator<Item = (NodeId, Msg)>) {
    let directory = names.directory();
    let mut queues: Vec<(&Ingress, Vec<Msg>)> = Vec::new();
    let mut add = |ingress, msg| match queues.iter_mut().find(|(at, _)| *at == ingress) {
        Some((_, msgs)) => msgs.push(msg),
        None => queues.push((ingress, vec![msg])),
    };
    for (to, msg) in batch {
        // What goes to every group is cloned for all workers but the last;
        // the usual single destination takes the message as it is.
        if let Some((last, rest)) = directory.resolve(to, &msg.body).split_last() {
            for ingress in rest {
                add(ingress, msg.clone());
            }
            add(last, msg);
        }
    }
    for (ingress, msgs) in queues {
        ingress.hand_over(msgs);
    }
}

/// The channel substrate's link: the book's view out, a queue in.
pub struct ChannelLink {
    names: Resolver<Ingress>,
    rx: Receiver<Envelope>,
    /// The queue's bound, shared with its [`Ingress`] (client shells only).
    room: Option<Arc<Room>>,
}

impl NodeLink for ChannelLink {
    fn send_many(&mut self, batch: &mut Vec<(NodeId, Msg)>) {
        flush(&mut self.names, batch.drain(..));
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
                Envelope::Packets(mut msgs) => {
                    if let Some(room) = &self.room {
                        room.queued.fetch_sub(msgs.len(), Ordering::Relaxed);
                    }
                    inbox.append(&mut msgs);
                }
                verb => return Ok(Some(verb)),
            }
        }
        Ok(None)
    }
}

/// The in-process substrate: crossbeam channels behind the deployment's
/// [`AddrBook`] — a name resolves to a loop's queue.
#[derive(Default)]
pub struct Channels {
    book: Arc<AddrBook<Ingress>>,
}

impl Substrate for Channels {
    type Link = ChannelLink;
    type Ctl = Sender<Envelope>;
    type Ingress = Ingress;
    const DRIVER: &'static str = "live";
    const LEASE_ROUNDS: u32 = 1;

    fn new(_spec: &DeploymentSpec) -> Self {
        Channels::default()
    }

    fn book(&self) -> &Arc<AddrBook<Ingress>> {
        &self.book
    }

    fn attach(
        &self,
        names: &[NodeId],
        _recorder: Recorder,
    ) -> (ChannelLink, Sender<Envelope>, Ingress) {
        // A client's queue is bounded — nobody can make it listen — at
        // 1 024 packets for every client name that shares it, however many
        // envelopes carry them.
        let room = matches!(names, [NodeId::Client(_), ..]).then(|| {
            Arc::new(Room {
                queued: AtomicUsize::new(0),
                bound: 1024 * names.len(),
            })
        });
        let (tx, rx) = unbounded();
        let link = ChannelLink {
            names: Resolver::new(Arc::clone(&self.book)),
            rx,
            room: room.clone(),
        };
        (link, tx.clone(), Ingress { tx, room })
    }

    fn deliver(&self, script: Vec<(NodeId, Msg)>) {
        let mut names = Resolver::new(Arc::clone(&self.book));
        flush(&mut names, script);
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

/// The client shell of the threaded drivers, identical on every substrate:
/// the closed-loop client loop (`Lanes`, one client id per lane) on
/// **one** link that answers to every lane's address, on the thread of
/// whoever calls it.
///
/// [`ThreadedCluster::client`] hands out the shell with one lane: a
/// synchronous key-value client whose [`get`](Self::get) and
/// [`set`](Self::set) push one operation through the loop.
/// [`ThreadedCluster::load`] hands it out with one lane per plan, and
/// [`run`](Self::run) keeps every lane's next operation in flight until the
/// plans are through — the load half of [`Cluster::run_plans`], movable to a
/// thread of its own while the cluster is put through its §5.3 verbs.
///
/// Every pass sleeps on the link until the earliest attempt deadline, takes
/// *everything* queued, delivers each reply to the lanes, runs their pass
/// and flushes what that produced in one [`NodeLink::send_many`] — so the
/// transport sees a burst, not a packet.
pub struct LiveClient {
    lanes: Lanes,
    /// Keeps every lane's name bound to `link`; declared first so the names
    /// leave the book before the link closes.
    _names: Box<dyn Send>,
    link: Box<dyn NodeLink>,
    /// Shared by the link and every lane (one registry shard); the shell
    /// reads its clock for the stamps of a pass.
    recorder: Recorder,
    /// An instant on the deployment clock and the wall-clock one read just
    /// after it, once: a deadline converted through the pair wakes the link
    /// at or after it, never a pass too early, and always at the same wall
    /// instant.
    epoch: (Instant, StdInstant),
    /// The earliest attempt deadline; `None` while nothing is in flight.
    deadline: Option<Instant>,
    /// Reused by every pass.
    inbox: Vec<Msg>,
    outbox: Vec<(NodeId, Msg)>,
}

impl LiveClient {
    /// The shell over `link`, which answers to clients `first..` — one per
    /// plan — for as long as `names` lives.
    fn over(
        names: impl Send + 'static,
        link: impl NodeLink + 'static,
        spec: &DeploymentSpec,
        first: u32,
        plans: Vec<Vec<OpSpec>>,
        recorder: Recorder,
    ) -> LiveClient {
        let lanes = Lanes::new(
            ClientId(first),
            plans,
            spec.switch_addr(),
            CLIENT_TIMEOUT,
            spec.write_replies(),
            CLIENT_ATTEMPTS,
            recorder.clone(),
        );
        LiveClient {
            lanes,
            _names: Box::new(names),
            link: Box::new(link),
            epoch: (recorder.now(), StdInstant::now()),
            recorder,
            deadline: None,
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
        self.lanes.records().map(std::mem::take).collect()
    }

    /// One operation through the first lane.
    fn run_one(&mut self, spec: OpSpec) -> Result<Option<Bytes>, LiveError> {
        self.lanes.push(spec);
        let outcome = self.drive();
        let op = self.lanes.records().next().and_then(Vec::pop);
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

    /// One pass: receive, deliver, run the lanes' pass, flush. `Ok(true)`
    /// while an operation is in flight afterwards.
    fn pass(&mut self) -> Result<bool, LiveError> {
        // One wait for all lanes — until the attempt that gives up first
        // does — and none for a shell with nothing in flight yet.
        let (epoch, wall) = self.epoch;
        let wake = self.deadline.map(|at| wall + at.since(epoch).to_std());
        let received = wake.map_or(Ok(None), |at| {
            self.link.recv_into(Some(at), &mut self.inbox)
        });
        // The completion stamp of the pass: read once the receive is back,
        // so never earlier than the arrival of a reply it completes.
        let now = self.recorder.now();
        if matches!(
            received,
            Ok(Some(Envelope::Stop)) | Err(RecvTimeoutError::Disconnected)
        ) {
            self.inbox.clear();
            self.deadline = None;
            self.lanes.abandon(now);
            return Err(LiveError::Disconnected);
        }
        for msg in self.inbox.drain(..) {
            if let PacketBody::Reply(reply) = msg.body {
                self.lanes.deliver(now, reply);
            }
        }
        // The invocation stamp: after the completions, before the flush.
        let invoked = self.recorder.now();
        self.deadline = self.lanes.pass(now, invoked, &mut self.outbox);
        if !self.outbox.is_empty() {
            self.link.send_many(&mut self.outbox);
        }
        Ok(self.deadline.is_some())
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

/// The server shell — the one loop every switch pipeline and every replica
/// of the threaded drivers runs in, identical on every substrate: sleep on
/// the link until the node runtime's next deadline (untimed when it has
/// none), take everything queued, run the [`Worker::step`] the simulator
/// runs too — at the deployment clock's `now`, with this thread's own rng —
/// take the driver's verb, and flush what all of that produced in one
/// [`NodeLink::send_many`]. The loop knows no routes: a packet for a node it
/// hosts itself goes out through the link like any other and comes back
/// through the same inbox. `names` is what the link answers to: the hosted
/// replicas', bound as they are adopted, released as they are evicted, gone
/// with the loop.
fn worker_main<E: Clone>(
    mut link: impl NodeLink,
    mut names: Names<E>,
    clock: Arc<dyn Clock>,
    seed: u64,
) {
    let mut worker = Worker::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut inbox: Vec<Msg> = Vec::new();
    let mut out: Vec<(NodeId, Msg)> = Vec::new();
    let mut deadline: Option<Instant> = None;
    // The pass's instant on the deployment clock, and the wall-clock one
    // read just after it: a deadline converted through the pair wakes the
    // link at or after it, never a pass too early.
    let (mut now, mut wall) = (clock.now(), StdInstant::now());
    loop {
        let wake = deadline.map(|at| wall + at.since(now).to_std());
        let verb = match link.recv_into(wake, &mut inbox) {
            Ok(verb) => verb,
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        (now, wall) = (clock.now(), StdInstant::now());
        deadline = worker.step(now, &mut rng, inbox.drain(..), &mut out);
        match verb {
            Some(Envelope::Inspect(reply)) => {
                if let Some(view) = worker.observe() {
                    let _ = reply.send(view);
                }
            }
            // Adopted in one step, so nodes that tick alike — a group's
            // replicas — tick in the same pass from now on.
            Some(Envelope::Adopt(adopted, ack)) => {
                names.bind(&adopted.iter().filter_map(Hosted::name).collect::<Vec<_>>());
                worker.adopt(now, adopted, &mut out);
                deadline = worker.deadline();
                let _ = ack.send(());
            }
            Some(Envelope::Evict(name, ack)) => {
                worker.evict(name);
                names.release(name);
                deadline = worker.deadline();
                let _ = ack.send(());
            }
            Some(Envelope::Stop) => return,
            Some(Envelope::Packets(_)) | None => {}
        }
        link.send_many(&mut out);
    }
}

/// One worker thread of a cluster, as its driver holds it.
struct WorkerThread<S: Substrate> {
    /// Where its verbs go.
    ctl: S::Ctl,
    /// Where its link receives: the spine ingress of every pipeline it
    /// hosts.
    ingress: S::Ingress,
    join: JoinHandle<()>,
}

/// A deployment on OS threads — one replica group or many, exactly as its
/// [`DeploymentSpec`] describes — over substrate `S`: as many workers as
/// the host has cores to run them on (never more than nodes), the switch
/// pipelines and replicas they host, and the configuration service's §5.3
/// verbs. All of it is reachable through [`Cluster`]; the inherent methods
/// are what the trait cannot express (a concrete [`LiveClient`] from
/// `&self`, a load to run on a thread of the caller's).
pub struct ThreadedCluster<S: Substrate> {
    spec: DeploymentSpec,
    substrate: S,
    /// They live as long as the cluster; nodes come and go by verb.
    workers: Vec<WorkerThread<S>>,
    /// The incarnation whose pipelines the workers host; `None` while the
    /// switch is down.
    switch: Option<SwitchId>,
    next_client: AtomicU32,
    /// Observability: every pipeline, replica, link, and client shards
    /// into this registry; the clock is the rig's single monotonic epoch.
    registry: Registry,
}

/// An in-process deployment: threads connected by channels
/// ([`DeploymentSpec::spawn_live`]).
pub type LiveCluster = ThreadedCluster<Channels>;

impl<S: Substrate> ThreadedCluster<S> {
    /// Bring `spec` up on as many workers as this process may run in
    /// parallel — its CPU affinity and quota decide, nothing else does.
    pub fn new(spec: &DeploymentSpec) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_workers(spec, cores)
    }

    /// Bring `spec` up on `workers` workers, at most one per node: every
    /// group's pipeline, then every replica in id order, dealt round-robin —
    /// so a group's replicas land on distinct workers before any worker
    /// takes a second, and with a worker per node every node has its own
    /// thread.
    pub(crate) fn with_workers(spec: &DeploymentSpec, workers: usize) -> Self {
        let substrate = S::new(spec);
        let registry = Registry::with_clock(Arc::new(MonotonicClock::new()));
        let nodes = spec.groups + spec.total_replicas();
        let workers = (0..workers.clamp(1, nodes)).map(|w| {
            // One recorder shard per link: counters and traces stay
            // thread-local on the packet path, merged only on snapshot.
            let (link, ctl, ingress) = substrate.attach(&[], registry.handle());
            let names = Names::new(Arc::clone(substrate.book()), ingress.clone());
            let clock = registry.clock();
            let seed = 0x5717c4 ^ w as u64;
            let join = std::thread::Builder::new()
                .name(format!("{}-worker-{w}", S::DRIVER))
                .spawn(move || worker_main(link, names, clock, seed))
                // lint:allow(panic_path): deployment bring-up, not the data
                // plane — thread-spawn failure means the host is out of
                // resources before any traffic exists.
                .expect("spawn worker thread");
            WorkerThread { ctl, ingress, join }
        });
        let mut cluster = ThreadedCluster {
            spec: spec.clone(),
            workers: workers.collect(),
            substrate,
            switch: None,
            next_client: AtomicU32::new(1),
            registry,
        };
        cluster.adopt_switch(spec.initial_switch());
        let replicas = (0..spec.groups)
            .flat_map(|g| (0..spec.replicas).map(move |i| (g, i)))
            .map(|(g, i)| cluster.replica(spec.group_config(g, i), None));
        cluster.adopt(replicas.collect());
        cluster
    }

    /// The worker that hosts node `index` of the deployment: pipelines come
    /// first, by group, then replicas, by id. (Never `None`: there is always
    /// a worker.)
    fn host(&self, index: usize) -> Option<&WorkerThread<S>> {
        self.workers.get(index % self.workers.len().max(1))
    }

    /// The worker that hosts (or would host) replica `r`.
    fn replica_host(&self, r: ReplicaId) -> Option<&WorkerThread<S>> {
        self.host(self.spec.groups + r.index())
    }

    /// Hand each node to the worker its index names — one verb per worker —
    /// and wait until all of them run.
    fn adopt(&self, mut nodes: Vec<(usize, Hosted)>) {
        let mut acks = Vec::new();
        for (w, worker) in self.workers.iter().enumerate() {
            let (batch, rest): (Vec<_>, Vec<_>) =
                (nodes.into_iter()).partition(|(index, _)| index % self.workers.len() == w);
            nodes = rest;
            if !batch.is_empty() {
                let batch = batch.into_iter().map(|(_, node)| node).collect();
                acks.extend(ask(&worker.ctl, |ack| Envelope::Adopt(batch, ack)));
            }
        }
        for ack in acks {
            let _ = ack.recv_timeout(VERB_TIMEOUT);
        }
    }

    /// Have `workers` stop hosting whatever answers to `name`, and wait
    /// until it is gone.
    fn evict<'a>(&'a self, workers: impl IntoIterator<Item = &'a WorkerThread<S>>, name: NodeId) {
        let acks: Vec<Receiver<()>> = workers
            .into_iter()
            .filter_map(|worker| ask(&worker.ctl, |ack| Envelope::Evict(name, ack)))
            .collect();
        for ack in acks {
            let _ = ack.recv_timeout(VERB_TIMEOUT);
        }
    }

    /// Bring the pipelines of `incarnation` up — fresh state for every
    /// group, group `g` on the worker node `g` places on, each worker's
    /// share built as one [`SwitchCore`] — and publish the spine: the
    /// switch's addresses — the stable client-facing one and the
    /// incarnation's own (replicas reply to the lease holder) — resolve
    /// through the shard map, on the sending thread, to the ingress of the
    /// worker that hosts the group.
    fn adopt_switch(&mut self, incarnation: SwitchId) {
        let (workers, groups) = (self.workers.len(), self.spec.groups);
        let shares = (0..workers.min(groups)).map(|w| {
            let share = (w..groups).step_by(workers).map(|g| GroupId(g as u32));
            let mut core = SwitchCore::for_groups(&self.spec, incarnation, share);
            core.set_recorder(&self.registry.handle());
            (w, Hosted::pipelines(core))
        });
        self.adopt(shares.collect());
        let me = self.spec.switch_addr();
        let ingress = (0..self.spec.groups)
            .filter_map(|g| self.host(g))
            .map(|worker| worker.ingress.clone());
        let published = self.substrate.book().install_spine(
            vec![me, NodeId::Switch(incarnation)],
            self.spec.shard_map(),
            ingress.collect(),
        );
        debug_assert!(published, "every group has a worker to host its pipeline");
        self.switch = Some(incarnation);
    }

    /// One replica and where it goes; with `recover_from` set, a *fresh*
    /// replica that catches up from that peer before serving.
    fn replica(&self, config: GroupConfig, recover_from: Option<ReplicaId>) -> (usize, Hosted) {
        let me = config.me;
        let node = ReplicaNode::new(build_replica(config), recover_from, self.registry.handle());
        (self.spec.groups + me.index(), Hosted::replica(me, node))
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
        // One shard for the link and every lane. Clients are sent no verbs.
        let recorder = self.registry.handle();
        let (link, _, ingress) = self.substrate.attach(&names, recorder.clone());
        // One publication for all the lanes, and one when the shell goes.
        let mut bound = Names::new(Arc::clone(self.substrate.book()), ingress);
        bound.bind(&names);
        LiveClient::over(bound, link, &self.spec, first, plans, recorder)
    }

    /// Number of unicast entries currently in the deployment's name service
    /// (leak checks: a dropped client shell must take every lane's out).
    pub fn unicast_entries(&self) -> usize {
        self.substrate.book().unicast_len()
    }

    /// Every pipeline's snapshot, one verb per worker that hosts any — the
    /// first `groups` workers — asked all at once so they answer
    /// concurrently; `None` while the switch is down.
    fn observe(&self) -> Option<SpineView> {
        self.switch?;
        let hosts = self.workers.iter().take(self.spec.groups);
        let pending: Option<Vec<_>> = hosts.map(|w| ask(&w.ctl, Envelope::Inspect)).collect();
        let mut rows = Vec::new();
        for reply in pending? {
            rows.extend_from_slice(reply.recv_timeout(VERB_TIMEOUT).ok()?.groups());
        }
        Some(SpineView::new(rows))
    }

    /// Stop every thread and wait for them. (Dropping the cluster does the
    /// same; this form just makes the teardown point explicit.)
    pub fn shutdown(self) {}
}

impl<S: Substrate> Drop for ThreadedCluster<S> {
    fn drop(&mut self) {
        for worker in &self.workers {
            worker.ctl.post(Envelope::Stop);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join.join();
        }
    }
}

impl<S: Substrate> Cluster for ThreadedCluster<S> {
    fn spec(&self) -> &DeploymentSpec {
        &self.spec
    }

    fn client(&mut self) -> Box<dyn KvClient + '_> {
        Box::new(Self::client(self))
    }

    /// Every per-group pipeline of the incarnation is evicted from its
    /// worker. The spine is unpublished first, so requests already in flight
    /// or sent later vanish — clients time out and retry, exactly the
    /// Figure 10 outage.
    fn kill_switch(&mut self) {
        if let Some(incarnation) = self.switch.take() {
            self.substrate.book().clear_spine();
            self.evict(&self.workers, NodeId::Switch(incarnation));
        }
    }

    /// Fresh pipelines — fresh dirty sets and sequence spaces for *every*
    /// hosted group — at the same client-facing address, then the lease
    /// move.
    fn replace_switch(&mut self, new_id: SwitchId) {
        self.kill_switch();
        self.adopt_switch(new_id);
        for round in 0..S::LEASE_ROUNDS {
            if round > 0 {
                std::thread::sleep(CONTROL_SETTLE);
            }
            self.substrate
                .deliver(control::lease_move(&self.spec, new_id));
        }
    }

    /// The replica's worker stops hosting it and releases its name, so
    /// packets toward it vanish mid-flight; then the survivors are told.
    fn kill_replica(&mut self, r: ReplicaId) {
        self.evict(self.replica_host(r), NodeId::Replica(r));
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
        self.adopt(vec![self.replica(plan.config, Some(plan.peer))]);
    }

    fn switch_incarnation(&self) -> Option<SwitchId> {
        self.switch
    }

    fn obs_snapshot(&self) -> ObsSnapshot {
        let (recorded, now) = (self.registry.snapshot(), self.registry.clock().now());
        let (view, faults) = (self.observe(), self.substrate.fault_obs());
        snapshot(&self.spec, S::DRIVER, now, &recorded, view, faults)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udp::Sockets;
    use harmonia_obs::{Counter, SwitchObs, TraceStage};
    use harmonia_replication::ProtocolKind;
    use harmonia_types::{Duration, OpKind};
    use harmonia_verify::{check_history, Action, OpRecord};
    use harmonia_workload::ShardMap;
    use std::collections::VecDeque;

    /// Run a check on every layout a host can impose on `spec` — everything
    /// on one worker, two workers, a worker per node — on both substrates.
    fn every_layout(
        spec: &DeploymentSpec,
        channels: fn(&DeploymentSpec, usize),
        sockets: fn(&DeploymentSpec, usize),
    ) {
        for workers in [1, 2, spec.groups + spec.total_replicas()] {
            channels(spec, workers);
            sockets(spec, workers);
        }
    }

    /// `"udp, 2 workers"`: which cell of the matrix failed.
    fn cell<S: Substrate>(cluster: &ThreadedCluster<S>) -> String {
        format!("{}, {} workers", S::DRIVER, cluster.workers.len())
    }

    /// Wing–Gong over what the lanes recorded, a violation reported with
    /// the packet-path trace of its key — `tests/common`'s helper of the
    /// same name, which a unit test of this crate cannot reach.
    fn assert_linearizable_traced(
        histories: &[Vec<RecordedOp>],
        traces: &[TraceEvent],
        context: &str,
    ) {
        let records: Vec<OpRecord> = (10..)
            .zip(histories)
            .flat_map(|(client, history)| {
                history.iter().map(move |r| {
                    assert!(r.ok, "{context}: {r:?} was abandoned");
                    OpRecord {
                        client,
                        key: r.key.clone(),
                        invoke: r.invoked.nanos(),
                        complete: r.completed.nanos(),
                        action: match r.kind {
                            OpKind::Write => Action::Write(r.value.clone().unwrap_or_default()),
                            OpKind::Read => Action::Read(r.result.clone()),
                        },
                    }
                })
            })
            .collect();
        assert!(!records.is_empty(), "{context}: empty history");
        if let Err(violation) = check_history(records) {
            if let harmonia_verify::Violation::NotLinearizable { key } = &violation {
                eprint!("{}", harmonia_obs::dump_for_key(traces, key));
            }
            panic!("{context}: {violation}");
        }
    }

    /// `lanes` plans of `ops` operations each over `keys` keys, a third of
    /// them writes of values nobody else writes.
    fn plans(lanes: usize, ops: usize, keys: usize) -> Vec<Vec<OpSpec>> {
        (0..lanes)
            .map(|lane| {
                (0..ops)
                    .map(|n| {
                        let key = format!("key-{}", (n * 7 + lane * 13) % keys);
                        match n % 3 {
                            0 => OpSpec::write(key, format!("lane{lane}-op{n}")),
                            _ => OpSpec::read(key),
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn every_layout_round_trips_on_every_protocol() {
        fn check<S: Substrate>(spec: &DeploymentSpec, workers: usize) {
            let cluster = ThreadedCluster::<S>::with_workers(spec, workers);
            let at = format!("{:?}, {}", spec.protocol, cell(&cluster));
            let mut client = cluster.client();
            assert_eq!(client.get("missing").unwrap(), None, "{at}");
            client.set("alpha", "1").unwrap();
            client.set("beta", "2").unwrap();
            client.set("alpha", "3").unwrap();
            let got = (client.get("alpha").unwrap(), client.get("beta").unwrap());
            let want = (
                Some(Bytes::from_static(b"3")),
                Some(Bytes::from_static(b"2")),
            );
            assert_eq!(got, want, "{at}");
            cluster.shutdown();
        }
        for (protocol, harmonia) in [
            (ProtocolKind::Chain, true),
            (ProtocolKind::Chain, false),
            (ProtocolKind::PrimaryBackup, true),
            (ProtocolKind::PrimaryBackup, false),
            (ProtocolKind::Craq, false),
            (ProtocolKind::Vr, true),
            (ProtocolKind::Nopaxos, true),
        ] {
            let spec = DeploymentSpec::new().protocol(protocol).harmonia(harmonia);
            every_layout(&spec, check::<Channels>, check::<Sockets>);
        }
    }

    /// The host decides the worker count, and never more than one per node.
    #[test]
    fn workers_follow_cores_and_never_outnumber_nodes() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let spec = DeploymentSpec::new();
        assert_eq!(spec.spawn_live().workers.len(), cores.min(4));
        assert_eq!(LiveCluster::with_workers(&spec, 64).workers.len(), 4);
        let spec = spec.groups(4);
        assert_eq!(LiveCluster::with_workers(&spec, 64).workers.len(), 16);
        assert_eq!(LiveCluster::with_workers(&spec, 0).workers.len(), 1);
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
        let rows = cluster.obs_snapshot().per_group;
        assert_eq!(rows.len(), 4);
        for row in rows {
            assert!(row.writes_forwarded > 0, "{row:?}");
        }
        cluster.shutdown();
    }

    /// Two groups' pipelines (and all six replicas) on one worker are still
    /// two pipelines: each is inspected by its group and owns its counters
    /// (a packet shows up in exactly one group's stats), and a control
    /// broadcast — one copy per worker — is applied by the pipeline of the
    /// group it names, once, and by no other.
    #[test]
    fn two_groups_on_one_worker_stay_two_pipelines() {
        fn check<S: Substrate>() {
            let spec = DeploymentSpec::new().groups(2);
            let cluster = ThreadedCluster::<S>::with_workers(&spec, 1);
            let mut client = cluster.client();
            for i in 0..30 {
                client.set(format!("key-{i}"), "v").unwrap();
            }
            let rows = cluster.obs_snapshot().per_group;
            let groups: Vec<u32> = rows.iter().map(|row| row.group).collect();
            assert_eq!(groups, [0, 1], "{}", S::DRIVER);
            let per_group: Vec<u64> = rows.iter().map(|row| row.writes_forwarded).collect();
            assert!(per_group.iter().all(|&n| n > 0), "{per_group:?}");
            assert_eq!(per_group.iter().sum::<u64>(), 30, "{}", S::DRIVER);

            // Broadcasts that change nothing (no replica is gated): one about
            // a replica of each group.
            let handled = || cluster.registry.snapshot().counter(Counter::SwitchPackets);
            let before = handled();
            let switch = spec.switch_addr();
            let ungate = |r| {
                let ungate = harmonia_types::ControlMsg::UngateReplica {
                    replica: r,
                    caught_up: harmonia_types::SwitchSeq::new(spec.initial_switch(), 0),
                };
                let msg = Msg::new(NodeId::Controller, switch, PacketBody::Control(ungate));
                (switch, msg)
            };
            let broadcasts = vec![ungate(spec.replica_id(0, 0)), ungate(spec.replica_id(1, 0))];
            cluster.substrate.deliver(broadcasts);
            // An inspect is answered after whatever was queued before it.
            while handled() < before + 2 {
                cluster.observe().unwrap();
            }
            cluster.observe().unwrap();
            assert_eq!(handled(), before + 2, "{}", S::DRIVER);
            cluster.shutdown();
        }
        check::<Channels>();
        check::<Sockets>();
    }

    /// `NodeLink::send_many` never waits: a node that meets a client's full
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
            let id = ClientId(deaf.lanes.first);
            let (me, to) = (NodeId::Client(id), deaf.lanes.switch);
            let mut asked = (0..2_000)
                .map(|n| OpSpec::read("k").request(id, RequestId(n)))
                .map(|req| (to, Msg::new(me, to, PacketBody::Request(req))))
                .collect();
            deaf.link.send_many(&mut asked);
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

    /// One flush is one envelope per destination loop: a `send_many` whose
    /// packets interleave two other loops and the sender itself, with a
    /// broadcast among them, leaves exactly one envelope on each queue — its
    /// packets in send order, the broadcast once, in its place — even where
    /// one loop serves two groups.
    #[test]
    fn a_flush_hands_each_loop_one_envelope_in_send_order() {
        let channels = Channels::default();
        let registry = Registry::with_clock(Arc::new(MonotonicClock::new()));
        let replica = |r: u32| NodeId::Replica(ReplicaId(r));
        let attach = |r: u32| {
            let (link, _, ingress) = channels.attach(&[], registry.handle());
            let mut names = Names::new(Arc::clone(channels.book()), ingress.clone());
            names.bind(&[replica(r)]);
            (link, names, ingress)
        };
        let (mut me, _me, at_me) = attach(0);
        let (b, _b, at_b) = attach(1);
        let (c, _c, at_c) = attach(2);
        let switch = NodeId::Switch(SwitchId(1));
        let spine = vec![at_me, at_b.clone(), at_c, at_b];
        assert!(channels
            .book()
            .install_spine(vec![switch], ShardMap::new(4), spine));

        // Tag n goes to replica r; the broadcast goes fourth.
        let mut batch: Vec<(NodeId, Msg)> =
            [(1, 0), (2, 1), (0, 2), (1, 3), (0, 4), (2, 5), (1, 6)]
                .into_iter()
                .map(|(r, n)| {
                    let mut msg = reply(FIRST, n, None);
                    msg.dst = replica(r);
                    (replica(r), msg)
                })
                .collect();
        let ungate = harmonia_types::ControlMsg::UngateReplica {
            replica: ReplicaId(0),
            caught_up: harmonia_types::SwitchSeq::new(SwitchId(1), 0),
        };
        let broadcast = Msg::new(NodeId::Controller, switch, PacketBody::Control(ungate));
        batch.insert(4, (switch, broadcast));
        me.send_many(&mut batch);
        assert!(batch.is_empty());

        // The tags on `link`'s queue, envelope by envelope; `None` is the
        // broadcast.
        let queued = |link: &ChannelLink| -> Vec<Vec<Option<u64>>> {
            let tag = |msg: Msg| match msg.body {
                PacketBody::Reply(reply) => Some(reply.request.0),
                _ => None,
            };
            (link.rx.try_iter())
                .map(|env| {
                    let Envelope::Packets(msgs) = env else {
                        panic!("a verb on a packet queue")
                    };
                    msgs.into_iter().map(tag).collect()
                })
                .collect()
        };
        assert_eq!(queued(&me), [vec![Some(2), None, Some(4)]]);
        assert_eq!(queued(&b), [vec![Some(0), Some(3), None, Some(6)]]);
        assert_eq!(queued(&c), [vec![Some(1), None, Some(5)]]);
    }

    /// A client shell's names — one per lane — enter the deployment's name
    /// service in one publication and leave it in one when the shell is
    /// dropped, whatever a name resolves to: the book returns to one entry
    /// per replica, and every sender re-snapshots once per shell.
    #[test]
    fn a_dropped_shell_takes_every_lanes_name_out_of_the_book() {
        fn check<S: Substrate>(spec: &DeploymentSpec, workers: usize) {
            let cluster = ThreadedCluster::<S>::with_workers(spec, workers);
            let at = cell(&cluster);
            let baseline = cluster.unicast_entries();
            assert_eq!(baseline, spec.total_replicas(), "{at}");
            let published = || cluster.substrate.book().generation();
            let before = published();
            let mut load = cluster.load(plans(8, 20, 10));
            assert_eq!(cluster.unicast_entries(), baseline + 8, "{at}");
            assert_eq!(published(), before + 1, "{at}");
            assert!(load.run().iter().flatten().all(|r| r.ok), "{at}");
            drop(load);
            assert_eq!(cluster.unicast_entries(), baseline, "{at}");
            assert_eq!(published(), before + 2, "{at}");
            cluster.shutdown();
        }
        every_layout(&DeploymentSpec::new(), check::<Channels>, check::<Sockets>);
    }

    /// R reads and W chain writes through `cluster`, every one answered.
    fn reads_and_writes(cluster: &mut dyn Cluster, reads: u64, writes: u64) {
        let mut client = cluster.client();
        for n in 0..writes {
            client.set(format!("k{}", n % 4).as_bytes(), b"v").unwrap();
        }
        // Hits on k0..k3, a miss on k4.
        for n in 0..reads {
            let want = (n % 5 < 4).then(|| Bytes::from_static(b"v"));
            assert_eq!(client.get(format!("k{}", n % 5).as_bytes()).unwrap(), want);
        }
    }

    /// A read's reply carries nothing for the switch; a chain write's reply
    /// carries the completion — so R reads and W writes are R + 2·W packets
    /// through the pipelines, with every completion snooped and nothing left
    /// dirty, on every driver and wherever the nodes live. On the threaded
    /// drivers a read reply never reaches a pipeline's host; the simulator's
    /// switch receives it — the rack's ToR hop — and forwards it outside
    /// every pipeline.
    #[test]
    fn pipelines_handle_one_packet_per_read_and_two_per_write() {
        const READS: u64 = 40;
        const WRITES: u64 = 9;
        fn assert_counts(cluster: &dyn Cluster, handled: u64, at: &str) {
            assert_eq!(handled, READS + 2 * WRITES, "{at}");
            let switch = cluster.obs_snapshot().switch;
            assert_eq!(switch.completions, WRITES, "{at}: {switch:?}");
            assert_eq!(switch.reads_fast_path + switch.reads_normal, READS, "{at}");
            assert_eq!(switch.dirty_len, 0, "{at}");
        }
        fn threaded<S: Substrate>(spec: &DeploymentSpec, workers: usize) {
            let mut cluster = ThreadedCluster::<S>::with_workers(spec, workers);
            reads_and_writes(&mut cluster, READS, WRITES);
            let handled = cluster.registry.snapshot().counter(Counter::SwitchPackets);
            assert_counts(&cluster, handled, &cell(&cluster));
            cluster.shutdown();
        }
        let spec = DeploymentSpec::new();
        every_layout(&spec, threaded::<Channels>, threaded::<Sockets>);
        let mut sim = spec.build_sim();
        reads_and_writes(&mut sim, READS, WRITES);
        let handled = sim.registry.snapshot().counter(Counter::SwitchPackets);
        assert_counts(&sim, handled, "sim");
    }

    /// The short route is the spine's forwarding, not a way around an
    /// outage: a replica still addresses the switch, so once `kill_switch`
    /// has cleared the spine its read reply resolves to nothing and reaches
    /// no client (§5.3, Figure 10) — on either substrate, on any layout.
    #[test]
    fn a_read_reply_sent_after_kill_switch_reaches_no_client() {
        fn check<S: Substrate>(spec: &DeploymentSpec, workers: usize) {
            use harmonia_types::RequestId;
            let mut cluster = ThreadedCluster::<S>::with_workers(spec, workers);
            let at = cell(&cluster);
            let mut client = cluster.client();
            let id = ClientId(client.lanes.first);
            // A replica's link, driven by hand.
            let replica = ReplicaId(99);
            let (mut link, ..) = cluster
                .substrate
                .attach(&[NodeId::Replica(replica)], cluster.registry.handle());
            let to = NodeId::Switch(cluster.spec.initial_switch());
            let mut send_reply = |n| {
                let req = OpSpec::read("k").request(id, RequestId(n));
                let reply = harmonia_replication::common::read_reply(replica, &req, None);
                let msg = Msg::new(NodeId::Replica(replica), to, PacketBody::Reply(reply));
                link.send_many(&mut vec![(to, msg)]);
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
            assert_eq!(heard(StdDuration::from_secs(10)), 1, "{at}");
            cluster.kill_switch();
            send_reply(2);
            assert_eq!(heard(StdDuration::from_millis(100)), 0, "{at}");
        }
        every_layout(&DeploymentSpec::new(), check::<Channels>, check::<Sockets>);
    }

    /// A replica is killed and restarted on the worker that also hosts the
    /// peer it recovers from, holding a store far larger than a socket
    /// buffer: the transfer is a burst from a thread to itself, which
    /// nothing drains while it is being sent. Every chunk of it must still
    /// arrive — the newcomer, left alone with the store, serves every key —
    /// and the switch sends it single-replica reads again.
    #[test]
    fn a_replica_recovers_a_large_store_from_a_peer_on_its_own_worker() {
        fn check<S: Substrate>(workers: usize) {
            const KEYS: usize = 20_000;
            let spec = DeploymentSpec::new();
            let mut cluster = ThreadedCluster::<S>::with_workers(&spec, workers);
            let at = cell(&cluster);
            let (newcomer, peer) = (ReplicaId(2), ReplicaId(0));
            assert!(
                std::ptr::eq(
                    cluster.replica_host(newcomer).unwrap(),
                    cluster.replica_host(peer).unwrap()
                ),
                "{at}: the test is about co-hosted replicas"
            );
            let value = |n: usize| Bytes::from(vec![n as u8; 128]);
            let key = |n: usize| format!("key-{n:05}");
            let stored = cluster.run_plans(
                (0..8)
                    .map(|lane| {
                        (lane..KEYS)
                            .step_by(8)
                            .map(|n| OpSpec::write(key(n), value(n)))
                            .collect()
                    })
                    .collect(),
            );
            assert!(stored.iter().flatten().all(|r| r.ok), "{at}");

            cluster.kill_replica(newcomer);
            let restarted = cluster.registry.clock().now();
            cluster.restart_replica(newcomer);
            // Recovered and ungated: the switch hands it a read again.
            let served_a_read = |cluster: &ThreadedCluster<S>| {
                cluster.trace_events().iter().any(|e| {
                    e.at > restarted
                        && e.node == NodeId::Replica(newcomer)
                        && e.stage == TraceStage::ReplicaExecute
                })
            };
            let deadline = StdInstant::now() + StdDuration::from_secs(60);
            let mut client = cluster.client();
            let mut probe = 0;
            while !served_a_read(&cluster) {
                assert!(StdInstant::now() < deadline, "{at}: never ungated");
                for _ in 0..32 {
                    probe = (probe + 1) % KEYS;
                    assert_eq!(client.get(key(probe)).unwrap(), Some(value(probe)), "{at}");
                }
            }
            assert_eq!(cluster.obs_snapshot().switch.fast_path_groups, 1, "{at}");
            drop(client);

            // Alone with the store: what it did not receive, nobody has.
            cluster.kill_replica(peer);
            cluster.kill_replica(ReplicaId(1));
            let read_back = cluster.run_plans(
                (0..8)
                    .map(|lane| {
                        (lane..KEYS)
                            .step_by(8)
                            .map(|n| OpSpec::read(key(n)))
                            .collect()
                    })
                    .collect(),
            );
            for (lane, history) in read_back.iter().enumerate() {
                for (i, r) in history.iter().enumerate() {
                    let n = lane + 8 * i;
                    assert!(r.ok, "{at}: {r:?}");
                    assert_eq!(r.result, Some(value(n)), "{at}: {}", key(n));
                }
            }
            cluster.shutdown();
        }
        for workers in [1, 2] {
            check::<Channels>(workers);
            check::<Sockets>(workers);
        }
    }

    /// The switch is replaced while a `load()` is in full flight: pipelines
    /// are evicted from and adopted by workers that keep running their
    /// replicas throughout, and the history stays linearizable.
    #[test]
    fn replace_switch_mid_load_stays_linearizable_on_every_layout() {
        fn check<S: Substrate>(spec: &DeploymentSpec, workers: usize) {
            let mut cluster = ThreadedCluster::<S>::with_workers(spec, workers);
            let at = cell(&cluster);
            let mut load = cluster.load(plans(8, 600, 120));
            let lanes = std::thread::spawn(move || load.run());
            let carried = |s: SwitchObs| s.reads_fast_path + s.reads_normal + s.writes_forwarded;
            while carried(cluster.obs_snapshot().switch) < 200 {
                std::thread::yield_now();
            }
            cluster.kill_switch();
            assert_eq!(cluster.obs_snapshot().switch, SwitchObs::default(), "{at}");
            std::thread::sleep(StdDuration::from_millis(30));
            cluster.replace_switch(SwitchId(2));
            let histories = lanes.join().unwrap();
            assert_linearizable_traced(&histories, &cluster.trace_events(), &at);
            // The new incarnation carried the rest, and armed its fast path
            // on its first own completion.
            let switch = cluster.obs_snapshot().switch;
            assert!(switch.completions > 0, "{at}: {switch:?}");
            assert_eq!(switch.fast_path_groups, 1, "{at}");
            cluster.shutdown();
        }
        every_layout(&DeploymentSpec::new(), check::<Channels>, check::<Sockets>);
    }

    /// A link that reports the deadline of every receive, so a test can see
    /// when the loop behind it sleeps untimed.
    struct Probe<L> {
        link: L,
        waits: Sender<Option<StdInstant>>,
    }

    impl<L: NodeLink> NodeLink for Probe<L> {
        fn send_many(&mut self, batch: &mut Vec<(NodeId, Msg)>) {
            self.link.send_many(batch);
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

    /// A worker thread hosting the default group's pipeline and replica 0
    /// under `spec`, behind a link that reports every wait: what a test
    /// needs to watch it sweep and sleep.
    struct Watched {
        ctl: Sender<Envelope>,
        ingress: Ingress,
        waited: Receiver<Option<StdInstant>>,
        registry: Registry,
        worker: JoinHandle<()>,
    }

    impl Watched {
        fn start(spec: &DeploymentSpec) -> Watched {
            let registry = Registry::with_clock(Arc::new(MonotonicClock::new()));
            let mut core = SwitchCore::for_deployment(spec, spec.initial_switch());
            core.set_recorder(&registry.handle());
            let channels = Channels::default();
            let (link, ctl, ingress) = channels.attach(&[], registry.handle());
            let names = Names::new(Arc::clone(channels.book()), ingress.clone());
            let (waits, waited) = unbounded();
            let clock = registry.clock();
            let probe = Probe { link, waits };
            let worker = std::thread::spawn(move || worker_main(probe, names, clock, 1));
            let watched = Watched {
                ctl,
                ingress,
                waited,
                registry,
                worker,
            };
            let none = watched.next_wait();
            assert_eq!(none, None, "a worker that hosts nothing arms no timer");
            let replica = build_replica(spec.group_config(0, 0));
            let hosted = vec![
                Hosted::pipelines(core),
                Hosted::replica(
                    ReplicaId(0),
                    ReplicaNode::new(replica, None, watched.registry.handle()),
                ),
            ];
            let adopted = ask(&watched.ctl, |ack| Envelope::Adopt(hosted, ack)).unwrap();
            adopted.recv_timeout(StdDuration::from_secs(10)).unwrap();
            watched
        }

        fn next_wait(&self) -> Option<StdInstant> {
            self.waited
                .recv_timeout(StdDuration::from_secs(10))
                .unwrap()
        }

        fn inject(&self, body: PacketBody<harmonia_replication::ProtocolMsg>) {
            let (client, switch) = (NodeId::Client(ClientId(1)), NodeId::Switch(SwitchId(1)));
            let msg = Msg::new(client, switch, body);
            self.ingress.tx.send(Envelope::Packets(vec![msg])).unwrap();
        }

        fn write(&self, key: &'static str, n: u64) {
            let req = OpSpec::write(key, "v").request(ClientId(1), harmonia_types::RequestId(n));
            self.inject(PacketBody::Request(req));
        }

        /// Two stamped writes of which only the second one's completion
        /// arrives: the first one's entry is stale from then on.
        fn leave_one_stale(&self) {
            use harmonia_types::{ObjectId, SwitchSeq, WriteCompletion};
            self.write("a", 0);
            self.write("b", 1);
            self.inject(PacketBody::Completion(WriteCompletion {
                obj: ObjectId::from_key(b"b"),
                seq: SwitchSeq::new(SwitchId(1), 2),
            }));
        }

        fn dirty_len(&self) -> usize {
            let reply = ask(&self.ctl, Envelope::Inspect).unwrap();
            reply
                .recv_timeout(StdDuration::from_secs(10))
                .unwrap()
                .dirty_len()
        }

        fn swept(&self) -> u64 {
            self.registry.snapshot().counter(Counter::SwitchSwept)
        }

        /// Stop the worker; whether it ever waited with a deadline since the
        /// last wait read.
        fn stop(self) -> bool {
            self.ctl.send(Envelope::Stop).unwrap();
            self.worker.join().unwrap();
            self.waited.try_iter().any(|wait| wait.is_some())
        }
    }

    /// The sweep is idle-driven and armed only while it could reclaim
    /// something: an entry whose completion was lost goes once the commit
    /// point has passed it, and then — stray live entry or not — the worker
    /// sleeps with no timer. Deadlines are per node: the replica hosted
    /// beside the pipeline has none (a chain never ticks) and adds none.
    #[test]
    fn idle_pipeline_sweeps_what_went_stale_then_sleeps_untimed() {
        let spec = DeploymentSpec::new().sweep_interval(Some(Duration::from_millis(2)));
        let watched = Watched::start(&spec);
        assert_eq!(
            watched.next_wait(),
            None,
            "an empty dirty set arms no timer"
        );
        watched.leave_one_stale();
        // Timed waits while "a" sits below the commit point, until one runs
        // out and the sweep reclaims it; then no timer again.
        while watched.next_wait().is_none() {}
        while watched.next_wait().is_some() {}
        assert_eq!(watched.dirty_len(), 0);
        assert_eq!(watched.swept(), 1);

        // A stray entry above the commit point is not worth waking for.
        watched.write("c", 2);
        assert_eq!(watched.dirty_len(), 1);
        assert!(
            !watched.stop(),
            "nothing left to reclaim, yet the worker armed a sweep timer"
        );
    }

    /// Without a sweep interval an idle pipeline never sweeps: the stale
    /// entry stays, and the worker sleeps untimed throughout.
    #[test]
    fn without_a_sweep_interval_an_idle_pipeline_keeps_its_stale_entries_and_sleeps_untimed() {
        let watched = Watched::start(&DeploymentSpec::new().sweep_interval(None));
        watched.leave_one_stale();
        std::thread::sleep(StdDuration::from_millis(20));
        assert_eq!(watched.dirty_len(), 1);
        assert_eq!(watched.swept(), 0);
        assert!(!watched.stop(), "a worker that never sweeps armed a timer");
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
        fn send_many(&mut self, batch: &mut Vec<(NodeId, Msg)>) {
            for (_, msg) in batch.drain(..) {
                if let PacketBody::Request(req) = msg.body {
                    let _ = self.sent.send(req);
                }
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
        let client = LiveClient::over((), link, &spec, FIRST, plans, registry.handle());
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
        let timeout = CLIENT_TIMEOUT.to_std();
        // Lanes b and c begin their second operation half an attempt after
        // everyone's first, so only a's deadline has passed when it passes.
        let script = vec![
            Recv::Batch(timeout / 2, vec![reply(b, 0, None), reply(c, 0, None)]),
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
        assert!(waits[0] <= started + timeout + StdDuration::from_millis(50));
        assert!(waits[2] >= waits[0] + timeout / 2, "{waits:?}");
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
