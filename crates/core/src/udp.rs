//! The UDP driver: the same state machines, every byte on a real socket.
//!
//! This is the third deployment shape behind the [`Cluster`] trait
//! ([`DeploymentSpec::spawn_udp`]): the threaded rig of [`crate::live`] —
//! workers hosting per-group switch pipelines and replicas, the
//! [`LiveClient`] shell — over the [`Sockets`] substrate, so loops are
//! connected by `std::net::UdpSocket` loopback datagrams instead of
//! in-process channels: one socket per worker, answering to the name of
//! every node it hosts, and one per client shell, shared by its lanes.
//! Every packet is encoded through the `harmonia-types` wire codec into a
//! length-prefixed frame, and each datagram carries one or more frames
//! back-to-back (GSO/GRO-style coalescing), so the codec is exercised
//! against a peer that can hand it truncated, duplicated, reordered, or
//! garbage bytes: the OUM envelope the paper's deployment actually assumes
//! (§4, §6). That holds for a hop between two nodes of one worker too: the
//! frame is encoded, sealed into a datagram addressed to the worker's own
//! socket, and decoded again — only the kernel is skipped, because the
//! endpoint loops such a datagram back itself
//! ([`UdpTransport`]). A thread cannot drain its receive buffer while it is
//! sending, so a state transfer to a replica on the sender's own worker
//! would otherwise overflow it; and a hop that stays on a worker costs no
//! syscall: [`UdpLink`]'s receive takes what the endpoint already holds
//! ([`Transport::take_queued`]) as a batch of its own and asks the socket
//! only once that is gone. A read served on one worker is two datagrams,
//! request and reply; the worker receives the request with one `recv` and
//! one `recvmmsg`, and the hop to the replica with no syscall at all.
//!
//! # Plumbing, not logic
//!
//! All packet-handling logic and every §5.3 verb lives in [`crate::live`];
//! this module only provides the transport plumbing:
//!
//! * The spine stays a **sender-side** route: the deployment's
//!   [`AddrBook`] — the same name service the channel substrate resolves
//!   through, here with `SocketAddr` endpoints, published into by the rig —
//!   maps the stable switch address (and the live incarnation's id) to the
//!   sockets of the workers hosting each group's pipeline, and resolving a
//!   send performs the `ShardMap` lookup on the sending thread, no
//!   intermediate hop. The decision is
//!   [`PacketBody::switch_route`](harmonia_types::PacketBody::switch_route),
//!   so here too a reply with no completion to snoop resolves to its
//!   client's socket — a 4 KB read value crosses the wire once, replica →
//!   client — and only completion-bearing replies reach a pipeline. With the
//!   spine cleared the same reply resolves to no address at all.
//! * Driver control verbs (inspect, adopt, evict, stop) ride a crossbeam
//!   side channel per worker; only data-plane packets cross the sockets. A
//!   thread sleeps on its socket, so a verb is a [`Doorbell`]: queued on the
//!   side channel, then rung — an empty datagram to the worker's socket from
//!   the deployment's one clean control endpoint, which ends the worker's
//!   `recv` at once. An idle worker with no deadline blocks on its socket
//!   with no timeout; nothing in a quiet deployment wakes periodically.
//!
//! # Fault injection on the send path
//!
//! The spec's [`LinkConfig`](harmonia_sim::LinkConfig) fault probabilities
//! (`drop_prob`, `duplicate_prob`, `reorder_prob`) are honoured here too:
//! every socket of the deployment — workers' and clients' alike; the
//! configuration service's is clean — is bound
//! [`with_faults`](UdpTransport::with_faults), so a seeded
//! [`Adversary`](harmonia_net::Adversary) rewrites each outbound batch
//! before the one coalescing send path packs it. Its one rule spares a
//! packet *from a replica to a replica* and nothing else. So the
//! client↔switch and switch↔replica legs face the adversary in **both**
//! directions (requests, forwards, replies, completions), whether or not
//! the two ends share a worker, while replica↔replica channels stay clean,
//! the same envelope the simulator's §5.2 fault sweeps preserve (those
//! channels are TCP in any real chain/PB deployment, and in-order write
//! propagation depends on them). Every decision is per packet, so a
//! faulted endpoint coalesces like a clean one: a dropped or duplicated
//! packet is one frame, whichever datagram it rides. Latency and jitter
//! fields are ignored: the kernel's loopback timing is the real thing.
//!
//! [`Cluster`]: crate::deployment::Cluster
//! [`LiveClient`]: crate::live::LiveClient

// Wall-clock reads are deliberate here: live UDP driver: ticks and timeouts are real time.
#![allow(clippy::disallowed_methods)]

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant as StdInstant;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use harmonia_net::{
    AddrBook, FaultConfig, FaultCounters, PoolStats, RecvError, Transport, TransportStats,
    UdpTransport,
};
use harmonia_obs::{Counter, FaultObs, Recorder};
use harmonia_replication::messages::ProtocolMsg;
use harmonia_types::NodeId;

use crate::deployment::DeploymentSpec;
use crate::live::{Envelope, NodeLink, Substrate, ThreadedCluster, Verbs};
use crate::msg::Msg;

/// How many packets one batched kernel drain may pull. Matches the mmsg
/// wrapper's chunk size so one drain is one `recvmmsg` call.
const RECV_BATCH: usize = 32;

/// The UDP substrate's `NodeLink`: data-plane packets on the socket, driver
/// control verbs on a crossbeam side channel. A thread can sleep on only one
/// of the two, so it sleeps on the socket — for the loop's whole wait, or
/// with no timeout when the loop has no deadline — and every verb rings
/// that socket ([`Doorbell`]). The wake-up ends the `recv`; the link looks
/// at the side channel first on every pass, so it finds the verb there.
///
/// A lost doorbell is safe: loopback drops a datagram only when the
/// receiver's buffer is full, and a link with a full buffer does not
/// sleep — its next pass, which looks at the side channel first, is at
/// most one batch away.
pub struct UdpLink {
    transport: UdpTransport<ProtocolMsg>,
    ctl: Receiver<Envelope>,
    /// Observability shard for this endpoint's wire counters.
    recorder: Recorder,
    /// Last wire/pool stats already credited to the recorder — the
    /// transport keeps cumulative counters, the registry wants increments,
    /// so each sync publishes only the delta since the previous one.
    seen_wire: TransportStats,
    seen_recv_pool: PoolStats,
    seen_send_pool: PoolStats,
}

impl UdpLink {
    /// Credit the transport's counter growth since the last sync to the
    /// recorder. Called once per batched send and on teardown — off the
    /// per-packet path, so the steady-state cost is a handful of relaxed
    /// adds amortized over a whole batch.
    fn sync_obs(&mut self) {
        let now = self.transport.stats();
        let d = now.since(&self.seen_wire);
        self.seen_wire = now;
        self.recorder.add(Counter::FramesSent, d.sent);
        self.recorder.add(Counter::DatagramsSent, d.datagrams_sent);
        self.recorder.add(Counter::FramesReceived, d.received);
        self.recorder.add(Counter::Unresolved, d.unresolved);
        self.recorder.add(Counter::DecodeErrors, d.decode_errors);
        self.recorder.add(Counter::Salvaged, d.salvaged);
        self.recorder.add(Counter::Oversized, d.oversized);
        self.recorder.add(Counter::SendErrors, d.send_errors);
        self.recorder.add(Counter::ConfigErrors, d.config_errors);
        let recv = self.transport.pool_stats();
        let dr = recv.since(&self.seen_recv_pool);
        self.seen_recv_pool = recv;
        self.recorder.add(Counter::RecvPoolHits, dr.hits);
        self.recorder.add(Counter::RecvPoolMisses, dr.misses);
        let send = self.transport.send_pool_stats();
        let ds = send.since(&self.seen_send_pool);
        self.seen_send_pool = send;
        self.recorder.add(Counter::SendPoolHits, ds.hits);
        self.recorder.add(Counter::SendPoolMisses, ds.misses);
    }
}

impl Drop for UdpLink {
    fn drop(&mut self) {
        // Final counter sync: short-lived endpoints (clients, control
        // sockets) may never hit the batched send path, so teardown is
        // where their wire counters reach the registry.
        self.sync_obs();
    }
}

impl NodeLink for UdpLink {
    fn send_many(&mut self, batch: &mut Vec<(NodeId, Msg)>) {
        // One `sendmmsg` run per MAX_BATCH datagrams, faulted or not.
        self.transport.send_batch(batch);
        self.sync_obs();
    }

    fn recv_into(
        &mut self,
        deadline: Option<StdInstant>,
        inbox: &mut Vec<Msg>,
    ) -> Result<Option<Envelope>, RecvTimeoutError> {
        loop {
            if let Ok(verb) = self.ctl.try_recv() {
                return Ok(Some(verb));
            }
            // What the endpoint already holds — hops that stayed on this
            // link, looped back by its last flush, or the rest of a
            // multi-frame datagram — is a batch of its own: the socket is
            // asked only once that is gone, and a drain there now would
            // mostly come back empty.
            if self.transport.take_queued(inbox) > 0 {
                return Ok(None);
            }
            // Sleep in one `recv` for the first datagram — no wait at all if
            // one is queued — then everything queued behind it comes out
            // through one `recvmmsg`, straight into the caller's inbox.
            match self.transport.recv(deadline) {
                Ok(pkt) => {
                    inbox.push(pkt);
                    self.transport.recv_batch(inbox, RECV_BATCH);
                    return Ok(None);
                }
                // A doorbell: the verb is on the side channel.
                Err(RecvError::Woken) => {}
                Err(RecvError::TimedOut) => return Err(RecvTimeoutError::Timeout),
            }
        }
    }
}

/// A worker's verb handle on sockets: post the verb on the worker's side
/// channel, then ring its socket from the deployment's control endpoint,
/// so that a worker asleep in `recv` wakes and takes it.
pub struct Doorbell {
    verbs: Sender<Envelope>,
    control: Arc<Mutex<UdpTransport<ProtocolMsg>>>,
    /// The worker's socket.
    at: SocketAddr,
}

impl Verbs for Doorbell {
    fn post(&self, verb: Envelope) -> bool {
        let queued = self.verbs.send(verb).is_ok();
        if queued {
            self.control.lock().wake(self.at);
        }
        queued
    }
}

/// The socket substrate: one loopback `UdpSocket` per link — a worker's, a
/// client shell's — behind the deployment's [`AddrBook`], with the spec's
/// fault model on their send path, and one clean control endpoint for
/// the configuration service's scripts and the workers' doorbells.
pub struct Sockets {
    book: Arc<AddrBook>,
    /// Bound once per deployment; the fault model never touches it.
    control: Arc<Mutex<UdpTransport<ProtocolMsg>>>,
    faults: FaultConfig,
    fault_counters: Arc<FaultCounters>,
    /// Base for per-transport fault-RNG seeds (from the spec's seed).
    fault_seed: u64,
    /// Distinct deterministic stream per adversarial transport.
    fault_streams: AtomicU64,
}

/// Bind a fresh loopback endpoint on `book`.
fn bind(book: &Arc<AddrBook>) -> UdpTransport<ProtocolMsg> {
    // lint:allow(panic_path): deployment bring-up — a failed loopback
    // bind means no endpoint ever existed; no live traffic is at risk.
    UdpTransport::bind(Arc::clone(book)).expect("bind loopback UDP socket")
}

impl Sockets {
    /// Bind a fresh loopback endpoint facing the spec's fault model.
    fn endpoint(&self) -> UdpTransport<ProtocolMsg> {
        let t = bind(&self.book);
        if self.faults.is_noop() {
            return t;
        }
        let stream = self.fault_streams.fetch_add(1, Ordering::Relaxed);
        let seed = self
            .fault_seed
            .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        t.with_faults(self.faults, seed, Arc::clone(&self.fault_counters))
    }
}

impl Substrate for Sockets {
    type Link = UdpLink;
    type Ctl = Doorbell;
    type Ingress = SocketAddr;
    const DRIVER: &'static str = "udp";
    // Even a clean loopback socket can lose a datagram to a full receiver
    // buffer under load.
    const LEASE_ROUNDS: u32 = 3;

    fn new(spec: &DeploymentSpec) -> Self {
        let book = Arc::new(AddrBook::new());
        Sockets {
            control: Arc::new(Mutex::new(bind(&book))),
            book,
            faults: FaultConfig {
                drop_prob: spec.link.drop_prob,
                duplicate_prob: spec.link.duplicate_prob,
                reorder_prob: spec.link.reorder_prob,
            },
            fault_counters: Arc::new(FaultCounters::default()),
            fault_seed: spec.seed,
            fault_streams: AtomicU64::new(0),
        }
    }

    fn book(&self) -> &Arc<AddrBook> {
        &self.book
    }

    fn attach(&self, _names: &[NodeId], recorder: Recorder) -> (UdpLink, Doorbell, SocketAddr) {
        let transport = self.endpoint();
        let addr = transport.local_addr();
        let (verbs, ctl) = unbounded();
        let link = UdpLink {
            transport,
            ctl,
            recorder,
            seen_wire: TransportStats::default(),
            seen_recv_pool: PoolStats::default(),
            seen_send_pool: PoolStats::default(),
        };
        let doorbell = Doorbell {
            verbs,
            control: Arc::clone(&self.control),
            at: addr,
        };
        (link, doorbell, addr)
    }

    /// The script crosses a real socket like everything else, but a clean
    /// one: the configuration service is not the adversary's target.
    fn deliver(&self, mut script: Vec<(NodeId, Msg)>) {
        self.control.lock().send_batch(&mut script);
    }

    /// The adversary keeps its own tallies; they are the ground truth for
    /// what the fault model actually injected.
    fn fault_obs(&self) -> FaultObs {
        let (dropped, duplicated, reordered) = self.fault_counters.snapshot();
        FaultObs {
            dropped,
            duplicated,
            reordered,
            discarded: self.fault_counters.discarded(),
        }
    }
}

/// A deployment whose every packet crosses a loopback `UdpSocket` — one
/// replica group or many, exactly as its [`DeploymentSpec`] describes
/// ([`DeploymentSpec::spawn_udp`]).
///
/// Same workers, packet-handling logic and §5.3 verbs as
/// [`LiveCluster`](crate::live::LiveCluster), different substrate:
/// datagrams that can be lost, duplicated, and reordered. The spec's `link`
/// fault probabilities are injected on every socket's send path by a seeded
/// [`Adversary`](harmonia_net::Adversary) (which spares replica→replica
/// packets); the snapshot's `faults` section reports what actually fired.
pub type UdpCluster = ThreadedCluster<Sockets>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Cluster;
    use bytes::Bytes;
    use std::time::Duration as StdDuration;

    /// A hop that stays on the link is a batch of its own and costs no
    /// syscall: with a frame looped back by the link's own flush and a peer's
    /// datagram already waiting in the kernel, a receive returns the looped
    /// frame alone, at once — with no deadline at all — and the next receive
    /// brings the datagram. Clean and faulted endpoints alike (a
    /// replica-to-replica packet never faults).
    #[test]
    fn a_looped_back_frame_comes_out_alone_before_the_socket_is_asked() {
        use harmonia_obs::{MonotonicClock, Registry};
        use harmonia_types::{ControlMsg, PacketBody, ReplicaId};
        let clean = DeploymentSpec::new();
        let faulty = clean.clone().link(harmonia_sim::LinkConfig {
            drop_prob: 0.5,
            reorder_prob: 0.5,
            ..clean.link
        });
        for spec in [clean, faulty] {
            let sockets = Sockets::new(&spec);
            let registry = Registry::with_clock(Arc::new(MonotonicClock::new()));
            let (mut worker, _ctl, at) = sockets.attach(&[], registry.handle());
            let (mut peer, ..) = sockets.attach(&[], registry.handle());
            let mut names = harmonia_net::Names::new(Arc::clone(sockets.book()), at);
            let (me, other) = (NodeId::Replica(ReplicaId(0)), NodeId::Replica(ReplicaId(1)));
            names.bind(&[me]);
            let packet = |src, r: u32| {
                let body = PacketBody::Control(ControlMsg::RemoveReplica(ReplicaId(r)));
                Msg::new(src, me, body)
            };
            peer.send_many(&mut vec![(me, packet(other, 1))]);
            // Loopback delivery completes inside the send; the pause only
            // keeps the test meaningful where it would not.
            std::thread::sleep(StdDuration::from_millis(20));
            worker.send_many(&mut vec![(me, packet(me, 0))]);

            let mut inbox = Vec::new();
            assert!(matches!(worker.recv_into(None, &mut inbox), Ok(None)));
            assert_eq!(inbox, [packet(me, 0)]);
            inbox.clear();
            let deadline = StdInstant::now() + StdDuration::from_secs(10);
            let received = worker.recv_into(Some(deadline), &mut inbox);
            assert!(matches!(received, Ok(None)));
            assert_eq!(inbox, [packet(other, 1)]);
        }
    }

    #[test]
    fn udp_two_clients_share_state() {
        let cluster = DeploymentSpec::new().spawn_udp();
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
    fn udp_sharded_roundtrip_touches_every_group() {
        let cluster = DeploymentSpec::new().groups(4).spawn_udp();
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
}
