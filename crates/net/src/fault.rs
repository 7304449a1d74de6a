//! A deterministic network adversary at the socket boundary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use harmonia_types::{NodeId, Packet};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::transport::{RecvError, Transport};

/// Send-path fault probabilities. All zero (the default) is a no-op.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct FaultConfig {
    /// Probability a packet is silently dropped.
    pub drop_prob: f64,
    /// Probability a packet is sent twice.
    pub duplicate_prob: f64,
    /// Probability a packet is held back and released *after* the next
    /// packet this endpoint sends (or on the next receive, so a held packet
    /// is never stranded by a sender going quiet).
    pub reorder_prob: f64,
}

impl FaultConfig {
    /// True if no fault can ever fire.
    pub fn is_noop(&self) -> bool {
        self.drop_prob <= 0.0 && self.duplicate_prob <= 0.0 && self.reorder_prob <= 0.0
    }
}

/// Shared tallies of injected faults, so a harness can assert the adversary
/// actually exercised the system (a fault test whose faults never fire is
/// silently just the happy path).
#[derive(Default, Debug)]
pub struct FaultCounters {
    /// Packets dropped on send.
    pub dropped: AtomicU64,
    /// Packets sent twice.
    pub duplicated: AtomicU64,
    /// Packets delivered out of send order.
    pub reordered: AtomicU64,
    /// Packets still held for reordering when their endpoint was torn down
    /// — discarded instead of flushed, so a dead node's adversary cannot
    /// send toward addresses that may already be gone.
    pub discarded: AtomicU64,
}

impl FaultCounters {
    /// `(dropped, duplicated, reordered)` so far.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.dropped.load(Ordering::Relaxed),
            self.duplicated.load(Ordering::Relaxed),
            self.reordered.load(Ordering::Relaxed),
        )
    }

    /// Held packets discarded at endpoint teardown so far.
    pub fn discarded(&self) -> u64 {
        self.discarded.load(Ordering::Relaxed)
    }
}

/// Wraps any [`Transport`] with seeded loss, duplication, and reordering on
/// the send path — the adversary lives at the socket boundary, so the wrapped
/// node's state machines and retry loops face exactly what a real lossy
/// datagram network would hand them.
///
/// Decisions come from a [`SmallRng`] seeded at construction: the same seed
/// over the same send sequence makes the same calls, so a failing schedule
/// can be replayed (modulo the kernel's own scheduling of the sockets
/// underneath).
///
/// **Fault envelope under frame coalescing.** Real networks lose whole
/// *datagrams*, and so does this adversary: every fault decision hits one
/// unit of delivery. The wrapper does not override the batch verbs, so its
/// `send_batch` loops the scalar path — and the UDP endpoint's scalar
/// `send` flushes one frame per datagram, never packing across packets.
/// Coalescing therefore cannot engage underneath the adversary: "per
/// fault decision" always means "per datagram" *and* "per frame" at once,
/// and the wrapped endpoint's `datagrams_sent == sent`.
/// `tests/batch_dataplane.rs` pins this.
///
/// **What is spared.** A packet from a replica to a replica is delivered
/// directly — no fault ever fires, no RNG draw is consumed: those channels
/// keep the reliable-FIFO envelope in-order write propagation depends on
/// (§5.2; they are TCP in any real chain / primary-backup deployment). The
/// rule reads the packet, not the endpoint, so it holds wherever the two
/// replicas live — on sockets of their own, or on one shared with each
/// other, a switch pipeline or both — while everything else the same
/// endpoint sends (replies, completions, forwarded requests) faces the
/// adversary.
pub struct FaultyTransport<T, I> {
    inner: I,
    cfg: FaultConfig,
    rng: SmallRng,
    held: Option<(NodeId, Packet<T>)>,
    counters: Arc<FaultCounters>,
}

impl<T, I> FaultyTransport<T, I> {
    /// Wrap `inner` with `cfg`, drawing decisions from `seed` and tallying
    /// into `counters`.
    pub fn new(inner: I, cfg: FaultConfig, seed: u64, counters: Arc<FaultCounters>) -> Self {
        FaultyTransport {
            inner,
            cfg,
            rng: SmallRng::seed_from_u64(seed),
            held: None,
            counters,
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &I {
        &self.inner
    }
}

impl<T, I> FaultyTransport<T, I>
where
    I: Transport<T>,
{
    fn flush_held(&mut self) {
        if let Some((to, pkt)) = self.held.take() {
            self.inner.send(to, pkt);
        }
    }
}

impl<T, I> Drop for FaultyTransport<T, I> {
    fn drop(&mut self) {
        // A packet still held for reordering at teardown is discarded, not
        // flushed: the node is dead, and its destination's address may have
        // already left the book (§5.3 teardown order is not observable to
        // the adversary). Counted so fault harnesses can account for it.
        if self.held.take().is_some() {
            self.counters.discarded.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl<T, I> Transport<T> for FaultyTransport<T, I>
where
    T: Clone + Send,
    I: Transport<T>,
{
    fn send(&mut self, to: NodeId, pkt: Packet<T>) {
        if matches!((pkt.src, to), (NodeId::Replica(_), NodeId::Replica(_))) {
            self.inner.send(to, pkt);
            return;
        }
        if self.cfg.drop_prob > 0.0 && self.rng.gen_bool(self.cfg.drop_prob) {
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if self.cfg.reorder_prob > 0.0
            && self.held.is_none()
            && self.rng.gen_bool(self.cfg.reorder_prob)
        {
            // Hold this packet back; it goes out after the *next* send (or
            // on the next receive), i.e. out of order.
            self.counters.reordered.fetch_add(1, Ordering::Relaxed);
            self.held = Some((to, pkt));
            return;
        }
        let duplicate = self.cfg.duplicate_prob > 0.0 && self.rng.gen_bool(self.cfg.duplicate_prob);
        if duplicate {
            self.counters.duplicated.fetch_add(1, Ordering::Relaxed);
            self.inner.send(to, pkt.clone());
        }
        self.inner.send(to, pkt);
        self.flush_held();
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Packet<T>, RecvError> {
        // Liveness: a held packet must not be stranded while this endpoint
        // waits for the reply it held back.
        self.flush_held();
        self.inner.recv_timeout(timeout)
    }

    fn recv(&mut self) -> Result<Packet<T>, RecvError> {
        // Same liveness rule: this wait may be a long one.
        self.flush_held();
        self.inner.recv()
    }

    fn take_queued(&mut self, out: &mut Vec<Packet<T>>) -> usize {
        // Same liveness rule, and a held packet addressed to this very
        // endpoint is among what it already holds once released.
        self.flush_held();
        self.inner.take_queued(out)
    }

    fn wire_stats(&self) -> Option<crate::udp::TransportStats> {
        self.inner.wire_stats()
    }

    fn wire_pool_stats(&self) -> Option<(crate::pool::PoolStats, crate::pool::PoolStats)> {
        self.inner.wire_pool_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_types::{ClientId, PacketBody};

    /// Records sends instead of delivering them.
    #[derive(Default)]
    struct MockTransport {
        log: Vec<u64>,
    }

    impl Transport<u64> for MockTransport {
        fn send(&mut self, _to: NodeId, pkt: Packet<u64>) {
            if let PacketBody::Protocol(n) = pkt.body {
                self.log.push(n);
            }
        }
        fn recv_timeout(&mut self, _t: Duration) -> Result<Packet<u64>, RecvError> {
            Err(RecvError::TimedOut)
        }
        fn recv(&mut self) -> Result<Packet<u64>, RecvError> {
            Err(RecvError::Closed)
        }
    }

    fn pkt(n: u64) -> Packet<u64> {
        Packet::new(
            NodeId::Client(ClientId(1)),
            NodeId::Client(ClientId(2)),
            PacketBody::Protocol(n),
        )
    }

    fn run(cfg: FaultConfig, seed: u64, n: u64) -> (Vec<u64>, (u64, u64, u64)) {
        let counters = Arc::new(FaultCounters::default());
        let mut t =
            FaultyTransport::new(MockTransport::default(), cfg, seed, Arc::clone(&counters));
        for i in 0..n {
            t.send(NodeId::Client(ClientId(2)), pkt(i));
        }
        let _ = t.recv_timeout(Duration::from_millis(1)); // flush a trailing hold
        (t.inner.log.clone(), counters.snapshot())
    }

    #[test]
    fn noop_config_is_transparent() {
        let (log, counts) = run(FaultConfig::default(), 1, 50);
        assert_eq!(log, (0..50).collect::<Vec<u64>>());
        assert_eq!(counts, (0, 0, 0));
    }

    #[test]
    fn faults_fire_and_are_counted() {
        let cfg = FaultConfig {
            drop_prob: 0.2,
            duplicate_prob: 0.2,
            reorder_prob: 0.2,
        };
        let (log, (dropped, duplicated, reordered)) = run(cfg, 7, 500);
        assert!(dropped > 0 && duplicated > 0 && reordered > 0);
        // Conservation: every non-dropped packet is delivered at least once.
        assert_eq!(log.len() as u64, 500 - dropped + duplicated);
        // Reordering really happened: the log is not sorted.
        assert!(log.windows(2).any(|w| w[0] > w[1]), "no inversion in log");
    }

    #[test]
    fn replica_to_replica_packets_never_fault() {
        use harmonia_types::ReplicaId;
        let cfg = FaultConfig {
            drop_prob: 0.9,
            duplicate_prob: 0.9,
            reorder_prob: 0.9,
        };
        let counters = Arc::new(FaultCounters::default());
        let mut t = FaultyTransport::new(MockTransport::default(), cfg, 5, Arc::clone(&counters));
        let (a, b) = (NodeId::Replica(ReplicaId(0)), NodeId::Replica(ReplicaId(1)));
        for i in 0..100 {
            t.send(b, Packet::new(a, b, PacketBody::Protocol(i)));
        }
        assert_eq!(t.inner.log, (0..100).collect::<Vec<u64>>());
        assert_eq!(counters.snapshot(), (0, 0, 0));
        // Anything else the same endpoint sends still faults: a packet from
        // the replica to a client, and one from a client to the replica.
        for (src, to) in [
            (a, NodeId::Client(ClientId(3))),
            (NodeId::Client(ClientId(3)), a),
        ] {
            let before = counters.snapshot().0;
            for i in 0..100 {
                t.send(to, Packet::new(src, to, PacketBody::Protocol(i)));
            }
            assert!(counters.snapshot().0 > before, "{src:?} -> {to:?}");
        }
    }

    #[test]
    fn held_packet_is_discarded_not_flushed_at_teardown() {
        let cfg = FaultConfig {
            reorder_prob: 1.0,
            ..FaultConfig::default()
        };
        let counters = Arc::new(FaultCounters::default());
        let log = {
            let mut t =
                FaultyTransport::new(MockTransport::default(), cfg, 3, Arc::clone(&counters));
            // With reorder_prob = 1 the very first send is held back.
            t.send(NodeId::Client(ClientId(2)), pkt(1));
            t.inner.log.clone()
            // The endpoint is torn down here with the packet still held.
        };
        assert!(log.is_empty(), "held packet must not reach the wire");
        assert_eq!(counters.discarded(), 1, "discard must be counted");
        assert_eq!(counters.snapshot().2, 1, "the hold itself was a reorder");
    }

    /// Taking what the endpoint holds releases a held packet first — it may
    /// be addressed to this very endpoint — and then asks the wrapped one.
    #[test]
    fn take_queued_releases_a_held_packet_first() {
        let cfg = FaultConfig {
            reorder_prob: 1.0,
            ..FaultConfig::default()
        };
        let counters = Arc::new(FaultCounters::default());
        let mut t = FaultyTransport::new(MockTransport::default(), cfg, 3, counters);
        t.send(NodeId::Client(ClientId(2)), pkt(1));
        assert!(t.inner.log.is_empty(), "held back");
        assert_eq!(t.take_queued(&mut Vec::new()), 0, "the mock holds nothing");
        assert_eq!(t.inner.log, [1]);
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig {
            drop_prob: 0.1,
            duplicate_prob: 0.1,
            reorder_prob: 0.1,
        };
        assert_eq!(run(cfg, 42, 300), run(cfg, 42, 300));
        assert_ne!(run(cfg, 42, 300).0, run(cfg, 43, 300).0);
    }
}
