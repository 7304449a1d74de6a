//! A deterministic network adversary, as a stage of the send path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use harmonia_types::{NodeId, Packet};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Send-path fault probabilities. All zero (the default) is a no-op; a
/// probability above 1 is certain.
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

/// Seeded loss, duplication and reordering, applied to an outbound batch
/// before it is encoded — the stage
/// [`UdpTransport::with_faults`](crate::UdpTransport::with_faults) puts in
/// front of its one send path, so the node's state machines and retry loops
/// face what a lossy datagram network would hand them, over the same
/// coalescing path a clean endpoint sends through.
///
/// Sans-IO: [`apply`](Self::apply) rewrites a batch of `(destination,
/// packet)` pairs in place into what reaches the wire. Every decision is
/// per packet, in send order, from a [`SmallRng`] seeded at construction:
/// the same seed over the same packets makes the same decisions however
/// the packets were cut into batches. A packet dropped, duplicated or held
/// is one frame, whichever datagram it would have shared.
///
/// **Reordering.** A held packet goes out right after the next packet that
/// is sent, in the same batch or a later one, or at
/// [`release`](Self::release) — the endpoint's next receive — so a sender
/// going quiet never strands it. One is held at a time. A packet still
/// held when the adversary is dropped is discarded and counted.
///
/// **What is spared.** A packet from a replica to a replica passes through
/// untouched and costs no draw: those channels keep the reliable-FIFO
/// envelope in-order write propagation depends on (§5.2; they are TCP in
/// any real chain / primary-backup deployment). The rule reads the packet,
/// not the endpoint, so it holds wherever the two replicas live, while
/// everything else the same endpoint sends (replies, completions, forwarded
/// requests) faces the adversary.
pub struct Adversary<T> {
    cfg: FaultConfig,
    rng: SmallRng,
    held: Option<(NodeId, Packet<T>)>,
    counters: Arc<FaultCounters>,
    /// The rewritten batch is built here, then swapped with the caller's.
    out: Vec<(NodeId, Packet<T>)>,
}

impl<T> Adversary<T> {
    /// An adversary drawing `cfg`'s decisions from `seed`, tallying into
    /// `counters`.
    pub fn new(cfg: FaultConfig, seed: u64, counters: Arc<FaultCounters>) -> Self {
        Adversary {
            cfg,
            rng: SmallRng::seed_from_u64(seed),
            held: None,
            counters,
            out: Vec::new(),
        }
    }

    /// Give up the held packet, if any: the endpoint is about to wait, or
    /// to hand out what it holds, and the packet goes out now.
    pub fn release(&mut self) -> Option<(NodeId, Packet<T>)> {
        self.held.take()
    }

    /// One Bernoulli draw. A probability of zero costs no draw; one above 1
    /// is clamped, so it is certain rather than out of range.
    fn draw(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen_bool(p.min(1.0))
    }
}

impl<T: Clone> Adversary<T> {
    /// Rewrite `batch` into what reaches the wire, keeping send order.
    pub fn apply(&mut self, batch: &mut Vec<(NodeId, Packet<T>)>) {
        let mut out = std::mem::take(&mut self.out);
        for (to, pkt) in batch.drain(..) {
            self.decide(to, pkt, &mut out);
        }
        std::mem::swap(batch, &mut out);
        self.out = out;
    }

    fn decide(&mut self, to: NodeId, pkt: Packet<T>, out: &mut Vec<(NodeId, Packet<T>)>) {
        if matches!((pkt.src, to), (NodeId::Replica(_), NodeId::Replica(_))) {
            out.push((to, pkt));
            return;
        }
        if self.draw(self.cfg.drop_prob) {
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if self.held.is_none() && self.draw(self.cfg.reorder_prob) {
            self.counters.reordered.fetch_add(1, Ordering::Relaxed);
            self.held = Some((to, pkt));
            return;
        }
        if self.draw(self.cfg.duplicate_prob) {
            self.counters.duplicated.fetch_add(1, Ordering::Relaxed);
            out.push((to, pkt.clone()));
        }
        out.push((to, pkt));
        out.extend(self.held.take());
    }
}

impl<T> Drop for Adversary<T> {
    fn drop(&mut self) {
        // A packet still held at teardown is discarded, not flushed: the
        // node is dead, and its destination's address may have already left
        // the book (§5.3 teardown order is not observable to the
        // adversary). Counted so fault harnesses can account for it.
        if self.held.take().is_some() {
            self.counters.discarded.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_types::{ClientId, PacketBody, ReplicaId};

    type Batch = Vec<(NodeId, Packet<u64>)>;

    const TO: NodeId = NodeId::Client(ClientId(2));

    fn pkt(n: u64) -> Packet<u64> {
        Packet::new(NodeId::Client(ClientId(1)), TO, PacketBody::Protocol(n))
    }

    fn values(batch: &Batch) -> Vec<u64> {
        let value = |p: &Packet<u64>| match p.body {
            PacketBody::Protocol(n) => n,
            _ => unreachable!("only protocol packets are sent"),
        };
        batch.iter().map(|(_, p)| value(p)).collect()
    }

    fn adversary(cfg: FaultConfig, seed: u64) -> (Adversary<u64>, Arc<FaultCounters>) {
        let counters = Arc::new(FaultCounters::default());
        (Adversary::new(cfg, seed, Arc::clone(&counters)), counters)
    }

    /// `n` packets through one adversary in batches of `cut` (the last one
    /// shorter), then the release a receive makes: every value on the wire,
    /// in order, and the tallies.
    fn run(cfg: FaultConfig, seed: u64, n: u64, cut: usize) -> (Vec<u64>, (u64, u64, u64)) {
        let (mut adv, counters) = adversary(cfg, seed);
        let mut wire = Vec::new();
        let all: Vec<u64> = (0..n).collect();
        for chunk in all.chunks(cut) {
            let mut batch: Batch = chunk.iter().map(|&i| (TO, pkt(i))).collect();
            adv.apply(&mut batch);
            wire.extend(values(&batch));
        }
        wire.extend(values(&adv.release().into_iter().collect()));
        (wire, counters.snapshot())
    }

    const FAULTY: FaultConfig = FaultConfig {
        drop_prob: 0.2,
        duplicate_prob: 0.2,
        reorder_prob: 0.2,
    };

    #[test]
    fn noop_config_is_transparent() {
        let (wire, counts) = run(FaultConfig::default(), 1, 50, 7);
        assert_eq!(wire, (0..50).collect::<Vec<u64>>());
        assert_eq!(counts, (0, 0, 0));
    }

    #[test]
    fn faults_fire_and_are_counted() {
        let (wire, (dropped, duplicated, reordered)) = run(FAULTY, 7, 500, 500);
        assert!(dropped > 0 && duplicated > 0 && reordered > 0);
        // Conservation: every non-dropped packet is delivered at least once.
        assert_eq!(wire.len() as u64, 500 - dropped + duplicated);
        // Reordering really happened: the wire is not sorted.
        assert!(wire.windows(2).any(|w| w[0] > w[1]), "no inversion");
    }

    /// The decisions are per packet, so where the batches are cut moves
    /// nothing: one packet per batch, a few, and all at once agree.
    #[test]
    fn the_schedule_does_not_depend_on_the_batch_cut() {
        let whole = run(FAULTY, 42, 300, 300);
        for cut in [1, 2, 13, 299] {
            assert_eq!(run(FAULTY, 42, 300, cut), whole, "cut {cut}");
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(run(FAULTY, 42, 300, 10), run(FAULTY, 42, 300, 10));
        assert_ne!(run(FAULTY, 42, 300, 10).0, run(FAULTY, 43, 300, 10).0);
    }

    #[test]
    fn replica_to_replica_packets_never_fault() {
        let cfg = FaultConfig {
            drop_prob: 0.9,
            duplicate_prob: 0.9,
            reorder_prob: 0.9,
        };
        let (mut adv, counters) = adversary(cfg, 5);
        let (a, b) = (NodeId::Replica(ReplicaId(0)), NodeId::Replica(ReplicaId(1)));
        let mut batch: Batch = (0..100)
            .map(|i| (b, Packet::new(a, b, PacketBody::Protocol(i))))
            .collect();
        adv.apply(&mut batch);
        assert_eq!(values(&batch), (0..100).collect::<Vec<u64>>());
        assert_eq!(counters.snapshot(), (0, 0, 0));
        // Anything else the same endpoint sends still faults: a packet from
        // the replica to a client, and one from a client to the replica.
        for (src, to) in [(a, TO), (TO, a)] {
            let before = counters.snapshot().0;
            let mut batch: Batch = (0..100)
                .map(|i| (to, Packet::new(src, to, PacketBody::Protocol(i))))
                .collect();
            adv.apply(&mut batch);
            assert!(counters.snapshot().0 > before, "{src:?} -> {to:?}");
        }
    }

    /// A held packet follows the next packet sent, even one in a later
    /// batch, and is otherwise given up by `release`.
    #[test]
    fn a_held_packet_follows_the_next_send_or_the_release() {
        let cfg = FaultConfig {
            reorder_prob: 1.0,
            ..FaultConfig::default()
        };
        let (mut adv, counters) = adversary(cfg, 3);
        let mut first: Batch = vec![(TO, pkt(1))];
        adv.apply(&mut first);
        assert!(first.is_empty(), "held back");
        // With reorder_prob = 1 the next packet is sent (one is held at a
        // time) and the held one goes right after it.
        let mut second: Batch = vec![(TO, pkt(2)), (TO, pkt(3))];
        adv.apply(&mut second);
        assert_eq!(values(&second), [2, 1]);
        assert_eq!(values(&adv.release().into_iter().collect()), [3]);
        assert!(adv.release().is_none());
        assert_eq!(counters.snapshot(), (0, 0, 2));
    }

    #[test]
    fn held_packet_is_discarded_not_flushed_at_teardown() {
        let cfg = FaultConfig {
            reorder_prob: 1.0,
            ..FaultConfig::default()
        };
        let (mut adv, counters) = adversary(cfg, 3);
        let mut batch: Batch = vec![(TO, pkt(1))];
        adv.apply(&mut batch);
        assert!(batch.is_empty(), "held packet must not reach the wire");
        drop(adv);
        assert_eq!(counters.discarded(), 1, "discard must be counted");
        assert_eq!(counters.snapshot().2, 1, "the hold itself was a reorder");
    }

    /// A probability above 1 is certain, not a panic in the draw.
    #[test]
    fn a_probability_above_one_is_certain() {
        let cfg = FaultConfig {
            duplicate_prob: 2.0,
            ..FaultConfig::default()
        };
        let (wire, counts) = run(cfg, 9, 10, 3);
        assert_eq!(wire, (0..10).flat_map(|i| [i, i]).collect::<Vec<u64>>());
        assert_eq!(counts, (0, 10, 0));
    }
}
