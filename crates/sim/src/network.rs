//! The network model.
//!
//! Links between nodes are characterized by a base one-way latency, uniform
//! jitter, and independent drop / duplication probabilities. Reordering
//! arises naturally from jitter (two packets sent back-to-back can have their
//! delivery order inverted); an explicit `reorder_prob` adds an extra delay
//! penalty to a random subset of packets, which is the standard way to force
//! reordering-heavy schedules in tests of §5.2's asynchrony handling.
//!
//! Defaults model an intra-rack hop: 5 µs ± 2 µs, no loss. The paper's
//! testbed is a single ToR switch, so every client↔switch↔server path is one
//! or two such hops.

use harmonia_types::{Duration, NodeId};
use rand::Rng;

/// Behaviour of one (directed) link.
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// Base propagation + processing delay.
    pub base_latency: Duration,
    /// Uniform jitter added on top: `U[0, jitter]`.
    pub jitter: Duration,
    /// Probability a packet is silently dropped.
    pub drop_prob: f64,
    /// Probability a packet is duplicated (delivered twice).
    pub duplicate_prob: f64,
    /// Probability a packet is held back by an extra `reorder_delay`.
    pub reorder_prob: f64,
    /// The extra delay applied to reordered packets.
    pub reorder_delay: Duration,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            base_latency: Duration::from_micros(5),
            jitter: Duration::from_micros(2),
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            reorder_delay: Duration::from_micros(50),
        }
    }
}

impl LinkConfig {
    /// A perfectly reliable, fixed-latency link (useful in unit tests).
    pub fn ideal(latency: Duration) -> Self {
        LinkConfig {
            base_latency: latency,
            jitter: Duration::ZERO,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            reorder_delay: Duration::ZERO,
        }
    }

    /// An adversarial link for asynchrony tests.
    pub fn lossy(drop: f64, duplicate: f64, reorder: f64) -> Self {
        LinkConfig {
            drop_prob: drop,
            duplicate_prob: duplicate,
            reorder_prob: reorder,
            ..LinkConfig::default()
        }
    }
}

/// Delivery plan for one packet: zero, one, or two copies with delays.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Delivery {
    delays: [Duration; 2],
    copies: u8,
    /// Copies held back by the explicit reorder penalty.
    pub reordered: u32,
}

impl Delivery {
    /// Delay for each delivered copy (empty = dropped).
    pub fn delays(&self) -> &[Duration] {
        &self.delays[..usize::from(self.copies)]
    }

    fn push(&mut self, (delay, held_back): (Duration, bool)) {
        self.delays[usize::from(self.copies)] = delay;
        self.copies += 1;
        self.reordered += u32::from(held_back);
    }
}

/// The full network: a default link plus per-pair overrides and a partition
/// set. Node outages are handled at the world level; partitions here model
/// *link* failures between live nodes.
#[derive(Clone, Debug, Default)]
pub struct NetworkModel {
    default_link: LinkConfig,
    overrides: Vec<((NodeId, NodeId), LinkConfig)>,
    partitioned: Vec<(NodeId, NodeId)>,
}

impl NetworkModel {
    /// A network where every link uses `default_link`.
    pub fn uniform(default_link: LinkConfig) -> Self {
        NetworkModel {
            default_link,
            overrides: Vec::new(),
            partitioned: Vec::new(),
        }
    }

    /// Override the directed link `from → to`.
    pub fn set_link(&mut self, from: NodeId, to: NodeId, cfg: LinkConfig) {
        if let Some(slot) = self
            .overrides
            .iter_mut()
            .find(|((f, t), _)| *f == from && *t == to)
        {
            slot.1 = cfg;
        } else {
            self.overrides.push(((from, to), cfg));
        }
    }

    /// Cut both directions between `a` and `b`.
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        if !self.is_partitioned(a, b) {
            self.partitioned.push((a, b));
        }
    }

    /// Restore both directions between `a` and `b`.
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        self.partitioned
            .retain(|&(x, y)| !((x == a && y == b) || (x == b && y == a)));
    }

    /// Whether `a` and `b` are currently partitioned.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.partitioned
            .iter()
            .any(|&(x, y)| (x == a && y == b) || (x == b && y == a))
    }

    /// Link configuration for `from → to`.
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkConfig {
        self.overrides
            .iter()
            .find(|((f, t), _)| *f == from && *t == to)
            .map(|(_, cfg)| *cfg)
            .unwrap_or(self.default_link)
    }

    /// Decide the fate of one packet on `from → to`.
    pub(crate) fn plan<R: Rng>(&self, from: NodeId, to: NodeId, rng: &mut R) -> Delivery {
        let mut delivery = Delivery::default();
        if self.is_partitioned(from, to) {
            return delivery;
        }
        let link = self.link(from, to);
        let one_delay = |rng: &mut R| {
            let jitter = if link.jitter.nanos() == 0 {
                0
            } else {
                rng.gen_range(0..=link.jitter.nanos())
            };
            let mut d = link.base_latency + Duration::from_nanos(jitter);
            let held_back = link.reorder_prob > 0.0 && rng.gen_bool(link.reorder_prob);
            if held_back {
                d += link.reorder_delay;
            }
            (d, held_back)
        };
        if link.drop_prob > 0.0 && rng.gen_bool(link.drop_prob) {
            // dropped: no copies
        } else {
            delivery.push(one_delay(rng));
            if link.duplicate_prob > 0.0 && rng.gen_bool(link.duplicate_prob) {
                delivery.push(one_delay(rng));
            }
        }
        delivery
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_types::{ClientId, ReplicaId};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn nodes() -> (NodeId, NodeId) {
        (NodeId::Client(ClientId(0)), NodeId::Replica(ReplicaId(0)))
    }

    #[test]
    fn ideal_link_is_deterministic() {
        let (a, b) = nodes();
        let net = NetworkModel::uniform(LinkConfig::ideal(Duration::from_micros(7)));
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10 {
            let d = net.plan(a, b, &mut rng);
            assert_eq!(d.delays(), [Duration::from_micros(7)]);
        }
    }

    #[test]
    fn partition_drops_everything_until_heal() {
        let (a, b) = nodes();
        let mut net = NetworkModel::uniform(LinkConfig::ideal(Duration::from_micros(1)));
        net.partition(a, b);
        let mut rng = SmallRng::seed_from_u64(2);
        assert!(net.plan(a, b, &mut rng).delays().is_empty());
        assert!(net.plan(b, a, &mut rng).delays().is_empty());
        net.heal(a, b);
        assert_eq!(net.plan(a, b, &mut rng).delays().len(), 1);
    }

    #[test]
    fn drop_probability_roughly_respected() {
        let (a, b) = nodes();
        let net = NetworkModel::uniform(LinkConfig::lossy(0.3, 0.0, 0.0));
        let mut rng = SmallRng::seed_from_u64(3);
        let delivered = (0..10_000)
            .filter(|_| !net.plan(a, b, &mut rng).delays().is_empty())
            .count();
        assert!((6500..7500).contains(&delivered), "delivered={delivered}");
    }

    #[test]
    fn duplication_yields_two_copies() {
        let (a, b) = nodes();
        let net = NetworkModel::uniform(LinkConfig::lossy(0.0, 1.0, 0.0));
        let mut rng = SmallRng::seed_from_u64(4);
        assert_eq!(net.plan(a, b, &mut rng).delays().len(), 2);
    }

    #[test]
    fn per_link_override_wins() {
        let (a, b) = nodes();
        let mut net = NetworkModel::uniform(LinkConfig::ideal(Duration::from_micros(1)));
        net.set_link(a, b, LinkConfig::ideal(Duration::from_micros(99)));
        assert_eq!(net.link(a, b).base_latency, Duration::from_micros(99));
        // Reverse direction untouched.
        assert_eq!(net.link(b, a).base_latency, Duration::from_micros(1));
        // Overriding again replaces, not appends.
        net.set_link(a, b, LinkConfig::ideal(Duration::from_micros(42)));
        assert_eq!(net.link(a, b).base_latency, Duration::from_micros(42));
        assert_eq!(net.overrides.len(), 1);
    }

    #[test]
    fn jitter_produces_reordering_opportunities() {
        let (a, b) = nodes();
        let net = NetworkModel::uniform(LinkConfig {
            base_latency: Duration::from_micros(5),
            jitter: Duration::from_micros(10),
            ..LinkConfig::default()
        });
        let mut rng = SmallRng::seed_from_u64(5);
        let delays: Vec<_> = (0..100)
            .map(|_| net.plan(a, b, &mut rng).delays()[0])
            .collect();
        // At least one adjacent pair is inverted (later-sent arrives first).
        assert!(delays.windows(2).any(|w| w[1] < w[0]));
    }
}
