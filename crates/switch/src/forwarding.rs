//! Replica forwarding state — the switch's view of the replica group.
//!
//! The data plane keeps the replica addresses in match-action entries; the
//! control plane updates them when servers fail or recover (§5.3). The
//! forwarding table also knows, per replication protocol, where writes and
//! normal-path reads *enter* the group (chain head vs. primary vs. leader,
//! or an ordered multicast for NOPaxos).

use harmonia_types::{NodeId, ReplicaId, SwitchSeq};
use rand::Rng;

/// Where the underlying protocol accepts writes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteEntry {
    /// Primary-backup: the primary (first live replica in role order).
    Primary,
    /// Chain replication / CRAQ: the chain head.
    ChainHead,
    /// VR / Multi-Paxos: the leader.
    Leader,
    /// NOPaxos: sequenced multicast to every replica.
    Multicast,
}

/// Where the underlying protocol serves normal-path reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadEntry {
    /// Primary-backup: the primary.
    Primary,
    /// Chain replication / CRAQ: the tail.
    ChainTail,
    /// VR / NOPaxos: the leader.
    Leader,
}

/// The switch's forwarding view of one replica group.
#[derive(Clone, Debug)]
pub struct ForwardingTable {
    /// Live replicas in role order: index 0 is primary/head/leader; the last
    /// entry is the chain tail.
    replicas: Vec<ReplicaId>,
    write_entry: WriteEntry,
    read_entry: ReadEntry,
    /// Recovering members excluded from read scheduling, each with its gate
    /// floor: the last-committed point when the gate was installed. A gated
    /// replica still receives protocol traffic (it is a member) but serves
    /// no reads until an ungate proves it caught up past the floor — every
    /// write in its recovery window is at or below that point.
    gated: Vec<(ReplicaId, SwitchSeq)>,
}

impl ForwardingTable {
    /// Build a table for `n` replicas with the given entry points.
    pub fn new(n: usize, write_entry: WriteEntry, read_entry: ReadEntry) -> Self {
        Self::with_members(
            (0..n as u32).map(ReplicaId).collect(),
            write_entry,
            read_entry,
        )
    }

    /// Build a table for an explicit membership in role order (sharded
    /// deployments give each group a disjoint slice of the global replica-id
    /// space, so ids do not start at zero). A deployment's groups have at
    /// least one member each (`DeploymentSpec::replicas` checks); a table
    /// left with none schedules nothing.
    pub fn with_members(
        members: Vec<ReplicaId>,
        write_entry: WriteEntry,
        read_entry: ReadEntry,
    ) -> Self {
        ForwardingTable {
            replicas: members,
            write_entry,
            read_entry,
            gated: Vec::new(),
        }
    }

    /// Live replicas in role order.
    pub fn replicas(&self) -> &[ReplicaId] {
        &self.replicas
    }

    /// Number of live replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// True if no replicas remain.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Control plane: remove a failed replica so no further requests are
    /// scheduled to it (§5.3).
    pub fn remove_replica(&mut self, r: ReplicaId) {
        self.replicas.retain(|&x| x != r);
        self.gated.retain(|&(x, _)| x != r);
    }

    /// Control plane: add a recovered or replacement replica (appended at
    /// the tail position, the standard chain-repair location).
    pub fn add_replica(&mut self, r: ReplicaId) {
        if !self.replicas.contains(&r) {
            self.replicas.push(r);
        }
    }

    /// Control plane: replace the whole set (bulk reconfiguration). Gates on
    /// replicas that left the set are dropped; gates on members persist —
    /// reconfiguration must not silently expose a recovering replica.
    pub fn set_replicas(&mut self, rs: Vec<ReplicaId>) {
        self.replicas = rs;
        let members = &self.replicas;
        self.gated.retain(|(r, _)| members.contains(r));
    }

    /// Control plane: gate a recovering member out of read scheduling.
    /// `floor` is the group's last-committed point at gate time — the upper
    /// bound of the replica's recovery window. Re-gating refreshes the
    /// floor. Gating a non-member is remembered too: restart orchestration
    /// may gate before (re)announcing membership.
    pub fn gate_replica(&mut self, r: ReplicaId, floor: SwitchSeq) {
        self.gated.retain(|&(x, _)| x != r);
        self.gated.push((r, floor));
    }

    /// Control plane: lift a gate. Succeeds only if the replica has provably
    /// applied through the gate floor (`caught_up >= floor`), so a stale or
    /// reordered ungate never exposes an un-caught-up replica to reads.
    /// Returns whether the gate was lifted.
    pub fn ungate_replica(&mut self, r: ReplicaId, caught_up: SwitchSeq) -> bool {
        match self.gated.iter().find(|&&(x, _)| x == r) {
            Some(&(_, floor)) if caught_up >= floor => {
                self.gated.retain(|&(x, _)| x != r);
                true
            }
            Some(_) => false,
            // No gate on record: nothing to lift, and the replica is
            // already eligible for reads.
            None => true,
        }
    }

    /// True if `r` is currently gated out of read scheduling.
    pub fn is_gated(&self, r: ReplicaId) -> bool {
        self.gated.iter().any(|&(x, _)| x == r)
    }

    /// Members currently eligible to serve reads, in role order.
    fn readable(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        self.replicas
            .iter()
            .copied()
            .filter(move |&r| !self.is_gated(r))
    }

    /// Where a write enters the protocol: the first member in role order, or
    /// under `Multicast` every member.
    pub fn write_destinations(&self) -> impl Iterator<Item = NodeId> + '_ {
        let n = match self.write_entry {
            WriteEntry::Primary | WriteEntry::ChainHead | WriteEntry::Leader => 1,
            WriteEntry::Multicast => self.replicas.len(),
        };
        self.replicas.iter().take(n).map(|&r| NodeId::Replica(r))
    }

    /// Where a normal-path read is served. Gated members are skipped: a
    /// recovering tail's read role falls back to its predecessor until the
    /// gate lifts.
    pub fn normal_read_destination(&self) -> Option<NodeId> {
        match self.read_entry {
            ReadEntry::Primary | ReadEntry::Leader => self.readable().next().map(NodeId::Replica),
            ReadEntry::ChainTail => self.readable().last().map(NodeId::Replica),
        }
    }

    /// Pick a uniformly random read-eligible replica for a fast-path read
    /// (Algorithm 1 line 12). Gated members are excluded — a fast-path read
    /// must never land on a replica still inside its recovery window.
    pub fn random_replica<R: Rng>(&self, rng: &mut R) -> Option<NodeId> {
        // Count, then walk to the drawn index: one `gen_range` over the same
        // bound as indexing a collected list, and nothing allocated per read.
        let eligible = self.readable().count();
        if eligible == 0 {
            return None;
        }
        let idx = rng.gen_range(0..eligible);
        self.readable().nth(idx).map(NodeId::Replica)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_types::SwitchId;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn chain_entry_points() {
        let t = ForwardingTable::new(3, WriteEntry::ChainHead, ReadEntry::ChainTail);
        assert!(t.write_destinations().eq([NodeId::Replica(ReplicaId(0))]));
        assert_eq!(
            t.normal_read_destination(),
            Some(NodeId::Replica(ReplicaId(2)))
        );
    }

    #[test]
    fn multicast_targets_all_replicas() {
        let t = ForwardingTable::new(3, WriteEntry::Multicast, ReadEntry::Leader);
        assert_eq!(t.write_destinations().count(), 3);
        assert_eq!(
            t.normal_read_destination(),
            Some(NodeId::Replica(ReplicaId(0)))
        );
    }

    #[test]
    fn remove_replica_shifts_roles() {
        let mut t = ForwardingTable::new(3, WriteEntry::ChainHead, ReadEntry::ChainTail);
        // Tail fails: the middle node becomes the tail.
        t.remove_replica(ReplicaId(2));
        assert_eq!(
            t.normal_read_destination(),
            Some(NodeId::Replica(ReplicaId(1)))
        );
        // Head fails: next node becomes head.
        t.remove_replica(ReplicaId(0));
        assert!(t.write_destinations().eq([NodeId::Replica(ReplicaId(1))]));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn add_replica_appends_and_dedups() {
        let mut t = ForwardingTable::new(2, WriteEntry::ChainHead, ReadEntry::ChainTail);
        t.add_replica(ReplicaId(5));
        t.add_replica(ReplicaId(5));
        assert_eq!(t.replicas(), &[ReplicaId(0), ReplicaId(1), ReplicaId(5)]);
        assert_eq!(
            t.normal_read_destination(),
            Some(NodeId::Replica(ReplicaId(5)))
        );
    }

    #[test]
    fn random_replica_covers_all_members() {
        let t = ForwardingTable::new(4, WriteEntry::Primary, ReadEntry::Primary);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(t.random_replica(&mut rng).unwrap());
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn random_replica_draws_what_indexing_the_collected_list_draws() {
        let mut t = ForwardingTable::new(5, WriteEntry::ChainHead, ReadEntry::ChainTail);
        t.gate_replica(ReplicaId(1), SwitchSeq::new(SwitchId(1), 10));
        let eligible: Vec<ReplicaId> = t.readable().collect();
        assert_eq!(eligible.len(), 4);
        let mut rng = SmallRng::seed_from_u64(17);
        let mut reference = SmallRng::seed_from_u64(17);
        for _ in 0..1000 {
            let collected = eligible[reference.gen_range(0..eligible.len())];
            assert_eq!(t.random_replica(&mut rng), Some(NodeId::Replica(collected)));
        }
    }

    #[test]
    fn gated_replica_serves_no_reads_until_caught_up() {
        let mut t = ForwardingTable::new(3, WriteEntry::ChainHead, ReadEntry::ChainTail);
        let floor = SwitchSeq::new(SwitchId(1), 10);
        t.gate_replica(ReplicaId(2), floor);
        assert!(t.is_gated(ReplicaId(2)));
        // Normal reads fall back to the predecessor tail.
        assert_eq!(
            t.normal_read_destination(),
            Some(NodeId::Replica(ReplicaId(1)))
        );
        // The fast path never picks the gated member.
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_ne!(
                t.random_replica(&mut rng),
                Some(NodeId::Replica(ReplicaId(2)))
            );
        }
        // Writes still enter at the head.
        assert!(t.write_destinations().eq([NodeId::Replica(ReplicaId(0))]));
        // A stale ungate (below the floor) is refused.
        assert!(!t.ungate_replica(ReplicaId(2), SwitchSeq::new(SwitchId(1), 9)));
        assert!(t.is_gated(ReplicaId(2)));
        // A caught-up ungate lifts the gate and restores the read role.
        assert!(t.ungate_replica(ReplicaId(2), floor));
        assert_eq!(
            t.normal_read_destination(),
            Some(NodeId::Replica(ReplicaId(2)))
        );
    }

    #[test]
    fn reconfiguration_preserves_member_gates() {
        let mut t = ForwardingTable::new(3, WriteEntry::Primary, ReadEntry::Primary);
        t.gate_replica(ReplicaId(0), SwitchSeq::new(SwitchId(1), 5));
        // Primary gated: normal reads fall to the next member.
        assert_eq!(
            t.normal_read_destination(),
            Some(NodeId::Replica(ReplicaId(1)))
        );
        t.set_replicas(vec![ReplicaId(0), ReplicaId(1)]);
        assert!(t.is_gated(ReplicaId(0)), "member gates survive SetReplicas");
        t.remove_replica(ReplicaId(0));
        assert!(!t.is_gated(ReplicaId(0)), "removal drops the gate");
    }

    #[test]
    fn empty_table_yields_no_destinations() {
        let mut t = ForwardingTable::new(1, WriteEntry::Primary, ReadEntry::Primary);
        t.remove_replica(ReplicaId(0));
        assert!(t.is_empty());
        assert_eq!(t.write_destinations().count(), 0);
        assert!(t.normal_read_destination().is_none());
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(t.random_replica(&mut rng).is_none());
    }
}
