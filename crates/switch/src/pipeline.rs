//! The switch's per-packet program (Figure 1): [`Switch`], the pipelines
//! one host runs, one per replica group it is dealt.
//!
//! A group's pipeline holds its conflict detector, forwarding table, OUM
//! sequencer and counters, and runs every arm of the program: client
//! requests through Algorithm 1 (Harmonia) or plain entry-point routing
//! (the §9 baselines), replies snooped for piggybacked WRITE-COMPLETIONs,
//! standalone completions into the conflict detector, control into the
//! forwarding table. Each pipeline is owned by exactly one host, so no lock
//! guards the packet path — the property a real Tofino gets for free by
//! processing groups' packets in parallel at line rate.
//!
//! Where a packet addressed to the switch goes is decided in one function,
//! [`Switch::handle`]. The switch is sans-IO and records nothing: `handle`
//! returns a [`Report`] of what it did, and whoever hosts it counts and
//! traces from that.
//!
//! **The ToR hop.** A reply with no completion that still arrives at the
//! switch (the simulator keeps the rack's hop) is L2 work, not pipeline
//! work: `handle` passes it to the client as it arrived, outside every
//! pipeline, so the pipelines handle R + 2·W packets for R reads and W
//! chain writes on every driver.
//!
//! The read side is one plain row per group, [`GroupObservation`], handed
//! out by value ([`Switch::observe`]); [`SwitchTotals::of`] sums rows into
//! whole-switch totals, so the §6.3 claim — "the capacity of a switch far
//! exceeds that of a single replica group" — can be checked against a
//! tens-of-MB SRAM budget.

use harmonia_replication::messages::{NopaxosMsg, ProtocolMsg, WriteOp};
use harmonia_replication::ProtocolKind;
use harmonia_types::{
    ClientRequest, ControlMsg, Duration, Instant, NodeId, ObjectId, OpKind, Packet, PacketBody,
    ReadMode, ReplicaId, SwitchId, SwitchRoute, SwitchSeq, TraceId, WriteCompletion,
};
use harmonia_workload::ShardMap;
use rand::rngs::SmallRng;

use crate::conflict::{ConflictConfig, ConflictDetector, ReadDecision, WriteDecision};
use crate::forwarding::{ForwardingTable, ReadEntry, WriteEntry};
use crate::sequencer::Sequencer;
use crate::stats::SwitchStats;
use crate::table::TableConfig;

/// Every packet through a switch.
type Msg = Packet<ProtocolMsg>;

/// Identifies one replica group served by a spine switch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GroupId(pub u32);

/// What one switch incarnation is provisioned with, as a plain value.
#[derive(Clone, Debug)]
pub struct SwitchConfig {
    /// The incarnation: the switch id of every sequence number it stamps.
    pub incarnation: SwitchId,
    /// The replication protocol every group runs.
    pub protocol: ProtocolKind,
    /// In-network conflict detection (Algorithm 1) on, or the baseline:
    /// protocol entry-point routing, plus anycast reads for CRAQ, which
    /// handles per-object cleanliness itself.
    pub harmonia: bool,
    /// Each group's dirty-set geometry.
    pub table: TableConfig,
    /// How long the pipelines must sit idle before stale dirty entries are
    /// swept (§5.2); `None`: never.
    pub sweep_interval: Option<Duration>,
    /// Each group's members in role order (head / primary / leader first),
    /// group `g` at index `g`. Group `g` serves the objects
    /// `ShardMap::new(groups.len()).shard_of(obj) == g`.
    pub groups: Vec<Vec<ReplicaId>>,
}

/// What [`Switch::handle`] did with one packet: what its host counts and
/// traces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Report {
    /// How many pipelines ran the packet: one for what Algorithm 1 acts on,
    /// one per owning group for control, none for a packet forwarded past
    /// every pipeline or routed to a group not hosted here.
    pub pipelines: u64,
    /// A client request's verdict.
    pub request: Option<Scheduled>,
}

/// How a pipeline scheduled one client request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scheduled {
    /// What the pipeline did with it.
    pub verdict: Verdict,
    /// The request's trace id.
    pub trace: TraceId,
    /// The object it names.
    pub obj: ObjectId,
}

/// The fate of a client request at the switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A read sent to one replica, stamped with the last-committed point
    /// (Algorithm 1 lines 10–12).
    FastPath,
    /// A read through the protocol's normal path (contended, gated, or the
    /// baseline).
    Normal,
    /// A write stamped (Harmonia) and sent to the protocol's entry point.
    Forward,
    /// A write dropped for lack of a dirty-set slot (§6.1).
    Drop,
}

/// A point-in-time row of one group's switch-resident state: plain data,
/// so collecting rows never locks the owner's packet path, and they cross
/// threads by value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupObservation {
    /// The observed group.
    pub group: GroupId,
    /// The group's data-plane counters.
    pub stats: SwitchStats,
    /// Whether the group's fast path is currently enabled.
    pub fast_path_enabled: bool,
    /// Dirty-set SRAM consumed by the group.
    pub memory_bytes: usize,
    /// Dirty-set occupancy.
    pub dirty_len: usize,
    /// Dirty-set SRAM the group's busiest moment needed: its peak
    /// occupancy in bytes, beside the `memory_bytes` it was given.
    pub peak_bytes: usize,
}

/// Rows summed over groups: the one fold behind a snapshot's switch
/// section, the benches' switch figures and the ledger's view.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwitchTotals {
    /// Rows folded.
    pub groups: usize,
    /// Data-plane counters, merged.
    pub stats: SwitchStats,
    /// Groups whose fast path is enabled.
    pub fast_path_groups: usize,
    /// Dirty-set SRAM consumed.
    pub memory_bytes: usize,
    /// Dirty-set occupancy.
    pub dirty_len: usize,
    /// Each group's peak occupancy in bytes, summed.
    pub peak_bytes: usize,
}

impl SwitchTotals {
    /// The sum of `rows`.
    pub fn of<'a>(rows: impl IntoIterator<Item = &'a GroupObservation>) -> Self {
        let mut total = SwitchTotals::default();
        for o in rows {
            total.groups += 1;
            total.stats.merge(&o.stats);
            total.fast_path_groups += usize::from(o.fast_path_enabled);
            total.memory_bytes += o.memory_bytes;
            total.dirty_len += o.dirty_len;
            total.peak_bytes += o.peak_bytes;
        }
        total
    }
}

/// The pipelines one host runs: some or all of a deployment's groups
/// (§6.3), under one switch incarnation, and the one route rule that picks
/// among them. The simulator's switch node holds every group
/// ([`new`](Self::new)); a threaded worker holds the groups dealt to it
/// ([`for_groups`](Self::for_groups)), the sender-side spine having picked
/// the worker by the same route.
pub struct Switch {
    incarnation: SwitchId,
    /// In group order.
    pipelines: Vec<Pipeline>,
    shards: ShardMap,
    sweep_interval: Option<Duration>,
    /// When the pipelines sweep unless a packet reaches them first.
    sweep_at: Option<Instant>,
}

impl Switch {
    /// Every group's pipeline.
    pub fn new(config: &SwitchConfig) -> Switch {
        let every = (0..config.groups.len() as u32).map(GroupId);
        Switch::for_groups(config, every)
    }

    /// The pipelines of `groups` only, each with its own `config.table`-
    /// sized dirty set and sequence space. A group the config does not
    /// provision gets none.
    pub fn for_groups(config: &SwitchConfig, groups: impl IntoIterator<Item = GroupId>) -> Switch {
        let mut pipelines: Vec<Pipeline> = (groups.into_iter())
            .filter_map(|g| Pipeline::new(config, g))
            .collect();
        pipelines.sort_by_key(|p| p.group);
        Switch {
            incarnation: config.incarnation,
            pipelines,
            shards: ShardMap::new(config.groups.len()),
            sweep_interval: config.sweep_interval,
            sweep_at: None,
        }
    }

    /// Process one packet addressed to the switch at `me`, pushing what it
    /// forwards onto `out`, and report what ran. This is the one route
    /// rule, by [`PacketBody::switch_route`]:
    ///
    /// * `Group` — the pipeline of the object's shard, if hosted here;
    /// * `AnyGroup` — the first pipeline hosted here;
    /// * `EveryGroup` — each pipeline whose group the control names (the
    ///   replica is served or was provisioned there); control about a
    ///   replica no hosted group knows is dropped;
    /// * `Client` — to the client, as it arrived, outside every pipeline.
    pub fn handle(
        &mut self,
        now: Instant,
        me: NodeId,
        msg: Msg,
        rng: &mut SmallRng,
        out: &mut Vec<(NodeId, Msg)>,
    ) -> Report {
        let (pipelines, request) = match msg.body.switch_route() {
            SwitchRoute::Group(obj) => {
                let group = GroupId(self.shards.shard_of(obj));
                let pipeline = self.pipelines.iter_mut().find(|p| p.group == group);
                pipeline.map_or((0, None), |p| (1, p.handle(me, msg, rng, out)))
            }
            SwitchRoute::AnyGroup => {
                (self.pipelines.first_mut()).map_or((0, None), |p| (1, p.handle(me, msg, rng, out)))
            }
            SwitchRoute::EveryGroup => {
                let subject = match &msg.body {
                    PacketBody::Control(ctl) => control_subject(ctl),
                    _ => None,
                };
                let owners =
                    (self.pipelines.iter_mut()).filter(|p| subject.is_some_and(|r| p.owns(r)));
                let ran = owners.map(|p| p.handle(me, msg.clone(), rng, out)).count();
                (ran as u64, None)
            }
            SwitchRoute::Client(client) => {
                out.push((NodeId::Client(client), msg));
                (0, None)
            }
        };
        self.rearm(now);
        Report { pipelines, request }
    }

    /// Push the sweep a sweep interval past `now`, while one could reclaim.
    fn rearm(&mut self, now: Instant) {
        let pending = self.pipelines.iter().any(|p| p.detector.sweep_pending());
        let idle = self.sweep_interval.filter(|_| pending);
        self.sweep_at = idle.map(|idle| now + idle);
    }

    /// When the pipelines sweep if they stay idle: never without a sweep
    /// interval, and only while a sweep could reclaim something.
    pub fn sweep_at(&self) -> Option<Instant> {
        self.sweep_at
    }

    /// Control-plane sweep of stale dirty entries (§5.2) across every hosted
    /// group, at `now`; how many went.
    pub fn sweep(&mut self, now: Instant) -> u64 {
        let swept: usize = self.pipelines.iter_mut().map(|p| p.detector.sweep()).sum();
        self.rearm(now);
        swept as u64
    }

    /// Every hosted group's row, in group order.
    pub fn observe(&self) -> Vec<GroupObservation> {
        self.pipelines.iter().map(Pipeline::observe).collect()
    }

    /// A hosted group's current members, in role order.
    pub fn members(&self, group: GroupId) -> Option<&[ReplicaId]> {
        let pipeline = self.pipelines.iter().find(|p| p.group == group);
        pipeline.map(|p| p.fwd.replicas())
    }

    /// Whether replica `r` is currently read-gated (recovering, not yet
    /// proven caught up) in its group's forwarding table.
    pub fn is_gated(&self, r: ReplicaId) -> bool {
        self.pipelines.iter().any(|p| p.fwd.is_gated(r))
    }

    /// This incarnation's id.
    pub fn incarnation(&self) -> SwitchId {
        self.incarnation
    }
}

/// The replica a control-plane message is about — a bulk reconfiguration is
/// about its first member.
fn control_subject(ctl: &ControlMsg) -> Option<ReplicaId> {
    match ctl {
        ControlMsg::AddReplica(r) | ControlMsg::RemoveReplica(r) | ControlMsg::GateReplica(r) => {
            Some(*r)
        }
        ControlMsg::UngateReplica { replica, .. } => Some(*replica),
        ControlMsg::SetReplicas(rs) => rs.first().copied(),
    }
}

/// One replica group's switch-side state and every arm of the program
/// over it.
struct Pipeline {
    group: GroupId,
    harmonia: bool,
    protocol: ProtocolKind,
    detector: ConflictDetector,
    fwd: ForwardingTable,
    sequencer: Sequencer,
    stats: SwitchStats,
    /// The members this group was provisioned with — control-plane
    /// addressing for a replica that was removed and is being re-added.
    provisioned: Vec<ReplicaId>,
}

impl Pipeline {
    fn new(config: &SwitchConfig, group: GroupId) -> Option<Pipeline> {
        let members = config.groups.get(group.0 as usize)?;
        let (write_entry, read_entry) = match config.protocol {
            ProtocolKind::PrimaryBackup => (WriteEntry::Primary, ReadEntry::Primary),
            ProtocolKind::Chain | ProtocolKind::Craq => {
                (WriteEntry::ChainHead, ReadEntry::ChainTail)
            }
            ProtocolKind::Vr => (WriteEntry::Leader, ReadEntry::Leader),
            ProtocolKind::Nopaxos => (WriteEntry::Multicast, ReadEntry::Leader),
        };
        Some(Pipeline {
            group,
            harmonia: config.harmonia,
            protocol: config.protocol,
            detector: ConflictDetector::new(ConflictConfig {
                switch_id: config.incarnation,
                table: config.table,
            }),
            fwd: ForwardingTable::with_members(members.clone(), write_entry, read_entry),
            sequencer: Sequencer::new(u64::from(config.incarnation.0)),
            stats: SwitchStats::default(),
            provisioned: members.clone(),
        })
    }

    fn observe(&self) -> GroupObservation {
        GroupObservation {
            group: self.group,
            stats: self.stats,
            fast_path_enabled: self.detector.fast_path_enabled(),
            memory_bytes: self.detector.memory_bytes(),
            dirty_len: self.detector.dirty_len(),
            peak_bytes: self.detector.peak_bytes(),
        }
    }

    /// Run the arm of a packet [`Switch::handle`] routed here; a client
    /// request's verdict.
    fn handle(
        &mut self,
        me: NodeId,
        msg: Msg,
        rng: &mut SmallRng,
        out: &mut Vec<(NodeId, Msg)>,
    ) -> Option<Scheduled> {
        match msg.body {
            PacketBody::Request(req) => {
                let (trace, obj) = (TraceId::new(req.client, req.request), req.obj);
                let verdict = match req.op {
                    OpKind::Write => self.write(me, req, out),
                    OpKind::Read => self.read(me, req, rng, out),
                };
                return Some(Scheduled {
                    verdict,
                    trace,
                    obj,
                });
            }
            PacketBody::Reply(reply) => {
                // Snoop the piggybacked completion (Figure 2b), then forward
                // the reply to its client.
                if let Some(c) = reply.completion {
                    self.complete(c);
                }
                let dst = NodeId::Client(reply.client);
                out.push((dst, Msg::new(me, dst, PacketBody::Reply(reply))));
            }
            PacketBody::Completion(c) => self.complete(c),
            PacketBody::Control(ctl) => self.control(ctl),
            PacketBody::Protocol(p) => {
                // L2/L3 forwarding of protocol traffic routed through the
                // switch (replicas normally talk to each other direct).
                self.stats.forwarded_other += 1;
                let dst = msg.dst;
                out.push((dst, Msg::new(msg.src, dst, PacketBody::Protocol(p))));
            }
        }
        None
    }

    fn write(
        &mut self,
        me: NodeId,
        mut req: ClientRequest,
        out: &mut Vec<(NodeId, Msg)>,
    ) -> Verdict {
        // Harmonia: Algorithm 1 lines 1–4, on this object's group.
        if self.harmonia {
            match self.detector.process_write(req.obj) {
                WriteDecision::Stamped(seq) => req.seq = Some(seq),
                WriteDecision::Dropped => {
                    // §6.1: no dirty-set slot — the write is dropped in the
                    // data plane; the client will time out and retry.
                    self.stats.writes_dropped += 1;
                    return Verdict::Drop;
                }
            }
        }
        self.stats.writes_forwarded += 1;
        if self.protocol == ProtocolKind::Nopaxos {
            // Ordered unreliable multicast: stamp and fan out (§7.3) within
            // the object's group; sessions are per group so gap detection
            // never crosses shard boundaries.
            let stamp = self.sequencer.stamp();
            let op = WriteOp {
                seq: (req.seq).unwrap_or(SwitchSeq::new(self.detector.switch_id(), stamp.seq)),
                obj: req.obj,
                key: req.key,
                value: req.value.unwrap_or_default(),
                client: req.client,
                request: req.request,
            };
            for &r in self.fwd.replicas() {
                let dst = NodeId::Replica(r);
                let sequenced = NopaxosMsg::Sequenced {
                    session: stamp.session,
                    oum_seq: stamp.seq,
                    op: op.clone(),
                };
                let body = PacketBody::Protocol(ProtocolMsg::Nopaxos(sequenced));
                out.push((dst, Msg::new(me, dst, body)));
            }
        } else if let Some(dst) = self.fwd.write_destinations().next() {
            out.push((dst, Msg::new(me, dst, PacketBody::Request(req))));
        }
        Verdict::Forward
    }

    fn read(
        &mut self,
        me: NodeId,
        mut req: ClientRequest,
        rng: &mut SmallRng,
        out: &mut Vec<(NodeId, Msg)>,
    ) -> Verdict {
        let decision = if self.harmonia {
            self.detector.process_read(req.obj)
        } else {
            ReadDecision::Normal
        };
        let (verdict, dst) = match decision {
            ReadDecision::FastPath { last_committed } => {
                // Algorithm 1 lines 10–12.
                req.last_committed = Some(last_committed);
                req.read_mode = ReadMode::FastPath {
                    switch: self.detector.switch_id(),
                };
                self.stats.reads_fast_path += 1;
                (Verdict::FastPath, self.fwd.random_replica(rng))
            }
            ReadDecision::Normal => {
                self.stats.reads_normal += 1;
                // The baseline CRAQ serves reads at any replica natively.
                let anycast = !self.harmonia && self.protocol == ProtocolKind::Craq;
                let dst = if anycast {
                    self.fwd.random_replica(rng)
                } else {
                    self.fwd.normal_read_destination()
                };
                (Verdict::Normal, dst)
            }
        };
        if let Some(dst) = dst {
            out.push((dst, Msg::new(me, dst, PacketBody::Request(req))));
        }
        verdict
    }

    /// A WRITE-COMPLETION, standalone or piggybacked: the baseline tracks
    /// nothing.
    fn complete(&mut self, c: WriteCompletion) {
        if self.harmonia {
            self.detector.process_completion(c);
            self.stats.completions += 1;
        }
    }

    /// Whether a control-plane message about `r` addresses this group:
    /// the replica is currently served here, or was provisioned here.
    fn owns(&self, r: ReplicaId) -> bool {
        self.fwd.replicas().contains(&r) || self.provisioned.contains(&r)
    }

    fn control(&mut self, ctl: ControlMsg) {
        match ctl {
            ControlMsg::AddReplica(r) => self.fwd.add_replica(r),
            ControlMsg::RemoveReplica(r) => self.fwd.remove_replica(r),
            ControlMsg::SetReplicas(rs) => self.fwd.set_replicas(rs),
            ControlMsg::GateReplica(r) => {
                // Gate floor: the group's last-committed point right now.
                // Every write in the replica's recovery window is at or
                // below it, so an ungate proving catch-up past the floor
                // proves the window is covered.
                let floor = self.detector.last_committed();
                self.fwd.gate_replica(r, floor);
            }
            ControlMsg::UngateReplica { replica, caught_up } => {
                self.fwd.ungate_replica(replica, caught_up);
            }
        }
    }
}

/// What the perf ledger reads of a switch through `harmonia-core`'s
/// `SwitchCore::view`: a host's rows. Ledger-only, and it goes with that
/// shim; everything else reads [`Switch::observe`] or a snapshot.
#[derive(Clone, Debug, Default)]
pub struct SpineView(pub Vec<GroupObservation>);

impl SpineView {
    /// Data-plane counters summed over the rows.
    pub fn stats(&self) -> SwitchStats {
        SwitchTotals::of(&self.0).stats
    }

    /// In-flight-write entries summed over the rows.
    pub fn dirty_len(&self) -> usize {
        SwitchTotals::of(&self.0).dirty_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_types::{ClientId, ClientReply, RequestId, WriteOutcome};
    use rand::SeedableRng;

    const SWITCH: NodeId = NodeId::Switch(SwitchId(1));
    const CLIENT: NodeId = NodeId::Client(ClientId(1));

    /// The switch of a three-replica group, stepped by hand: what each
    /// packet sent, and the report.
    struct Bench {
        switch: Switch,
        rng: SmallRng,
        sent: Vec<(NodeId, Msg)>,
    }

    impl Bench {
        fn new(harmonia: bool, protocol: ProtocolKind) -> Bench {
            let config = SwitchConfig {
                incarnation: SwitchId(1),
                protocol,
                harmonia,
                table: TableConfig {
                    stages: 2,
                    slots_per_stage: 64,
                    entry_bytes: 8,
                },
                sweep_interval: None,
                groups: vec![(0..3).map(ReplicaId).collect()],
            };
            Bench {
                switch: Switch::new(&config),
                rng: SmallRng::seed_from_u64(1),
                sent: Vec::new(),
            }
        }

        fn packet(&mut self, src: NodeId, body: PacketBody<ProtocolMsg>) -> Report {
            let msg = Msg::new(src, SWITCH, body);
            (self.switch).handle(Instant::ZERO, SWITCH, msg, &mut self.rng, &mut self.sent)
        }

        fn request(&mut self, req: ClientRequest) -> Report {
            self.packet(CLIENT, PacketBody::Request(req))
        }

        fn complete(&mut self, key: &'static [u8], seq: u64) {
            let done = PacketBody::Completion(WriteCompletion {
                obj: ObjectId::from_key(key),
                seq: SwitchSeq::new(SwitchId(1), seq),
            });
            self.packet(NodeId::Replica(ReplicaId(2)), done);
        }

        /// What was sent to replica `r`.
        fn at(&self, r: u32) -> Vec<&Msg> {
            let to = NodeId::Replica(ReplicaId(r));
            (self.sent.iter())
                .filter(|(dst, _)| *dst == to)
                .map(|(_, m)| m)
                .collect()
        }

        fn row(&self) -> GroupObservation {
            self.switch.observe()[0]
        }
    }

    fn write(n: u64, key: &'static [u8]) -> ClientRequest {
        ClientRequest::write(ClientId(1), RequestId(n), key, &b"v"[..])
    }

    fn read(n: u64, key: &'static [u8]) -> ClientRequest {
        ClientRequest::read(ClientId(1), RequestId(n), key)
    }

    #[test]
    fn harmonia_write_is_stamped_and_sent_to_entry_point() {
        let mut bench = Bench::new(true, ProtocolKind::Chain);
        let report = bench.request(write(1, b"k"));
        let scheduled = Scheduled {
            verdict: Verdict::Forward,
            trace: TraceId::new(ClientId(1), RequestId(1)),
            obj: ObjectId::from_key(b"k"),
        };
        assert_eq!(
            report,
            Report {
                pipelines: 1,
                request: Some(scheduled)
            }
        );
        let head = bench.at(0);
        assert_eq!(head.len(), 1);
        let PacketBody::Request(req) = &head[0].body else {
            panic!()
        };
        assert_eq!(req.seq, Some(SwitchSeq::new(SwitchId(1), 1)));
        assert_eq!(bench.row().dirty_len, 1);
    }

    #[test]
    fn reads_use_normal_path_until_first_completion_then_fast_path() {
        let mut bench = Bench::new(true, ProtocolKind::Chain);
        let verdict = |r: Report| r.request.map(|s| s.verdict);
        assert_eq!(verdict(bench.request(read(1, b"a"))), Some(Verdict::Normal));
        // Normal path -> tail (replica 2).
        assert_eq!(bench.at(2).len(), 1);
        // Write commits: completion arrives.
        bench.request(write(2, b"k"));
        bench.complete(b"k", 1);
        // Fast path now on: an uncontended read is stamped and randomized.
        assert_eq!(
            verdict(bench.request(read(3, b"a"))),
            Some(Verdict::FastPath)
        );
        let stats = SwitchTotals::of(&bench.switch.observe()).stats;
        assert_eq!((stats.reads_fast_path, stats.reads_normal), (1, 1));
        let fast: Vec<_> = (bench.sent.iter())
            .filter_map(|(_, m)| match &m.body {
                PacketBody::Request(r) if r.read_mode.is_fast_path() => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(fast.len(), 1);
        assert_eq!(fast[0].last_committed, Some(SwitchSeq::new(SwitchId(1), 1)));
    }

    #[test]
    fn contended_read_takes_normal_path() {
        let mut bench = Bench::new(true, ProtocolKind::Chain);
        // Prime fast path.
        bench.request(write(1, b"k"));
        bench.complete(b"k", 1);
        // A pending write to "hot" makes reads of it contended.
        bench.request(write(2, b"hot"));
        bench.request(read(3, b"hot"));
        let stats = SwitchTotals::of(&bench.switch.observe()).stats;
        assert_eq!((stats.reads_normal, stats.reads_fast_path), (1, 0));
    }

    #[test]
    fn baseline_routes_reads_to_entry_point_only() {
        let mut bench = Bench::new(false, ProtocolKind::Chain);
        for i in 0..5 {
            bench.request(read(i, b"k"));
        }
        assert_eq!(bench.at(2).len(), 5, "all reads at the tail");
        assert_eq!(bench.at(0).len(), 0);
        assert_eq!(bench.row().dirty_len, 0, "baseline tracks nothing");
    }

    #[test]
    fn craq_baseline_anycasts_reads() {
        let mut bench = Bench::new(false, ProtocolKind::Craq);
        for i in 0..30 {
            bench.request(read(i, b"k"));
        }
        let counts: Vec<usize> = (0..3).map(|r| bench.at(r).len()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 30);
        assert!(
            counts.iter().all(|&c| c > 0),
            "spread across replicas: {counts:?}"
        );
    }

    #[test]
    fn nopaxos_write_is_sequenced_and_multicast() {
        let mut bench = Bench::new(true, ProtocolKind::Nopaxos);
        bench.request(write(1, b"k"));
        for r in 0..3 {
            let msgs = bench.at(r);
            assert_eq!(msgs.len(), 1, "replica {r}");
            let PacketBody::Protocol(ProtocolMsg::Nopaxos(NopaxosMsg::Sequenced {
                session,
                oum_seq,
                op,
            })) = &msgs[0].body
            else {
                panic!("expected sequenced multicast")
            };
            assert_eq!((*session, *oum_seq), (1, 1));
            assert_eq!(op.seq, SwitchSeq::new(SwitchId(1), 1));
        }
    }

    #[test]
    fn reply_snooping_processes_piggybacked_completion() {
        let mut bench = Bench::new(true, ProtocolKind::Chain);
        bench.request(write(1, b"k"));
        assert_eq!(bench.row().dirty_len, 1);
        // Tail's reply with the piggybacked completion passes the switch.
        let reply = ClientReply {
            client: ClientId(1),
            from: ReplicaId(2),
            request: RequestId(1),
            obj: ObjectId::from_key(b"k"),
            value: None,
            write_outcome: Some(WriteOutcome::Committed),
            completion: Some(WriteCompletion {
                obj: ObjectId::from_key(b"k"),
                seq: SwitchSeq::new(SwitchId(1), 1),
            }),
        };
        let report = bench.packet(NodeId::Replica(ReplicaId(2)), PacketBody::Reply(reply));
        assert_eq!(
            report,
            Report {
                pipelines: 1,
                request: None
            }
        );
        assert_eq!(bench.row().dirty_len, 0, "completion cleared the entry");
        assert!(bench.row().fast_path_enabled);
        // And the client received the forwarded reply.
        let to_client = bench.sent.iter().filter(|(dst, _)| *dst == CLIENT);
        assert_eq!(to_client.count(), 1);
    }

    #[test]
    fn control_messages_update_forwarding() {
        let mut bench = Bench::new(true, ProtocolKind::Chain);
        let remove = PacketBody::Control(ControlMsg::RemoveReplica(ReplicaId(2)));
        let report = bench.packet(NodeId::Controller, remove);
        assert_eq!(report.pipelines, 1);
        let members = bench.switch.members(GroupId(0));
        assert_eq!(members, Some(&[ReplicaId(0), ReplicaId(1)][..]));
        // Normal reads now land on replica 1 (new tail).
        bench.request(read(1, b"k"));
        assert_eq!(bench.at(1).len(), 1);
        assert_eq!(bench.at(2).len(), 0);
    }
}
