//! The switch's per-packet logic (Figure 1): one [`GroupCore`] per replica
//! group, and [`SwitchCore`], the pipelines one host runs.
//!
//! A group's core holds its conflict detector, forwarding table, OUM
//! sequencer and counters, and runs every arm of the pipeline: client
//! requests through Algorithm 1 (Harmonia mode) or plain entry-point routing
//! (baseline mode), replies snooped for piggybacked WRITE-COMPLETIONs,
//! standalone completions into the conflict detector, control into the
//! forwarding table. Each core is owned by exactly one host, so no lock
//! guards the packet path — the property a real Tofino gets for free by
//! processing groups' packets in parallel at line rate.
//!
//! Where a packet addressed to the switch goes is decided in one function,
//! [`SwitchCore::handle`], by [`PacketBody::switch_route`]: the shard's
//! pipeline, any one pipeline, every pipeline whose group the control names,
//! or past the switch to the client. Every driver runs it inside the one
//! node runtime ([`crate::worker`]): the simulator's switch node hosts every
//! group's pipeline, a threaded driver deals them over its workers.
//!
//! **The ToR hop.** In the paper's rack every packet physically crosses the
//! switch, and the simulator keeps that hop: a reply with no completion
//! still arrives at the switch node, and virtual time charges its link. But
//! forwarding it is L2 work, not pipeline work: `handle` passes it to the
//! client as it arrived, outside every pipeline, so `Counter::SwitchPackets`
//! — what the pipelines handled — is R + 2·W for R reads and W chain writes
//! on every driver. On the threaded drivers the sender-side spine forwards
//! such a reply itself, so only the simulator reaches that arm.

use harmonia_obs::{Counter, Recorder, TraceStage};
use harmonia_replication::messages::{NopaxosMsg, ProtocolMsg, WriteOp};
use harmonia_replication::ProtocolKind;
use harmonia_switch::{
    ConflictConfig, ConflictDetector, ForwardingTable, GroupId, GroupObservation, ReadDecision,
    ReadEntry, Sequencer, SpineView, SwitchStats, WriteDecision, WriteEntry,
};
use harmonia_types::{
    ClientReply, ClientRequest, ControlMsg, Duration, Instant, NodeId, OpKind, PacketBody,
    ReadMode, ReplicaId, SwitchId, SwitchRoute, SwitchSeq, TraceId,
};
use harmonia_workload::ShardMap;
use rand::rngs::SmallRng;

use crate::deployment::DeploymentSpec;
use crate::msg::Msg;

/// Is the conflict-detection module loaded on this switch?
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum SwitchMode {
    /// Plain L2/L3 + protocol entry-point routing (the "without Harmonia"
    /// baselines of §9). CRAQ additionally gets anycast reads — its protocol
    /// handles per-object cleanliness itself.
    Baseline,
    /// In-network conflict detection per Algorithm 1.
    Harmonia,
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

/// One replica group's complete switch-side state — conflict detector,
/// forwarding table, OUM sequencer, and data-plane counters — plus the full
/// per-packet logic that operates on it.
pub struct GroupCore {
    group: GroupId,
    incarnation: SwitchId,
    mode: SwitchMode,
    protocol: ProtocolKind,
    detector: ConflictDetector,
    fwd: ForwardingTable,
    sequencer: Sequencer,
    stats: SwitchStats,
    /// The members this group was provisioned with — control-plane
    /// addressing for a replica that was removed and is being re-added.
    provisioned: Vec<ReplicaId>,
    /// Observability sink (detached unless a driver attaches one).
    recorder: Recorder,
}

impl GroupCore {
    fn new(spec: &DeploymentSpec, incarnation: SwitchId, group: GroupId) -> Self {
        let (write_entry, read_entry) = match spec.protocol {
            ProtocolKind::PrimaryBackup => (WriteEntry::Primary, ReadEntry::Primary),
            ProtocolKind::Chain | ProtocolKind::Craq => {
                (WriteEntry::ChainHead, ReadEntry::ChainTail)
            }
            ProtocolKind::Vr => (WriteEntry::Leader, ReadEntry::Leader),
            ProtocolKind::Nopaxos => (WriteEntry::Multicast, ReadEntry::Leader),
        };
        let members = spec.group_members(group.0 as usize);
        GroupCore {
            group,
            incarnation,
            mode: if spec.harmonia {
                SwitchMode::Harmonia
            } else {
                SwitchMode::Baseline
            },
            protocol: spec.protocol,
            detector: ConflictDetector::new(ConflictConfig {
                switch_id: incarnation,
                table: spec.table,
            }),
            fwd: ForwardingTable::with_members(members.clone(), write_entry, read_entry),
            sequencer: Sequencer::new(u64::from(incarnation.0)),
            stats: SwitchStats::default(),
            provisioned: members,
            recorder: Recorder::detached(),
        }
    }

    /// The group this core schedules.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// The group's data-plane counters.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// The group's conflict detector (inspection).
    pub fn detector(&self) -> &ConflictDetector {
        &self.detector
    }

    /// Dirty-set SRAM consumed by this group.
    pub fn memory_bytes(&self) -> usize {
        self.detector.memory_bytes()
    }

    /// The group's current members, in role order.
    pub fn replicas(&self) -> &[ReplicaId] {
        self.fwd.replicas()
    }

    /// Whether replica `r` is currently read-gated in this group's table.
    pub fn is_gated(&self, r: ReplicaId) -> bool {
        self.fwd.is_gated(r)
    }

    /// A point-in-time snapshot for aggregate-only views ([`SpineView`]).
    pub fn observe(&self) -> GroupObservation {
        GroupObservation {
            group: self.group,
            stats: self.stats,
            fast_path_enabled: self.detector.fast_path_enabled(),
            memory_bytes: self.detector.memory_bytes(),
            dirty_len: self.detector.dirty_len(),
        }
    }

    fn handle_write(
        &mut self,
        now: Instant,
        me: NodeId,
        mut req: ClientRequest,
        out: &mut Vec<(NodeId, Msg)>,
    ) {
        let trace_id = TraceId::new(req.client, req.request);
        // Harmonia: Algorithm 1 lines 1–4, on this object's group.
        if self.mode == SwitchMode::Harmonia {
            match self.detector.process_write(req.obj) {
                WriteDecision::Stamped(seq) => req.seq = Some(seq),
                WriteDecision::Dropped => {
                    // §6.1: no dirty-set slot — the write is dropped in the
                    // data plane; the client will time out and retry.
                    self.stats.writes_dropped += 1;
                    self.recorder
                        .trace_at(now, me, trace_id, req.obj, TraceStage::SwitchWriteDrop);
                    return;
                }
            }
        }
        self.stats.writes_forwarded += 1;
        self.recorder
            .trace_at(now, me, trace_id, req.obj, TraceStage::SwitchWriteForward);
        if self.protocol == ProtocolKind::Nopaxos {
            // Ordered unreliable multicast: stamp and fan out (§7.3) within
            // the object's group; sessions are per group so gap detection
            // never crosses shard boundaries.
            let stamp = self.sequencer.stamp();
            let seq = req
                .seq
                .unwrap_or(SwitchSeq::new(self.incarnation, stamp.seq));
            let op = WriteOp {
                seq,
                obj: req.obj,
                key: req.key.clone(),
                value: req.value.clone().unwrap_or_default(),
                client: req.client,
                request: req.request,
            };
            for &r in self.fwd.replicas() {
                let dst = NodeId::Replica(r);
                out.push((
                    dst,
                    Msg::new(
                        me,
                        dst,
                        PacketBody::Protocol(ProtocolMsg::Nopaxos(NopaxosMsg::Sequenced {
                            session: stamp.session,
                            oum_seq: stamp.seq,
                            op: op.clone(),
                        })),
                    ),
                ));
            }
        } else if let Some(dst) = self.fwd.write_destinations().next() {
            out.push((dst, Msg::new(me, dst, PacketBody::Request(req))));
        }
    }

    fn handle_read(
        &mut self,
        now: Instant,
        me: NodeId,
        mut req: ClientRequest,
        rng: &mut SmallRng,
        out: &mut Vec<(NodeId, Msg)>,
    ) {
        let trace_id = TraceId::new(req.client, req.request);
        let dst = match self.mode {
            SwitchMode::Harmonia => match self.detector.process_read(req.obj) {
                ReadDecision::FastPath { last_committed } => {
                    // Algorithm 1 lines 10–12.
                    req.last_committed = Some(last_committed);
                    req.read_mode = ReadMode::FastPath {
                        switch: self.incarnation,
                    };
                    self.stats.reads_fast_path += 1;
                    self.recorder.trace_at(
                        now,
                        me,
                        trace_id,
                        req.obj,
                        TraceStage::SwitchFastPathRead,
                    );
                    self.fwd.random_replica(rng)
                }
                ReadDecision::Normal => {
                    self.stats.reads_normal += 1;
                    self.recorder.trace_at(
                        now,
                        me,
                        trace_id,
                        req.obj,
                        TraceStage::SwitchNormalRead,
                    );
                    self.fwd.normal_read_destination()
                }
            },
            SwitchMode::Baseline => {
                self.stats.reads_normal += 1;
                self.recorder
                    .trace_at(now, me, trace_id, req.obj, TraceStage::SwitchNormalRead);
                if self.protocol == ProtocolKind::Craq {
                    // CRAQ serves reads at any replica natively.
                    self.fwd.random_replica(rng)
                } else {
                    self.fwd.normal_read_destination()
                }
            }
        };
        if let Some(dst) = dst {
            out.push((dst, Msg::new(me, dst, PacketBody::Request(req))));
        }
    }

    fn snoop_completion(&mut self, c: harmonia_types::WriteCompletion) {
        self.detector.process_completion(c);
        self.stats.completions += 1;
    }

    fn handle_reply(&mut self, me: NodeId, reply: ClientReply, out: &mut Vec<(NodeId, Msg)>) {
        // Snoop the piggybacked completion (Figure 2b), then forward the
        // reply to its client.
        if self.mode == SwitchMode::Harmonia {
            if let Some(c) = reply.completion {
                self.snoop_completion(c);
            }
        }
        let dst = NodeId::Client(reply.client);
        out.push((dst, Msg::new(me, dst, PacketBody::Reply(reply))));
    }

    /// Whether a control-plane message about `r` addresses this group:
    /// the replica is currently served here, or was provisioned here.
    fn owns(&self, r: ReplicaId) -> bool {
        self.fwd.replicas().contains(&r) || self.provisioned.contains(&r)
    }

    fn handle_control(&mut self, ctl: ControlMsg) {
        match ctl {
            ControlMsg::AddReplica(r) => self.fwd.add_replica(r),
            ControlMsg::RemoveReplica(r) => self.fwd.remove_replica(r),
            ControlMsg::SetReplicas(rs) => self.fwd.set_replicas(rs),
            ControlMsg::GateReplica(r) => {
                // Gate floor: the group's last-committed point right
                // now. Every write in the replica's recovery window is
                // at or below it, so an ungate proving catch-up past
                // the floor proves the window is covered.
                let floor = self.detector.last_committed();
                self.fwd.gate_replica(r, floor);
            }
            ControlMsg::UngateReplica { replica, caught_up } => {
                self.fwd.ungate_replica(replica, caught_up);
            }
        }
    }

    /// Run the arm of a packet [`SwitchCore::handle`] routed to this group.
    fn handle(
        &mut self,
        now: Instant,
        me: NodeId,
        msg: Msg,
        rng: &mut SmallRng,
        out: &mut Vec<(NodeId, Msg)>,
    ) {
        self.recorder.incr(Counter::SwitchPackets);
        match msg.body {
            PacketBody::Request(req) => match req.op {
                OpKind::Write => self.handle_write(now, me, req, out),
                OpKind::Read => self.handle_read(now, me, req, rng, out),
            },
            PacketBody::Reply(reply) => self.handle_reply(me, reply, out),
            PacketBody::Completion(c) => {
                if self.mode == SwitchMode::Harmonia {
                    self.snoop_completion(c);
                }
            }
            PacketBody::Control(ctl) => self.handle_control(ctl),
            PacketBody::Protocol(p) => {
                // L2/L3 forwarding of protocol traffic routed through the
                // switch (replicas normally talk to each other direct).
                self.stats.forwarded_other += 1;
                let dst = msg.dst;
                out.push((dst, Msg::new(msg.src, dst, PacketBody::Protocol(p))));
            }
        }
    }

    /// Control-plane sweep of stale dirty entries (§5.2).
    fn sweep(&mut self) -> usize {
        let swept = self.detector.sweep();
        self.recorder.add(Counter::SwitchSwept, swept as u64);
        swept
    }
}

/// The pipelines one host runs: the [`GroupCore`]s of some or all of a
/// deployment's groups (§6.3), under one switch incarnation, and the one
/// route rule that picks among them.
///
/// The simulator's switch node holds every group ([`for_deployment`]);
/// a threaded worker holds the groups dealt to it ([`for_groups`]), and the
/// sender-side spine has already picked the worker by the same route.
///
/// [`for_deployment`]: Self::for_deployment
/// [`for_groups`]: Self::for_groups
pub struct SwitchCore {
    incarnation: SwitchId,
    /// In group order.
    groups: Vec<GroupCore>,
    shards: ShardMap,
    /// How long the pipelines must sit idle before stale dirty entries are
    /// swept; `None`: never.
    sweep: Option<Duration>,
}

impl SwitchCore {
    /// Every group's pipeline of incarnation `incarnation` of `spec` —
    /// one group for the rack-scale deployment, many for §6.3.
    pub fn for_deployment(spec: &DeploymentSpec, incarnation: SwitchId) -> Self {
        Self::for_groups(spec, incarnation, (0..spec.groups as u32).map(GroupId))
    }

    /// The pipelines of `groups` only. Group `g` serves the objects
    /// `ShardMap::new(spec.groups).shard_of(obj) == g`, with its own
    /// `spec.table`-sized dirty set and sequence space.
    pub fn for_groups(
        spec: &DeploymentSpec,
        incarnation: SwitchId,
        groups: impl IntoIterator<Item = GroupId>,
    ) -> Self {
        let mut groups: Vec<GroupCore> = (groups.into_iter())
            .map(|g| GroupCore::new(spec, incarnation, g))
            .collect();
        groups.sort_by_key(|c| c.group);
        SwitchCore {
            incarnation,
            groups,
            shards: spec.shard_map(),
            sweep: spec.sweep_interval,
        }
    }

    /// Process one packet addressed to the switch, pushing what it forwards
    /// onto `out`. This is the one route rule, by
    /// [`PacketBody::switch_route`]:
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
    ) {
        match msg.body.switch_route() {
            SwitchRoute::Group(obj) => {
                let group = GroupId(self.shards.shard_of(obj));
                if let Some(core) = self.groups.iter_mut().find(|c| c.group == group) {
                    core.handle(now, me, msg, rng, out);
                }
            }
            SwitchRoute::AnyGroup => {
                if let Some(core) = self.groups.first_mut() {
                    core.handle(now, me, msg, rng, out);
                }
            }
            SwitchRoute::EveryGroup => {
                let subject = match &msg.body {
                    PacketBody::Control(ctl) => control_subject(ctl),
                    _ => None,
                };
                let owners =
                    (self.groups.iter_mut()).filter(|c| subject.is_some_and(|r| c.owns(r)));
                for core in owners {
                    core.handle(now, me, msg.clone(), rng, out);
                }
            }
            SwitchRoute::Client(client) => out.push((NodeId::Client(client), msg)),
        }
    }

    /// Control-plane sweep of stale dirty entries (§5.2), across every
    /// hosted group.
    pub fn sweep(&mut self) -> usize {
        self.groups.iter_mut().map(GroupCore::sweep).sum()
    }

    /// When pipelines that stay idle from `now` on should sweep: never
    /// without a sweep interval, and only while a sweep could reclaim
    /// something.
    pub(crate) fn sweep_after(&self, now: Instant) -> Option<Instant> {
        let pending = self.groups.iter().any(|c| c.detector.sweep_pending());
        self.sweep.filter(|_| pending).map(|idle| now + idle)
    }

    /// Attach an observability recorder, shared (cloned) across every
    /// hosted group.
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        for core in &mut self.groups {
            core.recorder = recorder.clone();
        }
    }

    /// Aggregate data-plane counters across every hosted group.
    pub fn stats(&self) -> SwitchStats {
        let mut total = SwitchStats::default();
        for core in &self.groups {
            total.merge(&core.stats);
        }
        total
    }

    /// One hosted group's pipeline.
    pub fn group(&self, group: GroupId) -> Option<&GroupCore> {
        self.groups.iter().find(|c| c.group == group)
    }

    /// Number of replica groups hosted here.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The deployment's object→group map.
    pub fn shard_map(&self) -> ShardMap {
        self.shards
    }

    /// Aggregate-only view across every hosted group — the same snapshots
    /// a threaded driver's workers export.
    pub fn view(&self) -> SpineView {
        SpineView::new(self.groups.iter().map(GroupCore::observe).collect())
    }

    /// Total dirty-set SRAM across every hosted group (§6.3 budget check).
    pub fn memory_bytes(&self) -> usize {
        self.groups.iter().map(GroupCore::memory_bytes).sum()
    }

    /// This incarnation's id.
    pub fn incarnation(&self) -> SwitchId {
        self.incarnation
    }

    /// Whether replica `r` is currently read-gated (recovering, not yet
    /// proven caught up) in its group's forwarding table.
    pub fn is_gated(&self, r: ReplicaId) -> bool {
        self.groups.iter().any(|c| c.fwd.is_gated(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::SimWorker;
    use harmonia_sim::{Actor, Context, LinkConfig, NetworkModel, World, WorldConfig};
    use harmonia_switch::TableConfig;
    use harmonia_types::{ClientId, RequestId, WriteCompletion};

    const SWITCH: NodeId = NodeId::Switch(SwitchId(1));

    /// Collects everything addressed to it.
    struct Sink {
        got: Vec<Msg>,
    }
    impl Actor<Msg> for Sink {
        fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
            self.got.push(msg);
        }
    }

    /// The switch of a three-replica group as a simulated host, beside three
    /// replica sinks and a client sink.
    fn world_with_switch(mode: SwitchMode, protocol: ProtocolKind) -> World<Msg> {
        let spec = DeploymentSpec::new()
            .protocol(protocol)
            .harmonia(mode == SwitchMode::Harmonia)
            .table(TableConfig {
                stages: 2,
                slots_per_stage: 64,
                entry_bytes: 8,
            })
            .sweep_interval(None);
        let mut w = World::new(WorldConfig {
            seed: 1,
            network: NetworkModel::uniform(LinkConfig::ideal(Duration::from_micros(1))),
        });
        let switch = spec.sim_switch(SwitchId(1), &Recorder::detached());
        w.add_node(SWITCH, Box::new(switch));
        for r in 0..3 {
            let sink = Box::new(Sink { got: vec![] });
            w.add_node(NodeId::Replica(ReplicaId(r)), sink);
        }
        w.add_node(NodeId::Client(ClientId(1)), Box::new(Sink { got: vec![] }));
        w
    }

    fn switch(w: &World<Msg>) -> &SwitchCore {
        w.actor::<SimWorker>(SWITCH).unwrap().switch().unwrap()
    }

    fn detector(w: &World<Msg>) -> &ConflictDetector {
        switch(w).group(GroupId(0)).unwrap().detector()
    }

    fn send_req(w: &mut World<Msg>, req: ClientRequest) {
        let from = NodeId::Client(req.client);
        w.inject(
            from,
            SWITCH,
            Msg::new(from, SWITCH, PacketBody::Request(req)),
        );
        w.run_until_idle(1000);
    }

    fn complete(w: &mut World<Msg>, key: &'static [u8], seq: u64) {
        let from = NodeId::Replica(ReplicaId(2));
        let done = PacketBody::Completion(WriteCompletion {
            obj: harmonia_types::ObjectId::from_key(key),
            seq: SwitchSeq::new(SwitchId(1), seq),
        });
        w.inject(from, SWITCH, Msg::new(from, SWITCH, done));
        w.run_until_idle(100);
    }

    fn replica_msgs(w: &World<Msg>, r: u32) -> &Vec<Msg> {
        &w.actor::<Sink>(NodeId::Replica(ReplicaId(r))).unwrap().got
    }

    #[test]
    fn harmonia_write_is_stamped_and_sent_to_entry_point() {
        let mut w = world_with_switch(SwitchMode::Harmonia, ProtocolKind::Chain);
        send_req(
            &mut w,
            ClientRequest::write(ClientId(1), RequestId(1), &b"k"[..], &b"v"[..]),
        );
        let head = replica_msgs(&w, 0);
        assert_eq!(head.len(), 1);
        let PacketBody::Request(req) = &head[0].body else {
            panic!()
        };
        assert_eq!(req.seq, Some(SwitchSeq::new(SwitchId(1), 1)));
        assert_eq!(detector(&w).dirty_len(), 1);
    }

    #[test]
    fn reads_use_normal_path_until_first_completion_then_fast_path() {
        let mut w = world_with_switch(SwitchMode::Harmonia, ProtocolKind::Chain);
        send_req(
            &mut w,
            ClientRequest::read(ClientId(1), RequestId(1), &b"a"[..]),
        );
        // Normal path -> tail (replica 2).
        assert_eq!(replica_msgs(&w, 2).len(), 1);
        // Write commits: completion arrives.
        send_req(
            &mut w,
            ClientRequest::write(ClientId(1), RequestId(2), &b"k"[..], &b"v"[..]),
        );
        complete(&mut w, b"k", 1);
        // Fast path now on: an uncontended read is stamped and randomized.
        send_req(
            &mut w,
            ClientRequest::read(ClientId(1), RequestId(3), &b"a"[..]),
        );
        let sw = switch(&w);
        assert_eq!(sw.stats().reads_fast_path, 1);
        assert_eq!(sw.stats().reads_normal, 1);
        let fast: Vec<_> = (0..3)
            .flat_map(|r| replica_msgs(&w, r).iter())
            .filter_map(|m| match &m.body {
                PacketBody::Request(r) if r.read_mode.is_fast_path() => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(fast.len(), 1);
        assert_eq!(fast[0].last_committed, Some(SwitchSeq::new(SwitchId(1), 1)));
    }

    #[test]
    fn contended_read_takes_normal_path() {
        let mut w = world_with_switch(SwitchMode::Harmonia, ProtocolKind::Chain);
        // Prime fast path.
        send_req(
            &mut w,
            ClientRequest::write(ClientId(1), RequestId(1), &b"k"[..], &b"v"[..]),
        );
        complete(&mut w, b"k", 1);
        // A pending write to "hot" makes reads of it contended.
        send_req(
            &mut w,
            ClientRequest::write(ClientId(1), RequestId(2), &b"hot"[..], &b"v"[..]),
        );
        send_req(
            &mut w,
            ClientRequest::read(ClientId(1), RequestId(3), &b"hot"[..]),
        );
        let sw = switch(&w);
        assert_eq!(sw.stats().reads_normal, 1);
        assert_eq!(sw.stats().reads_fast_path, 0);
    }

    #[test]
    fn baseline_routes_reads_to_entry_point_only() {
        let mut w = world_with_switch(SwitchMode::Baseline, ProtocolKind::Chain);
        for i in 0..5 {
            send_req(
                &mut w,
                ClientRequest::read(ClientId(1), RequestId(i), &b"k"[..]),
            );
        }
        assert_eq!(replica_msgs(&w, 2).len(), 5, "all reads at the tail");
        assert_eq!(replica_msgs(&w, 0).len(), 0);
        assert_eq!(detector(&w).dirty_len(), 0, "baseline tracks nothing");
    }

    #[test]
    fn craq_baseline_anycasts_reads() {
        let mut w = world_with_switch(SwitchMode::Baseline, ProtocolKind::Craq);
        for i in 0..30 {
            send_req(
                &mut w,
                ClientRequest::read(ClientId(1), RequestId(i), &b"k"[..]),
            );
        }
        let counts: Vec<usize> = (0..3).map(|r| replica_msgs(&w, r).len()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 30);
        assert!(
            counts.iter().all(|&c| c > 0),
            "spread across replicas: {counts:?}"
        );
    }

    #[test]
    fn nopaxos_write_is_sequenced_and_multicast() {
        let mut w = world_with_switch(SwitchMode::Harmonia, ProtocolKind::Nopaxos);
        send_req(
            &mut w,
            ClientRequest::write(ClientId(1), RequestId(1), &b"k"[..], &b"v"[..]),
        );
        for r in 0..3 {
            let msgs = replica_msgs(&w, r);
            assert_eq!(msgs.len(), 1, "replica {r}");
            let PacketBody::Protocol(ProtocolMsg::Nopaxos(NopaxosMsg::Sequenced {
                session,
                oum_seq,
                op,
            })) = &msgs[0].body
            else {
                panic!("expected sequenced multicast")
            };
            assert_eq!(*session, 1);
            assert_eq!(*oum_seq, 1);
            assert_eq!(op.seq, SwitchSeq::new(SwitchId(1), 1));
        }
    }

    #[test]
    fn reply_snooping_processes_piggybacked_completion() {
        let mut w = world_with_switch(SwitchMode::Harmonia, ProtocolKind::Chain);
        send_req(
            &mut w,
            ClientRequest::write(ClientId(1), RequestId(1), &b"k"[..], &b"v"[..]),
        );
        assert_eq!(detector(&w).dirty_len(), 1);
        // Tail's reply with the piggybacked completion passes the switch.
        let reply = ClientReply {
            client: ClientId(1),
            from: ReplicaId(2),
            request: RequestId(1),
            obj: harmonia_types::ObjectId::from_key(b"k"),
            value: None,
            write_outcome: Some(harmonia_types::WriteOutcome::Committed),
            completion: Some(WriteCompletion {
                obj: harmonia_types::ObjectId::from_key(b"k"),
                seq: SwitchSeq::new(SwitchId(1), 1),
            }),
        };
        let tail = NodeId::Replica(ReplicaId(2));
        w.inject(
            tail,
            SWITCH,
            Msg::new(tail, SWITCH, PacketBody::Reply(reply)),
        );
        w.run_until_idle(100);
        assert_eq!(detector(&w).dirty_len(), 0, "completion cleared the entry");
        assert!(detector(&w).fast_path_enabled());
        // And the client received the forwarded reply.
        let client_msgs = &w.actor::<Sink>(NodeId::Client(ClientId(1))).unwrap().got;
        assert_eq!(client_msgs.len(), 1);
    }

    #[test]
    fn control_messages_update_forwarding() {
        let mut w = world_with_switch(SwitchMode::Harmonia, ProtocolKind::Chain);
        let remove = PacketBody::Control(ControlMsg::RemoveReplica(ReplicaId(2)));
        let ctl = NodeId::Controller;
        w.inject(ctl, SWITCH, Msg::new(ctl, SWITCH, remove));
        w.run_until_idle(10);
        // Normal reads now land on replica 1 (new tail).
        send_req(
            &mut w,
            ClientRequest::read(ClientId(1), RequestId(1), &b"k"[..]),
        );
        assert_eq!(replica_msgs(&w, 1).len(), 1);
        assert_eq!(replica_msgs(&w, 2).len(), 0);
    }
}
