//! The switch as a simulated node.
//!
//! Every packet of the rack traverses this actor (Figure 1): client requests
//! are run through Algorithm 1 (Harmonia mode) or plain entry-point routing
//! (baseline mode); replies flowing back to clients are snooped for
//! piggybacked WRITE-COMPLETIONs; standalone completions update the conflict
//! detector; protocol traffic would be forwarded by L2/L3 (the simulation
//! sends replica↔replica messages directly, so none arrives here).
//!
//! *Every* packet, in the simulator: there the hop through this actor is the
//! ToR's modelled link latency, not CPU, so a read reply with nothing to
//! snoop still passes through [`SwitchCore::handle`] and every virtual-time
//! figure charges for it. The threaded drivers share the per-group logic
//! ([`GroupCore`]) but not that traversal: their sender-side spine
//! ([`PacketBody::switch_route`]) forwards completion-less replies straight
//! to the client, so a pipeline's `handle_reply` only ever sees replies that
//! carry a completion. `Counter::SwitchPackets` counts what each handled —
//! 2·R + 2·W for R reads and W chain writes here, R + 2·W on a pipeline
//! fleet.
//!
//! The actor's service model is [`Service::Immediate`]: a Tofino processes
//! packets at line rate, so the switch is pure delay, never a queue — the
//! property that lets Harmonia claim zero overhead (§6).

use std::collections::BTreeMap;

use harmonia_obs::{Counter, Recorder, TraceStage};
use harmonia_replication::messages::{NopaxosMsg, ProtocolMsg, WriteOp};
use harmonia_replication::ProtocolKind;
use harmonia_sim::{Actor, Context, Service, TimerToken};
use harmonia_switch::{
    ConflictConfig, ConflictDetector, ForwardingTable, GroupId, GroupObservation, ReadDecision,
    ReadEntry, Sequencer, SpineView, SwitchStats, TableConfig, WriteDecision, WriteEntry,
};
use harmonia_types::{
    ClientReply, ClientRequest, ControlMsg, Duration, Instant, NodeId, ObjectId, OpKind,
    PacketBody, ReadMode, ReplicaId, SwitchId, SwitchSeq, TraceId,
};
use harmonia_workload::ShardMap;

use crate::msg::Msg;

/// Is the conflict-detection module loaded on this switch?
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SwitchMode {
    /// Plain L2/L3 + protocol entry-point routing (the "without Harmonia"
    /// baselines of §9). CRAQ additionally gets anycast reads — its protocol
    /// handles per-object cleanliness itself.
    Baseline,
    /// In-network conflict detection per Algorithm 1.
    Harmonia,
}

/// Switch actor configuration.
#[derive(Clone, Copy, Debug)]
pub struct SwitchActorConfig {
    /// This incarnation's id (bump on every replacement, §5.3).
    pub incarnation: SwitchId,
    /// Baseline or Harmonia.
    pub mode: SwitchMode,
    /// The protocol the replica group runs (decides entry points).
    pub protocol: ProtocolKind,
    /// Number of replicas initially registered.
    pub replicas: usize,
    /// Dirty-set geometry.
    pub table: TableConfig,
    /// Cadence of the control-plane stale-entry sweep (§5.2); `None`
    /// disables it (lazy read-time scrubbing still runs).
    pub sweep_interval: Option<Duration>,
}

/// The replica a control-plane message is about — a bulk reconfiguration is
/// about its first member. Both switch shapes address control by it.
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
///
/// A `GroupCore` is the unit of ownership of the parallel live data plane:
/// every group's core is owned by exactly one worker thread, so no lock
/// guards the packet path (the property a real Tofino gets for free by
/// processing groups' packets in parallel at line rate). The deterministic
/// simulator keeps all cores behind one [`SwitchCore`] actor instead —
/// identical logic, single-threaded dispatch.
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
    fn new(
        cfg: &SwitchActorConfig,
        group: GroupId,
        members: Vec<ReplicaId>,
        write_entry: WriteEntry,
        read_entry: ReadEntry,
    ) -> Self {
        GroupCore {
            group,
            incarnation: cfg.incarnation,
            mode: cfg.mode,
            protocol: cfg.protocol,
            detector: ConflictDetector::new(ConflictConfig {
                switch_id: cfg.incarnation,
                table: cfg.table,
            }),
            fwd: ForwardingTable::with_members(members.clone(), write_entry, read_entry),
            sequencer: Sequencer::new(u64::from(cfg.incarnation.0)),
            stats: SwitchStats::default(),
            provisioned: members,
            recorder: Recorder::detached(),
        }
    }

    /// Attach an observability recorder. The live driver gives every
    /// pipeline its own registry shard; the simulator shares one clone
    /// across all groups (single-threaded, so there is no contention to
    /// shard away).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The attached observability recorder (the live pipeline reads its
    /// clock for packet timestamps).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The group this core schedules.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// This incarnation's id.
    pub fn incarnation(&self) -> SwitchId {
        self.incarnation
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
        rng: &mut rand::rngs::SmallRng,
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

    /// Process one packet a pipeline fleet's spine delivered to this group,
    /// pushing forwarded packets onto `out` — the whole per-packet pipeline
    /// of a live worker.
    ///
    /// Control reaches a fleet by broadcast (the stateless spine cannot know
    /// which group a replica currently lives in), so a group applies only
    /// what names a replica it serves or was provisioned with; everything
    /// else was shard-routed here. [`SwitchCore::handle`] picks the one group a
    /// packet addresses itself and then runs the same arms, so for every
    /// control sequence about a deployment's own replicas the fleet and the
    /// monolith end in the same per-group state
    /// (`split_group_cores_match_monolith_accounting` in
    /// `tests/proptests.rs`). Where they still part: a replica moved across
    /// groups (which no §5.3 flow performs) is owned by two groups of a
    /// fleet, and a control naming a replica unknown to every group is
    /// dropped by a fleet while the monolith defaults it to group 0.
    pub fn handle(
        &mut self,
        now: Instant,
        me: NodeId,
        msg: Msg,
        rng: &mut rand::rngs::SmallRng,
        out: &mut Vec<(NodeId, Msg)>,
    ) {
        if let PacketBody::Control(ctl) = &msg.body {
            if !control_subject(ctl).is_some_and(|r| self.owns(r)) {
                self.recorder.incr(Counter::SwitchPackets);
                return;
            }
        }
        self.handle_routed(now, me, msg, rng, out);
    }

    /// Run the arm of a packet already known to address this group.
    fn handle_routed(
        &mut self,
        now: Instant,
        me: NodeId,
        msg: Msg,
        rng: &mut rand::rngs::SmallRng,
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
    pub fn sweep(&mut self) -> usize {
        let swept = self.detector.sweep();
        self.recorder.add(Counter::SwitchSwept, swept as u64);
        swept
    }

    /// Whether [`sweep`](Self::sweep) could remove anything right now.
    pub fn sweep_pending(&self) -> bool {
        self.detector.sweep_pending()
    }
}

/// Transport-agnostic switch logic, shared by the simulated actor and the
/// live threaded driver.
///
/// One `SwitchCore` hosts the Harmonia scheduler for one **or many** replica
/// groups (§6.3): each group's conflict detector, forwarding table, OUM
/// sequencer, and counters live in that group's [`GroupCore`]. Requests are
/// routed to their group by the deployment's [`ShardMap`] — for the
/// rack-scale single-group case that map is the identity onto group 0 and
/// the behavior is exactly the paper's Figure 1 pipeline.
///
/// The simulator drives the core whole (one deterministic actor); the live
/// driver calls [`into_group_cores`](Self::into_group_cores) and moves each
/// group's core onto the worker that hosts its pipeline.
pub struct SwitchCore {
    cfg: SwitchActorConfig,
    groups: BTreeMap<GroupId, GroupCore>,
    shards: ShardMap,
}

impl SwitchCore {
    /// Build the data-plane state for `cfg`: a single replica group with
    /// members `0..cfg.replicas` (the rack-scale deployment).
    pub fn new(cfg: SwitchActorConfig) -> Self {
        let members = (0..cfg.replicas as u32).map(ReplicaId).collect();
        Self::new_sharded(cfg, vec![members])
    }

    /// The one constructor both drivers use: build the core for incarnation
    /// `incarnation` of `spec`, hosting every group of the deployment —
    /// whether that is one ([`groups(1)`](crate::deployment::DeploymentSpec::groups),
    /// the rack-scale case) or many (§6.3).
    pub fn for_deployment(spec: &crate::deployment::DeploymentSpec, incarnation: SwitchId) -> Self {
        SwitchCore::new_sharded(spec.switch_actor_config(incarnation), spec.memberships())
    }

    /// Build a spine switch hosting one group per entry of `memberships`
    /// (§6.3 cloud-scale deployment). Group `g` serves the objects
    /// `ShardMap::new(memberships.len()).shard_of(obj) == g`; every group
    /// gets its own `cfg.table`-sized dirty set and sequence space, all
    /// under this one incarnation. `cfg.replicas` is ignored — memberships
    /// are explicit.
    pub fn new_sharded(cfg: SwitchActorConfig, memberships: Vec<Vec<ReplicaId>>) -> Self {
        assert!(!memberships.is_empty(), "at least one replica group");
        let (write_entry, read_entry) = match cfg.protocol {
            ProtocolKind::PrimaryBackup => (WriteEntry::Primary, ReadEntry::Primary),
            ProtocolKind::Chain | ProtocolKind::Craq => {
                (WriteEntry::ChainHead, ReadEntry::ChainTail)
            }
            ProtocolKind::Vr => (WriteEntry::Leader, ReadEntry::Leader),
            ProtocolKind::Nopaxos => (WriteEntry::Multicast, ReadEntry::Leader),
        };
        let shards = ShardMap::new(memberships.len());
        let groups = memberships
            .into_iter()
            .enumerate()
            .map(|(g, members)| {
                let gid = GroupId(g as u32);
                (
                    gid,
                    GroupCore::new(&cfg, gid, members, write_entry, read_entry),
                )
            })
            .collect();
        SwitchCore {
            cfg,
            groups,
            shards,
        }
    }

    fn group_of(&self, obj: ObjectId) -> GroupId {
        GroupId(self.shards.shard_of(obj))
    }

    /// Aggregate data-plane counters across every hosted group.
    pub fn stats(&self) -> SwitchStats {
        let mut total = SwitchStats::default();
        for core in self.groups.values() {
            total.merge(&core.stats);
        }
        total
    }

    /// One group's data-plane counters.
    pub fn group_stats(&self, group: GroupId) -> Option<SwitchStats> {
        self.groups.get(&group).map(|c| c.stats)
    }

    /// Number of replica groups hosted by this switch.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The deployment's object→group map.
    pub fn shard_map(&self) -> ShardMap {
        self.shards
    }

    /// Aggregate-only view across every hosted group — the same snapshots
    /// a fleet of live pipeline workers exports.
    pub fn view(&self) -> SpineView {
        SpineView::new(self.groups.values().map(|c| c.observe()).collect())
    }

    /// Group 0's conflict detector — the whole detector in a single-group
    /// deployment (inspection).
    pub fn detector(&self) -> &ConflictDetector {
        self.group_detector(GroupId(0))
            .expect("group 0 always exists")
    }

    /// A specific group's conflict detector (inspection).
    pub fn group_detector(&self, group: GroupId) -> Option<&ConflictDetector> {
        self.groups.get(&group).map(|c| &c.detector)
    }

    /// Dirty-set SRAM consumed by one hosted group.
    pub fn group_memory_bytes(&self, group: GroupId) -> Option<usize> {
        self.groups.get(&group).map(|c| c.memory_bytes())
    }

    /// Total dirty-set SRAM across every hosted group (§6.3 budget check).
    pub fn memory_bytes(&self) -> usize {
        self.groups.values().map(|c| c.memory_bytes()).sum()
    }

    /// This incarnation's id.
    pub fn incarnation(&self) -> SwitchId {
        self.cfg.incarnation
    }

    /// Whether replica `r` is currently read-gated (recovering, not yet
    /// proven caught up) in its group's forwarding table.
    pub fn is_gated(&self, r: ReplicaId) -> bool {
        self.groups.values().any(|c| c.fwd.is_gated(r))
    }

    /// Tear the core into independently-ownable per-group pipelines (the
    /// live driver), in group order. Each [`GroupCore`] takes its group's
    /// detector, forwarding table, sequencer, counters, and provisioned
    /// membership with it; nothing shared remains.
    pub fn into_group_cores(self) -> Vec<GroupCore> {
        self.groups.into_values().collect()
    }

    /// The group a control-plane message addresses: wherever the replica it
    /// names currently lives, falling back to where it was provisioned, then
    /// to group 0 (single-group deployments never hit the fallbacks).
    fn control_group(&self, ctl: &ControlMsg) -> GroupId {
        let Some(r) = control_subject(ctl) else {
            return GroupId(0);
        };
        self.groups
            .values()
            .find(|c| c.fwd.replicas().contains(&r))
            .or_else(|| self.groups.values().find(|c| c.provisioned.contains(&r)))
            .map_or(GroupId(0), |c| c.group)
    }

    /// Attach an observability recorder, shared (cloned) across every
    /// hosted group — the single-threaded simulator's wiring. The live
    /// driver instead attaches one recorder per group after
    /// [`into_group_cores`](Self::into_group_cores).
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        for core in self.groups.values_mut() {
            core.set_recorder(recorder.clone());
        }
    }

    /// Process one packet, pushing forwarded packets onto `out`: pick the
    /// group it addresses — the object's shard for what Algorithm 1 acts on,
    /// the named replica's group for control, any group for what is only
    /// forwarded — and run that group's arm.
    pub fn handle(
        &mut self,
        now: Instant,
        me: NodeId,
        msg: Msg,
        rng: &mut rand::rngs::SmallRng,
        out: &mut Vec<(NodeId, Msg)>,
    ) {
        let gid = match &msg.body {
            PacketBody::Request(req) => self.group_of(req.obj),
            PacketBody::Completion(c)
            | PacketBody::Reply(ClientReply {
                completion: Some(c),
                ..
            }) => self.group_of(c.obj),
            PacketBody::Control(ctl) => self.control_group(ctl),
            // Only forwarded: any group's arm does.
            PacketBody::Reply(_) | PacketBody::Protocol(_) => GroupId(0),
        };
        if let Some(core) = self.groups.get_mut(&gid) {
            core.handle_routed(now, me, msg, rng, out);
        }
    }

    /// Control-plane sweep of stale dirty entries (§5.2), across every
    /// hosted group.
    pub fn sweep(&mut self) -> usize {
        self.groups.values_mut().map(|c| c.sweep()).sum()
    }
}

/// The switch as a simulated node: [`SwitchCore`] plus timers and the
/// line-rate service model.
pub struct SwitchActor {
    core: SwitchCore,
    out: Vec<(NodeId, Msg)>,
}

impl SwitchActor {
    /// Build a switch for `cfg`.
    pub fn new(cfg: SwitchActorConfig) -> Self {
        SwitchActor {
            core: SwitchCore::new(cfg),
            out: Vec::new(),
        }
    }

    /// Build a spine switch hosting one group per membership list.
    pub fn new_sharded(cfg: SwitchActorConfig, memberships: Vec<Vec<ReplicaId>>) -> Self {
        SwitchActor {
            core: SwitchCore::new_sharded(cfg, memberships),
            out: Vec::new(),
        }
    }

    /// Build the switch actor for incarnation `incarnation` of `spec`,
    /// hosting every group of the deployment (see
    /// [`SwitchCore::for_deployment`]).
    pub fn for_deployment(spec: &crate::deployment::DeploymentSpec, incarnation: SwitchId) -> Self {
        SwitchActor {
            core: SwitchCore::for_deployment(spec, incarnation),
            out: Vec::new(),
        }
    }

    /// Attach an observability recorder (shared across hosted groups).
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.core.set_recorder(recorder);
    }

    /// The switch logic this actor shells (post-run inspection).
    pub fn core(&self) -> &SwitchCore {
        &self.core
    }
}

impl Actor<Msg> for SwitchActor {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        if let Some(iv) = self.core.cfg.sweep_interval {
            ctx.set_timer(iv);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        let mut out = std::mem::take(&mut self.out);
        let now = ctx.now();
        self.core.handle(now, ctx.node(), msg, ctx.rng(), &mut out);
        for (dst, m) in out.drain(..) {
            ctx.send(dst, m);
        }
        self.out = out;
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _token: TimerToken) {
        let swept = self.core.sweep();
        if swept > 0 {
            ctx.metrics().add("switch.swept", swept as u64);
        }
        if let Some(iv) = self.core.cfg.sweep_interval {
            ctx.set_timer(iv);
        }
    }

    fn service(&self, _msg: &Msg) -> Service {
        // Line rate: pure delay, never a queue (§6).
        Service::Immediate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_sim::{LinkConfig, NetworkModel, World, WorldConfig};
    use harmonia_types::{ClientId, RequestId, WriteCompletion};

    const SWITCH: NodeId = NodeId::Switch(SwitchId(1));

    fn cfg(mode: SwitchMode, protocol: ProtocolKind) -> SwitchActorConfig {
        SwitchActorConfig {
            incarnation: SwitchId(1),
            mode,
            protocol,
            replicas: 3,
            table: TableConfig {
                stages: 2,
                slots_per_stage: 64,
                entry_bytes: 8,
            },
            sweep_interval: None,
        }
    }

    /// Collects everything addressed to it.
    struct Sink {
        got: Vec<Msg>,
    }
    impl Actor<Msg> for Sink {
        fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
            self.got.push(msg);
        }
    }

    fn world_with_switch(mode: SwitchMode, protocol: ProtocolKind) -> World<Msg> {
        let mut w = World::new(WorldConfig {
            seed: 1,
            network: NetworkModel::uniform(LinkConfig::ideal(
                harmonia_types::Duration::from_micros(1),
            )),
        });
        w.add_node(SWITCH, Box::new(SwitchActor::new(cfg(mode, protocol))));
        for r in 0..3 {
            w.add_node(
                NodeId::Replica(harmonia_types::ReplicaId(r)),
                Box::new(Sink { got: vec![] }),
            );
        }
        w.add_node(NodeId::Client(ClientId(1)), Box::new(Sink { got: vec![] }));
        w
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

    fn replica_msgs(w: &World<Msg>, r: u32) -> &Vec<Msg> {
        &w.actor::<Sink>(NodeId::Replica(harmonia_types::ReplicaId(r)))
            .unwrap()
            .got
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
        let sw = w.actor::<SwitchActor>(SWITCH).unwrap().core();
        assert_eq!(sw.detector().dirty_len(), 1);
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
        w.inject(
            NodeId::Replica(harmonia_types::ReplicaId(2)),
            SWITCH,
            Msg::new(
                NodeId::Replica(harmonia_types::ReplicaId(2)),
                SWITCH,
                PacketBody::Completion(WriteCompletion {
                    obj: harmonia_types::ObjectId::from_key(b"k"),
                    seq: SwitchSeq::new(SwitchId(1), 1),
                }),
            ),
        );
        w.run_until_idle(100);
        // Fast path now on: an uncontended read is stamped and randomized.
        send_req(
            &mut w,
            ClientRequest::read(ClientId(1), RequestId(3), &b"a"[..]),
        );
        let sw = w.actor::<SwitchActor>(SWITCH).unwrap().core();
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
        w.inject(
            NodeId::Replica(harmonia_types::ReplicaId(2)),
            SWITCH,
            Msg::new(
                NodeId::Replica(harmonia_types::ReplicaId(2)),
                SWITCH,
                PacketBody::Completion(WriteCompletion {
                    obj: harmonia_types::ObjectId::from_key(b"k"),
                    seq: SwitchSeq::new(SwitchId(1), 1),
                }),
            ),
        );
        w.run_until_idle(100);
        // A pending write to "hot" makes reads of it contended.
        send_req(
            &mut w,
            ClientRequest::write(ClientId(1), RequestId(2), &b"hot"[..], &b"v"[..]),
        );
        send_req(
            &mut w,
            ClientRequest::read(ClientId(1), RequestId(3), &b"hot"[..]),
        );
        let sw = w.actor::<SwitchActor>(SWITCH).unwrap().core();
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
        let sw = w.actor::<SwitchActor>(SWITCH).unwrap().core();
        assert_eq!(sw.detector().dirty_len(), 0, "baseline tracks nothing");
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
        let sw = w.actor::<SwitchActor>(SWITCH).unwrap().core();
        assert_eq!(sw.detector().dirty_len(), 1);
        // Tail's reply with the piggybacked completion passes the switch.
        let reply = harmonia_types::ClientReply {
            client: ClientId(1),
            from: harmonia_types::ReplicaId(2),
            request: RequestId(1),
            obj: harmonia_types::ObjectId::from_key(b"k"),
            value: None,
            write_outcome: Some(harmonia_types::WriteOutcome::Committed),
            completion: Some(WriteCompletion {
                obj: harmonia_types::ObjectId::from_key(b"k"),
                seq: SwitchSeq::new(SwitchId(1), 1),
            }),
        };
        w.inject(
            NodeId::Replica(harmonia_types::ReplicaId(2)),
            SWITCH,
            Msg::new(
                NodeId::Replica(harmonia_types::ReplicaId(2)),
                SWITCH,
                PacketBody::Reply(reply),
            ),
        );
        w.run_until_idle(100);
        let sw = w.actor::<SwitchActor>(SWITCH).unwrap().core();
        assert_eq!(sw.detector().dirty_len(), 0, "completion cleared the entry");
        assert!(sw.detector().fast_path_enabled());
        // And the client received the forwarded reply.
        let client_msgs = &w.actor::<Sink>(NodeId::Client(ClientId(1))).unwrap().got;
        assert_eq!(client_msgs.len(), 1);
    }

    #[test]
    fn control_messages_update_forwarding() {
        let mut w = world_with_switch(SwitchMode::Harmonia, ProtocolKind::Chain);
        w.inject(
            NodeId::Controller,
            SWITCH,
            Msg::new(
                NodeId::Controller,
                SWITCH,
                PacketBody::Control(ControlMsg::RemoveReplica(harmonia_types::ReplicaId(2))),
            ),
        );
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
