//! One node runtime for every driver: what a host does with the packets,
//! deadlines and verbs it is handed.
//!
//! A [`Worker`] hosts nodes — the switch pipelines of one incarnation (a
//! [`SwitchCore`]) and storage servers (the replica step) — behind one step:
//! take a batch of packets, hand each to the node it addresses, run the
//! sweep and the ticks that are due, and say when it next has something to
//! do unprompted. It reads no clock and owns no randomness: `now` and `rng`
//! are arguments. Two shells feed it, and nothing else runs a node:
//!
//! * the threaded drivers' worker loop ([`crate::live`]): receive a batch,
//!   step at the registry clock's `now` with the thread's own seeded rng,
//!   take the driver's verb (adopt, evict, inspect), flush what the step
//!   produced;
//! * [`SimWorker`], a node of `harmonia-sim`: a delivered packet or a fired
//!   timer is one step at the world's `now` with the world's rng, and what
//!   the step sends leaves through the world's network model.
//!
//! Decisions taken here once, for every driver:
//!
//! * **One route rule.** A packet addressed to the switch reaches a
//!   pipeline through [`SwitchCore::handle`] only; a packet for a replica
//!   reaches it by name; anything else finds nobody and vanishes, as toward
//!   a dead NIC. The simulator keeps the rack's ToR hop (see
//!   [`crate::switch_core`]).
//! * **One sweep rule.** Stale dirty entries (§5.2) are swept once the
//!   pipelines have handled nothing for the deployment's sweep interval,
//!   and only while a sweep could reclaim something; without an interval,
//!   never. A busy switch keeps pushing the sweep ahead of itself, and its
//!   reads scrub stale entries as they probe.
//! * **Layout.** The simulator runs a worker per node: the switch node
//!   hosts every group's pipeline at line rate, and each replica is a worker
//!   of its own behind its [`CostModel`] service queue. A threaded driver
//!   runs a worker per core and deals the nodes over them.
//! * **Timers in the simulator.** A [`SimWorker`] keeps at most one armed
//!   timer. It arms one only when the step's next deadline is earlier than
//!   the armed one, and a fire that finds nothing due re-arms for the
//!   earliest deadline there is — so a busy switch costs no timer work per
//!   packet.

use harmonia_replication::Replica;
use harmonia_sim::{Actor, Context, Service, TimerToken};
use harmonia_switch::{GroupId, GroupObservation};
use harmonia_types::{Instant, NodeId, ReplicaId};
use rand::rngs::SmallRng;

use crate::msg::{CostModel, Msg};
use crate::replica_step::ReplicaNode;
use crate::switch_core::{GroupCore, SwitchCore};

/// A node as a worker hosts it.
pub struct Hosted(Node);

enum Node {
    /// The pipelines of one switch incarnation.
    Pipelines(SwitchCore),
    /// One storage server.
    Replica(ReplicaId, ReplicaNode),
}

impl Hosted {
    /// Switch pipelines: every group's, or the share dealt to one host.
    pub(crate) fn pipelines(core: SwitchCore) -> Hosted {
        Hosted(Node::Pipelines(core))
    }

    /// Storage server `me`.
    pub(crate) fn replica(me: ReplicaId, node: ReplicaNode) -> Hosted {
        Hosted(Node::Replica(me, node))
    }

    /// The unicast name a host answers to for this node. Pipelines have
    /// none: the switch's addresses reach them.
    pub(crate) fn name(&self) -> Option<NodeId> {
        match self.0 {
            Node::Pipelines(_) => None,
            Node::Replica(me, _) => Some(NodeId::Replica(me)),
        }
    }
}

/// A storage server on a worker, and when its protocol next ticks.
struct Server {
    me: ReplicaId,
    node: ReplicaNode,
    tick_at: Option<Instant>,
}

/// The node runtime: the nodes one host runs, and the step that drives
/// them.
#[derive(Default)]
pub struct Worker {
    /// The pipelines hosted here; `None` while there are none (the switch is
    /// down, or no group is dealt here).
    switch: Option<SwitchCore>,
    /// When the pipelines sweep, if no packet reaches them first.
    sweep_at: Option<Instant>,
    servers: Vec<Server>,
}

impl Worker {
    /// Host `nodes` from `now` on: a recovering replica asks its peer for a
    /// snapshot, a ticking one arms its tick. Pipelines replace whatever
    /// pipelines were hosted before.
    pub fn adopt(&mut self, now: Instant, nodes: Vec<Hosted>, out: &mut Vec<(NodeId, Msg)>) {
        for Hosted(node) in nodes {
            match node {
                Node::Pipelines(core) => {
                    self.switch = Some(core);
                    self.sweep_at = None;
                }
                Node::Replica(me, mut node) => {
                    node.start(me, out);
                    let tick_at = node.tick_interval().map(|tick| now + tick);
                    self.servers.push(Server { me, node, tick_at });
                }
            }
        }
    }

    /// Stop hosting whatever answers to `name`: a replica by its own, the
    /// pipelines by any address of the switch. What is still queued for it
    /// finds nobody.
    pub fn evict(&mut self, name: NodeId) {
        match name {
            NodeId::Switch(_) => {
                self.switch = None;
                self.sweep_at = None;
            }
            name => self.servers.retain(|s| NodeId::Replica(s.me) != name),
        }
    }

    /// Snapshot the pipeline of `group`, if it is hosted here.
    pub fn observe(&self, group: GroupId) -> Option<GroupObservation> {
        self.switch.as_ref()?.group(group).map(GroupCore::observe)
    }

    /// The step: hand every packet of `inbox` to the node it addresses, run
    /// the sweep and the ticks due at `now`, push what all of it sends onto
    /// `out`, and return when the worker next has something to do
    /// unprompted (`None`: only a packet or a verb can wake it).
    pub fn step(
        &mut self,
        now: Instant,
        rng: &mut SmallRng,
        inbox: impl IntoIterator<Item = Msg>,
        out: &mut Vec<(NodeId, Msg)>,
    ) -> Option<Instant> {
        for msg in inbox {
            self.deliver(now, rng, msg, out);
        }
        self.run_due(now, out)
    }

    /// Hand `msg` to the node it addresses, if it is hosted here.
    #[inline]
    fn deliver(
        &mut self,
        now: Instant,
        rng: &mut SmallRng,
        msg: Msg,
        out: &mut Vec<(NodeId, Msg)>,
    ) {
        match msg.dst {
            NodeId::Switch(_) => {
                if let Some(switch) = &mut self.switch {
                    switch.handle(now, msg.dst, msg, rng, out);
                    self.sweep_at = switch.sweep_after(now);
                }
            }
            NodeId::Replica(r) => {
                if let Some(server) = self.servers.iter_mut().find(|s| s.me == r) {
                    server.node.on_packet(now, r, msg, out);
                }
            }
            NodeId::Client(_) | NodeId::Controller => {}
        }
    }

    /// Run the sweep and the ticks due at `now`; the next deadline. Most
    /// steps find nothing due and return at the first comparison.
    #[inline]
    fn run_due(&mut self, now: Instant, out: &mut Vec<(NodeId, Msg)>) -> Option<Instant> {
        let deadline = self.deadline();
        if deadline.is_none_or(|at| at > now) {
            return deadline;
        }
        if let Some(switch) = &mut self.switch {
            if self.sweep_at.is_some_and(|at| at <= now) {
                switch.sweep();
                self.sweep_at = switch.sweep_after(now);
            }
        }
        for server in &mut self.servers {
            if server.tick_at.is_some_and(|at| at <= now) {
                server.node.on_tick(server.me, out);
                server.tick_at = server.node.tick_interval().map(|tick| now + tick);
            }
        }
        self.deadline()
    }

    /// The earliest sweep or tick, if there is one.
    pub fn deadline(&self) -> Option<Instant> {
        let ticks = self.servers.iter().filter_map(|s| s.tick_at);
        ticks.chain(self.sweep_at).min()
    }
}

/// A [`Worker`] as a node of `harmonia-sim`.
pub struct SimWorker {
    worker: Worker,
    /// Adopted when the world starts the node.
    starting: Vec<Hosted>,
    /// A storage server's service costs; `None`: line rate, as the switch's
    /// packets are served (§6).
    costs: Option<CostModel>,
    /// The one armed timer: when it fires, and its token.
    timer: Option<(Instant, TimerToken)>,
    out: Vec<(NodeId, Msg)>,
}

impl SimWorker {
    /// A host for `nodes`, its packets served behind `costs`.
    pub(crate) fn new(nodes: Vec<Hosted>, costs: Option<CostModel>) -> SimWorker {
        SimWorker {
            worker: Worker::default(),
            starting: nodes,
            costs,
            timer: None,
            out: Vec::new(),
        }
    }

    /// The pipelines this host runs, if it runs any.
    pub fn switch(&self) -> Option<&SwitchCore> {
        self.worker.switch.as_ref()
    }

    /// The storage server this host runs, if it runs one.
    pub fn replica(&self) -> Option<&dyn Replica> {
        self.worker.servers.first().map(|s| s.node.replica())
    }

    /// Whether a state transfer into a hosted replica is still in flight.
    pub fn is_recovering(&self) -> bool {
        self.worker.servers.iter().any(|s| s.node.is_recovering())
    }

    /// Send what the step produced, and arm the timer for `deadline` unless
    /// one at or before it is armed already.
    fn flush(&mut self, ctx: &mut Context<'_, Msg>, deadline: Option<Instant>) {
        for (dst, msg) in self.out.drain(..) {
            ctx.send(dst, msg);
        }
        let Some(at) = deadline else { return };
        if self.timer.is_some_and(|(armed, _)| armed <= at) {
            return;
        }
        if let Some((_, later)) = self.timer.take() {
            ctx.cancel_timer(later);
        }
        let token = ctx.set_timer(at.since(ctx.now()));
        self.timer = Some((at, token));
    }
}

impl Actor<Msg> for SimWorker {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        // A restarted node's timer died with it.
        self.timer = None;
        let nodes = std::mem::take(&mut self.starting);
        self.worker.adopt(ctx.now(), nodes, &mut self.out);
        let deadline = self.worker.deadline();
        self.flush(ctx, deadline);
    }

    /// A delivered packet is a step with a one-packet inbox, taken without
    /// wrapping the packet in one: every simulated event runs here.
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        let now = ctx.now();
        self.worker.deliver(now, ctx.rng(), msg, &mut self.out);
        let deadline = self.worker.run_due(now, &mut self.out);
        self.flush(ctx, deadline);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, token: TimerToken) {
        if self.timer.is_some_and(|(_, armed)| armed == token) {
            self.timer = None;
        }
        let deadline = self.worker.step(ctx.now(), ctx.rng(), None, &mut self.out);
        self.flush(ctx, deadline);
    }

    fn service(&self, msg: &Msg) -> Service {
        self.costs.map_or(Service::Immediate, |costs| {
            Service::Queued(costs.cost_of(&msg.body))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::DeploymentSpec;
    use harmonia_obs::Recorder;
    use harmonia_replication::{build_replica, GroupConfig, ProtocolKind, ProtocolMsg};
    use harmonia_sim::{LinkConfig, NetworkModel, World, WorldConfig};
    use harmonia_types::{
        ClientId, ClientReply, ClientRequest, ControlMsg, Duration, ObjectId, PacketBody,
        RequestId, SwitchId, SwitchSeq, WriteCompletion,
    };
    use rand::SeedableRng;

    const SWITCH: NodeId = NodeId::Switch(SwitchId(1));
    const CLIENT: NodeId = NodeId::Client(ClientId(1));

    fn at(us: u64) -> Instant {
        Instant::ZERO + Duration::from_micros(us)
    }

    /// A key whose object the shard map puts in `group` of `spec`.
    fn key_in(spec: &DeploymentSpec, group: u32) -> Vec<u8> {
        (0..)
            .map(|n| format!("key-{n}").into_bytes())
            .find(|k| spec.shard_map().shard_of_key(k) == group)
            .unwrap()
    }

    /// A worker hosting both groups' pipelines of a two-group deployment,
    /// stepped by hand.
    struct Bench {
        worker: Worker,
        rng: SmallRng,
        out: Vec<(NodeId, Msg)>,
        registry: harmonia_obs::Registry,
    }

    impl Bench {
        fn new(spec: &DeploymentSpec) -> Bench {
            let registry = harmonia_obs::Registry::new();
            let mut core = SwitchCore::for_deployment(spec, SwitchId(1));
            core.set_recorder(&registry.handle());
            let mut worker = Worker::default();
            let mut out = Vec::new();
            worker.adopt(Instant::ZERO, vec![Hosted::pipelines(core)], &mut out);
            Bench {
                worker,
                rng: SmallRng::seed_from_u64(1),
                out,
                registry,
            }
        }

        /// One step with `body` from `src` to the switch; what it sent.
        fn step(
            &mut self,
            now: Instant,
            src: NodeId,
            body: PacketBody<ProtocolMsg>,
        ) -> Vec<(NodeId, Msg)> {
            let msg = Msg::new(src, SWITCH, body);
            self.worker
                .step(now, &mut self.rng, Some(msg), &mut self.out);
            std::mem::take(&mut self.out)
        }

        fn handled(&self) -> u64 {
            (self.registry.snapshot()).counter(harmonia_obs::Counter::SwitchPackets)
        }

        fn stats(&self, group: u32) -> harmonia_switch::SwitchStats {
            self.worker.observe(GroupId(group)).unwrap().stats
        }
    }

    /// The step over every arm of the one route rule, on a host with two
    /// groups' pipelines: `Group` reaches the shard's pipeline only;
    /// `AnyGroup` one pipeline; `EveryGroup` each pipeline whose group the
    /// control names, and none for a replica no group knows; `Client` goes
    /// to the client as it arrived, through no pipeline.
    #[test]
    fn the_step_routes_every_switch_route_arm() {
        let spec = DeploymentSpec::new().groups(2);
        let mut bench = Bench::new(&spec);

        // Group: a write to a group-1 key is stamped by group 1 alone.
        let write = ClientRequest::write(ClientId(1), RequestId(1), key_in(&spec, 1), &b"v"[..]);
        let sent = bench.step(at(1), CLIENT, PacketBody::Request(write));
        assert_eq!(sent.len(), 1);
        assert_eq!(
            sent[0].0,
            NodeId::Replica(spec.replica_id(1, 0)),
            "group 1's head"
        );
        assert_eq!(
            (
                bench.stats(0).writes_forwarded,
                bench.stats(1).writes_forwarded
            ),
            (0, 1)
        );
        assert_eq!(bench.handled(), 1);

        // AnyGroup: protocol traffic through the switch is forwarded once.
        let r0 = NodeId::Replica(ReplicaId(0));
        let proto = PacketBody::Protocol(ProtocolMsg::Control(
            harmonia_replication::messages::ReplicaControlMsg::SetActiveSwitch(SwitchId(1)),
        ));
        assert_eq!(bench.step(at(2), r0, proto).len(), 1);
        let other = bench.stats(0).forwarded_other + bench.stats(1).forwarded_other;
        assert_eq!(other, 1);
        assert_eq!(bench.handled(), 2);

        // EveryGroup, owned: removing group 1's tail moves group 1's reads
        // only; the pipeline of group 0 never sees the control.
        let tail = spec.replica_id(1, 2);
        let remove = PacketBody::Control(ControlMsg::RemoveReplica(tail));
        assert!(bench.step(at(3), NodeId::Controller, remove).is_empty());
        assert_eq!(bench.handled(), 3, "one pipeline owns replica {tail:?}");
        let replicas = |bench: &Bench, g| {
            let switch = bench.worker.switch.as_ref().unwrap();
            switch.group(GroupId(g)).unwrap().replicas().to_vec()
        };
        assert_eq!(replicas(&bench, 0), spec.group_members(0));
        assert_eq!(replicas(&bench, 1), spec.group_members(1)[..2]);

        // EveryGroup, not owned: control about a replica no group knows is
        // dropped by every pipeline.
        let stranger = PacketBody::Control(ControlMsg::GateReplica(ReplicaId(99)));
        assert!(bench.step(at(4), NodeId::Controller, stranger).is_empty());
        assert_eq!(bench.handled(), 3);
        assert!(!bench
            .worker
            .switch
            .as_ref()
            .unwrap()
            .is_gated(ReplicaId(99)));

        // Client: a reply with no completion goes to its client as it
        // arrived, outside every pipeline.
        let reply = ClientReply {
            client: ClientId(7),
            from: ReplicaId(0),
            request: RequestId(1),
            obj: ObjectId::from_key(b"k"),
            value: None,
            write_outcome: None,
            completion: None,
        };
        let sent = bench.step(at(5), r0, PacketBody::Reply(reply.clone()));
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, NodeId::Client(ClientId(7)));
        assert_eq!(sent[0].1, Msg::new(r0, SWITCH, PacketBody::Reply(reply)));
        assert_eq!(bench.handled(), 3, "forwarding is not pipeline work");
    }

    /// A switch kept busy past its sweep interval re-arms its one timer once
    /// per interval, not once per packet, and sweeps only once it goes idle.
    #[test]
    fn a_busy_simulated_switch_keeps_one_timer() {
        let spec = DeploymentSpec::new().sweep_interval(Some(Duration::from_micros(500)));
        let mut w: World<Msg> = World::new(WorldConfig::default());
        w.add_node(
            SWITCH,
            Box::new(spec.sim_switch(SwitchId(1), &Recorder::detached())),
        );
        let inject = |w: &mut World<Msg>, body| {
            w.inject(CLIENT, SWITCH, Msg::new(CLIENT, SWITCH, body));
            w.run_until(w.now());
        };
        for (n, key) in [(1, "a"), (2, "b")] {
            let write = ClientRequest::write(ClientId(1), RequestId(n), key, "v");
            inject(&mut w, PacketBody::Request(write));
        }
        let done = WriteCompletion {
            obj: ObjectId::from_key(b"b"),
            seq: SwitchSeq::new(SwitchId(1), 2),
        };
        inject(&mut w, PacketBody::Completion(done));
        fn host(w: &World<Msg>) -> &SimWorker {
            w.actor(SWITCH).unwrap()
        }
        let mut tokens = Vec::new();
        // A read every 20 µs for 3 ms: 150 packets, each pushing the sweep.
        for n in 0..150 {
            w.run_until(w.now() + Duration::from_micros(20));
            let read = ClientRequest::read(ClientId(1), RequestId(10 + n), "c");
            inject(&mut w, PacketBody::Request(read));
            let (_, token) = host(&w).timer.unwrap();
            if tokens.last() != Some(&token) {
                tokens.push(token);
            }
        }
        assert!(tokens.len() <= 7, "{} timers for 150 packets", tokens.len());
        let dirty = |w: &World<Msg>| host(w).switch().unwrap().view().dirty_len();
        assert_eq!(dirty(&w), 1, "a busy switch does not sweep");
        w.run_until(w.now() + Duration::from_millis(1));
        assert_eq!(dirty(&w), 0, "an idle one does");
        assert_eq!(host(&w).timer, None, "and then arms nothing");
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

    fn server(config: GroupConfig) -> SimWorker {
        let me = config.me;
        let node = ReplicaNode::new(build_replica(config), None, Recorder::detached());
        SimWorker::new(
            vec![Hosted::replica(me, node)],
            Some(CostModel::paper_calibrated()),
        )
    }

    /// Three chain replicas as simulated hosts and a sink switch: a stamped
    /// write reaches every replica and its reply, completion piggybacked,
    /// the switch.
    #[test]
    fn chain_write_flows_through_simulated_hosts() {
        let mut w: World<Msg> = World::new(WorldConfig {
            seed: 3,
            network: NetworkModel::uniform(LinkConfig::ideal(Duration::from_micros(2))),
        });
        for i in 0..3u32 {
            let config = GroupConfig::new(ProtocolKind::Chain, 3, i, true);
            w.add_node(NodeId::Replica(ReplicaId(i)), Box::new(server(config)));
        }
        w.add_node(SWITCH, Box::new(Sink { got: vec![] }));

        let mut req = ClientRequest::write(ClientId(1), RequestId(1), &b"k"[..], &b"v"[..]);
        req.seq = Some(SwitchSeq::new(SwitchId(1), 1));
        let head = NodeId::Replica(ReplicaId(0));
        w.inject(
            SWITCH,
            head,
            Msg::new(SWITCH, head, PacketBody::Request(req)),
        );
        w.run_until_idle(1000);

        let sink: &Sink = w.actor(SWITCH).unwrap();
        assert_eq!(sink.got.len(), 1);
        let PacketBody::Reply(r) = &sink.got[0].body else {
            panic!("expected reply, got {:?}", sink.got[0])
        };
        assert!(r.completion.is_some());
        for i in 0..3u32 {
            let host: &SimWorker = w.actor(NodeId::Replica(ReplicaId(i))).unwrap();
            let value = host.replica().unwrap().local_value(b"k");
            assert_eq!(value, Some(bytes::Bytes::from_static(b"v")));
        }
    }

    #[test]
    fn a_replica_host_queues_behind_its_costs_and_the_switch_does_not() {
        let read = Msg::new(
            CLIENT,
            NodeId::Replica(ReplicaId(0)),
            PacketBody::Request(ClientRequest::read(ClientId(1), RequestId(1), &b"k"[..])),
        );
        let host = server(GroupConfig::new(ProtocolKind::Chain, 1, 0, false));
        assert_eq!(
            host.service(&read),
            Service::Queued(Duration::from_nanos(1_087))
        );
        let switch = DeploymentSpec::new().sim_switch(SwitchId(1), &Recorder::detached());
        assert_eq!(switch.service(&read), Service::Immediate);
    }

    /// VR replicas tick without outside stimulus: each host's one timer
    /// re-arms itself every tick.
    #[test]
    fn vr_ticks_rearm_the_one_timer() {
        let mut w: World<Msg> = World::new(WorldConfig::default());
        for i in 0..3u32 {
            let config = GroupConfig::new(ProtocolKind::Vr, 3, i, true);
            w.add_node(NodeId::Replica(ReplicaId(i)), Box::new(server(config)));
        }
        w.run_until(Instant::ZERO + Duration::from_millis(5));
        let host: &SimWorker = w.actor(NodeId::Replica(ReplicaId(0))).unwrap();
        let (armed, _) = host.timer.unwrap();
        assert!(armed > w.now(), "the next tick is armed");
        assert_eq!(w.backlog(NodeId::Replica(ReplicaId(0))), 0);
    }
}
