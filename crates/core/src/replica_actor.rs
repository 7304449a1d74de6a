//! A replication state machine as a simulated storage server.
//!
//! Wraps any `harmonia-replication` [`Replica`] behind the calibrated
//! service-cost model: each inbound message occupies the server for its
//! [`CostModel`] duration, so saturation and queueing delay arise exactly as
//! on the paper's testbed, where the tail/leader CPU is the bottleneck. What
//! the server does with a message is `ReplicaNode`'s business — the same
//! step the threaded drivers run.

use harmonia_obs::Recorder;
use harmonia_replication::Replica;
use harmonia_sim::{Actor, Context, Service, TimerToken};
use harmonia_types::{NodeId, ReplicaId};

use crate::msg::{CostModel, Msg};
use crate::replica_step::ReplicaNode;

/// One storage server.
pub struct ReplicaActor {
    node: ReplicaNode,
    costs: CostModel,
    out: Vec<(NodeId, Msg)>,
}

impl ReplicaActor {
    /// Wrap a protocol state machine with the given cost model.
    pub fn new(inner: Box<dyn Replica>, costs: CostModel) -> Self {
        Self::build(inner, costs, None)
    }

    fn build(inner: Box<dyn Replica>, costs: CostModel, recover_from: Option<ReplicaId>) -> Self {
        ReplicaActor {
            node: ReplicaNode::new(inner, recover_from, Recorder::detached()),
            costs,
            out: Vec::new(),
        }
    }

    /// Attach an observability recorder (builder style).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.node.set_recorder(recorder);
        self
    }

    /// Wrap a *fresh* state machine that must catch up from `peer` before
    /// it may serve: on start it begins snapshot + log state transfer, and
    /// client requests are dropped (clients retry) until the transfer
    /// completes and the switch is asked to lift the read gate.
    pub fn recovering(inner: Box<dyn Replica>, costs: CostModel, peer: ReplicaId) -> Self {
        Self::build(inner, costs, Some(peer))
    }

    /// Inspect the wrapped state machine.
    pub fn replica(&self) -> &dyn Replica {
        self.node.replica()
    }

    /// Whether a state transfer into this replica is still in flight.
    pub fn is_recovering(&self) -> bool {
        self.node.is_recovering()
    }

    fn me(ctx: &Context<'_, Msg>) -> ReplicaId {
        match ctx.node() {
            NodeId::Replica(r) => r,
            other => unreachable!("replica actor hosted at {other:?}"),
        }
    }

    fn flush(&mut self, ctx: &mut Context<'_, Msg>) {
        for (dst, msg) in self.out.drain(..) {
            ctx.send(dst, msg);
        }
    }
}

impl Actor<Msg> for ReplicaActor {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        if let Some(iv) = self.node.tick_interval() {
            ctx.set_timer(iv);
        }
        self.node.start(Self::me(ctx), &mut self.out);
        self.flush(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        self.node
            .on_packet(ctx.now(), Self::me(ctx), msg, &mut self.out);
        self.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _token: TimerToken) {
        self.node.on_tick(Self::me(ctx), &mut self.out);
        self.flush(ctx);
        if let Some(iv) = self.node.tick_interval() {
            ctx.set_timer(iv);
        }
    }

    fn service(&self, msg: &Msg) -> Service {
        Service::Queued(self.costs.cost_of(&msg.body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_replication::{build_replica, GroupConfig, ProtocolKind};
    use harmonia_sim::{LinkConfig, NetworkModel, World, WorldConfig};
    use harmonia_types::{
        ClientId, ClientRequest, Duration, PacketBody, ReplicaId, RequestId, SwitchId,
    };

    /// Three chain replicas + a sink switch; verifies the actor plumbing
    /// end-to-end through the simulator.
    #[test]
    fn chain_write_flows_through_actors() {
        struct Sink {
            got: Vec<Msg>,
        }
        impl Actor<Msg> for Sink {
            fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
                self.got.push(msg);
            }
        }

        let mut w: World<Msg> = World::new(WorldConfig {
            seed: 3,
            network: NetworkModel::uniform(LinkConfig::ideal(Duration::from_micros(2))),
        });
        for i in 0..3u32 {
            let sm = build_replica(GroupConfig::new(ProtocolKind::Chain, 3, i, true));
            w.add_node(
                NodeId::Replica(ReplicaId(i)),
                Box::new(ReplicaActor::new(sm, CostModel::paper_calibrated())),
            );
        }
        w.add_node(NodeId::Switch(SwitchId(1)), Box::new(Sink { got: vec![] }));

        let mut req = ClientRequest::write(ClientId(1), RequestId(1), &b"k"[..], &b"v"[..]);
        req.seq = Some(harmonia_types::SwitchSeq::new(SwitchId(1), 1));
        let head = NodeId::Replica(ReplicaId(0));
        w.inject(
            NodeId::Switch(SwitchId(1)),
            head,
            Msg::new(NodeId::Switch(SwitchId(1)), head, PacketBody::Request(req)),
        );
        w.run_until_idle(1000);

        // The tail's committed reply (with piggybacked completion) reached
        // the switch sink.
        let sink: &Sink = w.actor(NodeId::Switch(SwitchId(1))).unwrap();
        assert_eq!(sink.got.len(), 1);
        let PacketBody::Reply(r) = &sink.got[0].body else {
            panic!("expected reply, got {:?}", sink.got[0])
        };
        assert!(r.completion.is_some());
        // All replicas hold the value.
        for i in 0..3u32 {
            let actor: &ReplicaActor = w.actor(NodeId::Replica(ReplicaId(i))).unwrap();
            assert_eq!(
                actor.replica().local_value(b"k"),
                Some(bytes::Bytes::from_static(b"v"))
            );
        }
    }

    #[test]
    fn service_costs_queue_requests() {
        let sm = build_replica(GroupConfig::new(ProtocolKind::Chain, 1, 0, false));
        let actor = ReplicaActor::new(sm, CostModel::paper_calibrated());
        let read = Msg::new(
            NodeId::Client(ClientId(1)),
            NodeId::Replica(ReplicaId(0)),
            PacketBody::Request(ClientRequest::read(ClientId(1), RequestId(1), &b"k"[..])),
        );
        assert_eq!(
            actor.service(&read),
            Service::Queued(Duration::from_nanos(1_087))
        );
    }

    #[test]
    fn vr_tick_timer_rearms() {
        let mut w: World<Msg> = World::new(WorldConfig::default());
        for i in 0..3u32 {
            let sm = build_replica(GroupConfig::new(ProtocolKind::Vr, 3, i, true));
            w.add_node(
                NodeId::Replica(ReplicaId(i)),
                Box::new(ReplicaActor::new(sm, CostModel::paper_calibrated())),
            );
        }
        // Run 5 ms: the leader's 200 µs tick must keep firing without
        // external stimulus (ticks re-arm themselves).
        w.run_until(harmonia_types::Instant::ZERO + Duration::from_millis(5));
        // No panic + world stays live is the assertion; backlog stays 0
        // because commit_num == 0 means no broadcast.
        assert_eq!(w.backlog(NodeId::Replica(ReplicaId(0))), 0);
    }
}
