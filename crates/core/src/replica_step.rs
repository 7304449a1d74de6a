//! One replica's per-packet step, shared by every driver.
//!
//! [`ReplicaNode`] is what a storage server *does* with a packet or a tick,
//! with no opinion on how packets or time reach it: state-transfer
//! brokering around the protocol state machine, shedding requests while a
//! catch-up is in flight, request / protocol dispatch, and the periodic
//! tick. Every driver hosts it in the one node runtime,
//! [`Worker`](crate::worker::Worker), which feeds it packets and ticks and
//! hands back what it sends.

use harmonia_obs::{Counter, Recorder, TraceStage};
use harmonia_replication::{Effects, ProtocolMsg, Replica, StateTransfer};
use harmonia_types::{Duration, Instant, NodeId, PacketBody, ReplicaId, TraceId};

use crate::msg::Msg;

/// A protocol state machine plus the driver-side state every replica needs
/// around it.
pub(crate) struct ReplicaNode {
    replica: Box<dyn Replica>,
    /// The state-transfer broker: serves peers' snapshot requests, and runs
    /// this replica's own catch-up after a restart. Built on first use.
    transfer: Option<StateTransfer>,
    /// Set for a restarted replica: [`start`](Self::start) requests a
    /// snapshot from this peer before anything is served.
    recover_from: Option<ReplicaId>,
    recorder: Recorder,
    /// Reused across steps so a packet that emits nothing allocates nothing.
    fx: Effects,
}

impl ReplicaNode {
    /// Wrap `replica`. With `recover_from` set it is a *fresh* replica that
    /// must catch up from that peer (snapshot + log state transfer) before
    /// it may serve: client requests are shed — clients retry, and the
    /// switch read-gates it anyway — until the transfer completes and the
    /// engine asks the switch to lift the gate.
    pub(crate) fn new(
        replica: Box<dyn Replica>,
        recover_from: Option<ReplicaId>,
        recorder: Recorder,
    ) -> Self {
        ReplicaNode {
            replica,
            transfer: None,
            recover_from,
            recorder,
            fx: Effects::new(),
        }
    }

    /// Inspect the wrapped state machine.
    pub(crate) fn replica(&self) -> &dyn Replica {
        self.replica.as_ref()
    }

    /// Whether a state transfer into this replica is still in flight.
    pub(crate) fn is_recovering(&self) -> bool {
        self.recover_from.is_some() || self.transfer.as_ref().is_some_and(|t| t.is_recovering())
    }

    /// How often [`on_tick`](Self::on_tick) should run, if at all.
    pub(crate) fn tick_interval(&self) -> Option<Duration> {
        self.replica.tick_interval()
    }

    /// First step of the node's life: a recovering replica asks its peer
    /// for a snapshot.
    pub(crate) fn start(&mut self, me: ReplicaId, out: &mut Vec<(NodeId, Msg)>) {
        if let Some(peer) = self.recover_from.take() {
            let transfer = self.transfer.get_or_insert_with(|| StateTransfer::new(me));
            transfer.begin(peer, &mut self.fx);
            self.flush(me, out);
        }
    }

    /// Handle one inbound packet at `now`, appending what it sends to `out`.
    pub(crate) fn on_packet(
        &mut self,
        now: Instant,
        me: ReplicaId,
        msg: Msg,
        out: &mut Vec<(NodeId, Msg)>,
    ) {
        let node = NodeId::Replica(me);
        match msg.body {
            // State-transfer traffic is brokered outside the protocol state
            // machine: the engine both answers peers' snapshot requests and
            // installs this replica's own catch-up.
            PacketBody::Protocol(ProtocolMsg::StateTransfer(m)) => {
                self.recorder.incr(Counter::ReplicaTransfer);
                let transfer = self.transfer.get_or_insert_with(|| StateTransfer::new(me));
                transfer.on_msg(self.replica.as_mut(), m, &mut self.fx);
            }
            // Not caught up yet: shed the request, the client retries
            // against a replica that can actually serve it.
            PacketBody::Request(req) if self.is_recovering() => {
                self.recorder.incr(Counter::ReplicaShed);
                self.recorder.trace_at(
                    now,
                    node,
                    TraceId::new(req.client, req.request),
                    req.obj,
                    TraceStage::ReplicaShed,
                );
            }
            PacketBody::Request(req) => {
                self.recorder.incr(Counter::ReplicaRequests);
                let (trace_id, obj) = (TraceId::new(req.client, req.request), req.obj);
                self.replica.on_request(msg.src, req, &mut self.fx);
                self.recorder
                    .trace_at(now, node, trace_id, obj, TraceStage::ReplicaExecute);
            }
            PacketBody::Protocol(p) => {
                self.recorder.incr(Counter::ReplicaProtocol);
                self.replica.on_protocol(msg.src, p, &mut self.fx);
            }
            // Replies, completions and switch-control packets are not
            // addressed to replicas; tolerate strays.
            _ => self.recorder.incr(Counter::ReplicaStray),
        }
        self.flush(me, out);
    }

    /// Periodic tick (commit broadcasts, synchronization).
    pub(crate) fn on_tick(&mut self, me: ReplicaId, out: &mut Vec<(NodeId, Msg)>) {
        self.replica.on_tick(&mut self.fx);
        self.flush(me, out);
    }

    fn flush(&mut self, me: ReplicaId, out: &mut Vec<(NodeId, Msg)>) {
        let src = NodeId::Replica(me);
        out.extend(
            self.fx
                .out
                .drain(..)
                .map(|(dst, body)| (dst, Msg::new(src, dst, body))),
        );
    }
}
