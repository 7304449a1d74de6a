//! Chain replication (van Renesse & Schneider, OSDI '04), with the Harmonia
//! read-ahead adaptation (§7.2 of the Harmonia paper).
//!
//! Writes enter at the head, propagate node-to-node down the chain, and are
//! acknowledged by the tail, which replies to the client (piggybacking the
//! WRITE-COMPLETION under Harmonia). A node's state may run ahead of the
//! commit point anywhere except the tail, so single-replica reads apply the
//! read-ahead guard; reads failing the guard are forwarded to the tail.
//!
//! Normal-path reads are served by the tail — which is exactly why vanilla
//! chain replication cannot scale reads beyond one server's throughput
//! (Figures 5–7 of the paper).

use bytes::Bytes;
use harmonia_kv::{Store, VersionedValue};
use harmonia_types::{
    ClientRequest, NodeId, OpKind, ReadMode, ReplicaId, SwitchId, SwitchSeq, WriteCompletion,
    WriteOutcome,
};

use crate::common::{
    export_store, handle_control, install_store, read_ahead_probe, read_reply, write_reply,
    Admission, ClientTable, Effects, GroupConfig, InOrder, LeaseState, Replica, Snapshot,
};
use crate::messages::{ChainMsg, ProtocolMsg, SnapshotState, WriteOp};

/// One chain-replication node.
pub struct ChainReplica {
    me: ReplicaId,
    members: Vec<ReplicaId>,
    harmonia: bool,
    lease: LeaseState,
    store: Store<VersionedValue>,
    in_order: InOrder,
    /// Baseline mode: the head stamps writes itself.
    local_seq: u64,
    /// Head: exactly-once admission. Tail: reply cache for ReReply.
    clients: ClientTable,
    applied: SwitchSeq,
}

impl ChainReplica {
    /// Build the replica for `config`.
    pub fn new(config: GroupConfig) -> Self {
        ChainReplica {
            me: config.me,
            members: config.members,
            harmonia: config.harmonia,
            lease: LeaseState::new(config.active_switch),
            store: Store::new(),
            in_order: InOrder::new(),
            local_seq: 0,
            clients: ClientTable::new(),
            applied: SwitchSeq::ZERO,
        }
    }

    fn head(&self) -> ReplicaId {
        self.members[0]
    }

    fn tail(&self) -> ReplicaId {
        *self.members.last().expect("non-empty chain")
    }

    fn successor(&self) -> Option<ReplicaId> {
        let idx = self.members.iter().position(|&r| r == self.me)?;
        self.members.get(idx + 1).copied()
    }

    fn predecessor(&self) -> Option<ReplicaId> {
        let idx = self.members.iter().position(|&r| r == self.me)?;
        idx.checked_sub(1).map(|i| self.members[i])
    }

    fn is_tail(&self) -> bool {
        self.me == self.tail()
    }

    /// Versioned apply: never regress a key. Equivalent to a plain put in
    /// steady state (the in-order rule makes sequence numbers increase),
    /// but a freshly recovered node can hold installed snapshot state
    /// *newer* than a `Down` still in flight to it — that write must keep
    /// propagating without clobbering the newer version.
    fn apply(&mut self, op: &WriteOp) {
        self.store.update(
            &op.key,
            || VersionedValue::new(op.value.clone(), op.seq),
            |vv| {
                if op.seq > vv.seq {
                    *vv = VersionedValue::new(op.value.clone(), op.seq);
                }
            },
        );
        self.applied = self.applied.max(op.seq);
    }

    /// Apply an in-order write and either forward it down the chain or, at
    /// the tail, commit and reply.
    fn propagate(&mut self, op: WriteOp, out: &mut Effects) {
        self.apply(&op);
        if let Some(next) = self.successor() {
            out.protocol(next, ProtocolMsg::Chain(ChainMsg::Down(op)));
        } else {
            // Tail: the write is now applied on every node — committed.
            let completion = WriteCompletion {
                obj: op.obj,
                seq: op.seq,
            };
            let reply = write_reply(
                self.me,
                op.client,
                op.request,
                op.obj,
                WriteOutcome::Committed,
                self.harmonia.then_some(completion),
            );
            self.clients.record_reply(reply.clone());
            out.reply(self.lease.active(), reply);
        }
    }

    fn handle_write(&mut self, mut req: ClientRequest, out: &mut Effects) {
        if self.me != self.head() {
            out.forward_request(self.head(), req);
            return;
        }
        match self.clients.admit(req.client, req.request) {
            Admission::Fresh => {}
            Admission::Duplicate => {
                // The tail is the replying node: ask it to re-send its
                // cached reply (the original may still be propagating, in
                // which case its own reply will serve).
                if self.is_tail() {
                    if let Some(r) = self.clients.cached_reply(req.client, req.request) {
                        out.reply(self.lease.active(), r);
                    }
                } else {
                    out.protocol(
                        self.tail(),
                        ProtocolMsg::Chain(ChainMsg::ReReply {
                            client: req.client,
                            request: req.request,
                        }),
                    );
                }
                return;
            }
            Admission::Stale => return,
        }
        let seq = match req.seq {
            Some(s) if self.harmonia => s,
            _ => {
                self.local_seq += 1;
                SwitchSeq::new(self.lease.active(), self.local_seq)
            }
        };
        req.seq = Some(seq);
        if !self.in_order.accept(seq) {
            out.reply(
                self.lease.active(),
                write_reply(
                    self.me,
                    req.client,
                    req.request,
                    req.obj,
                    WriteOutcome::Rejected,
                    None,
                ),
            );
            return;
        }
        let op = WriteOp {
            seq,
            obj: req.obj,
            key: req.key.clone(),
            value: req.value.clone().unwrap_or_default(),
            client: req.client,
            request: req.request,
        };
        self.propagate(op, out);
    }

    fn handle_read(&mut self, req: ClientRequest, out: &mut Effects) {
        match req.read_mode {
            ReadMode::FastPath { switch } => {
                let stamped = req.last_committed.unwrap_or(SwitchSeq::ZERO);
                let answer = if self.lease.allows(switch) {
                    read_ahead_probe(&self.store, &req.key, stamped)
                } else {
                    None
                };
                if let Some(value) = answer {
                    out.reply(self.lease.active(), read_reply(self.me, &req, value));
                } else {
                    let mut fwd = req;
                    fwd.read_mode = ReadMode::Normal;
                    if self.is_tail() {
                        self.handle_read(fwd, out);
                    } else {
                        out.forward_request(self.tail(), fwd);
                    }
                }
            }
            ReadMode::Normal => {
                if self.is_tail() {
                    // Tail state is committed by construction.
                    let value = self.store.with(&req.key, |v| v.map(|vv| vv.value.clone()));
                    out.reply(self.lease.active(), read_reply(self.me, &req, value));
                } else {
                    out.forward_request(self.tail(), req);
                }
            }
        }
    }
}

impl Replica for ChainReplica {
    fn on_request(&mut self, _src: NodeId, req: ClientRequest, out: &mut Effects) {
        match req.op {
            OpKind::Write => self.handle_write(req, out),
            OpKind::Read => self.handle_read(req, out),
        }
    }

    fn on_protocol(&mut self, _src: NodeId, msg: ProtocolMsg, out: &mut Effects) {
        if handle_control(&msg, &mut self.lease, &mut self.members) {
            return;
        }
        match msg {
            ProtocolMsg::Chain(ChainMsg::Down(op)) if self.in_order.accept(op.seq) => {
                self.propagate(op, out);
            }
            ProtocolMsg::Chain(ChainMsg::ReReply { client, request }) => {
                if let Some(r) = self.clients.cached_reply(client, request) {
                    out.reply(self.lease.active(), r);
                } else if let Some(pred) = self.predecessor() {
                    // Cache miss: a freshly recovered tail has no reply
                    // cache for writes its predecessor (the interim tail)
                    // answered while it was down. Walk the request upstream
                    // — the node that replied holds the cache entry.
                    out.protocol(
                        pred,
                        ProtocolMsg::Chain(ChainMsg::ReReply { client, request }),
                    );
                }
            }
            _ => {}
        }
    }

    fn local_value(&self, key: &[u8]) -> Option<Bytes> {
        self.store.with(key, |v| v.map(|vv| vv.value.clone()))
    }

    fn applied_seq(&self) -> SwitchSeq {
        self.applied
    }

    fn export_snapshot(&self) -> Snapshot {
        let (clients, replies) = self.clients.export();
        Snapshot {
            // The head's applied state covers every admitted write —
            // writes still propagating to downstream nodes included — so a
            // chain snapshot needs no separate log.
            entries: export_store(&self.store),
            log: Vec::new(),
            state: SnapshotState {
                in_order: self.in_order.last(),
                applied: self.applied,
                local_seq: self.local_seq,
                commit_num: 0,
                session: 0,
                clients,
                replies,
            },
        }
    }

    fn install_snapshot(&mut self, snap: Snapshot, out: &mut Effects) {
        let _ = out;
        let installed = install_store(&self.store, snap.entries);
        self.applied = self.applied.max(installed).max(snap.state.applied);
        // Deliberately do NOT raise `in_order` to the snapshot's point: a
        // `Down` still in flight from the predecessor may carry a sequence
        // the snapshot already covers, and it must still be accepted so it
        // keeps propagating (and gets its tail reply). The versioned
        // `apply` keeps it from regressing installed state.
        self.local_seq = self.local_seq.max(snap.state.local_seq);
        self.clients.install(snap.state.clients, snap.state.replies);
    }

    fn active_switch(&self) -> SwitchId {
        self.lease.active()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_types::{ClientId, ObjectId, PacketBody, RequestId, SwitchId};

    fn seq(n: u64) -> SwitchSeq {
        SwitchSeq::new(SwitchId(1), n)
    }

    fn group(n: usize, harmonia: bool) -> Vec<ChainReplica> {
        (0..n)
            .map(|i| {
                ChainReplica::new(GroupConfig::new(
                    crate::common::ProtocolKind::Chain,
                    n,
                    i as u32,
                    harmonia,
                ))
            })
            .collect()
    }

    fn write_req(n: u64, key: &str, val: &str, harmonia: bool) -> ClientRequest {
        let mut r = ClientRequest::write(
            ClientId(1),
            RequestId(n),
            Bytes::copy_from_slice(key.as_bytes()),
            Bytes::copy_from_slice(val.as_bytes()),
        );
        if harmonia {
            r.seq = Some(seq(n));
        }
        r
    }

    fn pump(replicas: &mut [ChainReplica], mut fx: Effects) -> Vec<PacketBody<ProtocolMsg>> {
        let mut replies = vec![];
        while !fx.out.is_empty() {
            let mut next = Effects::new();
            for (dst, body) in fx.out.drain(..) {
                match (dst, body) {
                    (NodeId::Replica(r), PacketBody::Protocol(m)) => {
                        replicas[r.index()].on_protocol(NodeId::Replica(r), m, &mut next);
                    }
                    (NodeId::Replica(r), PacketBody::Request(req)) => {
                        replicas[r.index()].on_request(NodeId::Replica(r), req, &mut next);
                    }
                    (NodeId::Switch(_), b) => replies.push(b),
                    other => panic!("unexpected effect {other:?}"),
                }
            }
            fx = next;
        }
        replies
    }

    #[test]
    fn write_propagates_head_to_tail_then_replies() {
        let mut g = group(3, true);
        let mut fx = Effects::new();
        g[0].on_request(
            NodeId::Client(ClientId(1)),
            write_req(1, "k", "v", true),
            &mut fx,
        );
        // Head forwards down the chain, one hop at a time.
        assert_eq!(fx.len(), 1);
        assert!(matches!(fx.out[0].0, NodeId::Replica(ReplicaId(1))));
        let replies = pump(&mut g, fx);
        assert_eq!(replies.len(), 1);
        let PacketBody::Reply(r) = &replies[0] else {
            panic!()
        };
        assert_eq!(r.write_outcome, Some(WriteOutcome::Committed));
        assert_eq!(
            r.completion,
            Some(WriteCompletion {
                obj: ObjectId::from_key(b"k"),
                seq: seq(1)
            })
        );
        for rep in &g {
            assert_eq!(rep.local_value(b"k"), Some(Bytes::from_static(b"v")));
        }
    }

    #[test]
    fn tail_serves_normal_reads() {
        let mut g = group(3, true);
        let fx = {
            let mut fx = Effects::new();
            g[0].on_request(
                NodeId::Client(ClientId(1)),
                write_req(1, "k", "v", true),
                &mut fx,
            );
            fx
        };
        pump(&mut g, fx);
        let read = ClientRequest::read(ClientId(2), RequestId(9), &b"k"[..]);
        let mut fx = Effects::new();
        g[2].on_request(NodeId::Client(ClientId(2)), read, &mut fx);
        let PacketBody::Reply(r) = &fx.out[0].1 else {
            panic!()
        };
        assert_eq!(r.value, Some(Bytes::from_static(b"v")));
    }

    #[test]
    fn normal_read_at_middle_forwards_to_tail() {
        let mut g = group(3, true);
        let read = ClientRequest::read(ClientId(2), RequestId(9), &b"k"[..]);
        let mut fx = Effects::new();
        g[1].on_request(NodeId::Client(ClientId(2)), read, &mut fx);
        assert!(matches!(
            fx.out[0],
            (NodeId::Replica(ReplicaId(2)), PacketBody::Request(_))
        ));
    }

    #[test]
    fn middle_node_fast_path_guard_blocks_uncommitted_state() {
        let mut g = group(3, true);
        // Deliver the write only to head and middle: the tail (and thus the
        // commit) never happens.
        let mut fx = Effects::new();
        g[0].on_request(
            NodeId::Client(ClientId(1)),
            write_req(1, "k", "v1", true),
            &mut fx,
        );
        let (_, PacketBody::Protocol(m)) = fx.out.remove(0) else {
            panic!()
        };
        let mut fx_mid = Effects::new();
        g[1].on_protocol(NodeId::Replica(ReplicaId(0)), m, &mut fx_mid);
        // Middle applied the uncommitted write; a fast-path read stamped
        // with last_committed = 0 must NOT see it.
        let mut read = ClientRequest::read(ClientId(2), RequestId(9), &b"k"[..]);
        read.read_mode = ReadMode::FastPath {
            switch: SwitchId(1),
        };
        read.last_committed = Some(SwitchSeq::ZERO);
        let mut fx2 = Effects::new();
        g[1].on_request(NodeId::Client(ClientId(2)), read, &mut fx2);
        assert!(
            matches!(
                fx2.out[0],
                (NodeId::Replica(ReplicaId(2)), PacketBody::Request(_))
            ),
            "guard must forward to the tail"
        );
        // Tail serves its (absent) committed state.
        let replies = pump(&mut g, fx2);
        let PacketBody::Reply(r) = &replies[0] else {
            panic!()
        };
        assert_eq!(r.value, None);
    }

    #[test]
    fn fast_path_read_serves_committed_object_at_any_node() {
        let mut g = group(3, true);
        let fx = {
            let mut fx = Effects::new();
            g[0].on_request(
                NodeId::Client(ClientId(1)),
                write_req(1, "k", "v", true),
                &mut fx,
            );
            fx
        };
        pump(&mut g, fx);
        for (idx, replica) in g.iter_mut().enumerate() {
            let mut read = ClientRequest::read(ClientId(2), RequestId(9), &b"k"[..]);
            read.read_mode = ReadMode::FastPath {
                switch: SwitchId(1),
            };
            read.last_committed = Some(seq(1));
            let mut fx = Effects::new();
            replica.on_request(NodeId::Client(ClientId(2)), read, &mut fx);
            let PacketBody::Reply(r) = &fx.out[0].1 else {
                panic!("node {idx} did not reply locally: {:?}", fx.out)
            };
            assert_eq!(r.value, Some(Bytes::from_static(b"v")), "node {idx}");
        }
    }

    #[test]
    fn out_of_order_down_message_dropped_by_middle() {
        let mut g = group(3, true);
        let op = |n: u64, v: &str| WriteOp {
            seq: seq(n),
            obj: ObjectId::from_key(b"k"),
            key: Bytes::from_static(b"k"),
            value: Bytes::copy_from_slice(v.as_bytes()),
            client: ClientId(1),
            request: RequestId(n),
        };
        let mut fx = Effects::new();
        g[1].on_protocol(
            NodeId::Replica(ReplicaId(0)),
            ProtocolMsg::Chain(ChainMsg::Down(op(2, "v2"))),
            &mut fx,
        );
        assert_eq!(fx.len(), 1, "in-order write forwarded");
        let mut fx = Effects::new();
        g[1].on_protocol(
            NodeId::Replica(ReplicaId(0)),
            ProtocolMsg::Chain(ChainMsg::Down(op(1, "v1"))),
            &mut fx,
        );
        assert!(fx.is_empty(), "stale write must be dropped");
        assert_eq!(g[1].local_value(b"k"), Some(Bytes::from_static(b"v2")));
    }

    #[test]
    fn single_node_chain_commits_immediately() {
        let mut g = group(1, true);
        let mut fx = Effects::new();
        g[0].on_request(
            NodeId::Client(ClientId(1)),
            write_req(1, "k", "v", true),
            &mut fx,
        );
        let PacketBody::Reply(r) = &fx.out[0].1 else {
            panic!()
        };
        assert_eq!(r.write_outcome, Some(WriteOutcome::Committed));
    }

    #[test]
    fn membership_change_reroutes_tail_duties() {
        let mut g = group(3, true);
        let fx = {
            let mut fx = Effects::new();
            g[0].on_request(
                NodeId::Client(ClientId(1)),
                write_req(1, "k", "v", true),
                &mut fx,
            );
            fx
        };
        pump(&mut g, fx);
        // Tail (replica 2) fails; controller shrinks the chain.
        for r in g.iter_mut().take(2) {
            let mut fx = Effects::new();
            r.on_protocol(
                NodeId::Controller,
                ProtocolMsg::Control(crate::messages::ReplicaControlMsg::SetMembers(vec![
                    ReplicaId(0),
                    ReplicaId(1),
                ])),
                &mut fx,
            );
        }
        // Replica 1 is now the tail and serves normal reads locally.
        let read = ClientRequest::read(ClientId(2), RequestId(9), &b"k"[..]);
        let mut fx = Effects::new();
        g[1].on_request(NodeId::Client(ClientId(2)), read, &mut fx);
        let PacketBody::Reply(r) = &fx.out[0].1 else {
            panic!()
        };
        assert_eq!(r.value, Some(Bytes::from_static(b"v")));
        // And writes commit with only two nodes.
        let mut fx = Effects::new();
        g[0].on_request(
            NodeId::Client(ClientId(1)),
            write_req(2, "k", "v2", true),
            &mut fx,
        );
        let replies = pump(&mut g[..2], fx);
        assert_eq!(replies.len(), 1);
    }
}
