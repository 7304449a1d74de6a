//! Primary-backup replication (§2), with the Harmonia read-ahead adaptation
//! (§7.2).
//!
//! Normal case: the primary orders writes and sends state updates to every
//! backup; once all backups acknowledge, the write commits, the primary
//! applies it and replies to the client with the WRITE-COMPLETION
//! piggybacked. Backups apply updates *on receipt* — before commit — which
//! is what makes the protocol read-ahead: a backup's state can run ahead of
//! the commit point, and the §7.2 guard (`pkt.last_committed >= obj.seq`)
//! protects fast-path reads against exactly that.
//!
//! The primary itself applies at commit time, so its local state is always
//! committed state and it can serve normal-path reads directly.

use std::collections::{BTreeMap, BTreeSet};

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
use crate::messages::{PbMsg, ProtocolMsg, SnapshotState, WriteOp};

struct PendingWrite {
    op: WriteOp,
    acks: BTreeSet<ReplicaId>,
}

/// One primary-backup replica.
pub struct PbReplica {
    me: ReplicaId,
    members: Vec<ReplicaId>,
    harmonia: bool,
    lease: LeaseState,
    /// Applied state: committed-only at the primary, applied-on-receipt at
    /// backups (read-ahead).
    store: Store<VersionedValue>,
    in_order: InOrder,
    /// Baseline mode: the primary stamps writes itself.
    local_seq: u64,
    /// Primary only: writes awaiting acknowledgement, in sequence order.
    pending: BTreeMap<SwitchSeq, PendingWrite>,
    /// Primary only: at-most-once admission (drops network duplicates).
    clients: ClientTable,
    applied: SwitchSeq,
}

impl PbReplica {
    /// Build the replica for `config`.
    pub fn new(config: GroupConfig) -> Self {
        PbReplica {
            me: config.me,
            members: config.members,
            harmonia: config.harmonia,
            lease: LeaseState::new(config.active_switch),
            store: Store::new(),
            in_order: InOrder::new(),
            local_seq: 0,
            pending: BTreeMap::new(),
            clients: ClientTable::new(),
            applied: SwitchSeq::ZERO,
        }
    }

    fn primary(&self) -> ReplicaId {
        self.members[0]
    }

    fn is_primary(&self) -> bool {
        self.me == self.primary()
    }

    fn backups(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        self.members.iter().copied().filter(move |&r| r != self.me)
    }

    fn apply(&mut self, op: &WriteOp) {
        self.store.put(
            op.key.clone(),
            VersionedValue::new(op.value.clone(), op.seq),
        );
        self.applied = self.applied.max(op.seq);
    }

    fn handle_write(&mut self, mut req: ClientRequest, out: &mut Effects) {
        if !self.is_primary() {
            // Misrouted write (e.g. stale forwarding state): hand it to the
            // primary.
            out.forward_request(self.primary(), req);
            return;
        }
        match self.clients.admit(req.client, req.request) {
            Admission::Fresh => {}
            Admission::Duplicate => {
                // Re-execution would double-apply; answer from the cache if
                // the original committed (else its in-flight reply serves).
                if let Some(r) = self.clients.cached_reply(req.client, req.request) {
                    out.reply(self.lease.active(), r);
                }
                return;
            }
            Admission::Stale => return,
        }
        let seq = match req.seq {
            Some(s) if self.harmonia => s,
            _ => {
                // Baseline: the primary stamps the write itself.
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
        for b in self.backups().collect::<Vec<_>>() {
            out.protocol(b, ProtocolMsg::Pb(PbMsg::Update(op.clone())));
        }
        self.pending.insert(
            seq,
            PendingWrite {
                op,
                acks: BTreeSet::new(),
            },
        );
        // Single-replica group: nothing to wait for.
        self.try_commit(out);
    }

    /// Commit pending writes in sequence order while the head of the queue
    /// has been acknowledged by every current backup.
    fn try_commit(&mut self, out: &mut Effects) {
        let needed: BTreeSet<ReplicaId> = self.backups().collect();
        while let Some((&seq, pw)) = self.pending.iter().next() {
            if !needed.iter().all(|r| pw.acks.contains(r)) {
                break;
            }
            let pw = self.pending.remove(&seq).expect("head exists");
            self.apply(&pw.op);
            let completion = WriteCompletion {
                obj: pw.op.obj,
                seq,
            };
            let reply = write_reply(
                self.me,
                pw.op.client,
                pw.op.request,
                pw.op.obj,
                WriteOutcome::Committed,
                // Figure 2b: the completion rides on the write reply.
                self.harmonia.then_some(completion),
            );
            self.clients.record_reply(reply.clone());
            out.reply(self.lease.active(), reply);
        }
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
                    // §7.2: forward to the primary for the normal protocol.
                    let mut fwd = req;
                    fwd.read_mode = ReadMode::Normal;
                    if self.is_primary() {
                        self.handle_read(fwd, out);
                    } else {
                        out.forward_request(self.primary(), fwd);
                    }
                }
            }
            ReadMode::Normal => {
                if self.is_primary() {
                    // The primary's store holds committed state only.
                    let value = self.store.with(&req.key, |v| v.map(|vv| vv.value.clone()));
                    out.reply(self.lease.active(), read_reply(self.me, &req, value));
                } else {
                    out.forward_request(self.primary(), req);
                }
            }
        }
    }
}

impl Replica for PbReplica {
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
            // Backup path: apply on receipt (read-ahead), ack in order.
            ProtocolMsg::Pb(PbMsg::Update(op)) if self.in_order.accept(op.seq) => {
                self.apply(&op);
                out.protocol(
                    self.primary(),
                    ProtocolMsg::Pb(PbMsg::Ack {
                        seq: op.seq,
                        from: self.me,
                    }),
                );
            }
            ProtocolMsg::Pb(PbMsg::Ack { seq, from }) => {
                if let Some(pw) = self.pending.get_mut(&seq) {
                    pw.acks.insert(from);
                    self.try_commit(out);
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
            entries: export_store(&self.store),
            // Primary only: writes awaiting acknowledgement, in sequence
            // order. A rejoining backup must apply and ack these or the
            // all-backup commit rule would stall them forever.
            log: self.pending.values().map(|pw| pw.op.clone()).collect(),
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
        let installed = install_store(&self.store, snap.entries);
        self.applied = self.applied.max(installed).max(snap.state.applied);
        // The peer's pending (uncommitted) writes: backups apply on receipt,
        // so apply each (where newer) and ack it to the primary — the
        // primary may be waiting on this replica's ack to commit.
        for op in snap.log {
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
            self.in_order.accept(op.seq);
            out.protocol(
                self.primary(),
                ProtocolMsg::Pb(PbMsg::Ack {
                    seq: op.seq,
                    from: self.me,
                }),
            );
        }
        self.in_order.accept(snap.state.in_order);
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
    use harmonia_types::{ClientId, PacketBody, RequestId, SwitchId};

    fn seq(n: u64) -> SwitchSeq {
        SwitchSeq::new(SwitchId(1), n)
    }

    fn group(n: usize, harmonia: bool) -> Vec<PbReplica> {
        (0..n)
            .map(|i| {
                PbReplica::new(GroupConfig::new(
                    crate::common::ProtocolKind::PrimaryBackup,
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

    /// Deliver effects between replicas until quiescent; returns replies
    /// (bodies addressed to a switch).
    fn pump(replicas: &mut [PbReplica], mut fx: Effects) -> Vec<PacketBody<ProtocolMsg>> {
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
    fn write_commits_after_all_backups_ack() {
        let mut g = group(3, true);
        let mut fx = Effects::new();
        g[0].on_request(
            NodeId::Client(ClientId(1)),
            write_req(1, "k", "v", true),
            &mut fx,
        );
        // Updates sent to both backups; no reply yet.
        assert_eq!(fx.len(), 2);
        let replies = pump(&mut g, fx);
        assert_eq!(replies.len(), 1);
        let PacketBody::Reply(r) = &replies[0] else {
            panic!("expected reply")
        };
        assert_eq!(r.write_outcome, Some(WriteOutcome::Committed));
        assert_eq!(
            r.completion,
            Some(WriteCompletion {
                obj: harmonia_types::ObjectId::from_key(b"k"),
                seq: seq(1)
            })
        );
        // Every replica has applied the value.
        for rep in &g {
            assert_eq!(rep.local_value(b"k"), Some(Bytes::from_static(b"v")));
        }
    }

    #[test]
    fn out_of_order_write_rejected() {
        let mut g = group(3, true);
        let mut fx = Effects::new();
        g[0].on_request(
            NodeId::Client(ClientId(1)),
            write_req(5, "k", "v5", true),
            &mut fx,
        );
        pump(&mut g, fx);
        // Fresh request id (admission passes) but a stale switch sequence:
        // the in-order rule must reject it.
        let mut stale = write_req(6, "k", "v3", true);
        stale.seq = Some(seq(3));
        let mut fx = Effects::new();
        g[0].on_request(NodeId::Client(ClientId(1)), stale, &mut fx);
        let replies = pump(&mut g, fx);
        let PacketBody::Reply(r) = &replies[0] else {
            panic!()
        };
        assert_eq!(r.write_outcome, Some(WriteOutcome::Rejected));
        assert_eq!(g[0].local_value(b"k"), Some(Bytes::from_static(b"v5")));
    }

    #[test]
    fn duplicate_write_is_answered_from_the_reply_cache() {
        let mut g = group(3, true);
        let fx = {
            let mut fx = Effects::new();
            g[0].on_request(
                NodeId::Client(ClientId(1)),
                write_req(1, "k", "v1", true),
                &mut fx,
            );
            fx
        };
        pump(&mut g, fx);
        // A retransmission of request 1 arrives with a fresh switch stamp:
        // the exactly-once layer must NOT re-sequence it — it re-sends the
        // cached reply and nothing else.
        let mut dup = write_req(1, "k", "v1", true);
        dup.seq = Some(seq(9));
        let mut fx = Effects::new();
        g[0].on_request(NodeId::Client(ClientId(1)), dup, &mut fx);
        assert_eq!(fx.len(), 1, "exactly the cached reply: {fx:?}");
        let (dst, PacketBody::Reply(r)) = &fx.out[0] else {
            panic!("expected cached reply, got {:?}", fx.out)
        };
        assert!(matches!(dst, NodeId::Switch(_)));
        assert_eq!(r.write_outcome, Some(WriteOutcome::Committed));
        assert_eq!(r.request, RequestId(1));
        // No re-application: the store still holds exactly one write.
        assert_eq!(g[0].local_value(b"k"), Some(Bytes::from_static(b"v1")));
        assert_eq!(
            g[0].in_order.last(),
            seq(1),
            "duplicate was not re-sequenced"
        );
    }

    #[test]
    fn primary_serves_normal_reads_from_committed_state_only() {
        let mut g = group(3, true);
        let mut fx = Effects::new();
        g[0].on_request(
            NodeId::Client(ClientId(1)),
            write_req(1, "k", "v1", true),
            &mut fx,
        );
        // Do NOT deliver backup acks: the write is pending, uncommitted.
        let mut read_fx = Effects::new();
        let read = ClientRequest::read(ClientId(2), RequestId(9), &b"k"[..]);
        g[0].on_request(NodeId::Client(ClientId(2)), read, &mut read_fx);
        let PacketBody::Reply(r) = &read_fx.out[0].1 else {
            panic!()
        };
        assert_eq!(r.value, None, "uncommitted write must be invisible (P2)");
    }

    #[test]
    fn backup_fast_path_guard_detects_read_ahead_anomaly() {
        let mut g = group(3, true);
        // Commit write 1 fully.
        let mut fx = Effects::new();
        g[0].on_request(
            NodeId::Client(ClientId(1)),
            write_req(1, "k", "v1", true),
            &mut fx,
        );
        pump(&mut g, fx);
        // Write 2 reaches backup 1 but is NOT yet committed.
        let op2 = WriteOp {
            seq: seq(2),
            obj: harmonia_types::ObjectId::from_key(b"k"),
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"v2"),
            client: ClientId(1),
            request: RequestId(2),
        };
        let mut fx = Effects::new();
        g[1].on_protocol(
            NodeId::Replica(ReplicaId(0)),
            ProtocolMsg::Pb(PbMsg::Update(op2)),
            &mut fx,
        );
        // A fast-path read stamped with last_committed = 1 arrives at the
        // backup, which has applied the uncommitted write 2.
        let mut read = ClientRequest::read(ClientId(2), RequestId(9), &b"k"[..]);
        read.read_mode = ReadMode::FastPath {
            switch: SwitchId(1),
        };
        read.last_committed = Some(seq(1));
        let mut read_fx = Effects::new();
        g[1].on_request(NodeId::Client(ClientId(2)), read, &mut read_fx);
        // Guard fails -> forwarded to the primary, not answered locally.
        assert!(matches!(
            read_fx.out[0],
            (NodeId::Replica(ReplicaId(0)), PacketBody::Request(_))
        ));
        // The forwarded read is served by the primary from committed state.
        let replies = pump(&mut g, read_fx);
        let PacketBody::Reply(r) = &replies[0] else {
            panic!()
        };
        assert_eq!(r.value, Some(Bytes::from_static(b"v1")));
    }

    #[test]
    fn backup_fast_path_serves_when_guard_passes() {
        let mut g = group(3, true);
        let mut fx = Effects::new();
        g[0].on_request(
            NodeId::Client(ClientId(1)),
            write_req(1, "k", "v1", true),
            &mut fx,
        );
        pump(&mut g, fx);
        let mut read = ClientRequest::read(ClientId(2), RequestId(9), &b"k"[..]);
        read.read_mode = ReadMode::FastPath {
            switch: SwitchId(1),
        };
        read.last_committed = Some(seq(1));
        let mut read_fx = Effects::new();
        g[2].on_request(NodeId::Client(ClientId(2)), read, &mut read_fx);
        let (dst, PacketBody::Reply(r)) = &read_fx.out[0] else {
            panic!("expected local reply, got {:?}", read_fx.out)
        };
        assert!(matches!(dst, NodeId::Switch(_)));
        assert_eq!(r.value, Some(Bytes::from_static(b"v1")));
    }

    #[test]
    fn fast_path_from_stale_switch_is_rejected() {
        let mut g = group(3, true);
        let mut fx = Effects::new();
        g[0].on_request(
            NodeId::Client(ClientId(1)),
            write_req(1, "k", "v1", true),
            &mut fx,
        );
        pump(&mut g, fx);
        // Lease moves to switch 2.
        for r in g.iter_mut() {
            let mut fx = Effects::new();
            r.on_protocol(
                NodeId::Controller,
                ProtocolMsg::Control(crate::messages::ReplicaControlMsg::SetActiveSwitch(
                    SwitchId(2),
                )),
                &mut fx,
            );
        }
        let mut read = ClientRequest::read(ClientId(2), RequestId(9), &b"k"[..]);
        read.read_mode = ReadMode::FastPath {
            switch: SwitchId(1),
        };
        read.last_committed = Some(seq(1));
        let mut read_fx = Effects::new();
        g[1].on_request(NodeId::Client(ClientId(2)), read, &mut read_fx);
        // Rejected locally; forwarded to primary.
        assert!(matches!(
            read_fx.out[0],
            (NodeId::Replica(ReplicaId(0)), PacketBody::Request(_))
        ));
    }

    #[test]
    fn baseline_mode_stamps_writes_at_primary() {
        let mut g = group(3, false);
        let mut fx = Effects::new();
        g[0].on_request(
            NodeId::Client(ClientId(1)),
            write_req(1, "k", "v", false),
            &mut fx,
        );
        let replies = pump(&mut g, fx);
        let PacketBody::Reply(r) = &replies[0] else {
            panic!()
        };
        assert_eq!(r.write_outcome, Some(WriteOutcome::Committed));
        assert_eq!(r.completion, None, "baseline piggybacks nothing");
        assert_eq!(g[1].local_value(b"k"), Some(Bytes::from_static(b"v")));
    }

    #[test]
    fn misrouted_write_forwards_to_primary() {
        let mut g = group(3, true);
        let mut fx = Effects::new();
        g[2].on_request(
            NodeId::Client(ClientId(1)),
            write_req(1, "k", "v", true),
            &mut fx,
        );
        assert!(matches!(
            fx.out[0],
            (NodeId::Replica(ReplicaId(0)), PacketBody::Request(_))
        ));
        let replies = pump(&mut g, fx);
        assert_eq!(replies.len(), 1);
    }

    #[test]
    fn commits_apply_in_sequence_order_despite_ack_reordering() {
        let mut g = group(2, true);
        let mut fx1 = Effects::new();
        g[0].on_request(
            NodeId::Client(ClientId(1)),
            write_req(1, "k", "v1", true),
            &mut fx1,
        );
        let mut fx2 = Effects::new();
        g[0].on_request(
            NodeId::Client(ClientId(1)),
            write_req(2, "k", "v2", true),
            &mut fx2,
        );
        // Ack for write 2 arrives first (simulated directly).
        let mut out = Effects::new();
        g[0].on_protocol(
            NodeId::Replica(ReplicaId(1)),
            ProtocolMsg::Pb(PbMsg::Ack {
                seq: seq(2),
                from: ReplicaId(1),
            }),
            &mut out,
        );
        assert!(out.is_empty(), "write 2 must wait for write 1");
        g[0].on_protocol(
            NodeId::Replica(ReplicaId(1)),
            ProtocolMsg::Pb(PbMsg::Ack {
                seq: seq(1),
                from: ReplicaId(1),
            }),
            &mut out,
        );
        // Both commit now, in order.
        assert_eq!(out.len(), 2);
        assert_eq!(g[0].local_value(b"k"), Some(Bytes::from_static(b"v2")));
    }
}
