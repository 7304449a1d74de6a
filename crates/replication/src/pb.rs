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
//! committed state and it serves normal-path reads directly.

use std::collections::{BTreeMap, BTreeSet};

use harmonia_kv::{Store, VersionedValue};
use harmonia_types::{ReplicaId, SwitchSeq};

use crate::common::{export_store, install_store, put_newer, Effects, GroupConfig, Snapshot};
use crate::messages::{PbMsg, ProtocolMsg, SnapshotState, WriteOp};
use crate::shell::{Ctx, Protocol, Reads};

struct PendingWrite {
    op: WriteOp,
    acks: BTreeSet<ReplicaId>,
}

/// Primary-backup's own state.
pub(crate) struct Pb {
    /// Applied state: committed-only at the primary, applied-on-receipt at
    /// backups (read-ahead).
    store: Store<VersionedValue>,
    /// Primary only: writes awaiting acknowledgement, in sequence order.
    pending: BTreeMap<SwitchSeq, PendingWrite>,
    applied: SwitchSeq,
}

impl Pb {
    fn apply(&mut self, op: &WriteOp) {
        self.store.put(
            op.key.clone(),
            VersionedValue::new(op.value.clone(), op.seq),
        );
        self.applied = self.applied.max(op.seq);
    }

    /// Commit pending writes in sequence order while the head of the queue
    /// has been acknowledged by every current backup.
    fn try_commit(&mut self, cx: &mut Ctx, out: &mut Effects) {
        let needed: BTreeSet<ReplicaId> = cx.others().collect();
        while let Some(head) = self.pending.first_entry() {
            if !needed.iter().all(|r| head.get().acks.contains(r)) {
                break;
            }
            let pw = head.remove();
            self.apply(&pw.op);
            // Figure 2b: the completion rides on the write reply.
            cx.reply_committed(&pw.op, true, out);
        }
    }
}

fn ack(cx: &Ctx, seq: SwitchSeq, out: &mut Effects) {
    out.protocol(cx.first(), ProtocolMsg::Pb(PbMsg::Ack { seq, from: cx.me }));
}

impl Protocol for Pb {
    fn new(_config: &GroupConfig) -> Self {
        Pb {
            store: Store::new(),
            pending: BTreeMap::new(),
            applied: SwitchSeq::ZERO,
        }
    }

    fn write_entry(&self, cx: &Ctx) -> Option<ReplicaId> {
        Some(cx.first())
    }

    fn read_server(&self, cx: &Ctx) -> ReplicaId {
        cx.first()
    }

    fn reads(&self) -> Reads<'_> {
        Reads::Ahead(&self.store)
    }

    fn on_write(&mut self, cx: &mut Ctx, op: WriteOp, out: &mut Effects) {
        for b in cx.others() {
            out.protocol(b, ProtocolMsg::Pb(PbMsg::Update(op.clone())));
        }
        self.pending.insert(
            op.seq,
            PendingWrite {
                op,
                acks: BTreeSet::new(),
            },
        );
        // Single-replica group: nothing to wait for.
        self.try_commit(cx, out);
    }

    fn on_protocol(&mut self, cx: &mut Ctx, msg: ProtocolMsg, out: &mut Effects) {
        match msg {
            // Backup path: apply on receipt (read-ahead), ack in order.
            ProtocolMsg::Pb(PbMsg::Update(op)) if cx.in_order.accept(op.seq) => {
                self.apply(&op);
                ack(cx, op.seq, out);
            }
            ProtocolMsg::Pb(PbMsg::Ack { seq, from }) => {
                if let Some(pw) = self.pending.get_mut(&seq) {
                    pw.acks.insert(from);
                    self.try_commit(cx, out);
                }
            }
            _ => {}
        }
    }

    fn applied_seq(&self) -> SwitchSeq {
        self.applied
    }

    fn export_snapshot(&self) -> Snapshot {
        Snapshot {
            entries: export_store(&self.store),
            // Primary only: writes awaiting acknowledgement, in sequence
            // order. A rejoining backup must apply and ack these or the
            // all-backup commit rule would stall them forever.
            log: self.pending.values().map(|pw| pw.op.clone()).collect(),
            state: SnapshotState {
                applied: self.applied,
                ..SnapshotState::default()
            },
        }
    }

    fn install_snapshot(&mut self, cx: &mut Ctx, snap: Snapshot, out: &mut Effects) {
        let installed = install_store(&self.store, snap.entries);
        self.applied = self.applied.max(installed).max(snap.state.applied);
        // The peer's pending (uncommitted) writes: backups apply on receipt,
        // so apply each (where newer) and ack it to the primary — the
        // primary may be waiting on this replica's ack to commit.
        for op in snap.log {
            put_newer(&self.store, &op.key, &op.value, op.seq);
            self.applied = self.applied.max(op.seq);
            cx.in_order.accept(op.seq);
            ack(cx, op.seq, out);
        }
        cx.in_order.accept(snap.state.in_order);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ProtocolKind;
    use crate::shell::harness::{pump, seq, write_req};
    use crate::shell::Shell;
    use bytes::Bytes;
    use harmonia_types::{
        ClientId, ClientRequest, NodeId, PacketBody, RequestId, WriteCompletion, WriteOutcome,
    };

    fn group(n: usize, harmonia: bool) -> Vec<Shell<Pb>> {
        crate::shell::harness::group(ProtocolKind::PrimaryBackup, n, harmonia)
    }

    #[test]
    fn write_commits_after_all_backups_ack() {
        let mut g = group(3, true);
        let mut fx = Effects::new();
        g[0].on_request(write_req(1, "k", "v", true), &mut fx);
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
        g[0].on_request(write_req(5, "k", "v5", true), &mut fx);
        pump(&mut g, fx);
        // Fresh request id (admission passes) but a stale switch sequence:
        // the in-order rule must reject it.
        let mut stale = write_req(6, "k", "v3", true);
        stale.seq = Some(seq(3));
        let mut fx = Effects::new();
        g[0].on_request(stale, &mut fx);
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
            g[0].on_request(write_req(1, "k", "v1", true), &mut fx);
            fx
        };
        pump(&mut g, fx);
        // A retransmission of request 1 arrives with a fresh switch stamp:
        // the exactly-once layer must NOT re-sequence it — it re-sends the
        // cached reply and nothing else.
        let mut dup = write_req(1, "k", "v1", true);
        dup.seq = Some(seq(9));
        let mut fx = Effects::new();
        g[0].on_request(dup, &mut fx);
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
            g[0].cx.in_order.last(),
            seq(1),
            "duplicate was not re-sequenced"
        );
    }

    #[test]
    fn primary_serves_normal_reads_from_committed_state_only() {
        let mut g = group(3, true);
        let mut fx = Effects::new();
        g[0].on_request(write_req(1, "k", "v1", true), &mut fx);
        // Do NOT deliver backup acks: the write is pending, uncommitted.
        let mut read_fx = Effects::new();
        let read = ClientRequest::read(ClientId(2), RequestId(9), &b"k"[..]);
        g[0].on_request(read, &mut read_fx);
        let PacketBody::Reply(r) = &read_fx.out[0].1 else {
            panic!()
        };
        assert_eq!(r.value, None, "uncommitted write must be invisible (P2)");
    }

    #[test]
    fn baseline_mode_stamps_writes_at_primary() {
        let mut g = group(3, false);
        let mut fx = Effects::new();
        g[0].on_request(write_req(1, "k", "v", false), &mut fx);
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
        g[2].on_request(write_req(1, "k", "v", true), &mut fx);
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
        g[0].on_request(write_req(1, "k", "v1", true), &mut fx1);
        let mut fx2 = Effects::new();
        g[0].on_request(write_req(2, "k", "v2", true), &mut fx2);
        // Ack for write 2 arrives first (simulated directly).
        let mut out = Effects::new();
        g[0].on_protocol(
            ProtocolMsg::Pb(PbMsg::Ack {
                seq: seq(2),
                from: ReplicaId(1),
            }),
            &mut out,
        );
        assert!(out.is_empty(), "write 2 must wait for write 1");
        g[0].on_protocol(
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
