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

use harmonia_kv::{Store, VersionedValue};
use harmonia_types::{ClientId, ReplicaId, RequestId, SwitchSeq};

use crate::common::{export_store, install_store, put_newer, Effects, GroupConfig, Snapshot};
use crate::messages::{ChainMsg, ProtocolMsg, SnapshotState, WriteOp};
use crate::shell::{Ctx, Protocol, Reads};

/// Chain replication's own state.
pub(crate) struct Chain {
    store: Store<VersionedValue>,
    applied: SwitchSeq,
}

impl Chain {
    /// Apply an in-order write and either forward it down the chain or, at
    /// the tail, commit and reply.
    fn propagate(&mut self, cx: &mut Ctx, op: WriteOp, out: &mut Effects) {
        // Versioned: a freshly recovered node can hold installed snapshot
        // state *newer* than a `Down` still in flight to it — that write
        // must keep propagating without clobbering the newer version.
        put_newer(&self.store, &op.key, &op.value, op.seq);
        self.applied = self.applied.max(op.seq);
        match cx.successor() {
            Some(next) => out.protocol(next, ProtocolMsg::Chain(ChainMsg::Down(op))),
            // Tail: the write is now applied on every node — committed.
            None => cx.reply_committed(&op, true, out),
        }
    }
}

impl Protocol for Chain {
    fn new(_config: &GroupConfig) -> Self {
        Chain {
            store: Store::new(),
            applied: SwitchSeq::ZERO,
        }
    }

    fn write_entry(&self, cx: &Ctx) -> Option<ReplicaId> {
        Some(cx.first())
    }

    fn read_server(&self, cx: &Ctx) -> ReplicaId {
        cx.last()
    }

    fn reads(&self) -> Reads<'_> {
        Reads::Ahead(&self.store)
    }

    /// The tail is the replying node: ask it to re-send its cached reply
    /// (the original may still be propagating, in which case its own reply
    /// will serve).
    fn on_duplicate(&mut self, cx: &Ctx, client: ClientId, request: RequestId, out: &mut Effects) {
        if cx.me == cx.last() {
            cx.resend(client, request, out);
        } else {
            let msg = ChainMsg::ReReply { client, request };
            out.protocol(cx.last(), ProtocolMsg::Chain(msg));
        }
    }

    fn on_write(&mut self, cx: &mut Ctx, op: WriteOp, out: &mut Effects) {
        self.propagate(cx, op, out);
    }

    fn on_protocol(&mut self, cx: &mut Ctx, msg: ProtocolMsg, out: &mut Effects) {
        match msg {
            ProtocolMsg::Chain(ChainMsg::Down(op)) if cx.in_order.accept(op.seq) => {
                self.propagate(cx, op, out);
            }
            ProtocolMsg::Chain(ChainMsg::ReReply { client, request }) => {
                if let Some(r) = cx.clients.cached_reply(client, request) {
                    out.reply(cx.via(), r);
                } else if let Some(pred) = cx.predecessor() {
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

    fn applied_seq(&self) -> SwitchSeq {
        self.applied
    }

    fn export_snapshot(&self) -> Snapshot {
        Snapshot {
            // The head's applied state covers every admitted write —
            // writes still propagating to downstream nodes included — so a
            // chain snapshot needs no separate log.
            entries: export_store(&self.store),
            log: Vec::new(),
            state: SnapshotState {
                applied: self.applied,
                ..SnapshotState::default()
            },
        }
    }

    fn install_snapshot(&mut self, _cx: &mut Ctx, snap: Snapshot, _out: &mut Effects) {
        let installed = install_store(&self.store, snap.entries);
        self.applied = self.applied.max(installed).max(snap.state.applied);
        // Deliberately do NOT raise the in-order point to the snapshot's: a
        // `Down` still in flight from the predecessor may carry a sequence
        // the snapshot already covers, and it must still be accepted so it
        // keeps propagating (and gets its tail reply). The versioned apply
        // keeps it from regressing installed state.
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
        ClientRequest, NodeId, ObjectId, PacketBody, WriteCompletion, WriteOutcome,
    };

    fn group(n: usize, harmonia: bool) -> Vec<Shell<Chain>> {
        crate::shell::harness::group(ProtocolKind::Chain, n, harmonia)
    }

    #[test]
    fn write_propagates_head_to_tail_then_replies() {
        let mut g = group(3, true);
        let mut fx = Effects::new();
        g[0].on_request(write_req(1, "k", "v", true), &mut fx);
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
            g[0].on_request(write_req(1, "k", "v", true), &mut fx);
            fx
        };
        pump(&mut g, fx);
        let read = ClientRequest::read(ClientId(2), RequestId(9), &b"k"[..]);
        let mut fx = Effects::new();
        g[2].on_request(read, &mut fx);
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
        g[1].on_request(read, &mut fx);
        assert!(matches!(
            fx.out[0],
            (NodeId::Replica(ReplicaId(2)), PacketBody::Request(_))
        ));
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
        g[1].on_protocol(ProtocolMsg::Chain(ChainMsg::Down(op(2, "v2"))), &mut fx);
        assert_eq!(fx.len(), 1, "in-order write forwarded");
        let mut fx = Effects::new();
        g[1].on_protocol(ProtocolMsg::Chain(ChainMsg::Down(op(1, "v1"))), &mut fx);
        assert!(fx.is_empty(), "stale write must be dropped");
        assert_eq!(g[1].local_value(b"k"), Some(Bytes::from_static(b"v2")));
    }

    #[test]
    fn single_node_chain_commits_immediately() {
        let mut g = group(1, true);
        let mut fx = Effects::new();
        g[0].on_request(write_req(1, "k", "v", true), &mut fx);
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
            g[0].on_request(write_req(1, "k", "v", true), &mut fx);
            fx
        };
        pump(&mut g, fx);
        // Tail (replica 2) fails; controller shrinks the chain.
        for r in g.iter_mut().take(2) {
            let mut fx = Effects::new();
            r.on_protocol(
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
        g[1].on_request(read, &mut fx);
        let PacketBody::Reply(r) = &fx.out[0].1 else {
            panic!()
        };
        assert_eq!(r.value, Some(Bytes::from_static(b"v")));
        // And writes commit with only two nodes.
        let mut fx = Effects::new();
        g[0].on_request(write_req(2, "k", "v2", true), &mut fx);
        let replies = pump(&mut g[..2], fx);
        assert_eq!(replies.len(), 1);
    }
}
