//! CRAQ — Chain Replication with Apportioned Queries (Terrace & Freedman,
//! USENIX ATC '09).
//!
//! CRAQ is the protocol-level alternative that Harmonia is compared against
//! (§3.1, §9.5 / Figure 9a of the Harmonia paper). Every replica may answer
//! reads for *clean* objects; reads of *dirty* objects are forwarded to the
//! tail. The price is an extra write phase: a write first propagates down
//! the chain as a dirty version, and after the tail commits it a CLEAN
//! acknowledgement travels back up, node by node. That second phase is why
//! CRAQ's write throughput falls below plain chain replication — the effect
//! Figure 9a shows and Harmonia avoids by moving conflict tracking into the
//! switch.
//!
//! CRAQ has no Harmonia adaptation: it *is* the baseline.

use harmonia_kv::{Store, VersionChain, VersionedValue};
use harmonia_types::{ClientId, ReplicaId, RequestId, SwitchSeq};

use crate::common::{Effects, GroupConfig, Snapshot};
use crate::messages::{CraqMsg, ProtocolMsg, SnapshotEntry, SnapshotState, WriteOp};
use crate::shell::{Ctx, Protocol, Reads};

/// CRAQ's own state.
pub(crate) struct Craq {
    store: Store<VersionChain>,
    applied: SwitchSeq,
}

impl Craq {
    /// Stage a write at this node and keep it moving down the chain; at the
    /// tail, commit, reply, and start the CLEAN back-propagation.
    fn propagate(&mut self, cx: &mut Ctx, op: WriteOp, out: &mut Effects) {
        self.applied = self.applied.max(op.seq);
        let version = VersionedValue::new(op.value.clone(), op.seq);
        if let Some(next) = cx.successor() {
            self.store
                .update(&op.key, VersionChain::empty, |chain| chain.stage(version));
            out.protocol(next, ProtocolMsg::Craq(CraqMsg::Down(op)));
            return;
        }
        // Tail commits immediately: its clean version is the committed
        // version by definition.
        self.store.update(&op.key, VersionChain::empty, |chain| {
            chain.install_clean(version)
        });
        cx.reply_committed(&op, false, out);
        // Second phase: mark clean back up the chain.
        if let Some(prev) = cx.predecessor() {
            let (obj, key, seq) = (op.obj, op.key, op.seq);
            out.protocol(prev, ProtocolMsg::Craq(CraqMsg::Clean { obj, key, seq }));
        }
    }
}

impl Protocol for Craq {
    const SWITCH_STAMPS: bool = false;

    fn new(_config: &GroupConfig) -> Self {
        Craq {
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
        Reads::Clean(&self.store)
    }

    fn on_duplicate(&mut self, cx: &Ctx, client: ClientId, request: RequestId, out: &mut Effects) {
        if cx.me == cx.last() {
            cx.resend(client, request, out);
        } else {
            let msg = CraqMsg::ReReply { client, request };
            out.protocol(cx.last(), ProtocolMsg::Craq(msg));
        }
    }

    fn on_write(&mut self, cx: &mut Ctx, op: WriteOp, out: &mut Effects) {
        self.propagate(cx, op, out);
    }

    fn on_protocol(&mut self, cx: &mut Ctx, msg: ProtocolMsg, out: &mut Effects) {
        match msg {
            ProtocolMsg::Craq(CraqMsg::Down(op)) if cx.in_order.accept(op.seq) => {
                self.propagate(cx, op, out);
            }
            ProtocolMsg::Craq(CraqMsg::Clean { obj, key, seq }) => {
                self.store
                    .update(&key, VersionChain::empty, |chain| chain.commit_up_to(seq));
                // Keep the acknowledgement flowing toward the head.
                if let Some(prev) = cx.predecessor() {
                    out.protocol(prev, ProtocolMsg::Craq(CraqMsg::Clean { obj, key, seq }));
                }
            }
            ProtocolMsg::Craq(CraqMsg::ReReply { client, request }) => {
                if let Some(r) = cx.clients.cached_reply(client, request) {
                    out.reply(cx.via(), r);
                } else if let Some(pred) = cx.predecessor() {
                    // A freshly recovered tail has no cache for replies its
                    // predecessor sent while it was down; walk upstream.
                    out.protocol(
                        pred,
                        ProtocolMsg::Craq(CraqMsg::ReReply { client, request }),
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
        // Per key: the clean (committed) version plus every staged dirty
        // version. Dirty versions cannot ride in the WriteOp log — they
        // carry no client/request — so the `dirty` flag marks them.
        let mut entries = Vec::new();
        self.store.for_each(|key, chain| {
            let obj = harmonia_types::ObjectId::from_key(key);
            let clean = chain.clean().into_iter().map(|v| (v, false));
            let staged = chain.dirty_versions().iter().map(|v| (v, true));
            for (v, dirty) in clean.chain(staged) {
                entries.push(SnapshotEntry {
                    key: key.clone(),
                    obj,
                    value: v.value.clone(),
                    seq: v.seq,
                    dirty,
                });
            }
        });
        // Sorting by (key, seq) puts each key's clean version before its
        // dirty ones, which is the order `install_snapshot` needs.
        entries.sort_by(|a, b| a.key.cmp(&b.key).then(a.seq.cmp(&b.seq)));
        Snapshot {
            entries,
            log: Vec::new(),
            state: SnapshotState {
                applied: self.applied,
                ..SnapshotState::default()
            },
        }
    }

    fn install_snapshot(&mut self, _cx: &mut Ctx, snap: Snapshot, _out: &mut Effects) {
        for e in snap.entries {
            self.applied = self.applied.max(e.seq);
            let v = VersionedValue::new(e.value.clone(), e.seq);
            self.store.update(&e.key, VersionChain::empty, |chain| {
                // Both paths reject versions at or below what the chain
                // already holds, so live Downs staged during the transfer
                // are never regressed; a snapshot dirty version they
                // superseded simply drops (its CLEAN will find nothing to
                // commit here, which is fine — a newer version follows).
                if e.dirty {
                    chain.stage(v);
                } else {
                    chain.install_clean(v);
                }
            });
        }
        self.applied = self.applied.max(snap.state.applied);
        // The in-order point stays untouched for the same reason as plain
        // chain: Downs still in flight must keep propagating.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ProtocolKind;
    use crate::shell::harness::{pump, write_req};
    use crate::shell::Shell;
    use bytes::Bytes;
    use harmonia_types::{ClientRequest, NodeId, PacketBody};

    fn group(n: usize) -> Vec<Shell<Craq>> {
        crate::shell::harness::group(ProtocolKind::Craq, n, false)
    }

    fn write(n: u64, key: &str, val: &str) -> harmonia_types::ClientRequest {
        write_req(n, key, val, false)
    }

    fn dirty_at(g: &Shell<Craq>, key: &[u8]) -> bool {
        g.proto
            .store
            .with(key, |c| c.map(|c| c.is_dirty()).unwrap_or(false))
    }

    #[test]
    fn write_has_two_phases_and_all_nodes_end_clean() {
        let mut g = group(3);
        let mut fx = Effects::new();
        g[0].on_request(write(1, "k", "v"), &mut fx);
        // Phase 1 in flight: head has a dirty version.
        assert!(dirty_at(&g[0], b"k"));
        let replies = pump(&mut g, fx);
        assert_eq!(replies.len(), 1);
        // Phase 2 done: everyone is clean with the committed value.
        for (i, rep) in g.iter().enumerate() {
            assert!(!dirty_at(rep, b"k"), "node {i} still dirty");
            assert_eq!(rep.local_value(b"k"), Some(Bytes::from_static(b"v")));
        }
    }

    #[test]
    fn any_replica_serves_clean_reads_locally() {
        let mut g = group(3);
        let fx = {
            let mut fx = Effects::new();
            g[0].on_request(write(1, "k", "v"), &mut fx);
            fx
        };
        pump(&mut g, fx);
        for (idx, replica) in g.iter_mut().enumerate() {
            let read = ClientRequest::read(ClientId(2), RequestId(9), &b"k"[..]);
            let mut fx = Effects::new();
            replica.on_request(read, &mut fx);
            let PacketBody::Reply(r) = &fx.out[0].1 else {
                panic!("node {idx} forwarded a clean read")
            };
            assert_eq!(r.value, Some(Bytes::from_static(b"v")));
        }
    }

    #[test]
    fn dirty_read_goes_to_the_tail() {
        let mut g = group(3);
        // Start a write but stop after the head stages it.
        let mut fx = Effects::new();
        g[0].on_request(write(1, "k", "v1"), &mut fx);
        // Head is dirty: a read there must be forwarded to the tail.
        let read = ClientRequest::read(ClientId(2), RequestId(9), &b"k"[..]);
        let mut fx2 = Effects::new();
        g[0].on_request(read, &mut fx2);
        assert!(matches!(
            fx2.out[0],
            (NodeId::Replica(ReplicaId(2)), PacketBody::Request(_))
        ));
        // The tail hasn't seen the write; it serves the old (absent) value —
        // correct, the write hasn't committed.
        let replies = pump(&mut g, fx2);
        let PacketBody::Reply(r) = &replies[0] else {
            panic!()
        };
        assert_eq!(r.value, None);
    }

    #[test]
    fn overlapping_writes_keep_monotone_versions() {
        let mut g = group(3);
        // Two writes to the same key, fully processed.
        for (n, v) in [(1, "v1"), (2, "v2")] {
            let fx = {
                let mut fx = Effects::new();
                g[0].on_request(write(n, "k", v), &mut fx);
                fx
            };
            pump(&mut g, fx);
        }
        for rep in &g {
            assert_eq!(rep.local_value(b"k"), Some(Bytes::from_static(b"v2")));
        }
    }

    #[test]
    fn reads_of_other_keys_unaffected_by_dirty_key() {
        let mut g = group(3);
        // Commit "a", then leave "b" dirty at the head.
        let fx = {
            let mut fx = Effects::new();
            g[0].on_request(write(1, "a", "va"), &mut fx);
            fx
        };
        pump(&mut g, fx);
        let mut fx = Effects::new();
        g[0].on_request(write(2, "b", "vb"), &mut fx);
        // "a" still serves locally at the head.
        let read = ClientRequest::read(ClientId(2), RequestId(9), &b"a"[..]);
        let mut fx2 = Effects::new();
        g[0].on_request(read, &mut fx2);
        let PacketBody::Reply(r) = &fx2.out[0].1 else {
            panic!()
        };
        assert_eq!(r.value, Some(Bytes::from_static(b"va")));
    }

    #[test]
    fn misrouted_write_forwards_to_head() {
        let mut g = group(3);
        let mut fx = Effects::new();
        g[1].on_request(write(1, "k", "v"), &mut fx);
        assert!(matches!(
            fx.out[0],
            (NodeId::Replica(ReplicaId(0)), PacketBody::Request(_))
        ));
    }
}
