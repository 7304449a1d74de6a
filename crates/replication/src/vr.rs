//! Viewstamped Replication (Oki & Liskov; Liskov & Cowling's VR-Revisited),
//! normal-case protocol, with the Harmonia read-behind adaptation (§7.3).
//!
//! The leader orders writes into a log and runs the PREPARE / PREPARE-OK
//! phase; an operation commits once a majority has logged it, at which point
//! the leader executes it and replies to the client. Backups execute only
//! once they learn the commit point — they can therefore *lag* the committed
//! state (read-behind).
//!
//! Harmonia adds one phase (§7.3): concurrently with replying, the leader
//! broadcasts COMMIT; replicas execute and answer COMMIT-ACK; only when a
//! majority has *executed* operation `n` does the leader emit the
//! WRITE-COMPLETION for it. This delay is what makes the switch's
//! last-committed point a safe lower bound for the fast-path read guard:
//! a replica may answer a single-replica read iff it has executed at least
//! up to the stamped last-committed point.
//!
//! View changes are out of scope (the paper's evaluation exercises the
//! normal case and switch failover; the leader is fixed at member 0). The
//! view number is carried in every message so the structure matches VR.

use std::collections::{BTreeMap, HashMap, HashSet};

use harmonia_kv::{Store, VersionedValue};
use harmonia_types::{Duration, ReplicaId, SwitchSeq, WriteCompletion};

use crate::common::{export_store, install_store, Effects, GroupConfig, ProtocolKind, Snapshot};
use crate::messages::{ProtocolMsg, SnapshotState, VrMsg, WriteOp};
use crate::shell::{Ctx, Protocol, Reads};

/// VR's own state.
pub(crate) struct Vr {
    sync_interval: Duration,

    view: u64,
    /// The replicated log; position `i + 1` is op-number `i + 1`.
    log: Vec<WriteOp>,
    /// Highest committed op-number.
    commit_num: u64,
    /// Highest executed op-number (applied to `store`).
    executed: u64,
    /// Out-of-order PREPAREs buffered until the log catches up.
    pending_prepares: BTreeMap<u64, WriteOp>,
    /// Leader: PREPARE-OK collection per op-number.
    prepare_acks: HashMap<u64, HashSet<ReplicaId>>,
    /// Leader: executed-through points learned from COMMIT-ACKs.
    exec_points: HashMap<ReplicaId, u64>,
    /// Leader: completions emitted through this op-number.
    completed: u64,

    store: Store<VersionedValue>,
    /// Largest switch sequence number among executed writes (`R.seq` in the
    /// Appendix A proof) — the read-behind guard input.
    exec_seq: SwitchSeq,
}

impl Vr {
    fn leader(&self, cx: &Ctx) -> ReplicaId {
        cx.member(self.view as usize)
    }

    fn is_leader(&self, cx: &Ctx) -> bool {
        cx.me == self.leader(cx)
    }

    fn execute_up_to(&mut self, n: u64) {
        let n = n.min(self.log.len() as u64);
        let Some(ops) = self.log.get(self.executed as usize..n as usize) else {
            return;
        };
        for op in ops {
            self.store.put(
                op.key.clone(),
                VersionedValue::new(op.value.clone(), op.seq),
            );
            self.exec_seq = self.exec_seq.max(op.seq);
        }
        self.executed = n;
    }

    /// Leader: advance the commit point over consecutively-quorumed ops,
    /// executing and replying as each commits.
    fn advance_commit(&mut self, cx: &mut Ctx, out: &mut Effects) {
        let quorum = ProtocolKind::Vr.quorum(cx.members.len());
        let mut advanced = false;
        while let Some(op) = self.log.get(self.commit_num as usize) {
            let next = self.commit_num + 1;
            let acks = self.prepare_acks.get(&next).map(|s| s.len()).unwrap_or(0);
            // +1 for the leader's own log entry.
            if acks + 1 < quorum {
                break;
            }
            cx.reply_committed(op, false, out);
            self.commit_num = next;
            self.prepare_acks.remove(&next);
            self.execute_up_to(next);
            advanced = true;
        }
        if advanced {
            // §7.3: concurrently with replying, tell the replicas to commit;
            // they answer COMMIT-ACK (the Harmonia-added phase). The
            // baseline also broadcasts commits (VR does this lazily; the
            // periodic tick covers quiescence either way).
            self.broadcast_commit(cx, out);
            self.maybe_emit_completions(cx, out);
        }
    }

    fn broadcast_commit(&self, cx: &Ctx, out: &mut Effects) {
        let msg = VrMsg::Commit {
            view: self.view,
            commit: self.commit_num,
        };
        for r in cx.others() {
            out.protocol(r, ProtocolMsg::Vr(msg.clone()));
        }
    }

    /// Leader: the completion point is the largest op-number that a majority
    /// (counting the leader) has *executed*; emit WRITE-COMPLETIONs up to it.
    fn maybe_emit_completions(&mut self, cx: &Ctx, out: &mut Effects) {
        if !cx.harmonia {
            return;
        }
        let held = self.log.len() as u64;
        let point = cx.majority_executed(self.executed, held, &self.exec_points);
        let Some(ops) = self.log.get(self.completed as usize..point as usize) else {
            return;
        };
        for op in ops {
            let (obj, seq) = (op.obj, op.seq);
            out.completion(cx.via(), WriteCompletion { obj, seq });
        }
        self.completed = point;
    }

    fn prepare_ok(&self, cx: &Ctx, op_num: u64, out: &mut Effects) {
        let msg = VrMsg::PrepareOk {
            view: self.view,
            op_num,
            from: cx.me,
        };
        out.protocol(self.leader(cx), ProtocolMsg::Vr(msg));
    }

    /// Backup: drain consecutively-numbered buffered prepares into the log,
    /// acknowledging each.
    fn drain_prepares(&mut self, cx: &Ctx, out: &mut Effects) {
        while let Some(op) = self.pending_prepares.remove(&(self.log.len() as u64 + 1)) {
            self.log.push(op);
            self.prepare_ok(cx, self.log.len() as u64, out);
        }
    }

    /// Backup: execute through the learned commit point and (under
    /// Harmonia) answer COMMIT-ACK with the executed-through position.
    fn learn_commit(&mut self, cx: &Ctx, commit: u64, out: &mut Effects) {
        self.commit_num = self.commit_num.max(commit.min(self.log.len() as u64));
        let before = self.executed;
        self.execute_up_to(self.commit_num);
        self.commit_ack(cx, before, out);
    }

    /// Under Harmonia, tell the leader how far this replica executed, if
    /// that moved past `before`.
    fn commit_ack(&self, cx: &Ctx, before: u64, out: &mut Effects) {
        if cx.harmonia && self.executed > before {
            let msg = VrMsg::CommitAck {
                view: self.view,
                op_num: self.executed,
                from: cx.me,
            };
            out.protocol(self.leader(cx), ProtocolMsg::Vr(msg));
        }
    }
}

impl Protocol for Vr {
    fn new(config: &GroupConfig) -> Self {
        Vr {
            sync_interval: config.sync_interval,
            view: 0,
            log: Vec::new(),
            commit_num: 0,
            executed: 0,
            pending_prepares: BTreeMap::new(),
            prepare_acks: HashMap::new(),
            exec_points: HashMap::new(),
            completed: 0,
            store: Store::new(),
            exec_seq: SwitchSeq::ZERO,
        }
    }

    fn write_entry(&self, cx: &Ctx) -> Option<ReplicaId> {
        Some(self.leader(cx))
    }

    fn read_server(&self, cx: &Ctx) -> ReplicaId {
        self.leader(cx)
    }

    fn reads(&self) -> Reads<'_> {
        Reads::Behind {
            store: &self.store,
            executed: self.exec_seq,
        }
    }

    fn on_write(&mut self, cx: &mut Ctx, op: WriteOp, out: &mut Effects) {
        self.log.push(op.clone());
        let op_num = self.log.len() as u64;
        for r in cx.others() {
            out.protocol(
                r,
                ProtocolMsg::Vr(VrMsg::Prepare {
                    view: self.view,
                    op_num,
                    op: op.clone(),
                    commit: self.commit_num,
                }),
            );
        }
        // Single-replica group commits immediately.
        self.advance_commit(cx, out);
    }

    fn on_protocol(&mut self, cx: &mut Ctx, msg: ProtocolMsg, out: &mut Effects) {
        let ProtocolMsg::Vr(msg) = msg else { return };
        match msg {
            VrMsg::Prepare {
                view,
                op_num,
                op,
                commit,
            } => {
                if view != self.view || self.is_leader(cx) {
                    return;
                }
                if op_num == self.log.len() as u64 + 1 {
                    self.log.push(op);
                    self.prepare_ok(cx, op_num, out);
                    self.drain_prepares(cx, out);
                } else if op_num > self.log.len() as u64 {
                    self.pending_prepares.insert(op_num, op);
                } else {
                    // Duplicate of something already logged: re-ack.
                    self.prepare_ok(cx, op_num, out);
                }
                self.learn_commit(cx, commit, out);
            }
            VrMsg::PrepareOk { view, op_num, from } => {
                if view != self.view || !self.is_leader(cx) || !cx.is_peer(from) {
                    return;
                }
                if op_num > self.commit_num {
                    self.prepare_acks.entry(op_num).or_default().insert(from);
                    self.advance_commit(cx, out);
                }
            }
            VrMsg::Commit { view, commit } => {
                if view != self.view || self.is_leader(cx) {
                    return;
                }
                self.learn_commit(cx, commit, out);
            }
            VrMsg::CommitAck { view, op_num, from } => {
                if view != self.view || !self.is_leader(cx) || !cx.is_peer(from) {
                    return;
                }
                let p = self.exec_points.entry(from).or_insert(0);
                *p = (*p).max(op_num);
                self.maybe_emit_completions(cx, out);
            }
        }
    }

    fn on_tick(&mut self, cx: &Ctx, out: &mut Effects) {
        // Periodic commit broadcast: keeps backups executing under
        // quiescence and re-drives lost COMMIT/COMMIT-ACK exchanges.
        if self.is_leader(cx) && self.commit_num > 0 {
            self.broadcast_commit(cx, out);
        }
    }

    fn tick_interval(&self) -> Option<Duration> {
        Some(self.sync_interval)
    }

    fn applied_seq(&self) -> SwitchSeq {
        self.exec_seq
    }

    fn export_snapshot(&self) -> Snapshot {
        Snapshot {
            entries: export_store(&self.store),
            log: self.log.clone(),
            state: SnapshotState {
                applied: self.exec_seq,
                commit_num: self.commit_num,
                ..SnapshotState::default()
            },
        }
    }

    fn install_snapshot(&mut self, cx: &mut Ctx, snap: Snapshot, out: &mut Effects) {
        // Log catchup: the leader's log is authoritative and a prefix-
        // superset of ours (a recovering backup buffers live Prepares in
        // `pending_prepares` until the log catches up, so its own log is
        // still empty at install time).
        if snap.log.len() > self.log.len() {
            self.log = snap.log;
        }
        let installed = install_store(&self.store, snap.entries);
        let before = self.executed;
        self.commit_num = self.commit_num.max(snap.state.commit_num);
        self.execute_up_to(self.commit_num);
        // The store now reflects every committed write through the leader's
        // export point, so the read-behind guard may trust that point.
        self.exec_seq = self.exec_seq.max(installed).max(snap.state.applied);
        cx.in_order.accept(snap.state.in_order);
        // Prepares buffered during the transfer now slot onto the caught-up
        // log; ack them so the leader's quorum counting proceeds.
        self.drain_prepares(cx, out);
        self.commit_ack(cx, before, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shell::harness::{pump, seq, write_req};
    use crate::shell::Shell;
    use bytes::Bytes;
    use harmonia_types::{ClientId, NodeId, PacketBody, RequestId, WriteOutcome};

    fn group(n: usize, harmonia: bool) -> Vec<Shell<Vr>> {
        crate::shell::harness::group(ProtocolKind::Vr, n, harmonia)
    }

    fn replies(bodies: &[PacketBody<ProtocolMsg>]) -> Vec<&harmonia_types::ClientReply> {
        bodies
            .iter()
            .filter_map(|b| match b {
                PacketBody::Reply(r) => Some(r),
                _ => None,
            })
            .collect()
    }

    fn completions(bodies: &[PacketBody<ProtocolMsg>]) -> Vec<WriteCompletion> {
        bodies
            .iter()
            .filter_map(|b| match b {
                PacketBody::Completion(c) => Some(*c),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn write_commits_at_majority_and_completion_follows_commit_acks() {
        let mut g = group(3, true);
        let mut fx = Effects::new();
        g[0].on_request(write_req(1, "k", "v", true), &mut fx);
        assert_eq!(fx.len(), 2, "prepare to both backups");
        let bodies = pump(&mut g, fx);
        let rs = replies(&bodies);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].write_outcome, Some(WriteOutcome::Committed));
        assert_eq!(rs[0].completion, None, "read-behind: no piggyback");
        // The COMMIT-ACK phase produced exactly one completion.
        let cs = completions(&bodies);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].seq, seq(1));
        // All replicas executed.
        for rep in &g {
            assert_eq!(rep.local_value(b"k"), Some(Bytes::from_static(b"v")));
        }
    }

    /// COMMIT-ACKs carry peer-supplied points. Acks past everything the
    /// leader holds complete nothing, and an ack from a non-member is not
    /// recorded.
    #[test]
    fn commit_acks_past_the_leaders_log_complete_nothing() {
        let mut g = group(3, true);
        let ack = |from| {
            ProtocolMsg::Vr(VrMsg::CommitAck {
                view: 0,
                op_num: 5,
                from: ReplicaId(from),
            })
        };
        let mut fx = Effects::new();
        g[0].on_protocol(ack(1), &mut fx);
        g[0].on_protocol(ack(2), &mut fx);
        assert!(fx.is_empty(), "the leader's log is empty: {:?}", fx.out);
        g[0].on_protocol(ack(7), &mut fx);
        assert!(fx.is_empty());
        assert!(!g[0].proto.exec_points.contains_key(&ReplicaId(7)));
    }

    /// Only another member's PREPARE-OK counts toward the quorum: one
    /// claiming to be the leader itself, or a stranger, commits nothing.
    #[test]
    fn prepare_oks_from_non_peers_do_not_commit() {
        let mut g = group(3, true);
        let mut fx = Effects::new();
        g[0].on_request(write_req(1, "k", "v", true), &mut fx);
        let ok = |from| {
            ProtocolMsg::Vr(VrMsg::PrepareOk {
                view: 0,
                op_num: 1,
                from: ReplicaId(from),
            })
        };
        let mut out = Effects::new();
        g[0].on_protocol(ok(0), &mut out);
        g[0].on_protocol(ok(7), &mut out);
        assert!(out.is_empty(), "committed without a backup: {:?}", out.out);
        g[0].on_protocol(ok(1), &mut out);
        assert_eq!(replies(&pump(&mut g, out)).len(), 1, "a majority commits");
    }

    #[test]
    fn baseline_emits_no_completions() {
        let mut g = group(3, false);
        let mut fx = Effects::new();
        g[0].on_request(write_req(1, "k", "v", false), &mut fx);
        let bodies = pump(&mut g, fx);
        assert_eq!(replies(&bodies).len(), 1);
        assert!(completions(&bodies).is_empty());
    }

    #[test]
    fn commit_point_needs_majority_not_all() {
        let mut g = group(5, true);
        let mut fx = Effects::new();
        g[0].on_request(write_req(1, "k", "v", true), &mut fx);
        // Deliver prepares to backups 1 and 2 only (leader + 2 = majority of 5).
        let mut acks = Effects::new();
        for (dst, body) in fx.out.drain(..) {
            if let (NodeId::Replica(r), PacketBody::Protocol(m)) = (dst, body) {
                if r.index() <= 2 {
                    g[r.index()].on_protocol(m, &mut acks);
                }
            }
        }
        let bodies = pump(&mut g, acks);
        assert_eq!(replies(&bodies).len(), 1, "commit at majority");
    }

    #[test]
    fn backup_lags_until_commit_message() {
        let mut g = group(3, true);
        let mut fx = Effects::new();
        g[0].on_request(write_req(1, "k", "v", true), &mut fx);
        // Deliver only the prepares (not the resulting acks/commits).
        for (dst, body) in fx.out.drain(..) {
            if let (NodeId::Replica(r), PacketBody::Protocol(m)) = (dst, body) {
                let mut sink = Effects::new();
                g[r.index()].on_protocol(m, &mut sink);
                // Swallow the PrepareOks.
            }
        }
        // Backups logged but did not execute: read-behind.
        assert_eq!(g[1].local_value(b"k"), None);
        assert_eq!(g[1].proto.executed, 0);
        assert_eq!(g[1].proto.log.len(), 1);
    }

    #[test]
    fn out_of_order_prepares_are_buffered_and_drained() {
        let mut g = group(3, true);
        let mk_prepare = |n: u64| {
            ProtocolMsg::Vr(VrMsg::Prepare {
                view: 0,
                op_num: n,
                op: WriteOp {
                    seq: seq(n),
                    obj: harmonia_types::ObjectId::from_key(b"k"),
                    key: Bytes::from_static(b"k"),
                    value: Bytes::copy_from_slice(format!("v{n}").as_bytes()),
                    client: ClientId(1),
                    request: RequestId(n),
                },
                commit: 0,
            })
        };
        let mut fx = Effects::new();
        g[1].on_protocol(mk_prepare(2), &mut fx);
        assert!(fx.is_empty(), "op 2 buffered until op 1 arrives");
        g[1].on_protocol(mk_prepare(1), &mut fx);
        // Both acks now flow (op 1 then op 2).
        let ack_nums: Vec<u64> = fx
            .out
            .iter()
            .filter_map(|(_, b)| match b {
                PacketBody::Protocol(ProtocolMsg::Vr(VrMsg::PrepareOk { op_num, .. })) => {
                    Some(*op_num)
                }
                _ => None,
            })
            .collect();
        assert_eq!(ack_nums, vec![1, 2]);
        assert_eq!(g[1].proto.log.len(), 2);
    }

    #[test]
    fn periodic_tick_rebroadcasts_commit() {
        let mut g = group(3, true);
        let fx = {
            let mut fx = Effects::new();
            g[0].on_request(write_req(1, "k", "v", true), &mut fx);
            fx
        };
        pump(&mut g, fx);
        let mut fx = Effects::new();
        g[0].on_tick(&mut fx);
        assert_eq!(fx.len(), 2, "commit re-broadcast to both backups");
        let mut fx2 = Effects::new();
        g[1].on_tick(&mut fx2);
        assert!(fx2.is_empty(), "backups do not broadcast");
    }

    #[test]
    fn five_node_completion_needs_execution_majority() {
        let mut g = group(5, true);
        let mut fx = Effects::new();
        g[0].on_request(write_req(1, "k", "v", true), &mut fx);
        // Full prepare round, but suppress COMMIT delivery to backups 3 & 4.
        // FIFO delivery: links in one rack preserve order.
        let mut commit_acks_seen = 0;
        let mut queue: std::collections::VecDeque<_> = fx.out.drain(..).collect();
        let mut bodies = vec![];
        while let Some((dst, body)) = queue.pop_front() {
            match (dst, body) {
                (NodeId::Replica(r), PacketBody::Protocol(m)) => {
                    // Drop COMMITs to replicas 3 and 4.
                    if matches!(m, ProtocolMsg::Vr(VrMsg::Commit { .. })) && r.index() >= 3 {
                        continue;
                    }
                    if matches!(m, ProtocolMsg::Vr(VrMsg::CommitAck { .. })) {
                        commit_acks_seen += 1;
                    }
                    let mut next = Effects::new();
                    g[r.index()].on_protocol(m, &mut next);
                    queue.extend(next.out);
                }
                (NodeId::Switch(_), b) => bodies.push(b),
                (NodeId::Replica(_), PacketBody::Request(_)) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(commit_acks_seen, 2, "only replicas 1,2 commit-acked");
        // Quorum = 3 (leader + 2 backups executed): completion emitted.
        assert_eq!(completions(&bodies).len(), 1);
    }
}
