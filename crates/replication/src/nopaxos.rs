//! NOPaxos — consensus from network ordering (Li et al., OSDI '16) — with
//! the Harmonia read-behind adaptation (§7.3).
//!
//! The in-switch sequencer stamps every write with a dense `(session, seq)`
//! pair and the switch multicasts it to all replicas (ordered unreliable
//! multicast). Replicas log stamped writes in order; the leader additionally
//! executes immediately and replies. Followers acknowledge directly to the
//! *client*, which treats a write as committed once it holds replies from a
//! majority including the leader — that client-side quorum is what keeps the
//! leader's per-operation work to one receive and one send, NOPaxos's whole
//! advantage over VR (visible in Figure 9b).
//!
//! Replicas already run a periodic synchronization so that a common log
//! prefix is executed everywhere; Harmonia hooks WRITE-COMPLETIONs onto
//! exactly that mechanism (§7.3): when a synchronization round establishes
//! that a majority has executed through slot `u`, the leader emits
//! completions for every operation up to `u`.
//!
//! Scope: gap recovery covers the common case of a follower missing a
//! multicast copy (it fetches the slot from the leader), so the leader's own
//! copy of every multicast must arrive. Full gap agreement (leader-side
//! no-op commits) and view changes are out of scope, and the test harnesses
//! inject loss only on follower links.

use std::collections::{BTreeMap, HashMap};

use harmonia_kv::{Store, VersionedValue};
use harmonia_types::{Duration, ReplicaId, SwitchSeq, WriteCompletion};

use crate::common::{export_store, install_store, Admission, Effects, GroupConfig, Snapshot};
use crate::messages::{NopaxosMsg, ProtocolMsg, SnapshotState, WriteOp};
use crate::shell::{Ctx, Protocol, Reads};

/// One slot of the NOPaxos log. `fresh` is decided at append time by the
/// per-replica client table; because every replica appends in slot order,
/// the decision is identical everywhere, and execution skips stale slots
/// (at-most-once semantics for duplicated multicasts).
struct LogEntry {
    op: WriteOp,
    fresh: bool,
}

/// NOPaxos's own state.
pub(crate) struct Nopaxos {
    sync_interval: Duration,

    /// Current OUM session (switch incarnation).
    session: u64,
    /// This session's log; slot `i + 1` holds the i-th sequenced write.
    log: Vec<LogEntry>,
    /// Next expected OUM sequence number.
    next_oum: u64,
    /// Out-of-order sequenced writes awaiting the gap fill.
    buffered: BTreeMap<u64, WriteOp>,
    /// Highest slot already requested from the leader (gap dedup).
    gap_requested: u64,
    /// Slots executed (applied to `store`).
    executed: u64,
    /// Leader: executed-through points from SYNC-ACKs.
    sync_points: HashMap<ReplicaId, u64>,
    /// Leader: completions emitted through this slot.
    completed: u64,

    store: Store<VersionedValue>,
    /// Largest switch sequence number among executed writes (guard input).
    exec_seq: SwitchSeq,
}

impl Nopaxos {
    fn execute_up_to(&mut self, slot: u64) {
        let slot = slot.min(self.log.len() as u64);
        let Some(entries) = self.log.get(self.executed as usize..slot as usize) else {
            return;
        };
        for entry in entries {
            if entry.fresh {
                let op = &entry.op;
                self.store.put(
                    op.key.clone(),
                    VersionedValue::new(op.value.clone(), op.seq),
                );
            }
            // The guard point advances over stale slots too: they are
            // processed (as no-ops).
            self.exec_seq = self.exec_seq.max(entry.op.seq);
        }
        self.executed = slot;
    }

    /// Append an in-order sequenced write and react per role: the leader
    /// executes and replies with the result; followers acknowledge straight
    /// to the client (client-side quorum).
    fn append(&mut self, cx: &mut Ctx, op: WriteOp, out: &mut Effects) {
        // Slot-order admission: every replica reaches the same verdict.
        let admission = cx.clients.admit(op.client, op.request);
        let fresh = admission == Admission::Fresh;
        self.log.push(LogEntry {
            op: op.clone(),
            fresh,
        });
        self.next_oum += 1;
        if cx.me == cx.first() {
            self.execute_up_to(self.log.len() as u64);
        }
        match admission {
            Admission::Fresh => cx.reply_committed(&op, false, out),
            // A retransmission was sequenced: re-send this replica's
            // cached acknowledgement instead of re-executing.
            Admission::Duplicate => cx.resend(op.client, op.request, out),
            Admission::Stale => {}
        }
    }

    fn drain_buffered(&mut self, cx: &mut Ctx, out: &mut Effects) {
        while let Some(op) = self.buffered.remove(&self.next_oum) {
            self.append(cx, op, out);
        }
    }

    fn on_sequenced(
        &mut self,
        cx: &mut Ctx,
        session: u64,
        oum_seq: u64,
        op: WriteOp,
        out: &mut Effects,
    ) {
        if session < self.session {
            return; // stale session
        }
        if session > self.session {
            // New switch incarnation. Adopt at the session start; the
            // failover orchestration drains old-session traffic first.
            if oum_seq == 1 {
                self.session = session;
                self.next_oum = 1;
                self.buffered.clear();
                self.gap_requested = 0;
            } else {
                return;
            }
        }
        match oum_seq.cmp(&self.next_oum) {
            std::cmp::Ordering::Equal => {
                self.append(cx, op, out);
                self.drain_buffered(cx, out);
            }
            std::cmp::Ordering::Greater => {
                self.buffered.insert(oum_seq, op);
                // Fetch the missing head-of-line slot from the leader.
                if cx.me != cx.first() && self.gap_requested < self.next_oum {
                    self.gap_requested = self.next_oum;
                    out.protocol(
                        cx.first(),
                        ProtocolMsg::Nopaxos(NopaxosMsg::GapRequest {
                            session: self.session,
                            oum_seq: self.next_oum,
                            from: cx.me,
                        }),
                    );
                }
            }
            std::cmp::Ordering::Less => {} // duplicate
        }
    }

    /// Leader: emit completions once a majority has executed through a slot
    /// (§7.3 — completions ride on the synchronization protocol).
    fn maybe_emit_completions(&mut self, cx: &Ctx, out: &mut Effects) {
        if !cx.harmonia || cx.me != cx.first() {
            return;
        }
        let held = self.log.len() as u64;
        let point = cx.majority_executed(self.executed, held, &self.sync_points);
        let Some(slots) = self.log.get(self.completed as usize..point as usize) else {
            return;
        };
        // Completions are emitted for stale slots too: the duplicate also
        // left a dirty-set entry at the switch that must clear.
        for LogEntry { op, .. } in slots {
            let (obj, seq) = (op.obj, op.seq);
            out.completion(cx.via(), WriteCompletion { obj, seq });
        }
        self.completed = point;
    }
}

impl Protocol for Nopaxos {
    fn new(config: &GroupConfig) -> Self {
        Nopaxos {
            sync_interval: config.sync_interval,
            session: 1,
            log: Vec::new(),
            next_oum: 1,
            buffered: BTreeMap::new(),
            gap_requested: 0,
            executed: 0,
            sync_points: HashMap::new(),
            completed: 0,
            store: Store::new(),
            exec_seq: SwitchSeq::ZERO,
        }
    }

    /// Writes reach NOPaxos replicas only as `Sequenced` multicasts.
    fn write_entry(&self, _cx: &Ctx) -> Option<ReplicaId> {
        None
    }

    fn read_server(&self, cx: &Ctx) -> ReplicaId {
        cx.first()
    }

    fn reads(&self) -> Reads<'_> {
        Reads::Behind {
            store: &self.store,
            executed: self.exec_seq,
        }
    }

    /// Never called: there is no write entry.
    fn on_write(&mut self, _cx: &mut Ctx, _op: WriteOp, _out: &mut Effects) {}

    fn on_protocol(&mut self, cx: &mut Ctx, msg: ProtocolMsg, out: &mut Effects) {
        let ProtocolMsg::Nopaxos(msg) = msg else {
            return;
        };
        let leader = cx.first();
        match msg {
            NopaxosMsg::Sequenced {
                session,
                oum_seq,
                op,
            } => self.on_sequenced(cx, session, oum_seq, op, out),
            NopaxosMsg::GapRequest {
                session,
                oum_seq,
                from,
            } => {
                let slot = oum_seq
                    .checked_sub(1)
                    .and_then(|i| self.log.get(i as usize));
                if let Some(entry) = slot.filter(|_| session == self.session) {
                    let op = Some(entry.op.clone());
                    let reply = NopaxosMsg::GapReply {
                        session,
                        oum_seq,
                        op,
                    };
                    out.protocol(from, ProtocolMsg::Nopaxos(reply));
                }
            }
            NopaxosMsg::GapReply {
                session,
                oum_seq,
                op,
            } => {
                if session == self.session && oum_seq == self.next_oum {
                    if let Some(op) = op {
                        self.append(cx, op, out);
                        self.drain_buffered(cx, out);
                    }
                }
            }
            NopaxosMsg::Sync { session, upto } => {
                if session != self.session || cx.me == leader {
                    return;
                }
                self.execute_up_to(upto);
                out.protocol(
                    leader,
                    ProtocolMsg::Nopaxos(NopaxosMsg::SyncAck {
                        session,
                        upto: self.executed,
                        from: cx.me,
                    }),
                );
            }
            NopaxosMsg::SyncAck {
                session,
                upto,
                from,
            } => {
                if session != self.session || cx.me != leader || !cx.is_peer(from) {
                    return;
                }
                let p = self.sync_points.entry(from).or_insert(0);
                *p = (*p).max(upto);
                self.maybe_emit_completions(cx, out);
            }
        }
    }

    fn on_tick(&mut self, cx: &Ctx, out: &mut Effects) {
        // Periodic synchronization (leader-driven).
        if cx.me == cx.first() && self.executed > 0 {
            let msg = NopaxosMsg::Sync {
                session: self.session,
                upto: self.executed,
            };
            for r in cx.others() {
                out.protocol(r, ProtocolMsg::Nopaxos(msg.clone()));
            }
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
            log: self.log.iter().map(|e| e.op.clone()).collect(),
            state: SnapshotState {
                applied: self.exec_seq,
                // The executed-slot count doubles as the commit point.
                commit_num: self.executed,
                session: self.session,
                ..SnapshotState::default()
            },
        }
    }

    fn install_snapshot(&mut self, cx: &mut Ctx, snap: Snapshot, out: &mut Effects) {
        if snap.state.session > self.session {
            self.session = snap.state.session;
            self.buffered.clear();
            self.gap_requested = 0;
        }
        if snap.log.len() > self.log.len() {
            for op in snap.log.into_iter().skip(self.log.len()) {
                // Freshness verdicts are not shipped: these slots sit at or
                // below the peer's executed point, so execution never
                // reaches them here — the installed store entries already
                // carry their effects. `true` is an unconsulted placeholder.
                self.log.push(LogEntry { op, fresh: true });
            }
        }
        self.next_oum = self.next_oum.max(self.log.len() as u64 + 1);
        let installed = install_store(&self.store, snap.entries);
        self.executed = self
            .executed
            .max(snap.state.commit_num.min(self.log.len() as u64));
        self.exec_seq = self.exec_seq.max(installed).max(snap.state.applied);
        // Sequenced writes that arrived mid-transfer were buffered as
        // out-of-order; they slot onto the caught-up log now.
        self.drain_buffered(cx, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ProtocolKind;
    use crate::shell::harness::{pump, sequenced};
    use crate::shell::Shell;
    use bytes::Bytes;
    use harmonia_types::{
        ClientId, ClientRequest, NodeId, ObjectId, PacketBody, RequestId, SwitchId, WriteOutcome,
    };

    fn group(n: usize, harmonia: bool) -> Vec<Shell<Nopaxos>> {
        crate::shell::harness::group(ProtocolKind::Nopaxos, n, harmonia)
    }

    /// Multicast a sequenced write to every replica; returns switch-bound
    /// bodies after the exchange quiesces.
    fn multicast(g: &mut [Shell<Nopaxos>], msg: ProtocolMsg) -> Vec<PacketBody<ProtocolMsg>> {
        let mut fx = Effects::new();
        for replica in g.iter_mut() {
            replica.on_protocol(msg.clone(), &mut fx);
        }
        pump(g, fx)
    }

    fn count_replies(bodies: &[PacketBody<ProtocolMsg>]) -> usize {
        bodies
            .iter()
            .filter(|b| matches!(b, PacketBody::Reply(_)))
            .count()
    }

    #[test]
    fn every_replica_replies_once_leader_executes() {
        let mut g = group(3, true);
        let bodies = multicast(&mut g, sequenced(1, "k", "v"));
        // All three replicas acknowledge to the client (client-side quorum).
        assert_eq!(count_replies(&bodies), 3);
        // Leader executed immediately; followers have not yet.
        assert_eq!(g[0].local_value(b"k"), Some(Bytes::from_static(b"v")));
        assert_eq!(g[1].local_value(b"k"), None);
    }

    #[test]
    fn sync_executes_followers_and_emits_completions() {
        let mut g = group(3, true);
        multicast(&mut g, sequenced(1, "k", "v"));
        // Leader's periodic sync runs.
        let mut fx = Effects::new();
        g[0].on_tick(&mut fx);
        assert_eq!(fx.len(), 2, "sync to both followers");
        let bodies = pump(&mut g, fx);
        // Followers executed.
        assert_eq!(g[1].local_value(b"k"), Some(Bytes::from_static(b"v")));
        assert_eq!(g[2].local_value(b"k"), Some(Bytes::from_static(b"v")));
        // Quorum executed -> completion emitted for slot 1.
        let comps: Vec<_> = bodies
            .iter()
            .filter(|b| matches!(b, PacketBody::Completion(_)))
            .collect();
        assert_eq!(comps.len(), 1);
    }

    /// SYNC-ACKs carry peer-supplied points. Acks past everything the
    /// leader holds complete nothing, and an ack from a non-member is not
    /// recorded.
    #[test]
    fn sync_acks_past_the_leaders_log_complete_nothing() {
        let mut g = group(3, true);
        let ack = |from| {
            ProtocolMsg::Nopaxos(NopaxosMsg::SyncAck {
                session: 1,
                upto: 5,
                from: ReplicaId(from),
            })
        };
        let mut fx = Effects::new();
        g[0].on_protocol(ack(1), &mut fx);
        g[0].on_protocol(ack(2), &mut fx);
        assert!(fx.is_empty(), "the leader's log is empty: {:?}", fx.out);
        g[0].on_protocol(ack(7), &mut fx);
        assert!(fx.is_empty());
        assert!(!g[0].proto.sync_points.contains_key(&ReplicaId(7)));
    }

    #[test]
    fn baseline_sync_emits_no_completions() {
        let mut g = group(3, false);
        multicast(&mut g, sequenced(1, "k", "v"));
        let mut fx = Effects::new();
        g[0].on_tick(&mut fx);
        let bodies = pump(&mut g, fx);
        assert!(bodies
            .iter()
            .all(|b| !matches!(b, PacketBody::Completion(_))));
    }

    #[test]
    fn follower_gap_is_filled_from_the_leader() {
        let mut g = group(3, true);
        // Slot 1 reaches everyone.
        multicast(&mut g, sequenced(1, "a", "va"));
        // Slot 2's copy to follower 1 is lost; followers 0 (leader) and 2
        // receive it.
        let msg2 = sequenced(2, "b", "vb");
        let mut fx = Effects::new();
        g[0].on_protocol(msg2.clone(), &mut fx);
        g[2].on_protocol(msg2, &mut fx);
        pump(&mut g, fx);
        assert_eq!(g[1].proto.log.len(), 1, "follower 1 missed slot 2");
        // Slot 3 arrives at follower 1: it detects the gap and fetches
        // slot 2 from the leader.
        let msg3 = sequenced(3, "c", "vc");
        let mut fx = Effects::new();
        g[1].on_protocol(msg3.clone(), &mut fx);
        assert!(
            fx.out.iter().any(|(dst, b)| matches!(
                (dst, b),
                (
                    NodeId::Replica(ReplicaId(0)),
                    PacketBody::Protocol(ProtocolMsg::Nopaxos(NopaxosMsg::GapRequest { .. }))
                )
            )),
            "gap request sent to leader"
        );
        pump(&mut g, fx);
        assert_eq!(g[1].proto.log.len(), 3, "gap filled, buffered slot drained");
    }

    #[test]
    fn new_session_adopted_at_slot_one() {
        let mut g = group(3, true);
        multicast(&mut g, sequenced(1, "k", "v1"));
        // Switch 2 takes over: new session, slot numbering restarts.
        let msg = ProtocolMsg::Nopaxos(NopaxosMsg::Sequenced {
            session: 2,
            oum_seq: 1,
            op: WriteOp {
                seq: SwitchSeq::new(SwitchId(2), 1),
                obj: ObjectId::from_key(b"k"),
                key: Bytes::from_static(b"k"),
                value: Bytes::from_static(b"v2"),
                client: ClientId(1),
                request: RequestId(7),
            },
        });
        multicast(&mut g, msg);
        assert_eq!(g[0].proto.session, 2);
        assert_eq!(g[0].local_value(b"k"), Some(Bytes::from_static(b"v2")));
        // Stale old-session traffic is ignored.
        let bodies = multicast(&mut g, sequenced(2, "k", "stale"));
        assert_eq!(count_replies(&bodies), 0);
        assert_eq!(g[0].local_value(b"k"), Some(Bytes::from_static(b"v2")));
    }

    #[test]
    fn raw_write_request_is_rejected() {
        let mut g = group(3, true);
        let req = ClientRequest::write(ClientId(1), RequestId(1), &b"k"[..], &b"v"[..]);
        let mut fx = Effects::new();
        g[0].on_request(req, &mut fx);
        let PacketBody::Reply(r) = &fx.out[0].1 else {
            panic!()
        };
        assert_eq!(r.write_outcome, Some(WriteOutcome::Rejected));
    }

    /// Any sender can ask for any slot: one the log does not hold — slot 0
    /// included — gets no answer.
    #[test]
    fn gap_request_outside_the_log_is_ignored() {
        let mut g = group(3, true);
        multicast(&mut g, sequenced(1, "k", "v"));
        for oum_seq in [0, 2, u64::MAX] {
            let ask = NopaxosMsg::GapRequest {
                session: 1,
                oum_seq,
                from: ReplicaId(1),
            };
            let mut fx = Effects::new();
            g[0].on_protocol(ProtocolMsg::Nopaxos(ask), &mut fx);
            assert!(fx.is_empty(), "slot {oum_seq}: {fx:?}");
        }
    }
}
