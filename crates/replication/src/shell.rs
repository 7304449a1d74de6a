//! The Harmonia shell: what every replica does alike, around any
//! [`Protocol`]. A [`Server`](crate::Server) holds one.
//!
//! The paper's claim of generality (§7, Figure 9) is that Harmonia fits a
//! replication protocol once the protocol answers two questions: what a
//! replica may answer alone ([`Protocol::reads`]), and who serves a normal
//! read ([`Protocol::read_server`]). A protocol keeps its write path, its
//! messages, its tick and its snapshot. [`Shell`] does the rest, once for
//! all five protocols:
//!
//! * the lease and the membership, and the control messages that move them
//!   (§5.3; §7 responsibility 2);
//! * every read: the lease check and the protocol's guard, then a local
//!   reply — or the read re-marked `Normal`, answered in place at the read
//!   server or forwarded to it (§7.2, §7.3);
//! * the write entry: a misrouted write goes to the entry node, which admits
//!   each `(client, request)` once, stamps it, and rejects it if it is out of
//!   sequence-number order (§7 responsibility 1).
//!
//! The shell runs on every packet a replica receives, so like every file
//! of this crate it is on `harmonia-lint`'s `panic_path` list: no input may
//! panic it.

use std::collections::HashMap;

use bytes::Bytes;
use harmonia_kv::{Store, VersionChain, VersionedValue};
use harmonia_types::{
    ClientId, ClientReply, ClientRequest, Duration, OpKind, ReadMode, ReplicaId, RequestId,
    SwitchId, SwitchSeq, WriteCompletion, WriteOutcome,
};

use crate::common::{
    read_ahead_probe, read_behind_ok, read_reply, Admission, ClientTable, Effects, GroupConfig,
    InOrder, LeaseState, Snapshot,
};
use crate::messages::{ProtocolMsg, ReplicaControlMsg, SnapshotState, WriteOp};

/// The three read rules: what a replica may answer alone, over which store.
pub(crate) enum Reads<'a> {
    /// Read-ahead (PB, chain): replicas apply writes before they commit. A
    /// fast-path read is answered iff the stamped last-committed point
    /// covers the object's applied version ([`read_ahead_probe`]); the read
    /// server's store holds committed state only.
    Ahead(&'a Store<VersionedValue>),
    /// Read-behind (VR, NOPaxos): replicas execute writes after they commit.
    /// A fast-path read is answered iff `executed`, the largest sequence
    /// number executed here, reaches the stamped point ([`read_behind_ok`]).
    Behind {
        store: &'a Store<VersionedValue>,
        executed: SwitchSeq,
    },
    /// CRAQ: any replica answers a clean key, whatever the switch marked; a
    /// dirty key goes to the read server (the tail).
    Clean(&'a Store<VersionChain>),
}

/// One replication protocol's own part: its write path, messages, tick and
/// snapshot, and its answers to the shell's two questions. Every hook gets
/// the shell's [`Ctx`].
pub(crate) trait Protocol: Send {
    /// Whether a write takes the switch's stamp under Harmonia. CRAQ, the
    /// protocol-level alternative, versions every write at its head.
    const SWITCH_STAMPS: bool = true;

    /// Fresh protocol state for `config`.
    fn new(config: &GroupConfig) -> Self;

    /// The replica a client write enters at (primary, head, leader), or
    /// `None` where writes never arrive as requests (NOPaxos: the switch
    /// sequences them).
    fn write_entry(&self, cx: &Ctx) -> Option<ReplicaId>;

    /// The replica that serves normal reads, and every read another replica
    /// may not answer alone (primary, tail, leader).
    fn read_server(&self, cx: &Ctx) -> ReplicaId;

    /// This protocol's read rule, over this replica's state.
    fn reads(&self) -> Reads<'_>;

    /// A retransmitted write reached the entry node. By default the entry
    /// node is the replying node: it re-sends the cached reply.
    fn on_duplicate(&mut self, cx: &Ctx, client: ClientId, request: RequestId, out: &mut Effects) {
        cx.resend(client, request, out);
    }

    /// A fresh write at the entry node: admitted, stamped, in order.
    fn on_write(&mut self, cx: &mut Ctx, op: WriteOp, out: &mut Effects);

    /// A protocol message; control messages are the shell's.
    fn on_protocol(&mut self, cx: &mut Ctx, msg: ProtocolMsg, out: &mut Effects);

    /// Periodic tick, at [`Protocol::tick_interval`].
    fn on_tick(&mut self, _cx: &Ctx, _out: &mut Effects) {}

    /// How often `on_tick` should run, if at all.
    fn tick_interval(&self) -> Option<Duration> {
        None
    }

    /// The largest write sequence number applied/executed here.
    fn applied_seq(&self) -> SwitchSeq;

    /// The protocol's state for a rejoining peer; the shell adds its own.
    fn export_snapshot(&self) -> Snapshot;

    /// Install a peer's state; the shell has installed its own already.
    fn install_snapshot(&mut self, cx: &mut Ctx, snap: Snapshot, out: &mut Effects);
}

/// The shell's state, lent to the protocol: who this replica is, its
/// group, its lease, and what the write entry keeps between writes.
pub(crate) struct Ctx {
    /// This replica.
    pub(crate) me: ReplicaId,
    /// Role order: index 0 is the primary / head / leader, the last is the
    /// chain tail. Never empty unless configured so.
    pub(crate) members: Vec<ReplicaId>,
    /// Whether the Harmonia adaptation is on.
    pub(crate) harmonia: bool,
    lease: LeaseState,
    /// Exactly-once write sessions, and the replying node's reply cache.
    pub(crate) clients: ClientTable,
    /// The sequence-number order writes are accepted in.
    pub(crate) in_order: InOrder,
    /// The entry node's own version counter, where the switch does not
    /// stamp.
    pub(crate) local_seq: u64,
}

impl Ctx {
    /// The switch this replica's lease honours: where replies and
    /// completions go.
    pub(crate) fn via(&self) -> SwitchId {
        self.lease.active()
    }

    /// Member `i` in role order, wrapping around.
    pub(crate) fn member(&self, i: usize) -> ReplicaId {
        let n = self.members.len().max(1);
        self.members.get(i % n).copied().unwrap_or(self.me)
    }

    /// The primary / head / leader.
    pub(crate) fn first(&self) -> ReplicaId {
        self.member(0)
    }

    /// The chain tail.
    pub(crate) fn last(&self) -> ReplicaId {
        self.members.last().copied().unwrap_or(self.me)
    }

    /// Every member but this replica, in role order.
    pub(crate) fn others(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        self.members.iter().copied().filter(move |&r| r != self.me)
    }

    fn position(&self) -> Option<usize> {
        self.members.iter().position(|&r| r == self.me)
    }

    /// The next node down the chain; `None` at the tail (or off the chain).
    pub(crate) fn successor(&self) -> Option<ReplicaId> {
        self.members.get(self.position()? + 1).copied()
    }

    /// The next node up the chain; `None` at the head (or off the chain).
    pub(crate) fn predecessor(&self) -> Option<ReplicaId> {
        self.members.get(self.position()?.checked_sub(1)?).copied()
    }

    /// Whether `r` is another current member: the acks that count.
    pub(crate) fn is_peer(&self, r: ReplicaId) -> bool {
        r != self.me && self.members.contains(&r)
    }

    /// Read-behind completions (§7.3): the largest point a majority has
    /// executed through — this replica at `own`, the others at what they
    /// acknowledged — but never past the `held` operations this replica
    /// holds: acknowledged points are peer-supplied.
    pub(crate) fn majority_executed(
        &self,
        own: u64,
        held: u64,
        acked: &HashMap<ReplicaId, u64>,
    ) -> u64 {
        let mut points: Vec<u64> = self
            .members
            .iter()
            .map(|r| {
                if *r == self.me {
                    own
                } else {
                    acked.get(r).copied().unwrap_or(0)
                }
            })
            .collect();
        points.sort_unstable_by(|a, b| b.cmp(a));
        let point = points.get(self.members.len() / 2).copied().unwrap_or(0);
        point.min(held)
    }

    /// Reply `Committed` to `op`'s client and cache the reply for its
    /// retransmissions. `piggyback`: a read-ahead protocol completes the
    /// write at reply time, so under Harmonia the completion rides on the
    /// reply (Figure 2b).
    pub(crate) fn reply_committed(&mut self, op: &WriteOp, piggyback: bool, out: &mut Effects) {
        let completion = WriteCompletion {
            obj: op.obj,
            seq: op.seq,
        };
        let reply = ClientReply {
            client: op.client,
            from: self.me,
            request: op.request,
            obj: op.obj,
            value: None,
            write_outcome: Some(WriteOutcome::Committed),
            completion: (piggyback && self.harmonia).then_some(completion),
        };
        self.clients.record_reply(reply.clone());
        out.reply(self.via(), reply);
    }

    /// Re-send the cached reply for a retransmitted write, if the original
    /// completed (else its in-flight reply serves).
    pub(crate) fn resend(&self, client: ClientId, request: RequestId, out: &mut Effects) {
        if let Some(r) = self.clients.cached_reply(client, request) {
            out.reply(self.via(), r);
        }
    }

    fn reject(&self, req: &ClientRequest, out: &mut Effects) {
        let reply = ClientReply {
            write_outcome: Some(WriteOutcome::Rejected),
            ..read_reply(self.me, req, None)
        };
        out.reply(self.via(), reply);
    }

    /// The configuration service moves the lease and the membership.
    fn handle_control(&mut self, msg: ReplicaControlMsg) {
        match msg {
            ReplicaControlMsg::SetActiveSwitch(s) => self.lease.set_active(s),
            ReplicaControlMsg::SetMembers(m) if !m.is_empty() => self.members = m,
            // Every role is a position in the list, and an empty one names
            // nobody. Any sender can put it on a replica's socket: keep the
            // membership it would replace.
            ReplicaControlMsg::SetMembers(_) => {}
        }
    }
}

/// The Harmonia shell around protocol `P`.
pub(crate) struct Shell<P> {
    pub(crate) cx: Ctx,
    pub(crate) proto: P,
}

impl<P: Protocol> Shell<P> {
    /// The replica for `config`.
    pub(crate) fn new(config: GroupConfig) -> Self {
        Shell {
            proto: P::new(&config),
            cx: Ctx {
                me: config.me,
                members: config.members,
                harmonia: config.harmonia,
                lease: LeaseState::new(config.active_switch),
                clients: ClientTable::new(),
                in_order: InOrder::new(),
                local_seq: 0,
            },
        }
    }

    fn on_write(&mut self, req: ClientRequest, out: &mut Effects) {
        let Some(entry) = self.proto.write_entry(&self.cx) else {
            // The sequencer was bypassed and nothing here can order the
            // write: reject it, and the client retries through the switch.
            return self.cx.reject(&req, out);
        };
        if entry != self.cx.me {
            // Misrouted (e.g. stale forwarding state): hand it on.
            return out.forward_request(entry, req);
        }
        match self.cx.clients.admit(req.client, req.request) {
            Admission::Fresh => {}
            Admission::Duplicate => {
                return self
                    .proto
                    .on_duplicate(&self.cx, req.client, req.request, out);
            }
            Admission::Stale => return,
        }
        let cx = &mut self.cx;
        let seq = match req.seq {
            Some(s) if cx.harmonia && P::SWITCH_STAMPS => s,
            _ => {
                // A snapshot can install any counter: at the top it stays
                // there, and the in-order check rejects what follows.
                cx.local_seq = cx.local_seq.saturating_add(1);
                SwitchSeq::new(cx.via(), cx.local_seq)
            }
        };
        if !cx.in_order.accept(seq) {
            return cx.reject(&req, out);
        }
        let op = WriteOp {
            seq,
            obj: req.obj,
            key: req.key,
            value: req.value.unwrap_or_default(),
            client: req.client,
            request: req.request,
        };
        self.proto.on_write(cx, op, out);
    }

    fn on_read(&self, mut req: ClientRequest, out: &mut Effects) {
        let (cx, me) = (&self.cx, self.cx.me);
        let server = self.proto.read_server(cx);
        let leased =
            matches!(req.read_mode, ReadMode::FastPath { switch } if cx.lease.allows(switch));
        let stamped = req.last_committed.unwrap_or(SwitchSeq::ZERO);
        let answer = match self.proto.reads() {
            Reads::Ahead(store) => leased
                .then(|| read_ahead_probe(store, &req.key, stamped))
                .flatten()
                .or_else(|| (me == server).then(|| value_at(store, &req.key))),
            Reads::Behind { store, executed } => {
                let guarded = leased && read_behind_ok(executed, stamped);
                (guarded || me == server).then(|| value_at(store, &req.key))
            }
            Reads::Clean(chains) => chains.with(&req.key, |chain| match chain {
                Some(c) if c.is_dirty() && me != server => None,
                c => Some(c.and_then(|c| c.clean()).map(|v| v.value.clone())),
            }),
        };
        match answer {
            Some(value) => out.reply(cx.via(), read_reply(me, &req, value)),
            None => {
                req.read_mode = ReadMode::Normal;
                out.forward_request(server, req);
            }
        }
    }

    /// A client request: a write, a normal read, or a fast-path read.
    pub(crate) fn on_request(&mut self, req: ClientRequest, out: &mut Effects) {
        match req.op {
            OpKind::Write => self.on_write(req, out),
            OpKind::Read => self.on_read(req, out),
        }
    }

    /// A protocol message; control messages are the shell's own.
    pub(crate) fn on_protocol(&mut self, msg: ProtocolMsg, out: &mut Effects) {
        match msg {
            ProtocolMsg::Control(ctl) => self.cx.handle_control(ctl),
            msg => self.proto.on_protocol(&mut self.cx, msg, out),
        }
    }

    pub(crate) fn on_tick(&mut self, out: &mut Effects) {
        self.proto.on_tick(&self.cx, out);
    }

    pub(crate) fn tick_interval(&self) -> Option<Duration> {
        self.proto.tick_interval()
    }

    /// This replica's applied value for `key`.
    pub(crate) fn local_value(&self, key: &[u8]) -> Option<Bytes> {
        match self.proto.reads() {
            Reads::Ahead(store) | Reads::Behind { store, .. } => value_at(store, key),
            Reads::Clean(chains) => {
                chains.with(key, |c| c.and_then(|c| c.latest()).map(|v| v.value.clone()))
            }
        }
    }

    pub(crate) fn applied_seq(&self) -> SwitchSeq {
        self.proto.applied_seq()
    }

    /// This replica's full state for a rejoining peer: the protocol's
    /// store, log and scalars, and the shell's own.
    pub(crate) fn export_snapshot(&self) -> Snapshot {
        let (clients, replies) = self.cx.clients.export();
        let mut snap = self.proto.export_snapshot();
        snap.state = SnapshotState {
            in_order: self.cx.in_order.last(),
            local_seq: self.cx.local_seq,
            clients,
            replies,
            ..snap.state
        };
        snap
    }

    /// Install a peer's exported state into this (freshly started) replica.
    /// Installation is *versioned*: a key is only overwritten where the
    /// snapshot's version is newer than what this replica applied live
    /// while the transfer was in flight, so install commutes with
    /// interleaved new writes. May emit protocol messages (e.g. PB acks for
    /// pending writes the primary is still waiting on).
    pub(crate) fn install_snapshot(&mut self, mut snap: Snapshot, out: &mut Effects) {
        let state = &mut snap.state;
        self.cx.local_seq = self.cx.local_seq.max(state.local_seq);
        let (clients, replies) = (
            std::mem::take(&mut state.clients),
            std::mem::take(&mut state.replies),
        );
        self.cx.clients.install(clients, replies);
        self.proto.install_snapshot(&mut self.cx, snap, out);
    }
}

fn value_at(store: &Store<VersionedValue>, key: &[u8]) -> Option<Bytes> {
    store.with(key, |v| v.map(|vv| vv.value.clone()))
}

#[cfg(test)]
pub(crate) mod harness {
    //! What the protocols' unit tests share: a group of shells, client
    //! writes, and a pump that delivers effects until nothing moves.

    use super::*;
    use crate::common::ProtocolKind;
    use crate::messages::NopaxosMsg;
    use harmonia_types::{NodeId, ObjectId, PacketBody};

    /// Sequence number `n` of switch 1.
    pub(crate) fn seq(n: u64) -> SwitchSeq {
        SwitchSeq::new(SwitchId(1), n)
    }

    /// Replicas `0..n` of one group running `P`.
    pub(crate) fn group<P: Protocol>(
        kind: ProtocolKind,
        n: usize,
        harmonia: bool,
    ) -> Vec<Shell<P>> {
        (0..n as u32)
            .map(|i| Shell::new(GroupConfig::new(kind, n, i, harmonia)))
            .collect()
    }

    /// Client 1's request `n`: `key = val`, stamped `seq(n)` under Harmonia.
    pub(crate) fn write_req(n: u64, key: &str, val: &str, harmonia: bool) -> ClientRequest {
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

    /// The same write as NOPaxos receives it: the switch's multicast of
    /// slot `n` in session 1.
    pub(crate) fn sequenced(n: u64, key: &str, val: &str) -> ProtocolMsg {
        ProtocolMsg::Nopaxos(NopaxosMsg::Sequenced {
            session: 1,
            oum_seq: n,
            op: WriteOp {
                seq: seq(n),
                obj: ObjectId::from_key(key.as_bytes()),
                key: Bytes::copy_from_slice(key.as_bytes()),
                value: Bytes::copy_from_slice(val.as_bytes()),
                client: ClientId(1),
                request: RequestId(n),
            },
        })
    }

    /// What the pump delivers to: a bare shell, or a whole server.
    pub(crate) trait Node {
        fn take(&mut self, body: PacketBody<ProtocolMsg>, out: &mut Effects);
    }

    impl<P: Protocol> Node for Shell<P> {
        fn take(&mut self, body: PacketBody<ProtocolMsg>, out: &mut Effects) {
            match body {
                PacketBody::Request(req) => self.on_request(req, out),
                PacketBody::Protocol(m) => self.on_protocol(m, out),
                other => panic!("not for a replica: {other:?}"),
            }
        }
    }

    impl Node for crate::Server {
        fn take(&mut self, body: PacketBody<ProtocolMsg>, out: &mut Effects) {
            self.on_packet(body, out);
        }
    }

    /// Deliver `fx` and everything it causes, except what is addressed to
    /// `cut`; returns the bodies addressed to a switch, in order.
    pub(crate) fn deliver<N: Node>(
        g: &mut [N],
        mut fx: Effects,
        cut: Option<ReplicaId>,
    ) -> Vec<PacketBody<ProtocolMsg>> {
        let mut to_switch = vec![];
        while !fx.is_empty() {
            let mut next = Effects::new();
            for (dst, body) in fx.out.drain(..) {
                match (dst, body) {
                    (NodeId::Replica(r), _) if Some(r) == cut => {}
                    (NodeId::Replica(r), b) => g[r.index()].take(b, &mut next),
                    (NodeId::Switch(_), b) => to_switch.push(b),
                    other => panic!("unexpected effect {other:?}"),
                }
            }
            fx = next;
        }
        to_switch
    }

    /// [`deliver`] with nothing cut.
    pub(crate) fn pump<N: Node>(g: &mut [N], fx: Effects) -> Vec<PacketBody<ProtocolMsg>> {
        deliver(g, fx, None)
    }
}

#[cfg(test)]
mod tests {
    use super::harness::*;
    use super::*;
    use crate::chain::Chain;
    use crate::common::ProtocolKind;
    use crate::craq::Craq;
    use crate::nopaxos::Nopaxos;
    use crate::pb::Pb;
    use crate::vr::Vr;
    use harmonia_types::{NodeId, PacketBody};

    fn control(ctl: ReplicaControlMsg) -> ProtocolMsg {
        ProtocolMsg::Control(ctl)
    }

    #[test]
    fn control_messages_move_the_lease_and_the_membership() {
        let mut g = group::<Pb>(ProtocolKind::PrimaryBackup, 2, true);
        let mut fx = Effects::new();
        let to = |s: u32| control(ReplicaControlMsg::SetActiveSwitch(SwitchId(s)));
        g[0].on_protocol(to(3), &mut fx);
        assert_eq!(g[0].cx.via(), SwitchId(3));
        g[0].on_protocol(to(2), &mut fx);
        assert_eq!(g[0].cx.via(), SwitchId(3), "the lease is monotone");
        let members = |m: Vec<ReplicaId>| control(ReplicaControlMsg::SetMembers(m));
        g[0].on_protocol(members(vec![ReplicaId(1)]), &mut fx);
        assert_eq!(g[0].cx.members, vec![ReplicaId(1)]);
        g[0].on_protocol(members(vec![]), &mut fx);
        assert_eq!(g[0].cx.members, vec![ReplicaId(1)], "nobody named");
        assert!(fx.is_empty());
    }

    /// `SetMembers(vec![])` decodes from any datagram, and every role is a
    /// position in the membership: a replica that adopted it would panic on
    /// its next request. It keeps the membership it has instead, so a read
    /// and a write afterwards do exactly what they do without it.
    #[test]
    fn an_empty_membership_changes_nothing() {
        use ProtocolKind::*;
        for (kind, harmonia) in [
            (PrimaryBackup, true),
            (Chain, true),
            (Craq, false),
            (Vr, true),
            (Nopaxos, true),
        ] {
            let run = |garbage: bool| {
                let replica = |i: u32| {
                    let mut r = crate::Server::new(GroupConfig::new(kind, 3, i, harmonia), None);
                    let mut fx = Effects::new();
                    if garbage {
                        let empty = control(ReplicaControlMsg::SetMembers(vec![]));
                        r.on_packet(PacketBody::Protocol(empty), &mut fx);
                    }
                    let read = ClientRequest::read(ClientId(2), RequestId(9), &b"k"[..]);
                    r.on_packet(PacketBody::Request(read), &mut fx);
                    let write = write_req(1, "k", "v", harmonia);
                    r.on_packet(PacketBody::Request(write), &mut fx);
                    fx.out
                };
                (0..3).map(replica).collect::<Vec<_>>()
            };
            assert_eq!(run(true), run(false), "{kind:?}");
        }
    }

    /// Write `key = val` as client request `n`, the way `P` takes writes
    /// from the switch, and deliver what follows except to `cut`.
    fn write_through<P: Protocol>(
        g: &mut [Shell<P>],
        n: u64,
        (key, val): (&str, &str),
        cut: Option<ReplicaId>,
    ) {
        let mut fx = Effects::new();
        if g[0].proto.write_entry(&g[0].cx).is_some() {
            let req = write_req(n, key, val, true);
            g[0].on_request(req, &mut fx);
        } else {
            for (i, r) in (0u32..).zip(g.iter_mut()) {
                if cut != Some(ReplicaId(i)) {
                    let msg = sequenced(n, key, val);
                    r.on_protocol(msg, &mut fx);
                }
            }
        }
        deliver(g, fx, cut);
    }

    fn fast_read(key: &str, switch: u32, stamped: SwitchSeq) -> ClientRequest {
        let mut r = ClientRequest::read(ClientId(2), RequestId(9), key.as_bytes().to_vec());
        r.read_mode = ReadMode::FastPath {
            switch: SwitchId(switch),
        };
        r.last_committed = Some(stamped);
        r
    }

    fn value(v: &str) -> Option<Bytes> {
        Some(Bytes::copy_from_slice(v.as_bytes()))
    }

    /// Replica `i` answers `req` alone, with `v`.
    fn local<P: Protocol>(g: &mut [Shell<P>], i: u32, req: ClientRequest, v: &str) {
        let mut fx = Effects::new();
        g[i as usize].on_request(req.clone(), &mut fx);
        let reply = read_reply(ReplicaId(i), &req, value(v));
        let want = vec![(NodeId::Switch(g[0].cx.via()), PacketBody::Reply(reply))];
        assert_eq!(fx.out, want, "{} at {i}", std::any::type_name::<P>());
    }

    /// Replica `i` does not answer `req` alone: it becomes a normal read,
    /// and the read server answers it with `v` from committed state — in
    /// place, or after a forward.
    fn fallback<P: Protocol>(g: &mut [Shell<P>], i: u32, req: ClientRequest, v: &str) {
        let at = format!("{} at {i}", std::any::type_name::<P>());
        let server = g[0].proto.read_server(&g[0].cx);
        let mut fx = Effects::new();
        g[i as usize].on_request(req.clone(), &mut fx);
        let normal = ClientRequest {
            read_mode: ReadMode::Normal,
            ..req
        };
        let reply = PacketBody::Reply(read_reply(server, &normal, value(v)));
        if ReplicaId(i) == server {
            let via = NodeId::Switch(g[0].cx.via());
            assert_eq!(fx.out, vec![(via, reply)], "{at}: answered in place");
        } else {
            let fwd = (NodeId::Replica(server), PacketBody::Request(normal));
            assert_eq!(fx.out, vec![fwd], "{at}: forwarded as a normal read");
            assert_eq!(pump(g, fx), vec![reply], "{at}");
        }
    }

    /// The fast path and its fallback at every replica of a 3-replica
    /// group — the read server and the others. `j` is committed everywhere;
    /// `k` holds a committed `k2` and a later `k3` that cannot commit, as
    /// whatever the read server needs to commit it is lost (read-ahead
    /// replicas other than the server applied it, read-behind replicas only
    /// logged it). The switch's last-committed point is `seq(2)`.
    fn fast_path_matrix<P: Protocol>(kind: ProtocolKind) {
        let mut g = group::<P>(kind, 3, true);
        let server = g[0].proto.read_server(&g[0].cx);
        write_through(&mut g, 1, ("j", "j1"), None);
        write_through(&mut g, 2, ("k", "k2"), None);
        // Read-behind followers execute what the leader's sync says.
        for i in 0..g.len() {
            let mut fx = Effects::new();
            g[i].on_tick(&mut fx);
            pump(&mut g, fx);
        }
        write_through(&mut g, 3, ("k", "k3"), Some(server));
        // A stamp the guard refuses for `k`: older than the object's
        // applied version (read-ahead), or past what was executed
        // (read-behind).
        let refused = match g[0].proto.reads() {
            Reads::Ahead(_) => seq(1),
            _ => seq(3),
        };
        for i in 0..3 {
            local(&mut g, i, fast_read("j", 1, seq(2)), "j1");
            fallback(&mut g, i, fast_read("k", 1, refused), "k2");
        }
        // The lease moves on: a read the old switch marked for the fast path
        // is never answered alone.
        for r in g.iter_mut() {
            let to = control(ReplicaControlMsg::SetActiveSwitch(SwitchId(2)));
            r.on_protocol(to, &mut Effects::new());
        }
        for i in 0..3 {
            fallback(&mut g, i, fast_read("j", 1, seq(2)), "j1");
        }
    }

    #[test]
    fn read_matrix_over_the_four_harmonia_protocols() {
        fast_path_matrix::<Pb>(ProtocolKind::PrimaryBackup);
        fast_path_matrix::<Chain>(ProtocolKind::Chain);
        fast_path_matrix::<Vr>(ProtocolKind::Vr);
        fast_path_matrix::<Nopaxos>(ProtocolKind::Nopaxos);
    }

    /// CRAQ's own rule: a clean key is answered wherever the read lands, a
    /// dirty one by the tail.
    #[test]
    fn read_matrix_over_craq() {
        let mut g = group::<Craq>(ProtocolKind::Craq, 3, false);
        write_through(&mut g, 1, ("k", "k1"), None);
        // A second write is staged at the head and gets no further.
        write_through(&mut g, 2, ("k", "k2"), Some(ReplicaId(1)));
        let read = || ClientRequest::read(ClientId(2), RequestId(9), &b"k"[..]);
        fallback(&mut g, 0, read(), "k1");
        local(&mut g, 1, read(), "k1");
        local(&mut g, 2, read(), "k1");
    }
}
