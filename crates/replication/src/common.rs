//! Shared protocol plumbing: the replica trait, effects, configuration, and
//! the three Harmonia responsibilities from §7 of the paper.

use bytes::Bytes;
use harmonia_types::{
    ClientReply, ClientRequest, ControlMsg, Duration, NodeId, PacketBody, ReplicaId, SwitchId,
    SwitchSeq, WriteCompletion,
};

use crate::messages::{ProtocolMsg, SnapshotEntry, SnapshotState, StateTransferMsg, WriteOp};

/// Which replication protocol a group runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProtocolKind {
    /// Primary-backup (§2).
    PrimaryBackup,
    /// Chain replication.
    Chain,
    /// CRAQ (baseline comparison only; no Harmonia adaptation exists —
    /// CRAQ *is* the protocol-level alternative).
    Craq,
    /// Viewstamped Replication / Multi-Paxos.
    Vr,
    /// NOPaxos.
    Nopaxos,
}

impl ProtocolKind {
    /// Stable lowercase name, used as the `protocol` label in
    /// observability exports.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::PrimaryBackup => "primary_backup",
            ProtocolKind::Chain => "chain",
            ProtocolKind::Craq => "craq",
            ProtocolKind::Vr => "vr",
            ProtocolKind::Nopaxos => "nopaxos",
        }
    }

    /// Writes entering a quorum protocol need a majority; primary-backup
    /// protocols need every replica.
    pub fn quorum(self, n: usize) -> usize {
        match self {
            ProtocolKind::PrimaryBackup | ProtocolKind::Chain | ProtocolKind::Craq => n,
            ProtocolKind::Vr | ProtocolKind::Nopaxos => n / 2 + 1,
        }
    }
}

/// Per-replica configuration.
#[derive(Clone, Debug)]
pub struct GroupConfig {
    /// The protocol this group runs.
    pub protocol: ProtocolKind,
    /// This replica's id.
    pub me: ReplicaId,
    /// Ordered membership: index 0 is primary/head/leader; the last element
    /// is the chain tail.
    pub members: Vec<ReplicaId>,
    /// Whether the Harmonia adaptation is active (switch-stamped sequence
    /// numbers, write completions, fast-path read guards).
    pub harmonia: bool,
    /// The currently active switch (lease, §5.3).
    pub active_switch: SwitchId,
    /// VR commit-broadcast / NOPaxos synchronization cadence.
    pub sync_interval: Duration,
}

impl GroupConfig {
    /// A default-configured group of `n` replicas for `protocol`, as seen by
    /// replica `me`.
    pub fn new(protocol: ProtocolKind, n: usize, me: u32, harmonia: bool) -> Self {
        GroupConfig {
            protocol,
            me: ReplicaId(me),
            members: (0..n as u32).map(ReplicaId).collect(),
            harmonia,
            active_switch: SwitchId(1),
            sync_interval: Duration::from_micros(200),
        }
    }
}

/// Messages a replica wants delivered, produced by one handler invocation.
#[derive(Debug, Default)]
pub struct Effects {
    /// `(destination, payload)` pairs, in send order.
    pub out: Vec<(NodeId, PacketBody<ProtocolMsg>)>,
}

impl Effects {
    /// Fresh, empty effect set.
    pub fn new() -> Self {
        Effects::default()
    }

    /// Send a protocol-internal message to a replica (direct rack hop).
    pub fn protocol(&mut self, to: ReplicaId, msg: ProtocolMsg) {
        self.out
            .push((NodeId::Replica(to), PacketBody::Protocol(msg)));
    }

    /// Send a client reply; replies are addressed to the switch so the data
    /// plane can snoop piggybacked completions (Figure 2b). A replica never
    /// decides otherwise: whether a reply *without* a completion stops at the
    /// switch (the simulator's ToR) or is forwarded past it to the client
    /// (the threaded drivers' sender-side spine) is the network's choice,
    /// [`PacketBody::switch_route`] — and an outage of the switch swallows
    /// the reply either way.
    pub fn reply(&mut self, via_switch: SwitchId, reply: ClientReply) {
        self.out
            .push((NodeId::Switch(via_switch), PacketBody::Reply(reply)));
    }

    /// Send a standalone WRITE-COMPLETION to the switch (read-behind
    /// protocols, §7.3).
    pub fn completion(&mut self, to_switch: SwitchId, wc: WriteCompletion) {
        self.out
            .push((NodeId::Switch(to_switch), PacketBody::Completion(wc)));
    }

    /// Hand a client request to another replica (fast-path reads failing the
    /// guard are forwarded to the primary/tail/leader, §7.2).
    pub fn forward_request(&mut self, to: ReplicaId, req: ClientRequest) {
        self.out
            .push((NodeId::Replica(to), PacketBody::Request(req)));
    }

    /// Send a switch control-plane command (recovery ungates, §5.3).
    pub fn control_switch(&mut self, to_switch: SwitchId, ctl: ControlMsg) {
        self.out
            .push((NodeId::Switch(to_switch), PacketBody::Control(ctl)));
    }

    /// Number of buffered sends.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True if no sends were produced.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }
}

/// §7 responsibility 1: process writes only in sequence-number order.
/// Out-of-order arrivals are rejected (the paper drops them; we surface the
/// rejection so clients can retry immediately).
#[derive(Clone, Copy, Debug, Default)]
pub struct InOrder {
    last: SwitchSeq,
}

impl InOrder {
    /// Fresh tracker accepting any first sequence number.
    pub fn new() -> Self {
        InOrder::default()
    }

    /// Accept `seq` iff it is strictly newer than everything seen; gaps are
    /// fine (dropped writes consume numbers).
    pub fn accept(&mut self, seq: SwitchSeq) -> bool {
        if seq > self.last {
            self.last = seq;
            true
        } else {
            false
        }
    }

    /// Largest accepted sequence number.
    pub fn last(&self) -> SwitchSeq {
        self.last
    }
}

/// Verdict on an incoming write's `(client, request)` pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Admission {
    /// First sighting: execute it.
    Fresh,
    /// Retransmission of the most recent admitted request: do not
    /// re-execute; re-send the cached reply if the original already
    /// completed (otherwise the original's in-flight reply will serve).
    Duplicate,
    /// Older than the last admitted request: drop silently.
    Stale,
}

/// Exactly-once write sessions (standard replication hygiene — the original
/// NOPaxos replicas keep the same table): each client's writes carry
/// monotonically increasing request ids; retries reuse the id. The protocol
/// entry point executes each id at most once, and the *replying* node caches
/// the last reply per client so a retransmission whose original reply was
/// lost can be answered without re-execution. Without this, a duplicated or
/// retried write would be sequenced twice, and the second application could
/// land after the client's operation completed — breaking linearizability
/// for blind writes. Reads are idempotent and bypass all of it.
/// Client-id-ordered maps so [`ClientTable::export`] walks sessions in the
/// same order on every run — the exported wire bytes feed state transfer and
/// must be bit-identical across same-seed replays.
#[derive(Clone, Debug, Default)]
pub struct ClientTable {
    last: std::collections::BTreeMap<harmonia_types::ClientId, harmonia_types::RequestId>,
    replies: std::collections::BTreeMap<harmonia_types::ClientId, ClientReply>,
}

impl ClientTable {
    /// Empty table.
    pub fn new() -> Self {
        ClientTable::default()
    }

    /// Classify `(client, request)`; `Fresh` admissions update the table.
    pub fn admit(
        &mut self,
        client: harmonia_types::ClientId,
        request: harmonia_types::RequestId,
    ) -> Admission {
        match self.last.get_mut(&client) {
            Some(seen) if request == *seen => Admission::Duplicate,
            Some(seen) if request < *seen => Admission::Stale,
            Some(seen) => {
                *seen = request;
                Admission::Fresh
            }
            None => {
                self.last.insert(client, request);
                Admission::Fresh
            }
        }
    }

    /// Cache the reply sent for a client's most recent request.
    pub fn record_reply(&mut self, reply: ClientReply) {
        self.replies.insert(reply.client, reply);
    }

    /// The cached reply for `(client, request)`, if the original completed.
    pub fn cached_reply(
        &self,
        client: harmonia_types::ClientId,
        request: harmonia_types::RequestId,
    ) -> Option<ClientReply> {
        self.replies
            .get(&client)
            .filter(|r| r.request == request)
            .cloned()
    }

    /// Export the session table for state transfer, sorted by client id so
    /// the wire bytes are deterministic.
    pub fn export(
        &self,
    ) -> (
        Vec<(harmonia_types::ClientId, harmonia_types::RequestId)>,
        Vec<ClientReply>,
    ) {
        let clients: Vec<_> = self.last.iter().map(|(&c, &r)| (c, r)).collect();
        let replies: Vec<_> = self.replies.values().cloned().collect();
        (clients, replies)
    }

    /// Merge an exported session table into this one. Live admissions that
    /// happened during the transfer are newer than the snapshot, so each
    /// client keeps the larger request id (and its reply cache entry).
    pub fn install(
        &mut self,
        clients: Vec<(harmonia_types::ClientId, harmonia_types::RequestId)>,
        replies: Vec<ClientReply>,
    ) {
        for (client, request) in clients {
            let slot = self.last.entry(client).or_insert(request);
            if request > *slot {
                *slot = request;
            }
        }
        for reply in replies {
            match self.last.get(&reply.client) {
                // Only adopt the snapshot's cached reply if it answers the
                // client's newest admitted request; a stale cache entry
                // must not shadow a live one.
                Some(&last) if reply.request == last => {
                    self.replies.insert(reply.client, reply);
                }
                _ => {}
            }
        }
    }
}

/// §7 responsibility 2: honour single-replica reads only from the one active
/// switch. The configuration service moves the lease; replicas reject
/// fast-path reads flagged by any other incarnation.
#[derive(Clone, Copy, Debug)]
pub struct LeaseState {
    active: SwitchId,
}

impl LeaseState {
    /// Lease initially held by `active`.
    pub fn new(active: SwitchId) -> Self {
        LeaseState { active }
    }

    /// The switch currently allowed to issue fast-path reads.
    pub fn active(&self) -> SwitchId {
        self.active
    }

    /// Move the lease (monotone: an older incarnation can never regain it).
    pub fn set_active(&mut self, s: SwitchId) {
        if s > self.active {
            self.active = s;
        }
    }

    /// May a fast-path read flagged by `from` be honoured?
    pub fn allows(&self, from: SwitchId) -> bool {
        from == self.active
    }
}

/// §7 responsibility 3a — read-ahead guard (PB, chain): a replica may answer
/// a fast-path read iff the stamped last-committed point covers the latest
/// write it has *applied* to the object; otherwise the applied value might
/// be uncommitted (P2 would break).
pub fn read_ahead_ok(applied_seq: SwitchSeq, stamped_last_committed: SwitchSeq) -> bool {
    stamped_last_committed >= applied_seq
}

/// The read-ahead fast path in one store probe (PB, chain): `Some(answer)`
/// iff the object's applied sequence number passes [`read_ahead_ok`] against
/// `stamped` — the answer being the value, `None` for an unset key — and
/// `None` if the read must take the normal path instead.
pub fn read_ahead_probe(
    store: &harmonia_kv::Store<harmonia_kv::VersionedValue>,
    key: &[u8],
    stamped: SwitchSeq,
) -> Option<Option<Bytes>> {
    store.with(key, |v| {
        let applied = v.map_or(SwitchSeq::ZERO, |vv| vv.seq);
        read_ahead_ok(applied, stamped).then(|| v.map(|vv| vv.value.clone()))
    })
}

/// §7 responsibility 3b — read-behind guard (VR, NOPaxos): a replica may
/// answer a fast-path read iff it has *executed* at least up to the stamped
/// last-committed point; otherwise it might miss a committed write (P1
/// would break).
pub fn read_behind_ok(executed_seq: SwitchSeq, stamped_last_committed: SwitchSeq) -> bool {
    executed_seq >= stamped_last_committed
}

/// Build a read reply from replica `me`.
pub fn read_reply(me: ReplicaId, req: &ClientRequest, value: Option<Bytes>) -> ClientReply {
    ClientReply {
        client: req.client,
        from: me,
        request: req.request,
        obj: req.obj,
        value,
        write_outcome: None,
        completion: None,
    }
}

/// A replica state machine. One instance runs per storage server; the
/// drivers in `harmonia-core` deliver packets and ticks. Its one
/// implementation is the Harmonia shell (`shell.rs`) around a protocol's
/// write path.
pub trait Replica: Send {
    /// Handle a client request (write, normal read, or fast-path read).
    fn on_request(&mut self, src: NodeId, req: ClientRequest, out: &mut Effects);

    /// Handle a protocol-internal message.
    fn on_protocol(&mut self, src: NodeId, msg: ProtocolMsg, out: &mut Effects);

    /// Periodic tick (commit broadcasts, synchronization); driven at
    /// [`Replica::tick_interval`].
    fn on_tick(&mut self, _out: &mut Effects) {}

    /// How often `on_tick` should run, if at all.
    fn tick_interval(&self) -> Option<Duration> {
        None
    }

    /// This replica's current best-known value for `key` (its applied state;
    /// equal to the committed value once the system quiesces). For audits
    /// and tests.
    fn local_value(&self, key: &[u8]) -> Option<Bytes>;

    /// The largest write sequence number this replica has applied/executed.
    fn applied_seq(&self) -> SwitchSeq;

    /// Export this replica's full state for a rejoining peer: the store,
    /// any log/pending operations the protocol replays or completes, and
    /// the scalar state of [`SnapshotState`].
    fn export_snapshot(&self) -> Snapshot;

    /// Install a peer's exported state into this (freshly started) replica.
    /// Installation is *versioned*: a key is only overwritten where the
    /// snapshot's version is newer than what this replica applied live
    /// while the transfer was in flight, so install commutes with
    /// interleaved new writes. May emit protocol messages (e.g. PB acks
    /// for pending writes the primary is still waiting on).
    fn install_snapshot(&mut self, snap: Snapshot, out: &mut Effects);

    /// The switch incarnation this replica's lease currently honours —
    /// where recovery control traffic (ungates) must be sent.
    fn active_switch(&self) -> SwitchId;
}

/// A full exported replica state: store entries, log/pending operations,
/// and scalar protocol state. The in-memory form of what
/// [`StateTransferMsg`] ships in chunks.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Store contents (plus CRAQ's staged dirty versions).
    pub entries: Vec<SnapshotEntry>,
    /// Log / pending operations in order (VR log, NOPaxos log, PB pending).
    pub log: Vec<WriteOp>,
    /// Scalar protocol state.
    pub state: SnapshotState,
}

impl Snapshot {
    /// An empty snapshot (a freshly started replica exports this).
    pub fn empty() -> Self {
        Snapshot {
            entries: Vec::new(),
            log: Vec::new(),
            state: SnapshotState::default(),
        }
    }
}

/// Byte budget for one state-transfer chunk: comfortably under the wire
/// codec's `MAX_FRAME_BYTES` (65 507) after packet framing, so every chunk
/// is one datagram on the UDP driver.
const CHUNK_BUDGET_BYTES: usize = 48_000;

fn entry_cost(e: &SnapshotEntry) -> usize {
    e.key.len() + e.value.len() + 32
}

fn op_cost(op: &WriteOp) -> usize {
    op.key.len() + op.value.len() + 40
}

/// The driver-held state-transfer engine (sans-IO): one per replica
/// process. On the serving side it answers [`StateTransferMsg::Request`]
/// with chunked snapshot + log + done. On the recovering side it buffers
/// chunks and installs on `Done` — if every chunk the peer sent arrived;
/// otherwise it asks again — then tells the switch to lift the replica's
/// read gate.
#[derive(Debug)]
pub struct StateTransfer {
    me: ReplicaId,
    recovering: Option<RecoveryBuffer>,
}

#[derive(Debug)]
struct RecoveryBuffer {
    /// Who is serving the transfer, to ask again if a chunk goes missing.
    peer: ReplicaId,
    entries: Vec<SnapshotEntry>,
    log: Vec<WriteOp>,
}

impl StateTransfer {
    /// An engine for replica `me`, not recovering.
    pub fn new(me: ReplicaId) -> Self {
        StateTransfer {
            me,
            recovering: None,
        }
    }

    /// Begin recovery: ask `peer` for its state. Until the transfer
    /// completes the driver must keep client requests away from the
    /// replica (clients retry; the switch has the replica read-gated).
    pub fn begin(&mut self, peer: ReplicaId, out: &mut Effects) {
        self.recovering = Some(RecoveryBuffer {
            peer,
            entries: Vec::new(),
            log: Vec::new(),
        });
        out.protocol(
            peer,
            ProtocolMsg::StateTransfer(StateTransferMsg::Request { from: self.me }),
        );
    }

    /// True while a transfer is in flight on the recovering side.
    pub fn is_recovering(&self) -> bool {
        self.recovering.is_some()
    }

    /// Handle one state-transfer message for `replica`. Returns true iff
    /// this message completed a recovery (the snapshot was installed and
    /// the ungate was sent).
    pub fn on_msg(
        &mut self,
        replica: &mut dyn Replica,
        msg: StateTransferMsg,
        out: &mut Effects,
    ) -> bool {
        match msg {
            StateTransferMsg::Request { from } => {
                self.serve(replica, from, out);
                false
            }
            StateTransferMsg::Entries { entries } => {
                if let Some(buf) = &mut self.recovering {
                    buf.entries.extend(entries);
                }
                false
            }
            StateTransferMsg::Log { ops } => {
                if let Some(buf) = &mut self.recovering {
                    buf.log.extend(ops);
                }
                false
            }
            StateTransferMsg::Done {
                state,
                entries,
                ops,
            } => {
                let Some(buf) = self.recovering.take() else {
                    return false;
                };
                // Replica↔replica sends are spared by the adversary, not by
                // a full receive buffer. A replica that installed what
                // happened to arrive would answer fast-path reads with
                // `None` for the keys of a chunk it never received: start
                // the transfer over instead.
                if (buf.entries.len() as u64, buf.log.len() as u64) != (entries, ops) {
                    self.begin(buf.peer, out);
                    return false;
                }
                replica.install_snapshot(
                    Snapshot {
                        entries: buf.entries,
                        log: buf.log,
                        state,
                    },
                    out,
                );
                // Lift the read gate. The ungate crosses a faultable
                // switch leg on the UDP driver, so send a small burst —
                // the message is idempotent and floor-checked.
                let caught_up = replica.applied_seq();
                let ctl = ControlMsg::UngateReplica {
                    replica: self.me,
                    caught_up,
                };
                for _ in 0..3 {
                    out.control_switch(replica.active_switch(), ctl.clone());
                }
                true
            }
        }
    }

    /// Serve a peer's request: export, chunk to the frame budget, finish
    /// with the scalar state.
    fn serve(&self, replica: &dyn Replica, to: ReplicaId, out: &mut Effects) {
        let snap = replica.export_snapshot();
        let (entries_sent, ops_sent) = (snap.entries.len() as u64, snap.log.len() as u64);
        let mut chunk: Vec<SnapshotEntry> = Vec::new();
        let mut size = 0usize;
        for e in snap.entries {
            let cost = entry_cost(&e);
            if size + cost > CHUNK_BUDGET_BYTES && !chunk.is_empty() {
                out.protocol(
                    to,
                    ProtocolMsg::StateTransfer(StateTransferMsg::Entries {
                        entries: std::mem::take(&mut chunk),
                    }),
                );
                size = 0;
            }
            size += cost;
            chunk.push(e);
        }
        if !chunk.is_empty() {
            out.protocol(
                to,
                ProtocolMsg::StateTransfer(StateTransferMsg::Entries { entries: chunk }),
            );
        }
        let mut ops: Vec<WriteOp> = Vec::new();
        let mut size = 0usize;
        for op in snap.log {
            let cost = op_cost(&op);
            if size + cost > CHUNK_BUDGET_BYTES && !ops.is_empty() {
                out.protocol(
                    to,
                    ProtocolMsg::StateTransfer(StateTransferMsg::Log {
                        ops: std::mem::take(&mut ops),
                    }),
                );
                size = 0;
            }
            size += cost;
            ops.push(op);
        }
        if !ops.is_empty() {
            out.protocol(
                to,
                ProtocolMsg::StateTransfer(StateTransferMsg::Log { ops }),
            );
        }
        out.protocol(
            to,
            ProtocolMsg::StateTransfer(StateTransferMsg::Done {
                state: snap.state,
                entries: entries_sent,
                ops: ops_sent,
            }),
        );
    }
}

/// Export a versioned store as snapshot entries, sorted by key so chunk
/// boundaries (and therefore wire bytes) are deterministic.
pub fn export_store(store: &harmonia_kv::Store<harmonia_kv::VersionedValue>) -> Vec<SnapshotEntry> {
    let mut entries = Vec::new();
    store.for_each(|key, vv| {
        entries.push(SnapshotEntry {
            key: key.clone(),
            obj: harmonia_types::ObjectId::from_key(key),
            value: vv.value.clone(),
            seq: vv.seq,
            dirty: false,
        });
    });
    entries.sort_by(|a, b| a.key.cmp(&b.key));
    entries
}

/// Install snapshot entries into a versioned store (see [`put_newer`]).
/// Returns the largest installed sequence number (ZERO if nothing was
/// newer).
pub fn install_store(
    store: &harmonia_kv::Store<harmonia_kv::VersionedValue>,
    entries: Vec<SnapshotEntry>,
) -> SwitchSeq {
    let mut max_seq = SwitchSeq::ZERO;
    for e in entries {
        max_seq = max_seq.max(e.seq);
        put_newer(store, &e.key, &e.value, e.seq);
    }
    max_seq
}

/// Versioned apply: `key = value` at `seq`, unless `key` already holds a
/// newer version — e.g. one a recovering replica applied live while its
/// state transfer was in flight. Install commutes with such writes.
pub fn put_newer(
    store: &harmonia_kv::Store<harmonia_kv::VersionedValue>,
    key: &Bytes,
    value: &Bytes,
    seq: SwitchSeq,
) {
    let version = || harmonia_kv::VersionedValue::new(value.clone(), seq);
    store.update(key, version, |vv| {
        if seq > vv.seq {
            *vv = version();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::ReplicaControlMsg;
    use harmonia_types::{ClientId, ObjectId, RequestId};

    fn seq(sw: u32, n: u64) -> SwitchSeq {
        SwitchSeq::new(SwitchId(sw), n)
    }

    #[test]
    fn in_order_accepts_monotone_with_gaps() {
        let mut io = InOrder::new();
        assert!(io.accept(seq(1, 1)));
        assert!(io.accept(seq(1, 5)), "gaps are fine");
        assert!(!io.accept(seq(1, 5)), "duplicates rejected");
        assert!(!io.accept(seq(1, 3)), "regressions rejected");
        assert!(io.accept(seq(2, 1)), "new switch outranks old");
        assert!(!io.accept(seq(1, 100)), "old switch can never re-enter");
        assert_eq!(io.last(), seq(2, 1));
    }

    #[test]
    fn lease_is_monotone() {
        let mut l = LeaseState::new(SwitchId(1));
        assert!(l.allows(SwitchId(1)));
        assert!(!l.allows(SwitchId(2)));
        l.set_active(SwitchId(2));
        assert!(l.allows(SwitchId(2)));
        assert!(!l.allows(SwitchId(1)));
        // A stale control message cannot resurrect the old switch.
        l.set_active(SwitchId(1));
        assert!(l.allows(SwitchId(2)));
    }

    #[test]
    fn guards_match_the_paper() {
        // Read-ahead (Appendix A): serve iff Q.commit >= R.obj.seq.
        assert!(read_ahead_ok(seq(1, 5), seq(1, 5)));
        assert!(read_ahead_ok(seq(1, 5), seq(1, 9)));
        assert!(!read_ahead_ok(seq(1, 5), seq(1, 4)));
        // Read-behind: serve iff Q.commit <= R.seq.
        assert!(read_behind_ok(seq(1, 5), seq(1, 5)));
        assert!(read_behind_ok(seq(1, 9), seq(1, 5)));
        assert!(!read_behind_ok(seq(1, 4), seq(1, 5)));
    }

    #[test]
    fn quorum_sizes() {
        assert_eq!(ProtocolKind::PrimaryBackup.quorum(3), 3);
        assert_eq!(ProtocolKind::Chain.quorum(5), 5);
        assert_eq!(ProtocolKind::Vr.quorum(3), 2);
        assert_eq!(ProtocolKind::Vr.quorum(5), 3);
        assert_eq!(ProtocolKind::Nopaxos.quorum(4), 3);
    }

    #[test]
    fn client_table_export_install_merges_by_request_id() {
        let mut a = ClientTable::new();
        a.admit(ClientId(1), RequestId(5));
        a.record_reply(read_reply(
            ReplicaId(0),
            &ClientRequest::read(ClientId(1), RequestId(5), &b"k"[..]),
            None,
        ));
        a.admit(ClientId(2), RequestId(1));
        let (clients, replies) = a.export();
        assert_eq!(
            clients,
            vec![(ClientId(1), RequestId(5)), (ClientId(2), RequestId(1))]
        );
        assert_eq!(replies.len(), 1);

        // The live table already admitted a newer request for client 1: the
        // snapshot's entry (and its stale cached reply) must not win.
        let mut b = ClientTable::new();
        b.admit(ClientId(1), RequestId(6));
        b.install(clients, replies);
        assert_eq!(b.admit(ClientId(1), RequestId(6)), Admission::Duplicate);
        assert_eq!(b.admit(ClientId(2), RequestId(1)), Admission::Duplicate);
        assert!(b.cached_reply(ClientId(1), RequestId(5)).is_none());
    }

    fn pb_cfg(me: u32) -> GroupConfig {
        GroupConfig::new(crate::common::ProtocolKind::PrimaryBackup, 3, me, true)
    }

    /// A 3-replica PB group with `key{n} = values[n - 1]` committed on all.
    fn committed_pb_group(values: &[Bytes]) -> Vec<Box<dyn Replica>> {
        use harmonia_types::PacketBody;
        let mut group: Vec<Box<dyn Replica>> =
            (0..3).map(|i| crate::build_replica(pb_cfg(i))).collect();
        let mut fx = Effects::new();
        for (n, value) in (1u64..).zip(values) {
            let mut req = ClientRequest::write(
                ClientId(1),
                RequestId(n),
                Bytes::copy_from_slice(format!("key{n}").as_bytes()),
                value.clone(),
            );
            req.seq = Some(seq(1, n));
            group[0].on_request(NodeId::Client(ClientId(1)), req, &mut fx);
        }
        while !fx.is_empty() {
            let mut next = Effects::new();
            for (dst, body) in fx.out.drain(..) {
                if let (NodeId::Replica(r), PacketBody::Protocol(m)) = (dst, body) {
                    group[r.index()].on_protocol(NodeId::Replica(r), m, &mut next);
                }
            }
            fx = next;
        }
        group
    }

    /// Deliver `fx` and everything it causes — transfer traffic to the
    /// engine beside the replica addressed, ungates to nobody. True iff the
    /// recovery completed on the way.
    fn pump_transfer(
        engine: &mut StateTransfer,
        group: &mut [Box<dyn Replica>],
        mut fx: Effects,
    ) -> bool {
        use harmonia_types::PacketBody;
        let mut done = false;
        while !fx.is_empty() {
            let mut next = Effects::new();
            for (dst, body) in fx.out.drain(..) {
                match (dst, body) {
                    (NodeId::Replica(r), PacketBody::Protocol(ProtocolMsg::StateTransfer(m))) => {
                        done |= engine.on_msg(group[r.index()].as_mut(), m, &mut next);
                    }
                    (NodeId::Switch(_), PacketBody::Control(ControlMsg::UngateReplica { .. })) => {}
                    other => panic!("unexpected effect {other:?}"),
                }
            }
            fx = next;
        }
        done
    }

    #[test]
    fn state_transfer_round_trip_restores_a_pb_backup() {
        let values: Vec<Bytes> = (1..=4)
            .map(|n| Bytes::copy_from_slice(format!("val{n}").as_bytes()))
            .collect();
        let mut group = committed_pb_group(&values);

        // Replica 2 crashes and restarts empty; pull state from replica 0.
        group[2] = crate::build_replica(pb_cfg(2));
        let mut engine = StateTransfer::new(ReplicaId(2));
        let mut fx = Effects::new();
        engine.begin(ReplicaId(0), &mut fx);
        assert!(engine.is_recovering());
        assert!(
            pump_transfer(&mut engine, &mut group, fx),
            "transfer completed"
        );
        assert!(!engine.is_recovering());
        for (n, value) in (1u64..).zip(&values) {
            assert_eq!(
                group[2].local_value(format!("key{n}").as_bytes()).as_ref(),
                Some(value),
                "key{n} restored"
            );
        }
        assert_eq!(group[2].applied_seq(), seq(1, 4));
    }

    /// A receive buffer that overflowed mid-burst drops a chunk without
    /// telling anyone. `Done` says how much was sent: the recovering side
    /// installs nothing, stays shed and gated, and asks its peer again.
    #[test]
    fn a_transfer_that_lost_a_chunk_asks_again_instead_of_installing() {
        use harmonia_types::PacketBody;
        // 30 KB values: every entry is a chunk of its own.
        let values: Vec<Bytes> = (1..=4u8).map(|n| Bytes::from(vec![n; 30_000])).collect();
        let mut group = committed_pb_group(&values);
        group[2] = crate::build_replica(pb_cfg(2));
        let mut engine = StateTransfer::new(ReplicaId(2));
        let mut request = Effects::new();
        engine.begin(ReplicaId(0), &mut request);
        let (_, PacketBody::Protocol(ProtocolMsg::StateTransfer(ask))) = request.out.pop().unwrap()
        else {
            panic!("begin sends a transfer request");
        };
        let mut served = Effects::new();
        engine.on_msg(group[0].as_mut(), ask, &mut served);
        let chunks = |fx: &Effects| {
            let is_chunk = |b: &PacketBody<ProtocolMsg>| {
                matches!(
                    b,
                    PacketBody::Protocol(ProtocolMsg::StateTransfer(
                        StateTransferMsg::Entries { .. }
                    ))
                )
            };
            fx.out.iter().filter(|(_, b)| is_chunk(b)).count()
        };
        assert_eq!(chunks(&served), 4);

        // The second chunk never arrives; everything else does, in order.
        served.out.remove(1);
        let mut after = Effects::new();
        for (_, body) in served.out.drain(..) {
            let PacketBody::Protocol(ProtocolMsg::StateTransfer(m)) = body else {
                panic!("the peer serves transfer traffic only");
            };
            assert!(!engine.on_msg(group[2].as_mut(), m, &mut after));
        }
        assert!(engine.is_recovering(), "still shedding requests");
        for n in 1..=4 {
            let key = format!("key{n}");
            assert_eq!(group[2].local_value(key.as_bytes()), None, "{key}");
        }
        // No ungate; one more request to the same peer.
        assert_eq!(after.out.len(), 1, "{:?}", after.out);
        assert!(matches!(
            after.out[0],
            (
                NodeId::Replica(ReplicaId(0)),
                PacketBody::Protocol(ProtocolMsg::StateTransfer(StateTransferMsg::Request {
                    from: ReplicaId(2)
                }))
            )
        ));

        // The second attempt arrives whole and installs.
        assert!(pump_transfer(&mut engine, &mut group, after));
        assert!(!engine.is_recovering());
        assert_eq!(group[2].local_value(b"key2"), Some(values[1].clone()));
        assert_eq!(group[2].applied_seq(), seq(1, 4));
    }

    #[test]
    fn state_transfer_done_emits_an_ungate_burst() {
        let cfg = GroupConfig::new(crate::common::ProtocolKind::PrimaryBackup, 2, 1, true);
        let mut replica = crate::build_replica(cfg);
        let mut engine = StateTransfer::new(ReplicaId(1));
        let mut fx = Effects::new();
        engine.begin(ReplicaId(0), &mut fx);
        let mut out = Effects::new();
        engine.on_msg(
            replica.as_mut(),
            StateTransferMsg::Done {
                state: SnapshotState::default(),
                entries: 0,
                ops: 0,
            },
            &mut out,
        );
        let ungates = out
            .out
            .iter()
            .filter(|(_, b)| {
                matches!(
                    b,
                    harmonia_types::PacketBody::Control(ControlMsg::UngateReplica {
                        replica: ReplicaId(1),
                        ..
                    })
                )
            })
            .count();
        assert_eq!(ungates, 3, "loss-tolerant burst");
        // A stray Done with no transfer in flight is ignored.
        let mut out = Effects::new();
        assert!(!engine.on_msg(
            replica.as_mut(),
            StateTransferMsg::Done {
                state: SnapshotState::default(),
                entries: 0,
                ops: 0,
            },
            &mut out,
        ));
        assert!(out.is_empty());
    }

    #[test]
    fn effects_address_the_right_nodes() {
        let mut fx = Effects::new();
        assert!(fx.is_empty());
        fx.protocol(
            ReplicaId(2),
            ProtocolMsg::Control(ReplicaControlMsg::SetMembers(vec![])),
        );
        fx.completion(
            SwitchId(1),
            WriteCompletion {
                obj: ObjectId(1),
                seq: seq(1, 1),
            },
        );
        let req = ClientRequest::read(ClientId(1), RequestId(1), &b"k"[..]);
        fx.reply(SwitchId(1), read_reply(ReplicaId(0), &req, None));
        fx.forward_request(ReplicaId(0), req);
        assert_eq!(fx.len(), 4);
        assert!(matches!(fx.out[0].0, NodeId::Replica(ReplicaId(2))));
        assert!(matches!(fx.out[1].0, NodeId::Switch(SwitchId(1))));
        assert!(matches!(fx.out[2].0, NodeId::Switch(SwitchId(1))));
        assert!(matches!(fx.out[3].0, NodeId::Replica(ReplicaId(0))));
    }
}
