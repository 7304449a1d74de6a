//! Shared protocol plumbing: effects, configuration, snapshots, and the
//! three Harmonia responsibilities from §7 of the paper.

use std::collections::BTreeMap;

use bytes::Bytes;
use harmonia_kv::{Store, VersionedValue};
use harmonia_types::{
    ClientId, ClientReply, ClientRequest, ControlMsg, Duration, NodeId, ObjectId, PacketBody,
    ReplicaId, RequestId, SwitchId, SwitchSeq, WriteCompletion,
};

use crate::messages::{ProtocolMsg, SnapshotEntry, SnapshotState, WriteOp};

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
    last: BTreeMap<ClientId, RequestId>,
    replies: BTreeMap<ClientId, ClientReply>,
}

impl ClientTable {
    /// Empty table.
    pub fn new() -> Self {
        ClientTable::default()
    }

    /// Classify `(client, request)`; `Fresh` admissions update the table.
    pub fn admit(&mut self, client: ClientId, request: RequestId) -> Admission {
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
    pub fn cached_reply(&self, client: ClientId, request: RequestId) -> Option<ClientReply> {
        self.replies
            .get(&client)
            .filter(|r| r.request == request)
            .cloned()
    }

    /// Export the session table for state transfer, sorted by client id so
    /// the wire bytes are deterministic.
    pub fn export(&self) -> (Vec<(ClientId, RequestId)>, Vec<ClientReply>) {
        let clients: Vec<_> = self.last.iter().map(|(&c, &r)| (c, r)).collect();
        let replies: Vec<_> = self.replies.values().cloned().collect();
        (clients, replies)
    }

    /// Merge an exported session table into this one. Live admissions that
    /// happened during the transfer are newer than the snapshot, so each
    /// client keeps the larger request id (and its reply cache entry).
    pub fn install(&mut self, clients: Vec<(ClientId, RequestId)>, replies: Vec<ClientReply>) {
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
    store: &Store<VersionedValue>,
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

/// A full exported replica state: store entries, log/pending operations,
/// and scalar protocol state. The in-memory form of what
/// [`StateTransferMsg`](crate::messages::StateTransferMsg) ships in chunks.
#[derive(Clone, Debug)]
pub(crate) struct Snapshot {
    /// Store contents (plus CRAQ's staged dirty versions).
    pub(crate) entries: Vec<SnapshotEntry>,
    /// Log / pending operations in order (VR log, NOPaxos log, PB pending).
    pub(crate) log: Vec<WriteOp>,
    /// Scalar protocol state.
    pub(crate) state: SnapshotState,
}

/// Export a versioned store as snapshot entries, sorted by key so chunk
/// boundaries (and therefore wire bytes) are deterministic.
pub fn export_store(store: &Store<VersionedValue>) -> Vec<SnapshotEntry> {
    let mut entries = Vec::new();
    store.for_each(|key, vv| {
        entries.push(SnapshotEntry {
            key: key.clone(),
            obj: ObjectId::from_key(key),
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
pub fn install_store(store: &Store<VersionedValue>, entries: Vec<SnapshotEntry>) -> SwitchSeq {
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
pub fn put_newer(store: &Store<VersionedValue>, key: &Bytes, value: &Bytes, seq: SwitchSeq) {
    let version = || VersionedValue::new(value.clone(), seq);
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
