//! Protocol-internal messages.
//!
//! These ride in [`PacketBody::Protocol`] and are forwarded by the switch as
//! ordinary L2/L3 traffic — the conflict-detection pipeline never inspects
//! them.
//!
//! [`PacketBody::Protocol`]: harmonia_types::PacketBody::Protocol

use bytes::Bytes;
use harmonia_types::{ClientId, ClientReply, ObjectId, ReplicaId, RequestId, SwitchId, SwitchSeq};

/// A write as it travels inside a replica group.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WriteOp {
    /// Sequence number (switch-assigned under Harmonia, entry-node-assigned
    /// otherwise).
    pub seq: SwitchSeq,
    /// Fixed-width object id (what the dirty set tracks).
    pub obj: ObjectId,
    /// Full application key.
    pub key: Bytes,
    /// New value.
    pub value: Bytes,
    /// Issuing client (for the final reply).
    pub client: ClientId,
    /// Client request number (for the final reply).
    pub request: RequestId,
}

/// Primary-backup messages.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PbMsg {
    /// Primary → backup: apply this state update.
    Update(WriteOp),
    /// Backup → primary: update applied.
    Ack {
        /// Acknowledged sequence number.
        seq: SwitchSeq,
        /// Acknowledging backup.
        from: ReplicaId,
    },
}

/// Chain replication messages.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ChainMsg {
    /// Predecessor → successor: propagate the write down the chain.
    Down(WriteOp),
    /// Head → tail: a client retransmitted `(client, request)`; if the tail
    /// already replied for it, re-send the cached reply (exactly-once
    /// sessions — the tail is the replying node in chain replication).
    ReReply {
        /// Retransmitting client.
        client: ClientId,
        /// The retransmitted request id.
        request: RequestId,
    },
}

/// CRAQ messages.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CraqMsg {
    /// Propagate a dirty version down the chain.
    Down(WriteOp),
    /// Tail → everyone upstream: version `seq` of `obj` is committed; mark
    /// it clean (CRAQ's extra write phase).
    Clean {
        /// Object whose version committed.
        obj: ObjectId,
        /// Key (chains are keyed by full key).
        key: Bytes,
        /// Committed version.
        seq: SwitchSeq,
    },
    /// Head → tail: re-send the cached reply for a retransmitted request.
    ReReply {
        /// Retransmitting client.
        client: ClientId,
        /// The retransmitted request id.
        request: RequestId,
    },
}

/// Viewstamped Replication messages (normal case + the Harmonia
/// COMMIT-ACK phase of §7.3).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VrMsg {
    /// Leader → replica: log this operation at position `op_num`.
    Prepare {
        /// Current view.
        view: u64,
        /// Log position.
        op_num: u64,
        /// The operation.
        op: WriteOp,
        /// Leader's commit point, piggybacked.
        commit: u64,
    },
    /// Replica → leader: operation logged.
    PrepareOk {
        /// View of the prepare.
        view: u64,
        /// Log position acknowledged.
        op_num: u64,
        /// Acknowledging replica.
        from: ReplicaId,
    },
    /// Leader → replica: commit point advanced (async notification).
    Commit {
        /// Current view.
        view: u64,
        /// Commit point.
        commit: u64,
    },
    /// Replica → leader: executed through `op_num` (the Harmonia-added
    /// COMMIT-ACK; §7.3).
    CommitAck {
        /// View.
        view: u64,
        /// Executed-through position.
        op_num: u64,
        /// Acknowledging replica.
        from: ReplicaId,
    },
}

/// NOPaxos messages (normal case + periodic synchronization).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NopaxosMsg {
    /// Sequencer-stamped write, multicast by the switch to every replica.
    Sequenced {
        /// OUM session (switch incarnation).
        session: u64,
        /// Dense per-session sequence number.
        oum_seq: u64,
        /// The operation.
        op: WriteOp,
    },
    /// Replica → leader: a gap was detected at `oum_seq`; ask for the entry.
    GapRequest {
        /// Session.
        session: u64,
        /// Missing slot.
        oum_seq: u64,
        /// Requesting replica.
        from: ReplicaId,
    },
    /// Leader → replica: fill for a gap request (`None` = commit a no-op).
    GapReply {
        /// Session.
        session: u64,
        /// Slot being filled.
        oum_seq: u64,
        /// The operation, if the leader has it.
        op: Option<WriteOp>,
    },
    /// Leader → replicas: synchronization round `upto` (§7.3: the periodic
    /// sync NOPaxos already runs; Harmonia hooks completions onto it).
    Sync {
        /// Session.
        session: u64,
        /// Leader's log length (all slots ≤ upto are stable at the leader).
        upto: u64,
    },
    /// Replica → leader: executed through `upto`.
    SyncAck {
        /// Session.
        session: u64,
        /// Executed-through slot.
        upto: u64,
        /// Acknowledging replica.
        from: ReplicaId,
    },
}

/// One key's snapshotted version, as shipped during state transfer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SnapshotEntry {
    /// Full application key.
    pub key: Bytes,
    /// Fixed-width object id.
    pub obj: ObjectId,
    /// The stored bytes.
    pub value: Bytes,
    /// Sequence number of the write that installed this version.
    pub seq: SwitchSeq,
    /// CRAQ only: the version is staged but not yet committed (a pending
    /// dirty version). Every other protocol ships committed/applied state
    /// and sets this false.
    pub dirty: bool,
}

/// Scalar protocol state shipped at the end of a state transfer: everything
/// a rejoining replica needs beyond the store and log to resume the
/// protocol without violating its invariants.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SnapshotState {
    /// The peer's in-order write-admission point (§7 responsibility 1).
    pub in_order: SwitchSeq,
    /// The peer's applied/executed point (what the read guards compare).
    pub applied: SwitchSeq,
    /// Entry-node local version counter (baseline self-stamping); 0 when
    /// the switch stamps.
    pub local_seq: u64,
    /// VR commit number / NOPaxos executed-slot count; 0 elsewhere.
    pub commit_num: u64,
    /// NOPaxos OUM session; 0 elsewhere.
    pub session: u64,
    /// Exactly-once session table: each client's last admitted request id,
    /// sorted by client id for deterministic wire bytes.
    pub clients: Vec<(ClientId, RequestId)>,
    /// Cached last reply per client (retransmission answers), sorted by
    /// client id.
    pub replies: Vec<ClientReply>,
}

/// Replica crash-recovery state transfer (snapshot + log catchup). A
/// rejoining replica pulls from one live peer; chunks are sized to fit the
/// wire codec's frame bound so the transfer crosses real sockets.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StateTransferMsg {
    /// Rejoining replica → live peer: send me your state.
    Request {
        /// The recovering replica (chunks are addressed back to it).
        from: ReplicaId,
    },
    /// Peer → rejoining replica: a chunk of store entries.
    Entries {
        /// Snapshotted versions.
        entries: Vec<SnapshotEntry>,
    },
    /// Peer → rejoining replica: a chunk of log / pending operations
    /// (VR log, NOPaxos log, PB pending writes).
    Log {
        /// Operations in log order.
        ops: Vec<WriteOp>,
    },
    /// Peer → rejoining replica: transfer complete; install and rejoin.
    Done {
        /// Scalar protocol state.
        state: SnapshotState,
        /// How many snapshot entries the chunks before this carried — a
        /// receiver that counts fewer lost one and must not install.
        entries: u64,
        /// Likewise for log operations.
        ops: u64,
    },
}

/// Control commands delivered to replicas by the configuration service
/// (leases and membership, §5.3 / §7 responsibility 2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReplicaControlMsg {
    /// Henceforth honour single-replica reads only from this switch; reject
    /// (route through the normal protocol) reads flagged by any other
    /// incarnation.
    SetActiveSwitch(SwitchId),
    /// Membership change: the ordered live replica list (chain order / role
    /// order).
    SetMembers(Vec<ReplicaId>),
}

/// Union of all protocol-internal traffic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProtocolMsg {
    /// Primary-backup.
    Pb(PbMsg),
    /// Chain replication.
    Chain(ChainMsg),
    /// CRAQ.
    Craq(CraqMsg),
    /// Viewstamped Replication.
    Vr(VrMsg),
    /// NOPaxos.
    Nopaxos(NopaxosMsg),
    /// Configuration-service control traffic.
    Control(ReplicaControlMsg),
    /// Crash-recovery state transfer (protocol-agnostic framing; the
    /// payload encodes whichever state the group's protocol exports).
    StateTransfer(StateTransferMsg),
}
