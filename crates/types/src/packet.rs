//! The Harmonia packet format.
//!
//! Clients talk to the storage rack with a custom L4 payload the switch
//! understands (§4). The switch inspects two header fields — the operation
//! type and the affected object id — and, for writes and fast-path reads,
//! stamps additional fields (the sequence number, the last-committed point).
//! On the wire those are a fixed header: kind, a [`PacketFlags`] byte that
//! says which optional fields follow, then src, dst, client, request and
//! object id at constant offsets, the stamps behind them, the key and value
//! last ([`crate::wire`] has the table). The structs here are the decoded
//! form every state machine works on.
//!
//! Protocol-internal traffic (chain forwarding, PREPARE/PREPARE-OK, …) also
//! traverses the switch physically but is routed by ordinary L2/L3
//! forwarding; we model it as an opaque generic payload `T` in
//! [`PacketBody::Protocol`].

use bytes::Bytes;

use crate::id::{ClientId, NodeId, ObjectId, ReplicaId, RequestId, SwitchId};
use crate::seq::SwitchSeq;
use crate::time::Instant;

/// Operation type carried in the Harmonia header.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpKind {
    /// A read of one object.
    Read,
    /// A write (blind put) of one object.
    Write,
}

/// Result of one closed-loop operation, as a client records it for the
/// linearizability checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordedOp {
    /// Read or write.
    pub kind: OpKind,
    /// Key.
    pub key: Bytes,
    /// Written value (writes only).
    pub value: Option<Bytes>,
    /// Invocation time (first attempt).
    pub invoked: Instant,
    /// Completion time.
    pub completed: Instant,
    /// Observed value (reads only; `None` for key-absent).
    pub result: Option<Bytes>,
    /// False if the op was abandoned (all attempts failed).
    pub ok: bool,
}

/// How a read is being routed, decided by the switch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ReadMode {
    /// Follow the normal replication protocol (contended object, or the
    /// switch has not yet enabled fast-path reads).
    Normal,
    /// Single-replica fast path: the packet is flagged so the chosen replica
    /// may answer directly, subject to the last-committed guard (§5.2).
    FastPath {
        /// Which switch incarnation issued this fast-path read; replicas
        /// only honour the active switch (§5.3).
        switch: SwitchId,
    },
}

impl ReadMode {
    /// True for fast-path reads.
    pub fn is_fast_path(self) -> bool {
        matches!(self, ReadMode::FastPath { .. })
    }
}

/// The flags byte of the Harmonia header: one bit per optional field of a
/// request or reply (and one for the op type), so a parser knows the length
/// of the header — and where every field sits — from this byte alone. The
/// wire codec ([`crate::wire`]) derives it from the packet on encode and
/// rebuilds the `Option`s from it on decode; it is not stored in a packet.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct PacketFlags(pub u8);

impl PacketFlags {
    /// The read was routed on the single-replica fast path; the issuing
    /// switch's id follows ([`ReadMode::FastPath`]).
    pub const FAST_PATH: PacketFlags = PacketFlags(1 << 0);
    /// The reply piggybacks a write completion (§5.1, Figure 2b).
    pub const PIGGYBACK_COMPLETION: PacketFlags = PacketFlags(1 << 1);
    /// A value is present (a write's new value, a read reply's result) —
    /// `Some(b"")` sets the bit with a zero length, `None` clears it.
    pub const VALUE: PacketFlags = PacketFlags(1 << 2);
    /// The switch stamped a sequence number (Algorithm 1 l.2–3).
    pub const SEQ: PacketFlags = PacketFlags(1 << 3);
    /// The switch stamped the last-committed point (Algorithm 1 l.11).
    pub const LAST_COMMITTED: PacketFlags = PacketFlags(1 << 4);
    /// The reply reports a write outcome.
    pub const WRITE_OUTCOME: PacketFlags = PacketFlags(1 << 5);
    /// Op type of a request: set for [`OpKind::Write`], clear for a read.
    pub const WRITE: PacketFlags = PacketFlags(1 << 6);

    /// Test whether all bits of `flag` are set.
    pub fn contains(self, flag: PacketFlags) -> bool {
        self.0 & flag.0 == flag.0
    }

    /// `self` with the bits of `flag` set iff `on`.
    #[must_use]
    pub fn with(self, flag: PacketFlags, on: bool) -> PacketFlags {
        PacketFlags(self.0 | if on { flag.0 } else { 0 })
    }
}

/// A client-issued storage request, as seen on the wire.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClientRequest {
    /// Issuing client.
    pub client: ClientId,
    /// Per-client request number (for reply matching and dedup).
    pub request: RequestId,
    /// Read or write.
    pub op: OpKind,
    /// Fixed-width object id (hash of `key` for variable-length keys).
    pub obj: ObjectId,
    /// The original application key, carried in the payload (§6.1).
    pub key: Bytes,
    /// New value; `Some` iff `op == Write`.
    pub value: Option<Bytes>,
    /// Sequence number stamped by the switch onto writes (Algorithm 1 l.2–3).
    pub seq: Option<SwitchSeq>,
    /// Last-committed point stamped onto fast-path reads (Algorithm 1 l.11).
    pub last_committed: Option<SwitchSeq>,
    /// Routing decision for reads.
    pub read_mode: ReadMode,
}

impl ClientRequest {
    /// A fresh read request, before the switch has seen it.
    pub fn read(client: ClientId, request: RequestId, key: impl Into<Bytes>) -> Self {
        let key = key.into();
        ClientRequest {
            client,
            request,
            op: OpKind::Read,
            obj: ObjectId::from_key(&key),
            key,
            value: None,
            seq: None,
            last_committed: None,
            read_mode: ReadMode::Normal,
        }
    }

    /// A fresh write request, before the switch has seen it.
    pub fn write(
        client: ClientId,
        request: RequestId,
        key: impl Into<Bytes>,
        value: impl Into<Bytes>,
    ) -> Self {
        let key = key.into();
        ClientRequest {
            client,
            request,
            op: OpKind::Write,
            obj: ObjectId::from_key(&key),
            key,
            value: Some(value.into()),
            seq: None,
            last_committed: None,
            read_mode: ReadMode::Normal,
        }
    }
}

/// Outcome of a write, reported to the client.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteOutcome {
    /// The write was committed by the replication protocol.
    Committed,
    /// The switch dropped the write because the dirty set had no free slot
    /// for the object (§6.1 "the write is dropped if no slot is available").
    /// Clients should back off and retry.
    DroppedBySwitch,
    /// The replication protocol rejected the write (e.g. it arrived out of
    /// sequence-number order and the in-order rule discarded it). Retry.
    Rejected,
}

/// A reply to a [`ClientRequest`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClientReply {
    /// Destination client.
    pub client: ClientId,
    /// The replica that produced this reply. Multi-reply protocols
    /// (NOPaxos) count a write committed only after a quorum of *distinct*
    /// repliers: retries reuse the request id (exactly-once sessions), so
    /// without provenance a late original reply plus a replica's
    /// deduplicated re-send would be counted as two acknowledgements.
    pub from: ReplicaId,
    /// Request this reply answers.
    pub request: RequestId,
    /// Object concerned (for switch-side piggyback processing).
    pub obj: ObjectId,
    /// Read result: the value, or `None` if the key is unset. Writes carry
    /// `None`.
    pub value: Option<Bytes>,
    /// Write outcome; `None` for read replies.
    pub write_outcome: Option<WriteOutcome>,
    /// Write completion piggybacked on the reply (Figure 2b): the switch
    /// snoops replies flowing back through it and processes this field as a
    /// WRITE-COMPLETION before forwarding the reply to the client.
    pub completion: Option<WriteCompletion>,
}

/// Notification that a write is fully committed (§5.1, "write completions").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WriteCompletion {
    /// The object that was written.
    pub obj: ObjectId,
    /// The sequence number of the committed write.
    pub seq: SwitchSeq,
}

/// Switch control-plane commands (§5.3, "handling server failures").
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ControlMsg {
    /// Add a recovered/replacement replica to the forwarding table.
    AddReplica(ReplicaId),
    /// Remove a failed replica from the forwarding table so no further
    /// requests are scheduled to it.
    RemoveReplica(ReplicaId),
    /// Replace the full replica set.
    SetReplicas(Vec<ReplicaId>),
    /// Gate a recovering replica: keep it in the membership (so protocol
    /// traffic reaches it) but exclude it from read scheduling — both the
    /// fast path and normal-path role selection — until it has caught up
    /// past every write in its recovery window.
    GateReplica(ReplicaId),
    /// Lift a replica's gate. `caught_up` is the sequence point the replica
    /// has provably applied through; the switch only re-admits it if that
    /// point covers the gate's floor (the last-committed point when the
    /// gate was installed), so a stale or reordered ungate can never expose
    /// an un-caught-up replica to reads.
    UngateReplica {
        /// The recovered replica.
        replica: ReplicaId,
        /// Highest sequence point the replica has applied.
        caught_up: SwitchSeq,
    },
}

/// Everything that can flow over a link.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PacketBody<T> {
    /// Client → rack storage traffic; the switch runs Algorithm 1 on these.
    Request(ClientRequest),
    /// Rack → client replies; the switch snoops piggybacked completions.
    Reply(ClientReply),
    /// Standalone WRITE-COMPLETION from the replication protocol.
    Completion(WriteCompletion),
    /// Protocol-internal message, routed by plain L2/L3 forwarding.
    Protocol(T),
    /// Control-plane command for the switch.
    Control(ControlMsg),
}

/// Where a packet **addressed to the switch** goes — the one forwarding
/// decision every sender-side spine makes ([`PacketBody::switch_route`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SwitchRoute {
    /// The pipeline of the group that owns this object (§6.3 shard routing).
    Group(ObjectId),
    /// Every group's pipeline: control names a replica, not an object, and
    /// only the pipelines know where a replica lives.
    EveryGroup,
    /// Any one pipeline: plain L2/L3 forwarding needs no group state.
    AnyGroup,
    /// Past the switch, to this client's own ingress: the packet carries
    /// nothing Algorithm 1 acts on.
    Client(ClientId),
}

impl<T> PacketBody<T> {
    /// Where this packet goes when its destination names the switch.
    ///
    /// The switch acts on three kinds of packet — writes, reads and write
    /// completions (Algorithm 1) — plus its own control plane, so those go
    /// to the pipeline holding the state they touch. A reply travels back
    /// through the switch *so that its piggybacked completion can be
    /// snooped* (Figure 2b); one that carries none — every read reply, a
    /// rejected write, a read-behind protocol's write ack (§7.3: its
    /// completion travels standalone) — has nothing for the switch, and a
    /// spine forwards it to the client as it would any other unicast frame.
    /// That is safe because switch state moves only on write requests,
    /// completions and control, all of which still reach it, and a read
    /// linearizes when the replica executes it, whichever way the reply
    /// travels.
    pub fn switch_route(&self) -> SwitchRoute {
        match self {
            PacketBody::Request(req) => SwitchRoute::Group(req.obj),
            PacketBody::Reply(reply) => match reply.completion {
                Some(_) => SwitchRoute::Group(reply.obj),
                None => SwitchRoute::Client(reply.client),
            },
            PacketBody::Completion(c) => SwitchRoute::Group(c.obj),
            PacketBody::Control(_) => SwitchRoute::EveryGroup,
            PacketBody::Protocol(_) => SwitchRoute::AnyGroup,
        }
    }
}

/// A packet in flight: source, destination, payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Packet<T> {
    /// Sender.
    pub src: NodeId,
    /// Receiver. For client requests this is initially the switch; the
    /// switch rewrites it to the chosen replica (Algorithm 1 l.12–13).
    pub dst: NodeId,
    /// Payload.
    pub body: PacketBody<T>,
}

impl<T> Packet<T> {
    /// Construct a packet.
    pub fn new(src: NodeId, dst: NodeId, body: PacketBody<T>) -> Self {
        Packet { src, dst, body }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_constructors_fill_header() {
        let r = ClientRequest::read(ClientId(1), RequestId(7), &b"k1"[..]);
        assert_eq!(r.op, OpKind::Read);
        assert_eq!(r.obj, ObjectId::from_key(b"k1"));
        assert!(r.value.is_none());
        assert_eq!(r.read_mode, ReadMode::Normal);

        let w = ClientRequest::write(ClientId(1), RequestId(8), &b"k1"[..], &b"v"[..]);
        assert_eq!(w.op, OpKind::Write);
        assert_eq!(w.value.as_deref(), Some(&b"v"[..]));
        assert!(
            w.seq.is_none(),
            "sequence is stamped by the switch, not the client"
        );
    }

    #[test]
    fn flags_bit_ops() {
        let f = PacketFlags::default();
        assert!(!f.contains(PacketFlags::FAST_PATH));
        let f = f.with(PacketFlags::FAST_PATH, true);
        assert!(f.contains(PacketFlags::FAST_PATH));
        assert!(!f.contains(PacketFlags::PIGGYBACK_COMPLETION));
        let f = f.with(PacketFlags::PIGGYBACK_COMPLETION, true);
        assert!(f.contains(PacketFlags::PIGGYBACK_COMPLETION));
        assert_eq!(f.with(PacketFlags::VALUE, false), f, "off leaves it alone");
        // One bit each: the codec sums field lengths per flag.
        let all = [
            PacketFlags::FAST_PATH,
            PacketFlags::PIGGYBACK_COMPLETION,
            PacketFlags::VALUE,
            PacketFlags::SEQ,
            PacketFlags::LAST_COMMITTED,
            PacketFlags::WRITE_OUTCOME,
            PacketFlags::WRITE,
        ];
        assert!(all.iter().all(|f| f.0.count_ones() == 1));
        assert_eq!(all.iter().fold(0, |acc, f| acc | f.0), 0x7f);
    }

    /// The whole `switch_route` table: a reply leaves for its client exactly
    /// when it has no completion for the switch to snoop; everything
    /// Algorithm 1 or the control plane acts on goes to a pipeline.
    #[test]
    fn switch_route_sends_only_completion_less_replies_past_the_switch() {
        let (client, obj) = (ClientId(7), ObjectId::from_key(b"k"));
        let reply = |value, write_outcome, completion| -> PacketBody<u64> {
            PacketBody::Reply(ClientReply {
                client,
                from: ReplicaId(2),
                request: RequestId(1),
                obj,
                value,
                write_outcome,
                completion,
            })
        };
        let done = WriteCompletion {
            obj,
            seq: SwitchSeq::new(SwitchId(1), 1),
        };
        for past_the_switch in [
            // A read reply, hit or miss.
            reply(Some(Bytes::from_static(b"v")), None, None),
            reply(None, None, None),
            // A rejected write.
            reply(None, Some(WriteOutcome::Rejected), None),
            // A VR / NOPaxos write ack: its completion travels standalone.
            reply(None, Some(WriteOutcome::Committed), None),
        ] {
            assert_eq!(past_the_switch.switch_route(), SwitchRoute::Client(client));
        }
        let read = ClientRequest::read(client, RequestId(1), &b"k"[..]);
        let write = ClientRequest::write(client, RequestId(2), &b"k"[..], &b"v"[..]);
        for to_the_group in [
            reply(None, Some(WriteOutcome::Committed), Some(done)),
            PacketBody::Completion(done),
            PacketBody::Request(read),
            PacketBody::Request(write),
        ] {
            assert_eq!(to_the_group.switch_route(), SwitchRoute::Group(obj));
        }
        let control: PacketBody<u64> = PacketBody::Control(ControlMsg::AddReplica(ReplicaId(9)));
        assert_eq!(control.switch_route(), SwitchRoute::EveryGroup);
        assert_eq!(
            PacketBody::Protocol(1u64).switch_route(),
            SwitchRoute::AnyGroup
        );
    }

    #[test]
    fn read_mode_fast_path_detection() {
        assert!(!ReadMode::Normal.is_fast_path());
        assert!(ReadMode::FastPath {
            switch: SwitchId(1)
        }
        .is_fast_path());
    }
}
