//! Property-based tests on the core data structures and invariants.

use bytes::Bytes;
use harmonia::kv::{Store, VersionChain, VersionedValue};
use harmonia::prelude::*;
use harmonia::replication::messages::{
    ChainMsg, CraqMsg, NopaxosMsg, PbMsg, ProtocolMsg, ReplicaControlMsg, SnapshotEntry,
    SnapshotState, StateTransferMsg, VrMsg, WriteOp,
};
use harmonia::replication::{Effects, Server};
use harmonia::switch::conflict::{ConflictConfig, WriteDecision};
use harmonia::switch::table::TableConfig as TC;
use harmonia::switch::{Report, Switch, Verdict};
use harmonia::types::wire::{decode_frame, encode_frame, encode_frame_into, frames};
use harmonia::types::{
    ClientReply, ClientRequest, ControlMsg, ObjectId, Packet, PacketBody, ReadMode, RequestId,
    SwitchSeq, WriteCompletion, WriteOutcome,
};
use proptest::prelude::*;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};

fn arb_seq() -> impl Strategy<Value = SwitchSeq> {
    (1u32..4, 0u64..1000).prop_map(|(s, n)| SwitchSeq::new(SwitchId(s), n))
}

/// One register operation on key `k0` or `k1`: whether it writes, how many
/// writes back the value a read observes lies (past 29: mostly the latest),
/// the gap after the previous invocation, how long it stays in flight, and
/// whether (at 0) it opens a new checker call.
type RegisterOp = (u8, bool, usize, u64, u64, u8);

fn arb_register_op() -> impl Strategy<Value = RegisterOp> {
    (
        0u8..2,
        prop::bool::ANY,
        0usize..32,
        0u64..30,
        0u64..60,
        0u8..4,
    )
}

/// Recorded operations in invocation order, each write of a value of its
/// own and each read observing a recent write (or the initial absence), so
/// that histories both pass and fail. An operation that opens a new call
/// starts after every earlier one has completed.
fn register_history(ops: &[RegisterOp]) -> Vec<(RecordedOp, bool)> {
    let mut written: [Vec<Bytes>; 2] = [vec![], vec![]];
    let (mut t, mut busy_until) = (0, 0);
    ops.iter()
        .enumerate()
        .map(|(i, &(k, is_write, back, gap, len, call))| {
            let cut = call == 0;
            t = if cut { busy_until + 1 } else { t + gap };
            busy_until = busy_until.max(t + len);
            let key = Bytes::from(format!("k{k}"));
            let values = &mut written[k as usize];
            let (kind, value, result) = if is_write {
                values.push(Bytes::from(format!("w{i}")));
                (OpKind::Write, values.last().cloned(), None)
            } else {
                let seen = values
                    .len()
                    .checked_sub(back.saturating_sub(29) + 1)
                    .map(|j| values[j].clone());
                (OpKind::Read, None, seen)
            };
            let op = RecordedOp {
                kind,
                key,
                value,
                invoked: Instant::ZERO + Duration::from_nanos(t),
                completed: Instant::ZERO + Duration::from_nanos(t + len),
                result,
                ok: true,
            };
            (op, cut)
        })
        .collect()
}

fn arb_completion() -> impl Strategy<Value = WriteCompletion> {
    (0u32..64, arb_seq()).prop_map(|(o, seq)| WriteCompletion {
        obj: ObjectId(o),
        seq,
    })
}

fn arb_reply() -> impl Strategy<Value = ClientReply> {
    (
        0u32..100,
        0u64..10_000,
        0u32..64,
        prop::option::of(prop::collection::vec(any::<u8>(), 0..64)),
        prop::option::of(0u8..3),
        prop::option::of(arb_completion()),
    )
        .prop_map(|(c, r, o, value, outcome, completion)| ClientReply {
            client: ClientId(c),
            from: ReplicaId(c % 7),
            request: RequestId(r),
            obj: ObjectId(o),
            value: value.map(Bytes::from),
            write_outcome: outcome.map(|w| match w {
                0 => WriteOutcome::Committed,
                1 => WriteOutcome::DroppedBySwitch,
                _ => WriteOutcome::Rejected,
            }),
            completion,
        })
}

fn arb_control() -> impl Strategy<Value = ControlMsg> {
    (0u8..3, 0u32..8, prop::collection::vec(0u32..8, 0..5)).prop_map(|(kind, r, rs)| match kind {
        0 => ControlMsg::AddReplica(ReplicaId(r)),
        1 => ControlMsg::RemoveReplica(ReplicaId(r)),
        _ => ControlMsg::SetReplicas(rs.into_iter().map(ReplicaId).collect()),
    })
}

fn arb_request() -> impl Strategy<Value = ClientRequest> {
    (
        0u32..100,
        0u64..10_000,
        prop::collection::vec(any::<u8>(), 0..64),
        prop::option::of(prop::collection::vec(any::<u8>(), 0..128)),
        prop::option::of(arb_seq()),
        prop::option::of(arb_seq()),
        prop::bool::ANY,
    )
        .prop_map(|(c, r, key, value, seq, lc, fast)| {
            let mut req = match &value {
                Some(v) => ClientRequest::write(
                    ClientId(c),
                    RequestId(r),
                    Bytes::from(key),
                    Bytes::from(v.clone()),
                ),
                None => ClientRequest::read(ClientId(c), RequestId(r), Bytes::from(key)),
            };
            req.seq = seq;
            req.last_committed = lc;
            if fast {
                req.read_mode = ReadMode::FastPath {
                    switch: SwitchId(1),
                };
            }
            req
        })
}

/// A Harmonia(chain) deployment of `groups` three-replica groups with a
/// two-stage dirty set per group.
fn sharded_spec(groups: usize, slots_per_stage: usize) -> DeploymentSpec {
    DeploymentSpec::new().groups(groups).table(TC {
        stages: 2,
        slots_per_stage,
        entry_bytes: 8,
    })
}

/// One frame of a coalesced datagram as the UDP driver sends it: any
/// `PacketBody` variant, the protocol bodies being real replica messages of
/// every protocol (one, two and many payloads per frame).
fn arb_frame() -> impl Strategy<Value = Packet<ProtocolMsg>> {
    (
        0u8..12,
        arb_request(),
        arb_reply(),
        arb_completion(),
        arb_control(),
        arb_seq(),
        0u64..1000,
    )
        .prop_map(|(kind, req, reply, completion, control, seq, n)| {
            let op = WriteOp {
                seq,
                obj: req.obj,
                key: req.key.clone(),
                value: req.value.clone().unwrap_or_default(),
                client: req.client,
                request: req.request,
            };
            let body = match kind {
                0 | 1 => PacketBody::Request(req),
                2 | 3 => PacketBody::Reply(reply),
                4 => PacketBody::Completion(completion),
                5 => PacketBody::Control(control),
                6 => PacketBody::Protocol(ProtocolMsg::Chain(ChainMsg::Down(op))),
                7 => PacketBody::Protocol(ProtocolMsg::Pb(PbMsg::Update(op))),
                8 => PacketBody::Protocol(ProtocolMsg::Craq(CraqMsg::Clean {
                    obj: op.obj,
                    key: op.key,
                    seq,
                })),
                9 => PacketBody::Protocol(ProtocolMsg::Vr(VrMsg::Prepare {
                    view: n,
                    op_num: n + 1,
                    op,
                    commit: n,
                })),
                10 => PacketBody::Protocol(ProtocolMsg::Nopaxos(NopaxosMsg::GapReply {
                    session: 1,
                    oum_seq: n,
                    op: Some(op),
                })),
                _ => PacketBody::Protocol(ProtocolMsg::StateTransfer(StateTransferMsg::Log {
                    ops: vec![op.clone(), op],
                })),
            };
            Packet::new(
                NodeId::Replica(ReplicaId(n as u32 % 3)),
                NodeId::Switch(SwitchId(1)),
                body,
            )
        })
}

/// Every key and value an [`arb_frame`] packet carries.
fn payloads(pkt: &Packet<ProtocolMsg>) -> Vec<&Bytes> {
    fn of_op(op: &WriteOp) -> Vec<&Bytes> {
        vec![&op.key, &op.value]
    }
    match &pkt.body {
        PacketBody::Request(r) => std::iter::once(&r.key).chain(&r.value).collect(),
        PacketBody::Reply(r) => r.value.iter().collect(),
        PacketBody::Completion(_) | PacketBody::Control(_) => Vec::new(),
        PacketBody::Protocol(msg) => match msg {
            ProtocolMsg::Chain(ChainMsg::Down(op))
            | ProtocolMsg::Pb(PbMsg::Update(op))
            | ProtocolMsg::Vr(VrMsg::Prepare { op, .. })
            | ProtocolMsg::Nopaxos(NopaxosMsg::GapReply { op: Some(op), .. }) => of_op(op),
            ProtocolMsg::Craq(CraqMsg::Clean { key, .. }) => vec![key],
            ProtocolMsg::StateTransfer(StateTransferMsg::Log { ops }) => {
                ops.iter().flat_map(of_op).collect()
            }
            // A flip can turn a frame into any other message; the ones that
            // hold payloads `arb_frame` never builds are not walked.
            _ => Vec::new(),
        },
    }
}

/// A number near either end of `u64`, mostly the low one: where
/// off-by-one and overflow live.
fn edge_u64() -> impl Strategy<Value = u64> {
    (0u8..4, 0u64..2).prop_map(|(end, n)| if end == 0 { u64::MAX - n } else { n })
}

/// A replica id as a peer names itself: mostly a member of a 3-replica
/// group, sometimes a stranger.
fn edge_replica() -> impl Strategy<Value = ReplicaId> {
    (0u8..11, 0u32..3).prop_map(|(who, n)| match who {
        0..=8 => ReplicaId(u32::from(who) % 3),
        9 => ReplicaId(7),
        _ => ReplicaId(u32::MAX - n),
    })
}

/// A membership as a control message can set it: mostly the group's own
/// members with roles rotated, sometimes any list (strangers, empty).
fn edge_members() -> impl Strategy<Value = Vec<ReplicaId>> {
    (0u8..3, 0u32..3, prop::collection::vec(edge_replica(), 0..4)).prop_map(|(k, r, any)| match k {
        0 => any,
        _ => (0..3).map(|i| ReplicaId((i + r) % 3)).collect(),
    })
}

fn edge_seq() -> impl Strategy<Value = SwitchSeq> {
    (0u8..4, edge_u64()).prop_map(|(s, n)| {
        let switch = if s == 0 { u32::MAX } else { u32::from(s) };
        SwitchSeq::new(SwitchId(switch), n)
    })
}

fn edge_op() -> impl Strategy<Value = WriteOp> {
    (edge_seq(), 0u8..4, any::<u8>(), 0u32..3, edge_u64()).prop_map(|(seq, k, v, c, r)| {
        let key = Bytes::from(format!("k{k}"));
        WriteOp {
            seq,
            obj: ObjectId::from_key(&key),
            key,
            value: Bytes::from(vec![v]),
            client: ClientId(c),
            request: RequestId(r),
        }
    })
}

fn edge_entry() -> impl Strategy<Value = SnapshotEntry> {
    (edge_op(), prop::bool::ANY).prop_map(|(op, dirty)| SnapshotEntry {
        key: op.key,
        obj: op.obj,
        value: op.value,
        seq: op.seq,
        dirty,
    })
}

fn edge_state() -> impl Strategy<Value = SnapshotState> {
    (
        (edge_seq(), edge_seq()),
        (edge_u64(), edge_u64(), edge_u64()),
        prop::collection::vec((0u32..3, edge_u64()), 0..3),
        prop::collection::vec(arb_reply(), 0..2),
    )
        .prop_map(
            |((in_order, applied), (local_seq, commit_num, session), clients, replies)| {
                SnapshotState {
                    in_order,
                    applied,
                    local_seq,
                    commit_num,
                    session,
                    clients: (clients.into_iter())
                        .map(|(c, r)| (ClientId(c), RequestId(r)))
                        .collect(),
                    replies,
                }
            },
        )
}

/// Any message a peer can put on a replica's socket: every `ProtocolMsg`
/// variant, its numbers near 0 and near `u64::MAX`, its `from` fields
/// whoever the sender is.
fn arb_peer_msg() -> impl Strategy<Value = ProtocolMsg> {
    (
        0u8..23,
        (edge_u64(), edge_u64(), edge_u64()),
        (edge_replica(), edge_seq()),
        (edge_op(), prop::option::of(edge_op())),
        prop::collection::vec(edge_op(), 0..3),
        prop::collection::vec(edge_entry(), 0..3),
        edge_members(),
        edge_state(),
    )
        .prop_map(
            |(kind, (a, b, c), (from, seq), (op, maybe), ops, entries, members, state)| {
                use ProtocolMsg as P;
                let (client, request) = (op.client, op.request);
                match kind {
                    0 => P::Pb(PbMsg::Update(op)),
                    1 => P::Pb(PbMsg::Ack { seq, from }),
                    2 => P::Chain(ChainMsg::Down(op)),
                    3 => P::Chain(ChainMsg::ReReply { client, request }),
                    4 => P::Craq(CraqMsg::Down(op)),
                    5 => P::Craq(CraqMsg::Clean {
                        obj: op.obj,
                        key: op.key,
                        seq,
                    }),
                    6 => P::Craq(CraqMsg::ReReply { client, request }),
                    7 => P::Vr(VrMsg::Prepare {
                        view: a,
                        op_num: b,
                        op,
                        commit: c,
                    }),
                    8 => P::Vr(VrMsg::PrepareOk {
                        view: a,
                        op_num: b,
                        from,
                    }),
                    9 => P::Vr(VrMsg::Commit { view: a, commit: b }),
                    10 => P::Vr(VrMsg::CommitAck {
                        view: a,
                        op_num: b,
                        from,
                    }),
                    11 => P::Nopaxos(NopaxosMsg::Sequenced {
                        session: a,
                        oum_seq: b,
                        op,
                    }),
                    12 => P::Nopaxos(NopaxosMsg::GapRequest {
                        session: a,
                        oum_seq: b,
                        from,
                    }),
                    13 => P::Nopaxos(NopaxosMsg::GapReply {
                        session: a,
                        oum_seq: b,
                        op: maybe,
                    }),
                    14 => P::Nopaxos(NopaxosMsg::Sync {
                        session: a,
                        upto: b,
                    }),
                    15 => P::Nopaxos(NopaxosMsg::SyncAck {
                        session: a,
                        upto: b,
                        from,
                    }),
                    16 => P::Control(ReplicaControlMsg::SetActiveSwitch(seq.switch_id)),
                    17 => P::Control(ReplicaControlMsg::SetMembers(members)),
                    18 => P::StateTransfer(StateTransferMsg::Request { from }),
                    19 => P::StateTransfer(StateTransferMsg::Entries { entries }),
                    20 => P::StateTransfer(StateTransferMsg::Log { ops }),
                    _ => P::StateTransfer(StateTransferMsg::Done {
                        state,
                        entries: a,
                        ops: b,
                    }),
                }
            },
        )
}

/// A client request as a hostile sender can stamp it.
fn edge_request() -> impl Strategy<Value = ClientRequest> {
    (
        (edge_op(), prop::bool::ANY),
        (prop::option::of(edge_seq()), prop::option::of(edge_seq())),
        prop::option::of(edge_seq()),
    )
        .prop_map(|((op, write), (seq, last_committed), fast)| {
            let mut req = if write {
                ClientRequest::write(op.client, op.request, op.key, op.value)
            } else {
                ClientRequest::read(op.client, op.request, op.key)
            };
            req.seq = seq;
            req.last_committed = last_committed;
            if let Some(flagged) = fast {
                req.read_mode = ReadMode::FastPath {
                    switch: flagged.switch_id,
                };
            }
            req
        })
}

/// One step of a hostile peer: a packet for the replica (`None`: a tick).
fn arb_peer_step() -> impl Strategy<Value = Option<PacketBody<ProtocolMsg>>> {
    (0u8..12, edge_request(), arb_peer_msg(), arb_completion()).prop_map(
        |(kind, req, msg, completion)| match kind {
            0 => None,
            1 | 2 => Some(PacketBody::Request(req)),
            3 => Some(PacketBody::Completion(completion)),
            _ => Some(PacketBody::Protocol(msg)),
        },
    )
}

/// A replica a control message names at a switch of one or two
/// three-replica groups: mostly a provisioned one, sometimes a stranger.
fn edge_member() -> impl Strategy<Value = ReplicaId> {
    (0u8..8, 0u32..6).prop_map(|(who, n)| match who {
        0..=5 => ReplicaId(n),
        6 => ReplicaId(7),
        _ => ReplicaId(u32::MAX - n),
    })
}

/// Every `ControlMsg`, about members and strangers, a bulk one empty too.
fn edge_control() -> impl Strategy<Value = ControlMsg> {
    (
        0u8..5,
        edge_member(),
        edge_seq(),
        prop::collection::vec(edge_member(), 0..4),
    )
        .prop_map(|(kind, replica, caught_up, members)| match kind {
            0 => ControlMsg::AddReplica(replica),
            1 => ControlMsg::RemoveReplica(replica),
            2 => ControlMsg::GateReplica(replica),
            3 => ControlMsg::UngateReplica { replica, caught_up },
            _ => ControlMsg::SetReplicas(members),
        })
}

/// A WRITE-COMPLETION for one of `edge_op`'s keys, its seq near either end
/// and of any incarnation, the switch's own or a foreign one.
fn edge_completion() -> impl Strategy<Value = WriteCompletion> {
    (0u8..4, edge_seq()).prop_map(|(k, seq)| WriteCompletion {
        obj: ObjectId::from_key(format!("k{k}").as_bytes()),
        seq,
    })
}

/// One step at a switch: any `PacketBody` addressed to it — requests of
/// both ops, replies with and without a completion, completions, control,
/// protocol messages — or (`None`) a sweep.
fn arb_switch_step() -> impl Strategy<Value = Option<PacketBody<ProtocolMsg>>> {
    (
        0u8..12,
        edge_request(),
        (arb_reply(), prop::option::of(edge_completion())),
        edge_completion(),
        edge_control(),
        arb_peer_msg(),
    )
        .prop_map(
            |(kind, req, (mut reply, snooped), completion, control, msg)| match kind {
                0 => None,
                1..=3 => Some(PacketBody::Request(req)),
                4 | 5 => {
                    reply.completion = snooped;
                    reply.obj = snooped.map_or(reply.obj, |c| c.obj);
                    Some(PacketBody::Reply(reply))
                }
                6 | 7 => Some(PacketBody::Completion(completion)),
                8 | 9 => Some(PacketBody::Control(control)),
                _ => Some(PacketBody::Protocol(msg)),
            },
        )
}

/// A version number as a replayed or hostile write can carry it: small,
/// repeated and out of order, sometimes at the top of `u64`, and under
/// switch 0 the `ZERO` sentinel itself.
fn kv_seq() -> impl Strategy<Value = SwitchSeq> {
    (0u32..3, 0u8..4, 0u64..6).prop_map(|(switch, end, n)| {
        let seq = if end == 0 { u64::MAX - n } else { n };
        SwitchSeq::new(SwitchId(switch), seq)
    })
}

proptest! {
    /// No packet a peer can send panics a replica. Every storage server —
    /// 5 protocols × members 0–2, serving and recovering — takes the same
    /// run of well-formed packets (each through the codec first, so only
    /// what a socket can deliver) and ticks.
    #[test]
    fn every_replica_survives_any_well_formed_packet(
        steps in prop::collection::vec(arb_peer_step(), 1..300),
    ) {
        use ProtocolKind::*;
        let mut servers = Vec::new();
        for kind in [PrimaryBackup, Chain, Craq, Vr, Nopaxos] {
            for me in 0..3u32 {
                for recover_from in [None, Some(ReplicaId((me + 1) % 3))] {
                    let server = Server::new(GroupConfig::new(kind, 3, me, true), recover_from);
                    server.start(&mut Effects::new());
                    servers.push(server);
                }
            }
        }
        let mut fx = Effects::new();
        for step in steps {
            match step {
                None => servers.iter_mut().for_each(|s| s.on_tick(&mut fx)),
                Some(body) => {
                    let to = NodeId::Replica(ReplicaId(0));
                    let pkt = Packet::new(NodeId::Replica(ReplicaId(1)), to, body);
                    let frame = encode_frame(&pkt).unwrap();
                    let (got, _) = decode_frame::<Packet<ProtocolMsg>>(&frame).unwrap().unwrap();
                    prop_assert_eq!(&got, &pkt);
                    for server in &mut servers {
                        server.on_packet(got.body.clone(), &mut fx);
                    }
                }
            }
            fx.out.clear();
        }
    }

    /// No packet anyone can address to the switch panics it. Every switch —
    /// 5 protocols × one or two groups × Harmonia or baseline, each group a
    /// two-stage dirty set of two slots per stage — takes the same run of
    /// well-formed packets (each through the codec first) and sweeps. Its
    /// dirty sets stay within their capacity, and each report counts the
    /// pipelines `Counter::SwitchPackets` counts: one for what a group acts
    /// on, none for a reply forwarded past every pipeline, one per owning
    /// group for control.
    #[test]
    fn every_switch_survives_any_well_formed_packet(
        steps in prop::collection::vec(arb_switch_step(), 1..200),
    ) {
        use ProtocolKind::*;
        let table = TC { stages: 2, slots_per_stage: 2, entry_bytes: 8 };
        let mut switches = Vec::new();
        for kind in [PrimaryBackup, Chain, Craq, Vr, Nopaxos] {
            for groups in [1, 2] {
                for harmonia in [true, false] {
                    let spec = DeploymentSpec::new()
                        .protocol(kind)
                        .groups(groups)
                        .harmonia(harmonia)
                        .table(table);
                    switches.push((Switch::new(&spec.switch_config(SwitchId(1))), spec));
                }
            }
        }
        let me = NodeId::Switch(SwitchId(1));
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        for (n, step) in steps.into_iter().enumerate() {
            let now = Instant::ZERO + Duration::from_micros(n as u64);
            let Some(body) = step else {
                switches.iter_mut().for_each(|(switch, _)| { switch.sweep(now); });
                continue;
            };
            let pkt = Packet::new(NodeId::Replica(ReplicaId(1)), me, body);
            let frame = encode_frame(&pkt).unwrap();
            let (got, _) = decode_frame::<Packet<ProtocolMsg>>(&frame).unwrap().unwrap();
            prop_assert_eq!(&got, &pkt);
            for (switch, spec) in &mut switches {
                let pipelines = match &got.body {
                    PacketBody::Reply(reply) if reply.completion.is_none() => 0,
                    PacketBody::Control(ctl) => {
                        let subject = match ctl {
                            ControlMsg::AddReplica(r)
                            | ControlMsg::RemoveReplica(r)
                            | ControlMsg::GateReplica(r)
                            | ControlMsg::UngateReplica { replica: r, .. } => Some(*r),
                            ControlMsg::SetReplicas(rs) => rs.first().copied(),
                        };
                        let owns = |g: usize| subject.is_some_and(|r| {
                            spec.group_members(g).contains(&r)
                                || switch.members(GroupId(g as u32)).unwrap().contains(&r)
                        });
                        (0..spec.groups).filter(|&g| owns(g)).count() as u64
                    }
                    _ => 1,
                };
                let report = switch.handle(now, me, got.clone(), &mut rng, &mut out);
                prop_assert_eq!(report.pipelines, pipelines, "{:?}", got.body);
                let is_request = matches!(got.body, PacketBody::Request(_));
                prop_assert_eq!(report.request.is_some(), is_request);
                if let (Some(scheduled), PacketBody::Request(req)) = (report.request, &got.body) {
                    prop_assert_eq!(scheduled.obj, req.obj);
                    let write = matches!(scheduled.verdict, Verdict::Forward | Verdict::Drop);
                    prop_assert_eq!(write, req.op == OpKind::Write);
                }
                for row in switch.observe() {
                    prop_assert!(row.dirty_len <= table.stages * table.slots_per_stage);
                }
            }
            out.clear();
        }
    }

    /// Wire codec: encode → decode is the identity for request packets.
    #[test]
    fn wire_roundtrip_requests(req in arb_request()) {
        let pkt: Packet<u64> = Packet::new(
            NodeId::Client(req.client),
            NodeId::Switch(SwitchId(1)),
            PacketBody::Request(req),
        );
        let frame = encode_frame(&pkt).unwrap();
        let (decoded, used) = decode_frame::<Packet<u64>>(&frame).unwrap().unwrap();
        prop_assert_eq!(decoded, pkt);
        prop_assert_eq!(used, frame.len());
    }

    /// Wire codec: decoding never panics on arbitrary bytes (errors are
    /// returned, not thrown).
    #[test]
    fn wire_decode_is_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_frame::<Packet<u64>>(&bytes);
    }

    /// The multi-stage hash table agrees with a reference map under any
    /// operation sequence that respects the switch's usage contract:
    /// sequence numbers are globally increasing (Algorithm 1 stamps them
    /// from one counter) and deletions carry the sequence number of an
    /// admitted write. A present entry always reports the largest pending
    /// seq; absent entries (or dropped inserts) report nothing.
    #[test]
    fn table_matches_oracle(ops in prop::collection::vec(
        (0u8..3, 0u32..24), 1..300
    )) {
        let mut table = harmonia::switch::MultiStageHashTable::new(TC {
            stages: 2,
            slots_per_stage: 8,
            entry_bytes: 8,
        });
        // Oracle: obj -> seq for entries the table ACCEPTED.
        let mut oracle: HashMap<u32, SwitchSeq> = HashMap::new();
        let mut next = 0u64;
        for (kind, obj_raw) in ops {
            let obj = ObjectId(obj_raw);
            match kind {
                0 => {
                    next += 1;
                    let seq = SwitchSeq::new(SwitchId(1), next);
                    if table.insert(obj, seq) {
                        oracle.insert(obj_raw, seq);
                    }
                    // On drop: the table genuinely has no room; the oracle
                    // keeps whatever it had.
                }
                1 => {
                    let got = table.search(obj);
                    prop_assert_eq!(got, oracle.get(&obj_raw).copied(),
                        "search mismatch for {:?}", obj);
                }
                _ => {
                    // Completion for the object's admitted write, if any.
                    if let Some(&seq) = oracle.get(&obj_raw) {
                        table.delete(obj, seq);
                        oracle.remove(&obj_raw);
                    }
                }
            }
        }
        // Final occupancy can exceed the oracle only via duplicate stage
        // copies, never the reverse.
        prop_assert!(table.occupancy() >= oracle.len());
    }

    /// Conflict-detector invariant: an object with an uncommitted write is
    /// never offered the fast path (P2's precondition at the switch). The
    /// driver respects the protocol's write-order rule: writes complete in
    /// global sequence order — the §5.2 premise behind lazy scrubbing.
    #[test]
    fn dirty_objects_never_fast_path(ops in prop::collection::vec(
        (prop::bool::ANY, 0u32..16), 1..120
    )) {
        let mut det = harmonia::switch::ConflictDetector::new(ConflictConfig {
            switch_id: SwitchId(1),
            table: TC { stages: 3, slots_per_stage: 32, entry_bytes: 8 },
        });
        // Globally ordered pending writes (seq, obj): completions pop from
        // the front, exactly as an in-order replication protocol commits.
        let mut pending: Vec<(SwitchSeq, u32)> = Vec::new();
        for (is_write, obj_raw) in ops {
            let obj = ObjectId(obj_raw);
            if is_write {
                if let WriteDecision::Stamped(seq) = det.process_write(obj) {
                    pending.push((seq, obj_raw));
                }
            } else if !pending.is_empty() {
                let (seq, o) = pending.remove(0);
                det.process_completion(WriteCompletion {
                    obj: ObjectId(o),
                    seq,
                });
            }
            // Check the invariant on every object with pending writes.
            let mut dirty: Vec<u32> = pending.iter().map(|&(_, o)| o).collect();
            dirty.dedup();
            for o in dirty {
                let decision = det.process_read(ObjectId(o));
                prop_assert_eq!(
                    decision,
                    harmonia::switch::ReadDecision::Normal,
                    "object {} has pending writes but got fast path", o
                );
            }
        }
    }

    /// Zipf sampling is a valid distribution: samples stay in range, the
    /// pmf is strictly rank-ordered (a deterministic property — sampled
    /// counts at low theta are too noisy to compare pointwise), and the pmf
    /// sums to one.
    #[test]
    fn zipf_is_well_formed(n in 2usize..200, theta in 0.1f64..1.5) {
        let z = harmonia::workload::Zipf::new(n, theta);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        use rand::SeedableRng;
        for _ in 0..500 {
            prop_assert!(z.sample(&mut rng) < n);
        }
        prop_assert!(z.pmf(0) > z.pmf(n / 2) || n / 2 == 0);
        let total: f64 = (0..n).map(|k| z.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    /// Sequential (non-overlapping) register histories generated from a real
    /// register are always accepted by the checker.
    #[test]
    fn checker_accepts_sequential_histories(ops in prop::collection::vec(
        (prop::bool::ANY, 0u8..4), 1..30
    )) {
        use harmonia::verify::{check_key_history, OpRecord};
        let mut value: Option<Bytes> = None;
        let mut t = 0u64;
        let mut history = Vec::new();
        for (i, (is_write, v)) in ops.into_iter().enumerate() {
            t += 10;
            history.push(if is_write {
                let new = Bytes::from(format!("v{v}-{i}"));
                value = Some(new.clone());
                OpRecord::write(1, "k", new, t, t + 5)
            } else {
                OpRecord::read(1, "k", value.clone(), t, t + 5)
            });
        }
        prop_assert!(check_key_history(&history).is_ok());
    }

    /// Corrupting one read in a sequential history to a never-written value
    /// is always caught.
    #[test]
    fn checker_rejects_corrupted_reads(n_writes in 1usize..10) {
        use harmonia::verify::{check_key_history, OpRecord};
        let mut history = Vec::new();
        for i in 0..n_writes as u64 {
            history.push(OpRecord::write(1, "k", format!("v{i}"), i * 10, i * 10 + 5));
        }
        let t = n_writes as u64 * 10;
        let ghost = Some(Bytes::from_static(b"never-written"));
        history.push(OpRecord::read(2, "k", ghost, t, t + 5));
        prop_assert!(check_key_history(&history).is_err());
    }

    /// On histories the search takes whole (at most 63 operations per
    /// key), the checker's verdict is the whole-key verdict — also when
    /// the history reaches it in two calls, cut at a quiescent point, so
    /// the values carried across the cut are exactly the possible ones.
    #[test]
    fn windowed_checker_agrees_with_the_whole_key_search(
        ops in prop::collection::vec(arb_register_op(), 1..64),
    ) {
        use harmonia::verify::{check_key_history, OpRecord, Violation};
        let history = register_history(&ops);
        let mut checker = Checker::new();
        let windowed = history
            .chunk_by(|_, &(_, cut)| !cut)
            .try_for_each(|call| {
                let call: Vec<RecordedOp> = call.iter().map(|(r, _)| r.clone()).collect();
                checker.check(&[call]).map(drop)
            });
        let failing: Vec<Bytes> = [b"k0", b"k1"]
            .map(|key| Bytes::from_static(key))
            .into_iter()
            .filter(|key| {
                let ops: Vec<OpRecord> = history
                    .iter()
                    .map(|(r, _)| r)
                    .filter(|r| &r.key == key)
                    .map(|r| {
                        let (t0, t1) = (r.invoked.nanos(), r.completed.nanos());
                        match r.kind {
                            OpKind::Write => {
                                let value = r.value.clone().unwrap_or_default();
                                OpRecord::write(0, key.clone(), value, t0, t1)
                            }
                            OpKind::Read => OpRecord::read(0, key.clone(), r.result.clone(), t0, t1),
                        }
                    })
                    .collect();
                check_key_history(&ops).is_err()
            })
            .collect();
        // The first failing key of the windowed run is one of the whole
        // run's failing keys, and it fails iff the whole run does.
        match windowed {
            Ok(_) => prop_assert!(failing.is_empty(), "{failing:?}"),
            Err(Violation::NotLinearizable { key }) => prop_assert!(failing.contains(&key)),
            Err(v) => prop_assert!(false, "{v}"),
        }
    }

    /// No run of `VersionChain` calls panics it: `stage`, `commit_up_to`
    /// and `install_clean` in any order, repeated, with numbers at either
    /// end of `u64`. Each call answers what it did, the clean seq never
    /// goes back, and the dirty seqs stay strictly increasing above it.
    #[test]
    fn version_chain_survives_any_call_sequence(
        ops in prop::collection::vec((0u8..3, kv_seq()), 1..60),
    ) {
        let mut chain = VersionChain::empty();
        for (i, (op, seq)) in ops.into_iter().enumerate() {
            let clean_before = chain.clean().map(|v| v.seq);
            let dirty_before = chain.dirty_len();
            let v = VersionedValue::new(Bytes::from(i.to_string()), seq);
            match op {
                0 => {
                    let newest = chain.latest().map_or(SwitchSeq::ZERO, |v| v.seq);
                    prop_assert_eq!(chain.stage(v), seq > newest);
                }
                1 => {
                    let due = chain.dirty_versions().iter().filter(|d| d.seq <= seq).count();
                    prop_assert_eq!(chain.commit_up_to(seq), due);
                    prop_assert_eq!(chain.dirty_len(), dirty_before - due);
                }
                _ => {
                    let newer = seq > clean_before.unwrap_or(SwitchSeq::ZERO);
                    prop_assert_eq!(chain.install_clean(v), newer);
                    if newer {
                        prop_assert_eq!(chain.clean().map(|c| c.seq), Some(seq));
                    }
                }
            }
            let clean = chain.clean().map(|v| v.seq);
            prop_assert!(clean >= clean_before, "clean went back: {clean_before:?} -> {clean:?}");
            let dirty: Vec<SwitchSeq> = chain.dirty_versions().iter().map(|d| d.seq).collect();
            prop_assert!(dirty.windows(2).all(|w| w[0] < w[1]), "dirty out of order: {dirty:?}");
            let floor = clean.unwrap_or(SwitchSeq::ZERO);
            prop_assert!(dirty.iter().all(|&d| d > floor), "dirty {dirty:?} under {floor:?}");
            prop_assert_eq!(chain.latest().map(|v| v.seq), dirty.last().copied().or(clean));
        }
    }

    /// `Store` is a map: under any run of `put` / `get` / `update` /
    /// `delete` over a few keys (the empty one included), at any shard
    /// count, it answers as a `BTreeMap` does, and its key count, key
    /// bytes and walk agree with that model.
    #[test]
    fn store_matches_a_map_model(
        shards in 0usize..9,
        ops in prop::collection::vec((0u8..4, 0usize..5, any::<u64>()), 1..100),
    ) {
        let store = Store::with_shards(shards);
        let mut model = BTreeMap::new();
        for (op, len, x) in ops {
            let key = Bytes::from("k".repeat(len));
            match op {
                0 => {
                    store.put(key.clone(), x);
                    model.insert(key, x);
                }
                1 => prop_assert_eq!(store.get(&key), model.get(&key).copied()),
                2 => {
                    let add = |v: &mut u64| {
                        *v = v.wrapping_add(x);
                        *v
                    };
                    let got = store.update(&key, || 0, add);
                    prop_assert_eq!(got, add(model.entry(key).or_insert(0)));
                }
                _ => prop_assert_eq!(store.delete(&key), model.remove(&key)),
            }
            let stats = store.stats();
            prop_assert_eq!((store.len(), stats.keys), (model.len(), model.len() as u64));
            prop_assert_eq!(stats.key_bytes, model.keys().map(|k| k.len() as u64).sum::<u64>());
        }
        let mut walked = BTreeMap::new();
        store.for_each(|k, v| {
            walked.insert(k.clone(), *v);
        });
        prop_assert_eq!(walked, model);
    }

    /// SwitchSeq ordering is a total lexicographic order: sorting any batch
    /// puts every earlier-switch number before every later-switch number.
    #[test]
    fn switch_seq_total_order(mut seqs in prop::collection::vec(arb_seq(), 2..50)) {
        seqs.sort();
        for w in seqs.windows(2) {
            prop_assert!(w[0] <= w[1]);
            if w[0].switch_id < w[1].switch_id {
                // Different incarnations: order decided by switch id alone.
                prop_assert!(w[0] <= w[1]);
            }
        }
    }

    /// `ObjectId::from_key` is stable across calls and agrees with the
    /// documented FNV-1a parameters (offset 0x811c9dc5, prime 0x01000193):
    /// the id is part of the wire contract between clients and the switch,
    /// so it may never drift.
    #[test]
    fn object_id_from_key_is_fnv1a(key in prop::collection::vec(any::<u8>(), 0..64)) {
        let first = ObjectId::from_key(&key);
        let second = ObjectId::from_key(&key);
        prop_assert_eq!(first, second, "from_key must be a pure function");

        let mut reference: u32 = 0x811c_9dc5;
        for &b in &key {
            reference ^= u32::from(b);
            reference = reference.wrapping_mul(0x0100_0193);
        }
        prop_assert_eq!(first, ObjectId(reference), "FNV-1a constants drifted");
    }

    /// Per-group sequence spaces never interleave: however writes to many
    /// groups interleave at the spine switch, each group's stamped sequence
    /// numbers are exactly 1, 2, 3, … in its own space (dense and strictly
    /// increasing), all under the one shared incarnation id.
    #[test]
    fn spine_sequence_spaces_never_interleave(objs in prop::collection::vec(0u32..32, 1..200)) {
        let spec = sharded_spec(6, 64);
        let mut spine = Switch::new(&spec.switch_config(SwitchId(7)));
        let shards = spec.shard_map();
        let me = NodeId::Switch(SwitchId(7));
        let client = NodeId::Client(ClientId(1));
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let mut per_group_count = [0u64; 6];
        let mut out = Vec::new();
        for (i, obj) in objs.into_iter().enumerate() {
            let req = ClientRequest::write(
                ClientId(1), RequestId(i as u64), Bytes::from(format!("key-{obj}")), Bytes::from_static(b"v"),
            );
            let g = shards.shard_of(req.obj) as usize;
            out.clear();
            spine.handle(Instant::ZERO, me, Msg::new(client, me, PacketBody::Request(req)), &mut rng, &mut out);
            // A full table still consumes the number (Algorithm 1 stamps
            // before inserting); a forwarded write shows the stamp.
            per_group_count[g] += 1;
            if let Some((_, Msg { body: PacketBody::Request(fwd), .. })) = out.first() {
                prop_assert_eq!(
                    fwd.seq, Some(SwitchSeq::new(SwitchId(7), per_group_count[g])),
                    "group {} stamped out of its own dense space", g
                );
            }
        }
    }

    /// One host holding every group's pipeline (the simulator's switch
    /// node) and the same groups dealt over `k` hosts behind the
    /// sender-side spine (a threaded layout, group `g` on host `g % k`) end
    /// in the same state for the same packet sequence, control included:
    /// the same per-group and aggregate stats, memory, dirty-set occupancy
    /// and fast-path gating, the same members in the same role order, behind
    /// the same read gates, each pipeline run as often. Both run
    /// [`Switch::handle`], the one route rule; the spine only picks the
    /// host.
    #[test]
    fn split_group_cores_match_monolith_accounting(
        groups in 1usize..5,
        hosts_raw in 0usize..4,
        ops in prop::collection::vec((0u32..64, 0u8..15), 1..150),
    ) {
        let spec = sharded_spec(groups, 16);
        let hosts = 1 + hosts_raw % groups;
        let config = spec.switch_config(SwitchId(1));
        let mut mono = Switch::new(&config);
        let mut split: Vec<Switch> = (0..hosts)
            .map(|h| {
                let share = (h..groups).step_by(hosts).map(|g| GroupId(g as u32));
                Switch::for_groups(&config, share)
            })
            .collect();
        let me = NodeId::Switch(SwitchId(1));
        let spine = harmonia::net::AddrBook::<usize>::new();
        let placement = (0..groups).map(|g| g % hosts).collect();
        prop_assert!(spine.install_spine(vec![me], spec.shard_map(), placement));
        let spine = spine.snapshot();
        let client = NodeId::Client(ClientId(1));
        // Deliberately *different* RNG streams: routing randomness picks
        // fast-path replicas, never accounting outcomes.
        let mut rng_mono = rand::rngs::SmallRng::seed_from_u64(1);
        let mut rngs: Vec<rand::rngs::SmallRng> = (0..hosts)
            .map(|h| rand::rngs::SmallRng::seed_from_u64(1000 + h as u64))
            .collect();
        let mut out = Vec::new();
        let mut pending: Vec<WriteCompletion> = Vec::new();
        for (i, (obj_raw, action)) in ops.into_iter().enumerate() {
            let key = Bytes::from(format!("key-{obj_raw}"));
            let rid = RequestId(i as u64);
            // Control names a replica some group was provisioned with; a
            // bulk reconfiguration is a rotation of one group's members,
            // cut to one, two or all three of them.
            let replica = ReplicaId(obj_raw % spec.total_replicas() as u32);
            let body: PacketBody<ProtocolMsg> = match action {
                0..=3 => PacketBody::Request(ClientRequest::write(
                    ClientId(1), rid, key, Bytes::from_static(b"v"),
                )),
                4..=7 => PacketBody::Request(ClientRequest::read(ClientId(1), rid, key)),
                8..=9 => match pending.pop() {
                    Some(c) => PacketBody::Completion(c),
                    None => PacketBody::Request(ClientRequest::read(ClientId(1), rid, key)),
                },
                10 => PacketBody::Control(ControlMsg::AddReplica(replica)),
                11 => PacketBody::Control(ControlMsg::RemoveReplica(replica)),
                12 => {
                    let mut members = spec.group_members(spec.group_of_replica(replica));
                    members.rotate_left(replica.0 as usize % 3);
                    members.truncate(1 + obj_raw as usize / 16 % 3);
                    PacketBody::Control(ControlMsg::SetReplicas(members))
                }
                13 => PacketBody::Control(ControlMsg::GateReplica(replica)),
                _ => PacketBody::Control(ControlMsg::UngateReplica {
                    replica,
                    caught_up: SwitchSeq::new(SwitchId(1), u64::from(obj_raw) / 4),
                }),
            };
            out.clear();
            let msg = Msg::new(client, me, body.clone());
            let mono_report = mono.handle(Instant::ZERO, me, msg, &mut rng_mono, &mut out);
            // Capture the stamped seq of a forwarded write so a later op
            // can complete it. The split run sees the identical stamp:
            // per-group detector state evolves in lockstep, which is the
            // point being proven.
            if let Some((_, m)) = out.first() {
                if let PacketBody::Request(req) = &m.body {
                    if req.op == OpKind::Write {
                        if let Some(seq) = req.seq {
                            pending.push(WriteCompletion { obj: req.obj, seq });
                        }
                    }
                }
            }
            let mut split_out = Vec::new();
            let msg = Msg::new(client, me, body);
            let mut split_report = Report::default();
            for &h in spine.resolve(me, &msg.body) {
                let report = split[h].handle(Instant::ZERO, me, msg.clone(), &mut rngs[h], &mut split_out);
                split_report.pipelines += report.pipelines;
                split_report.request = split_report.request.or(report.request);
            }
            prop_assert_eq!(
                out.len(), split_out.len(),
                "forward fan-out must match (dropped writes drop in both)"
            );
            prop_assert_eq!(mono_report, split_report, "the same pipelines ran, to the same verdict");
        }
        // Per-group state is identical: counters, memory, occupancy, peak
        // and fast path row by row, the members in the same role order…
        let mono_rows = mono.observe();
        let mut split_rows: Vec<_> = split.iter().flat_map(Switch::observe).collect();
        split_rows.sort_by_key(|o| o.group);
        prop_assert_eq!(&mono_rows, &split_rows);
        prop_assert_eq!(mono_rows.len(), groups);
        for g in (0..groups as u32).map(GroupId) {
            let host = &split[g.0 as usize % hosts];
            prop_assert_eq!(host.members(g), mono.members(g), "group {:?}", g);
        }
        // …behind the same gates, held by the host of the replica's group…
        for r in (0..spec.total_replicas() as u32).map(ReplicaId) {
            let owner = spec.group_of_replica(r) % hosts;
            for (h, host) in split.iter().enumerate() {
                let gated = h == owner && mono.is_gated(r);
                prop_assert_eq!(host.is_gated(r), gated, "gate on {:?} at host {}", r, h);
            }
        }
        // …and the hosts' rows sum to the one host's totals.
        let split_totals = harmonia::switch::SwitchTotals::of(&split_rows);
        prop_assert_eq!(split_totals, harmonia::switch::SwitchTotals::of(&mono_rows));
        prop_assert_eq!(split_totals.groups, groups);
        prop_assert_eq!(split_totals.memory_bytes, groups * 2 * 16 * 8);
    }

    /// Wire codec: encode → decode is the identity for **every**
    /// `PacketBody` variant, not only requests — each generated case
    /// round-trips all five variants built from the same components.
    #[test]
    fn wire_roundtrip_every_packet_body(
        req in arb_request(),
        reply in arb_reply(),
        completion in arb_completion(),
        proto in any::<u64>(),
        control in arb_control(),
    ) {
        let bodies: Vec<PacketBody<u64>> = vec![
            PacketBody::Request(req),
            PacketBody::Reply(reply),
            PacketBody::Completion(completion),
            PacketBody::Protocol(proto),
            PacketBody::Control(control),
        ];
        for body in bodies {
            let pkt: Packet<u64> = Packet::new(
                NodeId::Switch(SwitchId(1)),
                NodeId::Replica(ReplicaId(0)),
                body,
            );
            let frame = encode_frame(&pkt).unwrap();
            let (decoded, used) = decode_frame::<Packet<u64>>(&frame).unwrap().unwrap();
            prop_assert_eq!(decoded, pkt);
            prop_assert_eq!(used, frame.len());
        }
    }

    /// The real wire type of the UDP driver: `Packet<ProtocolMsg>` — every
    /// replica↔replica message round-trips through the codec too.
    #[test]
    fn wire_roundtrip_protocol_packets(
        op_req in arb_request(),
        variant in 0u8..6,
        seq in arb_seq(),
        upto in 0u64..1000,
    ) {
        use harmonia::replication::messages::{
            ChainMsg, NopaxosMsg, PbMsg, ProtocolMsg, VrMsg, WriteOp,
        };
        let op = WriteOp {
            seq,
            obj: op_req.obj,
            key: op_req.key.clone(),
            value: op_req.value.clone().unwrap_or_default(),
            client: op_req.client,
            request: op_req.request,
        };
        let msg = match variant {
            0 => ProtocolMsg::Pb(PbMsg::Update(op)),
            1 => ProtocolMsg::Chain(ChainMsg::Down(op)),
            2 => ProtocolMsg::Vr(VrMsg::Prepare { view: upto, op_num: upto + 1, op, commit: upto }),
            3 => ProtocolMsg::Nopaxos(NopaxosMsg::Sequenced { session: 1, oum_seq: upto, op }),
            4 => ProtocolMsg::Nopaxos(NopaxosMsg::GapReply { session: 1, oum_seq: upto, op: Some(op) }),
            _ => ProtocolMsg::Nopaxos(NopaxosMsg::Sync { session: 2, upto }),
        };
        let pkt: Packet<ProtocolMsg> = Packet::new(
            NodeId::Replica(ReplicaId(0)),
            NodeId::Replica(ReplicaId(1)),
            PacketBody::Protocol(msg),
        );
        let frame = encode_frame(&pkt).unwrap();
        let (decoded, used) = decode_frame::<Packet<ProtocolMsg>>(&frame).unwrap().unwrap();
        prop_assert_eq!(decoded, pkt);
        prop_assert_eq!(used, frame.len());
    }

    /// Untrusted-input hardening, the UDP driver's threat model: take a
    /// valid encoded frame of ANY `PacketBody` variant, truncate it
    /// anywhere and flip arbitrary bytes (including the length prefix and
    /// discriminants) — decoding must return, never panic, for both the
    /// test payload and the real `ProtocolMsg` payload.
    #[test]
    fn wire_decode_total_on_mutated_frames(
        req in arb_request(),
        reply in arb_reply(),
        completion in arb_completion(),
        control in arb_control(),
        mutations in prop::collection::vec((0usize..512, 0u8..=255), 0..8),
        cut in 0usize..513,
    ) {
        let bodies: Vec<PacketBody<u64>> = vec![
            PacketBody::Request(req),
            PacketBody::Reply(reply),
            PacketBody::Completion(completion),
            PacketBody::Protocol(7),
            PacketBody::Control(control),
        ];
        for body in bodies {
            let pkt: Packet<u64> = Packet::new(
                NodeId::Client(ClientId(1)),
                NodeId::Switch(SwitchId(1)),
                body,
            );
            let mut bytes = encode_frame(&pkt).unwrap().to_vec();
            for &(idx, val) in &mutations {
                let len = bytes.len();
                bytes[idx % len] = val;
            }
            bytes.truncate(cut.min(bytes.len()));
            // Must return (any of Ok(Some)/Ok(None)/Err), never panic, for
            // both payload decoders.
            let _ = decode_frame::<Packet<u64>>(&bytes);
            let _ = decode_frame::<Packet<harmonia::replication::messages::ProtocolMsg>>(&bytes);
        }
    }

    /// A declared length can never make the decoder allocate past the
    /// shared `MAX_FRAME_BYTES` bound: any frame or field length claiming
    /// more is rejected up front with `OversizedField`.
    #[test]
    fn wire_oversized_declared_lengths_rejected(
        claimed in (harmonia::types::MAX_FRAME_BYTES as u32 + 1)..=u32::MAX,
    ) {
        use harmonia::types::TypeError;
        // Oversized frame prefix.
        let mut frame = Vec::new();
        frame.extend_from_slice(&claimed.to_le_bytes());
        frame.extend_from_slice(&[0u8; 16]);
        prop_assert!(matches!(
            decode_frame::<Packet<u64>>(&frame),
            Err(TypeError::OversizedField { field: "frame", .. })
        ));
        // Valid-looking frame whose inner `Bytes` field claims too much.
        let mut inner = Vec::new();
        inner.extend_from_slice(&8u32.to_le_bytes()); // frame length: 8
        inner.extend_from_slice(&claimed.to_le_bytes()); // bytes field length
        inner.extend_from_slice(&[0u8; 4]);
        prop_assert!(matches!(
            decode_frame::<Bytes>(&inner),
            Err(TypeError::OversizedField { field: "bytes", .. })
        ));
    }

    /// Encode-side symmetry: a packet whose payload would overflow one
    /// frame (= one UDP datagram) is an error, never a truncated frame.
    #[test]
    fn wire_encode_rejects_oversized_packets(extra in 0usize..4096) {
        use harmonia::types::TypeError;
        let huge = Bytes::from(vec![0x42u8; harmonia::types::MAX_FRAME_BYTES + extra]);
        let req = ClientRequest::write(ClientId(1), RequestId(1), &b"k"[..], huge);
        let pkt: Packet<u64> = Packet::new(
            NodeId::Client(ClientId(1)),
            NodeId::Switch(SwitchId(1)),
            PacketBody::Request(req),
        );
        prop_assert!(matches!(
            encode_frame(&pkt),
            Err(TypeError::OversizedField { field: "frame", .. })
        ));
    }

    /// `frames()` decodes a datagram where it lies. Pack 1–24 frames of every
    /// kind, flip a few bytes, maybe cut the datagram short, and walk it:
    /// no panic; `used()` never passes the end; the iterator is fused after
    /// its first `Err`; a frame that starts where it was written, is all
    /// there and took no flip comes back as it was encoded; and every key
    /// and value yielded — of intact and of mangled frames alike — lies
    /// inside its own frame's bytes of the datagram (it aliases the
    /// datagram, and it never reaches into the frame behind).
    #[test]
    fn wire_frames_walk_mutated_datagrams_in_place(
        pkts in prop::collection::vec(arb_frame(), 1..25),
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        cut in prop::option::of(any::<usize>()),
    ) {
        let mut buf = bytes::BytesMut::new();
        let ends: Vec<usize> = pkts
            .iter()
            .map(|p| {
                encode_frame_into(p, &mut buf).unwrap();
                buf.len()
            })
            .collect();
        let starts: Vec<usize> = std::iter::once(0).chain(ends.iter().copied()).collect();
        let mut bytes = buf.to_vec();
        let mut flipped = vec![false; pkts.len()];
        for &(at, byte) in &flips {
            let at = at % bytes.len();
            bytes[at] = byte;
            flipped[ends.iter().position(|&end| at < end).unwrap()] = true;
        }
        if let Some(cut) = cut {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        let datagram = Bytes::from(bytes);
        let base = datagram.as_ptr() as usize;

        let mut it = frames::<Packet<ProtocolMsg>>(&datagram);
        let (mut yielded, mut failed) = (0, false);
        loop {
            let start = it.used();
            let Some(item) = it.next() else { break };
            prop_assert!(!failed, "an item after the first Err");
            let end = it.used();
            prop_assert!(end <= datagram.len());
            let intact = (0..pkts.len())
                .find(|&i| starts[i] == start && !flipped[i] && ends[i] <= datagram.len());
            if let Some(i) = intact {
                prop_assert_eq!(item.as_ref(), Ok(&pkts[i]));
                prop_assert_eq!(end, ends[i]);
            }
            match item {
                Ok(pkt) => {
                    yielded += 1;
                    prop_assert!(end >= start + 4);
                    for payload in payloads(&pkt) {
                        let at = payload.as_ptr() as usize;
                        prop_assert!(
                            base + start + 4 <= at && at + payload.len() <= base + end,
                            "payload outside its frame {}..{}", start, end
                        );
                    }
                }
                Err(_) => {
                    failed = true;
                    prop_assert_eq!(end, start, "a bad frame consumes nothing");
                }
            }
        }
        if flips.is_empty() && cut.is_none() {
            prop_assert!(!failed);
            prop_assert_eq!(yielded, pkts.len());
            prop_assert_eq!(it.used(), datagram.len());
        }
    }
}
