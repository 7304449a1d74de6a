//! Wire codec for protocol-internal messages.
//!
//! The UDP deployment driver (`harmonia-net` + `harmonia-core`'s
//! `spawn_udp`) puts *every* packet on a real socket — including the
//! replica↔replica traffic the in-process drivers pass by value. These
//! [`Wire`] implementations make `Packet<ProtocolMsg>` a first-class wire
//! type: the same slice cursor and staged writer as `harmonia-types`
//! (little-endian, one discriminant byte per enum, every variant's fields in
//! declaration order), behind the envelope `harmonia_types::wire` documents.
//!
//! The per-operation messages (`WriteOp` and the five protocols' enums) are
//! `#[inline]` so that each composes into [`ProtocolMsg`]'s two functions —
//! one call per frame from the generic `Packet<T>` codec, not one per field
//! across the crate boundary. Control and state transfer are not.

use bytes::Bytes;
use harmonia_types::wire::{bad_tag, Reader, Wire, Writer};
use harmonia_types::{ClientId, ObjectId, ReplicaId, RequestId, SwitchId, SwitchSeq, TypeError};

use crate::messages::{
    ChainMsg, CraqMsg, NopaxosMsg, PbMsg, ProtocolMsg, ReplicaControlMsg, SnapshotEntry,
    SnapshotState, StateTransferMsg, VrMsg, WriteOp,
};

impl Wire for WriteOp {
    #[inline]
    fn encode(&self, w: &mut Writer<'_>) {
        self.seq.encode(w);
        self.obj.encode(w);
        self.key.encode(w);
        self.value.encode(w);
        self.client.encode(w);
        self.request.encode(w);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        Ok(WriteOp {
            seq: SwitchSeq::decode(r)?,
            obj: ObjectId::decode(r)?,
            key: Bytes::decode(r)?,
            value: Bytes::decode(r)?,
            client: ClientId::decode(r)?,
            request: RequestId::decode(r)?,
        })
    }
}

impl Wire for PbMsg {
    #[inline]
    fn encode(&self, w: &mut Writer<'_>) {
        match self {
            PbMsg::Update(op) => {
                w.put(&[0]);
                op.encode(w);
            }
            PbMsg::Ack { seq, from } => {
                w.put(&[1]);
                seq.encode(w);
                from.encode(w);
            }
        }
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        match r.u8()? {
            0 => Ok(PbMsg::Update(WriteOp::decode(r)?)),
            1 => Ok(PbMsg::Ack {
                seq: SwitchSeq::decode(r)?,
                from: ReplicaId::decode(r)?,
            }),
            v => bad_tag("PbMsg", v),
        }
    }
}

impl Wire for ChainMsg {
    #[inline]
    fn encode(&self, w: &mut Writer<'_>) {
        match self {
            ChainMsg::Down(op) => {
                w.put(&[0]);
                op.encode(w);
            }
            ChainMsg::ReReply { client, request } => {
                w.put(&[1]);
                client.encode(w);
                request.encode(w);
            }
        }
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        match r.u8()? {
            0 => Ok(ChainMsg::Down(WriteOp::decode(r)?)),
            1 => Ok(ChainMsg::ReReply {
                client: ClientId::decode(r)?,
                request: RequestId::decode(r)?,
            }),
            v => bad_tag("ChainMsg", v),
        }
    }
}

impl Wire for CraqMsg {
    #[inline]
    fn encode(&self, w: &mut Writer<'_>) {
        match self {
            CraqMsg::Down(op) => {
                w.put(&[0]);
                op.encode(w);
            }
            CraqMsg::Clean { obj, key, seq } => {
                w.put(&[1]);
                obj.encode(w);
                key.encode(w);
                seq.encode(w);
            }
            CraqMsg::ReReply { client, request } => {
                w.put(&[2]);
                client.encode(w);
                request.encode(w);
            }
        }
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        match r.u8()? {
            0 => Ok(CraqMsg::Down(WriteOp::decode(r)?)),
            1 => Ok(CraqMsg::Clean {
                obj: ObjectId::decode(r)?,
                key: Bytes::decode(r)?,
                seq: SwitchSeq::decode(r)?,
            }),
            2 => Ok(CraqMsg::ReReply {
                client: ClientId::decode(r)?,
                request: RequestId::decode(r)?,
            }),
            v => bad_tag("CraqMsg", v),
        }
    }
}

impl Wire for VrMsg {
    #[inline]
    fn encode(&self, w: &mut Writer<'_>) {
        match self {
            VrMsg::Prepare {
                view,
                op_num,
                op,
                commit,
            } => {
                w.put(&[0]);
                view.encode(w);
                op_num.encode(w);
                op.encode(w);
                commit.encode(w);
            }
            VrMsg::PrepareOk { view, op_num, from } => {
                w.put(&[1]);
                view.encode(w);
                op_num.encode(w);
                from.encode(w);
            }
            VrMsg::Commit { view, commit } => {
                w.put(&[2]);
                view.encode(w);
                commit.encode(w);
            }
            VrMsg::CommitAck { view, op_num, from } => {
                w.put(&[3]);
                view.encode(w);
                op_num.encode(w);
                from.encode(w);
            }
        }
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        match r.u8()? {
            0 => Ok(VrMsg::Prepare {
                view: u64::decode(r)?,
                op_num: u64::decode(r)?,
                op: WriteOp::decode(r)?,
                commit: u64::decode(r)?,
            }),
            1 => Ok(VrMsg::PrepareOk {
                view: u64::decode(r)?,
                op_num: u64::decode(r)?,
                from: ReplicaId::decode(r)?,
            }),
            2 => Ok(VrMsg::Commit {
                view: u64::decode(r)?,
                commit: u64::decode(r)?,
            }),
            3 => Ok(VrMsg::CommitAck {
                view: u64::decode(r)?,
                op_num: u64::decode(r)?,
                from: ReplicaId::decode(r)?,
            }),
            v => bad_tag("VrMsg", v),
        }
    }
}

impl Wire for NopaxosMsg {
    #[inline]
    fn encode(&self, w: &mut Writer<'_>) {
        match self {
            NopaxosMsg::Sequenced {
                session,
                oum_seq,
                op,
            } => {
                w.put(&[0]);
                session.encode(w);
                oum_seq.encode(w);
                op.encode(w);
            }
            NopaxosMsg::GapRequest {
                session,
                oum_seq,
                from,
            } => {
                w.put(&[2]);
                session.encode(w);
                oum_seq.encode(w);
                from.encode(w);
            }
            NopaxosMsg::GapReply {
                session,
                oum_seq,
                op,
            } => {
                w.put(&[3]);
                session.encode(w);
                oum_seq.encode(w);
                op.encode(w);
            }
            NopaxosMsg::Sync { session, upto } => {
                w.put(&[4]);
                session.encode(w);
                upto.encode(w);
            }
            NopaxosMsg::SyncAck {
                session,
                upto,
                from,
            } => {
                w.put(&[5]);
                session.encode(w);
                upto.encode(w);
                from.encode(w);
            }
        }
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        match r.u8()? {
            0 => Ok(NopaxosMsg::Sequenced {
                session: u64::decode(r)?,
                oum_seq: u64::decode(r)?,
                op: WriteOp::decode(r)?,
            }),
            // 1 was a slot acknowledgement no replica ever sent: retired,
            // not reused.
            2 => Ok(NopaxosMsg::GapRequest {
                session: u64::decode(r)?,
                oum_seq: u64::decode(r)?,
                from: ReplicaId::decode(r)?,
            }),
            3 => Ok(NopaxosMsg::GapReply {
                session: u64::decode(r)?,
                oum_seq: u64::decode(r)?,
                op: Option::<WriteOp>::decode(r)?,
            }),
            4 => Ok(NopaxosMsg::Sync {
                session: u64::decode(r)?,
                upto: u64::decode(r)?,
            }),
            5 => Ok(NopaxosMsg::SyncAck {
                session: u64::decode(r)?,
                upto: u64::decode(r)?,
                from: ReplicaId::decode(r)?,
            }),
            v => bad_tag("NopaxosMsg", v),
        }
    }
}

impl Wire for ReplicaControlMsg {
    fn encode(&self, w: &mut Writer<'_>) {
        match self {
            ReplicaControlMsg::SetActiveSwitch(s) => {
                w.put(&[0]);
                s.encode(w);
            }
            ReplicaControlMsg::SetMembers(m) => {
                w.put(&[1]);
                m.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        match r.u8()? {
            0 => Ok(ReplicaControlMsg::SetActiveSwitch(SwitchId::decode(r)?)),
            1 => Ok(ReplicaControlMsg::SetMembers(Vec::<ReplicaId>::decode(r)?)),
            v => bad_tag("ReplicaControlMsg", v),
        }
    }
}

impl Wire for SnapshotEntry {
    fn encode(&self, w: &mut Writer<'_>) {
        self.key.encode(w);
        self.obj.encode(w);
        self.value.encode(w);
        self.seq.encode(w);
        w.put(&[u8::from(self.dirty)]);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        Ok(SnapshotEntry {
            key: Bytes::decode(r)?,
            obj: ObjectId::decode(r)?,
            value: Bytes::decode(r)?,
            seq: SwitchSeq::decode(r)?,
            dirty: match r.u8()? {
                0 => false,
                1 => true,
                v => return bad_tag("SnapshotEntry.dirty", v),
            },
        })
    }
}

impl Wire for SnapshotState {
    fn encode(&self, w: &mut Writer<'_>) {
        self.in_order.encode(w);
        self.applied.encode(w);
        self.local_seq.encode(w);
        self.commit_num.encode(w);
        self.session.encode(w);
        w.put_len(self.clients.len());
        for (client, request) in &self.clients {
            client.encode(w);
            request.encode(w);
        }
        self.replies.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        let in_order = SwitchSeq::decode(r)?;
        let applied = SwitchSeq::decode(r)?;
        let local_seq = u64::decode(r)?;
        let commit_num = u64::decode(r)?;
        let session = u64::decode(r)?;
        let n = r.len_prefix("SnapshotState.clients")?;
        let mut clients = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            clients.push((ClientId::decode(r)?, RequestId::decode(r)?));
        }
        Ok(SnapshotState {
            in_order,
            applied,
            local_seq,
            commit_num,
            session,
            clients,
            replies: Vec::<harmonia_types::ClientReply>::decode(r)?,
        })
    }
}

impl Wire for StateTransferMsg {
    fn encode(&self, w: &mut Writer<'_>) {
        match self {
            StateTransferMsg::Request { from } => {
                w.put(&[0]);
                from.encode(w);
            }
            StateTransferMsg::Entries { entries } => {
                w.put(&[1]);
                entries.encode(w);
            }
            StateTransferMsg::Log { ops } => {
                w.put(&[2]);
                ops.encode(w);
            }
            StateTransferMsg::Done {
                state,
                entries,
                ops,
            } => {
                w.put(&[3]);
                state.encode(w);
                entries.encode(w);
                ops.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        match r.u8()? {
            0 => Ok(StateTransferMsg::Request {
                from: ReplicaId::decode(r)?,
            }),
            1 => Ok(StateTransferMsg::Entries {
                entries: Vec::<SnapshotEntry>::decode(r)?,
            }),
            2 => Ok(StateTransferMsg::Log {
                ops: Vec::<WriteOp>::decode(r)?,
            }),
            3 => Ok(StateTransferMsg::Done {
                state: SnapshotState::decode(r)?,
                entries: u64::decode(r)?,
                ops: u64::decode(r)?,
            }),
            v => bad_tag("StateTransferMsg", v),
        }
    }
}

impl Wire for ProtocolMsg {
    fn encode(&self, w: &mut Writer<'_>) {
        match self {
            ProtocolMsg::Pb(m) => {
                w.put(&[0]);
                m.encode(w);
            }
            ProtocolMsg::Chain(m) => {
                w.put(&[1]);
                m.encode(w);
            }
            ProtocolMsg::Craq(m) => {
                w.put(&[2]);
                m.encode(w);
            }
            ProtocolMsg::Vr(m) => {
                w.put(&[3]);
                m.encode(w);
            }
            ProtocolMsg::Nopaxos(m) => {
                w.put(&[4]);
                m.encode(w);
            }
            ProtocolMsg::Control(m) => {
                w.put(&[5]);
                m.encode(w);
            }
            ProtocolMsg::StateTransfer(m) => {
                w.put(&[6]);
                m.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        match r.u8()? {
            0 => Ok(ProtocolMsg::Pb(PbMsg::decode(r)?)),
            1 => Ok(ProtocolMsg::Chain(ChainMsg::decode(r)?)),
            2 => Ok(ProtocolMsg::Craq(CraqMsg::decode(r)?)),
            3 => Ok(ProtocolMsg::Vr(VrMsg::decode(r)?)),
            4 => Ok(ProtocolMsg::Nopaxos(NopaxosMsg::decode(r)?)),
            5 => Ok(ProtocolMsg::Control(ReplicaControlMsg::decode(r)?)),
            6 => Ok(ProtocolMsg::StateTransfer(StateTransferMsg::decode(r)?)),
            v => bad_tag("ProtocolMsg", v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_types::wire::{decode_frame, encode_frame};

    fn op(n: u64) -> WriteOp {
        WriteOp {
            seq: SwitchSeq::new(SwitchId(2), n),
            obj: ObjectId(7),
            key: Bytes::from_static(b"key"),
            value: Bytes::from_static(b"value"),
            client: ClientId(3),
            request: RequestId(n),
        }
    }

    fn roundtrip(msg: ProtocolMsg) {
        let frame = encode_frame(&msg).unwrap();
        let (decoded, used) = decode_frame::<ProtocolMsg>(&frame).unwrap().unwrap();
        assert_eq!(decoded, msg);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn every_protocol_message_roundtrips() {
        let all = vec![
            ProtocolMsg::Pb(PbMsg::Update(op(1))),
            ProtocolMsg::Pb(PbMsg::Ack {
                seq: SwitchSeq::new(SwitchId(1), 4),
                from: ReplicaId(2),
            }),
            ProtocolMsg::Chain(ChainMsg::Down(op(2))),
            ProtocolMsg::Chain(ChainMsg::ReReply {
                client: ClientId(9),
                request: RequestId(11),
            }),
            ProtocolMsg::Craq(CraqMsg::Down(op(3))),
            ProtocolMsg::Craq(CraqMsg::Clean {
                obj: ObjectId(5),
                key: Bytes::from_static(b"k"),
                seq: SwitchSeq::new(SwitchId(1), 6),
            }),
            ProtocolMsg::Craq(CraqMsg::ReReply {
                client: ClientId(1),
                request: RequestId(2),
            }),
            ProtocolMsg::Vr(VrMsg::Prepare {
                view: 3,
                op_num: 14,
                op: op(4),
                commit: 13,
            }),
            ProtocolMsg::Vr(VrMsg::PrepareOk {
                view: 3,
                op_num: 14,
                from: ReplicaId(1),
            }),
            ProtocolMsg::Vr(VrMsg::Commit { view: 3, commit: 9 }),
            ProtocolMsg::Vr(VrMsg::CommitAck {
                view: 3,
                op_num: 8,
                from: ReplicaId(0),
            }),
            ProtocolMsg::Nopaxos(NopaxosMsg::Sequenced {
                session: 1,
                oum_seq: 5,
                op: op(5),
            }),
            ProtocolMsg::Nopaxos(NopaxosMsg::GapRequest {
                session: 1,
                oum_seq: 6,
                from: ReplicaId(1),
            }),
            ProtocolMsg::Nopaxos(NopaxosMsg::GapReply {
                session: 1,
                oum_seq: 6,
                op: Some(op(6)),
            }),
            ProtocolMsg::Nopaxos(NopaxosMsg::GapReply {
                session: 1,
                oum_seq: 7,
                op: None,
            }),
            ProtocolMsg::Nopaxos(NopaxosMsg::Sync {
                session: 2,
                upto: 40,
            }),
            ProtocolMsg::Nopaxos(NopaxosMsg::SyncAck {
                session: 2,
                upto: 40,
                from: ReplicaId(0),
            }),
            ProtocolMsg::Control(ReplicaControlMsg::SetActiveSwitch(SwitchId(4))),
            ProtocolMsg::Control(ReplicaControlMsg::SetMembers(vec![
                ReplicaId(0),
                ReplicaId(2),
            ])),
            ProtocolMsg::StateTransfer(StateTransferMsg::Request { from: ReplicaId(1) }),
            ProtocolMsg::StateTransfer(StateTransferMsg::Entries {
                entries: vec![
                    SnapshotEntry {
                        key: Bytes::from_static(b"k1"),
                        obj: ObjectId(4),
                        value: Bytes::from_static(b"v1"),
                        seq: SwitchSeq::new(SwitchId(1), 8),
                        dirty: false,
                    },
                    SnapshotEntry {
                        key: Bytes::from_static(b"k2"),
                        obj: ObjectId(5),
                        value: Bytes::from_static(b"v2"),
                        seq: SwitchSeq::new(SwitchId(1), 9),
                        dirty: true,
                    },
                ],
            }),
            ProtocolMsg::StateTransfer(StateTransferMsg::Log {
                ops: vec![op(7), op(8)],
            }),
            ProtocolMsg::StateTransfer(StateTransferMsg::Done {
                state: SnapshotState {
                    in_order: SwitchSeq::new(SwitchId(1), 9),
                    applied: SwitchSeq::new(SwitchId(1), 8),
                    local_seq: 3,
                    commit_num: 7,
                    session: 2,
                    clients: vec![(ClientId(3), RequestId(5)), (ClientId(4), RequestId(1))],
                    replies: vec![harmonia_types::ClientReply {
                        client: ClientId(3),
                        from: ReplicaId(2),
                        request: RequestId(5),
                        obj: ObjectId(4),
                        value: None,
                        write_outcome: Some(harmonia_types::WriteOutcome::Committed),
                        completion: None,
                    }],
                },
                entries: 2,
                ops: 2,
            }),
        ];
        for msg in all {
            roundtrip(msg);
        }
    }

    #[test]
    fn bad_discriminants_error_at_every_level() {
        for (field, bytes) in [
            ("ProtocolMsg", vec![9u8]),
            ("PbMsg", vec![0, 9]),
            ("ChainMsg", vec![1, 9]),
            ("CraqMsg", vec![2, 9]),
            ("VrMsg", vec![3, 9]),
            ("NopaxosMsg", vec![4, 9]),
            ("ReplicaControlMsg", vec![5, 9]),
            ("StateTransferMsg", vec![6, 9]),
        ] {
            let b = Bytes::from(bytes);
            match ProtocolMsg::decode(&mut Reader::new(&b)) {
                Err(TypeError::BadDiscriminant { field: f, value: 9 }) => assert_eq!(f, field),
                other => panic!("{field}: expected bad-discriminant error, got {other:?}"),
            }
        }
    }
}
