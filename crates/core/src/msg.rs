//! The concrete network message type and the calibrated cost model.

use harmonia_replication::messages::{ChainMsg, CraqMsg, NopaxosMsg, PbMsg, ProtocolMsg, VrMsg};
use harmonia_types::{Duration, OpKind, Packet, PacketBody};

/// Every packet in a Harmonia deployment.
pub type Msg = Packet<ProtocolMsg>;

/// Per-message service costs for a storage server.
///
/// Calibrated to the paper's measured single-server Redis numbers (§8):
/// 0.92 MQPS for reads (≈ 1087 ns each) and 0.8 MQPS for writes
/// (≈ 1250 ns each). Lightweight protocol messages (acks, commit notices)
/// are charged a fraction of a write — they skip storage work but still
/// consume server cycles, which is what makes an ack-heavy leader (VR) slower
/// than a sequencer-driven one (NOPaxos) in Figure 9b.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Serving one read from local state.
    pub read: Duration,
    /// Applying one write (including staging/propagation bookkeeping).
    pub write: Duration,
    /// Handling one lightweight protocol message.
    pub ack: Duration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_calibrated()
    }
}

impl CostModel {
    /// The calibration used by every figure reproduction.
    pub fn paper_calibrated() -> Self {
        CostModel {
            read: Duration::from_nanos(1_087),
            write: Duration::from_nanos(1_250),
            ack: Duration::from_nanos(375),
        }
    }

    /// Service cost of one inbound message at a replica.
    pub fn cost_of(&self, body: &PacketBody<ProtocolMsg>) -> Duration {
        match body {
            PacketBody::Request(req) => match req.op {
                OpKind::Read => self.read,
                OpKind::Write => self.write,
            },
            // Protocol messages that carry (and apply) a write.
            PacketBody::Protocol(
                ProtocolMsg::Pb(PbMsg::Update(_))
                | ProtocolMsg::Chain(ChainMsg::Down(_))
                | ProtocolMsg::Craq(CraqMsg::Down(_))
                | ProtocolMsg::Vr(VrMsg::Prepare { .. })
                | ProtocolMsg::Nopaxos(NopaxosMsg::Sequenced { .. })
                | ProtocolMsg::Nopaxos(NopaxosMsg::GapReply { .. }),
            ) => self.write,
            // Every other protocol message is bookkeeping.
            PacketBody::Protocol(_) => self.ack,
            // Replies/completions/control at a replica are incidental.
            _ => self.ack,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use harmonia_types::{ClientId, ClientRequest, ReplicaId, RequestId};

    /// Every simulated handler moves a `Msg` by value: a field that grows
    /// these fails here instead of quietly slowing the simulator.
    #[test]
    fn messages_stay_small() {
        use harmonia_types::ClientReply;
        use std::mem::size_of;
        assert_eq!(size_of::<Bytes>(), 16);
        assert_eq!(size_of::<Option<Bytes>>(), 16);
        let request = size_of::<ClientRequest>();
        let reply = size_of::<ClientReply>();
        let msg = size_of::<Msg>();
        assert!(request <= 112, "ClientRequest is {request} bytes");
        assert!(reply <= 72, "ClientReply is {reply} bytes");
        assert!(msg <= 136, "Msg is {msg} bytes");
    }

    #[test]
    fn paper_calibration_matches_measured_rates() {
        let c = CostModel::paper_calibrated();
        let read_mqps = 1e9 / c.read.nanos() as f64 / 1e6;
        let write_mqps = 1e9 / c.write.nanos() as f64 / 1e6;
        assert!((read_mqps - 0.92).abs() < 0.01, "read {read_mqps} MQPS");
        assert!((write_mqps - 0.80).abs() < 0.01, "write {write_mqps} MQPS");
    }

    #[test]
    fn request_costs_follow_op_kind() {
        let c = CostModel::paper_calibrated();
        let read = ClientRequest::read(ClientId(1), RequestId(1), &b"k"[..]);
        let write = ClientRequest::write(ClientId(1), RequestId(2), &b"k"[..], &b"v"[..]);
        assert_eq!(c.cost_of(&PacketBody::Request(read)), c.read);
        assert_eq!(c.cost_of(&PacketBody::Request(write)), c.write);
    }

    #[test]
    fn protocol_costs_distinguish_writes_from_acks() {
        let c = CostModel::paper_calibrated();
        let ack = ProtocolMsg::Pb(PbMsg::Ack {
            seq: harmonia_types::SwitchSeq::ZERO,
            from: ReplicaId(1),
        });
        assert_eq!(c.cost_of(&PacketBody::Protocol(ack)), c.ack);
        let down = ProtocolMsg::Chain(ChainMsg::Down(harmonia_replication::messages::WriteOp {
            seq: harmonia_types::SwitchSeq::ZERO,
            obj: harmonia_types::ObjectId(1),
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"v"),
            client: ClientId(1),
            request: RequestId(1),
        }));
        assert_eq!(c.cost_of(&PacketBody::Protocol(down)), c.write);
    }
}
