//! The storage server: the one replica type every driver hosts.
//!
//! A [`Server`] is the Harmonia shell around the protocol its
//! [`GroupConfig`] names, plus what a storage server does around that
//! shell. It brokers state transfer: it serves peers' snapshot requests,
//! and after a restart it runs its own catch-up. While that catch-up is in
//! flight it sheds client requests — clients retry, and the switch has it
//! read-gated anyway — until the transfer installs and asks the switch to
//! lift the gate. Recovery lives beside the state it repairs.
//!
//! Like everything in this crate a server is sans-IO:
//! [`Server::on_packet`] takes a packet body, appends what it sends to an
//! [`Effects`], and reports what it did with the packet ([`Handled`]), so
//! the host counts and traces without this crate knowing how.

use bytes::Bytes;
use harmonia_types::{
    ClientRequest, ControlMsg, Duration, NodeId, ObjectId, PacketBody, ReplicaId, SwitchSeq,
    TraceId,
};

use crate::chain::Chain;
use crate::common::{Effects, GroupConfig, ProtocolKind, Snapshot};
use crate::craq::Craq;
use crate::messages::{ProtocolMsg, SnapshotEntry, StateTransferMsg, WriteOp};
use crate::nopaxos::Nopaxos;
use crate::pb::Pb;
use crate::shell::{Protocol, Shell};
use crate::vr::Vr;

/// The shell for each protocol, chosen once by [`GroupConfig::protocol`].
enum Shells {
    Pb(Shell<Pb>),
    Chain(Shell<Chain>),
    Craq(Shell<Craq>),
    Vr(Shell<Vr>),
    Nopaxos(Shell<Nopaxos>),
}

/// Run `$body` with `$s` bound to whichever shell `$shells` holds: the one
/// place a server dispatches on its protocol.
macro_rules! dispatch {
    ($shells:expr, $s:ident => $body:expr) => {
        match $shells {
            Shells::Pb($s) => $body,
            Shells::Chain($s) => $body,
            Shells::Craq($s) => $body,
            Shells::Vr($s) => $body,
            Shells::Nopaxos($s) => $body,
        }
    };
}

/// What [`Server::on_packet`] did with a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Handled {
    /// State-transfer traffic, brokered beside the protocol.
    Transfer,
    /// A client request shed: this server is still catching up.
    Shed { trace: TraceId, obj: ObjectId },
    /// A client request the shell took.
    Request { trace: TraceId, obj: ObjectId },
    /// A protocol or control message the shell took.
    Protocol,
    /// A reply, completion or switch command: nothing a replica handles.
    Stray,
}

/// One storage server: the shell around its protocol, the state-transfer
/// broker, and the shed gate.
pub struct Server {
    me: ReplicaId,
    shell: Shells,
    transfer: StateTransfer,
}

impl Server {
    /// The server for `config`. With `recover_from` set it is a *fresh*
    /// replica: [`start`](Self::start) asks that peer for a snapshot, and
    /// client requests are shed until the transfer installs.
    pub fn new(config: GroupConfig, recover_from: Option<ReplicaId>) -> Server {
        let me = config.me;
        let shell = match config.protocol {
            ProtocolKind::PrimaryBackup => Shells::Pb(Shell::new(config)),
            ProtocolKind::Chain => Shells::Chain(Shell::new(config)),
            ProtocolKind::Craq => Shells::Craq(Shell::new(config)),
            ProtocolKind::Vr => Shells::Vr(Shell::new(config)),
            ProtocolKind::Nopaxos => Shells::Nopaxos(Shell::new(config)),
        };
        Server {
            me,
            shell,
            transfer: StateTransfer::new(recover_from),
        }
    }

    /// This replica.
    pub fn me(&self) -> ReplicaId {
        self.me
    }

    /// First step of the server's life: a recovering server asks its peer
    /// for a snapshot.
    pub fn start(&self, out: &mut Effects) {
        self.transfer.ask(self.me, out);
    }

    /// Whether a state transfer into this server is still in flight.
    pub fn is_recovering(&self) -> bool {
        self.transfer.is_recovering()
    }

    /// Handle one inbound packet, appending what it sends to `out`.
    pub fn on_packet(&mut self, body: PacketBody<ProtocolMsg>, out: &mut Effects) -> Handled {
        match body {
            PacketBody::Protocol(ProtocolMsg::StateTransfer(m)) => {
                let (me, transfer) = (self.me, &mut self.transfer);
                dispatch!(&mut self.shell, s => transfer.on_msg(me, s, m, out));
                Handled::Transfer
            }
            PacketBody::Request(req) => {
                let (trace, obj) = (TraceId::new(req.client, req.request), req.obj);
                // Not caught up yet: shed the request, the client retries
                // against a replica that can actually serve it.
                if self.is_recovering() {
                    return Handled::Shed { trace, obj };
                }
                dispatch!(&mut self.shell, s => s.on_request(req, out));
                Handled::Request { trace, obj }
            }
            PacketBody::Protocol(msg) => {
                dispatch!(&mut self.shell, s => s.on_protocol(msg, out));
                Handled::Protocol
            }
            // Replies, completions and switch-control packets are not
            // addressed to replicas; tolerate strays.
            _ => Handled::Stray,
        }
    }

    /// Periodic tick (commit broadcasts, synchronization).
    pub fn on_tick(&mut self, out: &mut Effects) {
        dispatch!(&mut self.shell, s => s.on_tick(out))
    }

    /// How often [`on_tick`](Self::on_tick) should run, if at all.
    pub fn tick_interval(&self) -> Option<Duration> {
        dispatch!(&self.shell, s => s.tick_interval())
    }

    /// This replica's current best-known value for `key` (its applied state;
    /// equal to the committed value once the system quiesces). For audits
    /// and tests.
    pub fn local_value(&self, key: &[u8]) -> Option<Bytes> {
        dispatch!(&self.shell, s => s.local_value(key))
    }

    /// The largest write sequence number this replica has applied/executed.
    pub fn applied_seq(&self) -> SwitchSeq {
        dispatch!(&self.shell, s => s.applied_seq())
    }
}

/// What the perf ledger (`bench/e2e/src/path.rs`) drives a replica
/// through, by name. [`Server`] is its one implementor; once the ledger
/// holds a [`Server`], this trait and the constructor that boxes one go.
pub trait Replica: Send {
    /// Handle a client request (write, normal read, or fast-path read).
    fn on_request(&mut self, src: NodeId, req: ClientRequest, out: &mut Effects);

    /// Handle a protocol-internal message.
    fn on_protocol(&mut self, src: NodeId, msg: ProtocolMsg, out: &mut Effects);
}

impl Replica for Server {
    fn on_request(&mut self, _src: NodeId, req: ClientRequest, out: &mut Effects) {
        self.on_packet(PacketBody::Request(req), out);
    }

    fn on_protocol(&mut self, _src: NodeId, msg: ProtocolMsg, out: &mut Effects) {
        self.on_packet(PacketBody::Protocol(msg), out);
    }
}

/// Byte budget for one state-transfer chunk: comfortably under the wire
/// codec's `MAX_FRAME_BYTES` (65 507) after packet framing, so every chunk
/// is one datagram on the UDP driver.
const CHUNK_BUDGET_BYTES: usize = 48_000;

/// The state-transfer broker (sans-IO). On the serving side it answers
/// [`StateTransferMsg::Request`] with chunked snapshot + log + done. On the
/// recovering side it buffers chunks and installs on `Done` — if every
/// chunk the peer sent arrived; otherwise it asks again — then tells the
/// switch to lift the replica's read gate.
struct StateTransfer {
    recovering: Option<RecoveryBuffer>,
}

struct RecoveryBuffer {
    /// Who is serving the transfer, to ask again if a chunk goes missing.
    peer: ReplicaId,
    entries: Vec<SnapshotEntry>,
    log: Vec<WriteOp>,
}

impl RecoveryBuffer {
    fn new(peer: ReplicaId) -> Self {
        RecoveryBuffer {
            peer,
            entries: Vec::new(),
            log: Vec::new(),
        }
    }
}

impl StateTransfer {
    /// A broker that recovers from `recover_from`, if set.
    fn new(recover_from: Option<ReplicaId>) -> Self {
        StateTransfer {
            recovering: recover_from.map(RecoveryBuffer::new),
        }
    }

    /// True while a transfer is in flight on the recovering side.
    fn is_recovering(&self) -> bool {
        self.recovering.is_some()
    }

    /// While recovering, ask the peer for its state on behalf of `me`.
    fn ask(&self, me: ReplicaId, out: &mut Effects) {
        if let Some(buf) = &self.recovering {
            let ask = StateTransferMsg::Request { from: me };
            out.protocol(buf.peer, ProtocolMsg::StateTransfer(ask));
        }
    }

    /// Handle one state-transfer message for replica `me`, whose shell is
    /// `shell`.
    fn on_msg<P: Protocol>(
        &mut self,
        me: ReplicaId,
        shell: &mut Shell<P>,
        msg: StateTransferMsg,
        out: &mut Effects,
    ) {
        match msg {
            StateTransferMsg::Request { from } => serve(shell.export_snapshot(), from, out),
            StateTransferMsg::Entries { entries } => {
                if let Some(buf) = &mut self.recovering {
                    buf.entries.extend(entries);
                }
            }
            StateTransferMsg::Log { ops } => {
                if let Some(buf) = &mut self.recovering {
                    buf.log.extend(ops);
                }
            }
            StateTransferMsg::Done {
                state,
                entries,
                ops,
            } => {
                let Some(buf) = self.recovering.take() else {
                    return;
                };
                // Replica↔replica sends are spared by the adversary, not by
                // a full receive buffer. A replica that installed what
                // happened to arrive would answer fast-path reads with
                // `None` for the keys of a chunk it never received: start
                // the transfer over instead.
                if (buf.entries.len() as u64, buf.log.len() as u64) != (entries, ops) {
                    self.recovering = Some(RecoveryBuffer::new(buf.peer));
                    return self.ask(me, out);
                }
                let snap = Snapshot {
                    entries: buf.entries,
                    log: buf.log,
                    state,
                };
                shell.install_snapshot(snap, out);
                // Lift the read gate. The ungate crosses a faultable
                // switch leg on the UDP driver, so send a small burst —
                // the message is idempotent and floor-checked.
                let ctl = ControlMsg::UngateReplica {
                    replica: me,
                    caught_up: shell.applied_seq(),
                };
                for _ in 0..3 {
                    out.control_switch(shell.cx.via(), ctl.clone());
                }
            }
        }
    }
}

/// Serve `snap` to peer `to`: entries, then the log, each in chunks of the
/// frame budget, and finish with the scalar state.
fn serve(snap: Snapshot, to: ReplicaId, out: &mut Effects) {
    let mut send = |m| out.protocol(to, ProtocolMsg::StateTransfer(m));
    let (entries, ops) = (snap.entries.len() as u64, snap.log.len() as u64);
    let entry_cost = |e: &SnapshotEntry| e.key.len() + e.value.len() + 32;
    chunked(snap.entries, entry_cost, |entries| {
        send(StateTransferMsg::Entries { entries })
    });
    let op_cost = |op: &WriteOp| op.key.len() + op.value.len() + 40;
    chunked(snap.log, op_cost, |ops| send(StateTransferMsg::Log { ops }));
    let state = snap.state;
    send(StateTransferMsg::Done {
        state,
        entries,
        ops,
    });
}

/// Hand `items` to `send` in order, in chunks that stay within the frame
/// budget (a single item over it goes alone).
fn chunked<T>(items: Vec<T>, cost: impl Fn(&T) -> usize, mut send: impl FnMut(Vec<T>)) {
    let (mut chunk, mut size) = (Vec::new(), 0);
    for item in items {
        let c = cost(&item);
        if size + c > CHUNK_BUDGET_BYTES && !chunk.is_empty() {
            send(std::mem::take(&mut chunk));
            size = 0;
        }
        size += c;
        chunk.push(item);
    }
    if !chunk.is_empty() {
        send(chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::read_reply;
    use crate::shell::harness::{pump, seq};
    use harmonia_types::{ClientId, ReadMode, RequestId, SwitchId};

    /// Member `me` of a 3-replica Harmonia PB group, recovering from
    /// `recover_from` if set.
    fn pb(me: u32, recover_from: Option<ReplicaId>) -> Server {
        let config = GroupConfig::new(ProtocolKind::PrimaryBackup, 3, me, true);
        Server::new(config, recover_from)
    }

    /// A 3-replica PB group with `key{n} = values[n - 1]` committed on all.
    fn committed_pb_group(values: &[Bytes]) -> Vec<Server> {
        let mut group: Vec<Server> = (0..3).map(|i| pb(i, None)).collect();
        let mut fx = Effects::new();
        for (n, value) in (1u64..).zip(values) {
            let key = Bytes::from(format!("key{n}"));
            let mut req = ClientRequest::write(ClientId(1), RequestId(n), key, value.clone());
            req.seq = Some(seq(n));
            group[0].on_packet(PacketBody::Request(req), &mut fx);
        }
        pump(&mut group, fx);
        group
    }

    fn ungate(caught_up: SwitchSeq) -> PacketBody<ProtocolMsg> {
        PacketBody::Control(ControlMsg::UngateReplica {
            replica: ReplicaId(2),
            caught_up,
        })
    }

    /// A restarted backup sheds client requests while its transfer is in
    /// flight, installs its peer's state, lifts its read gate, and then
    /// serves the request it shed.
    #[test]
    fn state_transfer_round_trip_restores_a_pb_backup() {
        let values: Vec<Bytes> = (1..=4).map(|n| Bytes::from(format!("val{n}"))).collect();
        let mut group = committed_pb_group(&values);

        // Replica 2 crashes and restarts empty; pull state from replica 0.
        group[2] = pb(2, Some(ReplicaId(0)));
        let mut fx = Effects::new();
        group[2].start(&mut fx);
        assert!(group[2].is_recovering());

        let mut read = ClientRequest::read(ClientId(2), RequestId(1), &b"key1"[..]);
        read.read_mode = ReadMode::FastPath {
            switch: SwitchId(1),
        };
        read.last_committed = Some(seq(4));
        let (trace, obj) = (TraceId::new(ClientId(2), RequestId(1)), read.obj);
        let mut shed = Effects::new();
        let handled = group[2].on_packet(PacketBody::Request(read.clone()), &mut shed);
        assert_eq!(handled, Handled::Shed { trace, obj });
        assert!(shed.is_empty(), "a shed request emits nothing");

        assert_eq!(pump(&mut group, fx), vec![ungate(seq(4)); 3]);
        assert!(!group[2].is_recovering(), "transfer completed");
        for (n, value) in (1u64..).zip(&values) {
            let key = format!("key{n}");
            assert_eq!(group[2].local_value(key.as_bytes()).as_ref(), Some(value));
        }
        assert_eq!(group[2].applied_seq(), seq(4));

        let mut served = Effects::new();
        let handled = group[2].on_packet(PacketBody::Request(read.clone()), &mut served);
        assert_eq!(handled, Handled::Request { trace, obj });
        let reply = read_reply(ReplicaId(2), &read, Some(values[0].clone()));
        let want = vec![(NodeId::Switch(SwitchId(1)), PacketBody::Reply(reply))];
        assert_eq!(served.out, want, "served alone after the install");
    }

    /// A receive buffer that overflowed mid-burst drops a chunk without
    /// telling anyone. `Done` says how much was sent: the recovering side
    /// installs nothing, stays shed and gated, and asks its peer again.
    #[test]
    fn a_transfer_that_lost_a_chunk_asks_again_instead_of_installing() {
        // 30 KB values: every entry is a chunk of its own.
        let values: Vec<Bytes> = (1..=4u8).map(|n| Bytes::from(vec![n; 30_000])).collect();
        let mut group = committed_pb_group(&values);
        group[2] = pb(2, Some(ReplicaId(0)));
        let mut request = Effects::new();
        group[2].start(&mut request);
        let ask = PacketBody::Protocol(ProtocolMsg::StateTransfer(StateTransferMsg::Request {
            from: ReplicaId(2),
        }));
        assert_eq!(
            request.out,
            vec![(NodeId::Replica(ReplicaId(0)), ask.clone())]
        );
        let mut served = Effects::new();
        assert_eq!(
            group[0].on_packet(ask.clone(), &mut served),
            Handled::Transfer
        );
        let is_chunk = |b: &PacketBody<ProtocolMsg>| {
            matches!(
                b,
                PacketBody::Protocol(ProtocolMsg::StateTransfer(StateTransferMsg::Entries { .. }))
            )
        };
        assert_eq!(served.out.iter().filter(|(_, b)| is_chunk(b)).count(), 4);

        // The second chunk never arrives; everything else does, in order.
        served.out.remove(1);
        let mut after = Effects::new();
        for (dst, body) in served.out.drain(..) {
            assert_eq!(dst, NodeId::Replica(ReplicaId(2)));
            assert_eq!(group[2].on_packet(body, &mut after), Handled::Transfer);
        }
        assert!(group[2].is_recovering(), "still shedding requests");
        for n in 1..=4 {
            let key = format!("key{n}");
            assert_eq!(group[2].local_value(key.as_bytes()), None, "{key}");
        }
        // No ungate; one more request to the same peer.
        assert_eq!(after.out, vec![(NodeId::Replica(ReplicaId(0)), ask)]);

        // The second attempt arrives whole and installs.
        assert_eq!(pump(&mut group, after), vec![ungate(seq(4)); 3]);
        assert!(!group[2].is_recovering());
        assert_eq!(group[2].local_value(b"key2"), Some(values[1].clone()));
        assert_eq!(group[2].applied_seq(), seq(4));
    }

    #[test]
    fn state_transfer_done_emits_an_ungate_burst() {
        let mut server = pb(2, Some(ReplicaId(0)));
        server.start(&mut Effects::new());
        let done = || {
            PacketBody::Protocol(ProtocolMsg::StateTransfer(StateTransferMsg::Done {
                state: Default::default(),
                entries: 0,
                ops: 0,
            }))
        };
        let mut out = Effects::new();
        assert_eq!(server.on_packet(done(), &mut out), Handled::Transfer);
        let ungates: Vec<_> = out.out.into_iter().map(|(_, b)| b).collect();
        assert_eq!(
            ungates,
            vec![ungate(SwitchSeq::ZERO); 3],
            "loss-tolerant burst"
        );
        // A stray Done with no transfer in flight is ignored.
        let mut out = Effects::new();
        server.on_packet(done(), &mut out);
        assert!(out.is_empty());
    }
}
