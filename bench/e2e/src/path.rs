//! The `path` rig: the whole packet path pumped by one thread.
//!
//! The threaded drivers spend most of an operation's time on thread
//! wake-ups, so codec, coalescer, syscall and switch cost hide behind
//! hand-offs there. This rig assembles the same deployment from the crates'
//! public pieces — one `UdpTransport` endpoint per node on the host
//! loopback, `SwitchCore::for_deployment`, `build_replica` — and steps the
//! nodes in turn from a single thread. Loopback delivery is synchronous
//! (a datagram is queued at the receiver when `send` returns), so neither
//! a second thread nor a sleep is needed, and with 32 operations in flight
//! the batch verbs, the coalescer and the codec do the work they would do
//! under load.
//!
//! ```text
//!   32 logical clients ─ client endpoint ──send_batch──▶ switch endpoint
//!        ▲                                                │ SwitchCore::handle
//!        │                                                ▼
//!        └──────── switch endpoint ◀── replies ── replica endpoints ×3
//!                                               (Replica::on_request /
//!                                                on_protocol, chain hops)
//! ```

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use harmonia::core::client::OpSpec;
use harmonia::core::{Msg, RecordedOp, SwitchCore};
use harmonia::kv::{Store, VersionedValue};
use harmonia::net::{AddrBook, Coalescer, PoolStats, Transport, TransportStats, UdpTransport};
use harmonia::prelude::DeploymentSpec;
use harmonia::replication::{build_replica, Effects, ProtocolMsg, Replica};
use harmonia::types::wire::{encode_frame_into, frames};
use harmonia::types::{
    ClientId, ClientRequest, Duration as VDuration, Instant as VInstant, NodeId, OpKind,
    PacketBody, RequestId, SwitchId, SwitchSeq, WriteOutcome,
};
use harmonia::workload::ShardMap;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

use crate::check::Checker;
use crate::rig::{fill, BlockConfig, RigReport};
use crate::rigs::fast_path_share;
use crate::stats::better_half_mean;
use crate::workloads::KEYS;

/// Logical clients, one operation outstanding each (a replica's
/// `ClientTable` admits one request per client id at a time).
pub const CLIENTS: usize = 32;
/// Frames one poll may take off a socket; above anything 32 operations in
/// flight can queue, so one `recvmmsg` drains the endpoint.
const RECV_MAX: usize = 256;
/// Packets the traced trial keeps for the codec and coalescer replays.
pub const SAMPLE_FRAMES: usize = 8192;
/// Rounds each replay's time is split into.
const REPLAY_ROUNDS: usize = 5;

type Net = UdpTransport<ProtocolMsg>;

/// Which crate a span's time belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Layer {
    /// `Transport::send_batch`: resolve, encode, coalesce, `sendmmsg`.
    NetSend,
    /// `Transport::recv_batch`: `recvmmsg`, frame decode (empty polls too).
    NetRecv,
    /// `SwitchCore::handle` over one received batch.
    Switch,
    /// `Replica::on_request` / `on_protocol` over one received batch,
    /// including the store.
    Replication,
    /// The rig's own client: building requests, matching replies.
    Client,
}

/// One batch-level call into a layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub layer: Layer,
    /// 0 = client, 1 = switch, 2.. = replicas.
    pub node: u8,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Frames, packets or operations the call handled.
    pub items: u32,
}

/// Span recording, compiled out of the untraced trials.
pub trait Tracer {
    fn begin(&self) -> u64;
    fn end(&mut self, layer: Layer, node: u8, begin: u64, items: usize);
    fn sample(&mut self, _msg: &Msg) {}
}

pub struct Untraced;

impl Tracer for Untraced {
    #[inline(always)]
    fn begin(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn end(&mut self, _: Layer, _: u8, _: u64, _: usize) {}
}

/// Spans kept in memory and folded when the run ends, plus the first
/// [`SAMPLE_FRAMES`] packets the nodes sent.
pub struct Traced {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub packets: Vec<Msg>,
}

impl Default for Traced {
    fn default() -> Traced {
        Traced {
            epoch: Instant::now(),
            spans: Vec::new(),
            packets: Vec::new(),
        }
    }
}

impl Tracer for Traced {
    fn begin(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
    fn end(&mut self, layer: Layer, node: u8, begin: u64, items: usize) {
        self.spans.push(Span {
            layer,
            node,
            start_ns: begin,
            end_ns: self.epoch.elapsed().as_nanos() as u64,
            items: items as u32,
        });
    }
    fn sample(&mut self, msg: &Msg) {
        if self.packets.len() < SAMPLE_FRAMES {
            self.packets.push(msg.clone());
        }
    }
}

/// Time and items of one layer, summed over its spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotal {
    pub ns: u64,
    pub items: u64,
}

impl LayerTotal {
    pub fn ns_per_item(&self) -> f64 {
        self.ns as f64 / self.items.max(1) as f64
    }
}

/// Fold spans into per-layer totals, indexed like [`Layer`]'s variants.
pub fn fold_spans(spans: &[Span]) -> [LayerTotal; 5] {
    let mut totals = [LayerTotal::default(); 5];
    for s in spans {
        let t = &mut totals[s.layer as usize];
        t.ns += s.end_ns.saturating_sub(s.start_ns);
        t.items += u64::from(s.items);
    }
    totals
}

/// What one pumped trial did.
#[derive(Default)]
pub struct PathTrial {
    pub ops: usize,
    pub wall_s: f64,
    /// Operations that got no reply, a rejection, or a stall.
    pub failed: u64,
    /// Replies that matched no outstanding `(client, request)`.
    pub unmatched: u64,
    pub empty_polls: u64,
    pub frames_sent: u64,
    pub datagrams_sent: u64,
    pub wire_errors: u64,
    /// Reads the switch sent to one replica / through the protocol.
    pub reads_fast_path: u64,
    pub reads_normal: u64,
    pub recv_pool: PoolStats,
    pub send_pool: PoolStats,
    /// One history; its clock counts pump passes.
    pub history: Vec<RecordedOp>,
}

impl PathTrial {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }
    pub fn ns_per_op(&self) -> f64 {
        self.wall_s * 1e9 / self.ops.max(1) as f64
    }
}

struct InFlight {
    op: usize,
    request: RequestId,
    invoked: u64,
}

pub struct PathRig {
    client_net: Net,
    switch_net: Net,
    replica_nets: Vec<Net>,
    switch: SwitchCore,
    switch_addr: NodeId,
    replicas: Vec<(NodeId, Box<dyn Replica>)>,
    rng: SmallRng,
    next_request: [u64; CLIENTS],
    /// The histories' clock: two ticks per pass (issue, collect).
    tick: u64,
    inbox: Vec<Msg>,
    outbox: Vec<(NodeId, Msg)>,
    fx: Effects,
}

fn send<T: Tracer>(net: &mut Net, out: &mut Vec<(NodeId, Msg)>, node: u8, tracer: &mut T) -> usize {
    let n = out.len();
    if n == 0 {
        return 0;
    }
    for (_, msg) in out.iter() {
        tracer.sample(msg);
    }
    let t = tracer.begin();
    net.send_batch(out);
    tracer.end(Layer::NetSend, node, t, n);
    n
}

fn recv<T: Tracer>(
    net: &mut Net,
    inbox: &mut Vec<Msg>,
    node: u8,
    tracer: &mut T,
    empty_polls: &mut u64,
) -> usize {
    let t = tracer.begin();
    let n = net.recv_batch(inbox, RECV_MAX);
    tracer.end(Layer::NetRecv, node, t, n);
    if n == 0 {
        *empty_polls += 1;
    }
    n
}

impl PathRig {
    /// Bind the five endpoints and build the switch and the replicas of the
    /// default deployment.
    pub fn start(seed: u64) -> PathRig {
        let spec = DeploymentSpec::new();
        let book = Arc::new(AddrBook::new());
        let bind = || Net::bind(Arc::clone(&book)).expect("bind loopback UDP socket");
        let client_net = bind();
        for c in 0..CLIENTS as u32 {
            book.register(NodeId::Client(ClientId(c + 1)), client_net.local_addr());
        }
        let switch_net = bind();
        let switch_addr = spec.switch_addr();
        book.install_spine(
            vec![switch_addr],
            ShardMap::new(1),
            vec![switch_net.local_addr()],
        );
        let mut replica_nets = Vec::new();
        let mut replicas = Vec::new();
        for i in 0..spec.replicas {
            let net = bind();
            let id = NodeId::Replica(spec.replica_id(0, i));
            book.register(id, net.local_addr());
            replica_nets.push(net);
            replicas.push((id, build_replica(spec.group_config(0, i))));
        }
        PathRig {
            client_net,
            switch_net,
            replica_nets,
            switch: SwitchCore::for_deployment(&spec, spec.initial_switch()),
            switch_addr,
            replicas,
            rng: SmallRng::seed_from_u64(seed),
            next_request: [0; CLIENTS],
            tick: 0,
            inbox: Vec::with_capacity(RECV_MAX),
            outbox: Vec::with_capacity(RECV_MAX),
            fx: Effects::new(),
        }
    }

    fn nets(&self) -> impl Iterator<Item = &Net> {
        [&self.client_net, &self.switch_net]
            .into_iter()
            .chain(self.replica_nets.iter())
    }

    fn wire_totals(&self) -> (TransportStats, PoolStats, PoolStats) {
        let mut wire = TransportStats::default();
        let (mut recv_pool, mut send_pool) = (PoolStats::default(), PoolStats::default());
        for net in self.nets() {
            let s = net.stats();
            wire.sent += s.sent;
            wire.datagrams_sent += s.datagrams_sent;
            wire.unresolved += s.unresolved;
            wire.decode_errors += s.decode_errors;
            wire.oversized += s.oversized;
            wire.send_errors += s.send_errors;
            let (r, w) = (net.pool_stats(), net.send_pool_stats());
            recv_pool.hits += r.hits;
            recv_pool.misses += r.misses;
            send_pool.hits += w.hits;
            send_pool.misses += w.misses;
        }
        (wire, recv_pool, send_pool)
    }

    /// The switch's counters and dirty-set occupancy.
    pub fn switch_view(&self) -> harmonia::switch::SpineView {
        self.switch.view()
    }

    fn switch_step<T: Tracer>(&mut self, tracer: &mut T, empty_polls: &mut u64) -> usize {
        let n = recv(
            &mut self.switch_net,
            &mut self.inbox,
            1,
            tracer,
            empty_polls,
        );
        if n == 0 {
            return 0;
        }
        let t = tracer.begin();
        for msg in self.inbox.drain(..) {
            self.switch.handle(
                VInstant::ZERO,
                self.switch_addr,
                msg,
                &mut self.rng,
                &mut self.outbox,
            );
        }
        tracer.end(Layer::Switch, 1, t, n);
        n + send(&mut self.switch_net, &mut self.outbox, 1, tracer)
    }

    fn replica_step<T: Tracer>(
        &mut self,
        i: usize,
        tracer: &mut T,
        empty_polls: &mut u64,
    ) -> usize {
        let node = 2 + i as u8;
        let n = recv(
            &mut self.replica_nets[i],
            &mut self.inbox,
            node,
            tracer,
            empty_polls,
        );
        if n == 0 {
            return 0;
        }
        let (me, replica) = &mut self.replicas[i];
        let t = tracer.begin();
        for msg in self.inbox.drain(..) {
            match msg.body {
                PacketBody::Request(req) => replica.on_request(msg.src, req, &mut self.fx),
                PacketBody::Protocol(p) => replica.on_protocol(msg.src, p, &mut self.fx),
                _ => {}
            }
            self.outbox.extend(
                self.fx
                    .out
                    .drain(..)
                    .map(|(dst, body)| (dst, Msg::new(*me, dst, body))),
            );
        }
        tracer.end(Layer::Replication, node, t, n);
        n + send(&mut self.replica_nets[i], &mut self.outbox, node, tracer)
    }

    /// Pump `plan` through the deployment, 32 operations in flight, until
    /// every operation has its reply.
    pub fn run<T: Tracer>(&mut self, plan: &[OpSpec], tracer: &mut T) -> PathTrial {
        let mut slots: [Option<InFlight>; CLIENTS] = std::array::from_fn(|_| None);
        let mut history: Vec<RecordedOp> = Vec::with_capacity(plan.len());
        let (mut next_op, mut outstanding) = (0usize, 0usize);
        let mut trial = PathTrial::default();
        let (wire0, recv0, send0) = self.wire_totals();
        let switch0 = self.switch.stats();
        let at = |tick: u64| VInstant::ZERO + VDuration::from_nanos(tick);
        let record = |op: &OpSpec, invoked: u64, completed: u64, result, ok| RecordedOp {
            kind: op.kind,
            key: op.key.clone(),
            value: op.value.clone(),
            invoked: at(invoked),
            completed: at(completed),
            result,
            ok,
        };
        let started = Instant::now();
        while next_op < plan.len() || outstanding > 0 {
            // Client: give every idle logical client its next operation.
            let t = tracer.begin();
            self.tick += 1;
            for (c, slot) in slots.iter_mut().enumerate() {
                if slot.is_some() || next_op == plan.len() {
                    continue;
                }
                let op = &plan[next_op];
                let client = ClientId(c as u32 + 1);
                let request = RequestId(self.next_request[c]);
                self.next_request[c] += 1;
                let req = match op.kind {
                    OpKind::Read => ClientRequest::read(client, request, op.key.clone()),
                    OpKind::Write => ClientRequest::write(
                        client,
                        request,
                        op.key.clone(),
                        op.value.clone().unwrap_or_default(),
                    ),
                };
                self.outbox.push((
                    self.switch_addr,
                    Msg::new(
                        NodeId::Client(client),
                        self.switch_addr,
                        PacketBody::Request(req),
                    ),
                ));
                *slot = Some(InFlight {
                    op: next_op,
                    request,
                    invoked: self.tick,
                });
                next_op += 1;
                outstanding += 1;
            }
            tracer.end(Layer::Client, 0, t, self.outbox.len());
            let mut moved = send(&mut self.client_net, &mut self.outbox, 0, tracer);

            // Requests reach the switch, then the replicas in chain order
            // (a write's hops all land in this pass), then the replies
            // reach the switch again on their way back.
            moved += self.switch_step(tracer, &mut trial.empty_polls);
            for i in 0..self.replicas.len() {
                moved += self.replica_step(i, tracer, &mut trial.empty_polls);
            }
            moved += self.switch_step(tracer, &mut trial.empty_polls);

            // Client: match replies to the outstanding operations.
            let n = recv(
                &mut self.client_net,
                &mut self.inbox,
                0,
                tracer,
                &mut trial.empty_polls,
            );
            moved += n;
            let t = tracer.begin();
            self.tick += 1;
            for msg in self.inbox.drain(..) {
                let PacketBody::Reply(reply) = msg.body else {
                    trial.unmatched += 1;
                    continue;
                };
                let slot = (reply.client.0 as usize)
                    .checked_sub(1)
                    .and_then(|c| slots.get_mut(c));
                let Some(slot) = slot else {
                    trial.unmatched += 1;
                    continue;
                };
                match slot.take() {
                    Some(inflight) if inflight.request == reply.request => {
                        let op = &plan[inflight.op];
                        let ok = !matches!(
                            reply.write_outcome,
                            Some(WriteOutcome::Rejected | WriteOutcome::DroppedBySwitch)
                        );
                        // The value is copied out, as an application would:
                        // decoded, it aliases the 64 KB receive buffer, and
                        // a history of such handles would pin one buffer
                        // per datagram.
                        let result = reply.value.map(|v| Bytes::copy_from_slice(&v));
                        history.push(record(op, inflight.invoked, self.tick, result, ok));
                        outstanding -= 1;
                    }
                    other => {
                        *slot = other;
                        trial.unmatched += 1;
                    }
                }
            }
            tracer.end(Layer::Client, 0, t, n);

            if moved == 0 {
                // Nothing is in flight on any socket, yet replies are owed:
                // a datagram was lost. Nothing here retries, so the
                // operations are abandoned and counted.
                for slot in slots.iter_mut() {
                    if let Some(inflight) = slot.take() {
                        let op = &plan[inflight.op];
                        history.push(record(op, inflight.invoked, self.tick, None, false));
                        outstanding -= 1;
                    }
                }
            }
        }
        trial.wall_s = started.elapsed().as_secs_f64();
        trial.ops = plan.len();
        trial.failed = history.iter().filter(|r| !r.ok).count() as u64;
        let (wire1, recv1, send1) = self.wire_totals();
        let wire = wire1.since(&wire0);
        trial.frames_sent = wire.sent;
        trial.datagrams_sent = wire.datagrams_sent;
        trial.wire_errors =
            wire.unresolved + wire.decode_errors + wire.oversized + wire.send_errors;
        trial.recv_pool = recv1.since(&recv0);
        trial.send_pool = send1.since(&send0);
        let switch1 = self.switch.stats();
        trial.reads_fast_path = switch1.reads_fast_path - switch0.reads_fast_path;
        trial.reads_normal = switch1.reads_normal - switch0.reads_normal;
        trial.history = history;
        trial
    }
}

/// What a pumped trial is for.
#[derive(Clone, Copy)]
enum Pass {
    /// Run and discarded.
    WarmUp,
    /// Timed, spans compiled out: gives `path_ops_per_s`.
    Plain,
    /// Timed with spans on: gives the per-layer numbers.
    Traced,
}

/// One block of the `path` rig: bind and build, store every key, warm up,
/// pump the trials. The traced run pairs every untraced trial with a
/// traced one (the order alternating, so neither always runs on the warmer
/// heap), folds the spans per trial, and replays the codec, the coalescer
/// and the store over the first traced trial's packets and keys.
pub fn path_block(cfg: &BlockConfig) -> RigReport {
    let w = &cfg.workload;
    let keys = w.keyspace();
    let ops = cfg.scale.path_ops;
    let mut report = RigReport::default();
    let started = Instant::now();
    let mut rig = PathRig::start(cfg.seed);
    let stored = rig.run(&w.preload_plans(&keys, 1)[0], &mut Untraced);
    report.setup_s = started.elapsed().as_secs_f64();
    let mut checker = Checker::preloaded(w, &keys, stored.failed);
    // A reply that matched no outstanding request is a lost operation.
    let mut unmatched = stored.unmatched;
    let mut packets: Vec<Msg> = Vec::new();
    let mut traced_ops_per_s = Vec::new();

    let mut pump = |pass: Pass, trial: u32, report: &mut RigReport| {
        let tag = match pass {
            Pass::WarmUp => 'w',
            Pass::Plain => 'p',
            Pass::Traced => 'q',
        };
        let plan = w.plan(&keys, cfg.seed, tag, trial, 0, ops);
        let mut tracer = Traced::default();
        let mut t = match pass {
            Pass::Traced => rig.run(&plan, &mut tracer),
            Pass::WarmUp | Pass::Plain => rig.run(&plan, &mut Untraced),
        };
        unmatched += t.unmatched;
        checker.check("path", &[std::mem::take(&mut t.history)]);
        match pass {
            Pass::WarmUp => return,
            Pass::Plain => return report.push("path_ops_per_s", t.ops_per_s()),
            Pass::Traced => {}
        }
        if packets.is_empty() {
            packets = std::mem::take(&mut tracer.packets);
        }
        traced_ops_per_s.push(t.ops_per_s());
        let layers = fold_spans(&tracer.spans);
        let of = |l: Layer| layers[l as usize];
        let per_op = |x: u64| x as f64 / t.ops as f64;
        report.push("types.frames_per_op", per_op(t.frames_sent));
        report.push("net.send_ns_per_frame", of(Layer::NetSend).ns_per_item());
        report.push("net.recv_ns_per_frame", of(Layer::NetRecv).ns_per_item());
        report.push(
            "net.frames_per_datagram",
            t.frames_sent as f64 / t.datagrams_sent.max(1) as f64,
        );
        report.push("net.empty_polls_per_op", per_op(t.empty_polls));
        report.push("net.send_pool_hit_rate", t.send_pool.hit_rate());
        report.push("net.recv_pool_hit_rate", t.recv_pool.hit_rate());
        report.push("extra.path_wire_errors", t.wire_errors as f64);
        report.push(
            "switch.handle_ns_per_packet",
            of(Layer::Switch).ns_per_item(),
        );
        report.push("switch.packets_per_op", per_op(of(Layer::Switch).items));
        report.push(
            "switch.fast_path_share.path",
            fast_path_share(t.reads_fast_path, t.reads_normal),
        );
        report.push(
            "replication.handle_ns_per_msg",
            of(Layer::Replication).ns_per_item(),
        );
        report.push(
            "replication.msgs_per_op",
            per_op(of(Layer::Replication).items),
        );
        report.push("path.client_ns_per_op", per_op(of(Layer::Client).ns));
        report.push(
            "path.unaccounted_ns_per_op",
            t.ns_per_op() - per_op(layers.iter().map(|l| l.ns).sum()),
        );
    };
    // Two discarded trials: the second timed trial of a block still ran 5 %
    // faster than the first after one.
    for n in 0..2 {
        pump(Pass::WarmUp, cfg.trial_no(900 + n), &mut report);
    }
    fill(cfg.slice_s, |n| {
        let passes: &[Pass] = match (cfg.trace, n % 2) {
            (false, _) => &[Pass::Plain],
            (true, 1) => &[Pass::Plain, Pass::Traced],
            (true, _) => &[Pass::Traced, Pass::Plain],
        };
        for &pass in passes {
            pump(pass, cfg.trial_no(n), &mut report);
        }
    });

    report.totals = checker.totals;
    report.totals.failed += unmatched;
    if !cfg.trace {
        return report;
    }
    let untraced_ops_per_s = report
        .samples
        .iter()
        .find(|(name, _)| name == "path_ops_per_s")
        .map_or(0.0, |(_, v)| better_half_mean(v, true));
    report.push(
        "path.trace_overhead_pct",
        (untraced_ops_per_s / better_half_mean(&traced_ops_per_s, true).max(1e-9) - 1.0) * 100.0,
    );
    let view = rig.switch_view();
    report.push("switch.writes_dropped", view.stats().writes_dropped as f64);
    report.push("switch.dirty_len_end", view.dirty_len() as f64);

    // The call alone, replayed over the packets and keys of the pumped path,
    // in rounds: a disturbed round is one sample among several.
    let round_s = cfg.scale.replay_s / REPLAY_ROUNDS as f64;
    let preload: Vec<_> = (0..KEYS)
        .map(|i| (keys.key(i), w.preload_value(i)))
        .collect();
    let started = Instant::now();
    let stream = w.plan(&keys, cfg.seed, 'k', 0, 0, ops);
    report.push(
        "workload.gen_ns_per_op",
        started.elapsed().as_nanos() as f64 / stream.len().max(1) as f64,
    );
    for _ in 0..REPLAY_ROUNDS {
        let (encode_ns, decode_ns, bytes_per_frame) = replay_codec(&packets, round_s);
        report.push("types.encode_ns_per_frame", encode_ns);
        report.push("types.decode_ns_per_frame", decode_ns);
        report.push("types.bytes_per_frame", bytes_per_frame);
        report.push(
            "net.coalesce_ns_per_frame",
            replay_coalescer(&packets, round_s),
        );
        let (get_ns, put_ns) = replay_kv(&preload, &stream, round_s);
        report.push("kv.get_ns", get_ns);
        report.push("kv.put_ns", put_ns);
    }
    report
}

/// `encode_frame_into` and `frames()` alone over the sampled packets:
/// (encode ns/frame, decode ns/frame, bytes/frame).
pub fn replay_codec(packets: &[Msg], min_seconds: f64) -> (f64, f64, f64) {
    if packets.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    // Pack the sample the way the coalescer would: frames back to back,
    // a new datagram when the next frame may not fit.
    const DATAGRAM: usize = 60_000;
    let mut datagrams: Vec<Bytes> = Vec::new();
    let mut buf = BytesMut::with_capacity(1 << 16);
    let mut bytes = 0usize;
    for p in packets {
        bytes += encode_frame_into(p, &mut buf).unwrap_or(0);
        if buf.len() > DATAGRAM - 8192 {
            datagrams.push(std::mem::replace(&mut buf, BytesMut::with_capacity(1 << 16)).freeze());
        }
    }
    if !buf.is_empty() {
        datagrams.push(buf.freeze());
    }

    let mut buf = BytesMut::with_capacity(1 << 16);
    let (mut frames_done, started) = (0u64, Instant::now());
    while started.elapsed().as_secs_f64() < min_seconds {
        for p in packets {
            let _ = black_box(encode_frame_into(black_box(p), &mut buf));
            if buf.len() > DATAGRAM - 8192 {
                buf.clear();
            }
        }
        frames_done += packets.len() as u64;
    }
    let encode_ns = started.elapsed().as_nanos() as f64 / frames_done as f64;

    let (mut frames_done, started) = (0u64, Instant::now());
    while started.elapsed().as_secs_f64() < min_seconds {
        for d in &datagrams {
            for frame in frames::<Msg>(black_box(d)) {
                let _ = black_box(frame);
                frames_done += 1;
            }
        }
    }
    let decode_ns = started.elapsed().as_nanos() as f64 / frames_done.max(1) as f64;
    (encode_ns, decode_ns, bytes as f64 / packets.len() as f64)
}

/// `Coalescer::push` + `finish` alone over the sampled packets, flushed
/// every 32 frames like one pump pass: ns/frame (encode included — the
/// coalescer encodes straight into its datagram).
pub fn replay_coalescer(packets: &[Msg], min_seconds: f64) -> f64 {
    if packets.is_empty() {
        return 0.0;
    }
    let dst = SocketAddr::from(([127, 0, 0, 1], 9));
    let mut coalescer = Coalescer::new(usize::from(u16::MAX), 128);
    let mut sealed = Vec::new();
    let (mut frames_done, started) = (0u64, Instant::now());
    while started.elapsed().as_secs_f64() < min_seconds {
        for burst in packets.chunks(CLIENTS) {
            for p in burst {
                let _ = coalescer.push(dst, black_box(p), &mut sealed);
            }
            coalescer.finish(&mut sealed);
            black_box(&sealed);
            sealed.clear();
        }
        frames_done += packets.len() as u64;
    }
    started.elapsed().as_nanos() as f64 / frames_done as f64
}

/// `Store::get` and `Store::put` alone over a plan's key stream, on a store
/// holding every key at the workload's value size: (get ns, put ns).
pub fn replay_kv(preload: &[(Bytes, Bytes)], plan: &[OpSpec], min_seconds: f64) -> (f64, f64) {
    let store: Store<VersionedValue> = Store::new();
    for (key, value) in preload {
        store.put(
            key.clone(),
            VersionedValue::new(value.clone(), SwitchSeq::ZERO),
        );
    }
    let value = preload.first().map(|(_, v)| v.clone()).unwrap_or_default();
    let (mut done, started) = (0u64, Instant::now());
    while started.elapsed().as_secs_f64() < min_seconds {
        for op in plan {
            black_box(store.get(black_box(&op.key)));
        }
        done += plan.len() as u64;
    }
    let get_ns = started.elapsed().as_nanos() as f64 / done.max(1) as f64;
    let (mut done, started) = (0u64, Instant::now());
    while started.elapsed().as_secs_f64() < min_seconds {
        for op in plan {
            done += 1;
            let seq = SwitchSeq::new(SwitchId(1), done);
            store.put(op.key.clone(), VersionedValue::new(value.clone(), seq));
        }
    }
    let put_ns = started.elapsed().as_nanos() as f64 / done.max(1) as f64;
    (get_ns, put_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_fold_per_layer() {
        let span = |layer, start_ns, end_ns, items| Span {
            layer,
            node: 1,
            start_ns,
            end_ns,
            items,
        };
        let totals = fold_spans(&[
            span(Layer::NetSend, 0, 100, 32),
            span(Layer::NetSend, 200, 260, 8),
            span(Layer::NetRecv, 300, 310, 0),
            span(Layer::Switch, 400, 480, 40),
        ]);
        let send = totals[Layer::NetSend as usize];
        assert_eq!((send.ns, send.items), (160, 40));
        assert_eq!(send.ns_per_item(), 4.0);
        // An empty poll costs time and delivers nothing.
        let recv = totals[Layer::NetRecv as usize];
        assert_eq!((recv.ns, recv.items), (10, 0));
        assert_eq!(totals[Layer::Switch as usize].ns_per_item(), 2.0);
        assert_eq!(totals[Layer::Replication as usize], LayerTotal::default());
    }

    #[test]
    fn pump_completes_every_operation_and_matches_every_reply() {
        let w = crate::workloads::WORKLOADS[1];
        let keys = w.keyspace();
        let mut rig = PathRig::start(1);
        let preload = rig.run(&w.preload_plans(&keys, 1)[0][..500], &mut Untraced);
        assert_eq!((preload.failed, preload.unmatched), (0, 0));
        let mut tracer = Traced::default();
        let trial = rig.run(&w.plan(&keys, 1, 'p', 1, 0, 2000), &mut tracer);
        assert_eq!(trial.history.len(), 2000);
        assert_eq!(
            (trial.failed, trial.unmatched, trial.wire_errors),
            (0, 0, 0)
        );
        assert!(trial.frames_sent >= 4 * 2000);
        let totals = fold_spans(&tracer.spans);
        assert_eq!(totals[Layer::Client as usize].items, 2 * 2000);
        assert_eq!(rig.switch_view().dirty_len(), 0);
    }
}
