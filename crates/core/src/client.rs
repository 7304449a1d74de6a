//! Client library: an open-loop load generator (the paper's DPDK generator
//! substitute) and a closed-loop client for correctness tests.
//!
//! Both clients speak the Harmonia packet format and address the switch;
//! they never know which replica serves them — that is the whole point of
//! the architecture (§4). What a reply *means* (quorums, rejections, retry
//! budgets) is the `client_core` module's business, and so is the
//! closed-loop client's whole loop; the actors here only move packets and
//! virtual time.

use std::collections::BTreeMap;

use bytes::Bytes;
use harmonia_obs::{Counter, Recorder, Series, TraceStage};
use harmonia_sim::{Actor, Context, TimerToken};
use harmonia_types::{
    ClientId, ClientRequest, Duration, Instant, NodeId, ObjectId, OpKind, PacketBody, RecordedOp,
    RequestId, TraceId,
};
use rand::rngs::SmallRng;

use crate::client_core::{Lanes, ReplyTally, Tally};
use crate::msg::Msg;

/// One operation to issue.
#[derive(Clone, Debug)]
pub struct OpSpec {
    /// Read or write.
    pub kind: OpKind,
    /// Application key.
    pub key: Bytes,
    /// Value for writes.
    pub value: Option<Bytes>,
}

impl OpSpec {
    /// A read of `key`.
    pub fn read(key: impl Into<Bytes>) -> Self {
        OpSpec {
            kind: OpKind::Read,
            key: key.into(),
            value: None,
        }
    }

    /// A write of `key := value`.
    pub fn write(key: impl Into<Bytes>, value: impl Into<Bytes>) -> Self {
        OpSpec {
            kind: OpKind::Write,
            key: key.into(),
            value: Some(value.into()),
        }
    }

    /// This operation as `client`'s request `rid`. Key and value move by
    /// refcount, so building one per attempt copies nothing.
    pub(crate) fn request(&self, client: ClientId, rid: RequestId) -> ClientRequest {
        match self.kind {
            OpKind::Read => ClientRequest::read(client, rid, self.key.clone()),
            OpKind::Write => ClientRequest::write(
                client,
                rid,
                self.key.clone(),
                self.value.clone().unwrap_or_default(),
            ),
        }
    }
}

/// Pull-based request source for the open-loop generator.
pub type SourceFn = Box<dyn FnMut(&mut SmallRng) -> OpSpec + Send>;

/// Open-loop generator configuration.
pub struct OpenLoopConfig {
    /// Where to send requests (the switch).
    pub switch: NodeId,
    /// Offered load in requests per second.
    pub rate_rps: f64,
    /// Replies needed to count a write complete (1 for most protocols;
    /// a majority for NOPaxos, whose replicas acknowledge the client
    /// directly).
    pub write_replies: usize,
    /// Forget a request after this long (counts as [`Counter::Timeouts`]).
    pub timeout: Duration,
}

impl OpenLoopConfig {
    /// Default rates and timeout, targeting `switch`. There is deliberately
    /// no `Default` impl: the switch address is deployment state, and a
    /// hardcoded default once masked specs whose address never reached the
    /// generator.
    pub fn new(switch: NodeId) -> Self {
        OpenLoopConfig {
            switch,
            rate_rps: 10_000.0,
            write_replies: 1,
            timeout: Duration::from_millis(20),
        }
    }

    /// The configuration a generator attached to `spec` needs: the spec's
    /// switch address and per-protocol write-reply count.
    pub fn for_deployment(spec: &crate::deployment::DeploymentSpec) -> Self {
        OpenLoopConfig {
            write_replies: spec.write_replies(),
            ..OpenLoopConfig::new(spec.switch_addr())
        }
    }
}

struct PendingReq {
    sent: Instant,
    kind: OpKind,
    obj: ObjectId,
    tally: ReplyTally,
}

/// Fire-and-record load generator. Requests are emitted at a fixed rate
/// regardless of completions (open loop), so saturation shows up as rising
/// latency and timeouts — exactly how the paper's throughput/latency curves
/// are measured (§9.2).
pub struct OpenLoopClient {
    id: ClientId,
    cfg: OpenLoopConfig,
    source: SourceFn,
    next_request: u64,
    /// By request id: the timeout sweep walks them in id order.
    pending: BTreeMap<u64, PendingReq>,
    interval_ns: f64,
    ideal_next: f64,
    arrival_token: Option<TimerToken>,
    gc_token: Option<TimerToken>,
    recorder: Recorder,
}

impl OpenLoopClient {
    /// Build a generator with the given source of operations.
    pub fn new(id: ClientId, cfg: OpenLoopConfig, source: SourceFn) -> Self {
        let interval_ns = 1e9 / cfg.rate_rps.max(1e-9);
        OpenLoopClient {
            id,
            cfg,
            source,
            next_request: 0,
            pending: BTreeMap::new(),
            interval_ns,
            ideal_next: 0.0,
            arrival_token: None,
            gc_token: None,
            recorder: Recorder::detached(),
        }
    }

    /// Attach an observability recorder (counters, latency histograms,
    /// request traces).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Requests currently awaiting replies.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    fn send_one(&mut self, ctx: &mut Context<'_, Msg>) {
        let spec = (self.source)(ctx.rng());
        let rid = self.next_request;
        self.next_request += 1;
        let obj = ObjectId::from_key(&spec.key);
        let req = spec.request(self.id, RequestId(rid));
        self.recorder.incr(match spec.kind {
            OpKind::Read => Counter::ReadsSent,
            OpKind::Write => Counter::WritesSent,
        });
        self.recorder.trace_at(
            ctx.now(),
            NodeId::Client(self.id),
            TraceId::new(self.id, RequestId(rid)),
            obj,
            TraceStage::ClientSend,
        );
        self.pending.insert(
            rid,
            PendingReq {
                sent: ctx.now(),
                kind: spec.kind,
                obj,
                tally: ReplyTally::new(spec.kind, self.cfg.write_replies),
            },
        );
        let dst = self.cfg.switch;
        ctx.send(
            dst,
            Msg::new(NodeId::Client(self.id), dst, PacketBody::Request(req)),
        );
    }

    /// Emit every arrival whose ideal time has passed, then re-arm.
    fn emit_due(&mut self, ctx: &mut Context<'_, Msg>) {
        let now = ctx.now().nanos() as f64;
        while self.ideal_next <= now {
            self.send_one(ctx);
            self.ideal_next += self.interval_ns;
        }
        let delay = (self.ideal_next - now).max(1.0) as u64;
        self.arrival_token = Some(ctx.set_timer(Duration::from_nanos(delay)));
    }

    fn gc(&mut self, ctx: &mut Context<'_, Msg>) {
        let deadline = self.cfg.timeout;
        let now = ctx.now();
        let mut timeouts = 0;
        let me = NodeId::Client(self.id);
        let id = self.id;
        let recorder = &self.recorder;
        self.pending.retain(|rid, p| {
            if now.since(p.sent) > deadline {
                timeouts += 1;
                recorder.trace_at(
                    now,
                    me,
                    TraceId::new(id, RequestId(*rid)),
                    p.obj,
                    TraceStage::ClientTimeout,
                );
                false
            } else {
                true
            }
        });
        self.recorder.add(Counter::Timeouts, timeouts);
        self.gc_token = Some(ctx.set_timer(self.cfg.timeout));
    }
}

impl Actor<Msg> for OpenLoopClient {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.ideal_next = ctx.now().nanos() as f64 + self.interval_ns;
        self.arrival_token = Some(ctx.set_timer(Duration::from_nanos(self.interval_ns as u64)));
        self.gc_token = Some(ctx.set_timer(self.cfg.timeout));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        let PacketBody::Reply(reply) = msg.body else {
            return;
        };
        let rid = reply.request.0;
        // A reply to an abandoned (timed-out) request counts nowhere.
        let Some(p) = self.pending.get_mut(&rid) else {
            return;
        };
        let tally = p.tally.count(&reply);
        if tally == Tally::Rejected {
            self.recorder.incr(Counter::WritesRejected);
            self.pending.remove(&rid);
        } else if tally == Tally::Complete {
            let latency = ctx.now().since(p.sent);
            let (done, series) = match p.kind {
                OpKind::Read => (Counter::ReadsDone, Series::ReadLatency),
                OpKind::Write => (Counter::WritesDone, Series::WriteLatency),
            };
            self.recorder.incr(done);
            self.recorder.observe(series, latency);
            self.recorder.trace_at(
                ctx.now(),
                NodeId::Client(self.id),
                TraceId::new(self.id, reply.request),
                p.obj,
                TraceStage::ClientDone,
            );
            self.pending.remove(&rid);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, token: TimerToken) {
        if Some(token) == self.arrival_token {
            self.emit_due(ctx);
        } else if Some(token) == self.gc_token {
            self.gc(ctx);
        }
    }
}

/// Issues a fixed plan of operations one at a time, retrying on rejection
/// and timeout, and records a history for the linearizability checker: the
/// simulator's host of the client loop [`LiveClient`](crate::live::LiveClient)
/// hosts on threads, with one lane. It sends what a pass produced before it
/// moves its one timer (same-seed replays are compared event for event), and
/// moves it only when the earliest attempt deadline did.
pub struct ClosedLoopClient {
    lanes: Lanes,
    /// The one armed timer: when it fires, and its token.
    timer: Option<(Instant, TimerToken)>,
    out: Vec<(NodeId, Msg)>,
    /// Completed operations in invocation order.
    pub records: Vec<RecordedOp>,
}

impl ClosedLoopClient {
    /// Build a client that will execute `plan` then stop.
    pub fn new(id: ClientId, switch: NodeId, plan: Vec<OpSpec>) -> Self {
        let timeout = Duration::from_millis(5);
        // Ten attempts, not the threaded drivers' six: the goldens' fault
        // schedules exercise attempts 7 to 10.
        let lanes = Lanes::new(id, vec![plan], switch, timeout, 1, 10, Recorder::detached());
        ClosedLoopClient {
            lanes,
            timer: None,
            out: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Attach an observability recorder (counters, latency histograms,
    /// request traces).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.lanes.set_recorder(&recorder);
        self
    }

    /// Continue `previous`'s session under the same id: its recorder, and
    /// request ids past every one it issued — a replica's session table
    /// takes a reused id for a retry of the old operation and answers it
    /// from its cache, or not at all.
    pub(crate) fn continuing(mut self, previous: &ClosedLoopClient) -> Self {
        self.lanes.continue_session(&previous.lanes);
        self
    }

    /// Quorum size for write completion (NOPaxos).
    pub fn with_write_replies(mut self, n: usize) -> Self {
        self.lanes.set_write_replies(n);
        self
    }

    /// Per-attempt timeout.
    pub fn with_timeout(mut self, t: Duration) -> Self {
        self.lanes.timeout = t;
        self
    }

    /// True once the whole plan has run.
    pub fn is_done(&self) -> bool {
        self.lanes.is_done()
    }

    /// One pass of the lane at the world's `now`: send what it produced,
    /// then re-arm if the earliest deadline moved.
    fn pass(&mut self, ctx: &mut Context<'_, Msg>) {
        let now = ctx.now();
        let deadline = self.lanes.pass(now, now, &mut self.out);
        if let Some(finished) = self.lanes.records().next() {
            self.records.append(finished);
        }
        for (dst, msg) in self.out.drain(..) {
            ctx.send(dst, msg);
        }
        if self.timer.map(|(at, _)| at) != deadline {
            if let Some((_, armed)) = self.timer.take() {
                ctx.cancel_timer(armed);
            }
            self.timer = deadline.map(|at| (at, ctx.set_timer(at.since(now))));
        }
    }
}

impl Actor<Msg> for ClosedLoopClient {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        // A restarted node's timer died with it.
        self.timer = None;
        self.pass(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        if let PacketBody::Reply(reply) = msg.body {
            self.lanes.deliver(ctx.now(), reply);
            self.pass(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, token: TimerToken) {
        if self.timer.is_some_and(|(_, armed)| armed == token) {
            self.timer = None;
            self.pass(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_obs::Registry;
    use harmonia_sim::{LinkConfig, NetworkModel, Service, World, WorldConfig};
    use harmonia_types::{ClientReply, ObjectId, ReplicaId, SwitchId, WriteOutcome};

    const SWITCH: NodeId = NodeId::Switch(SwitchId(1));
    const CLIENT: NodeId = NodeId::Client(ClientId(7));

    /// A fake "rack" that answers every request after a service delay.
    struct FakeRack {
        reject_writes: bool,
        served: u64,
    }
    impl Actor<Msg> for FakeRack {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
            let PacketBody::Request(req) = msg.body else {
                return;
            };
            self.served += 1;
            let outcome = match req.op {
                OpKind::Read => None,
                OpKind::Write if self.reject_writes => Some(WriteOutcome::Rejected),
                OpKind::Write => Some(WriteOutcome::Committed),
            };
            let reply = ClientReply {
                client: req.client,
                from: ReplicaId(0),
                request: req.request,
                obj: ObjectId::from_key(&req.key),
                value: match req.op {
                    OpKind::Read => Some(Bytes::from_static(b"stored")),
                    OpKind::Write => None,
                },
                write_outcome: outcome,
                completion: None,
            };
            let dst = NodeId::Client(req.client);
            ctx.send(dst, Msg::new(ctx.node(), dst, PacketBody::Reply(reply)));
        }
        fn service(&self, _msg: &Msg) -> Service {
            Service::Queued(Duration::from_micros(1))
        }
    }

    fn world() -> World<Msg> {
        World::new(WorldConfig {
            seed: 5,
            network: NetworkModel::uniform(LinkConfig::ideal(Duration::from_micros(5))),
        })
    }

    /// Client 7's open-loop generator, recording into `registry`.
    fn open_loop(cfg: OpenLoopConfig, source: SourceFn, r: &Registry) -> Box<OpenLoopClient> {
        Box::new(OpenLoopClient::new(ClientId(7), cfg, source).with_recorder(r.handle()))
    }

    #[test]
    fn open_loop_emits_at_configured_rate() {
        let mut w = world();
        w.add_node(
            SWITCH,
            Box::new(FakeRack {
                reject_writes: false,
                served: 0,
            }),
        );
        let cfg = OpenLoopConfig {
            rate_rps: 100_000.0,
            ..OpenLoopConfig::new(SWITCH)
        };
        let source: SourceFn = Box::new(|_| OpSpec::read(Bytes::from_static(b"k")));
        let registry = Registry::new();
        w.add_node(CLIENT, open_loop(cfg, source, &registry));
        // 10 ms at 100 kRPS = 1000 requests.
        w.run_until(Instant::ZERO + Duration::from_millis(10));
        let recorded = registry.snapshot();
        let sent = recorded.counter(Counter::ReadsSent);
        assert!((990..=1010).contains(&sent), "sent={sent}");
        let done = recorded.counter(Counter::ReadsDone);
        assert!(done > 900, "done={done}");
        let lat = recorded.histogram(Series::ReadLatency);
        // 2 × 5 µs links + 1 µs service ≈ 11 µs.
        assert!(lat.mean() >= Duration::from_micros(11));
        assert!(lat.mean() < Duration::from_micros(20));
    }

    #[test]
    fn open_loop_counts_rejections_and_timeouts() {
        let mut w = world();
        w.add_node(
            SWITCH,
            Box::new(FakeRack {
                reject_writes: true,
                served: 0,
            }),
        );
        let cfg = OpenLoopConfig {
            rate_rps: 10_000.0,
            timeout: Duration::from_millis(2),
            ..OpenLoopConfig::new(SWITCH)
        };
        let source: SourceFn =
            Box::new(|_| OpSpec::write(Bytes::from_static(b"k"), Bytes::from_static(b"v")));
        let registry = Registry::new();
        w.add_node(CLIENT, open_loop(cfg, source, &registry));
        w.run_until(Instant::ZERO + Duration::from_millis(5));
        let recorded = registry.snapshot();
        assert!(recorded.counter(Counter::WritesRejected) > 0);
        assert_eq!(recorded.counter(Counter::WritesDone), 0);
    }

    #[test]
    fn open_loop_timeout_gc_purges_lost_requests() {
        let mut w = world();
        // No rack at all: every request is discarded at its destination.
        let cfg = OpenLoopConfig {
            rate_rps: 10_000.0,
            timeout: Duration::from_millis(1),
            ..OpenLoopConfig::new(SWITCH)
        };
        let source: SourceFn = Box::new(|_| OpSpec::read(Bytes::from_static(b"k")));
        let registry = Registry::new();
        w.add_node(CLIENT, open_loop(cfg, source, &registry));
        w.run_until(Instant::ZERO + Duration::from_millis(10));
        assert!(registry.snapshot().counter(Counter::Timeouts) > 50);
        let client: &OpenLoopClient = w.actor(CLIENT).unwrap();
        assert!(client.in_flight() < 30, "gc keeps the table bounded");
    }

    #[test]
    fn closed_loop_runs_plan_in_order_and_records() {
        let mut w = world();
        w.add_node(
            SWITCH,
            Box::new(FakeRack {
                reject_writes: false,
                served: 0,
            }),
        );
        let plan = vec![
            OpSpec::write(Bytes::from_static(b"a"), Bytes::from_static(b"1")),
            OpSpec::read(Bytes::from_static(b"a")),
            OpSpec::write(Bytes::from_static(b"b"), Bytes::from_static(b"2")),
        ];
        w.add_node(
            CLIENT,
            Box::new(ClosedLoopClient::new(ClientId(7), SWITCH, plan)),
        );
        w.run_until_idle(10_000);
        let c: &ClosedLoopClient = w.actor(CLIENT).unwrap();
        assert!(c.is_done());
        assert_eq!(c.records.len(), 3);
        assert!(c.records.iter().all(|r| r.ok));
        assert_eq!(c.records[1].result, Some(Bytes::from_static(b"stored")));
        assert!(c.records[0].completed <= c.records[1].invoked);
    }

    #[test]
    fn closed_loop_retries_until_giving_up() {
        let mut w = world();
        w.add_node(
            SWITCH,
            Box::new(FakeRack {
                reject_writes: true,
                served: 0,
            }),
        );
        let plan = vec![OpSpec::write(
            Bytes::from_static(b"a"),
            Bytes::from_static(b"1"),
        )];
        w.add_node(
            CLIENT,
            Box::new(
                ClosedLoopClient::new(ClientId(7), SWITCH, plan)
                    .with_timeout(Duration::from_millis(1)),
            ),
        );
        w.run_until_idle(10_000);
        let c: &ClosedLoopClient = w.actor(CLIENT).unwrap();
        assert!(c.is_done());
        assert_eq!(c.records.len(), 1);
        assert!(!c.records[0].ok, "all attempts rejected");
        let rack: &FakeRack = w.actor(SWITCH).unwrap();
        assert_eq!(rack.served, 10, "max_attempts bounded the retries");
    }

    #[test]
    fn closed_loop_recovers_from_lost_replies() {
        // Rack that drops the first request silently, then behaves.
        struct Flaky {
            dropped: bool,
        }
        impl Actor<Msg> for Flaky {
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
                let PacketBody::Request(req) = msg.body else {
                    return;
                };
                if !self.dropped {
                    self.dropped = true;
                    return;
                }
                let reply = ClientReply {
                    client: req.client,
                    from: ReplicaId(0),
                    request: req.request,
                    obj: ObjectId::from_key(&req.key),
                    value: None,
                    write_outcome: Some(WriteOutcome::Committed),
                    completion: None,
                };
                let dst = NodeId::Client(req.client);
                ctx.send(dst, Msg::new(ctx.node(), dst, PacketBody::Reply(reply)));
            }
        }
        let mut w = world();
        w.add_node(SWITCH, Box::new(Flaky { dropped: false }));
        let plan = vec![OpSpec::write(
            Bytes::from_static(b"a"),
            Bytes::from_static(b"1"),
        )];
        w.add_node(
            CLIENT,
            Box::new(
                ClosedLoopClient::new(ClientId(7), SWITCH, plan)
                    .with_timeout(Duration::from_millis(1)),
            ),
        );
        w.run_until_idle(10_000);
        let c: &ClosedLoopClient = w.actor(CLIENT).unwrap();
        assert!(c.is_done());
        assert!(c.records[0].ok, "second attempt succeeded");
    }
}
