//! The sans-IO client: one operation's request / reply / retry state
//! machine, and the one closed-loop client loop over it.
//!
//! [`ClientCore`] owns what must not drift between drivers: request-id
//! allocation and reuse across retries, the distinct-replier write quorum,
//! the rejected / switch-dropped write rule, the attempt budget, and every
//! client counter and `ClientSend` / `ClientRetry` / `ClientDone` /
//! `ClientTimeout` trace. [`Lanes`] is N cores working through their plans:
//! retry, record, begin the next operation, with attempt deadlines on the
//! deployment clock. Its hosts are the threaded drivers' [`LiveClient`] and
//! the simulator's [`ClosedLoopClient`]; neither piece here reads a clock
//! or owns a socket.
//!
//! [`ClosedLoopClient`]: crate::client::ClosedLoopClient
//! [`LiveClient`]: crate::live::LiveClient

use std::collections::VecDeque;

use bytes::Bytes;
use harmonia_obs::{Counter, Recorder, Series, TraceStage};
use harmonia_types::{
    ClientId, ClientReply, ClientRequest, Duration, Instant, NodeId, ObjectId, OpKind, PacketBody,
    ReplicaId, RequestId, TraceId, WriteOutcome,
};

use crate::client::{OpSpec, RecordedOp};
use crate::msg::Msg;

/// What one reply did to the request it answers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Tally {
    /// The write was rejected by the protocol or dropped by the switch.
    Rejected,
    /// Counted, but the quorum is not complete yet.
    Pending,
    /// Enough distinct replicas have answered.
    Complete,
}

/// The replies collected so far for one request id.
///
/// Retries reuse the request id, so a replica's original reply and its
/// deduplicated re-send are indistinguishable by id: a write quorum counts
/// *distinct repliers*, never raw replies.
pub(crate) struct ReplyTally {
    needed: usize,
    repliers: Vec<ReplicaId>,
}

impl ReplyTally {
    /// A tally for one `kind` operation: reads complete on the first reply,
    /// writes on `write_replies` distinct repliers (a majority for NOPaxos,
    /// whose replicas acknowledge the client directly; 1 otherwise).
    pub(crate) fn new(kind: OpKind, write_replies: usize) -> Self {
        ReplyTally {
            needed: match kind {
                OpKind::Read => 1,
                OpKind::Write => write_replies,
            },
            repliers: Vec::new(),
        }
    }

    /// Count `reply` toward the quorum.
    pub(crate) fn count(&mut self, reply: &ClientReply) -> Tally {
        if matches!(
            reply.write_outcome,
            Some(WriteOutcome::Rejected | WriteOutcome::DroppedBySwitch)
        ) {
            return Tally::Rejected;
        }
        if !self.repliers.contains(&reply.from) {
            self.repliers.push(reply.from);
        }
        if self.repliers.len() >= self.needed {
            Tally::Complete
        } else {
            Tally::Pending
        }
    }
}

/// What the host must do after feeding the core a reply or a timeout.
#[derive(Debug)]
enum Step {
    /// Send this request (the same id as every earlier attempt) and restart
    /// the attempt timer.
    Retry(ClientRequest),
    /// The operation is over: its checker-ready record.
    Done(RecordedOp),
}

/// `spec`'s record for the checker; `ok == false` if it was given up.
fn record(
    spec: OpSpec,
    invoked: Instant,
    completed: Instant,
    result: Option<Bytes>,
    ok: bool,
) -> RecordedOp {
    let OpSpec { kind, key, value } = spec;
    RecordedOp {
        kind,
        key,
        value,
        invoked,
        completed,
        result,
        ok,
    }
}

struct Current {
    spec: OpSpec,
    rid: RequestId,
    obj: ObjectId,
    attempt: u32,
    invoked: Instant,
    /// Carried for the life of the operation, not of one attempt: an ack
    /// that answers attempt 1 is still an ack after a retry.
    tally: ReplyTally,
}

/// One client's operation state machine: at most one operation in flight.
struct ClientCore {
    id: ClientId,
    write_replies: usize,
    max_attempts: u32,
    next_request: u64,
    /// Where the client counters, latency series and traces go.
    recorder: Recorder,
    current: Option<Current>,
}

impl ClientCore {
    /// A core for client `id` that completes writes on `write_replies`
    /// distinct repliers, gives an operation up after `max_attempts` sends,
    /// and records into `recorder`.
    fn new(id: ClientId, write_replies: usize, max_attempts: u32, recorder: Recorder) -> Self {
        ClientCore {
            id,
            write_replies,
            max_attempts,
            next_request: 0,
            recorder,
            current: None,
        }
    }

    /// Start `spec` and return its first request. One request id per
    /// logical operation: every retry reuses it, so the replicas'
    /// exactly-once session layer deduplicates re-executions and re-sends
    /// the cached reply — a retried write whose original landed but whose
    /// reply was lost (the §5.3 switch outage) is never applied twice.
    fn begin(&mut self, now: Instant, spec: OpSpec) -> ClientRequest {
        let rid = RequestId(self.next_request);
        self.next_request += 1;
        let obj = ObjectId::from_key(&spec.key);
        self.recorder.incr(match spec.kind {
            OpKind::Read => Counter::ReadsSent,
            OpKind::Write => Counter::WritesSent,
        });
        self.trace(now, rid, obj, TraceStage::ClientSend);
        let req = spec.request(self.id, rid);
        self.current = Some(Current {
            tally: ReplyTally::new(spec.kind, self.write_replies),
            spec,
            rid,
            obj,
            attempt: 1,
            invoked: now,
        });
        req
    }

    /// Feed one reply. `None` means keep waiting: the reply answered an
    /// earlier operation, repeated a replier, or left the quorum short.
    fn on_reply(&mut self, now: Instant, reply: ClientReply) -> Option<Step> {
        let cur = self.current.as_mut()?;
        if reply.request != cur.rid {
            return None;
        }
        match cur.tally.count(&reply) {
            Tally::Rejected => {
                self.recorder.incr(Counter::WritesRejected);
                self.on_timeout(now)
            }
            Tally::Pending => None,
            Tally::Complete => Some(Step::Done(self.finish(now, reply.value, true)?)),
        }
    }

    /// The current attempt ran out of time (or was refused): retry under
    /// the same request id, or give up once the budget is spent. `None` if
    /// nothing is in flight.
    fn on_timeout(&mut self, now: Instant) -> Option<Step> {
        let cur = self.current.as_mut()?;
        if cur.attempt >= self.max_attempts {
            return Some(Step::Done(self.finish(now, None, false)?));
        }
        cur.attempt += 1;
        let (rid, obj) = (cur.rid, cur.obj);
        let req = cur.spec.request(self.id, rid);
        self.recorder.incr(Counter::Retries);
        self.trace(now, rid, obj, TraceStage::ClientRetry);
        Some(Step::Retry(req))
    }

    /// End the operation in flight at `now`: counted, traced and recorded
    /// as done, or — `ok == false` — as the timeout it is.
    fn finish(&mut self, now: Instant, result: Option<Bytes>, ok: bool) -> Option<RecordedOp> {
        let cur = self.current.take()?;
        let stage = if ok {
            let (done, series) = match cur.spec.kind {
                OpKind::Read => (Counter::ReadsDone, Series::ReadLatency),
                OpKind::Write => (Counter::WritesDone, Series::WriteLatency),
            };
            self.recorder.incr(done);
            self.recorder.observe(series, now.since(cur.invoked));
            TraceStage::ClientDone
        } else {
            self.recorder.incr(Counter::Timeouts);
            TraceStage::ClientTimeout
        };
        self.trace(now, cur.rid, cur.obj, stage);
        Some(record(cur.spec, cur.invoked, now, result, ok))
    }

    fn trace(&self, now: Instant, rid: RequestId, obj: ObjectId, stage: TraceStage) {
        let trace = TraceId::new(self.id, rid);
        (self.recorder).trace_at(now, NodeId::Client(self.id), trace, obj, stage);
    }
}

/// One lane of [`Lanes`]: a client in its own right — its own id, request
/// ids and operation in flight — with the plan it works through.
struct Lane {
    core: ClientCore,
    /// Operations not begun yet, in order.
    plan: VecDeque<OpSpec>,
    /// Finished operations, in plan order.
    records: Vec<RecordedOp>,
    /// When the attempt in flight stops waiting for its reply, on the
    /// deployment clock; `None` while nothing is in flight.
    deadline: Option<Instant>,
    /// What the core made of the replies delivered since the last pass.
    step: Option<Step>,
}

/// The closed-loop client loop: lanes, each a [`ClientCore`] with a
/// [`ClientId`] of its own (a replica's client table admits one request per
/// client id, so operations in flight together must come from distinct
/// clients), each keeping the next operation of its plan in flight.
///
/// One entry point per event: a reply arrived ([`deliver`](Self::deliver)),
/// a [`pass`](Self::pass) is due, the link can never deliver again
/// ([`abandon`](Self::abandon)).
pub(crate) struct Lanes {
    lanes: Vec<Lane>,
    /// Lane `i` is client `first + i`: a reply finds its lane by
    /// subtraction.
    pub(crate) first: u32,
    /// Where every request goes: the switch's client-facing address.
    pub(crate) switch: NodeId,
    /// How long an attempt waits for its reply.
    pub(crate) timeout: Duration,
}

impl Lanes {
    /// Lanes for clients `first..`, one per plan, each completing writes on
    /// `write_replies` distinct repliers, giving an operation up after
    /// `max_attempts` sends and recording into `recorder`.
    pub(crate) fn new(
        first: ClientId,
        plans: Vec<Vec<OpSpec>>,
        switch: NodeId,
        timeout: Duration,
        write_replies: usize,
        max_attempts: u32,
        recorder: Recorder,
    ) -> Lanes {
        let lanes = (first.0..).zip(plans).map(|(id, plan)| Lane {
            core: ClientCore::new(ClientId(id), write_replies, max_attempts, recorder.clone()),
            records: Vec::new(),
            plan: plan.into(),
            deadline: None,
            step: None,
        });
        Lanes {
            lanes: lanes.collect(),
            first: first.0,
            switch,
            timeout,
        }
    }

    /// Record into `recorder` from now on.
    pub(crate) fn set_recorder(&mut self, recorder: &Recorder) {
        for lane in &mut self.lanes {
            lane.core.recorder = recorder.clone();
        }
    }

    /// Complete writes on `n` distinct repliers.
    pub(crate) fn set_write_replies(&mut self, n: usize) {
        for lane in &mut self.lanes {
            lane.core.write_replies = n;
        }
    }

    /// Continue `previous`'s sessions, lane by lane: its recorder, and
    /// request ids past every one it issued.
    pub(crate) fn continue_session(&mut self, previous: &Lanes) {
        for (lane, old) in self.lanes.iter_mut().zip(&previous.lanes) {
            lane.core.recorder = old.core.recorder.clone();
            lane.core.next_request = old.core.next_request;
        }
    }

    /// Queue `spec` at the end of the first lane's plan.
    pub(crate) fn push(&mut self, spec: OpSpec) {
        if let Some(lane) = self.lanes.first_mut() {
            lane.plan.push_back(spec);
        }
    }

    /// Every lane's finished operations, in lane order.
    pub(crate) fn records(&mut self) -> impl Iterator<Item = &mut Vec<RecordedOp>> {
        self.lanes.iter_mut().map(|lane| &mut lane.records)
    }

    /// True once every lane's plan has run.
    pub(crate) fn is_done(&self) -> bool {
        (self.lanes.iter()).all(|lane| lane.deadline.is_none() && lane.plan.is_empty())
    }

    /// Hand `reply` to its lane's core. A reply for a client outside the
    /// block finds no lane; one for a request already over, a core that
    /// ignores it. The core sees every reply delivered before a pass, and
    /// its last word stands: a quorum completed by a later reply outranks a
    /// retry that an earlier, rejected one asked for.
    pub(crate) fn deliver(&mut self, now: Instant, reply: ClientReply) {
        let lane =
            (reply.client.0.checked_sub(self.first)).and_then(|i| self.lanes.get_mut(i as usize));
        if let Some(lane) = lane {
            if let Some(step) = lane.core.on_reply(now, reply) {
                lane.step = Some(step);
            }
        }
    }

    /// Act at `now` on everything delivered since the last pass: expire the
    /// lanes whose attempt ran out, record every finished operation, begin
    /// the next operation of every lane with nothing in flight, and push
    /// each request that makes to `out`. Returns the earliest attempt
    /// deadline — when to pass again if nothing arrives — or `None` once
    /// nothing is in flight.
    ///
    /// `invoked` stamps the operations begun: a host with a running clock
    /// reads it after `now`, once the pass's completions are decided and
    /// before its requests leave, so it is never later than the send and an
    /// operation never shares an instant with the one it follows on its
    /// lane, which is where a checker cuts a long history.
    pub(crate) fn pass(
        &mut self,
        now: Instant,
        invoked: Instant,
        out: &mut Vec<(NodeId, Msg)>,
    ) -> Option<Instant> {
        let (switch, mut earliest) = (self.switch, None);
        for lane in &mut self.lanes {
            if lane.step.is_none() && lane.deadline.is_some_and(|at| at <= now) {
                lane.step = lane.core.on_timeout(now);
            }
            let mut request = None;
            match lane.step.take() {
                Some(Step::Retry(again)) => request = Some(again),
                Some(Step::Done(op)) => {
                    lane.records.push(op);
                    lane.deadline = None;
                }
                None => {}
            }
            // Keys and values move by refcount from the plan into the
            // request and the record: nothing is allocated per operation.
            if lane.deadline.is_none() {
                request = (lane.plan.pop_front()).map(|spec| lane.core.begin(invoked, spec));
            }
            if let Some(req) = request {
                lane.deadline = Some(now + self.timeout);
                let me = NodeId::Client(lane.core.id);
                out.push((switch, Msg::new(me, switch, PacketBody::Request(req))));
            }
            if let Some(at) = lane.deadline {
                earliest = Some(earliest.map_or(at, |e: Instant| e.min(at)));
            }
        }
        earliest
    }

    /// The host can never hear another reply: every operation in flight or
    /// not begun is recorded `ok == false` at `now`, once, in plan order.
    pub(crate) fn abandon(&mut self, now: Instant) {
        for lane in &mut self.lanes {
            lane.deadline = None;
            // What was in flight is counted and traced as a timeout; what
            // never began, only recorded.
            let in_flight = lane.core.finish(now, None, false);
            let not_begun = (lane.plan.drain(..)).map(|spec| record(spec, now, now, None, false));
            lane.records.extend(in_flight.into_iter().chain(not_begun));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_obs::Registry;
    use harmonia_types::Duration;

    fn reply(rid: u64, from: u32, outcome: WriteOutcome) -> ClientReply {
        ClientReply {
            client: ClientId(7),
            from: ReplicaId(from),
            request: RequestId(rid),
            obj: ObjectId::from_key(b"k"),
            value: None,
            write_outcome: Some(outcome),
            completion: None,
        }
    }

    fn at(us: u64) -> Instant {
        Instant::ZERO + Duration::from_micros(us)
    }

    /// The scripted sequence every driver's client must obey, checked once:
    /// the quorum survives a retry, a deduplicated re-send is not a second
    /// ack, a rejection retries under the same id, and an exhausted budget
    /// is exactly one timeout.
    #[test]
    fn write_quorum_survives_retries_and_budget_ends_in_one_timeout() {
        let registry = Registry::new();
        let mut core = ClientCore::new(ClientId(7), 2, 3, registry.handle());
        let count = |c| registry.snapshot().counter(c);
        let stages = |s: TraceStage| {
            registry
                .trace_events()
                .iter()
                .filter(|e| e.stage == s)
                .count()
        };

        // Quorum 2: R0 replies, the attempt times out, R0's deduplicated
        // re-send changes nothing, R1 completes — exactly once.
        let first = core.begin(at(0), OpSpec::write("k", "v"));
        assert_eq!(first.request, RequestId(0));
        assert!(core
            .on_reply(at(1), reply(0, 0, WriteOutcome::Committed))
            .is_none());
        let Some(Step::Retry(again)) = core.on_timeout(at(200)) else {
            panic!("one attempt used of three: must retry")
        };
        assert_eq!(again.request, RequestId(0), "retries reuse the id");
        assert!(
            core.on_reply(at(201), reply(0, 0, WriteOutcome::Committed))
                .is_none(),
            "R0 twice is still one replier"
        );
        let Some(Step::Done(done)) = core.on_reply(at(202), reply(0, 1, WriteOutcome::Committed))
        else {
            panic!("R0 from attempt 1 + R1 from attempt 2 is a quorum")
        };
        assert!(done.ok);
        assert_eq!(done.invoked, at(0));
        assert!(
            core.on_reply(at(203), reply(0, 2, WriteOutcome::Committed))
                .is_none(),
            "a finished operation completes only once"
        );
        assert!(core.on_timeout(at(400)).is_none(), "nothing in flight");
        assert_eq!(count(Counter::WritesDone), 1);
        assert_eq!(count(Counter::Retries), 1);

        // A rejection retries at once under the same (next) id; replies to
        // the previous operation are ignored; the third refusal exhausts
        // the budget: one `Timeouts`, one `ClientTimeout` trace.
        let second = core.begin(at(500), OpSpec::write("k", "w"));
        assert_eq!(second.request, RequestId(1));
        assert!(core
            .on_reply(at(501), reply(0, 1, WriteOutcome::Committed))
            .is_none());
        for attempt in 0..2 {
            let Some(Step::Retry(r)) =
                core.on_reply(at(502 + attempt), reply(1, 0, WriteOutcome::Rejected))
            else {
                panic!("a rejected write is retried")
            };
            assert_eq!(r.request, RequestId(1));
        }
        let Some(Step::Done(gave_up)) =
            core.on_reply(at(510), reply(1, 0, WriteOutcome::DroppedBySwitch))
        else {
            panic!("three attempts spent: give up")
        };
        assert!(!gave_up.ok);
        assert_eq!(count(Counter::WritesSent), 2);
        assert_eq!(count(Counter::WritesRejected), 3);
        assert_eq!(count(Counter::Retries), 3);
        assert_eq!(count(Counter::WritesDone), 1);
        assert_eq!(count(Counter::Timeouts), 1);
        assert_eq!(stages(TraceStage::ClientTimeout), 1);
        assert_eq!(stages(TraceStage::ClientDone), 1);
        assert_eq!(stages(TraceStage::ClientSend), 2);
        assert_eq!(stages(TraceStage::ClientRetry), 3);
    }
}
