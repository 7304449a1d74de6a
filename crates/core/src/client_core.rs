//! The sans-IO client: one operation's request / reply / retry state machine.
//!
//! Every client shell — the sim's [`ClosedLoopClient`] actor, the sim's
//! synchronous `KvClient`, and the threaded drivers' [`LiveClient`] (one
//! core per lane) — moves packets and time and asks [`ClientCore`] what
//! they mean. The core owns
//! what must not drift between drivers: request-id allocation and reuse
//! across retries, the distinct-replier write quorum, the rejected /
//! switch-dropped write rule, the attempt budget, and every client counter
//! and `ClientSend` / `ClientRetry` / `ClientDone` / `ClientTimeout` trace.
//! It reads no clock and owns no socket: the shell passes `now` in.
//!
//! [`ClosedLoopClient`]: crate::client::ClosedLoopClient
//! [`LiveClient`]: crate::live::LiveClient

use bytes::Bytes;
use harmonia_obs::{Counter, Recorder, Series, TraceStage};
use harmonia_types::{
    ClientId, ClientReply, ClientRequest, Instant, NodeId, ObjectId, OpKind, ReplicaId, RequestId,
    TraceId, WriteOutcome,
};

use crate::client::{OpSpec, RecordedOp};

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

/// What the shell must do after feeding the core a reply or a timeout.
#[derive(Debug)]
pub(crate) enum Step {
    /// Send this request (the same id as every earlier attempt) and restart
    /// the attempt timer.
    Retry(ClientRequest),
    /// The operation is over.
    Done(Finished),
}

/// A finished operation, checker-ready once the shell stamps its completion
/// time.
#[derive(Debug)]
pub(crate) struct Finished {
    /// The operation as issued.
    pub(crate) spec: OpSpec,
    /// When the first attempt was sent.
    pub(crate) invoked: Instant,
    /// The completing reply's value (reads; `None` for key-absent).
    pub(crate) result: Option<Bytes>,
    /// False if the attempt budget ran out.
    pub(crate) ok: bool,
}

impl Finished {
    /// The checker's record of this operation, completed at `completed`.
    pub(crate) fn record(self, completed: Instant) -> RecordedOp {
        RecordedOp {
            kind: self.spec.kind,
            key: self.spec.key,
            value: self.spec.value,
            invoked: self.invoked,
            completed,
            result: self.result,
            ok: self.ok,
        }
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
pub(crate) struct ClientCore {
    id: ClientId,
    pub(crate) write_replies: usize,
    max_attempts: u32,
    next_request: u64,
    /// Where the client counters, latency series and traces go.
    pub(crate) recorder: Recorder,
    current: Option<Current>,
}

impl ClientCore {
    /// A core for client `id` that completes writes on `write_replies`
    /// distinct repliers, gives an operation up after `max_attempts` sends,
    /// and records into `recorder`.
    pub(crate) fn new(
        id: ClientId,
        write_replies: usize,
        max_attempts: u32,
        recorder: Recorder,
    ) -> Self {
        ClientCore {
            id,
            write_replies,
            max_attempts,
            next_request: 0,
            recorder,
            current: None,
        }
    }

    /// Take over `previous`'s recorder and request-id sequence (a client
    /// re-attached under the same id).
    pub(crate) fn continue_session(&mut self, previous: &ClientCore) {
        self.recorder = previous.recorder.clone();
        self.next_request = previous.next_request;
    }

    /// This client's node address.
    pub(crate) fn node(&self) -> NodeId {
        NodeId::Client(self.id)
    }

    /// Start `spec` and return its first request. One request id per
    /// logical operation: every retry reuses it, so the replicas'
    /// exactly-once session layer deduplicates re-executions and re-sends
    /// the cached reply — a retried write whose original landed but whose
    /// reply was lost (the §5.3 switch outage) is never applied twice.
    pub(crate) fn begin(&mut self, now: Instant, spec: OpSpec) -> ClientRequest {
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
    pub(crate) fn on_reply(&mut self, now: Instant, reply: ClientReply) -> Option<Step> {
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
    pub(crate) fn on_timeout(&mut self, now: Instant) -> Option<Step> {
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

    /// Give the operation in flight up where it stands — the shell can
    /// never hear another reply. Counted and traced as the timeout it is.
    pub(crate) fn abandon(&mut self, now: Instant) -> Option<Finished> {
        self.finish(now, None, false)
    }

    fn finish(&mut self, now: Instant, result: Option<Bytes>, ok: bool) -> Option<Finished> {
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
        Some(Finished {
            spec: cur.spec,
            invoked: cur.invoked,
            result,
            ok,
        })
    }

    fn trace(&self, now: Instant, rid: RequestId, obj: ObjectId, stage: TraceStage) {
        self.recorder
            .trace_at(now, self.node(), TraceId::new(self.id, rid), obj, stage);
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
