//! Where a request waited: stage-to-stage deltas per `TraceId`, read from a
//! threaded driver's trace rings after its timed trials.

use std::collections::HashMap;

use harmonia::obs::{TraceEvent, TraceStage};
use harmonia::types::TraceId;

use crate::stats::median;

/// Median wait between consecutive lifecycle stages, in microseconds, over
/// the requests whose every stage is still in the rings.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageWaits {
    /// `client_send` → the switch's verdict.
    pub to_switch_us: f64,
    /// Switch verdict → first `replica_execute`.
    pub to_replica_us: f64,
    /// Last `replica_execute` → `client_done`.
    pub to_done_us: f64,
    /// Requests the medians are taken over.
    pub samples: usize,
}

#[derive(Default)]
struct Seen {
    send: Option<u64>,
    verdict: Option<u64>,
    first_exec: Option<u64>,
    last_exec: Option<u64>,
    done: Option<u64>,
    retried: bool,
}

pub fn stage_waits(events: &[TraceEvent]) -> StageWaits {
    let mut by_id: HashMap<TraceId, Seen> = HashMap::new();
    for e in events {
        let seen = by_id.entry(e.id).or_default();
        let at = e.at.nanos();
        match e.stage {
            TraceStage::ClientSend => seen.send = Some(at),
            TraceStage::SwitchFastPathRead
            | TraceStage::SwitchNormalRead
            | TraceStage::SwitchWriteForward => {
                seen.verdict = Some(seen.verdict.map_or(at, |v| v.min(at)));
            }
            TraceStage::ReplicaExecute => {
                seen.first_exec = Some(seen.first_exec.map_or(at, |v| v.min(at)));
                seen.last_exec = Some(seen.last_exec.map_or(at, |v| v.max(at)));
            }
            TraceStage::ClientDone => seen.done = Some(at),
            // A retried, dropped, shed or abandoned request has no single
            // path to take deltas along.
            TraceStage::ClientRetry
            | TraceStage::SwitchWriteDrop
            | TraceStage::ReplicaShed
            | TraceStage::ClientTimeout => seen.retried = true,
        }
    }
    let (mut to_switch, mut to_replica, mut to_done) = (Vec::new(), Vec::new(), Vec::new());
    for seen in by_id.values().filter(|s| !s.retried) {
        let (Some(send), Some(verdict), Some(first), Some(last), Some(done)) = (
            seen.send,
            seen.verdict,
            seen.first_exec,
            seen.last_exec,
            seen.done,
        ) else {
            continue;
        };
        // The rings are per thread and bounded: an id reused by a later
        // client, or a ring that wrapped mid-request, shows as stages out
        // of order. Skip those.
        if !(send <= verdict && verdict <= first && last <= done) {
            continue;
        }
        to_switch.push((verdict - send) as f64 / 1e3);
        to_replica.push((first - verdict) as f64 / 1e3);
        to_done.push((done - last) as f64 / 1e3);
    }
    StageWaits {
        to_switch_us: median(&to_switch),
        to_replica_us: median(&to_replica),
        to_done_us: median(&to_done),
        samples: to_switch.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia::types::{
        ClientId, Duration, Instant, NodeId, ObjectId, ReplicaId, RequestId, SwitchId,
    };

    fn ev(at_us: u64, req: u64, node: NodeId, stage: TraceStage) -> TraceEvent {
        TraceEvent {
            at: Instant::ZERO + Duration::from_micros(at_us),
            node,
            id: TraceId::new(ClientId(1), RequestId(req)),
            obj: ObjectId(9),
            stage,
        }
    }

    const C: NodeId = NodeId::Client(ClientId(1));
    const S: NodeId = NodeId::Switch(SwitchId(1));

    fn r(i: u32) -> NodeId {
        NodeId::Replica(ReplicaId(i))
    }

    #[test]
    fn deltas_follow_the_request_path() {
        let mut events = Vec::new();
        // Three complete requests with to_switch 2/4/6, to_replica 3,
        // to_done 10 us; a write's chain executes on three replicas.
        for (i, gap) in [2u64, 4, 6].into_iter().enumerate() {
            let (t, req) = (100 * i as u64, i as u64);
            events.push(ev(t, req, C, TraceStage::ClientSend));
            events.push(ev(t + gap, req, S, TraceStage::SwitchWriteForward));
            events.push(ev(t + gap + 3, req, r(0), TraceStage::ReplicaExecute));
            events.push(ev(t + gap + 5, req, r(1), TraceStage::ReplicaExecute));
            events.push(ev(t + gap + 15, req, C, TraceStage::ClientDone));
        }
        // Incomplete (ring wrapped) and retried requests are left out.
        events.push(ev(900, 7, C, TraceStage::ClientSend));
        events.push(ev(905, 7, C, TraceStage::ClientDone));
        events.push(ev(950, 8, C, TraceStage::ClientSend));
        events.push(ev(951, 8, S, TraceStage::SwitchFastPathRead));
        events.push(ev(952, 8, r(2), TraceStage::ReplicaExecute));
        events.push(ev(953, 8, C, TraceStage::ClientRetry));
        events.push(ev(954, 8, C, TraceStage::ClientDone));
        let w = stage_waits(&events);
        assert_eq!(w.samples, 3);
        assert_eq!(w.to_switch_us, 4.0);
        assert_eq!(w.to_replica_us, 3.0);
        assert_eq!(w.to_done_us, 10.0);
    }

    #[test]
    fn empty_rings_give_zero_samples() {
        assert_eq!(stage_waits(&[]).samples, 0);
    }
}
