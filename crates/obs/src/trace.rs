//! Request lifecycle tracing.
//!
//! Every hop a request takes — client send, spine verdict, replica execute,
//! reply — is recorded as a [`TraceEvent`] stamped with the request's
//! [`TraceId`], into the bounded per-thread ring buffers owned by each
//! [`crate::Recorder`]. After a run (or on a linearizability failure) the
//! rings are merged and sorted into a per-request timeline; [`dump_for_key`]
//! filters that timeline to the object a failed Wing–Gong check names, which
//! turns "key X is not linearizable" into the exact packet-level history
//! that produced it.

use harmonia_types::{Instant, NodeId, ObjectId, TraceId};

/// Where in its lifecycle a request was observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceStage {
    /// Client issued the operation.
    ClientSend,
    /// Client re-sent after a timeout.
    ClientRetry,
    /// Spine served the read from one replica (conflict detector: clean).
    SwitchFastPathRead,
    /// Spine routed the read through the normal protocol (dirty or gated).
    SwitchNormalRead,
    /// Spine stamped the write with a sequence number and forwarded it.
    SwitchWriteForward,
    /// Spine dropped the write for lack of a dirty-set slot.
    SwitchWriteDrop,
    /// A replica executed the operation against its store.
    ReplicaExecute,
    /// A recovering replica shed the request unanswered.
    ReplicaShed,
    /// Client accepted a reply.
    ClientDone,
    /// Client gave up on the operation.
    ClientTimeout,
}

impl TraceStage {
    /// Stable snake_case name, used by trace dumps.
    pub fn name(self) -> &'static str {
        match self {
            TraceStage::ClientSend => "client_send",
            TraceStage::ClientRetry => "client_retry",
            TraceStage::SwitchFastPathRead => "switch_fast_path_read",
            TraceStage::SwitchNormalRead => "switch_normal_read",
            TraceStage::SwitchWriteForward => "switch_write_forward",
            TraceStage::SwitchWriteDrop => "switch_write_drop",
            TraceStage::ReplicaExecute => "replica_execute",
            TraceStage::ReplicaShed => "replica_shed",
            TraceStage::ClientDone => "client_done",
            TraceStage::ClientTimeout => "client_timeout",
        }
    }
}

/// One observed hop of one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the hop happened, on the recording driver's clock (virtual time
    /// in the sim, monotonic-since-rig-start in live/UDP).
    pub at: Instant,
    /// The node that observed the hop.
    pub node: NodeId,
    /// The request being traced.
    pub id: TraceId,
    /// The object the request addresses.
    pub obj: ObjectId,
    /// Lifecycle stage.
    pub stage: TraceStage,
}

impl TraceEvent {
    /// Sort key for timeline assembly: time first, then request, then the
    /// lifecycle order of stages so simultaneous hops (common under virtual
    /// time) read causally.
    pub fn timeline_key(&self) -> (Instant, TraceId, TraceStage, NodeId) {
        (self.at, self.id, self.stage, self.node)
    }
}

/// Sort events into timeline order (stable across runs for identical event
/// sets).
pub(crate) fn sort_timeline(events: &mut [TraceEvent]) {
    events.sort_by_key(TraceEvent::timeline_key);
}

fn format_line(e: &TraceEvent, out: &mut String) {
    use std::fmt::Write as _;
    let us = e.at.nanos() / 1_000;
    let frac = e.at.nanos() % 1_000;
    let _ = writeln!(
        out,
        "  [{us:>9}.{frac:03}us] {:<8} {} {:<21} @ {:?}",
        e.id.to_string(),
        e.obj,
        e.stage.name(),
        e.node,
    );
}

/// Render a full timeline, one event per line.
pub fn format_trace(events: &[TraceEvent]) -> String {
    let mut sorted = events.to_vec();
    sort_timeline(&mut sorted);
    let mut out = String::new();
    for e in &sorted {
        format_line(e, &mut out);
    }
    out
}

/// Render the timeline of every request that touched `obj`. Returns a note
/// instead of an empty string when nothing matched, so a dump attached to a
/// failure report is never silently blank.
pub fn dump_for_object(events: &[TraceEvent], obj: ObjectId) -> String {
    let matched: Vec<TraceEvent> = events.iter().filter(|e| e.obj == obj).copied().collect();
    if matched.is_empty() {
        return format!("  (no trace events recorded for {obj})\n");
    }
    format_trace(&matched)
}

/// [`dump_for_object`] keyed by the application key bytes (folded through
/// the same [`ObjectId::from_key`] digest the switch uses).
pub fn dump_for_key(events: &[TraceEvent], key: &[u8]) -> String {
    dump_for_object(events, ObjectId::from_key(key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_types::{ClientId, Duration, ReplicaId, RequestId, SwitchId};

    fn ev(at_us: u64, client: u32, req: u64, key: &[u8], stage: TraceStage) -> TraceEvent {
        TraceEvent {
            at: Instant::ZERO + Duration::from_micros(at_us),
            node: match stage {
                TraceStage::ReplicaExecute | TraceStage::ReplicaShed => {
                    NodeId::Replica(ReplicaId(0))
                }
                TraceStage::SwitchFastPathRead
                | TraceStage::SwitchNormalRead
                | TraceStage::SwitchWriteForward
                | TraceStage::SwitchWriteDrop => NodeId::Switch(SwitchId(0)),
                _ => NodeId::Client(ClientId(client)),
            },
            id: TraceId::new(ClientId(client), RequestId(req)),
            obj: ObjectId::from_key(key),
            stage,
        }
    }

    #[test]
    fn timeline_sorts_by_time_then_stage() {
        let events = vec![
            ev(30, 1, 7, b"k", TraceStage::ClientDone),
            ev(10, 1, 7, b"k", TraceStage::ClientSend),
            ev(20, 1, 7, b"k", TraceStage::SwitchWriteForward),
            ev(20, 1, 7, b"k", TraceStage::ReplicaExecute),
        ];
        let text = format_trace(&events);
        let order: Vec<usize> = ["client_send", "switch_write_forward", "replica_execute"]
            .iter()
            .map(|s| text.find(s).expect(s))
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "{text}");
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn dump_filters_by_key() {
        let events = vec![
            ev(1, 1, 1, b"hot", TraceStage::ClientSend),
            ev(2, 2, 9, b"cold", TraceStage::ClientSend),
        ];
        let hot = dump_for_key(&events, b"hot");
        assert!(hot.contains("c1#1"), "{hot}");
        assert!(!hot.contains("c2#9"), "{hot}");
        let absent = dump_for_key(&events, b"never-touched");
        assert!(absent.contains("no trace events"), "{absent}");
    }
}
