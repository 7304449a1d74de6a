//! The typed whole-cluster snapshot every driver exposes.
//!
//! [`ObsSnapshot`] is the unification layer over the repo's previously
//! disconnected telemetry: the switch's per-group rows (`SwitchStats` and
//! dirty-set occupancy in one `GroupObservation` per group, folded into
//! [`SwitchObs`] and [`GroupObs`]), the net
//! crate's transport/pool/fault counters, the replica actors' counters, and
//! the clients' latency histograms all land in one plain-data struct with a
//! stable schema ([`OBS_SCHEMA_VERSION`]). The `Cluster` trait returns it
//! from every driver — sim, live, UDP — so a test or the ledger reads the
//! same shape regardless of substrate. [`crate::export`] renders it as JSON.

use crate::hist::HistSummary;
use crate::recorder::{Counter, RecorderSnapshot, Series};

/// Version of the snapshot schema (bumped when fields change meaning or
/// disappear; additions keep the version).
pub const OBS_SCHEMA_VERSION: u32 = 1;

/// Whole-switch counters plus spine aggregates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwitchObs {
    /// Reads served on the fast path (conflict detector: clean).
    pub reads_fast_path: u64,
    /// Reads routed through the normal protocol.
    pub reads_normal: u64,
    /// Writes stamped and forwarded.
    pub writes_forwarded: u64,
    /// Writes dropped for lack of a dirty-set slot.
    pub writes_dropped: u64,
    /// WRITE-COMPLETIONs processed.
    pub completions: u64,
    /// Protocol-internal packets forwarded by plain L2/L3.
    pub forwarded_other: u64,
    /// Dirty-set entries reclaimed by sweeps.
    pub swept: u64,
    /// Groups whose fast path is currently enabled.
    pub fast_path_groups: u64,
    /// Total dirty-set occupancy across groups.
    pub dirty_len: u64,
    /// Total dirty-set SRAM consumed, bytes.
    pub memory_bytes: u64,
}

/// One group's slice of the spine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupObs {
    /// The group index.
    pub group: u32,
    /// Reads served on the fast path.
    pub reads_fast_path: u64,
    /// Reads routed through the normal protocol.
    pub reads_normal: u64,
    /// Writes stamped and forwarded.
    pub writes_forwarded: u64,
    /// Writes dropped for lack of a dirty-set slot.
    pub writes_dropped: u64,
    /// Whether the group's fast path is currently enabled.
    pub fast_path_enabled: bool,
    /// Dirty-set occupancy.
    pub dirty_len: u64,
    /// Dirty-set SRAM consumed by the group, bytes.
    pub memory_bytes: u64,
}

/// Transport-layer counters (zero for the in-memory sim/live substrates).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportObs {
    /// Frames handed to the socket layer.
    pub frames_sent: u64,
    /// Datagrams actually sent (≤ frames when coalescing).
    pub datagrams_sent: u64,
    /// Frames received and decoded.
    pub frames_received: u64,
    /// Frames addressed to peers missing from the address map.
    pub unresolved: u64,
    /// Undecodable frames.
    pub decode_errors: u64,
    /// Frames salvaged from partially corrupt datagrams.
    pub salvaged: u64,
    /// Frames too large to encode.
    pub oversized: u64,
    /// Socket send errors.
    pub send_errors: u64,
    /// Configuration errors.
    pub config_errors: u64,
}

/// Buffer-pool counters (receive and send sides).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolObs {
    /// Receive-pool reuse hits.
    pub recv_hits: u64,
    /// Receive-pool fresh allocations.
    pub recv_misses: u64,
    /// Send-pool reuse hits.
    pub send_hits: u64,
    /// Send-pool fresh allocations.
    pub send_misses: u64,
}

impl PoolObs {
    /// Receive-pool hit rate in [0, 1].
    pub fn recv_hit_rate(&self) -> f64 {
        rate(self.recv_hits, self.recv_misses)
    }

    /// Send-pool hit rate in [0, 1].
    pub fn send_hit_rate(&self) -> f64 {
        rate(self.send_hits, self.send_misses)
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Injected-fault counters (what the network actually did to packets).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultObs {
    /// Packets dropped in flight.
    pub dropped: u64,
    /// Packets duplicated in flight.
    pub duplicated: u64,
    /// Packets delayed out of order.
    pub reordered: u64,
    /// Packets discarded at a dead or unreachable destination.
    pub discarded: u64,
}

/// Client-side operation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientObs {
    /// Read operations issued.
    pub reads_sent: u64,
    /// Write operations issued.
    pub writes_sent: u64,
    /// Reads completed.
    pub reads_done: u64,
    /// Writes acknowledged.
    pub writes_done: u64,
    /// Writes rejected (shed at the spine).
    pub writes_rejected: u64,
    /// Operations that timed out.
    pub timeouts: u64,
    /// Retransmissions sent.
    pub retries: u64,
}

/// Replica-side counters, aggregated over the group.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaObs {
    /// Client requests executed.
    pub requests: u64,
    /// Protocol-internal messages handled.
    pub protocol_msgs: u64,
    /// State-transfer messages handled.
    pub transfers: u64,
    /// Requests shed while recovering.
    pub shed: u64,
    /// Packets that matched no handler.
    pub stray: u64,
}

/// Trace-ring accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceObs {
    /// Trace events ever pushed.
    pub recorded: u64,
    /// Trace events lost to ring overflow.
    pub dropped: u64,
}

/// One driver's unified observability snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsSnapshot {
    /// Which driver produced this: `"sim"`, `"live"`, or `"udp"`.
    pub driver: &'static str,
    /// Replication protocol name (e.g. `"craq"`).
    pub protocol: &'static str,
    /// Replica-group count (1 unless sharded).
    pub groups: u32,
    /// Replicas per deployment.
    pub replicas: u32,
    /// When the snapshot was taken, nanoseconds on the driver's clock
    /// (virtual time in sim, since-rig-start in live/UDP).
    pub taken_at_ns: u64,
    /// Whole-switch counters and spine aggregates.
    pub switch: SwitchObs,
    /// Per-group spine detail, in group order.
    pub per_group: Vec<GroupObs>,
    /// Transport counters (zero on in-memory substrates).
    pub transport: TransportObs,
    /// Buffer-pool counters.
    pub pool: PoolObs,
    /// Injected-fault counters.
    pub faults: FaultObs,
    /// Client operation counters.
    pub clients: ClientObs,
    /// Replica counters.
    pub replica: ReplicaObs,
    /// Client-observed read latency summary.
    pub read_latency: HistSummary,
    /// Client-observed write latency summary.
    pub write_latency: HistSummary,
    /// Trace-ring accounting.
    pub trace: TraceObs,
}

impl ObsSnapshot {
    /// Fill every recorder-backed section (clients, replica, transport,
    /// pool, latency summaries, trace accounting) from a merged
    /// [`RecorderSnapshot`]. Switch, fault, and topology fields are the
    /// driver's to set — they come from the spine view and the substrate,
    /// not the recorders.
    pub fn apply_recorder(&mut self, rs: &RecorderSnapshot) {
        self.clients = ClientObs {
            reads_sent: rs.counter(Counter::ReadsSent),
            writes_sent: rs.counter(Counter::WritesSent),
            reads_done: rs.counter(Counter::ReadsDone),
            writes_done: rs.counter(Counter::WritesDone),
            writes_rejected: rs.counter(Counter::WritesRejected),
            timeouts: rs.counter(Counter::Timeouts),
            retries: rs.counter(Counter::Retries),
        };
        self.replica = ReplicaObs {
            requests: rs.counter(Counter::ReplicaRequests),
            protocol_msgs: rs.counter(Counter::ReplicaProtocol),
            transfers: rs.counter(Counter::ReplicaTransfer),
            shed: rs.counter(Counter::ReplicaShed),
            stray: rs.counter(Counter::ReplicaStray),
        };
        self.transport = TransportObs {
            frames_sent: rs.counter(Counter::FramesSent),
            datagrams_sent: rs.counter(Counter::DatagramsSent),
            frames_received: rs.counter(Counter::FramesReceived),
            unresolved: rs.counter(Counter::Unresolved),
            decode_errors: rs.counter(Counter::DecodeErrors),
            salvaged: rs.counter(Counter::Salvaged),
            oversized: rs.counter(Counter::Oversized),
            send_errors: rs.counter(Counter::SendErrors),
            config_errors: rs.counter(Counter::ConfigErrors),
        };
        self.pool = PoolObs {
            recv_hits: rs.counter(Counter::RecvPoolHits),
            recv_misses: rs.counter(Counter::RecvPoolMisses),
            send_hits: rs.counter(Counter::SendPoolHits),
            send_misses: rs.counter(Counter::SendPoolMisses),
        };
        self.read_latency = rs.histogram(Series::ReadLatency).summary();
        self.write_latency = rs.histogram(Series::WriteLatency).summary();
        self.trace = TraceObs {
            recorded: rs.trace_recorded(),
            dropped: rs.trace_dropped(),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Registry;
    use harmonia_types::Duration;

    #[test]
    fn apply_recorder_fills_sections() {
        let reg = Registry::new();
        let r = reg.handle();
        r.incr(Counter::ReadsSent);
        r.incr(Counter::ReadsDone);
        r.add(Counter::FramesSent, 10);
        r.incr(Counter::RecvPoolHits);
        r.observe(Series::ReadLatency, Duration::from_micros(42));
        let mut snap = ObsSnapshot::default();
        snap.apply_recorder(&reg.snapshot());
        assert_eq!(snap.clients.reads_sent, 1);
        assert_eq!(snap.clients.reads_done, 1);
        assert_eq!(snap.transport.frames_sent, 10);
        assert_eq!(snap.pool.recv_hits, 1);
        assert_eq!(snap.read_latency.count, 1);
        assert_eq!(snap.read_latency.max_ns, 42_000);
        assert_eq!(snap.write_latency.count, 0);
    }

    #[test]
    fn pool_rates() {
        let p = PoolObs {
            recv_hits: 3,
            recv_misses: 1,
            send_hits: 0,
            send_misses: 0,
        };
        assert!((p.recv_hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(p.send_hit_rate(), 0.0);
    }
}
