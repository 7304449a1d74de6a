//! Sharded per-thread recorders and the registry that aggregates them.
//!
//! Every packet-path owner — a pipeline thread, a replica actor, a
//! `UdpLink`, a client — holds one [`Recorder`]. Recording is wait-free and
//! allocation-free: counters and histogram buckets are relaxed atomics in a
//! shard that only that owner writes. The [`Registry`] keeps a handle to
//! every shard and builds copy-on-read aggregates on inspect
//! ([`Registry::snapshot`], [`Registry::trace_events`]) — inspection pays
//! the merge cost so the packet path never does.
//!
//! Trace events go to a bounded per-shard ring ([`TraceRing`]) behind a
//! mutex that only the owner and the inspector ever touch, so it is
//! uncontended in steady state; the ring overwrites its oldest entry on
//! overflow and never blocks or grows.
//!
//! This module is on harmonia-lint's panic-freedom list: slot access goes
//! through `get`, mutex poisoning is absorbed with `into_inner`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use harmonia_types::{Duration, Instant, NodeId, ObjectId, TraceId};

use crate::clock::{Clock, NullClock};
use crate::hist::{LogHistogram, BUCKETS};
use crate::trace::{sort_timeline, TraceEvent, TraceStage};

/// Every counter the packet path records. One atomic slot per variant per
/// shard; the registry sums slots across shards on inspect.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Counter {
    /// Client: read operations issued.
    ReadsSent,
    /// Client: write operations issued.
    WritesSent,
    /// Client: reads completed.
    ReadsDone,
    /// Client: writes acknowledged.
    WritesDone,
    /// Client: writes rejected (dirty-set full, shed at the spine).
    WritesRejected,
    /// Client: operations that timed out.
    Timeouts,
    /// Client: retransmissions sent.
    Retries,
    /// Switch: packets handled by a group pipeline.
    SwitchPackets,
    /// Switch: dirty-set entries reclaimed by sweeps.
    SwitchSwept,
    /// Replica: client requests executed.
    ReplicaRequests,
    /// Replica: protocol-internal messages handled.
    ReplicaProtocol,
    /// Replica: state-transfer messages handled.
    ReplicaTransfer,
    /// Replica: requests shed while recovering.
    ReplicaShed,
    /// Replica: packets that matched no handler.
    ReplicaStray,
    /// Transport: frames handed to the socket layer.
    FramesSent,
    /// Transport: datagrams actually sent (≤ frames when coalescing).
    DatagramsSent,
    /// Transport: frames received and decoded.
    FramesReceived,
    /// Transport: frames for peers missing from the address map.
    Unresolved,
    /// Transport: undecodable frames.
    DecodeErrors,
    /// Transport: frames salvaged from partially corrupt datagrams.
    Salvaged,
    /// Transport: frames too large to encode.
    Oversized,
    /// Transport: socket send errors.
    SendErrors,
    /// Transport: configuration errors (bad peer, bad socket state).
    ConfigErrors,
    /// Link: receives that went to the socket or the queue — one
    /// `recvmmsg` on sockets, one queue receive on channels.
    Receives,
    /// Link: the subset of `Receives` that brought nothing (a timed-out
    /// wait, a drain of an empty queue).
    EmptyReceives,
    /// Channel link: envelopes taken off the queue — the in-process hand-off
    /// a datagram is on sockets.
    EnvelopesReceived,
    /// Receive buffer pool: reuse hits.
    RecvPoolHits,
    /// Receive buffer pool: fresh allocations.
    RecvPoolMisses,
    /// Send buffer pool: reuse hits.
    SendPoolHits,
    /// Send buffer pool: fresh allocations.
    SendPoolMisses,
}

/// Counter slots per shard, one per [`Counter`] variant: `SendPoolMisses`
/// stays the last variant.
const COUNTERS: usize = Counter::SendPoolMisses as usize + 1;

/// The latency series the packet path records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Series {
    /// Client-observed read latency (send → accepted reply).
    ReadLatency,
    /// Client-observed write latency (send → accepted reply).
    WriteLatency,
}

/// Histogram slots per shard, one per [`Series`] variant: `WriteLatency`
/// stays the last variant.
const SERIES: usize = Series::WriteLatency as usize + 1;

/// Bounded trace ring: overwrites its oldest event when full, never grows,
/// never blocks, never panics.
#[derive(Debug)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    cap: usize,
    next: usize,
    recorded: u64,
    dropped: u64,
}

impl TraceRing {
    /// A ring holding at most `cap` events (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        TraceRing {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
            recorded: 0,
            dropped: 0,
        }
    }

    /// Append an event, overwriting the oldest if the ring is full.
    pub fn push(&mut self, e: TraceEvent) {
        self.recorded += 1;
        if self.buf.len() < self.cap {
            self.buf.push(e);
        } else {
            if let Some(slot) = self.buf.get_mut(self.next) {
                *slot = e;
            }
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(self.buf.get(self.next..).unwrap_or(&[]));
        out.extend_from_slice(self.buf.get(..self.next).unwrap_or(&[]));
        out
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events ever pushed.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Currently retained event count.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A latency histogram whose buckets are relaxed atomics, so the owning
/// thread records without locks while the registry reads concurrently.
#[derive(Debug)]
struct AtomicHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> Self {
        AtomicHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record_ns(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        if let Some(b) = self.buckets.get(crate::hist::bucket_index(v)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    fn drain(&self) -> LogHistogram {
        let buckets = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        LogHistogram::from_raw(
            buckets,
            self.count.load(Ordering::Relaxed),
            u128::from(self.sum.load(Ordering::Relaxed)),
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

/// One owner's slice of the registry: counters, histograms, trace ring.
#[derive(Debug)]
struct Shard {
    counters: Vec<AtomicU64>,
    hists: Vec<AtomicHistogram>,
    ring: Mutex<TraceRing>,
}

impl Shard {
    fn new(trace_cap: usize) -> Self {
        Shard {
            counters: (0..COUNTERS).map(|_| AtomicU64::new(0)).collect(),
            hists: (0..SERIES).map(|_| AtomicHistogram::new()).collect(),
            ring: Mutex::new(TraceRing::new(trace_cap)),
        }
    }
}

/// Absorb mutex poisoning: a panicked peer loses nothing observable here
/// because all ring operations leave it structurally valid.
fn lock_ring(ring: &Mutex<TraceRing>) -> MutexGuard<'_, TraceRing> {
    match ring.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The aggregation point: hands out per-owner [`Recorder`]s and merges
/// their shards into [`RecorderSnapshot`]s on inspect.
#[derive(Debug)]
pub struct Registry {
    shards: Mutex<Vec<Arc<Shard>>>,
    clock: Arc<dyn Clock>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// Trace-ring capacity per recorder.
const TRACE_CAP: usize = 1024;

impl Registry {
    /// A registry whose recorders stamp trace events explicitly (clock reads
    /// return [`Instant::ZERO`]) — what the simulator uses, since actors
    /// already hold the virtual now.
    pub fn new() -> Self {
        Registry::with_clock(Arc::new(NullClock))
    }

    /// A registry whose recorders stamp trace events from `clock` — the
    /// live/UDP drivers pass a shared [`crate::MonotonicClock`].
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Registry {
            shards: Mutex::new(Vec::new()),
            clock,
        }
    }

    /// Register a new shard and return its owner handle. Shards are merged
    /// in registration order, which is deterministic wherever registration
    /// is (the single-threaded simulator).
    pub fn handle(&self) -> Recorder {
        let shard = Arc::new(Shard::new(TRACE_CAP));
        match self.shards.lock() {
            Ok(mut s) => s.push(Arc::clone(&shard)),
            Err(poisoned) => poisoned.into_inner().push(Arc::clone(&shard)),
        }
        Recorder {
            shard,
            clock: Arc::clone(&self.clock),
        }
    }

    fn shards(&self) -> Vec<Arc<Shard>> {
        match self.shards.lock() {
            Ok(s) => s.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// The registry's clock.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// Merge every shard into one snapshot (copy-on-read; the packet path
    /// is never blocked by this).
    pub fn snapshot(&self) -> RecorderSnapshot {
        let mut counters = vec![0u64; COUNTERS];
        let mut hists = vec![LogHistogram::new(); SERIES];
        let mut trace_recorded = 0u64;
        let mut trace_dropped = 0u64;
        for shard in self.shards() {
            for (slot, c) in counters.iter_mut().zip(shard.counters.iter()) {
                *slot += c.load(Ordering::Relaxed);
            }
            for (slot, h) in hists.iter_mut().zip(shard.hists.iter()) {
                slot.merge(&h.drain());
            }
            let ring = lock_ring(&shard.ring);
            trace_recorded += ring.recorded();
            trace_dropped += ring.dropped();
        }
        RecorderSnapshot {
            counters,
            hists,
            trace_recorded,
            trace_dropped,
        }
    }

    /// Zero every shard's counters and latency histograms (a warm-up cut);
    /// the trace rings keep their events. Exact only when nothing records
    /// concurrently — a sample landing mid-reset can survive it in part —
    /// which holds in the single-threaded simulator, its one caller.
    pub fn reset(&self) {
        for shard in self.shards() {
            for c in &shard.counters {
                c.store(0, Ordering::Relaxed);
            }
            for h in &shard.hists {
                h.reset();
            }
        }
    }

    /// Merge every shard's trace ring into one timeline (sorted by time,
    /// request, lifecycle stage).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        for shard in self.shards() {
            events.extend(lock_ring(&shard.ring).events());
        }
        sort_timeline(&mut events);
        events
    }
}

/// One owner's recording handle. Cheap to clone (two `Arc`s); clones share
/// the same shard.
#[derive(Clone, Debug)]
pub struct Recorder {
    shard: Arc<Shard>,
    clock: Arc<dyn Clock>,
}

impl Recorder {
    /// A recorder attached to nothing — records vanish. Lets construction
    /// sites take a `Recorder` unconditionally while instrumentation stays
    /// optional.
    pub fn detached() -> Recorder {
        Recorder {
            shard: Arc::new(Shard::new(1)),
            clock: Arc::new(NullClock),
        }
    }

    /// Add one to `c`.
    #[inline]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Add `delta` to `c`.
    #[inline]
    pub fn add(&self, c: Counter, delta: u64) {
        if let Some(slot) = self.shard.counters.get(c as usize) {
            slot.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Record a latency sample into `s`.
    #[inline]
    pub fn observe(&self, s: Series, d: Duration) {
        if let Some(h) = self.shard.hists.get(s as usize) {
            h.record_ns(d.nanos());
        }
    }

    /// The registry clock's current instant ([`Instant::ZERO`] in the sim).
    #[inline]
    pub fn now(&self) -> Instant {
        self.clock.now()
    }

    /// Record a trace event stamped with an explicit instant (the sim path,
    /// where actors hold the virtual now).
    pub fn trace_at(
        &self,
        at: Instant,
        node: NodeId,
        id: TraceId,
        obj: ObjectId,
        stage: TraceStage,
    ) {
        lock_ring(&self.shard.ring).push(TraceEvent {
            at,
            node,
            id,
            obj,
            stage,
        });
    }

    /// Record a trace event stamped with the registry clock (the live/UDP
    /// path).
    pub fn trace(&self, node: NodeId, id: TraceId, obj: ObjectId, stage: TraceStage) {
        self.trace_at(self.clock.now(), node, id, obj, stage);
    }
}

/// A merged, immutable copy of every shard's counters and histograms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecorderSnapshot {
    counters: Vec<u64>,
    hists: Vec<LogHistogram>,
    trace_recorded: u64,
    trace_dropped: u64,
}

impl RecorderSnapshot {
    /// Read one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c as usize).copied().unwrap_or(0)
    }

    /// Read one latency series (an empty histogram if never recorded).
    pub fn histogram(&self, s: Series) -> LogHistogram {
        self.hists.get(s as usize).cloned().unwrap_or_default()
    }

    /// Total trace events ever pushed across all rings.
    pub fn trace_recorded(&self) -> u64 {
        self.trace_recorded
    }

    /// Trace events lost to ring overflow across all rings.
    pub fn trace_dropped(&self) -> u64 {
        self.trace_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_types::{ClientId, RequestId};

    fn tid(c: u32, r: u64) -> TraceId {
        TraceId::new(ClientId(c), RequestId(r))
    }

    #[test]
    fn counters_merge_across_shards() {
        let reg = Registry::new();
        let a = reg.handle();
        let b = reg.handle();
        a.incr(Counter::ReadsSent);
        a.add(Counter::ReadsSent, 2);
        b.incr(Counter::ReadsSent);
        b.incr(Counter::WritesDone);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(Counter::ReadsSent), 4);
        assert_eq!(snap.counter(Counter::WritesDone), 1);
        assert_eq!(snap.counter(Counter::Timeouts), 0);
    }

    #[test]
    fn histograms_merge_across_shards() {
        let reg = Registry::new();
        let a = reg.handle();
        let b = reg.handle();
        for us in 1..=50u64 {
            a.observe(Series::ReadLatency, Duration::from_micros(us));
        }
        for us in 51..=100u64 {
            b.observe(Series::ReadLatency, Duration::from_micros(us));
        }
        let h = reg.snapshot().histogram(Series::ReadLatency);
        assert_eq!(h.count(), 100);
        assert_eq!(h.mean(), Duration::from_nanos(50_500));
        assert_eq!(h.max(), Duration::from_micros(100));
    }

    #[test]
    fn reset_zeroes_counters_and_histograms_and_keeps_traces() {
        let reg = Registry::new();
        let r = reg.handle();
        r.incr(Counter::ReadsDone);
        r.observe(Series::ReadLatency, Duration::from_micros(3));
        r.trace_at(
            Instant::ZERO,
            NodeId::Controller,
            tid(0, 0),
            ObjectId(0),
            TraceStage::ClientSend,
        );
        reg.reset();
        let snap = reg.snapshot();
        assert_eq!(snap.counter(Counter::ReadsDone), 0);
        assert_eq!(snap.histogram(Series::ReadLatency), LogHistogram::new());
        assert_eq!((snap.trace_recorded(), reg.trace_events().len()), (1, 1));
        r.observe(Series::ReadLatency, Duration::from_micros(5));
        let h = reg.snapshot().histogram(Series::ReadLatency);
        assert_eq!((h.count(), h.max()), (1, Duration::from_micros(5)));
    }

    #[test]
    fn ring_overflow_drops_oldest() {
        let mut ring = TraceRing::new(3);
        for i in 0..5u64 {
            ring.push(TraceEvent {
                at: Instant::ZERO + Duration::from_nanos(i),
                node: NodeId::Controller,
                id: tid(0, i),
                obj: ObjectId(0),
                stage: TraceStage::ClientSend,
            });
        }
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 2);
        let kept: Vec<u64> = ring.events().iter().map(|e| e.id.request.0).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn trace_events_sorted_across_shards() {
        let reg = Registry::new();
        let a = reg.handle();
        let b = reg.handle();
        let late = Instant::ZERO + Duration::from_micros(9);
        let early = Instant::ZERO + Duration::from_micros(1);
        a.trace_at(
            late,
            NodeId::Controller,
            tid(1, 2),
            ObjectId(7),
            TraceStage::ClientDone,
        );
        b.trace_at(
            early,
            NodeId::Controller,
            tid(1, 2),
            ObjectId(7),
            TraceStage::ClientSend,
        );
        let events = reg.trace_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].stage, TraceStage::ClientSend);
        assert_eq!(events[1].stage, TraceStage::ClientDone);
    }

    #[test]
    fn detached_recorder_is_inert() {
        let r = Recorder::detached();
        r.incr(Counter::ReadsSent);
        r.observe(Series::ReadLatency, Duration::from_micros(1));
        r.trace(
            NodeId::Controller,
            tid(0, 0),
            ObjectId(0),
            TraceStage::ClientSend,
        );
        // Nothing to assert against — the point is that none of this panics
        // and no registry ever sees it.
    }

    #[test]
    fn null_clock_registry_stamps_zero() {
        let reg = Registry::new();
        let r = reg.handle();
        assert_eq!(r.now(), Instant::ZERO);
    }
}
