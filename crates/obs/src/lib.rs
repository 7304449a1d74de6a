//! `harmonia-obs` — the observability substrate every driver reports
//! through.
//!
//! The repo's telemetry used to be five disconnected structs (sim
//! `Metrics`, switch `SwitchStats`/`SpineView`, net `TransportStats`/
//! `PoolStats`/`FaultCounters`) with no unified view and no machine-
//! readable export. This crate is the common layer underneath all of them
//! (the net structs still count at the endpoint: each `UdpLink` credits its
//! `UdpTransport`'s `stats()` and pool counters to its [`Recorder`] once per
//! batch, and the send-path adversary's tallies become the snapshot's
//! [`FaultObs`]):
//!
//! - [`Clock`] — a time source abstraction so instrumentation stays legal
//!   under the determinism rule: the sim records at virtual instants it
//!   already holds (or a [`ManualClock`]), the live/UDP drivers use a
//!   [`MonotonicClock`] anchored at rig start.
//! - [`LogHistogram`] — a log-bucketed HDR-style latency histogram: fixed
//!   memory (1920 buckets, ≤ 3.2% relative error), exact mean/min/max,
//!   mergeable, allocation-free to record.
//! - [`Registry`]/[`Recorder`] — sharded per-thread recorders. Every
//!   pipeline thread, replica actor, `UdpLink`, and client owns a
//!   [`Recorder`] handle; counters and histogram buckets are relaxed
//!   atomics (wait-free, zero-alloc on the packet path) and the registry
//!   aggregates a copy-on-read snapshot on inspect. Each shard also owns a
//!   bounded [`TraceEvent`] ring buffer that drops oldest on overflow.
//! - [`ObsSnapshot`] — the typed whole-cluster snapshot the `Cluster`
//!   trait exposes on all three drivers, rendered by [`json_text`] — the
//!   one rendering, which the goldens commit and the e2e ledger parses.
//!
//! The crate depends only on `harmonia-types` and is deterministic-checked
//! by `harmonia-lint` (the sole wall-clock read, [`MonotonicClock`], is an
//! explicitly waived site); `recorder.rs` and `hist.rs` are held to
//! packet-path panic freedom.

#![forbid(unsafe_code)]

mod clock;
mod export;
mod hist;
mod recorder;
mod snapshot;
mod trace;

pub use clock::{Clock, ManualClock, MonotonicClock, NullClock};
pub use export::json_text;
pub use hist::{HistSummary, LogHistogram, BUCKETS};
pub use recorder::{Counter, Recorder, RecorderSnapshot, Registry, Series, TraceRing};
pub use snapshot::{
    ClientObs, FaultObs, GroupObs, ObsSnapshot, PoolObs, ReplicaObs, SwitchObs, TraceObs,
    TransportObs, OBS_SCHEMA_VERSION,
};
pub use trace::{dump_for_key, dump_for_object, format_trace, TraceEvent, TraceStage};
