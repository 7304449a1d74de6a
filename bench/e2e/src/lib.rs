//! The perf ledger: one benchmark over the whole request path — client →
//! switch verdict → replica execute → reply — on every driver, with a
//! per-layer breakdown of where the time went. See `README.md`.

// Wall-clock reads are deliberate here: benchmark: measures real elapsed time.
#![allow(clippy::disallowed_methods)]
// The one `unsafe` in this crate is the affinity call in `rig`; any new
// site has to opt in as loudly.
#![deny(unsafe_code)]

pub mod check;
pub mod json;
pub mod metrics;
pub mod path;
pub mod report;
pub mod rig;
pub mod rigs;
pub mod run;
pub mod stages;
pub mod stats;
pub mod workloads;
