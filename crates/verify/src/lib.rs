//! Correctness tooling.
//!
//! Two independent lines of defence, mirroring the paper's appendices:
//!
//! * [`linearizability`] — the one gate every recorded history goes
//!   through. [`Checker`] takes what the clients record
//!   ([`harmonia_types::RecordedOp`]), leaves out keys an abandoned
//!   operation touched, checks each key on its own (per-key register
//!   semantics) and cuts its history at quiescent points into windows of
//!   the Wing–Gong search, carrying the values the key may hold across
//!   each cut and from one call to the next. Integration tests run real
//!   protocol stacks under packet loss/reordering/duplication and feed the
//!   recorded client histories through it.
//! * [`model`] — an executable model checker that mirrors the TLA+
//!   specification of Appendix B action for action (`SendWrite`,
//!   `HandleWrite`, `ProcessWriteCompletion`, `CommitWrite`, `SendRead`,
//!   `HandleProtocolRead`, `HandleHarmoniaRead`, `SwitchFailover`), and
//!   exhaustively explores small configurations checking the spec's
//!   `Linearizability` invariant — for both read-ahead and read-behind
//!   protocol classes, across switch failovers. A mutation knob removes the
//!   §7 read guard to demonstrate the checker catches the resulting
//!   anomalies.

#![forbid(unsafe_code)]

pub mod history;
pub mod linearizability;
pub mod model;

pub use history::{Action, OpRecord};
pub use linearizability::{check_key_history, Checked, Checker, Violation};
pub use model::{ModelConfig, ModelOutcome, SpecModel};
