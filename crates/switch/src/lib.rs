//! Userspace emulation of the Harmonia programmable-switch data plane.
//!
//! The paper implements its request scheduler as a P4 program on a Barefoot
//! Tofino ASIC (§6, §8). This crate reproduces that data plane in software,
//! preserving the structures and constraints that matter:
//!
//! * [`register::RegisterArray`] — per-stage stateful memory; every packet
//!   may perform **at most one** read-modify-write per stage, the Tofino
//!   constraint that forces the multi-stage hash-table design. The arrays
//!   are sparse: the resource model charges every slot, but only occupied
//!   ones take process memory, so a switch costs kilobytes to build.
//! * [`table::MultiStageHashTable`] — the dirty set: `n` stages × `m` slots,
//!   per-stage independent hash functions, open addressing across stages
//!   (Figure 4). Writes that collide in every stage are **dropped**, exactly
//!   as §6.1 specifies — Figure 8 measures the consequence.
//! * [`conflict::ConflictDetector`] — Algorithm 1 verbatim: sequence-number
//!   assignment, dirty-set bookkeeping, last-committed tracking, fast-path
//!   read decisions, plus the §5.3 failover gating (no fast-path reads until
//!   the first WRITE-COMPLETION bearing the new switch's id).
//! * [`forwarding::ForwardingTable`] — replica addresses and per-protocol
//!   entry points (head/tail/leader/multicast), updated by the control plane
//!   on server failure (§5.3).
//! * [`sequencer::Sequencer`] — the NOPaxos ordered-unreliable-multicast
//!   sequencer, co-located in the same switch as §7.3 suggests.
//! * [`stats`] — the §6.2 resource model (the `unm/(wt)` capacity formula)
//!   and live occupancy accounting; the table also keeps its peak
//!   occupancy, what a workload needed beside what it was given.

#![forbid(unsafe_code)]

pub mod conflict;
pub mod forwarding;
pub mod hash;
pub mod register;
pub mod sequencer;
pub mod spine;
pub mod stats;
pub mod table;

pub use conflict::{ConflictConfig, ConflictDetector, ReadDecision, WriteDecision};
pub use forwarding::{ForwardingTable, ReadEntry, WriteEntry};
pub use sequencer::Sequencer;
pub use spine::{GroupId, GroupObservation, SpineView};
pub use stats::{ResourceModel, SwitchStats};
pub use table::{MultiStageHashTable, TableConfig};
