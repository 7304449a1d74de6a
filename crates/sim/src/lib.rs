//! Deterministic discrete-event simulator.
//!
//! This crate stands in for the paper's hardware testbed (§9): a
//! virtual-time world in which every Harmonia component — clients, the
//! switch, storage replicas — runs as an [`Actor`]. The simulator provides:
//!
//! * a virtual-time event scheduler with a deterministic tie-break order;
//! * a configurable network model (per-link latency, jitter, drop, reorder,
//!   duplication) driven by a seeded RNG, so every run is reproducible;
//! * a per-node *service model*: replicas are single-server queues with
//!   calibrated service times (saturation and latency curves emerge from
//!   queueing, exactly like the paper's testbed saturates its tail node),
//!   while the switch is a pure-delay element (line rate, §6);
//! * node failure switches (used by the switch-failover experiment, Fig. 10);
//! * a count of what the link model did to packets
//!   ([`World::faults`], a `harmonia_obs::FaultObs`).
//!
//! The same protocol state machines run unmodified under the live threaded
//! driver in `harmonia-core`; nothing in this crate is Harmonia-specific.
//!
//! # The ordering contract
//!
//! Same seed, same run, to the bit — `tests/determinism.rs` holds digests of
//! whole runs across commits. Three rules carry it, and the engine
//! ([`event`], [`world`]) may be rebuilt freely as long as they hold:
//!
//! * **One sequence counter.** Every scheduled thing — arrival, service
//!   completion, timer, control action — takes the next value of one
//!   counter, and events fire in `(time, sequence)` order.
//! * **Two queues, one order.** Timers wait in an ordered map of their own
//!   so that a client arming and cancelling a timeout per attempt does not
//!   deepen the heap the handful of events in flight go through; the two
//!   are merged on `(time, sequence)`, so a tie on `time` between a timer
//!   and a message is broken by `sequence`, exactly as in a single heap. A
//!   cancelled timer simply leaves: it takes no `sequence` and moves no
//!   other key.
//! * **Actions after the handler.** What a handler sends, arms and cancels
//!   is applied when it returns, in the order it made them, so the shared
//!   RNG serves the handler's draws first and the network model's draws for
//!   its packets after.
//!
//! A queue entry is a 24-byte (timers: 32-byte) key, never a message: the
//! message is parked in a slab slot when it is sent and taken out when its
//! handler runs, and only the slot's handle travels — through the pending
//! action, the arrival event and, for a queueing node, the inbox. Whoever
//! holds the handle when the message's journey ends (delivered, dropped by
//! the network, destination unknown or down, inbox cleared by a crash or a
//! replacement) releases the slot; [`world`]'s module docs spell the cases
//! out.

#![forbid(unsafe_code)]

pub mod event;
pub mod network;
pub mod node;
pub mod world;

pub use event::TimerToken;
pub use network::{LinkConfig, NetworkModel};
pub use node::{Actor, Context, Service};
pub use world::{World, WorldConfig};
