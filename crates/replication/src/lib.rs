//! Replication protocols, with and without Harmonia.
//!
//! Every protocol from the paper's evaluation (§9.5) is implemented here as a
//! transport-agnostic (sans-IO) state machine, in two layers. Each protocol
//! module keeps only its write path: its messages, its tick, its snapshot,
//! and its answers to the two questions Harmonia asks of a protocol (§7) —
//! which read rule holds at a replica, and who serves a normal read. The
//! Harmonia shell (`shell.rs`) wraps all five: the lease, membership and
//! control messages, write admission, and every read. One concrete type,
//! [`Server`], is the whole storage server: the shell for the protocol its
//! [`GroupConfig`] names, the state-transfer broker that repairs it after a
//! restart, and the gate that sheds client requests until that repair is
//! done.
//!
//! | module | protocol | read rule | normal reads | Harmonia adaptation (§7) |
//! |---|---|---|---|---|
//! | [`pb`] | primary-backup | read-ahead | primary | completion piggybacked on the write reply |
//! | [`chain`] | chain replication | read-ahead | tail | completion piggybacked on the tail's reply |
//! | [`craq`] | CRAQ | clean keys anywhere, dirty keys at the tail | tail | none — the protocol-level alternative Harmonia is compared against |
//! | [`vr`] | Viewstamped Replication | read-behind | leader | extra COMMIT-ACK phase; completion after a majority executes |
//! | [`nopaxos`] | NOPaxos | read-behind | leader | completions batched out of the periodic synchronization |
//!
//! A server consumes packets/ticks and emits [`Effects`] — messages to
//! send — and reports what it did with each packet ([`Handled`]). The
//! simulation driver and the threaded drivers (all in `harmonia-core`) host
//! the same servers.
//!
//! The three responsibilities Harmonia imposes on a replica (§7) live in the
//! shell, once: writes are accepted only in sequence-number order
//! ([`common::InOrder`]); fast-path reads are honoured only from the active
//! switch ([`common::LeaseState`]); and a replica answers a single-replica
//! read only if its protocol's read rule allows it — read-ahead replicas
//! apply writes before they commit, so the stamped last-committed point must
//! cover the object's applied version ([`common::read_ahead_ok`]);
//! read-behind replicas execute after commit, so they must have executed
//! through that point ([`common::read_behind_ok`]). A read that fails is
//! re-marked normal and answered by the protocol's read server.

#![forbid(unsafe_code)]

pub mod chain;
pub mod common;
pub mod craq;
pub mod messages;
pub mod nopaxos;
pub mod pb;
mod server;
mod shell;
pub mod vr;
pub mod wire;

pub use common::{
    read_ahead_ok, read_behind_ok, Effects, GroupConfig, InOrder, LeaseState, ProtocolKind,
};
pub use messages::{ProtocolMsg, ReplicaControlMsg};
pub use server::{Handled, Replica, Server};

/// A serving [`Server`] for `config`, behind the [`Replica`] calls the perf
/// ledger makes.
pub fn build_replica(config: GroupConfig) -> Box<dyn Replica> {
    Box::new(Server::new(config, None))
}
