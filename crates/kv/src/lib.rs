//! In-memory versioned key-value engine — the storage backend behind each
//! Harmonia replica.
//!
//! The paper runs Redis behind a shim layer (§8); any fast in-memory store
//! exercises the same code path, so this crate provides one:
//!
//! * [`Store`] — a sharded hash map guarded by `parking_lot` locks, generic
//!   over the value type. The live driver shares a store between a replica's
//!   protocol thread and inspection threads; the simulator uses it
//!   single-threaded.
//! * [`VersionedValue`] — a value tagged with the [`SwitchSeq`] of the write
//!   that produced it. Replicas use the tag for the last-committed guard
//!   (§5.2): a fast-path read is safe iff the stamped last-committed point
//!   covers the tag.
//! * [`VersionChain`] — the multi-version form CRAQ needs (clean version +
//!   pending dirty versions).
//!
//! [`SwitchSeq`]: harmonia_types::SwitchSeq

#![forbid(unsafe_code)]

pub mod store;
pub mod versioned;

pub use store::{Store, StoreStats};
pub use versioned::{VersionChain, VersionedValue};
