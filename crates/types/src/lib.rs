//! Core vocabulary types shared by every Harmonia crate.
//!
//! This crate defines the data that crosses component boundaries in the
//! Harmonia architecture (VLDB 2019):
//!
//! * [`ObjectId`] — the fixed-width object identifier carried in the custom
//!   packet header and tracked by the switch's dirty set. Variable-length
//!   application keys are folded to an `ObjectId` by hashing (§6.1 of the
//!   paper), which may only ever cause false *conflicts*, never missed ones.
//! * [`SwitchSeq`] — the per-write sequence number, lexicographically ordered
//!   by `(switch_id, seq)` so that a replacement switch can never reuse a
//!   number issued by its predecessor (§5.3).
//! * [`Packet`] / [`PacketBody`] — the custom L4 payload understood by the
//!   switch data plane, the replica shim layer, and the client library.
//! * a compact binary wire codec ([`wire`]) used by the live (threaded)
//!   runtime; the simulator passes packets by value.
//!
//! Everything here is deliberately small, `Clone`, and free of interior
//! mutability: packets are values that flow through state machines.

#![forbid(unsafe_code)]

pub mod id;
pub mod packet;
pub mod seq;
pub mod time;
pub mod wire;

pub use id::{ClientId, NodeId, ObjectId, ReplicaId, RequestId, SwitchId, TraceId};
pub use packet::{
    ClientReply, ClientRequest, ControlMsg, OpKind, Packet, PacketBody, PacketFlags, ReadMode,
    SwitchRoute, WriteCompletion, WriteOutcome,
};
pub use seq::SwitchSeq;
pub use time::{Duration, Instant};
pub use wire::{decode_frame, encode_frame, Wire, MAX_FRAME_BYTES};

/// Errors surfaced by the types layer (wire decoding in practice).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// The buffer ended before a complete frame was decoded.
    Truncated {
        /// How many more bytes were needed, when known.
        needed: usize,
    },
    /// An unknown discriminant was found while decoding.
    BadDiscriminant {
        /// Which field carried the bad value.
        field: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A length prefix exceeded the configured sanity bound.
    OversizedField {
        /// Which field was oversized.
        field: &'static str,
        /// The claimed length.
        len: usize,
    },
    /// A frame body declared more bytes than its value actually encodes:
    /// decoding succeeded but left unconsumed bytes inside the declared
    /// length. A well-formed peer never produces this, so it is rejected
    /// rather than silently ignored.
    TrailingBytes {
        /// How many declared-but-unconsumed bytes were left.
        len: usize,
    },
}

impl std::fmt::Display for TypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TypeError::Truncated { needed } => {
                write!(f, "truncated frame: {needed} more bytes required")
            }
            TypeError::BadDiscriminant { field, value } => {
                write!(f, "bad discriminant {value} for field {field}")
            }
            TypeError::OversizedField { field, len } => {
                write!(f, "field {field} claims oversized length {len}")
            }
            TypeError::TrailingBytes { len } => {
                write!(f, "frame body left {len} undeclared trailing bytes")
            }
        }
    }
}

impl std::error::Error for TypeError {}
