//! The transport abstraction: send/receive framed packets by [`NodeId`].

use std::time::Instant;

use harmonia_types::{NodeId, Packet};

/// Why a receive returned no packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecvError {
    /// Nothing arrived within the deadline.
    TimedOut,
    /// Somebody woke the endpoint ([`UdpTransport::wake`](crate::UdpTransport::wake))
    /// and nothing arrived with the wake-up: whatever else the caller
    /// waits on may be ready.
    Woken,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::TimedOut => write!(f, "no packet within the deadline"),
            RecvError::Woken => write!(f, "woken with nothing to deliver"),
        }
    }
}

impl std::error::Error for RecvError {}

/// One datagram endpoint of a deployment — the verbs of
/// [`UdpTransport`](crate::UdpTransport), its one implementor.
///
/// Sends are addressed by [`NodeId`] and resolved through the deployment's
/// [`AddrBook`](crate::AddrBook); a destination that does not resolve is
/// silently dropped — datagram semantics, the caller's retry loop is the
/// reliability layer. Receives return whole decoded packets; bytes that do
/// not parse as a frame are discarded by the implementation.
pub trait Transport<T>: Send {
    /// Send every `(destination, packet)` in `batch`, draining it. Never
    /// blocks on a receiver; undeliverable or unresolvable packets are
    /// dropped. Per-destination frame order follows `batch` order, and a
    /// one-packet batch is one frame in one datagram.
    fn send_batch(&mut self, batch: &mut Vec<(NodeId, Packet<T>)>);

    /// Receive the next packet addressed to this endpoint, waiting until
    /// `deadline` — with none, until a packet arrives or the endpoint is
    /// woken ([`RecvError::Woken`]). A deadline already past is a
    /// nonblocking poll.
    fn recv(&mut self, deadline: Option<Instant>) -> Result<Packet<T>, RecvError>;

    /// Drain up to `max` already-queued packets into `out` without
    /// blocking; returns how many were appended. An empty queue is `0`, not
    /// an error — callers that want to wait combine this with
    /// [`recv`](Self::recv) for the first packet.
    fn recv_batch(&mut self, out: &mut Vec<Packet<T>>, max: usize) -> usize;

    /// Move every packet this endpoint already holds into `out` — frames it
    /// looped back to itself, or left over from a multi-frame datagram —
    /// without asking the kernel; returns how many. `0` means a receive
    /// would have to go to the socket.
    fn take_queued(&mut self, out: &mut Vec<Packet<T>>) -> usize;
}
