//! The transport abstraction: send/receive framed packets by [`NodeId`].

use std::time::Duration;

use harmonia_types::{NodeId, Packet};

use crate::pool::PoolStats;
use crate::udp::TransportStats;

/// Why a receive returned no packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecvError {
    /// Nothing arrived within the deadline.
    TimedOut,
    /// The endpoint can never deliver again (shut down).
    Closed,
    /// Somebody woke the endpoint ([`UdpTransport::wake`](crate::UdpTransport::wake))
    /// and nothing arrived with the wake-up: whatever else the caller
    /// waits on may be ready.
    Woken,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::TimedOut => write!(f, "no packet within the deadline"),
            RecvError::Closed => write!(f, "transport closed"),
            RecvError::Woken => write!(f, "woken with nothing to deliver"),
        }
    }
}

impl std::error::Error for RecvError {}

/// One datagram endpoint of a deployment.
///
/// Sends are addressed by [`NodeId`] and resolved through the deployment's
/// [`AddrBook`](crate::AddrBook); a destination that does not resolve is
/// silently dropped — datagram semantics, the caller's retry loop is the
/// reliability layer. Receives return whole decoded packets; bytes that do
/// not parse as a frame are discarded by the implementation.
pub trait Transport<T>: Send {
    /// Send `pkt` toward `to`. Never blocks on the receiver; undeliverable
    /// or unresolvable packets are dropped.
    fn send(&mut self, to: NodeId, pkt: Packet<T>);

    /// Receive the next packet addressed to this endpoint, waiting at most
    /// `timeout`. A wake-up ends the wait early with [`RecvError::Woken`].
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Packet<T>, RecvError>;

    /// Receive the next packet addressed to this endpoint with no deadline:
    /// wait until one arrives, the endpoint is woken
    /// ([`RecvError::Woken`]) or it can never deliver again.
    fn recv(&mut self) -> Result<Packet<T>, RecvError>;

    /// Send every `(destination, packet)` in `batch`, draining it — the
    /// frame-level batching verb.
    ///
    /// The default loops the scalar [`send`](Self::send), so wrapper
    /// transports (the fault injector) keep their exact per-packet
    /// semantics without knowing batching exists. The UDP endpoint
    /// overrides it with the one batched path there is: it amortizes kernel
    /// crossings (`sendmmsg`) and *coalesces* — packing per-destination
    /// frames back-to-back into full datagrams, so one datagram moves many
    /// frames. No option selects a different path; the per-frame baseline
    /// is the scalar verb, which flushes per call. Either way,
    /// per-destination frame order follows `batch` order and the
    /// drop/counter behavior matches scalar sends frame for frame.
    fn send_batch(&mut self, batch: &mut Vec<(NodeId, Packet<T>)>) {
        for (to, pkt) in batch.drain(..) {
            self.send(to, pkt);
        }
    }

    /// Drain up to `max` already-queued packets into `out` without
    /// blocking; returns how many were appended. An empty queue is `0`, not
    /// an error — callers that want to wait combine this with a scalar
    /// [`recv_timeout`](Self::recv_timeout) for the first packet.
    ///
    /// The default loops the scalar verb with a zero timeout (a nonblocking
    /// poll), preserving wrapper-transport semantics exactly.
    fn recv_batch(&mut self, out: &mut Vec<Packet<T>>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.recv_timeout(Duration::ZERO) {
                Ok(pkt) => {
                    out.push(pkt);
                    n += 1;
                }
                Err(_) => break,
            }
        }
        n
    }

    /// Move every packet this endpoint already holds into `out` — frames it
    /// looped back to itself, or left over from a multi-frame datagram —
    /// without asking the kernel; returns how many. `0` means a receive
    /// would have to go to the socket. The default holds nothing.
    fn take_queued(&mut self, _out: &mut Vec<Packet<T>>) -> usize {
        0
    }

    /// Frame/datagram counters, when this endpoint (or the one it wraps)
    /// keeps them. `None` — the default — means there is no wire level to
    /// count (e.g. the in-process channel substrate). Observability sinks
    /// poll this through `dyn Transport`, so it must stay cheap: a copy of
    /// already-maintained counters, never a syscall.
    fn wire_stats(&self) -> Option<TransportStats> {
        None
    }

    /// `(receive, send)` buffer-pool checkout counters, when this endpoint
    /// recycles buffers. Same contract as [`wire_stats`](Self::wire_stats).
    fn wire_pool_stats(&self) -> Option<(PoolStats, PoolStats)> {
        None
    }
}
