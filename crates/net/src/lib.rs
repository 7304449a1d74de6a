//! Real datagram transport for Harmonia deployments.
//!
//! The simulator passes packets by value and the threaded live driver moves
//! them over in-process channels; neither ever touches a socket. This crate
//! is the third substrate: every packet is a length-prefixed wire frame
//! ([`harmonia_types::wire`]), and each UDP datagram on the loopback socket
//! carries **one or more frames back-to-back** (GSO/GRO-style coalescing
//! via the [`Coalescer`] on the one send path) — lost, duplicated, and
//! reordered per datagram as a kernel pleases, and per frame as the seeded
//! [`Adversary`] pleases, which is the OUM envelope the paper's deployment
//! actually runs in (§4, §6).
//!
//! Three pieces, layered:
//!
//! * [`AddrBook`] — the deployment's name service: `NodeId →` endpoint for
//!   replicas and clients, plus the *spine* entry that makes the whole
//!   switch fleet reachable under its stable address. Sending to a switch
//!   address shard-routes the packet **on the sender's side** (the
//!   deployment's [`ShardMap`](harmonia_workload::ShardMap) keyed by the
//!   packet's object) straight to the owning group pipeline's endpoint —
//!   the stateless spine, expressed as address resolution. The book is
//!   generic over what a name resolves to and is the only name service in
//!   the workspace: here an endpoint is a `SocketAddr`, on the channel
//!   driver a loop's ingress queue, and both send through the same
//!   [`Resolver`] and take their names out again through the same
//!   [`Names`] guard.
//! * [`Transport`] / [`UdpTransport`] — one endpoint: a bound
//!   `std::net::UdpSocket` that encodes outbound packets to frames and
//!   decodes inbound datagrams, dropping (and counting) anything that does
//!   not parse. Untrusted bytes can error but never panic or over-allocate
//!   (`MAX_FRAME_BYTES` bounds every declared length). There is one send
//!   verb, `send_batch`, and with `recv_batch` it moves whole runs of
//!   datagrams per kernel crossing via the vendored `sendmmsg`/`recvmmsg`
//!   wrapper; `recv(deadline)` waits for the first packet.
//!   Receive is **one copy out of scratch, zero-copy from there**: the
//!   kernel writes into a private ring the endpoint never hands out, each
//!   datagram is copied once into an exactly-sized `Bytes`, and decode and
//!   every later hand-off (store, log, reply, history) share that copy by
//!   refcount — so nothing a consumer keeps pins more than the datagram it
//!   arrived in. The send side is unchanged: frames encode zero-copy into
//!   [`BufferPool`] buffers recycled once the sent payload drops.
//! * [`Adversary`] — a deterministic, seeded, sans-IO stage of that send
//!   path ([`UdpTransport::with_faults`]): configurable per-packet loss,
//!   duplication, and reordering of each outbound batch before it is
//!   coalesced, with shared [`FaultCounters`] so harnesses can assert the
//!   faults actually fired.
//!
//! Everything here is `std`-only (no async runtime, no extra dependencies):
//! the point is that the existing state machines and codec survive a *real*
//! asynchronous network, not to build one more I/O framework.

#![forbid(unsafe_code)]

pub mod addr;
pub mod coalesce;
pub mod fault;
pub mod pool;
pub mod transport;
pub mod udp;

pub use addr::{AddrBook, Names, Resolver};
pub use coalesce::{Coalescer, SealedDatagram};
pub use fault::{Adversary, FaultConfig, FaultCounters};
pub use pool::{BufferPool, PoolStats};
pub use transport::{RecvError, Transport};
pub use udp::{TransportStats, UdpTransport};
