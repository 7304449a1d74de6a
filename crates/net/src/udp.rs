//! A [`Transport`] endpoint over one `std::net::UdpSocket`.

// Wall-clock reads are deliberate here: receive deadlines are real kernel time.
#![allow(clippy::disallowed_methods)]

use std::collections::VecDeque;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use harmonia_types::wire::{frames, Wire};
use harmonia_types::{NodeId, Packet};

use crate::addr::{AddrBook, Resolver};
use crate::coalesce::{Coalescer, SealedDatagram};
use crate::fault::{Adversary, FaultConfig, FaultCounters};
use crate::pool::PoolStats;
use crate::transport::{RecvError, Transport};

/// Frame and datagram counters of one endpoint (telemetry for tests and
/// examples).
///
/// Send accounting is *frame*-granular, so coalescing never hides a drop:
/// every resolved `(packet, destination)` attempt lands in exactly one of
/// `sent` or `send_errors` (a refused datagram charges every frame packed
/// inside it), every unresolvable packet in `unresolved`, and every
/// too-large packet in `oversized` (once — frame size is destination-
/// independent). The identity `sent + unresolved + oversized + send_errors
/// == attempts` is what `accounting_balances_across_all_send_outcomes` and
/// `coalesced_accounting_identity_and_frame_counters` pin.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames sent: handed to the kernel, or looped back to this very
    /// endpoint (one packet per destination = one frame; a coalesced
    /// datagram carries several).
    pub sent: u64,
    /// Datagrams sent, likewise. `sent / datagrams_sent` is the
    /// realized frames-per-datagram packing ratio (1.0 when every batch is
    /// one packet).
    pub datagrams_sent: u64,
    /// Frames successfully decoded into packets.
    pub received: u64,
    /// Sends whose destination did not resolve (dropped).
    pub unresolved: u64,
    /// Inbound datagrams rejected at the first bad frame (the rest of the
    /// datagram is dropped) — garbage, truncated frames, oversized
    /// declared lengths, or trailing junk after the last valid frame.
    pub decode_errors: u64,
    /// The subset of `decode_errors` datagrams whose valid frame prefix
    /// was still delivered (partial-datagram salvage): a malformed second
    /// frame never silently discards the valid first one.
    pub salvaged: u64,
    /// Outbound packets too large for one frame (dropped, never truncated).
    pub oversized: u64,
    /// Frames in datagrams the kernel refused to send (dropped; datagram
    /// semantics — the caller's retry loop owns recovery).
    pub send_errors: u64,
    /// Failed socket reconfigurations (arming the read timeout). The cache
    /// of the armed value is invalidated so the next wait retries; this
    /// wait degrades to polling against its own deadline.
    pub config_errors: u64,
}

impl TransportStats {
    /// Field-wise `self - earlier`, saturating at zero: the delta between
    /// two snapshots of a monotonically counting link, used to sync link
    /// counters into an observability recorder incrementally.
    pub fn since(&self, earlier: &TransportStats) -> TransportStats {
        TransportStats {
            sent: self.sent.saturating_sub(earlier.sent),
            datagrams_sent: self.datagrams_sent.saturating_sub(earlier.datagrams_sent),
            received: self.received.saturating_sub(earlier.received),
            unresolved: self.unresolved.saturating_sub(earlier.unresolved),
            decode_errors: self.decode_errors.saturating_sub(earlier.decode_errors),
            salvaged: self.salvaged.saturating_sub(earlier.salvaged),
            oversized: self.oversized.saturating_sub(earlier.oversized),
            send_errors: self.send_errors.saturating_sub(earlier.send_errors),
            config_errors: self.config_errors.saturating_sub(earlier.config_errors),
        }
    }
}

/// One node's UDP endpoint: a loopback socket plus the deployment's
/// [`AddrBook`].
///
/// A datagram holds one or more back-to-back
/// [`encode_frame`](harmonia_types::wire::encode_frame)-format frames, each
/// one `Packet<T>`: the one send path packs per-destination frames into
/// full datagrams (GSO-style, via the [`Coalescer`]) and the receive path
/// unpacks them with [`frames`] (GRO). Built
/// [`with_faults`](Self::with_faults), the endpoint puts a seeded
/// [`Adversary`] in front of that path. Inbound bytes that do not decode are
/// counted and discarded — the receive loop never panics and never
/// allocates beyond [`MAX_FRAME_BYTES`](harmonia_types::MAX_FRAME_BYTES) on
/// untrusted input; that hardening is what `tests/proptests.rs` pins.
///
/// Ownership is settled at this boundary: the kernel writes into a private
/// scratch ring that is never handed out, each received datagram is copied
/// **once** into a `Bytes` of exactly its length, and frames decode
/// zero-copy from that — so a payload a consumer keeps (a stored value, a
/// logged write, a read result) pins its own datagram's bytes, never a
/// datagram-sized buffer. The send side encodes zero-copy into pooled
/// buffers and is unaffected.
///
/// A datagram addressed to the endpoint's own socket is **looped back
/// inside the endpoint**: sealed by the coalescer, counted as sent, copied
/// and decoded exactly like a received one, and never handed to the kernel
/// — several nodes can share one endpoint, and a thread that bursts a
/// state transfer at a node it hosts itself is not draining its own
/// receive buffer meanwhile. [`Transport::take_queued`] hands such frames
/// out without a syscall.
///
/// An **empty** datagram is not a frame but a wake-up
/// ([`wake`](Self::wake)): it ends a blocking receive at once with
/// [`RecvError::Woken`], delivers nothing and counts nothing, so a thread
/// asleep on this socket can be told to look at whatever else it waits on.
pub struct UdpTransport<T> {
    socket: UdpSocket,
    /// The deployment's book as this sender sees it: one atomic load per
    /// send, no lock.
    names: Resolver,
    local: SocketAddr,
    /// Receive scratch: the kernel writes here, `decode_ring` copies each
    /// datagram out, the next receive overwrites it.
    ring: mmsg::RecvRing,
    /// `misses`: scratch buffers allocated (the ring, once, at bind);
    /// `hits`: datagrams received into an already-allocated one.
    recv_pool: PoolStats,
    /// The send path: frames encode zero-copy into pooled per-destination
    /// datagram buffers, packed GSO-style until a datagram fills.
    coalescer: Coalescer,
    /// Sealed datagrams awaiting their kernel flush, reused across calls.
    sealed_scratch: Vec<SealedDatagram>,
    /// Per-datagram send outcomes from the last `sendmmsg` run, reused.
    ok_scratch: Vec<bool>,
    /// Frames decoded out of a multi-frame datagram but not yet handed to
    /// the caller (one datagram can out-fill a `recv_batch` budget).
    decoded: VecDeque<Packet<T>>,
    stats: TransportStats,
    /// The read timeout the (always blocking) socket is armed with, in
    /// `SO_RCVTIMEO`'s own encoding — zero is no timeout, as on a fresh
    /// socket — so steady-state receive loops, which wait with the same
    /// timeout over and over, skip the `setsockopt`. `None`: not known.
    read_timeout: Option<Duration>,
    /// The fault stage in front of the send path; `None` on a clean
    /// endpoint.
    adversary: Option<Adversary<T>>,
}

impl<T> UdpTransport<T> {
    /// Bind a fresh endpoint on an ephemeral loopback port. The endpoint is
    /// anonymous until the caller registers its
    /// [`local_addr`](Self::local_addr) in the book under a `NodeId` (or
    /// hands it to the spine entry).
    pub fn bind(book: Arc<AddrBook>) -> std::io::Result<Self> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        let local = socket.local_addr()?;
        Ok(UdpTransport {
            socket,
            names: Resolver::new(book),
            local,
            // One datagram is at most u16::MAX bytes; the codec's frame
            // bound is tighter, but the slots cover the whole datagram so
            // oversized garbage is drained (and counted), not left queued.
            ring: mmsg::RecvRing::new(usize::from(u16::MAX)),
            recv_pool: PoolStats { hits: 0, misses: 1 },
            // The coalescer clamps its budget to MAX_FRAME_BYTES (the
            // largest sendable datagram) and recycles sealed payloads
            // through its own send-side pool.
            coalescer: Coalescer::new(usize::from(u16::MAX), 4 * mmsg::MAX_BATCH),
            sealed_scratch: Vec::new(),
            ok_scratch: Vec::new(),
            decoded: VecDeque::new(),
            stats: TransportStats::default(),
            read_timeout: Some(Duration::ZERO),
            adversary: None,
        })
    }

    /// This endpoint with seeded loss, duplication and reordering on every
    /// send ([`Adversary`]): `cfg`'s decisions drawn from `seed`, tallied
    /// into `counters`.
    pub fn with_faults(
        mut self,
        cfg: FaultConfig,
        seed: u64,
        counters: Arc<FaultCounters>,
    ) -> Self {
        self.adversary = Some(Adversary::new(cfg, seed, counters));
        self
    }

    /// The socket address this endpoint receives on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Datagram counters so far.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Receive-buffer counters so far: a miss is a receive buffer that had
    /// to be allocated — the scratch ring, once — and every datagram since
    /// is a hit.
    pub fn pool_stats(&self) -> PoolStats {
        self.recv_pool
    }

    /// Send-pool checkout counters so far — steady-state sending recycles
    /// sealed datagram buffers instead of allocating.
    pub fn send_pool_stats(&self) -> PoolStats {
        self.coalescer.pool_stats()
    }

    /// Copy the first `got` datagrams of the last receive out of the
    /// scratch ring — the one copy on the receive path — and decode each
    /// into the delivery queue. An empty one is a wake-up: skipped,
    /// uncounted, and reported by the return value.
    fn decode_ring(&mut self, got: usize) -> bool
    where
        T: Wire,
    {
        let mut woken = false;
        for i in 0..got {
            let datagram = self.ring.datagram(i);
            if datagram.is_empty() {
                woken = true;
                continue;
            }
            self.recv_pool.hits += 1;
            let datagram = Bytes::copy_from_slice(datagram);
            self.decode_datagram(datagram);
        }
        woken
    }

    /// Decode one whole datagram (an exactly-sized copy of what was
    /// received) into the delivery queue. A datagram carries one or more
    /// back-to-back frames: every valid frame from the front is delivered;
    /// the first malformed or truncated frame rejects the *rest* of the
    /// datagram ([`TransportStats::decode_errors`]), with
    /// [`TransportStats::salvaged`] marking datagrams whose valid prefix
    /// was still delivered. "All bytes consumed by valid frames" is the
    /// clean-accept condition — the multi-frame generalization of the old
    /// one-datagram-one-frame `used == datagram_len` check.
    fn decode_datagram(&mut self, datagram: Bytes)
    where
        T: Wire,
    {
        let mut delivered = 0u64;
        let mut bad_tail = false;
        for item in frames::<Packet<T>>(&datagram) {
            match item {
                Ok(pkt) => {
                    self.decoded.push_back(pkt);
                    delivered += 1;
                }
                // Untrusted bytes must never take the endpoint down: the
                // iterator fuses after the first error, so the bad tail is
                // dropped and counted, nothing more.
                Err(_) => bad_tail = true,
            }
        }
        self.stats.received += delivered;
        if bad_tail {
            self.stats.decode_errors += 1;
            if delivered > 0 {
                self.stats.salvaged += 1;
            }
        }
    }

    /// Move up to `max` already-decoded packets into `out`.
    fn pop_decoded(&mut self, out: &mut Vec<Packet<T>>, max: usize) -> usize {
        let n = max.min(self.decoded.len());
        out.extend(self.decoded.drain(..n));
        n
    }

    /// Deliver every sealed datagram addressed to this endpoint's own socket
    /// to its own delivery queue — the same copy and the same decode as a
    /// received one, no kernel in between — and leave the rest, in order,
    /// for the socket.
    fn loop_back(&mut self)
    where
        T: Wire,
    {
        let local = self.local;
        let mut sealed = std::mem::take(&mut self.sealed_scratch);
        sealed.retain(|d| {
            if d.dst != local {
                return true;
            }
            self.stats.sent += u64::from(d.frames);
            self.stats.datagrams_sent += 1;
            // Copied out of the pooled send buffer for the reason a datagram
            // is copied out of the ring: what a consumer keeps must pin its
            // own bytes, not a datagram-sized buffer.
            self.decode_datagram(Bytes::copy_from_slice(&d.payload));
            false
        });
        self.sealed_scratch = sealed;
    }

    /// Seal every open datagram, loop back those addressed to this
    /// endpoint, and send the rest through one `sendmmsg` run with
    /// per-datagram outcomes, crediting the frame-granular counters: an
    /// accepted datagram credits every frame it carries to `sent`, a
    /// refused one charges them all to `send_errors`.
    fn flush(&mut self)
    where
        T: Wire,
    {
        self.coalescer.finish(&mut self.sealed_scratch);
        self.loop_back();
        if self.sealed_scratch.is_empty() {
            return;
        }
        self.ok_scratch.clear();
        self.ok_scratch.resize(self.sealed_scratch.len(), false);
        let msgs: Vec<(SocketAddr, &[u8])> = self
            .sealed_scratch
            .iter()
            .map(|d| (d.dst, &d.payload[..]))
            .collect();
        let _ = mmsg::send_batch_outcomes(&self.socket, &msgs, &mut self.ok_scratch);
        drop(msgs);
        for (d, ok) in self.sealed_scratch.drain(..).zip(&self.ok_scratch) {
            if *ok {
                self.stats.sent += u64::from(d.frames);
                self.stats.datagrams_sent += 1;
            } else {
                self.stats.send_errors += u64::from(d.frames);
            }
        }
    }

    /// The deployment's address book.
    pub fn book(&self) -> &Arc<AddrBook> {
        self.names.book()
    }

    /// Resolve `to` and encode `pkt` zero-copy into a pooled datagram
    /// buffer per destination, sealing the datagrams that fill. Resolved
    /// before encoding: an unresolvable destination (e.g. a killed switch
    /// mid-§5.3) costs one atomic load, not a full codec pass on a frame
    /// that would only be discarded.
    fn stage(&mut self, to: NodeId, pkt: &Packet<T>)
    where
        T: Wire,
    {
        let dsts = self.names.resolve(to, &pkt.body);
        if dsts.is_empty() {
            self.stats.unresolved += 1;
            return;
        }
        for &dst in dsts {
            if self
                .coalescer
                .push(dst, pkt, &mut self.sealed_scratch)
                .is_err()
            {
                // Too big for one frame: dropping beats truncating — the
                // peer would reject a cut frame anyway, and the client's
                // retry/timeout loop owns recovery. Counted once: frame
                // size does not depend on the destination, so every push
                // would refuse alike.
                self.stats.oversized += 1;
                break;
            }
        }
    }

    /// Arm the socket's read timeout for a blocking wait of `remaining`
    /// (`None`: no timeout), rounded up to whole milliseconds — so a loop
    /// that waits in equal slices (each measured a few µs short of the
    /// slice) arms once and is recv-only from then on. The kernel still
    /// counts the wait in jiffies: on a `CONFIG_HZ=250` host a 1 ms timeout
    /// measured 6.4–16.3 ms. Returns whether the socket is armed.
    fn arm_read_timeout(&mut self, remaining: Option<Duration>) -> bool {
        let wait = remaining.map_or(Duration::ZERO, |left| {
            Duration::from_millis(left.as_micros().div_ceil(1000) as u64)
        });
        if self.read_timeout == Some(wait) {
            return true;
        }
        match self
            .socket
            .set_read_timeout((!wait.is_zero()).then_some(wait))
        {
            Ok(()) => self.read_timeout = Some(wait),
            // A failed setsockopt leaves the previous (or no) timeout armed:
            // count it and clear the cache so the next wait retries instead
            // of trusting a timeout that was never applied. The caller waits
            // on `wait_readable` against its own deadline meanwhile — never
            // a hang or a panic on live traffic.
            Err(_) => {
                self.stats.config_errors += 1;
                self.read_timeout = None;
            }
        }
        self.read_timeout.is_some()
    }

    /// Wake whichever endpoint receives at `at`: send it an empty datagram,
    /// which ends its blocking receive with [`RecvError::Woken`] and carries
    /// nothing. Loopback loses a datagram only to a full receive buffer,
    /// and a receiver with a full buffer does not sleep. Counts nothing,
    /// here or there.
    pub fn wake(&self, at: SocketAddr) {
        let _ = self.socket.send_to(&[], at);
    }

    /// Send what the adversary holds back, if anything: the endpoint is
    /// about to wait or to hand out what it holds, and a sender going quiet
    /// must not strand a held packet — which may be addressed to this very
    /// endpoint.
    fn release_held(&mut self)
    where
        T: Wire,
    {
        if let Some((to, pkt)) = self.adversary.as_mut().and_then(Adversary::release) {
            self.stage(to, &pkt);
            self.flush();
        }
    }
}

impl<T: Wire + Clone + Send> Transport<T> for UdpTransport<T> {
    /// The one send path: the adversary, when there is one, rewrites the
    /// batch; every packet is resolved and encoded zero-copy into
    /// per-destination pooled datagram buffers — GSO-style coalescing
    /// packs frames back-to-back until a datagram fills — and the sealed
    /// datagrams go to the kernel through `sendmmsg`
    /// ([`mmsg::send_batch_outcomes`]): one kernel crossing per
    /// [`mmsg::MAX_BATCH`] *datagrams*, each carrying many frames. No frame
    /// is cloned anywhere on this path but a duplicate's.
    fn send_batch(&mut self, batch: &mut Vec<(NodeId, Packet<T>)>) {
        if let Some(adversary) = &mut self.adversary {
            adversary.apply(batch);
        }
        for (to, pkt) in batch.drain(..) {
            self.stage(to, &pkt);
        }
        self.flush();
    }

    /// A wait of a millisecond or more, and an untimed one, sleeps on the
    /// socket's armed read timeout. A sub-millisecond remainder, which that
    /// timeout would overshoot by jiffies, is slept in
    /// [`mmsg::wait_readable`] and ends in a nonblocking poll — so a loop
    /// that ticks faster than a jiffy (VR and NOPaxos: 200µs) sleeps
    /// between ticks instead of spinning on polls.
    fn recv(&mut self, deadline: Option<Instant>) -> Result<Packet<T>, RecvError> {
        self.release_held();
        // Frames already unpacked from an earlier multi-frame datagram
        // deliver first, without touching the socket.
        if let Some(pkt) = self.decoded.pop_front() {
            return Ok(pkt);
        }
        loop {
            let remaining = deadline.map(|at| at.saturating_duration_since(Instant::now()));
            // `set_read_timeout(Some(0))` is an error by contract, and the
            // kernel counts a read timeout in jiffies (a 1 ms one measured
            // 6.4–16.3 ms on a `CONFIG_HZ=250` host): only block on it for
            // remainders of a millisecond or more. The threshold sits below
            // 1ms because `remaining` is measured *after* the caller's
            // deadline was taken — a caller asking for exactly 1ms has
            // always lost a few µs by now, and it must keep its armed,
            // recv-only wait.
            let blocking = remaining.is_none_or(|left| left >= Duration::from_micros(900));
            // The socket stays in blocking mode for good: polls go through
            // the ring's `MSG_DONTWAIT` drain, so neither kind of receive
            // reconfigures the socket for the other.
            let got = if blocking && self.arm_read_timeout(remaining) {
                self.ring.wait(&self.socket)
            } else {
                mmsg::wait_readable(&self.socket, remaining.unwrap_or(Duration::MAX));
                self.ring.recv(&self.socket, 1)
            };
            let woken = self.decode_ring(got);
            if let Some(pkt) = self.decoded.pop_front() {
                return Ok(pkt);
            }
            if woken {
                return Err(RecvError::Woken);
            }
            // Nothing deliverable: a poll that found the queue empty is
            // done (whatever was left of the deadline was slept before it);
            // a datagram of garbage, a timed-out wait or a transient
            // kernel error (e.g. ECONNRESET from an ICMP port-unreachable
            // on a dead peer) keeps listening until the deadline.
            if got == 0 && !blocking {
                return Err(RecvError::TimedOut);
            }
        }
    }

    /// Batched drain: pull up to `max - already-queued` datagrams per
    /// `recvmmsg` call ([`mmsg::RecvRing::recv`]) into the scratch ring,
    /// copy each out once and unpack its frames zero-copy from the copy. A
    /// coalesced datagram can carry more frames than the remaining budget;
    /// the overflow stays queued and delivers first on the next call. The
    /// socket's read mode is left alone, so the blocking wait that follows
    /// a drain finds its timeout still armed.
    fn recv_batch(&mut self, out: &mut Vec<Packet<T>>, max: usize) -> usize {
        let mut delivered = self.pop_decoded(out, max);
        while delivered < max {
            let want = (max - delivered).min(mmsg::MAX_BATCH);
            let got = self.ring.recv(&self.socket, want);
            self.decode_ring(got);
            delivered += self.pop_decoded(out, max - delivered);
            if got < want {
                break; // queue drained
            }
        }
        delivered
    }

    /// Everything already decoded — looped back by this endpoint's own
    /// sends, or the rest of a multi-frame datagram — and no syscall.
    fn take_queued(&mut self, out: &mut Vec<Packet<T>>) -> usize {
        self.release_held();
        self.pop_decoded(out, usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_types::{ClientId, ClientRequest, ReplicaId, RequestId, SwitchId};
    use harmonia_workload::ShardMap;

    type Pkt = Packet<u64>;

    /// A one-packet batch: one frame in one datagram, the per-frame
    /// reference.
    fn send1(t: &mut UdpTransport<u64>, to: NodeId, pkt: Pkt) {
        t.send_batch(&mut vec![(to, pkt)]);
    }

    fn within(wait: Duration) -> Option<Instant> {
        Some(Instant::now() + wait)
    }

    fn pair() -> (Arc<AddrBook>, UdpTransport<u64>, UdpTransport<u64>) {
        let book = Arc::new(AddrBook::new());
        let a = UdpTransport::bind(Arc::clone(&book)).unwrap();
        let b = UdpTransport::bind(Arc::clone(&book)).unwrap();
        book.register(NodeId::Client(ClientId(1)), a.local_addr());
        book.register(NodeId::Replica(ReplicaId(0)), b.local_addr());
        (book, a, b)
    }

    #[test]
    fn datagram_roundtrip_between_endpoints() {
        let (_book, mut a, mut b) = pair();
        let pkt: Pkt = Packet::new(
            NodeId::Client(ClientId(1)),
            NodeId::Replica(ReplicaId(0)),
            harmonia_types::PacketBody::Protocol(0xfeed),
        );
        send1(&mut a, NodeId::Replica(ReplicaId(0)), pkt.clone());
        let got = b.recv(within(Duration::from_secs(2))).unwrap();
        assert_eq!(got, pkt);
        assert_eq!(a.stats().sent, 1);
        assert_eq!(b.stats().received, 1);

        // A deadline already past is a nonblocking poll: it drains a
        // queued datagram, and returns TimedOut on an empty queue.
        send1(&mut a, NodeId::Replica(ReplicaId(0)), pkt.clone());
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(b.recv(Some(Instant::now())).unwrap(), pkt);
        assert_eq!(
            b.recv(Some(Instant::now())),
            Err(crate::transport::RecvError::TimedOut)
        );
    }

    #[test]
    fn unresolved_destination_is_dropped_not_an_error() {
        let (_book, mut a, _b) = pair();
        let pkt: Pkt = Packet::new(
            NodeId::Client(ClientId(1)),
            NodeId::Replica(ReplicaId(42)),
            harmonia_types::PacketBody::Protocol(1),
        );
        send1(&mut a, NodeId::Replica(ReplicaId(42)), pkt);
        assert_eq!(a.stats().unresolved, 1);
        assert_eq!(a.stats().sent, 0);
    }

    #[test]
    fn garbage_datagrams_are_counted_and_skipped() {
        let (_book, mut a, mut b) = pair();
        // Raw garbage straight to b's socket, then a valid frame with a
        // junk tail (the salvage case: the frame delivers, the tail is
        // rejected and counted), then a valid packet: the receive loop must
        // count all three rejects and deliver both packets.
        let raw = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        raw.send_to(&[0xff; 40], b.local_addr()).unwrap();
        raw.send_to(&[1, 2], b.local_addr()).unwrap();
        let pkt: Pkt = Packet::new(
            NodeId::Client(ClientId(1)),
            NodeId::Replica(ReplicaId(0)),
            harmonia_types::PacketBody::Protocol(3),
        );
        let mut padded = harmonia_types::wire::encode_frame(&pkt).unwrap().to_vec();
        padded.extend_from_slice(&[0xde, 0xad]);
        raw.send_to(&padded, b.local_addr()).unwrap();
        send1(&mut a, NodeId::Replica(ReplicaId(0)), pkt.clone());
        // Salvaged out of the padded datagram, ahead of a's clean send.
        let got = b.recv(within(Duration::from_secs(2))).unwrap();
        assert_eq!(got, pkt);
        assert_eq!(b.recv(within(Duration::from_secs(2))).unwrap(), pkt);
        let s = b.stats();
        assert_eq!(s.decode_errors, 3);
        assert_eq!(s.salvaged, 1, "only the padded datagram had a prefix");
        assert_eq!(s.received, 2);
    }

    /// An empty datagram is a wake-up: it ends a 5 s receive, and an untimed
    /// one, within milliseconds of being sent, delivers nothing and counts
    /// nothing — no decode error, no receive-buffer hit — and the endpoint
    /// receives as before afterwards.
    #[test]
    fn an_empty_datagram_wakes_a_blocking_receive_and_counts_nothing() {
        let (_book, a, mut b) = pair();
        let at = b.local_addr();
        let (rang_tx, rang) = std::sync::mpsc::channel();
        let waker = std::thread::spawn(move || {
            for _ in 0..2 {
                std::thread::sleep(Duration::from_millis(50));
                rang_tx.send(Instant::now()).unwrap();
                a.wake(at);
            }
            a
        });
        let woken = |wait: &str, got: Result<Pkt, RecvError>| {
            let woke = Instant::now();
            assert_eq!(got, Err(RecvError::Woken), "{wait}");
            let late = woke.duration_since(rang.recv().unwrap());
            assert!(
                late < Duration::from_millis(250),
                "{wait}: woken {late:?} late"
            );
        };
        woken("5 s", b.recv(within(Duration::from_secs(5))));
        woken("untimed", b.recv(None));
        let mut a = waker.join().unwrap();
        let pkt: Pkt = Packet::new(
            NodeId::Client(ClientId(1)),
            NodeId::Replica(ReplicaId(0)),
            harmonia_types::PacketBody::Protocol(5),
        );
        send1(&mut a, NodeId::Replica(ReplicaId(0)), pkt.clone());
        assert_eq!(b.recv(None), Ok(pkt));
        let s = b.stats();
        assert_eq!((s.received, s.decode_errors, s.salvaged), (1, 0, 0));
        assert_eq!(b.pool_stats(), PoolStats { hits: 1, misses: 1 });
    }

    #[test]
    fn accounting_balances_across_all_send_outcomes() {
        let (book, mut a, _b) = pair();
        // A destination that resolves but the kernel refuses: port 0.
        book.register(
            NodeId::Replica(ReplicaId(7)),
            "127.0.0.1:0".parse().unwrap(),
        );
        let mk = |body| {
            Packet::new(
                NodeId::Client(ClientId(1)),
                NodeId::Replica(ReplicaId(0)),
                body,
            )
        };

        // 1: delivered.
        send1(
            &mut a,
            NodeId::Replica(ReplicaId(0)),
            mk(harmonia_types::PacketBody::Protocol(1)),
        );
        // 2: unresolved destination.
        send1(
            &mut a,
            NodeId::Replica(ReplicaId(42)),
            mk(harmonia_types::PacketBody::Protocol(2)),
        );
        // 3: oversized frame (value field larger than one datagram).
        let huge = ClientRequest::write(
            ClientId(1),
            RequestId(3),
            &b"k"[..],
            vec![0u8; harmonia_types::MAX_FRAME_BYTES],
        );
        send1(
            &mut a,
            NodeId::Replica(ReplicaId(0)),
            mk(harmonia_types::PacketBody::Request(huge)),
        );
        // 4: kernel-refused send.
        send1(
            &mut a,
            NodeId::Replica(ReplicaId(7)),
            mk(harmonia_types::PacketBody::Protocol(4)),
        );

        let s = a.stats();
        assert_eq!(s.sent, 1);
        assert_eq!(s.unresolved, 1);
        assert_eq!(s.oversized, 1);
        assert_eq!(s.send_errors, 1);
        // The books balance: four attempts, four counters.
        assert_eq!(s.sent + s.unresolved + s.oversized + s.send_errors, 4);
    }

    #[test]
    fn sub_millisecond_timeout_does_not_overshoot() {
        let (_book, _a, mut b) = pair();
        // The socket's receive timeout counts whole jiffies (a 1ms one
        // measured 6.4–16.3ms at `CONFIG_HZ=250`), so a 100µs deadline must
        // not wait on it. The *minimum* observed latency is the
        // discriminator: the armed-timeout path never returns under 1ms;
        // the `ppoll` sleep is 100µs plus timer slack. (Max is scheduler
        // noise either way.)
        let mut min = Duration::MAX;
        for _ in 0..10 {
            let t0 = Instant::now();
            let _ = b.recv(within(Duration::from_micros(100)));
            min = min.min(t0.elapsed());
        }
        assert!(
            min < Duration::from_micros(900),
            "sub-ms recv_timeout blocked in the kernel: min {min:?}"
        );
        // Nor does it come back at once for the caller to spin on: where
        // there is a `ppoll`, the 100µs are slept.
        if mmsg::accelerated() {
            assert!(
                min >= Duration::from_micros(100),
                "sub-ms recv_timeout did not sleep: min {min:?}"
            );
        }
    }

    #[test]
    fn equal_wait_slices_keep_one_armed_timeout_across_polls_and_drains() {
        let (_book, _a, mut b) = pair();
        // The remainder actually waited is a few µs short of the slice and
        // differs on every call; rounded up it is the same armed value, and
        // neither a poll nor a batched drain touches the socket's mode.
        let slice = Duration::from_millis(1);
        for _ in 0..5 {
            assert!(b.recv(within(slice)).is_err());
            assert_eq!(b.read_timeout, Some(slice));
            assert_eq!(b.recv_batch(&mut Vec::new(), 32), 0);
            assert!(b.recv(Some(Instant::now())).is_err());
            assert_eq!(b.read_timeout, Some(slice));
        }
        assert_eq!(b.stats().config_errors, 0);
    }

    #[test]
    fn batch_verbs_roundtrip_and_match_scalar_counters() {
        let (_book, mut a, mut b) = pair();
        let mk = |i: u64| -> (NodeId, Pkt) {
            (
                NodeId::Replica(ReplicaId(0)),
                Packet::new(
                    NodeId::Client(ClientId(1)),
                    NodeId::Replica(ReplicaId(0)),
                    harmonia_types::PacketBody::Protocol(i),
                ),
            )
        };
        let n = 50u64;
        let mut batch: Vec<(NodeId, Pkt)> = (0..n).map(mk).collect();
        a.send_batch(&mut batch);
        assert!(batch.is_empty(), "send_batch must drain its input");
        assert_eq!(a.stats().sent, n);

        // Wait for the first packet, then batch-drain the rest.
        let mut got = vec![b.recv(within(Duration::from_secs(2))).unwrap()];
        let deadline = Instant::now() + Duration::from_secs(2);
        while (got.len() as u64) < n && Instant::now() < deadline {
            if b.recv_batch(&mut got, 64) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(got.len() as u64, n);
        // In-order on loopback, and payloads intact.
        for (i, pkt) in got.iter().enumerate() {
            assert_eq!(*pkt, mk(i as u64).1);
        }
        assert_eq!(b.stats().received, n);
        // 50 small frames to one destination coalesce into one datagram.
        assert_eq!(a.stats().datagrams_sent, 1);
    }

    #[test]
    fn coalesced_accounting_identity_and_frame_counters() {
        let (book, mut a, mut b) = pair();
        book.register(
            NodeId::Replica(ReplicaId(7)),
            "127.0.0.1:0".parse().unwrap(),
        );
        let mk = |to: u32, i: u64| -> (NodeId, Pkt) {
            (
                NodeId::Replica(ReplicaId(to)),
                Packet::new(
                    NodeId::Client(ClientId(1)),
                    NodeId::Replica(ReplicaId(to)),
                    harmonia_types::PacketBody::Protocol(i),
                ),
            )
        };
        // 10 deliverable frames, 5 frames coalesced into one datagram the
        // kernel refuses (port 0), 1 unresolved, 1 oversized: the identity
        // must cover every attempt with `sent` in frame units.
        let mut batch: Vec<(NodeId, Pkt)> = (0..10).map(|i| mk(0, i)).collect();
        batch.extend((0..5).map(|i| mk(7, 100 + i)));
        batch.push(mk(42, 0));
        let huge = ClientRequest::write(
            ClientId(1),
            RequestId(3),
            &b"k"[..],
            vec![0u8; harmonia_types::MAX_FRAME_BYTES],
        );
        batch.push((
            NodeId::Replica(ReplicaId(0)),
            Packet::new(
                NodeId::Client(ClientId(1)),
                NodeId::Replica(ReplicaId(0)),
                harmonia_types::PacketBody::Request(huge),
            ),
        ));
        let attempts = batch.len() as u64;
        a.send_batch(&mut batch);
        let s = a.stats();
        assert_eq!(s.sent, 10, "sent counts frames, not datagrams");
        assert_eq!(s.datagrams_sent, 1, "10 small frames pack into one");
        assert_eq!(s.send_errors, 5, "a refused datagram charges its frames");
        assert_eq!(s.unresolved, 1);
        assert_eq!(s.oversized, 1);
        // The books balance, frame-granular.
        assert_eq!(
            s.sent + s.unresolved + s.oversized + s.send_errors,
            attempts
        );

        // The coalesced datagram unpacks to the 10 frames, in order.
        let mut got = vec![b.recv(within(Duration::from_secs(2))).unwrap()];
        let deadline = Instant::now() + Duration::from_secs(2);
        while got.len() < 10 && Instant::now() < deadline {
            if b.recv_batch(&mut got, 64) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let want: Vec<Pkt> = (0..10).map(|i| mk(0, i).1).collect();
        assert_eq!(got, want);
        assert_eq!(b.stats().received, 10);
        assert_eq!(b.stats().decode_errors, 0);
    }

    #[test]
    fn a_one_packet_batch_is_one_datagram() {
        let (_book, mut a, mut b) = pair();
        let mk = |i: u64| -> (NodeId, Pkt) {
            (
                NodeId::Replica(ReplicaId(0)),
                Packet::new(
                    NodeId::Client(ClientId(1)),
                    NodeId::Replica(ReplicaId(0)),
                    harmonia_types::PacketBody::Protocol(i),
                ),
            )
        };
        // Every batch is flushed before the call returns: one packet per
        // batch is the per-frame baseline.
        for (to, pkt) in (0..10).map(mk) {
            send1(&mut a, to, pkt);
        }
        let s = a.stats();
        assert_eq!(s.sent, 10);
        assert_eq!(s.datagrams_sent, 10, "one datagram per frame");
        let mut got = vec![b.recv(within(Duration::from_secs(2))).unwrap()];
        let deadline = Instant::now() + Duration::from_secs(2);
        while got.len() < 10 && Instant::now() < deadline {
            if b.recv_batch(&mut got, 64) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(got, (0..10).map(|i| mk(i).1).collect::<Vec<_>>());
    }

    #[test]
    fn steady_state_send_is_allocation_free() {
        let (_book, mut a, mut b) = pair();
        let mk = |i: u64| -> (NodeId, Pkt) {
            (
                NodeId::Replica(ReplicaId(0)),
                Packet::new(
                    NodeId::Client(ClientId(1)),
                    NodeId::Replica(ReplicaId(0)),
                    harmonia_types::PacketBody::Protocol(i),
                ),
            )
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        for round in 0..200u64 {
            let mut batch: Vec<(NodeId, Pkt)> = (0..8).map(|i| mk(round * 8 + i)).collect();
            a.send_batch(&mut batch);
            // Drain each burst so the receive socket buffer never fills.
            let mut got = Vec::new();
            while got.len() < 8 && Instant::now() < deadline {
                if b.recv_batch(&mut got, 32) == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            assert_eq!(got.len(), 8);
        }
        let s = a.send_pool_stats();
        assert!(
            s.misses <= 2,
            "steady-state send allocated {} times",
            s.misses
        );
        assert!(
            s.hit_rate() > 0.95,
            "send-pool hit rate {:.3}",
            s.hit_rate()
        );
        // Every burst coalesced: far fewer datagrams than frames.
        let t = a.stats();
        assert_eq!(t.sent, 1600);
        assert_eq!(t.datagrams_sent, 200);
    }

    #[test]
    fn steady_state_receive_is_allocation_free() {
        let (_book, mut a, mut b) = pair();
        let pkt: Pkt = Packet::new(
            NodeId::Client(ClientId(1)),
            NodeId::Replica(ReplicaId(0)),
            harmonia_types::PacketBody::Protocol(9),
        );
        // Steady state: one packet in flight at a time, payload dropped
        // before the next receive, so the pool always has a reclaimable
        // buffer. Everything after warm-up must be a pool hit.
        let rounds = 200u64;
        for _ in 0..rounds {
            send1(&mut a, NodeId::Replica(ReplicaId(0)), pkt.clone());
            let got = b.recv(within(Duration::from_secs(2))).unwrap();
            assert_eq!(got, pkt);
        }
        let s = b.pool_stats();
        assert!(
            s.misses <= 2,
            "steady-state receive allocated {} times",
            s.misses
        );
        assert!(s.hit_rate() > 0.95, "pool hit rate {:.3}", s.hit_rate());
    }

    /// One endpoint can answer to several names, and a thread that sends to
    /// a name of its own endpoint is not receiving meanwhile: 4.8 MB handed
    /// to the kernel would overflow the socket's receive buffer (~208 KB)
    /// some twenty times over. Looped back inside the endpoint, every frame
    /// arrives — through the coalescer and the frame decoder like any
    /// other — and is counted as sent and as received.
    #[test]
    fn a_burst_to_the_endpoints_own_address_arrives_whole_and_in_order() {
        let (book, mut a, mut b) = pair();
        let own = NodeId::Replica(ReplicaId(5));
        book.register(own, a.local_addr());
        let big = |i: u64| -> Pkt {
            let req =
                ClientRequest::write(ClientId(1), RequestId(i), &b"k"[..], vec![i as u8; 48_000]);
            Packet::new(
                NodeId::Client(ClientId(1)),
                own,
                harmonia_types::PacketBody::Request(req),
            )
        };
        let mut batch: Vec<(NodeId, Pkt)> = (0..100).map(|i| (own, big(i))).collect();
        // One frame in the middle goes to the neighbour, through the kernel.
        let other: Pkt = Packet::new(
            NodeId::Client(ClientId(1)),
            NodeId::Replica(ReplicaId(0)),
            harmonia_types::PacketBody::Protocol(7),
        );
        batch.insert(50, (NodeId::Replica(ReplicaId(0)), other.clone()));
        a.send_batch(&mut batch);
        let mut got = Vec::new();
        while a.recv_batch(&mut got, 32) > 0 {}
        assert_eq!(got.len(), 100);
        for (i, pkt) in got.iter().enumerate() {
            assert_eq!(*pkt, big(i as u64), "frame {i}");
        }
        // A one-packet batch loops back too.
        send1(&mut a, own, big(100));
        assert_eq!(a.recv(Some(Instant::now())).unwrap(), big(100));
        assert_eq!(b.recv(within(Duration::from_secs(2))).unwrap(), other);

        let s = a.stats();
        assert_eq!(s.sent, 102);
        // Two 48 KB frames do not fit one datagram.
        assert_eq!(s.datagrams_sent, 102);
        assert_eq!(s.received, 101);
        assert_eq!(s.unresolved + s.oversized + s.send_errors, 0);
        assert_eq!(s.decode_errors, 0);
    }

    /// Under the adversary a held packet goes out when the endpoint next
    /// looks at what it holds — and one addressed to the endpoint itself
    /// is then among what it holds.
    #[test]
    fn take_queued_releases_a_held_packet_first() {
        let (book, a, _b) = pair();
        let own = NodeId::Client(ClientId(9));
        book.register(own, a.local_addr());
        let cfg = FaultConfig {
            reorder_prob: 1.0,
            ..FaultConfig::default()
        };
        let counters = Arc::new(FaultCounters::default());
        let mut a = a.with_faults(cfg, 3, Arc::clone(&counters));
        let pkt: Pkt = Packet::new(own, own, harmonia_types::PacketBody::Protocol(1));
        send1(&mut a, own, pkt.clone());
        assert_eq!(a.stats().sent, 0, "held back");
        let mut got = Vec::new();
        assert_eq!(a.take_queued(&mut got), 1);
        assert_eq!(got, [pkt]);
        assert_eq!(counters.snapshot(), (0, 0, 1));
    }

    #[test]
    fn spine_entry_routes_to_the_owning_group_socket() {
        let book = Arc::new(AddrBook::new());
        let mut sender = UdpTransport::<u64>::bind(Arc::clone(&book)).unwrap();
        let mut g0 = UdpTransport::<u64>::bind(Arc::clone(&book)).unwrap();
        let mut g1 = UdpTransport::<u64>::bind(Arc::clone(&book)).unwrap();
        let shards = ShardMap::new(2);
        let stable = NodeId::Switch(SwitchId(1));
        book.install_spine(vec![stable], shards, vec![g0.local_addr(), g1.local_addr()]);
        // Find one key per group and check delivery lands on that group.
        for want in 0..2u32 {
            let key = (0..100u32)
                .map(|i| format!("k{i}"))
                .find(|k| shards.shard_of_key(k.as_bytes()) == want)
                .unwrap();
            let req = ClientRequest::read(ClientId(1), RequestId(u64::from(want)), key);
            let pkt: Pkt = Packet::new(
                NodeId::Client(ClientId(1)),
                stable,
                harmonia_types::PacketBody::Request(req),
            );
            send1(&mut sender, stable, pkt.clone());
            let owner = if want == 0 { &mut g0 } else { &mut g1 };
            assert_eq!(owner.recv(within(Duration::from_secs(2))).unwrap(), pkt);
        }
        // The other group saw nothing.
        assert!(g0.recv(within(Duration::from_millis(10))).is_err());
        assert!(g1.recv(within(Duration::from_millis(10))).is_err());
    }
}
