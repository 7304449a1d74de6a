//! Property tests for the batched, zero-copy, coalescing UDP data plane.
//!
//! Six invariants, each pinned by proptest:
//!
//! 1. **Batch = scalar.** The `send_batch`/`recv_batch` verbs deliver the
//!    same packet sequence as looping the scalar verbs — over the
//!    `sendmmsg`/`recvmmsg` wrapper, over its portable std fallback, and
//!    through a seeded [`FaultyTransport`] (whose default batch verbs loop
//!    the scalar ones, so the same seed makes the same loss/dup/reorder
//!    schedule either way).
//! 2. **Scratch reuse never scribbles on a delivered packet.** Payloads
//!    held across a thousand later receives — scalar and batch verbs,
//!    multi-frame datagrams, garbage interleaved — stay byte-identical to
//!    what was sent: the endpoint's receive scratch is private, and what it
//!    delivers is a copy nothing else writes.
//! 3. **The wrapper is faithful.** `mmsg::send_batch`/`RecvRing::recv` and
//!    the std fallback move identical payload sequences.
//! 4. **Coalesced = per-frame.** GSO-style packing (the batch verb) changes
//!    how many frames share a datagram relative to the scalar verb, never
//!    which packets arrive or in what per-destination order — and under
//!    the fault adversary the *seeded schedule is identical* whichever verb
//!    the caller uses, because the wrapper's scalar loop flushes one frame
//!    per datagram underneath it (`datagrams_sent == sent`: the
//!    per-datagram fault envelope [`FaultyTransport`] documents).
//! 5. **Salvage is exact.** A multi-frame datagram cut at any byte and
//!    padded with garbage never panics the frame iterator, and every frame
//!    wholly before the cut is still delivered.
//! 6. **The send pool never aliases.** A sealed datagram's payload buffer
//!    is never reused while that payload is still in flight, across
//!    arbitrary push/finish/drop schedules.

// Wall-clock reads are deliberate here: live-cluster test: real-time deadlines.
#![allow(clippy::disallowed_methods)]

use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use harmonia::net::{
    AddrBook, Coalescer, FaultConfig, FaultCounters, FaultyTransport, SealedDatagram, Transport,
    UdpTransport,
};
use harmonia::types::wire::{encode_frame_into, frames};
use harmonia::types::{ClientId, ClientRequest, NodeId, Packet, PacketBody, ReplicaId, RequestId};
use proptest::prelude::*;

type Pkt = Packet<u64>;

fn pkt(n: u64) -> Pkt {
    Packet::new(
        NodeId::Client(ClientId(1)),
        NodeId::Replica(ReplicaId(0)),
        PacketBody::Protocol(n),
    )
}

/// Bind a (sender, receiver) UDP endpoint pair sharing one book, with the
/// receiver registered as Replica(0).
fn udp_pair() -> (UdpTransport<u64>, UdpTransport<u64>) {
    let book = Arc::new(AddrBook::new());
    let a = UdpTransport::bind(Arc::clone(&book)).unwrap();
    let b = UdpTransport::bind(Arc::clone(&book)).unwrap();
    book.register(NodeId::Replica(ReplicaId(0)), b.local_addr());
    (a, b)
}

/// Drain `n` packets from `b`, batched or scalar, tolerating loopback
/// delivery latency.
fn drain(b: &mut impl Transport<u64>, n: usize, batched: bool) -> Vec<Pkt> {
    let mut got = Vec::with_capacity(n);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while got.len() < n && std::time::Instant::now() < deadline {
        if batched {
            let want = n - got.len();
            if b.recv_batch(&mut got, want) == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
        } else if let Ok(p) = b.recv_timeout(Duration::from_millis(50)) {
            got.push(p);
        }
    }
    got
}

/// A write request: its key and value decode as `Bytes` slices of the
/// received datagram, so holding the packet holds receive-side memory.
fn write_pkt(n: u64, fill: u8, len: usize) -> Pkt {
    let req = ClientRequest::write(
        ClientId(1),
        RequestId(n),
        format!("key-{n}").into_bytes(),
        vec![fill; len],
    );
    Packet::new(
        NodeId::Client(ClientId(1)),
        NodeId::Replica(ReplicaId(0)),
        PacketBody::Request(req),
    )
}

/// Move `sent` from `a` to `b` one of four ways and return what `b`
/// delivered: 0 = scalar sends, scalar receives; 1 = one coalesced
/// multi-frame datagram, batch drain; 2 = scalar sends behind a garbage
/// datagram, batch drain; 3 = one hand-built multi-frame datagram with a
/// junk tail (the salvage path), scalar receives.
fn exchange(
    a: &mut UdpTransport<u64>,
    b: &mut UdpTransport<u64>,
    raw: &UdpSocket,
    how: u8,
    sent: &[Pkt],
) -> Vec<Pkt> {
    let (to, how) = (NodeId::Replica(ReplicaId(0)), how % 4);
    match how {
        0 => sent.iter().for_each(|p| a.send(to, p.clone())),
        1 => a.send_batch(&mut sent.iter().map(|p| (to, p.clone())).collect()),
        2 => {
            raw.send_to(&[0xff; 40], b.local_addr()).unwrap();
            sent.iter().for_each(|p| a.send(to, p.clone()));
        }
        _ => {
            let mut datagram = BytesMut::new();
            for p in sent {
                encode_frame_into(p, &mut datagram).unwrap();
            }
            datagram.extend_from_slice(&[0xde, 0xad]);
            raw.send_to(&datagram, b.local_addr()).unwrap();
        }
    }
    drain(b, sent.len(), how == 1 || how == 2)
}

proptest! {
    /// Batched and scalar verbs move the same sequence over the wire, and
    /// the books agree.
    #[test]
    fn udp_batch_verbs_equal_scalar(values in prop::collection::vec(any::<u64>(), 1..60)) {
        // Scalar reference run.
        let (mut a, mut b) = udp_pair();
        for v in &values {
            a.send(NodeId::Replica(ReplicaId(0)), pkt(*v));
        }
        let scalar = drain(&mut b, values.len(), false);
        prop_assert_eq!(a.stats().sent, values.len() as u64);

        // Batched run (sendmmsg/recvmmsg on Linux, std fallback elsewhere).
        let (mut a2, mut b2) = udp_pair();
        let mut batch: Vec<(NodeId, Pkt)> = values
            .iter()
            .map(|v| (NodeId::Replica(ReplicaId(0)), pkt(*v)))
            .collect();
        a2.send_batch(&mut batch);
        prop_assert!(batch.is_empty());
        let batched = drain(&mut b2, values.len(), true);
        prop_assert_eq!(a2.stats().sent, values.len() as u64);

        // Loopback UDP between one socket pair delivers in order, so the
        // sequences match exactly, not just as multisets.
        prop_assert_eq!(&scalar, &batched);
        let expect: Vec<Pkt> = values.iter().map(|v| pkt(*v)).collect();
        prop_assert_eq!(&batched, &expect);
    }

    /// Through the fault adversary, the batch verbs (defaulted to scalar
    /// loops) replay the exact per-packet fault schedule: same seed, same
    /// delivered sequence, same counters.
    #[test]
    fn faulty_transport_batch_schedule_matches_scalar(
        values in prop::collection::vec(any::<u64>(), 1..80),
        seed in any::<u64>(),
        drop_p in 0.0f64..0.4,
        dup_p in 0.0f64..0.4,
        reorder_p in 0.0f64..0.4,
    ) {
        /// Records sends instead of delivering them — keeps the schedule
        /// comparison free of kernel timing.
        #[derive(Default)]
        struct Recorder {
            log: Vec<u64>,
        }
        impl Transport<u64> for Recorder {
            fn send(&mut self, _to: NodeId, p: Pkt) {
                if let PacketBody::Protocol(n) = p.body {
                    self.log.push(n);
                }
            }
            fn recv_timeout(&mut self, _t: Duration) -> Result<Pkt, harmonia::net::RecvError> {
                Err(harmonia::net::RecvError::TimedOut)
            }
            fn recv(&mut self) -> Result<Pkt, harmonia::net::RecvError> {
                Err(harmonia::net::RecvError::Closed)
            }
        }

        let cfg = FaultConfig { drop_prob: drop_p, duplicate_prob: dup_p, reorder_prob: reorder_p };
        let run = |use_batch: bool| {
            let counters = Arc::new(FaultCounters::default());
            let mut t = FaultyTransport::new(Recorder::default(), cfg, seed, Arc::clone(&counters));
            if use_batch {
                let mut batch: Vec<(NodeId, Pkt)> = values
                    .iter()
                    .map(|v| (NodeId::Replica(ReplicaId(0)), pkt(*v)))
                    .collect();
                t.send_batch(&mut batch);
            } else {
                for v in &values {
                    t.send(NodeId::Replica(ReplicaId(0)), pkt(*v));
                }
            }
            let _ = t.recv_timeout(Duration::from_millis(1)); // flush a trailing hold
            (t.inner().log.clone(), counters.snapshot())
        };

        prop_assert_eq!(run(false), run(true));
    }

    /// Scratch reuse can never scribble on a delivered packet: packets
    /// received every which way and *held* still equal what was sent after
    /// a thousand later receives have gone through the same endpoint (and
    /// therefore the same scratch slots).
    #[test]
    fn held_payloads_survive_scratch_reuse(
        ops in prop::collection::vec((0u8..4, any::<u8>(), 1usize..400), 2..12),
    ) {
        let (mut a, mut b) = udp_pair();
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut next = 0u64;
        let mut held: Vec<(Pkt, Pkt)> = Vec::new();
        for (how, fill, len) in ops {
            let sent: Vec<Pkt> = (0..3).map(|i| write_pkt(next + i, fill, len)).collect();
            next += 3;
            let got = exchange(&mut a, &mut b, &raw, how, &sent);
            prop_assert_eq!(&got, &sent);
            held.extend(got.into_iter().zip(sent));
        }
        // ≥ 1 000 later receives, all four ways, with a different fill of
        // comparable size so an aliased slot could not go unnoticed.
        for round in 0..125u64 {
            let sent: Vec<Pkt> = (0..8)
                .map(|i| write_pkt(next + i, 0xA5 ^ round as u8, 16 + 3 * round as usize))
                .collect();
            next += 8;
            let got = exchange(&mut a, &mut b, &raw, round as u8, &sent);
            prop_assert_eq!(got, sent);
        }
        for (got, sent) in &held {
            prop_assert_eq!(got, sent, "a held packet changed under later receives");
        }
        // The garbage and the junk tails were counted, never delivered.
        let stats = b.stats();
        prop_assert_eq!(stats.received, next);
        prop_assert!(stats.decode_errors >= 62, "{:?}", stats);
        // And none of it allocated a receive buffer beyond the ring.
        prop_assert_eq!(b.pool_stats().misses, 1);
    }

    /// GSO-style coalescing is invisible to the receiver: the same packets
    /// deliver the same sequence whether the batch verb packs them into
    /// full datagrams or the scalar verb sends one per datagram — only the
    /// datagram count and the frames-per-datagram packing differ.
    #[test]
    fn coalesced_delivery_equals_per_frame(values in prop::collection::vec(any::<u64>(), 1..60)) {
        let run = |coalesced: bool| {
            let (mut a, mut b) = udp_pair();
            let mut batch: Vec<(NodeId, Pkt)> = values
                .iter()
                .map(|v| (NodeId::Replica(ReplicaId(0)), pkt(*v)))
                .collect();
            if coalesced {
                a.send_batch(&mut batch);
            } else {
                for (to, p) in batch {
                    a.send(to, p);
                }
            }
            let got = drain(&mut b, values.len(), true);
            (got, a.stats().sent, a.stats().datagrams_sent)
        };

        let (per_frame, pf_sent, pf_datagrams) = run(false);
        let (coalesced, co_sent, co_datagrams) = run(true);
        let expect: Vec<Pkt> = values.iter().map(|v| pkt(*v)).collect();
        prop_assert_eq!(&per_frame, &expect);
        prop_assert_eq!(&coalesced, &expect);
        // Frame accounting is identical; only the datagram shape changes.
        prop_assert_eq!(pf_sent, values.len() as u64);
        prop_assert_eq!(co_sent, values.len() as u64);
        prop_assert_eq!(pf_datagrams, values.len() as u64);
        // One destination, tiny frames, 64 KiB budget: the whole batch
        // packs into a single datagram.
        prop_assert_eq!(co_datagrams, 1);
    }

    /// Under the fault adversary coalescing never engages: FaultyTransport's
    /// batch verbs loop the scalar path, which flushes one frame per
    /// datagram, so the same seed draws the same loss/dup/reorder decisions
    /// and delivers the same sequence over a real (coalescing-capable)
    /// endpoint whether the caller hands it a batch or single packets — the
    /// per-datagram fault envelope documented on [`FaultyTransport`]. Nor
    /// does it matter where the frames go: addressed to the sending endpoint
    /// itself they are looped back below the adversary, one sealed datagram
    /// per frame all the same, and the same schedule delivers the same
    /// sequence.
    #[test]
    fn fault_schedule_is_coalescing_invariant(
        values in prop::collection::vec(any::<u64>(), 1..60),
        seed in any::<u64>(),
        to_self in any::<bool>(),
    ) {
        let cfg = FaultConfig { drop_prob: 0.2, duplicate_prob: 0.2, reorder_prob: 0.2 };
        let run = |use_batch: bool| {
            let (a, mut b) = udp_pair();
            if to_self {
                a.book().register(NodeId::Replica(ReplicaId(0)), a.local_addr());
            }
            let counters = Arc::new(FaultCounters::default());
            let mut f = FaultyTransport::new(a, cfg, seed, Arc::clone(&counters));
            let mut batch: Vec<(NodeId, Pkt)> = values
                .iter()
                .map(|v| (NodeId::Replica(ReplicaId(0)), pkt(*v)))
                .collect();
            if use_batch {
                f.send_batch(&mut batch);
            } else {
                for (to, p) in batch {
                    f.send(to, p);
                }
            }
            // Flush a trailing hold. Only a sender that addresses itself
            // receives anything here.
            let mut got: Vec<Pkt> = f.recv_timeout(Duration::from_millis(1)).into_iter().collect();
            let (dropped, duplicated, _) = counters.snapshot();
            let expect_n = (values.len() as u64 - dropped + duplicated) as usize;
            let rest = expect_n.saturating_sub(got.len());
            got.extend(if to_self {
                drain(&mut f, rest, true)
            } else {
                drain(&mut b, rest, true)
            });
            prop_assert_eq!(got.len(), expect_n);
            let stats = f.inner().stats();
            (got, counters.snapshot(), stats.sent, stats.datagrams_sent)
        };

        let (pf_got, pf_counts, pf_sent, pf_datagrams) = run(false);
        let (co_got, co_counts, co_sent, co_datagrams) = run(true);
        prop_assert_eq!(pf_counts, co_counts);
        prop_assert_eq!(&pf_got, &co_got);
        prop_assert_eq!(pf_sent, co_sent);
        // The scalar path under the wrapper never packs: every surviving
        // frame rode its own datagram in both runs.
        prop_assert_eq!(pf_datagrams, pf_sent);
        prop_assert_eq!(co_datagrams, co_sent);
    }

    /// A coalesced datagram cut at an arbitrary byte and padded with
    /// garbage never panics the frame iterator, and every frame wholly
    /// before the cut still decodes — a malformed tail cannot retroactively
    /// discard its valid neighbors.
    #[test]
    fn truncated_coalesced_datagrams_salvage_the_valid_prefix(
        values in prop::collection::vec(any::<u64>(), 1..20),
        cut_seed in any::<u32>(),
        tail in prop::collection::vec(any::<u8>(), 0..40),
    ) {
        let mut buf = BytesMut::new();
        let mut ends = Vec::with_capacity(values.len());
        for v in &values {
            encode_frame_into(&pkt(*v), &mut buf).unwrap();
            ends.push(buf.len());
        }
        let cut = cut_seed as usize % (buf.len() + 1); // 0..=len
        buf.truncate(cut);
        buf.extend_from_slice(&tail);
        let datagram = buf.freeze();

        let intact = ends.iter().take_while(|e| **e <= cut).count();
        let decoded: Vec<Result<Pkt, _>> = frames::<Pkt>(&datagram).collect();
        let oks: Vec<&Pkt> = decoded.iter().map_while(|r| r.as_ref().ok()).collect();
        // Every intact frame decodes, in order. Bytes past the cut are
        // adversarial: they *may* happen to parse as further frames (the
        // iterator cannot tell), but they can never corrupt the prefix.
        prop_assert!(oks.len() >= intact);
        for (i, v) in values.iter().take(intact).enumerate() {
            prop_assert_eq!(oks[i], &pkt(*v));
        }
        // Errors terminate the iterator: at most one, and only last.
        let errs = decoded.iter().filter(|r| r.is_err()).count();
        prop_assert!(errs <= 1);
        if errs == 1 {
            prop_assert!(decoded.last().unwrap().is_err());
        }
    }

    /// The send-side pool mirrors the receive pool's aliasing guarantee: a
    /// sealed datagram's buffer is never handed to a later datagram while
    /// the sealed payload is still in flight, across arbitrary
    /// push/finish/drop schedules.
    #[test]
    fn send_pool_never_aliases_inflight_payloads(ops in prop::collection::vec(0u8..5, 1..150)) {
        fn addr(port: u16) -> SocketAddr {
            SocketAddr::from(([127, 0, 0, 1], port))
        }
        /// Move freshly sealed payloads into `held`, refusing any whose
        /// backing range overlaps a payload still in flight.
        fn absorb(
            sealed: &mut Vec<SealedDatagram>,
            held: &mut Vec<(Bytes, std::ops::Range<usize>)>,
        ) -> bool {
            for d in sealed.drain(..) {
                let base = d.payload.as_ptr() as usize;
                let range = base..base + d.payload.len().max(1);
                if held
                    .iter()
                    .any(|(_, r)| range.start < r.end && r.start < range.end)
                {
                    return false;
                }
                held.push((d.payload, range));
            }
            true
        }

        // 64-byte budget over 12-byte frames: datagrams seal every ~5
        // pushes, so the op stream exercises plenty of recycling.
        let mut c = Coalescer::new(64, 8);
        let mut sealed: Vec<SealedDatagram> = Vec::new();
        let mut held: Vec<(Bytes, std::ops::Range<usize>)> = Vec::new();
        let mut next = 0u64;
        for op in ops {
            match op {
                // Push a frame (two destinations, round-robin).
                0..=2 => {
                    c.push(addr(9000 + (next % 2) as u16), &next, &mut sealed).unwrap();
                    next += 1;
                }
                // End of a flush: seal everything open.
                3 => c.finish(&mut sealed),
                // The transport finished sending the oldest payload.
                _ => {
                    if !held.is_empty() {
                        held.remove(0);
                    }
                }
            }
            prop_assert!(
                absorb(&mut sealed, &mut held),
                "send pool reused an in-flight payload buffer"
            );
        }
    }

    /// The mmsg wrapper's syscall path and its std fallback move identical
    /// payload sequences.
    #[test]
    fn mmsg_paths_are_equivalent(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..600), 1..50),
    ) {
        let run = |syscall_path: bool| -> Vec<Vec<u8>> {
            let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
            let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
            let to = rx.local_addr().unwrap();
            let msgs: Vec<(SocketAddr, &[u8])> =
                payloads.iter().map(|p| (to, &p[..])).collect();
            let report = if syscall_path {
                mmsg::send_batch(&tx, &msgs)
            } else {
                mmsg::fallback::send_batch(&tx, &msgs)
            };
            assert_eq!(report.sent, payloads.len());
            assert_eq!(report.errors, 0);

            let mut ring = mmsg::RecvRing::new(1024);
            let mut out = Vec::new();
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while out.len() < payloads.len() && std::time::Instant::now() < deadline {
                let want = payloads.len() - out.len();
                let n = if syscall_path {
                    ring.recv(&rx, want)
                } else {
                    ring.recv_fallback(&rx, want)
                };
                out.extend((0..n).map(|i| ring.datagram(i).to_vec()));
                if n == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            out
        };

        let via_syscalls = run(true);
        let via_fallback = run(false);
        prop_assert_eq!(&via_syscalls, &payloads);
        prop_assert_eq!(&via_fallback, &payloads);
    }
}
