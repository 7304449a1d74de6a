//! Steady-state sending allocates one block per sealed datagram and nothing
//! else: the `Arc` that `BytesMut::freeze` wraps around each datagram's
//! pooled buffer when the coalescer seals it. No per-flush header arrays, no
//! per-chunk sockaddr vectors, no scratch that regrows. Counted per thread
//! by `mmsg`'s counting allocator, in a test binary of its own.

use std::sync::Arc;
use std::time::{Duration, Instant};

use harmonia_net::{AddrBook, Transport, UdpTransport};
use harmonia_types::{ClientId, NodeId, Packet, PacketBody, ReplicaId};
use mmsg::CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Blocks this thread allocated while `f` ran.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = CountingAlloc::allocations();
    f();
    CountingAlloc::allocations() - before
}

type Pkt = Packet<u64>;

/// Round `round`'s packets: eight frames for each of `peers`, interleaved.
fn burst(peers: &[NodeId], round: u64) -> Vec<(NodeId, Pkt)> {
    (0..8)
        .flat_map(|i| peers.iter().map(move |&to| (to, i)))
        .map(|(to, i)| {
            let body = PacketBody::Protocol(round * 8 + i);
            (to, Packet::new(NodeId::Client(ClientId(1)), to, body))
        })
        .collect()
}

/// Take `want` packets off `at`, so its receive buffer never fills.
// Wall-clock read is deliberate: a bound on how long the drain may wait.
#[allow(clippy::disallowed_methods)]
fn drain(at: &mut UdpTransport<u64>, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut got = Vec::new();
    while got.len() < want && Instant::now() < deadline {
        let _ = at.recv_burst(Some(deadline), &mut got);
    }
    assert_eq!(got.len(), want);
}

/// Past warm-up, every flush — one whole `send_batch`, or two
/// `hold_batch` calls and then `flush` — allocates exactly one block per
/// datagram it seals: the sealed payload's `Arc`. Two destinations make
/// two datagrams a flush.
#[test]
fn a_steady_state_flush_allocates_one_block_per_sealed_datagram() {
    let book = Arc::new(AddrBook::new());
    let mut sender = UdpTransport::<u64>::bind(Arc::clone(&book)).unwrap();
    let mut b = UdpTransport::<u64>::bind(Arc::clone(&book)).unwrap();
    let mut c = UdpTransport::<u64>::bind(Arc::clone(&book)).unwrap();
    let peers = [NodeId::Replica(ReplicaId(1)), NodeId::Replica(ReplicaId(2))];
    book.register(peers[0], b.local_addr());
    book.register(peers[1], c.local_addr());
    const WARM_UP: u64 = 20;
    for round in 0..200 {
        let mut batch = burst(&peers, round);
        let split = round % 2 == 1;
        let mut tail = if split {
            batch.split_off(8)
        } else {
            Vec::new()
        };
        let sealed_before = sender.stats().datagrams_sent;
        let allocated = allocations_during(|| {
            if !split {
                sender.send_batch(&mut batch);
            } else {
                sender.hold_batch(&mut batch);
                sender.hold_batch(&mut tail);
                sender.flush();
            }
        });
        let sealed = sender.stats().datagrams_sent - sealed_before;
        assert_eq!(sealed, 2, "round {round}: one datagram per destination");
        if round >= WARM_UP {
            assert_eq!(allocated, sealed, "round {round}");
        }
        drain(&mut b, 8);
        drain(&mut c, 8);
    }
    let pool = sender.send_pool_stats();
    assert!(pool.misses <= 4, "{pool:?}");
}
