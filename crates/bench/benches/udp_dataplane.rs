//! UDP data-plane throughput and latency: scalar vs coalesced.
//!
//! Two sections, comparing the transport's two verb sets: `scalar` (the
//! `send` / `recv_timeout` verbs — one syscall and one datagram per frame,
//! the per-frame baseline) and `coalesced` (the `send_batch` / `recv_batch`
//! verbs — `sendmmsg`/`recvmmsg` bursts plus GSO-style frame packing:
//! per-destination frames ride back-to-back in full datagrams out of the
//! send-side buffer pool, unpacked GRO-style by the receiver's frame
//! iterator). The batched-but-unpacked middle mode earlier snapshots
//! carried was dominated by `coalesced` at RTT parity and is gone:
//!
//! 1. **Pump** — per thread count in {1, 2, 4}, each thread owns one socket
//!    and self-loops 32-packet bursts through it (loopback delivery is
//!    synchronous, so a burst is queued by the time the send returns) for
//!    `live_measure_window()`; delivered MRPS is summed. Send+drain on one
//!    thread keeps the measurement scheduler-independent — what's compared
//!    is the per-packet CPU cost of the verb sets. The coalesced mode
//!    crosses the kernel ~2 times per 32 frames where scalar pays 64, and
//!    moves the whole burst as **one** datagram (`frames_per_datagram` in
//!    the JSON records the realized packing), so its margin tracks the
//!    host's per-datagram cost — both the syscall boundary and the
//!    kernel's loopback queueing.
//! 2. **Echo RTT** — single in-flight request/reply against an echo server;
//!    client p50/p99/p99.9 µs per mode. Coalescing is a throughput lever,
//!    so the expectation here is parity, not speedup — this section exists
//!    to show it does not tax the latency floor (with one packet in flight
//!    a coalesced datagram carries exactly one frame).
//!
//! A third section prices the observability layer: the same pump with a
//! `harmonia-obs` recorder doing per-packet counter increments and
//! per-burst latency observations — exactly what the wired UDP driver pays
//! — against the plain pump. The delta is `obs_overhead_pct` in the JSON;
//! `HARMONIA_OBS_ASSERT=1` makes the run fail if it exceeds 5 % (the CI
//! smoke step sets it).
//!
//! Emits `BENCH_udp_dataplane.json` (suppress with `HARMONIA_BENCH_JSON=0`);
//! `HARMONIA_LIVE_BENCH_MS` shrinks the window for CI smoke runs.

// Wall-clock reads are deliberate here: benchmark: measures real elapsed time.
#![allow(clippy::disallowed_methods)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use harmonia_bench::{live_measure_window, mrps, print_table, us, Snapshot};
use harmonia_net::{AddrBook, Transport, UdpTransport};
use harmonia_obs::{Counter, MonotonicClock, Registry, Series};
use harmonia_types::{ClientId, NodeId, Packet, PacketBody, ReplicaId};

type Pkt = Packet<u64>;

const BURST: usize = 32;

/// Which of the endpoint's two verb sets the loop under test drives.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Scalar,
    Coalesced,
}

const MODES: [Mode; 2] = [Mode::Scalar, Mode::Coalesced];

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Scalar => "scalar",
            Mode::Coalesced => "coalesced",
        }
    }

    /// Whether this mode drives the batch verbs.
    fn batched(self) -> bool {
        self == Mode::Coalesced
    }
}

fn pkt(src: NodeId, dst: NodeId, n: u64) -> Pkt {
    Packet::new(src, dst, PacketBody::Protocol(n))
}

struct PumpResult {
    pairs: usize,
    mode: Mode,
    delivered: u64,
    window: Duration,
    pool_hit_rate: f64,
    send_pool_hit_rate: f64,
    /// Realized packing: frames sent / datagrams sent, summed over workers.
    frames_per_datagram: f64,
}

impl PumpResult {
    fn mrps(&self) -> f64 {
        self.delivered as f64 / self.window.as_secs_f64() / 1e6
    }
}

/// One thread per pump unit, each self-looping bursts through its own
/// socket (send to self, drain what just queued); returns delivered totals.
/// Send and drain on the same thread means throughput measures the verbs'
/// per-packet CPU cost, not how the scheduler interleaves a sender/receiver
/// thread pair — the number is meaningful on any core count.
fn pump(pairs: usize, mode: Mode, window: Duration, obs: Option<&Registry>) -> PumpResult {
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for i in 0..pairs {
        let book = Arc::new(AddrBook::new());
        let mut t = UdpTransport::<u64>::bind(Arc::clone(&book)).expect("bind pump socket");
        let me = NodeId::Replica(ReplicaId(i as u32));
        book.register(me, t.local_addr());

        let stop = Arc::clone(&stop);
        let rec = obs.map(|r| r.handle());
        workers.push(std::thread::spawn(move || {
            let src = NodeId::Client(ClientId(0));
            let mut got: Vec<Pkt> = Vec::with_capacity(BURST);
            let mut delivered = 0u64;
            let mut seq = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let burst_started = rec.as_ref().map(|r| r.now());
                if mode.batched() {
                    let mut burst: Vec<(NodeId, Pkt)> = (0..BURST)
                        .map(|_| {
                            seq += 1;
                            (me, pkt(src, me, seq))
                        })
                        .collect();
                    t.send_batch(&mut burst);
                } else {
                    for _ in 0..BURST {
                        seq += 1;
                        t.send(me, pkt(src, me, seq));
                    }
                }
                // Loopback delivery is synchronous: the burst is already in
                // our own receive queue. Drain it the same way it was sent.
                let mut drained = 0;
                while drained < BURST {
                    if mode.batched() {
                        got.clear();
                        let n = t.recv_batch(&mut got, BURST - drained);
                        if n == 0 {
                            break;
                        }
                        drained += n;
                    } else if t.recv_timeout(Duration::ZERO).is_ok() {
                        drained += 1;
                    } else {
                        break;
                    }
                }
                delivered += drained as u64;
                // The priced observability work: one counter increment per
                // delivered packet (the wired driver's per-packet cost) and
                // one histogram observation per burst.
                if let (Some(rec), Some(t0)) = (rec.as_ref(), burst_started) {
                    for _ in 0..drained {
                        rec.incr(Counter::ReadsDone);
                    }
                    rec.observe(Series::ReadLatency, rec.now().since(t0));
                }
            }
            let stats = t.stats();
            (
                delivered,
                t.pool_stats().hit_rate(),
                t.send_pool_stats().hit_rate(),
                stats.sent,
                stats.datagrams_sent,
            )
        }));
    }

    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let mut delivered = 0u64;
    let mut hit_rate = 0.0;
    let mut send_hit_rate = 0.0;
    let mut frames = 0u64;
    let mut datagrams = 0u64;
    for w in workers {
        let (d, h, sh, f, dg) = w.join().unwrap();
        delivered += d;
        hit_rate += h;
        send_hit_rate += sh;
        frames += f;
        datagrams += dg;
    }
    PumpResult {
        pairs,
        mode,
        delivered,
        window,
        pool_hit_rate: hit_rate / pairs as f64,
        send_pool_hit_rate: send_hit_rate / pairs as f64,
        frames_per_datagram: frames as f64 / datagrams.max(1) as f64,
    }
}

/// Client-observed RTT samples (µs) against a scalar echo server; the mode
/// under test only changes the client's verbs.
fn echo_rtt(mode: Mode, samples: usize) -> Vec<f64> {
    let book = Arc::new(AddrBook::new());
    let mut server = UdpTransport::<u64>::bind(Arc::clone(&book)).expect("bind server");
    let mut client = UdpTransport::<u64>::bind(Arc::clone(&book)).expect("bind client");
    let srv = NodeId::Replica(ReplicaId(0));
    let cli = NodeId::Client(ClientId(9));
    book.register(srv, server.local_addr());
    book.register(cli, client.local_addr());

    let stop = Arc::new(AtomicBool::new(false));
    let stop_srv = Arc::clone(&stop);
    let echo = std::thread::spawn(move || {
        while !stop_srv.load(Ordering::Relaxed) {
            if let Ok(p) = server.recv_timeout(Duration::from_millis(1)) {
                let back = pkt(
                    srv,
                    p.src,
                    match p.body {
                        PacketBody::Protocol(n) => n,
                        _ => 0,
                    },
                );
                server.send(p.src, back);
            }
        }
    });

    let mut rtts = Vec::with_capacity(samples);
    let mut got: Vec<Pkt> = Vec::with_capacity(1);
    for n in 0..samples as u64 {
        let t0 = Instant::now();
        if mode.batched() {
            let mut one = vec![(srv, pkt(cli, srv, n))];
            client.send_batch(&mut one);
            // Mirror the UdpLink receive path: drain the nonblocking batch
            // verb first, then block in the scalar verb while idle (busy
            // polling recv_batch would just starve the server of cycles).
            let deadline = t0 + Duration::from_millis(200);
            loop {
                got.clear();
                if client.recv_batch(&mut got, 1) > 0
                    || client.recv_timeout(Duration::from_millis(5)).is_ok()
                    || Instant::now() > deadline
                {
                    break;
                }
            }
        } else {
            client.send(srv, pkt(cli, srv, n));
            let _ = client.recv_timeout(Duration::from_millis(200));
        }
        rtts.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    stop.store(true, Ordering::Relaxed);
    echo.join().unwrap();
    rtts
}

struct ObsOverhead {
    baseline_mrps: f64,
    instrumented_mrps: f64,
}

impl ObsOverhead {
    fn pct(&self) -> f64 {
        (1.0 - self.instrumented_mrps / self.baseline_mrps) * 100.0
    }
}

/// Price the recorder on the hottest pump cell: coalesced mode, one worker.
/// Baseline and instrumented runs interleave twice and each side keeps its
/// best, so scheduler noise at CI's short smoke windows is not billed to
/// the recorder; the window has a floor for the same reason.
fn obs_overhead(window: Duration) -> ObsOverhead {
    let window = window.max(Duration::from_millis(200));
    let registry = Registry::with_clock(Arc::new(MonotonicClock::new()));
    let mut baseline: f64 = 0.0;
    let mut instrumented: f64 = 0.0;
    for _ in 0..2 {
        baseline = baseline.max(pump(1, Mode::Coalesced, window, None).mrps());
        instrumented = instrumented.max(pump(1, Mode::Coalesced, window, Some(&registry)).mrps());
    }
    ObsOverhead {
        baseline_mrps: baseline,
        instrumented_mrps: instrumented,
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

struct LatRow {
    mode: Mode,
    p50: f64,
    p99: f64,
    p999: f64,
}

fn write_json(pumps: &[PumpResult], lats: &[LatRow], obs: &ObsOverhead, window: Duration) {
    // Schema 4: the `batched` (burst syscalls, one frame per datagram) rows
    // and ratios are gone with the mode itself; `speedup` keeps
    // `coalesced_over_scalar`.
    let mut snap = Snapshot::new(
        "udp_dataplane",
        4,
        "Loopback UDP data plane: scalar verbs vs sendmmsg/recvmmsg bursts \
         with GSO/GRO-style frame coalescing and a zero-copy send pool",
    );
    snap.raw("window_ms", window.as_millis());
    snap.raw("mmsg_accelerated", mmsg::accelerated());
    // Kernel crossings per packet in the pump's send+drain loop: the scalar
    // verbs pay one send_to and one recv per packet; the batch verbs pay
    // one sendmmsg and one recvmmsg per 32-packet burst, which moves as one
    // single-destination datagram.
    snap.raw(
        "syscalls_per_packet",
        format!(
            "{{ \"scalar\": 2.0, \"coalesced\": {:.4} }}",
            2.0 / BURST as f64
        ),
    );
    let pump_rows: Vec<String> = pumps
        .iter()
        .map(|r| {
            format!(
                "{{ \"pairs\": {}, \"mode\": \"{}\", \"mrps\": {:.4}, \"delivered\": {}, \
                 \"pool_hit_rate\": {:.4}, \"send_pool_hit_rate\": {:.4}, \
                 \"frames_per_datagram\": {:.2} }}",
                r.pairs,
                r.mode.name(),
                r.mrps(),
                r.delivered,
                r.pool_hit_rate,
                r.send_pool_hit_rate,
                r.frames_per_datagram
            )
        })
        .collect();
    snap.rows("pump_mrps", &pump_rows);
    let counts: Vec<usize> = {
        let mut c: Vec<usize> = pumps.iter().map(|r| r.pairs).collect();
        c.dedup();
        c
    };
    let speedups: Vec<String> = counts
        .iter()
        .filter_map(|pairs| {
            let find = |mode: Mode| pumps.iter().find(|r| r.pairs == *pairs && r.mode == mode);
            let (s, c) = (find(Mode::Scalar)?, find(Mode::Coalesced)?);
            Some(format!(
                "{{ \"pairs\": {}, \"coalesced_over_scalar\": {:.3} }}",
                pairs,
                c.mrps() / s.mrps()
            ))
        })
        .collect();
    snap.rows("speedup", &speedups);
    let lat_rows: Vec<String> = lats
        .iter()
        .map(|l| {
            format!(
                "{{ \"mode\": \"{}\", \"p50\": {:.1}, \"p99\": {:.1}, \"p999\": {:.1} }}",
                l.mode.name(),
                l.p50,
                l.p99,
                l.p999
            )
        })
        .collect();
    snap.rows("echo_rtt_us", &lat_rows);
    snap.raw(
        "obs_overhead",
        format!(
            "{{ \"baseline_mrps\": {:.4}, \"instrumented_mrps\": {:.4}, \
             \"obs_overhead_pct\": {:.2} }}",
            obs.baseline_mrps,
            obs.instrumented_mrps,
            obs.pct()
        ),
    );
    snap.write();
}

fn main() {
    let window = live_measure_window();
    println!(
        "# udp_dataplane: window {}ms per cell, mmsg accelerated: {}",
        window.as_millis(),
        mmsg::accelerated()
    );

    let mut pumps = Vec::new();
    for pairs in [1usize, 2, 4] {
        for mode in MODES {
            pumps.push(pump(pairs, mode, window, None));
        }
    }
    let rows: Vec<Vec<String>> = pumps
        .iter()
        .map(|r| {
            vec![
                r.pairs.to_string(),
                r.mode.name().to_string(),
                mrps(r.mrps()),
                r.delivered.to_string(),
                format!("{:.3}", r.pool_hit_rate),
                format!("{:.3}", r.send_pool_hit_rate),
                format!("{:.1}", r.frames_per_datagram),
            ]
        })
        .collect();
    print_table(
        "UDP pump: delivered throughput, scalar vs coalesced",
        "coalesced several times scalar: 32x fewer kernel crossings and the \
         whole burst packed into one datagram (frames/dgram ~32 here). \
         Pool hit rates ~1.0 once warm",
        &[
            "pairs",
            "mode",
            "MRPS",
            "delivered",
            "pool_hit",
            "send_hit",
            "frames/dgram",
        ],
        &rows,
    );

    let samples = (window.as_millis() as usize * 10).clamp(200, 10_000);
    let mut lats = Vec::new();
    for mode in MODES {
        let mut rtts = echo_rtt(mode, samples);
        rtts.sort_by(|a, b| a.total_cmp(b));
        lats.push(LatRow {
            mode,
            p50: percentile(&rtts, 0.50),
            p99: percentile(&rtts, 0.99),
            p999: percentile(&rtts, 0.999),
        });
    }
    let lat_rows: Vec<Vec<String>> = lats
        .iter()
        .map(|l| vec![l.mode.name().to_string(), us(l.p50), us(l.p99), us(l.p999)])
        .collect();
    print_table(
        "UDP echo RTT: single in-flight request/reply",
        "tens of µs on loopback; coalesced within noise of scalar (a \
         throughput lever must not tax the latency floor)",
        &["mode", "p50", "p99", "p99.9"],
        &lat_rows,
    );

    let obs = obs_overhead(window);
    print_table(
        "Observability overhead: per-packet recorder on the coalesced pump",
        "a sharded relaxed-atomic counter bump per packet plus one histogram \
         observation per burst costs well under 5% of delivered MRPS",
        &["baseline_MRPS", "instrumented_MRPS", "overhead_%"],
        &[vec![
            mrps(obs.baseline_mrps),
            mrps(obs.instrumented_mrps),
            format!("{:.2}", obs.pct()),
        ]],
    );
    if std::env::var("HARMONIA_OBS_ASSERT").as_deref() == Ok("1") {
        assert!(
            obs.pct() < 5.0,
            "observability overhead {:.2}% exceeds the 5% budget \
             (baseline {:.4} MRPS, instrumented {:.4} MRPS)",
            obs.pct(),
            obs.baseline_mrps,
            obs.instrumented_mrps
        );
    }

    write_json(&pumps, &lats, &obs, window);
}
