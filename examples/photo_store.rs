//! A read-heavy "photo metadata store" — the workload class that motivates
//! Harmonia (§1 cites read:write ratios of 30:1 in production stores).
//!
//! Runs the same skewed, read-dominated workload against chain replication
//! with and without Harmonia in the deterministic simulator, and prints the
//! throughput each configuration sustains. The Harmonia run should serve
//! roughly `replicas ×` the baseline's reads.
//!
//! Run with: `cargo run --release --example photo_store`

use bytes::Bytes;
use harmonia::prelude::*;
use harmonia::workload::{KeySpace, Mix};

/// Offered load far beyond one server's ~0.92 MQPS read capacity.
const OFFERED_RPS: f64 = 3_000_000.0;
const WARMUP_MS: u64 = 10;
const MEASURE_MS: u64 = 40;

fn run(harmonia: bool) -> (f64, f64, f64) {
    let mut sim = DeploymentSpec::new()
        .protocol(ProtocolKind::Chain)
        .harmonia(harmonia)
        .replicas(3)
        .build_sim();

    // Photo-tagging shape: 1/30 writes, zipf-skewed popularity.
    let keys = KeySpace::zipf(100_000, 0.9);
    let mix = Mix {
        write_ratio: 1.0 / 30.0,
    };
    let value = Bytes::from(vec![7u8; 256]);
    let source: SourceFn = Box::new(move |rng| {
        let key = keys.sample(rng);
        match mix.draw(rng) {
            OpKind::Write => OpSpec::write(key, value.clone()),
            OpKind::Read => OpSpec::read(key),
        }
    });
    // Timeout longer than the whole run: at overload we want the sustained
    // completion rate (= server capacity), not timeout-culled counts.
    sim.add_open_loop_client(
        ClientId(1),
        OFFERED_RPS,
        Duration::from_millis(1000),
        source,
    );

    sim.run_until(Instant::ZERO + Duration::from_millis(WARMUP_MS));
    sim.reset_telemetry();
    sim.run_until(Instant::ZERO + Duration::from_millis(WARMUP_MS + MEASURE_MS));

    let secs = MEASURE_MS as f64 / 1e3;
    let snap = sim.obs_snapshot();
    let reads = snap.clients.reads_done as f64 / secs / 1e6;
    let writes = snap.clients.writes_done as f64 / secs / 1e6;
    let p99 = Duration::from_nanos(snap.read_latency.p99_ns).as_micros_f64();
    (reads, writes, p99)
}

fn main() {
    println!("photo store: 100k photos, zipf-0.9 popularity, 1 write per 30 reads");
    println!("offered load {} MRPS, 3-replica chain\n", OFFERED_RPS / 1e6);
    println!(
        "{:<22} {:>12} {:>12} {:>14}",
        "configuration", "reads MRPS", "writes MRPS", "p99 read (us)"
    );

    let (r0, w0, p0) = run(false);
    println!(
        "{:<22} {:>12.3} {:>12.3} {:>14.1}",
        "chain (baseline)", r0, w0, p0
    );
    let (r1, w1, p1) = run(true);
    println!(
        "{:<22} {:>12.3} {:>12.3} {:>14.1}",
        "chain + Harmonia", r1, w1, p1
    );

    let speedup = r1 / r0.max(1e-9);
    println!("\nread speedup: {speedup:.2}x (expect ≈ number of replicas = 3)");
    assert!(speedup > 2.0, "Harmonia should scale reads across replicas");
}
