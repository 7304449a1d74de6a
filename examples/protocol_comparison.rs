//! Generality demo (§9.5): run the same mixed workload over every
//! replication protocol, with and without Harmonia, and print a comparison
//! table — a miniature of Figure 9.
//!
//! Run with: `cargo run --release --example protocol_comparison`

use bytes::Bytes;
use harmonia::prelude::*;
use harmonia::workload::KeySpace;

const OFFERED_RPS: f64 = 2_500_000.0;
const WRITE_RATIO: f64 = 0.05;
const WARMUP_MS: u64 = 10;
const MEASURE_MS: u64 = 30;

fn run(protocol: ProtocolKind, harmonia: bool) -> (f64, f64) {
    let mut sim = DeploymentSpec::new()
        .protocol(protocol)
        .harmonia(harmonia)
        .replicas(3)
        .build_sim();
    let keys = KeySpace::uniform(100_000);
    let value = Bytes::from(vec![1u8; 128]);
    let source: SourceFn = Box::new(move |rng| {
        use rand::Rng;
        let key = keys.sample(rng);
        if rng.gen_bool(WRITE_RATIO) {
            OpSpec::write(key, value.clone())
        } else {
            OpSpec::read(key)
        }
    });
    // Timeout longer than the run: report sustained capacity, not
    // timeout-culled counts (the system is deliberately driven past
    // saturation).
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
    let clients = sim.obs_snapshot().clients;
    (
        clients.reads_done as f64 / secs / 1e6,
        clients.writes_done as f64 / secs / 1e6,
    )
}

fn main() {
    println!(
        "mixed workload ({:.0}% writes), 3 replicas, offered {} MRPS\n",
        WRITE_RATIO * 100.0,
        OFFERED_RPS / 1e6
    );
    println!(
        "{:<18} {:>14} {:>14} {:>10}",
        "protocol", "baseline MRPS", "harmonia MRPS", "speedup"
    );
    for (name, protocol, has_harmonia) in [
        ("primary-backup", ProtocolKind::PrimaryBackup, true),
        ("chain", ProtocolKind::Chain, true),
        ("craq", ProtocolKind::Craq, false),
        ("vr/multi-paxos", ProtocolKind::Vr, true),
        ("nopaxos", ProtocolKind::Nopaxos, true),
    ] {
        let (r0, w0) = run(protocol, false);
        let base = r0 + w0;
        if has_harmonia {
            let (r1, w1) = run(protocol, true);
            let harm = r1 + w1;
            println!(
                "{:<18} {:>14.3} {:>14.3} {:>9.2}x",
                name,
                base,
                harm,
                harm / base.max(1e-9)
            );
        } else {
            println!(
                "{:<18} {:>14.3} {:>14} {:>10}",
                name, base, "— (is the baseline alternative)", ""
            );
        }
    }
    println!("\nExpected shape (Figure 9): every protocol gains ≈3x on this");
    println!("read-heavy mix; CRAQ already scales reads at the cost of writes.");
}
