//! Switch failover drill — a miniature of Figure 10.
//!
//! A steady mixed workload runs against a Harmonia chain cluster; at t=20 ms
//! the switch is stopped (throughput collapses), at t=30 ms a replacement
//! with a fresh incarnation id takes over. The replacement must route
//! through the normal protocol until the first WRITE-COMPLETION bearing its
//! own id, then fast-path reads resume and throughput fully recovers
//! (§5.3).
//!
//! Run with: `cargo run --release --example failover_drill`

use bytes::Bytes;
use harmonia::prelude::*;
use harmonia::workload::KeySpace;

const RATE: f64 = 1_500_000.0;
const BUCKET_MS: u64 = 5;
const END_MS: u64 = 60;

fn main() {
    let config = DeploymentSpec::new()
        .protocol(ProtocolKind::Chain)
        .replicas(3);
    let mut sim = config.build_sim();
    let keys = KeySpace::uniform(50_000);
    let value = Bytes::from(vec![9u8; 64]);
    let source: SourceFn = Box::new(move |rng| {
        use rand::Rng;
        let key = keys.sample(rng);
        if rng.gen_bool(0.05) {
            OpSpec::write(key, value.clone())
        } else {
            OpSpec::read(key)
        }
    });
    let client = sim.add_open_loop_client(ClientId(1), RATE, Duration::from_millis(5), source);

    let t = |ms: u64| Instant::ZERO + Duration::from_millis(ms);
    schedule_switch_failure(sim.world_mut(), t(20), config.switch_addr());
    schedule_switch_replacement(sim.world_mut(), t(30), &config, SwitchId(2), vec![client]);

    println!("time_ms\tthroughput_mrps\tphase");
    let mut recovered_at = None;
    for bucket in 0..(END_MS / BUCKET_MS) {
        let start = bucket * BUCKET_MS;
        let end = start + BUCKET_MS;
        sim.run_until(t(start));
        sim.reset_telemetry();
        sim.run_until(t(end));
        let clients = sim.obs_snapshot().clients;
        let done = clients.reads_done + clients.writes_done;
        let mrps = done as f64 / (BUCKET_MS as f64 / 1e3) / 1e6;
        let phase = if end <= 20 {
            "normal"
        } else if end <= 30 {
            "switch down"
        } else {
            "replacement active"
        };
        if recovered_at.is_none() && end > 30 && mrps > 1.2 {
            recovered_at = Some(end);
        }
        println!("{end}\t{mrps:.3}\t{phase}");
    }

    match recovered_at {
        Some(ms) => println!(
            "\nfull throughput restored by t={ms} ms (switch died at 20 ms, replaced at 30 ms)"
        ),
        None => println!("\nWARNING: throughput did not recover — investigate!"),
    }
    assert!(recovered_at.is_some(), "failover must recover");
}
