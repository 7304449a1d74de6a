//! Figure 10 — throughput while the switch is stopped and reactivated.
//!
//! Timeline (scaled from the paper's seconds to milliseconds — virtual
//! time is free but event counts are not; shapes are time-scale invariant):
//! the switch stops at t=20 ms (throughput → 0); a replacement with a fresh
//! incarnation id activates at t=30 ms; reads flow through the normal path
//! until the first WRITE-COMPLETION carrying the new id, after which
//! single-replica reads resume and throughput returns to the pre-failure
//! level (§5.3, §9.6).
//!
//! The run is deterministic and asserts that shape: every bucket ending by
//! 20 ms and every bucket from 32 ms on is within 5 % of the offered
//! 2 MRPS, and the buckets ending 24–30 ms complete nothing. (The 22 ms
//! bucket still sees replies that were in flight when the switch stopped.)

use bytes::Bytes;
use harmonia_bench::{mrps, print_table};
use harmonia_core::client::{OpSpec, SourceFn};
use harmonia_core::deployment::{Cluster, DeploymentSpec};
use harmonia_core::failover::{schedule_switch_failure, schedule_switch_replacement};
use harmonia_types::{ClientId, Duration, Instant, SwitchId};
use harmonia_workload::KeySpace;
use rand::Rng;

const RATE: f64 = 2_000_000.0;
const BUCKET_MS: u64 = 2;
const END_MS: u64 = 60;

fn main() {
    let config = DeploymentSpec::new().replicas(3);
    let mut sim = config.build_sim();
    let keys = KeySpace::uniform(50_000);
    let value = Bytes::from(vec![3u8; 128]);
    let source: SourceFn = Box::new(move |rng| {
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

    let mut rows = Vec::new();
    let mut buckets = Vec::new();
    for bucket in 0..(END_MS / BUCKET_MS) {
        let end = (bucket + 1) * BUCKET_MS;
        sim.run_until(t(bucket * BUCKET_MS));
        sim.reset_telemetry();
        sim.run_until(t(end));
        let clients = sim.obs_snapshot().clients;
        let done = clients.reads_done + clients.writes_done;
        let tput = done as f64 / (BUCKET_MS as f64 / 1e3) / 1e6;
        buckets.push((end, done, tput));
        let phase = if end <= 20 {
            "normal"
        } else if end <= 30 {
            "switch stopped"
        } else {
            "replacement active"
        };
        rows.push(vec![end.to_string(), mrps(tput), phase.to_string()]);
    }
    print_table(
        "Figure 10: throughput during switch failure and reactivation",
        "steady ~2 MRPS; zero while the switch is down (20–30 ms); full \
         recovery within a few ms of the replacement activating, gated on \
         the first completion with the new switch id",
        &["time_ms", "throughput_mrps", "phase"],
        &rows,
    );

    for (end, done, tput) in buckets {
        let steady = (tput * 1e6 - RATE).abs() <= 0.05 * RATE;
        match end {
            ..=20 | 32.. => assert!(steady, "{end} ms: {tput} MRPS, offered 2"),
            24..=30 => assert_eq!(done, 0, "{end} ms: the switch is down"),
            _ => {}
        }
    }
}
