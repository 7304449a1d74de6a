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
//! Both verbs are scheduled with `SimCluster::at`, and the replacement
//! comes up at the switch's client-facing address, so the generator never
//! changes where it sends.
//!
//! The run is deterministic and asserts that shape: every bucket ending by
//! 20 ms and every bucket from 32 ms on is within 5 % of the offered
//! 2 MRPS, and the buckets ending 24–30 ms complete nothing. (The 22 ms
//! bucket still sees replies that were in flight when the switch stopped.)
//! From 32 ms on, the deployment's read side names incarnation 2 and its
//! snapshot counts that incarnation's fast-path reads. Every bucket's
//! completions land in `BENCH_fig10.json`, which CI regenerates and diffs
//! bit for bit.

use bytes::Bytes;
use harmonia_bench::{mrps, print_table, Snapshot};
use harmonia_core::client::{OpSpec, SourceFn};
use harmonia_core::deployment::{Cluster, DeploymentSpec};
use harmonia_core::failover::Verb;
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
    sim.add_open_loop_client(ClientId(1), RATE, Duration::from_millis(5), source);
    let t = |ms: u64| Instant::ZERO + Duration::from_millis(ms);
    sim.at(t(20), Verb::KillSwitch);
    sim.at(t(30), Verb::ReplaceSwitch(SwitchId(2)));

    let mut buckets = Vec::new();
    for bucket in 0..(END_MS / BUCKET_MS) {
        let end = (bucket + 1) * BUCKET_MS;
        sim.run_until(t(bucket * BUCKET_MS));
        sim.reset_telemetry();
        sim.run_until(t(end));
        let snap = sim.obs_snapshot();
        let done = snap.clients.reads_done + snap.clients.writes_done;
        let tput = done as f64 / (BUCKET_MS as f64 / 1e3) / 1e6;
        let phase = if end <= 20 {
            "normal"
        } else if end <= 30 {
            "switch stopped"
        } else {
            "replacement active"
        };
        if end >= 32 {
            let incarnation = sim.switch_incarnation();
            assert_eq!(incarnation, Some(SwitchId(2)), "{end} ms: {incarnation:?}");
            let fast = snap.switch.reads_fast_path;
            assert!(
                fast > 0,
                "{end} ms: no fast-path read counted for incarnation 2"
            );
        }
        buckets.push((end, done, tput, phase));
    }
    let rows: Vec<Vec<String>> = (buckets.iter())
        .map(|&(end, done, tput, phase)| {
            vec![end.to_string(), done.to_string(), mrps(tput), phase.into()]
        })
        .collect();
    print_table(
        "Figure 10: throughput during switch failure and reactivation",
        "steady ~2 MRPS; zero while the switch is down (20–30 ms); full \
         recovery within a few ms of the replacement activating, gated on \
         the first completion with the new switch id",
        &["time_ms", "completions", "throughput_mrps", "phase"],
        &rows,
    );

    for &(end, done, tput, _) in &buckets {
        let steady = (tput * 1e6 - RATE).abs() <= 0.05 * RATE;
        match end {
            ..=20 | 32.. => assert!(steady, "{end} ms: {tput} MRPS, offered 2"),
            24..=30 => assert_eq!(done, 0, "{end} ms: the switch is down"),
            _ => {}
        }
    }
    write_json(&buckets);
}

/// `BENCH_fig10.json`: every bucket's completions, by the bucket's end.
fn write_json(buckets: &[(u64, u64, f64, &str)]) {
    let mut snap = Snapshot::new(
        "fig10",
        1,
        "Figure 10: completions per 2 ms bucket of a 2 MRPS open-loop load; \
         the switch stops at 20 ms and incarnation 2 replaces it at 30 ms; \
         deterministic virtual time, seed 0xBEEF",
    );
    snap.raw("bucket_ms", BUCKET_MS);
    snap.raw("offered_rps", RATE);
    let rows: Vec<String> = (buckets.iter())
        .map(|(end, done, _, phase)| {
            format!("{{ \"end_ms\": {end}, \"completions\": {done}, \"phase\": \"{phase}\" }}")
        })
        .collect();
    snap.rows("buckets", &rows);
    snap.write();
}
