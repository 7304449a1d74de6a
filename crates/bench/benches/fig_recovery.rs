//! Replica recovery — mean time to repair (MTTR) versus store size.
//!
//! A 3-replica Harmonia(chain) deployment is preloaded with `N` keys, the
//! tail replica fail-stops, background traffic keeps flowing for a dwell
//! window, and then the replica restarts: the switch re-admits it
//! read-gated, and the newcomer catches up via snapshot + log state
//! transfer from a live peer (§5.3, "handling server failures"). MTTR is
//! the virtual time from the restart verb until the transfer finished AND
//! the switch lifted the read gate — the window during which the group runs
//! one replica short of its read capacity.
//!
//! Expected shape: a fixed floor (the gate-settle interval plus the
//! request/first-chunk round trip) plus a per-chunk term that grows
//! linearly with the store, because the snapshot ships in frame-budgeted
//! chunks (~48 KB each) and the newcomer pays a per-message processing
//! cost; the gate lift lands one control message after `Done`. Virtual
//! time makes the numbers machine-independent
//! and seed-deterministic, so the emitted `BENCH_fig_recovery.json` is a
//! reproducible snapshot — regenerating it on unchanged code is a no-op
//! diff.
//!
//! Knob: `HARMONIA_RECOVERY_KEYS=500,2000` overrides the store sizes (and
//! then writes a different snapshot — restore the committed one after).

use bytes::Bytes;
use harmonia_bench::{print_table, Snapshot};
use harmonia_core::client::{ClosedLoopClient, OpSpec, SourceFn};
use harmonia_core::deployment::{Cluster, DeploymentSpec};
use harmonia_core::SimWorker;
use harmonia_types::{ClientId, Duration, NodeId, ReplicaId};
use rand::Rng;

/// The replica that fail-stops and recovers (the chain tail).
const TAIL: ReplicaId = ReplicaId(2);
/// Preload fleet size (parallel closed-loop writers).
const LOADERS: usize = 4;
/// Background open-loop rate during the outage and recovery.
const BG_RATE: f64 = 50_000.0;

struct Row {
    store_keys: usize,
    preload_us: f64,
    mttr_us: f64,
    gate_lifted: bool,
}

fn store_sizes() -> Vec<usize> {
    std::env::var("HARMONIA_RECOVERY_KEYS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![500, 2_000, 8_000, 32_000])
}

fn key(i: usize) -> Bytes {
    Bytes::from(format!("key-{i}"))
}

fn measure(store_keys: usize) -> Row {
    let spec = DeploymentSpec::new().seed(61);
    let mut sim = spec.build_sim();

    // Preload `store_keys` distinct keys through the front door: parallel
    // closed-loop writers splitting the key range.
    let value = Bytes::from(vec![0x5au8; 128]);
    for c in 0..LOADERS {
        let plan: Vec<OpSpec> = (c..store_keys)
            .step_by(LOADERS)
            .map(|i| OpSpec::write(key(i), value.clone()))
            .collect();
        sim.add_closed_loop_client(ClientId(50 + c as u32), plan, Duration::from_millis(5));
    }
    let loaders_done = |sim: &harmonia_core::deployment::SimCluster| {
        (0..LOADERS).all(|c| {
            sim.world()
                .actor::<ClosedLoopClient>(NodeId::Client(ClientId(50 + c as u32)))
                .is_some_and(|cl| cl.is_done())
        })
    };
    let preload_start = sim.now();
    while !loaders_done(&sim) {
        let next = sim.now() + Duration::from_millis(5);
        sim.run_until(next);
    }
    let preload_us = (sim.now().nanos() - preload_start.nanos()) as f64 / 1e3;

    // Background traffic for the rest of the run: mostly reads over the
    // loaded population, enough writes that the catch-up log is non-empty.
    let population = store_keys;
    let bg_value = value.clone();
    let source: SourceFn = Box::new(move |rng| {
        let k = key(rng.gen_range(0..population));
        if rng.gen_bool(0.1) {
            OpSpec::write(k, bg_value.clone())
        } else {
            OpSpec::read(k)
        }
    });
    sim.add_open_loop_client(ClientId(1), BG_RATE, Duration::from_millis(5), source);

    // Fail-stop the tail, dwell (writes land on the survivors), restart.
    sim.kill_replica(TAIL);
    let dwell = sim.now() + Duration::from_millis(2);
    sim.run_until(dwell);
    let t0 = sim.now();
    sim.restart_replica(TAIL);

    // Step until the transfer finished and the switch lifted the gate.
    let horizon = t0 + Duration::from_millis(500);
    let mut mttr_us = f64::NAN;
    let mut gate_lifted = false;
    loop {
        let recovering = sim
            .world()
            .actor::<SimWorker>(NodeId::Replica(TAIL))
            .is_none_or(|a| a.is_recovering());
        let gated = sim.switch_core().is_none_or(|sw| sw.is_gated(TAIL));
        if !recovering && !gated {
            mttr_us = (sim.now().nanos() - t0.nanos()) as f64 / 1e3;
            gate_lifted = true;
            break;
        }
        if sim.now() >= horizon {
            break;
        }
        let next = sim.now() + Duration::from_micros(20);
        sim.run_until(next);
    }
    Row {
        store_keys,
        preload_us,
        mttr_us,
        gate_lifted,
    }
}

fn write_json(rows: &[Row]) {
    let mut snap = Snapshot::new(
        "fig_recovery",
        1,
        "Replica MTTR (restart verb -> transfer done + read gate lifted) \
         vs preloaded store size; deterministic virtual time, seed 61",
    );
    snap.text("unit", "microseconds");
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{ \"store_keys\": {}, \"mttr_us\": {:.1}, \"gate_lifted\": {} }}",
                r.store_keys, r.mttr_us, r.gate_lifted
            )
        })
        .collect();
    snap.rows("rows", &rendered);
    snap.write();
}

fn main() {
    let rows: Vec<Row> = store_sizes().into_iter().map(measure).collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.store_keys.to_string(),
                format!("{:.1}", r.preload_us),
                format!("{:.1}", r.mttr_us),
                r.gate_lifted.to_string(),
            ]
        })
        .collect();
    print_table(
        "Replica recovery: MTTR vs store size",
        "a fixed settle+RTT floor plus a per-chunk term growing with the \
         store (chunked snapshot transfer); the read gate lifts in every row",
        &["store_keys", "preload_us", "mttr_us", "gate_lifted"],
        &table,
    );
    assert!(
        rows.iter().all(|r| r.gate_lifted),
        "a recovery never finished inside the horizon"
    );
    write_json(&rows);
}
