//! Figure 8 — impact of switch memory (hash-table slots).
//!
//! A closed-loop client fleet issues a 5 % write mix; when the dirty set is
//! too small, writes are dropped in the data plane (§6.1) and stall their
//! issuing connection until the retry timeout — throughput collapses. With
//! enough slots to track all outstanding writes, throughput saturates.
//! Under a zipf-0.9 skew the curve rises more slowly: a hot object pins a
//! slot, and writes to colliding objects keep being dropped (§9.4).
//!
//! Beside each table size, `peak_bytes` is what the dirty set held at its
//! fullest (peak occupancy × 8 B): the memory the run needed, where
//! `total_slots` is what it was given.
//!
//! The knee position scales with (write rate × write duration); our
//! simulated write latency is lower than the paper's loaded testbed, so the
//! knee sits proportionally earlier — the shape is the result.

use harmonia_bench::{mrps, print_table, run_closed_loop, Keys};
use harmonia_core::deployment::DeploymentSpec;
use harmonia_replication::ProtocolKind;
use harmonia_switch::TableConfig;
use harmonia_types::Duration;

fn cluster(total_slots: usize) -> DeploymentSpec {
    // Keep the 3-stage structure of the prototype (§8); tiny tables get one
    // stage so that "4 slots" really means 4.
    let (stages, per_stage) = if total_slots < 12 {
        (1, total_slots)
    } else {
        (3, total_slots / 3)
    };
    DeploymentSpec::new()
        .protocol(ProtocolKind::Chain)
        .replicas(3)
        .table(TableConfig {
            stages,
            slots_per_stage: per_stage,
            entry_bytes: 8,
        })
}

fn main() {
    let slot_counts = [4usize, 16, 64, 256, 1024, 4096, 16384, 65536];
    let mut rows = Vec::new();
    for (name, keys) in [
        ("uniform", Keys::Uniform(1_000_000)),
        ("zipf-0.9", Keys::Zipf(1_000_000, 0.9)),
    ] {
        for &slots in &slot_counts {
            // 512 connections over the paper's 1M-key space; a write dropped
            // by the switch stalls its connection for the 20 ms retry
            // timeout (up to 10 attempts), which is what collapses
            // throughput when the table is undersized.
            let r = run_closed_loop(
                &cluster(slots),
                512,
                0.05,
                &keys,
                Duration::from_millis(10),
                harmonia_bench::measure_window(),
                Duration::from_millis(20),
            );
            rows.push(vec![
                name.to_string(),
                slots.to_string(),
                r.switch_peak_bytes.to_string(),
                mrps(r.mrps),
            ]);
        }
    }
    print_table(
        "Figure 8: throughput vs hash-table slots (log scale), 5% writes",
        "throughput rises with slots and saturates once the table can hold \
         all outstanding writes (~2000 slots in the paper; proportionally \
         earlier here, see header comment); uniform rises faster than \
         zipf-0.9 because hot objects pin slots",
        &[
            "distribution",
            "total_slots",
            "peak_bytes",
            "throughput_mrps",
        ],
        &rows,
    );
}
