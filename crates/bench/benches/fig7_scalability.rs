//! Figure 7 — scalability with the number of replicas (2 → 10), plus the
//! §6.3 group-count sweep.
//!
//! (a) read-only: CR flat at one server; Harmonia near-linear (10× at 10
//!     replicas — the headline result).
//! (b) write-only: both flat (~0.8 MRPS; writes touch every replica).
//! (c) 5 % writes: Harmonia near-linear until the tail's write work caps it.
//! (d) sharded scale-out: total throughput vs. the number of replica groups
//!     (1 → 16) behind one spine switch, with the switch's dirty-set SRAM
//!     reported per run — the capacity it was given and, as `peak_bytes`,
//!     what its busiest moment needed: the quantitative form of "the
//!     capacity of a switch far exceeds that of a single replica group".
//!
//! Figure 7d is a *simulated* sweep: on real threads a `groups(n)` fleet
//! scales with the host's cores, not with `n`, so the ledger (`bench/e2e`)
//! measures the threaded drivers at one shape and this figure owns the curve.

use harmonia_bench::{mrps, print_table, run_open_loop, Keys, RunSpec};
use harmonia_core::deployment::DeploymentSpec;
use harmonia_replication::ProtocolKind;
use harmonia_types::Duration;

fn cluster(harmonia: bool, replicas: usize) -> DeploymentSpec {
    DeploymentSpec::new()
        .protocol(ProtocolKind::Chain)
        .harmonia(harmonia)
        .replicas(replicas)
}

const REPLICAS: [usize; 9] = [2, 3, 4, 5, 6, 7, 8, 9, 10];

fn sweep(read_per_replica: f64, write_ratio: f64) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for harmonia in [false, true] {
        for &n in &REPLICAS {
            // Offer enough to saturate whichever system is under test.
            let total = read_per_replica * n as f64;
            let mut spec = RunSpec::new(
                cluster(harmonia, n),
                total * (1.0 - write_ratio),
                total * write_ratio,
            );
            spec.keys = Keys::Uniform(100_000);
            let r = run_open_loop(&spec);
            rows.push(vec![
                if harmonia { "Harmonia" } else { "CR" }.to_string(),
                n.to_string(),
                mrps(r.reads_mrps),
                mrps(r.writes_mrps),
                mrps(r.total_mrps()),
            ]);
        }
    }
    rows
}

fn main() {
    print_table(
        "Figure 7a: read-only scalability",
        "CR flat (~0.92 MRPS regardless of replicas); Harmonia grows \
         linearly, ~10x CR at 10 replicas",
        &[
            "system",
            "replicas",
            "read_mrps",
            "write_mrps",
            "total_mrps",
        ],
        &sweep(1_150_000.0, 0.0),
    );

    // Write-only: capacity is one server's write rate for both systems.
    let mut rows = Vec::new();
    for harmonia in [false, true] {
        for &n in &REPLICAS {
            let mut spec = RunSpec::new(cluster(harmonia, n), 0.0, 1_000_000.0);
            spec.keys = Keys::Uniform(100_000);
            let r = run_open_loop(&spec);
            rows.push(vec![
                if harmonia { "Harmonia" } else { "CR" }.to_string(),
                n.to_string(),
                mrps(r.writes_mrps),
            ]);
        }
    }
    print_table(
        "Figure 7b: write-only scalability",
        "both systems flat at ~0.8 MRPS for every replica count (writes \
         are processed by every node)",
        &["system", "replicas", "write_mrps"],
        &rows,
    );

    print_table(
        "Figure 7c: mixed workload (5% writes) scalability",
        "CR flat; Harmonia near-linear, tapering at high replica counts as \
         the tail's write work becomes the bottleneck",
        &[
            "system",
            "replicas",
            "read_mrps",
            "write_mrps",
            "total_mrps",
        ],
        &sweep(1_150_000.0, 0.05),
    );

    // §6.3: throughput vs. group count through one spine switch. Each group
    // is a 3-replica chain; the offered mixed load (5 % writes) scales with
    // the group count, so near-linear rows mean the spine switch is not the
    // bottleneck. `switch_mem_bytes` grows linearly at ~`per_group` bytes
    // per group — hundreds of groups fit in a tens-of-MB SRAM budget —
    // and `peak_bytes` is how much of it the dirty sets ever held at once.
    let mut rows = Vec::new();
    for &groups in &[1usize, 2, 4, 8, 16] {
        let per_group_load = 600_000.0;
        let total = per_group_load * groups as f64;
        let mut spec = RunSpec::new(
            DeploymentSpec::new().groups(groups).replicas(3),
            total * 0.95,
            total * 0.05,
        );
        spec.keys = Keys::Uniform(100_000);
        spec.warmup = Duration::from_millis(10);
        spec.measure = harmonia_bench::measure_window();
        let r = run_open_loop(&spec);
        let per_group = r.switch_memory_bytes / r.groups.max(1);
        rows.push(vec![
            groups.to_string(),
            mrps(r.reads_mrps),
            mrps(r.writes_mrps),
            mrps(r.total_mrps()),
            r.switch_memory_bytes.to_string(),
            per_group.to_string(),
            r.switch_peak_bytes.to_string(),
        ]);
    }
    print_table(
        "Figure 7d: sharded scale-out (groups of 3 replicas, 5% writes)",
        "total MRPS grows near-linearly with the group count; switch memory \
         grows by a constant ~16-64 KB per group, far below a tens-of-MB \
         SRAM budget (§6.3, §9.4)",
        &[
            "groups",
            "read_mrps",
            "write_mrps",
            "total_mrps",
            "switch_mem_bytes",
            "per_group_bytes",
            "peak_bytes",
        ],
        &rows,
    );
}
