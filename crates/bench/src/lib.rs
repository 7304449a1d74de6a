//! Shared harness for the figure-reproduction benchmarks.
//!
//! Every figure benchmark follows the same pattern as the paper's
//! methodology (§9.1): build a deployment from its [`DeploymentSpec`],
//! attach independent open-loop read and write generators (the
//! DPDK-generator substitute), warm up, measure a window, and report
//! completed-operation rates and latency statistics. Saturated points use a
//! timeout longer than the run so the reported throughput is the sustained
//! completion rate (the servers are work-conserving single-server queues).
//!
//! One runner covers every deployment shape: a spec with `groups(1)` is the
//! rack-scale Figure 5–9 setup, `groups(n)` the §6.3 sharded scale-out of
//! Figure 7d — the measurement protocol cannot diverge between them.
//!
//! Figure 8 additionally needs a *closed-loop* client fleet, because its
//! effect — switch-dropped writes throttling the workload — only shows up
//! when dropped writes stall their issuer.

#![forbid(unsafe_code)]

pub mod snapshot;

pub use snapshot::Snapshot;

use bytes::Bytes;
use harmonia_core::client::{ClosedLoopClient, OpSpec, SourceFn};
use harmonia_core::deployment::{Cluster, DeploymentSpec, SimCluster};
use harmonia_switch::{SwitchStats, SwitchTotals};
use harmonia_types::{ClientId, Duration, Instant, NodeId};
use harmonia_workload::KeySpace;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Key distribution selector.
#[derive(Clone, Debug)]
pub enum Keys {
    /// Uniform over `n` keys (the paper's default: 1M; benches scale down
    /// to keep table construction fast, which does not change any shape).
    Uniform(usize),
    /// Zipf(θ) over `n` keys.
    Zipf(usize, f64),
}

impl Keys {
    fn build(&self) -> KeySpace {
        match *self {
            Keys::Uniform(n) => KeySpace::uniform(n),
            Keys::Zipf(n, theta) => KeySpace::zipf(n, theta),
        }
    }
}

/// One open-loop measurement.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Deployment under test (any shape — `groups(n)` is Figure 7d).
    pub cluster: DeploymentSpec,
    /// Offered read load (requests/second).
    pub read_rate: f64,
    /// Offered write load (requests/second).
    pub write_rate: f64,
    /// Key population.
    pub keys: Keys,
    /// Warmup (discarded).
    pub warmup: Duration,
    /// Measurement window.
    pub measure: Duration,
}

impl RunSpec {
    /// A spec with the paper's defaults and the given rates.
    pub fn new(cluster: DeploymentSpec, read_rate: f64, write_rate: f64) -> Self {
        RunSpec {
            cluster,
            read_rate,
            write_rate,
            keys: Keys::Uniform(100_000),
            warmup: Duration::from_millis(10),
            measure: measure_window(),
        }
    }
}

/// Measured outcome of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunResult {
    /// Completed reads, MRPS.
    pub reads_mrps: f64,
    /// Completed writes, MRPS.
    pub writes_mrps: f64,
    /// Mean read latency, µs.
    pub read_mean_us: f64,
    /// 99th-percentile read latency, µs.
    pub read_p99_us: f64,
    /// Mean write latency, µs.
    pub write_mean_us: f64,
    /// Writes rejected (out-of-order) during the window.
    pub writes_rejected: u64,
    /// Switch data-plane counters at the end of the run.
    pub switch: SwitchStats,
    /// Dirty-set occupancy at the end of the run, across every hosted
    /// group.
    pub dirty_len: usize,
    /// Dirty-set SRAM consumed on the switch, across every hosted group
    /// (the §6.3 budget check).
    pub switch_memory_bytes: usize,
    /// Dirty-set SRAM the run needed: every group's peak occupancy in
    /// bytes, summed.
    pub switch_peak_bytes: usize,
    /// Replica groups hosted by the switch (1 for rack-scale runs).
    pub groups: usize,
}

impl RunResult {
    /// Total completed throughput, MRPS.
    pub fn total_mrps(&self) -> f64 {
        self.reads_mrps + self.writes_mrps
    }
}

/// Measurement window length (override with `HARMONIA_BENCH_MS`).
pub fn measure_window() -> Duration {
    let ms = std::env::var("HARMONIA_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(30);
    Duration::from_millis(ms)
}

fn reader_source(keys: KeySpace) -> SourceFn {
    Box::new(move |rng: &mut SmallRng| OpSpec::read(keys.sample(rng)))
}

fn writer_source(keys: KeySpace, value_len: usize) -> SourceFn {
    let value = Bytes::from(vec![0x5au8; value_len]);
    Box::new(move |rng: &mut SmallRng| OpSpec::write(keys.sample(rng), value.clone()))
}

/// Execute one open-loop measurement — any deployment shape.
pub fn run_open_loop(spec: &RunSpec) -> RunResult {
    let mut sim = spec.cluster.build_sim();
    let keys = spec.keys.build();
    // Bring-up: each group's fast path arms only after the first
    // WRITE-COMPLETION with the switch's id *in that group* (§5.3), so
    // prime every group with one write — as would any real deployment.
    // Keys are probed until every group is covered (the shard map is a pure
    // hash, so a handful suffice; with one group the first key does it).
    if spec.cluster.harmonia {
        let plan = spec
            .cluster
            .group_covering_keys()
            .into_iter()
            .map(|key| OpSpec::write(key, Bytes::from_static(b"1")))
            .collect();
        sim.add_closed_loop_client(ClientId(99), plan, Duration::from_millis(5));
    }
    // Timeout past the end of the run: never cull, always count.
    let timeout = spec.warmup + spec.measure + Duration::from_secs(1);
    if spec.read_rate > 0.0 {
        sim.add_open_loop_client(
            ClientId(1),
            spec.read_rate,
            timeout,
            reader_source(keys.clone()),
        );
    }
    if spec.write_rate > 0.0 {
        sim.add_open_loop_client(
            ClientId(2),
            spec.write_rate,
            timeout,
            writer_source(keys, 128),
        );
    }
    measure_open_loop(sim, spec.warmup, spec.measure)
}

/// Shared open-loop measurement tail: warm up, reset, measure, and fold the
/// deployment's snapshot plus the switch's data-plane state into a
/// [`RunResult`].
fn measure_open_loop(mut sim: SimCluster, warmup: Duration, measure: Duration) -> RunResult {
    sim.run_until(Instant::ZERO + warmup);
    sim.reset_telemetry();
    sim.run_until(Instant::ZERO + warmup + measure);

    let secs = measure.as_secs_f64();
    let snap = sim.obs_snapshot();
    let us = |ns: u64| Duration::from_nanos(ns).as_micros_f64();
    let mut result = RunResult {
        reads_mrps: snap.clients.reads_done as f64 / secs / 1e6,
        writes_mrps: snap.clients.writes_done as f64 / secs / 1e6,
        read_mean_us: us(snap.read_latency.mean_ns),
        read_p99_us: us(snap.read_latency.p99_ns),
        write_mean_us: us(snap.write_latency.mean_ns),
        writes_rejected: snap.clients.writes_rejected,
        ..RunResult::default()
    };
    if let Some(switch) = sim.switch() {
        let totals = SwitchTotals::of(&switch.observe());
        result.switch = totals.stats;
        result.dirty_len = totals.dirty_len;
        result.switch_memory_bytes = totals.memory_bytes;
        result.switch_peak_bytes = totals.peak_bytes;
        result.groups = totals.groups;
    }
    result
}

/// The paper's Figure 6a/9 methodology: "the client fixes its rate of
/// generating write requests, and measures the maximum read throughput that
/// can be handled by the replicas". Binary-search the offered read rate for
/// the largest value at which the system still sustains ≥ 95 % of the fixed
/// write rate, then measure that operating point with the full window.
pub fn max_read_at_fixed_write(
    cluster: &DeploymentSpec,
    write_rate: f64,
    keys: &Keys,
) -> RunResult {
    let probe = |read_rate: f64, measure: Duration| -> RunResult {
        let mut spec = RunSpec::new(cluster.clone(), read_rate, write_rate);
        spec.keys = keys.clone();
        spec.warmup = Duration::from_millis(8);
        spec.measure = measure;
        run_open_loop(&spec)
    };
    let short = Duration::from_millis(12);
    let writes_ok = |r: &RunResult| write_rate == 0.0 || r.writes_mrps * 1e6 >= 0.95 * write_rate;
    // Establish bounds: if even read-free operation cannot sustain the write
    // rate, the operating point is "no reads".
    if !writes_ok(&probe(0.0, short)) {
        return probe(0.0, measure_window());
    }
    let (mut lo, mut hi) = (0.0f64, 12.0e6f64);
    for _ in 0..7 {
        let mid = 0.5 * (lo + hi);
        if writes_ok(&probe(mid, short)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    probe(lo, measure_window())
}

/// Measured outcome of one closed-loop run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClosedLoopResult {
    /// Completed operations within the window, MRPS.
    pub mrps: f64,
    /// Dirty-set SRAM the run needed (see [`RunResult::switch_peak_bytes`]).
    pub switch_peak_bytes: usize,
}

/// Execute a closed-loop measurement: `clients` logical connections issuing
/// back-to-back operations (reads + `write_ratio` writes); a write dropped
/// by the switch stalls its connection for the retry timeout, which is the
/// Figure 8 mechanism. Returns completed MRPS within the window and the
/// dirty set's peak.
pub fn run_closed_loop(
    cluster: &DeploymentSpec,
    clients: usize,
    write_ratio: f64,
    keys: &Keys,
    warmup: Duration,
    measure: Duration,
    op_timeout: Duration,
) -> ClosedLoopResult {
    let mut sim = cluster.build_sim();
    let keyspace = keys.build();
    let value = Bytes::from(vec![0x5au8; 128]);
    // Enough planned ops that no client finishes early: triple the fleet's
    // fair share of an optimistic 4 MRPS aggregate.
    let horizon = warmup + measure;
    let ops_per_client =
        ((horizon.as_secs_f64() * 4.0e6 / clients as f64) * 3.0).max(64.0) as usize;
    for c in 0..clients {
        let mut rng = SmallRng::seed_from_u64(0xF168 + c as u64);
        let plan: Vec<OpSpec> = (0..ops_per_client)
            .map(|_| {
                let key = keyspace.sample(&mut rng);
                if rng.gen_bool(write_ratio) {
                    OpSpec::write(key, value.clone())
                } else {
                    OpSpec::read(key)
                }
            })
            .collect();
        sim.add_closed_loop_client(ClientId(100 + c as u32), plan, op_timeout);
    }
    sim.run_until(Instant::ZERO + horizon);

    // Count ops completed inside the measurement window.
    let mut done = 0u64;
    for c in 0..clients {
        let node = NodeId::Client(ClientId(100 + c as u32));
        if let Some(cl) = sim.world().actor::<ClosedLoopClient>(node) {
            done += cl
                .records
                .iter()
                .filter(|r| r.ok && r.completed >= Instant::ZERO + warmup)
                .count() as u64;
        }
    }
    ClosedLoopResult {
        mrps: done as f64 / measure.as_secs_f64() / 1e6,
        switch_peak_bytes: sim
            .switch()
            .map_or(0, |s| SwitchTotals::of(&s.observe()).peak_bytes),
    }
}

/// Print a TSV table with a title and the paper's expected shape.
pub fn print_table(title: &str, expectation: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    println!("# paper expectation: {expectation}");
    println!("{}", headers.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
}

/// Format MRPS with 3 decimals.
pub fn mrps(v: f64) -> String {
    format!("{v:.3}")
}

/// Format µs with 1 decimal.
pub fn us(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_replication::ProtocolKind;

    fn quick(cluster: DeploymentSpec, read: f64, write: f64) -> RunResult {
        let mut spec = RunSpec::new(cluster, read, write);
        spec.warmup = Duration::from_millis(5);
        spec.measure = Duration::from_millis(10);
        spec.keys = Keys::Uniform(10_000);
        run_open_loop(&spec)
    }

    #[test]
    fn open_loop_reports_plausible_numbers() {
        let r = quick(DeploymentSpec::new(), 200_000.0, 10_000.0);
        assert!((0.15..0.25).contains(&r.reads_mrps), "{:?}", r.reads_mrps);
        assert!((0.005..0.015).contains(&r.writes_mrps));
        assert!(r.read_mean_us > 10.0 && r.read_mean_us < 1000.0);
        assert!(r.switch.reads_fast_path > 0);
    }

    #[test]
    fn saturation_measurement_matches_capacity() {
        // Baseline chain read-only at overload: the tail's 0.92 MQPS.
        let r = quick(DeploymentSpec::new().baseline(), 2_000_000.0, 0.0);
        assert!(
            (0.85..0.98).contains(&r.reads_mrps),
            "tail capacity: {}",
            r.reads_mrps
        );
    }

    #[test]
    fn sharded_open_loop_reports_memory_and_scales() {
        let run = |groups: usize| {
            let mut spec = RunSpec::new(
                DeploymentSpec::new().groups(groups),
                200_000.0 * groups as f64,
                10_000.0 * groups as f64,
            );
            spec.keys = Keys::Uniform(10_000);
            spec.warmup = Duration::from_millis(5);
            spec.measure = Duration::from_millis(10);
            run_open_loop(&spec)
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.groups, 1);
        assert_eq!(four.groups, 4);
        assert_eq!(four.switch_memory_bytes, 4 * one.switch_memory_bytes);
        assert!(one.switch_memory_bytes > 0);
        assert!(one.switch_peak_bytes > 0);
        assert!(one.switch_peak_bytes < one.switch_memory_bytes / 100);
        // 4 groups absorb 4x the offered load (each group is its own
        // 3-replica chain; the spine switch is pure delay).
        assert!(four.total_mrps() > 3.0 * one.total_mrps() * 0.8);
        assert!(four.switch.reads_fast_path > 0);
    }

    #[test]
    fn closed_loop_throughput_is_positive_and_bounded() {
        let cluster = DeploymentSpec::new().protocol(ProtocolKind::Chain);
        let r = run_closed_loop(
            &cluster,
            16,
            0.05,
            &Keys::Uniform(1_000),
            Duration::from_millis(5),
            Duration::from_millis(10),
            Duration::from_millis(5),
        );
        let tput = r.mrps;
        assert!(tput > 0.1, "tput={tput}");
        assert!(tput < 5.0);
        // At most one dirty entry per connection, and at least one write.
        assert!((8..=16 * 8).contains(&r.switch_peak_bytes), "{r:?}");
    }
}
