//! The three drivers, measured from outside through `DeploymentSpec` and
//! `Cluster` only.
//!
//! `udp` and `live` keep one cluster per block and push closed-loop plans
//! through `Cluster::run_plans`; `sim` builds a fresh cluster per trial
//! (`SimCluster::run_plans` takes one call per cluster) and times the call.

use std::time::Instant;

use harmonia::core::client::{ClosedLoopClient, OpSpec};
use harmonia::core::RecordedOp;
use harmonia::obs::{json_text, ObsSnapshot};
use harmonia::prelude::{Cluster, DeploymentSpec, SimCluster};
use harmonia::types::{ClientId, Duration as VDuration, NodeId, OpKind};
use harmonia::workload::KeySpace;

use crate::check::{corrupt_one_read, Checker};
use crate::json::Json;
use crate::rig::{fill, BlockConfig, Rig, RigReport};
use crate::stages::stage_waits;
use crate::stats::{percentile_sorted, sort};
use crate::workloads::Workload;

/// Closed-loop clients on the threaded rigs. The client API is synchronous
/// (one operation in flight per client), so offered load is a number of
/// client threads, and the reference host has two cores.
pub const THREADED_PLANS: usize = 2;
/// Closed-loop clients in the simulator (virtual concurrency is free).
pub const SIM_PLANS: usize = 4;
/// Parallel clients that store the preload.
const PRELOAD_CLIENTS: usize = 2;
/// Discarded trials before a threaded rig's timed ones. A write-heavy mix
/// on the UDP driver needs ~15 000 operations before its receive pools and
/// the replicas' pinned buffers stop growing.
const WARM_UP_TRIALS: u32 = 3;

/// What one trial's histories say about speed.
#[derive(Clone, Debug, Default)]
pub struct TrialStats {
    pub ops: usize,
    /// Operations per second of (last completion − first invocation), on
    /// the histories' own clock.
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub read_p50_us: f64,
    pub read_p99_us: f64,
    pub write_p50_us: f64,
    pub write_p99_us: f64,
}

pub fn trial_stats(histories: &[Vec<RecordedOp>]) -> TrialStats {
    let done = || histories.iter().flatten().filter(|r| r.ok);
    let first = done().map(|r| r.invoked.nanos()).min().unwrap_or(0);
    let last = done().map(|r| r.completed.nanos()).max().unwrap_or(0);
    let latencies = |kind: Option<OpKind>| {
        let mut v: Vec<f64> = done()
            .filter(|r| kind.is_none_or(|k| r.kind == k))
            .map(|r| r.completed.since(r.invoked).as_micros_f64())
            .collect();
        sort(&mut v);
        v
    };
    let (all, reads, writes) = (
        latencies(None),
        latencies(Some(OpKind::Read)),
        latencies(Some(OpKind::Write)),
    );
    TrialStats {
        ops: all.len(),
        ops_per_s: all.len() as f64 / ((last - first).max(1) as f64 / 1e9),
        p50_us: percentile_sorted(&all, 50.0),
        p99_us: percentile_sorted(&all, 99.0),
        read_p50_us: percentile_sorted(&reads, 50.0),
        read_p99_us: percentile_sorted(&reads, 99.0),
        write_p50_us: percentile_sorted(&writes, 50.0),
        write_p99_us: percentile_sorted(&writes, 99.0),
    }
}

/// One spawned threaded deployment, preloaded, with the checker that
/// follows its keys from trial to trial.
pub struct ThreadedRig {
    pub rig: Rig,
    pub cluster: Box<dyn Cluster>,
    pub checker: Checker,
}

impl ThreadedRig {
    /// Spawn the default deployment on the `udp` or `live` driver and
    /// store every key.
    pub fn start(rig: Rig, w: &Workload, keys: &KeySpace) -> ThreadedRig {
        let spec = DeploymentSpec::new();
        let mut cluster: Box<dyn Cluster> = match rig {
            Rig::Udp => Box::new(spec.spawn_udp()),
            Rig::Live => Box::new(spec.spawn_live()),
            Rig::Sim | Rig::Path => panic!("{} is not a threaded driver", rig.name()),
        };
        let stored = cluster.run_plans(w.preload_plans(keys, PRELOAD_CLIENTS));
        let lost = stored.iter().flatten().filter(|r| !r.ok).count() as u64;
        ThreadedRig {
            rig,
            cluster,
            checker: Checker::preloaded(w, keys, lost),
        }
    }

    /// Run one trial of `ops_per_plan` operations on each of the two
    /// closed-loop clients, check its history, and return its numbers.
    pub fn trial(
        &mut self,
        w: &Workload,
        keys: &KeySpace,
        seed: u64,
        trial: u32,
        ops_per_plan: usize,
        inject_fault: bool,
    ) -> TrialStats {
        let rig = self.rig.name();
        let tag = rig.as_bytes()[0] as char;
        let plans: Vec<Vec<OpSpec>> = (0..THREADED_PLANS)
            .map(|p| w.plan(keys, seed, tag, trial, p, ops_per_plan))
            .collect();
        let mut histories = self.cluster.run_plans(plans);
        let stats = trial_stats(&histories);
        if inject_fault {
            corrupt_one_read(&mut histories);
        }
        self.checker.check(rig, &histories);
        stats
    }
}

/// Build the default deployment in the simulator and store every key
/// through two closed-loop clients (ids clear of the `10 + i` range
/// `run_plans` assigns).
pub fn sim_start(w: &Workload, keys: &KeySpace, seed: u64) -> (SimCluster, u64) {
    let mut sim = DeploymentSpec::new().seed(seed).build_sim();
    let clients: Vec<ClientId> = (0..PRELOAD_CLIENTS as u32)
        .map(|i| ClientId(1000 + i))
        .collect();
    for (&id, plan) in clients.iter().zip(w.preload_plans(keys, PRELOAD_CLIENTS)) {
        sim.add_closed_loop_client(id, plan, VDuration::from_millis(5));
    }
    let client = |sim: &SimCluster, id: ClientId| -> (bool, u64) {
        let c: &ClosedLoopClient = sim
            .world()
            .actor(NodeId::Client(id))
            .expect("preload client exists");
        (
            c.is_done(),
            c.records.iter().filter(|r| !r.ok).count() as u64,
        )
    };
    // The preload takes tens of virtual milliseconds; the bound only stops
    // a broken build from spinning forever.
    for _ in 0..1000 {
        if clients.iter().all(|&id| client(&sim, id).0) {
            break;
        }
        let next = sim.now() + VDuration::from_millis(1);
        sim.run_until(next);
    }
    let mut failed = 0;
    for &id in &clients {
        let (done, lost) = client(&sim, id);
        assert!(done, "sim preload did not finish");
        failed += lost;
    }
    (sim, failed)
}

pub struct SimTrial {
    /// Simulated operations per wall-clock second of the `run_plans` call.
    pub wall_ops_per_s: f64,
    /// The same history on its own (virtual) clock.
    pub virtual_time: TrialStats,
    pub histories: Vec<Vec<RecordedOp>>,
}

/// One timed `run_plans` call on a preloaded simulator.
pub fn sim_trial(
    sim: &mut SimCluster,
    w: &Workload,
    keys: &KeySpace,
    seed: u64,
    trial: u32,
    ops_per_plan: usize,
) -> SimTrial {
    let plans: Vec<Vec<OpSpec>> = (0..SIM_PLANS)
        .map(|p| w.plan(keys, seed, 's', trial, p, ops_per_plan))
        .collect();
    let started = Instant::now();
    let histories = sim.run_plans(plans);
    let wall = started.elapsed().as_secs_f64();
    let virtual_time = trial_stats(&histories);
    SimTrial {
        wall_ops_per_s: virtual_time.ops as f64 / wall,
        virtual_time,
        histories,
    }
}

/// What the switch did with reads, and what it left behind, as `rig`'s
/// contribution to the per-layer metrics.
fn push_switch_obs(report: &mut RigReport, rig: Rig, obs: &ObsSnapshot) {
    let sw = &obs.switch;
    report.push(
        &format!("switch.fast_path_share.{}", rig.name()),
        fast_path_share(sw.reads_fast_path, sw.reads_normal),
    );
    report.push("switch.writes_dropped", sw.writes_dropped as f64);
    report.push("switch.dirty_len_end", sw.dirty_len as f64);
}

/// One block of a threaded driver: spawn, store every key, warm up, run
/// the trials, read the obs snapshot and the trace rings, tear down.
pub fn threaded_block(rig: Rig, cfg: &BlockConfig) -> RigReport {
    let w = &cfg.workload;
    let keys = w.keyspace();
    let name = rig.name();
    let ops = match rig {
        Rig::Udp => cfg.scale.udp_ops,
        _ => cfg.scale.live_ops,
    };
    let mut report = RigReport::default();
    let started = Instant::now();
    let mut threaded = ThreadedRig::start(rig, w, &keys);
    report.setup_s = started.elapsed().as_secs_f64();

    // The first trials after a spawn run slower (cold sockets, buffer
    // pools, page faults). Users pay that once, not per request, so they
    // are run and discarded.
    for n in 0..WARM_UP_TRIALS {
        threaded.trial(w, &keys, cfg.seed, cfg.trial_no(900 + n), ops, false);
    }
    fill(cfg.slice_s, |n| {
        let inject = cfg.inject_fault && rig == Rig::Udp && cfg.block == 0 && n == 1;
        let t = threaded.trial(w, &keys, cfg.seed, cfg.trial_no(n), ops, inject);
        report.push(&format!("{name}_ops_per_s"), t.ops_per_s);
        report.push(&format!("{name}_p50_us"), t.p50_us);
        report.push(&format!("core.{name}_p99_us"), t.p99_us);
        report.push(&format!("core.{name}_read_p50_us"), t.read_p50_us);
        report.push(&format!("core.{name}_write_p50_us"), t.write_p50_us);
    });

    let obs = threaded.cluster.obs_snapshot();
    if cfg.trace {
        // Where requests waited between stages, from whatever the bounded
        // trace rings still hold (the last few hundred requests).
        let waits = stage_waits(&threaded.cluster.trace_events());
        report.push(&format!("core.{name}_to_switch_us"), waits.to_switch_us);
        report.push(&format!("core.{name}_to_replica_us"), waits.to_replica_us);
        report.push(&format!("core.{name}_to_done_us"), waits.to_done_us);
        report.push(
            &format!("extra.{name}_stage_wait_requests"),
            waits.samples as f64,
        );
        push_switch_obs(&mut report, rig, &obs);
        report.push("core.retries", obs.clients.retries as f64);
        report.push("core.timeouts", obs.clients.timeouts as f64);
        report.push("obs.trace_dropped", obs.trace.dropped as f64);
        if rig == Rig::Udp {
            let wire = &obs.transport;
            report.push(
                "net.udp_frames_per_datagram",
                wire.frames_sent as f64 / wire.datagrams_sent.max(1) as f64,
            );
            report.push(
                "net.udp_wire_errors",
                (wire.decode_errors + wire.send_errors + wire.unresolved + wire.oversized) as f64,
            );
            for _ in 0..5 {
                let started = Instant::now();
                std::hint::black_box(threaded.cluster.obs_snapshot());
                report.push("obs.snapshot_us", started.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    report.obs = Json::parse(&json_text(&obs)).ok();
    report.totals = threaded.checker.totals;
    report
}

/// One block of simulated trials. `SimCluster::run_plans` takes one call
/// per cluster, so each trial gets a fresh, preloaded simulator; the block's
/// first build is the one counted as set-up, and its first trial is
/// discarded (it faults the process's heap in).
pub fn sim_block(cfg: &BlockConfig) -> RigReport {
    let w = &cfg.workload;
    let keys = w.keyspace();
    let mut report = RigReport::default();
    let trial = |n: u32, report: &mut RigReport| {
        let trial = cfg.trial_no(n);
        let started = Instant::now();
        let (mut sim, lost) = sim_start(w, &keys, cfg.seed.wrapping_add(u64::from(trial)));
        let setup_s = started.elapsed().as_secs_f64();
        let mut checker = Checker::preloaded(w, &keys, lost);
        let t = sim_trial(&mut sim, w, &keys, cfg.seed, trial, cfg.scale.sim_ops);
        checker.check("sim", &t.histories);
        report.totals.absorb(checker.totals);
        (setup_s, t, sim)
    };
    report.setup_s = trial(900, &mut report).0;
    fill(cfg.slice_s, |n| {
        let (_, t, sim) = trial(n, &mut report);
        report.push("sim_ops_per_s", t.wall_ops_per_s);
        if n == 1 {
            let obs = sim.obs_snapshot();
            report.obs = Json::parse(&json_text(&obs)).ok();
            // Virtual time does not depend on how fast the code runs; these
            // move only when protocol or model behaviour changes.
            let vt = &t.virtual_time;
            report.push("sim.vt_ops_per_s", vt.ops_per_s);
            report.push("sim.vt_read_p50_us", vt.read_p50_us);
            report.push("sim.vt_read_p99_us", vt.read_p99_us);
            report.push("sim.vt_write_p50_us", vt.write_p50_us);
            report.push("sim.vt_write_p99_us", vt.write_p99_us);
            push_switch_obs(&mut report, Rig::Sim, &obs);
        }
    });
    report
}

/// Share of reads the switch sent down the single-replica fast path.
pub fn fast_path_share(reads_fast_path: u64, reads_normal: u64) -> f64 {
    let reads = reads_fast_path + reads_normal;
    if reads == 0 {
        0.0
    } else {
        reads_fast_path as f64 / reads as f64
    }
}
