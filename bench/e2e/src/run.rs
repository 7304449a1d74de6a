//! One benchmark run: a few blocks, each setting every rig up afresh and
//! running its trials alone, reduced to one value per declared metric (the
//! mean of the better half of its trials, see `stats::better_half_mean`).
//!
//! Every (block, rig) pair runs in a child process of its own — this same
//! executable with `--child`. The rigs do not tolerate each other: an idle
//! threaded cluster keeps sweeping and polling, every driver leaves
//! gigabytes of freed-but-fragmented heap behind (a stored value or a
//! recorded read result pins the whole 64 KB receive buffer it arrived
//! in), and a rig measured after another one ran two to five times slower
//! and far less steadily than the same rig in a fresh process. A fresh
//! process per block is also what a deployment is: it starts, serves,
//! stops. Several blocks give `setup_s` several samples and spread each rig's
//! trials over the run, so a disturbance of a few seconds cannot sit on
//! all of one rig's samples.

use std::process::{Command, Stdio};
use std::time::Instant;

use crate::check::CheckTotals;
use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::path::path_block;
use crate::rig::{BlockConfig, Rig, RigReport, Scale};
use crate::rigs::{sim_block, threaded_block};
use crate::stats::Summary;
use crate::workloads::Workload;

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds of timed trials, all rigs and blocks together.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub smoke: bool,
    pub inject_fault: bool,
}

pub struct RunResult {
    pub workload: &'static str,
    pub trace: bool,
    /// The declared metrics of this run's mode, in declaration order.
    pub metrics: Vec<(&'static MetricDef, Summary)>,
    /// Samples the blocks reported beyond the declared metrics.
    pub extra: Vec<(String, Vec<f64>)>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Set-ups, warm-ups, trials and checks together.
    pub elapsed_s: f64,
    /// `json_text(&obs_snapshot())` of each driver's last block.
    pub obs: Vec<(&'static str, Json)>,
}

impl RunResult {
    /// Outputs checked and at most one operation in a thousand lost.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && (self.failed as f64) <= 0.001 * self.attempted as f64
    }
}

/// Run one block in this process (what a `--child` does).
pub fn run_block(rig: Rig, cfg: &BlockConfig) -> RigReport {
    match rig {
        Rig::Udp | Rig::Live => threaded_block(rig, cfg),
        Rig::Sim => sim_block(cfg),
        Rig::Path => path_block(cfg),
    }
}

/// Run one block in a child process and read its report back.
fn spawn_block(rig: Rig, run: &RunConfig, cfg: &BlockConfig) -> Result<RigReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe);
    child
        .args(["--child", rig.name(), "--workload", cfg.workload.name])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--block", &cfg.block.to_string()])
        .args(["--seconds", &cfg.slice_s.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if run.smoke {
        child.arg("--smoke");
    }
    if cfg.inject_fault {
        child.arg("--inject-fault");
    }
    // `output` waits for the child to end.
    let out = child
        .output()
        .map_err(|e| format!("spawn {} block: {e}", rig.name()))?;
    if !out.status.success() {
        return Err(format!("{} block ended with {}", rig.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    RigReport::from_json(&Json::parse(line)?)
}

pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    // The traced run reports no set-up time, so it sets up once, and it
    // spends part of its time in the replays that follow the path trials.
    let blocks = if cfg.trace {
        1
    } else {
        cfg.scale.blocks.max(1)
    };
    let replays = if cfg.trace {
        5.0 * cfg.scale.replay_s
    } else {
        0.0
    };
    let per_block_s = (cfg.seconds - replays).max(0.0) / blocks as f64;

    let started = Instant::now();
    let mut setup_s = Vec::new();
    let mut samples: Vec<(String, Vec<f64>)> = Vec::new();
    let mut totals = CheckTotals::default();
    let mut obs = Vec::new();
    for block in 0..blocks {
        let mut block_setup_s = 0.0;
        for rig in Rig::ALL {
            let block_cfg = BlockConfig {
                workload: cfg.workload,
                seed: cfg.seed,
                block: block as u32,
                slice_s: rig.share() * per_block_s,
                trace: cfg.trace,
                scale: cfg.scale,
                inject_fault: cfg.inject_fault,
            };
            let report = spawn_block(rig, cfg, &block_cfg)?;
            block_setup_s += report.setup_s;
            for (name, values) in report.samples {
                match samples.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, all)) => all.extend(values),
                    None => samples.push((name, values)),
                }
            }
            totals.absorb(report.totals);
            if let Some(snapshot) = report.obs {
                obs.retain(|(name, _)| *name != rig.name());
                obs.push((rig.name(), snapshot));
            }
        }
        setup_s.push(block_setup_s);
    }

    // What only the whole run can say.
    samples.push(("setup_s".into(), setup_s));
    samples.push((
        "verify.check_ops_per_s".into(),
        vec![totals.checked as f64 / totals.time.as_secs_f64().max(1e-9)],
    ));
    samples.push((
        "verify.violations".into(),
        vec![totals.violations.len() as f64],
    ));
    samples.push((
        "failed_op_share".into(),
        vec![totals.failed as f64 / totals.attempted.max(1) as f64],
    ));

    let declared = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for def in declared {
        let values = samples
            .iter()
            .find(|(name, _)| name == def.name)
            .map(|(_, v)| v.as_slice())
            .filter(|v| !v.is_empty())
            .ok_or(format!("declared metric {} was not measured", def.name))?;
        let summary = if def.summed {
            Summary::exact(values.iter().sum())
        } else if def.exact {
            // A count repeats exactly for a seed; the first trial's is
            // reported, so the number of trials that fit the measuring
            // time cannot change it.
            Summary::exact(values[0])
        } else {
            Summary::of(values, def.better == Better::Higher)
        };
        metrics.push((def, summary));
    }
    samples.retain(|(name, _)| !declared.iter().any(|d| d.name == name));
    Ok(RunResult {
        workload: cfg.workload.name,
        trace: cfg.trace,
        metrics,
        extra: samples,
        attempted: totals.attempted,
        failed: totals.failed,
        violations: totals.violations,
        elapsed_s: started.elapsed().as_secs_f64(),
        obs,
    })
}
