//! What a run prints and what it writes: `workload metric value unit`
//! lines, the one-line JSON object the driver reads, and the result file
//! `compare` takes.

use std::process::Command;

use crate::json::Json;
use crate::rig::Scale;
use crate::rigs::{SIM_PLANS, THREADED_PLANS};
use crate::run::{RunConfig, RunResult};
use crate::stats::Summary;

/// One `workload metric value unit` line per metric.
pub fn metric_lines(result: &RunResult) -> String {
    result
        .metrics
        .iter()
        .map(|(def, s)| {
            format!(
                "{} {} {} {}\n",
                result.workload, def.name, s.value, def.unit
            )
        })
        .collect()
}

/// The last line of a single run: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric a `{value, unit}` with all measured digits.
pub fn contract_line(result: &RunResult) -> String {
    let metrics = result
        .metrics
        .iter()
        .map(|(def, s)| {
            (
                def.name.to_string(),
                Json::obj(vec![
                    ("value", Json::Num(s.value)),
                    ("unit", Json::str(def.unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

fn summary_json(s: &Summary, unit: &str) -> Json {
    Json::obj(vec![
        ("value", Json::Num(s.value)),
        ("median", Json::Num(s.median)),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
        ("mad", Json::Num(s.mad)),
        ("n", Json::Num(s.n as f64)),
        ("unit", Json::str(unit)),
        (
            "samples",
            Json::Arr(s.samples.iter().map(|&v| Json::Num(v)).collect()),
        ),
    ])
}

/// Where the numbers come from: host, commit, seed, sizes.
pub fn provenance(cfg: &RunConfig) -> Json {
    let head = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let Scale {
        udp_ops,
        live_ops,
        sim_ops,
        path_ops,
        blocks,
        ..
    } = cfg.scale;
    Json::obj(vec![
        (
            "host_cores",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
        ("git_head", Json::str(head)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("measure_seconds", Json::Num(cfg.seconds)),
        ("mmsg_accelerated", Json::Bool(mmsg::accelerated())),
        ("link", Json::str("host loopback / in-process channels, no injected delay or faults; sim uses the spec's ideal 5 us hop")),
        ("deployment", Json::str("DeploymentSpec::new(): chain, 3 replicas, 1 group, Harmonia on")),
        ("load", Json::str("closed loop: 2 clients (udp, live), 4 (sim), 32 outstanding (path)")),
        (
            "ops_per_trial",
            Json::obj(vec![
                ("udp", Json::Num((THREADED_PLANS * udp_ops) as f64)),
                ("live", Json::Num((THREADED_PLANS * live_ops) as f64)),
                ("sim", Json::Num((SIM_PLANS * sim_ops) as f64)),
                ("path", Json::Num(path_ops as f64)),
            ]),
        ),
        ("blocks_per_run", Json::Num(blocks as f64)),
        ("isolation", Json::str("every (block, rig) pair in a child process of its own")),
        ("build", Json::str("cargo --release")),
    ])
}

/// The result file: provenance, then per workload the end-to-end and
/// per-layer metrics (median, min, max, MAD, sample count), what each run
/// attempted and lost, and the drivers' obs snapshots.
pub fn result_file(cfg: &RunConfig, results: &[RunResult]) -> Json {
    let mut workloads: Vec<(String, Json)> = Vec::new();
    for r in results {
        let section = if r.trace { "per_layer" } else { "end_to_end" };
        let metrics = Json::Obj(
            r.metrics
                .iter()
                .map(|(def, s)| (def.name.to_string(), summary_json(s, def.unit)))
                .collect(),
        );
        let run = Json::obj(vec![
            ("trace", Json::Num(if r.trace { 1.0 } else { 0.0 })),
            ("correct", Json::Bool(r.correct())),
            ("attempted", Json::Num(r.attempted as f64)),
            ("failed", Json::Num(r.failed as f64)),
            ("elapsed_s", Json::Num(r.elapsed_s)),
            (
                "extra",
                Json::Obj(
                    r.extra
                        .iter()
                        .map(|(k, v)| {
                            (
                                k.clone(),
                                Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "violations",
                Json::Arr(r.violations.iter().map(Json::str).collect()),
            ),
        ]);
        let obs = Json::Obj(
            r.obs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        );
        let idx = match workloads.iter().position(|(name, _)| name == r.workload) {
            Some(i) => i,
            None => {
                workloads.push((
                    r.workload.to_string(),
                    Json::obj(vec![("runs", Json::Arr(Vec::new()))]),
                ));
                workloads.len() - 1
            }
        };
        let Json::Obj(fields) = &mut workloads[idx].1 else {
            unreachable!("workload entries are objects")
        };
        fields.retain(|(k, _)| k != section && k != "obs");
        fields.push((section.to_string(), metrics));
        fields.push(("obs".to_string(), obs));
        if let Some((_, Json::Arr(runs))) = fields.iter_mut().find(|(k, _)| k == "runs") {
            runs.push(run);
        }
    }
    Json::obj(vec![
        ("schema", Json::Num(1.0)),
        ("provenance", provenance(cfg)),
        ("workloads", Json::Obj(workloads)),
    ])
}
