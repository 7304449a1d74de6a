//! `compare`: what moved between two result files (the ROADMAP's
//! `bench-diff`), and how steady a set of them is.
//!
//! ```text
//! compare A.json B.json        per workload x end-to-end metric: both values, the
//!                              relative difference, the bound and a verdict; then the
//!                              per-layer metrics that moved most and whether the exact
//!                              counts agree. Exits 1 if anything is worse than its bound
//!                              or an exact count differs.
//! compare --spread R.json...   per workload x end-to-end metric over several runs:
//!                              median and interquartile range as a share of it (the
//!                              rule the benchmark's bounds are calibrated by).
//! ```
//!
//! Bounds and directions come from `BENCHMARK.json` at the root of the
//! checkout this was built in.

use std::process::ExitCode;

use harmonia_e2e_bench::json::Json;
use harmonia_e2e_bench::metrics::{Better, END_TO_END, PER_LAYER};
use harmonia_e2e_bench::stats::{median, spread};

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The bound `BENCHMARK.json` sets on `metric` (the contract's largest if it
/// names none).
fn bound_of(bounds: &[(String, f64)], metric: &str) -> f64 {
    bounds
        .iter()
        .find(|(n, _)| n == metric)
        .map_or(0.25, |(_, b)| *b)
}

/// `bound` of every end-to-end metric `BENCHMARK.json` declares.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let decl = load(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))?;
    Ok(decl
        .get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|e| {
            Some((
                e.get("name")?.as_str()?.to_string(),
                e.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

struct Measured {
    value: f64,
    /// Half-width of the value's own uncertainty as a share of it:
    /// 2 x 1.4826 x MAD / sqrt(n) of the trials behind it.
    uncertainty: f64,
}

fn measured(file: &Json, workload: &str, section: &str, metric: &str) -> Option<Measured> {
    let m = file
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let mad = m.get("mad").and_then(Json::as_f64).unwrap_or(0.0);
    let n = m.get("n").and_then(Json::as_f64).unwrap_or(1.0).max(1.0);
    let uncertainty = if value == 0.0 {
        0.0
    } else {
        2.0 * 1.4826 * mad / n.sqrt() / value.abs()
    };
    Some(Measured { value, uncertainty })
}

fn workloads(file: &Json) -> Vec<String> {
    file.get("workloads")
        .map(Json::fields)
        .unwrap_or_default()
        .iter()
        .map(|(name, _)| name.clone())
        .collect()
}

/// `(b - a) / |a|`, signed so that positive means B is worse.
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let rel = (b - a) / a.abs();
    match better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut ok = true;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "end-to-end", "A", "B", "B vs A", "bound"
    );
    for w in workloads(a) {
        for def in END_TO_END {
            let (Some(ma), Some(mb)) = (
                measured(a, &w, "end_to_end", def.name),
                measured(b, &w, "end_to_end", def.name),
            ) else {
                continue;
            };
            let bound = bound_of(&bounds, def.name);
            let worse = worse_by(ma.value, mb.value, def.better);
            let verdict = if ma.uncertainty.max(mb.uncertainty) > bound {
                "unresolved"
            } else if worse > bound {
                ok = false;
                "worse"
            } else if worse < -bound {
                "better"
            } else {
                "same"
            };
            println!(
                "{:<14} {:<16} {:>14.4} {:>14.4} {:>+8.1}% {:>5.0}%  {verdict}",
                w,
                def.name,
                ma.value,
                mb.value,
                (mb.value - ma.value) / ma.value.abs().max(f64::MIN_POSITIVE) * 100.0,
                bound * 100.0
            );
        }
    }

    let mut moved = Vec::new();
    let mut differing = Vec::new();
    for w in workloads(a) {
        for def in PER_LAYER {
            let (Some(ma), Some(mb)) = (
                measured(a, &w, "per_layer", def.name),
                measured(b, &w, "per_layer", def.name),
            ) else {
                continue;
            };
            if def.exact && ma.value != mb.value {
                differing.push(format!("{w} {}: {} vs {}", def.name, ma.value, mb.value));
            }
            let rel = worse_by(ma.value, mb.value, def.better);
            if rel.is_finite() && rel != 0.0 {
                moved.push((rel, w.clone(), def.name, ma.value, mb.value));
            }
        }
    }
    moved.sort_by(|x, y| y.0.abs().total_cmp(&x.0.abs()));
    println!("\nper-layer metrics that moved most (positive = B worse):");
    for (rel, w, name, va, vb) in moved.iter().take(12) {
        println!("{:>+8.1}%  {w} {name}: {va:.4} -> {vb:.4}", rel * 100.0);
    }
    if differing.is_empty() {
        println!("\nexact counts: identical");
    } else {
        ok = false;
        println!("\nexact counts that differ:");
        for d in &differing {
            println!("  {d}");
        }
    }
    Ok(ok)
}

fn spreads(files: &[Json]) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut ok = true;
    println!(
        "{:<14} {:<16} {:>4} {:>14} {:>8} {:>6}",
        "workload", "end-to-end", "runs", "median", "spread", "bound"
    );
    for w in files.first().map(workloads).unwrap_or_default() {
        for def in END_TO_END {
            let values: Vec<f64> = files
                .iter()
                .filter_map(|f| measured(f, &w, "end_to_end", def.name))
                .map(|m| m.value)
                .collect();
            if values.len() < 2 {
                continue;
            }
            let bound = bound_of(&bounds, def.name);
            let s = spread(&values);
            // `setup_s` is bounded on its median only.
            let flag = if s > bound && def.name != "setup_s" {
                ok = false;
                "  over its bound"
            } else if s > bound / 3.0 {
                "  over a third of its bound"
            } else {
                ""
            };
            println!(
                "{:<14} {:<16} {:>4} {:>14.4} {:>7.1}% {:>5.0}%{flag}",
                w,
                def.name,
                values.len(),
                median(&values),
                s * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((flag, files)) if flag == "--spread" && files.len() >= 2 => files
            .iter()
            .map(|f| load(f))
            .collect::<Result<Vec<_>, _>>()
            .and_then(|files| spreads(&files)),
        Some((a, [b])) => load(a).and_then(|a| load(b).and_then(|b| compare(&a, &b))),
        _ => Err("usage: compare A.json B.json | compare --spread R1.json R2.json ...".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}
