//! `e2e`: the benchmark's command line.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's form)
//! e2e [--seed N] [--seconds S]                            every workload, both modes
//! e2e --smoke                                             tiny run of everything, checked
//!                                                         against BENCHMARK.json
//! e2e ... --inject-fault                                  corrupt one read result: must fail
//! e2e --child RIG --block B ...                           one block of one rig (internal:
//!                                                         a run spawns these, see run.rs)
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use harmonia_e2e_bench::json::Json;
use harmonia_e2e_bench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use harmonia_e2e_bench::report::{contract_line, metric_lines, result_file};
use harmonia_e2e_bench::rig::{pin_to_one_cpu, BlockConfig, Rig, Scale};
use harmonia_e2e_bench::run::{run, run_block, RunConfig, RunResult};
use harmonia_e2e_bench::workloads::{by_name, Workload, WORKLOADS};

/// `bench/e2e`, wherever the checkout is.
const HOME: &str = env!("CARGO_MANIFEST_DIR");

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    inject_fault: bool,
    child: Option<Rig>,
    block: u32,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        inject_fault: false,
        child: None,
        block: 0,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(by_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => args.trace = value()? == "1",
            "--child" => {
                let name = value()?;
                args.child = Some(Rig::by_name(&name).ok_or(format!("unknown rig {name}"))?);
            }
            "--block" => args.block = value()?.parse().map_err(|e| format!("--block: {e}"))?,
            "--smoke" => args.smoke = true,
            "--inject-fault" => args.inject_fault = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn benchmark_json() -> Result<Json, String> {
    let path = PathBuf::from(HOME).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
}

fn write_result(name: &str, cfg: &RunConfig, results: &[RunResult]) {
    let dir = PathBuf::from(HOME).join("out");
    let path = dir.join(name);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, result_file(cfg, results).pretty()));
    match written {
        Ok(()) => println!("# wrote {}", path.display()),
        Err(e) => eprintln!("# could not write {}: {e}", path.display()),
    }
}

fn report_failures(result: &RunResult) {
    if result.correct() {
        return;
    }
    eprintln!(
        "FAILED {} (trace {}): {} of {} operations failed, {} violations",
        result.workload,
        u8::from(result.trace),
        result.failed,
        result.attempted,
        result.violations.len()
    );
    for v in result.violations.iter().take(20) {
        eprintln!("  {v}");
    }
}

/// `BENCHMARK.json` and this crate must declare the same workloads and the
/// same metrics (name, unit, direction), and a run must have printed each
/// declared metric exactly once, finite.
fn check_against_declaration(results: &[RunResult]) -> Result<(), String> {
    let decl = benchmark_json()?;
    let declared: Vec<&str> = decl
        .get("workloads")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if declared != ours {
        return Err(format!(
            "workloads differ: declared {declared:?}, run {ours:?}"
        ));
    }
    for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let entries = decl.get(section).map(Json::as_arr).unwrap_or_default();
        for e in entries {
            let name = e.get("name").and_then(Json::as_str).unwrap_or("?");
            let def: &MetricDef = table
                .iter()
                .find(|d| d.name == name)
                .ok_or(format!("{section}: {name} is declared but not measured"))?;
            if e.get("unit").and_then(Json::as_str) != Some(def.unit)
                || e.get("better").and_then(Json::as_str) != Some(def.better.name())
            {
                return Err(format!("{section}: {name} has another unit or direction"));
            }
        }
        if let Some(def) = table.iter().find(|d| {
            !entries
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some(d.name))
        }) {
            return Err(format!(
                "{section}: {} is measured but not declared",
                def.name
            ));
        }
    }
    for r in results {
        let (section, table) = if r.trace {
            ("per_layer", PER_LAYER)
        } else {
            ("end_to_end", END_TO_END)
        };
        let line = Json::parse(&contract_line(r))?;
        let printed = line.get("metrics").map(Json::fields).unwrap_or_default();
        for def in table {
            let hits: Vec<_> = printed.iter().filter(|(k, _)| k == def.name).collect();
            let [(_, m)] = hits[..] else {
                return Err(format!(
                    "{}: {section} {} printed {} times",
                    r.workload,
                    def.name,
                    hits.len()
                ));
            };
            let finite = m
                .get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite);
            if !finite || m.get("unit").and_then(Json::as_str) != Some(def.unit) {
                return Err(format!(
                    "{}: {} is not a finite {}",
                    r.workload, def.name, def.unit
                ));
            }
        }
        if printed.len() != table.len() {
            return Err(format!(
                "{}: undeclared {section} metrics printed",
                r.workload
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    if let (Some(rig), Some(workload)) = (args.child, args.workload) {
        // One block of one rig, for the run that spawned this process.
        let cpu = pin_to_one_cpu();
        let mut report = run_block(
            rig,
            &BlockConfig {
                workload,
                seed: args.seed,
                block: args.block,
                slice_s: args.seconds.unwrap_or(0.0),
                trace: args.trace,
                scale,
                inject_fault: args.inject_fault,
            },
        );
        report.push("extra.pinned_cpu", cpu.map_or(-1.0, |c| c as f64));
        println!("{}", report.to_json().render());
        return ExitCode::SUCCESS;
    }
    let seconds = args.seconds.unwrap_or_else(|| {
        benchmark_json()
            .ok()
            .and_then(|b| b.get("run_seconds").and_then(Json::as_f64))
            .unwrap_or(20.0)
    });
    let config = |workload: Workload, trace: bool| RunConfig {
        workload,
        seed: args.seed,
        seconds: if args.smoke { 0.0 } else { seconds },
        trace,
        scale,
        smoke: args.smoke,
        inject_fault: args.inject_fault,
    };
    let run = |cfg: &RunConfig| {
        run(cfg).unwrap_or_else(|e| {
            eprintln!("e2e: {e}");
            std::process::exit(1);
        })
    };

    if let (Some(workload), false) = (args.workload, args.smoke) {
        let cfg = config(workload, args.trace);
        let result = run(&cfg);
        print!("{}", metric_lines(&result));
        let name = format!(
            "{}-seed{}-trace{}.json",
            workload.name,
            args.seed,
            u8::from(args.trace)
        );
        write_result(&name, &cfg, std::slice::from_ref(&result));
        report_failures(&result);
        println!("{}", contract_line(&result));
        return if result.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Every workload, end to end and then traced.
    let mut results = Vec::new();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let result = run(&config(workload, trace));
            print!("{}", metric_lines(&result));
            report_failures(&result);
            results.push(result);
        }
    }
    let cfg = config(WORKLOADS[0], false);
    let name = if args.smoke {
        "smoke.json".into()
    } else {
        format!("result-seed{}.json", args.seed)
    };
    write_result(&name, &cfg, &results);
    let mut ok = results.iter().all(RunResult::correct);
    if args.smoke {
        match check_against_declaration(&results) {
            Ok(()) => println!("# smoke: output matches BENCHMARK.json"),
            Err(e) => {
                eprintln!("FAILED smoke: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
