//! Observability dump: run the same small workload on a chosen driver, then
//! print the unified [`ObsSnapshot`] as JSON plus a trace excerpt —
//! everything a post-mortem would read.
//!
//! Run with: `cargo run --example obs_dump [sim|live|udp] [json|trace|all]`
//!
//! The driver argument picks the substrate (default `sim`, which is fully
//! deterministic: same binary, same bytes). The format argument picks what
//! prints (default `all`, the JSON plus the trace). CI smoke-runs `json` per
//! driver and validates the document's sections.

use harmonia::prelude::*;

fn usage() -> ! {
    eprintln!("usage: obs_dump [sim|live|udp] [json|trace|all]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let driver = args.first().map(String::as_str).unwrap_or("sim");
    let format = args.get(1).map(String::as_str).unwrap_or("all");
    if !matches!(format, "json" | "trace" | "all") {
        usage();
    }

    let spec = DeploymentSpec::new()
        .protocol(ProtocolKind::Chain)
        .groups(2)
        .seed(7);
    let mut cluster: Box<dyn Cluster> = match driver {
        "sim" => Box::new(spec.build_sim()),
        "live" => Box::new(spec.spawn_live()),
        "udp" => Box::new(spec.spawn_udp()),
        _ => usage(),
    };

    // A small mixed workload so every layer has something to report:
    // 3 closed-loop clients, 30 ops each, 35% writes over 8 keys.
    let plans: Vec<Vec<OpSpec>> = (0..3u64)
        .map(|c| {
            (0..30u64)
                .map(|i| {
                    let key = bytes::Bytes::from(format!("key-{}", (c * 31 + i * 7) % 8));
                    if (c + i) % 3 == 0 {
                        OpSpec::write(key, bytes::Bytes::from(format!("v{c}-{i}")))
                    } else {
                        OpSpec::read(key)
                    }
                })
                .collect()
        })
        .collect();
    let histories = cluster.run_plans(plans);
    let completed: usize = histories.iter().flatten().filter(|r| r.ok).count();

    let snap = cluster.obs_snapshot();
    if matches!(format, "json" | "all") {
        print!("{}", json_text(&snap));
    }
    if matches!(format, "trace" | "all") {
        // The first traced request's full lifecycle, as a worked example of
        // what a failed linearizability check attaches automatically.
        let events = cluster.trace_events();
        if let Some(first) = events.first() {
            let excerpt: Vec<TraceEvent> = events
                .iter()
                .copied()
                .filter(|e| e.id == first.id)
                .collect();
            eprintln!("--- trace of request {} ---", first.id);
            eprint!("{}", harmonia::obs::format_trace(&excerpt));
            eprintln!(
                "({} events recorded, {} dropped by ring overflow)",
                snap.trace.recorded, snap.trace.dropped
            );
        }
    }
    eprintln!("{driver}: {completed}/90 ops completed");
}
