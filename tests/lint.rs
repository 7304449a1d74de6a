//! Tier-1 gate: the committed tree must be lint-clean, and the checker must
//! still have teeth (a seeded violation in a deterministic crate fires).

use harmonia_lint::{lint_source, lint_workspace, Policy, Rule};

fn workspace_root() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The committed tree holds every invariant the checker states: no
/// wall-clock reads or hash-order iteration in the deterministic crates, no
/// unsanctioned or unjustified `unsafe`, no panics on the packet path, no
/// I/O in the sans-IO crates, and no malformed waivers.
#[test]
fn workspace_is_lint_clean() {
    let findings = lint_workspace(&workspace_root()).expect("walk workspace");
    assert!(
        findings.is_empty(),
        "the committed tree must be lint-clean; run `cargo run -p harmonia-lint`:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The acceptance demonstration: an `Instant::now()` injected into a
/// `crates/sim` source file is caught. Guards against the checker rotting
/// into a rubber stamp while the self-check above stays green.
#[test]
fn injected_wall_clock_read_in_sim_is_caught() {
    let src = "pub fn stamp() -> std::time::Instant { std::time::Instant::now() }\n";
    let findings = lint_source("crates/sim/src/injected.rs", src, &Policy::workspace());
    assert!(
        findings.iter().any(|f| f.rule == Rule::Determinism),
        "an injected `Instant::now()` in crates/sim must fire: {findings:?}"
    );
}

/// Same demonstration for the other three families, one seeded violation
/// each, so no family can silently lose its policy wiring.
#[test]
fn every_rule_family_has_teeth() {
    let policy = Policy::workspace();
    let cases: [(&str, &str, Rule); 3] = [
        (
            "crates/types/src/wire.rs",
            "fn f(v: &[u8]) -> u8 { v[0] }\n",
            Rule::PanicPath,
        ),
        (
            "crates/replication/src/x.rs",
            "use std::net::UdpSocket;\n",
            Rule::Layering,
        ),
        (
            "crates/switch/src/x.rs",
            "fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
            Rule::Unsafe,
        ),
    ];
    for (path, src, rule) in cases {
        let findings = lint_source(path, src, &policy);
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "{path}: expected {rule:?} to fire, got {findings:?}"
        );
    }
}

/// Policy entries can name single files: the sans-IO halves of
/// `harmonia-core` — the client core, the control scripts, the node
/// runtime and the ledger's `SwitchCore` shim over `harmonia_switch::Switch`
/// — are held to the determinism and layering rules even though the
/// crate's drivers (same directory) read wall clocks and own sockets by
/// design.
#[test]
fn file_level_policy_entries_cover_the_core_crates_sans_io_modules() {
    let policy = Policy::workspace();
    let clock = "pub fn stamp() -> std::time::Instant { std::time::Instant::now() }\n";
    let socket = "use std::net::UdpSocket;\n";
    for file in [
        "client_core.rs",
        "control.rs",
        "worker.rs",
        "switch_core.rs",
    ] {
        let path = format!("crates/core/src/{file}");
        let fired = |src: &str, rule: Rule| {
            lint_source(&path, src, &policy)
                .iter()
                .any(|f| f.rule == rule)
        };
        assert!(fired(clock, Rule::Determinism), "{path}: wall clock passed");
        assert!(fired(socket, Rule::Layering), "{path}: socket passed");
    }
    let driver = lint_source("crates/core/src/live.rs", clock, &policy);
    assert!(
        !driver.iter().any(|f| f.rule == Rule::Determinism),
        "the threaded driver may read the wall clock: {driver:?}"
    );
}

/// The sans-IO cores — the switch and the replica — depend on no runtime:
/// no recorder, simulator, network or driver crate in the `[dependencies]`
/// of their manifests, so what hosts them stays the only place that
/// records, schedules or moves bytes.
#[test]
fn the_sans_io_cores_name_no_runtime_crate() {
    let runtime = [
        "harmonia-obs",
        "harmonia-sim",
        "harmonia-net",
        "harmonia-core",
    ];
    for krate in ["switch", "replication"] {
        let path = workspace_root().join(format!("crates/{krate}/Cargo.toml"));
        let manifest = std::fs::read_to_string(&path).expect("read manifest");
        let section = manifest
            .split("\n[")
            .find(|s| s.starts_with("dependencies]"))
            .expect("a [dependencies] section");
        let deps: Vec<&str> = (section.lines().skip(1))
            .filter_map(|line| line.split(['.', '=', ' ']).next())
            .filter(|name| !name.is_empty() && !name.starts_with('#'))
            .collect();
        assert!(
            deps.contains(&"harmonia-types"),
            "{krate}: the section was not read: {deps:?}"
        );
        for name in runtime {
            assert!(!deps.contains(&name), "{krate} depends on {name}");
        }
    }
}
