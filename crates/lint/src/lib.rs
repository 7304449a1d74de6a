//! `harmonia-lint` — a zero-dependency static invariant checker for the
//! workspace.
//!
//! The repo's core guarantees are cheap to state and expensive to re-earn
//! once lost: bit-identical same-seed sim replays, an `unsafe` surface
//! confined to the audited zero-copy receive spine, a panic-free hot
//! packet path, and a sans-IO protocol/switch layer. This crate enforces
//! all four *statically*, before any test runs:
//!
//! | rule          | scope                                   | forbids |
//! |---------------|-----------------------------------------|---------|
//! | `determinism` | sim, switch, replication, types, verify, workload, kv, obs | wall-clock reads, entropy-seeded RNGs/hashers, iteration over `HashMap`/`HashSet` |
//! | `unsafe`      | whole workspace                         | `unsafe` outside vendor/mmsg; unsafe without `SAFETY:`; missing `#![forbid(unsafe_code)]` headers |
//! | `panic_path`  | net/udp.rs, net/coalesce.rs, net/addr.rs, core/live.rs, core/udp.rs, core/client_core.rs, core/replica_step.rs, types/wire.rs, obs/recorder.rs, obs/hist.rs, switch/table.rs, replication/shell.rs | `unwrap`/`expect`, panicking macros, indexing without `get` |
//! | `layering`    | replication, switch                     | `std::net`, `harmonia-net`, socket types |
//!
//! Violations can be waived inline with `// lint:allow(<rule>): <reason>`
//! (the reason is mandatory); the waiver covers its own line and the next.
//! Test code (`#[cfg(test)]` items) is exempt from `determinism` and
//! `panic_path`, never from `unsafe`.
//!
//! Run it three ways: `cargo run -p harmonia-lint` (the CI `lint` job adds
//! `--json`), the root `tests/lint.rs` tier-1 self-check, or
//! [`lint_workspace`] / [`lint_source`] as a library (what the fixture
//! tests drive).

#![forbid(unsafe_code)]

use std::fmt;
use std::path::{Path, PathBuf};

mod rules;
pub mod scan;

pub use rules::lint_source;

/// The rule families. `Waiver` covers malformed waiver comments themselves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    Determinism,
    Unsafe,
    PanicPath,
    Layering,
    Waiver,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::Unsafe => "unsafe",
            Rule::PanicPath => "panic_path",
            Rule::Layering => "layering",
            Rule::Waiver => "waiver",
        }
    }

    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "determinism" => Some(Rule::Determinism),
            "unsafe" => Some(Rule::Unsafe),
            "panic_path" => Some(Rule::PanicPath),
            "layering" => Some(Rule::Layering),
            _ => None,
        }
    }
}

/// One violation: file, line, rule, and a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: Rule,
    pub message: String,
}

impl Finding {
    pub fn new(file: &str, line: u32, rule: Rule, message: String) -> Self {
        Finding {
            file: file.to_string(),
            line,
            rule,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Per-path policy: which rules apply where. [`Policy::workspace`] is the
/// committed policy for this repo; fixture tests build variants.
pub struct Policy {
    /// What must be deterministic: crate directory names under `crates/`
    /// (their whole `src/`), or exact `.rs` files.
    pub deterministic_crates: Vec<String>,
    /// Path prefixes (or exact files) where `unsafe` is allowed.
    pub unsafe_allowed: Vec<String>,
    /// Exact files held to packet-path panic freedom.
    pub hot_paths: Vec<String>,
    /// What must stay sans-IO: crate directory names under `crates/`, or
    /// exact `.rs` files.
    pub sans_io_crates: Vec<String>,
}

impl Policy {
    /// The committed policy for this workspace.
    pub fn workspace() -> Policy {
        Policy {
            deterministic_crates: [
                "sim",
                "switch",
                "replication",
                "types",
                "verify",
                "workload",
                "kv",
                "obs",
                // The sans-IO halves of the driver crate: a wall clock or a
                // hash-ordered walk in them would reach every driver.
                "crates/core/src/client_core.rs",
                "crates/core/src/replica_step.rs",
                "crates/core/src/control.rs",
                // The simulator's clients: everything in the file runs in
                // virtual time.
                "crates/core/src/client.rs",
                // The node runtime and the switch pipelines it hosts: every
                // simulated and every threaded packet runs through both.
                "crates/core/src/worker.rs",
                "crates/core/src/switch_core.rs",
                // The simulated deployment (`SimCluster`, its sessions),
                // the scheduled failure scripts, the messages and the one
                // snapshot builder the golden texts render.
                "crates/core/src/deployment.rs",
                "crates/core/src/failover.rs",
                "crates/core/src/msg.rs",
                // The UDP adversary: a seed must replay its schedule.
                "crates/net/src/fault.rs",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            unsafe_allowed: vec!["vendor/mmsg/".to_string()],
            hot_paths: [
                "crates/net/src/udp.rs",
                "crates/net/src/coalesce.rs",
                // The name service: on every send of both threaded drivers.
                "crates/net/src/addr.rs",
                // The adversary: on every send of a faulted endpoint.
                "crates/net/src/fault.rs",
                "crates/core/src/live.rs",
                "crates/core/src/udp.rs",
                "crates/core/src/client_core.rs",
                "crates/core/src/replica_step.rs",
                "crates/core/src/worker.rs",
                "crates/core/src/switch_core.rs",
                "crates/types/src/wire.rs",
                "crates/obs/src/recorder.rs",
                "crates/obs/src/hist.rs",
                // The dirty set: on every packet of every pipeline, and its
                // sweep indexes by stored positions.
                "crates/switch/src/table.rs",
                // The replica shell: on every packet a replica receives,
                // including control messages any sender can forge.
                "crates/replication/src/shell.rs",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            sans_io_crates: [
                "replication",
                "switch",
                "crates/core/src/client_core.rs",
                "crates/core/src/replica_step.rs",
                "crates/core/src/control.rs",
                "crates/core/src/worker.rs",
                "crates/core/src/switch_core.rs",
                "crates/net/src/fault.rs",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        }
    }

    pub fn is_deterministic_path(&self, rel: &str) -> bool {
        covers(&self.deterministic_crates, rel)
    }

    pub fn is_hot_path(&self, rel: &str) -> bool {
        self.hot_paths.iter().any(|p| p == rel)
    }

    pub fn is_sans_io_path(&self, rel: &str) -> bool {
        covers(&self.sans_io_crates, rel)
    }

    pub fn is_unsafe_allowed(&self, rel: &str) -> bool {
        self.unsafe_allowed
            .iter()
            .any(|p| rel == p || (p.ends_with('/') && rel.starts_with(p.as_str())))
    }
}

/// Whether `rel` falls under one of `entries`: an entry ending in `.rs` is
/// an exact file, anything else a crate directory name under `crates/`.
fn covers(entries: &[String], rel: &str) -> bool {
    entries.iter().any(|e| {
        if e.ends_with(".rs") {
            rel == e
        } else {
            rel.starts_with(&format!("crates/{e}/src/"))
        }
    })
}

/// Lint the whole workspace rooted at `root`: every `.rs` file under
/// `src/`, `crates/`, `vendor/`, `tests/`, and `examples/`, plus the
/// crate-attribute audit of each member's `lib.rs`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let policy = Policy::workspace();
    let mut findings = Vec::new();
    for top in ["src", "crates", "vendor", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut |path| {
                let rel = rel_path(root, path);
                let src = std::fs::read_to_string(path)?;
                findings.extend(lint_source(&rel, &src, &policy));
                Ok(())
            })?;
        }
    }
    findings.extend(check_crate_attrs(root)?);
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn walk(dir: &Path, f: &mut impl FnMut(&Path) -> std::io::Result<()>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            walk(&path, f)?;
        } else if name.ends_with(".rs") {
            f(&path)?;
        }
    }
    Ok(())
}

/// Audit every workspace member's crate-root attributes:
///
/// - crates with no sanctioned `unsafe` must carry
///   `#![forbid(unsafe_code)]`;
/// - the vendored `mmsg` crate must carry
///   `#![deny(unsafe_op_in_unsafe_fn)]`.
pub fn check_crate_attrs(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut members: Vec<(String, PathBuf)> = vec![("src/lib.rs".into(), root.join("src/lib.rs"))];
    for top in ["crates", "vendor"] {
        let dir = root.join(top);
        if !dir.is_dir() {
            continue;
        }
        let mut subdirs: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        subdirs.sort();
        for sub in subdirs {
            let lib = sub.join("src/lib.rs");
            if lib.is_file() {
                members.push((rel_path(root, &lib), lib));
            }
        }
    }
    for (rel, path) in members {
        let src = std::fs::read_to_string(&path)?;
        let s = scan::scan(&src);
        let crate_dir = rel.trim_end_matches("/src/lib.rs");
        let (needs_forbid, needs_strict_unsafe_fn) = match crate_dir {
            "vendor/mmsg" => (false, true),
            _ => (true, false),
        };
        if needs_forbid && !has_inner_attr(&s, "forbid", "unsafe_code") {
            findings.push(Finding::new(
                &rel,
                1,
                Rule::Unsafe,
                "crate root is missing `#![forbid(unsafe_code)]`".into(),
            ));
        }
        if needs_strict_unsafe_fn && !has_inner_attr(&s, "deny", "unsafe_op_in_unsafe_fn") {
            findings.push(Finding::new(
                &rel,
                1,
                Rule::Unsafe,
                "crate root is missing `#![deny(unsafe_op_in_unsafe_fn)]`".into(),
            ));
        }
    }
    Ok(findings)
}

/// Whether the scan contains the inner attribute `#![<outer>(<inner>)]`.
fn has_inner_attr(s: &scan::Scan, outer: &str, inner: &str) -> bool {
    let t = &s.tokens;
    (0..t.len()).any(|i| {
        t[i].is("#")
            && t.get(i + 1).is_some_and(|a| a.is("!"))
            && t.get(i + 2).is_some_and(|a| a.is("["))
            && t.get(i + 3).is_some_and(|a| a.is(outer))
            && t.get(i + 4).is_some_and(|a| a.is("("))
            && t.get(i + 5).is_some_and(|a| a.is(inner))
    })
}

/// Render findings as a JSON array (stable field order, no dependencies).
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&f.file),
            f.line,
            f.rule.name(),
            json_escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
