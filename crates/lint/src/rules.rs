//! The four rule families over a [`Scan`], plus waiver handling.
//!
//! Every rule is a pure function of one file's token stream — no type
//! information, no cross-file resolution. That keeps the checker fast and
//! dependency-free at the cost of per-file heuristics (documented on each
//! rule); `clippy.toml`'s `disallowed-methods` is the independent second
//! layer for the workspace-level cases this pass cannot see.

use crate::scan::{scan, Scan, Tok, TokKind};
use crate::{Finding, Policy, Rule};

/// Lint one file's source under the workspace policy. `rel_path` is the
/// path relative to the workspace root, `/`-separated.
pub fn lint_source(rel_path: &str, src: &str, policy: &Policy) -> Vec<Finding> {
    let s = scan(src);
    let mut findings: Vec<Finding> = Vec::new();

    let waivers = collect_waivers(rel_path, &s, &mut findings);

    if policy.is_deterministic_path(rel_path) {
        check_determinism(rel_path, &s, &mut findings);
    }
    if policy.is_hot_path(rel_path) {
        check_panic_path(rel_path, &s, &mut findings);
    }
    if policy.is_sans_io_path(rel_path) {
        check_layering(rel_path, &s, &mut findings);
    }
    check_unsafe(rel_path, &s, policy, &mut findings);

    // Apply waivers last: a waiver covers its own line (trailing comment),
    // the rest of its contiguous comment block (reasons may wrap), and the
    // line after the block. Waiver-syntax findings themselves cannot be
    // waived.
    findings.retain(|f| {
        f.rule == Rule::Waiver
            || !waivers
                .iter()
                .any(|w| f.line >= w.line && f.line <= w.end + 1 && w.rules.contains(&f.rule))
    });
    findings.sort_by_key(|f| f.line);
    findings
}

/// A parsed `// lint:allow(rule[, rule]): reason` comment. `end` is the
/// last line of the contiguous comment block the waiver starts (a wrapped
/// reason extends the waiver's reach to the line after its last comment).
struct Waiver {
    line: u32,
    end: u32,
    rules: Vec<Rule>,
}

/// Parse waivers out of the comments. A waiver missing its reason (or
/// naming an unknown rule) is itself a finding and suppresses nothing.
fn collect_waivers(rel_path: &str, s: &Scan, findings: &mut Vec<Finding>) -> Vec<Waiver> {
    let mut out = Vec::new();
    for c in &s.comments {
        // Only a comment that *starts* with the marker is a waiver —
        // prose that merely mentions the syntax (docs, this file) is not.
        let Some(rest) = c.text.trim_start().strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            findings.push(Finding::new(
                rel_path,
                c.line,
                Rule::Waiver,
                "malformed waiver: missing `)`".into(),
            ));
            continue;
        };
        let mut rules = Vec::new();
        let mut bad = false;
        for name in rest[..close].split(',') {
            match Rule::from_name(name.trim()) {
                Some(r) => rules.push(r),
                None => {
                    findings.push(Finding::new(
                        rel_path,
                        c.line,
                        Rule::Waiver,
                        format!("waiver names unknown rule `{}`", name.trim()),
                    ));
                    bad = true;
                }
            }
        }
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            findings.push(Finding::new(
                rel_path,
                c.line,
                Rule::Waiver,
                "waiver without a reason: use `lint:allow(<rule>): <why>`".into(),
            ));
            bad = true;
        }
        if !bad {
            let mut end = c.line;
            while s.comments.iter().any(|n| n.line == end + 1) {
                end += 1;
            }
            out.push(Waiver {
                line: c.line,
                end,
                rules,
            });
        }
    }
    out
}

/// Identifiers whose mere mention in a deterministic crate is a violation:
/// wall-clock types and entropy-seeded RNG/hasher entry points. `Instant`
/// is NOT here — `harmonia-types` defines a *virtual* `Instant` the sim
/// crates use everywhere; only `Instant::now` / `std::time::Instant`
/// (checked separately) reach the wall clock.
const WALL_CLOCK_IDENTS: &[(&str, &str)] = &[
    ("SystemTime", "wall-clock read (`SystemTime`)"),
    ("UNIX_EPOCH", "wall-clock read (`UNIX_EPOCH`)"),
    ("thread_rng", "global/thread RNG (`thread_rng`)"),
    ("from_entropy", "entropy-seeded RNG (`from_entropy`)"),
    ("RandomState", "randomly seeded hasher (`RandomState`)"),
    ("DefaultHasher", "randomly seeded hasher (`DefaultHasher`)"),
];

/// Methods whose call on a `HashMap`/`HashSet` exposes iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Rule family 1 — determinism. Same-seed sim replays must be
/// bit-identical (`tests/determinism.rs`), so the deterministic crates may
/// not read wall clocks, seed RNGs from the environment, or iterate
/// hash-ordered collections (std's `RandomState` makes that order differ
/// run to run).
///
/// Heuristic for iteration: identifiers bound or typed as
/// `HashMap`/`HashSet` *in the same file* are tracked; iteration methods
/// and `for … in` loops over them are flagged. Maps that only see
/// `get`/`insert`/`remove`/`contains` are fine — point lookups don't leak
/// order.
fn check_determinism(rel_path: &str, s: &Scan, findings: &mut Vec<Finding>) {
    let toks = &s.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || s.is_test_line(t.line) {
            continue;
        }
        for &(ident, what) in WALL_CLOCK_IDENTS {
            if t.is(ident) {
                // `Duration` and virtual-time types are fine; only the
                // named sources of nondeterminism are flagged.
                findings.push(Finding::new(
                    rel_path,
                    t.line,
                    Rule::Determinism,
                    format!("{what} in a deterministic crate"),
                ));
            }
        }
        // `Instant::now(…)` — the virtual `harmonia_types::Instant` has no
        // `now`, so any `Instant::now` here reaches the wall clock.
        if t.is("Instant")
            && toks.get(i + 1).is_some_and(|a| a.is(":"))
            && toks.get(i + 2).is_some_and(|a| a.is(":"))
            && toks.get(i + 3).is_some_and(|a| a.is("now"))
        {
            findings.push(Finding::new(
                rel_path,
                t.line,
                Rule::Determinism,
                "wall-clock read (`Instant::now`) in a deterministic crate".into(),
            ));
        }
        // `std::time::Instant` — importing or naming the std type at all
        // (the virtual clock is `harmonia_types::Instant`).
        if t.is("std")
            && toks.get(i + 1).is_some_and(|a| a.is(":"))
            && toks.get(i + 2).is_some_and(|a| a.is(":"))
            && toks.get(i + 3).is_some_and(|a| a.is("time"))
            && toks.get(i + 4).is_some_and(|a| a.is(":"))
            && toks.get(i + 5).is_some_and(|a| a.is(":"))
            && toks.get(i + 6).is_some_and(|a| a.is("Instant"))
        {
            findings.push(Finding::new(
                rel_path,
                t.line,
                Rule::Determinism,
                "`std::time::Instant` in a deterministic crate (use the virtual clock)".into(),
            ));
        }
    }

    let tracked = hash_bound_idents(toks);
    if tracked.is_empty() {
        return;
    }

    for (i, t) in toks.iter().enumerate() {
        if s.is_test_line(t.line) {
            continue;
        }
        // `recv.iter()` style: `<ident> . <iter-method> (`.
        if t.kind == TokKind::Ident
            && ITER_METHODS.contains(&t.text.as_str())
            && i >= 2
            && toks[i - 1].is(".")
            && toks.get(i + 1).is_some_and(|n| n.is("("))
            && toks[i - 2].kind == TokKind::Ident
            && tracked.contains(&toks[i - 2].text)
        {
            findings.push(Finding::new(
                rel_path,
                t.line,
                Rule::Determinism,
                format!(
                    "iteration over hash-ordered `{}` (`.{}()`): order differs between runs",
                    toks[i - 2].text,
                    t.text
                ),
            ));
        }
        // `for x in &map { … }` / `for x in map { … }`.
        if t.is("for") && t.kind == TokKind::Ident {
            if let Some(ident) = for_loop_receiver(toks, i) {
                if tracked.contains(&ident) {
                    findings.push(Finding::new(
                        rel_path,
                        t.line,
                        Rule::Determinism,
                        format!(
                            "`for` loop over hash-ordered `{ident}`: order differs between runs"
                        ),
                    ));
                }
            }
        }
    }
}

/// Identifiers bound or typed as `HashMap`/`HashSet` in this file:
/// `name: [std::collections::]Hash{Map,Set}<…>` (fields, lets, params) and
/// `let [mut] name = Hash{Map,Set}::{new,default,with_capacity,from}(…)`.
fn hash_bound_idents(toks: &[Tok]) -> Vec<String> {
    let mut tracked: Vec<String> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.kind == TokKind::Ident && (t.is("HashMap") || t.is("HashSet"))) {
            continue;
        }
        // Case A: type annotation. Walk back over the path (`std`,
        // `collections`, `:`) to the binding ident before the `:`.
        let mut k = i;
        let mut saw_colon = false;
        while k > 0 {
            let p = &toks[k - 1];
            if p.is(":") {
                saw_colon = true;
                k -= 1;
            } else if p.kind == TokKind::Ident && (p.is("std") || p.is("collections")) {
                k -= 1;
            } else {
                break;
            }
        }
        if saw_colon && k > 0 && toks[k - 1].kind == TokKind::Ident {
            let name = &toks[k - 1];
            // Skip path-qualified positions (`foo::HashMap` would leave
            // `foo` here only via `:` tokens, already consumed) and type
            // ascription in fn returns (`-> HashMap`): require the token
            // before the binding ident to not be `>` or `-`.
            if k < 2 || !(toks[k - 2].is("-") || toks[k - 2].is(">")) {
                tracked.push(name.text.clone());
            }
        }
        // Case B: `let [mut] name = Hash{Map,Set}::ctor(…)`.
        let is_ctor = toks.get(i + 1).is_some_and(|a| a.is(":"))
            && toks.get(i + 2).is_some_and(|a| a.is(":"))
            && toks.get(i + 3).is_some_and(|a| {
                a.is("new") || a.is("default") || a.is("with_capacity") || a.is("from")
            });
        if is_ctor {
            // Walk back to the nearest `=` in this statement, then to the
            // `let` binding before it.
            let mut k = i;
            while k > 0 && !toks[k - 1].is("=") {
                if toks[k - 1].is(";") || toks[k - 1].is("{") || toks[k - 1].is("}") {
                    k = 0;
                    break;
                }
                k -= 1;
            }
            if k >= 2 && toks[k - 2].kind == TokKind::Ident {
                let name_idx = k - 2;
                let before = name_idx.checked_sub(1).map(|b| &toks[b]);
                let is_let = matches!(before, Some(b) if b.is("let") || b.is("mut"));
                if is_let {
                    tracked.push(toks[name_idx].text.clone());
                }
            }
        }
    }
    tracked.sort();
    tracked.dedup();
    tracked
}

/// If the `for` at `toks[i]` loops directly over a plain identifier (or
/// `self.field`, possibly behind `&`/`&mut`), return that identifier.
fn for_loop_receiver(toks: &[Tok], i: usize) -> Option<String> {
    // Find `in` at pattern depth 0, within a sane distance.
    let mut j = i + 1;
    let mut depth = 0i32;
    let limit = (i + 40).min(toks.len());
    while j < limit {
        let t = &toks[j];
        if t.is("(") || t.is("[") {
            depth += 1;
        } else if t.is(")") || t.is("]") {
            depth -= 1;
        } else if t.is("{") {
            return None; // hit the body before `in`
        } else if depth == 0 && t.kind == TokKind::Ident && t.is("in") {
            break;
        }
        j += 1;
    }
    if j >= limit {
        return None;
    }
    // Collect the expression tokens between `in` and the body `{`.
    let mut expr: Vec<&Tok> = Vec::new();
    let mut k = j + 1;
    let mut edepth = 0i32;
    while k < toks.len() {
        let t = &toks[k];
        if edepth == 0 && t.is("{") {
            break;
        }
        if t.is("(") || t.is("[") {
            edepth += 1;
        } else if t.is(")") || t.is("]") {
            edepth -= 1;
        }
        expr.push(t);
        k += 1;
        if expr.len() > 8 {
            return None; // complex expression: out of heuristic scope
        }
    }
    let mut e: &[&Tok] = &expr;
    while let Some(first) = e.first() {
        if first.is("&") || first.is("mut") {
            e = &e[1..];
        } else {
            break;
        }
    }
    match e {
        [only] if only.kind == TokKind::Ident => Some(only.text.clone()),
        [slf, dot, field] if slf.is("self") && dot.is(".") && field.kind == TokKind::Ident => {
            Some(field.text.clone())
        }
        _ => None,
    }
}

/// Macros that panic at runtime (debug_assert* compiles out in release and
/// is allowed on the hot path).
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Rule family 3 — packet-path panic freedom. The designated hot-path
/// modules handle untrusted bytes and carry live traffic: a panic there is
/// an outage, so failures must be counted error paths. Indexing is flagged
/// too (`x[i]` panics out of bounds) except the infallible full-range
/// `x[..]`; use `get`/iterators or waive with a bounds argument.
fn check_panic_path(rel_path: &str, s: &Scan, findings: &mut Vec<Finding>) {
    let toks = &s.tokens;
    for (i, t) in toks.iter().enumerate() {
        if s.is_test_line(t.line) {
            continue;
        }
        if t.kind == TokKind::Ident
            && (t.is("unwrap") || t.is("expect"))
            && i >= 1
            && toks[i - 1].is(".")
            && toks.get(i + 1).is_some_and(|n| n.is("("))
        {
            findings.push(Finding::new(
                rel_path,
                t.line,
                Rule::PanicPath,
                format!(
                    "`.{}()` on the packet path: convert to a counted error path",
                    t.text
                ),
            ));
        }
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is("!"))
        {
            findings.push(Finding::new(
                rel_path,
                t.line,
                Rule::PanicPath,
                format!(
                    "`{}!` on the packet path: panics must not reach live traffic",
                    t.text
                ),
            ));
        }
        if t.is("[") && i >= 1 {
            let prev = &toks[i - 1];
            let indexes = prev.kind == TokKind::Ident || prev.is(")") || prev.is("]");
            // `#[attr]` (prev `#`) and `vec![…]` (prev `!`) are not index
            // expressions; `x[..]` cannot panic.
            let full_range = toks.get(i + 1).is_some_and(|a| a.is("."))
                && toks.get(i + 2).is_some_and(|a| a.is("."))
                && toks.get(i + 3).is_some_and(|a| a.is("]"));
            // Keywords before `[` start slice *types* (`&mut [u8]`,
            // `dyn [..]`) or array expressions, not index expressions.
            let keyword_prev = prev.is("in")
                || prev.is("return")
                || prev.is("break")
                || prev.is("else")
                || prev.is("match")
                || prev.is("mut")
                || prev.is("dyn")
                || prev.is("as");
            if indexes && !full_range && !keyword_prev {
                findings.push(Finding::new(
                    rel_path,
                    t.line,
                    Rule::PanicPath,
                    "indexing without `get` on the packet path: out-of-bounds panics".into(),
                ));
            }
        }
    }
}

/// Rule family 4 — layering (sans-IO boundary). The protocol and switch
/// crates are pure state machines driven by the deployment drivers; socket
/// types or the transport crate leaking in would couple the deterministic
/// core to real I/O (the hnix-store-style pure-semantics/effectful-I/O
/// split).
const IO_IDENTS: &[&str] = &[
    "harmonia_net",
    "UdpSocket",
    "TcpStream",
    "TcpListener",
    "SocketAddr",
    "SocketAddrV4",
    "SocketAddrV6",
];

fn check_layering(rel_path: &str, s: &Scan, findings: &mut Vec<Finding>) {
    let toks = &s.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.is("std")
            && toks.get(i + 1).is_some_and(|a| a.is(":"))
            && toks.get(i + 2).is_some_and(|a| a.is(":"))
            && toks.get(i + 3).is_some_and(|a| a.is("net"))
        {
            findings.push(Finding::new(
                rel_path,
                t.line,
                Rule::Layering,
                "`std::net` in a sans-IO crate: sockets belong to the deployment drivers".into(),
            ));
        }
        if IO_IDENTS.contains(&t.text.as_str()) {
            findings.push(Finding::new(
                rel_path,
                t.line,
                Rule::Layering,
                format!(
                    "`{}` in a sans-IO crate: I/O belongs to the deployment drivers",
                    t.text
                ),
            ));
        }
    }
}

/// Rule family 2 — unsafe audit. `unsafe` may appear only in the explicit
/// allowlist (the vendored syscall crate), and every occurrence
/// there must justify itself with a nearby `SAFETY:` comment (or a
/// `# Safety` doc section for `unsafe fn`). Everything else is locked by
/// `#![forbid(unsafe_code)]`, which this rule's crate-attribute companion
/// (in `lib.rs`) verifies.
fn check_unsafe(rel_path: &str, s: &Scan, policy: &Policy, findings: &mut Vec<Finding>) {
    let allowed = policy.is_unsafe_allowed(rel_path);
    for t in &s.tokens {
        if !(t.kind == TokKind::Ident && t.is("unsafe")) {
            continue;
        }
        if !allowed {
            findings.push(Finding::new(
                rel_path,
                t.line,
                Rule::Unsafe,
                "`unsafe` outside the audited allowlist (vendor/mmsg)".into(),
            ));
        } else {
            let justified = s
                .comments_near(t.line, 10)
                .any(|c| c.text.contains("SAFETY:") || c.text.contains("# Safety"));
            if !justified {
                findings.push(Finding::new(
                    rel_path,
                    t.line,
                    Rule::Unsafe,
                    "`unsafe` without a `SAFETY:` comment in the preceding lines".into(),
                ));
            }
        }
    }
}
