//! Fixture tests for the lint engine: every rule family must fire on a
//! seeded violation and stay quiet on the look-alikes (patterns inside
//! strings, comments, and `#[cfg(test)]` blocks), and the waiver grammar
//! must suppress exactly what it names.

use harmonia_lint::{lint_source, Policy, Rule};

/// A policy that puts the fixture's synthetic paths under every rule.
fn policy() -> Policy {
    Policy::workspace()
}

/// Path inside a deterministic crate.
const DET: &str = "crates/sim/src/fixture.rs";
/// A designated hot-path file.
const HOT: &str = "crates/net/src/udp.rs";
/// Path inside a sans-IO crate.
const SANS_IO: &str = "crates/replication/src/fixture.rs";
/// Path with no unsafe sanction.
const NO_UNSAFE: &str = "crates/switch/src/fixture.rs";
/// Path inside the unsafe allowlist.
const UNSAFE_OK: &str = "vendor/mmsg/src/fixture.rs";

fn rules(findings: &[harmonia_lint::Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

// ---- determinism ----------------------------------------------------------

#[test]
fn determinism_fires_on_instant_now() {
    let src = "fn f() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n";
    let f = lint_source(DET, src, &policy());
    assert_eq!(rules(&f), vec![Rule::Determinism], "{f:?}");
}

#[test]
fn determinism_fires_on_std_time_instant_import() {
    let src = "use std::time::Instant;\n";
    let f = lint_source(DET, src, &policy());
    assert_eq!(rules(&f), vec![Rule::Determinism], "{f:?}");
}

/// The node runtime every driver steps is held to the determinism rule,
/// although the threaded drivers beside it in the same crate read the wall
/// clock: its `now` is an argument.
#[test]
fn determinism_fires_on_a_wall_clock_read_in_the_node_runtime() {
    let src = "fn step(&mut self) { let now = Instant::now(); }\n";
    let f = lint_source("crates/core/src/worker.rs", src, &policy());
    assert_eq!(rules(&f), vec![Rule::Determinism], "{f:?}");
    assert!(lint_source("crates/core/src/live.rs", src, &policy()).is_empty());
}

/// The UDP adversary is a sans-IO stage whose seed replays its schedule: a
/// wall-clock read in it is a determinism finding, a socket type a layering
/// one, and an `unwrap()` on its per-send path a panic-path one — where the
/// endpoint around it may use all three.
#[test]
fn the_udp_adversary_is_deterministic_sans_io_and_panic_free() {
    let fault = "crates/net/src/fault.rs";
    let src = "fn apply(&mut self) { let now = Instant::now(); }\n";
    let f = lint_source(fault, src, &policy());
    assert_eq!(rules(&f), vec![Rule::Determinism], "{f:?}");
    assert!(lint_source("crates/net/src/udp.rs", src, &policy()).is_empty());
    let src = "fn apply(&mut self, to: SocketAddr) { drop(to); }\n";
    let f = lint_source(fault, src, &policy());
    assert_eq!(rules(&f), vec![Rule::Layering], "{f:?}");
    let src = "fn release(&mut self) -> u64 { self.held.take().unwrap() }\n";
    let f = lint_source(fault, src, &policy());
    assert_eq!(rules(&f), vec![Rule::PanicPath], "{f:?}");
}

/// The linearizability checker judges recorded histories and nothing else:
/// a socket type in it is a layering finding, and a walk over a hash-ordered
/// map a determinism one — its per-key state is key-ordered.
#[test]
fn the_checker_is_sans_io_and_walks_keys_in_order() {
    let checker = "crates/verify/src/linearizability.rs";
    let src = "fn check(&mut self, from: SocketAddr) { drop(from); }\n";
    let f = lint_source(checker, src, &policy());
    assert_eq!(rules(&f), vec![Rule::Layering], "{f:?}");
    let src = "use std::collections::HashMap;\n\
               fn check(keys: HashMap<u64, u64>) { for k in &keys { drop(k); } }\n";
    let f = lint_source(checker, src, &policy());
    assert_eq!(rules(&f), vec![Rule::Determinism], "{f:?}");
}

/// So is the simulated deployment — `SimCluster`, the scheduled failure
/// scripts, the messages, and the one snapshot builder whose output the
/// golden texts render — beside the threaded drivers that may read a wall
/// clock.
#[test]
fn determinism_fires_on_a_wall_clock_read_in_the_simulated_deployment() {
    let src = "pub fn now(&self) -> Instant { let _ = std::time::Instant::now(); self.t }\n";
    for file in ["deployment.rs", "failover.rs", "msg.rs"] {
        let f = lint_source(&format!("crates/core/src/{file}"), src, &policy());
        let expected = vec![Rule::Determinism, Rule::Determinism];
        assert_eq!(rules(&f), expected, "{file}: {f:?}");
    }
    assert!(lint_source("crates/core/src/udp.rs", src, &policy()).is_empty());
}

/// The simulator's clients are held to it too: a timeout sweep that walks a
/// `HashMap` would emit its traces in hash order.
#[test]
fn determinism_fires_on_a_hash_ordered_sweep_in_the_sim_clients() {
    let src = "use std::collections::HashMap;\n\
               struct C { pending: HashMap<u64, u64> }\n\
               impl C { fn gc(&mut self) { self.pending.retain(|_, p| *p > 0); } }\n";
    let f = lint_source("crates/core/src/client.rs", src, &policy());
    assert_eq!(rules(&f), vec![Rule::Determinism], "{f:?}");
}

#[test]
fn determinism_allows_virtual_instant() {
    // The repo's own virtual clock: `Instant` as a type is fine, only
    // `Instant::now` / `std::time::Instant` reach the wall clock.
    let src = "use harmonia_types::Instant;\nfn f(t: Instant) -> Instant { t }\n";
    assert!(lint_source(DET, src, &policy()).is_empty());
}

#[test]
fn determinism_fires_on_wall_clock_and_rng_idents() {
    for frag in [
        "let t = SystemTime::now();",
        "let d = t.duration_since(UNIX_EPOCH);",
        "let r = rand::thread_rng();",
        "let r = SmallRng::from_entropy();",
        "let h = RandomState::new();",
        "let h = DefaultHasher::new();",
    ] {
        let src = format!("fn f() {{ {frag} }}\n");
        let f = lint_source(DET, &src, &policy());
        assert!(
            f.iter().any(|f| f.rule == Rule::Determinism),
            "expected a determinism finding for `{frag}`, got {f:?}"
        );
    }
}

#[test]
fn determinism_fires_on_hashmap_iteration() {
    let src = "use std::collections::HashMap;\n\
               struct S { m: HashMap<u32, u32> }\n\
               impl S { fn f(&self) -> u32 { self.m.values().sum() } }\n";
    let f = lint_source(DET, src, &policy());
    assert_eq!(rules(&f), vec![Rule::Determinism], "{f:?}");
}

#[test]
fn determinism_fires_on_for_loop_over_hashset() {
    let src = "use std::collections::HashSet;\n\
               fn f(s: HashSet<u32>) { for x in &s { drop(x); } }\n";
    let f = lint_source(DET, src, &policy());
    assert_eq!(rules(&f), vec![Rule::Determinism], "{f:?}");
}

#[test]
fn determinism_fires_on_let_bound_hashmap_ctor() {
    let src = "fn f() { let mut m = HashMap::new(); m.insert(1, 2); \
               for (k, v) in &m { drop((k, v)); } }\n";
    let f = lint_source(DET, src, &policy());
    assert_eq!(rules(&f), vec![Rule::Determinism], "{f:?}");
}

#[test]
fn determinism_allows_point_lookups() {
    // get/insert/remove/contains never leak hash order.
    let src = "use std::collections::HashMap;\n\
               fn f(m: &mut HashMap<u32, u32>) -> Option<u32> {\n\
                   m.insert(1, 2); m.remove(&3); m.get(&1).copied()\n\
               }\n";
    assert!(lint_source(DET, src, &policy()).is_empty());
}

#[test]
fn determinism_ignores_other_crates() {
    let src = "fn f() -> std::time::Instant { std::time::Instant::now() }\n";
    assert!(lint_source("crates/net/src/fixture.rs", src, &policy()).is_empty());
}

// ---- string / comment / cfg(test) blindness -------------------------------

#[test]
fn patterns_inside_strings_do_not_fire() {
    let src = r####"
fn f() -> &'static str {
    let a = "Instant::now() unwrap() panic!() std::net::UdpSocket";
    let b = r#"SystemTime thread_rng unsafe"#;
    let c = b"HashMap::new() .iter()";
    drop((a, b, c));
    "ok"
}
"####;
    assert!(lint_source(DET, src, &policy()).is_empty());
    assert!(lint_source(HOT, src, &policy()).is_empty());
    assert!(lint_source(SANS_IO, src, &policy()).is_empty());
    assert!(lint_source(NO_UNSAFE, src, &policy()).is_empty());
}

#[test]
fn patterns_inside_comments_do_not_fire() {
    let src = "// Instant::now() would be wrong here; so would unwrap().\n\
               /* unsafe { UdpSocket } thread_rng() */\n\
               fn f() {}\n";
    for path in [DET, HOT, SANS_IO, NO_UNSAFE] {
        assert!(lint_source(path, src, &policy()).is_empty(), "{path}");
    }
}

#[test]
fn cfg_test_blocks_are_exempt_from_determinism_and_panic() {
    let src = "fn f() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   #[test]\n\
                   fn t() {\n\
                       let t = Instant::now();\n\
                       let v: Vec<u32> = vec![1];\n\
                       assert_eq!(v[0], 1);\n\
                       v.first().unwrap();\n\
                       drop(t);\n\
                   }\n\
               }\n";
    assert!(lint_source(DET, src, &policy()).is_empty());
    assert!(lint_source(HOT, src, &policy()).is_empty());
}

#[test]
fn cfg_test_fields_and_statements_end_where_they_end() {
    // A gated field ends at its comma and a gated statement at its
    // semicolon — neither swallows (or underflows on) the brace that closes
    // the item around it, so what follows is still linted.
    let src = "struct S {\n\
                   a: u32,\n\
                   #[cfg(test)]\n\
                   seen: Vec<(u32, u32)>,\n\
               }\n\
               fn f(s: &S) {\n\
                   #[cfg(test)]\n\
                   s.seen.first().unwrap();\n\
               }\n\
               fn g() { let t = Instant::now(); drop(t); }\n";
    assert!(lint_source(HOT, src, &policy()).is_empty());
    let f = lint_source(DET, src, &policy());
    assert_eq!(rules(&f), vec![Rule::Determinism], "{f:?}");
}

#[test]
fn cfg_test_blocks_are_never_exempt_from_unsafe() {
    let src = "#[cfg(test)]\n\
               mod tests {\n\
                   fn t() { unsafe { std::hint::unreachable_unchecked() } }\n\
               }\n";
    let f = lint_source(NO_UNSAFE, src, &policy());
    assert_eq!(rules(&f), vec![Rule::Unsafe], "{f:?}");
}

#[test]
fn cfg_not_test_does_not_exempt() {
    let src = "#[cfg(not(test))]\n\
               fn f() { let t = Instant::now(); drop(t); }\n";
    let f = lint_source(DET, src, &policy());
    assert_eq!(rules(&f), vec![Rule::Determinism], "{f:?}");
}

// ---- panic_path -----------------------------------------------------------

#[test]
fn panic_path_fires_on_unwrap_expect_and_macros() {
    for frag in [
        "x.unwrap()",
        "x.expect(\"boom\")",
        "panic!(\"boom\")",
        "unreachable!()",
        "todo!()",
        "assert!(true)",
        "assert_eq!(1, 1)",
    ] {
        let src = format!("fn f(x: Option<u32>) {{ let _ = {frag}; }}\n");
        let f = lint_source(HOT, &src, &policy());
        assert_eq!(rules(&f), vec![Rule::PanicPath], "`{frag}` -> {f:?}");
    }
}

#[test]
fn panic_path_fires_on_indexing() {
    let src = "fn f(v: &[u8]) -> u8 { v[0] }\n";
    let f = lint_source(HOT, src, &policy());
    assert_eq!(rules(&f), vec![Rule::PanicPath], "{f:?}");
}

#[test]
fn panic_path_allows_checked_and_full_range_forms() {
    let src = "fn f(v: &[u8], b: &mut [u8; 4]) -> Option<u8> {\n\
                   let _all = &v[..];\n\
                   let _t: &mut [u8] = &mut b[..];\n\
                   let _attr = #[allow(dead_code)] ();\n\
                   let _m = vec![1u8];\n\
                   debug_assert!(v.len() < 100);\n\
                   v.get(0).copied()\n\
               }\n";
    let f = lint_source(HOT, src, &policy());
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn panic_path_only_applies_to_hot_files() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert!(lint_source("crates/net/src/pool.rs", src, &policy()).is_empty());
}

/// The name service resolves every send of both threaded drivers: a lock
/// taken with `unwrap()` or an asserted bring-up condition there is a panic
/// on the packet path; the poison-tolerant lock and a refused install are
/// not.
#[test]
fn panic_path_covers_the_name_service() {
    const BOOK: &str = "crates/net/src/addr.rs";
    for frag in [
        "self.table.lock().unwrap()",
        "assert_eq!(shards.groups(), groups.len(), \"one endpoint per group\")",
        "spine.groups[0]",
    ] {
        let src = format!("fn f() {{ let _ = {frag}; }}\n");
        let f = lint_source(BOOK, &src, &policy());
        assert_eq!(rules(&f), vec![Rule::PanicPath], "`{frag}` -> {f:?}");
    }
    let src = "fn f() -> bool {\n\
                   let _t = self.table.lock().unwrap_or_else(PoisonError::into_inner);\n\
                   if shards.groups() != groups.len() { return false; }\n\
                   spine.groups.first().is_some()\n\
               }\n";
    let f = lint_source(BOOK, src, &policy());
    assert!(f.is_empty(), "{f:?}");
}

/// Every packet of every pipeline runs through the switch crate — the
/// detector, the dirty set's registers, the forwarding table — and every
/// request a replica executes through the kv store: an asserted
/// precondition or an unchecked index anywhere in them is a panic on the
/// packet path; a clamp, a lookup by value and `get` are not.
#[test]
fn panic_path_covers_the_switch_and_the_kv_store() {
    for (path, frag) in [
        (
            "crates/switch/src/conflict.rs",
            "assert!(config.switch_id.0 > 0, \"reserved\")",
        ),
        ("crates/switch/src/forwarding.rs", "self.gated[i].1"),
        ("crates/switch/src/register.rs", "&mut self.slots[index]"),
        (
            "crates/switch/src/table.rs",
            "self.stages.get_mut(0).unwrap()",
        ),
        ("crates/kv/src/store.rs", "&self.shards[h & mask]"),
    ] {
        let src = format!("fn f() {{ let _ = {frag}; }}\n");
        let f = lint_source(path, &src, &policy());
        assert_eq!(
            rules(&f),
            vec![Rule::PanicPath],
            "{path}: `{frag}` -> {f:?}"
        );
    }
    let src = "fn f() -> bool {\n\
                   let stages = config.stages.max(1);\n\
                   let floor = self.gated.iter().find(|&&(x, _)| x == r);\n\
                   self.rest.get(i).is_some() && stages > 0 && floor.is_some()\n\
               }\n";
    for path in ["crates/switch/src/forwarding.rs", "crates/kv/src/store.rs"] {
        let f = lint_source(path, src, &policy());
        assert!(f.is_empty(), "{path}: {f:?}");
    }
}

/// The replica shell runs on every packet a replica receives, control
/// messages any sender can forge included: a role looked up by index, an
/// `expect` on a non-empty membership or an asserted quorum there is a
/// panic on the packet path; a lookup that falls back is not.
#[test]
fn panic_path_covers_the_replica_shell() {
    const SHELL: &str = "crates/replication/src/shell.rs";
    for frag in [
        "self.members[0]",
        "self.members.last().expect(\"non-empty chain\")",
        "assert!(quorum <= self.members.len())",
    ] {
        let src = format!("fn f() {{ let _ = {frag}; }}\n");
        let f = lint_source(SHELL, &src, &policy());
        assert_eq!(rules(&f), vec![Rule::PanicPath], "`{frag}` -> {f:?}");
    }
    let src = "fn f() -> ReplicaId {\n\
                   self.members.first().copied().unwrap_or(self.me)\n\
               }\n";
    let f = lint_source(SHELL, src, &policy());
    assert!(f.is_empty(), "{f:?}");
}

// ---- layering -------------------------------------------------------------

#[test]
fn layering_fires_on_std_net_and_socket_types() {
    for frag in [
        "use std::net::UdpSocket;",
        "use harmonia_net::AddrBook;",
        "fn g(a: SocketAddr) { drop(a); }",
        "fn g(s: TcpStream) { drop(s); }",
    ] {
        let src = format!("{frag}\n");
        let f = lint_source(SANS_IO, &src, &policy());
        assert!(
            f.iter().any(|f| f.rule == Rule::Layering),
            "expected layering finding for `{frag}`, got {f:?}"
        );
    }
}

#[test]
fn layering_ignores_io_free_code() {
    let src = "use harmonia_types::NodeId;\nfn f(n: NodeId) -> NodeId { n }\n";
    assert!(lint_source(SANS_IO, src, &policy()).is_empty());
}

// ---- unsafe ---------------------------------------------------------------

#[test]
fn unsafe_outside_allowlist_fires() {
    // `vendor/bytes` left the allowlist when its last `unsafe` went: a
    // justified block there is a finding like anywhere else.
    let src = "fn f(p: *const u8) -> u8 {\n\
               // SAFETY: caller guarantees `p` is valid for reads.\n\
               unsafe { *p }\n\
               }\n";
    for path in [NO_UNSAFE, "vendor/bytes/src/fixture.rs"] {
        let f = lint_source(path, src, &policy());
        assert_eq!(rules(&f), vec![Rule::Unsafe], "{path}: {f:?}");
    }
}

#[test]
fn unsafe_in_allowlist_needs_safety_comment() {
    let bare = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    let f = lint_source(UNSAFE_OK, bare, &policy());
    assert_eq!(rules(&f), vec![Rule::Unsafe], "{f:?}");

    let justified = "fn f(p: *const u8) -> u8 {\n\
                     // SAFETY: caller guarantees `p` is valid for reads.\n\
                     unsafe { *p }\n\
                     }\n";
    assert!(lint_source(UNSAFE_OK, justified, &policy()).is_empty());
}

#[test]
fn unsafe_fn_doc_safety_section_counts() {
    let src = "/// Does a thing.\n\
               ///\n\
               /// # Safety\n\
               ///\n\
               /// `p` must be valid for reads.\n\
               pub unsafe fn f(p: *const u8) -> u8 {\n\
               // SAFETY: contract forwarded to the caller above.\n\
               unsafe { *p }\n\
               }\n";
    assert!(lint_source(UNSAFE_OK, src, &policy()).is_empty());
}

// ---- waivers --------------------------------------------------------------

#[test]
fn waiver_suppresses_named_rule_on_next_line() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               // lint:allow(panic_path): fixture — checked by construction.\n\
               x.unwrap()\n\
               }\n";
    assert!(lint_source(HOT, src, &policy()).is_empty());
}

#[test]
fn waiver_with_wrapped_reason_covers_line_after_block() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               // lint:allow(panic_path): a reason long enough that it\n\
               // wraps onto a second comment line before the code.\n\
               x.unwrap()\n\
               }\n";
    assert!(lint_source(HOT, src, &policy()).is_empty());
}

#[test]
fn waiver_does_not_suppress_other_rules_or_far_lines() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               // lint:allow(determinism): wrong rule named.\n\
               x.unwrap()\n\
               }\n";
    let f = lint_source(HOT, src, &policy());
    assert_eq!(rules(&f), vec![Rule::PanicPath], "{f:?}");

    let far = "fn f(x: Option<u32>) -> u32 {\n\
               // lint:allow(panic_path): too far away to apply.\n\
               let y = x;\n\
               \n\
               y.unwrap()\n\
               }\n";
    let f = lint_source(HOT, far, &policy());
    assert_eq!(rules(&f), vec![Rule::PanicPath], "{f:?}");
}

#[test]
fn waiver_without_reason_is_its_own_finding_and_inert() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               // lint:allow(panic_path)\n\
               x.unwrap()\n\
               }\n";
    let f = lint_source(HOT, src, &policy());
    let mut got = rules(&f);
    got.sort();
    assert_eq!(got, vec![Rule::PanicPath, Rule::Waiver], "{f:?}");
}

#[test]
fn waiver_naming_unknown_rule_is_flagged() {
    let src = "// lint:allow(speed): not a rule.\nfn f() {}\n";
    let f = lint_source(HOT, src, &policy());
    assert_eq!(rules(&f), vec![Rule::Waiver], "{f:?}");
}

#[test]
fn waiver_can_name_multiple_rules() {
    let src = "fn f(v: &[u8]) {\n\
               // lint:allow(panic_path, determinism): fixture covers both.\n\
               let t = Instant::now(); drop((t, v[0]));\n\
               }\n";
    // DET and HOT policies don't overlap on one real path, so check the
    // suppression one rule at a time through the same waiver text.
    assert!(lint_source(HOT, src, &policy()).is_empty());
    assert!(lint_source(DET, src, &policy()).is_empty());
}

#[test]
fn prose_mentioning_waiver_syntax_is_not_a_waiver() {
    // Doc prose *about* the marker (mid-comment, not at the start) must
    // neither waive anything nor be flagged as malformed.
    let src = "// Use `lint:allow(<rule>): <reason>` to waive a finding.\n\
               fn f() {}\n";
    assert!(lint_source(HOT, src, &policy()).is_empty());
}
