//! Deterministic-replay regression tests.
//!
//! The simulator's contract (ROADMAP tier-1, `harmonia-sim` docs) is that a
//! fixed seed reproduces a run *exactly*: same client histories, same
//! telemetry, same final state. Every debugging and bisection workflow on this
//! repo leans on that property, so it is locked in here — under an
//! adversarial network, where the RNG is exercised hardest (jitter draws,
//! drop/duplicate/reorder coin flips, random fast-path replica choice).
//!
//! Replaying a run against itself cannot see a change that moves both runs
//! alike, so the second half of this file pins runs across commits: each
//! golden run's rendered text — every client history, then the world's fault
//! counts or the rendered obs snapshot — is committed under `tests/golden/`. A run
//! that no longer renders its file fails with the first operation (or
//! snapshot line) where the two part. A change that means to move a run
//! rewrites the files with
//! `cargo test --test determinism -- --ignored regenerate_golden_texts`,
//! and the diff of the files is the review of what moved.

mod common;

use bytes::Bytes;
use common::Scenario;
use harmonia::obs::Series;
use harmonia::prelude::*;
use rand::Rng;

fn adversarial(seed: u64) -> Scenario {
    Scenario {
        deployment: adversarial_spec(seed),
        clients: 4,
        ops_per_client: 50,
        keys: 6,
        write_ratio: 0.3,
        seed,
    }
}

/// Two closed-loop runs with the same seed produce bit-identical client
/// histories and identical fault counts.
#[test]
fn closed_loop_replay_is_identical() {
    let run = |seed: u64| {
        let outcome = adversarial(seed).run();
        (outcome.histories, outcome.world.faults())
    };

    let (hist_a, faults_a) = run(42);
    let (hist_b, faults_b) = run(42);
    assert_eq!(hist_a, hist_b, "same seed must replay identical histories");
    assert_eq!(faults_a, faults_b, "same seed must replay identical faults");
    assert_eq!(
        hist_a.iter().map(Vec::len).sum::<usize>(),
        4 * 50,
        "every client completed its full plan"
    );
    assert!(
        faults_a.dropped > 0,
        "the adversarial network actually consulted the RNG: {faults_a:?}"
    );
}

/// Observability rides the same contract: two same-seed sim runs render
/// bit-identical [`ObsSnapshot`]s (the JSON, byte for byte) and
/// identical trace timelines. This is what makes a snapshot diff a valid
/// bisection tool — any byte that differs is caused by the change under
/// test, not by the telemetry.
#[test]
fn obs_snapshot_replay_is_identical() {
    let run = |seed: u64| {
        let mut sim = adversarial_spec(seed).build_sim();
        let _ = sim.run_plans(common::make_plans(4, 50, 6, 0.3, seed));
        let snap = sim.obs_snapshot();
        (harmonia::obs::json_text(&snap), sim.trace_events())
    };
    let (json_a, traces_a) = run(42);
    let (json_b, traces_b) = run(42);
    assert_eq!(json_a, json_b, "same seed must render identical JSON");
    assert_eq!(traces_a, traces_b, "same seed must trace identically");
    assert!(
        !traces_a.is_empty(),
        "the comparison actually traced something"
    );
    assert!(
        json_a.contains("\"driver\": \"sim\""),
        "snapshot came from the sim driver"
    );
}

/// A different seed actually changes the run (guards against the replay test
/// passing vacuously because the RNG is never consulted).
#[test]
fn different_seed_diverges() {
    let faults = |seed: u64| adversarial(seed).run().world.faults();
    assert_ne!(
        faults(1),
        faults(2),
        "an adversarial network must consult the seeded RNG"
    );
}

/// Open-loop generators are deterministic too: same seed, the same
/// snapshot — client counters, the link model's fault counts, latency
/// summaries — and the same read-latency histogram, bucket for bucket.
#[test]
fn open_loop_replay_is_identical() {
    let run = || {
        let mut sim = DeploymentSpec::new().seed(7).build_sim();
        let source: SourceFn = Box::new(|rng| {
            let key = Bytes::from(format!("key-{}", rng.gen_range(0..64u32)));
            if rng.gen_bool(0.05) {
                OpSpec::write(key, Bytes::from_static(b"v"))
            } else {
                OpSpec::read(key)
            }
        });
        sim.add_open_loop_client(ClientId(1), 200_000.0, Duration::from_millis(10), source);
        sim.run_until(Instant::ZERO + Duration::from_millis(20));

        let reads = sim.recorded().histogram(Series::ReadLatency);
        (sim.obs_snapshot(), reads)
    };

    let a = run();
    let b = run();
    assert_eq!(a, b, "open-loop replay must be exact");
    assert!(a.1.count() > 0, "the run recorded read latencies");
}

/// Drive the adversarial closed-loop workload over a pre-built world and
/// render what it left: every client history, then the world's fault counts.
fn fingerprint(mut world: World<Msg>, seed: u64) -> String {
    let plans = common::make_plans(4, 50, 6, 0.3, seed);
    for (c, plan) in plans.into_iter().enumerate() {
        let id = ClientId(10 + c as u32);
        let client = ClosedLoopClient::new(id, NodeId::Switch(SwitchId(1)), plan)
            .with_write_replies(1)
            .with_timeout(Duration::from_millis(3));
        world.add_node(NodeId::Client(id), Box::new(client));
    }
    let horizon = Instant::ZERO + Duration::from_secs(2);
    loop {
        let next = world.now() + Duration::from_millis(10);
        world.run_until(next);
        let all_done = (0..4u32).all(|c| {
            world
                .actor::<ClosedLoopClient>(NodeId::Client(ClientId(10 + c)))
                .is_some_and(|cl| cl.is_done())
        });
        if all_done || next >= horizon {
            break;
        }
    }
    let drain = world.now() + Duration::from_millis(20);
    world.run_until(drain);
    let histories: Vec<Vec<RecordedOp>> = (0..4u32)
        .map(|c| {
            world
                .actor::<ClosedLoopClient>(NodeId::Client(ClientId(10 + c)))
                .expect("client exists")
                .records
                .clone()
        })
        .collect();
    assert!(
        histories.iter().map(Vec::len).sum::<usize>() > 0,
        "the run actually ran a workload"
    );
    format!("{histories:?}\n{:?}\n", world.faults())
}

fn adversarial_spec(seed: u64) -> DeploymentSpec {
    DeploymentSpec::new()
        .link(LinkConfig {
            base_latency: Duration::from_micros(5),
            jitter: Duration::from_micros(40),
            drop_prob: 0.01,
            duplicate_prob: 0.01,
            reorder_prob: 0.05,
            reorder_delay: Duration::from_micros(100),
        })
        .seed(seed)
}

/// `groups(1)` through the unified (internally sharded) assembly replays the
/// pre-redesign unsharded `build_world` assembly's client histories bit for
/// bit, under an adversarial network that exercises the RNG hard: the golden
/// text was captured where the two assemblies rendered it alike.
#[test]
fn groups1_matches_pre_redesign_unsharded_build() {
    assert_golden("groups1_seed42", &groups1_text(42));
}

/// A second seed, so the equivalence is not a single-trajectory fluke.
#[test]
fn groups1_matches_pre_redesign_unsharded_build_second_seed() {
    assert_golden("groups1_seed43", &groups1_text(43));
}

fn groups1_text(seed: u64) -> String {
    fingerprint(adversarial_spec(seed).build_sim().into_world(), seed)
}

/// Run `plans` on `sim` and render everything a refactor could perturb: the
/// `Debug` of every client history (values, virtual invoke/complete instants,
/// outcomes) followed by the rendered obs snapshot (every counter, latency
/// summary and switch section).
fn run_text(sim: &mut SimCluster, plans: Vec<Vec<common::Op>>) -> String {
    let histories = sim.run_plans(plans);
    format!(
        "{histories:?}{}",
        harmonia::obs::json_text(&sim.obs_snapshot())
    )
}

/// The adversarial seed-42 `run_plans` scenario on `protocol`.
fn adversarial_text(protocol: ProtocolKind, harmonia: bool) -> String {
    let mut sim = adversarial_spec(42)
        .protocol(protocol)
        .harmonia(harmonia)
        .build_sim();
    run_text(&mut sim, common::make_plans(4, 50, 6, 0.3, 42))
}

/// Seed 42 with replica 2 removed at 300 µs and recovered at 900 µs.
fn recovery_text() -> String {
    let spec = DeploymentSpec::new().seed(42);
    let mut sim = spec.build_sim();
    let t = |us| Instant::ZERO + Duration::from_micros(us);
    schedule_replica_removal(
        sim.world_mut(),
        t(300),
        &spec,
        spec.switch_addr(),
        ReplicaId(2),
    );
    schedule_replica_recovery(
        sim.world_mut(),
        t(900),
        &spec,
        spec.switch_addr(),
        ReplicaId(2),
    );
    let text = run_text(&mut sim, common::make_plans(4, 100, 6, 0.3, 42));
    let recovered: &SimWorker = sim
        .world()
        .actor(NodeId::Replica(ReplicaId(2)))
        .expect("recovered replica exists");
    assert!(
        !recovered.is_recovering()
            && recovered
                .replica()
                .is_some_and(|r| r.applied_seq() > SwitchSeq::ZERO),
        "the scenario must actually complete a state transfer"
    );
    text
}

/// A 20 ms open-loop run over `adversarial_spec(7)`. The generator's
/// `source(rng)` draws interleave with the network model's jitter / drop /
/// duplicate draws on the one world RNG: an engine that applied a handler's
/// sends before the handler returned would reorder them and land here.
fn open_loop_text() -> String {
    let mut sim = adversarial_spec(7).build_sim();
    let source: SourceFn = Box::new(|rng| {
        let key = Bytes::from(format!("key-{}", rng.gen_range(0..64u32)));
        if rng.gen_bool(0.05) {
            OpSpec::write(key, Bytes::from_static(b"v"))
        } else {
            OpSpec::read(key)
        }
    });
    sim.add_open_loop_client(ClientId(1), 200_000.0, Duration::from_millis(10), source);
    sim.run_until(Instant::ZERO + Duration::from_millis(20));

    let reads = sim.recorded().histogram(Series::ReadLatency);
    assert!(reads.count() > 0 && sim.world().faults().dropped > 0);
    format!("{reads:?}{}", harmonia::obs::json_text(&sim.obs_snapshot()))
}

/// Every protocol's adversarial run, by the name of its golden file. The
/// Harmonia(chain) run is `adversarial`, the default deployment's.
const PROTOCOL_GOLDENS: [(&str, ProtocolKind, bool); 5] = [
    ("protocol_pb", ProtocolKind::PrimaryBackup, true),
    ("adversarial", ProtocolKind::Chain, true),
    ("protocol_craq", ProtocolKind::Craq, false),
    ("protocol_vr", ProtocolKind::Vr, true),
    ("protocol_nopaxos", ProtocolKind::Nopaxos, true),
];

/// Every golden run, by the name of its file under `tests/golden/`.
fn golden_runs() -> Vec<(String, String)> {
    let mut runs: Vec<(String, String)> = PROTOCOL_GOLDENS
        .iter()
        .map(|&(name, protocol, harmonia)| (name.into(), adversarial_text(protocol, harmonia)))
        .collect();
    runs.push(("recovery".into(), recovery_text()));
    runs.push(("open_loop".into(), open_loop_text()));
    for seed in [42, 43] {
        runs.push((format!("groups1_seed{seed}"), groups1_text(seed)));
    }
    runs
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Rewrite every file under `tests/golden/` from the runs as they are now.
/// Only a change that means to move same-seed behaviour runs this, and its
/// diff of the files names what moved.
#[test]
#[ignore = "rewrites tests/golden/; run by hand"]
fn regenerate_golden_texts() {
    for (name, text) in golden_runs() {
        std::fs::write(golden_path(&name), text).expect("write golden text");
    }
}

/// A text cut where a reader looks for a change: at every line break and in
/// front of every recorded operation, each piece labelled by where it sits.
fn pieces(text: &str) -> Vec<(String, &str)> {
    const OP: &str = "RecordedOp {";
    let mut out = Vec::new();
    let (mut client, mut op) = (0, 0);
    for (n, line) in text.split('\n').enumerate() {
        let mut cuts: Vec<usize> = line.match_indices(OP).map(|(at, _)| at).collect();
        let head = cuts.first().copied().unwrap_or(line.len());
        if head > 0 || cuts.is_empty() {
            out.push((format!("line {}", n + 1), &line[..head]));
        }
        cuts.push(line.len());
        for cut in cuts.windows(2) {
            let piece = &line[cut[0]..cut[1]];
            out.push((format!("client {client}, operation {op}"), piece));
            op += 1;
            // The last operation of a client's history closes its list.
            if piece.contains("}]") {
                (client, op) = (client + 1, 0);
            }
        }
    }
    out
}

/// `text` must be the golden run `name` to the byte; if it is not, the
/// failure names the first operation or snapshot line where the two part.
fn assert_golden(name: &str, text: &str) {
    let path = golden_path(name);
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    if golden == text {
        return;
    }
    let (was, now) = (pieces(&golden), pieces(text));
    let at = (was.iter().zip(&now))
        .position(|(a, b)| a != b)
        .unwrap_or(was.len().min(now.len()));
    let show =
        |p: Option<&(String, &str)>| p.map_or("(nothing)".to_string(), |(_, s)| s.to_string());
    let label = was.get(at).or(now.get(at)).map_or("", |(l, _)| l.as_str());
    panic!(
        "golden run `{name}` moved; first difference at {label}:\n  golden: {}\n  now:    {}\n\
         (if the move is meant: cargo test --test determinism -- --ignored regenerate_golden_texts)",
        show(was.get(at)),
        show(now.get(at)),
    );
}

/// The cross-commit gate: `closed_loop_replay_is_identical` compares a run
/// with itself, so a change that reorders a send and a timer passes it. The
/// golden runs were captured before such a change; a moved text means
/// same-seed sim behaviour moved.
#[test]
fn same_seed_runs_match_the_digests_captured_before_the_driver_refactor() {
    assert_golden("adversarial", &adversarial_text(ProtocolKind::Chain, true));
    assert_golden("recovery", &recovery_text());
}

#[test]
fn every_protocol_matches_the_digest_captured_before_the_engine_rebuild() {
    for (name, protocol, harmonia) in PROTOCOL_GOLDENS {
        assert_golden(name, &adversarial_text(protocol, harmonia));
    }
}

#[test]
fn open_loop_run_matches_the_digest_captured_before_the_engine_rebuild() {
    assert_golden("open_loop", &open_loop_text());
}
