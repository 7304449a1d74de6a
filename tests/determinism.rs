//! Deterministic-replay regression tests.
//!
//! The simulator's contract (ROADMAP tier-1, `harmonia-sim` docs) is that a
//! fixed seed reproduces a run *exactly*: same client histories, same
//! metrics, same final state. Every debugging and bisection workflow on this
//! repo leans on that property, so it is locked in here — under an
//! adversarial network, where the RNG is exercised hardest (jitter draws,
//! drop/duplicate/reorder coin flips, random fast-path replica choice).
//!
//! The `DeploymentSpec` redesign adds a second contract: `groups(1)` must
//! be *bit-identical* to the pre-redesign unsharded `build_world` assembly,
//! so migrating a seed-pinned experiment to the new API can never change
//! its results. Locked by the two `groups1_*` tests below.

mod common;

use bytes::Bytes;
use common::Scenario;
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
/// histories and identical metrics.
#[test]
fn closed_loop_replay_is_identical() {
    let run = |seed: u64| {
        let outcome = adversarial(seed).run();
        let counters: Vec<(&'static str, u64)> = outcome.world.metrics().counters_sorted();
        (outcome.histories, counters)
    };

    let (hist_a, counters_a) = run(42);
    let (hist_b, counters_b) = run(42);
    assert_eq!(hist_a, hist_b, "same seed must replay identical histories");
    assert_eq!(
        counters_a, counters_b,
        "same seed must replay identical metrics"
    );
    assert_eq!(
        hist_a.iter().map(Vec::len).sum::<usize>(),
        4 * 50,
        "every client completed its full plan"
    );
    assert!(
        counters_a.iter().any(|&(n, v)| n == "net.dropped" && v > 0),
        "the adversarial network actually consulted the RNG: {counters_a:?}"
    );
}

/// Observability rides the same contract: two same-seed sim runs render
/// bit-identical [`ObsSnapshot`]s (both exporters, byte for byte) and
/// identical trace timelines. This is what makes a snapshot diff a valid
/// bisection tool — any byte that differs is caused by the change under
/// test, not by the telemetry.
#[test]
fn obs_snapshot_replay_is_identical() {
    let run = |seed: u64| {
        let mut sim = adversarial_spec(seed).build_sim();
        let _ = sim.run_plans(common::make_plans(4, 50, 6, 0.3, seed));
        let snap = sim.obs_snapshot();
        (
            harmonia::obs::json_text(&snap),
            harmonia::obs::prometheus_text(&snap),
            sim.trace_events(),
        )
    };
    let (json_a, prom_a, traces_a) = run(42);
    let (json_b, prom_b, traces_b) = run(42);
    assert_eq!(json_a, json_b, "same seed must render identical JSON");
    assert_eq!(prom_a, prom_b, "same seed must render identical Prometheus");
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
    let counters = |seed: u64| {
        adversarial(seed)
            .run()
            .world
            .metrics()
            .counters_sorted()
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect::<Vec<_>>()
    };
    assert_ne!(
        counters(1),
        counters(2),
        "an adversarial network must consult the seeded RNG"
    );
}

/// Open-loop generators are deterministic too: same seed, same counter
/// values and same latency-histogram shape.
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

        let counters: Vec<(String, u64)> = sim
            .world()
            .metrics()
            .counters_sorted()
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect();
        let hist = sim
            .world()
            .metrics()
            .histogram("client.read.latency")
            .expect("reads recorded latency");
        (counters, hist.count(), hist.mean(), hist.percentile(0.99))
    };

    let a = run();
    let b = run();
    assert_eq!(a, b, "open-loop replay must be exact");
    assert!(a.1 > 0, "the run recorded read latencies");
}

/// Assemble the pre-redesign unsharded world exactly the way the old
/// `build_world(&ClusterConfig)` did: explicit single-group switch actor
/// plus one `ReplicaActor` per replica, in the same insertion order. The
/// redesign collapsed that path into the sharded one — this is the
/// reference it must keep matching.
fn pre_redesign_world(spec: &DeploymentSpec) -> World<Msg> {
    use harmonia::core::switch_actor::{SwitchActor, SwitchActorConfig, SwitchMode};
    use harmonia::core::ReplicaActor;
    use harmonia::replication::build_replica;

    assert_eq!(spec.groups, 1, "the old path was single-group only");
    let mut world = World::new(WorldConfig {
        seed: spec.seed,
        network: NetworkModel::uniform(spec.link),
    });
    world.add_node(
        NodeId::Switch(SwitchId(1)),
        Box::new(SwitchActor::new(SwitchActorConfig {
            incarnation: SwitchId(1),
            mode: if spec.harmonia {
                SwitchMode::Harmonia
            } else {
                SwitchMode::Baseline
            },
            protocol: spec.protocol,
            replicas: spec.replicas,
            table: spec.table,
            sweep_interval: spec.sweep_interval,
        })),
    );
    for i in 0..spec.replicas as u32 {
        let group = GroupConfig {
            protocol: spec.protocol,
            me: ReplicaId(i),
            members: (0..spec.replicas as u32).map(ReplicaId).collect(),
            harmonia: spec.harmonia,
            active_switch: SwitchId(1),
            sync_interval: spec.sync_interval,
        };
        world.add_node(
            NodeId::Replica(ReplicaId(i)),
            Box::new(ReplicaActor::new(build_replica(group), spec.costs)),
        );
    }
    world
}

/// Drive the same adversarial closed-loop workload over an arbitrary
/// pre-built world and return (histories, counters).
type RunFingerprint = (Vec<Vec<RecordedOp>>, Vec<(String, u64)>);

fn fingerprint(mut world: World<Msg>, seed: u64) -> RunFingerprint {
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
    let histories = (0..4u32)
        .map(|c| {
            world
                .actor::<ClosedLoopClient>(NodeId::Client(ClientId(10 + c)))
                .expect("client exists")
                .records
                .clone()
        })
        .collect();
    let counters = world
        .metrics()
        .counters_sorted()
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect();
    (histories, counters)
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

/// The redesign's equivalence contract: `groups(1)` through the unified
/// (internally sharded) assembly produces bit-identical histories and
/// metrics to the pre-redesign unsharded `build_world` assembly, same seed,
/// under an adversarial network that exercises the RNG hard.
#[test]
fn groups1_matches_pre_redesign_unsharded_build() {
    let spec = adversarial_spec(42);
    let old = fingerprint(pre_redesign_world(&spec), 42);
    let new = fingerprint(spec.build_sim().into_world(), 42);
    assert_eq!(
        old.0, new.0,
        "groups(1) must replay the old unsharded histories bit-for-bit"
    );
    assert_eq!(old.1, new.1, "and the metrics must match exactly");
    assert!(
        old.0.iter().map(Vec::len).sum::<usize>() > 0,
        "the comparison actually ran a workload"
    );
}

/// A second seed through the pre-redesign reference, so the equivalence is
/// not a single-trajectory fluke (the deprecated `build_world` shim this
/// used to exercise was removed in 0.x; the hand-assembled reference above
/// is the contract that outlives it).
#[test]
fn groups1_matches_pre_redesign_unsharded_build_second_seed() {
    let spec = adversarial_spec(43);
    let old = fingerprint(pre_redesign_world(&spec), 43);
    let new = fingerprint(spec.build_sim().into_world(), 43);
    assert_eq!(old.0, new.0);
    assert_eq!(old.1, new.1);
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run `plans` on `sim` and digest everything a refactor could perturb: the
/// `Debug` of every client history (values, virtual invoke/complete instants,
/// outcomes) followed by the rendered obs snapshot (every counter, latency
/// summary and switch section).
fn run_digest(sim: &mut SimCluster, plans: Vec<Vec<common::Op>>) -> u64 {
    let histories = sim.run_plans(plans);
    let text = format!(
        "{histories:?}{}",
        harmonia::obs::json_text(&sim.obs_snapshot())
    );
    fnv1a(text.as_bytes())
}

/// Digest of the adversarial seed-42 `run_plans` scenario, captured at the
/// commit before the client / replica-step / control-script cores were
/// shared between drivers.
const GOLDEN_ADVERSARIAL: u64 = 17_342_668_837_539_862_903;

/// Digest of the seed-42 removal + `schedule_replica_recovery` scenario,
/// captured at the same commit.
const GOLDEN_RECOVERY: u64 = 11_015_996_726_012_751_126;

/// The cross-commit gate: `closed_loop_replay_is_identical` compares a run
/// with itself, so a change that reorders a send and a timer passes it. These
/// constants were captured before such a change; a mismatch means same-seed
/// sim behaviour moved, and the constants may only be re-captured by a change
/// that means to move it.
#[test]
fn same_seed_runs_match_the_digests_captured_before_the_driver_refactor() {
    let mut sim = adversarial_spec(42).build_sim();
    assert_eq!(
        run_digest(&mut sim, common::make_plans(4, 50, 6, 0.3, 42)),
        GOLDEN_ADVERSARIAL,
        "adversarial seed-42 run diverged from the captured digest"
    );

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
    let digest = run_digest(&mut sim, common::make_plans(4, 100, 6, 0.3, 42));
    let recovered: &harmonia::core::ReplicaActor = sim
        .world()
        .actor(NodeId::Replica(ReplicaId(2)))
        .expect("recovered replica exists");
    assert!(
        !recovered.is_recovering() && recovered.replica().applied_seq() > SwitchSeq::ZERO,
        "the scenario must actually complete a state transfer"
    );
    assert_eq!(
        digest, GOLDEN_RECOVERY,
        "removal + recovery seed-42 run diverged from the captured digest"
    );
}

/// Digests of the adversarial seed-42 `run_plans` scenario on each protocol,
/// captured at the commit before the simulator's event engine was rebuilt
/// (payload slab, separate timer heap). VR's and NOPaxos's tick timers tie
/// with message arrivals on `at`, which is the case the merge of the two heaps
/// by `(at, seq)` has to get right; the Harmonia(chain) row is
/// [`GOLDEN_ADVERSARIAL`] again, under the name of its protocol.
const GOLDEN_PER_PROTOCOL: [(ProtocolKind, bool, u64); 5] = [
    (ProtocolKind::PrimaryBackup, true, 5_575_998_322_645_073_156),
    (ProtocolKind::Chain, true, GOLDEN_ADVERSARIAL),
    (ProtocolKind::Craq, false, 12_287_108_459_827_111_093),
    (ProtocolKind::Vr, true, 258_254_913_319_864_946),
    (ProtocolKind::Nopaxos, true, 8_119_031_098_525_302_462),
];

#[test]
fn every_protocol_matches_the_digest_captured_before_the_engine_rebuild() {
    for (protocol, harmonia, golden) in GOLDEN_PER_PROTOCOL {
        let mut sim = adversarial_spec(42)
            .protocol(protocol)
            .harmonia(harmonia)
            .build_sim();
        assert_eq!(
            run_digest(&mut sim, common::make_plans(4, 50, 6, 0.3, 42)),
            golden,
            "{protocol:?} (harmonia={harmonia}) adversarial seed-42 run diverged"
        );
    }
}

/// Digest of a 20 ms open-loop run over `adversarial_spec(7)`, captured at
/// the same commit. The generator's `source(rng)` draws interleave with the
/// network model's jitter / drop / duplicate draws on the one world RNG: an
/// engine that applied a handler's sends before the handler returned would
/// reorder them and land here.
const GOLDEN_OPEN_LOOP: u64 = 817_709_547_351_971_987;

#[test]
fn open_loop_run_matches_the_digest_captured_before_the_engine_rebuild() {
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

    let metrics = sim.world().metrics();
    let reads = metrics
        .histogram("client.read.latency")
        .expect("reads recorded latency");
    assert!(reads.count() > 0 && metrics.counter("net.dropped") > 0);
    let text = format!(
        "{:?}{:?}{}",
        metrics.counters_sorted(),
        reads,
        harmonia::obs::json_text(&sim.obs_snapshot())
    );
    assert_eq!(
        fnv1a(text.as_bytes()),
        GOLDEN_OPEN_LOOP,
        "open-loop adversarial seed-7 run diverged from the captured digest"
    );
}
