//! Sharded multi-group deployments (§6.3): N replica groups behind one
//! spine switch, keyspace partitioned by the shard map. Linearizability is
//! per key, so it must survive sharding untouched — checked end to end in
//! the deterministic sim and exercised at scale in the live driver.

mod common;

use common::{assert_converged, assert_linearizable, Scenario};
use harmonia::prelude::*;

fn sharded(protocol: ProtocolKind, harmonia: bool, groups: usize) -> DeploymentSpec {
    DeploymentSpec::new()
        .protocol(protocol)
        .harmonia(harmonia)
        .groups(groups)
        .replicas(3)
}

/// The acceptance scenario: a 4-group chain deployment serves a concurrent
/// closed-loop workload; the recorded history passes the Wing–Gong checker,
/// each group's replicas converge, and shards never bleed into each other.
#[test]
fn four_group_chain_harmonia_is_linearizable() {
    let scenario = Scenario {
        deployment: sharded(ProtocolKind::Chain, true, 4),
        clients: 4,
        ops_per_client: 60,
        keys: 24,
        write_ratio: 0.4,
        seed: 201,
    };
    let outcome = scenario.run();
    let checked = assert_linearizable(&outcome.histories, "4-group Harmonia(CR)");
    assert_eq!(checked.abandoned, 0, "ops gave up");
    assert_converged(&outcome.world, &scenario.deployment, scenario.keys);

    // All four groups actually served traffic through the one spine switch,
    // under per-group sequence spaces and shared memory accounting.
    let view = outcome
        .world
        .actor::<SimWorker>(scenario.deployment.switch_addr())
        .expect("spine switch")
        .switch()
        .expect("its pipelines")
        .view();
    assert_eq!(view.group_count(), 4);
    let groups_with_writes = (view.groups().iter())
        .filter(|group| group.stats.writes_forwarded > 0)
        .count();
    assert!(
        groups_with_writes >= 3,
        "only {groups_with_writes}/4 groups saw writes — sharding is not spreading"
    );
    let per_group = view.group(GroupId(0)).unwrap().memory_bytes;
    assert_eq!(view.memory_bytes(), 4 * per_group);
}

/// Every protocol that runs under Harmonia also runs sharded; baselines
/// (and CRAQ) shard too — the spine switch routes, the groups do the rest.
#[test]
fn every_protocol_is_linearizable_across_two_groups() {
    for (protocol, harmonia) in [
        (ProtocolKind::PrimaryBackup, true),
        (ProtocolKind::Chain, true),
        (ProtocolKind::Chain, false),
        (ProtocolKind::Craq, false),
        (ProtocolKind::Vr, true),
        (ProtocolKind::Nopaxos, true),
    ] {
        let scenario = Scenario {
            deployment: sharded(protocol, harmonia, 2),
            clients: 3,
            ops_per_client: 40,
            keys: 12,
            write_ratio: 0.35,
            seed: 211,
        };
        let outcome = scenario.run();
        let context = format!("2-group {protocol:?} harmonia={harmonia}");
        let checked = assert_linearizable(&outcome.histories, &context);
        assert_eq!(checked.abandoned, 0, "{context}: ops gave up");
        assert_converged(&outcome.world, &scenario.deployment, scenario.keys);
    }
}

/// A replica of the second group fails and recovers mid-load (§5.3): the
/// switch applies each control — remove, restore the canonical table, gate,
/// ungate — in the pipeline of the group whose replica it names, and no
/// other, so the history stays linearizable, every group converges, and no
/// key leaks into the other group's replicas.
#[test]
fn a_replica_of_the_second_group_recovers_under_load() {
    let spec = sharded(ProtocolKind::Chain, true, 2);
    let scenario = Scenario {
        deployment: spec.clone(),
        clients: 4,
        ops_per_client: 80,
        keys: 16,
        write_ratio: 0.3,
        seed: 221,
    };
    let victim = spec.replica_id(1, 2);
    let outcome = scenario.run_with(|w| {
        let t = |us| Instant::ZERO + Duration::from_micros(us);
        schedule_replica_removal(w, t(300), &spec, spec.switch_addr(), victim);
        schedule_replica_recovery(w, t(900), &spec, spec.switch_addr(), victim);
    });
    assert_linearizable(&outcome.histories, "group 1 churn");
    assert_converged(&outcome.world, &spec, scenario.keys);
    let host: &SimWorker = outcome.world.actor(NodeId::Replica(victim)).unwrap();
    assert!(!host.is_recovering(), "the newcomer never caught up");
    let switch: &SimWorker = outcome.world.actor(spec.switch_addr()).unwrap();
    let members = |g| {
        switch
            .switch()
            .unwrap()
            .group(GroupId(g))
            .unwrap()
            .replicas()
            .to_vec()
    };
    assert_eq!(members(0), spec.group_members(0));
    assert_eq!(members(1), spec.group_members(1));
}

/// Per-group sequence spaces: groups stamp independently, so a group's
/// writes are dense in its own space no matter how traffic interleaves at
/// the spine switch.
#[test]
fn group_fast_paths_arm_independently() {
    use harmonia::core::client::OpSpec;

    let cfg = sharded(ProtocolKind::Chain, true, 4);
    let mut sim = cfg.build_sim();
    // Write (and thereby arm) only the groups that serve these two keys:
    // probe until the second key lands on a different shard than the first.
    let map = cfg.shard_map();
    let key_a = "key-0".to_string();
    let ga = map.shard_of_key(key_a.as_bytes());
    let key_b = (1..)
        .map(|i| format!("key-{i}"))
        .find(|k| map.shard_of_key(k.as_bytes()) != ga)
        .expect("some key lands on another shard");
    let gb = map.shard_of_key(key_b.as_bytes());
    let plan = vec![
        OpSpec::write(key_a.clone(), "a"),
        OpSpec::write(key_b.clone(), "b"),
        OpSpec::read(key_a),
        OpSpec::read(key_b),
    ];
    sim.add_closed_loop_client(ClientId(1), plan, Duration::from_millis(5));
    sim.run_until(Instant::ZERO + Duration::from_millis(5));
    let rows = sim.obs_snapshot().per_group;
    assert_eq!(rows.len(), 4);
    for row in rows {
        let g = row.group;
        assert_eq!(
            row.fast_path_enabled,
            g == ga || g == gb,
            "group {g}: fast path should arm iff its shard committed a write"
        );
    }
}

/// The live (threaded) acceptance scenario: a 4-group sharded cluster
/// serves well over 1000 distinct keys correctly, spreading them over every
/// group.
#[test]
fn sharded_live_cluster_serves_a_thousand_keys() {
    use bytes::Bytes;

    let cfg = sharded(ProtocolKind::Chain, true, 4);
    let cluster = cfg.spawn_live();
    let mut writers: Vec<_> = (0..4)
        .map(|t| {
            let mut client = cluster.client();
            std::thread::spawn(move || {
                for i in 0..300 {
                    let k = t * 300 + i;
                    client
                        .set(format!("key-{k}"), format!("value-{k}"))
                        .expect("write");
                }
            })
        })
        .collect();
    for w in writers.drain(..) {
        w.join().unwrap();
    }
    let mut reader = cluster.client();
    for k in (0..1200).rev() {
        assert_eq!(
            reader.get(format!("key-{k}")).unwrap(),
            Some(Bytes::from(format!("value-{k}"))),
            "key-{k}"
        );
    }
    // Every group served part of the keyspace, and the spine accounts for
    // all four dirty sets.
    let map = cfg.shard_map();
    let snap = cluster.obs_snapshot();
    assert_eq!(snap.per_group.len(), 4);
    for row in &snap.per_group {
        let g = row.group;
        let expected: u64 = (0..1200)
            .filter(|k| map.shard_of_key(format!("key-{k}").as_bytes()) == g)
            .count() as u64;
        assert!(expected > 0, "degenerate shard map");
        assert!(
            row.writes_forwarded >= expected,
            "group {g} forwarded {} writes for {expected} owned keys",
            row.writes_forwarded
        );
        assert!(row.fast_path_enabled, "group {g}");
    }
    let per_group = cfg.table.stages * cfg.table.slots_per_stage * cfg.table.entry_bytes;
    assert_eq!(snap.switch.memory_bytes, 4 * per_group as u64);
    cluster.shutdown();
}
