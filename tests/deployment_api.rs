//! The unified `Deployment` API, exercised driver-agnostically: the same
//! scenario runs through `Box<dyn Cluster>` for all three drivers — the
//! deterministic sim, the live threaded driver, and the UDP datagram
//! driver — and every history passes the Wing–Gong checker. This is the
//! paper's drop-in claim in executable form — nothing in the harness below
//! knows which driver it is talking to.

mod common;

use common::{assert_linearizable_traced, make_plans};
use harmonia::obs::{GroupObs, SwitchObs};
use harmonia::prelude::*;

/// Whether each group's fast path is armed, in group order; empty while
/// the switch is down.
fn armed(cluster: &dyn Cluster) -> Vec<bool> {
    let rows = cluster.obs_snapshot().per_group;
    rows.iter().map(|row| row.fast_path_enabled).collect()
}

/// All three drivers, behind the same trait object.
fn all_drivers(spec: &DeploymentSpec) -> Vec<(&'static str, Box<dyn Cluster>)> {
    vec![
        ("sim", Box::new(spec.build_sim())),
        ("live", Box::new(spec.spawn_live())),
        ("udp", Box::new(spec.spawn_udp())),
    ]
}

/// The same closed-loop scenario through `Box<dyn Cluster>` for every
/// driver: each history must be linearizable, and each switch must have
/// actually exercised the fast path.
#[test]
fn same_scenario_is_linearizable_through_all_drivers() {
    let spec = DeploymentSpec::new().protocol(ProtocolKind::Chain).seed(9);
    for (name, mut cluster) in all_drivers(&spec) {
        let plans = make_plans(3, 40, 8, 0.35, 9);
        let histories = cluster.run_plans(plans);
        assert_eq!(histories.len(), 3, "{name}: one history per plan");
        // A failed check attaches the packet-path trace for the bad key.
        let checked = assert_linearizable_traced(
            &histories,
            &cluster.trace_events(),
            &format!("{name} driver via dyn Cluster"),
        );
        assert_eq!(checked.abandoned, 0, "{name}: ops gave up");
        let switch = cluster.obs_snapshot().switch;
        assert!(
            switch.reads_fast_path > 0,
            "{name}: fast path unused: {switch:?}"
        );
        assert_eq!(switch.fast_path_groups, 1, "{name}");
        assert_eq!(
            cluster.switch_incarnation(),
            Some(SwitchId(1)),
            "{name}: no failover happened"
        );
    }
}

/// The synchronous KV surface behaves identically through the trait object,
/// on every driver.
#[test]
fn kv_client_round_trips_through_all_drivers() {
    let spec = DeploymentSpec::new();
    for (name, mut cluster) in all_drivers(&spec) {
        let mut client = cluster.client();
        assert_eq!(client.get(b"missing").unwrap(), None, "{name}");
        client.set(b"alpha", b"1").unwrap();
        client.set(b"alpha", b"2").unwrap();
        client.set(b"beta", b"3").unwrap();
        assert_eq!(
            client.get(b"alpha").unwrap().as_deref(),
            Some(&b"2"[..]),
            "{name}"
        );
        assert_eq!(
            client.get(b"beta").unwrap().as_deref(),
            Some(&b"3"[..]),
            "{name}"
        );
    }
}

/// A fault probability above 1 is certain, not an out-of-range draw that
/// panics the simulator's network model or a UDP worker's adversary: every
/// packet is duplicated, and a write and a read still round-trip.
#[test]
fn a_fault_probability_above_one_is_certain() {
    let spec = DeploymentSpec::new().link(LinkConfig::lossy(0.0, 2.0, 0.0));
    let drivers: Vec<(&str, Box<dyn Cluster>)> = vec![
        ("sim", Box::new(spec.build_sim())),
        ("udp", Box::new(spec.spawn_udp())),
    ];
    for (name, mut cluster) in drivers {
        let mut client = cluster.client();
        client.set(b"k", b"v").unwrap();
        assert_eq!(
            client.get(b"k").unwrap().as_deref(),
            Some(&b"v"[..]),
            "{name}"
        );
        drop(client);
        if name == "udp" {
            let faults = cluster.obs_snapshot().faults;
            assert!(faults.duplicated > 0, "{name}: {faults:?}");
            assert_eq!(faults.dropped, 0, "{name}: {faults:?}");
        }
    }
}

/// The §5.3 failover vocabulary is the same on every driver: kill the
/// switch (service stops), replace it (normal path only), first own-id
/// completion re-arms the fast path.
#[test]
fn failover_vocabulary_is_uniform_across_drivers() {
    let spec = DeploymentSpec::new();
    for (name, mut cluster) in all_drivers(&spec) {
        {
            let mut client = cluster.client();
            client.set(b"warm", b"1").unwrap();
        }
        assert_eq!(armed(&*cluster), [true], "{name}");

        cluster.kill_switch();
        assert_eq!(cluster.switch_incarnation(), None, "{name}");
        assert_eq!(armed(&*cluster), [], "{name}: switch is down");
        {
            let mut client = cluster.client();
            assert!(
                client.get(b"warm").is_err(),
                "{name}: no switch, no service"
            );
        }

        cluster.replace_switch(SwitchId(2));
        assert_eq!(cluster.switch_incarnation(), Some(SwitchId(2)), "{name}");
        assert_eq!(
            armed(&*cluster),
            [false],
            "{name}: fresh dirty set, fast path must be off"
        );
        {
            let mut client = cluster.client();
            assert_eq!(
                client.get(b"warm").unwrap().as_deref(),
                Some(&b"1"[..]),
                "{name}: normal path serves reads"
            );
            client.set(b"rearm", b"2").unwrap();
        }
        assert_eq!(
            armed(&*cluster),
            [true],
            "{name}: first own-id completion re-arms"
        );
    }
}

/// The replica fail-stop/recovery vocabulary is the same on every driver:
/// kill a replica (the survivors reconfigure and keep serving), restart it
/// (the newcomer rejoins read-gated and catches up via snapshot + log state
/// transfer from a live peer), and data written before and during the
/// outage survives the round trip.
#[test]
fn replica_crash_and_recovery_is_uniform_across_drivers() {
    let spec = DeploymentSpec::new().protocol(ProtocolKind::Chain).seed(21);
    for (name, mut cluster) in all_drivers(&spec) {
        {
            let mut client = cluster.client();
            for i in 0..8 {
                client
                    .set(format!("pre-{i}").as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
        }

        cluster.kill_replica(ReplicaId(2));
        {
            let mut client = cluster.client();
            client.set(b"during", b"1").unwrap();
            assert_eq!(
                client.get(b"pre-3").unwrap().as_deref(),
                Some(&b"v3"[..]),
                "{name}: survivors must keep serving through the outage"
            );
        }

        cluster.restart_replica(ReplicaId(2));
        // Give the threaded drivers' background transfer a beat; the sim's
        // completes as the operations below advance virtual time.
        std::thread::sleep(std::time::Duration::from_millis(50));
        {
            let mut client = cluster.client();
            assert_eq!(
                client.get(b"pre-5").unwrap().as_deref(),
                Some(&b"v5"[..]),
                "{name}: pre-crash data must survive recovery"
            );
            assert_eq!(
                client.get(b"during").unwrap().as_deref(),
                Some(&b"1"[..]),
                "{name}: outage-window write must survive recovery"
            );
            client.set(b"after", b"2").unwrap();
            assert_eq!(
                client.get(b"after").unwrap().as_deref(),
                Some(&b"2"[..]),
                "{name}: recovered deployment must accept new writes"
            );
        }
        assert_eq!(
            cluster.switch_incarnation(),
            Some(SwitchId(1)),
            "{name}: replica churn must not disturb the switch incarnation"
        );
    }
}

/// A sharded deployment through the same trait object: groups(4) serves a
/// spread keyspace on all three drivers, with identical memory accounting.
#[test]
fn sharded_deployment_is_uniform_across_drivers() {
    let spec = DeploymentSpec::new().groups(4);
    let per_group = spec.table.stages * spec.table.slots_per_stage * spec.table.entry_bytes;
    for (name, mut cluster) in all_drivers(&spec) {
        {
            let mut client = cluster.client();
            for i in 0..40 {
                let key = format!("key-{i}");
                client
                    .set(key.as_bytes(), format!("v{i}").as_bytes())
                    .unwrap();
            }
            for i in 0..40 {
                let key = format!("key-{i}");
                assert_eq!(
                    client.get(key.as_bytes()).unwrap().as_deref(),
                    Some(format!("v{i}").as_bytes()),
                    "{name}: {key}"
                );
            }
        }
        let snap = cluster.obs_snapshot();
        assert_eq!(
            snap.switch.memory_bytes,
            4 * per_group as u64,
            "{name}: four equal dirty sets"
        );
        let groups_with_writes = (snap.per_group.iter())
            .filter(|row| row.writes_forwarded > 0)
            .count();
        assert!(
            groups_with_writes >= 3,
            "{name}: only {groups_with_writes}/4 groups saw writes"
        );
    }
}

/// The snapshot is the one read side of a running deployment, and its switch
/// sections agree with each other on every driver: a row per group in group
/// order, totals that are the rows' sums, and as many armed groups counted
/// as there are armed rows. With the switch down both sections are empty;
/// a replacement hosts every group again, each disarmed until its first
/// own-id completion (§5.3).
#[test]
fn the_snapshots_switch_sections_agree_on_every_driver() {
    let spec = DeploymentSpec::new().groups(4).seed(5);
    for (name, mut cluster) in all_drivers(&spec) {
        let plans = make_plans(3, 60, 40, 0.3, 5);
        let histories = cluster.run_plans(plans);
        let abandoned = histories.iter().flatten().filter(|r| !r.ok).count();
        assert_eq!(abandoned, 0, "{name}: ops gave up");

        let snap = cluster.obs_snapshot();
        let groups: Vec<u32> = snap.per_group.iter().map(|row| row.group).collect();
        assert_eq!(groups, [0, 1, 2, 3], "{name}");
        let sum = |field: fn(&GroupObs) -> u64| snap.per_group.iter().map(field).sum::<u64>();
        let switch = snap.switch;
        let totals = [
            switch.reads_fast_path,
            switch.reads_normal,
            switch.writes_forwarded,
            switch.writes_dropped,
            switch.dirty_len,
            switch.memory_bytes,
        ];
        let sums = [
            sum(|row| row.reads_fast_path),
            sum(|row| row.reads_normal),
            sum(|row| row.writes_forwarded),
            sum(|row| row.writes_dropped),
            sum(|row| row.dirty_len),
            sum(|row| row.memory_bytes),
        ];
        assert_eq!(totals, sums, "{name}: {snap:?}");
        assert!(switch.reads_fast_path > 0, "{name}: {switch:?}");
        let armed_rows = snap.per_group.iter().filter(|row| row.fast_path_enabled);
        assert_eq!(switch.fast_path_groups, armed_rows.count() as u64, "{name}");

        cluster.kill_switch();
        let snap = cluster.obs_snapshot();
        assert_eq!(snap.switch, SwitchObs::default(), "{name}");
        assert!(snap.per_group.is_empty(), "{name}: {:?}", snap.per_group);

        cluster.replace_switch(SwitchId(2));
        assert_eq!(armed(&*cluster), [false; 4], "{name}");
    }
}
