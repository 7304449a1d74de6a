//! The parallel live data plane under concurrent multi-group load.
//!
//! The live switch is a fleet of per-group pipeline threads (no shared lock
//! on the packet path); the spine is a stateless shard router. These tests
//! drive every group concurrently — from the many lanes of one client shell
//! (`run_plans`: one load thread, every plan a client of its own on one
//! link) and from free-running worker threads that each hold their own
//! `client()` — inject the §5.3 switch kill/replacement mid-load, and push
//! every per-key history through the Wing–Gong linearizability checker — the
//! strongest end-to-end claim the driver makes.

// Wall-clock reads are deliberate here: live-cluster test: real-time deadlines.
#![allow(clippy::disallowed_methods)]

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant as StdInstant};

use bytes::Bytes;
use common::{assert_linearizable_traced, make_plans};
use harmonia::prelude::*;

fn sharded_spec(groups: usize) -> DeploymentSpec {
    DeploymentSpec::new()
        .protocol(ProtocolKind::Chain)
        .groups(groups)
        .replicas(3)
}

/// All groups in parallel through the per-group pipelines: 8 client
/// threads, keys spread over every group, full-history Wing–Gong check.
#[test]
fn parallel_pipelines_serve_all_groups_linearizably() {
    let spec = sharded_spec(4);
    let mut cluster = spec.spawn_live();
    let plans = make_plans(8, 60, 32, 0.4, 7);
    let histories = cluster.run_plans(plans);
    let checked = assert_linearizable_traced(
        &histories,
        &cluster.trace_events(),
        "live 4-group parallel pipelines",
    );
    assert_eq!(
        checked.abandoned, 0,
        "healthy cluster must complete every op"
    );

    // Every pipeline actually carried traffic, and the per-group counters
    // are disjoint: each op shows up in exactly one group's row.
    let snap = cluster.obs_snapshot();
    assert_eq!(snap.per_group.len(), 4);
    for row in &snap.per_group {
        assert!(row.writes_forwarded > 0, "never saw a write: {row:?}");
    }
    let writes = histories.iter().flatten();
    let issued = writes.filter(|op| op.kind == OpKind::Write).count() as u64;
    assert!(snap.switch.writes_forwarded >= issued, "{:?}", snap.switch);
    cluster.shutdown();
}

/// Many operations in flight from one thread: 32 plans are 32 lanes of one
/// client shell, every lane's next operation on the wire while the others
/// wait, and the whole history — stamped on the deployment's own clock, the
/// one its trace events carry — is linearizable.
#[test]
fn thirty_two_lanes_on_one_link_complete_and_stay_linearizable() {
    let mut cluster = sharded_spec(2).spawn_live();
    let histories = cluster.run_plans(make_plans(32, 200, 400, 0.3, 22));
    assert_eq!(histories.len(), 32);
    assert!(histories.iter().all(|h| h.len() == 200));
    let checked = assert_linearizable_traced(&histories, &cluster.trace_events(), "live 32 lanes");
    assert_eq!(
        checked.abandoned, 0,
        "healthy cluster must complete every op"
    );
    let clients = cluster.obs_snapshot().clients;
    assert_eq!((clients.retries, clients.timeouts), (0, 0), "{clients:?}");
    cluster.shutdown();
}

/// §5.3 under one shell's load: the lanes keep 16 operations in flight
/// while the fleet is killed and replaced; every lane rides the outage out
/// on its own attempt deadline, retries under the same request id, and the
/// history stays linearizable.
#[test]
fn sixteen_lanes_ride_out_switch_replacement_mid_call() {
    let mut cluster = sharded_spec(2).spawn_live();
    let mut load = cluster.load(make_plans(16, 400, 256, 0.35, 23));
    let worker = std::thread::spawn(move || load.run());
    common::replace_switch_mid_load(&mut cluster, SwitchId(2));
    let histories = worker.join().unwrap();

    assert_eq!(histories.iter().flatten().count(), 16 * 400);
    assert_linearizable_traced(
        &histories,
        &cluster.trace_events(),
        "live 16 lanes across switch replacement",
    );
    let clients = cluster.obs_snapshot().clients;
    assert!(clients.retries > 0, "no lane met the outage: {clients:?}");
    cluster.shutdown();
}

/// One recorded operation of a free-running worker thread.
fn run_worker(
    mut client: LiveClient,
    t: u32,
    keys: usize,
    epoch: StdInstant,
    stop: Arc<AtomicBool>,
) -> Vec<RecordedOp> {
    let stamp = |at: StdInstant| {
        Instant::ZERO + Duration::from_nanos(at.duration_since(epoch).as_nanos() as u64)
    };
    let key_pool: Vec<Bytes> = (0..keys).map(|k| Bytes::from(format!("key-{k}"))).collect();
    let mut records = Vec::new();
    let mut i = 0u32;
    while !stop.load(Ordering::Relaxed) {
        let key = key_pool[(i as usize * 7 + t as usize) % keys].clone();
        let invoked = StdInstant::now();
        if i.is_multiple_of(3) {
            // Unique value per write so the checker can tell writes apart.
            let value = Bytes::from(format!("t{t}-i{i}"));
            let ok = client.set(key.clone(), value.clone()).is_ok();
            records.push(RecordedOp {
                kind: OpKind::Write,
                key,
                value: Some(value),
                invoked: stamp(invoked),
                completed: stamp(StdInstant::now()),
                result: None,
                ok,
            });
        } else {
            let (result, ok) = match client.get(key.clone()) {
                Ok(v) => (v, true),
                Err(_) => (None, false),
            };
            records.push(RecordedOp {
                kind: OpKind::Read,
                key,
                value: None,
                invoked: stamp(invoked),
                completed: stamp(StdInstant::now()),
                result,
                ok,
            });
        }
        i += 1;
    }
    records
}

/// §5.3 mid-load: concurrent workers on every group while the whole
/// pipeline fleet is killed and replaced under a fresh incarnation. Every
/// per-key history (excluding keys touched by abandoned ops, whose effects
/// are undefined) must stay linearizable across the outage, and the
/// replacement fleet must end up serving the fast path again.
#[test]
fn kill_and_replace_mid_parallel_load_stays_linearizable() {
    let spec = sharded_spec(4);
    let mut cluster = spec.spawn_live();
    let epoch = StdInstant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let keys = 48usize;

    let workers: Vec<_> = (0..6u32)
        .map(|t| {
            let client = cluster.client();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || run_worker(client, t, keys, epoch, stop))
        })
        .collect();

    // Let traffic flow on every pipeline, then fail the whole fleet and
    // activate the replacement while the workers keep hammering it.
    std::thread::sleep(StdDuration::from_millis(60));
    cluster.kill_switch();
    assert!(
        cluster.obs_snapshot().per_group.is_empty(),
        "no fleet, no rows"
    );
    std::thread::sleep(StdDuration::from_millis(30));
    cluster.replace_switch(SwitchId(2));
    std::thread::sleep(StdDuration::from_millis(120));
    stop.store(true, Ordering::Relaxed);
    let histories: Vec<Vec<RecordedOp>> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    assert_eq!(cluster.switch_incarnation(), Some(SwitchId(2)));
    let completed: usize = histories.iter().flatten().filter(|r| r.ok).count();
    assert!(
        completed > 50,
        "only {completed} ops completed across the run"
    );

    // Wing–Gong over every per-key history that only completed ops touched.
    assert_linearizable_traced(
        &histories,
        &cluster.trace_events(),
        "live 4-group load across switch replacement",
    );

    // The replacement fleet is serving: one committed write per group
    // re-arms that group's fast path (first own-id WRITE-COMPLETION rule).
    let mut client = cluster.client();
    for key in spec.group_covering_keys() {
        client.set(key, "1").unwrap();
    }
    let snap = cluster.obs_snapshot();
    assert_eq!(snap.per_group.len(), 4);
    for row in &snap.per_group {
        assert!(
            row.fast_path_enabled,
            "group {} fast path must re-arm under incarnation 2",
            row.group
        );
    }
    assert!(snap.switch.completions >= 4, "{:?}", snap.switch);
    cluster.shutdown();
}

/// The spine routes on the sender's thread: a client whose keys all hash to
/// one group only ever wakes that group's pipeline — other groups' counters
/// stay untouched (ownership is really per group).
#[test]
fn shard_routing_isolates_untouched_groups() {
    let spec = sharded_spec(4);
    let cluster = spec.spawn_live();
    let map = spec.shard_map();
    // Find keys that all live in group 2.
    let keys: Vec<String> = (0..1000u32)
        .map(|i| format!("pin-{i}"))
        .filter(|k| map.shard_of_key(k.as_bytes()) == 2)
        .take(20)
        .collect();
    assert!(keys.len() == 20, "hash spread must yield enough keys");
    let mut client = cluster.client();
    for (i, k) in keys.iter().enumerate() {
        client.set(k.clone(), format!("v{i}")).unwrap();
        assert_eq!(
            client.get(k.clone()).unwrap(),
            Some(Bytes::from(format!("v{i}")))
        );
    }
    let rows = cluster.obs_snapshot().per_group;
    assert_eq!(rows.len(), 4);
    for row in rows {
        let total = row.writes_forwarded + row.reads_fast_path + row.reads_normal;
        if row.group == 2 {
            assert_eq!(row.writes_forwarded, 20, "{row:?}");
        } else {
            assert_eq!(total, 0, "should be idle: {row:?}");
        }
    }
    cluster.shutdown();
}
