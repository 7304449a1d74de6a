//! The UDP driver under a genuinely asynchronous network.
//!
//! Every packet of these deployments crosses a real loopback `UdpSocket`
//! through the wire codec, and the spec's link fault probabilities are
//! injected by `harmonia-net`'s seeded `Adversary` on the send path of every
//! client and worker socket, in front of the same coalescing path a clean
//! socket sends through (replica↔replica stays clean — the same envelope
//! the simulator's §5.2 fault sweeps preserve). Every per-key history goes
//! through the Wing–Gong linearizability checker, and the fault counters
//! prove the adversary actually fired.

// Wall-clock reads are deliberate here: live-cluster test: real-time deadlines.
#![allow(clippy::disallowed_methods)]

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant as StdInstant};

use bytes::Bytes;
use common::{assert_linearizable_traced, collect_records, make_plans, Op};
use harmonia::prelude::*;

fn adversarial_link(drop: f64, duplicate: f64, reorder: f64) -> LinkConfig {
    LinkConfig {
        drop_prob: drop,
        duplicate_prob: duplicate,
        reorder_prob: reorder,
        ..LinkConfig::ideal(Duration::from_micros(5))
    }
}

/// The ISSUE's headline scenario: a sharded UDP cluster with 5% loss plus
/// duplication plus reordering at the socket boundary. Closed-loop clients
/// retry through it; every key a completed operation touched must stay
/// linearizable (keys of abandoned ops are excluded — an abandoned write
/// may or may not have landed), and all three fault classes must actually
/// have fired.
#[test]
fn udp_cluster_survives_loss_duplication_reordering() {
    let spec = DeploymentSpec::new()
        .protocol(ProtocolKind::Chain)
        .groups(2)
        .seed(1011)
        .link(adversarial_link(0.05, 0.05, 0.05));
    let mut cluster = spec.spawn_udp();
    let plans = make_plans(3, 30, 8, 0.35, 1011);
    let histories = cluster.run_plans(plans);

    let completed: usize = histories.iter().flatten().filter(|r| r.ok).count();
    assert!(
        completed >= 60,
        "only {completed}/90 ops completed under 5% loss"
    );
    let (records, _incomplete) = collect_records(&histories);
    assert_linearizable_traced(
        records,
        &cluster.trace_events(),
        "UDP cluster under loss+duplication+reorder",
    );

    let faults = cluster.obs_snapshot().faults;
    assert!(
        faults.dropped > 0 && faults.duplicated > 0 && faults.reordered > 0,
        "adversary never fired: {faults:?}"
    );
    let switch = cluster.obs_snapshot().switch;
    assert!(switch.writes_forwarded > 0, "{switch:?}");
    cluster.shutdown();
}

/// The same adversary against one shell with 16 operations in flight: each
/// lane loses, and retries, on its own attempt deadline while its neighbours
/// complete around it.
#[test]
fn udp_sixteen_lanes_survive_loss_duplication_reordering() {
    let spec = DeploymentSpec::new()
        .protocol(ProtocolKind::Chain)
        .groups(2)
        .seed(2211)
        .link(adversarial_link(0.05, 0.05, 0.05));
    let mut cluster = spec.spawn_udp();
    let histories = cluster.run_plans(make_plans(16, 30, 128, 0.35, 2211));

    let completed: usize = histories.iter().flatten().filter(|r| r.ok).count();
    assert!(
        completed >= 360,
        "only {completed}/480 ops completed under 5% loss"
    );
    let (records, _incomplete) = collect_records(&histories);
    assert_linearizable_traced(
        records,
        &cluster.trace_events(),
        "UDP 16 lanes under loss+duplication+reorder",
    );
    let clients = cluster.obs_snapshot().clients;
    assert!(clients.retries > 0, "no lane lost a packet: {clients:?}");
    let obs = cluster.obs_snapshot();
    let faults = obs.faults;
    assert!(
        faults.dropped > 0 && faults.duplicated > 0 && faults.reordered > 0,
        "adversary never fired: {faults:?}"
    );
    // The adversary is a stage of the one send path, so faulted sockets
    // still pack several frames to a datagram.
    let wire = obs.transport;
    assert!(
        wire.frames_sent > wire.datagrams_sent,
        "no faulted datagram carried two frames: {wire:?}"
    );
    cluster.shutdown();
}

/// Many operations in flight from one thread, on one socket: 32 plans are
/// 32 clients behind one link — 32 book entries for one address, all gone
/// with the shell — and for the first time the transport is handed a burst:
/// requests, forwards and replies leave several frames to the datagram.
#[test]
fn udp_thirty_two_lanes_share_one_socket_and_fill_datagrams() {
    let cluster = DeploymentSpec::new().groups(2).seed(22).spawn_udp();
    let baseline = cluster.unicast_entries();
    let mut load = cluster.load(make_plans(32, 200, 400, 0.3, 22));
    assert_eq!(cluster.unicast_entries(), baseline + 32);
    let histories = load.run();
    drop(load);
    assert_eq!(
        cluster.unicast_entries(),
        baseline,
        "a dropped shell must deregister every lane"
    );

    assert_eq!(histories.len(), 32);
    assert!(histories.iter().all(|h| h.len() == 200));
    let (records, incomplete) = collect_records(&histories);
    assert_eq!(incomplete, 0, "healthy cluster must complete every op");
    assert_linearizable_traced(records, &cluster.trace_events(), "UDP 32 lanes");
    let obs = cluster.obs_snapshot();
    let wire = obs.transport;
    assert!(
        wire.frames_sent >= 2 * wire.datagrams_sent,
        "the coalescer never saw a burst: {wire:?}"
    );
    assert_eq!(obs.clients.timeouts, 0, "{:?}", obs.clients);
    cluster.shutdown();
}

/// §5.3 over real sockets under one shell's load: 16 operations in flight
/// while the fleet's sockets leave the book and a replacement comes up on
/// fresh ones.
#[test]
fn udp_sixteen_lanes_ride_out_switch_replacement_mid_call() {
    let spec = DeploymentSpec::new()
        .protocol(ProtocolKind::Chain)
        .groups(2)
        .seed(56);
    let mut cluster = spec.spawn_udp();
    let mut load = cluster.load(make_plans(16, 400, 256, 0.35, 56));
    let worker = std::thread::spawn(move || load.run());
    common::replace_switch_mid_load(&mut cluster, SwitchId(2));
    let histories = worker.join().unwrap();

    assert_eq!(histories.iter().flatten().count(), 16 * 400);
    let (records, _incomplete) = collect_records(&histories);
    assert_linearizable_traced(
        records,
        &cluster.trace_events(),
        "UDP 16 lanes across switch replacement",
    );
    let clients = cluster.obs_snapshot().clients;
    assert!(clients.retries > 0, "no lane met the outage: {clients:?}");
    cluster.shutdown();
}

/// Exactly-once under duplication (no loss, no reordering — isolate the one
/// fault class): a duplicated write datagram is sequenced *twice* by the
/// switch, so the replicas' exactly-once session layer must absorb the
/// second execution, and NOPaxos clients — which need a quorum of
/// acknowledgements per write — must count *distinct* repliers (the PR 4
/// rule), since a deduplicated re-send is indistinguishable from a fresh
/// ack by request id alone. The observable: heavy duplication, and yet the
/// final value of every key is exactly its last write.
#[test]
fn udp_duplicated_writes_absorbed_by_replica_session_dedup() {
    let spec = DeploymentSpec::new()
        .protocol(ProtocolKind::Nopaxos)
        .seed(77)
        .link(adversarial_link(0.0, 0.25, 0.0));
    let cluster = spec.spawn_udp();
    let mut client = cluster.client();
    let writes = 40u32;
    for i in 0..writes {
        client
            .set(format!("k{}", i % 8), format!("v{i}"))
            .expect("write under duplication");
    }
    for k in 0..8u32 {
        // Last write to key k was at the largest i ≡ k (mod 8).
        let last = (0..writes).filter(|i| i % 8 == k).max().unwrap();
        assert_eq!(
            client.get(format!("k{k}")).unwrap(),
            Some(Bytes::from(format!("v{last}"))),
            "duplicate write re-executed out of order on k{k}"
        );
    }
    let faults = cluster.obs_snapshot().faults;
    assert!(faults.duplicated > 0, "duplication never fired");
    let others = (faults.dropped, faults.reordered);
    assert_eq!(others, (0, 0), "only duplication configured");
    // Duplicated write datagrams really were sequenced again by the switch
    // (more forwarded writes than distinct writes) — the dedup above was
    // load-bearing, not vacuous.
    let switch = cluster.obs_snapshot().switch;
    assert!(
        switch.writes_forwarded > u64::from(writes),
        "no duplicate write was ever sequenced: {switch:?}"
    );
    cluster.shutdown();
}

/// A closed-loop multi-client NOPaxos run under heavy duplication, full
/// Wing–Gong check: the distinct-replier quorum rule holds when original
/// acks, duplicated executions, and cached re-sends interleave. (Loss stays
/// off: the per-socket adversary cannot spare the switch→leader leg, and
/// NOPaxos's gap recovery only covers follower-side multicast loss — the
/// same envelope the sim fault sweep documents and preserves.)
#[test]
fn udp_nopaxos_quorum_counts_distinct_repliers_under_faults() {
    let spec = DeploymentSpec::new()
        .protocol(ProtocolKind::Nopaxos)
        .seed(313)
        .link(adversarial_link(0.0, 0.15, 0.0));
    let mut cluster = spec.spawn_udp();
    let plans = make_plans(3, 25, 6, 0.4, 313);
    let histories = cluster.run_plans(plans);
    let completed: usize = histories.iter().flatten().filter(|r| r.ok).count();
    assert!(completed >= 70, "only {completed}/75 ops completed");
    let (records, _incomplete) = collect_records(&histories);
    assert_linearizable_traced(
        records,
        &cluster.trace_events(),
        "UDP NOPaxos under duplication+loss",
    );
    let faults = cluster.obs_snapshot().faults;
    assert!(faults.duplicated > 0, "duplication never fired");
    cluster.shutdown();
}

/// One recorded operation stream from a free-running worker (the
/// live_parallel harness, pointed at a UDP cluster).
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
        let key = key_pool[(i as usize * 5 + t as usize) % keys].clone();
        let invoked = StdInstant::now();
        if i.is_multiple_of(3) {
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
        // Pace the worker so per-key histories stay inside the checker's
        // exhaustive-search budget.
        std::thread::sleep(StdDuration::from_millis(1));
    }
    records
}

/// §5.3 over real sockets: concurrent workers while the whole pipeline
/// fleet is killed (its sockets leave the address book) and a replacement
/// fleet comes up on *fresh* sockets under a new incarnation. Histories
/// must stay linearizable across the outage and the replacement must serve
/// the fast path again.
#[test]
fn udp_kill_and_replace_mid_load_stays_linearizable() {
    let spec = DeploymentSpec::new()
        .protocol(ProtocolKind::Chain)
        .groups(2)
        .seed(55);
    let mut cluster = spec.spawn_udp();
    let epoch = StdInstant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let keys = 24usize;

    let workers: Vec<_> = (0..4u32)
        .map(|t| {
            let client = cluster.client();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || run_worker(client, t, keys, epoch, stop))
        })
        .collect();

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
    assert!(completed > 40, "only {completed} ops completed");
    let (records, _incomplete) = collect_records(&histories);
    assert!(!records.is_empty(), "nothing survived to check");
    assert_linearizable_traced(
        records,
        &cluster.trace_events(),
        "UDP load across switch replacement",
    );

    // One committed write per group re-arms that group's fast path under
    // the new incarnation (first own-id WRITE-COMPLETION rule).
    let mut client = cluster.client();
    for key in spec.group_covering_keys() {
        client.set(key, "1").unwrap();
    }
    let armed: Vec<bool> = (cluster.obs_snapshot().per_group.iter())
        .map(|row| row.fast_path_enabled)
        .collect();
    assert_eq!(
        armed,
        [true, true],
        "every group's fast path must re-arm under incarnation 2"
    );
    cluster.shutdown();
}

/// Client sockets must not leak address-book entries: every dropped client
/// deregisters itself, so the book's unicast section returns to its
/// replica-only baseline. (Before the fix, each `client()` grew the book
/// forever — every send re-resolved against an ever-larger directory.)
#[test]
fn udp_dropped_clients_leave_the_address_book() {
    let spec = DeploymentSpec::new().seed(23);
    let cluster = spec.spawn_udp();
    let baseline = cluster.unicast_entries();
    {
        let mut clients: Vec<LiveClient> = (0..4).map(|_| cluster.client()).collect();
        for (i, c) in clients.iter_mut().enumerate() {
            c.set(format!("k{i}"), "v").unwrap();
        }
        assert_eq!(
            cluster.unicast_entries(),
            baseline + 4,
            "each live client owns one unicast entry"
        );
    }
    assert_eq!(
        cluster.unicast_entries(),
        baseline,
        "dropped clients must deregister from the address book"
    );
    cluster.shutdown();
}

/// A driver verb wakes the worker it is for: an idle deployment answers
/// `obs_snapshot()` — an `Inspect` to the worker hosting the pipeline —
/// and is dropped — a `Stop` to every worker — without waiting for any
/// timer. (When workers looked at their side channel only as a 1 ms socket
/// timeout ran out, which the kernel counts in jiffies, 20 snapshots took
/// ≈ 160 ms.)
#[test]
fn udp_verbs_wake_an_idle_worker_at_once() {
    let cluster = DeploymentSpec::new().seed(29).spawn_udp();
    let mut client = cluster.client();
    client.set("k", "v").unwrap();
    assert_eq!(client.get("k").unwrap(), Some(Bytes::from_static(b"v")));
    drop(client);
    std::thread::sleep(StdDuration::from_millis(50));

    let started = StdInstant::now();
    for _ in 0..20 {
        let snap = cluster.obs_snapshot();
        assert_eq!(snap.switch.completions, 1, "{snap:?}");
    }
    let snapshots = started.elapsed();
    assert!(
        snapshots < StdDuration::from_millis(40),
        "20 snapshots of an idle spawn_udp() took {snapshots:?}"
    );

    let started = StdInstant::now();
    drop(cluster);
    let dropped = started.elapsed();
    assert!(
        dropped < StdDuration::from_millis(20),
        "dropping an idle spawn_udp() took {dropped:?}"
    );
}

/// One recorded closed-loop plan execution (keys/values move by refcount
/// from the plan into the records). A 2 ms pace keeps per-key histories
/// inside the checker's budget and stretches the plan across the storm.
fn run_plan(mut client: LiveClient, plan: Vec<Op>, epoch: StdInstant) -> Vec<RecordedOp> {
    let stamp = |at: StdInstant| {
        Instant::ZERO + Duration::from_nanos(at.duration_since(epoch).as_nanos() as u64)
    };
    let mut records = Vec::with_capacity(plan.len());
    for op in plan {
        let invoked = StdInstant::now();
        let (result, ok) = match op.kind {
            OpKind::Read => match client.get(op.key.clone()) {
                Ok(v) => (v, true),
                Err(_) => (None, false),
            },
            OpKind::Write => {
                let value = op.value.clone().unwrap_or_default();
                (None, client.set(op.key.clone(), value).is_ok())
            }
        };
        records.push(RecordedOp {
            kind: op.kind,
            key: op.key,
            value: op.value,
            invoked: stamp(invoked),
            completed: stamp(StdInstant::now()),
            result,
            ok,
        });
        std::thread::sleep(StdDuration::from_millis(2));
    }
    records
}

/// The ISSUE's recovery storm: closed-loop clients under 5% datagram
/// loss + duplication + reordering while replicas are killed and restarted
/// one after another — every transfer byte crosses lossy UDP, the rejoining
/// replica is read-gated until its applied point passes the gate floor, and
/// every completed operation's history must stay linearizable.
#[test]
fn udp_replica_crash_recovery_storm_stays_linearizable() {
    let spec = DeploymentSpec::new()
        .protocol(ProtocolKind::Chain)
        .seed(909)
        .link(adversarial_link(0.05, 0.05, 0.05));
    let mut cluster = spec.spawn_udp();
    // No pre-seeding: every value the checker sees read must appear as a
    // recorded write. The 30 ms before the first kill puts real state into
    // the store, so the first transfer moves a non-trivial snapshot.
    let epoch = StdInstant::now();
    let workers: Vec<_> = make_plans(3, 40, 12, 0.35, 909)
        .into_iter()
        .map(|plan| {
            let client = cluster.client();
            std::thread::spawn(move || run_plan(client, plan, epoch))
        })
        .collect();

    // Churn two different chain positions back to back, mid-load. The
    // clients' retry budget (5 × 200 ms) rides across each outage window.
    for r in [ReplicaId(2), ReplicaId(1)] {
        std::thread::sleep(StdDuration::from_millis(30));
        cluster.kill_replica(r);
        std::thread::sleep(StdDuration::from_millis(30));
        cluster.restart_replica(r);
        // Let the snapshot + log transfer finish before the next blow.
        std::thread::sleep(StdDuration::from_millis(60));
    }
    let histories: Vec<Vec<RecordedOp>> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    let completed: usize = histories.iter().flatten().filter(|r| r.ok).count();
    assert!(completed >= 100, "only {completed}/120 ops completed");
    let (records, _incomplete) = collect_records(&histories);
    assert!(!records.is_empty(), "nothing survived to check");
    assert_linearizable_traced(
        records,
        &cluster.trace_events(),
        "UDP kill/recover storm under 5% faults",
    );

    let faults = cluster.obs_snapshot().faults;
    assert!(
        faults.dropped > 0 && faults.duplicated > 0 && faults.reordered > 0,
        "adversary never fired: {faults:?}"
    );

    // The storm is over; the restored full group serves fresh traffic.
    let mut client = cluster.client();
    client.set(b"post-storm", b"ok").unwrap();
    assert_eq!(
        client.get(b"post-storm").unwrap(),
        Some(Bytes::from_static(b"ok"))
    );
    cluster.shutdown();
}

/// Receive memory is the endpoint's own: on every protocol, a cluster that
/// has served half of a mixed run allocates no receive buffer during the
/// other half — whatever the replicas store, log or reply with, and
/// whatever the client keeps, nothing holds (and so nothing has to
/// replace) the scratch a datagram arrived in. Any future path that hands
/// a receive buffer out has to allocate its successor, and shows up here.
#[test]
fn udp_receive_buffers_are_not_allocated_after_warmup_on_any_protocol() {
    for protocol in [
        ProtocolKind::PrimaryBackup,
        ProtocolKind::Chain,
        ProtocolKind::Craq,
        ProtocolKind::Vr,
        ProtocolKind::Nopaxos,
    ] {
        let cluster = DeploymentSpec::new()
            .protocol(protocol)
            .harmonia(protocol != ProtocolKind::Craq) // CRAQ is baseline-only
            .seed(16)
            .spawn_udp();
        let mut client = cluster.client();
        let mut kept = Vec::new();
        let mut half = |from: u32| {
            for i in from..from + 2_000 {
                let key = format!("k{}", i % 64);
                if i % 4 == 0 {
                    client.set(key, format!("v{i}")).expect("write");
                } else {
                    kept.push(client.get(key).expect("read"));
                }
            }
        };
        half(0);
        let mid = cluster.obs_snapshot().pool;
        half(2_000);
        let end = cluster.obs_snapshot().pool;
        assert!(
            end.recv_hits >= mid.recv_hits + 2_000,
            "{protocol:?}: receive counters are not live: {mid:?} -> {end:?}"
        );
        assert_eq!(
            end.recv_misses, mid.recv_misses,
            "{protocol:?}: a receive buffer was allocated after warm-up"
        );
        cluster.shutdown();
    }
}
