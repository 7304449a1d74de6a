//! Live (threaded) driver integration: the same state machines as the
//! simulation, on OS threads with channel links.

use bytes::Bytes;
use harmonia::prelude::*;

fn spawn(protocol: ProtocolKind, harmonia: bool, replicas: usize) -> LiveCluster {
    DeploymentSpec::new()
        .protocol(protocol)
        .harmonia(harmonia)
        .replicas(replicas)
        .spawn_live()
}

#[test]
fn five_replica_chain_serves_many_keys() {
    let cluster = spawn(ProtocolKind::Chain, true, 5);
    let mut client = cluster.client();
    for i in 0..200 {
        client
            .set(format!("key-{i}"), format!("value-{i}"))
            .unwrap();
    }
    for i in (0..200).rev() {
        assert_eq!(
            client.get(format!("key-{i}")).unwrap(),
            Some(Bytes::from(format!("value-{i}")))
        );
    }
    cluster.shutdown();
}

#[test]
fn concurrent_clients_maintain_read_your_writes() {
    let cluster = spawn(ProtocolKind::Chain, true, 3);
    let mut handles = Vec::new();
    for t in 0..4 {
        let mut client = cluster.client();
        handles.push(std::thread::spawn(move || {
            for i in 0..50 {
                let key = format!("t{t}-k{}", i % 10);
                let value = format!("t{t}-v{i}");
                client.set(key.clone(), value.clone()).unwrap();
                // Read-your-writes: only this thread writes its keys, so the
                // read must observe the latest value.
                let got = client.get(key).unwrap();
                assert_eq!(got, Some(Bytes::from(value)), "thread {t} op {i}");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    cluster.shutdown();
}

#[test]
fn writes_are_visible_across_clients_per_protocol() {
    for (protocol, harmonia) in [
        (ProtocolKind::PrimaryBackup, true),
        (ProtocolKind::Chain, true),
        (ProtocolKind::Craq, false),
        (ProtocolKind::Vr, true),
        (ProtocolKind::Nopaxos, true),
    ] {
        let cluster = spawn(protocol, harmonia, 3);
        let mut writer = cluster.client();
        let mut reader = cluster.client();
        writer.set("handoff", "payload").unwrap();
        assert_eq!(
            reader.get("handoff").unwrap(),
            Some(Bytes::from_static(b"payload")),
            "{protocol:?}"
        );
        cluster.shutdown();
    }
}

#[test]
fn monotonic_counter_between_two_threads() {
    // Two threads alternate incrementing a counter via read-modify-write of
    // their own keys plus a shared watermark; the watermark must never be
    // observed going backwards (a coarse linearizability smoke signal under
    // real thread interleavings).
    let cluster = spawn(ProtocolKind::Chain, true, 3);
    let mut handles = Vec::new();
    for t in 0..2 {
        let mut client = cluster.client();
        handles.push(std::thread::spawn(move || {
            let mut last_seen = 0u64;
            for i in 1..=60u64 {
                client
                    .set(format!("mark-{t}"), i.to_string())
                    .expect("write");
                if let Some(v) = client.get(format!("mark-{t}")).expect("read") {
                    let seen: u64 = String::from_utf8_lossy(&v).parse().unwrap();
                    assert!(seen >= last_seen, "own watermark went backwards");
                    last_seen = seen;
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    cluster.shutdown();
}

/// §5.3 on real threads, quiesced for determinism: after the switch dies
/// and a replacement (incarnation 2) takes over, the replacement must
/// forward everything through the normal protocol — reads completing do
/// NOT re-enable the fast path — until the first WRITE-COMPLETION bearing
/// its *own* id arrives. Checked step by step through the live switch's
/// snapshot.
#[test]
fn live_switch_replacement_follows_first_own_completion_rule() {
    let mut cluster = spawn(ProtocolKind::Chain, true, 3);
    let mut client = cluster.client();

    // Warm up: a committed write arms incarnation 1's fast path.
    client.set("warm", "1").unwrap();
    assert_eq!(cluster.obs_snapshot().switch.fast_path_groups, 1);
    assert_eq!(cluster.switch_incarnation(), Some(SwitchId(1)));

    // Step 1: the switch fails. Requests now vanish; a read times out.
    cluster.kill_switch();
    assert_eq!(cluster.switch_incarnation(), None);
    assert!(client.get("warm").is_err(), "no switch, no service");

    // Steps 2–3: replacement under a fresh, larger incarnation; lease
    // moves. Its dirty set is empty and its fast path must be OFF.
    cluster.replace_switch(SwitchId(2));
    assert_eq!(cluster.switch_incarnation(), Some(SwitchId(2)));
    assert_eq!(cluster.obs_snapshot().switch.fast_path_groups, 0);

    // Reads are served through the normal protocol and do not arm it.
    assert_eq!(client.get("warm").unwrap(), Some(Bytes::from_static(b"1")));
    let switch = cluster.obs_snapshot().switch;
    assert!(switch.reads_normal > 0);
    assert_eq!(switch.reads_fast_path, 0);
    assert_eq!(switch.fast_path_groups, 0);

    // Step 4: the first write committed under incarnation 2 re-enables
    // single-replica reads.
    client.set("rearm", "2").unwrap();
    let switch = cluster.obs_snapshot().switch;
    assert_eq!(switch.fast_path_groups, 1);
    assert!(switch.completions > 0, "completion must have been snooped");
    assert_eq!(client.get("warm").unwrap(), Some(Bytes::from_static(b"1")));
    let switch = cluster.obs_snapshot().switch;
    assert!(
        switch.reads_fast_path > 0,
        "armed switch must fast-path an uncontended read: {switch:?}"
    );
    cluster.shutdown();
}

/// Failover under load: writer threads keep writing while the switch is
/// killed and replaced. Every acknowledged write must remain readable
/// afterwards, the replacement must end up serving the fast path, and its
/// stats must show it processed completions of its own.
#[test]
fn live_switch_failover_under_write_load() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let mut cluster = spawn(ProtocolKind::Chain, true, 3);
    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for t in 0..3u32 {
        let mut client = cluster.client();
        let stop = Arc::clone(&stop);
        writers.push(std::thread::spawn(move || {
            // Highest index acknowledged per key slot; errors during the
            // outage are expected (the op may or may not have landed, so
            // its slot is not counted as acknowledged).
            let mut acked: Vec<Option<u32>> = vec![None; 8];
            let mut i = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let slot = (i % 8) as usize;
                if client.set(format!("t{t}-k{slot}"), i.to_string()).is_ok() {
                    acked[slot] = Some(i);
                }
                i += 1;
            }
            acked
        }));
    }

    // Let traffic flow, then kill and replace the switch mid-stream.
    std::thread::sleep(std::time::Duration::from_millis(50));
    cluster.kill_switch();
    std::thread::sleep(std::time::Duration::from_millis(30));
    cluster.replace_switch(SwitchId(2));
    // Writers keep running against the replacement before stopping. The
    // window must exceed the client's per-attempt timeout (200 ms): an op
    // that was in flight at the kill can spend one full timeout before its
    // retry resolves (possibly as a deduplicated replay of an old-
    // incarnation commit, which does not arm the new fast path), and only
    // *then* does that writer issue fresh writes under the replacement.
    std::thread::sleep(std::time::Duration::from_millis(450));
    stop.store(true, Ordering::Relaxed);
    let acked: Vec<Vec<Option<u32>>> = writers.into_iter().map(|w| w.join().unwrap()).collect();

    // The replacement armed via its own first completion and is serving.
    assert_eq!(cluster.switch_incarnation(), Some(SwitchId(2)));
    let switch = cluster.obs_snapshot().switch;
    assert_eq!(switch.fast_path_groups, 1);
    assert!(switch.writes_forwarded > 0, "{switch:?}");
    assert!(switch.completions > 0, "{switch:?}");

    // Read-your-writes across the failover: each writer's last acknowledged
    // value per slot (or a later unacknowledged retry of the same slot)
    // must be visible. Only that writer touches its keys, and within a slot
    // values are the writer's increasing counter, so the read must be >=
    // the last acknowledged write.
    let mut reader = cluster.client();
    let mut fast_reads = 0;
    for (t, slots) in acked.iter().enumerate() {
        for (slot, &last) in slots.iter().enumerate() {
            let Some(last) = last else { continue };
            let got = reader
                .get(format!("t{t}-k{slot}"))
                .expect("read after failover")
                .unwrap_or_else(|| panic!("t{t}-k{slot}: acknowledged write lost"));
            let got: u32 = String::from_utf8_lossy(&got).parse().unwrap();
            assert!(
                got >= last,
                "t{t}-k{slot}: read {got} older than acknowledged {last}"
            );
            fast_reads += 1;
        }
    }
    assert!(fast_reads > 0, "no acknowledged writes to verify");
    cluster.shutdown();
}

#[test]
fn shutdown_is_clean_and_idempotent_per_client() {
    let cluster = spawn(ProtocolKind::Chain, true, 3);
    let mut client = cluster.client();
    client.set("k", "v").unwrap();
    cluster.shutdown();
    // Post-shutdown operations fail with a clean error, not a hang.
    let result = client.get("k");
    assert!(
        result.is_err(),
        "expected Disconnected/TimedOut, got {result:?}"
    );
}
