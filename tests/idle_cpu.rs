//! A deployment with nothing to do must stay off the CPU.
//!
//! Every node loop of the threaded drivers sleeps until it has something to
//! do: a pipeline arms its sweep timer only while the dirty set holds
//! something a sweep could reclaim, a replica whose protocol has no tick
//! blocks untimed, a sender wakes only a parked receiver, and a UDP worker
//! is woken for a driver verb by a datagram instead of polling its side
//! channel once per millisecond. When idle pipelines instead full-swept a
//! 4.7 MB table every millisecond, an idle `spawn_live()` cluster cost
//! 490 ms of CPU per 2 s and an idle `spawn_udp()` one 140 ms. A protocol that ticks (VR and NOPaxos sync
//! every 200 µs) cannot be silent, but it must *sleep* between ticks: when
//! the UDP endpoint turned every wait shorter than a jiffy into a poll, an
//! idle VR `spawn_udp()` cluster spun through 2 920 ms of CPU per 2 s and a
//! NOPaxos one 3 970 ms — both cores. Its own test binary, one test: CPU
//! time is a property of the whole process.

#![cfg(target_os = "linux")]

use std::time::Duration;

use harmonia::prelude::*;

/// CPU time this process has used so far, user + system: `utime + stime`
/// (fields 14 and 15 of `/proc/self/stat`, in clock ticks — `USER_HZ` is
/// 100 on every Linux target this runs on, so a tick is 10 ms).
fn cpu_ms() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The second field is the command in parentheses and may hold spaces;
    // the numbered fields resume after the last `)`, at field 3.
    let after_comm = &stat[stat.rfind(')').expect("stat names the command") + 1..];
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().expect("utime and stime are integers"))
        .sum();
    ticks * 10
}

/// CPU the process uses while `cluster` — warmed by one write and one read,
/// so every thread has run and the fast path is on — sits idle for 2 s.
fn idle_cost_ms(cluster: &mut dyn Cluster) -> u64 {
    {
        let mut client = cluster.client();
        client
            .set_bytes("k".into(), "v".into())
            .expect("warm-up write");
        client.get_bytes("k".into()).expect("warm-up read");
    }
    let before = cpu_ms();
    std::thread::sleep(Duration::from_secs(2));
    cpu_ms() - before
}

#[test]
fn idle_clusters_stay_off_the_cpu() {
    let mut live = DeploymentSpec::new().spawn_live();
    let live_ms = idle_cost_ms(&mut live);
    drop(live);
    let mut udp = DeploymentSpec::new().spawn_udp();
    let udp_ms = idle_cost_ms(&mut udp);
    drop(udp);
    println!("idle for 2 s: spawn_live() {live_ms} ms of CPU, spawn_udp() {udp_ms} ms");
    assert!(live_ms <= 20, "idle spawn_live() used {live_ms} ms in 2 s");
    assert!(udp_ms <= 20, "idle spawn_udp() used {udp_ms} ms in 2 s");

    // The ticking protocols: three replicas waking 5 000 times a second
    // each cost something on either driver — well under one core, not two.
    for protocol in [ProtocolKind::Vr, ProtocolKind::Nopaxos] {
        let spec = DeploymentSpec::new().protocol(protocol);
        let mut live = spec.spawn_live();
        let live_ms = idle_cost_ms(&mut live);
        drop(live);
        let mut udp = spec.spawn_udp();
        let udp_ms = idle_cost_ms(&mut udp);
        drop(udp);
        println!(
            "idle {protocol:?} for 2 s: spawn_live() {live_ms} ms of CPU, spawn_udp() {udp_ms} ms"
        );
        assert!(
            live_ms <= 1200,
            "idle {protocol:?} spawn_live() used {live_ms} ms in 2 s"
        );
        assert!(
            udp_ms <= 1200,
            "idle {protocol:?} spawn_udp() used {udp_ms} ms in 2 s"
        );
    }
}
