//! Offered load is a plan count, not a thread count — and a deployment's
//! size is a node count, not a thread count.
//!
//! `Cluster::run_plans` on the threaded drivers runs every plan as a lane
//! of one client shell on the calling thread. When each plan had an OS
//! thread of its own, a 32-plan call ran 30 threads more than a 2-plan one —
//! 30 more wake-up chains for the scheduler, and load that could only be
//! raised by oversubscribing the host. Servers likewise: nodes are hosted
//! by as many workers as the process has CPUs to run them on, so sixteen
//! nodes on a two-core host are two threads, not sixteen taking turns. Its
//! own test binary, one test: the thread count is a property of the whole
//! process.

#![cfg(target_os = "linux")]

mod common;

use std::sync::atomic::{AtomicBool, Ordering};

use common::make_plans;
use harmonia::prelude::*;

/// Threads in this process right now (`Threads:` of `/proc/self/status`).
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.and_then(|n| n.trim().parse().ok())
        .expect("status reports a thread count")
}

/// The most threads a watcher saw while `cluster` ran `plans` plans.
fn peak_threads(cluster: &mut dyn Cluster, plans: usize) -> usize {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut peak = threads();
            while !done.load(Ordering::Relaxed) {
                peak = peak.max(threads());
                std::thread::yield_now();
            }
            peak
        });
        let histories = cluster.run_plans(make_plans(plans, 6_400 / plans, 400, 0.3, 3));
        done.store(true, Ordering::Relaxed);
        assert!(histories.iter().flatten().all(|r| r.ok));
        watcher.join().expect("watcher panicked")
    })
}

/// Four groups of three replicas and their four pipelines are sixteen
/// nodes, up and serving — on at most as many threads as the process may
/// run in parallel.
fn sixteen_nodes_add_no_more_threads_than_cpus() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spec = DeploymentSpec::new().groups(4).replicas(3);
    for udp in [false, true] {
        let before = threads();
        let mut cluster: Box<dyn Cluster> = match udp {
            false => Box::new(spec.spawn_live()),
            true => Box::new(spec.spawn_udp()),
        };
        let driver = cluster.obs_snapshot().driver;
        let mut client = cluster.client();
        for key in spec.group_covering_keys() {
            client.set_bytes(key, "v".into()).expect("write");
        }
        drop(client);
        let added = threads() - before;
        println!("{driver}: 16 nodes on {added} threads, {cpus} CPUs");
        assert!(added <= cpus, "{driver}: {added} threads on {cpus} CPUs");
    }
}

#[test]
fn a_run_plans_call_adds_no_thread_per_plan() {
    sixteen_nodes_add_no_more_threads_than_cpus();
    let mut live = DeploymentSpec::new().spawn_live();
    let mut udp = DeploymentSpec::new().spawn_udp();
    // Both deployments idle in the background throughout: what varies is
    // the call.
    for cluster in [&mut live as &mut dyn Cluster, &mut udp] {
        let driver = cluster.obs_snapshot().driver;
        let idle = threads();
        let (two, thirty_two) = (peak_threads(cluster, 2), peak_threads(cluster, 32));
        println!("{driver}: {idle} threads idle, peak {two} with 2 plans, {thirty_two} with 32");
        assert_eq!(
            two, thirty_two,
            "{driver}: threads grew with the plan count"
        );
        // The watcher, and nothing else.
        assert_eq!(two, idle + 1, "{driver}: the load runs on the caller");
    }
}
