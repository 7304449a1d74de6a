//! Shared helpers for the integration tests: one scenario runner for every
//! deployment shape (unsharded is `groups(1)`), driving closed-loop clients
//! over a simulated cluster, and the assertion that puts what they record
//! through the linearizability checker.

// Each integration-test binary compiles this module independently and uses
// a different subset of it; silence per-binary dead-code noise.
#![allow(dead_code)]

use bytes::Bytes;
use harmonia::prelude::*;
use harmonia::verify::{Checked, Violation};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub use harmonia::core::client::OpSpec as Op;

/// A multi-client closed-loop workload description over any deployment
/// shape. With `deployment.groups > 1`, clients address the spine switch
/// and keys spread across every group — same runner, same checker.
pub struct Scenario {
    pub deployment: DeploymentSpec,
    pub clients: usize,
    pub ops_per_client: usize,
    pub keys: usize,
    pub write_ratio: f64,
    pub seed: u64,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            deployment: DeploymentSpec::new(),
            clients: 4,
            ops_per_client: 60,
            keys: 8,
            write_ratio: 0.4,
            seed: 1,
        }
    }
}

/// What a scenario produced.
pub struct Outcome {
    /// Each client's history as `run_plans_with` returned it, in plan order.
    pub histories: Vec<Vec<RecordedOp>>,
    /// The post-run world, for state inspection.
    pub world: World<Msg>,
}

/// Build the per-client plans a scenario describes (client `c` draws from
/// seed `seed * 1000 + c`). Shared with the driver-agnostic trait tests.
pub fn make_plans(
    clients: usize,
    ops_per_client: usize,
    keys: usize,
    write_ratio: f64,
    seed: u64,
) -> Vec<Vec<Op>> {
    (0..clients)
        .map(|c| {
            let mut rng = SmallRng::seed_from_u64(seed * 1000 + c as u64);
            (0..ops_per_client)
                .map(|i| {
                    let key = Bytes::from(format!("key-{}", rng.gen_range(0..keys)));
                    if rng.gen_bool(write_ratio) {
                        Op::write(key, Bytes::from(format!("c{c}-v{i}")))
                    } else {
                        Op::read(key)
                    }
                })
                .collect()
        })
        .collect()
}

impl Scenario {
    pub fn run(&self) -> Outcome {
        self.run_with(|_| {})
    }

    /// Run with a hook that can adjust the deployment before time advances:
    /// shape the network through `world_mut()`, schedule §5.3 verbs with
    /// `at`. The switch and replicas exist when the hook runs; the
    /// closed-loop clients do NOT yet (they are added by `run_plans_with`
    /// afterwards) — shape their links by `NodeId`, which needs no node,
    /// rather than mutating client actors.
    pub fn run_with(&self, prepare: impl FnOnce(&mut SimCluster)) -> Outcome {
        self.run_observed(prepare).0
    }

    /// [`run_with`](Self::run_with), and the run's obs snapshot.
    pub fn run_observed(&self, prepare: impl FnOnce(&mut SimCluster)) -> (Outcome, ObsSnapshot) {
        let mut sim = self.deployment.build_sim();
        prepare(&mut sim);
        let plans = make_plans(
            self.clients,
            self.ops_per_client,
            self.keys,
            self.write_ratio,
            self.seed,
        );
        let histories = sim.run_plans_with(plans, Duration::from_millis(3));
        let snapshot = sim.obs_snapshot();
        let outcome = Outcome {
            histories,
            world: sim.into_world(),
        };
        (outcome, snapshot)
    }
}

/// Fail `cluster`'s switch once it is carrying load and activate
/// `replacement` 30 ms later. The load must be long enough to outlast the
/// few hundred packets this waits for; what it had in flight at the kill
/// stalls until its attempt deadline, so the replacement lands mid-call.
pub fn replace_switch_mid_load(cluster: &mut dyn Cluster, replacement: SwitchId) {
    let carried =
        |s: harmonia::obs::SwitchObs| s.reads_fast_path + s.reads_normal + s.writes_forwarded;
    while carried(cluster.obs_snapshot().switch) < 200 {
        std::thread::yield_now();
    }
    cluster.kill_switch();
    std::thread::sleep(std::time::Duration::from_millis(30));
    cluster.replace_switch(replacement);
}

/// Assert the clients' recorded histories are linearizable, with context on
/// failure (dumps the offending key's timeline for debugging). Keys an
/// abandoned operation touched are left out; the returned tally says how
/// many operations were checked and how many were abandoned.
pub fn assert_linearizable(histories: &[Vec<RecordedOp>], context: &str) -> Checked {
    assert_linearizable_traced(histories, &[], context)
}

/// [`assert_linearizable`], with the deployment's packet-path trace
/// attached: when the Wing–Gong checker names a non-linearizable key, the
/// failure report carries every recorded trace hop of every request that
/// touched that key (from [`Cluster::trace_events`]) next to the op-level
/// history — the exact packet schedule that produced the violation.
pub fn assert_linearizable_traced(
    histories: &[Vec<RecordedOp>],
    traces: &[harmonia::obs::TraceEvent],
    context: &str,
) -> Checked {
    let checked = Checker::new().check(histories).unwrap_or_else(|v| {
        if let Violation::NotLinearizable { key } = &v {
            let mut ops: Vec<(usize, &RecordedOp)> = (0..)
                .zip(histories)
                .flat_map(|(c, h)| h.iter().map(move |r| (c, r)))
                .filter(|(_, r)| &r.key == key)
                .collect();
            ops.sort_by_key(|(_, r)| r.invoked);
            eprintln!("--- history for {key:?} ---");
            for (c, op) in ops {
                let seen = match op.kind {
                    OpKind::Write => &op.value,
                    OpKind::Read => &op.result,
                };
                eprintln!(
                    "client {c} [{} .. {}] {:?} {seen:?}",
                    op.invoked.nanos(),
                    op.completed.nanos(),
                    op.kind
                );
            }
            if !traces.is_empty() {
                eprintln!("--- packet-path trace for {key:?} ---");
                eprint!("{}", harmonia::obs::dump_for_key(traces, key));
            }
        }
        panic!("{context}: {v}");
    });
    assert!(
        checked.checked > 0,
        "{context}: empty history proves nothing"
    );
    checked
}

/// After quiescence, every key's owning group must agree on its value
/// across that group's replicas — and in sharded deployments, replicas of
/// *other* groups must never have seen the key at all. With `groups(1)`
/// this is the classic all-replicas-converge check.
pub fn assert_converged(world: &World<Msg>, spec: &DeploymentSpec, keys: usize) {
    let map = spec.shard_map();
    let replica = |r| {
        let host: &SimWorker = world
            .actor(NodeId::Replica(r))
            .expect("group replica exists");
        host.replica().expect("a storage server")
    };
    for k in 0..keys {
        let key = format!("key-{k}");
        let group = map.shard_of_key(key.as_bytes()) as usize;
        let mut values = Vec::new();
        for r in spec.group_members(group) {
            values.push(replica(r).local_value(key.as_bytes()));
        }
        let first = &values[0];
        assert!(
            values.iter().all(|v| v == first),
            "group {group} diverges on {key}: {values:?}"
        );
        // Shard isolation: no other group ever applied this key.
        for g in (0..spec.groups).filter(|&g| g != group) {
            for r in spec.group_members(g) {
                assert_eq!(
                    replica(r).local_value(key.as_bytes()),
                    None,
                    "replica {r:?} of group {g} holds {key}, owned by group {group}"
                );
            }
        }
    }
}
