//! Failure orchestration — the §5.3 sequences, scripted onto a simulation.
//!
//! Switch replacement follows the paper exactly:
//!
//! 1. the failed switch stops forwarding (throughput collapses — Figure 10);
//! 2. the operator activates a replacement with a **fresh, larger switch
//!    id** and no soft state;
//! 3. the configuration service tells every replica to honour fast-path
//!    reads only from the new incarnation (the lease moves, monotonically);
//! 4. the new switch forwards everything through the normal protocol until
//!    the first WRITE-COMPLETION bearing its own id proves its dirty set and
//!    last-committed point current — then single-replica reads resume.
//!
//! Steps 1–2 are world mutations; 3 is control traffic; 4 is the
//! [`ConflictDetector`]'s gating, no orchestration needed.
//!
//! These helpers script the sequence at a *future virtual time* on a
//! running world (mid-workload fault injection). For the immediate form —
//! and for the live driver, where the same verbs are the only form — use
//! [`Cluster::kill_switch`](crate::deployment::Cluster::kill_switch) and
//! [`Cluster::replace_switch`](crate::deployment::Cluster::replace_switch).
//!
//! [`ConflictDetector`]: harmonia_switch::ConflictDetector

use harmonia_obs::Recorder;
use harmonia_sim::World;
use harmonia_types::{Duration, Instant, NodeId, ReplicaId, SwitchId};

use crate::client::{ClosedLoopClient, OpenLoopClient};
use crate::control::{self, Script};
use crate::deployment::DeploymentSpec;
use crate::msg::Msg;
use crate::worker::SimWorker;

/// Deliver a configuration-service script at the current instant.
pub(crate) fn inject(world: &mut World<Msg>, script: Script) {
    for (dst, msg) in script {
        world.inject(NodeId::Controller, dst, msg);
    }
}

/// §5.3 steps 2–3, now: bring a fresh switch of incarnation `new_id` up at
/// its own address, move every replica's lease to it, and re-point
/// `clients` at it (a harness affordance — in a deployment this is the same
/// L2 address). Returns the replacement's address.
pub(crate) fn activate_switch(
    world: &mut World<Msg>,
    spec: &DeploymentSpec,
    new_id: SwitchId,
    recorder: &Recorder,
    clients: &[NodeId],
) -> NodeId {
    let new_addr = NodeId::Switch(new_id);
    world.add_node(new_addr, Box::new(spec.sim_switch(new_id, recorder)));
    inject(world, control::lease_move(spec, new_id));
    for &c in clients {
        if let Some(cl) = world.actor_mut::<OpenLoopClient>(c) {
            cl.set_switch(new_addr);
        } else if let Some(cl) = world.actor_mut::<ClosedLoopClient>(c) {
            cl.set_switch(new_addr);
        }
    }
    new_addr
}

/// Take `failed` offline and tell the switch and the survivors, now.
pub(crate) fn remove_replica(
    world: &mut World<Msg>,
    spec: &DeploymentSpec,
    switch: NodeId,
    failed: ReplicaId,
) {
    world.set_down(NodeId::Replica(failed));
    inject(world, control::removal(spec, switch, failed));
}

/// Re-admit `replica` read-gated, now, and return the recovering host the
/// caller must install once the gate has had time to land. The newcomer
/// reports its catch-up to the incarnation `switch` names.
pub(crate) fn readmit_replica(
    world: &mut World<Msg>,
    spec: &DeploymentSpec,
    switch: NodeId,
    replica: ReplicaId,
    recorder: Recorder,
) -> SimWorker {
    let lease = match switch {
        NodeId::Switch(id) => id,
        _ => spec.initial_switch(),
    };
    let plan = control::readmission(spec, switch, lease, replica);
    inject(world, plan.script);
    spec.sim_replica(plan.config, Some(plan.peer), recorder)
}

/// Stop a switch at `at`: it retains no state and forwards nothing.
pub fn schedule_switch_failure(world: &mut World<Msg>, at: Instant, switch: NodeId) {
    world.schedule_control(at, move |w| {
        w.set_down(switch);
    });
}

/// Activate a replacement switch at `at` with incarnation `new_id`,
/// re-point every replica's lease and every listed client at it. Hosts
/// every group of the deployment (fresh dirty sets and sequence spaces).
pub fn schedule_switch_replacement(
    world: &mut World<Msg>,
    at: Instant,
    spec: &DeploymentSpec,
    new_id: SwitchId,
    clients: Vec<NodeId>,
) {
    let spec = spec.clone();
    world.schedule_control(at, move |w| {
        activate_switch(w, &spec, new_id, &Recorder::detached(), &clients);
    });
}

/// Remove a failed replica at `at`: take it offline, drop it from the
/// switch's forwarding table, and shrink its group's membership (§5.3,
/// "handling server failures"). Only the failed replica's group is touched.
pub fn schedule_replica_removal(
    world: &mut World<Msg>,
    at: Instant,
    spec: &DeploymentSpec,
    switch: NodeId,
    failed: ReplicaId,
) {
    let spec = spec.clone();
    world.schedule_control(at, move |w| remove_replica(w, &spec, switch, failed));
}

/// Restart a previously removed replica at `at` as a fresh, empty node:
/// the switch re-admits it **read-gated** and its group's canonical
/// membership is restored; shortly after (one settle interval, so the gate
/// is in place first) the newcomer is spawned in recovering mode and
/// catches up via snapshot + log state transfer from a live peer. The gate
/// lifts when the transfer's completion report proves the newcomer's
/// applied point has passed the gate-time floor.
pub fn schedule_replica_recovery(
    world: &mut World<Msg>,
    at: Instant,
    spec: &DeploymentSpec,
    switch: NodeId,
    replica: ReplicaId,
) {
    let spec = spec.clone();
    world.schedule_control(at, move |w| {
        let newcomer = readmit_replica(w, &spec, switch, replica, Recorder::detached());
        let settle = w.now() + Duration::from_micros(200);
        w.schedule_control(settle, move |w| {
            w.replace_node(NodeId::Replica(replica), Box::new(newcomer));
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{OpSpec, SourceFn};
    use crate::deployment::Cluster;
    use bytes::Bytes;
    use harmonia_switch::SwitchTotals;
    use harmonia_types::{ClientId, Duration};
    use rand::Rng;

    fn mixed_source() -> SourceFn {
        Box::new(|rng| {
            let key = Bytes::from(format!("key-{}", rng.gen_range(0..500u32)));
            if rng.gen_bool(0.05) {
                OpSpec::write(key, Bytes::from_static(b"v"))
            } else {
                OpSpec::read(key)
            }
        })
    }

    #[test]
    fn switch_failover_restores_fast_path_after_first_completion() {
        let spec = DeploymentSpec::new();
        let mut sim = spec.build_sim();
        let client = sim.add_open_loop_client(
            ClientId(1),
            100_000.0,
            Duration::from_millis(5),
            mixed_source(),
        );
        let t = |ms| Instant::ZERO + Duration::from_millis(ms);
        schedule_switch_failure(sim.world_mut(), t(10), spec.switch_addr());
        schedule_switch_replacement(sim.world_mut(), t(15), &spec, SwitchId(2), vec![client]);

        // Phase 1: normal operation.
        sim.run_until(t(10));
        let before = sim.obs_snapshot().clients.reads_done;
        assert!(before > 500);

        // Phase 2: outage — nothing completes (allow 1 ms for replies that
        // were already in flight toward clients when the switch died).
        sim.run_until(t(11));
        sim.reset_telemetry();
        sim.run_until(t(15));
        assert_eq!(sim.obs_snapshot().clients.reads_done, 0);

        // Phase 3: replacement active; traffic flows again and the new
        // incarnation's fast path turns on after the first completion.
        sim.reset_telemetry();
        sim.run_until(t(40));
        let after = sim.obs_snapshot().clients.reads_done;
        assert!(after > 1000, "after={after}");
        let host: &SimWorker = sim.world().actor(NodeId::Switch(SwitchId(2))).unwrap();
        let sw = host.switch().unwrap();
        assert!(sw.observe()[0].fast_path_enabled);
        assert!(SwitchTotals::of(&sw.observe()).stats.reads_fast_path > 0);
        assert_eq!(sw.incarnation(), SwitchId(2));
    }

    #[test]
    fn replica_removal_keeps_chain_serving() {
        let spec = DeploymentSpec::new();
        let mut sim = spec.build_sim();
        sim.add_open_loop_client(
            ClientId(1),
            50_000.0,
            Duration::from_millis(5),
            mixed_source(),
        );
        let t = |ms| Instant::ZERO + Duration::from_millis(ms);
        // Kill the tail (replica 2) at 10 ms.
        schedule_replica_removal(
            sim.world_mut(),
            t(10),
            &spec,
            spec.switch_addr(),
            ReplicaId(2),
        );
        sim.run_until(t(12));
        sim.reset_telemetry();
        sim.run_until(t(30));
        let clients = sim.obs_snapshot().clients;
        let (reads, writes) = (clients.reads_done, clients.writes_done);
        assert!(reads > 400, "reads={reads}");
        assert!(writes > 20, "writes={writes}");
    }

    #[test]
    fn replica_recovery_transfers_state_and_lifts_the_read_gate() {
        let spec = DeploymentSpec::new();
        let mut sim = spec.build_sim();
        sim.add_open_loop_client(
            ClientId(1),
            50_000.0,
            Duration::from_millis(5),
            mixed_source(),
        );
        let t = |ms| Instant::ZERO + Duration::from_millis(ms);
        // Kill the tail at 5 ms, bring it back at 12 ms.
        schedule_replica_removal(
            sim.world_mut(),
            t(5),
            &spec,
            spec.switch_addr(),
            ReplicaId(2),
        );
        schedule_replica_recovery(
            sim.world_mut(),
            t(12),
            &spec,
            spec.switch_addr(),
            ReplicaId(2),
        );
        sim.run_until(t(30));

        // The transfer finished, the newcomer holds real state, and the
        // switch lifted its read gate.
        let host: &SimWorker = sim
            .world()
            .actor(NodeId::Replica(ReplicaId(2)))
            .expect("replaced node exists");
        assert!(!host.is_recovering(), "transfer still in flight");
        assert!(
            host.replica().unwrap().applied_seq() > harmonia_types::SwitchSeq::ZERO,
            "recovered tail applied nothing"
        );
        assert!(
            !sim.switch().unwrap().is_gated(ReplicaId(2)),
            "gate never lifted"
        );

        // Service kept flowing after the recovery.
        sim.reset_telemetry();
        sim.run_until(t(50));
        let clients = sim.obs_snapshot().clients;
        let (reads, writes) = (clients.reads_done, clients.writes_done);
        assert!(reads > 400, "reads={reads}");
        assert!(writes > 20, "writes={writes}");
    }
}
