//! The §5.3 verbs in the simulator: one body per verb, which the
//! [`Cluster`] methods of [`SimCluster`] run now and [`SimCluster::at`]
//! runs at a future virtual time (mid-workload fault injection), recording
//! into the deployment's registry either way.
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
//! [`ConflictDetector`]'s gating, no orchestration needed. The replacement
//! comes up at the same client-facing address
//! ([`DeploymentSpec::switch_addr`]) and answers its incarnation's own id
//! too, which is where the replicas reply once the lease moved — the
//! threaded drivers' address model — so no client is ever re-pointed.
//!
//! [`Cluster`]: crate::deployment::Cluster
//! [`SimCluster`]: crate::deployment::SimCluster
//! [`SimCluster::at`]: crate::deployment::SimCluster::at
//! [`ConflictDetector`]: harmonia_switch::ConflictDetector

use harmonia_obs::Registry;
use harmonia_sim::World;
use harmonia_switch::Switch;
use harmonia_types::{NodeId, ReplicaId, SwitchId};

use crate::control::{self, Script};
use crate::deployment::DeploymentSpec;
use crate::msg::Msg;
use crate::worker::SimWorker;

/// One of the §5.3 verbs of [`Cluster`](crate::deployment::Cluster), as
/// data: what [`SimCluster::at`](crate::deployment::SimCluster::at)
/// schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// [`Cluster::kill_switch`](crate::deployment::Cluster::kill_switch).
    KillSwitch,
    /// [`Cluster::replace_switch`](crate::deployment::Cluster::replace_switch)
    /// with this incarnation.
    ReplaceSwitch(SwitchId),
    /// [`Cluster::kill_replica`](crate::deployment::Cluster::kill_replica).
    KillReplica(ReplicaId),
    /// [`Cluster::restart_replica`](crate::deployment::Cluster::restart_replica).
    RestartReplica(ReplicaId),
}

/// The pipelines of the switch at `spec`'s client-facing address, if it is
/// up.
pub(crate) fn live_switch<'w>(world: &'w World<Msg>, spec: &DeploymentSpec) -> Option<&'w Switch> {
    let at = spec.switch_addr();
    if world.is_down(at) {
        return None;
    }
    world.actor::<SimWorker>(at)?.switch()
}

/// Deliver a configuration-service script at the current instant.
fn inject(world: &mut World<Msg>, script: Script) {
    for (dst, msg) in script {
        world.inject(NodeId::Controller, dst, msg);
    }
}

/// Run `verb` on `world` now; a host the world brings up records into
/// `registry`. A restart returns the recovering newcomer and its address:
/// the caller installs it once the read gate has had time to land.
pub(crate) fn apply(
    world: &mut World<Msg>,
    spec: &DeploymentSpec,
    registry: &Registry,
    verb: Verb,
) -> Option<(NodeId, SimWorker)> {
    let switch = spec.switch_addr();
    match verb {
        Verb::KillSwitch => {
            world.set_down(switch);
            world.set_aliases(switch, &[]);
        }
        Verb::ReplaceSwitch(new_id) => {
            let host = spec.sim_switch(new_id, &registry.handle());
            world.add_node(switch, Box::new(host));
            world.set_aliases(switch, &[NodeId::Switch(new_id)]);
            inject(world, control::lease_move(spec, new_id));
        }
        Verb::KillReplica(r) => {
            world.set_down(NodeId::Replica(r));
            inject(world, control::removal(spec, switch, r));
        }
        Verb::RestartReplica(r) => {
            // The newcomer reports its catch-up to the lease holder.
            let lease = live_switch(world, spec).map_or(spec.initial_switch(), Switch::incarnation);
            let plan = control::readmission(spec, switch, lease, r);
            inject(world, plan.script);
            let newcomer = spec.sim_replica(plan.config, Some(plan.peer), registry.handle());
            return Some((NodeId::Replica(r), newcomer));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{OpSpec, SourceFn};
    use crate::deployment::Cluster;
    use bytes::Bytes;
    use harmonia_switch::SwitchTotals;
    use harmonia_types::{ClientId, Duration, Instant};
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
        let mut sim = DeploymentSpec::new().build_sim();
        sim.add_open_loop_client(
            ClientId(1),
            100_000.0,
            Duration::from_millis(5),
            mixed_source(),
        );
        let t = |ms| Instant::ZERO + Duration::from_millis(ms);
        sim.at(t(10), Verb::KillSwitch);
        sim.at(t(15), Verb::ReplaceSwitch(SwitchId(2)));

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
        let sw = sim.switch().unwrap();
        assert!(sw.observe()[0].fast_path_enabled);
        assert!(SwitchTotals::of(&sw.observe()).stats.reads_fast_path > 0);
        assert_eq!(sw.incarnation(), SwitchId(2));
    }

    #[test]
    fn replica_removal_keeps_chain_serving() {
        let mut sim = DeploymentSpec::new().build_sim();
        sim.add_open_loop_client(
            ClientId(1),
            50_000.0,
            Duration::from_millis(5),
            mixed_source(),
        );
        let t = |ms| Instant::ZERO + Duration::from_millis(ms);
        // Kill the tail (replica 2) at 10 ms.
        sim.at(t(10), Verb::KillReplica(ReplicaId(2)));
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
        let mut sim = DeploymentSpec::new().build_sim();
        sim.add_open_loop_client(
            ClientId(1),
            50_000.0,
            Duration::from_millis(5),
            mixed_source(),
        );
        let t = |ms| Instant::ZERO + Duration::from_millis(ms);
        // Kill the tail at 5 ms, bring it back at 12 ms.
        sim.at(t(5), Verb::KillReplica(ReplicaId(2)));
        sim.at(t(12), Verb::RestartReplica(ReplicaId(2)));
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
