//! Correctness through failures: switch replacement and server removal must
//! preserve linearizability for in-flight clients (§5.3, Appendix A's
//! "switch failure" and "server failure" cases).

mod common;

use common::{assert_linearizable, Scenario};
use harmonia::prelude::*;

#[test]
fn history_through_switch_replacement_is_linearizable() {
    let spec = DeploymentSpec::new();
    let scenario = Scenario {
        deployment: spec.clone(),
        clients: 4,
        ops_per_client: 60,
        keys: 10,
        write_ratio: 0.3,
        seed: 101,
    };
    let outcome = scenario.run_with(|w| {
        // Kill the switch mid-workload and replace it with incarnation 2.
        let t = |ms| Instant::ZERO + Duration::from_millis(ms);
        schedule_switch_failure(w, t(1), spec.switch_addr());
        let clients: Vec<NodeId> = (0..4).map(|c| NodeId::Client(ClientId(10 + c))).collect();
        schedule_switch_replacement(w, t(4), &spec, SwitchId(2), clients);
    });
    // Clients that lost requests during the outage retried through the
    // replacement; whatever completed must be linearizable.
    assert_linearizable(&outcome.histories, "switch replacement");
    // The replacement must actually have taken over fast-path duty.
    let sw = outcome
        .world
        .actor::<SimWorker>(NodeId::Switch(SwitchId(2)))
        .expect("replacement switch")
        .switch()
        .expect("its pipelines");
    assert!(sw.observe()[0].fast_path_enabled);
}

#[test]
fn stale_switch_fast_path_reads_are_refused_after_lease_moves() {
    // Manual §5.3 scenario: a fast-path read stamped by switch 1 arrives at
    // a replica after the lease moved to switch 2. The replica must route
    // it through the normal protocol instead of answering locally.
    use harmonia::replication::{Effects, ProtocolMsg, ReplicaControlMsg, Server};
    use harmonia::replication::{GroupConfig as RGroupConfig, Handled, ProtocolKind};
    use harmonia::types::{ClientRequest, PacketBody, ReadMode, RequestId, SwitchSeq};

    let mut replica = Server::new(RGroupConfig::new(ProtocolKind::Chain, 3, 1, true), None);
    // Lease moves to switch 2.
    let mut fx = Effects::new();
    let to_2 = ReplicaControlMsg::SetActiveSwitch(SwitchId(2));
    let moved = replica.on_packet(PacketBody::Protocol(ProtocolMsg::Control(to_2)), &mut fx);
    assert_eq!(moved, Handled::Protocol);
    // Stale fast-path read from switch 1.
    let mut read = ClientRequest::read(ClientId(1), RequestId(1), &b"k"[..]);
    read.read_mode = ReadMode::FastPath {
        switch: SwitchId(1),
    };
    read.last_committed = Some(SwitchSeq::new(SwitchId(1), 100));
    let mut fx = Effects::new();
    replica.on_packet(PacketBody::Request(read), &mut fx);
    assert!(
        matches!(
            fx.out[0],
            (NodeId::Replica(ReplicaId(2)), PacketBody::Request(_))
        ),
        "stale-switch read must go to the tail, got {:?}",
        fx.out
    );
}

#[test]
fn history_through_tail_removal_is_linearizable() {
    let spec = DeploymentSpec::new();
    let scenario = Scenario {
        deployment: spec.clone(),
        clients: 3,
        ops_per_client: 60,
        keys: 6,
        write_ratio: 0.3,
        seed: 103,
    };
    let outcome = scenario.run_with(|w| {
        schedule_replica_removal(
            w,
            Instant::ZERO + Duration::from_millis(1),
            &spec,
            spec.switch_addr(),
            ReplicaId(2),
        );
    });
    assert_linearizable(&outcome.histories, "tail removal");
}

#[test]
fn history_through_head_removal_is_linearizable() {
    let spec = DeploymentSpec::new();
    let scenario = Scenario {
        deployment: spec.clone(),
        clients: 3,
        ops_per_client: 60,
        keys: 6,
        write_ratio: 0.3,
        seed: 104,
    };
    let outcome = scenario.run_with(|w| {
        schedule_replica_removal(
            w,
            Instant::ZERO + Duration::from_millis(1),
            &spec,
            spec.switch_addr(),
            ReplicaId(0),
        );
    });
    assert_linearizable(&outcome.histories, "head removal");
}

#[test]
fn double_failover_keeps_lease_monotone() {
    // Switch 1 -> 2 -> 3; after each replacement the system must recover
    // and serve fast-path reads from the newest incarnation only.
    let spec = DeploymentSpec::new();
    let scenario = Scenario {
        deployment: spec.clone(),
        clients: 3,
        ops_per_client: 200,
        keys: 16,
        write_ratio: 0.25,
        seed: 105,
    };
    let outcome = scenario.run_with(|w| {
        let t = |ms| Instant::ZERO + Duration::from_millis(ms);
        let clients: Vec<NodeId> = (0..3).map(|c| NodeId::Client(ClientId(10 + c))).collect();
        schedule_switch_failure(w, t(1), spec.switch_addr());
        schedule_switch_replacement(w, t(3), &spec, SwitchId(2), clients.clone());
        schedule_switch_failure(w, t(6), NodeId::Switch(SwitchId(2)));
        schedule_switch_replacement(w, t(9), &spec, SwitchId(3), clients);
    });
    assert_linearizable(&outcome.histories, "double failover");
    let sw = outcome
        .world
        .actor::<SimWorker>(NodeId::Switch(SwitchId(3)))
        .expect("third switch")
        .switch()
        .expect("its pipelines");
    assert_eq!(sw.incarnation(), SwitchId(3));
    assert!(sw.observe()[0].fast_path_enabled);
}
