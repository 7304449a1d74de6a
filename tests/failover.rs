//! Correctness through failures: switch replacement and server removal must
//! preserve linearizability for in-flight clients (§5.3, Appendix A's
//! "switch failure" and "server failure" cases).

mod common;

use bytes::Bytes;
use common::{assert_linearizable, Scenario};
use harmonia::prelude::*;
use rand::Rng;

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
    let outcome = scenario.run_with(|sim| {
        // Kill the switch mid-workload and replace it with incarnation 2.
        let t = |ms| Instant::ZERO + Duration::from_millis(ms);
        sim.at(t(1), Verb::KillSwitch);
        sim.at(t(4), Verb::ReplaceSwitch(SwitchId(2)));
    });
    // Clients that lost requests during the outage retried through the
    // replacement, at the address they always had; whatever completed must
    // be linearizable.
    assert_linearizable(&outcome.histories, "switch replacement");
    // The replacement must actually have taken over fast-path duty.
    let sw = outcome
        .world
        .actor::<SimWorker>(spec.switch_addr())
        .expect("replacement switch")
        .switch()
        .expect("its pipelines");
    assert_eq!(sw.incarnation(), SwitchId(2));
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
    let scenario = Scenario {
        deployment: DeploymentSpec::new(),
        clients: 3,
        ops_per_client: 60,
        keys: 6,
        write_ratio: 0.3,
        seed: 103,
    };
    let outcome = scenario.run_with(|sim| {
        let at = Instant::ZERO + Duration::from_millis(1);
        sim.at(at, Verb::KillReplica(ReplicaId(2)));
    });
    assert_linearizable(&outcome.histories, "tail removal");
}

#[test]
fn history_through_head_removal_is_linearizable() {
    let scenario = Scenario {
        deployment: DeploymentSpec::new(),
        clients: 3,
        ops_per_client: 60,
        keys: 6,
        write_ratio: 0.3,
        seed: 104,
    };
    let outcome = scenario.run_with(|sim| {
        let at = Instant::ZERO + Duration::from_millis(1);
        sim.at(at, Verb::KillReplica(ReplicaId(0)));
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
    let outcome = scenario.run_with(|sim| {
        let t = |ms| Instant::ZERO + Duration::from_millis(ms);
        sim.at(t(1), Verb::KillSwitch);
        sim.at(t(3), Verb::ReplaceSwitch(SwitchId(2)));
        sim.at(t(6), Verb::KillSwitch);
        sim.at(t(9), Verb::ReplaceSwitch(SwitchId(3)));
    });
    assert_linearizable(&outcome.histories, "double failover");
    // The third switch answers the stable address and its own id; the
    // second's id reaches nobody.
    let world = &outcome.world;
    let host = world.actor::<SimWorker>(spec.switch_addr());
    let sw = host.and_then(SimWorker::switch).expect("third switch");
    assert_eq!(sw.incarnation(), SwitchId(3));
    assert!(sw.observe()[0].fast_path_enabled);
    let own = world.actor::<SimWorker>(NodeId::Switch(SwitchId(3)));
    assert!(own.is_some_and(|h| std::ptr::eq(h, host.unwrap())));
    assert!(world
        .actor::<SimWorker>(NodeId::Switch(SwitchId(2)))
        .is_none());
}

/// Scheduled verbs act on the deployment the snapshot reads: a switch
/// failure and replacement, then a replica removal and recovery, each run
/// through `SimCluster::at` under open-loop load. After each step the live
/// switch is incarnation 2, the snapshot's switch section counts its
/// verdicts with its fast path armed, and the trace holds its verdicts
/// since the step; once the recovered replica is installed, the trace holds
/// it executing requests.
#[test]
fn scheduled_verbs_show_in_the_snapshot_and_the_trace() {
    let mut sim = DeploymentSpec::new().build_sim();
    let source: SourceFn = Box::new(|rng| {
        let key = Bytes::from(format!("key-{}", rng.gen_range(0..500u32)));
        if rng.gen_bool(0.05) {
            OpSpec::write(key, Bytes::from_static(b"v"))
        } else {
            OpSpec::read(key)
        }
    });
    sim.add_open_loop_client(ClientId(1), 100_000.0, Duration::from_millis(5), source);
    let t = |us| Instant::ZERO + Duration::from_micros(us);
    let (replaced, removed, restarted) = (t(4_000), t(8_000), t(12_000));
    sim.at(t(1_000), Verb::KillSwitch);
    sim.at(replaced, Verb::ReplaceSwitch(SwitchId(2)));
    sim.at(removed, Verb::KillReplica(ReplicaId(2)));
    sim.at(restarted, Verb::RestartReplica(ReplicaId(2)));

    let is_verdict = |stage| {
        matches!(
            stage,
            TraceStage::SwitchFastPathRead
                | TraceStage::SwitchNormalRead
                | TraceStage::SwitchWriteForward
                | TraceStage::SwitchWriteDrop
        )
    };
    let mut carried = 0;
    for (step, until) in [
        (replaced, t(7_000)),
        (removed, t(11_000)),
        (restarted, t(16_000)),
    ] {
        sim.run_until(until);
        let at = until.nanos() / 1_000;
        assert_eq!(sim.switch_incarnation(), Some(SwitchId(2)), "{at} µs");
        let switch = sim.obs_snapshot().switch;
        assert_eq!(switch.fast_path_groups, 1, "{at} µs: {switch:?}");
        assert!(switch.reads_fast_path > 0, "{at} µs: {switch:?}");
        let now = switch.reads_fast_path + switch.reads_normal + switch.writes_forwarded;
        assert!(
            now > carried,
            "{at} µs: the replacement carried nothing new"
        );
        carried = now;
        let events = sim.trace_events();
        let verdicts = events.iter().filter(|e| e.at > step && is_verdict(e.stage));
        assert!(verdicts.count() > 0, "{at} µs: no switch verdict traced");
    }
    let installed = restarted + Duration::from_micros(200);
    let executed = sim.trace_events().into_iter().filter(|e| {
        e.node == NodeId::Replica(ReplicaId(2))
            && e.stage == TraceStage::ReplicaExecute
            && e.at > installed
    });
    assert!(
        executed.count() > 0,
        "the recovered replica executed nothing"
    );
}
