//! End-to-end linearizability: every protocol, with and without Harmonia,
//! under clean and adversarial networks, checked with the Wing–Gong
//! checker. This is the executable form of the paper's Theorem 1.

mod common;

use common::{assert_converged, assert_linearizable, Scenario};
use harmonia::prelude::*;
use harmonia::switch::SwitchTotals;
use harmonia::verify::{Checked, Violation};

fn cluster(protocol: ProtocolKind, harmonia: bool) -> DeploymentSpec {
    DeploymentSpec::new()
        .protocol(protocol)
        .harmonia(harmonia)
        .replicas(3)
}

fn check(protocol: ProtocolKind, harmonia: bool, seed: u64, context: &str) {
    let scenario = Scenario {
        deployment: cluster(protocol, harmonia),
        seed,
        ..Scenario::default()
    };
    let outcome = scenario.run();
    let checked = assert_linearizable(&outcome.histories, context);
    assert_eq!(checked.abandoned, 0, "{context}: ops gave up");
    assert_converged(&outcome.world, &scenario.deployment, scenario.keys);
}

#[test]
fn pb_baseline_is_linearizable() {
    check(ProtocolKind::PrimaryBackup, false, 11, "PB baseline");
}

#[test]
fn pb_harmonia_is_linearizable() {
    check(ProtocolKind::PrimaryBackup, true, 12, "Harmonia(PB)");
}

#[test]
fn chain_baseline_is_linearizable() {
    check(ProtocolKind::Chain, false, 13, "CR baseline");
}

#[test]
fn chain_harmonia_is_linearizable() {
    check(ProtocolKind::Chain, true, 14, "Harmonia(CR)");
}

#[test]
fn craq_is_linearizable() {
    check(ProtocolKind::Craq, false, 15, "CRAQ");
}

#[test]
fn vr_baseline_is_linearizable() {
    check(ProtocolKind::Vr, false, 16, "VR baseline");
}

#[test]
fn vr_harmonia_is_linearizable() {
    check(ProtocolKind::Vr, true, 17, "Harmonia(VR)");
}

#[test]
fn nopaxos_baseline_is_linearizable() {
    check(ProtocolKind::Nopaxos, false, 18, "NOPaxos baseline");
}

#[test]
fn nopaxos_harmonia_is_linearizable() {
    check(ProtocolKind::Nopaxos, true, 19, "Harmonia(NOPaxos)");
}

/// Two clients, 150 operations each, on two keys: 138 and 162 operations
/// per key, more than one Wing–Gong search takes (64), in busy runs of at
/// most 31 — so the checker cuts each key at quiescent points.
fn long_key_histories() -> Vec<Vec<RecordedOp>> {
    let scenario = Scenario {
        deployment: cluster(ProtocolKind::Chain, true),
        clients: 2,
        ops_per_client: 150,
        keys: 2,
        seed: 37,
        ..Scenario::default()
    };
    let histories = scenario.run().histories;
    let on_key_0 = histories
        .iter()
        .flatten()
        .filter(|r| &r.key[..] == b"key-0");
    assert_eq!(
        on_key_0.count(),
        138,
        "the scenario no longer overflows a search"
    );
    histories
}

#[test]
fn long_per_key_histories_are_checked_in_windows() {
    let checked = assert_linearizable(&long_key_histories(), "Harmonia(CR), 2 keys");
    assert_eq!(
        checked,
        Checked {
            checked: 300,
            abandoned: 0
        }
    );
}

/// The same history with its last read rewritten to a value that another
/// write had overwritten, start to end, before the read began.
#[test]
fn a_stale_late_read_in_a_long_history_is_caught() {
    let mut histories = long_key_histories();
    let ops = || histories.iter().flatten();
    let last_read = ops()
        .filter(|r| r.kind == OpKind::Read)
        .max_by_key(|r| r.invoked)
        .unwrap()
        .clone();
    let writes = || ops().filter(|w| w.kind == OpKind::Write && w.key == last_read.key);
    let overwritten = writes()
        .find(|w| {
            writes().any(|later| w.completed < later.invoked && later.completed < last_read.invoked)
        })
        .unwrap()
        .value
        .clone();
    let read = histories
        .iter_mut()
        .flatten()
        .find(|r| **r == last_read)
        .unwrap();
    read.result = overwritten;
    assert_eq!(
        Checker::new().check(&histories),
        Err(Violation::NotLinearizable { key: last_read.key })
    );
}

/// §5.2: consistency must hold "even when the network can arbitrarily delay
/// or reorder packets". The fault-injection sweep below runs every
/// protocol, with and without Harmonia, under three adversaries — lossy,
/// reordering, and loss+reordering — and feeds each recorded history
/// through `harmonia-verify`'s Wing–Gong linearizability checker.
///
/// One assumption is preserved from the paper's deployment model:
/// replica↔replica channels are reliable FIFO (they are TCP connections in
/// any real chain/PB deployment, and the §5.2 lazy-scrub argument — "writes
/// are processed in order" — depends on it: losing a chain DOWN message
/// while later writes survive would leave an applied-but-never-committable
/// write that the dirty set no longer tracks). Client↔switch and
/// switch↔replica paths get the adversary. NOPaxos additionally keeps its
/// own documented envelope: its gap recovery covers follower-side multicast
/// loss (the leader's copy must arrive; see the scope paragraph of the
/// `harmonia_replication::nopaxos` module docs) and OUM assumes the
/// sequencer→replica fan-out is order-preserving, so its losses go on the
/// switch→follower links and its reordering on the client↔switch path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Fault {
    /// Drops and duplicates, order preserved.
    Lossy,
    /// Jitter and explicit reordering, nothing lost.
    Reordering,
    /// Both at once (the original adversarial configuration).
    LossAndReorder,
}

const ALL_FAULTS: [Fault; 3] = [Fault::Lossy, Fault::Reordering, Fault::LossAndReorder];

impl Fault {
    fn link(self) -> LinkConfig {
        let ideal = LinkConfig::ideal(Duration::from_micros(5));
        match self {
            Fault::Lossy => LinkConfig {
                drop_prob: 0.02,
                duplicate_prob: 0.01,
                ..ideal
            },
            Fault::Reordering => LinkConfig {
                jitter: Duration::from_micros(40),
                reorder_prob: 0.05,
                reorder_delay: Duration::from_micros(100),
                ..ideal
            },
            Fault::LossAndReorder => LinkConfig {
                jitter: Duration::from_micros(40),
                drop_prob: 0.01,
                duplicate_prob: 0.01,
                reorder_prob: 0.05,
                reorder_delay: Duration::from_micros(100),
                ..ideal
            },
        }
    }

    fn loses(self) -> bool {
        matches!(self, Fault::Lossy | Fault::LossAndReorder)
    }

    fn reorders(self) -> bool {
        matches!(self, Fault::Reordering | Fault::LossAndReorder)
    }
}

/// Restore reliable FIFO channels between replicas (both directions).
fn reliable_intra_replica_links(world: &mut World<Msg>, replicas: usize) {
    let ideal = LinkConfig::ideal(Duration::from_micros(5));
    for a in 0..replicas as u32 {
        for b in 0..replicas as u32 {
            if a != b {
                world.network_mut().set_link(
                    NodeId::Replica(ReplicaId(a)),
                    NodeId::Replica(ReplicaId(b)),
                    ideal,
                );
            }
        }
    }
}

fn check_fault(protocol: ProtocolKind, harmonia: bool, fault: Fault, seed: u64) {
    let context = format!("{protocol:?} harmonia={harmonia} under {fault:?}");
    let mut spec = cluster(protocol, harmonia).seed(seed);
    let nopaxos = protocol == ProtocolKind::Nopaxos;
    if !nopaxos {
        spec.link = fault.link();
    }
    let replicas = spec.replicas;
    let clients = 3;
    let scenario = Scenario {
        deployment: spec.clone(),
        clients,
        ops_per_client: 50,
        keys: 6,
        write_ratio: 0.35,
        seed,
    };
    let outcome = scenario.run_with(|sim| {
        let w = sim.world_mut();
        if nopaxos {
            // Respect the OUM envelope: losses hit the switch→follower
            // multicast legs; reordering hits the client↔switch path.
            if fault.loses() {
                for follower in [1u32, 2] {
                    w.network_mut().set_link(
                        spec.switch_addr(),
                        NodeId::Replica(ReplicaId(follower)),
                        LinkConfig {
                            drop_prob: 0.05,
                            ..LinkConfig::ideal(Duration::from_micros(5))
                        },
                    );
                }
            }
            if fault.reorders() {
                let reorder = LinkConfig {
                    jitter: Duration::from_micros(40),
                    reorder_prob: 0.05,
                    reorder_delay: Duration::from_micros(100),
                    ..LinkConfig::ideal(Duration::from_micros(5))
                };
                for c in 0..clients as u32 {
                    let client = NodeId::Client(ClientId(10 + c));
                    w.network_mut()
                        .set_link(client, spec.switch_addr(), reorder);
                    w.network_mut()
                        .set_link(spec.switch_addr(), client, reorder);
                }
            }
        } else {
            reliable_intra_replica_links(w, replicas);
        }
    });
    assert_linearizable(&outcome.histories, &context);
}

/// One sweep entry per protocol × mode; each runs all three fault profiles.
fn fault_sweep(protocol: ProtocolKind, harmonia: bool, base_seed: u64) {
    for (i, fault) in ALL_FAULTS.into_iter().enumerate() {
        check_fault(protocol, harmonia, fault, base_seed + i as u64);
    }
}

#[test]
fn fault_sweep_pb_baseline() {
    fault_sweep(ProtocolKind::PrimaryBackup, false, 300);
}

#[test]
fn fault_sweep_pb_harmonia() {
    fault_sweep(ProtocolKind::PrimaryBackup, true, 310);
}

#[test]
fn fault_sweep_chain_baseline() {
    fault_sweep(ProtocolKind::Chain, false, 320);
}

#[test]
fn fault_sweep_chain_harmonia() {
    fault_sweep(ProtocolKind::Chain, true, 330);
}

#[test]
fn fault_sweep_craq() {
    fault_sweep(ProtocolKind::Craq, false, 340);
}

#[test]
fn fault_sweep_vr_baseline() {
    fault_sweep(ProtocolKind::Vr, false, 350);
}

#[test]
fn fault_sweep_vr_harmonia() {
    fault_sweep(ProtocolKind::Vr, true, 360);
}

#[test]
fn fault_sweep_nopaxos_baseline() {
    fault_sweep(ProtocolKind::Nopaxos, false, 370);
}

#[test]
fn fault_sweep_nopaxos_harmonia() {
    fault_sweep(ProtocolKind::Nopaxos, true, 380);
}

/// Replica churn as its own adversary dimension (protocol × churn × loss):
/// mid-workload, the third replica fail-stops (its group shrinks to the
/// survivors) and later rejoins — read-gated, catching up via snapshot +
/// log state transfer from a live peer — while closed-loop clients keep
/// issuing operations. Optionally the Lossy profile runs underneath at the
/// same time. Every per-key history goes through the Wing–Gong checker,
/// and the rejoined replica must actually have finished its transfer.
/// NOPaxos keeps its documented loss envelope (switch→follower legs only).
fn check_churn(protocol: ProtocolKind, harmonia: bool, loss: Option<Fault>, seed: u64) {
    let context = format!("{protocol:?} harmonia={harmonia} churn loss={loss:?}");
    let mut spec = cluster(protocol, harmonia).seed(seed);
    let nopaxos = protocol == ProtocolKind::Nopaxos;
    if let Some(fault) = loss {
        if !nopaxos {
            spec.link = fault.link();
        }
    }
    let replicas = spec.replicas;
    let scenario = Scenario {
        deployment: spec.clone(),
        clients: 3,
        ops_per_client: 60,
        keys: 6,
        write_ratio: 0.35,
        seed,
    };
    let outcome = scenario.run_with(|sim| {
        let w = sim.world_mut();
        reliable_intra_replica_links(w, replicas);
        if nopaxos && loss.is_some() {
            // Respect the OUM envelope: losses only on the
            // switch→follower multicast legs.
            for follower in [1u32, 2] {
                w.network_mut().set_link(
                    spec.switch_addr(),
                    NodeId::Replica(ReplicaId(follower)),
                    LinkConfig {
                        drop_prob: 0.05,
                        ..LinkConfig::ideal(Duration::from_micros(5))
                    },
                );
            }
        }
        let t = |ms| Instant::ZERO + Duration::from_millis(ms);
        sim.at(t(3), Verb::KillReplica(ReplicaId(2)));
        sim.at(t(8), Verb::RestartReplica(ReplicaId(2)));
    });
    assert_linearizable(&outcome.histories, &context);
    // The newcomer really recovered: its transfer finished and it holds
    // transferred state, not an empty store.
    let host: &SimWorker = outcome
        .world
        .actor(NodeId::Replica(ReplicaId(2)))
        .expect("rejoined replica exists");
    assert!(!host.is_recovering(), "{context}: transfer still in flight");
    assert!(
        host.replica().unwrap().applied_seq() > SwitchSeq::ZERO,
        "{context}: rejoined replica applied nothing"
    );
}

/// One churn entry per protocol × mode; each runs clean and under loss.
fn churn_sweep(protocol: ProtocolKind, harmonia: bool, base_seed: u64) {
    for (i, loss) in [None, Some(Fault::Lossy)].into_iter().enumerate() {
        check_churn(protocol, harmonia, loss, base_seed + i as u64);
    }
}

#[test]
fn churn_sweep_pb_baseline() {
    churn_sweep(ProtocolKind::PrimaryBackup, false, 500);
}

#[test]
fn churn_sweep_pb_harmonia() {
    churn_sweep(ProtocolKind::PrimaryBackup, true, 510);
}

#[test]
fn churn_sweep_chain_baseline() {
    churn_sweep(ProtocolKind::Chain, false, 520);
}

#[test]
fn churn_sweep_chain_harmonia() {
    churn_sweep(ProtocolKind::Chain, true, 530);
}

#[test]
fn churn_sweep_craq() {
    churn_sweep(ProtocolKind::Craq, false, 540);
}

#[test]
fn churn_sweep_vr_baseline() {
    churn_sweep(ProtocolKind::Vr, false, 550);
}

#[test]
fn churn_sweep_vr_harmonia() {
    churn_sweep(ProtocolKind::Vr, true, 560);
}

#[test]
fn churn_sweep_nopaxos_baseline() {
    churn_sweep(ProtocolKind::Nopaxos, false, 570);
}

#[test]
fn churn_sweep_nopaxos_harmonia() {
    churn_sweep(ProtocolKind::Nopaxos, true, 580);
}

/// §5.2's other race: the control-plane stale-entry sweep fires while
/// writes are still propagating. Chain hops are slowed to 300 µs so every
/// write stays pending across multiple 50 µs sweep periods, and the
/// switch→replica legs reorder so some stamped writes arrive out of order
/// at the head, get rejected, and leave stray dirty entries for the sweep
/// to reclaim. The sweep must collect only those strays — never a live
/// pending write — or a fast-path read would reach a replica holding
/// uncommitted data, which the checker would flag.
#[test]
fn sweep_eviction_races_slow_write_completion() {
    let spec = cluster(ProtocolKind::Chain, true)
        .seed(401)
        .sweep_interval(Some(Duration::from_micros(50)));
    let scenario = Scenario {
        deployment: spec.clone(),
        clients: 4,
        ops_per_client: 60,
        keys: 8,
        write_ratio: 0.4,
        seed: 401,
    };
    let (outcome, snapshot) = scenario.run_observed(|sim| {
        let w = sim.world_mut();
        // Slow, reliable FIFO chain: writes stay in flight ~0.6 ms.
        let slow = LinkConfig::ideal(Duration::from_micros(300));
        for a in 0..3u32 {
            for b in 0..3u32 {
                if a != b {
                    w.network_mut().set_link(
                        NodeId::Replica(ReplicaId(a)),
                        NodeId::Replica(ReplicaId(b)),
                        slow,
                    );
                }
            }
        }
        // Reordering on the switch→replica legs: stamped writes can pass
        // each other, so the head rejects the late one (stray entry).
        let reorder = LinkConfig {
            jitter: Duration::from_micros(30),
            reorder_prob: 0.15,
            reorder_delay: Duration::from_micros(120),
            ..LinkConfig::ideal(Duration::from_micros(5))
        };
        for r in 0..3u32 {
            w.network_mut()
                .set_link(spec.switch_addr(), NodeId::Replica(ReplicaId(r)), reorder);
        }
    });
    assert_linearizable(&outcome.histories, "sweep vs slow completion");
    assert_converged(&outcome.world, &scenario.deployment, scenario.keys);
    // The race must actually have been exercised: the sweep reclaimed stray
    // entries while fast-path reads were being served.
    assert!(
        snapshot.switch.swept > 0,
        "no stale entries were ever swept"
    );
    let sw = outcome
        .world
        .actor::<SimWorker>(scenario.deployment.switch_addr())
        .expect("switch")
        .switch()
        .expect("its pipelines");
    assert!(
        SwitchTotals::of(&sw.observe()).stats.reads_fast_path > 0,
        "fast path never exercised: {:?}",
        SwitchTotals::of(&sw.observe()).stats
    );
    // The dirty set drains except for trailing strays: a write rejected
    // *after* the final commit leaves an entry no sweep can reclaim until a
    // later commit advances the last-committed point past it. Those are
    // bounded by the final burst of rejected writes, never the workload.
    let dirty_len = sw.observe()[0].dirty_len;
    assert!(
        dirty_len <= 3,
        "dirty set kept {dirty_len} entries after quiescence"
    );
}

/// Harmonia's fast path must actually be exercised by these scenarios —
/// otherwise the adversarial tests silently degrade to baseline coverage.
#[test]
fn fast_path_reads_were_served() {
    let scenario = Scenario {
        deployment: cluster(ProtocolKind::Chain, true),
        write_ratio: 0.2,
        seed: 71,
        ..Scenario::default()
    };
    let outcome = scenario.run();
    let sw = outcome
        .world
        .actor::<SimWorker>(scenario.deployment.switch_addr())
        .expect("switch")
        .switch()
        .expect("its pipelines");
    assert!(
        SwitchTotals::of(&sw.observe()).stats.reads_fast_path > 20,
        "fast path unused: {:?}",
        SwitchTotals::of(&sw.observe()).stats
    );
    assert_linearizable(&outcome.histories, "fast-path exercise");
}
