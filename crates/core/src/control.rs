//! The configuration service's §5.3 scripts, as data.
//!
//! Removing a failed replica, re-admitting a restarted one, and moving the
//! switch lease are each a fixed list of control packets. The list is
//! computed here once — purely, from the [`DeploymentSpec`] — and every
//! driver only *delivers* it: the sim injects it into its world (now, or at
//! a scheduled virtual time), the threaded drivers send it over a clean
//! link. Packets come back in the order they must be sent.

use harmonia_replication::messages::{ProtocolMsg, ReplicaControlMsg};
use harmonia_replication::GroupConfig;
use harmonia_types::{ControlMsg, NodeId, PacketBody, ReplicaId, SwitchId};

use crate::deployment::DeploymentSpec;
use crate::msg::Msg;

/// A script: `(destination, packet)` pairs in send order.
pub(crate) type Script = Vec<(NodeId, Msg)>;

fn from_controller(dst: NodeId, body: PacketBody<ProtocolMsg>) -> (NodeId, Msg) {
    (dst, Msg::new(NodeId::Controller, dst, body))
}

fn to_replica(r: ReplicaId, ctl: ReplicaControlMsg) -> (NodeId, Msg) {
    from_controller(
        NodeId::Replica(r),
        PacketBody::Protocol(ProtocolMsg::Control(ctl)),
    )
}

/// Replica `failed` is gone (§5.3, "handling server failures"): the switch
/// at `switch` drops it from the forwarding table, and its group's
/// membership shrinks to the survivors so the protocol keeps committing
/// without it. Only the failed replica's group is touched.
pub(crate) fn removal(spec: &DeploymentSpec, switch: NodeId, failed: ReplicaId) -> Script {
    let mut survivors = spec.group_members(spec.group_of_replica(failed));
    survivors.retain(|&m| m != failed);
    let mut script = vec![from_controller(
        switch,
        PacketBody::Control(ControlMsg::RemoveReplica(failed)),
    )];
    script.extend(
        survivors
            .iter()
            .map(|&s| to_replica(s, ReplicaControlMsg::SetMembers(survivors.clone()))),
    );
    script
}

/// How to bring a replica back: what to tell the switch and the survivors,
/// and how to start the newcomer once that has landed.
pub(crate) struct Readmission {
    /// Switch first — the canonical table with the newcomer **read-gated**
    /// — then the survivors' restored membership, so no read reaches the
    /// newcomer before its catch-up finishes.
    pub(crate) script: Script,
    /// The newcomer's group configuration.
    pub(crate) config: GroupConfig,
    /// The live peer it state-transfers from.
    pub(crate) peer: ReplicaId,
}

/// Re-admit `replica` as a fresh, empty node of its group. `lease` is the
/// switch incarnation currently holding the lease: the newcomer must report
/// its catch-up there, not to the incarnation the deployment booted with.
pub(crate) fn readmission(
    spec: &DeploymentSpec,
    switch: NodeId,
    lease: SwitchId,
    replica: ReplicaId,
) -> Readmission {
    let group = spec.group_of_replica(replica);
    let canonical = spec.group_members(group);
    let idx = canonical
        .iter()
        .position(|&m| m == replica)
        .expect("replica belongs to its group");
    let peer = canonical
        .iter()
        .copied()
        .find(|&m| m != replica)
        .expect("re-admission needs a live peer to transfer from");
    let mut script = vec![
        from_controller(
            switch,
            PacketBody::Control(ControlMsg::SetReplicas(canonical.clone())),
        ),
        from_controller(
            switch,
            PacketBody::Control(ControlMsg::GateReplica(replica)),
        ),
    ];
    script.extend(
        canonical
            .iter()
            .filter(|&&m| m != replica)
            .map(|&m| to_replica(m, ReplicaControlMsg::SetMembers(canonical.clone()))),
    );
    let mut config = spec.group_config(group, idx);
    config.active_switch = lease;
    Readmission {
        script,
        config,
        peer,
    }
}

/// Move every replica's lease to incarnation `new_id`: from now on they
/// reject fast-path reads stamped by older incarnations. The lease is
/// monotone, so delivering this twice (or to a dead replica) is harmless.
pub(crate) fn lease_move(spec: &DeploymentSpec, new_id: SwitchId) -> Script {
    (0..spec.total_replicas() as u32)
        .map(|r| to_replica(ReplicaId(r), ReplicaControlMsg::SetActiveSwitch(new_id)))
        .collect()
}
