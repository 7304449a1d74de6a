//! Harmonia cluster assembly: the switch actor, replica actors, client
//! library, failure orchestration, and the three drivers behind one API.
//!
//! The layering is pure core / effectful shell. Three sans-IO pieces hold
//! everything that must behave the same on every driver — `client_core`
//! (one operation's request / reply / retry state machine),
//! `replica_step` (what a storage server does with a packet or a tick)
//! and `control` (the configuration service's §5.3 scripts, as data) —
//! and the drivers only move packets and time around them.
//!
//! The pieces from the other crates meet here:
//!
//! * [`deployment`] is the public face: one [`DeploymentSpec`] describes any
//!   deployment shape (unsharded is `groups(1)`, the §6.3 sharded
//!   deployment is `groups(n)`), and the [`Cluster`] trait is the uniform
//!   runtime surface over every driver — [`DeploymentSpec::build_sim`]
//!   returns the deterministic-sim implementation,
//!   [`DeploymentSpec::spawn_live`] and [`DeploymentSpec::spawn_udp`] the
//!   threaded ones.
//! * [`switch_actor::SwitchActor`] wires the conflict detector, forwarding
//!   table, and NOPaxos sequencer from `harmonia-switch` into a node that
//!   processes every packet of the rack (Figure 1 of the paper).
//! * [`replica_actor::ReplicaActor`] runs any `harmonia-replication` state
//!   machine — through the shared `ReplicaNode` step — behind
//!   the calibrated service-cost model ([`msg::CostModel`]).
//! * [`client`] provides an open-loop load generator (the DPDK-generator
//!   substitute) and a closed-loop client that records histories for
//!   linearizability checking.
//! * [`failover`] scripts the §5.3 switch failure/replacement sequence and
//!   server removal at future virtual times; the immediate forms are the
//!   [`Cluster`] verbs.
//! * [`live`] runs the very same state machines on OS threads — the "it's
//!   a real system, not only a simulator" rig, [`live::ThreadedCluster`],
//!   generic over a [`live::Substrate`] that says how bytes move and what
//!   a name resolves to (who answers to which name is `harmonia-net`'s
//!   `AddrBook`, on every substrate). Its data
//!   plane is parallel: one pipeline per replica group, each exclusively
//!   owning that group's [`switch_actor::GroupCore`], behind a stateless
//!   shard-routing spine — no lock on the packet path — and pipelines and
//!   replicas alike hosted by as many worker threads as the host has cores
//!   for. With the channel substrate it is [`LiveCluster`].
//! * [`udp`] is the socket substrate: the same rig over real `UdpSocket`
//!   loopback datagrams ([`DeploymentSpec::spawn_udp`], [`UdpCluster`]) —
//!   the `harmonia-net` transport, the wire codec on every hop, and seeded
//!   loss/duplication/reordering at the socket boundary.

#![forbid(unsafe_code)]

pub mod client;
mod client_core;
mod control;
pub mod deployment;
pub mod failover;
pub mod live;
pub mod msg;
pub mod replica_actor;
mod replica_step;
pub mod switch_actor;
pub mod udp;

pub use client::{ClosedLoopClient, OpSpec, OpenLoopClient, OpenLoopConfig, RecordedOp};
pub use deployment::{Cluster, DeploymentSpec, KvClient, SimCluster};
pub use live::{LiveClient, LiveCluster, LiveError};
pub use msg::{CostModel, Msg};
pub use replica_actor::ReplicaActor;
pub use switch_actor::{GroupCore, SwitchActor, SwitchCore, SwitchMode};
pub use udp::UdpCluster;
