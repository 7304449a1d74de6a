//! Harmonia cluster assembly: the node runtime every driver hosts the switch
//! and the replicas in, the client library, failure orchestration, and the
//! three drivers behind one API.
//!
//! The layering is pure core / effectful shell. Sans-IO pieces hold
//! everything that must behave the same on every driver — `client_core`
//! (one operation's request / reply / retry state machine, and `Lanes`,
//! the one closed-loop client loop over it), `switch_core` (the pipelines
//! and their one route rule), `worker` (the step of a host running those
//! and storage servers) and `control` (the configuration service's §5.3
//! scripts, as data) — and the drivers only move packets and time around
//! them. What a storage server does with a packet or a tick is
//! `harmonia-replication`'s `Server`, recovery included.
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
//! * [`worker`] is the one node runtime: a [`Worker`] hosts switch
//!   pipelines and storage servers behind one step (packets in, deadline
//!   out), over the conflict detector, forwarding table and NOPaxos
//!   sequencer of `harmonia-switch` ([`switch_core::SwitchCore`], whose
//!   `handle` is the one route rule) and `harmonia-replication`'s `Server`,
//!   counted and traced beside it by the worker. In the simulator each node is
//!   a [`SimWorker`]: the switch at line rate, a replica behind the
//!   calibrated service-cost model ([`msg::CostModel`]).
//! * [`client`] provides an open-loop load generator (the DPDK-generator
//!   substitute) and the simulator's closed-loop client, which records
//!   histories for linearizability checking; the sim's synchronous
//!   [`KvClient`] attaches one per operation.
//! * [`failover`] scripts the §5.3 switch failure/replacement sequence and
//!   server removal at future virtual times; the immediate forms are the
//!   [`Cluster`] verbs.
//! * [`live`] runs the very same state machines on OS threads — the "it's
//!   a real system, not only a simulator" rig, [`live::ThreadedCluster`],
//!   generic over a [`live::Substrate`] that says how bytes move and what
//!   a name resolves to (who answers to which name is `harmonia-net`'s
//!   `AddrBook`, on every substrate). Its data
//!   plane is parallel: one pipeline per replica group, each exclusively
//!   owning that group's [`switch_core::GroupCore`], behind a stateless
//!   shard-routing spine — no lock on the packet path — and pipelines and
//!   replicas alike hosted by as many [`Worker`]s, each on a thread of its
//!   own, as the host has cores for. With the channel substrate it is
//!   [`LiveCluster`].
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
pub mod switch_core;
pub mod udp;
pub mod worker;

pub use client::{ClosedLoopClient, OpSpec, OpenLoopClient, OpenLoopConfig};
pub use deployment::{Cluster, DeploymentSpec, KvClient, SimCluster};
pub use harmonia_types::RecordedOp;
pub use live::{LiveClient, LiveCluster, LiveError};
pub use msg::{CostModel, Msg};
pub use switch_core::{GroupCore, SwitchCore};
pub use udp::UdpCluster;
pub use worker::{SimWorker, Worker};
