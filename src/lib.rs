//! # Harmonia
//!
//! A full reproduction of **"Harmonia: Near-Linear Scalability for
//! Replicated Storage with In-Network Conflict Detection"** (Zhu et al.,
//! VLDB 2019) as a Rust library: the in-switch read-write conflict detector,
//! five replication protocols with their Harmonia adaptations, a calibrated
//! discrete-event testbed, a live threaded runtime, linearizability
//! tooling, and benchmark harnesses regenerating every figure of the
//! paper's evaluation.
//!
//! ## The idea, in one paragraph
//!
//! Strongly consistent replication usually caps read throughput at one
//! server, because only a designated replica (chain tail, Paxos leader) may
//! answer reads safely. Harmonia observes that at any instant only the
//! objects with *in-flight writes* are dangerous; everything else is
//! identical on every replica. A programmable switch sits on the data path
//! anyway — so let it track the *dirty set* at line rate, send reads for
//! clean objects to a random replica (stamped with the last-committed
//! point so the replica can double-check), and leave everything else to the
//! unmodified protocol. Read throughput then scales with the number of
//! replicas while writes and consistency are untouched.
//!
//! ## One API, every deployment shape
//!
//! A single [`DeploymentSpec`](prelude::DeploymentSpec) describes any
//! deployment: unsharded (Figure 1) is `groups(1)` — the default — and the
//! §6.3 cloud-scale sharded deployment is the same spec with `groups(n)`.
//! [`build_sim()`](prelude::DeploymentSpec::build_sim) assembles it in the
//! deterministic simulator; [`spawn_live()`](prelude::DeploymentSpec::spawn_live)
//! on OS threads over in-process channels;
//! [`spawn_udp()`](prelude::DeploymentSpec::spawn_udp) on OS threads over
//! real loopback `UdpSocket` datagrams (the [`net`] transport — every
//! packet crosses the wire codec, and seeded loss/duplication/reordering
//! can be injected at the socket boundary). All three implement the
//! [`Cluster`](prelude::Cluster) trait, so harnesses can hold any of them
//! as `Box<dyn Cluster>` and never care which driver runs the protocol —
//! the drop-in claim of the paper, in the types.
//!
//! ## Quick start (live, threaded)
//!
//! ```
//! use harmonia::prelude::*;
//!
//! let cluster = DeploymentSpec::new()
//!     .protocol(ProtocolKind::Chain)
//!     .replicas(3)
//!     .spawn_live();
//! let mut client = cluster.client();
//! client.set("user:42", "alice").unwrap();
//! assert_eq!(client.get("user:42").unwrap().as_deref(), Some(&b"alice"[..]));
//! cluster.shutdown();
//! ```
//!
//! ## Quick start (simulated, deterministic)
//!
//! ```
//! use harmonia::prelude::*;
//! use bytes::Bytes;
//!
//! let mut sim = DeploymentSpec::new().seed(7).build_sim();
//! let source: SourceFn = Box::new(|_rng| OpSpec::read(Bytes::from_static(b"k")));
//! sim.add_open_loop_client(ClientId(1), 100_000.0, Duration::from_millis(10), source);
//! sim.run_until(Instant::ZERO + Duration::from_millis(5));
//! assert!(sim.obs_snapshot().clients.reads_done > 0);
//! ```
//!
//! ## One more knob, sixteen more groups
//!
//! Scenario diversity costs one config change, not another assembly path:
//! the same spec with `groups(4)` is the §6.3 sharded deployment, on either
//! driver.
//!
//! ```
//! use harmonia::prelude::*;
//!
//! let mut sim = DeploymentSpec::new().groups(4).build_sim();
//! let mut client = sim.client();
//! client.set(b"user:1", b"profile").unwrap();
//! assert_eq!(client.get(b"user:1").unwrap().as_deref(), Some(&b"profile"[..]));
//! drop(client);
//! let snap = sim.obs_snapshot(); // the one read side, on every driver
//! assert_eq!(snap.per_group.len(), 4);
//! assert_eq!(snap.switch.memory_bytes % 4, 0); // 4 equal dirty sets
//! ```
//!
//! ## Live data plane
//!
//! The live driver is a **parallel data plane**: one pipeline per replica
//! group, each exclusively owning that group's conflict detector, OUM
//! sequencer, forwarding table and counters — a worker's share of them is
//! one [`Switch`](switch::Switch), Figure 1's program — behind a
//! *stateless* spine: sending to the switch address shard-routes the packet
//! on the sender's own thread straight onto the owning group's pipeline.
//! Pipelines and replicas are *hosted* by worker threads, as many as the
//! process has cores to run them on and never more than nodes: nodes that
//! would share a core anyway share a thread, and a hop between them wakes
//! nobody. No lock is taken on the packet path; workers drain their ingress
//! in batches; an `obs_snapshot()` asks each worker that hosts pipelines
//! for their [`GroupObservation`](switch::GroupObservation) rows, one verb
//! per worker, and folds them as it folds the simulator's. The §5.3
//! `kill_switch` / `replace_switch` verbs evict every pipeline from its
//! worker and have fresh ones adopted under a fresh incarnation. This
//! mirrors the hardware: a Tofino processes different groups' packets in
//! parallel at line rate, so group count buys packet-level parallelism (as
//! far as the host has cores for it). Every driver runs one node runtime
//! ([`Worker`](core::worker::Worker)): the worker threads step it, and the
//! deterministic simulator steps it as one node per host — the switch with
//! every group's pipeline, each replica on its own — with bit-identical
//! replays.
//!
//! The **UDP driver** ([`core::udp`]) is the same rig
//! ([`ThreadedCluster`](core::live::ThreadedCluster)) over a different
//! [`Substrate`](core::live::Substrate): it reuses every one of those
//! loops and §5.3 verbs and swaps the channels for [`net`]-crate loopback
//! sockets. Both resolve names through the one name service there is,
//! [`net::AddrBook`], generic over what a name resolves to: the spine route
//! resolves on the sending thread to the endpoint — an ingress queue there,
//! a *socket address* here — of the worker hosting the owning group's
//! pipeline, `kill_switch` tears the spine out of the book, and
//! `tests/udp_cluster.rs` runs the whole thing under 5% datagram
//! loss + duplication + reordering with every history through the
//! Wing–Gong checker.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`types`] | object ids, switch-epoch sequence numbers, packets, wire codec |
//! | [`sim`] | deterministic discrete-event simulator + network model |
//! | [`kv`] | in-memory versioned KV engine (the Redis substitute) |
//! | [`switch`] | switch data-plane emulation: register arrays, multi-stage hash table, Algorithm 1 |
//! | [`replication`] | PB, chain, CRAQ, VR, NOPaxos — each ± Harmonia |
//! | [`net`] | the deployment name service (`NodeId` → endpoint, spine shard routing) both threaded drivers resolve through; real datagram transport: UDP loopback sockets, seeded fault injection |
//! | [`core`] | the `DeploymentSpec`/`Cluster` API; the sans-IO client core, replica step, switch pipelines, node runtime (`Worker`) and §5.3 control scripts every driver shares; the simulator's host (`SimWorker`) and the threaded rig (channel and UDP substrates) that shell them |
//! | [`workload`] | uniform/zipf key spaces, mixes, YCSB presets |
//! | [`verify`] | the linearizability gate over recorded histories + TLA+-mirror model checker |

#![forbid(unsafe_code)]

pub use harmonia_core as core;
pub use harmonia_kv as kv;
pub use harmonia_net as net;
pub use harmonia_obs as obs;
pub use harmonia_replication as replication;
pub use harmonia_sim as sim;
pub use harmonia_switch as switch;
pub use harmonia_types as types;
pub use harmonia_verify as verify;
pub use harmonia_workload as workload;

/// Everything a typical user needs.
pub mod prelude {
    pub use harmonia_core::client::{OpSpec, SourceFn};
    pub use harmonia_core::deployment::{Cluster, DeploymentSpec, KvClient, SimCluster};
    pub use harmonia_core::failover::{
        schedule_replica_recovery, schedule_replica_removal, schedule_switch_failure,
        schedule_switch_replacement,
    };
    pub use harmonia_core::live::{LiveClient, LiveCluster, LiveError};
    pub use harmonia_core::msg::{CostModel, Msg};
    pub use harmonia_core::udp::UdpCluster;
    pub use harmonia_core::{ClosedLoopClient, OpenLoopClient, RecordedOp, SimWorker};
    pub use harmonia_obs::{json_text, ObsSnapshot, TraceEvent, TraceStage};
    pub use harmonia_replication::{GroupConfig, ProtocolKind};
    pub use harmonia_sim::{LinkConfig, NetworkModel, World, WorldConfig};
    pub use harmonia_switch::{
        ConflictDetector, GroupId, MultiStageHashTable, ResourceModel, TableConfig,
    };
    pub use harmonia_types::{
        ClientId, Duration, Instant, NodeId, ObjectId, OpKind, ReplicaId, SwitchId, SwitchSeq,
    };
    pub use harmonia_verify::{Checker, ModelConfig, SpecModel};
    pub use harmonia_workload::ShardMap;
    pub use harmonia_workload::{KeySpace, Mix, WorkloadSpec, YcsbPreset};
}
