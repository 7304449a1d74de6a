//! The deployment's name service: `NodeId → SocketAddr`, including the
//! spine-switch entry that routes on the sender's side: packets the switch
//! acts on to their group's pipeline, completion-less replies past it to
//! their client.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use harmonia_types::{NodeId, PacketBody, SwitchRoute};
use harmonia_workload::ShardMap;

/// The switch fleet's addressing: which node ids reach it, and which group
/// pipeline's socket serves which shard of the keyspace.
#[derive(Clone, Debug)]
struct Spine {
    /// Node ids resolving to the fleet (the stable client-facing address
    /// plus the current incarnation's own id).
    aliases: Vec<NodeId>,
    /// The deployment's object→group map.
    shards: ShardMap,
    /// Per-group pipeline ingress sockets, indexed by group id. One socket
    /// may serve several groups.
    groups: Vec<SocketAddr>,
    /// Each distinct socket of `groups`, once: where a broadcast goes.
    every: Vec<SocketAddr>,
}

/// One immutable snapshot of the deployment's addressing.
#[derive(Clone, Default, Debug)]
pub struct Directory {
    nodes: HashMap<NodeId, SocketAddr>,
    spine: Option<Spine>,
}

impl Directory {
    /// Resolve `to` for a packet carrying `body`, appending every concrete
    /// destination to `out` (cleared first). Zero destinations means the
    /// packet is undeliverable and should be dropped.
    ///
    /// A name that currently resolves to the spine goes wherever
    /// [`PacketBody::switch_route`] says — this is the socket half of that
    /// decision, nothing about *which* bodies go where is restated here.
    pub fn resolve<T>(&self, to: NodeId, body: &PacketBody<T>, out: &mut Vec<SocketAddr>) {
        out.clear();
        let Some(spine) = self.spine.as_ref().filter(|s| s.aliases.contains(&to)) else {
            out.extend(self.nodes.get(&to).copied());
            return;
        };
        match body.switch_route() {
            SwitchRoute::Group(obj) => {
                let g = spine.shards.shard_of(obj) as usize;
                out.extend(spine.groups.get(g).copied());
            }
            SwitchRoute::EveryGroup => out.extend_from_slice(&spine.every),
            SwitchRoute::AnyGroup => out.extend(spine.groups.first().copied()),
            // The spine is up, so the frame is forwarded — to the client's
            // own socket. An unregistered client drops it.
            SwitchRoute::Client(client) => {
                out.extend(self.nodes.get(&NodeId::Client(client)).copied());
            }
        }
    }
}

/// Shared address map of one UDP deployment.
///
/// Replicas and clients register a plain unicast address. The switch is
/// special: [`install_spine`](AddrBook::install_spine) maps its addresses to
/// the whole pipeline fleet, and [`Directory::resolve`] performs the
/// stateless spine routing on the sending thread, by
/// [`PacketBody::switch_route`] — the same function the channel driver's
/// route table calls, so the two substrates cannot disagree: packets the
/// switch acts on go to the owning group's socket (one [`ShardMap`]
/// lookup), control broadcasts to every pipeline socket, plain protocol forwards
/// go to group 0, and a reply with no completion to snoop goes straight to
/// its client's socket. That last one is forwarding *by the spine*: with
/// the spine cleared, or under a name that is no longer one of its aliases
/// (a dead incarnation's id), the reply resolves to nothing — the §5.3
/// outage swallows replies exactly as it does requests.
///
/// Registration is rare (node bring-up, switch replacement) and sends are
/// hot, so the book follows the same copy-on-write discipline as the
/// channel driver's route table: mutations clone-and-republish an
/// immutable [`Directory`] snapshot and bump a generation counter; each
/// sender caches the snapshot and revalidates it with one atomic load per
/// send ([`generation`](AddrBook::generation) /
/// [`snapshot`](AddrBook::snapshot)) — **no lock on the packet path**.
#[derive(Default, Debug)]
pub struct AddrBook {
    table: Mutex<Arc<Directory>>,
    generation: AtomicU64,
}

impl AddrBook {
    /// An empty book.
    pub fn new() -> Self {
        AddrBook::default()
    }

    /// Apply a directory mutation (copy-on-write, then publish).
    fn install(&self, f: impl FnOnce(&mut Directory)) {
        let mut guard = self.table.lock().unwrap();
        let mut next = (**guard).clone();
        f(&mut next);
        *guard = Arc::new(next);
        // Publish while still holding the lock so a sender that observes
        // the new generation and then snapshots is guaranteed the new
        // directory.
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// The current publication counter — a cached [`snapshot`](Self::snapshot)
    /// is valid as long as this has not moved.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The current directory snapshot.
    pub fn snapshot(&self) -> Arc<Directory> {
        Arc::clone(&self.table.lock().unwrap())
    }

    /// Number of unicast entries currently registered (leak checks: every
    /// dropped endpoint must have unregistered itself).
    pub fn unicast_len(&self) -> usize {
        self.table.lock().unwrap().nodes.len()
    }

    /// Register (or re-register) a unicast node.
    pub fn register(&self, node: NodeId, addr: SocketAddr) {
        self.install(|d| {
            d.nodes.insert(node, addr);
        });
    }

    /// Remove a unicast node. Sends to it are dropped from now on.
    pub fn unregister(&self, node: NodeId) {
        self.install(|d| {
            d.nodes.remove(&node);
        });
    }

    /// Install the switch fleet: packets addressed to any of `aliases`
    /// shard-route over `groups` (indexed by group id) using `shards`. A
    /// socket that serves several groups is listed once per group, and a
    /// control broadcast still reaches it once — whoever listens there
    /// applies it to every group it hosts.
    /// Replaces any previous fleet — §5.3 replacement is one call.
    pub fn install_spine(&self, aliases: Vec<NodeId>, shards: ShardMap, groups: Vec<SocketAddr>) {
        assert_eq!(
            shards.groups(),
            groups.len(),
            "one pipeline socket per shard group"
        );
        let mut every: Vec<SocketAddr> = Vec::with_capacity(groups.len());
        for socket in &groups {
            if !every.contains(socket) {
                every.push(*socket);
            }
        }
        self.install(|d| {
            d.spine = Some(Spine {
                aliases,
                shards,
                groups,
                every,
            });
        });
    }

    /// Tear the switch fleet out of the book (§5.3 step 1: the switch
    /// fails). Packets addressed to it vanish, clients time out and retry.
    pub fn clear_spine(&self) {
        self.install(|d| {
            d.spine = None;
        });
    }

    /// [`Directory::resolve`] against the current snapshot — convenience
    /// for one-shot callers; per-packet senders cache the snapshot instead.
    pub fn resolve<T>(&self, to: NodeId, body: &PacketBody<T>, out: &mut Vec<SocketAddr>) {
        self.snapshot().resolve(to, body, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_types::{ClientId, ClientRequest, ControlMsg, ObjectId, ReplicaId, RequestId};

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    fn resolve_for(book: &AddrBook, to: NodeId, body: &PacketBody<u64>) -> Vec<SocketAddr> {
        let mut out = Vec::new();
        book.resolve(to, body, &mut out);
        out
    }

    #[test]
    fn unicast_registration_resolves_and_unregisters() {
        let book = AddrBook::new();
        let node = NodeId::Replica(ReplicaId(3));
        let body: PacketBody<u64> = PacketBody::Protocol(7);
        assert!(resolve_for(&book, node, &body).is_empty());
        book.register(node, addr(9000));
        assert_eq!(resolve_for(&book, node, &body), vec![addr(9000)]);
        book.unregister(node);
        assert!(resolve_for(&book, node, &body).is_empty());
    }

    #[test]
    fn spine_routes_objects_broadcasts_control() {
        let book = AddrBook::new();
        let stable = NodeId::Switch(harmonia_types::SwitchId(1));
        let shards = ShardMap::new(4);
        let groups = vec![addr(9100), addr(9101), addr(9102), addr(9103)];
        book.install_spine(vec![stable], shards, groups.clone());

        // An object-bearing packet goes to exactly its group's socket.
        let req = ClientRequest::read(ClientId(1), RequestId(1), &b"some-key"[..]);
        let g = shards.shard_of(ObjectId::from_key(b"some-key")) as usize;
        let body: PacketBody<u64> = PacketBody::Request(req);
        assert_eq!(resolve_for(&book, stable, &body), vec![groups[g]]);

        // Control broadcasts to every pipeline.
        let ctl: PacketBody<u64> = PacketBody::Control(ControlMsg::AddReplica(ReplicaId(9)));
        assert_eq!(resolve_for(&book, stable, &ctl), groups);

        // Protocol forwards take group 0.
        let proto: PacketBody<u64> = PacketBody::Protocol(1);
        assert_eq!(resolve_for(&book, stable, &proto), vec![groups[0]]);

        // A socket that serves two groups gets their packets, and one copy
        // of a broadcast.
        let shared = vec![groups[0], groups[1], groups[0], groups[1]];
        book.install_spine(vec![stable], shards, shared.clone());
        assert_eq!(resolve_for(&book, stable, &body), vec![shared[g]]);
        assert_eq!(resolve_for(&book, stable, &ctl), groups[..2]);

        // §5.3 step 1: clearing the spine makes the switch unreachable.
        book.clear_spine();
        assert!(resolve_for(&book, stable, &ctl).is_empty());
    }

    #[test]
    fn completion_less_replies_resolve_past_the_spine_to_their_client() {
        use harmonia_types::{ClientReply, SwitchId, SwitchSeq, WriteCompletion, WriteOutcome};
        let book = AddrBook::new();
        let (stable, current) = (NodeId::Switch(SwitchId(1)), NodeId::Switch(SwitchId(3)));
        let shards = ShardMap::new(2);
        let groups = vec![addr(9300), addr(9301)];
        book.install_spine(vec![stable, current], shards, groups.clone());
        let client = ClientId(5);
        book.register(NodeId::Client(client), addr(9400));

        let obj = ObjectId::from_key(b"some-key");
        let reply = |write_outcome, completion| -> PacketBody<u64> {
            PacketBody::Reply(ClientReply {
                client,
                from: ReplicaId(2),
                request: RequestId(1),
                obj,
                value: None,
                write_outcome,
                completion,
            })
        };
        let read_reply = reply(None, None);
        // Under either alias of the live spine: the client's own socket.
        assert_eq!(resolve_for(&book, stable, &read_reply), vec![addr(9400)]);
        assert_eq!(resolve_for(&book, current, &read_reply), vec![addr(9400)]);
        // A reply with a completion to snoop still goes to its group.
        let done = WriteCompletion {
            obj,
            seq: SwitchSeq::new(SwitchId(3), 1),
        };
        let write_reply = reply(Some(WriteOutcome::Committed), Some(done));
        let g = shards.shard_of(obj) as usize;
        assert_eq!(resolve_for(&book, current, &write_reply), vec![groups[g]]);

        // A dead incarnation's id is not an alias: nothing forwards for it.
        let old = NodeId::Switch(SwitchId(2));
        assert!(resolve_for(&book, old, &read_reply).is_empty());
        // An unregistered client drops the reply.
        book.unregister(NodeId::Client(client));
        assert!(resolve_for(&book, stable, &read_reply).is_empty());
        // §5.3 step 1: no spine, no forwarding — the client being
        // reachable does not matter.
        book.register(NodeId::Client(client), addr(9400));
        book.clear_spine();
        assert!(resolve_for(&book, stable, &read_reply).is_empty());
        assert!(resolve_for(&book, current, &read_reply).is_empty());
    }

    #[test]
    fn generation_moves_only_on_mutation() {
        let book = AddrBook::new();
        let g0 = book.generation();
        let snap = book.snapshot();
        assert_eq!(book.generation(), g0, "snapshots do not publish");
        book.register(NodeId::Replica(ReplicaId(0)), addr(9200));
        assert_ne!(book.generation(), g0);
        // The old snapshot still resolves the old world.
        let body: PacketBody<u64> = PacketBody::Protocol(1);
        let mut out = Vec::new();
        snap.resolve(NodeId::Replica(ReplicaId(0)), &body, &mut out);
        assert!(out.is_empty(), "stale snapshot must not see the new node");
    }
}
