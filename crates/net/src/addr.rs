//! The deployment's name service: `NodeId →` the endpoint that receives for
//! it, whatever an endpoint is on the substrate at hand — a `SocketAddr` on
//! sockets, a loop's ingress channel in process — including the spine-switch
//! entry that routes on the sender's side: packets the switch acts on to
//! their group's pipeline, completion-less replies past it to their client.
//!
//! Three pieces, one of each in the workspace: the [`AddrBook`] (what is
//! published), the [`Resolver`] (how a sender reads it without a lock) and
//! [`Names`] (who takes an endpoint's names out again). A substrate supplies
//! the endpoint type and moves the bytes; it restates none of this.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use harmonia_types::{NodeId, PacketBody, SwitchRoute};
use harmonia_workload::ShardMap;

/// The switch fleet's addressing: which node ids reach it, and which group
/// pipeline's endpoint serves which shard of the keyspace.
#[derive(Clone, Debug)]
struct Spine<E> {
    /// Node ids resolving to the fleet (the stable client-facing address
    /// plus the current incarnation's own id).
    aliases: Vec<NodeId>,
    /// The deployment's object→group map.
    shards: ShardMap,
    /// Per-group pipeline endpoints, indexed by group id. One endpoint may
    /// serve several groups.
    groups: Vec<E>,
    /// Each distinct endpoint of `groups`, once: where a broadcast goes.
    every: Vec<E>,
}

/// One immutable snapshot of the deployment's addressing.
#[derive(Clone, Debug)]
pub struct Directory<E = SocketAddr> {
    nodes: HashMap<NodeId, E>,
    spine: Option<Spine<E>>,
}

/// Zero or one endpoint, as the slice [`Directory::resolve`] hands out.
fn one<E>(endpoint: Option<&E>) -> &[E] {
    endpoint.map(std::slice::from_ref).unwrap_or_default()
}

impl<E> Directory<E> {
    /// Every endpoint a packet carrying `body` and addressed to `to` goes
    /// to. None means the packet is undeliverable and should be dropped;
    /// more than one, that each gets a copy.
    ///
    /// A name that currently resolves to the spine goes wherever
    /// [`PacketBody::switch_route`] says — this is the one place that
    /// decision is turned into endpoints, and nothing about *which* bodies
    /// go where is restated here.
    pub fn resolve<T>(&self, to: NodeId, body: &PacketBody<T>) -> &[E] {
        let Some(spine) = self.spine.as_ref().filter(|s| s.aliases.contains(&to)) else {
            return one(self.nodes.get(&to));
        };
        match body.switch_route() {
            SwitchRoute::Group(obj) => one(spine.groups.get(spine.shards.shard_of(obj) as usize)),
            // One copy per endpoint; whoever listens there applies it to
            // every group it hosts.
            SwitchRoute::EveryGroup => &spine.every,
            SwitchRoute::AnyGroup => one(spine.groups.first()),
            // The spine is up, so the frame is forwarded — to the client's
            // own endpoint, as sent. An unregistered client drops it.
            SwitchRoute::Client(client) => one(self.nodes.get(&NodeId::Client(client))),
        }
    }
}

/// Shared name service of one deployment, over whatever endpoint type `E`
/// its substrate delivers to (`AddrBook` unadorned is the socket book).
///
/// Replicas and clients register a plain unicast endpoint. The switch is
/// special: [`install_spine`](AddrBook::install_spine) maps its addresses to
/// the whole pipeline fleet, and [`Directory::resolve`] performs the
/// stateless spine routing on the sending thread, by
/// [`PacketBody::switch_route`]: packets the switch acts on go to the owning
/// group's endpoint (one [`ShardMap`] lookup), control broadcasts to every
/// pipeline endpoint, plain protocol forwards go to group 0, and a reply
/// with no completion to snoop goes straight to its client's endpoint. That
/// last one is forwarding *by the spine*: with the spine cleared, or under a
/// name that is no longer one of its aliases (a dead incarnation's id), the
/// reply resolves to nothing — the §5.3 outage swallows replies exactly as
/// it does requests.
///
/// Registration is rare (node bring-up, switch replacement, a client shell
/// coming or going) and sends are hot, so the book is copy-on-write:
/// mutations clone-and-republish an immutable [`Directory`] snapshot and
/// bump a generation counter; each sender holds a [`Resolver`], which caches
/// the snapshot and revalidates it with one atomic load per send — **no lock
/// on the packet path**.
#[derive(Debug)]
pub struct AddrBook<E = SocketAddr> {
    table: Mutex<Arc<Directory<E>>>,
    generation: AtomicU64,
}

// Written out: a derive would ask `E: Default` of an endpoint nobody ever
// defaults.
impl<E> Default for AddrBook<E> {
    fn default() -> Self {
        let empty = Directory {
            nodes: HashMap::new(),
            spine: None,
        };
        AddrBook {
            table: Mutex::new(Arc::new(empty)),
            generation: AtomicU64::new(0),
        }
    }
}

impl<E> AddrBook<E> {
    /// An empty book.
    pub fn new() -> Self {
        AddrBook::default()
    }

    /// The published directory. A poisoned lock is taken all the same: the
    /// one write ever made under it swaps a whole `Arc` for another, so what
    /// it guards is a consistent directory whoever panicked holding it.
    fn table(&self) -> MutexGuard<'_, Arc<Directory<E>>> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current publication counter — a cached [`snapshot`](Self::snapshot)
    /// is valid as long as this has not moved.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The current directory snapshot.
    pub fn snapshot(&self) -> Arc<Directory<E>> {
        Arc::clone(&self.table())
    }

    /// Number of unicast entries currently registered (leak checks: every
    /// dropped endpoint must have unregistered itself).
    pub fn unicast_len(&self) -> usize {
        self.table().nodes.len()
    }
}

impl<E: Clone> AddrBook<E> {
    /// Apply a directory mutation (copy-on-write, then publish).
    fn install(&self, f: impl FnOnce(&mut Directory<E>)) {
        let mut guard = self.table();
        let mut next = (**guard).clone();
        f(&mut next);
        *guard = Arc::new(next);
        // Publish while still holding the lock so a sender that observes
        // the new generation and then snapshots is guaranteed the new
        // directory.
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Register (or re-register) a unicast node.
    pub fn register(&self, node: NodeId, endpoint: E) {
        self.install(|d| {
            d.nodes.insert(node, endpoint);
        });
    }

    /// Remove a unicast node. Sends to it are dropped from now on.
    pub fn unregister(&self, node: NodeId) {
        self.install(|d| {
            d.nodes.remove(&node);
        });
    }

    /// Install the switch fleet: packets addressed to any of `aliases`
    /// shard-route over `groups` (indexed by group id) using `shards`. An
    /// endpoint that serves several groups is listed once per group, and a
    /// control broadcast still reaches it once — whoever listens there
    /// applies it to every group it hosts.
    /// Replaces any previous fleet — §5.3 replacement is one call. A fleet
    /// that is not one endpoint per shard group is refused (`false`) and the
    /// book left as it was: a shard nobody serves must not look like an
    /// installed switch.
    pub fn install_spine(&self, aliases: Vec<NodeId>, shards: ShardMap, groups: Vec<E>) -> bool
    where
        E: PartialEq,
    {
        if shards.groups() != groups.len() {
            return false;
        }
        let mut every: Vec<E> = Vec::with_capacity(groups.len());
        for endpoint in &groups {
            if !every.contains(endpoint) {
                every.push(endpoint.clone());
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
        true
    }

    /// Tear the switch fleet out of the book (§5.3 step 1: the switch
    /// fails). Packets addressed to it vanish, clients time out and retry.
    pub fn clear_spine(&self) {
        self.install(|d| {
            d.spine = None;
        });
    }
}

/// A sender's view of a book: the cached [`Directory`] snapshot and the
/// generation it was taken at. A send costs one atomic load in steady state;
/// the snapshot is retaken only after a publication. Every sender of both
/// threaded drivers resolves through one of these.
pub struct Resolver<E = SocketAddr> {
    book: Arc<AddrBook<E>>,
    directory: Arc<Directory<E>>,
    seen: u64,
}

impl<E> Resolver<E> {
    /// A view of `book` as it stands.
    pub fn new(book: Arc<AddrBook<E>>) -> Self {
        // Counter first: a publication in between costs one needless
        // re-snapshot, never a stale one.
        let seen = book.generation();
        let directory = book.snapshot();
        Resolver {
            book,
            directory,
            seen,
        }
    }

    /// The book this resolves against.
    pub fn book(&self) -> &Arc<AddrBook<E>> {
        &self.book
    }

    /// The book as published now: a sender that resolves a whole batch
    /// against it pays one revalidation and holds its endpoints for the
    /// batch.
    pub fn directory(&mut self) -> &Directory<E> {
        let generation = self.book.generation();
        if generation != self.seen {
            self.directory = self.book.snapshot();
            self.seen = generation;
        }
        &self.directory
    }

    /// [`Directory::resolve`] against the book as published now.
    pub fn resolve<T>(&mut self, to: NodeId, body: &PacketBody<T>) -> &[E] {
        self.directory().resolve(to, body)
    }
}

/// The names one endpoint answers to, and the promise that they leave the
/// book with it: a dead endpoint must not keep receiving routes, and the
/// book must not grow dead entries with every short-lived client. Held by
/// whichever loop receives at the endpoint.
pub struct Names<E: Clone = SocketAddr> {
    book: Arc<AddrBook<E>>,
    endpoint: E,
    owned: Vec<NodeId>,
}

impl<E: Clone> Names<E> {
    /// No names yet for `endpoint` in `book`.
    pub fn new(book: Arc<AddrBook<E>>, endpoint: E) -> Self {
        Names {
            book,
            endpoint,
            owned: Vec::new(),
        }
    }

    /// Answer to every one of `names` from now on, beside those bound
    /// before: one publication however many.
    pub fn bind(&mut self, names: &[NodeId]) {
        if names.is_empty() {
            return;
        }
        self.owned.extend_from_slice(names);
        self.book.install(|d| {
            for &name in names {
                d.nodes.insert(name, self.endpoint.clone());
            }
        });
    }

    /// Stop answering to `name`, if this endpoint does: packets toward it
    /// vanish from now on, as toward a dead NIC.
    pub fn release(&mut self, name: NodeId) {
        if let Some(i) = self.owned.iter().position(|&n| n == name) {
            self.owned.swap_remove(i);
            self.book.unregister(name);
        }
    }
}

impl<E: Clone> Drop for Names<E> {
    fn drop(&mut self) {
        if !self.owned.is_empty() {
            self.book.install(|d| {
                for name in &self.owned {
                    d.nodes.remove(name);
                }
            });
        }
    }
}

/// The specification of the name service, each case over both kinds of
/// endpoint the workspace resolves to: a socket address (equal by value) and
/// a stand-in for a channel (equal only to its own clones, as
/// `Sender::same_channel` has it).
#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_types::{ClientId, ClientRequest, ControlMsg, ObjectId, ReplicaId, RequestId};
    use std::fmt::Debug;

    /// An endpoint type the book can be specified over.
    trait Endpoint: Clone + PartialEq + Debug {
        fn fresh(n: u16) -> Self;
    }

    impl Endpoint for SocketAddr {
        fn fresh(n: u16) -> Self {
            SocketAddr::from(([127, 0, 0, 1], 9000 + n))
        }
    }

    /// Identity, not value: two of these made from the same number differ.
    #[derive(Clone, Debug)]
    struct Queue(Arc<u16>);

    impl PartialEq for Queue {
        fn eq(&self, other: &Queue) -> bool {
            Arc::ptr_eq(&self.0, &other.0)
        }
    }

    impl Endpoint for Queue {
        fn fresh(n: u16) -> Self {
            Queue(Arc::new(n))
        }
    }

    fn resolve_for<E: Endpoint>(book: &AddrBook<E>, to: NodeId, body: &PacketBody<u64>) -> Vec<E> {
        book.snapshot().resolve(to, body).to_vec()
    }

    #[test]
    fn unicast_registration_resolves_and_unregisters() {
        fn check<E: Endpoint>() {
            let book = AddrBook::new();
            let node = NodeId::Replica(ReplicaId(3));
            let at = E::fresh(0);
            let body: PacketBody<u64> = PacketBody::Protocol(7);
            assert!(resolve_for(&book, node, &body).is_empty());
            book.register(node, at.clone());
            assert_eq!(resolve_for(&book, node, &body), vec![at]);
            book.unregister(node);
            assert!(resolve_for(&book, node, &body).is_empty());
        }
        check::<SocketAddr>();
        check::<Queue>();
    }

    #[test]
    fn spine_routes_objects_broadcasts_control() {
        fn check<E: Endpoint>() {
            let book = AddrBook::new();
            let stable = NodeId::Switch(harmonia_types::SwitchId(1));
            let shards = ShardMap::new(4);
            let groups: Vec<E> = (0..4).map(E::fresh).collect();
            assert!(book.install_spine(vec![stable], shards, groups.clone()));

            // An object-bearing packet goes to exactly its group's endpoint.
            let req = ClientRequest::read(ClientId(1), RequestId(1), &b"some-key"[..]);
            let g = shards.shard_of(ObjectId::from_key(b"some-key")) as usize;
            let body: PacketBody<u64> = PacketBody::Request(req);
            assert_eq!(resolve_for(&book, stable, &body), vec![groups[g].clone()]);

            // Control broadcasts to every pipeline.
            let ctl: PacketBody<u64> = PacketBody::Control(ControlMsg::AddReplica(ReplicaId(9)));
            assert_eq!(resolve_for(&book, stable, &ctl), groups);

            // Protocol forwards take group 0.
            let proto: PacketBody<u64> = PacketBody::Protocol(1);
            assert_eq!(resolve_for(&book, stable, &proto), vec![groups[0].clone()]);

            // An endpoint that serves two groups gets their packets, and one
            // copy of a broadcast.
            let shared: Vec<E> = [0, 1, 0, 1].map(|i: usize| groups[i].clone()).into();
            assert!(book.install_spine(vec![stable], shards, shared.clone()));
            assert_eq!(resolve_for(&book, stable, &body), vec![shared[g].clone()]);
            assert_eq!(resolve_for(&book, stable, &ctl), groups[..2]);

            // A fleet that leaves a shard unserved is refused; the one
            // installed stands.
            assert!(!book.install_spine(vec![stable], shards, groups[..3].to_vec()));
            assert_eq!(resolve_for(&book, stable, &ctl), groups[..2]);

            // §5.3 step 1: clearing the spine makes the switch unreachable.
            book.clear_spine();
            assert!(resolve_for(&book, stable, &ctl).is_empty());
        }
        check::<SocketAddr>();
        check::<Queue>();
    }

    #[test]
    fn completion_less_replies_resolve_past_the_spine_to_their_client() {
        use harmonia_types::{ClientReply, SwitchId, SwitchSeq, WriteCompletion, WriteOutcome};
        fn check<E: Endpoint>() {
            let book = AddrBook::new();
            let (stable, current) = (NodeId::Switch(SwitchId(1)), NodeId::Switch(SwitchId(3)));
            let shards = ShardMap::new(2);
            let groups: Vec<E> = (0..2).map(E::fresh).collect();
            assert!(book.install_spine(vec![stable, current], shards, groups.clone()));
            let client = ClientId(5);
            let at = E::fresh(2);
            book.register(NodeId::Client(client), at.clone());

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
            // Under either alias of the live spine: the client's own endpoint.
            assert_eq!(resolve_for(&book, stable, &read_reply), vec![at.clone()]);
            assert_eq!(resolve_for(&book, current, &read_reply), vec![at.clone()]);
            // A reply with a completion to snoop still goes to its group.
            let done = WriteCompletion {
                obj,
                seq: SwitchSeq::new(SwitchId(3), 1),
            };
            let write_reply = reply(Some(WriteOutcome::Committed), Some(done));
            let g = shards.shard_of(obj) as usize;
            assert_eq!(
                resolve_for(&book, current, &write_reply),
                vec![groups[g].clone()]
            );

            // A dead incarnation's id is not an alias: nothing forwards for it.
            let old = NodeId::Switch(SwitchId(2));
            assert!(resolve_for(&book, old, &read_reply).is_empty());
            // An unregistered client drops the reply.
            book.unregister(NodeId::Client(client));
            assert!(resolve_for(&book, stable, &read_reply).is_empty());
            // §5.3 step 1: no spine, no forwarding — the client being
            // reachable does not matter.
            book.register(NodeId::Client(client), at);
            book.clear_spine();
            assert!(resolve_for(&book, stable, &read_reply).is_empty());
            assert!(resolve_for(&book, current, &read_reply).is_empty());
        }
        check::<SocketAddr>();
        check::<Queue>();
    }

    #[test]
    fn generation_moves_only_on_mutation() {
        fn check<E: Endpoint>() {
            let book = Arc::new(AddrBook::new());
            let g0 = book.generation();
            let snap = book.snapshot();
            let mut sender = Resolver::new(Arc::clone(&book));
            assert_eq!(book.generation(), g0, "snapshots do not publish");
            let node = NodeId::Replica(ReplicaId(0));
            let at = E::fresh(0);
            book.register(node, at.clone());
            assert_ne!(book.generation(), g0);
            // The old snapshot still resolves the old world; a sender that
            // revalidates sees the new one.
            let body: PacketBody<u64> = PacketBody::Protocol(1);
            assert!(
                snap.resolve(node, &body).is_empty(),
                "stale snapshot must not see the new node"
            );
            assert_eq!(sender.resolve(node, &body), [at]);
        }
        check::<SocketAddr>();
        check::<Queue>();
    }

    /// However many names an endpoint answers to, they enter the book in one
    /// publication and leave it in one — every sender of the deployment
    /// re-snapshots once per shell, not once per lane.
    #[test]
    fn an_endpoints_names_come_and_go_in_one_publication_each() {
        fn check<E: Endpoint>() {
            let book = Arc::new(AddrBook::new());
            let lanes: Vec<NodeId> = (1..=32).map(|c| NodeId::Client(ClientId(c))).collect();
            let at = E::fresh(0);
            let body: PacketBody<u64> = PacketBody::Protocol(1);
            let g0 = book.generation();
            let mut names = Names::new(Arc::clone(&book), at.clone());
            names.bind(&[]);
            assert_eq!(book.generation(), g0, "nothing to publish");
            names.bind(&lanes);
            assert_eq!(book.generation(), g0 + 1);
            assert_eq!(book.unicast_len(), 32);
            assert_eq!(resolve_for(&book, lanes[31], &body), vec![at]);
            // One name released: the others stay, and a name it never had
            // is not taken from whoever has it.
            let stranger = NodeId::Replica(ReplicaId(0));
            book.register(stranger, E::fresh(1));
            names.release(lanes[0]);
            names.release(stranger);
            assert_eq!(book.unicast_len(), 32);
            assert!(resolve_for(&book, lanes[0], &body).is_empty());
            let g1 = book.generation();
            drop(names);
            assert_eq!(book.generation(), g1 + 1);
            assert_eq!(book.unicast_len(), 1, "only the stranger is left");
        }
        check::<SocketAddr>();
        check::<Queue>();
    }

    /// A thread that panicked inside a mutation leaves the lock poisoned and
    /// the directory as it was; the book goes on serving and publishing.
    #[test]
    fn a_poisoned_lock_still_guards_a_whole_directory() {
        let book = Arc::new(AddrBook::new());
        let node = NodeId::Replica(ReplicaId(0));
        book.register(node, SocketAddr::fresh(0));
        let poisoner = Arc::clone(&book);
        let panicked = std::thread::spawn(move || poisoner.install(|_| panic!("mid-mutation")));
        assert!(panicked.join().is_err());
        let body: PacketBody<u64> = PacketBody::Protocol(1);
        assert_eq!(
            resolve_for(&book, node, &body),
            vec![SocketAddr::fresh(0)],
            "the half-made directory was never published"
        );
        book.unregister(node);
        assert_eq!(book.unicast_len(), 0);
    }
}
