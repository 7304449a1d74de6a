//! The simulation world: nodes + network + event loop.
//!
//! **One order.** Everything that happens is an entry in the world's
//! [event queue](crate::event) and fires in `(time, sequence)` order, where
//! `sequence` is one counter shared by arrivals, service completions, timers
//! and control actions alike. Timers wait in a queue of their own, but both
//! queues are keyed by that pair and merged on it, so ties on `time` — a
//! protocol tick against a packet arrival — fire in the order they were
//! scheduled. A handler's sends, timers and cancels are applied only after
//! it returns, in the order it made them: its own RNG draws therefore
//! precede the network model's draws for the packets it sent.
//!
//! **Who owns a parcel.** A message is written into the world's parcel slab
//! once, by [`Context::send`] or [`World::inject`], and read out of it once,
//! when its handler runs; in between only its `u32` handle moves. The handle —
//! and with it the slot — belongs in turn to the pending send action (until
//! the handler that sent it returns), to an arrival in the event heap, and,
//! if the destination queues it, to that node's inbox. Whoever holds the
//! handle when the message's journey ends releases the slot: the router when
//! the network drops the packet, the arrival when the destination is unknown
//! or down, [`set_down`](World::set_down) /
//! [`replace_node`](World::replace_node) /
//! [`add_node`](World::add_node) for everything waiting in the inbox they
//! clear, and otherwise the delivery that hands the message to
//! [`Actor::on_message`]. A duplicated packet is cloned into a slot of its
//! own. Control closures are parked the same way, from
//! [`schedule_control`](World::schedule_control) until they fire.

use std::collections::{BTreeMap, VecDeque};

use harmonia_obs::FaultObs;
use harmonia_types::{Duration, Instant, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::event::{Event, EventQueue, Fired, Parcel, Slab, Timer};
use crate::network::NetworkModel;
use crate::node::{Action, Actor, Context, Service};

/// World construction parameters.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// RNG seed: identical seeds (and identical node/action sequences)
    /// reproduce runs exactly.
    pub seed: u64,
    /// The network model.
    pub network: NetworkModel,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 0x4a52_4d4e_4941,
            network: NetworkModel::default(),
        }
    }
}

struct NodeSlot<M> {
    id: NodeId,
    actor: Box<dyn Actor<M>>,
    /// FIFO of parcels awaiting service, head in service:
    /// `(parcel handle, service_time)`.
    inbox: VecDeque<(u32, Duration)>,
    busy: bool,
    down: bool,
}

type ControlFn<M> = Box<dyn FnOnce(&mut World<M>)>;

/// A deterministic discrete-event simulation of one storage rack.
pub struct World<M> {
    now: Instant,
    queue: EventQueue,
    /// Messages between `send` and their handler (see the module docs).
    parcels: Slab<Parcel<M>>,
    /// Scheduled control actions that have not fired yet.
    controls: Slab<ControlFn<M>>,
    /// Nodes in registration order; events refer to them by index.
    nodes: Vec<NodeSlot<M>>,
    /// Where each id sits in `nodes` — a node's own id, and any
    /// [alias](Self::set_aliases) of it. Ordered, not hashed: finding one of
    /// a rack's few dozen ids is a handful of comparisons, where SipHash was
    /// 7 % of a run.
    index: BTreeMap<NodeId, u32>,
    network: NetworkModel,
    rng: SmallRng,
    /// What the link model did to packets, and those it could not deliver.
    faults: FaultObs,
    next_timer: u64,
    /// The action buffer every handler invocation records into; empty
    /// between invocations.
    actions: Vec<Action>,
}

impl<M: Clone + 'static> World<M> {
    /// Create an empty world.
    pub fn new(config: WorldConfig) -> Self {
        World {
            now: Instant::ZERO,
            queue: EventQueue::new(),
            parcels: Slab::new(),
            controls: Slab::new(),
            nodes: Vec::new(),
            index: BTreeMap::new(),
            network: config.network,
            rng: SmallRng::seed_from_u64(config.seed),
            faults: FaultObs::default(),
            next_timer: 0,
            actions: Vec::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// What the link model did to packets so far: drops, duplicates and
    /// reorders, and the packets discarded at an unknown or down
    /// destination.
    pub fn faults(&self) -> FaultObs {
        self.faults
    }

    /// Zero [`faults`](Self::faults) (a warm-up cut).
    pub fn reset_faults(&mut self) {
        self.faults = FaultObs::default();
    }

    /// Mutable network access (partitions, link overrides mid-run).
    pub fn network_mut(&mut self) -> &mut NetworkModel {
        &mut self.network
    }

    fn slot(&self, id: NodeId) -> Option<&NodeSlot<M>> {
        self.index.get(&id).map(|&node| &self.nodes[node as usize])
    }

    /// Forget whatever waits at `node` (its parcels are released) and set
    /// its flags.
    fn reset_slot(&mut self, node: u32, down: bool) {
        let slot = &mut self.nodes[node as usize];
        for (parcel, _) in slot.inbox.drain(..) {
            self.parcels.take(parcel);
        }
        slot.busy = false;
        slot.down = down;
    }

    /// Register a node and run its `on_start` hook. Registering an id again
    /// is [`replace_node`](Self::replace_node).
    pub fn add_node(&mut self, id: NodeId, actor: Box<dyn Actor<M>>) {
        let node = match self.index.get(&id) {
            Some(&node) => {
                self.nodes[node as usize].actor = actor;
                self.reset_slot(node, false);
                node
            }
            None => {
                let node = u32::try_from(self.nodes.len()).expect("more than 2^32 nodes");
                self.nodes.push(NodeSlot {
                    id,
                    actor,
                    inbox: VecDeque::new(),
                    busy: false,
                    down: false,
                });
                self.index.insert(id, node);
                node
            }
        };
        self.run_handler(node, |actor, ctx| actor.on_start(ctx));
    }

    /// Replace a node's actor with a fresh one (models a rebooted switch
    /// that lost all soft state, §5.3) and run `on_start`.
    pub fn replace_node(&mut self, id: NodeId, actor: Box<dyn Actor<M>>) {
        assert!(
            self.index.contains_key(&id),
            "replace_node: unknown node {id:?}"
        );
        self.add_node(id, actor);
    }

    /// Make `aliases` the names, besides its own, that reach the node
    /// registered as `id`, in place of whatever aliases it had: packets to
    /// an alias are delivered to it, and [`actor`](Self::actor) and
    /// [`is_down`](Self::is_down) answer for it, as do the node verbs
    /// ([`add_node`](Self::add_node) under an alias replaces the node it
    /// names). A name it no longer has resolves to nothing. This is how one
    /// switch host answers both the stable client-facing address and its
    /// incarnation's own id (§5.3).
    pub fn set_aliases(&mut self, id: NodeId, aliases: &[NodeId]) {
        let node = *self.index.get(&id).expect("set_aliases: unknown node");
        let own = self.nodes[node as usize].id;
        self.index
            .retain(|&name, &mut at| at != node || name == own);
        for &alias in aliases.iter().filter(|&&alias| alias != own) {
            let taken = self.slot(alias).is_some_and(|s| s.id == alias);
            assert!(!taken, "set_aliases: {alias:?} is a node of its own");
            self.index.insert(alias, node);
        }
    }

    /// Take a node offline: queued and in-flight-to-it messages are lost,
    /// timers are suppressed while down.
    pub fn set_down(&mut self, id: NodeId) {
        if let Some(&node) = self.index.get(&id) {
            self.reset_slot(node, true);
        }
    }

    /// Bring a node back (state intact) and re-run `on_start`.
    pub fn set_up(&mut self, id: NodeId) {
        if let Some(&node) = self.index.get(&id) {
            self.nodes[node as usize].down = false;
            self.run_handler(node, |actor, ctx| actor.on_start(ctx));
        }
    }

    /// Whether the node is currently marked down.
    pub fn is_down(&self, id: NodeId) -> bool {
        self.slot(id).map(|s| s.down).unwrap_or(true)
    }

    /// Immutable access to a node's actor, downcast to its concrete type.
    pub fn actor<A: 'static>(&self, id: NodeId) -> Option<&A> {
        self.slot(id)
            .and_then(|s| (*s.actor).as_any().downcast_ref())
    }

    /// Mutable access to a node's actor, downcast to its concrete type.
    ///
    /// Mutating actor state outside a handler is a harness-only affordance;
    /// protocol logic must go through messages.
    pub fn actor_mut<A: 'static>(&mut self, id: NodeId) -> Option<&mut A> {
        let node = *self.index.get(&id)?;
        (*self.nodes[node as usize].actor)
            .as_any_mut()
            .downcast_mut()
    }

    /// Inject a message from outside the simulation (no network effects,
    /// delivered at the current instant).
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: M) {
        let parcel = self.parcels.insert(Parcel { to, from, msg });
        self.queue.push(self.now, Event::Arrive(parcel));
    }

    /// Schedule an arbitrary harness action at an absolute time.
    pub fn schedule_control(&mut self, at: Instant, f: impl FnOnce(&mut World<M>) + 'static) {
        let control = self.controls.insert(Box::new(f));
        self.queue.push(at, Event::Control(control));
    }

    /// Number of scheduled control actions that have not fired yet.
    pub fn pending_controls(&self) -> usize {
        self.controls.len()
    }

    /// Number of messages waiting (plus in service) at `id`.
    pub fn backlog(&self, id: NodeId) -> usize {
        self.slot(id)
            .map(|s| s.inbox.len() + usize::from(s.busy))
            .unwrap_or(0)
    }

    /// Process events until (and including) time `t`.
    pub fn run_until(&mut self, t: Instant) {
        while self.step_until(t) {}
        self.now = self.now.max(t);
    }

    /// Process events until the queue drains or `max_events` fire.
    /// Returns the number of events processed.
    pub fn run_until_idle(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }

    /// Fire the next event. Returns false if the queue is empty.
    pub fn step(&mut self) -> bool {
        self.step_until(Instant(u64::MAX))
    }

    /// Fire the next event if it is due at or before `limit`.
    fn step_until(&mut self, limit: Instant) -> bool {
        let Some((at, fired)) = self.queue.pop_until(limit) else {
            return false;
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        match fired {
            Fired::Event(Event::Arrive(parcel)) => self.handle_arrival(parcel),
            Fired::Event(Event::ServiceDone(node)) => self.handle_service_done(node),
            Fired::Event(Event::Control(control)) => {
                let f = self.controls.take(control);
                f(self);
            }
            Fired::Timer(Timer { node, token }) => {
                if !self.nodes[node as usize].down {
                    self.run_handler(node, |actor, ctx| actor.on_timer(ctx, token));
                }
            }
        }
        true
    }

    fn handle_arrival(&mut self, parcel: u32) {
        let arriving = self.parcels.get(parcel);
        let Some(&node) = self.index.get(&arriving.to) else {
            self.parcels.take(parcel);
            self.faults.discarded += 1;
            return;
        };
        let slot = &mut self.nodes[node as usize];
        if slot.down {
            self.parcels.take(parcel);
            self.faults.discarded += 1;
            return;
        }
        match slot.actor.service(&arriving.msg) {
            Service::Immediate => self.deliver(node, parcel),
            Service::Queued(d) => {
                slot.inbox.push_back((parcel, d));
                if !slot.busy {
                    slot.busy = true;
                    self.queue.push(self.now + d, Event::ServiceDone(node));
                }
            }
        }
    }

    fn handle_service_done(&mut self, node: u32) {
        let slot = &mut self.nodes[node as usize];
        if slot.down {
            return;
        }
        let Some((parcel, _)) = slot.inbox.pop_front() else {
            slot.busy = false;
            return;
        };
        // Schedule the next head *before* dispatching, so that messages the
        // handler enqueues locally line up behind existing work.
        if let Some(&(_, next_d)) = slot.inbox.front() {
            self.queue.push(self.now + next_d, Event::ServiceDone(node));
        } else {
            slot.busy = false;
        }
        self.deliver(node, parcel);
    }

    /// Hand the parcel to the node's `on_message`, releasing its slot.
    fn deliver(&mut self, node: u32, parcel: u32) {
        let Parcel { from, msg, .. } = self.parcels.take(parcel);
        self.run_handler(node, |actor, ctx| actor.on_message(ctx, from, msg));
    }

    /// Run one handler of the actor at `node`, then apply what it recorded:
    /// sends are routed and timers armed or cancelled in the order the
    /// handler made them,
    /// and only now — after every RNG draw the handler itself made.
    fn run_handler(
        &mut self,
        node: u32,
        handler: impl FnOnce(&mut dyn Actor<M>, &mut Context<'_, M>),
    ) {
        let mut actions = std::mem::take(&mut self.actions);
        let slot = &mut self.nodes[node as usize];
        let mut ctx = Context {
            node: slot.id,
            now: self.now,
            rng: &mut self.rng,
            next_timer: &mut self.next_timer,
            actions: &mut actions,
            parcels: &mut self.parcels,
        };
        handler(&mut *slot.actor, &mut ctx);
        for action in actions.drain(..) {
            match action {
                Action::Send(parcel) => self.route(parcel),
                Action::SetTimer { after, token } => {
                    self.queue
                        .push_timer(self.now + after, Timer { node, token });
                }
                Action::CancelTimer(token) => {
                    self.queue.cancel_timer(token);
                }
            }
        }
        self.actions = actions;
    }

    /// Decide a sent parcel's fate and schedule its arrival(s). The parcel
    /// stays where `send` put it: the arrival takes over its handle, a
    /// duplicate gets a clone in a slot of its own, a drop releases it.
    fn route(&mut self, parcel: u32) {
        let Parcel { to, from, .. } = *self.parcels.get(parcel);
        let plan = self.network.plan(from, to, &mut self.rng);
        self.faults.reordered += u64::from(plan.reordered);
        match *plan.delays() {
            [] => {
                self.parcels.take(parcel);
                self.faults.dropped += 1;
            }
            [d] => self.queue.push(self.now + d, Event::Arrive(parcel)),
            [first, ref rest @ ..] => {
                self.faults.duplicated += rest.len() as u64;
                self.queue.push(self.now + first, Event::Arrive(parcel));
                for &d in rest {
                    let copy = self.parcels.get(parcel).clone();
                    let copy = self.parcels.insert(copy);
                    self.queue.push(self.now + d, Event::Arrive(copy));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TimerToken;
    use crate::network::LinkConfig;
    use harmonia_types::{ClientId, ReplicaId};

    fn client(n: u32) -> NodeId {
        NodeId::Client(ClientId(n))
    }
    fn replica(n: u32) -> NodeId {
        NodeId::Replica(ReplicaId(n))
    }

    /// Echoes every message back to its sender after optionally queueing.
    struct Echo {
        service: Service,
        seen: u64,
    }

    impl Actor<u64> for Echo {
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: NodeId, msg: u64) {
            self.seen += 1;
            ctx.send(from, msg + 1);
        }
        fn service(&self, _msg: &u64) -> Service {
            self.service
        }
    }

    /// Sends `count` messages at start; records reply arrival times.
    struct Pinger {
        target: NodeId,
        count: u64,
        replies: Vec<(Instant, u64)>,
    }

    impl Actor<u64> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            for i in 0..self.count {
                ctx.send(self.target, i * 10);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: NodeId, msg: u64) {
            self.replies.push((ctx.now(), msg));
        }
    }

    fn ideal_world(latency_us: u64) -> World<u64> {
        World::new(WorldConfig {
            seed: 7,
            network: NetworkModel::uniform(LinkConfig::ideal(Duration::from_micros(latency_us))),
        })
    }

    #[test]
    fn request_reply_roundtrip_takes_two_hops() {
        let mut w = ideal_world(5);
        w.add_node(
            replica(0),
            Box::new(Echo {
                service: Service::Immediate,
                seen: 0,
            }),
        );
        w.add_node(
            client(0),
            Box::new(Pinger {
                target: replica(0),
                count: 1,
                replies: vec![],
            }),
        );
        w.run_until_idle(1000);
        let p: &Pinger = w.actor(client(0)).unwrap();
        assert_eq!(p.replies.len(), 1);
        assert_eq!(p.replies[0].1, 1);
        assert_eq!(p.replies[0].0, Instant::ZERO + Duration::from_micros(10));
    }

    #[test]
    fn queued_service_serializes_work() {
        // Three messages arrive together at a server with 100 µs service
        // time: completions must be spaced 100 µs apart (FIFO single server).
        let mut w = ideal_world(1);
        w.add_node(
            replica(0),
            Box::new(Echo {
                service: Service::Queued(Duration::from_micros(100)),
                seen: 0,
            }),
        );
        w.add_node(
            client(0),
            Box::new(Pinger {
                target: replica(0),
                count: 3,
                replies: vec![],
            }),
        );
        w.run_until_idle(1000);
        let p: &Pinger = w.actor(client(0)).unwrap();
        assert_eq!(p.replies.len(), 3);
        let times: Vec<u64> = p.replies.iter().map(|(t, _)| t.nanos()).collect();
        assert_eq!(times[1] - times[0], Duration::from_micros(100).nanos());
        assert_eq!(times[2] - times[1], Duration::from_micros(100).nanos());
    }

    #[test]
    fn down_node_drops_messages_and_counts_them() {
        let mut w = ideal_world(1);
        w.add_node(
            replica(0),
            Box::new(Echo {
                service: Service::Immediate,
                seen: 0,
            }),
        );
        w.set_down(replica(0));
        w.add_node(
            client(0),
            Box::new(Pinger {
                target: replica(0),
                count: 5,
                replies: vec![],
            }),
        );
        w.run_until_idle(1000);
        let p: &Pinger = w.actor(client(0)).unwrap();
        assert!(p.replies.is_empty());
        assert_eq!(w.faults().discarded, 5);
    }

    #[test]
    fn set_up_restores_delivery() {
        let mut w = ideal_world(1);
        w.add_node(
            replica(0),
            Box::new(Echo {
                service: Service::Immediate,
                seen: 0,
            }),
        );
        w.set_down(replica(0));
        w.inject(client(0), replica(0), 1);
        w.run_until_idle(100);
        w.set_up(replica(0));
        w.inject(client(0), replica(0), 2);
        w.run_until_idle(100);
        let e: &Echo = w.actor(replica(0)).unwrap();
        assert_eq!(e.seen, 1);
    }

    #[test]
    fn control_actions_run_at_their_time() {
        let mut w = ideal_world(1);
        w.add_node(
            replica(0),
            Box::new(Echo {
                service: Service::Immediate,
                seen: 0,
            }),
        );
        w.schedule_control(Instant::ZERO + Duration::from_millis(3), |w| {
            w.set_down(replica(0));
        });
        assert!(!w.is_down(replica(0)));
        w.run_until(Instant::ZERO + Duration::from_millis(2));
        assert!(!w.is_down(replica(0)));
        w.run_until(Instant::ZERO + Duration::from_millis(4));
        assert!(w.is_down(replica(0)));
    }

    #[test]
    fn an_alias_reaches_its_node_until_it_is_dropped() {
        let echo = || Echo {
            service: Service::Immediate,
            seen: 0,
        };
        let mut w = ideal_world(1);
        w.add_node(replica(0), Box::new(echo()));
        w.set_aliases(replica(0), &[replica(7)]);
        w.inject(client(0), replica(7), 1);
        w.run_until_idle(100);
        assert_eq!(w.actor::<Echo>(replica(7)).unwrap().seen, 1);
        // A fresh actor under the node's own id keeps no alias it is not
        // given again: what the dropped one is sent reaches nobody.
        w.add_node(replica(0), Box::new(echo()));
        w.set_aliases(replica(0), &[replica(8)]);
        w.inject(client(0), replica(7), 2);
        w.inject(client(0), replica(8), 3);
        w.run_until_idle(100);
        assert!(w.actor::<Echo>(replica(7)).is_none() && w.is_down(replica(7)));
        assert_eq!(w.actor::<Echo>(replica(0)).unwrap().seen, 1);
        w.set_aliases(replica(0), &[]);
        assert!(w.is_down(replica(8)) && !w.is_down(replica(0)));
    }

    #[test]
    fn timers_fire_and_replace_node_resets_state() {
        struct Ticker {
            ticks: u64,
        }
        impl Actor<u64> for Ticker {
            fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
                ctx.set_timer(Duration::from_millis(1));
            }
            fn on_message(&mut self, _: &mut Context<'_, u64>, _: NodeId, _: u64) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _token: TimerToken) {
                self.ticks += 1;
                if self.ticks < 3 {
                    ctx.set_timer(Duration::from_millis(1));
                }
            }
        }
        let mut w = ideal_world(1);
        w.add_node(replica(0), Box::new(Ticker { ticks: 0 }));
        w.run_until_idle(100);
        assert_eq!(w.actor::<Ticker>(replica(0)).unwrap().ticks, 3);
        w.replace_node(replica(0), Box::new(Ticker { ticks: 0 }));
        assert_eq!(w.actor::<Ticker>(replica(0)).unwrap().ticks, 0);
        w.run_until_idle(100);
        assert_eq!(w.actor::<Ticker>(replica(0)).unwrap().ticks, 3);
    }

    /// Arms three timers on start and cancels as told; records what fires.
    struct Canceller {
        /// Delays (ms) of the timers armed on start.
        delays: [u64; 3],
        tokens: Vec<TimerToken>,
        fired: Vec<(Instant, TimerToken)>,
    }

    impl Actor<u64> for Canceller {
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            self.tokens = self
                .delays
                .iter()
                .map(|&ms| ctx.set_timer(Duration::from_millis(ms)))
                .collect();
            // Armed and cancelled in one handler: never fires.
            let at_once = ctx.set_timer(Duration::from_millis(1));
            ctx.cancel_timer(at_once);
        }
        /// A message `i` cancels the `i`-th token; anything else an unknown one.
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, _: NodeId, i: u64) {
            let token = match self.tokens.get(i as usize) {
                Some(&token) => token,
                None => TimerToken(u64::MAX),
            };
            ctx.cancel_timer(token);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u64>, token: TimerToken) {
            self.fired.push((ctx.now(), token));
        }
    }

    #[test]
    fn a_cancelled_timer_never_fires_and_other_cancels_change_nothing() {
        let ms = |n| Instant::ZERO + Duration::from_millis(n);
        let mut w = ideal_world(1);
        w.add_node(
            replica(0),
            Box::new(Canceller {
                delays: [1, 3, 3],
                tokens: vec![],
                fired: vec![],
            }),
        );
        // 4 timers armed, 1 cancelled at once.
        assert_eq!(w.queue.len(), 3);
        w.run_until(ms(2));
        let tokens = w.actor::<Canceller>(replica(0)).unwrap().tokens.clone();
        assert_eq!(
            w.actor::<Canceller>(replica(0)).unwrap().fired,
            [(ms(1), tokens[0])]
        );
        // Cancel the fired timer, an unknown token, and the first of the two
        // timers due at 3 ms — in that order, from one handler each.
        w.inject(client(0), replica(0), 0);
        w.inject(client(0), replica(0), 7);
        w.inject(client(0), replica(0), 1);
        w.run_until(ms(2));
        assert_eq!(w.queue.len(), 1, "only the uncancelled timer is left");
        w.run_until_idle(100);
        assert_eq!(
            w.actor::<Canceller>(replica(0)).unwrap().fired,
            [(ms(1), tokens[0]), (ms(3), tokens[2])]
        );
        // Cancelling again, now that everything fired, is as harmless.
        w.inject(client(0), replica(0), 2);
        assert_eq!(w.run_until_idle(100), 1, "just the message");
        assert_eq!(w.actor::<Canceller>(replica(0)).unwrap().fired.len(), 2);
    }

    #[test]
    fn identical_seeds_reproduce_runs() {
        fn run(seed: u64) -> Vec<(u64, u64)> {
            let mut w = World::new(WorldConfig {
                seed,
                network: NetworkModel::uniform(LinkConfig {
                    jitter: Duration::from_micros(50),
                    drop_prob: 0.1,
                    ..LinkConfig::default()
                }),
            });
            w.add_node(
                replica(0),
                Box::new(Echo {
                    service: Service::Queued(Duration::from_micros(10)),
                    seen: 0,
                }),
            );
            w.add_node(
                client(0),
                Box::new(Pinger {
                    target: replica(0),
                    count: 100,
                    replies: vec![],
                }),
            );
            w.run_until_idle(10_000);
            w.actor::<Pinger>(client(0))
                .unwrap()
                .replies
                .iter()
                .map(|(t, v)| (t.nanos(), *v))
                .collect()
        }
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ");
    }

    /// Five messages reach a 100 µs server together — one in service, four
    /// queued — and the node crashes (`set_down`) or is replaced before any
    /// completes.
    #[test]
    fn crash_with_work_queued_delivers_nothing_and_releases_every_slot() {
        let queued = || Echo {
            service: Service::Queued(Duration::from_micros(100)),
            seen: 0,
        };
        let mut w = ideal_world(1);
        w.add_node(replica(0), Box::new(queued()));
        let mut slots_after_first_round = 0;
        for round in 0..10_000u64 {
            for i in 0..5 {
                w.inject(client(0), replica(0), i);
            }
            w.run_until(w.now() + Duration::from_micros(50));
            assert_eq!(w.parcels.len(), 5);
            assert_eq!(w.backlog(replica(0)), 5 + 1);

            let replaced = round % 2 == 1;
            if replaced {
                w.replace_node(replica(0), Box::new(queued()));
            } else {
                w.set_down(replica(0));
            }
            assert_eq!(w.parcels.len(), 0, "the crash released every parcel");
            // The completion scheduled for the lost head still fires; it
            // must find nothing to deliver.
            w.run_until_idle(100);
            let seen_before = w.actor::<Echo>(replica(0)).unwrap().seen;
            if replaced {
                assert_eq!(seen_before, 0, "the replacement saw no old traffic");
            } else {
                w.set_up(replica(0));
            }

            // Traffic after the restart is served, at the usual pace.
            let sent = w.now();
            w.inject(client(0), replica(0), 7);
            w.inject(client(0), replica(0), 8);
            w.run_until_idle(100);
            assert_eq!(w.actor::<Echo>(replica(0)).unwrap().seen, seen_before + 2);
            assert_eq!(w.now(), sent + Duration::from_micros(200 + 1));
            assert_eq!(w.parcels.len(), 0);
            assert_eq!(w.backlog(replica(0)), 0);

            if round == 0 {
                slots_after_first_round = w.parcels.slots();
            }
        }
        assert_eq!(w.faults().discarded, 2 * 10_000);
        assert!(
            w.parcels.slots() <= slots_after_first_round,
            "10 000 rounds grew the slab from {slots_after_first_round} to {} slots",
            w.parcels.slots()
        );
    }

    /// Sends every message in `msgs` to `target` on start.
    struct Burst {
        target: NodeId,
        msgs: Vec<String>,
    }

    impl Actor<String> for Burst {
        fn on_start(&mut self, ctx: &mut Context<'_, String>) {
            for msg in self.msgs.drain(..) {
                ctx.send(self.target, msg);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, String>, _: NodeId, _: String) {}
    }

    #[derive(Default)]
    struct Sink {
        got: Vec<(NodeId, String)>,
    }

    impl Actor<String> for Sink {
        fn on_message(&mut self, _: &mut Context<'_, String>, from: NodeId, msg: String) {
            self.got.push((from, msg));
        }
    }

    fn burst_over(link: LinkConfig) -> World<String> {
        let mut w = World::new(WorldConfig {
            seed: 11,
            network: NetworkModel::uniform(link),
        });
        w.add_node(replica(0), Box::new(Sink::default()));
        w.add_node(
            client(0),
            Box::new(Burst {
                target: replica(0),
                msgs: (0..20).map(|i| format!("m{i}")).collect(),
            }),
        );
        w.run_until_idle(1000);
        w
    }

    #[test]
    fn duplicating_link_delivers_two_equal_copies() {
        let w = burst_over(LinkConfig {
            duplicate_prob: 1.0,
            ..LinkConfig::ideal(Duration::from_micros(3))
        });
        // Equal delays: copies arrive in scheduling order, pair by pair.
        let want: Vec<(NodeId, String)> = (0..20)
            .flat_map(|i| [(client(0), format!("m{i}")), (client(0), format!("m{i}"))])
            .collect();
        assert_eq!(w.actor::<Sink>(replica(0)).unwrap().got, want);
        assert_eq!((w.faults().duplicated, w.faults().dropped), (20, 0));
        assert_eq!(w.parcels.len(), 0);
    }

    #[test]
    fn dropping_link_delivers_nothing_and_keeps_no_parcel() {
        let w = burst_over(LinkConfig {
            drop_prob: 1.0,
            ..LinkConfig::ideal(Duration::from_micros(3))
        });
        assert!(w.actor::<Sink>(replica(0)).unwrap().got.is_empty());
        assert_eq!((w.faults().dropped, w.faults().duplicated), (20, 0));
        assert_eq!(w.parcels.len(), 0);
    }
}
