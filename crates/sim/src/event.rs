//! The event queue and the slab that holds what its events refer to.
//!
//! **Order.** Events are totally ordered by `(time, sequence)` where
//! `sequence` is one monotone insertion counter shared by everything that is
//! ever scheduled: two events scheduled for the same instant fire in
//! scheduling order. This makes runs bit-for-bit reproducible.
//!
//! **Two queues, one order.** Timers wait apart from message events, in an
//! ordered map keyed by `(time, sequence)`. A closed-loop client arms a
//! timeout per attempt and cancels it when the attempt ends, so most timers
//! leave long before they are due; kept apart, their arming and cancelling
//! never deepen a sift of the message heap. Both draw their `sequence` from
//! the same counter and `EventQueue::pop_until` takes whichever head has the
//! smaller `(time, sequence)`, so the order is exactly that of one heap: a
//! timer and an arrival that tie on `time` still fire in the order they were
//! scheduled.
//!
//! **Cancelling.** A map from token to key finds a pending timer again, so
//! `EventQueue::cancel_timer` removes it in O(log n). A cancel takes no
//! `sequence` and moves no other key, so the events that do fire fire in the
//! order they would have without it. Cancelling a token that already fired,
//! was already cancelled, or was never armed does nothing.
//!
//! **Keys, not packets.** A queue entry is a key — 24 bytes for a message
//! event, a 16-byte key and a 16-byte `Timer` for a timer — and never holds
//! a message. An arrival's packet sits in a `Slab` from the moment it is
//! sent until its handler runs, and the heap (and, while it waits for
//! service, the node's inbox) carries the slot's handle.
//!
//! **Slots.** A slab slot has one owner at a time: whoever holds its handle.
//! `Slab::insert` hands the handle out, `Slab::take` moves the value out and
//! puts the slot on a free list that is reused last-released-first, so a slab
//! is as large as the most values ever parked in it at once. The queue never
//! releases a slot itself — popping an `Arrive` or a `Control` passes the
//! handle, and the duty to release it, to the world (its module docs list
//! every way a parcel's journey can end).

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

use harmonia_types::{Instant, NodeId};

/// Token identifying a timer registration; delivered back to the actor when
/// the timer fires so it can distinguish (and ignore stale) timers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerToken(pub u64);

/// Values parked in reusable slots and referred to by a `u32` handle (the
/// module docs say who owns a slot and when it is released).
pub(crate) struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Park `value`; the returned handle owns the slot.
    #[inline]
    pub fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(handle) => {
                let slot = &mut self.slots[handle as usize];
                assert!(slot.is_none(), "free list names a parked slot");
                *slot = Some(value);
                handle
            }
            None => {
                let handle =
                    u32::try_from(self.slots.len()).expect("more than 2^32 pending events");
                self.slots.push(Some(value));
                handle
            }
        }
    }

    /// Look at a parked value without releasing its slot.
    pub fn get(&self, handle: u32) -> &T {
        self.slots[handle as usize]
            .as_ref()
            .expect("handle names a released slot")
    }

    /// Move the value out and release its slot.
    #[inline]
    pub fn take(&mut self, handle: u32) -> T {
        let value = self.slots[handle as usize]
            .take()
            .expect("handle names a released slot");
        self.free.push(handle);
        value
    }

    /// Number of values currently parked.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Number of slots ever created (parked + free).
    #[cfg(test)]
    pub fn slots(&self) -> usize {
        self.slots.len()
    }
}

/// A message on its way: what an [`Event::Arrive`] handle refers to.
#[derive(Clone, Debug)]
pub(crate) struct Parcel<M> {
    /// Receiving node.
    pub to: NodeId,
    /// Sending node.
    pub from: NodeId,
    /// The message.
    pub msg: M,
}

/// A message-heap event: a tag and one `u32`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Event {
    /// The parcel in this slab slot arrives at its destination's input (it
    /// then runs at once or enters the service queue).
    Arrive(u32),
    /// The node at this index finishes servicing the head of its queue.
    ServiceDone(u32),
    /// An external control action (test / benchmark harness intervention,
    /// e.g. "stop the switch at t = 20 s") parked in this slot.
    Control(u32),
}

/// A timer-queue event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Timer {
    /// Index of the node that registered the timer.
    pub node: u32,
    /// The registration token.
    pub token: TimerToken,
}

/// What [`EventQueue::pop_until`] hands back.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Fired {
    Event(Event),
    Timer(Timer),
}

/// A heap entry, ordered by `(at, seq)` alone and *reversed*, so that
/// `BinaryHeap` (a max-heap) pops the earliest entry.
struct Entry<T> {
    at: Instant,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (Instant, u64) {
        (self.at, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// Pending timers in `(at, seq)` order, with removal by token.
struct TimerQueue {
    order: BTreeMap<(Instant, u64), Timer>,
    /// Each pending timer's key in `order`. Looked up, never iterated.
    keys: BTreeMap<u64, (Instant, u64)>,
}

impl TimerQueue {
    fn new() -> Self {
        TimerQueue {
            order: BTreeMap::new(),
            keys: BTreeMap::new(),
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.order.len()
    }

    fn peek(&self) -> Option<(Instant, u64)> {
        self.order.first_key_value().map(|(&key, _)| key)
    }

    fn push(&mut self, at: Instant, seq: u64, timer: Timer) {
        let fresh = self.keys.insert(timer.token.0, (at, seq)).is_none();
        assert!(fresh, "timer token {:?} armed twice", timer.token);
        self.order.insert((at, seq), timer);
    }

    fn pop(&mut self) -> Option<(Instant, Timer)> {
        let ((at, _), timer) = self.order.pop_first()?;
        self.keys.remove(&timer.token.0);
        Some((at, timer))
    }

    /// Remove the timer armed under `token`, if it is still pending.
    fn cancel(&mut self, token: TimerToken) -> bool {
        let Some(key) = self.keys.remove(&token.0) else {
            return false;
        };
        self.order.remove(&key);
        true
    }
}

/// Min-queue of scheduled events with deterministic tie-breaking.
pub(crate) struct EventQueue {
    events: BinaryHeap<Entry<Event>>,
    timers: TimerQueue,
    next_seq: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue {
            events: BinaryHeap::new(),
            timers: TimerQueue::new(),
            next_seq: 0,
        }
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    pub fn push(&mut self, at: Instant, event: Event) {
        let seq = self.next_seq();
        self.events.push(Entry {
            at,
            seq,
            item: event,
        });
    }

    /// Arm `timer`. Its token must not be pending already.
    pub fn push_timer(&mut self, at: Instant, timer: Timer) {
        let seq = self.next_seq();
        self.timers.push(at, seq, timer);
    }

    /// Disarm the pending timer with this token; returns whether there was
    /// one (a fired, cancelled or unknown token is left alone).
    pub fn cancel_timer(&mut self, token: TimerToken) -> bool {
        self.timers.cancel(token)
    }

    /// Whether the next entry in `(at, seq)` order is a timer.
    fn timer_is_next(&self) -> bool {
        match (self.events.peek(), self.timers.peek()) {
            (Some(event), Some(timer)) => timer < event.key(),
            (None, Some(_)) => true,
            (_, None) => false,
        }
    }

    /// Pop the earliest event if it is due at or before `limit`.
    pub fn pop_until(&mut self, limit: Instant) -> Option<(Instant, Fired)> {
        if self.timer_is_next() {
            if self.timers.peek()?.0 > limit {
                return None;
            }
            let (at, timer) = self.timers.pop()?;
            Some((at, Fired::Timer(timer)))
        } else {
            if self.events.peek()?.at > limit {
                return None;
            }
            let event = self.events.pop()?;
            Some((event.at, Fired::Event(event.item)))
        }
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.events.len() + self.timers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_types::Duration;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;

    const FOREVER: Instant = Instant(u64::MAX);

    fn drain(q: &mut EventQueue) -> Vec<Fired> {
        std::iter::from_fn(|| q.pop_until(FOREVER))
            .map(|(_, fired)| fired)
            .collect()
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        let t = |ms| Instant::ZERO + Duration::from_millis(ms);
        q.push(t(5), Event::Control(5));
        q.push(t(1), Event::Control(1));
        q.push(t(3), Event::Control(3));
        let controls = [1, 3, 5].map(|c| Fired::Event(Event::Control(c)));
        assert_eq!(drain(&mut q), controls);
    }

    #[test]
    fn same_time_events_fire_in_scheduling_order_across_both_heaps() {
        let mut q = EventQueue::new();
        let t = Instant::ZERO + Duration::from_millis(1);
        let mut expected = Vec::new();
        for v in 0..10u32 {
            if v % 3 == 0 {
                let timer = Timer {
                    node: v,
                    token: TimerToken(u64::from(v)),
                };
                q.push_timer(t, timer);
                expected.push(Fired::Timer(timer));
            } else {
                q.push(t, Event::Control(v));
                expected.push(Fired::Event(Event::Control(v)));
            }
        }
        assert_eq!(drain(&mut q), expected);
    }

    #[test]
    fn pop_respects_the_limit_on_either_heap() {
        let mut q = EventQueue::new();
        assert_eq!(q.pop_until(FOREVER), None);
        let t = |ms| Instant::ZERO + Duration::from_millis(ms);
        q.push(t(9), Event::Control(0));
        let timer = Timer {
            node: 0,
            token: TimerToken(1),
        };
        q.push_timer(t(2), timer);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_until(t(1)), None);
        assert_eq!(q.pop_until(t(2)), Some((t(2), Fired::Timer(timer))));
        assert_eq!(q.pop_until(t(8)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pop_until(t(9)),
            Some((t(9), Fired::Event(Event::Control(0))))
        );
    }

    #[test]
    fn heap_entries_are_keys_not_packets() {
        assert_eq!(std::mem::size_of::<Entry<Event>>(), 24);
        assert_eq!(std::mem::size_of::<Timer>(), 16);
    }

    #[test]
    fn slab_reuses_released_slots() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!((slab.len(), slab.slots()), (2, 2));
        assert_eq!(*slab.get(b), "b");
        assert_eq!(slab.take(a), "a");
        assert_eq!((slab.len(), slab.slots()), (1, 2));
        let c = slab.insert("c");
        assert_eq!(c, a, "the released slot is reused");
        assert_eq!((slab.len(), slab.slots()), (2, 2));
    }

    /// What the reference queue holds: the whole event, payload included.
    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
    enum Whole {
        Arrive(String),
        ServiceDone(u32),
        Timer(u32, u64),
        Control(String),
    }

    /// Seeded random interleavings of pushes, pops and timer cancels against
    /// one `BinaryHeap` of whole `(at, seq, event)` values: the two queues and
    /// the slabs behind them pop the same events with the same payloads in
    /// the same order — the reference's order with the cancelled timers taken
    /// out — and no slab outgrows the peak number of values parked in it.
    #[test]
    fn two_heaps_over_a_slab_pop_what_one_heap_of_whole_events_pops() {
        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut q = EventQueue::new();
            let mut parcels: Slab<String> = Slab::new();
            let mut controls: Slab<String> = Slab::new();
            let mut reference: BinaryHeap<Reverse<(Instant, u64, Whole)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let (mut peak_parcels, mut peak_controls) = (0, 0);
            let (mut popped, mut cancelled) = (0, 0);
            let mut armed: Vec<u64> = Vec::new();

            for step in 0..4000u32 {
                // Pushes outnumber pops until the last quarter, which drains;
                // one step in six cancels a timer throughout.
                let roll = rng.gen_range(0..6u32);
                if roll == 5 {
                    // An armed token (pending, fired or already cancelled),
                    // or one that was never issued.
                    let token = match armed.len() {
                        0 => u64::MAX,
                        n if rng.gen_bool(0.9) => armed[rng.gen_range(0..n)],
                        _ => u64::MAX - u64::from(step),
                    };
                    let pending = |Reverse((_, _, whole)): &Reverse<(Instant, u64, Whole)>| matches!(whole, Whole::Timer(_, t) if *t == token);
                    let was_pending = reference.iter().any(pending);
                    assert_eq!(
                        q.cancel_timer(TimerToken(token)),
                        was_pending,
                        "seed {seed} step {step}"
                    );
                    reference.retain(|e| !pending(e));
                    cancelled += usize::from(was_pending);
                } else if step < 3000 && roll < 3 {
                    // Few distinct instants: most pushes tie with something.
                    let at = Instant::ZERO + Duration::from_micros(rng.gen_range(0..12u64));
                    let whole = match rng.gen_range(0..4u32) {
                        0 => Whole::Arrive(format!("parcel-{step}")),
                        1 => Whole::ServiceDone(rng.gen_range(0..4)),
                        2 => {
                            armed.push(u64::from(step));
                            Whole::Timer(rng.gen_range(0..4), u64::from(step))
                        }
                        _ => Whole::Control(format!("control-{step}")),
                    };
                    match &whole {
                        Whole::Arrive(p) => q.push(at, Event::Arrive(parcels.insert(p.clone()))),
                        Whole::ServiceDone(n) => q.push(at, Event::ServiceDone(*n)),
                        Whole::Timer(node, token) => q.push_timer(
                            at,
                            Timer {
                                node: *node,
                                token: TimerToken(*token),
                            },
                        ),
                        Whole::Control(c) => q.push(at, Event::Control(controls.insert(c.clone()))),
                    }
                    reference.push(Reverse((at, seq, whole)));
                    seq += 1;
                    peak_parcels = peak_parcels.max(parcels.len());
                    peak_controls = peak_controls.max(controls.len());
                } else {
                    let got = q.pop_until(FOREVER).map(|(at, fired)| {
                        let whole = match fired {
                            Fired::Event(Event::Arrive(h)) => Whole::Arrive(parcels.take(h)),
                            Fired::Event(Event::ServiceDone(n)) => Whole::ServiceDone(n),
                            Fired::Event(Event::Control(h)) => Whole::Control(controls.take(h)),
                            Fired::Timer(t) => Whole::Timer(t.node, t.token.0),
                        };
                        (at, whole)
                    });
                    let want = reference.pop().map(|Reverse((at, _, whole))| (at, whole));
                    assert_eq!(got, want, "seed {seed} step {step}");
                    popped += usize::from(got.is_some());
                }
                assert_eq!(q.len(), reference.len());
            }
            assert!(
                popped > 1000 && peak_parcels > 10 && cancelled > 20,
                "the run exercised the queue"
            );
            assert_eq!(q.len() + popped + cancelled, seq as usize);
            assert!(parcels.slots() <= peak_parcels && controls.slots() <= peak_controls);
        }
    }
}
