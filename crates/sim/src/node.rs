//! The actor abstraction and its execution context.
//!
//! Every simulated component implements [`Actor`]: a state machine receiving
//! messages and timer callbacks through a [`Context`] that records the
//! actions (sends, timers, timer cancels) to apply when the handler returns. Handlers never
//! block and never see real time — the same state machines run under the
//! live threaded driver in `harmonia-core`.
//!
//! A sent message is parked in the world's parcel slab by [`Context::send`]
//! itself and is not moved again until its handler runs; what waits for the
//! handler to return is its handle. The network model decides the message's
//! fate only then — so a handler's RNG draws all come before the draws for
//! the packets it sent, whatever order it made them in.

use std::any::Any;

use harmonia_types::{Duration, Instant, NodeId};
use rand::rngs::SmallRng;
#[allow(unused_imports)]
use rand::Rng;

use crate::event::{Parcel, Slab, TimerToken};

/// How a node's resource model treats an incoming message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Service {
    /// The message occupies the node's (single) server for the given span
    /// before the handler runs: models a CPU-bound storage server. Arrivals
    /// during service wait in FIFO order — saturation and queueing delay
    /// emerge naturally.
    Queued(Duration),
    /// The handler runs on arrival: models line-rate elements (the switch's
    /// data plane) and open-loop clients, which are never the bottleneck.
    Immediate,
}

/// Blanket object-safe downcast support for actors.
pub trait AsAny {
    /// Upcast to `&dyn Any` for downcasting in tests and harnesses.
    fn as_any(&self) -> &dyn Any;
    /// Upcast to `&mut dyn Any`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A simulated component.
pub trait Actor<M>: AsAny {
    /// Called once when the node is added to the world (and again if the
    /// node is restarted): schedule initial timers here.
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Handle a delivered message.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M);

    /// Handle a timer previously registered through [`Context::set_timer`].
    fn on_timer(&mut self, _ctx: &mut Context<'_, M>, _token: TimerToken) {}

    /// Classify the resource cost of `msg` (see [`Service`]). The default is
    /// line-rate processing.
    fn service(&self, _msg: &M) -> Service {
        Service::Immediate
    }
}

/// Actions buffered by a [`Context`] during a handler invocation.
#[derive(Debug)]
pub(crate) enum Action {
    /// Route the parcel in this slab slot; the action owns the slot until
    /// the world applies it.
    Send(u32),
    SetTimer {
        after: Duration,
        token: TimerToken,
    },
    CancelTimer(TimerToken),
}

/// Handler execution context: the only window an actor has onto the world.
pub struct Context<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) now: Instant,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) next_timer: &'a mut u64,
    pub(crate) actions: &'a mut Vec<Action>,
    pub(crate) parcels: &'a mut Slab<Parcel<M>>,
}

impl<'a, M> Context<'a, M> {
    /// The node this handler runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Deterministic per-world RNG (for random replica selection etc.).
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Send `msg` to `to` over the network model.
    pub fn send(&mut self, to: NodeId, msg: M) {
        let parcel = self.parcels.insert(Parcel {
            to,
            from: self.node,
            msg,
        });
        self.actions.push(Action::Send(parcel));
    }

    /// Register a timer firing `after` from now; returns its token.
    pub fn set_timer(&mut self, after: Duration) -> TimerToken {
        let token = TimerToken(*self.next_timer);
        *self.next_timer += 1;
        self.actions.push(Action::SetTimer { after, token });
        token
    }

    /// Disarm the timer registered under `token`, so it never reaches
    /// [`Actor::on_timer`]. Applied in order with this handler's other
    /// actions, so a timer set earlier in the same handler is cancelled too;
    /// a token that already fired, or was never issued, is ignored.
    pub fn cancel_timer(&mut self, token: TimerToken) {
        self.actions.push(Action::CancelTimer(token));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe {
        got: Vec<u32>,
    }

    impl Actor<u32> for Probe {
        fn on_message(&mut self, _ctx: &mut Context<'_, u32>, _from: NodeId, msg: u32) {
            self.got.push(msg);
        }
    }

    #[test]
    fn downcast_via_as_any() {
        let p = Probe { got: vec![1, 2] };
        let boxed: Box<dyn Actor<u32>> = Box::new(p);
        // NB: deref to the trait object first — calling `.as_any()` on the
        // `Box` itself would match the blanket impl for `Box<dyn Actor<_>>`
        // (boxes are `Any` too) and the downcast would fail.
        let back: &Probe = (*boxed).as_any().downcast_ref().expect("downcast");
        assert_eq!(back.got, vec![1, 2]);
    }

    #[test]
    fn default_service_is_immediate() {
        let p = Probe { got: vec![] };
        assert_eq!(p.service(&7), Service::Immediate);
    }
}
