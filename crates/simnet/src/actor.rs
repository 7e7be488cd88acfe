//! The actor abstraction: event-driven nodes with explicit effects.
//!
//! Protocol code never touches the network or the clock directly. An
//! [`Actor`] is invoked with a message or timer and emits [`Effect`]s
//! through a [`Context`]. This keeps protocols deterministic, directly
//! unit-testable (construct a `Context`, call the handler, inspect the
//! effects), and independent of the execution environment.

use crate::id::{NodeId, TimerId};
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;

/// A message that can travel through the simulated network.
///
/// `wire_size` must return the serialized size in bytes: the simulator
/// charges CPU and classifies WAN traffic by it, which is what makes
/// payload-size experiments (paper Fig. 12) and aggregation savings
/// (§6.4) measurable.
pub trait Message: Clone + std::fmt::Debug + 'static {
    /// Serialized size of this message in bytes. A type with a
    /// [`Wire`](crate::Wire) encoding returns
    /// [`Wire::wire_len`](crate::Wire::wire_len): its encoder, counted.
    fn wire_size(&self) -> usize;

    /// Short label for traces and debugging.
    fn label(&self) -> &'static str {
        "msg"
    }
}

/// An event-driven node. All state lives inside the actor; all outputs go
/// through the [`Context`].
pub trait Actor<M: Message> {
    /// Called once at simulation start (time zero), in node-id order.
    fn on_start(&mut self, _ctx: &mut Context<M>) {}

    /// Called for every delivered message.
    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Context<M>);

    /// Called when a timer set by this actor fires. `kind` is the tag the
    /// actor passed to [`Context::set_timer`].
    fn on_timer(&mut self, id: TimerId, kind: u64, ctx: &mut Context<M>);

    /// A stable digest of this actor's replicated state, if it has any.
    ///
    /// Convergence checks (chaos harness, model checking) compare the
    /// digests of all replicas after faults heal and traffic drains; two
    /// replicas that applied the same command sequence must report the
    /// same digest. Actors without replicated state (clients, probes)
    /// keep the default `None` and are skipped by such checks.
    fn state_digest(&self) -> Option<u64> {
        None
    }
}

/// Boxed actors are actors too. This lets execution substrates that
/// accept `impl Actor<M>` (e.g. the wall-clock runtime) consume
/// the `Box<dyn Actor<M> + Send>` values a protocol-generic factory
/// produces, without an unboxing adapter at every call site.
impl<M: Message, A: Actor<M> + ?Sized> Actor<M> for Box<A> {
    fn on_start(&mut self, ctx: &mut Context<M>) {
        (**self).on_start(ctx)
    }
    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Context<M>) {
        (**self).on_message(from, msg, ctx)
    }
    fn on_timer(&mut self, id: TimerId, kind: u64, ctx: &mut Context<M>) {
        (**self).on_timer(id, kind, ctx)
    }
    fn state_digest(&self) -> Option<u64> {
        (**self).state_digest()
    }
}

/// Side effects an actor can produce during a single invocation.
#[derive(Debug)]
pub enum Effect<M> {
    /// Send `msg` to `to`. Delivery time = handler completion + link latency.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: M,
    },
    /// Arm a timer that fires after `delay`.
    SetTimer {
        /// Pre-allocated id, already returned to the actor.
        id: TimerId,
        /// Delay from "now".
        delay: SimDuration,
        /// Actor-chosen dispatch tag.
        kind: u64,
    },
    /// Cancel a previously set timer (no-op if already fired).
    CancelTimer(TimerId),
    /// Charge extra CPU time to this node (protocol processing beyond
    /// message handling: state-machine execution, dependency-graph work).
    Charge(SimDuration),
}

/// Handler-scope view of the world given to an actor.
pub struct Context<'a, M> {
    now: SimTime,
    node: NodeId,
    rng: &'a mut StdRng,
    effects: &'a mut Vec<Effect<M>>,
    timer_seq: &'a mut u64,
}

impl<'a, M> Context<'a, M> {
    /// Construct a context. Public so tests and alternative runtimes can
    /// drive actors directly.
    pub fn new(
        now: SimTime,
        node: NodeId,
        rng: &'a mut StdRng,
        effects: &'a mut Vec<Effect<M>>,
        timer_seq: &'a mut u64,
    ) -> Self {
        Context {
            now,
            node,
            rng,
            effects,
            timer_seq,
        }
    }

    /// Current simulated time as observed by this handler.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node this actor is running as.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Deterministic per-node random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Queue a message for sending.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Arm a timer; returns its id for cancellation.
    pub fn set_timer(&mut self, delay: SimDuration, kind: u64) -> TimerId {
        *self.timer_seq += 1;
        let id = TimerId(*self.timer_seq);
        self.effects.push(Effect::SetTimer { id, delay, kind });
        id
    }

    /// Cancel a pending timer. Cancelling an already-fired or unknown
    /// timer is a harmless no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer(id));
    }

    /// Charge `d` of simulated CPU time to this node, extending its busy
    /// period. Use for work the cost model cannot see (e.g. applying a
    /// command to the state machine).
    pub fn charge(&mut self, d: SimDuration) {
        self.effects.push(Effect::Charge(d));
    }

    /// Re-queue a pre-built effect verbatim. The counterpart of
    /// [`Context::capture`]: a decorator re-emits the captured effects
    /// it does not consume. `SetTimer` ids stay valid because the
    /// timer sequence is shared between the outer and inner contexts.
    pub fn emit(&mut self, effect: Effect<M>) {
        self.effects.push(effect);
    }

    /// Run `f` against a scratch effect buffer that shares this
    /// context's clock, node id, rng, and timer sequence, returning
    /// `f`'s result plus the effects it produced — *without* queueing
    /// them. Decorator actors use this to invoke an inner actor and
    /// filter or rewrite its outputs before re-queueing the survivors
    /// with [`Context::emit`].
    pub fn capture<R>(&mut self, f: impl FnOnce(&mut Context<M>) -> R) -> (R, Vec<Effect<M>>) {
        let mut scratch = Vec::new();
        let r = {
            let mut inner = Context {
                now: self.now,
                node: self.node,
                rng: &mut *self.rng,
                effects: &mut scratch,
                timer_seq: &mut *self.timer_seq,
            };
            f(&mut inner)
        };
        (r, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[derive(Debug, Clone)]
    struct Ping(u32);
    impl Message for Ping {
        fn wire_size(&self) -> usize {
            4
        }
        fn label(&self) -> &'static str {
            "ping"
        }
    }

    #[test]
    fn context_collects_effects() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut effects = Vec::new();
        let mut seq = 0;
        let mut ctx = Context::new(
            SimTime::from_millis(5),
            NodeId(1),
            &mut rng,
            &mut effects,
            &mut seq,
        );
        assert_eq!(ctx.now(), SimTime::from_millis(5));
        assert_eq!(ctx.node(), NodeId(1));
        ctx.send(NodeId(2), Ping(7));
        let t = ctx.set_timer(SimDuration::from_millis(10), 42);
        ctx.cancel_timer(t);
        assert_eq!(effects.len(), 3);
        match &effects[0] {
            Effect::Send { to, msg } => {
                assert_eq!(*to, NodeId(2));
                assert_eq!(msg.0, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &effects[1] {
            Effect::SetTimer { id, delay, kind } => {
                assert_eq!(*id, t);
                assert_eq!(*delay, SimDuration::from_millis(10));
                assert_eq!(*kind, 42);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &effects[2] {
            Effect::CancelTimer(id) => assert_eq!(*id, t),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn timer_ids_are_unique_and_increasing() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut effects: Vec<Effect<Ping>> = Vec::new();
        let mut seq = 0;
        let mut ctx = Context::new(SimTime::ZERO, NodeId(0), &mut rng, &mut effects, &mut seq);
        let a = ctx.set_timer(SimDuration::from_millis(1), 0);
        let b = ctx.set_timer(SimDuration::from_millis(1), 0);
        assert!(b > a);
    }

    #[test]
    fn capture_isolates_effects_and_shares_timer_seq() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut effects: Vec<Effect<Ping>> = Vec::new();
        let mut seq = 0;
        {
            let mut ctx = Context::new(SimTime::ZERO, NodeId(3), &mut rng, &mut effects, &mut seq);
            let outer = ctx.set_timer(SimDuration::from_millis(1), 0);
            let ((), captured) = ctx.capture(|inner| {
                assert_eq!(inner.node(), NodeId(3));
                inner.send(NodeId(1), Ping(9));
                let t = inner.set_timer(SimDuration::from_millis(2), 7);
                assert!(t > outer, "inner timers continue the shared sequence");
            });
            assert_eq!(captured.len(), 2, "inner effects stay out of the queue");
            // Re-emitting a captured effect lands it in the outer queue.
            for e in captured {
                ctx.emit(e);
            }
        }
        assert_eq!(
            effects.len(),
            3,
            "outer timer + both re-emitted capture effects"
        );
        // The shared sequence means the next outer timer is still unique.
        let mut ctx = Context::new(SimTime::ZERO, NodeId(3), &mut rng, &mut effects, &mut seq);
        let next = ctx.set_timer(SimDuration::from_millis(1), 0);
        assert_eq!(next, TimerId(3));
    }

    #[test]
    fn message_label_default() {
        #[derive(Debug, Clone)]
        struct Raw;
        impl Message for Raw {
            fn wire_size(&self) -> usize {
                0
            }
        }
        assert_eq!(Raw.label(), "msg");
        assert_eq!(Ping(0).label(), "ping");
    }
}
