//! # pig-runtime — wall-clock execution for simnet actors
//!
//! The protocols in this workspace are written against the
//! [`simnet::Actor`] abstraction, which makes them execution-agnostic:
//! the deterministic simulator drives them for experiments, and this
//! crate drives the *same unmodified code* on OS threads with wall-clock
//! timers, over either of two transports:
//!
//! - [`Runtime`] — one thread per node, crossbeam channels as the
//!   network. The shape of a production deployment minus serialization
//!   and TCP: it demonstrates that nothing in the protocol crates
//!   depends on simulation.
//! - [`NetRuntime`] ([`net`]) — one `epoll` readiness loop per core,
//!   loopback TCP sockets as the network, every message as its
//!   [`simnet::Wire`] bytes.
//!
//! What a node *is* exists once, in the crate-private `Node`: the actor,
//! its RNG (seeded as the simulator seeds it), its timers and its
//! counters, behind `start`, `fire_due`, `deliver` and `next_deadline`,
//! each of which takes the closure the handler's sends go to. A runtime
//! decides when to call them and what that closure does.
//!
//! ## Example
//!
//! ```
//! use pig_runtime::Runtime;
//! use simnet::{Actor, Context, Message, NodeId, TimerId};
//! use std::time::Duration;
//!
//! #[derive(Debug, Clone)]
//! struct Ping;
//! impl Message for Ping {
//!     fn wire_size(&self) -> usize { 8 }
//! }
//!
//! struct Echo;
//! impl Actor<Ping> for Echo {
//!     fn on_start(&mut self, ctx: &mut Context<Ping>) {
//!         if ctx.node() == NodeId(0) { ctx.send(NodeId(1), Ping); }
//!     }
//!     fn on_message(&mut self, from: NodeId, _m: Ping, ctx: &mut Context<Ping>) {
//!         if ctx.node() == NodeId(1) { ctx.send(from, Ping); }
//!     }
//!     fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<Ping>) {}
//! }
//!
//! let mut rt = Runtime::new(42);
//! rt.add_actor(Echo);
//! rt.add_actor(Echo);
//! let stats = rt.run_for(Duration::from_millis(50));
//! assert!(stats.msgs_delivered >= 2);
//! ```

#![warn(missing_docs)]

mod epoll;
pub mod net;

pub use net::{NetRunStats, NetRuntime};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{Actor, Context, Effect, Message, NodeId, SimTime, TimerId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a node thread's inbox carries: a message and its sender, or
/// `None` to stop.
type Inbound<M> = Option<(NodeId, M)>;

/// Aggregate counters from a runtime run.
#[derive(Debug, Default, Clone)]
pub struct RuntimeStats {
    /// Messages delivered to actors across all nodes.
    pub msgs_delivered: u64,
    /// Timers fired across all nodes.
    pub timers_fired: u64,
}

/// A pending timer — when due, its id, its kind — ordered for a
/// max-heap so that the earliest is on top.
type PendingTimer = Reverse<(Instant, TimerId, u64)>;

/// One actor and everything about it that is the same on every
/// wall-clock substrate: its seeded RNG, its timers and its counters.
/// Every entry point takes `out`, which receives the handler's
/// `Effect::Send`s in order — a channel push for [`Runtime`], an encode
/// onto a socket buffer for [`net::NetRuntime`].
pub(crate) struct Node<M: Message> {
    pub(crate) id: NodeId,
    actor: Box<dyn Actor<M> + Send>,
    rng: StdRng,
    timers: BinaryHeap<PendingTimer>,
    cancelled: HashSet<u64>,
    timer_seq: u64,
    effects: Vec<Effect<M>>,
    epoch: Instant,
    /// Messages handed to `on_message`.
    pub(crate) delivered: u64,
    /// Timers that reached `on_timer`.
    pub(crate) fired: u64,
}

impl<M: Message> Node<M> {
    /// `actor` as node `id` of a run that began at `epoch`. The per-node
    /// seed derivation is `simnet::Simulation`'s, so a protocol actor
    /// sees an identical RNG stream for a given (master seed, node) pair
    /// on every substrate.
    pub(crate) fn new(
        id: NodeId,
        actor: Box<dyn Actor<M> + Send>,
        epoch: Instant,
        master_seed: u64,
    ) -> Self {
        Node {
            id,
            actor,
            rng: StdRng::seed_from_u64(simnet::derive_node_seed(master_seed, id.index())),
            timers: BinaryHeap::new(),
            cancelled: HashSet::new(),
            timer_seq: (id.0 as u64) << 40, // per-node unique ids
            effects: Vec::new(),
            epoch,
            delivered: 0,
            fired: 0,
        }
    }

    /// Run one handler and carry out what it asked for.
    fn run(
        &mut self,
        handler: impl FnOnce(&mut dyn Actor<M>, &mut Context<M>),
        out: &mut impl FnMut(NodeId, M),
    ) {
        let now = SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64);
        let mut ctx = Context::new(
            now,
            self.id,
            &mut self.rng,
            &mut self.effects,
            &mut self.timer_seq,
        );
        handler(self.actor.as_mut(), &mut ctx);
        for effect in self.effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => out(to, msg),
                Effect::SetTimer { id, delay, kind } => {
                    let at = Instant::now() + Duration::from_nanos(delay.as_nanos());
                    self.timers.push(Reverse((at, id, kind)));
                }
                Effect::CancelTimer(id) => {
                    self.cancelled.insert(id.0);
                }
                // Real CPU time is really spent; nothing to account.
                Effect::Charge(_) => {}
                // Fault injection is a simulator facility; real threads
                // have no crash/partition switchboard. Dropped so that
                // nemesis-bearing actor sets still run under threads
                // (they just run fault-free).
                Effect::Control(_) => {}
            }
        }
    }

    /// `on_start`.
    pub(crate) fn start(&mut self, out: &mut impl FnMut(NodeId, M)) {
        self.run(|actor, ctx| actor.on_start(ctx), out);
    }

    /// Fire every timer due at `now`. A timer armed by one of these
    /// handlers is not due before the next call, whatever its delay, so
    /// a self-re-arming chain cannot hold the caller here.
    pub(crate) fn fire_due(&mut self, now: Instant, out: &mut impl FnMut(NodeId, M)) {
        while self.next_deadline().is_some_and(|at| at <= now) {
            let Reverse((_, id, kind)) = self.timers.pop().expect("peeked");
            if !self.cancelled.remove(&id.0) {
                self.fired += 1;
                self.run(|actor, ctx| actor.on_timer(id, kind, ctx), out);
            }
        }
    }

    /// `on_message`.
    pub(crate) fn deliver(&mut self, from: NodeId, msg: M, out: &mut impl FnMut(NodeId, M)) {
        self.delivered += 1;
        self.run(|actor, ctx| actor.on_message(from, msg, ctx), out);
    }

    /// When the earliest timer is due; the caller need not come back
    /// before then unless a message arrives.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.timers.peek().map(|Reverse((at, ..))| *at)
    }
}

/// A thread-per-node runtime for [`simnet::Actor`]s.
pub struct Runtime<M: Message + Send> {
    seed: u64,
    actors: Vec<Box<dyn Actor<M> + Send>>,
}

impl<M: Message + Send> Runtime<M> {
    /// New runtime; actors added next get node ids 0, 1, …
    pub fn new(seed: u64) -> Self {
        let actors = Vec::new();
        Runtime { seed, actors }
    }

    /// Register the next actor; returns its node id.
    pub fn add_actor(&mut self, actor: impl Actor<M> + Send + 'static) -> NodeId {
        self.actors.push(Box::new(actor));
        NodeId::from(self.actors.len() - 1)
    }

    /// Run every actor on its own thread for `duration`, then stop all
    /// threads and return aggregate stats.
    pub fn run_for(&mut self, duration: Duration) -> RuntimeStats {
        let epoch = Instant::now();
        let (senders, receivers): (Vec<_>, Vec<_>) =
            self.actors.iter().map(|_| unbounded()).unzip();
        let actors = std::mem::take(&mut self.actors).into_iter();
        let handles: Vec<JoinHandle<Node<M>>> = actors
            .zip(receivers)
            .enumerate()
            .map(|(i, (actor, rx))| {
                let node = Node::new(NodeId::from(i), actor, epoch, self.seed);
                let senders = senders.clone();
                std::thread::spawn(move || node_thread(node, rx, senders))
            })
            .collect();

        std::thread::sleep(duration);
        for tx in &senders {
            let _ = tx.send(None);
        }
        let mut stats = RuntimeStats::default();
        for h in handles {
            let node = h.join().expect("a node thread panicked");
            stats.msgs_delivered += node.delivered;
            stats.timers_fired += node.fired;
        }
        stats
    }
}

/// One node on a thread of its own, its inbox a channel: fires due
/// timers, then blocks for the next message up to the next deadline.
fn node_thread<M: Message + Send>(
    mut node: Node<M>,
    rx: Receiver<Inbound<M>>,
    senders: Vec<Sender<Inbound<M>>>,
) -> Node<M> {
    let from = node.id;
    let mut out = move |to: NodeId, msg: M| {
        if let Some(tx) = senders.get(to.index()) {
            let _ = tx.send(Some((from, msg)));
        }
    };
    node.start(&mut out);
    loop {
        node.fire_due(Instant::now(), &mut out);
        let inbound = match node.next_deadline() {
            Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match inbound {
            Ok(Some((from, msg))) => node.deliver(from, msg, &mut out),
            Err(RecvTimeoutError::Timeout) => {} // a timer is due
            Ok(None) | Err(RecvTimeoutError::Disconnected) => return node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use simnet::SimDuration;
    use std::sync::Arc;

    #[derive(Debug, Clone)]
    enum Msg {
        Ping(u64),
        Pong(u64),
    }
    impl Message for Msg {
        fn wire_size(&self) -> usize {
            8
        }
    }

    struct Pinger {
        peer: NodeId,
        pongs: Arc<Mutex<u64>>,
    }
    impl Actor<Msg> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            ctx.send(self.peer, Msg::Ping(0));
        }
        fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Context<Msg>) {
            if let Msg::Pong(k) = msg {
                *self.pongs.lock() += 1;
                ctx.send(from, Msg::Ping(k + 1));
            }
        }
        fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<Msg>) {}
    }

    struct Ponger;
    impl Actor<Msg> for Ponger {
        fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Context<Msg>) {
            if let Msg::Ping(k) = msg {
                ctx.send(from, Msg::Pong(k));
            }
        }
        fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<Msg>) {}
    }

    #[test]
    fn ping_pong_over_real_threads() {
        let pongs = Arc::new(Mutex::new(0u64));
        let mut rt = Runtime::new(1);
        rt.add_actor(Pinger {
            peer: NodeId(1),
            pongs: pongs.clone(),
        });
        rt.add_actor(Ponger);
        let stats = rt.run_for(Duration::from_millis(100));
        let got = *pongs.lock();
        assert!(got > 100, "expected thousands of round trips, got {got}");
        assert!(stats.msgs_delivered > got);
    }

    struct TimerCounter {
        fired: Arc<Mutex<u64>>,
    }
    impl Actor<Msg> for TimerCounter {
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            ctx.set_timer(SimDuration::from_millis(5), 1);
        }
        fn on_message(&mut self, _f: NodeId, _m: Msg, _c: &mut Context<Msg>) {}
        fn on_timer(&mut self, _i: TimerId, kind: u64, ctx: &mut Context<Msg>) {
            *self.fired.lock() += 1;
            ctx.set_timer(SimDuration::from_millis(5), kind);
        }
    }

    #[test]
    fn timers_fire_on_wall_clock() {
        let fired = Arc::new(Mutex::new(0u64));
        let mut rt = Runtime::new(2);
        rt.add_actor(TimerCounter {
            fired: fired.clone(),
        });
        rt.run_for(Duration::from_millis(120));
        let got = *fired.lock();
        // ~24 expected at 5ms period over 120ms; allow generous slack for
        // CI scheduling noise.
        assert!((5..60).contains(&got), "timer chain fired {got} times");
    }

    struct Canceller {
        fired: Arc<Mutex<u64>>,
    }
    impl Actor<Msg> for Canceller {
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            let t = ctx.set_timer(SimDuration::from_millis(10), 7);
            ctx.cancel_timer(t);
        }
        fn on_message(&mut self, _f: NodeId, _m: Msg, _c: &mut Context<Msg>) {}
        fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<Msg>) {
            *self.fired.lock() += 1;
        }
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        let fired = Arc::new(Mutex::new(0u64));
        let mut rt = Runtime::new(3);
        rt.add_actor(Canceller {
            fired: fired.clone(),
        });
        rt.run_for(Duration::from_millis(50));
        assert_eq!(*fired.lock(), 0);
    }

    /// Records the first value its per-node RNG produces.
    struct RngProbe {
        out: Arc<Mutex<Vec<(usize, u64)>>>,
    }
    impl Actor<Msg> for RngProbe {
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            use rand::Rng;
            let v = ctx.rng().gen::<u64>();
            self.out.lock().push((ctx.node().index(), v));
        }
        fn on_message(&mut self, _f: NodeId, _m: Msg, _c: &mut Context<Msg>) {}
        fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<Msg>) {}
    }

    #[test]
    fn rng_handoff_matches_simulator() {
        // The same (master seed, node) pair must yield the same RNG
        // stream on real threads as under the simulator — the shared
        // `simnet::derive_node_seed` scheme.
        let threads = Arc::new(Mutex::new(Vec::new()));
        let mut rt = Runtime::new(42);
        for _ in 0..3 {
            rt.add_actor(RngProbe {
                out: threads.clone(),
            });
        }
        rt.run_for(Duration::from_millis(20));

        let simulated = Arc::new(Mutex::new(Vec::new()));
        let mut sim: simnet::Simulation<Msg> =
            simnet::Simulation::new(simnet::Topology::lan(3), simnet::CpuCostModel::free(), 42);
        for _ in 0..3 {
            sim.add_actor(Box::new(RngProbe {
                out: simulated.clone(),
            }));
        }
        sim.run_until(SimTime::from_millis(1));

        let mut a = threads.lock().clone();
        a.sort_unstable();
        let mut b = simulated.lock().clone();
        b.sort_unstable();
        assert_eq!(a, b, "per-node RNG streams must match across substrates");
    }
}
