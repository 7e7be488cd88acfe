//! # pig-runtime — wall-clock execution for simnet actors
//!
//! Runs the [`simnet::Actor`]s the simulator runs, unmodified, on OS
//! threads with wall-clock timers: one runtime, [`LoopRuntime`], with two
//! transports, so that what separates them is the socket and the codec.
//! [`Runtime`] passes messages as values ([`Mem`]); [`NetRuntime`] as
//! [`simnet::Wire`] bytes over loopback TCP ([`Tcp`], see [`net`]).
//!
//! `run_for` starts `min(available_parallelism, nodes)` `epoll`
//! readiness loops (Linux only) and no other thread; node *i* lives on
//! loop *i mod loops*. A turn of a loop:
//!
//! 1. fire its nodes' due timers;
//! 2. handle up to `SELF_BUDGET` (64) messages from its local queue —
//!    what a node sent itself, and in memory a neighbour on the loop — so
//!    a node that keeps itself busy starves no other node, timer or peer;
//! 3. flush what the turn's handlers sent elsewhere;
//! 4. wait in `epoll_pwait2` for a ready descriptor or the earliest timer
//!    (a nanosecond timeout: clients tick every millisecond), and handle
//!    what is ready right there: no inbox, no second wake-up.
//!
//! A loop is woken through a channel and an `eventfd`: the in-memory
//! transport posts batches there, `run_for` a stop when time is up, and
//! it joins every loop before dropping any (so none sees a peer vanish)
//! and sums their counters into one [`NetRunStats`]. Nothing polls or
//! sleeps. The time between waits is charged to the nodes it went to.
//!
//! ```
//! use pig_runtime::Runtime;
//! use simnet::{Actor, Context, Message, NodeId, TimerId};
//!
//! #[derive(Debug, Clone)]
//! struct Ping;
//! impl Message for Ping { fn wire_size(&self) -> usize { 8 } }
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
//! let stats = rt.run_for(std::time::Duration::from_millis(50));
//! assert!(stats.msgs_delivered >= 2);
//! ```

#![warn(missing_docs)]

mod epoll;
mod event_loop;
mod mem;
pub mod net;

pub use mem::{Mem, Runtime};
pub use net::{NetRuntime, Tcp};

use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{Actor, Context, Effect, Message, NodeId, SimTime, TimerId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet};
use std::marker::PhantomData;
use std::time::{Duration, Instant};

/// Counters from a run on either transport, as the simulator's stats.
#[derive(Debug, Default, Clone)]
pub struct NetRunStats {
    /// Messages delivered to actors across all nodes, self-sends too.
    pub msgs_delivered: u64,
    /// Timers fired across all nodes.
    pub timers_fired: u64,
    /// Messages sent per node (indexed by node id).
    pub per_node_sent: Vec<u64>,
    /// Messages received per node (indexed by node id).
    pub per_node_received: Vec<u64>,
    /// Nanoseconds a loop spent on each node (indexed by node id).
    pub per_node_busy_ns: Vec<u64>,
    /// Deliveries per message label over the whole run.
    pub delivered_by_label: BTreeMap<&'static str, u64>,
    /// Payload bytes that crossed a socket (0 in memory, as below).
    pub bytes_sent: u64,
    /// Sockets opened by a node's connect, reconnects included; each
    /// carries both directions of its node pair.
    pub connections: u64,
    /// Successful re-establishments of a dropped peer connection.
    pub reconnects: u64,
    /// Frames that failed to decode (the wire schema disagrees with itself).
    pub decode_errors: u64,
    /// Frames dropped because their peer could not be reached.
    pub frames_dropped: u64,
}

/// Actors for the loops, over [`Runtime`]'s or [`NetRuntime`]'s transport.
pub struct LoopRuntime<M: Message, T> {
    seed: u64,
    actors: Vec<Boxed<M>>,
    transport: PhantomData<T>,
}

impl<M: Message + Send, T> LoopRuntime<M, T> {
    /// New runtime; actors added next get node ids 0, 1, …
    pub fn new(seed: u64) -> Self {
        LoopRuntime {
            seed,
            actors: Vec::new(),
            transport: PhantomData,
        }
    }

    /// Register the next actor; returns its node id.
    pub fn add_actor(&mut self, actor: impl Actor<M> + Send + 'static) -> NodeId {
        self.actors.push(Box::new(actor));
        NodeId::from(self.actors.len() - 1)
    }
}

/// An actor, as the runtime holds it.
type Boxed<M> = Box<dyn Actor<M> + Send>;
/// Where a handler's sends go, in order.
pub(crate) type Out<'a, M> = &'a mut dyn FnMut(NodeId, M);

/// One actor and its seeded RNG, timers (when due, id, kind; earliest on
/// top) and counters: what is the same on both transports.
pub(crate) struct Node<M: Message> {
    pub(crate) id: NodeId,
    actor: Boxed<M>,
    rng: StdRng,
    timers: BinaryHeap<Reverse<(Instant, TimerId, u64)>>,
    cancelled: HashSet<u64>,
    timer_seq: u64,
    effects: Vec<Effect<M>>,
    epoch: Instant,
    labels: BTreeMap<&'static str, u64>,
    fired: u64,
    sent: u64,
    busy: Duration,
}

impl<M: Message> Node<M> {
    /// `actor` as node `id` of a run begun at `epoch`, its RNG seeded as
    /// `simnet::Simulation` seeds it: the same stream on every substrate.
    pub(crate) fn new(id: NodeId, actor: Boxed<M>, epoch: Instant, seed: u64) -> Self {
        Node {
            id,
            actor,
            rng: StdRng::seed_from_u64(simnet::derive_node_seed(seed, id.index())),
            timers: BinaryHeap::new(),
            cancelled: HashSet::new(),
            timer_seq: (id.0 as u64) << 40, // per-node unique ids
            effects: Vec::new(),
            epoch,
            labels: BTreeMap::new(),
            fired: 0,
            sent: 0,
            busy: Duration::ZERO,
        }
    }

    /// Run one handler and carry out what it asked for.
    pub(crate) fn run(&mut self, f: impl FnOnce(&mut dyn Actor<M>, &mut Context<M>), out: Out<M>) {
        let now = SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64);
        let (rng, effects, seq) = (&mut self.rng, &mut self.effects, &mut self.timer_seq);
        f(
            self.actor.as_mut(),
            &mut Context::new(now, self.id, rng, effects, seq),
        );
        for effect in self.effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    self.sent += 1;
                    out(to, msg);
                }
                Effect::SetTimer { id, delay, kind } => {
                    let at = Instant::now() + Duration::from_nanos(delay.as_nanos());
                    self.timers.push(Reverse((at, id, kind)));
                }
                Effect::CancelTimer(id) => {
                    self.cancelled.insert(id.0);
                }
                // Real CPU time is really spent; nothing to account.
                Effect::Charge(_) => {}
            }
        }
    }

    /// Fire every timer due at `now`; one these handlers arm waits for the
    /// next call, so a self-re-arming chain cannot hold the caller here.
    pub(crate) fn fire_due(&mut self, now: Instant, out: Out<M>) {
        while self.next_deadline().is_some_and(|at| at <= now) {
            let Reverse((_, id, kind)) = self.timers.pop().expect("peeked");
            if !self.cancelled.remove(&id.0) {
                self.fired += 1;
                self.run(|actor, ctx| actor.on_timer(id, kind, ctx), out);
            }
        }
    }

    /// `on_message`.
    pub(crate) fn deliver(&mut self, from: NodeId, msg: M, out: Out<M>) {
        *self.labels.entry(msg.label()).or_insert(0) += 1;
        self.run(|actor, ctx| actor.on_message(from, msg, ctx), out);
    }

    /// When the earliest timer is due: nothing to do before, but messages.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.timers.peek().map(|Reverse((at, ..))| *at)
    }

    /// Charge this node the time since `mark`, and move `mark` to now.
    pub(crate) fn charge(&mut self, mark: &mut Instant) {
        let now = Instant::now();
        self.busy += now - *mark;
        *mark = now;
    }

    /// Add this node's counters to `stats`, after those of nodes before it.
    pub(crate) fn count(&self, stats: &mut NetRunStats) {
        let delivered = self.labels.values().sum();
        stats.msgs_delivered += delivered;
        stats.timers_fired += self.fired;
        stats.per_node_sent.push(self.sent);
        stats.per_node_received.push(delivered);
        stats.per_node_busy_ns.push(self.busy.as_nanos() as u64);
        for (label, count) in &self.labels {
            *stats.delivered_by_label.entry(label).or_insert(0) += count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimDuration;
    use std::sync::{Arc, Mutex};

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
                *self.pongs.lock().unwrap() += 1;
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
        let got = *pongs.lock().unwrap();
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
            *self.fired.lock().unwrap() += 1;
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
        let got = *fired.lock().unwrap();
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
            *self.fired.lock().unwrap() += 1;
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
        assert_eq!(*fired.lock().unwrap(), 0);
    }

    /// Records the first value its per-node RNG produces.
    struct RngProbe {
        out: Arc<Mutex<Vec<(usize, u64)>>>,
    }
    impl Actor<Msg> for RngProbe {
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            use rand::Rng;
            let v = ctx.rng().gen::<u64>();
            self.out.lock().unwrap().push((ctx.node().index(), v));
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

        let mut a = threads.lock().unwrap().clone();
        a.sort_unstable();
        let mut b = simulated.lock().unwrap().clone();
        b.sort_unstable();
        assert_eq!(a, b, "per-node RNG streams must match across substrates");
    }
}
