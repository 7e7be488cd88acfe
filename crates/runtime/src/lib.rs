//! # pig-runtime — real-thread execution for simnet actors
//!
//! The protocols in this workspace are written against the
//! [`simnet::Actor`] abstraction, which makes them execution-agnostic:
//! the deterministic simulator drives them for experiments, and this
//! crate drives the *same unmodified code* on OS threads with real
//! channels and wall-clock timers — one thread per node, crossbeam
//! channels as the network.
//!
//! This is the shape of a production deployment (minus serialization and
//! TCP): it demonstrates that nothing in the protocol crates depends on
//! simulation, and it provides a second, independent execution substrate
//! for validating protocol behaviour.
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

pub mod net;

pub use net::{NetRunStats, NetRuntime};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{Actor, Context, Effect, Message, NodeId, SimDuration, SimTime, TimerId};
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub(crate) enum Inbound<M> {
    Deliver { from: NodeId, msg: M },
    Stop,
}

/// Where a [`node_loop`] puts the messages its actor sends.
pub(crate) trait Outbound<M> {
    /// Take one message for `to`; it may be held until the next `flush`.
    fn send(&mut self, to: NodeId, msg: M);
    /// Push out everything `send` held back. The loop calls this before
    /// it blocks and at least once every [`FLUSH_EVERY`] handler runs.
    fn flush(&mut self) {}
}

/// Handler runs (messages and timers) after which [`node_loop`] flushes
/// even though its inbox never ran empty, so a node that is never idle
/// cannot hold its peers' frames back for ever.
pub(crate) const FLUSH_EVERY: u32 = 64;

/// A plain function is a transport that holds nothing back: the
/// in-process [`Runtime`]'s push into the peer's inbox.
impl<M, F: FnMut(NodeId, M)> Outbound<M> for F {
    fn send(&mut self, to: NodeId, msg: M) {
        self(to, msg)
    }
}

/// Aggregate counters from a runtime run.
#[derive(Debug, Default, Clone)]
pub struct RuntimeStats {
    /// Messages delivered to actors across all nodes.
    pub msgs_delivered: u64,
    /// Timers fired across all nodes.
    pub timers_fired: u64,
}

#[derive(PartialEq, Eq)]
struct PendingTimer {
    at: Instant,
    id: TimerId,
    kind: u64,
}

impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want earliest first.
        other.at.cmp(&self.at).then(other.id.cmp(&self.id))
    }
}
impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A thread-per-node runtime for [`simnet::Actor`]s.
pub struct Runtime<M: Message + Send> {
    seed: u64,
    senders: Vec<Sender<Inbound<M>>>,
    receivers: Vec<Option<Receiver<Inbound<M>>>>,
    actors: Vec<Option<Box<dyn Actor<M> + Send>>>,
    stats: Arc<Mutex<RuntimeStats>>,
    epoch: Instant,
}

impl<M: Message + Send> Runtime<M> {
    /// New runtime; actors added next get node ids 0, 1, …
    pub fn new(seed: u64) -> Self {
        Runtime {
            seed,
            senders: Vec::new(),
            receivers: Vec::new(),
            actors: Vec::new(),
            stats: Arc::new(Mutex::new(RuntimeStats::default())),
            epoch: Instant::now(),
        }
    }

    /// Register the next actor; returns its node id.
    pub fn add_actor(&mut self, actor: impl Actor<M> + Send + 'static) -> NodeId {
        let id = NodeId::from(self.actors.len());
        let (tx, rx) = unbounded();
        self.senders.push(tx);
        self.receivers.push(Some(rx));
        self.actors.push(Some(Box::new(actor)));
        id
    }

    /// Run every actor on its own thread for `duration`, then stop all
    /// threads and return aggregate stats.
    pub fn run_for(&mut self, duration: Duration) -> RuntimeStats {
        let n = self.actors.len();
        let mut handles: Vec<JoinHandle<()>> = Vec::with_capacity(n);
        let (done_tx, done_rx) = bounded::<()>(n);
        self.epoch = Instant::now();

        for i in 0..n {
            let actor = self.actors[i].take().expect("actor already running");
            let rx = self.receivers[i].take().expect("receiver already running");
            let senders = self.senders.clone();
            let stats = self.stats.clone();
            let epoch = self.epoch;
            let node = NodeId::from(i);
            // Same per-node seed derivation as `simnet::Simulation`, so a
            // protocol actor sees an identical RNG stream for a given
            // (master seed, node) pair on either substrate.
            let seed = simnet::derive_node_seed(self.seed, i);
            let done = done_tx.clone();
            handles.push(std::thread::spawn(move || {
                let mut outbound = move |to: NodeId, msg: M| {
                    if let Some(tx) = senders.get(to.index()) {
                        let _ = tx.send(Inbound::Deliver { from: node, msg });
                    }
                };
                node_loop(node, actor, rx, &mut outbound, stats, epoch, seed);
                let _ = done.send(());
            }));
        }

        std::thread::sleep(duration);
        for tx in &self.senders {
            let _ = tx.send(Inbound::Stop);
        }
        for h in handles {
            let _ = h.join();
        }
        drop(done_rx);
        self.stats.lock().clone()
    }
}

/// The per-node event loop shared by every real-thread substrate: fires
/// due timers, takes what is in the inbox, and only when the inbox is
/// empty flushes `out` and blocks up to the next deadline. `Effect::Send`
/// goes through `out` — a channel push for the in-process [`Runtime`], an
/// encode onto the peer's output buffer for [`net::NetRuntime`], which
/// therefore pays its socket writes once per wake-up and not once per
/// message.
pub(crate) fn node_loop<M: Message + Send>(
    node: NodeId,
    mut actor: Box<dyn Actor<M> + Send>,
    rx: Receiver<Inbound<M>>,
    out: &mut impl Outbound<M>,
    stats: Arc<Mutex<RuntimeStats>>,
    epoch: Instant,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut timers: BinaryHeap<PendingTimer> = BinaryHeap::new();
    let mut cancelled: HashSet<u64> = HashSet::new();
    let mut timer_seq: u64 = (node.0 as u64) << 40; // per-node unique ids
    let mut effects: Vec<Effect<M>> = Vec::new();
    let mut delivered = 0u64;
    let mut fired = 0u64;
    // Handler runs since the last flush.
    let mut unflushed = 0u32;

    let now_sim = |epoch: Instant| SimTime::from_nanos(epoch.elapsed().as_nanos() as u64);

    // on_start
    {
        let mut ctx = Context::new(now_sim(epoch), node, &mut rng, &mut effects, &mut timer_seq);
        actor.on_start(&mut ctx);
    }
    apply_effects(&mut effects, out, &mut timers, &mut cancelled);
    out.flush();

    loop {
        // Fire due timers first.
        while let Some(t) = timers.peek() {
            if t.at > Instant::now() {
                break;
            }
            let t = timers.pop().expect("peeked");
            if cancelled.remove(&t.id.0) {
                continue;
            }
            fired += 1;
            let mut ctx =
                Context::new(now_sim(epoch), node, &mut rng, &mut effects, &mut timer_seq);
            actor.on_timer(t.id, t.kind, &mut ctx);
            apply_effects(&mut effects, out, &mut timers, &mut cancelled);
            flush_if_due(out, &mut unflushed);
        }

        let inbound = match rx.try_recv() {
            Ok(m) => m,
            Err(TryRecvError::Disconnected) => break,
            Err(TryRecvError::Empty) => {
                // About to block: everything the handlers since the
                // last wake-up produced leaves now.
                out.flush();
                unflushed = 0;
                match timers.peek().map(|t| t.at) {
                    Some(at) => {
                        let timeout = at.saturating_duration_since(Instant::now());
                        match rx.recv_timeout(timeout) {
                            Ok(m) => m,
                            Err(RecvTimeoutError::Timeout) => continue, // timer due
                            Err(RecvTimeoutError::Disconnected) => break,
                        }
                    }
                    None => match rx.recv() {
                        Ok(m) => m,
                        Err(_) => break,
                    },
                }
            }
        };

        match inbound {
            Inbound::Stop => break,
            Inbound::Deliver { from, msg } => {
                delivered += 1;
                let mut ctx =
                    Context::new(now_sim(epoch), node, &mut rng, &mut effects, &mut timer_seq);
                actor.on_message(from, msg, &mut ctx);
                apply_effects(&mut effects, out, &mut timers, &mut cancelled);
                flush_if_due(out, &mut unflushed);
            }
        }
    }

    let mut s = stats.lock();
    s.msgs_delivered += delivered;
    s.timers_fired += fired;
}

/// Count one handler run and flush when [`FLUSH_EVERY`] have gone by.
fn flush_if_due<M>(out: &mut impl Outbound<M>, unflushed: &mut u32) {
    *unflushed += 1;
    if *unflushed >= FLUSH_EVERY {
        out.flush();
        *unflushed = 0;
    }
}

fn apply_effects<M: Message + Send>(
    effects: &mut Vec<Effect<M>>,
    out: &mut impl Outbound<M>,
    timers: &mut BinaryHeap<PendingTimer>,
    cancelled: &mut HashSet<u64>,
) {
    for effect in effects.drain(..) {
        match effect {
            Effect::Send { to, msg } => out.send(to, msg),
            Effect::SetTimer { id, delay, kind } => {
                timers.push(PendingTimer {
                    at: Instant::now() + Duration::from_nanos(delay.as_nanos()),
                    id,
                    kind,
                });
            }
            Effect::CancelTimer(id) => {
                cancelled.insert(id.0);
            }
            Effect::Charge(_) => {
                // Real CPU time is really spent; nothing to account.
                let _ = SimDuration::ZERO;
            }
            Effect::Control(_) => {
                // Fault injection is a simulator facility; real threads
                // have no crash/partition switchboard. Dropped so that
                // nemesis-bearing actor sets still run under threads
                // (they just run fault-free).
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
