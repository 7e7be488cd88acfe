//! The runtimes' threads: one readiness loop per core however many
//! nodes there are, in memory as over TCP, and nothing in either
//! transport sleeps or polls, so a run ends when its wall time does, and
//! every thread it started is joined. One test in a binary of its own —
//! the thread count of the process is only meaningful while no other
//! test runs beside it.

use pig_runtime::{LoopRuntime, NetRunStats, NetRuntime, Runtime};
use simnet::{
    Actor, Context, Message, NodeId, TimerId, Wire, WireError, WireHeader, WirePut, WireReader,
};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Ping;
impl Message for Ping {
    fn wire_size(&self) -> usize {
        self.wire_len()
    }
}
impl Wire for Ping {
    fn put<W: WirePut>(&self, out: &mut W) {
        out.put_wire(&WireHeader::new(9, 0));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        WireHeader::decode(r).map(|_| Ping)
    }
}

/// Pings every other node once and answers every ping, so all
/// `n (n - 1)` directed edges of the mesh exist and stay busy.
struct Mesh {
    n: u32,
}
impl Actor<Ping> for Mesh {
    fn on_start(&mut self, ctx: &mut Context<Ping>) {
        let me = ctx.node();
        for peer in (0..self.n).map(NodeId).filter(|&p| p != me) {
            ctx.send(peer, Ping);
        }
    }
    fn on_message(&mut self, from: NodeId, _m: Ping, ctx: &mut Context<Ping>) {
        ctx.send(from, Ping);
    }
    fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<Ping>) {}
}

fn threads_alive() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// The thread count once it is back to `before`, or after the 100 ms
/// slack a run already has. On a loaded host a joined thread can stay
/// listed for some microseconds: `join` returns when the kernel wakes the
/// joiner, a little before the exiting task is released.
fn threads_settled(before: usize) -> usize {
    let deadline = Instant::now() + Duration::from_millis(100);
    while threads_alive() != before && Instant::now() < deadline {
        std::thread::yield_now();
    }
    threads_alive()
}

/// A runtime's `run_for`.
type RunFor<T> = fn(&mut LoopRuntime<Ping, T>, Duration) -> NetRunStats;

/// Run an `n`-node mesh on `rt` for `wall`; returns how long that took
/// and the most threads the process had while it ran.
fn run_mesh<T: Send>(
    mut rt: LoopRuntime<Ping, T>,
    run_for: RunFor<T>,
    n: u32,
    wall: Duration,
) -> (Duration, usize) {
    for _ in 0..n {
        rt.add_actor(Mesh { n });
    }
    let started = Instant::now();
    let (stats, peak) = std::thread::scope(|scope| {
        let run = scope.spawn(|| run_for(&mut rt, wall));
        let mut peak = 0;
        while !run.is_finished() {
            peak = peak.max(threads_alive());
            std::thread::sleep(Duration::from_millis(1));
        }
        (run.join().expect("the run"), peak)
    });
    let took = started.elapsed();
    assert!(stats.msgs_delivered > 100, "the mesh was busy: {stats:?}");
    assert!(stats.per_node_received.iter().all(|&r| r > 0));
    assert_eq!((stats.decode_errors, stats.frames_dropped), (0, 0));
    (took, peak)
}

#[test]
fn run_for_returns_on_time_and_leaves_no_thread_behind() {
    // 25 nodes (300 to 600 sockets over TCP, as many pairs open at once)
    // are still one loop per core:
    // beside the loops there are this test's thread, the one that calls
    // `run_for`, and the harness's main thread.
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let before = threads_alive();
    let check = |name: &str, run: &dyn Fn(u32, Duration) -> (Duration, usize)| {
        for (n, wall) in [(5, 50), (25, 200)].map(|(n, ms)| (n, Duration::from_millis(ms))) {
            let (took, peak) = run(n, wall);
            assert!(
                took < wall + Duration::from_millis(100),
                "{name}: a {wall:?} run took {took:?}: something waited out a poll interval"
            );
            assert!(
                peak <= cores + 3,
                "{name}: {peak} threads during a {n}-node run on {cores} cores"
            );
            assert_eq!(
                threads_settled(before),
                before,
                "{name}: every thread is joined"
            );
        }
    };
    check("in memory", &|n, wall| {
        run_mesh(Runtime::new(3), Runtime::run_for, n, wall)
    });
    check("tcp", &|n, wall| {
        run_mesh(NetRuntime::new(3), NetRuntime::run_for, n, wall)
    });
}
