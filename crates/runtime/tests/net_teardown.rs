//! `NetRuntime`'s threads: one readiness loop per core however many
//! nodes there are, and nothing in the transport sleeps or polls, so a
//! run ends when its wall time does, and every thread it started is
//! joined. One test in a binary of its own — the thread count of the
//! process is only meaningful while no other test runs beside it.

use pig_runtime::NetRuntime;
use simnet::wire::WIRE_HEADER_BYTES;
use simnet::{Actor, Context, Message, NodeId, TimerId, Wire, WireError, WireHeader, WireReader};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Ping;
impl Message for Ping {
    fn wire_size(&self) -> usize {
        WIRE_HEADER_BYTES
    }
}
impl Wire for Ping {
    fn encode_into(&self, out: &mut Vec<u8>) {
        WireHeader::new(9, 0).encode_into(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        WireHeader::decode(r).map(|_| Ping)
    }
}

/// Pings every other node once and answers every ping, so all
/// `n (n - 1)` directed connections of the mesh exist and stay busy.
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

/// Run an `n`-node mesh for `wall`; returns how long that took and the
/// most threads the process had while it ran.
fn run_mesh(n: u32, wall: Duration) -> (Duration, usize) {
    let mut rt: NetRuntime<Ping> = NetRuntime::new(3);
    for _ in 0..n {
        rt.add_actor(Mesh { n });
    }
    let started = Instant::now();
    let (stats, peak) = std::thread::scope(|scope| {
        let run = scope.spawn(|| rt.run_for(wall));
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
    let before = threads_alive();
    let (took, _) = run_mesh(5, Duration::from_millis(50));
    assert!(
        took < Duration::from_millis(150),
        "a 50 ms run took {took:?}: something waited out a poll interval"
    );
    assert_eq!(threads_alive(), before, "every thread is joined");

    // 25 nodes are 600 connections and still one loop per core: beside
    // the loops there are this test's thread, the one that calls
    // `run_for`, and the harness's main thread.
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let (_, peak) = run_mesh(25, Duration::from_millis(200));
    assert!(
        peak <= cores + 3,
        "{peak} threads during a 25-node run on {cores} cores"
    );
    assert_eq!(threads_alive(), before, "every thread is joined");
}
