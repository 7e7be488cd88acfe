//! Substrate parity, demonstrated: the *same* `Experiment` value runs
//! once on the deterministic simulator, once as a real cluster — one
//! readiness loop per core, messages passed in memory, wall-clock
//! timers — and once on the same loops over real loopback TCP sockets
//! with every message encoded to its wire bytes, through the same
//! builder, with machine-checked safety on all three.
//!
//! ```sh
//! cargo run --release --example real_cluster
//! ```

use paxi::Experiment;
use pigpaxos::PigConfig;
use simnet::SimDuration;
use std::time::Duration;

fn main() {
    let quick = std::env::var_os("PIG_QUICK").is_some();
    let wall = Duration::from_millis(if quick { 500 } else { 2000 });

    let experiment = Experiment::lan(PigConfig::lan(3), 9)
        .clients(8)
        .warmup(SimDuration::from_millis(200))
        .measure(SimDuration::from_nanos(wall.as_nanos() as u64));

    println!("one experiment, three substrates (9 PigPaxos replicas, 8 clients)\n");

    let sim = experiment.run_sim(42);
    assert!(
        sim.protocol.violations().is_empty(),
        "simulator run must be safe"
    );

    println!("running the same replicas on real threads for {wall:?}…");
    let threads = experiment.run_threads(42, wall);
    assert!(
        threads.protocol.violations().is_empty(),
        "thread run must be safe"
    );

    println!("running the same replicas over loopback TCP for {wall:?}…");
    let net = experiment.run_net(42, wall);
    assert!(net.protocol.violations().is_empty(), "net run must be safe");

    println!(
        "\n  {:<18} {:>14} {:>14} {:>14}",
        "", "simulator", "real threads", "loopback tcp"
    );
    println!(
        "  {:<18} {:>14.0} {:>14.0} {:>14.0}",
        "throughput (req/s)",
        sim.client.throughput,
        threads.client.throughput,
        net.client.throughput
    );
    println!(
        "  {:<18} {:>14.2} {:>14.3} {:>14.3}",
        "mean latency (ms)",
        sim.client.mean_latency_ms,
        threads.client.mean_latency_ms,
        net.client.mean_latency_ms
    );
    println!(
        "  {:<18} {:>14} {:>14} {:>14}",
        "slots decided",
        sim.protocol.decided(),
        threads.protocol.decided(),
        net.protocol.decided()
    );
    println!("  {:<18} {:>14} {:>14} {:>14}", "safety", "OK", "OK", "OK");
    let moved: u64 = net.transport.node_msgs.iter().sum();
    println!(
        "\n(thread/net latencies are in-process hops — microseconds, not the \
         simulator's modeled LAN RTT; the TCP run moved {moved} wire-encoded \
         messages across {} sockets)",
        net.transport.node_msgs.len()
    );
}
