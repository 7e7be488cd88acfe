//! Quickstart: stand up a 9-node PigPaxos cluster on the deterministic
//! simulator, drive it with closed-loop clients, and print the numbers
//! that matter. One builder call — protocol, topology, and workload are
//! orthogonal axes.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use paxi::Experiment;
use pigpaxos::PigConfig;
use simnet::SimDuration;

fn main() {
    let quick = std::env::var_os("PIG_QUICK").is_some();
    // A 9-replica LAN cluster, 16 closed-loop clients, the paper's
    // default workload (1000 keys, 50/50 read-write, 8-byte values).
    // PigPaxos with 3 relay groups; clients default to the leader.
    let result = Experiment::lan(PigConfig::lan(3), 9)
        .clients(16)
        .warmup(SimDuration::from_millis(500))
        .measure(SimDuration::from_secs(if quick { 1 } else { 2 }))
        .run_sim(paxi::DEFAULT_SEED);

    // Safety is machine-checked on every run.
    assert!(
        result.protocol.violations().is_empty(),
        "no two nodes may disagree on a slot"
    );

    println!("PigPaxos, 9 nodes, 3 relay groups, 16 clients");
    println!("  throughput      {:>8.0} req/s", result.client.throughput);
    println!(
        "  mean latency    {:>8.2} ms",
        result.client.mean_latency_ms
    );
    println!("  p99 latency     {:>8.2} ms", result.client.p99_latency_ms);
    println!("  slots decided   {:>8}", result.protocol.decided());
    println!(
        "  leader load     {:>8.1} msgs/op   (model: {:.1})",
        result.transport.leader_msgs_per_op,
        analytical::leader_load(3)
    );
    println!(
        "  follower load   {:>8.1} msgs/op   (model: {:.1})",
        result.transport.follower_msgs_per_op,
        analytical::follower_load(9, 3)
    );
}
