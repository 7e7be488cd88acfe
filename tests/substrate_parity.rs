//! Substrate parity as a first-class API property: the *same*
//! `Experiment` value — same protocol config, topology, workload, and
//! client population — runs on the deterministic simulator, on real OS
//! threads passing messages in memory (`run_threads`), and over real TCP
//! loopback sockets with full wire encoding (`run_net`), and must make
//! progress with zero safety violations and a linearizable client
//! history on all three. The replica actors are byte-for-byte the same
//! code; only the run method differs, and the two wall-clock ones run on
//! the same loops and report alike.

use epaxos::EpaxosConfig;
use paxi::{Experiment, ProtocolSpec, RunResult};
use paxos::PaxosConfig;
use pigpaxos::PigConfig;
use simnet::SimDuration;
use std::time::Duration;

/// A TCP run is only healthy if every frame decoded and none was
/// dropped — client retries would otherwise paper over either.
fn assert_clean_transport(name: &str, net: &RunResult) {
    let stats = net
        .transport
        .net
        .as_ref()
        .expect("run_net reports its transport");
    assert_eq!(
        (stats.decode_errors, stats.frames_dropped),
        (0, 0),
        "{name} net: decode errors / dropped frames"
    );
}

/// Both wall-clock transports count real traffic: every one of `nodes`
/// nodes moved messages, and deliveries are counted by label.
fn assert_counted(name: &str, run: &RunResult, nodes: usize) {
    assert_eq!(
        run.transport.node_msgs.len(),
        nodes,
        "{name}: replicas + clients"
    );
    assert!(
        run.transport.node_msgs.iter().all(|&m| m > 0),
        "{name}: every node moved messages: {:?}",
        run.transport.node_msgs
    );
    assert!(
        run.transport.label_counts.is_some(),
        "{name}: label counts populated"
    );
}

/// What the clients saw, every operation of the run, is linearizable.
fn assert_linearizable(name: &str, run: &RunResult) {
    let h = run.client.history.as_ref().expect("checked");
    assert!(h.linearizable(), "{name}: {:?}", h.violations);
    assert!(h.ops >= run.client.samples, "{name}: {h:?}");
}

fn assert_parity<P: ProtocolSpec>(proto: P, n: usize, min_thread_ops: usize)
where
    P::Msg: simnet::Wire,
{
    let experiment = Experiment::lan(proto, n)
        .clients(4)
        .warmup(SimDuration::from_millis(200))
        .measure(SimDuration::from_millis(600))
        .check_linearizability();
    let name = experiment.protocol().protocol_name();

    let sim = experiment.run_sim(7);
    assert!(
        sim.protocol.violations().is_empty(),
        "{name} sim: {:?}",
        sim.protocol.violations()
    );
    assert_linearizable(&format!("{name} sim"), &sim);
    assert!(
        sim.client.samples > 100,
        "{name} sim made progress: {}",
        sim.client.samples
    );
    assert!(
        sim.protocol.decided() > 50,
        "{name} sim decided slots: {}",
        sim.protocol.decided()
    );

    let threads = experiment.run_threads(7, Duration::from_millis(500));
    assert!(
        threads.protocol.violations().is_empty(),
        "{name} threads: {:?}",
        threads.protocol.violations()
    );
    assert!(
        threads.client.samples > min_thread_ops,
        "{name} threads made progress: {}",
        threads.client.samples
    );
    assert!(
        threads.protocol.decided() > 0,
        "{name} threads decided slots: {}",
        threads.protocol.decided()
    );
    assert_counted(&format!("{name} threads"), &threads, n + 4);
    assert_linearizable(&format!("{name} threads"), &threads);

    // Third axis: every cross-node message encoded to its wire bytes,
    // shipped over a loopback TCP socket, and decoded on arrival. A
    // protocol only passes if its entire message vocabulary survives a
    // real network round trip under load.
    let net = experiment.run_net(7, Duration::from_millis(500));
    assert!(
        net.protocol.violations().is_empty(),
        "{name} net: {:?}",
        net.protocol.violations()
    );
    assert!(
        net.client.samples > min_thread_ops,
        "{name} net made progress: {}",
        net.client.samples
    );
    assert!(
        net.protocol.decided() > 0,
        "{name} net decided slots: {}",
        net.protocol.decided()
    );
    assert_counted(&format!("{name} net"), &net, n + 4);
    assert_clean_transport(name, &net);
    assert_linearizable(&format!("{name} net"), &net);
}

#[test]
fn pigpaxos_runs_identically_shaped_on_all_three_substrates() {
    assert_parity(PigConfig::lan(2), 5, 50);
}

#[test]
fn paxos_runs_identically_shaped_on_all_three_substrates() {
    assert_parity(PaxosConfig::lan(), 5, 50);
}

#[test]
fn epaxos_runs_identically_shaped_on_all_three_substrates() {
    // EPaxos is leaderless; its default random-target policy carries
    // over to the thread substrate unchanged.
    assert_parity(EpaxosConfig::default(), 5, 20);
}

/// The paper's scale over real sockets: 25 replicas and 8 clients are
/// 33 listeners and several hundred connections, on as many threads as
/// the machine has cores.
fn assert_runs_at_25<P: ProtocolSpec>(proto: P) -> RunResult
where
    P::Msg: simnet::Wire,
{
    let experiment = Experiment::lan(proto, 25).clients(8);
    let name = experiment.protocol().protocol_name();
    let net = experiment.run_net(7, Duration::from_secs(1));
    assert!(
        net.protocol.violations().is_empty(),
        "{name} n=25: {:?}",
        net.protocol.violations()
    );
    assert!(
        net.client.samples > 100,
        "{name} n=25 progressed: {}",
        net.client.samples
    );
    assert!(
        net.protocol.decided() > 100,
        "{name} n=25 decided: {}",
        net.protocol.decided()
    );
    assert_clean_transport(name, &net);
    net
}

#[test]
fn paxos_runs_at_the_papers_scale_over_tcp() {
    assert_runs_at_25(PaxosConfig::lan());
}

#[test]
fn pigpaxos_runs_at_the_papers_scale_over_tcp() {
    let net = assert_runs_at_25(PigConfig::lan(3));
    // Time is accounted per node. Every write passes the leader, so a
    // loop spent at least as long on it as on the median follower; and
    // no loop can have been busy for longer than the run lasted.
    let stats = net.transport.net.as_ref().expect("transport counters");
    let busy = &stats.per_node_busy_ns;
    assert_eq!(busy.len(), 25 + 8);
    let mut followers = busy[1..25].to_vec();
    followers.sort_unstable();
    let median = followers[followers.len() / 2];
    assert!(
        busy[0] > 0 && busy[0] >= median,
        "leader {} ns, median follower {median} ns",
        busy[0]
    );
    let loops = std::thread::available_parallelism()
        .map_or(1, |c| c.get())
        .min(busy.len());
    let wall_ns = 1_100_000_000 * loops as u64;
    let total: u64 = busy.iter().sum();
    assert!(
        total <= wall_ns,
        "{total} ns busy on {loops} loops in a 1 s run"
    );
}

/// The same compaction-enabled `Experiment` value must bound memory on
/// both substrates: snapshots fire, the retained log stays near the
/// interval, and safety holds — on the deterministic simulator and on
/// wall-clock threads alike (compaction triggers are execution-driven,
/// not simulated-time-driven).
fn assert_compaction_parity<P: ProtocolSpec>(proto: P, n: usize, interval: u64) {
    let experiment = Experiment::lan(proto, n)
        .clients(4)
        .warmup(SimDuration::from_millis(200))
        .measure(SimDuration::from_millis(800));
    let name = experiment.protocol().protocol_name();

    let sim = experiment.run_sim(7);
    assert!(
        sim.protocol.violations().is_empty(),
        "{name} sim: {:?}",
        sim.protocol.violations()
    );
    assert!(
        sim.protocol.snapshots_taken() > 0,
        "{name} sim: compaction must fire ({} decided)",
        sim.protocol.decided()
    );
    assert!(
        sim.protocol.max_log_len() <= 2 * interval,
        "{name} sim: peak log {} > 2x interval {interval}",
        sim.protocol.max_log_len()
    );

    let threads = experiment.run_threads(7, Duration::from_millis(600));
    assert!(
        threads.protocol.violations().is_empty(),
        "{name} threads: {:?}",
        threads.protocol.violations()
    );
    assert!(
        threads.protocol.decided() > interval,
        "{name} threads made progress: {}",
        threads.protocol.decided()
    );
    assert!(
        threads.protocol.snapshots_taken() > 0,
        "{name} threads: compaction must fire ({} decided)",
        threads.protocol.decided()
    );
    // Wall-clock substrate: a scheduler stall of a few tens of ms on a
    // loaded box lets the pipelined clients run the log a few hundred
    // slots past the trigger before the executor catches up, so the
    // peak gets more headroom than the deterministic sim bound above.
    // Broken compaction still fails loudly — the peak then tracks the
    // full decided count (thousands), not a handful of intervals.
    assert!(
        threads.protocol.max_log_len() <= 8 * interval,
        "{name} threads: peak log {} > 8x interval {interval} ({} decided)",
        threads.protocol.max_log_len(),
        threads.protocol.decided()
    );
}

#[test]
fn compacting_pigpaxos_bounds_memory_on_both_substrates() {
    assert_compaction_parity(
        PigConfig::lan(2).with_snapshots(paxi::SnapshotConfig::every_ops(50)),
        5,
        50,
    );
}

#[test]
fn compacting_paxos_bounds_memory_on_both_substrates() {
    assert_compaction_parity(
        PaxosConfig::lan().with_snapshots(paxi::SnapshotConfig::every_ops(50)),
        5,
        50,
    );
}

#[test]
fn compacting_epaxos_bounds_memory_on_both_substrates() {
    assert_compaction_parity(
        EpaxosConfig::default().with_snapshots(paxi::SnapshotConfig::every_ops(50)),
        5,
        50,
    );
}

#[test]
fn batched_pigpaxos_safe_on_threads() {
    // The whole batching-v2 pipeline on wall-clock timers: flush
    // timers, reply coalescing, and relay round coalescing must not
    // depend on simulated time to stay safe.
    let cfg = PigConfig::lan(2).with_batch(
        paxi::BatchConfig::adaptive(16, SimDuration::from_micros(200))
            .with_reply_coalescing(SimDuration::ZERO),
    );
    let r = Experiment::lan(cfg, 5)
        .clients(4)
        .client_pipeline(4)
        .run_threads(11, Duration::from_millis(400));
    assert!(
        r.protocol.violations().is_empty(),
        "{:?}",
        r.protocol.violations()
    );
    assert!(
        r.client.samples > 50,
        "batched threads progressed: {}",
        r.client.samples
    );
}
