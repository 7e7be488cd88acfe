//! End-to-end sharding tests over real protocols: aggregate commits
//! across groups, a linearizable client history spanning a live
//! `ShardMove` and the redirects it causes, and exactly-once decision of
//! every client command across all shard logs.

use epaxos::EpaxosConfig;
use paxi::{ClusterConfig, Experiment, ProtocolSpec, RequestId, RunResult, Workload, DEFAULT_SEED};
use paxos::PaxosConfig;
use pigpaxos::PigConfig;
use simnet::SimDuration;
use std::collections::HashMap;
use std::time::Duration;

/// Every client-issued command (any id from a non-replica node) must
/// appear exactly once across all shard decision logs: nothing lost,
/// nothing executed twice through redirects.
fn assert_exactly_once(groups: &[ClusterConfig], n_replicas: u32) {
    let mut seen: HashMap<RequestId, u64> = HashMap::new();
    for g in groups {
        for ((_space, _slot), id) in g.safety.decisions() {
            if id.client.0 >= n_replicas {
                *seen.entry(id).or_default() += 1;
            }
        }
    }
    assert!(!seen.is_empty(), "no client commands decided at all");
    let dups: Vec<_> = seen.iter().filter(|(_, &n)| n > 1).collect();
    assert!(dups.is_empty(), "commands decided more than once: {dups:?}");
}

fn checker_experiment<P: ProtocolSpec>(proto: P) -> Experiment<P> {
    // 4 shards x 3 replicas over 64 keys (stride 16), every one of them
    // in the routers' workload. The range [32, 48) moves from shard 2 to
    // shard 3 at 600ms, mid-run: its keys are written and read straight
    // through the move, and a router that sends one to the old owner
    // gets a redirect.
    Experiment::lan(proto, 3)
        .shards(4)
        .clients(4)
        .client_pipeline(2)
        .workload(Workload {
            num_keys: 64,
            ..Workload::paper_default()
        })
        .warmup(SimDuration::from_millis(200))
        .measure(SimDuration::from_millis(1800))
        .move_range(SimDuration::from_millis(600), 32, 3)
        .check_linearizability()
}

/// The run's history is linearizable, with more than `min_ops`
/// operations per quarter of the keys (the moving range's share).
fn assert_linearizable(r: &RunResult, min_ops: usize) {
    assert!(
        r.protocol.violations().is_empty(),
        "{:?}",
        r.protocol.violations()
    );
    let h = r.client.history.as_ref().expect("checked");
    assert!(h.linearizable(), "{:?}", h.violations);
    assert_eq!(h.keys, 64);
    // A quarter of the keys move; the routers must have kept them busy
    // straight through the move without stalling.
    assert!(h.ops / 4 > min_ops, "only {} operations completed", h.ops);
}

#[test]
fn sharded_paxos_all_shards_commit_and_converge() {
    let r = Experiment::lan(PaxosConfig::lan(), 3)
        .shards(3)
        .clients(9)
        .warmup(SimDuration::from_millis(500))
        .measure(SimDuration::from_millis(2000))
        .drain(SimDuration::from_millis(500))
        .run_sim(DEFAULT_SEED);
    assert!(
        r.protocol.violations().is_empty(),
        "{:?}",
        r.protocol.violations()
    );
    assert!(
        r.client.throughput > 100.0,
        "throughput {}",
        r.client.throughput
    );
    for (s, group) in r.protocol.groups.iter().enumerate() {
        let decided = group.safety.decided_count();
        assert!(decided > 50, "shard {s} barely committed: {decided}");
    }
    assert_exactly_once(&r.protocol.groups, 9);
    // Sharded runs drain like any other: within each group the
    // replicas end in the same state.
    assert_eq!(
        r.protocol.converged(),
        Some(true),
        "{:?}",
        r.protocol.replica_digests
    );
}

/// The move ships a range cut from the source leader's own store, so
/// every protocol's store is exercised, not only Paxos's.
fn linearizable_across_live_move_sim<P: ProtocolSpec>(proto: P) {
    let r = checker_experiment(proto).run_sim(DEFAULT_SEED);
    assert_linearizable(&r, 300);
    // Routers that had not yet heard of the move sent its keys to the
    // old owner, so redirects must actually have been exercised.
    assert!(r.client.retries > 0, "move never forced a redirect");
    assert_exactly_once(&r.protocol.groups, 12);
}

#[test]
fn per_key_linearizability_across_live_move_sim() {
    linearizable_across_live_move_sim(PaxosConfig::lan());
}

#[test]
fn per_key_linearizability_across_live_move_sim_pigpaxos() {
    linearizable_across_live_move_sim(PigConfig::lan(2));
}

#[test]
fn per_key_linearizability_across_live_move_sim_epaxos() {
    linearizable_across_live_move_sim(EpaxosConfig::default());
}

#[test]
fn per_key_linearizability_across_live_move_threads() {
    let r = checker_experiment(PaxosConfig::lan())
        .run_threads(DEFAULT_SEED, Duration::from_millis(1500));
    // Wall-clock run: looser floor, but the routers must survive the
    // move.
    assert_linearizable(&r, 20);
    assert_exactly_once(&r.protocol.groups, 12);
}
