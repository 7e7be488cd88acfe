//! Cross-protocol integration tests: the paper's headline comparisons,
//! asserted as invariants rather than eyeballed from figures.
//!
//! The suite is generic over [`paxi::ProtocolSpec`]: every protocol
//! passes the *identical* invariant/safety battery through the unified
//! [`Experiment`] entry point — no per-protocol copies — and the
//! comparative tests differ only in which config value they pass.

use epaxos::EpaxosConfig;
use paxi::{Experiment, ProtocolSpec};
use paxos::PaxosConfig;
use pigpaxos::PigConfig;
use simnet::SimDuration;

fn exp<P: ProtocolSpec>(proto: P, n: usize) -> Experiment<P> {
    Experiment::lan(proto, n)
        .warmup(SimDuration::from_millis(300))
        .measure(SimDuration::from_millis(900))
}

const SWEEP: &[usize] = &[40, 160];

/// The protocol-generic invariant/safety suite: agreement is
/// machine-checked, the cluster makes real progress, latency
/// percentiles are ordered, and a fixed seed reproduces the run
/// bit-for-bit. Every protocol must pass it unchanged.
fn invariant_suite<P: ProtocolSpec>(proto: P, n: usize) {
    let e = exp(proto, n).clients(6);
    let r = e.run_sim(paxi::DEFAULT_SEED);
    let name = e.protocol().protocol_name();
    assert!(
        r.protocol.violations().is_empty(),
        "{name}: {:?}",
        r.protocol.violations()
    );
    assert!(
        r.client.throughput > 100.0,
        "{name}: {}",
        r.client.throughput
    );
    assert!(r.client.samples > 50, "{name}: {}", r.client.samples);
    assert!(
        r.protocol.decided() > 50,
        "{name}: {}",
        r.protocol.decided()
    );
    assert!(
        r.client.p99_latency_ms >= r.client.p50_latency_ms && r.client.p50_latency_ms > 0.0,
        "{name}: percentiles out of order"
    );
    // Determinism is part of the contract, per protocol.
    let again = e.run_sim(paxi::DEFAULT_SEED);
    assert_eq!(
        r.client.samples, again.client.samples,
        "{name}: nondeterministic"
    );
    assert_eq!(
        r.transport.node_msgs, again.transport.node_msgs,
        "{name}: nondeterministic"
    );
}

#[test]
fn invariants_paxos() {
    invariant_suite(PaxosConfig::lan(), 9);
}

#[test]
fn invariants_pigpaxos() {
    invariant_suite(PigConfig::lan(3), 9);
}

#[test]
fn invariants_epaxos() {
    invariant_suite(EpaxosConfig::default(), 9);
}

#[test]
fn pigpaxos_beats_paxos_by_3x_at_25_nodes() {
    let paxos = exp(PaxosConfig::lan(), 25).max_throughput(paxi::DEFAULT_SEED, SWEEP);
    let pig = exp(PigConfig::lan(3), 25).max_throughput(paxi::DEFAULT_SEED, SWEEP);
    assert!(
        pig > paxos * 3.0,
        "paper claims >3x: PigPaxos {pig:.0} vs Paxos {paxos:.0}"
    );
}

#[test]
fn epaxos_saturates_below_paxos_at_25_nodes() {
    let paxos = exp(PaxosConfig::lan(), 25).max_throughput(paxi::DEFAULT_SEED, SWEEP);
    let ep = exp(EpaxosConfig::default(), 25).max_throughput(paxi::DEFAULT_SEED, SWEEP);
    assert!(
        ep < paxos,
        "paper Fig 8 ordering: EPaxos ({ep:.0}) below Paxos ({paxos:.0})"
    );
}

#[test]
fn paxos_has_lower_latency_at_low_load() {
    // Paper: PigPaxos pays ~30% extra latency at low load (the relay hop).
    let paxos = exp(PaxosConfig::lan(), 25)
        .clients(1)
        .run_sim(paxi::DEFAULT_SEED);
    let pig = exp(PigConfig::lan(3), 25)
        .clients(1)
        .run_sim(paxi::DEFAULT_SEED);
    assert!(
        pig.client.mean_latency_ms > paxos.client.mean_latency_ms * 1.1,
        "relay hop must cost latency: pig {:.2}ms vs paxos {:.2}ms",
        pig.client.mean_latency_ms,
        paxos.client.mean_latency_ms
    );
    assert!(
        pig.client.mean_latency_ms < paxos.client.mean_latency_ms * 2.0,
        "but not more than ~2x at low load: pig {:.2}ms vs paxos {:.2}ms",
        pig.client.mean_latency_ms,
        paxos.client.mean_latency_ms
    );
}

#[test]
fn fewer_relay_groups_higher_throughput() {
    // Fig 7's monotone shape, spot-checked at the extremes. The sweep
    // over the relay-group axis is a loop, not two binaries.
    let tput = |r: usize| exp(PigConfig::lan(r), 25).max_throughput(paxi::DEFAULT_SEED, SWEEP);
    let (r2, r6) = (tput(2), tput(6));
    assert!(
        r2 > r6 * 1.4,
        "r=2 ({r2:.0}) must clearly beat r=6 ({r6:.0})"
    );
}

#[test]
fn pigpaxos_benefits_extend_to_small_clusters() {
    // Paper §5.5 / Fig 10-11.
    let paxos = exp(PaxosConfig::lan(), 5).max_throughput(paxi::DEFAULT_SEED, SWEEP);
    let pig = exp(PigConfig::lan(2), 5).max_throughput(paxi::DEFAULT_SEED, SWEEP);
    assert!(
        pig > paxos * 1.2,
        "PigPaxos must win even at 5 nodes: {pig:.0} vs {paxos:.0}"
    );
}

#[test]
fn paxos_throughput_decays_with_cluster_size_pigpaxos_does_not() {
    let paxos = |n| exp(PaxosConfig::lan(), n).max_throughput(paxi::DEFAULT_SEED, SWEEP);
    let pig = |n| exp(PigConfig::lan(2), n).max_throughput(paxi::DEFAULT_SEED, SWEEP);
    let (paxos9, paxos25) = (paxos(9), paxos(25));
    let (pig9, pig25) = (pig(9), pig(25));
    assert!(
        paxos9 > paxos25 * 1.8,
        "Paxos decays ~1/N: {paxos9:.0} vs {paxos25:.0}"
    );
    assert!(
        pig25 > pig9 * 0.85,
        "PigPaxos stays nearly flat: {pig9:.0} vs {pig25:.0}"
    );
}

#[test]
fn measured_message_loads_match_analytical_model() {
    // §6.1: the simulator's counters must agree with Eq. 1 and Eq. 3.
    for r in [2usize, 4] {
        let res = exp(PigConfig::lan(r), 25)
            .clients(10)
            .run_sim(paxi::DEFAULT_SEED);
        let ml = analytical::leader_load(r);
        let mf = analytical::follower_load(25, r);
        assert!(
            (res.transport.leader_msgs_per_op - ml).abs() < 0.8,
            "r={r}: measured Ml {:.2} vs model {ml:.2}",
            res.transport.leader_msgs_per_op
        );
        assert!(
            (res.transport.follower_msgs_per_op - mf).abs() < 0.5,
            "r={r}: measured Mf {:.2} vs model {mf:.2}",
            res.transport.follower_msgs_per_op
        );
    }
}
