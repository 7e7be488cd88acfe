//! Structural validation of the communication flows via message traces:
//! not just "does it commit", but "does the traffic have exactly the
//! shape the paper describes". Label counts come straight from
//! [`paxi::TransportResult::label_counts`]; only the per-destination
//! aggregation check still drives the simulator by hand (through the
//! same `ProtocolSpec` factory the experiment uses).

use paxi::{Experiment, ProtocolSpec, RunResult};
use paxos::PaxosConfig;
use pigpaxos::PigConfig;
use simnet::{NodeId, SimDuration};

fn traced<P: ProtocolSpec>(proto: P, n: usize, clients: usize) -> RunResult {
    Experiment::lan(proto, n)
        .clients(clients)
        // No warmup: per-op ratios want the whole trace window.
        .warmup(SimDuration::ZERO)
        .measure(SimDuration::from_millis(800))
        .capture_trace()
        .run_sim(paxi::DEFAULT_SEED)
}

#[test]
fn pigpaxos_leader_sends_exactly_r_relay_messages_per_round() {
    let n = 25;
    let r = 3;
    let res = traced(PigConfig::lan(r), n, 4);
    assert!(
        res.protocol.violations().is_empty(),
        "{:?}",
        res.protocol.violations()
    );
    assert!(
        res.client.samples > 200,
        "need enough ops to average over, got {}",
        res.client.samples
    );
    let to_relay_per_op = res.label_per_op("to_relay").expect("trace captured");
    // One ToRelay per group per proposal (heartbeats add a small floor).
    assert!(
        (to_relay_per_op - r as f64).abs() < 0.5,
        "expected ≈{r} ToRelay per op, got {to_relay_per_op:.2}"
    );
    // Each relay forwards the P2a to its group peers: (n-1-r) direct
    // copies per proposal.
    let p2a_per_op = res.label_per_op("p2a").expect("trace captured");
    let expect_fanout = (n - 1 - r) as f64;
    assert!(
        (p2a_per_op - expect_fanout).abs() < 2.0,
        "expected ≈{expect_fanout} relayed p2a per op, got {p2a_per_op:.2}"
    );
    // Fan-in: every follower answers its relay (singleton p2b), and each
    // relay sends one aggregate to the leader: (n-1-r) + r = n-1.
    let p2b_per_op = res.label_per_op("p2b").expect("trace captured");
    assert!(
        (p2b_per_op - (n - 1) as f64).abs() < 2.0,
        "expected ≈{} p2b per op, got {p2b_per_op:.2}",
        n - 1
    );
}

#[test]
fn paxos_leader_broadcasts_to_every_follower() {
    let n = 9;
    let res = traced(PaxosConfig::lan(), n, 4);
    assert!(res.client.samples > 200);
    let p2a_per_op = res.label_per_op("p2a").expect("trace captured");
    let p2b_per_op = res.label_per_op("p2b").expect("trace captured");
    assert!(
        (p2a_per_op - (n - 1) as f64).abs() < 1.0,
        "direct Paxos sends n-1 p2a per op, got {p2a_per_op:.2}"
    );
    assert!(
        (p2b_per_op - (n - 1) as f64).abs() < 1.0,
        "and receives n-1 p2b per op, got {p2b_per_op:.2}"
    );
}

/// A PigPaxos cluster of `n` replicas plus `clients` closed-loop
/// clients (each keeping `pipeline` requests outstanding) on a traced
/// simulator, built by hand so a test can read the raw per-destination
/// trace — replicas still come from the same `ProtocolSpec` factory the
/// experiment uses.
fn traced_pig_sim(
    cfg: PigConfig,
    n: usize,
    clients: usize,
    pipeline: usize,
) -> (
    simnet::Simulation<paxi::Envelope<pigpaxos::PigMsg>>,
    paxi::ClusterConfig,
    paxi::ClientRecorder,
) {
    let mut topo = simnet::Topology::lan(n);
    topo.add_nodes(clients, 0);
    let mut sim =
        simnet::Simulation::new(topo, simnet::CpuCostModel::calibrated(), paxi::DEFAULT_SEED);
    let cluster = paxi::ClusterConfig::new(n);
    for i in 0..n {
        sim.add_actor(cfg.build_replica(NodeId::from(i), &cluster));
    }
    let recorder = paxi::ClientRecorder::new();
    for _ in 0..clients {
        let client = paxi::ClosedLoopClient::<pigpaxos::PigMsg>::new(
            paxi::TargetPolicy::Fixed(NodeId(0)),
            paxi::Workload::paper_default(),
            recorder.clone(),
            SimDuration::from_millis(100),
        );
        sim.add_actor(Box::new(client.with_pipeline(pipeline)));
    }
    sim.enable_trace();
    (sim, cluster, recorder)
}

#[test]
fn aggregation_means_leader_receives_few_large_p2bs() {
    // The leader-facing p2b traffic in PigPaxos consists of r aggregates
    // per op; verify by counting p2b deliveries *to the leader* only.
    let n = 25;
    let r = 2;
    let (mut sim, cluster, recorder) = traced_pig_sim(PigConfig::lan(r), n, 4, 1);
    sim.run_for(SimDuration::from_millis(800));
    cluster.safety.assert_safe();
    let ops = recorder.len().max(1);
    let to_leader_p2b = sim
        .trace()
        .expect("enabled")
        .entries()
        .iter()
        .filter(|e| !e.dropped && e.to == NodeId(0) && e.label == "p2b")
        .count();
    let per_op = to_leader_p2b as f64 / ops as f64;
    assert!(
        (per_op - r as f64).abs() < 0.3,
        "leader should receive ≈{r} aggregated p2b per op, got {per_op:.2}"
    );
}

#[test]
fn each_relay_sends_one_uplink_per_batched_round() {
    // n = 25 in r = 3 groups of 8: a relay forwards each batched
    // `ToRelay` from the leader as 7 `p2a_batch` copies to its group
    // and owes the leader exactly one `p2b_batch` for that round.
    let n = 25;
    let r = 3;
    let group_peers = (n - 1) / r - 1;
    let clients = n..n + 4;
    let cfg =
        PigConfig::lan(r).with_batch(paxi::BatchConfig::new(16, SimDuration::from_micros(200)));
    let (mut sim, cluster, recorder) = traced_pig_sim(cfg, n, clients.len(), 8);
    sim.run_for(SimDuration::from_millis(600));
    // Stop the load and let every round in flight finish, so each one
    // the relays forwarded has had the chance to answer.
    for c in clients {
        sim.apply(simnet::Control::Crash(NodeId::from(c)));
    }
    sim.run_for(SimDuration::from_millis(100));
    cluster.safety.assert_safe();
    assert!(recorder.len() > 500, "only {} ops", recorder.len());

    let leader = NodeId(0);
    let mut forwarded = vec![0usize; n];
    let mut uplinks = vec![0usize; n];
    for e in sim.trace().expect("enabled").entries() {
        assert!(
            !e.dropped || e.to.0 as usize >= n,
            "no replica traffic is lost"
        );
        match e.label {
            "p2a_batch" if e.from != leader => forwarded[e.from.0 as usize] += 1,
            "p2b_batch" if e.to == leader => uplinks[e.from.0 as usize] += 1,
            _ => {}
        }
    }
    let rounds: usize = forwarded.iter().sum::<usize>() / group_peers;
    assert!(rounds > 3 * 50, "only {rounds} batched relay rounds");
    for relay in 1..n {
        assert_eq!(
            forwarded[relay],
            group_peers * uplinks[relay],
            "relay n{relay}: {} batched rounds forwarded, {} uplinks to the leader",
            forwarded[relay] / group_peers,
            uplinks[relay]
        );
    }
}
