//! Reproducibility: the whole stack is deterministic given a seed.

use epaxos::EpaxosConfig;
use paxi::Experiment;
use paxos::PaxosConfig;
use pigpaxos::PigConfig;
use simnet::{Control, NodeId, SimDuration};

fn exp<P: paxi::ProtocolSpec>(proto: P) -> Experiment<P> {
    Experiment::lan(proto, 9)
        .clients(4)
        .warmup(SimDuration::from_millis(200))
        .measure(SimDuration::from_millis(600))
}

#[test]
fn same_seed_same_results_pigpaxos() {
    let a = exp(PigConfig::lan(3)).run_sim(42);
    let b = exp(PigConfig::lan(3)).run_sim(42);
    assert_eq!(a.client.samples, b.client.samples);
    assert_eq!(a.protocol.decided(), b.protocol.decided());
    assert_eq!(a.transport.node_msgs, b.transport.node_msgs);
    assert_eq!(a.client.throughput, b.client.throughput);
    assert_eq!(a.client.mean_latency_ms, b.client.mean_latency_ms);
}

#[test]
fn same_seed_same_results_paxos() {
    let a = exp(PaxosConfig::lan()).run_sim(7);
    let b = exp(PaxosConfig::lan()).run_sim(7);
    assert_eq!(a.client.samples, b.client.samples);
    assert_eq!(a.transport.node_msgs, b.transport.node_msgs);
}

#[test]
fn same_seed_same_trace_fingerprint_with_batching() {
    // Regression for the batching subsystem: the batch flush timer and
    // the P2aBatch/P2bBatch paths must stay on the deterministic
    // schedule. Two identically-seeded runs must produce bit-identical
    // message traces, hashed by the simulator.
    let batch = || paxi::BatchConfig::new(8, SimDuration::from_micros(200));
    let run_once = |protocol: u8| match protocol {
        0 => exp(PaxosConfig::lan().with_batch(batch()))
            .capture_trace()
            .run_sim(42),
        _ => exp(PigConfig::lan(3).with_batch(batch()))
            .capture_trace()
            .run_sim(42),
    };
    for protocol in [0, 1] {
        let a = run_once(protocol);
        let b = run_once(protocol);
        let fa = a.transport.trace.expect("trace captured").fingerprint;
        let fb = b.transport.trace.expect("trace captured").fingerprint;
        assert_eq!(
            fa, fb,
            "batched runs must be trace-identical under one seed"
        );
        assert_ne!(
            fa, 0xcbf2_9ce4_8422_2325,
            "fingerprint of a non-empty trace"
        );
        assert_eq!(a.client.samples, b.client.samples);
        assert_eq!(a.transport.node_msgs, b.transport.node_msgs);
        assert!(
            a.protocol.violations().is_empty(),
            "{:?}",
            a.protocol.violations()
        );
    }
}

#[test]
fn different_seeds_differ() {
    let a = exp(PigConfig::lan(3)).run_sim(1);
    let b = exp(PigConfig::lan(3)).run_sim(2);
    // Equal aggregate metrics across different seeds would suggest the
    // seed is ignored somewhere.
    assert_ne!(
        a.transport.node_msgs, b.transport.node_msgs,
        "different seeds should produce different message interleavings"
    );
}

// ---- golden runs: a cross-commit safety net ------------------------------
//
// The tests above compare a run with itself; these compare it with a
// recording. Each fixes a configuration and a seed and pins the message
// trace fingerprint, the decided-slot count and every node's message
// count, so a refactor of the replica code that moves a single send,
// timer or rng draw fails here. To re-record after an *intended*
// behaviour change, run with `--nocapture` and paste the printed line.

struct Golden {
    fingerprint: u64,
    decided: u64,
    node_msgs: &'static [u64],
}

fn check_golden(name: &str, r: &paxi::RunResult, want: Golden) {
    let fingerprint = r.transport.trace.expect("trace captured").fingerprint;
    println!(
        "{name}: Golden {{ fingerprint: {fingerprint:#018x}, decided: {}, node_msgs: &{:?} }}",
        r.protocol.decided(),
        r.transport.node_msgs
    );
    assert!(
        r.protocol.violations().is_empty(),
        "{name}: {:?}",
        r.protocol.violations()
    );
    assert_eq!(r.protocol.decided(), want.decided, "{name}: decided slots");
    assert_eq!(
        r.transport.node_msgs, want.node_msgs,
        "{name}: per-node messages"
    );
    assert_eq!(fingerprint, want.fingerprint, "{name}: trace fingerprint");
}

fn golden_exp<P: paxi::ProtocolSpec>(proto: P, n: usize) -> Experiment<P> {
    Experiment::lan(proto, n)
        .clients(8)
        .warmup(SimDuration::from_millis(200))
        .measure(SimDuration::from_millis(400))
        .capture_trace()
}

fn batch16() -> paxi::BatchConfig {
    paxi::BatchConfig::new(16, SimDuration::from_micros(200))
}

#[test]
fn golden_paxos_n5_batched() {
    let r = golden_exp(PaxosConfig::lan().with_batch(batch16()), 5).run_sim(42);
    check_golden(
        "paxos n=5 B=16",
        &r,
        Golden {
            fingerprint: 0x9d43_b3a3_cb31_c742,
            decided: 2848,
            node_msgs: &[
                5773, 494, 494, 494, 494, 476, 476, 476, 476, 476, 476, 476, 476,
            ],
        },
    );
}

#[test]
fn golden_pig_n9_batched_reply_coalescing() {
    let batch = batch16().with_reply_coalescing();
    let r = golden_exp(PigConfig::lan(3).with_batch(batch), 9)
        .client_pipeline(4)
        .run_sim(42);
    check_golden(
        "pig n=9 r=3 B=16 coalesced replies",
        &r,
        Golden {
            fingerprint: 0x349f_2485_c407_737c,
            decided: 5024,
            node_msgs: &[
                5917, 772, 703, 725, 722, 752, 724, 657, 663, 529, 553, 557, 628, 624, 624, 525,
                557,
            ],
        },
    );
}

#[test]
fn golden_pig_n25_follower_crash() {
    let r = golden_exp(PigConfig::lan(3), 25)
        .fault(SimDuration::from_millis(100), Control::Crash(NodeId(5)))
        .run_sim(42);
    check_golden(
        "pig n=25 r=3 follower crash",
        &r,
        Golden {
            fingerprint: 0x3006_93ce_4195_2b8e,
            decided: 2488,
            node_msgs: &[
                13191, 5695, 5672, 5538, 5902, 0, 5437, 5718, 5373, 6372, 6470, 6127, 6022, 6357,
                6462, 6239, 6155, 6385, 6715, 6197, 6449, 6049, 6162, 6008, 6239, 414, 414, 414,
                414, 414, 414, 416, 414,
            ],
        },
    );
}

/// The `ablation_partial` figure's threshold row: one crashed member in
/// two of the three relay groups, so every commit waits on a relay
/// that answers at its threshold of 5 votes or at its timeout.
#[test]
fn golden_pig_n25_partial_threshold_two_crashes() {
    let mut cfg = PigConfig::lan(3);
    cfg.partial_threshold = Some(5);
    let at = SimDuration::from_millis(50);
    let r = golden_exp(cfg, 25)
        .clients(10)
        .fault(at, Control::Crash(NodeId(5)))
        .fault(at, Control::Crash(NodeId(12)))
        .run_sim(42);
    check_golden(
        "pig n=25 r=3 partial threshold 5, two crashes",
        &r,
        Golden {
            fingerprint: 0x58a9_934f_bb4f_d397,
            decided: 343,
            node_msgs: &[
                977, 336, 413, 304, 233, 0, 280, 375, 322, 243, 363, 341, 0, 328, 293, 408, 343,
                388, 381, 410, 304, 291, 380, 409, 434, 18, 20, 20, 18, 18, 18, 20, 18, 18, 20,
            ],
        },
    );
}

#[test]
fn golden_pig_n5_pqr_probe_batching() {
    let probes = paxi::BatchConfig::adaptive(16, SimDuration::from_micros(2500));
    let r = golden_exp(PigConfig::lan(2).with_pqr().with_probe_batch(probes), 5).run_sim(42);
    check_golden(
        "pig n=5 r=2 pqr + probe batching",
        &r,
        Golden {
            fingerprint: 0xc3b1_ef44_837f_843b,
            decided: 1634,
            node_msgs: &[
                8475, 6298, 6118, 6126, 6282, 616, 622, 644, 620, 618, 672, 616, 624,
            ],
        },
    );
}

#[test]
fn golden_epaxos_n5() {
    let r = golden_exp(EpaxosConfig::default(), 5).run_sim(42);
    check_golden(
        "epaxos n=5",
        &r,
        Golden {
            fingerprint: 0xff98_5cf3_b24b_a8a6,
            decided: 927,
            node_msgs: &[
                3285, 3415, 2898, 3165, 3243, 150, 146, 160, 150, 150, 160, 156, 156,
            ],
        },
    );
}

// Two more than the four steady-state paths: re-election, abdication,
// snapshot catch-up and the less-travelled dissemination options all
// run through handlers the steady state never reaches.

/// Clients spread over all `n` replicas; the leader crashes at 400 ms
/// and comes back, deposed, at 900 ms.
fn leader_crash_and_recover<P: paxi::ProtocolSpec>(proto: P, n: u32) -> paxi::RunResult {
    golden_exp(proto, n as usize)
        .measure(SimDuration::from_millis(1300))
        .target(paxi::TargetPolicy::Random((0..n).map(NodeId).collect()))
        .fault(SimDuration::from_millis(400), Control::Crash(NodeId(0)))
        .fault(SimDuration::from_millis(900), Control::Recover(NodeId(0)))
        .run_sim(42)
}

/// The shape the `sim-failover` benchmark had to avoid: a PigPaxos
/// leader crash and restart under pipelined clients, whose out-of-order
/// arrivals the leader holds and, when deposed, hands back. Every
/// `HashMap` draws fresh hash keys, so state iterated in hash order
/// shows up as two runs of one process that disagree.
#[test]
fn pig_leader_crash_with_pipelined_clients_repeats_in_one_process() {
    let run = || {
        let cfg = PigConfig::lan(2).with_snapshots(paxi::SnapshotConfig::every_ops(1000));
        golden_exp(cfg, 5)
            .clients(4)
            .client_pipeline(8)
            .measure(SimDuration::from_millis(1300))
            .fault(SimDuration::from_millis(400), Control::Crash(NodeId(0)))
            .fault(SimDuration::from_millis(900), Control::Recover(NodeId(0)))
            .run_sim(42)
    };
    let first = run();
    assert!(first.protocol.violations().is_empty());
    for _ in 0..3 {
        let again = run();
        assert_eq!(
            again.transport.trace.expect("captured").fingerprint,
            first.transport.trace.expect("captured").fingerprint
        );
        assert_eq!(again.protocol.decided(), first.protocol.decided());
    }
}

#[test]
fn golden_paxos_n5_thrifty_snapshots_leader_crash() {
    let mut cfg = PaxosConfig::lan().with_snapshots(paxi::SnapshotConfig::every_ops(50));
    cfg.thrifty = true;
    check_golden(
        "paxos n=5 thrifty + snapshots, leader crash/recover",
        &leader_crash_and_recover(cfg, 5),
        Golden {
            fingerprint: 0x33c5_e3ef_d56e_27c2,
            decided: 2373,
            node_msgs: &[
                7066, 4267, 3176, 587, 603, 586, 595, 565, 574, 593, 562, 576, 585,
            ],
        },
    );
}

#[test]
fn golden_pig_n13_two_level_threshold_leader_crash() {
    let mut cfg = PigConfig::lan(2)
        .with_batch(batch16())
        .with_snapshots(paxi::SnapshotConfig::every_ops(50));
    cfg.levels = 2;
    cfg.partial_threshold = Some(4);
    cfg.reshuffle_interval = Some(SimDuration::from_millis(150));
    check_golden(
        "pig n=13 r=2 two-level, threshold, reshuffle, leader crash/recover",
        &leader_crash_and_recover(cfg, 13),
        Golden {
            fingerprint: 0xbf04_99a6_4f3d_f92d,
            decided: 1541,
            node_msgs: &[
                3324, 2084, 2118, 2126, 2137, 2100, 2265, 2232, 2100, 2104, 2051, 2167, 3543, 504,
                446, 494, 449, 497, 492, 504, 436,
            ],
        },
    );
}
