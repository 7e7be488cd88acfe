//! Chaos-harness integration tests: the client retry-storm regression
//! the capped-backoff bugfix exists for, plus end-to-end coverage of
//! the scenario-file → fault schedule → convergence-check pipeline
//! outside the `scenario` driver binary.

use paxi::{Experiment, TopologyKind};
use simnet::{Control, NodeId, SimDuration};

/// Regression for the fixed-interval retry storm: with a quorum down
/// for a full 2s window, clients used to re-send every `retry_timeout`
/// (100ms), i.e. `clients * 2000/100 = 160` retries. Capped
/// exponential backoff must cut that to no more than half, without
/// giving up entirely (retries still > 0 so recovery is detected).
#[test]
fn backoff_caps_retry_storm_during_quorum_outage() {
    let clients = 8;
    let result = Experiment::lan(paxos::PaxosConfig::lan(), 3)
        .clients(clients)
        .retry_timeout(SimDuration::from_millis(100))
        .warmup(SimDuration::from_millis(300))
        .measure(SimDuration::from_millis(4000))
        // Crash both followers: the leader keeps accepting requests but
        // can never reach quorum, so no client hears a reply.
        .fault(SimDuration::from_millis(500), Control::Crash(NodeId(1)))
        .fault(SimDuration::from_millis(2500), Control::Recover(NodeId(1)))
        .fault(SimDuration::from_millis(500), Control::Crash(NodeId(2)))
        .fault(SimDuration::from_millis(2500), Control::Recover(NodeId(2)))
        .run_sim(paxi::DEFAULT_SEED);

    assert!(
        result.protocol.violations().is_empty(),
        "{:?}",
        result.protocol.violations()
    );
    assert!(
        result.client.samples > 0,
        "no committed samples after recovery"
    );
    let fixed_interval_count = clients as u64 * 2000 / 100;
    assert!(
        result.client.retries > 0,
        "clients must keep probing during the outage"
    );
    assert!(
        result.client.retries <= fixed_interval_count / 2,
        "retry storm not suppressed: {} retries > {} (half the fixed-interval count)",
        result.client.retries,
        fixed_interval_count / 2
    );
}

const PARTITION_SCENARIO: &str = r#"
name = "inline-pig-partition"
protocol = "pigpaxos"
replicas = 5
groups = 2
clients = 6
seed = 77
warmup_ms = 300
measure_ms = 2000
drain_ms = 1500

[[faults]]
at_ms = 700
kind = "partition"
a = [0, 1, 2]
b = [3, 4]

[[faults]]
at_ms = 1500
kind = "heal"

[expect]
converged = true
min_samples = 20
"#;

/// Full pipeline: parse a scenario from text, run it with its fault
/// schedule, and check the scenario's own expectations and the client history —
/// everything the `scenario` binary does, minus the file I/O, so a unit
/// failure localizes to the library layer.
#[test]
fn scenario_text_drives_nemesis_end_to_end() {
    let sc = paxi::scenario::parse(PARTITION_SCENARIO).expect("scenario parses");
    assert_eq!(sc.topology, TopologyKind::Lan);

    let result = sc.run_sim(pigpaxos::PigConfig::lan(sc.groups.unwrap()));
    assert!(
        result.protocol.violations().is_empty(),
        "{:?}",
        result.protocol.violations()
    );
    assert_eq!(
        result.transport.faults_applied,
        Some(sc.scheduled_faults()),
        "every scheduled fault must take effect: {:?}",
        sc.faults
    );
    assert_eq!(
        result.protocol.converged(),
        Some(true),
        "replicas must agree on the kv fingerprint after heal + drain: {:?}",
        result.protocol.replica_digests
    );
    assert!(result.client.samples as u64 >= sc.expect.min_samples.unwrap());
    let h = result.client.history.expect("scenarios check the history");
    assert!(h.linearizable(), "{:?}", h.violations);
}

/// The same scenario under the same seed must reproduce bit-for-bit —
/// the chaos layer (scheduled faults, flaky-link RNG, backoff jitter)
/// must not leak nondeterminism into the run.
#[test]
fn chaos_runs_are_deterministic() {
    let run = || {
        let sc = paxi::scenario::parse(PARTITION_SCENARIO).expect("scenario parses");
        sc.run_sim(pigpaxos::PigConfig::lan(2))
    };
    let (a, b) = (run(), run());
    assert_eq!(a.client.samples, b.client.samples);
    assert_eq!(a.protocol.decided(), b.protocol.decided());
    assert_eq!(a.client.retries, b.client.retries);
    assert_eq!(a.transport.node_msgs, b.transport.node_msgs);
    assert_eq!(a.protocol.replica_digests, b.protocol.replica_digests);
    let fp = |r: &paxi::RunResult| r.transport.trace.expect("traced").fingerprint;
    assert_eq!(fp(&a), fp(&b), "the whole message schedule");
}

/// Flaky links plus a follower crash/restart on plain Paxos: the
/// leader's per-proposal backoff (second bugfix) keeps resends bounded
/// while the cluster still converges once the schedule clears.
#[test]
fn paxos_converges_after_flaky_links_and_crash() {
    let text = r#"
name = "inline-paxos-flaky-crash"
protocol = "paxos"
replicas = 5
clients = 6
seed = 99
warmup_ms = 300
measure_ms = 2200
drain_ms = 1800

[[faults]]
at_ms = 500
kind = "flaky"
from = 0
to = 3
p = 0.3

[[faults]]
at_ms = 800
kind = "crash"
node = 4

[[faults]]
at_ms = 1600
kind = "restart"
node = 4

[[faults]]
at_ms = 1900
kind = "clear_flaky"

[expect]
converged = true
"#;
    let sc = paxi::scenario::parse(text).expect("scenario parses");
    let result = sc.run_sim(paxos::PaxosConfig::lan());
    assert!(
        result.protocol.violations().is_empty(),
        "{:?}",
        result.protocol.violations()
    );
    assert_eq!(result.transport.faults_applied, Some(sc.scheduled_faults()));
    assert_eq!(
        result.protocol.converged(),
        Some(true),
        "digests: {:?}",
        result.protocol.replica_digests
    );
    let h = result.client.history.expect("scenarios check the history");
    assert!(h.linearizable(), "{:?}", h.violations);
}

/// A leader deposed by a partition crashes and returns while a follower
/// leads. It must not answer a client with the reply to another
/// client's command that the new leader decided in a slot the old one
/// had proposed that client's command in; before that was fixed, this
/// corpus scenario's history was not linearizable.
#[test]
fn a_returning_leader_answers_no_client_with_anothers_reply() {
    let text = include_str!("../scenarios/pig_deposed_leader_returns.toml");
    let sc = paxi::scenario::parse(text).expect("scenario parses");
    let result = sc.run_sim(pigpaxos::PigConfig::lan(sc.groups.unwrap()));
    assert!(
        result.protocol.violations().is_empty(),
        "{:?}",
        result.protocol.violations()
    );
    assert_eq!(result.transport.faults_applied, Some(sc.scheduled_faults()));
    assert_eq!(result.protocol.converged(), Some(true));
    let h = result.client.history.expect("scenarios check the history");
    assert!(h.linearizable(), "{:?}", h.violations);
    assert!(h.ops >= 1000, "{h:?}");
}
