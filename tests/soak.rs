//! Long-run soak tier: hours-scale steady state, compressed.
//!
//! Every protocol runs a compaction-enabled experiment long enough to
//! decide hundreds of snapshot intervals worth of operations, then the
//! suite asserts the three properties that make long-running workloads
//! viable:
//!
//! 1. **Memory boundedness** — `max_log_len` (the peak retained log /
//!    instance-table size any replica ever reported) stays at most
//!    2 × the snapshot interval. Without compaction it would equal the
//!    total decided count.
//! 2. **Safety** — zero violations from the shared [`paxi::SafetyMonitor`]
//!    across the entire run, truncation included.
//! 3. **Client semantics** — every operation every client issued, across
//!    all those compactions, forms a linearizable history, with the
//!    windowed session table still deduplicating retries.
//!
//! Sizing: the full tier (release builds, or `PIG_SOAK=full`) drives
//! ≥ 200k simulated ops per protocol. `PIG_QUICK=1` shrinks it to a CI
//! smoke run; plain debug `cargo test` uses a mid-size target so the
//! tier-1 suite stays minutes, not tens of minutes.

use paxi::{
    Command, Experiment, Operation, ProtocolSpec, RequestId, RunResult, SnapshotConfig, Value,
};
use paxos::PaxosConfig;
use pigpaxos::PigConfig;
use simnet::{NodeId, SimDuration};

fn quick() -> bool {
    std::env::var_os("PIG_QUICK").is_some()
}

/// Ops each protocol must decide. Full mode is the ≥200k-op soak; quick
/// mode is the CI smoke tier; plain debug builds use a mid-size default
/// so `cargo test` stays fast (export `PIG_SOAK=full` to force the full
/// tier in debug too).
fn target_ops() -> u64 {
    if quick() {
        5_000
    } else if cfg!(debug_assertions) && std::env::var_os("PIG_SOAK").is_none() {
        40_000
    } else {
        200_000
    }
}

/// Snapshot interval sized so the run spans many compactions while the
/// in-flight command window stays well under one interval.
fn interval() -> u64 {
    if quick() {
        500
    } else {
        1_000
    }
}

/// Run `proto` long enough for ~`target_ops()` decided operations at an
/// assumed (lowballed) rate, with every client operation checked.
fn soak<P: ProtocolSpec>(
    proto: P,
    n: usize,
    clients: usize,
    pipeline: usize,
    rate: u64,
) -> RunResult {
    let measure_secs = (target_ops() / rate).max(2);
    Experiment::lan(proto, n)
        .clients(clients)
        .client_pipeline(pipeline)
        .warmup(SimDuration::from_millis(500))
        .measure(SimDuration::from_secs(measure_secs))
        .check_linearizability()
        .run_sim(paxi::DEFAULT_SEED)
}

fn assert_soak(name: &str, r: &RunResult) {
    let target = target_ops();
    let iv = interval();
    assert!(
        r.protocol.violations().is_empty(),
        "{name}: {:?}",
        r.protocol.violations()
    );
    assert!(
        r.protocol.decided() >= target,
        "{name}: soak must decide >= {target} ops, got {}",
        r.protocol.decided()
    );
    assert!(
        r.protocol.snapshots_taken() >= r.protocol.decided() / iv / 2,
        "{name}: compaction must keep firing ({} snapshots over {} ops at interval {iv})",
        r.protocol.snapshots_taken(),
        r.protocol.decided()
    );
    assert!(
        r.protocol.max_log_len() <= 2 * iv,
        "{name}: memory must stay bounded: peak log {} > 2x interval {iv} \
         (decided {}, snapshots {})",
        r.protocol.max_log_len(),
        r.protocol.decided(),
        r.protocol.snapshots_taken()
    );
    let h = r.client.history.as_ref().expect("checked");
    assert!(
        h.linearizable(),
        "{name}: client history not linearizable across compaction: {:?}",
        h.violations
    );
    assert!(
        h.ops as u64 >= target,
        "{name}: only {} operations checked",
        h.ops
    );
    eprintln!(
        "{name}: {} ops decided, peak log {} (interval {iv}), {} snapshots, {} installs, \
         {} client ops linearizable",
        r.protocol.decided(),
        r.protocol.max_log_len(),
        r.protocol.snapshots_taken(),
        r.protocol.snapshots_installed(),
        h.ops
    );
}

#[test]
fn paxos_soak_bounded_memory() {
    let cfg = PaxosConfig::lan()
        .with_batch(paxi::BatchConfig::adaptive(
            32,
            SimDuration::from_micros(200),
        ))
        .with_snapshots(SnapshotConfig::every_ops(interval()));
    let s = soak(cfg, 5, 16, 4, 5_000);
    assert_soak("paxos", &s);
}

#[test]
fn pigpaxos_soak_bounded_memory() {
    let cfg = PigConfig::lan(2)
        .with_batch(paxi::BatchConfig::adaptive(
            32,
            SimDuration::from_micros(200),
        ))
        .with_snapshots(SnapshotConfig::every_ops(interval()));
    let s = soak(cfg, 5, 16, 4, 5_000);
    assert_soak("pigpaxos", &s);
}

#[test]
fn epaxos_soak_bounded_memory() {
    let cfg = epaxos::EpaxosConfig::default().with_snapshots(SnapshotConfig::every_ops(interval()));
    let s = soak(cfg, 5, 12, 1, 900);
    assert_soak("epaxos", &s);
}

/// Regression for the snapshot-capture staleness bug: `force_snapshot`
/// with a static executed frontier must keep the snapshot already held,
/// not recapture. A recapture at an unchanged `up_to` would freeze the
/// *current* session table under the old frontier — session entries
/// recorded since the frontier froze would claim coverage the snapshot
/// cannot justify. Runs in every tier (it is component-level and fast).
#[test]
fn snapshot_capture_skips_static_frontier() {
    use paxi::{Ballot, ClientReply, SafetyMonitor, SessionTable};
    use paxos::{
        accept_batch, apply_batch_votes, propose_batch, Acceptor, Leader, PaxosMsg, Phase1Outcome,
    };
    use simnet::SimTime;

    fn decide_wave(
        leader: &mut Leader,
        acc: &mut Acceptor,
        follower: &mut Acceptor,
        sessions: &mut SessionTable,
        seq: &mut u64,
        count: usize,
    ) {
        let now = SimTime::from_micros(*seq * 10 + 10);
        let client = NodeId(42);
        let batch: Vec<(NodeId, Command)> = (0..count)
            .map(|_| {
                *seq += 1;
                let cmd = Command {
                    id: RequestId { client, seq: *seq },
                    op: Operation::Put(*seq % 8, Value::zeros(8)),
                };
                (client, cmd)
            })
            .collect();
        let p = propose_batch(leader, acc, batch, now, &mut Default::default());
        let Some(PaxosMsg::P2bBatch { ballot, votes, .. }) = accept_batch(follower, &p.msg).reply
        else {
            panic!("the follower votes on the whole batch");
        };
        follower.execute_ready();
        let wave = apply_batch_votes(leader, acc, ballot, votes).expect("wave must decide");
        assert!(wave.preempted.is_none(), "nothing contends here");
        for (_slot, id, value) in wave.executed {
            sessions.record(&ClientReply::ok(id, value));
        }
    }

    let safety = SafetyMonitor::new();
    let mut leader = Leader::new(NodeId(0), 2);
    let mut acc = Acceptor::new(NodeId(0), safety.clone());
    let mut follower = Acceptor::new(NodeId(1), safety.clone());
    let ballot = leader.start_campaign(Ballot::ZERO);
    let votes = vec![acc.on_p1a(ballot, 0), follower.on_p1a(ballot, 0)];
    match leader.on_p1b_votes(votes, 0, acc.log().reach()) {
        Phase1Outcome::Won { reproposals } => assert!(reproposals.is_empty()),
        other => panic!("fresh cluster campaign must win, got {other:?}"),
    }

    let mut sessions = SessionTable::new();
    let mut seq = 0u64;
    decide_wave(
        &mut leader,
        &mut acc,
        &mut follower,
        &mut sessions,
        &mut seq,
        8,
    );
    acc.force_snapshot(&sessions);
    let snap = acc.latest_snapshot().expect("first force captures").clone();
    assert_eq!(snap.up_to, 8);
    assert_eq!(snap.sessions.latest_seq(NodeId(42)), Some(8));

    // Session activity with a static frontier — e.g. a reply cached by
    // the shared reply leg for a command that never went through this
    // log. Forcing again must NOT fold it into a snapshot still bound
    // to slot 8.
    let stray = RequestId {
        client: NodeId(99),
        seq: 1,
    };
    sessions.record(&ClientReply::ok(stray, None));
    acc.force_snapshot(&sessions);
    let snap = acc.latest_snapshot().expect("still held").clone();
    assert_eq!(snap.up_to, 8, "frontier did not move");
    assert_eq!(
        snap.sessions.latest_seq(NodeId(99)),
        None,
        "static frontier must not recapture newer session state"
    );

    // Once the frontier advances the next force recaptures everything.
    decide_wave(
        &mut leader,
        &mut acc,
        &mut follower,
        &mut sessions,
        &mut seq,
        4,
    );
    acc.force_snapshot(&sessions);
    let snap = acc.latest_snapshot().expect("recaptured").clone();
    assert_eq!(snap.up_to, 12);
    assert_eq!(snap.sessions.latest_seq(NodeId(42)), Some(12));
    assert_eq!(snap.sessions.latest_seq(NodeId(99)), Some(1));
}
