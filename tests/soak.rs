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
//! 3. **Client semantics** — a sequential read-your-writes checker
//!    (exactly the `read_your_writes.rs` discipline) rides along on an
//!    extra client node and must observe every one of its writes, with
//!    the windowed session table still deduplicating retries.
//!
//! Sizing: the full tier (release builds, or `PIG_SOAK=full`) drives
//! ≥ 200k simulated ops per protocol. `PIG_QUICK=1` shrinks it to a CI
//! smoke run; plain debug `cargo test` uses a mid-size target so the
//! tier-1 suite stays minutes, not tens of minutes.

use paxi::{
    ClientRequest, Command, Envelope, Experiment, Operation, ProtoMessage, ProtocolSpec, RequestId,
    RunResult, SnapshotConfig, Value,
};
use paxos::PaxosConfig;
use pigpaxos::PigConfig;
use simnet::{Actor, Context, NodeId, SimDuration, TimerId};
use std::cell::RefCell;
use std::rc::Rc;

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

// ---- the sequential read-your-writes checker ----------------------------

/// Key reserved for the checker, outside the workload keyspace.
const CHECK_KEY: u64 = 1_000_007;

/// Issues `put(k, v_i); get(k)` pairs sequentially against a fixed
/// replica and records any read that does not return the value of the
/// immediately preceding write.
struct CheckingClient<P> {
    target: NodeId,
    rounds: u64,
    seq: u64,
    current_round: u64,
    expecting_get: bool,
    finished: bool,
    failures: Rc<RefCell<Vec<String>>>,
    completed: Rc<RefCell<u64>>,
    _proto: std::marker::PhantomData<P>,
}

impl<P: ProtoMessage> CheckingClient<P> {
    fn value_for_round(round: u64) -> Value {
        Value::from(round.to_be_bytes().as_slice())
    }

    fn issue(&mut self, op: Operation, ctx: &mut Context<Envelope<P>>) {
        self.seq += 1;
        let id = RequestId {
            client: ctx.node(),
            seq: self.seq,
        };
        ctx.send(
            self.target,
            Envelope::Request(ClientRequest {
                command: Command { id, op },
            }),
        );
        // Retry until answered: a lost reply must replay from the
        // session table (exactly-once), not hang the checker.
        ctx.set_timer(SimDuration::from_millis(100), self.seq);
    }

    fn next_round(&mut self, ctx: &mut Context<Envelope<P>>) {
        if self.current_round >= self.rounds {
            self.finished = true;
            return;
        }
        self.current_round += 1;
        self.expecting_get = false;
        // A key outside the background workload's keyspace (0..1000):
        // the checker owns it, so every read must see the checker's own
        // last write even while thousands of background commands force
        // compactions around it.
        self.issue(
            Operation::Put(CHECK_KEY, Self::value_for_round(self.current_round)),
            ctx,
        );
    }

    fn resend(&mut self, ctx: &mut Context<Envelope<P>>) {
        let op = if self.expecting_get {
            Operation::Get(CHECK_KEY)
        } else {
            Operation::Put(CHECK_KEY, Self::value_for_round(self.current_round))
        };
        let id = RequestId {
            client: ctx.node(),
            seq: self.seq,
        };
        ctx.send(
            self.target,
            Envelope::Request(ClientRequest {
                command: Command { id, op },
            }),
        );
        ctx.set_timer(SimDuration::from_millis(100), self.seq);
    }
}

impl<P: ProtoMessage> Actor<Envelope<P>> for CheckingClient<P> {
    fn on_start(&mut self, ctx: &mut Context<Envelope<P>>) {
        self.next_round(ctx);
    }

    fn on_message(&mut self, _f: NodeId, msg: Envelope<P>, ctx: &mut Context<Envelope<P>>) {
        let Envelope::Reply(reply) = msg else { return };
        if self.finished || !reply.ok || reply.id.seq != self.seq {
            return;
        }
        if self.expecting_get {
            let expected = Self::value_for_round(self.current_round);
            if reply.value.as_ref() != Some(&expected) {
                self.failures.borrow_mut().push(format!(
                    "round {}: get returned {:?}, expected {:?}",
                    self.current_round, reply.value, expected
                ));
            }
            *self.completed.borrow_mut() += 1;
            self.next_round(ctx);
        } else {
            self.expecting_get = true;
            self.issue(Operation::Get(CHECK_KEY), ctx);
        }
    }

    fn on_timer(&mut self, _i: TimerId, seq: u64, ctx: &mut Context<Envelope<P>>) {
        if !self.finished && seq == self.seq {
            self.resend(ctx);
        }
    }
}

// ---- the soak harness ----------------------------------------------------

struct Soak {
    result: RunResult,
    ryw_failures: Vec<String>,
    ryw_completed: u64,
    ryw_rounds: u64,
}

/// Run `proto` long enough for ~`target_ops()` decided operations at an
/// assumed (lowballed) rate, with the RYW checker riding along.
fn soak<P: ProtocolSpec>(proto: P, n: usize, clients: usize, pipeline: usize, rate: u64) -> Soak {
    let measure_secs = (target_ops() / rate).max(2);
    let ryw_rounds = if quick() { 100 } else { 300 };
    let failures = Rc::new(RefCell::new(Vec::new()));
    let completed = Rc::new(RefCell::new(0u64));
    let (failures2, completed2) = (failures.clone(), completed.clone());
    let result = Experiment::lan(proto, n)
        .clients(clients)
        .client_pipeline(pipeline)
        .extra_client_nodes(1)
        .warmup(SimDuration::from_millis(500))
        .measure(SimDuration::from_secs(measure_secs))
        .run_sim_with(paxi::DEFAULT_SEED, move |sim, _| {
            sim.add_actor(Box::new(CheckingClient::<P::Msg> {
                target: NodeId(0),
                rounds: ryw_rounds,
                seq: 0,
                current_round: 0,
                expecting_get: false,
                finished: false,
                failures: failures2,
                completed: completed2,
                _proto: std::marker::PhantomData,
            }));
        });
    let ryw_failures = failures.borrow().clone();
    let ryw_completed = *completed.borrow();
    Soak {
        result,
        ryw_failures,
        ryw_completed,
        ryw_rounds,
    }
}

fn assert_soak(name: &str, s: &Soak) {
    let r = &s.result;
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
    assert!(
        s.ryw_failures.is_empty(),
        "{name}: read-your-writes violated across compaction: {:?}",
        s.ryw_failures
    );
    assert_eq!(
        s.ryw_completed, s.ryw_rounds,
        "{name}: every checker round must complete"
    );
    eprintln!(
        "{name}: {} ops decided, peak log {} (interval {iv}), {} snapshots, {} installs",
        r.protocol.decided(),
        r.protocol.max_log_len(),
        r.protocol.snapshots_taken(),
        r.protocol.snapshots_installed()
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

/// The byte-based trigger also bounds memory: same soak (shortened), a
/// byte threshold instead of an op count.
#[test]
fn byte_interval_soak_bounded_memory() {
    // Paper-default commands average ~24 payload bytes (8 B values,
    // 50/50 read mix, 20 B of id/key framing), so a 16 KiB threshold is
    // roughly 700 retained commands per compaction cycle.
    let threshold_bytes = 16 * 1024;
    let cfg = PaxosConfig::lan()
        .with_batch(paxi::BatchConfig::adaptive(
            32,
            SimDuration::from_micros(200),
        ))
        .with_snapshots(SnapshotConfig::every_bytes(threshold_bytes));
    let r = Experiment::lan(cfg, 5)
        .clients(16)
        .client_pipeline(4)
        .warmup(SimDuration::from_millis(500))
        .measure(SimDuration::from_secs(if quick() { 2 } else { 8 }))
        .run_sim(paxi::DEFAULT_SEED);
    assert!(
        r.protocol.violations().is_empty(),
        "{:?}",
        r.protocol.violations()
    );
    assert!(r.protocol.snapshots_taken() > 0, "byte trigger must fire");
    // One threshold's worth of commands (lowballing the per-command
    // size at 20 B), doubled for the in-flight window — same shape as
    // the op-count gate.
    let per_cmd = 20;
    let bound = 2 * (threshold_bytes as u64) / per_cmd;
    assert!(
        r.protocol.max_log_len() <= bound,
        "byte-triggered compaction must bound the log: {} > {bound}",
        r.protocol.max_log_len()
    );
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
    use paxos::{accept_batch, apply_batch_votes, propose_batch, Acceptor, Leader, Phase1Outcome};
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
        let p = propose_batch(leader, acc, batch, now);
        let a = accept_batch(
            follower,
            p.ballot,
            p.first_slot,
            &p.commands,
            p.commit_up_to,
        );
        follower.execute_ready();
        let wave = apply_batch_votes(leader, acc, p.ballot, a.votes).expect("wave must decide");
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
