//! Fault-injection integration tests: crashes, partitions, message
//! loss, and recovery — safety (agreement, and a linearizable client
//! history) must hold in every scenario, and liveness whenever a
//! majority is reachable. Fault schedules are
//! [`Experiment::fault`] calls; everything else is the standard builder.

use paxi::{
    ClientRequest, Command, Envelope, Experiment, Operation, ProtoMessage, ProtocolSpec, RequestId,
    RunResult, TargetPolicy, Value, Workload,
};
use paxos::PaxosConfig;
use pigpaxos::PigConfig;
use simnet::{Actor, Context, Control, NodeId, SimDuration, SimTime, TimerId};
use std::cell::RefCell;
use std::rc::Rc;

/// `clients` closed-loop clients on ten keys, their history checked.
fn exp<P: ProtocolSpec>(proto: P, n: usize, clients: usize) -> Experiment<P> {
    Experiment::lan(proto, n)
        .clients(clients)
        .workload(Workload {
            num_keys: 10,
            ..Workload::paper_default()
        })
        .warmup(SimDuration::from_millis(300))
        .measure(SimDuration::from_millis(1200))
        .check_linearizability()
}

fn ms(ms: u64) -> SimDuration {
    SimDuration::from_millis(ms)
}

/// `exp` with `control` applied to each of `nodes` at `at_ms`.
fn on_each<P: ProtocolSpec>(
    exp: Experiment<P>,
    at_ms: u64,
    nodes: impl IntoIterator<Item = u32>,
    control: fn(NodeId) -> Control,
) -> Experiment<P> {
    nodes
        .into_iter()
        .fold(exp, |e, n| e.fault(ms(at_ms), control(NodeId(n))))
}

/// No two replicas decided a slot differently, and what the clients
/// saw is linearizable.
fn assert_safe(name: &str, r: &RunResult) {
    let violations = r.protocol.violations();
    assert!(violations.is_empty(), "{name}: {violations:?}");
    let h = r.client.history.as_ref().expect("checked");
    assert!(h.linearizable(), "{name}: {:?}", h.violations);
}

#[test]
fn pigpaxos_survives_minority_of_crashes() {
    // f = 4 crashes in a 9-node cluster (2f+1 = 9): progress must continue.
    let mut e = exp(PigConfig::lan(2), 9, 6);
    for node in 5..9u32 {
        e = e.fault(
            ms(400 + 100 * (node as u64 - 5)),
            Control::Crash(NodeId(node)),
        );
    }
    let r = e.run_sim(paxi::DEFAULT_SEED);
    assert_safe("", &r);
    assert!(
        r.client.throughput > 50.0,
        "majority alive ⇒ progress: {}",
        r.client.throughput
    );
}

#[test]
fn pigpaxos_stalls_without_majority_but_stays_safe() {
    // 5 crashes of 9 leave 4 < majority: commits must stop, safety holds.
    // Nothing decided after the mass crash may conflict — checked by
    // the shared safety monitor automatically.
    let r = on_each(
        exp(PigConfig::lan(2), 9, 4),
        600,
        [5, 6, 7, 8, 4],
        Control::Crash,
    )
    .run_sim(paxi::DEFAULT_SEED);
    assert_safe("", &r);
}

#[test]
fn pigpaxos_recovers_after_majority_restored() {
    let e = exp(PigConfig::lan(2), 9, 4).measure(SimDuration::from_secs(3));
    let e = on_each(e, 500, 4..9, Control::Crash);
    let r = on_each(e, 1500, 4..9, Control::Recover).run_sim(paxi::DEFAULT_SEED);
    assert_safe("", &r);
    assert!(
        r.client.throughput > 100.0,
        "throughput must resume after recovery: {}",
        r.client.throughput
    );
}

#[test]
fn safety_holds_under_random_message_loss() {
    // The drop-rate scenario is protocol-generic; run the identical
    // schedule for both leader-based protocols.
    fn lossy<P: ProtocolSpec>(proto: P) -> paxi::RunResult {
        exp(proto, 5, 4)
            .fault(SimDuration::ZERO, Control::SetDropRate(0.05))
            .run_sim(paxi::DEFAULT_SEED)
    }
    for (name, r) in [
        ("paxos", lossy(PaxosConfig::lan())),
        ("pigpaxos", lossy(PigConfig::lan(2))),
    ] {
        assert_safe(name, &r);
        assert!(
            r.client.throughput > 50.0,
            "{name} must retry through 5% loss: {}",
            r.client.throughput
        );
    }
}

#[test]
fn a_drop_rate_at_zero_eats_the_first_sends() {
    // A control due at zero lands before any actor starts, so not even
    // `on_start`'s sends (the leader's first relay round) get through.
    let r = Experiment::lan(PigConfig::lan(2), 5)
        .warmup(SimDuration::ZERO)
        .measure(ms(100))
        .capture_trace()
        .fault(SimDuration::ZERO, Control::SetDropRate(1.0))
        .run_sim(paxi::DEFAULT_SEED);
    let delivered = r.transport.label_counts.expect("trace captured");
    assert!(delivered.is_empty(), "delivered: {delivered:?}");
}

#[test]
fn partition_heals_and_cluster_catches_up() {
    // Cut off two followers for a second, then heal.
    let mut e = exp(PigConfig::lan(2), 5, 4).measure(SimDuration::from_secs(3));
    for a in [3u32, 4] {
        for b in 0..3u32 {
            e = e
                .fault(ms(500), Control::BlockLink(NodeId(a), NodeId(b)))
                .fault(ms(500), Control::BlockLink(NodeId(b), NodeId(a)));
        }
    }
    let r = e
        .fault(ms(1500), Control::HealAllLinks)
        .run_sim(paxi::DEFAULT_SEED);
    assert_safe("", &r);
    assert!(
        r.client.throughput > 100.0,
        "leader-side majority keeps running: {}",
        r.client.throughput
    );
}

#[test]
fn relay_crash_is_transient_thanks_to_rotation() {
    // Crash a node; rounds that pick it as relay lose a group, but the
    // next retry picks fresh relays (§3.4). Latency must stay bounded
    // well below the client retry timeout.
    let r = exp(PigConfig::lan(3), 25, 8)
        .fault(ms(400), Control::Crash(NodeId(3)))
        .run_sim(paxi::DEFAULT_SEED);
    assert_safe("", &r);
    assert!(r.client.throughput > 500.0);
    assert!(
        r.client.p99_latency_ms < 150.0,
        "stalled rounds must be recovered by relay reselection: p99 {}ms",
        r.client.p99_latency_ms
    );
}

#[test]
fn lagging_follower_rejoins_via_snapshot_after_prefix_truncated() {
    // A follower sleeps through ~1.5 s of compacting traffic; by the
    // time it recovers, every peer has truncated the slots it is
    // missing. Its gap repair (`LearnReq`) must then be answered with a
    // `SnapshotTransfer` — state, not slots — and the cluster must end
    // the run safe and fast. Run the identical schedule for both
    // leader-based protocols (the relay overlay must not change the
    // catch-up semantics).
    fn rejoin<P: ProtocolSpec>(proto: P) -> paxi::RunResult {
        exp(proto, 5, 6)
            .measure(SimDuration::from_secs(3))
            .capture_trace()
            .fault(ms(400), Control::Crash(NodeId(4)))
            .fault(ms(1900), Control::Recover(NodeId(4)))
            .run_sim(paxi::DEFAULT_SEED)
    }
    for (name, r) in [
        (
            "paxos",
            rejoin(PaxosConfig::lan().with_snapshots(paxi::SnapshotConfig::every_ops(100))),
        ),
        (
            "pigpaxos",
            rejoin(PigConfig::lan(2).with_snapshots(paxi::SnapshotConfig::every_ops(100))),
        ),
    ] {
        assert_safe(name, &r);
        assert!(
            r.client.throughput > 100.0,
            "{name}: {}",
            r.client.throughput
        );
        assert!(
            r.protocol.snapshots_taken() > 0,
            "{name}: peers must have compacted while the follower slept"
        );
        assert!(
            r.protocol.snapshots_installed() >= 1,
            "{name}: the rejoining follower must catch up from a snapshot"
        );
        let transfers = r
            .transport
            .label_counts
            .as_ref()
            .and_then(|c| c.get("snapshot").copied())
            .unwrap_or(0);
        assert!(
            transfers >= 1,
            "{name}: a SnapshotTransfer envelope must have crossed the wire"
        );
    }
}

#[test]
fn leader_change_after_prefix_truncated_recovers_from_peer_snapshots() {
    // The harder catch-up path: the cluster loses its *leader* while a
    // once-crashed follower is still far behind the compaction floor.
    // Whoever campaigns, the lagging replica ends up current — either
    // it wins and peers attach snapshots to their phase-1b promises, or
    // it loses and the new leader serves it a SnapshotTransfer. Safety
    // and progress must hold either way.
    let cfg = PigConfig::lan(2).with_snapshots(paxi::SnapshotConfig::every_ops(100));
    let r = exp(cfg, 5, 4)
        .measure(SimDuration::from_secs(4))
        .target(TargetPolicy::Random((0..5u32).map(NodeId).collect()))
        .fault(ms(400), Control::Crash(NodeId(4)))
        .fault(ms(1800), Control::Recover(NodeId(4)))
        .fault(ms(1850), Control::Crash(NodeId(0)))
        .run_sim(paxi::DEFAULT_SEED);
    assert_safe("", &r);
    assert!(
        r.client.throughput > 30.0,
        "a new leader must emerge and serve: {}",
        r.client.throughput
    );
    assert!(
        r.protocol.snapshots_taken() > 0,
        "compaction ran before the crash"
    );
    assert!(
        r.protocol.snapshots_installed() >= 1,
        "the lagging replica must have installed a peer snapshot"
    );
}

#[test]
fn paxos_and_pigpaxos_handle_leader_crash_with_reelection() {
    fn crash_leader<P: ProtocolSpec>(proto: P) -> paxi::RunResult {
        exp(proto, 5, 3)
            .measure(SimDuration::from_secs(3))
            .target(TargetPolicy::Random((0..5u32).map(NodeId).collect()))
            .fault(ms(800), Control::Crash(NodeId(0)))
            .run_sim(paxi::DEFAULT_SEED)
    }
    for (name, r) in [
        ("paxos", crash_leader(PaxosConfig::lan())),
        ("pigpaxos", crash_leader(PigConfig::lan(2))),
    ] {
        assert_safe(name, &r);
        assert!(
            r.client.throughput > 30.0,
            "{name}: new leader must serve: {}",
            r.client.throughput
        );
    }
}

/// Largest value the log's packed entry metadata can carry
/// (`paxos::messages::META_LEN_MAX`, 14 bits).
const MAX_VALUE: usize = (1 << 14) - 1;

/// What the scripted client of
/// [`oversized_writes_are_refused_and_the_largest_legal_one_survives_failover`]
/// saw.
#[derive(Default)]
struct BigWriteOutcome {
    refused_without_redirect: bool,
    committed: bool,
    read_back_after_failover: bool,
    served_after_failover: bool,
}

/// Writes a value one byte too large, then the largest legal one; after
/// the leader has crashed it reads that value back and writes again. An
/// unanswered or redirected request goes to the next replica every
/// 100 ms. The refused write was never admitted, so the write after it
/// takes its sequence number: the leader's per-client lane proposes a
/// client's requests in sequence order and would wait for it for ever.
struct BigWriter<P> {
    replicas: u32,
    target: u32,
    step: u32,
    seq: u64,
    op: Option<Operation>,
    outcome: Rc<RefCell<BigWriteOutcome>>,
    _proto: std::marker::PhantomData<P>,
}

impl<P: ProtoMessage> BigWriter<P> {
    fn big() -> Value {
        Value::from(vec![0xAB; MAX_VALUE].as_slice())
    }

    fn issue(&mut self, op: Operation, ctx: &mut Context<Envelope<P>>) {
        self.step += 1;
        self.op = Some(op);
        self.resend(ctx);
    }

    fn resend(&mut self, ctx: &mut Context<Envelope<P>>) {
        let Some(op) = self.op.clone() else { return };
        let id = RequestId {
            client: ctx.node(),
            seq: self.seq,
        };
        let command = Command { id, op };
        ctx.send(
            NodeId(self.target),
            Envelope::Request(ClientRequest { command }),
        );
    }
}

impl<P: ProtoMessage> Actor<Envelope<P>> for BigWriter<P> {
    fn on_start(&mut self, ctx: &mut Context<Envelope<P>>) {
        self.issue(Operation::Put(1, Value::zeros(MAX_VALUE + 1)), ctx);
        ctx.set_timer(SimDuration::from_millis(100), 0);
    }

    fn on_message(&mut self, _f: NodeId, msg: Envelope<P>, ctx: &mut Context<Envelope<P>>) {
        let Envelope::Reply(reply) = msg else { return };
        if reply.id.seq != self.seq || self.op.is_none() {
            return;
        }
        let outcome = self.outcome.clone();
        let mut outcome = outcome.borrow_mut();
        match self.step {
            1 => {
                outcome.refused_without_redirect = !reply.ok && reply.redirect.is_none();
                self.issue(Operation::Put(1, Self::big()), ctx);
            }
            _ if !reply.ok => {} // not the leader: the timer tries the next one
            2 => {
                outcome.committed = true;
                self.op = None; // the timer picks up after the crash
                self.seq += 1;
            }
            3 => {
                outcome.read_back_after_failover = reply.value == Some(Self::big());
                self.seq += 1;
                self.issue(Operation::Put(2, Value::zeros(8)), ctx);
            }
            _ => {
                outcome.served_after_failover = true;
                self.op = None;
            }
        }
    }

    fn on_timer(&mut self, _i: TimerId, _k: u64, ctx: &mut Context<Envelope<P>>) {
        ctx.set_timer(SimDuration::from_millis(100), 0);
        if self.op.is_some() {
            self.target = (self.target + 1) % self.replicas;
            self.resend(ctx);
        } else if self.step == 2 && ctx.now() >= SimTime::from_millis(1000) {
            self.issue(Operation::Get(1), ctx);
        }
    }
}

fn check_big_writes<P: ProtocolSpec>(proto: P) {
    let outcome = Rc::new(RefCell::new(BigWriteOutcome::default()));
    let seen = outcome.clone();
    // The background client keeps off the scripted client's keys (with
    // 1000 keys it never draws 1 or 2 under this seed).
    let r = exp(proto, 5, 1)
        .workload(Workload::paper_default())
        .extra_client_nodes(1)
        .measure(SimDuration::from_secs(3))
        .fault(ms(500), Control::Crash(NodeId(0)))
        .run_sim_with(paxi::DEFAULT_SEED, move |sim| {
            sim.add_actor(Box::new(BigWriter::<P::Msg> {
                replicas: 5,
                target: 0,
                step: 0,
                seq: 1,
                op: None,
                outcome: seen,
                _proto: std::marker::PhantomData,
            }));
        });
    assert_safe("", &r);
    let outcome = outcome.borrow();
    assert!(
        outcome.refused_without_redirect,
        "a {} B write must be refused for good",
        MAX_VALUE + 1
    );
    assert!(outcome.committed, "a {MAX_VALUE} B write must commit");
    assert!(
        outcome.read_back_after_failover,
        "the new leader must have recovered the {MAX_VALUE} B value"
    );
    assert!(outcome.served_after_failover, "the cluster keeps serving");
}

#[test]
fn oversized_writes_are_refused_and_the_largest_legal_one_survives_failover() {
    check_big_writes(PaxosConfig::lan());
    check_big_writes(PigConfig::lan(2));
}
