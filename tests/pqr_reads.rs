//! End-to-end tests of Paxos Quorum Reads over relay trees (§4.3):
//! linearizable reads served by follower proxies without touching the
//! leader — with and without probe batching
//! ([`PigConfig::with_probe_batch`]), plus the attempt-tag regression
//! (stale rinse-attempt votes must never complete a newer attempt) and
//! the `PendingReads` leak guards.

use paxi::{
    BatchConfig, ClientRequest, ClusterConfig, Command, Envelope, Experiment, Operation,
    ProtocolSpec, RequestId, Value, Workload,
};
use paxos::PaxosMsg;
use pigpaxos::{PigConfig, PigMsg};
use simnet::{Actor, Context, Control, NodeId, SimDuration, SimTime, TimerId};
use std::cell::RefCell;
use std::rc::Rc;

fn read_heavy() -> Workload {
    Workload {
        read_ratio: 0.9,
        ..Workload::paper_default()
    }
}

fn probe_batch() -> BatchConfig {
    BatchConfig::adaptive(16, SimDuration::from_micros(2500))
}

#[test]
fn pqr_cluster_serves_reads_from_followers() {
    // `with_pqr` flips the default client target to a random spread, so
    // 90% of ops are reads answered by proxies; writes redirect to the
    // leader.
    let r = Experiment::lan(PigConfig::lan(2).with_pqr(), 9)
        .clients(8)
        .warmup(SimDuration::from_millis(300))
        .measure(SimDuration::from_millis(900))
        .workload(read_heavy())
        .run_sim(paxi::DEFAULT_SEED);
    assert!(
        r.protocol.violations().is_empty(),
        "{:?}",
        r.protocol.violations()
    );
    assert!(
        r.client.throughput > 500.0,
        "PQR throughput: {}",
        r.client.throughput
    );
    // The run stops mid-traffic, so up to one read per client may be in
    // flight — anything beyond that is a PendingReads leak.
    assert!(
        r.protocol.pqr_reads_inflight() <= 8,
        "pending-read table leaked: {} reads in flight at cutoff",
        r.protocol.pqr_reads_inflight()
    );
}

#[test]
fn pqr_offloads_the_leader_on_read_heavy_workloads() {
    let run = |cfg: PigConfig| {
        Experiment::lan(cfg, 25)
            .clients(80)
            .warmup(SimDuration::from_millis(300))
            .measure(SimDuration::from_millis(900))
            .workload(read_heavy())
            .run_sim(paxi::DEFAULT_SEED)
    };
    let leader_reads = run(PigConfig::lan(3));
    let pqr = run(PigConfig::lan(3).with_pqr());
    assert!(pqr.protocol.violations().is_empty());
    assert!(
        pqr.client.throughput > leader_reads.client.throughput * 1.5,
        "PQR must scale reads past the leader: {} vs {}",
        pqr.client.throughput,
        leader_reads.client.throughput
    );
    assert!(
        pqr.transport.leader_msgs_per_op < leader_reads.transport.leader_msgs_per_op * 0.6,
        "leader per-op load must drop: {} vs {}",
        pqr.transport.leader_msgs_per_op,
        leader_reads.transport.leader_msgs_per_op
    );
}

/// Four clients spread over the replicas, two requests each in flight,
/// on four keys: reads go to whichever follower proxy the client picked,
/// writes redirect to the leader. The history must be linearizable, and
/// once the clients stop (the drain) no quorum read may be left pending.
fn check_linearizable(cfg: PigConfig) {
    let r = Experiment::lan(cfg, 9)
        .clients(4)
        .client_pipeline(2)
        .workload(Workload {
            num_keys: 4,
            ..read_heavy()
        })
        .warmup(SimDuration::ZERO)
        .measure(SimDuration::from_secs(1))
        .drain(SimDuration::from_millis(300))
        .check_linearizability()
        .run_sim(5);
    assert!(
        r.protocol.violations().is_empty(),
        "{:?}",
        r.protocol.violations()
    );
    let h = r.client.history.as_ref().expect("checked");
    assert!(h.linearizable(), "{:?}", h.violations);
    assert!(h.reads >= 200 && h.ops - h.reads >= 20, "{h:?}");
    // Every quorum read must have left the pending table
    // (PendingReads::is_empty()).
    assert_eq!(
        r.protocol.pqr_reads_inflight(),
        0,
        "quiesced run must leave no pending quorum reads"
    );
    assert!(
        r.protocol.pqr_reads_started() > 0,
        "reads must have used the PQR path"
    );
}

#[test]
fn pqr_reads_are_linearizable_with_writer() {
    check_linearizable(PigConfig::lan(2).with_pqr());
}

#[test]
fn pqr_reads_stay_linearizable_with_probe_batching() {
    // The same checker over batched probe waves: coalescing keys into
    // QrReadBatch/QrVoteBatch must not change what any read observes.
    check_linearizable(PigConfig::lan(2).with_pqr().with_probe_batch(probe_batch()));
}

#[test]
fn probe_batching_cuts_probe_traffic_on_the_read_heavy_scenario() {
    // Integration-tier version of the bench gate: 9 nodes / 2 groups /
    // 90% reads / 40 clients, probe batching off vs on. The wave
    // coalescing must cut probe messages per operation sharply without
    // costing meaningful throughput.
    let run = |cfg: PigConfig| {
        Experiment::lan(cfg, 9)
            .clients(40)
            .warmup(SimDuration::from_millis(300))
            .measure(SimDuration::from_millis(700))
            .workload(read_heavy())
            .capture_trace()
            .run_sim(paxi::DEFAULT_SEED)
    };
    use paxos::QR_PROBE_LABELS as PROBE_LABELS;
    let off = run(PigConfig::lan(2).with_pqr());
    let on = run(PigConfig::lan(2).with_pqr().with_probe_batch(probe_batch()));
    assert!(
        off.protocol.violations().is_empty(),
        "{:?}",
        off.protocol.violations()
    );
    assert!(
        on.protocol.violations().is_empty(),
        "{:?}",
        on.protocol.violations()
    );
    let off_per_op = off.labels_per_op(PROBE_LABELS).expect("trace captured");
    let on_per_op = on.labels_per_op(PROBE_LABELS).expect("trace captured");
    assert!(
        off_per_op >= on_per_op * 2.5,
        "probe waves must amortize probe traffic: {off_per_op:.2} vs {on_per_op:.2} msgs/op"
    );
    assert!(
        on.labels_per_op(&["qr_read_batch"]).unwrap() > 0.0,
        "batched probes must actually ride QrReadBatch waves"
    );
    assert!(
        on.client.throughput > off.client.throughput * 0.7,
        "probe batching must not collapse throughput: {} vs {}",
        on.client.throughput,
        off.client.throughput
    );
    assert!(
        on.protocol.pqr_reads_inflight() <= 40,
        "pending-read table leaked under probe batching: {}",
        on.protocol.pqr_reads_inflight()
    );
}

// ---- attempt-tag regression & rinse-abort accounting (scripted) --------

/// Sends a fixed schedule of messages into the simulation and records
/// every reply it receives — a deterministic driver for the proxy's
/// vote-handling edge cases that workload traffic cannot reproduce on
/// purpose (delayed cross-attempt votes, forced rinse aborts).
struct ScriptedActor {
    /// `(when, to, message)` — sent exactly once each.
    script: Vec<(SimDuration, NodeId, Envelope<PigMsg>)>,
    replies: Rc<RefCell<Vec<paxi::ClientReply>>>,
}

impl Actor<Envelope<PigMsg>> for ScriptedActor {
    fn on_start(&mut self, ctx: &mut Context<Envelope<PigMsg>>) {
        for (i, (when, _, _)) in self.script.iter().enumerate() {
            ctx.set_timer(*when, i as u64);
        }
    }
    fn on_message(
        &mut self,
        _from: NodeId,
        msg: Envelope<PigMsg>,
        _ctx: &mut Context<Envelope<PigMsg>>,
    ) {
        if let Envelope::Reply(r) = msg {
            self.replies.borrow_mut().push(r);
        }
    }
    fn on_timer(&mut self, _id: TimerId, kind: u64, ctx: &mut Context<Envelope<PigMsg>>) {
        let (_, to, msg) = self.script[kind as usize].clone();
        ctx.send(to, msg);
    }
}

/// A node that absorbs everything (stands in for replicas whose answers
/// the script injects by hand).
struct Mute;
impl Actor<Envelope<PigMsg>> for Mute {
    fn on_message(&mut self, _f: NodeId, _m: Envelope<PigMsg>, _c: &mut Context<Envelope<PigMsg>>) {
    }
    fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<Envelope<PigMsg>>) {}
}

fn qr_vote(reader: u32, id: u64, attempt: u32, node: u32, slot: u64, pending: bool) -> PigMsg {
    PigMsg::Direct(PaxosMsg::QrVote {
        reader: NodeId(reader),
        id,
        attempt,
        votes: vec![paxos::QrVoteEntry {
            node: NodeId(node),
            value_slot: slot,
            value: if slot == 0 {
                None
            } else {
                Some(Value::zeros(slot as usize))
            },
            pending_write: pending,
        }],
    })
}

/// Build a 3-replica sim where only node 1 is a real `PigReplica`
/// (PQR-enabled proxy under test); nodes 0 and 2 are mute and the
/// script (node 3, also the client) injects their probe answers by
/// hand. Returns the replies the client collected, plus the shared
/// stats hub for pending-read accounting.
fn scripted_proxy_run(
    cfg: PigConfig,
    script: Vec<(SimDuration, NodeId, Envelope<PigMsg>)>,
    run_for: SimDuration,
) -> (Vec<paxi::ClientReply>, paxi::CompactionStats) {
    let cluster = ClusterConfig::new(3);
    let stats = cluster.stats.clone();
    let replies = Rc::new(RefCell::new(Vec::new()));
    let replies2 = replies.clone();
    let mut sim: simnet::Simulation<Envelope<PigMsg>> = simnet::Simulation::new(
        simnet::Topology::lan(4),
        simnet::CpuCostModel::free(),
        paxi::DEFAULT_SEED,
    );
    sim.add_actor(Box::new(Mute)); // node 0: the configured (absent) leader
    sim.add_actor(cfg.build_replica(NodeId(1), &cluster)); // the proxy
    sim.add_actor(Box::new(Mute)); // node 2
    sim.add_actor(Box::new(ScriptedActor {
        script,
        replies: replies2,
    })); // node 3: client + vote injector
    sim.run_until(SimTime::ZERO + run_for);
    let out = replies.borrow().clone();
    (out, stats)
}

fn get_request(seq: u64, key: u64) -> Envelope<PigMsg> {
    Envelope::Request(ClientRequest {
        command: Command {
            id: RequestId {
                client: NodeId(3),
                seq,
            },
            op: Operation::Get(key),
        },
    })
}

/// THE headline regression (pre-fix code fails this): after a rinse
/// restart, a delayed vote from the *previous* attempt must not count
/// toward the new attempt. Without the attempt tag, the stale vote
/// reached the majority threshold right after the restart cleared
/// `pending_write_seen`, completing the read with the pre-write value —
/// the exact stale read the rinse loop exists to prevent.
#[test]
fn stale_attempt_vote_must_not_complete_restarted_read() {
    let at = SimDuration::from_millis;
    let proxy = NodeId(1);
    let script = vec![
        // t=1ms: client read of key 7 → proxy opens read id 1,
        // attempt 1, needs 2 of 3 votes; its own vote is (slot 0, ∅).
        (at(1), proxy, get_request(1, 7)),
        // t=2ms: node 2 answers attempt 1 with an in-flight write to
        // the key → majority + pending write → rinse (restart fires at
        // t≈5ms, bumping to attempt 2 and re-probing).
        (at(2), proxy, Envelope::Proto(qr_vote(1, 1, 1, 2, 5, true))),
        // t=8ms: a DELAYED attempt-1 answer from node 0, sampled before
        // the write resolved (slot 0, no pending flag). On pre-fix code
        // this is the 2nd voter of attempt 2 → Done(None) → stale read.
        (at(8), proxy, Envelope::Proto(qr_vote(1, 1, 1, 0, 0, false))),
        // t=12ms: the genuine attempt-2 answer: the write resolved at
        // slot 6.
        (
            at(12),
            proxy,
            Envelope::Proto(qr_vote(1, 1, 2, 2, 6, false)),
        ),
    ];
    let (replies, stats) = scripted_proxy_run(
        PigConfig::lan(1).with_pqr(),
        script,
        SimDuration::from_millis(40),
    );
    assert_eq!(replies.len(), 1, "exactly one read completion: {replies:?}");
    let reply = &replies[0];
    assert!(reply.ok, "read must complete, not redirect: {reply:?}");
    assert_eq!(
        reply.value.as_ref().map(|v| v.len()),
        Some(6),
        "the read must return the post-write value (slot 6), not the \
         stale pre-write state a delayed attempt-1 vote carried"
    );
    assert_eq!(stats.pqr_inflight(), 0, "pending table must drain");
}

/// Under flexible quorums a write is chosen once `q2` replicas accept
/// it, so a quorum read must hear from `q1` of them (`q1 + q2 > n`) to
/// be sure of meeting one — a majority can miss them all. Here
/// `(q1, q2) = (3, 1)` on three replicas: a write chosen at node 0 alone
/// is invisible to the proxy and to node 2, and the read may only
/// complete once node 0 has answered.
#[test]
fn flexible_quorum_read_waits_for_q1_answers() {
    let at = SimDuration::from_millis;
    let proxy = NodeId(1);
    let script = vec![
        (at(1), proxy, get_request(1, 7)),
        // Own vote + node 2: a majority, both without the write.
        (at(2), proxy, Envelope::Proto(qr_vote(1, 1, 1, 2, 0, false))),
        // Node 0 holds the chosen write (slot 6).
        (at(4), proxy, Envelope::Proto(qr_vote(1, 1, 1, 0, 6, false))),
    ];
    let mut cfg = PigConfig::lan(1).with_pqr();
    cfg.paxos.flexible_quorums = Some((3, 1));
    let (replies, stats) = scripted_proxy_run(cfg, script, SimDuration::from_millis(40));
    assert_eq!(replies.len(), 1, "exactly one read completion: {replies:?}");
    assert_eq!(
        replies[0].value.as_ref().map(|v| v.len()),
        Some(6),
        "the read must see the write chosen at q2 = 1 replica"
    );
    assert_eq!(stats.pqr_inflight(), 0, "pending table must drain");
}

/// Exceeding `PQR_MAX_ATTEMPTS` must abort the read, redirect the
/// client to the leader, and leave nothing behind in the pending table
/// (the rinse-abort → leader-redirect path).
#[test]
fn rinse_abort_redirects_client_and_leaves_no_pending_read() {
    let at = SimDuration::from_millis;
    let proxy = NodeId(1);
    // Every attempt sees the same unresolved in-flight write, so the
    // read rinses until the attempt cap and must then give up. Attempt
    // k's vote lands at t = 4k − 2 ms; its rinse restarts the read
    // 3 ms later as attempt k + 1, and the restart past the cap aborts.
    let mut script = vec![(at(1), proxy, get_request(1, 7))];
    for attempt in 1..=pigpaxos::config::PQR_MAX_ATTEMPTS {
        let vote = qr_vote(1, 1, attempt, 2, 5, true);
        script.push((at(4 * attempt as u64 - 2), proxy, Envelope::Proto(vote)));
    }
    let (replies, stats) = scripted_proxy_run(
        PigConfig::lan(1).with_pqr(),
        script,
        SimDuration::from_millis(60),
    );
    assert_eq!(replies.len(), 1, "one redirect reply: {replies:?}");
    let reply = &replies[0];
    assert!(!reply.ok, "aborted read must not report a value");
    assert_eq!(
        reply.redirect,
        Some(NodeId(0)),
        "client must be handed to the known leader"
    );
    assert_eq!(stats.pqr_started(), 1);
    assert_eq!(
        stats.pqr_inflight(),
        0,
        "aborting must remove the read from the pending table"
    );
}

// ---- PQR × snapshots (log compaction interaction) ----------------------

/// A replica that installs a `SnapshotTransfer` must answer quorum-read
/// probes for compacted keys correctly: the snapshot's last-write index
/// is what keeps `value_slot` truthful after the log entries are gone.
#[test]
fn snapshot_install_restores_quorum_read_freshness_index() {
    use paxi::SessionTable;
    let ballot = paxi::Ballot::new(1, NodeId(0));
    let mk_cmd = |seq: u64, key: u64, len: usize| Command {
        id: RequestId {
            client: NodeId(9),
            seq,
        },
        op: Operation::Put(key, Value::zeros(len)),
    };
    // Writer replica: commit + execute writes to keys 1 and 2, then
    // compact them away.
    let mut writer = paxos::Acceptor::new(NodeId(0), paxi::SafetyMonitor::new());
    let mut executed = 0;
    for (slot, key, len) in [(0, 1, 3), (1, 2, 4), (2, 1, 5)] {
        let (_, adv) = writer
            .on_p2a(ballot, slot, mk_cmd(slot + 1, key, len), 0)
            .expect("in reach");
        executed += adv.executed.len();
        writer.commit(slot, ballot, mk_cmd(slot + 1, key, len));
    }
    executed += writer.execute_ready().len();
    assert_eq!(executed, 3);
    let sessions = SessionTable::new();
    writer.force_snapshot(&sessions);
    let snap = writer.read_state(1);
    assert_eq!(snap.value_slot, 2, "key 1 last written at slot 2");

    // Lagging replica: installs the snapshot instead of replaying the
    // (now truncated) slots.
    let mut lagger = paxos::Acceptor::new(NodeId(1), paxi::SafetyMonitor::new());
    let before = lagger.read_state(1);
    assert_eq!(before.value_slot, 0, "nothing executed yet");
    let transferred = writer.latest_snapshot().expect("snapshot taken").clone();
    assert!(lagger.install_snapshot(&transferred));

    // Probes for the compacted keys must answer from the installed
    // index — same slot, same value, no phantom pending write.
    for key in [1u64, 2] {
        let a = writer.read_state(key);
        let b = lagger.read_state(key);
        assert_eq!(a.value_slot, b.value_slot, "key {key}: freshness index");
        assert_eq!(a.value, b.value, "key {key}: value");
        assert!(
            !b.pending_write,
            "key {key}: no pending write after install"
        );
    }
}

/// End-to-end: a PQR cluster running log compaction, with a follower
/// that sleeps through enough traffic to need a `SnapshotTransfer` on
/// rejoin. Quorum reads must stay linearizable throughout — including
/// probes answered by the freshly installed replica.
#[test]
fn pqr_reads_stay_linearizable_across_snapshot_catch_up() {
    let cfg = PigConfig::lan(2)
        .with_pqr()
        .with_probe_batch(probe_batch())
        .with_snapshots(paxi::SnapshotConfig::every_ops(100));
    let r = Experiment::lan(cfg, 9)
        .clients(8)
        .workload(Workload {
            num_keys: 16,
            ..read_heavy()
        })
        .warmup(SimDuration::ZERO)
        .measure(SimDuration::from_secs(4))
        .check_linearizability()
        .run_sim_with(paxi::DEFAULT_SEED, |sim| {
            // Node 7 sleeps through ~2s of compacting traffic; its gap
            // repair must come back as state, not slots.
            sim.schedule_control(SimTime::from_millis(400), Control::Crash(NodeId(7)));
            sim.schedule_control(SimTime::from_millis(2400), Control::Recover(NodeId(7)));
        });
    assert!(
        r.protocol.violations().is_empty(),
        "{:?}",
        r.protocol.violations()
    );
    let h = r.client.history.expect("checked");
    assert!(h.linearizable(), "{:?}", h.violations);
    assert!(h.reads >= 1000, "{h:?}");
    assert!(r.protocol.snapshots_taken() > 0, "compaction must have run");
    assert!(
        r.protocol.snapshots_installed() >= 1,
        "the rejoining follower must have installed a peer snapshot"
    );
}
