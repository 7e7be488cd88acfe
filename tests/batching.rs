//! Leader-side command batching: safety and amortization, end to end.
//!
//! With `max_batch > 1` an accept round carries many commands, so these
//! tests pin down what batching must NOT change (per-client FIFO order,
//! read-your-writes, agreement) and what it MUST change (leader message
//! load per committed command).

use paxi::{
    BatchConfig, ClientRequest, ClusterConfig, Command, Envelope, Experiment, Operation,
    ProtocolSpec, RequestId, Value, Workload,
};
use paxos::PaxosConfig;
use pigpaxos::PigConfig;
use proptest::prelude::*;
use simnet::{Actor, Context, NodeId, SimDuration, TimerId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

fn batched(max_batch: usize) -> BatchConfig {
    BatchConfig::new(max_batch, SimDuration::from_micros(200))
}

/// The full batching-v2 policy: adaptive sizing + coalesced replies.
fn adaptive_coalesced(max_batch: usize) -> BatchConfig {
    BatchConfig::adaptive(max_batch, SimDuration::from_micros(200)).with_reply_coalescing()
}

/// Run a batched cluster and keep the `ClusterConfig` (and thus the
/// safety monitor's decided log) for post-run inspection: the hook
/// clones the shared handle out before the simulation starts.
fn run_cluster<P: ProtocolSpec>(
    proto: P,
    n: usize,
    clients: usize,
    pipeline: usize,
    seed: u64,
    measure: SimDuration,
) -> ClusterConfig {
    let r = Experiment::lan(proto, n)
        .clients(clients)
        .client_pipeline(pipeline)
        .warmup(SimDuration::ZERO)
        .measure(measure)
        .run_sim(seed);
    assert!(
        r.client.samples > 100,
        "cluster must make progress, got {}",
        r.client.samples
    );
    r.protocol.cluster
}

/// In slot order, every client's sequence numbers must be strictly
/// increasing: a closed-loop client only issues seq n+1 after seq n
/// completed, so any batching-induced reorder or duplicate would show
/// up here.
fn assert_per_client_fifo(cluster: &ClusterConfig) {
    cluster.safety.assert_safe();
    let mut last_seq: HashMap<NodeId, u64> = HashMap::new();
    let mut checked = 0u64;
    for ((space, slot), id) in cluster.safety.decisions() {
        assert_eq!(space, 0, "single log space for (Pig)Paxos");
        if id.client == NodeId(u32::MAX) {
            continue; // noop hole filler
        }
        if let Some(&prev) = last_seq.get(&id.client) {
            assert!(
                id.seq > prev,
                "slot {slot}: client {} seq {} after seq {prev} — decided log \
                 violates per-client issue order",
                id.client,
                id.seq
            );
        }
        last_seq.insert(id.client, id.seq);
        checked += 1;
    }
    assert!(
        checked > 100,
        "expected a substantive decided log, saw {checked} commands"
    );
}

#[test]
fn paxos_batched_log_respects_client_issue_order() {
    let cluster = run_cluster(
        PaxosConfig::lan().with_batch(batched(8)),
        5,
        16,
        1,
        11,
        SimDuration::from_millis(1200),
    );
    assert_per_client_fifo(&cluster);
}

#[test]
fn pigpaxos_batched_log_respects_client_issue_order() {
    let cluster = run_cluster(
        PigConfig::lan(2).with_batch(batched(8)),
        5,
        16,
        1,
        11,
        SimDuration::from_millis(1200),
    );
    assert_per_client_fifo(&cluster);
}

#[test]
fn pipelined_adaptive_log_respects_client_issue_order() {
    // Pipelined clients' requests reorder under LAN jitter; the leader's
    // admission lane must restore per-client issue order even with
    // adaptive batch sizes and coalesced replies in play.
    let cluster = run_cluster(
        PigConfig::lan(2).with_batch(adaptive_coalesced(32)),
        5,
        8,
        4,
        11,
        SimDuration::from_millis(1200),
    );
    assert_per_client_fifo(&cluster);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Per-client FIFO holds in the decided log for every combination of
    /// seed, pipeline depth, and sizing mode — the property the
    /// admission lane exists to defend.
    #[test]
    fn fifo_holds_under_adaptive_sizing_and_coalesced_replies(
        seed in 1u64..1_000,
        pipeline in 1usize..=6,
        adaptive in prop::bool::ANY,
    ) {
        let batch = if adaptive {
            adaptive_coalesced(32)
        } else {
            batched(8).with_reply_coalescing()
        };
        let cluster = run_cluster(
            PigConfig::lan(2).with_batch(batch),
            5,
            6,
            pipeline,
            seed,
            SimDuration::from_millis(900),
        );
        cluster.safety.assert_safe();
        let mut last_seq: HashMap<NodeId, u64> = HashMap::new();
        for ((_, _), id) in cluster.safety.decisions() {
            if id.client == NodeId(u32::MAX) {
                continue;
            }
            if let Some(&prev) = last_seq.get(&id.client) {
                prop_assert!(
                    id.seq > prev,
                    "client {} seq {} decided after seq {}",
                    id.client, id.seq, prev
                );
            }
            last_seq.insert(id.client, id.seq);
        }
    }
}

/// A lone sequential client never fills a batch, so every one of its
/// commands rides the `max_delay` timer flush — this doubles as the
/// partial-batch-flush liveness test. Its put-then-get rounds on one key
/// must form a linearizable history: every get sees the put before it.
fn check_read_your_writes<P: ProtocolSpec>(proto: P, n: usize) {
    let r = Experiment::lan(proto, n)
        .clients(1)
        .workload(Workload {
            num_keys: 1,
            ..Workload::paper_default()
        })
        .warmup(SimDuration::ZERO)
        .measure(SimDuration::from_millis(500))
        .check_linearizability()
        .run_sim(99);
    assert!(
        r.protocol.violations().is_empty(),
        "{:?}",
        r.protocol.violations()
    );
    let h = r.client.history.expect("checked");
    assert!(h.linearizable(), "{:?}", h.violations);
    assert!(
        h.reads >= 50 && h.ops - h.reads >= 50,
        "rounds must complete through the batcher: {h:?}"
    );
}

#[test]
fn paxos_batched_read_your_writes() {
    check_read_your_writes(PaxosConfig::lan().with_batch(batched(16)), 5);
}

#[test]
fn pigpaxos_batched_read_your_writes() {
    check_read_your_writes(PigConfig::lan(2).with_batch(batched(16)), 5);
}

#[test]
fn adaptive_coalesced_read_your_writes() {
    // The full v2 pipeline (adaptive sizing, reply coalescing) must
    // preserve sequential consistency for a lone put-then-get client.
    check_read_your_writes(PaxosConfig::lan().with_batch(adaptive_coalesced(32)), 5);
    check_read_your_writes(PigConfig::lan(2).with_batch(adaptive_coalesced(32)), 5);
}

/// Writes one 16 000 B value and one small one, then reads both back
/// in a single burst of four gets, and records the shape of every
/// envelope that answers the burst.
struct BigReadClient {
    acked: u64,
    /// Replies per envelope of the read burst, in arrival order.
    envelopes: Rc<RefCell<Vec<usize>>>,
    /// The value each get returned, by sequence number.
    reads: Rc<RefCell<HashMap<u64, Option<Value>>>>,
}

const BIG: usize = 16_000;

impl BigReadClient {
    fn issue(seq: u64, op: Operation, ctx: &mut Context<Envelope<paxos::PaxosMsg>>) {
        let id = RequestId {
            client: ctx.node(),
            seq,
        };
        let command = Command { id, op };
        ctx.send(NodeId(0), Envelope::Request(ClientRequest { command }));
    }
}

impl Actor<Envelope<paxos::PaxosMsg>> for BigReadClient {
    fn on_start(&mut self, ctx: &mut Context<Envelope<paxos::PaxosMsg>>) {
        Self::issue(1, Operation::Put(1, Value::from(&[0xAB; BIG][..])), ctx);
        Self::issue(2, Operation::Put(2, Value::from(&[0xCD; 8][..])), ctx);
    }

    fn on_message(
        &mut self,
        _f: NodeId,
        msg: Envelope<paxos::PaxosMsg>,
        ctx: &mut Context<Envelope<paxos::PaxosMsg>>,
    ) {
        // What a socket would do to this envelope: the simulator never
        // encodes, and the packed length field only exists on the wire.
        let bytes = simnet::Wire::encode(&msg);
        assert_eq!(bytes.len(), simnet::Message::wire_size(&msg));
        let decoded: Envelope<paxos::PaxosMsg> =
            simnet::Wire::decode_frame(&simnet::Bytes::from(bytes)).expect("decodes");
        assert_eq!(decoded, msg);
        let replies = match msg {
            Envelope::Reply(r) => vec![r],
            Envelope::ReplyBatch(rs) => rs,
            _ => return,
        };
        if replies[0].id.seq > 2 {
            self.envelopes.borrow_mut().push(replies.len());
        }
        for reply in replies {
            assert!(reply.ok, "{reply:?}");
            if reply.id.seq > 2 {
                self.reads.borrow_mut().insert(reply.id.seq, reply.value);
                continue;
            }
            self.acked += 1;
            if self.acked == 2 {
                for (seq, key) in [(3, 2), (4, 1), (5, 2), (6, 2)] {
                    Self::issue(seq, Operation::Get(key), ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<Envelope<paxos::PaxosMsg>>) {}
}

/// A read result too long for a batched reply's 13-bit length field
/// travels as a `Reply` of its own; at the parent of this test's commit
/// it rode the batch and aborted the replica at encode time.
#[test]
fn an_oversized_read_result_leaves_the_reply_batch() {
    let envelopes = Rc::new(RefCell::new(Vec::new()));
    let reads = Rc::new(RefCell::new(HashMap::new()));
    let (envelopes2, reads2) = (envelopes.clone(), reads.clone());
    let batch = batched(16).with_reply_coalescing();
    let r = Experiment::lan(PaxosConfig::lan().with_batch(batch), 3)
        .extra_client_nodes(1)
        .warmup(SimDuration::ZERO)
        .measure(SimDuration::from_millis(200))
        .run_sim_with(5, move |sim| {
            sim.add_actor(Box::new(BigReadClient {
                acked: 0,
                envelopes: envelopes2,
                reads: reads2,
            }));
        });
    assert!(
        r.protocol.violations().is_empty(),
        "{:?}",
        r.protocol.violations()
    );
    let reads = reads.borrow();
    assert_eq!(reads.len(), 4, "every get answered: {:?}", reads.keys());
    assert_eq!(reads[&4], Some(Value::from(&[0xAB; BIG][..])));
    for seq in [3, 5, 6] {
        assert_eq!(reads[&seq], Some(Value::from(&[0xCD; 8][..])));
    }
    // One wave: the big value alone, its three neighbours together.
    let mut shapes = envelopes.borrow().clone();
    shapes.sort_unstable();
    assert_eq!(shapes, vec![1, 3]);
}

fn pipelined<P: ProtocolSpec>(proto: P) -> Experiment<P> {
    Experiment::lan(proto, 5)
        .clients(4)
        .client_pipeline(8)
        .warmup(SimDuration::from_millis(300))
        .measure(SimDuration::from_millis(1200))
        .capture_trace()
}

/// The reply-side gate: coalescing must collapse per-command reply
/// envelopes for pipelined clients, cutting total leader-sent messages
/// (protocol + replies) at least 2x versus the replies-per-command
/// baseline at the same batch size.
#[test]
fn reply_coalescing_cuts_leader_reply_envelopes() {
    let base = pipelined(PigConfig::lan(2).with_batch(batched(16))).run_sim(paxi::DEFAULT_SEED);
    let v2 = pipelined(PigConfig::lan(2).with_batch(batched(16).with_reply_coalescing()))
        .run_sim(paxi::DEFAULT_SEED);
    assert!(
        base.protocol.violations().is_empty(),
        "{:?}",
        base.protocol.violations()
    );
    assert!(
        v2.protocol.violations().is_empty(),
        "{:?}",
        v2.protocol.violations()
    );

    let base_replies = base
        .transport
        .trace
        .expect("trace captured")
        .leader_replies_per_op;
    let v2_replies = v2
        .transport
        .trace
        .expect("trace captured")
        .leader_replies_per_op;
    assert!(
        (base_replies - 1.0).abs() < 0.05,
        "uncoalesced baseline sends one reply envelope per command, got {base_replies:.3}"
    );
    assert!(
        v2_replies <= 0.5,
        "pipelined waves must coalesce replies >=2x, got {v2_replies:.3} envelopes/cmd"
    );

    let base_total = base
        .transport
        .trace
        .expect("trace captured")
        .leader_sent_per_op();
    let v2_total = v2
        .transport
        .trace
        .expect("trace captured")
        .leader_sent_per_op();
    assert!(
        base_total >= v2_total * 2.0,
        "total leader-sent messages must drop >=2x end to end: {base_total:.3} vs {v2_total:.3}"
    );
    // Coalescing must not wreck service.
    assert!(
        v2.client.throughput > base.client.throughput * 0.7,
        "throughput must hold: {:.0} vs {:.0}",
        v2.client.throughput,
        base.client.throughput
    );
}

/// Adaptive sizing must not tax an idle system: a trickle of commands
/// flushes immediately, keeping p50 within 1.2x of unbatched.
#[test]
fn adaptive_batching_keeps_low_load_latency() {
    let low = |proto: PigConfig| {
        Experiment::lan(proto, 5)
            .clients(2)
            .warmup(SimDuration::from_millis(300))
            .measure(SimDuration::from_millis(1200))
            .run_sim(paxi::DEFAULT_SEED)
    };
    let unbatched = low(PigConfig::lan(2));
    let adaptive = low(PigConfig::lan(2).with_batch(adaptive_coalesced(32)));
    assert!(adaptive.protocol.violations().is_empty());
    assert!(
        adaptive.client.p50_latency_ms <= unbatched.client.p50_latency_ms * 1.2,
        "adaptive mode must flush immediately at low load: p50 {:.3}ms vs {:.3}ms",
        adaptive.client.p50_latency_ms,
        unbatched.client.p50_latency_ms
    );
}

/// The point of the whole subsystem: at `max_batch = 16`, leader-sent
/// protocol messages per committed command must drop by at least 4x
/// vs. unbatched (the repo's acceptance gate), for both the direct and
/// the relay-tree protocol — one generic check, two protocol configs.
#[test]
fn batching_cuts_leader_protocol_messages_4x() {
    fn saturated<P: ProtocolSpec>(proto: P) -> paxi::RunResult {
        Experiment::lan(proto, 5)
            .clients(32)
            .warmup(SimDuration::from_millis(300))
            .measure(SimDuration::from_millis(1200))
            .capture_trace()
            .run_sim(paxi::DEFAULT_SEED)
    }

    for (name, base, b16) in [
        (
            "paxos",
            saturated(PaxosConfig::lan()),
            saturated(PaxosConfig::lan().with_batch(batched(16))),
        ),
        (
            "pigpaxos",
            saturated(PigConfig::lan(2)),
            saturated(PigConfig::lan(2).with_batch(batched(16))),
        ),
    ] {
        assert!(
            base.protocol.violations().is_empty(),
            "{name} unbatched: {:?}",
            base.protocol.violations()
        );
        assert!(
            b16.protocol.violations().is_empty(),
            "{name} batched: {:?}",
            b16.protocol.violations()
        );
        let unbatched = base
            .transport
            .trace
            .expect("trace captured")
            .leader_proto_sent_per_op;
        let batched16 = b16
            .transport
            .trace
            .expect("trace captured")
            .leader_proto_sent_per_op;
        assert!(
            unbatched >= batched16 * 4.0,
            "{name}: leader-sent protocol msgs/cmd must drop >=4x: {unbatched:.3} vs {batched16:.3}"
        );
        // Total leader load (requests + replies included) must drop too.
        assert!(
            b16.transport.leader_msgs_per_op < base.transport.leader_msgs_per_op,
            "{name}: total leader msgs/op must drop: {:.2} vs {:.2}",
            base.transport.leader_msgs_per_op,
            b16.transport.leader_msgs_per_op
        );
        // Batching must not wreck service: same order of throughput.
        assert!(
            b16.client.throughput > base.client.throughput * 0.5,
            "{name}: batched throughput collapsed: {:.0} vs {:.0}",
            b16.client.throughput,
            base.client.throughput
        );
    }
}
