//! The run engine behind [`crate::Experiment`]. Every run — any
//! protocol, one group or many, any substrate — takes one path:
//!
//! 1. **deploy**: stamp out all actors in node-id order —
//!    each group's replicas (behind [`ShardGate`]s when the experiment
//!    is sharded), the clients ([`ClosedLoopClient`]s, routing by key
//!    when sharded), then custom client actors — plus
//!    the [`ShardLayout`] that says who is where and the
//!    [`ClientRecorder`] every client reports into.
//! 2. **drive**: run the actors on one substrate. The simulator driver
//!    fires the setup hook, then runs warm-up, the measurement window
//!    and the optional drain; the wall-clock driver runs the readiness
//!    loops, in memory or over TCP, for a wall-clock span and measures
//!    all of it — the window `(0, wall]`. Each returns what it observed.
//! 3. **assemble**: the one place a [`RunResult`] is
//!    built — windowing, percentiles, per-node loads, and the safety,
//!    compaction and PQR counters merged over groups.
//!
//! What each substrate can observe (anything else is zero, empty or
//! `None`, never garbage):
//!
//! | `RunResult` field | simulator | threads | TCP |
//! |---|---|---|---|
//! | throughput, latencies, `samples`, `timeline`, `client_retries` | measurement window | whole run | whole run |
//! | `decided`, `violations`, `groups`, log/snapshot/PQR counters | yes | yes | yes |
//! | `node_msgs`, `leader_msgs_per_op`, `follower_msgs_per_op` | window, from simulator stats | whole run, from the transport | whole run, from the transport |
//! | `cross_region_msgs_per_op` | yes | — | — |
//! | `label_counts` | with `capture_trace` | whole run, from the transport | whole run, from the transport |
//! | `trace_fingerprint`, `leader_*_per_op` | with `capture_trace` | — | — |
//! | `replica_digests`, `converged()` | with `drain` | — | — |
//! | `net` | — | yes; socket counters 0 | yes |

use crate::client::{ClientRecorder, ClosedLoopClient, Sample, TargetPolicy};
use crate::cluster::ClusterConfig;
use crate::envelope::{Envelope, ProtoMessage};
use crate::experiment::{Experiment, ProtocolSpec};
use crate::metrics::{mean, percentile};
use crate::shard::{GroupId, ShardGate, ShardLayout, ShardMap};
use pig_runtime::{LoopRuntime, NetRunStats};
use simnet::{Actor, NodeId, SimDuration, SimTime, Simulation};
use std::collections::BTreeMap;
use std::time::Duration;

/// Default master seed for [`crate::Experiment`] call sites that have
/// no better choice.
pub const DEFAULT_SEED: u64 = 0x9199_7a05;

/// Metrics from one run, identical in shape on every substrate; the
/// [module docs](self) tabulate which fields each substrate fills.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Completed operations per second in the measurement window.
    pub throughput: f64,
    /// Mean end-to-end latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Median latency (ms).
    pub p50_latency_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_latency_ms: f64,
    /// Number of samples in the window.
    pub samples: usize,
    /// Distinct slots decided across the run, summed over groups.
    pub decided: u64,
    /// Safety violations detected in any group (must be empty).
    pub violations: Vec<String>,
    /// The consensus groups that ran — one, unless the experiment was
    /// sharded — each with the [`crate::SafetyMonitor`] and compaction
    /// counters its replicas reported into, for per-group inspection
    /// (decided counts, decision logs) after the run.
    pub groups: Vec<ClusterConfig>,
    /// Per-node messages handled (sent + received) in the window,
    /// indexed by node id; replicas first, then clients.
    pub node_msgs: Vec<u64>,
    /// Messages handled by a group's leader per completed operation —
    /// the empirical `Ml` of the paper's §6 (mean over groups).
    pub leader_msgs_per_op: f64,
    /// Mean messages handled per non-leader replica per operation — the
    /// empirical `Mf`.
    pub follower_msgs_per_op: f64,
    /// Cross-region messages per operation (paper §6.4).
    pub cross_region_msgs_per_op: f64,
    /// Per-bucket throughput timeline `(bucket_end_secs, ops_per_sec)`,
    /// present when [`crate::Experiment::timeline_bucket`] was set.
    pub timeline: Vec<(f64, f64)>,
    /// Client retries observed (an indicator of failures during the run).
    pub client_retries: u64,
    /// Largest retained log length (slots, or EPaxos instances) any
    /// replica reported across the whole run — the memory-boundedness
    /// quantity log compaction gates on. 0 when no replica reported
    /// (e.g. a protocol without compaction instrumentation).
    pub max_log_len: u64,
    /// Snapshots taken (log compactions) across all replicas. 0 when
    /// `SnapshotConfig` is disabled (the default).
    pub snapshots_taken: u64,
    /// Snapshots installed *from a peer* (the catch-up path a lagging
    /// follower or newly elected leader takes when its missing prefix
    /// was truncated everywhere).
    pub snapshots_installed: u64,
    /// FNV fingerprint of the full message trace, present when
    /// [`crate::Experiment::capture_trace`] was set. Identical seeds +
    /// configs must produce identical fingerprints.
    pub trace_fingerprint: Option<u64>,
    /// Leader-sent *protocol* messages (everything except client
    /// replies) per completed operation in the window — the precise
    /// measure of what relay trees and batching amortize. This and the
    /// three fields below need `capture_trace` and are means over
    /// group leaders.
    pub leader_proto_sent_per_op: Option<f64>,
    /// Leader-sent client-reply envelopes (`reply` + `reply_batch`) per
    /// completed operation — what reply coalescing amortizes.
    pub leader_replies_per_op: Option<f64>,
    /// All leader-sent messages (protocol + replies) per completed
    /// operation — the end-to-end outbound leader load the batching
    /// pipeline attacks.
    pub leader_sent_per_op: Option<f64>,
    /// Protocol messages *received* by the leader per completed
    /// operation (the relay→leader uplink hop that multi-round
    /// aggregate coalescing amortizes).
    pub leader_proto_recv_per_op: Option<f64>,
    /// Delivered (non-dropped) messages by wire label (`"p2a"`,
    /// `"qr_read"`, `"reply_batch"`, …): in the measurement window when
    /// the simulator captured a trace, over the whole run on the
    /// wall-clock substrates. The
    /// typed handle on message-shape questions — e.g. "how many
    /// quorum-read probes did PQR send per operation?" — without
    /// hand-rolling a simulation.
    pub label_counts: Option<BTreeMap<&'static str, u64>>,
    /// Quorum reads opened at proxies across the whole run (0 for
    /// non-PQR configurations).
    pub pqr_reads_started: u64,
    /// Quorum reads still pending at some proxy when the run ended.
    /// A quiesced run must end at 0; a workload-driven run may end with
    /// at most the number of in-flight client operations — anything
    /// larger is a `PendingReads` leak.
    pub pqr_reads_inflight: u64,
    /// Per-replica state digests collected after the drain phase,
    /// indexed by replica node id. `None` entries are replicas that do
    /// not report a digest (or were crashed when sampled). Empty unless
    /// [`crate::Experiment::drain`] was non-zero on the simulator.
    pub replica_digests: Vec<Option<u64>>,
    /// The wall-clock transport's own counters (time spent on each node;
    /// over TCP also reconnects, frames that failed to decode, frames
    /// dropped): a healthy run has zero decode errors and zero dropped
    /// frames even when client retries would have papered over them.
    pub net: Option<NetRunStats>,
}

impl RunResult {
    /// Delivered messages with `label` per completed operation in the
    /// window. Returns `None` unless labels were counted.
    pub fn label_per_op(&self, label: &str) -> Option<f64> {
        self.labels_per_op(&[label])
    }

    /// Sum of [`RunResult::label_per_op`] over several labels — the
    /// handle on message families that batch under a different label
    /// (e.g. PQR probe cost = `qr_read` + `qr_vote` + `qr_read_batch` +
    /// `qr_vote_batch`). Returns `None` unless labels were counted.
    pub fn labels_per_op(&self, labels: &[&str]) -> Option<f64> {
        let ops = self.samples.max(1) as f64;
        self.label_counts.as_ref().map(|c| {
            labels
                .iter()
                .map(|l| c.get(l).copied().unwrap_or(0))
                .sum::<u64>() as f64
                / ops
        })
    }

    /// Whether, within every group, all digest-reporting replicas
    /// converged to the same state after the drain phase (groups hold
    /// different keys, so digests are never compared across groups).
    /// `None` when no group has two reporting replicas (drain disabled,
    /// wall-clock substrate, or no replica reports a digest).
    pub fn converged(&self) -> Option<bool> {
        let mut verdict = None;
        for group in &self.groups {
            let digests: Vec<u64> = group
                .replicas
                .iter()
                .filter_map(|r| self.replica_digests.get(r.index()).copied().flatten())
                .collect();
            if digests.len() >= 2 {
                let agree = digests.windows(2).all(|w| w[0] == w[1]);
                verdict = Some(verdict.unwrap_or(true) && agree);
            }
        }
        verdict
    }
}

/// One point of a latency/throughput sweep.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Number of closed-loop clients for this point.
    pub clients: usize,
    /// The full run metrics.
    pub result: RunResult,
}

pub(crate) type BoxedActor<M> = Box<dyn Actor<Envelope<M>> + Send>;

/// Everything one run deploys.
pub(crate) struct Deployment<M> {
    pub(crate) layout: ShardLayout,
    /// All actors, in node-id order.
    pub(crate) actors: Vec<BoxedActor<M>>,
    pub(crate) recorder: ClientRecorder,
}

/// Materialize the node assignment and the actors for one run (fresh
/// per-group safety monitors and compaction counters). Node-id space,
/// in order: group 0's replicas, group 1's, …, clients, custom client
/// actors, empty hook slots.
pub(crate) fn deploy<P: ProtocolSpec>(exp: &Experiment<P>) -> Deployment<P::Msg> {
    let r = exp.topology.num_nodes();
    let clusters: Vec<ClusterConfig> = match exp.shards {
        None => vec![ClusterConfig::new(r)],
        Some(s) => (0..s)
            .map(|g| ClusterConfig::with_range(g * r, r))
            .collect(),
    };
    let n_replicas = clusters.len() * r;
    let ids = |from: usize, count: usize| (from..from + count).map(NodeId::from).collect();
    let routers: Vec<NodeId> = ids(n_replicas, exp.n_clients);
    let n_extras = exp.extra_actors.len() + exp.extra_client_nodes;
    let key_space = match exp.key_space {
        0 => exp.workload.num_keys,
        keys => keys,
    };
    let layout = ShardLayout {
        shards: clusters.len(),
        replicas_per_shard: r,
        map: ShardMap::uniform(clusters.len() as u32, key_space),
        leaders: clusters.iter().map(|c| c.leader).collect(),
        clusters,
        extras: ids(n_replicas + routers.len(), n_extras),
        total_nodes: n_replicas + routers.len() + n_extras,
        routers,
    };

    let recorder = ClientRecorder::new();
    let gated = exp.shards.is_some();
    let notify: Vec<NodeId> = layout
        .leaders
        .iter()
        .chain(layout.routers.iter())
        .copied()
        .collect();
    let mut actors: Vec<BoxedActor<P::Msg>> = Vec::with_capacity(layout.total_nodes);
    for (g, cluster) in layout.clusters.iter().enumerate() {
        for &node in &cluster.replicas {
            if !gated {
                actors.push(exp.proto.build_replica(node, cluster));
                continue;
            }
            let mut gate = ShardGate::new(
                exp.proto.replica(node, cluster),
                g as GroupId,
                layout.map.clone(),
                layout.leaders.clone(),
                notify.clone(),
            );
            if node == cluster.leader {
                gate = gate.with_moves(exp.moves.clone());
            }
            actors.push(Box::new(gate));
        }
    }
    let target = if gated {
        TargetPolicy::ByKey {
            map: layout.map.clone(),
            leaders: layout.leaders.clone(),
        }
    } else {
        exp.resolved_target()
    };
    for _ in 0..exp.n_clients {
        actors.push(Box::new(
            ClosedLoopClient::<P::Msg>::new(
                target.clone(),
                exp.workload.clone(),
                recorder.clone(),
                exp.retry_timeout,
            )
            .with_pipeline(exp.client_pipeline),
        ));
    }
    for factory in &exp.extra_actors {
        actors.push(factory(&layout));
    }
    Deployment {
        layout,
        actors,
        recorder,
    }
}

/// What one driver saw: the measured window, plus whatever only its
/// substrate can observe (the rest stays at its empty default).
#[derive(Default)]
pub(crate) struct Observed {
    /// Samples completing in `(window.0, window.1]` are measured.
    window: (SimTime, SimTime),
    /// Per-node sent + received in the window (simulator).
    node_msgs: Vec<u64>,
    cross_region_msgs: u64,
    trace: Option<TraceCounts>,
    replica_digests: Vec<Option<u64>>,
    net: Option<NetRunStats>,
}

/// Message counts over the traced measurement window.
struct TraceCounts {
    fingerprint: u64,
    /// Delivered messages by wire label.
    labels: BTreeMap<&'static str, u64>,
    /// Sent by / received at group leaders, summed over leaders.
    leader_proto_sent: usize,
    leader_replies_sent: usize,
    leader_proto_recv: usize,
}

/// The simulator driver: `hook`, then warm-up, the measurement window
/// and the optional drain, in simulated time.
pub(crate) fn drive_sim<P, H>(
    exp: &Experiment<P>,
    seed: u64,
    layout: &ShardLayout,
    actors: Vec<BoxedActor<P::Msg>>,
    hook: H,
) -> Observed
where
    P: ProtocolSpec,
    H: FnOnce(&mut Simulation<Envelope<P::Msg>>, &ShardLayout),
{
    let mut topology = exp.topology.clone();
    topology.add_nodes(layout.total_nodes - topology.num_nodes(), exp.client_region);
    let mut sim: Simulation<Envelope<P::Msg>> = Simulation::new(topology, exp.cost.clone(), seed);
    if exp.capture_trace {
        sim.enable_trace();
    }
    for actor in actors {
        sim.add_actor(actor);
    }
    hook(&mut sim, layout);

    sim.run_for(exp.warmup);
    let start = sim.now();
    let before = sim.stats().clone();
    sim.run_for(exp.measure);
    let end = sim.now();
    let after = sim.stats().clone();

    // Optional drain: silence all client traffic and let the replica
    // groups quiesce, then sample per-replica state digests for
    // convergence checks. Skipped entirely (no extra events, schedule
    // unchanged) when `drain` is zero.
    let n_replicas = layout.shards * layout.replicas_per_shard;
    let mut replica_digests = Vec::new();
    if exp.drain > SimDuration::ZERO {
        for i in n_replicas..layout.total_nodes {
            sim.crash(NodeId::from(i));
        }
        sim.run_for(exp.drain);
        replica_digests = (0..n_replicas)
            .map(|i| sim.actor(NodeId::from(i)).state_digest())
            .collect();
    }

    let trace = sim.trace().map(|trace| {
        let is_reply = |label: &str| label == "reply" || label == "reply_batch";
        let is_leader = |n: NodeId| layout.leaders.contains(&n);
        let mut counts = TraceCounts {
            fingerprint: trace.fingerprint(),
            labels: BTreeMap::new(),
            leader_proto_sent: 0,
            leader_replies_sent: 0,
            leader_proto_recv: 0,
        };
        for e in trace.entries() {
            if e.at <= start || e.at > end {
                continue;
            }
            if !e.dropped {
                *counts.labels.entry(e.label).or_insert(0) += 1;
            }
            if is_leader(e.from) {
                if is_reply(e.label) {
                    counts.leader_replies_sent += 1;
                } else {
                    counts.leader_proto_sent += 1;
                }
            } else if is_leader(e.to) && e.label != "request" && !is_reply(e.label) {
                counts.leader_proto_recv += 1;
            }
        }
        counts
    });

    Observed {
        window: (start, end),
        node_msgs: after
            .nodes
            .iter()
            .zip(before.nodes.iter())
            .map(|(a, b)| a.msgs_total() - b.msgs_total())
            .collect(),
        cross_region_msgs: after.cross_region_msgs - before.cross_region_msgs,
        trace,
        replica_digests,
        net: None,
    }
}

/// A wall-clock run measures all of itself.
fn whole_run(wall: Duration) -> (SimTime, SimTime) {
    (SimTime::ZERO, SimTime::from_nanos(wall.as_nanos() as u64))
}

/// A wall-clock runtime's `run_for`.
pub(crate) type RunFor<M, T> = fn(&mut LoopRuntime<Envelope<M>, T>, Duration) -> NetRunStats;

/// The wall-clock driver: the actors on `rt`, one readiness loop per
/// core, in memory or over TCP, for `wall` of real time.
pub(crate) fn drive_wall<M, T>(
    mut rt: LoopRuntime<Envelope<M>, T>,
    run_for: RunFor<M, T>,
    wall: Duration,
    actors: Vec<BoxedActor<M>>,
) -> Observed
where
    M: ProtoMessage + Send,
{
    for actor in actors {
        rt.add_actor(actor);
    }
    Observed {
        window: whole_run(wall),
        net: Some(run_for(&mut rt, wall)),
        ..Observed::default()
    }
}

/// Turn what the clients recorded, what the groups counted and what
/// the driver saw into the run's result.
pub(crate) fn assemble(
    timeline_bucket: Option<SimDuration>,
    layout: ShardLayout,
    recorder: &ClientRecorder,
    seen: Observed,
) -> RunResult {
    let (start, end) = seen.window;
    let all_samples = recorder.samples();
    let window: Vec<&Sample> = all_samples
        .iter()
        .filter(|s| s.completed > start && s.completed <= end)
        .collect();
    let secs = (end - start).as_secs_f64().max(f64::MIN_POSITIVE);
    let lat_ms: Vec<f64> = window.iter().map(|s| s.latency().as_millis_f64()).collect();
    let ops = window.len().max(1) as f64;

    // A wall-clock transport counts its own traffic; the simulator's
    // counts come from its stats and trace.
    let (node_msgs, label_counts) = match &seen.net {
        Some(net) => (
            net.per_node_sent
                .iter()
                .zip(net.per_node_received.iter())
                .map(|(s, r)| s + r)
                .collect(),
            Some(net.delivered_by_label.clone()),
        ),
        None => (
            seen.node_msgs,
            seen.trace.as_ref().map(|t| t.labels.clone()),
        ),
    };
    let load = |n: &NodeId| node_msgs.get(n.index()).copied().unwrap_or(0) as f64 / ops;
    let groups = layout.clusters;
    let leader_loads: Vec<f64> = groups.iter().map(|c| load(&c.leader)).collect();
    let follower_loads: Vec<f64> = groups
        .iter()
        .flat_map(|c| c.replicas.iter().filter(move |&&n| n != c.leader))
        .map(load)
        .collect();
    let trace = seen.trace.as_ref();
    let per_leader_op = |count: fn(&TraceCounts) -> usize| {
        trace.map(|t| count(t) as f64 / (ops * groups.len() as f64))
    };
    let sum = |f: fn(&ClusterConfig) -> u64| groups.iter().map(f).sum::<u64>();

    RunResult {
        throughput: window.len() as f64 / secs,
        mean_latency_ms: mean(&lat_ms),
        p50_latency_ms: percentile(&lat_ms, 50.0),
        p99_latency_ms: percentile(&lat_ms, 99.0),
        samples: window.len(),
        decided: sum(|c| c.safety.decided_count()),
        violations: groups.iter().flat_map(|c| c.safety.violations()).collect(),
        leader_msgs_per_op: mean(&leader_loads),
        follower_msgs_per_op: mean(&follower_loads),
        cross_region_msgs_per_op: seen.cross_region_msgs as f64 / ops,
        node_msgs,
        timeline: timeline_bucket
            .map(|bucket| bucket_timeline(&all_samples, bucket, end))
            .unwrap_or_default(),
        client_retries: recorder.retries(),
        max_log_len: groups
            .iter()
            .map(|c| c.stats.max_log_len())
            .max()
            .unwrap_or(0),
        snapshots_taken: sum(|c| c.stats.snapshots_taken()),
        snapshots_installed: sum(|c| c.stats.snapshots_installed()),
        trace_fingerprint: trace.map(|t| t.fingerprint),
        leader_proto_sent_per_op: per_leader_op(|t| t.leader_proto_sent),
        leader_replies_per_op: per_leader_op(|t| t.leader_replies_sent),
        leader_sent_per_op: per_leader_op(|t| t.leader_proto_sent + t.leader_replies_sent),
        leader_proto_recv_per_op: per_leader_op(|t| t.leader_proto_recv),
        label_counts,
        pqr_reads_started: sum(|c| c.stats.pqr_started()),
        pqr_reads_inflight: sum(|c| c.stats.pqr_inflight()),
        replica_digests: seen.replica_digests,
        net: seen.net,
        groups,
    }
}

/// Completions per `bucket` of run time up to `end`, as
/// `(bucket_end_secs, ops_per_sec)`. `bucket` is non-zero: the setter
/// rejects zero.
fn bucket_timeline(samples: &[Sample], bucket: SimDuration, end: SimTime) -> Vec<(f64, f64)> {
    let nb = (end.as_nanos() / bucket.as_nanos()) as usize;
    let mut counts = vec![0u64; nb + 1];
    for s in samples {
        let idx = (s.completed.as_nanos() / bucket.as_nanos()) as usize;
        if idx < counts.len() {
            counts[idx] += 1;
        }
    }
    let bsecs = bucket.as_secs_f64();
    counts
        .iter()
        .enumerate()
        .take(nb)
        .map(|(i, &c)| ((i as f64 + 1.0) * bsecs, c as f64 / bsecs))
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::experiment::tests::small;
    use simnet::SimDuration;

    #[test]
    fn more_clients_more_throughput_until_saturation() {
        let lo = small().clients(1).run_sim(crate::DEFAULT_SEED);
        let hi = small().clients(8).run_sim(crate::DEFAULT_SEED);
        assert!(
            hi.throughput > lo.throughput * 2.0,
            "8 clients ({}) should beat 1 client ({}) substantially",
            hi.throughput,
            lo.throughput
        );
    }

    #[test]
    fn timeline_buckets_cover_run() {
        let r = small()
            .clients(4)
            .timeline_bucket(SimDuration::from_millis(250))
            .run_sim(crate::DEFAULT_SEED);
        // Total run is 1s -> 4 buckets.
        assert_eq!(r.timeline.len(), 4);
        // Steady load: later buckets should show similar throughput.
        let t: Vec<f64> = r.timeline.iter().map(|&(_, v)| v).collect();
        assert!(t[3] > 0.0);
    }

    #[test]
    fn leader_msgs_per_op_counted() {
        let r = small().clients(2).run_sim(crate::DEFAULT_SEED);
        // The instant server handles exactly 1 recv + 1 send per op.
        assert!(
            (r.leader_msgs_per_op - 2.0).abs() < 0.2,
            "got {}",
            r.leader_msgs_per_op
        );
    }

    #[test]
    fn label_counts_present_only_with_trace() {
        let no_trace = small().clients(2).run_sim(crate::DEFAULT_SEED);
        assert!(no_trace.label_counts.is_none());
        assert!(no_trace.label_per_op("request").is_none());

        let traced = small()
            .clients(2)
            .capture_trace()
            .run_sim(crate::DEFAULT_SEED);
        let counts = traced.label_counts.as_ref().expect("trace captured");
        assert!(counts.get("request").copied().unwrap_or(0) > 100);
        assert!(counts.get("reply").copied().unwrap_or(0) > 100);
        // One request and one reply per completed op (instant server).
        let per_op = traced.label_per_op("request").expect("traced");
        assert!((per_op - 1.0).abs() < 0.1, "got {per_op}");
    }
}
