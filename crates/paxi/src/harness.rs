//! The run engine behind [`crate::Experiment`]. Every run — any
//! protocol, any substrate — takes one path:
//!
//! 1. **deploy**: stamp out all actors in node-id order — the
//!    replicas of the one consensus group, then the clients
//!    ([`ClosedLoopClient`]s) — plus the [`ClusterConfig`] they share
//!    and the [`ClientRecorder`] every client reports into, with the
//!    run's operation history when it is checked.
//! 2. **drive**: run the actors on one substrate. The simulator driver
//!    fires the setup hook, then runs warm-up, the measurement window
//!    and the optional drain; the wall-clock driver runs the readiness
//!    loops, in memory or over TCP, for a wall-clock span and measures
//!    all of it — the window `(0, wall]`. Each measures what the
//!    clients saw in its window and what its transport carried.
//! 3. **assemble**: the one place a [`RunResult`] is built, from those
//!    two parts and the cluster that ran.
//!
//! A result has the same shape on every substrate. What a substrate or
//! an opt-in cannot observe is `None` in it, never zero or empty.

use crate::client::{ClientRecorder, ClosedLoopClient, Sample};
use crate::cluster::ClusterConfig;
use crate::envelope::Envelope;
use crate::experiment::{Experiment, ProtocolSpec};
use crate::history::{History, HistoryCheck};
use crate::metrics::{mean, percentile};
use pig_runtime::{LoopRuntime, NetRunStats};
use simnet::{Actor, CpuCostModel, NodeId, SimDuration, SimTime, Simulation};
use std::collections::BTreeMap;
use std::time::Duration;

/// Default master seed for [`crate::Experiment`] call sites that have
/// no better choice.
pub const DEFAULT_SEED: u64 = 0x9199_7a05;

/// Metrics from one run, in three parts: what the clients saw, what the
/// consensus group decided and what the transport carried.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Throughput and latency as the clients measured them.
    pub client: ClientResult,
    /// The cluster that ran, and what its replicas agreed on.
    pub protocol: ProtocolResult,
    /// Messages per node, per label and per operation.
    pub transport: TransportResult,
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
        self.transport.label_counts.as_ref().map(|c| {
            labels
                .iter()
                .map(|l| c.get(l).copied().unwrap_or(0))
                .sum::<u64>() as f64
                / self.client.ops()
        })
    }
}

/// What the clients saw complete: in the measurement window on the
/// simulator, over the whole run on the wall-clock substrates.
#[derive(Debug, Clone)]
pub struct ClientResult {
    /// Completed operations per second.
    pub throughput: f64,
    /// Mean end-to-end latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Median latency (ms).
    pub p50_latency_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_latency_ms: f64,
    /// Number of operations completed.
    pub samples: usize,
    /// Client retries over the whole run (an indicator of failures).
    pub retries: u64,
    /// Per-bucket throughput `(bucket_end_secs, ops_per_sec)` from the
    /// start of the run; `Some` when
    /// [`crate::Experiment::timeline_bucket`] was set.
    pub timeline: Option<Vec<(f64, f64)>>,
    /// The linearizability check of every operation of the run, warm-up
    /// and drain included; `Some` with
    /// [`crate::Experiment::check_linearizability`].
    pub history: Option<HistoryCheck>,
}

impl ClientResult {
    /// What `recorder` saw complete in `(start, end]`, plus the timeline
    /// up to `end` when a `bucket` is set.
    fn measure(
        recorder: &ClientRecorder,
        (start, end): (SimTime, SimTime),
        bucket: Option<SimDuration>,
    ) -> ClientResult {
        let all = recorder.samples();
        let lat_ms: Vec<f64> = all
            .iter()
            .filter(|s| s.completed > start && s.completed <= end)
            .map(|s| s.latency().as_millis_f64())
            .collect();
        let secs = (end - start).as_secs_f64().max(f64::MIN_POSITIVE);
        ClientResult {
            throughput: lat_ms.len() as f64 / secs,
            mean_latency_ms: mean(&lat_ms),
            p50_latency_ms: percentile(&lat_ms, 50.0),
            p99_latency_ms: percentile(&lat_ms, 99.0),
            samples: lat_ms.len(),
            retries: recorder.retries(),
            timeline: bucket.map(|bucket| bucket_timeline(&all, bucket, end)),
            history: recorder.history().map(History::check),
        }
    }

    /// Completed operations, at least one: every per-op denominator.
    fn ops(&self) -> f64 {
        self.samples.max(1) as f64
    }
}

/// The consensus group that ran. Every count here is read from it.
#[derive(Debug, Clone)]
pub struct ProtocolResult {
    /// The cluster with the [`crate::SafetyMonitor`] and compaction
    /// counters its replicas reported into, for inspection (decided
    /// counts, decision logs) after the run.
    pub cluster: ClusterConfig,
    /// Per-replica state digests after the drain, indexed by replica
    /// node id (`None` for a replica that reports none); `Some` when
    /// [`crate::Experiment::drain`] was non-zero on the simulator.
    pub replica_digests: Option<Vec<Option<u64>>>,
}

impl ProtocolResult {
    /// Distinct slots decided across the run.
    pub fn decided(&self) -> u64 {
        self.cluster.safety.decided_count()
    }

    /// Safety violations detected (must be empty).
    pub fn violations(&self) -> Vec<String> {
        self.cluster.safety.violations()
    }

    /// Largest retained log length (slots, or EPaxos instances) any
    /// replica reported — the quantity log compaction bounds. 0 when no
    /// replica reported.
    pub fn max_log_len(&self) -> u64 {
        self.cluster.stats.max_log_len()
    }

    /// Snapshots taken (log compactions) across all replicas.
    pub fn snapshots_taken(&self) -> u64 {
        self.cluster.stats.snapshots_taken()
    }

    /// Snapshots installed *from a peer* (the catch-up path a lagging
    /// follower or newly elected leader takes when its missing prefix
    /// was truncated everywhere).
    pub fn snapshots_installed(&self) -> u64 {
        self.cluster.stats.snapshots_installed()
    }

    /// Quorum reads opened at proxies (0 for non-PQR configurations).
    pub fn pqr_reads_started(&self) -> u64 {
        self.cluster.stats.pqr_started()
    }

    /// Quorum reads still pending at some proxy when the run ended.
    /// A quiesced run must end at 0; a workload-driven run may end with
    /// at most the number of in-flight client operations — anything
    /// larger is a `PendingReads` leak.
    pub fn pqr_reads_inflight(&self) -> u64 {
        self.cluster.stats.pqr_inflight()
    }

    /// Whether all digest-reporting replicas converged to the same
    /// state after the drain phase. `None` without digests, or with
    /// fewer than two reporting replicas.
    pub fn converged(&self) -> Option<bool> {
        let digests: Vec<u64> = self
            .replica_digests
            .as_ref()?
            .iter()
            .flatten()
            .copied()
            .collect();
        (digests.len() >= 2).then(|| digests.windows(2).all(|w| w[0] == w[1]))
    }
}

/// What the transport carried: on the simulator in the measurement
/// window, from its stats and trace; on the wall-clock substrates over
/// the whole run, election included, from the transport's own counters.
#[derive(Debug, Clone)]
pub struct TransportResult {
    /// Per-node messages handled (sent + received), indexed by node id;
    /// replicas first, then clients.
    pub node_msgs: Vec<u64>,
    /// Messages handled by the leader per completed operation — the
    /// empirical `Ml` of the paper's §6.
    pub leader_msgs_per_op: f64,
    /// Mean messages handled per non-leader replica per operation — the
    /// empirical `Mf`.
    pub follower_msgs_per_op: f64,
    /// Delivered (non-dropped) messages by wire label (`"p2a"`,
    /// `"qr_read"`, `"reply_batch"`, …); `Some` on the wall-clock
    /// substrates, and on the simulator with
    /// [`crate::Experiment::capture_trace`].
    pub label_counts: Option<BTreeMap<&'static str, u64>>,
    /// Cross-region messages per operation (paper §6.4); `Some` on the
    /// simulator only.
    pub cross_region_msgs_per_op: Option<f64>,
    /// What a captured message trace adds; `Some` on the simulator with
    /// [`crate::Experiment::capture_trace`].
    pub trace: Option<TraceSummary>,
    /// The wall-clock transport's own counters (time spent on each node;
    /// over TCP also reconnects, undecodable and dropped frames, which a
    /// healthy run has none of); `Some` on the wall-clock substrates.
    pub net: Option<NetRunStats>,
}

impl TransportResult {
    /// `node_msgs` and the leader's and followers' loads over `ops`;
    /// everything else not observed (yet).
    fn new(node_msgs: Vec<u64>, cluster: &ClusterConfig, ops: f64) -> TransportResult {
        let load = |n: &NodeId| node_msgs.get(n.index()).copied().unwrap_or(0) as f64 / ops;
        let followers: Vec<f64> = cluster
            .replicas
            .iter()
            .filter(|&&n| n != cluster.leader)
            .map(load)
            .collect();
        TransportResult {
            leader_msgs_per_op: load(&cluster.leader),
            follower_msgs_per_op: mean(&followers),
            node_msgs,
            label_counts: None,
            cross_region_msgs_per_op: None,
            trace: None,
            net: None,
        }
    }
}

/// A traced window's fingerprint and the leader's traffic in it, per
/// completed operation.
#[derive(Debug, Clone, Copy)]
pub struct TraceSummary {
    /// FNV fingerprint of the full message trace. Identical seeds and
    /// configs must produce identical fingerprints.
    pub fingerprint: u64,
    /// Leader-sent *protocol* messages (all but client replies): what
    /// relay trees and batching amortize.
    pub leader_proto_sent_per_op: f64,
    /// Leader-sent client-reply envelopes (`reply` + `reply_batch`) —
    /// what reply coalescing amortizes.
    pub leader_replies_per_op: f64,
    /// Protocol messages *received* by the leader (the relay→leader
    /// uplink hop that multi-round aggregate coalescing amortizes).
    pub leader_proto_recv_per_op: f64,
}

impl TraceSummary {
    /// All leader-sent messages (protocol + replies) — the end-to-end
    /// outbound leader load the batching pipeline attacks.
    pub fn leader_sent_per_op(&self) -> f64 {
        self.leader_proto_sent_per_op + self.leader_replies_per_op
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
struct Deployment<M> {
    cluster: ClusterConfig,
    /// All actors, in node-id order.
    actors: Vec<BoxedActor<M>>,
    recorder: ClientRecorder,
}

/// Materialize the actors for one run, with a fresh safety monitor
/// and compaction counters. Node-id space, in order: the replicas, the
/// clients, empty hook slots.
fn deploy<P: ProtocolSpec>(exp: &Experiment<P>) -> Deployment<P::Msg> {
    let cluster = ClusterConfig::new(exp.topology.num_nodes());
    let recorder = if exp.check_history {
        ClientRecorder::with_history()
    } else {
        ClientRecorder::new()
    };
    let mut actors: Vec<BoxedActor<P::Msg>> = Vec::with_capacity(cluster.n() + exp.n_clients);
    for &node in &cluster.replicas {
        actors.push(exp.proto.build_replica(node, &cluster));
    }
    let target = exp.resolved_target();
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
    Deployment {
        cluster,
        actors,
        recorder,
    }
}

/// The simulator driver: `hook`, then warm-up, the measurement window
/// and the optional drain, in simulated time.
pub(crate) fn drive_sim<P, H>(exp: &Experiment<P>, seed: u64, hook: H) -> RunResult
where
    P: ProtocolSpec,
    H: FnOnce(&mut Simulation<Envelope<P::Msg>>),
{
    let d = deploy(exp);
    let cluster = &d.cluster;
    let mut topology = exp.topology.clone();
    // Clients attach to region 0, the leader's.
    topology.add_nodes(exp.n_clients + exp.extra_client_nodes, 0);
    let total_nodes = topology.num_nodes();
    let mut sim: Simulation<Envelope<P::Msg>> =
        Simulation::new(topology, CpuCostModel::calibrated(), seed);
    if exp.capture_trace {
        sim.enable_trace();
    }
    for actor in d.actors {
        sim.add_actor(actor);
    }
    hook(&mut sim);

    sim.run_for(exp.warmup);
    let start = sim.now();
    let before = sim.stats().clone();
    sim.run_for(exp.measure);
    let end = sim.now();
    let after = sim.stats().clone();

    // Optional drain: silence the clients, let the replicas quiesce and
    // sample their state digests. Skipped entirely (no extra events,
    // schedule unchanged) when `drain` is zero.
    let n_replicas = cluster.n();
    let replica_digests = (exp.drain > SimDuration::ZERO).then(|| {
        for i in n_replicas..total_nodes {
            sim.crash(NodeId::from(i));
        }
        sim.run_for(exp.drain);
        (0..n_replicas)
            .map(|i| sim.actor(NodeId::from(i)).state_digest())
            .collect()
    });

    let client = ClientResult::measure(&d.recorder, (start, end), exp.timeline_bucket);
    let ops = client.ops();
    let node_msgs = after.nodes.iter().zip(before.nodes.iter());
    let node_msgs = node_msgs.map(|(a, b)| a.msgs_total() - b.msgs_total());
    let cross_region = (after.cross_region_msgs - before.cross_region_msgs) as f64 / ops;
    let mut transport = TransportResult {
        cross_region_msgs_per_op: Some(cross_region),
        ..TransportResult::new(node_msgs.collect(), cluster, ops)
    };
    if let Some(trace) = sim.trace() {
        let is_leader = |n: NodeId| n == cluster.leader;
        let mut labels = BTreeMap::new();
        let mut leader = [0usize; 3]; // protocol sent, replies sent, protocol received
        let in_window = |at: SimTime| at > start && at <= end;
        for e in trace.entries().iter().filter(|e| in_window(e.at)) {
            if !e.dropped {
                *labels.entry(e.label).or_insert(0) += 1;
            }
            let reply = e.label == "reply" || e.label == "reply_batch";
            if is_leader(e.from) {
                leader[reply as usize] += 1;
            } else if is_leader(e.to) && e.label != "request" && !reply {
                leader[2] += 1;
            }
        }
        let per_leader_op = |i: usize| leader[i] as f64 / ops;
        transport.label_counts = Some(labels);
        transport.trace = Some(TraceSummary {
            fingerprint: trace.fingerprint(),
            leader_proto_sent_per_op: per_leader_op(0),
            leader_replies_per_op: per_leader_op(1),
            leader_proto_recv_per_op: per_leader_op(2),
        });
    }
    assemble(d.cluster, client, transport, replica_digests)
}

/// A wall-clock runtime's `run_for`.
pub(crate) type RunFor<M, T> = fn(&mut LoopRuntime<Envelope<M>, T>, Duration) -> NetRunStats;

/// The wall-clock driver: the actors on `rt`, one readiness loop per
/// core, in memory or over TCP, for `wall` of real time, all of it
/// measured.
pub(crate) fn drive_wall<P, T>(
    exp: &Experiment<P>,
    mut rt: LoopRuntime<Envelope<P::Msg>, T>,
    run_for: RunFor<P::Msg, T>,
    wall: Duration,
) -> RunResult
where
    P: ProtocolSpec,
{
    let d = deploy(exp);
    for actor in d.actors {
        rt.add_actor(actor);
    }
    let net = run_for(&mut rt, wall);
    let whole_run = (SimTime::ZERO, SimTime::from_nanos(wall.as_nanos() as u64));
    let client = ClientResult::measure(&d.recorder, whole_run, exp.timeline_bucket);
    let node_msgs = net.per_node_sent.iter().zip(&net.per_node_received);
    let node_msgs = node_msgs.map(|(s, r)| s + r).collect();
    let transport = TransportResult {
        label_counts: Some(net.delivered_by_label.clone()),
        net: Some(net),
        ..TransportResult::new(node_msgs, &d.cluster, client.ops())
    };
    assemble(d.cluster, client, transport, None)
}

/// The one place a [`RunResult`] is built: the client and transport
/// parts a run measured, and the cluster that ran with any digests
/// sampled from it.
fn assemble(
    cluster: ClusterConfig,
    client: ClientResult,
    transport: TransportResult,
    replica_digests: Option<Vec<Option<u64>>>,
) -> RunResult {
    let protocol = ProtocolResult {
        cluster,
        replica_digests,
    };
    RunResult {
        client,
        protocol,
        transport,
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
    use super::RunResult;
    use crate::experiment::tests::small;
    use simnet::SimDuration;
    use std::time::Duration;

    /// Which optional observations a run made: timeline, history,
    /// digests, labels, cross-region, trace, net.
    fn observed(r: &RunResult) -> [bool; 7] {
        [
            r.client.timeline.is_some(),
            r.client.history.is_some(),
            r.protocol.replica_digests.is_some(),
            r.transport.label_counts.is_some(),
            r.transport.cross_region_msgs_per_op.is_some(),
            r.transport.trace.is_some(),
            r.transport.net.is_some(),
        ]
    }

    #[test]
    fn an_observation_is_some_exactly_where_it_was_made() {
        let exp = small().clients(2);
        let wall = Duration::from_millis(100);
        let drained = exp.clone().drain(SimDuration::from_millis(50));
        let bucketed = exp.clone().timeline_bucket(SimDuration::from_millis(250));
        let checked = exp.clone().check_linearizability();
        let runs = [
            (
                "sim",
                exp.run_sim(7),
                [false, false, false, false, true, false, false],
            ),
            (
                "traced",
                exp.clone().capture_trace().run_sim(7),
                [false, false, false, true, true, true, false],
            ),
            (
                "drained",
                drained.run_sim(7),
                [false, false, true, false, true, false, false],
            ),
            (
                "bucketed",
                bucketed.run_sim(7),
                [true, false, false, false, true, false, false],
            ),
            (
                "checked",
                checked.run_sim(7),
                [false, true, false, false, true, false, false],
            ),
            (
                "threads",
                exp.run_threads(7, wall),
                [false, false, false, true, false, false, true],
            ),
            (
                "tcp",
                exp.run_net(7, wall),
                [false, false, false, true, false, false, true],
            ),
            (
                "checked tcp",
                checked.run_net(7, wall),
                [false, true, false, true, false, false, true],
            ),
        ];
        for (name, r, want) in runs {
            assert_eq!(observed(&r), want, "{name}");
        }
    }

    #[test]
    fn more_clients_more_throughput_until_saturation() {
        let lo = small().clients(1).run_sim(crate::DEFAULT_SEED);
        let hi = small().clients(8).run_sim(crate::DEFAULT_SEED);
        assert!(
            hi.client.throughput > lo.client.throughput * 2.0,
            "8 clients ({}) should beat 1 client ({}) substantially",
            hi.client.throughput,
            lo.client.throughput
        );
    }

    #[test]
    fn timeline_buckets_cover_run() {
        let r = small()
            .clients(4)
            .timeline_bucket(SimDuration::from_millis(250))
            .run_sim(crate::DEFAULT_SEED);
        let timeline = r.client.timeline.expect("bucket set");
        // Total run is 1s -> 4 buckets.
        assert_eq!(timeline.len(), 4);
        // Steady load: later buckets should show similar throughput.
        assert!(timeline[3].1 > 0.0);
    }

    #[test]
    fn leader_msgs_per_op_counted() {
        let r = small().clients(2).run_sim(crate::DEFAULT_SEED);
        // The instant server handles exactly 1 recv + 1 send per op.
        assert!(
            (r.transport.leader_msgs_per_op - 2.0).abs() < 0.2,
            "got {}",
            r.transport.leader_msgs_per_op
        );
    }

    #[test]
    fn label_counts_present_only_with_trace() {
        let no_trace = small().clients(2).run_sim(crate::DEFAULT_SEED);
        assert!(no_trace.transport.label_counts.is_none());
        assert!(no_trace.label_per_op("request").is_none());

        let traced = small()
            .clients(2)
            .capture_trace()
            .run_sim(crate::DEFAULT_SEED);
        let counts = traced
            .transport
            .label_counts
            .as_ref()
            .expect("trace captured");
        assert!(counts.get("request").copied().unwrap_or(0) > 100);
        assert!(counts.get("reply").copied().unwrap_or(0) > 100);
        // One request and one reply per completed op (instant server).
        let per_op = traced.label_per_op("request").expect("traced");
        assert!((per_op - 1.0).abs() < 0.1, "got {per_op}");
    }
}
