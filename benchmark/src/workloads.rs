//! The five workloads and the code that runs one of them once.

use crate::client::{owned_keys, BenchClient, ClientLog, ClientSpec, Mode, SharedLog};
use crate::stats::{median, percentile, ProcSample};
use crate::trace::{self, NodeTrace, Sink, Traced};
use crate::Msg;
use paxi::{ClusterConfig, ProtocolSpec, SnapshotConfig};
use pig_runtime::{NetRunStats, NetRuntime};
use pigpaxos::PigConfig;
use simnet::{Actor, CpuCostModel, NodeId, SimDuration, SimTime, Simulation, Topology};
use std::time::{Duration, Instant};

/// Where a workload runs and what it is timed against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Substrate {
    /// `NetRuntime`: real threads and loopback TCP, no delay injected.
    Net,
    /// `Simulation`, `Topology::lan` delays, `CpuCostModel::calibrated`.
    Sim,
    /// As `Sim`, with the leader crashed and restarted in every repetition.
    SimFailover,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub substrate: Substrate,
    pub replicas: usize,
    pub relay_groups: usize,
    pub clients: usize,
    pub mode: Mode,
    pub read_ratio: f64,
    pub value_size: usize,
    /// Latency limit of `slo_ok_frac`, about ten times the usual median.
    pub slo_ms: f64,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "net-write-small",
        why: "Saturating closed loop of 8 B writes over TCP: per-message cost (syscalls, hand-offs, codec, relay fan-out) sets throughput.",
        substrate: Substrate::Net,
        replicas: 5,
        relay_groups: 2,
        clients: 2,
        mode: Mode::Closed { window: 16 },
        read_ratio: 0.0,
        value_size: 8,
        slo_ms: 25.0,
    },
    Workload {
        name: "net-write-large",
        why: "Same cluster, 16000 B values: per-byte cost (copies, allocation, socket bandwidth, snapshot size); a per-message win should not move it.",
        substrate: Substrate::Net,
        replicas: 5,
        relay_groups: 2,
        clients: 2,
        mode: Mode::Closed { window: 16 },
        read_ratio: 0.0,
        value_size: 16_000,
        slo_ms: 250.0,
    },
    Workload {
        name: "net-mixed-open",
        why: "Open loop at 2 x 1000 ops/s, half reads, far below saturation: latency with no queueing, set by timers and wake-ups on the critical path.",
        substrate: Substrate::Net,
        replicas: 5,
        relay_groups: 2,
        clients: 2,
        mode: Mode::Open {
            interval: SimDuration::from_millis(1),
        },
        read_ratio: 0.5,
        value_size: 8,
        slo_ms: 5.0,
    },
    Workload {
        name: "sim-pig25",
        why: "The paper's scale, n=25 r=3 with 80 closed-loop clients on the simulator: no socket exists, so only simnet::sim and the handlers can move it.",
        substrate: Substrate::Sim,
        replicas: 25,
        relay_groups: 3,
        clients: 80,
        mode: Mode::Closed { window: 1 },
        read_ratio: 0.5,
        value_size: 8,
        slo_ms: 50.0,
    },
    Workload {
        name: "sim-failover",
        why: "Leader crash and restart under an open loop of 1000 ops/s on the simulator: time without service, with requests due during the outage counted.",
        substrate: Substrate::SimFailover,
        replicas: 5,
        relay_groups: 2,
        // One client: with two, the simulation is not a function of its
        // seed (see README, "What building it found").
        clients: 1,
        mode: Mode::Open {
            interval: SimDuration::from_millis(1),
        },
        read_ratio: 0.5,
        value_size: 8,
        slo_ms: 5.0,
    },
];

/// After the last request is due, the run goes on this long so that
/// requests in flight can complete.
const DRAIN: SimDuration = SimDuration::from_millis(500);

fn nanos(d: SimDuration) -> Duration {
    Duration::from_nanos(d.as_nanos())
}

/// The measured window `[start, end)` on the substrate's clock.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start: SimTime,
    pub end: SimTime,
}

impl Window {
    pub fn after(warmup: SimDuration, measure: SimDuration) -> Self {
        Window {
            start: SimTime::ZERO + warmup,
            end: SimTime::ZERO + warmup + measure,
        }
    }
    pub fn nanos(&self) -> (u64, u64) {
        (self.start.as_nanos(), self.end.as_nanos())
    }
    pub fn secs(&self) -> f64 {
        self.end.saturating_sub(self.start).as_secs_f64()
    }
}

/// The actors of one cluster in node order, replicas first, and the
/// handles through which the harness reads what they recorded.
pub struct Nodes {
    pub actors: Vec<Box<dyn Actor<Msg> + Send>>,
    pub cluster: ClusterConfig,
    pub logs: Vec<SharedLog>,
    pub sinks: Vec<Sink>,
}

/// Build the replicas and clients of `w`. Compaction is on in every
/// workload: with the default unbounded log, throughput decays as the
/// log grows and no window of the run is a steady state.
pub fn build(w: &Workload, stop_at: SimTime, trace_epoch: Option<Instant>) -> Nodes {
    let cluster = ClusterConfig::new(w.replicas);
    let config = PigConfig::lan(w.relay_groups).with_snapshots(SnapshotConfig::every_ops(1000));
    let mut nodes = Nodes {
        actors: Vec::new(),
        cluster,
        logs: Vec::new(),
        sinks: Vec::new(),
    };
    let add = |nodes: &mut Nodes, actor: Box<dyn Actor<Msg> + Send>| match trace_epoch {
        Some(epoch) => {
            let (traced, sink) = Traced::new(actor, epoch);
            nodes.actors.push(Box::new(traced));
            nodes.sinks.push(sink);
        }
        None => nodes.actors.push(actor),
    };
    for i in 0..w.replicas {
        let replica = config.build_replica(NodeId::from(i), &nodes.cluster);
        add(&mut nodes, replica);
    }
    for i in 0..w.clients {
        let log = SharedLog::default();
        let phase = match w.mode {
            Mode::Open { interval } => interval * i as u64 / w.clients as u64,
            Mode::Closed { .. } => SimDuration::ZERO,
        };
        let spec = ClientSpec {
            mode: w.mode,
            read_ratio: w.read_ratio,
            value_size: w.value_size,
            keys: owned_keys(i, w.clients),
            phase,
            stop_at,
            replicas: nodes.cluster.replicas.clone(),
        };
        add(&mut nodes, Box::new(BenchClient::new(spec, log.clone())));
        nodes.logs.push(log);
    }
    nodes
}

pub fn take_logs(logs: &[SharedLog]) -> Vec<ClientLog> {
    logs.iter()
        .map(|l| std::mem::take(&mut *l.lock().expect("client log")))
        .collect()
}

/// Seconds from `built_at` to the first reply any client received.
pub fn setup_seconds(built_at: Instant, logs: &[ClientLog]) -> Option<f64> {
    logs.iter()
        .filter_map(|l| l.first_done)
        .min()
        .map(|t| t.duration_since(built_at).as_secs_f64())
}

/// What the clients saw, reduced to the numbers the metrics are made of.
/// `Vec`s hold one value per one-second bucket of the window.
#[derive(Debug, Default, Clone)]
pub struct ClientSummary {
    /// Requests due in the window, and those of them that failed.
    pub attempted: u64,
    pub failed: u64,
    /// Replies inside the window, and per bucket.
    pub completed: u64,
    pub done: Vec<f64>,
    /// Median and 99th percentile latency of the requests due in each bucket.
    pub p50_ms: Vec<f64>,
    pub p99_ms: Vec<f64>,
    /// Share of the requests due in each bucket answered within the
    /// workload's latency limit, and of those due in the whole window.
    pub slo_ok: Vec<f64>,
    pub slo_ok_frac: f64,
    /// Latency of every request due in the window.
    pub lat_p50_ms: f64,
    pub lat_p99_ms: f64,
    pub lat_p999_ms: f64,
    pub lat_max_ms: f64,
    /// Requests served in time over the time from the window's start to
    /// the last reply to one of them: the rate an open loop sustained.
    pub sustained_ops_s: f64,
    /// How late the generator sent, after the request was due.
    pub late_p50_ms: f64,
    pub late_p99_ms: f64,
    pub retries: u64,
    pub stale_reads: u64,
    pub issued_total: u64,
    pub completed_total: u64,
}

/// This sandbox shares its cores with other machines, whose load comes
/// and goes in phases of seconds and slows everything here by half as
/// much again. What repeats from run to run is the quiet phases, so a
/// wall-clock metric is the quartile of its one-second buckets at the
/// quiet end: the lower one for a cost, the upper one for a rate.
pub fn quiet_cost(buckets: &[f64]) -> f64 {
    percentile(buckets, 25.0)
}

pub fn quiet_rate(buckets: &[f64]) -> f64 {
    percentile(buckets, 75.0)
}

impl ClientSummary {
    /// Replies per second in the last quarter of the window over the
    /// first quarter: about 1 unless something grows during the run.
    pub fn tput_last_over_first(&self) -> f64 {
        let quarter = (self.done.len() / 4).max(1);
        let first = median(&self.done[..quarter]);
        let last = median(&self.done[self.done.len() - quarter..]);
        if first > 0.0 {
            last / first
        } else {
            0.0
        }
    }
}

pub fn summarize(
    w: &Workload,
    logs: &[ClientLog],
    window: Window,
    run_end: SimTime,
) -> ClientSummary {
    let (start, end) = window.nanos();
    let buckets = (window.secs().round() as usize).max(1);
    let bucket_of = |t: u64| (((t - start) / 1_000_000_000) as usize).min(buckets - 1);
    let mut lat_per_bucket: Vec<Vec<f64>> = vec![Vec::new(); buckets];
    let mut late = Vec::new();
    let mut s = ClientSummary {
        done: vec![0.0; buckets],
        ..ClientSummary::default()
    };
    s.slo_ok = vec![0.0; buckets];
    let mut last_done = start;
    for log in logs {
        s.retries += log.retries;
        s.stale_reads += log.stale_reads;
        s.issued_total += log.ops.len() as u64;
        for op in &log.ops {
            s.completed_total += (op.done > 0) as u64;
            if op.done >= start && op.done < end {
                s.done[bucket_of(op.done)] += 1.0;
                s.completed += 1;
            }
            if op.due < start || op.due >= end {
                continue;
            }
            s.attempted += 1;
            s.failed += op.failed() as u64;
            // A request never answered has waited at least until the run ended.
            let done = if op.done > 0 {
                op.done
            } else {
                run_end.as_nanos()
            };
            let lat_ms = (done - op.due) as f64 / 1e6;
            s.slo_ok[bucket_of(op.due)] += (!op.failed() && lat_ms <= w.slo_ms) as u64 as f64;
            last_done = last_done.max(done);
            lat_per_bucket[bucket_of(op.due)].push(lat_ms);
            late.push((op.sent - op.due) as f64 / 1e6);
        }
    }
    s.sustained_ops_s = (s.attempted - s.failed) as f64 / ((last_done - start).max(1) as f64 / 1e9);
    s.slo_ok_frac = s.slo_ok.iter().sum::<f64>() / s.attempted.max(1) as f64;
    for (ok, due) in s.slo_ok.iter_mut().zip(&lat_per_bucket) {
        *ok /= due.len().max(1) as f64;
    }
    s.p50_ms = lat_per_bucket.iter().map(|b| percentile(b, 50.0)).collect();
    s.p99_ms = lat_per_bucket.iter().map(|b| percentile(b, 99.0)).collect();
    let all: Vec<f64> = lat_per_bucket.into_iter().flatten().collect();
    s.lat_p50_ms = percentile(&all, 50.0);
    s.lat_p99_ms = percentile(&all, 99.0);
    s.lat_p999_ms = percentile(&all, 99.9);
    s.lat_max_ms = all.iter().copied().fold(0.0, f64::max);
    s.late_p50_ms = percentile(&late, 50.0);
    s.late_p99_ms = percentile(&late, 99.0);
    s
}

/// One run over TCP.
pub struct NetRun {
    pub window: Window,
    pub run_end: SimTime,
    pub logs: Vec<ClientLog>,
    pub net: NetRunStats,
    pub cluster: ClusterConfig,
    /// Process readings at the start of the window and after each of
    /// its seconds.
    pub samples: Vec<ProcSample>,
    pub traces: Vec<NodeTrace>,
    pub setup_s: Option<f64>,
}

pub fn run_net(
    w: &Workload,
    seed: u64,
    warmup: SimDuration,
    measure: SimDuration,
    traced: bool,
) -> NetRun {
    let built_at = Instant::now();
    let window = Window::after(warmup, measure);
    let run_end = window.end + DRAIN;
    let nodes = build(w, window.end, traced.then_some(built_at));
    let mut rt: NetRuntime<Msg> = NetRuntime::new(seed);
    for actor in nodes.actors {
        rt.add_actor(actor);
    }
    // The runtime blocks this thread for the whole run, so a second
    // thread reads the process counters at the edges of the window.
    let (net, samples) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let started = Instant::now();
            (0..=measure.as_nanos() / 1_000_000_000)
                .map(|second| {
                    let at = nanos(warmup) + Duration::from_secs(second);
                    std::thread::sleep(at.saturating_sub(started.elapsed()));
                    ProcSample::now()
                })
                .collect()
        });
        let net = rt.run_for(nanos(run_end.saturating_sub(SimTime::ZERO)));
        (net, sampler.join().expect("sampler thread"))
    });
    let logs = take_logs(&nodes.logs);
    NetRun {
        window,
        run_end,
        setup_s: setup_seconds(built_at, &logs),
        logs,
        net,
        cluster: nodes.cluster,
        samples,
        traces: trace::collect(&nodes.sinks),
    }
}

/// One run on the simulator.
pub struct SimRun {
    pub window: Window,
    pub run_end: SimTime,
    pub logs: Vec<ClientLog>,
    pub cluster: ClusterConfig,
    /// Events processed and wall seconds spent inside the window, and
    /// the CPU seconds spent on each simulated second of it.
    pub events: u64,
    pub wall_s: f64,
    pub cpu_s: Vec<f64>,
    /// Messages sent plus received per node inside the window.
    pub node_msgs: Vec<u64>,
    /// State digests of the replicas after the drain.
    pub digests: Vec<Option<u64>>,
    pub traces: Vec<NodeTrace>,
    pub setup_s: Option<f64>,
    /// When the leader was crashed, if it was.
    pub crashed_at: Option<SimTime>,
}

/// Run `w` on the simulator. With `failover`, node 0 (the leader) is
/// crashed a third of the way into the window and restarted at two thirds.
pub fn run_sim(
    w: &Workload,
    seed: u64,
    warmup: SimDuration,
    measure: SimDuration,
    traced: bool,
) -> SimRun {
    let built_at = Instant::now();
    let window = Window::after(warmup, measure);
    let run_end = window.end + DRAIN;
    let nodes = build(w, window.end, traced.then_some(built_at));
    let mut topology = Topology::lan(w.replicas);
    topology.add_nodes(w.clients, 0);
    let mut sim: Simulation<Msg> = Simulation::new(topology, CpuCostModel::calibrated(), seed);
    for actor in nodes.actors {
        sim.add_actor(actor);
    }
    let crashed_at = (w.substrate == Substrate::SimFailover).then(|| window.start + measure / 3);
    if let Some(at) = crashed_at {
        sim.schedule_control(at, simnet::Control::Crash(NodeId(0)));
        sim.schedule_control(at + measure / 3, simnet::Control::Recover(NodeId(0)));
    }

    sim.run_until(window.start);
    let msgs_before: Vec<u64> = sim.stats().nodes.iter().map(|n| n.msgs_total()).collect();
    let wall = Instant::now();
    let mut events = 0;
    let mut cpu_s = Vec::new();
    let mut now = window.start;
    while now < window.end {
        now = (now + SimDuration::from_secs(1)).min(window.end);
        let cpu = crate::stats::thread_cpu_seconds();
        events += sim.run_until(now);
        cpu_s.push(crate::stats::thread_cpu_seconds() - cpu);
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let node_msgs = sim
        .stats()
        .nodes
        .iter()
        .zip(&msgs_before)
        .map(|(n, before)| n.msgs_total() - before)
        .collect();
    sim.run_until(run_end);
    let digests = (0..w.replicas)
        .map(|i| sim.actor(NodeId::from(i)).state_digest())
        .collect();
    drop(sim);
    let logs = take_logs(&nodes.logs);
    SimRun {
        window,
        run_end,
        setup_s: setup_seconds(built_at, &logs),
        logs,
        cluster: nodes.cluster,
        events,
        wall_s,
        cpu_s,
        node_msgs,
        digests,
        traces: trace::collect(&nodes.sinks),
        crashed_at,
    }
}

/// Simulated milliseconds from the crash to the first reply to a request
/// that was due after it (replies already in flight do not count).
pub fn unavailable_ms(run: &SimRun) -> f64 {
    let Some(at) = run.crashed_at else { return 0.0 };
    let at = at.as_nanos();
    run.logs
        .iter()
        .flat_map(|l| &l.ops)
        .filter(|op| op.due > at && op.done > 0)
        .map(|op| op.done)
        .min()
        .map_or(f64::INFINITY, |done| (done - at) as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracing_does_not_change_a_simulation() {
        let w = WORKLOADS
            .iter()
            .find(|w| w.name == "sim-failover")
            .expect("workload");
        let run = |traced| {
            run_sim(
                w,
                42,
                SimDuration::from_millis(200),
                SimDuration::from_secs(1),
                traced,
            )
        };
        let (plain, traced) = (run(false), run(true));
        let completed = |r: &SimRun| summarize(w, &r.logs, r.window, r.run_end).completed;
        assert!(completed(&plain) > 500);
        assert_eq!(
            completed(&plain),
            completed(&traced),
            "same simulated throughput"
        );
        assert_eq!(
            plain.cluster.safety.decided_count(),
            traced.cluster.safety.decided_count()
        );
        assert_eq!(plain.events, traced.events);
        assert_eq!(plain.node_msgs, traced.node_msgs);
        assert_eq!(plain.digests, traced.digests);
        assert!(plain.traces.is_empty());
        // The spans are there, and requests can be followed through them.
        assert_eq!(traced.traces.len(), w.replicas + w.clients);
        let stages = trace::stages(&traced.traces, w.replicas, traced.window.nanos());
        assert!(
            stages.requests > 100,
            "followed {} requests",
            stages.requests
        );
    }

    #[test]
    fn quiet_quartiles() {
        let buckets: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quiet_cost(&buckets), 3.0);
        assert_eq!(quiet_rate(&buckets), 6.0);
    }
}
