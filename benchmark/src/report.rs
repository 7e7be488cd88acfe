//! Turns one run of a workload into the metrics of `BENCHMARK.json`.
//!
//! Every workload reports every end-to-end metric when untraced and every
//! per-layer metric when traced; a per-layer metric that a workload
//! cannot measure (a socket counter on the simulator) stays 0.

use crate::client::Mode;
use crate::layers;
use crate::stats::{self, median};
use crate::trace;
use crate::workloads::{
    quiet_cost, quiet_rate, run_net, run_sim, summarize, unavailable_ms, ClientSummary, NetRun,
    SimRun, Substrate, Workload,
};
use simnet::SimDuration;
use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("tput_ops_s", "ops/s"),
    ("lat_p50_ms", "ms"),
    ("slo_ok_frac", "frac"),
    ("cpu_s_per_kop", "cpu-s/kop"),
    ("rss_peak_mb", "MiB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Load generator: whether the other numbers can be trusted.
    ("loadgen.issued", "count"),
    ("loadgen.completed", "count"),
    ("loadgen.retries", "count"),
    ("loadgen.stale_reads", "count"),
    ("loadgen.late_p50_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("client.lat_p999_ms", "ms"),
    ("client.lat_max_ms", "ms"),
    ("client.tput_last_over_first", "ratio"),
    // The tail with tracing off. It is here and not end-to-end because on
    // this host it differs between runs of one build by more than any
    // bound could allow; `slo_ok_frac` is the bounded reading of the tail.
    ("lat_p99_ms", "ms"),
    ("slo_miss_frac", "frac"),
    ("failed_frac", "frac"),
    // The steps one request waits for in turn.
    ("stage.client_to_leader_us", "us"),
    ("stage.leader_commit_us", "us"),
    ("stage.relay_round_us", "us"),
    ("stage.leader_to_client_us", "us"),
    ("stage.unattributed_us", "us"),
    // paxos::leader, pigpaxos::relay, paxos::acceptor.
    ("leader.handler_us_per_op", "us/op"),
    ("leader.busy_frac", "frac"),
    ("leader.msgs_in_per_op", "msgs/op"),
    ("leader.msgs_out_per_op", "msgs/op"),
    ("relay.handler_us_per_op", "us/op"),
    ("relay.msgs_per_op", "msgs/op"),
    ("follower.handler_us_per_op", "us/op"),
    ("follower.msgs_per_op", "msgs/op"),
    // pig_runtime::net and the node loop under it.
    ("net.wire_msgs_per_op", "msgs/op"),
    ("net.bytes_per_op", "B/op"),
    ("net.reconnects", "count"),
    ("net.decode_errors", "count"),
    ("net.frames_dropped", "count"),
    ("net.echo_rtt_us_p50", "us"),
    ("net.echo_msgs_per_s", "msgs/s"),
    ("net.echo_mb_per_s", "MB/s"),
    ("threads.echo_rtt_us_p50", "us"),
    ("threads.echo_msgs_per_s", "msgs/s"),
    // simnet::wire with the protocol's messages.
    ("wire.encode_ns.p2a_small", "ns"),
    ("wire.decode_ns.p2a_small", "ns"),
    ("wire.encode_ns.p2a_16k", "ns"),
    ("wire.decode_ns.p2a_16k", "ns"),
    ("wire.encode_ns.request_small", "ns"),
    ("wire.decode_ns.reply_small", "ns"),
    // paxi::kv, paxi::log, paxi::snapshot.
    ("kv.apply_ns_per_op", "ns"),
    ("log.max_len", "count"),
    ("snapshot.taken", "count"),
    ("snapshot.installed", "count"),
    // The process.
    ("proc.ctx_switches_per_op", "1/op"),
    ("proc.threads_peak", "count"),
    ("proc.allocs_per_op", "1/op"),
    ("proc.alloc_bytes_per_op", "B/op"),
    // simnet::sim, and the analytical model it is checked against.
    ("sim_events_per_s", "events/s"),
    ("sim.events", "count"),
    ("sim.events_per_op", "1/op"),
    ("sim.ns_per_event", "ns"),
    ("sim.tput_ops_s", "ops/s"),
    ("sim.lat_p50_ms", "ms"),
    ("sim.leader_msgs_per_op", "msgs/op"),
    ("sim.follower_msgs_per_op", "msgs/op"),
    ("model.ml_residual", "msgs/op"),
    ("model.mf_residual", "msgs/op"),
    ("unavail_ms", "ms"),
    // Tracing itself.
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
];

const NET_NOTE: &str =
    "substrate: NetRuntime, all nodes in this process over loopback TCP, no delay injected";

/// How often a cluster is set up per run for the median `setup_s`.
const SETUPS: usize = 9;
/// Length of a run that only measures set-up.
const SETUP_PROBE: SimDuration = SimDuration::from_millis(100);
/// Repetitions of the failover scenario per second of `--seconds`; each
/// takes about 25 ms of wall clock.
const FAILOVERS_PER_SECOND: u64 = 8;

pub struct Report {
    units: &'static [(&'static str, &'static str)],
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    /// Why the run is not correct; empty when it is.
    faults: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    fn new(traced: bool) -> Self {
        let units = if traced { PER_LAYER } else { END_TO_END };
        Report {
            units,
            // A per-layer metric the workload does not exercise reads 0.
            metrics: if traced {
                units.iter().map(|(n, _)| (*n, 0.0)).collect()
            } else {
                BTreeMap::new()
            },
            attempted: 0,
            failed: 0,
            faults: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.units.iter().any(|(n, _)| *n == name),
            "{name} is not a declared metric"
        );
        self.metrics.insert(name, value);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.faults.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.faults.is_empty()
    }

    /// The metrics as a table, then the one JSON line the driver reads.
    pub fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for fault in &self.faults {
            println!("# INCORRECT: {fault}");
        }
        let mut json = Vec::new();
        for (name, unit) in self.units {
            let value = self.metrics.get(name).copied().unwrap_or_else(|| {
                panic!("metric {name} was not measured");
            });
            println!("{name:<32} {value:>18.6} {unit}");
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
    }
}

pub fn run(
    w: &Workload,
    seed: u64,
    warmup: SimDuration,
    measure: SimDuration,
    traced: bool,
) -> Report {
    let mut report = Report::new(traced);
    match (w.substrate, traced) {
        (Substrate::Net, false) => net_end_to_end(&mut report, w, seed, warmup, measure),
        (Substrate::Net, true) => net_per_layer(&mut report, w, seed, warmup, measure),
        (_, false) => sim_end_to_end(&mut report, w, seed, warmup, measure),
        (_, true) => sim_per_layer(&mut report, w, seed, warmup, measure),
    }
    report
}

/// The checks every run must pass, on either substrate.
fn check_clients(report: &mut Report, s: &ClientSummary, violations: &[String]) {
    report.attempted += s.attempted;
    report.failed += s.failed;
    report.check(violations.is_empty(), || {
        format!("safety violations: {violations:?}")
    });
    report.check(s.stale_reads == 0, || {
        format!("{} reads older than an acknowledged write", s.stale_reads)
    });
    report.check(s.completed > 0, || "no request completed".into());
}

/// Summarise a TCP run and apply the checks it must pass.
fn check_net(report: &mut Report, w: &Workload, run: &NetRun) -> ClientSummary {
    let s = summarize(w, &run.logs, run.window, run.run_end);
    check_clients(report, &s, &run.cluster.safety.violations());
    report.check(run.net.decode_errors == 0, || {
        format!("{} frames failed to decode", run.net.decode_errors)
    });
    s
}

fn net_end_to_end(
    report: &mut Report,
    w: &Workload,
    seed: u64,
    warmup: SimDuration,
    measure: SimDuration,
) {
    report.notes.push(NET_NOTE.into());
    let mut setups: Vec<f64> = (1..SETUPS)
        .filter_map(|i| run_net(w, seed + i as u64, SimDuration::ZERO, SETUP_PROBE, false).setup_s)
        .collect();
    let run = run_net(w, seed, warmup, measure, false);
    setups.extend(run.setup_s);
    let s = check_net(report, w, &run);
    report.notes.push(format!(
        "attempted={} failed={} completed={} retries={} tput_last_over_first={:.3}",
        s.attempted,
        s.failed,
        s.completed,
        s.retries,
        s.tput_last_over_first()
    ));
    let per_second = |name: &str, v: &[f64]| format!("{name} per second of the window: {v:.3?}");
    let cpu_per_kop: Vec<f64> = run
        .samples
        .windows(2)
        .zip(&s.done)
        .map(|(edge, done)| (edge[1].cpu_s - edge[0].cpu_s) / (done.max(1.0) / 1e3))
        .collect();
    let rss: Vec<f64> = run.samples.iter().map(|p| p.rss_mb).collect();
    report.notes.push(per_second("replies", &s.done));
    report.notes.push(per_second("lat_p50_ms", &s.p50_ms));
    report.notes.push(per_second("lat_p99_ms", &s.p99_ms));
    report.notes.push(per_second("slo_ok_frac", &s.slo_ok));
    report.notes.push(per_second("cpu_s_per_kop", &cpu_per_kop));
    report.notes.push(per_second("rss_mb", &rss));
    report.set(
        "tput_ops_s",
        match w.mode {
            Mode::Closed { .. } => quiet_rate(&s.done),
            Mode::Open { .. } => s.sustained_ops_s,
        },
    );
    report.set("lat_p50_ms", quiet_cost(&s.p50_ms));
    report.set("slo_ok_frac", quiet_rate(&s.slo_ok));
    report.set("cpu_s_per_kop", quiet_cost(&cpu_per_kop));
    report.set("rss_peak_mb", stats::rss_mb().1);
    report.set("setup_s", median(&setups));
}

/// Fill in what the clients' logs give on either substrate; `lat_p99_ms`
/// comes from an untraced run.
fn set_client_layers(report: &mut Report, s: &ClientSummary, lat_p99_ms: f64) {
    report.set("lat_p99_ms", lat_p99_ms);
    report.set("loadgen.issued", s.issued_total as f64);
    report.set("loadgen.completed", s.completed_total as f64);
    report.set("loadgen.retries", s.retries as f64);
    report.set("loadgen.stale_reads", s.stale_reads as f64);
    report.set("loadgen.late_p50_ms", s.late_p50_ms);
    report.set("loadgen.late_p99_ms", s.late_p99_ms);
    report.set("client.lat_p999_ms", s.lat_p999_ms);
    report.set("client.lat_max_ms", s.lat_max_ms);
    report.set("client.tput_last_over_first", s.tput_last_over_first());
    report.set("slo_miss_frac", 1.0 - s.slo_ok_frac);
    report.set("failed_frac", s.failed as f64 / s.attempted.max(1) as f64);
}

/// Fill in what the spans give on either substrate.
fn set_span_layers(
    report: &mut Report,
    traces: &[trace::NodeTrace],
    replicas: usize,
    window: (u64, u64),
    wall_s: f64,
    ops: f64,
) {
    let (leader, relay, follower) = trace::role_totals(traces, replicas, window);
    report.set(
        "leader.handler_us_per_op",
        leader.handler_ns as f64 / 1e3 / ops,
    );
    report.set("leader.busy_frac", leader.handler_ns as f64 / 1e9 / wall_s);
    report.set("leader.msgs_in_per_op", leader.msgs_in as f64 / ops);
    report.set("leader.msgs_out_per_op", leader.msgs_out as f64 / ops);
    report.set(
        "relay.handler_us_per_op",
        relay.handler_ns as f64 / 1e3 / ops,
    );
    report.set(
        "relay.msgs_per_op",
        (relay.msgs_in + relay.msgs_out) as f64 / ops,
    );
    report.set(
        "follower.handler_us_per_op",
        follower.handler_ns as f64 / 1e3 / ops,
    );
    report.set(
        "follower.msgs_per_op",
        (follower.msgs_in + follower.msgs_out) as f64 / ops,
    );
    report.set(
        "trace.spans",
        traces.iter().map(|t| t.spans.len()).sum::<usize>() as f64,
    );
}

fn dump_trace(report: &mut Report, w: &Workload, traces: &[trace::NodeTrace], window: (u64, u64)) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", w.name));
    match trace::dump(&path, traces, window) {
        Ok(()) => report
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => report
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
}

fn net_per_layer(
    report: &mut Report,
    w: &Workload,
    seed: u64,
    warmup: SimDuration,
    measure: SimDuration,
) {
    report.notes.push(NET_NOTE.into());
    // The untraced run first, half as long: it gives the tail with tracing
    // off, and its throughput and median say what tracing costs and what
    // the stages add up to.
    let reference = run_net(
        w,
        seed,
        warmup,
        (measure / 2).max(SimDuration::from_secs(1)),
        false,
    );
    let r = check_net(report, w, &reference);

    stats::COUNTING.store(true, std::sync::atomic::Ordering::Relaxed);
    let run = run_net(w, seed, warmup, measure, true);
    stats::COUNTING.store(false, std::sync::atomic::Ordering::Relaxed);
    let s = check_net(report, w, &run);
    let ops = s.completed.max(1) as f64;
    set_client_layers(report, &s, quiet_cost(&r.p99_ms));
    set_span_layers(
        report,
        &run.traces,
        w.replicas,
        run.window.nanos(),
        run.window.secs(),
        ops,
    );
    report.set(
        "trace.overhead_frac",
        1.0 - quiet_rate(&s.done) / quiet_rate(&r.done),
    );

    let st = trace::stages(&run.traces, w.replicas, run.window.nanos());
    report.notes.push(format!(
        "stage medians over {} requests; traced lat_p50_ms={:.4}, untraced {:.4}",
        st.requests, s.lat_p50_ms, r.lat_p50_ms
    ));
    report.set("stage.client_to_leader_us", st.client_to_leader);
    report.set("stage.leader_commit_us", st.leader_commit);
    report.set("stage.relay_round_us", st.relay_round);
    report.set("stage.leader_to_client_us", st.leader_to_client);
    let staged = st.client_to_leader + st.leader_commit + st.relay_round + st.leader_to_client;
    report.set("stage.unattributed_us", s.lat_p50_ms * 1e3 - staged);

    // The transport counts over the whole run, so divide by the whole run's replies.
    let all_ops = s.completed_total.max(1) as f64;
    report.set(
        "net.wire_msgs_per_op",
        run.net.per_node_sent.iter().sum::<u64>() as f64 / all_ops,
    );
    report.set("net.bytes_per_op", run.net.bytes_sent as f64 / all_ops);
    report.set("net.reconnects", run.net.reconnects as f64);
    report.set("net.decode_errors", run.net.decode_errors as f64);
    report.set("net.frames_dropped", run.net.frames_dropped as f64);
    let stats = &run.cluster.stats;
    report.set("log.max_len", stats.max_log_len() as f64);
    report.set("snapshot.taken", stats.snapshots_taken() as f64);
    report.set("snapshot.installed", stats.snapshots_installed() as f64);
    let (before, after) = (run.samples[0], run.samples[run.samples.len() - 1]);
    report.set(
        "proc.ctx_switches_per_op",
        (after.ctx_switches - before.ctx_switches) as f64 / ops,
    );
    report.set(
        "proc.threads_peak",
        run.samples.iter().map(|p| p.threads).max().unwrap_or(0) as f64,
    );
    report.set(
        "proc.allocs_per_op",
        (after.allocs - before.allocs) as f64 / ops,
    );
    report.set(
        "proc.alloc_bytes_per_op",
        (after.alloc_bytes - before.alloc_bytes) as f64 / ops,
    );

    dump_trace(report, w, &run.traces, run.window.nanos());
    drop(run);
    layers::measure(&mut |name, value| report.set(name, value));
}

/// The simulated results that must repeat exactly for one seed.
#[derive(Debug, PartialEq)]
struct Exact {
    completed: u64,
    lat_p50_ms: f64,
    lat_p99_ms: f64,
    slo_ok_frac: f64,
    unavail_ms: f64,
    events: u64,
    decided: u64,
    node_msgs: Vec<u64>,
}

/// One execution of a simulator workload's scenario and what came of it.
struct SimResult {
    run: SimRun,
    summary: ClientSummary,
}

impl SimResult {
    fn exact(&self) -> Exact {
        Exact {
            completed: self.summary.completed,
            lat_p50_ms: self.summary.lat_p50_ms,
            lat_p99_ms: self.summary.lat_p99_ms,
            slo_ok_frac: self.summary.slo_ok_frac,
            unavail_ms: unavailable_ms(&self.run),
            events: self.run.events,
            decided: self.run.cluster.safety.decided_count(),
            node_msgs: self.run.node_msgs.clone(),
        }
    }
}

/// The seed, warm-up and window of each execution. A failover workload
/// repeats a short scenario, one seed each, so that its medians do not
/// hang on the random timeout of a single election.
fn sim_plan(
    w: &Workload,
    seed: u64,
    warmup: SimDuration,
    measure: SimDuration,
) -> Vec<(u64, SimDuration, SimDuration)> {
    match w.substrate {
        Substrate::SimFailover => (0..FAILOVERS_PER_SECOND * measure.as_nanos() / 1_000_000_000)
            .map(|i| {
                (
                    seed.wrapping_mul(1000).wrapping_add(i),
                    warmup / 6,
                    SimDuration::from_secs(3),
                )
            })
            .collect(),
        _ => vec![(seed, warmup / 3, measure)],
    }
}

fn simulate(
    report: &mut Report,
    w: &Workload,
    (seed, warmup, measure): (u64, SimDuration, SimDuration),
    traced: bool,
) -> SimResult {
    let run = run_sim(w, seed, warmup, measure, traced);
    let summary = summarize(w, &run.logs, run.window, run.run_end);
    check_clients(report, &summary, &run.cluster.safety.violations());
    if summary.failed > 0 {
        report.notes.push(format!(
            "seed {seed}: {} of {} requests failed",
            summary.failed, summary.attempted
        ));
    }
    let mut digests = run.digests.iter().flatten();
    let first = digests.next();
    report.check(first.is_some() && digests.all(|d| Some(d) == first), || {
        format!(
            "seed {seed}: replicas disagree after the drain: {:?}",
            run.digests
        )
    });
    SimResult { run, summary }
}

fn simulate_all(
    report: &mut Report,
    w: &Workload,
    seed: u64,
    warmup: SimDuration,
    measure: SimDuration,
) -> Vec<SimResult> {
    let plan = sim_plan(w, seed, warmup, measure);
    report.notes.push(format!(
        "substrate: Simulation, Topology::lan delays, CpuCostModel::calibrated; {} execution(s) of {} simulated s; times are simulated except cpu, rss and setup",
        plan.len(),
        plan[0].2.as_secs_f64()
    ));
    plan.into_iter()
        .map(|p| simulate(report, w, p, false))
        .collect()
}

/// Mean over the executions. An outage lasts one of a few lengths, set by
/// which retry of the client first finds the new leader, so the median
/// over executions jumps between those lengths from seed to seed; the
/// mean moves with their mix.
fn mean_of(results: &[SimResult], f: impl Fn(&SimResult) -> f64) -> f64 {
    paxi::metrics::mean(&results.iter().map(f).collect::<Vec<_>>())
}

fn sim_end_to_end(
    report: &mut Report,
    w: &Workload,
    seed: u64,
    warmup: SimDuration,
    measure: SimDuration,
) {
    let results = simulate_all(report, w, seed, warmup, measure);
    let mut setups: Vec<f64> = results.iter().filter_map(|r| r.run.setup_s).collect();
    // A workload of one execution sets up a few more times for the median.
    for i in setups.len()..SETUPS {
        setups.extend(run_sim(w, seed + i as u64, SimDuration::ZERO, SETUP_PROBE, false).setup_s);
    }
    let cpu_per_kop: Vec<f64> = results
        .iter()
        .flat_map(|r| r.run.cpu_s.iter().zip(&r.summary.done))
        .map(|(cpu_s, done)| cpu_s / (done.max(1.0) / 1e3))
        .collect();
    if results.len() == 1 {
        report.notes.push(format!(
            "cpu_s_per_kop per simulated second of the window: {cpu_per_kop:.4?}"
        ));
    }
    report.notes.push(format!(
        "attempted={} failed={} unavail_ms={:.3}",
        report.attempted,
        report.failed,
        mean_of(&results, |r| unavailable_ms(&r.run))
    ));
    report.set(
        "tput_ops_s",
        mean_of(&results, |r| match w.mode {
            Mode::Closed { .. } => r.summary.completed as f64 / r.run.window.secs(),
            Mode::Open { .. } => r.summary.sustained_ops_s,
        }),
    );
    report.set("lat_p50_ms", mean_of(&results, |r| r.summary.lat_p50_ms));
    report.set("slo_ok_frac", mean_of(&results, |r| r.summary.slo_ok_frac));
    report.set("cpu_s_per_kop", quiet_cost(&cpu_per_kop));
    report.set("rss_peak_mb", stats::rss_mb().1);
    report.set("setup_s", median(&setups));
}

fn sim_per_layer(
    report: &mut Report,
    w: &Workload,
    seed: u64,
    warmup: SimDuration,
    measure: SimDuration,
) {
    let results = simulate_all(report, w, seed, warmup, measure);
    report.set("unavail_ms", mean_of(&results, |r| unavailable_ms(&r.run)));

    // The first execution again, traced: one seed must give the same
    // simulated results twice, and tracing must not change them.
    let plain = &results[0];
    let traced = simulate(report, w, sim_plan(w, seed, warmup, measure)[0], true);
    let (a, b) = (plain.exact(), traced.exact());
    report.check(a == b, || {
        format!("one seed, two simulated results: {a:?} and {b:?}")
    });

    let (run, s) = (&plain.run, &plain.summary);
    let ops = s.completed.max(1) as f64;
    set_client_layers(report, s, mean_of(&results, |r| r.summary.lat_p99_ms));
    set_span_layers(
        report,
        &traced.run.traces,
        w.replicas,
        run.window.nanos(),
        traced.run.wall_s,
        ops,
    );
    report.set("trace.overhead_frac", 1.0 - run.wall_s / traced.run.wall_s);
    report.set("sim_events_per_s", run.events as f64 / run.wall_s);
    report.set("sim.events", run.events as f64);
    report.set("sim.events_per_op", run.events as f64 / ops);
    report.set(
        "sim.ns_per_event",
        run.wall_s * 1e9 / run.events.max(1) as f64,
    );
    report.set("sim.tput_ops_s", ops / run.window.secs());
    report.set("sim.lat_p50_ms", s.lat_p50_ms);
    let leader = run.node_msgs[0] as f64 / ops;
    let followers =
        run.node_msgs[1..w.replicas].iter().sum::<u64>() as f64 / (w.replicas - 1) as f64 / ops;
    report.set("sim.leader_msgs_per_op", leader);
    report.set("sim.follower_msgs_per_op", followers);
    report.set(
        "model.ml_residual",
        leader - analytical::leader_load(w.relay_groups),
    );
    report.set(
        "model.mf_residual",
        followers - analytical::follower_load(w.replicas, w.relay_groups),
    );
    let stats = &run.cluster.stats;
    report.set("log.max_len", stats.max_log_len() as f64);
    report.set("snapshot.taken", stats.snapshots_taken() as f64);
    report.set("snapshot.installed", stats.snapshots_installed() as f64);

    dump_trace(report, w, &traced.run.traces, run.window.nanos());
    drop((results, traced));
    layers::measure(&mut |name, value| report.set(name, value));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names under `"<section>": [` in BENCHMARK.json, in order.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let from = json.find(&format!("\"{section}\"")).expect("section");
        let body = &json[from..from + json[from..].find(']').expect("end of section")];
        body.split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("a name").to_string())
            .collect()
    }

    #[test]
    fn metrics_match_benchmark_json() {
        let names =
            |table: &[(&str, &str)]| table.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(declared("end_to_end"), names(END_TO_END));
        assert_eq!(declared("per_layer"), names(PER_LAYER));
        let workloads: Vec<String> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(declared("workloads"), workloads);
    }

    #[test]
    #[should_panic(expected = "not a declared metric")]
    fn an_undeclared_metric_cannot_be_reported() {
        // With `print` panicking on a declared metric that was not
        // measured, what a run prints is exactly what is declared.
        Report::new(false).set("made_up", 1.0);
    }
}
