//! Scenario-matrix chaos driver: run the checked-in corpus of chaos
//! scenarios (`scenarios/*.toml`), each with its fault schedule, and the
//! safety monitor and the linearizability check of the client history
//! riding every run.
//!
//! ```text
//! scenario [--check] [--csv] [paths...]
//! ```
//!
//! - With no paths, runs every `*.toml` under `scenarios/` (sorted).
//! - `--check` lints the corpus: parse + validate only, no runs.
//! - The `faults` column counts the schedule's `[[faults]]` tables.
//! - The `fingerprint` column is the hex of the run's whole message
//!   trace (`TraceSummary::fingerprint`): two runs print the same one
//!   only if they sent the same messages at the same times.
//! - Exit code is non-zero if any scenario fails to parse, violates
//!   safety, answers its clients non-linearizably, leaves a scheduled
//!   fault without effect, or misses its `[expect]` block.

use paxi::{RunResult, Scenario, TopologyKind};
use pigpaxos_bench::Cell::Float;
use pigpaxos_bench::{Opts, Table};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn corpus_paths(opts: &Opts) -> Vec<PathBuf> {
    let explicit: Vec<PathBuf> = opts.names.iter().map(PathBuf::from).collect();
    if !explicit.is_empty() {
        return explicit;
    }
    let mut found = Vec::new();
    if let Ok(dir) = std::fs::read_dir("scenarios") {
        for entry in dir.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "toml") {
                found.push(path);
            }
        }
    }
    found.sort();
    found
}

fn load(path: &Path) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: read failed: {e}", path.display()))?;
    paxi::scenario::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn dispatch(sc: &Scenario) -> RunResult {
    let wan = matches!(sc.topology, TopologyKind::Wan);
    match sc.protocol.as_str() {
        "paxos" if wan => sc.run_sim(paxos::PaxosConfig::wan()),
        "paxos" => sc.run_sim(paxos::PaxosConfig::lan()),
        "pigpaxos" => {
            let groups = sc
                .groups
                .unwrap_or_else(|| (sc.replicas as f64).sqrt() as usize);
            let cfg = if wan {
                pigpaxos::PigConfig::wan(pigpaxos::GroupSpec::Chunks(groups))
            } else {
                pigpaxos::PigConfig::lan(groups)
            };
            sc.run_sim(cfg)
        }
        "epaxos" => sc.run_sim(epaxos::EpaxosConfig::default()),
        other => unreachable!("parser admits only known protocols, got {other}"),
    }
}

/// Judge one result against the scenario's expectations. Returns the
/// list of failures (empty = pass).
fn judge(sc: &Scenario, r: &RunResult) -> Vec<String> {
    let mut fails = Vec::new();
    if !r.protocol.violations().is_empty() {
        fails.push(format!("SAFETY VIOLATIONS: {:?}", r.protocol.violations()));
    }
    if let Some(h) = r.client.history.as_ref().filter(|h| !h.linearizable()) {
        fails.push(format!("NOT LINEARIZABLE: {:?}", h.violations));
    }
    let applied = r.transport.faults_applied.unwrap_or(0);
    if applied != sc.scheduled_faults() {
        fails.push(format!(
            "{applied} of {} scheduled faults took effect",
            sc.scheduled_faults()
        ));
    }
    if let Some(want) = sc.expect.converged {
        match r.protocol.converged() {
            Some(got) if got == want => {}
            Some(got) => fails.push(format!("converged = {got}, expected {want}")),
            None => fails.push("no digests collected (drain too short?)".to_string()),
        }
    }
    if let Some(min) = sc.expect.min_throughput {
        if r.client.throughput < min {
            fails.push(format!(
                "throughput {:.1} < required {min:.1}",
                r.client.throughput
            ));
        }
    }
    if let Some(max) = sc.expect.max_client_retries {
        if r.client.retries > max {
            fails.push(format!(
                "client retries {} > allowed {max}",
                r.client.retries
            ));
        }
    }
    if let Some(min) = sc.expect.min_samples {
        if (r.client.samples as u64) < min {
            fails.push(format!("samples {} < required {min}", r.client.samples));
        }
    }
    fails
}

fn main() -> ExitCode {
    let opts = Opts::from_env();
    let check_only = opts.check;
    let paths = corpus_paths(&opts);
    if paths.is_empty() {
        eprintln!("scenario: no scenario files found (looked in scenarios/)");
        return ExitCode::FAILURE;
    }

    let mut failures = 0usize;
    let mut scenarios = Vec::new();
    for path in &paths {
        match load(path) {
            Ok(sc) => {
                if check_only {
                    println!("OK   {} ({})", path.display(), sc.name);
                }
                scenarios.push(sc);
            }
            Err(e) => {
                eprintln!("FAIL {e}");
                failures += 1;
            }
        }
    }
    if check_only {
        println!(
            "checked {} scenario file(s), {} invalid",
            paths.len(),
            failures
        );
        return if failures == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let columns = "scenario,protocol,tput,p99_ms,retries,faults,converged,status,fingerprint";
    let mut table = Table::new("", columns);
    for sc in &scenarios {
        let result = dispatch(sc);
        let fails = judge(sc, &result);
        let converged = match result.protocol.converged() {
            Some(true) => "yes",
            Some(false) => "NO",
            None => "-",
        };
        let status = if fails.is_empty() { "pass" } else { "FAIL" };
        let trace = result
            .transport
            .trace
            .expect("scenario runs capture the trace");
        table.row([
            sc.name.as_str().into(),
            sc.protocol.to_string().into(),
            Float(result.client.throughput, 1),
            Float(result.client.p99_latency_ms, 3),
            result.client.retries.into(),
            sc.faults.len().into(),
            converged.into(),
            status.into(),
            format!("{:016x}", trace.fingerprint).into(),
        ]);
        for f in &fails {
            eprintln!("  {}: {f}", sc.name);
        }
        if !fails.is_empty() {
            failures += 1;
        }
    }
    print!("{}", table.render(opts.csv));
    println!("\n{} scenario(s) ran, {failures} failed", scenarios.len());
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
