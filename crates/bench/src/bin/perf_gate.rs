//! CI perf-regression gate.
//!
//! Usage: `perf_gate <current.json>... <baseline.json>`
//!
//! The last path is the baseline; every preceding path is a current-run
//! metrics file and the set is merged (duplicate keys are an error —
//! two producers claiming the same metric would make the gate
//! ambiguous). All files are flat JSON objects as produced by
//! `figures --json` (`batch_sweep`) or `alloc_gate --json`.
//! The gate compares every key present in the baseline:
//!
//! - `*_per_op` / `*_ms` (lower is better): fail when the current value
//!   exceeds the baseline by more than 10%.
//! - `*_reduction` / `*_tput` (higher is better): fail when the current
//!   value falls more than 10% below the baseline.
//!
//! Keys present only in the current run are informational (new metrics
//! do not need a baseline to land); keys missing from the current run
//! fail the gate — a silently dropped metric would otherwise disable
//! its regression check forever.

use pigpaxos_bench::json;
use std::collections::HashMap;
use std::process::ExitCode;

const TOLERANCE: f64 = 0.10;

enum Direction {
    LowerIsBetter,
    HigherIsBetter,
    Ignore,
}

fn direction(key: &str) -> Direction {
    if key.ends_with("_per_op") || key.ends_with("_ms") {
        Direction::LowerIsBetter
    } else if key.ends_with("_reduction") || key.ends_with("_tput") {
        Direction::HigherIsBetter
    } else {
        Direction::Ignore
    }
}

fn load(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("perf_gate: cannot read {path}: {e}"));
    json::parse(&text).unwrap_or_else(|| panic!("perf_gate: {path} is not a flat numeric JSON"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 3 {
        eprintln!("usage: perf_gate <current.json>... <baseline.json>");
        return ExitCode::from(2);
    }
    let mut current: HashMap<String, f64> = HashMap::new();
    for path in &args[1..args.len() - 1] {
        for (key, value) in load(path) {
            if current.insert(key.clone(), value).is_some() {
                eprintln!("perf_gate: metric `{key}` appears in more than one current file");
                return ExitCode::from(2);
            }
        }
    }
    let baseline = load(&args[args.len() - 1]);

    let mut failures = 0usize;
    println!(
        "{:<34} {:>12} {:>12} {:>8}  verdict",
        "metric", "baseline", "current", "delta"
    );
    for (key, base) in &baseline {
        let Some(&cur) = current.get(key) else {
            println!(
                "{key:<34} {base:>12.3} {:>12} {:>8}  FAIL (metric missing)",
                "-", "-"
            );
            failures += 1;
            continue;
        };
        let delta_pct = if *base != 0.0 {
            (cur - base) / base * 100.0
        } else {
            0.0
        };
        let ok = match direction(key) {
            Direction::LowerIsBetter => cur <= base * (1.0 + TOLERANCE),
            Direction::HigherIsBetter => cur >= base * (1.0 - TOLERANCE),
            Direction::Ignore => true,
        };
        let verdict = match (ok, matches!(direction(key), Direction::Ignore)) {
            (_, true) => "info",
            (true, _) => "ok",
            (false, _) => {
                failures += 1;
                "FAIL"
            }
        };
        println!("{key:<34} {base:>12.3} {cur:>12.3} {delta_pct:>+7.1}%  {verdict}");
    }

    if failures > 0 {
        eprintln!(
            "\nperf_gate: {failures} metric(s) regressed beyond {:.0}%",
            TOLERANCE * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!(
            "\nperf_gate: all metrics within {:.0}% of baseline",
            TOLERANCE * 100.0
        );
        ExitCode::SUCCESS
    }
}
