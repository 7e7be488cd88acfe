//! Shard-count scaling sweep: aggregate throughput of a sharded
//! deployment as the number of consensus groups grows, at a **fixed
//! per-shard cluster size** (3 replicas per group).
//!
//! Single-group consensus serializes every command through one leader;
//! sharding multiplies that bottleneck by the number of groups, so
//! aggregate throughput should scale close to linearly in the shard
//! count while per-key ordering inside each group is untouched. The
//! closed-loop router population is scaled with the shard count (two
//! routers per shard) so the offered load grows with the capacity under
//! test rather than capping it.
//!
//! Gate (asserted in-binary and re-checked by `perf_gate` against
//! `BENCH_shard_baseline.json` in CI): 8 shards must deliver at least
//! 4x the aggregate throughput of 1 shard. The simulation is
//! deterministic, so an unchanged tree reproduces the baseline
//! bit-for-bit.
//!
//! `--quick` shortens the windows and stops at 8 shards; the full run
//! extends to 16 and 32. `--json <path>` writes `shard{N}_tput` keys
//! plus the `shard_scaling_8_over_1` ratio as a flat JSON object.

use paxi::Experiment;
use paxos::PaxosConfig;
use pigpaxos_bench::{csv_mode, json, json_path, quick_mode, SEED};
use simnet::SimDuration;

/// Fixed replica count per consensus group across the whole sweep.
const REPLICAS_PER_SHARD: usize = 3;

/// Minimum aggregate speedup required from 1 shard to 8 shards.
const MIN_SCALING_8_OVER_1: f64 = 4.0;

fn run(shards: usize) -> f64 {
    let (warmup, measure) = if quick_mode() {
        (
            SimDuration::from_millis(300),
            SimDuration::from_millis(1500),
        )
    } else {
        (
            SimDuration::from_millis(500),
            SimDuration::from_millis(4000),
        )
    };
    let r = Experiment::lan(PaxosConfig::lan(), REPLICAS_PER_SHARD)
        .shards(shards)
        .clients(2 * shards)
        .warmup(warmup)
        .measure(measure)
        .run_sim(SEED);
    assert!(
        r.violations.is_empty(),
        "{shards}-shard run violated safety: {:?}",
        r.violations
    );
    r.throughput
}

fn main() {
    let counts: &[usize] = if quick_mode() {
        &[1, 2, 4, 8]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };
    if csv_mode() {
        println!("shards,tput");
    } else {
        println!(
            "Shard scaling sweep: Paxos, {REPLICAS_PER_SHARD} replicas/shard, \
             2 routers/shard"
        );
        println!("{:>7} {:>14} {:>9}", "shards", "tput(req/s)", "speedup");
    }

    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut base = 0.0f64;
    let mut tput8 = 0.0f64;
    for &s in counts {
        let tput = run(s);
        if s == 1 {
            base = tput;
        }
        if s == 8 {
            tput8 = tput;
        }
        let speedup = if base > 0.0 { tput / base } else { 0.0 };
        if csv_mode() {
            println!("{s},{tput:.0}");
        } else {
            println!("{s:>7} {tput:>14.0} {speedup:>8.2}x");
        }
        metrics.push((format!("shard{s}_tput"), tput));
    }

    let scaling = if base > 0.0 { tput8 / base } else { 0.0 };
    // Ratio key carries no perf_gate suffix on purpose: the gate treats
    // it as informational, while the absolute `_tput` keys regress-check
    // each point. The hard scaling floor lives right here instead.
    metrics.push(("shard_scaling_8_over_1".to_string(), scaling));
    if !csv_mode() {
        println!("\n8-shard scaling vs 1 shard: {scaling:.2}x (floor {MIN_SCALING_8_OVER_1:.0}x)");
    }

    if let Some(path) = json_path() {
        std::fs::write(&path, json::render(&metrics)).expect("write json metrics");
        if !csv_mode() {
            println!("wrote {path}");
        }
    }

    assert!(
        scaling >= MIN_SCALING_8_OVER_1,
        "sharding must scale: 8 shards gave {scaling:.2}x over 1 shard, \
         need >= {MIN_SCALING_8_OVER_1:.0}x"
    );
}
