//! Capacity planning: given *your* cluster size, sweep the relay-group
//! count and report the configuration with the best max throughput and
//! the latency each choice costs — the decision the paper's Fig. 7 and
//! §6.1 model inform. With the relay-group count as just another value
//! of the protocol axis, the sweep is a three-line loop.
//!
//! ```sh
//! cargo run --release --example tune_relay_groups -- 13
//! ```

use paxi::Experiment;
use pigpaxos::PigConfig;
use simnet::SimDuration;

fn main() {
    let quick = std::env::var_os("PIG_QUICK").is_some();
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(13);
    assert!(n >= 3, "need at least 3 replicas");

    println!("Relay-group tuning for a {n}-node PigPaxos cluster\n");
    println!(
        "{:>8} {:>16} {:>18} {:>12} {:>12}",
        "groups", "max tput(req/s)", "low-load lat(ms)", "Ml (model)", "Mf (model)"
    );

    let max_r = (n - 1).min(8);
    let mut best = (0usize, 0.0f64);
    for r in 1..=max_r {
        let pts = Experiment::lan(PigConfig::lan(r), n)
            .warmup(SimDuration::from_millis(500))
            .measure(SimDuration::from_millis(if quick { 700 } else { 2000 }))
            .load_sweep(paxi::DEFAULT_SEED, &[1, 40, 160]);
        let low_load_latency = pts[0].result.client.mean_latency_ms;
        let max_tput = pts
            .iter()
            .map(|p| p.result.client.throughput)
            .fold(0.0, f64::max);
        println!(
            "{r:>8} {max_tput:>16.0} {low_load_latency:>18.2} {:>12.1} {:>12.2}",
            analytical::leader_load(r),
            analytical::follower_load(n, r),
        );
        if max_tput > best.1 {
            best = (r, max_tput);
        }
    }
    println!(
        "\nrecommendation: {} relay groups ({:.0} req/s max).",
        best.0, best.1
    );
    println!("caveat: r=1 cannot mask even one relay-group fault; prefer r>=2 (paper §6.2).");
}
