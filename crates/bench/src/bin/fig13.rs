//! Figure 13: throughput timeline of a saturated 25-node / 3-relay-group
//! PigPaxos cluster while one relay group is faulty (one member crashed)
//! for a 20-second window; relay timeout 50 ms; throughput sampled over
//! 1-second intervals.
//!
//! Paper result: the two healthy relay groups still deliver a majority,
//! so max throughput declines only ≈3% during the fault.

use pigpaxos::PigConfig;
use pigpaxos_bench::{csv_mode, lan_experiment, quick_mode, SEED};
use simnet::{Control, NodeId, SimDuration, SimTime};

fn main() {
    let (total_secs, fault_start, fault_end) = if quick_mode() {
        (15u64, 5u64, 10u64)
    } else {
        (60, 20, 40)
    };

    // Node 5 is a member (and 1-in-8 rounds, the relay) of group 0.
    let faulty = NodeId(5);
    let result = lan_experiment(PigConfig::lan(3), 25)
        .clients(160) // saturation, as in the paper
        .warmup(SimDuration::from_secs(0))
        .measure(SimDuration::from_secs(total_secs))
        .timeline_bucket(SimDuration::from_secs(1))
        .run_sim_with(SEED, move |sim, _| {
            sim.schedule_control(SimTime::from_secs(fault_start), Control::Crash(faulty));
            sim.schedule_control(SimTime::from_secs(fault_end), Control::Recover(faulty));
        });

    assert!(
        result.violations.is_empty(),
        "safety violated: {:?}",
        result.violations
    );

    if csv_mode() {
        println!("time_s,throughput");
        for (t, tput) in &result.timeline {
            println!("{t:.0},{tput:.0}");
        }
    } else {
        println!(
            "Figure 13: PigPaxos 25 nodes / 3 groups, node {faulty} crashed in \
             [{fault_start}s, {fault_end}s), relay timeout 50ms"
        );
        println!("{:>7} {:>12}", "time(s)", "tput(req/s)");
        for (t, tput) in &result.timeline {
            let marker = if (*t > fault_start as f64) && (*t <= fault_end as f64) {
                "  <- fault window"
            } else {
                ""
            };
            println!("{t:>7.0} {tput:>12.0}{marker}");
        }
    }

    // Quantify the dip like the paper does.
    let healthy: Vec<f64> = result
        .timeline
        .iter()
        .filter(|&&(t, _)| t > 2.0 && (t <= fault_start as f64 || t > fault_end as f64 + 2.0))
        .map(|&(_, v)| v)
        .collect();
    let faulted: Vec<f64> = result
        .timeline
        .iter()
        .filter(|&&(t, _)| t > fault_start as f64 + 1.0 && t <= fault_end as f64)
        .map(|&(_, v)| v)
        .collect();
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let decline = 100.0 * (1.0 - avg(&faulted) / avg(&healthy));
    if csv_mode() {
        println!("decline_pct,{decline:.1}");
    } else {
        println!(
            "\nhealthy avg {:.0} req/s, faulted avg {:.0} req/s, decline {:.1}% (paper: ≈3%)",
            avg(&healthy),
            avg(&faulted),
            decline
        );
    }
}
