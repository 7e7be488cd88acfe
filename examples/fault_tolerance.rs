//! Fault tolerance walkthrough: a 25-node PigPaxos cluster survives a
//! follower crash, its recovery, and finally a leader crash with
//! re-election — with a per-second throughput timeline so the impact of
//! each event is visible.
//!
//! Unlike the paper's Fig. 13 (clients pinned to the healthy leader,
//! showing the *protocol's* ≈3% dip — regenerate with
//! `cargo run -p pigpaxos_bench --bin figures -- fig13`), clients here pick random
//! replicas, so the visible dips are dominated by *client-side* retry
//! stalls against crashed nodes. The protocol itself keeps committing
//! throughout; safety is asserted at the end.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use paxi::{Experiment, TargetPolicy};
use pigpaxos::PigConfig;
use simnet::{Control, NodeId, SimDuration, SimTime};

fn main() {
    let quick = std::env::var_os("PIG_QUICK").is_some();
    let (total, crash_t, recover_t, leader_crash_t) = if quick {
        (6u64, 1, 3, 4)
    } else {
        (12, 3, 6, 8)
    };

    let result = Experiment::lan(PigConfig::lan(3), 25)
        .clients(80)
        .warmup(SimDuration::from_secs(0))
        .measure(SimDuration::from_secs(total))
        .timeline_bucket(SimDuration::from_secs(1))
        // Clients spread over all replicas so they survive the leader
        // crash by redirecting to whoever wins the next election.
        .target(TargetPolicy::Random((0..25u32).map(NodeId).collect()))
        .retry_timeout(SimDuration::from_millis(400))
        .run_sim_with(paxi::DEFAULT_SEED, move |sim| {
            // One follower in relay group 0 crashes…
            sim.schedule_control(SimTime::from_secs(crash_t), Control::Crash(NodeId(5)));
            // …recovers and catches up via batched LearnReq…
            sim.schedule_control(SimTime::from_secs(recover_t), Control::Recover(NodeId(5)));
            // …then the leader itself crashes; a follower takes over.
            sim.schedule_control(
                SimTime::from_secs(leader_crash_t),
                Control::Crash(NodeId(0)),
            );
        });

    assert!(
        result.protocol.violations().is_empty(),
        "safety must hold through every fault"
    );

    println!("PigPaxos 25 nodes / 3 relay groups, 80 clients\n");
    println!("{:>7} {:>12}   event", "time(s)", "tput(req/s)");
    let timeline = result
        .client
        .timeline
        .as_ref()
        .expect("timeline_bucket set");
    for (t, tput) in timeline {
        let ts = *t as u64;
        let event = if ts == crash_t + 1 {
            "<- follower n5 crashed (dip = clients that picked n5 stall one retry)"
        } else if ts == recover_t + 1 {
            "<- n5 recovered, catching up via batched LearnReq"
        } else if ts == leader_crash_t + 1 {
            "<- LEADER crashed; election in progress"
        } else if ts == leader_crash_t + 2 {
            "<- new leader serving (clients keep stalling on n0 until retry redirects them)"
        } else {
            ""
        };
        println!("{t:>7.0} {tput:>12.0}   {event}");
    }
    println!(
        "\ndecided slots: {}   safety violations: {}",
        result.protocol.decided(),
        result.protocol.violations().len()
    );
}
