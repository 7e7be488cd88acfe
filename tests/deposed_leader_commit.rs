//! A deposed leader's commit piggyback must never commit a value that
//! was never chosen (`Leader::piggyback_frontier`).
//!
//! Both schedules lose messages and cut leader n0 off with n1 while the
//! majority side elects a new leader. n0 can then learn, by a
//! `LearnRep`, that a slot only n0 and n1 accepted was decided as a
//! no-op at the new ballot. When n0 still led at its old ballot and
//! piggybacked its acceptor's watermark past that slot, n1, still
//! holding n0's value there, committed it: a safety violation. The
//! seeds below are every seed of 1 000 per mode and schedule that did
//! so; the full sweep runs with `cargo test --release --test
//! deposed_leader_commit -- --ignored`.

use paxi::{BatchConfig, Experiment, Workload};
use pigpaxos::PigConfig;
use simnet::{Control, NodeId, SimDuration};

#[derive(Clone, Copy, Debug)]
enum Mode {
    Plain,
    Pqr,
    PqrBatched,
}

impl Mode {
    fn config(self) -> PigConfig {
        let cfg = PigConfig::lan(2);
        match self {
            Mode::Plain => cfg,
            Mode::Pqr => cfg.with_pqr(),
            Mode::PqrBatched => cfg
                .with_pqr()
                .with_probe_batch(BatchConfig::adaptive(16, SimDuration::from_micros(2500))),
        }
    }
}

/// The two fault schedules: `scenarios/pig_deposed_leader_commit.toml`'s,
/// and the one of `tests/pqr_reads.rs`'s committed-write rinse test,
/// which adds flaky links to it.
#[derive(Clone, Copy, Debug)]
enum Schedule {
    Partition,
    PartitionFlaky,
}

/// Run `seed` and describe what failed, if anything: a safety
/// violation or a client history that is not linearizable.
fn failure(mode: Mode, schedule: Schedule, seed: u64) -> Option<String> {
    let ms = SimDuration::from_millis;
    let flaky = matches!(schedule, Schedule::PartitionFlaky);
    let mut exp = Experiment::lan(mode.config(), 5)
        .clients(3)
        .client_pipeline(1)
        .workload(Workload {
            num_keys: 2,
            ..Workload::paper_default()
        })
        .warmup(ms(300))
        .measure(ms(2200))
        .drain(ms(500))
        .check_linearizability()
        .fault(ms(700), Control::SetDropRate(0.05));
    if flaky {
        exp = exp.fault(ms(701), Control::FlakyLink(NodeId(4), NodeId(0), 0.3));
    }
    for x in [0, 1] {
        for y in [2, 3, 4] {
            exp = exp
                .fault(ms(1001), Control::BlockLink(NodeId(x), NodeId(y)))
                .fault(ms(1001), Control::BlockLink(NodeId(y), NodeId(x)));
        }
    }
    if flaky {
        exp = exp
            .fault(ms(1101), Control::ClearFlakyLinks)
            .fault(ms(1339), Control::FlakyLink(NodeId(1), NodeId(2), 0.3));
    }
    exp = exp.fault(ms(1401), Control::HealAllLinks);
    if flaky {
        exp = exp.fault(ms(1739), Control::ClearFlakyLinks);
    }
    let r = exp.fault(ms(1900), Control::SetDropRate(0.0)).run_sim(seed);
    let violations = r.protocol.violations();
    let history = r.client.history.expect("checked");
    if !violations.is_empty() {
        Some(format!("{mode:?} {schedule:?} seed {seed}: {violations:?}"))
    } else if !history.linearizable() {
        let v = history.violations;
        Some(format!("{mode:?} {schedule:?} seed {seed}: {v:?}"))
    } else {
        None
    }
}

/// Every `(mode, schedule, seed)` of `runs` that fails, run on two
/// threads.
fn failures(runs: &[(Mode, Schedule, u64)]) -> Vec<String> {
    let sweep = |part: &[(Mode, Schedule, u64)]| -> Vec<String> {
        part.iter()
            .filter_map(|&(mode, schedule, seed)| failure(mode, schedule, seed))
            .collect()
    };
    let (first, second) = runs.split_at(runs.len() / 2);
    std::thread::scope(|s| {
        let second = s.spawn(|| sweep(second));
        let mut out = sweep(first);
        out.extend(second.join().expect("sweep thread"));
        out
    })
}

#[test]
fn the_seeds_where_a_deposed_leader_committed_an_unchosen_value_run_clean() {
    use Mode::*;
    use Schedule::*;
    let seeds: [(Mode, Schedule, &[u64]); 6] = [
        (
            Plain,
            Partition,
            &[61, 236, 240, 256, 285, 484, 485, 625, 725, 762, 954],
        ),
        (Pqr, Partition, &[582, 656]),
        (PqrBatched, Partition, &[774]),
        (
            Plain,
            PartitionFlaky,
            &[103, 123, 271, 300, 336, 448, 537, 628, 702, 776],
        ),
        (Pqr, PartitionFlaky, &[536, 601, 997]),
        (PqrBatched, PartitionFlaky, &[11, 420, 633, 897, 1000]),
    ];
    let runs: Vec<_> = seeds
        .iter()
        .flat_map(|&(mode, schedule, seeds)| seeds.iter().map(move |&s| (mode, schedule, s)))
        .collect();
    assert_eq!(runs.len(), 32);
    let failed = failures(&runs);
    assert!(failed.is_empty(), "{failed:#?}");
}

#[test]
#[ignore = "6 000 runs; CI's chaos job runs it in release"]
fn a_thousand_seeds_per_mode_and_schedule_run_clean() {
    let mut runs = Vec::new();
    for mode in [Mode::Plain, Mode::Pqr, Mode::PqrBatched] {
        for schedule in [Schedule::Partition, Schedule::PartitionFlaky] {
            runs.extend((1..=1000).map(|seed| (mode, schedule, seed)));
        }
    }
    let failed = failures(&runs);
    assert!(failed.is_empty(), "{failed:#?}");
}
