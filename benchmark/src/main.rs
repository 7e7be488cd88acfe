//! The repository's benchmark: see `README.md` beside `Cargo.toml`.
//!
//! `pigbench --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs
//! one workload once, prints every metric by name with its unit, checks
//! that the outputs are correct, and ends with one JSON line. Without
//! `--workload` it runs every workload, untraced and then traced, each in
//! a process of its own so that peak memory belongs to one workload.

mod client;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use report::Report;
use simnet::SimDuration;
use workloads::WORKLOADS;

/// Every actor in the benchmark speaks the PigPaxos envelope.
pub type Msg = paxi::Envelope<pigpaxos::PigMsg>;

#[global_allocator]
static ALLOCATOR: stats::CountingAllocator = stats::CountingAllocator;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    quick: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: pigbench [--workload <name>] [--seed <u64>] [--seconds <1..60>] [--trace <0|1>] [--quick]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: None,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--quick" => args.quick = true,
            _ => usage(),
        }
    }
    if args.quick {
        args.seconds = 3;
    }
    if !(1..=60).contains(&args.seconds) {
        usage();
    }
    args
}

/// Run every workload in a child process each, untraced then traced.
fn run_all(args: &Args) -> ! {
    let exe = std::env::current_exe().expect("own path");
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            if args.trace.is_some_and(|t| t != trace) {
                continue;
            }
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.quick {
                child.arg("--quick");
            }
            // `status` waits for the child to end.
            ok &= child.status().expect("start child").success();
        }
    }
    std::process::exit(if ok { 0 } else { 1 })
}

fn main() {
    let args = parse_args();
    let Some(name) = &args.workload else {
        run_all(&args)
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == name) else {
        usage()
    };
    let traced = args.trace.unwrap_or(false);
    // A quick run is for smoke tests only: its numbers are never to be
    // compared with a full run's, and it says so.
    let warmup = SimDuration::from_secs(if args.quick { 1 } else { 3 });
    let measure = SimDuration::from_secs(args.seconds);
    println!(
        "# workload={} seed={} seconds={} trace={} quick={} cores={}",
        w.name,
        args.seed,
        args.seconds,
        traced as u8,
        args.quick,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!("# why: {}", w.why);
    let report: Report = report::run(w, args.seed, warmup, measure, traced);
    report.print();
    std::process::exit(if report.correct() { 0 } else { 1 })
}
