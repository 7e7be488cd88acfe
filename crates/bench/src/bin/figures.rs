//! Regenerate the paper's figures and tables, the ablations and the
//! gated sweeps: `figures [--quick] [--csv] [--json PATH] [--list] <name>…`
//!
//! Each name is a row of [`pigpaxos_bench::figures::ENTRIES`]; `--list`
//! (or no name) prints them with what the paper reports. Entries run in
//! the order given; `--json` collects the metrics of all in one file.

use pigpaxos_bench::figures::ENTRIES;
use pigpaxos_bench::Opts;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = Opts::from_env();
    if opts.list || opts.names.is_empty() {
        for (name, what, _) in ENTRIES {
            println!("{name:<18} {what}");
        }
        return ExitCode::SUCCESS;
    }
    let lookup = |name: &String| ENTRIES.iter().find(|entry| entry.0 == name);
    if let Some(unknown) = opts.names.iter().find(|name| lookup(name).is_none()) {
        eprintln!("figures: no entry named {unknown}; see --list");
        return ExitCode::from(2);
    }
    let mut metrics = Vec::new();
    for (name, what, run) in opts.names.iter().filter_map(lookup) {
        if !opts.csv {
            println!("# {name}: {what}\n");
        }
        let report = run(&opts);
        print!("{}", report.render(opts.csv));
        if !opts.csv {
            println!();
        }
        metrics.extend(report.metrics);
    }
    opts.write_json(&metrics);
    ExitCode::SUCCESS
}
