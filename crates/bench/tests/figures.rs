//! The `figures` driver end to end: the entry table is well formed and
//! the cheap entries still run and print what they declare.

use pigpaxos_bench::figures::ENTRIES;
use std::collections::HashSet;
use std::process::Command;

/// Run the `figures` bin and return its stdout lines.
fn figures(args: &[&str]) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "figures {args:?} failed: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().map(String::from).collect()
}

#[test]
fn entry_names_are_unique_and_all_listed() {
    let names: HashSet<&str> = ENTRIES.iter().map(|entry| entry.0).collect();
    assert_eq!(names.len(), ENTRIES.len(), "duplicate entry name");
    let listed = figures(&["--list"]);
    assert_eq!(listed.len(), ENTRIES.len());
    for ((name, what, _), line) in ENTRIES.iter().zip(&listed) {
        assert!(!what.is_empty(), "{name} says nothing about the paper");
        let listed_name = line.split_whitespace().next();
        assert_eq!(listed_name, Some(*name));
        assert!(line.ends_with(what), "{line}");
    }
}

#[test]
fn an_unknown_name_or_flag_is_refused() {
    for args in [["--quick", "fig99"], ["--quik", "tables"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .output()
            .expect("figures runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn cheap_entries_print_their_declared_csv() {
    let names = [
        "tables",
        "ablation_partial",
        "flexible_quorums",
        "wan_traffic",
    ];
    // Every table those print, in order: its CSV header and row count.
    let tables = [
        (
            "table,relay_groups,leader_msgs,follower_msgs,leader_overhead_pct",
            10,
        ),
        ("config,throughput,mean_ms,p99_ms", 2),
        ("metric,majority,flexible", 4),
        (
            "protocol,measured_cross_region_per_op,model_one_way_per_op",
            2,
        ),
    ];
    let printed = figures(&[&["--quick", "--csv"], &names[..]].concat());

    // Relay timeouts fire in `ablation_partial`; what they flush must
    // not depend on the process it runs in.
    let partial = printed
        .iter()
        .position(|l| l == tables[1].0)
        .expect("its header");
    assert_eq!(
        printed[partial..=partial + tables[1].1],
        figures(&["--quick", "--csv", "ablation_partial"]),
        "ablation_partial differs between runs"
    );

    let mut lines = printed.into_iter();
    for (header, rows) in tables {
        assert_eq!(lines.next().as_deref(), Some(header));
        let width = header.split(',').count();
        for row in lines.by_ref().take(rows) {
            // At least: the `tables` titles carry a comma of their own.
            assert!(row.split(',').count() >= width, "{row}");
            let value = row.rsplit(',').next().expect("a last cell");
            assert!(value.parse::<f64>().is_ok(), "{row}");
        }
    }
    assert_eq!(lines.next(), None, "rows beyond the declared counts");
}
