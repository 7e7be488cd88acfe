//! The figure/table regeneration driver and the perf gates' plumbing.
//!
//! Every figure, table, ablation and sweep is one row of
//! [`figures::ENTRIES`], run by the `figures` bin; each returns a
//! [`Report`] of [`Table`]s that one function renders as CSV or as
//! aligned text. The bins share one command line, parsed once into
//! [`Opts`]:
//! - `--quick` (or env `PIG_QUICK=1`): much shorter simulated windows,
//!   for CI smoke runs; numbers are noisier.
//! - `--csv`: machine-readable output instead of the aligned tables.
//! - `--json <path>`: also write the headline metrics as a flat JSON
//!   object (the CI perf-gate artifact).

use paxi::{Experiment, ProtocolSpec};
use simnet::SimDuration;

pub mod alloc;
pub mod figures;
pub mod hotpath;
mod table;

pub use table::{Cell, Report, Table};

/// The command line shared by the bench bins, parsed once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Opts {
    /// Short simulated windows (`--quick` or env `PIG_QUICK`).
    pub quick: bool,
    /// CSV instead of aligned text (`--csv`).
    pub csv: bool,
    /// Print the entry names and exit (`--list`; `figures` only).
    pub list: bool,
    /// Parse and validate only (`--check`; `scenario` only).
    pub check: bool,
    /// Where to write the headline metrics (`--json <path>`).
    pub json: Option<String>,
    /// Positional arguments: entry names, or scenario paths.
    pub names: Vec<String>,
}

impl Opts {
    /// Parse arguments (without the program name). An unknown `--flag`
    /// is an error: a typo'd `--quick` must not become a full-length run.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
        let mut opts = Opts {
            quick: std::env::var_os("PIG_QUICK").is_some(),
            ..Opts::default()
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--csv" => opts.csv = true,
                "--list" => opts.list = true,
                "--check" => opts.check = true,
                "--json" => opts.json = Some(args.next().ok_or("--json needs a path")?),
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                _ => opts.names.push(arg),
            }
        }
        Ok(opts)
    }

    /// [`Opts::parse`] over this process's arguments; exits with status
    /// 2 on a bad command line.
    pub fn from_env() -> Opts {
        Opts::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// `quick` under `--quick`, `full` otherwise.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Standard LAN experiment for a figure run (shorter measurement
    /// windows under `--quick`). Protocol and cluster size are the
    /// caller's two axes; everything else is the paper default.
    pub fn lan<P: ProtocolSpec>(&self, proto: P, n_replicas: usize) -> Experiment<P> {
        let (warmup_ms, measure_ms) = self.pick((300, 700), (1000, 3000));
        Experiment::lan(proto, n_replicas)
            .warmup(SimDuration::from_millis(warmup_ms))
            .measure(SimDuration::from_millis(measure_ms))
    }

    /// Standard WAN experiment (Virginia/California/Oregon).
    pub fn wan<P: ProtocolSpec>(&self, proto: P, n_replicas: usize) -> Experiment<P> {
        let (warmup_ms, measure_ms) = self.pick((500, 1000), (2000, 6000));
        Experiment::wan(proto, n_replicas)
            .warmup(SimDuration::from_millis(warmup_ms))
            .measure(SimDuration::from_millis(measure_ms))
    }

    /// Write `metrics` to the `--json` path, if one was given.
    pub fn write_json(&self, metrics: &[(String, f64)]) {
        if let Some(path) = &self.json {
            std::fs::write(path, json::render(metrics)).expect("write json metrics");
            if !self.csv {
                println!("wrote {} metrics to {path}", metrics.len());
            }
        }
    }
}

/// Flat `{"key": number}` JSON read/write for bench artifacts. The
/// container vendors no serde, so this hand-rolls exactly the subset
/// the perf gate needs: string keys mapped to finite f64 values.
pub mod json {
    /// Serialize entries as a flat JSON object (stable order). Panics
    /// on non-finite values — `parse` would reject them, and a NaN in a
    /// metric means the producing run is broken and must fail loudly at
    /// the source, not in the perf gate.
    pub fn render(entries: &[(String, f64)]) -> String {
        let body: Vec<String> = entries
            .iter()
            .map(|(k, v)| {
                assert!(v.is_finite(), "metric {k} is not finite: {v}");
                format!("  \"{k}\": {v:.6}")
            })
            .collect();
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }

    /// Parse a flat JSON object of numeric values. Returns `None` on
    /// anything that is not `{"key": number, ...}`.
    pub fn parse(text: &str) -> Option<Vec<(String, f64)>> {
        let inner = text.trim().strip_prefix('{')?.strip_suffix('}')?;
        let mut out = Vec::new();
        for pair in inner.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair.split_once(':')?;
            let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
            let value: f64 = value.trim().parse().ok()?;
            if !value.is_finite() {
                return None;
            }
            out.push((key.to_string(), value));
        }
        Some(out)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn round_trip() {
            let entries = vec![
                ("a_per_op".to_string(), 1.25),
                ("b_tput".to_string(), 10_000.0),
            ];
            let text = render(&entries);
            let parsed = parse(&text).expect("own output parses");
            assert_eq!(parsed.len(), 2);
            assert_eq!(parsed[0].0, "a_per_op");
            assert!((parsed[0].1 - 1.25).abs() < 1e-9);
            assert!((parsed[1].1 - 10_000.0).abs() < 1e-3);
        }

        #[test]
        fn rejects_garbage() {
            assert!(parse("not json").is_none());
            assert!(parse("{\"k\": \"string\"}").is_none());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_are_consistent() {
        let opts = Opts::default();
        let e = opts.lan(paxos::PaxosConfig::lan(), 25);
        assert_eq!(e.n_replicas(), 25);
        assert_eq!(e.topology().num_nodes(), 25);
        let w = opts.wan(paxos::PaxosConfig::wan(), 15);
        assert_eq!(w.topology().num_regions(), 3);
    }

    #[test]
    fn opts_parse_flags_names_and_reject_typos() {
        let parse = |s: &str| Opts::parse(s.split_whitespace().map(String::from));
        let o = parse("--csv fig7 --json out.json tables").expect("valid");
        assert!(o.csv && !o.list);
        assert_eq!(o.json.as_deref(), Some("out.json"));
        assert_eq!(o.names, ["fig7", "tables"]);
        assert!(parse("--quik fig7").is_err());
        assert!(parse("--json").is_err());
    }
}
