//! Declarative chaos scenarios: one file = one experiment point on the
//! protocol × topology × workload × fault-schedule matrix.
//!
//! A scenario file is a small TOML document (parsed by a self-contained
//! subset parser — no external dependency) naming a protocol, a
//! cluster shape, a client population, a fault schedule for the
//! [`crate::nemesis::Nemesis`] actor, and expectations the run must
//! meet. [`Scenario::run_sim`] runs one; every run also checks that
//! what the clients saw is linearizable. The checked-in corpus under
//! `scenarios/` is executed by the `scenario` driver binary and by CI's
//! chaos job; the same parser backs the driver's `--check` lint mode.
//!
//! ## Format
//!
//! ```toml
//! name = "pig-partition-heal"
//! protocol = "pigpaxos"     # paxos | pigpaxos | epaxos
//! replicas = 7
//! groups = 2                # pigpaxos relay groups (ignored otherwise)
//! topology = "lan"          # lan | wan
//! clients = 10
//! seed = 42
//! warmup_ms = 500
//! measure_ms = 3000
//! drain_ms = 1500           # post-run quiescence before digest checks
//!
//! [workload]
//! read_ratio = 0.5
//! payload = 8
//! keys = 1000
//!
//! [[faults]]                # times are offsets from simulation start
//! at_ms = 1000
//! kind = "partition"
//! a = [0, 1, 2]
//! b = [3, 4, 5, 6]
//!
//! [[faults]]
//! at_ms = 2000
//! kind = "heal"
//!
//! [expect]
//! converged = true
//! min_throughput = 50.0
//! ```
//!
//! Fault kinds and their fields:
//!
//! | kind | fields | effect |
//! |---|---|---|
//! | `partition` | `a`, `b` (node lists) | block every link between the groups |
//! | `asym_partition` | `a`, `b` (node lists) | drop only `a → b`; `b → a` keeps flowing |
//! | `heal` | — | unblock all links |
//! | `crash` | `node` | crash-stop the node |
//! | `restart` | `node` | recover a crashed node |
//! | `flaky` | `from`, `to`, `p` | drop each `from → to` message with probability `p` |
//! | `clear_flaky` | — | restore all flaky links |
//! | `slow` | `node`, `extra_us` | inflate the node's send/receive latency |
//! | `clear_slow` | — | restore all slow nodes |
//! | `drop_rate` | `p` | uniform drop probability on every link |
//! | `storm` | `target`, `count` | burst of `count` junk requests at `target` |
//! | `crash_loop` | `node`, `period_ms`, `count` | crash `node`, recover half a period later, repeat `count` times |

use crate::experiment::{Experiment, ProtocolSpec};
use crate::harness::RunResult;
use crate::nemesis::{Nemesis, NemesisLog};
use crate::workload::{KeyDistribution, Workload};
use simnet::SimDuration;
use std::collections::BTreeMap;
use std::fmt;

/// Replica topology families a scenario can request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// Single-region LAN.
    Lan,
    /// The paper's Virginia/California/Oregon WAN.
    Wan,
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Block every link between node group `a` and node group `b`
    /// (both directions).
    Partition {
        /// One side of the partition.
        a: Vec<u32>,
        /// The other side.
        b: Vec<u32>,
    },
    /// Block only the `a → b` direction: messages from group `a`
    /// toward group `b` are dropped while `b → a` is still delivered —
    /// the one-way link failure (bad NIC, asymmetric routing) that a
    /// full partition masks. Leader-based protocols must either keep a
    /// quorum that excludes the dead direction or re-elect around it.
    AsymmetricPartition {
        /// Senders whose messages toward `b` are dropped.
        a: Vec<u32>,
        /// Receivers whose replies toward `a` still flow.
        b: Vec<u32>,
    },
    /// Unblock all links.
    Heal,
    /// Crash-stop a node.
    Crash(u32),
    /// Recover a crashed node (state intact).
    Restart(u32),
    /// Make the directional link flaky with the given drop probability.
    Flaky {
        /// Sending node.
        from: u32,
        /// Receiving node.
        to: u32,
        /// Per-message drop probability in `[0, 1]`.
        p: f64,
    },
    /// Restore every flaky link.
    ClearFlaky,
    /// Inflate a node's send/receive latency by `extra`.
    Slow {
        /// The degraded node.
        node: u32,
        /// Added latency per message.
        extra: SimDuration,
    },
    /// Restore every slow node.
    ClearSlow,
    /// Set the uniform drop probability for all links.
    DropRate(f64),
    /// Burst `count` junk read requests at `target` in one handler
    /// invocation (a message storm from a misbehaving client).
    Storm {
        /// Node the burst is aimed at.
        target: u32,
        /// Number of requests in the burst.
        count: u32,
    },
    /// Repeatedly crash-and-recover a node: crash at the scheduled
    /// time, recover half a `period` later, crash again a full `period`
    /// after the previous crash, until `count` crashes have fired. The
    /// node ends the loop recovered. Models a crash-looping process
    /// under a restart supervisor.
    CrashLoop {
        /// The node to crash repeatedly.
        node: u32,
        /// Full crash + recover cycle length.
        period: SimDuration,
        /// Total number of crashes.
        count: u32,
    },
}

/// A [`Fault`] with its scheduled time (offset from simulation start).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the nemesis executes the fault.
    pub at: SimDuration,
    /// What happens.
    pub fault: Fault,
}

/// Pass/fail expectations checked by the scenario driver after a run.
/// All fields optional; absent means "don't check".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Expectations {
    /// Require post-drain digest convergence to equal this value
    /// (`true`: all replicas converged; `false`: divergence tolerated —
    /// documents a known-lossy schedule).
    pub converged: Option<bool>,
    /// Minimum measured throughput (ops/s).
    pub min_throughput: Option<f64>,
    /// Maximum total client retries across the run.
    pub max_client_retries: Option<u64>,
    /// Minimum completed samples in the measurement window.
    pub min_samples: Option<u64>,
}

/// A fully parsed scenario: everything the driver needs to build an
/// [`crate::Experiment`], attach a nemesis, run, and judge the result.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Unique name (reports, CI artifacts).
    pub name: String,
    /// Protocol key: `"paxos"`, `"pigpaxos"`, or `"epaxos"`. Kept as a
    /// string — protocol dispatch happens in the driver, which depends
    /// on the protocol crates; this crate does not.
    pub protocol: String,
    /// Number of consensus replicas.
    pub replicas: usize,
    /// PigPaxos relay-group count (ignored by other protocols).
    pub groups: Option<usize>,
    /// Replica topology family.
    pub topology: TopologyKind,
    /// Closed-loop client count.
    pub clients: usize,
    /// Requests each client keeps in flight.
    pub pipeline: usize,
    /// Master seed.
    pub seed: u64,
    /// Ramp-up excluded from measurement.
    pub warmup: SimDuration,
    /// Measurement window.
    pub measure: SimDuration,
    /// Post-run quiescence before digests are sampled (0 = skip).
    pub drain: SimDuration,
    /// Client retry timeout override (`None` = substrate default).
    pub retry_timeout: Option<SimDuration>,
    /// Workload specification.
    pub workload: Workload,
    /// The fault schedule, in file order.
    pub faults: Vec<FaultEvent>,
    /// Post-run checks.
    pub expect: Expectations,
    /// Whether the scenario runs under `--quick` / `PIG_QUICK=1`
    /// (default `true`; long soaks opt out with `quick = false`).
    pub quick: bool,
}

/// Parse or validation failure, with enough context to fix the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError(pub String);

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario error: {}", self.0)
    }
}

impl std::error::Error for ScenarioError {}

fn err<T>(line: usize, msg: impl fmt::Display) -> Result<T, ScenarioError> {
    Err(ScenarioError(format!("line {line}: {msg}")))
}

/// A parsed TOML-subset value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
    IntList(Vec<i64>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::IntList(_) => "integer list",
        }
    }
}

/// `(value, source line)` — the line survives into validation errors.
type Table = BTreeMap<String, (Value, usize)>;

#[derive(Debug, Default)]
struct RawScenario {
    root: Table,
    workload: Table,
    expect: Table,
    faults: Vec<Table>,
}

fn parse_value(raw: &str, line: usize) -> Result<Value, ScenarioError> {
    let raw = raw.trim();
    if let Some(stripped) = raw.strip_prefix('"') {
        let Some(inner) = stripped.strip_suffix('"') else {
            return err(line, "unterminated string");
        };
        if inner.contains('"') {
            return err(line, "escaped quotes are not supported");
        }
        return Ok(Value::Str(inner.to_string()));
    }
    if raw == "true" {
        return Ok(Value::Bool(true));
    }
    if raw == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(stripped) = raw.strip_prefix('[') {
        let Some(inner) = stripped.strip_suffix(']') else {
            return err(line, "unterminated list (lists must be single-line)");
        };
        let mut items = Vec::new();
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue; // trailing comma
            }
            match part.parse::<i64>() {
                Ok(v) => items.push(v),
                Err(_) => return err(line, format!("non-integer list item `{part}`")),
            }
        }
        return Ok(Value::IntList(items));
    }
    if raw.contains('.') {
        if let Ok(v) = raw.parse::<f64>() {
            return Ok(Value::Float(v));
        }
    }
    if let Ok(v) = raw.parse::<i64>() {
        return Ok(Value::Int(v));
    }
    err(line, format!("unparseable value `{raw}`"))
}

/// Strip a `#` comment, respecting a single level of double quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_raw(text: &str) -> Result<RawScenario, ScenarioError> {
    #[derive(PartialEq)]
    enum Section {
        Root,
        Workload,
        Expect,
        Fault,
    }
    let mut raw = RawScenario::default();
    let mut section = Section::Root;
    for (idx, full_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(full_line).trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[faults]]" {
            raw.faults.push(Table::new());
            section = Section::Fault;
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = match name {
                "workload" => Section::Workload,
                "expect" => Section::Expect,
                other => return err(lineno, format!("unknown section `[{other}]`")),
            };
            continue;
        }
        let Some((key, val)) = line.split_once('=') else {
            return err(lineno, format!("expected `key = value`, got `{line}`"));
        };
        let key = key.trim().to_string();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return err(lineno, format!("invalid key `{key}`"));
        }
        let value = parse_value(val, lineno)?;
        let table = match section {
            Section::Root => &mut raw.root,
            Section::Workload => &mut raw.workload,
            Section::Expect => &mut raw.expect,
            Section::Fault => raw.faults.last_mut().expect("section implies entry"),
        };
        if table.insert(key.clone(), (value, lineno)).is_some() {
            return err(lineno, format!("duplicate key `{key}`"));
        }
    }
    Ok(raw)
}

// ---- typed extraction ----------------------------------------------------

fn take_str(t: &mut Table, key: &str) -> Result<Option<String>, ScenarioError> {
    match t.remove(key) {
        None => Ok(None),
        Some((Value::Str(s), _)) => Ok(Some(s)),
        Some((v, line)) => err(
            line,
            format!("`{key}` must be a string, got {}", v.type_name()),
        ),
    }
}

fn take_u64(t: &mut Table, key: &str) -> Result<Option<u64>, ScenarioError> {
    match t.remove(key) {
        None => Ok(None),
        Some((Value::Int(v), line)) => {
            if v < 0 {
                err(line, format!("`{key}` must be non-negative"))
            } else {
                Ok(Some(v as u64))
            }
        }
        Some((v, line)) => err(
            line,
            format!("`{key}` must be an integer, got {}", v.type_name()),
        ),
    }
}

fn take_f64(t: &mut Table, key: &str) -> Result<Option<f64>, ScenarioError> {
    match t.remove(key) {
        None => Ok(None),
        Some((Value::Float(v), _)) => Ok(Some(v)),
        Some((Value::Int(v), _)) => Ok(Some(v as f64)),
        Some((v, line)) => err(
            line,
            format!("`{key}` must be a number, got {}", v.type_name()),
        ),
    }
}

fn take_bool(t: &mut Table, key: &str) -> Result<Option<bool>, ScenarioError> {
    match t.remove(key) {
        None => Ok(None),
        Some((Value::Bool(v), _)) => Ok(Some(v)),
        Some((v, line)) => err(
            line,
            format!("`{key}` must be true/false, got {}", v.type_name()),
        ),
    }
}

fn take_nodes(t: &mut Table, key: &str) -> Result<Option<Vec<u32>>, ScenarioError> {
    match t.remove(key) {
        None => Ok(None),
        Some((Value::IntList(vs), line)) => {
            let mut nodes = Vec::with_capacity(vs.len());
            for v in vs {
                if !(0..=u32::MAX as i64).contains(&v) {
                    return err(line, format!("`{key}` contains invalid node id {v}"));
                }
                nodes.push(v as u32);
            }
            Ok(Some(nodes))
        }
        Some((v, line)) => err(
            line,
            format!("`{key}` must be a node list, got {}", v.type_name()),
        ),
    }
}

fn require<T>(opt: Option<T>, key: &str) -> Result<T, ScenarioError> {
    opt.ok_or_else(|| ScenarioError(format!("missing required key `{key}`")))
}

fn reject_unknown(t: &Table, what: &str) -> Result<(), ScenarioError> {
    if let Some((key, (_, line))) = t.iter().next() {
        return err(*line, format!("unknown {what} key `{key}`"));
    }
    Ok(())
}

fn take_prob(t: &mut Table, key: &str, line_hint: usize) -> Result<f64, ScenarioError> {
    let p = require(take_f64(t, key)?, key)?;
    if !(0.0..=1.0).contains(&p) {
        return err(line_hint, format!("`{key}` must be in [0, 1], got {p}"));
    }
    Ok(p)
}

fn parse_fault(mut t: Table, index: usize) -> Result<FaultEvent, ScenarioError> {
    // Best line for errors that aren't tied to a present key.
    let line_hint = t.values().map(|&(_, l)| l).min().unwrap_or(0);
    let at_ms = require(take_u64(&mut t, "at_ms")?, "at_ms")
        .map_err(|_| ScenarioError(format!("fault #{}: missing `at_ms`", index + 1)))?;
    let kind = require(take_str(&mut t, "kind")?, "kind")
        .map_err(|_| ScenarioError(format!("fault #{}: missing `kind`", index + 1)))?;
    let fault = match kind.as_str() {
        "partition" => {
            let a = require(take_nodes(&mut t, "a")?, "a")?;
            let b = require(take_nodes(&mut t, "b")?, "b")?;
            if a.is_empty() || b.is_empty() {
                return err(line_hint, "partition groups must be non-empty");
            }
            if a.iter().any(|n| b.contains(n)) {
                return err(line_hint, "partition groups must be disjoint");
            }
            Fault::Partition { a, b }
        }
        "asym_partition" => {
            let a = require(take_nodes(&mut t, "a")?, "a")?;
            let b = require(take_nodes(&mut t, "b")?, "b")?;
            if a.is_empty() || b.is_empty() {
                return err(line_hint, "asym_partition groups must be non-empty");
            }
            if a.iter().any(|n| b.contains(n)) {
                return err(line_hint, "asym_partition groups must be disjoint");
            }
            Fault::AsymmetricPartition { a, b }
        }
        "heal" => Fault::Heal,
        "crash" => Fault::Crash(require(take_u64(&mut t, "node")?, "node")? as u32),
        "restart" => Fault::Restart(require(take_u64(&mut t, "node")?, "node")? as u32),
        "flaky" => Fault::Flaky {
            from: require(take_u64(&mut t, "from")?, "from")? as u32,
            to: require(take_u64(&mut t, "to")?, "to")? as u32,
            p: take_prob(&mut t, "p", line_hint)?,
        },
        "clear_flaky" => Fault::ClearFlaky,
        "slow" => Fault::Slow {
            node: require(take_u64(&mut t, "node")?, "node")? as u32,
            extra: SimDuration::from_micros(require(take_u64(&mut t, "extra_us")?, "extra_us")?),
        },
        "clear_slow" => Fault::ClearSlow,
        "drop_rate" => Fault::DropRate(take_prob(&mut t, "p", line_hint)?),
        "storm" => {
            let count = require(take_u64(&mut t, "count")?, "count")?;
            if count == 0 || count > 100_000 {
                return err(line_hint, "storm `count` must be in 1..=100000");
            }
            Fault::Storm {
                target: require(take_u64(&mut t, "target")?, "target")? as u32,
                count: count as u32,
            }
        }
        "crash_loop" => {
            let count = require(take_u64(&mut t, "count")?, "count")?;
            if count == 0 || count > 1000 {
                return err(line_hint, "crash_loop `count` must be in 1..=1000");
            }
            let period_ms = require(take_u64(&mut t, "period_ms")?, "period_ms")?;
            if period_ms == 0 {
                return err(line_hint, "crash_loop `period_ms` must be positive");
            }
            Fault::CrashLoop {
                node: require(take_u64(&mut t, "node")?, "node")? as u32,
                period: SimDuration::from_millis(period_ms),
                count: count as u32,
            }
        }
        other => return err(line_hint, format!("unknown fault kind `{other}`")),
    };
    reject_unknown(&t, "fault")?;
    Ok(FaultEvent {
        at: SimDuration::from_millis(at_ms),
        fault,
    })
}

/// Parse a scenario file.
///
/// Accepts the TOML subset documented in the [module docs](self):
/// `key = value` pairs, `[workload]` / `[expect]` sections, and
/// `[[faults]]` array entries; values are strings, integers, floats,
/// booleans, and single-line integer lists. Unknown keys, unknown
/// sections, and out-of-range values are hard errors — the corpus is
/// linted by exactly this function.
pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
    let raw = parse_raw(text)?;
    let mut root = raw.root;

    let name = require(take_str(&mut root, "name")?, "name")?;
    if name.is_empty() {
        return Err(ScenarioError("`name` must be non-empty".into()));
    }
    let protocol = require(take_str(&mut root, "protocol")?, "protocol")?;
    if !matches!(protocol.as_str(), "paxos" | "pigpaxos" | "epaxos") {
        return Err(ScenarioError(format!(
            "unknown protocol `{protocol}` (expected paxos | pigpaxos | epaxos)"
        )));
    }
    let replicas = require(take_u64(&mut root, "replicas")?, "replicas")? as usize;
    if replicas == 0 {
        return Err(ScenarioError("`replicas` must be positive".into()));
    }
    let clients = require(take_u64(&mut root, "clients")?, "clients")? as usize;
    let groups = take_u64(&mut root, "groups")?.map(|g| g as usize);
    if let Some(g) = groups {
        if g == 0 || g > replicas {
            return Err(ScenarioError(format!(
                "`groups` must be in 1..=replicas, got {g}"
            )));
        }
    }
    let topology = match take_str(&mut root, "topology")?.as_deref() {
        None | Some("lan") => TopologyKind::Lan,
        Some("wan") => TopologyKind::Wan,
        Some(other) => {
            return Err(ScenarioError(format!(
                "unknown topology `{other}` (expected lan | wan)"
            )))
        }
    };
    let pipeline = take_u64(&mut root, "pipeline")?.unwrap_or(1) as usize;
    if pipeline == 0 {
        return Err(ScenarioError("`pipeline` must be positive".into()));
    }
    let seed = take_u64(&mut root, "seed")?.unwrap_or(crate::harness::DEFAULT_SEED);
    let warmup = SimDuration::from_millis(take_u64(&mut root, "warmup_ms")?.unwrap_or(500));
    let measure = SimDuration::from_millis(take_u64(&mut root, "measure_ms")?.unwrap_or(3000));
    let drain = SimDuration::from_millis(take_u64(&mut root, "drain_ms")?.unwrap_or(0));
    let retry_timeout = take_u64(&mut root, "retry_timeout_ms")?.map(SimDuration::from_millis);
    let quick = take_bool(&mut root, "quick")?.unwrap_or(true);
    reject_unknown(&root, "scenario")?;

    let mut wl_table = raw.workload;
    let mut workload = Workload::paper_default();
    if let Some(r) = take_f64(&mut wl_table, "read_ratio")? {
        if !(0.0..=1.0).contains(&r) {
            return Err(ScenarioError(format!(
                "`read_ratio` must be in [0, 1], got {r}"
            )));
        }
        workload.read_ratio = r;
    }
    if let Some(p) = take_u64(&mut wl_table, "payload")? {
        workload.payload_size = p as usize;
    }
    if let Some(k) = take_u64(&mut wl_table, "keys")? {
        if k == 0 {
            return Err(ScenarioError("`keys` must be positive".into()));
        }
        workload.num_keys = k;
    }
    if let Some(theta) = take_f64(&mut wl_table, "zipf")? {
        workload.distribution = KeyDistribution::Zipfian(theta);
    }
    reject_unknown(&wl_table, "workload")?;

    let mut expect_table = raw.expect;
    let expect = Expectations {
        converged: take_bool(&mut expect_table, "converged")?,
        min_throughput: take_f64(&mut expect_table, "min_throughput")?,
        max_client_retries: take_u64(&mut expect_table, "max_client_retries")?,
        min_samples: take_u64(&mut expect_table, "min_samples")?,
    };
    reject_unknown(&expect_table, "expect")?;

    let mut faults = Vec::with_capacity(raw.faults.len());
    for (i, table) in raw.faults.into_iter().enumerate() {
        faults.push(parse_fault(table, i)?);
    }

    let scenario = Scenario {
        name,
        protocol,
        replicas,
        groups,
        topology,
        clients,
        pipeline,
        seed,
        warmup,
        measure,
        drain,
        retry_timeout,
        workload,
        faults,
        expect,
        quick,
    };
    scenario.validate()?;
    Ok(scenario)
}

impl Scenario {
    /// Cross-field validation: every fault must reference nodes inside
    /// the cluster and fire within the run (warmup + measure).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let n = self.replicas as u32;
        let horizon = self.warmup + self.measure;
        let check_node = |node: u32, what: &str| {
            if node >= n {
                return Err(ScenarioError(format!(
                    "scenario `{}`: {what} node {node} outside cluster of {n}",
                    self.name
                )));
            }
            Ok(())
        };
        for (i, ev) in self.faults.iter().enumerate() {
            if ev.at >= horizon {
                return Err(ScenarioError(format!(
                    "scenario `{}`: fault #{} at {} fires after the run ends ({})",
                    self.name,
                    i + 1,
                    ev.at,
                    horizon
                )));
            }
            match &ev.fault {
                Fault::Partition { a, b } | Fault::AsymmetricPartition { a, b } => {
                    for &x in a.iter().chain(b.iter()) {
                        check_node(x, "partition")?;
                    }
                }
                Fault::Crash(node) | Fault::Restart(node) => check_node(*node, "crash/restart")?,
                Fault::Flaky { from, to, .. } => {
                    check_node(*from, "flaky")?;
                    check_node(*to, "flaky")?;
                }
                Fault::Slow { node, .. } => check_node(*node, "slow")?,
                Fault::Storm { target, .. } => check_node(*target, "storm")?,
                Fault::CrashLoop {
                    node,
                    period,
                    count,
                } => {
                    check_node(*node, "crash_loop")?;
                    // The last recovery must land inside the run too.
                    let last = ev.at + *period * (*count as u64 - 1) + *period / 2;
                    if last >= horizon {
                        return Err(ScenarioError(format!(
                            "scenario `{}`: fault #{} crash_loop ends at {last} \
                             after the run ends ({horizon})",
                            self.name,
                            i + 1,
                        )));
                    }
                }
                Fault::Heal | Fault::ClearFlaky | Fault::ClearSlow | Fault::DropRate(_) => {}
            }
        }
        if self.expect.converged == Some(true) && self.drain == SimDuration::ZERO {
            return Err(ScenarioError(format!(
                "scenario `{}`: `converged = true` requires `drain_ms > 0`",
                self.name
            )));
        }
        Ok(())
    }

    /// Run this scenario with `proto` on the simulator: a
    /// [`Nemesis`] in the one extra client slot executes the fault
    /// schedule, and the clients' history is checked for
    /// linearizability ([`crate::ClientResult::history`]). The message
    /// trace is captured, so [`crate::TransportResult::trace`] carries
    /// the run's fingerprint.
    pub fn run_sim<P: ProtocolSpec>(&self, proto: P) -> (RunResult, NemesisLog) {
        let mut exp = match self.topology {
            TopologyKind::Lan => Experiment::lan(proto, self.replicas),
            TopologyKind::Wan => Experiment::wan(proto, self.replicas),
        }
        .clients(self.clients)
        .client_pipeline(self.pipeline)
        .workload(self.workload.clone())
        .warmup(self.warmup)
        .measure(self.measure)
        .drain(self.drain)
        .extra_client_nodes(1)
        .check_linearizability()
        .capture_trace();
        if let Some(t) = self.retry_timeout {
            exp = exp.retry_timeout(t);
        }
        let log = NemesisLog::new();
        let (faults, nemesis_log) = (self.faults.clone(), log.clone());
        let result = exp.run_sim_with(self.seed, move |sim| {
            sim.add_actor(Box::new(Nemesis::<P::Msg>::new(faults, nemesis_log)));
        });
        (result, log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
# A full-featured scenario.
name = "pig-partition-heal"   # trailing comment
protocol = "pigpaxos"
replicas = 7
groups = 2
topology = "lan"
clients = 10
seed = 42
warmup_ms = 500
measure_ms = 3000
drain_ms = 1500
retry_timeout_ms = 100

[workload]
read_ratio = 0.25
payload = 16
keys = 500

[[faults]]
at_ms = 1000
kind = "partition"
a = [0, 1, 2]
b = [3, 4, 5, 6]

[[faults]]
at_ms = 2000
kind = "heal"

[[faults]]
at_ms = 2200
kind = "storm"
target = 0
count = 50

[expect]
converged = true
min_throughput = 10.0
"#;

    #[test]
    fn full_scenario_round_trips() {
        let s = parse(FULL).expect("parses");
        assert_eq!(s.name, "pig-partition-heal");
        assert_eq!(s.protocol, "pigpaxos");
        assert_eq!(s.replicas, 7);
        assert_eq!(s.groups, Some(2));
        assert_eq!(s.topology, TopologyKind::Lan);
        assert_eq!(s.clients, 10);
        assert_eq!(s.seed, 42);
        assert_eq!(s.warmup, SimDuration::from_millis(500));
        assert_eq!(s.measure, SimDuration::from_millis(3000));
        assert_eq!(s.drain, SimDuration::from_millis(1500));
        assert_eq!(s.retry_timeout, Some(SimDuration::from_millis(100)));
        assert!((s.workload.read_ratio - 0.25).abs() < 1e-12);
        assert_eq!(s.workload.payload_size, 16);
        assert_eq!(s.workload.num_keys, 500);
        assert_eq!(s.faults.len(), 3);
        assert_eq!(
            s.faults[0],
            FaultEvent {
                at: SimDuration::from_millis(1000),
                fault: Fault::Partition {
                    a: vec![0, 1, 2],
                    b: vec![3, 4, 5, 6],
                },
            }
        );
        assert_eq!(s.faults[1].fault, Fault::Heal);
        assert_eq!(
            s.faults[2].fault,
            Fault::Storm {
                target: 0,
                count: 50
            }
        );
        assert_eq!(s.expect.converged, Some(true));
        assert_eq!(s.expect.min_throughput, Some(10.0));
        assert!(s.quick, "quick defaults to true");
    }

    #[test]
    fn minimal_scenario_uses_defaults() {
        let s = parse("name = \"tiny\"\nprotocol = \"paxos\"\nreplicas = 3\nclients = 2\n")
            .expect("parses");
        assert_eq!(s.topology, TopologyKind::Lan);
        assert_eq!(s.pipeline, 1);
        assert_eq!(s.seed, crate::harness::DEFAULT_SEED);
        assert_eq!(s.warmup, SimDuration::from_millis(500));
        assert_eq!(s.measure, SimDuration::from_millis(3000));
        assert_eq!(s.drain, SimDuration::ZERO);
        assert_eq!(s.retry_timeout, None);
        assert!(s.faults.is_empty());
        assert_eq!(s.expect, Expectations::default());
    }

    #[test]
    fn all_fault_kinds_parse() {
        let text = r#"
name = "kinds"
protocol = "epaxos"
replicas = 5
clients = 1
measure_ms = 10000

[[faults]]
at_ms = 1
kind = "crash"
node = 0

[[faults]]
at_ms = 2
kind = "restart"
node = 0

[[faults]]
at_ms = 3
kind = "flaky"
from = 1
to = 2
p = 0.5

[[faults]]
at_ms = 4
kind = "clear_flaky"

[[faults]]
at_ms = 5
kind = "slow"
node = 3
extra_us = 250

[[faults]]
at_ms = 6
kind = "clear_slow"

[[faults]]
at_ms = 7
kind = "drop_rate"
p = 0.01
"#;
        let s = parse(text).expect("parses");
        assert_eq!(s.faults.len(), 7);
        assert_eq!(s.faults[0].fault, Fault::Crash(0));
        assert_eq!(s.faults[1].fault, Fault::Restart(0));
        assert_eq!(
            s.faults[2].fault,
            Fault::Flaky {
                from: 1,
                to: 2,
                p: 0.5
            }
        );
        assert_eq!(s.faults[3].fault, Fault::ClearFlaky);
        assert_eq!(
            s.faults[4].fault,
            Fault::Slow {
                node: 3,
                extra: SimDuration::from_micros(250)
            }
        );
        assert_eq!(s.faults[5].fault, Fault::ClearSlow);
        assert_eq!(s.faults[6].fault, Fault::DropRate(0.01));
    }

    #[test]
    fn asym_partition_parses_and_validates() {
        let text = r#"
name = "one-way"
protocol = "paxos"
replicas = 5
clients = 1
measure_ms = 4000

[[faults]]
at_ms = 100
kind = "asym_partition"
a = [0]
b = [3, 4]
"#;
        let s = parse(text).expect("parses");
        assert_eq!(
            s.faults[0].fault,
            Fault::AsymmetricPartition {
                a: vec![0],
                b: vec![3, 4]
            }
        );
        assert_rejects(
            "name = \"x\"\nprotocol = \"paxos\"\nreplicas = 3\nclients = 1\n\
             measure_ms = 4000\n\
             [[faults]]\nat_ms = 1\nkind = \"asym_partition\"\na = [0]\nb = [0, 1]\n",
            "disjoint",
        );
        assert_rejects(
            "name = \"x\"\nprotocol = \"paxos\"\nreplicas = 3\nclients = 1\n\
             measure_ms = 4000\n\
             [[faults]]\nat_ms = 1\nkind = \"asym_partition\"\na = [0]\nb = [7]\n",
            "outside cluster",
        );
    }

    #[test]
    fn crash_loop_parses() {
        let text = r#"
name = "loop"
protocol = "paxos"
replicas = 3
clients = 3
measure_ms = 4000
drain_ms = 500

[[faults]]
at_ms = 500
kind = "crash_loop"
node = 2
period_ms = 400
count = 3

[expect]
converged = true
"#;
        let s = parse(text).expect("parses");
        assert_eq!(
            s.faults[0].fault,
            Fault::CrashLoop {
                node: 2,
                period: SimDuration::from_millis(400),
                count: 3
            }
        );
        assert_eq!(s.expect.converged, Some(true));
    }

    #[test]
    fn crash_loop_rejections() {
        // Node 8 is outside a 3-replica cluster.
        assert_rejects(
            "name = \"x\"\nprotocol = \"paxos\"\nreplicas = 3\nclients = 1\n\
             measure_ms = 4000\n\
             [[faults]]\nat_ms = 1\nkind = \"crash_loop\"\nnode = 8\n\
             period_ms = 100\ncount = 2\n",
            "outside cluster",
        );
        // The loop's last recovery must land inside the run.
        assert_rejects(
            "name = \"x\"\nprotocol = \"paxos\"\nreplicas = 3\nclients = 1\n\
             measure_ms = 1000\nwarmup_ms = 0\n\
             [[faults]]\nat_ms = 100\nkind = \"crash_loop\"\nnode = 0\n\
             period_ms = 500\ncount = 3\n",
            "after the run ends",
        );
        assert_rejects(
            "name = \"x\"\nprotocol = \"paxos\"\nreplicas = 3\nclients = 1\n\
             [[faults]]\nat_ms = 1\nkind = \"crash_loop\"\nnode = 0\n\
             period_ms = 100\ncount = 0\n",
            "1..=1000",
        );
        // One consensus group per run: the retired key is unknown.
        assert_rejects(
            "name = \"x\"\nprotocol = \"paxos\"\nreplicas = 3\nshards = 2\nclients = 1\n",
            "unknown scenario key `shards`",
        );
    }

    fn assert_rejects(text: &str, needle: &str) {
        match parse(text) {
            Ok(_) => panic!("expected rejection mentioning `{needle}`"),
            Err(e) => assert!(
                e.0.contains(needle),
                "error `{}` should mention `{needle}`",
                e.0
            ),
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert_rejects("protocol = \"paxos\"\nreplicas = 3\nclients = 1\n", "name");
        assert_rejects(
            "name = \"x\"\nprotocol = \"raft\"\nreplicas = 3\nclients = 1\n",
            "raft",
        );
        assert_rejects(
            "name = \"x\"\nprotocol = \"paxos\"\nreplicas = 3\nclients = 1\nbogus = 1\n",
            "bogus",
        );
        assert_rejects(
            "name = \"x\"\nprotocol = \"paxos\"\nreplicas = 3\nclients = 1\n[weird]\n",
            "weird",
        );
        assert_rejects("name = \"x\"\nname = \"y\"\n", "duplicate");
        assert_rejects("just nonsense\n", "key = value");
        assert_rejects(
            "name = \"x\"\nprotocol = \"paxos\"\nreplicas = 3\nclients = 1\n\
             [[faults]]\nat_ms = 1\nkind = \"meteor\"\n",
            "meteor",
        );
        // Fault on a node outside the cluster.
        assert_rejects(
            "name = \"x\"\nprotocol = \"paxos\"\nreplicas = 3\nclients = 1\n\
             [[faults]]\nat_ms = 1\nkind = \"crash\"\nnode = 9\n",
            "outside cluster",
        );
        // Fault scheduled after the run.
        assert_rejects(
            "name = \"x\"\nprotocol = \"paxos\"\nreplicas = 3\nclients = 1\n\
             measure_ms = 100\nwarmup_ms = 0\n\
             [[faults]]\nat_ms = 5000\nkind = \"heal\"\n",
            "after the run ends",
        );
        // Probability out of range.
        assert_rejects(
            "name = \"x\"\nprotocol = \"paxos\"\nreplicas = 3\nclients = 1\n\
             [[faults]]\nat_ms = 1\nkind = \"drop_rate\"\np = 1.5\n",
            "[0, 1]",
        );
        // Overlapping partition groups.
        assert_rejects(
            "name = \"x\"\nprotocol = \"paxos\"\nreplicas = 3\nclients = 1\n\
             [[faults]]\nat_ms = 1\nkind = \"partition\"\na = [0, 1]\nb = [1, 2]\n",
            "disjoint",
        );
        // converged=true without a drain phase cannot be checked.
        assert_rejects(
            "name = \"x\"\nprotocol = \"paxos\"\nreplicas = 3\nclients = 1\n\
             [expect]\nconverged = true\n",
            "drain_ms",
        );
    }

    #[test]
    fn comments_and_whitespace_are_tolerated() {
        let s = parse(
            "  # header\n\nname = \"x\" # inline\nprotocol = \"paxos\"\n\
             replicas = 3\n  clients = 1  \n",
        )
        .expect("parses");
        assert_eq!(s.name, "x");
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let s = parse("name = \"x#1\"\nprotocol = \"paxos\"\nreplicas = 3\nclients = 1\n")
            .expect("parses");
        assert_eq!(s.name, "x#1");
    }
}
