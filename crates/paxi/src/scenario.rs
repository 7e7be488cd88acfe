//! Declarative chaos scenarios: one file = one experiment point on the
//! protocol × topology × workload × fault-schedule matrix.
//!
//! A scenario file is a small TOML document (parsed by a self-contained
//! subset parser — no external dependency) naming a protocol, a
//! cluster shape, a client population, a fault schedule and
//! expectations the run must meet. The parser expands each fault into
//! the timed [`Fault`]s it stands for, and [`Scenario::run_sim`] hands
//! them to [`Experiment::fault`]; every run also checks that what the
//! clients saw is linearizable. The checked-in corpus under
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
//! Fault kinds, their fields and the timed faults they expand to:
//!
//! | kind | fields | faults |
//! |---|---|---|
//! | `partition` | `a`, `b` (node lists) | `BlockLink` both ways for every pair in `a × b` |
//! | `asym_partition` | `a`, `b` (node lists) | `BlockLink` `a → b` only; `b → a` keeps flowing |
//! | `heal` | — | `HealAllLinks` |
//! | `crash` | `node` | `Crash` |
//! | `restart` | `node` | `Recover` |
//! | `flaky` | `from`, `to`, `p` | `FlakyLink`: drop each `from → to` message with probability `p` |
//! | `clear_flaky` | — | `ClearFlakyLinks` |
//! | `slow` | `node`, `extra_us` | `SlowNode`: inflate the node's send/receive latency |
//! | `clear_slow` | — | `ClearSlowNodes` |
//! | `drop_rate` | `p` | `SetDropRate`: uniform drop probability on every link |
//! | `storm` | `target`, `count` | [`Fault::Storm`]: a burst of `count` junk requests at `target` |
//! | `crash_loop` | `node`, `period_ms`, `count` | `count` × (`Crash`, then `Recover` half a period later), a period apart |

use crate::experiment::{Experiment, ProtocolSpec};
use crate::harness::RunResult;
use crate::workload::{KeyDistribution, Workload};
use simnet::{Control, NodeId, SimDuration};
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

/// A fault a run injects at an offset from its start (see
/// [`Experiment::fault`]): a [`Control`] the simulator applies, or a
/// storm, the one fault that has to send messages.
#[derive(Debug, Clone, Copy)]
pub enum Fault {
    /// A crash, a recovery, a blocked, healed, flaky or slow link, a drop
    /// rate: anything the network itself does.
    Control(Control),
    /// Burst `count` junk read requests at `target` in one handler
    /// invocation (a message storm from a misbehaving client).
    Storm {
        /// Node the burst is aimed at.
        target: NodeId,
        /// Number of requests in the burst.
        count: u32,
    },
}

impl From<Control> for Fault {
    fn from(c: Control) -> Self {
        Fault::Control(c)
    }
}

impl Fault {
    /// The nodes this fault names.
    fn nodes(&self) -> [Option<NodeId>; 2] {
        match *self {
            Fault::Control(Control::Crash(n) | Control::Recover(n) | Control::SlowNode(n, _))
            | Fault::Storm { target: n, .. } => [Some(n), None],
            Fault::Control(Control::BlockLink(a, b) | Control::FlakyLink(a, b, _)) => {
                [Some(a), Some(b)]
            }
            Fault::Control(
                Control::HealAllLinks
                | Control::SetDropRate(_)
                | Control::ClearFlakyLinks
                | Control::ClearSlowNodes,
            ) => [None, None],
        }
    }
}

/// The timed faults one `[[faults]]` table stands for, in the order they
/// are scheduled: one for most kinds, one per blocked link for a
/// partition, one per crash and per recovery for a crash loop.
pub type FaultEntry = Vec<(SimDuration, Fault)>;

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
/// [`crate::Experiment`], schedule its faults, run, and judge the result.
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
    /// The fault schedule: one entry per `[[faults]]` table, in file
    /// order.
    pub faults: Vec<FaultEntry>,
    /// Post-run checks.
    pub expect: Expectations,
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

fn take_node(t: &mut Table, key: &str) -> Result<NodeId, ScenarioError> {
    Ok(NodeId(require(take_u64(t, key)?, key)? as u32))
}

/// `a` and `b` of a partition: non-empty, disjoint node lists.
fn take_sides(t: &mut Table, kind: &str, line: usize) -> Result<[Vec<u32>; 2], ScenarioError> {
    let a = require(take_nodes(t, "a")?, "a")?;
    let b = require(take_nodes(t, "b")?, "b")?;
    if a.is_empty() || b.is_empty() {
        return err(line, format!("{kind} groups must be non-empty"));
    }
    if a.iter().any(|n| b.contains(n)) {
        return err(line, format!("{kind} groups must be disjoint"));
    }
    Ok([a, b])
}

/// One `[[faults]]` table, expanded into the timed faults it stands for.
fn parse_fault(mut t: Table, index: usize) -> Result<FaultEntry, ScenarioError> {
    // Best line for errors that aren't tied to a present key.
    let line_hint = t.values().map(|&(_, l)| l).min().unwrap_or(0);
    let at_ms = require(take_u64(&mut t, "at_ms")?, "at_ms")
        .map_err(|_| ScenarioError(format!("fault #{}: missing `at_ms`", index + 1)))?;
    let kind = require(take_str(&mut t, "kind")?, "kind")
        .map_err(|_| ScenarioError(format!("fault #{}: missing `kind`", index + 1)))?;
    let at = SimDuration::from_millis(at_ms);
    let now = |c: Control| vec![(at, Fault::Control(c))];
    let entry = match kind.as_str() {
        // Every link between the sides is blocked: for each `x` in `a`
        // and `y` in `b`, `x → y` and (not for `asym_partition`, which
        // keeps `b → a` flowing) `y → x`. `heal` clears both kinds.
        "partition" | "asym_partition" => {
            let [a, b] = take_sides(&mut t, &kind, line_hint)?;
            let link = |x, y| (at, Control::BlockLink(NodeId(x), NodeId(y)).into());
            let mut links = Vec::new();
            for &x in &a {
                for &y in &b {
                    links.push(link(x, y));
                    if kind == "partition" {
                        links.push(link(y, x));
                    }
                }
            }
            links
        }
        "heal" => now(Control::HealAllLinks),
        "crash" => now(Control::Crash(take_node(&mut t, "node")?)),
        "restart" => now(Control::Recover(take_node(&mut t, "node")?)),
        "flaky" => {
            let (from, to) = (take_node(&mut t, "from")?, take_node(&mut t, "to")?);
            let p = take_prob(&mut t, "p", line_hint)?;
            now(Control::FlakyLink(from, to, p))
        }
        "clear_flaky" => now(Control::ClearFlakyLinks),
        "slow" => {
            let node = take_node(&mut t, "node")?;
            let extra = require(take_u64(&mut t, "extra_us")?, "extra_us")?;
            now(Control::SlowNode(node, SimDuration::from_micros(extra)))
        }
        "clear_slow" => now(Control::ClearSlowNodes),
        "drop_rate" => now(Control::SetDropRate(take_prob(&mut t, "p", line_hint)?)),
        "storm" => {
            let count = require(take_u64(&mut t, "count")?, "count")?;
            if count == 0 || count > 100_000 {
                return err(line_hint, "storm `count` must be in 1..=100000");
            }
            let (target, count) = (take_node(&mut t, "target")?, count as u32);
            vec![(at, Fault::Storm { target, count })]
        }
        // Crash at `at`, recover half a period later, crash again a full
        // period after the last crash, `count` times: the node ends the
        // loop recovered.
        "crash_loop" => {
            let count = require(take_u64(&mut t, "count")?, "count")?;
            if count == 0 || count > 1000 {
                return err(line_hint, "crash_loop `count` must be in 1..=1000");
            }
            let period_ms = require(take_u64(&mut t, "period_ms")?, "period_ms")?;
            if period_ms == 0 {
                return err(line_hint, "crash_loop `period_ms` must be positive");
            }
            let node = take_node(&mut t, "node")?;
            let half = SimDuration::from_millis(period_ms) / 2;
            let cycle = [Control::Crash(node), Control::Recover(node)];
            (0..2 * count)
                .map(|k| (at + half * k, cycle[k as usize % 2].into()))
                .collect()
        }
        other => return err(line_hint, format!("unknown fault kind `{other}`")),
    };
    reject_unknown(&t, "fault")?;
    Ok(entry)
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
    };
    scenario.validate()?;
    Ok(scenario)
}

impl Scenario {
    /// Cross-field validation: every fault must name nodes inside the
    /// cluster and fire within the run (warmup + measure).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let n = self.replicas as u32;
        let horizon = self.warmup + self.measure;
        for (i, entry) in self.faults.iter().enumerate() {
            for (at, fault) in entry {
                if let Some(node) = fault.nodes().into_iter().flatten().find(|x| x.0 >= n) {
                    return Err(ScenarioError(format!(
                        "scenario `{}`: fault #{} names node {} outside cluster of {n}",
                        self.name,
                        i + 1,
                        node.0
                    )));
                }
                if *at >= horizon {
                    return Err(ScenarioError(format!(
                        "scenario `{}`: fault #{} has {fault:?} at {at}, after the run ends \
                         ({horizon})",
                        self.name,
                        i + 1,
                    )));
                }
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

    /// The number of timed faults the schedule expands to: what
    /// [`crate::TransportResult::faults_applied`] counts when every
    /// one of them took effect.
    pub fn scheduled_faults(&self) -> u64 {
        self.faults.iter().map(|e| e.len() as u64).sum()
    }

    /// Run this scenario with `proto` on the simulator, each fault of
    /// its schedule handed to [`Experiment::fault`], and the clients'
    /// history checked for linearizability
    /// ([`crate::ClientResult::history`]). The message trace is
    /// captured, so [`crate::TransportResult::trace`] carries the run's
    /// fingerprint.
    pub fn run_sim<P: ProtocolSpec>(&self, proto: P) -> RunResult {
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
        .check_linearizability()
        .capture_trace();
        if let Some(t) = self.retry_timeout {
            exp = exp.retry_timeout(t);
        }
        for (at, fault) in self.faults.iter().flatten() {
            exp = exp.fault(*at, *fault);
        }
        exp.run_sim(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `v` prints: faults compare by their `Debug` form.
    fn shown<T: fmt::Debug>(v: T) -> String {
        format!("{v:?}")
    }

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
        assert_eq!(s.faults.len(), 3, "one entry per table");
        let ms = SimDuration::from_millis;
        let link = |x, y| {
            (
                ms(1000),
                Fault::Control(Control::BlockLink(NodeId(x), NodeId(y))),
            )
        };
        assert_eq!(s.faults[0].len(), 2 * 3 * 4, "both ways for every pair");
        assert_eq!(
            shown(&s.faults[0][..3]),
            shown([link(0, 3), link(3, 0), link(0, 4)])
        );
        let heal = Fault::Control(Control::HealAllLinks);
        assert_eq!(shown(&s.faults[1]), shown([(ms(2000), heal)]));
        assert_eq!(
            shown(&s.faults[2]),
            shown([(
                ms(2200),
                Fault::Storm {
                    target: NodeId(0),
                    count: 50
                }
            )])
        );
        assert_eq!(s.scheduled_faults(), 24 + 1 + 1);
        assert_eq!(s.expect.converged, Some(true));
        assert_eq!(s.expect.min_throughput, Some(10.0));
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
        let faults: Vec<_> = s.faults.iter().flatten().collect();
        let at = |ms, c: Control| (SimDuration::from_millis(ms), Fault::Control(c));
        assert_eq!(
            shown(faults),
            shown([
                at(1, Control::Crash(NodeId(0))),
                at(2, Control::Recover(NodeId(0))),
                at(3, Control::FlakyLink(NodeId(1), NodeId(2), 0.5)),
                at(4, Control::ClearFlakyLinks),
                at(
                    5,
                    Control::SlowNode(NodeId(3), SimDuration::from_micros(250))
                ),
                at(6, Control::ClearSlowNodes),
                at(7, Control::SetDropRate(0.01)),
            ])
        );
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
        let one_way = |y| {
            let c = Control::BlockLink(NodeId(0), NodeId(y));
            (SimDuration::from_millis(100), Fault::Control(c))
        };
        assert_eq!(
            shown(&s.faults),
            shown([vec![one_way(3), one_way(4)]]),
            "only a → b"
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
        assert_eq!(s.faults.len(), 1);
        assert_eq!(s.faults[0].len(), 6, "three crashes, three recoveries");
        assert_eq!(s.expect.converged, Some(true));
    }

    #[test]
    fn crash_loop_expands_to_alternating_crash_and_recover() {
        let s = parse(include_str!(
            "../../../scenarios/paxos_leader_crash_loop.toml"
        ))
        .expect("parses");
        let want: Vec<_> = (0..8)
            .map(|k| {
                let c = if k % 2 == 0 {
                    Control::Crash(NodeId(0))
                } else {
                    Control::Recover(NodeId(0))
                };
                (SimDuration::from_millis(800 + 300 * k), Fault::Control(c))
            })
            .collect();
        assert_eq!(
            shown(&s.faults),
            shown([want]),
            "Recover(0) at 2 900 ms is the last"
        );
    }

    #[test]
    fn partition_expands_to_block_links_both_ways() {
        let s = parse(
            "name = \"x\"\nprotocol = \"paxos\"\nreplicas = 3\nclients = 1\n\
             [[faults]]\nat_ms = 10\nkind = \"partition\"\na = [0, 1]\nb = [2]\n\
             [[faults]]\nat_ms = 20\nkind = \"heal\"\n",
        )
        .expect("parses");
        let at = |ms, c: Control| (SimDuration::from_millis(ms), Fault::Control(c));
        let link = |x, y| at(10, Control::BlockLink(NodeId(x), NodeId(y)));
        assert_eq!(
            shown(&s.faults),
            shown([
                vec![link(0, 2), link(2, 0), link(1, 2), link(2, 1)],
                vec![at(20, Control::HealAllLinks)],
            ])
        );
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
        // Every scenario runs in every mode: there is no `quick` key.
        assert_rejects(
            "name = \"x\"\nprotocol = \"paxos\"\nreplicas = 3\nclients = 1\nquick = false\n",
            "unknown scenario key `quick`",
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
