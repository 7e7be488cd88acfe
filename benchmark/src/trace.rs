//! Spans around every handler call, recorded from outside the program.
//!
//! [`Traced`] wraps any replica or client actor on either substrate. It
//! runs the inner handler against a captured effect buffer, notes when
//! the call started and ended, counts what it sent, and re-emits the
//! effects untouched, so a traced run takes the same decisions as an
//! untraced one. Spans of one client request share its [`RequestId`]
//! wherever the message carries it (or carries a slot that an earlier
//! `p2a` on the same node tied to a request). Spans stay in memory; the
//! harness summarises them after the run and writes them to a file.

use crate::Msg;
use paxi::{Envelope, RequestId};
use paxos::PaxosMsg;
use pigpaxos::PigMsg;
use simnet::{Actor, Context, Effect, Message, NodeId, TimerId};
use std::collections::HashMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Slots remembered per node for tying a `p2b` back to its request.
const SLOT_MEMORY: u64 = 8192;
/// Spans written to the trace file; a saturating run records millions.
const DUMP_LIMIT: usize = 200_000;

/// One handler call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Label of the message handled, or `"timer"`.
    pub label: &'static str,
    /// Wall-clock nanoseconds since the trace epoch.
    pub start: u64,
    pub end: u64,
    /// The substrate's clock when the handler ran (simulated time on the
    /// simulator): decides whether the span is in the measured window.
    pub at: u64,
    pub req: Option<RequestId>,
    pub out_msgs: u32,
    pub out_bytes: u64,
}

/// A message sent from within a span, kept when it belongs to a request.
#[derive(Debug, Clone, Copy)]
pub struct Emit {
    pub span: u32,
    pub label: &'static str,
    pub to: NodeId,
    pub req: RequestId,
}

#[derive(Debug, Default)]
pub struct NodeTrace {
    pub spans: Vec<Span>,
    pub emits: Vec<Emit>,
}

pub type Sink = Arc<Mutex<NodeTrace>>;

pub struct Traced<A> {
    inner: A,
    sink: Sink,
    epoch: Instant,
    slots: HashMap<u64, RequestId>,
}

impl<A: Actor<Msg>> Traced<A> {
    pub fn new(inner: A, epoch: Instant) -> (Self, Sink) {
        let sink = Sink::default();
        let traced = Traced {
            inner,
            sink: sink.clone(),
            epoch,
            slots: HashMap::new(),
        };
        (traced, sink)
    }

    /// The client request a message belongs to, if it says.
    fn request_of(&mut self, msg: &Msg) -> Option<RequestId> {
        let proto = match msg {
            Envelope::Request(r) => return Some(r.command.id),
            Envelope::Reply(r) => return Some(r.id),
            Envelope::ReplyBatch(rs) => return rs.first().map(|r| r.id),
            Envelope::Shard(_) => return None,
            Envelope::Proto(PigMsg::ToRelay { inner, .. } | PigMsg::Direct(inner)) => inner,
        };
        match proto {
            PaxosMsg::P2a { slot, command, .. } => {
                self.slots.insert(*slot, command.id);
                self.slots.remove(&slot.wrapping_sub(SLOT_MEMORY));
                Some(command.id)
            }
            PaxosMsg::P2b { slot, .. } => self.slots.get(slot).copied(),
            _ => None,
        }
    }

    fn record(
        &mut self,
        label: &'static str,
        req: Option<RequestId>,
        ctx: &mut Context<Msg>,
        call: impl FnOnce(&mut A, &mut Context<Msg>),
    ) {
        let at = ctx.now().as_nanos();
        let start = self.epoch.elapsed().as_nanos() as u64;
        let ((), effects) = ctx.capture(|inner_ctx| call(&mut self.inner, inner_ctx));
        let end = self.epoch.elapsed().as_nanos() as u64;

        let mut span = Span {
            label,
            start,
            end,
            at,
            req,
            out_msgs: 0,
            out_bytes: 0,
        };
        let mut emits = Vec::new();
        for effect in effects {
            if let Effect::Send { to, msg } = &effect {
                span.out_msgs += 1;
                span.out_bytes += msg.wire_size() as u64;
                if let Some(req) = self.request_of(msg) {
                    emits.push((msg.label(), *to, req));
                }
            }
            ctx.emit(effect);
        }
        let mut sink = self.sink.lock().expect("trace sink");
        let index = sink.spans.len() as u32;
        sink.spans.push(span);
        sink.emits
            .extend(emits.into_iter().map(|(label, to, req)| Emit {
                span: index,
                label,
                to,
                req,
            }));
    }
}

impl<A: Actor<Msg>> Actor<Msg> for Traced<A> {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Context<Msg>) {
        let label = msg.label();
        let req = self.request_of(&msg);
        self.record(label, req, ctx, |inner, c| inner.on_message(from, msg, c));
    }

    fn on_timer(&mut self, id: TimerId, kind: u64, ctx: &mut Context<Msg>) {
        self.record("timer", None, ctx, |inner, c| inner.on_timer(id, kind, c));
    }

    fn state_digest(&self) -> Option<u64> {
        self.inner.state_digest()
    }
}

/// Take the traces out of their sinks once the run has ended.
pub fn collect(sinks: &[Sink]) -> Vec<NodeTrace> {
    sinks
        .iter()
        .map(|s| std::mem::take(&mut *s.lock().expect("trace sink")))
        .collect()
}

/// Sums over the spans of one role inside the measured window.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoleTotals {
    pub handler_ns: u64,
    pub msgs_in: u64,
    pub msgs_out: u64,
}

/// Roles are assigned by the work done, because relays rotate: the
/// leader is node 0's handlers, a relay is whoever handles `to_relay`
/// or (not being the leader) `p2b`, a follower whoever handles `p2a`.
pub fn role_totals(
    traces: &[NodeTrace],
    replicas: usize,
    window: (u64, u64),
) -> (RoleTotals, RoleTotals, RoleTotals) {
    let (mut leader, mut relay, mut follower) = <(RoleTotals, RoleTotals, RoleTotals)>::default();
    for (node, trace) in traces.iter().enumerate().take(replicas) {
        for s in &trace.spans {
            if s.at < window.0 || s.at >= window.1 {
                continue;
            }
            let role = match (node, s.label) {
                (0, _) => &mut leader,
                (_, "to_relay" | "p2b") => &mut relay,
                (_, "p2a") => &mut follower,
                _ => continue,
            };
            role.handler_ns += s.end - s.start;
            role.msgs_in += (s.label != "timer") as u64;
            role.msgs_out += s.out_msgs as u64;
        }
    }
    (leader, relay, follower)
}

/// Medians, in microseconds, of the steps one request waits for in turn.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stages {
    pub client_to_leader: f64,
    pub leader_commit: f64,
    pub relay_round: f64,
    pub leader_to_client: f64,
    pub requests: usize,
}

/// Follow each request of the measured window through the spans: the
/// client sends it, the leader's request handler starts, the first relay
/// finishes its round, the leader sends the reply, the client's reply
/// handler starts. `leader_commit` excludes the relay round inside it,
/// so the four stages add up to the request's latency.
pub fn stages(traces: &[NodeTrace], replicas: usize, window: (u64, u64)) -> Stages {
    #[derive(Default, Clone, Copy)]
    struct Path {
        sent: u64,
        at_leader: u64,
        relay_round: u64,
        replied: u64,
        at_client: u64,
    }
    let mut paths: HashMap<RequestId, Path> = HashMap::new();
    let first = |slot: &mut u64, t: u64| {
        if *slot == 0 {
            *slot = t
        }
    };
    // Client side: the request leaves, the reply arrives.
    for trace in &traces[replicas..] {
        for e in trace.emits.iter().filter(|e| e.label == "request") {
            let span = &trace.spans[e.span as usize];
            if span.at >= window.0 && span.at < window.1 {
                first(&mut paths.entry(e.req).or_default().sent, span.end);
            }
        }
        for s in trace.spans.iter().filter(|s| s.label == "reply") {
            if let Some(p) = s.req.and_then(|r| paths.get_mut(&r)) {
                first(&mut p.at_client, s.start);
            }
        }
    }
    // Replica side.
    for (node, trace) in traces.iter().enumerate().take(replicas) {
        let mut round_start: HashMap<RequestId, u64> = HashMap::new();
        for s in &trace.spans {
            let Some(req) = s.req else { continue };
            match s.label {
                "request" if node == 0 => {
                    if let Some(p) = paths.get_mut(&req) {
                        first(&mut p.at_leader, s.start);
                    }
                }
                "to_relay" => {
                    round_start.entry(req).or_insert(s.start);
                }
                _ => {}
            }
        }
        for e in &trace.emits {
            let end = trace.spans[e.span as usize].end;
            let Some(p) = paths.get_mut(&e.req) else {
                continue;
            };
            match e.label {
                "reply" if node == 0 => first(&mut p.replied, end),
                "p2b" => {
                    if let Some(&start) = round_start.get(&e.req) {
                        let round = end - start;
                        if p.relay_round == 0 || round < p.relay_round {
                            p.relay_round = round;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    let mut cols: [Vec<f64>; 4] = Default::default();
    for p in paths.values() {
        let ordered = p.sent > 0
            && p.sent <= p.at_leader
            && p.at_leader <= p.replied
            && p.replied <= p.at_client
            && p.relay_round > 0
            && p.relay_round <= p.replied - p.at_leader;
        if !ordered {
            continue; // retried, redirected, or cut off by the window
        }
        cols[0].push((p.at_leader - p.sent) as f64 / 1e3);
        cols[1].push((p.replied - p.at_leader - p.relay_round) as f64 / 1e3);
        cols[2].push(p.relay_round as f64 / 1e3);
        cols[3].push((p.at_client - p.replied) as f64 / 1e3);
    }
    let requests = cols[0].len();
    let [a, b, c, d] = cols.map(|v| crate::stats::median(&v));
    Stages {
        client_to_leader: a,
        leader_commit: b,
        relay_round: c,
        leader_to_client: d,
        requests,
    }
}

/// Write the first [`DUMP_LIMIT`] spans of the measured window, one JSON
/// object per line, emits inlined.
pub fn dump(
    path: &std::path::Path,
    traces: &[NodeTrace],
    window: (u64, u64),
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let per_node = DUMP_LIMIT / traces.len().max(1);
    for (node, trace) in traces.iter().enumerate() {
        let mut emits = trace.emits.iter().peekable();
        let mut written = 0;
        for (i, s) in trace.spans.iter().enumerate() {
            let mut sent = String::new();
            while let Some(e) = emits.next_if(|e| e.span as usize <= i) {
                if e.span as usize == i {
                    sent += &format!(
                        "{}[\"{}\",{},{},{}]",
                        if sent.is_empty() { "" } else { "," },
                        e.label,
                        e.to.0,
                        e.req.client.0,
                        e.req.seq
                    );
                }
            }
            if s.at < window.0 || s.at >= window.1 || written == per_node {
                continue;
            }
            written += 1;
            let req = match s.req {
                Some(r) => format!("[{},{}]", r.client.0, r.seq),
                None => "null".into(),
            };
            writeln!(
                out,
                "{{\"node\":{node},\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"at_ns\":{},\"req\":{req},\"out_msgs\":{},\"out_bytes\":{},\"sent\":[{sent}]}}",
                s.label, s.start, s.end, s.at, s.out_msgs, s.out_bytes
            )?;
        }
    }
    out.flush()
}
