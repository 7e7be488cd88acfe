//! The benchmark's own load generator.
//!
//! A [`BenchClient`] is an actor like any other node, so the same code
//! drives the simulator and the TCP runtime. It differs from
//! `paxi::ClosedLoopClient` where a benchmark needs it to: an open-loop
//! mode that times every request from the moment it was *due*, a log of
//! every attempted operation (so failures are counted against attempts),
//! and values that encode `(client, seq)` so every read can be checked.
//!
//! Two rules of the system shape the client. The leader proposes one
//! client's commands in sequence order and holds a successor until its
//! predecessor arrives, so a client may never abandon an operation: it
//! keeps retrying until the reply comes, and whether the operation
//! *failed* (no reply within [`DEADLINE`]) is decided afterwards from the
//! log, see [`Op::failed`]. And a replica remembers only a client's last
//! [`DEFAULT_SESSION_WINDOW`] replies, so a client never runs further
//! than that ahead of its oldest unanswered request; an open loop holds
//! back what is due meanwhile and still times it from when it was due.

use crate::Msg;
use paxi::{
    ClientReply, ClientRequest, Command, Envelope, Key, Operation, RequestId, Value,
    DEFAULT_SESSION_WINDOW,
};
use rand::Rng;
use simnet::{Actor, Bytes, Context, NodeId, SimDuration, SimTime, TimerId};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// An operation with no reply this long after it was due has failed.
pub const DEADLINE: SimDuration = SimDuration::from_secs(1);
/// An unanswered request is sent again, to a random replica, this often.
const RETRY_AFTER: SimDuration = SimDuration::from_millis(100);
/// How often the client looks for unanswered requests.
const RETRY_SCAN: SimDuration = SimDuration::from_millis(20);
/// Redirects followed per request between two timeouts, so that two
/// replicas pointing at each other cannot bounce a request for ever.
const MAX_HOPS: u8 = 3;

const T_PACE: u64 = 1;
const T_SCAN: u64 = 2;

/// How a client decides when to send.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Keep `window` requests outstanding; a reply releases the next.
    Closed { window: usize },
    /// One request every `interval`, whatever the replies do, as far as
    /// the session window allows.
    Open { interval: SimDuration },
}

/// What one client sends.
#[derive(Debug, Clone)]
pub struct ClientSpec {
    pub mode: Mode,
    pub read_ratio: f64,
    pub value_size: usize,
    /// The keys this client, and no other, reads and writes.
    pub keys: Vec<Key>,
    /// Offset of the first request (staggers open-loop clients).
    pub phase: SimDuration,
    /// No request is due at or after this time.
    pub stop_at: SimTime,
    pub replicas: Vec<NodeId>,
}

/// One attempted operation, times in nanoseconds of the substrate's clock.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub due: u64,
    pub sent: u64,
    /// 0 until the reply arrives.
    pub done: u64,
}

impl Op {
    pub fn failed(&self) -> bool {
        self.done == 0 || self.done - self.due > DEADLINE.as_nanos()
    }
}

/// What a client leaves behind for the harness. Each client has its own,
/// so the lock is never contended while the run lasts.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Indexed by `seq - 1`.
    pub ops: Vec<Op>,
    pub retries: u64,
    pub stale_reads: u64,
    /// Wall-clock moment of the first reply (for `setup_s`).
    pub first_done: Option<Instant>,
}

pub type SharedLog = Arc<Mutex<ClientLog>>;

struct Outstanding {
    command: Command,
    last_sent: SimTime,
    hops: u8,
    /// Position of the command's key among the client's keys.
    slot: usize,
    /// For a read: the newest write to the key acknowledged before the
    /// read was issued. The read may not return an older one.
    read_floor: u64,
}

pub struct BenchClient {
    spec: ClientSpec,
    log: SharedLog,
    seq: u64,
    /// How far `seq` may run ahead of the oldest unanswered request.
    window: u64,
    next_due: SimTime,
    pace_timer_armed: bool,
    leader: NodeId,
    outstanding: BTreeMap<u64, Outstanding>,
    /// Seq of the last acknowledged write per owned key (by position).
    acked: Vec<u64>,
}

fn encode_value(client: NodeId, seq: u64, size: usize) -> Value {
    let mut bytes = vec![0u8; size.max(8)];
    bytes[..8].copy_from_slice(&(((client.0 as u64) << 40) | seq).to_le_bytes());
    Value(Bytes::from(bytes))
}

fn decode_value(v: &Value) -> Option<(u32, u64)> {
    let head: [u8; 8] = v.0.as_slice().get(..8)?.try_into().ok()?;
    let word = u64::from_le_bytes(head);
    Some(((word >> 40) as u32, word & ((1 << 40) - 1)))
}

impl BenchClient {
    pub fn new(spec: ClientSpec, log: SharedLog) -> Self {
        assert!(!spec.keys.is_empty(), "a client needs keys of its own");
        let window = match spec.mode {
            Mode::Closed { window } => window.min(DEFAULT_SESSION_WINDOW),
            Mode::Open { .. } => DEFAULT_SESSION_WINDOW,
        };
        BenchClient {
            window: window as u64,
            pace_timer_armed: false,
            next_due: SimTime::ZERO + spec.phase,
            leader: spec.replicas[0],
            acked: vec![0; spec.keys.len()],
            spec,
            log,
            seq: 0,
            outstanding: BTreeMap::new(),
        }
    }

    fn log(&self) -> std::sync::MutexGuard<'_, ClientLog> {
        self.log
            .lock()
            .expect("a client never panics holding its log")
    }

    fn may_issue(&self) -> bool {
        let oldest = self
            .outstanding
            .keys()
            .next()
            .copied()
            .unwrap_or(self.seq + 1);
        self.seq + 1 - oldest < self.window
    }

    fn issue(&mut self, due: SimTime, ctx: &mut Context<Msg>) {
        self.seq += 1;
        let slot = ctx.rng().gen_range(0..self.spec.keys.len());
        let key = self.spec.keys[slot];
        let is_read = self.spec.read_ratio > 0.0 && ctx.rng().gen::<f64>() < self.spec.read_ratio;
        let op = if is_read {
            Operation::Get(key)
        } else {
            Operation::Put(
                key,
                encode_value(ctx.node(), self.seq, self.spec.value_size),
            )
        };
        let command = Command {
            id: RequestId {
                client: ctx.node(),
                seq: self.seq,
            },
            op,
        };
        self.log().ops.push(Op {
            due: due.as_nanos(),
            sent: ctx.now().as_nanos(),
            done: 0,
        });
        ctx.send(
            self.leader,
            Envelope::Request(ClientRequest {
                command: command.clone(),
            }),
        );
        self.outstanding.insert(
            self.seq,
            Outstanding {
                command,
                last_sent: ctx.now(),
                hops: 0,
                slot,
                read_floor: self.acked[slot],
            },
        );
    }

    fn resend(&mut self, seq: u64, to: NodeId, ctx: &mut Context<Msg>) {
        let Some(out) = self.outstanding.get_mut(&seq) else {
            return;
        };
        out.last_sent = ctx.now();
        let command = out.command.clone();
        ctx.send(to, Envelope::Request(ClientRequest { command }));
        self.log().retries += 1;
    }

    /// Issue every open-loop request that is due and allowed, then sleep
    /// until the next. A request held back goes out on a later reply.
    fn pace(&mut self, interval: SimDuration, ctx: &mut Context<Msg>) {
        while self.next_due <= ctx.now() && self.next_due < self.spec.stop_at && self.may_issue() {
            self.issue(self.next_due, ctx);
            self.next_due += interval;
        }
        if self.next_due > ctx.now() && self.next_due < self.spec.stop_at && !self.pace_timer_armed
        {
            self.pace_timer_armed = true;
            ctx.set_timer(self.next_due.saturating_sub(ctx.now()), T_PACE);
        }
    }

    fn on_reply(&mut self, from: NodeId, reply: ClientReply, ctx: &mut Context<Msg>) {
        let seq = reply.id.seq;
        let Some(out) = self.outstanding.get_mut(&seq) else {
            return; // a retry's second answer
        };
        if !reply.ok {
            // Follow the hint at once unless it points back at the
            // sender; otherwise the next timeout tries another replica.
            if let Some(hint) = reply.redirect.filter(|&h| h != from) {
                if out.hops < MAX_HOPS {
                    out.hops += 1;
                    self.leader = hint;
                    self.resend(seq, hint, ctx);
                }
            }
            return;
        }
        let out = self.outstanding.remove(&seq).expect("checked above");
        self.leader = from;
        let mut stale = false;
        match &out.command.op {
            Operation::Put(..) => self.acked[out.slot] = self.acked[out.slot].max(seq),
            Operation::Get(_) => {
                // Only this client writes the key, in seq order, so the
                // value read must be at least the floor taken at issue.
                let seen = reply.value.as_ref().and_then(decode_value);
                stale = match seen {
                    Some((client, wseq)) => client != ctx.node().0 || wseq < out.read_floor,
                    None => out.read_floor > 0,
                };
            }
            Operation::Noop => {}
        }
        {
            let mut log = self.log();
            log.ops[seq as usize - 1].done = ctx.now().as_nanos();
            log.stale_reads += stale as u64;
            log.first_done.get_or_insert_with(Instant::now);
        }
        match self.spec.mode {
            Mode::Closed { .. } => {
                while self.may_issue() && ctx.now() < self.spec.stop_at {
                    self.issue(ctx.now(), ctx);
                }
            }
            Mode::Open { interval } => self.pace(interval, ctx),
        }
    }
}

impl Actor<Msg> for BenchClient {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        match self.spec.mode {
            Mode::Closed { .. } => {
                while self.may_issue() {
                    self.issue(ctx.now(), ctx);
                }
            }
            Mode::Open { interval } => self.pace(interval, ctx),
        }
        ctx.set_timer(RETRY_SCAN, T_SCAN);
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Context<Msg>) {
        match msg {
            Envelope::Reply(r) => self.on_reply(from, r, ctx),
            Envelope::ReplyBatch(rs) => {
                for r in rs {
                    self.on_reply(from, r, ctx);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _id: TimerId, kind: u64, ctx: &mut Context<Msg>) {
        match (kind, self.spec.mode) {
            (T_PACE, Mode::Open { interval }) => {
                self.pace_timer_armed = false;
                self.pace(interval, ctx)
            }
            (T_SCAN, _) => {
                let now = ctx.now();
                let overdue: Vec<u64> = self
                    .outstanding
                    .iter()
                    .filter(|(_, o)| now.saturating_sub(o.last_sent) >= RETRY_AFTER)
                    .map(|(&seq, _)| seq)
                    .collect();
                for seq in overdue {
                    let to = self.spec.replicas[ctx.rng().gen_range(0..self.spec.replicas.len())];
                    if let Some(o) = self.outstanding.get_mut(&seq) {
                        o.hops = 0;
                    }
                    self.resend(seq, to, ctx);
                }
                // Keep scanning through the drain, while anything is owed.
                if now < self.spec.stop_at || !self.outstanding.is_empty() {
                    ctx.set_timer(RETRY_SCAN, T_SCAN);
                }
            }
            _ => {}
        }
    }
}

/// The keys of client `index` out of `clients`: every `clients`-th key of
/// a 1000-key space, so the clients together cover it uniformly.
pub fn owned_keys(index: usize, clients: usize) -> Vec<Key> {
    (0..1000u64)
        .filter(|k| *k as usize % clients == index)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi::ClientReply;
    use simnet::{CpuCostModel, Simulation, Topology};

    /// Acknowledges every request at once, except that it ignores the
    /// first `drop_first` copies of each client's first request.
    struct AckAll {
        drop_first: u64,
        seen: u64,
    }
    impl Actor<Msg> for AckAll {
        fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Context<Msg>) {
            if let Envelope::Request(r) = msg {
                if r.command.id.seq == 1 {
                    self.seen += 1;
                    if self.seen <= self.drop_first {
                        return;
                    }
                }
                ctx.send(from, Envelope::Reply(ClientReply::ok(r.command.id, None)));
            }
        }
        fn on_timer(&mut self, _: TimerId, _: u64, _: &mut Context<Msg>) {}
    }

    fn run(drop_first: u64, mode: Mode, stop_ms: u64) -> ClientLog {
        let mut sim: Simulation<Msg> = Simulation::new(Topology::lan(2), CpuCostModel::free(), 7);
        sim.add_actor(Box::new(AckAll {
            drop_first,
            seen: 0,
        }));
        let log = SharedLog::default();
        sim.add_actor(Box::new(BenchClient::new(
            ClientSpec {
                mode,
                read_ratio: 0.0,
                value_size: 8,
                keys: owned_keys(0, 1),
                phase: SimDuration::ZERO,
                stop_at: SimTime::from_millis(stop_ms),
                replicas: vec![NodeId(0)],
            },
            log.clone(),
        )));
        sim.run_until(SimTime::from_millis(stop_ms + 2000));
        drop(sim);
        Arc::try_unwrap(log).unwrap().into_inner().unwrap()
    }

    #[test]
    fn open_loop_keeps_its_schedule() {
        let interval = SimDuration::from_millis(2);
        let log = run(0, Mode::Open { interval }, 100);
        assert_eq!(log.ops.len(), 50, "one request per 2 ms for 100 ms");
        for (k, op) in log.ops.iter().enumerate() {
            assert_eq!(op.due, k as u64 * interval.as_nanos(), "due on the grid");
            assert!(!op.failed());
        }
        assert_eq!(log.retries, 0);
    }

    #[test]
    fn open_loop_times_from_due_and_counts_failures() {
        // The server ignores the first request twelve times over: its
        // reply comes only after 1.2 s of retries, past the deadline.
        // The schedule does not wait for it.
        let log = run(
            12,
            Mode::Open {
                interval: SimDuration::from_millis(10),
            },
            50,
        );
        assert_eq!(
            log.ops.len(),
            5,
            "the schedule is kept while one request hangs"
        );
        assert!(log.retries >= 8);
        let failed = log.ops.iter().filter(|o| o.failed()).count();
        assert_eq!(failed, 1, "a reply after the deadline is a failure");
        let slow = log
            .ops
            .iter()
            .map(|o| (o.done - o.due) as f64 / 1e6)
            .fold(0.0, f64::max);
        assert!(slow > 1000.0, "latency runs from the due time, got {slow}");
    }

    #[test]
    fn open_loop_stays_inside_the_session_window() {
        // The first reply comes after 300 ms; a request is due every
        // millisecond, but only a window's worth may be in flight.
        let log = run(
            3,
            Mode::Open {
                interval: SimDuration::from_millis(1),
            },
            100,
        );
        assert_eq!(log.ops.len(), 100, "what was held back is sent later");
        let window = DEFAULT_SESSION_WINDOW;
        for (i, op) in log.ops.iter().enumerate() {
            assert_eq!(
                op.due,
                i as u64 * 1_000_000,
                "and is timed from when it was due"
            );
            assert!(!op.failed());
            if i >= window {
                assert!(
                    log.ops[i - window].done <= op.sent,
                    "request {i} ran ahead of the window"
                );
            }
        }
        assert!(log.ops[window].sent >= 300_000_000);
    }

    #[test]
    fn closed_loop_keeps_its_window() {
        let log = run(0, Mode::Closed { window: 4 }, 50);
        assert!(log.ops.len() > 100);
        assert!(log.ops.iter().all(|o| !o.failed()));
        // The window refills on each reply and never grows.
        let mut events: Vec<(u64, i32)> = log
            .ops
            .iter()
            .flat_map(|o| [(o.sent, 1), (o.done, -1)])
            .collect();
        events.sort();
        let mut depth = 0;
        for (_, d) in events {
            depth += d;
            assert!(depth <= 4);
        }
    }

    #[test]
    fn values_round_trip() {
        let v = encode_value(NodeId(6), 123_456, 16_000);
        assert_eq!(v.len(), 16_000);
        assert_eq!(decode_value(&v), Some((6, 123_456)));
    }
}
