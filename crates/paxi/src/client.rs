//! Closed-loop benchmark clients.
//!
//! Mirrors the Paxi benchmark client: each client keeps exactly one
//! request outstanding; completing a request immediately issues the next.
//! Offered load is therefore controlled by the number of clients, and the
//! latency/throughput curves of the paper are produced by sweeping the
//! client count.
//!
//! A recorder made for a checked run ([`crate::Experiment::check_linearizability`])
//! also logs every operation its clients invoke and every reply, for the
//! linearizability check in [`crate::history`].

use crate::command::{ClientRequest, Command, Operation, RequestId};
use crate::envelope::{Envelope, ProtoMessage};
use crate::history::{tag, History};
use crate::workload::Workload;
use parking_lot::Mutex;
use simnet::{Actor, Context, NodeId, SimDuration, SimTime, TimerId};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;

/// Which replica a client sends each request to.
#[derive(Debug, Clone)]
pub enum TargetPolicy {
    /// Always the same node (Paxos/PigPaxos clients talk to the leader).
    Fixed(NodeId),
    /// A uniformly random replica per request (EPaxos clients).
    Random(Vec<NodeId>),
}

impl TargetPolicy {
    fn pick(&self, rng: &mut rand::rngs::StdRng) -> NodeId {
        match self {
            TargetPolicy::Fixed(n) => *n,
            TargetPolicy::Random(nodes) => {
                use rand::Rng;
                nodes[rng.gen_range(0..nodes.len())]
            }
        }
    }
}

/// One completed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the request was first issued.
    pub issued: SimTime,
    /// When the reply arrived.
    pub completed: SimTime,
    /// Whether the operation was a read.
    pub is_read: bool,
}

impl Sample {
    /// End-to-end latency.
    pub fn latency(&self) -> SimDuration {
        self.completed.saturating_sub(self.issued)
    }
}

/// Shared sink for samples from all clients in a run. Thread-safe so it
/// works under both the simulator and the real-thread runtime.
#[derive(Debug, Clone, Default)]
pub struct ClientRecorder {
    samples: Arc<Mutex<Vec<Sample>>>,
    retries: Arc<std::sync::atomic::AtomicU64>,
    history: Option<History>,
}

impl ClientRecorder {
    /// Fresh recorder.
    pub fn new() -> Self {
        ClientRecorder::default()
    }

    /// Fresh recorder that also keeps the clients' [`History`]; its
    /// clients then [`tag`] every value they put.
    pub(crate) fn with_history() -> Self {
        ClientRecorder {
            history: Some(History::default()),
            ..ClientRecorder::default()
        }
    }

    /// The operation history, when this recorder keeps one.
    pub(crate) fn history(&self) -> Option<&History> {
        self.history.as_ref()
    }

    /// Append a sample.
    pub fn record(&self, s: Sample) {
        self.samples.lock().push(s);
    }

    /// Count one request re-send (timeout retry or redirect follow).
    pub fn record_retry(&self) {
        self.retries
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Total re-sends across all clients sharing this recorder.
    pub fn retries(&self) -> u64 {
        self.retries.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Copy out all samples.
    pub fn samples(&self) -> Vec<Sample> {
        self.samples.lock().clone()
    }

    /// Number of samples so far.
    pub fn len(&self) -> usize {
        self.samples.lock().len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.lock().is_empty()
    }
}

struct Outstanding {
    issued: SimTime,
    command: Command,
    is_read: bool,
    /// Timeout-driven retry count, driving the exponential backoff.
    attempts: u32,
    /// Its index in the recorder's history, when it keeps one.
    logged: Option<usize>,
}

/// Retry delays double per attempt up to `base << MAX_BACKOFF_SHIFT`
/// (16x the configured retry timeout).
const MAX_BACKOFF_SHIFT: u32 = 4;

/// Deterministic per-(client, request, attempt) jitter source. Seeding a
/// fresh small RNG from this key keeps retry de-synchronization fully
/// deterministic without touching the client's workload RNG stream —
/// the same `(seed, node)` pair must keep producing the same operations
/// whether or not faults forced retries.
fn jitter_seed(node: NodeId, seq: u64, attempt: u32) -> u64 {
    let mut z = ((node.0 as u64) << 40)
        ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ ((attempt as u64) << 17);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A closed-loop client actor, generic over the protocol message type
/// (clients never construct protocol messages).
///
/// With `pipeline > 1` the client keeps that many requests in flight
/// simultaneously (one user session multiplexing several operations
/// over one connection); each completion immediately issues the next.
/// Coalesced [`Envelope::ReplyBatch`] envelopes are unpacked in order.
pub struct ClosedLoopClient<P> {
    target: TargetPolicy,
    workload: Workload,
    recorder: ClientRecorder,
    retry_timeout: SimDuration,
    pipeline: usize,
    seq: u64,
    outstanding: HashMap<u64, Outstanding>,
    retries: u64,
    _proto: PhantomData<P>,
}

impl<P> ClosedLoopClient<P> {
    /// Create a client that records into `recorder`.
    pub fn new(
        target: TargetPolicy,
        workload: Workload,
        recorder: ClientRecorder,
        retry_timeout: SimDuration,
    ) -> Self {
        ClosedLoopClient {
            target,
            workload,
            recorder,
            retry_timeout,
            pipeline: 1,
            seq: 0,
            outstanding: HashMap::new(),
            retries: 0,
            _proto: PhantomData,
        }
    }

    /// Keep `depth` requests outstanding instead of one.
    pub fn with_pipeline(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "pipeline depth must be at least 1");
        self.pipeline = depth;
        self
    }

    /// How many times this client re-sent a request after a timeout.
    pub fn retries(&self) -> u64 {
        self.retries
    }
}

impl<P: ProtoMessage> ClosedLoopClient<P> {
    /// Delay before the next retry of request `seq` after `attempt`
    /// timeout-driven resends. The first retry fires after exactly the
    /// configured timeout (so fault-free runs are bit-identical to the
    /// fixed-interval schedule); later retries back off exponentially,
    /// capped at 16x, with deterministic jitter in `[0, delay/2]` so a
    /// fleet of clients cut off by the same partition does not re-send
    /// in lockstep when it heals.
    fn retry_delay(&self, node: NodeId, seq: u64, attempt: u32) -> SimDuration {
        if attempt == 0 {
            return self.retry_timeout;
        }
        let base = self.retry_timeout.as_nanos().max(1);
        let delay = base.saturating_mul(1 << attempt.min(MAX_BACKOFF_SHIFT));
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(jitter_seed(node, seq, attempt));
        let jitter = rng.gen_range(0..=delay / 2);
        SimDuration::from_nanos(delay.saturating_add(jitter))
    }

    fn issue_next(&mut self, ctx: &mut Context<Envelope<P>>) {
        self.seq += 1;
        let mut op = self.workload.next_op(ctx.rng());
        let is_read = op.is_read();
        let id = RequestId {
            client: ctx.node(),
            seq: self.seq,
        };
        let history = self.recorder.history();
        if let (Some(_), Operation::Put(_, value)) = (history, &mut op) {
            *value = tag(value, id);
        }
        let command = Command { id, op };
        let logged = history.and_then(|h| h.invoke(&command, ctx.now()));
        self.outstanding.insert(
            self.seq,
            Outstanding {
                issued: ctx.now(),
                command: command.clone(),
                is_read,
                attempts: 0,
                logged,
            },
        );
        let to = self.target.pick(ctx.rng());
        ctx.send(to, Envelope::Request(ClientRequest { command }));
        ctx.set_timer(self.retry_timeout, self.seq);
    }

    fn resend(&mut self, seq: u64, to: Option<NodeId>, ctx: &mut Context<Envelope<P>>) {
        if let Some(out) = self.outstanding.get(&seq) {
            let command = out.command.clone();
            let attempt = out.attempts;
            self.retries += 1;
            self.recorder.record_retry();
            // Without a redirect hint, pick afresh: a client with a
            // random target tries another replica.
            let to = to.unwrap_or_else(|| self.target.pick(ctx.rng()));
            ctx.send(to, Envelope::Request(ClientRequest { command }));
            let delay = self.retry_delay(ctx.node(), seq, attempt);
            ctx.set_timer(delay, seq);
        }
    }

    fn handle_reply(&mut self, reply: crate::command::ClientReply, ctx: &mut Context<Envelope<P>>) {
        if reply.id.client != ctx.node() || !self.outstanding.contains_key(&reply.id.seq) {
            return; // another client's, or stale (a retry raced the original)
        }
        if !reply.ok {
            // Redirected: re-send to the hinted node (or re-pick).
            self.resend(reply.id.seq, reply.redirect, ctx);
            return;
        }
        let out = self.outstanding.remove(&reply.id.seq).expect("checked");
        if let (Some(h), Some(i)) = (self.recorder.history(), out.logged) {
            h.complete(i, ctx.now(), reply.value);
        }
        self.recorder.record(Sample {
            issued: out.issued,
            completed: ctx.now(),
            is_read: out.is_read,
        });
        self.issue_next(ctx);
    }
}

impl<P: ProtoMessage> Actor<Envelope<P>> for ClosedLoopClient<P> {
    fn on_start(&mut self, ctx: &mut Context<Envelope<P>>) {
        for _ in 0..self.pipeline {
            self.issue_next(ctx);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: Envelope<P>, ctx: &mut Context<Envelope<P>>) {
        match msg {
            Envelope::Reply(r) => self.handle_reply(r, ctx),
            Envelope::ReplyBatch(rs) => {
                for r in rs {
                    self.handle_reply(r, ctx);
                }
            }
            // Clients ignore anything else.
            _ => {}
        }
    }

    fn on_timer(&mut self, _id: TimerId, kind: u64, ctx: &mut Context<Envelope<P>>) {
        // Retry only if the timed-out request is still outstanding. Each
        // timeout bumps the attempt count so the next delay backs off;
        // redirect-driven resends (handle_reply) intentionally do not.
        if let Some(out) = self.outstanding.get_mut(&kind) {
            out.attempts += 1;
            self.resend(kind, None, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::ClientReply;
    use crate::replica::{Ctx, Replica, ReplicaActor, ReplicaCtx};
    use simnet::{CpuCostModel, Simulation, Topology};

    #[derive(Debug, Clone)]
    struct NoProto;
    impl ProtoMessage for NoProto {
        fn wire_size(&self) -> usize {
            0
        }
    }

    /// Acks everything instantly.
    struct InstantServer;
    impl Replica<NoProto> for InstantServer {
        fn on_request(&mut self, client: NodeId, req: ClientRequest, ctx: &mut Ctx<NoProto>) {
            ctx.reply(client, ClientReply::ok(req.command.id, None));
        }
        fn on_proto(&mut self, _f: NodeId, _m: NoProto, _c: &mut Ctx<NoProto>) {}
    }

    /// Silently drops the first `drop_n` requests (to exercise retries).
    struct FlakyServer {
        drop_n: u64,
        seen: u64,
    }
    impl Replica<NoProto> for FlakyServer {
        fn on_request(&mut self, client: NodeId, req: ClientRequest, ctx: &mut Ctx<NoProto>) {
            self.seen += 1;
            if self.seen > self.drop_n {
                ctx.reply(client, ClientReply::ok(req.command.id, None));
            }
        }
        fn on_proto(&mut self, _f: NodeId, _m: NoProto, _c: &mut Ctx<NoProto>) {}
    }

    /// Always redirects to another node.
    struct RedirectServer {
        to: NodeId,
    }
    impl Replica<NoProto> for RedirectServer {
        fn on_request(&mut self, client: NodeId, req: ClientRequest, ctx: &mut Ctx<NoProto>) {
            ctx.reply(client, ClientReply::redirect(req.command.id, Some(self.to)));
        }
        fn on_proto(&mut self, _f: NodeId, _m: NoProto, _c: &mut Ctx<NoProto>) {}
    }

    fn client(target: TargetPolicy, rec: &ClientRecorder) -> Box<ClosedLoopClient<NoProto>> {
        Box::new(ClosedLoopClient::new(
            target,
            Workload::paper_default(),
            rec.clone(),
            SimDuration::from_millis(100),
        ))
    }

    #[test]
    fn closed_loop_issues_back_to_back() {
        let mut sim: Simulation<Envelope<NoProto>> =
            Simulation::new(Topology::lan(2), CpuCostModel::free(), 3);
        sim.add_actor(Box::new(ReplicaActor(InstantServer)));
        let rec = ClientRecorder::new();
        sim.add_actor(client(TargetPolicy::Fixed(NodeId(0)), &rec));
        sim.run_until(SimTime::from_millis(100));
        // RTT ≈ 0.4ms -> ≈250 completions in 100ms.
        let n = rec.len();
        assert!(
            (150..400).contains(&n),
            "expected ~250 completions, got {n}"
        );
        // Latencies are positive and ~RTT.
        for s in rec.samples() {
            assert!(s.latency() > SimDuration::ZERO);
            assert!(s.latency() < SimDuration::from_millis(5));
        }
    }

    #[test]
    fn retry_after_timeout() {
        let mut sim: Simulation<Envelope<NoProto>> =
            Simulation::new(Topology::lan(2), CpuCostModel::free(), 3);
        sim.add_actor(Box::new(ReplicaActor(FlakyServer { drop_n: 2, seen: 0 })));
        let rec = ClientRecorder::new();
        sim.add_actor(client(TargetPolicy::Fixed(NodeId(0)), &rec));
        sim.run_until(SimTime::from_secs(1));
        assert!(!rec.is_empty(), "client must eventually get through");
        let first = rec.samples()[0];
        assert!(
            first.latency() >= SimDuration::from_millis(200),
            "first completion needed 2 retries at 100ms timeout, latency {}",
            first.latency()
        );
    }

    #[test]
    fn redirect_is_followed() {
        let mut sim: Simulation<Envelope<NoProto>> =
            Simulation::new(Topology::lan(3), CpuCostModel::free(), 3);
        sim.add_actor(Box::new(ReplicaActor(RedirectServer { to: NodeId(1) })));
        sim.add_actor(Box::new(ReplicaActor(InstantServer)));
        let rec = ClientRecorder::new();
        sim.add_actor(client(TargetPolicy::Fixed(NodeId(0)), &rec));
        sim.run_until(SimTime::from_millis(50));
        assert!(!rec.is_empty(), "redirected requests must still complete");
    }

    #[test]
    fn random_target_spreads_load() {
        let mut sim: Simulation<Envelope<NoProto>> =
            Simulation::new(Topology::lan(3), CpuCostModel::free(), 3);
        sim.add_actor(Box::new(ReplicaActor(InstantServer)));
        sim.add_actor(Box::new(ReplicaActor(InstantServer)));
        let rec = ClientRecorder::new();
        sim.add_actor(client(
            TargetPolicy::Random(vec![NodeId(0), NodeId(1)]),
            &rec,
        ));
        sim.run_until(SimTime::from_millis(200));
        let a = sim.stats().nodes[0].msgs_received;
        let b = sim.stats().nodes[1].msgs_received;
        assert!(
            a > 0 && b > 0,
            "both replicas should see traffic: {a} vs {b}"
        );
    }

    #[test]
    fn pipelined_client_multiplies_in_flight_load() {
        let run_with = |pipeline: usize| {
            let mut sim: Simulation<Envelope<NoProto>> =
                Simulation::new(Topology::lan(2), CpuCostModel::free(), 3);
            sim.add_actor(Box::new(ReplicaActor(InstantServer)));
            let rec = ClientRecorder::new();
            sim.add_actor(Box::new(
                ClosedLoopClient::<NoProto>::new(
                    TargetPolicy::Fixed(NodeId(0)),
                    Workload::paper_default(),
                    rec.clone(),
                    SimDuration::from_millis(100),
                )
                .with_pipeline(pipeline),
            ));
            sim.run_until(SimTime::from_millis(100));
            rec.len()
        };
        let one = run_with(1);
        let four = run_with(4);
        assert!(
            four as f64 > one as f64 * 3.0,
            "pipeline 4 should complete ~4x the ops: {four} vs {one}"
        );
    }

    /// Buffers replies and ships them two at a time in one envelope.
    struct BatchingServer {
        held: Vec<(NodeId, ClientReply)>,
    }
    impl Replica<NoProto> for BatchingServer {
        fn on_request(&mut self, client: NodeId, req: ClientRequest, ctx: &mut Ctx<NoProto>) {
            self.held
                .push((client, ClientReply::ok(req.command.id, None)));
            if self.held.len() >= 2 {
                let held = std::mem::take(&mut self.held);
                let client = held[0].0;
                ctx.reply_many(client, held.into_iter().map(|(_, r)| r).collect());
            }
        }
        fn on_proto(&mut self, _f: NodeId, _m: NoProto, _c: &mut Ctx<NoProto>) {}
    }

    #[test]
    fn reply_batches_unpack_and_complete_requests() {
        let mut sim: Simulation<Envelope<NoProto>> =
            Simulation::new(Topology::lan(2), CpuCostModel::free(), 3);
        sim.add_actor(Box::new(ReplicaActor(BatchingServer { held: Vec::new() })));
        let rec = ClientRecorder::new();
        sim.add_actor(Box::new(
            ClosedLoopClient::<NoProto>::new(
                TargetPolicy::Fixed(NodeId(0)),
                Workload::paper_default(),
                rec.clone(),
                SimDuration::from_millis(100),
            )
            .with_pipeline(2),
        ));
        sim.run_until(SimTime::from_millis(50));
        assert!(
            rec.len() > 20,
            "coalesced replies must keep the pipeline moving, got {}",
            rec.len()
        );
    }

    /// Answers every request with the id another client would use.
    struct MisaddressingServer;
    impl Replica<NoProto> for MisaddressingServer {
        fn on_request(&mut self, client: NodeId, req: ClientRequest, ctx: &mut Ctx<NoProto>) {
            let mut id = req.command.id;
            id.client = NodeId(id.client.0 + 1);
            ctx.reply(client, ClientReply::ok(id, None));
        }
        fn on_proto(&mut self, _f: NodeId, _m: NoProto, _c: &mut Ctx<NoProto>) {}
    }

    #[test]
    fn a_reply_naming_another_client_completes_nothing() {
        let mut sim: Simulation<Envelope<NoProto>> =
            Simulation::new(Topology::lan(2), CpuCostModel::free(), 3);
        sim.add_actor(Box::new(ReplicaActor(MisaddressingServer)));
        let rec = ClientRecorder::new();
        sim.add_actor(client(TargetPolicy::Fixed(NodeId(0)), &rec));
        sim.run_until(SimTime::from_millis(50));
        assert!(rec.is_empty(), "{} completions", rec.len());
    }

    /// Never replies: every request times out.
    struct BlackholeServer;
    impl Replica<NoProto> for BlackholeServer {
        fn on_request(&mut self, _c: NodeId, _r: ClientRequest, _ctx: &mut Ctx<NoProto>) {}
        fn on_proto(&mut self, _f: NodeId, _m: NoProto, _c: &mut Ctx<NoProto>) {}
    }

    #[test]
    fn retry_delay_schedule_backs_off_and_caps() {
        let c = ClosedLoopClient::<NoProto>::new(
            TargetPolicy::Fixed(NodeId(0)),
            Workload::paper_default(),
            ClientRecorder::new(),
            SimDuration::from_millis(100),
        );
        let base = SimDuration::from_millis(100).as_nanos();
        // First retry is at exactly the configured timeout — no jitter —
        // so fault-free runs keep the seed-for-seed baseline schedule.
        assert_eq!(
            c.retry_delay(NodeId(7), 1, 0),
            SimDuration::from_millis(100)
        );
        for attempt in 1..8u32 {
            let d = c.retry_delay(NodeId(7), 1, attempt).as_nanos();
            let nominal = base << attempt.min(MAX_BACKOFF_SHIFT);
            assert!(
                d >= nominal && d <= nominal + nominal / 2,
                "attempt {attempt}: delay {d} outside [{nominal}, 1.5x]"
            );
        }
        // Cap: attempts beyond the shift limit stay at 16x base.
        let capped = c.retry_delay(NodeId(7), 1, 20).as_nanos();
        assert!(capped <= base * 16 + base * 8);
        // Deterministic: same (node, seq, attempt) -> same delay; different
        // clients de-synchronize.
        assert_eq!(
            c.retry_delay(NodeId(7), 1, 3),
            c.retry_delay(NodeId(7), 1, 3)
        );
        assert_ne!(
            c.retry_delay(NodeId(7), 1, 3),
            c.retry_delay(NodeId(8), 1, 3)
        );
    }

    #[test]
    fn backoff_suppresses_retry_storm_against_dead_server() {
        let run = || {
            let mut sim: Simulation<Envelope<NoProto>> =
                Simulation::new(Topology::lan(2), CpuCostModel::free(), 3);
            sim.add_actor(Box::new(ReplicaActor(BlackholeServer)));
            let rec = ClientRecorder::new();
            sim.add_actor(client(TargetPolicy::Fixed(NodeId(0)), &rec));
            sim.run_until(SimTime::from_secs(2));
            rec.retries()
        };
        let retries = run();
        // Fixed 100ms interval would re-send ~19 times in 2s. Exponential
        // backoff (100, 200+j, 400+j, 800+j...) sends at most ~6.
        assert!(retries >= 3, "client must keep retrying, got {retries}");
        assert!(
            retries <= 9,
            "backoff must cut the 2s retry storm to <= half of the \
             fixed-interval ~19, got {retries}"
        );
        // And the whole schedule is deterministic.
        assert_eq!(retries, run());
    }

    #[test]
    fn sample_latency_math() {
        let s = Sample {
            issued: SimTime::from_millis(10),
            completed: SimTime::from_millis(12),
            is_read: false,
        };
        assert_eq!(s.latency(), SimDuration::from_millis(2));
    }

    use simnet::SimTime;
}
