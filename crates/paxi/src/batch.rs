//! Leader-side client-command batching and client-reply coalescing.
//!
//! The PigPaxos paper attacks the leader's *communication* bottleneck
//! with relay trees; batching attacks the same bottleneck on an
//! orthogonal axis: one phase-2 round (and therefore one message per
//! relay/follower) amortizes up to [`BatchConfig::max_batch`] client
//! commands. Commands buffered at the leader are flushed either when the
//! batch fills or when the oldest buffered command has waited
//! [`BatchConfig::max_delay`] — the classic size-or-time policy.
//!
//! **Adaptive sizing** (`BatchConfig::adaptive`): instead of a static
//! fill target, the batcher tracks the command arrival rate with an EWMA
//! of inter-arrival gaps and sizes each batch to the number of arrivals
//! expected within one `max_delay` window. Under saturation that target
//! converges toward `max_batch` (maximal amortization); at low load it
//! collapses to 1, so an isolated command flushes immediately and pays
//! no batching latency.
//!
//! **Reply coalescing** ([`ReplyBatcher`]): execution of a batch
//! produces a wave of client replies, and a pipelined client can have
//! several commands in the same wave. The leader buffers the wave's
//! replies per destination and ships each destination one `ReplyBatch`
//! envelope when the wave ends, amortizing the reply leg the same way
//! `P2aBatch` amortizes the accept leg. No reply waits past its wave.
//!
//! The batcher is protocol-agnostic plumbing: the Paxos replica sends
//! one phase-2a per follower per flush under direct dissemination and
//! one per *relay group* under PigPaxos's relay tree, so the two
//! compose (relay fan-in × batch amortization). A flush of one command
//! travels as a `P2a`, a larger one as a `P2aBatch`.

use crate::command::{ClientReply, Command, RequestId};
use crate::envelope::ProtoMessage;
use crate::replica::{Ctx, ReplicaCtx};
use simnet::{NodeId, SimDuration, SimTime};
use std::collections::BTreeMap;

/// EWMA weight of the newest inter-arrival gap in adaptive mode.
const EWMA_ALPHA: f64 = 0.25;

/// Arrival-rate tracker behind adaptive batch sizing: an EWMA of
/// inter-arrival gaps, turned into a fill target of "arrivals expected
/// within one flush window". Shared by the leader's command
/// [`Batcher`] and the PigPaxos proxy-side probe batcher so the two
/// adaptive policies cannot drift.
#[derive(Debug, Default)]
pub struct RateEstimator {
    /// EWMA of inter-arrival gaps in nanoseconds (`None` until a
    /// second arrival establishes a gap).
    ewma_gap_ns: Option<f64>,
    last_arrival: Option<SimTime>,
}

impl RateEstimator {
    /// No observations yet.
    pub fn new() -> Self {
        RateEstimator::default()
    }

    /// Record an arrival at `now`, updating the gap EWMA.
    pub fn observe(&mut self, now: SimTime) {
        if let Some(prev) = self.last_arrival {
            let gap = now.saturating_sub(prev).as_nanos().max(1) as f64;
            self.ewma_gap_ns = Some(match self.ewma_gap_ns {
                Some(ewma) => EWMA_ALPHA * gap + (1.0 - EWMA_ALPHA) * ewma,
                None => gap,
            });
        }
        self.last_arrival = Some(now);
    }

    /// Arrivals expected within one `window`, clamped to `[1, max]`.
    /// `1` until a rate estimate exists (stay latency-optimal).
    pub fn target(&self, max: usize, window: SimDuration) -> usize {
        match self.ewma_gap_ns {
            None => 1,
            Some(gap_ns) => {
                let window_ns = window.as_nanos() as f64;
                let expected = window_ns / gap_ns.max(1.0);
                (expected as usize).clamp(1, max)
            }
        }
    }
}

/// Batching policy for a leader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum commands per accept round. `1` disables batching (every
    /// command gets its own phase-2 round, the paper's baseline).
    pub max_batch: usize,
    /// Maximum time the first command of a batch may wait before the
    /// batch is flushed regardless of size. In adaptive mode this is
    /// also the arrival window the size target is computed over.
    pub max_delay: SimDuration,
    /// Adaptive sizing: the fill target tracks the observed arrival
    /// rate in `[1, max_batch]` instead of sitting at `max_batch`.
    pub adaptive: bool,
    /// Coalesce the client replies of one execution wave into one
    /// envelope per destination.
    pub coalesce_replies: bool,
}

impl BatchConfig {
    /// Batching off: every command proposed individually.
    pub fn disabled() -> Self {
        BatchConfig {
            max_batch: 1,
            max_delay: SimDuration::ZERO,
            adaptive: false,
            coalesce_replies: false,
        }
    }

    /// Batch up to `max_batch` commands, holding the first at most
    /// `max_delay`.
    pub fn new(max_batch: usize, max_delay: SimDuration) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        BatchConfig {
            max_batch,
            max_delay,
            adaptive: false,
            coalesce_replies: false,
        }
    }

    /// Adaptive batching: size each batch to the observed arrival rate,
    /// up to `max_batch`, flushing immediately at low load.
    pub fn adaptive(max_batch: usize, max_delay: SimDuration) -> Self {
        BatchConfig {
            adaptive: true,
            ..BatchConfig::new(max_batch, max_delay)
        }
    }

    /// Enable reply coalescing: the replies produced by one execution
    /// wave ship grouped per destination, without being delayed.
    pub fn with_reply_coalescing(mut self) -> Self {
        self.coalesce_replies = true;
        self
    }

    /// True when batching is active (`max_batch > 1`).
    pub fn enabled(&self) -> bool {
        self.max_batch > 1
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig::disabled()
    }
}

/// Outcome of [`Batcher::push`].
#[derive(Debug, PartialEq, Eq)]
pub enum BatchPush {
    /// The batch reached its fill target: flush these commands now.
    Flush(Vec<(NodeId, Command)>),
    /// First command buffered since the last flush: arm the flush timer
    /// for `max_delay`.
    ArmTimer,
    /// Buffered behind an already-armed timer.
    Buffered,
}

/// Accumulates `(client, command)` pairs at an active leader.
#[derive(Debug)]
pub struct Batcher {
    cfg: BatchConfig,
    buf: Vec<(NodeId, Command)>,
    /// Arrival-rate EWMA (adaptive mode only).
    rate: RateEstimator,
}

impl Batcher {
    /// Empty batcher with the given policy.
    pub fn new(cfg: BatchConfig) -> Self {
        Batcher {
            buf: Vec::with_capacity(cfg.max_batch),
            cfg,
            rate: RateEstimator::new(),
        }
    }

    /// The active policy.
    pub fn config(&self) -> &BatchConfig {
        &self.cfg
    }

    /// True when batching is active (`max_batch > 1`).
    pub fn enabled(&self) -> bool {
        self.cfg.enabled()
    }

    /// Commands currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// True if a command with this id is already buffered (duplicate
    /// suppression for client retries).
    pub fn contains(&self, id: RequestId) -> bool {
        self.buf.iter().any(|(_, c)| c.id == id)
    }

    /// Highest sequence number of `client`'s buffered commands. Used to
    /// rebuild the per-client proposal floor after re-election.
    pub fn highest_buffered_seq(&self, client: NodeId) -> Option<u64> {
        self.buf
            .iter()
            .filter(|(_, c)| c.id.client == client)
            .map(|(_, c)| c.id.seq)
            .max()
    }

    /// The current fill target: `max_batch` in fixed mode; in adaptive
    /// mode, the arrivals expected within one `max_delay` window given
    /// the EWMA arrival rate, clamped to `[1, max_batch]`.
    pub fn target(&self) -> usize {
        if self.cfg.adaptive {
            self.rate.target(self.cfg.max_batch, self.cfg.max_delay)
        } else {
            self.cfg.max_batch
        }
    }

    /// Buffer a command arriving at `now`. Returns [`BatchPush::Flush`]
    /// with the full batch when it reaches the current fill target.
    pub fn push(&mut self, client: NodeId, command: Command, now: SimTime) -> BatchPush {
        if self.cfg.adaptive {
            self.rate.observe(now);
        }
        self.buf.push((client, command));
        if self.buf.len() >= self.target() {
            BatchPush::Flush(std::mem::take(&mut self.buf))
        } else if self.buf.len() == 1 {
            BatchPush::ArmTimer
        } else {
            BatchPush::Buffered
        }
    }

    /// Take whatever is buffered (the `max_delay` flush, or draining on
    /// abdication). May be empty.
    pub fn flush(&mut self) -> Vec<(NodeId, Command)> {
        std::mem::take(&mut self.buf)
    }
}

/// Buffers one execution wave's replies per destination client so one
/// envelope carries the whole wave. Keyed by a `BTreeMap` so flush order
/// is deterministic (the simulator's trace fingerprint depends on it).
#[derive(Debug)]
pub struct ReplyBatcher {
    on: bool,
    buf: BTreeMap<NodeId, Vec<ClientReply>>,
}

impl ReplyBatcher {
    /// Empty buffer; `on` is [`BatchConfig::coalesce_replies`].
    pub fn new(on: bool) -> Self {
        ReplyBatcher {
            on,
            buf: BTreeMap::new(),
        }
    }

    /// Route one executed-command reply: sent immediately when
    /// coalescing is off or the reply is too large for a batch's packed
    /// length field; otherwise buffered until [`ReplyBatcher::end_wave`].
    pub fn deliver<P: ProtoMessage>(
        &mut self,
        client: NodeId,
        reply: ClientReply,
        ctx: &mut Ctx<P>,
    ) {
        if self.on && crate::wire::fits_reply_batch(&reply) {
            self.buf.entry(client).or_default().push(reply);
        } else {
            ctx.reply(client, reply);
        }
    }

    /// End of one execution wave: ship its buffered replies, one
    /// (possibly batched) envelope per destination client in ascending
    /// node order.
    pub fn end_wave<P: ProtoMessage>(&mut self, ctx: &mut Ctx<P>) {
        for (client, replies) in std::mem::take(&mut self.buf) {
            ctx.reply_many(client, replies);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Operation;

    fn cmd(seq: u64) -> Command {
        Command {
            id: RequestId {
                client: NodeId(7),
                seq,
            },
            op: Operation::Get(seq),
        }
    }

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn disabled_config_flushes_every_push() {
        let mut b = Batcher::new(BatchConfig::disabled());
        assert!(!b.enabled());
        match b.push(NodeId(1), cmd(1), at(0)) {
            BatchPush::Flush(batch) => assert_eq!(batch.len(), 1),
            other => panic!("expected immediate flush, got {other:?}"),
        }
        assert!(b.is_empty());
    }

    #[test]
    fn fills_to_max_batch() {
        let mut b = Batcher::new(BatchConfig::new(3, SimDuration::from_millis(1)));
        assert_eq!(b.push(NodeId(1), cmd(1), at(0)), BatchPush::ArmTimer);
        assert_eq!(b.push(NodeId(2), cmd(2), at(1)), BatchPush::Buffered);
        match b.push(NodeId(3), cmd(3), at(2)) {
            BatchPush::Flush(batch) => {
                assert_eq!(batch.len(), 3);
                assert_eq!(batch[0].0, NodeId(1));
                assert_eq!(batch[2].1, cmd(3));
            }
            other => panic!("expected flush, got {other:?}"),
        }
        // Next command starts a fresh batch and needs a fresh timer.
        assert_eq!(b.push(NodeId(4), cmd(4), at(3)), BatchPush::ArmTimer);
    }

    #[test]
    fn timer_flush_takes_partial_batch() {
        let mut b = Batcher::new(BatchConfig::new(8, SimDuration::from_millis(1)));
        b.push(NodeId(1), cmd(1), at(0));
        b.push(NodeId(2), cmd(2), at(1));
        let batch = b.flush();
        assert_eq!(batch.len(), 2);
        assert!(b.is_empty());
        assert!(b.flush().is_empty(), "second flush has nothing");
    }

    #[test]
    fn duplicate_detection() {
        let mut b = Batcher::new(BatchConfig::new(8, SimDuration::from_millis(1)));
        b.push(NodeId(1), cmd(1), at(0));
        assert!(b.contains(cmd(1).id));
        assert!(!b.contains(cmd(2).id));
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_batch_rejected() {
        BatchConfig::new(0, SimDuration::ZERO);
    }

    #[test]
    fn adaptive_starts_latency_optimal() {
        // No rate estimate yet: the first commands flush immediately.
        let mut b = Batcher::new(BatchConfig::adaptive(32, SimDuration::from_micros(200)));
        assert_eq!(b.target(), 1);
        match b.push(NodeId(1), cmd(1), at(0)) {
            BatchPush::Flush(batch) => assert_eq!(batch.len(), 1),
            other => panic!("expected immediate flush, got {other:?}"),
        }
    }

    #[test]
    fn adaptive_grows_under_saturation_and_shrinks_when_idle() {
        let cfg = BatchConfig::adaptive(32, SimDuration::from_micros(200));
        let mut b = Batcher::new(cfg);
        // Dense arrivals: 1 µs apart → ~200 expected per window → capped.
        let mut t = 0;
        for seq in 1..=64 {
            b.push(NodeId(1), cmd(seq), at(t));
            t += 1;
        }
        assert_eq!(b.target(), 32, "saturation drives the target to max");
        // A long idle gap collapses the target back toward 1.
        b.push(NodeId(1), cmd(65), at(t + 100_000));
        assert_eq!(b.target(), 1, "idle gap restores latency-optimal mode");
        b.flush();
    }

    #[test]
    fn adaptive_tracks_moderate_rates() {
        // 50 µs gaps with a 200 µs window → target ≈ 4.
        let cfg = BatchConfig::adaptive(32, SimDuration::from_micros(200));
        let mut b = Batcher::new(cfg);
        let mut t = 0;
        for seq in 1..=32 {
            b.push(NodeId(1), cmd(seq), at(t));
            t += 50;
        }
        let target = b.target();
        assert!(
            (2..=8).contains(&target),
            "expected a mid-range target for 50us gaps, got {target}"
        );
    }

    #[test]
    fn reply_batcher_groups_per_destination_in_order() {
        use crate::envelope::Envelope;
        use rand::SeedableRng;
        use simnet::Effect;

        #[derive(Debug, Clone)]
        struct Nil;
        impl ProtoMessage for Nil {
            fn wire_size(&self) -> usize {
                0
            }
        }

        let id = |c: u32, s: u64| RequestId {
            client: NodeId(c),
            seq: s,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut effects: Vec<Effect<Envelope<Nil>>> = Vec::new();
        let mut seq = 0;
        let mut ctx = Ctx::new(SimTime::ZERO, NodeId(0), &mut rng, &mut effects, &mut seq);
        let mut r = ReplyBatcher::new(true);
        r.deliver(NodeId(9), ClientReply::ok(id(9, 1), None), &mut ctx);
        r.deliver(NodeId(3), ClientReply::ok(id(3, 1), None), &mut ctx);
        r.deliver(NodeId(9), ClientReply::ok(id(9, 2), None), &mut ctx);
        r.end_wave(&mut ctx);
        // The buffer is empty again: a second wave end sends nothing.
        r.end_wave(&mut ctx);
        let sent: Vec<(NodeId, usize)> = effects
            .iter()
            .map(|e| match e {
                Effect::Send {
                    to,
                    msg: Envelope::Reply(_),
                } => (*to, 1),
                Effect::Send {
                    to,
                    msg: Envelope::ReplyBatch(b),
                } => (*to, b.len()),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            sent,
            [(NodeId(3), 1), (NodeId(9), 2)],
            "one envelope per client, ascending node order, both replies to 9 coalesced"
        );
    }
}
