//! The Paxos replica — one protocol core, a pluggable disseminator.
//!
//! The paper's framing is that PigPaxos "required almost no changes to
//! the core Paxos code": it swaps the leader↔follower *communication
//! flow* and nothing else. This module is that sentence as a type.
//! [`Replica<D>`] owns the [`Acceptor`] and [`Leader`] roles, the
//! session table, the admission lane and every decision handler and
//! timer arm — exactly once. What differs between protocols sits behind
//! the statically dispatched [`Dissemination`] seam:
//!
//! - the wire envelope around a [`PaxosMsg`];
//! - who receives a leader fan-out ([`Dissemination::fan_out`]);
//! - a first look at every incoming envelope
//!   ([`Dissemination::receive`]), so a relay can unwrap its
//!   instructions and absorb votes into its aggregation table before
//!   the core sees them;
//! - the disseminator's own timers and an off-log request hook, in a
//!   timer-kind range disjoint from the core's [`Timer`].
//!
//! [`Direct`] is the baseline the paper measures against: the leader
//! fans every phase message out to all `N−1` followers and receives all
//! their responses itself, so its message load is `2(N−1)+2` per
//! operation (paper Table 1, "Paxos" row). `pigpaxos::RelayTree` is the
//! paper's contribution.

use crate::acceptor::{Acceptor, CommitAdvance, LearnAnswer};
use crate::batching::{self, Batch, BatchLane};
use crate::config::PaxosConfig;
use crate::leader::{Leader, Phase1Outcome};
use crate::messages::{P2bVote, PaxosMsg, QrProbeVote, QrVoteEntry, META_LEN_MAX};
use paxi::{
    Ballot, ClientReply, ClientRequest, ClusterConfig, Command, Ctx, Envelope, Key, KvStore,
    ProtoMessage, ReplicaActor, ReplicaCtx, ReplyBatcher, RequestId, SessionTable, Value,
};
use rand::Rng;
use simnet::{Actor, CpuCostModel, NodeId, SimDuration, SimTime, TimerId};
use std::collections::VecDeque;

/// Largest number of slots requested in one batched `LearnReq`.
const LEARN_BATCH_MAX: usize = 4096;

/// One executed command: `(slot, request, value)`.
pub type Executed = (u64, RequestId, Option<Value>);

/// Timer kinds of the protocol core. A [`Dissemination`] numbers its
/// own kinds from [`Timer::DISSEMINATION_BASE`] up, so the two ranges
/// cannot collide and the core forwards whatever it does not know.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum Timer {
    /// A follower's (randomized) election timeout.
    Election = 1,
    /// The leader's heartbeat period.
    Heartbeat,
    /// The leader's scan for phase-2 rounds to re-send.
    RetryScan,
    /// A follower's delayed, batched gap repair.
    Learn,
    /// The admission lane's `max_delay` batch flush.
    Batch,
    /// The reply-coalescing window.
    Reply,
}

impl Timer {
    /// First timer kind (low byte) available to a disseminator.
    pub const DISSEMINATION_BASE: u64 = 0x10;

    fn of(kind: u64) -> Option<Timer> {
        use Timer::*;
        [Election, Heartbeat, RetryScan, Learn, Batch, Reply]
            .into_iter()
            .find(|&t| t as u64 == kind)
    }
}

/// How far a leader fan-out has to reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reach {
    /// Every follower: phase 1, heartbeats, and phase-2 *retries*.
    All,
    /// A phase-2 quorum is enough: the first send of an accept round.
    Quorum,
}

/// The communication flow between the leader and its followers — the
/// one thing the paper changes. Hooks are associated functions over the
/// whole replica because the flow is re-entrant: answering a relayed
/// message can release a held batch, which fans out again.
pub trait Dissemination: Sized + Send + 'static {
    /// The wire envelope protocol messages travel in.
    type Msg: ProtoMessage + Send;
    /// The protocol's configuration (its `ProtocolSpec`).
    type Config;

    /// Build the disseminator for `me`, handing the core its timers.
    fn build(me: NodeId, cluster: &ClusterConfig, cfg: Self::Config) -> (Self, PaxosConfig);

    /// Wrap a point-to-point Paxos message in the wire envelope.
    fn wrap(msg: PaxosMsg) -> Self::Msg;

    /// Send a leader-originated `msg` towards the followers.
    fn fan_out(r: &mut Replica<Self>, msg: PaxosMsg, reach: Reach, ctx: &mut Ctx<Self::Msg>);

    /// An envelope arrived: unwrap it, consume what belongs to the
    /// disseminator, and hand the rest to [`Replica::deliver`] by value.
    fn receive(r: &mut Replica<Self>, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<Self::Msg>);

    /// Arm the disseminator's own timers (after the core's).
    fn on_start(_r: &mut Replica<Self>, _ctx: &mut Ctx<Self::Msg>) {}

    /// A timer outside the core's [`Timer`] range fired.
    fn on_timer(_r: &mut Replica<Self>, _kind: u64, _ctx: &mut Ctx<Self::Msg>) {}

    /// Offered every request that reaches a replica which is not the
    /// active leader; return true to serve it without the leader's log.
    fn serve_off_log(
        _r: &mut Replica<Self>,
        _client: NodeId,
        _cmd: &Command,
        _ctx: &mut Ctx<Self::Msg>,
    ) -> bool {
        false
    }

    /// True when [`Dissemination::serve_off_log`] can take commands, so
    /// a client's sequence numbers have legitimate gaps at the leader.
    fn bypasses_log(&self) -> bool {
        false
    }
}

/// Direct Multi-Paxos: the leader talks to every follower itself.
#[derive(Debug)]
pub struct Direct;

impl Dissemination for Direct {
    type Msg = PaxosMsg;
    type Config = PaxosConfig;

    fn build(_me: NodeId, _cluster: &ClusterConfig, cfg: PaxosConfig) -> (Self, PaxosConfig) {
        (Direct, cfg)
    }

    fn wrap(msg: PaxosMsg) -> PaxosMsg {
        msg
    }

    /// All peers — or, under the thrifty optimization, exactly enough
    /// for a q2 quorum (own vote included) on an accept round's first
    /// send. Retries fall back to the full fan-out, recovering from a
    /// sluggish member at latency cost (paper §2.2).
    fn fan_out(r: &mut Replica<Self>, msg: PaxosMsg, reach: Reach, ctx: &mut Ctx<PaxosMsg>) {
        let peers = match reach {
            Reach::Quorum if r.cfg.thrifty => r.leader.q2().saturating_sub(1),
            _ => usize::MAX,
        };
        for peer in r.cluster.peers(r.me).into_iter().take(peers) {
            ctx.send_proto(peer, msg.clone());
        }
    }

    fn receive(r: &mut Replica<Self>, from: NodeId, msg: PaxosMsg, ctx: &mut Ctx<PaxosMsg>) {
        r.deliver(from, msg, ctx);
    }
}

/// A Multi-Paxos replica (leader-capable).
pub type PaxosReplica = Replica<Direct>;

/// A single-leader Paxos replica whose leader↔follower communication is
/// `D` (see the module docs).
pub struct Replica<D: Dissemination> {
    me: NodeId,
    pub(crate) cluster: ClusterConfig,
    cfg: PaxosConfig,
    pub(crate) acceptor: Acceptor,
    leader: Leader,
    known_leader: Option<NodeId>,
    last_leader_contact: SimTime,
    /// Clients waiting for a slot to execute, ascending by slot: this
    /// node proposes into ever higher slots and executes in slot order,
    /// so the next reply owed is at the front.
    waiting: VecDeque<(u64, NodeId)>,
    /// Recently executed replies per client, for exactly-once retries.
    pub(crate) sessions: SessionTable,
    /// Client-command admission: duplicate suppression, per-client
    /// sequencing, and the batch buffer (active leader only).
    lane: BatchLane,
    /// Executed-command replies buffered per destination client.
    replies: ReplyBatcher,
    /// True while a reply flush timer is in flight.
    reply_timer_armed: bool,
    election_timeout: SimDuration,
    /// Highest watermark we observed with gaps below it; a learn timer
    /// is armed while repair is pending.
    repair_up_to: u64,
    repair_armed: bool,
    /// The disseminator's own state (relay tables, read proxy, …).
    pub d: D,
}

impl<D: Dissemination> Replica<D> {
    /// Create the replica for `me`.
    pub fn new(me: NodeId, cluster: ClusterConfig, cfg: D::Config) -> Self {
        let (d, cfg) = D::build(me, &cluster, cfg);
        let mut acceptor = Acceptor::new(me, cluster.safety.clone());
        acceptor.set_snapshot_config(cfg.snapshot.clone());
        let leader = match cfg.flexible_quorums {
            Some((q1, q2)) => Leader::with_quorums(me, cluster.n(), q1, q2),
            None => Leader::new(me, cluster.n()),
        };
        // Every command of every client flows through the leader's log,
        // so per-client sequencing holds — unless the disseminator serves
        // some commands off the log (PQR reads at follower proxies): a
        // gap would then be held forever.
        let sequencing = !d.bypasses_log();
        Replica {
            me,
            lane: BatchLane::new(cfg.batch.clone(), sequencing),
            replies: ReplyBatcher::new(cfg.batch.replies),
            reply_timer_armed: false,
            cfg,
            acceptor,
            leader,
            known_leader: Some(cluster.leader),
            last_leader_contact: SimTime::ZERO,
            waiting: VecDeque::new(),
            sessions: SessionTable::new(),
            election_timeout: SimDuration::ZERO,
            repair_up_to: 0,
            repair_armed: false,
            cluster,
            d,
        }
    }

    /// The leader this replica currently believes in (redirect target).
    pub fn known_leader(&self) -> Option<NodeId> {
        self.known_leader
    }

    /// This replica's answer to a quorum-read probe of `key`.
    pub fn read_state(&self, key: Key) -> QrVoteEntry {
        self.acceptor.read_state(key)
    }

    fn send(&self, to: NodeId, msg: PaxosMsg, ctx: &mut Ctx<D::Msg>) {
        ctx.send_proto(to, D::wrap(msg));
    }

    fn begin_campaign(&mut self, ctx: &mut Ctx<D::Msg>) {
        let ballot = self.leader.start_campaign(self.acceptor.promised());
        let watermark = self.acceptor.commit_watermark();
        // Self-vote first; in a 1-node cluster this already wins.
        let own = self.acceptor.on_p1a(ballot, watermark);
        let reach = self.acceptor.log().reach();
        let outcome = self.leader.on_p1b_votes(vec![own], watermark, reach);
        self.handle_phase1_outcome(outcome, ctx);
        let from = watermark;
        D::fan_out(self, PaxosMsg::P1a { ballot, from }, Reach::All, ctx);
    }

    fn handle_phase1_outcome(&mut self, outcome: Phase1Outcome, ctx: &mut Ctx<D::Msg>) {
        match outcome {
            Phase1Outcome::Pending => {}
            Phase1Outcome::Won { reproposals } => {
                self.known_leader = Some(self.me);
                for (slot, cmd) in reproposals {
                    self.leader.register(slot, cmd.clone(), None, ctx.now());
                    self.send_accepts(slot, cmd, ctx);
                }
                // Serve commands that queued up during the campaign,
                // through the same admission path as live requests.
                while let Some((client, cmd)) = self.leader.pending.pop_front() {
                    self.admit_and_propose(client, cmd, ctx);
                }
            }
            Phase1Outcome::Preempted { higher } => self.abdicate(higher.node(), ctx),
        }
    }

    /// Abandon leadership: redirect every command queued during the
    /// campaign and every command the admission lane still holds
    /// (buffered or awaiting predecessors) toward `to`, cancel the
    /// batch flush timer so it cannot fire into the next term, and ship
    /// any replies still buffered for coalescing (executed results stay
    /// valid across abdication).
    fn abdicate(&mut self, to: NodeId, ctx: &mut Ctx<D::Msg>) {
        self.leader.demote();
        self.known_leader = Some(to);
        let (abandoned, timer) = self.lane.abandon();
        for (client, cmd) in self.leader.pending.drain(..).chain(abandoned) {
            ctx.reply(client, ClientReply::redirect(cmd.id, Some(to)));
        }
        if let Some(t) = timer {
            ctx.cancel_timer(t);
        }
        self.replies.flush_into(ctx);
    }

    /// Run a client command through the admission lane and propose
    /// whatever it flushes.
    fn admit_and_propose(&mut self, client: NodeId, cmd: Command, ctx: &mut Ctx<D::Msg>) {
        let batches = self.lane.admit(
            &self.leader,
            &self.acceptor,
            &self.sessions,
            client,
            cmd,
            ctx,
        );
        for batch in batches {
            self.propose_batch(batch, ctx);
        }
    }

    /// Propose a flushed batch: allocate consecutive slots, self-vote
    /// each, then fan out a single `P2aBatch` carrying all of them —
    /// this is where N commands start costing one message per follower
    /// (or per relay group) instead of N.
    fn propose_batch(&mut self, mut batch: Batch, ctx: &mut Ctx<D::Msg>) {
        if batch.len() <= 1 {
            if let Some((client, cmd)) = batch.pop() {
                let slot = self.leader.propose(Some(client), cmd.clone(), ctx.now());
                self.waiting.push_back((slot, client));
                self.send_accepts(slot, cmd, ctx);
            }
            return;
        }
        let p = batching::propose_batch(&mut self.leader, &mut self.acceptor, batch, ctx.now());
        self.waiting.extend(p.waiting);
        for adv in p.advances {
            self.finish_advance(adv, ctx);
        }
        for (slot, cmd) in p.self_commits {
            self.commit_and_execute(slot, cmd, ctx);
        }
        let msg = PaxosMsg::P2aBatch {
            ballot: p.ballot,
            first_slot: p.first_slot,
            commands: p.commands,
            commit_up_to: p.commit_up_to,
        };
        D::fan_out(self, msg, Reach::Quorum, ctx);
    }

    /// Self-vote on one slot, then fan its `P2a` out.
    fn send_accepts(&mut self, slot: u64, command: Command, ctx: &mut Ctx<D::Msg>) {
        let ballot = self.leader.ballot();
        let commit_up_to = self.acceptor.commit_watermark();
        let (own, adv) = self
            .acceptor
            .on_p2a(ballot, slot, command.clone(), commit_up_to)
            .expect("a slot this leader allocated is in reach of its own log");
        self.finish_advance(adv, ctx);
        if let Ok(Some((slot, cmd, _client))) = self.leader.on_p2b_vote(own) {
            self.commit_and_execute(slot, cmd, ctx);
        }
        let msg = PaxosMsg::P2a {
            ballot,
            slot,
            command,
            commit_up_to,
        };
        D::fan_out(self, msg, Reach::Quorum, ctx);
    }

    fn commit_and_execute(&mut self, slot: u64, cmd: Command, ctx: &mut Ctx<D::Msg>) {
        self.acceptor.commit(slot, self.leader.ballot(), cmd);
        let executed = self.acceptor.execute_ready();
        self.reply_executed(executed, ctx);
    }

    /// The reply leg, run after every execution wave: charge execution
    /// cost, record every reply in the session table, route waiting
    /// clients' replies through the (possibly coalescing) reply
    /// batcher, close the wave, propose any held admissions the session
    /// advance unblocked, and give compaction its turn.
    fn reply_executed(&mut self, executed: Vec<Executed>, ctx: &mut Ctx<D::Msg>) {
        if executed.is_empty() {
            return;
        }
        ctx.charge(CpuCostModel::EXEC_COST * executed.len() as u64);
        for (slot, id, value) in executed {
            let reply = ClientReply::ok(id, value);
            // Every replica caches the reply so retries are answered
            // without another consensus round, even after a leader
            // change.
            self.sessions.record(&reply);
            // After a leader change the slot may have been decided with
            // another client's command than the one this node proposed
            // there; that reply is not this node's to send, and never to
            // the client it proposed for.
            let Some(client) = self.take_waiting(slot).filter(|&c| c == id.client) else {
                continue;
            };
            if let Some(window) = self.replies.deliver(client, reply, ctx) {
                if !self.reply_timer_armed {
                    self.reply_timer_armed = true;
                    ctx.set_timer(window, Timer::Reply as u64);
                }
            }
        }
        self.replies.end_wave(ctx);
        // Executions advance the session table, which can release held
        // out-of-order commands.
        if self.leader.is_active() {
            let ready = self
                .lane
                .drain_ready(&self.leader, &self.acceptor, &self.sessions, ctx);
            for batch in ready {
                self.propose_batch(batch, ctx);
            }
        }
        self.compact_after_execution();
    }

    /// The client owed a reply for `slot`, if this node proposed it.
    /// Slots below it still waiting were skipped by a snapshot install
    /// and will never execute here; they go too.
    fn take_waiting(&mut self, slot: u64) -> Option<NodeId> {
        while let Some(&(s, client)) = self.waiting.front() {
            if s > slot {
                break;
            }
            self.waiting.pop_front();
            if s == slot {
                return Some(client);
            }
        }
        None
    }

    fn finish_advance(&mut self, adv: CommitAdvance, ctx: &mut Ctx<D::Msg>) {
        if let Some(up_to) = adv.learn_needed {
            self.repair_up_to = self.repair_up_to.max(up_to);
            if !self.repair_armed {
                self.repair_armed = true;
                ctx.set_timer(self.cfg.learn_delay, Timer::Learn as u64);
            }
        }
        self.reply_executed(adv.executed, ctx);
    }

    /// Fire the batched gap repair: ask the leader for exactly the
    /// slots still missing (most in-flight gaps will have healed by
    /// now). Under relay dissemination a whole group loses a slot
    /// whenever its chosen relay is down, so this path runs in every
    /// faulty run — batching keeps it off the leader's hot path (paper
    /// Fig. 13's ≈3% dip).
    fn send_learn_request(&mut self, ctx: &mut Ctx<D::Msg>) {
        self.repair_armed = false;
        let Some(leader) = self.known_leader.filter(|&l| l != self.me) else {
            return;
        };
        let slots = self
            .acceptor
            .missing_slots(self.repair_up_to, LEARN_BATCH_MAX);
        if !slots.is_empty() {
            self.send(leader, PaxosMsg::LearnReq { slots }, ctx);
        }
    }

    /// An accepted ballot is evidence of a live leader; a higher one
    /// than ours deposes us (`campaign_too`: even mid-campaign).
    fn follow(&mut self, ballot: Ballot, campaign_too: bool, ctx: &mut Ctx<D::Msg>) {
        self.known_leader = Some(ballot.node());
        self.last_leader_contact = ctx.now();
        let contending = self.leader.is_active() || (campaign_too && self.leader.is_campaigning());
        if contending && ballot > self.leader.ballot() {
            self.abdicate(ballot.node(), ctx);
        }
    }

    fn arm_election_timer(&mut self, ctx: &mut Ctx<D::Msg>) {
        let min = self.cfg.election_timeout_min.as_nanos();
        let max = self.cfg.election_timeout_max.as_nanos();
        self.election_timeout = SimDuration::from_nanos(ctx.rng().gen_range(min..=max));
        ctx.set_timer(self.election_timeout, Timer::Election as u64);
    }

    /// Process a Paxos message addressed to this node and send the
    /// response it calls for, if any, back to `from`.
    pub fn deliver(&mut self, from: NodeId, msg: PaxosMsg, ctx: &mut Ctx<D::Msg>) {
        if let Some(reply) = self.handle(msg, ctx) {
            self.send(from, reply, ctx);
        }
    }

    /// Process a Paxos message and return this node's own response to
    /// it instead of sending it — what a relay seeds its aggregation
    /// with. This is the only place Paxos messages are interpreted.
    pub fn handle(&mut self, msg: PaxosMsg, ctx: &mut Ctx<D::Msg>) -> Option<PaxosMsg> {
        match msg {
            PaxosMsg::P1a { ballot, from } => {
                let vote = self.acceptor.on_p1a(ballot, from);
                if vote.ok {
                    self.follow(ballot, true, ctx);
                }
                let ballot = vote.ballot;
                let votes = vec![vote];
                Some(PaxosMsg::P1b { ballot, votes })
            }
            PaxosMsg::P1b { ballot, mut votes } => {
                if ballot == self.leader.ballot() && self.leader.is_campaigning() {
                    // A promise may carry a snapshot when our watermark
                    // lies below the promiser's compaction floor; it is
                    // installed before the vote is counted (see
                    // `crate::catchup`).
                    self.install_p1b_snapshots(&mut votes);
                    let watermark = self.acceptor.commit_watermark();
                    let reach = self.acceptor.log().reach();
                    let outcome = self.leader.on_p1b_votes(votes, watermark, reach);
                    self.handle_phase1_outcome(outcome, ctx);
                }
                None
            }
            PaxosMsg::P2a {
                ballot,
                slot,
                command,
                commit_up_to,
            } => {
                let (vote, adv) = self.acceptor.on_p2a(ballot, slot, command, commit_up_to)?;
                if vote.ok {
                    self.follow(ballot, false, ctx);
                }
                self.finish_advance(adv, ctx);
                let ballot = vote.ballot;
                let votes = vec![vote];
                Some(PaxosMsg::P2b {
                    ballot,
                    slot,
                    votes,
                })
            }
            PaxosMsg::P2b {
                ballot,
                slot,
                votes,
            } => {
                if self.leader.is_active() && ballot == self.leader.ballot() {
                    match self.leader.on_p2b_votes(slot, votes) {
                        Ok(Some((slot, cmd, _client))) => self.commit_and_execute(slot, cmd, ctx),
                        Ok(None) => {}
                        Err(higher) => self.abdicate(higher.node(), ctx),
                    }
                }
                None
            }
            PaxosMsg::P2aBatch {
                ballot,
                first_slot,
                commands,
                commit_up_to,
            } => {
                let acc = batching::accept_batch(
                    &mut self.acceptor,
                    ballot,
                    first_slot,
                    &commands,
                    commit_up_to,
                );
                for adv in acc.advances {
                    self.finish_advance(adv, ctx);
                }
                if acc.any_ok {
                    self.follow(ballot, false, ctx);
                }
                let last_slot = acc.votes.last()?.slot;
                Some(PaxosMsg::P2bBatch {
                    ballot: acc.reply_ballot,
                    first_slot,
                    last_slot,
                    votes: acc.votes,
                })
            }
            PaxosMsg::P2bBatch { ballot, votes, .. } => {
                self.count_batch_votes(ballot, votes, ctx);
                None
            }
            PaxosMsg::Heartbeat {
                ballot,
                commit_up_to,
            } => {
                if ballot >= self.acceptor.promised() {
                    self.known_leader = Some(ballot.node());
                    self.last_leader_contact = ctx.now();
                    let adv = self.acceptor.advance_commits(commit_up_to, ballot);
                    self.finish_advance(adv, ctx);
                }
                None
            }
            PaxosMsg::LearnReq { slots } => {
                let ballot = self.acceptor.promised();
                Some(match self.acceptor.serve_learn(&slots)? {
                    LearnAnswer::Entries(entries) => PaxosMsg::LearnRep { ballot, entries },
                    // The requested prefix was compacted away: catch
                    // the follower up from state, not slots.
                    LearnAnswer::Snapshot(snapshot, entries) => PaxosMsg::SnapshotTransfer {
                        ballot,
                        snapshot,
                        entries,
                    },
                })
            }
            PaxosMsg::LearnRep { ballot, entries } => {
                for (slot, cmd) in entries {
                    self.acceptor.commit(slot, ballot, cmd);
                }
                let executed = self.acceptor.execute_ready();
                self.reply_executed(executed, ctx);
                None
            }
            PaxosMsg::SnapshotTransfer {
                ballot,
                snapshot,
                entries,
            } => {
                let executed = self.apply_snapshot_transfer(ballot, &snapshot, entries);
                self.reply_executed(executed, ctx);
                None
            }
            PaxosMsg::QrRead {
                reader,
                id,
                attempt,
                key,
            } => Some(PaxosMsg::QrVote {
                reader,
                id,
                attempt,
                votes: vec![self.read_state(key)],
            }),
            PaxosMsg::QrReadBatch {
                reader,
                wave,
                probes,
            } => {
                let votes = probes.into_iter().map(|p| QrProbeVote {
                    id: p.id,
                    attempt: p.attempt,
                    entry: self.read_state(p.key),
                });
                Some(PaxosMsg::QrVoteBatch {
                    reader,
                    wave,
                    votes: votes.collect(),
                })
            }
            // Quorum-read answers belong to whoever proxies the read —
            // a disseminator's business (PigPaxos); strays are dropped.
            PaxosMsg::QrVote { .. } | PaxosMsg::QrVoteBatch { .. } => None,
        }
    }

    /// Feed a batched phase-2b response through the guard +
    /// commit-the-wave-then-execute-once helper. Commits are applied
    /// even when the same batch reports a preemption — a quorum of acks
    /// means *chosen*, and the slot is already out of `outstanding`.
    fn count_batch_votes(&mut self, ballot: Ballot, votes: Vec<P2bVote>, ctx: &mut Ctx<D::Msg>) {
        let Some(wave) =
            batching::apply_batch_votes(&mut self.leader, &mut self.acceptor, ballot, votes)
        else {
            return;
        };
        self.reply_executed(wave.executed, ctx);
        if let Some(higher) = wave.preempted {
            self.abdicate(higher.node(), ctx);
        }
    }
}

impl<D: Dissemination> paxi::Replica<D::Msg> for Replica<D> {
    fn on_start(&mut self, ctx: &mut Ctx<D::Msg>) {
        self.last_leader_contact = ctx.now();
        if self.me == self.cluster.leader {
            self.begin_campaign(ctx);
            ctx.set_timer(self.cfg.heartbeat_interval, Timer::Heartbeat as u64);
        } else {
            self.arm_election_timer(ctx);
        }
        ctx.set_timer(self.cfg.p2_retry_timeout / 2, Timer::RetryScan as u64);
        D::on_start(self, ctx);
    }

    fn on_request(&mut self, client: NodeId, req: ClientRequest, ctx: &mut Ctx<D::Msg>) {
        let cmd = req.command;
        // A value the log's entry encoding cannot carry is refused here,
        // for good (no redirect): once chosen it would abort every
        // replica that has to ship it in a P1b, learn reply or snapshot.
        // Nothing was admitted, so the sequence number is the client's
        // to use again (the lane would wait for it otherwise).
        if paxi::wire::command_value_len(&cmd) > META_LEN_MAX {
            ctx.reply(client, ClientReply::redirect(cmd.id, None));
            return;
        }
        // Exactly-once: a retry of the last executed command gets the
        // cached reply; anything older is a stale duplicate.
        if let Some(reply) = self.sessions.replay(cmd.id) {
            ctx.reply(client, reply.clone());
            return;
        }
        if self.sessions.is_stale(cmd.id) {
            return;
        }
        if self.leader.is_active() {
            self.admit_and_propose(client, cmd, ctx);
        } else if D::serve_off_log(self, client, &cmd, ctx) {
            // Served by the disseminator (a quorum read at this proxy).
        } else if self.leader.is_campaigning() || self.me == self.cluster.leader {
            self.leader.pending.push_back((client, cmd));
        } else {
            ctx.reply(client, ClientReply::redirect(cmd.id, self.known_leader));
        }
    }

    fn on_proto(&mut self, from: NodeId, msg: D::Msg, ctx: &mut Ctx<D::Msg>) {
        D::receive(self, from, msg, ctx);
    }

    fn on_timer(&mut self, _id: TimerId, kind: u64, ctx: &mut Ctx<D::Msg>) {
        match Timer::of(kind) {
            Some(Timer::Election) => {
                let idle = ctx.now().saturating_sub(self.last_leader_contact);
                if !self.leader.is_active()
                    && !self.leader.is_campaigning()
                    && idle >= self.election_timeout
                {
                    self.begin_campaign(ctx);
                    // Heartbeats start once (if) the campaign wins, via
                    // this same chain: keep both timers running.
                    ctx.set_timer(self.cfg.heartbeat_interval, Timer::Heartbeat as u64);
                }
                self.arm_election_timer(ctx);
            }
            Some(Timer::Heartbeat) => {
                if self.leader.is_active() {
                    let msg = PaxosMsg::Heartbeat {
                        ballot: self.leader.ballot(),
                        commit_up_to: self.acceptor.commit_watermark(),
                    };
                    D::fan_out(self, msg, Reach::All, ctx);
                }
                // Keep the chain alive while leading or campaigning;
                // otherwise let it die — a future campaign re-arms it.
                if self.leader.is_active() || self.leader.is_campaigning() {
                    ctx.set_timer(self.cfg.heartbeat_interval, Timer::Heartbeat as u64);
                }
            }
            Some(Timer::RetryScan) => {
                if self.leader.is_active() {
                    let stale = self
                        .leader
                        .stale_proposals(ctx.now(), self.cfg.p2_retry_timeout);
                    let ballot = self.leader.ballot();
                    let commit_up_to = self.acceptor.commit_watermark();
                    for (slot, command) in stale {
                        let msg = PaxosMsg::P2a {
                            ballot,
                            slot,
                            command,
                            commit_up_to,
                        };
                        D::fan_out(self, msg, Reach::All, ctx);
                    }
                }
                ctx.set_timer(self.cfg.p2_retry_timeout / 2, Timer::RetryScan as u64);
            }
            Some(Timer::Learn) => self.send_learn_request(ctx),
            Some(Timer::Batch) => {
                if self.leader.is_active() {
                    let batch = self.lane.on_flush_timer();
                    self.propose_batch(batch, ctx);
                }
            }
            Some(Timer::Reply) => {
                self.reply_timer_armed = false;
                self.replies.flush_into(ctx);
            }
            None => D::on_timer(self, kind, ctx),
        }
    }

    fn applied(&self) -> Option<&KvStore> {
        Some(self.acceptor.kv())
    }
}

/// [`PaxosConfig`] is the protocol's [`paxi::ProtocolSpec`]: hand it to
/// [`paxi::Experiment`] to run direct Multi-Paxos on any topology and
/// any execution substrate. Clients default to the stable leader
/// (replica 0).
impl paxi::ProtocolSpec for PaxosConfig {
    type Msg = PaxosMsg;

    fn protocol_name(&self) -> &'static str {
        "paxos"
    }

    fn build_replica(
        &self,
        node: NodeId,
        cluster: &ClusterConfig,
    ) -> Box<dyn Actor<Envelope<PaxosMsg>> + Send> {
        Box::new(ReplicaActor(PaxosReplica::new(
            node,
            cluster.clone(),
            self.clone(),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi::Experiment;
    use simnet::{Control, SimTime};

    fn exp(n: usize, clients: usize) -> Experiment<PaxosConfig> {
        Experiment::lan(PaxosConfig::lan(), n)
            .clients(clients)
            .warmup(SimDuration::from_millis(300))
            .measure(SimDuration::from_millis(700))
    }

    #[test]
    fn conforms_at_three_and_five_nodes() {
        // Commits, follower crash, leader crash + re-election: shared
        // with every other single-leader protocol.
        paxi::conformance::check_replica(PaxosConfig::lan(), 3, 4);
        paxi::conformance::check_replica(PaxosConfig::lan(), 5, 8);
    }

    #[test]
    fn leader_messages_scale_with_cluster_size() {
        // Paper Table 1/2: Paxos leader handles 2(N-1)+2 msgs/op.
        let r5 = exp(5, 8).run_sim(paxi::DEFAULT_SEED);
        let r9 = exp(9, 8).run_sim(paxi::DEFAULT_SEED);
        assert!(
            (r5.transport.leader_msgs_per_op - 10.0).abs() < 2.0,
            "5 nodes: expected ≈10 msgs/op at leader, got {}",
            r5.transport.leader_msgs_per_op
        );
        assert!(
            (r9.transport.leader_msgs_per_op - 18.0).abs() < 3.0,
            "9 nodes: expected ≈18 msgs/op at leader, got {}",
            r9.transport.leader_msgs_per_op
        );
        assert!(r9.transport.leader_msgs_per_op > r5.transport.leader_msgs_per_op);
    }

    #[test]
    fn flexible_quorums_commit_and_stay_safe() {
        // The paper's §2.2 example: N=10, Q1=8, Q2=3.
        let mut cfg = PaxosConfig::lan();
        cfg.flexible_quorums = Some((8, 3));
        let r = Experiment::lan(cfg, 10)
            .clients(6)
            .warmup(SimDuration::from_millis(300))
            .measure(SimDuration::from_millis(700))
            .run_sim(paxi::DEFAULT_SEED);
        assert!(
            r.protocol.violations().is_empty(),
            "{:?}",
            r.protocol.violations()
        );
        assert!(r.client.throughput > 100.0);
    }

    #[test]
    fn flexible_q2_cuts_wan_latency_but_not_leader_load() {
        // 15-node WAN, 5 replicas per region, leader in Virginia. A Q2
        // of 5 commits entirely within the leader's region; the majority
        // configuration must wait for California.
        let wan = |cfg: PaxosConfig| {
            Experiment::wan(cfg, 15)
                .clients(4)
                .warmup(SimDuration::from_millis(500))
                .measure(SimDuration::from_secs(2))
                .run_sim(paxi::DEFAULT_SEED)
        };
        let majority = wan(PaxosConfig::wan());
        let mut cfg = PaxosConfig::wan();
        cfg.flexible_quorums = Some((11, 5));
        let flexible = wan(cfg);
        assert!(flexible.protocol.violations().is_empty());
        assert!(
            flexible.client.mean_latency_ms < majority.client.mean_latency_ms / 5.0,
            "intra-region Q2 must avoid WAN RTT: {:.1}ms vs {:.1}ms",
            flexible.client.mean_latency_ms,
            majority.client.mean_latency_ms
        );
        // The paper's caveat: the leader still fans out to everyone, so
        // its per-op message load is unchanged.
        assert!(
            (flexible.transport.leader_msgs_per_op - majority.transport.leader_msgs_per_op).abs()
                < 2.0,
            "leader load unchanged: {:.1} vs {:.1}",
            flexible.transport.leader_msgs_per_op,
            majority.transport.leader_msgs_per_op
        );
    }

    #[test]
    fn thrifty_reduces_leader_messages_but_one_crash_hurts() {
        let mut cfg = PaxosConfig::lan();
        cfg.thrifty = true;
        let base = Experiment::lan(cfg, 9)
            .clients(4)
            .warmup(SimDuration::from_millis(300))
            .measure(SimDuration::from_millis(700));
        let healthy = base.run_sim(paxi::DEFAULT_SEED);
        assert!(healthy.protocol.violations().is_empty());
        // Thrifty: 1 req + (q2-1)=4 sends + 4 acks + 1 reply = 10 per op
        // instead of 18.
        assert!(
            healthy.transport.leader_msgs_per_op < 12.0,
            "thrifty must cut leader load: {:.1}",
            healthy.transport.leader_msgs_per_op
        );

        // Crash one of the thrifty quorum members: every commit now
        // rides the retry path (paper: "a single faulty or sluggish
        // node in Q2 stalls the performance").
        let crashed = base.run_sim_with(paxi::DEFAULT_SEED, |sim| {
            sim.schedule_control(SimTime::from_millis(100), Control::Crash(NodeId(1)));
        });
        assert!(crashed.protocol.violations().is_empty());
        assert!(
            crashed.client.mean_latency_ms > healthy.client.mean_latency_ms * 5.0,
            "thrifty + crash must stall: {:.1}ms vs {:.1}ms",
            crashed.client.mean_latency_ms,
            healthy.client.mean_latency_ms
        );
    }
}
