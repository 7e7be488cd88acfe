//! Leader/acceptor plumbing for phase 2, one command or many.
//!
//! There is one replica ([`crate::replica::Replica`]) and it runs phase 2
//! one way, whatever the batch size — only the *dissemination* of the
//! resulting phase-2a (full fan-out vs. relay tree) is pluggable, so
//! the two protocols cannot drift by construction. This module holds
//! the pieces of that path that need no handler context, which is also
//! what lets `pigpaxos_bench::hotpath` drive them without a simulator:
//!
//! - [`BatchLane`]: client-command admission at an active leader —
//!   duplicate suppression, per-client sequencing (pipelined clients'
//!   requests can arrive reordered by network jitter; the lane holds
//!   successors until their predecessors are proposed so the decided
//!   log preserves per-client issue order), and the size-or-time
//!   (or adaptive) batch buffer;
//! - [`propose_batch`] / [`accept_own`]: slot allocation, the wire form
//!   (a lone command is a batch of one, sent as a `P2a`), and the
//!   leader's own acceptance and vote;
//! - [`accept_batch`]: a follower's acceptance of either phase-2a form,
//!   and its reply;
//! - [`apply_batch_votes`]: the leader's one guarded count of a `P2b`
//!   or `P2bBatch`, committing the wave and then executing once.

use crate::acceptor::{Acceptor, CommitAdvance};
use crate::leader::Leader;
use crate::messages::{P2bVote, PaxosMsg};
use crate::replica::{Executed, Timer};
use paxi::{
    Ballot, BatchConfig, BatchPush, Batcher, Command, Ctx, ProtoMessage, RequestId, SessionTable,
};
use simnet::{NodeId, SimTime, TimerId};
use std::collections::{BTreeMap, VecDeque};

/// A flushed batch ready to propose: `(client, command)` pairs in
/// admission order.
pub type Batch = Vec<(NodeId, Command)>;

/// Client-command admission and batching state for an active leader.
///
/// Every batch the lane emits must be proposed (via [`propose_batch`])
/// by the caller; its `max_delay` flush timer is [`Timer::Batch`].
#[derive(Debug)]
pub struct BatchLane {
    batcher: Batcher,
    /// Pending `max_delay` flush timer, cancelled when a batch flushes
    /// by size so it cannot prematurely flush the next batch.
    timer: Option<TimerId>,
    /// Highest sequence number proposed per client — the per-client
    /// sequencing floor, and a cheap filter so only requests at or
    /// below it (i.e. possible duplicates) pay the unexecuted-window
    /// log scan.
    proposed_hw: BTreeMap<NodeId, u64>,
    /// Out-of-order arrivals held until their predecessors are proposed
    /// (only populated by pipelined clients under network jitter), in
    /// `(client, seq)` order.
    held: BTreeMap<RequestId, Command>,
    /// Enforce per-client issue order in the decided log. Must be off
    /// when some of a client's commands legitimately bypass this
    /// leader's log (e.g. PQR reads served at follower proxies) — a
    /// sequence gap would otherwise be held forever.
    sequencing: bool,
}

impl BatchLane {
    /// Empty lane with the given batching policy; `sequencing` enforces
    /// per-client issue order in the decided log (see the field doc for
    /// when it must be off).
    pub fn new(cfg: BatchConfig, sequencing: bool) -> Self {
        BatchLane {
            batcher: Batcher::new(cfg),
            timer: None,
            proposed_hw: BTreeMap::new(),
            held: BTreeMap::new(),
            sequencing,
        }
    }

    /// The active batching policy.
    pub fn config(&self) -> &BatchConfig {
        self.batcher.config()
    }

    /// Commands currently buffered (diagnostics).
    pub fn buffered(&self) -> usize {
        self.batcher.len()
    }

    /// Commands held for per-client reordering (diagnostics).
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    fn next_expected(&self, sessions: &SessionTable, client: NodeId) -> u64 {
        let hw = self.proposed_hw.get(&client).copied().unwrap_or(0);
        let executed = sessions.latest_seq(client).unwrap_or(0);
        hw.max(executed) + 1
    }

    fn note_proposed(&mut self, client: NodeId, seq: u64) {
        let hw = self.proposed_hw.entry(client).or_insert(0);
        *hw = (*hw).max(seq);
    }

    /// The provably-handled per-client floor: the highest seq visible in
    /// any live structure (executed sessions, the unexecuted log window,
    /// outstanding proposals, the batch buffer). Only consulted on the
    /// rare stale-floor path after re-election, so the log scan stays
    /// off the hot path.
    fn justified_floor(
        &self,
        leader: &Leader,
        acceptor: &Acceptor,
        sessions: &SessionTable,
        client: NodeId,
    ) -> u64 {
        sessions
            .latest_seq(client)
            .unwrap_or(0)
            .max(acceptor.highest_unexecuted_seq(client).unwrap_or(0))
            .max(leader.highest_outstanding_seq(client).unwrap_or(0))
            .max(self.batcher.highest_buffered_seq(client).unwrap_or(0))
    }

    fn is_duplicate(&self, leader: &Leader, acceptor: &Acceptor, cmd: &Command) -> bool {
        // The floor filter keeps the unexecuted-log scan off the hot
        // path: a fresh command (above a known floor) cannot be in the
        // log. An *absent* entry is inconclusive — after failover the
        // new leader has no floor yet, but a retry of a command the old
        // leader committed may sit unexecuted in the log — so scan.
        let possibly_proposed = match self.proposed_hw.get(&cmd.id.client) {
            Some(&hw) => hw >= cmd.id.seq,
            None => true, // no floor yet (e.g. fresh leadership): scan
        };
        leader.has_outstanding_request(cmd.id)
            || self.batcher.contains(cmd.id)
            || (possibly_proposed && acceptor.has_unexecuted_command(cmd.id))
    }

    fn push<P: ProtoMessage>(
        &mut self,
        client: NodeId,
        cmd: Command,
        ctx: &mut Ctx<P>,
        out: &mut Vec<Batch>,
    ) {
        self.note_proposed(cmd.id.client, cmd.id.seq);
        match self.batcher.push(client, cmd, ctx.now()) {
            BatchPush::Flush(batch) => {
                if let Some(t) = self.timer.take() {
                    ctx.cancel_timer(t);
                }
                out.push(batch);
            }
            BatchPush::ArmTimer => {
                let delay = self.batcher.config().max_delay;
                self.timer = Some(ctx.set_timer(delay, Timer::Batch as u64));
            }
            BatchPush::Buffered => {}
        }
    }

    /// Release held successors of `client` that are now in sequence.
    fn release_client<P: ProtoMessage>(
        &mut self,
        leader: &Leader,
        acceptor: &Acceptor,
        sessions: &SessionTable,
        client: NodeId,
        ctx: &mut Ctx<P>,
        out: &mut Vec<Batch>,
    ) {
        loop {
            let expect = RequestId {
                client,
                seq: self.next_expected(sessions, client),
            };
            // Drop anything below the floor (stale duplicates of
            // commands that got proposed through another path).
            let stale = RequestId { client, seq: 0 }..expect;
            while let Some(&id) = self.held.range(stale.clone()).next().map(|(id, _)| id) {
                self.held.remove(&id);
            }
            let Some(cmd) = self.held.remove(&expect) else {
                return;
            };
            if self.is_duplicate(leader, acceptor, &cmd) {
                self.note_proposed(cmd.id.client, cmd.id.seq);
                continue;
            }
            self.push(client, cmd, ctx, out);
        }
    }

    /// Admit a client command at an *active* leader. The caller has
    /// already answered session replays and dropped stale duplicates.
    /// Returns the batches (possibly several, when the command unblocks
    /// held successors) that must be proposed now.
    pub fn admit<P: ProtoMessage>(
        &mut self,
        leader: &Leader,
        acceptor: &Acceptor,
        sessions: &SessionTable,
        client: NodeId,
        cmd: Command,
        ctx: &mut Ctx<P>,
    ) -> Vec<Batch> {
        let mut out = Vec::new();
        let id = cmd.id;
        if self.held.contains_key(&id) {
            return out; // retry of a held command
        }
        if self.is_duplicate(leader, acceptor, &cmd) {
            // Already in flight, buffered, or committed-but-unexecuted
            // (the window the session table cannot see): the reply
            // comes at execution. Advancing the floor lets any held
            // successors through.
            self.note_proposed(id.client, id.seq);
            self.release_client(leader, acceptor, sessions, id.client, ctx, &mut out);
            return out;
        }
        if self.sequencing {
            let mut expect = self.next_expected(sessions, id.client);
            if id.seq < expect {
                // The floor says this seq was handled, yet it is in no
                // live structure (checked above, and the floor made the
                // unexecuted-log scan run): the floor was inherited
                // from an earlier leadership term whose proposal never
                // survived. Rebuild it from ground truth and
                // re-sequence, so even several such retries — which may
                // themselves arrive reordered — are re-proposed in
                // issue order rather than dropped (stranding the
                // client) or pushed as they come (reordering the log).
                let justified = self.justified_floor(leader, acceptor, sessions, id.client);
                self.proposed_hw.insert(id.client, justified);
                expect = justified + 1;
                if id.seq < expect {
                    // A *successor* already survived into the log or
                    // executed while this seq vanished (possible only
                    // under message loss + failover): issue order is
                    // unrecoverable for this pair, so deliver rather
                    // than strand the retrying client.
                    expect = id.seq;
                }
            }
            if id.seq > expect {
                // A predecessor is still in the network (pipelined
                // client + jitter) or is itself an unproposed retry yet
                // to arrive: hold until it is proposed. Liveness is the
                // client's job — every outstanding request is retried.
                self.held.insert(id, cmd);
                return out;
            }
        }
        self.push(client, cmd, ctx, &mut out);
        self.release_client(leader, acceptor, sessions, id.client, ctx, &mut out);
        out
    }

    /// Release held commands unblocked by state advances outside
    /// [`BatchLane::admit`] (e.g. executions learned from the commit
    /// watermark advancing the session table). Cheap when nothing is
    /// held.
    pub fn drain_ready<P: ProtoMessage>(
        &mut self,
        leader: &Leader,
        acceptor: &Acceptor,
        sessions: &SessionTable,
        ctx: &mut Ctx<P>,
    ) -> Vec<Batch> {
        let mut out = Vec::new();
        if self.held.is_empty() {
            return out;
        }
        let mut clients: Vec<NodeId> = self.held.keys().map(|id| id.client).collect();
        clients.dedup();
        for client in clients {
            self.release_client(leader, acceptor, sessions, client, ctx, &mut out);
        }
        out
    }

    /// The `max_delay` timer fired: take whatever is buffered.
    pub fn on_flush_timer(&mut self) -> Batch {
        self.timer = None;
        self.batcher.flush()
    }

    /// Abandon leadership: drain the buffer and every held command (the
    /// caller redirects their clients) and return the flush timer to
    /// cancel, so it cannot fire into the next leadership term.
    pub fn abandon(&mut self) -> (Vec<(NodeId, Command)>, Option<TimerId>) {
        let mut out = self.batcher.flush();
        let held = std::mem::take(&mut self.held);
        out.extend(held.into_values().map(|cmd| (cmd.id.client, cmd)));
        (out, self.timer.take())
    }
}

/// What a counted vote wave produced: one execution wave of replies to
/// ship, plus any preempting ballot the caller must abdicate to (after
/// delivering the replies — a quorum of acks means *chosen*).
#[derive(Debug)]
pub struct VoteWave {
    /// Executed `(slot, request, value)` triples, in slot order.
    pub executed: Vec<Executed>,
    /// Highest preempting ballot observed, if any.
    pub preempted: Option<Ballot>,
}

/// The one count of phase-2b votes at the leader, for a `P2b` and a
/// `P2bBatch` alike: guarded against inactive leadership and a header
/// ballot that is not the leader's (`None`: the votes do not apply),
/// then every decided slot is committed and the ready prefix executed
/// *once*, so the wave produces a single batch of replies.
pub fn apply_batch_votes(
    leader: &mut Leader,
    acceptor: &mut Acceptor,
    ballot: Ballot,
    votes: Vec<P2bVote>,
) -> Option<VoteWave> {
    if !leader.is_active() || ballot != leader.ballot() {
        return None;
    }
    let preempted = leader.on_p2b_batch(votes, |slot, cmd| acceptor.commit(slot, ballot, cmd));
    Some(VoteWave {
        executed: acceptor.execute_ready(),
        preempted,
    })
}

/// A phase-2a the leader has proposed and accepted itself: what it
/// must fan out, and what its own acceptance left to apply first.
#[derive(Debug)]
pub struct Proposal {
    /// The phase-2a: a `P2a` for one command, a `P2aBatch` for more.
    pub msg: PaxosMsg,
    /// Commit advances from accepting it locally, folded into one.
    pub advance: CommitAdvance,
    /// Slots the leader's own vote already decided (1-node quorums).
    pub self_commits: Vec<(u64, Command)>,
}

/// Propose a flushed batch: allocate consecutive slots, register each
/// command with the leader, queue `(slot, client)` on `waiting` for the
/// reply, and accept the resulting phase-2a locally ([`accept_own`]).
/// This is where N commands start costing one message per follower (or
/// per relay group) instead of N. `batch` must be non-empty.
pub fn propose_batch(
    leader: &mut Leader,
    acceptor: &mut Acceptor,
    batch: Batch,
    now: SimTime,
    waiting: &mut VecDeque<(u64, NodeId)>,
) -> Proposal {
    let mut first_slot = None;
    for (client, cmd) in &batch {
        let slot = leader.propose(Some(*client), cmd.clone(), now);
        first_slot.get_or_insert(slot);
        waiting.push_back((slot, *client));
    }
    let first_slot = first_slot.expect("propose_batch needs commands");
    accept_own(
        leader,
        acceptor,
        first_slot,
        batch.into_iter().map(|(_, cmd)| cmd),
    )
}

/// The leader's own half of a phase-2a for `commands` at consecutive
/// slots from `first_slot`, each already registered with `leader`
/// (by [`propose_batch`], or as a phase-1 reproposal): build the wire
/// form — one command rides in a `P2a`, more in a `P2aBatch` — under
/// the leader's ballot and [`Leader::piggyback_frontier`], accept every slot
/// in its own acceptor, and count its own votes.
pub fn accept_own(
    leader: &mut Leader,
    acceptor: &mut Acceptor,
    first_slot: u64,
    mut commands: impl ExactSizeIterator<Item = Command>,
) -> Proposal {
    let ballot = leader.ballot();
    let commit_up_to = leader.piggyback_frontier(acceptor.commit_watermark());
    let msg = match commands.len() {
        1 => PaxosMsg::P2a {
            ballot,
            slot: first_slot,
            command: commands.next().expect("one command"),
            commit_up_to,
        },
        _ => PaxosMsg::P2aBatch {
            ballot,
            first_slot,
            commands: commands.collect(),
            commit_up_to,
        },
    };
    let mut advance = CommitAdvance::default();
    let mut self_commits = Vec::new();
    let (_, _, commands, _) = msg.as_p2a().expect("built as a phase-2a");
    for (slot, command) in (first_slot..).zip(commands) {
        let (own, adv) = acceptor
            .on_p2a(ballot, slot, command.clone(), commit_up_to)
            .expect("a slot this leader allocated is in reach of its own log");
        advance.absorb(adv);
        if let Ok(Some(decided)) = leader.on_p2b_vote(own) {
            self_commits.push(decided);
        }
    }
    Proposal {
        msg,
        advance,
        self_commits,
    }
}

/// A replica's acceptance of a phase-2a from its leader.
#[derive(Debug, Default)]
pub struct BatchAccept {
    /// The answer: a `P2b` to a `P2a`, a `P2bBatch` to a `P2aBatch`.
    /// `None` when no slot was in reach, or the message is no phase-2a.
    pub reply: Option<PaxosMsg>,
    /// Commit advances from the piggybacked watermark, folded into one.
    pub advance: CommitAdvance,
    /// The request's ballot, when any slot was accepted under it: the
    /// leader contact is real.
    pub accepted: Option<Ballot>,
}

/// The one accept body for both phase-2a forms (a `P2a` is a batch of
/// one): accept every slot against `acceptor`. Slots the acceptor's
/// log cannot reach (or that overflow `u64`) get no vote; they are a
/// suffix of the batch, reach being a single bound.
///
/// The reply keeps the request's form, and each form its own header:
/// - a `P2b` is headed by the voter's ballot, so a rejection carries
///   the promised ballot there and fails the old leader's ballot guard:
///   a direct-Paxos leader drops it, and is deposed only by the new
///   leader's own messages;
/// - a `P2bBatch` is headed by the request's ballot, so it reaches the
///   proposing leader's (and any relay's) round matching even when
///   every vote is a rejection; the rejecting votes carry the promised
///   ballot, and the leader abdicates at once.
pub fn accept_batch(acceptor: &mut Acceptor, msg: &PaxosMsg) -> BatchAccept {
    let Some((ballot, first_slot, commands, commit_up_to)) = msg.as_p2a() else {
        return BatchAccept::default();
    };
    let mut votes = Vec::with_capacity(commands.len());
    let mut advance = CommitAdvance::default();
    let mut any_ok = false;
    for (i, command) in commands.iter().enumerate() {
        let Some((vote, adv)) = first_slot
            .checked_add(i as u64)
            .and_then(|slot| acceptor.on_p2a(ballot, slot, command.clone(), commit_up_to))
        else {
            break;
        };
        any_ok |= vote.ok;
        votes.push(vote);
        advance.absorb(adv);
    }
    let reply = votes.last().copied().map(|last| match msg {
        PaxosMsg::P2a { .. } => PaxosMsg::P2b {
            ballot: last.ballot,
            slot: last.slot,
            votes,
        },
        _ => PaxosMsg::P2bBatch {
            ballot,
            first_slot,
            last_slot: last.slot,
            votes,
        },
    });
    BatchAccept {
        reply,
        advance,
        accepted: any_ok.then_some(ballot),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::P1bVote;
    use paxi::{majority, Operation, RequestId, SafetyMonitor, Value};

    fn cmd(seq: u64) -> Command {
        Command {
            id: RequestId {
                client: NodeId(9),
                seq,
            },
            op: Operation::Put(seq, Value::zeros(8)),
        }
    }

    fn client_cmd(client: u32, seq: u64) -> Command {
        Command {
            id: RequestId {
                client: NodeId(client),
                seq,
            },
            op: Operation::Put(seq, Value::zeros(8)),
        }
    }

    fn active_leader(n: usize) -> Leader {
        let mut l = Leader::new(NodeId(0), n);
        let b = l.start_campaign(Ballot::ZERO);
        let votes: Vec<P1bVote> = (0..majority(n) as u32)
            .map(|i| P1bVote {
                node: NodeId(i),
                ballot: b,
                ok: true,
                accepted: vec![],
                snapshot: None,
            })
            .collect();
        l.on_p1b_votes(votes, 0, paxi::Log::new().reach());
        l
    }

    #[test]
    fn propose_allocates_consecutive_slots_and_tracks_clients() {
        let mut leader = active_leader(5);
        let mut acceptor = Acceptor::new(NodeId(0), SafetyMonitor::new());
        let mut waiting = VecDeque::new();
        let batch = vec![
            (NodeId(10), cmd(1)),
            (NodeId(11), cmd(2)),
            (NodeId(12), cmd(3)),
        ];
        let p = propose_batch(
            &mut leader,
            &mut acceptor,
            batch,
            SimTime::ZERO,
            &mut waiting,
        );
        assert!(matches!(p.msg, PaxosMsg::P2aBatch { first_slot: 0, .. }));
        assert_eq!(p.msg.as_p2a().map(|(_, _, c, _)| c.len()), Some(3));
        assert_eq!(waiting, [(0, NodeId(10)), (1, NodeId(11)), (2, NodeId(12))]);
        assert!(
            p.self_commits.is_empty(),
            "5-node quorum needs more than the self vote"
        );
        assert_eq!(leader.outstanding().len(), 3);
    }

    #[test]
    fn lone_command_is_a_batch_of_one_sent_as_p2a() {
        let mut leader = active_leader(3);
        let mut acceptor = Acceptor::new(NodeId(0), SafetyMonitor::new());
        let mut waiting = VecDeque::new();
        let batch = vec![(NodeId(10), cmd(1))];
        let p = propose_batch(
            &mut leader,
            &mut acceptor,
            batch,
            SimTime::ZERO,
            &mut waiting,
        );
        assert_eq!(
            p.msg,
            PaxosMsg::P2a {
                ballot: leader.ballot(),
                slot: 0,
                command: cmd(1),
                commit_up_to: 0,
            }
        );
        assert_eq!(waiting, [(0, NodeId(10))]);
        assert!(acceptor.log().get(0).is_some(), "the leader accepted it");
        assert_eq!(leader.outstanding().len(), 1, "own vote alone is no quorum");
    }

    #[test]
    fn one_node_cluster_self_commits_whole_batch() {
        let mut leader = active_leader(1);
        let mut acceptor = Acceptor::new(NodeId(0), SafetyMonitor::new());
        let batch = vec![(NodeId(10), cmd(1)), (NodeId(11), cmd(2))];
        let p = propose_batch(
            &mut leader,
            &mut acceptor,
            batch,
            SimTime::ZERO,
            &mut VecDeque::new(),
        );
        assert_eq!(p.self_commits.len(), 2, "quorum of one: own vote decides");
        assert!(leader.outstanding().is_empty());
    }

    fn p2a_batch(ballot: Ballot, first_slot: u64, commands: Vec<Command>) -> PaxosMsg {
        PaxosMsg::P2aBatch {
            ballot,
            first_slot,
            commands: commands.into(),
            commit_up_to: 0,
        }
    }

    #[test]
    fn accept_batch_votes_per_slot() {
        let mut acceptor = Acceptor::new(NodeId(1), SafetyMonitor::new());
        let ballot = Ballot::new(1, NodeId(0));
        let acc = accept_batch(&mut acceptor, &p2a_batch(ballot, 5, vec![cmd(1), cmd(2)]));
        assert_eq!(acc.accepted, Some(ballot));
        let Some(PaxosMsg::P2bBatch {
            ballot: header,
            first_slot: 5,
            last_slot: 6,
            votes,
        }) = acc.reply
        else {
            panic!("a P2aBatch is answered by a P2bBatch: {:?}", acc.reply);
        };
        assert_eq!(header, ballot);
        assert_eq!(votes.iter().map(|v| v.slot).collect::<Vec<_>>(), [5, 6]);
        assert!(votes.iter().all(|v| v.ok));
    }

    #[test]
    fn accept_batch_rejection_keeps_request_ballot_header() {
        let mut acceptor = Acceptor::new(NodeId(1), SafetyMonitor::new());
        let high = Ballot::new(9, NodeId(2));
        acceptor.on_p1a(high, 0);
        let stale = Ballot::new(1, NodeId(0));
        let acc = accept_batch(&mut acceptor, &p2a_batch(stale, 0, vec![cmd(1)]));
        assert_eq!(acc.accepted, None);
        let Some(PaxosMsg::P2bBatch { ballot, votes, .. }) = acc.reply else {
            panic!("a P2aBatch is answered by a P2bBatch: {:?}", acc.reply);
        };
        assert_eq!(
            ballot, stale,
            "reply header keeps the request ballot so the proposer's \
             round matching accepts the nack"
        );
        assert_eq!(
            votes[0].ballot, high,
            "the vote itself carries the promised ballot for preemption"
        );
    }

    #[test]
    fn rejected_batch_preempts_the_proposing_leader_immediately() {
        let mut leader = active_leader(3);
        let mut own = Acceptor::new(NodeId(0), SafetyMonitor::new());
        let ballot = leader.ballot();
        let slot = leader.propose(Some(NodeId(10)), cmd(1), SimTime::ZERO);

        // A follower promised to a higher ballot rejects the batch.
        let mut follower = Acceptor::new(NodeId(1), SafetyMonitor::new());
        let high = Ballot::new(50, NodeId(2));
        follower.on_p1a(high, 0);
        let acc = accept_batch(&mut follower, &p2a_batch(ballot, slot, vec![cmd(1)]));
        let Some(PaxosMsg::P2bBatch { ballot, votes, .. }) = acc.reply else {
            panic!("a P2aBatch is answered by a P2bBatch: {:?}", acc.reply);
        };

        // The reply header matches the leader's ballot, so the guard
        // passes and the nack is seen at once.
        let wave = apply_batch_votes(&mut leader, &mut own, ballot, votes)
            .expect("request-ballot header must pass the leader guard");
        assert_eq!(wave.preempted, Some(high));
    }

    #[test]
    fn count_votes_guards_inactive_and_stale() {
        let mut leader = active_leader(3);
        let mut own = Acceptor::new(NodeId(0), SafetyMonitor::new());
        let stale = Ballot::new(999, NodeId(7));
        assert!(apply_batch_votes(&mut leader, &mut own, stale, vec![]).is_none());
        leader.demote();
        let b = leader.ballot();
        assert!(apply_batch_votes(&mut leader, &mut own, b, vec![]).is_none());
    }

    // ---- BatchLane ------------------------------------------------------

    use paxi::Envelope;
    use simnet::{Actor, Context, CpuCostModel, SimDuration, Simulation, Topology};

    /// Drive a closure with a real simulator context (the lane needs
    /// one for timers).
    fn with_ctx(f: impl FnOnce(&mut Ctx<crate::messages::PaxosMsg>) + 'static) {
        struct Once<F>(Option<F>);
        impl<F: FnOnce(&mut Context<Envelope<crate::messages::PaxosMsg>>) + 'static>
            Actor<Envelope<crate::messages::PaxosMsg>> for Once<F>
        {
            fn on_start(&mut self, ctx: &mut Context<Envelope<crate::messages::PaxosMsg>>) {
                (self.0.take().expect("run once"))(ctx);
            }
            fn on_message(
                &mut self,
                _f: NodeId,
                _m: Envelope<crate::messages::PaxosMsg>,
                _c: &mut Context<Envelope<crate::messages::PaxosMsg>>,
            ) {
            }
            fn on_timer(
                &mut self,
                _i: TimerId,
                _k: u64,
                _c: &mut Context<Envelope<crate::messages::PaxosMsg>>,
            ) {
            }
        }
        let mut sim: Simulation<Envelope<crate::messages::PaxosMsg>> =
            Simulation::new(Topology::lan(1), CpuCostModel::free(), 1);
        sim.add_actor(Box::new(Once(Some(f))));
        sim.run_until(SimTime::from_millis(1));
    }

    #[test]
    fn lane_orders_reordered_pipelined_arrivals() {
        with_ctx(|ctx| {
            let leader = active_leader(5);
            let acceptor = Acceptor::new(NodeId(0), SafetyMonitor::new());
            let sessions = SessionTable::new();
            let mut lane = BatchLane::new(BatchConfig::new(2, SimDuration::from_micros(200)), true);

            // Seq 2 arrives before seq 1 (network jitter): held.
            let held = lane.admit(
                &leader,
                &acceptor,
                &sessions,
                NodeId(10),
                client_cmd(10, 2),
                ctx,
            );
            assert!(held.is_empty(), "out-of-order arrival must be held");
            assert_eq!(lane.held_count(), 1);

            // Seq 1 arrives: both are admitted in order and fill the
            // 2-command batch.
            let batches = lane.admit(
                &leader,
                &acceptor,
                &sessions,
                NodeId(10),
                client_cmd(10, 1),
                ctx,
            );
            assert_eq!(batches.len(), 1);
            let seqs: Vec<u64> = batches[0].iter().map(|(_, c)| c.id.seq).collect();
            assert_eq!(seqs, vec![1, 2], "admission restores issue order");
            assert_eq!(lane.held_count(), 0);
        });
    }

    #[test]
    fn lane_suppresses_duplicates_and_held_retries() {
        with_ctx(|ctx| {
            let leader = active_leader(5);
            let acceptor = Acceptor::new(NodeId(0), SafetyMonitor::new());
            let sessions = SessionTable::new();
            let mut lane = BatchLane::new(BatchConfig::new(4, SimDuration::from_micros(200)), true);

            lane.admit(
                &leader,
                &acceptor,
                &sessions,
                NodeId(10),
                client_cmd(10, 1),
                ctx,
            );
            assert_eq!(lane.buffered(), 1);
            // Retry of the buffered command: suppressed.
            let out = lane.admit(
                &leader,
                &acceptor,
                &sessions,
                NodeId(10),
                client_cmd(10, 1),
                ctx,
            );
            assert!(out.is_empty());
            assert_eq!(lane.buffered(), 1, "no duplicate buffered");

            // A held command's retry is also suppressed.
            lane.admit(
                &leader,
                &acceptor,
                &sessions,
                NodeId(10),
                client_cmd(10, 3),
                ctx,
            );
            assert_eq!(lane.held_count(), 1);
            lane.admit(
                &leader,
                &acceptor,
                &sessions,
                NodeId(10),
                client_cmd(10, 3),
                ctx,
            );
            assert_eq!(lane.held_count(), 1, "held retry not duplicated");
        });
    }

    #[test]
    fn lane_reproposes_below_a_stale_floor_after_reelection() {
        with_ctx(|ctx| {
            let leader = active_leader(5);
            let acceptor = Acceptor::new(NodeId(0), SafetyMonitor::new());
            let sessions = SessionTable::new();
            let mut lane = BatchLane::new(BatchConfig::disabled(), true);

            // Term 1: seq 1 admitted (floor advances to 1), but the
            // proposal dies with the preempted leader — it never
            // reaches the log and the lane is abandoned.
            let first = lane.admit(
                &leader,
                &acceptor,
                &sessions,
                NodeId(10),
                client_cmd(10, 1),
                ctx,
            );
            assert_eq!(first.len(), 1);
            lane.abandon();

            // Term 2 (re-elected): the client's retry of seq 1 sits
            // below the stale floor but is in no live structure — it
            // must be re-proposed, not dropped.
            let retry = lane.admit(
                &leader,
                &acceptor,
                &sessions,
                NodeId(10),
                client_cmd(10, 1),
                ctx,
            );
            assert_eq!(
                retry.len(),
                1,
                "below-floor retry with no surviving proposal must be re-proposed"
            );
        });
    }

    #[test]
    fn lane_resequences_reordered_retries_below_a_stale_floor() {
        with_ctx(|ctx| {
            let leader = active_leader(5);
            let acceptor = Acceptor::new(NodeId(0), SafetyMonitor::new());
            let sessions = SessionTable::new();
            let mut lane = BatchLane::new(BatchConfig::disabled(), true);

            // Term 1: seqs 1 and 2 admitted (floor = 2), both proposals
            // die with the preempted leader.
            for seq in [1, 2] {
                lane.admit(
                    &leader,
                    &acceptor,
                    &sessions,
                    NodeId(10),
                    client_cmd(10, seq),
                    ctx,
                );
            }
            lane.abandon();

            // Term 2: the retries arrive reordered (2 before 1). The
            // rebuilt floor must hold seq 2 until seq 1 lands, keeping
            // the decided log in issue order.
            let first = lane.admit(
                &leader,
                &acceptor,
                &sessions,
                NodeId(10),
                client_cmd(10, 2),
                ctx,
            );
            assert!(first.is_empty(), "seq 2 must wait for seq 1's retry");
            assert_eq!(lane.held_count(), 1);
            let second = lane.admit(
                &leader,
                &acceptor,
                &sessions,
                NodeId(10),
                client_cmd(10, 1),
                ctx,
            );
            let seqs: Vec<u64> = second
                .iter()
                .flat_map(|b| b.iter().map(|(_, c)| c.id.seq))
                .collect();
            assert_eq!(seqs, vec![1, 2], "retries re-proposed in issue order");
            assert_eq!(lane.held_count(), 0);
        });
    }

    #[test]
    fn lane_abandon_returns_buffered_and_held() {
        with_ctx(|ctx| {
            let leader = active_leader(5);
            let acceptor = Acceptor::new(NodeId(0), SafetyMonitor::new());
            let sessions = SessionTable::new();
            let mut lane = BatchLane::new(BatchConfig::new(8, SimDuration::from_micros(200)), true);
            lane.admit(
                &leader,
                &acceptor,
                &sessions,
                NodeId(10),
                client_cmd(10, 1),
                ctx,
            );
            lane.admit(
                &leader,
                &acceptor,
                &sessions,
                NodeId(11),
                client_cmd(11, 5),
                ctx,
            );
            let (cmds, timer) = lane.abandon();
            assert_eq!(cmds.len(), 2, "one buffered + one held");
            assert!(timer.is_some(), "flush timer returned for cancellation");
            assert_eq!(lane.held_count(), 0);
            assert_eq!(lane.buffered(), 0);
        });
    }

    #[test]
    fn lane_drain_ready_releases_after_session_advance() {
        with_ctx(|ctx| {
            let leader = active_leader(5);
            let acceptor = Acceptor::new(NodeId(0), SafetyMonitor::new());
            let mut sessions = SessionTable::new();
            let mut lane = BatchLane::new(BatchConfig::disabled(), true);

            // Seq 2 held: the lane has never seen seq 1.
            lane.admit(
                &leader,
                &acceptor,
                &sessions,
                NodeId(10),
                client_cmd(10, 2),
                ctx,
            );
            assert_eq!(lane.held_count(), 1);

            // Seq 1 executes (e.g. learned via the commit watermark).
            sessions.record(&paxi::ClientReply::ok(
                RequestId {
                    client: NodeId(10),
                    seq: 1,
                },
                None,
            ));
            let batches = lane.drain_ready(&leader, &acceptor, &sessions, ctx);
            assert_eq!(batches.len(), 1, "session advance releases the successor");
            assert_eq!(batches[0][0].1.id.seq, 2);
        });
    }
}
