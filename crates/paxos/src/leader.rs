//! The leader role: phase-1 campaigns, slot allocation, vote counting,
//! and commit decisions.
//!
//! [`Leader`] is a pure state machine — it never sends messages itself.
//! The replica (direct Multi-Paxos) or the PigPaxos overlay decides how
//! its outputs travel. This separation is what lets PigPaxos reuse the
//! decision logic unchanged, as the paper's implementation did.

use crate::messages::{P1bVote, P2bVote};
use paxi::{majority, Ballot, Command, RequestId, VoteTracker};
use simnet::{NodeId, SimTime};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Outcome of feeding phase-1b votes to a campaigning leader.
#[derive(Debug, PartialEq)]
pub enum Phase1Outcome {
    /// Not enough promises yet.
    Pending,
    /// Campaign won. `reproposals` are the slots the new leader must
    /// re-propose under its ballot (adopted values + no-op hole fillers)
    /// before serving new commands.
    Won {
        /// `(slot, command)` pairs to propose immediately.
        reproposals: Vec<(u64, Command)>,
    },
    /// A higher ballot exists; the campaign is abandoned.
    Preempted {
        /// The ballot that preempted us.
        higher: Ballot,
    },
}

/// A proposal in flight.
#[derive(Debug)]
pub struct Outstanding {
    /// The proposed command.
    pub command: Command,
    /// Vote tally for this slot.
    pub tracker: VoteTracker,
    /// When the proposal was (last) sent, for retry.
    pub sent_at: SimTime,
    /// Times this proposal has been re-sent after going stale. Each
    /// retry doubles the staleness threshold (capped), so a slot that
    /// cannot reach quorum — e.g. during a partition — stops flooding
    /// the group at a fixed interval.
    pub attempts: u32,
    /// The client waiting for this slot, if any.
    pub client: Option<NodeId>,
}

/// Cap on the per-proposal retry backoff: the staleness threshold grows
/// to at most `timeout << MAX_RETRY_SHIFT` (16x).
const MAX_RETRY_SHIFT: u32 = 4;

/// Leader-role state.
#[derive(Debug)]
pub struct Leader {
    me: NodeId,
    /// Phase-1 quorum size (majority unless flexible quorums are used).
    q1: usize,
    /// Phase-2 quorum size.
    q2: usize,
    ballot: Ballot,
    active: bool,
    campaigning: bool,
    p1_tracker: VoteTracker,
    p1_merged: HashMap<u64, (Ballot, Command)>,
    next_slot: u64,
    outstanding: BTreeMap<u64, Outstanding>,
    /// Requests queued while inactive (e.g. during phase-1).
    pub pending: VecDeque<(NodeId, Command)>,
}

impl Leader {
    /// New (inactive) leader role for node `me` in a cluster of `n`,
    /// using classic majority quorums.
    pub fn new(me: NodeId, n: usize) -> Self {
        Leader::with_quorums(me, n, majority(n), majority(n))
    }

    /// Leader with flexible quorums (Howard et al.; paper §2.2):
    /// phase-1 quorums of `q1`, phase-2 quorums of `q2`. Panics unless
    /// `q1 + q2 > n` (quorums must intersect).
    pub fn with_quorums(me: NodeId, n: usize, q1: usize, q2: usize) -> Self {
        assert!(q1 + q2 > n, "flexible quorums must intersect: q1 + q2 > n");
        assert!(q1 >= 1 && q1 <= n && q2 >= 1 && q2 <= n);
        Leader {
            me,
            q1,
            q2,
            ballot: Ballot::ZERO,
            active: false,
            campaigning: false,
            p1_tracker: VoteTracker::new(q1, Ballot::ZERO),
            p1_merged: HashMap::new(),
            next_slot: 0,
            outstanding: BTreeMap::new(),
            pending: VecDeque::new(),
        }
    }

    /// The phase-2 quorum size in use.
    pub fn q2(&self) -> usize {
        self.q2
    }

    /// Current ballot.
    pub fn ballot(&self) -> Ballot {
        self.ballot
    }

    /// True once phase-1 has completed and new commands may be proposed.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// True while a phase-1 campaign is in flight.
    pub fn is_campaigning(&self) -> bool {
        self.campaigning
    }

    /// Proposals not yet committed.
    pub fn outstanding(&self) -> &BTreeMap<u64, Outstanding> {
        &self.outstanding
    }

    /// The commit frontier this leader may piggyback on a phase-2a or
    /// heartbeat: `watermark` (its acceptor's), but never past its
    /// lowest outstanding slot. A slot leaves `outstanding` only when
    /// this leader's own quorum decides it at its own ballot, while the
    /// acceptor's watermark also counts slots learned as decided at
    /// *other* ballots; a follower still holding this leader's value
    /// for such a slot would commit it on the piggyback, although that
    /// value was never chosen.
    pub fn piggyback_frontier(&self, watermark: u64) -> u64 {
        self.outstanding
            .keys()
            .next()
            .map_or(watermark, |&lowest| lowest.min(watermark))
    }

    /// Start (or restart) a phase-1 campaign with a ballot above
    /// `at_least`. Returns the new ballot to put in the P1a.
    pub fn start_campaign(&mut self, at_least: Ballot) -> Ballot {
        self.ballot = at_least.max(self.ballot).next(self.me);
        self.active = false;
        self.campaigning = true;
        self.p1_tracker = VoteTracker::new(self.q1, self.ballot);
        self.p1_merged.clear();
        self.ballot
    }

    /// Feed phase-1b votes (own vote included by the caller). `reach` is
    /// the candidate's own [`paxi::Log::reach`]: a promise naming an
    /// accepted slot at or past it is ignored — neither counted nor
    /// merged — since winning on it would re-propose every slot up to
    /// that one, and the candidate's own acceptor would refuse it anyway.
    pub fn on_p1b_votes(
        &mut self,
        votes: Vec<P1bVote>,
        watermark: u64,
        reach: u64,
    ) -> Phase1Outcome {
        if !self.campaigning {
            return Phase1Outcome::Pending;
        }
        for v in votes {
            if !v.ok {
                if v.ballot > self.ballot {
                    self.campaigning = false;
                    return Phase1Outcome::Preempted { higher: v.ballot };
                }
                self.p1_tracker.nack(v.node);
                continue;
            }
            if v.accepted.iter().any(|&(slot, _, _)| slot >= reach) {
                continue;
            }
            for (slot, b, cmd) in v.accepted {
                match self.p1_merged.get(&slot) {
                    Some((prev, _)) if *prev >= b => {}
                    _ => {
                        self.p1_merged.insert(slot, (b, cmd));
                    }
                }
            }
            if self.p1_tracker.ack(v.node, v.ballot) {
                return self.finish_campaign(watermark);
            }
        }
        Phase1Outcome::Pending
    }

    fn finish_campaign(&mut self, watermark: u64) -> Phase1Outcome {
        self.campaigning = false;
        self.active = true;
        let max_seen = self.p1_merged.keys().copied().max();
        let horizon = max_seen.map(|m| m + 1).unwrap_or(watermark);
        self.next_slot = self.next_slot.max(horizon).max(watermark);
        let mut reproposals = Vec::new();
        for slot in watermark..horizon {
            let cmd = self
                .p1_merged
                .remove(&slot)
                .map(|(_, c)| c)
                .unwrap_or_else(Command::noop);
            reproposals.push((slot, cmd));
        }
        self.p1_merged.clear();
        Phase1Outcome::Won { reproposals }
    }

    /// Allocate a slot and register the proposal. The caller constructs
    /// and disseminates the phase-2a and feeds the leader's own acceptor
    /// vote back via [`Leader::on_p2b_vote`].
    pub fn propose(&mut self, client: Option<NodeId>, command: Command, now: SimTime) -> u64 {
        assert!(self.active, "propose on inactive leader");
        let slot = self.next_slot;
        self.next_slot += 1;
        self.register(slot, command, client, now);
        slot
    }

    /// Register a proposal at a fixed slot (used for re-proposals after
    /// phase-1 and for retries after preemption recovery).
    pub fn register(&mut self, slot: u64, command: Command, client: Option<NodeId>, now: SimTime) {
        self.next_slot = self.next_slot.max(slot + 1);
        self.outstanding.insert(
            slot,
            Outstanding {
                command,
                tracker: VoteTracker::new(self.q2, self.ballot),
                sent_at: now,
                attempts: 0,
                client,
            },
        );
    }

    /// Feed a single phase-2b vote for the slot it carries. Returns the
    /// commit if the vote completed a quorum: `(slot, command)`. A
    /// preempting higher ballot is reported via `Err(higher)`. This is
    /// the allocation-free core of the vote path: the leader's own vote
    /// goes straight in, and [`Leader::on_p2b_batch`] orders every
    /// received vote on top of it.
    pub fn on_p2b_vote(&mut self, v: P2bVote) -> Result<Option<(u64, Command)>, Ballot> {
        let Some(out) = self.outstanding.get_mut(&v.slot) else {
            return Ok(None); // already committed or unknown
        };
        if !v.ok {
            if v.ballot > self.ballot {
                return Err(v.ballot);
            }
            out.tracker.nack(v.node);
            return Ok(None);
        }
        if out.tracker.ack(v.node, v.ballot) {
            let out = self.outstanding.remove(&v.slot).expect("present");
            return Ok(Some((v.slot, out.command)));
        }
        Ok(None)
    }

    /// Feed the phase-2b votes of one `P2b` or `P2bBatch` (one
    /// `P2bVote` per `(node, slot)` pair, possibly aggregated by a
    /// relay). Votes are counted per slot — in slot order, so commits
    /// come out ready for in-order execution — through
    /// [`Leader::on_p2b_vote`], and each slot that reaches quorum is
    /// handed to `decided` as `(slot, command)`. Returns the highest
    /// preempting ballot seen, if any. Every slot is counted even when
    /// one reports a preempting ballot: a quorum of acks at our ballot
    /// means *chosen*, and dropping such a commit would strand its
    /// client (the slot is already out of `outstanding`, so `demote`
    /// could not re-queue it).
    ///
    /// The votes are ordered with an in-place *stable* insertion sort
    /// instead of being grouped into per-slot containers: follower
    /// segments arrive already slot-sorted (from `accept_batch`), so
    /// the sort is near-linear, allocates nothing, and stability keeps
    /// each slot's votes in arrival order — preserving exactly which
    /// vote completes a quorum or reports a preemption first.
    pub fn on_p2b_batch(
        &mut self,
        mut votes: Vec<P2bVote>,
        mut decided: impl FnMut(u64, Command),
    ) -> Option<Ballot> {
        for i in 1..votes.len() {
            let mut j = i;
            while j > 0 && votes[j - 1].slot > votes[j].slot {
                votes.swap(j - 1, j);
                j -= 1;
            }
        }
        let mut preempted = None;
        let mut i = 0;
        while i < votes.len() {
            let slot = votes[i].slot;
            let mut end = i + 1;
            while end < votes.len() && votes[end].slot == slot {
                end += 1;
            }
            // One slot's run: count votes until the slot commits or
            // reports a preemption; either way the rest of the run is
            // moot (the old per-slot grouping behaved identically).
            for &vote in &votes[i..end] {
                match self.on_p2b_vote(vote) {
                    Ok(Some((slot, command))) => {
                        decided(slot, command);
                        break;
                    }
                    Ok(None) => {}
                    Err(higher) => {
                        preempted = preempted.max(Some(higher));
                        break;
                    }
                }
            }
            i = end;
        }
        preempted
    }

    /// Demote after preemption: drop in-flight proposals back into the
    /// pending queue (they will be re-proposed if we win again, or the
    /// new leader will adopt them via phase-1).
    pub fn demote(&mut self) {
        self.active = false;
        self.campaigning = false;
        let slots: Vec<u64> = self.outstanding.keys().copied().collect();
        for s in slots {
            let out = self.outstanding.remove(&s).expect("present");
            if let Some(client) = out.client {
                self.pending.push_back((client, out.command));
            }
        }
    }

    /// Proposals due for retry as of `now`. Marks them as re-sent.
    ///
    /// A proposal is due once it has been waiting `timeout <<
    /// min(attempts, 4)` — a fresh proposal retries after one timeout,
    /// then 2x, 4x, … capped at 16x per further attempt. Without the
    /// backoff a leader cut off from its quorum re-broadcast every
    /// outstanding slot to every peer at a fixed interval, and a
    /// preempted leader (demoted `active` but with `outstanding` not
    /// yet drained) kept re-sending P2as for ballots it had already
    /// lost; an inactive leader now never reports stale proposals.
    pub fn stale_proposals(
        &mut self,
        now: SimTime,
        timeout: simnet::SimDuration,
    ) -> Vec<(u64, Command)> {
        if !self.active {
            return Vec::new();
        }
        let mut stale = Vec::new();
        for (&slot, out) in self.outstanding.iter_mut() {
            let threshold = simnet::SimDuration::from_nanos(
                timeout
                    .as_nanos()
                    .saturating_mul(1 << out.attempts.min(MAX_RETRY_SHIFT)),
            );
            if now.saturating_sub(out.sent_at) >= threshold {
                out.sent_at = now;
                out.attempts += 1;
                stale.push((slot, out.command.clone()));
            }
        }
        stale
    }

    /// Ids of commands currently outstanding (for duplicate suppression).
    pub fn has_outstanding_request(&self, id: RequestId) -> bool {
        self.outstanding.values().any(|o| o.command.id == id)
    }

    /// Highest sequence number of `client`'s commands currently
    /// outstanding. Used to rebuild the per-client proposal floor after
    /// re-election.
    pub fn highest_outstanding_seq(&self, client: NodeId) -> Option<u64> {
        self.outstanding
            .values()
            .filter(|o| o.command.id.client == client)
            .map(|o| o.command.id.seq)
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi::{Operation, Value};

    /// The reach of a candidate whose log is empty.
    const REACH: u64 = paxi::log::MAX_HOLE;

    fn cmd(seq: u64) -> Command {
        Command {
            id: RequestId {
                client: NodeId(9),
                seq,
            },
            op: Operation::Put(seq, Value::zeros(8)),
        }
    }

    fn p1b_ok(node: u32, ballot: Ballot) -> P1bVote {
        P1bVote {
            node: NodeId(node),
            ballot,
            ok: true,
            accepted: vec![],
            snapshot: None,
        }
    }

    fn p2b_ok(node: u32, ballot: Ballot, slot: u64) -> P2bVote {
        P2bVote {
            node: NodeId(node),
            ballot,
            slot,
            ok: true,
        }
    }

    /// Count `votes` as one phase-2b: the slots it decided, in order,
    /// and any preempting ballot.
    fn count(l: &mut Leader, votes: Vec<P2bVote>) -> (Vec<(u64, Command)>, Option<Ballot>) {
        let mut decided = Vec::new();
        let preempted = l.on_p2b_batch(votes, |slot, cmd| decided.push((slot, cmd)));
        (decided, preempted)
    }

    #[test]
    fn campaign_wins_with_majority() {
        let mut l = Leader::new(NodeId(0), 5);
        let b = l.start_campaign(Ballot::ZERO);
        assert!(l.is_campaigning());
        assert_eq!(
            l.on_p1b_votes(vec![p1b_ok(0, b)], 0, REACH),
            Phase1Outcome::Pending
        );
        assert_eq!(
            l.on_p1b_votes(vec![p1b_ok(1, b)], 0, REACH),
            Phase1Outcome::Pending
        );
        match l.on_p1b_votes(vec![p1b_ok(2, b)], 0, REACH) {
            Phase1Outcome::Won { reproposals } => assert!(reproposals.is_empty()),
            other => panic!("expected win, got {other:?}"),
        }
        assert!(l.is_active());
    }

    #[test]
    fn campaign_adopts_highest_ballot_values_and_fills_holes() {
        let mut l = Leader::new(NodeId(0), 3);
        let b = l.start_campaign(Ballot::ZERO);
        let old_b1 = Ballot::new(1, NodeId(1));
        let old_b2 = Ballot::new(2, NodeId(2));
        let v1 = P1bVote {
            node: NodeId(1),
            ballot: b,
            ok: true,
            accepted: vec![(1, old_b1, cmd(11)), (3, old_b1, cmd(13))],
            snapshot: None,
        };
        let v2 = P1bVote {
            node: NodeId(2),
            ballot: b,
            ok: true,
            accepted: vec![(1, old_b2, cmd(21))],
            snapshot: None,
        };
        match l.on_p1b_votes(vec![v1, v2], 0, REACH) {
            Phase1Outcome::Won { reproposals } => {
                // Slots 0..4: 0 noop, 1 adopted (higher ballot wins), 2 noop, 3 adopted.
                assert_eq!(reproposals.len(), 4);
                assert!(reproposals[0].1.is_noop());
                assert_eq!(reproposals[1].1, cmd(21), "b2 > b1 so node 2's value wins");
                assert!(reproposals[2].1.is_noop());
                assert_eq!(reproposals[3].1, cmd(13));
            }
            other => panic!("expected win, got {other:?}"),
        }
    }

    #[test]
    fn forged_promise_past_reach_is_ignored() {
        let mut l = Leader::new(NodeId(0), 3);
        let b = l.start_campaign(Ballot::ZERO);
        let forged = P1bVote {
            node: NodeId(1),
            ballot: b,
            ok: true,
            accepted: vec![((1 << 48) - 1, Ballot::new(1, NodeId(1)), cmd(1))],
            snapshot: None,
        };
        // Own vote plus the forged one would be a majority of 3: it must
        // neither count nor leave a slot behind to re-propose.
        assert_eq!(
            l.on_p1b_votes(vec![p1b_ok(0, b), forged], 0, REACH),
            Phase1Outcome::Pending
        );
        assert!(l.p1_merged.is_empty(), "nothing merged from the forgery");
        match l.on_p1b_votes(vec![p1b_ok(2, b)], 0, REACH) {
            Phase1Outcome::Won { reproposals } => assert!(reproposals.is_empty()),
            other => panic!("honest quorum must win, got {other:?}"),
        }
    }

    #[test]
    fn campaign_preempted_by_higher_ballot() {
        let mut l = Leader::new(NodeId(0), 3);
        let b = l.start_campaign(Ballot::ZERO);
        let higher = Ballot::new(99, NodeId(2));
        let nack = P1bVote {
            node: NodeId(2),
            ballot: higher,
            ok: false,
            accepted: vec![],
            snapshot: None,
        };
        assert_eq!(
            l.on_p1b_votes(vec![nack], 0, REACH),
            Phase1Outcome::Preempted { higher }
        );
        assert!(!l.is_active());
        // Next campaign outbids the preemptor.
        let b2 = l.start_campaign(higher);
        assert!(b2 > higher);
        assert!(b2 > b);
    }

    fn active_leader(n: usize) -> Leader {
        let mut l = Leader::new(NodeId(0), n);
        let b = l.start_campaign(Ballot::ZERO);
        let votes: Vec<P1bVote> = (0..majority(n) as u32).map(|i| p1b_ok(i, b)).collect();
        match l.on_p1b_votes(votes, 0, REACH) {
            Phase1Outcome::Won { .. } => {}
            other => panic!("setup failed: {other:?}"),
        }
        l
    }

    #[test]
    fn propose_allocates_sequential_slots() {
        let mut l = active_leader(3);
        let s0 = l.propose(Some(NodeId(10)), cmd(1), SimTime::ZERO);
        let s1 = l.propose(Some(NodeId(10)), cmd(2), SimTime::ZERO);
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(l.outstanding().len(), 2);
    }

    #[test]
    fn p2b_quorum_commits() {
        let mut l = active_leader(5);
        let b = l.ballot();
        let slot = l.propose(Some(NodeId(10)), cmd(1), SimTime::ZERO);
        assert_eq!(l.on_p2b_vote(p2b_ok(0, b, slot)), Ok(None));
        assert_eq!(l.on_p2b_vote(p2b_ok(1, b, slot)), Ok(None));
        assert_eq!(l.on_p2b_vote(p2b_ok(2, b, slot)), Ok(Some((slot, cmd(1)))));
        assert!(l.outstanding().is_empty());
        // Late votes for a committed slot are harmless.
        assert_eq!(l.on_p2b_vote(p2b_ok(3, b, slot)), Ok(None));
    }

    #[test]
    fn ok_votes_at_an_older_ballot_complete_no_quorum() {
        let mut l = Leader::new(NodeId(0), 3);
        let old = l.start_campaign(Ballot::ZERO);
        let b = l.start_campaign(old);
        assert!(old < b);
        assert_eq!(
            l.on_p1b_votes(vec![p1b_ok(0, b), p1b_ok(1, old)], 0, REACH),
            Phase1Outcome::Pending,
            "a promise to the old ballot is not one to the new"
        );
        assert!(matches!(
            l.on_p1b_votes(vec![p1b_ok(1, b)], 0, REACH),
            Phase1Outcome::Won { .. }
        ));
        let slot = l.propose(None, cmd(1), SimTime::ZERO);
        assert_eq!(l.on_p2b_vote(p2b_ok(0, b, slot)), Ok(None));
        assert_eq!(
            l.on_p2b_vote(p2b_ok(1, old, slot)),
            Ok(None),
            "an accept at the old ballot is not one at the new"
        );
        assert_eq!(l.on_p2b_vote(p2b_ok(1, b, slot)), Ok(Some((slot, cmd(1)))));
    }

    #[test]
    fn aggregated_votes_commit_in_one_call() {
        let mut l = active_leader(5);
        let b = l.ballot();
        let slot = l.propose(None, cmd(1), SimTime::ZERO);
        // A PigPaxos relay aggregate carrying 3 votes at once.
        let votes = vec![p2b_ok(0, b, slot), p2b_ok(1, b, slot), p2b_ok(2, b, slot)];
        assert_eq!(
            count(&mut l, votes),
            (vec![(slot, cmd(1))], None),
            "aggregate satisfying quorum commits immediately"
        );
    }

    #[test]
    fn p2b_preemption_reported() {
        let mut l = active_leader(3);
        let slot = l.propose(None, cmd(1), SimTime::ZERO);
        let higher = Ballot::new(50, NodeId(1));
        let nack = P2bVote {
            node: NodeId(1),
            ballot: higher,
            slot,
            ok: false,
        };
        assert_eq!(count(&mut l, vec![nack]), (vec![], Some(higher)));
    }

    #[test]
    fn demote_requeues_client_commands() {
        let mut l = active_leader(3);
        l.propose(Some(NodeId(10)), cmd(1), SimTime::ZERO);
        l.propose(None, cmd(2), SimTime::ZERO); // no client (e.g. noop)
        l.demote();
        assert!(!l.is_active());
        assert_eq!(l.pending.len(), 1, "only client-attached commands requeue");
        assert!(l.outstanding().is_empty());
    }

    #[test]
    fn stale_proposals_for_retry() {
        let mut l = active_leader(3);
        let t0 = SimTime::ZERO;
        l.propose(None, cmd(1), t0);
        let later = SimTime::from_millis(100);
        let stale = l.stale_proposals(later, simnet::SimDuration::from_millis(50));
        assert_eq!(stale.len(), 1);
        // Marked as re-sent: immediately asking again returns nothing.
        let stale2 = l.stale_proposals(later, simnet::SimDuration::from_millis(50));
        assert!(stale2.is_empty());
    }

    #[test]
    fn stale_proposals_back_off_exponentially() {
        let mut l = active_leader(3);
        let timeout = simnet::SimDuration::from_millis(50);
        l.propose(None, cmd(1), SimTime::ZERO);
        // Attempt schedule: due at 50ms after each send, then 100ms,
        // 200ms, 400ms, 800ms, capped at 800ms (16x) thereafter.
        let mut now = SimTime::ZERO;
        let mut resend_gaps = Vec::new();
        let mut last_send = SimTime::ZERO;
        for _ in 0..7 {
            // Walk time forward in 10ms ticks until the retry fires.
            loop {
                now += simnet::SimDuration::from_millis(10);
                if !l.stale_proposals(now, timeout).is_empty() {
                    resend_gaps.push(now.saturating_sub(last_send));
                    last_send = now;
                    break;
                }
            }
        }
        let gaps_ms: Vec<u64> = resend_gaps
            .iter()
            .map(|g| g.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(gaps_ms, vec![50, 100, 200, 400, 800, 800, 800]);
    }

    #[test]
    fn preempted_leader_stops_retrying_outstanding() {
        let mut l = active_leader(3);
        l.propose(None, cmd(1), SimTime::ZERO);
        // A new campaign (e.g. after preemption) deactivates the leader
        // but does not drain `outstanding` — the retry scan must go
        // quiet instead of re-sending P2as for the lost ballot.
        l.start_campaign(l.ballot());
        assert!(!l.is_active());
        assert!(!l.outstanding().is_empty());
        let stale = l.stale_proposals(SimTime::from_secs(10), simnet::SimDuration::from_millis(50));
        assert!(stale.is_empty(), "inactive leader must not re-send");
    }

    #[test]
    fn duplicate_request_detection() {
        let mut l = active_leader(3);
        l.propose(Some(NodeId(10)), cmd(7), SimTime::ZERO);
        assert!(l.has_outstanding_request(RequestId {
            client: NodeId(9),
            seq: 7
        }));
        assert!(!l.has_outstanding_request(RequestId {
            client: NodeId(9),
            seq: 8
        }));
    }

    #[test]
    fn batched_votes_commit_multiple_slots_in_order() {
        let mut l = active_leader(5);
        let b = l.ballot();
        let s0 = l.propose(Some(NodeId(10)), cmd(1), SimTime::ZERO);
        let s1 = l.propose(Some(NodeId(11)), cmd(2), SimTime::ZERO);
        // One P2bBatch worth of votes: two nodes ack both slots (own
        // vote per slot arrives first, as the replica does it).
        for s in [s0, s1] {
            assert_eq!(l.on_p2b_vote(p2b_ok(0, b, s)), Ok(None));
        }
        let votes = vec![
            p2b_ok(1, b, s1),
            p2b_ok(1, b, s0),
            p2b_ok(2, b, s1),
            p2b_ok(2, b, s0),
        ];
        assert_eq!(
            count(&mut l, votes),
            (vec![(s0, cmd(1)), (s1, cmd(2))], None),
            "commits come out in slot order"
        );
        assert!(l.outstanding().is_empty());
    }

    #[test]
    fn batched_votes_report_preemption() {
        let mut l = active_leader(3);
        let b = l.ballot();
        let s0 = l.propose(None, cmd(1), SimTime::ZERO);
        let higher = Ballot::new(50, NodeId(1));
        let votes = vec![
            p2b_ok(1, b, s0),
            P2bVote {
                node: NodeId(2),
                ballot: higher,
                slot: s0,
                ok: false,
            },
        ];
        assert_eq!(count(&mut l, votes), (vec![], Some(higher)));
    }

    #[test]
    fn batched_votes_salvage_commits_despite_preemption() {
        // One aggregated batch completes slot s0's quorum AND carries a
        // higher-ballot nack on slot s1: s0's decision must not be lost.
        let mut l = active_leader(5);
        let b = l.ballot();
        let s0 = l.propose(Some(NodeId(10)), cmd(1), SimTime::ZERO);
        let s1 = l.propose(Some(NodeId(11)), cmd(2), SimTime::ZERO);
        for s in [s0, s1] {
            assert_eq!(l.on_p2b_vote(p2b_ok(0, b, s)), Ok(None));
            assert_eq!(l.on_p2b_vote(p2b_ok(1, b, s)), Ok(None));
        }
        let higher = Ballot::new(50, NodeId(3));
        let votes = vec![
            p2b_ok(2, b, s0), // third ack: s0 reaches quorum
            P2bVote {
                node: NodeId(3),
                ballot: higher,
                slot: s1,
                ok: false,
            },
        ];
        assert_eq!(
            count(&mut l, votes),
            (vec![(s0, cmd(1))], Some(higher)),
            "quorum-complete slot survives the nack"
        );
    }
}
