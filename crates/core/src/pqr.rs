//! Paxos Quorum Reads through relay groups (paper §4.3).
//!
//! A quorum read avoids the leader entirely: the proxy (any replica the
//! client contacted) probes a majority of replicas for their latest
//! executed write to the key. If any probed replica holds a write to the
//! key that it has not executed — accepted, or committed but waiting
//! behind a hole — the read must *rinse*: retry until that write is
//! executed. Otherwise returning the highest-slot value is linearizable:
//! every committed write is *accepted* by a majority, so at least one
//! member of any probed majority holds it, executed or pending, and the
//! pending-write check rules out in-flight writes that could commit "in
//! the past" of the read.
//!
//! Every probe and answer carries the read's **attempt** number. A
//! rinse restart clears the collected votes and bumps the attempt, and
//! [`PendingReads::add_votes`] drops answers tagged with any other
//! attempt: a delayed answer from the *previous* attempt may predate
//! the in-flight write that forced the rinse, so counting it toward the
//! new attempt could complete the read without re-checking for pending
//! writes — exactly the linearizability hole the retry loop exists to
//! close.
//!
//! The paper's §4.3 observation is that the probe fan-out/fan-in has the
//! same shape as phase-2, so it can ride the same relay trees: the
//! proxy disseminates a probe wave (`QrReadBatch`) through one random
//! relay per group and receives aggregated `QrVoteBatch`es back. A lone
//! read is a wave of one; with probe batching
//! ([`crate::probe_batch::ProbeBatcher`]) several pending reads share
//! one wave. This module tracks the proxy-side state; the relay
//! plumbing reuses [`crate::relay::RelayTable`].

use paxi::{Key, RequestId, Value};
use paxos::QrVoteEntry;
use simnet::{NodeId, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Outcome of feeding votes to a pending read.
#[derive(Debug, PartialEq)]
pub enum ReadOutcome {
    /// Still waiting for a majority of probe answers.
    Pending,
    /// Majority reached and no pending writes: this value is the
    /// linearizable read result.
    Done(Option<Value>),
    /// Majority reached but some replica has an in-flight write to the
    /// key: retry the probe after a short delay. Returned exactly once
    /// per attempt — late same-attempt votes after the transition are
    /// swallowed so the caller never arms a second rinse timer.
    Rinse,
}

#[derive(Debug)]
struct PendingRead {
    client: NodeId,
    request: RequestId,
    key: Key,
    need: usize,
    voters: BTreeSet<NodeId>,
    best: Option<QrVoteEntry>,
    pending_write_seen: bool,
    attempt: u32,
    /// True between the `Rinse` outcome and the restart: further votes
    /// are ignored (they belong to a decision already made) and no
    /// second rinse timer may be armed.
    rinsing: bool,
    /// Start of the *current attempt* (restart resets it), so
    /// [`PendingReads::age`] reports per-attempt age and expiry sweeps
    /// catch attempts starved of votes.
    started: SimTime,
}

/// Proxy-side bookkeeping for in-flight quorum reads.
#[derive(Debug, Default)]
pub struct PendingReads {
    next_id: u64,
    /// By read id, which is the order reads were opened in.
    reads: BTreeMap<u64, PendingRead>,
}

impl PendingReads {
    /// Empty table.
    pub fn new() -> Self {
        PendingReads::default()
    }

    /// Number of reads in flight.
    pub fn len(&self) -> usize {
        self.reads.len()
    }

    /// True when no read is in flight.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
    }

    /// Open a read for `client` (answering `request`) on `key`, needing
    /// `need` distinct probe answers (a majority of replicas). Returns
    /// the read id to embed in its probes.
    ///
    /// A retry of a request already being read for *supersedes* the old
    /// entry (the old id is dropped and its late votes will be
    /// ignored): without this, a client retrying a vote-starved read
    /// would leak one table entry per retry.
    pub fn start(
        &mut self,
        client: NodeId,
        request: RequestId,
        key: Key,
        need: usize,
        now: SimTime,
    ) -> u64 {
        self.reads
            .retain(|_, r| !(r.client == client && r.request == request));
        self.next_id += 1;
        let id = self.next_id;
        self.reads.insert(
            id,
            PendingRead {
                client,
                request,
                key,
                need,
                voters: BTreeSet::new(),
                best: None,
                pending_write_seen: false,
                attempt: 1,
                rinsing: false,
                started: now,
            },
        );
        id
    }

    /// The attempt a read is currently collecting votes for (`None`
    /// when the read completed or was aborted). Probes must carry this
    /// tag so answers can be matched back to the right attempt.
    pub fn attempt_of(&self, id: u64) -> Option<u32> {
        self.reads.get(&id).map(|r| r.attempt)
    }

    /// Feed probe answers (own answer or a relay aggregate) for
    /// `attempt`. Votes tagged with a different attempt are dropped —
    /// a delayed previous-attempt answer must not complete the current
    /// attempt (it predates the pending write that forced the rinse).
    pub fn add_votes(&mut self, id: u64, attempt: u32, votes: Vec<QrVoteEntry>) -> ReadOutcome {
        let Some(read) = self.reads.get_mut(&id) else {
            return ReadOutcome::Pending; // completed or unknown: ignore
        };
        if read.attempt != attempt || read.rinsing {
            return ReadOutcome::Pending; // stale attempt, or rinse already decided
        }
        for v in votes {
            if !read.voters.insert(v.node) {
                continue; // duplicate (e.g. partial + completion flush)
            }
            if v.pending_write {
                read.pending_write_seen = true;
            }
            match &read.best {
                Some(b) if b.value_slot >= v.value_slot => {}
                _ => read.best = Some(v),
            }
        }
        if read.voters.len() < read.need {
            return ReadOutcome::Pending;
        }
        if read.pending_write_seen {
            read.rinsing = true;
            ReadOutcome::Rinse
        } else {
            let value = read.best.as_ref().and_then(|b| b.value.clone());
            self.reads.remove(&id);
            ReadOutcome::Done(value)
        }
    }

    /// Restart a rinsing read at `now`: clears collected votes, bumps
    /// the attempt counter, resets the per-attempt clock, and returns
    /// `(client, key, attempt)` so the replica can re-disseminate (or
    /// give up and redirect to the leader).
    pub fn restart(&mut self, id: u64, now: SimTime) -> Option<(NodeId, Key, u32)> {
        let read = self.reads.get_mut(&id)?;
        read.voters.clear();
        read.best = None;
        read.pending_write_seen = false;
        read.rinsing = false;
        read.attempt += 1;
        read.started = now;
        Some((read.client, read.key, read.attempt))
    }

    /// Abandon a read (too many rinses); returns the waiting client and
    /// its request id.
    pub fn abort(&mut self, id: u64) -> Option<(NodeId, RequestId)> {
        self.reads.remove(&id).map(|r| (r.client, r.request))
    }

    /// Drop every read whose current attempt has been collecting votes
    /// for longer than `max_age` (vote starvation: e.g. enough replicas
    /// crashed that a majority can never answer). Returns the waiting
    /// clients so the caller can redirect them to the leader — without
    /// this sweep a starved read would sit in the table forever.
    pub fn expire(
        &mut self,
        now: SimTime,
        max_age: simnet::SimDuration,
    ) -> Vec<(NodeId, RequestId)> {
        let expired: Vec<u64> = self
            .reads
            .iter()
            .filter(|(_, r)| now.saturating_sub(r.started) >= max_age)
            .map(|(&id, _)| id)
            .collect();
        expired
            .into_iter()
            .filter_map(|id| self.abort(id))
            .collect()
    }

    /// The client waiting on a read and the request being answered.
    pub fn client_of(&self, id: u64) -> Option<(NodeId, RequestId)> {
        self.reads.get(&id).map(|r| (r.client, r.request))
    }

    /// Age of a read's *current attempt* (diagnostics; restart resets
    /// the clock).
    pub fn age(&self, id: u64, now: SimTime) -> Option<simnet::SimDuration> {
        self.reads.get(&id).map(|r| now.saturating_sub(r.started))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimDuration;

    fn rid() -> RequestId {
        RequestId {
            client: NodeId(100),
            seq: 1,
        }
    }

    fn entry(node: u32, slot: u64, pending: bool) -> QrVoteEntry {
        QrVoteEntry {
            node: NodeId(node),
            value_slot: slot,
            value: if slot == 0 {
                None
            } else {
                Some(Value::zeros(slot as usize))
            },
            pending_write: pending,
        }
    }

    #[test]
    fn completes_with_majority_and_highest_slot_wins() {
        let mut p = PendingReads::new();
        let id = p.start(NodeId(100), rid(), 7, 3, SimTime::ZERO);
        assert_eq!(
            p.add_votes(id, 1, vec![entry(1, 5, false)]),
            ReadOutcome::Pending
        );
        assert_eq!(
            p.add_votes(id, 1, vec![entry(2, 9, false)]),
            ReadOutcome::Pending
        );
        match p.add_votes(id, 1, vec![entry(3, 2, false)]) {
            ReadOutcome::Done(Some(v)) => assert_eq!(v.len(), 9, "slot-9 value wins"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(p.is_empty());
    }

    #[test]
    fn aggregated_votes_count_at_once() {
        let mut p = PendingReads::new();
        let id = p.start(NodeId(100), rid(), 7, 3, SimTime::ZERO);
        let agg = vec![entry(1, 1, false), entry(2, 3, false), entry(3, 2, false)];
        match p.add_votes(id, 1, agg) {
            ReadOutcome::Done(Some(v)) => assert_eq!(v.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn never_written_key_reads_none() {
        let mut p = PendingReads::new();
        let id = p.start(NodeId(100), rid(), 7, 2, SimTime::ZERO);
        p.add_votes(id, 1, vec![entry(1, 0, false)]);
        assert_eq!(
            p.add_votes(id, 1, vec![entry(2, 0, false)]),
            ReadOutcome::Done(None)
        );
    }

    #[test]
    fn pending_write_forces_rinse() {
        let mut p = PendingReads::new();
        let id = p.start(NodeId(100), rid(), 7, 2, SimTime::ZERO);
        p.add_votes(id, 1, vec![entry(1, 5, true)]);
        assert_eq!(
            p.add_votes(id, 1, vec![entry(2, 5, false)]),
            ReadOutcome::Rinse
        );
        // Restart clears state, bumps the attempt, resets the clock.
        let (client, key, attempt) = p.restart(id, SimTime::from_millis(3)).expect("tracked");
        assert_eq!(client, NodeId(100));
        assert_eq!(key, 7);
        assert_eq!(attempt, 2);
        assert_eq!(
            p.age(id, SimTime::from_millis(4)),
            Some(SimDuration::from_millis(1)),
            "age is per-attempt after a restart"
        );
        // Second round without pending writes completes.
        p.add_votes(id, 2, vec![entry(1, 6, false)]);
        match p.add_votes(id, 2, vec![entry(2, 5, false)]) {
            ReadOutcome::Done(Some(v)) => assert_eq!(v.len(), 6),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The headline regression: a delayed attempt-1 vote arriving after
    /// a rinse restart must not count toward attempt 2. Pre-fix (no
    /// attempt tag) the stale vote reached the majority threshold and
    /// completed the read *without re-checking for pending writes* —
    /// returning a value that may predate the write that forced the
    /// rinse.
    #[test]
    fn stale_attempt_votes_do_not_contaminate_the_next_attempt() {
        let mut p = PendingReads::new();
        let id = p.start(NodeId(100), rid(), 7, 2, SimTime::ZERO);
        // Attempt 1: node 1 reports an in-flight write; node 2 answers
        // clean → majority with a pending write → rinse.
        p.add_votes(id, 1, vec![entry(1, 5, true)]);
        assert_eq!(
            p.add_votes(id, 1, vec![entry(2, 5, false)]),
            ReadOutcome::Rinse
        );
        p.restart(id, SimTime::from_millis(3));
        // Attempt 2 has one fresh vote so far.
        assert_eq!(
            p.add_votes(id, 2, vec![entry(1, 6, false)]),
            ReadOutcome::Pending
        );
        // A delayed attempt-1 answer from node 3 (sampled BEFORE the
        // pending write resolved) straggles in. It must be dropped —
        // counted, it would be the 2nd voter and complete the read with
        // stale state.
        assert_eq!(
            p.add_votes(id, 1, vec![entry(3, 5, false)]),
            ReadOutcome::Pending,
            "stale-attempt vote must not complete the new attempt"
        );
        assert_eq!(p.len(), 1, "read still pending");
        // The genuine attempt-2 completion sees the resolved write.
        match p.add_votes(id, 2, vec![entry(2, 6, false)]) {
            ReadOutcome::Done(Some(v)) => assert_eq!(v.len(), 6, "post-write value"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn late_votes_after_rinse_do_not_rearm() {
        let mut p = PendingReads::new();
        let id = p.start(NodeId(100), rid(), 7, 2, SimTime::ZERO);
        p.add_votes(id, 1, vec![entry(1, 5, true)]);
        assert_eq!(
            p.add_votes(id, 1, vec![entry(2, 5, false)]),
            ReadOutcome::Rinse
        );
        // A third same-attempt vote arrives before the rinse timer
        // fires: it must NOT produce a second `Rinse` (the caller would
        // arm a duplicate timer → double restart → attempt inflation).
        assert_eq!(
            p.add_votes(id, 1, vec![entry(3, 5, false)]),
            ReadOutcome::Pending,
            "rinse is decided once per attempt"
        );
        assert_eq!(p.attempt_of(id), Some(1), "restart not yet run");
    }

    #[test]
    fn retry_of_same_request_supersedes_the_stuck_read() {
        let mut p = PendingReads::new();
        let id1 = p.start(NodeId(100), rid(), 7, 3, SimTime::ZERO);
        p.add_votes(id1, 1, vec![entry(1, 5, false)]);
        // The client gives up waiting and retries the same request
        // (e.g. through the same proxy after a timeout): the old entry
        // must be superseded, not leaked alongside the new one.
        let id2 = p.start(NodeId(100), rid(), 7, 3, SimTime::from_millis(50));
        assert_ne!(id1, id2);
        assert_eq!(p.len(), 1, "stuck predecessor dropped");
        assert_eq!(p.client_of(id1), None);
        assert_eq!(
            p.add_votes(id1, 1, vec![entry(2, 5, false)]),
            ReadOutcome::Pending,
            "late votes for the superseded id are ignored"
        );
    }

    #[test]
    fn expire_sweeps_vote_starved_reads() {
        let mut p = PendingReads::new();
        let id = p.start(NodeId(100), rid(), 7, 3, SimTime::ZERO);
        p.add_votes(id, 1, vec![entry(1, 5, false)]);
        assert!(
            p.expire(SimTime::from_millis(99), SimDuration::from_millis(100))
                .is_empty(),
            "not due yet"
        );
        let out = p.expire(SimTime::from_millis(100), SimDuration::from_millis(100));
        assert_eq!(out, vec![(NodeId(100), rid())]);
        assert!(p.is_empty(), "starved read removed");
    }

    #[test]
    fn duplicate_voters_do_not_double_count() {
        let mut p = PendingReads::new();
        let id = p.start(NodeId(100), rid(), 7, 2, SimTime::ZERO);
        p.add_votes(id, 1, vec![entry(1, 5, false)]);
        assert_eq!(
            p.add_votes(id, 1, vec![entry(1, 5, false)]),
            ReadOutcome::Pending,
            "same node twice is one vote"
        );
    }

    #[test]
    fn abort_returns_client() {
        let mut p = PendingReads::new();
        let id = p.start(NodeId(100), rid(), 7, 2, SimTime::ZERO);
        assert_eq!(p.client_of(id), Some((NodeId(100), rid())));
        assert_eq!(p.attempt_of(id), Some(1));
        assert_eq!(p.abort(id), Some((NodeId(100), rid())));
        assert!(p.is_empty());
        assert_eq!(p.abort(id), None);
        assert_eq!(p.attempt_of(id), None);
    }

    #[test]
    fn votes_for_unknown_read_ignored() {
        let mut p = PendingReads::new();
        assert_eq!(
            p.add_votes(99, 1, vec![entry(1, 1, false)]),
            ReadOutcome::Pending
        );
    }
}
