//! Relay-side aggregation state.
//!
//! A relay that forwarded a phase message tracks one `PendingAgg` per
//! in-flight round: which nodes still owe responses, the votes collected
//! so far, and a deadline. Votes are flushed to the requester when the
//! group is complete, when the partial-response threshold (§4.2) is met,
//! immediately on any rejection (paper footnote 2), or when the relay
//! timeout expires (§3.4). Each flush is one uplink: a relay answers
//! once per round, batched or not (a batched round's `P2bVote`s carry
//! their own slots).

use paxi::Ballot;
use paxos::{P1bVote, P2bVote, PaxosMsg, QrProbeVote};
use simnet::{NodeId, SimTime};
use std::collections::HashMap;

/// Identifies one aggregation round at a relay. Ordered, so rounds
/// expiring in one scan flush in a fixed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AggKey {
    /// Phase-1 for a ballot.
    P1(Ballot),
    /// Phase-2 for (ballot, slot).
    P2(Ballot, u64),
    /// Batched phase-2 for (ballot, first slot, last slot) — a flushed
    /// batch of two or more commands. Votes carry their own slots, so
    /// aggregation is still plain concatenation.
    P2Span(Ballot, u64, u64),
    /// A quorum-read wave for (reader proxy, wave id) — §4.3: one or
    /// more reads' probes disseminated and aggregated as one round. A
    /// rinse restart re-probes in a new wave, so it opens a *fresh*
    /// aggregation instead of topping up the stale one.
    QrBatch(NodeId, u64),
}

impl AggKey {
    /// The round a relayed request opens, `None` for fan-out-only
    /// messages. Keyed by the *request's* ballot: a rejecting answer is
    /// headed by the ballot the voter promised instead, but it is still
    /// an answer to this round.
    pub fn of_request(msg: &PaxosMsg) -> Option<AggKey> {
        Some(match *msg {
            PaxosMsg::P1a { ballot, .. } => AggKey::P1(ballot),
            PaxosMsg::P2a { ballot, slot, .. } => AggKey::P2(ballot, slot),
            PaxosMsg::P2aBatch {
                ballot,
                first_slot,
                ref commands,
                ..
            } => {
                // Off the wire: a forged `first_slot` must not overflow.
                let last_slot = first_slot.saturating_add(commands.len().saturating_sub(1) as u64);
                AggKey::P2Span(ballot, first_slot, last_slot)
            }
            PaxosMsg::QrReadBatch { reader, wave, .. } => AggKey::QrBatch(reader, wave),
            _ => return None,
        })
    }
}

/// Collected votes (phase-matched with the key).
#[derive(Debug, Clone)]
pub enum VoteSet {
    /// Phase-1b promises.
    P1(Vec<P1bVote>),
    /// Phase-2b acks.
    P2(Vec<P2bVote>),
    /// Quorum-read answers (one entry per probe of the wave).
    QrBatch(Vec<QrProbeVote>),
}

impl VoteSet {
    pub(crate) fn len(&self) -> usize {
        match self {
            VoteSet::P1(v) => v.len(),
            VoteSet::P2(v) => v.len(),
            VoteSet::QrBatch(v) => v.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn has_rejection(&self) -> bool {
        match self {
            VoteSet::P1(v) => v.iter().any(|x| !x.ok),
            VoteSet::P2(v) => v.iter().any(|x| !x.ok),
            VoteSet::QrBatch(_) => false, // reads have no rejections
        }
    }

    fn append(&mut self, other: VoteSet) {
        match (self, other) {
            (VoteSet::P1(a), VoteSet::P1(b)) => a.extend(b),
            (VoteSet::P2(a), VoteSet::P2(b)) => a.extend(b),
            (VoteSet::QrBatch(a), VoteSet::QrBatch(b)) => a.extend(b),
            _ => debug_assert!(false, "phase-mismatched vote aggregation"),
        }
    }

    fn take(&mut self) -> VoteSet {
        match self {
            VoteSet::P1(v) => VoteSet::P1(std::mem::take(v)),
            VoteSet::P2(v) => VoteSet::P2(std::mem::take(v)),
            VoteSet::QrBatch(v) => VoteSet::QrBatch(std::mem::take(v)),
        }
    }

    /// Split a Paxos response into its round key and votes — the
    /// inverse of [`VoteSet::into_message`]. Moves the vote vector, so
    /// a relay can seed an aggregation with its own answer, and look at
    /// every arriving response, without a copy. Anything that is not a
    /// vote-carrying response comes back untouched.
    #[allow(clippy::result_large_err)] // the "error" is the caller's own message, handed back
    pub fn from_message(msg: PaxosMsg) -> Result<(AggKey, VoteSet), PaxosMsg> {
        Ok(match msg {
            PaxosMsg::P1b { ballot, votes } => (AggKey::P1(ballot), VoteSet::P1(votes)),
            PaxosMsg::P2b {
                ballot,
                slot,
                votes,
            } => (AggKey::P2(ballot, slot), VoteSet::P2(votes)),
            PaxosMsg::P2bBatch {
                ballot,
                first_slot,
                last_slot,
                votes,
            } => (
                AggKey::P2Span(ballot, first_slot, last_slot),
                VoteSet::P2(votes),
            ),
            PaxosMsg::QrVoteBatch {
                reader,
                wave,
                votes,
            } => (AggKey::QrBatch(reader, wave), VoteSet::QrBatch(votes)),
            other => return Err(other),
        })
    }

    /// Render as the Paxos response message for `key`.
    pub fn into_message(self, key: AggKey) -> PaxosMsg {
        match (self, key) {
            (VoteSet::P1(votes), AggKey::P1(ballot)) => PaxosMsg::P1b { ballot, votes },
            (VoteSet::P2(votes), AggKey::P2(ballot, slot)) => PaxosMsg::P2b {
                ballot,
                slot,
                votes,
            },
            (VoteSet::P2(votes), AggKey::P2Span(ballot, first_slot, last_slot)) => {
                PaxosMsg::P2bBatch {
                    ballot,
                    first_slot,
                    last_slot,
                    votes,
                }
            }
            (VoteSet::QrBatch(votes), AggKey::QrBatch(reader, wave)) => PaxosMsg::QrVoteBatch {
                reader,
                wave,
                votes,
            },
            _ => unreachable!("phase-mismatched key/votes"),
        }
    }
}

#[derive(Debug)]
struct PendingAgg {
    reply_to: NodeId,
    /// Nodes that still owe votes, in no order: a group is a handful of
    /// nodes, so scanning beats hashing each of them in and out again
    /// every round.
    expect: Vec<NodeId>,
    votes: VoteSet,
    deadline: SimTime,
    threshold: usize,
    flushed_once: bool,
    collected: usize,
}

/// An aggregate ready to send.
#[derive(Debug)]
pub struct Flush {
    /// Destination (leader or parent relay).
    pub reply_to: NodeId,
    /// The round.
    pub key: AggKey,
    /// Votes to include.
    pub votes: VoteSet,
}

/// All in-flight aggregations at one relay node.
#[derive(Debug, Default)]
pub struct RelayTable {
    pending: HashMap<AggKey, PendingAgg>,
}

impl RelayTable {
    /// Empty table.
    pub fn new() -> Self {
        RelayTable::default()
    }

    /// Number of in-flight aggregations.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Open an aggregation round seeded with the relay's own vote.
    /// Returns an immediate flush when nothing else is expected or the
    /// own vote is a rejection.
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        &mut self,
        key: AggKey,
        reply_to: NodeId,
        expect: Vec<NodeId>,
        own_vote: VoteSet,
        threshold: usize,
        deadline: SimTime,
    ) -> Option<Flush> {
        let collected = own_vote.len();
        if expect.is_empty() || own_vote.has_rejection() {
            return Some(Flush {
                reply_to,
                key,
                votes: own_vote,
            });
        }
        if threshold > 0 && collected >= threshold {
            // Own vote already satisfies the partial threshold: flush it
            // and keep collecting the rest.
            self.pending.insert(
                key,
                PendingAgg {
                    reply_to,
                    expect,
                    votes: match &own_vote {
                        VoteSet::P1(_) => VoteSet::P1(Vec::new()),
                        VoteSet::P2(_) => VoteSet::P2(Vec::new()),
                        VoteSet::QrBatch(_) => VoteSet::QrBatch(Vec::new()),
                    },
                    deadline,
                    threshold,
                    flushed_once: true,
                    collected,
                },
            );
            return Some(Flush {
                reply_to,
                key,
                votes: own_vote,
            });
        }
        self.pending.insert(
            key,
            PendingAgg {
                reply_to,
                expect,
                votes: own_vote,
                deadline,
                threshold,
                flushed_once: false,
                collected,
            },
        );
        None
    }

    /// True when an open round for `key` still awaits `from`'s votes,
    /// i.e. [`RelayTable::add`] would absorb them. At a node that is
    /// relaying nothing — the leader, always — this is one probe of an
    /// empty map.
    pub fn expects(&self, key: AggKey, from: NodeId) -> bool {
        self.pending
            .get(&key)
            .is_some_and(|agg| agg.expect.contains(&from))
    }

    /// Record votes arriving from `from` (a follower or sub-relay).
    /// Returns a flush when the round completes, hits its threshold, or
    /// contains a rejection. Unknown keys (late/duplicate votes after a
    /// flush) return `None`.
    pub fn add(&mut self, key: AggKey, from: NodeId, votes: VoteSet) -> Option<Flush> {
        let agg = self.pending.get_mut(&key)?;
        let Some(owed) = agg.expect.iter().position(|&n| n == from) else {
            return None; // unsolicited or duplicate
        };
        agg.expect.swap_remove(owed);
        agg.collected += votes.len();
        let reject = votes.has_rejection();
        agg.votes.append(votes);

        let complete = agg.expect.is_empty();
        let threshold_hit =
            agg.threshold > 0 && !agg.flushed_once && agg.collected >= agg.threshold;

        if complete || reject {
            let agg = self.pending.remove(&key).expect("present");
            if agg.votes.is_empty() {
                return None; // everything already flushed
            }
            return Some(Flush {
                reply_to: agg.reply_to,
                key,
                votes: agg.votes,
            });
        }
        if threshold_hit {
            agg.flushed_once = true;
            let out = agg.votes.take();
            return Some(Flush {
                reply_to: agg.reply_to,
                key,
                votes: out,
            });
        }
        None
    }

    /// Flush and drop every aggregation whose deadline has passed
    /// (the relay timeout of §3.4), in `(deadline, key)` order: the
    /// map's iteration order differs from process to process.
    pub fn expire(&mut self, now: SimTime) -> Vec<Flush> {
        let mut expired: Vec<(SimTime, AggKey)> = self
            .pending
            .iter()
            .filter(|(_, a)| a.deadline <= now)
            .map(|(&k, a)| (a.deadline, k))
            .collect();
        expired.sort_unstable();
        let mut out = Vec::new();
        for (_, key) in expired {
            let agg = self.pending.remove(&key).expect("present");
            if !agg.votes.is_empty() {
                out.push(Flush {
                    reply_to: agg.reply_to,
                    key,
                    votes: agg.votes,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b() -> Ballot {
        Ballot::new(1, NodeId(0))
    }

    fn own_p2(node: u32, ok: bool) -> VoteSet {
        VoteSet::P2(vec![P2bVote {
            node: NodeId(node),
            ballot: b(),
            slot: 7,
            ok,
        }])
    }

    fn peer_p2(node: u32) -> VoteSet {
        own_p2(node, true)
    }

    fn expect(nodes: &[u32]) -> Vec<NodeId> {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    const KEY: AggKey = AggKey::P2(Ballot::ZERO, 7);

    fn key() -> AggKey {
        AggKey::P2(b(), 7)
    }

    #[test]
    fn completes_when_all_respond() {
        let mut t = RelayTable::new();
        assert!(t
            .open(
                key(),
                NodeId(0),
                expect(&[2, 3]),
                own_p2(1, true),
                0,
                SimTime::from_millis(50)
            )
            .is_none());
        assert!(t.add(key(), NodeId(2), peer_p2(2)).is_none());
        let f = t.add(key(), NodeId(3), peer_p2(3)).expect("complete");
        assert_eq!(f.reply_to, NodeId(0));
        assert_eq!(f.votes.len(), 3, "own + 2 peers");
        assert!(t.is_empty());
    }

    #[test]
    fn empty_expectation_flushes_immediately() {
        let mut t = RelayTable::new();
        let f = t
            .open(
                key(),
                NodeId(0),
                Vec::new(),
                own_p2(1, true),
                0,
                SimTime::ZERO,
            )
            .expect("immediate");
        assert_eq!(f.votes.len(), 1);
    }

    #[test]
    fn rejection_fast_path_on_own_vote() {
        let mut t = RelayTable::new();
        let f = t
            .open(
                key(),
                NodeId(0),
                expect(&[2]),
                own_p2(1, false),
                0,
                SimTime::ZERO,
            )
            .expect("reject flushes now");
        assert!(matches!(f.votes, VoteSet::P2(ref v) if !v[0].ok));
        assert!(t.is_empty(), "round abandoned after rejection");
    }

    #[test]
    fn rejection_fast_path_on_peer_vote() {
        let mut t = RelayTable::new();
        t.open(
            key(),
            NodeId(0),
            expect(&[2, 3]),
            own_p2(1, true),
            0,
            SimTime::from_millis(50),
        );
        let f = t
            .add(key(), NodeId(2), own_p2(2, false))
            .expect("reject flushes");
        assert_eq!(f.votes.len(), 2);
        assert!(t.is_empty());
        // Late vote from node 3 is dropped silently.
        assert!(t.add(key(), NodeId(3), peer_p2(3)).is_none());
    }

    #[test]
    fn unsolicited_votes_ignored() {
        let mut t = RelayTable::new();
        t.open(
            key(),
            NodeId(0),
            expect(&[2]),
            own_p2(1, true),
            0,
            SimTime::from_millis(50),
        );
        assert!(
            t.add(key(), NodeId(9), peer_p2(9)).is_none(),
            "node 9 not expected"
        );
        assert!(
            t.add(KEY, NodeId(2), peer_p2(2)).is_none(),
            "different ballot key"
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn threshold_sends_partial_then_remainder() {
        let mut t = RelayTable::new();
        // Group of 4 peers, threshold 3 (own + 2).
        t.open(
            key(),
            NodeId(0),
            expect(&[2, 3, 4, 5]),
            own_p2(1, true),
            3,
            SimTime::from_millis(50),
        );
        assert!(t.add(key(), NodeId(2), peer_p2(2)).is_none());
        let first = t.add(key(), NodeId(3), peer_p2(3)).expect("threshold hit");
        assert_eq!(first.votes.len(), 3);
        assert_eq!(t.len(), 1, "still collecting the rest");
        assert!(t.add(key(), NodeId(4), peer_p2(4)).is_none());
        let second = t.add(key(), NodeId(5), peer_p2(5)).expect("completion");
        assert_eq!(
            second.votes.len(),
            2,
            "only the votes after the partial flush"
        );
        assert!(t.is_empty());
    }

    #[test]
    fn threshold_met_by_own_vote_alone() {
        let mut t = RelayTable::new();
        let f = t
            .open(
                key(),
                NodeId(0),
                expect(&[2]),
                own_p2(1, true),
                1,
                SimTime::from_millis(50),
            )
            .expect("own vote satisfies threshold 1");
        assert_eq!(f.votes.len(), 1);
        // Remainder still tracked.
        let rest = t.add(key(), NodeId(2), peer_p2(2)).expect("completion");
        assert_eq!(rest.votes.len(), 1);
    }

    #[test]
    fn expiry_flushes_partial_votes() {
        let mut t = RelayTable::new();
        t.open(
            key(),
            NodeId(0),
            expect(&[2, 3]),
            own_p2(1, true),
            0,
            SimTime::from_millis(50),
        );
        t.add(key(), NodeId(2), peer_p2(2));
        assert!(t.expire(SimTime::from_millis(49)).is_empty(), "not due yet");
        let flushed = t.expire(SimTime::from_millis(50));
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].votes.len(), 2, "own + node 2, node 3 timed out");
        assert!(t.is_empty());
    }

    #[test]
    fn expiry_after_partial_flush_sends_only_new_votes() {
        let mut t = RelayTable::new();
        t.open(
            key(),
            NodeId(0),
            expect(&[2, 3, 4]),
            own_p2(1, true),
            2,
            SimTime::from_millis(50),
        );
        let first = t.add(key(), NodeId(2), peer_p2(2)).expect("partial");
        assert_eq!(first.votes.len(), 2);
        t.add(key(), NodeId(3), peer_p2(3));
        let flushed = t.expire(SimTime::from_millis(60));
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].votes.len(), 1, "only node 3's vote is new");
    }

    #[test]
    fn expired_empty_rounds_drop_silently() {
        let mut t = RelayTable::new();
        t.open(
            key(),
            NodeId(0),
            expect(&[2]),
            own_p2(1, true),
            1,
            SimTime::from_millis(50),
        );
        // Threshold 1 flushed own vote at open; nothing new arrives.
        let flushed = t.expire(SimTime::from_millis(60));
        assert!(flushed.is_empty());
        assert!(t.is_empty());
    }

    #[test]
    fn one_scan_expires_by_deadline_then_key() {
        let mut t = RelayTable::new();
        let rounds = [(9, 40), (3, 50), (5, 40), (1, 50)];
        for (slot, deadline_ms) in rounds {
            t.open(
                AggKey::P2(b(), slot),
                NodeId(0),
                expect(&[2]),
                own_p2(1, true),
                0,
                SimTime::from_millis(deadline_ms),
            );
        }
        let order: Vec<AggKey> = t
            .expire(SimTime::from_millis(60))
            .into_iter()
            .map(|f| f.key)
            .collect();
        let slots = [5, 9, 1, 3].map(|slot| AggKey::P2(b(), slot));
        assert_eq!(order, slots);
    }

    #[test]
    fn from_message_inverts_into_message() {
        let msg = PaxosMsg::P2bBatch {
            ballot: b(),
            first_slot: 4,
            last_slot: 7,
            votes: (4..=7)
                .map(|slot| P2bVote {
                    node: NodeId(1),
                    ballot: b(),
                    slot,
                    ok: true,
                })
                .collect(),
        };
        let (key, votes) = VoteSet::from_message(msg.clone()).expect("carries votes");
        assert_eq!(key, AggKey::P2Span(b(), 4, 7));
        assert_eq!(votes.len(), 4);
        assert_eq!(votes.into_message(key), msg, "handed back untouched");

        let request = PaxosMsg::P1a {
            ballot: b(),
            from: 3,
        };
        let back = VoteSet::from_message(request.clone()).expect_err("no votes inside");
        assert_eq!(back, request);
    }

    #[test]
    fn expects_only_owed_votes_of_open_rounds() {
        let mut t = RelayTable::new();
        assert!(
            !t.expects(key(), NodeId(2)),
            "nothing open: the leader's case"
        );
        t.open(
            key(),
            NodeId(0),
            expect(&[2, 3]),
            own_p2(1, true),
            0,
            SimTime::from_millis(50),
        );
        assert!(t.expects(key(), NodeId(2)));
        assert!(!t.expects(key(), NodeId(9)), "not in the group");
        assert!(!t.expects(KEY, NodeId(2)), "another ballot's round");
        t.add(key(), NodeId(2), peer_p2(2));
        assert!(!t.expects(key(), NodeId(2)), "already answered");
    }

    #[test]
    fn a_rejected_round_keeps_its_request_key() {
        // A voter that promised a higher ballot heads its answer with
        // that ballot; the round it answers is still the request's.
        let higher = Ballot::new(9, NodeId(2));
        let request = PaxosMsg::P2a {
            ballot: b(),
            slot: 7,
            command: paxi::Command {
                id: paxi::RequestId {
                    client: NodeId(9),
                    seq: 1,
                },
                op: paxi::Operation::Get(1),
            },
            commit_up_to: 0,
        };
        let answer = PaxosMsg::P2b {
            ballot: higher,
            slot: 7,
            votes: vec![P2bVote {
                node: NodeId(1),
                ballot: higher,
                slot: 7,
                ok: false,
            }],
        };
        assert_eq!(AggKey::of_request(&request), Some(key()));
        assert_eq!(AggKey::of_request(&answer), None, "answers open no round");
        let (answer_key, _) = VoteSet::from_message(answer).unwrap();
        assert_eq!(answer_key, AggKey::P2(higher, 7));
    }
}
