//! Quorum systems and vote tracking.
//!
//! Provides the quorum sizes the paper discusses: classic majorities,
//! flexible quorums (Howard et al. 2016, §2.2 of the paper), and EPaxos
//! fast (super-majority) quorums — plus a small [`VoteTracker`] used by
//! every protocol to tally acks and nacks per ballot.

use crate::ballot::Ballot;
use simnet::NodeId;

/// Size of a majority quorum in a cluster of `n`.
pub fn majority(n: usize) -> usize {
    n / 2 + 1
}

/// EPaxos fast-path quorum size (including the command leader):
/// `F + ⌊(F+1)/2⌋` where `F = ⌊N/2⌋`.
pub fn fast_quorum(n: usize) -> usize {
    let f = n / 2;
    f + f.div_ceil(2)
}

/// A flexible quorum configuration: phase-1 quorums of size `q1` and
/// phase-2 quorums of size `q2`, valid iff `q1 + q2 > n` (they must
/// intersect).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlexibleQuorum {
    /// Cluster size.
    pub n: usize,
    /// Phase-1 (leader election) quorum size.
    pub q1: usize,
    /// Phase-2 (replication) quorum size.
    pub q2: usize,
}

impl FlexibleQuorum {
    /// Construct and validate a flexible quorum. Panics if the phase
    /// quorums do not intersect or exceed the cluster size.
    pub fn new(n: usize, q1: usize, q2: usize) -> Self {
        assert!(
            q1 >= 1 && q2 >= 1 && q1 <= n && q2 <= n,
            "quorums must be within [1, n]"
        );
        assert!(q1 + q2 > n, "flexible quorums require q1 + q2 > n");
        FlexibleQuorum { n, q1, q2 }
    }

    /// The classic majority configuration.
    pub fn majority(n: usize) -> Self {
        let m = majority(n);
        FlexibleQuorum { n, q1: m, q2: m }
    }

    /// How many node failures phase-1 can tolerate (`n - q1`).
    pub fn fault_tolerance(&self) -> usize {
        (self.n - self.q1).min(self.n - self.q2)
    }
}

/// Distinct votes fit inline up to this many nodes before spilling to
/// the heap: covers the quorum of every cluster size the experiments
/// run (a majority of n=25 is 13) without a single allocation.
const INLINE_VOTES: usize = 16;

/// A set of node ids optimized for vote tallying: a fixed inline array
/// searched linearly (vote sets are tiny — a quorum's worth of nodes),
/// spilling to a `Vec` only for clusters larger than [`INLINE_VOTES`].
/// Replaces the per-slot `HashSet`s that dominated the leader's
/// allocation profile: a tracker is created for *every proposed slot*,
/// so its first-ack table allocation was a per-command cost.
#[derive(Debug, Clone)]
struct NodeSet {
    inline: [NodeId; INLINE_VOTES],
    len: u8,
    spill: Vec<NodeId>,
}

impl Default for NodeSet {
    fn default() -> Self {
        NodeSet {
            inline: [NodeId(0); INLINE_VOTES],
            len: 0,
            spill: Vec::new(),
        }
    }
}

impl NodeSet {
    fn contains(&self, node: NodeId) -> bool {
        self.inline[..self.len as usize].contains(&node) || self.spill.contains(&node)
    }

    fn insert(&mut self, node: NodeId) {
        if self.contains(node) {
            return;
        }
        if (self.len as usize) < INLINE_VOTES {
            self.inline[self.len as usize] = node;
            self.len += 1;
        } else {
            self.spill.push(node);
        }
    }

    fn len(&self) -> usize {
        self.len as usize + self.spill.len()
    }

    fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }
}

/// Tallies votes for one ballot/round.
#[derive(Debug, Clone)]
pub struct VoteTracker {
    need: usize,
    ballot: Ballot,
    acks: NodeSet,
    nacks: NodeSet,
}

impl VoteTracker {
    /// Track votes toward `need` acks for `ballot`.
    pub fn new(need: usize, ballot: Ballot) -> Self {
        VoteTracker {
            need,
            ballot,
            acks: NodeSet::default(),
            nacks: NodeSet::default(),
        }
    }

    /// Record an ack from `node` for `ballot`. Votes for other ballots
    /// are ignored. Returns `true` if the quorum is now satisfied.
    pub fn ack(&mut self, node: NodeId, ballot: Ballot) -> bool {
        if ballot == self.ballot {
            self.acks.insert(node);
        }
        self.satisfied()
    }

    /// Record a rejection from `node`.
    pub fn nack(&mut self, node: NodeId) {
        self.nacks.insert(node);
    }

    /// True once `need` distinct acks have arrived.
    pub fn satisfied(&self) -> bool {
        self.acks.len() >= self.need
    }

    /// True once so many nacks arrived that the quorum can never be met
    /// in a cluster of `n` nodes.
    pub fn hopeless(&self, n: usize) -> bool {
        n - self.nacks.len() < self.need
    }

    /// Number of acks so far.
    pub fn ack_count(&self) -> usize {
        self.acks.len()
    }

    /// The ballot being tracked.
    pub fn ballot(&self) -> Ballot {
        self.ballot
    }

    /// Reset for a new ballot (e.g. after a leader retry).
    pub fn reset(&mut self, ballot: Ballot) {
        self.ballot = ballot;
        self.acks.clear();
        self.nacks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_sizes() {
        assert_eq!(majority(1), 1);
        assert_eq!(majority(3), 2);
        assert_eq!(majority(5), 3);
        assert_eq!(majority(9), 5);
        assert_eq!(majority(25), 13);
    }

    #[test]
    fn fast_quorum_sizes() {
        // N=5: F=2, fast = 2 + 1 = 3; N=25: F=12, fast = 12 + 6 = 18.
        assert_eq!(fast_quorum(5), 3);
        assert_eq!(fast_quorum(9), 6);
        assert_eq!(fast_quorum(25), 18);
    }

    #[test]
    fn flexible_quorum_paper_example() {
        // The paper's example: N=10, Q2=3 requires Q1=8.
        let f = FlexibleQuorum::new(10, 8, 3);
        assert_eq!(f.fault_tolerance(), 2);
        let m = FlexibleQuorum::majority(10);
        assert_eq!(m.q1, 6);
        assert_eq!(m.q2, 6);
        assert_eq!(m.fault_tolerance(), 4);
    }

    #[test]
    #[should_panic(expected = "q1 + q2 > n")]
    fn flexible_quorum_must_intersect() {
        FlexibleQuorum::new(10, 5, 5);
    }

    #[test]
    fn vote_tracker_basic() {
        let b = Ballot::new(1, NodeId(0));
        let mut t = VoteTracker::new(2, b);
        assert!(!t.ack(NodeId(1), b));
        assert!(!t.ack(NodeId(1), b), "duplicate ack does not advance");
        assert!(t.ack(NodeId(2), b));
        assert!(t.satisfied());
        assert_eq!(t.ack_count(), 2);
    }

    #[test]
    fn vote_tracker_ignores_other_ballots() {
        let b = Ballot::new(1, NodeId(0));
        let other = Ballot::new(2, NodeId(0));
        let mut t = VoteTracker::new(1, b);
        assert!(!t.ack(NodeId(1), other));
        assert_eq!(t.ack_count(), 0);
    }

    #[test]
    fn vote_tracker_hopeless() {
        let b = Ballot::new(1, NodeId(0));
        let mut t = VoteTracker::new(3, b);
        t.nack(NodeId(1));
        t.nack(NodeId(2));
        assert!(t.hopeless(4), "4 - 2 nacks = 2 possible acks < 3 needed");
    }

    #[test]
    fn vote_tracker_hopeless_exact() {
        let b = Ballot::new(1, NodeId(0));
        let mut t = VoteTracker::new(3, b);
        assert!(!t.hopeless(5));
        t.nack(NodeId(1));
        t.nack(NodeId(2));
        assert!(!t.hopeless(5), "3 nodes left can still ack");
        t.nack(NodeId(3));
        assert!(t.hopeless(5), "only 2 nodes left, need 3");
    }

    #[test]
    fn vote_tracker_reset() {
        let b1 = Ballot::new(1, NodeId(0));
        let b2 = Ballot::new(2, NodeId(0));
        let mut t = VoteTracker::new(1, b1);
        t.ack(NodeId(1), b1);
        assert!(t.satisfied());
        t.reset(b2);
        assert!(!t.satisfied());
        assert_eq!(t.ballot(), b2);
    }
}
