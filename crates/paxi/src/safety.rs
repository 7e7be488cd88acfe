//! Runtime safety checking.
//!
//! Paxos's safety property — no two nodes decide different commands for
//! the same slot — is machine-checked on every run: each replica reports
//! every commit it learns to a shared [`SafetyMonitor`], which records the
//! first decision per `(space, slot)` and flags any later disagreement.
//! Protocols with per-replica instance spaces (EPaxos) use `space` to
//! separate them; Multi-Paxos and PigPaxos use space 0.

use crate::command::RequestId;
use parking_lot::Mutex;
use simnet::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The first decision of every slot of one space, indexed by slot: a
/// [`RequestId`] split into two parallel vectors. Slots are dense from
/// 0 in every protocol here, so vectors grown to the highest slot seen
/// never hold two copies of themselves, as a rehashing map does — and
/// split, a slot costs the id's own 12 B, where `Option<RequestId>`
/// pads it to 24.
#[derive(Debug, Default)]
struct Decided {
    client: Vec<u32>,
    seq: Vec<u64>,
}

/// What an undecided slot holds. No command carries it: clients count
/// from 1 and [`crate::Command::noop`] is `(u32::MAX, 0)`.
const UNDECIDED: RequestId = RequestId {
    client: NodeId(u32::MAX),
    seq: u64::MAX,
};

impl Decided {
    fn get(&self, index: usize) -> RequestId {
        RequestId {
            client: NodeId(self.client[index]),
            seq: self.seq[index],
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    decided: BTreeMap<u32, Decided>,
    decided_count: u64,
    violations: Vec<String>,
    commits: u64,
}

/// Shared handle to the run's safety checker. Cloning shares state.
/// Thread-safe so the same monitor works under the simulator and the
/// real-thread runtime.
#[derive(Debug, Clone, Default)]
pub struct SafetyMonitor(Arc<Mutex<Inner>>);

impl SafetyMonitor {
    /// Fresh monitor.
    pub fn new() -> Self {
        SafetyMonitor::default()
    }

    /// Report that a node learned `(space, slot) = id`. Counts one commit
    /// observation and records a violation on disagreement.
    pub fn record(&self, space: u32, slot: u64, id: RequestId) {
        let mut guard = self.0.lock();
        let inner = &mut *guard;
        inner.commits += 1;
        let slots = inner.decided.entry(space).or_default();
        let index = usize::try_from(slot).expect("slot fits the address space");
        if index >= slots.seq.len() {
            slots.client.resize(index + 1, UNDECIDED.client.0);
            slots.seq.resize(index + 1, UNDECIDED.seq);
        }
        let prev = slots.get(index);
        if prev == UNDECIDED {
            slots.client[index] = id.client.0;
            slots.seq[index] = id.seq;
            inner.decided_count += 1;
        } else if prev != id {
            let msg =
                format!("safety violation: space {space} slot {slot} decided as {prev} and {id}");
            inner.violations.push(msg);
        }
    }

    /// Distinct decided slots.
    pub fn decided_count(&self) -> u64 {
        self.0.lock().decided_count
    }

    /// Snapshot of every decision, sorted by `(space, slot)` — lets
    /// tests assert ordering properties (e.g. per-client FIFO under
    /// batching) on the actual decided log.
    pub fn decisions(&self) -> Vec<((u32, u64), RequestId)> {
        let inner = self.0.lock();
        let per_space = inner.decided.iter().flat_map(|(&space, slots)| {
            let decided = (0..slots.seq.len()).map(|i| (i as u64, slots.get(i)));
            let decided = decided.filter(|&(_, id)| id != UNDECIDED);
            decided.map(move |(slot, id)| ((space, slot), id))
        });
        per_space.collect()
    }

    /// Total commit observations (each replica's learn counts once).
    pub fn commit_observations(&self) -> u64 {
        self.0.lock().commits
    }

    /// All recorded violations.
    pub fn violations(&self) -> Vec<String> {
        self.0.lock().violations.clone()
    }

    /// Panic if any violation was recorded (used by tests and the
    /// harness).
    pub fn assert_safe(&self) {
        let v = self.violations();
        assert!(v.is_empty(), "consensus safety violated: {v:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NodeId;

    fn id(seq: u64) -> RequestId {
        RequestId {
            client: NodeId(9),
            seq,
        }
    }

    #[test]
    fn agreement_is_fine() {
        let m = SafetyMonitor::new();
        m.record(0, 0, id(1));
        m.record(0, 0, id(1));
        m.record(0, 1, id(2));
        assert!(m.violations().is_empty());
        assert_eq!(m.decided_count(), 2);
        assert_eq!(m.commit_observations(), 3);
        m.assert_safe();
    }

    #[test]
    fn disagreement_detected() {
        let m = SafetyMonitor::new();
        m.record(0, 0, id(1));
        m.record(0, 0, id(2));
        assert_eq!(m.violations().len(), 1);
        assert!(m.violations()[0].contains("slot 0"));
    }

    #[test]
    fn spaces_are_independent() {
        let m = SafetyMonitor::new();
        m.record(0, 0, id(1));
        m.record(1, 0, id(2)); // same slot, different space: fine
        assert!(m.violations().is_empty());
    }

    #[test]
    fn decisions_come_sorted_and_skip_undecided_slots() {
        let m = SafetyMonitor::new();
        m.record(1, 2, id(5));
        m.record(0, 3, id(4));
        m.record(0, 1, id(3));
        m.record(0, 3, id(4));
        assert_eq!(m.decided_count(), 3);
        assert_eq!(
            m.decisions(),
            vec![((0, 1), id(3)), ((0, 3), id(4)), ((1, 2), id(5))]
        );
    }

    #[test]
    #[should_panic(expected = "safety violated")]
    fn assert_safe_panics_on_violation() {
        let m = SafetyMonitor::new();
        m.record(0, 0, id(1));
        m.record(0, 0, id(2));
        m.assert_safe();
    }

    #[test]
    fn clones_share_state() {
        let m = SafetyMonitor::new();
        let m2 = m.clone();
        m.record(0, 0, id(1));
        m2.record(0, 0, id(2));
        assert_eq!(m.violations().len(), 1);
    }
}
