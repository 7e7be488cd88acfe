//! Snapshot catch-up for the replica: how peer snapshots are installed
//! and when the executed log prefix is compacted.
//!
//! The subtle ordering lives here once: a phase-1b snapshot must be
//! installed *before* the vote is counted, so a winning campaign
//! finishes from the restored executed frontier instead of
//! no-op-filling truncated (decided) slots.

use crate::messages::P1bVote;
use crate::replica::{Dissemination, Executed, Replica};
use paxi::{Ballot, Command, Snapshot};

impl<D: Dissemination> Replica<D> {
    /// Install a snapshot shipped by a peer (phase-1b attachment or
    /// `SnapshotTransfer`): state machine + session window + counters.
    /// A stale snapshot leaves the replica untouched.
    fn install_peer_snapshot(&mut self, snapshot: &Snapshot) {
        if self.acceptor.install_snapshot(snapshot) {
            self.sessions.merge_from(&snapshot.sessions);
            self.cluster.stats.note_install();
        }
    }

    /// Strip the snapshots attached to a wave of phase-1b promises and
    /// install the most advanced one (several promisers may each attach
    /// their full state; only the highest `up_to` matters — installing
    /// all of them would clone the whole keyspace once per vote). Must
    /// run *before* the votes are fed to the leader's campaign counting
    /// (see the module docs).
    pub(crate) fn install_p1b_snapshots(&mut self, votes: &mut [P1bVote]) {
        let best = votes
            .iter_mut()
            .filter_map(|v| v.snapshot.take())
            .reduce(|best, snap| if snap.up_to > best.up_to { snap } else { best });
        if let Some(snap) = best {
            self.install_peer_snapshot(&snap);
        }
    }

    /// Apply a received `SnapshotTransfer`: install the snapshot, commit
    /// the decided tail entries, and return whatever became executable
    /// for the ordinary reply path.
    pub(crate) fn apply_snapshot_transfer(
        &mut self,
        ballot: Ballot,
        snapshot: &Snapshot,
        entries: Vec<(u64, Command)>,
    ) -> Vec<Executed> {
        self.install_peer_snapshot(snapshot);
        for (slot, cmd) in entries {
            self.acceptor.commit(slot, ballot, cmd);
        }
        self.acceptor.execute_ready()
    }

    /// The post-execution compaction hook, run after every execution
    /// wave: sample the retained log length *first* (the pre-truncation
    /// value is the true memory peak the boundedness gate must see),
    /// then snapshot + truncate if the policy says so.
    pub(crate) fn compact_after_execution(&mut self) {
        let stats = &self.cluster.stats;
        stats.observe_log_len(self.acceptor.log().len() as u64);
        if self.acceptor.maybe_compact(&self.sessions) {
            stats.note_snapshot();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acceptor::Acceptor;
    use crate::config::PaxosConfig;
    use crate::replica::PaxosReplica;
    use paxi::{
        ClientReply, ClusterConfig, Operation, RequestId, SafetyMonitor, SessionTable,
        SnapshotConfig, Value,
    };
    use simnet::NodeId;

    fn cmd(seq: u64) -> Command {
        Command {
            id: RequestId {
                client: NodeId(9),
                seq,
            },
            op: Operation::Put(seq, Value::zeros(8)),
        }
    }

    fn b(r: u32) -> Ballot {
        Ballot::new(r, NodeId(0))
    }

    /// A replica that has seen nothing yet, compacting every `ops`.
    fn lagger(ops: u64) -> PaxosReplica {
        let cfg = PaxosConfig::lan().with_snapshots(SnapshotConfig::every_ops(ops));
        PaxosReplica::new(NodeId(2), ClusterConfig::new(3), cfg)
    }

    /// A donor acceptor compacting every `ops` commands, 12 slots in.
    fn donor(node: u32, ops: u64) -> Acceptor {
        let mut a = Acceptor::new(NodeId(node), SafetyMonitor::new());
        a.set_snapshot_config(SnapshotConfig::every_ops(ops));
        let mut sessions = SessionTable::new();
        for s in 0..12 {
            a.commit(s, b(1), cmd(s + 1));
            for (_, id, value) in a.execute_ready() {
                sessions.record(&ClientReply::ok(id, value));
            }
            a.maybe_compact(&sessions);
        }
        a
    }

    #[test]
    fn p1b_snapshots_install_before_counting() {
        let mut a = donor(1, 5);
        let mut r = lagger(1000);
        let mut votes = vec![a.on_p1a(b(2), 0)];
        assert!(votes[0].snapshot.is_some(), "donor attaches its snapshot");
        r.install_p1b_snapshots(&mut votes);
        assert!(votes[0].snapshot.is_none(), "attachment consumed");
        assert_eq!(r.cluster.stats.snapshots_installed(), 1);
        assert_eq!(r.acceptor.commit_watermark(), a.snapshot_floor());
        // The donor's executed replies now answer retries at the lagger.
        assert!(r.sessions.replay(cmd(1).id).is_some());
    }

    #[test]
    fn only_the_most_advanced_p1b_snapshot_installs() {
        // Two donors with different compaction floors both attach
        // snapshots to the same promise wave; exactly one install runs,
        // and it is the most advanced state.
        let (mut behind, mut ahead) = (donor(1, 8), donor(3, 3));
        assert!(ahead.snapshot_floor() > behind.snapshot_floor());
        let mut votes = vec![behind.on_p1a(b(2), 0), ahead.on_p1a(b(2), 0)];
        let mut r = lagger(1000);
        r.install_p1b_snapshots(&mut votes);
        let stats = &r.cluster.stats;
        assert_eq!(stats.snapshots_installed(), 1, "one install, not per vote");
        assert_eq!(r.acceptor.commit_watermark(), ahead.snapshot_floor());
        assert!(votes.iter().all(|v| v.snapshot.is_none()));
    }

    #[test]
    fn snapshot_transfer_applies_snapshot_then_tail() {
        let a = donor(1, 5);
        let mut r = lagger(1000);
        let snap = a.latest_snapshot().unwrap().clone();
        let tail: Vec<(u64, Command)> = (snap.up_to..12).map(|s| (s, cmd(s + 1))).collect();
        let executed = r.apply_snapshot_transfer(b(1), &snap, tail);
        assert_eq!(executed.len(), (12 - snap.up_to) as usize);
        assert_eq!(r.acceptor.kv().fingerprint(), a.kv().fingerprint());
        assert_eq!(r.cluster.stats.snapshots_installed(), 1);
    }

    #[test]
    fn compact_hook_samples_peak_before_truncating() {
        let mut r = lagger(4);
        for s in 0..4 {
            r.acceptor.commit(s, b(1), cmd(s + 1));
        }
        r.acceptor.execute_ready();
        r.compact_after_execution();
        let stats = &r.cluster.stats;
        assert_eq!(stats.snapshots_taken(), 1);
        assert_eq!(
            stats.max_log_len(),
            4,
            "the gate must see the pre-truncation peak, not the post-compact length"
        );
        assert_eq!(r.acceptor.log().len(), 0, "truncation still happened");
    }
}
