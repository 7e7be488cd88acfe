//! The acceptor role: ballot promises, log acceptance, commit tracking,
//! and state-machine execution.
//!
//! Both Multi-Paxos and PigPaxos replicas embed an [`Acceptor`]; PigPaxos
//! changes only how acceptor responses travel, never what they contain.

use crate::messages::{P1bVote, P2bVote, QrVoteEntry};
use paxi::{
    Ballot, Command, Key, KvStore, Log, RequestId, SafetyMonitor, SessionTable, Snapshot,
    SnapshotConfig, Value,
};
use simnet::NodeId;
use std::collections::HashMap;

/// Follower-side consensus state.
#[derive(Debug)]
pub struct Acceptor {
    node: NodeId,
    promised: Ballot,
    log: Log,
    kv: KvStore,
    safety: SafetyMonitor,
    /// Slot of the last executed write per key (for quorum reads).
    last_write_slot: HashMap<Key, u64>,
    /// When to snapshot + truncate the executed prefix (disabled by
    /// default).
    snapshot_cfg: SnapshotConfig,
    /// The snapshot covering everything below the compaction floor —
    /// what this acceptor serves to peers whose missing prefix is gone.
    latest_snapshot: Option<Snapshot>,
}

/// Result of advancing the commit watermark.
#[derive(Debug, Default, PartialEq)]
pub struct CommitAdvance {
    /// Executed commands: `(slot, request id, read result)`.
    pub executed: Vec<(u64, RequestId, Option<Value>)>,
    /// A gap prevents further commits: the replica should schedule a
    /// (batched, rate-limited) `LearnReq` covering slots up to this
    /// watermark.
    pub learn_needed: Option<u64>,
}

impl Acceptor {
    /// New acceptor for `node`, reporting commits to `safety`.
    /// Compaction is off until [`Acceptor::set_snapshot_config`].
    pub fn new(node: NodeId, safety: SafetyMonitor) -> Self {
        Acceptor {
            node,
            promised: Ballot::ZERO,
            log: Log::new(),
            kv: KvStore::new(),
            safety,
            last_write_slot: HashMap::new(),
            snapshot_cfg: SnapshotConfig::disabled(),
            latest_snapshot: None,
        }
    }

    /// Install the compaction policy (from the protocol config).
    pub fn set_snapshot_config(&mut self, cfg: SnapshotConfig) {
        self.snapshot_cfg = cfg;
    }

    /// Highest promised ballot.
    pub fn promised(&self) -> Ballot {
        self.promised
    }

    /// The underlying log (read access for tests and leaders).
    pub fn log(&self) -> &Log {
        &self.log
    }

    /// The replicated state machine.
    pub fn kv(&self) -> &KvStore {
        &self.kv
    }

    /// Handle a phase-1a leadership proposal. `from` is the candidate's
    /// commit watermark; the promise reports every entry (committed or
    /// not) from there, so a candidate that fell behind learns decided
    /// slots instead of filling them with no-ops.
    pub fn on_p1a(&mut self, ballot: Ballot, from: u64) -> P1bVote {
        if ballot > self.promised {
            self.promised = ballot;
            // If the candidate's watermark lies below our compaction
            // floor, the slots it is missing no longer exist here as
            // entries — attach the snapshot that replaced them so the
            // candidate installs state instead of filling decided slots
            // with no-ops.
            let floor = self.log.compacted_up_to();
            let snapshot = if from < floor {
                self.latest_snapshot.clone().map(Box::new)
            } else {
                None
            };
            P1bVote {
                node: self.node,
                ballot,
                ok: true,
                accepted: self.log.entries_from(from.max(floor)),
                snapshot,
            }
        } else {
            P1bVote {
                node: self.node,
                ballot: self.promised,
                ok: false,
                accepted: Vec::new(),
                snapshot: None,
            }
        }
    }

    /// Handle a phase-2a accept request. On success also advances commits
    /// using the piggybacked watermark; the caller must process the
    /// returned [`CommitAdvance`]. `None` — no vote, and no trace of the
    /// message here — when `slot` is beyond the log's reach
    /// ([`Log::reach`]): slots come off the wire, and a forged one
    /// must not size the log.
    pub fn on_p2a(
        &mut self,
        ballot: Ballot,
        slot: u64,
        command: Command,
        commit_up_to: u64,
    ) -> Option<(P2bVote, CommitAdvance)> {
        if ballot < self.promised {
            let nack = P2bVote {
                node: self.node,
                ballot: self.promised,
                slot,
                ok: false,
            };
            return Some((nack, CommitAdvance::default()));
        }
        // Nothing accepted here carries a ballot above the promise, so
        // the log turns down only a slot it cannot reach.
        if !self.log.accept(slot, ballot, command) {
            return None;
        }
        self.promised = ballot;
        let adv = self.advance_commits(commit_up_to, ballot);
        let ack = P2bVote {
            node: self.node,
            ballot,
            slot,
            ok: true,
        };
        Some((ack, adv))
    }

    /// Process the commit watermark from a leader message: every slot
    /// `< commit_up_to` is decided. Entries accepted under
    /// `leader_ballot` are committed as-is; a hole or an entry from an
    /// older ballot needs repair (`learn_needed`). A watermark beyond
    /// the log's reach is cut back to it: no entry can lie out there,
    /// and the repair it asks for must stay a range this log can hold.
    pub fn advance_commits(&mut self, commit_up_to: u64, leader_ballot: Ballot) -> CommitAdvance {
        let mut adv = CommitAdvance::default();
        let commit_up_to = commit_up_to.min(self.log.reach());
        for s in self.log.execute_cursor()..commit_up_to {
            let committable = match self.log.get(s) {
                Some(e) if e.committed => None, // already done
                Some(e) if e.ballot == leader_ballot => Some(e.command.clone()),
                _ => {
                    adv.learn_needed = Some(commit_up_to);
                    break;
                }
            };
            if let Some(cmd) = committable {
                self.commit(s, leader_ballot, cmd);
            }
        }
        adv.executed = self.execute_ready();
        adv
    }

    /// Commit a decided `(slot, command)` (from vote counting at the
    /// leader, or from a `LearnRep`). Slots below the executed frontier
    /// — including truncated ones — are already decided, and slots
    /// beyond the log's reach cannot be stored; a commit for either is
    /// ignored, and the safety monitor hears only of slots this call
    /// decided.
    pub fn commit(&mut self, slot: u64, ballot: Ballot, command: Command) {
        let id = command.id;
        if self.log.commit(slot, ballot, command) {
            self.safety.record(0, slot, id);
        }
    }

    /// Apply every gap-free committed command to the state machine.
    pub fn execute_ready(&mut self) -> Vec<(u64, RequestId, Option<Value>)> {
        let mut out = Vec::new();
        while let Some((slot, cmd)) = self.log.next_executable() {
            let id = cmd.id;
            let op = cmd.op.clone();
            let result = self.kv.apply(&op);
            if !op.is_read() {
                if let Some(key) = op.key() {
                    self.last_write_slot.insert(key, slot);
                }
            }
            self.log.mark_executed(slot);
            out.push((slot, id, result));
        }
        out
    }

    /// True if `id` sits in the committed-or-accepted-but-unexecuted
    /// window of the log — the retry gap the session table cannot
    /// cover (see [`paxi::Log::has_unexecuted_command`]).
    pub fn has_unexecuted_command(&self, id: RequestId) -> bool {
        self.log.has_unexecuted_command(id)
    }

    /// Highest sequence number of `client`'s commands in the unexecuted
    /// window (see [`paxi::Log::highest_unexecuted_seq`]).
    pub fn highest_unexecuted_seq(&self, client: simnet::NodeId) -> Option<u64> {
        self.log.highest_unexecuted_seq(client)
    }

    /// This replica's answer to a quorum read (PQR): the last executed
    /// write to `key` plus whether any uncommitted write to it is in
    /// flight here.
    pub fn read_state(&self, key: Key) -> QrVoteEntry {
        QrVoteEntry {
            node: self.node,
            value_slot: self.last_write_slot.get(&key).copied().unwrap_or(0),
            value: self.kv.peek(key).cloned(),
            pending_write: self
                .log
                .has_uncommitted_write(key, self.log.execute_cursor()),
        }
    }

    /// Lowest slot not yet committed locally (this acceptor's commit
    /// watermark; at the leader it is the cluster watermark).
    pub fn commit_watermark(&self) -> u64 {
        // Slots below the execute cursor are committed & executed; scan
        // forward from there for the first uncommitted slot.
        let mut s = self.log.execute_cursor();
        while self.log.get(s).map(|e| e.committed).unwrap_or(false) {
            s += 1;
        }
        s
    }

    /// Decided entries in `[from, to)` for serving a `LearnReq`.
    pub fn committed_range(&self, from: u64, to: u64) -> Vec<(u64, Command)> {
        (from..to)
            .filter_map(|s| {
                self.log
                    .get(s)
                    .filter(|e| e.committed)
                    .map(|e| (s, e.command.clone()))
            })
            .collect()
    }

    /// Decided entries for an explicit slot list (serving a batched
    /// `LearnReq`).
    pub fn committed_slots(&self, slots: &[u64]) -> Vec<(u64, Command)> {
        slots
            .iter()
            .filter_map(|&s| {
                self.log
                    .get(s)
                    .filter(|e| e.committed)
                    .map(|e| (s, e.command.clone()))
            })
            .collect()
    }

    /// Slots in `[execute_cursor, up_to)` this acceptor has not
    /// committed — the precise repair set for a `LearnReq`. Capped at
    /// `max` entries to bound message sizes.
    pub fn missing_slots(&self, up_to: u64, max: usize) -> Vec<u64> {
        (self.log.execute_cursor()..up_to)
            .filter(|&s| !self.log.get(s).map(|e| e.committed).unwrap_or(false))
            .take(max)
            .collect()
    }

    // ---- log compaction & snapshot catch-up ------------------------------

    /// Compaction floor: every slot below it was truncated (its effect
    /// lives in [`Acceptor::latest_snapshot`]).
    pub fn snapshot_floor(&self) -> u64 {
        self.log.compacted_up_to()
    }

    /// The snapshot covering everything below the floor, if one was
    /// ever taken or installed.
    pub fn latest_snapshot(&self) -> Option<&Snapshot> {
        self.latest_snapshot.as_ref()
    }

    /// Snapshot + truncate if the configured trigger fired: the
    /// executed frontier advanced `interval_ops` past the floor.
    /// `sessions` is the replica's reply cache at this instant — it
    /// travels inside the snapshot so a catch-up peer still answers
    /// retries exactly once.
    /// Returns `true` when a snapshot was taken.
    pub fn maybe_compact(&mut self, sessions: &SessionTable) -> bool {
        let Some(interval) = self.snapshot_cfg.interval_ops else {
            return false;
        };
        let since = self.log.execute_cursor() - self.log.compacted_up_to();
        if since == 0 || since < interval {
            return false;
        }
        self.force_snapshot(sessions);
        true
    }

    /// Snapshot the executed prefix and truncate the log below the
    /// executed frontier (compaction never drops undecided or
    /// unexecuted slots — the frontier *is* the bound).
    ///
    /// Capture is skipped when the executed frontier has not advanced
    /// past the snapshot already held: the held snapshot *is* the state
    /// at that frontier, so recapturing would deep-clone the whole
    /// kv/session state for nothing — and worse, it would freeze
    /// whatever the session table holds *now* under the old `up_to`.
    /// Session entries recorded since the frontier froze (e.g. replies
    /// cached by the shared reply leg) would then claim coverage a
    /// snapshot at that frontier cannot justify — the staleness bug
    /// this guard fixes. Truncation still runs; it is idempotent.
    pub fn force_snapshot(&mut self, sessions: &SessionTable) {
        let up_to = self.log.execute_cursor();
        let fresh = self
            .latest_snapshot
            .as_ref()
            .is_some_and(|s| s.up_to >= up_to);
        if !fresh {
            self.latest_snapshot = Some(Snapshot::capture(
                up_to,
                &self.kv,
                &self.last_write_slot,
                sessions,
            ));
        }
        self.log.truncate_below(up_to);
    }

    /// Install a snapshot received from a peer (via a phase-1b promise
    /// or a `SnapshotTransfer`). Replaces the state machine, jumps the
    /// executed frontier to `snapshot.up_to`, and keeps any accepted or
    /// committed tail entries above it. Returns `false` (untouched)
    /// when the snapshot is not ahead of this acceptor.
    pub fn install_snapshot(&mut self, snapshot: &Snapshot) -> bool {
        if !self.log.install_snapshot(snapshot.up_to) {
            return false;
        }
        self.kv = snapshot.kv.clone();
        self.last_write_slot = snapshot.last_write_slots.iter().copied().collect();
        self.latest_snapshot = Some(snapshot.clone());
        true
    }

    /// Answer a `LearnReq` for `slots`: decided entries when every slot
    /// is still in the log, or the latest snapshot plus the decided
    /// tail when some requested slot lies below the compaction floor.
    /// `None` when there is nothing useful to send.
    pub fn serve_learn(&self, slots: &[u64]) -> Option<LearnAnswer> {
        let floor = self.log.compacted_up_to();
        if slots.iter().any(|&s| s < floor) {
            if let Some(snap) = &self.latest_snapshot {
                let tail: Vec<u64> = slots.iter().copied().filter(|&s| s >= floor).collect();
                return Some(LearnAnswer::Snapshot(
                    Box::new(snap.clone()),
                    self.committed_slots(&tail),
                ));
            }
        }
        let entries = self.committed_slots(slots);
        if entries.is_empty() {
            None
        } else {
            Some(LearnAnswer::Entries(entries))
        }
    }
}

/// What an acceptor sends back for a `LearnReq` (see
/// [`Acceptor::serve_learn`]).
#[derive(Debug)]
pub enum LearnAnswer {
    /// Every requested slot is still in the log: plain decided entries.
    Entries(Vec<(u64, Command)>),
    /// Some requested slots were compacted away: ship the snapshot plus
    /// the decided entries at or above the floor.
    Snapshot(Box<Snapshot>, Vec<(u64, Command)>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi::Operation;

    fn acc() -> Acceptor {
        Acceptor::new(NodeId(1), SafetyMonitor::new())
    }

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

    #[test]
    fn p1a_promise_and_reject() {
        let mut a = acc();
        let v = a.on_p1a(b(1), 0);
        assert!(v.ok);
        assert_eq!(v.ballot, b(1));
        // Same ballot again: reject (strictly-greater required).
        let v2 = a.on_p1a(b(1), 0);
        assert!(!v2.ok);
        let v3 = a.on_p1a(b(2), 0);
        assert!(v3.ok);
    }

    #[test]
    fn p1b_reports_committed_and_accepted_entries_from_watermark() {
        let mut a = acc();
        a.on_p2a(b(1), 0, cmd(1), 0);
        a.on_p2a(b(1), 1, cmd(2), 0);
        // Commit slot 0 only.
        a.commit(0, b(1), cmd(1));
        // A candidate starting from watermark 0 must learn about *both*
        // slots: the committed one (so it is never refilled with a noop)
        // and the uncommitted one (to re-propose it).
        let v = a.on_p1a(b(2), 0);
        assert!(v.ok);
        assert_eq!(v.accepted.len(), 2);
        assert_eq!(v.accepted[0].0, 0);
        assert_eq!(v.accepted[1].0, 1);
        // A candidate already past slot 0 only gets the tail.
        let v = a.on_p1a(b(3), 1);
        assert_eq!(v.accepted.len(), 1, "`from` bounds the phase-1b payload");
        assert_eq!(v.accepted[0].0, 1);
    }

    #[test]
    fn p2a_accept_and_reject_by_ballot() {
        let mut a = acc();
        a.on_p1a(b(5), 0);
        let (v, _) = a.on_p2a(b(5), 0, cmd(1), 0).unwrap();
        assert!(v.ok, "equal ballot accepted");
        let (v, _) = a.on_p2a(b(3), 1, cmd(2), 0).unwrap();
        assert!(!v.ok, "lower ballot rejected");
        assert_eq!(v.ballot, b(5), "nack reports promised ballot");
    }

    #[test]
    fn forged_slots_get_no_vote_and_leave_no_entry() {
        let safety = SafetyMonitor::new();
        let mut a = Acceptor::new(NodeId(1), safety.clone());
        a.on_p1a(b(1), 0);
        for slot in [1 << 40, u64::MAX - 1, u64::MAX] {
            assert!(a.on_p2a(b(2), slot, cmd(1), 0).is_none(), "slot {slot}");
            a.commit(slot, b(2), cmd(1));
        }
        assert_eq!(a.promised(), b(1), "a refused accept promises nothing");
        assert!(a.log().is_empty());
        assert_eq!(a.log().next_slot(), 0);
        assert_eq!(safety.commit_observations(), 0, "nor does the monitor hear");
        // A forged watermark asks for repair only as far as the log reaches.
        let adv = a.advance_commits(u64::MAX, b(1));
        assert_eq!(adv.learn_needed, Some(a.log().reach()));
        assert!(adv.executed.is_empty());
    }

    #[test]
    fn watermark_commits_and_executes() {
        let mut a = acc();
        let (_, adv) = a.on_p2a(b(1), 0, cmd(1), 0).unwrap();
        assert!(adv.executed.is_empty());
        // Second p2a carries watermark 1 -> slot 0 commits and executes.
        let (_, adv) = a.on_p2a(b(1), 1, cmd(2), 1).unwrap();
        assert_eq!(adv.executed.len(), 1);
        assert_eq!(adv.executed[0].0, 0);
        assert!(adv.learn_needed.is_none());
        assert_eq!(a.kv().applied(), 1);
        assert_eq!(a.commit_watermark(), 1);
    }

    #[test]
    fn gap_triggers_learn() {
        let mut a = acc();
        // Accept slot 2 only; watermark says 3 -> slots 0,1 missing.
        let (_, adv) = a.on_p2a(b(1), 2, cmd(3), 3).unwrap();
        assert_eq!(adv.learn_needed, Some(3));
        assert!(adv.executed.is_empty());
    }

    #[test]
    fn old_ballot_entry_triggers_learn() {
        let mut a = acc();
        a.on_p2a(b(1), 0, cmd(1), 0);
        // New leader at b2; its watermark covers slot 0 but our entry is b1.
        let (_, adv) = a.on_p2a(b(2), 1, cmd(2), 1).unwrap();
        assert_eq!(adv.learn_needed, Some(1));
    }

    #[test]
    fn learn_rep_fills_gap_and_unblocks_execution() {
        let mut a = acc();
        a.on_p2a(b(1), 2, cmd(3), 0);
        a.commit(2, b(1), cmd(3));
        assert_eq!(a.execute_ready().len(), 0, "blocked by holes");
        a.commit(0, b(1), cmd(1));
        a.commit(1, b(1), cmd(2));
        let ex = a.execute_ready();
        assert_eq!(ex.iter().map(|e| e.0).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(a.commit_watermark(), 3);
    }

    #[test]
    fn commit_is_idempotent_for_safety_reporting() {
        let safety = SafetyMonitor::new();
        let mut a = Acceptor::new(NodeId(1), safety.clone());
        a.commit(0, b(1), cmd(1));
        a.commit(0, b(1), cmd(1));
        assert_eq!(
            safety.commit_observations(),
            1,
            "double commit reported once"
        );
    }

    #[test]
    fn committed_range_serves_learn_requests() {
        let mut a = acc();
        a.commit(0, b(1), cmd(1));
        a.commit(2, b(1), cmd(3));
        let r = a.committed_range(0, 3);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].0, 0);
        assert_eq!(r[1].0, 2);
    }

    fn compacting_acc(interval: u64) -> Acceptor {
        let mut a = acc();
        a.set_snapshot_config(paxi::SnapshotConfig::every_ops(interval));
        a
    }

    /// Feed `n` decided Put commands and execute them.
    fn run_commits(a: &mut Acceptor, sessions: &mut SessionTable, n: u64) {
        for s in 0..n {
            a.commit(s, b(1), cmd(s + 1));
            for (_, id, value) in a.execute_ready() {
                sessions.record(&paxi::ClientReply::ok(id, value));
            }
            a.maybe_compact(sessions);
        }
    }

    #[test]
    fn compaction_bounds_log_and_keeps_state() {
        let mut a = compacting_acc(4);
        let mut sessions = SessionTable::new();
        run_commits(&mut a, &mut sessions, 20);
        assert!(a.snapshot_floor() >= 16, "floor {}", a.snapshot_floor());
        assert!(a.log().len() < 4 + 1, "log stays under one interval");
        let snap = a.latest_snapshot().expect("snapshot taken");
        assert_eq!(snap.up_to, a.snapshot_floor());
        assert_eq!(a.kv().applied(), 20, "state machine unaffected");
        assert_eq!(a.commit_watermark(), 20);
        // Truncated slots answer quorum reads from the snapshot index.
        assert!(a.read_state(1).value.is_some());
    }

    #[test]
    fn p1b_attaches_snapshot_for_stale_candidates() {
        let mut a = compacting_acc(4);
        let mut sessions = SessionTable::new();
        run_commits(&mut a, &mut sessions, 12);
        let floor = a.snapshot_floor();
        assert!(floor > 0);
        // Candidate behind the floor: snapshot attached, entries start
        // at the floor.
        let v = a.on_p1a(b(2), 0);
        assert!(v.ok);
        let snap = v.snapshot.expect("stale candidate gets the snapshot");
        assert_eq!(snap.up_to, floor);
        assert!(v.accepted.iter().all(|&(s, _, _)| s >= floor));
        // Candidate at/above the floor: no snapshot.
        let v = a.on_p1a(b(3), floor);
        assert!(v.snapshot.is_none());
    }

    #[test]
    fn install_snapshot_catches_up_a_lagging_acceptor() {
        let mut donor = compacting_acc(5);
        let mut sessions = SessionTable::new();
        run_commits(&mut donor, &mut sessions, 23);
        let mut lagger = acc();
        // Lagger executed only the first 3 slots.
        for s in 0..3 {
            lagger.commit(s, b(1), cmd(s + 1));
        }
        lagger.execute_ready();
        let snap = donor.latest_snapshot().unwrap().clone();
        assert!(lagger.install_snapshot(&snap));
        // Learn the tail above the floor and execute it.
        let tail: Vec<u64> = (snap.up_to..23).collect();
        match donor.serve_learn(&tail) {
            Some(LearnAnswer::Entries(entries)) => {
                for (s, c) in entries {
                    lagger.commit(s, b(1), c);
                }
            }
            other => panic!("tail above floor must be plain entries: {other:?}"),
        }
        lagger.execute_ready();
        assert_eq!(
            lagger.kv().fingerprint(),
            donor.kv().fingerprint(),
            "snapshot + tail reaches the same state"
        );
        assert_eq!(lagger.commit_watermark(), 23);
        assert!(!lagger.install_snapshot(&snap), "stale re-install refused");
    }

    #[test]
    fn serve_learn_ships_snapshot_below_floor() {
        let mut a = compacting_acc(4);
        let mut sessions = SessionTable::new();
        run_commits(&mut a, &mut sessions, 10);
        let floor = a.snapshot_floor();
        let slots: Vec<u64> = (0..10).collect();
        match a.serve_learn(&slots) {
            Some(LearnAnswer::Snapshot(snap, entries)) => {
                assert_eq!(snap.up_to, floor);
                assert!(entries.iter().all(|&(s, _)| s >= floor));
            }
            other => panic!("below-floor request must ship a snapshot: {other:?}"),
        }
        // All-above-floor request stays a plain LearnRep.
        let above: Vec<u64> = (floor..10).collect();
        assert!(matches!(
            a.serve_learn(&above),
            Some(LearnAnswer::Entries(_))
        ));
    }

    #[test]
    fn get_executes_against_prior_puts() {
        let mut a = acc();
        let put = Command {
            id: RequestId {
                client: NodeId(9),
                seq: 1,
            },
            op: Operation::Put(42, Value::zeros(3)),
        };
        let get = Command {
            id: RequestId {
                client: NodeId(9),
                seq: 2,
            },
            op: Operation::Get(42),
        };
        a.commit(0, b(1), put);
        a.commit(1, b(1), get);
        let ex = a.execute_ready();
        assert_eq!(ex[1].2.as_ref().map(|v| v.len()), Some(3));
    }
}
