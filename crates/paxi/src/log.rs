//! The replicated command log.
//!
//! A slot-indexed log with the usual Multi-Paxos life cycle per slot:
//! *accepted* (under some ballot) → *committed* → *executed*. Execution
//! is strictly in slot order with no gaps, which is what gives
//! linearizability of commands.
//!
//! Slots are dense — a leader proposes into consecutive slots and
//! compaction only ever drops a prefix — so the log is a ring of cells
//! indexed by `slot − floor`, not an ordered map: every per-message
//! operation is one index. The price is that a *hole* (a slot below the
//! highest seen that holds nothing yet) costs an empty cell where a map
//! would cost nothing, so a message may open at most [`MAX_HOLE`] of
//! them; see [`Log::reach`].

use crate::ballot::Ballot;
use crate::command::Command;
use std::collections::VecDeque;

/// How far past the highest slot the log has seen one `accept` or
/// `commit` may land. Slots come off the wire, and the ring allocates a
/// cell for every slot up to the one it stores, so without a bound a
/// forged `slot: 1 << 40` would size a terabyte allocation. 2^20 empty
/// cells are ≈ 72 MiB — the order of the transport's largest frame, and
/// two orders of magnitude past the widest in-flight window of any
/// checked-in run.
pub const MAX_HOLE: u64 = 1 << 20;

/// One slot's state.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// Ballot under which the current value was accepted.
    pub ballot: Ballot,
    /// The accepted command.
    pub command: Command,
    /// Set once the slot's value is decided.
    pub committed: bool,
    /// Set once the command has been applied to the state machine.
    pub executed: bool,
}

/// A slot-indexed replicated log: a ring of cells, one per slot from the
/// compaction floor to the highest slot stored, empty where nothing was
/// accepted yet.
///
/// Supports **compaction**: once slots are executed, [`Log::truncate_below`]
/// pops them off the front (their effect lives on in a state-machine
/// snapshot) and [`Log::compacted_up_to`] records the floor. Accepts and
/// commits for slots below the executed frontier are ignored — an
/// executed slot is decided by definition, so a late message about it is
/// stale. Accepts and commits at or beyond [`Log::reach`] are refused.
#[derive(Debug, Default, Clone)]
pub struct Log {
    /// Cell `i` is slot `compacted + i`.
    cells: VecDeque<Option<LogEntry>>,
    /// Occupied cells.
    len: usize,
    /// Next slot the leader will propose into.
    next_slot: u64,
    /// Lowest slot that has not been executed yet.
    execute_cursor: u64,
    /// Slots below this have been truncated away (compaction floor).
    compacted: u64,
}

impl Log {
    /// Empty log; slots start at 0.
    pub fn new() -> Self {
        Log::default()
    }

    /// Allocate the next free slot for a proposal.
    pub fn allocate_slot(&mut self) -> u64 {
        let s = self.next_slot;
        self.next_slot += 1;
        s
    }

    /// The first slot out of reach: [`MAX_HOLE`] past the highest slot
    /// seen. [`Log::accept`] and [`Log::commit`] store slots below it and
    /// refuse the rest; `u64::MAX` is always refused (no slot follows it).
    pub fn reach(&self) -> u64 {
        self.next_slot.saturating_add(MAX_HOLE)
    }

    /// The cell of an in-reach `slot` at or above the floor, growing the
    /// ring with empty cells up to it.
    fn cell_mut(&mut self, slot: u64) -> &mut Option<LogEntry> {
        let i = (slot - self.compacted) as usize;
        if i >= self.cells.len() {
            self.cells.resize_with(i + 1, || None);
        }
        &mut self.cells[i]
    }

    /// Occupied cells at or above `from`, with their slots, in order.
    fn occupied_from(&self, from: u64) -> impl Iterator<Item = (u64, &LogEntry)> {
        let first = from.max(self.compacted);
        let skip = (first - self.compacted).min(self.cells.len() as u64) as usize;
        let cells = self.cells.range(skip..).zip(first..);
        cells.filter_map(|(cell, slot)| Some((slot, cell.as_ref()?)))
    }

    /// Record an accepted `(ballot, command)` in `slot`, overwriting any
    /// value accepted under a lower ballot. Returns `false` (and leaves
    /// the log alone) if the slot already holds a value under a higher
    /// ballot, or is out of reach.
    pub fn accept(&mut self, slot: u64, ballot: Ballot, command: Command) -> bool {
        if slot >= self.reach() {
            return false;
        }
        self.next_slot = self.next_slot.max(slot + 1);
        if slot < self.execute_cursor {
            // Already executed (possibly truncated away): decided, so
            // the accept is a no-op — and must not re-insert an entry
            // below the cursor after compaction.
            return true;
        }
        match self.cell_mut(slot) {
            Some(e) if e.committed => return true, // decided: accept is a no-op
            Some(e) if e.ballot > ballot => return false,
            Some(e) => {
                e.command = command;
                e.ballot = ballot;
            }
            empty => {
                *empty = Some(LogEntry {
                    ballot,
                    command,
                    committed: false,
                    executed: false,
                });
                self.len += 1;
            }
        }
        true
    }

    /// Mark a slot committed with the given command (idempotent). If the
    /// slot held a different uncommitted value, the committed value wins.
    /// Returns `true` if this call decided the slot: `false` for a slot
    /// already committed, already executed, or out of reach.
    pub fn commit(&mut self, slot: u64, ballot: Ballot, command: Command) -> bool {
        if slot >= self.reach() {
            return false;
        }
        self.next_slot = self.next_slot.max(slot + 1);
        if slot < self.execute_cursor {
            // Executed (and possibly compacted away): a late commit for
            // it must not re-insert an entry below the cursor.
            return false;
        }
        match self.cell_mut(slot) {
            Some(e) if e.committed => return false,
            Some(e) => {
                e.command = command;
                e.ballot = ballot;
                e.committed = true;
            }
            empty => {
                *empty = Some(LogEntry {
                    ballot,
                    command,
                    committed: true,
                    executed: false,
                });
                self.len += 1;
            }
        }
        true
    }

    /// The next command ready to execute: the lowest committed, unexecuted
    /// slot with no uncommitted gap below it.
    pub fn next_executable(&self) -> Option<(u64, &Command)> {
        let e = self.get(self.execute_cursor)?;
        if e.committed && !e.executed {
            Some((self.execute_cursor, &e.command))
        } else {
            None
        }
    }

    /// Mark the execute-cursor slot done and advance the cursor.
    /// Panics if called out of order.
    pub fn mark_executed(&mut self, slot: u64) {
        assert_eq!(slot, self.execute_cursor, "out-of-order execution");
        let e = self
            .cells
            .get_mut((slot - self.compacted) as usize)
            .and_then(Option::as_mut)
            .expect("executing a missing slot");
        assert!(e.committed, "executing an uncommitted slot");
        e.executed = true;
        self.execute_cursor += 1;
    }

    /// Entry at `slot`, if any.
    pub fn get(&self, slot: u64) -> Option<&LogEntry> {
        let i = usize::try_from(slot.checked_sub(self.compacted)?).ok()?;
        self.cells.get(i)?.as_ref()
    }

    /// Next slot a proposal would go into.
    pub fn next_slot(&self) -> u64 {
        self.next_slot
    }

    /// Lowest unexecuted slot.
    pub fn execute_cursor(&self) -> u64 {
        self.execute_cursor
    }

    /// Number of committed slots.
    pub fn committed_count(&self) -> u64 {
        self.cells.iter().flatten().filter(|e| e.committed).count() as u64
    }

    /// Number of retained entries — the memory footprint compaction
    /// bounds (and [`crate::CompactionStats`] tracks the maximum of).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Compaction floor: every slot below it has been truncated away
    /// (executed, and its effect captured by a snapshot). 0 until the
    /// first truncation.
    pub fn compacted_up_to(&self) -> u64 {
        self.compacted
    }

    /// Pop every cell below `up_to` off the front and make it the floor.
    fn drop_below(&mut self, up_to: u64) {
        let n = (up_to - self.compacted).min(self.cells.len() as u64) as usize;
        self.len -= self.cells.drain(..n).flatten().count();
        self.compacted = up_to;
    }

    /// Drop every entry below `up_to`. Only the executed prefix may be
    /// truncated — the caller must hold a snapshot covering `[0, up_to)`.
    /// Panics if `up_to` exceeds the executed frontier (compaction must
    /// never drop undecided or unexecuted slots).
    pub fn truncate_below(&mut self, up_to: u64) {
        assert!(
            up_to <= self.execute_cursor,
            "truncating above the executed frontier ({} > {})",
            up_to,
            self.execute_cursor
        );
        if up_to > self.compacted {
            self.drop_below(up_to);
        }
    }

    /// Install a snapshot covering `[0, up_to)`: drop every entry below
    /// `up_to` and advance the execute cursor there (the state machine
    /// was restored separately). Entries at or above `up_to` survive —
    /// they may already hold accepted or committed tail values. No-op
    /// (returns `false`) when the snapshot is not ahead of this log.
    pub fn install_snapshot(&mut self, up_to: u64) -> bool {
        if up_to <= self.execute_cursor {
            return false;
        }
        self.drop_below(up_to);
        self.execute_cursor = up_to;
        self.next_slot = self.next_slot.max(up_to);
        true
    }

    /// True if any unexecuted entry (accepted or committed) at or above
    /// the execute cursor carries `id`. This is the duplicate-suppression
    /// window the session table cannot see: a command that is already
    /// committed but still waiting on a lower slot to execute is in
    /// neither the leader's outstanding set nor the session table, and
    /// re-proposing a client retry of it would decide the command twice.
    pub fn has_unexecuted_command(&self, id: crate::command::RequestId) -> bool {
        self.occupied_from(self.execute_cursor)
            .any(|(_, e)| !e.executed && e.command.id == id)
    }

    /// Highest sequence number of `client`'s commands in the unexecuted
    /// window (accepted or committed, not yet executed). Used to rebuild
    /// a leader's per-client proposal floor after re-election.
    pub fn highest_unexecuted_seq(&self, client: simnet::NodeId) -> Option<u64> {
        self.occupied_from(self.execute_cursor)
            .filter(|(_, e)| !e.executed && e.command.id.client == client)
            .map(|(_, e)| e.command.id.seq)
            .max()
    }

    /// Every `(slot, ballot, command)` at or above `from_slot`, committed
    /// or not — the phase-1b payload. Reporting *committed* entries too is
    /// what keeps a new leader from filling a slot that was already
    /// decided elsewhere (and since the commit watermark only advances
    /// over committed prefixes, `from_slot` bounds the payload to the
    /// in-flight window).
    pub fn entries_from(&self, from_slot: u64) -> Vec<(u64, Ballot, Command)> {
        self.occupied_from(from_slot)
            .map(|(s, e)| (s, e.ballot, e.command.clone()))
            .collect()
    }

    /// Slots in `[from, to)` that have no entry (holes a recovering leader
    /// fills with no-ops).
    pub fn holes(&self, from: u64, to: u64) -> Vec<u64> {
        (from..to).filter(|&s| self.get(s).is_none()).collect()
    }

    /// True if any entry at or above `from` writes `key`, accepted or
    /// committed — the "pending write" check of Paxos Quorum Reads. From
    /// the execute cursor on, a committed write is as unseen as an
    /// accepted one: it may wait behind a hole.
    pub fn has_unexecuted_write(&self, key: crate::command::Key, from: u64) -> bool {
        self.occupied_from(from)
            .any(|(_, e)| !e.command.op.is_read() && e.command.op.key() == Some(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{Operation, RequestId};
    use simnet::NodeId;

    fn cmd(seq: u64) -> Command {
        Command {
            id: RequestId {
                client: NodeId(100),
                seq,
            },
            op: Operation::Get(seq),
        }
    }

    fn b(r: u32) -> Ballot {
        Ballot::new(r, NodeId(0))
    }

    #[test]
    fn allocate_monotonic() {
        let mut log = Log::new();
        assert_eq!(log.allocate_slot(), 0);
        assert_eq!(log.allocate_slot(), 1);
        assert_eq!(log.next_slot(), 2);
    }

    #[test]
    fn accept_higher_ballot_overwrites() {
        let mut log = Log::new();
        assert!(log.accept(0, b(1), cmd(1)));
        assert!(log.accept(0, b(2), cmd(2)));
        assert_eq!(log.get(0).unwrap().command, cmd(2));
    }

    #[test]
    fn accept_lower_ballot_rejected() {
        let mut log = Log::new();
        assert!(log.accept(0, b(2), cmd(2)));
        assert!(!log.accept(0, b(1), cmd(1)));
        assert_eq!(log.get(0).unwrap().command, cmd(2));
    }

    #[test]
    fn accept_extends_next_slot() {
        let mut log = Log::new();
        log.accept(5, b(1), cmd(1));
        assert_eq!(log.next_slot(), 6);
    }

    #[test]
    fn commit_then_execute_in_order() {
        let mut log = Log::new();
        log.accept(0, b(1), cmd(1));
        log.accept(1, b(1), cmd(2));
        log.commit(1, b(1), cmd(2));
        assert!(log.next_executable().is_none(), "slot 0 not committed yet");
        log.commit(0, b(1), cmd(1));
        let (s, c) = log.next_executable().unwrap();
        assert_eq!((s, c.clone()), (0, cmd(1)));
        log.mark_executed(0);
        let (s, c) = log.next_executable().unwrap();
        assert_eq!((s, c.clone()), (1, cmd(2)));
        log.mark_executed(1);
        assert!(log.next_executable().is_none());
        assert_eq!(log.execute_cursor(), 2);
    }

    #[test]
    fn commit_is_idempotent_and_sticky() {
        let mut log = Log::new();
        log.commit(0, b(1), cmd(1));
        log.commit(0, b(9), cmd(2)); // later commit with different value ignored
        assert_eq!(log.get(0).unwrap().command, cmd(1));
        assert!(log.get(0).unwrap().committed);
    }

    #[test]
    fn commit_overrides_uncommitted_accept() {
        let mut log = Log::new();
        log.accept(0, b(5), cmd(5));
        log.commit(0, b(1), cmd(1)); // decided value wins regardless of ballot
        assert_eq!(log.get(0).unwrap().command, cmd(1));
    }

    #[test]
    fn accept_on_committed_slot_is_noop() {
        let mut log = Log::new();
        log.commit(0, b(1), cmd(1));
        assert!(log.accept(0, b(9), cmd(9)));
        assert_eq!(log.get(0).unwrap().command, cmd(1));
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_execution_panics() {
        let mut log = Log::new();
        log.commit(0, b(1), cmd(1));
        log.commit(1, b(1), cmd(2));
        log.mark_executed(1);
    }

    #[test]
    fn entries_and_holes_for_recovery() {
        let mut log = Log::new();
        log.accept(0, b(1), cmd(1));
        log.commit(0, b(1), cmd(1));
        log.accept(2, b(1), cmd(3)); // slot 1 is a hole
                                     // Phase-1b payload: committed AND accepted entries from `from`.
        let all = log.entries_from(0);
        assert_eq!(all.iter().map(|e| e.0).collect::<Vec<_>>(), vec![0, 2]);
        let tail = log.entries_from(1);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].0, 2);
        assert_eq!(log.holes(0, 3), vec![1]);
        assert_eq!(log.committed_count(), 1);
    }

    #[test]
    fn truncate_drops_executed_prefix_only() {
        let mut log = Log::new();
        for s in 0..4 {
            log.commit(s, b(1), cmd(s));
        }
        log.mark_executed(0);
        log.mark_executed(1);
        log.truncate_below(2);
        assert_eq!(log.compacted_up_to(), 2);
        assert_eq!(log.len(), 2, "unexecuted committed tail survives");
        assert!(log.get(0).is_none());
        assert!(log.get(2).is_some());
        assert_eq!(log.execute_cursor(), 2);
        // Late messages about truncated slots are stale no-ops.
        assert!(log.accept(0, b(9), cmd(9)), "accept below cursor acks");
        log.commit(1, b(9), cmd(9));
        assert!(log.get(0).is_none());
        assert!(log.get(1).is_none());
        // Execution continues over the tail.
        log.mark_executed(2);
        log.mark_executed(3);
    }

    #[test]
    #[should_panic(expected = "above the executed frontier")]
    fn truncate_above_executed_frontier_panics() {
        let mut log = Log::new();
        log.commit(0, b(1), cmd(1));
        log.truncate_below(1); // slot 0 committed but not executed
    }

    #[test]
    fn install_snapshot_jumps_cursor_and_keeps_tail() {
        let mut log = Log::new();
        log.accept(5, b(1), cmd(5));
        log.commit(6, b(1), cmd(6));
        assert!(log.install_snapshot(5), "snapshot ahead of empty prefix");
        assert_eq!(log.execute_cursor(), 5);
        assert_eq!(log.compacted_up_to(), 5);
        assert_eq!(log.next_slot(), 7);
        assert!(log.get(5).is_some(), "tail entry at the boundary kept");
        assert!(!log.install_snapshot(3), "stale snapshot rejected");
        log.commit(5, b(1), cmd(5));
        log.mark_executed(5);
        log.mark_executed(6);
        assert_eq!(log.execute_cursor(), 7);
    }

    #[test]
    fn slots_out_of_reach_are_refused_and_leave_no_trace() {
        let mut log = Log::new();
        log.commit(0, b(1), cmd(1));
        assert_eq!(log.reach(), 1 + MAX_HOLE);
        for slot in [log.reach(), 1 << 40, u64::MAX - 1, u64::MAX] {
            assert!(!log.accept(slot, b(1), cmd(2)), "accept {slot}");
            assert!(!log.commit(slot, b(1), cmd(2)), "commit {slot}");
            assert!(log.get(slot).is_none());
        }
        assert_eq!((log.len(), log.next_slot(), log.cells.len()), (1, 1, 1));
        // In reach: a hole costs its empty cells and nothing else.
        assert!(log.accept(9, b(1), cmd(2)));
        assert_eq!((log.len(), log.next_slot(), log.cells.len()), (2, 10, 10));
        assert_eq!(log.holes(0, 10), (1..9).collect::<Vec<_>>());
        assert_eq!(
            log.reach(),
            10 + MAX_HOLE,
            "reach follows the highest slot seen"
        );
    }

    #[test]
    fn commit_reports_whether_it_decided() {
        let mut log = Log::new();
        assert!(log.commit(0, b(1), cmd(1)), "a hole");
        assert!(!log.commit(0, b(1), cmd(1)), "already committed");
        log.accept(1, b(1), cmd(2));
        assert!(log.commit(1, b(1), cmd(2)), "an accepted entry");
        log.mark_executed(0);
        assert!(!log.commit(0, b(2), cmd(1)), "already executed");
    }

    #[test]
    fn unexecuted_command_window() {
        let mut log = Log::new();
        log.commit(0, b(1), cmd(1));
        log.accept(2, b(1), cmd(3)); // committed slot 0 + accepted slot 2
        assert!(
            log.has_unexecuted_command(cmd(1).id),
            "committed, not yet executed"
        );
        assert!(
            log.has_unexecuted_command(cmd(3).id),
            "accepted, not yet executed"
        );
        log.mark_executed(0);
        assert!(
            !log.has_unexecuted_command(cmd(1).id),
            "executed commands leave the window"
        );
        assert!(log.has_unexecuted_command(cmd(3).id));
    }
}
