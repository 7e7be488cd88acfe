//! Differential tests: the ring-backed [`Log`] and [`SessionTable`]
//! against the ordered-map implementations they replaced, kept here as
//! reference models. Both are driven with the same random operation
//! sequence and every accessor is compared after every step — the
//! goldens in `tests/determinism.rs` say the containers changed no run;
//! these say they changed no answer.

use paxi::{
    Ballot, ClientReply, Command, Log, LogEntry, Operation, RequestId, SessionTable, Value,
};
use proptest::prelude::*;
use simnet::{NodeId, Wire, WirePut};
use std::collections::BTreeMap;

// ---- the log, as a tree ---------------------------------------------------

#[derive(Default)]
struct TreeLog {
    entries: BTreeMap<u64, LogEntry>,
    next_slot: u64,
    execute_cursor: u64,
    compacted: u64,
}

impl TreeLog {
    fn entry(ballot: Ballot, command: Command) -> LogEntry {
        LogEntry {
            ballot,
            command,
            committed: false,
            executed: false,
        }
    }

    fn accept(&mut self, slot: u64, ballot: Ballot, command: Command) -> bool {
        self.next_slot = self.next_slot.max(slot + 1);
        if slot < self.execute_cursor {
            return true;
        }
        match self.entries.get_mut(&slot) {
            Some(e) if e.committed => true,
            Some(e) if e.ballot > ballot => false,
            Some(e) => {
                *e = Self::entry(ballot, command);
                true
            }
            None => {
                self.entries.insert(slot, Self::entry(ballot, command));
                true
            }
        }
    }

    fn commit(&mut self, slot: u64, ballot: Ballot, command: Command) -> bool {
        self.next_slot = self.next_slot.max(slot + 1);
        if slot < self.execute_cursor || self.entries.get(&slot).is_some_and(|e| e.committed) {
            return false;
        }
        let mut e = Self::entry(ballot, command);
        e.committed = true;
        self.entries.insert(slot, e);
        true
    }

    fn execute_one(&mut self) -> bool {
        match self.entries.get_mut(&self.execute_cursor) {
            Some(e) if e.committed => {
                e.executed = true;
                self.execute_cursor += 1;
                true
            }
            _ => false,
        }
    }

    fn truncate_below(&mut self, up_to: u64) {
        if up_to > self.compacted {
            self.entries = self.entries.split_off(&up_to);
            self.compacted = up_to;
        }
    }

    fn install_snapshot(&mut self, up_to: u64) -> bool {
        if up_to <= self.execute_cursor {
            return false;
        }
        self.entries = self.entries.split_off(&up_to);
        self.execute_cursor = up_to;
        self.next_slot = self.next_slot.max(up_to);
        self.compacted = up_to;
        true
    }

    fn unexecuted(&self) -> impl Iterator<Item = &LogEntry> {
        let window = self.entries.range(self.execute_cursor..);
        window.map(|(_, e)| e).filter(|e| !e.executed)
    }
}

const LOG_CLIENTS: u32 = 3;
const LOG_KEYS: u64 = 4;

fn log_cmd(code: u64) -> Command {
    let id = RequestId {
        client: NodeId(100 + (code % LOG_CLIENTS as u64) as u32),
        seq: code,
    };
    let op = match code % 3 {
        0 => Operation::Get(code % LOG_KEYS),
        1 => Operation::Put(code % LOG_KEYS, Value::zeros((code % 7) as usize)),
        _ => Operation::Noop,
    };
    Command { id, op }
}

fn same_entry(a: Option<&LogEntry>, b: Option<&LogEntry>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            (a.ballot, &a.command, a.committed, a.executed)
                == (b.ballot, &b.command, b.committed, b.executed)
        }
        _ => false,
    }
}

/// Every accessor of `log` answers as `model` does.
fn assert_same_log(log: &Log, model: &TreeLog) {
    let top = model.next_slot + 3;
    for slot in 0..top {
        prop_assert!(
            same_entry(log.get(slot), model.entries.get(&slot)),
            "slot {slot}: {:?} vs {:?}",
            log.get(slot),
            model.entries.get(&slot)
        );
    }
    prop_assert_eq!(log.next_slot(), model.next_slot);
    prop_assert_eq!(log.execute_cursor(), model.execute_cursor);
    prop_assert_eq!(log.compacted_up_to(), model.compacted);
    prop_assert_eq!(log.len(), model.entries.len());
    prop_assert_eq!(log.is_empty(), model.entries.is_empty());
    let committed = model.entries.values().filter(|e| e.committed).count();
    prop_assert_eq!(log.committed_count(), committed as u64);
    let next = model.entries.get(&model.execute_cursor);
    let next = next.filter(|e| e.committed && !e.executed);
    prop_assert_eq!(
        log.next_executable(),
        next.map(|e| (model.execute_cursor, &e.command))
    );
    for from in [0, model.compacted, model.execute_cursor, top] {
        let want: Vec<_> = model.entries.range(from..).collect();
        let want: Vec<_> = want
            .into_iter()
            .map(|(&s, e)| (s, e.ballot, e.command.clone()))
            .collect();
        prop_assert_eq!(log.entries_from(from), want);
        let holes: Vec<u64> = (from..top)
            .filter(|s| !model.entries.contains_key(s))
            .collect();
        prop_assert_eq!(log.holes(from, top), holes);
        for key in 0..LOG_KEYS {
            // Committed entries count too: PQR's pending-write check.
            let pending = model
                .entries
                .range(from..)
                .any(|(_, e)| !e.command.op.is_read() && e.command.op.key() == Some(key));
            prop_assert_eq!(log.has_unexecuted_write(key, from), pending);
        }
    }
    for client in (100..100 + LOG_CLIENTS).map(NodeId) {
        let seqs = model.unexecuted().filter(|e| e.command.id.client == client);
        let highest = seqs.map(|e| e.command.id.seq).max();
        prop_assert_eq!(log.highest_unexecuted_seq(client), highest);
    }
    for code in 0..24 {
        let id = log_cmd(code).id;
        let waiting = model.unexecuted().any(|e| e.command.id == id);
        prop_assert_eq!(log.has_unexecuted_command(id), waiting);
    }
}

proptest! {
    /// Holes, stale slots below the cursor, re-accepts under higher and
    /// lower ballots, commits over accepts, truncation anywhere in the
    /// executed prefix and snapshot installs that jump over holes and
    /// live entries alike.
    #[test]
    fn ring_log_answers_as_the_tree_log_did(
        ops in prop::collection::vec((0u8..12, 0u64..12, 0u32..4, 0u64..24), 1..120)
    ) {
        let mut log = Log::new();
        let mut model = TreeLog::default();
        for (kind, offset, round, code) in ops {
            // Slots land around the cursor: up to 3 below it (stale),
            // up to 8 above (holes in between).
            let slot = (model.execute_cursor + offset).saturating_sub(3);
            let ballot = Ballot::new(round, NodeId(0));
            match kind {
                0..=3 => prop_assert_eq!(
                    log.accept(slot, ballot, log_cmd(code)),
                    model.accept(slot, ballot, log_cmd(code))
                ),
                4..=6 => prop_assert_eq!(
                    log.commit(slot, ballot, log_cmd(code)),
                    model.commit(slot, ballot, log_cmd(code))
                ),
                7..=8 => {
                    while model.execute_one() {
                        let (next, _) = log.next_executable().expect("the model executed one");
                        log.mark_executed(next);
                    }
                }
                9 => {
                    let up_to = model.compacted + offset.min(model.execute_cursor - model.compacted);
                    log.truncate_below(up_to);
                    model.truncate_below(up_to);
                }
                10 => {
                    log.truncate_below(model.execute_cursor);
                    model.truncate_below(model.execute_cursor);
                }
                _ => prop_assert_eq!(log.install_snapshot(slot), model.install_snapshot(slot)),
            }
            assert_same_log(&log, &model);
        }
    }
}

// ---- the session table, as trees -------------------------------------------

struct TreeSessions {
    window: usize,
    /// Per client: highest seq executed, and the retained replies.
    sessions: BTreeMap<NodeId, (u64, BTreeMap<u64, ClientReply>)>,
}

impl TreeSessions {
    fn record(&mut self, reply: &ClientReply) {
        let (latest, replies) = self.sessions.entry(reply.id.client).or_default();
        *latest = (*latest).max(reply.id.seq);
        replies.entry(reply.id.seq).or_insert_with(|| reply.clone());
        while replies.len() > self.window {
            replies.pop_first();
        }
    }

    fn replay(&self, id: RequestId) -> Option<&ClientReply> {
        self.sessions.get(&id.client)?.1.get(&id.seq)
    }

    fn is_stale(&self, id: RequestId) -> bool {
        self.sessions
            .get(&id.client)
            .is_some_and(|(latest, replies)| {
                let oldest = replies.first_key_value();
                id.seq < *latest
                    && replies.len() >= self.window
                    && oldest.is_some_and(|(oldest, _)| id.seq < *oldest)
            })
    }

    /// The layout `SessionTable`'s `Wire` impl documents.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_u32(self.window as u32);
        out.put_u32(self.sessions.len() as u32);
        for (client, (latest, replies)) in &self.sessions {
            out.put_u32(client.0);
            out.put_u64(*latest);
            out.put_u32(replies.len() as u32);
            for (seq, reply) in replies {
                let mut meta = reply.value.as_ref().map_or(0, |v| v.len()) as u16;
                meta |= (reply.value.is_some() as u16) << 15;
                meta |= (reply.ok as u16) << 14;
                meta |= (reply.redirect.is_some() as u16) << 13;
                out.put_u64(*seq);
                out.put_u16(meta);
                if let Some(v) = &reply.value {
                    out.extend_from_slice(&v.0);
                }
                if let Some(n) = reply.redirect {
                    out.put_u32(n.0);
                }
            }
        }
        out
    }
}

proptest! {
    /// In-order, out-of-order and duplicate `record`s (a duplicate with
    /// another payload must not replace the first), at the smallest
    /// windows and the default one.
    #[test]
    fn ring_sessions_answer_as_the_tree_sessions_did(
        window in prop_oneof![Just(1usize), Just(2usize), Just(16usize)],
        records in prop::collection::vec((0u32..3, 1u64..40, 0u8..4), 1..150),
        in_order in prop::bool::ANY,
    ) {
        let mut table = SessionTable::with_window(window);
        let mut model = TreeSessions { window, sessions: BTreeMap::new() };
        let mut next_seq = [0u64; 3];
        for (client, seq, shape) in records {
            // Half the cases walk each client's seqs upward (Paxos's
            // execution order), with the odd jump back; the rest are
            // EPaxos's: any order.
            let seq = if in_order && shape != 3 {
                next_seq[client as usize] += 1;
                next_seq[client as usize]
            } else {
                seq
            };
            let id = RequestId { client: NodeId(client), seq };
            let reply = match shape {
                0 => ClientReply::ok(id, None),
                1 => ClientReply::ok(id, Some(Value::zeros((seq % 5) as usize))),
                _ => ClientReply::redirect(id, Some(NodeId(seq as u32))),
            };
            table.record(&reply);
            model.record(&reply);

            prop_assert_eq!(table.len(), model.sessions.len());
            for client in (0..4).map(NodeId) {
                let latest = model.sessions.get(&client).map(|s| s.0);
                prop_assert_eq!(table.latest_seq(client), latest);
                for seq in 0..42 {
                    let id = RequestId { client, seq };
                    prop_assert_eq!(table.replay(id), model.replay(id));
                    prop_assert_eq!(table.is_stale(id), model.is_stale(id));
                }
            }
            let bytes = table.encode();
            prop_assert_eq!(&bytes, &model.encode());
            prop_assert_eq!(table.wire_len(), bytes.len());
            let back = SessionTable::decode_frame(&bytes.clone().into()).expect("decodes");
            prop_assert_eq!(back.encode(), bytes);
        }
    }
}
