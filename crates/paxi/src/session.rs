//! Per-client session tracking for exactly-once request execution.
//!
//! Clients issue strictly increasing sequence numbers and keep at most a
//! small pipeline of requests outstanding. A replica therefore only
//! needs the *last few* executed replies per client to answer any retry:
//!
//! - retry of a recently executed command → replay the cached reply
//!   (without re-proposing, so a lost reply costs one round trip, not a
//!   whole new consensus round);
//! - anything older than the retained window → the client has already
//!   moved on; drop it.
//!
//! The retained window must cover the client's pipeline depth: with `k`
//! requests outstanding, a retry can lag at most `k` executions behind
//! the newest reply, so any window `>= k` keeps replay exact. Every
//! replica updates its table at execution time, so after a leader change
//! the new leader can still answer retries for commands the old leader
//! executed cluster-wide.

use crate::command::{ClientReply, RequestId, Value};
use simnet::{NodeId, Wire, WireError, WirePut, WireReader};
use std::collections::{BTreeMap, VecDeque};

/// Replies retained per client by [`SessionTable::new`]. Covers any
/// client pipeline depth up to this many in-flight requests.
pub const DEFAULT_SESSION_WINDOW: usize = 16;

#[derive(Debug, Clone, Default)]
struct Session {
    /// Highest executed sequence number.
    latest: u64,
    /// The `window` highest executed replies, ascending by seq. In-order
    /// execution appends and pops the front; protocols that execute in
    /// dependency order (EPaxos) can execute a pipelined client's
    /// commands out of sequence order, which is an insert in the middle.
    replies: VecDeque<ClientReply>,
}

impl Session {
    /// Where the reply for `seq` is (`Ok`), or where it would go (`Err`).
    fn find(&self, seq: u64) -> Result<usize, usize> {
        match self.replies.back() {
            Some(newest) if newest.id.seq >= seq => {
                self.replies.binary_search_by_key(&seq, |r| r.id.seq)
            }
            _ => Err(self.replies.len()),
        }
    }
}

/// Recently executed replies per client. `Clone` copies the table —
/// state-machine snapshots carry one so a replica that catches up from
/// a snapshot still answers retries of prefix commands exactly once.
#[derive(Debug, Clone)]
pub struct SessionTable {
    window: usize,
    /// Ordered by client, which is the order the encoding wants.
    sessions: BTreeMap<NodeId, Session>,
}

impl Default for SessionTable {
    fn default() -> Self {
        SessionTable::with_window(DEFAULT_SESSION_WINDOW)
    }
}

impl SessionTable {
    /// Table retaining [`DEFAULT_SESSION_WINDOW`] replies per client.
    pub fn new() -> Self {
        SessionTable::default()
    }

    /// Table retaining the last `window` replies per client (must cover
    /// the deepest client pipeline in use).
    pub fn with_window(window: usize) -> Self {
        assert!(window >= 1, "session window must retain at least 1 reply");
        SessionTable {
            window,
            sessions: BTreeMap::new(),
        }
    }

    /// Number of clients tracked.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when no client has executed anything yet.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Highest executed sequence number for `client`, if any.
    pub fn latest_seq(&self, client: NodeId) -> Option<u64> {
        self.sessions.get(&client).map(|s| s.latest)
    }

    /// Record the reply for an executed command. No-op sentinel commands
    /// (hole fillers) and already-recorded replies are ignored. Replies
    /// may arrive out of sequence order (dependency-ordered execution);
    /// each is retained as long as it is within the window of the
    /// highest seen.
    pub fn record(&mut self, reply: &ClientReply) {
        let id = reply.id;
        if id.client == NodeId(u32::MAX) {
            return; // noop filler, no client session
        }
        let s = self.sessions.entry(id.client).or_default();
        s.latest = s.latest.max(id.seq);
        if let Err(at) = s.find(id.seq) {
            if at == s.replies.len() {
                // In order: the oldest reply leaves before the newest
                // enters, so a full ring never grows past the window.
                while s.replies.len() >= self.window {
                    s.replies.pop_front();
                }
                s.replies.push_back(reply.clone());
            } else {
                s.replies.insert(at, reply.clone());
            }
        }
        // Out of order, or a decoded table fuller than this window.
        while s.replies.len() > self.window {
            s.replies.pop_front();
        }
    }

    /// Cached reply if `id` is one of the client's recently executed
    /// requests (the retry-of-lost-reply case).
    pub fn replay(&self, id: RequestId) -> Option<&ClientReply> {
        let s = self.sessions.get(&id.client)?;
        Some(&s.replies[s.find(id.seq).ok()?])
    }

    /// Fold another table's retained replies into this one (snapshot
    /// installation): every reply the donor retained is recorded here,
    /// subject to this table's own window. Existing newer replies win
    /// ([`SessionTable::record`] keeps the first reply per seq and the
    /// highest `latest`).
    pub fn merge_from(&mut self, other: &SessionTable) {
        for reply in other.sessions.values().flat_map(|s| &s.replies) {
            self.record(reply);
        }
    }

    /// True if `id` fell off the *full* retained reply window — a stale
    /// duplicate that must not be re-proposed (the client has already
    /// received a newer reply and moved on). A sparse window (fewer
    /// than `window` replies recorded) never classifies anything stale:
    /// with out-of-order execution a below-oldest seq could simply not
    /// have executed yet, and dropping its retry would strand the
    /// client.
    pub fn is_stale(&self, id: RequestId) -> bool {
        match self.sessions.get(&id.client) {
            Some(s) => {
                id.seq < s.latest
                    && s.replies.len() >= self.window
                    && s.replies
                        .front()
                        .is_some_and(|oldest| id.seq < oldest.id.seq)
            }
            None => false,
        }
    }
}

const SMETA_VALUE: u16 = 1 << 15;
const SMETA_OK: u16 = 1 << 14;
const SMETA_REDIRECT: u16 = 1 << 13;
const SMETA_LEN: u16 = (1 << 13) - 1;

impl Wire for SessionTable {
    const KIND: &'static str = "SessionTable";

    /// `window: u32`, `session count: u32`, then sessions sorted by
    /// client id: `client: u32`, `latest: u64`, `reply count: u32`,
    /// then replies in seq order: `seq: u64`, `meta: u16` (bit 15 value
    /// present, bit 14 ok, bit 13 redirect present, low 13 bits the
    /// value length — capped at 8191 bytes), value bytes, and a
    /// `redirect: u32` when present.
    fn put<W: WirePut>(&self, out: &mut W) {
        out.put_u32(self.window as u32);
        out.put_u32(self.sessions.len() as u32);
        for (client, s) in &self.sessions {
            out.put_u32(client.0);
            out.put_u64(s.latest);
            out.put_u32(s.replies.len() as u32);
            for reply in &s.replies {
                let vlen = reply.value.as_ref().map_or(0, |v| v.len());
                assert!(
                    vlen <= SMETA_LEN as usize,
                    "session reply value of {vlen}B overflows the 13-bit length field"
                );
                let mut meta = vlen as u16;
                if reply.value.is_some() {
                    meta |= SMETA_VALUE;
                }
                if reply.ok {
                    meta |= SMETA_OK;
                }
                if reply.redirect.is_some() {
                    meta |= SMETA_REDIRECT;
                }
                out.put_u64(reply.id.seq);
                out.put_u16(meta);
                if let Some(v) = &reply.value {
                    out.put_slice(&v.0);
                }
                if let Some(n) = reply.redirect {
                    out.put_u32(n.0);
                }
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let window = r.u32("sessions.window")? as usize;
        if window == 0 {
            return Err(WireError::BadTag {
                what: "sessions.window",
                got: 0,
            });
        }
        let n_sessions = r.u32("sessions.count")?;
        // 4 client + 8 latest + 4 count per session.
        let mut sessions = BTreeMap::new();
        for _ in 0..n_sessions {
            let client = NodeId(r.u32("session.client")?);
            let latest = r.u64("session.latest")?;
            let n_replies = r.u32("session.reply_count")?;
            // 8 seq + 2 meta per reply.
            let replies = VecDeque::with_capacity(r.capacity_for(n_replies as usize, 10));
            let mut session = Session { latest, replies };
            for _ in 0..n_replies {
                let seq = r.u64("session.seq")?;
                let meta = r.u16("session.meta")?;
                let value = if meta & SMETA_VALUE != 0 {
                    let len = (meta & SMETA_LEN) as usize;
                    Some(Value(r.read_value(len, "session.value")?))
                } else {
                    None
                };
                let redirect = if meta & SMETA_REDIRECT != 0 {
                    Some(NodeId(r.u32("session.redirect")?))
                } else {
                    None
                };
                let reply = ClientReply {
                    id: RequestId { client, seq },
                    value,
                    ok: meta & SMETA_OK != 0,
                    redirect,
                };
                // An honest encoder wrote ascending seqs; one that did
                // not still decodes to a sorted, duplicate-free ring.
                match session.find(seq) {
                    Ok(at) => session.replies[at] = reply,
                    Err(at) => session.replies.insert(at, reply),
                }
            }
            sessions.insert(client, session);
        }
        Ok(SessionTable { window, sessions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(client: u32, seq: u64) -> RequestId {
        RequestId {
            client: NodeId(client),
            seq,
        }
    }

    #[test]
    fn replay_exact_seq_only() {
        let mut t = SessionTable::new();
        t.record(&ClientReply::ok(id(1, 3), None));
        assert!(t.replay(id(1, 3)).is_some());
        assert!(t.replay(id(1, 2)).is_none());
        assert!(t.replay(id(1, 4)).is_none());
        assert!(t.replay(id(2, 3)).is_none());
    }

    #[test]
    fn staleness_beyond_window() {
        let mut t = SessionTable::with_window(2);
        for seq in 1..=4 {
            t.record(&ClientReply::ok(id(1, seq), None));
        }
        // Window 2 retains seqs 3 and 4.
        assert!(t.replay(id(1, 4)).is_some());
        assert!(t.replay(id(1, 3)).is_some());
        assert!(t.replay(id(1, 2)).is_none());
        assert!(t.is_stale(id(1, 2)));
        assert!(t.is_stale(id(1, 1)));
        assert!(!t.is_stale(id(1, 3)), "retained replies replay, not drop");
        assert!(!t.is_stale(id(1, 5)));
        assert!(!t.is_stale(id(9, 1)), "unknown clients are never stale");
    }

    #[test]
    fn window_covers_pipelined_retries() {
        // A pipeline-4 client may retry any of its last 4 executed
        // requests; a window >= 4 must replay all of them.
        let mut t = SessionTable::with_window(4);
        for seq in 1..=10 {
            t.record(&ClientReply::ok(id(1, seq), None));
        }
        for seq in 7..=10 {
            assert!(t.replay(id(1, seq)).is_some(), "seq {seq} in window");
        }
        assert!(t.replay(id(1, 6)).is_none());
        assert_eq!(t.latest_seq(NodeId(1)), Some(10));
        assert_eq!(t.latest_seq(NodeId(2)), None);
    }

    #[test]
    fn out_of_order_execution_still_replays_both() {
        // EPaxos executes in dependency order: a pipelined client's
        // seq 5 can execute before seq 4. Both replies must be
        // retained for retry replay.
        let mut t = SessionTable::new();
        t.record(&ClientReply::ok(id(1, 5), None));
        t.record(&ClientReply::ok(id(1, 4), None));
        assert!(t.replay(id(1, 5)).is_some());
        assert!(
            t.replay(id(1, 4)).is_some(),
            "late out-of-order execution must still be cached"
        );
        assert!(!t.is_stale(id(1, 4)));
        assert_eq!(t.latest_seq(NodeId(1)), Some(5));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_record_keeps_first_reply() {
        let mut t = SessionTable::new();
        t.record(&ClientReply::ok(id(1, 3), Some(crate::Value::zeros(4))));
        t.record(&ClientReply::ok(id(1, 3), None));
        assert!(
            t.replay(id(1, 3)).expect("cached").value.is_some(),
            "re-execution must not clobber the original reply"
        );
    }

    #[test]
    fn merge_from_replays_donor_replies() {
        let mut donor = SessionTable::new();
        donor.record(&ClientReply::ok(id(1, 3), Some(crate::Value::zeros(2))));
        donor.record(&ClientReply::ok(id(2, 7), None));
        let mut t = SessionTable::new();
        t.record(&ClientReply::ok(id(1, 4), None));
        t.merge_from(&donor);
        assert!(t.replay(id(1, 3)).is_some(), "donor reply merged");
        assert!(t.replay(id(1, 4)).is_some(), "own reply kept");
        assert!(t.replay(id(2, 7)).is_some());
        assert_eq!(t.latest_seq(NodeId(1)), Some(4), "highest latest wins");
    }

    #[test]
    fn wire_roundtrip_exact_size() {
        let mut t = SessionTable::with_window(4);
        t.record(&ClientReply::ok(id(1, 3), Some(crate::Value::zeros(9))));
        t.record(&ClientReply::ok(id(1, 4), None));
        t.record(&ClientReply::redirect(id(2, 1), Some(NodeId(0))));
        let bytes = t.encode();
        assert_eq!(bytes.len(), t.wire_len(), "wire_len is exact");
        let back = SessionTable::decode_frame(&bytes.clone().into()).expect("decodes");
        assert_eq!(back.replay(id(1, 3)), t.replay(id(1, 3)));
        assert_eq!(back.replay(id(2, 1)), t.replay(id(2, 1)));
        assert_eq!(back.latest_seq(NodeId(1)), Some(4));
        assert_eq!(back.encode(), bytes, "deterministic re-encode");
    }

    #[test]
    fn noop_sentinel_ignored() {
        let mut t = SessionTable::new();
        t.record(&ClientReply::ok(id(u32::MAX, 0), None));
        assert!(t.is_empty());
    }
}
