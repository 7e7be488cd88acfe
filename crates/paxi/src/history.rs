//! Client histories and the linearizability oracle.
//!
//! A `History` logs every operation a run's closed-loop clients issued:
//! when it was invoked, when (if ever) its reply arrived, what a put
//! wrote and what a get returned. Its check, reported as a
//! [`HistoryCheck`], decides whether the log is linearizable against a
//! key-value store whose keys start absent.
//!
//! Linearizability is local (Herlihy and Wing): a history is
//! linearizable exactly when each key's sub-history is. So the check
//! splits the history by key and searches each key's operations for a
//! legal register order with Wing and Gong's algorithm, memoised on the
//! pair (operations placed, register value) as in Lowe's version. A key
//! that one client at a time touches is a walk, not a search; the search
//! only branches where operations overlap in time.
//!
//! A put whose reply never arrived may have taken effect or not: it may
//! be placed anywhere after its invocation, or nowhere. A get whose reply
//! never arrived constrains nothing and is left out.
//!
//! Reads name the write they saw by its value. A client that keeps a
//! history therefore tags every put's value with its request id; the
//! size is unchanged, so the run's schedule is too.

use crate::command::{Command, Key, Operation, RequestId, Value};
use bytes::Bytes;
use parking_lot::Mutex;
use simnet::SimTime;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// One operation as its client saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Op {
    /// The request.
    id: RequestId,
    /// The key it touched.
    key: Key,
    /// What a put wrote; `None` for a get.
    write: Option<Value>,
    /// What a get returned; `None` for a put, an absent key, or a get
    /// still waiting for its reply.
    read: Option<Value>,
    /// When the client first sent it.
    invoked: SimTime,
    /// When its reply arrived; `None` if none did.
    completed: Option<SimTime>,
}

/// A shared log of operations, written by every client of a run. Thread
/// safe, so it works on every substrate.
#[derive(Debug, Clone, Default)]
pub(crate) struct History(Arc<Mutex<Vec<Op>>>);

impl History {
    /// Log `command` as invoked at `at` and return its index for
    /// [`History::complete`]; `None` for a keyless command.
    pub(crate) fn invoke(&self, command: &Command, at: SimTime) -> Option<usize> {
        let key = command.op.key()?;
        let write = match &command.op {
            Operation::Put(_, v) => Some(v.clone()),
            _ => None,
        };
        let mut ops = self.0.lock();
        ops.push(Op {
            id: command.id,
            key,
            write,
            read: None,
            invoked: at,
            completed: None,
        });
        Some(ops.len() - 1)
    }

    /// Log the reply to operation `index`, arrived at `at` carrying
    /// `value`.
    pub(crate) fn complete(&self, index: usize, at: SimTime, value: Option<Value>) {
        let mut ops = self.0.lock();
        let op = &mut ops[index];
        op.completed = Some(at);
        if op.write.is_none() {
            op.read = value;
        }
    }

    /// [`check`] this history.
    pub(crate) fn check(&self) -> HistoryCheck {
        check(&self.0.lock())
    }
}

/// `value` with its first eight bytes (all of them, if it is shorter)
/// replaced by `id`, so that no two puts of a run write the same value
/// while clients are numbered below 2^24 and issue fewer than 2^40
/// requests each. A shorter value keeps the low bytes of the stamp;
/// then two puts may collide, which only weakens the check.
pub(crate) fn tag(value: &Value, id: RequestId) -> Value {
    let stamp = ((id.client.0 as u64) << 40 | id.seq).to_le_bytes();
    let mut bytes = value.0.to_vec();
    let n = bytes.len().min(stamp.len());
    bytes[..n].copy_from_slice(&stamp[..n]);
    Value(Bytes::from(bytes))
}

/// What the linearizability check of a run's client history found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryCheck {
    /// Operations with a reply.
    pub ops: usize,
    /// Of those, gets.
    pub reads: usize,
    /// Distinct keys touched.
    pub keys: usize,
    /// One line per key whose operations have no legal order (or whose
    /// search ran out of its budget); empty when the history is
    /// linearizable.
    pub violations: Vec<String>,
}

impl HistoryCheck {
    /// True when every key's operations have a legal order.
    pub fn linearizable(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Check `ops` for linearizability, key by key.
fn check(ops: &[Op]) -> HistoryCheck {
    let mut by_key: BTreeMap<Key, Vec<&Op>> = BTreeMap::new();
    let (mut done, mut reads) = (0, 0);
    for op in ops {
        if op.completed.is_some() {
            done += 1;
            reads += op.write.is_none() as usize;
        } else if op.write.is_none() {
            continue;
        }
        by_key.entry(op.key).or_default().push(op);
    }
    let violations = by_key
        .iter()
        .filter_map(|(key, ops)| check_key(ops).err().map(|e| format!("key {key}: {e}")))
        .collect();
    HistoryCheck {
        ops: done,
        reads,
        keys: by_key.len(),
        violations,
    }
}

/// Placements one key's search may make before it gives up and reports
/// the key undecided. The memo holds one entry per placement (about
/// 40 B), and the steps between two placements are bounded by the
/// operations still open, so this bounds both memory and time. Twelve
/// requests in flight on one key for 14 000 operations took 560 000.
const MAX_PLACEMENTS: usize = 4_000_000;

/// The register value a key holds: 0 is absent, `w + 1` the value put
/// `w` wrote (the first put, if several wrote equal bytes).
type State = u32;

/// A read of bytes no put wrote: never legal.
const UNWRITTEN: State = State::MAX;

/// End of the event list.
const NIL: usize = usize::MAX;

/// One event of a key's history: an operation's invocation or reply.
#[derive(Clone, Copy)]
struct Event {
    op: usize,
    call: bool,
}

/// Two independent 64-bit hashes of `op`: XOR-ing them over the placed
/// operations names the placed set in constant time per step.
fn zobrist(op: usize) -> u128 {
    let mix = |mut z: u64| {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let z = (op as u64)
        .wrapping_add(1)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (mix(z) as u128) << 64 | mix(z ^ 0x5851_f42d_4c95_7f2d) as u128
}

/// Search one key's operations for a legal register order.
fn check_key(ops: &[&Op]) -> Result<(), String> {
    // Intern written values; a read's state is the put it names.
    let mut written: HashMap<&[u8], State> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        if let Some(v) = &op.write {
            written.entry(v.0.as_ref()).or_insert(i as State + 1);
        }
    }
    let effect: Vec<State> = ops
        .iter()
        .map(|op| match (&op.write, &op.read) {
            (Some(v), _) => written[v.0.as_ref()],
            (None, None) => 0,
            (None, Some(v)) => written.get(v.0.as_ref()).copied().unwrap_or(UNWRITTEN),
        })
        .collect();

    // Events in time order; at equal times a reply precedes an
    // invocation (the reply was sent before the other request left), but
    // never its own operation's invocation.
    let mut order: Vec<(SimTime, u8, Event)> = Vec::with_capacity(2 * ops.len());
    for (i, op) in ops.iter().enumerate() {
        order.push((op.invoked, 1, Event { op: i, call: true }));
        if let Some(at) = op.completed {
            let rank = if at > op.invoked { 0 } else { 2 };
            order.push((at, rank, Event { op: i, call: false }));
        }
    }
    order.sort_by_key(|&(at, rank, e)| (at, rank, e.op));
    let events: Vec<Event> = order.into_iter().map(|(_, _, e)| e).collect();

    // A doubly linked list over the events, `head` its sentinel; placing
    // an operation unlinks its events, undoing relinks them.
    let head = events.len();
    let succ = |i: usize| if i + 1 < head { i + 1 } else { NIL };
    let mut next: Vec<usize> = (0..head).map(succ).collect();
    next.push(if head > 0 { 0 } else { NIL });
    let mut prev: Vec<usize> = (0..head)
        .map(|i| i.checked_sub(1).unwrap_or(head))
        .collect();
    prev.push(NIL);
    let mut call_of = vec![NIL; ops.len()];
    let mut reply_of = vec![NIL; ops.len()];
    for (e, ev) in events.iter().enumerate() {
        if ev.call {
            call_of[ev.op] = e;
        } else {
            reply_of[ev.op] = e;
        }
    }
    let unlink = |next: &mut Vec<usize>, prev: &mut Vec<usize>, e: usize| {
        next[prev[e]] = next[e];
        if next[e] != NIL {
            prev[next[e]] = prev[e];
        }
    };
    let relink = |next: &mut Vec<usize>, prev: &mut Vec<usize>, e: usize| {
        next[prev[e]] = e;
        if next[e] != NIL {
            prev[next[e]] = e;
        }
    };

    let mut unplaced = ops.iter().filter(|op| op.completed.is_some()).count();
    let mut state: State = 0;
    let mut placed: u128 = 0;
    let mut stack: Vec<(usize, State)> = Vec::new();
    let mut seen: HashSet<(u128, State)> = HashSet::new();
    // The deepest point the search reached, and the operation it could
    // not place there: the explanation of a failure.
    let (mut deepest, mut stuck) = (0, 0);
    let mut e = next[head];
    while unplaced > 0 {
        if seen.len() > MAX_PLACEMENTS {
            return Err(format!(
                "undecided: no order found in {MAX_PLACEMENTS} placements over {} operations",
                ops.len()
            ));
        }
        if e != NIL && events[e].call {
            let op = events[e].op;
            let legal = ops[op].write.is_some() || effect[op] == state;
            if legal {
                let after = if ops[op].write.is_some() {
                    effect[op]
                } else {
                    state
                };
                let set = placed ^ zobrist(op);
                if seen.insert((set, after)) {
                    stack.push((op, state));
                    (state, placed) = (after, set);
                    unlink(&mut next, &mut prev, call_of[op]);
                    if reply_of[op] != NIL {
                        unlink(&mut next, &mut prev, reply_of[op]);
                        unplaced -= 1;
                    }
                    e = next[head];
                    continue;
                }
            }
            e = next[e];
            continue;
        }
        // A reply whose operation is unplaced: nothing still open can go
        // next, so undo the last placement and try its successors.
        if e != NIL && stack.len() >= deepest {
            (deepest, stuck) = (stack.len(), events[e].op);
        }
        let Some((op, before)) = stack.pop() else {
            return Err(format!(
                "no legal order of {} operations; after {deepest} of them {}",
                ops.len(),
                describe(ops, stuck, &effect)
            ));
        };
        if reply_of[op] != NIL {
            relink(&mut next, &mut prev, reply_of[op]);
            unplaced += 1;
        }
        relink(&mut next, &mut prev, call_of[op]);
        (state, placed) = (before, placed ^ zobrist(op));
        e = next[call_of[op]];
    }
    Ok(())
}

/// Operation `i` in words, for a violation report.
fn describe(ops: &[&Op], i: usize, effect: &[State]) -> String {
    let op = ops[i];
    let span = format!(
        "invoked at {} and answered at {}",
        op.invoked,
        op.completed.map_or("never".to_string(), |t| t.to_string())
    );
    if op.write.is_some() {
        return format!("put {} {span} cannot be placed", op.id);
    }
    let saw = match effect[i] {
        0 => "nothing".to_string(),
        UNWRITTEN => "a value no put wrote".to_string(),
        w => format!("the value of put {}", ops[w as usize - 1].id),
    };
    format!(
        "get {} {span}, which returned {saw}, cannot be placed",
        op.id
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NodeId;

    /// Ops of one key, written as `(client, put value or get result,
    /// invoked ms, completed ms)`; value 0 is "absent" for a get.
    fn history(ops: &[(u32, bool, u8, u64, Option<u64>)]) -> Vec<Op> {
        ops.iter()
            .enumerate()
            .map(|(seq, &(client, put, v, from, to))| {
                let value = (v > 0).then(|| Value::from(&[v][..]));
                Op {
                    id: RequestId {
                        client: NodeId(client),
                        seq: seq as u64 + 1,
                    },
                    key: 7,
                    write: if put { value.clone() } else { None },
                    read: if put { None } else { value },
                    invoked: SimTime::from_millis(from),
                    completed: to.map(SimTime::from_millis),
                }
            })
            .collect()
    }

    const PUT: bool = true;
    const GET: bool = false;

    #[test]
    fn sequential_read_your_writes_is_linearizable() {
        let h = history(&[
            (1, GET, 0, 0, Some(1)),
            (1, PUT, 1, 1, Some(2)),
            (1, GET, 1, 2, Some(3)),
            (1, PUT, 2, 3, Some(4)),
            (1, GET, 2, 4, Some(5)),
        ]);
        let c = check(&h);
        assert!(c.linearizable(), "{:?}", c.violations);
        assert_eq!((c.ops, c.reads, c.keys), (5, 3, 1));
    }

    #[test]
    fn a_stale_read_after_a_completed_write_is_caught() {
        let h = history(&[
            (1, PUT, 1, 0, Some(1)),
            (1, PUT, 2, 1, Some(2)),
            (2, GET, 1, 3, Some(4)),
        ]);
        let c = check(&h);
        assert_eq!(c.violations.len(), 1);
        assert!(
            c.violations[0].contains("returned the value of put n1#1"),
            "{}",
            c.violations[0]
        );
    }

    #[test]
    fn a_read_of_an_unwritten_value_is_caught() {
        let h = history(&[(1, PUT, 1, 0, Some(1)), (2, GET, 9, 2, Some(3))]);
        let c = check(&h);
        assert!(c.violations[0].contains("a value no put wrote"), "{c:?}");
    }

    #[test]
    fn reads_overlapping_a_write_may_see_either_value_but_not_flip_back() {
        // Both reads overlap the put: old-then-new is legal.
        let ok = history(&[
            (1, PUT, 1, 0, Some(1)),
            (1, PUT, 2, 2, Some(10)),
            (2, GET, 1, 3, Some(4)),
            (3, GET, 2, 5, Some(6)),
        ]);
        assert!(check(&ok).linearizable());
        // New-then-old, the second read starting after the first ended:
        // the register went back.
        let flip = history(&[
            (1, PUT, 1, 0, Some(1)),
            (1, PUT, 2, 2, Some(10)),
            (2, GET, 2, 3, Some(4)),
            (3, GET, 1, 5, Some(6)),
        ]);
        assert!(!check(&flip).linearizable());
    }

    #[test]
    fn a_write_without_a_reply_may_or_may_not_take_effect() {
        let seen = history(&[(1, PUT, 1, 0, None), (2, GET, 1, 5, Some(6))]);
        assert!(check(&seen).linearizable());
        let unseen = history(&[(1, PUT, 1, 0, None), (2, GET, 0, 5, Some(6))]);
        assert!(check(&unseen).linearizable());
        // But it cannot take effect before it was invoked.
        let early = history(&[(2, GET, 1, 0, Some(1)), (1, PUT, 1, 5, None)]);
        assert!(!check(&early).linearizable());
    }

    #[test]
    fn a_get_without_a_reply_is_left_out() {
        let h = history(&[(1, PUT, 1, 0, Some(1)), (2, GET, 0, 2, None)]);
        let c = check(&h);
        assert!(c.linearizable());
        assert_eq!((c.ops, c.reads), (1, 0));
    }

    #[test]
    fn concurrent_writers_need_the_search_to_backtrack() {
        // Three overlapping puts; the reads pin the order 3, 1, 2, which
        // the search reaches only after undoing its first choices.
        let h = history(&[
            (1, PUT, 1, 0, Some(10)),
            (2, PUT, 2, 0, Some(10)),
            (3, PUT, 3, 0, Some(10)),
            (4, GET, 3, 1, Some(2)),
            (4, GET, 1, 3, Some(4)),
            (4, GET, 2, 11, Some(12)),
        ]);
        assert!(check(&h).linearizable());
        // Pinning 1 before 3 and 3 before 1 has no order.
        let h = history(&[
            (1, PUT, 1, 0, Some(10)),
            (3, PUT, 3, 0, Some(10)),
            (4, GET, 1, 1, Some(2)),
            (4, GET, 3, 3, Some(4)),
            (5, GET, 1, 5, Some(6)),
        ]);
        assert!(!check(&h).linearizable());
    }

    #[test]
    fn keys_are_checked_apart() {
        let mut h = history(&[(1, PUT, 1, 0, Some(1)), (2, GET, 1, 2, Some(3))]);
        let mut other = history(&[(1, PUT, 2, 0, Some(1)), (2, GET, 0, 2, Some(3))]);
        other.iter_mut().for_each(|op| op.key = 8);
        h.extend(other);
        let c = check(&h);
        assert_eq!(c.keys, 2);
        assert_eq!(c.violations.len(), 1);
        assert!(c.violations[0].starts_with("key 8:"), "{c:?}");
    }

    #[test]
    fn a_reply_at_the_instant_of_an_invocation_orders_them() {
        // Client 2's get starts the instant client 1's put returns: the
        // put precedes it, so the get must see it.
        let h = history(&[(1, PUT, 1, 0, Some(5)), (2, GET, 0, 5, Some(6))]);
        assert!(!check(&h).linearizable());
    }

    #[test]
    fn tags_tell_puts_apart_and_keep_the_size() {
        let id = |client, seq| RequestId {
            client: NodeId(client),
            seq,
        };
        let v = Value::zeros(16);
        let (a, b) = (tag(&v, id(5, 1)), tag(&v, id(5, 2)));
        assert_ne!(a, b);
        assert_ne!(tag(&v, id(5, 1)), tag(&v, id(6, 1)));
        assert_eq!((a.len(), tag(&Value::zeros(3), id(1, 1)).len()), (16, 3));
        assert_eq!(&a.0[8..], &[0u8; 8][..]);
    }

    #[test]
    fn a_recorded_history_checks_its_invocations_and_replies() {
        let h = History::default();
        let put = Command {
            id: RequestId {
                client: NodeId(3),
                seq: 1,
            },
            op: Operation::Put(1, Value::zeros(8)),
        };
        let get = Command {
            id: RequestId {
                client: NodeId(3),
                seq: 2,
            },
            op: Operation::Get(1),
        };
        let i = h.invoke(&put, SimTime::from_millis(1)).expect("keyed");
        h.complete(i, SimTime::from_millis(2), None);
        let j = h.invoke(&get, SimTime::from_millis(3)).expect("keyed");
        h.complete(j, SimTime::from_millis(4), Some(Value::zeros(8)));
        assert_eq!(h.invoke(&Command::noop(), SimTime::ZERO), None);
        let c = h.check();
        assert!(c.linearizable());
        assert_eq!((c.ops, c.reads), (2, 1));
    }
}
