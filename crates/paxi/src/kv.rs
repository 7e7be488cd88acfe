//! The replicated in-memory key-value state machine.
//!
//! Same role as Paxi's `Database`: protocols decide an order of commands,
//! then apply them here. Deterministic: the same command sequence yields
//! the same state on every replica.

use crate::command::{Key, Operation, Value};
use simnet::{Wire, WireError, WirePut, WireReader};
use std::collections::HashMap;

/// An in-memory key-value store.
#[derive(Debug, Default, Clone)]
pub struct KvStore {
    data: HashMap<Key, Value>,
    applied: u64,
}

impl KvStore {
    /// Empty store.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Apply one operation; returns the read value for `Get`.
    pub fn apply(&mut self, op: &Operation) -> Option<Value> {
        self.applied += 1;
        match op {
            Operation::Get(k) => self.data.get(k).cloned(),
            Operation::Put(k, v) => {
                self.data.insert(*k, v.clone());
                None
            }
            Operation::Noop => None,
        }
    }

    /// Read without counting as an applied command (used by leader-local
    /// and quorum read optimizations).
    pub fn peek(&self, k: Key) -> Option<&Value> {
        self.data.get(&k)
    }

    /// Number of operations applied so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Number of distinct keys present.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no key has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A copy restricted to keys in `[start, end)`; `end = None` means
    /// unbounded. The `applied` count is carried over verbatim — the
    /// filter carves the key space, not the history — so the unbounded
    /// full range (`0, None`) is bit-identical to a plain clone,
    /// fingerprint included — and is one, not a rebuild key by key.
    pub fn filtered(&self, start: Key, end: Option<Key>) -> KvStore {
        if start == Key::MIN && end.is_none() {
            return self.clone();
        }
        let data = self
            .data
            .iter()
            .filter(|(&k, _)| k >= start && end.map_or(true, |e| k < e))
            .map(|(&k, v)| (k, v.clone()))
            .collect();
        KvStore {
            data,
            applied: self.applied,
        }
    }

    /// All entries in ascending key order. Sorting makes iteration
    /// deterministic regardless of hash-map internals, which matters
    /// when the entries drive message emission (a shard install replays
    /// the transferred range as ordered writes).
    pub fn sorted_entries(&self) -> Vec<(Key, Value)> {
        let mut entries: Vec<(Key, Value)> =
            self.data.iter().map(|(&k, v)| (k, v.clone())).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries
    }

    /// Order-independent FNV-1a fingerprint of the full state (sorted
    /// key/value pairs plus the applied-operation count). Two stores
    /// that executed the same command sequence — directly, or via a
    /// snapshot of a prefix plus the tail — produce the same
    /// fingerprint; compaction correctness tests compare exactly this.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x100_0000_01b3;
        let mut keys: Vec<Key> = self.data.keys().copied().collect();
        keys.sort_unstable();
        let mut h = FNV_OFFSET;
        let mut eat = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        };
        for b in self.applied.to_be_bytes() {
            eat(b);
        }
        for k in keys {
            for b in k.to_be_bytes() {
                eat(b);
            }
            for &b in self.data[&k].0.iter() {
                eat(b);
            }
        }
        h
    }
}

impl Wire for KvStore {
    const KIND: &'static str = "KvStore";

    /// `applied: u64`, `count: u32`, then `count` entries of
    /// `key: u64`, `len: u32`, `len` value bytes — sorted by key so the
    /// encoding is deterministic.
    fn put<W: WirePut>(&self, out: &mut W) {
        out.put_u64(self.applied);
        out.put_u32(self.data.len() as u32);
        let mut keys: Vec<Key> = self.data.keys().copied().collect();
        keys.sort_unstable();
        for k in keys {
            let v = &self.data[&k];
            out.put_u64(k);
            out.put_u32(v.len() as u32);
            out.put_slice(&v.0);
        }
    }

    /// The one length in the workspace not counted from its encoder:
    /// the encoder sorts the keys, and sizing must neither sort nor
    /// allocate. 12 bytes of `applied` and count, 12 per entry, and the
    /// values.
    fn wire_len(&self) -> usize {
        12 + self.data.values().map(|v| 12 + v.len()).sum::<usize>()
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let applied = r.u64("kv.applied")?;
        let count = r.u32("kv.count")?;
        // 8 key + 4 len per entry.
        let mut data = HashMap::with_capacity(r.capacity_for(count as usize, 12));
        for _ in 0..count {
            let k = r.u64("kv.key")?;
            let len = r.u32("kv.value_len")? as usize;
            data.insert(k, Value(r.read_value(len, "kv.value")?));
        }
        Ok(KvStore { data, applied })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_then_get() {
        let mut kv = KvStore::new();
        assert_eq!(kv.apply(&Operation::Get(1)), None);
        kv.apply(&Operation::Put(1, Value::zeros(4)));
        assert_eq!(kv.apply(&Operation::Get(1)), Some(Value::zeros(4)));
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn overwrite() {
        let mut kv = KvStore::new();
        kv.apply(&Operation::Put(1, Value::from(&b"a"[..])));
        kv.apply(&Operation::Put(1, Value::from(&b"bb"[..])));
        assert_eq!(kv.peek(1).unwrap().len(), 2);
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn noop_counts_as_applied_but_changes_nothing() {
        let mut kv = KvStore::new();
        kv.apply(&Operation::Noop);
        assert_eq!(kv.applied(), 1);
        assert!(kv.is_empty());
    }

    #[test]
    fn peek_does_not_count() {
        let mut kv = KvStore::new();
        kv.apply(&Operation::Put(7, Value::zeros(1)));
        let before = kv.applied();
        assert!(kv.peek(7).is_some());
        assert_eq!(kv.applied(), before);
    }

    #[test]
    fn wire_roundtrip_preserves_state_and_size() {
        let mut kv = KvStore::new();
        kv.apply(&Operation::Put(3, Value::zeros(7)));
        kv.apply(&Operation::Put(1, Value::zeros(0)));
        kv.apply(&Operation::Get(3));
        let bytes = kv.encode();
        assert_eq!(bytes.len(), kv.wire_len());
        let walked = simnet::wire::WireLen::of(|len| kv.put(len));
        assert_eq!(walked, kv.wire_len(), "the direct length is the encoder's");
        let back = KvStore::decode_frame(&bytes.into()).expect("decodes");
        assert_eq!(back.fingerprint(), kv.fingerprint());
        assert_eq!(back.applied(), kv.applied());
        // Deterministic regardless of map iteration order.
        assert_eq!(kv.encode(), back.encode());
    }

    #[test]
    fn filtered_carves_ranges_and_full_range_is_a_clone() {
        let mut kv = KvStore::new();
        for k in 0..10u64 {
            kv.apply(&Operation::Put(k, Value::zeros(k as usize)));
        }
        kv.apply(&Operation::Get(3));
        let mid = kv.filtered(3, Some(7));
        assert_eq!(mid.len(), 4);
        assert!(mid.peek(3).is_some() && mid.peek(6).is_some());
        assert!(mid.peek(2).is_none() && mid.peek(7).is_none());
        assert_eq!(mid.applied(), kv.applied(), "history count carried over");
        let tail = kv.filtered(8, None);
        assert_eq!(tail.len(), 2);
        // Unbounded full range must be indistinguishable from a clone.
        let full = kv.filtered(0, None);
        assert_eq!(full.fingerprint(), kv.fingerprint());
        assert_eq!(full.encode(), kv.encode());
    }

    #[test]
    fn determinism_same_sequence_same_state() {
        let ops = [
            Operation::Put(1, Value::zeros(3)),
            Operation::Put(2, Value::zeros(5)),
            Operation::Get(1),
            Operation::Put(1, Value::zeros(7)),
        ];
        let mut a = KvStore::new();
        let mut b = KvStore::new();
        let ra: Vec<_> = ops.iter().map(|o| a.apply(o)).collect();
        let rb: Vec<_> = ops.iter().map(|o| b.apply(o)).collect();
        assert_eq!(ra, rb);
        assert_eq!(a.peek(1), b.peek(1));
        assert_eq!(a.peek(2), b.peek(2));
    }
}
