//! Optional message-level trace capture.
//!
//! When enabled, the simulator records one [`TraceEntry`] per delivered
//! message. Traces power the §6.4 WAN-traffic accounting benchmark and are
//! invaluable when debugging protocol interleavings; they are off by
//! default because high-throughput runs generate millions of messages.

use crate::id::NodeId;
use crate::time::SimTime;

/// A single delivered (or dropped) message.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Delivery (or drop) time.
    pub at: SimTime,
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Message label (see [`crate::Message::label`]).
    pub label: &'static str,
    /// Serialized size in bytes.
    pub bytes: usize,
    /// Whether the message crossed a region boundary.
    pub cross_region: bool,
    /// Whether the message was dropped by fault injection.
    pub dropped: bool,
}

/// An in-memory trace of delivered messages.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Record one entry.
    pub fn push(&mut self, e: TraceEntry) {
        self.entries.push(e);
    }

    /// All entries in delivery order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no messages were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Count of delivered messages matching a label.
    pub fn count_label(&self, label: &str) -> usize {
        self.entries
            .iter()
            .filter(|e| !e.dropped && e.label == label)
            .count()
    }

    /// Clear all entries while keeping capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Order-sensitive FNV-1a fingerprint over every entry (time, ends,
    /// label, size, flags). Two runs with identical message schedules
    /// produce identical fingerprints — the compact witness used by
    /// determinism regression tests.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn eat(mut h: u64, b: u64) -> u64 {
            for byte in b.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(PRIME);
            }
            h
        }
        let mut h = OFFSET;
        for e in &self.entries {
            h = eat(h, e.at.as_nanos());
            h = eat(h, e.from.0 as u64);
            h = eat(h, e.to.0 as u64);
            h = eat(h, e.bytes as u64);
            h = eat(h, ((e.cross_region as u64) << 1) | e.dropped as u64);
            for b in e.label.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(label: &'static str, cross: bool, dropped: bool) -> TraceEntry {
        TraceEntry {
            at: SimTime::ZERO,
            from: NodeId(0),
            to: NodeId(1),
            label,
            bytes: 8,
            cross_region: cross,
            dropped,
        }
    }

    #[test]
    fn counting() {
        let mut t = Trace::default();
        assert!(t.is_empty());
        t.push(entry("p2a", false, false));
        t.push(entry("p2a", true, false));
        t.push(entry("p2a", true, true)); // dropped: not counted
        t.push(entry("p2b", false, false));
        assert_eq!(t.len(), 4);
        assert_eq!(t.count_label("p2a"), 2);
        assert_eq!(t.count_label("p2b"), 1);
    }

    #[test]
    fn clear_keeps_nothing() {
        let mut t = Trace::default();
        t.push(entry("x", false, false));
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn fingerprint_is_stable_and_order_sensitive() {
        let mut a = Trace::default();
        a.push(entry("p2a", false, false));
        a.push(entry("p2b", false, false));
        let mut b = Trace::default();
        b.push(entry("p2a", false, false));
        b.push(entry("p2b", false, false));
        assert_eq!(a.fingerprint(), b.fingerprint());

        let mut c = Trace::default();
        c.push(entry("p2b", false, false));
        c.push(entry("p2a", false, false));
        assert_ne!(a.fingerprint(), c.fingerprint(), "order must matter");
        assert_ne!(Trace::default().fingerprint(), a.fingerprint());
    }
}
