//! Log compaction policy and state-machine snapshots.
//!
//! Every protocol in this reproduction keeps its replicated log in
//! memory, so steady-state runs of paper scale (hours of traffic) need
//! the executed prefix to be *compacted*: once a slot is executed its
//! command can be folded into a state-machine snapshot and dropped from
//! the log. A [`SnapshotConfig`] on a protocol's config decides when
//! that happens (by executed-operation count); the [`Snapshot`] value
//! is what a replica keeps after truncating — and what it ships to a
//! lagging peer (or a newly elected leader) whose missing prefix is
//! gone from every log.
//!
//! Compaction never touches undecided or unexecuted slots: the
//! truncation point is always the executed frontier (`Log::execute_cursor`),
//! below which every slot is committed *and* applied. That invariant is
//! what makes dropping the entries safe — their effect is fully captured
//! by the snapshot.
//!
//! [`CompactionStats`] is the shared (cloneable, thread-safe) counter
//! hub replicas report into, so `ProtocolResult::max_log_len` /
//! `snapshots_taken` make memory-boundedness a measurable, gateable
//! quantity on every execution substrate.

use crate::command::Key;
use crate::kv::KvStore;
use crate::session::SessionTable;
use simnet::{Wire, WireError, WirePut, WireReader};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// When a replica snapshots its state machine and truncates the
/// executed log prefix. Disabled by default: benchmarks and the perf
/// gate run with the exact pre-compaction behaviour unless a config
/// opts in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotConfig {
    /// Snapshot once this many operations have executed since the last
    /// snapshot (the executed frontier advanced this far past the
    /// compaction floor).
    pub interval_ops: Option<u64>,
}

impl SnapshotConfig {
    /// Compaction off (the default): the log grows without bound.
    pub fn disabled() -> Self {
        SnapshotConfig::default()
    }

    /// Snapshot every `ops` executed operations.
    pub fn every_ops(ops: u64) -> Self {
        assert!(ops >= 1, "snapshot interval must be at least 1 op");
        SnapshotConfig {
            interval_ops: Some(ops),
        }
    }
}

/// A state-machine snapshot: everything a replica needs to serve (and
/// keep serving) from slot `up_to` onward without any log entry below
/// it.
///
/// Carried by `SnapshotTransfer` messages and phase-1b promises when a
/// peer's missing prefix has been compacted away, so catch-up installs
/// state instead of replaying slots.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Every slot `< up_to` is committed, executed, and folded into
    /// `kv`. Equals the snapshotting replica's executed frontier at
    /// capture time.
    pub up_to: u64,
    /// The state machine with all of the prefix applied.
    pub kv: KvStore,
    /// Slot of the last executed write per key (sorted by key for
    /// determinism) — restores the quorum-read freshness index.
    pub last_write_slots: Vec<(Key, u64)>,
    /// The windowed per-client reply cache at capture time, so an
    /// installing replica still answers retries of prefix commands
    /// exactly once instead of re-proposing them.
    pub sessions: SessionTable,
}

impl PartialEq for Snapshot {
    fn eq(&self, other: &Self) -> bool {
        // Session windows are auxiliary (retry replay only); two
        // snapshots are "the same state" when the durable parts agree.
        self.up_to == other.up_to
            && self.kv.fingerprint() == other.kv.fingerprint()
            && self.last_write_slots == other.last_write_slots
    }
}

impl Snapshot {
    /// Capture the whole state: a clone of `kv` and `sessions`, and
    /// the freshness index sorted by key.
    pub fn capture(
        up_to: u64,
        kv: &KvStore,
        last_write_slot: &HashMap<Key, u64>,
        sessions: &SessionTable,
    ) -> Self {
        let mut last_write_slots: Vec<(Key, u64)> =
            last_write_slot.iter().map(|(&k, &s)| (k, s)).collect();
        last_write_slots.sort_unstable();
        Snapshot {
            up_to,
            kv: kv.clone(),
            last_write_slots,
            sessions: sessions.clone(),
        }
    }
}

impl Wire for Snapshot {
    const KIND: &'static str = "Snapshot";

    /// `up_to: u64`, the [`KvStore`] encoding, `index count: u32` +
    /// `(key: u64, slot: u64)` pairs, then the [`SessionTable`]
    /// encoding.
    fn put<W: WirePut>(&self, out: &mut W) {
        out.put_u64(self.up_to);
        out.put_wire(&self.kv);
        out.put_u32(self.last_write_slots.len() as u32);
        for (key, slot) in &self.last_write_slots {
            out.put_u64(*key);
            out.put_u64(*slot);
        }
        out.put_wire(&self.sessions);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let up_to = r.u64("snapshot.up_to")?;
        let kv = KvStore::decode(r)?;
        let n = r.u32("snapshot.index_count")?;
        let mut last_write_slots = Vec::with_capacity(r.capacity_for(n as usize, 16));
        for _ in 0..n {
            let key = r.u64("snapshot.index_key")?;
            let slot = r.u64("snapshot.index_slot")?;
            last_write_slots.push((key, slot));
        }
        Ok(Snapshot {
            up_to,
            kv,
            last_write_slots,
            sessions: SessionTable::decode(r)?,
        })
    }
}

#[derive(Debug, Default)]
struct StatsInner {
    max_log_len: AtomicU64,
    snapshots_taken: AtomicU64,
    snapshots_installed: AtomicU64,
    pqr_started: AtomicU64,
    pqr_finished: AtomicU64,
}

/// Shared compaction/memory counters for one run. Cloning shares state
/// (like [`crate::SafetyMonitor`]); thread-safe so the same hub works
/// under the simulator and the real-thread runtime.
#[derive(Debug, Clone, Default)]
pub struct CompactionStats(Arc<StatsInner>);

impl CompactionStats {
    /// Fresh counters (all zero).
    pub fn new() -> Self {
        CompactionStats::default()
    }

    /// Report a replica's current retained log length (slots for the
    /// Paxos log, instances for EPaxos). The hub keeps the maximum —
    /// the run's peak per-replica memory footprint in log entries.
    pub fn observe_log_len(&self, len: u64) {
        self.0.max_log_len.fetch_max(len, Ordering::Relaxed);
    }

    /// Report one snapshot + truncation performed by a replica.
    pub fn note_snapshot(&self) {
        self.0.snapshots_taken.fetch_add(1, Ordering::Relaxed);
    }

    /// Report one snapshot *installed* from a peer (the catch-up path).
    pub fn note_install(&self) {
        self.0.snapshots_installed.fetch_add(1, Ordering::Relaxed);
    }

    /// Largest retained log length any replica reported.
    pub fn max_log_len(&self) -> u64 {
        self.0.max_log_len.load(Ordering::Relaxed)
    }

    /// Snapshots taken (compactions) across all replicas.
    pub fn snapshots_taken(&self) -> u64 {
        self.0.snapshots_taken.load(Ordering::Relaxed)
    }

    /// Snapshots installed from peers across all replicas.
    pub fn snapshots_installed(&self) -> u64 {
        self.0.snapshots_installed.load(Ordering::Relaxed)
    }

    /// Report a quorum read opened at a proxy (`PendingReads::start`).
    pub fn note_pqr_started(&self) {
        self.0.pqr_started.fetch_add(1, Ordering::Relaxed);
    }

    /// Report quorum reads that left the proxy's pending table —
    /// completed, aborted to a leader redirect, expired, or superseded
    /// by a retry of the same request. `n` at once so a replica can
    /// report a whole expiry sweep in one call.
    pub fn note_pqr_finished(&self, n: u64) {
        self.0.pqr_finished.fetch_add(n, Ordering::Relaxed);
    }

    /// Quorum reads opened across all proxies.
    pub fn pqr_started(&self) -> u64 {
        self.0.pqr_started.load(Ordering::Relaxed)
    }

    /// Quorum reads still in some proxy's pending table (started −
    /// finished). A quiesced run must end at 0 — anything else is a
    /// `PendingReads` leak.
    pub fn pqr_inflight(&self) -> u64 {
        self.0
            .pqr_started
            .load(Ordering::Relaxed)
            .saturating_sub(self.0.pqr_finished.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{Operation, Value};

    #[test]
    fn config_triggers() {
        assert_eq!(SnapshotConfig::disabled().interval_ops, None);
        assert_eq!(SnapshotConfig::every_ops(5).interval_ops, Some(5));
    }

    #[test]
    #[should_panic(expected = "at least 1 op")]
    fn zero_interval_rejected() {
        SnapshotConfig::every_ops(0);
    }

    fn snap(up_to: u64, writes: u64) -> Snapshot {
        let mut kv = KvStore::new();
        for k in 0..writes {
            kv.apply(&Operation::Put(k, Value::zeros(8)));
        }
        Snapshot {
            up_to,
            kv,
            last_write_slots: (0..writes).map(|k| (k, k)).collect(),
            sessions: SessionTable::new(),
        }
    }

    #[test]
    fn snapshot_equality_ignores_sessions() {
        let a = snap(5, 3);
        let mut b = snap(5, 3);
        b.sessions.record(&crate::command::ClientReply::ok(
            crate::command::RequestId {
                client: simnet::NodeId(9),
                seq: 1,
            },
            None,
        ));
        assert_eq!(a, b, "session window is not part of state identity");
        assert_ne!(a, snap(6, 3));
        assert_ne!(a, snap(5, 4));
    }

    #[test]
    fn capture_clones_the_state_and_sorts_the_index() {
        let mut kv = KvStore::new();
        let mut idx = std::collections::HashMap::new();
        for k in (0..8u64).rev() {
            kv.apply(&Operation::Put(k, Value::zeros(4)));
            idx.insert(k, 7 - k);
        }
        let snap = Snapshot::capture(8, &kv, &idx, &SessionTable::new());
        assert_eq!(snap.up_to, 8);
        assert_eq!(snap.kv.encode(), kv.encode());
        let want: Vec<(u64, u64)> = (0..8).map(|k| (k, 7 - k)).collect();
        assert_eq!(snap.last_write_slots, want);
    }

    #[test]
    fn snapshot_wire_bytes_scale_with_state() {
        assert!(snap(5, 10).wire_len() > snap(5, 2).wire_len());
    }

    #[test]
    fn snapshot_wire_roundtrip_exact_size() {
        let mut s = snap(5, 3);
        s.sessions.record(&crate::command::ClientReply::ok(
            crate::command::RequestId {
                client: simnet::NodeId(9),
                seq: 1,
            },
            Some(Value::zeros(12)),
        ));
        let bytes = s.encode();
        assert_eq!(bytes.len(), s.wire_len(), "wire_len is exact");
        let back = Snapshot::decode_frame(&bytes.into()).expect("decodes");
        assert_eq!(back, s);
        assert_eq!(back.sessions.encode(), s.sessions.encode());
    }

    #[test]
    fn stats_are_shared_and_track_max() {
        let s = CompactionStats::new();
        let s2 = s.clone();
        s.observe_log_len(10);
        s2.observe_log_len(4);
        s.note_snapshot();
        s2.note_snapshot();
        s2.note_install();
        assert_eq!(s.max_log_len(), 10, "max wins over later smaller values");
        assert_eq!(s.snapshots_taken(), 2);
        assert_eq!(s.snapshots_installed(), 1);
    }
}
