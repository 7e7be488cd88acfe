//! Multi-Paxos timing configuration.

use paxi::{BatchConfig, SnapshotConfig};
use simnet::SimDuration;

/// Timers governing liveness behaviour.
#[derive(Debug, Clone)]
pub struct PaxosConfig {
    /// Leader heartbeat period (keeps followers' election timers at bay
    /// and propagates the commit watermark when idle).
    pub heartbeat_interval: SimDuration,
    /// Minimum follower election timeout (randomized per follower in
    /// `[min, max]` to avoid split votes).
    pub election_timeout_min: SimDuration,
    /// Maximum follower election timeout.
    pub election_timeout_max: SimDuration,
    /// Leader re-sends phase-2a for a slot still uncommitted after this.
    pub p2_retry_timeout: SimDuration,
    /// Delay before a follower sends a batched `LearnReq` for missing
    /// slots. Rate-limits gap repair so it never competes with the hot
    /// path (followers lagging briefly is invisible to clients — only
    /// the leader answers them).
    pub learn_delay: SimDuration,
    /// Flexible quorums (paper §2.2): `Some((q1, q2))` replaces majority
    /// quorums with phase-1 quorums of `q1` and phase-2 quorums of `q2`
    /// (`q1 + q2 > n` required). The paper's point: a small `q2` improves
    /// latency but cannot fix the leader's message bottleneck — the
    /// leader still talks to everyone.
    pub flexible_quorums: Option<(usize, usize)>,
    /// Thrifty optimization (paper §2.2): send phase-2a to only `q2 − 1`
    /// followers instead of all. Saves leader messages but a single
    /// sluggish or crashed node in that set stalls commits until the
    /// retry path widens the fan-out.
    pub thrifty: bool,
    /// Leader-side client-command batching: one accept round (and one
    /// message per follower / relay group) amortizes up to
    /// `batch.max_batch` commands. Disabled by default.
    pub batch: BatchConfig,
    /// Log compaction policy: when to snapshot the state machine and
    /// truncate the executed log prefix. Disabled by default — the
    /// benchmarks and perf gate run with the unbounded log unless a
    /// scenario opts in (long-running soaks do).
    pub snapshot: SnapshotConfig,
}

impl Default for PaxosConfig {
    fn default() -> Self {
        PaxosConfig::lan()
    }
}

impl PaxosConfig {
    /// Defaults tuned for sub-millisecond LAN RTTs.
    pub fn lan() -> Self {
        PaxosConfig {
            heartbeat_interval: SimDuration::from_millis(20),
            election_timeout_min: SimDuration::from_millis(100),
            election_timeout_max: SimDuration::from_millis(200),
            p2_retry_timeout: SimDuration::from_millis(50),
            learn_delay: SimDuration::from_millis(100),
            flexible_quorums: None,
            thrifty: false,
            batch: BatchConfig::disabled(),
            snapshot: SnapshotConfig::disabled(),
        }
    }

    /// Fluent helper: enable leader-side command batching (and whatever
    /// reply coalescing the [`BatchConfig`] carries).
    pub fn with_batch(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// Fluent helper: enable log compaction + snapshot catch-up with
    /// the given policy.
    pub fn with_snapshots(mut self, snapshot: SnapshotConfig) -> Self {
        self.snapshot = snapshot;
        self
    }

    /// Defaults tuned for ~100 ms WAN RTTs.
    pub fn wan() -> Self {
        PaxosConfig {
            heartbeat_interval: SimDuration::from_millis(150),
            election_timeout_min: SimDuration::from_millis(600),
            election_timeout_max: SimDuration::from_millis(1200),
            p2_retry_timeout: SimDuration::from_millis(400),
            learn_delay: SimDuration::from_millis(300),
            flexible_quorums: None,
            thrifty: false,
            batch: BatchConfig::disabled(),
            snapshot: SnapshotConfig::disabled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_defaults_sane() {
        let c = PaxosConfig::lan();
        assert!(c.heartbeat_interval < c.election_timeout_min);
        assert!(c.election_timeout_min < c.election_timeout_max);
    }

    #[test]
    fn wan_slower_than_lan() {
        assert!(PaxosConfig::wan().election_timeout_min > PaxosConfig::lan().election_timeout_max);
    }
}
