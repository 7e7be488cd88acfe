//! PigPaxos configuration.

use crate::groups::GroupSpec;
use paxos::PaxosConfig;
use simnet::SimDuration;

/// Rinse attempts a quorum read makes before giving up and redirecting
/// the client to the leader.
pub const PQR_MAX_ATTEMPTS: u32 = 8;

/// Full PigPaxos configuration: the underlying Paxos timers plus the
/// relay overlay parameters.
///
/// A relay answers once per round: it sends its group's aggregate up
/// when the round completes, meets `partial_threshold`, sees a
/// rejection, or times out, batched rounds included.
#[derive(Debug, Clone)]
pub struct PigConfig {
    /// Timers and execution cost of the underlying Multi-Paxos.
    pub paxos: PaxosConfig,
    /// How followers are partitioned into relay groups.
    pub groups: GroupSpec,
    /// How long a relay waits for its group before sending a partial
    /// aggregate (paper §3.4; Fig. 13 uses 50 ms).
    pub relay_timeout: SimDuration,
    /// How often relays scan for expired aggregations.
    pub relay_scan_interval: SimDuration,
    /// Partial response collection (§4.2): if set, a relay may send its
    /// first aggregate once it holds this many votes (including its own).
    /// `None` waits for the whole group (the basic protocol).
    pub partial_threshold: Option<usize>,
    /// Dynamic relay groups (§4.1): reshuffle membership at this period.
    pub reshuffle_interval: Option<SimDuration>,
    /// Relay tree depth: 1 = the paper's default single relay layer;
    /// 2 = nested sub-relays (§6.3 ablation).
    pub levels: usize,
    /// When false, the leader always picks the *first* member of each
    /// group as its relay instead of rotating randomly — the hotspot
    /// anti-pattern the paper's §3.2 rotation argument is about
    /// (ablation support; the paper's protocol always rotates).
    pub rotate_relays: bool,
    /// Serve `Get` requests at non-leader replicas via Paxos Quorum
    /// Reads over the relay tree (§4.3) instead of redirecting to the
    /// leader. Writes always go to the leader.
    pub pqr_reads: bool,
    /// Delay before retrying a quorum read that observed an in-flight
    /// write (the PQR "rinse").
    pub pqr_rinse_delay: SimDuration,
    /// Proxy-side batching of quorum-read probes over the relay tree:
    /// pending read keys coalesce into one `QrReadBatch` per relay
    /// wave (size-or-time/adaptive sizing via the shared
    /// [`paxi::BatchConfig`] machinery, plus at-most-one-outstanding-
    /// wave self-clocking). Disabled by default — every read then goes
    /// out at once as a wave of one and pays its own fan-out.
    pub probe_batch: paxi::BatchConfig,
}

impl PigConfig {
    /// LAN defaults with `r` contiguous relay groups.
    ///
    /// The leader's phase-2 retry timeout must exceed the relay timeout
    /// (a retry issued before relays can possibly have answered would
    /// reset their in-flight aggregations), so it is raised to roughly
    /// twice the relay timeout.
    pub fn lan(num_groups: usize) -> Self {
        let mut paxos = PaxosConfig::lan();
        paxos.p2_retry_timeout = SimDuration::from_millis(110);
        PigConfig {
            paxos,
            groups: GroupSpec::Chunks(num_groups),
            relay_timeout: SimDuration::from_millis(50),
            relay_scan_interval: SimDuration::from_millis(5),
            partial_threshold: None,
            reshuffle_interval: None,
            levels: 1,
            rotate_relays: true,
            pqr_reads: false,
            pqr_rinse_delay: SimDuration::from_millis(3),
            probe_batch: paxi::BatchConfig::disabled(),
        }
    }

    /// Fluent helper: enable leader-side command batching (and whatever
    /// reply coalescing the [`paxi::BatchConfig`] carries).
    pub fn with_batch(mut self, batch: paxi::BatchConfig) -> Self {
        self.paxos.batch = batch;
        self
    }

    /// Fluent helper: enable log compaction + snapshot catch-up with
    /// the given policy (stored on the underlying Paxos config; relays
    /// and leaders compact identically).
    pub fn with_snapshots(mut self, snapshot: paxi::SnapshotConfig) -> Self {
        self.paxos.snapshot = snapshot;
        self
    }

    /// Fluent helper: serve reads at follower proxies via Paxos Quorum
    /// Reads (§4.3). The protocol's default client target becomes a
    /// uniform spread over all replicas.
    ///
    /// **Caveat:** PQR mode disables the leader's per-client
    /// sequencing lane ([`paxos::BatchLane`] runs with sequencing
    /// off). Quorum reads are answered at follower proxies and never
    /// reach the leader's log, so a client's sequence numbers have
    /// legitimate gaps there — holding writes for those gaps would
    /// stall them forever. Pipelined clients therefore get FIFO-in-log
    /// ordering only in non-PQR configurations; exactly-once retry
    /// replay is unaffected.
    pub fn with_pqr(mut self) -> Self {
        self.pqr_reads = true;
        self
    }

    /// Fluent helper: batch quorum-read probes over the relay tree
    /// (implies nothing about `pqr_reads` — combine with
    /// [`PigConfig::with_pqr`]). Pending read keys at a proxy coalesce
    /// into one `QrReadBatch` per relay wave; each relay answers with a
    /// single aggregated `QrVoteBatch` uplink per wave, amortizing the
    /// probe fan-out/fan-in the same way `P2aBatch`/`P2bBatch`
    /// amortize write rounds. [`paxi::BatchConfig::adaptive`] is the
    /// recommended policy: isolated reads at low load flush
    /// immediately (no added read latency), saturated proxies fill
    /// waves to the arrival rate.
    pub fn with_probe_batch(mut self, batch: paxi::BatchConfig) -> Self {
        self.probe_batch = batch;
        self
    }

    /// WAN defaults with explicit (per-region) groups.
    pub fn wan(groups: GroupSpec) -> Self {
        let mut paxos = PaxosConfig::wan();
        paxos.p2_retry_timeout = SimDuration::from_millis(650);
        PigConfig {
            paxos,
            groups,
            relay_timeout: SimDuration::from_millis(300),
            relay_scan_interval: SimDuration::from_millis(25),
            partial_threshold: None,
            reshuffle_interval: None,
            levels: 1,
            rotate_relays: true,
            pqr_reads: false,
            pqr_rinse_delay: SimDuration::from_millis(40),
            probe_batch: paxi::BatchConfig::disabled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_defaults() {
        let c = PigConfig::lan(3);
        assert_eq!(c.groups, GroupSpec::Chunks(3));
        assert_eq!(c.relay_timeout, SimDuration::from_millis(50));
        assert_eq!(c.levels, 1);
        assert!(c.partial_threshold.is_none());
    }

    #[test]
    fn wan_uses_longer_timeouts() {
        let c = PigConfig::wan(GroupSpec::Chunks(3));
        assert!(c.relay_timeout > PigConfig::lan(3).relay_timeout);
    }
}
