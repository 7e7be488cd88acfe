//! EPaxos processing costs and configuration.

use paxi::SnapshotConfig;
use simnet::SimDuration;

// EPaxos does much more per-command bookkeeping than Multi-Paxos:
// interference lookups on every PreAccept/Accept, and dependency-graph
// analysis on every commit. These constants charge that work to the
// simulated CPU (execution itself costs `CpuCostModel::EXEC_COST`, as
// in Paxos). `GRAPH_VISIT_COST` in particular reproduces the behaviour
// the paper reports — under load the committed-but-unexecuted window
// grows, graph analysis gets more expensive, and throughput collapses
// ("conflict resolution … draining the resources of every node", §5.4).
//
// Calibrated against the paper's measurements (Fig. 8/10), where the
// authors' Go implementation saturates near 1000–1500 req/s regardless
// of cluster size because every replica performs interference tracking
// and dependency-graph work for every command. A hand-optimized EPaxos
// could do better; these constants reproduce the system the paper
// measured. See DESIGN.md §2 and EXPERIMENTS.md.

/// Cost per attribute/interference computation (PreAccept, Accept).
pub const ATTR_COST: SimDuration = SimDuration::from_micros(150);

/// Cost per instance visited during execution planning.
pub const GRAPH_VISIT_COST: SimDuration = SimDuration::from_micros(400);

/// EPaxos configuration.
#[derive(Debug, Clone, Default)]
pub struct EpaxosConfig {
    /// Instance-table compaction policy. EPaxos has no slot log; the
    /// analogous unbounded structure is the instance table, so
    /// `interval_ops` counts *executed instances* since the last sweep
    /// and a sweep drops every instance below the per-origin-replica
    /// contiguous executed frontier. Disabled by default.
    pub snapshot: SnapshotConfig,
}

impl EpaxosConfig {
    /// Fluent helper: enable instance-table compaction with the given
    /// policy (see the field docs).
    pub fn with_snapshots(mut self, snapshot: SnapshotConfig) -> Self {
        self.snapshot = snapshot;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_positive() {
        let costs = [ATTR_COST, GRAPH_VISIT_COST, simnet::CpuCostModel::EXEC_COST];
        assert!(costs.iter().all(|&c| c > SimDuration::ZERO));
        assert_eq!(EpaxosConfig::default().snapshot, SnapshotConfig::disabled());
    }
}
