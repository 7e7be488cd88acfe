//! Cluster configuration shared by all protocol replicas.

use crate::safety::SafetyMonitor;
use crate::snapshot::CompactionStats;
use simnet::NodeId;

/// Static description of the consensus cluster a replica belongs to.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// All replica node ids (dense, starting at 0).
    pub replicas: Vec<NodeId>,
    /// The initially designated (stable) leader.
    pub leader: NodeId,
    /// Shared safety checker for this run.
    pub safety: SafetyMonitor,
    /// Shared compaction/memory counters for this run (replicas report
    /// retained log lengths and snapshot events; `ProtocolResult` sums
    /// them over groups).
    pub stats: CompactionStats,
    /// True when a client's sequence numbers may legitimately skip this
    /// cluster (sharded deployments: each key routes to one group, so
    /// any single group sees a gappy per-client subsequence). Protocols
    /// that enforce per-client issue order in their decided log must
    /// turn that sequencing off when set, or a gap would be held back
    /// forever waiting for commands that went to another group.
    pub client_gaps: bool,
}

impl ClusterConfig {
    /// A cluster of `n` replicas with node 0 as the stable leader.
    pub fn new(n: usize) -> Self {
        ClusterConfig {
            replicas: (0..n).map(NodeId::from).collect(),
            leader: NodeId(0),
            safety: SafetyMonitor::new(),
            stats: CompactionStats::new(),
            client_gaps: false,
        }
    }

    /// A cluster of `n` replicas occupying the contiguous node-id range
    /// `[start, start + n)`, with the first as the stable leader. Shard
    /// groups use this to carve disjoint namespaces out of one node-id
    /// space; each group gets its own safety monitor and compaction
    /// counters (merged at result assembly). Sets `client_gaps`: a
    /// range-carved group only ever sees the slice of each client's
    /// command sequence that routes to it.
    pub fn with_range(start: usize, n: usize) -> Self {
        ClusterConfig {
            replicas: (start..start + n).map(NodeId::from).collect(),
            leader: NodeId::from(start),
            safety: SafetyMonitor::new(),
            stats: CompactionStats::new(),
            client_gaps: true,
        }
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.replicas.len()
    }

    /// Majority quorum size for this cluster.
    pub fn majority(&self) -> usize {
        crate::quorum::majority(self.n())
    }

    /// All replicas except `me`.
    pub fn peers(&self, me: NodeId) -> Vec<NodeId> {
        self.replicas.iter().copied().filter(|&r| r != me).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let c = ClusterConfig::new(5);
        assert_eq!(c.n(), 5);
        assert_eq!(c.leader, NodeId(0));
        assert_eq!(c.majority(), 3);
        let peers = c.peers(NodeId(0));
        assert_eq!(peers.len(), 4);
        assert!(!peers.contains(&NodeId(0)));
    }

    #[test]
    fn range_cluster_offsets_ids_and_leader() {
        let c = ClusterConfig::with_range(6, 3);
        assert_eq!(c.replicas, vec![NodeId(6), NodeId(7), NodeId(8)]);
        assert_eq!(c.leader, NodeId(6));
        assert_eq!(c.majority(), 2);
        assert_eq!(c.peers(NodeId(7)), vec![NodeId(6), NodeId(8)]);
    }

    #[test]
    fn safety_handle_is_shared() {
        let c = ClusterConfig::new(3);
        let c2 = c.clone();
        c.safety.record(
            0,
            0,
            crate::command::RequestId {
                client: NodeId(9),
                seq: 1,
            },
        );
        assert_eq!(c2.safety.decided_count(), 1);
    }
}
