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
    /// retained log lengths and snapshot events; `ProtocolResult` reads
    /// them).
    pub stats: CompactionStats,
}

impl ClusterConfig {
    /// A cluster of `n` replicas with node 0 as the stable leader.
    pub fn new(n: usize) -> Self {
        ClusterConfig {
            replicas: (0..n).map(NodeId::from).collect(),
            leader: NodeId(0),
            safety: SafetyMonitor::new(),
            stats: CompactionStats::new(),
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
