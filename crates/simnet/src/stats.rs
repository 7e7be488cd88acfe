//! Per-node and per-link statistics collected during a run.
//!
//! These counters are the empirical counterpart of the paper's §6 message
//! load model: after a run, `msgs_sent + msgs_received` per node divided by
//! the number of committed operations gives the measured `Ml` / `Mf`,
//! directly comparable to Eq. (1) and Eq. (3).

use crate::time::{SimDuration, SimTime};

/// Counters for a single node.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// Messages handed to this node's actor.
    pub msgs_received: u64,
    /// Messages emitted by this node's actor.
    pub msgs_sent: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Total simulated CPU time this node spent handling messages/timers.
    pub busy_time: SimDuration,
    /// Timer firings handled.
    pub timers_fired: u64,
    /// Messages dropped because this node was crashed.
    pub msgs_dropped_crashed: u64,
}

impl NodeStats {
    /// Total messages through this node (sent + received).
    pub fn msgs_total(&self) -> u64 {
        self.msgs_received + self.msgs_sent
    }

    /// Fraction of wall time this node was busy over the given horizon.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.busy_time.as_nanos() as f64 / horizon.as_nanos() as f64
    }
}

/// Aggregate statistics for a whole simulation run.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Per-node counters, indexed by `NodeId::index()`.
    pub nodes: Vec<NodeStats>,
    /// Messages that crossed a region boundary (WAN traffic, §6.4).
    pub cross_region_msgs: u64,
    /// Bytes that crossed a region boundary.
    pub cross_region_bytes: u64,
    /// Messages dropped by fault injection (links or crashes).
    pub msgs_dropped: u64,
    /// Messages dropped specifically by per-link flakiness
    /// (`Control::FlakyLink`) — a subset of `msgs_dropped`.
    pub msgs_dropped_flaky: u64,
    /// Fault-injection [`crate::Control`]s applied: scheduled, or applied
    /// at once by [`crate::Simulation::apply`].
    pub controls_applied: u64,
    /// Total messages delivered.
    pub msgs_delivered: u64,
}

impl NetStats {
    /// Create stats for `n` nodes.
    pub fn new(n: usize) -> Self {
        NetStats {
            nodes: vec![NodeStats::default(); n],
            ..Default::default()
        }
    }

    /// Grow to accommodate node `i`.
    pub fn ensure(&mut self, i: usize) {
        if self.nodes.len() <= i {
            self.nodes.resize(i + 1, NodeStats::default());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_zero_horizon() {
        let s = NodeStats::default();
        assert_eq!(s.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn utilization_fraction() {
        let s = NodeStats {
            busy_time: SimDuration::from_millis(500),
            ..Default::default()
        };
        let u = s.utilization(SimTime::from_secs(1));
        assert!((u - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ensure_grows() {
        let mut s = NetStats::new(2);
        s.ensure(5);
        assert_eq!(s.nodes.len(), 6);
        s.ensure(3); // no shrink
        assert_eq!(s.nodes.len(), 6);
    }

    #[test]
    fn totals() {
        let mut s = NetStats::new(2);
        s.nodes[0].msgs_sent = 3;
        s.nodes[0].msgs_received = 2;
        s.nodes[1].msgs_sent = 1;
        assert_eq!(s.nodes[0].msgs_total(), 5);
        assert_eq!(s.nodes[1].msgs_total(), 1);
    }
}
