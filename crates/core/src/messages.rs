//! PigPaxos wire messages: Paxos messages wrapped in relay envelopes.
//!
//! `Direct(inner)` carries an unmodified Paxos message point-to-point
//! (relay → follower, follower → relay, relay → leader aggregate).
//! `ToRelay { plan, inner }` instructs a relay node: process `inner`
//! yourself, disseminate it along `plan`, aggregate the responses, and
//! send the combined votes to `reply_to`. Because `P1b`/`P2b` already
//! carry vote vectors, "aggregation" is just concatenation and the
//! leader code is byte-for-byte the Multi-Paxos leader.

use paxi::ProtoMessage;
use paxos::PaxosMsg;
use simnet::wire::{DOMAIN_PAXOS, DOMAIN_PIG};
use simnet::{NodeId, Wire, WireError, WireHeader, WirePut, WireReader};

/// A (possibly multi-level) dissemination plan for one relay.
#[derive(Debug, Clone, PartialEq)]
pub struct RelayPlan {
    /// Followers this relay contacts directly.
    pub peers: Vec<NodeId>,
    /// Sub-relays, each with its own plan (multi-level trees, §6.3).
    pub sub: Vec<(NodeId, RelayPlan)>,
}

impl RelayPlan {
    /// A single-level plan: contact these peers directly.
    pub fn flat(peers: Vec<NodeId>) -> Self {
        RelayPlan {
            peers,
            sub: Vec::new(),
        }
    }

    /// Number of nodes this plan expects responses from (direct peers +
    /// sub-relays; sub-relays answer for their entire subtree).
    pub fn expected_responders(&self) -> usize {
        self.peers.len() + self.sub.len()
    }

    /// Total followers covered by the plan (all levels).
    pub fn total_nodes(&self) -> usize {
        self.peers.len()
            + self
                .sub
                .iter()
                .map(|(_, p)| 1 + p.total_nodes())
                .sum::<usize>()
    }
}

/// PigPaxos protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum PigMsg {
    /// Leader → relay (or relay → sub-relay): disseminate and aggregate.
    ToRelay {
        /// Where the aggregate goes (the leader, or the parent relay).
        reply_to: NodeId,
        /// Who to contact and who aggregates below us.
        plan: RelayPlan,
        /// The wrapped Paxos message.
        inner: PaxosMsg,
        /// Minimum responses (including the relay's own vote) before the
        /// first aggregate may be sent (§4.2 partial response collection).
        /// `0` means "wait for everyone or the timeout".
        threshold: usize,
    },
    /// Point-to-point Paxos message (unchanged semantics).
    Direct(PaxosMsg),
}

impl ProtoMessage for PigMsg {
    fn wire_size(&self) -> usize {
        self.wire_len()
    }

    fn label(&self) -> &'static str {
        match self {
            PigMsg::ToRelay { .. } => "to_relay",
            PigMsg::Direct(inner) => inner.label(),
        }
    }
}

impl Wire for RelayPlan {
    const KIND: &'static str = "RelayPlan";

    /// `peer count: u16`, `sub count: u16`, the peer node ids (u32
    /// each), then each sub-relay as `node: u32` + its nested plan.
    fn put<W: WirePut>(&self, out: &mut W) {
        assert!(self.peers.len() <= u16::MAX as usize, "relay plan too wide");
        assert!(self.sub.len() <= u16::MAX as usize, "relay plan too wide");
        out.put_u16(self.peers.len() as u16);
        out.put_u16(self.sub.len() as u16);
        for p in &self.peers {
            out.put_u32(p.0);
        }
        for (node, plan) in &self.sub {
            out.put_u32(node.0);
            out.put_wire(plan);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n_peers = r.u16("plan.peer_count")?;
        let n_sub = r.u16("plan.sub_count")?;
        let mut peers = Vec::with_capacity(r.capacity_for(n_peers as usize, 4));
        for _ in 0..n_peers {
            peers.push(NodeId(r.u32("plan.peer")?));
        }
        // 4 node + an (empty) 4-byte nested plan per sub-relay.
        let mut sub = Vec::with_capacity(r.capacity_for(n_sub as usize, 8));
        for _ in 0..n_sub {
            let node = NodeId(r.u32("plan.sub_node")?);
            sub.push((node, RelayPlan::decode(r)?));
        }
        Ok(RelayPlan { peers, sub })
    }
}

impl Wire for PigMsg {
    const KIND: &'static str = "PigMsg";

    /// `Direct(inner)` encodes as the inner Paxos message verbatim (the
    /// header's domain byte disambiguates on decode — the relay wrapper
    /// really is zero-overhead on the wire). `ToRelay` carries its own
    /// header, `reply_to: u32`, `threshold: u32`, the [`RelayPlan`],
    /// then the inner message.
    fn put<W: WirePut>(&self, out: &mut W) {
        match self {
            PigMsg::ToRelay {
                reply_to,
                plan,
                inner,
                threshold,
            } => {
                assert!(*threshold <= u32::MAX as usize, "threshold overflows u32");
                out.put_wire(&WireHeader::new(DOMAIN_PIG, 0));
                out.put_u32(reply_to.0);
                out.put_u32(*threshold as u32);
                out.put_wire(plan);
                out.put_wire(inner);
            }
            PigMsg::Direct(inner) => out.put_wire(inner),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.peek(1)? {
            DOMAIN_PAXOS => Ok(PigMsg::Direct(PaxosMsg::decode(r)?)),
            DOMAIN_PIG => {
                WireHeader::decode(r)?;
                let reply_to = NodeId(r.u32("to_relay.reply_to")?);
                let threshold = r.u32("to_relay.threshold")? as usize;
                let plan = RelayPlan::decode(r)?;
                Ok(PigMsg::ToRelay {
                    reply_to,
                    plan,
                    inner: PaxosMsg::decode(r)?,
                    threshold,
                })
            }
            other => Err(WireError::BadTag {
                what: "pig domain",
                got: other,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi::Ballot;

    fn p1a() -> PaxosMsg {
        PaxosMsg::P1a {
            ballot: Ballot::new(1, NodeId(0)),
            from: 0,
        }
    }

    #[test]
    fn flat_plan_counts() {
        let p = RelayPlan::flat(vec![NodeId(2), NodeId(3), NodeId(4)]);
        assert_eq!(p.expected_responders(), 3);
        assert_eq!(p.total_nodes(), 3);
    }

    #[test]
    fn nested_plan_counts() {
        // relay -> {2,3 direct} + sub-relay 4 -> {5,6}
        let p = RelayPlan {
            peers: vec![NodeId(2), NodeId(3)],
            sub: vec![(NodeId(4), RelayPlan::flat(vec![NodeId(5), NodeId(6)]))],
        };
        assert_eq!(p.expected_responders(), 3, "2 direct + 1 sub-relay");
        assert_eq!(p.total_nodes(), 5, "all followers under the plan");
    }

    #[test]
    fn wire_size_grows_with_plan() {
        let small = PigMsg::ToRelay {
            reply_to: NodeId(0),
            plan: RelayPlan::flat(vec![NodeId(2)]),
            inner: p1a(),
            threshold: 0,
        };
        let big = PigMsg::ToRelay {
            reply_to: NodeId(0),
            plan: RelayPlan::flat((2..12).map(NodeId).collect()),
            inner: p1a(),
            threshold: 0,
        };
        assert!(big.wire_size() > small.wire_size());
        assert_eq!(big.wire_size() - small.wire_size(), 9 * 4);
    }

    #[test]
    fn direct_is_transparent() {
        let d = PigMsg::Direct(p1a());
        assert_eq!(d.wire_size(), p1a().wire_size());
        assert_eq!(d.label(), "p1a");
    }
}
