//! EPaxos wire messages.
//!
//! Every command lives in an *instance* owned by the replica that
//! received it from a client. Instances carry attributes `(seq, deps)`
//! used to order interfering commands at execution time. Messages are
//! larger than Multi-Paxos messages because attributes travel with every
//! phase — one of the overheads the paper's comparison surfaces.

use paxi::wire::{decode_command_body, op_tag, put_command_body};
use paxi::{Ballot, Command, ProtoMessage};
use simnet::wire::DOMAIN_EPAXOS;
use simnet::{NodeId, Wire, WireError, WireHeader, WirePut, WireReader};
use std::fmt;

/// Identifies one EPaxos instance: `(owning replica, slot)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId {
    /// The replica that leads this instance.
    pub replica: NodeId,
    /// Slot within that replica's instance space.
    pub slot: u64,
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.replica, self.slot)
    }
}

/// Attributes assigned to a command: a sequence number and the set of
/// interfering instances it must be ordered against.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Attrs {
    /// Lamport-style sequence number (max over deps + 1).
    pub seq: u64,
    /// Interfering instances this command depends on.
    pub deps: Vec<InstanceId>,
}

impl Attrs {
    /// Merge another attribute set into this one (union deps, max seq).
    /// Returns true if anything changed.
    pub fn merge(&mut self, other: &Attrs) -> bool {
        let mut changed = false;
        if other.seq > self.seq {
            self.seq = other.seq;
            changed = true;
        }
        for d in &other.deps {
            if !self.deps.contains(d) {
                self.deps.push(*d);
                changed = true;
            }
        }
        if changed {
            self.deps.sort();
        }
        changed
    }
}

/// EPaxos protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum EpaxosMsg {
    /// Command leader → replicas: propose a command with initial attrs.
    PreAccept {
        /// The instance.
        inst: InstanceId,
        /// Instance ballot (0 for the initial owner round).
        ballot: Ballot,
        /// The command.
        command: Command,
        /// Leader-computed attributes.
        attrs: Attrs,
    },
    /// Replica → command leader: possibly-updated attributes.
    PreAcceptOk {
        /// The instance.
        inst: InstanceId,
        /// The replying node.
        node: NodeId,
        /// Attributes after merging the replica's local interference.
        attrs: Attrs,
        /// Whether the replica changed the attributes.
        changed: bool,
    },
    /// Slow path: fix the final attributes with a majority.
    Accept {
        /// The instance.
        inst: InstanceId,
        /// Instance ballot.
        ballot: Ballot,
        /// The command.
        command: Command,
        /// Final attributes.
        attrs: Attrs,
    },
    /// Slow-path acknowledgement.
    AcceptOk {
        /// The instance.
        inst: InstanceId,
        /// The replying node.
        node: NodeId,
    },
    /// Commit notification broadcast to everyone.
    Commit {
        /// The instance.
        inst: InstanceId,
        /// The command.
        command: Command,
        /// Final attributes.
        attrs: Attrs,
    },
}

impl ProtoMessage for EpaxosMsg {
    fn wire_size(&self) -> usize {
        self.wire_len()
    }

    fn label(&self) -> &'static str {
        match self {
            EpaxosMsg::PreAccept { .. } => "preaccept",
            EpaxosMsg::PreAcceptOk { .. } => "preaccept_ok",
            EpaxosMsg::Accept { .. } => "accept",
            EpaxosMsg::AcceptOk { .. } => "accept_ok",
            EpaxosMsg::Commit { .. } => "commit",
        }
    }
}

const KIND_PREACCEPT: u8 = 0;
const KIND_PREACCEPT_OK: u8 = 1;
const KIND_ACCEPT: u8 = 2;
const KIND_ACCEPT_OK: u8 = 3;
const KIND_COMMIT: u8 = 4;

impl Wire for InstanceId {
    const KIND: &'static str = "InstanceId";

    fn put<W: WirePut>(&self, out: &mut W) {
        out.put_u32(self.replica.0);
        out.put_u64(self.slot);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(InstanceId {
            replica: NodeId(r.u32("inst.replica")?),
            slot: r.u64("inst.slot")?,
        })
    }
}

/// Attrs encode as `seq: u64` + the deps (12 bytes each); the dep
/// *count* rides in the enclosing message's header `aux0`.
fn put_attrs<W: WirePut>(attrs: &Attrs, out: &mut W) {
    out.put_u64(attrs.seq);
    for d in &attrs.deps {
        out.put_wire(d);
    }
}

fn decode_attrs(n_deps: u32, r: &mut WireReader<'_>) -> Result<Attrs, WireError> {
    let seq = r.u64("attrs.seq")?;
    // 4 replica + 8 slot per dep.
    let mut deps = Vec::with_capacity(r.capacity_for(n_deps as usize, 12));
    for _ in 0..n_deps {
        deps.push(InstanceId::decode(r)?);
    }
    Ok(Attrs { seq, deps })
}

fn header(kind: u8, attrs: &Attrs) -> WireHeader {
    WireHeader::new(DOMAIN_EPAXOS, kind).aux0(attrs.deps.len() as u32)
}

impl Wire for EpaxosMsg {
    const KIND: &'static str = "EpaxosMsg";

    fn put<W: WirePut>(&self, out: &mut W) {
        match self {
            EpaxosMsg::PreAccept {
                inst,
                ballot,
                command,
                attrs,
            }
            | EpaxosMsg::Accept {
                inst,
                ballot,
                command,
                attrs,
            } => {
                let kind = if matches!(self, EpaxosMsg::PreAccept { .. }) {
                    KIND_PREACCEPT
                } else {
                    KIND_ACCEPT
                };
                out.put_wire(&header(kind, attrs).flags(op_tag(&command.op)));
                out.put_wire(inst);
                out.put_wire(ballot);
                put_attrs(attrs, out);
                put_command_body(command, out);
            }
            EpaxosMsg::PreAcceptOk {
                inst,
                node,
                attrs,
                changed,
            } => {
                out.put_wire(&header(KIND_PREACCEPT_OK, attrs));
                out.put_wire(inst);
                out.put_u32(node.0);
                out.put_u8(*changed as u8);
                put_attrs(attrs, out);
            }
            EpaxosMsg::AcceptOk { inst, node } => {
                out.put_wire(&WireHeader::new(DOMAIN_EPAXOS, KIND_ACCEPT_OK));
                out.put_wire(inst);
                out.put_u32(node.0);
            }
            EpaxosMsg::Commit {
                inst,
                command,
                attrs,
            } => {
                out.put_wire(&header(KIND_COMMIT, attrs).flags(op_tag(&command.op)));
                out.put_wire(inst);
                put_attrs(attrs, out);
                put_command_body(command, out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let h = WireHeader::decode(r)?;
        match h.kind {
            KIND_PREACCEPT | KIND_ACCEPT => {
                let inst = InstanceId::decode(r)?;
                let ballot = Ballot::decode(r)?;
                let attrs = decode_attrs(h.aux0, r)?;
                let command = decode_command_body(h.flags, None, r)?;
                Ok(if h.kind == KIND_PREACCEPT {
                    EpaxosMsg::PreAccept {
                        inst,
                        ballot,
                        command,
                        attrs,
                    }
                } else {
                    EpaxosMsg::Accept {
                        inst,
                        ballot,
                        command,
                        attrs,
                    }
                })
            }
            KIND_PREACCEPT_OK => {
                let inst = InstanceId::decode(r)?;
                let node = NodeId(r.u32("preaccept_ok.node")?);
                let changed = r.u8("preaccept_ok.changed")? != 0;
                Ok(EpaxosMsg::PreAcceptOk {
                    inst,
                    node,
                    attrs: decode_attrs(h.aux0, r)?,
                    changed,
                })
            }
            KIND_ACCEPT_OK => Ok(EpaxosMsg::AcceptOk {
                inst: InstanceId::decode(r)?,
                node: NodeId(r.u32("accept_ok.node")?),
            }),
            KIND_COMMIT => {
                let inst = InstanceId::decode(r)?;
                let attrs = decode_attrs(h.aux0, r)?;
                let command = decode_command_body(h.flags, None, r)?;
                Ok(EpaxosMsg::Commit {
                    inst,
                    command,
                    attrs,
                })
            }
            other => Err(WireError::BadTag {
                what: "epaxos kind",
                got: other,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi::{Operation, RequestId, Value};

    fn inst(r: u32, s: u64) -> InstanceId {
        InstanceId {
            replica: NodeId(r),
            slot: s,
        }
    }

    #[test]
    fn attrs_merge_unions_deps_and_maxes_seq() {
        let mut a = Attrs {
            seq: 3,
            deps: vec![inst(0, 1)],
        };
        let b = Attrs {
            seq: 5,
            deps: vec![inst(0, 1), inst(1, 2)],
        };
        assert!(a.merge(&b));
        assert_eq!(a.seq, 5);
        assert_eq!(a.deps, vec![inst(0, 1), inst(1, 2)]);
        // Merging again changes nothing.
        assert!(!a.merge(&b));
    }

    #[test]
    fn attrs_merge_keeps_higher_seq() {
        let mut a = Attrs {
            seq: 9,
            deps: vec![],
        };
        let b = Attrs {
            seq: 2,
            deps: vec![],
        };
        assert!(!a.merge(&b));
        assert_eq!(a.seq, 9);
    }

    #[test]
    fn message_sizes_grow_with_deps() {
        let cmd = Command {
            id: RequestId {
                client: NodeId(9),
                seq: 1,
            },
            op: Operation::Put(1, Value::zeros(8)),
        };
        let small = EpaxosMsg::PreAccept {
            inst: inst(0, 0),
            ballot: Ballot::ZERO,
            command: cmd.clone(),
            attrs: Attrs::default(),
        };
        let big = EpaxosMsg::PreAccept {
            inst: inst(0, 0),
            ballot: Ballot::ZERO,
            command: cmd,
            attrs: Attrs {
                seq: 1,
                deps: (0..10).map(|i| inst(1, i)).collect(),
            },
        };
        assert_eq!(big.wire_size() - small.wire_size(), 120);
    }

    #[test]
    fn instance_ordering() {
        assert!(inst(0, 5) < inst(1, 0));
        assert!(inst(1, 0) < inst(1, 1));
        assert_eq!(format!("{}", inst(2, 7)), "n2.7");
    }
}
