//! Commands, client requests, and replies.
//!
//! Matches the Paxi benchmark's shape: an in-memory key-value store with
//! 64-bit keys and arbitrary-size values; clients issue `Get`/`Put`
//! operations; the protocol under test replicates them.

use bytes::Bytes;
use simnet::NodeId;
use std::fmt;

/// A key in the replicated store. The paper uses 1000 distinct 8-byte
/// keys, so a `u64` is a faithful representation.
pub type Key = u64;

/// An opaque value payload. Cheap to clone (refcounted).
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Value(pub Bytes);

impl Value {
    /// A value of `n` zero bytes (the benchmark only cares about size).
    pub fn zeros(n: usize) -> Self {
        Value(Bytes::from(vec![0u8; n]))
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Value[{}B]", self.0.len())
    }
}

impl From<&[u8]> for Value {
    fn from(b: &[u8]) -> Self {
        Value(Bytes::copy_from_slice(b))
    }
}

/// An operation against the key-value state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operation {
    /// Read a key.
    Get(Key),
    /// Write a key.
    Put(Key, Value),
    /// A no-op, used by recovery to fill log holes.
    Noop,
}

impl Operation {
    /// True for reads.
    pub fn is_read(&self) -> bool {
        matches!(self, Operation::Get(_))
    }

    /// The key touched, if any. Used for conflict detection (EPaxos).
    pub fn key(&self) -> Option<Key> {
        match self {
            Operation::Get(k) => Some(*k),
            Operation::Put(k, _) => Some(*k),
            Operation::Noop => None,
        }
    }

    /// Two operations conflict when they touch the same key and at least
    /// one writes (EPaxos interference relation).
    pub fn conflicts_with(&self, other: &Operation) -> bool {
        match (self.key(), other.key()) {
            (Some(a), Some(b)) if a == b => !(self.is_read() && other.is_read()),
            _ => false,
        }
    }
}

/// Globally unique id of a client request: `(client node, sequence)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId {
    /// The issuing client's node id.
    pub client: NodeId,
    /// Client-local sequence number, starting at 1.
    pub seq: u64,
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.client, self.seq)
    }
}

/// A command to replicate: a client request as it travels through the
/// consensus protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Command {
    /// Request identity (also the dedup key).
    pub id: RequestId,
    /// The operation to apply.
    pub op: Operation,
}

impl Command {
    /// A no-op command (log hole filler) attributed to a synthetic id.
    pub fn noop() -> Self {
        Command {
            id: RequestId {
                client: NodeId(u32::MAX),
                seq: 0,
            },
            op: Operation::Noop,
        }
    }

    /// True if this is a no-op filler.
    pub fn is_noop(&self) -> bool {
        matches!(self.op, Operation::Noop)
    }
}

/// A client-to-replica request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientRequest {
    /// The command to execute.
    pub command: Command,
}

/// A replica-to-client reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientReply {
    /// Which request this answers.
    pub id: RequestId,
    /// Result of a `Get` (None for `Put`/`Noop` or missing key).
    pub value: Option<Value>,
    /// False when the contacted replica redirects/refuses (e.g. not the
    /// leader); the client should retry.
    pub ok: bool,
    /// Hint: the node the client should talk to instead (if `!ok`).
    pub redirect: Option<NodeId>,
}

impl ClientReply {
    /// Successful reply.
    pub fn ok(id: RequestId, value: Option<Value>) -> Self {
        ClientReply {
            id,
            value,
            ok: true,
            redirect: None,
        }
    }

    /// Redirect reply pointing the client at `leader`.
    pub fn redirect(id: RequestId, leader: Option<NodeId>) -> Self {
        ClientReply {
            id,
            value: None,
            ok: false,
            redirect: leader,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::wire::WIRE_HEADER_BYTES;
    use simnet::Wire;

    #[test]
    fn value_helpers() {
        let v = Value::zeros(16);
        assert_eq!(v.len(), 16);
        assert!(!v.is_empty());
        assert!(Value::default().is_empty());
        assert_eq!(format!("{v:?}"), "Value[16B]");
    }

    #[test]
    fn operation_keys_and_reads() {
        assert!(Operation::Get(1).is_read());
        assert!(!Operation::Put(1, Value::zeros(1)).is_read());
        assert_eq!(Operation::Get(5).key(), Some(5));
        assert_eq!(Operation::Noop.key(), None);
    }

    #[test]
    fn payload_sizes() {
        // A command body: request id (12 B), key (8 B, none for a
        // no-op), then the value's bytes.
        let body = |op| {
            let cmd = Command {
                id: Command::noop().id,
                op,
            };
            simnet::wire::WireLen::of(|out| crate::wire::put_command_body(&cmd, out))
        };
        assert_eq!(body(Operation::Get(1)), 20);
        assert_eq!(body(Operation::Put(1, Value::zeros(100))), 120);
        assert_eq!(body(Operation::Noop), 12);
    }

    #[test]
    fn conflicts() {
        let r1 = Operation::Get(1);
        let w1 = Operation::Put(1, Value::zeros(1));
        let w2 = Operation::Put(2, Value::zeros(1));
        assert!(
            !r1.conflicts_with(&Operation::Get(1)),
            "read-read never conflicts"
        );
        assert!(r1.conflicts_with(&w1), "read-write same key conflicts");
        assert!(
            w1.conflicts_with(&w1.clone()),
            "write-write same key conflicts"
        );
        assert!(!w1.conflicts_with(&w2), "different keys never conflict");
        assert!(
            !Operation::Noop.conflicts_with(&w1),
            "noop conflicts with nothing"
        );
    }

    #[test]
    fn noop_command() {
        let c = Command::noop();
        assert!(c.is_noop());
        assert_eq!(c.op.key(), None);
    }

    #[test]
    fn request_reply_sizes_scale_with_value() {
        let id = RequestId {
            client: NodeId(9),
            seq: 1,
        };
        let req = ClientRequest {
            command: Command {
                id,
                op: Operation::Put(1, Value::zeros(1280)),
            },
        };
        assert_eq!(req.wire_len(), WIRE_HEADER_BYTES + 12 + 8 + 1280);
        let rep = ClientReply::ok(id, Some(Value::zeros(64)));
        assert_eq!(rep.wire_len(), WIRE_HEADER_BYTES + 12 + 64);
        let rep2 = ClientReply::ok(id, None);
        assert_eq!(rep2.wire_len(), WIRE_HEADER_BYTES + 12);
    }

    #[test]
    fn redirect_reply() {
        let id = RequestId {
            client: NodeId(1),
            seq: 2,
        };
        let r = ClientReply::redirect(id, Some(NodeId(0)));
        assert!(!r.ok);
        assert_eq!(r.redirect, Some(NodeId(0)));
    }

    #[test]
    fn request_id_display_and_order() {
        let a = RequestId {
            client: NodeId(1),
            seq: 1,
        };
        let b = RequestId {
            client: NodeId(1),
            seq: 2,
        };
        assert!(b > a);
        assert_eq!(format!("{a}"), "n1#1");
    }
}
