//! The wire envelope shared by all protocols.
//!
//! Clients speak only [`ClientRequest`]/[`ClientReply`]; each protocol
//! defines its own internal message type implementing [`ProtoMessage`].
//! [`Envelope`] unifies the two so a single simulated network carries
//! both, and so clients are protocol-agnostic.

use crate::command::{ClientReply, ClientRequest};
use simnet::{Message, Wire};
use std::convert::Infallible;

/// A protocol-internal message (phase-1a/1b/2a/2b, relays, etc.).
pub trait ProtoMessage: Clone + std::fmt::Debug + 'static {
    /// Serialized size in bytes: [`Wire::wire_len`] for a type with a
    /// wire encoding.
    fn wire_size(&self) -> usize;
    /// Short label for traces.
    fn label(&self) -> &'static str {
        "proto"
    }
}

/// Everything that can travel over the simulated network.
#[derive(Debug, Clone, PartialEq)]
pub enum Envelope<P> {
    /// Client → replica.
    Request(ClientRequest),
    /// Replica → client.
    Reply(ClientReply),
    /// Replica → client: several coalesced replies in one envelope (the
    /// reply-side counterpart of `P2aBatch`; see `paxi::batch`). All
    /// replies target the destination client, which unpacks them in
    /// order.
    ReplyBatch(Vec<ClientReply>),
    /// Has no value and is never sent or decoded. It lives only until
    /// the benchmark crate, which still names it in a match, drops that
    /// arm; then the variant goes too.
    Shard(Infallible),
    /// Replica → replica (protocol internal).
    Proto(P),
}

/// Client traffic is sized by its encoder; a protocol message
/// by its own `wire_size`, so a protocol needs no [`Wire`] encoding to
/// run on the simulator.
impl<P: ProtoMessage> Message for Envelope<P> {
    fn wire_size(&self) -> usize {
        match self {
            Envelope::Request(r) => r.wire_len(),
            Envelope::Reply(r) => r.wire_len(),
            Envelope::ReplyBatch(rs) => crate::wire::reply_batch_len(rs),
            Envelope::Shard(never) => match *never {},
            Envelope::Proto(p) => p.wire_size(),
        }
    }

    fn label(&self) -> &'static str {
        match self {
            Envelope::Request(_) => "request",
            Envelope::Reply(_) => "reply",
            Envelope::ReplyBatch(_) => "reply_batch",
            Envelope::Shard(never) => match *never {},
            Envelope::Proto(p) => p.label(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{Command, Operation, RequestId, Value};
    use simnet::wire::WIRE_HEADER_BYTES;
    use simnet::NodeId;

    #[derive(Debug, Clone)]
    struct P2a;
    impl ProtoMessage for P2a {
        fn wire_size(&self) -> usize {
            100
        }
        fn label(&self) -> &'static str {
            "p2a"
        }
    }

    #[test]
    fn envelope_delegates_size_and_label() {
        let id = RequestId {
            client: NodeId(1),
            seq: 1,
        };
        let req: Envelope<P2a> = Envelope::Request(ClientRequest {
            command: Command {
                id,
                op: Operation::Put(1, Value::zeros(8)),
            },
        });
        assert_eq!(req.wire_size(), WIRE_HEADER_BYTES + 12 + 16);
        assert_eq!(req.label(), "request");

        let rep: Envelope<P2a> = Envelope::Reply(ClientReply::ok(id, None));
        assert_eq!(rep.label(), "reply");

        let batch: Envelope<P2a> =
            Envelope::ReplyBatch(vec![ClientReply::ok(id, None), ClientReply::ok(id, None)]);
        assert_eq!(batch.label(), "reply_batch");
        // Two coalesced replies must beat two framed singles.
        assert!(batch.wire_size() < 2 * rep.wire_size());

        let proto: Envelope<P2a> = Envelope::Proto(P2a);
        assert_eq!(proto.wire_size(), 100);
        assert_eq!(proto.label(), "p2a");
    }
}
