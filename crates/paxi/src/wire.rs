//! Wire codecs for the client domain and shared building blocks.
//!
//! This module implements [`simnet::Wire`] (see its docs for the framing
//! format) for everything paxi owns on the wire: [`Ballot`],
//! [`RequestId`], [`ClientRequest`], [`ClientReply`], and the
//! [`Envelope`] that multiplexes client traffic with protocol messages.
//! It also exports the command-body helpers protocol crates use to
//! embed [`Command`]s in their own messages, so the byte layout of a
//! command is identical wherever it appears.
//!
//! Every `wire_size()` here is its encoder counted ([`Wire::wire_len`]),
//! so the simulator's byte accounting is the socket substrate's byte
//! accounting. See `tests/wire_roundtrip.rs` for the roundtrip property
//! tests and `tests/wire_sizes.rs` for the recorded sizes.

use crate::ballot::Ballot;
use crate::command::{ClientReply, ClientRequest, Command, Operation, RequestId, Value};
use crate::envelope::{Envelope, ProtoMessage};
use simnet::wire::{WireLen, DOMAIN_CLIENT};
use simnet::{NodeId, Wire, WireError, WireHeader, WirePut, WireReader};

/// Envelope kind tag: [`Envelope::Request`].
pub const KIND_REQUEST: u8 = 0;
/// Envelope kind tag: [`Envelope::Reply`].
pub const KIND_REPLY: u8 = 1;
/// Envelope kind tag: [`Envelope::ReplyBatch`].
pub const KIND_REPLY_BATCH: u8 = 2;

/// Operation tag: `Get`.
pub const OP_GET: u8 = 0;
/// Operation tag: `Put`.
pub const OP_PUT: u8 = 1;
/// Operation tag: `Noop`.
pub const OP_NOOP: u8 = 2;

/// The 2-bit operation tag of an [`Operation`] (fits the packed
/// per-entry metadata fields protocol messages use).
pub fn op_tag(op: &Operation) -> u8 {
    match op {
        Operation::Get(_) => OP_GET,
        Operation::Put(..) => OP_PUT,
        Operation::Noop => OP_NOOP,
    }
}

/// The value-payload length of a command: the bytes its trailing/sized
/// value field occupies (`0` for `Get`/`Noop`).
pub fn command_value_len(cmd: &Command) -> usize {
    match &cmd.op {
        Operation::Put(_, v) => v.len(),
        _ => 0,
    }
}

/// Write a command body: request id (12 bytes), key (8 bytes, absent
/// for `Noop`), then the raw value bytes (`Put` only, no length — the
/// caller's metadata or the frame end delimits it).
pub fn put_command_body<W: WirePut>(cmd: &Command, out: &mut W) {
    out.put_wire(&cmd.id);
    match &cmd.op {
        Operation::Get(k) => out.put_u64(*k),
        Operation::Put(k, v) => {
            out.put_u64(*k);
            out.put_slice(&v.0);
        }
        Operation::Noop => {}
    }
}

/// Decode a command body written by [`put_command_body`]. `tag` is
/// the operation tag the caller carried; `value_len` is the value's
/// byte count for sized embeddings, or `None` for a trailing value
/// (consumes the rest of the frame). The value comes from
/// [`WireReader::read_value`] / [`WireReader::rest_value`]: a zero-copy
/// slice of the frame buffer when it is large enough to be worth keeping
/// that buffer alive for, a copy of its own otherwise.
pub fn decode_command_body(
    tag: u8,
    value_len: Option<usize>,
    r: &mut WireReader<'_>,
) -> Result<Command, WireError> {
    let id = RequestId::decode(r)?;
    let op = match tag {
        OP_GET => Operation::Get(r.u64("command.key")?),
        OP_PUT => {
            let key = r.u64("command.key")?;
            let bytes = match value_len {
                Some(n) => r.read_value(n, "command.value")?,
                None => r.rest_value(),
            };
            Operation::Put(key, Value(bytes))
        }
        OP_NOOP => Operation::Noop,
        other => {
            return Err(WireError::BadTag {
                what: "op",
                got: other,
            })
        }
    };
    Ok(Command { id, op })
}

impl Wire for Ballot {
    const KIND: &'static str = "Ballot";

    fn put<W: WirePut>(&self, out: &mut W) {
        out.put_u64(((self.round() as u64) << 32) | self.node().0 as u64);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let packed = r.u64("ballot")?;
        Ok(Ballot::new((packed >> 32) as u32, NodeId(packed as u32)))
    }
}

impl Wire for RequestId {
    const KIND: &'static str = "RequestId";

    fn put<W: WirePut>(&self, out: &mut W) {
        out.put_u32(self.client.0);
        out.put_u64(self.seq);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RequestId {
            client: NodeId(r.u32("id.client")?),
            seq: r.u64("id.seq")?,
        })
    }
}

impl Wire for ClientRequest {
    const KIND: &'static str = "ClientRequest";

    fn put<W: WirePut>(&self, out: &mut W) {
        out.put_wire(&WireHeader::new(DOMAIN_CLIENT, KIND_REQUEST).flags(op_tag(&self.command.op)));
        put_command_body(&self.command, out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let h = WireHeader::decode(r)?;
        Ok(ClientRequest {
            command: decode_command_body(h.flags, None, r)?,
        })
    }
}

/// [`ClientReply`] flag bits (single-reply header).
const REPLY_OK: u8 = 1 << 0;
const REPLY_VALUE: u8 = 1 << 1;
const REPLY_REDIRECT: u8 = 1 << 2;

impl Wire for ClientReply {
    const KIND: &'static str = "ClientReply";

    fn put<W: WirePut>(&self, out: &mut W) {
        let mut flags = 0u8;
        if self.ok {
            flags |= REPLY_OK;
        }
        if self.value.is_some() {
            flags |= REPLY_VALUE;
        }
        if self.redirect.is_some() {
            flags |= REPLY_REDIRECT;
        }
        let header = WireHeader::new(DOMAIN_CLIENT, KIND_REPLY)
            .flags(flags)
            .aux0(self.redirect.map_or(0, |n| n.0));
        out.put_wire(&header);
        out.put_wire(&self.id);
        if let Some(v) = &self.value {
            out.put_slice(&v.0);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let h = WireHeader::decode(r)?;
        let id = RequestId::decode(r)?;
        let value = if h.flags & REPLY_VALUE != 0 {
            Some(Value(r.rest_value()))
        } else {
            None
        };
        Ok(ClientReply {
            id,
            value,
            ok: h.flags & REPLY_OK != 0,
            redirect: if h.flags & REPLY_REDIRECT != 0 {
                Some(NodeId(h.aux0))
            } else {
                None
            },
        })
    }
}

/// Per-reply metadata word inside a [`Envelope::ReplyBatch`]: the 2
/// extra bytes the batch `wire_size()` charges per coalesced reply.
/// Bit 15 = value present, bit 14 = ok, bit 13 = redirect present; the
/// low 13 bits hold the value length (value replies, max 8191 bytes)
/// or the redirect node id (redirect replies — which never carry a
/// value, so the field is free).
const BMETA_VALUE: u16 = 1 << 15;
const BMETA_OK: u16 = 1 << 14;
const BMETA_REDIRECT: u16 = 1 << 13;
const BMETA_PAYLOAD: u16 = (1 << 13) - 1;

/// Whether `reply`'s value length or redirect id fits the 13-bit field
/// of a batched reply; one that does not must travel as its own
/// [`Envelope::Reply`].
pub(crate) fn fits_reply_batch(reply: &ClientReply) -> bool {
    let len = reply.value.as_ref().map_or(0, |v| v.len());
    let redirect = reply.redirect.map_or(0, |n| n.0);
    len <= BMETA_PAYLOAD as usize && redirect <= BMETA_PAYLOAD as u32
}

fn put_batched_reply<W: WirePut>(reply: &ClientReply, out: &mut W) {
    let mut meta = 0u16;
    if reply.ok {
        meta |= BMETA_OK;
    }
    match (&reply.value, reply.redirect) {
        (Some(v), None) => {
            assert!(
                v.len() <= BMETA_PAYLOAD as usize,
                "batched reply value of {}B overflows the 13-bit length field",
                v.len()
            );
            meta |= BMETA_VALUE | v.len() as u16;
        }
        (None, Some(n)) => {
            assert!(
                n.0 <= BMETA_PAYLOAD as u32,
                "redirect node id {} overflows the 13-bit field",
                n.0
            );
            meta |= BMETA_REDIRECT | n.0 as u16;
        }
        (None, None) => {}
        (Some(_), Some(_)) => {
            unreachable!("a reply never carries both a value and a redirect")
        }
    }
    out.put_u16(meta);
    out.put_wire(&reply.id);
    if let Some(v) = &reply.value {
        out.put_slice(&v.0);
    }
}

/// A [`Envelope::ReplyBatch`]: one shared header, then each reply with a
/// 2-byte metadata word in place of its own header.
fn put_reply_batch<W: WirePut>(replies: &[ClientReply], out: &mut W) {
    out.put_wire(&WireHeader::new(DOMAIN_CLIENT, KIND_REPLY_BATCH).aux0(replies.len() as u32));
    for reply in replies {
        put_batched_reply(reply, out);
    }
}

/// The encoded length of a [`Envelope::ReplyBatch`] of `replies`.
pub(crate) fn reply_batch_len(replies: &[ClientReply]) -> usize {
    WireLen::of(|len| put_reply_batch(replies, len))
}

fn decode_batched_reply(r: &mut WireReader<'_>) -> Result<ClientReply, WireError> {
    let meta = r.u16("reply_batch.meta")?;
    let id = RequestId::decode(r)?;
    let payload = (meta & BMETA_PAYLOAD) as usize;
    let value = if meta & BMETA_VALUE != 0 {
        Some(Value(r.read_value(payload, "reply_batch.value")?))
    } else {
        None
    };
    Ok(ClientReply {
        id,
        value,
        ok: meta & BMETA_OK != 0,
        redirect: if meta & BMETA_REDIRECT != 0 {
            Some(NodeId(payload as u32))
        } else {
            None
        },
    })
}

impl<P: ProtoMessage + Wire> Wire for Envelope<P> {
    const KIND: &'static str = "Envelope";

    fn put<W: WirePut>(&self, out: &mut W) {
        match self {
            Envelope::Request(req) => out.put_wire(req),
            Envelope::Reply(rep) => out.put_wire(rep),
            Envelope::ReplyBatch(reps) => put_reply_batch(reps, out),
            Envelope::Shard(never) => match *never {},
            Envelope::Proto(p) => out.put_wire(p),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // Byte 1 of the header is the domain; protocol messages carry
        // their own full header, so dispatch without consuming.
        if r.peek(1)? != DOMAIN_CLIENT {
            return Ok(Envelope::Proto(P::decode(r)?));
        }
        match r.peek(2)? {
            KIND_REQUEST => Ok(Envelope::Request(ClientRequest::decode(r)?)),
            KIND_REPLY => Ok(Envelope::Reply(ClientReply::decode(r)?)),
            KIND_REPLY_BATCH => {
                let h = WireHeader::decode(r)?;
                // 12 request id + 2 meta per batched reply.
                let mut reps = Vec::with_capacity(r.capacity_for(h.aux0 as usize, 14));
                for _ in 0..h.aux0 {
                    reps.push(decode_batched_reply(r)?);
                }
                Ok(Envelope::ReplyBatch(reps))
            }
            other => Err(WireError::BadTag {
                what: "envelope kind",
                got: other,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Bytes, Message};

    fn rid(client: u32, seq: u64) -> RequestId {
        RequestId {
            client: NodeId(client),
            seq,
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Nul;
    impl ProtoMessage for Nul {
        fn wire_size(&self) -> usize {
            self.wire_len()
        }
    }
    impl Wire for Nul {
        fn put<W: WirePut>(&self, out: &mut W) {
            out.put_wire(&WireHeader::new(9, 0));
        }
        fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
            WireHeader::decode(r)?;
            Ok(Nul)
        }
    }

    fn roundtrip(env: &Envelope<Nul>) {
        let bytes = env.encode();
        assert_eq!(bytes.len(), env.wire_size(), "encoded len == wire_size");
        let frame = Bytes::from(bytes);
        assert_eq!(&Envelope::<Nul>::decode_frame(&frame).unwrap(), env);
    }

    #[test]
    fn request_roundtrip_all_ops() {
        for op in [
            Operation::Get(7),
            Operation::Put(9, Value::zeros(100)),
            Operation::Put(9, Value::zeros(0)),
            Operation::Noop,
        ] {
            roundtrip(&Envelope::Request(ClientRequest {
                command: Command { id: rid(3, 11), op },
            }));
        }
    }

    #[test]
    fn reply_roundtrip_variants() {
        roundtrip(&Envelope::Reply(ClientReply::ok(rid(1, 2), None)));
        roundtrip(&Envelope::Reply(ClientReply::ok(
            rid(1, 2),
            Some(Value::zeros(64)),
        )));
        roundtrip(&Envelope::Reply(ClientReply::ok(
            rid(1, 2),
            Some(Value::zeros(0)),
        )));
        roundtrip(&Envelope::Reply(ClientReply::redirect(
            rid(1, 2),
            Some(NodeId(4)),
        )));
        roundtrip(&Envelope::Reply(ClientReply::redirect(rid(1, 2), None)));
    }

    #[test]
    fn reply_batch_roundtrip() {
        roundtrip(&Envelope::ReplyBatch(vec![]));
        roundtrip(&Envelope::ReplyBatch(vec![
            ClientReply::ok(rid(1, 2), Some(Value::zeros(33))),
            ClientReply::ok(rid(1, 3), None),
            ClientReply::redirect(rid(2, 9), Some(NodeId(0))),
            ClientReply::redirect(rid(2, 10), None),
        ]));
    }

    #[test]
    fn proto_dispatches_on_domain() {
        roundtrip(&Envelope::Proto(Nul));
    }

    #[test]
    fn ballot_roundtrip() {
        for b in [
            Ballot::ZERO,
            Ballot::new(7, NodeId(3)),
            Ballot::new(u32::MAX, NodeId(u32::MAX)),
        ] {
            let frame = Bytes::from(b.encode());
            let mut r = WireReader::new(&frame);
            assert_eq!(Ballot::decode(&mut r).unwrap(), b);
        }
    }

    #[test]
    fn bad_tags_rejected() {
        let mut bytes = Envelope::<Nul>::Reply(ClientReply::ok(rid(1, 1), None)).encode();
        bytes[2] = 77; // corrupt the kind tag
        assert!(matches!(
            Envelope::<Nul>::decode_frame(&Bytes::from(bytes)),
            Err(WireError::BadTag { .. })
        ));
    }
}
