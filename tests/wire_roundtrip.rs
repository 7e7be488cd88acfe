//! Property tests for the wire schema: for every message type of every
//! protocol, `encode` → `decode` reproduces the original value, and the
//! encoded length equals `wire_size()` — the size the simulator's CPU
//! cost model charges, which is the same encoder counted
//! (`tests/wire_sizes.rs` pins what those sizes are).
//!
//! A second family of properties drives the decoders with *hostile*
//! frames — truncated at arbitrary byte offsets, or with arbitrary
//! byte corruption — and requires a clean [`WireError`] (never a
//! panic), since the TCP substrate feeds decoders whatever the socket
//! produced.
//!
//! Strategies stay inside each field's packing caps on purpose — the
//! encoders assert them (`u48` slots, 14-bit entry values, 13-bit
//! batched-reply values, 15-bit vote slot deltas) — and the boundary
//! unit tests at the bottom pin the caps themselves.

use epaxos::{Attrs, EpaxosMsg, InstanceId};
use paxi::{
    Ballot, ClientReply, ClientRequest, Command, Envelope, KvStore, Operation, ProtoMessage,
    RequestId, SessionTable, Snapshot, Value,
};
use paxos::{P1bVote, P2bVote, PaxosMsg, QrProbe, QrProbeVote, QrVoteEntry};
use pigpaxos::{PigMsg, RelayPlan};
use proptest::prelude::*;
use simnet::{Bytes, Message, NodeId, Wire};

/// Encode, check the length against the declared size, decode, compare.
fn check<M: Wire + PartialEq + std::fmt::Debug>(msg: &M, declared: usize) {
    let bytes = msg.encode();
    assert_eq!(
        bytes.len(),
        declared,
        "wire_size() must equal encoded length for {msg:?}"
    );
    let frame = Bytes::from(bytes);
    let back = M::decode_frame(&frame).expect("decode what we encoded");
    assert_eq!(&back, msg, "decode(encode(msg)) must reproduce msg");
}

/// Decode the frame cut at byte `cut`: either a clean [`WireError`] or
/// — for the messages whose last field is delimited by the frame end —
/// an `Ok` that is a faithful parse of exactly the truncated bytes.
/// Never a panic.
fn check_truncated<M: Wire + std::fmt::Debug>(msg: &M, cut: usize) {
    let bytes = msg.encode();
    let cut = cut % bytes.len().max(1);
    let frame = Bytes::from(bytes[..cut].to_vec());
    if let Ok(m) = M::decode_frame(&frame) {
        assert_eq!(
            m.encode().as_slice(),
            &frame[..],
            "an Ok parse of a truncated frame must re-encode to it"
        );
    }
}

/// Decode the frame with byte `pos` xored by `flip`: any `Ok` or
/// `Err(WireError)` is acceptable, a panic is not.
fn check_corrupted<M: Wire + std::fmt::Debug>(msg: &M, pos: usize, flip: u8) {
    let mut bytes = msg.encode();
    if bytes.is_empty() {
        return;
    }
    let pos = pos % bytes.len();
    bytes[pos] ^= flip;
    let _ = M::decode_frame(&Bytes::from(bytes));
}

// ---- shared strategies ---------------------------------------------------

/// Arbitrary-content values up to `max` bytes.
fn value(max: usize) -> impl Strategy<Value = Value> {
    proptest::collection::vec(any::<u8>(), 0..=max).prop_map(|v| Value::from(&v[..]))
}

fn rid() -> impl Strategy<Value = RequestId> {
    (any::<u32>(), any::<u64>()).prop_map(|(c, s)| RequestId {
        client: NodeId(c),
        seq: s,
    })
}

fn operation(max: usize) -> impl Strategy<Value = Operation> {
    prop_oneof![
        any::<u64>().prop_map(Operation::Get),
        (any::<u64>(), value(max)).prop_map(|(k, v)| Operation::Put(k, v)),
        Just(Operation::Noop),
    ]
}

fn command(max: usize) -> impl Strategy<Value = Command> {
    (rid(), operation(max)).prop_map(|(id, op)| Command { id, op })
}

fn ballot() -> impl Strategy<Value = Ballot> {
    (any::<u32>(), any::<u32>()).prop_map(|(r, n)| Ballot::new(r, NodeId(n)))
}

/// Slots travel as u48 in repeated log entries.
fn slot48() -> impl Strategy<Value = u64> {
    0u64..(1u64 << 48)
}

/// Replies valid in any position, including the 13-bit packed metas of
/// `ReplyBatch` and `SessionTable` (value len and redirect id < 8192).
fn client_reply(max_value: usize) -> impl Strategy<Value = ClientReply> {
    prop_oneof![
        (rid(), proptest::option::of(value(max_value))).prop_map(|(id, v)| ClientReply::ok(id, v)),
        (rid(), proptest::option::of(0u32..8192))
            .prop_map(|(id, n)| ClientReply::redirect(id, n.map(NodeId))),
    ]
}

fn kv_store() -> impl Strategy<Value = KvStore> {
    proptest::collection::vec((any::<u64>(), value(64)), 0..4).prop_map(|puts| {
        let mut kv = KvStore::new();
        for (k, v) in puts {
            kv.apply(&Operation::Put(k, v));
        }
        kv
    })
}

fn session_table() -> impl Strategy<Value = SessionTable> {
    (1usize..4, proptest::collection::vec(client_reply(64), 0..6)).prop_map(|(w, replies)| {
        let mut t = SessionTable::with_window(w);
        for r in &replies {
            t.record(r);
        }
        t
    })
}

fn snapshot() -> impl Strategy<Value = Snapshot> {
    (
        any::<u64>(),
        kv_store(),
        proptest::collection::vec((any::<u64>(), any::<u64>()), 0..4),
        session_table(),
    )
        .prop_map(|(up_to, kv, last_write_slots, sessions)| Snapshot {
            up_to,
            kv,
            last_write_slots,
            sessions,
        })
}

// ---- paxos ---------------------------------------------------------------

/// Accepted-entry commands ride a 14-bit value-length meta.
const ENTRY_VALUE_MAX: usize = 300;

fn p1b_vote() -> impl Strategy<Value = P1bVote> {
    (
        any::<u32>(),
        ballot(),
        any::<bool>(),
        proptest::collection::vec((slot48(), ballot(), command(ENTRY_VALUE_MAX)), 0..4),
        proptest::option::of(snapshot()),
    )
        .prop_map(|(n, b, ok, accepted, snap)| P1bVote {
            node: NodeId(n),
            ballot: b,
            ok,
            accepted,
            snapshot: snap.map(Box::new),
        })
}

/// P2b votes answer slots within a 15-bit delta of the message base.
fn p2b_votes(base: u64) -> impl Strategy<Value = Vec<P2bVote>> {
    proptest::collection::vec(
        (any::<u32>(), ballot(), 0u64..(1 << 15), any::<bool>()),
        0..5,
    )
    .prop_map(move |vs| {
        vs.into_iter()
            .map(|(n, b, delta, ok)| P2bVote {
                node: NodeId(n),
                ballot: b,
                slot: base + delta,
                ok,
            })
            .collect()
    })
}

fn qr_entry() -> impl Strategy<Value = QrVoteEntry> {
    (
        any::<u32>(),
        slot48(),
        proptest::option::of(value(ENTRY_VALUE_MAX)),
        any::<bool>(),
    )
        .prop_map(|(n, vs, v, p)| QrVoteEntry {
            node: NodeId(n),
            value_slot: vs,
            value: v,
            pending_write: p,
        })
}

fn qr_probe() -> impl Strategy<Value = QrProbe> {
    (any::<u64>(), any::<u32>(), any::<u64>()).prop_map(|(id, attempt, key)| QrProbe {
        id,
        attempt,
        key,
    })
}

fn qr_probe_vote() -> impl Strategy<Value = QrProbeVote> {
    (any::<u64>(), any::<u32>(), qr_entry()).prop_map(|(id, attempt, entry)| QrProbeVote {
        id,
        attempt,
        entry,
    })
}

fn learn_entries() -> impl Strategy<Value = Vec<(u64, Command)>> {
    proptest::collection::vec((slot48(), command(ENTRY_VALUE_MAX)), 0..4)
}

fn paxos_msg() -> impl Strategy<Value = PaxosMsg> {
    let base = || 0u64..(1u64 << 47);
    prop_oneof![
        (ballot(), any::<u64>()).prop_map(|(ballot, from)| PaxosMsg::P1a { ballot, from }),
        (ballot(), proptest::collection::vec(p1b_vote(), 0..3))
            .prop_map(|(ballot, votes)| PaxosMsg::P1b { ballot, votes }),
        (ballot(), any::<u64>(), command(600), any::<u64>()).prop_map(
            |(ballot, slot, command, commit_up_to)| PaxosMsg::P2a {
                ballot,
                slot,
                command,
                commit_up_to,
            }
        ),
        (ballot(), base()).prop_flat_map(|(ballot, slot)| {
            p2b_votes(slot).prop_map(move |votes| PaxosMsg::P2b {
                ballot,
                slot,
                votes,
            })
        }),
        (
            ballot(),
            any::<u64>(),
            proptest::collection::vec(command(600), 0..4),
            any::<u64>(),
        )
            .prop_map(|(ballot, first_slot, commands, commit_up_to)| {
                PaxosMsg::P2aBatch {
                    ballot,
                    first_slot,
                    commands: commands.into(),
                    commit_up_to,
                }
            }),
        (ballot(), base(), 0u64..(1 << 15)).prop_flat_map(|(ballot, first_slot, span)| {
            p2b_votes(first_slot).prop_map(move |votes| PaxosMsg::P2bBatch {
                ballot,
                first_slot,
                last_slot: first_slot + span,
                votes,
            })
        }),
        (ballot(), any::<u64>()).prop_map(|(ballot, commit_up_to)| PaxosMsg::Heartbeat {
            ballot,
            commit_up_to
        }),
        proptest::collection::vec(any::<u64>(), 0..6)
            .prop_map(|slots| PaxosMsg::LearnReq { slots }),
        (ballot(), learn_entries())
            .prop_map(|(ballot, entries)| PaxosMsg::LearnRep { ballot, entries }),
        (ballot(), snapshot(), learn_entries()).prop_map(|(ballot, snapshot, entries)| {
            PaxosMsg::SnapshotTransfer {
                ballot,
                snapshot: Box::new(snapshot),
                entries,
            }
        }),
        (
            any::<u32>(),
            any::<u64>(),
            proptest::collection::vec(qr_probe(), 0..5),
        )
            .prop_map(|(reader, wave, probes)| PaxosMsg::QrReadBatch {
                reader: NodeId(reader),
                wave,
                probes,
            }),
        (
            any::<u32>(),
            any::<u64>(),
            proptest::collection::vec(qr_probe_vote(), 0..4),
        )
            .prop_map(|(reader, wave, votes)| PaxosMsg::QrVoteBatch {
                reader: NodeId(reader),
                wave,
                votes,
            }),
    ]
}

// ---- pigpaxos ------------------------------------------------------------

/// Leaf plan: peers only, no sub-relays.
fn flat_plan() -> impl Strategy<Value = RelayPlan> {
    proptest::collection::vec(any::<u32>(), 0..5)
        .prop_map(|ps| RelayPlan::flat(ps.into_iter().map(NodeId).collect()))
}

/// Two-level plans: direct peers plus sub-relays that each carry a flat
/// plan — enough depth to exercise the recursive encoding.
fn relay_plan() -> impl Strategy<Value = RelayPlan> {
    (
        proptest::collection::vec(any::<u32>(), 0..4),
        proptest::collection::vec((any::<u32>(), flat_plan()), 0..3),
    )
        .prop_map(|(peers, sub)| RelayPlan {
            peers: peers.into_iter().map(NodeId).collect(),
            sub: sub.into_iter().map(|(n, p)| (NodeId(n), p)).collect(),
        })
}

fn pig_msg() -> impl Strategy<Value = PigMsg> {
    prop_oneof![
        paxos_msg().prop_map(PigMsg::Direct),
        (any::<u32>(), relay_plan(), paxos_msg(), 0usize..64).prop_map(
            |(reply_to, plan, inner, threshold)| PigMsg::ToRelay {
                reply_to: NodeId(reply_to),
                plan,
                inner,
                threshold,
            }
        ),
    ]
}

// ---- epaxos --------------------------------------------------------------

fn attrs() -> impl Strategy<Value = Attrs> {
    (
        any::<u64>(),
        proptest::collection::vec((any::<u32>(), any::<u64>()), 0..5),
    )
        .prop_map(|(seq, deps)| Attrs {
            seq,
            deps: deps
                .into_iter()
                .map(|(r, s)| InstanceId {
                    replica: NodeId(r),
                    slot: s,
                })
                .collect(),
        })
}

fn instance() -> impl Strategy<Value = InstanceId> {
    (any::<u32>(), any::<u64>()).prop_map(|(r, s)| InstanceId {
        replica: NodeId(r),
        slot: s,
    })
}

fn epaxos_msg() -> impl Strategy<Value = EpaxosMsg> {
    prop_oneof![
        (instance(), ballot(), command(600), attrs()).prop_map(|(inst, ballot, command, attrs)| {
            EpaxosMsg::PreAccept {
                inst,
                ballot,
                command,
                attrs,
            }
        }),
        (instance(), any::<u32>(), attrs(), any::<bool>()).prop_map(
            |(inst, node, attrs, changed)| EpaxosMsg::PreAcceptOk {
                inst,
                node: NodeId(node),
                attrs,
                changed,
            }
        ),
        (instance(), ballot(), command(600), attrs()).prop_map(|(inst, ballot, command, attrs)| {
            EpaxosMsg::Accept {
                inst,
                ballot,
                command,
                attrs,
            }
        }),
        (instance(), any::<u32>()).prop_map(|(inst, node)| EpaxosMsg::AcceptOk {
            inst,
            node: NodeId(node),
        }),
        (instance(), command(600), attrs()).prop_map(|(inst, command, attrs)| {
            EpaxosMsg::Commit {
                inst,
                command,
                attrs,
            }
        }),
    ]
}

// ---- the properties ------------------------------------------------------

proptest! {
    #[test]
    fn paxos_messages_roundtrip_at_declared_size(msg in paxos_msg()) {
        check(&msg, msg.wire_size());
    }

    #[test]
    fn pigpaxos_messages_roundtrip_at_declared_size(msg in pig_msg()) {
        check(&msg, msg.wire_size());
    }

    #[test]
    fn epaxos_messages_roundtrip_at_declared_size(msg in epaxos_msg()) {
        check(&msg, msg.wire_size());
    }

    #[test]
    fn client_envelopes_roundtrip_at_declared_size(
        env in prop_oneof![
            command(600).prop_map(|command| Envelope::<PaxosMsg>::Request(ClientRequest { command })),
            client_reply(600).prop_map(Envelope::<PaxosMsg>::Reply),
            proptest::collection::vec(client_reply(600), 0..5)
                .prop_map(Envelope::<PaxosMsg>::ReplyBatch),
            paxos_msg().prop_map(Envelope::<PaxosMsg>::Proto),
        ]
    ) {
        check(&env, Message::wire_size(&env));
    }

    #[test]
    fn snapshots_roundtrip_at_declared_size(snap in snapshot()) {
        check(&snap, snap.wire_len());
    }

    #[test]
    fn truncated_paxos_frames_reject_cleanly(msg in paxos_msg(), cut in any::<usize>()) {
        check_truncated(&msg, cut);
    }

    #[test]
    fn truncated_pigpaxos_frames_reject_cleanly(msg in pig_msg(), cut in any::<usize>()) {
        check_truncated(&msg, cut);
    }

    #[test]
    fn truncated_epaxos_frames_reject_cleanly(msg in epaxos_msg(), cut in any::<usize>()) {
        check_truncated(&msg, cut);
    }

    #[test]
    fn truncated_client_envelopes_reject_cleanly(
        env in prop_oneof![
            command(600).prop_map(|command| Envelope::<PaxosMsg>::Request(ClientRequest { command })),
            client_reply(600).prop_map(Envelope::<PaxosMsg>::Reply),
            proptest::collection::vec(client_reply(600), 0..5)
                .prop_map(Envelope::<PaxosMsg>::ReplyBatch),
            paxos_msg().prop_map(Envelope::<PaxosMsg>::Proto),
        ],
        cut in any::<usize>(),
    ) {
        check_truncated(&env, cut);
    }

    #[test]
    fn truncated_snapshots_reject_cleanly(snap in snapshot(), cut in any::<usize>()) {
        check_truncated(&snap, cut);
    }

    #[test]
    fn corrupted_paxos_frames_never_panic(
        msg in paxos_msg(), pos in any::<usize>(), flip in 1u8..=255,
    ) {
        check_corrupted(&msg, pos, flip);
    }

    #[test]
    fn corrupted_pigpaxos_frames_never_panic(
        msg in pig_msg(), pos in any::<usize>(), flip in 1u8..=255,
    ) {
        check_corrupted(&msg, pos, flip);
    }

    #[test]
    fn corrupted_epaxos_frames_never_panic(
        msg in epaxos_msg(), pos in any::<usize>(), flip in 1u8..=255,
    ) {
        check_corrupted(&msg, pos, flip);
    }

    #[test]
    fn corrupted_snapshots_never_panic(
        snap in snapshot(), pos in any::<usize>(), flip in 1u8..=255,
    ) {
        check_corrupted(&snap, pos, flip);
    }
}

// ---- boundary cases the strategies stay clear of -------------------------

fn put(len: usize) -> Command {
    Command {
        id: RequestId {
            client: NodeId(1),
            seq: 1,
        },
        op: Operation::Put(9, Value::zeros(len)),
    }
}

/// A promise reporting ≥255 accepted entries escapes the u8 count to an
/// extra u32 — and `wire_size()` accounts for those 4 bytes.
#[test]
fn p1b_with_255_plus_accepted_entries_uses_the_count_escape() {
    for n in [254usize, 255, 300] {
        let vote = P1bVote {
            node: NodeId(2),
            ballot: Ballot::new(3, NodeId(2)),
            ok: true,
            accepted: (0..n as u64)
                .map(|s| (s, Ballot::new(1, NodeId(0)), put(0)))
                .collect(),
            snapshot: None,
        };
        let msg = PaxosMsg::P1b {
            ballot: Ballot::new(3, NodeId(2)),
            votes: vec![vote],
        };
        check(&msg, msg.wire_size());
    }
}

/// Entry metas pack the value length into 14 bits; the cap itself must
/// survive a round trip.
#[test]
fn learn_entry_value_at_the_14_bit_cap() {
    let msg = PaxosMsg::LearnRep {
        ballot: Ballot::new(1, NodeId(0)),
        entries: vec![(7, put(16383))],
    };
    check(&msg, msg.wire_size());
}

/// Batched-reply metas pack the value length into 13 bits.
#[test]
fn reply_batch_value_at_the_13_bit_cap() {
    let env: Envelope<PaxosMsg> = Envelope::ReplyBatch(vec![
        ClientReply::ok(
            RequestId {
                client: NodeId(4),
                seq: 9,
            },
            Some(Value::zeros(8191)),
        ),
        ClientReply::redirect(
            RequestId {
                client: NodeId(4),
                seq: 10,
            },
            Some(NodeId(8191)),
        ),
    ]);
    check(&env, Message::wire_size(&env));
}

/// P2b votes pack `slot - base` into 15 bits alongside the ok bit.
#[test]
fn p2b_vote_slot_delta_at_the_15_bit_cap() {
    let base = 1u64 << 40;
    let msg = PaxosMsg::P2bBatch {
        ballot: Ballot::new(2, NodeId(1)),
        first_slot: base,
        last_slot: base + 32767,
        votes: vec![P2bVote {
            node: NodeId(3),
            ballot: Ballot::new(2, NodeId(1)),
            slot: base + 32767,
            ok: false,
        }],
    };
    check(&msg, msg.wire_size());
}

/// A vote's slot is the message's base slot plus its 15-bit delta, and
/// both come off the wire: a base of `u64::MAX` with a nonzero delta
/// names no slot, in either vote-carrying form, and must be refused.
#[test]
fn p2b_vote_slot_past_u64_max_is_refused() {
    let ballot = Ballot::new(2, NodeId(1));
    let vote = P2bVote {
        node: NodeId(3),
        ballot,
        slot: u64::MAX,
        ok: true,
    };
    let forms = [
        PaxosMsg::P2b {
            ballot,
            slot: u64::MAX,
            votes: vec![vote],
        },
        PaxosMsg::P2bBatch {
            ballot,
            first_slot: u64::MAX,
            last_slot: u64::MAX,
            votes: vec![vote],
        },
    ];
    for msg in forms {
        let mut bytes = msg.encode();
        // The vote's packed `(ok, delta)` u16 ends the frame: keep the
        // ok bit, make the delta 5.
        let n = bytes.len();
        bytes[n - 2] = 5;
        bytes[n - 1] &= 0x80;
        let decoded = PaxosMsg::decode_frame(&Bytes::from(bytes));
        assert!(decoded.is_err(), "{msg:?} tampered decoded as {decoded:?}");
    }
}

/// Domain 4 once carried key-range control messages. A peer still
/// speaking that schema must get a clean rejection from every
/// protocol's envelope, never a value. The frame is the older encoding
/// of a range-move acknowledgement for version 2.
#[test]
fn the_retired_domain_is_rejected_by_every_protocol() {
    #[rustfmt::skip]
    const FRAME: [u8; 32] = [
        1, 4, 2, 0, 0, 0, 0, 0, // version 1, domain 4, kind 2, flags, aux0
        0, 0, 0, 0, 0, 0, 0, 0, // aux1
        0, 0, 0, 0, 0, 0, 0, 0, // aux2
        2, 0, 0, 0, 0, 0, 0, 0, // the acknowledged version
    ];
    let frame = Bytes::from(FRAME.to_vec());
    Envelope::<PaxosMsg>::decode_frame(&frame).unwrap_err();
    Envelope::<PigMsg>::decode_frame(&frame).unwrap_err();
    Envelope::<EpaxosMsg>::decode_frame(&frame).unwrap_err();
}
