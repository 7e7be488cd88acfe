//! The size table: the exact `wire_size()` of one instance of every
//! message variant, recorded. The simulator charges CPU and classifies
//! WAN traffic by these numbers, so every simulated result depends on
//! them; a change to any encoder that moves a size fails here by name,
//! before it moves a golden. Each size is also checked against the
//! encoding's length.

use epaxos::{Attrs, EpaxosMsg, InstanceId};
use paxi::{
    Ballot, ClientReply, ClientRequest, Command, Envelope, KvStore, Operation, ProtoMessage,
    RequestId, SessionTable, Snapshot, Value,
};
use paxos::{P1bVote, P2bVote, PaxosMsg, QrProbe, QrProbeVote, QrVoteEntry};
use pigpaxos::{PigMsg, RelayPlan};
use simnet::{Message, NodeId, Wire};

fn rid(seq: u64) -> RequestId {
    RequestId {
        client: NodeId(7),
        seq,
    }
}

fn put(len: usize) -> Command {
    Command {
        id: rid(1),
        op: Operation::Put(42, Value::zeros(len)),
    }
}

fn get() -> Command {
    Command {
        id: rid(2),
        op: Operation::Get(42),
    }
}

fn ballot() -> Ballot {
    Ballot::new(3, NodeId(1))
}

/// Three keys, two freshness slots, two clients' replies (one with a
/// value, one a redirect).
fn snapshot() -> Snapshot {
    let mut kv = KvStore::new();
    for (k, len) in [(1, 8), (5, 0), (9, 100)] {
        kv.apply(&Operation::Put(k, Value::zeros(len)));
    }
    let mut sessions = SessionTable::with_window(4);
    sessions.record(&ClientReply::ok(rid(3), Some(Value::zeros(16))));
    sessions.record(&ClientReply::ok(rid(4), None));
    sessions.record(&ClientReply::redirect(
        RequestId {
            client: NodeId(8),
            seq: 1,
        },
        Some(NodeId(2)),
    ));
    Snapshot {
        up_to: 77,
        kv,
        last_write_slots: vec![(1, 40), (9, 76)],
        sessions,
    }
}

fn p1b_vote(accepted: usize, snapshot: Option<Snapshot>) -> P1bVote {
    P1bVote {
        node: NodeId(2),
        ballot: ballot(),
        ok: true,
        accepted: (0..accepted as u64)
            .map(|s| (100 + s, ballot(), put(s as usize % 3)))
            .collect(),
        snapshot: snapshot.map(Box::new),
    }
}

fn p2b_vote(node: u32, slot: u64) -> P2bVote {
    P2bVote {
        node: NodeId(node),
        ballot: ballot(),
        slot,
        ok: node % 2 == 0,
    }
}

fn qr_entry(value: Option<usize>) -> QrVoteEntry {
    QrVoteEntry {
        node: NodeId(3),
        value_slot: 12,
        value: value.map(Value::zeros),
        pending_write: value.is_none(),
    }
}

fn paxos() -> Vec<(&'static str, PaxosMsg)> {
    vec![
        (
            "P1a",
            PaxosMsg::P1a {
                ballot: ballot(),
                from: 9,
            },
        ),
        (
            "P1b",
            PaxosMsg::P1b {
                ballot: ballot(),
                votes: vec![p1b_vote(2, None), p1b_vote(0, None)],
            },
        ),
        (
            "P1b with a snapshot",
            PaxosMsg::P1b {
                ballot: ballot(),
                votes: vec![p1b_vote(1, Some(snapshot()))],
            },
        ),
        (
            "P1b with 300 accepted entries",
            PaxosMsg::P1b {
                ballot: ballot(),
                votes: vec![p1b_vote(300, None)],
            },
        ),
        (
            "P2a",
            PaxosMsg::P2a {
                ballot: ballot(),
                slot: 100,
                command: put(8),
                commit_up_to: 99,
            },
        ),
        (
            "P2b",
            PaxosMsg::P2b {
                ballot: ballot(),
                slot: 100,
                votes: vec![p2b_vote(1, 100), p2b_vote(2, 100)],
            },
        ),
        (
            "P2aBatch",
            PaxosMsg::P2aBatch {
                ballot: ballot(),
                first_slot: 100,
                commands: vec![put(8), get(), Command::noop(), put(0)].into(),
                commit_up_to: 99,
            },
        ),
        (
            "P2bBatch",
            PaxosMsg::P2bBatch {
                ballot: ballot(),
                first_slot: 100,
                last_slot: 102,
                votes: vec![p2b_vote(1, 100), p2b_vote(1, 101), p2b_vote(2, 102)],
            },
        ),
        (
            "Heartbeat",
            PaxosMsg::Heartbeat {
                ballot: ballot(),
                commit_up_to: 5,
            },
        ),
        (
            "LearnReq",
            PaxosMsg::LearnReq {
                slots: vec![3, 4, 9],
            },
        ),
        (
            "LearnRep",
            PaxosMsg::LearnRep {
                ballot: ballot(),
                entries: vec![(3, put(8)), (4, get()), (9, Command::noop())],
            },
        ),
        (
            "SnapshotTransfer",
            PaxosMsg::SnapshotTransfer {
                ballot: ballot(),
                snapshot: Box::new(snapshot()),
                entries: vec![(78, put(5))],
            },
        ),
        (
            "QrRead",
            PaxosMsg::QrRead {
                reader: NodeId(4),
                id: 6,
                attempt: 2,
                key: 42,
            },
        ),
        (
            "QrVote",
            PaxosMsg::QrVote {
                reader: NodeId(4),
                id: 6,
                attempt: 2,
                votes: vec![qr_entry(Some(24)), qr_entry(None)],
            },
        ),
        (
            "QrReadBatch",
            PaxosMsg::QrReadBatch {
                reader: NodeId(4),
                wave: 11,
                probes: vec![
                    QrProbe {
                        id: 6,
                        attempt: 1,
                        key: 42,
                    },
                    QrProbe {
                        id: 7,
                        attempt: 3,
                        key: 43,
                    },
                ],
            },
        ),
        (
            "QrVoteBatch",
            PaxosMsg::QrVoteBatch {
                reader: NodeId(4),
                wave: 11,
                votes: vec![
                    QrProbeVote {
                        id: 6,
                        attempt: 1,
                        entry: qr_entry(Some(8)),
                    },
                    QrProbeVote {
                        id: 7,
                        attempt: 3,
                        entry: qr_entry(None),
                    },
                ],
            },
        ),
    ]
}

fn pig() -> Vec<(&'static str, PigMsg)> {
    let p2a = || PaxosMsg::P2a {
        ballot: ballot(),
        slot: 100,
        command: put(8),
        commit_up_to: 99,
    };
    let two_level = RelayPlan {
        peers: vec![NodeId(2)],
        sub: vec![
            (NodeId(3), RelayPlan::flat(vec![NodeId(4), NodeId(5)])),
            (NodeId(6), RelayPlan::flat(vec![NodeId(7)])),
        ],
    };
    vec![
        ("Direct(P2a)", PigMsg::Direct(p2a())),
        (
            "ToRelay, one level",
            PigMsg::ToRelay {
                reply_to: NodeId(0),
                plan: RelayPlan::flat(vec![NodeId(2), NodeId(3), NodeId(4)]),
                inner: p2a(),
                threshold: 0,
            },
        ),
        (
            "ToRelay, two levels",
            PigMsg::ToRelay {
                reply_to: NodeId(0),
                plan: two_level,
                inner: p2a(),
                threshold: 3,
            },
        ),
    ]
}

fn epaxos() -> Vec<(&'static str, EpaxosMsg)> {
    let inst = InstanceId {
        replica: NodeId(2),
        slot: 31,
    };
    let attrs = Attrs {
        seq: 4,
        deps: vec![
            InstanceId {
                replica: NodeId(0),
                slot: 3,
            },
            InstanceId {
                replica: NodeId(1),
                slot: 9,
            },
        ],
    };
    vec![
        (
            "PreAccept",
            EpaxosMsg::PreAccept {
                inst,
                ballot: ballot(),
                command: put(8),
                attrs: attrs.clone(),
            },
        ),
        (
            "PreAcceptOk",
            EpaxosMsg::PreAcceptOk {
                inst,
                node: NodeId(3),
                attrs: attrs.clone(),
                changed: true,
            },
        ),
        (
            "Accept",
            EpaxosMsg::Accept {
                inst,
                ballot: ballot(),
                command: get(),
                attrs: attrs.clone(),
            },
        ),
        (
            "AcceptOk",
            EpaxosMsg::AcceptOk {
                inst,
                node: NodeId(3),
            },
        ),
        (
            "Commit",
            EpaxosMsg::Commit {
                inst,
                command: put(0),
                attrs: Attrs::default(),
            },
        ),
    ]
}

/// Client traffic, each as the envelope the network carries.
fn envelopes() -> Vec<(&'static str, Envelope<PaxosMsg>)> {
    let request = |command| Envelope::Request(ClientRequest { command });
    vec![
        ("Request(Put)", request(put(8))),
        ("Request(Get)", request(get())),
        ("Request(Noop)", request(Command::noop())),
        (
            "Reply with a value",
            Envelope::Reply(ClientReply::ok(rid(1), Some(Value::zeros(8)))),
        ),
        (
            "Reply, redirect",
            Envelope::Reply(ClientReply::redirect(rid(1), Some(NodeId(3)))),
        ),
        (
            "ReplyBatch",
            Envelope::ReplyBatch(vec![
                ClientReply::ok(rid(1), Some(Value::zeros(8))),
                ClientReply::ok(rid(2), None),
                ClientReply::redirect(rid(3), Some(NodeId(0))),
            ]),
        ),
        (
            "Proto(Heartbeat)",
            Envelope::Proto(PaxosMsg::Heartbeat {
                ballot: ballot(),
                commit_up_to: 5,
            }),
        ),
    ]
}

/// `(name, declared size)` for every instance, after checking that the
/// encoding is that long.
fn measured() -> Vec<(&'static str, usize)> {
    fn row<M: Wire>(name: &'static str, msg: &M, declared: usize) -> (&'static str, usize) {
        assert_eq!(msg.encode().len(), declared, "{name}: encoded length");
        (name, declared)
    }
    let mut rows = Vec::new();
    rows.extend(paxos().iter().map(|(n, m)| row(n, m, m.wire_size())));
    rows.extend(pig().iter().map(|(n, m)| row(n, m, m.wire_size())));
    rows.extend(epaxos().iter().map(|(n, m)| row(n, m, m.wire_size())));
    rows.extend(
        envelopes()
            .iter()
            .map(|(n, m)| row(n, m, Message::wire_size(m))),
    );
    rows
}

/// Run with `--nocapture` to print the rows in this form.
const RECORDED: &[(&str, usize)] = &[
    ("P1a", 40),
    ("P1b", 133),
    ("P1b with a snapshot", 372),
    ("P1b with 300 accepted entries", 11150),
    ("P2a", 76),
    ("P2b", 68),
    ("P2aBatch", 144),
    ("P2bBatch", 90),
    ("Heartbeat", 40),
    ("LearnReq", 56),
    ("LearnRep", 116),
    ("SnapshotTransfer", 355),
    ("QrRead", 48),
    ("QrVote", 90),
    ("QrReadBatch", 76),
    ("QrVoteBatch", 94),
    ("Direct(P2a)", 76),
    ("ToRelay, one level", 124),
    ("ToRelay, two levels", 144),
    ("PreAccept", 104),
    ("PreAcceptOk", 73),
    ("Accept", 96),
    ("AcceptOk", 40),
    ("Commit", 64),
    ("Request(Put)", 52),
    ("Request(Get)", 44),
    ("Request(Noop)", 36),
    ("Reply with a value", 44),
    ("Reply, redirect", 36),
    ("ReplyBatch", 74),
    ("Proto(Heartbeat)", 40),
];

#[test]
fn every_variant_keeps_its_recorded_wire_size() {
    let rows = measured();
    for (name, size) in &rows {
        println!("    ({name:?}, {size}),");
    }
    assert_eq!(rows, RECORDED);
}
