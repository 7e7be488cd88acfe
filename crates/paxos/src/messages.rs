//! Multi-Paxos wire messages.
//!
//! Phase-1b and phase-2b responses carry a *vector* of votes. A follower
//! replying directly sends a singleton; a PigPaxos relay sends the
//! concatenation of its group's votes. The leader's quorum counting is
//! identical either way — this is the mechanical realization of the
//! paper's observation that the relay/aggregate overlay changes only the
//! communication implementation, not the protocol.

use paxi::wire::{decode_command_body, op_tag, put_command_body};
use paxi::{Ballot, Command, Key, ProtoMessage, Snapshot, Value};
use simnet::wire::DOMAIN_PAXOS;
use simnet::{NodeId, Wire, WireError, WireHeader, WirePut, WireReader};
use std::sync::Arc;

/// One follower's phase-1b promise.
#[derive(Debug, Clone, PartialEq)]
pub struct P1bVote {
    /// The promising follower.
    pub node: NodeId,
    /// The ballot it promises (equals the P1a ballot on success; its
    /// higher promised ballot on rejection).
    pub ballot: Ballot,
    /// Whether the promise was granted.
    pub ok: bool,
    /// Every accepted-but-uncommitted `(slot, ballot, command)` the
    /// follower knows — the new leader must re-propose these.
    pub accepted: Vec<(u64, Ballot, Command)>,
    /// Attached when the candidate's reported watermark lies below this
    /// follower's compaction floor: the slots the candidate is missing
    /// no longer exist as log entries anywhere on this follower, so the
    /// promise ships the state-machine snapshot that replaced them. The
    /// candidate installs it before counting the vote. `None` whenever
    /// compaction is disabled (the default) or the candidate is current.
    pub snapshot: Option<Box<Snapshot>>,
}

/// One follower's phase-2b acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P2bVote {
    /// The acknowledging follower.
    pub node: NodeId,
    /// Its current promised ballot (for nack diagnosis).
    pub ballot: Ballot,
    /// The slot being acknowledged.
    pub slot: u64,
    /// Whether the accept was granted.
    pub ok: bool,
}

/// One replica's answer to a quorum read (PQR, Charapko et al.
/// HotStorage'19; adopted for PigPaxos relay trees in the paper's §4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct QrVoteEntry {
    /// The answering replica.
    pub node: NodeId,
    /// Slot of the last *executed* write to the key at this replica
    /// (0 if never written).
    pub value_slot: u64,
    /// The executed value (None if the key was never written).
    pub value: Option<Value>,
    /// True if this replica holds writes to the key it has not executed,
    /// committed or not — the reader must rinse (retry) until they are.
    pub pending_write: bool,
}

/// Every wire label a quorum-read probe or answer travels under: a
/// probe wave and its answers. Benchmarks and tests sum delivered
/// messages over this list to get "probe msgs/op"; keeping it next to
/// [`PaxosMsg`]'s `label()` match means a label rename cannot silently
/// zero out a measurement.
pub const QR_PROBE_LABELS: &[&str] = &["qr_read_batch", "qr_vote_batch"];

/// One key probe inside a [`PaxosMsg::QrReadBatch`]: the proxy-local
/// read id, the read's *attempt* number (rinse retries bump it; answers
/// for older attempts must not count toward newer ones), and the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QrProbe {
    /// Proxy-local read id.
    pub id: u64,
    /// The attempt this probe belongs to (1 = first probe; each rinse
    /// restart bumps it).
    pub attempt: u32,
    /// The key being read.
    pub key: Key,
}

/// One replica's answer to one probe of a batched quorum read: the
/// probe's `(id, attempt)` echo plus the replica's [`QrVoteEntry`].
/// Relay aggregation of [`PaxosMsg::QrVoteBatch`] is plain
/// concatenation of these, exactly like `P2bVote`s in a `P2bBatch`.
#[derive(Debug, Clone, PartialEq)]
pub struct QrProbeVote {
    /// The read id this answers.
    pub id: u64,
    /// The attempt this answers (the proxy drops mismatches).
    pub attempt: u32,
    /// The replica's answer.
    pub entry: QrVoteEntry,
}

/// Multi-Paxos protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum PaxosMsg {
    /// Phase-1a: leadership proposal with a ballot.
    P1a {
        /// Candidate's ballot.
        ballot: Ballot,
        /// The candidate's own commit watermark: promises report every
        /// log entry (committed or not) from this slot up, so the
        /// candidate learns about slots decided while it was behind and
        /// never fills them with no-ops.
        from: u64,
    },
    /// Phase-1b: promise votes (singleton when direct, aggregated by
    /// PigPaxos relays).
    P1b {
        /// The ballot these votes answer.
        ballot: Ballot,
        /// Individual promises.
        votes: Vec<P1bVote>,
    },
    /// Phase-2a: accept request for one slot, carrying the commit
    /// watermark as the piggybacked phase-3 (every slot below it is
    /// decided).
    P2a {
        /// Leader's ballot.
        ballot: Ballot,
        /// Slot to fill.
        slot: u64,
        /// Proposed command.
        command: Command,
        /// All slots `< commit_up_to` are committed (phase-3 piggyback).
        commit_up_to: u64,
    },
    /// Phase-2b: accept votes (singleton or aggregated).
    P2b {
        /// The ballot these votes answer.
        ballot: Ballot,
        /// The slot these votes answer.
        slot: u64,
        /// Individual acks.
        votes: Vec<P2bVote>,
    },
    /// Phase-2a for a *contiguous run* of slots — the form a flushed
    /// batch of two or more commands takes (a batch of one is a `P2a`).
    /// One message amortizes `commands.len()` accept rounds; slot
    /// `first_slot + i` carries `commands[i]`. Semantically identical to
    /// that many `P2a`s.
    P2aBatch {
        /// Leader's ballot.
        ballot: Ballot,
        /// Slot of `commands[0]`.
        first_slot: u64,
        /// One command per consecutive slot. Shared (`Arc`) so that
        /// fanning the same wave out to every follower — and relaying
        /// it down a PigPaxos group — clones a refcount, not the
        /// command vector.
        commands: Arc<[Command]>,
        /// All slots `< commit_up_to` are committed (phase-3 piggyback).
        commit_up_to: u64,
    },
    /// Accept votes for a batched round: one [`P2bVote`] per `(node,
    /// slot)` pair, possibly aggregated across a relay group. Each vote
    /// carries its own slot.
    P2bBatch {
        /// The ballot these votes answer.
        ballot: Ballot,
        /// First slot of the batch being answered.
        first_slot: u64,
        /// Last slot of the batch being answered.
        last_slot: u64,
        /// Individual per-slot acks.
        votes: Vec<P2bVote>,
    },
    /// Leader liveness + commit-watermark propagation when idle.
    Heartbeat {
        /// Leader's ballot.
        ballot: Ballot,
        /// Commit watermark (as in P2a).
        commit_up_to: u64,
    },
    /// Follower asks the leader for committed entries it is missing
    /// (gap repair after drops or relay failures). Carries the precise
    /// missing slots so the reply stays minimal; repair is batched and
    /// rate-limited at the follower to keep it off the hot path.
    LearnReq {
        /// The slots the follower is missing.
        slots: Vec<u64>,
    },
    /// Leader's reply with decided entries.
    LearnRep {
        /// Leader's ballot.
        ballot: Ballot,
        /// Decided `(slot, command)` pairs.
        entries: Vec<(u64, Command)>,
    },
    /// Snapshot-based catch-up: the answer to a `LearnReq` whose
    /// missing slots lie below the sender's compaction floor. The slots
    /// no longer exist as log entries, so the receiver installs the
    /// state-machine snapshot (covering every slot `< snapshot.up_to`)
    /// and then commits the decided tail entries above the floor.
    SnapshotTransfer {
        /// Sender's promised ballot (commit bookkeeping for `entries`).
        ballot: Ballot,
        /// The state replacing the truncated prefix.
        snapshot: Box<Snapshot>,
        /// Decided `(slot, command)` pairs at or above the floor that
        /// the requester also asked for.
        entries: Vec<(u64, Command)>,
    },
    /// A *wave* of quorum-read probes from a reading proxy (§4.3) — the
    /// probe-side counterpart of `P2aBatch`. A lone read is a wave of
    /// one; with probe batching the proxy coalesces the keys of several
    /// pending reads into one wave. Either way it goes down the relay
    /// tree in one message per group, each replica answers all probes
    /// in one pass, and each relay returns a single aggregated
    /// [`PaxosMsg::QrVoteBatch`] uplink per wave.
    QrReadBatch {
        /// The proxy driving the reads (aggregates travel back to it).
        reader: NodeId,
        /// Proxy-local wave id (keys the relay aggregation round).
        wave: u64,
        /// The coalesced probes.
        probes: Vec<QrProbe>,
    },
    /// Answers to a probe wave: one [`QrProbeVote`] per `(replica,
    /// probe)` pair, possibly aggregated across a relay group.
    QrVoteBatch {
        /// The proxy this answers.
        reader: NodeId,
        /// The wave it answers.
        wave: u64,
        /// Individual per-probe answers.
        votes: Vec<QrProbeVote>,
    },
}

impl PaxosMsg {
    /// A phase-2a's `(ballot, first_slot, commands, commit_up_to)`,
    /// whichever its form: a `P2a` is a batch of one.
    pub fn as_p2a(&self) -> Option<(Ballot, u64, &[Command], u64)> {
        match self {
            PaxosMsg::P2a {
                ballot,
                slot,
                command,
                commit_up_to,
            } => Some((*ballot, *slot, std::slice::from_ref(command), *commit_up_to)),
            PaxosMsg::P2aBatch {
                ballot,
                first_slot,
                commands,
                commit_up_to,
            } => Some((*ballot, *first_slot, commands, *commit_up_to)),
            _ => None,
        }
    }
}

impl ProtoMessage for PaxosMsg {
    fn wire_size(&self) -> usize {
        self.wire_len()
    }

    fn label(&self) -> &'static str {
        match self {
            PaxosMsg::P1a { .. } => "p1a",
            PaxosMsg::P1b { .. } => "p1b",
            PaxosMsg::P2a { .. } => "p2a",
            PaxosMsg::P2b { .. } => "p2b",
            PaxosMsg::P2aBatch { .. } => "p2a_batch",
            PaxosMsg::P2bBatch { .. } => "p2b_batch",
            PaxosMsg::Heartbeat { .. } => "heartbeat",
            PaxosMsg::LearnReq { .. } => "learnreq",
            PaxosMsg::LearnRep { .. } => "learnrep",
            PaxosMsg::SnapshotTransfer { .. } => "snapshot",
            PaxosMsg::QrReadBatch { .. } => "qr_read_batch",
            PaxosMsg::QrVoteBatch { .. } => "qr_vote_batch",
        }
    }
}

// ---------------------------------------------------------------------
// Wire codec, which `wire_size()` counts; see `simnet::wire` for the
// framing format and packing conventions.
// ---------------------------------------------------------------------

const KIND_P1A: u8 = 0;
const KIND_P1B: u8 = 1;
const KIND_P2A: u8 = 2;
const KIND_P2B: u8 = 3;
const KIND_P2A_BATCH: u8 = 4;
const KIND_P2B_BATCH: u8 = 5;
const KIND_HEARTBEAT: u8 = 6;
const KIND_LEARN_REQ: u8 = 7;
const KIND_LEARN_REP: u8 = 8;
const KIND_SNAPSHOT: u8 = 9;
const KIND_QR_READ_BATCH: u8 = 12;
const KIND_QR_VOTE_BATCH: u8 = 13;

/// Largest value that fits the 14-bit length half of a packed
/// `(op tag, len)` entry metadata word (log entries inside P1b
/// promises, learn replies, and snapshot tails). A replica refuses a
/// larger write at admission, so no such entry ever reaches a log.
pub(crate) const META_LEN_MAX: usize = (1 << 14) - 1;

fn put_entry_meta<W: WirePut>(cmd: &Command, out: &mut W) {
    let len = paxi::wire::command_value_len(cmd);
    assert!(
        len <= META_LEN_MAX,
        "entry value of {len}B overflows the 14-bit length field"
    );
    out.put_u16(((op_tag(&cmd.op) as u16) << 14) | len as u16);
}

fn decode_entry_command(r: &mut WireReader<'_>) -> Result<Command, WireError> {
    let meta = r.u16("entry.meta")?;
    decode_command_body((meta >> 14) as u8, Some((meta & 0x3FFF) as usize), r)
}

/// `(slot, command)` pair inside LearnRep / SnapshotTransfer: slot as
/// u48 + entry meta (8 bytes of prefix), then the sized command body.
fn put_learn_entry<W: WirePut>(slot: u64, cmd: &Command, out: &mut W) {
    out.put_u48(slot);
    put_entry_meta(cmd, out);
    put_command_body(cmd, out);
}

fn decode_learn_entry(r: &mut WireReader<'_>) -> Result<(u64, Command), WireError> {
    let slot = r.u48("entry.slot")?;
    Ok((slot, decode_entry_command(r)?))
}

const P1B_OK: u8 = 1 << 0;
const P1B_SNAPSHOT: u8 = 1 << 1;

fn put_p1b_vote<W: WirePut>(v: &P1bVote, out: &mut W) {
    out.put_u32(v.node.0);
    out.put_wire(&v.ballot);
    let mut flags = 0u8;
    if v.ok {
        flags |= P1B_OK;
    }
    if v.snapshot.is_some() {
        flags |= P1B_SNAPSHOT;
    }
    out.put_u8(flags);
    if v.accepted.len() < 255 {
        out.put_u8(v.accepted.len() as u8);
    } else {
        out.put_u8(255);
        out.put_u32(v.accepted.len() as u32);
    }
    for (slot, ballot, cmd) in &v.accepted {
        out.put_u48(*slot);
        out.put_wire(ballot);
        put_entry_meta(cmd, out);
        put_command_body(cmd, out);
    }
    if let Some(s) = &v.snapshot {
        out.put_wire(&**s);
    }
}

fn decode_p1b_vote(r: &mut WireReader<'_>) -> Result<P1bVote, WireError> {
    let node = NodeId(r.u32("p1b.node")?);
    let ballot = Ballot::decode(r)?;
    let flags = r.u8("p1b.flags")?;
    let count = match r.u8("p1b.accepted_count")? {
        255 => r.u32("p1b.accepted_count32")? as usize,
        n => n as usize,
    };
    // 6 slot + 8 ballot + 2 meta + 12 request id per accepted entry.
    let mut accepted = Vec::with_capacity(r.capacity_for(count, 28));
    for _ in 0..count {
        let slot = r.u48("p1b.accepted_slot")?;
        let b = Ballot::decode(r)?;
        accepted.push((slot, b, decode_entry_command(r)?));
    }
    let snapshot = if flags & P1B_SNAPSHOT != 0 {
        Some(Box::new(Snapshot::decode(r)?))
    } else {
        None
    };
    Ok(P1bVote {
        node,
        ballot,
        ok: flags & P1B_OK != 0,
        accepted,
        snapshot,
    })
}

/// P2b votes pack `(ok, slot)` into a u16: bit 15 = ok, low 15 bits =
/// the vote's slot as a delta from the enclosing message's base slot
/// (`slot` for P2b, `first_slot` for P2bBatch) — 14 bytes per vote.
fn put_p2b_vote<W: WirePut>(v: &P2bVote, base: u64, out: &mut W) {
    out.put_u32(v.node.0);
    out.put_wire(&v.ballot);
    let delta = v
        .slot
        .checked_sub(base)
        .expect("vote slot below batch base");
    assert!(
        delta < (1 << 15),
        "vote slot delta {delta} overflows 15 bits"
    );
    out.put_u16(((v.ok as u16) << 15) | delta as u16);
}

fn decode_p2b_vote(base: u64, r: &mut WireReader<'_>) -> Result<P2bVote, WireError> {
    let node = NodeId(r.u32("p2b.node")?);
    let ballot = Ballot::decode(r)?;
    let packed = r.u16("p2b.packed")?;
    // The base slot comes off the wire too, so their sum may name no
    // slot at all.
    let slot = base
        .checked_add((packed & 0x7FFF) as u64)
        .ok_or(WireError::Overflow { what: "p2b.slot" })?;
    Ok(P2bVote {
        node,
        ballot,
        slot,
        ok: packed & (1 << 15) != 0,
    })
}

const QR_PENDING: u8 = 1 << 0;
const QR_VALUE: u8 = 1 << 1;

fn put_qr_entry<W: WirePut>(e: &QrVoteEntry, out: &mut W) {
    out.put_u32(e.node.0);
    out.put_u48(e.value_slot);
    let mut flags = 0u8;
    if e.pending_write {
        flags |= QR_PENDING;
    }
    if e.value.is_some() {
        flags |= QR_VALUE;
    }
    out.put_u8(flags);
    let len = e.value.as_ref().map_or(0, |v| v.len());
    assert!(len <= u16::MAX as usize, "qr value of {len}B overflows u16");
    out.put_u16(len as u16);
    if let Some(v) = &e.value {
        out.put_slice(&v.0);
    }
}

fn decode_qr_entry(r: &mut WireReader<'_>) -> Result<QrVoteEntry, WireError> {
    let node = NodeId(r.u32("qr.node")?);
    let value_slot = r.u48("qr.value_slot")?;
    let flags = r.u8("qr.flags")?;
    let len = r.u16("qr.value_len")? as usize;
    let value = if flags & QR_VALUE != 0 {
        Some(Value(r.read_value(len, "qr.value")?))
    } else {
        None
    };
    Ok(QrVoteEntry {
        node,
        value_slot,
        value,
        pending_write: flags & QR_PENDING != 0,
    })
}

fn header(kind: u8) -> WireHeader {
    WireHeader::new(DOMAIN_PAXOS, kind)
}

impl Wire for PaxosMsg {
    const KIND: &'static str = "PaxosMsg";

    fn put<W: WirePut>(&self, out: &mut W) {
        match self {
            PaxosMsg::P1a { ballot, from } => {
                out.put_wire(&header(KIND_P1A));
                out.put_wire(ballot);
                out.put_u64(*from);
            }
            PaxosMsg::P1b { ballot, votes } => {
                out.put_wire(&header(KIND_P1B).aux0(votes.len() as u32));
                out.put_wire(ballot);
                for v in votes {
                    put_p1b_vote(v, out);
                }
            }
            PaxosMsg::P2a {
                ballot,
                slot,
                command,
                commit_up_to,
            } => {
                out.put_wire(&header(KIND_P2A).flags(op_tag(&command.op)));
                out.put_wire(ballot);
                out.put_u64(*slot);
                out.put_u64(*commit_up_to);
                put_command_body(command, out);
            }
            PaxosMsg::P2b {
                ballot,
                slot,
                votes,
            } => {
                out.put_wire(&header(KIND_P2B).aux0(votes.len() as u32));
                out.put_wire(ballot);
                out.put_u64(*slot);
                for v in votes {
                    put_p2b_vote(v, *slot, out);
                }
            }
            PaxosMsg::P2aBatch {
                ballot,
                first_slot,
                commands,
                commit_up_to,
            } => {
                out.put_wire(&header(KIND_P2A_BATCH).aux0(commands.len() as u32));
                out.put_wire(ballot);
                out.put_u64(*first_slot);
                out.put_u64(*commit_up_to);
                for cmd in commands.iter() {
                    // 4-byte prefix per command: op tag u8 + value len u24.
                    let len = paxi::wire::command_value_len(cmd);
                    assert!(len < (1 << 24), "batched value of {len}B overflows u24");
                    out.put_u8(op_tag(&cmd.op));
                    out.put_slice(&(len as u32).to_le_bytes()[..3]);
                    put_command_body(cmd, out);
                }
            }
            PaxosMsg::P2bBatch {
                ballot,
                first_slot,
                last_slot,
                votes,
            } => {
                out.put_wire(&header(KIND_P2B_BATCH).aux0(votes.len() as u32));
                out.put_wire(ballot);
                out.put_u64(*first_slot);
                out.put_u64(*last_slot);
                for v in votes {
                    put_p2b_vote(v, *first_slot, out);
                }
            }
            PaxosMsg::Heartbeat {
                ballot,
                commit_up_to,
            } => {
                out.put_wire(&header(KIND_HEARTBEAT));
                out.put_wire(ballot);
                out.put_u64(*commit_up_to);
            }
            PaxosMsg::LearnReq { slots } => {
                out.put_wire(&header(KIND_LEARN_REQ));
                out.put_u64(slots.len() as u64);
                for s in slots {
                    out.put_u64(*s);
                }
            }
            PaxosMsg::LearnRep { ballot, entries } => {
                out.put_wire(&header(KIND_LEARN_REP).aux0(entries.len() as u32));
                out.put_wire(ballot);
                for (slot, cmd) in entries {
                    put_learn_entry(*slot, cmd, out);
                }
            }
            PaxosMsg::SnapshotTransfer {
                ballot,
                snapshot,
                entries,
            } => {
                out.put_wire(&header(KIND_SNAPSHOT).aux0(entries.len() as u32));
                out.put_wire(ballot);
                out.put_wire(&**snapshot);
                for (slot, cmd) in entries {
                    put_learn_entry(*slot, cmd, out);
                }
            }
            PaxosMsg::QrReadBatch {
                reader,
                wave,
                probes,
            } => {
                out.put_wire(&header(KIND_QR_READ_BATCH).aux0(probes.len() as u32));
                out.put_u32(reader.0);
                out.put_u64(*wave);
                for p in probes {
                    out.put_u64(p.id);
                    out.put_u32(p.attempt);
                    out.put_u64(p.key);
                }
            }
            PaxosMsg::QrVoteBatch {
                reader,
                wave,
                votes,
            } => {
                out.put_wire(&header(KIND_QR_VOTE_BATCH).aux0(votes.len() as u32));
                out.put_u32(reader.0);
                out.put_u64(*wave);
                for v in votes {
                    out.put_u64(v.id);
                    out.put_u32(v.attempt);
                    put_qr_entry(&v.entry, out);
                }
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let h = WireHeader::decode(r)?;
        match h.kind {
            KIND_P1A => Ok(PaxosMsg::P1a {
                ballot: Ballot::decode(r)?,
                from: r.u64("p1a.from")?,
            }),
            KIND_P1B => {
                let ballot = Ballot::decode(r)?;
                // 4 node + 8 ballot + 1 flags + 1 count per vote.
                let mut votes = Vec::with_capacity(r.capacity_for(h.aux0 as usize, 14));
                for _ in 0..h.aux0 {
                    votes.push(decode_p1b_vote(r)?);
                }
                Ok(PaxosMsg::P1b { ballot, votes })
            }
            KIND_P2A => {
                let ballot = Ballot::decode(r)?;
                let slot = r.u64("p2a.slot")?;
                let commit_up_to = r.u64("p2a.commit_up_to")?;
                Ok(PaxosMsg::P2a {
                    ballot,
                    slot,
                    command: decode_command_body(h.flags, None, r)?,
                    commit_up_to,
                })
            }
            KIND_P2B => {
                let ballot = Ballot::decode(r)?;
                let slot = r.u64("p2b.slot")?;
                // 14 bytes per packed vote.
                let mut votes = Vec::with_capacity(r.capacity_for(h.aux0 as usize, 14));
                for _ in 0..h.aux0 {
                    votes.push(decode_p2b_vote(slot, r)?);
                }
                Ok(PaxosMsg::P2b {
                    ballot,
                    slot,
                    votes,
                })
            }
            KIND_P2A_BATCH => {
                let ballot = Ballot::decode(r)?;
                let first_slot = r.u64("p2a_batch.first_slot")?;
                let commit_up_to = r.u64("p2a_batch.commit_up_to")?;
                // 1 tag + 3 len + 12 request id per command.
                let mut commands = Vec::with_capacity(r.capacity_for(h.aux0 as usize, 16));
                for _ in 0..h.aux0 {
                    let tag = r.u8("p2a_batch.op")?;
                    let b = r.bytes(3, "p2a_batch.len")?;
                    let len = u32::from_le_bytes([b[0], b[1], b[2], 0]) as usize;
                    commands.push(decode_command_body(tag, Some(len), r)?);
                }
                Ok(PaxosMsg::P2aBatch {
                    ballot,
                    first_slot,
                    commands: commands.into(),
                    commit_up_to,
                })
            }
            KIND_P2B_BATCH => {
                let ballot = Ballot::decode(r)?;
                let first_slot = r.u64("p2b_batch.first_slot")?;
                let last_slot = r.u64("p2b_batch.last_slot")?;
                // 14 bytes per packed vote.
                let mut votes = Vec::with_capacity(r.capacity_for(h.aux0 as usize, 14));
                for _ in 0..h.aux0 {
                    votes.push(decode_p2b_vote(first_slot, r)?);
                }
                Ok(PaxosMsg::P2bBatch {
                    ballot,
                    first_slot,
                    last_slot,
                    votes,
                })
            }
            KIND_HEARTBEAT => Ok(PaxosMsg::Heartbeat {
                ballot: Ballot::decode(r)?,
                commit_up_to: r.u64("heartbeat.commit_up_to")?,
            }),
            KIND_LEARN_REQ => {
                let n = r.u64("learnreq.count")?;
                let mut slots = Vec::with_capacity(r.capacity_for(n as usize, 8));
                for _ in 0..n {
                    slots.push(r.u64("learnreq.slot")?);
                }
                Ok(PaxosMsg::LearnReq { slots })
            }
            KIND_LEARN_REP => {
                let ballot = Ballot::decode(r)?;
                // 6 slot + 2 meta + 12 request id per entry.
                let mut entries = Vec::with_capacity(r.capacity_for(h.aux0 as usize, 20));
                for _ in 0..h.aux0 {
                    entries.push(decode_learn_entry(r)?);
                }
                Ok(PaxosMsg::LearnRep { ballot, entries })
            }
            KIND_SNAPSHOT => {
                let ballot = Ballot::decode(r)?;
                let snapshot = Box::new(Snapshot::decode(r)?);
                let mut entries = Vec::with_capacity(r.capacity_for(h.aux0 as usize, 20));
                for _ in 0..h.aux0 {
                    entries.push(decode_learn_entry(r)?);
                }
                Ok(PaxosMsg::SnapshotTransfer {
                    ballot,
                    snapshot,
                    entries,
                })
            }
            KIND_QR_READ_BATCH => {
                let reader = NodeId(r.u32("qr_batch.reader")?);
                let wave = r.u64("qr_batch.wave")?;
                // 8 id + 4 attempt + 8 key per probe.
                let mut probes = Vec::with_capacity(r.capacity_for(h.aux0 as usize, 20));
                for _ in 0..h.aux0 {
                    probes.push(QrProbe {
                        id: r.u64("qr_probe.id")?,
                        attempt: r.u32("qr_probe.attempt")?,
                        key: r.u64("qr_probe.key")?,
                    });
                }
                Ok(PaxosMsg::QrReadBatch {
                    reader,
                    wave,
                    probes,
                })
            }
            KIND_QR_VOTE_BATCH => {
                let reader = NodeId(r.u32("qr_vbatch.reader")?);
                let wave = r.u64("qr_vbatch.wave")?;
                // 8 id + 4 attempt + a 13-byte entry per vote.
                let mut votes = Vec::with_capacity(r.capacity_for(h.aux0 as usize, 25));
                for _ in 0..h.aux0 {
                    let id = r.u64("qr_pvote.id")?;
                    let attempt = r.u32("qr_pvote.attempt")?;
                    votes.push(QrProbeVote {
                        id,
                        attempt,
                        entry: decode_qr_entry(r)?,
                    });
                }
                Ok(PaxosMsg::QrVoteBatch {
                    reader,
                    wave,
                    votes,
                })
            }
            other => Err(WireError::BadTag {
                what: "paxos kind",
                got: other,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi::{Operation, RequestId, Value};

    fn cmd(bytes: usize) -> Command {
        Command {
            id: RequestId {
                client: NodeId(9),
                seq: 1,
            },
            op: Operation::Put(1, Value::zeros(bytes)),
        }
    }

    #[test]
    fn p2a_size_scales_with_payload() {
        let small = PaxosMsg::P2a {
            ballot: Ballot::ZERO,
            slot: 0,
            command: cmd(8),
            commit_up_to: 0,
        };
        let large = PaxosMsg::P2a {
            ballot: Ballot::ZERO,
            slot: 0,
            command: cmd(1280),
            commit_up_to: 0,
        };
        assert_eq!(large.wire_size() - small.wire_size(), 1272);
    }

    #[test]
    fn aggregated_p2b_bigger_than_single() {
        let vote = |n| P2bVote {
            node: NodeId(n),
            ballot: Ballot::ZERO,
            slot: 0,
            ok: true,
        };
        let single = PaxosMsg::P2b {
            ballot: Ballot::ZERO,
            slot: 0,
            votes: vec![vote(1)],
        };
        let agg = PaxosMsg::P2b {
            ballot: Ballot::ZERO,
            slot: 0,
            votes: (0..8).map(vote).collect(),
        };
        assert!(agg.wire_size() > single.wire_size());
        assert_eq!(agg.wire_size() - single.wire_size(), 7 * 14);
    }

    #[test]
    fn p1b_size_includes_accepted_entries() {
        let empty = PaxosMsg::P1b {
            ballot: Ballot::ZERO,
            votes: vec![P1bVote {
                node: NodeId(1),
                ballot: Ballot::ZERO,
                ok: true,
                accepted: vec![],
                snapshot: None,
            }],
        };
        let loaded = PaxosMsg::P1b {
            ballot: Ballot::ZERO,
            votes: vec![P1bVote {
                node: NodeId(1),
                ballot: Ballot::ZERO,
                ok: true,
                accepted: vec![(3, Ballot::ZERO, cmd(100))],
                snapshot: None,
            }],
        };
        assert!(loaded.wire_size() > empty.wire_size() + 100);
    }

    #[test]
    fn batch_scales_sublinearly_vs_singles() {
        let singles: usize = (0..8)
            .map(|s| {
                PaxosMsg::P2a {
                    ballot: Ballot::ZERO,
                    slot: s,
                    command: cmd(64),
                    commit_up_to: 0,
                }
                .wire_size()
            })
            .sum();
        let batch = PaxosMsg::P2aBatch {
            ballot: Ballot::ZERO,
            first_slot: 0,
            commands: (0..8).map(|_| cmd(64)).collect(),
            commit_up_to: 0,
        }
        .wire_size();
        assert!(
            batch < singles,
            "one batch message ({batch}B) must beat 8 singles ({singles}B)"
        );
        assert_eq!(
            PaxosMsg::P2aBatch {
                ballot: Ballot::ZERO,
                first_slot: 0,
                commands: vec![cmd(64)].into(),
                commit_up_to: 0
            }
            .label(),
            "p2a_batch"
        );
    }

    #[test]
    fn p2b_batch_size_scales_with_votes() {
        let vote = |n, s| P2bVote {
            node: NodeId(n),
            ballot: Ballot::ZERO,
            slot: s,
            ok: true,
        };
        let small = PaxosMsg::P2bBatch {
            ballot: Ballot::ZERO,
            first_slot: 0,
            last_slot: 3,
            votes: vec![vote(1, 0)],
        };
        let big = PaxosMsg::P2bBatch {
            ballot: Ballot::ZERO,
            first_slot: 0,
            last_slot: 3,
            votes: (0..4)
                .flat_map(|s| (1..4).map(move |n| vote(n, s)))
                .collect(),
        };
        assert_eq!(big.wire_size() - small.wire_size(), 11 * 14);
        assert_eq!(big.label(), "p2b_batch");
    }

    #[test]
    fn probe_batch_scales_sublinearly_vs_single_probes() {
        let wave = |wave, ids: std::ops::Range<u64>| PaxosMsg::QrReadBatch {
            reader: NodeId(1),
            wave,
            probes: ids
                .map(|id| QrProbe {
                    id,
                    attempt: 1,
                    key: 7,
                })
                .collect(),
        };
        let singles: usize = (0..8).map(|i| wave(i, i..i + 1).wire_size()).sum();
        let batch = wave(0, 0..8);
        assert!(
            batch.wire_size() < singles,
            "one probe wave of 8 ({}B) must beat 8 waves of one ({singles}B)",
            batch.wire_size()
        );
        assert_eq!(batch.label(), "qr_read_batch");
        let vote = PaxosMsg::QrVoteBatch {
            reader: NodeId(1),
            wave: 0,
            votes: vec![QrProbeVote {
                id: 3,
                attempt: 1,
                entry: QrVoteEntry {
                    node: NodeId(2),
                    value_slot: 0,
                    value: None,
                    pending_write: false,
                },
            }],
        };
        assert_eq!(vote.label(), "qr_vote_batch");
        assert!(vote.wire_size() > 0);
    }

    #[test]
    fn labels() {
        assert_eq!(
            PaxosMsg::P1a {
                ballot: Ballot::ZERO,
                from: 0
            }
            .label(),
            "p1a"
        );
        assert_eq!(
            PaxosMsg::Heartbeat {
                ballot: Ballot::ZERO,
                commit_up_to: 0
            }
            .label(),
            "heartbeat"
        );
    }
}
