//! Component-level drivers for the profiled hot paths.
//!
//! Three paths dominate a loaded leader's CPU budget (the paper's whole
//! argument is that this budget is the scalability ceiling): the leader
//! decide/execute pipeline (`propose_batch` → per-peer fan-out →
//! `accept_batch` → `apply_batch_votes` → execution → replies), the relay
//! aggregation path (PigPaxos `RelayTable`), and `Wire` encode/decode.
//! This module drives each one directly — no simulator, no actors, no
//! timers — over the same public APIs the replicas use, so the
//! `alloc_gate` binary and the allocation-regression test measure
//! identical work.
//!
//! [`LeaderPipeline::run`] separates *leader-side* work from
//! *follower-side* work with the counting allocator (see
//! [`crate::alloc`]): the reported `leader_allocs` covers exactly the
//! segments a real leader executes per wave, which is the number the
//! `≥25%` allocation-reduction claim is gated on.

use crate::alloc;
use paxi::{
    Ballot, ClientReply, Command, Operation, RequestId, SafetyMonitor, SessionTable, Value,
};
use paxos::{
    accept_batch, apply_batch_votes, propose_batch, Acceptor, Leader, P2bVote, PaxosMsg,
    Phase1Outcome,
};
use pigpaxos::relay::{AggKey, Flush, RelayTable, VoteSet};
use simnet::{Bytes, NodeId, SimTime, Wire};
use std::collections::VecDeque;

/// Payload bytes per benched `Put` value (matches the default workload).
const VALUE_BYTES: usize = 64;

/// A self-contained n-replica cluster driven wave-by-wave through the
/// leader pipeline: exactly the per-wave work a loaded `PaxosReplica`
/// leader performs, minus the substrate. The replica runs every batch
/// size through the same functions, so `batch = 1` drives the unbatched
/// path (`P2a`/`P2b`) and larger batches the `P2aBatch`/`P2bBatch` one.
pub struct LeaderPipeline {
    leader: Leader,
    leader_acc: Acceptor,
    followers: Vec<Acceptor>,
    sessions: SessionTable,
    now: SimTime,
    seq: u64,
    batch: usize,
    // Reused across waves so container capacity amortizes, mirroring a
    // long-lived replica rather than a cold start.
    fanout: Vec<PaxosMsg>,
    replies: Vec<ClientReply>,
    /// `(slot, client)` owed a reply, as `Replica.waiting`.
    waiting: VecDeque<(u64, NodeId)>,
}

impl LeaderPipeline {
    /// Build an `n`-replica cluster (node 0 leads) deciding `batch`
    /// commands per wave. The campaign is completed here so every
    /// subsequent [`Self::run`] measures steady state.
    pub fn new(n: usize, batch: usize) -> Self {
        assert!(n >= 2, "pipeline needs at least one follower");
        assert!(batch >= 1, "empty waves decide nothing");
        let safety = SafetyMonitor::new();
        let mut leader = Leader::new(NodeId(0), n);
        let mut leader_acc = Acceptor::new(NodeId(0), safety.clone());
        let mut followers: Vec<Acceptor> = (1..n)
            .map(|i| Acceptor::new(NodeId(i as u32), safety.clone()))
            .collect();
        let ballot = leader.start_campaign(Ballot::ZERO);
        let mut votes = vec![leader_acc.on_p1a(ballot, 0)];
        votes.extend(followers.iter_mut().map(|f| f.on_p1a(ballot, 0)));
        match leader.on_p1b_votes(votes, 0, leader_acc.log().reach()) {
            Phase1Outcome::Won { reproposals } => assert!(reproposals.is_empty()),
            other => panic!("campaign on a fresh cluster must win, got {other:?}"),
        }
        LeaderPipeline {
            leader,
            leader_acc,
            followers,
            sessions: SessionTable::new(),
            now: SimTime::ZERO,
            seq: 0,
            batch,
            fanout: Vec::new(),
            replies: Vec::new(),
            waiting: VecDeque::new(),
        }
    }

    fn next_batch(&mut self) -> Vec<(NodeId, Command)> {
        let mut batch = Vec::with_capacity(self.batch);
        for _ in 0..self.batch {
            self.seq += 1;
            let client = NodeId(100 + (self.seq % 8) as u32);
            let cmd = Command {
                id: RequestId {
                    client,
                    seq: self.seq,
                },
                op: Operation::Put(self.seq % 1024, Value::zeros(VALUE_BYTES)),
            };
            batch.push((client, cmd));
        }
        batch
    }

    /// Run one full wave: propose a batch, fan its phase-2a out to
    /// every follower, accept it at each, count the returning vote
    /// batches at the leader, execute the decided prefix, and build the
    /// client replies. Decides the whole batch and returns the
    /// allocations the *leader-side* segments performed (zero unless the
    /// binary installs [`crate::alloc::CountingAllocator`]).
    fn drive_wave(&mut self) -> u64 {
        self.now += simnet::SimDuration::from_micros(200);
        let batch = self.next_batch();
        let now = self.now;
        let mut leader_allocs = 0u64;

        // Leader: allocate slots, self-accept, build the wave message,
        // and clone it per peer exactly as `fanout` does.
        let ((), d) = alloc::measure(|| {
            let proposal = propose_batch(
                &mut self.leader,
                &mut self.leader_acc,
                batch,
                now,
                &mut self.waiting,
            );
            self.fanout.clear();
            for _ in 0..self.followers.len() {
                self.fanout.push(proposal.msg.clone());
            }
        });
        leader_allocs += d.allocs;

        // Followers: accept the phase-2a and vote (not leader work —
        // kept outside the measured segments).
        let mut vote_batches: Vec<Vec<P2bVote>> = Vec::with_capacity(self.followers.len());
        for (follower, msg) in self.followers.iter_mut().zip(&self.fanout) {
            let acc = accept_batch(follower, msg);
            follower.execute_ready();
            let Some(PaxosMsg::P2b { votes, .. } | PaxosMsg::P2bBatch { votes, .. }) = acc.reply
            else {
                unreachable!("every follower votes on its phase-2a")
            };
            vote_batches.push(votes);
        }

        // Leader: count each follower's vote batch, execute the ready
        // prefix, record and build replies — the decide/execute path.
        let ballot = self.leader.ballot();
        let (decided, d) = alloc::measure(|| {
            let mut decided = 0usize;
            self.replies.clear();
            for votes in vote_batches.drain(..) {
                let Some(wave) =
                    apply_batch_votes(&mut self.leader, &mut self.leader_acc, ballot, votes)
                else {
                    continue;
                };
                assert!(wave.preempted.is_none(), "nothing contends in the harness");
                for (slot, id, value) in wave.executed {
                    assert_eq!(self.waiting.pop_front().map(|(s, _)| s), Some(slot));
                    let reply = ClientReply::ok(id, value);
                    self.sessions.record(&reply);
                    self.replies.push(reply);
                    decided += 1;
                }
            }
            decided
        });
        leader_allocs += d.allocs;

        assert_eq!(decided, self.batch, "every wave must fully decide");
        leader_allocs
    }

    /// Drive `waves` waves and return total (decided, leader allocations).
    pub fn run(&mut self, waves: usize) -> (u64, u64) {
        let allocs = (0..waves).map(|_| self.drive_wave()).sum();
        ((waves * self.batch) as u64, allocs)
    }
}

/// Drive one PigPaxos relay aggregation round: open a `P2Span` round
/// seeded with the relay's own `batch`-slot vote block, then add each
/// group peer's block until the round flushes. Returns the flush (the
/// aggregate the relay uplinks to the leader).
pub fn relay_aggregate_round(ballot: Ballot, first_slot: u64, batch: usize, group: usize) -> Flush {
    let last_slot = first_slot + batch as u64 - 1;
    let key = AggKey::P2Span(ballot, first_slot, last_slot);
    let votes_of = |node: u32| -> Vec<P2bVote> {
        (first_slot..=last_slot)
            .map(|slot| P2bVote {
                node: NodeId(node),
                ballot,
                slot,
                ok: true,
            })
            .collect()
    };
    let mut table = RelayTable::new();
    let expect: Vec<NodeId> = (2..=group as u32).map(NodeId).collect();
    let deadline = SimTime::from_millis(10);
    if let Some(flush) = table.open(
        key,
        NodeId(0),
        expect,
        VoteSet::P2(votes_of(1)),
        0,
        deadline,
    ) {
        return flush;
    }
    for node in 2..=group as u32 {
        if let Some(flush) = table.add(key, NodeId(node), VoteSet::P2(votes_of(node))) {
            return flush;
        }
    }
    panic!("aggregation over the full group must flush");
}

/// Size of the staging buffers the socket substrate decodes frames with
/// under [`LARGE_FRAME_BYTES`] of payload out of (`READ_CHUNK` in
/// `pig_runtime::net`).
const RECV_BUFFER_BYTES: usize = 64 * 1024;

/// Payloads this long or longer get a receive buffer of exactly their
/// own length from the socket substrate (`LARGE` in `pig_runtime::net`).
const LARGE_FRAME_BYTES: usize = RECV_BUFFER_BYTES / simnet::wire::VALUE_PIN_RATIO;

/// Memory a follower keeps resident per byte of value it retains.
///
/// Feeds a follower `waves` `P2aBatch`es of `batch - 1` writes of
/// `value_bytes` each and one read, laid out as the TCP transport
/// receives them: a frame with under 1 KiB of payload (64 KiB /
/// `simnet::wire::VALUE_PIN_RATIO`) is decoded as a window of a 64 KiB
/// receive buffer, a larger one out of a buffer of exactly its own
/// length. Then it walks every value
/// reachable from the follower's log, its store and its session table,
/// and divides the capacity of the allocations those values keep alive
/// by the values' own lengths, counting each allocation and each value
/// once however many places hold it. 1.0 means every value owns exactly
/// its bytes; a small value kept as a window into a receive buffer
/// scores in the hundreds.
pub fn retained_backing_ratio(waves: usize, batch: usize, value_bytes: usize) -> f64 {
    assert!(batch >= 2 && value_bytes >= 1);
    let ballot = Ballot::new(1, NodeId(0));
    let mut follower = Acceptor::new(NodeId(1), SafetyMonitor::new());
    follower.on_p1a(ballot, 0);
    let mut sessions = SessionTable::new();
    let mut ids = Vec::new();
    let mut frames = Vec::new();
    for wave in 0..waves as u64 {
        let first_slot = wave * batch as u64;
        let commands: Vec<Command> = (0..batch as u64)
            .map(|i| {
                let key = (first_slot + i) % 256;
                let op = if i + 1 == batch as u64 {
                    Operation::Get(key - 1)
                } else {
                    Operation::Put(key, Value::from(&vec![wave as u8; value_bytes][..]))
                };
                let id = RequestId {
                    client: NodeId(100 + (i % 8) as u32),
                    seq: first_slot + i + 1,
                };
                Command { id, op }
            })
            .collect();
        let sent = PaxosMsg::P2aBatch {
            ballot,
            first_slot,
            commands: commands.into(),
            commit_up_to: first_slot, // every earlier wave is decided
        };
        let encoded = encode_message(&sent);
        let frame = if encoded.len() >= LARGE_FRAME_BYTES {
            Bytes::copy_from_slice(&encoded)
        } else {
            let mut buf = vec![0; RECV_BUFFER_BYTES];
            buf[..encoded.len()].copy_from_slice(&encoded);
            Bytes::from(buf).slice(..encoded.len())
        };
        let accepted = accept_batch(&mut follower, &decode_message(&frame));
        frames.push(frame);
        for (_slot, id, value) in accepted.advance.executed {
            sessions.record(&ClientReply::ok(id, value));
            ids.push(id);
        }
    }

    let log = follower.log().entries_from(0);
    let store = follower.kv().sorted_entries();
    let logged = log.iter().filter_map(|(_, _, cmd)| match &cmd.op {
        Operation::Put(_, v) => Some(v),
        _ => None,
    });
    let stored = store.iter().map(|(_, v)| v);
    let replied = ids
        .iter()
        .filter_map(|&id| sessions.replay(id)?.value.as_ref());
    // One entry per value, however many places hold a clone of it.
    let values: std::collections::BTreeMap<_, _> = logged
        .chain(stored)
        .chain(replied)
        .map(|v| (v.0.as_slice().as_ptr(), &v.0))
        .collect();
    let mut pinned = vec![false; frames.len()];
    let (mut held, mut own) = (0usize, 0usize);
    for v in values.values() {
        own += v.len();
        let window = frames
            .iter()
            .position(|f| f.as_slice().as_ptr_range().contains(&v.as_slice().as_ptr()));
        match window {
            Some(i) => pinned[i] = true,
            None => held += v.backing_capacity(),
        }
    }
    held += (frames.iter().zip(pinned))
        .filter(|&(_, pinned)| pinned)
        .map(|(f, _)| f.backing_capacity())
        .sum::<usize>();
    assert!(own > 0, "the follower must have retained values");
    held as f64 / own as f64
}

/// A representative `P2aBatch` wave message with `batch` commands.
pub fn sample_p2a_batch(batch: usize) -> PaxosMsg {
    sample_p2a_batch_with_values(batch, VALUE_BYTES)
}

/// A `P2aBatch` wave message with `batch` commands of `value_bytes`
/// payload each — the large-value variant drives the zero-copy decode
/// gates.
pub fn sample_p2a_batch_with_values(batch: usize, value_bytes: usize) -> PaxosMsg {
    let commands: Vec<Command> = (0..batch as u64)
        .map(|i| Command {
            id: RequestId {
                client: NodeId(100 + (i % 8) as u32),
                seq: i + 1,
            },
            op: Operation::Put(i % 1024, Value::zeros(value_bytes)),
        })
        .collect();
    PaxosMsg::P2aBatch {
        ballot: Ballot::new(1, NodeId(0)),
        first_slot: 42,
        commands: commands.into(),
        commit_up_to: 42,
    }
}

/// Encode `msg` into a fresh buffer (the per-send cost pre-pooling).
pub fn encode_message(msg: &PaxosMsg) -> Vec<u8> {
    msg.encode()
}

/// Decode a frame back into a message (the per-receive cost). The frame
/// arrives as [`Bytes`] — the form the net substrate hands decoders —
/// so a value inside the result is a zero-copy slice of it unless the
/// frame's buffer dwarfs the value (`simnet::wire::VALUE_PIN_RATIO`).
pub fn decode_message(frame: &Bytes) -> PaxosMsg {
    PaxosMsg::decode_frame(frame).expect("harness frames are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retained_ratio_sees_windows_and_not_copies() {
        // 8 B values are copied out of their 64 KiB receive buffers;
        // 4 KiB ones stay windows into a frame buffer of their wave's
        // own length, which holds little besides them.
        assert_eq!(retained_backing_ratio(4, 16, 8), 1.0);
        let ratio = retained_backing_ratio(4, 16, 4096);
        assert!((1.0..=1.01).contains(&ratio), "{ratio}");
    }
}
