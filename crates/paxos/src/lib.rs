//! # paxos — Multi-Paxos baseline
//!
//! The single-leader Multi-Paxos the PigPaxos paper compares against
//! (paper §2.1): a stable leader runs phase-1 once, proposes each command
//! with a phase-2a fanned out directly to all followers, and piggybacks
//! phase-3 commits on subsequent phase-2a/heartbeat messages via a commit
//! watermark.
//!
//! The protocol core is [`Replica<D>`]: the [`Acceptor`] and [`Leader`]
//! role state machines plus every handler and timer, generic over a
//! [`Dissemination`] — the leader↔follower communication flow. [`Direct`]
//! (this crate) makes it Multi-Paxos; the `pigpaxos` crate supplies a
//! relay tree and nothing else — the paper's claim that PigPaxos
//! "required almost no changes to the core Paxos code", as a type
//! parameter.

#![warn(missing_docs)]

pub mod acceptor;
pub mod batching;
pub mod catchup;
pub mod config;
pub mod leader;
pub mod messages;
pub mod replica;

pub use acceptor::{Acceptor, CommitAdvance, LearnAnswer};
pub use batching::{
    accept_batch, accept_own, apply_batch_votes, propose_batch, Batch, BatchAccept, BatchLane,
    Proposal, VoteWave,
};
pub use config::PaxosConfig;
pub use leader::{Leader, Outstanding, Phase1Outcome};
pub use messages::{
    P1bVote, P2bVote, PaxosMsg, QrProbe, QrProbeVote, QrVoteEntry, QR_PROBE_LABELS,
};
pub use replica::{Direct, Dissemination, Executed, PaxosReplica, Reach, Replica, Timer};
