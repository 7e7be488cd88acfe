//! # paxi — a level playground for consensus protocols
//!
//! Rust counterpart of the Paxi framework the PigPaxos paper builds on:
//! everything a replication protocol needs *except* the protocol itself.
//!
//! ## Running experiments: [`Experiment`]
//!
//! The public entry point is the [`Experiment`] builder, which makes
//! the experimental axes orthogonal:
//!
//! | axis | type | examples |
//! |---|---|---|
//! | protocol | any [`ProtocolSpec`] | `PaxosConfig`, `PigConfig`, `EpaxosConfig` |
//! | topology | [`simnet::Topology`] | `Topology::lan(25)`, 3-region WAN |
//! | workload & clients | [`Workload`] + builder knobs | read ratio, payload, pipeline |
//! //! | substrate | a run method | [`Experiment::run_sim`], [`Experiment::run_threads`], [`Experiment::run_net`] |
//!
//! ```text
//! use paxi::Experiment;
//! use pigpaxos::PigConfig;
//!
//! let result = Experiment::lan(PigConfig::lan(3), 25)
//!     .clients(40)
//!     .run_sim(paxi::DEFAULT_SEED);
//! assert!(result.protocol.violations().is_empty());
//! ```
//!
//! Sweeps compose as plain loops over the orthogonal axes — one relay
//! group count per iteration, one payload size, one protocol — instead
//! of one hand-wired binary per figure.
//!
//! ## The pieces underneath
//!
//! - [`Ballot`], [`Log`], [`KvStore`]: consensus bookkeeping and the
//!   replicated state machine.
//! - [`SnapshotConfig`] / [`Snapshot`]: log compaction policy and the
//!   state-machine snapshots that bound replica memory and let lagging
//!   peers catch up after the log prefix is truncated (see the
//!   [`snapshot`] module docs).
//! - [`quorum`]: majority, flexible (Howard et al.), and EPaxos fast
//!   quorums, plus vote tracking.
//! - [`Envelope`] / [`Replica`] / [`ReplicaActor`]: the wire format and
//!   the adapter that runs a protocol replica on any [`simnet::Actor`]
//!   substrate (the simulator, or `pig-runtime` threads).
//! - [`Workload`] / [`ClosedLoopClient`]: the benchmark workload
//!   generator and closed-loop clients.
//! - [`SafetyMonitor`]: machine-checks agreement on every run;
//!   [`history`]: checks what the clients saw for linearizability
//!   ([`Experiment::check_linearizability`]).
//! - [`experiment`]: the one builder; [`harness`]: the one run engine
//!   behind it (deploy → drive → assemble); [`conformance`]: the replica checks
//!   every single-leader protocol's tests share.
//!
//! Protocol crates (`paxos`, `pigpaxos`, `epaxos`) implement
//! [`Replica`] on top of these pieces — exactly as the paper's
//! protocols were implemented inside Paxi — and expose their config
//! types as [`ProtocolSpec`]s.

#![warn(missing_docs)]

pub mod ballot;
pub mod batch;
pub mod client;
pub mod cluster;
pub mod command;
pub mod conformance;
pub mod envelope;
pub mod experiment;
pub mod harness;
pub mod history;
pub mod kv;
pub mod log;
pub mod metrics;
pub mod nemesis;
pub mod quorum;
pub mod replica;
pub mod safety;
pub mod scenario;
pub mod session;
pub mod snapshot;
pub mod wire;
pub mod workload;

pub use ballot::Ballot;
pub use batch::{BatchConfig, BatchPush, Batcher, RateEstimator, ReplyBatcher, ReplyCoalesce};
pub use client::{ClientRecorder, ClosedLoopClient, Sample, TargetPolicy};
pub use cluster::ClusterConfig;
pub use command::{ClientReply, ClientRequest, Command, Key, Operation, RequestId, Value};
pub use envelope::{Envelope, ProtoMessage};
pub use experiment::{Experiment, ProtocolSpec};
pub use harness::{
    ClientResult, LoadPoint, ProtocolResult, RunResult, TraceSummary, TransportResult, DEFAULT_SEED,
};
pub use history::HistoryCheck;
pub use kv::KvStore;
pub use log::{Log, LogEntry};
pub use nemesis::{Nemesis, NemesisLog};
pub use quorum::{fast_quorum, majority, FlexibleQuorum, VoteTracker};
pub use replica::{Ctx, Replica, ReplicaActor, ReplicaCtx};
pub use safety::SafetyMonitor;
pub use scenario::{Expectations, Fault, FaultEvent, Scenario, ScenarioError, TopologyKind};
pub use session::{SessionTable, DEFAULT_SESSION_WINDOW};
pub use snapshot::{CompactionStats, Snapshot, SnapshotConfig};
pub use workload::{KeyDistribution, Workload};
