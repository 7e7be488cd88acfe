//! # pigpaxos — relay/aggregate communication for single-leader consensus
//!
//! Rust reproduction of *PigPaxos: Devouring the Communication
//! Bottlenecks in Distributed Consensus* (Charapko, Ailijiang, Demirbas;
//! SIGMOD 2021).
//!
//! PigPaxos is Multi-Paxos with the leader↔follower communication
//! replaced by a dynamically rotating relay tree:
//!
//! 1. Followers are statically partitioned into **relay groups**
//!    ([`RelayGroups`], built from a [`GroupSpec`]).
//! 2. Each round the leader sends its phase message to **one random
//!    node per group**, which relays it to the rest of the group.
//! 3. Relays **aggregate** their group's responses into a single
//!    combined message back to the leader ([`relay::RelayTable`]).
//!
//! Decision-making is untouched, by construction: a [`PigReplica`] *is*
//! the `paxos` crate's replica, [`paxos::Replica`], instantiated with
//! this crate's [`RelayTree`] as its [`paxos::Dissemination`]. Every
//! ballot, quorum, commit, catch-up and batching decision is the core's
//! single copy; this crate supplies only the relay groups, the
//! aggregation table, and the quorum-read proxy — so Paxos's safety
//! argument carries over, as the paper argues in §3.3.
//!
//! Optimizations from the paper also implemented here:
//! - relay timeouts and leader re-dissemination through fresh relays
//!   (§3.4 fault tolerance),
//! - partial response collection thresholds (§4.2),
//! - dynamic relay-group reshuffling (§4.1),
//! - multi-level relay trees (§6.3),
//! - region-aligned groups for WAN deployments (§6.4) via
//!   [`GroupSpec::Explicit`].
//!
//! ## Quickstart
//!
//! ```
//! use paxi::Experiment;
//! use pigpaxos::PigConfig;
//! use simnet::SimDuration;
//!
//! // 9 replicas in 3 relay groups, 4 closed-loop clients:
//! let result = Experiment::lan(PigConfig::lan(3), 9)
//!     .clients(4)
//!     .warmup(SimDuration::from_millis(200))
//!     .measure(SimDuration::from_millis(300))
//!     .run_sim(paxi::DEFAULT_SEED);
//! assert!(result.protocol.violations().is_empty());
//! assert!(result.client.throughput > 0.0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod groups;
pub mod messages;
pub mod pqr;
pub mod probe_batch;
pub mod relay;
pub mod replica;

pub use config::PigConfig;
pub use groups::{GroupSpec, RelayGroups};
pub use messages::{PigMsg, RelayPlan};
pub use pqr::{PendingReads, ReadOutcome};
pub use probe_batch::{ProbeBatcher, ProbePush};
pub use replica::{build_plan, PigReplica, RelayTree};
