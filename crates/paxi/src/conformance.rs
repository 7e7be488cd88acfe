//! What any single-leader [`ProtocolSpec`] must do, checked once.
//!
//! "Commits", "survives a follower crash" and "re-elects after a leader
//! crash" are promises of the replica, not of how it disseminates, so
//! they live here and each protocol crate's tests call [`check_replica`]
//! with their own configurations, keeping only the assertions that are
//! about *their* protocol (leader message load, thrifty quorums, relay
//! timeouts, …).

use crate::client::TargetPolicy;
use crate::experiment::{Experiment, ProtocolSpec};
use crate::harness::DEFAULT_SEED;
use simnet::{Control, NodeId, SimDuration};

/// Run `proto` on an `n`-replica LAN with `clients` closed-loop clients
/// through three simulated runs and panic on the first broken promise:
/// a healthy cluster commits; one crashed follower does not stop it; a
/// crashed leader is replaced and clients find the new one. Agreement
/// is machine-checked on every run.
pub fn check_replica<P: ProtocolSpec>(proto: P, n: usize, clients: usize) {
    let name = proto.protocol_name();
    let exp = Experiment::lan(proto, n)
        .clients(clients)
        .warmup(SimDuration::from_millis(300))
        .measure(SimDuration::from_millis(700));
    let at = SimDuration::from_millis;

    let r = exp.run_sim(DEFAULT_SEED);
    assert!(
        r.protocol.violations().is_empty(),
        "{name} n={n}: {:?}",
        r.protocol.violations()
    );
    assert!(
        r.client.throughput > 100.0,
        "{name} n={n}: {} ops/s",
        r.client.throughput
    );
    assert!(
        r.protocol.decided() > 100 && r.client.samples > 0,
        "{name} n={n}: reads and writes complete"
    );
    assert!(
        r.client.mean_latency_ms > 0.1,
        "{name} n={n}: latency includes the RTT"
    );

    let follower = NodeId(n as u32 - 1);
    let r = exp
        .clone()
        .fault(at(100), Control::Crash(follower))
        .run_sim(DEFAULT_SEED);
    assert!(
        r.protocol.violations().is_empty(),
        "{name} n={n}: {:?}",
        r.protocol.violations()
    );
    assert!(
        r.client.throughput > 100.0,
        "{name} n={n}: one crashed follower must not halt progress ({} ops/s)",
        r.client.throughput
    );

    // Clients retry toward random nodes and follow redirects.
    let everyone = (0..n as u32).map(NodeId).collect();
    let r = exp
        .measure(SimDuration::from_secs(3))
        .target(TargetPolicy::Random(everyone))
        .fault(at(700), Control::Crash(NodeId(0)))
        .run_sim(DEFAULT_SEED);
    assert!(
        r.protocol.violations().is_empty(),
        "{name} n={n}: {:?}",
        r.protocol.violations()
    );
    assert!(
        r.client.throughput > 50.0,
        "{name} n={n}: a new leader must emerge after the old one crashes ({} ops/s)",
        r.client.throughput
    );
}
