//! End-to-end state-machine correctness: closed-loop clients keep two
//! requests each in flight over three keys, and the run's client
//! history must be linearizable — every read sees the latest write
//! before it, through the serialized log (the single conflict domain
//! the paper's protocols provide).

use paxi::{Experiment, ProtocolSpec, Workload};
use paxos::PaxosConfig;
use pigpaxos::PigConfig;
use simnet::SimDuration;

fn check_protocol<P: ProtocolSpec>(proto: P, n: usize) {
    let r = Experiment::lan(proto, n)
        .clients(3)
        .client_pipeline(2)
        .workload(Workload {
            num_keys: 3,
            ..Workload::paper_default()
        })
        .warmup(SimDuration::ZERO)
        .measure(SimDuration::from_millis(500))
        .check_linearizability()
        .run_sim(99);
    assert!(
        r.protocol.violations().is_empty(),
        "{:?}",
        r.protocol.violations()
    );
    let h = r.client.history.expect("checked");
    assert!(h.linearizable(), "{:?}", h.violations);
    assert!(h.reads >= 50 && h.ops - h.reads >= 50, "{h:?}");
}

#[test]
fn paxos_read_your_writes() {
    check_protocol(PaxosConfig::lan(), 5);
}

#[test]
fn pigpaxos_read_your_writes() {
    check_protocol(PigConfig::lan(3), 9);
}

#[test]
fn pigpaxos_two_groups_read_your_writes() {
    check_protocol(PigConfig::lan(2), 5);
}
