//! Geo-replicated deployment: 15 replicas across Virginia, California,
//! and Oregon with one relay group per region (the paper's §6.4 setup),
//! compared against direct Multi-Paxos on identical topology.
//!
//! Shows the two WAN effects the paper reports:
//! 1. latency is RTT-dominated, so PigPaxos costs ~nothing extra;
//! 2. PigPaxos sends one message per remote *region* instead of one per
//!    remote *replica* — a 5x paid-traffic saving at 5 nodes/region.
//!
//! ```sh
//! cargo run --release --example wan_deployment
//! ```

use paxi::Experiment;
use paxos::PaxosConfig;
use pigpaxos::{GroupSpec, PigConfig};
use simnet::{NodeId, SimDuration};

fn main() {
    let quick = std::env::var_os("PIG_QUICK").is_some();
    let n = 15;
    let measure = SimDuration::from_secs(if quick { 1 } else { 4 });

    let paxos_exp = Experiment::wan(PaxosConfig::wan(), n)
        .clients(100)
        .warmup(SimDuration::from_secs(1))
        .measure(measure);

    println!(
        "Topology: {} nodes over {} regions; leader + clients in {}",
        n,
        paxos_exp.topology().num_regions(),
        paxos_exp.topology().region_name(0)
    );

    // One relay group per region (leader excluded from its own group).
    let groups = GroupSpec::per_region(paxos_exp.topology(), NodeId(0));

    let paxos = paxos_exp.run_sim(paxi::DEFAULT_SEED);
    let pig = Experiment::wan(PigConfig::wan(groups), n)
        .clients(100)
        .warmup(SimDuration::from_secs(1))
        .measure(measure)
        .run_sim(paxi::DEFAULT_SEED);

    let cross_region =
        |r: &paxi::RunResult| r.transport.cross_region_msgs_per_op.expect("simulated");
    for (name, r) in [("Paxos", &paxos), ("PigPaxos", &pig)] {
        assert!(r.protocol.violations().is_empty());
        println!(
            "{name:>9}: {:>6.0} req/s   mean {:>6.1} ms   cross-region msgs/op {:>5.2}",
            r.client.throughput,
            r.client.mean_latency_ms,
            cross_region(r)
        );
    }
    println!(
        "\nWAN traffic saving: {:.1}x fewer cross-region messages per op",
        cross_region(&paxos) / cross_region(&pig)
    );
}
