//! Allocation-regression tier: the counting global allocator from
//! `pigpaxos_bench::alloc` is installed for this whole test binary, and
//! the batched leader pipeline must decide commands within a recorded
//! allocation budget — at three levels:
//!
//! 0. the relay's first look at a vote message it is not aggregating
//!    (every uplink arriving at the leader): zero allocations,
//! 1. the component-level hot path (the same harness `alloc_gate`
//!    measures, so a regression here pinpoints the protocol layer),
//! 2. a full `Experiment` on the deterministic simulator,
//! 3. the same `Experiment` on the OS-thread substrate (the readiness
//!    loops with in-memory transport — runtime plumbing but no
//!    sockets), and
//! 4. the TCP-socket substrate, probed *differentially*: the same
//!    experiment with 8-byte and 1 KiB values. With the `Bytes`-backed
//!    decode pipeline a large received payload is sliced out of its
//!    frame, never copied, so growing the value to 1 KiB must not add a
//!    per-socket-hop copy (each op's value crosses ≥ 5 sockets on a
//!    5-replica cluster — one copy per hop would add ≥ 5 allocs/op).
//!    It is the *small* value that pays for an allocation of its own at
//!    every hop (`simnet::wire::VALUE_PIN_RATIO`): left as a window it
//!    would keep a 64 KiB receive buffer resident for as long as the
//!    log or the store holds it.
//!
//! The bounds are deliberately generous multiples of the measured
//! post-optimization figures (see `BENCH_alloc_baseline.json`): they
//! exist to catch the *class* of regression where a per-command clone
//! or per-vote container sneaks back into the pipeline (each such slip
//! adds ≥ 1 alloc/op), not to pin exact counts across allocator or
//! stdlib changes.
//!
//! Everything runs inside ONE `#[test]` so no parallel test thread
//! contaminates the process-global counters.

use paxi::{BatchConfig, Experiment};
use paxos::PaxosConfig;
use pigpaxos_bench::alloc::{self, CountingAllocator};
use pigpaxos_bench::hotpath::LeaderPipeline;
use simnet::SimDuration;
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Component leader pipeline bound (measured ~1.04 allocs/op at B=16,
/// n=5; the pre-optimization tree sat at ~7.98).
const COMPONENT_BOUND: f64 = 3.0;

fn b16_experiment() -> Experiment<PaxosConfig> {
    let cfg = PaxosConfig::lan().with_batch(BatchConfig::new(16, SimDuration::from_micros(200)));
    Experiment::lan(cfg, 5).clients(8).client_pipeline(4)
}

/// What `RelayTree` does with a `P2bBatch` uplink at a node that has
/// no aggregation open for it: split it into round key + votes, ask the
/// relay table, put it back together for the Paxos core. Copying the
/// vote vector to ask would cost every uplink an allocation.
fn first_look_allocs() -> u64 {
    use pigpaxos::relay::{RelayTable, VoteSet};
    let ballot = paxi::Ballot::new(1, simnet::NodeId(0));
    let uplink = paxos::PaxosMsg::P2bBatch {
        ballot,
        first_slot: 0,
        last_slot: 15,
        votes: (0..16)
            .map(|slot| paxos::P2bVote {
                node: simnet::NodeId(1),
                ballot,
                slot,
                ok: true,
            })
            .collect(),
    };
    let table = RelayTable::new();
    let (back, d) = alloc::measure(|| {
        let (key, votes) = VoteSet::from_message(uplink).expect("a vote message");
        assert!(!table.expects(key, simnet::NodeId(1)));
        votes.into_message(key)
    });
    assert!(matches!(back, paxos::PaxosMsg::P2bBatch { votes, .. } if votes.len() == 16));
    d.allocs
}

#[test]
fn batched_pipeline_stays_within_alloc_budget() {
    // --- The leader's uplink path through the relay seam: by move. ---
    assert_eq!(first_look_allocs(), 0, "first look must not copy votes");

    // --- Component level: exactly the alloc_gate hot path. ---
    let mut pipe = LeaderPipeline::new(5, 16);
    pipe.run(8); // steady-state warmup
    let (decided, allocs) = pipe.run(1024 / 16);
    let per_op = allocs as f64 / decided as f64;
    println!("component leader pipeline: {per_op:.3} allocs/op ({decided} decided)");
    assert!(
        per_op <= COMPONENT_BOUND,
        "leader hot path regressed: {per_op:.3} allocs/op > {COMPONENT_BOUND}"
    );

    // --- Simulator substrate: a whole experiment, every layer in. ---
    let exp = b16_experiment()
        .warmup(SimDuration::from_millis(200))
        .measure(SimDuration::from_millis(800));
    let (r, d) = alloc::measure(|| exp.run_sim(7));
    assert!(
        r.protocol.violations().is_empty(),
        "sim: {:?}",
        r.protocol.violations()
    );
    assert!(
        r.protocol.decided() >= 1000,
        "sim must decide >= 1k commands: {}",
        r.protocol.decided()
    );
    let sim_per_op = d.allocs as f64 / r.protocol.decided() as f64;
    println!(
        "sim substrate: {sim_per_op:.1} allocs/op ({} decided, {} allocs)",
        r.protocol.decided(),
        d.allocs
    );

    // --- Thread substrate: real threads + in-memory transport. ---
    let exp = b16_experiment()
        .warmup(SimDuration::from_millis(100))
        .measure(SimDuration::from_millis(400));
    let (r, d) = alloc::measure(|| exp.run_threads(7, Duration::from_millis(700)));
    assert!(
        r.protocol.violations().is_empty(),
        "threads: {:?}",
        r.protocol.violations()
    );
    assert!(r.protocol.decided() > 0, "threads must make progress");
    let thr_per_op = d.allocs as f64 / r.protocol.decided() as f64;
    println!(
        "threads substrate: {thr_per_op:.1} allocs/op ({} decided, {} allocs)",
        r.protocol.decided(),
        d.allocs
    );

    // --- Net substrate: TCP sockets + zero-copy decode, probed
    // differentially over the payload size. ---
    let run_net = |payload: usize| {
        let exp = b16_experiment()
            .workload(paxi::Workload::write_only(8).value_size(payload))
            .warmup(SimDuration::from_millis(100))
            .measure(SimDuration::from_millis(400));
        let (r, d) = alloc::measure(|| exp.run_net(7, Duration::from_millis(700)));
        assert!(
            r.protocol.violations().is_empty(),
            "net p={payload}: {:?}",
            r.protocol.violations()
        );
        assert!(
            r.protocol.decided() > 200,
            "net p={payload} must make progress: {}",
            r.protocol.decided()
        );
        let net = r
            .transport
            .net
            .as_ref()
            .expect("run_net reports its transport");
        assert_eq!(
            (net.decode_errors, net.frames_dropped),
            (0, 0),
            "net p={payload}: decode errors / dropped frames"
        );
        (
            d.allocs as f64 / r.protocol.decided() as f64,
            r.protocol.decided(),
        )
    };
    let (net_small, small_decided) = run_net(8);
    let (net_large, large_decided) = run_net(1024);
    let delta = net_large - net_small;
    println!(
        "net substrate: {net_small:.1} allocs/op at 8 B values ({small_decided} decided), \
         {net_large:.1} allocs/op at 1 KiB values ({large_decided} decided), delta {delta:+.1}"
    );

    // Substrate bounds set after the printed measurements above were
    // recorded on the optimized tree: sim ~4.1/op and threads ~4.6/op
    // (event queue, workload generator, and in-memory transport
    // included). The threads denominator is wall-clock-sized, so both
    // bounds leave several× headroom.
    assert!(
        sim_per_op <= 25.0,
        "sim substrate regressed: {sim_per_op:.1} allocs/op"
    );
    assert!(
        thr_per_op <= 50.0,
        "thread substrate regressed: {thr_per_op:.1} allocs/op"
    );
    // The zero-copy assertion. A decode path that memcpy'd every large
    // value into a fresh Vec would cost one allocation per value per
    // receiving socket (≥ 5 allocs/op here); slicing the frame costs
    // none, so 1 KiB values must not cost more allocations than 8 B
    // ones. They cost fewer (measured -9/op): an 8 B value is copied out
    // at each hop, by design — the window it would otherwise be pins its
    // whole receive buffer, which showed as hundreds of MiB resident
    // and a fresh 64 KiB buffer per read, and in no allocation *count*.
    // `alloc_gate`'s `retained_backing_bytes_per_value_byte` watches
    // that side.
    assert!(
        delta <= 2.5,
        "net substrate decode allocates per large value: 1 KiB values cost \
         {delta:+.1} allocs/op over 8 B values \
         (a copy-per-hop pipeline adds >= 5; zero-copy adds none)"
    );
}
