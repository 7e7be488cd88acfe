//! Allocation gate over the profiled hot paths.
//!
//! Installs the counting global allocator and drives the component
//! harnesses in [`pigpaxos_bench::hotpath`], reporting *allocations per
//! operation* for:
//!
//! - the leader decide/execute pipeline at B=16 on a 5-replica cluster
//!   (the paper's bottleneck path — `leader_batch_allocs_per_op`); the
//!   replica proposes, accepts and counts every batch size, one
//!   command included, through the same functions,
//! - one PigPaxos relay aggregation round (`relay_aggregate_allocs_per_op`),
//! - `Wire` encode/decode of a 16-command `P2aBatch`
//!   (`wire_encode_allocs_per_op`, `wire_decode_allocs_per_op`),
//! - zero-copy decode of the same batch with 4 KiB values
//!   (`wire_decode_large_allocs_per_op`,
//!   `wire_decode_large_kb_per_op`): with `Bytes`-backed frames the
//!   payloads ride out of the decoder as slices, so allocated bytes per
//!   decode stay O(1) in the value size instead of O(batch × value),
//! - what those slices cost once they are *kept*
//!   (`retained_backing_bytes_per_value_byte`): the memory a follower
//!   holds resident per byte of 8-byte value in its log, store and
//!   session table, when the values arrived as windows of 64 KiB
//!   receive buffers. Allocation counts cannot see this — a window
//!   allocates nothing and pins everything.
//!
//! Three figures are additionally checked in-process: the leader number
//! against the pre-optimization figure recorded below (≥ 25%
//! reduction), the `P2aBatch` decode against
//! [`MAX_DECODE_ALLOCS_PER_OP`] — the zero-copy pipeline's budget — and
//! the retained ratio against [`MAX_RETAINED_BYTES_PER_VALUE_BYTE`].
//! `--json <path>` writes the metrics for `perf_gate` (vs
//! `BENCH_alloc_baseline.json`); `--quick` shortens the run (counts are
//! per-op, so quick mode barely changes them).

use pigpaxos_bench::alloc::{self, CountingAllocator};
use pigpaxos_bench::hotpath::{self, LeaderPipeline};
use pigpaxos_bench::{Opts, Report};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Leader-side allocations per decided command measured on the tree
/// *before* the hot-path work of this change (B=16, n=5, 8192 commands,
/// steady state), with this same binary: the `BTreeMap<slot, Vec>` vote
/// grouping, per-slot `vec![own]`, per-slot `HashSet` vote tables, and
/// per-peer command-vector clones were all still in place. The gate
/// below holds the optimized pipeline to at least a 25% reduction
/// against this figure (`--quick` measures 0.39 allocs/op, a 95%
/// reduction).
const LEGACY_LEADER_ALLOCS_PER_OP: f64 = 7.980;

/// Required drop vs. [`LEGACY_LEADER_ALLOCS_PER_OP`].
const REQUIRED_REDUCTION: f64 = 0.25;

/// Ceiling on allocations per decoded `P2aBatch` frame. Before the
/// `Bytes`-backed decode pipeline this path cost 18 allocs/op (one
/// `Vec` copy per value plus per-command rebuilds); zero-copy slicing
/// leaves only the command vector and its `Arc<[Command]>` conversion.
const MAX_DECODE_ALLOCS_PER_OP: f64 = 4.0;

/// Ceiling on resident bytes per retained byte of small value. A value
/// that owns its bytes scores 1; 8 B values kept as windows into their
/// 64 KiB receive buffers, 15 to a buffer, score 546.
const MAX_RETAINED_BYTES_PER_VALUE_BYTE: f64 = 2.0;

fn main() {
    let opts = Opts::from_env();
    let quick = opts.quick;
    let total_cmds: u64 = if quick { 1024 } else { 8192 };
    let batch = 16usize;
    let n = 5usize;

    // Leader pipeline: warm up out of steady-state cold starts, then
    // measure the whole run.
    let mut pipe = LeaderPipeline::new(n, batch);
    pipe.run(8); // warmup: container capacities reach steady state
    let waves = (total_cmds as usize) / batch;
    let (decided, leader_allocs) = pipe.run(waves);
    let leader_per_op = leader_allocs as f64 / decided as f64;

    // Relay aggregation: one P2Span round over a 3-member group.
    let ballot = paxi::Ballot::new(1, simnet::NodeId(0));
    let rounds = 256u64;
    let ((), relay) = alloc::measure(|| {
        for r in 0..rounds {
            let f = hotpath::relay_aggregate_round(ballot, 1 + r * batch as u64, batch, 3);
            std::hint::black_box(&f);
        }
    });
    // Per aggregated command: `rounds` rounds × batch slots each.
    let relay_per_op = relay.allocs as f64 / (rounds * batch as u64) as f64;

    // Wire encode/decode of a B=16 wave message. The frame is frozen
    // into `Bytes` once, outside the loop, as the net substrate's
    // reader does per receive buffer — but into a buffer of its own
    // size, so its values stay slices; `retained` below decodes out of
    // 64 KiB buffers, where small values are copied.
    let msg = hotpath::sample_p2a_batch(batch);
    let frame = simnet::Bytes::from(hotpath::encode_message(&msg));
    let iters = 512u64;
    let ((), enc) = alloc::measure(|| {
        for _ in 0..iters {
            std::hint::black_box(hotpath::encode_message(&msg));
        }
    });
    let ((), dec) = alloc::measure(|| {
        for _ in 0..iters {
            std::hint::black_box(hotpath::decode_message(&frame));
        }
    });
    let encode_per_op = enc.allocs as f64 / iters as f64;
    let decode_per_op = dec.allocs as f64 / iters as f64;

    // Same decode with 4 KiB values: allocs/op must not grow with the
    // value size, and allocated KiB/op must stay far below the 64 KiB
    // of payload in the frame — the zero-copy proof.
    let large_value = 4096usize;
    let large = hotpath::sample_p2a_batch_with_values(batch, large_value);
    let large_frame = simnet::Bytes::from(hotpath::encode_message(&large));
    let ((), dec_large) = alloc::measure(|| {
        for _ in 0..iters {
            std::hint::black_box(hotpath::decode_message(&large_frame));
        }
    });
    let decode_large_per_op = dec_large.allocs as f64 / iters as f64;
    let decode_large_kb_per_op = dec_large.bytes as f64 / iters as f64 / 1024.0;

    // What a follower holds resident for the 8-byte values it keeps.
    let retained = hotpath::retained_backing_ratio(if quick { 32 } else { 256 }, batch, 8);

    let reduction = 1.0 - leader_per_op / LEGACY_LEADER_ALLOCS_PER_OP;

    println!(
        "alloc_gate (B={batch}, n={n}, {decided} commands decided; \
         legacy leader allocs/op {LEGACY_LEADER_ALLOCS_PER_OP:.3})"
    );
    let metrics = [
        ("leader_batch_allocs_per_op", leader_per_op),
        ("leader_batch_alloc_reduction", reduction),
        ("relay_aggregate_allocs_per_op", relay_per_op),
        ("wire_encode_allocs_per_op", encode_per_op),
        ("wire_decode_allocs_per_op", decode_per_op),
        ("wire_decode_large_allocs_per_op", decode_large_per_op),
        ("wire_decode_large_kb_per_op", decode_large_kb_per_op),
        ("retained_backing_bytes_per_value_byte", retained),
    ];
    let report = Report {
        tables: Vec::new(),
        metrics: metrics.map(|(key, value)| (key.to_string(), value)).into(),
    };
    print!("{}", report.render(opts.csv));
    opts.write_json(&report.metrics);

    assert!(
        reduction >= REQUIRED_REDUCTION,
        "leader batch path allocs/op {leader_per_op:.3} is only {:.1}% below the \
         pre-optimization {LEGACY_LEADER_ALLOCS_PER_OP:.3} (need ≥{:.0}%)",
        reduction * 100.0,
        REQUIRED_REDUCTION * 100.0,
    );
    for (what, per_op) in [
        ("P2aBatch decode", decode_per_op),
        ("P2aBatch large-value decode", decode_large_per_op),
    ] {
        assert!(
            per_op <= MAX_DECODE_ALLOCS_PER_OP,
            "{what} costs {per_op:.3} allocs/op \
             (zero-copy budget is {MAX_DECODE_ALLOCS_PER_OP})",
        );
    }
    assert!(
        retained <= MAX_RETAINED_BYTES_PER_VALUE_BYTE,
        "a follower holds {retained:.1} bytes resident per byte of 8 B value it keeps \
         (budget {MAX_RETAINED_BYTES_PER_VALUE_BYTE}): small values pin their receive buffers",
    );
    println!(
        "alloc_gate: OK (≥{:.0}% leader reduction held, decode ≤{MAX_DECODE_ALLOCS_PER_OP} allocs/op, \
         ≤{MAX_RETAINED_BYTES_PER_VALUE_BYTE} bytes held per small-value byte)",
        REQUIRED_REDUCTION * 100.0
    );
}
