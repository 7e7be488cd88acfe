//! The sweep CI gates on: it `assert!`s its floors in-process and
//! returns the metrics `perf_gate` compares against a checked-in
//! baseline. The simulation is deterministic, so an unchanged tree
//! reproduces the baseline bit-for-bit — which is also the proof that
//! refactors around the harness preserve behaviour.

use super::{checked, pqr_cfg, pqr_probed};
use crate::Cell::Float;
use crate::{Opts, Report, Table};
use paxi::{BatchConfig, Experiment, ProtocolSpec, RunResult, SnapshotConfig};
use paxos::PaxosConfig;
use pigpaxos::PigConfig;
use simnet::SimDuration;

const BATCH_SIZES: &[usize] = &[1, 2, 4, 8, 16, 32];
const NODES: usize = 5;
const CLIENTS: usize = 32;

/// The v2 client population: same 32 outstanding requests, but
/// multiplexed 8-deep over 4 connections so reply coalescing has
/// per-destination waves to merge (one connection ≈ several user
/// sessions).
fn pipelined<P: ProtocolSpec>(o: &Opts, proto: P) -> Experiment<P> {
    let exp = o.lan(proto, NODES).clients(4).client_pipeline(8);
    exp.capture_trace()
}

fn saturated<P: ProtocolSpec>(o: &Opts, proto: P) -> Experiment<P> {
    o.lan(proto, NODES).clients(CLIENTS).capture_trace()
}

fn batch_cfg(max_batch: usize) -> BatchConfig {
    if max_batch <= 1 {
        BatchConfig::disabled()
    } else {
        BatchConfig::new(max_batch, SimDuration::from_micros(200))
    }
}

/// PigPaxos with the PR-1 behaviour: fixed batching only, no reply or
/// relay-round coalescing.
fn pig_v1(max_batch: usize) -> PigConfig {
    let mut cfg = PigConfig::lan(2).with_batch(batch_cfg(max_batch));
    cfg.relay_coalesce_window = SimDuration::ZERO;
    cfg
}

/// PigPaxos with the full batching-v2 pipeline.
fn pig_v2(batch: BatchConfig) -> PigConfig {
    PigConfig::lan(2).with_batch(batch.with_reply_coalescing(SimDuration::ZERO))
}

/// Batching pipeline sweep: throughput, latency, and per-hop leader
/// message amortization for direct Multi-Paxos and PigPaxos on a 5-node
/// LAN cluster.
///
/// Five sections:
///
/// 1. **Fixed sweep** (`max_batch` ∈ {1..32}, the PR-1 experiment):
///    leader-sent *protocol* messages per committed command must drop
///    ≥ 4× at `B = 16` vs. unbatched — the original acceptance gate.
/// 2. **Batching v2 end-to-end** (pipelined clients): compares the PR-1
///    configuration (fixed `B = 16`, one reply envelope per command,
///    per-round relay uplinks) against the full pipeline — reply
///    coalescing + multi-round relay aggregate coalescing. Gate: total
///    leader-sent messages per command (protocol **and** replies) drop
///    ≥ 2×.
/// 3. **Adaptive sizing**: at low load the EWMA sizer must keep p50
///    within 1.2× of unbatched; under saturation it must amortize like
///    a large fixed batch.
/// 4. **Soak (compaction)**: a snapshot-enabled run reporting peak
///    retained log length and snapshot counts. Every other section runs
///    with snapshots **off** (the `SnapshotConfig` default), so the
///    perf-gate metrics and `BENCH_baseline.json` stay bit-for-bit
///    identical to the pre-compaction tree; the soak keys are new and
///    therefore informational to the gate.
/// 5. **PQR probe batching**: the 9-node / 2-group / 90%-read / 40-
///    client scenario with probe batching off vs on
///    (`PigConfig::with_probe_batch`). Gate: probe messages per
///    operation (`qr_read`+`qr_vote`+`qr_read_batch`+`qr_vote_batch`)
///    drop ≥ 3×. Probe batching is off by default everywhere else, so
///    sections 1–4 and the pre-existing baseline keys are untouched.
///
/// The metrics are what `perf_gate` checks against
/// `BENCH_baseline.json` in CI.
pub fn batch_sweep(o: &Opts) -> Report {
    let columns =
        "series,max_batch,throughput,mean_ms,p99_ms,leader_msgs_per_op,leader_proto_sent_per_op";
    let title = format!(
        "Batching pipeline sweep (max_delay = 200us): {NODES} nodes, {CLIENTS} closed-loop clients"
    );
    let mut sweeps = Table::new(title, columns);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut metric = |key: &str, value: f64| metrics.push((key.to_string(), value));
    let traced = |r: Option<f64>| r.expect("trace captured");
    let trace = |r: &RunResult| r.transport.trace.expect("trace captured");

    // ── 1. Fixed-size sweeps (the PR-1 gate) ──────────────────────────
    let mut sweep = |name: &str, run_one: &dyn Fn(usize) -> RunResult| {
        let mut unbatched = 0.0;
        for &b in BATCH_SIZES {
            let r = run_one(b);
            let sent = trace(&r).leader_proto_sent_per_op;
            sweeps.row([
                name.into(),
                b.into(),
                Float(r.client.throughput, 1),
                Float(r.client.mean_latency_ms, 3),
                Float(r.client.p99_latency_ms, 3),
                Float(r.transport.leader_msgs_per_op, 3),
                Float(sent, 3),
            ]);
            if b == 1 {
                unbatched = sent;
            }
            if b == 16 {
                let reduction = unbatched / sent;
                metric(&format!("{name}_b16_proto_sent_per_op"), sent);
                metric(&format!("{name}_b16_tput"), r.client.throughput);
                metric(&format!("{name}_b16_proto_reduction"), reduction);
                assert!(
                    reduction >= 4.0,
                    "{name}: batching must cut leader-sent protocol messages per command \
                     by >=4x (got {reduction:.2}x)"
                );
            }
        }
    };
    sweep("paxos", &|b| {
        let cfg = PaxosConfig::lan().with_batch(batch_cfg(b));
        checked(&format!("paxos B={b}"), saturated(o, cfg))
    });
    sweep("pigpaxos_r2", &|b| {
        checked(&format!("pigpaxos B={b}"), saturated(o, pig_v1(b)))
    });

    // ── 2. Batching v2 end-to-end (reply + relay-round coalescing) ────
    let v1 = checked("v1", pipelined(o, pig_v1(16)));
    let v2 = checked("v2", pipelined(o, pig_v2(batch_cfg(16))));
    let v1_total = trace(&v1).leader_sent_per_op();
    let v2_total = trace(&v2).leader_sent_per_op();
    let total_reduction = v1_total / v2_total;
    metric("v1_total_sent_per_op", v1_total);
    metric("v2_total_sent_per_op", v2_total);
    metric("v2_total_reduction", total_reduction);
    metric("v2_tput", v2.client.throughput);
    metric("v2_uplink_recv_per_op", trace(&v2).leader_proto_recv_per_op);
    assert!(
        total_reduction >= 2.0,
        "batching v2 must cut total leader-sent messages per command >=2x vs PR-1 \
         at B=16 (got {total_reduction:.2}x)"
    );

    // ── 3. Adaptive sizing (max_batch 32, window 200us) ───────────────
    let adaptive = BatchConfig::adaptive(32, SimDuration::from_micros(200));
    // Low load: 2 clients, no pipeline — adaptive must not add latency.
    let unbatched_low = checked("unbatched baseline", saturated(o, pig_v1(1)).clients(2));
    let adaptive_low = saturated(o, pig_v2(adaptive.clone())).clients(2);
    let adaptive_low = checked("adaptive low", adaptive_low);
    metric("adaptive_low_p50_ms", adaptive_low.client.p50_latency_ms);
    metric("unbatched_low_p50_ms", unbatched_low.client.p50_latency_ms);
    assert!(
        adaptive_low.client.p50_latency_ms <= unbatched_low.client.p50_latency_ms * 1.2,
        "adaptive batching must keep low-load p50 within 1.2x of unbatched: \
         {:.3}ms vs {:.3}ms",
        adaptive_low.client.p50_latency_ms,
        unbatched_low.client.p50_latency_ms
    );
    // Saturation: the sizer must amortize like a large fixed batch.
    let adaptive_sat = checked("adaptive saturated", pipelined(o, pig_v2(adaptive)));
    let unbatched_proto = trace(&unbatched_low).leader_proto_sent_per_op;
    let adaptive_proto = trace(&adaptive_sat).leader_proto_sent_per_op;
    metric("adaptive_sat_proto_sent_per_op", adaptive_proto);
    metric("adaptive_sat_tput", adaptive_sat.client.throughput);
    assert!(
        unbatched_proto >= adaptive_proto * 2.0,
        "adaptive batching must amortize under saturation: {unbatched_proto:.3} vs \
         {adaptive_proto:.3} proto msgs/cmd"
    );

    // ── 4. Soak: compaction-enabled memory accounting ─────────────────
    // Snapshots every 200 executed ops; the retained log must stay
    // bounded by the interval (plus the in-flight window) while
    // throughput and safety are unaffected.
    let soak_interval = 200u64;
    let soak_cfg = pig_v2(batch_cfg(16)).with_snapshots(SnapshotConfig::every_ops(soak_interval));
    let soak = checked("soak", pipelined(o, soak_cfg));
    assert!(
        soak.protocol.snapshots_taken() > 0,
        "soak: compaction must fire ({} ops decided)",
        soak.protocol.decided()
    );
    assert!(
        soak.protocol.max_log_len() <= 2 * soak_interval,
        "soak: peak retained log {} exceeds 2x snapshot interval {soak_interval}",
        soak.protocol.max_log_len()
    );
    metric("soak_max_log_len", soak.protocol.max_log_len() as f64);
    metric("soak_snapshots", soak.protocol.snapshots_taken() as f64);
    metric("soak_decided", soak.protocol.decided() as f64);

    // ── 5. PQR probe batching over the relay tree ─────────────────────
    // Quorum reads bypass the leader's command batcher, so their probe
    // traffic needs its own amortization lever: pending read keys
    // coalesce into one QrReadBatch per relay wave. Probe batching is
    // *off* by default — every earlier section (and the pre-existing
    // baseline keys) runs the exact pre-probe-batching schedule.
    let probe_off = pqr_probed(o, "pqr probe off", pqr_cfg(false));
    let probe_on = pqr_probed(o, "pqr probe on", pqr_cfg(true));
    let off_per_op = traced(probe_off.labels_per_op(paxos::QR_PROBE_LABELS));
    let on_per_op = traced(probe_on.labels_per_op(paxos::QR_PROBE_LABELS));
    let probe_reduction = off_per_op / on_per_op.max(1e-9);
    metric("pqr_probe_unbatched_per_op", off_per_op);
    metric("pqr_probe_batched_per_op", on_per_op);
    metric("pqr_probe_batch_reduction", probe_reduction);
    metric("pqr_probe_batched_tput", probe_on.client.throughput);
    assert!(
        probe_reduction >= 3.0,
        "probe batching must cut probe msgs/op >=3x (got {probe_reduction:.2}x)"
    );

    // The leader's per-hop load in each traced run, per command.
    let columns = "run,proto_sent_per_cmd,uplink_recv_per_cmd,replies_per_cmd,total_sent_per_cmd,\
                   tput,p50_ms";
    let title = "per-hop leader load (v2 runs: 4 clients x pipeline 8)";
    let mut hops = Table::new(title, columns);
    for (run, r) in [
        ("pig_v1_b16", &v1),
        ("pig_v2_b16", &v2),
        ("pig_unbatched_low", &unbatched_low),
        ("pig_adaptive_low", &adaptive_low),
        ("pig_adaptive_sat", &adaptive_sat),
    ] {
        let t = trace(r);
        hops.row([
            run.into(),
            Float(t.leader_proto_sent_per_op, 3),
            Float(t.leader_proto_recv_per_op, 3),
            Float(t.leader_replies_per_op, 3),
            Float(t.leader_sent_per_op(), 3),
            Float(r.client.throughput, 0),
            Float(r.client.p50_latency_ms, 2),
        ]);
    }
    Report {
        tables: vec![sweeps, hops],
        metrics,
    }
}
