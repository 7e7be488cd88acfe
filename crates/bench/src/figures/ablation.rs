//! Ablations of the paper's design choices, and sweeps along axes the
//! paper names but does not plot.

use super::{checked, max_tput, pqr_cfg, pqr_probed, MAX_TPUT_CLIENTS, SEED};
use crate::Cell::Float;
use crate::{Opts, Report, Table};
use epaxos::EpaxosConfig;
use paxi::{BatchConfig, KeyDistribution, ProtocolSpec, RunResult, Workload};
use paxos::PaxosConfig;
use pigpaxos::PigConfig;
use simnet::{Control, NodeId, SimDuration, SimTime};

/// Ablation: single-level vs. two-level relay trees (§6.3).
///
/// The paper argues multi-level trees are unwarranted because the leader
/// remains the bottleneck (`Ml = 2r + 2` is unchanged by extra layers,
/// while followers were never the constraint). Expected: at N = 25 the
/// 2-level tree buys nothing (or slightly hurts via the extra hop); the
/// possibility it helps is reserved for very large clusters, checked
/// here at N = 101.
pub fn ablation_layers(o: &Opts) -> Report {
    let title = "Ablation: relay tree depth (2 relay groups)";
    let mut t = Table::new(title, "nodes,levels,max_throughput");
    for n in [25usize, 101] {
        for levels in [1usize, 2] {
            let mut cfg = PigConfig::lan(2);
            cfg.levels = levels;
            t.row([n.into(), levels.into(), Float(max_tput(o.lan(cfg, n)), 0)]);
        }
    }
    Report::new(vec![t])
}

/// Ablation: partial response collection (§4.2) vs. wait-for-all.
///
/// Setup where the optimization matters: 25 nodes in 3 relay groups
/// (8 members each) with one crashed member in *two* of the groups.
/// The one fully-healthy group plus the leader's self-vote yield only
/// 9 < 13 votes, so every commit needs votes from a faulty group.
/// Without thresholds those relays only answer at the 50 ms relay
/// timeout — commit latency collapses to the timeout. With per-group
/// thresholds `gᵢ = 5` (Σgᵢ = 15 ≥ ⌊25/2⌋+1 = 13), the faulty groups'
/// relays answer as soon as they hold 5 votes and latency stays at the
/// fault-free level.
///
/// At full saturation the threshold costs extra leader messages (two
/// flushes per group per round), so this also reports throughput to
/// show the trade-off honestly.
pub fn ablation_partial(o: &Opts) -> Report {
    let run_one = |threshold: Option<usize>| -> RunResult {
        let mut cfg = PigConfig::lan(3);
        cfg.partial_threshold = threshold;
        o.lan(cfg, 25)
            .clients(10) // moderate load: latency, not saturation, matters
            .run_sim_with(SEED, |sim| {
                // Groups of 8: g0 = nodes 1-8, g1 = 9-16, g2 = 17-24; one
                // crash in g0 and one in g1.
                sim.schedule_control(SimTime::from_millis(50), Control::Crash(NodeId(5)));
                sim.schedule_control(SimTime::from_millis(50), Control::Crash(NodeId(12)));
            })
    };
    let title = "Ablation: partial response collection (§4.2; 25 nodes, 3 relay groups, \
                 one crashed member in two groups, 10 clients)";
    let mut t = Table::new(title, "config,throughput,mean_ms,p99_ms");
    let (waitall, partial) = (run_one(None), run_one(Some(5)));
    for (config, r) in [("wait_all", &waitall), ("threshold5", &partial)] {
        t.row([
            config.into(),
            Float(r.client.throughput, 0),
            Float(r.client.mean_latency_ms, 3),
            Float(r.client.p99_latency_ms, 3),
        ]);
    }
    t.notes.push(format!(
        "thresholds cut mean latency {:.1}x when no relay group can complete",
        waitall.client.mean_latency_ms / partial.client.mean_latency_ms
    ));
    Report::new(vec![t])
}

/// Ablation: random relay rotation (the paper's design, §3.2/§6.1) vs.
/// fixed relays.
///
/// With fixed relays the two relay nodes absorb every round's relay
/// burden and become hotspots; rotation amortizes that load over the
/// whole group. Expected: rotation sustains noticeably higher maximum
/// throughput, and the busiest follower handles far more messages per
/// op in the fixed configuration.
pub fn ablation_rotation(o: &Opts) -> Report {
    let n = 25;
    let run_one = |rotate: bool| -> (f64, f64) {
        let mut cfg = PigConfig::lan(2);
        cfg.rotate_relays = rotate;
        let pts = o.lan(cfg, n).load_sweep(SEED, MAX_TPUT_CLIENTS);
        let best = pts
            .iter()
            .max_by(|a, b| {
                a.result
                    .client
                    .throughput
                    .total_cmp(&b.result.client.throughput)
            })
            .expect("non-empty sweep");
        let followers = &best.result.transport.node_msgs[1..n];
        let busiest = followers.iter().max().copied().unwrap_or(0);
        let per_op = busiest as f64 / best.result.client.samples.max(1) as f64;
        (best.result.client.throughput, per_op)
    };
    let (tput_rot, hot_rot) = run_one(true);
    let (tput_fix, hot_fix) = run_one(false);
    let columns = "config,max_throughput,busiest_follower_msgs_per_op";
    let title = "Ablation: relay rotation (25 nodes, 2 relay groups)";
    let mut t = Table::new(title, columns);
    t.row(["rotating".into(), Float(tput_rot, 0), Float(hot_rot, 2)]);
    t.row(["fixed".into(), Float(tput_fix, 0), Float(hot_fix, 2)]);
    t.notes.push(format!(
        "rotation gains {:.0}% max throughput; fixed relays concentrate {:.1}x the \
         per-follower message load",
        100.0 * (tput_rot / tput_fix - 1.0),
        hot_fix / hot_rot
    ));
    Report::new(vec![t])
}

/// Scaling sweep (the paper's future-work direction, §7): max
/// throughput of Paxos vs. PigPaxos as the cluster grows from 5 to 101
/// nodes within a single conflict domain.
///
/// Expected: Paxos decays roughly as `1/N` (leader handles `2N` msgs
/// per op); PigPaxos stays nearly flat because the leader talks to a
/// constant number of relays — until follower-side group work slowly
/// grows with group size.
pub fn scale_sweep(o: &Opts) -> Report {
    let columns = "nodes,paxos,pigpaxos_r2,pigpaxos_r3";
    let title = "Scaling sweep: max throughput (req/s) vs cluster size";
    let mut t = Table::new(title, columns);
    for n in [5usize, 9, 15, 25, 49, 75, 101] {
        let paxos = max_tput(o.lan(PaxosConfig::lan(), n));
        let pig2 = max_tput(o.lan(PigConfig::lan(2), n));
        let pig3 = max_tput(o.lan(PigConfig::lan(3), n));
        t.row([n.into(), Float(paxos, 0), Float(pig2, 0), Float(pig3, 0)]);
    }
    Report::new(vec![t])
}

/// Conflict sensitivity: the paper attributes EPaxos's poor showing to
/// the "high conflict rate (with only a 1000 items picked at random)"
/// (§5.4). This sweep varies the key-space size and the access skew to
/// show how interference drives EPaxos while leaving PigPaxos (which
/// orders everything through one leader anyway) untouched.
pub fn conflict_sweep(o: &Opts) -> Report {
    let uniform = |num_keys: u64| Workload {
        num_keys,
        ..Workload::paper_default()
    };
    // Skewed access concentrates interference on hot keys.
    let skewed = Workload {
        distribution: KeyDistribution::Zipfian(0.99),
        ..uniform(1000)
    };
    let title = "Conflict sensitivity (25 nodes, max throughput req/s)";
    let mut t = Table::new(title, "workload,epaxos,pigpaxos");
    for (label, workload) in [
        ("uniform, 100 keys", uniform(100)),
        ("uniform, 1000 keys", uniform(1000)),
        ("uniform, 100000 keys", uniform(100_000)),
        ("zipfian(0.99), 1000 keys", skewed),
    ] {
        let epaxos = o.lan(EpaxosConfig::default(), 25);
        let ep = max_tput(epaxos.workload(workload.clone()));
        let pig = max_tput(o.lan(PigConfig::lan(3), 25).workload(workload));
        t.row([label.into(), Float(ep, 0), Float(pig, 0)]);
    }
    Report::new(vec![t])
}

/// Extension experiment (§4.3): Paxos Quorum Reads over relay trees.
///
/// Section 1 compares a 25-node PigPaxos cluster serving reads through
/// the leader (the base protocol — reads serialized in the log) against
/// the same cluster with follower proxies answering reads via quorum
/// probes. The read-heavier the workload, the more PQR shifts
/// throughput away from the leader.
///
/// Section 2 measures the ROADMAP open item "reply-path batching
/// interaction with PQR reads": quorum reads bypass the leader's
/// batcher entirely (probes fan out through the relay tree on arrival),
/// so command batching should amortize only the *write* traffic while
/// per-operation probe counts stay constant. The section counts
/// `qr_read`/`qr_vote` wire messages per completed operation with
/// batching off and on to check exactly that.
///
/// Section 3 measures the fix for that open item: **probe batching**
/// (`PigConfig::with_probe_batch`). Pending read keys coalesce into
/// one `QrReadBatch` per relay wave, so the per-read probe
/// fan-out/fan-in amortizes the same way `P2aBatch` amortizes write
/// rounds. The section sweeps the same 9-node / 2-group / 90%-read /
/// 40-client scenario with probe batching off and on (probe msgs/op
/// must drop ≥ 3×), and checks the low-load guard: a lone client's
/// read latency must not regress (adaptive sizing flushes isolated
/// probes immediately).
pub fn pqr_reads(o: &Opts) -> Report {
    let read_heavy = |read_pct: u32| Workload {
        read_ratio: read_pct as f64 / 100.0,
        ..Workload::paper_default()
    };
    let title = "PQR extension: max throughput (25 nodes, 3 relay groups)";
    let mut tputs = Table::new(title, "read_ratio,leader_reads,pqr_reads");
    for read_pct in [50u32, 75, 90, 99] {
        let base = max_tput(o.lan(PigConfig::lan(3), 25).workload(read_heavy(read_pct)));
        // `with_pqr` flips the default client target to a random spread
        // over all replicas — no per-protocol wiring at the call site.
        let pqr = o.lan(PigConfig::lan(3).with_pqr(), 25);
        let pqr = max_tput(pqr.workload(read_heavy(read_pct)));
        tputs.row([(read_pct as u64).into(), Float(base, 0), Float(pqr, 0)]);
    }

    // ── PQR reads × batching (ROADMAP §4.3 open item) ─────────────────
    // 9 nodes, 2 relay groups, 90% reads, 40 clients: count the probe
    // traffic itself. Batching may not change reads-per-op probe costs
    // (reads bypass the batcher); it should amortize the write rounds.
    let columns = "pqr_batching,batch,qr_read_per_op,qr_vote_per_op,leader_proto_sent_per_op,tput";
    let title = "PQR reads × batching (9 nodes, 2 groups, 90% reads)";
    let mut batching = Table::new(title, columns);
    let adaptive32 = BatchConfig::adaptive(32, SimDuration::from_micros(200))
        .with_reply_coalescing(SimDuration::ZERO);
    for (name, batch) in [("off", BatchConfig::disabled()), ("adaptive32", adaptive32)] {
        let r = pqr_probed(o, name, pqr_cfg(false).with_batch(batch));
        batching.row([
            "pqr_batching".into(),
            name.into(),
            Float(r.label_per_op("qr_read").expect("trace captured"), 3),
            Float(r.label_per_op("qr_vote").expect("trace captured"), 3),
            Float(
                r.transport
                    .trace
                    .expect("trace captured")
                    .leader_proto_sent_per_op,
                3,
            ),
            Float(r.client.throughput, 0),
        ]);
    }
    let note = "reads bypass the batcher: probe msgs/op hold; batching amortizes the write rounds";
    batching.notes.push(note.to_string());

    // ── 3. Probe batching over the relay tree ─────────────────────────
    // Same scenario, probe batching off vs on: pending read keys
    // coalesce into one QrReadBatch per relay wave, so probe msgs/op
    // must drop sharply while throughput holds.
    let columns = "pqr_probe_batch,mode,probe_msgs_per_op,wave_msgs_per_op,tput";
    let title = "PQR probe batching (9 nodes, 2 groups, 90% reads, 40 clients)";
    let mut probes = Table::new(title, columns);
    let mut per_op = Vec::new();
    for (name, probe_batch) in [("off", false), ("adaptive16", true)] {
        let r = pqr_probed(o, name, pqr_cfg(probe_batch));
        let probe_msgs = r.labels_per_op(paxos::QR_PROBE_LABELS);
        let wave_msgs = r.labels_per_op(&["qr_read_batch", "qr_vote_batch"]);
        probes.row([
            "pqr_probe_batch".into(),
            name.into(),
            Float(probe_msgs.expect("trace captured"), 3),
            Float(wave_msgs.expect("trace captured"), 3),
            Float(r.client.throughput, 0),
        ]);
        per_op.extend(probe_msgs);
    }
    let reduction = per_op[0] / per_op[1].max(1e-9);
    let note = format!("{reduction:.1}x fewer probe msgs/op riding the relay waves");
    probes.notes.push(note);

    // Low-load guard: a single closed-loop reader must see no added
    // latency from probe batching (adaptive sizing flushes an isolated
    // probe immediately).
    let low = |cfg: PigConfig| {
        let exp = o.lan(cfg, 9).clients(1).workload(read_heavy(100));
        exp.run_sim(SEED).client.p50_latency_ms
    };
    let (low_off, low_on) = (low(pqr_cfg(false)), low(pqr_cfg(true)));
    let mut guard = Table::new("low-load read p50, off vs on (must not regress)", "");
    guard.row([
        "pqr_probe_low_load".into(),
        "p50_ms".into(),
        Float(low_off, 4),
        Float(low_on, 4),
        "".into(),
    ]);
    assert!(
        low_on <= low_off * 1.1,
        "probe batching must not add read latency at low load: {low_on:.3}ms vs {low_off:.3}ms"
    );
    assert!(
        reduction >= 3.0,
        "probe batching must cut probe msgs/op by >=3x (got {reduction:.2}x)"
    );
    Report::new(vec![tputs, batching, probes, guard])
}

/// One shape, every protocol: 25 nodes, PigPaxos on 3 relay groups, 40
/// closed-loop clients on the paper's default workload (half reads,
/// 8 B values, 1000 keys). The place to start a question the fixed
/// figures do not answer: change the shape here and rerun.
pub fn explore(o: &Opts) -> Report {
    fn row<P: ProtocolSpec>(o: &Opts, t: &mut Table, proto: P) {
        let name = proto.protocol_name();
        let r = checked(name, o.lan(proto, 25).clients(40));
        t.row([
            name.into(),
            Float(r.client.throughput, 0),
            Float(r.client.mean_latency_ms, 2),
            Float(r.client.p50_latency_ms, 2),
            Float(r.client.p99_latency_ms, 2),
            Float(r.transport.leader_msgs_per_op, 1),
            Float(r.transport.follower_msgs_per_op, 2),
            r.protocol.decided().into(),
        ]);
    }
    let columns = "protocol,throughput,mean_ms,p50_ms,p99_ms,leader_msgs_per_op,\
                   follower_msgs_per_op,decided";
    let title = "Explore: 25 nodes, 3 relay groups, 40 clients, 50% reads";
    let mut t = Table::new(title, columns);
    row(o, &mut t, PaxosConfig::lan());
    row(o, &mut t, PigConfig::lan(3));
    row(o, &mut t, EpaxosConfig::default());
    Report::new(vec![t])
}
