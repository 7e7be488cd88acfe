//! The paper's own evaluation: Tables 1–2, Figures 7–13, and the
//! claims of §2.2, §6.1 and §6.4 that a run can check.

use super::{curve, curve_table, max_tput, SEED};
use crate::Cell::Float;
use crate::{Opts, Report, Table};
use analytical::{follower_load, leader_load, paxos_follower_load, paxos_leader_load};
use analytical::{table1, table2};
use epaxos::EpaxosConfig;
use paxi::{ProtocolSpec, RunResult, Workload};
use paxos::PaxosConfig;
use pigpaxos::{GroupSpec, PigConfig};
use simnet::{Control, NodeId, SimDuration};

/// Tables 1 and 2: analytical message load at the leader and followers
/// for different relay-group counts (25-node and 9-node clusters).
pub fn tables(_: &Opts) -> Report {
    let columns = "table,relay_groups,leader_msgs,follower_msgs,leader_overhead_pct";
    let mut t = Table::new("analytical message load per round", columns);
    for (title, rows) in [
        ("Table 1: message load, 25-node cluster", table1()),
        ("Table 2: message load, 9-node cluster", table2()),
    ] {
        for r in rows {
            t.row([
                title.into(),
                r.label().into(),
                Float(r.leader_msgs, 0),
                Float(r.follower_msgs, 2),
                Float(r.leader_overhead * 100.0, 0),
            ]);
        }
    }
    Report::new(vec![t])
}

/// Figure 7: maximum throughput vs. number of relay groups on a 25-node
/// PigPaxos cluster with a single relay layer.
///
/// Paper result: best throughput at r = 2 (~10k req/s), decreasing
/// monotonically toward r = 6 — the √N heuristic (r = 5) performs badly
/// because leader load is `2r + 2`.
pub fn fig7(o: &Opts) -> Report {
    let title = "Figure 7: 25-node PigPaxos, max throughput (req/s) vs relay groups";
    let mut t = Table::new(title, "relay_groups,max_throughput");
    for r in 2..=6usize {
        t.row([r.into(), Float(max_tput(o.lan(PigConfig::lan(r), 25)), 0)]);
    }
    Report::new(vec![t])
}

/// Figure 8: latency vs. throughput on a 25-node cluster — EPaxos,
/// Paxos, and PigPaxos with 3 relay groups.
///
/// Paper result: EPaxos saturates ≈1000 req/s (conflict resolution),
/// Paxos ≈2000 req/s (leader bottleneck), PigPaxos scales to ≈7000
/// req/s while paying ~30% extra latency at low load.
pub fn fig8(o: &Opts) -> Report {
    let mut t = curve_table("Figure 8: latency vs throughput, 25 nodes");
    // Each protocol's config brings its own client target policy
    // (EPaxos spreads over all replicas; the others hit the leader).
    curve(&mut t, "EPaxos", o.lan(EpaxosConfig::default(), 25));
    curve(&mut t, "Paxos", o.lan(PaxosConfig::lan(), 25));
    curve(&mut t, "PigPaxos (3 groups)", o.lan(PigConfig::lan(3), 25));
    Report::new(vec![t])
}

/// Figure 9: latency vs. throughput on a 15-node WAN cluster spread
/// over Virginia, California, and Oregon; each region is one PigPaxos
/// relay group; the leader (and clients) sit in Virginia.
///
/// Paper result: latency is dominated by cross-region RTT so Paxos and
/// PigPaxos are indistinguishable at low load; PigPaxos sustains low
/// latency to much higher throughput.
pub fn fig9(o: &Opts) -> Report {
    let mut t = curve_table("Figure 9: latency vs throughput, 15-node WAN");
    let paxos = o.wan(PaxosConfig::wan(), 15);
    // One relay group per region (the leader, node 0, lives in Virginia,
    // so its group is the remaining Virginia nodes).
    let groups = GroupSpec::per_region(paxos.topology(), NodeId(0));
    curve(&mut t, "Paxos (WAN)", paxos);
    let pig = o.wan(PigConfig::wan(groups), 15);
    curve(&mut t, "PigPaxos (region groups)", pig);
    Report::new(vec![t])
}

/// Figure 10: latency vs. throughput on a 5-node cluster — EPaxos,
/// Paxos, and PigPaxos with 2 relay groups.
///
/// Paper result: PigPaxos wins even at 5 nodes (it talks to 2 relays —
/// exactly a majority's worth of followers — while Paxos still sends 4
/// messages per round); EPaxos again suffers from conflicts.
pub fn fig10(o: &Opts) -> Report {
    let mut t = curve_table("Figure 10: latency vs throughput, 5 nodes");
    curve(&mut t, "EPaxos 5 nodes", o.lan(EpaxosConfig::default(), 5));
    curve(&mut t, "Paxos 5 nodes", o.lan(PaxosConfig::lan(), 5));
    let pig = o.lan(PigConfig::lan(2), 5);
    curve(&mut t, "PigPaxos 5 nodes (2 groups)", pig);
    Report::new(vec![t])
}

/// Figure 11: latency vs. throughput on a 9-node cluster — Paxos vs.
/// PigPaxos with 2 and 3 relay groups.
///
/// Paper result: both PigPaxos configurations out-scale Paxos
/// (by ≈57% at 2 groups) and Paxos's low-load latency advantage
/// shrinks compared to the 5-node cluster.
pub fn fig11(o: &Opts) -> Report {
    let mut t = curve_table("Figure 11: latency vs throughput, 9 nodes");
    curve(&mut t, "Paxos 9 nodes", o.lan(PaxosConfig::lan(), 9));
    for groups in [2, 3] {
        let series = format!("PigPaxos 9 nodes ({groups} groups)");
        curve(&mut t, &series, o.lan(PigConfig::lan(groups), 9));
    }
    Report::new(vec![t])
}

/// Figure 12: maximum throughput vs. payload size (8–1280 bytes) on a
/// 25-node cluster under a write-only workload — Paxos vs. PigPaxos
/// with 3 relay groups. Prints absolute (12a) and normalized (12b)
/// series.
///
/// Paper result: both protocols degrade similarly in relative terms
/// (neither dips below 0.9 of its own peak across this payload range),
/// while PigPaxos's absolute advantage persists at every size.
pub fn fig12(o: &Opts) -> Report {
    fn series<P: ProtocolSpec>(o: &Opts, t: &mut Table, name: &str, proto: P) {
        let payloads = [8, 80, 160, 320, 640, 1024, 1280];
        let tputs = payloads.map(|payload| {
            let exp = o.lan(proto.clone(), 25);
            max_tput(exp.workload(Workload::write_only(payload)))
        });
        let peak = tputs.iter().copied().fold(0.0, f64::max);
        for (payload, tput) in payloads.into_iter().zip(tputs) {
            let normalized = Float(tput / peak, 4);
            t.row([name.into(), payload.into(), Float(tput, 0), normalized]);
        }
    }
    let columns = "series,payload_bytes,max_throughput,normalized";
    let title = "Figure 12: max throughput vs payload size (25 nodes, write-only)";
    let mut t = Table::new(title, columns);
    series(o, &mut t, "Paxos", PaxosConfig::lan());
    series(o, &mut t, "PigPaxos (3 groups)", PigConfig::lan(3));
    Report::new(vec![t])
}

/// Figure 13: throughput timeline of a saturated 25-node / 3-relay-group
/// PigPaxos cluster while one relay group is faulty (one member crashed)
/// for a 20-second window; relay timeout 50 ms; throughput sampled over
/// 1-second intervals.
///
/// Paper result: the two healthy relay groups still deliver a majority,
/// so max throughput declines only ≈3% during the fault.
pub fn fig13(o: &Opts) -> Report {
    let (total_secs, fault_start, fault_end) = o.pick((15u64, 5u64, 10u64), (60, 20, 40));
    // Node 5 is a member (and 1-in-8 rounds, the relay) of group 0.
    let faulty = NodeId(5);
    let result = o
        .lan(PigConfig::lan(3), 25)
        .clients(160) // saturation, as in the paper
        .warmup(SimDuration::from_secs(0))
        .measure(SimDuration::from_secs(total_secs))
        .timeline_bucket(SimDuration::from_secs(1))
        .fault(SimDuration::from_secs(fault_start), Control::Crash(faulty))
        .fault(SimDuration::from_secs(fault_end), Control::Recover(faulty))
        .run_sim(SEED);
    assert!(
        result.protocol.violations().is_empty(),
        "safety violated: {:?}",
        result.protocol.violations()
    );

    let title = format!(
        "Figure 13: PigPaxos 25 nodes / 3 groups, node {faulty} crashed in \
         [{fault_start}s, {fault_end}s), relay timeout 50ms"
    );
    let mut t = Table::new(title, "time_s,throughput");
    let timeline = result.client.timeline.expect("timeline_bucket set");
    for &(at, tput) in &timeline {
        t.row([Float(at, 0), Float(tput, 0)]);
    }

    // Quantify the dip like the paper does.
    let (start, end) = (fault_start as f64, fault_end as f64);
    let avg_where = |keep: &dyn Fn(f64) -> bool| {
        let kept: Vec<f64> = timeline.iter().filter(|p| keep(p.0)).map(|p| p.1).collect();
        kept.iter().sum::<f64>() / kept.len().max(1) as f64
    };
    let healthy = avg_where(&|at| at > 2.0 && (at <= start || at > end + 2.0));
    let faulted = avg_where(&|at| at > start + 1.0 && at <= end);
    let decline = 100.0 * (1.0 - faulted / healthy);
    let mut summary = Table::new("", "");
    summary.row(["decline_pct".into(), Float(decline, 1)]);
    summary.notes.push(format!(
        "healthy avg {healthy:.0} req/s, faulted avg {faulted:.0} req/s (paper: ≈3% decline)"
    ));
    Report::new(vec![t, summary])
}

/// §6.1 validation: the analytical message-load model (Eqs. 1–3) vs.
/// message counts measured by the simulator.
///
/// For each relay-group count, runs a moderately loaded 25-node PigPaxos
/// cluster and compares the leader's and followers' measured messages
/// per committed operation against `Ml = 2r + 2` and
/// `Mf = 2(N−r−1)/(N−1) + 2`, plus the direct-Paxos row.
pub fn model_check(o: &Opts) -> Report {
    let n = 25;
    let columns = "config,measured_leader,model_leader,measured_follower,model_follower";
    let title = "Model check: measured vs analytical msgs/op (25 nodes)";
    let mut t = Table::new(title, columns);
    let mut check = |config: String, res: RunResult, (ml, mf): (f64, f64)| {
        t.row([
            config.into(),
            Float(res.transport.leader_msgs_per_op, 2),
            Float(ml, 2),
            Float(res.transport.follower_msgs_per_op, 2),
            Float(mf, 2),
        ]);
    };
    // Moderate load (10 clients): batching-free region where per-op
    // accounting is clean (heartbeats add a small constant background).
    for r in 2..=6 {
        let res = o.lan(PigConfig::lan(r), n).clients(10).run_sim(SEED);
        let model = (leader_load(r), follower_load(n, r));
        check(format!("pig r={r}"), res, model);
    }
    let res = o.lan(PaxosConfig::lan(), n).clients(10).run_sim(SEED);
    let model = (paxos_leader_load(n), paxos_follower_load());
    check("paxos".into(), res, model);
    Report::new(vec![t])
}

/// Calibration summary: the headline numbers every other figure builds
/// on, side by side with the paper's reported values.
///
/// Run this first after touching `simnet::CpuCostModel` or any protocol
/// cost constant.
pub fn calib(o: &Opts) -> Report {
    let paxos25 = max_tput(o.lan(PaxosConfig::lan(), 25));
    let pig25 = max_tput(o.lan(PigConfig::lan(3), 25));
    let epaxos25 = max_tput(o.lan(EpaxosConfig::default(), 25));
    let paxos5 = max_tput(o.lan(PaxosConfig::lan(), 5));
    let pig5 = max_tput(o.lan(PigConfig::lan(2), 5));
    let title = "Calibration summary (max throughput, req/s)";
    let mut t = Table::new(title, "config,measured,paper");
    for (config, measured, paper) in [
        ("paxos_25n", paxos25, 2000u64),
        ("pigpaxos_25n_r3", pig25, 7000),
        ("epaxos_25n", epaxos25, 1000),
        ("paxos_5n", paxos5, 6500),
        ("pigpaxos_5n_r2", pig5, 9500),
    ] {
        t.row([config.into(), Float(measured, 0), paper.into()]);
    }
    let ratio = format!("{:.1}x", pig25 / paxos25);
    t.notes
        .push(format!("PigPaxos/Paxos at 25 nodes: {ratio} (paper: >3x)"));
    Report::new(vec![t])
}

/// §2.2 reproduction: flexible quorums and the thrifty optimization.
///
/// The paper's argument for why neither obviates PigPaxos:
/// 1. A small Q2 cuts commit latency (dramatically so on a WAN where the
///    Q2 fits in the leader's region) but the leader still exchanges
///    messages with all N−1 followers, so max throughput is unchanged.
/// 2. Thrifty *does* cut leader messages (contact only |Q2| nodes) but a
///    single crashed or sluggish member of that set stalls every commit
///    until the retry path widens the fan-out.
pub fn flexible_quorums(o: &Opts) -> Report {
    // Part 1: N=10 LAN, the paper's Q1=8/Q2=3 example.
    let lat = |cfg: PaxosConfig| o.lan(cfg, 10).clients(2).run_sim(SEED);
    let m = lat(PaxosConfig::lan());
    let mut fq = PaxosConfig::lan();
    fq.flexible_quorums = Some((8, 3));
    let f = lat(fq.clone());
    let m_max = max_tput(o.lan(PaxosConfig::lan(), 10));
    let f_max = max_tput(o.lan(fq, 10));

    // Part 2: 15-node WAN — Q2=5 fits in the leader's region.
    let wlat = |cfg: PaxosConfig| o.wan(cfg, 15).clients(4).run_sim(SEED);
    let wm = wlat(PaxosConfig::wan());
    let mut wfq = PaxosConfig::wan();
    wfq.flexible_quorums = Some((11, 5));
    let wf = wlat(wfq);

    // Part 3: thrifty under a single crash (9-node LAN).
    let mut thr = PaxosConfig::lan();
    thr.thrifty = true;
    let thrifty9 = o.lan(thr, 9).clients(4);
    let t_ok = thrifty9.run_sim(SEED);
    let t_crash = thrifty9
        .fault(SimDuration::from_millis(200), Control::Crash(NodeId(1)))
        .run_sim(SEED);

    let title = "Flexible quorums & thrifty (paper §2.2): N=10 LAN (6,6) vs (Q1=8, Q2=3); \
                 N=15 WAN (8,8) vs (Q1=11, Q2=5 in the leader's region); N=9 LAN thrifty";
    let mut t = Table::new(title, "metric,majority,flexible");
    let ms = |r: &RunResult| Float(r.client.mean_latency_ms, 3);
    let (m_max, f_max) = (Float(m_max, 0), Float(f_max, 0));
    t.row(["lan10_low_load_latency_ms".into(), ms(&m), ms(&f)]);
    t.row(["lan10_max_throughput".into(), m_max, f_max]);
    t.row(["wan15_low_load_latency_ms".into(), ms(&wm), ms(&wf)]);
    let thrifty = "thrifty9_latency_ms_healthy_vs_crashed";
    t.row([thrifty.into(), ms(&t_ok), ms(&t_crash)]);
    t.notes = vec![
        "equal max throughput: Q2 does NOT fix the leader".to_string(),
        format!(
            "WAN leader msgs/op {:.1} vs {:.1}: the bottleneck is unchanged",
            wm.transport.leader_msgs_per_op, wf.transport.leader_msgs_per_op
        ),
        format!(
            "thrifty leader msgs/op {:.1}, but a single faulty node in Q2 stalls it",
            t_ok.transport.leader_msgs_per_op
        ),
    ];
    Report::new(vec![t])
}

/// §6.4 validation: cross-region (paid WAN) messages per operation in a
/// 3-region × 3-node deployment — Paxos vs. PigPaxos with one relay
/// group per region.
///
/// Paper claim: 2 vs. 6 leader-side cross-WAN messages per write (3×
/// saving); measured numbers include the response direction, so the
/// expected measured ratio is the same 3× at 4 vs. 12 total crossings.
pub fn wan_traffic(o: &Opts) -> Report {
    let n = 9; // 3 regions × 3 nodes
    let paxos_exp = o.wan(PaxosConfig::wan(), n).clients(10);
    let groups = GroupSpec::per_region(paxos_exp.topology(), NodeId(0));
    let cross_region = |r: RunResult| r.transport.cross_region_msgs_per_op.expect("simulated");
    let paxos = cross_region(paxos_exp.workload(Workload::write_only(8)).run_sim(SEED));
    let pig_exp = o.wan(PigConfig::wan(groups), n).clients(10);
    let pig = cross_region(pig_exp.workload(Workload::write_only(8)).run_sim(SEED));

    let columns = "protocol,measured_cross_region_per_op,model_one_way_per_op";
    let title = "WAN traffic per operation (3 regions x 3 nodes, write-only)";
    let mut traffic = Table::new(title, columns);
    let model_paxos = analytical::paxos_wan_msgs_per_op(3, 3);
    let model_pig = analytical::pigpaxos_wan_msgs_per_op(3);
    traffic.row(["paxos".into(), Float(paxos, 2), model_paxos.into()]);
    traffic.row(["pigpaxos".into(), Float(pig, 2), model_pig.into()]);
    let saving = format!("measured saving: {:.1}x (paper: 3x)", paxos / pig);
    traffic.notes.push(saving);

    Report::new(vec![traffic])
}
