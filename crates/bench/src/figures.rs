//! Every figure, table, ablation and sweep the repo regenerates, as
//! rows of [`ENTRIES`]; the `figures` bin runs them by name.

use crate::Cell::Float;
use crate::{Opts, Report, Table};
use paxi::{BatchConfig, Experiment, ProtocolSpec, RunResult, Workload};
use pigpaxos::PigConfig;
use simnet::SimDuration;

mod ablation;
mod gated;
mod paper;

use ablation::*;
use gated::*;
use paper::*;

/// One regenerable result: the name `figures <name>` runs it by, what
/// the paper (or the extension's gate) reports for it, and the run
/// itself, whose gates are `assert!`s.
pub type Entry = (&'static str, &'static str, fn(&Opts) -> Report);

/// The entries: the paper's tables and figures in its order, its
/// other checkable claims, then the ablations, sweeps and gates.
#[rustfmt::skip]
pub const ENTRIES: &[Entry] = &[
    ("tables", "Tables 1-2: analytical msgs/round at leader and followers, 25 and 9 nodes", tables),
    ("fig7", "25-node PigPaxos: max throughput peaks at r = 2 and falls toward r = 6", fig7),
    ("fig8", "25 nodes: EPaxos ~1000, Paxos ~2000, PigPaxos (r = 3) ~7000 req/s", fig8),
    ("fig9", "15-node WAN: latency is RTT-bound; PigPaxos holds it to far higher load", fig9),
    ("fig10", "5 nodes: PigPaxos (r = 2) beats Paxos and EPaxos even at this size", fig10),
    ("fig11", "9 nodes: PigPaxos with 2 and 3 groups out-scales Paxos (~57% at r = 2)", fig11),
    ("fig12", "payload 8-1280 B: neither dips below 0.9 of its peak; PigPaxos stays ahead", fig12),
    ("fig13", "one faulty relay group for 20 s costs ~3% of max throughput", fig13),
    ("model_check", "§6.1: measured msgs/op match Ml = 2r+2 and Mf = 2(N-r-1)/(N-1)+2", model_check),
    ("calib", "headline max throughputs beside the paper's (PigPaxos > 3x Paxos at 25 nodes)", calib),
    ("flexible_quorums", "§2.2: a small Q2 cuts latency, not leader load; thrifty stalls on a crash", flexible_quorums),
    ("wan_traffic", "§6.4: 3x fewer cross-region msgs/op with one relay group per region", wan_traffic),
    ("ablation_layers", "§6.3: a second relay layer buys nothing at 25 nodes", ablation_layers),
    ("ablation_partial", "§4.2: group thresholds keep latency off the 50 ms relay timeout", ablation_partial),
    ("ablation_rotation", "§3.2: rotating relays beat fixed ones, which become hotspots", ablation_rotation),
    ("scale_sweep", "§7: Paxos decays ~1/N from 5 to 101 nodes, PigPaxos stays nearly flat", scale_sweep),
    ("conflict_sweep", "§5.4: key-space size and skew drive EPaxos, not PigPaxos", conflict_sweep),
    ("pqr_reads", "§4.3: quorum reads take read load off the leader; probe batching >= 3x", pqr_reads),
    ("batch_sweep", "batching gates: >= 4x fewer leader protocol msgs/cmd at B = 16, and four more", batch_sweep),
    ("explore", "one shape for every protocol (n = 25, r = 3, 40 clients, 50% reads): edit and rerun", explore),
];

/// Master seed every entry runs under.
const SEED: u64 = paxi::DEFAULT_SEED;

/// Client-count ladder used by the latency/throughput figures.
const CURVE_CLIENTS: &[usize] = &[1, 2, 5, 10, 20, 40, 80, 160];

/// Client-count ladder used by max-throughput searches.
const MAX_TPUT_CLIENTS: &[usize] = &[20, 40, 80, 160];

/// Client ladder for WAN curves: at ~65 ms RTT a closed-loop client
/// offers only ~15 req/s, so saturating the cluster needs far more
/// clients than on a LAN.
const WAN_CURVE_CLIENTS: &[usize] = &[20, 80, 160, 320, 640, 1280];

/// Saturated throughput of `exp` over [`MAX_TPUT_CLIENTS`].
fn max_tput<P: ProtocolSpec>(exp: Experiment<P>) -> f64 {
    exp.max_throughput(SEED, MAX_TPUT_CLIENTS)
}

/// PigPaxos on 2 relay groups serving reads by quorum probes, with
/// probe batching (one `QrReadBatch` per relay wave) if asked.
fn pqr_cfg(probe_batch: bool) -> PigConfig {
    let cfg = PigConfig::lan(2).with_pqr();
    if probe_batch {
        cfg.with_probe_batch(BatchConfig::adaptive(16, SimDuration::from_micros(2500)))
    } else {
        cfg
    }
}

/// The probe-traffic scenario: 9 nodes, 90% reads, 40 clients, traced.
fn pqr_probed(o: &Opts, name: &str, cfg: PigConfig) -> RunResult {
    let workload = Workload {
        read_ratio: 0.9,
        ..Workload::paper_default()
    };
    let exp = o.lan(cfg, 9).clients(40).workload(workload);
    checked(name, exp.capture_trace())
}

/// Run `exp` and require a clean safety record.
fn checked<P: ProtocolSpec>(what: &str, exp: Experiment<P>) -> RunResult {
    let r = exp.run_sim(SEED);
    assert!(
        r.protocol.violations().is_empty(),
        "{what}: {:?}",
        r.protocol.violations()
    );
    r
}

/// The table the latency/throughput figures plot: one row per series
/// and offered-load point.
fn curve_table(title: &str) -> Table {
    Table::new(title, "series,clients,throughput,mean_ms,p50_ms,p99_ms")
}

/// Sweep `exp` over its topology's client ladder and append the curve
/// as `series`.
fn curve<P: ProtocolSpec>(t: &mut Table, series: &str, exp: Experiment<P>) {
    let wan = exp.topology().num_regions() > 1;
    let ladder = if wan {
        WAN_CURVE_CLIENTS
    } else {
        CURVE_CLIENTS
    };
    for p in exp.load_sweep(SEED, ladder) {
        let r = p.result;
        t.row([
            series.into(),
            p.clients.into(),
            Float(r.client.throughput, 1),
            Float(r.client.mean_latency_ms, 3),
            Float(r.client.p50_latency_ms, 3),
            Float(r.client.p99_latency_ms, 3),
        ]);
    }
}
