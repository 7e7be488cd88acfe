//! The relay tree: PigPaxos's [`Dissemination`].
//!
//! Every decision (ballots, quorums, commits, catch-up, batching) is
//! made by [`paxos::Replica`]; this module is only the *communication
//! flow* the paper replaces (§3.2), plugged into that core:
//!
//! - The leader fans each phase message out to one random relay per
//!   group instead of to all `N−1` followers ([`RelayTree::fan_out`]).
//! - A relay forwards along its plan, asks the core for this node's
//!   own answer, and opens an aggregation seeded with it; votes coming
//!   back are absorbed on arrival, before the core sees them, and one
//!   combined response goes up.
//! - Relays time out on unresponsive peers (§3.4); the leader's normal
//!   retry re-disseminates through a *fresh* random relay set, which is
//!   how PigPaxos survives relay crashes (§3.4, Fig. 5b).
//! - Quorum reads (§4.3) are proxied here too: any replica probes the
//!   tree and answers the client without touching the leader's log.

use crate::config::{PigConfig, PQR_MAX_ATTEMPTS};
use crate::groups::{GroupSpec, RelayGroups};
use crate::messages::{PigMsg, RelayPlan};
use crate::pqr::{PendingReads, ReadOutcome};
use crate::probe_batch::{ProbeBatcher, ProbePush, ProbeRelease};
use crate::relay::{AggKey, Flush, RelayTable, UplinkCoalescer, VoteSet};
use paxi::{
    ClientReply, ClusterConfig, Command, CompactionStats, Ctx, Envelope, ReplicaActor, ReplicaCtx,
};
use paxos::{Dissemination, PaxosConfig, PaxosMsg, QrProbe, QrProbeVote, QrVoteEntry, Reach};
use rand::rngs::StdRng;
use rand::Rng;
use simnet::{Actor, NodeId};
use std::collections::BTreeSet;

// Timer kinds live in the low byte, above the core's [`paxos::Timer`]
// range; the payload (e.g. a read id) in the rest.
const T_RELAY_SCAN: u64 = paxos::Timer::DISSEMINATION_BASE;
const T_RESHUFFLE: u64 = T_RELAY_SCAN + 1;
const T_AGG_FLUSH: u64 = T_RELAY_SCAN + 2;
const T_PQR_RINSE: u64 = T_RELAY_SCAN + 3;
const T_PROBE_FLUSH: u64 = T_RELAY_SCAN + 4;
const T_PROBE_WAVE: u64 = T_RELAY_SCAN + 5;
const TIMER_TAG_MASK: u64 = 0xff;

/// A PigPaxos replica (leader-capable, relay-capable): the Paxos core
/// disseminating through a [`RelayTree`].
pub type PigReplica = paxos::Replica<RelayTree>;

/// Relay-tree dissemination state: the groups this node would use as
/// leader, its in-flight aggregations as a relay, and its quorum reads
/// as a proxy.
pub struct RelayTree {
    me: NodeId,
    cfg: PigConfig,
    groups: RelayGroups,
    relays: RelayTable,
    /// Multi-round uplink coalescing (relay role).
    coalescer: UplinkCoalescer,
    /// True while an uplink coalesce-window timer is in flight.
    agg_timer_armed: bool,
    reads: PendingReads,
    /// Votes a quorum read needs before it may answer.
    read_quorum: usize,
    /// Proxy-side coalescing of quorum-read probes into relay waves
    /// (inert unless [`PigConfig::probe_batch`] enables it).
    probes: ProbeBatcher,
    /// The run's shared counters (the in-flight quorum-read gauge).
    stats: CompactionStats,
}

impl RelayTree {
    /// Fan `inner` out through one random relay per group, reporting
    /// each chosen relay to `on_relay` (probe waves track the exact
    /// relay set so each uplink can be matched back to its sender).
    fn disseminate(
        &mut self,
        inner: PaxosMsg,
        ctx: &mut Ctx<PigMsg>,
        mut on_relay: impl FnMut(NodeId),
    ) {
        let threshold = self.cfg.partial_threshold.unwrap_or(0);
        let picks = if self.cfg.rotate_relays {
            self.groups.pick_relays(ctx.rng())
        } else {
            self.groups.pick_fixed_relays()
        };
        for (relay, peers) in picks {
            let plan = build_plan(peers, self.cfg.levels, ctx.rng());
            let msg = PigMsg::ToRelay {
                reply_to: self.me,
                plan,
                inner: inner.clone(),
                threshold,
            };
            ctx.send_proto(relay, msg);
            on_relay(relay);
        }
    }

    // ---- relay side ------------------------------------------------------

    /// A `ToRelay` arrived: forward `inner` down the plan, process it
    /// here like any follower would, and open the aggregation with this
    /// node's own answer.
    fn relay(
        r: &mut PigReplica,
        reply_to: NodeId,
        plan: RelayPlan,
        inner: PaxosMsg,
        threshold: usize,
        ctx: &mut Ctx<PigMsg>,
    ) {
        for &p in &plan.peers {
            ctx.send_proto(p, PigMsg::Direct(inner.clone()));
        }
        for (sub, subplan) in &plan.sub {
            let msg = PigMsg::ToRelay {
                reply_to: r.d.me,
                plan: subplan.clone(),
                inner: inner.clone(),
                // Sub-relays answer for whole subtrees; thresholds are
                // enforced at the top-level relay only.
                threshold: 0,
            };
            ctx.send_proto(*sub, msg);
        }
        let expect: Vec<NodeId> = plan
            .peers
            .iter()
            .copied()
            .chain(plan.sub.iter().map(|(s, _)| *s))
            .collect();
        let deadline = ctx.now() + r.d.cfg.relay_timeout;
        let round = AggKey::of_request(&inner);
        let Some(answer) = r.handle(inner, ctx) else {
            return; // fan-out only (a heartbeat): nothing to answer
        };
        match (round, VoteSet::from_message(answer)) {
            (Some(key), Ok((_, own))) => {
                // The table counts individual votes, and each member of
                // a batched round contributes one per slot (or probe).
                let threshold = threshold * own.len().max(1);
                let flush =
                    r.d.relays
                        .open(key, reply_to, expect, own, threshold, deadline);
                if let Some(f) = flush {
                    r.d.send_flush(f, ctx);
                }
            }
            // Not a round (a relayed catch-up request, say): the answer
            // goes straight back. Votes only ever answer rounds.
            (_, Err(other)) => ctx.send_proto(reply_to, PigMsg::Direct(other)),
            (None, Ok(_)) => {}
        }
    }

    /// First look at a point-to-point message, by value: votes for a
    /// round this node is aggregating (or a read it is proxying) stop
    /// here; everything else reaches the core untouched — in particular
    /// every uplink at the leader, whose relay table is empty.
    fn first_look(r: &mut PigReplica, from: NodeId, inner: PaxosMsg, ctx: &mut Ctx<PigMsg>) {
        let me = r.d.me;
        match VoteSet::from_message(inner) {
            Err(other) => r.deliver(from, other, ctx),
            Ok((AggKey::Qr(reader, id, attempt), VoteSet::Qr(votes))) if reader == me => {
                r.d.feed_read_votes(id, attempt, votes, ctx);
            }
            Ok((AggKey::QrBatch(reader, wave), VoteSet::QrBatch(votes))) if reader == me => {
                r.d.on_probe_uplink(wave, from, votes, ctx);
            }
            Ok((key, votes)) if r.d.relays.expects(key, from) => {
                if let Some(f) = r.d.relays.add(key, from, votes) {
                    r.d.send_flush(f, ctx);
                }
            }
            Ok((key, votes)) => r.deliver(from, votes.into_message(key), ctx),
        }
    }

    /// Ship a completed aggregation, possibly holding batched-round
    /// aggregates in the uplink coalescer so several accept rounds share
    /// one `P2bBatch` to the leader.
    fn send_flush(&mut self, f: Flush, ctx: &mut Ctx<PigMsg>) {
        let (msgs, arm) = self.coalescer.offer(f);
        for (to, msg) in msgs {
            ctx.send_proto(to, PigMsg::Direct(msg));
        }
        if arm && !self.agg_timer_armed {
            self.agg_timer_armed = true;
            ctx.set_timer(self.coalescer.window(), T_AGG_FLUSH);
        }
    }

    // ---- quorum reads (§4.3) ---------------------------------------------

    /// Start proxying a read of `key`; `own` is this node's answer.
    fn start_quorum_read(
        &mut self,
        client: NodeId,
        cmd: &Command,
        key: paxi::Key,
        own: QrVoteEntry,
        ctx: &mut Ctx<PigMsg>,
    ) {
        let before = self.reads.len();
        let id = self
            .reads
            .start(client, cmd.id, key, self.read_quorum, ctx.now());
        // `start` supersedes any stuck read for the same request (a
        // client retry); reconcile the shared in-flight gauge.
        self.stats.note_pqr_started();
        let superseded = (before + 1).saturating_sub(self.reads.len());
        self.stats.note_pqr_finished(superseded as u64);
        self.probe_quorum_read(id, key, own, ctx);
    }

    /// Send (or re-send) the read probe: own answer first, then the
    /// relay-tree fan-out — per read (`QrRead`), or coalesced into the
    /// next probe wave when probe batching is on.
    fn probe_quorum_read(
        &mut self,
        id: u64,
        key: paxi::Key,
        own: QrVoteEntry,
        ctx: &mut Ctx<PigMsg>,
    ) {
        let attempt = self.reads.attempt_of(id).unwrap_or(1);
        let still_collecting = self.feed_read_votes(id, attempt, vec![own], ctx);
        if !still_collecting {
            return;
        }
        if self.probes.enabled() {
            match self.probes.push(QrProbe { id, attempt, key }, ctx.now()) {
                ProbePush::Flush(probes) => self.send_probe_wave(probes, ctx),
                ProbePush::ArmTimer => self.arm_probe_hold_timer(ctx),
                ProbePush::Buffered => {}
            }
        } else {
            let reader = self.me;
            let probe = PaxosMsg::QrRead {
                reader,
                id,
                attempt,
                key,
            };
            self.disseminate(probe, ctx, |_| {});
        }
    }

    /// Ship one coalesced probe wave down the relay tree. Probes whose
    /// read completed (or restarted onto a newer attempt) while they
    /// sat buffered are dropped first; the wave gate closes until every
    /// relay uplink returns or the wave timeout fires.
    fn send_probe_wave(&mut self, mut probes: Vec<QrProbe>, ctx: &mut Ctx<PigMsg>) {
        probes.retain(|p| self.reads.attempt_of(p.id) == Some(p.attempt));
        if probes.is_empty() {
            return; // nothing live; the gate stays open
        }
        let wave = self.probes.next_wave();
        let mut relays = BTreeSet::new();
        let msg = PaxosMsg::QrReadBatch {
            reader: self.me,
            wave,
            probes,
        };
        self.disseminate(msg, ctx, |relay| {
            relays.insert(relay);
        });
        if !relays.is_empty() {
            self.probes.wave_opened(wave, relays);
            // Relays flush partial aggregates at `relay_timeout`; give
            // the uplinks one more timeout of slack before force-opening
            // the gate (a crashed relay must not wedge probe batching).
            ctx.set_timer(self.cfg.relay_timeout * 2, T_PROBE_WAVE | (wave << 8));
        }
    }

    /// Arm the probe hold timer for the buffer currently filling,
    /// tagging it with the buffer's generation so a timer armed for an
    /// already-shipped buffer cannot flush a later one early.
    fn arm_probe_hold_timer(&mut self, ctx: &mut Ctx<PigMsg>) {
        let gen = self.probes.generation();
        ctx.set_timer(self.probes.config().max_delay, T_PROBE_FLUSH | (gen << 8));
    }

    /// A relay's wave uplink arrived at the proxy.
    fn on_probe_uplink(
        &mut self,
        wave: u64,
        from: NodeId,
        votes: Vec<QrProbeVote>,
        ctx: &mut Ctx<PigMsg>,
    ) {
        // The uplink may complete the wave and release the next one; do
        // that first so a rinse restart triggered by these votes lands
        // in the *following* wave, not a stale buffer.
        let release = self.probes.on_uplink(wave, from);
        self.release_probes(release, ctx);
        // Group per-probe answers in first-arrival order and feed each
        // read once. A wave holds a handful of probes, so a scan beats a
        // map.
        let mut grouped: Vec<((u64, u32), Vec<QrVoteEntry>)> = Vec::new();
        for v in votes {
            let key = (v.id, v.attempt);
            match grouped.iter_mut().find(|(k, _)| *k == key) {
                Some((_, entries)) => entries.push(v.entry),
                None => grouped.push((key, vec![v.entry])),
            }
        }
        for ((id, attempt), entries) in grouped {
            self.feed_read_votes(id, attempt, entries, ctx);
        }
    }

    fn release_probes(&mut self, release: ProbeRelease, ctx: &mut Ctx<PigMsg>) {
        match release {
            ProbeRelease::Flush(probes) => self.send_probe_wave(probes, ctx),
            ProbeRelease::ArmTimer => self.arm_probe_hold_timer(ctx),
            ProbeRelease::Idle => {}
        }
    }

    /// Feed probe answers for `attempt` into a pending read and act on
    /// the outcome. Returns true while the read still awaits more
    /// votes. Stale-attempt answers are dropped inside
    /// [`PendingReads::add_votes`].
    fn feed_read_votes(
        &mut self,
        id: u64,
        attempt: u32,
        votes: Vec<QrVoteEntry>,
        ctx: &mut Ctx<PigMsg>,
    ) -> bool {
        let Some((client, request)) = self.reads.client_of(id) else {
            return false; // already completed
        };
        match self.reads.add_votes(id, attempt, votes) {
            ReadOutcome::Pending => true,
            ReadOutcome::Done(value) => {
                self.stats.note_pqr_finished(1);
                ctx.reply(client, ClientReply::ok(request, value));
                false
            }
            ReadOutcome::Rinse => {
                ctx.set_timer(self.cfg.pqr_rinse_delay, T_PQR_RINSE | (id << 8));
                false
            }
        }
    }
}

/// Build the dissemination plan for one group's peers.
///
/// `levels == 1` contacts every peer directly (the paper's default).
/// `levels >= 2` splits the peers into ~√k subgroups, each with its own
/// randomly chosen sub-relay (§6.3 multi-level trees). Groups too small
/// to split fall back to a flat plan.
pub fn build_plan(peers: Vec<NodeId>, levels: usize, rng: &mut StdRng) -> RelayPlan {
    if levels <= 1 || peers.len() < 4 {
        return RelayPlan::flat(peers);
    }
    let k = (peers.len() as f64).sqrt().ceil() as usize;
    let per = peers.len().div_ceil(k);
    let mut sub = Vec::with_capacity(k);
    for chunk in peers.chunks(per) {
        let i = rng.gen_range(0..chunk.len());
        let sub_relay = chunk[i];
        let rest: Vec<NodeId> = chunk.iter().copied().filter(|&n| n != sub_relay).collect();
        sub.push((sub_relay, build_plan(rest, levels - 1, rng)));
    }
    RelayPlan {
        peers: Vec::new(),
        sub,
    }
}

impl Dissemination for RelayTree {
    type Msg = PigMsg;
    type Config = PigConfig;

    fn build(me: NodeId, cluster: &ClusterConfig, cfg: PigConfig) -> (Self, PaxosConfig) {
        // Explicit group specs describe the *configured leader's* view of
        // the followers. Every other node adapts the spec by taking the
        // leader's place in its own group — so if this node ever campaigns,
        // its groups keep the intended (e.g. per-region) structure.
        let swap = |&node: &NodeId| if node == me { cluster.leader } else { node };
        let spec = match &cfg.groups {
            GroupSpec::Explicit(gs) if me != cluster.leader => {
                GroupSpec::Explicit(gs.iter().map(|g| g.iter().map(swap).collect()).collect())
            }
            other => other.clone(),
        };
        // Sub-relays must answer their parent per round (the parent's
        // aggregation is keyed by the round's exact span), so multi-
        // round coalescing is only safe on single-level trees.
        let coalescer = if cfg.levels == 1 {
            UplinkCoalescer::new(cfg.relay_coalesce_window)
        } else {
            UplinkCoalescer::disabled()
        };
        let paxos = cfg.paxos.clone();
        let tree = RelayTree {
            me,
            groups: RelayGroups::build(&cluster.peers(me), &spec),
            relays: RelayTable::new(),
            coalescer,
            agg_timer_armed: false,
            reads: PendingReads::new(),
            // A read must meet every phase-2 quorum, as phase 1 must.
            read_quorum: paxos
                .flexible_quorums
                .map_or(cluster.majority(), |(q1, _q2)| q1),
            probes: ProbeBatcher::new(cfg.probe_batch.clone()),
            stats: cluster.stats.clone(),
            cfg,
        };
        (tree, paxos)
    }

    fn wrap(msg: PaxosMsg) -> PigMsg {
        PigMsg::Direct(msg)
    }

    /// One relay per group whatever the reach: a retry simply draws a
    /// fresh random relay set (paper §3.4).
    fn fan_out(r: &mut PigReplica, msg: PaxosMsg, _reach: Reach, ctx: &mut Ctx<PigMsg>) {
        r.d.disseminate(msg, ctx, |_| {});
    }

    fn receive(r: &mut PigReplica, from: NodeId, msg: PigMsg, ctx: &mut Ctx<PigMsg>) {
        match msg {
            PigMsg::ToRelay {
                reply_to,
                plan,
                inner,
                threshold,
            } => Self::relay(r, reply_to, plan, inner, threshold, ctx),
            PigMsg::Direct(inner) => Self::first_look(r, from, inner, ctx),
        }
    }

    fn on_start(r: &mut PigReplica, ctx: &mut Ctx<PigMsg>) {
        ctx.set_timer(r.d.cfg.relay_scan_interval, T_RELAY_SCAN);
        if let Some(interval) = r.d.cfg.reshuffle_interval {
            ctx.set_timer(interval, T_RESHUFFLE);
        }
    }

    /// §4.3: serve reads from any replica via a quorum read over the
    /// relay tree, keeping them entirely off the leader.
    fn serve_off_log(
        r: &mut PigReplica,
        client: NodeId,
        cmd: &Command,
        ctx: &mut Ctx<PigMsg>,
    ) -> bool {
        if !(r.d.cfg.pqr_reads && cmd.op.is_read()) {
            return false;
        }
        match cmd.op.key() {
            Some(key) => {
                let own = r.read_state(key);
                r.d.start_quorum_read(client, cmd, key, own, ctx);
            }
            None => ctx.reply(client, ClientReply::ok(cmd.id, None)),
        }
        true
    }

    fn bypasses_log(&self) -> bool {
        self.cfg.pqr_reads
    }

    fn on_timer(r: &mut PigReplica, kind: u64, ctx: &mut Ctx<PigMsg>) {
        let known_leader = r.known_leader();
        let payload = kind >> 8;
        match kind & TIMER_TAG_MASK {
            T_RELAY_SCAN => {
                let d = &mut r.d;
                for f in d.relays.expire(ctx.now()) {
                    d.send_flush(f, ctx);
                }
                // Piggyback the quorum-read starvation sweep: a read
                // whose current attempt has waited far longer than any
                // healthy probe round (votes lost to crashes) is handed
                // to the leader instead of leaking in the table.
                if !d.reads.is_empty() {
                    let max_age =
                        d.cfg.relay_timeout * 4 + d.cfg.pqr_rinse_delay * PQR_MAX_ATTEMPTS as u64;
                    let expired = d.reads.expire(ctx.now(), max_age);
                    d.stats.note_pqr_finished(expired.len() as u64);
                    for (client, request) in expired {
                        ctx.reply(client, ClientReply::redirect(request, known_leader));
                    }
                }
                ctx.set_timer(d.cfg.relay_scan_interval, T_RELAY_SCAN);
            }
            T_RESHUFFLE => {
                r.d.groups.reshuffle(ctx.rng());
                if let Some(interval) = r.d.cfg.reshuffle_interval {
                    ctx.set_timer(interval, T_RESHUFFLE);
                }
            }
            T_AGG_FLUSH => {
                r.d.agg_timer_armed = false;
                for (to, msg) in r.d.coalescer.flush_all() {
                    ctx.send_proto(to, PigMsg::Direct(msg));
                }
            }
            T_PQR_RINSE => match r.d.reads.restart(payload, ctx.now()) {
                Some((_client, key, attempt)) if attempt <= PQR_MAX_ATTEMPTS => {
                    let own = r.read_state(key);
                    r.d.probe_quorum_read(payload, key, own, ctx);
                }
                Some(_) => {
                    // Too many rinses: hand the client to the leader,
                    // which serializes the read through the log.
                    if let Some((client, request)) = r.d.reads.abort(payload) {
                        r.d.stats.note_pqr_finished(1);
                        ctx.reply(client, ClientReply::redirect(request, known_leader));
                    }
                }
                None => {}
            },
            T_PROBE_FLUSH => {
                if let Some(probes) = r.d.probes.on_hold_timer(payload) {
                    r.d.send_probe_wave(probes, ctx);
                }
            }
            T_PROBE_WAVE => {
                let release = r.d.probes.on_wave_timeout(payload);
                r.d.release_probes(release, ctx);
            }
            _ => {}
        }
    }
}

/// [`PigConfig`] is the protocol's [`paxi::ProtocolSpec`]: hand it to
/// [`paxi::Experiment`] to run PigPaxos on any topology and any
/// execution substrate. Clients default to the stable leader; with
/// [`PigConfig::pqr_reads`] enabled they spread uniformly over all
/// replicas so follower proxies serve the reads (§4.3).
impl paxi::ProtocolSpec for PigConfig {
    type Msg = PigMsg;

    fn protocol_name(&self) -> &'static str {
        "pigpaxos"
    }

    fn build_replica(
        &self,
        node: NodeId,
        cluster: &ClusterConfig,
    ) -> Box<dyn Actor<Envelope<PigMsg>> + Send> {
        Box::new(ReplicaActor(PigReplica::new(
            node,
            cluster.clone(),
            self.clone(),
        )))
    }

    fn default_target(&self, replicas: &[NodeId]) -> paxi::TargetPolicy {
        if self.pqr_reads {
            paxi::TargetPolicy::Random(replicas.to_vec())
        } else {
            paxi::TargetPolicy::Fixed(replicas[0])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi::{Experiment, TargetPolicy};
    use simnet::{Control, SimDuration, SimTime};

    fn exp(n: usize, clients: usize, groups: usize) -> Experiment<PigConfig> {
        with_cfg(PigConfig::lan(groups), n, clients)
    }

    fn with_cfg(cfg: PigConfig, n: usize, clients: usize) -> Experiment<PigConfig> {
        Experiment::lan(cfg, n)
            .clients(clients)
            .warmup(SimDuration::from_millis(300))
            .measure(SimDuration::from_millis(700))
    }

    #[test]
    fn conforms_at_five_and_twentyfive_nodes() {
        // Commits, follower crash, leader crash + re-election: shared
        // with every other single-leader protocol.
        paxi::conformance::check_replica(PigConfig::lan(2), 5, 4);
        paxi::conformance::check_replica(PigConfig::lan(3), 25, 8);
    }

    #[test]
    fn twentyfive_nodes_three_groups_commit() {
        let r = exp(25, 8, 3).run_sim(paxi::DEFAULT_SEED);
        assert!(
            r.protocol.violations().is_empty(),
            "{:?}",
            r.protocol.violations()
        );
        assert!(r.client.throughput > 100.0);
        // Paper Table 1: leader handles Ml = 2r + 2 = 8 messages per op.
        assert!(
            (r.transport.leader_msgs_per_op - 8.0).abs() < 2.0,
            "expected ≈8 leader msgs/op with r=3, got {}",
            r.transport.leader_msgs_per_op
        );
    }

    #[test]
    fn leader_load_grows_with_group_count() {
        let r2 = exp(25, 8, 2).run_sim(paxi::DEFAULT_SEED);
        let r6 = exp(25, 8, 6).run_sim(paxi::DEFAULT_SEED);
        assert!(
            r6.transport.leader_msgs_per_op > r2.transport.leader_msgs_per_op + 5.0,
            "r=6 leader ({}) must be busier than r=2 leader ({})",
            r6.transport.leader_msgs_per_op,
            r2.transport.leader_msgs_per_op
        );
    }

    #[test]
    fn multi_level_plan_covers_everyone() {
        let mut rng = rand::SeedableRng::seed_from_u64(3);
        let peers: Vec<NodeId> = (1..=12).map(NodeId).collect();
        let plan = build_plan(peers.clone(), 2, &mut rng);
        assert!(plan.peers.is_empty(), "2-level plan delegates everything");
        assert!(!plan.sub.is_empty());
        // All peers reachable: sub-relays + their plans cover the set.
        let mut covered: Vec<NodeId> = Vec::new();
        for (s, p) in &plan.sub {
            covered.push(*s);
            covered.extend(&p.peers);
            assert!(p.sub.is_empty(), "depth capped at 2");
        }
        covered.sort();
        assert_eq!(covered, peers);
    }

    #[test]
    fn multi_level_cluster_commits() {
        let mut cfg = PigConfig::lan(2);
        cfg.levels = 2;
        let r = with_cfg(cfg, 25, 4).run_sim(paxi::DEFAULT_SEED);
        assert!(
            r.protocol.violations().is_empty(),
            "{:?}",
            r.protocol.violations()
        );
        assert!(
            r.client.throughput > 100.0,
            "2-level trees must still commit"
        );
    }

    #[test]
    fn partial_threshold_cluster_commits() {
        let mut cfg = PigConfig::lan(3);
        // 25 nodes, 3 groups of 8: relays may respond after 5 votes each
        // (3×5 = 15 > majority 13, satisfying §4.2's constraint).
        cfg.partial_threshold = Some(5);
        let r = with_cfg(cfg, 25, 4).run_sim(paxi::DEFAULT_SEED);
        assert!(r.protocol.violations().is_empty());
        assert!(r.client.throughput > 100.0);
    }

    #[test]
    fn reshuffle_cluster_commits() {
        let mut cfg = PigConfig::lan(3);
        cfg.reshuffle_interval = Some(SimDuration::from_millis(100));
        let r = with_cfg(cfg, 9, 4).run_sim(paxi::DEFAULT_SEED);
        assert!(r.protocol.violations().is_empty());
        assert!(r.client.throughput > 100.0);
    }

    #[test]
    fn flexible_quorums_outlive_half_the_cluster() {
        // The paper's §2.2 example: N=10, Q1=8, Q2=3. Once a leader is
        // elected, losing five nodes — a whole relay group — leaves
        // phase 2 its quorum of three; majorities (six) cannot commit.
        let run = |cfg: PigConfig| {
            with_cfg(cfg, 10, 4).run_sim_with(paxi::DEFAULT_SEED, |sim| {
                for node in 1..=5 {
                    sim.schedule_control(SimTime::from_millis(200), Control::Crash(NodeId(node)));
                }
            })
        };
        let mut flexible = PigConfig::lan(2);
        flexible.paxos.flexible_quorums = Some((8, 3));
        let (flexible, majority) = (run(flexible), run(PigConfig::lan(2)));
        assert!(
            flexible.protocol.violations().is_empty(),
            "{:?}",
            flexible.protocol.violations()
        );
        assert!(
            majority.protocol.violations().is_empty(),
            "{:?}",
            majority.protocol.violations()
        );
        assert!(
            flexible.client.throughput > 100.0,
            "q2 = 3 of the 5 survivors must keep committing: {} ops/s",
            flexible.client.throughput
        );
        assert_eq!(majority.client.samples, 0, "5 of 10 cannot form a majority");
    }

    #[test]
    fn relay_timeout_delivers_partial_votes() {
        // Crash one node; the relay of its group must still answer within
        // the 50ms relay timeout, so commits continue at full speed.
        let r = exp(9, 4, 2).run_sim_with(paxi::DEFAULT_SEED, |sim| {
            sim.schedule_control(SimTime::from_millis(50), Control::Crash(NodeId(8)));
        });
        assert!(r.protocol.violations().is_empty());
        assert!(r.client.throughput > 100.0);
        assert!(
            r.client.mean_latency_ms < 20.0,
            "commits must not wait for the crashed node: {}ms",
            r.client.mean_latency_ms
        );
    }

    #[test]
    fn pqr_config_spreads_default_target() {
        use paxi::ProtocolSpec;
        let nodes: Vec<NodeId> = (0..5).map(NodeId).collect();
        assert!(matches!(
            PigConfig::lan(2).default_target(&nodes),
            TargetPolicy::Fixed(NodeId(0))
        ));
        let mut pqr = PigConfig::lan(2);
        pqr.pqr_reads = true;
        assert!(matches!(
            pqr.default_target(&nodes),
            TargetPolicy::Random(v) if v.len() == 5
        ));
    }
}
