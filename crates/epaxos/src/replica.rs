//! The EPaxos replica.
//!
//! Every replica is an opportunistic command leader (paper §2.3): the
//! replica a client contacts runs PreAccept against a fast quorum; if
//! all members agree on the command's attributes it commits in one round
//! (fast path), otherwise it fixes the attributes with a majority Accept
//! round (slow path) and then commits. Committed instances execute via
//! dependency-graph linearization ([`crate::graph`]).
//!
//! Scope note: explicit-prepare recovery (taking over another replica's
//! instance after its crash) is not implemented — the paper's EPaxos
//! experiments are failure-free, and recovery does not affect any
//! measured figure. Safety of the implemented paths is still
//! machine-checked by [`paxi::SafetyMonitor`].

use crate::attrs::InterferenceIndex;
use crate::config::{EpaxosConfig, ATTR_COST, GRAPH_VISIT_COST};
use crate::graph::{plan_execution, InstStatus, InstanceView};
use crate::messages::{Attrs, EpaxosMsg, InstanceId};
use paxi::log::MAX_HOLE;
use paxi::{
    fast_quorum, majority, Ballot, ClientReply, ClientRequest, ClusterConfig, Command, Ctx,
    KvStore, Replica, ReplicaCtx, RequestId, SessionTable,
};
use simnet::{CpuCostModel, NodeId, TimerId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    PreAccepted,
    Accepted,
    Committed,
    Executed,
}

#[derive(Debug)]
struct Instance {
    command: Command,
    attrs: Attrs,
    phase: Phase,
    // Owner-side tallies.
    preaccept_oks: usize,
    any_changed: bool,
    accept_oks: usize,
    client: Option<NodeId>,
}

/// Instance table + per-origin compaction floors: instances below an
/// origin's floor were executed and swept away, so the planner must see
/// them as `Executed` (not `Unknown`, which would block dependents
/// forever).
struct TableView<'a>(&'a HashMap<InstanceId, Instance>, &'a HashMap<NodeId, u64>);

impl InstanceView for TableView<'_> {
    fn status(&self, id: InstanceId) -> InstStatus {
        if id.slot < self.1.get(&id.replica).copied().unwrap_or(0) {
            return InstStatus::Executed;
        }
        match self.0.get(&id).map(|i| i.phase) {
            None => InstStatus::Unknown,
            Some(Phase::PreAccepted) | Some(Phase::Accepted) => InstStatus::Tentative,
            Some(Phase::Committed) => InstStatus::Committed,
            Some(Phase::Executed) => InstStatus::Executed,
        }
    }
    fn deps(&self, id: InstanceId) -> &[InstanceId] {
        self.0
            .get(&id)
            .map(|i| i.attrs.deps.as_slice())
            .unwrap_or(&[])
    }
    fn seq(&self, id: InstanceId) -> u64 {
        self.0.get(&id).map(|i| i.attrs.seq).unwrap_or(0)
    }
}

/// An EPaxos replica.
pub struct EpaxosReplica {
    me: NodeId,
    cluster: ClusterConfig,
    cfg: EpaxosConfig,
    instances: HashMap<InstanceId, Instance>,
    next_slot: u64,
    interference: InterferenceIndex,
    kv: KvStore,
    /// Committed-but-unexecuted instances (the execution frontier).
    unexecuted: BTreeSet<InstanceId>,
    /// Recently executed replies per client, for exactly-once retry
    /// replay (mirrors the Paxos/PigPaxos replicas): a retried command
    /// is answered from the cache instead of becoming a new instance.
    sessions: SessionTable,
    /// Own in-flight instances by request id, so a retry arriving
    /// before commit attaches to the existing instance.
    in_flight: HashMap<RequestId, InstanceId>,
    /// Per-origin-replica contiguous executed frontier: every instance
    /// `(r, slot)` with `slot < executed_floor[r]` was executed and
    /// compacted out of the table. The EPaxos analogue of the Paxos
    /// log's truncation floor — it only ever advances over *executed*
    /// instances, never past a committed-but-unexecuted or undecided
    /// one.
    executed_floor: HashMap<NodeId, u64>,
    /// Instances executed since the last compaction sweep (the
    /// `interval_ops` trigger input).
    executed_since_sweep: u64,
    /// Per member: one past the highest instance slot known from it.
    /// Only members have an entry; see [`EpaxosReplica::admit`].
    next_seen: BTreeMap<NodeId, u64>,
}

impl EpaxosReplica {
    /// Create the replica for `me`.
    pub fn new(me: NodeId, cluster: ClusterConfig, cfg: EpaxosConfig) -> Self {
        let next_seen = cluster.replicas.iter().map(|&r| (r, 0)).collect();
        EpaxosReplica {
            me,
            cluster,
            cfg,
            instances: HashMap::new(),
            next_slot: 0,
            interference: InterferenceIndex::new(),
            kv: KvStore::new(),
            unexecuted: BTreeSet::new(),
            sessions: SessionTable::new(),
            in_flight: HashMap::new(),
            executed_floor: HashMap::new(),
            executed_since_sweep: 0,
            next_seen,
        }
    }

    /// Whether an instance named off the wire may be stored: its origin
    /// is a member and its slot is below that origin's reach,
    /// [`MAX_HOLE`] past the highest slot known from it (as
    /// [`paxi::Log::reach`] bounds a Paxos log). Instance numbers size
    /// [`paxi::SafetyMonitor`]'s per-origin vectors, so a forged
    /// `slot: 1 << 40` would otherwise size a terabyte allocation. An
    /// admitted slot extends the reach.
    fn admit(&mut self, inst: InstanceId) -> bool {
        match self.next_seen.get_mut(&inst.replica) {
            Some(next) if inst.slot < next.saturating_add(MAX_HOLE) => {
                *next = (*next).max(inst.slot + 1);
                true
            }
            _ => false,
        }
    }

    /// True when `inst` lies below its origin's compaction floor — it
    /// executed here long ago and was swept; any message about it is
    /// stale.
    fn below_floor(&self, inst: InstanceId) -> bool {
        inst.slot < self.executed_floor.get(&inst.replica).copied().unwrap_or(0)
    }

    /// Compaction sweep: advance each origin's contiguous executed
    /// frontier and drop every instance below it. The EPaxos
    /// counterpart of log truncation — state below the floor is fully
    /// captured by the kv store (and the planner reports swept ids as
    /// executed), so the table stays bounded by the sweep interval plus
    /// the in-flight window.
    fn maybe_sweep(&mut self) {
        let Some(interval) = self.cfg.snapshot.interval_ops else {
            return;
        };
        if self.executed_since_sweep < interval {
            return;
        }
        self.executed_since_sweep = 0;
        for &r in &self.cluster.replicas {
            let f = self.executed_floor.entry(r).or_insert(0);
            while self
                .instances
                .get(&InstanceId {
                    replica: r,
                    slot: *f,
                })
                .is_some_and(|i| i.phase == Phase::Executed)
            {
                *f += 1;
            }
        }
        let before = self.instances.len();
        let floors = &self.executed_floor;
        self.instances
            .retain(|id, _| id.slot >= floors.get(&id.replica).copied().unwrap_or(0));
        // Count only sweeps that actually freed memory: a wave where
        // every origin's floor is pinned by a committed-but-unexecuted
        // instance drops nothing, and reporting it as a snapshot would
        // inflate the gated `snapshots_taken` metric.
        if self.instances.len() < before {
            self.cluster.stats.note_snapshot();
        }
    }

    /// The local state machine (tests/diagnostics).
    pub fn kv(&self) -> &KvStore {
        &self.kv
    }

    fn broadcast(&self, msg: EpaxosMsg, ctx: &mut Ctx<EpaxosMsg>) {
        for peer in self.cluster.peers(self.me) {
            ctx.send_proto(peer, msg.clone());
        }
    }

    fn commit_instance(&mut self, inst: InstanceId, ctx: &mut Ctx<EpaxosMsg>) {
        let i = self
            .instances
            .get_mut(&inst)
            .expect("committing unknown instance");
        debug_assert!(i.phase != Phase::Executed);
        if i.phase == Phase::Committed {
            return;
        }
        i.phase = Phase::Committed;
        self.cluster
            .safety
            .record(inst.replica.0, inst.slot, i.command.id);
        self.unexecuted.insert(inst);
        let msg = EpaxosMsg::Commit {
            inst,
            command: i.command.clone(),
            attrs: i.attrs.clone(),
        };
        self.broadcast(msg, ctx);
        self.try_execute(ctx);
    }

    /// Learn a commit decided elsewhere.
    fn learn_commit(
        &mut self,
        inst: InstanceId,
        command: Command,
        attrs: Attrs,
        ctx: &mut Ctx<EpaxosMsg>,
    ) {
        if self.below_floor(inst) {
            // Executed and swept here already; a late (duplicate)
            // commit must not resurrect the instance and re-apply it.
            return;
        }
        let entry = self.instances.entry(inst).or_insert_with(|| Instance {
            command: command.clone(),
            attrs: attrs.clone(),
            phase: Phase::PreAccepted,
            preaccept_oks: 0,
            any_changed: false,
            accept_oks: 0,
            client: None,
        });
        if entry.phase == Phase::Committed || entry.phase == Phase::Executed {
            return;
        }
        entry.command = command;
        entry.attrs = attrs;
        entry.phase = Phase::Committed;
        let (seq, op) = (entry.attrs.seq, entry.command.op.clone());
        self.interference.record(inst, seq, &op);
        self.cluster
            .safety
            .record(inst.replica.0, inst.slot, entry.command.id);
        self.unexecuted.insert(inst);
        self.try_execute(ctx);
    }

    fn try_execute(&mut self, ctx: &mut Ctx<EpaxosMsg>) {
        if self.unexecuted.is_empty() {
            return;
        }
        let roots: Vec<InstanceId> = self.unexecuted.iter().copied().collect();
        let plan = plan_execution(&roots, &TableView(&self.instances, &self.executed_floor));
        if plan.visited > 0 {
            ctx.charge(GRAPH_VISIT_COST * plan.visited as u64);
        }
        let executed_now = plan.order.len() as u64;
        for inst in plan.order {
            let i = self
                .instances
                .get_mut(&inst)
                .expect("planned unknown instance");
            debug_assert_eq!(i.phase, Phase::Committed);
            // Exactly-once at the state machine: a command that slipped
            // past proposal-time dedup (e.g. a retry re-proposed by a
            // different replica) is committed as an instance but must
            // not mutate state twice. The cached reply answers instead.
            let already = self.sessions.replay(i.command.id).cloned();
            let reply = match already {
                Some(cached) => {
                    let mut r = cached;
                    r.id = i.command.id;
                    r
                }
                None => {
                    let value = self.kv.apply(&i.command.op);
                    ctx.charge(CpuCostModel::EXEC_COST);
                    let r = ClientReply::ok(i.command.id, value);
                    self.sessions.record(&r);
                    r
                }
            };
            i.phase = Phase::Executed;
            self.unexecuted.remove(&inst);
            if inst.replica == self.me {
                self.in_flight.remove(&i.command.id);
                if let Some(client) = i.client.take() {
                    ctx.reply(client, reply);
                }
            }
        }
        if executed_now > 0 {
            self.executed_since_sweep += executed_now;
            // Sample the peak *before* sweeping — the pre-compaction
            // table size is what the memory-boundedness gate must see.
            self.cluster
                .stats
                .observe_log_len(self.instances.len() as u64);
            self.maybe_sweep();
        }
    }
}

impl Replica<EpaxosMsg> for EpaxosReplica {
    fn on_request(&mut self, client: NodeId, req: ClientRequest, ctx: &mut Ctx<EpaxosMsg>) {
        let command = req.command;
        // Exactly-once replay (ROADMAP item): a retry of an executed
        // command gets the cached reply; a retry of one still in flight
        // attaches to the existing instance instead of opening a new
        // one; anything older than the session window is dropped.
        if let Some(reply) = self.sessions.replay(command.id) {
            ctx.reply(client, reply.clone());
            return;
        }
        // In-flight before staleness: a retry of a pending instance must
        // attach to it even if the session window has moved past its seq
        // (dependency-ordered execution can finish successors first).
        if let Some(inst) = self.in_flight.get(&command.id) {
            if let Some(i) = self.instances.get_mut(inst) {
                if i.phase != Phase::Executed {
                    i.client = Some(client); // reply comes at execution
                    return;
                }
            }
        }
        if self.sessions.is_stale(command.id) {
            return;
        }
        let inst = InstanceId {
            replica: self.me,
            slot: self.next_slot,
        };
        self.next_slot += 1;
        self.next_seen.insert(self.me, self.next_slot);
        self.in_flight.insert(command.id, inst);
        ctx.charge(ATTR_COST);
        let attrs = self.interference.attrs_for(&command.op);
        self.interference.record(inst, attrs.seq, &command.op);
        self.instances.insert(
            inst,
            Instance {
                command: command.clone(),
                attrs: attrs.clone(),
                phase: Phase::PreAccepted,
                preaccept_oks: 1, // self
                any_changed: false,
                accept_oks: 0,
                client: Some(client),
            },
        );
        if self.cluster.n() == 1 {
            self.commit_instance(inst, ctx);
            return;
        }
        self.broadcast(
            EpaxosMsg::PreAccept {
                inst,
                ballot: Ballot::ZERO,
                command,
                attrs,
            },
            ctx,
        );
    }

    fn on_proto(&mut self, _from: NodeId, msg: EpaxosMsg, ctx: &mut Ctx<EpaxosMsg>) {
        match msg {
            EpaxosMsg::PreAccept {
                inst,
                ballot: _,
                command,
                attrs,
            } => {
                if self.below_floor(inst) || !self.admit(inst) {
                    return; // stale duplicate of a swept instance, or forged
                }
                ctx.charge(ATTR_COST);
                let mut merged = attrs;
                let local = self.interference.attrs_for(&command.op);
                let changed = merged.merge(&local);
                self.interference.record(inst, merged.seq, &command.op);
                self.instances.insert(
                    inst,
                    Instance {
                        command,
                        attrs: merged.clone(),
                        phase: Phase::PreAccepted,
                        preaccept_oks: 0,
                        any_changed: false,
                        accept_oks: 0,
                        client: None,
                    },
                );
                ctx.send_proto(
                    inst.replica,
                    EpaxosMsg::PreAcceptOk {
                        inst,
                        node: self.me,
                        attrs: merged,
                        changed,
                    },
                );
            }
            EpaxosMsg::PreAcceptOk {
                inst,
                node: _,
                attrs,
                changed,
            } => {
                let n = self.cluster.n();
                let Some(i) = self.instances.get_mut(&inst) else {
                    return;
                };
                if i.phase != Phase::PreAccepted || inst.replica != self.me {
                    return; // stale (already moved on)
                }
                i.preaccept_oks += 1;
                if changed {
                    i.any_changed = true;
                    i.attrs.merge(&attrs);
                }
                if i.preaccept_oks >= fast_quorum(n) {
                    if i.any_changed {
                        // Slow path: fix attributes with a majority.
                        i.phase = Phase::Accepted;
                        i.accept_oks = 1; // self
                        let msg = EpaxosMsg::Accept {
                            inst,
                            ballot: Ballot::ZERO,
                            command: i.command.clone(),
                            attrs: i.attrs.clone(),
                        };
                        self.broadcast(msg, ctx);
                    } else {
                        // Fast path: commit in one round trip.
                        self.commit_instance(inst, ctx);
                    }
                }
            }
            EpaxosMsg::Accept {
                inst,
                ballot: _,
                command,
                attrs,
            } => {
                if self.below_floor(inst) || !self.admit(inst) {
                    return; // stale duplicate of a swept instance, or forged
                }
                ctx.charge(ATTR_COST);
                self.interference.record(inst, attrs.seq, &command.op);
                let entry = self.instances.entry(inst).or_insert_with(|| Instance {
                    command: command.clone(),
                    attrs: attrs.clone(),
                    phase: Phase::Accepted,
                    preaccept_oks: 0,
                    any_changed: false,
                    accept_oks: 0,
                    client: None,
                });
                if entry.phase != Phase::Committed && entry.phase != Phase::Executed {
                    entry.command = command;
                    entry.attrs = attrs;
                    entry.phase = Phase::Accepted;
                }
                ctx.send_proto(
                    inst.replica,
                    EpaxosMsg::AcceptOk {
                        inst,
                        node: self.me,
                    },
                );
            }
            EpaxosMsg::AcceptOk { inst, node: _ } => {
                let n = self.cluster.n();
                let Some(i) = self.instances.get_mut(&inst) else {
                    return;
                };
                if i.phase != Phase::Accepted || inst.replica != self.me {
                    return;
                }
                i.accept_oks += 1;
                if i.accept_oks >= majority(n) {
                    self.commit_instance(inst, ctx);
                }
            }
            EpaxosMsg::Commit {
                inst,
                command,
                attrs,
            } => {
                if self.admit(inst) {
                    self.learn_commit(inst, command, attrs, ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, _id: TimerId, _kind: u64, _ctx: &mut Ctx<EpaxosMsg>) {}

    /// `try_execute` records every executed command's reply in
    /// `sessions` before the reply can leave.
    fn applied(&self) -> Option<(&KvStore, &SessionTable)> {
        Some((&self.kv, &self.sessions))
    }
}

/// [`EpaxosConfig`] is the protocol's [`paxi::ProtocolSpec`]: hand it
/// to [`paxi::Experiment`] to run EPaxos on any topology and either
/// execution substrate. EPaxos is leaderless, so clients default to a
/// uniformly random replica per request, matching the paper's EPaxos
/// client setup.
impl paxi::ProtocolSpec for EpaxosConfig {
    type Msg = EpaxosMsg;
    type Replica = EpaxosReplica;

    fn protocol_name(&self) -> &'static str {
        "epaxos"
    }

    fn replica(&self, node: NodeId, cluster: &ClusterConfig) -> EpaxosReplica {
        EpaxosReplica::new(node, cluster.clone(), self.clone())
    }

    fn default_target(&self, replicas: &[NodeId]) -> paxi::TargetPolicy {
        paxi::TargetPolicy::Random(replicas.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxi::{Experiment, Workload};
    use simnet::SimDuration;

    fn exp(n: usize, clients: usize) -> Experiment<EpaxosConfig> {
        // EPaxos's default target is already a random spread over all
        // replicas — no per-protocol client wiring needed.
        Experiment::lan(EpaxosConfig::default(), n)
            .clients(clients)
            .warmup(SimDuration::from_millis(300))
            .measure(SimDuration::from_millis(700))
    }

    #[test]
    fn five_node_cluster_commits() {
        let r = exp(5, 4).run_sim(paxi::DEFAULT_SEED);
        assert!(
            r.protocol.violations().is_empty(),
            "{:?}",
            r.protocol.violations()
        );
        assert!(
            r.client.throughput > 100.0,
            "throughput {}",
            r.client.throughput
        );
        assert!(r.protocol.decided() > 50);
    }

    #[test]
    fn conforms_at_five_nodes() {
        // Commits, follower crash, crash of the node clients reach
        // first: the promises every protocol shares.
        paxi::conformance::check_replica(EpaxosConfig::default(), 5, 8);
    }

    #[test]
    fn twentyfive_node_cluster_commits() {
        let r = exp(25, 8).run_sim(paxi::DEFAULT_SEED);
        assert!(
            r.protocol.violations().is_empty(),
            "{:?}",
            r.protocol.violations()
        );
        assert!(r.client.throughput > 50.0);
    }

    #[test]
    fn load_is_spread_across_replicas() {
        let r = exp(5, 8).run_sim(paxi::DEFAULT_SEED);
        // No dedicated leader: every replica should carry comparable
        // message load (unlike Paxos where the leader dominates).
        let max = r.transport.node_msgs[..5].iter().max().copied().unwrap() as f64;
        let min = r.transport.node_msgs[..5].iter().min().copied().unwrap() as f64;
        assert!(min > 0.0);
        assert!(
            max / min < 2.0,
            "balanced load expected, got {:?}",
            &r.transport.node_msgs[..5]
        );
    }

    #[test]
    fn conflicting_workload_still_safe() {
        // Tiny key space: every command interferes, exercising the slow
        // path and SCC execution heavily.
        let r = exp(5, 8)
            .workload(Workload {
                num_keys: 2,
                ..Workload::paper_default()
            })
            .run_sim(paxi::DEFAULT_SEED);
        assert!(
            r.protocol.violations().is_empty(),
            "{:?}",
            r.protocol.violations()
        );
        assert!(r.client.throughput > 10.0);
    }

    #[test]
    fn single_node_degenerate_cluster() {
        let r = exp(1, 2).run_sim(paxi::DEFAULT_SEED);
        assert!(r.protocol.violations().is_empty());
        assert!(r.client.throughput > 100.0);
    }

    #[test]
    fn retried_commands_do_not_become_new_instances() {
        use paxi::{ClusterConfig, Envelope, Operation, ReplicaActor, Value};
        use simnet::{Actor, Context, CpuCostModel, SimTime, Simulation, TimerId, Topology};

        /// Sends the same Put three times (original + two retries),
        /// then a Get on the same key; counts ok replies.
        struct RetryingClient {
            target: NodeId,
            sent: u32,
            oks: std::rc::Rc<std::cell::RefCell<u32>>,
        }
        impl RetryingClient {
            fn put(&self, ctx: &mut Context<Envelope<EpaxosMsg>>) {
                let id = paxi::RequestId {
                    client: ctx.node(),
                    seq: 1,
                };
                ctx.send(
                    self.target,
                    Envelope::Request(ClientRequest {
                        command: Command {
                            id,
                            op: Operation::Put(7, Value::zeros(4)),
                        },
                    }),
                );
            }
        }
        impl Actor<Envelope<EpaxosMsg>> for RetryingClient {
            fn on_start(&mut self, ctx: &mut Context<Envelope<EpaxosMsg>>) {
                self.put(ctx);
                self.sent = 1;
                ctx.set_timer(simnet::SimDuration::from_millis(5), 0);
            }
            fn on_message(
                &mut self,
                _f: NodeId,
                msg: Envelope<EpaxosMsg>,
                _ctx: &mut Context<Envelope<EpaxosMsg>>,
            ) {
                if matches!(msg, Envelope::Reply(r) if r.ok) {
                    *self.oks.borrow_mut() += 1;
                }
            }
            fn on_timer(&mut self, _i: TimerId, _k: u64, ctx: &mut Context<Envelope<EpaxosMsg>>) {
                if self.sent < 3 {
                    self.put(ctx); // retry: reply lost or slow
                    self.sent += 1;
                    ctx.set_timer(simnet::SimDuration::from_millis(5), 0);
                }
            }
        }

        let mut topo = Topology::lan(3);
        topo.add_nodes(1, 0);
        let mut sim: Simulation<Envelope<EpaxosMsg>> =
            Simulation::new(topo, CpuCostModel::calibrated(), 5);
        let cluster = ClusterConfig::new(3);
        for i in 0..3usize {
            sim.add_actor(Box::new(ReplicaActor(EpaxosReplica::new(
                NodeId::from(i),
                cluster.clone(),
                EpaxosConfig::default(),
            ))));
        }
        let oks = std::rc::Rc::new(std::cell::RefCell::new(0u32));
        sim.add_actor(Box::new(RetryingClient {
            target: NodeId(0),
            sent: 0,
            oks: oks.clone(),
        }));
        sim.run_until(SimTime::from_millis(100));
        cluster.safety.assert_safe();
        let decided_copies = cluster
            .safety
            .decisions()
            .iter()
            .filter(|((_, _), id)| id.seq == 1 && id.client == NodeId(3))
            .count();
        assert_eq!(
            decided_copies, 1,
            "retries must attach to or replay the existing instance, \
             not open new ones"
        );
        assert!(
            *oks.borrow() >= 2,
            "retries are answered from the session cache, got {}",
            oks.borrow()
        );
    }

    #[test]
    fn compaction_bounds_the_instance_table() {
        let interval = 100;
        let cfg = EpaxosConfig::default().with_snapshots(paxi::SnapshotConfig::every_ops(interval));
        let r = Experiment::lan(cfg, 5)
            .clients(8)
            .warmup(SimDuration::from_millis(300))
            .measure(SimDuration::from_secs(2))
            .run_sim(paxi::DEFAULT_SEED);
        assert!(
            r.protocol.violations().is_empty(),
            "{:?}",
            r.protocol.violations()
        );
        assert!(
            r.protocol.decided() > 3 * interval,
            "enough ops to sweep: {}",
            r.protocol.decided()
        );
        assert!(r.protocol.snapshots_taken() > 0, "sweeps must have run");
        assert!(
            r.protocol.max_log_len() <= 2 * interval,
            "instance table must stay bounded by the sweep interval: \
             {} instances > 2x{interval}",
            r.protocol.max_log_len()
        );
        // Same run without compaction grows past the bound.
        let unbounded = Experiment::lan(EpaxosConfig::default(), 5)
            .clients(8)
            .warmup(SimDuration::from_millis(300))
            .measure(SimDuration::from_secs(2))
            .run_sim(paxi::DEFAULT_SEED);
        assert_eq!(unbounded.protocol.snapshots_taken(), 0);
        assert!(
            unbounded.protocol.max_log_len() > r.protocol.max_log_len() * 2,
            "without sweeps the table grows without bound: {} vs {}",
            unbounded.protocol.max_log_len(),
            r.protocol.max_log_len()
        );
    }

    #[test]
    fn reads_see_prior_writes() {
        // Direct unit-style check of execution semantics through the
        // public replica API is covered by graph tests; here we assert
        // end-to-end sanity: plenty of reads completed and nothing
        // violated agreement.
        let r = exp(3, 4)
            .workload(Workload {
                read_ratio: 0.9,
                ..Workload::paper_default()
            })
            .run_sim(paxi::DEFAULT_SEED);
        assert!(r.protocol.violations().is_empty());
        assert!(r.client.samples > 100);
    }
}
