//! The unified experiment API: one protocol-generic, substrate-generic
//! builder for clusters, workloads, and measurements.
//!
//! The paper's whole argument is comparative — PigPaxos vs. Paxos vs.
//! EPaxos across node counts, relay-group counts, and workloads — so
//! the framework makes the experimental axes orthogonal builder
//! parameters of one type, [`Experiment`]:
//!
//! * **protocol** — any [`ProtocolSpec`] (a protocol crate's config
//!   type: `PaxosConfig`, `PigConfig`, `EpaxosConfig`);
//! * **topology** — a [`simnet::Topology`] (LAN, multi-region WAN);
//! * **workload & clients** — [`Workload`], client count, pipeline
//!   depth, target policy;
//! * **substrate** — the deterministic simulator
//!   ([`Experiment::run_sim`]), or real OS threads on one readiness loop
//!   per core, passing messages in memory ([`Experiment::run_threads`])
//!   or over loopback TCP sockets with full wire encoding
//!   ([`Experiment::run_net`]).
//!
//! All substrates drive the *same unmodified replica actors* through
//! the one engine in [`crate::harness`] and yield the same
//! [`RunResult`] shape — substrate parity is a first-class API
//! property, not a demo.
//!
//! ```
//! use paxi::Experiment;
//! # use paxi::{ClusterConfig, Envelope, ProtocolSpec};
//! # use paxi::{ClientReply, ClientRequest};
//! # use paxi::{Ctx, Replica, ReplicaActor, ReplicaCtx};
//! # use simnet::{Actor, NodeId, SimDuration};
//! # #[derive(Debug, Clone)]
//! # struct NoMsg;
//! # impl paxi::ProtoMessage for NoMsg { fn wire_size(&self) -> usize { 0 } }
//! # struct Ack(ClusterConfig, u64);
//! # impl Replica<NoMsg> for Ack {
//! #     fn on_request(&mut self, c: NodeId, req: ClientRequest, ctx: &mut Ctx<NoMsg>) {
//! #         self.0.safety.record(0, self.1, req.command.id);
//! #         self.1 += 1;
//! #         ctx.reply(c, ClientReply::ok(req.command.id, None));
//! #     }
//! #     fn on_proto(&mut self, _f: NodeId, _m: NoMsg, _c: &mut Ctx<NoMsg>) {}
//! # }
//! # #[derive(Clone)]
//! # struct AckSpec;
//! # impl ProtocolSpec for AckSpec {
//! #     type Msg = NoMsg;
//! #     fn protocol_name(&self) -> &'static str { "ack" }
//! #     fn build_replica(
//! #         &self,
//! #         _node: NodeId,
//! #         cluster: &ClusterConfig,
//! #     ) -> Box<dyn Actor<Envelope<NoMsg>> + Send> {
//! #         Box::new(ReplicaActor(Ack(cluster.clone(), 0)))
//! #     }
//! # }
//! // A 1-node "cluster" of instant-ack replicas, 4 closed-loop clients:
//! let result = Experiment::lan(AckSpec, 1)
//!     .clients(4)
//!     .warmup(SimDuration::from_millis(100))
//!     .measure(SimDuration::from_millis(400))
//!     .run_sim(7);
//! assert!(result.protocol.violations().is_empty());
//! assert!(result.client.throughput > 100.0);
//! ```
//!
//! With a real protocol crate in scope the same shape reads:
//!
//! ```text
//! let result = Experiment::lan(PigConfig::lan(3), 25)
//!     .clients(40)
//!     .run_sim(paxi::DEFAULT_SEED);
//! ```
//!
//! and sweeps that used to be copy-pasted binaries become loops:
//!
//! ```text
//! for r in 2..=6 {
//!     let t = Experiment::lan(PigConfig::lan(r), 25)
//!         .max_throughput(paxi::DEFAULT_SEED, &[20, 40, 80, 160]);
//! }
//! ```

use crate::client::TargetPolicy;
use crate::cluster::ClusterConfig;
use crate::envelope::{Envelope, ProtoMessage};
use crate::harness::{self, LoadPoint, RunResult};
use crate::workload::Workload;
use pig_runtime::{NetRuntime, Runtime};
use simnet::{Actor, NodeId, SimDuration, Simulation, Topology};
use std::time::Duration;

/// A consensus protocol as seen by the experiment harness: a cheaply
/// clonable configuration value that can stamp out one replica per
/// node.
///
/// Protocol crates implement this on their config types (`PaxosConfig`,
/// `PigConfig`, `EpaxosConfig`), which keeps every protocol-specific
/// knob — batching, relay coalescing, PQR mode, quorum shapes — inside
/// the one typed value a caller already constructs, while topology,
/// workload, and substrate stay protocol-agnostic in [`Experiment`].
pub trait ProtocolSpec: Clone + 'static {
    /// The protocol's internal wire message type. `Send` because the
    /// thread substrate moves messages across OS threads.
    type Msg: ProtoMessage + Send;

    /// Short protocol name for reports ("paxos", "pigpaxos", "epaxos").
    fn protocol_name(&self) -> &'static str;

    /// Build the replica actor for `node` of `cluster` (a
    /// [`crate::Replica`] behind a [`crate::ReplicaActor`]). `Send` so
    /// the same replica serves both the simulator and the wall-clock
    /// runtimes.
    fn build_replica(
        &self,
        node: NodeId,
        cluster: &ClusterConfig,
    ) -> Box<dyn Actor<Envelope<Self::Msg>> + Send>;

    /// The target policy clients use when the experiment does not set
    /// one explicitly. Defaults to the stable leader (replica 0);
    /// leaderless protocols (EPaxos) and proxy-read configurations
    /// (PigPaxos with PQR) override this with a random spread.
    fn default_target(&self, replicas: &[NodeId]) -> TargetPolicy {
        TargetPolicy::Fixed(replicas[0])
    }
}

/// One fully described experiment: protocol × topology × workload ×
/// client population, runnable on any execution substrate.
///
/// Construct with [`Experiment::lan`] or [`Experiment::wan`]; refine
/// with the fluent setters; execute with [`run_sim`](Experiment::run_sim),
/// [`run_sim_with`](Experiment::run_sim_with) (fault injection),
/// [`run_threads`](Experiment::run_threads),
/// [`run_net`](Experiment::run_net) (TCP sockets),
/// [`load_sweep`](Experiment::load_sweep), or
/// [`max_throughput`](Experiment::max_throughput).
///
/// The value is reusable: run methods take `&self`, so one experiment
/// can be executed under several seeds or on every substrate.
#[derive(Clone)]
pub struct Experiment<P: ProtocolSpec> {
    pub(crate) proto: P,
    /// Covers the replicas; clients are appended at run time.
    pub(crate) topology: Topology,
    pub(crate) n_clients: usize,
    pub(crate) client_pipeline: usize,
    pub(crate) extra_client_nodes: usize,
    pub(crate) workload: Workload,
    pub(crate) warmup: SimDuration,
    pub(crate) measure: SimDuration,
    pub(crate) retry_timeout: SimDuration,
    pub(crate) timeline_bucket: Option<SimDuration>,
    pub(crate) drain: SimDuration,
    pub(crate) capture_trace: bool,
    pub(crate) check_history: bool,
    target: Option<TargetPolicy>,
}

impl<P: ProtocolSpec> Experiment<P> {
    /// A protocol on a replica topology, with the paper-default
    /// workload, zero clients, and LAN-grade timing defaults (1 s
    /// warmup, 4 s measurement, 100 ms client retry).
    fn builder(proto: P, topology: Topology) -> Self {
        Experiment {
            proto,
            topology,
            n_clients: 0,
            client_pipeline: 1,
            extra_client_nodes: 0,
            workload: Workload::paper_default(),
            warmup: SimDuration::from_secs(1),
            measure: SimDuration::from_secs(4),
            retry_timeout: SimDuration::from_millis(100),
            timeline_bucket: None,
            drain: SimDuration::ZERO,
            capture_trace: false,
            check_history: false,
            target: None,
        }
    }

    /// An `n_replicas`-node single-region LAN cluster.
    pub fn lan(proto: P, n_replicas: usize) -> Self {
        Self::builder(proto, Topology::lan(n_replicas))
    }

    /// The paper's WAN: `n_replicas` spread over Virginia, California,
    /// and Oregon; clients co-located with the leader in Virginia; a
    /// WAN-grade 2 s client retry timeout.
    pub fn wan(proto: P, n_replicas: usize) -> Self {
        Self::builder(proto, Topology::wan_virginia_california_oregon(n_replicas))
            .retry_timeout(SimDuration::from_secs(2))
    }

    // ---- fluent settings -------------------------------------------------

    /// Number of closed-loop clients (the offered-load control).
    pub fn clients(mut self, n: usize) -> Self {
        self.n_clients = n;
        self
    }

    /// Requests each client keeps in flight (default 1; higher values
    /// model one connection multiplexing several user sessions).
    pub fn client_pipeline(mut self, depth: usize) -> Self {
        self.client_pipeline = depth;
        self
    }

    /// Extra client-side topology nodes with **no** harness-spawned
    /// clients; a [`run_sim_with`](Experiment::run_sim_with) hook can
    /// populate them with custom client actors (a nemesis, a scripted
    /// client).
    pub fn extra_client_nodes(mut self, n: usize) -> Self {
        self.extra_client_nodes = n;
        self
    }

    /// Workload specification (default [`Workload::paper_default`]).
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Ramp-up time excluded from measurement (simulator substrate).
    pub fn warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Measurement window length (simulator substrate).
    pub fn measure(mut self, measure: SimDuration) -> Self {
        self.measure = measure;
        self
    }

    /// Client retry timeout.
    pub fn retry_timeout(mut self, timeout: SimDuration) -> Self {
        self.retry_timeout = timeout;
        self
    }

    /// Also produce a per-bucket throughput timeline (Fig. 13 style).
    pub fn timeline_bucket(mut self, bucket: SimDuration) -> Self {
        assert!(
            bucket > SimDuration::ZERO,
            "timeline bucket must be positive"
        );
        self.timeline_bucket = Some(bucket);
        self
    }

    /// Quiesce for `d` after the measurement window (clients crashed,
    /// replicas left running) and collect per-replica state digests
    /// into [`crate::ProtocolResult::replica_digests`] for convergence
    /// checks. Default [`SimDuration::ZERO`] skips the phase — the event
    /// schedule then stays bit-identical to a drain-less run.
    pub fn drain(mut self, d: SimDuration) -> Self {
        self.drain = d;
        self
    }

    /// Capture a full message trace ([`crate::TransportResult::trace`]
    /// and [`crate::TransportResult::label_counts`]). Off by default —
    /// high-throughput runs generate millions of entries.
    pub fn capture_trace(mut self) -> Self {
        self.capture_trace = true;
        self
    }

    /// Override the client target policy. Without this, clients use the
    /// protocol's [`ProtocolSpec::default_target`].
    pub fn target(mut self, target: TargetPolicy) -> Self {
        self.target = Some(target);
        self
    }

    /// Log every client operation and check the log for
    /// linearizability into [`crate::ClientResult::history`] (see
    /// [`crate::history`]). Clients then put values stamped with their
    /// request id: sizes, and so the schedule, are those of the
    /// unchecked run.
    pub fn check_linearizability(mut self) -> Self {
        self.check_history = true;
        self
    }

    // ---- accessors -------------------------------------------------------

    /// The protocol configuration this experiment runs.
    pub fn protocol(&self) -> &P {
        &self.proto
    }

    /// The replica topology (clients are appended at run time).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of consensus replicas.
    pub fn n_replicas(&self) -> usize {
        self.topology.num_nodes()
    }

    /// The target policy clients will use: the explicit override if
    /// set, otherwise the protocol's default.
    pub fn resolved_target(&self) -> TargetPolicy {
        match &self.target {
            Some(t) => t.clone(),
            None => {
                let replicas: Vec<NodeId> = (0..self.n_replicas()).map(NodeId::from).collect();
                self.proto.default_target(&replicas)
            }
        }
    }

    // ---- execution -------------------------------------------------------

    /// Run on the deterministic simulator. The seed fixes every source
    /// of randomness; identical `(experiment, seed)` pairs produce
    /// bit-identical results (the determinism contract the perf gate
    /// relies on).
    pub fn run_sim(&self, seed: u64) -> RunResult {
        self.run_sim_with(seed, |_| {})
    }

    /// Run on the simulator with a setup/fault-injection hook. The hook
    /// fires after all actors are registered and before the simulation
    /// starts — schedule crashes, partitions, drop rates, or add custom
    /// client actors into [`extra_client_nodes`](Self::extra_client_nodes)
    /// slots.
    pub fn run_sim_with<H>(&self, seed: u64, hook: H) -> RunResult
    where
        H: FnOnce(&mut Simulation<Envelope<P::Msg>>),
    {
        harness::drive_sim(self, seed, hook)
    }

    /// Run the *same* experiment on real OS threads via
    /// `pig_runtime::Runtime`: one readiness loop per core, messages
    /// passed between nodes as values, wall-clock timers — no simulator
    /// anywhere. Per-node RNG seeds derive from `seed` with the same
    /// scheme the simulator uses ([`simnet::derive_node_seed`]).
    ///
    /// Wall-clock execution is not deterministic, so the whole `wall`
    /// span is measured (the `warmup`/`measure`/`drain` phases do not
    /// apply). The transport observes real traffic:
    /// [`crate::TransportResult::net`] carries its counters (the socket
    /// ones are 0), and `node_msgs` and `label_counts` derive from them
    /// — over the whole run, election included, so compare rates rather
    /// than raw counts against simulator runs.
    pub fn run_threads(&self, seed: u64, wall: Duration) -> RunResult {
        harness::drive_wall(self, Runtime::new(seed), Runtime::run_for, wall)
    }

    /// Run the *same* experiment over real TCP sockets via
    /// `pig_runtime::NetRuntime`: the same loops as
    /// [`run_threads`](Self::run_threads), a loopback TCP connection per
    /// communicating pair, every cross-node message (client and
    /// protocol) encoded to its [`simnet::Wire`] bytes and
    /// decoded on arrival — the full production I/O path minus
    /// geographic distance. It reports what `run_threads` reports, plus
    /// the socket counters in [`crate::TransportResult::net`].
    ///
    /// Requires `P::Msg: Wire` (all three protocol crates implement
    /// it); the [`Envelope`] blanket impl then covers the client
    /// traffic. The encoded size of every message equals its
    /// [`ProtoMessage::wire_size`], so the bytes crossing these sockets
    /// are exactly the bytes the simulator's CPU model charges for.
    pub fn run_net(&self, seed: u64, wall: Duration) -> RunResult
    where
        P::Msg: simnet::Wire,
    {
        harness::drive_wall(self, NetRuntime::new(seed), NetRuntime::run_for, wall)
    }

    /// Sweep offered load (client counts) on the simulator and return
    /// one point per count — the raw material of the paper's
    /// latency/throughput figures (8–11). Each point runs under `seed`
    /// plus its client count.
    pub fn load_sweep(&self, seed: u64, client_counts: &[usize]) -> Vec<LoadPoint> {
        client_counts
            .iter()
            .map(|&clients| {
                let result = self
                    .clone()
                    .clients(clients)
                    .run_sim(seed.wrapping_add(clients as u64));
                LoadPoint { clients, result }
            })
            .collect()
    }

    /// Maximum throughput over a load sweep (the paper's "max
    /// throughput" metric used in Figs. 7, 12, 13).
    pub fn max_throughput(&self, seed: u64, client_counts: &[usize]) -> f64 {
        self.load_sweep(seed, client_counts)
            .iter()
            .map(|p| p.result.client.throughput)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::command::{ClientReply, ClientRequest};
    use crate::kv::KvStore;
    use crate::replica::{Ctx, Replica, ReplicaActor, ReplicaCtx};

    // ---- the instant-ack protocol every harness-level unit test in
    // ---- this crate runs (here and in `harness`) ----------------------

    #[derive(Debug, Clone)]
    pub(crate) struct NoProto;
    impl ProtoMessage for NoProto {
        fn wire_size(&self) -> usize {
            0
        }
    }
    impl simnet::Wire for NoProto {
        fn encode_into(&self, _out: &mut Vec<u8>) {
            unreachable!("instant-ack replicas never send protocol messages")
        }
        fn decode(_r: &mut simnet::WireReader<'_>) -> Result<Self, simnet::WireError> {
            Err(simnet::WireError::BadTag {
                what: "no_proto",
                got: 0,
            })
        }
    }

    /// Single-replica "consensus": applies every request to a local KV
    /// and records the decision with its cluster's safety monitor.
    pub(crate) struct Instant {
        cluster: ClusterConfig,
        kv: KvStore,
        slot: u64,
    }
    impl Replica<NoProto> for Instant {
        fn on_request(&mut self, client: NodeId, req: ClientRequest, ctx: &mut Ctx<NoProto>) {
            self.cluster.safety.record(0, self.slot, req.command.id);
            self.slot += 1;
            let value = self.kv.apply(&req.command.op);
            ctx.reply(client, ClientReply::ok(req.command.id, value));
        }
        fn on_proto(&mut self, _f: NodeId, _m: NoProto, _c: &mut Ctx<NoProto>) {}
        fn applied(&self) -> Option<&KvStore> {
            Some(&self.kv)
        }
    }

    #[derive(Clone)]
    pub(crate) struct InstantSpec;
    impl ProtocolSpec for InstantSpec {
        type Msg = NoProto;
        fn protocol_name(&self) -> &'static str {
            "instant"
        }
        fn build_replica(
            &self,
            _node: NodeId,
            cluster: &ClusterConfig,
        ) -> Box<dyn Actor<Envelope<NoProto>> + Send> {
            Box::new(ReplicaActor(Instant {
                cluster: cluster.clone(),
                kv: KvStore::new(),
                slot: 0,
            }))
        }
    }

    /// One instant-ack replica, 200 ms warm-up, 800 ms window.
    pub(crate) fn small() -> Experiment<InstantSpec> {
        Experiment::lan(InstantSpec, 1)
            .warmup(SimDuration::from_millis(200))
            .measure(SimDuration::from_millis(800))
    }

    #[test]
    fn builder_round_trips_settings() {
        let exp = small()
            .clients(4)
            .client_pipeline(2)
            .capture_trace()
            .target(TargetPolicy::Fixed(NodeId(0)));
        assert_eq!(exp.n_replicas(), 1);
        assert_eq!(exp.protocol().protocol_name(), "instant");
        assert!(matches!(
            exp.resolved_target(),
            TargetPolicy::Fixed(NodeId(0))
        ));
    }

    #[test]
    fn default_target_is_protocol_defined() {
        let exp = Experiment::lan(InstantSpec, 3);
        assert!(matches!(
            exp.resolved_target(),
            TargetPolicy::Fixed(NodeId(0))
        ));
    }

    #[test]
    fn run_sim_measures_and_checks_safety() {
        let r = small().clients(4).run_sim(3);
        assert!(
            r.client.throughput > 100.0,
            "throughput {}",
            r.client.throughput
        );
        assert!(r.protocol.violations().is_empty());
        assert!(r.protocol.decided() > 0);
        assert!(r.client.p99_latency_ms >= r.client.p50_latency_ms);
    }

    #[test]
    fn run_sim_is_deterministic_per_seed() {
        let a = small().clients(2).run_sim(7);
        let b = small().clients(2).run_sim(7);
        assert_eq!(a.client.samples, b.client.samples);
        assert_eq!(a.transport.node_msgs, b.transport.node_msgs);
        let c = small().clients(2).run_sim(8);
        assert_ne!(
            a.transport.node_msgs, c.transport.node_msgs,
            "seed must matter"
        );
    }

    #[test]
    fn load_sweep_and_max_throughput() {
        let exp = small();
        let pts = exp.load_sweep(0, &[1, 2, 4]);
        assert_eq!(pts.len(), 3);
        assert!(pts[2].result.client.throughput > pts[0].result.client.throughput);
        let m = exp.max_throughput(0, &[1, 4]);
        assert!(m >= pts[0].result.client.throughput);
    }

    #[test]
    fn run_threads_same_experiment_same_result_shape() {
        let exp = small().clients(2);
        let r = exp.run_threads(7, Duration::from_millis(150));
        assert!(r.protocol.violations().is_empty());
        assert!(
            r.client.samples > 20,
            "threads made progress: {}",
            r.client.samples
        );
        assert!(r.client.throughput > 100.0);
        assert!(r.protocol.decided() > 0);
        // The in-memory transport counts what it carries, as TCP does.
        assert_eq!(r.transport.node_msgs.len(), 3, "1 replica + 2 clients");
        assert!(r.transport.node_msgs.iter().all(|&m| m > 0));
        assert!(r.transport.leader_msgs_per_op > 0.0 && r.transport.follower_msgs_per_op == 0.0);
        let labels = r
            .transport
            .label_counts
            .as_ref()
            .expect("threads count labels");
        assert!(labels.get("request").copied().unwrap_or(0) > 20);
        let net = r
            .transport
            .net
            .as_ref()
            .expect("transport counters reach the result");
        assert!(net.per_node_busy_ns.iter().all(|&ns| ns > 0));
        assert_eq!(
            (net.bytes_sent, net.decode_errors, net.frames_dropped),
            (0, 0, 0)
        );
        // Simulator-only accounting is absent, not garbage.
        assert!(r.transport.trace.is_none());
    }

    #[test]
    fn run_net_same_experiment_over_tcp() {
        let exp = small().clients(2);
        let r = exp.run_net(7, Duration::from_millis(250));
        assert!(r.protocol.violations().is_empty());
        assert!(
            r.client.samples > 20,
            "tcp made progress: {}",
            r.client.samples
        );
        assert!(r.protocol.decided() > 0);
        // The transport observes real traffic: per-node counts and
        // label counts are populated.
        assert_eq!(r.transport.node_msgs.len(), 3, "1 replica + 2 clients");
        assert!(r.transport.node_msgs.iter().all(|&m| m > 0));
        let labels = r
            .transport
            .label_counts
            .as_ref()
            .expect("net counts labels");
        assert!(labels.get("request").copied().unwrap_or(0) > 20);
        assert!(labels.get("reply").copied().unwrap_or(0) > 20);
        let net = r
            .transport
            .net
            .as_ref()
            .expect("transport counters reach the result");
        assert_eq!((net.decode_errors, net.frames_dropped), (0, 0));
    }

    /// Four clients, two requests each in flight, over three keys.
    fn contended() -> Experiment<InstantSpec> {
        let workload = Workload {
            num_keys: 3,
            ..Workload::paper_default()
        };
        small().clients(4).client_pipeline(2).workload(workload)
    }

    #[test]
    fn a_checked_run_is_linearizable_and_keeps_its_schedule() {
        let plain = contended().run_sim(7);
        let checked = contended().check_linearizability().run_sim(7);
        let h = checked.client.history.as_ref().expect("checked");
        assert!(h.linearizable(), "{:?}", h.violations);
        assert_eq!(h.keys, 3);
        assert!(
            h.ops > checked.client.samples && h.reads > h.ops / 3,
            "{h:?}"
        );
        assert!(plain.client.history.is_none());
        assert_eq!(plain.client.samples, checked.client.samples);
        assert_eq!(plain.transport.node_msgs, checked.transport.node_msgs);
    }

    /// Applies a put only to an absent key: every later read is stale.
    struct FirstWriteWins(KvStore);
    impl Replica<NoProto> for FirstWriteWins {
        fn on_request(&mut self, client: NodeId, req: ClientRequest, ctx: &mut Ctx<NoProto>) {
            let op = &req.command.op;
            let key = op.key().expect("workload ops are keyed");
            let known = self.0.apply(&crate::command::Operation::Get(key));
            let value = match known {
                Some(v) if !op.is_read() => Some(v),
                _ => self.0.apply(op),
            };
            ctx.reply(client, ClientReply::ok(req.command.id, value));
        }
        fn on_proto(&mut self, _f: NodeId, _m: NoProto, _c: &mut Ctx<NoProto>) {}
    }

    #[derive(Clone)]
    struct FirstWriteWinsSpec;
    impl ProtocolSpec for FirstWriteWinsSpec {
        type Msg = NoProto;
        fn protocol_name(&self) -> &'static str {
            "first-write-wins"
        }
        fn build_replica(
            &self,
            _node: NodeId,
            _cluster: &ClusterConfig,
        ) -> Box<dyn Actor<Envelope<NoProto>> + Send> {
            Box::new(ReplicaActor(FirstWriteWins(KvStore::new())))
        }
    }

    #[test]
    fn a_store_that_drops_overwrites_fails_the_check() {
        let r = Experiment::lan(FirstWriteWinsSpec, 1)
            .clients(2)
            .warmup(SimDuration::from_millis(50))
            .measure(SimDuration::from_millis(100))
            .workload(Workload {
                num_keys: 2,
                ..Workload::paper_default()
            })
            .check_linearizability()
            .run_sim(7);
        let h = r.client.history.expect("checked");
        assert_eq!(h.violations.len(), 2, "{:?}", h.violations);
        assert!(h.violations[0].starts_with("key 0:"), "{:?}", h.violations);
    }

    #[test]
    #[should_panic(expected = "timeline bucket must be positive")]
    fn zero_timeline_bucket_is_rejected() {
        let _ = small().timeline_bucket(SimDuration::ZERO);
    }

    #[test]
    fn extra_client_nodes_leave_slots_for_custom_actors() {
        use std::cell::RefCell;
        use std::rc::Rc;

        struct OneShot {
            to: NodeId,
            got: Rc<RefCell<u32>>,
        }
        impl Actor<Envelope<NoProto>> for OneShot {
            fn on_start(&mut self, ctx: &mut simnet::Context<Envelope<NoProto>>) {
                let id = crate::command::RequestId {
                    client: ctx.node(),
                    seq: 1,
                };
                ctx.send(
                    self.to,
                    Envelope::Request(ClientRequest {
                        command: crate::command::Command {
                            id,
                            op: crate::command::Operation::Get(1),
                        },
                    }),
                );
            }
            fn on_message(
                &mut self,
                _f: NodeId,
                msg: Envelope<NoProto>,
                _c: &mut simnet::Context<Envelope<NoProto>>,
            ) {
                if matches!(msg, Envelope::Reply(r) if r.ok) {
                    *self.got.borrow_mut() += 1;
                }
            }
            fn on_timer(
                &mut self,
                _i: simnet::TimerId,
                _k: u64,
                _c: &mut simnet::Context<Envelope<NoProto>>,
            ) {
            }
        }

        let got = Rc::new(RefCell::new(0));
        let got2 = got.clone();
        let r = small().extra_client_nodes(1).run_sim_with(5, move |sim| {
            sim.add_actor(Box::new(OneShot {
                to: NodeId(0),
                got: got2,
            }));
        });
        assert!(r.protocol.violations().is_empty());
        assert_eq!(*got.borrow(), 1, "custom client actor got its reply");
    }
}
