//! End-to-end sharding tests over real protocols: aggregate commits
//! across groups, per-key linearizability spanning a live `ShardMove`,
//! read-your-writes through stale-map redirects, and exactly-once
//! decision of every client command across all shard logs.

use epaxos::EpaxosConfig;
use paxi::{
    ClientRequest, ClusterConfig, Command, Envelope, Experiment, Key, Operation, ProtoMessage,
    ProtocolSpec, RequestId, ShardMap, Value, DEFAULT_SEED,
};
use paxos::PaxosConfig;
use pigpaxos::PigConfig;
use simnet::{Actor, Context, NodeId, SimDuration, TimerId};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};
use std::time::Duration;

#[derive(Default)]
struct Report {
    completed: u64,
    redirects: u64,
    violations: Vec<String>,
}

/// Closed-loop per-key checker: `put(k, c); get(k)` rounds over keys
/// inside the moving range, asserting each get returns the immediately
/// preceding acked put. Its [`ShardMap`] copy is deliberately never
/// refreshed, so after the move every request first hits the old owner
/// and must come back as a redirect — the stale-map path under test.
struct MoveChecker<P> {
    map: ShardMap,
    leaders: Vec<NodeId>,
    keys: Vec<Key>,
    idx: usize,
    counter: u64,
    last_write: HashMap<Key, u64>,
    seq: u64,
    expecting_get: bool,
    outstanding: Option<Command>,
    retry: SimDuration,
    report: Arc<Mutex<Report>>,
    _proto: PhantomData<P>,
}

impl<P: ProtoMessage> MoveChecker<P> {
    fn new(
        map: ShardMap,
        leaders: Vec<NodeId>,
        keys: Vec<Key>,
        report: Arc<Mutex<Report>>,
    ) -> Self {
        MoveChecker {
            map,
            leaders,
            keys,
            idx: 0,
            counter: 0,
            last_write: HashMap::new(),
            seq: 0,
            expecting_get: false,
            outstanding: None,
            retry: SimDuration::from_millis(100),
            report,
            _proto: PhantomData,
        }
    }

    fn route(&self, op: &Operation) -> NodeId {
        let g = op.key().map_or(0, |k| self.map.group_for(k)) as usize;
        self.leaders[g]
    }

    fn issue(&mut self, op: Operation, ctx: &mut Context<Envelope<P>>) {
        self.seq += 1;
        let id = RequestId {
            client: ctx.node(),
            seq: self.seq,
        };
        let command = Command { id, op };
        self.outstanding = Some(command.clone());
        let to = self.route(&command.op);
        ctx.send(to, Envelope::Request(ClientRequest { command }));
        ctx.set_timer(self.retry, self.seq);
    }

    fn resend(&mut self, to: Option<NodeId>, ctx: &mut Context<Envelope<P>>) {
        if let Some(command) = self.outstanding.clone() {
            let to = to.unwrap_or_else(|| self.route(&command.op));
            ctx.send(to, Envelope::Request(ClientRequest { command }));
        }
    }

    fn start_round(&mut self, ctx: &mut Context<Envelope<P>>) {
        self.idx = (self.idx + 1) % self.keys.len();
        self.counter += 1;
        self.expecting_get = false;
        let key = self.keys[self.idx];
        self.issue(
            Operation::Put(key, Value::from(self.counter.to_be_bytes().as_slice())),
            ctx,
        );
    }
}

impl<P: ProtoMessage> Actor<Envelope<P>> for MoveChecker<P> {
    fn on_start(&mut self, ctx: &mut Context<Envelope<P>>) {
        self.start_round(ctx);
    }

    fn on_message(&mut self, _f: NodeId, msg: Envelope<P>, ctx: &mut Context<Envelope<P>>) {
        let Envelope::Reply(reply) = msg else { return };
        if reply.id.seq != self.seq {
            return; // stale reply from an earlier round
        }
        if !reply.ok {
            if reply.redirect.is_some() {
                self.report.lock().expect("report lock").redirects += 1;
            }
            self.resend(reply.redirect, ctx);
            return;
        }
        self.outstanding = None;
        let key = self.keys[self.idx];
        if self.expecting_get {
            let want = self.last_write.get(&key).copied().expect("put acked first");
            let expected = Value::from(want.to_be_bytes().as_slice());
            let mut rep = self.report.lock().expect("report lock");
            if reply.value.as_ref() != Some(&expected) {
                rep.violations.push(format!(
                    "key {key}: get saw {:?}, expected counter {want}",
                    reply.value
                ));
            }
            rep.completed += 1;
            drop(rep);
            self.start_round(ctx);
        } else {
            self.last_write.insert(key, self.counter);
            self.expecting_get = true;
            self.issue(Operation::Get(key), ctx);
        }
    }

    fn on_timer(&mut self, _i: TimerId, kind: u64, ctx: &mut Context<Envelope<P>>) {
        if self.outstanding.as_ref().map(|c| c.id.seq) == Some(kind) {
            self.resend(None, ctx);
            ctx.set_timer(self.retry, kind);
        }
    }
}

/// Every client-issued command (routers and checkers — any id from a
/// non-replica node) must appear exactly once across all shard decision
/// logs: nothing lost, nothing executed twice through redirects.
fn assert_exactly_once(groups: &[ClusterConfig], n_replicas: u32) {
    let mut seen: HashMap<RequestId, u64> = HashMap::new();
    for g in groups {
        for ((_space, _slot), id) in g.safety.decisions() {
            if id.client.0 >= n_replicas {
                *seen.entry(id).or_default() += 1;
            }
        }
    }
    assert!(!seen.is_empty(), "no client commands decided at all");
    let dups: Vec<_> = seen.iter().filter(|(_, &n)| n > 1).collect();
    assert!(dups.is_empty(), "commands decided more than once: {dups:?}");
}

fn checker_experiment<P: ProtocolSpec>(proto: P, report: Arc<Mutex<Report>>) -> Experiment<P> {
    // 4 shards x 3 replicas over a 2000-key map (stride 500). The
    // routers' background workload only touches keys 0..1000 (shards 0
    // and 1); the range [1000, 1500) moves from shard 2 to shard 3 at
    // 600ms, mid-run, and the checker hammers keys inside that moving
    // range only — no other writer touches them, so every get must see
    // the checker's own latest acked put.
    Experiment::lan(proto, 3)
        .shards(4)
        .clients(4)
        .key_space(2000)
        .warmup(SimDuration::from_millis(200))
        .measure(SimDuration::from_millis(1800))
        .move_range(SimDuration::from_millis(600), 1000, 3)
        .with_client(move |layout| {
            Box::new(MoveChecker::<P::Msg>::new(
                layout.map.clone(),
                layout.leaders.clone(),
                (1000..1008).collect(),
                report.clone(),
            ))
        })
}

#[test]
fn sharded_paxos_all_shards_commit_and_converge() {
    let r = Experiment::lan(PaxosConfig::lan(), 3)
        .shards(3)
        .clients(9)
        .warmup(SimDuration::from_millis(500))
        .measure(SimDuration::from_millis(2000))
        .drain(SimDuration::from_millis(500))
        .run_sim(DEFAULT_SEED);
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
    for (s, group) in r.protocol.groups.iter().enumerate() {
        let decided = group.safety.decided_count();
        assert!(decided > 50, "shard {s} barely committed: {decided}");
    }
    assert_exactly_once(&r.protocol.groups, 9);
    // Sharded runs drain like any other: within each group the
    // replicas end in the same state.
    assert_eq!(
        r.protocol.converged(),
        Some(true),
        "{:?}",
        r.protocol.replica_digests
    );
}

/// The move ships a range cut from the source leader's own store, so
/// every protocol's store is exercised, not only Paxos's.
fn linearizable_across_live_move_sim<P: ProtocolSpec>(proto: P) {
    let report = Arc::new(Mutex::new(Report::default()));
    let r = checker_experiment(proto, report.clone()).run_sim(DEFAULT_SEED);
    assert!(
        r.protocol.violations().is_empty(),
        "{:?}",
        r.protocol.violations()
    );
    let rep = report.lock().expect("report lock");
    assert!(rep.violations.is_empty(), "{:?}", rep.violations);
    // The checker must have kept completing rounds straight through the
    // move (600ms into a 2s run) without stalling.
    assert!(
        rep.completed > 300,
        "only {} rounds completed",
        rep.completed
    );
    // Post-move, the checker's stale map sends every request to the old
    // owner first, so redirects must actually have been exercised.
    assert!(rep.redirects > 0, "move never forced a redirect");
    assert_exactly_once(&r.protocol.groups, 12);
}

#[test]
fn per_key_linearizability_across_live_move_sim() {
    linearizable_across_live_move_sim(PaxosConfig::lan());
}

#[test]
fn per_key_linearizability_across_live_move_sim_pigpaxos() {
    linearizable_across_live_move_sim(PigConfig::lan(2));
}

#[test]
fn per_key_linearizability_across_live_move_sim_epaxos() {
    linearizable_across_live_move_sim(EpaxosConfig::default());
}

#[test]
fn per_key_linearizability_across_live_move_threads() {
    let report = Arc::new(Mutex::new(Report::default()));
    let r = checker_experiment(PaxosConfig::lan(), report.clone())
        .run_threads(DEFAULT_SEED, Duration::from_millis(1500));
    assert!(
        r.protocol.violations().is_empty(),
        "{:?}",
        r.protocol.violations()
    );
    let rep = report.lock().expect("report lock");
    assert!(rep.violations.is_empty(), "{:?}", rep.violations);
    // Wall-clock run: looser floor, but the loop must survive the move.
    assert!(
        rep.completed > 20,
        "only {} rounds completed",
        rep.completed
    );
    assert_exactly_once(&r.protocol.groups, 12);
}
