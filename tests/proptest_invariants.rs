//! Property-based tests over the core data structures' invariants.

use paxi::{Ballot, Command, Log, Operation, RequestId, Value, VoteTracker};
use pigpaxos::{GroupSpec, RelayGroups};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{Control, NodeId, SimDuration, Wire};

fn cmd(seq: u64) -> Command {
    Command {
        id: RequestId {
            client: NodeId(1000),
            seq,
        },
        op: Operation::Put(seq % 16, Value::zeros(4)),
    }
}

proptest! {
    /// Ballot packing is lossless and ordering matches (round, node)
    /// lexicographic order.
    #[test]
    fn ballot_pack_round_trip(r1 in 0u32..1_000_000, n1 in 0u32..10_000,
                              r2 in 0u32..1_000_000, n2 in 0u32..10_000) {
        let a = Ballot::new(r1, NodeId(n1));
        let b = Ballot::new(r2, NodeId(n2));
        prop_assert_eq!(a.round(), r1);
        prop_assert_eq!(a.node(), NodeId(n1));
        prop_assert_eq!(a.cmp(&b), (r1, n1).cmp(&(r2, n2)));
        prop_assert!(a.next(NodeId(n2)) > a);
    }

    /// A committed slot's command never changes, no matter what later
    /// accepts or commits arrive.
    #[test]
    fn log_committed_values_are_stable(
        ops in prop::collection::vec((0u64..20, 0u32..5, 0u64..50, prop::bool::ANY), 1..200)
    ) {
        let mut log = Log::new();
        let mut decided: std::collections::HashMap<u64, Command> = Default::default();
        for (slot, round, cseq, do_commit) in ops {
            let ballot = Ballot::new(round, NodeId(0));
            if do_commit {
                log.commit(slot, ballot, cmd(cseq));
                decided.entry(slot).or_insert_with(|| {
                    log.get(slot).expect("present").command.clone()
                });
            } else {
                log.accept(slot, ballot, cmd(cseq));
            }
            // Every previously decided slot still holds its value.
            for (s, c) in &decided {
                let e = log.get(*s).expect("decided slot present");
                prop_assert!(e.committed);
                prop_assert_eq!(&e.command, c);
            }
        }
    }

    /// Execution consumes exactly the contiguous committed prefix, in
    /// order, regardless of commit order.
    #[test]
    fn log_executes_contiguous_prefix(commits in prop::collection::vec(0u64..30, 1..60)) {
        let mut log = Log::new();
        let ballot = Ballot::new(1, NodeId(0));
        let mut committed = std::collections::HashSet::new();
        for slot in commits {
            log.commit(slot, ballot, cmd(slot));
            committed.insert(slot);
        }
        let mut executed = Vec::new();
        while let Some((slot, _)) = log.next_executable() {
            log.mark_executed(slot);
            executed.push(slot);
        }
        // Expected: 0..k where k is the first missing slot.
        let mut expect = Vec::new();
        let mut s = 0;
        while committed.contains(&s) {
            expect.push(s);
            s += 1;
        }
        prop_assert_eq!(executed, expect);
    }

    /// Relay groups always exactly partition the followers, for any
    /// cluster size and any valid group count; relay picks always
    /// return one member per group, never the relay among its peers.
    #[test]
    fn relay_groups_partition(n_followers in 1usize..200, r in 1usize..20, seed in 0u64..1000) {
        prop_assume!(r <= n_followers);
        let followers: Vec<NodeId> = (1..=n_followers as u32).map(NodeId).collect();
        let groups = RelayGroups::build(&followers, &GroupSpec::Chunks(r));
        prop_assert_eq!(groups.num_groups(), r);
        let mut all: Vec<NodeId> = groups.groups().iter().flatten().copied().collect();
        all.sort();
        prop_assert_eq!(&all, &followers);
        // Sizes differ by at most one.
        let sizes: Vec<usize> = groups.groups().iter().map(|g| g.len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(max - min <= 1);

        let mut rng = StdRng::seed_from_u64(seed);
        let picks = groups.pick_relays(&mut rng);
        prop_assert_eq!(picks.len(), r);
        for (i, (relay, peers)) in picks.iter().enumerate() {
            prop_assert!(groups.groups()[i].contains(relay));
            prop_assert!(!peers.contains(relay));
            prop_assert_eq!(peers.len(), groups.groups()[i].len() - 1);
        }
    }

    /// An explicit `GroupSpec` built from any permutation of the
    /// followers, split at any cut points, is accepted and materializes
    /// verbatim as a disjoint cover of the peers.
    #[test]
    fn relay_groups_explicit_partition_round_trips(
        n_followers in 1usize..80,
        cut_fracs in prop::collection::vec(1usize..100, 0..6),
        seed in 0u64..1000
    ) {
        let followers: Vec<NodeId> = (1..=n_followers as u32).map(NodeId).collect();
        // Deterministically shuffle and cut the follower list into a
        // random partition.
        let mut shuffled = followers.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::seq::SliceRandom;
        shuffled.shuffle(&mut rng);
        let mut cuts: Vec<usize> =
            cut_fracs.iter().map(|f| f * n_followers / 100).filter(|&c| c > 0 && c < n_followers).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut explicit: Vec<Vec<NodeId>> = Vec::new();
        let mut prev = 0;
        for &c in cuts.iter().chain(std::iter::once(&n_followers)) {
            if c > prev {
                explicit.push(shuffled[prev..c].to_vec());
            }
            prev = c;
        }
        let spec = GroupSpec::Explicit(explicit.clone());
        let groups = RelayGroups::build(&followers, &spec);
        prop_assert_eq!(groups.groups(), &explicit[..], "explicit groups kept verbatim");
        prop_assert_eq!(groups.num_followers(), n_followers);
        // Disjoint cover: flattening gives each follower exactly once.
        let mut all: Vec<NodeId> = groups.groups().iter().flatten().copied().collect();
        all.sort();
        prop_assert_eq!(&all, &followers);
    }

    /// Relay rotation is membership-preserving round after round: every
    /// pick returns, per group, a (relay, peers) pair that is exactly
    /// that group — nothing lost, nothing duplicated, relay never among
    /// its peers. Holds for the rotating and the fixed (ablation) picker.
    #[test]
    fn relay_rotation_preserves_membership(
        n_followers in 2usize..80,
        r in 1usize..8,
        seed in 0u64..200,
        rounds in 1usize..20
    ) {
        prop_assume!(r <= n_followers);
        let followers: Vec<NodeId> = (1..=n_followers as u32).map(NodeId).collect();
        let groups = RelayGroups::build(&followers, &GroupSpec::Chunks(r));
        let mut rng = StdRng::seed_from_u64(seed);
        for _round in 0..rounds {
            for (picks, picker) in [
                (groups.pick_relays(&mut rng), "rotating"),
                (groups.pick_fixed_relays(), "fixed"),
            ] {
                prop_assert_eq!(picks.len(), groups.num_groups());
                for (i, (relay, peers)) in picks.iter().enumerate() {
                    prop_assert!(!peers.contains(relay), "{picker}: relay among peers");
                    let mut covered: Vec<NodeId> = peers.clone();
                    covered.push(*relay);
                    covered.sort();
                    let mut expect = groups.groups()[i].clone();
                    expect.sort();
                    prop_assert_eq!(covered, expect, "{picker}: pick must equal its group");
                }
            }
        }
    }

    /// Chains of reshuffles keep the disjoint cover and the group-size
    /// profile intact, whatever the shape.
    #[test]
    fn relay_reshuffle_chain_preserves_cover(
        n_followers in 2usize..60,
        r in 1usize..8,
        seed in 0u64..100,
        times in 1usize..8
    ) {
        prop_assume!(r <= n_followers);
        let followers: Vec<NodeId> = (1..=n_followers as u32).map(NodeId).collect();
        let mut groups = RelayGroups::build(&followers, &GroupSpec::Chunks(r));
        let sizes: Vec<usize> = groups.groups().iter().map(|g| g.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..times {
            groups.reshuffle(&mut rng);
            let now: Vec<usize> = groups.groups().iter().map(|g| g.len()).collect();
            prop_assert_eq!(&now, &sizes, "sizes stable across the chain");
            let mut all: Vec<NodeId> = groups.groups().iter().flatten().copied().collect();
            all.sort();
            prop_assert_eq!(&all, &followers, "cover stable across the chain");
        }
    }

    /// Reshuffling preserves membership and sizes for any shape.
    #[test]
    fn relay_groups_reshuffle_preserves(n_followers in 2usize..100, r in 1usize..10, seed in 0u64..100) {
        prop_assume!(r <= n_followers);
        let followers: Vec<NodeId> = (1..=n_followers as u32).map(NodeId).collect();
        let mut groups = RelayGroups::build(&followers, &GroupSpec::Chunks(r));
        let sizes_before: Vec<usize> = groups.groups().iter().map(|g| g.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        groups.reshuffle(&mut rng);
        let sizes_after: Vec<usize> = groups.groups().iter().map(|g| g.len()).collect();
        prop_assert_eq!(sizes_before, sizes_after);
        let mut all: Vec<NodeId> = groups.groups().iter().flatten().copied().collect();
        all.sort();
        prop_assert_eq!(&all, &followers);
    }

    /// A vote tracker is satisfied iff it saw >= need distinct acking
    /// nodes for the right ballot.
    #[test]
    fn vote_tracker_counts_distinct_acks(
        need in 1usize..10,
        votes in prop::collection::vec((0u32..12, prop::bool::ANY), 0..40)
    ) {
        let ballot = Ballot::new(1, NodeId(0));
        let mut t = VoteTracker::new(need, ballot);
        let mut distinct = std::collections::HashSet::new();
        for (node, right_ballot) in votes {
            let b = if right_ballot { ballot } else { Ballot::new(2, NodeId(0)) };
            t.ack(NodeId(node), b);
            if right_ballot {
                distinct.insert(node);
            }
        }
        prop_assert_eq!(t.satisfied(), distinct.len() >= need);
        prop_assert_eq!(t.ack_count(), distinct.len());
    }

    /// Wire sizes grow monotonically with payload size for client
    /// requests.
    #[test]
    fn request_wire_size_monotonic(a in 0usize..4096, b in 0usize..4096) {
        prop_assume!(a <= b);
        let req = |len: usize| paxi::ClientRequest {
            command: Command {
                id: RequestId { client: NodeId(1), seq: 1 },
                op: Operation::Put(1, Value::zeros(len)),
            },
        };
        prop_assert!(req(a).wire_len() <= req(b).wire_len());
        prop_assert_eq!(req(b).wire_len() - req(a).wire_len(), b - a);
    }

    /// SimDuration arithmetic is consistent (no panics, ordering holds).
    #[test]
    fn duration_arithmetic_consistent(a in 0u64..1_000_000_000, b in 0u64..1_000_000_000) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!((da + db).as_nanos(), a + b);
        prop_assert_eq!(da.saturating_sub(db).as_nanos(), a.saturating_sub(b));
        prop_assert_eq!(da < db, a < b);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Log compaction safety, end to end at the acceptor level, over
    /// seed × snapshot interval × crash schedule:
    ///
    /// - the compaction floor never rises above the executed frontier
    ///   (undecided/unexecuted slots are never dropped), and the
    ///   retained log stays bounded by the interval;
    /// - a compacting acceptor reaches the same state-machine
    ///   fingerprint as an uncompacted reference fed the same commits;
    /// - an acceptor that crashed at a random point and recovers from
    ///   the compacting peer — via a snapshot when its missing prefix
    ///   was truncated, plain entries otherwise — also converges to the
    ///   reference fingerprint.
    #[test]
    fn compaction_respects_frontier_and_recovery_converges(
        seed in 0u64..10_000,
        interval in 1u64..40,
        n_cmds in 30u64..200,
        crash_pct in 5u64..95,
    ) {
        use paxi::{ClientReply, SafetyMonitor, SessionTable, SnapshotConfig};
        use paxos::{Acceptor, LearnAnswer};
        use rand::Rng;

        let ballot = Ballot::new(1, NodeId(0));
        let mut rng = StdRng::seed_from_u64(seed);
        let cmds: Vec<Command> = (0..n_cmds)
            .map(|s| {
                let key = rng.gen_range(0u64..8);
                let op = if rng.gen_range(0u32..10) < 3 {
                    Operation::Get(key)
                } else {
                    Operation::Put(key, Value::zeros(rng.gen_range(1usize..32)))
                };
                Command {
                    id: RequestId {
                        client: NodeId(1000 + (s % 4) as u32),
                        seq: s + 1,
                    },
                    op,
                }
            })
            .collect();

        // A compacts every `interval`; B is the uncompacted reference;
        // C crashes after `crash_at` commits and recovers from A.
        let mut a = Acceptor::new(NodeId(1), SafetyMonitor::new());
        a.set_snapshot_config(SnapshotConfig::every_ops(interval));
        let mut b = Acceptor::new(NodeId(2), SafetyMonitor::new());
        let mut c = Acceptor::new(NodeId(3), SafetyMonitor::new());
        let crash_at = n_cmds * crash_pct / 100;
        let mut sessions = SessionTable::new();

        for (s, cmd) in cmds.iter().enumerate() {
            let s = s as u64;
            a.commit(s, ballot, cmd.clone());
            for (_, id, value) in a.execute_ready() {
                sessions.record(&ClientReply::ok(id, value));
            }
            let compacted = a.maybe_compact(&sessions);
            prop_assert!(
                a.snapshot_floor() <= a.log().execute_cursor(),
                "floor above executed frontier"
            );
            if compacted {
                prop_assert_eq!(a.snapshot_floor(), a.log().execute_cursor());
                prop_assert!(a.latest_snapshot().is_some());
            }
            prop_assert!(
                (a.log().len() as u64) <= interval,
                "retained log exceeded the interval: {} > {interval}",
                a.log().len()
            );
            b.commit(s, ballot, cmd.clone());
            b.execute_ready();
            if s < crash_at {
                c.commit(s, ballot, cmd.clone());
                c.execute_ready();
            }
        }

        prop_assert_eq!(
            a.kv().fingerprint(),
            b.kv().fingerprint(),
            "compacted and uncompacted acceptors diverged"
        );
        prop_assert_eq!(a.commit_watermark(), n_cmds);

        // Recovery: C asks A for exactly its missing suffix.
        let missing: Vec<u64> = (c.commit_watermark()..n_cmds).collect();
        prop_assert!(!missing.is_empty());
        let expect_snapshot = missing[0] < a.snapshot_floor();
        match a.serve_learn(&missing) {
            Some(LearnAnswer::Snapshot(snap, entries)) => {
                prop_assert!(expect_snapshot, "snapshot only when the prefix is gone");
                prop_assert!(snap.up_to <= n_cmds);
                prop_assert!(c.install_snapshot(&snap));
                for (s, cmd) in entries {
                    c.commit(s, ballot, cmd);
                }
            }
            Some(LearnAnswer::Entries(entries)) => {
                prop_assert!(!expect_snapshot, "entries only while the prefix survives");
                for (s, cmd) in entries {
                    c.commit(s, ballot, cmd);
                }
            }
            None => prop_assert!(false, "peer with the full suffix must answer"),
        }
        c.execute_ready();
        prop_assert_eq!(
            c.kv().fingerprint(),
            b.kv().fingerprint(),
            "recovered acceptor diverged from the uncompacted reference"
        );
        prop_assert_eq!(c.commit_watermark(), n_cmds);
    }

    /// The EPaxos execution planner never executes an instance before a
    /// committed dependency, executes all-committed graphs completely,
    /// and never executes anything with an uncommitted transitive dep.
    #[test]
    fn epaxos_plan_respects_dependencies(
        edges in prop::collection::vec((0usize..30, 0usize..30), 0..120),
        tentative in prop::collection::vec(prop::bool::ANY, 30)
    ) {
        use epaxos::{plan_execution, InstStatus, InstanceId, InstanceView};
        use std::collections::HashMap;

        let inst = |i: usize| InstanceId { replica: NodeId(0), slot: i as u64 };
        let mut deps: HashMap<InstanceId, Vec<InstanceId>> = HashMap::new();
        for i in 0..30 {
            deps.entry(inst(i)).or_default();
        }
        for (a, b) in &edges {
            if a != b {
                deps.entry(inst(*a)).or_default().push(inst(*b));
            }
        }
        struct V {
            deps: HashMap<InstanceId, Vec<InstanceId>>,
            tentative: Vec<bool>,
        }
        impl InstanceView for V {
            fn status(&self, id: InstanceId) -> InstStatus {
                if self.tentative[id.slot as usize] {
                    InstStatus::Tentative
                } else {
                    InstStatus::Committed
                }
            }
            fn deps(&self, id: InstanceId) -> &[InstanceId] {
                self.deps.get(&id).map(|v| v.as_slice()).unwrap_or(&[])
            }
            fn seq(&self, id: InstanceId) -> u64 {
                id.slot
            }
        }
        let view = V { deps: deps.clone(), tentative: tentative.clone() };
        let roots: Vec<InstanceId> = (0..30).map(inst).collect();
        let plan = plan_execution(&roots, &view);

        let pos: HashMap<InstanceId, usize> =
            plan.order.iter().enumerate().map(|(i, &x)| (x, i)).collect();
        for &x in &plan.order {
            prop_assert!(!tentative[x.slot as usize], "tentative instance executed");
            for d in view.deps(x) {
                // Every dep of an executed instance is either executed
                // earlier, or in the same SCC (mutually reachable).
                if let Some(&dp) = pos.get(d) {
                    if dp > pos[&x] {
                        // Same-SCC case: d must reach x back through deps.
                        let mut stack = vec![*d];
                        let mut seen = std::collections::HashSet::new();
                        let mut reaches = false;
                        while let Some(y) = stack.pop() {
                            if y == x { reaches = true; break; }
                            if seen.insert(y) {
                                for z in view.deps(y) {
                                    stack.push(*z);
                                }
                            }
                        }
                        prop_assert!(reaches, "dep ordered later but not in same SCC");
                    }
                } else {
                    prop_assert!(
                        false,
                        "executed instance {x} has unexecuted committed dep {d}"
                    );
                }
            }
        }
        // If nothing is tentative, everything must execute.
        if tentative.iter().all(|&t| !t) {
            prop_assert_eq!(plan.order.len(), 30);
        }
    }
}

/// Expand raw fault draws into a fault schedule. Each draw is
/// `(at_ms, kind, x, y, p)`; `kind % 3` selects the fault family and
/// the remaining fields are reinterpreted per family (the vendored
/// proptest stub has no `prop_oneof`/`prop_map`, so the sum type is
/// decoded here instead of in a strategy):
///
/// - `0` → partition a minority of `1 + x % ((n-1)/2)` nodes, heal
///   400ms later;
/// - `1` → crash node `x % n`, restart it 400ms later;
/// - `2` → make the directional link `x % n → y % n` flaky with drop
///   probability `p`, clear it 400ms later.
///
/// A final global heal + clear sweep runs before the measure window
/// closes so the drain phase starts from a connected cluster.
fn chaos_schedule(n: u32, drawn: Vec<(u64, usize, u32, u32, f64)>) -> Vec<(SimDuration, Control)> {
    let mut events = Vec::new();
    let mut push = |at_ms: u64, c: Control| events.push((SimDuration::from_millis(at_ms), c));
    for (at, kind, x, y, p) in drawn {
        match kind % 3 {
            0 => {
                let minority = 1 + x % ((n - 1) / 2);
                for a in 0..minority {
                    for b in minority..n {
                        push(at, Control::BlockLink(NodeId(a), NodeId(b)));
                        push(at, Control::BlockLink(NodeId(b), NodeId(a)));
                    }
                }
                push(at + 400, Control::HealAllLinks);
            }
            1 => {
                push(at, Control::Crash(NodeId(x % n)));
                push(at + 400, Control::Recover(NodeId(x % n)));
            }
            _ => {
                let (from, to) = (NodeId(x % n), NodeId(y % n));
                if from != to {
                    push(at, Control::FlakyLink(from, to, p));
                    push(at + 400, Control::ClearFlakyLinks);
                }
            }
        }
    }
    push(1900, Control::HealAllLinks);
    push(1900, Control::ClearFlakyLinks);
    events
}

/// Run one fault schedule against one protocol and return the result.
fn chaos_run<P: paxi::ProtocolSpec>(
    proto: P,
    seed: u64,
    schedule: Vec<(SimDuration, Control)>,
) -> paxi::RunResult {
    let exp = paxi::Experiment::lan(proto, 5)
        .clients(4)
        .workload(paxi::Workload {
            num_keys: 10,
            ..paxi::Workload::paper_default()
        })
        .warmup(SimDuration::from_millis(300))
        .measure(SimDuration::from_millis(2200))
        .drain(SimDuration::from_millis(1800))
        .check_linearizability();
    schedule
        .into_iter()
        .fold(exp, |e, (at, c)| e.fault(at, c))
        .run_sim(seed)
}

proptest! {
    // Each case is a full simulated cluster run (possibly three), so
    // keep the case count far below the data-structure blocks above.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Chaos-harness safety property over seed × protocol × random
    /// small fault schedules (minority partitions, crash/restart
    /// pairs, flaky links — each undone 400ms after it fires):
    ///
    /// - the machine-checked safety invariants hold, and the clients'
    ///   history is linearizable, for every protocol under every
    ///   schedule;
    /// - leader-based protocols (Paxos, PigPaxos) additionally reach
    ///   identical kv fingerprints on all replicas after the schedule
    ///   clears and the drain window runs. EPaxos is exempt from the
    ///   convergence check: a replica can miss a commit for an
    ///   instance it did not participate in while links drop, and
    ///   nothing re-delivers it until new traffic touches the key.
    #[test]
    fn nemesis_schedules_preserve_safety_and_convergence(
        seed in 0u64..1_000,
        proto in 0usize..3,
        drawn in prop::collection::vec(
            (500u64..1_400, 0usize..3, 0u32..8, 0u32..8, 0.05f64..0.5),
            1..4,
        ),
    ) {
        let schedule = chaos_schedule(5, drawn);
        let scheduled = schedule.len() as u64;
        let (result, check_convergence) = match proto {
            0 => (chaos_run(paxos::PaxosConfig::lan(), seed, schedule), true),
            1 => (chaos_run(pigpaxos::PigConfig::lan(2), seed, schedule), true),
            _ => (chaos_run(epaxos::EpaxosConfig::default(), seed, schedule), false),
        };
        prop_assert!(result.protocol.violations().is_empty(), "violations: {:?}", result.protocol.violations());
        prop_assert_eq!(result.transport.faults_applied, Some(scheduled));
        let history = result.client.history.as_ref().expect("checked");
        prop_assert!(history.linearizable(), "history: {:?}", history.violations);
        if check_convergence {
            prop_assert_eq!(
                result.protocol.converged(),
                Some(true),
                "replicas diverged after heal+drain: {:?}",
                result.protocol.replica_digests
            );
        }
    }
}
