//! A forged slot must not size an allocation.
//!
//! The log is a ring: it holds a cell for every slot from its floor to
//! the highest it stores, so it refuses slots more than
//! [`paxi::log::MAX_HOLE`] past the highest it has seen. EPaxos bounds
//! its instance numbers the same way, per origin, and refuses origins
//! outside the cluster. Here each message that carries a slot is
//! encoded with `u64::MAX`, `u64::MAX − 1` and `1 << 40` in it, decoded
//! again as a peer's frame would be, and delivered to a replica of a
//! running PigPaxos or EPaxos cluster: nothing may panic (debug builds
//! check the arithmetic), no vote may come back, nothing may be
//! decided, under 1 MiB may be allocated — and the cluster must still
//! decide a client's commands afterwards.
//!
//! The counting allocator is process-global, so the tests take turns.

use epaxos::{Attrs, EpaxosConfig, EpaxosMsg, InstanceId};
use paxi::{
    Ballot, ClientRequest, ClusterConfig, Command, Envelope, KvStore, Operation, ProtoMessage,
    ProtocolSpec, RequestId, SafetyMonitor, SessionTable, Snapshot, Value,
};
use paxos::PaxosMsg;
use pigpaxos::{PigConfig, PigMsg, RelayPlan};
use pigpaxos_bench::alloc::{self, CountingAllocator};
use simnet::{
    Actor, Context, CpuCostModel, Message, NodeId, SimDuration, Simulation, TimerId, Topology, Wire,
};
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Held by whichever test is measuring.
static MEASURING: Mutex<()> = Mutex::new(());

fn take_turn() -> MutexGuard<'static, ()> {
    MEASURING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

const REPLICAS: usize = 5;
const CLIENT: NodeId = NodeId(REPLICAS as u32);
const FORGED_SLOTS: [u64; 3] = [u64::MAX, u64::MAX - 1, 1 << 40];

/// Where the replies go.
struct Sink;
impl<M: Message> Actor<M> for Sink {
    fn on_message(&mut self, _from: NodeId, _msg: M, _ctx: &mut Context<M>) {}
    fn on_timer(&mut self, _id: TimerId, _kind: u64, _ctx: &mut Context<M>) {}
}

/// A cluster of `spec` replicas and a client that only listens, run
/// for 50 ms, with its trace on.
fn cluster<P: ProtocolSpec>(spec: &P) -> (Simulation<Envelope<P::Msg>>, SafetyMonitor) {
    let cluster = ClusterConfig::new(REPLICAS);
    let mut topo = Topology::lan(REPLICAS);
    topo.add_nodes(1, 0);
    let mut sim = Simulation::new(topo, CpuCostModel::calibrated(), 7);
    for i in 0..REPLICAS {
        sim.add_actor(spec.build_replica(NodeId::from(i), &cluster));
    }
    sim.add_actor(Box::new(Sink));
    sim.enable_trace();
    sim.run_for(SimDuration::from_millis(50));
    (sim, cluster.safety)
}

/// Encode `msg`, decode it as a peer's frame, deliver it from node 0 to
/// node 1 and let it settle: under 1 MiB may be allocated on the way.
fn deliver_forged<P: ProtoMessage + Wire>(sim: &mut Simulation<Envelope<P>>, msg: P) {
    let frame = Envelope::Proto(msg).encode().into();
    let msg = Envelope::<P>::decode_frame(&frame).expect("a well-formed frame");
    let ((), cost) = alloc::measure(|| {
        sim.inject(NodeId(0), NodeId(1), msg, SimDuration::ZERO);
        sim.run_for(SimDuration::from_millis(5));
    });
    assert!(
        cost.bytes < 1 << 20,
        "a forged slot allocated {} B",
        cost.bytes
    );
}

/// Messages delivered under any of `labels`.
fn delivered<M: Message>(sim: &Simulation<M>, labels: &[&str]) -> usize {
    let trace = sim.trace().expect("enabled").entries();
    trace.iter().filter(|e| labels.contains(&e.label)).count()
}

/// Send 20 client commands to node 0, then check they were decided.
fn the_cluster_lives<P: ProtoMessage>(sim: &mut Simulation<Envelope<P>>, safety: &SafetyMonitor) {
    for seq in 1..=20 {
        let request = Envelope::Request(ClientRequest { command: cmd(seq) });
        sim.inject(CLIENT, NodeId(0), request, SimDuration::from_millis(seq));
    }
    sim.run_for(SimDuration::from_millis(100));
    assert_eq!(safety.decided_count(), 20, "the cluster lives");
    safety.assert_safe();
}

fn cmd(seq: u64) -> Command {
    let client = CLIENT;
    Command {
        id: RequestId { client, seq },
        op: Operation::Put(seq, Value::zeros(8)),
    }
}

/// Every message that names a slot, with `slot` in it, under a ballot
/// no acceptor has promised past. Learned entries carry 48-bit slots,
/// so theirs is the widest the frame can hold.
fn forged(slot: u64) -> Vec<PaxosMsg> {
    let ballot = Ballot::new(u32::MAX, NodeId(0));
    let entry_slot = slot.min((1 << 48) - 1);
    let nothing = Snapshot::for_range(
        0,
        &KvStore::new(),
        &Default::default(),
        &SessionTable::new(),
        0,
        None,
    );
    vec![
        PaxosMsg::P2a {
            ballot,
            slot,
            command: cmd(1),
            commit_up_to: 0,
        },
        PaxosMsg::P2aBatch {
            ballot,
            first_slot: slot,
            commands: vec![cmd(1), cmd(2), cmd(3)].into(),
            commit_up_to: 0,
        },
        PaxosMsg::LearnRep {
            ballot,
            entries: vec![(entry_slot, cmd(1))],
        },
        PaxosMsg::SnapshotTransfer {
            ballot,
            snapshot: Box::new(nothing),
            entries: vec![(entry_slot, cmd(1))],
        },
        PaxosMsg::Heartbeat {
            ballot,
            commit_up_to: slot,
        },
    ]
}

/// Point to point, and through the relay path (which derives its round
/// key from the request's slots before the core sees it).
fn wrapped(inner: PaxosMsg) -> [PigMsg; 2] {
    let relayed = PigMsg::ToRelay {
        reply_to: NodeId(0),
        plan: RelayPlan::flat(vec![NodeId(2)]),
        inner: inner.clone(),
        threshold: 0,
    };
    [PigMsg::Direct(inner), relayed]
}

#[test]
fn forged_slots_cost_no_vote_no_entry_no_panic_and_under_1_mib() {
    let _turn = take_turn();
    let (mut sim, safety) = cluster(&PigConfig::lan(2));
    let mut sent = 0;
    for msg in FORGED_SLOTS.into_iter().flat_map(forged).flat_map(wrapped) {
        deliver_forged(&mut sim, msg);
        sent += 1;
    }
    assert_eq!(sent, 3 * 5 * 2);
    assert_eq!(delivered(&sim, &["p2b"]), 0, "a refused slot gets no vote");
    assert_eq!(safety.decided_count(), 0, "and decides nothing");
    the_cluster_lives(&mut sim, &safety);
    assert!(delivered(&sim, &["p2b"]) > 0);
}

/// Every EPaxos message that names an instance, for each forged slot of
/// a member's instance space and for slot 0 of a node outside the
/// cluster.
fn forged_instances() -> Vec<EpaxosMsg> {
    let member = FORGED_SLOTS.map(|slot| InstanceId {
        replica: NodeId(2),
        slot,
    });
    let outsider = InstanceId {
        replica: NodeId(99),
        slot: 0,
    };
    let messages = |inst| {
        let (ballot, attrs) = (Ballot::ZERO, Attrs::default());
        [
            EpaxosMsg::PreAccept {
                inst,
                ballot,
                command: cmd(1),
                attrs: attrs.clone(),
            },
            EpaxosMsg::Accept {
                inst,
                ballot,
                command: cmd(1),
                attrs: attrs.clone(),
            },
            EpaxosMsg::Commit {
                inst,
                command: cmd(1),
                attrs,
            },
        ]
    };
    member
        .into_iter()
        .chain([outsider])
        .flat_map(messages)
        .collect()
}

#[test]
fn forged_epaxos_instances_cost_no_vote_no_decision_no_panic_and_under_1_mib() {
    let _turn = take_turn();
    let (mut sim, safety) = cluster(&EpaxosConfig::default());
    let votes = ["preaccept_ok", "accept_ok"];
    let forged = forged_instances();
    assert_eq!(forged.len(), 4 * 3);
    for msg in forged {
        deliver_forged(&mut sim, msg);
    }
    assert_eq!(
        delivered(&sim, &votes),
        0,
        "a refused instance gets no vote"
    );
    assert_eq!(safety.decided_count(), 0, "and decides nothing");
    the_cluster_lives(&mut sim, &safety);
    assert!(delivered(&sim, &votes) > 0);
}
