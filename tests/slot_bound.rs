//! A forged slot must not size an allocation.
//!
//! The log is a ring: it holds a cell for every slot from its floor to
//! the highest it stores, so it refuses slots more than
//! [`paxi::log::MAX_HOLE`] past the highest it has seen. Here each
//! message that carries a slot is encoded with `u64::MAX`,
//! `u64::MAX − 1` and `1 << 40` in it, decoded again as a peer's frame
//! would be, and delivered to a follower of a running PigPaxos cluster:
//! nothing may panic (debug builds check the arithmetic), no vote may
//! come back, nothing may be decided, under 1 MiB may be allocated —
//! and the cluster must still decide a client's commands afterwards.
//!
//! The counting allocator is process-global, so this binary holds one
//! `#[test]`.

use paxi::{
    Ballot, ClientRequest, ClusterConfig, Command, Envelope, KvStore, Operation, ProtocolSpec,
    RequestId, SessionTable, Snapshot, Value,
};
use paxos::PaxosMsg;
use pigpaxos::{PigConfig, PigMsg, RelayPlan};
use pigpaxos_bench::alloc::{self, CountingAllocator};
use simnet::{
    Actor, Context, CpuCostModel, NodeId, SimDuration, Simulation, TimerId, Topology, Wire,
};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

type Msg = Envelope<PigMsg>;

const REPLICAS: usize = 5;
const CLIENT: NodeId = NodeId(REPLICAS as u32);
const FORGED_SLOTS: [u64; 3] = [u64::MAX, u64::MAX - 1, 1 << 40];

/// Where the replies go.
struct Sink;
impl Actor<Msg> for Sink {
    fn on_message(&mut self, _from: NodeId, _msg: Msg, _ctx: &mut Context<Msg>) {}
    fn on_timer(&mut self, _id: TimerId, _kind: u64, _ctx: &mut Context<Msg>) {}
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
    let cfg = PigConfig::lan(2);
    let cluster = ClusterConfig::new(REPLICAS);
    let mut topo = Topology::lan(REPLICAS);
    topo.add_nodes(1, 0);
    let mut sim: Simulation<Msg> = Simulation::new(topo, CpuCostModel::calibrated(), 7);
    for i in 0..REPLICAS {
        sim.add_actor(cfg.build_replica(NodeId::from(i), &cluster));
    }
    sim.add_actor(Box::new(Sink));
    sim.enable_trace();
    sim.run_for(SimDuration::from_millis(50));

    let mut delivered = 0;
    for msg in FORGED_SLOTS.into_iter().flat_map(forged).flat_map(wrapped) {
        let frame = Envelope::Proto(msg).encode().into();
        let msg = Msg::decode_frame(&frame).expect("a well-formed frame");
        let ((), cost) = alloc::measure(|| {
            sim.inject(NodeId(0), NodeId(1), msg, SimDuration::ZERO);
            sim.run_for(SimDuration::from_millis(5));
        });
        assert!(
            cost.bytes < 1 << 20,
            "a forged slot allocated {} B",
            cost.bytes
        );
        delivered += 1;
    }
    assert_eq!(delivered, 3 * 5 * 2);

    let votes = |sim: &Simulation<Msg>| {
        let trace = sim.trace().expect("enabled").entries();
        trace.iter().filter(|e| e.label == "p2b").count()
    };
    assert_eq!(votes(&sim), 0, "a refused slot gets no vote");
    assert_eq!(cluster.safety.decided_count(), 0, "and decides nothing");

    for seq in 1..=20 {
        let request = Envelope::Request(ClientRequest { command: cmd(seq) });
        sim.inject(CLIENT, NodeId(0), request, SimDuration::from_millis(seq));
    }
    sim.run_for(SimDuration::from_millis(100));
    assert_eq!(cluster.safety.decided_count(), 20, "the cluster lives");
    assert!(votes(&sim) > 0);
    cluster.safety.assert_safe();
}
