//! End-to-end state-machine correctness: a sequential client that
//! writes distinct values and reads them back, asserting every read
//! observes the latest completed write (read-your-writes through the
//! serialized log — the linearizability the paper's single conflict
//! domain provides). The checking client occupies an
//! `extra_client_nodes` slot of the unified experiment and is injected
//! by the setup hook.

use paxi::{
    ClientRequest, Command, Envelope, Experiment, Operation, ProtoMessage, ProtocolSpec, RequestId,
    Value,
};
use paxos::PaxosConfig;
use pigpaxos::PigConfig;
use simnet::{Actor, Context, NodeId, SimDuration, TimerId};
use std::cell::RefCell;
use std::rc::Rc;

/// Issues `put(k, v_i); get(k)` pairs sequentially and checks that each
/// get returns the value of the immediately preceding put.
struct CheckingClient<P> {
    leader: NodeId,
    rounds: u64,
    seq: u64,
    current_round: u64,
    expecting_get: bool,
    failures: Rc<RefCell<Vec<String>>>,
    completed: Rc<RefCell<u64>>,
    _proto: std::marker::PhantomData<P>,
}

impl<P: ProtoMessage> CheckingClient<P> {
    fn value_for_round(round: u64) -> Value {
        Value::from(round.to_be_bytes().as_slice())
    }

    fn issue(&mut self, op: Operation, ctx: &mut Context<Envelope<P>>) {
        self.seq += 1;
        let id = RequestId {
            client: ctx.node(),
            seq: self.seq,
        };
        ctx.send(
            self.leader,
            Envelope::Request(ClientRequest {
                command: Command { id, op },
            }),
        );
    }

    fn next_round(&mut self, ctx: &mut Context<Envelope<P>>) {
        if self.current_round >= self.rounds {
            return;
        }
        self.current_round += 1;
        self.expecting_get = false;
        self.issue(
            Operation::Put(7, Self::value_for_round(self.current_round)),
            ctx,
        );
    }
}

impl<P: ProtoMessage> Actor<Envelope<P>> for CheckingClient<P> {
    fn on_start(&mut self, ctx: &mut Context<Envelope<P>>) {
        self.next_round(ctx);
    }

    fn on_message(&mut self, _f: NodeId, msg: Envelope<P>, ctx: &mut Context<Envelope<P>>) {
        let Envelope::Reply(reply) = msg else { return };
        if !reply.ok || reply.id.seq != self.seq {
            return;
        }
        if self.expecting_get {
            let expected = Self::value_for_round(self.current_round);
            if reply.value.as_ref() != Some(&expected) {
                self.failures.borrow_mut().push(format!(
                    "round {}: get returned {:?}, expected {:?}",
                    self.current_round, reply.value, expected
                ));
            }
            *self.completed.borrow_mut() += 1;
            self.next_round(ctx);
        } else {
            self.expecting_get = true;
            self.issue(Operation::Get(7), ctx);
        }
    }

    fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<Envelope<P>>) {}
}

fn check_protocol<P: ProtocolSpec>(proto: P, n: usize) {
    let failures = Rc::new(RefCell::new(Vec::new()));
    let completed = Rc::new(RefCell::new(0u64));
    let (failures2, completed2) = (failures.clone(), completed.clone());
    let r = Experiment::lan(proto, n)
        .extra_client_nodes(1)
        .warmup(SimDuration::ZERO)
        .measure(SimDuration::from_secs(5))
        .run_sim_with(99, move |sim, _| {
            sim.add_actor(Box::new(CheckingClient::<P::Msg> {
                leader: NodeId(0),
                rounds: 50,
                seq: 0,
                current_round: 0,
                expecting_get: false,
                failures: failures2,
                completed: completed2,
                _proto: std::marker::PhantomData,
            }));
        });
    assert!(
        r.protocol.violations().is_empty(),
        "{:?}",
        r.protocol.violations()
    );
    assert!(failures.borrow().is_empty(), "{:?}", failures.borrow());
    assert_eq!(*completed.borrow(), 50, "all rounds must complete");
}

#[test]
fn paxos_read_your_writes() {
    check_protocol(PaxosConfig::lan(), 5);
}

#[test]
fn pigpaxos_read_your_writes() {
    check_protocol(PigConfig::lan(3), 9);
}

#[test]
fn pigpaxos_two_groups_read_your_writes() {
    check_protocol(PigConfig::lan(2), 5);
}
