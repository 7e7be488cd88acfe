//! The nemesis: the actor that sends a run's message storms.
//!
//! Every other fault of an [`crate::Experiment::fault`] schedule is a
//! [`simnet::Control`] the simulator applies itself. A
//! [`Fault::Storm`](crate::Fault::Storm) has to send messages, so the
//! driver puts a [`Nemesis`] in one more client slot when the schedule
//! has a storm. It arms one timer per storm at start and sends the burst
//! when the timer fires: timers are ordinary events in the run's single
//! event order, so the run stays deterministic.

use crate::command::{ClientRequest, Command, Operation, RequestId};
use crate::envelope::{Envelope, ProtoMessage};
use crate::scenario::Fault;
use simnet::{Actor, Context, NodeId, SimDuration, TimerId};
use std::marker::PhantomData;

/// The storm-sending actor. Generic over the protocol message type
/// exactly like [`crate::ClosedLoopClient`] — it never constructs
/// protocol messages, only client-shaped requests.
pub(crate) struct Nemesis<P> {
    /// `(at, target, count)` per storm.
    storms: Vec<(SimDuration, NodeId, u32)>,
    seq: u64,
    _proto: PhantomData<P>,
}

impl<P> Nemesis<P> {
    /// The nemesis that sends the storms of `faults`; `None` if it has
    /// none.
    pub(crate) fn for_storms(faults: &[(SimDuration, Fault)]) -> Option<Self> {
        let storms: Vec<_> = faults
            .iter()
            .filter_map(|&(at, f)| match f {
                Fault::Storm { target, count } => Some((at, target, count)),
                Fault::Control(_) => None,
            })
            .collect();
        (!storms.is_empty()).then_some(Nemesis {
            storms,
            seq: 0,
            _proto: PhantomData,
        })
    }
}

impl<P: ProtoMessage> Actor<Envelope<P>> for Nemesis<P> {
    fn on_start(&mut self, ctx: &mut Context<Envelope<P>>) {
        for (i, &(at, _, _)) in self.storms.iter().enumerate() {
            ctx.set_timer(at, i as u64);
        }
    }

    fn on_message(&mut self, _from: NodeId, _msg: Envelope<P>, _ctx: &mut Context<Envelope<P>>) {
        // Storm replies and strays are ignored.
    }

    fn on_timer(&mut self, _id: TimerId, kind: u64, ctx: &mut Context<Envelope<P>>) {
        // A burst of read requests from one misbehaving client: distinct
        // sequence numbers so duplicate suppression does not absorb the
        // storm.
        let (_, target, count) = self.storms[kind as usize];
        for _ in 0..count {
            self.seq += 1;
            let id = RequestId {
                client: ctx.node(),
                seq: self.seq,
            };
            ctx.send(
                target,
                Envelope::Request(ClientRequest {
                    command: Command {
                        id,
                        op: Operation::Get(self.seq % 16),
                    },
                }),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::experiment::tests::small;
    use crate::Fault;
    use simnet::{Control, NodeId, SimDuration};

    #[test]
    fn storms_reach_their_target_and_are_counted() {
        let ms = SimDuration::from_millis;
        let storm = Fault::Storm {
            target: NodeId(0),
            count: 25,
        };
        let quiet = small().clients(1).capture_trace().run_sim(5);
        let stormy = small()
            .clients(1)
            .capture_trace()
            .fault(ms(300), storm)
            .fault(ms(400), Control::HealAllLinks)
            .fault(ms(500), storm)
            .run_sim(5);
        let requests = |r: &crate::RunResult| r.label_per_op("request").expect("traced");
        assert_eq!(stormy.transport.faults_applied, Some(3));
        assert_eq!(quiet.transport.faults_applied, Some(0));
        assert_eq!(
            stormy.transport.node_msgs.len(),
            quiet.transport.node_msgs.len() + 1,
            "the storms get a slot of their own"
        );
        let nemesis = *stormy.transport.node_msgs.last().unwrap();
        assert_eq!(nemesis, 2 * 25 * 2, "50 requests out, 50 replies in");
        assert!(requests(&stormy) > requests(&quiet));
    }
}
