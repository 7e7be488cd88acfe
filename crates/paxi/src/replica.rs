//! Adapter between protocol replicas and the simulator's [`Actor`] trait.
//!
//! A protocol implements [`Replica`]; [`ReplicaActor`] turns it into a
//! `simnet::Actor<Envelope<P>>`, demultiplexing client requests from
//! protocol messages. Replica contexts get convenience helpers
//! ([`ReplicaCtx`]) for sending protocol messages and client replies.

use crate::command::{ClientReply, ClientRequest};
use crate::envelope::{Envelope, ProtoMessage};
use crate::kv::KvStore;
use simnet::{Actor, Context, NodeId, TimerId};

/// The context type replicas operate on.
pub type Ctx<'a, P> = Context<'a, Envelope<P>>;

/// Helper methods on the replica context.
pub trait ReplicaCtx<P> {
    /// Send a protocol message to a peer replica.
    fn send_proto(&mut self, to: NodeId, msg: P);
    /// Send a reply to a client.
    fn reply(&mut self, client: NodeId, reply: ClientReply);
    /// Send coalesced replies to a client in one envelope (a singleton
    /// degrades to a plain `Reply`).
    fn reply_many(&mut self, client: NodeId, replies: Vec<ClientReply>);
}

impl<P: ProtoMessage> ReplicaCtx<P> for Ctx<'_, P> {
    fn send_proto(&mut self, to: NodeId, msg: P) {
        self.send(to, Envelope::Proto(msg));
    }
    fn reply(&mut self, client: NodeId, reply: ClientReply) {
        self.send(client, Envelope::Reply(reply));
    }
    fn reply_many(&mut self, client: NodeId, mut replies: Vec<ClientReply>) {
        match replies.len() {
            0 => {}
            1 => self.reply(client, replies.pop().expect("len checked")),
            _ => self.send(client, Envelope::ReplyBatch(replies)),
        }
    }
}

/// A consensus replica: handles client requests and protocol messages.
pub trait Replica<P: ProtoMessage>: 'static {
    /// Called once at start.
    fn on_start(&mut self, _ctx: &mut Ctx<P>) {}
    /// A client request arrived.
    fn on_request(&mut self, client: NodeId, req: ClientRequest, ctx: &mut Ctx<P>);
    /// A protocol message arrived from a peer replica.
    fn on_proto(&mut self, from: NodeId, msg: P, ctx: &mut Ctx<P>);
    /// A timer fired.
    fn on_timer(&mut self, _id: TimerId, _kind: u64, _ctx: &mut Ctx<P>) {}
    /// The key-value store this replica has executed commands into,
    /// read-only. The default `None` opts out.
    fn applied(&self) -> Option<&KvStore> {
        None
    }
    /// A stable digest of this replica's applied state. Convergence
    /// checks compare digests across replicas after faults heal and
    /// traffic drains. Defaults to the fingerprint of the
    /// [`Replica::applied`] store, so `None` when that opts out. See
    /// [`simnet::Actor::state_digest`].
    fn state_digest(&self) -> Option<u64> {
        self.applied().map(KvStore::fingerprint)
    }
}

/// Wraps a [`Replica`] as a simulator actor.
pub struct ReplicaActor<R>(pub R);

impl<P: ProtoMessage, R: Replica<P>> Actor<Envelope<P>> for ReplicaActor<R> {
    fn on_start(&mut self, ctx: &mut Context<Envelope<P>>) {
        self.0.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Envelope<P>, ctx: &mut Context<Envelope<P>>) {
        match msg {
            Envelope::Request(req) => self.0.on_request(from, req, ctx),
            Envelope::Proto(p) => self.0.on_proto(from, p, ctx),
            // Replicas do not receive client replies; a stray one (e.g.
            // a redirect bouncing off a misconfigured client) is dropped.
            Envelope::Reply(_) | Envelope::ReplyBatch(_) => {}
            Envelope::Shard(never) => match never {},
        }
    }

    fn on_timer(&mut self, id: TimerId, kind: u64, ctx: &mut Context<Envelope<P>>) {
        self.0.on_timer(id, kind, ctx);
    }

    fn state_digest(&self) -> Option<u64> {
        self.0.state_digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{Command, Operation, RequestId};
    use simnet::{CpuCostModel, SimTime, Simulation, Topology};

    #[derive(Debug, Clone)]
    struct Echo;
    impl ProtoMessage for Echo {
        fn wire_size(&self) -> usize {
            8
        }
    }

    /// Replica that immediately acks every request.
    struct AckAll {
        requests_seen: u64,
    }

    impl Replica<Echo> for AckAll {
        fn on_request(&mut self, client: NodeId, req: ClientRequest, ctx: &mut Ctx<Echo>) {
            self.requests_seen += 1;
            ctx.reply(client, ClientReply::ok(req.command.id, None));
        }
        fn on_proto(&mut self, _from: NodeId, _msg: Echo, _ctx: &mut Ctx<Echo>) {}
    }

    /// Minimal client: sends one request on start.
    struct OneShot {
        replica: NodeId,
        replies: u64,
    }

    impl Actor<Envelope<Echo>> for OneShot {
        fn on_start(&mut self, ctx: &mut Context<Envelope<Echo>>) {
            let id = RequestId {
                client: ctx.node(),
                seq: 1,
            };
            ctx.send(
                self.replica,
                Envelope::Request(ClientRequest {
                    command: Command {
                        id,
                        op: Operation::Get(1),
                    },
                }),
            );
        }
        fn on_message(
            &mut self,
            _f: NodeId,
            msg: Envelope<Echo>,
            _ctx: &mut Context<Envelope<Echo>>,
        ) {
            if matches!(msg, Envelope::Reply(r) if r.ok) {
                self.replies += 1;
            }
        }
        fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<Envelope<Echo>>) {}
    }

    #[test]
    fn request_reply_through_adapter() {
        let mut sim: Simulation<Envelope<Echo>> =
            Simulation::new(Topology::lan(2), CpuCostModel::free(), 1);
        sim.add_actor(Box::new(ReplicaActor(AckAll { requests_seen: 0 })));
        sim.add_actor(Box::new(OneShot {
            replica: NodeId(0),
            replies: 0,
        }));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats().nodes[0].msgs_received, 1);
        assert_eq!(
            sim.stats().nodes[1].msgs_received,
            1,
            "client got its reply"
        );
    }
}
