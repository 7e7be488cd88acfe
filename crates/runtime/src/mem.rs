//! The in-memory transport, as [`Mem`] describes it.

use crate::epoll::Epoll;
use crate::event_loop::{loops_for, Batch, Door, Local, Transport};
use crate::{LoopRuntime, NetRunStats};
use simnet::{Message, NodeId};
use std::time::Duration;

/// The in-memory transport: messages pass as values. One to a node on the
/// same loop joins the loop's local queue; one to another loop, a batch
/// that leaves at the end of the turn as one channel send and one write
/// to that loop's wake descriptor — so, as over TCP, wake-ups are paid
/// per turn. A loop keeps every loop's door and the batch for each.
pub struct Mem<M> {
    me: usize,
    nodes: usize,
    doors: Vec<Door<M>>,
    batches: Vec<Batch<M>>,
}

/// The wall-clock runtime with the in-memory transport.
pub type Runtime<M> = LoopRuntime<M, Mem<M>>;

impl<M: Message + Send> Runtime<M> {
    /// Run the actors for `wall` on one loop per core (at most one each).
    pub fn run_for(&mut self, wall: Duration) -> NetRunStats {
        self.run_on(loops_for(self.actors.len()), wall)
    }
}

impl<M: Message + Send> Transport<M> for Mem<M> {
    fn for_loops(nodes: usize, doors: &[Door<M>], _eps: &[Epoll]) -> Vec<Self> {
        let at = |me| Mem {
            me,
            nodes,
            doors: doors.to_vec(),
            batches: vec![Vec::new(); doors.len()],
        };
        (0..doors.len()).map(at).collect()
    }

    fn send(&mut self, _s: usize, from: NodeId, to: NodeId, msg: M, local: &mut Local<M>) {
        let (i, loops) = (to.index(), self.doors.len());
        match (i % loops, i / loops) {
            _ if i >= self.nodes => {} // unknown destination: drop, as the simulator does
            (at, slot) if at == self.me => local.push_back((slot, from, msg)),
            (at, slot) => self.batches[at].push((slot, from, msg)),
        }
    }

    fn flush(&mut self, _charge: impl FnMut(usize)) {
        for (door, batch) in self.doors.iter().zip(&mut self.batches) {
            if !batch.is_empty() {
                let next = Vec::with_capacity(batch.len());
                door.post(Some(std::mem::replace(batch, next)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_loop::{mailbox, Loop};
    use simnet::{Actor, Context, SimDuration, TimerId};
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    #[derive(Debug, Clone)]
    struct Seq(u64);
    impl Message for Seq {
        fn wire_size(&self) -> usize {
            8
        }
    }

    /// `nodes` as nodes 0, 1, … on `loops` loops for `wall`.
    fn run_on(nodes: Vec<Box<dyn Actor<Seq> + Send>>, loops: usize, wall: Duration) -> NetRunStats {
        let mut rt = Runtime::new(5);
        for node in nodes {
            rt.add_actor(node);
        }
        rt.run_on(loops, wall)
    }

    /// Everything a node was sent: sender and number, in arrival order.
    type Got = Arc<Mutex<Vec<(NodeId, u64)>>>;

    /// Every millisecond sends `to` the next 200 of its numbers; records
    /// what it is sent.
    struct Streamer {
        to: Option<NodeId>,
        next: u64,
        got: Got,
    }
    impl Actor<Seq> for Streamer {
        fn on_start(&mut self, ctx: &mut Context<Seq>) {
            self.on_timer(TimerId(0), 0, ctx);
        }
        fn on_message(&mut self, from: NodeId, m: Seq, _c: &mut Context<Seq>) {
            self.got.lock().unwrap().push((from, m.0));
        }
        fn on_timer(&mut self, _i: TimerId, _k: u64, ctx: &mut Context<Seq>) {
            let Some(to) = self.to else { return };
            for seq in self.next..self.next + 200 {
                ctx.send(to, Seq(seq));
            }
            self.next += 200;
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }

    #[test]
    fn one_sender_reaches_one_receiver_in_order_on_one_loop_and_across_loops() {
        // On two loops: nodes 0 and 2 share loop 0, node 1 is on loop 1.
        // Node 2 hears from node 0 through the local queue and from node
        // 1 through batches, interleaved.
        let got = Got::default();
        let streamer = |to: Option<u32>| Streamer {
            to: to.map(NodeId),
            next: 0,
            got: got.clone(),
        };
        let nodes: Vec<Box<dyn Actor<Seq> + Send>> = vec![
            Box::new(streamer(Some(2))),
            Box::new(streamer(Some(2))),
            Box::new(streamer(None)),
        ];
        let stats = run_on(nodes, 2, Duration::from_millis(100));
        let got = got.lock().unwrap();
        for sender in [NodeId(0), NodeId(1)] {
            let seqs: Vec<u64> = got.iter().filter(|g| g.0 == sender).map(|g| g.1).collect();
            assert!(seqs.len() >= 1000, "{} from {sender:?}", seqs.len());
            assert!(
                seqs.iter().copied().eq(0..seqs.len() as u64),
                "from {sender:?}: in the order sent, none lost or twice"
            );
        }
        assert_eq!(got.len() as u64, stats.per_node_received[2]);
    }

    /// Answers every message, so what node 0 starts with stays in flight.
    struct Bouncer;
    impl Actor<Seq> for Bouncer {
        fn on_start(&mut self, ctx: &mut Context<Seq>) {
            if ctx.node() == NodeId(0) {
                (0..1000).for_each(|seq| ctx.send(NodeId(1), Seq(seq)));
            }
        }
        fn on_message(&mut self, from: NodeId, m: Seq, ctx: &mut Context<Seq>) {
            ctx.send(from, m);
        }
        fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<Seq>) {}
    }

    #[test]
    fn a_stop_with_batches_in_flight_neither_panics_nor_hangs() {
        // A thousand messages bounce between two loops, so every stop
        // lands with batches under way, and one loop stops first. The
        // host may stop the process for longer than one 5 ms window, so
        // progress is asserted over all of them.
        let mut delivered = 0;
        for _ in 0..20 {
            let wall = Duration::from_millis(5);
            let started = Instant::now();
            let nodes: Vec<Box<dyn Actor<Seq> + Send>> = vec![Box::new(Bouncer), Box::new(Bouncer)];
            delivered += run_on(nodes, 2, wall).msgs_delivered;
            assert!(started.elapsed() < wall + Duration::from_millis(100));
        }
        assert!(delivered > 0);
        // Mail for a loop that has stopped is dropped, before and after
        // the loop itself is.
        let (door, mailbox) = mailbox::<Seq>();
        let links = Mem::for_loops(0, std::slice::from_ref(&door), &[]).remove(0);
        let stopped = Loop::new(Epoll::new(), mailbox, links);
        let stopped = std::thread::spawn(move || stopped.run());
        door.post(None);
        let stopped = stopped.join().unwrap();
        door.post(Some(vec![(0, NodeId(0), Seq(1))]));
        drop(stopped);
        door.post(Some(vec![(0, NodeId(0), Seq(2))]));
    }
}
