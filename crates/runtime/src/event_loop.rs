//! The readiness loop both runtimes run, as the crate docs describe it;
//! how a message reaches another node is its [`Transport`]'s business.

use crate::epoll::{wake_fd, Epoll, EpollEvent, EPOLLIN, EPOLL_CTL_ADD};
use crate::{LoopRuntime, NetRunStats, Node, Out};
use simnet::{Message, NodeId};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{Read, Write};
use std::iter::zip;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Local messages a loop handles per turn.
const SELF_BUDGET: usize = 64;
/// Token of a loop's wake descriptor.
const WAKE: u64 = u64::MAX;

/// Messages for the nodes of one loop, oldest first: `(slot, from, msg)`.
pub(crate) type Batch<M> = Vec<(usize, NodeId, M)>;
/// A loop's queue of messages for its own nodes, laid out as a [`Batch`].
pub(crate) type Local<M> = VecDeque<(usize, NodeId, M)>;
/// What a loop is posted: a batch for its nodes, or `None` to stop.
type Mail<M> = Option<Batch<M>>;

/// How a message reaches a node other than its sender; one value a loop.
pub(crate) trait Transport<M: Message>: Send + Sized + 'static {
    /// One per loop for `n` nodes, node *i* in slot *i / loops* of loop
    /// *i mod loops*, with its descriptors registered on `eps[loop]`.
    fn for_loops(n: usize, doors: &[Door<M>], eps: &[Epoll]) -> Vec<Self>;
    /// Take `msg` from `from` in slot `s` to another node `to`; `local`, if
    /// that is on this loop.
    fn send(&mut self, s: usize, from: NodeId, to: NodeId, msg: M, local: &mut Local<M>);
    /// Hand on what the turn's handlers sent; `charge(s)` after slot `s`'s.
    fn flush(&mut self, charge: impl FnMut(usize));
    /// Handle the descriptor registered as `token`, ready for `events`;
    /// returns whose time it was.
    fn ready(&mut self, _token: u64, _events: u32, _: impl Deliver<M, Self>) -> Option<usize> {
        None
    }
    /// Add what this transport counted to `stats`.
    fn count(&self, _stats: &mut NetRunStats) {}
}

/// Where [`Transport::ready`] delivers: `(transport, slot, from, msg)`.
pub(crate) trait Deliver<M, T>: FnMut(&mut T, usize, NodeId, M) {}
impl<M, T, F: FnMut(&mut T, usize, NodeId, M)> Deliver<M, T> for F {}

/// Another thread's way into a loop: its mail and its wake descriptor.
#[derive(Clone)]
pub(crate) struct Door<M>(Sender<Mail<M>>, Arc<File>);

impl<M> Door<M> {
    /// Post `mail` and wake the loop; mail for a gone loop is dropped.
    pub(crate) fn post(&self, mail: Mail<M>) {
        let _ = self.0.send(mail);
        let _ = (&*self.1).write(&1u64.to_ne_bytes());
    }
}

/// A loop's end of its [`Door`]s.
pub(crate) struct Mailbox<M>(Receiver<Mail<M>>, Arc<File>);

/// A new mailbox and the door to it.
pub(crate) fn mailbox<M>() -> (Door<M>, Mailbox<M>) {
    let ((tx, rx), wake) = (channel(), Arc::new(wake_fd()));
    (Door(tx, wake.clone()), Mailbox(rx, wake))
}

/// One loop per core, never more than `nodes`.
pub(crate) fn loops_for(nodes: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    cores.min(nodes)
}

/// A loop's nodes, by slot, and its queue of messages for them.
pub(crate) struct Slots<M: Message> {
    pub(crate) nodes: Vec<Node<M>>,
    local: Local<M>,
}

impl<M: Message> Slots<M> {
    /// Run `f` on slot `s`'s node; it sends to itself via `local`, else `t`.
    fn run<T: Transport<M>>(&mut self, t: &mut T, s: usize, f: impl FnOnce(&mut Node<M>, Out<M>)) {
        let (node, local) = (&mut self.nodes[s], &mut self.local);
        let from = node.id;
        f(node, &mut |to, msg| match to == from {
            true => local.push_back((s, from, msg)),
            false => t.send(s, from, to, msg, local),
        });
    }

    fn deliver<T: Transport<M>>(&mut self, t: &mut T, s: usize, from: NodeId, msg: M) {
        self.run(t, s, |node, out| node.deliver(from, msg, out));
    }
}

/// One readiness loop: its epoll instance, nodes, transport and mailbox.
pub(crate) struct Loop<M: Message, T> {
    ep: Epoll,
    pub(crate) slots: Slots<M>,
    pub(crate) links: T,
    mailbox: Mailbox<M>,
}

impl<M: Message, T: Transport<M>> Loop<M, T> {
    /// A loop with no nodes yet, woken through `mailbox`.
    pub(crate) fn new(ep: Epoll, mailbox: Mailbox<M>, links: T) -> Self {
        ep.ctl(EPOLL_CTL_ADD, &*mailbox.1, EPOLLIN, WAKE);
        let (nodes, local) = (Vec::new(), VecDeque::new());
        let slots = Slots { nodes, local };
        Loop {
            ep,
            slots,
            links,
            mailbox,
        }
    }

    /// Run `f` on every node, each charged its own time.
    fn each(&mut self, mark: &mut Instant, f: impl Fn(&mut Node<M>, Out<M>)) {
        for s in 0..self.slots.nodes.len() {
            self.slots.run(&mut self.links, s, &f);
            self.slots.nodes[s].charge(mark);
        }
    }

    /// Turn until told to stop; returns the loop with its sockets open.
    pub(crate) fn run(mut self) -> Self {
        let mut events = [EpollEvent::default(); 64];
        let mut mark = Instant::now();
        self.each(&mut mark, |node, out| {
            node.run(|a, ctx| a.on_start(ctx), out)
        });
        loop {
            let now = mark;
            self.each(&mut mark, |node, out| node.fire_due(now, out));
            for _ in 0..SELF_BUDGET {
                let Some((s, from, msg)) = self.slots.local.pop_front() else {
                    break;
                };
                self.slots.deliver(&mut self.links, s, from, msg);
                self.slots.nodes[s].charge(&mut mark);
            }
            let Slots { nodes, local } = &mut self.slots;
            self.links.flush(|s| nodes[s].charge(&mut mark));
            let deadlines = nodes.iter().filter_map(Node::next_deadline);
            let timeout = match local.is_empty() {
                false => Some(Duration::ZERO),
                true => deadlines.min().map(|at| at.saturating_duration_since(mark)),
            };
            let ready = self.ep.wait(&mut events, timeout);
            mark = Instant::now();
            for event in &events[..ready] {
                let (token, events) = (event.token, event.events); // by value: packed
                if token == WAKE {
                    if !self.open_mail(&mut mark) {
                        return self;
                    }
                    continue;
                }
                let slots = &mut self.slots;
                let deliver = |links: &mut T, s, from, msg| slots.deliver(links, s, from, msg);
                if let Some(s) = self.links.ready(token, events, deliver) {
                    self.slots.nodes[s].charge(&mut mark);
                }
            }
        }
    }

    /// Deliver every batch the wake descriptor announced; false on a stop.
    fn open_mail(&mut self, mark: &mut Instant) -> bool {
        // Zero the count first: what is posted after this wakes us again.
        let _ = (&*self.mailbox.1).read(&mut [0; 8]);
        while let Ok(mail) = self.mailbox.0.try_recv() {
            let Some(batch) = mail else {
                return false;
            };
            for (s, from, msg) in batch {
                self.slots.deliver(&mut self.links, s, from, msg);
                self.slots.nodes[s].charge(mark);
            }
        }
        true
    }
}

impl<M: Message + Send, T> LoopRuntime<M, T> {
    /// Run the actors for `wall` on `loops` loops, node *i* on loop *i mod
    /// loops*; stop them; sum their counters. (The private `Transport`
    /// bound sits on this method, not on the impl of a public type.)
    pub(crate) fn run_on(&mut self, loops: usize, wall: Duration) -> NetRunStats
    where
        T: Transport<M>,
    {
        let n = self.actors.len();
        let (doors, mailboxes): (Vec<_>, Vec<_>) = (0..loops).map(|_| mailbox()).unzip();
        let eps: Vec<Epoll> = (0..loops).map(|_| Epoll::new()).collect();
        let links = T::for_loops(n, &doors, &eps);
        let parts = zip(zip(eps, mailboxes), links).map(|((ep, mb), l)| Loop::new(ep, mb, l));
        let mut parts: Vec<Loop<M, T>> = parts.collect();
        let epoch = Instant::now();
        for (i, actor) in std::mem::take(&mut self.actors).into_iter().enumerate() {
            let node = Node::new(NodeId::from(i), actor, epoch, self.seed);
            parts[i % loops].slots.nodes.push(node);
        }
        let spawn = |part: Loop<M, T>| std::thread::spawn(move || part.run());
        let threads: Vec<_> = parts.into_iter().map(spawn).collect();

        std::thread::sleep(wall);
        doors.iter().for_each(|door| door.post(None));
        // All are joined before any is dropped, so none sees a peer hang up.
        let joined = threads.into_iter().map(|thread| thread.join());
        let parts: Vec<Loop<M, T>> = joined.map(|l| l.expect("a loop panicked")).collect();
        let mut stats = NetRunStats::default();
        (0..n).for_each(|i| parts[i % loops].slots.nodes[i / loops].count(&mut stats));
        parts.iter().for_each(|part| part.links.count(&mut stats));
        stats
    }
}
