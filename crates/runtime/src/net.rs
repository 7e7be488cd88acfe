//! # netsub — TCP socket execution for simnet actors
//!
//! The third execution substrate: the same unmodified [`simnet::Actor`]
//! protocol code, but with real sockets between nodes. Every node has a
//! TCP listener and lazily established outbound connections to the
//! peers it talks to, and is otherwise the crate's `Node` (wall-clock
//! timers, per-node seeded RNG). Messages cross node boundaries as
//! encoded [`Wire`] frames — the exact bytes `Message::wire_size()`
//! charges on the simulator — so a protocol exercised here has a
//! complete, decodable wire schema, not an estimate.
//!
//! ## Transport
//!
//! Threads: `min(available_parallelism, nodes)` readiness loops and
//! nothing else — none per node, listener or connection. Node *i* lives
//! on loop *i mod loops*. A loop owns, for each of its nodes, the actor,
//! the nonblocking listener, every inbound connection with its receive
//! buffer, and one outbound stream and output buffer per peer. Linux
//! only: readiness is `epoll`, through the `extern "C"` declarations in
//! the crate's `epoll` module.
//!
//! - **One turn of a loop.** For each of its nodes: fire the due timers,
//!   deliver a bounded number of self-sent messages, write out every
//!   non-empty peer buffer. Then wait in `epoll_pwait2` until a socket
//!   is ready or the earliest timer is due (a nanosecond timeout: the
//!   clients tick every millisecond). Then, per ready descriptor,
//!   `accept`, or `read` once into that connection's buffer, decode the
//!   complete frames and call `on_message` right there. A message is
//!   handled on the thread that read it: no inbox, no second wake-up.
//! - **Send side.** A send encodes its frame onto the end of the peer's
//!   buffer, so `write`s are paid per turn, not per message; a buffer
//!   that reaches `FLUSH_BYTES` is written at once.
//! - **Nothing blocks but `epoll_pwait2`.** Every socket is nonblocking.
//!   When the kernel takes part of a buffer the rest stays, with the
//!   offset into the torn first frame, and the loop asks for `EPOLLOUT`
//!   on that stream only while bytes wait. So a peer that never reads
//!   costs memory, not the loop's other peers and timers, and two loops
//!   cannot wait for each other. (`connect` is a blocking call, but to a
//!   loopback listener the kernel completes or refuses it on the spot,
//!   without the peer's thread.) The price: an overrun peer queues in
//!   the sender's memory instead of pushing back.
//! - **Fairness.** At most `SELF_BUDGET` self-sent messages per node and
//!   one `read` per ready connection per turn, so neither a node that
//!   keeps itself busy nor one fat connection starves the loop's other
//!   nodes or their timers.
//! - **Unreachable peers.** A failed connect puts the peer into back-off
//!   (10 ms doubling to 500 ms) as a *deadline*: until it passes, frames
//!   for that peer are dropped and counted in `frames_dropped` — a loss
//!   the protocols' retry/learn machinery repairs.
//! - **The stream stays frame-aligned.** When a connection fails, the
//!   frames the kernel took whole are forgotten and the rest goes to a
//!   fresh connection from the first byte of the first frame not known
//!   fully written, wherever in it a partial write had stopped. The
//!   receiver discards the torn frame with the old connection, so it
//!   sees no frame twice and none in part.
//! - **Teardown.** `run_for` writes one byte to each loop's wake
//!   descriptor and joins; nothing polls a flag. The loops hand their
//!   sockets back open, so none sees a peer vanish while still running.
//! - Frames are `[payload len: u32 LE][sender node id: u32 LE]` +
//!   payload (see [`simnet::wire`]). Every cross-node message crosses a
//!   loopback socket, also between two nodes of one loop; self-sends
//!   wait in a queue in the node.
//! - A loop reads straight into a connection's reassembly buffer and
//!   decodes every payload as a slice of that one allocation, which
//!   comes back for the next read once no decoded message borrows it
//!   (`drain_frames`); [`simnet::wire::VALUE_PIN_RATIO`] decides which
//!   values stay windows into it and which are copied out.
//!
//! Unlike the simulator this substrate is *not* deterministic — it
//! measures real sockets, syscalls and scheduling. [`NetRunStats`]
//! keeps runs comparable with simulator metrics.

use crate::epoll::{Epoll, EpollEvent, EPOLLIN, EPOLLOUT, EPOLL_CTL_ADD, EPOLL_CTL_DEL};
use crate::Node;
use simnet::{Actor, Bytes, Message, NodeId, Wire};
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// Bytes before the payload in every transport frame: payload length
/// (u32) + sender node id (u32).
const FRAME_PREFIX: usize = 8;
/// Ceiling on a single frame's payload; a corrupted length prefix must
/// not trigger a huge allocation.
const MAX_FRAME: usize = 64 * 1024 * 1024;
/// First reconnect delay; doubles per failed attempt to [`MAX_BACKOFF`].
const INITIAL_BACKOFF: Duration = Duration::from_millis(10);
/// Reconnect delay ceiling.
const MAX_BACKOFF: Duration = Duration::from_millis(500);
/// Receive buffers start this long and grow by as much at a time.
const READ_CHUNK: usize = 64 * 1024;
/// A peer's output buffer is written out as soon as it holds this much,
/// without waiting for the top of the next turn.
const FLUSH_BYTES: usize = READ_CHUNK;
/// Self-sent messages one node may handle per turn.
const SELF_BUDGET: usize = 64;

/// Token of a loop's wake descriptor.
const WAKE: u64 = u64::MAX;
/// Token of every outbound stream: that it is writable again needs no
/// handling of its own, since each turn starts by writing what waits.
const WRITABLE: u64 = u64::MAX - 1;
/// Set in the token of slot *s*'s listener, `LISTENER | s`. An inbound
/// connection's token is its descriptor number.
const LISTENER: u64 = 1 << 62;

/// A full-length receive buffer of at least `min_len` bytes. Receive
/// buffers keep `len == capacity` (zero-filled once) so
/// `TcpStream::read` can write directly into `buf[filled..]` with no
/// staging chunk; the valid prefix is tracked separately by its owner.
fn recv_buffer(min_len: usize) -> Vec<u8> {
    vec![0; min_len.max(READ_CHUNK)]
}

/// Append one transport frame for `msg` from `from` to `out`:
/// `[payload len u32 LE][sender u32 LE]` + encoded payload, written in
/// place. The bytes are a pure function of `(from, msg)`.
fn encode_frame<M: Message + Wire>(from: NodeId, msg: &M, out: &mut Vec<u8>) {
    let start = out.len();
    out.reserve(FRAME_PREFIX + msg.wire_size());
    out.extend_from_slice(&[0u8; FRAME_PREFIX]);
    msg.encode_into(out);
    let payload_len = (out.len() - start - FRAME_PREFIX) as u32;
    out[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&from.0.to_le_bytes());
}

/// Counters from a [`NetRuntime`] run — the socket substrate's
/// equivalent of the simulator's per-node message stats.
#[derive(Debug, Default, Clone)]
pub struct NetRunStats {
    /// Messages delivered to actors across all nodes, self-sends too.
    pub msgs_delivered: u64,
    /// Timers fired across all nodes.
    pub timers_fired: u64,
    /// Messages sent per node (indexed by node id).
    pub per_node_sent: Vec<u64>,
    /// Messages received per node (indexed by node id).
    pub per_node_received: Vec<u64>,
    /// Nanoseconds a loop spent on each node (indexed by node id):
    /// reading and decoding its connections, its handlers, encoding and
    /// writing what they sent. Waiting in `epoll_pwait2` is nobody's.
    pub per_node_busy_ns: Vec<u64>,
    /// Deliveries per message label over the whole run.
    pub delivered_by_label: BTreeMap<&'static str, u64>,
    /// Encoded payload bytes that crossed a socket.
    pub bytes_sent: u64,
    /// Successful re-establishments of a dropped peer connection.
    pub reconnects: u64,
    /// Frames that failed to decode (0 on a healthy run — anything else
    /// means the wire schema disagrees with itself).
    pub decode_errors: u64,
    /// Frames dropped because their peer could not be reached.
    pub frames_dropped: u64,
}

/// What one node's sockets saw; summed into [`NetRunStats`] at the end.
#[derive(Default)]
struct Counters {
    bytes_sent: u64,
    reconnects: u64,
    decode_errors: u64,
    frames_dropped: u64,
}

/// A readiness-loop, TCP-per-edge runtime for [`simnet::Actor`]s whose
/// message type implements [`Wire`].
///
/// Mirrors [`crate::Runtime`]'s API: `new(seed)`, `add_actor`,
/// `run_for(wall)` — the substrate really is one orthogonal axis.
pub struct NetRuntime<M: Message + Wire + Send + 'static> {
    seed: u64,
    actors: Vec<Box<dyn Actor<M> + Send>>,
}

impl<M: Message + Wire + Send + 'static> NetRuntime<M> {
    /// New runtime; actors added next get node ids 0, 1, …
    pub fn new(seed: u64) -> Self {
        let actors = Vec::new();
        NetRuntime { seed, actors }
    }

    /// Register the next actor; returns its node id.
    pub fn add_actor(&mut self, actor: impl Actor<M> + Send + 'static) -> NodeId {
        self.actors.push(Box::new(actor));
        NodeId::from(self.actors.len() - 1)
    }

    /// Run the actors for `wall` on one readiness loop per core (never
    /// more loops than actors), with TCP loopback sockets between
    /// nodes, then tear everything down and return the run's counters.
    pub fn run_for(&mut self, wall: Duration) -> NetRunStats {
        let n = self.actors.len();
        // Listeners are all bound before any actor starts, so no node
        // races its peers' listeners.
        let bind = |_| TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
        let listeners: Vec<TcpListener> = (0..n).map(bind).collect();
        let addr = |l: &TcpListener| l.local_addr().expect("listener addr");
        let addrs: Vec<SocketAddr> = listeners.iter().map(addr).collect();

        let epoch = Instant::now();
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let mut per_loop: Vec<Vec<Slot<M>>> = (0..cores.min(n)).map(|_| Vec::new()).collect();
        let actors = std::mem::take(&mut self.actors).into_iter();
        for (i, (actor, listener)) in actors.zip(listeners).enumerate() {
            let node = Node::new(NodeId::from(i), actor, epoch, self.seed);
            let loops = per_loop.len();
            per_loop[i % loops].push(Slot::new(node, listener, &addrs));
        }
        let spawn = |slots| {
            let (wake, woken) = UnixStream::pair().expect("wake descriptor pair");
            let thread = std::thread::spawn(move || Loop::new(slots).run(woken));
            (wake, thread)
        };
        let loops: Vec<_> = per_loop.into_iter().map(spawn).collect();

        std::thread::sleep(wall);
        for (wake, _) in &loops {
            (&*wake).write_all(&[1]).expect("wake a loop");
        }
        // All are joined before any is dropped: a loop's sockets stay
        // open until every loop has stopped, so none sees a peer hang up.
        let joined = loops.into_iter().map(|(_, thread)| thread.join());
        let loops: Vec<Loop<M>> = joined.map(|l| l.expect("a loop panicked")).collect();

        let mut stats = NetRunStats {
            per_node_sent: vec![0; n],
            per_node_received: vec![0; n],
            per_node_busy_ns: vec![0; n],
            ..NetRunStats::default()
        };
        for slot in loops.iter().flat_map(|l| &l.slots) {
            let (i, net) = (slot.node.id.index(), &slot.links.net);
            stats.msgs_delivered += slot.node.delivered;
            stats.timers_fired += slot.node.fired;
            stats.per_node_sent[i] = slot.links.sent;
            stats.per_node_received[i] = slot.received;
            stats.per_node_busy_ns[i] = slot.busy.as_nanos() as u64;
            for (label, count) in &slot.labels {
                *stats.delivered_by_label.entry(label).or_insert(0) += count;
            }
            stats.bytes_sent += net.bytes_sent;
            stats.reconnects += net.reconnects;
            stats.decode_errors += net.decode_errors;
            stats.frames_dropped += net.frames_dropped;
        }
        stats
    }
}

/// One outbound edge: the stream to a peer and the frames waiting to be
/// written to it.
struct Peer {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    connected_before: bool,
    /// Encoded frames not yet wholly handed to the socket, back to back
    /// from the start of a frame.
    out: Vec<u8>,
    /// Bytes of `out`'s first frame the current connection has taken.
    taken: usize,
    /// The last write found the socket full.
    full: bool,
    /// `stream` is registered for `EPOLLOUT`.
    armed: bool,
    /// Delay the next failed connect imposes.
    backoff: Duration,
    /// While this lies in the future the peer counts as unreachable.
    retry_at: Option<Instant>,
}

impl Peer {
    fn new(addr: SocketAddr) -> Self {
        Peer {
            addr,
            stream: None,
            connected_before: false,
            out: Vec::new(),
            taken: 0,
            full: false,
            armed: false,
            backoff: INITIAL_BACKOFF,
            retry_at: None,
        }
    }

    /// Hand `out` to the socket, as far as it takes it without
    /// blocking: over the connection in hand and, if that turns out
    /// dead, once more over a fresh one. A peer that cannot be
    /// connected to loses these frames and goes into back-off.
    fn flush(&mut self, net: &mut Counters) {
        self.full = false;
        if self.out.is_empty() {
            return;
        }
        for _ in 0..2 {
            if self.stream.is_none() && !self.connect(net) {
                break;
            }
            if self.write_out(net) {
                return;
            }
            // Closing the descriptor also ends its registration. The
            // torn frame is sent again from its first byte.
            (self.stream, self.armed, self.taken) = (None, false, 0);
        }
        let (_, lost) = whole_frames(&self.out, self.out.len());
        net.frames_dropped += lost;
        self.out.clear();
        self.retry_at = Some(Instant::now() + self.backoff);
        self.backoff = (self.backoff * 2).min(MAX_BACKOFF);
    }

    /// A fresh nonblocking connection in place of none.
    fn connect(&mut self, net: &mut Counters) -> bool {
        let Ok(stream) = TcpStream::connect(self.addr) else {
            return false;
        };
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return false;
        }
        net.reconnects += u64::from(self.connected_before);
        (self.connected_before, self.backoff) = (true, INITIAL_BACKOFF);
        self.stream = Some(stream);
        true
    }

    /// Write until `out` is empty or the socket is full, and forget the
    /// frames it took whole. False when the connection failed instead.
    fn write_out(&mut self, net: &mut Counters) -> bool {
        let stream = self.stream.as_mut().expect("connected by the caller");
        let (mut written, mut alive) = (self.taken, true);
        while alive && !self.full && written < self.out.len() {
            match stream.write(&self.out[written..]) {
                Ok(0) => alive = false,
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => self.full = true,
                Err(_) => alive = false,
            }
        }
        let (bytes, frames) = whole_frames(&self.out, written);
        net.bytes_sent += bytes as u64 - FRAME_PREFIX as u64 * frames;
        self.out.drain(..bytes);
        self.taken = written - bytes;
        alive
    }
}

/// The payload length the frame starting `buf` declares.
fn frame_len(buf: &[u8]) -> usize {
    u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize
}

/// The frames of `buf` (back-to-back encoded frames) that lie wholly
/// inside its first `written` bytes: their total length and count.
fn whole_frames(buf: &[u8], written: usize) -> (usize, u64) {
    let (mut end, mut frames) = (0, 0);
    while end + FRAME_PREFIX <= written {
        let len = frame_len(&buf[end..]);
        if end + FRAME_PREFIX + len > written {
            break;
        }
        end += FRAME_PREFIX + len;
        frames += 1;
    }
    (end, frames)
}

/// A node's way out: one [`Peer`] per node id (its own entry stays
/// unused) and the queue its self-sends wait in.
struct Links<M> {
    node: NodeId,
    peers: Vec<Peer>,
    to_self: VecDeque<M>,
    sent: u64,
    net: Counters,
}

impl<M: Message + Wire> Links<M> {
    /// Take one message the node's actor sent.
    fn send(&mut self, to: NodeId, msg: M) {
        self.sent += 1;
        if to == self.node {
            // Loopback within the node: no socket, like the other
            // substrates, but still a counted delivery.
            return self.to_self.push_back(msg);
        }
        let Some(peer) = self.peers.get_mut(to.index()) else {
            return; // unknown destination: drop, as the simulator does
        };
        if peer.retry_at.is_some_and(|at| Instant::now() < at) {
            self.net.frames_dropped += 1;
            return;
        }
        peer.retry_at = None;
        encode_frame(self.node, &msg, &mut peer.out);
        if peer.out.len() >= FLUSH_BYTES && !peer.full {
            peer.flush(&mut self.net);
        }
    }

    /// Write out every buffer that holds something, and have `ep`
    /// report exactly the streams that did not take it all.
    fn flush(&mut self, ep: &Epoll) {
        for peer in &mut self.peers {
            if peer.out.is_empty() && !peer.armed {
                continue;
            }
            peer.flush(&mut self.net);
            match (&peer.stream, peer.full, peer.armed) {
                (Some(stream), true, false) => ep.ctl(EPOLL_CTL_ADD, stream, EPOLLOUT, WRITABLE),
                (Some(stream), false, true) => ep.ctl(EPOLL_CTL_DEL, stream, 0, 0),
                _ => continue,
            }
            peer.armed = peer.full;
        }
    }
}

/// One node on a loop: the actor, its listener and its outbound side.
struct Slot<M: Message> {
    node: Node<M>,
    listener: TcpListener,
    links: Links<M>,
    /// Messages delivered to the actor, and how many of each label.
    received: u64,
    labels: BTreeMap<&'static str, u64>,
    /// Time the loop spent on this node.
    busy: Duration,
}

impl<M: Message + Wire> Slot<M> {
    /// `node` accepting on `listener`, with node *i* at `addrs[i]`.
    fn new(node: Node<M>, listener: TcpListener, addrs: &[SocketAddr]) -> Self {
        listener.set_nonblocking(true).expect("nonblocking");
        let links = Links {
            node: node.id,
            peers: addrs.iter().copied().map(Peer::new).collect(),
            to_self: VecDeque::new(),
            sent: 0,
            net: Counters::default(),
        };
        Slot {
            node,
            listener,
            links,
            received: 0,
            labels: BTreeMap::new(),
            busy: Duration::ZERO,
        }
    }

    fn deliver(&mut self, from: NodeId, msg: M) {
        self.received += 1;
        *self.labels.entry(msg.label()).or_insert(0) += 1;
        let links = &mut self.links;
        self.node.deliver(from, msg, &mut |to, m| links.send(to, m));
    }

    /// The part of a turn that waits for no descriptor: due timers, a
    /// budget of self-sent messages, and everything those and the last
    /// turn's handlers left in the output buffers.
    fn work(&mut self, now: Instant, ep: &Epoll) {
        let links = &mut self.links;
        self.node.fire_due(now, &mut |to, m| links.send(to, m));
        for _ in 0..SELF_BUDGET {
            let Some(msg) = self.links.to_self.pop_front() else {
                break;
            };
            self.deliver(self.links.node, msg);
        }
        self.links.flush(ep);
    }

    /// Charge this node the time since `mark`, and move `mark` to now.
    fn charge(&mut self, mark: &mut Instant) {
        let now = Instant::now();
        self.busy += now - *mark;
        *mark = now;
    }
}

/// One inbound connection and the bytes of it not yet decoded.
struct Conn {
    stream: TcpStream,
    /// Index in the loop's `slots` of the node it was accepted for.
    slot: usize,
    buf: Vec<u8>,
    filled: usize,
}

/// One readiness loop: an epoll instance, the nodes that live on it and
/// their inbound connections, indexed by descriptor number.
struct Loop<M: Message> {
    ep: Epoll,
    slots: Vec<Slot<M>>,
    conns: Vec<Option<Conn>>,
}

impl<M: Message + Wire> Loop<M> {
    fn new(slots: Vec<Slot<M>>) -> Self {
        let (ep, conns) = (Epoll::new(), Vec::new());
        for (s, slot) in slots.iter().enumerate() {
            ep.ctl(EPOLL_CTL_ADD, &slot.listener, EPOLLIN, LISTENER | s as u64);
        }
        Loop { ep, slots, conns }
    }

    /// Turn, as the module docs describe, until `woken` is readable.
    fn run(mut self, woken: UnixStream) -> Self {
        self.ep.ctl(EPOLL_CTL_ADD, &woken, EPOLLIN, WAKE);
        let mut events = [EpollEvent::default(); 64];
        let mut mark = Instant::now();
        for slot in &mut self.slots {
            let links = &mut slot.links;
            slot.node.start(&mut |to, m| links.send(to, m));
        }
        loop {
            let mut self_sends_wait = false;
            for slot in &mut self.slots {
                slot.work(mark, &self.ep);
                self_sends_wait |= !slot.links.to_self.is_empty();
                slot.charge(&mut mark);
            }
            let deadlines = self.slots.iter().filter_map(|s| s.node.next_deadline());
            let timeout = match self_sends_wait {
                true => Some(Duration::ZERO),
                false => deadlines.min().map(|at| at.saturating_duration_since(mark)),
            };
            let ready = self.ep.wait(&mut events, timeout);
            mark = Instant::now();
            for event in &events[..ready] {
                let token = event.token; // by value: the struct is packed
                let s = match token {
                    WAKE => return self,
                    WRITABLE => continue,
                    t if t & LISTENER != 0 => self.accept((t ^ LISTENER) as usize),
                    fd => self.read(fd as usize),
                };
                self.slots[s].charge(&mut mark);
            }
        }
    }

    /// Take every connection waiting at slot `s`'s listener; returns `s`.
    fn accept(&mut self, s: usize) -> usize {
        while let Ok((stream, _)) = self.slots[s].listener.accept() {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let fd = stream.as_raw_fd() as usize;
            self.ep.ctl(EPOLL_CTL_ADD, &stream, EPOLLIN, fd as u64);
            if self.conns.len() <= fd {
                self.conns.resize_with(fd + 1, || None);
            }
            let (buf, filled) = (recv_buffer(READ_CHUNK), 0);
            self.conns[fd] = Some(Conn {
                stream,
                slot: s,
                buf,
                filled,
            });
        }
        s
    }

    /// `read` once from the connection with descriptor `fd` (a short
    /// read never loses data — bytes accumulate until a frame
    /// completes) and deliver the frames that completes; the connection
    /// goes when its peer has closed it. Returns its slot.
    fn read(&mut self, fd: usize) -> usize {
        let conn = self.conns[fd].as_mut().expect("a registered connection");
        let (s, slot) = (conn.slot, &mut self.slots[conn.slot]);
        if conn.filled == conn.buf.len() {
            // A frame straddles the buffer end: grow in place.
            conn.buf.resize(conn.filled + READ_CHUNK, 0);
        }
        match conn.stream.read(&mut conn.buf[conn.filled..]) {
            Ok(0) => self.conns[fd] = None,
            Ok(n) => {
                conn.filled += n;
                let deliver = |from, msg| slot.deliver(from, msg);
                let errors = drain_frames(&mut conn.buf, &mut conn.filled, deliver);
                slot.links.net.decode_errors += errors;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => self.conns[fd] = None,
        }
        s
    }
}

/// Scan-and-freeze frame delivery. Finds every complete frame in
/// `buf[..filled]`, freezes the buffer into one refcounted [`Bytes`]
/// (an `Arc` around the existing allocation — no byte is copied),
/// decodes each payload as a slice of it and hands it to `deliver`.
/// Returns the number of frames that did not decode. A partial frame at
/// the tail is carried over; the allocation itself comes back for the
/// next read if no decoded message still borrows it (vote traffic and
/// small values never do; a large decoded value keeps it until the
/// value is dropped, and a fresh buffer takes over meanwhile).
fn drain_frames<M: Message + Wire>(
    buf: &mut Vec<u8>,
    filled: &mut usize,
    mut deliver: impl FnMut(NodeId, M),
) -> u64 {
    // Pass 1: walk the length prefixes to find the end of the last
    // complete frame. No payload is touched. A length past MAX_FRAME is
    // unrecoverable framing corruption: count it, deliver what preceded
    // it, and drop the poisoned bytes.
    let (consumed, _) = whole_frames(buf, *filled);
    let corrupt = *filled - consumed >= FRAME_PREFIX && frame_len(&buf[consumed..]) > MAX_FRAME;
    let mut errors = u64::from(corrupt);
    if consumed == 0 {
        if corrupt {
            *filled = 0;
        }
        return errors;
    }
    let tail = if corrupt { 0 } else { *filled - consumed };

    // Pass 2: freeze the buffer and decode every payload as a slice of
    // the shared frame.
    let frozen = Bytes::from(std::mem::take(buf));
    let mut off = 0;
    while off < consumed {
        let s = frozen.as_slice();
        let len = frame_len(&s[off..]);
        let from = NodeId(u32::from_le_bytes(s[off + 4..off + 8].try_into().unwrap()));
        let payload = frozen.slice(off + FRAME_PREFIX..off + FRAME_PREFIX + len);
        match M::decode_frame(&payload) {
            Ok(msg) => deliver(from, msg),
            Err(_) => errors += 1,
        }
        off += FRAME_PREFIX + len;
    }

    // Restore a receive buffer with the partial frame at its front: the
    // frozen allocation itself unless some message still pins it.
    *buf = match frozen.try_reclaim() {
        Ok(mut same) => {
            same.copy_within(consumed..consumed + tail, 0);
            same
        }
        Err(pinned) => {
            let mut fresh = recv_buffer(tail);
            fresh[..tail].copy_from_slice(&pinned.as_slice()[consumed..consumed + tail]);
            fresh
        }
    };
    *filled = tail;
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use simnet::{Context, SimDuration, TimerId, WireError, WireHeader, WireReader};
    use std::sync::{mpsc, Arc};

    #[derive(Debug, Clone, PartialEq)]
    struct Num(u64);
    impl Message for Num {
        fn wire_size(&self) -> usize {
            32
        }
        fn label(&self) -> &'static str {
            "num"
        }
    }
    impl Wire for Num {
        fn encode_into(&self, out: &mut Vec<u8>) {
            let mut h = WireHeader::new(9, 0);
            h.aux1 = self.0;
            h.encode_into(out);
            out.extend_from_slice(&[0u8; 8]);
        }
        fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
            let h = WireHeader::decode(r)?;
            r.bytes(8, "pad")?;
            Ok(Num(h.aux1))
        }
    }
    /// Bytes of one `Num` frame.
    const NUM_FRAME: usize = FRAME_PREFIX + 32;

    struct Pinger {
        peer: NodeId,
        next: u64,
    }
    impl Actor<Num> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<Num>) {
            ctx.send(self.peer, Num(self.next));
        }
        fn on_message(&mut self, from: NodeId, msg: Num, ctx: &mut Context<Num>) {
            self.next = msg.0 + 1;
            ctx.send(from, Num(self.next));
        }
        fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<Num>) {}
    }

    #[test]
    fn ping_pong_over_loopback_tcp() {
        let mut rt: NetRuntime<Num> = NetRuntime::new(7);
        rt.add_actor(Pinger {
            peer: NodeId(1),
            next: 0,
        });
        rt.add_actor(Pinger {
            peer: NodeId(0),
            next: 0,
        });
        let stats = rt.run_for(Duration::from_millis(300));
        assert!(
            stats.msgs_delivered > 50,
            "expected a busy ping-pong, got {} deliveries",
            stats.msgs_delivered
        );
        assert_eq!(stats.decode_errors, 0);
        assert_eq!(stats.per_node_sent.len(), 2);
        assert!(stats.per_node_sent.iter().all(|&s| s > 0));
        assert!(stats.per_node_received.iter().all(|&r| r > 0));
        // A message is counted, by label and by node, when it reaches
        // its handler: decoded and delivered are the same event.
        let num = stats.delivered_by_label.get("num").copied().unwrap_or(0);
        assert_eq!(num, stats.msgs_delivered);
        assert_eq!(num, stats.per_node_received.iter().sum::<u64>());
        // 32 bytes per message, every one over a real socket.
        assert!(stats.bytes_sent >= 32 * stats.msgs_delivered);
        assert_eq!(stats.bytes_sent % 32, 0);
        // Both nodes were worked on, and a loop cannot be busy for
        // longer than it ran (one loop per node at most here).
        assert!(stats.per_node_busy_ns.iter().all(|&ns| ns > 0));
        let busy = stats.per_node_busy_ns.iter().sum::<u64>();
        assert!(busy <= 2 * 400_000_000, "{busy} ns busy in a 300 ms run");
    }

    struct SelfSender {
        sent: bool,
    }
    impl Actor<Num> for SelfSender {
        fn on_start(&mut self, ctx: &mut Context<Num>) {
            let me = ctx.node();
            ctx.send(me, Num(1));
        }
        fn on_message(&mut self, _f: NodeId, _m: Num, ctx: &mut Context<Num>) {
            if !self.sent {
                self.sent = true;
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
        fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<Num>) {}
    }

    #[test]
    fn self_sends_skip_the_socket_but_count() {
        let mut rt: NetRuntime<Num> = NetRuntime::new(8);
        rt.add_actor(SelfSender { sent: false });
        let stats = rt.run_for(Duration::from_millis(60));
        assert_eq!(stats.per_node_sent, vec![1]);
        assert_eq!(stats.per_node_received, vec![1]);
        assert_eq!(stats.bytes_sent, 0, "no socket traffic for self-sends");
        assert!(stats.timers_fired >= 1);
    }

    /// `msg` from `from` as a frame of its own.
    fn frame_of(from: NodeId, msg: &Num) -> Vec<u8> {
        let mut frame = Vec::new();
        encode_frame(from, msg, &mut frame);
        frame
    }

    #[test]
    fn frames_are_encoded_in_place_behind_their_prefix() {
        // Appending to a buffer that already holds frames gives each
        // frame the bytes it has alone, and leaves the earlier ones be.
        let mut coalesced = vec![0xAA; 3]; // not a frame: must survive
        let mut apart = coalesced.clone();
        for seq in [0u64, 1, 42, u64::MAX] {
            encode_frame(NodeId(3), &Num(seq), &mut coalesced);
            apart.extend_from_slice(&frame_of(NodeId(3), &Num(seq)));
        }
        assert_eq!(coalesced, apart);
        // The frame layout itself: [len][sender] prefix then payload.
        let msg = Num(5);
        let frame = frame_of(NodeId(7), &msg);
        let payload_len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        let sender = u32::from_le_bytes(frame[4..8].try_into().unwrap());
        assert_eq!(payload_len, msg.wire_size());
        assert_eq!(frame.len(), NUM_FRAME);
        assert_eq!(sender, 7);
        assert_eq!(&frame[FRAME_PREFIX..], &msg.encode()[..]);
    }

    /// Everything `drain_frames` delivers when `stream` reaches it in
    /// the two pieces either side of `cut`, and the decode errors.
    fn drain_all(stream: &[u8], cut: usize) -> (Vec<(NodeId, u64)>, u64) {
        let mut buf = recv_buffer(stream.len());
        let (mut filled, mut errors) = (0, 0);
        let mut got = Vec::new();
        for part in [&stream[..cut], &stream[cut..]] {
            buf[filled..filled + part.len()].copy_from_slice(part);
            filled += part.len();
            errors += drain_frames(&mut buf, &mut filled, |from, msg: Num| {
                got.push((from, msg.0))
            });
        }
        assert_eq!(filled, 0, "no partial frame left at stream end");
        (got, errors)
    }

    #[test]
    fn drain_reassembles_frames_split_at_any_point() {
        // One peer's output buffer after a turn that produced three
        // frames; wherever TCP splits it, they arrive whole and in order.
        let msgs = [7u64, 8, 9];
        let mut stream = Vec::new();
        for &m in &msgs {
            encode_frame(NodeId(1), &Num(m), &mut stream);
        }
        let want: Vec<(NodeId, u64)> = msgs.iter().map(|&m| (NodeId(1), m)).collect();
        for cut in 0..=stream.len() {
            assert_eq!(drain_all(&stream, cut), (want.clone(), 0), "cut at {cut}");
        }
    }

    #[test]
    fn oversized_length_prefix_counts_error_and_resets() {
        let mut buf = recv_buffer(READ_CHUNK);
        buf[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        buf[4..8].copy_from_slice(&1u32.to_le_bytes());
        let mut filled = FRAME_PREFIX;
        let errors = drain_frames(&mut buf, &mut filled, |_, _: Num| panic!("no frame"));
        assert_eq!(filled, 0, "poisoned bytes dropped");
        assert_eq!(errors, 1);
    }

    /// A listener on a port of its own, and its address.
    fn listen() -> (TcpListener, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        (listener, addr)
    }

    /// An address where connects are refused: nothing listens there.
    fn dead_addr() -> SocketAddr {
        listen().1
    }

    /// Read a blocking `conn` to its end through `drain_frames`, as a
    /// loop does; returns the numbers received and the decode errors.
    fn read_to_end(mut conn: TcpStream) -> (Vec<u64>, u64) {
        let mut buf = recv_buffer(READ_CHUNK);
        let (mut filled, mut errors) = (0, 0);
        let mut got = Vec::new();
        loop {
            if filled == buf.len() {
                buf.resize(filled + READ_CHUNK, 0);
            }
            match conn.read(&mut buf[filled..]) {
                Ok(0) | Err(_) => return (got, errors),
                Ok(n) => filled += n,
            }
            errors += drain_frames(&mut buf, &mut filled, |_, msg: Num| got.push(msg.0));
        }
    }

    /// Queue `n` for `peer` as node 0 would.
    fn queue(peer: &mut Peer, n: u64) {
        encode_frame(NodeId(0), &Num(n), &mut peer.out);
    }

    #[test]
    fn a_peer_that_hangs_up_costs_only_frames_in_flight() {
        let (listener, addr) = listen();
        let (mut peer, mut net) = (Peer::new(addr), Counters::default());
        // The peer takes the first connection, reads one frame, hangs up.
        queue(&mut peer, 0);
        peer.flush(&mut net);
        let (mut first, _) = listener.accept().unwrap();
        first.read_exact(&mut [0u8; NUM_FRAME]).unwrap();
        drop(first);
        // The sender finds out on some later write and reconnects; every
        // write is one frame, so frames are lost whole or not at all.
        const LAST: u64 = 400;
        for n in 1..=LAST {
            queue(&mut peer, n);
            peer.flush(&mut net);
        }
        assert!(peer.out.is_empty(), "400 small frames fit a fresh socket");
        drop(peer);
        let (got, decode_errors) = read_to_end(listener.accept().unwrap().0);
        assert_eq!(decode_errors, 0, "the new stream starts on a frame");
        assert!(net.reconnects >= 1);
        assert_eq!(net.frames_dropped, 0);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "in order, none twice");
        assert_eq!(got.last(), Some(&LAST), "later frames get through");
        let lost = LAST as usize - got.len();
        assert!(lost <= 8, "{lost} frames lost to one hang-up");
    }

    #[test]
    fn a_failed_write_is_resent_from_the_start_of_its_first_unsent_frame() {
        // Three 40-byte frames of which a connection took one and a half.
        let mut out = Vec::new();
        for n in 0..3 {
            encode_frame(NodeId(0), &Num(n), &mut out);
        }
        assert_eq!(whole_frames(&out, 39), (0, 0));
        assert_eq!(whole_frames(&out, 60), (40, 1));
        assert_eq!(whole_frames(&out, 80), (80, 2));
        assert_eq!(whole_frames(&out, out.len()), (120, 3));

        // End to end: the connection dies under a buffer of three frames;
        // all three arrive, once, on the connection that replaces it.
        let (listener, addr) = listen();
        let (mut peer, mut net) = (Peer::new(addr), Counters::default());
        queue(&mut peer, 0);
        peer.flush(&mut net);
        let stream = peer.stream.as_ref().expect("connected");
        stream.shutdown(std::net::Shutdown::Both).unwrap();
        (1..=3).for_each(|n| queue(&mut peer, n));
        peer.flush(&mut net);
        drop(peer);
        assert_eq!(read_to_end(listener.accept().unwrap().0), (vec![0], 0));
        assert_eq!(
            read_to_end(listener.accept().unwrap().0),
            (vec![1, 2, 3], 0)
        );
        assert_eq!((net.reconnects, net.frames_dropped), (1, 0));
        assert_eq!(net.bytes_sent, 4 * 32);
    }

    #[test]
    fn a_partial_nonblocking_write_is_resent_from_its_frame_start_too() {
        let (listener, addr) = listen();
        // The peer accepts at once but reads late: first the connection
        // that was cut, then the one that replaced it, each to its end.
        let (read_now, may_read) = mpsc::channel::<()>();
        let reader = std::thread::spawn(move || {
            let first = listener.accept().unwrap().0;
            may_read.recv().unwrap();
            let first = read_to_end(first);
            (first, read_to_end(listener.accept().unwrap().0))
        });
        // Fill the socket until the kernel stops mid-buffer.
        let (mut peer, mut net) = (Peer::new(addr), Counters::default());
        let mut queued = 0;
        while !peer.full {
            (queued..queued + 4096).for_each(|n| queue(&mut peer, n));
            queued += 4096;
            peer.flush(&mut net);
        }
        assert!(!peer.out.is_empty() && peer.taken < NUM_FRAME);
        let taken_whole = queued - (peer.out.len() / NUM_FRAME) as u64;
        assert_eq!(net.bytes_sent, taken_whole * 32, "whole frames only");
        // The connection dies with the first waiting frame torn or
        // untouched; the rest goes out, from that frame's first byte,
        // over a second connection, as fast as the late reader takes it.
        let stream = peer.stream.as_ref().expect("connected");
        stream.shutdown(std::net::Shutdown::Both).unwrap();
        read_now.send(()).unwrap();
        while !peer.out.is_empty() {
            peer.flush(&mut net);
            std::thread::yield_now();
        }
        drop(peer);
        let ((first, first_errors), (second, second_errors)) = reader.join().unwrap();
        assert_eq!((first_errors, second_errors), (0, 0));
        assert_eq!(first, (0..taken_whole).collect::<Vec<_>>());
        assert_eq!(second, (taken_whole..queued).collect::<Vec<_>>());
        assert_eq!((net.reconnects, net.frames_dropped), (1, 0));
        assert_eq!(net.bytes_sent, queued * 32);
    }

    /// Node `id` running `actor`, with node *i* at `addrs[i]` whatever
    /// listens there. Its own listener is not among them: nobody calls.
    fn slot(id: u32, actor: impl Actor<Num> + Send + 'static, addrs: &[SocketAddr]) -> Slot<Num> {
        let node = Node::new(NodeId(id), Box::new(actor), Instant::now(), 1);
        Slot::new(node, listen().0, addrs)
    }

    /// Run `slots` on one loop for `wall`, or until `until` is sent to;
    /// returns the loop once it has stopped.
    fn run_loop(slots: Vec<Slot<Num>>, wall: Duration, until: mpsc::Receiver<()>) -> Loop<Num> {
        let (wake, woken) = UnixStream::pair().unwrap();
        let thread = std::thread::spawn(move || Loop::new(slots).run(woken));
        let _ = until.recv_timeout(wall);
        (&wake).write_all(&[1]).unwrap();
        thread.join().unwrap()
    }

    /// `run_loop` for the whole of `wall`.
    fn run_loop_for(slots: Vec<Slot<Num>>, wall: Duration) -> Loop<Num> {
        let (_never, until) = mpsc::channel();
        run_loop(slots, wall, until)
    }

    #[test]
    fn a_full_buffer_is_written_without_waiting_for_the_loop() {
        let (listener, addr) = listen();
        let mut links = slot(0, Spinner { runs: 0 }, &[addr, addr]).links;
        let reader = std::thread::spawn(move || read_to_end(listener.accept().unwrap().0));
        // One frame more than the buffer may hold, and no flush.
        let frames = (FLUSH_BYTES / NUM_FRAME + 1) as u64;
        for n in 0..frames {
            links.send(NodeId(1), Num(n));
        }
        let held = (links.peers[1].out.len() / NUM_FRAME) as u64;
        assert!(
            held <= 1,
            "{held} frames still held after the buffer filled"
        );
        drop(links);
        let (got, _) = reader.join().unwrap();
        assert_eq!(got, (0..frames - held).collect::<Vec<_>>());
    }

    /// `(gap since the last tick, lateness)` of every tick so far.
    type Ticks = Arc<Mutex<Vec<(Duration, Duration)>>>;

    /// Every `period`, sends one message to each of `peers` and records
    /// when the tick came and when it was due.
    struct Ticker {
        period: Duration,
        peers: Vec<NodeId>,
        due: Instant,
        ticks: Ticks,
        last: Instant,
    }
    impl Ticker {
        /// One that ticks every millisecond.
        fn new(peers: &[u32]) -> (Self, Ticks) {
            let ticks = Arc::new(Mutex::new(Vec::new()));
            let ticker = Ticker {
                period: Duration::from_millis(1),
                peers: peers.iter().copied().map(NodeId).collect(),
                due: Instant::now(),
                ticks: ticks.clone(),
                last: Instant::now(),
            };
            (ticker, ticks)
        }
        fn arm(&mut self, ctx: &mut Context<Num>) {
            self.due = Instant::now() + self.period;
            ctx.set_timer(SimDuration::from_nanos(self.period.as_nanos() as u64), 0);
        }
    }
    impl Actor<Num> for Ticker {
        fn on_start(&mut self, ctx: &mut Context<Num>) {
            self.last = Instant::now();
            self.arm(ctx);
        }
        fn on_message(&mut self, _f: NodeId, _m: Num, _c: &mut Context<Num>) {}
        fn on_timer(&mut self, _i: TimerId, _k: u64, ctx: &mut Context<Num>) {
            let now = Instant::now();
            let tick = (now - self.last, now.saturating_duration_since(self.due));
            self.ticks.lock().push(tick);
            self.last = now;
            for &peer in &self.peers {
                ctx.send(peer, Num(0));
            }
            self.arm(ctx);
        }
    }

    /// The 90th percentile of the gaps and the median of the lateness.
    fn gap_p90_and_median_lateness(ticks: &[(Duration, Duration)]) -> (Duration, Duration) {
        let mut gaps: Vec<_> = ticks.iter().map(|t| t.0).collect();
        let mut late: Vec<_> = ticks.iter().map(|t| t.1).collect();
        gaps.sort_unstable();
        late.sort_unstable();
        (gaps[gaps.len() * 9 / 10], late[late.len() / 2])
    }

    #[test]
    fn an_unreachable_peer_does_not_delay_timers() {
        let (ticker, ticks) = Ticker::new(&[1]);
        let addrs = [dead_addr(), dead_addr()];
        let done = run_loop_for(vec![slot(0, ticker, &addrs)], Duration::from_millis(200));
        // Back-off slept through on this thread would let one tick by
        // per connect attempt, 10, 20, 40, 80 ms apart; as a deadline it
        // costs the timers nothing. (Nine ticks in ten, not all: the
        // host may stop the whole process for longer than that.)
        let ticks = ticks.lock().clone();
        assert!(ticks.len() >= 40, "only {} ticks in 200 ms", ticks.len());
        let (p90, _) = gap_p90_and_median_lateness(&ticks);
        assert!(p90 < INITIAL_BACKOFF, "ticks waited {p90:?}");
        let net = &done.slots[0].links.net;
        assert_eq!(
            net.frames_dropped,
            ticks.len() as u64,
            "every frame counted"
        );
        assert_eq!(net.bytes_sent, 0);
    }

    #[test]
    fn ticks_of_a_millisecond_or_so_fire_on_time() {
        // The open-loop clients tick every millisecond on a schedule, so
        // the wait for a tick is a fraction of one. A timeout in whole
        // milliseconds rounds a 1.5 ms wait to 2 (half a millisecond
        // late every time) or to 1 (and then spins); nanoseconds leave
        // only scheduling noise.
        let (mut ticker, ticks) = Ticker::new(&[]);
        ticker.period = Duration::from_micros(1500);
        run_loop_for(vec![slot(0, ticker, &[])], Duration::from_millis(300));
        let ticks = ticks.lock().clone();
        assert!(ticks.len() >= 100, "only {} ticks in 300 ms", ticks.len());
        let (_, late) = gap_p90_and_median_lateness(&ticks);
        assert!(
            late < Duration::from_micros(300),
            "median tick {late:?} late"
        );
    }

    /// Keeps its own queue non-empty for ever; its first handler run
    /// also sends one message to node 2.
    struct Spinner {
        runs: u64,
    }
    impl Actor<Num> for Spinner {
        fn on_start(&mut self, ctx: &mut Context<Num>) {
            let me = ctx.node();
            ctx.send(me, Num(0));
        }
        fn on_message(&mut self, _f: NodeId, _m: Num, ctx: &mut Context<Num>) {
            if self.runs == 0 {
                ctx.send(NodeId(2), Num(99));
            }
            self.runs += 1;
            let me = ctx.node();
            ctx.send(me, Num(self.runs));
        }
        fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<Num>) {}
    }

    #[test]
    fn a_node_that_is_never_idle_still_sends_within_the_flush_bound() {
        // Node 0 never runs out of self-sent messages; node 1 shares its
        // loop and ticks; node 2 is this test.
        let (listener, addr) = listen();
        let addrs = [dead_addr(), dead_addr(), addr];
        let (ticker, ticks) = Ticker::new(&[2]);
        let slots = vec![
            slot(0, Spinner { runs: 0 }, &addrs),
            slot(1, ticker, &addrs),
        ];
        let (got_it, until) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            // Without the per-turn budget the spinner's first frame
            // never leaves and this read waits for ever.
            let mut from_spinner = None;
            for _ in 0..2 {
                let (mut conn, _) = listener.accept().unwrap();
                conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                let mut frame = [0u8; NUM_FRAME];
                conn.read_exact(&mut frame).expect("a frame from each node");
                if frame[4] == 0 {
                    from_spinner = Some(frame);
                }
            }
            std::thread::sleep(Duration::from_millis(100));
            got_it.send(()).unwrap();
            from_spinner.expect("the frame left although the node never idled")
        });
        let done = run_loop(slots, Duration::from_secs(10), until);
        assert_eq!(
            reader.join().unwrap()[..],
            frame_of(NodeId(0), &Num(99))[..]
        );
        assert!(done.slots[0].node.delivered > 1000, "the spinner spun");
        // The second node was not starved of its timers either.
        let ticks = ticks.lock().clone();
        assert!(
            ticks.len() >= 50,
            "only {} ticks beside a spinner",
            ticks.len()
        );
        let (p90, _) = gap_p90_and_median_lateness(&ticks);
        assert!(p90 < Duration::from_millis(10), "ticks waited {p90:?}");
    }

    #[test]
    fn a_peer_that_never_reads_does_not_stop_the_loop() {
        // Node 1 accepts (the kernel does) and never reads; node 2 reads.
        let (_deaf, deaf_addr) = listen();
        let (listener, addr) = listen();
        let reader = std::thread::spawn(move || read_to_end(listener.accept().unwrap().0));
        // Each tick sends one frame to node 2 and 4 096 to node 1, far
        // more in 300 ms than two socket buffers hold.
        let mut peers = vec![1; 4096];
        peers.push(2);
        let (ticker, ticks) = Ticker::new(&peers);
        let addrs = [dead_addr(), deaf_addr, addr];
        let done = run_loop_for(vec![slot(0, ticker, &addrs)], Duration::from_millis(300));
        let deaf = &done.slots[0].links.peers[1];
        assert!(deaf.full && deaf.armed, "the socket filled up");
        assert!(deaf.out.len() > 1 << 20, "and the rest waits in memory");
        let ticks = ticks.lock().clone();
        assert!(ticks.len() >= 60, "only {} ticks in 300 ms", ticks.len());
        let (p90, _) = gap_p90_and_median_lateness(&ticks);
        assert!(p90 < Duration::from_millis(10), "ticks waited {p90:?}");
        let net = &done.slots[0].links.net;
        assert_eq!((net.frames_dropped, net.reconnects), (0, 0));
        drop(done);
        let (got, errors) = reader.join().unwrap();
        assert_eq!((got.len(), errors), (ticks.len(), 0), "one frame a tick");
    }
}
