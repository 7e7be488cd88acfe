//! # netsub — the TCP transport
//!
//! [`NetRuntime`] runs the crate's readiness loops with real sockets
//! between nodes: every message to another node, also one on the same
//! loop, crosses loopback TCP as a [`Wire`] frame — the exact bytes
//! `Message::wire_size()` charges on the simulator, so a protocol run
//! here has a complete, decodable wire schema, not an estimate.
//!
//! - **Per node**, a loop keeps a nonblocking listener, its inbound
//!   connections with their receive buffers, and a lazily connected
//!   outbound stream and output buffer per peer.
//! - **Receive**: `accept`, or one `read` into the connection's buffer
//!   per ready descriptor and turn, its complete frames decoded and
//!   handled right there. A payload is a slice of that buffer, which
//!   comes back for the next read once no message borrows it
//!   (`drain_frames`; [`simnet::wire::VALUE_PIN_RATIO`] decides which
//!   values are copied out).
//! - **Send**: a frame is encoded onto its peer's buffer, so `write`s are
//!   paid per turn, not per message; a buffer that reaches `FLUSH_BYTES`
//!   is written at once.
//! - **Nothing blocks but `epoll_pwait2`.** What the kernel does not take
//!   waits, with the offset into the torn first frame, and the stream is
//!   watched for `EPOLLOUT` only while it does: a peer that never reads
//!   costs memory, not the loop's other peers and timers, and no loop
//!   waits for another — but an overrun peer queues in the sender's
//!   memory instead of pushing back. (`connect` blocks, but the kernel
//!   completes or refuses a loopback one at once.)
//! - **Unreachable peers**: a failed connect puts the peer into back-off
//!   (10 ms doubling to 500 ms) as a *deadline*; until it passes, its
//!   frames are dropped and counted in `frames_dropped`, a loss the
//!   protocols' retry/learn machinery repairs.
//! - **The stream stays frame-aligned**: a failed connection's frames the
//!   kernel took whole are forgotten, and the rest goes to a fresh one
//!   from the first byte of the first frame not known fully written. The
//!   receiver discards a torn frame with its connection, so it sees no
//!   frame twice and none in part.
//! - Frames are `[payload len: u32 LE][sender node id: u32 LE]` +
//!   payload (see [`simnet::wire`]).

use crate::epoll::{Epoll, EPOLLIN, EPOLLOUT, EPOLL_CTL_ADD, EPOLL_CTL_DEL};
use crate::event_loop::{loops_for, Deliver, Door, Local, Transport};
use crate::{LoopRuntime, NetRunStats};
use simnet::{Bytes, Message, NodeId, Wire};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Bytes before a frame's payload: its length and its sender, u32 each.
const FRAME_PREFIX: usize = 8;
/// Longest payload a length prefix may claim, so corruption cannot allocate.
const MAX_FRAME: usize = 64 * 1024 * 1024;
/// First reconnect delay; doubles per failed attempt to [`MAX_BACKOFF`].
const INITIAL_BACKOFF: Duration = Duration::from_millis(10);
/// Reconnect delay ceiling.
const MAX_BACKOFF: Duration = Duration::from_millis(500);
/// Receive buffers start this long and grow by as much at a time.
const READ_CHUNK: usize = 64 * 1024;
/// A peer's buffer this long is written at once, not at the end of the turn.
const FLUSH_BYTES: usize = READ_CHUNK;

/// Token of every outbound stream, which needs no handling: turns end writing.
const WRITABLE: u64 = u64::MAX - 1;
/// `LISTENER | s` is slot *s*'s listener's token; a connection's is its fd.
const LISTENER: u64 = 1 << 62;

/// The wall-clock runtime with the TCP transport, for actors whose
/// message type implements [`Wire`].
pub type NetRuntime<M> = LoopRuntime<M, Tcp>;

impl<M: Message + Wire + Send> NetRuntime<M> {
    /// Run the actors for `wall` on one loop per core (at most one each).
    pub fn run_for(&mut self, wall: Duration) -> NetRunStats {
        self.run_on(loops_for(self.actors.len()), wall)
    }
}

/// A zero-filled receive buffer of at least `min_len` bytes, kept at
/// `len == capacity` so `read` fills `buf[filled..]` directly.
fn recv_buffer(min_len: usize) -> Vec<u8> {
    vec![0; min_len.max(READ_CHUNK)]
}

/// Append the frame of `msg` from `from` to `out`, encoded in place.
fn encode_frame<M: Message + Wire>(from: NodeId, msg: &M, out: &mut Vec<u8>) {
    let start = out.len();
    out.reserve(FRAME_PREFIX + msg.wire_size());
    out.extend_from_slice(&[0u8; FRAME_PREFIX]);
    msg.encode_into(out);
    let payload_len = (out.len() - start - FRAME_PREFIX) as u32;
    out[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&from.0.to_le_bytes());
}

/// One outbound edge: the stream to a peer and the frames waiting for it.
struct Peer {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    connected_before: bool,
    /// Frames not yet wholly handed to the socket, from a frame's start.
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

    /// Hand `out` to the socket as far as it takes it without blocking,
    /// over the connection in hand or, if that is dead, a fresh one. A
    /// peer that cannot be connected to loses them and backs off.
    fn flush(&mut self, net: &mut NetRunStats) {
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
    fn connect(&mut self, net: &mut NetRunStats) -> bool {
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
    fn write_out(&mut self, net: &mut NetRunStats) -> bool {
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

/// The TCP transport of the [module docs](self). What a loop keeps: per
/// slot, a listener and a `Peer` per node id (its own unused); inbound
/// connections by descriptor; what the sockets saw.
#[derive(Default)]
pub struct Tcp {
    listeners: Vec<TcpListener>,
    peers: Vec<Vec<Peer>>,
    conns: Vec<Option<Conn>>,
    net: NetRunStats,
}

/// One inbound connection and the bytes of it not yet decoded.
struct Conn {
    stream: TcpStream,
    /// The slot of the node it was accepted for.
    slot: usize,
    buf: Vec<u8>,
    filled: usize,
}

impl Tcp {
    /// Give the node in the next slot `listener`, registered on `ep`,
    /// and node *i* at `addrs[i]` as its peers.
    fn add(&mut self, listener: TcpListener, addrs: &[SocketAddr], ep: &Epoll) {
        listener.set_nonblocking(true).expect("nonblocking");
        let token = LISTENER | self.listeners.len() as u64;
        ep.ctl(EPOLL_CTL_ADD, &listener, EPOLLIN, token);
        self.listeners.push(listener);
        self.peers
            .push(addrs.iter().copied().map(Peer::new).collect());
    }

    /// Take every connection waiting at slot `s`'s listener; returns `s`.
    fn accept(&mut self, s: usize, ep: &Epoll) -> usize {
        while let Ok((stream, _)) = self.listeners[s].accept() {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let fd = stream.as_raw_fd() as usize;
            ep.ctl(EPOLL_CTL_ADD, &stream, EPOLLIN, fd as u64);
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

    /// `read` once from connection `fd` and deliver the frames that
    /// completes; a closed connection goes. Returns its slot.
    fn read<M: Message + Wire>(&mut self, fd: usize, mut deliver: impl Deliver<M, Self>) -> usize {
        // Out of its place while its frames are handled by `self`.
        let mut conn = self.conns[fd].take().expect("a registered connection");
        let s = conn.slot;
        if conn.filled == conn.buf.len() {
            // A frame straddles the buffer end: grow in place.
            conn.buf.resize(conn.filled + READ_CHUNK, 0);
        }
        match conn.stream.read(&mut conn.buf[conn.filled..]) {
            Ok(0) => return s,
            Ok(n) => {
                conn.filled += n;
                let to_slot = |from, msg| deliver(self, s, from, msg);
                let errors = drain_frames(&mut conn.buf, &mut conn.filled, to_slot);
                self.net.decode_errors += errors;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => return s,
        }
        self.conns[fd] = Some(conn);
        s
    }
}

impl<M: Message + Wire + Send> Transport<M> for Tcp {
    fn for_loops(n: usize, _doors: &[Door<M>], eps: &[Epoll]) -> Vec<Self> {
        // All are bound before any actor starts, so none races a listener.
        let bind = |_| TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
        let listeners: Vec<TcpListener> = (0..n).map(bind).collect();
        let addr = |l: &TcpListener| l.local_addr().expect("listener addr");
        let addrs: Vec<SocketAddr> = listeners.iter().map(addr).collect();
        let mut loops: Vec<Self> = eps.iter().map(|_| Self::default()).collect();
        for (i, listener) in listeners.into_iter().enumerate() {
            loops[i % eps.len()].add(listener, &addrs, &eps[i % eps.len()]);
        }
        loops
    }

    fn send(&mut self, s: usize, from: NodeId, to: NodeId, msg: M, _local: &mut Local<M>) {
        let Some(peer) = self.peers[s].get_mut(to.index()) else {
            return; // unknown destination: drop, as the simulator does
        };
        if peer.retry_at.is_some_and(|at| Instant::now() < at) {
            self.net.frames_dropped += 1;
            return;
        }
        peer.retry_at = None;
        encode_frame(from, &msg, &mut peer.out);
        if peer.out.len() >= FLUSH_BYTES && !peer.full {
            peer.flush(&mut self.net);
        }
    }

    /// Write out every buffer that holds something; `ep` reports the
    /// streams that did not take it all.
    fn flush(&mut self, ep: &Epoll, mut charge: impl FnMut(usize)) {
        for (s, peers) in self.peers.iter_mut().enumerate() {
            for peer in peers.iter_mut().filter(|p| !p.out.is_empty() || p.armed) {
                peer.flush(&mut self.net);
                match (&peer.stream, peer.full, peer.armed) {
                    (Some(stream), true, false) => {
                        ep.ctl(EPOLL_CTL_ADD, stream, EPOLLOUT, WRITABLE)
                    }
                    (Some(stream), false, true) => ep.ctl(EPOLL_CTL_DEL, stream, 0, 0),
                    _ => continue,
                }
                peer.armed = peer.full;
            }
            charge(s);
        }
    }

    fn ready(&mut self, token: u64, ep: &Epoll, deliver: impl Deliver<M, Self>) -> Option<usize> {
        match token {
            WRITABLE => None,
            t if t & LISTENER != 0 => Some(self.accept((t ^ LISTENER) as usize, ep)),
            fd => Some(self.read(fd as usize, deliver)),
        }
    }

    fn count(&self, stats: &mut NetRunStats) {
        stats.bytes_sent += self.net.bytes_sent;
        stats.reconnects += self.net.reconnects;
        stats.decode_errors += self.net.decode_errors;
        stats.frames_dropped += self.net.frames_dropped;
    }
}

/// Deliver every complete frame in `buf[..filled]`, each payload decoded
/// as a slice of the buffer frozen into one [`Bytes`] (no byte copied);
/// returns how many did not decode. A partial frame at the tail is kept;
/// the allocation comes back for the next read unless a decoded message
/// still borrows it (a large value does, until it is dropped).
fn drain_frames<M: Wire>(
    buf: &mut Vec<u8>,
    filled: &mut usize,
    mut deliver: impl FnMut(NodeId, M),
) -> u64 {
    // Find the end of the last complete frame. A length past MAX_FRAME
    // is corruption: count it, deliver what precedes it, drop the rest.
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

    // The partial frame goes to the front of the buffer, or of a fresh
    // one while some message pins this.
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
    use crate::event_loop::{mailbox, Loop};
    use crate::mem::Mem;
    use crate::Node;
    use simnet::{Actor, Context, SimDuration, TimerId, WireError, WireHeader, WireReader};
    use std::sync::{mpsc, Arc, Mutex};

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

    type Boxed = Box<dyn Actor<Num> + Send>;

    /// `actors` as nodes 0, 1, … on `loops` loops over transport `T`.
    fn run_on<T: Transport<Num>>(actors: Vec<Boxed>, loops: usize, wall: Duration) -> NetRunStats {
        let mut rt = LoopRuntime::<Num, T>::new(1);
        for actor in actors {
            rt.add_actor(actor);
        }
        rt.run_on(loops, wall)
    }

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
        fn on<T: Transport<Num>>() {
            let node: Boxed = Box::new(SelfSender { sent: false });
            let stats = run_on::<T>(vec![node], 1, Duration::from_millis(60));
            assert_eq!(stats.per_node_sent, vec![1]);
            assert_eq!(stats.per_node_received, vec![1]);
            assert_eq!(stats.bytes_sent, 0, "no socket traffic for self-sends");
            assert!(stats.timers_fired >= 1);
        }
        on::<Mem<Num>>();
        on::<Tcp>();
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
        let (mut peer, mut net) = (Peer::new(addr), NetRunStats::default());
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
        let (mut peer, mut net) = (Peer::new(addr), NetRunStats::default());
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
        let (mut peer, mut net) = (Peer::new(addr), NetRunStats::default());
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

    /// Node 0 running `actor` on one TCP loop for `wall`, with node *i*
    /// at `addrs[i]` whatever listens there; its own listener is not
    /// among them, so nobody calls. Returns the loop once it has stopped.
    fn run_tcp_loop(
        actor: impl Actor<Num> + Send + 'static,
        addrs: &[SocketAddr],
        wall: Duration,
    ) -> Loop<Num, Tcp> {
        let (ep, (door, mailbox), mut links) = (Epoll::new(), mailbox(), Tcp::default());
        links.add(listen().0, addrs, &ep);
        let mut tcp = Loop::new(ep, mailbox, links);
        let node = Node::new(NodeId(0), Box::new(actor), Instant::now(), 1);
        tcp.slots.nodes.push(node);
        let thread = std::thread::spawn(move || tcp.run());
        std::thread::sleep(wall);
        door.post(None);
        thread.join().unwrap()
    }

    #[test]
    fn a_full_buffer_is_written_without_waiting_for_the_loop() {
        let (listener, addr) = listen();
        let mut links = Tcp::default();
        links.add(listen().0, &[addr, addr], &Epoll::new());
        let reader = std::thread::spawn(move || read_to_end(listener.accept().unwrap().0));
        // One frame more than the buffer may hold, and no flush.
        let frames = (FLUSH_BYTES / NUM_FRAME + 1) as u64;
        for n in 0..frames {
            links.send(0, NodeId(0), NodeId(1), Num(n), &mut Local::new());
        }
        let held = (links.peers[0][1].out.len() / NUM_FRAME) as u64;
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
            self.ticks.lock().unwrap().push(tick);
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
        let done = run_tcp_loop(ticker, &addrs, Duration::from_millis(200));
        // Back-off slept through on this thread would let one tick by
        // per connect attempt, 10, 20, 40, 80 ms apart; as a deadline it
        // costs the timers nothing. (Nine ticks in ten, not all: the
        // host may stop the whole process for longer than that.)
        let ticks = ticks.lock().unwrap().clone();
        assert!(ticks.len() >= 40, "only {} ticks in 200 ms", ticks.len());
        let (p90, _) = gap_p90_and_median_lateness(&ticks);
        assert!(p90 < INITIAL_BACKOFF, "ticks waited {p90:?}");
        let net = &done.links.net;
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
        fn on<T: Transport<Num>>() {
            let (mut ticker, ticks) = Ticker::new(&[]);
            ticker.period = Duration::from_micros(1500);
            run_on::<T>(vec![Box::new(ticker)], 1, Duration::from_millis(300));
            let ticks = ticks.lock().unwrap().clone();
            assert!(ticks.len() >= 100, "only {} ticks in 300 ms", ticks.len());
            let (_, late) = gap_p90_and_median_lateness(&ticks);
            assert!(
                late < Duration::from_micros(300),
                "median tick {late:?} late"
            );
        }
        on::<Mem<Num>>();
        on::<Tcp>();
    }

    /// Keeps its own queue non-empty for ever; its first handler run
    /// also sends `Num(99)` to node 1.
    struct Spinner;
    impl Actor<Num> for Spinner {
        fn on_start(&mut self, ctx: &mut Context<Num>) {
            let me = ctx.node();
            ctx.send(me, Num(0));
        }
        fn on_message(&mut self, _f: NodeId, m: Num, ctx: &mut Context<Num>) {
            if m.0 == 0 {
                ctx.send(NodeId(1), Num(99));
            }
            let me = ctx.node();
            ctx.send(me, Num(m.0 + 1));
        }
        fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<Num>) {}
    }

    /// Everything a [`Recorder`] was sent: sender and number, in order.
    type Got = Arc<Mutex<Vec<(NodeId, u64)>>>;

    /// Records every message it is sent.
    struct Recorder(Got);
    impl Actor<Num> for Recorder {
        fn on_message(&mut self, from: NodeId, m: Num, _c: &mut Context<Num>) {
            self.0.lock().unwrap().push((from, m.0));
        }
        fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<Num>) {}
    }

    #[test]
    fn a_node_that_is_never_idle_still_sends_within_the_flush_bound() {
        // Node 0 never runs out of self-sent messages; node 2 shares its
        // loop and ticks; node 1, on the other loop, records.
        fn on<T: Transport<Num>>() {
            let got = Got::default();
            let (ticker, ticks) = Ticker::new(&[1]);
            let nodes: Vec<Boxed> = vec![
                Box::new(Spinner),
                Box::new(Recorder(got.clone())),
                Box::new(ticker),
            ];
            let stats = run_on::<T>(nodes, 2, Duration::from_millis(300));
            // Without the per-turn budget the spinner's first message
            // never leaves its loop.
            let got = got.lock().unwrap().clone();
            assert!(got.contains(&(NodeId(0), 99)), "the spinner's message left");
            assert!(stats.per_node_received[0] > 1000, "the spinner spun");
            // The ticking node was not starved of its timers either.
            let ticks = ticks.lock().unwrap().clone();
            assert!(
                ticks.len() >= 50,
                "only {} ticks beside a spinner",
                ticks.len()
            );
            let (p90, _) = gap_p90_and_median_lateness(&ticks);
            assert!(p90 < Duration::from_millis(10), "ticks waited {p90:?}");
        }
        on::<Mem<Num>>();
        on::<Tcp>();
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
        let done = run_tcp_loop(ticker, &addrs, Duration::from_millis(300));
        let deaf = &done.links.peers[0][1];
        assert!(deaf.full && deaf.armed, "the socket filled up");
        assert!(deaf.out.len() > 1 << 20, "and the rest waits in memory");
        let ticks = ticks.lock().unwrap().clone();
        assert!(ticks.len() >= 60, "only {} ticks in 300 ms", ticks.len());
        let (p90, _) = gap_p90_and_median_lateness(&ticks);
        assert!(p90 < Duration::from_millis(10), "ticks waited {p90:?}");
        let net = &done.links.net;
        assert_eq!((net.frames_dropped, net.reconnects), (0, 0));
        drop(done);
        let (got, errors) = reader.join().unwrap();
        assert_eq!((got.len(), errors), (ticks.len(), 0), "one frame a tick");
    }
}
