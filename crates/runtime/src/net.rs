//! # netsub — the TCP transport
//!
//! [`NetRuntime`] runs the crate's readiness loops with real sockets
//! between nodes: every message to another node, also one on the same
//! loop, crosses loopback TCP as a [`Wire`] frame — the exact bytes
//! `Message::wire_size()` charges on the simulator, so a protocol run
//! here has a complete, decodable wire schema, not an estimate.
//!
//! - **One socket per node pair, used both ways.** A node connects to a
//!   peer lazily, on its first send there. The node that accepts learns
//!   who called from the sender field of the first frame, and if it has
//!   no socket to that peer yet it takes this one over: its own frames to
//!   the peer go out on it from then on. So a reply leaves on the socket
//!   its request came in on and carries the kernel's ACK for it; with a
//!   socket per direction, every `read` drained a queue the reader never
//!   answered on, and the kernel sent a pure ACK back through the whole
//!   loopback stack on the reading thread (3.3 segments per op where 1.7
//!   carried data, on `net-write-small`).
//! - **Simultaneous open**: when both nodes connect before either hears
//!   from the other, both sockets stay. Each node writes on its own and
//!   reads both until their end; there is no tie-break.
//! - **Per loop**, every socket is one descriptor, registered for
//!   `EPOLLIN` from connect or accept on, with a receive buffer. Per
//!   node, a listener and per peer an output buffer and the socket it
//!   writes on. Every socket has `TCP_NODELAY`, accepted ones too: a
//!   reply held back by Nagle until the delayed ACK of its request
//!   costs far more than the segment it saves.
//! - **Receive**: `accept`, or reads of at most `READ_CHUNK` bytes in
//!   all per ready descriptor and turn, the frames each completes decoded
//!   and handled right there; one read, unless it ends on a large
//!   frame's prefix. Reads append to a `READ_CHUNK` staging buffer that
//!   is never zeroed. A frame with less than `LARGE` (1 KiB) of
//!   payload is decoded in place and its values are copied out
//!   ([`simnet::wire::VALUE_PIN_RATIO`]), so the staging buffer comes
//!   back for the next read every time. A larger frame ends up in a
//!   buffer of exactly its own length, which its values slice: copied
//!   there if it arrived whole in a staging read; otherwise its bytes so
//!   far move there and the rest is read straight into it, by one
//!   `readv` that also takes the next frame's prefix. That buffer is
//!   never reserved more than `READ_CHUNK` past the bytes received, so
//!   a length prefix alone cannot size an allocation (`Inbox`). A
//!   writable-only event costs no read.
//! - **Send**: a frame is encoded onto its peer's buffer, so `write`s are
//!   paid per turn, not per message; a buffer that reaches `FLUSH_BYTES`
//!   is written at once.
//! - **Nothing blocks but `epoll_pwait2`.** What the kernel does not take
//!   waits, with the offset into the torn first frame, and the socket is
//!   watched for `EPOLLOUT` too (`EPOLL_CTL_MOD`) only while it does: a
//!   peer that never reads costs memory, not the loop's other peers and
//!   timers, and no loop waits for another — but an overrun peer queues
//!   in the sender's memory instead of pushing back. (`connect` blocks,
//!   but the kernel completes or refuses a loopback one at once.)
//! - **Unreachable peers**: a failed connect puts the peer into back-off
//!   (10 ms doubling to 500 ms) as a *deadline*; until it passes, its
//!   frames are dropped and counted in `frames_dropped`, a loss the
//!   protocols' retry/learn machinery repairs.
//! - **The stream stays frame-aligned.** A `read` of 0 or an error, or a
//!   failed write, drops the socket for both directions. The reader
//!   discards its torn frame with it, so it sees no frame twice and none
//!   in part. The writer forgets the frames the kernel took whole and
//!   sends the rest from the first byte of the first frame not known
//!   fully written, on whichever socket the pair gets next: one it
//!   connects, or one it takes over. Taking over is not a reconnect.
//! - Frames are `[payload len: u32 LE][sender node id: u32 LE]` +
//!   payload (see [`simnet::wire`]).

use crate::epoll::{Epoll, EPOLLIN, EPOLLOUT, EPOLL_CTL_ADD, EPOLL_CTL_MOD};
use crate::event_loop::{loops_for, Deliver, Door, Local, Transport};
use crate::{LoopRuntime, NetRunStats};
use simnet::wire::VALUE_PIN_RATIO;
use simnet::{Bytes, Message, NodeId, Wire};
use std::io::{Error, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
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
/// Most bytes one read takes from a socket: the staging buffer's length.
const READ_CHUNK: usize = 64 * 1024;
/// Payloads this long or longer are read into a buffer of their own: a
/// value this long in the staging buffer would stay a window into it.
const LARGE: usize = READ_CHUNK / VALUE_PIN_RATIO;
/// A peer's buffer this long is written at once, not at the end of the turn.
const FLUSH_BYTES: usize = READ_CHUNK;

/// `LISTENER | s` is slot *s*'s listener's token; a socket's is its fd.
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

/// One socket: read always, written by at most one [`Peer`] — that of
/// whichever end opened it or took it over.
struct Sock {
    stream: TcpStream,
    /// The slot of the node whose end this is.
    slot: usize,
    /// The node at the other end: known on connect; on accept, from the
    /// sender of the first frame.
    peer: Option<NodeId>,
    inbox: Inbox,
}

/// A loop's sockets by descriptor, and the epoll instance they are on.
struct Sockets {
    ep: Epoll,
    by_fd: Vec<Option<Sock>>,
}

impl Sockets {
    /// Make `stream` a nonblocking, `TCP_NODELAY` socket of slot `slot`'s
    /// node, watched for reads; its descriptor.
    fn open(&mut self, stream: TcpStream, slot: usize, peer: Option<NodeId>) -> Option<usize> {
        stream.set_nonblocking(true).ok()?;
        stream.set_nodelay(true).ok()?;
        let fd = stream.as_raw_fd() as usize;
        self.ep.ctl(EPOLL_CTL_ADD, &stream, EPOLLIN, fd as u64);
        if self.by_fd.len() <= fd {
            self.by_fd.resize_with(fd + 1, || None);
        }
        self.by_fd[fd] = Some(Sock {
            stream,
            slot,
            peer,
            inbox: Inbox::new(),
        });
        Some(fd)
    }

    fn get(&mut self, fd: usize) -> &mut Sock {
        self.by_fd[fd].as_mut().expect("an open socket")
    }

    /// Watch `fd` for `EPOLLOUT` too while `writable`, else only `EPOLLIN`.
    fn watch(&self, fd: usize, writable: bool) {
        let events = EPOLLIN | if writable { EPOLLOUT } else { 0 };
        let sock = self.by_fd[fd].as_ref().expect("an open socket");
        self.ep.ctl(EPOLL_CTL_MOD, &sock.stream, events, fd as u64);
    }
}

/// One node's side of an edge: the frames waiting for `to` and the
/// socket they go out on.
struct Peer {
    to: NodeId,
    addr: SocketAddr,
    /// The socket this node writes to `to` on.
    fd: Option<usize>,
    connected_before: bool,
    /// Frames not yet wholly handed to the socket, from a frame's start.
    out: Vec<u8>,
    /// Bytes of `out`'s first frame the current socket has taken.
    taken: usize,
    /// The last write found the socket full.
    full: bool,
    /// The socket is watched for `EPOLLOUT`.
    armed: bool,
    /// Delay the next failed connect imposes.
    backoff: Duration,
    /// While this lies in the future the peer counts as unreachable.
    retry_at: Option<Instant>,
}

impl Peer {
    fn new(to: NodeId, addr: SocketAddr) -> Self {
        Peer {
            to,
            addr,
            fd: None,
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
    /// over the socket in hand or, if that is dead, a fresh one of slot
    /// `s`'s. A peer that cannot be connected to loses them and backs off.
    fn flush(&mut self, s: usize, socks: &mut Sockets, net: &mut NetRunStats) {
        self.full = false;
        if self.out.is_empty() {
            return;
        }
        for _ in 0..2 {
            let Some(fd) = self.fd.or_else(|| self.connect(s, socks, net)) else {
                break;
            };
            let stream = &socks.get(fd).stream;
            if self.write_out(stream, net) {
                return;
            }
            // Dropped for both directions: its reader sees the end and
            // closes it. The torn frame is sent again from its first byte.
            let _ = stream.shutdown(Shutdown::Both);
            (self.fd, self.armed, self.taken) = (None, false, 0);
        }
        let (_, lost) = whole_frames(&self.out, self.out.len());
        net.frames_dropped += lost;
        self.out.clear();
        self.retry_at = Some(Instant::now() + self.backoff);
        self.backoff = (self.backoff * 2).min(MAX_BACKOFF);
    }

    /// A fresh socket of slot `s`'s to `to`, in place of none.
    fn connect(&mut self, s: usize, socks: &mut Sockets, net: &mut NetRunStats) -> Option<usize> {
        let stream = TcpStream::connect(self.addr).ok()?;
        let fd = socks.open(stream, s, Some(self.to))?;
        net.connections += 1;
        net.reconnects += u64::from(self.connected_before);
        (self.connected_before, self.backoff, self.fd) = (true, INITIAL_BACKOFF, Some(fd));
        Some(fd)
    }

    /// Write until `out` is empty or the socket is full, and forget the
    /// frames it took whole. False when the socket failed instead.
    fn write_out(&mut self, mut stream: &TcpStream, net: &mut NetRunStats) -> bool {
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

/// The sender the frame starting `buf` names.
fn frame_sender(buf: &[u8]) -> NodeId {
    NodeId(u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes")))
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
/// slot, a listener and a `Peer` per node id (its own unused); every
/// socket by descriptor; what the sockets saw.
pub struct Tcp {
    listeners: Vec<TcpListener>,
    peers: Vec<Vec<Peer>>,
    socks: Sockets,
    net: NetRunStats,
}

impl Tcp {
    /// No nodes yet; their descriptors go on `ep`.
    fn new(ep: Epoll) -> Self {
        Tcp {
            listeners: Vec::new(),
            peers: Vec::new(),
            socks: Sockets {
                ep,
                by_fd: Vec::new(),
            },
            net: NetRunStats::default(),
        }
    }

    /// Give the node in the next slot `listener` and node *i* at
    /// `addrs[i]` as its peers.
    fn add(&mut self, listener: TcpListener, addrs: &[SocketAddr]) {
        listener.set_nonblocking(true).expect("nonblocking");
        let token = LISTENER | self.listeners.len() as u64;
        self.socks.ep.ctl(EPOLL_CTL_ADD, &listener, EPOLLIN, token);
        self.listeners.push(listener);
        let peer = |(i, &addr): (usize, &SocketAddr)| Peer::new(NodeId::from(i), addr);
        self.peers
            .push(addrs.iter().enumerate().map(peer).collect());
    }

    /// Take every connection waiting at slot `s`'s listener; returns `s`.
    fn accept(&mut self, s: usize) -> usize {
        while let Ok((stream, _)) = self.listeners[s].accept() {
            self.socks.open(stream, s, None);
        }
        s
    }

    /// Read from socket `fd` and deliver the frames that completes; a
    /// socket that ended goes. Returns its slot. A read that ends on the
    /// prefix of a large frame reads on into that frame, so back-to-back
    /// large frames cost a `readv` each, until `READ_CHUNK` bytes were
    /// read this turn.
    fn read<M: Message + Wire>(&mut self, fd: usize, mut deliver: impl Deliver<M, Self>) -> usize {
        let s = self.socks.get(fd).slot;
        let mut budget = READ_CHUNK;
        loop {
            let sock = self.socks.get(fd);
            let (n, full) = match sock.inbox.read_from(&sock.stream, budget) {
                Ok((0, _)) => break self.close(fd),
                Ok(read) => read,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    break
                }
                Err(_) => break self.close(fd),
            };
            budget -= n;
            // The first frame's prefix is staged whole before anything of
            // the stream is delivered or moves to a large frame's buffer.
            if sock.peer.is_none() && sock.inbox.staged.len() >= FRAME_PREFIX {
                // Accepted, and the caller is known now: its node writes
                // to the caller here, unless it has a socket there already.
                let from = frame_sender(&sock.inbox.staged);
                sock.peer = Some(from);
                if let Some(peer) = self.peers[s]
                    .get_mut(from.index())
                    .filter(|p| p.fd.is_none())
                {
                    peer.fd = Some(fd);
                }
            }
            // Out of its socket while its frames are handled by `self`,
            // which may write on that socket but closes none.
            let mut inbox = std::mem::take(&mut self.socks.get(fd).inbox);
            let to_slot = |from, msg| deliver(self, s, from, msg);
            self.net.decode_errors += inbox.drain(to_slot);
            let more = full && budget > 0 && !inbox.large.is_empty();
            self.socks.get(fd).inbox = inbox;
            if !more {
                break;
            }
        }
        s
    }

    /// Drop socket `fd` for both directions: a torn frame read from it
    /// goes with it, and what its writer had not fully sent waits for
    /// the pair's next socket. Closing it ends its registration.
    fn close(&mut self, fd: usize) {
        let sock = self.socks.by_fd[fd].take().expect("an open socket");
        let writer = sock
            .peer
            .and_then(|p| self.peers[sock.slot].get_mut(p.index()));
        if let Some(peer) = writer.filter(|p| p.fd == Some(fd)) {
            (peer.fd, peer.armed, peer.taken) = (None, false, 0);
        }
    }

    /// Write out every buffer that holds something, and watch for
    /// `EPOLLOUT` exactly the sockets that did not take it all.
    fn flush(&mut self, mut charge: impl FnMut(usize)) {
        for (s, peers) in self.peers.iter_mut().enumerate() {
            for peer in peers.iter_mut().filter(|p| !p.out.is_empty() || p.armed) {
                peer.flush(s, &mut self.socks, &mut self.net);
                if let Some(fd) = peer.fd.filter(|_| peer.full != peer.armed) {
                    self.socks.watch(fd, peer.full);
                    peer.armed = peer.full;
                }
            }
            charge(s);
        }
    }
}

impl<M: Message + Wire + Send> Transport<M> for Tcp {
    fn for_loops(n: usize, _doors: &[Door<M>], eps: &[Epoll]) -> Vec<Self> {
        // All are bound before any actor starts, so none races a listener.
        let bind = |_| TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
        let listeners: Vec<TcpListener> = (0..n).map(bind).collect();
        let addr = |l: &TcpListener| l.local_addr().expect("listener addr");
        let addrs: Vec<SocketAddr> = listeners.iter().map(addr).collect();
        let mut loops: Vec<Self> = eps.iter().cloned().map(Tcp::new).collect();
        for (i, listener) in listeners.into_iter().enumerate() {
            loops[i % eps.len()].add(listener, &addrs);
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
            peer.flush(s, &mut self.socks, &mut self.net);
        }
    }

    fn flush(&mut self, charge: impl FnMut(usize)) {
        Tcp::flush(self, charge);
    }

    fn ready(&mut self, token: u64, events: u32, deliver: impl Deliver<M, Self>) -> Option<usize> {
        match token {
            t if t & LISTENER != 0 => Some(self.accept((t ^ LISTENER) as usize)),
            // Only writable: the turn's flush writes.
            _ if events & !EPOLLOUT == 0 => None,
            fd => Some(self.read(fd as usize, deliver)),
        }
    }

    fn count(&self, stats: &mut NetRunStats) {
        stats.bytes_sent += self.net.bytes_sent;
        stats.connections += self.net.connections;
        stats.reconnects += self.net.reconnects;
        stats.decode_errors += self.net.decode_errors;
        stats.frames_dropped += self.net.frames_dropped;
    }
}

/// `struct iovec`.
#[repr(C)]
struct IoVec {
    base: *mut u8,
    len: usize,
}

extern "C" {
    fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
    fn readv(fd: i32, iov: *const IoVec, iovcnt: i32) -> isize;
}

/// The byte count a read call returned, or the error it set.
fn read_count(rc: isize) -> std::io::Result<usize> {
    usize::try_from(rc).map_err(|_| Error::last_os_error())
}

/// What a socket has read and not yet delivered: whole frames, then at
/// most one torn frame, in one of two buffers.
#[derive(Default)]
struct Inbox {
    /// Where reads go while no large frame is underway: `READ_CHUNK` of
    /// capacity, never zeroed. Between reads it holds at most a torn
    /// frame with less than `LARGE` of payload, or part of a prefix.
    staged: Vec<u8>,
    /// The large frame underway, prefix included, once its prefix is
    /// read. Reserved at most `READ_CHUNK` past its bytes and never past
    /// the frame's end, which is its capacity when it is complete.
    large: Vec<u8>,
}

impl Inbox {
    fn new() -> Self {
        Inbox {
            staged: Vec::with_capacity(READ_CHUNK),
            large: Vec::new(),
        }
    }

    /// One read of at most `budget` (> 0) bytes from `stream`: into the
    /// large frame underway, and the next frame's prefix behind it into
    /// the staging buffer, or else into the staging buffer. Returns the
    /// bytes read, 0 at the end of the stream, and whether that was all
    /// it asked for, so more may wait.
    fn read_from(
        &mut self,
        stream: &impl AsRawFd,
        budget: usize,
    ) -> std::io::Result<(usize, bool)> {
        let fd = stream.as_raw_fd();
        if self.large.is_empty() {
            let spare = self.staged.spare_capacity_mut();
            let asked = spare.len().min(budget);
            // SAFETY: `spare` is writable for `spare.len()` bytes, and
            // `recv` writes at most `asked <= spare.len()` of them.
            let n = read_count(unsafe { recv(fd, spare.as_mut_ptr().cast(), asked, 0) })?;
            // SAFETY: `recv` initialised the `n` bytes past the length.
            unsafe { self.staged.set_len(self.staged.len() + n) };
            return Ok((n, n == asked));
        }
        // While a large frame is underway nothing is staged.
        let rest = frame_end(&self.large) - self.large.len();
        let into_large = rest.min(budget);
        let into_staged = (budget - into_large).min(FRAME_PREFIX);
        self.large.reserve_exact(into_large);
        let iov = [
            (&mut self.large, into_large),
            (&mut self.staged, into_staged),
        ]
        .map(|(buf, len)| IoVec {
            base: buf.spare_capacity_mut()[..len].as_mut_ptr().cast(),
            len,
        });
        // SAFETY: each entry is spare capacity of its buffer, writable
        // for its `len` bytes, and `readv` writes at most that.
        let n = read_count(unsafe { readv(fd, iov.as_ptr(), 2) })?;
        let large = n.min(into_large);
        // SAFETY: `readv` fills the entries in order, so it initialised
        // `large` bytes past `large`'s length and the rest past `staged`'s.
        unsafe {
            self.large.set_len(self.large.len() + large);
            self.staged.set_len(self.staged.len() + n - large);
        }
        Ok((n, n == into_large + into_staged))
    }

    /// Deliver every frame the reads so far completed: the large frame,
    /// if it is whole, then the staged ones. Returns how many did not
    /// decode.
    fn drain<M: Wire>(&mut self, mut deliver: impl FnMut(NodeId, M)) -> u64 {
        let mut errors = 0;
        if !self.large.is_empty() && self.large.len() == frame_end(&self.large) {
            let from = frame_sender(&self.large);
            let frame = Bytes::from(std::mem::take(&mut self.large));
            errors += deliver_frame(from, frame.slice(FRAME_PREFIX..), &mut deliver);
        }
        errors + drain_frames(&mut self.staged, &mut self.large, &mut deliver)
    }
}

/// Where the frame starting `buf` ends, prefix included.
fn frame_end(buf: &[u8]) -> usize {
    FRAME_PREFIX + frame_len(buf)
}

/// Decode `payload` and hand it to `deliver` as `from`'s; 1 if it did
/// not decode, else 0.
fn deliver_frame<M: Wire>(
    from: NodeId,
    payload: Bytes,
    deliver: &mut impl FnMut(NodeId, M),
) -> u64 {
    match M::decode_frame(&payload) {
        Ok(msg) => {
            deliver(from, msg);
            0
        }
        Err(_) => 1,
    }
}

/// Deliver every whole frame in `buf`, and keep the torn one after them
/// at its front — or, if it is a large frame's start, in `large`, which
/// is empty until then; returns how many did not decode. A frame with
/// less than `LARGE` of payload is decoded as a slice of `buf` frozen
/// into one [`Bytes`], which copies every value in it out
/// ([`VALUE_PIN_RATIO`]), so `buf` always comes back whole; a larger one
/// is copied into a buffer of its own first. A length past `MAX_FRAME`
/// is corruption: it counts as an error, and it and all after it go.
fn drain_frames<M: Wire>(
    buf: &mut Vec<u8>,
    large: &mut Vec<u8>,
    deliver: &mut impl FnMut(NodeId, M),
) -> u64 {
    let (consumed, _) = whole_frames(buf, buf.len());
    let tail = buf.len() - consumed;
    let torn_len = (tail >= FRAME_PREFIX).then(|| frame_len(&buf[consumed..]));
    let corrupt = torn_len.is_some_and(|len| len > MAX_FRAME);
    let mut errors = u64::from(corrupt);
    if consumed > 0 {
        let frozen = Bytes::from(std::mem::take(buf));
        let mut off = 0;
        while off < consumed {
            let (from, end) = (
                frame_sender(&frozen[off..]),
                off + frame_end(&frozen[off..]),
            );
            let payload = off + FRAME_PREFIX..end;
            let payload = if payload.len() < LARGE {
                frozen.slice(payload)
            } else {
                Bytes::copy_from_slice(&frozen[payload])
            };
            errors += deliver_frame(from, payload, deliver);
            off = end;
        }
        *buf = frozen
            .try_reclaim()
            .expect("no value under LARGE stays a window into the staging buffer");
    }
    match torn_len {
        _ if corrupt => buf.clear(),
        Some(len) if len >= LARGE => {
            // Reserved at most a read ahead: a prefix alone sizes nothing.
            *large = Vec::with_capacity((FRAME_PREFIX + len).min(tail + READ_CHUNK));
            large.extend_from_slice(&buf[consumed..]);
            buf.clear();
        }
        _ => {
            buf.drain(..consumed);
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_loop::{mailbox, Loop};
    use crate::mem::Mem;
    use crate::Node;
    use proptest::prelude::*;
    use simnet::{
        Actor, Context, SimDuration, TimerId, WireError, WireHeader, WirePut, WireReader,
    };
    use std::io::Read;
    use std::sync::{mpsc, Arc, Mutex};

    #[derive(Debug, Clone, PartialEq)]
    struct Num(u64);
    impl Message for Num {
        fn wire_size(&self) -> usize {
            self.wire_len()
        }
        fn label(&self) -> &'static str {
            "num"
        }
    }
    impl Wire for Num {
        fn put<W: WirePut>(&self, out: &mut W) {
            let mut h = WireHeader::new(9, 0);
            h.aux1 = self.0;
            out.put_wire(&h);
            out.put_u64(0);
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

    /// Answers every message to its sender, with the number after it.
    struct Echo;
    impl Actor<Num> for Echo {
        fn on_message(&mut self, from: NodeId, m: Num, ctx: &mut Context<Num>) {
            ctx.send(from, Num(m.0 + 1));
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
        rt.add_actor(Echo);
        let stats = rt.run_for(Duration::from_millis(300));
        assert!(
            stats.msgs_delivered > 50,
            "expected a busy ping-pong, got {} deliveries",
            stats.msgs_delivered
        );
        // Node 1 never sends first, so the pair opens one socket (a
        // socket per direction made two) and node 1 answers on it.
        assert_eq!((stats.connections, stats.reconnects), (1, 0));
        assert_eq!((stats.decode_errors, stats.frames_dropped), (0, 0));
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

    /// A zero-filled buffer of `min_len` bytes or `READ_CHUNK`, whichever
    /// is longer, for a test to write frames into by index.
    fn recv_buffer(min_len: usize) -> Vec<u8> {
        vec![0; min_len.max(READ_CHUNK)]
    }

    /// [`super::drain_frames`] over `buf[..*filled]`, after which the torn
    /// frame is `buf[..*filled]` and `buf` is as long as before.
    fn drain_frames<M: Wire>(
        buf: &mut Vec<u8>,
        filled: &mut usize,
        mut deliver: impl FnMut(NodeId, M),
    ) -> u64 {
        let len = buf.len();
        buf.truncate(*filled);
        let errors = super::drain_frames(buf, &mut Vec::new(), &mut deliver);
        *filled = buf.len();
        buf.resize(len, 0);
        errors
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

    /// An address where connects are refused: nothing listens there. A
    /// freed port of 127.0.0.1 may be bound again by a test running
    /// beside this one, or be picked as a connect's own source port, so
    /// the port is taken on 127.0.0.2, where no listener here binds.
    fn dead_addr() -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 2], listen().1.port()))
    }

    /// Read a blocking `conn` to its end through an [`Inbox`], as a loop
    /// does; returns what was delivered and the decode errors.
    fn inbox_to_end<M: Wire>(conn: &TcpStream) -> (Vec<(NodeId, M)>, u64) {
        let (mut inbox, mut errors) = (Inbox::new(), 0);
        let mut got = Vec::new();
        while let Ok((1.., _)) = inbox.read_from(conn, READ_CHUNK) {
            errors += inbox.drain(|from, msg| got.push((from, msg)));
        }
        (got, errors)
    }

    /// [`inbox_to_end`] of `Num`s: the numbers received and the errors.
    fn read_to_end(conn: TcpStream) -> (Vec<u64>, u64) {
        let (got, errors) = inbox_to_end::<Num>(&conn);
        (got.into_iter().map(|(_, msg)| msg.0).collect(), errors)
    }

    /// Node 0 with a listener nobody calls, and node *i* at `addrs[i]`.
    fn node_0(addrs: &[SocketAddr]) -> Tcp {
        let mut links = Tcp::new(Epoll::new());
        links.add(listen().0, addrs);
        links
    }

    /// Node 0's edge to node 1.
    fn to_1(links: &mut Tcp) -> &mut Peer {
        &mut links.peers[0][1]
    }

    /// Queue `n` for node 1 as node 0 would.
    fn queue(links: &mut Tcp, n: u64) {
        encode_frame(NodeId(0), &Num(n), &mut to_1(links).out);
    }

    /// The socket node 0 writes to node 1 on.
    fn stream_to_1(links: &mut Tcp) -> &TcpStream {
        let fd = to_1(links).fd.expect("connected");
        &links.socks.get(fd).stream
    }

    #[test]
    fn a_peer_that_hangs_up_costs_only_frames_in_flight() {
        let (listener, addr) = listen();
        let mut links = node_0(&[addr, addr]);
        // The peer takes the first connection, reads one frame, hangs up.
        queue(&mut links, 0);
        links.flush(|_| {});
        let (mut first, _) = listener.accept().unwrap();
        first.read_exact(&mut [0u8; NUM_FRAME]).unwrap();
        drop(first);
        // The sender finds out on some later write and reconnects; every
        // write is one frame, so frames are lost whole or not at all.
        const LAST: u64 = 400;
        for n in 1..=LAST {
            queue(&mut links, n);
            links.flush(|_| {});
        }
        assert!(to_1(&mut links).out.is_empty(), "400 frames fit a socket");
        let net = std::mem::take(&mut links.net);
        drop(links);
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
        let mut links = node_0(&[addr, addr]);
        queue(&mut links, 0);
        links.flush(|_| {});
        stream_to_1(&mut links).shutdown(Shutdown::Both).unwrap();
        (1..=3).for_each(|n| queue(&mut links, n));
        links.flush(|_| {});
        let net = std::mem::take(&mut links.net);
        drop(links);
        assert_eq!(read_to_end(listener.accept().unwrap().0), (vec![0], 0));
        assert_eq!(
            read_to_end(listener.accept().unwrap().0),
            (vec![1, 2, 3], 0)
        );
        assert_eq!(
            (net.connections, net.reconnects, net.frames_dropped),
            (2, 1, 0)
        );
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
        let mut links = node_0(&[addr, addr]);
        let mut queued = 0;
        while !to_1(&mut links).full {
            (queued..queued + 4096).for_each(|n| queue(&mut links, n));
            queued += 4096;
            links.flush(|_| {});
        }
        let peer = to_1(&mut links);
        assert!(!peer.out.is_empty() && peer.taken < NUM_FRAME);
        let taken_whole = queued - (peer.out.len() / NUM_FRAME) as u64;
        assert_eq!(links.net.bytes_sent, taken_whole * 32, "whole frames only");
        // The connection dies with the first waiting frame torn or
        // untouched; the rest goes out, from that frame's first byte,
        // over a second connection, as fast as the late reader takes it.
        stream_to_1(&mut links).shutdown(Shutdown::Both).unwrap();
        read_now.send(()).unwrap();
        while !to_1(&mut links).out.is_empty() {
            links.flush(|_| {});
            std::thread::yield_now();
        }
        let net = std::mem::take(&mut links.net);
        drop(links);
        let ((first, first_errors), (second, second_errors)) = reader.join().unwrap();
        assert_eq!((first_errors, second_errors), (0, 0));
        assert_eq!(first, (0..taken_whole).collect::<Vec<_>>());
        assert_eq!(second, (taken_whole..queued).collect::<Vec<_>>());
        assert_eq!((net.reconnects, net.frames_dropped), (1, 0));
        assert_eq!(net.bytes_sent, queued * 32);
    }

    /// `actors` as nodes 0, 1, … on one TCP loop, node *i* listening on
    /// `listeners[i]` and calling node *j* at `addrs[j]`, whatever listens
    /// there; not started yet. Also the door that stops it.
    fn tcp_loop(
        actors: Vec<Boxed>,
        listeners: Vec<TcpListener>,
        addrs: &[SocketAddr],
    ) -> (Door<Num>, Loop<Num, Tcp>) {
        let (ep, (door, mailbox)) = (Epoll::new(), mailbox());
        let mut links = Tcp::new(ep.clone());
        listeners.into_iter().for_each(|l| links.add(l, addrs));
        let mut tcp = Loop::new(ep, mailbox, links);
        for (i, actor) in actors.into_iter().enumerate() {
            let node = Node::new(NodeId::from(i), actor, Instant::now(), 1);
            tcp.slots.nodes.push(node);
        }
        (door, tcp)
    }

    /// Run `tcp` for `wall`, then stop it through `door`; returns it once
    /// it has stopped.
    fn run_for(door: Door<Num>, tcp: Loop<Num, Tcp>, wall: Duration) -> Loop<Num, Tcp> {
        let thread = std::thread::spawn(move || tcp.run());
        std::thread::sleep(wall);
        door.post(None);
        thread.join().unwrap()
    }

    /// [`tcp_loop`] run for `wall`; returns the loop once it has stopped.
    fn run_tcp_loop(
        actors: Vec<Boxed>,
        listeners: Vec<TcpListener>,
        addrs: &[SocketAddr],
        wall: Duration,
    ) -> Loop<Num, Tcp> {
        let (door, tcp) = tcp_loop(actors, listeners, addrs);
        run_for(door, tcp, wall)
    }

    #[test]
    fn a_full_buffer_is_written_without_waiting_for_the_loop() {
        let (listener, addr) = listen();
        let mut links = node_0(&[addr, addr]);
        let reader = std::thread::spawn(move || read_to_end(listener.accept().unwrap().0));
        // One frame more than the buffer may hold, and no flush.
        let frames = (FLUSH_BYTES / NUM_FRAME + 1) as u64;
        for n in 0..frames {
            links.send(0, NodeId(0), NodeId(1), Num(n), &mut Local::new());
        }
        let held = (to_1(&mut links).out.len() / NUM_FRAME) as u64;
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
        let (wall, node) = (Duration::from_millis(200), vec![listen().0]);
        let done = run_tcp_loop(vec![Box::new(ticker)], node, &addrs, wall);
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
        // Each tick sends one frame to node 1 and one to node 2. Node 1's
        // buffer starts with 8 MiB, twice what a socket's send buffer may
        // grow to by default (`tcp_wmem`), so its socket fills on the
        // first turn and the rest waits. Queued up front, not 4 096 frames
        // a tick: in an unoptimised build that encoding took most of each
        // 1 ms tick, and the tick count measured the encoder.
        let (ticker, ticks) = Ticker::new(&[1, 2]);
        let addrs = [dead_addr(), deaf_addr, addr];
        let (door, mut tcp) = tcp_loop(vec![Box::new(ticker)], vec![listen().0], &addrs);
        let mut frame = Vec::new();
        encode_frame(NodeId(0), &Num(0), &mut frame);
        to_1(&mut tcp.links).out = frame.repeat((8 << 20) / NUM_FRAME);
        let done = run_for(door, tcp, Duration::from_millis(300));
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

    /// The open sockets of a stopped loop: `(fd, slot, peer)`.
    fn open_socks(links: &Tcp) -> Vec<(usize, usize, Option<NodeId>)> {
        let socks = links.socks.by_fd.iter().enumerate();
        let open = socks.filter_map(|(fd, sock)| sock.as_ref().map(|k| (fd, k.slot, k.peer)));
        open.collect()
    }

    #[test]
    fn every_socket_has_nodelay_and_a_reply_leaves_on_its_requests() {
        // Both ends of the one socket live on this loop: node 0 connected
        // it, node 1 accepted it and writes to node 0 on it.
        let ((l0, a0), (l1, a1)) = (listen(), listen());
        let nodes: Vec<Boxed> = vec![
            Box::new(Pinger {
                peer: NodeId(1),
                next: 0,
            }),
            Box::new(Echo),
        ];
        let wall = Duration::from_millis(100);
        let done = run_tcp_loop(nodes, vec![l0, l1], &[a0, a1], wall);
        let links = &done.links;
        let socks = open_socks(links);
        let end = |slot| socks.iter().find(|s| s.1 == slot).expect("an end").0;
        assert_eq!(socks.len(), 2, "one socket, both ends: {socks:?}");
        assert_eq!(links.peers[0][1].fd, Some(end(0)));
        assert_eq!(links.peers[1][0].fd, Some(end(1)), "the accepted end");
        for &(fd, ..) in &socks {
            let stream = &links.socks.by_fd[fd].as_ref().unwrap().stream;
            assert!(stream.nodelay().unwrap(), "socket {fd} without TCP_NODELAY");
        }
        assert_eq!(links.net.connections, 1);
        assert!(done
            .slots
            .nodes
            .iter()
            .all(|n| n.labels.contains_key("num")));
    }

    /// Every millisecond sends `to` its next 10 numbers, `to` being the
    /// first node it hears from if none is set; records what it is sent.
    struct Streamer {
        to: Option<NodeId>,
        next: u64,
        got: Got,
    }
    impl Streamer {
        fn new(to: Option<u32>) -> (Self, Got) {
            let got = Got::default();
            let to = to.map(NodeId);
            let next = 0;
            (
                Streamer {
                    to,
                    next,
                    got: got.clone(),
                },
                got,
            )
        }
    }
    impl Actor<Num> for Streamer {
        fn on_start(&mut self, ctx: &mut Context<Num>) {
            if self.to.is_some() {
                self.on_timer(TimerId(0), 0, ctx);
            }
        }
        fn on_message(&mut self, from: NodeId, m: Num, ctx: &mut Context<Num>) {
            self.got.lock().unwrap().push((from, m.0));
            if self.to.is_none() {
                self.to = Some(from);
                self.on_timer(TimerId(0), 0, ctx);
            }
        }
        fn on_timer(&mut self, _i: TimerId, _k: u64, ctx: &mut Context<Num>) {
            let to = self.to.expect("streaming");
            (self.next..self.next + 10).for_each(|n| ctx.send(to, Num(n)));
            self.next += 10;
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }

    #[test]
    fn a_taken_over_socket_that_is_hung_up_resends_on_the_next_one() {
        // This test is node 1: it calls node 0, which streams back on
        // the same socket; it reads 50 frames and hangs up. Node 0 then
        // calls node 1 at its listener and goes on from a frame's start.
        let ((l0, a0), (l1, a1)) = (listen(), listen());
        let caller = std::thread::spawn(move || {
            let mut call = TcpStream::connect(a0).unwrap();
            call.write_all(&frame_of(NodeId(1), &Num(0))).unwrap();
            let mut first = vec![0u8; 50 * NUM_FRAME];
            call.read_exact(&mut first).unwrap();
            first
        });
        let (streamer, _) = Streamer::new(None);
        let wall = Duration::from_millis(200);
        let mut done = run_tcp_loop(vec![Box::new(streamer)], vec![l0], &[a0, a1], wall);
        let net = std::mem::take(&mut done.links.net);
        drop(done);
        let first = caller.join().unwrap();
        let (first, errors) = drain_all(&first, 0);
        assert_eq!(errors, 0);
        let first: Vec<u64> = first.iter().map(|&(_, n)| n).collect();
        assert_eq!(first, (0..50).collect::<Vec<_>>(), "the reply socket's");
        l1.set_nonblocking(true).unwrap();
        let next = l1.accept().expect("node 0 called node 1").0;
        next.set_nonblocking(false).unwrap();
        let (second, errors) = read_to_end(next);
        assert_eq!(errors, 0, "the next socket starts on a frame");
        assert!(second.len() > 50, "the stream went on: {second:?}");
        assert!(second[0] >= 50, "none twice: {} after 0..50", second[0]);
        assert!(
            second.windows(2).all(|w| w[0] + 1 == w[1]),
            "none lost after"
        );
        assert_eq!((net.connections, net.reconnects), (1, 0));
        assert_eq!((net.decode_errors, net.frames_dropped), (0, 0));
    }

    #[test]
    fn a_simultaneous_open_keeps_both_sockets_and_loses_no_frame() {
        // Node 0 streams to node 1, this test, and has called it by the
        // time the test calls node 0 and sends 100 frames: each end
        // writes on the socket it opened and reads the other to its end.
        let ((l0, a0), (l1, a1)) = (listen(), listen());
        let callee = std::thread::spawn(move || {
            let theirs = l1.accept().unwrap().0;
            let mut mine = TcpStream::connect(a0).unwrap();
            for n in 0..100 {
                mine.write_all(&frame_of(NodeId(1), &Num(n))).unwrap();
            }
            mine.shutdown(Shutdown::Write).unwrap();
            (theirs, read_to_end(mine))
        });
        let (streamer, got) = Streamer::new(Some(1));
        let wall = Duration::from_millis(200);
        let done = run_tcp_loop(vec![Box::new(streamer)], vec![l0], &[a0, a1], wall);
        let socks = open_socks(&done.links);
        assert_eq!(socks.len(), 1, "the called socket went at its end");
        assert_eq!(done.links.peers[0][1].fd, Some(socks[0].0));
        assert_eq!(done.links.net.connections, 1);
        let want: Vec<_> = (0..100).map(|n| (NodeId(1), n)).collect();
        assert_eq!(*got.lock().unwrap(), want, "all of the called socket's");
        drop(done);
        let (theirs, mine) = callee.join().unwrap();
        assert_eq!(mine, (vec![], 0), "node 0 wrote nothing on it");
        let (streamed, errors) = read_to_end(theirs);
        assert_eq!(errors, 0);
        assert!(streamed.len() >= 100, "{} frames streamed", streamed.len());
        assert!(streamed.iter().copied().eq(0..streamed.len() as u64));
    }

    /// A frame's payload as the decoder handed it over.
    #[derive(Debug, Clone, PartialEq)]
    struct Raw(Bytes);
    impl Message for Raw {
        fn wire_size(&self) -> usize {
            self.0.len()
        }
        fn label(&self) -> &'static str {
            "raw"
        }
    }
    impl Wire for Raw {
        fn put<W: WirePut>(&self, out: &mut W) {
            out.put_slice(&self.0);
        }
        fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
            Ok(Raw(r.rest_value()))
        }
    }

    /// `len` bytes of `byte` as a `Raw`.
    fn raw(byte: u8, len: usize) -> Raw {
        Raw(Bytes::from(vec![byte; len]))
    }

    /// Payload lengths either side of `LARGE` and of `READ_CHUNK`.
    const PAYLOADS: [usize; 5] = [8, LARGE - 1, LARGE, 16_000, 70_000];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Wherever the stream is cut, every frame arrives once, whole and
        /// in order, and a large one in a buffer that holds no other
        /// frame's bytes.
        #[test]
        fn frames_arrive_whole_in_order_and_once_wherever_the_stream_is_cut(
            sizes in prop::collection::vec(0..PAYLOADS.len(), 1..10),
            cuts in prop::collection::vec(0usize..1 << 20, 0..12),
        ) {
            let sent: Vec<(NodeId, Raw)> = sizes
                .iter()
                .enumerate()
                .map(|(i, &k)| (NodeId(i as u32), raw(i as u8, PAYLOADS[k])))
                .collect();
            let mut stream = Vec::new();
            for (from, msg) in &sent {
                encode_frame(*from, msg, &mut stream);
            }
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % stream.len()).collect();
            cuts.sort_unstable();
            cuts.push(stream.len());
            let (listener, addr) = listen();
            let writer = std::thread::spawn(move || {
                let mut conn = TcpStream::connect(addr).unwrap();
                conn.set_nodelay(true).unwrap();
                let mut at = 0;
                for cut in cuts {
                    conn.write_all(&stream[at..cut]).unwrap();
                    at = cut;
                    std::thread::yield_now();
                }
            });
            let (got, errors) = inbox_to_end::<Raw>(&listener.accept().unwrap().0);
            writer.join().unwrap();
            prop_assert_eq!(errors, 0);
            prop_assert_eq!(got.len(), sent.len());
            for (i, ((from, Raw(payload)), want)) in got.iter().zip(&sent).enumerate() {
                prop_assert!((from, payload) == (&want.0, &want.1 .0), "frame {}", i);
                if payload.len() >= LARGE {
                    let held = payload.backing_capacity();
                    prop_assert!(held <= FRAME_PREFIX + payload.len(), "frame {}: {} held", i, held);
                }
            }
        }
    }

    /// Sends node 1 `count` values of `len` bytes as it starts.
    struct Burst {
        count: usize,
        len: usize,
    }
    impl Actor<Raw> for Burst {
        fn on_start(&mut self, ctx: &mut Context<Raw>) {
            (0..self.count).for_each(|i| ctx.send(NodeId(1), raw(i as u8, self.len)));
        }
        fn on_message(&mut self, _f: NodeId, _m: Raw, _c: &mut Context<Raw>) {}
        fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<Raw>) {}
    }

    /// Keeps every value it is sent.
    struct Keeper(Arc<Mutex<Vec<Bytes>>>);
    impl Actor<Raw> for Keeper {
        fn on_message(&mut self, _f: NodeId, m: Raw, _c: &mut Context<Raw>) {
            self.0.lock().unwrap().push(m.0);
        }
        fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<Raw>) {}
    }

    #[test]
    fn a_kept_large_value_holds_only_its_own_frame() {
        // A window into a shared 64 KiB read buffer held 4x its 16 000 B.
        let kept = Arc::new(Mutex::new(Vec::new()));
        let mut rt: NetRuntime<Raw> = NetRuntime::new(7);
        rt.add_actor(Burst {
            count: 64,
            len: 16_000,
        });
        rt.add_actor(Keeper(kept.clone()));
        let stats = rt.run_for(Duration::from_millis(300));
        assert_eq!((stats.decode_errors, stats.frames_dropped), (0, 0));
        let kept = kept.lock().unwrap();
        assert_eq!(kept.len(), 64, "every value arrived");
        let held: usize = kept.iter().map(Bytes::backing_capacity).sum();
        let own: usize = kept.iter().map(Bytes::len).sum();
        let ratio = held as f64 / own as f64;
        assert!(ratio <= 1.01, "kept values hold {ratio:.3}x their bytes");
    }

    #[test]
    fn a_length_prefix_alone_reserves_at_most_one_read_ahead() {
        // A caller claims a frame just under `MAX_FRAME` and sends 100
        // bytes of it: the buffer waiting for the rest stays a read long.
        let (l0, a0) = listen();
        let mut liar = TcpStream::connect(a0).unwrap();
        liar.write_all(&(MAX_FRAME as u32 - 1).to_le_bytes())
            .unwrap();
        liar.write_all(&1u32.to_le_bytes()).unwrap();
        liar.write_all(&[7; 100]).unwrap();
        let got = Got::default();
        let node: Vec<Boxed> = vec![Box::new(Recorder(got.clone()))];
        let wall = Duration::from_millis(100);
        let done = run_tcp_loop(node, vec![l0], &[a0], wall);
        let mut socks = done.links.socks.by_fd.iter().flatten();
        let large = &socks.next().expect("the caller's socket").inbox.large;
        assert_eq!(large.len(), FRAME_PREFIX + 100);
        assert!(
            large.capacity() <= READ_CHUNK + FRAME_PREFIX + 100,
            "{} bytes reserved",
            large.capacity()
        );
        assert!(got.lock().unwrap().is_empty());
        drop(liar);
    }

    #[test]
    fn a_socket_closed_inside_a_large_frame_delivers_none_of_it() {
        // A whole frame, then 5 000 bytes of a 16 000-byte one, then the
        // end of the stream: only the whole one is delivered, and nothing
        // torn reaches a decoder.
        let (l0, a0) = listen();
        let mut conn = TcpStream::connect(a0).unwrap();
        conn.write_all(&frame_of(NodeId(1), &Num(7))).unwrap();
        let mut torn = Vec::new();
        encode_frame(NodeId(1), &raw(9, 16_000), &mut torn);
        conn.write_all(&torn[..5_000]).unwrap();
        drop(conn);
        let got = Got::default();
        let node: Vec<Boxed> = vec![Box::new(Recorder(got.clone()))];
        let wall = Duration::from_millis(100);
        let done = run_tcp_loop(node, vec![l0], &[a0], wall);
        assert_eq!(*got.lock().unwrap(), vec![(NodeId(1), 7)]);
        assert_eq!(done.links.net.decode_errors, 0);
        assert!(open_socks(&done.links).is_empty(), "the socket went");
    }
}
