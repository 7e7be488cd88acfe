//! # netsub — TCP socket execution for simnet actors
//!
//! The third execution substrate: the same unmodified [`simnet::Actor`]
//! protocol code, but with real sockets between nodes. Each node gets
//! its own thread (reusing the crate's event loop: wall-clock timers,
//! per-node seeded RNG), a TCP listener, and lazily established
//! outbound connections to every peer it talks to. Messages cross node
//! boundaries as encoded [`Wire`] frames — the exact bytes
//! `Message::wire_size()` charges on the simulator — so a protocol
//! exercised here has a complete, decodable wire schema, not an
//! estimate.
//!
//! ## Transport
//!
//! Threads per node: one actor thread, one acceptor, and one reader per
//! inbound connection. There are no writer threads.
//!
//! - **Send side, on the actor thread.** The node owns one outbound
//!   `TcpStream` and one output buffer per peer. A send encodes its
//!   frame onto the end of that buffer; the event loop flushes every
//!   buffer with one `write` per peer when its inbox runs empty, before
//!   it blocks — so the syscalls are paid per wake-up, not per message.
//!   A buffer is also flushed once it holds `FLUSH_BYTES`, and the
//!   loop flushes at least every `FLUSH_EVERY` handler runs, which
//!   bounds how long a node that is never idle can hold a frame.
//! - **The actor thread never sleeps.** A peer that cannot be connected
//!   to goes into back-off (10 ms doubling to 500 ms) as a *deadline*:
//!   until it passes, frames for that peer are dropped and counted in
//!   `frames_dropped` — a loss the protocols' retry/learn machinery
//!   repairs — and timers and other peers are not delayed.
//! - **The stream stays frame-aligned.** When a write fails part-way,
//!   the frames the kernel took whole are forgotten and the rest is
//!   written to a fresh connection from the start of the first frame not
//!   known fully written. The receiver discards the torn frame with the
//!   old connection, so it sees no frame twice and none in part.
//! - **Receive side.** The acceptor blocks in `accept` and spawns a
//!   reader per inbound connection; a reader blocks in `read` until EOF.
//!   Nothing polls: teardown joins the actor threads, which closes every
//!   outbound stream and so ends every reader, and wakes each acceptor
//!   with one throw-away connection.
//! - **No deadlock.** A blocking `write` on an actor thread waits for the
//!   peer's *reader*, never for the peer's actor: readers push into an
//!   unbounded inbox and go straight back to `read`, whatever the actor
//!   is doing (including blocking in a `write` of its own). The price is
//!   that an overrun node queues in memory instead of pushing back.
//! - Frames are `[payload len: u32 LE][sender node id: u32 LE]` +
//!   payload (see [`simnet::wire`] for the payload format). Self-sends
//!   go through the node's inbox without touching a socket.
//! - A reader reads straight into its reassembly buffer, freezes it
//!   into a refcounted [`Bytes`] once it holds complete frames, and
//!   decodes every payload as a slice of that one allocation. Large
//!   values stay windows into it, zero-copy from socket to state
//!   machine; small ones the decoder copies out
//!   ([`simnet::wire::VALUE_PIN_RATIO`]), or an 8-byte value kept in a
//!   store would hold a whole receive buffer resident. The buffer is
//!   reused for the next read once no decoded message borrows it.
//!
//! Unlike the simulator this substrate is *not* deterministic — it
//! measures real sockets, real syscalls, and real thread scheduling.
//! Per-node sent/received counters and per-label delivery counts come
//! back in [`NetRunStats`] so runs remain comparable with simulator
//! metrics.

use crate::{node_loop, Inbound, Outbound, RuntimeStats};
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use simnet::{Actor, Bytes, Message, NodeId, Wire};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
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
/// Reader-side granularity: initial receive-buffer size and the step a
/// buffer grows by when a frame straddles its end.
const READ_CHUNK: usize = 64 * 1024;
/// A peer's output buffer is written out as soon as it holds this much,
/// without waiting for the event loop's flush.
const FLUSH_BYTES: usize = READ_CHUNK;

/// A full-length receive buffer of at least `min_len` bytes. Receive
/// buffers keep `len == capacity` (zero-filled once) so
/// `TcpStream::read` can write directly into `buf[filled..]` with no
/// staging chunk; the valid prefix is tracked separately by the reader.
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

#[derive(Default)]
struct NetMetrics {
    sent: Vec<AtomicU64>,
    received: Vec<AtomicU64>,
    labels: Mutex<BTreeMap<&'static str, u64>>,
    bytes_sent: AtomicU64,
    reconnects: AtomicU64,
    decode_errors: AtomicU64,
    frames_dropped: AtomicU64,
}

impl NetMetrics {
    fn new(n: usize) -> Self {
        NetMetrics {
            sent: (0..n).map(|_| AtomicU64::new(0)).collect(),
            received: (0..n).map(|_| AtomicU64::new(0)).collect(),
            ..NetMetrics::default()
        }
    }
}

/// What one thread delivered to one node, counted without sharing and
/// merged into [`NetMetrics`] once, when the thread is done.
#[derive(Default)]
struct Deliveries {
    received: u64,
    labels: BTreeMap<&'static str, u64>,
}

impl Deliveries {
    fn note(&mut self, label: &'static str) {
        self.received += 1;
        *self.labels.entry(label).or_insert(0) += 1;
    }

    fn merge_into(self, metrics: &NetMetrics, to: NodeId) {
        if let Some(c) = metrics.received.get(to.index()) {
            c.fetch_add(self.received, Ordering::Relaxed);
        }
        let mut labels = metrics.labels.lock();
        for (label, count) in self.labels {
            *labels.entry(label).or_insert(0) += count;
        }
    }
}

/// A thread-per-node, TCP-per-edge runtime for [`simnet::Actor`]s whose
/// message type implements [`Wire`].
///
/// Mirrors [`crate::Runtime`]'s API: `new(seed)`, `add_actor`,
/// `run_for(wall)` — the substrate really is one orthogonal axis.
pub struct NetRuntime<M: Message + Wire + Send + 'static> {
    seed: u64,
    actors: Vec<Option<Box<dyn Actor<M> + Send>>>,
}

impl<M: Message + Wire + Send + 'static> NetRuntime<M> {
    /// New runtime; actors added next get node ids 0, 1, …
    pub fn new(seed: u64) -> Self {
        NetRuntime {
            seed,
            actors: Vec::new(),
        }
    }

    /// Register the next actor; returns its node id.
    pub fn add_actor(&mut self, actor: impl Actor<M> + Send + 'static) -> NodeId {
        let id = NodeId::from(self.actors.len());
        self.actors.push(Some(Box::new(actor)));
        id
    }

    /// Number of registered actors.
    pub fn len(&self) -> usize {
        self.actors.len()
    }

    /// True when no actor has been added yet.
    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    /// Run every actor on its own thread for `wall`, with TCP loopback
    /// sockets between nodes, then tear everything down and return the
    /// run's counters.
    pub fn run_for(&mut self, wall: Duration) -> NetRunStats {
        let n = self.actors.len();
        let metrics = Arc::new(NetMetrics::new(n));
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(Mutex::new(RuntimeStats::default()));

        // Listeners are all bound before any actor starts, so no node
        // races its peers' listeners.
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback listener"))
            .collect();
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr().expect("listener addr"))
            .collect();

        let epoch = Instant::now();
        let mut txs = Vec::with_capacity(n);
        let mut acceptors = Vec::with_capacity(n);
        let mut nodes = Vec::with_capacity(n);
        for (i, listener) in listeners.into_iter().enumerate() {
            let node = NodeId::from(i);
            let (tx, rx) = unbounded();
            acceptors.push(spawn_acceptor(
                node,
                listener,
                tx.clone(),
                metrics.clone(),
                stop.clone(),
            ));
            let actor = self.actors[i].take().expect("actor already running");
            let seed = simnet::derive_node_seed(self.seed, i);
            let stats = stats.clone();
            let mut sender = NetSender::new(node, &addrs, tx.clone(), metrics.clone());
            nodes.push(std::thread::spawn(move || {
                node_loop(node, actor, rx, &mut sender, stats, epoch, seed);
                sender.finish();
            }));
            txs.push(tx);
        }

        std::thread::sleep(wall);
        for tx in &txs {
            let _ = tx.send(Inbound::Stop);
        }
        // Joining the actor threads drops every outbound stream, which
        // is the EOF each reader is blocked waiting for.
        for h in nodes {
            let _ = h.join();
        }
        // An acceptor blocked in `accept` sees `stop` on its next wake-up.
        stop.store(true, Ordering::SeqCst);
        for addr in &addrs {
            let _ = TcpStream::connect(addr);
        }
        for h in acceptors {
            for reader in h.join().unwrap_or_default() {
                let _ = reader.join();
            }
        }

        let rt = stats.lock().clone();
        let delivered_by_label = metrics.labels.lock().clone();
        let load_all = |counters: &[AtomicU64]| -> Vec<u64> {
            counters.iter().map(|c| c.load(Ordering::Relaxed)).collect()
        };
        NetRunStats {
            msgs_delivered: rt.msgs_delivered,
            timers_fired: rt.timers_fired,
            per_node_sent: load_all(&metrics.sent),
            per_node_received: load_all(&metrics.received),
            delivered_by_label,
            bytes_sent: metrics.bytes_sent.load(Ordering::Relaxed),
            reconnects: metrics.reconnects.load(Ordering::Relaxed),
            decode_errors: metrics.decode_errors.load(Ordering::Relaxed),
            frames_dropped: metrics.frames_dropped.load(Ordering::Relaxed),
        }
    }
}

/// One outbound edge: the stream to a peer and the frames waiting to be
/// written to it.
struct Peer {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    connected_before: bool,
    /// Encoded frames not yet handed to the socket, back to back.
    out: Vec<u8>,
    /// Delay the next failed connect imposes.
    backoff: Duration,
    /// While this lies in the future the peer counts as unreachable.
    retry_at: Option<Instant>,
}

impl Peer {
    /// Hand `out` to the socket: over the connection in hand and, if
    /// that turns out dead, once more over a fresh one. A peer that
    /// cannot be connected to loses these frames and goes into back-off.
    /// Never sleeps; blocks only while the peer's reader is behind.
    fn flush(&mut self, metrics: &NetMetrics) {
        if self.out.is_empty() {
            return;
        }
        for _ in 0..2 {
            if self.stream.is_none() {
                let Ok(stream) = TcpStream::connect(self.addr) else {
                    break;
                };
                let _ = stream.set_nodelay(true);
                if self.connected_before {
                    metrics.reconnects.fetch_add(1, Ordering::Relaxed);
                }
                self.connected_before = true;
                self.backoff = INITIAL_BACKOFF;
                self.stream = Some(stream);
            }
            let stream = self.stream.as_mut().expect("connected above");
            let written = write_some(stream, &self.out);
            // Only whole frames count as sent; a torn one is sent again
            // from its first byte.
            let (bytes, frames) = whole_frames(&self.out, written);
            let payload = bytes as u64 - FRAME_PREFIX as u64 * frames;
            metrics.bytes_sent.fetch_add(payload, Ordering::Relaxed);
            self.out.drain(..bytes);
            if self.out.is_empty() {
                return;
            }
            self.stream = None;
        }
        let (_, lost) = whole_frames(&self.out, self.out.len());
        metrics.frames_dropped.fetch_add(lost, Ordering::Relaxed);
        self.out.clear();
        self.retry_at = Some(Instant::now() + self.backoff);
        self.backoff = (self.backoff * 2).min(MAX_BACKOFF);
    }
}

/// Write as much of `buf` as the stream takes; returns the byte count,
/// short of `buf.len()` exactly when the connection failed.
fn write_some(stream: &mut TcpStream, buf: &[u8]) -> usize {
    let mut written = 0;
    while written < buf.len() {
        match stream.write(&buf[written..]) {
            Ok(0) => break,
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    written
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

/// Per-node outbound side, owned by the node's actor thread: one
/// [`Peer`] per node id (its own entry stays unused).
struct NetSender<M> {
    node: NodeId,
    self_tx: Sender<Inbound<M>>,
    peers: Vec<Peer>,
    metrics: Arc<NetMetrics>,
    sent: u64,
    /// Self-sends, which no reader thread sees.
    looped: Deliveries,
}

impl<M: Message + Wire + Send + 'static> NetSender<M> {
    fn new(
        node: NodeId,
        addrs: &[SocketAddr],
        self_tx: Sender<Inbound<M>>,
        metrics: Arc<NetMetrics>,
    ) -> Self {
        let peers = addrs
            .iter()
            .map(|&addr| Peer {
                addr,
                stream: None,
                connected_before: false,
                out: Vec::new(),
                backoff: INITIAL_BACKOFF,
                retry_at: None,
            })
            .collect();
        NetSender {
            node,
            self_tx,
            peers,
            metrics,
            sent: 0,
            looped: Deliveries::default(),
        }
    }

    /// Publish this node's counters; called once, after its loop ended.
    fn finish(self) {
        if let Some(c) = self.metrics.sent.get(self.node.index()) {
            c.fetch_add(self.sent, Ordering::Relaxed);
        }
        self.looped.merge_into(&self.metrics, self.node);
    }
}

impl<M: Message + Wire + Send + 'static> Outbound<M> for NetSender<M> {
    fn send(&mut self, to: NodeId, msg: M) {
        self.sent += 1;
        if to == self.node {
            // Loopback within the node: no socket, like the other
            // substrates, but still a counted delivery.
            self.looped.note(msg.label());
            let _ = self.self_tx.send(Inbound::Deliver {
                from: self.node,
                msg,
            });
            return;
        }
        let Some(peer) = self.peers.get_mut(to.index()) else {
            return; // unknown destination: drop, as the simulator does
        };
        if let Some(at) = peer.retry_at {
            if Instant::now() < at {
                self.metrics.frames_dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            peer.retry_at = None;
        }
        encode_frame(self.node, &msg, &mut peer.out);
        if peer.out.len() >= FLUSH_BYTES {
            peer.flush(&self.metrics);
        }
    }

    fn flush(&mut self) {
        for peer in &mut self.peers {
            peer.flush(&self.metrics);
        }
    }
}

/// Listener thread for one node: blocks in `accept` and hands each
/// inbound connection to a reader thread of its own. Returns the
/// readers it started, for teardown to join.
fn spawn_acceptor<M: Message + Wire + Send + 'static>(
    node: NodeId,
    listener: TcpListener,
    tx: Sender<Inbound<M>>,
    metrics: Arc<NetMetrics>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<Vec<JoinHandle<()>>> {
    std::thread::spawn(move || {
        let mut readers = Vec::new();
        while let Ok((conn, _)) = listener.accept() {
            if stop.load(Ordering::SeqCst) {
                break; // the connection that woke us carries nothing
            }
            let (tx, metrics) = (tx.clone(), metrics.clone());
            readers.push(std::thread::spawn(move || {
                reader_loop(node, conn, tx, &metrics)
            }));
        }
        readers
    })
}

/// Reader thread for one inbound connection: reads straight into its
/// reassembly buffer (a short read never loses data — bytes accumulate
/// until a frame completes), then freezes and decodes complete frames
/// via [`drain_frames`]. Ends when the peer closes the connection.
fn reader_loop<M: Message + Wire + Send>(
    node: NodeId,
    mut conn: TcpStream,
    tx: Sender<Inbound<M>>,
    metrics: &NetMetrics,
) {
    let mut seen = Deliveries::default();
    let mut buf = recv_buffer(READ_CHUNK);
    let mut filled = 0usize;
    loop {
        if filled == buf.len() {
            // A frame straddles the buffer end: grow in place.
            buf.resize(filled + READ_CHUNK, 0);
        }
        match conn.read(&mut buf[filled..]) {
            Ok(0) => break, // peer closed
            Ok(n) => {
                filled += n;
                drain_frames(&mut buf, &mut filled, &tx, metrics, &mut seen);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    seen.merge_into(metrics, node);
}

/// Scan-and-freeze frame delivery. Finds every complete frame in
/// `buf[..filled]`, freezes the buffer into one refcounted [`Bytes`]
/// (an `Arc` around the existing allocation — no byte is copied), and
/// decodes each payload as a slice of it. A partial frame at the tail
/// is carried over; the allocation itself comes back for the next read
/// if no decoded message still borrows it (vote traffic and small
/// values never do; a large decoded value keeps it until the value is
/// dropped, and a fresh buffer takes over meanwhile).
fn drain_frames<M: Message + Wire + Send>(
    buf: &mut Vec<u8>,
    filled: &mut usize,
    tx: &Sender<Inbound<M>>,
    metrics: &NetMetrics,
    seen: &mut Deliveries,
) {
    // Pass 1: walk the length prefixes to find the end of the last
    // complete frame. No payload is touched. A length past MAX_FRAME is
    // unrecoverable framing corruption: count it, deliver what preceded
    // it, and drop the poisoned bytes.
    let (consumed, _) = whole_frames(buf, *filled);
    let corrupt = *filled - consumed >= FRAME_PREFIX && frame_len(&buf[consumed..]) > MAX_FRAME;
    if corrupt {
        metrics.decode_errors.fetch_add(1, Ordering::Relaxed);
    }
    if consumed == 0 {
        if corrupt {
            *filled = 0;
        }
        return;
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
            Ok(msg) => {
                seen.note(msg.label());
                let _ = tx.send(Inbound::Deliver { from, msg });
            }
            Err(_) => {
                metrics.decode_errors.fetch_add(1, Ordering::Relaxed);
            }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::Receiver;
    use simnet::{Context, SimDuration, TimerId, WireError, WireHeader, WireReader};

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
        assert_eq!(rt.len(), 2);
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
        // Labels are counted at decode time; frames still queued in the
        // inbound channel at shutdown are decoded but never delivered,
        // so the label count can only exceed deliveries.
        let num = stats.delivered_by_label.get("num").copied().unwrap_or(0);
        assert!(
            num >= stats.msgs_delivered,
            "label count {num} < deliveries {}",
            stats.msgs_delivered
        );
        // 32 bytes per message, every one over a real socket.
        assert!(stats.bytes_sent >= 32 * stats.msgs_delivered);
        assert_eq!(stats.bytes_sent % 32, 0);
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
        assert_eq!(payload_len, frame.len() - FRAME_PREFIX);
        assert_eq!(sender, 7);
        assert_eq!(&frame[FRAME_PREFIX..], &msg.encode()[..]);
    }

    /// Everything `drain_frames` delivers when `stream` reaches it in
    /// the two pieces either side of `cut`, and the decode errors.
    fn drain_all(stream: &[u8], cut: usize) -> (Vec<(NodeId, u64)>, u64) {
        let (tx, rx) = unbounded::<Inbound<Num>>();
        let metrics = NetMetrics::new(2);
        let mut seen = Deliveries::default();
        let mut buf = recv_buffer(stream.len());
        let mut filled = 0;
        for part in [&stream[..cut], &stream[cut..]] {
            buf[filled..filled + part.len()].copy_from_slice(part);
            filled += part.len();
            drain_frames(&mut buf, &mut filled, &tx, &metrics, &mut seen);
        }
        assert_eq!(filled, 0, "no partial frame left at stream end");
        let got: Vec<_> = delivered(&rx).collect();
        assert_eq!(seen.received, got.len() as u64);
        (got, metrics.decode_errors.load(Ordering::Relaxed))
    }

    /// The `(sender, number)` of every delivery waiting in `rx`.
    fn delivered(rx: &Receiver<Inbound<Num>>) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        std::iter::from_fn(|| match rx.try_recv().ok()? {
            Inbound::Deliver { from, msg } => Some((from, msg.0)),
            Inbound::Stop => panic!("unexpected stop"),
        })
    }

    #[test]
    fn drain_reassembles_frames_split_at_any_point() {
        // One peer's output buffer after a wake-up that produced three
        // frames; wherever TCP splits it, they arrive whole and in order.
        let msgs = [7u64, 8, 9];
        let mut stream = Vec::new();
        for &m in &msgs {
            encode_frame(NodeId(1), &Num(m), &mut stream);
        }
        let want: Vec<(NodeId, u64)> = msgs.iter().map(|&m| (NodeId(1), m)).collect();
        for cut in 0..=stream.len() {
            let (got, errors) = drain_all(&stream, cut);
            assert_eq!(got, want, "split at byte {cut}");
            assert_eq!(errors, 0);
        }
    }

    #[test]
    fn oversized_length_prefix_counts_error_and_resets() {
        let (tx, _rx) = unbounded::<Inbound<Num>>();
        let metrics = NetMetrics::new(1);
        let mut buf = recv_buffer(READ_CHUNK);
        buf[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        buf[4..8].copy_from_slice(&1u32.to_le_bytes());
        let mut filled = FRAME_PREFIX;
        let mut seen = Deliveries::default();
        drain_frames::<Num>(&mut buf, &mut filled, &tx, &metrics, &mut seen);
        assert_eq!(filled, 0, "poisoned bytes dropped");
        assert_eq!(metrics.decode_errors.load(Ordering::Relaxed), 1);
    }

    /// A sender for node 0 whose only peer, node 1, is at `peer`.
    fn sender_to(peer: SocketAddr) -> (NetSender<Num>, Receiver<Inbound<Num>>, Arc<NetMetrics>) {
        let (tx, rx) = unbounded();
        let metrics = Arc::new(NetMetrics::new(2));
        let sender = NetSender::new(NodeId(0), &[peer, peer], tx, metrics.clone());
        (sender, rx, metrics)
    }

    /// Read `conn` to its end through `drain_frames`, as a reader thread
    /// does; returns the numbers received and the decode errors.
    fn read_to_end(conn: TcpStream) -> (Vec<u64>, u64) {
        let (tx, rx) = unbounded::<Inbound<Num>>();
        let metrics = NetMetrics::new(2);
        reader_loop(NodeId(1), conn, tx, &metrics);
        let got = delivered(&rx).map(|(_, n)| n).collect();
        (got, metrics.decode_errors.load(Ordering::Relaxed))
    }

    #[test]
    fn a_peer_that_hangs_up_costs_only_frames_in_flight() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (mut sender, _rx, metrics) = sender_to(listener.local_addr().unwrap());
        // The peer takes the first connection, reads one frame, hangs up.
        sender.send(NodeId(1), Num(0));
        sender.flush();
        let (mut first, _) = listener.accept().unwrap();
        let mut frame = [0u8; FRAME_PREFIX + 32];
        first.read_exact(&mut frame).unwrap();
        drop(first);
        // The sender finds out on some later write and reconnects; every
        // write is one frame, so frames are lost whole or not at all.
        const LAST: u64 = 400;
        for n in 1..=LAST {
            sender.send(NodeId(1), Num(n));
            sender.flush();
        }
        drop(sender);
        let (second, _) = listener.accept().unwrap();
        let (got, decode_errors) = read_to_end(second);
        assert_eq!(decode_errors, 0, "the new stream starts on a frame");
        assert!(metrics.reconnects.load(Ordering::Relaxed) >= 1);
        assert_eq!(metrics.frames_dropped.load(Ordering::Relaxed), 0);
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
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (mut sender, _rx, metrics) = sender_to(listener.local_addr().unwrap());
        sender.send(NodeId(1), Num(0));
        sender.flush();
        let stream = sender.peers[1].stream.as_ref().expect("connected");
        stream.shutdown(std::net::Shutdown::Both).unwrap();
        for n in 1..=3 {
            sender.send(NodeId(1), Num(n));
        }
        sender.flush();
        drop(sender);
        assert_eq!(read_to_end(listener.accept().unwrap().0), (vec![0], 0));
        assert_eq!(
            read_to_end(listener.accept().unwrap().0),
            (vec![1, 2, 3], 0)
        );
        assert_eq!(metrics.reconnects.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.frames_dropped.load(Ordering::Relaxed), 0);
        assert_eq!(metrics.bytes_sent.load(Ordering::Relaxed), 4 * 32);
    }

    #[test]
    fn a_full_buffer_is_written_without_waiting_for_the_loop() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (mut sender, _rx, _metrics) = sender_to(listener.local_addr().unwrap());
        let reader = std::thread::spawn(move || read_to_end(listener.accept().unwrap().0));
        // One frame more than the buffer may hold, and no flush.
        let frames = (FLUSH_BYTES / (FRAME_PREFIX + 32) + 1) as u64;
        for n in 0..frames {
            sender.send(NodeId(1), Num(n));
        }
        let held = (sender.peers[1].out.len() / (FRAME_PREFIX + 32)) as u64;
        assert!(
            held <= 1,
            "{held} frames still held after the buffer filled"
        );
        drop(sender);
        let (got, _) = reader.join().unwrap();
        assert_eq!(got, (0..frames - held).collect::<Vec<_>>());
    }

    /// Run `actor` as node 0 over `sender` on a thread of its own.
    fn spawn_node(
        actor: impl Actor<Num> + Send + 'static,
        mut sender: NetSender<Num>,
        rx: Receiver<Inbound<Num>>,
    ) -> JoinHandle<()> {
        std::thread::spawn(move || {
            let stats = Arc::new(Mutex::new(RuntimeStats::default()));
            let actor = Box::new(actor);
            node_loop(NodeId(0), actor, rx, &mut sender, stats, Instant::now(), 1);
        })
    }

    /// Every millisecond, sends to its peer and records how long it had
    /// to wait for the tick.
    struct Ticker {
        last: Instant,
        gaps: Arc<Mutex<Vec<Duration>>>,
    }
    impl Actor<Num> for Ticker {
        fn on_start(&mut self, ctx: &mut Context<Num>) {
            self.last = Instant::now();
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_message(&mut self, _f: NodeId, _m: Num, _c: &mut Context<Num>) {}
        fn on_timer(&mut self, _i: TimerId, _k: u64, ctx: &mut Context<Num>) {
            self.gaps.lock().push(self.last.elapsed());
            self.last = Instant::now();
            ctx.send(NodeId(1), Num(0));
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }

    #[test]
    fn an_unreachable_peer_does_not_delay_timers() {
        // Nothing listens where the peer should be: connects are refused.
        let dead = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let (sender, rx, metrics) = sender_to(dead);
        let tx = sender.self_tx.clone();
        let gaps = Arc::new(Mutex::new(Vec::new()));
        let ticker = Ticker {
            last: Instant::now(),
            gaps: gaps.clone(),
        };
        let node = spawn_node(ticker, sender, rx);
        std::thread::sleep(Duration::from_millis(200));
        tx.send(Inbound::Stop).unwrap();
        node.join().unwrap();
        // Back-off slept through on this thread would let one tick by
        // per connect attempt, 10, 20, 40, 80 ms apart; as a deadline it
        // costs the timers nothing. (Nine ticks in ten, not all: the
        // host may stop the whole process for longer than that.)
        let mut gaps = gaps.lock().clone();
        gaps.sort_unstable();
        assert!(gaps.len() >= 40, "only {} ticks in 200 ms", gaps.len());
        let p90 = gaps[gaps.len() * 9 / 10];
        assert!(p90 < INITIAL_BACKOFF, "ticks waited {p90:?}");
        let dropped = metrics.frames_dropped.load(Ordering::Relaxed);
        assert_eq!(dropped, gaps.len() as u64, "every frame counted as dropped");
        assert_eq!(metrics.bytes_sent.load(Ordering::Relaxed), 0);
    }

    /// Keeps its own inbox non-empty for ever; its first handler run
    /// also sends one message to its peer.
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
                ctx.send(NodeId(1), Num(99));
            }
            self.runs += 1;
            let me = ctx.node();
            ctx.send(me, Num(self.runs));
        }
        fn on_timer(&mut self, _i: TimerId, _k: u64, _c: &mut Context<Num>) {}
    }

    #[test]
    fn a_node_that_is_never_idle_still_sends_within_the_flush_bound() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (sender, rx, _metrics) = sender_to(listener.local_addr().unwrap());
        let tx = sender.self_tx.clone();
        let node = spawn_node(Spinner { runs: 0 }, sender, rx);
        // The inbox never runs empty, so only the handler-count bound
        // can get the frame out; without it this read waits for ever.
        let (mut conn, _) = listener.accept().unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut frame = [0u8; FRAME_PREFIX + 32];
        conn.read_exact(&mut frame)
            .expect("the frame left although the inbox never emptied");
        assert_eq!(frame[..], frame_of(NodeId(0), &Num(99))[..]);
        tx.send(Inbound::Stop).unwrap();
        node.join().unwrap();
    }
}
