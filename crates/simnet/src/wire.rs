//! The stable binary wire schema shared by every execution substrate.
//!
//! The simulator charges CPU and classifies WAN traffic by
//! [`Message::wire_size`](crate::Message::wire_size); the socket
//! substrate ships [`Wire::encode`]. Both come from one definition per
//! type: [`Wire::put`], the encoder, written once and generic over the
//! [`WirePut`] sink it writes to. Encoding runs it into a `Vec<u8>`;
//! [`Wire::wire_len`] runs it into a [`WireLen`], which writes nothing
//! and counts. A message's size is its encoder, counted, so the bytes the
//! simulator charges for are the bytes a socket carries, and byte-level
//! experiments transfer between substrates unchanged.
//!
//! ## Framing format
//!
//! A transport frame is a length-prefixed packet:
//!
//! ```text
//! +----------------+----------------+------------------------------+
//! | len: u32 LE    | from: u32 LE   | payload: `len` bytes         |
//! +----------------+----------------+------------------------------+
//! ```
//!
//! `len` counts only the payload; `from` is the sending node id (the
//! actor API surfaces a sender for every delivery). The 8 framing bytes
//! are transport overhead and are **not** part of `wire_size()` —
//! exactly like TCP/IP headers are not part of an application payload.
//!
//! The payload itself always begins with a fixed message header of
//! [`WIRE_HEADER_BYTES`] bytes, followed by a message-specific body:
//!
//! ```text
//! byte 0        version        (currently 1)
//! byte 1        domain         0 = client, 1 = paxos, 2 = pigpaxos, 3 = epaxos
//! byte 2        kind           variant tag within the domain
//! byte 3        flags          per-variant (operation tag, presence bits)
//! bytes 4..8    aux0: u32 LE   per-variant (usually a collection count)
//! bytes 8..16   aux1: u64 LE   per-variant scratch (zero when unused)
//! bytes 16..24  aux2: u64 LE   per-variant scratch (zero when unused)
//! ```
//!
//! All integers are little-endian. Variable-length fields either carry
//! an explicit length, or — for the single *trailing* payload of a
//! message (a command's value) — consume the rest of the frame, which
//! the length prefix makes unambiguous.
//!
//! ## Packing conventions
//!
//! Every simulated baseline was recorded with today's sizes
//! (`tests/wire_sizes.rs` pins one of each message variant), so nested
//! entries pack their metadata tightly:
//!
//! * **48-bit slots** — log slot numbers inside repeated entries
//!   (quorum-read freshness slots, learn/snapshot tail entries, recovery
//!   `accepted` entries) encode as `u48`. 2⁴⁸ slots is ~89 years of
//!   traffic at 100k ops/s; encoding asserts the bound.
//! * **16-bit value lengths** — values inside repeated entries carry a
//!   `u16` (or 14-bit, packed with a 2-bit operation tag) length.
//!   Benchmark payloads top out at a few KB; encoding asserts the bound.
//! * **15-bit slot deltas** — phase-2b votes encode their slot relative
//!   to the message's base slot, packed with the `ok` bit.
//!
//! Single trailing values (the command in `P2a`, a reply's read result)
//! have **no** length cap: they take the rest of the frame.
//!
//! ## Determinism
//!
//! Encoding is a pure function of the value: the same message always
//! produces the same bytes (map-backed structures are serialized in
//! sorted order).

use std::fmt;

pub use bytes::Bytes;

/// Byte length of the fixed message header every encoded payload starts
/// with.
pub const WIRE_HEADER_BYTES: usize = 24;

/// Current schema version, byte 0 of every header.
pub const WIRE_VERSION: u8 = 1;

/// Domain tag for client traffic (requests, replies, reply batches).
pub const DOMAIN_CLIENT: u8 = 0;
/// Domain tag for Multi-Paxos protocol messages.
pub const DOMAIN_PAXOS: u8 = 1;
/// Domain tag for PigPaxos relay-overlay messages.
pub const DOMAIN_PIG: u8 = 2;
/// Domain tag for EPaxos protocol messages.
pub const DOMAIN_EPAXOS: u8 = 3;

/// A decoded value stays a window into its frame's allocation only while
/// that allocation is at most this many times the value's own length;
/// past it the value is copied out. A window keeps the *whole* allocation
/// resident, so without the bound one 8-byte value in a store pins the
/// 64 KiB receive buffer it arrived in. On those buffers the bound
/// copies values under 1 KiB and leaves larger ones zero-copy.
pub const VALUE_PIN_RATIO: usize = 64;

/// A decoding failure. Encoding is infallible (size invariants are
/// asserted — they are internal protocol bounds, not user input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// An enum tag or header byte had no defined meaning.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending byte.
        got: u8,
    },
    /// The header's version byte is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// Bytes remained after the value was fully decoded.
    TrailingBytes {
        /// The message kind that was being decoded ([`Wire::KIND`]).
        what: &'static str,
        /// How many bytes were left over.
        extra: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "truncated while decoding {what}"),
            WireError::BadTag { what, got } => write!(f, "bad tag {got:#x} for {what}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::TrailingBytes { what, extra } => {
                write!(f, "{extra} trailing bytes after decoding {what}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A type with a stable binary encoding.
///
/// Protocol message enums, the client envelope, and every nested value
/// they carry implement this. The contract:
///
/// 1. `decode(&mut WireReader::new(&x.encode().into())) == Ok(x)` —
///    lossless roundtrip;
/// 2. for [`Message`](crate::Message) types, `x.wire_size()` is
///    `x.wire_len()`: the size is the encoder, counted, so the
///    simulator's byte accounting *is* the socket substrate's;
/// 3. encoding is deterministic (no map-iteration-order dependence).
///
/// Implement [`Wire::put`]; encoding and sizing both run it. A type that
/// can only write into a `Vec` may implement [`Wire::encode_into`]
/// instead, and is then sized by encoding into a scratch buffer. Each
/// default calls the other, so a type must implement one of the two.
pub trait Wire: Sized {
    /// Human-readable name of this message kind, carried into
    /// diagnostics ([`WireError::TrailingBytes`] names the kind that
    /// left bytes behind). Override per type; the default is only for
    /// small nested values that never head a frame.
    const KIND: &'static str = "value";

    /// Write this value's encoding to `out`: the one definition of its
    /// bytes. Nested values go through [`WirePut::put_wire`].
    fn put<W: WirePut>(&self, out: &mut W) {
        let mut bytes = Vec::new();
        self.encode_into(&mut bytes);
        out.put_slice(&bytes);
    }

    /// Append this value's encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.put(out);
    }

    /// The length of this value's encoding, counted by running
    /// [`Wire::put`] into a [`WireLen`]. A type that knows its length
    /// without walking its contents may answer directly.
    fn wire_len(&self) -> usize {
        WireLen::of(|len| self.put(len))
    }

    /// Decode one value, consuming exactly its bytes from the reader.
    /// Trailing-payload fields consume the reader's remaining bytes, so
    /// a value must be the last thing in its enclosing frame slice.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Encode into a fresh buffer of exactly [`Wire::wire_len`] bytes.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut out);
        out
    }

    /// Decode a complete frame payload, rejecting leftover bytes.
    ///
    /// Takes the frame as [`Bytes`] so large variable-length values
    /// inside it (command payloads, read results) decode as zero-copy
    /// slices of the frame buffer instead of fresh allocations — the
    /// received buffer is shared, refcounted, all the way into the state
    /// machine. Values too small to justify keeping that buffer alive
    /// are copied out ([`VALUE_PIN_RATIO`]).
    fn decode_frame(frame: &Bytes) -> Result<Self, WireError> {
        let mut r = WireReader::new(frame);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                what: Self::KIND,
                extra: r.remaining(),
            });
        }
        Ok(v)
    }
}

/// Cursor over an encoded frame payload.
///
/// Backed by a [`Bytes`] frame so value-sized reads can be taken as
/// zero-copy slices where that is worth it ([`WireReader::read_value`])
/// while fixed-width primitive reads stay plain borrowed slices.
#[derive(Debug)]
pub struct WireReader<'a> {
    frame: &'a Bytes,
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Reader over a full frame payload.
    pub fn new(frame: &'a Bytes) -> Self {
        WireReader { frame, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.frame.len() - self.pos
    }

    /// Capacity to preallocate for `count` wire entries of at least
    /// `min_bytes` each: the declared count, clamped by what the frame
    /// can still hold. Decoders size their containers from header
    /// counts in one shot on well-formed frames, but a corrupted count
    /// must surface as a truncation error — not as a giant allocation
    /// before the first entry is even read.
    pub fn capacity_for(&self, count: usize, min_bytes: usize) -> usize {
        count.min(self.remaining() / min_bytes.max(1))
    }

    /// Look at the byte `offset` positions past the cursor without
    /// consuming (used to dispatch on the header's domain byte).
    pub fn peek(&self, offset: usize) -> Result<u8, WireError> {
        self.frame
            .as_slice()
            .get(self.pos + offset)
            .copied()
            .ok_or(WireError::Truncated { what: "peek" })
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { what });
        }
        let frame: &'a Bytes = self.frame;
        let s = &frame.as_slice()[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Consume one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Consume a little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Consume a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Consume a 48-bit little-endian unsigned integer (packed slot
    /// numbers — see the module docs).
    pub fn u48(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(6, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], 0, 0,
        ]))
    }

    /// Consume a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Consume exactly `n` raw bytes.
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        self.take(n, what)
    }

    /// The frame's bytes `start..end` as a value that owns what it keeps
    /// alive: a zero-copy slice of the frame buffer (refcount bump) when
    /// the buffer is within [`VALUE_PIN_RATIO`] of the value's length, a
    /// copy of its own otherwise, and nothing at all when empty.
    fn value(&self, start: usize, end: usize) -> Bytes {
        let len = end - start;
        if len == 0 {
            Bytes::new()
        } else if self.frame.backing_capacity() > len.saturating_mul(VALUE_PIN_RATIO) {
            Bytes::copy_from_slice(&self.frame.as_slice()[start..end])
        } else {
            self.frame.slice(start..end)
        }
    }

    /// Consume exactly `n` bytes as an owned value — shared with the
    /// frame buffer or copied out of it, see [`VALUE_PIN_RATIO`].
    pub fn read_value(&mut self, n: usize, what: &'static str) -> Result<Bytes, WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { what });
        }
        let b = self.value(self.pos, self.pos + n);
        self.pos += n;
        Ok(b)
    }

    /// Consume every remaining byte (the trailing payload of a frame).
    pub fn rest(&mut self) -> &'a [u8] {
        let frame: &'a Bytes = self.frame;
        let s = &frame.as_slice()[self.pos..];
        self.pos = frame.len();
        s
    }

    /// Consume every remaining byte as an owned value — the
    /// trailing-value counterpart of [`WireReader::read_value`].
    pub fn rest_value(&mut self) -> Bytes {
        let b = self.value(self.pos, self.frame.len());
        self.pos = self.frame.len();
        b
    }
}

/// Where an encoder writes: a `Vec<u8>` collects the bytes, a
/// [`WireLen`] counts them. Integers are little-endian.
pub trait WirePut {
    /// Append one byte.
    fn put_u8(&mut self, v: u8);
    /// Append a `u16`.
    fn put_u16(&mut self, v: u16);
    /// Append a `u32`.
    fn put_u32(&mut self, v: u32);
    /// Append a 48-bit value; asserts `v < 2^48`.
    fn put_u48(&mut self, v: u64);
    /// Append a `u64`.
    fn put_u64(&mut self, v: u64);
    /// Append raw bytes.
    fn put_slice(&mut self, bytes: &[u8]);
    /// Append a nested value's encoding. A [`WireLen`] adds the value's
    /// [`Wire::wire_len`] instead, so a type that answers it directly
    /// is not walked.
    fn put_wire<T: Wire>(&mut self, value: &T)
    where
        Self: Sized,
    {
        value.put(self);
    }
}

impl WirePut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u48(&mut self, v: u64) {
        assert!(v < (1u64 << 48), "value {v} overflows the u48 wire field");
        self.extend_from_slice(&v.to_le_bytes()[..6]);
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A [`WirePut`] sink that writes nothing and counts the bytes: how
/// [`Wire::wire_len`] measures an encoding without making it. Counting
/// never allocates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireLen(usize);

impl WireLen {
    /// The number of bytes `body` puts.
    pub fn of(body: impl FnOnce(&mut WireLen)) -> usize {
        let mut len = WireLen(0);
        body(&mut len);
        len.0
    }
}

impl WirePut for WireLen {
    fn put_u8(&mut self, _: u8) {
        self.0 += 1;
    }
    fn put_u16(&mut self, _: u16) {
        self.0 += 2;
    }
    fn put_u32(&mut self, _: u32) {
        self.0 += 4;
    }
    fn put_u48(&mut self, _: u64) {
        self.0 += 6;
    }
    fn put_u64(&mut self, _: u64) {
        self.0 += 8;
    }
    fn put_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
    fn put_wire<T: Wire>(&mut self, value: &T) {
        self.0 += value.wire_len();
    }
}

/// The fixed header starting every encoded message payload
/// ([`WIRE_HEADER_BYTES`] long).
///
/// `aux0`/`aux1`/`aux2` are per-variant scratch (collection counts,
/// small fixed fields); unused fields encode as zero so identical
/// messages always produce identical bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireHeader {
    /// Domain tag (`DOMAIN_*`).
    pub domain: u8,
    /// Variant tag within the domain.
    pub kind: u8,
    /// Per-variant flag byte (operation tags, presence bits).
    pub flags: u8,
    /// Per-variant 32-bit scratch (usually a collection count).
    pub aux0: u32,
    /// Per-variant 64-bit scratch.
    pub aux1: u64,
    /// Per-variant 64-bit scratch.
    pub aux2: u64,
}

impl WireHeader {
    /// Header with a domain and kind; flags/aux zero.
    pub fn new(domain: u8, kind: u8) -> Self {
        WireHeader {
            domain,
            kind,
            ..WireHeader::default()
        }
    }

    /// Set the flag byte.
    pub fn flags(mut self, flags: u8) -> Self {
        self.flags = flags;
        self
    }

    /// Set aux0 (collection counts).
    pub fn aux0(mut self, v: u32) -> Self {
        self.aux0 = v;
        self
    }
}

impl Wire for WireHeader {
    const KIND: &'static str = "WireHeader";

    fn put<W: WirePut>(&self, out: &mut W) {
        out.put_u8(WIRE_VERSION);
        out.put_u8(self.domain);
        out.put_u8(self.kind);
        out.put_u8(self.flags);
        out.put_u32(self.aux0);
        out.put_u64(self.aux1);
        out.put_u64(self.aux2);
    }

    /// Consume and validate the header bytes.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let version = r.u8("header.version")?;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        Ok(WireHeader {
            domain: r.u8("header.domain")?,
            kind: r.u8("header.kind")?,
            flags: r.u8("header.flags")?,
            aux0: r.u32("header.aux0")?,
            aux1: r.u64("header.aux1")?,
            aux2: r.u64("header.aux2")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        fn put_all<W: WirePut>(out: &mut W) {
            out.put_u8(7);
            out.put_u16(0xABCD);
            out.put_u32(0xDEAD_BEEF);
            out.put_u48(0x0000_1234_5678_9ABC);
            out.put_u64(u64::MAX);
            out.put_slice(&[1, 2, 3]);
        }
        let mut out = Vec::new();
        put_all(&mut out);
        assert_eq!(out.len(), 1 + 2 + 4 + 6 + 8 + 3);
        assert_eq!(WireLen::of(put_all), out.len(), "counting agrees");
        let frame = Bytes::from(out);
        let mut r = WireReader::new(&frame);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 0xABCD);
        assert_eq!(r.u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u48("d").unwrap(), 0x0000_1234_5678_9ABC);
        assert_eq!(r.u64("e").unwrap(), u64::MAX);
        assert_eq!(r.rest(), &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "overflows the u48")]
    fn u48_overflow_asserts() {
        Vec::new().put_u48(1u64 << 48);
    }

    #[test]
    fn truncation_reported() {
        let frame = Bytes::from(vec![1, 2]);
        let mut r = WireReader::new(&frame);
        assert_eq!(r.u32("field"), Err(WireError::Truncated { what: "field" }));
    }

    #[test]
    fn header_is_24_bytes_and_roundtrips() {
        let h = WireHeader::new(DOMAIN_PAXOS, 3).flags(0b101).aux0(42);
        let mut out = Vec::new();
        h.encode_into(&mut out);
        assert_eq!(out.len(), WIRE_HEADER_BYTES);
        assert_eq!(h.wire_len(), WIRE_HEADER_BYTES);
        let frame = Bytes::from(out);
        let mut r = WireReader::new(&frame);
        assert_eq!(WireHeader::decode(&mut r).unwrap(), h);
    }

    #[test]
    fn header_version_checked() {
        let mut bytes = vec![0u8; 24];
        bytes[0] = 99;
        let frame = Bytes::from(bytes);
        let mut r = WireReader::new(&frame);
        assert_eq!(WireHeader::decode(&mut r), Err(WireError::BadVersion(99)));
    }

    #[test]
    fn peek_does_not_consume() {
        let frame = Bytes::from(vec![10, 20]);
        let mut r = WireReader::new(&frame);
        assert_eq!(r.peek(1).unwrap(), 20);
        assert_eq!(r.u8("x").unwrap(), 10);
        assert_eq!(r.peek(0).unwrap(), 20);
        assert_eq!(r.peek(1), Err(WireError::Truncated { what: "peek" }));
    }

    #[test]
    fn rest_takes_everything() {
        let frame = Bytes::from(vec![1, 2, 3]);
        let mut r = WireReader::new(&frame);
        r.u8("x").unwrap();
        assert_eq!(r.rest(), &[2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn read_value_is_a_zero_copy_slice_of_the_frame() {
        let frame = Bytes::from(vec![9, 1, 2, 3, 4, 5]);
        let mut r = WireReader::new(&frame);
        r.u8("tag").unwrap();
        let v = r.read_value(3, "v").unwrap();
        assert_eq!(&v[..], &[1, 2, 3]);
        let tail = r.rest_value();
        assert_eq!(&tail[..], &[4, 5]);
        assert_eq!(r.remaining(), 0);
        assert_eq!(
            r.read_value(1, "past-end"),
            Err(WireError::Truncated { what: "past-end" })
        );
        // The slices share the frame's backing allocation: the frame
        // cannot be reclaimed while they're alive.
        assert!(frame.clone().try_reclaim().is_err());
        drop((v, tail));
    }

    #[test]
    fn small_values_do_not_pin_a_large_frame_buffer() {
        // A receive buffer as the socket reader keeps it: 64 KiB, of
        // which one frame holds an 8-byte value, an empty one and a
        // 2 KiB one.
        let mut buf = vec![7u8; 8 + 2048];
        buf.resize(64 * 1024, 0);
        let frozen = Bytes::from(buf);
        let frame = frozen.slice(..8 + 2048);
        let mut r = WireReader::new(&frame);
        let small = r.read_value(8, "small").unwrap();
        let empty = r.read_value(0, "empty").unwrap();
        let large = r.rest_value();
        assert_eq!(&small[..], &[7; 8]);
        assert_eq!(
            small.backing_capacity(),
            8,
            "copied into its own allocation"
        );
        assert_eq!(empty.backing_capacity(), 0, "an empty value holds nothing");
        assert_eq!(large.len(), 2048);
        assert_eq!(
            large.backing_capacity(),
            64 * 1024,
            "large values stay slices"
        );
        // Only the large value stands between the buffer and its reuse.
        drop(frame);
        let frozen = frozen.try_reclaim().expect_err("the large value pins it");
        drop(large);
        assert!(
            frozen.try_reclaim().is_ok(),
            "small and empty values do not"
        );
        drop((small, empty));

        // An empty trailing value is empty too, whatever the frame.
        let frame = Bytes::from(vec![1u8; 16]);
        let mut r = WireReader::new(&frame);
        r.bytes(16, "all").unwrap();
        assert_eq!(r.rest_value().backing_capacity(), 0);
    }

    #[test]
    fn trailing_bytes_name_the_kind() {
        #[derive(Debug)]
        struct OneByte;
        impl Wire for OneByte {
            const KIND: &'static str = "OneByte";
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.put_u8(1);
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                r.u8("b")?;
                Ok(OneByte)
            }
        }
        // Written only into a `Vec`, it is still sized and nestable.
        assert_eq!(OneByte.wire_len(), 1);
        assert_eq!(OneByte.encode(), [1]);
        let frame = Bytes::from(vec![1, 2, 3]);
        let err = OneByte::decode_frame(&frame).unwrap_err();
        assert_eq!(
            err,
            WireError::TrailingBytes {
                what: "OneByte",
                extra: 2
            }
        );
        assert!(err.to_string().contains("OneByte"));
    }
}
