//! Length-prefixed, checksummed, sequence-numbered message frames — the
//! wire format of the sharded multi-process machine (`uts-shard`).
//!
//! The shard coordinator and its workers exchange three message families
//! (census reductions, donation transfers, whole-shard checkpoints) over
//! byte pipes. Pipes deliver bytes, not messages, and a dying worker can
//! truncate a frame mid-write, so every message travels inside a frame
//! that is *self-validating* the same way the snapshot container is:
//!
//! ```text
//! frame := tag:u8 | seq:u64 | len:u32 | payload[len] | sum(header, payload):u64
//! ```
//!
//! all little-endian, `seq` counting frames per direction from 0, `header`
//! the 13 bytes before the payload. The checksum covers tag, sequence
//! number and length as well as the payload, so a bit flip anywhere in the
//! frame is a [`WireError::ChecksumMismatch`]; a frame that arrives intact
//! but out of order (a reordering bug, or replay of a stale stream) fails
//! with [`WireError::OutOfOrder`] *after* integrity is established,
//! mirroring the snapshot container's validation order (structure →
//! checksum → semantics). Every corruption mode maps to a typed
//! [`WireError`] variant — never a panic, and never an unbounded read: the
//! length field is capped at [`MAX_PAYLOAD`], and a stream reader's buffer
//! grows with the payload bytes that actually arrive, so a corrupt length
//! cannot ask the receiver for gigabytes.
//!
//! # The sum
//!
//! Every byte on the pipe is summed twice (sender, receiver) and a burst
//! reply at P = 2²⁰ is megabytes, so the sum reads the frame a word at a
//! time on four independent lanes instead of a byte at a time on one. One
//! step absorbs a little-endian `u64` word `w` into a 64-bit state `s`:
//!
//! ```text
//! absorb(s, w) = x ^ (x >> 29)   where x = (s ^ w) · 0x9E3779B97F4A7C15  (mod 2⁶⁴)
//! ```
//!
//! The lanes start at four distinct constants. Lane 0 absorbs header bytes
//! 0–7, lane 1 header bytes 8–12 (zero-padded), lane 2 the payload length;
//! then word `k` of each whole 32-byte block of the payload goes to lane
//! `k`. The lanes fold into one state as `l0 ^ rotl(l1, 17) ^ rotl(l2, 31)
//! ^ rotl(l3, 47)`, which absorbs the remaining ≤ 31 bytes word by word,
//! the last word zero-padded. The result depends on nothing but the bytes:
//! no pointer width, no byte order of the host.
//!
//! **What it guarantees.** XOR with a constant, multiplication by an odd
//! constant and `x ^ (x >> 29)` are bijections of `u64`, so `absorb` is a
//! bijection of `s` for a fixed `w` and of `w` for a fixed `s`. Two frames
//! of one length that differ inside a single word (header word, lane word
//! or tail word — so in any single bit or byte) therefore leave that
//! word's lane, or the tail state, different; every later step is a
//! bijection of it, the fold XORs in the same three other lanes, and the
//! sums differ — always, not with probability 1 − 2⁻⁶⁴. Damage wider than
//! a word is caught the ordinary way, by a 64-bit sum. Each lane is
//! sequential in its own words and the lanes differ in start value and
//! fold rotation, so transposed words change the sum as well: lanes
//! started alike and folded by plain XOR would let two words of one block
//! trade places unseen (`tests/wire_robustness.rs` pins it). The shift is
//! not 32 because a flipped top bit passes the multiply alone and leaves
//! its lane differing in bits 63 and 63 − shift: at 32, two such flips on
//! lanes folded 32 bits apart would cancel.
//!
//! The payload itself is opaque to this layer; `uts-shard` encodes its
//! messages with the same `uts-tree` codec primitives the snapshot
//! payload uses.

use std::io::{Read, Write};

/// Bytes of frame overhead around a payload: tag (1) + seq (8) +
/// length (4) + checksum (8).
pub const FRAME_OVERHEAD: usize = 21;

/// Hard cap on a frame's payload length. Large enough for a whole-shard
/// stack section at P = 2²⁰ (the checkpoint family ships the biggest
/// payloads), small enough that a corrupt length field is rejected
/// before the receiver allocates for it.
pub const MAX_PAYLOAD: u32 = 1 << 30;

/// Why a frame failed to arrive. One variant per corruption mode, so the
/// shard protocol (and the wire robustness property suite) can tell a
/// half-written frame from a damaged one from a misordered one — the
/// same rejection-mode discipline as [`crate::CkptError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended before the declared frame did (peer died
    /// mid-write, or the buffer was cut short).
    Truncated,
    /// The frame's bytes fail the checksum: damaged in transit.
    ChecksumMismatch,
    /// The declared payload length exceeds [`MAX_PAYLOAD`] — a corrupt
    /// length field, rejected before allocation.
    TooLarge(u32),
    /// An intact frame carrying the wrong sequence number: the stream
    /// was reordered or spliced.
    OutOfOrder {
        /// The sequence number this end expected next.
        expected: u64,
        /// The sequence number the frame carried.
        found: u64,
    },
    /// An I/O error other than clean end-of-stream.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated (peer died mid-write?)"),
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch (corrupted)"),
            WireError::TooLarge(n) => {
                write!(f, "frame declares {n}-byte payload (cap {MAX_PAYLOAD})")
            }
            WireError::OutOfOrder { expected, found } => {
                write!(f, "frame out of order (expected seq {expected}, found {found})")
            }
            WireError::Io(kind) => write!(f, "frame I/O error: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => WireError::Truncated,
            kind => WireError::Io(kind),
        }
    }
}

/// One decoded frame, borrowing its payload from the input buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Message-family tag (opaque to the wire layer).
    pub tag: u8,
    /// Position of this frame in its direction's stream, from 0.
    pub seq: u64,
    /// The message bytes.
    pub payload: &'a [u8],
}

/// Bytes before the payload: tag (1) + seq (8) + length (4).
const HEADER_LEN: usize = 13;

/// Multiplier of [`absorb`]: odd, so multiplying by it permutes `u64`.
const ABSORB_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Start values of the four lanes, pairwise distinct.
const LANE_SEED: [u64; 4] =
    [0xC2B2_AE3D_27D4_EB4F, 0x1656_67B1_9E37_79F9, 0x85EB_CA77_C2B2_AE63, 0x27D4_EB2F_1656_67C5];

/// One step of the frame sum (module doc): a bijection of `state` for a
/// fixed `word` and of `word` for a fixed `state`.
#[inline(always)]
fn absorb(state: u64, word: u64) -> u64 {
    let x = (state ^ word).wrapping_mul(ABSORB_MUL);
    x ^ (x >> 29)
}

/// Up to eight bytes as a little-endian word, zero-padded at the top.
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// The frame sum (module doc, "The sum"): four word-parallel lanes over the
/// payload's 32-byte blocks, started from the header and the payload
/// length, folded, then the tail.
fn frame_checksum(header: &[u8; HEADER_LEN], payload: &[u8]) -> u64 {
    let mut lanes = LANE_SEED;
    lanes[0] = absorb(lanes[0], le_word(&header[..8]));
    lanes[1] = absorb(lanes[1], le_word(&header[8..]));
    lanes[2] = absorb(lanes[2], payload.len() as u64);
    let (blocks, tail) = payload.as_chunks::<32>();
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = absorb(*lane, u64::from_le_bytes(*word));
        }
    }
    let fold =
        lanes[0] ^ lanes[1].rotate_left(17) ^ lanes[2].rotate_left(31) ^ lanes[3].rotate_left(47);
    tail.chunks(8).fold(fold, |sum, word| absorb(sum, le_word(word)))
}

/// Append one encoded frame to `out`.
///
/// # Panics
/// Panics if `payload.len()` exceeds [`MAX_PAYLOAD`] — the sender is in
/// the same process; an oversized message is a bug, not a wire fault.
pub fn encode_frame(out: &mut Vec<u8>, tag: u8, seq: u64, payload: &[u8]) {
    assert!(payload.len() <= MAX_PAYLOAD as usize, "frame payload over MAX_PAYLOAD");
    let mut header = [0u8; HEADER_LEN];
    header[0] = tag;
    header[1..9].copy_from_slice(&seq.to_le_bytes());
    header[9..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&header);
    out.extend_from_slice(payload);
    out.extend_from_slice(&frame_checksum(&header, payload).to_le_bytes());
}

/// Decode one frame from the front of `bytes`. On success returns the
/// frame and the number of bytes it consumed (trailing bytes are the
/// next frame's business). Validation order: structural completeness
/// (including the length cap), then checksum. Sequence-number ordering
/// is the stream reader's concern ([`FrameReader`]), not the byte
/// decoder's.
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame<'_>, usize), WireError> {
    let Some((header, rest)) = bytes.split_first_chunk::<HEADER_LEN>() else {
        return Err(WireError::Truncated);
    };
    let tag = header[0];
    let seq = u64::from_le_bytes(header[1..9].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(header[9..].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD {
        return Err(WireError::TooLarge(len));
    }
    let Some((payload, rest)) = rest.split_at_checked(len as usize) else {
        return Err(WireError::Truncated);
    };
    let Some((stored, _)) = rest.split_first_chunk::<8>() else {
        return Err(WireError::Truncated);
    };
    if frame_checksum(header, payload) != u64::from_le_bytes(*stored) {
        return Err(WireError::ChecksumMismatch);
    }
    Ok((Frame { tag, seq, payload }, FRAME_OVERHEAD + payload.len()))
}

/// Frame sender over a byte sink. Stamps consecutive sequence numbers
/// and flushes after every frame (a worker blocked on an unflushed pipe
/// would deadlock the lockstep barrier).
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    inner: W,
    seq: u64,
    buf: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    /// A writer starting at sequence number 0.
    pub fn new(inner: W) -> Self {
        Self { inner, seq: 0, buf: Vec::new() }
    }

    /// Send one frame; returns the sequence number it carried.
    pub fn send(&mut self, tag: u8, payload: &[u8]) -> Result<u64, WireError> {
        self.buf.clear();
        encode_frame(&mut self.buf, tag, self.seq, payload);
        self.inner.write_all(&self.buf)?;
        self.inner.flush()?;
        let seq = self.seq;
        self.seq += 1;
        Ok(seq)
    }
}

/// Frame receiver over a byte source. Verifies integrity first, then
/// enforces that frames arrive in sequence order.
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    inner: R,
    seq: u64,
    scratch: [u8; HEADER_LEN],
}

impl<R: Read> FrameReader<R> {
    /// A reader expecting sequence number 0 first.
    pub fn new(inner: R) -> Self {
        Self { inner, seq: 0, scratch: [0; HEADER_LEN] }
    }

    /// Receive one frame: the payload lands in `buf` (cleared first) and
    /// the tag is returned. Reads are bounded by the declared length,
    /// itself capped at [`MAX_PAYLOAD`], and `buf` grows with the bytes
    /// received, never ahead of them — a corrupt stream cannot make this
    /// loop or allocate beyond what it delivers.
    pub fn recv(&mut self, buf: &mut Vec<u8>) -> Result<u8, WireError> {
        self.inner.read_exact(&mut self.scratch)?;
        let tag = self.scratch[0];
        let seq = u64::from_le_bytes(self.scratch[1..9].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(self.scratch[9..].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            return Err(WireError::TooLarge(len));
        }
        buf.clear();
        if self.inner.by_ref().take(u64::from(len)).read_to_end(buf)? < len as usize {
            return Err(WireError::Truncated);
        }
        let mut tail = [0u8; 8];
        self.inner.read_exact(&mut tail)?;
        if frame_checksum(&self.scratch, buf) != u64::from_le_bytes(tail) {
            return Err(WireError::ChecksumMismatch);
        }
        if seq != self.seq {
            return Err(WireError::OutOfOrder { expected: self.seq, found: seq });
        }
        self.seq += 1;
        Ok(tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_and_chains() {
        let mut bytes = Vec::new();
        encode_frame(&mut bytes, 7, 0, b"hello");
        encode_frame(&mut bytes, 9, 1, b"");
        let (f0, used0) = decode_frame(&bytes).unwrap();
        assert_eq!((f0.tag, f0.seq, f0.payload), (7, 0, &b"hello"[..]));
        assert_eq!(used0, FRAME_OVERHEAD + 5);
        let (f1, used1) = decode_frame(&bytes[used0..]).unwrap();
        assert_eq!((f1.tag, f1.seq, f1.payload), (9, 1, &b""[..]));
        assert_eq!(used0 + used1, bytes.len());
    }

    #[test]
    fn every_truncation_point_is_truncated() {
        let mut bytes = Vec::new();
        encode_frame(&mut bytes, 3, 5, b"payload");
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_frame(&bytes[..cut]).unwrap_err(),
                WireError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn any_flipped_bit_is_detected() {
        let mut pristine = Vec::new();
        encode_frame(&mut pristine, 3, 5, b"payload");
        for byte in 0..pristine.len() {
            for bit in 0..8 {
                let mut bytes = pristine.clone();
                bytes[byte] ^= 1 << bit;
                match decode_frame(&bytes) {
                    Err(WireError::ChecksumMismatch | WireError::TooLarge(_)) => {}
                    // A flip high in the length field can also leave the
                    // frame claiming more bytes than the buffer holds.
                    Err(WireError::Truncated) if (9..13).contains(&byte) => {}
                    other => panic!("flip {byte}.{bit} gave {other:?}"),
                }
            }
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = Vec::new();
        encode_frame(&mut bytes, 1, 0, b"x");
        bytes[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_frame(&bytes).unwrap_err(), WireError::TooLarge(u32::MAX));
    }

    #[test]
    fn reader_writer_round_trip_in_order() {
        let mut wire = Vec::new();
        {
            let mut w = FrameWriter::new(&mut wire);
            assert_eq!(w.send(1, b"one").unwrap(), 0);
            assert_eq!(w.send(2, b"two").unwrap(), 1);
        }
        let mut r = FrameReader::new(&wire[..]);
        let mut buf = Vec::new();
        assert_eq!(r.recv(&mut buf).unwrap(), 1);
        assert_eq!(buf, b"one");
        assert_eq!(r.recv(&mut buf).unwrap(), 2);
        assert_eq!(buf, b"two");
        assert_eq!(r.recv(&mut buf).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn reordered_frames_fail_after_integrity() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        encode_frame(&mut a, 1, 0, b"first");
        encode_frame(&mut b, 1, 1, b"second");
        // Deliver frame 1 before frame 0: intact, but out of order.
        let mut swapped = b.clone();
        swapped.extend_from_slice(&a);
        let mut r = FrameReader::new(&swapped[..]);
        let mut buf = Vec::new();
        assert_eq!(r.recv(&mut buf).unwrap_err(), WireError::OutOfOrder { expected: 0, found: 1 });
        // A corrupted out-of-order frame reports the corruption, not the
        // ordering: integrity is established first.
        let mut damaged = b.clone();
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0x10;
        let mut r = FrameReader::new(&damaged[..]);
        assert_eq!(r.recv(&mut buf).unwrap_err(), WireError::ChecksumMismatch);
    }
}
