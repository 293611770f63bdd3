//! Adversarial robustness of the checkpoint wire format.
//!
//! The sharded machine trusts this codec for every coordinator/worker
//! exchange, so a corrupted byte stream must never panic, hang, or decode
//! to silently-wrong frames: every corruption maps to a *typed*
//! `WireError`. These properties throw random frame streams at the codec
//! and then truncate, bit-flip, reorder, and replay them, checking that
//! the error surfaced is exactly the one the corruption geometry demands
//! and that every frame decoded before the fault is byte-identical to
//! what was sent.
//!
//! Committed counterexample states live in
//! `proptest-regressions/wire_robustness.txt` and replay before the
//! random cases.

use std::io::Cursor;

use proptest::prelude::*;
use uts_ckpt::wire::{
    decode_frame, encode_frame, FrameReader, FrameWriter, WireError, FRAME_OVERHEAD, MAX_PAYLOAD,
};

/// A random stream: 1–7 frames of arbitrary tag and 0–47 payload bytes.
fn arb_frames() -> impl Strategy<Value = Vec<(u8, Vec<u8>)>> {
    collection::vec((0u8..=255, collection::vec(0u8..=255, 0usize..48)), 1usize..8)
}

/// Encode `frames` as one contiguous stream with sequence numbers 0, 1, …
fn encode_stream(frames: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, (tag, payload)) in frames.iter().enumerate() {
        encode_frame(&mut out, *tag, i as u64, payload);
    }
    out
}

/// Drain a byte stream through `FrameReader` until the first error,
/// reading at most `max` frames (a bound, so a codec bug can't hang the
/// test). Returns the intact prefix and the terminating error, if any.
fn read_all(bytes: &[u8], max: usize) -> (Vec<(u8, Vec<u8>)>, Option<WireError>) {
    let mut reader = FrameReader::new(Cursor::new(bytes));
    let mut buf = Vec::new();
    let mut got = Vec::new();
    for _ in 0..max {
        match reader.recv(&mut buf) {
            Ok(tag) => got.push((tag, buf.clone())),
            Err(e) => return (got, Some(e)),
        }
    }
    (got, None)
}

/// Index of the frame whose encoding contains byte `idx` of the stream.
fn frame_containing(frames: &[(u8, Vec<u8>)], idx: usize) -> usize {
    let mut end = 0;
    for (k, (_, payload)) in frames.iter().enumerate() {
        end += FRAME_OVERHEAD + payload.len();
        if idx < end {
            return k;
        }
    }
    unreachable!("byte index past the end of the stream");
}

proptest! {
    /// `FrameWriter` → `FrameReader` is the identity on any stream: every
    /// tag and payload round-trips, sequence numbers auto-chain from 0,
    /// and reading past the end is a clean `Truncated`, not a hang.
    #[test]
    fn any_stream_round_trips(frames in arb_frames()) {
        let mut bytes = Vec::new();
        let mut writer = FrameWriter::new(&mut bytes);
        for (i, (tag, payload)) in frames.iter().enumerate() {
            prop_assert_eq!(writer.send(*tag, payload).unwrap(), i as u64);
        }
        let (got, err) = read_all(&bytes, frames.len() + 1);
        prop_assert_eq!(&got, &frames);
        prop_assert_eq!(err, Some(WireError::Truncated), "EOF after the last frame");
    }

    /// Cutting the stream at *any* byte position yields the intact whole
    /// frames before the cut and then exactly `Truncated` — never a panic,
    /// a partial frame, or an unbounded read.
    #[test]
    fn any_truncation_is_typed(frames in arb_frames(), cut_frac in 0.0f64..1.0) {
        let bytes = encode_stream(&frames);
        let cut = ((cut_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        let whole = {
            // How many whole frames fit in the first `cut` bytes?
            let mut fit = 0;
            let mut end = 0;
            for (_, payload) in &frames {
                end += FRAME_OVERHEAD + payload.len();
                if end <= cut {
                    fit += 1;
                }
            }
            fit
        };
        let (got, err) = read_all(&bytes[..cut], frames.len() + 1);
        prop_assert_eq!(got.len(), whole);
        prop_assert_eq!(&got[..], &frames[..whole]);
        prop_assert_eq!(err, Some(WireError::Truncated));
    }

    /// Flipping any single bit anywhere in the stream is detected at the
    /// frame that contains it: every earlier frame decodes byte-identical,
    /// and the fault surfaces as one of the three errors its position can
    /// produce (checksum for tag/seq/payload/checksum bytes, `TooLarge`
    /// for the length field's high bits, `Truncated` when an inflated
    /// length reads past the end). Never `Ok`, never a panic.
    #[test]
    fn any_single_bit_flip_is_detected(
        frames in arb_frames(),
        pos_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let mut bytes = encode_stream(&frames);
        let idx = ((pos_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[idx] ^= 1 << bit;
        let k = frame_containing(&frames, idx);
        let (got, err) = read_all(&bytes, frames.len() + 1);
        prop_assert_eq!(got.len(), k, "corruption in frame {} must stop the stream there", k);
        prop_assert_eq!(&got[..], &frames[..k]);
        match err {
            Some(WireError::ChecksumMismatch) | Some(WireError::Truncated) => {}
            Some(WireError::TooLarge(len)) => prop_assert!(len > MAX_PAYLOAD),
            other => prop_assert!(false, "bit flip produced {:?}, not a corruption error", other),
        }
    }

    /// Swapping two intact frames (a delayed/overtaken message) is caught
    /// by sequence chaining: the reader accepts the prefix before the
    /// first displaced frame, then reports exactly which sequence number
    /// it expected and which arrived. Checksums pass — only ordering fails.
    #[test]
    fn swapped_frames_yield_out_of_order(
        frames in collection::vec((0u8..=255, collection::vec(0u8..=255, 0usize..48)), 2usize..8),
        ra in 0u64..1_000_000,
        rb in 0u64..1_000_000,
    ) {
        let n = frames.len();
        let a = (ra % (n as u64 - 1)) as usize;
        let b = a + 1 + (rb % (n - 1 - a) as u64) as usize;
        let mut chunks: Vec<Vec<u8>> = frames
            .iter()
            .enumerate()
            .map(|(i, (tag, payload))| {
                let mut c = Vec::new();
                encode_frame(&mut c, *tag, i as u64, payload);
                c
            })
            .collect();
        chunks.swap(a, b);
        let bytes: Vec<u8> = chunks.concat();
        let (got, err) = read_all(&bytes, n + 1);
        prop_assert_eq!(got.len(), a);
        prop_assert_eq!(&got[..], &frames[..a]);
        prop_assert_eq!(
            err,
            Some(WireError::OutOfOrder { expected: a as u64, found: b as u64 })
        );
    }

    /// Replaying a frame (a duplicated message) is also an ordering
    /// fault: the duplicate carries an already-consumed sequence number.
    #[test]
    fn replayed_frame_yields_out_of_order(frames in arb_frames(), rk in 0u64..1_000_000) {
        let n = frames.len();
        let k = (rk % n as u64) as usize;
        let mut bytes = Vec::new();
        for (i, (tag, payload)) in frames.iter().enumerate() {
            encode_frame(&mut bytes, *tag, i as u64, payload);
            if i == k {
                encode_frame(&mut bytes, *tag, i as u64, payload); // replay
            }
        }
        let (got, err) = read_all(&bytes, n + 2);
        prop_assert_eq!(got.len(), k + 1, "frames through the original are accepted");
        prop_assert_eq!(
            err,
            Some(WireError::OutOfOrder { expected: k as u64 + 1, found: k as u64 })
        );
    }

    /// `decode_frame` on arbitrary bytes never panics, and whenever it
    /// does accept a frame, re-encoding that frame reproduces exactly the
    /// consumed prefix — decoding is a partial inverse of encoding, so a
    /// decoded frame can always be forwarded verbatim.
    #[test]
    fn decode_is_total_and_a_partial_inverse(
        garbage in collection::vec(0u8..=255, 0usize..64),
        tag in 0u8..=255,
        seq in 0u64..u64::MAX,
        payload in collection::vec(0u8..=255, 0usize..48),
    ) {
        // Pure garbage: must return a typed error or a self-consistent frame.
        if let Ok((f, used)) = decode_frame(&garbage) {
            let mut re = Vec::new();
            encode_frame(&mut re, f.tag, f.seq, f.payload);
            prop_assert_eq!(&re[..], &garbage[..used]);
        }
        // A valid frame followed by arbitrary trailing bytes: the frame
        // decodes intact and `used` points exactly at the tail.
        let mut bytes = Vec::new();
        encode_frame(&mut bytes, tag, seq, &payload);
        let frame_len = bytes.len();
        bytes.extend_from_slice(&garbage);
        let (f, used) = decode_frame(&bytes).expect("a valid frame ignores its tail");
        prop_assert_eq!(used, frame_len);
        prop_assert_eq!(f.tag, tag);
        prop_assert_eq!(f.seq, seq);
        prop_assert_eq!(f.payload, &payload[..]);
    }
}

// The frame sum's own guarantees (wire.rs, "The sum"). It reads a frame as
// little-endian words: two of the header (bytes 0–7 and 8–12), then the
// payload's from its first byte, the last one short when the length is not
// a multiple of 8. Word `k` of each whole 32-byte block runs on lane `k`;
// the ≤ 31 bytes after the last whole block are the tail. These cases are
// exhaustive over small geometries instead of random: what they pin is
// structural (which words share a lane, where the tail starts).

/// `len` payload bytes that differ from word to word (xorshift64).
fn noise(len: usize) -> Vec<u8> {
    let mut x = 0x2545_F491_4F6C_DD1Du64 ^ len as u64;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(len);
    out
}

fn frame_of(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_frame(&mut bytes, 5, 0, payload);
    bytes
}

/// Does either decoder take `bytes` for an intact first frame?
fn accepted(bytes: &[u8]) -> bool {
    decode_frame(bytes).is_ok() || FrameReader::new(bytes).recv(&mut Vec::new()).is_ok()
}

/// Byte ranges of the words of a frame around `len` payload bytes: header,
/// payload, and the stored sum itself.
fn frame_words(len: usize) -> Vec<std::ops::Range<usize>> {
    let mut words = vec![0..8, 8..13];
    words.extend((0..len).step_by(8).map(|at| 13 + at..13 + len.min(at + 8)));
    words.push(13 + len..13 + len + 8);
    words
}

/// (a) A frame whose damage is confined to one word is never accepted —
/// the guarantee the byte-serial sum gave for one byte, held by argument:
/// each step of the sum is a bijection of the word it absorbs.
#[test]
fn any_overwritten_word_is_detected() {
    // Every payload length mod 8 and mod 32 at 0, 1, 2 and 127 whole blocks,
    // and one 64 KiB frame. Small frames: every word. Large ones: a stride
    // odd against the four lanes, plus the last six words (the tail's and
    // the stored sum).
    let lens = (0..=72).map(|len| (len, 1)).chain((4064..=4096).map(|len| (len, 5)));
    for (len, stride) in lens.chain([(64 << 10, 37)]) {
        let pristine = frame_of(&noise(len));
        assert!(accepted(&pristine));
        let words = frame_words(len);
        let count = words.len();
        for (k, word) in words.into_iter().enumerate() {
            if k % stride != 0 && k + 6 < count {
                continue;
            }
            let width = word.len();
            let mut old = [0u8; 8];
            old[..width].copy_from_slice(&pristine[word.clone()]);
            let old = u64::from_le_bytes(old);
            let top = 1u64 << (8 * width - 1);
            for new in [old ^ 1, old ^ top, !old] {
                let mut bytes = pristine.clone();
                bytes[word.clone()].copy_from_slice(&new.to_le_bytes()[..width]);
                assert!(!accepted(&bytes), "len {len}: word {word:?} overwritten unseen");
            }
        }
    }
}

/// (b) Two whole payload words trading places is never accepted, wherever
/// they sit: on one lane, on two lanes of one block, in a block and in the
/// tail, both in the tail. A sum that started its lanes alike and folded
/// them with a plain XOR passes everything above and fails here (the two
/// words of a one-block payload commute).
#[test]
fn any_two_swapped_words_are_detected() {
    for len in (16..=160).chain([4096 + 24]) {
        let pristine = frame_of(&noise(len));
        let whole = len / 8;
        for i in 0..whole {
            // All pairs on the small frames; on the large one, each word
            // against its four successors and the last four (the tail).
            let partners: Vec<usize> = if len <= 160 {
                (i + 1..whole).collect()
            } else {
                (i + 1..whole).filter(|j| j - i <= 4 || whole - j <= 4).collect()
            };
            for j in partners {
                let (a, b) = (13 + 8 * i, 13 + 8 * j);
                let mut bytes = pristine.clone();
                bytes.copy_within(b..b + 8, a);
                bytes[b..b + 8].copy_from_slice(&pristine[a..a + 8]);
                assert_ne!(bytes, pristine, "noise words differ");
                assert!(!accepted(&bytes), "len {len}: words {i} and {j} swapped unseen");
            }
        }
    }
}

/// (c) Zero bytes appended to or cut from the end of a payload, with the
/// length field fixed up to match, are never accepted under the other
/// frame's sum: zero-padding the last word does not make lengths alias.
#[test]
fn trailing_zeros_do_not_alias() {
    for len in 0..=72usize {
        for zeros in 1..=40usize {
            for body in [noise(len), vec![0; len]] {
                let mut longer = body.clone();
                longer.resize(len + zeros, 0);
                let (short, long) = (frame_of(&body), frame_of(&longer));
                let (short_sum, long_sum) = (&short[13 + len..], &long[13 + len + zeros..]);
                let grown = [&long[..13 + len + zeros], short_sum].concat();
                let shrunk = [&short[..13 + len], long_sum].concat();
                assert!(!accepted(&grown), "{zeros} zeros appended to {len} bytes unseen");
                assert!(!accepted(&shrunk), "{zeros} zeros cut from {} bytes unseen", len + zeros);
            }
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// (d) The sum of a frame is a function of its bytes alone — the same on
/// every host, pointer width and byte order. Two frames, committed: a tail-
/// only payload, and one with a whole block, a whole tail word and a short
/// one (45 = 32 + 8 + 5 bytes).
#[test]
fn golden_frames() {
    let mut hello = Vec::new();
    encode_frame(&mut hello, 7, 3, b"hello");
    assert_eq!(hex(&hello), "0703000000000000000500000068656c6c6f47457838ad24491e");

    let payload: Vec<u8> = (0..45u8).map(|i| i.wrapping_mul(37).wrapping_add(11)).collect();
    let mut frame = Vec::new();
    encode_frame(&mut frame, 2, 0x0102_0304_0506_0708, &payload);
    assert_eq!(
        hex(&frame),
        concat!(
            "0208070605040302012d000000",
            "0b30557a9fc4e90e33587da2c7ec11365b80a5caef14395e83a8cdf2173c6186",
            "abd0f51a3f6489aed3f81d4267",
            "7033f3ea3ed5f7d5"
        )
    );
}

/// A header is thirteen bytes anyone can write; the reader must not
/// allocate what it claims before the payload arrives. A dying worker's
/// last write declaring the largest legal payload, then five bytes: the
/// stream is `Truncated` and the buffer never grew towards the gigabyte.
#[test]
fn declared_length_is_not_allocated_ahead_of_the_bytes() {
    let mut stream = vec![4u8];
    stream.extend_from_slice(&0u64.to_le_bytes());
    stream.extend_from_slice(&MAX_PAYLOAD.to_le_bytes());
    stream.extend_from_slice(b"abcde");
    let mut buf = Vec::new();
    let err = FrameReader::new(&stream[..]).recv(&mut buf).unwrap_err();
    assert_eq!(err, WireError::Truncated);
    assert!(buf.capacity() < 1 << 20, "reader reserved {} bytes for 5", buf.capacity());
}
