//! Deterministic byte-level codec for checkpointable search state.
//!
//! The checkpoint subsystem (`uts-ckpt`) snapshots every PE's
//! [`SearchStack`] into a hand-rolled binary format, which requires each
//! problem's node type to round-trip through bytes *exactly* — a resumed
//! run must continue from bit-identical stacks. [`CkptNode`] is that
//! contract: `decode_node(encode_node(n)) == n`, with a canonical (unique)
//! encoding so snapshot bytes are themselves deterministic.
//!
//! Everything is little-endian, fixed-width, no varints, no padding: the
//! same struct state always produces the same bytes on every platform,
//! which is what lets the snapshot checksum double as an identity check
//! across encode→decode→encode round trips.

use crate::stack::SearchStack;

/// Why a decode failed. Distinguishes "the buffer ended early" from "the
/// bytes are structurally impossible" so container formats can map them
/// to distinct user-facing errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The reader ran out of bytes mid-value.
    Truncated,
    /// The bytes decoded to a value that violates an invariant of the
    /// target type (the `&'static str` names the invariant).
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "byte stream ended mid-value"),
            CodecError::Malformed(what) => write!(f, "malformed value: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked cursor over a byte buffer being decoded.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Consume exactly `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consume one `u8`.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    /// Consume a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().expect("2 bytes")))
    }

    /// Consume a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    /// Consume a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }

    /// Consume a little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, CodecError> {
        Ok(i32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    /// Consume a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }

    /// Consume a `usize` stored on the wire as a `u64`; rejects values
    /// that do not fit the host's pointer width.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Malformed("usize overflows host"))
    }

    /// Consume a `bool` stored as a single `0`/`1` byte; any other byte is
    /// malformed (the encoding must be canonical, not merely readable).
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed("bool byte not 0 or 1")),
        }
    }

    /// Consume an `f64` stored as its raw IEEE-754 bits (bit-exact, no
    /// text round-trip loss).
    pub fn f64_bits(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Consume a collection length stored as `u64`. Guards against
    /// adversarial/corrupt lengths: each element occupies at least
    /// `min_elem_bytes` bytes, so a length the remaining buffer cannot
    /// possibly hold is rejected *before* any allocation.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.usize()?;
        if n.checked_mul(min_elem_bytes.max(1)).is_none_or(|need| need > self.remaining()) {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }
}

/// Append a `u16` little-endian.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i32` little-endian.
pub fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i64` little-endian.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `usize` as a `u64` (platform-independent width).
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Append a `bool` as one byte.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

/// Append an `f64` as its raw IEEE-754 bits.
pub fn put_f64_bits(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// A value the checkpoint subsystem can serialize into a snapshot and
/// reconstruct bit-identically on resume.
///
/// Laws (enforced by the snapshot round-trip property tests):
/// * **round trip** — `decode_node` over `encode_node`'s output yields a
///   value equal to the original and consumes exactly its bytes;
/// * **canonical** — equal values encode to identical bytes (no
///   accept-many/emit-one laxity), so re-encoding a decoded snapshot
///   reproduces it byte for byte.
pub trait CkptNode: Sized {
    /// Append this value's canonical encoding to `out`.
    fn encode_node(&self, out: &mut Vec<u8>);

    /// Decode one value from the front of `r`.
    fn decode_node(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

macro_rules! impl_ckpt_prim {
    ($($t:ty => $put:ident / $get:ident),* $(,)?) => {$(
        impl CkptNode for $t {
            fn encode_node(&self, out: &mut Vec<u8>) {
                $put(out, *self);
            }
            fn decode_node(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                r.$get()
            }
        }
    )*};
}

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

impl_ckpt_prim! {
    u8 => put_u8 / u8,
    u16 => put_u16 / u16,
    u32 => put_u32 / u32,
    u64 => put_u64 / u64,
    i32 => put_i32 / i32,
    i64 => put_i64 / i64,
    usize => put_usize / usize,
    bool => put_bool / bool,
}

impl<A: CkptNode, B: CkptNode> CkptNode for (A, B) {
    fn encode_node(&self, out: &mut Vec<u8>) {
        self.0.encode_node(out);
        self.1.encode_node(out);
    }
    fn decode_node(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode_node(r)?, B::decode_node(r)?))
    }
}

impl<A: CkptNode, B: CkptNode, C: CkptNode> CkptNode for (A, B, C) {
    fn encode_node(&self, out: &mut Vec<u8>) {
        self.0.encode_node(out);
        self.1.encode_node(out);
        self.2.encode_node(out);
    }
    fn decode_node(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode_node(r)?, B::decode_node(r)?, C::decode_node(r)?))
    }
}

impl<T: CkptNode> CkptNode for Vec<T> {
    fn encode_node(&self, out: &mut Vec<u8>) {
        put_usize(out, self.len());
        for item in self {
            item.encode_node(out);
        }
    }
    fn decode_node(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.len(1)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::decode_node(r)?);
        }
        Ok(v)
    }
}

impl<T: CkptNode> CkptNode for Option<T> {
    fn encode_node(&self, out: &mut Vec<u8>) {
        match self {
            None => put_bool(out, false),
            Some(v) => {
                put_bool(out, true);
                v.encode_node(out);
            }
        }
    }
    fn decode_node(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(if r.bool()? { Some(T::decode_node(r)?) } else { None })
    }
}

impl<S: CkptNode> CkptNode for crate::problem::BoundedNode<S> {
    fn encode_node(&self, out: &mut Vec<u8>) {
        self.state.encode_node(out);
        put_u32(out, self.g);
    }
    fn decode_node(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let state = S::decode_node(r)?;
        let g = r.u32()?;
        Ok(Self { state, g })
    }
}

/// A [`SearchStack`] serializes as its frame list: `frame count`, then for
/// each frame its node list. `len` is derived on decode, and the spare
/// frame pool — pure allocator warm-up, unobservable through the public
/// API — is deliberately not captured: a resumed stack behaves identically
/// with a cold pool.
impl<N: CkptNode> CkptNode for SearchStack<N> {
    fn encode_node(&self, out: &mut Vec<u8>) {
        put_usize(out, self.frames().len());
        for frame in self.frames() {
            frame.encode_node(out);
        }
    }
    fn decode_node(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let depth = r.len(8)?;
        let mut frames = Vec::with_capacity(depth);
        for _ in 0..depth {
            let frame: Vec<N> = Vec::decode_node(r)?;
            if frame.is_empty() {
                return Err(CodecError::Malformed("search stack stores an empty frame"));
            }
            frames.push(frame);
        }
        Ok(SearchStack::from_frames(frames))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: CkptNode + PartialEq + std::fmt::Debug>(v: &T) {
        let mut bytes = Vec::new();
        v.encode_node(&mut bytes);
        let mut r = Reader::new(&bytes);
        let back = T::decode_node(&mut r).expect("decodes");
        assert!(r.is_done(), "decode consumed exactly the encoded bytes");
        assert_eq!(&back, v);
        let mut again = Vec::new();
        back.encode_node(&mut again);
        assert_eq!(again, bytes, "canonical: re-encode is byte-identical");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&0u8);
        round_trip(&u8::MAX);
        round_trip(&0xBEEFu16);
        round_trip(&0xDEAD_BEEFu32);
        round_trip(&u64::MAX);
        round_trip(&-5i32);
        round_trip(&i64::MIN);
        round_trip(&usize::MAX);
        round_trip(&true);
        round_trip(&false);
    }

    #[test]
    fn compounds_round_trip() {
        round_trip(&(3usize, 99u64));
        round_trip(&(7u8, 11u32, 13u64));
        round_trip(&vec![1u32, 2, 3]);
        round_trip(&Vec::<u64>::new());
        round_trip(&Some(42u32));
        round_trip(&None::<u32>);
        round_trip(&crate::problem::BoundedNode { state: 5u32, g: 9 });
        round_trip(&vec![vec![1u8], vec![], vec![2, 3]]);
    }

    #[test]
    fn stack_round_trips_with_frame_structure() {
        let mut s = SearchStack::from_root(10u32);
        s.pop_next();
        s.push_frame(vec![1, 2, 3]);
        s.push_frame(vec![4, 5]);
        let mut bytes = Vec::new();
        s.encode_node(&mut bytes);
        let mut r = Reader::new(&bytes);
        let back = SearchStack::<u32>::decode_node(&mut r).unwrap();
        assert!(r.is_done());
        assert_eq!(back.len(), s.len());
        assert_eq!(back.frames().len(), s.frames().len());
        assert_eq!(back.iter().collect::<Vec<_>>(), s.iter().collect::<Vec<_>>());
    }

    #[test]
    fn empty_stack_round_trips() {
        let s: SearchStack<u64> = SearchStack::new();
        let mut bytes = Vec::new();
        s.encode_node(&mut bytes);
        let back = SearchStack::<u64>::decode_node(&mut Reader::new(&bytes)).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.frames().len(), 0);
    }

    #[test]
    fn truncated_input_is_rejected_not_panicked() {
        let mut bytes = Vec::new();
        vec![1u64, 2, 3].encode_node(&mut bytes);
        for cut in 0..bytes.len() {
            let err = Vec::<u64>::decode_node(&mut Reader::new(&bytes[..cut]));
            assert_eq!(err, Err(CodecError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn absurd_length_prefix_is_truncated_before_allocating() {
        let mut bytes = Vec::new();
        put_usize(&mut bytes, u32::MAX as usize); // claims 4 billion elements
        assert_eq!(Vec::<u8>::decode_node(&mut Reader::new(&bytes)), Err(CodecError::Truncated));
    }

    #[test]
    fn non_canonical_bool_is_malformed() {
        let mut r = Reader::new(&[2u8]);
        assert!(matches!(r.bool(), Err(CodecError::Malformed(_))));
    }

    #[test]
    fn stack_with_empty_frame_is_malformed() {
        let mut bytes = Vec::new();
        put_usize(&mut bytes, 1); // one frame ...
        put_usize(&mut bytes, 0); // ... of zero nodes: illegal stack state
        let got = SearchStack::<u32>::decode_node(&mut Reader::new(&bytes));
        assert!(matches!(got, Err(CodecError::Malformed(_))));
    }
}
