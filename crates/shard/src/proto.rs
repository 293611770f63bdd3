//! The shard wire protocol: message grammar over the checkpoint frame
//! codec.
//!
//! Every message travels as one [`uts_ckpt::wire`] frame (length-prefixed,
//! summed a word at a time, sequence-numbered), so the transport inherits the
//! checkpoint codec's rejection-mode discipline: truncation, bit flips and
//! reordering all surface as typed [`uts_ckpt::wire::WireError`]s, never as
//! garbage state. Payloads use the `uts-tree` checkpoint codec primitives,
//! and donated stacks travel in the *exact* [`uts_tree::SearchStack`]
//! encoding (what `StackArena::encode_pe` and `donate_encoded` write), which
//! is what makes sharded snapshots interchangeable with single-process ones.
//!
//! # Grammar
//!
//! Seven tags, coordinator → worker; every request gets exactly one reply
//! frame carrying the *same tag* (so a mismatched reply is a protocol
//! error, not a mis-parse). PE indices are local to the addressed worker
//! and range-checked where a request is decoded. Every list is prefixed by
//! its `u64` count; a request's count is its first eight bytes
//! ([`begin_request`]). Stacks are u32 byte-length-prefixed blobs, so the
//! coordinator relays them between shards without decoding nodes. Every
//! stack length and node count in a reply is one byte when it is below
//! 255, otherwise the byte 255 and the `u32` ([`put_len`]).
//!
//! | tag | request | reply |
//! |-----|---------|-------|
//! | [`tag::HELLO`]    | local range + root seeding + fault knob + workload | ack |
//! | [`tag::BURST`]    | horizon `h` | census: started/goals/peak/deaths, then one new len per started PE, in PE order, no PE index |
//! | [`tag::MOVE`]     | [`Give`] + same-shard transfers `(donor, receiver[, max_nodes])` | per transfer: nodes moved + both new lens |
//! | [`tag::EXTRACT`]  | [`Give`] + donors feeding another shard `(donor[, max_nodes])` | per donor: nodes moved + new len + donated stack |
//! | [`tag::INSTALL`]  | `(receiver, stack)`: frames to append — a round's donations, or a resumed snapshot's stacks | per entry: new len |
//! | [`tag::ENCODE`]   | (empty) | concatenated per-PE stack encodings for the range |
//! | [`tag::SHUTDOWN`] | (empty) | ack, then the worker exits |
//!
//! A `BURST` reply names no PE: the PEs that started are the coordinator's
//! sorted active list restricted to the worker's range, so the lengths
//! follow that order ([`decode_burst_reply`]).
//!
//! A balancing round is homogeneous — every donor splits under the run's
//! policy, or every donor gives a counted prefix — so what is given is the
//! round's header ([`Give`]), and only counted entries carry a `max_nodes`.
//!
//! `HELLO`'s workload is [`Workload`]'s codec, whose decode runs the
//! workload constructors' checks: a hostile `HELLO` is
//! [`CodecError::Malformed`] before the worker builds anything.

use uts_core::{MergedBurst, Workload};
use uts_tree::codec::{put_bool, put_slice, put_u32, put_u64, put_usize};
use uts_tree::{CodecError, Reader, SplitPolicy};

/// Frame tags. Replies reuse the request tag.
pub mod tag {
    /// Local range, root seeding, workload, fault knob.
    pub const HELLO: u8 = 1;
    /// Run one search-phase burst of `h` cycles.
    pub const BURST: u8 = 2;
    /// Transfers whose donor and receiver share the shard.
    pub const MOVE: u8 = 3;
    /// Donor half of a cross-shard transfer.
    pub const EXTRACT: u8 = 4;
    /// Receiver half of a cross-shard transfer; also loads a resumed range.
    pub const INSTALL: u8 = 5;
    /// Encode the local range's stacks for a coordinator snapshot.
    pub const ENCODE: u8 = 6;
    /// Clean worker exit.
    pub const SHUTDOWN: u8 = 7;

    /// Every tag, in numeric order.
    pub const ALL: [u8; 7] = [HELLO, BURST, MOVE, EXTRACT, INSTALL, ENCODE, SHUTDOWN];

    /// The tag's name, as the protocol documentation writes it.
    pub fn name(t: u8) -> &'static str {
        match t {
            HELLO => "HELLO",
            BURST => "BURST",
            MOVE => "MOVE",
            EXTRACT => "EXTRACT",
            INSTALL => "INSTALL",
            ENCODE => "ENCODE",
            SHUTDOWN => "SHUTDOWN",
            _ => "unknown",
        }
    }
}

/// The coordinator's opening message: everything a worker needs to build
/// its slab and monomorphize its engine loop.
#[derive(Debug, Clone)]
pub struct Hello {
    /// First global PE of the local range.
    pub lo: u64,
    /// One past the last global PE of the local range.
    pub hi: u64,
    /// Seed PE `lo == 0` with the problem root (fresh run; a resumed run
    /// ships its stacks via [`tag::INSTALL`] instead).
    pub seed_root: bool,
    /// Fault-injection knob: self-SIGKILL on receiving the k-th
    /// [`tag::BURST`] (1-based), for the kill→resume suites.
    pub kill_at_burst: Option<u64>,
    /// The search problem.
    pub workload: Workload,
}

impl Hello {
    /// Encode into a frame payload.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.lo);
        put_u64(out, self.hi);
        put_bool(out, self.seed_root);
        match self.kill_at_burst {
            None => put_bool(out, false),
            Some(k) => {
                put_bool(out, true);
                put_u64(out, k);
            }
        }
        self.workload.encode(out);
    }

    /// Decode a frame payload. The range must hold a `u32`-indexable
    /// number of PEs (local indices are `u32` on the wire).
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let hello = Hello {
            lo: r.u64()?,
            hi: r.u64()?,
            seed_root: r.bool()?,
            kill_at_burst: if r.bool()? { Some(r.u64()?) } else { None },
            workload: Workload::decode(&mut r)?,
        };
        expect_done(&r)?;
        if hello.hi.checked_sub(hello.lo).is_none_or(|local_p| local_p > u64::from(u32::MAX)) {
            return Err(CodecError::Malformed("shard range is not lo <= hi <= lo + u32::MAX"));
        }
        Ok(hello)
    }
}

fn expect_done(r: &Reader<'_>) -> Result<(), CodecError> {
    if r.is_done() {
        Ok(())
    } else {
        Err(CodecError::Malformed("trailing bytes after shard message"))
    }
}

/// Take a count-prefixed list; an entry occupies at least `min_bytes` (the
/// pre-allocation guard of [`Reader::len`]).
fn take_list<'a, T>(
    r: &mut Reader<'a>,
    min_bytes: usize,
    mut entry: impl FnMut(&mut Reader<'a>) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let n = r.len(min_bytes)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(entry(r)?);
    }
    Ok(out)
}

/// Decode a payload that is exactly one count-prefixed list.
fn decode_list<'a, T>(
    bytes: &'a [u8],
    min_bytes: usize,
    entry: impl FnMut(&mut Reader<'a>) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let mut r = Reader::new(bytes);
    let out = take_list(&mut r, min_bytes, entry)?;
    expect_done(&r)?;
    Ok(out)
}

/// A local PE index, which must lie below the worker's `local_p`.
fn take_pe(r: &mut Reader<'_>, local_p: usize) -> Result<u32, CodecError> {
    let pe = r.u32()?;
    if pe as usize >= local_p {
        return Err(CodecError::Malformed("PE index outside the worker's range"));
    }
    Ok(pe)
}

/// A length-prefixed opaque stack blob (exact `SearchStack` codec bytes).
/// The coordinator relays these between shards without decoding nodes.
fn put_stack_bytes(out: &mut Vec<u8>, stack: &[u8]) {
    debug_assert!(stack.len() <= u32::MAX as usize, "stack blob too large for the wire");
    put_u32(out, stack.len() as u32);
    out.extend_from_slice(stack);
}

/// Take one length-prefixed stack blob.
fn take_stack_bytes<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], CodecError> {
    let n = r.u32()? as usize;
    r.bytes(n)
}

/// `BURST` request.
pub fn encode_burst(out: &mut Vec<u8>, h: u64) {
    put_u64(out, h);
}

/// Decode a `BURST` request.
pub fn decode_burst(bytes: &[u8]) -> Result<u64, CodecError> {
    let mut r = Reader::new(bytes);
    let h = r.u64()?;
    expect_done(&r)?;
    Ok(h)
}

/// The byte that announces a `u32` length in [`put_len`]'s encoding.
pub const LEN_ESCAPE: u8 = 255;

/// Append a stack length or node count: one byte when it is below
/// [`LEN_ESCAPE`], otherwise that byte followed by the `u32`. Every length
/// and node count in a worker reply travels this way.
pub fn put_len(out: &mut Vec<u8>, len: u32) {
    match u8::try_from(len) {
        Ok(byte) if byte < LEN_ESCAPE => out.push(byte),
        _ => {
            out.push(LEN_ESCAPE);
            put_u32(out, len);
        }
    }
}

/// Take a length written by [`put_len`]. The encoding is canonical: an
/// escaped value below [`LEN_ESCAPE`] is malformed.
pub fn take_len(r: &mut Reader<'_>) -> Result<u32, CodecError> {
    match r.u8()? {
        LEN_ESCAPE => match r.u32()? {
            len if len < u32::from(LEN_ESCAPE) => {
                Err(CodecError::Malformed("escaped length below the escape byte"))
            }
            len => Ok(len),
        },
        byte => Ok(u32::from(byte)),
    }
}

/// Encode a worker's `BURST` reply: the per-shard half of a
/// [`MergedBurst`] (`burst.started` is the number of local PEs that entered
/// the burst), then the new length of each of them, in ascending PE order.
/// Those PEs are exactly the coordinator's sorted active list restricted to
/// this worker's range, so the reply names none of them.
pub fn encode_burst_reply(
    out: &mut Vec<u8>,
    burst: &MergedBurst,
    lens: impl ExactSizeIterator<Item = u32> + Clone,
) {
    debug_assert_eq!(lens.len(), burst.started, "one length per started PE");
    put_usize(out, burst.started);
    put_u64(out, burst.goals);
    put_usize(out, burst.peak_stack_nodes);
    put_slice(out, &burst.deaths);
    // Stacks of 255 nodes or more are rare: write every length as one byte,
    // and take the escape only when some length did not fit.
    let at = out.len();
    out.extend(lens.clone().map(|len| len.min(u32::from(LEN_ESCAPE)) as u8));
    if out[at..].contains(&LEN_ESCAPE) {
        out.truncate(at);
        lens.for_each(|len| put_len(out, len));
    }
}

/// Decode the `BURST` reply of a worker `started` of whose PEs entered the
/// burst: fold its census into `out` and return the new lengths, one per
/// started PE, in order. The whole reply is checked first — a `started`
/// that differs, fewer or more lengths, or a non-canonical escape is an
/// error before any length is handed out.
pub fn decode_burst_reply<'a>(
    bytes: &'a [u8],
    started: usize,
    out: &mut MergedBurst,
) -> Result<BurstLens<'a>, CodecError> {
    let mut r = Reader::new(bytes);
    if r.u64()? != started as u64 {
        return Err(CodecError::Malformed("started count differs from the worker's active PEs"));
    }
    let goals = r.u64()?;
    let peak = r.usize()?;
    let deaths = r.len(8)?;
    let deaths = r.bytes(deaths * 8)?;
    let lens = &bytes[bytes.len() - r.remaining()..];
    // One byte per length, none escaped, is the common case and needs no
    // walk; anything else must be exactly `started` canonical lengths.
    if lens.len() != started || lens.contains(&LEN_ESCAPE) {
        for _ in 0..started {
            take_len(&mut r)?;
        }
        expect_done(&r)?;
    }
    out.started += started;
    out.goals += goals;
    out.peak_stack_nodes = out.peak_stack_nodes.max(peak);
    let death = |d: &[u8]| u64::from_le_bytes(d.try_into().expect("8 bytes"));
    out.deaths.extend(deaths.chunks_exact(8).map(death));
    Ok(BurstLens(lens))
}

/// The new lengths of a `BURST` reply that [`decode_burst_reply`] checked:
/// exactly one per started PE, in order.
#[derive(Debug, Clone)]
pub struct BurstLens<'a>(&'a [u8]);

impl Iterator for BurstLens<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let (&byte, rest) = self.0.split_first()?;
        if byte < LEN_ESCAPE {
            self.0 = rest;
            return Some(u32::from(byte));
        }
        let (word, rest) = rest.split_first_chunk::<4>()?;
        self.0 = rest;
        Some(u32::from_le_bytes(*word))
    }
}

/// Start a list-shaped request (`MOVE`, `EXTRACT`, `INSTALL`) in `out`:
/// the count, zero until [`set_count`] says otherwise. The coordinator
/// learns a sub-phase's entries one at a time — partitioning a round,
/// reading `EXTRACT` replies — and appends each straight to the frame that
/// will carry it, so the count is written after the entries.
pub fn begin_request(out: &mut Vec<u8>) {
    out.clear();
    put_usize(out, 0);
}

/// Record that the request begun with [`begin_request`] holds `n` entries.
pub fn set_count(request: &mut [u8], n: usize) {
    request[..8].copy_from_slice(&(n as u64).to_le_bytes());
}

/// What every donor of one transfer round gives: the header, after the
/// count, of the round's `MOVE` and `EXTRACT` requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Give {
    /// A matched split under the run's policy.
    Split(SplitPolicy),
    /// Up to the entry's `max_nodes` bottom-of-stack nodes (equalization).
    Counted,
}

impl Give {
    /// Append the header byte.
    pub fn put(self, out: &mut Vec<u8>) {
        out.push(match self {
            Give::Split(SplitPolicy::Bottom) => 0,
            Give::Split(SplitPolicy::Half) => 1,
            Give::Split(SplitPolicy::Top) => 2,
            Give::Counted => 3,
        });
    }

    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => Give::Split(SplitPolicy::Bottom),
            1 => Give::Split(SplitPolicy::Half),
            2 => Give::Split(SplitPolicy::Top),
            3 => Give::Counted,
            _ => return Err(CodecError::Malformed("unknown transfer kind")),
        })
    }
}

/// One entry of a `MOVE` or `EXTRACT` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Local PE giving work.
    pub donor: u32,
    /// Local PE receiving it: `Some` in every `MOVE` entry, `None` in every
    /// `EXTRACT` entry (the receiver lives on another shard, so the reply
    /// carries the stack instead).
    pub receiver: Option<u32>,
    /// Upper bound on the nodes given; on the wire only under
    /// [`Give::Counted`] (0 otherwise).
    pub max_nodes: usize,
}

impl Transfer {
    /// Append the wire form of an entry of a `give` round: 8 bytes for a
    /// matched `MOVE`, 4 for a matched `EXTRACT`, 8 more when counted.
    pub fn put(&self, give: Give, out: &mut Vec<u8>) {
        put_u32(out, self.donor);
        if let Some(receiver) = self.receiver {
            put_u32(out, receiver);
        }
        if give == Give::Counted {
            put_usize(out, self.max_nodes);
        }
    }
}

/// Decode the `MOVE` (`t == tag::MOVE`) or `EXTRACT` request of a worker
/// that owns `local_p` PEs. This is where a transfer's indices are checked:
/// a donor or receiver `>= local_p`, or a transfer onto its own donor, is
/// malformed, so the worker's slab accesses cannot go out of bounds.
pub fn decode_transfers(
    t: u8,
    bytes: &[u8],
    local_p: usize,
) -> Result<(Give, Vec<Transfer>), CodecError> {
    let mut r = Reader::new(bytes);
    let n = r.usize()?;
    let give = Give::take(&mut r)?;
    let (local, counted) = (t == tag::MOVE, give == Give::Counted);
    let entry_bytes = 4 + if local { 4 } else { 0 } + if counted { 8 } else { 0 };
    if n.checked_mul(entry_bytes) != Some(r.remaining()) {
        return Err(CodecError::Malformed("transfer count does not match the payload length"));
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let donor = take_pe(&mut r, local_p)?;
        let receiver = if local { Some(take_pe(&mut r, local_p)?) } else { None };
        if receiver == Some(donor) {
            return Err(CodecError::Malformed("transfer from a PE to itself"));
        }
        let max_nodes = if counted { r.usize()? } else { 0 };
        entries.push(Transfer { donor, receiver, max_nodes });
    }
    Ok((give, entries))
}

/// Append one `INSTALL` entry: the stack whose frames go on top of local
/// PE `pe`.
pub fn put_install(out: &mut Vec<u8>, pe: u32, stack: &[u8]) {
    put_u32(out, pe);
    put_stack_bytes(out, stack);
}

/// Decode the `INSTALL` request of a worker that owns `local_p` PEs into
/// range-checked `(local_pe, stack bytes)` entries.
pub fn decode_install(bytes: &[u8], local_p: usize) -> Result<Vec<(u32, &[u8])>, CodecError> {
    decode_list(bytes, 8, |r| Ok((take_pe(r, local_p)?, take_stack_bytes(r)?)))
}

/// `MOVE` reply entry: how many nodes moved (0 = the donor could not give)
/// plus the authoritative post-transfer lengths of both endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveReply {
    /// Nodes moved from donor to receiver.
    pub moved: u32,
    /// Donor's post-transfer stack length.
    pub donor_len: u32,
    /// Receiver's post-transfer stack length.
    pub receiver_len: u32,
}

impl MoveReply {
    /// Append the wire form (the reply is a count-prefixed list of these).
    pub fn put(&self, out: &mut Vec<u8>) {
        put_len(out, self.moved);
        put_len(out, self.donor_len);
        put_len(out, self.receiver_len);
    }
}

/// Decode a `MOVE` reply.
pub fn decode_move_reply(bytes: &[u8]) -> Result<Vec<MoveReply>, CodecError> {
    decode_list(bytes, 3, |r| {
        Ok(MoveReply { moved: take_len(r)?, donor_len: take_len(r)?, receiver_len: take_len(r)? })
    })
}

/// `EXTRACT` reply entry: nodes moved, the donor's post-transfer length,
/// and the donated stack (empty iff nothing moved).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtractReply<'a> {
    /// Nodes moved out of the donor (0 = the donor could not give).
    pub moved: u32,
    /// Donor's post-transfer stack length.
    pub donor_len: u32,
    /// The donated stack's `SearchStack` codec bytes (empty iff
    /// `moved == 0`).
    pub stack: &'a [u8],
}

impl ExtractReply<'_> {
    /// Append the wire form (the reply is a count-prefixed list of these).
    pub fn put(&self, out: &mut Vec<u8>) {
        put_len(out, self.moved);
        put_len(out, self.donor_len);
        put_stack_bytes(out, self.stack);
    }
}

/// Decode an `EXTRACT` reply; the stacks borrow from `bytes`.
pub fn decode_extract_reply(bytes: &[u8]) -> Result<Vec<ExtractReply<'_>>, CodecError> {
    decode_list(bytes, 6, |r| {
        Ok(ExtractReply {
            moved: take_len(r)?,
            donor_len: take_len(r)?,
            stack: take_stack_bytes(r)?,
        })
    })
}

/// Encode an `INSTALL` reply: each entry's post-install length.
pub fn encode_install_reply(out: &mut Vec<u8>, lens: &[u32]) {
    put_usize(out, lens.len());
    lens.iter().for_each(|&len| put_len(out, len));
}

/// Decode an `INSTALL` reply.
pub fn decode_install_reply(bytes: &[u8]) -> Result<Vec<u32>, CodecError> {
    decode_list(bytes, 1, take_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardWorkload;
    use uts_synthgen::GenTree;

    #[test]
    fn workload_round_trips() {
        let cases = [
            ShardWorkload::Puzzle { board: 0x1234_5678_9abc_dfe0, bound: 52 },
            ShardWorkload::UtsGen(GenTree::geometric(7, 8, 11)),
            ShardWorkload::UtsGen(GenTree::binomial(3, 32, 4, 0.2)),
        ];
        for w in cases {
            let mut bytes = Vec::new();
            w.encode(&mut bytes);
            let mut r = Reader::new(&bytes);
            let back = ShardWorkload::decode(&mut r).expect("round trip");
            assert!(r.is_done());
            assert_eq!(format!("{w:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn hello_round_trips() {
        let hello = Hello {
            lo: 96,
            hi: 128,
            seed_root: false,
            kill_at_burst: Some(17),
            workload: ShardWorkload::UtsGen(GenTree::geometric(1, 8, 6)),
        };
        let mut bytes = Vec::new();
        hello.encode(&mut bytes);
        let back = Hello::decode(&bytes).expect("round trip");
        assert_eq!(back.lo, 96);
        assert_eq!(back.hi, 128);
        assert!(!back.seed_root);
        assert_eq!(back.kill_at_burst, Some(17));

        let mut bytes = Vec::new();
        Hello { lo: 128, hi: 96, ..hello }.encode(&mut bytes);
        assert!(Hello::decode(&bytes).is_err(), "an inverted range is rejected");
    }

    #[test]
    fn burst_reply_round_trips() {
        let burst =
            MergedBurst { started: 3, goals: 2, peak_stack_nodes: 91, deaths: vec![3, 1, 7] };
        let mut bytes = Vec::new();
        encode_burst_reply(&mut bytes, &burst, [4, 0, 300].into_iter());
        let mut back = MergedBurst::default();
        let lens: Vec<u32> = decode_burst_reply(&bytes, 3, &mut back).expect("decodes").collect();
        assert_eq!(back, burst);
        assert_eq!(lens, [4, 0, 300]);
        assert_eq!(
            decode_burst_reply(&bytes, 2, &mut MergedBurst::default()).err(),
            Some(CodecError::Malformed("started count differs from the worker's active PEs")),
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Vec::new();
        encode_burst(&mut bytes, 9);
        bytes.push(0);
        assert!(decode_burst(&bytes).is_err());
    }

    #[test]
    fn replies_round_trip() {
        let entries = [
            MoveReply { moved: 1, donor_len: 4, receiver_len: 1 },
            MoveReply { moved: 0, donor_len: 1, receiver_len: 0 },
        ];
        let mut bytes = Vec::new();
        put_usize(&mut bytes, entries.len());
        entries.iter().for_each(|e| e.put(&mut bytes));
        assert_eq!(decode_move_reply(&bytes).expect("round trip"), entries.to_vec());

        let extracts = [
            ExtractReply { moved: 3, donor_len: 5, stack: &[1, 2, 3] },
            ExtractReply { moved: 0, donor_len: 1, stack: &[] },
        ];
        let mut bytes = Vec::new();
        put_usize(&mut bytes, extracts.len());
        extracts.iter().for_each(|e| e.put(&mut bytes));
        assert_eq!(decode_extract_reply(&bytes).expect("round trip"), extracts.to_vec());

        let mut bytes = Vec::new();
        encode_install_reply(&mut bytes, &[7, 0, 2]);
        assert_eq!(decode_install_reply(&bytes).expect("round trip"), vec![7, 0, 2]);
    }
}
