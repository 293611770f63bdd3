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
//! ([`begin_list`]). Stacks are u32 byte-length-prefixed blobs, so the
//! coordinator relays them between shards without decoding nodes. Every
//! stack length and node count — in a reply, and a counted transfer's
//! `max_nodes` — is one byte when it is below 255, otherwise the byte 255
//! and the `u32` ([`put_len`]). A `MOVE` or `EXTRACT` entry's PE indices
//! are zigzag deltas from the previous entry's, in the same encoding
//! ([`Transfer::put`]): a round's donors and receivers rise nearly one by
//! one, so a matched `MOVE` entry is mostly two bytes.
//!
//! | tag | request | reply |
//! |-----|---------|-------|
//! | [`tag::HELLO`]    | local range + root seeding + fault knob + workload | ack |
//! | [`tag::BURST`]    | horizon `h` | census: started/goals/peak/deaths, then one new len per started PE, in PE order, no PE index |
//! | [`tag::MOVE`]     | [`Give`] + same-shard transfers `(Δdonor, Δreceiver[, max_nodes])` | per transfer: nodes moved + both new lens |
//! | [`tag::EXTRACT`]  | [`Give`] + donors feeding another shard `(Δdonor[, max_nodes])` | per donor: nodes moved + new len + donated stack |
//! | [`tag::INSTALL`]  | `(receiver, stack)`: frames to append — a round's donations, or a resumed snapshot's stacks | per entry: new len |
//! | [`tag::ENCODE`]   | (empty) | concatenated per-PE stack encodings for the range |
//! | [`tag::SHUTDOWN`] | (empty) | the worker's peak RSS and minor faults ([`WorkerMemory`]), then it exits |
//!
//! Every list decoder reads its frame once, handing each entry to the
//! caller as it is read: no decoder builds a list. A malformed frame is
//! still a typed error and no index goes out of range, but entries before
//! the bad one may have been applied — which is harmless, because the
//! error ends the worker's session or the coordinator's run.
//!
//! A `BURST` reply names no PE: the PEs that started are the coordinator's
//! sorted active list restricted to the worker's range, so the lengths
//! follow that order ([`decode_burst_reply`]). The worker writes them while
//! the burst runs ([`finish_burst_reply`]).
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

/// Read a reply to a request of `n` entries: its count, which must be `n`,
/// then each entry, handed to `entry` with its position as it is read, then
/// nothing. An error may come after earlier entries were applied; it ends
/// the run, so nothing reads what they changed.
fn read_reply<'a>(
    bytes: &'a [u8],
    n: usize,
    mut entry: impl FnMut(&mut Reader<'a>, usize) -> Result<(), CodecError>,
) -> Result<(), CodecError> {
    let mut r = Reader::new(bytes);
    if r.u64()? != n as u64 {
        return Err(CodecError::Malformed("reply does not answer every entry of its request"));
    }
    for k in 0..n {
        entry(&mut r, k)?;
    }
    expect_done(&r)
}

/// A local PE index, which must lie below the worker's `local_p`.
fn check_pe(pe: u32, local_p: usize) -> Result<u32, CodecError> {
    if pe as usize >= local_p {
        return Err(CodecError::Malformed("PE index outside the worker's range"));
    }
    Ok(pe)
}

/// Append PE index `pe` of a transfer entry as the zigzag delta from
/// `prev`, the same end's index in the entry before (0 before the first),
/// in [`put_len`]'s encoding. Differences wrap modulo 2^32, so every index
/// has exactly one encoding.
fn put_pe_delta(out: &mut Vec<u8>, prev: u32, pe: u32) {
    let delta = pe.wrapping_sub(prev) as i32;
    put_len(out, ((delta << 1) ^ (delta >> 31)) as u32);
}

/// Take a PE index written by [`put_pe_delta`] after `prev`; it must lie
/// below the worker's `local_p`.
fn take_pe_delta(r: &mut Reader<'_>, prev: u32, local_p: usize) -> Result<u32, CodecError> {
    let zigzag = take_len(r)?;
    let delta = (zigzag >> 1) as i32 ^ -((zigzag & 1) as i32);
    check_pe(prev.wrapping_add(delta as u32), local_p)
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
/// and node count on the wire travels this way, and so does every PE delta
/// of a transfer entry ([`Transfer::put`]).
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

/// Finish a worker's `BURST` reply in `out`, which holds the new length of
/// each PE that entered the burst, in ascending PE order, each written by
/// [`put_len`] while the burst ran: put the per-shard half of a
/// [`MergedBurst`] (`burst.started` is the number of those PEs) in front of
/// them. Those PEs are exactly the coordinator's sorted active list
/// restricted to this worker's range, so the reply names none of them.
pub fn finish_burst_reply(out: &mut Vec<u8>, burst: &MergedBurst) {
    let lens = out.len();
    put_usize(out, burst.started);
    put_u64(out, burst.goals);
    put_usize(out, burst.peak_stack_nodes);
    put_slice(out, &burst.deaths);
    let census = out.len() - lens;
    out.rotate_right(census);
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

/// Start a list-shaped frame in `out` — a `MOVE`, `EXTRACT` or `INSTALL`
/// request, or a worker's reply to one: the count, zero until
/// [`set_count`] says otherwise. The coordinator learns a sub-phase's
/// entries one at a time — partitioning a round, reading `EXTRACT`
/// replies — and a worker answers each entry as it reads it, so both
/// append each entry straight to the frame that will carry it and write
/// the count after the entries.
pub fn begin_list(out: &mut Vec<u8>) {
    out.clear();
    put_usize(out, 0);
}

/// Record that the frame begun with [`begin_list`] holds `n` entries.
pub fn set_count(frame: &mut [u8], n: usize) {
    frame[..8].copy_from_slice(&(n as u64).to_le_bytes());
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
    pub max_nodes: u32,
}

impl Transfer {
    /// What a request's first entry follows: its PE indices are deltas
    /// from 0.
    pub const START: Transfer = Transfer { donor: 0, receiver: None, max_nodes: 0 };

    /// Append the wire form of an entry of a `give` round that follows
    /// `prev` in its request ([`Transfer::START`] for the first): the
    /// donor, then in a `MOVE` the receiver, each as the zigzag delta from
    /// `prev`'s index at the same end, in [`put_len`]'s encoding; then,
    /// under [`Give::Counted`], `max_nodes` in that encoding too. A round
    /// pairs the k-th donor with the k-th receiver, so both ends rise
    /// nearly one by one: a matched `MOVE` entry is mostly 2 bytes and a
    /// matched `EXTRACT` 1; an index more than 127 away from the previous
    /// one takes the escape (5 bytes).
    pub fn put(&self, give: Give, prev: &Transfer, out: &mut Vec<u8>) {
        put_pe_delta(out, prev.donor, self.donor);
        if let Some(receiver) = self.receiver {
            put_pe_delta(out, prev.receiver.unwrap_or(0), receiver);
        }
        if give == Give::Counted {
            put_len(out, self.max_nodes);
        }
    }
}

/// Read the `MOVE` (`t == tag::MOVE`) or `EXTRACT` request of a worker
/// that owns `local_p` PEs in one pass, handing `apply` the round's
/// [`Give`] and each entry as it is read; returns the entry count. This is
/// where a transfer's indices are checked: an index that lands at or past
/// `local_p`, or a transfer onto its own donor, is malformed before it
/// reaches `apply`, so the worker's slab accesses cannot go out of bounds.
/// The entries before a malformed one, a missing one or trailing bytes
/// have been applied when the error returns; it ends the session.
pub fn decode_transfers(
    t: u8,
    bytes: &[u8],
    local_p: usize,
    mut apply: impl FnMut(Give, Transfer),
) -> Result<usize, CodecError> {
    let mut r = Reader::new(bytes);
    let local = t == tag::MOVE;
    // An entry is at least a byte per index on the wire, plus one counted.
    let n = r.len(1 + usize::from(local))?;
    let give = Give::take(&mut r)?;
    let mut prev = Transfer::START;
    for _ in 0..n {
        let donor = take_pe_delta(&mut r, prev.donor, local_p)?;
        let receiver = if local {
            Some(take_pe_delta(&mut r, prev.receiver.unwrap_or(0), local_p)?)
        } else {
            None
        };
        if receiver == Some(donor) {
            return Err(CodecError::Malformed("transfer from a PE to itself"));
        }
        let max_nodes = if give == Give::Counted { take_len(&mut r)? } else { 0 };
        prev = Transfer { donor, receiver, max_nodes };
        apply(give, prev);
    }
    expect_done(&r)?;
    Ok(n)
}

/// Append one `INSTALL` entry: the stack whose frames go on top of local
/// PE `pe`.
pub fn put_install(out: &mut Vec<u8>, pe: u32, stack: &[u8]) {
    put_u32(out, pe);
    put_stack_bytes(out, stack);
}

/// Read the `INSTALL` request of a worker that owns `local_p` PEs in one
/// pass, handing `apply` each range-checked `(local_pe, stack bytes)`
/// entry as it is read; returns the entry count. An error — from the
/// request or from `apply` — may come after earlier entries were applied;
/// it ends the session.
pub fn decode_install<'a>(
    bytes: &'a [u8],
    local_p: usize,
    mut apply: impl FnMut(u32, &'a [u8]) -> Result<(), CodecError>,
) -> Result<usize, CodecError> {
    let mut r = Reader::new(bytes);
    let n = r.len(8)?;
    for _ in 0..n {
        let pe = check_pe(r.u32()?, local_p)?;
        apply(pe, take_stack_bytes(&mut r)?)?;
    }
    expect_done(&r)?;
    Ok(n)
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

/// Read the reply to a `MOVE` request of `n` entries, handing `apply` each
/// entry and its position as it is read. A count other than `n`, an entry
/// cut short or trailing bytes are malformed, possibly after earlier
/// entries were applied.
pub fn decode_move_reply(
    bytes: &[u8],
    n: usize,
    mut apply: impl FnMut(usize, MoveReply),
) -> Result<(), CodecError> {
    read_reply(bytes, n, |r, k| {
        let (moved, donor_len, receiver_len) = (take_len(r)?, take_len(r)?, take_len(r)?);
        apply(k, MoveReply { moved, donor_len, receiver_len });
        Ok(())
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

/// Read the reply to an `EXTRACT` request of `n` entries, as
/// [`decode_move_reply`] does; the stacks borrow from `bytes`.
pub fn decode_extract_reply<'a>(
    bytes: &'a [u8],
    n: usize,
    mut apply: impl FnMut(usize, ExtractReply<'a>),
) -> Result<(), CodecError> {
    read_reply(bytes, n, |r, k| {
        let (moved, donor_len, stack) = (take_len(r)?, take_len(r)?, take_stack_bytes(r)?);
        apply(k, ExtractReply { moved, donor_len, stack });
        Ok(())
    })
}

/// Read the reply to an `INSTALL` request of `n` entries — each entry's
/// post-install length, in [`put_len`]'s encoding — as
/// [`decode_move_reply`] does.
pub fn decode_install_reply(
    bytes: &[u8],
    n: usize,
    mut apply: impl FnMut(usize, u32),
) -> Result<(), CodecError> {
    read_reply(bytes, n, |r, k| {
        apply(k, take_len(r)?);
        Ok(())
    })
}

/// A worker's memory use over its session, carried by its `SHUTDOWN`
/// reply: the peak resident set (`VmHWM`) and the minor page faults, as
/// `/proc/self` reads when the session ends, each zero where it cannot be
/// read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerMemory {
    /// Peak resident set, KiB.
    pub peak_rss_kb: u64,
    /// Minor page faults.
    pub minor_faults: u64,
}

impl WorkerMemory {
    /// Append the `SHUTDOWN` reply.
    pub fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, self.peak_rss_kb);
        put_u64(out, self.minor_faults);
    }

    /// Decode a `SHUTDOWN` reply.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let memory = WorkerMemory { peak_rss_kb: r.u64()?, minor_faults: r.u64()? };
        expect_done(&r)?;
        Ok(memory)
    }
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
        [4, 0, 300].into_iter().for_each(|len| put_len(&mut bytes, len));
        finish_burst_reply(&mut bytes, &burst);
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
    fn pe_deltas_wrap_and_escape() {
        // (previous index, index, bytes on the wire)
        let cases = [(0, 0, 1), (5, 6, 1), (6, 5, 1), (0, 127, 1), (127, 0, 1), (0, 128, 5)];
        let wrapping = [(u32::MAX - 1, 0, 1), (0, u32::MAX - 1, 1), (3, 1 << 31, 5)];
        for (prev, pe, size) in cases.into_iter().chain(wrapping) {
            let mut bytes = Vec::new();
            put_pe_delta(&mut bytes, prev, pe);
            assert_eq!(bytes.len(), size, "{prev} -> {pe}");
            let mut r = Reader::new(&bytes);
            assert_eq!(take_pe_delta(&mut r, prev, u32::MAX as usize), Ok(pe));
            assert!(r.is_done());
            assert_eq!(
                take_pe_delta(&mut Reader::new(&bytes), prev, pe as usize),
                Err(CodecError::Malformed("PE index outside the worker's range")),
            );
        }
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
        let mut back = Vec::new();
        decode_move_reply(&bytes, 2, |k, e| back.push((k, e))).expect("round trip");
        assert_eq!(back, [(0, entries[0]), (1, entries[1])]);
        assert!(decode_move_reply(&bytes, 3, |_, _| ()).is_err(), "a reply answers every entry");

        let extracts = [
            ExtractReply { moved: 3, donor_len: 5, stack: &[1, 2, 3] },
            ExtractReply { moved: 0, donor_len: 1, stack: &[] },
        ];
        let mut bytes = Vec::new();
        put_usize(&mut bytes, extracts.len());
        extracts.iter().for_each(|e| e.put(&mut bytes));
        let mut back = Vec::new();
        decode_extract_reply(&bytes, 2, |_, e| back.push(e)).expect("round trip");
        assert_eq!(back, extracts);

        let mut bytes = Vec::new();
        put_usize(&mut bytes, 3);
        [7, 0, 2].into_iter().for_each(|len| put_len(&mut bytes, len));
        let mut back = Vec::new();
        decode_install_reply(&bytes, 3, |_, len| back.push(len)).expect("round trip");
        assert_eq!(back, [7, 0, 2]);

        let memory = WorkerMemory { peak_rss_kb: 30_600, minor_faults: 11_652 };
        let mut bytes = Vec::new();
        memory.put(&mut bytes);
        assert_eq!(WorkerMemory::decode(&bytes), Ok(memory));
    }
}
