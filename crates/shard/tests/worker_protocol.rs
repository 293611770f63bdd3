//! The worker's request loop, driven in process: request frames are
//! written into a buffer, [`uts_shard::serve`] runs over it, and the
//! replies are read back from the buffer it wrote.
//!
//! What only this suite sees: that a same-shard transfer (`MOVE`) and a
//! cross-shard one (`EXTRACT` on the donor, `INSTALL` on the receiver) are
//! the same operation — the coordinator picks between them per transfer,
//! and no end-to-end digest says which it picked — that no request,
//! however wrong its contents, makes the loop index out of bounds, and what
//! the wire costs: one byte per started PE in a `BURST` reply while its
//! stack holds fewer than 255 nodes, and at most three per entry in a GP
//! round's `MOVE` request.

use proptest::prelude::*;
use uts_ckpt::wire::{FrameReader, FrameWriter, WireError};
use uts_ckpt::{fnv1a_64, CheckpointPolicy, EngineSnapshot};
use uts_core::{
    config_fingerprint, expansion_burst, run, EngineConfig, MatchState, Matching, MergedBurst,
    Scheme,
};
use uts_machine::CostModel;
use uts_puzzle15::scrambled;
use uts_scan::Pair;
use uts_shard::proto::{
    begin_list, decode_burst_reply, decode_extract_reply, decode_install, decode_install_reply,
    decode_move_reply, decode_transfers, encode_burst, finish_burst_reply, put_install, put_len,
    set_count, tag, take_len, ExtractReply, Give, Hello, MoveReply, Transfer, WorkerMemory,
    LEN_ESCAPE,
};
use uts_shard::{serve, ShardWorkload, WorkerError};
use uts_synth::GeometricTree;
use uts_synthgen::{GenFamily, GenNode, GenTree};
use uts_tree::codec::put_usize;
use uts_tree::{CkptNode, CodecError, Reader, SearchStack, SplitPolicy, StackArena};

/// PEs of the worker under test.
const LOCAL_P: u32 = 4;

/// A `BURST` reply's fixed header: `started`, goals, peak and the death
/// count, eight bytes each.
const BURST_HEADER: usize = 32;

type Stack = SearchStack<GenNode>;

/// The tree every session searches.
fn session_tree() -> GenTree {
    GenTree::geometric(1, 4, 4)
}

/// The `HELLO` of a fresh, unseeded worker of `local_p` PEs.
fn hello_payload(local_p: u32) -> Vec<u8> {
    let hello = Hello {
        lo: 0,
        hi: u64::from(local_p),
        seed_root: false,
        kill_at_burst: None,
        workload: session_tree().into(),
    };
    let mut payload = Vec::new();
    hello.encode(&mut payload);
    payload
}

/// Serve `requests` to a fresh, unseeded worker of [`LOCAL_P`] PEs.
/// Returns the reply payloads (the `HELLO` ack excluded) and how the
/// session ended.
fn session(requests: &[(u8, Vec<u8>)]) -> (Vec<Vec<u8>>, Result<(), WorkerError>) {
    session_of(LOCAL_P, requests)
}

/// [`session`] with a worker of `local_p` PEs.
fn session_of(local_p: u32, requests: &[(u8, Vec<u8>)]) -> (Vec<Vec<u8>>, Result<(), WorkerError>) {
    let mut input = Vec::new();
    let mut writer = FrameWriter::new(&mut input);
    writer.send(tag::HELLO, &hello_payload(local_p)).expect("write to a Vec");
    for (t, payload) in requests {
        writer.send(*t, payload).expect("write to a Vec");
    }

    let mut output = Vec::new();
    let result = serve(&input[..], &mut output);

    let mut reader = FrameReader::new(&output[..]);
    let mut replies = Vec::new();
    let mut buf = Vec::new();
    let mut expected = std::iter::once(tag::HELLO).chain(requests.iter().map(|(t, _)| *t));
    while let Ok(t) = reader.recv(&mut buf) {
        assert_eq!(Some(t), expected.next(), "a reply carries its request's tag");
        replies.push(buf.clone());
    }
    replies.remove(0);
    (replies, result)
}

fn transfer_request(give: Give, entries: &[Transfer]) -> Vec<u8> {
    let mut out = Vec::new();
    begin_list(&mut out);
    give.put(&mut out);
    let prevs = std::iter::once(&Transfer::START).chain(entries);
    entries.iter().zip(prevs).for_each(|(entry, prev)| entry.put(give, prev, &mut out));
    set_count(&mut out, entries.len());
    out
}

/// The entries of a `MOVE` (`t == tag::MOVE`) or `EXTRACT` request, each
/// with the round's [`Give`], as a worker of `local_p` PEs reads them.
fn transfers_of(t: u8, bytes: &[u8], local_p: usize) -> Result<Vec<(Give, Transfer)>, CodecError> {
    let mut entries = Vec::new();
    let n = decode_transfers(t, bytes, local_p, |give, entry| entries.push((give, entry)))?;
    assert_eq!(n, entries.len(), "the count returned is the entries read");
    Ok(entries)
}

fn install_request(entries: &[(u32, &[u8])]) -> Vec<u8> {
    let mut out = Vec::new();
    begin_list(&mut out);
    entries.iter().for_each(|&(pe, stack)| put_install(&mut out, pe, stack));
    set_count(&mut out, entries.len());
    out
}

/// The entries of an `INSTALL` request, as a worker of `local_p` PEs reads
/// them.
fn installs_of(bytes: &[u8], local_p: usize) -> Result<Vec<(u32, &[u8])>, CodecError> {
    let mut entries = Vec::new();
    decode_install(bytes, local_p, |pe, stack| {
        entries.push((pe, stack));
        Ok(())
    })?;
    Ok(entries)
}

/// A `BURST` reply, written as a worker writes it: the lengths, then the
/// census put in front.
fn burst_reply(census: &MergedBurst, lens: impl IntoIterator<Item = u32>) -> Vec<u8> {
    let mut out = Vec::new();
    lens.into_iter().for_each(|len| put_len(&mut out, len));
    finish_burst_reply(&mut out, census);
    out
}

/// The entries of a reply to a request of `n` entries, read by `decode`.
fn reply_entries<'a, T>(
    bytes: &'a [u8],
    n: usize,
    decode: impl FnOnce(&'a [u8], usize, &mut dyn FnMut(usize, T)) -> Result<(), CodecError>,
) -> Result<Vec<T>, CodecError> {
    let mut entries = Vec::new();
    decode(bytes, n, &mut |k, entry| {
        assert_eq!(k, entries.len(), "entries arrive in order");
        entries.push(entry);
    })?;
    Ok(entries)
}

fn move_replies(bytes: &[u8], n: usize) -> Result<Vec<MoveReply>, CodecError> {
    reply_entries(bytes, n, |b, n, apply| decode_move_reply(b, n, apply))
}

fn extract_replies(bytes: &[u8], n: usize) -> Result<Vec<ExtractReply<'_>>, CodecError> {
    reply_entries(bytes, n, |b, n, apply| decode_extract_reply(b, n, apply))
}

fn install_replies(bytes: &[u8], n: usize) -> Result<Vec<u32>, CodecError> {
    reply_entries(bytes, n, |b, n, apply| decode_install_reply(b, n, apply))
}

fn encoded(stack: &Stack) -> Vec<u8> {
    let mut out = Vec::new();
    stack.encode_node(&mut out);
    out
}

/// `INSTALL` request putting `stacks[pe]` on PE `pe`, empty ones skipped.
fn install_all(stacks: &[Stack]) -> (u8, Vec<u8>) {
    let blobs: Vec<(u32, Vec<u8>)> = stacks
        .iter()
        .enumerate()
        .filter(|(_, stack)| !stack.is_empty())
        .map(|(pe, stack)| (pe as u32, encoded(stack)))
        .collect();
    let entries: Vec<(u32, &[u8])> = blobs.iter().map(|(pe, blob)| (*pe, &blob[..])).collect();
    (tag::INSTALL, install_request(&entries))
}

fn arb_stack() -> impl Strategy<Value = Stack> {
    let node = (any::<u64>(), 0u32..20).prop_map(|(state, depth)| GenNode { state, depth });
    collection::vec(collection::vec(node, 1..5), 0..5).prop_map(SearchStack::from_frames)
}

/// A stack length or node count: often one byte on the wire, often five.
fn arb_len() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..300, Just(u32::MAX), any::<u32>()]
}

/// The lengths `BURST` reports for the stacks that started, and the census
/// it merges, decoded from a reply of a worker `started` of whose PEs ran.
fn decoded_burst(reply: &[u8], started: usize) -> Result<(MergedBurst, Vec<u32>), CodecError> {
    let mut burst = MergedBurst::default();
    let lens = decode_burst_reply(reply, started, &mut burst)?.collect();
    Ok((burst, lens))
}

fn arb_give() -> impl Strategy<Value = Give> {
    prop_oneof![
        Just(Give::Split(SplitPolicy::Bottom)),
        Just(Give::Split(SplitPolicy::Half)),
        Just(Give::Split(SplitPolicy::Top)),
        Just(Give::Counted),
    ]
}

/// A `HELLO` over any workload the constructors accept: a scrambled board
/// at a bound up to 80, a generated tree at most 64 deep or subcritical, a
/// synthetic tree at most 64 deep.
fn arb_hello() -> impl Strategy<Value = Hello> {
    let workload = prop_oneof![
        (any::<u64>(), 0usize..60, 0u32..=80).prop_map(|(seed, walk, bound)| {
            ShardWorkload::Puzzle { board: scrambled(seed, walk).board().0, bound }
        }),
        (any::<u64>(), any::<u32>(), 0u32..=64).prop_map(|(seed, b_max, depth_limit)| {
            GenTree { seed, family: GenFamily::Geometric { b_max, depth_limit } }.into()
        }),
        (any::<u64>(), any::<u32>(), 1u32..64, 0.0f64..0.99).prop_map(|(seed, b0, m, qm)| {
            GenTree::binomial(seed, b0, m, qm / f64::from(m)).into()
        }),
        (any::<u64>(), any::<u32>(), 0u32..=64).prop_map(|(seed, b_max, depth_limit)| {
            ShardWorkload::Synth(GeometricTree { seed, b_max, depth_limit })
        }),
    ];
    (any::<u32>(), any::<u32>(), any::<bool>(), (any::<bool>(), any::<u64>()), workload).prop_map(
        |(lo, local_p, seed_root, (kill, at), workload)| Hello {
            lo: u64::from(lo),
            hi: u64::from(lo) + u64::from(local_p),
            seed_root,
            kill_at_burst: kill.then_some(at),
            workload,
        },
    )
}

/// The `BURST h` reply of a worker loaded with `stacks`, and what the
/// same burst does in process: its census and the new length of each PE
/// that started, in PE order.
fn burst_session(stacks: &[Stack], h: u64) -> (Vec<u8>, MergedBurst, Vec<u32>) {
    let mut request = Vec::new();
    encode_burst(&mut request, h);
    let requests = [install_all(stacks), (tag::BURST, request), (tag::SHUTDOWN, Vec::new())];
    let (mut replies, result) = session(&requests);
    assert!(result.is_ok(), "{result:?}");

    let mut arena = StackArena::from_stacks(stacks.to_vec());
    let mut active: Vec<usize> = (0..stacks.len()).filter(|&pe| arena.len_of(pe) > 0).collect();
    let started = active.clone();
    let mut burst = MergedBurst::default();
    burst.reset(started.len());
    expansion_burst(
        &session_tree(),
        &mut arena,
        &mut active,
        h,
        &mut burst.goals,
        &mut burst.peak_stack_nodes,
        &mut burst.deaths,
    );
    let lens = started.iter().map(|&pe| arena.len_of(pe) as u32).collect();
    (replies.swap_remove(1), burst, lens)
}

/// Assert that a decoder takes `bytes` and nothing near it: no strict prefix,
/// and not `bytes` with one more byte.
fn assert_only_whole(bytes: &[u8], accepts: impl Fn(&[u8]) -> bool) {
    let longer = [bytes, &[0]].concat();
    let accepted: Vec<usize> = (0..=longer.len()).filter(|&n| accepts(&longer[..n])).collect();
    assert_eq!(accepted, [bytes.len()], "lengths at which the message, cut or padded, decodes");
}

proptest! {
    /// A `BURST` reply from a real session is the burst the in-process
    /// kernel runs, and while every stack holds fewer than 255 nodes it is
    /// exactly the fixed header, eight bytes per death and one byte per
    /// started PE: no PE index, no count.
    #[test]
    fn burst_reply_is_one_byte_per_started_pe(
        stacks in collection::vec(arb_stack(), LOCAL_P as usize),
        h in 1u64..6,
    ) {
        let (reply, want, want_lens) = burst_session(&stacks, h);
        prop_assert!(want_lens.iter().all(|&len| len < u32::from(LEN_ESCAPE)));
        let (got, lens) = decoded_burst(&reply, want.started).expect("BURST reply");
        prop_assert_eq!(reply.len(), BURST_HEADER + 8 * want.deaths.len() + want.started);
        prop_assert_eq!(got, want);
        prop_assert_eq!(lens, want_lens);
    }

    /// The fork the coordinator takes per transfer is invisible: PE 0 gives
    /// to PE 1 by `MOVE`, by `EXTRACT` + `INSTALL`, and in an in-process
    /// [`StackArena`]; all three leave the same stacks and report the same
    /// `moved` and lengths.
    #[test]
    fn move_is_extract_then_install(
        donor in arb_stack(),
        receiver in arb_stack(),
        give in arb_give(),
        max_nodes in 0u32..12,
    ) {
        let max_nodes = if give == Give::Counted { max_nodes } else { 0 };
        let idle = Stack::from_frames(Vec::new());
        let stacks = [donor, receiver, idle.clone(), idle];
        let entry = |receiver| Transfer { donor: 0, receiver, max_nodes };
        let end = [(tag::ENCODE, Vec::new()), (tag::SHUTDOWN, Vec::new())];

        let mut arena = StackArena::from_stacks(stacks.to_vec());
        let before = arena.len_of(0);
        match give {
            Give::Split(policy) => {
                arena.split_into(0, 1, policy);
            }
            Give::Counted => {
                arena.split_count_into(0, 1, max_nodes as usize);
            }
        }
        let want_moved = (before - arena.len_of(0)) as u32;
        let want_lens = (arena.lens()[0], arena.lens()[1]);
        let mut want_bytes = Vec::new();
        (0..LOCAL_P as usize).for_each(|pe| arena.encode_pe(pe, &mut want_bytes));

        let request = transfer_request(give, &[entry(Some(1))]);
        let mut moving = vec![install_all(&stacks), (tag::MOVE, request)];
        moving.extend_from_slice(&end);
        let (replies, result) = session(&moving);
        prop_assert!(result.is_ok(), "{result:?}");
        let moved = move_replies(&replies[1], 1).expect("MOVE reply")[0];
        prop_assert_eq!(moved.moved, want_moved);
        prop_assert_eq!((moved.donor_len, moved.receiver_len), want_lens);
        prop_assert_eq!(&replies[2], &want_bytes, "MOVE differs from the in-process transfer");

        let request = transfer_request(give, &[entry(None)]);
        let extracting = [install_all(&stacks), (tag::EXTRACT, request)];
        let (replies, _) = session(&extracting);
        let extracted = extract_replies(&replies[1], 1).expect("EXTRACT reply")[0];
        prop_assert_eq!((extracted.moved, extracted.donor_len), (want_moved, want_lens.0));
        prop_assert_eq!(extracted.stack.is_empty(), want_moved == 0);

        let mut relaying = extracting.to_vec();
        if want_moved > 0 {
            relaying.push((tag::INSTALL, install_request(&[(1, extracted.stack)])));
        }
        relaying.extend_from_slice(&end);
        let (replies, result) = session(&relaying);
        prop_assert!(result.is_ok(), "{result:?}");
        if want_moved > 0 {
            let installed = install_replies(&replies[2], 1).expect("INSTALL reply");
            prop_assert_eq!(installed, vec![want_lens.1]);
        }
        prop_assert_eq!(&replies[replies.len() - 2], &want_bytes, "EXTRACT + INSTALL differs");
    }

    /// `INSTALL` onto a fresh worker is a load: `ENCODE` returns the very
    /// bytes it was fed, and the reply lengths are the stacks'.
    #[test]
    fn install_into_a_fresh_worker_reproduces_its_input(
        stacks in collection::vec(arb_stack(), LOCAL_P as usize),
    ) {
        let requests =
            [install_all(&stacks), (tag::ENCODE, Vec::new()), (tag::SHUTDOWN, Vec::new())];
        let (replies, result) = session(&requests);
        prop_assert!(result.is_ok(), "{result:?}");
        let lens: Vec<u32> =
            stacks.iter().map(|stack| stack.len() as u32).filter(|&len| len > 0).collect();
        prop_assert_eq!(install_replies(&replies[0], lens.len()).expect("INSTALL reply"), lens);
        prop_assert_eq!(&replies[1], &stacks.iter().flat_map(encoded).collect::<Vec<u8>>());
    }

    /// `MOVE` / `EXTRACT` / `INSTALL` requests round-trip, and no strict
    /// prefix of one decodes, nor one with a byte appended.
    #[test]
    fn request_codec_round_trips_and_rejects_every_prefix(
        give in arb_give(),
        local in any::<bool>(),
        raw in collection::vec((0..LOCAL_P, 1..LOCAL_P, 0u32..1000), 0..6),
        blobs in collection::vec((0..LOCAL_P, collection::vec(any::<u8>(), 0..9)), 0..6),
    ) {
        let t = if local { tag::MOVE } else { tag::EXTRACT };
        let entries: Vec<Transfer> = raw
            .iter()
            .map(|&(donor, offset, max_nodes)| Transfer {
                donor,
                receiver: local.then_some((donor + offset) % LOCAL_P),
                max_nodes: if give == Give::Counted { max_nodes } else { 0 },
            })
            .collect();
        let bytes = transfer_request(give, &entries);
        let local_p = LOCAL_P as usize;
        let given: Vec<(Give, Transfer)> = entries.iter().map(|&entry| (give, entry)).collect();
        prop_assert_eq!(transfers_of(t, &bytes, local_p), Ok(given));
        assert_only_whole(&bytes, |b| transfers_of(t, b, local_p).is_ok());

        let entries: Vec<(u32, &[u8])> = blobs.iter().map(|(pe, blob)| (*pe, &blob[..])).collect();
        let bytes = install_request(&entries);
        prop_assert_eq!(installs_of(&bytes, local_p), Ok(entries));
        assert_only_whole(&bytes, |b| installs_of(b, local_p).is_ok());
    }

    /// The same for what the coordinator decodes — the five reply codecs —
    /// and for `HELLO`, the one request the property above leaves out.
    #[test]
    fn reply_codecs_and_hello_round_trip_and_reject_every_prefix(
        burst in (
            (any::<u64>(), any::<usize>()),
            collection::vec(any::<u64>(), 0..6),
            collection::vec(arb_len(), 0..6),
        ),
        moves in collection::vec((arb_len(), arb_len(), arb_len()), 0..6),
        extracts in collection::vec(
            (arb_len(), arb_len(), collection::vec(any::<u8>(), 0..9)),
            0..6,
        ),
        installs in collection::vec(arb_len(), 0..6),
        hello in arb_hello(),
    ) {
        let ((goals, peak_stack_nodes), deaths, lens) = burst;
        let started = lens.len();
        let census = MergedBurst { started, goals, peak_stack_nodes, deaths };
        let bytes = burst_reply(&census, lens.iter().copied());
        prop_assert_eq!(decoded_burst(&bytes, started), Ok((census, lens)));
        assert_only_whole(&bytes, |b| decoded_burst(b, started).is_ok());

        let moves: Vec<MoveReply> = moves
            .iter()
            .map(|&(moved, donor_len, receiver_len)| MoveReply { moved, donor_len, receiver_len })
            .collect();
        let (n, mut bytes) = (moves.len(), Vec::new());
        put_usize(&mut bytes, n);
        moves.iter().for_each(|entry| entry.put(&mut bytes));
        prop_assert_eq!(move_replies(&bytes, n), Ok(moves));
        assert_only_whole(&bytes, |b| move_replies(b, n).is_ok());
        prop_assert!(move_replies(&bytes, n + 1).is_err(), "a reply answers every entry");

        let extracts: Vec<ExtractReply<'_>> = extracts
            .iter()
            .map(|(moved, donor_len, stack)| ExtractReply {
                moved: *moved,
                donor_len: *donor_len,
                stack,
            })
            .collect();
        let (n, mut bytes) = (extracts.len(), Vec::new());
        put_usize(&mut bytes, n);
        extracts.iter().for_each(|entry| entry.put(&mut bytes));
        prop_assert_eq!(extract_replies(&bytes, n), Ok(extracts));
        assert_only_whole(&bytes, |b| extract_replies(b, n).is_ok());

        let (n, mut bytes) = (installs.len(), Vec::new());
        put_usize(&mut bytes, n);
        installs.iter().for_each(|&len| put_len(&mut bytes, len));
        prop_assert_eq!(install_replies(&bytes, n), Ok(installs));
        assert_only_whole(&bytes, |b| install_replies(b, n).is_ok());

        let memory = WorkerMemory { peak_rss_kb: goals, minor_faults: peak_stack_nodes as u64 };
        let mut bytes = Vec::new();
        memory.put(&mut bytes);
        prop_assert_eq!(WorkerMemory::decode(&bytes), Ok(memory));
        assert_only_whole(&bytes, |b| WorkerMemory::decode(b).is_ok());

        // `Hello` has no `PartialEq`; its encoding is canonical, so a
        // round trip is the bytes coming back.
        let mut bytes = Vec::new();
        hello.encode(&mut bytes);
        let mut again = Vec::new();
        Hello::decode(&bytes).expect("HELLO round trip").encode(&mut again);
        prop_assert_eq!(&again, &bytes);
        assert_only_whole(&bytes, |b| Hello::decode(b).is_ok());
    }
}

/// The length codec: one byte below [`LEN_ESCAPE`], the escape byte and
/// the `u32` from there up, canonical, and no strict prefix decodes.
#[test]
fn lengths_take_one_byte_below_the_escape() {
    let whole = |b: &[u8]| {
        let mut r = Reader::new(b);
        take_len(&mut r).is_ok() && r.is_done()
    };
    for (len, size) in [(0u32, 1usize), (254, 1), (255, 5), (256, 5), (u32::MAX, 5)] {
        let mut bytes = Vec::new();
        put_len(&mut bytes, len);
        assert_eq!(bytes.len(), size, "{len}");
        assert_eq!(take_len(&mut Reader::new(&bytes)), Ok(len));
        assert_only_whole(&bytes, whole);
    }
    let malformed = Some(CodecError::Malformed("escaped length below the escape byte"));
    for len in [0u32, 7, 254] {
        let escaped = [&[LEN_ESCAPE][..], &len.to_le_bytes()].concat();
        assert_eq!(take_len(&mut Reader::new(&escaped)).err(), malformed, "escaped {len}");
    }

    // In a reply: an escaped small length, a count the lengths do not
    // match, either way round, are malformed.
    let census = MergedBurst { started: 2, goals: 1, peak_stack_nodes: 300, deaths: vec![4] };
    let reply = burst_reply(&census, [3, 300]);
    assert_eq!(reply.len(), BURST_HEADER + 8 + 1 + 5);
    let mut escaped = reply[..reply.len() - 6].to_vec();
    escaped.push(LEN_ESCAPE);
    escaped.extend_from_slice(&3u32.to_le_bytes());
    put_len(&mut escaped, 300);
    assert_eq!(decoded_burst(&escaped, 2).err(), malformed);
    let started_differs =
        Some(CodecError::Malformed("started count differs from the worker's active PEs"));
    assert_eq!(decoded_burst(&reply, 1).err(), started_differs);
    assert_eq!(decoded_burst(&reply, 3).err(), started_differs);
    let one_more = [&reply[..], &[0]].concat();
    assert_eq!(
        decoded_burst(&one_more, 2).err(),
        Some(CodecError::Malformed("trailing bytes after shard message"))
    );
    let mut moves = Vec::new();
    put_usize(&mut moves, 1);
    MoveReply { moved: 1, donor_len: 2, receiver_len: 1 }.put(&mut moves);
    let escaped = [&moves[..moves.len() - 1], &[LEN_ESCAPE, 1, 0, 0, 0]].concat();
    assert_eq!(move_replies(&escaped, 1).err(), malformed);
}

/// A stack of 255 nodes or more costs five bytes in a real `BURST` reply,
/// and the reply still decodes to the in-process burst.
#[test]
fn a_long_stack_escapes_its_length_in_a_real_burst() {
    let node = GenNode { state: 3, depth: 1 };
    let idle = Stack::from_frames(Vec::new());
    let stacks = [
        Stack::from_frames(vec![vec![node; 300]]),
        idle.clone(),
        Stack::from_frames(vec![vec![node; 2]]),
        idle,
    ];
    let (reply, want, want_lens) = burst_session(&stacks, 1);
    assert!(want_lens[0] >= u32::from(LEN_ESCAPE) && want_lens[1] < u32::from(LEN_ESCAPE));
    assert_eq!(reply.len(), BURST_HEADER + 5 + 1);
    assert_eq!(decoded_burst(&reply, 2), Ok((want, want_lens)));
}

/// A well-formed frame that is not a well-formed request for this worker
/// ends the session with a typed error after every earlier request was
/// answered — it never panics.
#[test]
fn malformed_requests_are_typed_errors() {
    let stack = encoded(&Stack::from_frames(vec![vec![GenNode { state: 7, depth: 1 }; 3]]));
    let give = Give::Split(SplitPolicy::Bottom);
    let entry = |donor, receiver| Transfer { donor, receiver, max_nodes: 5 };
    let mut trailing = transfer_request(give, &[entry(0, Some(1))]);
    trailing.push(0);
    let cases: [(&str, u8, Vec<u8>); 9] = [
        ("MOVE donor", tag::MOVE, transfer_request(give, &[entry(LOCAL_P, Some(1))])),
        ("MOVE receiver", tag::MOVE, transfer_request(give, &[entry(0, Some(LOCAL_P))])),
        (
            "counted MOVE donor",
            tag::MOVE,
            transfer_request(Give::Counted, &[entry(u32::MAX, Some(1))]),
        ),
        ("EXTRACT donor", tag::EXTRACT, transfer_request(give, &[entry(LOCAL_P, None)])),
        (
            "counted EXTRACT donor",
            tag::EXTRACT,
            transfer_request(Give::Counted, &[entry(LOCAL_P, None)]),
        ),
        ("INSTALL PE", tag::INSTALL, install_request(&[(LOCAL_P, &stack)])),
        ("MOVE onto the donor", tag::MOVE, transfer_request(give, &[entry(0, Some(0))])),
        ("trailing bytes", tag::MOVE, trailing),
        ("unknown transfer kind", tag::EXTRACT, {
            let mut bytes = transfer_request(give, &[entry(0, None)]);
            bytes[8] = 9;
            bytes
        }),
    ];
    for (what, t, payload) in cases {
        // An in-range session first: the worker holds state when the bad
        // request arrives.
        let requests = [
            (tag::INSTALL, install_request(&[(0, &stack)])),
            (tag::MOVE, transfer_request(give, &[entry(0, Some(1))])),
            (t, payload),
            (tag::SHUTDOWN, Vec::new()),
        ];
        let (replies, result) = session(&requests);
        assert_eq!(replies.len(), 2, "{what}: the in-range requests were answered, nothing after");
        assert!(
            matches!(result, Err(WorkerError::Codec(CodecError::Malformed(_)))),
            "{what}: {result:?}"
        );
    }

    let (replies, result) = session(&[(99, Vec::new()), (tag::SHUTDOWN, Vec::new())]);
    assert!(matches!(result, Err(WorkerError::UnexpectedTag(99))), "{result:?}");
    assert!(replies.is_empty());
    let (_, result) = session(&[(tag::HELLO, Vec::new())]);
    assert!(
        matches!(result, Err(WorkerError::UnexpectedTag(tag::HELLO))),
        "second HELLO: {result:?}"
    );
    let (_, result) = session(&[]);
    assert!(
        matches!(result, Err(WorkerError::Wire(_))),
        "input ending without SHUTDOWN: {result:?}"
    );

    // A peer built before the frame sum changed: a well-formed `HELLO` in
    // the same frame layout, summed with byte-serial FNV-1a. The worker and
    // its coordinator are one executable, so there is no version to
    // negotiate — the first frame fails its checksum and nothing is served.
    let payload = hello_payload(LOCAL_P);
    let mut frame = vec![tag::HELLO];
    frame.extend_from_slice(&0u64.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame.extend_from_slice(&fnv1a_64(&frame).to_le_bytes());
    let mut output = Vec::new();
    let result = serve(&frame[..], &mut output);
    assert!(
        matches!(result, Err(WorkerError::Wire(WireError::ChecksumMismatch))),
        "HELLO under the old frame sum: {result:?}"
    );
    assert!(output.is_empty(), "nothing is acknowledged");
}

/// A `HELLO` naming a workload no constructor accepts is refused before
/// anything is acknowledged: a board that is not a permutation (which
/// panicked building the puzzle), a geometric tree deeper than 64 and a
/// supercritical binomial tree (each a search that does not end).
#[test]
fn hostile_hello_workloads_are_typed_errors() {
    let supercritical = GenFamily::Binomial { b0: 4, m: 4, q_threshold: u64::MAX / 2 };
    let cases: [(&str, ShardWorkload); 3] = [
        ("board", ShardWorkload::Puzzle { board: u64::MAX, bound: 40 }),
        ("depth", GenTree::geometric(1, 8, 65).into()),
        ("binomial", GenTree { seed: 1, family: supercritical }.into()),
    ];
    for (what, workload) in cases {
        let hello = Hello { lo: 0, hi: 4, seed_root: true, kill_at_burst: None, workload };
        let mut payload = Vec::new();
        hello.encode(&mut payload);
        let mut input = Vec::new();
        let mut writer = FrameWriter::new(&mut input);
        writer.send(tag::HELLO, &payload).expect("write to a Vec");
        writer.send(tag::BURST, &1u64.to_le_bytes()).expect("write to a Vec");
        writer.send(tag::SHUTDOWN, &[]).expect("write to a Vec");
        let mut output = Vec::new();
        let result = serve(&input[..], &mut output);
        assert!(
            matches!(result, Err(WorkerError::Codec(CodecError::Malformed(_)))),
            "{what}: {result:?}"
        );
        assert!(output.is_empty(), "{what}: nothing is acknowledged");
    }
}

/// How far a transfer entry's PE index moves from the previous one's:
/// a step, forward or back, a gap that needs the escape, or anything.
fn arb_step() -> impl Strategy<Value = i64> {
    prop_oneof![
        -3i64..=3,
        1i64..=127,
        -127i64..=-1,
        128i64..70_000,
        -70_000i64..-128,
        any::<i32>().prop_map(i64::from),
    ]
}

/// The zigzag code of PE index `pe` after `prev` on the wire.
fn zigzag(prev: u32, pe: u32) -> u32 {
    let delta = pe.wrapping_sub(prev) as i32;
    ((delta << 1) ^ (delta >> 31)) as u32
}

/// The numbers a `give` round's request carries per entry, in wire order:
/// each PE index's zigzag code, then a counted entry's `max_nodes`.
fn entry_fields(give: Give, entries: &[Transfer]) -> Vec<u32> {
    let prevs = std::iter::once(&Transfer::START).chain(entries);
    let mut fields = Vec::new();
    for (entry, prev) in entries.iter().zip(prevs) {
        fields.push(zigzag(prev.donor, entry.donor));
        if let Some(receiver) = entry.receiver {
            fields.push(zigzag(prev.receiver.unwrap_or(0), receiver));
        }
        if give == Give::Counted {
            fields.push(entry.max_nodes);
        }
    }
    fields
}

/// A transfer request written field by field, field `escaped` (if any)
/// in the non-canonical escaped form.
fn request_from_fields(give: Give, n: usize, fields: &[u32], escaped: Option<usize>) -> Vec<u8> {
    let mut out = Vec::new();
    begin_list(&mut out);
    give.put(&mut out);
    for (j, &field) in fields.iter().enumerate() {
        if escaped == Some(j) {
            out.push(LEN_ESCAPE);
            out.extend_from_slice(&field.to_le_bytes());
        } else {
            put_len(&mut out, field);
        }
    }
    set_count(&mut out, n);
    out
}

proptest! {
    /// `MOVE` and `EXTRACT` requests over any index sequence — rising,
    /// falling, wrapping past the top of the range as the GP pointer does,
    /// with gaps that need the escape — round-trip, cost one byte per
    /// field below the escape and five from there up, and stop reading at
    /// the first index that lands outside the worker's range.
    #[test]
    fn transfer_requests_round_trip_any_index_sequence(
        local_p in prop_oneof![2u32..300, 300u32..1 << 20, Just(u32::MAX)],
        start in (any::<u32>(), any::<u32>()),
        steps in collection::vec((arb_step(), arb_step(), 0u32..600), 0..40),
        give in arb_give(),
        local in any::<bool>(),
    ) {
        let t = if local { tag::MOVE } else { tag::EXTRACT };
        let modulo = i64::from(local_p);
        let (mut donor, mut receiver) = (i64::from(start.0) % modulo, i64::from(start.1) % modulo);
        let mut entries = Vec::new();
        for &(donor_step, receiver_step, max_nodes) in &steps {
            donor = (donor + donor_step).rem_euclid(modulo);
            receiver = (receiver + receiver_step).rem_euclid(modulo);
            if receiver == donor {
                receiver = (donor + 1) % modulo;
            }
            entries.push(Transfer {
                donor: donor as u32,
                receiver: local.then_some(receiver as u32),
                max_nodes: if give == Give::Counted { max_nodes } else { 0 },
            });
        }
        let bytes = transfer_request(give, &entries);
        let fields = entry_fields(give, &entries);
        let cost: usize = fields.iter().map(|&f| if f < u32::from(LEN_ESCAPE) { 1 } else { 5 }).sum();
        prop_assert_eq!(bytes.len(), 9 + cost);
        prop_assert_eq!(&bytes, &request_from_fields(give, entries.len(), &fields, None));
        let given: Vec<(Give, Transfer)> = entries.iter().map(|&entry| (give, entry)).collect();
        prop_assert_eq!(transfers_of(t, &bytes, local_p as usize), Ok(given));
        assert_only_whole(&bytes, |b| transfers_of(t, b, local_p as usize).is_ok());

        let top = entries.iter().flat_map(|e| [Some(e.donor), e.receiver]).flatten().max();
        if let Some(top) = top {
            prop_assert_eq!(
                transfers_of(t, &bytes, top as usize),
                Err(CodecError::Malformed("PE index outside the worker's range"))
            );
        }
    }
}

/// Every way a `MOVE` or `EXTRACT` request can go wrong in one pass —
/// cut short at any byte, one byte too long, an index that lands outside
/// the worker (past its top, or below 0 by wrapping), a field escaped
/// though it fits one byte — ends the session with a typed error, after
/// the request before it was answered and before anything after it is.
#[test]
fn malformed_transfer_requests_end_the_session() {
    const WIDE: u32 = 300;
    let stack = encoded(&Stack::from_frames(vec![vec![GenNode { state: 7, depth: 1 }; 5]]));
    let install = (tag::INSTALL, install_request(&[(0, &stack), (5, &stack), (299, &stack)]));
    let ends_typed = |t: u8, payload: Vec<u8>, what: &str| {
        let requests = [install.clone(), (t, payload), (tag::SHUTDOWN, Vec::new())];
        let (replies, result) = session_of(WIDE, &requests);
        assert_eq!(replies.len(), 1, "{what}: INSTALL answered, nothing after");
        assert!(matches!(result, Err(WorkerError::Codec(_))), "{what}: {result:?}");
    };
    // Rising, falling, and gaps that take the escape at both ends.
    let pairs = [(0u32, 1u32), (299, 2), (5, 298), (6, 4)];
    for (t, give) in [
        (tag::MOVE, Give::Split(SplitPolicy::Bottom)),
        (tag::MOVE, Give::Counted),
        (tag::EXTRACT, Give::Counted),
    ] {
        let entry = |(donor, receiver): (u32, u32)| Transfer {
            donor,
            receiver: (t == tag::MOVE).then_some(receiver),
            max_nodes: if give == Give::Counted { 2 } else { 0 },
        };
        let entries: Vec<Transfer> = pairs.into_iter().map(entry).collect();
        let request = transfer_request(give, &entries);
        let whole = [install.clone(), (t, request.clone()), (tag::SHUTDOWN, Vec::new())];
        let (replies, result) = session_of(WIDE, &whole);
        assert!(result.is_ok(), "{result:?}");
        assert_eq!(replies.len(), 3);

        for n in 0..request.len() {
            ends_typed(t, request[..n].to_vec(), &format!("{n}-byte prefix"));
        }
        ends_typed(t, [&request[..], &[0]].concat(), "one byte more");
        for k in 0..entries.len() {
            for outside in [WIDE, u32::MAX] {
                let mut bad = entries.clone();
                bad[k].donor = outside;
                ends_typed(t, transfer_request(give, &bad), &format!("donor {k} at {outside}"));
                if t == tag::MOVE {
                    let mut bad = entries.clone();
                    bad[k].receiver = Some(outside);
                    let what = format!("receiver {k} at {outside}");
                    ends_typed(t, transfer_request(give, &bad), &what);
                }
            }
        }
        let fields = entry_fields(give, &entries);
        assert!(fields.iter().any(|&f| f >= u32::from(LEN_ESCAPE)), "some field escapes");
        for (j, _) in fields.iter().enumerate().filter(|(_, &f)| f < u32::from(LEN_ESCAPE)) {
            let escaped = request_from_fields(give, entries.len(), &fields, Some(j));
            ends_typed(t, escaped, &format!("field {j} escaped"));
        }
    }
}

/// A GP round of a real run — the stacks of a boundary snapshot, paired by
/// the engine's own GP matcher from the snapshot's global pointer — sent
/// as one `MOVE` to a worker owning every PE costs at most three bytes per
/// entry, and every transfer in it moves work.
#[test]
fn a_gp_round_costs_at_most_three_bytes_per_entry() {
    const P: usize = 1024;
    let tree = GenTree::geometric(1, 8, 8);
    let cfg = EngineConfig::new(P, Scheme::gp_dk(), CostModel::cm2());
    let armed = cfg.clone().with_checkpoint(CheckpointPolicy::every(1));
    run(&tree, &armed);
    let fingerprint = config_fingerprint(&cfg);
    let snapshots = armed.checkpoint.as_ref().expect("armed").sink.taken();
    // Of the boundaries whose round wraps past the top of the machine, as
    // the GP pointer makes it, the one whose round pairs the most PEs.
    let wraps = |pairs: &[Pair]| pairs.windows(2).any(|w| w[1].donor < w[0].donor);
    let (pairs, snapshot) = snapshots
        .iter()
        .map(|s| EngineSnapshot::<GenNode>::decode(&s.bytes, fingerprint).expect("snapshot"))
        .map(|snapshot| {
            let lens = snapshot.stacks.lens();
            let busy: Vec<bool> = lens.iter().map(|&len| len >= 2).collect();
            let idle: Vec<bool> = lens.iter().map(|&len| len == 0).collect();
            let mut matcher = MatchState::restore(Matching::Gp, snapshot.global_pointer);
            (matcher.match_round(&busy, &idle), snapshot)
        })
        .filter(|(pairs, _)| wraps(pairs))
        .max_by_key(|(pairs, _)| pairs.len())
        .expect("a boundary whose round wraps");
    assert!(pairs.len() >= 100, "a round of {} pairs", pairs.len());

    let give = Give::Split(SplitPolicy::Bottom);
    let entries: Vec<Transfer> = pairs
        .iter()
        .map(|pair| Transfer {
            donor: pair.donor as u32,
            receiver: Some(pair.receiver as u32),
            max_nodes: 0,
        })
        .collect();
    let request = transfer_request(give, &entries);
    let per_entry = (request.len() - 9) as f64 / entries.len() as f64;
    assert!(per_entry <= 3.0, "{per_entry:.2} bytes per MOVE entry");

    let blobs: Vec<(u32, Vec<u8>)> = (0..P)
        .filter(|&pe| snapshot.stacks.len_of(pe) > 0)
        .map(|pe| {
            let mut blob = Vec::new();
            snapshot.stacks.encode_pe(pe, &mut blob);
            (pe as u32, blob)
        })
        .collect();
    let installs: Vec<(u32, &[u8])> = blobs.iter().map(|(pe, blob)| (*pe, &blob[..])).collect();
    let requests = [
        (tag::INSTALL, install_request(&installs)),
        (tag::MOVE, request),
        (tag::SHUTDOWN, Vec::new()),
    ];
    let (replies, result) = session_of(P as u32, &requests);
    assert!(result.is_ok(), "{result:?}");
    let moved = move_replies(&replies[1], entries.len()).expect("MOVE reply");
    assert!(moved.iter().all(|e| e.moved > 0), "every GP donor can give");
}

/// A session's `SHUTDOWN` reply is the worker's memory use: this process's
/// peak resident set and minor faults, both non-zero where `/proc` is
/// readable and both zero where it is not.
#[test]
fn shutdown_reports_the_workers_memory() {
    let (replies, result) = session(&[(tag::SHUTDOWN, Vec::new())]);
    assert!(result.is_ok(), "{result:?}");
    let memory = WorkerMemory::decode(&replies[0]).expect("SHUTDOWN reply");
    let readable = std::fs::metadata("/proc/self/status").is_ok();
    assert_eq!(memory.peak_rss_kb > 0, readable, "{memory:?}");
    assert_eq!(memory.minor_faults > 0, readable, "{memory:?}");
    for cut in [&replies[0][..15], &[replies[0].as_slice(), &[0]].concat()] {
        assert!(WorkerMemory::decode(cut).is_err());
    }
}
