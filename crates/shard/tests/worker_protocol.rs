//! The worker's request loop, driven in process: request frames are
//! written into a buffer, [`uts_shard::serve`] runs over it, and the
//! replies are read back from the buffer it wrote.
//!
//! What only this suite sees: that a same-shard transfer (`MOVE`) and a
//! cross-shard one (`EXTRACT` on the donor, `INSTALL` on the receiver) are
//! the same operation — the coordinator picks between them per transfer,
//! and no end-to-end digest says which it picked — that no request,
//! however wrong its contents, makes the loop index out of bounds, and what
//! a `BURST` reply costs on the wire: one byte per started PE while its
//! stack holds fewer than 255 nodes.

use proptest::prelude::*;
use uts_ckpt::fnv1a_64;
use uts_ckpt::wire::{FrameReader, FrameWriter, WireError};
use uts_core::{expansion_burst, MergedBurst};
use uts_puzzle15::scrambled;
use uts_shard::proto::{
    begin_request, decode_burst_reply, decode_extract_reply, decode_install, decode_install_reply,
    decode_move_reply, decode_transfers, encode_burst, encode_burst_reply, encode_install_reply,
    put_install, put_len, set_count, tag, take_len, ExtractReply, Give, Hello, MoveReply, Transfer,
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

/// The `HELLO` of a fresh, unseeded worker of [`LOCAL_P`] PEs.
fn hello_payload() -> Vec<u8> {
    let hello = Hello {
        lo: 0,
        hi: u64::from(LOCAL_P),
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
    let mut input = Vec::new();
    let mut writer = FrameWriter::new(&mut input);
    writer.send(tag::HELLO, &hello_payload()).expect("write to a Vec");
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
    begin_request(&mut out);
    give.put(&mut out);
    entries.iter().for_each(|entry| entry.put(give, &mut out));
    set_count(&mut out, entries.len());
    out
}

fn install_request(entries: &[(u32, &[u8])]) -> Vec<u8> {
    let mut out = Vec::new();
    begin_request(&mut out);
    entries.iter().for_each(|&(pe, stack)| put_install(&mut out, pe, stack));
    set_count(&mut out, entries.len());
    out
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
        max_nodes in 0usize..12,
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
                arena.split_count_into(0, 1, max_nodes);
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
        let moved = decode_move_reply(&replies[1]).expect("MOVE reply")[0];
        prop_assert_eq!(moved.moved, want_moved);
        prop_assert_eq!((moved.donor_len, moved.receiver_len), want_lens);
        prop_assert_eq!(&replies[2], &want_bytes, "MOVE differs from the in-process transfer");

        let request = transfer_request(give, &[entry(None)]);
        let extracting = [install_all(&stacks), (tag::EXTRACT, request)];
        let (replies, _) = session(&extracting);
        let extracted = decode_extract_reply(&replies[1]).expect("EXTRACT reply")[0];
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
            let installed = decode_install_reply(&replies[2]).expect("INSTALL reply");
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
        prop_assert_eq!(decode_install_reply(&replies[0]).expect("INSTALL reply"), lens);
        prop_assert_eq!(&replies[1], &stacks.iter().flat_map(encoded).collect::<Vec<u8>>());
    }

    /// `MOVE` / `EXTRACT` / `INSTALL` requests round-trip, and no strict
    /// prefix of one decodes, nor one with a byte appended.
    #[test]
    fn request_codec_round_trips_and_rejects_every_prefix(
        give in arb_give(),
        local in any::<bool>(),
        raw in collection::vec((0..LOCAL_P, 1..LOCAL_P, 0usize..1000), 0..6),
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
        prop_assert_eq!(decode_transfers(t, &bytes, local_p), Ok((give, entries)));
        assert_only_whole(&bytes, |b| decode_transfers(t, b, local_p).is_ok());

        let entries: Vec<(u32, &[u8])> = blobs.iter().map(|(pe, blob)| (*pe, &blob[..])).collect();
        let bytes = install_request(&entries);
        prop_assert_eq!(decode_install(&bytes, local_p), Ok(entries));
        assert_only_whole(&bytes, |b| decode_install(b, local_p).is_ok());
    }

    /// The same for what the coordinator decodes — the four reply codecs —
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
        let mut bytes = Vec::new();
        encode_burst_reply(&mut bytes, &census, lens.iter().copied());
        prop_assert_eq!(decoded_burst(&bytes, started), Ok((census, lens)));
        assert_only_whole(&bytes, |b| decoded_burst(b, started).is_ok());

        let moves: Vec<MoveReply> = moves
            .iter()
            .map(|&(moved, donor_len, receiver_len)| MoveReply { moved, donor_len, receiver_len })
            .collect();
        let mut bytes = Vec::new();
        put_usize(&mut bytes, moves.len());
        moves.iter().for_each(|entry| entry.put(&mut bytes));
        prop_assert_eq!(decode_move_reply(&bytes), Ok(moves));
        assert_only_whole(&bytes, |b| decode_move_reply(b).is_ok());

        let extracts: Vec<ExtractReply<'_>> = extracts
            .iter()
            .map(|(moved, donor_len, stack)| ExtractReply {
                moved: *moved,
                donor_len: *donor_len,
                stack,
            })
            .collect();
        let mut bytes = Vec::new();
        put_usize(&mut bytes, extracts.len());
        extracts.iter().for_each(|entry| entry.put(&mut bytes));
        prop_assert_eq!(decode_extract_reply(&bytes), Ok(extracts));
        assert_only_whole(&bytes, |b| decode_extract_reply(b).is_ok());

        let mut bytes = Vec::new();
        encode_install_reply(&mut bytes, &installs);
        prop_assert_eq!(decode_install_reply(&bytes), Ok(installs));
        assert_only_whole(&bytes, |b| decode_install_reply(b).is_ok());

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
    let mut reply = Vec::new();
    encode_burst_reply(&mut reply, &census, [3, 300].into_iter());
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
    assert_eq!(decode_move_reply(&escaped).err(), malformed);
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
    let payload = hello_payload();
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
