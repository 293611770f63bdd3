//! The worker's request loop, driven in process: request frames are
//! written into a buffer, [`uts_shard::serve`] runs over it, and the
//! replies are read back from the buffer it wrote.
//!
//! What only this suite sees: that a same-shard transfer (`MOVE`) and a
//! cross-shard one (`EXTRACT` on the donor, `INSTALL` on the receiver) are
//! the same operation — the coordinator picks between them per transfer,
//! and no end-to-end digest says which it picked — and that no request,
//! however wrong its contents, makes the loop index out of bounds.

use proptest::prelude::*;
use uts_ckpt::fnv1a_64;
use uts_ckpt::wire::{FrameReader, FrameWriter, WireError};
use uts_shard::proto::{
    begin_request, decode_extract_reply, decode_install, decode_install_reply, decode_move_reply,
    decode_transfers, encode_install_reply, put_install, set_count, tag, BurstReply, ExtractReply,
    Give, Hello, MoveReply, ShardWorkload, Transfer,
};
use uts_shard::{serve, WorkerError};
use uts_synthgen::{GenFamily, GenNode, GenTree};
use uts_tree::codec::put_usize;
use uts_tree::{CkptNode, CodecError, SearchStack, SplitPolicy, StackArena};

/// PEs of the worker under test.
const LOCAL_P: u32 = 4;

type Stack = SearchStack<GenNode>;

/// The `HELLO` of a fresh, unseeded worker of [`LOCAL_P`] PEs.
fn hello_payload() -> Vec<u8> {
    let hello = Hello {
        lo: 0,
        hi: u64::from(LOCAL_P),
        seed_root: false,
        kill_at_burst: None,
        workload: GenTree::geometric(1, 4, 4).into(),
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

fn arb_give() -> impl Strategy<Value = Give> {
    prop_oneof![
        Just(Give::Split(SplitPolicy::Bottom)),
        Just(Give::Split(SplitPolicy::Half)),
        Just(Give::Split(SplitPolicy::Top)),
        Just(Give::Counted),
    ]
}

fn arb_hello() -> impl Strategy<Value = Hello> {
    let workload = prop_oneof![
        (any::<u64>(), any::<u32>())
            .prop_map(|(board, bound)| ShardWorkload::Puzzle { board, bound }),
        (any::<u64>(), any::<u32>(), any::<u32>()).prop_map(|(seed, b_max, depth_limit)| {
            GenTree { seed, family: GenFamily::Geometric { b_max, depth_limit } }.into()
        }),
        (any::<u64>(), any::<u32>(), any::<u32>(), any::<u64>()).prop_map(
            |(seed, b0, m, q_threshold)| {
                GenTree { seed, family: GenFamily::Binomial { b0, m, q_threshold } }.into()
            }
        ),
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

/// Assert that a decoder takes `bytes` and nothing near it: no strict prefix,
/// and not `bytes` with one more byte.
fn assert_only_whole(bytes: &[u8], accepts: impl Fn(&[u8]) -> bool) {
    let longer = [bytes, &[0]].concat();
    let accepted: Vec<usize> = (0..=longer.len()).filter(|&n| accepts(&longer[..n])).collect();
    assert_eq!(accepted, [bytes.len()], "lengths at which the message, cut or padded, decodes");
}

proptest! {
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
        let want_moved = (before - arena.len_of(0)) as u64;
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
            (any::<u64>(), any::<u64>(), any::<u64>()),
            collection::vec(any::<u64>(), 0..6),
            collection::vec((0..LOCAL_P, any::<u32>()), 0..6),
        ),
        moves in collection::vec((any::<u64>(), any::<u32>(), any::<u32>()), 0..6),
        extracts in collection::vec(
            (any::<u64>(), any::<u32>(), collection::vec(any::<u8>(), 0..9)),
            0..6,
        ),
        installs in collection::vec(any::<u32>(), 0..6),
        hello in arb_hello(),
    ) {
        let local_p = LOCAL_P as usize;
        let ((started, goals, peak), deaths, changed) = burst;
        let reply = BurstReply { started, goals, peak, deaths, changed };
        let mut bytes = Vec::new();
        reply.encode(&mut bytes);
        prop_assert_eq!(BurstReply::decode(&bytes, local_p), Ok(reply));
        assert_only_whole(&bytes, |b| BurstReply::decode(b, local_p).is_ok());

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
