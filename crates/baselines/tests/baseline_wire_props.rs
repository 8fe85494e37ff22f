//! Property tests of the buddy, C-tree and MANETconf wire codecs:
//! every message round-trips, arbitrary bytes and mutations of valid
//! encodings never panic the decoder, and every message it accepts
//! re-encodes to the bytes it came from. `every_variant_round_trips`
//! holds each baseline's samples (DAD's too) to its whole tag space.

use addrspace::{Addr, AddrBlock};
use baselines::buddy::BuddyMsg;
use baselines::ctree::CtMsg;
use baselines::dad::DadMsg;
use baselines::manetconf::McMsg;
use proptest::prelude::*;
use proto_io::{NodeId, WireError, WireMsg};

fn encode<M: WireMsg>(msg: &M) -> Vec<u8> {
    let mut out = Vec::new();
    msg.wire_encode(&mut out);
    out
}

/// What every accepted input must satisfy: decoding is canonical, so a
/// decoded message encodes back to the same bytes.
fn assert_reencodes<M: WireMsg>(bytes: &[u8]) {
    if let Ok(msg) = M::wire_decode(bytes) {
        assert_eq!(encode(&msg), bytes, "{msg:?}");
    }
}

/// Flips a byte of `msg`'s encoding, then cuts or extends it to `cut`
/// bytes; neither may panic the decoder or decode non-canonically.
fn assert_mutations_reencode<M: WireMsg>(msg: &M, pos: u64, mask: u8, cut: usize) {
    let mut bytes = encode(msg);
    let i = (pos % bytes.len() as u64) as usize;
    bytes[i] ^= mask;
    assert_reencodes::<M>(&bytes);
    bytes.resize(cut, mask);
    assert_reencodes::<M>(&bytes);
}

/// Every sample round-trips, the samples' tag bytes are exactly
/// `1..=last`, and the tag after the last is unknown — so a variant
/// added to a declaration without a sample here fails loudly.
fn assert_covers_tag_space<M: WireMsg + PartialEq>(samples: &[M]) {
    let mut tags: Vec<u8> = Vec::new();
    for msg in samples {
        let bytes = encode(msg);
        assert_eq!(&M::wire_decode(&bytes).unwrap(), msg, "{msg:?}");
        tags.push(bytes[0]);
    }
    tags.sort_unstable();
    tags.dedup();
    let last = *tags.last().expect("non-empty");
    assert_eq!(tags, (1..=last).collect::<Vec<u8>>(), "{samples:?}");
    assert_eq!(
        M::wire_decode(&[last + 1]),
        Err(WireError::BadTag(last + 1))
    );
}

#[test]
fn every_variant_round_trips() {
    let addr = Addr::new(0x0A00_0001);
    let block = AddrBlock::new(Addr::new(0x0A00_0000), 256).expect("valid");
    let node = NodeId::new(7);
    assert_covers_tag_space(&[
        BuddyMsg::Req,
        BuddyMsg::Assign {
            block,
            spent_hops: 2,
        },
        BuddyMsg::Reject,
        BuddyMsg::Sync { ip: addr, free: 9 },
        BuddyMsg::Departure {
            ip: addr,
            blocks: vec![block],
            heir: node,
        },
    ]);
    assert_covers_tag_space(&[
        CtMsg::Req,
        CtMsg::CoordReq,
        CtMsg::Assign {
            addr,
            spent_hops: 3,
        },
        CtMsg::CoordAssign {
            block,
            spent_hops: 4,
        },
        CtMsg::Reject,
        CtMsg::Report {
            ip: addr,
            pool_len: 256,
            free: 200,
        },
        CtMsg::ReturnAddr { addr },
        CtMsg::ReturnAck,
        CtMsg::Reclaim { target: node },
        CtMsg::ReclaimRep {
            addr,
            node,
            coordinator: NodeId::new(9),
        },
    ]);
    assert_covers_tag_space(&[
        McMsg::Req,
        McMsg::InitReq {
            addr,
            requestor: node,
        },
        McMsg::InitOk { addr },
        McMsg::InitNo { addr },
        McMsg::Assign {
            addr,
            spent_hops: 5,
        },
        McMsg::Commit { addr, owner: node },
        McMsg::Cleanup { addr },
    ]);
    assert_covers_tag_space(&[DadMsg::Areq { addr }, DadMsg::Arep { addr }]);
}

fn arb_addr() -> impl Strategy<Value = Addr> {
    any::<u32>().prop_map(Addr::new)
}

fn arb_node() -> impl Strategy<Value = NodeId> {
    any::<u64>().prop_map(NodeId::new)
}

fn arb_block() -> impl Strategy<Value = AddrBlock> {
    (0u32..u32::MAX / 2, 1u32..1_000_000).prop_map(|(base, len)| {
        AddrBlock::new(Addr::new(base), len).expect("bounded block is valid")
    })
}

fn arb_buddy() -> impl Strategy<Value = BuddyMsg> {
    prop_oneof![
        Just(BuddyMsg::Req),
        (arb_block(), any::<u32>())
            .prop_map(|(block, spent_hops)| BuddyMsg::Assign { block, spent_hops }),
        Just(BuddyMsg::Reject),
        (arb_addr(), any::<u64>()).prop_map(|(ip, free)| BuddyMsg::Sync { ip, free }),
        (
            arb_addr(),
            prop::collection::vec(arb_block(), 0..5),
            arb_node()
        )
            .prop_map(|(ip, blocks, heir)| BuddyMsg::Departure { ip, blocks, heir }),
    ]
}

fn arb_ctree() -> impl Strategy<Value = CtMsg> {
    prop_oneof![
        Just(CtMsg::Req),
        Just(CtMsg::CoordReq),
        (arb_addr(), any::<u32>())
            .prop_map(|(addr, spent_hops)| CtMsg::Assign { addr, spent_hops }),
        (arb_block(), any::<u32>())
            .prop_map(|(block, spent_hops)| CtMsg::CoordAssign { block, spent_hops }),
        Just(CtMsg::Reject),
        (arb_addr(), any::<u64>(), any::<u64>()).prop_map(|(ip, pool_len, free)| CtMsg::Report {
            ip,
            pool_len,
            free
        }),
        arb_addr().prop_map(|addr| CtMsg::ReturnAddr { addr }),
        Just(CtMsg::ReturnAck),
        arb_node().prop_map(|target| CtMsg::Reclaim { target }),
        (arb_addr(), arb_node(), arb_node()).prop_map(|(addr, node, coordinator)| {
            CtMsg::ReclaimRep {
                addr,
                node,
                coordinator,
            }
        }),
    ]
}

fn arb_manetconf() -> impl Strategy<Value = McMsg> {
    prop_oneof![
        Just(McMsg::Req),
        (arb_addr(), arb_node()).prop_map(|(addr, requestor)| McMsg::InitReq { addr, requestor }),
        arb_addr().prop_map(|addr| McMsg::InitOk { addr }),
        arb_addr().prop_map(|addr| McMsg::InitNo { addr }),
        (arb_addr(), any::<u32>())
            .prop_map(|(addr, spent_hops)| McMsg::Assign { addr, spent_hops }),
        (arb_addr(), arb_node()).prop_map(|(addr, owner)| McMsg::Commit { addr, owner }),
        arb_addr().prop_map(|addr| McMsg::Cleanup { addr }),
    ]
}

proptest! {
    /// Every buddy message decodes back to itself.
    #[test]
    fn buddy_roundtrip(msg in arb_buddy()) {
        prop_assert_eq!(BuddyMsg::wire_decode(&encode(&msg)).unwrap(), msg);
    }

    /// Every C-tree message decodes back to itself.
    #[test]
    fn ctree_roundtrip(msg in arb_ctree()) {
        prop_assert_eq!(CtMsg::wire_decode(&encode(&msg)).unwrap(), msg);
    }

    /// Every MANETconf message decodes back to itself.
    #[test]
    fn manetconf_roundtrip(msg in arb_manetconf()) {
        prop_assert_eq!(McMsg::wire_decode(&encode(&msg)).unwrap(), msg);
    }

    /// Arbitrary bytes never panic any of the three decoders.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..40)) {
        assert_reencodes::<BuddyMsg>(&bytes);
        assert_reencodes::<CtMsg>(&bytes);
        assert_reencodes::<McMsg>(&bytes);
    }

    /// Flipping a byte of a valid buddy encoding, or cutting or
    /// extending it, never panics the decoder.
    #[test]
    fn buddy_mutations_never_panic(msg in arb_buddy(), pos in any::<u64>(), mask in 1u16..256, cut in 0usize..40) {
        assert_mutations_reencode(&msg, pos, mask as u8, cut);
    }

    /// The same for C-tree encodings.
    #[test]
    fn ctree_mutations_never_panic(msg in arb_ctree(), pos in any::<u64>(), mask in 1u16..256, cut in 0usize..30) {
        assert_mutations_reencode(&msg, pos, mask as u8, cut);
    }

    /// The same for MANETconf encodings.
    #[test]
    fn manetconf_mutations_never_panic(msg in arb_manetconf(), pos in any::<u64>(), mask in 1u16..256, cut in 0usize..16) {
        assert_mutations_reencode(&msg, pos, mask as u8, cut);
    }
}
