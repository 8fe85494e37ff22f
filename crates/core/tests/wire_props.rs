//! Property-based tests of the wire codec: arbitrary messages round-trip,
//! arbitrary bytes never panic the decoder, and the bytes it accepts
//! re-encode to themselves.

use addrspace::{Addr, AddrBlock, AddrRecord, AddrStatus, AllocationTable};
use manet_sim::NodeId;
use proptest::prelude::*;
use proto_io::{WireError, WireMsg};
use qbac_core::{wire, Msg, QuorumOp};
use quorum::VersionStamp;
use samples::one_of_each;

mod samples;

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

fn arb_status() -> impl Strategy<Value = AddrStatus> {
    prop_oneof![
        Just(AddrStatus::Free),
        any::<u64>().prop_map(AddrStatus::Allocated),
        Just(AddrStatus::Vacant),
    ]
}

fn arb_record() -> impl Strategy<Value = AddrRecord> {
    (arb_status(), any::<u64>()).prop_map(|(status, s)| AddrRecord {
        status,
        stamp: VersionStamp::new(s),
    })
}

fn arb_table() -> impl Strategy<Value = AllocationTable> {
    prop::collection::vec((arb_addr(), arb_record()), 0..20)
        .prop_map(|entries| entries.into_iter().collect())
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (
            prop::option::of(arb_addr()),
            any::<bool>(),
            prop::option::of(arb_addr())
        )
            .prop_map(|(sender_ip, is_head, network_id)| Msg::Hello {
                sender_ip,
                is_head,
                network_id
            }),
        Just(Msg::ComReq),
        arb_node().prop_map(|requestor| Msg::ComReqFwd { requestor }),
        (
            arb_addr(),
            arb_addr(),
            arb_addr(),
            any::<u32>(),
            any::<u64>()
        )
            .prop_map(
                |(ip, configurer, network_id, spent_hops, auth)| Msg::ComCfg {
                    ip,
                    configurer,
                    network_id,
                    spent_hops,
                    auth
                }
            ),
        Just(Msg::ComAck),
        Just(Msg::ComRej),
        Just(Msg::ChReq),
        any::<u64>().prop_map(|available| Msg::ChPrp { available }),
        Just(Msg::ChCnf),
        (
            arb_block(),
            arb_addr(),
            arb_addr(),
            arb_addr(),
            any::<u32>(),
            prop::collection::vec((arb_addr(), arb_record()), 0..6)
        )
            .prop_map(|(block, ip, configurer, network_id, spent_hops, records)| {
                Msg::ChCfg {
                    block,
                    ip,
                    configurer,
                    network_id,
                    spent_hops,
                    records,
                }
            }),
        Just(Msg::ChAck),
        Just(Msg::ChRej),
        (any::<u64>(), arb_node(), arb_addr()).prop_map(|(seq, owner, addr)| Msg::QuorumClt {
            seq,
            op: QuorumOp::CheckAddr { owner, addr }
        }),
        (any::<u64>(), arb_node()).prop_map(|(seq, owner)| Msg::QuorumClt {
            seq,
            op: QuorumOp::SplitBlock { owner }
        }),
        (
            any::<u64>(),
            arb_node(),
            arb_node(),
            prop::collection::vec(arb_block(), 0..5)
        )
            .prop_map(|(seq, claimant, rival, blocks)| Msg::QuorumClt {
                seq,
                op: QuorumOp::ClaimBlocks {
                    claimant,
                    rival,
                    blocks
                }
            }),
        (any::<u64>(), any::<bool>(), any::<u64>(), any::<u64>()).prop_map(
            |(seq, grant, s, auth)| Msg::QuorumCfm {
                seq,
                grant,
                stamp: VersionStamp::new(s),
                auth
            }
        ),
        (arb_node(), arb_addr(), arb_record(), any::<u64>()).prop_map(
            |(owner, addr, record, auth)| Msg::QuorumCommit {
                owner,
                addr,
                record,
                auth,
            },
        ),
        (
            arb_node(),
            arb_addr(),
            prop::collection::vec(arb_block(), 0..5),
            arb_table(),
            any::<bool>()
        )
            .prop_map(|(owner, owner_ip, blocks, table, reply_requested)| {
                Msg::ReplicaPush {
                    owner,
                    owner_ip,
                    blocks,
                    table,
                    reply_requested,
                }
            }),
        (arb_addr(), arb_addr()).prop_map(|(configurer, ip)| Msg::UpdateLoc { configurer, ip }),
        (arb_addr(), arb_addr()).prop_map(|(configurer, ip)| Msg::ReturnAddr { configurer, ip }),
        Just(Msg::ReturnAddrAck),
        (
            prop::collection::vec(arb_block(), 0..4),
            arb_table(),
            arb_addr(),
            prop::collection::vec((arb_addr(), arb_node()), 0..6)
        )
            .prop_map(|(blocks, table, ip, members)| Msg::ReturnBlock {
                blocks,
                table,
                ip,
                members
            }),
        Just(Msg::ReturnBlockAck),
        Just(Msg::Resign),
        arb_addr().prop_map(|new_configurer| Msg::AllocatorChange { new_configurer }),
        (arb_node(), arb_addr(), arb_node(), arb_addr(), any::<u64>()).prop_map(
            |(target, target_ip, initiator, initiator_ip, auth)| Msg::AddrRec {
                target,
                target_ip,
                initiator,
                initiator_ip,
                auth
            }
        ),
        (arb_addr(), arb_addr(), arb_node(), arb_node()).prop_map(
            |(target_ip, ip, node, target)| Msg::RecRep {
                target_ip,
                ip,
                node,
                target
            }
        ),
        Just(Msg::RepReq),
        Just(Msg::RepAck),
        (arb_addr(), any::<bool>())
            .prop_map(|(network_id, force)| Msg::Reinit { network_id, force }),
        (
            arb_addr(),
            prop::collection::vec(arb_block(), 0..5),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(claimant_ip, blocks, claim_stamp, auth)| Msg::OwnClaim {
                claimant_ip,
                blocks,
                claim_stamp,
                auth,
            }),
        (
            prop::collection::vec(arb_block(), 0..5),
            prop::collection::vec((arb_addr(), arb_record()), 0..6)
        )
            .prop_map(|(blocks, records)| Msg::OwnGrant { blocks, records }),
    ]
}

/// Every sample round-trips, the samples' tag bytes are exactly
/// `1..=last`, and the tag after the last is unknown — so a variant
/// added to the declaration without a sample here fails loudly.
fn assert_covers_tag_space<M: WireMsg + PartialEq>(samples: &[M]) {
    let mut tags: Vec<u8> = Vec::new();
    for msg in samples {
        let mut bytes = Vec::new();
        msg.wire_encode(&mut bytes);
        assert_eq!(&M::wire_decode(&bytes).unwrap(), msg, "{msg:?}");
        tags.push(bytes[0]);
    }
    tags.sort_unstable();
    tags.dedup();
    let last = *tags.last().expect("non-empty");
    assert_eq!(
        tags,
        (1..=last).collect::<Vec<u8>>(),
        "sample list must cover every tag exactly once"
    );
    assert_eq!(
        M::wire_decode(&[last + 1]),
        Err(WireError::BadTag(last + 1)),
        "tag space grew: add the new variant to the samples"
    );
}

/// Deterministic exhaustiveness over both declared enums: `Msg`, and
/// the `QuorumOp` a `QuorumClt` carries.
#[test]
fn every_variant_round_trips() {
    let msgs = one_of_each();
    assert_covers_tag_space(&msgs);
    let ops: Vec<QuorumOp> = msgs
        .into_iter()
        .filter_map(|msg| match msg {
            Msg::QuorumClt { op, .. } => Some(op),
            _ => None,
        })
        .collect();
    assert_covers_tag_space(&ops);
}

/// A `ReplicaPush` whose table holds free records at `addrs`, in the
/// order given.
fn replica_push_with_table(addrs: [u32; 2]) -> Vec<u8> {
    let mut bytes = vec![0x0f];
    bytes.extend([0; 8 + 4 + 2]); // owner, owner_ip, no blocks
    bytes.extend(2u32.to_be_bytes());
    for addr in addrs {
        bytes.extend(addr.to_be_bytes());
        bytes.extend([0; 1 + 8]); // free, stamp 0
    }
    bytes.push(0); // reply_requested
    bytes
}

/// One message has one encoding: a flag byte is 0 or 1, and a table's
/// addresses strictly increase. Anything else would decode to a message
/// that re-encodes to other bytes.
#[test]
fn non_canonical_bytes_are_rejected() {
    let hello = [0x01, 0x01, 0, 0, 0, 9, 0x01, 0x00];
    assert_eq!(
        wire::decode(&hello),
        Ok(Msg::Hello {
            sender_ip: Some(Addr::new(9)),
            is_head: true,
            network_id: None,
        })
    );
    for (at, flag) in [(1, 0x02), (6, 0x02), (7, 0xff)] {
        let mut bytes = hello;
        bytes[at] = flag;
        assert_eq!(wire::decode(&bytes), Err(WireError::BadFlag(flag)));
    }
    assert!(wire::decode(&replica_push_with_table([5, 6])).is_ok());
    for addrs in [[6, 5], [5, 5]] {
        assert_eq!(
            wire::decode(&replica_push_with_table(addrs)),
            Err(WireError::Unsorted),
            "{addrs:?}"
        );
    }
}

/// What every accepted input must satisfy: decoding is canonical, so a
/// decoded message encodes back to exactly the bytes it came from.
fn assert_reencodes(bytes: &[u8]) {
    if let Ok(msg) = wire::decode(bytes) {
        assert_eq!(&wire::encode(&msg)[..], bytes, "{msg:?}");
    }
}

proptest! {
    /// Every encodable message decodes back to itself.
    #[test]
    fn roundtrip(msg in arb_msg()) {
        let bytes = wire::encode(&msg);
        prop_assert_eq!(wire::decode(&bytes).unwrap(), msg);
    }

    /// Mutation fuzz: flipping bits of a valid encoding never panics
    /// the decoder — it either reports a `WireError` or decodes to some
    /// message that re-encodes to the flipped bytes (the codec carries
    /// no checksum, so a payload flip can legally yield a different
    /// valid message, but never a second spelling of one).
    #[test]
    fn byte_flips_never_panic(
        msg in arb_msg(),
        pos in any::<u64>(),
        mask in 1u16..256,
        extra in prop::option::of((any::<u64>(), 1u16..256)),
    ) {
        let mut bytes = wire::encode(&msg).to_vec();
        let i = (pos % bytes.len() as u64) as usize;
        bytes[i] ^= mask as u8;
        if let Some((pos2, mask2)) = extra {
            let j = (pos2 % bytes.len() as u64) as usize;
            bytes[j] ^= mask2 as u8;
        }
        assert_reencodes(&bytes);
    }

    /// Truncating an encoded message is always detected (never panics,
    /// never silently succeeds with different content).
    #[test]
    fn truncation_never_panics(msg in arb_msg(), cut in 0usize..64) {
        let bytes = wire::encode(&msg);
        let cut = cut.min(bytes.len().saturating_sub(1));
        let sliced = &bytes[..cut];
        if let Ok(decoded) = wire::decode(sliced) { prop_assert_eq!(decoded, msg, "partial decode equal only if whole") }
    }

    /// Arbitrary garbage never panics the decoder, and what it accepts
    /// re-encodes to itself.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        assert_reencodes(&bytes);
    }

    /// Encoded length is consistent with `encoded_len`.
    #[test]
    fn encoded_len_matches(msg in arb_msg()) {
        prop_assert_eq!(wire::encoded_len(&msg), wire::encode(&msg).len());
    }
}
