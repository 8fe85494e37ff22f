//! The binary wire format of QBAC's messages.
//!
//! The simulator passes [`Msg`] values by clone, but a deployable
//! implementation needs an on-air encoding. The layout below is the
//! one declaration of it: [`proto_io::wire_codec!`] generates the
//! encoder and the decoder, and the transcript and the UDP mesh both
//! use them, so a transcript pins the encoding itself.
//!
//! Layout: one tag byte, then fields in order, integers big-endian.
//! Tables are encoded as `(count, [addr, status, owner?, stamp]*)`.
//!
//! # Example
//!
//! ```
//! use qbac_core::{wire, Msg};
//!
//! let msg = Msg::ComReq;
//! let bytes = wire::encode(&msg);
//! assert_eq!(wire::decode(&bytes)?, msg);
//! # Ok::<(), qbac_core::wire::WireError>(())
//! ```

use crate::msg::{Msg, QuorumOp};
use bytes::Bytes;
pub use proto_io::WireError;
use proto_io::WireMsg;

proto_io::wire_codec! {
    Msg {
        Hello = 0x01 { sender_ip: opt_addr, is_head: bool, network_id: opt_addr },
        ComReq = 0x02,
        ComCfg = 0x03 { ip: addr, configurer: addr, network_id: addr, spent_hops: u32, auth: u64 },
        ComAck = 0x04,
        ComRej = 0x05,
        ChReq = 0x06,
        ChPrp = 0x07 { available: u64 },
        ChCnf = 0x08,
        ChCfg = 0x09 {
            block: block, ip: addr, configurer: addr, network_id: addr, spent_hops: u32,
            records: [u32; addr, record],
        },
        ChAck = 0x0a,
        ChRej = 0x0b,
        QuorumClt = 0x0c { seq: u64, op: QuorumOp },
        QuorumCfm = 0x0d { seq: u64, grant: bool, stamp: stamp, auth: u64 },
        QuorumCommit = 0x0e { owner: node, addr: addr, record: record, auth: u64 },
        ReplicaPush = 0x0f {
            owner: node, owner_ip: addr, blocks: [u16; block], table: table, reply_requested: bool,
        },
        UpdateLoc = 0x10 { configurer: addr, ip: addr },
        ReturnAddr = 0x11 { configurer: addr, ip: addr },
        ReturnAddrAck = 0x12,
        ReturnBlock = 0x13 {
            blocks: [u16; block], table: table, ip: addr, members: [u32; addr, node],
        },
        ReturnBlockAck = 0x14,
        Resign = 0x15,
        AllocatorChange = 0x16 { new_configurer: addr },
        AddrRec = 0x17 {
            target: node, target_ip: addr, initiator: node, initiator_ip: addr, auth: u64,
        },
        RecRep = 0x18 { target_ip: addr, ip: addr, node: node, target: node },
        RepReq = 0x19,
        RepAck = 0x1a,
        ComReqFwd = 0x1b { requestor: node },
        Reinit = 0x1c { network_id: addr, force: bool },
        OwnClaim = 0x1d { claimant_ip: addr, blocks: [u16; block], claim_stamp: u64, auth: u64 },
        OwnGrant = 0x1e { blocks: [u16; block], records: [u32; addr, record] },
    }

    QuorumOp {
        CheckAddr = 0x01 { owner: node, addr: addr },
        SplitBlock = 0x02 { owner: node },
        ClaimBlocks = 0x03 { claimant: node, rival: node, blocks: [u16; block] },
    }
}

/// Encodes a message into a fresh buffer.
#[must_use]
pub fn encode(msg: &Msg) -> Bytes {
    let mut b = Vec::with_capacity(16);
    msg.wire_encode(&mut b);
    Bytes::from(b)
}

/// Encoded size in bytes (encodes the message to count them).
#[must_use]
pub fn encoded_len(msg: &Msg) -> usize {
    encode(msg).len()
}

/// Decodes the one message a buffer holds.
///
/// # Errors
///
/// Returns [`WireError`] on truncated input, unknown tags, non-canonical
/// flags or tables, or bytes left over after the message.
pub fn decode(buf: &[u8]) -> Result<Msg, WireError> {
    Msg::wire_decode(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use addrspace::{Addr, AddrBlock, AddrRecord, AddrStatus, AllocationTable};
    use proto_io::NodeId;
    use quorum::VersionStamp;

    fn samples() -> Vec<Msg> {
        let mut table = AllocationTable::new();
        table.set(Addr::new(5), AddrStatus::Allocated(7));
        table.set(Addr::new(6), AddrStatus::Vacant);
        vec![
            Msg::Hello {
                sender_ip: Some(Addr::new(9)),
                is_head: true,
                network_id: None,
            },
            Msg::ComReq,
            Msg::ComReqFwd {
                requestor: NodeId::new(3),
            },
            Msg::ComCfg {
                ip: Addr::new(1),
                configurer: Addr::new(2),
                network_id: Addr::new(0),
                spent_hops: 12,
                auth: 0xdead_beef,
            },
            Msg::ComAck,
            Msg::ComRej,
            Msg::ChReq,
            Msg::ChPrp { available: 99 },
            Msg::ChCnf,
            Msg::ChCfg {
                block: AddrBlock::new(Addr::new(16), 16).unwrap(),
                ip: Addr::new(16),
                configurer: Addr::new(0),
                network_id: Addr::new(0),
                spent_hops: 4,
                records: vec![(
                    Addr::new(20),
                    AddrRecord {
                        status: AddrStatus::Allocated(9),
                        stamp: VersionStamp::new(1),
                    },
                )],
            },
            Msg::ChAck,
            Msg::ChRej,
            Msg::QuorumClt {
                seq: 42,
                op: QuorumOp::CheckAddr {
                    owner: NodeId::new(1),
                    addr: Addr::new(8),
                },
            },
            Msg::QuorumClt {
                seq: 43,
                op: QuorumOp::SplitBlock {
                    owner: NodeId::new(2),
                },
            },
            Msg::QuorumCfm {
                seq: 42,
                grant: true,
                stamp: VersionStamp::new(5),
                auth: 7,
            },
            Msg::QuorumCommit {
                owner: NodeId::new(1),
                addr: Addr::new(8),
                record: AddrRecord {
                    status: AddrStatus::Allocated(33),
                    stamp: VersionStamp::new(2),
                },
                auth: 0x0bad_c0de,
            },
            Msg::ReplicaPush {
                owner: NodeId::new(4),
                owner_ip: Addr::new(32),
                blocks: vec![AddrBlock::new(Addr::new(32), 8).unwrap()],
                table: table.clone(),
                reply_requested: true,
            },
            Msg::UpdateLoc {
                configurer: Addr::new(0),
                ip: Addr::new(3),
            },
            Msg::ReturnAddr {
                configurer: Addr::new(0),
                ip: Addr::new(3),
            },
            Msg::ReturnAddrAck,
            Msg::ReturnBlock {
                blocks: vec![AddrBlock::new(Addr::new(64), 64).unwrap()],
                table,
                ip: Addr::new(64),
                members: vec![(Addr::new(65), NodeId::new(9))],
            },
            Msg::ReturnBlockAck,
            Msg::Resign,
            Msg::AllocatorChange {
                new_configurer: Addr::new(11),
            },
            Msg::AddrRec {
                target: NodeId::new(5),
                target_ip: Addr::new(50),
                initiator: NodeId::new(6),
                initiator_ip: Addr::new(60),
                auth: u64::MAX,
            },
            Msg::RecRep {
                target_ip: Addr::new(50),
                ip: Addr::new(51),
                node: NodeId::new(7),
                target: NodeId::new(5),
            },
            Msg::RepReq,
            Msg::RepAck,
            Msg::Reinit {
                network_id: Addr::new(77),
                force: true,
            },
            Msg::QuorumClt {
                seq: 44,
                op: QuorumOp::ClaimBlocks {
                    claimant: NodeId::new(1),
                    rival: NodeId::new(2),
                    blocks: vec![AddrBlock::new(Addr::new(128), 64).unwrap()],
                },
            },
            Msg::OwnClaim {
                claimant_ip: Addr::new(7),
                blocks: vec![AddrBlock::new(Addr::new(128), 64).unwrap()],
                claim_stamp: 3,
                auth: 0x1234_5678,
            },
            Msg::OwnGrant {
                blocks: vec![AddrBlock::new(Addr::new(128), 64).unwrap()],
                records: vec![(
                    Addr::new(130),
                    AddrRecord {
                        status: AddrStatus::Allocated(12),
                        stamp: VersionStamp::new(3),
                    },
                )],
            },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in samples() {
            let bytes = encode(&msg);
            let back = decode(&bytes).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn control_messages_are_tiny() {
        assert_eq!(encoded_len(&Msg::ComReq), 1);
        assert_eq!(encoded_len(&Msg::RepReq), 1);
        assert!(
            encoded_len(&Msg::ComCfg {
                ip: Addr::new(1),
                configurer: Addr::new(2),
                network_id: Addr::new(0),
                spent_hops: 0,
                auth: 0,
            }) <= 28
        );
    }

    #[test]
    fn truncation_is_detected() {
        for msg in samples() {
            let bytes = encode(&msg);
            for cut in 0..bytes.len() {
                assert_eq!(
                    decode(&bytes[..cut]),
                    Err(WireError::Truncated),
                    "cutting {msg:?} to {cut} bytes must be detected"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for msg in samples() {
            let mut padded = encode(&msg).to_vec();
            padded.push(0);
            assert_eq!(
                decode(&padded),
                Err(WireError::Trailing(1)),
                "padding {msg:?} must be detected"
            );
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(decode(&[0xff]).unwrap_err(), WireError::BadTag(0xff));
        assert_eq!(decode(&[]).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn replica_push_size_scales_with_table() {
        let small = Msg::ReplicaPush {
            owner: NodeId::new(1),
            owner_ip: Addr::new(0),
            blocks: vec![],
            table: AllocationTable::new(),
            reply_requested: false,
        };
        let mut table = AllocationTable::new();
        for i in 0..100 {
            table.set(Addr::new(i), AddrStatus::Allocated(u64::from(i)));
        }
        let big = Msg::ReplicaPush {
            owner: NodeId::new(1),
            owner_ip: Addr::new(0),
            blocks: vec![],
            table,
            reply_requested: false,
        };
        assert!(encoded_len(&big) > encoded_len(&small) + 100 * 10);
    }
}
