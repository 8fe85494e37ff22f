//! Binary wire format for protocol messages.
//!
//! The simulator passes [`Msg`] values by clone, but a deployable
//! implementation needs an on-air encoding. This module provides a
//! compact, length-delimited binary codec over [`bytes`], used by the
//! harness to report *byte* overhead next to the paper's hop counts —
//! a measurement the paper does not give but a deployment would want.
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
use addrspace::{Addr, AddrBlock, AddrRecord, AddrStatus, AllocationTable};
use bytes::{Buf, BufMut, Bytes};
use proto_io::NodeId;
use quorum::VersionStamp;
use std::error::Error;
use std::fmt;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ended before the message did.
    Truncated,
    /// Unknown message or status tag.
    BadTag(u8),
    /// A decoded block was structurally invalid.
    BadBlock,
    /// A whole message decoded and this many bytes were left over.
    Trailing(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag(t) => write!(f, "unknown tag {t:#04x}"),
            WireError::BadBlock => write!(f, "invalid address block"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after the message"),
        }
    }
}

impl Error for WireError {}

mod tags {
    pub const HELLO: u8 = 0x01;
    pub const COM_REQ: u8 = 0x02;
    pub const COM_CFG: u8 = 0x03;
    pub const COM_ACK: u8 = 0x04;
    pub const COM_REJ: u8 = 0x05;
    pub const CH_REQ: u8 = 0x06;
    pub const CH_PRP: u8 = 0x07;
    pub const CH_CNF: u8 = 0x08;
    pub const CH_CFG: u8 = 0x09;
    pub const CH_ACK: u8 = 0x0a;
    pub const CH_REJ: u8 = 0x0b;
    pub const QUORUM_CLT: u8 = 0x0c;
    pub const QUORUM_CFM: u8 = 0x0d;
    pub const QUORUM_COMMIT: u8 = 0x0e;
    pub const REPLICA_PUSH: u8 = 0x0f;
    pub const UPDATE_LOC: u8 = 0x10;
    pub const RETURN_ADDR: u8 = 0x11;
    pub const RETURN_ADDR_ACK: u8 = 0x12;
    pub const RETURN_BLOCK: u8 = 0x13;
    pub const RETURN_BLOCK_ACK: u8 = 0x14;
    pub const RESIGN: u8 = 0x15;
    pub const ALLOCATOR_CHANGE: u8 = 0x16;
    pub const ADDR_REC: u8 = 0x17;
    pub const REC_REP: u8 = 0x18;
    pub const REP_REQ: u8 = 0x19;
    pub const REP_ACK: u8 = 0x1a;
    pub const COM_REQ_FWD: u8 = 0x1b;
    pub const REINIT: u8 = 0x1c;
    pub const OWN_CLAIM: u8 = 0x1d;
    pub const OWN_GRANT: u8 = 0x1e;

    pub const OP_CHECK: u8 = 0x01;
    pub const OP_SPLIT: u8 = 0x02;
    pub const OP_CLAIM: u8 = 0x03;

    pub const ST_FREE: u8 = 0x00;
    pub const ST_ALLOC: u8 = 0x01;
    pub const ST_VACANT: u8 = 0x02;
}

/// Encodes a message into a fresh buffer.
#[must_use]
pub fn encode(msg: &Msg) -> Bytes {
    let mut b = Vec::with_capacity(16);
    put_msg(&mut b, msg);
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
/// Returns [`WireError`] on truncated input, unknown tags, or bytes
/// left over after the message: a datagram is exactly one encoding, so
/// padding is an injection surface, not slack.
pub fn decode(buf: &[u8]) -> Result<Msg, WireError> {
    let mut cur = buf;
    let msg = take_msg(&mut cur)?;
    if !cur.is_empty() {
        return Err(WireError::Trailing(cur.len()));
    }
    Ok(msg)
}

/// Transcripts canonicalize QBAC messages as their wire encoding, so
/// transcript equality across backends also proves the codec round-trips
/// (the mesh records what it decoded off the socket; the simulator
/// records what it encoded).
impl proto_io::ProtoMsg for Msg {
    fn canon(&self, out: &mut Vec<u8>) {
        put_msg(out, self);
    }
}

impl proto_io::WireMsg for Msg {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        put_msg(out, self);
    }

    fn wire_decode(bytes: &[u8]) -> Result<Self, String> {
        decode(bytes).map_err(|e| e.to_string())
    }
}

fn put_msg(b: &mut Vec<u8>, msg: &Msg) {
    match msg {
        Msg::Hello {
            sender_ip,
            is_head,
            network_id,
        } => {
            b.put_u8(tags::HELLO);
            put_opt_addr(b, *sender_ip);
            b.put_u8(u8::from(*is_head));
            put_opt_addr(b, *network_id);
        }
        Msg::ComReq => b.put_u8(tags::COM_REQ),
        Msg::ComReqFwd { requestor } => {
            b.put_u8(tags::COM_REQ_FWD);
            put_node(b, *requestor);
        }
        Msg::ComCfg {
            ip,
            configurer,
            network_id,
            spent_hops,
            auth,
        } => {
            b.put_u8(tags::COM_CFG);
            put_addr(b, *ip);
            put_addr(b, *configurer);
            put_addr(b, *network_id);
            b.put_u32(*spent_hops);
            b.put_u64(*auth);
        }
        Msg::ComAck => b.put_u8(tags::COM_ACK),
        Msg::ComRej => b.put_u8(tags::COM_REJ),
        Msg::ChReq => b.put_u8(tags::CH_REQ),
        Msg::ChPrp { available } => {
            b.put_u8(tags::CH_PRP);
            b.put_u64(*available);
        }
        Msg::ChCnf => b.put_u8(tags::CH_CNF),
        Msg::ChCfg {
            block,
            ip,
            configurer,
            network_id,
            spent_hops,
            records,
        } => {
            b.put_u8(tags::CH_CFG);
            put_block(b, *block);
            put_addr(b, *ip);
            put_addr(b, *configurer);
            put_addr(b, *network_id);
            b.put_u32(*spent_hops);
            b.put_u32(records.len() as u32);
            for (a, r) in records {
                put_addr(b, *a);
                put_record(b, *r);
            }
        }
        Msg::ChAck => b.put_u8(tags::CH_ACK),
        Msg::ChRej => b.put_u8(tags::CH_REJ),
        Msg::QuorumClt { seq, op } => {
            b.put_u8(tags::QUORUM_CLT);
            b.put_u64(*seq);
            match op {
                QuorumOp::CheckAddr { owner, addr } => {
                    b.put_u8(tags::OP_CHECK);
                    put_node(b, *owner);
                    put_addr(b, *addr);
                }
                QuorumOp::SplitBlock { owner } => {
                    b.put_u8(tags::OP_SPLIT);
                    put_node(b, *owner);
                }
                QuorumOp::ClaimBlocks {
                    claimant,
                    rival,
                    blocks,
                } => {
                    b.put_u8(tags::OP_CLAIM);
                    put_node(b, *claimant);
                    put_node(b, *rival);
                    b.put_u16(blocks.len() as u16);
                    for blk in blocks {
                        put_block(b, *blk);
                    }
                }
            }
        }
        Msg::QuorumCfm {
            seq,
            grant,
            stamp,
            auth,
        } => {
            b.put_u8(tags::QUORUM_CFM);
            b.put_u64(*seq);
            b.put_u8(u8::from(*grant));
            b.put_u64(stamp.get());
            b.put_u64(*auth);
        }
        Msg::QuorumCommit {
            owner,
            addr,
            record,
            auth,
        } => {
            b.put_u8(tags::QUORUM_COMMIT);
            put_node(b, *owner);
            put_addr(b, *addr);
            put_record(b, *record);
            b.put_u64(*auth);
        }
        Msg::ReplicaPush {
            owner,
            owner_ip,
            blocks,
            table,
            reply_requested,
        } => {
            b.put_u8(tags::REPLICA_PUSH);
            put_node(b, *owner);
            put_addr(b, *owner_ip);
            b.put_u16(blocks.len() as u16);
            for blk in blocks {
                put_block(b, *blk);
            }
            put_table(b, table);
            b.put_u8(u8::from(*reply_requested));
        }
        Msg::UpdateLoc { configurer, ip } => {
            b.put_u8(tags::UPDATE_LOC);
            put_addr(b, *configurer);
            put_addr(b, *ip);
        }
        Msg::ReturnAddr { configurer, ip } => {
            b.put_u8(tags::RETURN_ADDR);
            put_addr(b, *configurer);
            put_addr(b, *ip);
        }
        Msg::ReturnAddrAck => b.put_u8(tags::RETURN_ADDR_ACK),
        Msg::ReturnBlock {
            blocks,
            table,
            ip,
            members,
        } => {
            b.put_u8(tags::RETURN_BLOCK);
            b.put_u16(blocks.len() as u16);
            for blk in blocks {
                put_block(b, *blk);
            }
            put_table(b, table);
            put_addr(b, *ip);
            b.put_u32(members.len() as u32);
            for (a, n) in members {
                put_addr(b, *a);
                put_node(b, *n);
            }
        }
        Msg::ReturnBlockAck => b.put_u8(tags::RETURN_BLOCK_ACK),
        Msg::Resign => b.put_u8(tags::RESIGN),
        Msg::AllocatorChange { new_configurer } => {
            b.put_u8(tags::ALLOCATOR_CHANGE);
            put_addr(b, *new_configurer);
        }
        Msg::AddrRec {
            target,
            target_ip,
            initiator,
            initiator_ip,
            auth,
        } => {
            b.put_u8(tags::ADDR_REC);
            put_node(b, *target);
            put_addr(b, *target_ip);
            put_node(b, *initiator);
            put_addr(b, *initiator_ip);
            b.put_u64(*auth);
        }
        Msg::RecRep {
            target_ip,
            ip,
            node,
            target,
        } => {
            b.put_u8(tags::REC_REP);
            put_addr(b, *target_ip);
            put_addr(b, *ip);
            put_node(b, *node);
            put_node(b, *target);
        }
        Msg::RepReq => b.put_u8(tags::REP_REQ),
        Msg::RepAck => b.put_u8(tags::REP_ACK),
        Msg::Reinit { network_id, force } => {
            b.put_u8(tags::REINIT);
            put_addr(b, *network_id);
            b.put_u8(u8::from(*force));
        }
        Msg::OwnClaim {
            claimant_ip,
            blocks,
            claim_stamp,
            auth,
        } => {
            b.put_u8(tags::OWN_CLAIM);
            put_addr(b, *claimant_ip);
            b.put_u16(blocks.len() as u16);
            for blk in blocks {
                put_block(b, *blk);
            }
            b.put_u64(*claim_stamp);
            b.put_u64(*auth);
        }
        Msg::OwnGrant { blocks, records } => {
            b.put_u8(tags::OWN_GRANT);
            b.put_u16(blocks.len() as u16);
            for blk in blocks {
                put_block(b, *blk);
            }
            b.put_u32(records.len() as u32);
            for (a, r) in records {
                put_addr(b, *a);
                put_record(b, *r);
            }
        }
    }
}

fn take_msg(cur: &mut &[u8]) -> Result<Msg, WireError> {
    let tag = take_u8(cur)?;
    Ok(match tag {
        tags::HELLO => Msg::Hello {
            sender_ip: take_opt_addr(cur)?,
            is_head: take_u8(cur)? != 0,
            network_id: take_opt_addr(cur)?,
        },
        tags::COM_REQ => Msg::ComReq,
        tags::COM_REQ_FWD => Msg::ComReqFwd {
            requestor: take_node(cur)?,
        },
        tags::COM_CFG => Msg::ComCfg {
            ip: take_addr(cur)?,
            configurer: take_addr(cur)?,
            network_id: take_addr(cur)?,
            spent_hops: take_u32(cur)?,
            auth: take_u64(cur)?,
        },
        tags::COM_ACK => Msg::ComAck,
        tags::COM_REJ => Msg::ComRej,
        tags::CH_REQ => Msg::ChReq,
        tags::CH_PRP => Msg::ChPrp {
            available: take_u64(cur)?,
        },
        tags::CH_CNF => Msg::ChCnf,
        tags::CH_CFG => {
            let block = take_block(cur)?;
            let ip = take_addr(cur)?;
            let configurer = take_addr(cur)?;
            let network_id = take_addr(cur)?;
            let spent_hops = take_u32(cur)?;
            let n = take_u32(cur)?;
            let mut records = Vec::with_capacity((n as usize).min(1024));
            for _ in 0..n {
                records.push((take_addr(cur)?, take_record(cur)?));
            }
            Msg::ChCfg {
                block,
                ip,
                configurer,
                network_id,
                spent_hops,
                records,
            }
        }
        tags::CH_ACK => Msg::ChAck,
        tags::CH_REJ => Msg::ChRej,
        tags::QUORUM_CLT => {
            let seq = take_u64(cur)?;
            let op = match take_u8(cur)? {
                tags::OP_CHECK => QuorumOp::CheckAddr {
                    owner: take_node(cur)?,
                    addr: take_addr(cur)?,
                },
                tags::OP_SPLIT => QuorumOp::SplitBlock {
                    owner: take_node(cur)?,
                },
                tags::OP_CLAIM => {
                    let claimant = take_node(cur)?;
                    let rival = take_node(cur)?;
                    let n = take_u16(cur)?;
                    let mut blocks = Vec::with_capacity(usize::from(n).min(1024));
                    for _ in 0..n {
                        blocks.push(take_block(cur)?);
                    }
                    QuorumOp::ClaimBlocks {
                        claimant,
                        rival,
                        blocks,
                    }
                }
                t => return Err(WireError::BadTag(t)),
            };
            Msg::QuorumClt { seq, op }
        }
        tags::QUORUM_CFM => Msg::QuorumCfm {
            seq: take_u64(cur)?,
            grant: take_u8(cur)? != 0,
            stamp: VersionStamp::new(take_u64(cur)?),
            auth: take_u64(cur)?,
        },
        tags::QUORUM_COMMIT => Msg::QuorumCommit {
            owner: take_node(cur)?,
            addr: take_addr(cur)?,
            record: take_record(cur)?,
            auth: take_u64(cur)?,
        },
        tags::REPLICA_PUSH => {
            let owner = take_node(cur)?;
            let owner_ip = take_addr(cur)?;
            let n = take_u16(cur)?;
            let mut blocks = Vec::with_capacity(usize::from(n).min(1024));
            for _ in 0..n {
                blocks.push(take_block(cur)?);
            }
            let table = take_table(cur)?;
            let reply_requested = take_u8(cur)? != 0;
            Msg::ReplicaPush {
                owner,
                owner_ip,
                blocks,
                table,
                reply_requested,
            }
        }
        tags::UPDATE_LOC => Msg::UpdateLoc {
            configurer: take_addr(cur)?,
            ip: take_addr(cur)?,
        },
        tags::RETURN_ADDR => Msg::ReturnAddr {
            configurer: take_addr(cur)?,
            ip: take_addr(cur)?,
        },
        tags::RETURN_ADDR_ACK => Msg::ReturnAddrAck,
        tags::RETURN_BLOCK => {
            let n = take_u16(cur)?;
            let mut blocks = Vec::with_capacity(usize::from(n).min(1024));
            for _ in 0..n {
                blocks.push(take_block(cur)?);
            }
            let table = take_table(cur)?;
            let ip = take_addr(cur)?;
            let m = take_u32(cur)?;
            let mut members = Vec::with_capacity((m as usize).min(1024));
            for _ in 0..m {
                members.push((take_addr(cur)?, take_node(cur)?));
            }
            Msg::ReturnBlock {
                blocks,
                table,
                ip,
                members,
            }
        }
        tags::RETURN_BLOCK_ACK => Msg::ReturnBlockAck,
        tags::RESIGN => Msg::Resign,
        tags::ALLOCATOR_CHANGE => Msg::AllocatorChange {
            new_configurer: take_addr(cur)?,
        },
        tags::ADDR_REC => Msg::AddrRec {
            target: take_node(cur)?,
            target_ip: take_addr(cur)?,
            initiator: take_node(cur)?,
            initiator_ip: take_addr(cur)?,
            auth: take_u64(cur)?,
        },
        tags::REC_REP => Msg::RecRep {
            target_ip: take_addr(cur)?,
            ip: take_addr(cur)?,
            node: take_node(cur)?,
            target: take_node(cur)?,
        },
        tags::REP_REQ => Msg::RepReq,
        tags::REP_ACK => Msg::RepAck,
        tags::REINIT => Msg::Reinit {
            network_id: take_addr(cur)?,
            force: take_u8(cur)? != 0,
        },
        tags::OWN_CLAIM => {
            let claimant_ip = take_addr(cur)?;
            let n = take_u16(cur)?;
            let mut blocks = Vec::with_capacity(usize::from(n).min(1024));
            for _ in 0..n {
                blocks.push(take_block(cur)?);
            }
            let claim_stamp = take_u64(cur)?;
            let auth = take_u64(cur)?;
            Msg::OwnClaim {
                claimant_ip,
                blocks,
                claim_stamp,
                auth,
            }
        }
        tags::OWN_GRANT => {
            let n = take_u16(cur)?;
            let mut blocks = Vec::with_capacity(usize::from(n).min(1024));
            for _ in 0..n {
                blocks.push(take_block(cur)?);
            }
            let m = take_u32(cur)?;
            let mut records = Vec::with_capacity((m as usize).min(1024));
            for _ in 0..m {
                records.push((take_addr(cur)?, take_record(cur)?));
            }
            Msg::OwnGrant { blocks, records }
        }
        t => return Err(WireError::BadTag(t)),
    })
}

// ---------------------------------------------------------------------
// Field helpers
// ---------------------------------------------------------------------

fn put_addr(b: &mut Vec<u8>, a: Addr) {
    b.put_u32(a.bits());
}

fn put_opt_addr(b: &mut Vec<u8>, a: Option<Addr>) {
    match a {
        Some(a) => {
            b.put_u8(1);
            put_addr(b, a);
        }
        None => b.put_u8(0),
    }
}

fn put_node(b: &mut Vec<u8>, n: NodeId) {
    b.put_u64(n.index());
}

fn put_block(b: &mut Vec<u8>, blk: AddrBlock) {
    put_addr(b, blk.base());
    b.put_u32(blk.len());
}

fn put_record(b: &mut Vec<u8>, r: AddrRecord) {
    match r.status {
        AddrStatus::Free => b.put_u8(tags::ST_FREE),
        AddrStatus::Allocated(owner) => {
            b.put_u8(tags::ST_ALLOC);
            b.put_u64(owner);
        }
        AddrStatus::Vacant => b.put_u8(tags::ST_VACANT),
    }
    b.put_u64(r.stamp.get());
}

fn put_table(b: &mut Vec<u8>, t: &AllocationTable) {
    b.put_u32(t.len() as u32);
    for (addr, rec) in t.iter() {
        put_addr(b, addr);
        put_record(b, rec);
    }
}

fn take_u8(cur: &mut &[u8]) -> Result<u8, WireError> {
    if cur.remaining() < 1 {
        return Err(WireError::Truncated);
    }
    Ok(cur.get_u8())
}

fn take_u16(cur: &mut &[u8]) -> Result<u16, WireError> {
    if cur.remaining() < 2 {
        return Err(WireError::Truncated);
    }
    Ok(cur.get_u16())
}

fn take_u32(cur: &mut &[u8]) -> Result<u32, WireError> {
    if cur.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    Ok(cur.get_u32())
}

fn take_u64(cur: &mut &[u8]) -> Result<u64, WireError> {
    if cur.remaining() < 8 {
        return Err(WireError::Truncated);
    }
    Ok(cur.get_u64())
}

fn take_addr(cur: &mut &[u8]) -> Result<Addr, WireError> {
    Ok(Addr::new(take_u32(cur)?))
}

fn take_opt_addr(cur: &mut &[u8]) -> Result<Option<Addr>, WireError> {
    match take_u8(cur)? {
        0 => Ok(None),
        _ => Ok(Some(take_addr(cur)?)),
    }
}

fn take_node(cur: &mut &[u8]) -> Result<NodeId, WireError> {
    Ok(NodeId::new(take_u64(cur)?))
}

fn take_block(cur: &mut &[u8]) -> Result<AddrBlock, WireError> {
    let base = take_addr(cur)?;
    let len = take_u32(cur)?;
    AddrBlock::new(base, len).map_err(|_| WireError::BadBlock)
}

fn take_record(cur: &mut &[u8]) -> Result<AddrRecord, WireError> {
    let status = match take_u8(cur)? {
        tags::ST_FREE => AddrStatus::Free,
        tags::ST_ALLOC => AddrStatus::Allocated(take_u64(cur)?),
        tags::ST_VACANT => AddrStatus::Vacant,
        t => return Err(WireError::BadTag(t)),
    };
    let stamp = VersionStamp::new(take_u64(cur)?);
    Ok(AddrRecord { status, stamp })
}

fn take_table(cur: &mut &[u8]) -> Result<AllocationTable, WireError> {
    let n = take_u32(cur)?;
    // The count is attacker-controlled: cap the pre-allocation; a lying
    // count runs out of buffer long before the cap matters.
    let mut entries = Vec::with_capacity((n as usize).min(1024));
    for _ in 0..n {
        let addr = take_addr(cur)?;
        let rec = take_record(cur)?;
        entries.push((addr, rec));
    }
    Ok(entries.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

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
