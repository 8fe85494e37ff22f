//! Fixture messages shared by the codec tests: one of every QBAC
//! variant. Included as a module by `wire_props.rs` and by the harness's
//! per-variant byte pin.

use addrspace::{Addr, AddrBlock, AddrRecord, AddrStatus, AllocationTable};
use proto_io::NodeId;
use qbac_core::{Msg, QuorumOp};
use quorum::VersionStamp;

/// One concrete instance of every `Msg` variant (and of both
/// `QuorumOp` payloads), with non-trivial table payloads where the
/// variant carries one. Paired with `every_variant_round_trips`, which
/// also proves the list is exhaustive over the codec's tag space.
pub fn one_of_each() -> Vec<Msg> {
    let addr = Addr::new(0x0A00_0001);
    let node = NodeId::new(7);
    let block = AddrBlock::new(Addr::new(0x0A00_0000), 256).expect("valid");
    let record = AddrRecord {
        status: AddrStatus::Allocated(9),
        stamp: VersionStamp::new(3),
    };
    let table: AllocationTable = vec![
        (addr, record),
        (
            Addr::new(0x0A00_0002),
            AddrRecord {
                status: AddrStatus::Vacant,
                stamp: VersionStamp::new(8),
            },
        ),
        (
            Addr::new(0x0A00_0003),
            AddrRecord {
                status: AddrStatus::Free,
                stamp: VersionStamp::new(0),
            },
        ),
    ]
    .into_iter()
    .collect();
    vec![
        Msg::Hello {
            sender_ip: Some(addr),
            is_head: true,
            network_id: None,
        },
        Msg::ComReq,
        Msg::ComReqFwd { requestor: node },
        Msg::ComCfg {
            ip: addr,
            configurer: addr,
            network_id: addr,
            spent_hops: 4,
            auth: 0xfeed,
        },
        Msg::ComAck,
        Msg::ComRej,
        Msg::ChReq,
        Msg::ChPrp { available: 1024 },
        Msg::ChCnf,
        Msg::ChCfg {
            block,
            ip: addr,
            configurer: addr,
            network_id: addr,
            spent_hops: 2,
            records: vec![(addr, record)],
        },
        Msg::ChAck,
        Msg::ChRej,
        Msg::QuorumClt {
            seq: 5,
            op: QuorumOp::CheckAddr { owner: node, addr },
        },
        Msg::QuorumClt {
            seq: 6,
            op: QuorumOp::SplitBlock { owner: node },
        },
        Msg::QuorumClt {
            seq: 7,
            op: QuorumOp::ClaimBlocks {
                claimant: node,
                rival: NodeId::new(9),
                blocks: vec![block],
            },
        },
        Msg::QuorumCfm {
            seq: 5,
            grant: true,
            stamp: VersionStamp::new(11),
            auth: 13,
        },
        Msg::QuorumCommit {
            owner: node,
            addr,
            record,
            auth: 29,
        },
        Msg::ReplicaPush {
            owner: node,
            owner_ip: addr,
            blocks: vec![block],
            table: table.clone(),
            reply_requested: true,
        },
        Msg::UpdateLoc {
            configurer: addr,
            ip: addr,
        },
        Msg::ReturnAddr {
            configurer: addr,
            ip: addr,
        },
        Msg::ReturnAddrAck,
        Msg::ReturnBlock {
            blocks: vec![block],
            table,
            ip: addr,
            members: vec![(addr, node)],
        },
        Msg::ReturnBlockAck,
        Msg::Resign,
        Msg::AllocatorChange {
            new_configurer: addr,
        },
        Msg::AddrRec {
            target: node,
            target_ip: addr,
            initiator: NodeId::new(9),
            initiator_ip: addr,
            auth: 17,
        },
        Msg::RecRep {
            target_ip: addr,
            ip: addr,
            node,
            target: NodeId::new(9),
        },
        Msg::RepReq,
        Msg::RepAck,
        Msg::Reinit {
            network_id: addr,
            force: false,
        },
        Msg::OwnClaim {
            claimant_ip: addr,
            blocks: vec![block],
            claim_stamp: 19,
            auth: 23,
        },
        Msg::OwnGrant {
            blocks: vec![block],
            records: vec![(addr, record)],
        },
    ]
}
