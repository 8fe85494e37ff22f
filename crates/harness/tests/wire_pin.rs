//! The per-variant byte pin: one FNV-1a over the encodings of one
//! message of every QBAC variant and of both DAD variants.
//!
//! The transcript and mesh pins hold only the layouts their schedules
//! happen to send; the storm and squat cells never send `OwnClaim`,
//! `ReturnBlock` or a `ClaimBlocks` poll. This pin holds every layout,
//! so a codec rewrite that moves one byte of any variant fails here.

#[path = "../../core/tests/samples/mod.rs"]
mod samples;

use addrspace::Addr;
use baselines::dad::DadMsg;
use proto_io::{fnv1a, WireMsg};

#[test]
fn every_variant_encodes_to_its_pinned_bytes() {
    let mut bytes = Vec::new();
    for msg in samples::one_of_each() {
        msg.wire_encode(&mut bytes);
    }
    let addr = Addr::new(0x0A00_0001);
    for msg in [DadMsg::Areq { addr }, DadMsg::Arep { addr }] {
        msg.wire_encode(&mut bytes);
    }
    assert_eq!(
        (bytes.len(), format!("fnv1a:{:016x}", fnv1a(&bytes))),
        (574, "fnv1a:4308109993329c23".to_owned())
    );
}
