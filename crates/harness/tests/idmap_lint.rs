//! Lint: simulator-keyed maps hash with `proto_io::IdMap`, not SipHash.
//!
//! Every key the simulator, the protocols, the oracle, the mesh transport
//! and the harness hash is one they made themselves (node ids, addresses,
//! timer ids), so std's keyed SipHash buys nothing there and costs a share
//! of every delivery. This test fails the moment a file under the `src/`
//! of one of those crates names std's `HashMap` or `HashSet` again.

use std::path::Path;

mod common;
use common::rust_sources;

const CRATES: [&str; 6] = [
    "manet-sim",
    "core",
    "baselines",
    "conformance",
    "transport-mesh",
    "harness",
];

#[test]
fn simulator_crates_do_not_name_std_hash_maps() {
    let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/ parent exists");
    let mut files = Vec::new();
    for name in CRATES {
        rust_sources(&crates_dir.join(name).join("src"), &mut files);
    }
    for want in [
        "manet-sim/src/world.rs",
        "core/src/protocol.rs",
        "transport-mesh/src/lib.rs",
        "harness/src/bin/repro.rs",
    ] {
        assert!(
            files.iter().any(|p| p.ends_with(want)),
            "walk missed {want} — lint is broken"
        );
    }
    for path in files {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        for name in ["HashMap", "HashSet"] {
            assert!(
                !text.contains(name),
                "{} names {name}: use proto_io::IdMap / IdSet for simulator keys",
                path.display()
            );
        }
    }
}
