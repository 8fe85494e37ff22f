//! Lint: the alternate topology engines gain no consumer in `harness`.
//!
//! `IncrementalTopology` and `Topology::build_parallel` lost their own
//! microbench and survive only because the frozen `perf/` probes time
//! them. The benchmark PR that retires those probe rows deletes the
//! engines; this test keeps `harness` out of that PR's way by failing
//! the moment a file under `crates/harness/src` names either again.

use std::path::Path;

mod common;
use common::rust_sources;

#[test]
fn harness_sources_do_not_name_the_alternate_engines() {
    let mut files = Vec::new();
    rust_sources(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("src"),
        &mut files,
    );
    assert!(
        files.iter().any(|p| p.ends_with("bin/repro.rs")),
        "walk missed src/bin — lint is broken: {files:?}"
    );
    for path in files {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        for name in ["IncrementalTopology", "build_parallel"] {
            assert!(
                !text.contains(name),
                "{} mentions {name}: the alternate engines are kept for perf/ alone",
                path.display()
            );
        }
    }
}
