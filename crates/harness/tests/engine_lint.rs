//! Lint: the alternate topology engines gain no consumer in `harness`.
//!
//! `IncrementalTopology` and `Topology::build_parallel` lost their own
//! microbench and survive only because the frozen `perf/` probes time
//! them. The benchmark PR that retires those probe rows deletes the
//! engines; this test keeps `harness` out of that PR's way by failing
//! the moment a file under `crates/harness/src` names either again.

use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

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
