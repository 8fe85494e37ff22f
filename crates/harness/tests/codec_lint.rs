//! Lint: every message has one codec, declared once.
//!
//! `proto_io::WireMsg` is the only message trait, and its encoder and
//! decoder come from `proto_io::wire_codec!`, which generates both
//! halves from one layout declaration. This test fails the moment a
//! file under any crate's `src/` names the old `ProtoMsg` trait again,
//! or writes a `wire_encode`, `wire_take` or `wire_decode` by hand.
//! The one exception is the file that defines the trait, its trivial
//! impls for `()`, `u8` and `u64`, and the macro.

use std::path::Path;

mod common;
use common::rust_sources;

/// Where the trait and the macro live, relative to `crates/`.
const CODEC_HOME: &str = "proto-io/src/wire.rs";

#[test]
fn messages_declare_their_codec_through_the_one_macro() {
    let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/ parent exists");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(crates_dir).expect("read crates/") {
        let src = entry.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut files);
        }
    }
    for want in [
        CODEC_HOME,
        "core/src/wire.rs",
        "baselines/src/buddy.rs",
        "conformance/src/broken.rs",
    ] {
        assert!(
            files.iter().any(|p| p.ends_with(want)),
            "walk missed {want} — lint is broken"
        );
    }
    for path in files {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert!(
            !text.contains("ProtoMsg"),
            "{} names ProtoMsg: the message trait is proto_io::WireMsg",
            path.display()
        );
        if path.ends_with(CODEC_HOME) {
            continue;
        }
        for hand in ["fn wire_encode", "fn wire_take", "fn wire_decode"] {
            assert!(
                !text.contains(hand),
                "{} writes `{hand}` by hand: declare the layout with proto_io::wire_codec!",
                path.display()
            );
        }
    }
}
