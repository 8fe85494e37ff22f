//! Lint: a protocol's name picks its type in one place.
//!
//! `conformance::for_protocol!` is the registry's one `match` from a
//! name to a protocol type; every run that dispatches on a name goes
//! through it. This test fails the moment a registry name, written as a
//! string literal, heads a match arm anywhere in the workspace's
//! `crates/*/src`, `crates/*/tests` or `tests/`, outside the file that
//! defines the macro.

use conformance::registry::CHECKABLE;
use std::path::Path;

mod common;
use common::rust_sources;

/// Where the macro lives, relative to `crates/`.
const REGISTRY_HOME: &str = "conformance/src/registry.rs";

/// Lines of `text` where the literal `"name"` of a registry name is
/// followed, past any whitespace, by `=>`.
fn name_arms(text: &str) -> Vec<(usize, &'static str)> {
    let mut found = Vec::new();
    for name in CHECKABLE {
        let literal = format!("\"{name}\"");
        for (at, _) in text.match_indices(&literal) {
            if text[at + literal.len()..].trim_start().starts_with("=>") {
                found.push((text[..at].matches('\n').count() + 1, name));
            }
        }
    }
    found
}

#[test]
fn the_lint_sees_an_arm() {
    assert_eq!(
        name_arms("match p {\n    \"dad\"\n        => 1,\n"),
        [(2, "dad")]
    );
    assert!(name_arms("let d = \"dad\";\nx => \"dad\",\n\"dadx\" => 1").is_empty());
}

#[test]
fn only_the_registry_matches_a_protocol_name_to_a_type() {
    let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/ parent exists");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(crates_dir).expect("read crates/") {
        let krate = entry.expect("directory entry").path();
        for sub in ["src", "tests"] {
            if krate.join(sub).is_dir() {
                rust_sources(&krate.join(sub), &mut files);
            }
        }
    }
    rust_sources(
        &crates_dir.parent().expect("workspace root").join("tests"),
        &mut files,
    );
    for want in [
        REGISTRY_HOME,
        "harness/src/sweep.rs",
        "conformance/tests/generation.rs",
        "tests/cross_protocol.rs",
    ] {
        assert!(
            files.iter().any(|p| p.ends_with(want)),
            "walk missed {want} — lint is broken"
        );
    }
    let mut offenders = Vec::new();
    for path in files {
        if path.ends_with(REGISTRY_HOME) {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        for (line, name) in name_arms(&text) {
            offenders.push(format!("{}:{line}: \"{name}\"", path.display()));
        }
    }
    assert!(
        offenders.is_empty(),
        "a protocol name is matched outside the registry; dispatch with \
         conformance::for_protocol! instead:\n{}",
        offenders.join("\n")
    );
}
