//! Lint: a protocol's name picks its type in one place, over the set
//! its caller reaches.
//!
//! `conformance::for_protocol!` is the registry's one dispatch from a
//! name to a protocol type; every run that dispatches on a name goes
//! through it. Two checks, outside the file that defines the macro:
//!
//! * a registry name, written as a string literal, must not head a
//!   match arm anywhere in the workspace's `crates/*/src`,
//!   `crates/*/tests` or `tests/` — that would be a second dispatch;
//! * no `crates/*/src` file may dispatch over `CHECKABLE`, all seven
//!   registered types. A program caller names the smaller set it can
//!   reach (`PROTOCOLS`, `AUDITED`, `MESH`), so it compiles no run body
//!   for a protocol it never runs; `run_named` and tests keep the full
//!   set.

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

/// Lines of `text` where `for_protocol!` is called over `CHECKABLE`.
fn all_seven_calls(text: &str) -> Vec<usize> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| line.contains("for_protocol!(CHECKABLE:"))
        .map(|(i, _)| i + 1)
        .collect()
}

#[test]
fn the_lint_sees_an_all_seven_call() {
    assert_eq!(
        all_seven_calls("let a = 1;\nfor_protocol!(CHECKABLE: name, P => P::name())\n"),
        [2]
    );
    assert!(all_seven_calls("for_protocol!(PROTOCOLS: name, P => P::name())\n").is_empty());
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
    let mut all_seven = Vec::new();
    for path in files {
        if path.ends_with(REGISTRY_HOME) {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        for (line, name) in name_arms(&text) {
            offenders.push(format!("{}:{line}: \"{name}\"", path.display()));
        }
        let in_src = path.strip_prefix(crates_dir).is_ok_and(|rel| {
            rel.components()
                .nth(1)
                .is_some_and(|c| c.as_os_str() == "src")
        });
        if in_src {
            for line in all_seven_calls(&text) {
                all_seven.push(format!("{}:{line}", path.display()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "a protocol name is matched outside the registry; dispatch with \
         conformance::for_protocol! instead:\n{}",
        offenders.join("\n")
    );
    assert!(
        all_seven.is_empty(),
        "program code dispatches over all seven registered types; name the \
         set the caller reaches (PROTOCOLS, AUDITED, MESH) instead:\n{}",
        all_seven.join("\n")
    );
}
