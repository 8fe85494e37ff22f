//! Lint: every settable field of the workspace's config structs has a
//! caller that sets it.
//!
//! A field that only its own `Default` impl ever fills is a constant
//! dressed up as an option: it widens the API, and every reader has to
//! ask whether some run sets it differently. This test scans the
//! non-test source of the workspace (`crates/*/src`, `src`, `perf/src`
//! and `examples`) and fails when a `pub` field of [`CONFIGS`] is set
//! nowhere outside its `Default` impl: by a struct literal, an
//! assignment, or (for `Scenario`) a call of the builder setter that
//! writes it. A field kept for tests alone goes on [`ALLOWED`] with the
//! reason no constant can replace it.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

mod common;
use common::rust_sources;

/// The config structs and the file that defines each, under `crates/`.
const CONFIGS: [(&str, &str); 4] = [
    ("ProtocolConfig", "core/src/params.rs"),
    ("WorldConfig", "manet-sim/src/world.rs"),
    ("Scenario", "harness/src/scenario.rs"),
    ("DadConfig", "baselines/src/dad.rs"),
];

/// Fields only tests set, each with why a test needs a second value.
const ALLOWED: [(&str, &str, &str); 3] = [
    (
        "ProtocolConfig",
        "space",
        "core tests shrink the space to reach exhaustion and borrowing",
    ),
    (
        "DadConfig",
        "space",
        "dad.rs tests shrink it to one or two addresses to force collisions",
    ),
    (
        "WorldConfig",
        "topology_quantum",
        "topology_differential's quantum axis reaches the re-key and per-instant paths",
    ),
];

/// `text` with comments and the insides of string and char literals
/// blanked to spaces, so braces and `name:` patterns in them do not
/// count. Byte offsets and newlines are kept.
fn mask(text: &str) -> String {
    let b = text.as_bytes();
    let mut out = b.to_vec();
    let blank = |out: &mut Vec<u8>, from: usize, to: usize| {
        for c in &mut out[from..to] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
    };
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let end = text[i..].find('\n').map_or(b.len(), |n| i + n);
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let end = text[i + 2..].find("*/").map_or(b.len(), |n| i + 2 + n + 2);
                blank(&mut out, i, end);
                i = end;
            }
            b'r' if matches!(b.get(i + 1), Some(b'"' | b'#'))
                && !b[i.saturating_sub(1)].is_ascii_alphanumeric() =>
            {
                let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
                let open = i + 1 + hashes;
                if b.get(open) != Some(&b'"') {
                    i += 1;
                    continue;
                }
                let close = format!("\"{}", "#".repeat(hashes));
                let end = text[open + 1..]
                    .find(&close)
                    .map_or(b.len(), |n| open + 1 + n + close.len());
                blank(&mut out, open, end);
                i = end;
            }
            b'"' => {
                let mut j = i + 1;
                while j < b.len() && b[j] != b'"' {
                    j += if b[j] == b'\\' { 2 } else { 1 };
                }
                let end = (j + 1).min(b.len());
                blank(&mut out, i, end);
                i = end;
            }
            // A char literal, not a lifetime: `'x'` or `'\..'`.
            b'\'' if b.get(i + 1) == Some(&b'\\') || b.get(i + 2) == Some(&b'\'') => {
                let mut j = i + 2;
                while j < b.len() && b[j] != b'\'' {
                    j += 1;
                }
                let end = (j + 1).min(b.len());
                blank(&mut out, i, end);
                i = end;
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("masking keeps UTF-8: only ASCII and whole chars change")
}

/// Byte range of the `{ … }` block that opens at or after `from`.
fn block(text: &str, from: usize) -> (usize, usize) {
    let open = from + text[from..].find('{').expect("a block follows");
    let mut depth = 0usize;
    for (i, c) in text[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return (open, open + i + 1);
                }
            }
            _ => {}
        }
    }
    panic!("unbalanced block at byte {open}");
}

/// The comma-separated parts of a block's body at its own depth.
fn top_level_parts(body: &str) -> Vec<&str> {
    let (mut parts, mut depth, mut start) = (Vec::new(), 0i32, 0);
    for (i, c) in body.char_indices() {
        match c {
            '{' | '(' | '[' => depth += 1,
            '}' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&body[start..]);
    parts
}

fn leading_ident(part: &str) -> Option<&str> {
    let part = part.trim_start();
    let end = part
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(part.len());
    (end > 0).then(|| &part[..end])
}

/// Offsets of `word` standing alone (not part of a longer identifier).
fn word_at(text: &str, word: &str) -> Vec<usize> {
    let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    text.match_indices(word)
        .map(|(i, _)| i)
        .filter(|&i| {
            let before = i.checked_sub(1).map(|j| text.as_bytes()[j]);
            let after = text.as_bytes().get(i + word.len()).copied();
            !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
        })
        .collect()
}

/// The word before offset `i`, skipping whitespace.
fn previous_word(text: &str, i: usize) -> &str {
    let head = text[..i].trim_end();
    let start = head
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '>' || c == '-'))
        .map_or(0, |j| j + 1);
    &head[start..]
}

/// One scanned file: its masked text and the byte ranges that do not
/// count as setting anything (the config's own `Default` impl and the
/// scenario builder's setter bodies).
struct Source {
    path: PathBuf,
    text: String,
    excluded: Vec<(usize, usize)>,
}

impl Source {
    fn counts(&self, i: usize) -> bool {
        !self.excluded.iter().any(|&(a, b)| a <= i && i < b)
    }
}

/// Blanks each `#[cfg(test)]` item (a test module, most often) out of
/// the masked text, so only shipped code counts.
fn strip_test_items(text: &mut String) {
    while let Some(at) = text.find("#[cfg(test)]") {
        let next = text[at..].find(['{', ';']).map_or(text.len(), |n| at + n);
        let end = if text.as_bytes().get(next) == Some(&b'{') {
            block(text, at).1
        } else {
            (next + 1).min(text.len())
        };
        let blanked: String = text[at..end]
            .chars()
            .map(|c| if c == '\n' { '\n' } else { ' ' })
            .collect();
        text.replace_range(at..end, &blanked);
    }
}

#[test]
fn every_config_field_is_set_outside_its_default() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = entry.expect("crate dir").path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut files);
        }
    }
    for dir in ["src", "perf/src", "examples"] {
        rust_sources(&root.join(dir), &mut files);
    }
    for want in [
        "crates/core/src/params.rs",
        "crates/harness/src/bin/repro.rs",
        "perf/src/workloads/mesh_udp.rs",
        "examples/campus_mesh.rs",
    ] {
        assert!(
            files.iter().any(|p| p.ends_with(want)),
            "walk missed {want} — lint is broken"
        );
    }

    let mut sources: Vec<Source> = files
        .into_iter()
        .map(|path| {
            let raw = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            let mut text = mask(&raw);
            strip_test_items(&mut text);
            Source {
                path,
                text,
                excluded: Vec::new(),
            }
        })
        .collect();

    // Each config's fields, from its definition; its `Default` impl is
    // excluded from the scan.
    let mut fields: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for (name, file) in CONFIGS {
        let src = sources
            .iter_mut()
            .find(|s| s.path.ends_with(Path::new("crates").join(file)))
            .unwrap_or_else(|| panic!("{file} not scanned"));
        let def = src
            .text
            .find(&format!("pub struct {name} {{"))
            .unwrap_or_else(|| panic!("{file} defines no `{name}`"));
        let (open, close) = block(&src.text, def);
        let names: Vec<String> = top_level_parts(&src.text[open + 1..close - 1])
            .into_iter()
            .filter_map(|part| part.trim_start().strip_prefix("pub "))
            .filter_map(leading_ident)
            .map(str::to_string)
            .collect();
        assert!(
            !names.is_empty(),
            "`{name}` has no pub fields — lint is broken"
        );
        fields.insert(name, names);
        let imp = src
            .text
            .find(&format!("impl Default for {name} {{"))
            .unwrap_or_else(|| panic!("{file} has no `impl Default for {name}`"));
        src.excluded.push(block(&src.text, imp));
    }

    // Scenario's builder setters, each mapped to the field it writes.
    let mut setters: BTreeMap<String, String> = BTreeMap::new();
    let scenario = sources
        .iter_mut()
        .find(|s| s.path.ends_with("crates/harness/src/scenario.rs"))
        .expect("scenario.rs scanned");
    let builder = block(
        &scenario.text,
        scenario
            .text
            .find("impl ScenarioBuilder {")
            .expect("ScenarioBuilder impl"),
    );
    for at in word_at(&scenario.text[builder.0..builder.1], "fn") {
        let at = builder.0 + at;
        let name = leading_ident(&scenario.text[at + 2..]).expect("fn name");
        let (open, close) = block(&scenario.text, at);
        if let Some(w) = scenario.text[open..close].find("self.s.") {
            let field = leading_ident(&scenario.text[open + w + "self.s.".len()..]);
            setters.insert(name.to_string(), field.expect("field").to_string());
        }
    }
    assert!(
        setters.len() > 10,
        "builder setters not found — lint is broken"
    );
    scenario.excluded.push(builder);

    let mut set: BTreeSet<(String, String)> = BTreeSet::new();
    for src in &sources {
        let text = &src.text;
        for (name, names) in &fields {
            // Struct literals: `Name { field: …, field, ..rest }`.
            for at in word_at(text, name) {
                let after = text[at + name.len()..].trim_start();
                let prev = previous_word(text, at);
                if !after.starts_with('{')
                    || !src.counts(at)
                    || ["struct", "for", "impl", "->"].contains(&prev)
                {
                    continue;
                }
                let (open, close) = block(text, at);
                for part in top_level_parts(&text[open + 1..close - 1]) {
                    if let Some(f) = leading_ident(part).filter(|f| names.iter().any(|n| n == f)) {
                        set.insert((name.to_string(), f.to_string()));
                    }
                }
            }
            // Assignments: `….field = …`.
            for f in names {
                let pat = format!(".{f}");
                for (at, _) in text.match_indices(&pat) {
                    let tail = &text[at + pat.len()..];
                    let op = tail.trim_start();
                    let is_assign = op.starts_with('=')
                        && !op.starts_with("==")
                        && !op.starts_with("=>")
                        && !tail.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_');
                    if is_assign && src.counts(at) {
                        set.insert((name.to_string(), f.clone()));
                    }
                }
            }
        }
        // Scenario builder calls: `.setter(`.
        for (setter, field) in &setters {
            let pat = format!(".{setter}(");
            if text.match_indices(&pat).any(|(at, _)| src.counts(at)) {
                set.insert(("Scenario".to_string(), field.clone()));
            }
        }
    }

    let allowed: BTreeSet<(String, String)> = ALLOWED
        .iter()
        .map(|(s, f, _)| (s.to_string(), f.to_string()))
        .collect();
    let mut unset = Vec::new();
    for (name, names) in &fields {
        for f in names {
            let key = (name.to_string(), f.clone());
            if !set.contains(&key) && !allowed.contains(&key) {
                unset.push(format!("{name}::{f}"));
            }
        }
    }
    assert!(
        unset.is_empty(),
        "{} config field(s) set by nothing but their Default impl: {}. Make each a \
         named constant, or add it to ALLOWED with the reason a test needs another value",
        unset.len(),
        unset.join(", ")
    );
    for (name, f, reason) in ALLOWED {
        assert!(
            fields[name].iter().any(|n| n == f),
            "ALLOWED names {name}::{f}, which is no longer a field ({reason})"
        );
        assert!(
            !set.contains(&(name.to_string(), f.to_string())),
            "{name}::{f} is set outside tests now: drop it from ALLOWED ({reason})"
        );
    }
}
