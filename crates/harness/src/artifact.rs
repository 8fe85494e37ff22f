//! The one writer (and checked reader) for workspace JSON artifacts.
//!
//! Every artifact this workspace emits — `sweep.json`, run-manifest
//! snapshots, `BENCH_*.json`, scale reports — goes through this module
//! instead of growing its own serializer. The writer side stamps
//! [`ARTIFACT_SCHEMA_VERSION`] as the first field and appends the
//! FNV-1a fingerprint over the body when the artifact is
//! determinism-checked; the reader side parses through the
//! order-preserving [`json`](crate::json) parser and rejects documents
//! written by a different schema version. Because objects keep their
//! key order end to end, `parse → render` round trips are
//! byte-comparable, which the tests here rely on.

use std::fmt::Write;
use std::io;
use std::path::Path;

use crate::json::Value;
pub use manet_sim::ARTIFACT_SCHEMA_VERSION;

/// The fingerprint function for every determinism-checked artifact.
pub use proto_io::fnv1a;

/// Renders a float slice as a JSON array (`Display` formatting, the
/// workspace's canonical float rendering).
#[must_use]
pub fn json_f64_list(vals: &[f64]) -> String {
    let items: Vec<String> = vals.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", items.join(","))
}

/// Renders a usize slice as a JSON array.
#[must_use]
pub fn json_usize_list(vals: &[usize]) -> String {
    let items: Vec<String> = vals.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", items.join(","))
}

/// Renders a string slice as a JSON array. Values must not contain
/// quotes or backslashes (workspace identifiers never do).
#[must_use]
pub fn json_str_list(vals: &[String]) -> String {
    let items: Vec<String> = vals.iter().map(|v| format!("\"{v}\"")).collect();
    format!("[{}]", items.join(","))
}

/// Appends `text` as a quoted JSON string, escaping quotes, backslashes
/// and control characters: the one escaper for free text, such as a
/// panic message, inside an artifact.
pub fn push_json_str(out: &mut impl Write, text: &str) {
    let _ = out.write_char('"');
    for ch in text.chars() {
        let _ = match ch {
            '"' => out.write_str("\\\""),
            '\\' => out.write_str("\\\\"),
            '\n' => out.write_str("\\n"),
            '\r' => out.write_str("\\r"),
            '\t' => out.write_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32),
            c => out.write_char(c),
        };
    }
    let _ = out.write_char('"');
}

/// `null` or the number, for optional integer fields.
#[must_use]
pub fn json_opt_u64(v: Option<u32>) -> String {
    v.map_or_else(|| "null".into(), |x| x.to_string())
}

/// `null` or the number, for optional float fields.
#[must_use]
pub fn json_opt_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "null".into(), |x| format!("{x}"))
}

/// An artifact document under construction.
///
/// [`begin`](Artifact::begin) opens the top-level object and stamps the
/// schema version; the caller appends its fields (the struct implements
/// [`std::fmt::Write`], so `write!(doc, ...)` works directly);
/// [`seal`](Artifact::seal), or a [`Fingerprinted`] report's renderer,
/// closes the object.
#[derive(Debug, Clone)]
pub struct Artifact {
    body: String,
}

impl Artifact {
    /// Opens a document: `{"schema_version":N` — the caller continues
    /// with `,"field":...` fragments.
    #[must_use]
    pub fn begin() -> Self {
        Artifact {
            body: format!("{{\"schema_version\":{ARTIFACT_SCHEMA_VERSION}"),
        }
    }

    /// Appends a raw fragment. The caller is responsible for the
    /// leading comma; this writer never reorders or reformats.
    pub fn push(&mut self, fragment: &str) {
        self.body.push_str(fragment);
    }

    /// The body accumulated so far.
    #[must_use]
    pub fn body(&self) -> &str {
        &self.body
    }

    /// FNV-1a fingerprint over the body accumulated so far.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.body.as_bytes())
    }

    /// Closes the document without a fingerprint field.
    #[must_use]
    pub fn seal(mut self) -> String {
        self.body.push('}');
        self.body
    }
}

impl std::fmt::Write for Artifact {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.body.push_str(s);
        Ok(())
    }
}

/// A report whose artifact carries wall clocks, and the one policy for
/// rendering it: the fingerprint covers the body with every wall clock
/// zeroed, so a wall-clocked rendering carries the same fingerprint as
/// its zeroed twin.
pub trait Fingerprinted {
    /// Everything up to (and excluding) the fingerprint field, every
    /// wall clock zeroed when `zero_walls`. The body ends with `,` so
    /// the field is appended verbatim (the historical byte layout every
    /// pinned fingerprint covers).
    fn render_body(&self, zero_walls: bool) -> Artifact;

    /// FNV-1a fingerprint over the deterministic body.
    fn fingerprint(&self) -> u64 {
        self.render_body(true).fingerprint()
    }

    /// Renders the artifact with real wall-clock timings.
    fn to_json(&self) -> String {
        sealed(self.render_body(false), self.fingerprint())
    }

    /// Renders the byte-identical-across-runs form: every wall clock
    /// zeroed. This is what `REPRO_NO_WALL_CLOCK=1` writes.
    fn deterministic_json(&self) -> String {
        let doc = self.render_body(true);
        let fp = doc.fingerprint();
        sealed(doc, fp)
    }
}

fn sealed(mut doc: Artifact, fp: u64) -> String {
    let _ = write!(doc, "\"fingerprint\":\"fnv1a:{fp:016x}\"");
    doc.seal()
}

/// Parses an artifact and verifies its `schema_version` matches this
/// build. `label` names the document in error messages.
///
/// # Errors
///
/// Returns a message when the text fails to parse, lacks a
/// `schema_version`, or was written by a different schema version.
pub fn parse_verified(label: &str, text: &str) -> Result<Value, String> {
    let doc = Value::parse(text).map_err(|e| format!("{label}: {e}"))?;
    let version = doc
        .get("schema_version")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{label}: missing schema_version"))?;
    if version != u64::from(ARTIFACT_SCHEMA_VERSION) {
        return Err(format!(
            "{label}: schema_version {version} != supported {ARTIFACT_SCHEMA_VERSION}"
        ));
    }
    Ok(doc)
}

/// Renders a parsed [`Value`] back to compact JSON, preserving object
/// key order. For artifacts written by this module (compact, canonical
/// float formatting) the round trip is byte-identical, which the
/// round-trip tests assert.
#[must_use]
pub fn render(v: &Value) -> String {
    let mut s = String::new();
    render_into(v, &mut s);
    s
}

fn render_into(v: &Value, s: &mut String) {
    match v {
        Value::Null => s.push_str("null"),
        Value::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => {
            // Whole numbers render without a decimal point, exactly as
            // the integer-typed writer fields produced them.
            if n.fract() == 0.0 && n.is_finite() && n.abs() < 9.007_199_254_740_992e15 {
                let _ = write!(s, "{}", *n as i64);
            } else {
                let _ = write!(s, "{n}");
            }
        }
        Value::Str(text) => push_json_str(s, text),
        Value::Array(items) => {
            s.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                render_into(item, s);
            }
            s.push(']');
        }
        Value::Object(fields) => {
            s.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{k}\":");
                render_into(item, s);
            }
            s.push('}');
        }
    }
}

/// Writes an artifact file — the single filesystem chokepoint for
/// artifact emission, so tooling that needs to intercept or audit
/// writes has one seam.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_file(path: &Path, contents: &str) -> io::Result<()> {
    std::fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_stamps_schema_version_first() {
        let doc = Artifact::begin();
        assert!(doc.body().starts_with("{\"schema_version\":1"));
        let sealed = doc.seal();
        let parsed = parse_verified("test", &sealed).expect("valid artifact");
        assert_eq!(
            parsed.get("schema_version").and_then(Value::as_u64),
            Some(1)
        );
    }

    /// A report whose one wall clock is `wall`.
    struct Walled {
        wall: u64,
    }

    impl Fingerprinted for Walled {
        fn render_body(&self, zero_walls: bool) -> Artifact {
            let mut doc = Artifact::begin();
            let wall = if zero_walls { 0 } else { self.wall };
            let _ = write!(doc, ",\"k\":3,\"wall_us\":{wall},");
            doc
        }
    }

    #[test]
    fn fingerprint_covers_body_and_seals_verbatim() {
        let report = Walled { wall: 1234 };
        let fp = report.render_body(true).fingerprint();
        assert_eq!(report.fingerprint(), fp);
        let timed = report.to_json();
        assert!(timed.ends_with(&format!("\"fingerprint\":\"fnv1a:{fp:016x}\"}}")));
        let parsed = Value::parse(&timed).expect("sealed doc parses");
        assert_eq!(
            parsed.get("fingerprint").and_then(Value::as_str),
            Some(format!("fnv1a:{fp:016x}").as_str())
        );
        assert_eq!(
            timed.replace("\"wall_us\":1234", "\"wall_us\":0"),
            report.deterministic_json(),
            "the two forms differ in the walls only"
        );
    }

    #[test]
    fn parse_verified_rejects_other_schema_versions() {
        let err = parse_verified("doc", "{\"schema_version\":999}").unwrap_err();
        assert!(err.contains("schema_version 999"), "{err}");
        let err = parse_verified("doc", "{}").unwrap_err();
        assert!(err.contains("missing schema_version"), "{err}");
        let err = parse_verified("doc", "{nope").unwrap_err();
        assert!(err.contains("doc:"), "{err}");
    }

    #[test]
    fn render_round_trips_artifact_bytes() {
        struct Grid;
        impl Fingerprinted for Grid {
            fn render_body(&self, _: bool) -> Artifact {
                let mut doc = Artifact::begin();
                let _ = write!(
                    doc,
                    ",\"grid\":{{\"sizes\":{},\"losses\":{},\"names\":{}}},\"flag\":true,\"opt\":{},",
                    json_usize_list(&[10, 20]),
                    json_f64_list(&[0.0, 0.05]),
                    json_str_list(&["a".into(), "b".into()]),
                    json_opt_u64(None),
                );
                doc
            }
        }
        let text = Grid.to_json();
        let parsed = Value::parse(&text).expect("artifact parses");
        assert_eq!(render(&parsed), text, "parse → render is byte-identical");
    }

    #[test]
    fn render_escapes_strings() {
        let v = Value::parse("{\"s\":\"a\\\"b\\\\c\\nd\"}").expect("escapes parse");
        let out = render(&v);
        assert_eq!(out, "{\"s\":\"a\\\"b\\\\c\\nd\"}");
        assert_eq!(Value::parse(&out).expect("re-parses"), v);
    }
}
