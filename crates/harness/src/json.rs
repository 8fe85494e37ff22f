//! A minimal JSON reader for the workspace's own artifacts.
//!
//! Every artifact this workspace emits (run manifests, `sweep.json`,
//! `BENCH_*.json`) is rendered by hand with deterministic key order;
//! the serde shim is a no-op, so reading them back needs a real parser.
//! This one is deliberately small: it accepts standard JSON, preserves
//! object key order (so a parse → render round trip can stay
//! byte-comparable), and exposes just the accessors the regression gate
//! needs. It is not a streaming parser; it reads files a user names, so
//! every malformed input — nesting past [`MAX_DEPTH`] included — ends in
//! a [`ParseError`], never a panic or a stack overflow.

use std::fmt;

/// A parsed JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers above 2^53 lose precision, which no
    /// workspace artifact emits).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source key order.
    Object(Vec<(String, Value)>),
}

/// Where and why a parse failed.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What the parser expected.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`Value::parse`] accepts. The parser
/// recurses once per level, so the bound is what keeps a crafted file
/// from overflowing the stack; committed artifacts nest at most 7 deep.
pub const MAX_DEPTH: usize = 64;

impl Value {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] with the byte offset of the first
    /// malformed construct, or of the bracket that opens nesting level
    /// [`MAX_DEPTH`]` + 1`.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("end of input"));
        }
        Ok(v)
    }

    /// Object field lookup (None for missing keys or non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if numeric and whole.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as ordered object fields.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

/// `text` is only ever sliced at a char boundary: `pos` advances past
/// matched ASCII bytes one at a time and past string runs that end at
/// an ASCII `"` or `\`, which never occur inside a multi-byte scalar.
/// The byte after a `\` is stepped over before it is looked at, but
/// anything other than an ASCII escape letter there returns an error
/// before the next slice.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, expected: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: format!("expected {expected}"),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(lit))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("a JSON value")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError {
                at: self.pos,
                msg: format!("nesting deeper than {MAX_DEPTH} levels"),
            });
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("closing '\"'")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("escape character"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a sign.
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("4 hex digits"))?;
                            self.pos += 4;
                            // Artifacts are ASCII; lone surrogates fold
                            // to the replacement character.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("a valid escape")),
                    }
                }
                Some(..0x20) => return Err(self.err("a control character escaped")),
                Some(_) => {
                    // Copy the whole run up to the next quote, escape
                    // or control character.
                    let rest = &self.text[self.pos..];
                    let run = rest
                        .find(|c| matches!(c, '"' | '\\' | '\0'..='\x1f'))
                        .unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    /// RFC 8259's `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`; a
    /// digit after a leading zero is left for the caller to reject.
    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        self.skip(|b| b == b'-');
        if self.skip(|b| b == b'0') == 0 {
            self.digits()?;
        }
        if self.skip(|b| b == b'.') == 1 {
            self.digits()?;
        }
        if self.skip(|b| b == b'e' || b == b'E') == 1 {
            self.skip(|b| b == b'+' || b == b'-');
            self.digits()?;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>().map(Value::Num).map_err(|_| ParseError {
            at: start,
            msg: format!("expected a number, got {text:?}"),
        })
    }

    /// Steps over at most one byte that `is` accepts; how many it took.
    fn skip(&mut self, is: impl Fn(u8) -> bool) -> usize {
        let took = usize::from(self.peek().is_some_and(is));
        self.pos += took;
        took
    }

    /// Steps over a run of at least one decimal digit.
    fn digits(&mut self) -> Result<(), ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("a digit"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[', "'['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{', "'{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "':'")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(Value::parse("-3.5e2").unwrap(), Value::Num(-350.0));
        for (text, want) in [("0", 0.0), ("-0", 0.0), ("0.25", 0.25), ("1E+2", 100.0)] {
            assert_eq!(Value::parse(text).unwrap(), Value::Num(want), "{text}");
        }
        assert_eq!(Value::parse("1e-2").unwrap(), Value::Num(0.01));
        assert_eq!(
            Value::parse("\"\\u0041\\u00e9\"").unwrap(),
            Value::Str("Aé".into())
        );
        assert_eq!(
            Value::parse("\"hi\\n\\\"there\\\"\"").unwrap(),
            Value::Str("hi\n\"there\"".into())
        );
    }

    #[test]
    fn preserves_object_key_order() {
        let v = Value::parse(r#"{"z":1,"a":2,"m":3}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn nested_lookup_and_accessors() {
        let v =
            Value::parse(r#"{"rows":[{"n":100,"speedup":5.7,"ok":true,"note":null}]}"#).unwrap();
        let row = &v.get("rows").unwrap().as_array().unwrap()[0];
        assert_eq!(row.get("n").unwrap().as_u64(), Some(100));
        assert_eq!(row.get("speedup").unwrap().as_f64(), Some(5.7));
        assert_eq!(row.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(row.get("note"), Some(&Value::Null));
        assert_eq!(row.get("missing"), None);
        assert_eq!(row.get("speedup").unwrap().as_u64(), None, "not whole");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1 2",
            "{\"a\":1,}",
            "\"unterminated",
            "nul",
            "\"\\u+041\"",
            "\"\\u-041\"",
            "01",
            "-01",
            "1.",
            "1.e3",
            ".5",
            "-",
            "1e",
            "1e+",
            "+1",
            "1.5.2",
            "1e5e5",
            "[1-2]",
            "\"tab\there\"",
            "\"line\nbreak\"",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn error_carries_offset() {
        let err = Value::parse("{\"a\": !}").unwrap_err();
        assert_eq!(err.at, 6);
        assert!(err.to_string().contains("byte 6"), "{err}");
    }

    #[test]
    fn non_ascii_strings_round_trip() {
        let text = "héllo — 世界 \u{1F600}";
        let doc = format!("{{\"k\":\"{text}\",\"é\":\"a\\n{text}\\\\\"}}");
        let v = Value::parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(text));
        assert_eq!(
            v.get("é").unwrap().as_str(),
            Some(format!("a\n{text}\\").as_str())
        );
        // A multi-byte scalar where an escape letter or hex digit belongs
        // is an error, not a slice panic.
        assert!(Value::parse("\"\\é\"").is_err());
        assert!(Value::parse("\"\\u00é\"").is_err());
    }

    #[test]
    fn megabyte_string_heavy_document_parses() {
        // Parsing must stay linear in document size: rescanning the
        // rest of the input per character copied would run for minutes.
        let item = format!("\"{}\\n{}\"", "x".repeat(500), "é".repeat(250));
        let n = (1 << 20) / item.len() + 1;
        let doc = format!("[{}]", vec![item; n].join(","));
        assert!(doc.len() >= 1 << 20);
        let v = Value::parse(&doc).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items.len(), n);
        assert_eq!(items[n - 1].as_str().unwrap().chars().count(), 751);
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        for (open, leaf, close) in [("[", "", "]"), ("{\"a\":", "1", "}")] {
            let nest = |n: usize| format!("{}{leaf}{}", open.repeat(n), close.repeat(n));
            assert!(
                Value::parse(&nest(MAX_DEPTH)).is_ok(),
                "{open} at the bound"
            );
            let err = Value::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
            assert_eq!(
                err.at,
                open.len() * MAX_DEPTH,
                "{open} one past the bound: {err}"
            );
            assert!(err.msg.contains("nesting"), "{err}");
            // Unclosed, the way a hostile file would spell it.
            assert!(
                Value::parse(&open.repeat(200_000)).is_err(),
                "{open} x 200k"
            );
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            Value::parse("\"\\u0041\\u00e9\"").unwrap(),
            Value::Str("Aé".into())
        );
    }
}
