//! Property tests of the artifact JSON reader: arbitrary strings and
//! byte flips of the committed `BENCH_sweep.json` head never panic
//! `json::Value::parse`, and a rejection points inside the text.

use harness::json::Value;
use proptest::prelude::*;

/// The committed sweep artifact's header and first cell, closed into a
/// document of its own: every kind of value the reader meets.
fn sweep_head() -> String {
    let text = include_str!("../../../BENCH_sweep.json");
    let first = text.find("{\"protocol\"").expect("a first cell");
    let second = first + text[first..].find(",{\"protocol\"").expect("a second cell");
    format!("{}]}}", &text[..second])
}

/// Characters JSON's grammar turns on, a few multi-byte ones, and the
/// letters of its literals and escapes.
const ALPHABET: &str = "{}[]\":,\\/ \n-+.019eEuntrfalsbé€\u{1F600}";

fn arb_text() -> impl Strategy<Value = String> {
    let alphabet: Vec<char> = ALPHABET.chars().collect();
    prop::collection::vec(any::<u16>(), 0..160).prop_map(move |picks| {
        picks
            .into_iter()
            .map(|p| alphabet[usize::from(p) % alphabet.len()])
            .collect()
    })
}

/// What every input must satisfy: parsing returns, and an error names
/// an offset inside the text.
fn assert_parses_or_points_inside(text: &str) {
    if let Err(e) = Value::parse(text) {
        assert!(
            e.at <= text.len(),
            "{e} past the end of {} bytes",
            text.len()
        );
    }
}

#[test]
fn sweep_head_parses() {
    let head = Value::parse(&sweep_head()).expect("the committed head parses");
    assert_eq!(head.get("schema_version").and_then(Value::as_u64), Some(1));
    assert_eq!(
        head.get("cells").and_then(Value::as_array).map(<[_]>::len),
        Some(1)
    );
}

proptest! {
    /// Arbitrary strings over JSON's alphabet never panic the reader.
    #[test]
    fn arbitrary_text_never_panics(text in arb_text()) {
        assert_parses_or_points_inside(&text);
    }

    /// Flipping a byte of the sweep head, or cutting it short, never
    /// panics the reader.
    #[test]
    fn mutated_sweep_head_never_panics(pos in any::<u64>(), mask in 1u16..256, cut in any::<u64>()) {
        let mut bytes = sweep_head().into_bytes();
        let i = (pos % bytes.len() as u64) as usize;
        bytes[i] ^= mask as u8;
        let text = String::from_utf8_lossy(&bytes).into_owned();
        assert_parses_or_points_inside(&text);
        let cut = (cut % (text.len() as u64 + 1)) as usize;
        if let Some(prefix) = text.get(..cut) {
            assert_parses_or_points_inside(prefix);
        }
    }
}
