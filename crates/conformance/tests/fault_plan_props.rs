//! Property tests of the fault-plan text grammar: arbitrary strings,
//! grammar-shaped text and byte flips of the standing chaos schedules
//! never panic
//! `FaultPlan::parse`, and every plan it accepts round-trips through
//! `to_text`.

use conformance::chaos_schedules;
use manet_sim::faults::FaultPlan;
use proptest::prelude::*;

/// Line templates of the grammar; each capital letter is a slot filled
/// from the matching vocabulary below.
const TEMPLATES: &[&str] = &[
    "seed I",
    "loss P C",
    "dup P C",
    "delay P D D C",
    "crash I at D",
    "crash I at D restart D",
    "headkill I at D",
    "jam Q Q from D until D",
    "partition X from D heal D",
    "attack I K at D",
    "# a comment",
    "warp I",
];

/// Slot vocabularies: values the grammar accepts, then (after the `|`)
/// edge values it must reject, the non-finite spellings `f64::from_str`
/// takes among them.
fn vocabulary(slot: char) -> (&'static [&'static str], &'static [&'static str]) {
    match slot {
        'I' => (&["0", "3", "7", "18446744073709551615"], &["-1", "x"]),
        'P' => (&["0", "0.25", "1", "-0", "1e-400"], &["1.5", "NaN", "inf"]),
        'D' => (
            &["0s", "5s", "10ms", "3us", "7", "3601s"],
            &["1.5s", "-1s", "18446744073709551615s"],
        ),
        'C' => (&["", "hello", "sync", "configuration"], &["bogus"]),
        'Q' => (
            &["0,0", "500,500", "-0,1e3", "2.5,1e-400"],
            &["NaN,0", "0,inf", "1e309,0", "3"],
        ),
        'X' => (
            &["x=500", "x=-0", "x=2.5", "x=1e-400"],
            &["x=NaN", "x=inf", "x=-inf", "x=1e309", "y=3"],
        ),
        'K' => (
            &["squat", "spoof-cfm", "false-reclaim", "replay-claim"],
            &["bogus"],
        ),
        _ => (&[], &[]),
    }
}

/// Plan text of template lines: one slot in eight takes an edge value,
/// and one line in sixteen has a token replaced by an arbitrary
/// printable character.
fn arb_text() -> impl Strategy<Value = String> {
    let line = (
        any::<u16>(),
        prop::collection::vec(any::<u16>(), 8..9),
        any::<u16>(),
    );
    prop::collection::vec(line, 0..8).prop_map(|lines| {
        let mut text = String::new();
        for (template, picks, corrupt) in lines {
            let template = TEMPLATES[usize::from(template) % TEMPLATES.len()];
            let mut words: Vec<String> = template
                .split(' ')
                .zip(&picks)
                .map(|(word, &pick)| {
                    let mut slot = word.chars();
                    match (slot.next(), slot.next()) {
                        (Some(c), None) if c.is_ascii_uppercase() => {
                            let (valid, edge) = vocabulary(c);
                            let vocab = if pick % 8 == 0 { edge } else { valid };
                            vocab[usize::from(pick >> 3) % vocab.len()].to_string()
                        }
                        _ => word.to_string(),
                    }
                })
                .collect();
            if corrupt % 16 == 0 {
                let i = usize::from(corrupt >> 4) % words.len();
                words[i] = char::from(b' ' + (corrupt >> 8) as u8 % 95).to_string();
            }
            text.push_str(&words.join(" "));
            text.push('\n');
        }
        text
    })
}

/// `to_text` leaves out zero-probability aspects: they draw nothing and
/// judge nothing, so the plan it prints is `plan` without them.
fn without_inert_faults(plan: &FaultPlan) -> FaultPlan {
    let mut plan = plan.clone();
    plan.link_faults
        .retain(|f| f.drop > 0.0 || f.duplicate > 0.0 || f.delay.is_some_and(|d| d.prob > 0.0));
    plan
}

/// What every accepted plan must satisfy: its geometry is finite (a
/// region bounded by `NaN` or `inf` never fires), and its canonical text
/// parses back to the same plan and is a fixed point of
/// `parse ∘ to_text`.
fn assert_round_trips(plan: &FaultPlan) {
    let corners = plan
        .jams
        .iter()
        .flat_map(|j| [j.min.x, j.min.y, j.max.x, j.max.y]);
    let bounds = plan.partitions.iter().map(|p| p.boundary_x);
    assert!(corners.chain(bounds).all(f64::is_finite), "{plan:?}");
    let text = plan.to_text();
    let back = FaultPlan::parse(&text).expect("canonical text parses");
    assert_eq!(back, without_inert_faults(plan), "{text}");
    assert_eq!(back.to_text(), text);
}

#[test]
fn chaos_schedules_round_trip() {
    for s in chaos_schedules() {
        assert_round_trips(&s.plan);
    }
}

proptest! {
    /// Grammar-shaped text with arbitrary slot values never panics the
    /// parser, and what it accepts round-trips.
    #[test]
    fn arbitrary_text_never_panics(text in arb_text()) {
        // Each line alone too: one bad line fails the whole text.
        for text in std::iter::once(text.as_str()).chain(text.lines()) {
            if let Ok(plan) = FaultPlan::parse(text) {
                assert_round_trips(&plan);
            }
        }
    }

    /// Arbitrary bytes never panic the parser.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        if let Ok(plan) = FaultPlan::parse(&String::from_utf8_lossy(&bytes)) {
            assert_round_trips(&plan);
        }
    }

    /// Flipping a byte of a standing schedule's canonical text never
    /// panics the parser, and what it accepts round-trips.
    #[test]
    fn mutated_schedules_never_panic(which in any::<u64>(), pos in any::<u64>(), mask in 1u16..256) {
        let schedules = chaos_schedules();
        let schedule = &schedules[(which % schedules.len() as u64) as usize];
        let mut bytes = schedule.plan.to_text().into_bytes();
        let i = (pos % bytes.len() as u64) as usize;
        bytes[i] ^= mask as u8;
        if let Ok(text) = String::from_utf8(bytes) {
            if let Ok(plan) = FaultPlan::parse(&text) {
                assert_round_trips(&plan);
            }
        }
    }
}
