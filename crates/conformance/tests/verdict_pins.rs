//! Verdict pins: the whole [`CheckOutcome`] of every checkable protocol
//! under every chaos schedule, off the schedules' pinned seeds, must
//! stay what `fixtures/verdict_pins.txt` records. The fixture holds
//! clean runs and violations of both grace-windowed families
//! (`addr-unique`, `pool-conserved`), so a checker change that skips,
//! delays or re-words a verdict moves a line.
//!
//! After an *intended* behaviour change, regenerate with
//! `VERDICT_PINS_BLESS=1 cargo test -p conformance --test verdict_pins`.

use conformance::registry::CHECKABLE;
use conformance::{chaos_schedules, run_named, CheckConfig};
use std::fmt::Write;

const SEEDS: [u64; 6] = [1, 7, 101, 102, 103, 9001];
const SIZES: [usize; 2] = [12, 40];
const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/verdict_pins.txt"
);

#[test]
fn verdicts_match_the_committed_fixture() {
    let mut table = String::new();
    for protocol in CHECKABLE {
        for schedule in chaos_schedules() {
            for seed in SEEDS {
                for nn in SIZES {
                    let cfg = CheckConfig::new(nn, seed, schedule.plan.clone());
                    let outcome = run_named(protocol, &cfg).expect("known protocol");
                    writeln!(
                        table,
                        "{protocol} {} {seed} {nn} {outcome:?}",
                        schedule.name
                    )
                    .unwrap();
                }
            }
        }
    }
    if std::env::var_os("VERDICT_PINS_BLESS").is_some() {
        std::fs::write(FIXTURE, &table).expect("fixture is writable");
    }
    let pinned = std::fs::read_to_string(FIXTURE).expect("fixture is committed");
    for (got, want) in table.lines().zip(pinned.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(table.lines().count(), pinned.lines().count());
    for family in ["AddrUnique", "PoolConserved"] {
        assert!(
            pinned.contains(&format!("invariant: {family}")),
            "the fixture must pin a {family} violation"
        );
    }
}
