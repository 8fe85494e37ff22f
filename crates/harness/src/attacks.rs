//! The adversary degradation suite `repro check` reports.
//!
//! Runs every pinned attack canary (see `conformance::attacks`) against
//! both the plain `quorum` adapter and its `quorum-hardened` variant
//! under the *same* schedule, and renders the damage side by side: did
//! an invariant fall, how many attack actions landed (squatted grants,
//! forged votes, reclaim floods, replayed claims), and how many
//! duplicate addresses the open protocol conceded. The expected shape
//! is one-sided — every open cell red, every hardened cell clean.
//!
//! `repro check` runs the suite once, prints [`attack_table`] from its
//! outcomes, and turns the same outcomes into pass/fail cells for CI
//! through [`canary_suite`]: a canary the oracle fails to flag, or a
//! hardened run that concedes, is a red cell (the latter with a shrunk
//! artifact for upload).

use crate::oracle::CheckCell;
use crate::render::Table;
use conformance::attacks::{attack_canaries, AttackCanary};
use conformance::{run_named, shrink_named, CheckOutcome};

/// One canary's paired measurement.
#[derive(Debug)]
pub struct AttackOutcome {
    /// The canary that was run.
    pub canary: AttackCanary,
    /// The open (`quorum`) run under the canary schedule.
    pub open: CheckOutcome,
    /// The `quorum-hardened` run under the same schedule.
    pub hardened: CheckOutcome,
}

/// Runs every attack canary against both protocol variants.
#[must_use]
pub fn attack_suite() -> Vec<AttackOutcome> {
    attack_canaries()
        .into_iter()
        .map(|canary| {
            let cfg = canary.config();
            let open = run_named("quorum", &cfg).expect("quorum is registered");
            let hardened = run_named("quorum-hardened", &cfg).expect("hardened is registered");
            AttackOutcome {
                canary,
                open,
                hardened,
            }
        })
        .collect()
}

/// Renders the degradation table: one row per attack, open vs hardened.
#[must_use]
pub fn attack_table(outcomes: &[AttackOutcome]) -> Table {
    let mut t = Table::new(
        "Attacks — adversary degradation, open vs hardened QBAC",
        "attack",
        [
            "actions",
            "open:violated",
            "open:dups",
            "hard:violated",
            "hard:dups",
            "hard:configured",
        ]
        .map(String::from)
        .to_vec(),
    );
    for o in outcomes {
        t.push_row(
            o.canary.name,
            vec![
                o.open.faults.attack_total() as f64,
                f64::from(u8::from(o.open.violation.is_some())),
                o.open.dup_addrs as f64,
                f64::from(u8::from(o.hardened.violation.is_some())),
                o.hardened.dup_addrs as f64,
                o.hardened.configured as f64,
            ],
        );
        if let Some(v) = &o.open.violation {
            t.note(format!(
                "{}: open quorum fell at step {} ({}: {})",
                o.canary.name, v.step, v.invariant, v.detail
            ));
        }
        if let Some(v) = &o.hardened.violation {
            t.note(format!(
                "{}: HARDENED QBAC FELL at step {} ({}: {})",
                o.canary.name, v.step, v.invariant, v.detail
            ));
        }
    }
    t.note("actions: attacker messages landed in the open run (squats, forged votes, reclaim floods, replayed claims)");
    t.note("expected shape: every open cell violated, every hardened cell clean");
    t
}

/// The `repro check` canary smoke over `outcomes`: the oracle must
/// flag every canary against the open protocol, and the hardened
/// variant must hold every one.
#[must_use]
pub fn canary_suite(outcomes: &[AttackOutcome]) -> Vec<CheckCell> {
    let mut cells = Vec::new();
    for o in outcomes {
        let name = o.canary.name;
        let line = match &o.open.violation {
            Some(v) => format!(
                "PASS  canary {name:<13} caught by oracle (step {}: {})",
                v.step, v.invariant
            ),
            None => format!(
                "FAIL  canary {name:<13} NOT caught — attack ran ({} actions) but no invariant fell",
                o.open.faults.attack_total()
            ),
        };
        cells.push(CheckCell {
            line,
            ok: o.open.violation.is_some(),
            artifact: None,
            stem: format!("canary-{name}"),
        });
        let (line, artifact) = match &o.hardened.violation {
            None => (
                format!(
                    "PASS  canary {name:<13} held by hardened QBAC ({} configured)",
                    o.hardened.configured
                ),
                None,
            ),
            Some(v) => (
                format!(
                    "FAIL  canary {name:<13} broke hardened QBAC (step {}: {}: {})",
                    v.step, v.invariant, v.detail
                ),
                shrink_named("quorum-hardened", &o.canary.config()),
            ),
        };
        cells.push(CheckCell {
            line,
            ok: o.hardened.violation.is_none(),
            artifact,
            stem: format!("hardened-{name}"),
        });
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_table_has_one_row_per_canary() {
        let outcomes = attack_suite();
        let t = attack_table(&outcomes);
        assert_eq!(t.rows.len(), attack_canaries().len());
        assert_eq!(t.columns.len(), 6);
        // The expected one-sided shape, asserted on the rendered data:
        // open violated everywhere, hardened nowhere.
        for (name, vals) in &t.rows {
            assert_eq!(vals[1], 1.0, "{name}: open run must fall");
            assert_eq!(vals[3], 0.0, "{name}: hardened run must hold");
            assert!(vals[0] > 0.0, "{name}: attack actions must land");
        }
    }

    #[test]
    fn canary_smoke_is_green_and_artifact_free() {
        let cells = canary_suite(&attack_suite());
        assert_eq!(cells.len(), 2 * attack_canaries().len());
        for c in &cells {
            assert!(c.ok, "{}", c.line);
            assert!(c.artifact.is_none(), "{}", c.line);
        }
    }
}
