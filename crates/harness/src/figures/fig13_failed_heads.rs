//! Figure 13: percentage of cluster-head state lost vs. abrupt-leave
//! ratio — quorum protocol vs. the C-tree scheme.
//!
//! Paper's shape: replication preserves ~99% of head state while fewer
//! than 30% of nodes leave abruptly; C-tree's single global copy at the
//! C-root makes it fragile (losing the root loses everything).

use super::runs::{workload, Arm, RunTable};
use crate::Table;

/// Runs the Figure 13 driver.
#[must_use]
pub fn fig13(runs: &mut RunTable) -> Vec<Table> {
    let opts = runs.opts();
    let nn = if opts.quick { 60 } else { 150 };
    let ratios: Vec<f64> = if opts.quick {
        vec![0.1, 0.3, 0.5]
    } else {
        vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5]
    };
    let mut t = Table::new(
        format!("Fig. 13 — % of vanished-head state lost vs abrupt-leave ratio (nn={nn})"),
        "abrupt_%",
        vec!["quorum %lost".into(), "C-tree %lost".into()],
    );
    for ratio in ratios {
        let exodus = workload(&opts)
            .nn(nn)
            .speed_mps(0.0)
            .depart_fraction(ratio) // this fraction of nodes leaves…
            .abrupt_ratio(1.0) // …all abruptly and ~simultaneously
            .depart_window_ms(100)
            .cooldown_secs(1);
        let row = [Arm::quorum(), Arm::CTree].map(|arm| {
            runs.mean(&arm, exodus.clone(), |r| {
                let (preserved, lost) = r.preservation;
                pct_lost(preserved, lost)
            })
        });
        t.push_row(format!("{:.0}", ratio * 100.0), row.to_vec());
    }
    t.note("a vanished quorum head is 'preserved' if ≥ half its QDSet survives");
    t.note("a vanished C-tree coordinator is preserved only while the C-root lives");
    t.note("paper: quorum preserves ~99% below 30% abrupt leave");
    vec![t]
}

fn pct_lost(preserved: usize, lost: usize) -> f64 {
    let total = preserved + lost;
    if total == 0 {
        0.0
    } else {
        100.0 * lost as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FigOpts;

    #[test]
    fn loss_grows_with_abrupt_ratio() {
        let opts = FigOpts {
            rounds: 3,
            quick: true,
            seed: 60,
        };
        let t = &fig13(&mut RunTable::new(opts))[0];
        let first = t.rows.first().unwrap().1[0];
        let last = t.rows.last().unwrap().1[0];
        assert!(
            last >= first,
            "more abrupt departures must not reduce loss: {first} → {last}"
        );
        // And losses are percentages.
        for (_, vals) in &t.rows {
            assert!(vals.iter().all(|v| (0.0..=100.0).contains(v)));
        }
    }
}
