//! Extra experiment (paper §VI-C, textual claim): because every address
//! is returned to its original allocator, the quorum protocol "would not
//! suffer from address fragmentation" after long churn — unlike the
//! C-tree scheme, where the *receiving* coordinator keeps returned
//! addresses.
//!
//! We run sustained graceful churn and report, per protocol, the mean
//! number of disjoint blocks per allocator and the mean external
//! fragmentation of allocator pools at the end.

use super::runs::{workload, Arm, Row, RunTable};
use crate::Table;

/// Runs the fragmentation study. Not a numbered paper figure; regenerated
/// with `repro --fig 15`.
#[must_use]
pub fn extra_fragmentation(runs: &mut RunTable) -> Vec<Table> {
    let opts = runs.opts();
    let churn = workload(&opts)
        .nn(if opts.quick { 30 } else { 80 })
        .speed_mps(0.0)
        .depart_fraction(0.5)
        .abrupt_ratio(0.0)
        .depart_window_secs(20)
        .cooldown_secs(10)
        // Churn back in: replacements reuse returned addresses.
        .post_arrivals(if opts.quick { 8 } else { 20 });
    // The C-tree inspection cannot see its coordinators' free lists, so
    // it reports the block-count proxy: a coordinator keeps a singleton
    // block for every foreign returned address, visible as extra blocks
    // per pool.
    let [blocks, external] = [|r: &Row| r.fragmentation.0, |r: &Row| r.fragmentation.1]
        .map(|f| [Arm::quorum(), Arm::CTree].map(|arm| runs.mean(&arm, churn.clone(), f)));

    let mut t = Table::new(
        "Extra — pool fragmentation after sustained churn (§VI-C claim)",
        "metric",
        vec!["quorum".into(), "C-tree [3]".into()],
    );
    t.push_row("blocks per allocator", blocks.to_vec());
    t.push_row("external fragmentation", external.to_vec());
    t.note("50% graceful churn plus replacements; addresses route home in quorum");
    t.note("paper §VI-C: the quorum protocol avoids long-run fragmentation");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FigOpts;

    #[test]
    fn fragmentation_study_runs() {
        let opts = FigOpts {
            rounds: 1,
            quick: true,
            seed: 12,
        };
        let t = &extra_fragmentation(&mut RunTable::new(opts))[0];
        assert_eq!(t.rows.len(), 2);
        // External fragmentation is a ratio.
        for (_, vals) in &t.rows[1..] {
            assert!(vals.iter().all(|v| (0.0..=1.0).contains(v)), "{vals:?}");
        }
    }
}
