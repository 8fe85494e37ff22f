//! Figure 6: configuration latency vs. transmission range — quorum
//! protocol vs. MANETconf, nn = 100.
//!
//! Paper's shape: the quorum protocol stays below ~10 hops across
//! ranges; MANETconf stays above ~15.

use super::fig05_latency_size::latency_headers;
use super::runs::{formation, Arm, RunTable};
use crate::stats::latency_columns;
use crate::Table;

/// Runs the Figure 6 driver.
#[must_use]
pub fn fig06(runs: &mut RunTable) -> Vec<Table> {
    let opts = runs.opts();
    let nn = if opts.quick { 40 } else { 100 };
    let mut t = Table::new(
        format!("Fig. 6 — configuration latency (hops) vs transmission range (nn={nn})"),
        "tr_m",
        latency_headers(),
    );
    for tr in opts.tr_sweep() {
        let q = latency_columns(&runs.pooled(&Arm::quorum(), formation(&opts, nn, tr)));
        let mc = latency_columns(&runs.pooled(&Arm::ManetConf, formation(&opts, nn, tr)));
        t.push_row(
            format!("{tr:.0}"),
            vec![q[0], q[1], q[2], q[3], mc[0], mc[1], mc[2], mc[3]],
        );
    }
    t.note("paper: quorum stays below ~10 hops, MANETconf above ~15");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FigOpts;

    #[test]
    fn sweep_covers_all_ranges() {
        let opts = FigOpts {
            rounds: 1,
            quick: true,
            seed: 5,
        };
        let t = &fig06(&mut RunTable::new(opts))[0];
        assert_eq!(t.rows.len(), opts.tr_sweep().len());
        for (x, vals) in &t.rows {
            assert!(vals[0] > 0.0, "quorum latency at tr={x} must be positive");
            assert!(
                vals[1] <= vals[2] && vals[2] <= vals[3],
                "quorum quantiles at tr={x} must be monotone"
            );
        }
    }
}
