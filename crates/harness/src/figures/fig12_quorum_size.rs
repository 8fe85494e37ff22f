//! Figure 12: quorum size and extended IP space vs. (network size ×
//! transmission range) — quorum protocol vs. the C-tree scheme.
//!
//! Paper's shape: replication extends a head's usable space by up to
//! ~5.5× its own block; the ratio grows with transmission range (more
//! adjacent heads within three hops → larger `QDSet`). C-tree
//! coordinators keep only their own pool (ratio 1).

use super::runs::{static_formation, Arm, RunTable};
use crate::Table;

/// Runs the Figure 12 driver.
#[must_use]
pub fn fig12(runs: &mut RunTable) -> Vec<Table> {
    let opts = runs.opts();
    let nns = opts.nn_sweep();
    let columns: Vec<String> = nns.iter().map(|nn| format!("nn={nn}")).collect();

    let mut qsize = Table::new(
        "Fig. 12a — mean |QDSet| vs (tr x nn)",
        "tr_m",
        columns.clone(),
    );
    let mut ext = Table::new(
        "Fig. 12b — extended IP space ratio (own+replicated)/own vs (tr x nn)",
        "tr_m",
        columns,
    );
    for tr in opts.tr_sweep() {
        let mut qrow = Vec::new();
        let mut erow = Vec::new();
        for &nn in &nns {
            // Stationary snapshot of the formed network.
            let formed = static_formation(&opts, nn, tr);
            qrow.push(runs.mean(&Arm::quorum(), formed.clone(), |r| r.qdset));
            erow.push(runs.mean(&Arm::quorum(), formed, |r| r.extension));
        }
        qsize.push_row(format!("{tr:.0}"), qrow);
        ext.push_row(format!("{tr:.0}"), erow);
    }
    ext.note("C-tree coordinators have ratio 1.0 (no replication)");
    ext.note("paper: replication extends a head's space by up to ~5.5x");
    vec![qsize, ext]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FigOpts;

    #[test]
    fn extension_ratio_exceeds_one_and_grows_with_range() {
        let opts = FigOpts {
            rounds: 2,
            quick: true,
            seed: 50,
        };
        let tables = fig12(&mut RunTable::new(opts));
        let ext = &tables[1];
        let first_tr = &ext.rows.first().unwrap().1;
        let last_tr = &ext.rows.last().unwrap().1;
        // Replication extends the space…
        assert!(
            last_tr.iter().all(|&r| r >= 1.0),
            "ratios must be ≥ 1: {last_tr:?}"
        );
        // …and a larger range yields at least as much replication.
        assert!(
            last_tr[0] >= first_tr[0] * 0.8,
            "larger tr should not collapse the ratio: {first_tr:?} → {last_tr:?}"
        );
    }
}
