//! Figure 8: message overhead for node configuration vs. network size —
//! quorum protocol vs. the Mohsin–Prakash buddy protocol, tr = 150 m.
//!
//! Paper's shape: the quorum protocol's configuration overhead grows
//! more slowly because the buddy protocol pays for periodic global
//! synchronization of allocation tables.

use super::runs::{static_formation, Arm, RunTable};
use crate::Table;
use manet_sim::MsgCategory;

/// Runs the Figure 8 driver.
#[must_use]
pub fn fig08(runs: &mut RunTable) -> Vec<Table> {
    let opts = runs.opts();
    let mut t = Table::new(
        "Fig. 8 — configuration message overhead (hops per node) vs network size",
        "nn",
        vec!["quorum".into(), "buddy [2]".into()],
    );
    for nn in opts.nn_sweep() {
        let ours = runs.mean(&Arm::quorum(), static_formation(&opts, nn, 150.0), |r| {
            r.hops(MsgCategory::Configuration) as f64 / r.configured.max(1) as f64
        });
        // The buddy protocol's configuration cost includes its periodic
        // global table synchronization (that is the paper's point of
        // comparison).
        let theirs = runs.mean(&Arm::Buddy, static_formation(&opts, nn, 150.0), |r| {
            (r.hops(MsgCategory::Configuration) + r.hops(MsgCategory::Sync)) as f64
                / r.configured.max(1) as f64
        });
        t.push_row(nn.to_string(), vec![ours, theirs]);
    }
    t.note("buddy column folds in its periodic global sync floods");
    t.note("paper: quorum overhead grows more slowly with network size");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FigOpts;

    #[test]
    fn buddy_sync_dominates_at_larger_sizes() {
        let opts = FigOpts {
            rounds: 1,
            quick: true,
            seed: 9,
        };
        let t = &fig08(&mut RunTable::new(opts))[0];
        let last = t.rows.last().unwrap();
        assert!(
            last.1[1] > last.1[0],
            "buddy (w/ sync) must exceed quorum at nn={}: {:?}",
            last.0,
            last.1
        );
    }
}
