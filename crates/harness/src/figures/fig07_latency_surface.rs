//! Figure 7: the quorum protocol's configuration latency over the
//! (transmission range × network size) surface.
//!
//! Paper's shape: latency falls as range shrinks (allocators are closer,
//! quorums smaller) and rises gently with network size. Two tables come
//! out: the paper's mean surface, plus a p95 tail surface over the same
//! grid (pooled across replications; p50/p99 are in `--metrics-out`
//! snapshots).

use super::runs::{formation, Arm, RunTable};
use crate::Table;

/// Runs the Figure 7 driver.
#[must_use]
pub fn fig07(runs: &mut RunTable) -> Vec<Table> {
    let opts = runs.opts();
    let nns = opts.nn_sweep();
    let columns: Vec<String> = nns.iter().map(|nn| format!("nn={nn}")).collect();
    let mut t = Table::new(
        "Fig. 7 — quorum configuration latency (hops) vs (tr x nn)",
        "tr_m",
        columns.clone(),
    );
    let mut tail = Table::new(
        "Fig. 7 — quorum configuration latency p95 (hops) vs (tr x nn)",
        "tr_m",
        columns,
    );
    for tr in opts.tr_sweep() {
        let mut row = Vec::new();
        let mut tail_row = Vec::new();
        for &nn in &nns {
            let pooled = runs.pooled(&Arm::quorum(), formation(&opts, nn, tr));
            row.push(pooled.mean().unwrap_or(0.0));
            tail_row.push(pooled.p95().map_or(0.0, |v| v as f64));
        }
        t.push_row(format!("{tr:.0}"), row);
        tail.push_row(format!("{tr:.0}"), tail_row);
    }
    t.note("paper: latency decreases with smaller range, grows mildly with size");
    tail.note("tail companion: pooled p95 over the same replications");
    vec![t, tail]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FigOpts;

    #[test]
    fn surface_is_fully_populated() {
        let opts = FigOpts {
            rounds: 1,
            quick: true,
            seed: 6,
        };
        let tables = fig07(&mut RunTable::new(opts));
        assert_eq!(tables.len(), 2, "mean surface plus p95 surface");
        for t in &tables {
            assert_eq!(t.rows.len(), opts.tr_sweep().len());
            for (_, vals) in &t.rows {
                assert_eq!(vals.len(), opts.nn_sweep().len());
            }
        }
        // The tail sits at or above the mean in every cell.
        for (mean_row, tail_row) in tables[0].rows.iter().zip(tables[1].rows.iter()) {
            for (m, p) in mean_row.1.iter().zip(tail_row.1.iter()) {
                assert!(p + 1e-9 >= *m, "p95 ({p}) must not undercut the mean ({m})");
            }
        }
    }
}
