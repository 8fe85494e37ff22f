//! Figure 5: configuration latency (hop counts) vs. network size —
//! quorum protocol vs. MANETconf, tr = 150 m, 1 km².
//!
//! Paper's shape: the quorum protocol halves MANETconf's latency, which
//! grows with the network because full replication needs a global flood
//! and confirmations from everyone.

use super::runs::{formation, Arm, RunTable};
use crate::stats::latency_columns;
use crate::Table;

/// The quorum-vs-MANETconf latency columns Figs 5 and 6 share: mean,
/// p50, p95 and p99 of each protocol's pooled latencies.
pub(super) fn latency_headers() -> Vec<String> {
    [
        "quorum",
        "q_p50",
        "q_p95",
        "q_p99",
        "MANETconf",
        "mc_p50",
        "mc_p95",
        "mc_p99",
    ]
    .map(String::from)
    .to_vec()
}

/// Runs the Figure 5 driver.
#[must_use]
pub fn fig05(runs: &mut RunTable) -> Vec<Table> {
    let opts = runs.opts();
    let mut headers = latency_headers();
    headers.push("ratio".into());
    let mut t = Table::new(
        "Fig. 5 — configuration latency (hops) vs network size (tr=150m)",
        "nn",
        headers,
    );
    for nn in opts.nn_sweep() {
        let q = latency_columns(&runs.pooled(&Arm::quorum(), formation(&opts, nn, 150.0)));
        let mc = latency_columns(&runs.pooled(&Arm::ManetConf, formation(&opts, nn, 150.0)));
        let ratio = mc[0] / q[0].max(1e-9);
        t.push_row(
            nn.to_string(),
            vec![q[0], q[1], q[2], q[3], mc[0], mc[1], mc[2], mc[3], ratio],
        );
    }
    t.note("paper: quorum roughly halves MANETconf's latency");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FigOpts;

    #[test]
    fn quorum_beats_manetconf_at_scale() {
        let opts = FigOpts {
            rounds: 2,
            quick: true,
            seed: 42,
        };
        let tables = fig05(&mut RunTable::new(opts));
        let t = &tables[0];
        // At the largest quick size the flood-based baseline must be
        // slower.
        let last = t.rows.last().unwrap();
        let (ours, theirs) = (last.1[0], last.1[4]);
        assert!(
            theirs > ours,
            "MANETconf ({theirs:.1}) must exceed quorum ({ours:.1})"
        );
        // Quantile columns are populated and ordered.
        for base in [0, 4] {
            let (p50, p95, p99) = (last.1[base + 1], last.1[base + 2], last.1[base + 3]);
            assert!(p50 > 0.0, "p50 must be populated");
            assert!(p50 <= p95 && p95 <= p99, "quantiles must be monotone");
        }
    }
}
