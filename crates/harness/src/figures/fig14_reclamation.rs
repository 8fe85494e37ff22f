//! Figure 14: address reclamation message overhead vs. network size —
//! quorum protocol vs. the C-tree scheme.
//!
//! Paper's shape: comparable at small/medium sizes (crossings near
//! nn≈80 and nn≈170), with the quorum protocol cheaper beyond ~170
//! because reclamation stays local to the vanished head's neighborhood
//! and borrowing postpones it, while the C-root floods.

use super::runs::{workload, Arm, RunTable};
use crate::Table;
use manet_sim::MsgCategory;

/// Runs the Figure 14 driver.
#[must_use]
pub fn fig14(runs: &mut RunTable) -> Vec<Table> {
    let opts = runs.opts();
    let mut t = Table::new(
        "Fig. 14 — address reclamation overhead (hops per abrupt departure) vs network size",
        "nn",
        vec!["quorum".into(), "C-tree [3]".into()],
    );
    for nn in opts.nn_sweep() {
        let exodus = workload(&opts)
            .nn(nn)
            .speed_mps(0.0)
            .depart_fraction(0.2)
            .abrupt_ratio(1.0) // all abrupt: force reclamation
            .depart_window_secs(5)
            .cooldown_secs(if opts.quick { 20 } else { 40 })
            // New arrivals after the exodus make allocators touch their
            // quorums and detect the vanished heads.
            .post_arrivals(nn / 10);
        let row = [Arm::quorum(), Arm::CTree].map(|arm| {
            runs.mean(&arm, exodus.clone(), |r| {
                r.hops(MsgCategory::Reclamation) as f64 / r.abrupt.max(1) as f64
            })
        });
        t.push_row(nn.to_string(), row.to_vec());
    }
    t.note("20% of nodes leave abruptly; fresh arrivals trigger detection");
    t.note("paper: comparable cost, quorum cheaper for nn > ~170");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FigOpts;

    #[test]
    fn reclamation_traffic_is_measured() {
        let opts = FigOpts {
            rounds: 2,
            quick: true,
            seed: 90,
        };
        let t = &fig14(&mut RunTable::new(opts))[0];
        // At least one of the protocols must show reclamation traffic in
        // every row (abrupt departures of heads are probabilistic, but
        // with 20% of all nodes vanishing some head is always affected).
        let any_traffic = t.rows.iter().any(|(_, vals)| vals.iter().any(|&v| v > 0.0));
        assert!(any_traffic, "no reclamation traffic at all: {:?}", t.rows);
    }
}
