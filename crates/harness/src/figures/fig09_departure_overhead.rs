//! Figure 9: message overhead for node departure vs. network size —
//! quorum protocol vs. the buddy protocol.
//!
//! Paper's shape: the quorum protocol's graceful departure is a local
//! exchange (return to the nearest head, quorum commit); the buddy
//! protocol floods the departure so all global tables stay consistent,
//! so its cost scales with the network.

use super::runs::{workload, Arm, RunTable};
use crate::Table;
use manet_sim::MsgCategory;

/// Runs the Figure 9 driver.
#[must_use]
pub fn fig09(runs: &mut RunTable) -> Vec<Table> {
    let opts = runs.opts();
    let mut t = Table::new(
        "Fig. 9 — departure message overhead (hops per departure) vs network size",
        "nn",
        vec!["quorum".into(), "buddy [2]".into()],
    );
    for nn in opts.nn_sweep() {
        let departures = workload(&opts)
            .nn(nn)
            // Stationary so the maintenance category isolates departures.
            .speed_mps(0.0)
            .depart_fraction(0.4)
            .abrupt_ratio(0.0) // graceful departures only
            .depart_window_secs(20)
            .cooldown_secs(10);
        let row = [Arm::quorum(), Arm::Buddy].map(|arm| {
            runs.mean(&arm, departures.clone(), |r| {
                r.hops(MsgCategory::Maintenance) as f64 / r.graceful.max(1) as f64
            })
        });
        t.push_row(nn.to_string(), row.to_vec());
    }
    t.note("40% of nodes depart gracefully; nodes stationary to isolate departures");
    t.note("paper: buddy departure floods scale with network size, quorum stays local");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FigOpts;

    #[test]
    fn quorum_departures_cheaper_than_buddy_floods() {
        let opts = FigOpts {
            rounds: 1,
            quick: true,
            seed: 21,
        };
        let t = &fig09(&mut RunTable::new(opts))[0];
        let last = t.rows.last().unwrap();
        assert!(
            last.1[0] < last.1[1],
            "quorum departure must be cheaper: {:?}",
            last.1
        );
    }
}
