//! Figure 10: maintenance message overhead (movement + departure) vs.
//! network size — quorum protocol (periodic and upon-leave variants) vs.
//! the C-tree scheme, node speed 20 m/s.
//!
//! Paper's shape: quorum (periodic) and C-tree land close together; the
//! upon-leave variant is far cheaper because it drops location updates.

use super::runs::{workload, Arm, RunTable};
use crate::Table;
use manet_sim::MsgCategory;
use qbac_core::{ProtocolConfig, UpdatePolicy};

/// Runs the Figure 10 driver.
#[must_use]
pub fn fig10(runs: &mut RunTable) -> Vec<Table> {
    let opts = runs.opts();
    let mut t = Table::new(
        "Fig. 10 — maintenance overhead (hops per node) vs network size (20 m/s)",
        "nn",
        vec![
            "quorum (periodic)".into(),
            "quorum (upon-leave)".into(),
            "C-tree [3]".into(),
        ],
    );
    let policy = |update_policy| {
        Arm::Quorum(ProtocolConfig {
            update_policy,
            ..ProtocolConfig::default()
        })
    };
    for nn in opts.nn_sweep() {
        let churn = workload(&opts)
            .nn(nn)
            .speed_mps(20.0)
            .depart_fraction(0.3)
            .abrupt_ratio(0.0)
            .settle_secs(if opts.quick { 5 } else { 15 })
            .depart_window_secs(20)
            .cooldown_secs(10);
        let mut row: Vec<f64> = [UpdatePolicy::Periodic, UpdatePolicy::UponLeave]
            .map(|p| {
                runs.mean(&policy(p), churn.clone(), |r| {
                    r.hops(MsgCategory::Maintenance) as f64 / nn as f64
                })
            })
            .to_vec();
        // C-tree maintenance = departures + its periodic coordinator
        // reports to the C-root.
        row.push(runs.mean(&Arm::CTree, churn, |r| {
            (r.hops(MsgCategory::Maintenance) + r.hops(MsgCategory::Sync)) as f64 / nn as f64
        }));
        t.push_row(nn.to_string(), row);
    }
    t.note("C-tree column folds in its periodic coordinator→root reports");
    t.note("paper: quorum(periodic) ≈ C-tree; upon-leave far cheaper");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FigOpts;

    #[test]
    fn upon_leave_is_cheapest() {
        let opts = FigOpts {
            rounds: 1,
            quick: true,
            seed: 33,
        };
        let t = &fig10(&mut RunTable::new(opts))[0];
        for (x, vals) in &t.rows {
            assert!(
                vals[1] <= vals[0],
                "upon-leave must not exceed periodic at nn={x}: {vals:?}"
            );
        }
    }
}
