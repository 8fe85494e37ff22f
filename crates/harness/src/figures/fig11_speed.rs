//! Figure 11: movement message overhead vs. node speed, nn = 150.
//!
//! Paper's shape: location updates fire when a node drifts more than
//! three hops from its configurer/administrator, so higher mobility
//! means more updates.

use super::runs::{workload, Arm, RunTable};
use crate::Table;
use manet_sim::MsgCategory;

/// Runs the Figure 11 driver.
#[must_use]
pub fn fig11(runs: &mut RunTable) -> Vec<Table> {
    let opts = runs.opts();
    let nn = if opts.quick { 50 } else { 150 };
    let speeds: Vec<f64> = if opts.quick {
        vec![10.0, 30.0]
    } else {
        vec![5.0, 10.0, 20.0, 30.0, 40.0]
    };
    let mut t = Table::new(
        format!("Fig. 11 — movement message overhead (hops per node) vs speed (nn={nn})"),
        "speed_mps",
        vec!["quorum".into()],
    );
    for speed in speeds {
        let moving = workload(&opts)
            .nn(nn)
            .speed_mps(speed)
            // No departures: maintenance is pure movement traffic.
            .depart_fraction(0.0)
            .settle_secs(if opts.quick { 20 } else { 60 });
        let overhead = runs.mean(&Arm::quorum(), moving, |r| {
            r.hops(MsgCategory::Maintenance) as f64 / nn as f64
        });
        t.push_row(format!("{speed:.0}"), vec![overhead]);
    }
    t.note("paper: overhead increases with node mobility");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FigOpts;

    #[test]
    fn faster_nodes_send_more_updates() {
        let opts = FigOpts {
            rounds: 2,
            quick: true,
            seed: 77,
        };
        let t = &fig11(&mut RunTable::new(opts))[0];
        let slow = t.rows.first().unwrap().1[0];
        let fast = t.rows.last().unwrap().1[0];
        assert!(
            fast >= slow,
            "mobility must not reduce movement overhead: slow={slow}, fast={fast}"
        );
    }
}
