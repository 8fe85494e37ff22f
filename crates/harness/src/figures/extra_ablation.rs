//! Extra experiment: quality ablation of the design choices `DESIGN.md`
//! calls out — what each mechanism buys, measured on the same churn
//! scenario.

use super::runs::{workload, Arm, Row, RunTable};
use crate::Table;
use qbac_core::{AllocatorChoice, ProtocolConfig, UpdatePolicy};

fn variants() -> Vec<(&'static str, ProtocolConfig)> {
    vec![
        ("baseline", ProtocolConfig::default()),
        (
            "upon-leave updates",
            ProtocolConfig {
                update_policy: UpdatePolicy::UponLeave,
                ..ProtocolConfig::default()
            },
        ),
        (
            "no borrowing",
            ProtocolConfig {
                enable_borrowing: false,
                ..ProtocolConfig::default()
            },
        ),
        (
            "largest-block allocator",
            ProtocolConfig {
                allocator_choice: AllocatorChoice::LargestBlock,
                ..ProtocolConfig::default()
            },
        ),
        (
            "min_qdset=1",
            ProtocolConfig {
                min_qdset: 1,
                ..ProtocolConfig::default()
            },
        ),
    ]
}

/// Runs the quality ablation. Regenerated with `repro --fig 16`.
#[must_use]
pub fn extra_ablation(runs: &mut RunTable) -> Vec<Table> {
    let opts = runs.opts();
    let churn = workload(&opts)
        .nn(if opts.quick { 30 } else { 80 })
        .depart_fraction(0.3)
        .abrupt_ratio(0.3)
        .depart_window_secs(15)
        .cooldown_secs(15)
        .post_arrivals(5);
    let mut t = Table::new(
        "Extra — design-choice ablation (same churn workload)",
        "variant",
        vec![
            "configured".into(),
            "latency_hops".into(),
            "protocol_hops".into(),
            "failures".into(),
        ],
    );
    for (name, cfg) in variants() {
        let arm = Arm::Quorum(cfg);
        let columns = [
            |r: &Row| r.configured as f64,
            |r: &Row| r.latency.mean().unwrap_or(0.0),
            |r: &Row| r.protocol_hops as f64,
            |r: &Row| r.failed as f64,
        ];
        let row = columns.map(|f| runs.mean(&arm, churn.clone(), f));
        t.push_row(name, row.to_vec());
    }
    t.note("upon-leave trades location updates for reclamation precision");
    t.note("borrowing off forces agent forwarding / rejections when depleted");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FigOpts;

    #[test]
    fn ablation_covers_all_variants() {
        let opts = FigOpts {
            rounds: 1,
            quick: true,
            seed: 14,
        };
        let t = &extra_ablation(&mut RunTable::new(opts))[0];
        assert_eq!(t.rows.len(), variants().len());
        for (name, vals) in &t.rows {
            assert!(vals[0] > 0.0, "{name} configured nobody");
        }
    }
}
