//! Extra experiment: quality ablation of the design choices `DESIGN.md`
//! calls out — what each mechanism buys, measured on the same churn
//! scenario.

use super::FigOpts;
use crate::scenario::{parallel_rounds, run_scenario, Scenario};
use crate::stats::mean;
use crate::Table;
use qbac_core::{AllocatorChoice, ProtocolConfig, Qbac, UpdatePolicy};

fn scenario(seed: u64, quick: bool) -> Scenario {
    Scenario::builder()
        .nn(if quick { 30 } else { 80 })
        .depart_fraction(0.3)
        .abrupt_ratio(0.3)
        .settle_secs(if quick { 5 } else { 10 })
        .depart_window_secs(15)
        .cooldown_secs(15)
        .post_arrivals(5)
        .seed(seed)
        .build()
        .expect("figure scenario is in-domain")
}

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
pub fn extra_ablation(opts: &FigOpts) -> Vec<Table> {
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
        let runs = parallel_rounds(opts.rounds, opts.seed, |s| {
            let m =
                run_scenario(&scenario(s, opts.quick), Qbac::new(cfg.clone())).into_measurements();
            (
                m.metrics.configured_nodes() as f64,
                m.metrics.mean_config_latency().unwrap_or(0.0),
                m.metrics.protocol_hops() as f64,
                m.metrics.failed_configurations() as f64,
            )
        });
        t.push_row(
            name,
            vec![
                mean(&runs.iter().map(|r| r.0).collect::<Vec<_>>()),
                mean(&runs.iter().map(|r| r.1).collect::<Vec<_>>()),
                mean(&runs.iter().map(|r| r.2).collect::<Vec<_>>()),
                mean(&runs.iter().map(|r| r.3).collect::<Vec<_>>()),
            ],
        );
    }
    t.note("upon-leave trades location updates for reclamation precision");
    t.note("borrowing off forces agent forwarding / rejections when depleted");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_covers_all_variants() {
        let opts = FigOpts {
            rounds: 1,
            quick: true,
            seed: 14,
        };
        let t = &extra_ablation(&opts)[0];
        assert_eq!(t.rows.len(), variants().len());
        for (name, vals) in &t.rows {
            assert!(vals[0] > 0.0, "{name} configured nobody");
        }
    }
}
