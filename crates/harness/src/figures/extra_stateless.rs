//! Extra experiment: the stateless category made measurable.
//!
//! §III of the paper criticizes query-based DAD (Perkins et al.): "the
//! latency and message overhead of the configuring can be very high" and
//! merging is unhandled. This driver puts numbers on that critique by
//! running the stateless scheme and the quorum protocol through the same
//! formation workload.

use super::runs::{static_formation, Arm, Row, RunTable};
use crate::Table;
use manet_sim::MsgCategory;

/// Runs the stateless-vs-quorum comparison. Regenerated with
/// `repro --fig 17`.
#[must_use]
pub fn extra_stateless(runs: &mut RunTable) -> Vec<Table> {
    let opts = runs.opts();
    let mut t = Table::new(
        "Extra — stateless DAD vs quorum (formation workload)",
        "nn",
        vec![
            "quorum latency".into(),
            "DAD latency".into(),
            "quorum hops/node".into(),
            "DAD hops/node".into(),
        ],
    );
    for nn in opts.nn_sweep() {
        let columns = [
            |r: &Row| r.latency.mean().unwrap_or(0.0),
            |r: &Row| r.hops(MsgCategory::Configuration) as f64 / r.configured.max(1) as f64,
        ];
        let row = columns.map(|f| {
            [Arm::quorum(), Arm::Dad]
                .map(|arm| runs.mean(&arm, static_formation(&opts, nn, 150.0), f))
        });
        t.push_row(nn.to_string(), row.concat());
    }
    t.note("DAD floods AREQ_RETRIES times per node; hop latency hides its timeout waits");
    t.note("paper §III: stateless configuring latency and message overhead can be very high");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FigOpts;

    #[test]
    fn dad_overhead_scales_worse_than_quorum() {
        let opts = FigOpts {
            rounds: 1,
            quick: true,
            seed: 17,
        };
        let t = &extra_stateless(&mut RunTable::new(opts))[0];
        let last = t.rows.last().unwrap();
        let (q_hops, dad_hops) = (last.1[2], last.1[3]);
        assert!(
            dad_hops > q_hops,
            "repeated flooding must cost more per node: quorum {q_hops:.1}, dad {dad_hops:.1}"
        );
    }
}
