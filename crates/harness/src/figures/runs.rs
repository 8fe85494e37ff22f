//! The run table every figure projects.
//!
//! A driver asks for an [`Arm`] under a workload and gets back one
//! [`Row`] per seed, in seed order. The table runs a distinct
//! (arm, workload, seed) once however many figures read it: Fig 5's
//! quorum column is a row of Fig 7's surface, at full size Fig 6's is
//! one of its columns, and Figs 8 and 17 read the static formation
//! Fig 12 inspects.

use super::FigOpts;
use crate::scenario::{parallel_rounds, run_scenario, RunMeasurements, Scenario, ScenarioBuilder};
use crate::stats::{mean, merge_histograms};
use addrspace::fragmentation::{self, FragmentationReport};
use baselines::buddy::Buddy;
use baselines::ctree::CTree;
use baselines::dad::QueryDad;
use baselines::manetconf::ManetConf;
use manet_sim::{Histogram, MsgCategory};
use qbac_core::{ProtocolConfig, Qbac};
use std::collections::BTreeMap;

/// A protocol as a figure runs it. QBAC carries its configuration
/// (Figs 10 and 16 vary it); the baselines run at their defaults.
#[derive(Debug, Clone)]
pub(crate) enum Arm {
    Quorum(ProtocolConfig),
    ManetConf,
    Buddy,
    CTree,
    Dad,
}

impl Arm {
    /// QBAC at its default configuration.
    pub(crate) fn quorum() -> Arm {
        Arm::Quorum(ProtocolConfig::default())
    }
}

/// What one run leaves behind for the figures: counters and the
/// final-world inspections, never the world or the protocol. The
/// inspections stay 0 for a protocol that keeps no such state.
#[derive(Debug, Clone, Default)]
pub(crate) struct Row {
    /// Hop latency of every completed configuration.
    pub latency: Histogram,
    hops: [u64; MsgCategory::ALL.len()],
    pub configured: u64,
    pub failed: u64,
    pub protocol_hops: u64,
    pub graceful: usize,
    pub abrupt: usize,
    /// Mean |QDSet| over the alive heads (Fig 12a).
    pub qdset: f64,
    /// Mean extended-space ratio over the alive heads (Fig 12b).
    pub extension: f64,
    /// Vanished heads whose state survived, and those whose state did
    /// not (Fig 13).
    pub preservation: (usize, usize),
    /// Mean blocks per allocator pool and mean external fragmentation
    /// (Fig 15).
    pub fragmentation: (f64, f64),
}

impl Row {
    fn measured(m: &RunMeasurements) -> Row {
        let mut hops = [0; MsgCategory::ALL.len()];
        for (slot, c) in hops.iter_mut().zip(MsgCategory::ALL) {
            *slot = m.metrics.hops(c);
        }
        Row {
            latency: m.metrics.config_latency().clone(),
            hops,
            configured: m.metrics.configured_nodes(),
            failed: m.metrics.failed_configurations(),
            protocol_hops: m.metrics.protocol_hops(),
            graceful: m.graceful_departures.len(),
            abrupt: m.abrupt_departures.len(),
            ..Row::default()
        }
    }

    /// Hop total for a category.
    pub(crate) fn hops(&self, category: MsgCategory) -> u64 {
        self.hops[category as usize]
    }
}

fn fragmentation_means(pools: &[FragmentationReport]) -> (f64, f64) {
    (
        mean(
            &pools
                .iter()
                .map(|r| r.block_count as f64)
                .collect::<Vec<_>>(),
        ),
        mean(&pools.iter().map(|r| r.external).collect::<Vec<_>>()),
    )
}

/// Runs `arm` through `s` once and keeps its [`Row`].
fn run(arm: &Arm, s: &Scenario) -> Row {
    match arm {
        Arm::Quorum(cfg) => {
            let report = run_scenario(s, Qbac::new(cfg.clone()));
            let (p, w, m) = (report.protocol(), report.world(), report.measurements());
            let pools: Vec<_> = p
                .heads(w)
                .into_iter()
                .filter_map(|h| p.head(h))
                .map(|st| fragmentation::report(&st.pool))
                .collect();
            Row {
                qdset: mean(
                    &p.qdset_sizes(w)
                        .iter()
                        .map(|&x| x as f64)
                        .collect::<Vec<_>>(),
                ),
                extension: mean(&p.extension_ratios(w)),
                preservation: p.preservation_audit(w, &m.abrupt_departures),
                fragmentation: fragmentation_means(&pools),
                ..Row::measured(m)
            }
        }
        Arm::CTree => {
            let report = run_scenario(s, CTree::default());
            let (p, w, m) = (report.protocol(), report.world(), report.measurements());
            Row {
                preservation: p.preservation_audit(w, &m.abrupt_departures),
                fragmentation: fragmentation_means(&p.coordinator_fragmentation(w)),
                ..Row::measured(m)
            }
        }
        Arm::ManetConf => Row::measured(run_scenario(s, ManetConf::default()).measurements()),
        Arm::Buddy => Row::measured(run_scenario(s, Buddy::default()).measurements()),
        Arm::Dad => Row::measured(run_scenario(s, QueryDad::default()).measurements()),
    }
}

/// The figures' common workload: the paper's defaults with a settle
/// time that `--quick` halves. The table sets the seed.
pub(crate) fn workload(opts: &FigOpts) -> ScenarioBuilder {
    Scenario::builder().settle_secs(if opts.quick { 5 } else { 10 })
}

/// Sequential arrivals at range `tr`, moving at 20 m/s once
/// configured, no departures: the formation Figs 5, 6 and 7 share.
pub(crate) fn formation(opts: &FigOpts, nn: usize, tr: f64) -> ScenarioBuilder {
    workload(opts).nn(nn).tr_m(tr)
}

/// [`formation`] with every node stationary: the formed network Fig 12
/// inspects and Figs 8 and 17 count messages over. A static formation
/// keeps partition churn (which the buddy protocol simply does not
/// handle) out of the configuration columns; mobility is Figs 10-11's
/// subject.
pub(crate) fn static_formation(opts: &FigOpts, nn: usize, tr: f64) -> ScenarioBuilder {
    formation(opts, nn, tr).speed_mps(0.0)
}

/// Every run the figures have asked for, keyed by (arm, workload), one
/// row per seed `opts.seed..opts.seed + opts.rounds`.
#[derive(Debug)]
pub struct RunTable {
    opts: FigOpts,
    /// Keyed by the `Debug` rendering of the arm and the workload, which
    /// prints every field (floats exactly), so two requests share a key
    /// exactly when they would run the same simulations. Only looked
    /// up, never iterated.
    rows: BTreeMap<String, Vec<Row>>,
    executed: u64,
}

impl RunTable {
    /// An empty table for figures regenerated under `opts`.
    #[must_use]
    pub fn new(opts: FigOpts) -> Self {
        RunTable {
            opts,
            rows: BTreeMap::new(),
            executed: 0,
        }
    }

    /// The options every figure on this table shares.
    #[must_use]
    pub(crate) fn opts(&self) -> FigOpts {
        self.opts
    }

    /// How many simulations the table has run so far.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// One row per seed, in seed order, for `arm` under `workload`;
    /// runs them (one worker per CPU) on the first request only.
    pub(crate) fn rows(&mut self, arm: &Arm, workload: ScenarioBuilder) -> &[Row] {
        let scenario = workload.build().expect("figure scenario is in-domain");
        let (rounds, base_seed) = (self.opts.rounds, self.opts.seed);
        let executed = &mut self.executed;
        self.rows
            .entry(format!("{arm:?} {scenario:?}"))
            .or_insert_with(|| {
                *executed += rounds;
                parallel_rounds(rounds, base_seed, |seed| {
                    run(
                        arm,
                        &Scenario {
                            seed,
                            ..scenario.clone()
                        },
                    )
                })
            })
    }

    /// The mean of `f` over the rows of `arm` under `workload`.
    pub(crate) fn mean(
        &mut self,
        arm: &Arm,
        workload: ScenarioBuilder,
        f: impl Fn(&Row) -> f64,
    ) -> f64 {
        mean(&self.rows(arm, workload).iter().map(f).collect::<Vec<_>>())
    }

    /// The configuration latencies of every row of `arm` under
    /// `workload`, pooled.
    pub(crate) fn pooled(&mut self, arm: &Arm, workload: ScenarioBuilder) -> Histogram {
        merge_histograms(self.rows(arm, workload).iter().map(|r| r.latency.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{by_number, fig05, fig07};

    #[test]
    fn fig05_after_fig07_runs_only_its_manetconf_column() {
        let mut runs = RunTable::new(FigOpts {
            rounds: 1,
            quick: true,
            seed: 7,
        });
        let _ = fig07(&mut runs);
        let surface = runs.executed();
        assert_eq!(surface, 4, "quick fig 7 is a 2 x 2 surface");
        let _ = fig05(&mut runs);
        assert_eq!(
            runs.executed() - surface,
            2,
            "fig 5's quorum column is fig 7's tr = 150 row"
        );
    }

    #[test]
    fn the_quick_loop_runs_each_distinct_cell_once() {
        let rounds = 2;
        let mut runs = RunTable::new(FigOpts {
            rounds,
            quick: true,
            seed: 7,
        });
        for n in 4..=18 {
            let _ = by_number(n, &mut runs);
        }
        assert_eq!(runs.executed(), 47 * rounds);
    }
}
