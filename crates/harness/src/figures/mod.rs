//! One driver per table/figure of the paper's evaluation (§VI).
//!
//! Every driver takes [`FigOpts`] (replication count and a quick mode
//! for benches) and returns the [`Table`]s that reproduce the figure's
//! series. See `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured values.

mod extra_ablation;
mod extra_fragmentation;
mod extra_routing;
mod extra_stateless;
mod fig04_layout;
mod fig05_latency_size;
mod fig06_latency_range;
mod fig07_latency_surface;
mod fig08_config_overhead;
mod fig09_departure_overhead;
mod fig10_maintenance;
mod fig11_speed;
mod fig12_quorum_size;
mod fig13_failed_heads;
mod fig14_reclamation;

pub use extra_ablation::extra_ablation;
pub use extra_fragmentation::extra_fragmentation;
pub use extra_routing::extra_routing;
pub use extra_stateless::extra_stateless;
pub use fig04_layout::fig04;
pub use fig05_latency_size::fig05;
pub use fig06_latency_range::fig06;
pub use fig07_latency_surface::fig07;
pub use fig08_config_overhead::fig08;
pub use fig09_departure_overhead::fig09;
pub use fig10_maintenance::fig10;
pub use fig11_speed::fig11;
pub use fig12_quorum_size::fig12;
pub use fig13_failed_heads::fig13;
pub use fig14_reclamation::fig14;

use crate::Table;

/// Options shared by all figure drivers.
#[derive(Debug, Clone, Copy)]
pub struct FigOpts {
    /// Independent replications per data point (the paper uses 1000; the
    /// CLI defaults to a handful so a full regeneration stays in minutes).
    pub rounds: u64,
    /// Shrinks sweeps and settle times so a figure regenerates in
    /// seconds (`repro --quick`, the CI smokes).
    pub quick: bool,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for FigOpts {
    fn default() -> Self {
        FigOpts {
            rounds: 5,
            quick: false,
            seed: 1000,
        }
    }
}

impl FigOpts {
    /// Network-size sweep (paper: 50–200).
    #[must_use]
    pub fn nn_sweep(&self) -> Vec<usize> {
        if self.quick {
            vec![30, 60]
        } else {
            vec![50, 100, 150, 200]
        }
    }

    /// Transmission-range sweep (paper: around 100–250 m).
    #[must_use]
    pub fn tr_sweep(&self) -> Vec<f64> {
        if self.quick {
            vec![150.0, 200.0]
        } else {
            vec![100.0, 150.0, 200.0, 250.0]
        }
    }
}

/// Runs every figure, in order.
#[must_use]
pub fn all(opts: &FigOpts) -> Vec<Table> {
    let mut tables = Vec::new();
    tables.extend(fig04(opts));
    tables.extend(fig05(opts));
    tables.extend(fig06(opts));
    tables.extend(fig07(opts));
    tables.extend(fig08(opts));
    tables.extend(fig09(opts));
    tables.extend(fig10(opts));
    tables.extend(fig11(opts));
    tables.extend(fig12(opts));
    tables.extend(fig13(opts));
    tables.extend(fig14(opts));
    tables.extend(extra_fragmentation(opts));
    tables.extend(extra_ablation(opts));
    tables.extend(extra_stateless(opts));
    tables.extend(extra_routing(opts));
    tables
}

/// Runs a single figure by number (4–14). Returns `None` for unknown
/// figures.
#[must_use]
pub fn by_number(n: u32, opts: &FigOpts) -> Option<Vec<Table>> {
    Some(match n {
        4 => fig04(opts),
        5 => fig05(opts),
        6 => fig06(opts),
        7 => fig07(opts),
        8 => fig08(opts),
        9 => fig09(opts),
        10 => fig10(opts),
        11 => fig11(opts),
        12 => fig12(opts),
        13 => fig13(opts),
        14 => fig14(opts),
        15 => extra_fragmentation(opts),
        16 => extra_ablation(opts),
        17 => extra_stateless(opts),
        18 => extra_routing(opts),
        _ => return None,
    })
}
