//! The tables and figures of the paper's evaluation (§VI), as
//! projections of one [`RunTable`].
//!
//! A driver names its workloads and protocol arms, asks the table for
//! their per-seed rows, and reduces those rows to the [`Table`]s that
//! reproduce the figure's series. The table runs each distinct
//! (arm, workload, seed) once, so figures that share a workload share
//! its runs, and a figure prints the same bytes alone as after any
//! other. The [`FigOpts`] on the table (replication count, seed and a
//! quick mode for smokes) hold for every figure on it. See `DESIGN.md`
//! for the experiment index and `EXPERIMENTS.md` for paper-vs-measured
//! values.

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
mod runs;

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
pub use runs::RunTable;

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

/// Projects figure `n` (4–14, extras 15–18) from `runs`, running what
/// the table does not hold yet. Returns `None` for unknown figures.
#[must_use]
pub fn by_number(n: u32, runs: &mut RunTable) -> Option<Vec<Table>> {
    Some(match n {
        4 => fig04(runs),
        5 => fig05(runs),
        6 => fig06(runs),
        7 => fig07(runs),
        8 => fig08(runs),
        9 => fig09(runs),
        10 => fig10(runs),
        11 => fig11(runs),
        12 => fig12(runs),
        13 => fig13(runs),
        14 => fig14(runs),
        15 => extra_fragmentation(runs),
        16 => extra_ablation(runs),
        17 => extra_stateless(runs),
        18 => extra_routing(runs),
        _ => return None,
    })
}
