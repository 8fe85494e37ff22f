//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§VI).
//!
//! Each figure has a driver in [`figures`] that builds the workload,
//! runs the protocols under identical scenarios, and returns a
//! [`render::Table`] with the same rows/series the paper plots. The
//! `repro` binary prints them.
//!
//! Absolute numbers depend on the simulator substrate; what is expected
//! to reproduce is the *shape*: who wins, by roughly what factor, and
//! where the crossovers fall. `EXPERIMENTS.md` records paper-reported
//! vs. measured values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod attacks;
pub mod chaos;
pub mod figures;
pub mod fuzz;
pub mod gate;
pub mod json;
pub mod mesh_equiv;
pub mod oracle;
pub mod render;
pub mod scale;
pub mod scenario;
pub mod snapshot;
pub mod stats;
pub mod sweep;
pub mod topology_baseline;

pub use artifact::{Artifact, ARTIFACT_SCHEMA_VERSION};
pub use attacks::{attack_suite, attack_table, canary_suite, AttackOutcome};
pub use chaos::{chaos_suite, ChaosOpts};
pub use fuzz::{mutate_input, parse_time_budget, run_fuzz, FuzzConfig, FuzzInput, FuzzReport};
pub use gate::{gate, gate_subset, Finding, GateReport, Verdict};
pub use json::Value;
pub use mesh_equiv::{mesh_equiv_suite, EquivCell};
pub use oracle::{check_suite, CheckCell};
pub use render::Table;
pub use scale::{run_scale, ScaleConfig, ScaleReport};
pub use scenario::{
    run_scenario, run_scenario_with, RunMeasurements, RunReport, Scenario, ScenarioBuilder,
    ScenarioError,
};
pub use snapshot::{Phase, ProtocolRun, Snapshot, SnapshotParams};
pub use sweep::{run_jobs, run_sweep, CellResult, SweepGrid, SweepReport};
