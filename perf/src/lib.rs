//! The repo's benchmark: a wall-clock ledger over five workloads, with
//! end-to-end metrics from untraced reps and per-layer metrics from a
//! traced drive and a set of probes. See `README.md` for the metric
//! glossary and how the layers are expected to move the end-to-end
//! numbers; `BENCHMARK.json` at the repository root declares the
//! contract this crate is run under.
//!
//! The crate edits no file of the program. Every layer is measured from
//! outside, by timing calls into public functions; spans inside the
//! program are a later change.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ledger;
pub mod machine;
pub mod names;
pub mod probes;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod workloads;

/// Metric values by registry name.
pub type MetricValues = std::collections::BTreeMap<&'static str, f64>;
