//! The five workloads. Each is a stream of *units* (one call into a
//! public entry point of the program) generated from the seed; a *rep*
//! runs a fixed number of them back to back on one thread (a closed loop
//! of fixed work). Rep `r` takes the stream's `r`-th slice, so every rep
//! is the same amount of nominal work on fresh inputs: the median rep of
//! a run averages over all the inputs the run got through, which is what
//! keeps it steady from seed to seed. Simulated statistics come from the
//! first [`TRACED_REPS`] reps and repeat exactly for a seed however many
//! reps fit.
//!
//! Every workload also has a *traced* drive that records spans and
//! exposes the run's [`Metrics`]. Where the public entry point hides what
//! the spans need (`oracle_chaos`, `mesh_udp`) the traced drive mirrors
//! it on lower-level public functions and must reproduce its outputs
//! exactly.

pub mod mesh_udp;
pub mod oracle_chaos;
pub mod paper_grid;
pub mod scenario_set;

use crate::spans::{SpanId, SpanLog};
use crate::timed::Busy;
use proto_io::Metrics;

/// What one untraced rep produced.
#[derive(Debug, Clone)]
pub struct Rep {
    /// FNV-1a over the rep's behaviour (see each workload); the traced
    /// drive of the same inputs must reproduce it.
    pub digest: u64,
    /// Wall time of each unit, ms.
    pub unit_ms: Vec<f64>,
    /// Operations attempted (units; grid cells; check runs; mesh cells).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

/// How many reps the traced drive covers, and so how many untraced reps
/// every run makes at the least. One rep is too small a sample for the
/// simulated statistics: over ten seeds `paper_grid`'s mean configuration
/// latency had quartiles 7.8% apart from one rep and 2.0% from three.
pub const TRACED_REPS: usize = 3;

/// What the traced drive produced, besides the spans it logged. Sums
/// run over every rep driven.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Behaviour digest per rep; each must equal the untraced rep's on
    /// the same inputs.
    pub digests: Vec<u64>,
    /// Metrics merged over every unit.
    pub metrics: Metrics,
    /// Nodes the units spawn: the join attempts.
    pub spawned: u64,
    /// Handler busy time in units that run the quorum protocol.
    pub quorum_busy: Busy,
    /// Per-layer values only this workload can supply, by metric name.
    pub layer: crate::MetricValues,
}

/// One workload. `Inputs` is everything generated from the seed; the
/// program under test receives only these.
pub trait Workload {
    /// The generated inputs.
    type Inputs;
    /// Name in `BENCHMARK.json`.
    const NAME: &'static str;
    /// The topology-build probe that prices this workload's rebuilds.
    /// Worlds that grow join by join rebuild at every size on the way
    /// up, so the default is the mean over a shard's join ramp.
    const REBUILD_PROBE: &'static str = "manet-sim.topology.build_us_ramp128";
    /// A caveat the report must carry next to the numbers, if any.
    const CAVEAT: &'static str = "";
    /// Whether the runner keeps the workload on one CPU
    /// ([`crate::machine::OneCore`]): for a workload whose threads hand
    /// work to one another in lockstep.
    const ONE_CORE: bool = false;

    /// Generates rep `rep`'s inputs. `smoke` shrinks the workload to a
    /// fraction of a second per rep, for the test suite.
    fn generate(seed: u64, rep: u64, smoke: bool) -> Self::Inputs;
    /// Runs a small slice of the work so caches, the allocator and lazy
    /// set-up are warm before timing.
    fn warm_up(inputs: &Self::Inputs);
    /// One untraced rep through the public entry point.
    fn rep(inputs: &Self::Inputs) -> Rep;
    /// The traced drive of the first reps' inputs, spans under `root`.
    fn traced(reps: &[Self::Inputs], log: &mut SpanLog, root: SpanId) -> Traced;
}

/// SplitMix64 finalizer over `(seed, index)`: decorrelated per-unit
/// seeds, a pure function of the benchmark seed.
#[must_use]
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Milliseconds since `start`.
#[must_use]
pub fn ms_since(start: std::time::Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_seeds_are_a_pure_function_of_seed_and_index() {
        assert_eq!(mix(7, 3), mix(7, 3));
        assert_ne!(mix(7, 3), mix(7, 4));
        assert_ne!(mix(7, 3), mix(8, 3));
    }
}
