//! `repro sweep`: the work-stealing parallel sweep runner.
//!
//! Expands a parameter grid (protocol × node count × mobility × loss ×
//! chaos schedule, with seed replications per cell) into a job queue,
//! fans the cells across worker threads, and merges the per-shard
//! telemetry ([`Metrics`], [`FlowTally`], fault and perf counters) into
//! one deterministic `sweep.json` artifact: per-cell quantiles,
//! grid-level rollups, and an FNV-1a fingerprint over the deterministic
//! rendering.
//!
//! A replication picks its protocol type by name through
//! [`conformance::for_protocol!`], once per run, and builds it with
//! [`conformance::ConformanceAdapter::fresh`]. The artifact's cell
//! array has one writer, `write_cells`, which `repro scale` shares.
//!
//! Determinism contract: the artifact records nothing about *how* the
//! sweep executed (thread count, scheduling order, wall time when
//! zeroed), and cells are keyed by their grid-expansion index — so the
//! same grid and seed produce a byte-identical artifact whether it ran
//! on one thread or sixteen. Wall-clock fields render as 0 under
//! `REPRO_NO_WALL_CLOCK=1` (or [`SweepReport::deterministic_json`]);
//! the fingerprint is always computed over the zeroed form.

use crate::scenario::{run_scenario, Scenario, ScenarioError};
use conformance::ConformanceAdapter;
use manet_sim::observer::all_kinds;
use manet_sim::{FaultPlan, FlowTally, Metrics, MobilityConfig};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The parameter grid a sweep expands. Axes multiply: every protocol ×
/// size × speed × loss × plan combination becomes one cell, run `reps`
/// times with seeds `base_seed..base_seed+reps` and merged.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Protocol names (see [`conformance::registry::PROTOCOLS`]).
    pub protocols: Vec<String>,
    /// Node counts.
    pub sizes: Vec<usize>,
    /// Node speeds after configuration, m/s.
    pub speeds: Vec<f64>,
    /// Mobility model specs ([`MobilityConfig::parse`] grammar:
    /// `random-waypoint`, `manhattan:SPACING`, `group:SIZE,RADIUS`,
    /// `flash-crowd:RADIUS,UNTIL`).
    pub mobilities: Vec<String>,
    /// Delivery loss probabilities.
    pub losses: Vec<f64>,
    /// Chaos schedule names: `"none"` or a name from
    /// [`conformance::chaos_schedules`] (`storm`, `splitbrain`,
    /// `reaper`).
    pub plans: Vec<String>,
    /// Seed replications per cell.
    pub reps: u64,
    /// Base RNG seed.
    pub base_seed: u64,
    /// Shrinks the per-cell drive (short settle/cooldown windows) so
    /// smoke grids finish in seconds.
    pub quick: bool,
}

impl SweepGrid {
    /// The CI smoke grid: every protocol over two sizes, mobile and
    /// static, random-waypoint and Manhattan-grid motion, reliable
    /// links, no chaos, one replication.
    #[must_use]
    pub fn smoke(base_seed: u64) -> Self {
        SweepGrid {
            protocols: conformance::registry::PROTOCOLS
                .iter()
                .map(|s| (*s).to_string())
                .collect(),
            sizes: vec![20, 30],
            speeds: vec![0.0, 20.0],
            mobilities: vec!["random-waypoint".into(), "manhattan:100".into()],
            losses: vec![0.0],
            plans: vec!["none".into()],
            reps: 1,
            base_seed,
            quick: true,
        }
    }

    /// The full default grid: the paper's size span with the loss
    /// robustness axis and three replications.
    #[must_use]
    pub fn full(base_seed: u64) -> Self {
        SweepGrid {
            protocols: conformance::registry::PROTOCOLS
                .iter()
                .map(|s| (*s).to_string())
                .collect(),
            sizes: vec![50, 100, 200],
            speeds: vec![0.0, 20.0],
            mobilities: vec!["random-waypoint".into()],
            losses: vec![0.0, 0.1],
            plans: vec!["none".into()],
            reps: 3,
            base_seed,
            quick: false,
        }
    }

    /// Number of cells the grid expands to.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.protocols.len()
            * self.sizes.len()
            * self.speeds.len()
            * self.mobilities.len()
            * self.losses.len()
            * self.plans.len()
    }

    /// Expands the grid into cell parameter tuples, in the fixed
    /// nesting order protocol → size → speed → mobility → loss → plan.
    /// This order is the artifact's cell order regardless of execution
    /// schedule.
    #[must_use]
    pub fn expand(&self) -> Vec<CellParams> {
        let mut cells = Vec::with_capacity(self.cell_count());
        for protocol in &self.protocols {
            for &nn in &self.sizes {
                for &speed in &self.speeds {
                    for mobility in &self.mobilities {
                        for &loss in &self.losses {
                            for plan in &self.plans {
                                cells.push(CellParams {
                                    protocol: protocol.clone(),
                                    nn,
                                    speed,
                                    mobility: mobility.clone(),
                                    loss,
                                    plan: plan.clone(),
                                });
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

/// One cell's coordinates in the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CellParams {
    /// Protocol name.
    pub protocol: String,
    /// Node count.
    pub nn: usize,
    /// Node speed, m/s.
    pub speed: f64,
    /// Mobility model spec (canonical [`MobilityConfig`] text).
    pub mobility: String,
    /// Delivery loss probability.
    pub loss: f64,
    /// Chaos schedule name (`"none"` for a fault-free cell).
    pub plan: String,
}

impl CellParams {
    /// Stable human/machine key, used in artifacts and error reports.
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "{}/n{}/v{}/{}/loss{}/{}",
            self.protocol, self.nn, self.speed, self.mobility, self.loss, self.plan
        )
    }

    /// The scenario one replication of this cell runs under `plan`
    /// (see [`SweepGrid::plans`]).
    ///
    /// # Panics
    ///
    /// Panics on a mobility spec [`MobilityConfig::parse`] rejects, or
    /// one the scenario builder rejects; [`run_sweep`] rejects both up
    /// front.
    #[must_use]
    pub fn scenario(&self, plan: FaultPlan, seed: u64, quick: bool) -> Scenario {
        self.try_scenario(plan, seed, quick)
            .expect("sweep cell scenario validated up front")
    }

    fn try_scenario(
        &self,
        plan: FaultPlan,
        seed: u64,
        quick: bool,
    ) -> Result<Scenario, SweepError> {
        let mobility =
            MobilityConfig::parse(&self.mobility).map_err(|_| SweepError::UnknownName {
                axis: "mobility",
                name: self.mobility.clone(),
            })?;
        Scenario::builder()
            .nn(self.nn)
            .speed_mps(self.speed)
            .mobility(mobility)
            .loss_rate(self.loss)
            .arrival_gap_ms(if quick { 500 } else { 1000 })
            .settle_secs(if quick { 5 } else { 10 })
            .depart_fraction(0.3)
            .abrupt_ratio(0.5)
            .depart_window_secs(if quick { 5 } else { 20 })
            .cooldown_secs(if quick { 5 } else { 15 })
            .post_arrivals(2)
            .fault_plan(plan)
            .observe(true)
            .seed(seed)
            .build()
            .map_err(SweepError::Scenario)
    }
}

/// One cell's merged telemetry across its replications.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell's grid coordinates.
    pub params: CellParams,
    /// Replications merged in.
    pub reps: u64,
    /// Merged metrics (histograms, counters, faults, perf).
    pub metrics: Metrics,
    /// Merged flow tallies, one per [`manet_sim::FlowKind`].
    pub flows: Vec<(String, FlowTally)>,
    /// Simulated time covered, microseconds (sum over replications;
    /// deterministic).
    pub sim_us: u64,
    /// Wall-clock spent on this cell, microseconds (non-deterministic;
    /// zeroed in the deterministic rendering).
    pub wall_us: u64,
}

/// A completed sweep, ready to render as `sweep.json`.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The grid that was run.
    pub grid: SweepGrid,
    /// Per-cell merged results, in grid-expansion order.
    pub cells: Vec<CellResult>,
    /// Cells that panicked: `(cell key, panic message)`. A poisoned
    /// cell is excluded from `cells` and from the rollups.
    pub failed: Vec<(String, String)>,
    /// Total wall-clock for the sweep, microseconds.
    pub wall_us: u64,
}

/// Why a sweep could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// A grid axis named something the registry doesn't know.
    UnknownName {
        /// Which axis (`protocol`, `mobility`, or `plan`).
        axis: &'static str,
        /// The unknown name.
        name: String,
    },
    /// A grid axis value the scenario builder rejects, such as a
    /// Manhattan spacing wider than the arena.
    Scenario(ScenarioError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::UnknownName { axis, name } => {
                write!(f, "unknown {axis} {name:?} in sweep grid")
            }
            SweepError::Scenario(e) => write!(f, "sweep grid: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// Runs `jobs` closures across up to `threads` workers with
/// work-stealing dispatch (a shared atomic cursor), returning results
/// in job order.
///
/// * Zero jobs, or an effective worker count of one, runs inline on the
///   calling thread — no threads are spawned.
/// * A panicking job poisons only its own slot: the panic is caught and
///   surfaced as `Err(message)`, and every other job still runs.
pub fn run_jobs<T, F>(jobs: usize, threads: usize, f: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run_one = |i: usize| -> Result<T, String> {
        catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| {
            payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string())
        })
    };
    if jobs == 0 {
        return Vec::new();
    }
    let workers = threads.max(1).min(jobs);
    if workers <= 1 {
        return (0..jobs).map(run_one).collect();
    }
    let mut out: Vec<Option<Result<T, String>>> = (0..jobs).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    let results = Mutex::new(&mut out);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let value = run_one(i);
                results.lock().expect("result sink poisoned")[i] = Some(value);
            });
        }
    });
    out.into_iter()
        .map(|v| v.expect("all jobs dispatched"))
        .collect()
}

/// Resolves a chaos-schedule name to its fault plan (`"none"` → empty).
fn plan_by_name(name: &str) -> Result<FaultPlan, SweepError> {
    if name == "none" {
        return Ok(FaultPlan::default());
    }
    conformance::chaos_schedules()
        .into_iter()
        .find(|s| s.name == name)
        .map(|s| s.plan)
        .ok_or(SweepError::UnknownName {
            axis: "plan",
            name: name.to_string(),
        })
}

/// Runs one replication, dispatching on the protocol name. Unknown
/// names were rejected up front, so this panics only on registry drift.
fn run_rep(
    p: &CellParams,
    plan: FaultPlan,
    seed: u64,
    quick: bool,
) -> (Metrics, Vec<FlowTally>, u64) {
    let s = p.scenario(plan, seed, quick);
    conformance::for_protocol!(PROTOCOLS: p.protocol.as_str(), P => {
        let report = run_scenario(&s, P::fresh());
        let flows = all_kinds()
            .iter()
            .map(|k| *report.world().observer().tally(*k))
            .collect();
        let sim_us = report.world().now().as_micros();
        (report.into_measurements().metrics, flows, sim_us)
    })
    .unwrap_or_else(|| panic!("protocol {:?} vanished from the registry", p.protocol))
}

/// Runs one cell: `reps` replications merged into one [`CellResult`].
fn run_cell(
    p: &CellParams,
    plan: &FaultPlan,
    reps: u64,
    base_seed: u64,
    quick: bool,
) -> CellResult {
    let t0 = std::time::Instant::now();
    let mut metrics = Metrics::new();
    let mut flows: Vec<(String, FlowTally)> = all_kinds()
        .iter()
        .map(|k| (k.to_string(), FlowTally::default()))
        .collect();
    let mut sim_us = 0u64;
    for rep in 0..reps.max(1) {
        let (m, f, t) = run_rep(p, plan.clone(), base_seed.wrapping_add(rep), quick);
        metrics.merge(&m);
        for (slot, tally) in flows.iter_mut().zip(f) {
            slot.1.merge(&tally);
        }
        sim_us += t;
    }
    CellResult {
        params: p.clone(),
        reps: reps.max(1),
        metrics,
        flows,
        sim_us,
        wall_us: t0.elapsed().as_micros() as u64,
    }
}

/// Runs the whole grid across `threads` workers.
///
/// # Errors
///
/// Rejects unknown protocol, mobility or plan names, and a mobility the
/// scenario builder refuses, before starting any work. Per-cell panics
/// do *not* error the sweep — they land in [`SweepReport::failed`] with
/// the cell's parameters.
pub fn run_sweep(grid: &SweepGrid, threads: usize) -> Result<SweepReport, SweepError> {
    for p in &grid.protocols {
        if !conformance::registry::PROTOCOLS.contains(&p.as_str()) {
            return Err(SweepError::UnknownName {
                axis: "protocol",
                name: p.clone(),
            });
        }
    }
    // One scenario per mobility before any cell runs: a spec that
    // parses but cannot move nodes in the arena fails here, not in
    // every cell.
    let params = grid.expand();
    for m in &grid.mobilities {
        if let Some(p) = params.iter().find(|p| p.mobility == *m) {
            p.try_scenario(FaultPlan::default(), grid.base_seed, grid.quick)?;
        }
    }
    // Resolve plans up front: fail fast, and avoid re-parsing the
    // schedule grammar inside every worker.
    let plans: Vec<(String, FaultPlan)> = grid
        .plans
        .iter()
        .map(|name| plan_by_name(name).map(|plan| (name.clone(), plan)))
        .collect::<Result<_, _>>()?;
    let t0 = std::time::Instant::now();
    let results = run_jobs(params.len(), threads, |i| {
        let p = &params[i];
        let plan = &plans
            .iter()
            .find(|(name, _)| *name == p.plan)
            .expect("plan resolved above")
            .1;
        run_cell(p, plan, grid.reps, grid.base_seed, grid.quick)
    });
    let mut cells = Vec::with_capacity(params.len());
    let mut failed = Vec::new();
    for (p, r) in params.iter().zip(results) {
        match r {
            Ok(cell) => cells.push(cell),
            Err(msg) => failed.push((p.key(), msg)),
        }
    }
    Ok(SweepReport {
        grid: grid.clone(),
        cells,
        failed,
        wall_us: t0.elapsed().as_micros() as u64,
    })
}

use crate::artifact::{
    json_f64_list, json_str_list, json_usize_list, push_json_str, Artifact, Fingerprinted,
};

/// Writes the `cells` array: the grammar `sweep.json` and `repro
/// scale`'s artifact share, so `repro gate` reads both alike.
pub(crate) fn write_cells(s: &mut Artifact, cells: &[CellResult], zero_walls: bool) {
    s.push(",\"cells\":[");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            s.push(",");
        }
        let p = &c.params;
        let wall = if zero_walls { 0 } else { c.wall_us };
        let _ = write!(
            s,
            "{{\"protocol\":\"{}\",\"nn\":{},\"speed\":{},\"mobility\":\"{}\",\"loss\":{},\"plan\":\"{}\",\"reps\":{},\"sim_us\":{},\"wall_us\":{wall},\"metrics\":{},\"perf\":{},\"flows\":[",
            p.protocol, p.nn, p.speed, p.mobility, p.loss, p.plan, c.reps, c.sim_us,
            c.metrics.to_json(),
            c.metrics.perf().to_json(),
        );
        for (j, (kind, t)) in c.flows.iter().enumerate() {
            if j > 0 {
                s.push(",");
            }
            let _ = write!(
                s,
                "{{\"kind\":\"{kind}\",\"started\":{},\"assigned\":{},\"abandoned\":{},\"finalized\":{},\"retries\":{}}}",
                t.started, t.assigned, t.abandoned, t.finalized, t.retries
            );
        }
        s.push("]}");
    }
    s.push("]");
}

/// The benchmark crate renders sweeps without naming [`Fingerprinted`],
/// so these two stay inherent.
impl SweepReport {
    /// Renders the artifact with real wall-clock timings.
    #[must_use]
    pub fn to_json(&self) -> String {
        Fingerprinted::to_json(self)
    }

    /// Renders the byte-identical-across-runs form: every `wall_us`
    /// field zeroed.
    #[must_use]
    pub fn deterministic_json(&self) -> String {
        Fingerprinted::deterministic_json(self)
    }
}

impl Fingerprinted for SweepReport {
    /// Everything up to (and excluding) the fingerprint field. Thread
    /// count and execution order are deliberately absent.
    fn render_body(&self, zero_walls: bool) -> Artifact {
        let g = &self.grid;
        let mut s = Artifact::begin();
        let _ = write!(
            s,
            ",\"sweep\":{{\"base_seed\":{},\"reps\":{},\"quick\":{},\"grid\":{{\"protocols\":{},\"sizes\":{},\"speeds\":{},\"mobilities\":{},\"losses\":{},\"plans\":{}}}}}",
            g.base_seed,
            g.reps,
            g.quick,
            json_str_list(&g.protocols),
            json_usize_list(&g.sizes),
            json_f64_list(&g.speeds),
            json_str_list(&g.mobilities),
            json_f64_list(&g.losses),
            json_str_list(&g.plans),
        );
        write_cells(&mut s, &self.cells, zero_walls);
        s.push(",\"failed\":[");
        for (i, (key, msg)) in self.failed.iter().enumerate() {
            if i > 0 {
                s.push(",");
            }
            let _ = write!(s, "{{\"cell\":\"{key}\",\"panic\":");
            push_json_str(&mut s, msg);
            s.push("}");
        }
        // Grid-level rollups: everything merged across surviving cells.
        let mut all = Metrics::new();
        let mut sim_us = 0u64;
        for c in &self.cells {
            all.merge(&c.metrics);
            sim_us += c.sim_us;
        }
        let wall = if zero_walls { 0 } else { self.wall_us };
        let _ = write!(
            s,
            "],\"rollup\":{{\"cells\":{},\"failed_cells\":{},\"sim_us\":{sim_us},\"wall_us\":{wall},\"configured_nodes\":{},\"failed_configurations\":{},\"protocol_hops\":{},\"config_latency\":{},\"perf\":{}}},",
            self.cells.len(),
            self.failed.len(),
            all.configured_nodes(),
            all.failed_configurations(),
            all.protocol_hops(),
            all.config_latency().to_json(),
            all.perf().to_json(),
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> SweepGrid {
        SweepGrid {
            protocols: vec!["quorum".into(), "dad".into()],
            sizes: vec![8],
            speeds: vec![0.0],
            mobilities: vec!["random-waypoint".into()],
            losses: vec![0.0],
            plans: vec!["none".into()],
            reps: 1,
            base_seed: 3,
            quick: true,
        }
    }

    #[test]
    fn expansion_order_is_fixed() {
        let mut g = tiny_grid();
        g.sizes = vec![8, 12];
        g.mobilities = vec!["random-waypoint".into(), "manhattan:100".into()];
        let keys: Vec<String> = g.expand().iter().map(CellParams::key).collect();
        assert_eq!(
            keys,
            vec![
                "quorum/n8/v0/random-waypoint/loss0/none",
                "quorum/n8/v0/manhattan:100/loss0/none",
                "quorum/n12/v0/random-waypoint/loss0/none",
                "quorum/n12/v0/manhattan:100/loss0/none",
                "dad/n8/v0/random-waypoint/loss0/none",
                "dad/n8/v0/manhattan:100/loss0/none",
                "dad/n12/v0/random-waypoint/loss0/none",
                "dad/n12/v0/manhattan:100/loss0/none",
            ]
        );
        assert_eq!(g.cell_count(), 8);
    }

    #[test]
    fn run_jobs_inline_when_single_threaded() {
        let main_thread = std::thread::current().id();
        let results = run_jobs(3, 1, |i| {
            assert_eq!(
                std::thread::current().id(),
                main_thread,
                "one worker must not spawn threads"
            );
            i * 2
        });
        assert_eq!(
            results.into_iter().collect::<Result<Vec<_>, _>>().unwrap(),
            vec![0, 2, 4]
        );
        assert!(run_jobs(0, 8, |i| i).is_empty());
    }

    #[test]
    fn run_jobs_panic_poisons_only_its_slot() {
        let results = run_jobs(4, 2, |i| {
            if i == 2 {
                panic!("cell {i} exploded");
            }
            i
        });
        assert_eq!(results[0], Ok(0));
        assert_eq!(results[1], Ok(1));
        assert_eq!(results[3], Ok(3));
        let err = results[2].as_ref().unwrap_err();
        assert!(err.contains("cell 2 exploded"), "{err}");
    }

    #[test]
    fn run_jobs_parallel_results_in_job_order() {
        let results: Vec<usize> = run_jobs(32, 4, |i| i * i)
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(results, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_rejects_unknown_names() {
        let mut g = tiny_grid();
        g.protocols = vec!["carrier-pigeon".into()];
        let err = run_sweep(&g, 1).unwrap_err();
        assert!(err.to_string().contains("carrier-pigeon"), "{err}");

        let mut g = tiny_grid();
        g.plans = vec!["hurricane".into()];
        let err = run_sweep(&g, 1).unwrap_err();
        assert!(err.to_string().contains("hurricane"), "{err}");

        let mut g = tiny_grid();
        g.mobilities = vec!["teleport:9".into()];
        let err = run_sweep(&g, 1).unwrap_err();
        assert!(err.to_string().contains("mobility"), "{err}");
        assert!(err.to_string().contains("teleport"), "{err}");
    }

    #[test]
    fn out_of_arena_mobility_fails_before_any_cell_runs() {
        let mut g = tiny_grid();
        g.mobilities = vec!["random-waypoint".into(), "manhattan:5000".into()];
        let err = run_sweep(&g, 1).unwrap_err();
        let SweepError::Scenario(ScenarioError::OutOfRange { field, value, .. }) = &err else {
            panic!("expected the builder's error, got {err}");
        };
        assert_eq!((*field, value.as_str()), ("mobility", "manhattan:5000"));
        assert!(err.to_string().contains("sweep grid"), "{err}");
    }

    #[test]
    fn mobile_cell_runs_under_every_model() {
        let mut g = tiny_grid();
        g.protocols = vec!["quorum".into()];
        g.speeds = vec![10.0];
        g.mobilities = vec![
            "random-waypoint".into(),
            "manhattan:100".into(),
            "group:4,50".into(),
            "flash-crowd:80,30".into(),
        ];
        let report = run_sweep(&g, 2).unwrap();
        assert_eq!(report.cells.len(), 4, "failed: {:?}", report.failed);
        assert!(report.failed.is_empty(), "{:?}", report.failed);
        let json = report.deterministic_json();
        assert!(json.contains("\"mobility\":\"manhattan:100\""), "{json}");
        assert!(json.contains("\"mobilities\":[\"random-waypoint\""));
    }

    #[test]
    fn tiny_sweep_produces_cells_and_fingerprint() {
        let report = run_sweep(&tiny_grid(), 2).unwrap();
        assert_eq!(report.cells.len(), 2);
        assert!(report.failed.is_empty());
        let json = report.deterministic_json();
        for key in [
            "\"schema_version\":1",
            "\"protocol\":\"quorum\"",
            "\"protocol\":\"dad\"",
            "\"perf\"",
            "\"queue_high_water\"",
            "\"rollup\"",
            "\"config_latency\"",
            "\"fingerprint\":\"fnv1a:",
            "\"wall_us\":0",
        ] {
            assert!(json.contains(key), "sweep.json must contain {key}");
        }
        assert!(
            !json.contains("\"threads\""),
            "execution shape must not leak into the artifact"
        );
        // The deterministic rendering parses with the workspace reader.
        let parsed = crate::json::Value::parse(&json).expect("sweep.json parses");
        assert_eq!(parsed.get("schema_version").unwrap().as_u64(), Some(1));
        assert_eq!(parsed.get("cells").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn panic_text_survives_the_artifact_round_trip() {
        let msg = "assertion `left == right` failed: \"a\\\"b\"\n  left: C:\\tmp";
        let report = SweepReport {
            grid: tiny_grid(),
            cells: Vec::new(),
            failed: vec![("quorum/n8".into(), msg.into())],
            wall_us: 0,
        };
        let doc = crate::artifact::parse_verified("sweep", &report.to_json()).expect("valid JSON");
        let failed = doc
            .get("failed")
            .and_then(crate::json::Value::as_array)
            .unwrap();
        assert_eq!(
            failed[0].get("panic").and_then(crate::json::Value::as_str),
            Some(msg)
        );
    }
}
