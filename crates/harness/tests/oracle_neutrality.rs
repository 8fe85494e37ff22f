//! The oracle cannot steer a mobile run.
//!
//! A topology snapshot is positioned at its quantum's start, a pure
//! function of the alive set, the mobility states and the quantum, so
//! whoever queries it — a handler, `Checker::check`, a test — sees what
//! every other caller sees and changes nothing. These runs prove it the
//! only way that counts: a run checked after every event, one checked on
//! every third event and one never checked must be the same run, byte
//! for byte, over every speed-20 cell of the quick sweep grid (the
//! `repro sweep --quick` scenarios, which reach `BENCH_sweep.json`) and
//! over a speed-10 conformance workload under the `splitbrain` schedule
//! (a partition, crashes, a restart and a head kill while nodes move).

use conformance::{
    chaos_schedules, for_protocol, step_workload, CheckConfig, Checker, ConformanceAdapter,
};
use harness::scenario::{run_scenario_observed, Scenario};
use harness::SweepGrid;
use manet_sim::{FaultPlan, Sim, World};
use qbac_core::Qbac;

/// Check after every event, after every third, or never.
const CADENCES: [Option<u64>; 3] = [Some(1), Some(3), None];

const TRACE_CAPACITY: usize = 1 << 22;

/// Whether `cadence` checks at `step`.
fn due(cadence: Option<u64>, step: u64) -> bool {
    cadence.is_some_and(|k| step.is_multiple_of(k))
}

/// Runs the checker (its verdict is not the point here) on `w` and `p`.
fn check<P: ConformanceAdapter>(checker: &mut Checker, step: u64, w: &mut World<P::Msg>, p: &P) {
    let _ = checker.check(step, w, p);
}

/// What a run did: the metrics, the net-level event log and the final
/// address assignment, rendered.
fn behaviour<P: ConformanceAdapter>(sim: &mut Sim<P>) -> String {
    let (w, p) = sim.parts_mut();
    let assigned = p.assigned_pairs(w);
    format!(
        "{}\n{assigned:?}\n{}",
        w.metrics().to_json(),
        w.trace().to_jsonl()
    )
}

/// One sweep-cell scenario at `cadence`.
fn scenario_run<P: ConformanceAdapter>(s: &Scenario, cadence: Option<u64>) -> String {
    let mut checker = Checker::new(P::guarantees(&FaultPlan::default()));
    let mut step = 0;
    let mut report = run_scenario_observed(
        s,
        P::fresh(),
        |sim| sim.world_mut().enable_trace(TRACE_CAPACITY),
        |w, p| {
            step += 1;
            if due(cadence, step) {
                check(&mut checker, step, w, p);
            }
        },
    );
    behaviour(report.sim_mut())
}

/// The conformance workload of `cfg` at `cadence`.
fn workload_run<P: ConformanceAdapter>(cfg: &CheckConfig, cadence: Option<u64>) -> String {
    let mut checker = Checker::new(P::guarantees(&cfg.plan));
    let (mut sim, steps) = step_workload::<P>(cfg, |step, w, p| {
        if step == 0 {
            w.enable_trace(TRACE_CAPACITY);
        }
        if due(cadence, step) {
            check(&mut checker, step, w, p);
        }
        true
    });
    format!("steps {steps}\n{}", behaviour(&mut sim))
}

/// Every cadence gives `run`'s first answer.
fn assert_cadence_free(what: &str, run: impl Fn(Option<u64>) -> String) {
    let [checked, sampled, unchecked] = CADENCES.map(run);
    assert!(
        unchecked.lines().count() > 50,
        "{what}: the run did something"
    );
    assert!(
        checked == unchecked,
        "{what}: checking every event moved the run"
    );
    assert!(
        sampled == unchecked,
        "{what}: checking every 3rd event moved the run"
    );
}

#[test]
fn checked_sampled_and_unchecked_sweep_cells_are_one_run() {
    let grid = SweepGrid::smoke(harness::figures::FigOpts::default().seed);
    let cells: Vec<_> = grid
        .expand()
        .into_iter()
        .filter(|c| c.speed == 20.0)
        .collect();
    assert_eq!(cells.len(), 20, "5 protocols x 2 sizes x 2 mobility models");
    for cell in cells {
        let s = cell.scenario(FaultPlan::default(), grid.base_seed, grid.quick);
        let what = cell.key();
        for_protocol!(PROTOCOLS: cell.protocol.as_str(), P => {
            assert_cadence_free(&what, |c| scenario_run::<P>(&s, c));
        })
        .unwrap_or_else(|| panic!("{} is not registered", cell.protocol));
    }
}

#[test]
fn checked_sampled_and_unchecked_mobile_workloads_are_one_run() {
    let splitbrain = chaos_schedules()
        .into_iter()
        .find(|s| s.name == "splitbrain")
        .expect("a canned schedule");
    let cfg = CheckConfig {
        speed: 10.0,
        ..CheckConfig::new(40, splitbrain.world_seed, splitbrain.plan)
    };
    assert_cadence_free("quorum at 10 m/s under splitbrain", |c| {
        workload_run::<Qbac>(&cfg, c)
    });
}
