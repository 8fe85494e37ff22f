//! `paper_grid`: the paper's §VI grid through `harness::run_sweep`.
//!
//! Five protocols × nn {50, 100} × speed {0, 20} × loss {0, 0.1} = 40
//! cells, one `run_sweep(&grid, 1)` call plus `SweepReport::to_json()`
//! per rep; each rep sweeps under its own base seed.
//! manetconf is about half of its wall and buddy a seventh: it drives
//! delivery through component-wide floods and the loss draw instead of
//! one-hop beacons, so a hello fast path that slows floods, or a
//! QBAC-only tweak that leaves the baselines behind, shows here.

use super::{Rep, Traced, Workload};
use crate::spans::{SpanId, SpanLog};
use harness::artifact::fnv1a;
use harness::{run_sweep, SweepGrid, SweepReport};

/// The §VI grid.
pub struct PaperGrid;

/// The grid holding only cell `i` of `grid`. Seeds are a function of
/// `base_seed` and the replication index alone, so the one-cell grid
/// reruns exactly the scenarios the full grid ran for that cell.
fn one_cell(grid: &SweepGrid, i: usize) -> SweepGrid {
    let p = &grid.expand()[i];
    SweepGrid {
        protocols: vec![p.protocol.clone()],
        sizes: vec![p.nn],
        speeds: vec![p.speed],
        mobilities: vec![p.mobility.clone()],
        losses: vec![p.loss],
        plans: vec![p.plan.clone()],
        ..grid.clone()
    }
}

fn sweep(grid: &SweepGrid) -> SweepReport {
    run_sweep(grid, 1).expect("grid names come from the registry")
}

impl Workload for PaperGrid {
    type Inputs = SweepGrid;
    const NAME: &'static str = "paper_grid";

    fn generate(seed: u64, rep: u64, smoke: bool) -> SweepGrid {
        let mut grid = SweepGrid::full(super::mix(seed, rep));
        grid.reps = 1;
        if smoke {
            grid.sizes = vec![20];
            grid.losses = vec![0.0];
            grid.quick = true;
        } else {
            grid.sizes = vec![50, 100];
        }
        grid
    }

    fn warm_up(grid: &SweepGrid) {
        // The first two cells of each protocol's block are its smallest
        // static ones, without and with loss.
        let per_protocol = grid.cell_count() / grid.protocols.len();
        for p in 0..grid.protocols.len() {
            for cell in 0..per_protocol.min(2) {
                let one = one_cell(grid, p * per_protocol + cell);
                std::hint::black_box(sweep(&one).cells.len());
            }
        }
    }

    fn rep(grid: &SweepGrid) -> Rep {
        let report = sweep(grid);
        std::hint::black_box(report.to_json().len());
        Rep {
            digest: fnv1a(report.deterministic_json().as_bytes()),
            unit_ms: report
                .cells
                .iter()
                .map(|c| c.wall_us as f64 / 1e3)
                .collect(),
            attempted: grid.cell_count() as u64,
            failed: report.failed.len() as u64,
        }
    }

    /// `run_sweep` builds its protocols itself, so the handlers are out
    /// of reach; the traced drive splits each grid by cell instead and
    /// reassembles the report, which must render byte-identically.
    fn traced(reps: &[SweepGrid], log: &mut SpanLog, root: SpanId) -> Traced {
        let mut out = Traced::default();
        let mut unit_no = 0;
        for grid in reps {
            let mut assembled = SweepReport {
                grid: grid.clone(),
                cells: Vec::new(),
                failed: Vec::new(),
                wall_us: 0,
            };
            for (i, p) in grid.expand().iter().enumerate() {
                let span = log.open(&format!("cell.{}", p.protocol), Some(root), unit_no);
                unit_no += 1;
                let mut report = sweep(&one_cell(grid, i));
                log.close(span);
                assembled.cells.append(&mut report.cells);
                assembled.failed.append(&mut report.failed);
            }
            for c in &assembled.cells {
                out.metrics.merge(&c.metrics);
                // Join attempts, as the cell's own observer counted them.
                out.spawned += c
                    .flows
                    .iter()
                    .filter(|(kind, _)| kind == "join")
                    .map(|(_, tally)| tally.started)
                    .sum::<u64>();
            }
            out.digests
                .push(fnv1a(assembled.deterministic_json().as_bytes()));
        }
        for p in &reps[0].protocols {
            let key = match p.as_str() {
                "quorum" => "harness.cell_wall_s.quorum",
                "manetconf" => "harness.cell_wall_s.manetconf",
                "buddy" => "harness.cell_wall_s.buddy",
                "ctree" => "harness.cell_wall_s.ctree",
                "dad" => "harness.cell_wall_s.dad",
                other => unreachable!("{other} is not one of the five swept protocols"),
            };
            out.layer
                .insert(key, log.total_s(&format!("cell.{p}")) / reps.len() as f64);
        }
        out
    }
}
