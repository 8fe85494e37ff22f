//! Thread-count determinism for the sweep runner, plus round-trips of
//! the committed benchmark artifacts through the harness JSON reader.
//!
//! The sweep artifact must be a pure function of the grid: the number
//! of worker threads is an execution detail and may never leak into the
//! rendered JSON. This is the acceptance pin for `repro sweep` — a
//! 3×3×2 grid run with 4 threads must render byte-identical to the
//! same grid run single-threaded.

use harness::json::Value;
use harness::sweep::{run_sweep, SweepGrid};
use std::path::PathBuf;

fn acceptance_grid() -> SweepGrid {
    // 3 protocols × 3 sizes × 2 speeds — the 3×3×2 grid from the
    // acceptance criteria, kept tiny via quick-mode scenarios.
    SweepGrid {
        protocols: vec!["quorum".into(), "buddy".into(), "dad".into()],
        sizes: vec![10, 15, 20],
        speeds: vec![0.0, 20.0],
        mobilities: vec!["random-waypoint".into()],
        losses: vec![0.0],
        plans: vec!["none".into()],
        reps: 1,
        base_seed: 42,
        quick: true,
    }
}

#[test]
fn four_threads_render_byte_identical_to_one() {
    let grid = acceptance_grid();
    assert_eq!(grid.cell_count(), 18);
    let parallel = run_sweep(&grid, 4).expect("grid names are known");
    let serial = run_sweep(&grid, 1).expect("grid names are known");
    assert_eq!(
        parallel.deterministic_json(),
        serial.deterministic_json(),
        "sweep artifact must not depend on worker-thread count"
    );
    assert_eq!(parallel.fingerprint(), serial.fingerprint());
}

#[test]
fn sweep_artifact_parses_and_carries_schema_version() {
    let grid = SweepGrid {
        protocols: vec!["quorum".into()],
        sizes: vec![10],
        speeds: vec![0.0],
        mobilities: vec!["random-waypoint".into()],
        losses: vec![0.0],
        plans: vec!["none".into()],
        reps: 1,
        base_seed: 7,
        quick: true,
    };
    let report = run_sweep(&grid, 2).expect("grid names are known");
    let doc = Value::parse(&report.deterministic_json()).expect("sweep JSON parses");
    assert_eq!(
        doc.get("schema_version").and_then(Value::as_u64),
        Some(u64::from(manet_sim::ARTIFACT_SCHEMA_VERSION))
    );
    let cells = doc
        .get("cells")
        .and_then(Value::as_array)
        .expect("cells array");
    assert_eq!(cells.len(), 1);
    assert_eq!(
        cells[0].get("protocol").and_then(Value::as_str),
        Some("quorum")
    );
    assert!(cells[0].get("metrics").is_some());
    assert!(cells[0].get("perf").is_some());
}

fn workspace_artifact(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

/// Round-trips the committed topology baseline through the new reader:
/// the artifact every `repro gate` comparison starts from must stay
/// parseable, versioned, and shaped the way the gate expects.
#[test]
fn committed_topology_baseline_round_trips_through_reader() {
    let path = workspace_artifact("BENCH_topology.json");
    let raw =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let doc = Value::parse(&raw).expect("committed BENCH_topology.json parses");
    assert_eq!(
        doc.get("schema_version").and_then(Value::as_u64),
        Some(u64::from(manet_sim::ARTIFACT_SCHEMA_VERSION)),
        "committed baseline must carry the shared schema version"
    );
}

/// Same round-trip for the committed sweep baseline, plus a shape check
/// of the fields the gate extracts from every cell.
#[test]
fn committed_sweep_baseline_round_trips_through_reader() {
    let path = workspace_artifact("BENCH_sweep.json");
    let raw =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let doc = Value::parse(&raw).expect("committed BENCH_sweep.json parses");
    assert_eq!(
        doc.get("schema_version").and_then(Value::as_u64),
        Some(u64::from(manet_sim::ARTIFACT_SCHEMA_VERSION))
    );
    let cells = doc
        .get("cells")
        .and_then(Value::as_array)
        .expect("cells array");
    assert!(!cells.is_empty(), "committed sweep baseline has cells");
    for cell in cells {
        let metrics = cell.get("metrics").expect("cell has metrics");
        assert!(metrics.get("config_latency").is_some());
        assert!(metrics.get("configured_nodes").is_some());
        assert!(cell.get("perf").is_some());
    }
    // Wall-clock fields in the committed artifact are zeroed so the
    // fingerprint is reproducible by anyone.
    assert!(
        doc.get("rollup")
            .and_then(|r| r.get("wall_us"))
            .and_then(Value::as_u64)
            == Some(0),
        "committed baseline must be the wall-clock-free rendering"
    );
}
