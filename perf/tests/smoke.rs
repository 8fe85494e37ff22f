//! End-to-end checks of the benchmark's contract: the declared names are
//! the emitted names, and the binary driven the way the driver drives it
//! ends with a well-formed result line.

use harness::Value;
use perf::names::{valid_name, valid_unit, Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    Value::parse(&text).expect("BENCHMARK.json is JSON")
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} missing"))
}

/// One declared metric list against one registry table: same names in
/// the same order, same unit and direction, exactly the contract's keys.
fn assert_declares(section: &Value, table: &[MetricDef], bounded: bool) {
    let declared = section.as_array().expect("metric list");
    let names: Vec<&str> = declared.iter().map(|m| str_field(m, "name")).collect();
    let registry: Vec<&str> = table.iter().map(|d| d.name).collect();
    assert_eq!(names, registry, "BENCHMARK.json and perf::names disagree");
    for (m, def) in declared.iter().zip(table) {
        let expected: &[&str] = if bounded {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys(m), expected, "{}", def.name);
        assert_eq!(str_field(m, "unit"), def.unit, "{}", def.name);
        assert_eq!(str_field(m, "better"), def.better.as_str(), "{}", def.name);
        assert!(valid_name(def.name) && valid_unit(def.unit), "{}", def.name);
        if bounded {
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", def.name);
        }
    }
}

#[test]
fn benchmark_json_declares_exactly_what_the_runner_emits() {
    let b = benchmark_json();
    assert_eq!(
        keys(&b),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_declares(b.get("end_to_end").unwrap(), END_TO_END, true);
    assert_declares(b.get("per_layer").unwrap(), PER_LAYER, false);
    let setup = &END_TO_END[0];
    assert_eq!(
        (setup.name, setup.unit, setup.better),
        ("setup_s", "s", Better::Lower)
    );

    let workloads = b.get("workloads").and_then(Value::as_array).unwrap();
    let names: Vec<&str> = workloads.iter().map(|w| str_field(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = str_field(w, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }

    let paths = b.get("paths").and_then(Value::as_array).unwrap();
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("perf"));
    let command = b.get("command").and_then(Value::as_array).unwrap();
    assert!(command.len() <= 32);
    for part in command {
        let part = part.as_str().expect("command parts are strings");
        assert!(
            part.len() <= 200 && !part.starts_with('/') && !part.contains(".."),
            "{part}"
        );
    }
    let secs = b.get("run_seconds").and_then(Value::as_u64).unwrap();
    assert!((1..=60).contains(&secs));
    // 4 + 22 × workloads runs and two builds must end within 3420 s.
    let runs = 4 + 22 * workloads.len() as u64;
    assert!(
        runs * (secs + 12) + 2 * 120 <= 3420,
        "{runs} runs of {secs} s do not fit"
    );
}

/// Runs the binary the way the driver does and returns its result line.
fn drive(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.3",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .output()
        .expect("perf binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Value::parse(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"))
}

fn assert_result(result: &Value, table: &[MetricDef], workload: &str) {
    assert_eq!(keys(result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{workload}"
    );
    let metrics = result.get("metrics").unwrap();
    let emitted: BTreeSet<&str> = keys(metrics).into_iter().collect();
    let declared: BTreeSet<&str> = table.iter().map(|d| d.name).collect();
    assert_eq!(emitted, declared, "{workload}");
    for def in table {
        let m = metrics.get(def.name).unwrap();
        assert_eq!(keys(m), ["value", "unit"], "{}", def.name);
        assert_eq!(str_field(m, "unit"), def.unit);
        let value = m.get("value").and_then(Value::as_f64).expect("a number");
        assert!(value.is_finite(), "{workload}: {} = {value}", def.name);
    }
}

/// `--smoke` end to end: every workload, untraced and traced, emits
/// exactly the declared names with no failed operation; the end-to-end
/// metrics are never 0; each layer's counters appear only on the
/// workload that exercises it.
#[test]
fn smoke_mode_drives_every_workload_end_to_end() {
    for workload in WORKLOADS {
        let untraced = drive(workload, false);
        assert_result(&untraced, END_TO_END, workload);
        for def in END_TO_END {
            let v = untraced.get("metrics").unwrap().get(def.name).unwrap();
            let value = v.get("value").and_then(Value::as_f64).unwrap();
            assert!(value > 0.0, "{workload}: {} is {value}", def.name);
        }
        let traced = drive(workload, true);
        assert_result(&traced, PER_LAYER, workload);
        let layer = |name: &str| {
            traced
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .unwrap()
        };
        assert!(layer("manet-sim.sim.events") > 0.0, "{workload}");
        assert_eq!(
            layer("transport-mesh.datagrams") > 0.0,
            workload == "mesh_udp"
        );
        assert_eq!(layer("conformance.steps") > 0.0, workload == "oracle_chaos");
        assert_eq!(
            layer("harness.cell_wall_s.quorum") > 0.0,
            workload == "paper_grid"
        );
        assert_eq!(
            layer("qbac-core.handle.busy_s") > 0.0,
            workload != "paper_grid",
            "{workload}"
        );
    }
}

#[test]
fn same_seed_same_behaviour_other_seed_other_inputs() {
    let digest = |seed: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_perf"))
            .args(["run", "--workload", "oracle_chaos", "--seed", seed])
            .args(["--seconds", "0", "--trace", "0", "--smoke"])
            .output()
            .expect("perf binary runs");
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| l.starts_with("behaviour_digest"))
            .expect("digest line")
            .split_whitespace()
            .nth(1)
            .unwrap()
            .to_string()
    };
    assert_eq!(digest("5"), digest("5"));
    assert_ne!(digest("5"), digest("6"));
}

#[test]
fn bad_invocations_fail_without_a_result_line() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--trace", "2"],
        &["run", "--seed"],
        &["frobnicate"],
        &["compare", "only-one.json"],
        // A flag the subcommand has no use for is refused, not ignored.
        &["run", "--runs", "3"],
        &["run", "--workload", "storm_static", "--out", "x.json"],
        &["spread", "--trace", "1"],
        &["spread", "--runs", "3"],
        &["spread", "stray"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perf"))
            .args(args)
            .output()
            .expect("perf binary runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

/// The ledger path end to end at smoke sizes: every workload in both
/// modes through child processes into one document, which compares clean
/// against itself under the committed bounds.
#[test]
fn smoke_ledger_is_written_and_compares_clean_against_itself() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-ledger.json");
    let path = path.to_str().expect("utf-8 path");
    let run = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["run", "--seed", "9", "--seconds", "0", "--smoke"])
        .args(["--out", path])
        .output()
        .expect("perf binary runs");
    // 1 is a ledger holding a run that stayed noisy: the host's doing.
    assert!(
        matches!(run.status.code(), Some(0 | 1)),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let ledger = Value::parse(&std::fs::read_to_string(path).expect("ledger written"))
        .expect("ledger is JSON");
    for workload in WORKLOADS {
        let w = ledger.get("workloads").and_then(|w| w.get(workload));
        for run in ["run", "traced_run"] {
            let noisy = w.and_then(|w| w.get(run)).and_then(|r| r.get("noisy"));
            assert!(noisy.and_then(Value::as_bool).is_some(), "{workload} {run}");
        }
    }
    let bounds = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let compare = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["compare", path, path, "--bounds", bounds])
        .output()
        .expect("perf binary runs");
    let table = String::from_utf8_lossy(&compare.stdout);
    assert!(compare.status.success(), "{table}");
    assert!(table.contains("clean"), "{table}");
}
