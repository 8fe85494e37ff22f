//! The ledger: every workload's end-to-end and per-layer metrics from one
//! commit as one JSON document, and the comparison of two ledgers.
//!
//! A ledger is written by `perf run` without `--workload`, which runs
//! each workload twice (untraced, then traced) in a fresh child process
//! each, so set-up time and peak memory are per workload. A run the
//! sentinel flags noisy is made again, and a ledger that still holds one
//! says so: it is no baseline to gate against.

use crate::names::{lookup, Better, END_TO_END, WORKLOADS};
use harness::Value;
use std::fmt::Write as _;
use std::process::Command;

/// Ledger schema version.
pub const LEDGER_SCHEMA: u64 = 1;

/// How often a ledger run attempts a child before it keeps a noisy one.
const NOISY_ATTEMPTS: usize = 3;

/// Runs per workload in the steadiness check: the driver's ten seeds.
const SPREAD_RUNS: u64 = 10;

/// Arguments shared by every child of a ledger run.
#[derive(Debug, Clone)]
pub struct LedgerArgs {
    /// Benchmark seed.
    pub seed: u64,
    /// Measuring time per run, seconds.
    pub seconds: f64,
    /// Smoke sizes.
    pub smoke: bool,
}

/// Runs one child and returns its `(detail, result)` JSON lines; its
/// report goes to standard output when `echo` is set.
fn child(
    args: &LedgerArgs,
    workload: &str,
    trace: bool,
    echo: bool,
) -> Result<(String, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail");
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}: {}",
            u8::from(trace),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let mut lines = stdout.lines().rev();
    let result = lines.next().unwrap_or_default().to_string();
    let detail = lines.next().unwrap_or_default().to_string();
    Ok((detail, result))
}

/// Whether a child's detail line carries the sentinel's noisy flag.
fn flagged_noisy(detail: &str, workload: &str) -> Result<bool, String> {
    Value::parse(detail)
        .map_err(|e| format!("{workload}: bad detail line: {e}"))?
        .get("noisy")
        .and_then(Value::as_bool)
        .ok_or_else(|| format!("{workload}: detail line has no noisy flag"))
}

/// [`child`], again while the sentinel flags the run noisy, up to
/// [`NOISY_ATTEMPTS`] times; the last attempt is kept, with whether it
/// was still noisy.
fn calm_child(
    args: &LedgerArgs,
    workload: &str,
    trace: bool,
) -> Result<(String, String, bool), String> {
    let mut attempt = 1;
    loop {
        let (detail, result) = child(args, workload, trace, true)?;
        let noisy = flagged_noisy(&detail, workload)?;
        if !noisy || attempt == NOISY_ATTEMPTS {
            return Ok((detail, result, noisy));
        }
        println!(
            "noisy run of {workload} (attempt {attempt} of {NOISY_ATTEMPTS}): running it again"
        );
        attempt += 1;
    }
}

/// A written ledger.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// The JSON document.
    pub doc: String,
    /// Runs that stayed noisy through every attempt, as
    /// `workload (trace 0|1)`.
    pub noisy: Vec<String>,
}

/// Runs every workload in both modes and renders the ledger.
///
/// # Errors
///
/// A child that cannot start, exits non-zero, or reports incorrect
/// outputs.
pub fn run_all(args: &LedgerArgs) -> Result<Ledger, String> {
    let mut doc = format!(
        "{{\"schema\":{LEDGER_SCHEMA},\"seed\":{},\"seconds\":{},\"smoke\":{},\"workloads\":{{",
        args.seed, args.seconds, args.smoke
    );
    let mut noisy = Vec::new();
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let (detail, end_to_end, noisy_untraced) = calm_child(args, workload, false)?;
        let (traced_detail, per_layer, noisy_traced) = calm_child(args, workload, true)?;
        for (trace, flagged) in [(0, noisy_untraced), (1, noisy_traced)] {
            if flagged {
                noisy.push(format!("{workload} (trace {trace})"));
            }
        }
        for line in [&end_to_end, &per_layer] {
            let v = Value::parse(line).map_err(|e| format!("{workload}: bad result line: {e}"))?;
            if v.get("correct").and_then(Value::as_bool) != Some(true) {
                return Err(format!("{workload}: outputs were not correct"));
            }
        }
        if i > 0 {
            doc.push(',');
        }
        let _ = write!(
            doc,
            "\n\"{workload}\":{{\"run\":{detail},\"traced_run\":{traced_detail},\"end_to_end\":{end_to_end},\"per_layer\":{per_layer}}}"
        );
    }
    doc.push_str("\n}}\n");
    Ok(Ledger { doc, noisy })
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Value in ledger A (the baseline).
    pub a: f64,
    /// Value in ledger B (the candidate).
    pub b: f64,
    /// How much worse B is than A, as a share of A (negative: better).
    pub worse_by: f64,
    /// The allowed share; `None` for exact metrics.
    pub bound: Option<f64>,
    /// Whether the metric breaches its bound (or, exact, differs).
    pub breach: bool,
}

/// The end-to-end bounds declared in `BENCHMARK.json`, by metric name.
///
/// # Errors
///
/// A document that is not the contract's shape.
pub fn bounds(benchmark_json: &str) -> Result<Vec<(String, f64)>, String> {
    let v = Value::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    v.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end array")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "BENCHMARK.json: end_to_end entry without name or bound".to_string())
        })
        .collect()
}

fn bound_for(bounds: &[(String, f64)], name: &str) -> Result<f64, String> {
    bounds
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, b)| *b)
        .ok_or_else(|| format!("BENCHMARK.json declares no bound for {name}"))
}

fn metric(ledger: &Value, workload: &str, section: &str, name: &str) -> Option<f64> {
    ledger
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

fn per_layer_metrics<'a>(ledger: &'a Value, workload: &str) -> &'a [(String, Value)] {
    ledger
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("per_layer"))
        .and_then(|p| p.get("metrics"))
        .and_then(Value::as_object)
        .unwrap_or_default()
}

fn run_fact<'a>(ledger: &'a Value, workload: &str, run: &str, key: &str) -> Option<&'a Value> {
    ledger.get("workloads")?.get(workload)?.get(run)?.get(key)
}

/// What [`compare`] found.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One row per workload × end-to-end metric.
    pub deltas: Vec<Delta>,
    /// Every breach, in words; empty when the comparison is clean.
    pub breaches: Vec<String>,
    /// Runs either ledger flags noisy, as `A|B: workload (run)`: their
    /// host-time values were measured on a machine that changed speed.
    pub noisy: Vec<String>,
}

/// Compares ledger `b` against ledger `a`: per workload × end-to-end
/// metric, how much worse `b` is against the metric's bound; exact
/// metrics and behaviour digests must be identical when both ledgers
/// used the same seed and sizes. Noisy runs are reported, not refused:
/// `perf run` already refuses to call a ledger holding one clean.
///
/// # Errors
///
/// Unparseable ledgers, or a metric missing from either.
pub fn compare(a: &str, b: &str, benchmark_json: &str) -> Result<Comparison, String> {
    let bounds = bounds(benchmark_json)?;
    let a = Value::parse(a).map_err(|e| format!("ledger A: {e}"))?;
    let b = Value::parse(b).map_err(|e| format!("ledger B: {e}"))?;
    let same_inputs = ["seed", "smoke"]
        .iter()
        .all(|k| a.get(k).is_some() && a.get(k) == b.get(k));
    let mut deltas = Vec::new();
    let mut breaches = Vec::new();
    let mut noisy = Vec::new();
    for workload in WORKLOADS {
        if same_inputs
            && run_fact(&a, workload, "run", "behaviour_digest")
                != run_fact(&b, workload, "run", "behaviour_digest")
        {
            breaches.push(format!("{workload}: behaviour_digest differs"));
        }
        for (which, ledger) in [("A", &a), ("B", &b)] {
            for run in ["run", "traced_run"] {
                if run_fact(ledger, workload, run, "noisy") == Some(&Value::Bool(true)) {
                    noisy.push(format!("{which}: {workload} ({run})"));
                }
            }
        }
        for def in END_TO_END {
            let read = |ledger: &Value, which: &str| {
                metric(ledger, workload, "end_to_end", def.name)
                    .ok_or_else(|| format!("ledger {which}: {workload} has no {}", def.name))
            };
            let (va, vb) = (read(&a, "A")?, read(&b, "B")?);
            let signed = match def.better {
                Better::Lower => vb - va,
                Better::Higher => va - vb,
            };
            let worse_by = if va == 0.0 { 0.0 } else { signed / va.abs() };
            let exact = def.exact && same_inputs;
            let bound = bound_for(&bounds, def.name)?;
            let breach = if exact {
                va.to_bits() != vb.to_bits()
            } else {
                worse_by > bound
            };
            if breach {
                breaches.push(format!(
                    "{workload}: {} {va} -> {vb} ({})",
                    def.name,
                    if exact {
                        "exact metric differs".to_string()
                    } else {
                        format!(
                            "{:+.1}% against a bound of {:.0}%",
                            worse_by * 100.0,
                            bound * 100.0
                        )
                    }
                ));
            }
            deltas.push(Delta {
                workload: workload.to_string(),
                metric: def.name.to_string(),
                a: va,
                b: vb,
                worse_by,
                bound: (!exact).then_some(bound),
                breach,
            });
        }
        // Exact per-layer counts: a pure speed-up leaves them alone.
        if same_inputs {
            let (la, lb) = (
                per_layer_metrics(&a, workload),
                per_layer_metrics(&b, workload),
            );
            for (name, va) in la {
                if !lookup(name).is_some_and(|d| d.exact) {
                    continue;
                }
                let vb = lb.iter().find(|(n, _)| n == name).map(|(_, v)| v);
                if vb != Some(va) {
                    breaches.push(format!("{workload}: exact per-layer metric {name} differs"));
                }
            }
        }
    }
    Ok(Comparison {
        deltas,
        breaches,
        noisy,
    })
}

/// Renders a comparison as a table.
#[must_use]
pub fn render(report: &Comparison) -> String {
    let Comparison {
        deltas,
        breaches,
        noisy,
    } = report;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<26} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for d in deltas {
        let bound = d
            .bound
            .map_or_else(|| "exact".to_string(), |b| format!("{:.0}%", b * 100.0));
        let _ = writeln!(
            out,
            "{:<14} {:<26} {:>14.6} {:>14.6} {:>+8.1}% {:>7}{}",
            d.workload,
            d.metric,
            d.a,
            d.b,
            d.worse_by * 100.0,
            bound,
            if d.breach { "  BREACH" } else { "" }
        );
    }
    for n in noisy {
        let _ = writeln!(
            out,
            "NOISY {n}: the machine changed speed under this run; its host times are suspect"
        );
    }
    for b in breaches {
        let _ = writeln!(out, "BREACH {b}");
    }
    if breaches.is_empty() {
        let _ = writeln!(
            out,
            "clean: every metric within its bound, exact metrics identical"
        );
    }
    out
}

/// One end-to-end metric's steadiness over several seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct Steadiness {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Quartiles over the runs, as the driver takes them.
    pub quartiles: [f64; 3],
    /// Interquartile distance as a share of the median.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// How many of the workload's runs the sentinel flagged noisy: what
    /// kind of spell the table was taken in.
    pub noisy_runs: u64,
}

impl Steadiness {
    /// The driver refuses a benchmark whose spread exceeds the bound;
    /// `setup_s` is exempt (it is held only median to median).
    #[must_use]
    pub fn refused(&self) -> bool {
        self.metric != "setup_s" && self.spread > self.bound
    }
}

/// The driver's acceptance check, run ahead of it: ten untraced runs of
/// each workload in `workloads`, seeds `seed..seed + 10`, and per
/// end-to-end metric the spread of the values against the bound.
///
/// # Errors
///
/// A child that cannot start, exits non-zero, or prints a malformed
/// result; an unreadable bounds document.
pub fn steadiness(
    args: &LedgerArgs,
    workloads: &[&str],
    benchmark_json: &str,
) -> Result<Vec<Steadiness>, String> {
    let bounds = bounds(benchmark_json)?;
    let mut out = Vec::new();
    for workload in workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let mut noisy_runs = 0;
        for seed in args.seed..args.seed + SPREAD_RUNS {
            let run = LedgerArgs {
                seed,
                ..args.clone()
            };
            let (detail, result) = child(&run, workload, false, false)?;
            let noisy = flagged_noisy(&detail, workload)?;
            noisy_runs += u64::from(noisy);
            let v = Value::parse(&result).map_err(|e| format!("{workload}: bad result: {e}"))?;
            let mut progress = format!("{workload} seed {seed}:");
            for (def, slot) in END_TO_END.iter().zip(&mut values) {
                let value = v
                    .get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{workload}: result has no {}", def.name))?;
                slot.push(value);
                let _ = write!(progress, " {} {value:.4}", def.name);
            }
            eprintln!("{progress}{}", if noisy { " NOISY" } else { "" });
        }
        for (def, slot) in END_TO_END.iter().zip(&values) {
            let bound = bound_for(&bounds, def.name)?;
            out.push(Steadiness {
                workload: (*workload).to_string(),
                metric: def.name.to_string(),
                quartiles: crate::stats::quartiles(slot),
                spread: crate::stats::spread(slot),
                bound,
                noisy_runs,
            });
        }
    }
    Ok(out)
}

/// Renders a steadiness table.
#[must_use]
pub fn render_steadiness(rows: &[Steadiness]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<26} {:>14} {:>14} {:>14} {:>8} {:>6} {:>6}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound", "noisy"
    );
    for r in rows {
        let verdict = if r.refused() {
            "  UNSTEADY: spread over the bound"
        } else if r.spread > r.bound / 3.0 {
            "  over a third of the bound"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{:<14} {:<26} {:>14.6} {:>14.6} {:>14.6} {:>7.1}% {:>5.0}% {:>3}/{SPREAD_RUNS}{verdict}",
            r.workload,
            r.metric,
            r.quartiles[0],
            r.quartiles[1],
            r.quartiles[2],
            r.spread * 100.0,
            r.bound * 100.0,
            r.noisy_runs
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(seed: u64, wall: f64, hops: f64, digest: &str, events: u64) -> String {
        noisy_ledger(seed, wall, hops, digest, events, false)
    }

    fn noisy_ledger(
        seed: u64,
        wall: f64,
        hops: f64,
        digest: &str,
        events: u64,
        noisy: bool,
    ) -> String {
        let mut doc =
            format!("{{\"schema\":1,\"seed\":{seed},\"seconds\":1,\"smoke\":true,\"workloads\":{{");
        for (i, w) in WORKLOADS.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            let _ = write!(
                doc,
                "\"{w}\":{{\"run\":{{\"behaviour_digest\":\"{digest}\",\"noisy\":{noisy}}},\"end_to_end\":{{\"metrics\":{{\
                 \"setup_s\":{{\"value\":0.1,\"unit\":\"s\"}},\"wall_s\":{{\"value\":{wall},\"unit\":\"s\"}},\
                 \"joins_per_s\":{{\"value\":100,\"unit\":\"1/s\"}},\"peak_rss_mb\":{{\"value\":10,\"unit\":\"MB\"}},\
                 \"config_latency_mean_hops\":{{\"value\":{hops},\"unit\":\"hops\"}}}}}},\
                 \"per_layer\":{{\"metrics\":{{\"manet-sim.sim.events\":{{\"value\":{events},\"unit\":\"count\"}},\
                 \"manet-sim.sim.ns_per_event\":{{\"value\":{wall},\"unit\":\"ns\"}}}}}}}}"
            );
        }
        doc.push_str("}}");
        doc
    }

    const BOUNDS: &str = r#"{"end_to_end":[
        {"name":"setup_s","bound":0.25},{"name":"wall_s","bound":0.1},
        {"name":"joins_per_s","bound":0.1},{"name":"peak_rss_mb","bound":0.1},
        {"name":"config_latency_mean_hops","bound":0.1}]}"#;

    #[test]
    fn identical_ledgers_are_clean() {
        let a = ledger(1, 2.0, 6.5, "abc", 1000);
        let report = compare(&a, &a, BOUNDS).expect("comparable");
        assert!(report.breaches.is_empty(), "{:?}", report.breaches);
        assert!(report.noisy.is_empty());
        assert_eq!(report.deltas.len(), WORKLOADS.len() * END_TO_END.len());
        assert!(render(&report).contains("clean"));
    }

    #[test]
    fn host_time_is_held_to_its_bound_in_the_worse_direction_only() {
        let a = ledger(1, 2.0, 6.5, "abc", 1000);
        let within = ledger(1, 2.19, 6.5, "abc", 1000);
        let beyond = ledger(1, 2.21, 6.5, "abc", 1000);
        let faster = ledger(1, 1.0, 6.5, "abc", 1000);
        assert!(compare(&a, &within, BOUNDS).unwrap().breaches.is_empty());
        assert!(compare(&a, &faster, BOUNDS).unwrap().breaches.is_empty());
        let Comparison {
            deltas, breaches, ..
        } = compare(&a, &beyond, BOUNDS).unwrap();
        assert_eq!(breaches.len(), WORKLOADS.len(), "{breaches:?}");
        let d = deltas.iter().find(|d| d.metric == "wall_s").unwrap();
        assert!(d.breach && (d.worse_by - 0.105).abs() < 1e-9);
    }

    #[test]
    fn exact_metrics_are_compared_bit_for_bit_on_the_same_seed() {
        let a = ledger(1, 2.0, 6.5, "abc", 1000);
        // 0.001% off: far inside any bound, still a breach.
        let drifted = ledger(1, 2.0, 6.500065, "abc", 1000);
        let breaches = compare(&a, &drifted, BOUNDS).unwrap().breaches;
        assert!(breaches.iter().all(|b| b.contains("exact metric differs")));
        assert_eq!(breaches.len(), WORKLOADS.len());
        // Digests and exact per-layer counts likewise; host-time layer
        // metrics are free to move.
        let breaches = compare(&a, &ledger(1, 2.0, 6.5, "abd", 1001), BOUNDS)
            .unwrap()
            .breaches;
        assert_eq!(breaches.len(), 2 * WORKLOADS.len(), "{breaches:?}");
        // A different seed is a different input: exact metrics fall
        // back to their bounds and digests are not compared.
        let other = ledger(2, 2.0, 6.6, "xyz", 900);
        assert!(compare(&a, &other, BOUNDS).unwrap().breaches.is_empty());
    }

    #[test]
    fn noisy_runs_are_named_beside_the_table() {
        let a = ledger(1, 2.0, 6.5, "abc", 1000);
        let b = noisy_ledger(1, 2.0, 6.5, "abc", 1000, true);
        let report = compare(&a, &b, BOUNDS).unwrap();
        assert!(report.breaches.is_empty());
        assert_eq!(report.noisy.len(), WORKLOADS.len(), "{:?}", report.noisy);
        assert!(report.noisy.iter().all(|n| n.starts_with("B: ")));
        assert!(render(&report).contains("NOISY B: storm_static (run)"));
    }

    #[test]
    fn missing_metric_or_bound_is_an_error() {
        let a = ledger(1, 2.0, 6.5, "abc", 1000);
        assert!(compare(&a, "{}", BOUNDS).is_err());
        assert!(compare(&a, &a, r#"{"end_to_end":[]}"#).is_err());
        assert!(bounds("[]").is_err());
    }

    #[test]
    fn steadiness_holds_spread_against_the_bound_except_for_setup() {
        let row = |metric: &str, spread: f64| Steadiness {
            workload: "storm_static".into(),
            metric: metric.into(),
            quartiles: [0.9, 1.0, 0.9 + spread],
            spread,
            bound: 0.25,
            noisy_runs: 0,
        };
        assert!(!row("wall_s", 0.25).refused());
        assert!(row("wall_s", 0.26).refused());
        assert!(!row("setup_s", 0.9).refused());
        let text =
            render_steadiness(&[row("wall_s", 0.05), row("wall_s", 0.1), row("wall_s", 0.3)]);
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines[1].contains("third") && !lines[1].contains("UNSTEADY"));
        assert!(lines[2].contains("over a third of the bound"));
        assert!(lines[3].contains("UNSTEADY"));
    }
}
