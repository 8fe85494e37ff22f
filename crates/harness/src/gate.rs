//! `repro gate`: compare a sweep artifact against a committed baseline.
//!
//! The gate parses both JSON documents with the workspace reader
//! ([`crate::json`]), matches cells by their grid coordinates, and
//! compares the deterministic metrics — configuration-latency quantiles
//! (in hops), protocol overhead (hops excluding hellos), and configured
//! node counts — with a relative tolerance. Direction matters: latency
//! and overhead regress *upward*, configured counts regress
//! *downward*. Wall-clock and perf-profile fields are never gated (they
//! vary across machines); the committed baseline is generated with
//! `REPRO_NO_WALL_CLOCK=1` so CI's fresh sweep under the same seed is
//! byte-identical and the gate passes exactly.

use crate::artifact::parse_verified;
use crate::json::Value;
use std::fmt::Write as _;

/// The gate's verdict on one metric of one cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within tolerance.
    Ok,
    /// Regressed past tolerance in the harmful direction.
    Regressed,
    /// Moved past tolerance in the *improving* direction (reported, not
    /// failing — but a cue to refresh the baseline).
    Improved,
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Cell key (`protocol/nN/vV/mobility/lossL/plan`).
    pub cell: String,
    /// Metric name.
    pub metric: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// A completed gate run.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Every compared metric, in baseline cell order.
    pub findings: Vec<Finding>,
    /// Baseline cells absent from the candidate (always a failure).
    pub missing_cells: Vec<String>,
    /// Relative tolerance the comparison used.
    pub tolerance: f64,
}

impl GateReport {
    /// `true` when no metric regressed and no cell is missing.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.missing_cells.is_empty()
            && self
                .findings
                .iter()
                .all(|f| f.verdict != Verdict::Regressed)
    }

    /// Regressions only.
    #[must_use]
    pub fn regressions(&self) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| f.verdict == Verdict::Regressed)
            .collect()
    }

    /// Human-readable report: regressions and improvements, then the
    /// one-line summary.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for cell in &self.missing_cells {
            let _ = writeln!(s, "gate FAIL {cell}: cell missing from candidate");
        }
        for f in &self.findings {
            let tag = match f.verdict {
                Verdict::Ok => continue,
                Verdict::Regressed => "FAIL",
                Verdict::Improved => "note",
            };
            let _ = writeln!(
                s,
                "gate {tag} {} {}: baseline {} -> candidate {} ({:+.1}%)",
                f.cell,
                f.metric,
                f.baseline,
                f.candidate,
                (f.candidate - f.baseline) / f.baseline.max(f64::MIN_POSITIVE) * 100.0
            );
        }
        let _ = writeln!(
            s,
            "gate: {} cells, {} metrics compared, {} regressions, tolerance {:.0}%{}",
            self.findings.len() / METRICS_PER_CELL.max(1),
            self.findings.len(),
            self.regressions().len() + self.missing_cells.len(),
            self.tolerance * 100.0,
            if self.pass() {
                " — PASS"
            } else {
                " — FAIL"
            }
        );
        s
    }
}

/// Metrics compared per cell (for the summary line's cell estimate).
const METRICS_PER_CELL: usize = 5;

/// A deterministic metric extracted from one sweep cell, with its
/// regression direction.
struct MetricSpec {
    name: &'static str,
    /// `true` when larger values are worse (latency, overhead).
    higher_is_worse: bool,
    extract: fn(&Value) -> Option<f64>,
}

fn latency_quantile(cell: &Value, q: &str) -> Option<f64> {
    cell.get("metrics")?.get("config_latency")?.get(q)?.as_f64()
}

/// Hop overhead: every category except hello beacons (the paper's
/// comparisons exclude them).
fn overhead_hops(cell: &Value) -> Option<f64> {
    let cats = cell.get("metrics")?.get("categories")?.as_object()?;
    let mut total = 0.0;
    for (name, v) in cats {
        if name == "hello" {
            continue;
        }
        total += v.get("hops")?.as_f64()?;
    }
    Some(total)
}

fn configured_nodes(cell: &Value) -> Option<f64> {
    cell.get("metrics")?.get("configured_nodes")?.as_f64()
}

const SPECS: [MetricSpec; METRICS_PER_CELL] = [
    MetricSpec {
        name: "latency_p50",
        higher_is_worse: true,
        extract: |c| latency_quantile(c, "p50"),
    },
    MetricSpec {
        name: "latency_p90",
        higher_is_worse: true,
        extract: |c| latency_quantile(c, "p90"),
    },
    MetricSpec {
        name: "latency_p99",
        higher_is_worse: true,
        extract: |c| latency_quantile(c, "p99"),
    },
    MetricSpec {
        name: "overhead_hops",
        higher_is_worse: true,
        extract: overhead_hops,
    },
    MetricSpec {
        name: "configured_nodes",
        higher_is_worse: false,
        extract: configured_nodes,
    },
];

fn cell_key(cell: &Value) -> Option<String> {
    // Pre-mobility-axis artifacts lack the field; they ran the default
    // model, so keying them as random-waypoint keeps them comparable.
    let mobility = cell
        .get("mobility")
        .and_then(Value::as_str)
        .unwrap_or("random-waypoint");
    Some(format!(
        "{}/n{}/v{}/{}/loss{}/{}",
        cell.get("protocol")?.as_str()?,
        cell.get("nn")?.as_u64()?,
        cell.get("speed")?.as_f64()?,
        mobility,
        cell.get("loss")?.as_f64()?,
        cell.get("plan")?.as_str()?,
    ))
}

fn judge(baseline: f64, candidate: f64, higher_is_worse: bool, tol: f64) -> Verdict {
    // Relative band around the baseline; a zero baseline gates on any
    // movement beyond the same absolute slack.
    let slack = baseline.abs().max(1.0) * tol;
    let delta = candidate - baseline;
    let (worse, better) = if higher_is_worse {
        (delta > slack, delta < -slack)
    } else {
        (delta < -slack, delta > slack)
    };
    if worse {
        Verdict::Regressed
    } else if better {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// Compares a candidate sweep artifact against a baseline.
///
/// # Errors
///
/// Returns a message when either document fails to parse, lacks a
/// `cells` array, or carries a different `schema_version` than this
/// build writes.
pub fn gate(baseline: &str, candidate: &str, tolerance: f64) -> Result<GateReport, String> {
    gate_impl(baseline, candidate, tolerance, false)
}

/// [`gate`] in subset mode: baseline cells absent from the candidate
/// are skipped instead of failing, so a smoke-sized run can gate
/// against a full committed baseline. Errors when *no* cell overlaps
/// (an empty comparison would pass vacuously).
///
/// # Errors
///
/// As [`gate`], plus an error when the candidate shares no cell with
/// the baseline.
pub fn gate_subset(baseline: &str, candidate: &str, tolerance: f64) -> Result<GateReport, String> {
    gate_impl(baseline, candidate, tolerance, true)
}

fn gate_impl(
    baseline: &str,
    candidate: &str,
    tolerance: f64,
    subset: bool,
) -> Result<GateReport, String> {
    let base = parse_verified("baseline", baseline)?;
    let cand = parse_verified("candidate", candidate)?;
    let cells = |doc: &Value, label: &str| -> Result<Vec<(String, Value)>, String> {
        doc.get("cells")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{label}: no cells array"))?
            .iter()
            .map(|c| {
                cell_key(c)
                    .map(|k| (k, c.clone()))
                    .ok_or_else(|| format!("{label}: cell missing grid coordinates"))
            })
            .collect()
    };
    let base_cells = cells(&base, "baseline")?;
    let cand_cells = cells(&cand, "candidate")?;
    let mut findings = Vec::new();
    let mut missing = Vec::new();
    let mut compared_cells = 0usize;
    for (key, bcell) in &base_cells {
        let Some((_, ccell)) = cand_cells.iter().find(|(k, _)| k == key) else {
            if !subset {
                missing.push(key.clone());
            }
            continue;
        };
        compared_cells += 1;
        for spec in &SPECS {
            // A quantile is null when the histogram is empty; an empty
            // baseline histogram gates nothing, an emptied candidate
            // histogram where the baseline had samples is a regression.
            match ((spec.extract)(bcell), (spec.extract)(ccell)) {
                (None, _) => {}
                (Some(b), Some(c)) => findings.push(Finding {
                    cell: key.clone(),
                    metric: spec.name,
                    baseline: b,
                    candidate: c,
                    verdict: judge(b, c, spec.higher_is_worse, tolerance),
                }),
                (Some(b), None) => findings.push(Finding {
                    cell: key.clone(),
                    metric: spec.name,
                    baseline: b,
                    candidate: f64::NAN,
                    verdict: Verdict::Regressed,
                }),
            }
        }
    }
    if subset && compared_cells == 0 {
        return Err(
            "candidate shares no cell with the baseline — nothing to gate (check the cell \
             coordinates)"
                .to_string(),
        );
    }
    Ok(GateReport {
        findings,
        missing_cells: missing,
        tolerance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_sweep, SweepGrid};

    fn tiny_sweep_json() -> String {
        let grid = SweepGrid {
            protocols: vec!["quorum".into()],
            sizes: vec![8],
            speeds: vec![0.0],
            mobilities: vec!["random-waypoint".into()],
            losses: vec![0.0],
            plans: vec!["none".into()],
            reps: 1,
            base_seed: 5,
            quick: true,
        };
        run_sweep(&grid, 1).unwrap().deterministic_json()
    }

    #[test]
    fn identical_artifacts_pass() {
        let json = tiny_sweep_json();
        let report = gate(&json, &json, 0.10).unwrap();
        assert!(report.pass(), "{}", report.render_text());
        assert!(report.missing_cells.is_empty());
        assert!(!report.findings.is_empty());
        assert!(report.findings.iter().all(|f| f.verdict == Verdict::Ok));
    }

    #[test]
    fn perturbed_latency_past_tolerance_fails() {
        let base = tiny_sweep_json();
        // Inflate the p50 latency by 50% — well past a 10% gate.
        let parsed = Value::parse(&base).unwrap();
        let p50 = parsed.get("cells").unwrap().as_array().unwrap()[0]
            .get("metrics")
            .unwrap()
            .get("config_latency")
            .unwrap()
            .get("p50")
            .unwrap()
            .as_f64()
            .unwrap();
        let bumped = (p50 * 1.5).ceil();
        let cand = base.replacen(&format!("\"p50\":{p50}"), &format!("\"p50\":{bumped}"), 1);
        assert_ne!(base, cand, "perturbation must hit the document");
        let report = gate(&base, &cand, 0.10).unwrap();
        assert!(!report.pass(), "{}", report.render_text());
        let regressions = report.regressions();
        assert!(regressions.iter().any(|f| f.metric == "latency_p50"));
        // The same perturbation in the *other* direction improves.
        let report = gate(&cand, &base, 0.10).unwrap();
        assert!(report.pass());
        assert!(report
            .findings
            .iter()
            .any(|f| f.verdict == Verdict::Improved));
    }

    #[test]
    fn fewer_configured_nodes_fails_downward() {
        let base = tiny_sweep_json();
        let parsed = Value::parse(&base).unwrap();
        let configured = parsed.get("cells").unwrap().as_array().unwrap()[0]
            .get("metrics")
            .unwrap()
            .get("configured_nodes")
            .unwrap()
            .as_u64()
            .unwrap();
        assert!(configured > 2);
        let cand = base.replacen(
            &format!("\"configured_nodes\":{configured}"),
            &format!("\"configured_nodes\":{}", configured / 2),
            1,
        );
        let report = gate(&base, &cand, 0.10).unwrap();
        assert!(report
            .regressions()
            .iter()
            .any(|f| f.metric == "configured_nodes"));
    }

    #[test]
    fn missing_cell_fails() {
        let base = tiny_sweep_json();
        let empty = base.replacen("\"protocol\":\"quorum\"", "\"protocol\":\"other\"", 1);
        let report = gate(&base, &empty, 0.10).unwrap();
        assert!(!report.pass());
        assert_eq!(report.missing_cells.len(), 1);
        assert!(report.render_text().contains("cell missing"));
    }

    #[test]
    fn schema_version_mismatch_is_an_error() {
        let json = tiny_sweep_json();
        let old = json.replacen("\"schema_version\":1", "\"schema_version\":999", 1);
        let err = gate(&old, &json, 0.10).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
        let err = gate("{not json", &json, 0.10).unwrap_err();
        assert!(err.contains("baseline"), "{err}");
    }

    #[test]
    fn subset_mode_skips_missing_cells_but_rejects_empty_overlap() {
        let base = tiny_sweep_json();
        // A candidate whose only cell has foreign coordinates: strict
        // mode fails on the missing cell, subset mode errors because
        // nothing overlaps.
        let foreign = base.replacen("\"protocol\":\"quorum\"", "\"protocol\":\"other\"", 1);
        assert!(!gate(&base, &foreign, 0.10).unwrap().pass());
        let err = gate_subset(&base, &foreign, 0.10).unwrap_err();
        assert!(err.contains("no cell"), "{err}");
        // Identical artifacts pass in subset mode too.
        let report = gate_subset(&base, &base, 0.10).unwrap();
        assert!(report.pass());
        assert!(!report.findings.is_empty());
    }

    #[test]
    fn judge_directions() {
        assert_eq!(judge(100.0, 105.0, true, 0.10), Verdict::Ok);
        assert_eq!(judge(100.0, 111.0, true, 0.10), Verdict::Regressed);
        assert_eq!(judge(100.0, 89.0, true, 0.10), Verdict::Improved);
        assert_eq!(judge(100.0, 89.0, false, 0.10), Verdict::Regressed);
        assert_eq!(judge(100.0, 111.0, false, 0.10), Verdict::Improved);
        // Zero baselines gate on absolute slack, not divide-by-zero.
        assert_eq!(judge(0.0, 0.05, true, 0.10), Verdict::Ok);
        assert_eq!(judge(0.0, 5.0, true, 0.10), Verdict::Regressed);
    }
}
