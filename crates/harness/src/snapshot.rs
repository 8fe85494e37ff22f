//! Run manifests: a machine-readable snapshot of one `repro` run.
//!
//! The snapshot is one JSON document with three sections:
//!
//! * `manifest` — crate version, seed, replication parameters, and the
//!   list of figures the run regenerated;
//! * `phases` — per-phase wall-clock timings (the only
//!   non-deterministic field; `REPRO_NO_WALL_CLOCK=1` or
//!   [`Snapshot::deterministic_json`] zero it for diffing);
//! * `protocols` — one canonical observed scenario per protocol of
//!   [`PROTOCOLS`], in that order: per-category counters, fault
//!   counters, latency / hop / vote-round / retry histograms
//!   (p50/p90/p99), and flow-span tallies.
//!
//! A trailing `fingerprint` is an FNV-1a hash over the deterministic
//! rendering, so two runs can be compared by a single line of `jq`.

use crate::scenario::{run_scenario, Scenario};
use conformance::registry::PROTOCOLS;
use conformance::{for_protocol, ConformanceAdapter};
use manet_sim::observer::all_kinds;
use manet_sim::{FlowTally, Metrics};
use std::fmt::Write as _;

/// The parameters a snapshot records in its manifest.
#[derive(Debug, Clone, Default)]
pub struct SnapshotParams {
    /// Base RNG seed.
    pub seed: u64,
    /// Replications per figure data point.
    pub rounds: u64,
    /// Whether the quick (shrunken-sweep) mode was active.
    pub quick: bool,
    /// Single-figure filter, if any.
    pub fig: Option<u32>,
    /// Whether the chaos suite ran instead of the figures.
    pub chaos: bool,
    /// Chaos loss probability, when explicitly set.
    pub loss: Option<f64>,
    /// Chaos head-kill count, when explicitly set.
    pub head_kills: Option<u32>,
}

/// Wall-clock timing of one run phase (one figure, or the chaos suite).
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase name (`fig05`, `chaos`, ...).
    pub name: String,
    /// Elapsed wall-clock microseconds.
    pub wall_us: u64,
}

/// The canonical observed run of one protocol.
#[derive(Debug, Clone)]
pub struct ProtocolRun {
    /// Protocol name (`quorum`, `manetconf`, ...).
    pub name: String,
    /// Final metrics: counters, fault counters, histograms.
    pub metrics: Metrics,
    /// Flow-span tallies per kind: `(kind name, tally)`.
    pub flows: Vec<(String, FlowTally)>,
    /// The run's event trace as JSONL, when it was traced. The snapshot
    /// does not render it; `repro --trace-out` writes it.
    pub trace: Option<String>,
}

/// A complete run snapshot, ready to render as JSON.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Manifest parameters.
    pub params: SnapshotParams,
    /// Per-phase wall-clock timings.
    pub phases: Vec<Phase>,
    /// Canonical per-protocol runs.
    pub protocols: Vec<ProtocolRun>,
}

/// The scenario every protocol is measured under for the snapshot:
/// sequential arrivals, a departure phase with abrupt leavers (so
/// reclamation flows run), and a few post-arrivals.
fn canonical_scenario(seed: u64, quick: bool) -> Scenario {
    Scenario::builder()
        .nn(if quick { 30 } else { 100 })
        .settle_secs(if quick { 5 } else { 10 })
        .depart_fraction(0.3)
        .abrupt_ratio(0.5)
        .depart_window_secs(if quick { 10 } else { 30 })
        .cooldown_secs(if quick { 10 } else { 20 })
        .post_arrivals(3)
        .seed(seed)
        .observe(true)
        .build()
        .expect("canonical scenario is in-domain")
}

fn observed_run<P: ConformanceAdapter>(s: &Scenario) -> ProtocolRun {
    let report = run_scenario(s, P::fresh());
    let flows = all_kinds()
        .iter()
        .map(|k| (k.to_string(), *report.world().observer().tally(*k)))
        .collect();
    let trace = (s.trace_capacity > 0).then(|| report.world().trace().to_jsonl());
    ProtocolRun {
        name: P::name().to_string(),
        metrics: report.into_measurements().metrics,
        flows,
        trace,
    }
}

/// Runs the canonical observed scenario once per protocol of
/// [`PROTOCOLS`], in that order, recording each run's event trace when
/// `traced`. Tracing never moves a counter, so the snapshot renders the
/// same bytes either way.
#[must_use]
pub fn protocol_runs(seed: u64, quick: bool, traced: bool) -> Vec<ProtocolRun> {
    let mut s = canonical_scenario(seed, quick);
    if traced {
        s.trace_capacity = 1 << 18;
    }
    observed_runs(&s)
}

/// Runs `s` once per protocol of [`PROTOCOLS`], in that order.
#[must_use]
pub fn observed_runs(s: &Scenario) -> Vec<ProtocolRun> {
    PROTOCOLS
        .iter()
        .map(|&name| for_protocol!(PROTOCOLS: name, P => observed_run::<P>(s)).expect("registered"))
        .collect()
}

use crate::artifact::{json_opt_f64, json_opt_u64, Artifact, Fingerprinted};

impl Fingerprinted for Snapshot {
    /// Everything up to (and excluding) the fingerprint field.
    fn render_body(&self, zero_walls: bool) -> Artifact {
        let p = &self.params;
        let mut s = Artifact::begin();
        let _ = write!(
            s,
            ",\"manifest\":{{\"crate_version\":\"{}\",\"seed\":{},\"rounds\":{},\"quick\":{},\"fig\":{},\"chaos\":{},\"loss\":{},\"head_kills\":{}}}",
            env!("CARGO_PKG_VERSION"),
            p.seed,
            p.rounds,
            p.quick,
            json_opt_u64(p.fig),
            p.chaos,
            json_opt_f64(p.loss),
            json_opt_u64(p.head_kills),
        );
        s.push(",\"phases\":[");
        for (i, ph) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(",");
            }
            let wall = if zero_walls { 0 } else { ph.wall_us };
            let _ = write!(s, "{{\"name\":\"{}\",\"wall_us\":{wall}}}", ph.name);
        }
        s.push("],\"protocols\":[");
        for (i, pr) in self.protocols.iter().enumerate() {
            if i > 0 {
                s.push(",");
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"metrics\":{},\"flows\":[",
                pr.name,
                pr.metrics.to_json()
            );
            for (j, (kind, t)) in pr.flows.iter().enumerate() {
                if j > 0 {
                    s.push(",");
                }
                let _ = write!(
                    s,
                    "{{\"kind\":\"{kind}\",\"started\":{},\"assigned\":{},\"abandoned\":{},\"finalized\":{},\"retries\":{},\"open\":{}}}",
                    t.started, t.assigned, t.abandoned, t.finalized, t.retries, t.open()
                );
            }
            s.push("]}");
        }
        s.push("],");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> Snapshot {
        Snapshot {
            params: SnapshotParams {
                seed,
                rounds: 1,
                quick: true,
                ..SnapshotParams::default()
            },
            phases: vec![Phase {
                name: "fig05".into(),
                wall_us: 1234,
            }],
            protocols: protocol_runs(seed, true, false),
        }
    }

    #[test]
    fn snapshot_contains_manifest_and_histograms() {
        let s = sample(7);
        let json = s.to_json();
        for key in [
            "\"schema_version\":1",
            "\"manifest\"",
            "\"crate_version\"",
            "\"seed\":7",
            "\"phases\"",
            "\"wall_us\":1234",
            "\"protocols\"",
            "\"config_latency\"",
            "\"p50\"",
            "\"p90\"",
            "\"p99\"",
            "\"faults\"",
            "\"flows\"",
            "\"kind\":\"join\"",
            "\"fingerprint\":\"fnv1a:",
        ] {
            assert!(json.contains(key), "snapshot must contain {key}: {json}");
        }
        // All five protocols present.
        for name in PROTOCOLS {
            assert!(json.contains(&format!("\"name\":\"{name}\"")));
        }
    }

    #[test]
    fn same_seed_same_deterministic_json() {
        let a = sample(11);
        let b = sample(11);
        assert_eq!(a.deterministic_json(), b.deterministic_json());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn wall_clock_only_differs_between_renderings() {
        let s = sample(3);
        let timed = s.to_json();
        let det = s.deterministic_json();
        assert_ne!(timed, det, "sample carries a non-zero wall time");
        assert_eq!(timed.replace("\"wall_us\":1234", "\"wall_us\":0"), det);
    }

    #[test]
    fn tracing_leaves_the_snapshot_byte_identical() {
        let plain = sample(5);
        let traced = Snapshot {
            protocols: protocol_runs(5, true, true),
            ..sample(5)
        };
        assert!(plain.protocols.iter().all(|r| r.trace.is_none()));
        assert!(traced
            .protocols
            .iter()
            .all(|r| r.trace.as_ref().is_some_and(|t| !t.is_empty())));
        assert_eq!(plain.to_json(), traced.to_json());
    }

    #[test]
    fn different_seed_changes_fingerprint() {
        assert_ne!(sample(1).fingerprint(), sample(2).fingerprint());
    }
}
