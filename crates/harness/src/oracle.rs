//! `repro check` — the conformance-oracle smoke suite.
//!
//! Runs every registered protocol under every canned chaos schedule
//! with the step-wise invariant checker enabled. A clean suite prints
//! one `PASS` line per (protocol, schedule) cell; a violation is
//! delta-debugged down to a minimal failing schedule and written out as
//! a replayable artifact (see `conformance::Artifact`), which
//! `repro replay <file>` reproduces byte-for-byte.

use conformance::registry::PROTOCOLS;
use conformance::{chaos_schedules, replay_check, run_named, shrink_named, Artifact, CheckConfig};
use std::path::{Path, PathBuf};

/// Node count for `--quick` suite runs (matches the CI smoke).
pub const QUICK_NODES: usize = 25;
/// Node count for full suite runs.
pub const FULL_NODES: usize = 40;

/// One (protocol, schedule) cell of the suite.
#[derive(Debug)]
pub struct CheckCell {
    /// Protocol registry name.
    pub protocol: &'static str,
    /// Schedule name.
    pub schedule: &'static str,
    /// Events dispatched.
    pub steps: u64,
    /// Configured nodes at end of run (clean cells only).
    pub configured: usize,
    /// The shrunk failing artifact, if the cell violated an invariant.
    pub artifact: Option<Artifact>,
}

impl CheckCell {
    /// The human-readable report line for this cell.
    #[must_use]
    pub fn report_line(&self) -> String {
        match &self.artifact {
            None => format!(
                "PASS  {:<10} under {:<10} ({} events, {} configured)",
                self.protocol, self.schedule, self.steps, self.configured
            ),
            Some(a) => format!(
                "FAIL  {:<10} under {:<10} (step {}: {}: {})",
                self.protocol, self.schedule, a.step, a.invariant, a.detail
            ),
        }
    }
}

/// Runs the full suite: every protocol × every chaos schedule.
///
/// Failing cells are shrunk to minimal artifacts before returning, so a
/// red suite is immediately replayable.
#[must_use]
pub fn check_suite(quick: bool) -> Vec<CheckCell> {
    let nodes = if quick { QUICK_NODES } else { FULL_NODES };
    let mut cells = Vec::new();
    for schedule in chaos_schedules() {
        for protocol in PROTOCOLS {
            let cfg = CheckConfig::new(nodes, schedule.world_seed, schedule.plan.clone());
            let out = run_named(protocol, &cfg).expect("registry names dispatch");
            let artifact = if out.violation.is_some() {
                shrink_named(protocol, &cfg)
            } else {
                None
            };
            cells.push(CheckCell {
                protocol,
                schedule: schedule.name,
                steps: out.steps,
                configured: out.configured,
                artifact,
            });
        }
    }
    cells
}

/// File name a failing cell's artifact is written under.
#[must_use]
pub fn artifact_path(dir: &Path, cell: &CheckCell) -> PathBuf {
    dir.join(format!("{}-{}.repro", cell.protocol, cell.schedule))
}

/// Replays an artifact file and reports the outcome as (line, ok).
#[must_use]
pub fn replay_file(text: &str) -> (String, bool) {
    match replay_check(text) {
        Ok(a) => (
            format!(
                "PASS  replay {:<10} reproduced {} at step {} byte-for-byte",
                a.protocol, a.invariant, a.step
            ),
            true,
        ),
        Err(e) => (format!("FAIL  replay: {e}"), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conformance::chaos_schedules;

    #[test]
    fn artifact_paths_are_per_cell() {
        let cell = CheckCell {
            protocol: "quorum",
            schedule: "storm",
            steps: 1,
            configured: 1,
            artifact: None,
        };
        assert_eq!(
            artifact_path(Path::new("out"), &cell),
            PathBuf::from("out/quorum-storm.repro")
        );
    }

    #[test]
    fn report_lines_name_the_cell() {
        let cell = CheckCell {
            protocol: "buddy",
            schedule: "reaper",
            steps: 42,
            configured: 25,
            artifact: None,
        };
        let line = cell.report_line();
        assert!(line.starts_with("PASS"), "{line}");
        assert!(line.contains("buddy") && line.contains("reaper"), "{line}");
    }

    #[test]
    fn replay_of_garbage_fails_gracefully() {
        let (line, ok) = replay_file("not an artifact");
        assert!(!ok);
        assert!(line.starts_with("FAIL"), "{line}");
    }

    #[test]
    fn broken_protocol_cell_yields_writable_artifact() {
        // One cell of what the suite does on failure, kept small: the
        // broken allocator under the storm schedule, shrunk and
        // replayed through the same entry points the binary uses.
        let storm = chaos_schedules()
            .into_iter()
            .find(|s| s.name == "storm")
            .expect("storm exists");
        let cfg = CheckConfig::new(QUICK_NODES, storm.world_seed, storm.plan.clone());
        let artifact =
            shrink_named("broken-doublegrant", &cfg).expect("broken protocol fails and shrinks");
        let (line, ok) = replay_file(&artifact.to_text());
        assert!(ok, "{line}");
    }
}
