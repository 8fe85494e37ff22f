//! `repro check` — the conformance-oracle campaign.
//!
//! Runs every registered protocol under every canned chaos schedule
//! with the step-wise invariant checker enabled, over a seed axis:
//! round `r` runs each schedule with world seed = plan seed =
//! `world_seed + r`, so round 0 is the pinned suite and `--rounds R`
//! judges the seed distribution around it. The round × schedule ×
//! protocol jobs fan out over [`run_jobs`] and come back in job order.
//! A clean cell prints one `PASS` line; a violation is delta-debugged
//! down to a minimal failing schedule and written out as a replayable
//! artifact (see `conformance::Artifact`), which `repro replay <file>`
//! reproduces byte-for-byte. The attack canaries
//! ([`canary_suite`](crate::attacks::canary_suite)) report through the
//! same [`CheckCell`], and [`tally_line`] closes the report.

use crate::sweep::run_jobs;
use conformance::registry::PROTOCOLS;
use conformance::{chaos_schedules, replay_check, run_named, shrink_named, Artifact, CheckConfig};
use std::collections::BTreeMap;

/// Node count for `--quick` suite runs (matches the CI smoke).
pub const QUICK_NODES: usize = 25;
/// Node count for full suite runs.
pub const FULL_NODES: usize = 40;

/// One pass/fail cell of `repro check`: a suite run or an attack
/// canary.
#[derive(Debug)]
pub struct CheckCell {
    /// The report line for this cell.
    pub line: String,
    /// Whether the cell met its expectation.
    pub ok: bool,
    /// The shrunk failing artifact, when the cell broke an invariant it
    /// must hold.
    pub artifact: Option<Artifact>,
    /// File stem for [`artifact`](Self::artifact) (`<stem>.repro`).
    pub stem: String,
}

/// One round × schedule × protocol job of [`check_suite`].
struct Job {
    protocol: &'static str,
    /// Schedule name, plus the seed after round 0.
    label: String,
    stem: String,
    cfg: CheckConfig,
}

/// Runs `rounds` rounds of every protocol × every chaos schedule, with
/// results in round, schedule, protocol order.
///
/// Each failing run is shrunk to a minimal artifact before returning,
/// so a red suite is immediately replayable. Cells after round 0 name
/// their seed in the line and the stem, so no two artifacts share a
/// file name.
#[must_use]
pub fn check_suite(quick: bool, rounds: u64) -> Vec<CheckCell> {
    let nodes = if quick { QUICK_NODES } else { FULL_NODES };
    let schedules = chaos_schedules();
    let mut jobs = Vec::new();
    for round in 0..rounds {
        for schedule in &schedules {
            let seed = schedule.world_seed + round;
            let (label, suffix) = if round == 0 {
                (schedule.name.to_string(), String::new())
            } else {
                (
                    format!("{} seed {seed}", schedule.name),
                    format!("-seed{seed}"),
                )
            };
            let mut plan = schedule.plan.clone();
            plan.seed = seed;
            for protocol in PROTOCOLS {
                jobs.push(Job {
                    protocol,
                    label: label.clone(),
                    stem: format!("{protocol}-{}{suffix}", schedule.name),
                    cfg: CheckConfig::new(nodes, seed, plan.clone()),
                });
            }
        }
    }
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let results = run_jobs(jobs.len(), threads, |i| {
        let job = &jobs[i];
        let out = run_named(job.protocol, &job.cfg).expect("registry names dispatch");
        let artifact = out
            .violation
            .and_then(|_| shrink_named(job.protocol, &job.cfg));
        (out.steps, out.configured, artifact)
    });
    jobs.into_iter()
        .zip(results)
        .map(|(job, result)| {
            let Job {
                protocol,
                label,
                stem,
                ..
            } = job;
            let (line, ok, artifact) = match result {
                Ok((steps, configured, None)) => (
                    format!(
                        "PASS  {protocol:<10} under {label:<10} ({steps} events, {configured} configured)"
                    ),
                    true,
                    None,
                ),
                Ok((_, _, Some(a))) => (
                    format!(
                        "FAIL  {protocol:<10} under {label:<10} (step {}: {}: {})",
                        a.step, a.invariant, a.detail
                    ),
                    false,
                    Some(a),
                ),
                Err(panic) => (
                    format!("FAIL  {protocol:<10} under {label:<10} (panicked: {panic})"),
                    false,
                    None,
                ),
            };
            CheckCell {
                line,
                ok,
                artifact,
                stem,
            }
        })
        .collect()
}

/// The campaign's closing line: how many suite runs failed, broken
/// down by the invariant each shrunk artifact ends in (`panic` for a
/// run that panicked), and how many distinct failures the shrunk
/// artifacts are — many seeds often shrink to one `(invariant, step,
/// detail)`.
#[must_use]
pub fn tally_line(cells: &[CheckCell]) -> String {
    let mut by_invariant: BTreeMap<&str, usize> = BTreeMap::new();
    // Failing seeds shrink to a handful of signatures (168 seeds to 6
    // in a 300-round campaign), so a scan of those seen is enough.
    let mut signatures = Vec::new();
    for cell in cells.iter().filter(|c| !c.ok) {
        let name = cell
            .artifact
            .as_ref()
            .map_or("panic", |a| a.invariant.name());
        *by_invariant.entry(name).or_default() += 1;
        if let Some(a) = &cell.artifact {
            let signature = (name, a.step, a.detail.as_str());
            if !signatures.contains(&signature) {
                signatures.push(signature);
            }
        }
    }
    let failed: usize = by_invariant.values().sum();
    let mut line = format!(
        "tally: {failed} of {} runs violated an invariant",
        cells.len()
    );
    if failed > 0 {
        let counts: Vec<String> = by_invariant
            .iter()
            .map(|(name, n)| format!("{name} {n}"))
            .collect();
        line.push_str(&format!(
            " ({}); {} distinct",
            counts.join(", "),
            signatures.len()
        ));
    }
    line
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
    fn the_seed_axis_extends_round_zero() {
        let one = check_suite(true, 1);
        let two = check_suite(true, 2);
        let per_round = chaos_schedules().len() * PROTOCOLS.len();
        assert_eq!((one.len(), two.len()), (per_round, 2 * per_round));
        for (a, b) in one.iter().zip(&two) {
            assert_eq!((&a.line, &a.stem), (&b.line, &b.stem));
        }

        // Round 1 runs each schedule at `world_seed + 1`, world and plan
        // alike, and names that seed in its line and its stem.
        for (schedule, cells) in chaos_schedules()
            .iter()
            .zip(two[per_round..].chunks(PROTOCOLS.len()))
        {
            let seed = schedule.world_seed + 1;
            let mut plan = schedule.plan.clone();
            plan.seed = seed;
            for (protocol, cell) in PROTOCOLS.iter().zip(cells) {
                let out = run_named(protocol, &CheckConfig::new(QUICK_NODES, seed, plan.clone()))
                    .expect("registry names dispatch");
                let expected = format!(
                    "under {} seed {seed} ({} events, {} configured)",
                    schedule.name, out.steps, out.configured
                );
                assert!(cell.line.contains(&expected), "{}", cell.line);
                assert_eq!(
                    cell.stem,
                    format!("{protocol}-{}-seed{seed}", schedule.name)
                );
            }
        }
        let mut stems: Vec<&str> = two.iter().map(|c| c.stem.as_str()).collect();
        stems.sort_unstable();
        stems.dedup();
        assert_eq!(stems.len(), two.len(), "stems collide");
    }

    #[test]
    fn report_lines_name_the_cell() {
        let cells = check_suite(true, 1);
        let names = chaos_schedules()
            .into_iter()
            .flat_map(|s| PROTOCOLS.iter().map(move |&p| (p, s.name)));
        for (cell, (protocol, schedule)) in cells.iter().zip(names) {
            assert!(cell.ok && cell.line.starts_with("PASS"), "{}", cell.line);
            assert!(
                cell.line.contains(protocol) && cell.line.contains(schedule),
                "{}",
                cell.line
            );
            assert_eq!(cell.stem, format!("{protocol}-{schedule}"));
        }
    }

    #[test]
    fn tally_counts_failures_by_invariant() {
        let storm = chaos_schedules()
            .into_iter()
            .find(|s| s.name == "storm")
            .expect("storm exists");
        let cfg = CheckConfig::new(QUICK_NODES, storm.world_seed, storm.plan.clone());
        let artifact = shrink_named("broken-doublegrant", &cfg).expect("broken protocol fails");
        let invariant = artifact.invariant.name();
        let cell = |ok: bool, artifact: Option<Artifact>| CheckCell {
            line: String::new(),
            ok,
            artifact,
            stem: String::new(),
        };
        let cells = [
            cell(true, None),
            cell(false, Some(artifact.clone())),
            cell(false, Some(artifact)),
            cell(false, None),
        ];
        assert_eq!(
            tally_line(&cells[..1]),
            "tally: 0 of 1 runs violated an invariant"
        );
        assert_eq!(
            tally_line(&cells),
            format!(
                "tally: 3 of 4 runs violated an invariant ({invariant} 2, panic 1); 1 distinct"
            )
        );
    }

    /// Cells whose shrunk artifacts share `(invariant, step, detail)`
    /// are one distinct failure, whatever their seeds; a different step
    /// is another.
    #[test]
    fn tally_counts_distinct_failure_signatures() {
        let text = "# qbac conformance failing-schedule artifact v1\nprotocol: quorum\nnodes: 3\n\
                    seed: 11\ninvariant: addr-unique\nstep: 26\ndetail: -\nplan:\nloss 0.15\n";
        let one = Artifact::parse(text).expect("artifact parses");
        let reseeded = Artifact {
            seed: 12,
            ..one.clone()
        };
        let later = Artifact {
            step: 27,
            ..one.clone()
        };
        let failed = |a: Artifact| CheckCell {
            line: String::new(),
            ok: false,
            artifact: Some(a),
            stem: String::new(),
        };
        let same = [failed(one.clone()), failed(reseeded)];
        assert!(tally_line(&same).ends_with("(addr-unique 2); 1 distinct"));
        let apart = [failed(one), failed(later)];
        assert!(tally_line(&apart).ends_with("(addr-unique 2); 2 distinct"));
    }

    #[test]
    fn replay_of_garbage_fails_gracefully() {
        let (line, ok) = replay_file("not an artifact");
        assert!(!ok);
        assert!(line.starts_with("FAIL"), "{line}");
    }

    /// An artifact that parses but names no registered protocol fails
    /// at dispatch, by name.
    #[test]
    fn replay_of_an_unknown_protocol_names_it() {
        let text = "# qbac conformance failing-schedule artifact v1\nprotocol: bogus\n\
                    nodes: 3\nseed: 11\ninvariant: addr-unique\nstep: 26\ndetail: -\nplan:\nloss 0.15\n";
        assert!(Artifact::parse(text).is_ok());
        let fail = "FAIL  replay: unknown protocol \"bogus\"";
        assert_eq!(replay_file(text), (fail.to_string(), false));
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
