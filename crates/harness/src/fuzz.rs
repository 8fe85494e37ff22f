//! `repro fuzz`: coverage-guided fuzzing of conformance schedules.
//!
//! The conformance oracle checks invariants after every simulator
//! event, but `repro check` only walks the handful of canned chaos
//! schedules along a seed axis. This module searches the schedule
//! space deliberately: it mutates
//! [`FaultPlan`]s structurally (insert / delete / retime / retarget
//! fault and attack lines, plus jitter of the workload knobs — node
//! count, speed, mobility model), runs each candidate through
//! [`conformance::run_check`], and keeps the mutants that light up new
//! *behavioral coverage*:
//!
//! * flow-span outcomes per [`FlowKind`](manet_sim::FlowKind) (did a schedule make merges
//!   abandon? reclaims retry?),
//! * which fault/attack counters fired,
//! * how close a grace-windowed invariant came to tripping
//!   ([`NearMiss`] distance buckets — the "almost broke" signal that
//!   steers the search toward the reconciliation boundary).
//!
//! Inputs that trip an invariant are handed to the existing
//! delta-debugging shrinker and come back as minimized, replayable
//! [`Artifact`]s — the same format `repro replay` verifies
//! byte-for-byte.
//!
//! Everything is deterministic: one [`SimRng`] seeded from the fuzz
//! seed drives every choice, and the budget is *simulated* time (at a
//! nominal [`SIM_SECONDS_PER_BUDGET_SECOND`] sim:wall rate), so the
//! same `(protocol, seed, budget)` triple explores the same schedules
//! and renders a byte-identical report on any machine.

use conformance::checker::NearMiss;
use conformance::drive::{ARRIVAL_GAP, COOLDOWN, SETTLE};
use conformance::{shrink_named, Artifact, CheckConfig, CheckOutcome};
use manet_sim::faults::{
    AttackKind, AttackRole, CrashEvent, DelayFault, FaultPlan, HeadKillEvent, JamRegion, LinkFault,
    PartitionEvent,
};
use manet_sim::{MobilityConfig, NodeId, Point, SimDuration, SimRng, SimTime};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// How much simulated coverage one second of `--time-budget` buys.
/// The quick conformance drive runs far faster than real time, so a
/// deterministic simulated-time budget at this nominal rate tracks the
/// wall-clock intent of "fuzz for about a minute" without ever reading
/// a clock.
pub const SIM_SECONDS_PER_BUDGET_SECOND: u64 = 60;

/// One point in the fuzzer's search space: a complete, deterministic
/// conformance run description.
#[derive(Debug, Clone)]
pub struct FuzzInput {
    /// Nodes spawned by the workload.
    pub nn: usize,
    /// World seed.
    pub seed: u64,
    /// Node speed, m/s (0 = the canonical static workload).
    pub speed: f64,
    /// Mobility model (irrelevant at speed 0).
    pub mobility: MobilityConfig,
    /// The chaos schedule.
    pub plan: FaultPlan,
}

impl FuzzInput {
    /// The conformance config this input runs as.
    #[must_use]
    pub fn check_config(&self) -> CheckConfig {
        CheckConfig {
            speed: self.speed,
            mobility: self.mobility,
            ..CheckConfig::new(self.nn, self.seed, self.plan.clone())
        }
    }

    /// Simulated time one run of this input covers (the drive's fixed
    /// phases; deterministic in `nn`).
    #[must_use]
    pub fn span_us(&self) -> u64 {
        ARRIVAL_GAP.as_micros() * self.nn as u64 + SETTLE.as_micros() + COOLDOWN.as_micros()
    }

    /// One-line summary used in corpus listings.
    #[must_use]
    pub fn describe(&self) -> String {
        let lines = self.plan.to_text().lines().count().saturating_sub(1);
        format!(
            "n={} seed={} speed={} mobility={} fault-lines={}",
            self.nn, self.seed, self.speed, self.mobility, lines
        )
    }
}

/// What the fuzzer runs against and for how long.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Registry name of the protocol under test (see
    /// [`conformance::registry::CHECKABLE`]).
    pub protocol: String,
    /// Simulated-time budget (already scaled — see
    /// [`parse_time_budget`]).
    pub budget: SimDuration,
    /// Seed for every fuzzer decision.
    pub seed: u64,
    /// Smaller node counts, for smoke runs.
    pub quick: bool,
}

/// A corpus entry: an input that produced coverage nobody before it
/// had, and the cells it contributed.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The surviving input.
    pub input: FuzzInput,
    /// Coverage cells this entry was first to reach.
    pub new_cells: Vec<String>,
}

/// An invariant violation the fuzzer found, already shrunk.
#[derive(Debug, Clone)]
pub struct FuzzFinding {
    /// The minimized replayable artifact.
    pub artifact: Artifact,
    /// Simulated microseconds of budget spent when the violating input
    /// was generated (deterministic).
    pub found_at_us: u64,
}

/// A completed fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Protocol fuzzed.
    pub protocol: String,
    /// Fuzz seed.
    pub seed: u64,
    /// Conformance runs executed (corpus seeds + mutants).
    pub runs: u64,
    /// Simulated time covered, microseconds.
    pub sim_us: u64,
    /// Every coverage cell reached, sorted.
    pub coverage: BTreeSet<String>,
    /// Inputs that survived into the corpus, in discovery order.
    pub corpus: Vec<CorpusEntry>,
    /// Violations found, shrunk, deduplicated by artifact text.
    pub findings: Vec<FuzzFinding>,
}

/// Parses a `--time-budget` value: `"60s"`, `"5m"`, or a bare number
/// of seconds, scaled to simulated time by
/// [`SIM_SECONDS_PER_BUDGET_SECOND`].
///
/// # Errors
///
/// Describes a malformed or zero budget.
pub fn parse_time_budget(text: &str) -> Result<SimDuration, String> {
    let (digits, unit) = match text.strip_suffix('s') {
        Some(rest) => match rest.strip_suffix('m') {
            // "90ms" is not a fuzz budget; reject early.
            Some(_) => {
                return Err(format!(
                    "budget {text:?}: use seconds (60s) or minutes (5m)"
                ))
            }
            None => (rest, 1u64),
        },
        None => match text.strip_suffix('m') {
            Some(rest) => (rest, 60u64),
            None => (text, 1u64),
        },
    };
    let secs: u64 = digits
        .parse()
        .map_err(|_| format!("budget {text:?}: expected a duration like 60s or 5m"))?;
    if secs == 0 {
        return Err("budget must be positive".into());
    }
    Ok(SimDuration::from_secs(
        secs.saturating_mul(unit)
            .saturating_mul(SIM_SECONDS_PER_BUDGET_SECOND),
    ))
}

/// The behavioral coverage cells one outcome lights up.
#[must_use]
pub fn coverage_cells(out: &CheckOutcome) -> BTreeSet<String> {
    let mut cells = BTreeSet::new();
    for (kind, t) in &out.flows {
        for (label, count) in [
            ("started", t.started),
            ("assigned", t.assigned),
            ("abandoned", t.abandoned),
            ("finalized", t.finalized),
            ("retries", t.retries),
        ] {
            if count > 0 {
                cells.insert(format!("flow:{kind}:{label}"));
            }
        }
    }
    let f = &out.faults;
    for (label, count) in [
        ("dropped", f.dropped),
        ("delayed", f.delayed),
        ("duplicated", f.duplicated),
        ("crashes", f.crashes),
        ("restarts", f.restarts),
        ("squats", f.squats),
        ("spoofed-cfms", f.spoofed_cfms),
        ("false-reclaims", f.false_reclaims),
        ("replayed-claims", f.replayed_claims),
    ] {
        if count > 0 {
            cells.insert(format!("fault:{label}"));
        }
    }
    for (family, standing) in near_miss_families(&out.near_miss) {
        if let Some(bucket) = grace_bucket(standing) {
            cells.insert(format!("near:{family}:{bucket}"));
        }
    }
    if let Some(v) = &out.violation {
        cells.insert(format!("violation:{}", v.invariant));
    }
    cells
}

fn near_miss_families(nm: &NearMiss) -> [(&'static str, SimDuration); 3] {
    [
        ("dup", nm.dup_standing),
        ("contested", nm.contested_standing),
        ("uncovered", nm.uncovered_standing),
    ]
}

/// Buckets a grace-window standing time by its distance to the 5 s
/// reconciliation allowance. Finer buckets near the boundary reward
/// mutants that push reconciliation later.
fn grace_bucket(standing: SimDuration) -> Option<&'static str> {
    let us = standing.as_micros();
    if us == 0 {
        None
    } else if us <= 1_000_000 {
        Some("1s")
    } else if us <= 2_500_000 {
        Some("2.5s")
    } else if us <= 4_000_000 {
        Some("4s")
    } else {
        Some("edge")
    }
}

/// The canonical starting corpus: the canned chaos schedules plus a
/// fault-free baseline, all at the campaign's node count.
fn seed_inputs(nn: usize) -> Vec<FuzzInput> {
    let mut inputs = vec![FuzzInput {
        nn,
        seed: 1,
        speed: 0.0,
        mobility: MobilityConfig::default(),
        plan: FaultPlan::new(1),
    }];
    for sched in conformance::chaos_schedules() {
        inputs.push(FuzzInput {
            nn,
            seed: sched.world_seed,
            speed: 0.0,
            mobility: MobilityConfig::default(),
            plan: sched.plan,
        });
    }
    inputs
}

/// A whole second in `[1, horizon)` — whole seconds keep mutated plans
/// inside the canonical text grammar's fixed point.
fn rand_secs(rng: &mut SimRng, horizon_s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(1 + rng.range_u64(0..horizon_s.saturating_sub(1).max(1)))
}

fn pick<T: Copy>(rng: &mut SimRng, options: &[T]) -> T {
    *rng.choose(options).expect("option lists are non-empty")
}

/// Applies one structural mutation. The operation set covers the axes
/// an artifact records: fault/attack lines (insert, delete, retime,
/// retarget) and the workload knobs (size, speed, mobility, seeds).
/// Public so property tests can drive arbitrary mutation chains.
pub fn mutate_input(input: &mut FuzzInput, rng: &mut SimRng, quick: bool) {
    let horizon_s = (input.span_us() / 1_000_000).max(4);
    match rng.range_u64(0..10) {
        // Insert a probabilistic link fault.
        0 => {
            let mut fault = LinkFault::none();
            match rng.range_u64(0..3) {
                0 => fault.drop = pick(rng, &[0.05, 0.1, 0.2, 0.3]),
                1 => fault.duplicate = pick(rng, &[0.05, 0.1]),
                _ => {
                    fault.delay = Some(DelayFault {
                        prob: pick(rng, &[0.1, 0.2, 0.4]),
                        min: SimDuration::from_millis(5),
                        max: SimDuration::from_millis(pick(rng, &[20, 40, 80])),
                    })
                }
            }
            input.plan.link_faults.push(fault);
        }
        // Insert a crash (with or without restart).
        1 => {
            let at = rand_secs(rng, horizon_s);
            let restart_at = rng
                .chance(0.5)
                .then(|| at + SimDuration::from_secs(1 + rng.range_u64(0..8)));
            input.plan.crashes.push(CrashEvent {
                node: NodeId::new(rng.range_u64(0..input.nn as u64)),
                at,
                restart_at,
            });
        }
        // Insert a head kill.
        2 => {
            input.plan.head_kills.push(HeadKillEvent {
                at: rand_secs(rng, horizon_s),
                count: pick(rng, &[1, 1, 2]),
            });
        }
        // Insert a jam region (coarse 50 m grid keeps the text canonical).
        3 => {
            let gx = 50.0 * rng.range_u64(0..16) as f64;
            let gy = 50.0 * rng.range_u64(0..16) as f64;
            let w = 50.0 * (2 + rng.range_u64(0..6)) as f64;
            let from = rand_secs(rng, horizon_s);
            input.plan.jams.push(JamRegion {
                min: Point::new(gx, gy),
                max: Point::new(gx + w, gy + w),
                from,
                until: from + SimDuration::from_secs(1 + rng.range_u64(0..6)),
            });
        }
        // Insert a scripted partition.
        4 => {
            let start = rand_secs(rng, horizon_s);
            input.plan.partitions.push(PartitionEvent {
                boundary_x: 50.0 * (6 + rng.range_u64(0..9)) as f64,
                start,
                heal: start + SimDuration::from_secs(2 + rng.range_u64(0..6)),
            });
        }
        // Insert an attack role.
        5 => {
            input.plan.attacks.push(AttackRole {
                node: NodeId::new(rng.range_u64(0..input.nn as u64)),
                kind: pick(rng, &AttackKind::ALL),
                start: rand_secs(rng, horizon_s),
            });
        }
        // Delete one line from a non-empty category.
        6 => {
            let plan = &mut input.plan;
            let lens = [
                plan.link_faults.len(),
                plan.crashes.len(),
                plan.head_kills.len(),
                plan.jams.len(),
                plan.partitions.len(),
                plan.attacks.len(),
            ];
            let populated: Vec<usize> = (0..lens.len()).filter(|&c| lens[c] > 0).collect();
            if let Some(&cat) = rng.choose(&populated) {
                let i = rng.range_u64(0..lens[cat] as u64) as usize;
                match cat {
                    0 => drop(plan.link_faults.remove(i)),
                    1 => drop(plan.crashes.remove(i)),
                    2 => drop(plan.head_kills.remove(i)),
                    3 => drop(plan.jams.remove(i)),
                    4 => drop(plan.partitions.remove(i)),
                    _ => drop(plan.attacks.remove(i)),
                }
            }
        }
        // Retime or retarget one scheduled event.
        7 => {
            let plan = &mut input.plan;
            let nn = input.nn as u64;
            let n_crash = plan.crashes.len();
            let n_kill = plan.head_kills.len();
            let n_attack = plan.attacks.len();
            let total = n_crash + n_kill + n_attack;
            if total > 0 {
                let i = rng.range_u64(0..total as u64) as usize;
                if i < n_crash {
                    let c = &mut plan.crashes[i];
                    if rng.chance(0.5) {
                        c.at = rand_secs(rng, horizon_s);
                        if let Some(r) = c.restart_at {
                            if r <= c.at {
                                c.restart_at = Some(c.at + SimDuration::from_secs(2));
                            }
                        }
                    } else {
                        c.node = NodeId::new(rng.range_u64(0..nn));
                    }
                } else if i < n_crash + n_kill {
                    plan.head_kills[i - n_crash].at = rand_secs(rng, horizon_s);
                } else {
                    let a = &mut plan.attacks[i - n_crash - n_kill];
                    if rng.chance(0.5) {
                        a.start = rand_secs(rng, horizon_s);
                    } else {
                        a.node = NodeId::new(rng.range_u64(0..nn));
                    }
                }
            }
        }
        // Jitter the workload knobs: size, speed, mobility.
        8 => {
            let sizes: &[usize] = if quick {
                &[6, 8, 10, 12]
            } else {
                &[8, 10, 12, 16, 20]
            };
            match rng.range_u64(0..3) {
                0 => input.nn = pick(rng, sizes),
                1 => input.speed = pick(rng, &[0.0, 5.0, 10.0, 20.0]),
                _ => {
                    input.mobility = pick(
                        rng,
                        &[
                            MobilityConfig::RandomWaypoint,
                            MobilityConfig::Manhattan { spacing: 100.0 },
                            MobilityConfig::Group {
                                size: 4,
                                radius: 50.0,
                            },
                            MobilityConfig::FlashCrowd {
                                radius: 80.0,
                                until_s: 15.0,
                            },
                        ],
                    )
                }
            }
        }
        // Reseed: world seed or the fault plane's own RNG stream.
        _ => {
            if rng.chance(0.5) {
                input.seed = rng.range_u64(1..1 << 16);
            } else {
                input.plan.seed = rng.range_u64(1..1 << 16);
            }
        }
    }
}

/// Runs a deterministic coverage-guided campaign. See the module docs
/// for the coverage signal and corpus discipline.
///
/// # Panics
///
/// Panics if `cfg.protocol` is not a registered checkable protocol
/// (the CLI validates names before calling).
#[must_use]
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    assert!(
        conformance::registry::CHECKABLE.contains(&cfg.protocol.as_str()),
        "unknown protocol {:?}",
        cfg.protocol
    );
    let mut rng = SimRng::seed_from(cfg.seed);
    let nn = if cfg.quick { 8 } else { 12 };
    let budget_us = cfg.budget.as_micros();

    let mut report = FuzzReport {
        protocol: cfg.protocol.clone(),
        seed: cfg.seed,
        runs: 0,
        sim_us: 0,
        coverage: BTreeSet::new(),
        corpus: Vec::new(),
        findings: Vec::new(),
    };
    let mut finding_texts: BTreeSet<String> = BTreeSet::new();

    let execute =
        |report: &mut FuzzReport, finding_texts: &mut BTreeSet<String>, input: FuzzInput| {
            report.runs += 1;
            report.sim_us += input.span_us();
            let cfg_run = input.check_config();
            let out = conformance::run_named(&report.protocol, &cfg_run)
                .expect("protocol name validated above");
            let cells = coverage_cells(&out);
            let new_cells: Vec<String> = cells
                .iter()
                .filter(|c| !report.coverage.contains(*c))
                .cloned()
                .collect();
            report.coverage.extend(cells);
            if out.violation.is_some() {
                if let Some(artifact) = shrink_named(&report.protocol, &cfg_run) {
                    if finding_texts.insert(artifact.to_text()) {
                        report.findings.push(FuzzFinding {
                            artifact,
                            found_at_us: report.sim_us,
                        });
                    }
                }
            } else if !new_cells.is_empty() {
                // Violating inputs become findings, not parents: mutating
                // them would keep rediscovering the same failure.
                report.corpus.push(CorpusEntry { input, new_cells });
            }
        };

    for input in seed_inputs(nn) {
        execute(&mut report, &mut finding_texts, input);
    }
    while report.sim_us < budget_us && !report.corpus.is_empty() {
        let parent = rng.range_u64(0..report.corpus.len() as u64) as usize;
        let mut child = report.corpus[parent].input.clone();
        for _ in 0..1 + rng.range_u64(0..3) {
            mutate_input(&mut child, &mut rng, cfg.quick);
        }
        execute(&mut report, &mut finding_texts, child);
    }
    report
}

impl FuzzReport {
    /// Budget actually covered, in simulated hours.
    #[must_use]
    pub fn sim_hours(&self) -> f64 {
        self.sim_us as f64 / 3.6e9
    }

    /// The deterministic campaign report: headline, sorted coverage
    /// cells, corpus in discovery order, findings. Byte-identical for
    /// identical `(protocol, seed, budget)`.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fuzz {}: seed={} runs={} sim-hours={:.2} coverage={} corpus={} findings={}",
            self.protocol,
            self.seed,
            self.runs,
            self.sim_hours(),
            self.coverage.len(),
            self.corpus.len(),
            self.findings.len()
        );
        let _ = writeln!(s, "coverage:");
        for cell in &self.coverage {
            let _ = writeln!(s, "  {cell}");
        }
        let _ = writeln!(s, "corpus:");
        for (i, e) in self.corpus.iter().enumerate() {
            let _ = writeln!(
                s,
                "  [{i:>3}] {} (+{})",
                e.input.describe(),
                e.new_cells.join(",")
            );
        }
        let _ = writeln!(s, "findings:");
        for (i, f) in self.findings.iter().enumerate() {
            let a = &f.artifact;
            let _ = writeln!(
                s,
                "  [{i}] {} at step {} (n={}, found after {:.2} sim-hours): {}",
                a.invariant,
                a.step,
                a.nodes,
                f.found_at_us as f64 / 3.6e9,
                a.detail
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_parses_and_scales() {
        let scale = SIM_SECONDS_PER_BUDGET_SECOND;
        assert_eq!(
            parse_time_budget("60s").unwrap(),
            SimDuration::from_secs(60 * scale)
        );
        assert_eq!(
            parse_time_budget("5m").unwrap(),
            SimDuration::from_secs(300 * scale)
        );
        assert_eq!(
            parse_time_budget("7").unwrap(),
            SimDuration::from_secs(7 * scale)
        );
        for bad in ["", "0", "0s", "-3s", "90ms", "fast"] {
            assert!(parse_time_budget(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn grace_buckets_partition_the_window() {
        assert_eq!(grace_bucket(SimDuration::ZERO), None);
        assert_eq!(grace_bucket(SimDuration::from_millis(400)), Some("1s"));
        assert_eq!(grace_bucket(SimDuration::from_secs(2)), Some("2.5s"));
        assert_eq!(grace_bucket(SimDuration::from_secs(3)), Some("4s"));
        assert_eq!(grace_bucket(SimDuration::from_secs(5)), Some("edge"));
    }

    #[test]
    fn seed_corpus_covers_the_canned_schedules() {
        let inputs = seed_inputs(8);
        assert_eq!(inputs.len(), 1 + conformance::chaos_schedules().len());
        assert!(
            inputs[0].plan.is_empty(),
            "first seed is the clean baseline"
        );
        for i in &inputs {
            assert_eq!(i.nn, 8);
            assert_eq!(i.speed, 0.0);
        }
    }

    #[test]
    fn mutations_preserve_the_canonical_grammar() {
        // Heavier structural coverage lives in the harness proptest
        // suite; this is the cheap always-on smoke.
        let mut rng = SimRng::seed_from(77);
        let mut input = seed_inputs(8).remove(1);
        for _ in 0..200 {
            mutate_input(&mut input, &mut rng, true);
            let text = input.plan.to_text();
            let back = FaultPlan::parse(&text).expect("mutated plan parses");
            assert_eq!(back.to_text(), text, "canonical fixed point");
        }
    }
}
