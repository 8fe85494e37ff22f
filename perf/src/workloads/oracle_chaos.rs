//! `oracle_chaos`: the every-event conformance oracle under the canned
//! chaos schedules, through `conformance::run_named`.
//!
//! Five protocols × {storm, splitbrain, reaper} at nn = 40 over two
//! world seeds a rep. The only workload where `Checker::check` after every
//! event (≈14 µs a step for QBAC against 0.3 µs unchecked), the fault
//! plane, crash/restart, partition-heal merge and reclamation do the
//! work; it is also the benchmark's fault-injected run.
//!
//! quorum × splitbrain is left out. Away from the schedule's pinned
//! world seed it trips `pool-conserved` in about half the runs — two
//! owners still overlap 5.1 s after the partition heals, just past the
//! oracle's 5 s merge grace — and a workload should hold no operation
//! that fails. Every other pairing ran clean over 200 world seeds.

use super::{mix, ms_since, Rep, Traced, Workload};
use crate::spans::{SpanId, SpanLog};
use crate::stats::ratio;
use crate::timed::{Busy, Timed, KIND_SPANS};
use baselines::{buddy::Buddy, ctree::CTree, dad::QueryDad, manetconf::ManetConf};
use conformance::drive::{ARRIVAL_GAP, COOLDOWN, SETTLE};
use conformance::registry::PROTOCOLS;
use conformance::{
    chaos_schedules, run_named, CheckConfig, CheckOutcome, Checker, ConformanceAdapter,
};
use harness::artifact::fnv1a;
use manet_sim::{observer, Point, Sim, SimDuration, SimTime, WorldConfig};
use proto_io::Metrics;
use qbac_core::Qbac;
use std::time::Instant;

/// One checked run.
#[derive(Debug, Clone)]
pub struct CheckUnit {
    /// Registry name of the protocol.
    pub protocol: &'static str,
    /// Name of the chaos schedule.
    pub schedule: &'static str,
    /// The fully determined run.
    pub cfg: CheckConfig,
}

/// Generated inputs.
#[derive(Debug, Clone)]
pub struct ChaosInputs {
    /// The timed units.
    pub units: Vec<CheckUnit>,
    /// The warm-up slice.
    pub warm: Vec<CheckUnit>,
}

/// The oracle under chaos.
pub struct OracleChaos;

/// A run fails when the protocol broke an invariant it claims or the
/// event budget ran out before the schedule did.
fn run_failed(out: &CheckOutcome, cfg: &CheckConfig) -> bool {
    out.violation.is_some() || out.steps >= cfg.max_events
}

fn units(seed: u64, nn: usize, first_world: u64, world_seeds: u64) -> Vec<CheckUnit> {
    let mut units = Vec::new();
    for protocol in PROTOCOLS {
        for schedule in chaos_schedules() {
            if protocol == "quorum" && schedule.name == "splitbrain" {
                continue;
            }
            for k in first_world..first_world + world_seeds {
                let world_seed = mix(seed ^ schedule.world_seed, k);
                units.push(CheckUnit {
                    protocol,
                    schedule: schedule.name,
                    cfg: CheckConfig::new(nn, world_seed, schedule.plan.clone()),
                });
            }
        }
    }
    units
}

/// `conformance::drive`'s private placement: a connected grid centered
/// in the arena, independent of any RNG.
fn grid_positions(nn: usize, arena_w: f64, arena_h: f64, spacing: f64) -> Vec<Point> {
    let cols = (nn as f64).sqrt().ceil().max(1.0) as usize;
    let rows = nn.div_ceil(cols);
    let x0 = (arena_w - (cols.saturating_sub(1)) as f64 * spacing) / 2.0;
    let y0 = (arena_h - (rows.saturating_sub(1)) as f64 * spacing) / 2.0;
    (0..nn)
        .map(|i| {
            let (r, c) = (i / cols, i % cols);
            Point::new(x0 + c as f64 * spacing, y0 + r as f64 * spacing)
        })
        .collect()
}

/// What the mirrored drive saw that `run_check` keeps to itself.
struct Mirror {
    outcome: CheckOutcome,
    metrics: Metrics,
    handler: Busy,
    check_ns: u64,
    checks: u64,
}

/// `conformance::run_check`, line for line, on the public
/// `Sim::step_until` + `Checker::check`, with the protocol wrapped in
/// [`Timed`] and two clock reads around every check.
fn mirror_check<P: ConformanceAdapter>(cfg: &CheckConfig) -> Mirror {
    let wc = WorldConfig {
        seed: cfg.seed,
        speed: cfg.speed,
        mobility: cfg.mobility,
        fault_plan: cfg.plan.clone(),
        ..WorldConfig::default()
    };
    let (arena_w, arena_h, range) = (wc.arena.width(), wc.arena.height(), wc.range);
    let mut sim = Sim::new(wc, Timed::<P>::fresh());
    sim.world_mut().enable_observer();
    let mut checker = Checker::new(P::guarantees(&cfg.plan));

    for (i, pos) in grid_positions(cfg.nn, arena_w, arena_h, range * 0.6)
        .iter()
        .enumerate()
    {
        if i == 0 {
            sim.spawn_at(*pos);
        } else {
            let at = SimTime::ZERO
                .saturating_add(SimDuration::from_micros(ARRIVAL_GAP.as_micros() * i as u64));
            sim.schedule_spawn_at(at, *pos);
        }
    }
    let end = SimTime::ZERO
        .saturating_add(SimDuration::from_micros(
            ARRIVAL_GAP.as_micros() * cfg.nn as u64,
        ))
        .saturating_add(SETTLE)
        .saturating_add(COOLDOWN);

    let (mut check_ns, mut checks) = (0u64, 0u64);
    let mut timed_check = |checker: &mut Checker, steps: u64, sim: &mut Sim<Timed<P>>| {
        let (w, p) = sim.parts_mut();
        let start = Instant::now();
        let verdict = checker.check(steps, w, &*p);
        check_ns += start.elapsed().as_nanos() as u64;
        checks += 1;
        verdict.err()
    };
    let mut steps = 0u64;
    let mut violation = timed_check(&mut checker, steps, &mut sim);
    while violation.is_none() && steps < cfg.max_events && sim.step_until(end) {
        steps += 1;
        violation = timed_check(&mut checker, steps, &mut sim);
    }

    let (w, p) = sim.parts_mut();
    let assigned = p.assigned_pairs(w);
    let mut held = std::collections::HashMap::with_capacity(assigned.len());
    for (_, a) in &assigned {
        *held.entry(*a).or_insert(0usize) += 1;
    }
    Mirror {
        outcome: CheckOutcome {
            steps,
            configured: assigned.len(),
            violation,
            faults: *w.metrics().faults(),
            dup_addrs: held.values().filter(|&&n| n > 1).count(),
            flows: observer::all_kinds().map(|k| (k, *w.observer().tally(k))),
            near_miss: checker.near_miss(),
        },
        metrics: w.metrics().clone(),
        handler: p.busy(),
        check_ns,
        checks,
    }
}

fn mirror_named(protocol: &str, cfg: &CheckConfig) -> Mirror {
    match protocol {
        "quorum" => mirror_check::<Qbac>(cfg),
        "manetconf" => mirror_check::<ManetConf>(cfg),
        "buddy" => mirror_check::<Buddy>(cfg),
        "ctree" => mirror_check::<CTree>(cfg),
        "dad" => mirror_check::<QueryDad>(cfg),
        other => unreachable!("{other} is not one of conformance::registry::PROTOCOLS"),
    }
}

/// A run's behaviour: the whole outcome, rendered.
fn behaviour(unit: &CheckUnit, out: &CheckOutcome) -> String {
    format!("{}/{}:{out:?}\n", unit.protocol, unit.schedule)
}

impl Workload for OracleChaos {
    type Inputs = ChaosInputs;
    const NAME: &'static str = "oracle_chaos";

    fn generate(seed: u64, rep: u64, smoke: bool) -> ChaosInputs {
        let (nn, world_seeds) = if smoke { (16, 1) } else { (40, 2) };
        let mut warm = units(!seed, nn.min(25), 0, 1);
        warm.truncate(2);
        ChaosInputs {
            units: units(seed, nn, rep * world_seeds, world_seeds),
            warm,
        }
    }

    fn warm_up(inputs: &ChaosInputs) {
        for u in &inputs.warm {
            std::hint::black_box(run_named(u.protocol, &u.cfg).map(|o| o.steps));
        }
    }

    fn rep(inputs: &ChaosInputs) -> Rep {
        let mut text = String::new();
        let mut unit_ms = Vec::with_capacity(inputs.units.len());
        let mut failed = 0;
        for u in &inputs.units {
            let start = Instant::now();
            let out = run_named(u.protocol, &u.cfg).expect("registry names dispatch");
            unit_ms.push(ms_since(start));
            failed += u64::from(run_failed(&out, &u.cfg));
            text.push_str(&behaviour(u, &out));
        }
        Rep {
            digest: fnv1a(text.as_bytes()),
            unit_ms,
            attempted: inputs.units.len() as u64,
            failed,
        }
    }

    fn traced(reps: &[ChaosInputs], log: &mut SpanLog, root: SpanId) -> Traced {
        let mut out = Traced::default();
        let (mut steps, mut violations) = (0u64, 0u64);
        let (mut check_ns, mut checks) = (0u64, 0u64);
        // The oracle's share is quoted for the quorum protocol: its
        // adapter exposes pools and stamps, so its checks are the dear
        // ones.
        let (mut quorum_check_ns, mut quorum_unit_ns) = (0u64, 0u64);
        let mut unit_no = 0;
        for inputs in reps {
            let mut text = String::new();
            for u in &inputs.units {
                let unit = log.open("unit", Some(root), unit_no);
                unit_no += 1;
                let m = mirror_named(u.protocol, &u.cfg);
                log.close(unit);
                for (k, name) in KIND_SPANS.iter().enumerate() {
                    log.aggregate(name, unit, m.handler.ns[k], m.handler.calls[k]);
                }
                log.aggregate("checker", unit, m.check_ns, m.checks);
                if u.protocol == "quorum" {
                    out.quorum_busy.merge(&m.handler);
                    quorum_check_ns += m.check_ns;
                    quorum_unit_ns += log.spans()[unit].duration_ns();
                }
                steps += m.outcome.steps;
                violations += u64::from(m.outcome.violation.is_some());
                check_ns += m.check_ns;
                checks += m.checks;
                out.metrics.merge(&m.metrics);
                out.spawned += u.cfg.nn as u64;
                text.push_str(&behaviour(u, &m.outcome));
            }
            out.digests.push(fnv1a(text.as_bytes()));
        }
        let per_rep = reps.len() as f64;
        out.layer.insert(
            "conformance.check.ns_per_step",
            ratio(check_ns as f64, checks as f64),
        );
        out.layer.insert(
            "conformance.check.share",
            ratio(quorum_check_ns as f64, quorum_unit_ns as f64),
        );
        out.layer
            .insert("conformance.steps", steps as f64 / per_rep);
        out.layer
            .insert("conformance.violations", violations as f64 / per_rep);
        out
    }
}
