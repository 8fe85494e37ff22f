//! The oracle's scenario driver: a deterministic arrival workload
//! stepped one simulator event at a time, with the invariant checker
//! run after every event.
//!
//! The workload is intentionally simple and fully determined by
//! `(nn, seed, plan, speed, mobility)`: nodes spawn on a connected
//! grid (spacing well inside radio range) every [`ARRIVAL_GAP`], the
//! run settles, and a cooldown lets reclamation and merge flows
//! finish. The canonical workload is static (speed 0); the fuzzer may
//! raise the speed and pick a mobility model, both of which an
//! artifact then records. All other churn comes from the fault plan
//! (crashes, head kills, jams, partitions), which keeps failing
//! configurations replayable from an artifact's header fields alone.

use crate::adapter::ConformanceAdapter;
use crate::checker::{Checker, NearMiss, Violation};
use manet_sim::faults::FaultPlan;
use manet_sim::{
    observer, FlowKind, FlowTally, MobilityConfig, Point, Sim, SimDuration, SimTime, World,
    WorldConfig,
};

/// Virtual time between scheduled arrivals.
pub const ARRIVAL_GAP: SimDuration = SimDuration::from_micros(500_000);
/// Settle phase after the last arrival.
pub const SETTLE: SimDuration = SimDuration::from_micros(5_000_000);
/// Cooldown after the settle phase (reclamation / merge runoff).
pub const COOLDOWN: SimDuration = SimDuration::from_micros(10_000_000);
/// Default event budget (a backstop, far above any workload here).
pub const DEFAULT_MAX_EVENTS: u64 = 1_000_000;

/// A fully-determined conformance run: protocol-independent workload
/// parameters plus the fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckConfig {
    /// Nodes to spawn.
    pub nn: usize,
    /// World seed (placement is deterministic; this seeds protocol and
    /// mobility draws).
    pub seed: u64,
    /// The chaos schedule.
    pub plan: FaultPlan,
    /// Node speed in m/s once configured. The canonical workload is
    /// static (`0.0`) so physical components only change through joins
    /// and deaths; the fuzzer raises it to fold mobility churn into
    /// the search space.
    pub speed: f64,
    /// Mobility model driving moving nodes (irrelevant at speed 0).
    pub mobility: MobilityConfig,
    /// Hard cap on dispatched events.
    pub max_events: u64,
}

impl CheckConfig {
    /// A config with the default event budget and the canonical static
    /// workload (speed 0, random-waypoint).
    #[must_use]
    pub fn new(nn: usize, seed: u64, plan: FaultPlan) -> Self {
        CheckConfig {
            nn,
            seed,
            plan,
            speed: 0.0,
            mobility: MobilityConfig::default(),
            max_events: DEFAULT_MAX_EVENTS,
        }
    }
}

/// What a conformance run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Events dispatched (up to the violation, if any).
    pub steps: u64,
    /// Alive configured nodes at the end of the run.
    pub configured: usize,
    /// The first invariant violation, or `None` for a clean run.
    pub violation: Option<Violation>,
    /// The fault plane's counters at the end of the run — under an
    /// adversarial plan these quantify the attack surface (squatted
    /// grants, forged votes, reclaim floods, replayed claims).
    pub faults: manet_sim::FaultCounters,
    /// Addresses held by more than one node the adapter still reports
    /// at the end of the run (0 on any healthy protocol; the stolen
    /// leases a run conceded when the checker was not armed to stop).
    pub dup_addrs: usize,
    /// Final flow-span tallies per [`FlowKind`], in
    /// [`observer::all_kinds`] order — the fuzzer's behavioral
    /// coverage signal (which protocol lifecycles a schedule
    /// exercised, and how often they were abandoned or retried).
    pub flows: [(FlowKind, FlowTally); 5],
    /// How close the run came to a grace-windowed violation.
    pub near_miss: NearMiss,
}

/// Grid positions centered in the arena with `spacing` between
/// neighbors — connected (spacing < range) and independent of any RNG,
/// so shrinking the node count never perturbs surviving nodes.
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

/// Runs the workload for protocol `P` under `cfg`, checking every
/// claimed invariant after every simulator event.
#[must_use]
pub fn run_check<P: ConformanceAdapter>(cfg: &CheckConfig) -> CheckOutcome {
    let mut checker = Checker::new(P::guarantees(&cfg.plan));
    let mut violation = None;
    let (mut sim, steps) = step_workload::<P>(cfg, |step, w, p| {
        violation = checker.check(step, w, p).err();
        violation.is_none()
    });

    let (w, p) = sim.parts_mut();
    let assigned = p.assigned_pairs(w);
    let mut held = proto_io::IdMap::with_capacity_and_hasher(assigned.len(), Default::default());
    for (_, a) in &assigned {
        *held.entry(*a).or_insert(0usize) += 1;
    }
    let flows = observer::all_kinds().map(|k| (k, *w.observer().tally(k)));
    CheckOutcome {
        steps,
        configured: assigned.len(),
        violation,
        faults: *w.metrics().faults(),
        dup_addrs: held.values().filter(|&&n| n > 1).count(),
        flows,
        near_miss: checker.near_miss(),
    }
}

/// The workload of `cfg`, one simulator event at a time: `after_event`
/// gets the step number, the world and the protocol state after the
/// founding join (step 0) and after every event, and stops the run by
/// returning `false`; the event budget stops it too. Returns the
/// simulation and the number of events dispatched. [`run_check`] is
/// this with the checker after every event.
#[doc(hidden)]
pub fn step_workload<P: ConformanceAdapter>(
    cfg: &CheckConfig,
    mut after_event: impl FnMut(u64, &mut World<P::Msg>, &P) -> bool,
) -> (Sim<P>, u64) {
    let wc = WorldConfig {
        seed: cfg.seed,
        speed: cfg.speed,
        mobility: cfg.mobility,
        fault_plan: cfg.plan.clone(),
        ..WorldConfig::default()
    };
    let (arena_w, arena_h, range) = (wc.arena.width(), wc.arena.height(), wc.range);
    let mut sim = Sim::new(wc, P::fresh());
    sim.world_mut().enable_observer();

    let positions = grid_positions(cfg.nn, arena_w, arena_h, range * 0.6);
    for (i, pos) in positions.iter().enumerate() {
        if i == 0 {
            sim.spawn_at(*pos);
        } else {
            let at = SimTime::ZERO
                .saturating_add(SimDuration::from_micros(ARRIVAL_GAP.as_micros() * i as u64));
            sim.schedule_spawn_at(at, *pos);
        }
    }

    let arrivals_done = SimTime::ZERO.saturating_add(SimDuration::from_micros(
        ARRIVAL_GAP.as_micros() * cfg.nn as u64,
    ));
    let end = arrivals_done
        .saturating_add(SETTLE)
        .saturating_add(COOLDOWN);

    // The founding join already ran inside `spawn_at`.
    let mut steps = 0u64;
    let mut observe = |steps, sim: &mut Sim<P>| {
        let (w, p) = sim.parts_mut();
        after_event(steps, w, p)
    };
    let mut going = observe(steps, &mut sim);
    while going && steps < cfg.max_events && sim.step_until(end) {
        steps += 1;
        going = observe(steps, &mut sim);
    }
    (sim, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_connected_and_centered() {
        let pts = grid_positions(25, 1000.0, 1000.0, 90.0);
        assert_eq!(pts.len(), 25);
        // 5×5 grid spans 360 m, centered: first corner at 320.
        assert_eq!(pts[0], Point::new(320.0, 320.0));
        assert_eq!(pts[24], Point::new(680.0, 680.0));
        // Row-major neighbors sit one spacing apart (inside 150 m range).
        for w in pts.windows(2) {
            assert!(w[0].distance(w[1]) <= 360.0 + 90.0);
        }
    }

    #[test]
    fn single_node_grid() {
        let pts = grid_positions(1, 1000.0, 1000.0, 90.0);
        assert_eq!(pts, vec![Point::new(500.0, 500.0)]);
    }
}
