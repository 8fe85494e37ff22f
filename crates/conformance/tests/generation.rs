//! The views generation only saves work: a run whose adapter hides it,
//! so the checker builds the views on every step, must end in the same
//! whole [`CheckOutcome`] — violation step and detail, `near_miss`,
//! fault counters — as the run that skips the builds whenever the
//! generation and the world's roster stand still.
//!
//! The grid is every checkable protocol under every chaos schedule, off
//! the schedules' pinned seeds, plus every attack canary and a moving
//! QBAC world under `splitbrain`, where nodes move, crash and restart
//! while the views stand still. Debug builds also rebuild the views on
//! every skipped step and assert they equal the stored ones.

use addrspace::{Addr, PoolView};
use conformance::registry::CHECKABLE;
use conformance::{
    attack_canaries, chaos_schedules, for_protocol, run_check, step_workload, CheckConfig,
    CheckOutcome, Checker, ConformanceAdapter, Guarantees,
};
use manet_sim::faults::FaultPlan;
use manet_sim::{NodeId, ProtocolCore, World};
use proto_io::{Input, Net};
use qbac_core::Qbac;

const SEEDS: [u64; 6] = [1, 7, 101, 102, 103, 9001];
const SIZES: [usize; 2] = [12, 40];

/// `P` with its views generation hidden: the checker cannot skip.
#[derive(Debug)]
struct Hidden<P>(P);

impl<P: ProtocolCore> ProtocolCore for Hidden<P> {
    type Msg = P::Msg;

    fn on_join(&mut self, w: &mut Net<'_, P::Msg>, node: NodeId) {
        self.0.on_join(w, node);
    }

    fn on_message(&mut self, w: &mut Net<'_, P::Msg>, to: NodeId, from: NodeId, msg: P::Msg) {
        self.0.on_message(w, to, from, msg);
    }

    fn on_timer(&mut self, w: &mut Net<'_, P::Msg>, node: NodeId, tag: u64) {
        self.0.on_timer(w, node, tag);
    }

    fn on_link_change(&mut self, w: &mut Net<'_, P::Msg>, node: NodeId, neighbors: &[NodeId]) {
        self.0.on_link_change(w, node, neighbors);
    }

    fn on_leave(&mut self, w: &mut Net<'_, P::Msg>, node: NodeId, graceful: bool) {
        self.0.on_leave(w, node, graceful);
    }

    fn is_cluster_head(&self, node: NodeId) -> bool {
        self.0.is_cluster_head(node)
    }

    fn handle(&mut self, w: &mut Net<'_, P::Msg>, node: NodeId, input: Input<P::Msg>) {
        self.0.handle(w, node, input);
    }
}

impl<P: ConformanceAdapter> ConformanceAdapter for Hidden<P> {
    fn fresh() -> Self {
        Hidden(P::fresh())
    }

    fn name() -> &'static str {
        P::name()
    }

    fn guarantees(plan: &FaultPlan) -> Guarantees {
        P::guarantees(plan)
    }

    fn assigned_pairs(&self, w: &World<P::Msg>) -> Vec<(NodeId, Addr)> {
        self.0.assigned_pairs(w)
    }

    fn pool_views(&self, w: &World<P::Msg>) -> Vec<(NodeId, PoolView)> {
        self.0.pool_views(w)
    }

    fn stamp_views(&self, w: &World<P::Msg>) -> Vec<((NodeId, NodeId, Addr), u64)> {
        self.0.stamp_views(w)
    }
}

/// Runs `cfg` with and without `P`'s generation; they must agree.
fn agree<P: ConformanceAdapter>(cfg: &CheckConfig) -> CheckOutcome {
    assert!(
        P::fresh().views_generation().is_some(),
        "{} tracks its views",
        P::name()
    );
    let skipping = run_check::<P>(cfg);
    let rebuilding = run_check::<Hidden<P>>(cfg);
    assert_eq!(skipping, rebuilding, "{} on {cfg:?}", P::name());
    skipping
}

/// [`agree`] for the protocol registered as `name`.
fn agree_named(name: &str, cfg: &CheckConfig) -> CheckOutcome {
    for_protocol!(CHECKABLE: name, P => agree::<P>(cfg))
        .unwrap_or_else(|| panic!("{name} is not registered"))
}

#[test]
fn every_checkable_protocol_agrees_under_every_chaos_schedule() {
    let mut violations = 0;
    for name in CHECKABLE {
        for schedule in chaos_schedules() {
            for seed in SEEDS {
                for nn in SIZES {
                    let cfg = CheckConfig::new(nn, seed, schedule.plan.clone());
                    violations += usize::from(agree_named(name, &cfg).violation.is_some());
                }
            }
        }
    }
    // The grid is `verdict_pins`'s, whose fixture holds 14 violations:
    // the skip must be exercised on failing runs too.
    assert_eq!(violations, 14);
}

#[test]
fn every_attack_canary_agrees_open_and_hardened() {
    for c in attack_canaries() {
        let open = agree_named("quorum", &c.config());
        assert!(open.violation.is_some(), "{} is caught", c.name);
        let hardened = agree_named("quorum-hardened", &c.config());
        assert!(hardened.violation.is_none(), "{} is held", c.name);
    }
}

/// The storm QBAC cell at full size.
fn storm() -> CheckConfig {
    let storm = chaos_schedules()
        .into_iter()
        .find(|s| s.name == "storm")
        .expect("storm is a chaos schedule");
    CheckConfig::new(40, storm.world_seed, storm.plan)
}

#[test]
fn a_moving_world_agrees_under_splitbrain() {
    let splitbrain = chaos_schedules()
        .into_iter()
        .find(|s| s.name == "splitbrain")
        .expect("splitbrain is a chaos schedule");
    let cfg = CheckConfig {
        speed: 10.0,
        ..CheckConfig::new(40, splitbrain.world_seed, splitbrain.plan)
    };
    let out = agree::<Qbac>(&cfg);
    assert!(out.faults.crashes > 0 && out.faults.restarts > 0);
}

/// Checks after every event of `cfg` and returns `(checks, rebuilds)`.
fn rebuild_share<P: ConformanceAdapter>(cfg: &CheckConfig) -> (u64, u64) {
    let mut checker = Checker::new(P::guarantees(&cfg.plan));
    let (_, steps) = step_workload::<P>(cfg, |step, w, p| checker.check(step, w, p).is_ok());
    (steps + 1, checker.rebuilds())
}

#[test]
fn the_storm_cell_builds_views_on_few_steps() {
    // A generation that moved on every step would keep every other test
    // here green and lose the whole gain.
    let (checks, rebuilds) = rebuild_share::<Qbac>(&storm());
    assert!(
        rebuilds * 5 < checks,
        "{rebuilds} of {checks} checks built the views"
    );
    let (checks, rebuilds) = rebuild_share::<Hidden<Qbac>>(&storm());
    assert_eq!(rebuilds, checks, "with no generation every check builds");
}
