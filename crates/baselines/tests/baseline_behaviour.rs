//! Cross-cutting behavioural tests of the baseline protocols — the
//! properties the paper's related-work section attributes to each.

use baselines::buddy::{Buddy, SYNC_INTERVAL};
use baselines::ctree::CTree;
use baselines::dad::QueryDad;
use baselines::manetconf::ManetConf;
use manet_sim::{MsgCategory, Point, Sim, SimDuration, SimTime, WorldConfig};

fn still(seed: u64) -> WorldConfig {
    WorldConfig {
        speed: 0.0,
        seed,
        ..WorldConfig::default()
    }
}

/// Schedules a connected blob of `n` nodes, one per second.
fn schedule_blob<P: manet_sim::ProtocolCore>(sim: &mut Sim<P>, n: u64) {
    for i in 0..n {
        let x = 400.0 + 30.0 * (i % 8) as f64;
        let y = 400.0 + 30.0 * (i / 8) as f64;
        sim.schedule_spawn_at(SimTime::from_micros(i * 1_000_000), Point::new(x, y));
    }
}

/// Spawns a connected blob of `n` nodes, one per second, and lets it
/// settle.
fn blob<P: manet_sim::ProtocolCore>(sim: &mut Sim<P>, n: u64) {
    schedule_blob(sim, n);
    sim.run_until(SimTime::from_micros(n * 1_000_000) + SimDuration::from_secs(10));
}

#[test]
fn buddy_space_is_conserved_under_churn() {
    let mut sim = Sim::new(still(1), Buddy::default());
    blob(&mut sim, 16);
    // Gracefully remove a third of the nodes.
    for i in [2u64, 5, 8, 11, 14] {
        sim.leave_now(manet_sim::NodeId::new(i), true);
        sim.run_for(SimDuration::from_secs(1));
    }
    let total: u64 = sim.protocol().block_sizes(sim.world()).iter().sum();
    assert_eq!(total, 1 << 16, "blocks must neither leak nor duplicate");
}

#[test]
fn buddy_sync_cost_scales_with_size() {
    let sync_hops = |n: u64| {
        let mut sim = Sim::new(still(2), Buddy::default());
        blob(&mut sim, n);
        sim.run_for(SimDuration::from_secs(20));
        sim.world().metrics().hops(MsgCategory::Sync)
    };
    let small = sync_hops(8);
    let large = sync_hops(24);
    assert!(
        large > small * 3,
        "sync floods are quadratic-ish in size: {small} → {large}"
    );
}

#[test]
fn manetconf_confirmation_count_grows_with_network() {
    // The defining cost of full replication: configuring the k-th node
    // requires confirmations from all k-1 others.
    let mut sim = Sim::new(still(3), ManetConf::default());
    blob(&mut sim, 12);
    let m = sim.world().metrics();
    assert_eq!(m.configured_nodes(), 12);
    // At least (1 flood + replies) per configuration beyond the first.
    assert!(
        m.hops(MsgCategory::Configuration) > 11 * 11,
        "flood+replies must dominate: {}",
        m.hops(MsgCategory::Configuration)
    );
}

#[test]
fn ctree_root_is_the_single_reporting_sink() {
    let mut sim = Sim::new(still(4), CTree::default());
    // Root plus a far coordinator (relayed), plus members.
    sim.spawn_at(Point::new(100.0, 100.0));
    sim.run_for(SimDuration::from_secs(2));
    for x in [240.0, 380.0] {
        sim.spawn_at(Point::new(x, 100.0));
        sim.run_for(SimDuration::from_secs(2));
    }
    sim.spawn_at(Point::new(520.0, 100.0));
    sim.run_for(SimDuration::from_secs(2));
    let before = sim.world().metrics().hops(MsgCategory::Sync);
    sim.run_for(SimDuration::from_secs(20));
    let after = sim.world().metrics().hops(MsgCategory::Sync);
    assert!(
        after > before,
        "periodic reports must keep flowing to the root"
    );
    assert_eq!(sim.protocol().coordinators(sim.world()).len(), 2);
}

#[test]
fn dad_makes_no_allocation_state_anywhere() {
    // Stateless: after everyone configures, departures leave zero
    // cleanup traffic (compare the stateful protocols' RETURN_ADDR /
    // Departure floods).
    let mut sim = Sim::new(still(5), QueryDad::default());
    blob(&mut sim, 10);
    let maint_before = sim.world().metrics().hops(MsgCategory::Maintenance);
    for i in 0..5u64 {
        sim.leave_now(manet_sim::NodeId::new(i), true);
        sim.run_for(SimDuration::from_secs(1));
    }
    let maint_after = sim.world().metrics().hops(MsgCategory::Maintenance);
    assert_eq!(
        maint_before, maint_after,
        "stateless departure costs nothing"
    );
}

#[test]
fn buddy_syncs_only_once_its_interval_has_passed() {
    let mut sim = Sim::new(still(6), Buddy::default());
    schedule_blob(&mut sim, 8);
    // The founder configures at t = 0 and arms its first sync round.
    sim.run_until(SimTime::from_micros(SYNC_INTERVAL.as_micros() - 1));
    assert_eq!(
        sim.world().metrics().hops(MsgCategory::Sync),
        0,
        "no sync round before the first interval"
    );
    sim.run_until(SimTime::from_micros(8_000_000) + SimDuration::from_secs(10));
    assert!(sim.world().metrics().hops(MsgCategory::Sync) > 0);
}
