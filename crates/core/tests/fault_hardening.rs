//! Hardening of the join/reclaim timer paths against injected faults:
//! bounded backoff retries, idempotent re-requests, and recovery after
//! total loss windows.

use manet_sim::faults::FaultPlan;
use manet_sim::{Point, Sim, SimDuration, SimTime, WorldConfig};
use qbac_core::{join_backoff, ProtocolConfig, Qbac, JOIN_RETRY};

fn still(plan: FaultPlan) -> WorldConfig {
    WorldConfig {
        speed: 0.0,
        fault_plan: plan,
        ..WorldConfig::default()
    }
}

#[test]
fn join_backoff_doubles_every_other_attempt_and_caps() {
    let base = JOIN_RETRY;
    assert_eq!(join_backoff(0), base);
    assert_eq!(join_backoff(1), base);
    assert_eq!(join_backoff(2), base * 2);
    assert_eq!(join_backoff(4), base * 4);
    assert_eq!(join_backoff(6), base * 8);
    // Bounded: a node that has retried forever still probes at 8x.
    assert_eq!(join_backoff(1000), base * 8);
}

/// Every message is delayed well past the retry timeout, so the joiner
/// re-sends `COM_REQ` several times before the first `COM_CFG` lands.
/// The allocator must answer re-requests with the *same* address
/// instead of burning a fresh one per duplicate request.
#[test]
fn delayed_replies_do_not_burn_addresses() {
    let plan =
        FaultPlan::new(21).with_delay(1.0, SimDuration::from_secs(2), SimDuration::from_secs(2));
    let mut sim = Sim::new(still(plan), Qbac::new(ProtocolConfig::default()));
    sim.spawn_at(Point::new(100.0, 100.0));
    sim.run_for(SimDuration::from_secs(2)); // founder settles as head
    sim.spawn_at(Point::new(200.0, 100.0));
    sim.run_for(SimDuration::from_secs(20));

    assert_eq!(sim.world().metrics().configured_nodes(), 2);
    let heads = sim.protocol().heads(sim.world());
    assert_eq!(heads.len(), 1);
    let pool = &sim.protocol().head(heads[0]).expect("head state").pool;
    assert_eq!(
        pool.table().allocated_count(),
        2,
        "exactly the head's own address plus one member — duplicate \
         COM_REQs must not allocate extra addresses"
    );
    assert!(sim_audit(&mut sim).is_ok());
}

/// Nodes that join while a jam blackholes their neighborhood must keep
/// retrying (at the capped backoff pace) and configure once the jam
/// lifts — without founding a competing network.
#[test]
fn stranded_joiners_recover_when_jam_lifts() {
    // Jam covers the right side of the chain for the first 12 seconds.
    let plan = FaultPlan::new(22).with_jam(
        Point::new(150.0, 0.0),
        Point::new(450.0, 200.0),
        SimTime::ZERO,
        SimTime::from_micros(12_000_000),
    );
    let mut sim = Sim::new(still(plan), Qbac::new(ProtocolConfig::default()));
    for i in 0..5 {
        sim.run_until(SimTime::from_micros(i * 1_000_000));
        sim.spawn_at(Point::new(i as f64 * 100.0, 100.0));
    }
    sim.run_until(SimTime::from_micros(12_000_000));
    let configured_during_jam = sim.world().metrics().configured_nodes();
    assert!(
        configured_during_jam < 5,
        "the jam must have stranded someone"
    );
    assert!(
        sim.world().metrics().faults().dropped > 0,
        "the jam must have eaten traffic"
    );

    sim.run_for(SimDuration::from_secs(30));
    assert_eq!(
        sim.world().metrics().configured_nodes(),
        5,
        "stranded joiners recover after the jam lifts"
    );
    assert_eq!(
        sim.protocol().heads(sim.world()).len() + sim.protocol().common_nodes(sim.world()).len(),
        5
    );
    assert!(sim_audit(&mut sim).is_ok());
}

/// 30% uniform loss: joins still complete (slower), and the address
/// table stays duplicate-free.
#[test]
fn lossy_network_converges_without_duplicates() {
    let plan = FaultPlan::new(23).with_loss(0.3);
    let mut sim = Sim::new(still(plan), Qbac::new(ProtocolConfig::default()));
    for i in 0..8 {
        sim.run_until(SimTime::from_micros(i * 1_000_000));
        sim.spawn_at(Point::new(
            100.0 + (i % 4) as f64 * 90.0,
            100.0 + (i / 4) as f64 * 90.0,
        ));
    }
    sim.run_for(SimDuration::from_secs(60));
    assert_eq!(sim.world().metrics().configured_nodes(), 8);
    assert!(sim_audit(&mut sim).is_ok());
}

fn sim_audit(sim: &mut Sim<Qbac>) -> Result<(), Vec<qbac_core::DuplicateAddress>> {
    let (world, protocol) = sim.parts_mut();
    protocol.audit_unique(world)
}
