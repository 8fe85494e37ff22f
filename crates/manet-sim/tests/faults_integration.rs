//! End-to-end tests of the fault-injection plane through the public API.

use manet_sim::faults::FaultPlan;
use manet_sim::{
    MsgCategory, Net, NodeId, Point, ProtocolCore, Sim, SimDuration, SimTime, WorldConfig,
};

/// Ping protocol: every joiner unicasts node 0 once; node 0 counts.
/// Its one message is a `u8`.
#[derive(Default)]
struct Ping {
    received: u32,
    joins: u32,
}

impl ProtocolCore for Ping {
    type Msg = u8;

    fn on_join(&mut self, w: &mut Net<'_, Self::Msg>, node: NodeId) {
        self.joins += 1;
        if node.index() != 0 {
            let _ = w.unicast(node, NodeId::new(0), MsgCategory::Configuration, 1);
        }
    }

    fn on_message(&mut self, _w: &mut Net<'_, Self::Msg>, _to: NodeId, _from: NodeId, _m: u8) {
        self.received += 1;
    }
}

/// Protocol in which node 0 is permanently the head.
#[derive(Default)]
struct HeadZero;

impl ProtocolCore for HeadZero {
    type Msg = ();
    fn on_join(&mut self, _w: &mut Net<'_, ()>, _node: NodeId) {}
    fn on_message(&mut self, _w: &mut Net<'_, ()>, _t: NodeId, _f: NodeId, _m: ()) {}
    fn is_cluster_head(&self, node: NodeId) -> bool {
        node.index() == 0
    }
}

fn still(plan: FaultPlan) -> WorldConfig {
    WorldConfig {
        speed: 0.0,
        fault_plan: plan,
        ..WorldConfig::default()
    }
}

fn chain(sim: &mut Sim<Ping>, n: usize) {
    for i in 0..n {
        sim.spawn_at(Point::new(i as f64 * 100.0, 0.0));
    }
}

#[test]
fn empty_plan_with_any_seed_is_identical_to_no_plan() {
    fn run(plan: FaultPlan) -> (u64, u64, u64) {
        let mut sim = Sim::new(still(plan), Ping::default());
        chain(&mut sim, 10);
        sim.run_for(SimDuration::from_secs(5));
        let m = sim.world().metrics();
        (m.total_messages(), m.total_hops(), m.faults().total())
    }
    let baseline = run(FaultPlan::default());
    assert_eq!(baseline, run(FaultPlan::new(12345)));
    assert_eq!(baseline.2, 0, "no faults injected");
}

#[test]
fn total_loss_drops_every_delivery_but_charges_hops() {
    let plan = FaultPlan::new(1).with_loss(1.0);
    let mut sim = Sim::new(still(plan), Ping::default());
    chain(&mut sim, 5);
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(sim.protocol().received, 0, "every ping dropped");
    let m = sim.world().metrics();
    assert_eq!(m.faults().dropped, 4);
    assert!(m.total_hops() > 0, "transmissions still charged");
}

#[test]
fn duplication_delivers_extra_copies() {
    let plan = FaultPlan::new(2).with_duplication(1.0);
    let mut sim = Sim::new(still(plan), Ping::default());
    chain(&mut sim, 5);
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(sim.protocol().received, 8, "each of 4 pings arrives twice");
    assert_eq!(sim.world().metrics().faults().duplicated, 4);
}

#[test]
fn injected_delay_postpones_delivery() {
    let plan =
        FaultPlan::new(3).with_delay(1.0, SimDuration::from_secs(10), SimDuration::from_secs(10));
    let mut sim = Sim::new(still(plan), Ping::default());
    chain(&mut sim, 2);
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(sim.protocol().received, 0, "still in flight");
    sim.run_for(SimDuration::from_secs(10));
    assert_eq!(
        sim.protocol().received,
        1,
        "arrived after the injected delay"
    );
    assert_eq!(sim.world().metrics().faults().delayed, 1);
}

#[test]
fn a_delay_at_the_one_hour_ceiling_runs() {
    let plan = FaultPlan::parse("seed 3\ndelay 1.0 3600s 3600s").expect("at the ceiling");
    let mut sim = Sim::new(still(plan), Ping::default());
    chain(&mut sim, 2);
    sim.run_for(SimDuration::from_secs(3599));
    assert_eq!(sim.protocol().received, 0, "still in flight");
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(sim.protocol().received, 1, "arrived an hour late");
}

#[test]
fn scheduled_crash_kills_and_restart_revives() {
    let node = NodeId::new(2);
    let plan = FaultPlan::new(4).with_crash(
        node,
        SimTime::from_micros(1_000_000),
        Some(SimTime::from_micros(3_000_000)),
    );
    let mut sim = Sim::new(still(plan), Ping::default());
    chain(&mut sim, 4);
    assert!(sim.world().is_alive(node));
    sim.run_until(SimTime::from_micros(2_000_000));
    assert!(!sim.world().is_alive(node), "crashed on schedule");
    assert_eq!(sim.world().metrics().faults().crashes, 1);
    sim.run_until(SimTime::from_micros(4_000_000));
    assert!(sim.world().is_alive(node), "restarted on schedule");
    assert!(
        !sim.world().is_configured(node),
        "restart forgets configuration"
    );
    assert_eq!(sim.world().metrics().faults().restarts, 1);
    // The restart re-runs the join handshake (4 spawns + 1 rejoin).
    assert_eq!(sim.protocol().joins, 5);
}

#[test]
fn restart_without_crash_is_ignored() {
    // The node never dies, so the scheduled restart must be a no-op.
    let plan = FaultPlan {
        crashes: vec![manet_sim::faults::CrashEvent {
            node: NodeId::new(1),
            at: SimTime::from_micros(10_000_000_000), // far beyond the run
            restart_at: Some(SimTime::from_micros(1_000_000)),
        }],
        ..FaultPlan::default()
    };
    let mut sim = Sim::new(still(plan), Ping::default());
    chain(&mut sim, 3);
    sim.run_for(SimDuration::from_secs(5));
    assert_eq!(sim.world().metrics().faults().restarts, 0);
    assert_eq!(sim.protocol().joins, 3);
}

#[test]
fn head_kill_takes_out_the_reported_head() {
    let plan = FaultPlan::new(5).with_head_kill(SimTime::from_micros(1_000_000), 1);
    let mut sim = Sim::new(still(plan), HeadZero);
    for i in 0..4 {
        sim.spawn_at(Point::new(i as f64 * 100.0, 0.0));
    }
    sim.run_for(SimDuration::from_secs(2));
    assert!(!sim.world().is_alive(NodeId::new(0)), "the head died");
    assert_eq!(sim.world().alive_count(), 3, "only the head died");
    assert_eq!(sim.world().metrics().faults().crashes, 1);
}

#[test]
fn head_kill_with_no_heads_is_a_noop() {
    let plan = FaultPlan::new(6).with_head_kill(SimTime::from_micros(500_000), 3);
    let mut sim = Sim::new(still(plan), Ping::default()); // default: no heads
    chain(&mut sim, 4);
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(sim.world().alive_count(), 4);
    assert_eq!(sim.world().metrics().faults().crashes, 0);
}

#[test]
fn jam_region_blocks_covered_traffic_then_clears() {
    // Jam around node 0 for the first second.
    let plan = FaultPlan::new(7).with_jam(
        Point::new(0.0, 0.0),
        Point::new(50.0, 50.0),
        SimTime::ZERO,
        SimTime::from_micros(1_000_000),
    );
    let mut sim = Sim::new(still(plan), Ping::default());
    chain(&mut sim, 3); // spawns at t=0, inside the jam window
    sim.run_for(SimDuration::from_secs(2));
    assert_eq!(sim.protocol().received, 0, "receiver was jammed");
    assert_eq!(sim.world().metrics().faults().dropped, 2);
    // After the jam lifts, new traffic flows.
    sim.spawn_at(Point::new(300.0, 0.0));
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(sim.protocol().received, 1);
}

#[test]
fn partition_blocks_cross_boundary_traffic() {
    let plan =
        FaultPlan::new(8).with_partition(150.0, SimTime::ZERO, SimTime::from_micros(10_000_000));
    let mut sim = Sim::new(still(plan), Ping::default());
    chain(&mut sim, 4); // nodes at x = 0, 100, 200, 300
    sim.run_for(SimDuration::from_secs(2));
    // Node 1 (x=100) is on node 0's side; nodes 2 and 3 are cut off.
    assert_eq!(sim.protocol().received, 1);
    assert_eq!(sim.world().metrics().faults().dropped, 2);
}

#[test]
fn same_seed_and_plan_reproduce_identical_metrics() {
    fn run() -> manet_sim::Metrics {
        let plan = FaultPlan::new(99)
            .with_loss(0.3)
            .with_delay(
                0.2,
                SimDuration::from_millis(1),
                SimDuration::from_millis(20),
            )
            .with_duplication(0.1)
            .with_crash(NodeId::new(3), SimTime::from_micros(2_000_000), None);
        let config = WorldConfig {
            seed: 17,
            fault_plan: plan,
            ..WorldConfig::default()
        };
        let mut sim = Sim::new(config, Ping::default());
        for _ in 0..20 {
            sim.spawn_random();
        }
        sim.run_for(SimDuration::from_secs(10));
        sim.world().metrics().clone()
    }
    assert_eq!(run(), run());
}

#[test]
fn fault_events_appear_in_trace() {
    let plan = FaultPlan::new(10).with_loss(1.0).with_crash(
        NodeId::new(1),
        SimTime::from_micros(500_000),
        None,
    );
    let mut sim = Sim::new(still(plan), Ping::default());
    sim.world_mut().enable_trace(256);
    chain(&mut sim, 3);
    sim.run_for(SimDuration::from_secs(2));
    let jsonl = sim.world().trace().to_jsonl();
    assert!(jsonl.contains("\"event\":\"fault_drop\""), "trace: {jsonl}");
    assert!(jsonl.contains("\"event\":\"crash\""), "trace: {jsonl}");
}
