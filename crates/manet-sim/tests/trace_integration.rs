//! End-to-end check that the event trace captures simulator activity.

use manet_sim::Event;
use manet_sim::{MsgCategory, Net, NodeId, Point, ProtocolCore, Sim, SimDuration, WorldConfig};

struct PingAll;

impl ProtocolCore for PingAll {
    type Msg = u8;
    fn on_join(&mut self, w: &mut Net<'_, u8>, node: NodeId) {
        if node.index() > 0 {
            let _ = w.unicast(node, NodeId::new(0), MsgCategory::Configuration, 1);
        }
    }
    fn on_message(&mut self, w: &mut Net<'_, u8>, to: NodeId, from: NodeId, msg: u8) {
        if msg == 1 {
            let _ = w.broadcast_within(to, 1, MsgCategory::Hello, 2);
            let _ = w.unicast(to, from, MsgCategory::Configuration, 3);
        }
    }
}

#[test]
fn trace_captures_joins_sends_and_removals() {
    let mut sim = Sim::new(
        WorldConfig {
            speed: 0.0,
            ..WorldConfig::default()
        },
        PingAll,
    );
    sim.world_mut().enable_trace(128);
    let a = sim.spawn_at(Point::new(0.0, 0.0));
    let b = sim.spawn_at(Point::new(50.0, 0.0));
    sim.run_for(SimDuration::from_secs(1));
    sim.leave_now(b, false);

    let trace = sim.world().trace();
    assert!(trace.is_enabled());
    let events: Vec<_> = trace.records().map(|r| &r.event).collect();

    let joins = events
        .iter()
        .filter(|e| matches!(e, Event::Join { .. }))
        .count();
    assert_eq!(joins, 2);

    assert!(events.iter().any(|e| matches!(
        e,
        Event::Unicast {
            from,
            to,
            hops: 1,
            ..
        } if *from == b && *to == a
    )));
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::Broadcast { k: Some(1), .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::Remove { node } if *node == b)));

    let jsonl = trace.to_jsonl();
    assert!(jsonl.contains("\"event\":\"join\",\"node\":1"));
    assert!(jsonl.contains("\"event\":\"remove\",\"node\":1"));
}

#[test]
fn trace_disabled_by_default_costs_nothing() {
    let mut sim = Sim::new(WorldConfig::default(), PingAll);
    sim.spawn_at(Point::new(0.0, 0.0));
    sim.spawn_at(Point::new(50.0, 0.0));
    sim.run_for(SimDuration::from_secs(1));
    assert!(sim.world().trace().is_empty());
    assert!(!sim.world().trace().is_enabled());
}
