//! Timer semantics survive the mesh transport.
//!
//! Timers never cross the wire — they are a backend-local service — but
//! message arrival *times* drive when handlers arm and cancel them, so
//! a transport that reordered or delayed deliveries would reshuffle the
//! fired-tag sequence. This test runs a protocol that interleaves
//! messaging with zero-delay timers, duplicate arms, and a
//! cancel-after-fire, once per backend, and demands the identical
//! `(virtual-time, tag)` firing sequence.

use manet_sim::{Net, NodeId, Point, ProtocolCore, Sim, SimDuration, TimerId, WorldConfig};
use transport_mesh::MeshShadow;

/// Flood-on-join; every received ping arms a duplicate pair of timers
/// (one cancelled), a zero-delay timer, and replies once.
#[derive(Default)]
struct TimerPing {
    fired: Vec<(u64, u64)>,
    replied: bool,
    last_id: Option<TimerId>,
}

impl ProtocolCore for TimerPing {
    type Msg = u8;

    fn on_join(&mut self, w: &mut Net<'_, u8>, node: NodeId) {
        let _ = w.flood(node, proto_io::MsgCategory::Configuration, 1);
    }

    fn on_message(&mut self, w: &mut Net<'_, u8>, to: NodeId, from: NodeId, msg: u8) {
        // Duplicate arm: both twins would fire; cancel the first.
        let a = w.set_timer(to, SimDuration::from_millis(10), 10);
        let _b = w.set_timer(to, SimDuration::from_millis(10), 10);
        w.cancel_timer(a);
        // Zero-delay: fires this instant, after this handler returns.
        self.last_id = Some(w.set_timer(to, SimDuration::ZERO, 20));
        if msg == 1 && !self.replied {
            self.replied = true;
            let _ = w.unicast(to, from, proto_io::MsgCategory::Configuration, 2);
        }
    }

    fn on_timer(&mut self, w: &mut Net<'_, u8>, _node: NodeId, tag: u64) {
        self.fired.push((w.now().as_micros(), tag));
        if tag == 20 {
            // Cancel-after-fire: our own id already fired; must be inert.
            if let Some(id) = self.last_id.take() {
                w.cancel_timer(id);
            }
        }
    }
}

fn run(mesh: bool) -> Vec<(u64, u64)> {
    let config = WorldConfig {
        speed: 0.0,
        ..WorldConfig::default()
    };
    let mut sim = Sim::new(config, TimerPing::default());
    if mesh {
        sim.world_mut()
            .set_wire_shadow(Box::new(MeshShadow::<u8>::new()));
    }
    // A 3-node line under the default radio range; both backends see
    // the same link map, the mesh just carries each hop over UDP.
    sim.spawn_at(Point::new(0.0, 0.0));
    sim.spawn_at(Point::new(60.0, 0.0));
    sim.spawn_at(Point::new(120.0, 0.0));
    sim.run_for(SimDuration::from_secs(2));
    sim.protocol().fired.clone()
}

#[test]
fn fired_sequences_match_across_backends() {
    let plain = run(false);
    let meshed = run(true);
    assert!(
        plain.iter().any(|&(_, tag)| tag == 10) && plain.iter().any(|&(_, tag)| tag == 20),
        "scenario must exercise both the duplicate-arm and zero-delay paths: {plain:?}"
    );
    assert_eq!(
        plain, meshed,
        "timer firing sequence must not depend on the transport backend"
    );
}
