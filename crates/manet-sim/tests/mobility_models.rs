//! Mobility-model conformance: every model keeps nodes inside the arena
//! over long horizons, and same-seed runs are bit-identical (pinned
//! trace fingerprints per model).

use manet_sim::mobility::{MobilityConfig, RetargetCtx};
use manet_sim::{Arena, Net, NodeId, Point, Sim, SimDuration, SimRng, SimTime, WorldConfig};

/// Marks every joiner configured immediately so mobility starts.
struct Idle;

impl manet_sim::ProtocolCore for Idle {
    type Msg = ();

    fn on_join(&mut self, w: &mut Net<'_, ()>, node: NodeId) {
        w.mark_configured(node);
    }

    fn on_message(&mut self, _w: &mut Net<'_, ()>, _to: NodeId, _from: NodeId, _msg: ()) {}
}

const MODELS: [&str; 4] = [
    "random-waypoint",
    "manhattan:100",
    "group:4,50",
    "flash-crowd:80,30",
];

/// Drives each model's `next_leg` directly for 10k legs and checks the
/// produced destination never leaves the arena — the differential
/// in-bounds property the simulator's clamp then only has to defend,
/// not create.
#[test]
fn every_model_stays_in_bounds_over_10k_steps() {
    let arena = Arena::new(700.0, 500.0);
    for spec in MODELS {
        let cfg = MobilityConfig::parse(spec).unwrap();
        let mut model = cfg.build(99);
        let mut rng = SimRng::seed_from(7);
        let mut here = Point::new(350.0, 250.0);
        for step in 0..10_000u64 {
            let ctx = RetargetCtx {
                node: NodeId::new(step % 16),
                now: SimTime::from_micros(step * 250_000),
                here,
                arena: &arena,
                speed: 20.0,
            };
            let (dest, speed) = model.next_leg(&ctx, &mut rng);
            assert!(
                arena.contains(dest),
                "{spec}: leg {step} left the arena: {dest}"
            );
            assert!(speed >= 0.0, "{spec}: negative speed at leg {step}");
            here = dest;
        }
    }
}

/// World-level in-bounds check: a moving population under each model,
/// sampled every quantum for a simulated minute, never reports an
/// out-of-arena position.
#[test]
fn world_positions_stay_in_bounds_under_every_model() {
    for spec in MODELS {
        let wc = WorldConfig {
            arena: Arena::new(600.0, 600.0),
            mobility: MobilityConfig::parse(spec).unwrap(),
            seed: 11,
            ..WorldConfig::default()
        };
        let arena = wc.arena;
        let mut sim = Sim::new(wc, Idle);
        for i in 0..12 {
            sim.spawn_at(Point::new(50.0 + 45.0 * i as f64, 300.0));
        }
        let end = SimTime::ZERO + SimDuration::from_secs(60);
        while sim.step_until(end) {
            let (w, _) = sim.parts_mut();
            for i in 0..12 {
                let p = w.position(NodeId::new(i)).unwrap();
                assert!(arena.contains(p), "{spec}: node {i} at {p} left {arena}");
            }
        }
    }
}

/// FNV-1a over the bit patterns of every sampled position — the
/// fingerprint two identical runs must share.
fn run_fingerprint(spec: &str, seed: u64) -> u64 {
    let wc = WorldConfig {
        mobility: MobilityConfig::parse(spec).unwrap(),
        seed,
        ..WorldConfig::default()
    };
    let mut sim = Sim::new(wc, Idle);
    for i in 0..10 {
        sim.spawn_at(Point::new(100.0 + 80.0 * i as f64, 500.0));
    }
    let mut hash = proto_io::FNV1A_INIT;
    let mut mix = |v: u64| hash = proto_io::fnv1a_extend(hash, &v.to_le_bytes());
    let end = SimTime::ZERO + SimDuration::from_secs(30);
    while sim.step_until(end) {
        let (w, _) = sim.parts_mut();
        for i in 0..10 {
            let p = w.position(NodeId::new(i)).unwrap();
            mix(p.x.to_bits());
            mix(p.y.to_bits());
        }
    }
    hash
}

/// Same seed ⇒ byte-identical movement, different seed ⇒ divergence,
/// and the per-model fingerprints are pinned: any change to a model's
/// draw sequence (or to the default model's legacy stream) fails here.
#[test]
fn same_seed_trace_fingerprints_are_pinned() {
    let pinned: [(&str, u64); 4] = [
        ("random-waypoint", 0x4040_473a_36c7_d30f),
        ("manhattan:100", 0xc1f4_0713_7b6b_49e5),
        ("group:4,50", 0xb06c_1668_4a99_f4a8),
        ("flash-crowd:80,30", 0xac42_84c9_41a4_c601),
    ];
    let mut moved = Vec::new();
    for (spec, want) in pinned {
        let a = run_fingerprint(spec, 4242);
        let b = run_fingerprint(spec, 4242);
        assert_eq!(a, b, "{spec}: same-seed runs diverged");
        if a != want {
            moved.push(format!("(\"{spec}\", {a:#018x})"));
        }
        let other = run_fingerprint(spec, 4243);
        assert_ne!(a, other, "{spec}: different seeds produced identical runs");
    }
    assert!(
        moved.is_empty(),
        "pinned fingerprints moved — a mobility model's draw sequence \
         changed; observed: {}",
        moved.join(", ")
    );
}
