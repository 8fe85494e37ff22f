//! The world has two ways to queue a send. Where no recipient's fate can
//! differ from another's — no loss rate, no fault plan, no shadow — each
//! hop level of the traversal becomes one run as it stands. Otherwise
//! every recipient is decided on its own and passes the per-recipient
//! choke point. A world with an inert fault plan or a shadow that hands
//! back a clone decides nothing differently, so it must run exactly the
//! simulation the plain world runs: the same metrics, the same
//! transcript and the same event-loop counters.

use harness::scenario::{run_scenario_with, Scenario};
use manet_sim::{FaultPlan, MsgCategory, NodeId, Point, SimTime, WireShadow};
use qbac_core::{ProtocolConfig, Qbac};
use std::fmt;

/// A shadow transport that carries nothing: the recipient gets a clone.
struct Cloning;

impl fmt::Debug for Cloning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Cloning")
    }
}

impl<M: Clone> WireShadow<M> for Cloning {
    fn carry(&mut self, path: &[NodeId], _category: MsgCategory, msg: &M) -> M {
        assert!(!path.is_empty(), "a path ends at its recipient");
        msg.clone()
    }
}

/// Which path the world's sends take.
#[derive(Debug, Clone, Copy)]
enum Path {
    /// One run per hop level.
    Levels,
    /// Per recipient, forced by a fault plan whose one jam lies outside
    /// the arena, so it never judges a node.
    InertFaults,
    /// Per recipient, forced by the [`Cloning`] shadow.
    Shadow,
}

/// What both paths must agree on: `Metrics::to_json`, the transcript's
/// fingerprint, and `(events, deliveries, timers_fired,
/// queue_high_water)`.
type Outcome = (String, String, (u64, u64, u64, u64));

fn run(scenario: &Scenario, path: Path) -> Outcome {
    let scenario = match path {
        Path::InertFaults => {
            let jam = FaultPlan::new(scenario.seed).with_jam(
                Point::new(-20.0, -20.0),
                Point::new(-10.0, -10.0),
                SimTime::ZERO,
                SimTime::MAX,
            );
            assert!(!jam.is_empty(), "the plan must install a fault state");
            Scenario {
                fault_plan: jam,
                ..scenario.clone()
            }
        }
        Path::Levels | Path::Shadow => scenario.clone(),
    };
    let mut report = run_scenario_with(&scenario, Qbac::new(ProtocolConfig::default()), |sim| {
        sim.world_mut().enable_transcript();
        if matches!(path, Path::Shadow) {
            sim.world_mut().set_wire_shadow(Box::new(Cloning));
        }
    });
    let p = *report.metrics().perf();
    let metrics = report.metrics().to_json();
    let transcript = report
        .sim_mut()
        .world_mut()
        .take_transcript()
        .expect("transcript was enabled");
    assert!(!transcript.is_empty(), "{path:?}: the run recorded no I/O");
    let counters = (p.events, p.deliveries, p.timers_fired, p.queue_high_water);
    (metrics, transcript.fingerprint(), counters)
}

fn assert_paths_agree(label: &str, scenario: &Scenario) {
    let levels = run(scenario, Path::Levels);
    assert!(levels.2 .1 > 1_000, "{label}: a busy run, {:?}", levels.2);
    for path in [Path::InertFaults, Path::Shadow] {
        let other = run(scenario, path);
        assert_eq!(levels.0, other.0, "{label} {path:?}: metrics");
        assert_eq!(levels.1, other.1, "{label} {path:?}: transcript");
        assert_eq!(levels.2, other.2, "{label} {path:?}: counters");
    }
}

/// One shard of the benchmark's static storm: 128 nodes joining 100 ms
/// apart, each next to the network.
#[test]
fn a_static_storm_shard_runs_alike_on_both_paths() {
    let storm = Scenario::builder()
        .nn(128)
        .speed_mps(0.0)
        .arrival_gap_ms(100)
        .settle_secs(5)
        .connected_arrivals(true)
        .seed(41)
        .build()
        .expect("in-domain storm");
    assert_paths_agree("storm", &storm);
}

/// A small city at the benchmark's density and speed, some nodes
/// leaving: nodes move from their configuration on, so the snapshot
/// changes under the sends, and two-hop requests and floods reach past
/// the first hop level.
#[test]
fn a_mobile_city_runs_alike_on_both_paths() {
    let nn = 60;
    let city = Scenario::builder()
        .nn(nn)
        .speed_mps(20.0)
        .area_m(40.0 * (nn as f64).sqrt())
        .arrival_gap_ms(20)
        .settle_secs(8)
        .connected_arrivals(false)
        .depart_fraction(0.2)
        .seed(43)
        .build()
        .expect("in-domain city");
    assert_paths_agree("city", &city);
}
