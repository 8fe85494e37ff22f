//! Extra experiment: how far a real (distance-vector) routing layer lags
//! the oracle the delivery engine uses.
//!
//! The paper assumes routable unicasts; the simulator grants that with a
//! BFS oracle. This driver quantifies the assumption: after each
//! exchange round of a RIP-style mesh over a mobile topology, what
//! fraction of (src, dst) metrics agree with the oracle? Faster nodes →
//! staler tables — the gap the autoconfiguration latency figures
//! silently ride on.

use super::RunTable;
use crate::scenario::parallel_rounds;
use crate::stats::mean;
use crate::Table;
use manet_sim::mobility::MobilityState;
use manet_sim::routing::RoutingMesh;
use manet_sim::topology::Topology;
use manet_sim::{Arena, NodeId, Point, SimRng, SimTime};

/// Simulates `steps` seconds of mobility at `speed`, one routing
/// exchange round per second, and returns the mean oracle agreement.
fn agreement(seed: u64, nn: usize, speed: f64, steps: u32) -> f64 {
    let arena = Arena::default();
    let mut rng = SimRng::seed_from(seed);
    let mut nodes: Vec<(NodeId, Point, MobilityState)> = (0..nn)
        .map(|i| {
            let p = rng.point_in(&arena);
            let mut m = MobilityState::parked(p);
            m.retarget(SimTime::ZERO, &arena, speed, &mut rng);
            (NodeId::new(i as u64), p, m)
        })
        .collect();

    let mut mesh = RoutingMesh::new();
    let mut samples = Vec::new();
    for t in 0..steps {
        let now = SimTime::from_micros(u64::from(t) * 1_000_000);
        for (_, p, m) in &mut nodes {
            if m.arrival().is_some_and(|a| a <= now) {
                m.retarget(now, &arena, speed, &mut rng);
            }
            *p = m.position(now);
        }
        let positions: Vec<(NodeId, Point)> = nodes.iter().map(|(n, p, _)| (*n, *p)).collect();
        let topo = Topology::build(&positions, 150.0);
        mesh.step(&topo); // one exchange round per second
        samples.push(mesh.agreement_with(&topo));
    }
    mean(&samples)
}

/// Runs the routing-staleness study. Regenerated with `repro --fig 18`.
#[must_use]
pub fn extra_routing(runs: &mut RunTable) -> Vec<Table> {
    let opts = runs.opts();
    let nn = if opts.quick { 40 } else { 100 };
    let steps = if opts.quick { 30 } else { 90 };
    let speeds: Vec<f64> = if opts.quick {
        vec![0.0, 20.0]
    } else {
        vec![0.0, 5.0, 10.0, 20.0, 30.0, 40.0]
    };
    let mut t = Table::new(
        format!("Extra — distance-vector agreement with the routing oracle (nn={nn})"),
        "speed_mps",
        vec!["mean agreement".into()],
    );
    for speed in speeds {
        let vals = parallel_rounds(opts.rounds, opts.seed, |s| agreement(s, nn, speed, steps));
        t.push_row(format!("{speed:.0}"), vec![mean(&vals)]);
    }
    t.note("one RIP exchange round per simulated second, range 150 m, 1 km²");
    t.note("agreement < 1 quantifies the oracle-routing assumption's optimism");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FigOpts;

    #[test]
    fn static_topology_reaches_full_agreement() {
        let opts = FigOpts {
            rounds: 1,
            quick: true,
            seed: 18,
        };
        let t = &extra_routing(&mut RunTable::new(opts))[0];
        let static_agreement = t.rows[0].1[0];
        let mobile_agreement = t.rows[1].1[0];
        assert!(
            static_agreement > 0.95,
            "static network must converge: {static_agreement}"
        );
        assert!(
            mobile_agreement <= static_agreement,
            "mobility must not improve agreement: {static_agreement} → {mobile_agreement}"
        );
    }
}
