//! `repro topology`: the strip-sweep topology build measured against
//! the naive all-pairs oracle, recorded as `BENCH_topology.json` at the
//! workspace root (and uploaded by CI). Many iterations per sample,
//! median of several samples. Compare two baselines with
//! `jq '.rows[] | {n, build_speedup}' BENCH_topology.json`.

use crate::artifact::Artifact;
use manet_sim::topology::Topology;
use manet_sim::{Arena, MsgCategory, Net, NodeId, Point, ProtocolCore, Sim, SimRng, WorldConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// Sweep sizes: the paper's 50–200 span plus the 500-node stress point
/// the large-n figure sweeps hit.
pub const SIZES: [usize; 4] = [100, 200, 350, 500];

/// Transmission range all rows use (the paper's 150 m baseline).
pub const RANGE: f64 = 150.0;

/// One measured sweep point.
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// Node count.
    pub n: usize,
    /// Microseconds for one naive O(n²) build.
    pub naive_build_us: f64,
    /// Microseconds for one strip-sweep (grid) build.
    pub grid_build_us: f64,
    /// Microseconds for a cold BFS (fresh build + first `distances_from`).
    pub bfs_fresh_us: f64,
    /// Microseconds for a memoized `distances_from` re-query.
    pub bfs_memo_us: f64,
    /// Microseconds to flood one message through a `World` of `n` nodes
    /// and drain every delivery event.
    pub flood_deliver_us: f64,
}

impl BaselineRow {
    /// `naive_build_us / grid_build_us`.
    #[must_use]
    pub fn build_speedup(&self) -> f64 {
        self.naive_build_us / self.grid_build_us.max(f64::MIN_POSITIVE)
    }
}

/// Samples per timing; the artifact's `units` line quotes it.
const SAMPLES: usize = 5;

/// Median over [`SAMPLES`] samples of the mean per-call time of `f`, in
/// microseconds. `iters` calls per sample amortize timer overhead.
fn time_us<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let iters = iters.max(1);
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            start.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[SAMPLES / 2]
}

fn layout(n: usize, seed: u64) -> Vec<(NodeId, Point)> {
    let arena = Arena::default();
    let mut rng = SimRng::seed_from(seed);
    (0..n)
        .map(|i| (NodeId::new(i as u64), rng.point_in(&arena)))
        .collect()
}

struct Inert;
impl ProtocolCore for Inert {
    type Msg = ();
    fn on_join(&mut self, _w: &mut Net<'_, ()>, _node: NodeId) {}
    fn on_message(&mut self, _w: &mut Net<'_, ()>, _to: NodeId, _from: NodeId, _m: ()) {}
}

/// Measures one sweep point; iteration counts scale so each sample of
/// a build runs ≥ ~1 ms.
fn measure(n: usize) -> BaselineRow {
    let nodes = layout(n, 42);
    let build_iters = (400_000 / (n * n) + 4).min(200);
    let naive_build_us = time_us(build_iters, || Topology::build_naive(&nodes, RANGE));
    let grid_build_us = time_us(build_iters * 4, || Topology::build(&nodes, RANGE));
    let bfs_fresh_us = time_us(build_iters * 2, || {
        Topology::build(&nodes, RANGE).distances_from(NodeId::new(0))
    });
    let topo = Topology::build(&nodes, RANGE);
    let _ = topo.distances_from(NodeId::new(0));
    let bfs_memo_us = time_us(2000, || topo.distances_from(NodeId::new(0)));

    let mut sim = Sim::new(WorldConfig::default(), Inert);
    for (_, p) in &nodes {
        sim.spawn_at(*p);
    }
    let flood_deliver_us = time_us(50, || {
        let _ = sim
            .world_mut()
            .flood(NodeId::new(0), MsgCategory::Hello, ());
        sim.drain(u64::MAX)
    });
    BaselineRow {
        n,
        naive_build_us,
        grid_build_us,
        bfs_fresh_us,
        bfs_memo_us,
        flood_deliver_us,
    }
}

/// Measures every size in [`SIZES`]. Takes a few hundred milliseconds
/// in total.
#[must_use]
pub fn run_topology_baseline() -> Vec<BaselineRow> {
    SIZES.iter().map(|&n| measure(n)).collect()
}

/// Renders rows as the `BENCH_topology.json` document.
#[must_use]
pub fn to_json(rows: &[BaselineRow]) -> String {
    let mut doc = Artifact::begin();
    let _ = write!(
        doc,
        ",\"bench\":\"topology\",\"engine\":\"strip-sweep vs naive all-pairs, range {RANGE} m, \
         1000 m x 1000 m arena\",\"units\":\"microseconds per operation (median of {SAMPLES} \
         samples)\",\"rows\":["
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            doc,
            "{}{{\"n\":{},\"naive_build_us\":{:.2},\"grid_build_us\":{:.2},\
             \"build_speedup\":{:.2},\"bfs_fresh_us\":{:.2},\"bfs_memo_us\":{:.3},\
             \"flood_deliver_us\":{:.2}}}",
            if i > 0 { "," } else { "" },
            r.n,
            r.naive_build_us,
            r.grid_build_us,
            r.build_speedup(),
            r.bfs_fresh_us,
            r.bfs_memo_us,
            r.flood_deliver_us,
        );
    }
    doc.push("]");
    doc.seal()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn baseline_json_is_a_versioned_artifact_with_every_timing() {
        // One small size: the shape, not the numbers.
        let json = to_json(&[measure(60)]);
        let doc = crate::artifact::parse_verified("topology", &json).expect("valid artifact");
        assert_eq!(doc.get("bench").and_then(Value::as_str), Some("topology"));
        let rows = doc.get("rows").and_then(Value::as_array).expect("rows");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("n").and_then(Value::as_u64), Some(60));
        for key in [
            "naive_build_us",
            "grid_build_us",
            "build_speedup",
            "bfs_fresh_us",
            "bfs_memo_us",
            "flood_deliver_us",
        ] {
            let v = rows[0].get(key).and_then(Value::as_f64);
            assert!(v.is_some_and(|v| v > 0.0), "{key}: {v:?} in {json}");
        }
    }
}
