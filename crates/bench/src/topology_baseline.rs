//! The recorded topology-engine performance baseline.
//!
//! The criterion shim is a single-shot timer, which is fine for
//! ballpark output but too noisy to *record*. This module measures the
//! strip-sweep engine against the naive all-pairs oracle properly —
//! many iterations per sample, median of several samples — and renders
//! the result as the `BENCH_topology.json` artifact committed at the
//! workspace root (and uploaded by CI's bench smoke step). Compare two
//! baselines with `jq '.rows[] | {n, build_speedup}' BENCH_topology.json`.

use manet_sim::topology::Topology;
use manet_sim::{Arena, MsgCategory, Net, NodeId, Point, ProtocolCore, Sim, SimRng, WorldConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
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
    /// `naive_build_us / grid_build_us`.
    pub build_speedup: f64,
    /// Microseconds for a cold BFS (fresh build + first `distances_from`).
    pub bfs_fresh_us: f64,
    /// Microseconds for a memoized `distances_from` re-query.
    pub bfs_memo_us: f64,
    /// Microseconds to flood one message through a `World` of `n` nodes
    /// and drain every delivery event.
    pub flood_deliver_us: f64,
}

/// The full recorded baseline.
#[derive(Debug, Clone)]
pub struct TopologyBaseline {
    /// One row per entry in [`SIZES`].
    pub rows: Vec<BaselineRow>,
}

/// Median over `reps` samples of the mean per-call time of `f`, in
/// microseconds. `iters` calls per sample amortize timer overhead.
fn time_us<R>(reps: usize, iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            start.elapsed().as_secs_f64() * 1e6 / iters.max(1) as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
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

/// Measures every sweep point. Takes a few hundred milliseconds total.
#[must_use]
pub fn run_topology_baseline() -> TopologyBaseline {
    let rows = SIZES
        .iter()
        .map(|&n| {
            let nodes = layout(n, 42);
            // Scale iteration counts so each sample runs ≥ ~1 ms.
            let build_iters = (400_000 / (n * n) + 4).min(200);
            let naive_build_us = time_us(5, build_iters, || Topology::build_naive(&nodes, RANGE));
            let grid_build_us = time_us(5, build_iters * 4, || Topology::build(&nodes, RANGE));
            let bfs_fresh_us = time_us(5, build_iters * 2, || {
                Topology::build(&nodes, RANGE).distances_from(NodeId::new(0))
            });
            let topo = Topology::build(&nodes, RANGE);
            let _ = topo.distances_from(NodeId::new(0));
            let bfs_memo_us = time_us(5, 2000, || topo.distances_from(NodeId::new(0)));

            let mut sim = Sim::new(WorldConfig::default(), Inert);
            for (_, p) in &nodes {
                sim.spawn_at(*p);
            }
            let flood_deliver_us = time_us(5, 50, || {
                let _ = sim
                    .world_mut()
                    .flood(NodeId::new(0), MsgCategory::Hello, ());
                sim.drain(u64::MAX)
            });

            BaselineRow {
                n,
                naive_build_us,
                grid_build_us,
                build_speedup: naive_build_us / grid_build_us.max(f64::MIN_POSITIVE),
                bfs_fresh_us,
                bfs_memo_us,
                flood_deliver_us,
            }
        })
        .collect();
    TopologyBaseline { rows }
}

impl TopologyBaseline {
    /// Renders the baseline as the `BENCH_topology.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        let _ = writeln!(
            s,
            "{{\n  \"schema_version\": {},",
            manet_sim::ARTIFACT_SCHEMA_VERSION
        );
        s.push_str("  \"bench\": \"topology\",\n");
        let _ = writeln!(
            s,
            "  \"engine\": \"strip-sweep vs naive all-pairs, range {RANGE} m, 1000 m x 1000 m arena\","
        );
        s.push_str("  \"units\": \"microseconds per operation (median of 5 samples)\",\n");
        s.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"n\": {}, \"naive_build_us\": {:.2}, \"grid_build_us\": {:.2}, \
                 \"build_speedup\": {:.2}, \"bfs_fresh_us\": {:.2}, \"bfs_memo_us\": {:.3}, \
                 \"flood_deliver_us\": {:.2}}}",
                r.n,
                r.naive_build_us,
                r.grid_build_us,
                r.build_speedup,
                r.bfs_fresh_us,
                r.bfs_memo_us,
                r.flood_deliver_us,
            );
            s.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Writes `contents` to `name` at the workspace root (resolved relative
/// to this crate, so it works from any bench CWD). Returns the path.
///
/// Delegates to [`harness::artifact::write_workspace`], the workspace's
/// single artifact-emission seam.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_workspace_artifact(name: &str, contents: &str) -> std::io::Result<PathBuf> {
    harness::artifact::write_workspace(name, contents)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_json_is_well_formed_and_fast_sizes_only() {
        // A miniature run (first size only) so the test stays quick.
        let row = {
            let nodes = layout(60, 1);
            let naive = time_us(2, 5, || Topology::build_naive(&nodes, RANGE));
            let grid = time_us(2, 5, || Topology::build(&nodes, RANGE));
            BaselineRow {
                n: 60,
                naive_build_us: naive,
                grid_build_us: grid,
                build_speedup: naive / grid.max(f64::MIN_POSITIVE),
                bfs_fresh_us: 1.0,
                bfs_memo_us: 0.1,
                flood_deliver_us: 2.0,
            }
        };
        let json = TopologyBaseline { rows: vec![row] }.to_json();
        for key in [
            "\"schema_version\": 1",
            "\"bench\": \"topology\"",
            "\"rows\"",
            "\"n\": 60",
            "\"naive_build_us\"",
            "\"grid_build_us\"",
            "\"build_speedup\"",
            "\"bfs_memo_us\"",
            "\"flood_deliver_us\"",
        ] {
            assert!(json.contains(key), "missing {key}: {json}");
        }
        // Parses as JSON (hand-rolled renderer, so guard the shape).
        assert!(json.trim_end().ends_with('}'));
    }
}
