//! `repro scale`: the sharded city-scale join-storm runner.
//!
//! The paper's evaluation tops out at a few hundred nodes; this module
//! answers "what happens at city scale" by exploiting the protocol's
//! own structure: before any merge event, spatially disjoint partitions
//! are *independent components* — no message can cross between them.
//! A 100k-node join storm therefore decomposes into ~`n / shard_nn`
//! standalone shard simulations, each a self-contained [`Scenario`]
//! with its own RNG stream, fanned across worker threads with
//! [`crate::sweep::run_jobs`] and merged **in ascending shard order**.
//!
//! Determinism contract (same as `sweep.json`): the artifact records
//! nothing about *how* the run executed — not the thread count, not
//! scheduling order. Per-shard seeds are a pure function of
//! `(base_seed, size, shard index)`, and the merge order is fixed, so
//! the same config produces byte-identical deterministic renderings on
//! one thread or sixteen. Wall-clock fields render as 0 under
//! `REPRO_NO_WALL_CLOCK=1`; the fingerprint always covers the zeroed
//! form.
//!
//! A cell is a sweep [`CellResult`] with no flows, written by the
//! sweep's one cell writer, so `repro gate` reads both artifacts alike.

use crate::scenario::{run_scenario, Scenario};
use crate::sweep::{write_cells, CellParams, CellResult};
use manet_sim::Metrics;
use qbac_core::{ProtocolConfig, Qbac};
use std::fmt::Write as _;

/// The sizes the committed `BENCH_scale.json` covers.
pub const DEFAULT_SIZES: [usize; 3] = [1_000, 10_000, 100_000];

/// Configuration of one scale run.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Total node counts to run, one cell each.
    pub sizes: Vec<usize>,
    /// Target nodes per shard. Shards are sized `n / shards` rounded,
    /// so every shard is within one node of the target's quotient.
    pub shard_nn: usize,
    /// Base RNG seed; per-shard seeds are mixed from it.
    pub base_seed: u64,
    /// Worker threads for the shard fan-out (`0` = one per CPU).
    pub threads: usize,
    /// Shrinks the per-shard drive (short arrival gap and settle
    /// window) so smoke runs finish fast.
    pub quick: bool,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            sizes: DEFAULT_SIZES.to_vec(),
            shard_nn: 128,
            base_seed: 42,
            threads: 0,
            quick: false,
        }
    }
}

/// A completed scale run, ready to render as `BENCH_scale.json`.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Base seed the run used.
    pub base_seed: u64,
    /// Target shard size.
    pub shard_nn: usize,
    /// Whether the quick drive was active.
    pub quick: bool,
    /// One cell per requested size, in request order: a sweep cell
    /// with no flows, whose `reps` counts the shards merged into it.
    pub cells: Vec<CellResult>,
    /// Shards that panicked: `(cell key, shard index, message)`.
    pub failed: Vec<(String, usize, String)>,
    /// Total wall-clock, microseconds.
    pub wall_us: u64,
}

/// SplitMix64 finalizer: decorrelates per-shard seeds so shard 0 of
/// every cell doesn't share a stream with its neighbors. Keyed by the
/// cell's *size* (not its index in `sizes`), so a smoke run of one
/// size reproduces the same cell a multi-size baseline recorded.
fn mix_seed(base: u64, size: usize, shard: usize) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(1 + size as u64))
        .wrapping_add(0x2545_F491_4F6C_DD1Du64.wrapping_mul(1 + shard as u64));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Splits `n` nodes into shards within one node of `n / shards`.
fn shard_sizes(n: usize, shard_nn: usize) -> Vec<usize> {
    let shards = n.div_ceil(shard_nn.max(1)).max(1);
    let base = n / shards;
    let rem = n % shards;
    (0..shards).map(|i| base + usize::from(i < rem)).collect()
}

/// The join-storm scenario one shard runs: every node arrives in a
/// burst, then a short settle window. Static nodes — the storm is the
/// workload, mobility is the sweep's axis.
fn shard_scenario(nn: usize, seed: u64, quick: bool) -> Scenario {
    Scenario::builder()
        .nn(nn)
        .speed_mps(0.0)
        .arrival_gap_ms(if quick { 50 } else { 100 })
        .settle_secs(if quick { 3 } else { 5 })
        .connected_arrivals(true)
        .seed(seed)
        .build()
        .expect("shard scenario is in-domain")
}

fn run_shard(nn: usize, seed: u64, quick: bool) -> (Metrics, u64) {
    let s = shard_scenario(nn, seed, quick);
    let report = run_scenario(&s, Qbac::new(ProtocolConfig::default()));
    let sim_us = report.world().now().as_micros();
    (report.into_measurements().metrics, sim_us)
}

/// Runs the whole scale config: every size's shard fan-out.
#[must_use]
pub fn run_scale(cfg: &ScaleConfig) -> ScaleReport {
    let t0 = std::time::Instant::now();
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        cfg.threads
    };
    // Flatten (cell, shard) pairs into one job list so small cells
    // don't serialize behind big ones.
    let mut jobs: Vec<(usize, usize, usize)> = Vec::new(); // (cell, shard, nn)
    for (ci, &n) in cfg.sizes.iter().enumerate() {
        for (si, &nn) in shard_sizes(n, cfg.shard_nn).iter().enumerate() {
            jobs.push((ci, si, nn));
        }
    }
    let results = crate::sweep::run_jobs(jobs.len(), threads, |j| {
        let (ci, si, nn) = jobs[j];
        run_shard(nn, mix_seed(cfg.base_seed, cfg.sizes[ci], si), cfg.quick)
    });
    let mut cells: Vec<CellResult> = cfg
        .sizes
        .iter()
        .map(|&n| CellResult {
            // The sweep grammar's coordinates, so `repro gate` compares
            // scale artifacts cell by cell.
            params: CellParams {
                protocol: "quorum".into(),
                nn: n,
                speed: 0.0,
                mobility: "random-waypoint".into(),
                loss: 0.0,
                plan: "scale-storm".into(),
            },
            reps: 0,
            metrics: Metrics::new(),
            flows: Vec::new(),
            sim_us: 0,
            wall_us: 0,
        })
        .collect();
    let mut failed = Vec::new();
    // `run_jobs` returns results in job order, and jobs were pushed in
    // ascending (cell, shard) order — so this merge is the canonical
    // ascending-shard merge no matter how the workers interleaved.
    for (&(ci, si, _), r) in jobs.iter().zip(results) {
        match r {
            Ok((m, sim_us)) => {
                cells[ci].metrics.merge(&m);
                cells[ci].sim_us += sim_us;
                cells[ci].reps += 1;
            }
            Err(msg) => failed.push((cells[ci].params.key(), si, msg)),
        }
    }
    let per_cell_wall = t0.elapsed().as_micros() as u64 / cells.len().max(1) as u64;
    for c in &mut cells {
        c.wall_us = per_cell_wall;
    }
    ScaleReport {
        base_seed: cfg.base_seed,
        shard_nn: cfg.shard_nn,
        quick: cfg.quick,
        cells,
        failed,
        wall_us: t0.elapsed().as_micros() as u64,
    }
}

use crate::artifact::{fnv1a, json_usize_list, push_json_str, Artifact};

impl ScaleReport {
    /// Renders the artifact with real wall-clock timings.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.render(false)
    }

    /// Renders the byte-identical-across-runs form: every wall-clock
    /// field zeroed. This is what the fingerprint covers and what
    /// `REPRO_NO_WALL_CLOCK=1` writes.
    #[must_use]
    pub fn deterministic_json(&self) -> String {
        self.render(true)
    }

    /// FNV-1a fingerprint over the deterministic body.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.render_body(true).body().as_bytes())
    }

    fn render(&self, zero_walls: bool) -> String {
        let mut doc = self.render_body(zero_walls);
        let _ = write!(doc, "\"fingerprint\":\"fnv1a:{:016x}\"", self.fingerprint());
        doc.seal()
    }

    /// Everything up to (and excluding) the fingerprint field. The
    /// thread count is deliberately absent: the artifact must not
    /// depend on how the run executed.
    fn render_body(&self, zero_walls: bool) -> Artifact {
        let mut s = Artifact::begin();
        let _ = write!(
            s,
            ",\"scale\":{{\"base_seed\":{},\"shard_nn\":{},\"quick\":{},\"sizes\":{}}}",
            self.base_seed,
            self.shard_nn,
            self.quick,
            json_usize_list(&self.cells.iter().map(|c| c.params.nn).collect::<Vec<_>>()),
        );
        write_cells(&mut s, &self.cells, zero_walls);
        s.push(",\"failed\":[");
        for (i, (key, shard, msg)) in self.failed.iter().enumerate() {
            if i > 0 {
                s.push(",");
            }
            let _ = write!(s, "{{\"cell\":\"{key}\",\"shard\":{shard},\"panic\":");
            push_json_str(&mut s, msg);
            s.push("}");
        }
        let wall = if zero_walls { 0 } else { self.wall_us };
        let _ = write!(s, "],\"wall_us\":{wall},");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(threads: usize) -> ScaleReport {
        run_scale(&ScaleConfig {
            sizes: vec![96],
            shard_nn: 48,
            base_seed: 7,
            threads,
            quick: true,
        })
    }

    /// Shard 0 of the n = 1 000 cell at its full 128 nodes, run to the
    /// end.
    fn full_shard() -> crate::scenario::RunReport<Qbac> {
        let s = shard_scenario(128, mix_seed(1, 1_000, 0), false);
        run_scenario(&s, Qbac::new(ProtocolConfig::default()))
    }

    /// Nobody in a shard ever moves, so its one sweep is the first
    /// snapshot; 127 joins are spliced in and every quantum re-keys.
    #[test]
    fn a_static_shard_sweeps_once() {
        assert_eq!(full_shard().world().snapshot_sweeps(), 1);
    }

    /// The counters rendered into `BENCH_scale.json` count refreshes and
    /// fresh-key calls, by whatever means: the literals are what the
    /// commit before the splice printed for this shard.
    #[test]
    fn a_static_shard_counts_refreshes_as_it_always_did() {
        let report = full_shard();
        let perf = report.world().metrics().perf();
        assert_eq!((perf.topo_builds, perf.topo_hits), (196, 2550));
    }

    #[test]
    fn shard_sizes_stay_within_one_of_even() {
        assert_eq!(shard_sizes(100, 128), vec![100]);
        assert_eq!(shard_sizes(256, 128), vec![128, 128]);
        let s = shard_sizes(1000, 128);
        assert_eq!(s.iter().sum::<usize>(), 1000);
        assert!(s.iter().all(|&x| x == 125));
        let t = shard_sizes(1001, 128);
        assert_eq!(t.iter().sum::<usize>(), 1001);
        assert!(t.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1));
    }

    #[test]
    fn scale_is_byte_identical_across_threads() {
        let a = tiny(1);
        let b = tiny(4);
        assert_eq!(
            a.deterministic_json(),
            b.deterministic_json(),
            "scale artifact must not depend on the thread count"
        );
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn scale_cells_configure_nodes_and_gate_against_themselves() {
        let r = tiny(0);
        assert_eq!(r.cells.len(), 1);
        assert_eq!(r.cells[0].reps, 2);
        assert!(r.failed.is_empty(), "{:?}", r.failed);
        assert!(
            r.cells[0].metrics.configured_nodes() >= 90,
            "storm should configure nearly every node: {}",
            r.cells[0].metrics.configured_nodes()
        );
        let json = r.deterministic_json();
        let report = crate::gate::gate(&json, &json, 0.01).expect("self-gate parses");
        assert!(report.pass(), "{report:?}");
    }

    #[test]
    fn subset_run_gates_against_superset_baseline() {
        // The CI smoke shape: a one-size run gated against the
        // committed multi-size baseline.
        let full = run_scale(&ScaleConfig {
            sizes: vec![64, 96],
            shard_nn: 48,
            base_seed: 7,
            threads: 0,
            quick: true,
        });
        let smoke = run_scale(&ScaleConfig {
            sizes: vec![96],
            shard_nn: 48,
            base_seed: 7,
            threads: 0,
            quick: true,
        });
        // Size-keyed shard seeds make the shared cell an *exact*
        // reproduction, so even a zero-tolerance subset gate passes.
        let (full, smoke) = (full.deterministic_json(), smoke.deterministic_json());
        let report = crate::gate::gate_subset(&full, &smoke, 0.0).expect("subset gate parses");
        assert!(report.pass(), "{report:?}");
        // The artifact is the storm alone: seconds live in `perf/`.
        let doc = crate::artifact::parse_verified("scale", &full).expect("valid artifact");
        assert!(doc.get("topo").is_none(), "{full}");
    }

    #[test]
    fn mixed_seeds_do_not_collide_across_shards() {
        let mut seen = proto_io::IdSet::default();
        for cell in 0..8 {
            for shard in 0..64 {
                assert!(seen.insert(mix_seed(42, cell, shard)));
            }
        }
    }

    #[test]
    fn panic_text_survives_the_artifact_round_trip() {
        let msg = "assertion `left == right` failed: \"a\\\"b\"\n  left: C:\\tmp";
        let report = ScaleReport {
            base_seed: 1,
            shard_nn: 128,
            quick: true,
            cells: Vec::new(),
            failed: vec![("n1000".into(), 3, msg.into())],
            wall_us: 0,
        };
        let doc = crate::artifact::parse_verified("scale", &report.to_json()).expect("valid JSON");
        let failed = doc
            .get("failed")
            .and_then(crate::json::Value::as_array)
            .unwrap();
        assert_eq!(
            failed[0].get("panic").and_then(crate::json::Value::as_str),
            Some(msg)
        );
    }
}
