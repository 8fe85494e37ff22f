//! Measured alternates to [`Topology::build`]: the dirty-strip
//! [`IncrementalTopology`] maintainer (here) and the thread-parallel
//! [`Topology::build_parallel`] (in `topology.rs`).
//!
//! Neither runs inside [`World`](crate::World): the world rebuilds its
//! snapshot with `Topology::build`, which the wall-clock ledger shows is
//! the fastest of the three at every size measured (DESIGN.md, "Why one
//! engine"). They stay as plain public items because the `perf/` probes
//! and the `topo` rows of `BENCH_scale.json` still time them against
//! the serial build, and the differential proptests still prove them
//! equal to it.
//!
//! [`IncrementalTopology`] keeps the row bins, per-row x-orders, and
//! per-row link buckets from the previous instant and re-sweeps only
//! the *dirty strips*: the old and new rows of nodes that moved,
//! joined, or left. Clean buckets are reused verbatim.
//!
//! All three builders produce **byte-identical** [`Topology`] values
//! for the same input. The argument, load-bearing for the differential
//! proptests:
//!
//! 1. The assembly (`Topology::from_links`) is insensitive to
//!    link-list *order*: bit rows set one bit per link end, and the
//!    CSR's pass one groups directed edges by destination (order within
//!    a group never shows in the output) and pass two walks
//!    destinations ascending, so each node's neighbor run comes out
//!    ascending no matter how the links were discovered. Which of the
//!    two it fills depends on the node and link counts alone. The
//!    snapshot is therefore a pure function of the link *set*.
//! 2. Every builder discovers exactly the set of in-range pairs, each
//!    once. For the incremental maintainer this holds even with row
//!    parameters *frozen* from a previous instant: `row_of` clamps to
//!    `[0, nrows)`, the clamped map is monotone in `y`, and every
//!    interior row spans at least the range — so two nodes whose rows
//!    differ by ≥ 2 are vertically farther apart than the range, and
//!    a pair within range is always in the same or adjacent rows,
//!    found exactly once by the own-row/below-row sweep.

use crate::topology::{d2_threshold, xkey, Topology};
use crate::{NodeId, Point};

/// One node's slot in a row: the packed x sort key, its id, and its
/// coordinates (kept inline so the re-sweep never chases back into the
/// input slice).
#[derive(Debug, Clone, Copy)]
struct RowEntry {
    key: u64,
    id: NodeId,
    x: f64,
    y: f64,
}

/// Row geometry frozen at (re-)initialization. Frozen parameters stay
/// *correct* under arbitrary drift (see the module docs' clamping
/// argument); they only degrade efficiency when the population shifts
/// wholesale, which the dirty-fraction refresh below catches.
#[derive(Debug, Clone, Copy)]
struct RowParams {
    min_y: f64,
    hrow: f64,
    nrows: usize,
    r_slack: f64,
    /// Largest d² whose square root stays ≤ range (exact predicate).
    t: f64,
}

impl RowParams {
    fn new(nodes: &[(NodeId, Point)], range: f64) -> Self {
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for (_, p) in nodes {
            min_y = min_y.min(p.y);
            max_y = max_y.max(p.y);
        }
        // Same row-height policy as the fresh build: at least one
        // range tall (plus slack), floored to O(√n) rows.
        let max_rows = (4.0 * nodes.len() as f64).sqrt().ceil().max(1.0);
        let r_slack = range * (1.0 + 1e-9);
        let hrow = r_slack
            .max((max_y - min_y) / max_rows)
            .max(f64::MIN_POSITIVE);
        let nrows = ((max_y - min_y) / hrow) as usize + 1;
        RowParams {
            min_y,
            hrow,
            nrows,
            r_slack,
            t: d2_threshold(range),
        }
    }

    fn row_of(&self, p: Point) -> usize {
        (((p.y - self.min_y) / self.hrow) as usize).min(self.nrows - 1)
    }
}

/// Carry-over state between instants.
#[derive(Debug)]
struct IncState {
    range: f64,
    params: RowParams,
    /// The previous instant's input, verbatim (ascending by id).
    last: Vec<(NodeId, Point)>,
    /// Per-row membership, sorted by `(x key, id)`.
    rows: Vec<Vec<RowEntry>>,
    /// Links discovered scanning row `r` (own-row pairs plus pairs
    /// into row `r + 1`), as id pairs — ids survive membership churn,
    /// dense indices do not.
    buckets: Vec<Vec<(NodeId, NodeId)>>,
}

/// Re-sweep accounting, so tests can assert the dirty-strip path ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Updates served by dirty-strip maintenance.
    pub updates: u64,
    /// Full (re-)initializations, including fallback builds.
    pub full_builds: u64,
    /// Row buckets re-swept across all updates.
    pub buckets_rebuilt: u64,
    /// Row buckets reused verbatim across all updates.
    pub buckets_reused: u64,
}

/// The dirty-strip incremental topology maintainer.
///
/// Feed it the alive `(id, position)` list (ascending by id) each time
/// the world's topology cache rotates; it returns a snapshot equal —
/// byte-for-byte, including neighbor order — to what
/// [`Topology::build`] would produce from scratch, while re-sweeping
/// only the rows touched by nodes that moved, joined, or left.
#[derive(Debug, Default)]
pub struct IncrementalTopology {
    state: Option<IncState>,
    stats: IncrementalStats,
}

impl IncrementalTopology {
    /// A maintainer with no carried state (the first update is a full
    /// initialization).
    #[must_use]
    pub fn new() -> Self {
        IncrementalTopology::default()
    }

    /// Re-sweep accounting so far.
    #[must_use]
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Produces the snapshot for the current instant, reusing every
    /// clean row bucket from the previous one.
    pub fn update(&mut self, nodes: &[(NodeId, Point)], range: f64) -> Topology {
        // The strip engine's own applicability conditions, plus the
        // ascending-unique-id requirement the diff below relies on.
        // The world always satisfies all of these; adversarial inputs
        // fall back to the fresh build (and drop carried state so a
        // later well-formed input re-initializes cleanly).
        let usable = range > 0.0
            && range.is_finite()
            && nodes.len() >= 32
            && nodes
                .iter()
                .all(|(_, p)| p.x.is_finite() && p.y.is_finite())
            && nodes.windows(2).all(|w| w[0].0 < w[1].0);
        if !usable {
            self.state = None;
            self.stats.full_builds += 1;
            return Topology::build(nodes, range);
        }
        let reinit = match &self.state {
            // A range change moves the link predicate and the row
            // geometry: carried buckets are meaningless.
            Some(st) => st.range != range,
            None => true,
        };
        if reinit {
            return self.init(nodes, range);
        }
        let st = self.state.as_mut().expect("checked above");
        let nrows = st.params.nrows;

        // Diff the previous input against the current one (both
        // ascending by id) and mark the rows every change touches.
        fn mark(r: usize, dirty: &mut [bool], count: &mut usize) {
            if !dirty[r] {
                dirty[r] = true;
                *count += 1;
            }
        }
        let mut dirty = vec![false; nrows];
        let mut dirty_rows = 0usize;
        {
            let (mut i, mut j) = (0, 0);
            while i < st.last.len() || j < nodes.len() {
                match (st.last.get(i), nodes.get(j)) {
                    (Some(&(aid, ap)), Some(&(bid, bp))) if aid == bid => {
                        if ap != bp {
                            mark(st.params.row_of(ap), &mut dirty, &mut dirty_rows);
                            mark(st.params.row_of(bp), &mut dirty, &mut dirty_rows);
                        }
                        i += 1;
                        j += 1;
                    }
                    (Some(&(aid, ap)), Some(&(bid, _))) if aid < bid => {
                        mark(st.params.row_of(ap), &mut dirty, &mut dirty_rows);
                        i += 1;
                    }
                    (Some(_), Some(&(_, bp))) => {
                        mark(st.params.row_of(bp), &mut dirty, &mut dirty_rows);
                        j += 1;
                    }
                    (Some(&(_, ap)), None) => {
                        mark(st.params.row_of(ap), &mut dirty, &mut dirty_rows);
                        i += 1;
                    }
                    (None, Some(&(_, bp))) => {
                        mark(st.params.row_of(bp), &mut dirty, &mut dirty_rows);
                        j += 1;
                    }
                    (None, None) => unreachable!("loop condition"),
                }
            }
        }
        // Wholesale shifts (mass churn, arena-wide redeployment) dirty
        // most rows; re-freezing the geometry then costs the same work
        // and restores the O(√n) row balance for future updates.
        if dirty_rows * 2 > nrows {
            return self.init(nodes, range);
        }
        self.stats.updates += 1;

        // Rebuild the membership of every dirty row in one pass over
        // the current input, then restore each row's (x key, id) order.
        for (r, row) in st.rows.iter_mut().enumerate() {
            if dirty[r] {
                row.clear();
            }
        }
        for &(id, p) in nodes {
            let r = st.params.row_of(p);
            if dirty[r] {
                st.rows[r].push(RowEntry {
                    key: xkey(p.x),
                    id,
                    x: p.x,
                    y: p.y,
                });
            }
        }
        for (r, row) in st.rows.iter_mut().enumerate() {
            if dirty[r] {
                row.sort_unstable_by_key(|e| (e.key, e.id));
            }
        }

        // Bucket r covers pairs inside row r and into row r + 1, so it
        // depends on exactly those two rows.
        for r in 0..nrows {
            let stale = dirty[r] || (r + 1 < nrows && dirty[r + 1]);
            if stale {
                let below = if r + 1 < nrows {
                    std::mem::take(&mut st.rows[r + 1])
                } else {
                    Vec::new()
                };
                let mut bucket = std::mem::take(&mut st.buckets[r]);
                bucket.clear();
                scan_bucket(
                    &st.rows[r],
                    &below,
                    st.params.r_slack,
                    st.params.t,
                    &mut bucket,
                );
                st.buckets[r] = bucket;
                if r + 1 < nrows {
                    st.rows[r + 1] = below;
                }
                self.stats.buckets_rebuilt += 1;
            } else {
                self.stats.buckets_reused += 1;
            }
        }

        st.last.clear();
        st.last.extend_from_slice(nodes);
        assemble(nodes, &st.buckets)
    }

    /// Full (re-)initialization: fresh geometry, rows, and buckets.
    fn init(&mut self, nodes: &[(NodeId, Point)], range: f64) -> Topology {
        self.stats.full_builds += 1;
        let params = RowParams::new(nodes, range);
        let mut rows: Vec<Vec<RowEntry>> = vec![Vec::new(); params.nrows];
        for &(id, p) in nodes {
            rows[params.row_of(p)].push(RowEntry {
                key: xkey(p.x),
                id,
                x: p.x,
                y: p.y,
            });
        }
        for row in &mut rows {
            row.sort_unstable_by_key(|e| (e.key, e.id));
        }
        let mut buckets: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); params.nrows];
        for r in 0..params.nrows {
            let below = if r + 1 < params.nrows {
                std::mem::take(&mut rows[r + 1])
            } else {
                Vec::new()
            };
            scan_bucket(&rows[r], &below, params.r_slack, params.t, &mut buckets[r]);
            if r + 1 < params.nrows {
                rows[r + 1] = below;
            }
        }
        let topo = assemble(nodes, &buckets);
        self.state = Some(IncState {
            range,
            params,
            last: nodes.to_vec(),
            rows,
            buckets,
        });
        topo
    }
}

/// Scans one row pair — `row` against itself (rightward) and against
/// `below` (two-pointer x-window) — with exactly the fresh build's
/// break conditions and d² predicate, collecting accepted pairs as ids.
fn scan_bucket(
    row: &[RowEntry],
    below: &[RowEntry],
    r_slack: f64,
    t: f64,
    out: &mut Vec<(NodeId, NodeId)>,
) {
    let mut lo = 0usize;
    for (k, a) in row.iter().enumerate() {
        for b in &row[k + 1..] {
            let dx = b.x - a.x;
            if dx > r_slack {
                break;
            }
            let dy = b.y - a.y;
            if dx * dx + dy * dy <= t {
                out.push((a.id, b.id));
            }
        }
        while lo < below.len() && below[lo].x - a.x < -r_slack {
            lo += 1;
        }
        for b in &below[lo..] {
            let dx = b.x - a.x;
            if dx > r_slack {
                break;
            }
            let dy = b.y - a.y;
            if dx * dx + dy * dy <= t {
                out.push((a.id, b.id));
            }
        }
    }
}

/// Maps every bucket's id pairs to dense indices over the current
/// input and assembles the snapshot. `from_links` is order-insensitive, so
/// the result equals the fresh build's for any bucket traversal order.
fn assemble(nodes: &[(NodeId, Point)], buckets: &[Vec<(NodeId, NodeId)>]) -> Topology {
    let index_of = |id: NodeId| -> u64 {
        nodes
            .binary_search_by_key(&id, |&(nid, _)| nid)
            .expect("bucket ids come from the current input") as u64
    };
    let total: usize = buckets.iter().map(Vec::len).sum();
    let mut links = Vec::with_capacity(total);
    for bucket in buckets {
        for &(a, b) in bucket {
            links.push(index_of(a) << 32 | index_of(b));
        }
    }
    Topology::from_links(nodes, &links)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    fn layout(n: usize, seed: u64) -> Vec<(NodeId, Point)> {
        let mut rng = SimRng::seed_from(seed);
        (0..n)
            .map(|i| {
                (
                    NodeId::new(i as u64),
                    Point::new(
                        rng.range_u64(0..1_000_000) as f64 / 1000.0,
                        rng.range_u64(0..1_000_000) as f64 / 1000.0,
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn parallel_build_matches_full_for_every_thread_count() {
        let nodes = layout(300, 7);
        let fresh = Topology::build(&nodes, 150.0);
        for threads in [1, 2, 3, 4, 8] {
            let par = Topology::build_parallel(&nodes, 150.0, threads);
            assert_eq!(par, fresh, "threads={threads}");
        }
    }

    #[test]
    fn incremental_matches_full_across_moves_joins_and_leaves() {
        // Small range vs the 1000-unit arena → enough rows that local
        // drift leaves most of them clean (realistic mobility moves a
        // node a fraction of the arena per topology quantum).
        let range = 60.0;
        let mut nodes = layout(200, 11);
        let mut inc = IncrementalTopology::new();
        let mut rng = SimRng::seed_from(99);
        for round in 0..12 {
            assert_eq!(
                inc.update(&nodes, range),
                Topology::build(&nodes, range),
                "round {round}"
            );
            // Drift a handful of nodes locally.
            for _ in 0..4 {
                let i = rng.range_u64(0..nodes.len() as u64) as usize;
                let p = nodes[i].1;
                let dx = rng.range_u64(0..40_000) as f64 / 1000.0 - 20.0;
                let dy = rng.range_u64(0..40_000) as f64 / 1000.0 - 20.0;
                nodes[i].1 =
                    Point::new((p.x + dx).clamp(0.0, 1000.0), (p.y + dy).clamp(0.0, 1000.0));
            }
            // Occasionally churn membership.
            if round % 3 == 0 && nodes.len() > 40 {
                let i = rng.range_u64(0..nodes.len() as u64) as usize;
                nodes.remove(i);
            }
            if round % 4 == 1 {
                let id = NodeId::new(1000 + round as u64);
                nodes.push((
                    id,
                    Point::new(500.0, rng.range_u64(0..1_000_000) as f64 / 1000.0),
                ));
                nodes.sort_unstable_by_key(|&(id, _)| id);
            }
        }
        let stats = inc.stats();
        assert!(stats.updates > 0, "dirty-strip path exercised: {stats:?}");
        assert!(
            stats.buckets_reused > 0,
            "clean buckets were reused: {stats:?}"
        );
    }

    #[test]
    fn incremental_survives_range_change_and_degenerate_input() {
        let nodes = layout(100, 3);
        let mut inc = IncrementalTopology::new();
        assert_eq!(inc.update(&nodes, 150.0), Topology::build(&nodes, 150.0));
        // Range change forces re-initialization, output still equal.
        assert_eq!(inc.update(&nodes, 80.0), Topology::build(&nodes, 80.0));
        // Small input falls back to the naive-backed fresh build.
        let small = &nodes[..8];
        assert_eq!(inc.update(small, 80.0), Topology::build(small, 80.0));
        // And recovers carried operation afterwards.
        assert_eq!(inc.update(&nodes, 80.0), Topology::build(&nodes, 80.0));
    }
}
