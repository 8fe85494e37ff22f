//! Differential tests: the spatial-grid topology engine against the
//! naive O(n²) oracle, and the memoized BFS queries against fresh
//! traversals.
//!
//! This is how NS-style simulators validate optimized connectivity
//! structures: the optimized engine must be *indistinguishable* from
//! the obviously-correct one — same link sets (inclusive range
//! boundary), same adjacency order, same hop metrics — across layouts
//! from sparse (range well under one grid cell of spacing) to dense
//! (range covering the whole arena in a few cells).

use manet_sim::faults::FaultPlan;
use manet_sim::mobility::MobilityState;
use manet_sim::topology::Topology;
use manet_sim::{
    Arena, IncrementalTopology, MobilityConfig, MsgCategory, Net, NodeId, Point, ProtocolCore,
    SendError, Sim, SimDuration, SimRng, SimTime, WireShadow, World, WorldConfig,
};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

fn random_layout(seed: u64, n: usize, area: f64) -> Vec<(NodeId, Point)> {
    let arena = Arena::new(area, area);
    let mut rng = SimRng::seed_from(seed);
    (0..n)
        .map(|i| (NodeId::new(i as u64), rng.point_in(&arena)))
        .collect()
}

/// Full structural equality between two builds of the same layout:
/// identical neighbor lists (content *and* order), link counts, and
/// membership.
fn assert_same_graph(grid: &Topology, naive: &Topology, nodes: &[(NodeId, Point)]) {
    assert_eq!(grid.len(), naive.len());
    assert_eq!(grid.link_count(), naive.link_count());
    for (id, _) in nodes {
        assert_eq!(
            grid.neighbors(*id),
            naive.neighbors(*id),
            "adjacency of {id:?} diverges"
        );
        assert_eq!(grid.neighbor_indices(*id), naive.neighbor_indices(*id));
    }
}

proptest! {
    /// Grid-built adjacency equals the naive all-pairs adjacency on
    /// random layouts across the whole sparse-to-dense spectrum.
    #[test]
    fn grid_adjacency_equals_naive_oracle(
        n in 0usize..120,
        range in 5.0f64..1500.0,
        seed in 0u64..1_000_000,
    ) {
        let nodes = random_layout(seed, n, 1000.0);
        let grid = Topology::build(&nodes, range);
        let naive = Topology::build_naive(&nodes, range);
        assert_same_graph(&grid, &naive, &nodes);
    }

    /// Memoized `distances_from` / `hops` / `within` / `components`
    /// agree with a fresh BFS on the naive oracle build, and repeating
    /// each query returns the same answer (the memo is read-only).
    #[test]
    fn memoized_queries_equal_fresh_bfs(
        n in 1usize..80,
        range in 50.0f64..800.0,
        seed in 0u64..1_000_000,
    ) {
        let nodes = random_layout(seed, n, 1000.0);
        let grid = Topology::build(&nodes, range);
        let sources: Vec<NodeId> = nodes.iter().map(|(id, _)| *id).take(8).collect();
        for &s in &sources {
            // Fresh oracle per query: a new naive build has an empty memo.
            let oracle = Topology::build_naive(&nodes, range);
            prop_assert_eq!(grid.distances_from(s), oracle.distances_from(s));
            prop_assert_eq!(grid.within(s, 2), oracle.within(s, 2));
            prop_assert_eq!(grid.component_of(s), oracle.component_of(s));
            for &t in &sources {
                prop_assert_eq!(grid.hops(s, t), oracle.hops(s, t));
            }
            // Second round hits the memo; answers must not move.
            prop_assert_eq!(grid.distances_from(s), oracle.distances_from(s));
            prop_assert_eq!(grid.component_of(s), oracle.component_of(s));
        }
        prop_assert_eq!(grid.components(), Topology::build_naive(&nodes, range).components());
        prop_assert_eq!(grid.components(), grid.components());
    }
}

// ---------------------------------------------------------------------
// The resumable memo vs. query order
// ---------------------------------------------------------------------

/// Hop distances from `src` by a plain queue BFS over `neighbors`: no
/// memo, no levels, no ordering — what every BFS-backed query must
/// agree with however far earlier queries advanced the traversal.
fn reference_distances(topo: &Topology, src: NodeId) -> HashMap<NodeId, u32> {
    let mut dist = HashMap::from([(src, 0)]);
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        for v in topo.neighbors(u) {
            if !dist.contains_key(&v) {
                dist.insert(v, dist[&u] + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// `within` as it was defined before the memo became resumable: filter
/// the full distance map, sort by `(distance, id)`.
fn reference_within(dist: &HashMap<NodeId, u32>, src: NodeId, k: u32) -> Vec<(NodeId, u32)> {
    let mut v: Vec<(NodeId, u32)> = dist
        .iter()
        .filter(|&(n, d)| *n != src && *d <= k)
        .map(|(n, d)| (*n, *d))
        .collect();
    v.sort_by_key(|&(n, d)| (d, n));
    v
}

/// `random_layout` with ids a random permutation of the dense order, so
/// "ids ascending within a level" is not an accident of index order.
fn permuted_layout(seed: u64, n: usize, area: f64) -> Vec<(NodeId, Point)> {
    let mut ids: Vec<u64> = (0..n as u64).collect();
    let mut rng = SimRng::seed_from(seed ^ 0x5eed);
    rng.shuffle(&mut ids);
    random_layout(seed, n, area)
        .into_iter()
        .zip(&ids)
        .map(|((_, p), &id)| (NodeId::new(id), p))
        .collect()
}

/// A 1000 m layout of `n` nodes, ids permuted or ascending.
fn layout(permute: bool, seed: u64, n: usize) -> Vec<(NodeId, Point)> {
    if permute {
        permuted_layout(seed, n, 1000.0)
    } else {
        random_layout(seed, n, 1000.0)
    }
}

proptest! {
    /// Any interleaving of `within(k)`, `hops` in both directions,
    /// `within_hops`, `nearest`, `component_id` and `distances_from`
    /// against ONE snapshot answers each question exactly like a fresh
    /// oracle snapshot asked only that question, and like the plain
    /// reference BFS (for labels: equal iff mutually reachable). Pair
    /// queries meet in the middle until a query from a source starts a
    /// traversal, and resume it after. Ids ascend (levels sort by plain
    /// index, as in every `World` snapshot) or are permuted (levels sort
    /// by id).
    #[test]
    fn query_order_never_changes_an_answer(
        n in 1usize..70,
        range in 40.0f64..500.0,
        seed in 0u64..1_000_000,
        permute in any::<bool>(),
        ops in proptest::collection::vec((0u8..7, 0usize..1000, 0usize..1000, any::<u64>()), 1..48),
    ) {
        let nodes = layout(permute, seed, n);
        let snapshot = Topology::build(&nodes, range);
        for (kind, a, b, mask) in ops {
            let (a, b) = (nodes[a % n].0, nodes[b % n].0);
            let fresh = Topology::build_naive(&nodes, range);
            let reference = reference_distances(&fresh, a);
            match kind {
                0 => {
                    let k = [0, 1, 2, 3, u32::MAX][b.index() as usize % 5];
                    let got = snapshot.within(a, k);
                    prop_assert_eq!(&got, &fresh.within(a, k));
                    prop_assert_eq!(got, reference_within(&reference, a, k));
                }
                1 | 2 => {
                    let (x, y) = if kind == 1 { (a, b) } else { (b, a) };
                    let got = snapshot.hops(x, y);
                    prop_assert_eq!(got, fresh.hops(x, y));
                    prop_assert_eq!(got, reference.get(&b).copied());
                }
                3 => {
                    let pred = |id: NodeId| mask >> (id.index() % 64) & 1 == 1;
                    let got = snapshot.nearest(a, pred);
                    prop_assert_eq!(got, fresh.nearest(a, pred));
                    let want = reference
                        .iter()
                        .filter(|&(id, _)| *id != a && pred(*id))
                        .map(|(id, d)| (*id, *d))
                        .min_by_key(|&(id, d)| (d, id));
                    prop_assert_eq!(got, want);
                }
                4 => {
                    // A label indexes `components()`, and two labels are
                    // equal exactly when the nodes reach each other.
                    let got = snapshot.component_id(a);
                    prop_assert_eq!(got, fresh.component_id(a));
                    let label = got.expect("a is in the snapshot");
                    prop_assert!(fresh.components()[label].contains(&a));
                    prop_assert_eq!(got == snapshot.component_id(b), reference.contains_key(&b));
                    prop_assert_eq!(snapshot.component_id(NodeId::new(n as u64)), None);
                }
                5 => {
                    let k = [0, 1, 2, 3, 5, u32::MAX][(mask % 6) as usize];
                    let got = snapshot.within_hops(a, b, k);
                    prop_assert_eq!(got, fresh.within_hops(a, b, k));
                    prop_assert_eq!(got, reference.get(&b).is_some_and(|&h| h <= k));
                }
                _ => {
                    let got = snapshot.distances_from(a);
                    prop_assert_eq!(&got, &fresh.distances_from(a));
                    prop_assert_eq!(got.into_iter().collect::<HashMap<_, _>>(), reference);
                }
            }
        }
    }
}

proptest! {
    /// `within_hops(a, b, k)` is the plain reference BFS's distance at
    /// most `k` — from a fresh snapshot and from one whose traversals
    /// earlier queries (any depth, either endpoint) left half done — for
    /// `a == b`, unreachable and unknown nodes alike, on ascending and
    /// on permuted ids.
    #[test]
    fn within_hops_is_hops_at_most_k(
        n in 1usize..70,
        range in 40.0f64..400.0,
        seed in 0u64..1_000_000,
        permute in any::<bool>(),
        ops in proptest::collection::vec((0u8..3, 0usize..1000, 0usize..1000, 0usize..6), 1..40),
    ) {
        let nodes = layout(permute, seed, n);
        let snapshot = Topology::build(&nodes, range);
        let fresh = Topology::build_naive(&nodes, range);
        // One id past the last is never in the snapshot.
        let id = |i: usize| NodeId::new((i % (n + 1)) as u64);
        for (kind, a, b, k) in ops {
            let (a, b, k) = (id(a), id(b), [0, 1, 2, 3, 5, u32::MAX][k]);
            let want = fresh.contains(a)
                && reference_distances(&fresh, a).get(&b).is_some_and(|&h| h <= k);
            prop_assert_eq!(fresh.hops(a, b).is_some_and(|h| h <= k), want);
            match kind {
                0 => prop_assert_eq!(snapshot.within_hops(a, b, k), want),
                1 => prop_assert_eq!(
                    Topology::build(&nodes, range).within_hops(a, b, k),
                    want
                ),
                // Leave traversals from either end at some depth.
                _ => {
                    let _ = snapshot.within(b, k.min(4));
                    let _ = snapshot.hops(a, b);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Incremental and parallel engines vs. the fresh build
// ---------------------------------------------------------------------

/// One random mutation of an (ascending-by-id) layout: a local drift,
/// a teleport, a crash (removal), or a join. Returns a label for
/// failure messages.
fn mutate_layout(
    nodes: &mut Vec<(NodeId, Point)>,
    next_id: &mut u64,
    rng: &mut SimRng,
    arena: &Arena,
) -> &'static str {
    let roll = rng.point_in(arena).x;
    if nodes.is_empty() || roll < arena.width() * 0.4 {
        // Join: fresh id strictly above every existing one.
        let p = rng.point_in(arena);
        nodes.push((NodeId::new(*next_id), p));
        *next_id += 1;
        "join"
    } else if roll < arena.width() * 0.55 {
        // Crash: drop one node, ascending order preserved.
        let idx = (rng.point_in(arena).y / arena.height() * nodes.len() as f64) as usize;
        nodes.remove(idx.min(nodes.len() - 1));
        "crash"
    } else if roll < arena.width() * 0.8 {
        // Local drift: a handful of nodes wander a few meters.
        for (i, (_, p)) in nodes.iter_mut().enumerate() {
            if i % 7 == 0 {
                let d = rng.point_in(arena);
                p.x = (p.x + d.x * 0.02 - arena.width() * 0.01).clamp(0.0, arena.width());
                p.y = (p.y + d.y * 0.02 - arena.height() * 0.01).clamp(0.0, arena.height());
            }
        }
        "drift"
    } else {
        // Teleport: one node jumps arena-wide.
        let idx = (rng.point_in(arena).y / arena.height() * nodes.len() as f64) as usize;
        let idx = idx.min(nodes.len() - 1);
        nodes[idx].1 = rng.point_in(arena);
        "teleport"
    }
}

proptest! {
    /// The dirty-strip incremental maintainer is indistinguishable from
    /// a fresh build across arbitrary interleavings of moves, joins,
    /// and crashes — the tentpole's correctness obligation.
    #[test]
    fn incremental_equals_fresh_across_mutations(
        n in 0usize..120,
        range in 20.0f64..400.0,
        seed in 0u64..1_000_000,
    ) {
        let arena = Arena::new(1000.0, 1000.0);
        let mut rng = SimRng::seed_from(seed);
        let mut nodes = random_layout(seed, n, 1000.0);
        let mut next_id = n as u64;
        let mut inc = IncrementalTopology::new();
        for round in 0..8 {
            let op = mutate_layout(&mut nodes, &mut next_id, &mut rng, &arena);
            let maintained = inc.update(&nodes, range);
            let fresh = Topology::build(&nodes, range);
            prop_assert!(
                maintained == fresh,
                "round {round} ({op}, n={}): incremental diverged from fresh",
                nodes.len()
            );
        }
    }

    /// A snapshot rebuilt in place through joins, crashes and moves is
    /// the fresh build of each layout, and the memo it refills carries
    /// nothing over: after answering queries for one layout, it answers
    /// the next layout's like a snapshot that never saw another. Sizes
    /// straddle the 32-node threshold, below which `rebuild` sweeps
    /// all-pairs (into the same storage) instead of by strips.
    #[test]
    fn rebuild_equals_fresh_across_mutations(
        n in 0usize..120,
        range in 20.0f64..400.0,
        seed in 0u64..1_000_000,
    ) {
        let arena = Arena::new(1000.0, 1000.0);
        let mut rng = SimRng::seed_from(seed);
        let mut nodes = random_layout(seed, n, 1000.0);
        let mut next_id = n as u64;
        let mut reused = Topology::build(&nodes, range);
        for round in 0..8 {
            let op = mutate_layout(&mut nodes, &mut next_id, &mut rng, &arena);
            reused.rebuild(&nodes, range);
            let fresh = Topology::build(&nodes, range);
            prop_assert!(
                reused == fresh,
                "round {round} ({op}, n={}): rebuilt snapshot is not the fresh one",
                nodes.len()
            );
            prop_assert_eq!(reused.components(), fresh.components());
            // Labels are the member lists' indices; crashed and
            // never-seen ids have none.
            for (label, members) in fresh.components().iter().enumerate() {
                for m in members {
                    prop_assert_eq!(reused.component_id(*m), Some(label));
                }
            }
            for id in (0..=next_id).map(NodeId::new) {
                let alive = nodes.binary_search_by_key(&id, |&(n, _)| n).is_ok();
                prop_assert_eq!(reused.component_id(id).is_some(), alive);
            }
            for (i, &(a, _)) in nodes.iter().enumerate().step_by(3) {
                let b = nodes[(i * 7 + round) % nodes.len()].0;
                let pred = |id: NodeId| id.index() % 5 == round as u64 % 5;
                prop_assert_eq!(reused.within(a, 2), fresh.within(a, 2));
                prop_assert_eq!(reused.hops(a, b), fresh.hops(a, b));
                prop_assert_eq!(reused.nearest(a, pred), fresh.nearest(a, pred));
            }
            prop_assert!(!reused.contains(NodeId::new(next_id)));
        }
    }

    /// The parallel builder equals the serial one for every thread
    /// count, including over-subscription past the row count.
    #[test]
    fn parallel_build_equals_serial(
        n in 0usize..150,
        range in 20.0f64..600.0,
        seed in 0u64..1_000_000,
        threads in 1usize..9,
    ) {
        let nodes = random_layout(seed, n, 1000.0);
        let serial = Topology::build(&nodes, range);
        let parallel = Topology::build_parallel(&nodes, range, threads);
        prop_assert!(parallel == serial, "threads={threads} diverged");
        assert_same_graph(&parallel, &Topology::build_naive(&nodes, range), &nodes);
    }
}

/// Degenerate layouts the proptest distributions rarely produce: every
/// node coincident, a collinear line along a row boundary, the sub-32
/// naive fallback, duplicate positions, and an empty world — for all
/// three engines at once.
#[test]
fn engines_agree_on_degenerate_layouts() {
    let layouts: Vec<(&str, Vec<(NodeId, Point)>)> = vec![
        ("empty", Vec::new()),
        ("single", vec![(NodeId::new(0), Point::new(3.0, 4.0))]),
        (
            "coincident",
            (0..64u32)
                .map(|i| (NodeId::new(u64::from(i)), Point::new(500.0, 500.0)))
                .collect(),
        ),
        (
            "collinear-on-row-boundary",
            (0..48u32)
                .map(|i| {
                    (
                        NodeId::new(u64::from(i)),
                        Point::new(f64::from(i) * 20.0, 150.0),
                    )
                })
                .collect(),
        ),
        (
            "sub-32-fallback",
            (0..20u32)
                .map(|i| {
                    (
                        NodeId::new(u64::from(i)),
                        Point::new(f64::from(i) * 77.0, f64::from(i) * 13.0),
                    )
                })
                .collect(),
        ),
        (
            "duplicate-positions",
            (0..40u32)
                .map(|i| {
                    (
                        NodeId::new(u64::from(i)),
                        Point::new(f64::from(i % 5) * 100.0, 200.0),
                    )
                })
                .collect(),
        ),
    ];
    for (label, nodes) in &layouts {
        for &range in &[0.5, 150.0, 2000.0] {
            let fresh = Topology::build(nodes, range);
            let naive = Topology::build_naive(nodes, range);
            assert_same_graph(&fresh, &naive, nodes);
            let mut inc = IncrementalTopology::new();
            // Twice: once cold, once warm (the warm path re-sweeps).
            assert!(inc.update(nodes, range) == fresh, "{label} r={range} cold");
            assert!(inc.update(nodes, range) == fresh, "{label} r={range} warm");
            for threads in [1, 4] {
                assert!(
                    Topology::build_parallel(nodes, range, threads) == fresh,
                    "{label} r={range} threads={threads}"
                );
            }
        }
    }
}

/// Deterministic sweep pinning the boundary regimes the proptest may
/// not hit every run: n up to 500 (the issue's ceiling), ranges from
/// far-below-cell-spacing to beyond the arena diagonal (complete
/// graph), plus n ∈ {0, 1}.
#[test]
fn grid_equals_naive_across_size_and_range_sweep() {
    for &n in &[0usize, 1, 2, 3, 10, 60, 200, 500] {
        for &range in &[5.0f64, 40.0, 150.0, 450.0, 1500.0] {
            let nodes = random_layout(n as u64 * 31 + 7, n, 1000.0);
            let grid = Topology::build(&nodes, range);
            let naive = Topology::build_naive(&nodes, range);
            assert_same_graph(&grid, &naive, &nodes);
            // Spot-check the BFS layer too, from a few sources.
            for (id, _) in nodes.iter().take(5) {
                assert_eq!(grid.distances_from(*id), naive.distances_from(*id));
                assert_eq!(grid.component_of(*id), naive.component_of(*id));
            }
            assert_eq!(grid.components(), naive.components());
        }
    }
}

/// The inclusive range boundary survives the grid engine: nodes at
/// exactly `range` apart link, a hair beyond do not — including pairs
/// that straddle a cell border.
#[test]
fn inclusive_boundary_across_cell_borders() {
    let range = 150.0;
    let cases = [
        (Point::new(0.0, 0.0), Point::new(150.0, 0.0), true),
        (Point::new(0.0, 0.0), Point::new(150.0 + 1e-9, 0.0), false),
        // Straddles the x = 150 cell border diagonally.
        (Point::new(149.0, 10.0), Point::new(239.0, 130.0), true), // dist = 150
        (Point::new(90.0, 120.0), Point::new(180.0, 0.0), true),   // dist = 150
        (Point::new(100.0, 100.0), Point::new(400.0, 100.0), false),
    ];
    for (i, &(a, b, linked)) in cases.iter().enumerate() {
        let nodes = [(NodeId::new(0), a), (NodeId::new(1), b)];
        for t in [
            Topology::build(&nodes, range),
            Topology::build_naive(&nodes, range),
        ] {
            assert_eq!(
                t.hops(NodeId::new(0), NodeId::new(1)) == Some(1),
                linked,
                "case {i}: {a} - {b}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Bit rows and CSR: one answer from either storage
// ---------------------------------------------------------------------

/// A storm shard's layout: the first node anywhere in a 1 km square,
/// every later one within 0.9 of the 150 m range of an earlier one.
fn storm_shard(seed: u64, n: usize) -> Vec<(NodeId, Point)> {
    let arena = Arena::new(1000.0, 1000.0);
    let mut rng = SimRng::seed_from(seed);
    let mut nodes: Vec<(NodeId, Point)> = Vec::with_capacity(n);
    for i in 0..n {
        let p = match nodes.len() {
            0 => rng.point_in(&arena),
            len => {
                let c = nodes[rng.range_u64(0..len as u64) as usize].1;
                let (r, theta) = (
                    rng.range_f64(0.0..135.0),
                    rng.range_f64(0.0..std::f64::consts::TAU),
                );
                arena.clamp(Point::new(c.x + r * theta.cos(), c.y + r * theta.sin()))
            }
        };
        nodes.push((NodeId::new(i as u64), p));
    }
    nodes
}

/// Every query of `topo` against a plain BFS over `naive`'s lists, from
/// a few sources.
fn assert_same_answers(topo: &Topology, naive: &Topology, nodes: &[(NodeId, Point)], what: &str) {
    assert_same_graph(topo, naive, nodes);
    for &(a, _) in nodes.iter().step_by(nodes.len() / 7 + 1) {
        let reference = reference_distances(naive, a);
        for k in [1, 2, 3, u32::MAX] {
            assert_eq!(
                topo.within(a, k),
                reference_within(&reference, a, k),
                "{what}"
            );
        }
        for &(b, _) in nodes.iter().step_by(nodes.len() / 5 + 1) {
            assert_eq!(topo.hops(a, b), reference.get(&b).copied(), "{what}");
        }
    }
    assert_eq!(topo.components(), naive.components(), "{what}");
}

/// Which storage the benchmark layouts take, and that each storage
/// answers like the all-pairs oracle: a storm shard and a city are
/// dense enough for bit rows, the 20 000-node probe layout keeps its
/// CSR (313 words a row against 28 links).
#[test]
fn both_storages_give_one_answer() {
    let shard = storm_shard(7, 128);
    let city = random_layout(11, 600, 40.0 * 600f64.sqrt());
    let probe = random_layout(13, 20_000, 50.0 * 20_000f64.sqrt());
    for (what, nodes, bits) in [("storm shard", &shard, true), ("city", &city, true)] {
        let topo = Topology::build(nodes, 150.0);
        let naive = Topology::build_naive(nodes, 150.0);
        assert_eq!(topo.rows_are_bits(), bits, "{what}");
        assert!(topo == naive, "{what}");
        assert_same_answers(&topo, &naive, nodes, what);
    }
    let topo = Topology::build(&probe, 150.0);
    assert!(!topo.rows_are_bits(), "the probe layout is sparse");
    // The same neighbourhoods, read through the CSR.
    let head = &probe[..2_000];
    let (topo, naive) = (
        Topology::build(head, 150.0),
        Topology::build_naive(head, 150.0),
    );
    assert!(!topo.rows_are_bits() && topo == naive);
    assert_same_answers(&topo, &naive, head, "probe head");
}

/// A snapshot spliced at dense indices on both sides of every word
/// boundary, the last one included, is the fresh build — in a world of
/// 129 nodes each removal also narrows the rows by a word and each
/// revival widens them back.
#[test]
fn bit_row_splices_at_word_boundaries_equal_a_fresh_build() {
    let ms = SimDuration::from_millis;
    for n in [128u64, 129] {
        let mut rng = SimRng::seed_from(n);
        let picks = [0, 63, 64, 127, n - 1];
        let mut plan = FaultPlan::default();
        for (i, &p) in picks.iter().enumerate() {
            let at = SimTime::ZERO + ms(100 + 200 * i as u64);
            plan = plan.with_crash(NodeId::new(p), at, Some(at + ms(100)));
        }
        let config = WorldConfig {
            speed: 0.0,
            fault_plan: plan,
            ..WorldConfig::default()
        };
        let mut sim = Sim::new(config, Inert);
        for _ in 0..n {
            let at = Point::new(rng.range_f64(0.0..400.0), rng.range_f64(0.0..400.0));
            sim.spawn_at(at);
        }
        assert!(sim.world_mut().topology().rows_are_bits());
        assert_world_matches_oracle(sim.world_mut(), "before the splices");
        for step in 0..=2 * picks.len() {
            sim.run_for(ms(100));
            let when = format!("n {n} step {step}");
            assert_world_matches_oracle(sim.world_mut(), &when);
            assert!(sim.world_mut().topology().rows_are_bits(), "{when}");
        }
        assert_eq!(sim.world().alive_count(), n as usize);
        assert_eq!(
            sim.world().snapshot_sweeps(),
            1,
            "n {n}: every change spliced"
        );
    }
}

/// Joins into one spot carry a sparse world across the rule into bit
/// rows, and leaves carry it back: after every splice the snapshot is
/// the fresh build of its layout, storage included.
#[test]
fn splices_carry_a_world_across_the_storage_rule() {
    let config = WorldConfig {
        speed: 0.0,
        range: 50.0,
        ..WorldConfig::default()
    };
    let mut sim = Sim::new(config, Inert);
    // Seventy nodes 100 m apart at a 50 m range: no links at all.
    for i in 0..70u32 {
        let at = Point::new(f64::from(i % 10) * 100.0, f64::from(i / 10) * 100.0);
        sim.spawn_at(at);
    }
    let check = |sim: &mut Sim<Inert>, when: &str| -> bool {
        let w = sim.world_mut();
        assert_world_matches_oracle(w, when);
        let positions: Vec<(NodeId, Point)> = w
            .alive_nodes()
            .into_iter()
            .map(|n| (n, w.snapshot_position(n).expect("alive")))
            .collect();
        let fresh = Topology::build(&positions, w.range());
        assert!(*w.topology() == fresh, "{when}");
        w.topology().rows_are_bits()
    };
    let mut seen = vec![check(&mut sim, "spread out")];
    let mut cluster = Vec::new();
    for i in 0..24u32 {
        let at = Point::new(950.0 + f64::from(i % 5), 950.0 + f64::from(i / 5));
        cluster.push(sim.spawn_at(at));
        seen.push(check(&mut sim, &format!("cluster join {i}")));
    }
    for (i, node) in cluster.into_iter().enumerate() {
        sim.world_mut().remove_node(node);
        seen.push(check(&mut sim, &format!("cluster leave {i}")));
    }
    assert_eq!(sim.world().snapshot_sweeps(), 1, "every change spliced");
    // CSR, then bits, then CSR again.
    let flips = seen.windows(2).filter(|w| w[0] != w[1]).count();
    assert_eq!((seen[0], flips, *seen.last().unwrap()), (false, 2, false));
}

// ---------------------------------------------------------------------
// World-level cache invalidation
// ---------------------------------------------------------------------

/// A protocol that does nothing — these tests drive the world directly.
struct Inert;
impl ProtocolCore for Inert {
    type Msg = ();
    fn on_join(&mut self, _w: &mut Net<'_, ()>, _node: NodeId) {}
    fn on_message(&mut self, _w: &mut Net<'_, ()>, _to: NodeId, _from: NodeId, _m: ()) {}
}

/// The oracle for "what should the world's topology be right now":
/// a naive build over the alive nodes at their current legs' positions
/// at the quantum's start.
fn oracle_of<M: Clone + std::fmt::Debug>(w: &mut World<M>) -> Topology {
    let positions: Vec<(NodeId, Point)> = w
        .alive_nodes()
        .into_iter()
        .map(|n| (n, w.snapshot_position(n).expect("alive")))
        .collect();
    Topology::build_naive(&positions, w.range())
}

fn assert_world_matches_oracle<M: Clone + std::fmt::Debug>(w: &mut World<M>, when: &str) {
    let oracle = oracle_of(w);
    for n in w.alive_nodes() {
        assert_eq!(
            w.neighbors(n),
            oracle.neighbors(n),
            "{when}: neighbors of {n:?}"
        );
        assert_eq!(
            w.component_of(n),
            oracle.component_of(n),
            "{when}: component of {n:?}"
        );
        // Dense indices too: the snapshot must be the canonical one,
        // not merely an isomorphic one.
        assert_eq!(
            w.topology().neighbor_indices(n),
            oracle.neighbor_indices(n),
            "{when}: neighbor indices of {n:?}"
        );
        assert_eq!(w.topology().index_of(n), oracle.index_of(n), "{when}");
        assert_eq!(
            w.component_id(n),
            oracle.component_id(n),
            "{when}: component label of {n:?}"
        );
    }
    let alive = w.alive_nodes();
    for (i, &a) in alive.iter().enumerate().step_by(5) {
        for k in [0, 1, 2, 3, u32::MAX] {
            assert_eq!(
                w.nodes_within(a, k),
                oracle.within(a, k),
                "{when}: within({a:?}, {k})"
            );
        }
        let pred = |n: NodeId| n.index() % 3 == i as u64 % 3;
        assert_eq!(
            w.nearest(a, pred),
            oracle.nearest(a, pred),
            "{when}: nearest from {a:?}"
        );
    }
    // Rows and storage too: a splice lands where a build of the same
    // alive set would.
    assert!(
        *w.topology() == oracle,
        "{when}: snapshot is not the fresh build"
    );
    let gone = NodeId::new(u64::MAX);
    assert_eq!(w.topology().index_of(gone), None, "{when}");
    assert_eq!(w.topology().len(), alive.len(), "{when}");
    for &a in alive.iter().take(6) {
        for &b in alive.iter().take(6) {
            assert_eq!(
                w.hops_between(a, b),
                oracle.hops(a, b),
                "{when}: {a:?}->{b:?}"
            );
        }
    }
    assert_eq!(w.components(), oracle.components(), "{when}: components");
}

/// Memoized world queries stay correct across every invalidation edge:
/// a node join, a mobility retarget, crossing the topology quantum, and
/// a node removal (crash). Each step re-checks against a fresh naive
/// oracle over the world's snapshot positions.
#[test]
fn world_cache_invalidates_on_membership_mobility_and_quantum() {
    let config = WorldConfig {
        speed: 20.0,
        topology_quantum: SimDuration::from_millis(100),
        ..WorldConfig::default()
    };
    let mut sim = Sim::new(config, Inert);
    let ids: Vec<NodeId> = (0..12)
        .map(|i| sim.spawn_at(Point::new(f64::from(i) * 90.0, 10.0)))
        .collect();
    sim.run_for(SimDuration::from_millis(10));
    assert_world_matches_oracle(sim.world_mut(), "after initial joins");

    // Warm the memo, then join a node mid-quantum: topo_version bumps,
    // the snapshot (and its BFS/component memos) must be dropped.
    let _ = sim.world_mut().components();
    let newcomer = sim.spawn_at(Point::new(500.0, 120.0));
    assert_world_matches_oracle(sim.world_mut(), "after join");
    assert!(
        !sim.world_mut().neighbors(newcomer).is_empty(),
        "newcomer at 500,120 is in range of the line"
    );

    // Mobility: mark nodes configured so they start moving, then cross
    // several quanta; the quantum bucket rotates and positions drift.
    for &n in &ids {
        sim.world_mut().mark_configured(n);
    }
    sim.run_for(SimDuration::from_millis(350));
    assert_world_matches_oracle(sim.world_mut(), "after mobility across quanta");

    // Crash (abrupt removal): the node must vanish from every query.
    let victim = ids[6];
    let _ = sim.world_mut().hops_between(ids[0], victim); // warm the memo
    sim.world_mut().remove_node(victim);
    assert!(!sim.world_mut().alive_nodes().contains(&victim));
    assert_eq!(sim.world_mut().neighbors(victim), vec![]);
    assert_world_matches_oracle(sim.world_mut(), "after crash");
}

// ---------------------------------------------------------------------
// A world where nobody moves: splices and re-keys vs. the oracle
// ---------------------------------------------------------------------

/// A shadow transport that carries nothing and keeps the path it was
/// given: the only way a test sees `Topology::route` through a `World`.
#[derive(Debug, Default, Clone)]
struct PathProbe(Arc<Mutex<Vec<NodeId>>>);

impl WireShadow<()> for PathProbe {
    fn carry(&mut self, path: &[NodeId], _category: MsgCategory, _msg: &()) {
        *self.0.lock().expect("no panic holds the probe") = path.to_vec();
    }
}

/// Unicasts among the first few alive nodes: the hop count charged and
/// the route the shadow is handed are a shortest path of the oracle.
fn assert_routes_match_oracle(w: &mut World<()>, probe: &PathProbe, when: &str) {
    let oracle = oracle_of(w);
    let alive = w.alive_nodes();
    for &a in alive.iter().take(4) {
        for &b in alive.iter().rev().take(4) {
            match w.unicast(a, b, MsgCategory::Hello, ()) {
                Ok(hops) => {
                    assert_eq!(Some(hops), oracle.hops(a, b), "{when}: {a:?}->{b:?}");
                    let path = probe.0.lock().expect("no panic holds the probe").clone();
                    assert_eq!(path.len() as u32, hops + 1, "{when}: route {path:?}");
                    assert_eq!((path[0], path[path.len() - 1]), (a, b), "{when}");
                    for hop in path.windows(2) {
                        assert!(
                            oracle.neighbors(hop[0]).contains(&hop[1]),
                            "{when}: {hop:?} is not a link"
                        );
                    }
                }
                Err(e) => {
                    assert_eq!(e, SendError::Unreachable, "{when}");
                    assert_eq!(oracle.hops(a, b), None, "{when}: {a:?}->{b:?}");
                }
            }
        }
    }
}

/// A point of the 75 m lattice over a 600 m square: few enough places
/// that nodes coincide, and spaced so that pairs sit at exactly 75 m
/// and exactly 150 m.
fn lattice_point(rng: &mut SimRng) -> Point {
    Point::new(
        75.0 * rng.range_u64(0..9) as f64,
        75.0 * rng.range_u64(0..9) as f64,
    )
}

proptest! {
    /// The tentpole's obligation. In a world where nobody moves the
    /// snapshot is refreshed by splicing joins and leaves into it and by
    /// re-keying it across quanta; after every operation every query —
    /// through the `World` — answers like `build_naive` over the alive
    /// set, dense indices included. Dormant nodes join in an order that
    /// is not id order, crashes and restarts come from a fault plan, and
    /// the alive count wanders across the 32-node strip threshold.
    #[test]
    fn static_world_refreshes_equal_the_oracle(
        seed in 0u64..1_000_000,
        range_pick in 0usize..8,
        initial in 24usize..40,
        dormant in 4usize..14,
        ops in proptest::collection::vec((0u8..10, 0usize..1000), 8..36),
    ) {
        let range = [150.0, 150.0, 150.0, 75.0, 106.0, 0.0, f64::NAN, f64::INFINITY][range_pick];
        let mut rng = SimRng::seed_from(seed);
        let ms = SimDuration::from_millis;
        let mut plan = FaultPlan::default();
        for _ in 0..4 {
            let node = NodeId::new(rng.range_u64(0..initial as u64));
            let at = SimTime::ZERO + ms(rng.range_u64(1..1500));
            let restart = rng.chance(0.7).then(|| at + ms(rng.range_u64(0..900)));
            plan = plan.with_crash(node, at, restart);
        }
        let config = WorldConfig {
            speed: 0.0,
            range,
            fault_plan: plan,
            ..WorldConfig::default()
        };
        let mut sim = Sim::new(config, Inert);
        let probe = PathProbe::default();
        sim.world_mut().set_wire_shadow(Box::new(probe.clone()));
        for _ in 0..initial {
            let at = lattice_point(&mut rng);
            sim.spawn_at(at);
        }
        // Dormant nodes whose arrival order is a shuffle of their ids.
        let mut slots: Vec<u64> = (0..dormant as u64).collect();
        rng.shuffle(&mut slots);
        for slot in slots {
            let at = lattice_point(&mut rng);
            sim.schedule_spawn_at(SimTime::ZERO + ms(13 + 97 * slot), at);
        }
        assert_world_matches_oracle(sim.world_mut(), "after the initial joins");
        for (step, (kind, pick)) in ops.into_iter().enumerate() {
            let alive = sim.world_mut().alive_nodes();
            let someone = (!alive.is_empty()).then(|| alive[pick % alive.len()]);
            match kind {
                0 => { sim.run_for(ms(0)); }
                1 => { sim.run_for(ms(40)); }
                2 => { sim.run_for(ms(100)); }
                3 => { sim.run_for(ms(350)); }
                4 => { sim.run_for(ms(1000)); }
                5 => if let Some(n) = someone { sim.world_mut().remove_node(n) },
                // Any slot, alive or not.
                6 => sim.world_mut().park_node(NodeId::new((pick % (initial + dormant)) as u64)),
                // A join cancelled by a leave before anyone looks.
                7 => {
                    let at = lattice_point(&mut rng);
                    let n = sim.spawn_at(at);
                    sim.world_mut().remove_node(n);
                }
                // Several changes between two queries.
                8 => {
                    let at = lattice_point(&mut rng);
                    sim.spawn_at(at);
                    if let Some(n) = someone { sim.world_mut().remove_node(n) }
                    let at = lattice_point(&mut rng);
                    sim.spawn_at(at);
                }
                _ => {
                    let at = lattice_point(&mut rng);
                    sim.spawn_at(at);
                }
            }
            let when = format!("seed {seed} range {range} step {step} (op {kind})");
            assert_world_matches_oracle(sim.world_mut(), &when);
            assert_routes_match_oracle(sim.world_mut(), &probe, &when);
        }
    }
}

// ---------------------------------------------------------------------
// A moving world: the snapshot at the quantum's start vs. the oracle
// ---------------------------------------------------------------------

/// A protocol whose traffic follows the topology it is shown: a joined
/// node ticks at uneven intervals, starts moving on its first tick, and
/// on every tick says hello to its one-hop neighbourhood and unicasts
/// to the nearest node of its own id parity. A snapshot that moved
/// under a query would move these deliveries.
struct Chatter;

impl ProtocolCore for Chatter {
    type Msg = ();
    fn on_join(&mut self, w: &mut Net<'_, ()>, node: NodeId) {
        w.set_timer(
            node,
            SimDuration::from_micros(1 + node.index() * 7_919 % 90_000),
            0,
        );
    }
    fn on_message(&mut self, _w: &mut Net<'_, ()>, _to: NodeId, _from: NodeId, _m: ()) {}
    fn on_timer(&mut self, w: &mut Net<'_, ()>, node: NodeId, _tag: u64) {
        w.mark_configured(node);
        let _ = w.broadcast_within(node, 1, MsgCategory::Hello, ());
        let parity = node.index() % 2;
        if let Some((to, _)) = w.nearest(node, &mut |n| n.index() % 2 == parity) {
            let _ = w.unicast(node, to, MsgCategory::Maintenance, ());
        }
        let next = w.rng_range_u64(20_000..180_000);
        w.set_timer(node, SimDuration::from_micros(next), 0);
    }
}

/// One moving world and what is done to it.
#[derive(Debug)]
struct Moving {
    seed: u64,
    config: WorldConfig,
    initial: usize,
    dormant: usize,
    /// `(kind, pick, microseconds)`.
    ops: Vec<(u8, usize, u64)>,
}

/// Runs the events due by `until`, asking for the topology after every
/// one of them when `eager`.
fn advance(sim: &mut Sim<Chatter>, until: SimTime, eager: bool) {
    while sim.step_until(until) {
        if eager {
            let _ = sim.world_mut().topology();
        }
    }
}

/// Spawns a node at a random point, counting it in `slots`.
fn spawn(sim: &mut Sim<Chatter>, rng: &mut SimRng, slots: &mut u64) -> NodeId {
    *slots += 1;
    let arena = sim.world().arena();
    sim.spawn_at(rng.point_in(&arena))
}

/// Plays `m`, checking every query and route against the oracle after
/// every op; returns the run's metrics and event log, rendered.
fn moving_run(m: &Moving, eager: bool) -> String {
    let mut rng = SimRng::seed_from(m.seed);
    let mut sim = Sim::new(m.config.clone(), Chatter);
    sim.world_mut().enable_trace(1 << 22);
    let probe = PathProbe::default();
    sim.world_mut().set_wire_shadow(Box::new(probe.clone()));
    let arena = sim.world().arena();
    // Node ids are dense: every slot ever created is below this.
    let mut slots = m.dormant as u64;
    for _ in 0..m.initial {
        spawn(&mut sim, &mut rng, &mut slots);
    }
    for i in 0..m.dormant as u64 {
        sim.schedule_spawn_at(
            SimTime::from_micros(7_000 + 211_000 * i),
            rng.point_in(&arena),
        );
    }
    let quantum = m.config.topology_quantum.as_micros().max(1);
    for (step, &(kind, pick, us)) in m.ops.iter().enumerate() {
        let now = sim.world().now();
        let next_quantum = SimTime::from_micros((now.as_micros() / quantum + 1) * quantum);
        let alive = sim.world().alive_nodes();
        let someone = (!alive.is_empty()).then(|| alive[pick % alive.len()]);
        match kind {
            // Mid-quantum instants, and quantum starts exactly.
            0..=2 => advance(&mut sim, now + SimDuration::from_micros(us), eager),
            3 => advance(&mut sim, next_quantum, eager),
            // Everyone stops at a quantum start nobody has asked about
            // yet, dead nodes included: the world stands still (until
            // a newcomer's first tick).
            4 => {
                advance(&mut sim, next_quantum, eager);
                for slot in 0..slots {
                    sim.world_mut().park_node(NodeId::new(slot));
                }
            }
            5 => {
                if let Some(n) = someone {
                    sim.world_mut().remove_node(n);
                }
            }
            // Any slot: moving, parked, dead or dormant.
            6 => sim
                .world_mut()
                .park_node(NodeId::new((pick % (m.initial + m.dormant)) as u64)),
            7 => {
                spawn(&mut sim, &mut rng, &mut slots);
            }
            // A join cancelled by a leave before anyone looks.
            8 => {
                let n = spawn(&mut sim, &mut rng, &mut slots);
                sim.world_mut().remove_node(n);
            }
            // Several changes between two queries.
            9 => {
                if let Some(n) = someone {
                    sim.world_mut().park_node(n);
                }
                spawn(&mut sim, &mut rng, &mut slots);
                if let Some(n) = someone {
                    sim.world_mut().remove_node(n);
                }
            }
            // More than a refresh splices.
            _ => {
                for _ in 0..20 {
                    spawn(&mut sim, &mut rng, &mut slots);
                }
            }
        }
        let when = format!("{m:?} eager {eager} step {step} (op {kind})");
        assert_world_matches_oracle(sim.world_mut(), &when);
        assert_routes_match_oracle(sim.world_mut(), &probe, &when);
    }
    let w = sim.world();
    format!("{}\n{}", w.metrics().to_json(), w.trace().to_jsonl())
}

proptest! {
    /// Item 1's proof. In a world whose nodes move (legs start, end at
    /// waypoints, are parked, crash and restart mid-quantum, nodes join
    /// and leave between any two instants) every snapshot answers every
    /// query like `build_naive` over the alive nodes at their positions
    /// at the quantum's start; and asking for the snapshot after every
    /// event as well changes nothing — the metrics and the event log are
    /// byte-identical to the run that asked only at the ops. Quanta of
    /// 100 ms, 37 ms and zero (a snapshot per instant).
    #[test]
    fn moving_world_refreshes_equal_the_oracle(
        seed in 0u64..1_000_000,
        speed_pick in 0usize..3,
        quantum_pick in 0usize..3,
        manhattan in any::<bool>(),
        range_pick in 0usize..2,
        initial in 12usize..30,
        dormant in 2usize..8,
        ops in proptest::collection::vec((0u8..11, 0usize..1000, 0u64..250_000), 6..24),
    ) {
        let mut rng = SimRng::seed_from(seed ^ 0xfa17);
        let ms = SimDuration::from_millis;
        let mut plan = FaultPlan::default();
        for _ in 0..3 {
            let node = NodeId::new(rng.range_u64(0..initial as u64));
            let at = SimTime::ZERO + ms(rng.range_u64(1..3000));
            let restart = rng.chance(0.7).then(|| at + ms(rng.range_u64(0..900)));
            plan = plan.with_crash(node, at, restart);
        }
        let mobility = if manhattan { "manhattan:50" } else { "random-waypoint" };
        let m = Moving {
            seed,
            config: WorldConfig {
                arena: Arena::new(400.0, 400.0),
                range: [150.0, 100.0][range_pick],
                speed: [5.0, 20.0, 80.0][speed_pick],
                mobility: MobilityConfig::parse(mobility).expect("a model"),
                topology_quantum: [ms(100), ms(37), ms(0)][quantum_pick],
                fault_plan: plan,
                seed,
                ..WorldConfig::default()
            },
            initial,
            dormant,
            ops,
        };
        let lazy = moving_run(&m, false);
        prop_assert!(lazy == moving_run(&m, true), "{m:?}: asking every event moved the run");
    }
}

/// A protocol that only moves: a node starts its first leg as it joins
/// and nothing is ever sent, so what happens to a world is its joins,
/// its waypoint arrivals, the fault plan's crashes and restarts and the
/// test's own ops.
struct Roamer;

impl ProtocolCore for Roamer {
    type Msg = ();
    fn on_join(&mut self, w: &mut Net<'_, ()>, node: NodeId) {
        w.mark_configured(node);
    }
    fn on_message(&mut self, _w: &mut Net<'_, ()>, _to: NodeId, _from: NodeId, _m: ()) {}
}

/// Runs the events due by `until`, checking the world against the
/// oracle after every one of them.
fn advance_checked(sim: &mut Sim<Roamer>, until: SimTime, when: &str) {
    let mut event = 0;
    while sim.step_until(until) {
        event += 1;
        assert_world_matches_oracle(sim.world_mut(), &format!("{when} event {event}"));
    }
}

proptest! {
    /// The carry's proof, where it runs. Worlds of 32 to 160 nodes —
    /// above the strip engine's floor, so the snapshot is swept with a
    /// skin and carried from quantum to quantum — move at 5, 20 and
    /// 80 m/s by random waypoint, a 50 m Manhattan grid or groups of
    /// four, with quanta of 100 ms, 37 ms and zero. Nodes join, leave,
    /// crash and restart and are parked between any two instants, and
    /// after every event and every op every query answers like
    /// `build_naive` over the alive nodes at their positions at the
    /// quantum's start. The sparsest arena keeps bit rows from forming,
    /// so the sweep without a skin is held to the same. A dense world
    /// that ends with 32 nodes or more must have carried.
    #[test]
    fn carried_world_refreshes_equal_the_oracle(
        seed in 0u64..1_000_000,
        speed_pick in 0usize..3,
        quantum_pick in 0usize..3,
        mobility_pick in 0usize..3,
        side_pick in 0usize..3,
        initial in 32usize..160,
        ops in proptest::collection::vec((0u8..8, 0usize..1000, 0u64..400_000), 4..16),
    ) {
        let mut rng = SimRng::seed_from(seed ^ 0xca77);
        let ms = SimDuration::from_millis;
        let mut plan = FaultPlan::default();
        for _ in 0..3 {
            let node = NodeId::new(rng.range_u64(0..initial as u64));
            let at = SimTime::ZERO + ms(rng.range_u64(1..1500));
            let restart = rng.chance(0.7).then(|| at + ms(rng.range_u64(0..900)));
            plan = plan.with_crash(node, at, restart);
        }
        let mobility = ["random-waypoint", "manhattan:50", "group:4,50"][mobility_pick];
        let side = [400.0, 700.0, 1400.0][side_pick];
        let config = WorldConfig {
            arena: Arena::new(side, side),
            speed: [5.0, 20.0, 80.0][speed_pick],
            mobility: MobilityConfig::parse(mobility).expect("a model"),
            topology_quantum: [ms(100), ms(37), ms(0)][quantum_pick],
            fault_plan: plan,
            seed,
            ..WorldConfig::default()
        };
        let quantum = config.topology_quantum.as_micros().max(1);
        let mut sim = Sim::new(config, Roamer);
        let arena = sim.world().arena();
        for _ in 0..initial {
            sim.spawn_at(rng.point_in(&arena));
        }
        let mut slots = initial as u64;
        let case = format!("seed {seed} {mobility} side {side} speed {speed_pick} quantum {quantum_pick}");
        assert_world_matches_oracle(sim.world_mut(), &format!("{case}: the initial joins"));
        for (step, &(kind, pick, us)) in ops.iter().enumerate() {
            let when = format!("{case} step {step} (op {kind})");
            let now = sim.world().now();
            let next_quantum = SimTime::from_micros((now.as_micros() / quantum + 1) * quantum);
            let alive = sim.world().alive_nodes();
            let someone = (!alive.is_empty()).then(|| alive[pick % alive.len()]);
            match kind {
                0..=2 => advance_checked(&mut sim, now + SimDuration::from_micros(us), &when),
                3 => advance_checked(&mut sim, next_quantum, &when),
                4 => if let Some(n) = someone { sim.world_mut().remove_node(n) },
                // Any slot: moving, parked, dead or dormant.
                5 => sim.world_mut().park_node(NodeId::new(pick as u64 % slots)),
                6 => {
                    sim.spawn_at(rng.point_in(&arena));
                    slots += 1;
                }
                // Several changes between two queries.
                _ => {
                    if let Some(n) = someone {
                        sim.world_mut().park_node(n);
                    }
                    sim.spawn_at(rng.point_in(&arena));
                    slots += 1;
                    if let Some(n) = someone {
                        sim.world_mut().remove_node(n);
                    }
                }
            }
            assert_world_matches_oracle(sim.world_mut(), &when);
        }
        // Two more quanta, looked at on each.
        for q in 0..2 {
            let now = sim.world().now().as_micros();
            let next = SimTime::from_micros((now / quantum + 1) * quantum);
            advance_checked(&mut sim, next, &format!("{case} quantum {q}"));
            assert_world_matches_oracle(sim.world_mut(), &format!("{case} quantum {q}"));
        }
        let w = sim.world();
        if side_pick == 0 && w.alive_count() >= 32 {
            prop_assert!(w.snapshot_carries() > 0, "{case}: no carry");
        }
    }
}

/// What a static world pays: one sweep, whatever joins, leaves, parks
/// and quanta follow; only more changes at once than a refresh splices
/// cost another.
#[test]
fn static_world_sweeps_once_then_splices_and_rekeys() {
    let config = WorldConfig {
        speed: 0.0,
        ..WorldConfig::default()
    };
    let mut sim = Sim::new(config, Inert);
    let mut rng = SimRng::seed_from(11);
    let mut ids = Vec::new();
    for _ in 0..48 {
        let at = lattice_point(&mut rng);
        ids.push(sim.spawn_at(at));
        let _ = sim.world_mut().components();
    }
    assert_eq!(sim.world().snapshot_sweeps(), 1, "47 joins spliced");
    for _ in 0..5 {
        sim.run_for(SimDuration::from_millis(130));
        let _ = sim.world_mut().hops_between(ids[0], ids[47]);
    }
    sim.world_mut().remove_node(ids[20]);
    assert_world_matches_oracle(sim.world_mut(), "after quanta and a leave");
    assert_eq!(sim.world().snapshot_sweeps(), 1, "re-keyed and spliced");
    let builds = sim.world().metrics().perf().topo_builds;
    assert_eq!(builds, 1 + 47 + 5 + 1, "every refresh is still counted");

    // A park writes a mobility state, but a node standing still stays
    // where the snapshot has it: not even a refresh.
    sim.world_mut().park_node(ids[3]);
    assert_world_matches_oracle(sim.world_mut(), "after a park");
    assert_eq!(sim.world().metrics().perf().topo_builds, builds);
    let at = lattice_point(&mut rng);
    sim.spawn_at(at);
    sim.run_for(SimDuration::from_millis(250));
    assert_world_matches_oracle(sim.world_mut(), "after a park and a join");
    assert_eq!(sim.world().snapshot_sweeps(), 1);

    // More changes at once than a refresh will splice: one sweep.
    for _ in 0..40 {
        let at = lattice_point(&mut rng);
        sim.spawn_at(at);
    }
    assert_world_matches_oracle(sim.world_mut(), "after a burst of joins");
    assert_eq!(sim.world().snapshot_sweeps(), 2);
}

/// `(topo_builds, snapshot_sweeps)` of a run so far.
fn refreshes<P: ProtocolCore>(sim: &Sim<P>) -> (u64, u64) {
    let w = sim.world();
    (w.metrics().perf().topo_builds, w.snapshot_sweeps())
}

/// What a moving world pays: at most one sweep per quantum while nodes
/// are en route, whatever joins, leaves, leg starts and waypoint
/// arrivals happen inside it — those are spliced. Every node moves from
/// the first query on, legs are short (a 300 m arena), and the queries
/// fall mid-quantum.
#[test]
fn moving_world_sweeps_once_per_quantum() {
    let config = WorldConfig {
        arena: Arena::new(300.0, 300.0),
        speed: 20.0,
        ..WorldConfig::default()
    };
    let quantum = config.topology_quantum.as_micros();
    let mut sim = Sim::new(config, Inert);
    let mut rng = SimRng::seed_from(5);
    let arena = sim.world().arena();
    let mut ids: Vec<NodeId> = (0..40)
        .map(|_| sim.spawn_at(rng.point_in(&arena)))
        .collect();
    for &n in &ids {
        sim.world_mut().mark_configured(n);
    }
    let (builds0, sweeps0) = refreshes(&sim);
    let first = sim.world().now().as_micros() / quantum;
    for round in 0..90 {
        sim.run_for(SimDuration::from_micros(23_000));
        if round % 7 == 0 {
            let n = sim.spawn_at(rng.point_in(&arena));
            sim.world_mut().mark_configured(n);
            ids.push(n);
        }
        if round % 11 == 0 {
            sim.world_mut().remove_node(ids[round / 11 + 1]);
        }
        let _ = sim.world_mut().hops_between(ids[0], ids[round % ids.len()]);
        let _ = sim.world_mut().components();
    }
    assert_world_matches_oracle(sim.world_mut(), "after 2 s en route");
    let quanta = sim.world().now().as_micros() / quantum - first + 1;
    let (builds, sweeps) = refreshes(&sim);
    assert!(
        sweeps - sweeps0 <= quanta,
        "{} sweeps in {quanta} quanta",
        sweeps - sweeps0
    );
    assert!(
        builds - builds0 > sweeps - sweeps0 + 10,
        "joins, leaves and arrivals inside a quantum are spliced: {} refreshes, {} sweeps",
        builds - builds0,
        sweeps - sweeps0
    );
}

/// Within one quantum with no membership or mobility change, repeated
/// queries are served from the same snapshot and agree with themselves.
#[test]
fn world_queries_stable_within_a_quantum() {
    let mut sim = Sim::new(WorldConfig::default(), Inert);
    for i in 0..10 {
        sim.spawn_at(Point::new(f64::from(i) * 100.0, 0.0));
    }
    let w = sim.world_mut();
    let first: Vec<_> = (0..10).map(|i| w.nodes_within(NodeId::new(i), 3)).collect();
    let comps = w.components();
    for _ in 0..3 {
        for i in 0..10 {
            assert_eq!(w.nodes_within(NodeId::new(i), 3), first[i as usize]);
        }
        assert_eq!(w.components(), comps);
    }
}

/// Parked-vs-moving: parking a node mid-quantum moves it in the
/// snapshot — from where its leg had it at the quantum's start to where
/// it stopped — though the bucket is unchanged.
#[test]
fn world_cache_invalidates_on_park() {
    let config = WorldConfig {
        speed: 20.0,
        ..WorldConfig::default()
    };
    let mut sim = Sim::new(config, Inert);
    let ids: Vec<NodeId> = (0..8)
        .map(|i| sim.spawn_at(Point::new(f64::from(i) * 110.0, 0.0)))
        .collect();
    for &n in &ids {
        sim.world_mut().mark_configured(n);
    }
    sim.run_for(SimDuration::from_millis(2_050));
    let _ = sim.world_mut().components();
    let before = sim.world().snapshot_position(ids[3]);
    sim.world_mut().park_node(ids[3]);
    assert_ne!(sim.world().snapshot_position(ids[3]), before);
    assert_world_matches_oracle(sim.world_mut(), "after park");
}

/// The mobility model actually moves nodes between quanta (guards the
/// "after mobility" leg above against a silently static world).
#[test]
fn mobility_moves_configured_nodes() {
    let arena = Arena::default();
    let mut rng = SimRng::seed_from(3);
    let mut m = MobilityState::parked(Point::new(500.0, 500.0));
    m.retarget(manet_sim::SimTime::ZERO, &arena, 20.0, &mut rng);
    let later = manet_sim::SimTime::ZERO + SimDuration::from_secs(5);
    let p = m.position(later);
    assert!(
        p.distance(Point::new(500.0, 500.0)) > 1.0,
        "node moved: {p}"
    );
}
