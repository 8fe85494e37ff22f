//! A distance-vector routing substrate (RIP-style).
//!
//! The autoconfiguration paper — like most MANET work — assumes a
//! routing protocol underneath ("most routing protocols assume that
//! mobile nodes are configured with a unique identifier *before* routing
//! can be initiated", §I). The simulator's delivery engine uses an
//! oracle (BFS over the instantaneous topology); this module provides
//! the *distributed* view: per-node routing tables built by iterative
//! neighbor exchange, so experiments can quantify how far a real routing
//! layer lags the oracle under mobility.
//!
//! The implementation is deliberately classic: Bellman-Ford relaxation
//! with split horizon and a RIP-style infinity bound to cut
//! count-to-infinity.

use crate::topology::Topology;
use crate::NodeId;
use proto_io::{IdMap, IdSet};

/// Hop-count metric treated as unreachable (RIP uses 16).
pub const INFINITY: u32 = 16;

/// One node's routing table: destination → (next hop, metric).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingTable {
    entries: IdMap<NodeId, (NodeId, u32)>,
}

impl RoutingTable {
    /// The next hop toward `dst`, if a live route exists.
    #[must_use]
    pub fn next_hop(&self, dst: NodeId) -> Option<NodeId> {
        self.entries
            .get(&dst)
            .filter(|(_, m)| *m < INFINITY)
            .map(|(n, _)| *n)
    }

    /// The metric toward `dst` ([`INFINITY`] when unknown/unreachable).
    #[must_use]
    pub fn metric(&self, dst: NodeId) -> u32 {
        self.entries
            .get(&dst)
            .map_or(INFINITY, |(_, m)| (*m).min(INFINITY))
    }

    /// Number of live routes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.values().filter(|(_, m)| *m < INFINITY).count()
    }

    /// Returns `true` if no live route exists.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The distributed routing state of every node, advanced in synchronous
/// exchange rounds.
///
/// # Example
///
/// ```
/// use manet_sim::routing::RoutingMesh;
/// use manet_sim::topology::Topology;
/// use manet_sim::{NodeId, Point};
///
/// let topo = Topology::build(
///     &[
///         (NodeId::new(0), Point::new(0.0, 0.0)),
///         (NodeId::new(1), Point::new(100.0, 0.0)),
///         (NodeId::new(2), Point::new(200.0, 0.0)),
///     ],
///     150.0,
/// );
/// let mut mesh = RoutingMesh::new();
/// let rounds = mesh.converge(&topo, 32);
/// assert!(rounds <= 3);
/// assert_eq!(mesh.table(NodeId::new(0)).unwrap().metric(NodeId::new(2)), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoutingMesh {
    tables: IdMap<NodeId, RoutingTable>,
}

impl RoutingMesh {
    /// Creates an empty mesh; tables are created lazily per node.
    #[must_use]
    pub fn new() -> Self {
        RoutingMesh::default()
    }

    /// A node's table, if it has participated in an exchange.
    #[must_use]
    pub fn table(&self, node: NodeId) -> Option<&RoutingTable> {
        self.tables.get(&node)
    }

    /// Runs one synchronous exchange round over the given topology:
    /// every node advertises its vector to its current neighbors and
    /// relaxes its own table (split horizon: a route is not advertised
    /// back to the neighbor it goes through). Returns `true` if any
    /// table changed.
    pub fn step(&mut self, topo: &Topology) -> bool {
        // Snapshot the tables so the round is synchronous.
        let before = self.tables.clone();
        let mut changed = false;

        let nodes: Vec<NodeId> = topo_nodes(topo);
        for &u in &nodes {
            // One allocation-free adjacency lookup per node; both passes
            // below iterate the same borrowed slice (the old code called
            // `topo.neighbors(u)` twice, materializing two `Vec<NodeId>`
            // per node per round).
            let ui = topo.index_of(u).expect("topo_nodes only yields members");
            let neigh = topo.neighbor_indices_at(ui);
            let mut next = RoutingTable::default();
            // Direct neighbors.
            for &vi in neigh {
                let v = topo.node_at(vi as usize);
                next.entries.insert(v, (v, 1));
            }
            next.entries.insert(u, (u, 0));
            // Advertised vectors from neighbors.
            for &vi in neigh {
                let v = topo.node_at(vi as usize);
                let Some(vt) = before.get(&v) else { continue };
                for (dst, (via, m)) in &vt.entries {
                    if *dst == u {
                        continue;
                    }
                    // Split horizon: ignore routes that go back through us.
                    if *via == u {
                        continue;
                    }
                    let cand = m.saturating_add(1).min(INFINITY);
                    let cur = next.metric(*dst);
                    if cand < cur {
                        next.entries.insert(*dst, (v, cand));
                    }
                }
            }
            if before.get(&u) != Some(&next) {
                changed = true;
            }
            self.tables.insert(u, next);
        }
        // Nodes that vanished from the topology lose their tables.
        let alive: IdSet<NodeId> = nodes.into_iter().collect();
        let before_len = self.tables.len();
        self.tables.retain(|n, _| alive.contains(n));
        changed || self.tables.len() != before_len
    }

    /// Steps until quiescent or `max_rounds`; returns rounds taken.
    pub fn converge(&mut self, topo: &Topology, max_rounds: u32) -> u32 {
        for round in 1..=max_rounds {
            if !self.step(topo) {
                return round;
            }
        }
        max_rounds
    }

    /// Fraction of (src, dst) pairs whose table metric matches the BFS
    /// oracle — 1.0 when fully converged on the current topology. Pairs
    /// the oracle deems unreachable count as matching when the table
    /// agrees (metric ≥ [`INFINITY`]).
    #[must_use]
    pub fn agreement_with(&self, topo: &Topology) -> f64 {
        let nodes = topo_nodes(topo);
        if nodes.len() < 2 {
            return 1.0;
        }
        let mut total = 0u64;
        let mut agree = 0u64;
        for &src in &nodes {
            let oracle = topo.distances_from(src);
            let table = self.tables.get(&src);
            for &dst in &nodes {
                if src == dst {
                    continue;
                }
                total += 1;
                let truth = oracle.get(&dst).copied().unwrap_or(INFINITY);
                let ours = table.map_or(INFINITY, |t| t.metric(dst));
                let truth = truth.min(INFINITY);
                if truth == ours {
                    agree += 1;
                }
            }
        }
        agree as f64 / total as f64
    }
}

fn topo_nodes(topo: &Topology) -> Vec<NodeId> {
    topo.components().into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Arena, Point, SimRng};

    fn line(n: u64, spacing: f64) -> Topology {
        let nodes: Vec<(NodeId, Point)> = (0..n)
            .map(|i| (NodeId::new(i), Point::new(i as f64 * spacing, 0.0)))
            .collect();
        Topology::build(&nodes, 150.0)
    }

    #[test]
    fn converges_to_bfs_on_a_line() {
        let topo = line(6, 100.0);
        let mut mesh = RoutingMesh::new();
        let rounds = mesh.converge(&topo, 32);
        // Pinned to the value the pre-grid engine produced: the
        // neighbor-slice rewrite must not change exchange dynamics.
        assert_eq!(rounds, 6, "line of 6 converged in 6 rounds on main");
        assert!((mesh.agreement_with(&topo) - 1.0).abs() < 1e-12);
        // End-to-end route goes through the right next hop.
        let t0 = mesh.table(NodeId::new(0)).unwrap();
        assert_eq!(t0.metric(NodeId::new(5)), 5);
        assert_eq!(t0.next_hop(NodeId::new(5)), Some(NodeId::new(1)));
    }

    #[test]
    fn converges_on_random_layouts() {
        let arena = Arena::default();
        let mut rng = SimRng::seed_from(8);
        let nodes: Vec<(NodeId, Point)> = (0..40)
            .map(|i| (NodeId::new(i), rng.point_in(&arena)))
            .collect();
        let topo = Topology::build(&nodes, 200.0);
        let mut mesh = RoutingMesh::new();
        let rounds = mesh.converge(&topo, 64);
        // Pinned to the pre-grid engine's count (see the line test).
        assert_eq!(rounds, 7, "40-node layout converged in 7 rounds on main");
        assert!(
            (mesh.agreement_with(&topo) - 1.0).abs() < 1e-12,
            "fully converged tables must match the oracle"
        );
    }

    #[test]
    fn step_matches_tables_built_from_materialized_neighbors() {
        // The allocation-free neighbor-slice path must produce the same
        // tables (same next hops, same metrics) as iterating the
        // `Vec<NodeId>` form of the adjacency, on both engine builds.
        let arena = Arena::default();
        let mut rng = SimRng::seed_from(21);
        let nodes: Vec<(NodeId, Point)> = (0..30)
            .map(|i| (NodeId::new(i), rng.point_in(&arena)))
            .collect();
        let grid = Topology::build(&nodes, 180.0);
        let naive = Topology::build_naive(&nodes, 180.0);
        let mut mesh_g = RoutingMesh::new();
        let mut mesh_n = RoutingMesh::new();
        let rounds_g = mesh_g.converge(&grid, 64);
        let rounds_n = mesh_n.converge(&naive, 64);
        assert_eq!(rounds_g, rounds_n, "round counts must match across engines");
        for (id, _) in &nodes {
            assert_eq!(mesh_g.table(*id), mesh_n.table(*id), "table of {id}");
        }
    }

    #[test]
    fn topology_change_makes_tables_stale_until_reconverged() {
        let topo = line(5, 100.0);
        let mut mesh = RoutingMesh::new();
        mesh.converge(&topo, 32);

        // Break the line in the middle.
        let nodes: Vec<(NodeId, Point)> = vec![
            (NodeId::new(0), Point::new(0.0, 0.0)),
            (NodeId::new(1), Point::new(100.0, 0.0)),
            // node 2 jumped far away
            (NodeId::new(2), Point::new(900.0, 900.0)),
            (NodeId::new(3), Point::new(300.0, 0.0)),
            (NodeId::new(4), Point::new(400.0, 0.0)),
        ];
        let broken = Topology::build(&nodes, 150.0);
        let stale = mesh.agreement_with(&broken);
        assert!(stale < 1.0, "tables must be stale right after the change");
        mesh.converge(&broken, 64);
        assert!(
            (mesh.agreement_with(&broken) - 1.0).abs() < 1e-12,
            "reconvergence restores agreement"
        );
    }

    #[test]
    fn unreachable_destinations_are_infinity() {
        let nodes = vec![
            (NodeId::new(0), Point::new(0.0, 0.0)),
            (NodeId::new(1), Point::new(900.0, 900.0)),
        ];
        let topo = Topology::build(&nodes, 150.0);
        let mut mesh = RoutingMesh::new();
        mesh.converge(&topo, 16);
        let t = mesh.table(NodeId::new(0)).unwrap();
        assert_eq!(t.metric(NodeId::new(1)), INFINITY);
        assert_eq!(t.next_hop(NodeId::new(1)), None);
    }

    #[test]
    fn departed_nodes_lose_their_tables() {
        let topo = line(4, 100.0);
        let mut mesh = RoutingMesh::new();
        mesh.converge(&topo, 16);
        assert!(mesh.table(NodeId::new(3)).is_some());
        // Node 3 leaves.
        let topo2 = line(3, 100.0);
        mesh.converge(&topo2, 16);
        assert!(mesh.table(NodeId::new(3)).is_none());
        // Remaining routes to it expire to infinity.
        let t0 = mesh.table(NodeId::new(0)).unwrap();
        assert_eq!(t0.metric(NodeId::new(3)), INFINITY);
    }

    #[test]
    fn empty_and_singleton_meshes_are_trivially_consistent() {
        let mut mesh = RoutingMesh::new();
        let empty = Topology::build(&[], 150.0);
        assert!(!mesh.step(&empty));
        assert_eq!(mesh.agreement_with(&empty), 1.0);

        let one = Topology::build(&[(NodeId::new(0), Point::new(0.0, 0.0))], 150.0);
        mesh.converge(&one, 4);
        assert_eq!(mesh.agreement_with(&one), 1.0);
        // A singleton's table exists; it has no peers to route to.
        assert!(mesh.table(NodeId::new(0)).is_some());
    }
}
