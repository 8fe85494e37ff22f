//! Figure 4: an example randomly generated network layout (100 nodes,
//! 1 km × 1 km). We report the structural statistics of such layouts and
//! print a coarse ASCII map of one instance.

use super::RunTable;
use crate::scenario::parallel_rounds;
use crate::stats::mean;
use crate::Table;
use manet_sim::topology::Topology;
use manet_sim::{Arena, NodeId, Point, SimRng};

/// Generates one uniform layout.
fn layout(seed: u64, nn: usize, area: f64) -> Vec<(NodeId, Point)> {
    let arena = Arena::new(area, area);
    let mut rng = SimRng::seed_from(seed);
    (0..nn)
        .map(|i| (NodeId::new(i as u64), rng.point_in(&arena)))
        .collect()
}

/// Runs the Figure 4 driver.
#[must_use]
pub fn fig04(runs: &mut RunTable) -> Vec<Table> {
    let opts = runs.opts();
    let nn = if opts.quick { 50 } else { 100 };
    let area = 1000.0;
    let tr = 150.0;

    let rows = parallel_rounds(opts.rounds.max(1), opts.seed, |seed| {
        let nodes = layout(seed, nn, area);
        let topo = Topology::build(&nodes, tr);
        let comps = topo.components();
        let degrees: Vec<f64> = nodes
            .iter()
            .map(|(n, _)| topo.neighbor_indices(*n).len() as f64)
            .collect();
        let largest = comps.iter().map(Vec::len).max().unwrap_or(0);
        (
            comps.len() as f64,
            largest as f64 / nn as f64,
            mean(&degrees),
            topo.link_count() as f64,
        )
    });

    let mut t = Table::new(
        format!("Fig. 4 — random layout statistics ({nn} nodes, {area:.0} m², tr={tr:.0} m)"),
        "metric",
        vec!["mean".into()],
    );
    t.push_row(
        "components",
        vec![mean(&rows.iter().map(|r| r.0).collect::<Vec<_>>())],
    );
    t.push_row(
        "largest component fraction",
        vec![mean(&rows.iter().map(|r| r.1).collect::<Vec<_>>())],
    );
    t.push_row(
        "mean degree",
        vec![mean(&rows.iter().map(|r| r.2).collect::<Vec<_>>())],
    );
    t.push_row(
        "links",
        vec![mean(&rows.iter().map(|r| r.3).collect::<Vec<_>>())],
    );

    // ASCII map of the first seed's instance.
    let nodes = layout(opts.seed, nn, area);
    let mut grid = [[b'.'; 40]; 20];
    for (_, p) in &nodes {
        let col = ((p.x / area) * 39.0) as usize;
        let row = ((p.y / area) * 19.0) as usize;
        grid[row][col] = b'o';
    }
    for row in grid {
        t.note(String::from_utf8_lossy(&row).into_owned());
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::FigOpts;

    #[test]
    fn produces_stats_and_map() {
        let opts = FigOpts {
            rounds: 2,
            quick: true,
            seed: 3,
        };
        let tables = fig04(&mut RunTable::new(opts));
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.notes.len(), 20, "20 map rows");
        // 50 nodes at tr=150 in 1 km² are mostly connected.
        let largest_frac = t.rows[1].1[0];
        assert!(largest_frac > 0.3, "layout not degenerate: {largest_frac}");
    }
}
