//! The mesh-backend equivalence runner behind `repro mesh`.
//!
//! Runs canned schedules end-to-end on both transports — backend #1,
//! the pure discrete-event simulator, and backend #2, the UDP mesh
//! where every delivery crosses localhost sockets as wire-encoded
//! datagrams relayed hop-by-hop — and demands byte-identical protocol
//! transcripts. The mesh leg runs on the calling thread like the
//! simulator leg: one `MeshShadow` owns a socket per node and moves one
//! datagram at a time, so a cell is two sequential runs and nothing here
//! depends on the scheduler. This is the CLI face of the acceptance
//! suite in `tests/transcript_equiv.rs`: same differential, run on the
//! pinned conformance schedules (the §IV storm plus an attack canary)
//! so CI and humans get a one-line verdict per cell and a minimized
//! first-divergence report on failure. Cells name their protocol from
//! the registry's [`MESH`] set; [`conformance::for_protocol!`] picks the
//! type, whose adapter's `fresh()` builds both legs.

use crate::scenario::{run_scenario_with, Scenario};
use conformance::registry::MESH;
use conformance::ConformanceAdapter;
use manet_sim::{EventLog, FaultPlan};
use transport_mesh::{MeshShadow, MeshStats};

/// One protocol × schedule equivalence run.
#[derive(Debug)]
pub struct EquivCell {
    /// Registry name of the protocol.
    pub protocol: &'static str,
    /// Name of the schedule (fault plan).
    pub schedule: &'static str,
    /// Records in the (simulator-side) transcript.
    pub records: usize,
    /// Simulator-side transcript fingerprint.
    pub sim_fingerprint: String,
    /// Mesh-side transcript fingerprint.
    pub mesh_fingerprint: String,
    /// Datagram counters from the mesh run.
    pub stats: MeshStats,
    /// Rendered first-divergence report, when the transcripts differ.
    pub diff: Option<String>,
}

impl EquivCell {
    /// Whether the two backends agreed byte-for-byte.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.diff.is_none() && self.sim_fingerprint == self.mesh_fingerprint
    }

    /// The one-line report for this cell.
    #[must_use]
    pub fn line(&self) -> String {
        let verdict = if self.ok() { "OK" } else { "DIVERGED" };
        format!(
            "mesh-equiv {}/{}: {} records, sim {} mesh {} — {} \
             (datagrams {}, filtered {}, retries {})",
            self.protocol,
            self.schedule,
            self.records,
            self.sim_fingerprint,
            self.mesh_fingerprint,
            verdict,
            self.stats.datagrams,
            self.stats.filtered,
            self.stats.retries,
        )
    }
}

/// A named schedule for the equivalence matrix.
struct Cell {
    protocol: &'static str,
    schedule: &'static str,
    seed: u64,
    plan: FaultPlan,
}

fn scenario_for(cell: &Cell, quick: bool) -> Scenario {
    Scenario::builder()
        .nn(if quick { 12 } else { 20 })
        .settle_secs(5)
        .depart_fraction(0.25)
        .abrupt_ratio(0.5)
        .depart_window_secs(6)
        .cooldown_secs(6)
        .seed(cell.seed)
        .fault_plan(cell.plan.clone())
        .build()
        .expect("equivalence scenarios are in-domain")
}

fn run_both<P>(scenario: &Scenario) -> (EventLog, EventLog, MeshStats)
where
    P: ConformanceAdapter,
    P::Msg: 'static,
{
    let mut sim_report = run_scenario_with(scenario, P::fresh(), |sim| {
        sim.world_mut().enable_transcript();
    });
    let sim_side = sim_report
        .sim_mut()
        .world_mut()
        .take_transcript()
        .expect("transcript enabled");

    let shadow = MeshShadow::<P::Msg>::new();
    let stats = shadow.stats_handle();
    let mut mesh_report = run_scenario_with(scenario, P::fresh(), |sim| {
        sim.world_mut().enable_transcript();
        sim.world_mut().set_wire_shadow(Box::new(shadow));
    });
    let mesh_side = mesh_report
        .sim_mut()
        .world_mut()
        .take_transcript()
        .expect("transcript enabled");
    (sim_side, mesh_side, stats.snapshot())
}

fn run_cell(cell: &Cell, quick: bool) -> EquivCell {
    let scenario = scenario_for(cell, quick);
    let (sim_side, mesh_side, stats) =
        conformance::for_protocol!(MESH: cell.protocol, P => run_both::<P>(&scenario))
            .unwrap_or_else(|| panic!("{} is not registered", cell.protocol));
    // No diff means byte-identical renderings, so one fingerprint is
    // both sides'.
    let diff = sim_side.diff(&mesh_side);
    let sim_fingerprint = sim_side.fingerprint();
    let mesh_fingerprint = match diff {
        None => sim_fingerprint.clone(),
        Some(_) => mesh_side.fingerprint(),
    };
    EquivCell {
        protocol: cell.protocol,
        schedule: cell.schedule,
        records: sim_side.len(),
        sim_fingerprint,
        mesh_fingerprint,
        stats,
        diff,
    }
}

/// The equivalence matrix: wire-codec protocols × pinned schedules.
///
/// `quick` (tier-1's smoke) runs 2 × 2 — QBAC open and hardened under the
/// storm schedule and the squat attack canary; the full matrix (CI's
/// `equivalence-smoke`) adds the stateless-DAD baseline. `seed` perturbs
/// the arrival schedule on top of each plan's pinned world seed, so
/// sweeping it covers fresh interleavings without unpinning the canaries.
#[must_use]
pub fn mesh_equiv_suite(quick: bool, seed: u64) -> Vec<EquivCell> {
    let storm = conformance::registry::chaos_schedules()
        .into_iter()
        .find(|s| s.name == "storm")
        .expect("storm schedule is pinned");
    let squat = conformance::attacks::attack_canaries()
        .into_iter()
        .find(|c| c.name == "squat")
        .expect("squat canary is pinned");
    let protocols: &[&str] = if quick { &MESH[..2] } else { &MESH };
    let mut cells = Vec::new();
    for &protocol in protocols {
        cells.push(Cell {
            protocol,
            schedule: "storm",
            seed: storm.world_seed ^ seed,
            plan: storm.plan.clone(),
        });
        cells.push(Cell {
            protocol,
            schedule: "attack-squat",
            seed: squat.world_seed ^ seed,
            plan: squat.plan(),
        });
    }
    cells.iter().map(|c| run_cell(c, quick)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick matrix is exactly tier-1's smoke: both QBAC variants,
    /// both schedules, every cell equivalent and every mesh run moving
    /// real datagrams.
    #[test]
    fn quick_matrix_is_equivalent_and_nonvacuous() {
        let cells = mesh_equiv_suite(true, 0);
        assert_eq!(cells.len(), 4);
        for cell in &cells {
            assert!(
                cell.ok(),
                "{}\n{}",
                cell.line(),
                cell.diff.as_deref().unwrap_or("")
            );
            assert!(cell.records > 0, "{}: empty transcript", cell.line());
            assert!(
                cell.stats.datagrams > 0,
                "{}: mesh run moved no datagrams",
                cell.line()
            );
        }
    }
}
