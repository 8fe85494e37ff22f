//! `mesh_udp`: the transcript-equivalence matrix over the UDP mesh,
//! through `harness::mesh_equiv_suite`.
//!
//! Eight suites a rep, each three wire-codec protocols × two schedules × both
//! backends at nn = 20, every delivery of the mesh leg relayed hop by hop
//! as a datagram between per-node socket threads. The only workload that
//! pays the wire codec, the transcript recorder, the datagram hop and the
//! lockstep thread hand-off — and the only one with more than one busy
//! thread. The datagrams cross the host's loopback interface, not a
//! link: the numbers say nothing about a network.
//!
//! The runner keeps the workload on one CPU ([`Workload::ONE_CORE`]). On
//! the reference box (two virtual CPUs) a suite costs 0.15 s when the
//! socket threads share a core and 0.5 s when the host spreads them:
//! every lockstep hand-off then waits on the host to wake the other
//! virtual CPU, a cost that swings 20% from run to run with the host's
//! other tenants and that nothing in this repository can change.

use super::{mix, ms_since, Rep, Traced, Workload};
use crate::spans::{SpanId, SpanLog};
use crate::timed::{Busy, Timed, KIND_SPANS};
use harness::artifact::fnv1a;
use harness::{mesh_equiv_suite, run_scenario_with, Scenario};
use manet_sim::{FaultPlan, ProtocolCore};
use proto_io::{Metrics, WireMsg};
use std::time::Instant;
use transport_mesh::{MeshShadow, MeshStats};

/// Generated inputs: one suite seed per unit.
#[derive(Debug, Clone)]
pub struct MeshInputs {
    /// Suite seeds, one `mesh_equiv_suite` call each.
    pub seeds: Vec<u64>,
    /// Whether to run the quick (2 × 2, nn = 12) matrix.
    pub quick: bool,
}

/// The equivalence matrix over localhost UDP.
pub struct MeshUdp;

/// What one cell's behaviour is: both transcripts' fingerprints. The
/// datagram counters stay out — retries depend on host timing.
fn behaviour(protocol: &str, schedule: &str, records: usize, sim: &str, mesh: &str) -> String {
    format!("{protocol}/{schedule}:{records}:{sim}:{mesh}\n")
}

/// One cell of `mesh_equiv_suite`'s matrix.
struct Cell {
    protocol: &'static str,
    schedule: &'static str,
    scenario: Scenario,
}

/// `harness::mesh_equiv`'s private matrix and scenario shape.
fn cells(quick: bool, seed: u64) -> Vec<Cell> {
    let storm = conformance::chaos_schedules()
        .into_iter()
        .find(|s| s.name == "storm")
        .expect("storm schedule is pinned");
    let squat = conformance::attack_canaries()
        .into_iter()
        .find(|c| c.name == "squat")
        .expect("squat canary is pinned");
    let protocols: &[&'static str] = if quick {
        &["quorum", "quorum-hardened"]
    } else {
        &["quorum", "quorum-hardened", "dad"]
    };
    let scenario = |world_seed: u64, plan: FaultPlan| {
        Scenario::builder()
            .nn(if quick { 12 } else { 20 })
            .settle_secs(5)
            .depart_fraction(0.25)
            .abrupt_ratio(0.5)
            .depart_window_secs(6)
            .cooldown_secs(6)
            .seed(world_seed)
            .fault_plan(plan)
            .build()
            .expect("equivalence scenarios are in-domain")
    };
    let mut cells = Vec::new();
    for &protocol in protocols {
        cells.push(Cell {
            protocol,
            schedule: "storm",
            scenario: scenario(storm.world_seed ^ seed, storm.plan.clone()),
        });
        cells.push(Cell {
            protocol,
            schedule: "attack-squat",
            scenario: scenario(squat.world_seed ^ seed, squat.plan()),
        });
    }
    cells
}

/// What the mirrored drive of one cell saw.
struct Legs {
    records: usize,
    sim_fingerprint: String,
    mesh_fingerprint: String,
    stats: MeshStats,
    metrics: Metrics,
    sim_busy: Busy,
    mesh_busy: Busy,
}

/// `harness::mesh_equiv::run_both` on the public `run_scenario_with` +
/// [`MeshShadow`], with the protocol wrapped in [`Timed`] and a span per
/// leg.
fn mirror_both<P>(
    scenario: &Scenario,
    fresh: impl Fn() -> P,
    log: &mut SpanLog,
    unit: SpanId,
) -> (Legs, SpanId, SpanId)
where
    P: ProtocolCore,
    P::Msg: WireMsg + Send + 'static,
{
    let unit_id = log.spans()[unit].unit;
    let sim_leg = log.open("sim_leg", Some(unit), unit_id);
    let mut sim_report = run_scenario_with(scenario, Timed::new(fresh()), |sim| {
        sim.world_mut().enable_transcript();
    });
    log.close(sim_leg);
    let sim_side = sim_report
        .sim_mut()
        .world_mut()
        .take_transcript()
        .expect("transcript enabled");

    let mesh_leg = log.open("mesh_leg", Some(unit), unit_id);
    let shadow = MeshShadow::<P::Msg>::new();
    let stats = shadow.stats_handle();
    let mut mesh_report = run_scenario_with(scenario, Timed::new(fresh()), |sim| {
        sim.world_mut().enable_transcript();
        sim.world_mut().set_wire_shadow(Box::new(shadow));
    });
    log.close(mesh_leg);
    let mesh_side = mesh_report
        .sim_mut()
        .world_mut()
        .take_transcript()
        .expect("transcript enabled");
    let legs = Legs {
        records: sim_side.len(),
        sim_fingerprint: sim_side.fingerprint(),
        mesh_fingerprint: mesh_side.fingerprint(),
        stats: stats.snapshot(),
        metrics: sim_report.metrics().clone(),
        sim_busy: sim_report.protocol().busy(),
        mesh_busy: mesh_report.protocol().busy(),
    };
    (legs, sim_leg, mesh_leg)
}

fn mirror_cell(cell: &Cell, log: &mut SpanLog, unit: SpanId) -> (Legs, SpanId, SpanId) {
    use qbac_core::{ProtocolConfig, Qbac};
    match cell.protocol {
        "quorum" => mirror_both(
            &cell.scenario,
            || Qbac::new(ProtocolConfig::default()),
            log,
            unit,
        ),
        "quorum-hardened" => mirror_both(
            &cell.scenario,
            || {
                Qbac::new(ProtocolConfig {
                    harden: true,
                    ..ProtocolConfig::default()
                })
            },
            log,
            unit,
        ),
        "dad" => mirror_both(&cell.scenario, baselines::dad::QueryDad::default, log, unit),
        other => unreachable!("no wire codec registered for {other}"),
    }
}

impl Workload for MeshUdp {
    type Inputs = MeshInputs;
    const NAME: &'static str = "mesh_udp";
    const CAVEAT: &'static str = "mesh datagrams cross the host's loopback interface, not a link";
    const ONE_CORE: bool = true;

    fn generate(seed: u64, rep: u64, smoke: bool) -> MeshInputs {
        let suites = if smoke { 1 } else { 8 };
        MeshInputs {
            seeds: (0..suites).map(|i| mix(seed, rep * suites + i)).collect(),
            quick: smoke,
        }
    }

    /// Warms the simulator leg, over two suites' cells; the datagram
    /// leg's sockets and threads are made afresh by every cell, so there
    /// is nothing of it to keep warm.
    fn warm_up(inputs: &MeshInputs) {
        for seed in [!inputs.seeds[0], !inputs.seeds[0] >> 1] {
            for cell in cells(inputs.quick, seed) {
                let report = run_scenario_with(
                    &cell.scenario,
                    qbac_core::Qbac::new(qbac_core::ProtocolConfig::default()),
                    |sim| sim.world_mut().enable_transcript(),
                );
                std::hint::black_box(report.metrics().configured_nodes());
            }
        }
    }

    fn rep(inputs: &MeshInputs) -> Rep {
        let mut text = String::new();
        let mut unit_ms = Vec::with_capacity(inputs.seeds.len());
        let (mut attempted, mut failed) = (0, 0);
        for &seed in &inputs.seeds {
            let start = Instant::now();
            let suite = mesh_equiv_suite(inputs.quick, seed);
            unit_ms.push(ms_since(start));
            for c in &suite {
                attempted += 1;
                failed += u64::from(!c.ok());
                text.push_str(&behaviour(
                    c.protocol,
                    c.schedule,
                    c.records,
                    &c.sim_fingerprint,
                    &c.mesh_fingerprint,
                ));
            }
        }
        Rep {
            digest: fnv1a(text.as_bytes()),
            unit_ms,
            attempted,
            failed,
        }
    }

    fn traced(reps: &[MeshInputs], log: &mut SpanLog, root: SpanId) -> Traced {
        let mut out = Traced::default();
        let mut stats = MeshStats::default();
        let mut unit_no = 0;
        for inputs in reps {
            let mut text = String::new();
            for &seed in &inputs.seeds {
                for cell in cells(inputs.quick, seed) {
                    let unit = log.open("unit", Some(root), unit_no);
                    unit_no += 1;
                    let (legs, sim_leg, mesh_leg) = mirror_cell(&cell, log, unit);
                    log.close(unit);
                    for (k, name) in KIND_SPANS.iter().enumerate() {
                        log.aggregate(name, sim_leg, legs.sim_busy.ns[k], legs.sim_busy.calls[k]);
                        log.aggregate(
                            name,
                            mesh_leg,
                            legs.mesh_busy.ns[k],
                            legs.mesh_busy.calls[k],
                        );
                    }
                    if cell.protocol.starts_with("quorum") {
                        out.quorum_busy.merge(&legs.sim_busy);
                    }
                    stats.datagrams += legs.stats.datagrams;
                    stats.retries += legs.stats.retries;
                    stats.filtered += legs.stats.filtered;
                    out.metrics.merge(&legs.metrics);
                    out.spawned += cell.scenario.nn as u64;
                    text.push_str(&behaviour(
                        cell.protocol,
                        cell.schedule,
                        legs.records,
                        &legs.sim_fingerprint,
                        &legs.mesh_fingerprint,
                    ));
                }
            }
            out.digests.push(fnv1a(text.as_bytes()));
        }
        let per_rep = reps.len() as f64;
        let (sim_s, mesh_s) = (log.total_s("sim_leg"), log.total_s("mesh_leg"));
        out.layer
            .insert("transport-mesh.datagrams", stats.datagrams as f64 / per_rep);
        out.layer
            .insert("transport-mesh.retries", stats.retries as f64 / per_rep);
        out.layer
            .insert("transport-mesh.filtered", stats.filtered as f64 / per_rep);
        if stats.datagrams > 0 && sim_s > 0.0 {
            out.layer.insert(
                "transport-mesh.us_per_datagram",
                (mesh_s - sim_s) * 1e6 / stats.datagrams as f64,
            );
            out.layer
                .insert("transport-mesh.slowdown_x", mesh_s / sim_s);
        }
        out
    }
}
