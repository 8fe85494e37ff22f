//! `storm_static` and `city_mobile`: lists of QBAC scenarios, one
//! `harness::run_scenario` call per unit.
//!
//! They use the same layers in opposite ways. A storm shard is 128
//! static nodes: ≈600 events per join, nearly all one-hop hello
//! deliveries, with a tiny topology rebuilt only when a node joins — the
//! event loop, delivery fan-out and QBAC's timer handler do the work. A
//! city world is 600 nodes at 20 m/s: every 100 ms quantum rebuilds the
//! whole snapshot and every hello pays a BFS over it — mobility advance,
//! strip sweep, CSR assembly and the BFS memo carry it. A win for one
//! that taxes the other shows.

use super::{mix, ms_since, Rep, Traced, Workload};
use crate::spans::{SpanId, SpanLog};
use crate::timed::{Timed, KIND_SPANS};
use harness::artifact::fnv1a;
use harness::{run_scenario, Scenario};
use proto_io::Metrics;
use qbac_core::{ProtocolConfig, Qbac};
use std::time::Instant;

/// Generated inputs of a scenario-list workload.
#[derive(Debug, Clone)]
pub struct ScenarioInputs {
    /// The timed units.
    pub units: Vec<Scenario>,
    /// The warm-up slice (not timed, not in the digest).
    pub warm: Vec<Scenario>,
}

/// A unit whose network never formed is a failed operation: fewer than
/// half of its joins configured.
fn unit_failed(s: &Scenario, m: &Metrics) -> bool {
    m.configured_nodes() * 2 < s.nn as u64
}

/// QBAC with the stock parameters, as every scenario unit runs it.
#[must_use]
pub fn fresh() -> Qbac {
    Qbac::new(ProtocolConfig::default())
}

fn rep(inputs: &ScenarioInputs) -> Rep {
    let mut behaviour = String::new();
    let mut unit_ms = Vec::with_capacity(inputs.units.len());
    let mut failed = 0;
    for s in &inputs.units {
        let start = Instant::now();
        let report = run_scenario(s, fresh());
        unit_ms.push(ms_since(start));
        failed += u64::from(unit_failed(s, report.metrics()));
        behaviour.push_str(&report.metrics().to_json());
    }
    Rep {
        digest: fnv1a(behaviour.as_bytes()),
        unit_ms,
        attempted: inputs.units.len() as u64,
        failed,
    }
}

fn traced(reps: &[ScenarioInputs], log: &mut SpanLog, root: SpanId) -> Traced {
    let mut out = Traced::default();
    let mut unit_no = 0;
    for inputs in reps {
        let mut behaviour = String::new();
        for s in &inputs.units {
            let unit = log.open("unit", Some(root), unit_no);
            unit_no += 1;
            let report = run_scenario(s, Timed::new(fresh()));
            log.close(unit);
            let busy = report.protocol().busy();
            for (k, name) in KIND_SPANS.iter().enumerate() {
                log.aggregate(name, unit, busy.ns[k], busy.calls[k]);
            }
            out.quorum_busy.merge(&busy);
            out.metrics.merge(report.metrics());
            out.spawned += s.nn as u64;
            behaviour.push_str(&report.metrics().to_json());
        }
        out.digests.push(fnv1a(behaviour.as_bytes()));
    }
    out
}

fn warm_up(inputs: &ScenarioInputs) {
    for s in &inputs.warm {
        std::hint::black_box(run_scenario(s, fresh()).metrics().configured_nodes());
    }
}

/// One static join-storm shard: the `repro scale` shard shape.
#[must_use]
pub fn shard(nn: usize, seed: u64) -> Scenario {
    Scenario::builder()
        .nn(nn)
        .speed_mps(0.0)
        .arrival_gap_ms(100)
        .settle_secs(5)
        .connected_arrivals(true)
        .seed(seed)
        .build()
        .expect("shard scenario is in-domain")
}

/// One mobile world in a constant-density arena (side 40·√n, mean degree
/// ≈44). Arrivals are placed uniformly: anchoring each arrival to the
/// existing network packs a clump whose density — and so the event count
/// — swings ±20% with the seed, which no bound could hold.
fn city(nn: usize, seed: u64) -> Scenario {
    Scenario::builder()
        .nn(nn)
        .speed_mps(20.0)
        .area_m(40.0 * (nn as f64).sqrt())
        .arrival_gap_ms(20)
        .settle_secs(15)
        .connected_arrivals(false)
        .seed(seed)
        .build()
        .expect("city scenario is in-domain")
}

/// 48 independent static QBAC shards of 128 nodes (6,144 joins) a rep.
pub struct StormStatic;

impl Workload for StormStatic {
    type Inputs = ScenarioInputs;
    const NAME: &'static str = "storm_static";

    fn generate(seed: u64, rep: u64, smoke: bool) -> ScenarioInputs {
        let (units, warm) = if smoke { (4, 1) } else { (48, 4) };
        ScenarioInputs {
            units: (0..units)
                .map(|i| shard(128, mix(seed, rep * units + i)))
                .collect(),
            warm: (0..warm).map(|i| shard(128, mix(!seed, i))).collect(),
        }
    }

    fn warm_up(inputs: &ScenarioInputs) {
        warm_up(inputs);
    }

    fn rep(inputs: &ScenarioInputs) -> Rep {
        rep(inputs)
    }

    fn traced(reps: &[ScenarioInputs], log: &mut SpanLog, root: SpanId) -> Traced {
        traced(reps, log, root)
    }
}

/// Two QBAC worlds of 600 random-waypoint nodes at 20 m/s a rep.
pub struct CityMobile;

impl Workload for CityMobile {
    type Inputs = ScenarioInputs;
    const NAME: &'static str = "city_mobile";
    /// The mobile city rebuilds at full size every quantum.
    const REBUILD_PROBE: &'static str = "manet-sim.topology.build_us_n600";

    fn generate(seed: u64, rep: u64, smoke: bool) -> ScenarioInputs {
        let (units, nn, warm_nn) = if smoke { (1, 150, 60) } else { (2, 600, 150) };
        ScenarioInputs {
            units: (0..units)
                .map(|i| city(nn, mix(seed, rep * units + i)))
                .collect(),
            warm: vec![city(warm_nn, mix(!seed, 0))],
        }
    }

    fn warm_up(inputs: &ScenarioInputs) {
        warm_up(inputs);
    }

    fn rep(inputs: &ScenarioInputs) -> Rep {
        rep(inputs)
    }

    fn traced(reps: &[ScenarioInputs], log: &mut SpanLog, root: SpanId) -> Traced {
        traced(reps, log, root)
    }
}
