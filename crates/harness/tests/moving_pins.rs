//! Moving worlds above the strip engine's 32-node floor, pinned.
//!
//! The quick sweep grid, the mesh cells and the chaos suite are either
//! static or smaller than 32 nodes, so none of them runs the strip
//! sweep — nor the carry that refreshes its snapshot across quanta —
//! while nodes move. Each case here runs a QBAC scenario of 150 moving
//! nodes and pins the FNV-1a of its `Metrics::to_json`, which holds
//! every hop count, message tally and the `topo_builds` / `topo_hits`
//! counters. A change to how the snapshot is refreshed must leave every
//! pin where it is.

use harness::artifact::fnv1a;
use harness::{run_scenario, Scenario};
use manet_sim::MobilityConfig;
use qbac_core::{ProtocolConfig, Qbac};

/// The benchmark's city shape — uniform arrivals 20 ms apart over a
/// constant-density arena of side 40·√n, 20 m/s — at `nn` nodes.
fn city(nn: usize, settle_secs: u64, seed: u64) -> Scenario {
    Scenario::builder()
        .nn(nn)
        .speed_mps(20.0)
        .area_m(40.0 * (nn as f64).sqrt())
        .arrival_gap_ms(20)
        .settle_secs(settle_secs)
        .connected_arrivals(false)
        .seed(seed)
        .build()
        .expect("city scenario is in-domain")
}

/// A 150-node city run for six seconds after its last arrival, with
/// `mobility` and `loss`.
fn small_city(mobility: &str, loss: f64, seed: u64) -> Scenario {
    Scenario {
        mobility: MobilityConfig::parse(mobility).expect("a mobility model"),
        loss_rate: loss,
        ..city(150, 6, seed)
    }
}

fn digest(s: &Scenario) -> String {
    let report = run_scenario(s, Qbac::new(ProtocolConfig::default()));
    let w = report.world();
    assert!(w.snapshot_sweeps() > 0, "the world built a snapshot");
    assert!(w.snapshot_carries() > 0, "and carried it across quanta");
    format!("{:016x}", fnv1a(report.metrics().to_json().as_bytes()))
}

#[test]
fn a_random_waypoint_city_is_pinned() {
    let s = small_city("random-waypoint", 0.0, 71);
    assert_eq!(digest(&s), "d7fc84f04606e33d");
}

#[test]
fn a_manhattan_city_is_pinned() {
    let s = small_city("manhattan:100", 0.0, 72);
    assert_eq!(digest(&s), "07143669922a838d");
}

#[test]
fn a_group_city_is_pinned() {
    let s = small_city("group:4,50", 0.0, 73);
    assert_eq!(digest(&s), "28b01181182cbe40");
}

/// With a loss rate every recipient takes the per-recipient path.
#[test]
fn a_lossy_city_is_pinned() {
    let s = small_city("random-waypoint", 0.1, 74);
    assert_eq!(digest(&s), "0e9de5f082021dbd");
}

/// The benchmark's 600-node city, whole: a moving world sweeps on at most
/// a third of its quanta — the rest carry the snapshot across — while
/// its refresh and cache-hit counters, which every metrics record
/// holds, stay at their literals: how a refresh is done must not show.
#[test]
fn the_benchmark_city_sweeps_on_a_third_of_its_quanta_at_most() {
    let s = city(600, 15, 0x5eed);
    let report = run_scenario(&s, Qbac::new(ProtocolConfig::default()));
    let w = report.world();
    let quanta = w.now().as_micros() / w.config().topology_quantum.as_micros();
    let perf = report.metrics().perf();
    assert!(
        w.snapshot_sweeps() * 3 <= quanta,
        "{} sweeps in {quanta} quanta",
        w.snapshot_sweeps()
    );
    assert_eq!((perf.topo_builds, perf.topo_hits), (1_090, 56_406));
}
