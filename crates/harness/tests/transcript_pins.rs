//! Pins on the event log's two renderings, recorded at the commit
//! before `Trace` and `Transcript` became one `EventLog`.
//!
//! `transcript_equiv` only asks that the simulator and the mesh agree
//! with each other; these ask that both still say what they said. The
//! cells are `repro mesh` and `repro mesh --quick` at the default seed,
//! whose transcripts carry the `msg`, `timer`, `leave`, `flood` and
//! `votes_gathered` lines that the nine literals of
//! `manet-sim/tests/net_choke_point.rs` do not.

use harness::figures::FigOpts;
use harness::scenario::{run_scenario_with, Scenario};
use harness::{mesh_equiv_suite, EquivCell};
use manet_sim::{FaultPlan, Metrics};
use qbac_core::{ProtocolConfig, Qbac};

/// `(protocol, schedule, records, fingerprint)` of one printed line.
type Pin<'a> = (&'a str, &'a str, usize, &'a str);

/// The two `storm` QBAC lines were re-blessed once, when the topology
/// snapshot was positioned at its quantum's start: these runs move at
/// 20 m/s. Every cell is still sim ≡ mesh.
const FULL: &[Pin] = &[
    ("quorum", "storm", 3562, "fnv1a:1251a5f04e3a3ff1"),
    ("quorum", "attack-squat", 3909, "fnv1a:1f6c2c02e4cf68a6"),
    ("quorum-hardened", "storm", 3562, "fnv1a:1251a5f04e3a3ff1"),
    (
        "quorum-hardened",
        "attack-squat",
        3909,
        "fnv1a:284bf52cd1cb7f4d",
    ),
    ("dad", "storm", 783, "fnv1a:8bc19995690c46c9"),
    ("dad", "attack-squat", 824, "fnv1a:cfd548502970609a"),
];

const QUICK: &[Pin] = &[
    ("quorum", "storm", 1739, "fnv1a:e9979ca08376a05a"),
    ("quorum", "attack-squat", 2100, "fnv1a:c51d2b93b73a2e90"),
    ("quorum-hardened", "storm", 1739, "fnv1a:e9979ca08376a05a"),
    (
        "quorum-hardened",
        "attack-squat",
        2100,
        "fnv1a:be65765c958e33f7",
    ),
];

fn assert_pinned(cells: &[EquivCell], pins: &[Pin]) {
    let got: Vec<Pin> = cells
        .iter()
        .map(|c| {
            assert!(c.ok(), "{}", c.line());
            (c.protocol, c.schedule, c.records, &*c.sim_fingerprint)
        })
        .collect();
    assert_eq!(got, pins);
}

#[test]
fn repro_mesh_lines_are_the_parents() {
    let seed = FigOpts::default().seed;
    assert_pinned(&mesh_equiv_suite(false, seed), FULL);
    assert_pinned(&mesh_equiv_suite(true, seed), QUICK);
}

/// A departing, observed storm under a lossy, duplicating plan: every
/// net-level and protocol-I/O record kind but crash and restart.
fn scenario(trace_capacity: usize) -> Scenario {
    let plan = FaultPlan::new(5).with_loss(0.05).with_duplication(0.05);
    Scenario::builder()
        .nn(14)
        .settle_secs(4)
        .depart_fraction(0.3)
        .abrupt_ratio(0.5)
        .depart_window_secs(5)
        .cooldown_secs(5)
        .seed(41)
        .fault_plan(plan)
        .observe(true)
        .trace_capacity(trace_capacity)
        .build()
        .expect("in-domain")
}

/// Runs the scenario with the chosen classes on; returns the JSONL, the
/// transcript and the metrics.
fn run(trace_capacity: usize, transcribe: bool) -> (String, String, Metrics) {
    let report = run_scenario_with(
        &scenario(trace_capacity),
        Qbac::new(ProtocolConfig::default()),
        |sim| {
            if transcribe {
                sim.world_mut().enable_transcript();
            }
        },
    );
    let log = report.world().trace();
    (log.to_jsonl(), log.render(), report.metrics().clone())
}

#[test]
fn one_log_renders_each_class_as_if_it_were_alone() {
    let (_, _, metrics_off) = run(0, false);
    let (jsonl, no_lines, metrics_trace) = run(1 << 18, false);
    let (no_jsonl, lines, metrics_transcript) = run(0, true);
    // A transcript lifts the ring's bound: 8 is as good as 2^18.
    let (both_jsonl, both_lines, metrics_both) = run(8, true);
    assert!(
        jsonl.contains("\"event\":\"fault_duplicate\"") && jsonl.contains("\"event\":\"flow\"")
    );
    assert!(lines.contains(" leave graceful=") && lines.contains("cast=flood"));
    assert_eq!((no_lines.as_str(), no_jsonl.as_str()), ("", ""));
    assert_eq!(both_jsonl, jsonl);
    assert_eq!(both_lines, lines);
    for on in [metrics_trace, metrics_transcript, metrics_both] {
        assert_eq!(on, metrics_off, "a recorder moved the run");
    }
}
