//! Determinism regression for the topology engine.
//!
//! The spatial-grid neighbor index and the BFS/components memoization are
//! pure optimizations: same-seed runs must stay byte-identical to the
//! naive all-pairs engine they replaced. This test pins the snapshot
//! fingerprint of a small chaos scenario (loss + delay + dup + a crash +
//! a head kill, all five protocols, flow observer on) to the value
//! produced by the pre-grid engine on `main`. If an engine change shifts
//! any hop count, delivery order, or flow tally, the FNV-1a fingerprint
//! moves and this fails — the optimization is provably
//! behavior-preserving while it passes.

use harness::artifact::Fingerprinted;
use harness::scenario::Scenario;
use harness::snapshot::{observed_runs, Snapshot, SnapshotParams};
use manet_sim::FaultPlan;

/// Fingerprint of [`chaos_snapshot`]`(7)` under the current protocol
/// workload. Regenerate only if the *workload* changes — never to paper
/// over an engine behavior change. Last regenerated when every artifact
/// gained the shared `schema_version` header field: the snapshot
/// *rendering* grew one key, so the FNV hash over it moved. The
/// underlying event stream is unchanged — the trace-level pin in
/// `adversary_zero_cost.rs` (which hashes raw events, not JSON) did not
/// move across this change. Re-blessed once more when the snapshot was
/// positioned at its quantum's start — a definition change, not an
/// engine one: the scenario moves at 20 m/s, and the commit before,
/// with only that one argument changed, prints this value.
const PINNED_FINGERPRINT: &str = "fnv1a:1b8ec466611b3ab0";

fn chaos_plan() -> FaultPlan {
    FaultPlan::parse(
        "seed 9\n\
         loss 0.05\n\
         delay 0.1 5ms 20ms\n\
         dup 0.05\n\
         crash 3 at 12s restart 30s\n\
         headkill 1 at 20s\n",
    )
    .expect("chaos plan parses")
}

fn chaos_scenario(seed: u64) -> Scenario {
    Scenario::builder()
        .nn(20)
        .settle_secs(5)
        .depart_fraction(0.3)
        .abrupt_ratio(0.5)
        .depart_window_secs(10)
        .cooldown_secs(10)
        .post_arrivals(2)
        .seed(seed)
        .fault_plan(chaos_plan())
        .observe(true)
        .build()
        .expect("chaos scenario is in-domain")
}

fn chaos_snapshot(seed: u64) -> Snapshot {
    Snapshot {
        params: SnapshotParams {
            seed,
            rounds: 1,
            quick: true,
            chaos: true,
            ..SnapshotParams::default()
        },
        phases: Vec::new(),
        protocols: observed_runs(&chaos_scenario(seed)),
    }
}

#[test]
fn same_seed_chaos_fingerprint_matches_pre_grid_engine() {
    let got = format!("fnv1a:{:016x}", chaos_snapshot(7).fingerprint());
    assert_eq!(
        got, PINNED_FINGERPRINT,
        "topology engine changed observable behavior: snapshot fingerprint \
         moved from the pre-grid baseline"
    );
}

#[test]
fn chaos_fingerprint_is_reproducible_within_a_build() {
    assert_eq!(
        chaos_snapshot(7).fingerprint(),
        chaos_snapshot(7).fingerprint()
    );
}
