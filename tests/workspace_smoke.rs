//! Tier-1 smoke over the workspace's three strongest checks, so the
//! root `cargo test -q` exercises the oracle, the adversary plane and
//! the second transport, not just the umbrella crate's own tests. Each
//! is the smallest pinned cell of a suite that runs in full under
//! `cargo test --workspace`.

use qbac::conformance::{attack_canaries, chaos_schedules, run_named, CheckConfig};
use qbac::harness::{mesh_equiv_suite, oracle::QUICK_NODES};

#[test]
fn oracle_holds_quorum_under_the_storm_schedule() {
    let storm = chaos_schedules()
        .into_iter()
        .find(|s| s.name == "storm")
        .expect("storm schedule is pinned");
    let cfg = CheckConfig::new(QUICK_NODES, storm.world_seed, storm.plan);
    let out = run_named("quorum", &cfg).expect("quorum is registered");
    assert_eq!(
        out.violation, None,
        "invariant broken after {} events",
        out.steps
    );
    assert!(out.steps > 0 && out.configured > 0, "{out:?}");
}

#[test]
fn squat_canary_falls_open_and_holds_hardened() {
    let squat = attack_canaries()
        .into_iter()
        .find(|c| c.name == "squat")
        .expect("squat canary is pinned");
    let open = run_named("quorum", &squat.config()).expect("quorum is registered");
    assert!(
        open.violation.is_some(),
        "the oracle missed the squat attack on open QBAC"
    );
    let hardened =
        run_named("quorum-hardened", &squat.config()).expect("quorum-hardened is registered");
    assert_eq!(hardened.violation, None, "hardened QBAC conceded the squat");
}

#[test]
fn simulator_and_udp_mesh_transcripts_agree() {
    for cell in mesh_equiv_suite(true, 0) {
        assert!(
            cell.ok(),
            "{}\n{}",
            cell.line(),
            cell.diff.as_deref().unwrap_or("")
        );
        assert!(cell.stats.datagrams > 0, "{}: no datagrams", cell.line());
    }
}
