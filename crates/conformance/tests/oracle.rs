//! End-to-end oracle tests: every real protocol holds its claimed
//! invariants under every canned chaos schedule, and an intentionally
//! broken protocol is caught, shrunk to a minimal schedule, and
//! replayed byte-for-byte.

use conformance::registry::PROTOCOLS;
use conformance::{chaos_schedules, replay_check, run_named, shrink_named, CheckConfig, Invariant};

/// Node count for test runs — the same size as the harness's `--quick`
/// smoke, which is also empirically the size at which the broken
/// allocator's lost-Ack window reliably opens under every chaos
/// schedule.
const NN: usize = 25;

#[test]
fn five_protocols_pass_every_schedule() {
    for schedule in chaos_schedules() {
        for protocol in PROTOCOLS {
            let cfg = CheckConfig::new(NN, schedule.world_seed, schedule.plan.clone());
            let out = run_named(protocol, &cfg).expect("known protocol");
            assert!(
                out.violation.is_none(),
                "{protocol} under {}: {}",
                schedule.name,
                out.violation.unwrap()
            );
            assert!(
                out.steps > 0,
                "{protocol} under {} did no work",
                schedule.name
            );
            assert!(
                out.configured > 0,
                "{protocol} under {} configured nobody",
                schedule.name
            );
        }
    }
}

/// Open QBAC's known duplicate under plain message loss, and the
/// hardened variant's. At nn 40 with `loss 0.2` (seed 61) a head's
/// probes to a live peer are all lost, so it reclaims that peer's
/// block while the peer goes on granting. Every canned schedule
/// runs clean at its pinned seed, so this is the canary that keeps the
/// hole in view. The fix for false reclamation flips this test to
/// must-run-clean: both runs then end with no violation.
#[test]
fn loss_alone_breaks_open_qbac_at_seed_61() {
    let plan = manet_sim::faults::FaultPlan::parse("seed 61\nloss 0.2").expect("plan parses");
    let cfg = CheckConfig::new(40, 61, plan);
    for (protocol, step) in [("quorum", 1514), ("quorum-hardened", 1485)] {
        let v = run_named(protocol, &cfg)
            .expect("known protocol")
            .violation
            .unwrap_or_else(|| panic!("{protocol} ran clean: the false-reclaim hole is closed"));
        assert_eq!(
            (v.invariant, v.step),
            (Invariant::AddrUnique, step),
            "{protocol}: {v}"
        );
    }
}

#[test]
fn broken_protocol_is_caught_shrunk_and_replayed() {
    // The storm schedule drops 15% of messages — more than enough to
    // lose an Ack and stall the broken allocator's cursor.
    let storm = chaos_schedules()
        .into_iter()
        .find(|s| s.name == "storm")
        .expect("storm schedule exists");
    let cfg = CheckConfig::new(NN, storm.world_seed, storm.plan.clone());

    let out = run_named("broken-doublegrant", &cfg).expect("known protocol");
    let v = out.violation.expect("oracle must catch the double grant");
    assert_eq!(v.invariant, Invariant::AddrUnique);

    let artifact = shrink_named("broken-doublegrant", &cfg).expect("failing run shrinks");
    let plan_lines = artifact.plan.to_text().lines().count();
    assert!(
        plan_lines <= 10,
        "shrunk plan should be tiny, got {plan_lines} lines:\n{}",
        artifact.plan.to_text()
    );
    assert!(artifact.nodes <= NN);

    // Deterministic: shrinking the same failure twice yields the same
    // bytes, and replaying the artifact reproduces it byte-for-byte.
    let again = shrink_named("broken-doublegrant", &cfg).expect("still fails");
    assert_eq!(again.to_text(), artifact.to_text());
    let replayed = replay_check(&artifact.to_text()).expect("artifact replays");
    assert_eq!(replayed.to_text(), artifact.to_text());
}

#[test]
fn replay_rejects_tampered_artifacts() {
    let storm = chaos_schedules()
        .into_iter()
        .find(|s| s.name == "storm")
        .expect("storm schedule exists");
    let cfg = CheckConfig::new(NN, storm.world_seed, storm.plan.clone());
    let artifact = shrink_named("broken-doublegrant", &cfg).expect("failing run shrinks");

    // A artifact claiming a different step must not replay cleanly.
    let lied = artifact.to_text().replace(
        &format!("step: {}", artifact.step),
        &format!("step: {}", artifact.step + 1),
    );
    assert!(replay_check(&lied).is_err(), "tampered step must be caught");

    // A clean schedule (no faults) never reproduces the violation.
    let clean = conformance::Artifact {
        plan: manet_sim::faults::FaultPlan::new(artifact.plan.seed),
        ..artifact
    };
    let err = replay_check(&clean.to_text()).expect_err("clean plan cannot reproduce");
    assert!(err.contains("ran clean"), "unexpected error: {err}");
}
