//! Behavior-neutrality pins for the sans-io refactor.
//!
//! Captured on the tree *immediately before* the protocol cores were
//! split from `manet-sim` (the sans-io refactor): each constant is the
//! FNV-1a fingerprint of the full JSONL event trace of one canned
//! chaos run. The sans-io drivers must reproduce every one of them
//! byte-for-byte — the refactor is required to be provably
//! behavior-neutral, so these values must never be "regenerated" to
//! make the suite pass. If one moves, the refactor changed protocol
//! behavior and the change itself is the bug.

use conformance::{for_protocol, ConformanceAdapter};
use harness::artifact::fnv1a;
use harness::scenario::{run_scenario, Scenario};
use manet_sim::FaultPlan;

/// The splitbrain-style probe plan: delays, a healing partition,
/// crashes with one restart, and a head kill — every fault category
/// that reorders or drops protocol traffic, with no attackers.
fn probe_plan() -> FaultPlan {
    FaultPlan::parse(
        "seed 13\n\
         delay 0.2 5ms 40ms\n\
         loss 0.1\n\
         crash 2 at 8s restart 16s\n\
         crash 5 at 10s\n\
         partition x=500 from 9s heal 14s\n\
         headkill 1 at 15s\n",
    )
    .expect("probe plan parses")
}

fn probe_scenario() -> Scenario {
    Scenario::builder()
        .nn(16)
        .settle_secs(5)
        .depart_fraction(0.25)
        .abrupt_ratio(0.5)
        .depart_window_secs(8)
        .cooldown_secs(8)
        .post_arrivals(1)
        .seed(23)
        .fault_plan(probe_plan())
        .observe(true)
        .trace_capacity(1 << 18)
        .build()
        .expect("probe scenario is in-domain")
}

fn trace_fingerprint<P: ConformanceAdapter>() -> String {
    let report = run_scenario(&probe_scenario(), P::fresh());
    let jsonl = report.world().trace().to_jsonl();
    assert!(!jsonl.is_empty(), "trace captured events");
    format!("fnv1a:{:016x}", fnv1a(jsonl.as_bytes()))
}

/// `(name, pinned pre-refactor fingerprint)` for every protocol.
///
/// The probe runs at the scenario's default 20 m/s. The quorum and
/// MANETconf pins were re-blessed once, when the topology snapshot was
/// positioned at its quantum's start: the commit before, with only that
/// one argument changed, prints these same values.
const PINS: &[(&str, &str)] = &[
    ("quorum", "fnv1a:0585a58573ad06a9"),
    // Equal to the open pin by design: hardening is zero-cost on
    // attacker-free plans (the PR 6 guarantee, re-proven here).
    ("quorum-hardened", "fnv1a:0585a58573ad06a9"),
    ("manetconf", "fnv1a:6c27a5b391aa4da1"),
    ("buddy", "fnv1a:74112750877a682f"),
    ("ctree", "fnv1a:7a71f727c9fc8370"),
    ("dad", "fnv1a:05b9956e85af3268"),
];

fn fingerprint_of(name: &str) -> String {
    for_protocol!(CHECKABLE: name, P => trace_fingerprint::<P>())
        .unwrap_or_else(|| panic!("unknown protocol {name}"))
}

#[test]
fn sansio_drivers_reproduce_pre_refactor_traces() {
    let mut failures = Vec::new();
    for (name, pinned) in PINS {
        let got = fingerprint_of(name);
        println!("PIN {name} {got}");
        if got != *pinned {
            failures.push(format!("{name}: pinned {pinned}, got {got}"));
        }
    }
    assert!(
        failures.is_empty(),
        "sans-io refactor is not behavior-neutral:\n{}",
        failures.join("\n")
    );
}
