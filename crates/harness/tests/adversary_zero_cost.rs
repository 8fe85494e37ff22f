//! Zero-cost-off guard for the adversary plane.
//!
//! The attack subsystem (attacker roles, vote-origin auth tags, claim
//! stamps, rate limits) must be *free* when no attacker is designated
//! and `harden` is off: honest senders compute tags unconditionally,
//! but with pure arithmetic — no RNG draws, no extra messages, no
//! timer changes. This test pins the FNV-1a fingerprint of the full
//! event *trace* (every delivery, drop, timer, and flow span, in
//! order) of a chaos run whose fault plan designates **no** attackers.
//!
//! The pinned value was cross-checked against the pre-adversary tree:
//! running the identical probe on the commit before the adversary
//! plane was introduced produces the same fingerprint, byte for byte.
//! Unlike the snapshot fingerprint (which hashes the metrics/flow JSON
//! and legitimately moves when the *schema* grows), the trace is pure
//! behavior: if this moves, the adversary plane leaked into honest
//! runs.

use harness::artifact::fnv1a;
use harness::scenario::{run_scenario, Scenario};
use manet_sim::FaultPlan;
use qbac_core::{ProtocolConfig, Qbac};

/// Trace fingerprint of the no-attacker chaos run. Cross-checked
/// against the pre-adversary commit — see module docs. Regenerate only
/// if the honest workload itself changes.
///
/// Re-blessed once, when the topology snapshot was positioned at its
/// quantum's start: the run moves at 20 m/s. The commit before, with
/// only that one argument changed, prints this same value.
const PINNED_TRACE_FINGERPRINT: &str = "fnv1a:c3e32209513e5747";

fn chaos_trace_fingerprint() -> String {
    // Same chaos plan as the topology-determinism pin: faults active,
    // adversary section empty.
    let plan = FaultPlan::parse(
        "seed 9\n\
         loss 0.05\n\
         delay 0.1 5ms 20ms\n\
         dup 0.05\n\
         crash 3 at 12s restart 30s\n\
         headkill 1 at 20s\n",
    )
    .expect("chaos plan parses");
    assert!(
        plan.attacks.is_empty(),
        "this guard is about attacker-free plans"
    );
    let s = Scenario::builder()
        .nn(20)
        .settle_secs(5)
        .depart_fraction(0.3)
        .abrupt_ratio(0.5)
        .depart_window_secs(10)
        .cooldown_secs(10)
        .post_arrivals(2)
        .seed(7)
        .fault_plan(plan)
        .observe(true)
        .trace_capacity(1 << 18)
        .build()
        .expect("chaos scenario is in-domain");
    let report = run_scenario(&s, Qbac::new(ProtocolConfig::default()));
    let jsonl = report.world().trace().to_jsonl();
    assert!(!jsonl.is_empty(), "trace captured events");
    format!("fnv1a:{:016x}", fnv1a(jsonl.as_bytes()))
}

#[test]
fn empty_adversary_plan_is_trace_identical_to_pre_adversary_runs() {
    assert_eq!(
        chaos_trace_fingerprint(),
        PINNED_TRACE_FINGERPRINT,
        "adversary plane changed the behavior of an attacker-free run"
    );
}
