//! Cross-protocol integration: all four autoconfiguration protocols run
//! the same scenarios and uphold the same basic guarantees.

use qbac::addrspace::Addr;
use qbac::baselines::buddy::Buddy;
use qbac::baselines::ctree::CTree;
use qbac::baselines::dad::QueryDad;
use qbac::baselines::manetconf::ManetConf;
use qbac::core::{ProtocolConfig, Qbac};
use qbac::harness::scenario::{run_scenario, Scenario};
use qbac::sim::{FaultPlan, NodeId};
use std::collections::{BTreeMap, BTreeSet};

fn scen(seed: u64) -> Scenario {
    Scenario::builder()
        .nn(40)
        .settle_secs(10)
        .seed(seed)
        .build()
        .expect("scenario is in-domain")
}

/// Static variant for the baselines: MANETconf handles merges only
/// partially and the buddy/C-tree schemes not at all (the paper's
/// related-work critique), so their uniqueness guarantee covers network
/// formation, not mobility-induced partitions.
fn static_scen(seed: u64) -> Scenario {
    let mut s = scen(seed);
    s.speed = 0.0;
    s
}

#[test]
fn quorum_configures_everyone_uniquely() {
    let mut report = run_scenario(&scen(1), Qbac::new(ProtocolConfig::default()));
    assert!(report.metrics().configured_nodes() >= 38);
    let (w, p) = report.sim_mut().parts_mut();
    p.audit_unique(w).unwrap();
}

#[test]
fn manetconf_configures_everyone_uniquely() {
    let report = run_scenario(&static_scen(2), ManetConf::default());
    assert!(
        report.metrics().configured_nodes() >= 36,
        "got {}",
        report.metrics().configured_nodes()
    );
    let assigned = report.protocol().assigned(report.world());
    let distinct: BTreeSet<_> = assigned.iter().map(|(_, ip)| *ip).collect();
    assert_eq!(distinct.len(), assigned.len(), "duplicates in {assigned:?}");
}

#[test]
fn buddy_configures_everyone_uniquely() {
    let report = run_scenario(&static_scen(3), Buddy::default());
    assert!(
        report.metrics().configured_nodes() >= 36,
        "got {}",
        report.metrics().configured_nodes()
    );
    let assigned = report.protocol().assigned(report.world());
    let distinct: BTreeSet<_> = assigned.iter().map(|(_, ip)| *ip).collect();
    assert_eq!(distinct.len(), assigned.len());
}

#[test]
fn ctree_configures_everyone_uniquely() {
    let report = run_scenario(&static_scen(4), CTree::default());
    assert!(
        report.metrics().configured_nodes() >= 36,
        "got {}",
        report.metrics().configured_nodes()
    );
    let assigned = report.protocol().assigned(report.world());
    let distinct: BTreeSet<_> = assigned.iter().map(|(_, ip)| *ip).collect();
    assert_eq!(distinct.len(), assigned.len());
}

#[test]
fn churn_scenario_keeps_quorum_consistent() {
    let scen = Scenario::builder()
        .nn(50)
        .depart_fraction(0.4)
        .abrupt_ratio(0.3)
        .settle_secs(10)
        .depart_window_secs(15)
        .cooldown_secs(15)
        .post_arrivals(5)
        .seed(11)
        .build()
        .expect("scenario is in-domain");
    let mut report = run_scenario(&scen, Qbac::new(ProtocolConfig::default()));
    assert!(report.metrics().configured_nodes() > 45);
    let (w, p) = report.sim_mut().parts_mut();
    p.audit_unique(w).unwrap();
}

#[test]
fn all_protocols_deterministic_per_seed() {
    macro_rules! check {
        ($mk:expr) => {{
            let a = run_scenario(&scen(9), $mk).into_measurements();
            let b = run_scenario(&scen(9), $mk).into_measurements();
            assert_eq!(a.metrics, b.metrics);
        }};
    }
    check!(Qbac::new(ProtocolConfig::default()));
    check!(ManetConf::default());
    check!(Buddy::default());
    check!(CTree::default());
}

/// `--quick`-sized chaos cell: 25 nodes, 20% message loss, one cluster
/// head killed mid-run.
fn chaos_scen(seed: u64) -> Scenario {
    Scenario::builder()
        .nn(25)
        .settle_secs(10)
        .seed(seed)
        .fault_plan(
            FaultPlan::parse(&format!("seed {seed}\nloss 0.2\nheadkill 1 at 12s\n"))
                .expect("static plan parses"),
        )
        .build()
        .expect("scenario is in-domain")
}

/// Surplus address holders: how many assignments collide with another
/// node's address (0 = perfectly unique).
fn duplicate_count(assigned: &[(NodeId, Addr)]) -> usize {
    let mut holders: BTreeMap<Addr, usize> = BTreeMap::new();
    for (_, a) in assigned {
        *holders.entry(*a).or_default() += 1;
    }
    holders.values().filter(|c| **c > 1).map(|c| *c - 1).sum()
}

/// End-of-run uniqueness/leak regression under chaos, pinned to three
/// seeds: the quorum protocol stays exact (zero duplicates, zero leaked
/// addresses) while the baselines reproduce the paper's failure modes —
/// duplicate addresses (MANETconf, C-tree) and leaked space after an
/// abrupt head death (buddy). The pins are exact because runs are
/// deterministic per seed; if one moves, a protocol or simulator change
/// altered chaos behavior and the figures need re-auditing.
///
/// Last moved when the topology snapshot moved from the instant its
/// quantum's first query came to the quantum's start (these cells run
/// at 20 m/s): MANETconf 1 → 7 on seed 41 and 0 → 2 on seed 42, and on
/// seed 42 quorum configures 24 of 25 (was 25). The parent with only
/// the snapshot's instant changed runs seed 42 byte for byte like this
/// commit. Node 16 is the one left: the plan's 20 % link loss dropped all
/// five assignments sent to it. The plan has no partition or jam, so no
/// fault consults a position. Its eighth try, 1.3 s before the run ends,
/// finds no head in its component, and the ninth would come after the
/// end. Whether every node ends configured under this plan is chaos
/// noise, not a trend. Over seeds 41–4040 quorum configures everyone
/// on 3376 → 3370 seeds: 152 seeds flip one way and 146 the other. Over
/// 41–140, MANETconf's duplicates total 132 → 137 and C-tree's 353 → 353,
/// and quorum has no duplicate and no leak on any seed, before or after.
#[test]
fn chaos_uniqueness_and_leak_regression() {
    for (seed, q_configured, mc_dups, ct_dups, buddy_leak_floor) in [
        (41u64, 25, 7, 5, 10_000),
        (42, 24, 2, 3, 10_000),
        (43, 25, 1, 3, 10_000),
    ] {
        let mut report = run_scenario(&chaos_scen(seed), Qbac::new(ProtocolConfig::default()));
        assert_eq!(
            report.metrics().configured_nodes(),
            q_configured,
            "quorum seed {seed}"
        );
        let (w, p) = report.sim_mut().parts_mut();
        p.audit_unique(w)
            .unwrap_or_else(|d| panic!("quorum seed {seed}: duplicates {d:?}"));
        let (leaked, _) = p.leak_audit(w);
        assert_eq!(leaked, 0, "quorum seed {seed} leaked addresses");

        let report = run_scenario(&chaos_scen(seed), ManetConf::default());
        assert_eq!(
            duplicate_count(&report.protocol().assigned(report.world())),
            mc_dups,
            "manetconf seed {seed}"
        );

        let report = run_scenario(&chaos_scen(seed), CTree::default());
        assert_eq!(
            duplicate_count(&report.protocol().assigned(report.world())),
            ct_dups,
            "ctree seed {seed}"
        );

        let report = run_scenario(&chaos_scen(seed), Buddy::default());
        assert_eq!(
            duplicate_count(&report.protocol().assigned(report.world())),
            0,
            "buddy seed {seed} stays unique but leaks instead"
        );
        let (leaked, total) = report.protocol().leak_audit(report.world());
        assert!(
            leaked >= buddy_leak_floor && leaked < total,
            "buddy seed {seed}: leaked {leaked}/{total}"
        );

        // Stateless DAD floods every probe, so under plain loss it still
        // configures everyone uniquely — its weakness is cost, not
        // correctness (until partitions, which this cell excludes).
        let report = run_scenario(&chaos_scen(seed), QueryDad::default());
        assert_eq!(report.metrics().configured_nodes(), 25, "dad seed {seed}");
        assert_eq!(
            duplicate_count(&report.protocol().assigned(report.world())),
            0,
            "dad seed {seed}"
        );
    }
}

#[test]
fn quorum_latency_beats_manetconf_on_identical_workload() {
    let mut wins = 0;
    for seed in 30..33 {
        let s = Scenario::builder()
            .nn(80)
            .settle_secs(10)
            .seed(seed)
            .build()
            .expect("scenario is in-domain");
        let ours = run_scenario(&s, Qbac::new(ProtocolConfig::default())).into_measurements();
        let theirs = run_scenario(&s, ManetConf::default()).into_measurements();
        if ours.metrics.mean_config_latency() < theirs.metrics.mean_config_latency() {
            wins += 1;
        }
    }
    assert!(wins >= 2, "quorum should win most seeds, won {wins}/3");
}
