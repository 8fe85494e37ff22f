//! The attack-canary registry: one pinned adversarial schedule per
//! [`AttackKind`], generalizing the [`DoubleGrant`](crate::broken)
//! pattern from "an intentionally broken protocol" to "an intentionally
//! hostile schedule".
//!
//! Every canary ships with a two-sided contract, enforced by this
//! module's tests and re-checked by `repro check --quick`:
//!
//! 1. **Unhardened QBAC fails it.** Running the plain `quorum`
//!    adapter under the canary's schedule violates a claimed invariant
//!    (duplicate victim addresses, overlapping honest pools), and the
//!    shrinker minimizes the schedule down to a replayable artifact
//!    that still carries the attack line — proving the oracle catches
//!    the attack, not some bystander fault.
//! 2. **Hardened QBAC holds.** The [`HardenedQbac`] adapter (same
//!    protocol, `harden = true`: vote-origin tag verification, claim
//!    stamp windows, reclaim rate limiting) passes the same schedule —
//!    and the full chaos matrix with the attack layered on top —
//!    without conceding any invariant.

use crate::adapter::{ConformanceAdapter, Guarantees};
use crate::adapters::honest_only;
use crate::drive::CheckConfig;
use addrspace::{Addr, PoolView};
use manet_sim::faults::FaultPlan;
use manet_sim::{AttackKind, NodeId, ProtocolCore, World};
use proto_io::Net;
use qbac_core::{Msg, ProtocolConfig, Qbac};

/// The quorum protocol with the adversary hardening switched on:
/// forged tags are rejected at every delivery choke point, replayed
/// ownership claims die on the stamp window, and reclaim floods are
/// rate-limited. Registered as `quorum-hardened`.
#[derive(Debug)]
pub struct HardenedQbac(Qbac);

impl ProtocolCore for HardenedQbac {
    type Msg = Msg;

    fn on_join(&mut self, w: &mut Net<'_, Msg>, node: NodeId) {
        self.0.on_join(w, node);
    }

    fn on_message(&mut self, w: &mut Net<'_, Msg>, to: NodeId, from: NodeId, msg: Msg) {
        self.0.on_message(w, to, from, msg);
    }

    fn on_timer(&mut self, w: &mut Net<'_, Msg>, node: NodeId, tag: u64) {
        self.0.on_timer(w, node, tag);
    }

    fn on_leave(&mut self, w: &mut Net<'_, Msg>, node: NodeId, graceful: bool) {
        self.0.on_leave(w, node, graceful);
    }

    fn is_cluster_head(&self, node: NodeId) -> bool {
        self.0.is_cluster_head(node)
    }
}

impl ConformanceAdapter for HardenedQbac {
    fn fresh() -> Self {
        HardenedQbac(Qbac::new(ProtocolConfig {
            harden: true,
            ..ProtocolConfig::default()
        }))
    }

    fn name() -> &'static str {
        "quorum-hardened"
    }

    fn guarantees(plan: &FaultPlan) -> Guarantees {
        // The hardened variant makes the same claims as plain quorum —
        // and must keep them with adversaries live in the plan.
        <Qbac as ConformanceAdapter>::guarantees(plan)
    }

    fn assigned_pairs(&self, w: &World<Msg>) -> Vec<(NodeId, Addr)> {
        honest_only(w, <Qbac as ConformanceAdapter>::assigned_pairs(&self.0, w))
    }

    fn pool_views(&self, w: &World<Msg>) -> Vec<(NodeId, PoolView)> {
        <Qbac as ConformanceAdapter>::pool_views(&self.0, w)
    }

    fn stamp_views(&self, w: &World<Msg>) -> Vec<((NodeId, NodeId, Addr), u64)> {
        <Qbac as ConformanceAdapter>::stamp_views(&self.0, w)
    }

    fn views_generation(&self) -> Option<u64> {
        <Qbac as ConformanceAdapter>::views_generation(&self.0)
    }

    fn leak_audit(&self, w: &World<Msg>) -> (u64, u64) {
        <Qbac as ConformanceAdapter>::leak_audit(&self.0, w)
    }
}

/// One pinned adversarial schedule proving the oracle sees an attack
/// kind and the hardening stops it.
#[derive(Debug, Clone)]
pub struct AttackCanary {
    /// The attack this canary exercises.
    pub kind: AttackKind,
    /// Registry name (the attack keyword).
    pub name: &'static str,
    /// Node count for the conformance workload.
    pub nodes: usize,
    /// World seed.
    pub world_seed: u64,
    /// The canary's fault plan, in canonical grammar.
    pub plan_text: &'static str,
}

impl AttackCanary {
    /// The canary's [`FaultPlan`].
    ///
    /// # Panics
    ///
    /// Panics if the pinned text stops parsing — a grammar regression.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::parse(self.plan_text).expect("pinned canary plan parses")
    }

    /// The conformance run this canary pins.
    #[must_use]
    pub fn config(&self) -> CheckConfig {
        CheckConfig::new(self.nodes, self.world_seed, self.plan())
    }
}

/// Every attack canary, one per [`AttackKind`], in canonical kind
/// order. Parameters are pinned empirically: each is the smallest
/// workload found where the attack lands inside the oracle's
/// deterministic arrival schedule.
#[must_use]
pub fn attack_canaries() -> Vec<AttackCanary> {
    vec![
        AttackCanary {
            kind: AttackKind::Squat,
            name: "squat",
            nodes: 20,
            world_seed: 5,
            // Node 3 becomes a cluster head ~1.5s in; as a rogue head
            // it answers joiners' COM_REQs with addresses snapshotted
            // from the founder's free list.
            plan_text: "seed 5\nattack 3 squat at 3s\n",
        },
        AttackCanary {
            kind: AttackKind::SpoofCfm,
            name: "spoof-cfm",
            nodes: 20,
            world_seed: 23,
            // Node 0 is the founder head — inside every electorate, so
            // every vote round hands it a commit to poison-reflect.
            plan_text: "seed 23\nattack 0 spoof-cfm at 1s\n",
        },
        AttackCanary {
            kind: AttackKind::FalseReclaim,
            name: "false-reclaim",
            nodes: 20,
            world_seed: 29,
            // Head 3 floods a forged ADDR_REC against the best-connected
            // honest head while joiners still stream past it; the
            // evicted victim's leases re-granted are instant duplicates.
            plan_text: "seed 29\nattack 3 false-reclaim at 3s\n",
        },
        AttackCanary {
            kind: AttackKind::ReplayClaim,
            name: "replay-claim",
            nodes: 25,
            world_seed: 31,
            // The partition makes head 3 a reconciliation loser: it
            // captures the winner's OWN_CLAIM credential post-heal, then
            // replays it amplified at the late heads, which cede their
            // pools wholesale to the stale claimant's tiebreak.
            plan_text: "seed 31\npartition x=500 from 4s heal 8s\nattack 3 replay-claim at 9s\n",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{chaos_schedules, run_named, shrink_named};
    use manet_sim::SimTime;

    #[test]
    fn registry_covers_every_attack_kind_once() {
        let canaries = attack_canaries();
        let mut kinds: Vec<AttackKind> = canaries.iter().map(|c| c.kind).collect();
        kinds.sort_by_key(|k| k.keyword());
        kinds.dedup();
        assert_eq!(kinds.len(), AttackKind::ALL.len(), "one canary per kind");
        for c in &canaries {
            assert_eq!(c.name, c.kind.keyword(), "name matches the grammar");
            let plan = c.plan();
            assert_eq!(
                plan.attacks.len(),
                1,
                "{}: exactly one attacker per canary",
                c.name
            );
            assert_eq!(plan.attacks[0].kind, c.kind);
            // Canonical text: shrunk artifacts stay in the same grammar.
            assert_eq!(
                FaultPlan::parse(&plan.to_text()).unwrap().to_text(),
                plan.to_text(),
                "{} plan is canonical",
                c.name
            );
        }
    }

    /// Side 1 of the contract: the unhardened oracle run catches every
    /// attack, the shrinker minimizes it to a schedule that still
    /// carries the attack line, and the artifact replays.
    #[test]
    fn unhardened_qbac_fails_every_canary_and_shrinks_to_the_attack() {
        for c in attack_canaries() {
            let cfg = c.config();
            let out = run_named("quorum", &cfg).expect("quorum is registered");
            let v = out
                .violation
                .unwrap_or_else(|| panic!("{}: canary must violate unhardened QBAC", c.name));
            let artifact = shrink_named("quorum", &cfg)
                .unwrap_or_else(|| panic!("{}: failing canary must shrink", c.name));
            assert!(
                artifact.plan.attacks.iter().any(|a| a.kind == c.kind),
                "{}: shrunk plan must keep the attack line, got {:?} (violation was {:?})",
                c.name,
                artifact.plan.to_text(),
                v
            );
            let replayed = crate::registry::replay_check(&artifact.to_text())
                .unwrap_or_else(|e| panic!("{}: artifact must replay: {e}", c.name));
            assert_eq!(replayed.to_text(), artifact.to_text());
        }
    }

    /// Side 2 of the contract: hardened QBAC holds every claimed
    /// invariant under every canary schedule.
    #[test]
    fn hardened_qbac_passes_every_canary() {
        for c in attack_canaries() {
            let out = run_named("quorum-hardened", &c.config()).expect("registered");
            assert!(
                out.violation.is_none(),
                "{}: hardened QBAC must hold, got {:?}",
                c.name,
                out.violation
            );
            assert!(
                out.configured > 0,
                "{}: hardened run still configures nodes",
                c.name
            );
        }
    }

    /// The acceptance matrix: hardened QBAC holds addr-unique and
    /// pool-disjoint with each attack active under the storm,
    /// splitbrain, and reaper chaos schedules.
    #[test]
    fn hardened_qbac_survives_attacks_under_chaos() {
        for schedule in chaos_schedules() {
            for c in attack_canaries() {
                let attacker = c.plan().attacks[0];
                let plan = schedule.plan.clone().with_attack(
                    attacker.node,
                    attacker.kind,
                    SimTime::ZERO.saturating_add(manet_sim::SimDuration::from_secs(3)),
                );
                let cfg = CheckConfig::new(c.nodes, schedule.world_seed, plan);
                let out = run_named("quorum-hardened", &cfg).expect("registered");
                assert!(
                    out.violation.is_none(),
                    "{} under {}: hardened QBAC must hold, got {:?}",
                    c.name,
                    schedule.name,
                    out.violation
                );
            }
        }
    }
}
