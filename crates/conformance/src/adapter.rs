//! The per-protocol plug-in trait and guarantee envelopes.

use addrspace::{Addr, PoolView};
use manet_sim::faults::FaultPlan;
use manet_sim::{NodeId, ProtocolCore, World};

/// Which invariants a protocol claims to uphold under a given fault
/// plan.
///
/// The oracle checks a protocol only against its own claims: the
/// baselines genuinely lose address uniqueness under lossy links —
/// reproducing that failure is the point of the comparison, not a bug —
/// while the quorum protocol claims safety under every plan (§IV).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Guarantees {
    /// No duplicate addresses within a connected component.
    pub unique: bool,
    /// Per-pool accounting: free + allocated = total, blocks internally
    /// disjoint.
    pub pool_accounting: bool,
    /// Blocks of distinct alive owners never overlap.
    pub pool_disjoint: bool,
    /// Every configured address lying inside an alive pool's blocks is
    /// backed by an `Allocated` record in that pool.
    pub assigned_covered: bool,
    /// A configured node's address never changes without passing
    /// through the unconfigured state.
    pub grant_stable: bool,
    /// Replica version stamps never decrease.
    pub stamps_monotonic: bool,
    /// The protocol repairs cross-partition duplicates after a merge,
    /// so `unique` and `pool_disjoint` are checked with reachability
    /// scoping and a reconciliation grace window instead of failing on
    /// first sight. Only claim this with always-on periodic traffic
    /// (the grace can only mature while simulator time advances).
    pub merge_grace: bool,
}

impl Guarantees {
    /// Claims nothing (useful as a base).
    #[must_use]
    pub fn none() -> Self {
        Guarantees::default()
    }
}

/// `true` when the plan never tampers with message delivery: no drops,
/// duplicates, or delays, no jam regions, no scripted partitions.
/// Crashes and head kills are still allowed — a protocol that only
/// claims safety under reliable links must still survive node churn.
#[must_use]
pub fn clean_links(plan: &FaultPlan) -> bool {
    plan.link_faults
        .iter()
        .all(|f| f.drop <= 0.0 && f.duplicate <= 0.0 && f.delay.is_none_or(|d| d.prob <= 0.0))
        && partition_free(plan)
}

/// `true` when the plan never severs a connected radio topology: no jam
/// regions and no scripted partitions. Point-to-point link faults
/// (loss, duplication, delay) are still allowed.
///
/// Part of the baselines' [`clean_links`] envelope. The quorum protocol
/// no longer needs this scope for pool disjointness: its post-merge
/// ownership reconciliation restores disjointness after a heal, and the
/// checker itself excuses overlap while a fault keeps the owners apart.
#[must_use]
pub fn partition_free(plan: &FaultPlan) -> bool {
    plan.jams.is_empty() && plan.partitions.is_empty()
}

/// Exposes a protocol's allocation state to the conformance checker.
///
/// The default methods cover stateless protocols (no pools, no
/// replicas); pool-owning protocols override [`pool_views`] and
/// [`leak_audit`], and the quorum protocol additionally overrides
/// [`stamp_views`].
///
/// The three views are the checker's memo key: it re-evaluates a
/// section only when the view it reads differs from the one the
/// previous event left. Each must therefore be a deterministic function
/// of `(self, w)` — same state, same vector, element for element — and
/// canonically ordered: [`assigned_pairs`] ascending by node and
/// [`pool_views`] ascending by owner, one entry each (with each
/// [`PoolView::allocated`] ascending by address); [`stamp_views`] in
/// any fixed order with each key once. The checker asserts the
/// orderings in debug builds, on the steps whose view changed.
///
/// [`views_generation`] lets the checker skip building the views at
/// all. Its contract: the value must move whenever any of the three
/// views may change because of `self`. What the views read of the world
/// — which nodes are alive and configured — is the checker's job: it
/// pairs the generation with [`World::roster_version`]. A
/// [`proto_io::Versioned`] around the state the views read meets the
/// contract with no call site to remember. The default, `None`, means
/// "unknown" and rebuilds the views on every step.
///
/// [`assigned_pairs`]: ConformanceAdapter::assigned_pairs
/// [`pool_views`]: ConformanceAdapter::pool_views
/// [`stamp_views`]: ConformanceAdapter::stamp_views
/// [`views_generation`]: ConformanceAdapter::views_generation
/// [`leak_audit`]: ConformanceAdapter::leak_audit
pub trait ConformanceAdapter: ProtocolCore + Sized {
    /// A fresh instance with default parameters.
    fn fresh() -> Self;

    /// Registry name (matches the harness's protocol names).
    fn name() -> &'static str;

    /// The invariant envelope this protocol claims under `plan`.
    fn guarantees(plan: &FaultPlan) -> Guarantees;

    /// Addresses of every alive configured node.
    fn assigned_pairs(&self, w: &World<Self::Msg>) -> Vec<(NodeId, Addr)>;

    /// Accounting snapshots of every alive owner's pool.
    fn pool_views(&self, w: &World<Self::Msg>) -> Vec<(NodeId, PoolView)> {
        let _ = w;
        Vec::new()
    }

    /// Every version-stamped record visible to alive holders, keyed by
    /// `(holder, owner, addr)`.
    fn stamp_views(&self, w: &World<Self::Msg>) -> Vec<((NodeId, NodeId, Addr), u64)> {
        let _ = w;
        Vec::new()
    }

    /// A value that moves whenever the protocol state the three views
    /// read may have changed, or `None` if the protocol does not track
    /// it.
    fn views_generation(&self) -> Option<u64> {
        None
    }

    /// `(leaked, tracked)` units of allocation state still held by
    /// dead nodes: what the chaos suite's leak table reports. The
    /// default, `(0, 0)`, is a protocol that tracks no such state.
    fn leak_audit(&self, w: &World<Self::Msg>) -> (u64, u64) {
        let _ = w;
        (0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_links_ignores_crashes_and_kills() {
        let plan = FaultPlan::parse("crash 3 at 5s\nheadkill 1 at 9s\n").unwrap();
        assert!(clean_links(&plan));
        assert!(!clean_links(&FaultPlan::parse("loss 0.1").unwrap()));
        assert!(!clean_links(&FaultPlan::parse("dup 0.1").unwrap()));
        assert!(!clean_links(
            &FaultPlan::parse("delay 0.1 1ms 2ms").unwrap()
        ));
        assert!(!clean_links(
            &FaultPlan::parse("partition x=500 from 1s heal 2s").unwrap()
        ));
        assert!(!clean_links(
            &FaultPlan::parse("jam 0,0 10,10 from 1s until 2s").unwrap()
        ));
        // Zero-probability link lines are inert.
        assert!(clean_links(&FaultPlan::parse("loss 0").unwrap()));
    }

    #[test]
    fn partition_free_allows_link_noise() {
        assert!(partition_free(
            &FaultPlan::parse("loss 0.3\ndup 0.1").unwrap()
        ));
        assert!(!partition_free(
            &FaultPlan::parse("partition x=500 from 1s heal 2s").unwrap()
        ));
        assert!(!partition_free(
            &FaultPlan::parse("jam 0,0 10,10 from 1s until 2s").unwrap()
        ));
    }
}
