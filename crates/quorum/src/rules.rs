/// A predicate deciding whether a number of granted votes constitutes a
/// quorum over a replica group of known size.
///
/// Implementations are value types describing the *rule*; the actual vote
/// collection is tracked by [`VoteTally`](crate::VoteTally).
pub trait QuorumRule {
    /// Total number of voters (replica holders) the rule is defined over.
    fn voters(&self) -> usize;

    /// Minimum number of granted votes required to form a quorum.
    fn threshold(&self) -> usize;

    /// Returns `true` if `granted` votes form a quorum under this rule.
    fn is_quorum(&self, granted: usize) -> bool {
        granted >= self.threshold()
    }
}

/// Plain majority voting: a quorum is any strict majority of the voters.
///
/// For `v` voters the threshold is `⌊v/2⌋ + 1`, so two disjoint quorums can
/// never coexist — the intersection property of Definition 1 holds by
/// counting.
///
/// # Example
///
/// ```
/// use quorum::{MajorityRule, QuorumRule};
///
/// let rule = MajorityRule::new(6);
/// assert_eq!(rule.threshold(), 4);
/// assert!(!rule.is_quorum(3)); // exactly half is NOT a quorum
/// assert!(rule.is_quorum(4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MajorityRule {
    voters: usize,
}

impl MajorityRule {
    /// Creates a majority rule over `voters` replica holders.
    ///
    /// # Panics
    ///
    /// Panics if `voters` is zero.
    #[must_use]
    pub fn new(voters: usize) -> Self {
        assert!(voters > 0, "majority rule needs at least one voter");
        MajorityRule { voters }
    }
}

impl QuorumRule for MajorityRule {
    fn voters(&self) -> usize {
        self.voters
    }

    fn threshold(&self) -> usize {
        self.voters / 2 + 1
    }
}

/// Dynamic linear voting (Jajodia & Mutchler): with an **even** number of
/// voters, a set containing *exactly half* the voters still forms a quorum
/// provided it contains the *distinguished node*.
///
/// In the autoconfiguration protocol the distinguished node is "the cluster
/// head that has the address in its IPSpace" (Definition 2) — i.e. the
/// block owner breaks ties for its own addresses.
///
/// # Example
///
/// ```
/// use quorum::{DynamicLinearRule, QuorumRule};
///
/// // Six voters: plain majority needs 4, but 3 including the
/// // distinguished node suffices.
/// let rule = DynamicLinearRule::new(6);
/// assert!(!rule.is_quorum(3));
/// assert!(rule.is_quorum_with(3, true));
/// assert!(!rule.is_quorum_with(2, true));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DynamicLinearRule {
    voters: usize,
}

impl DynamicLinearRule {
    /// Creates a dynamic-linear-voting rule over `voters` replica holders.
    ///
    /// # Panics
    ///
    /// Panics if `voters` is zero.
    #[must_use]
    pub fn new(voters: usize) -> Self {
        assert!(voters > 0, "dynamic linear rule needs at least one voter");
        DynamicLinearRule { voters }
    }

    /// Returns `true` if `granted` votes form a quorum, where
    /// `has_distinguished` reports whether the distinguished node is among
    /// the granters.
    ///
    /// The tiebreak only applies when the voter count is even and the vote
    /// count is exactly half; otherwise plain majority applies.
    #[must_use]
    pub fn is_quorum_with(&self, granted: usize, has_distinguished: bool) -> bool {
        if granted > self.voters / 2 {
            return true;
        }
        self.voters.is_multiple_of(2) && granted == self.voters / 2 && has_distinguished
    }
}

impl QuorumRule for DynamicLinearRule {
    fn voters(&self) -> usize {
        self.voters
    }

    /// The threshold *without* the distinguished node, i.e. a strict
    /// majority. Use [`DynamicLinearRule::is_quorum_with`] to apply the
    /// tiebreak.
    fn threshold(&self) -> usize {
        self.voters / 2 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_thresholds() {
        for (v, t) in [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (6, 4), (7, 4)] {
            let rule = MajorityRule::new(v);
            assert_eq!(rule.threshold(), t, "v={v}");
            assert!(rule.is_quorum(t));
            assert!(!rule.is_quorum(t - 1));
        }
    }

    #[test]
    #[should_panic(expected = "at least one voter")]
    fn majority_zero_voters_panics() {
        let _ = MajorityRule::new(0);
    }

    #[test]
    fn two_majorities_always_intersect() {
        // Counting argument: threshold * 2 > voters for all sizes.
        for v in 1..=50 {
            let t = MajorityRule::new(v).threshold();
            assert!(2 * t > v, "two quorums of {t} could be disjoint in {v}");
        }
    }

    #[test]
    fn dlv_even_tiebreak() {
        let rule = DynamicLinearRule::new(4);
        assert!(rule.is_quorum_with(3, false));
        assert!(rule.is_quorum_with(2, true));
        assert!(!rule.is_quorum_with(2, false));
        assert!(!rule.is_quorum_with(1, true));
    }

    #[test]
    fn dlv_odd_ignores_distinguished() {
        let rule = DynamicLinearRule::new(5);
        assert!(rule.is_quorum_with(3, false));
        // 2 of 5 is less than half — the tiebreak never applies.
        assert!(!rule.is_quorum_with(2, true));
    }

    #[test]
    fn dlv_no_two_disjoint_quorums() {
        // For even v, any two quorums intersect: either one has > v/2
        // members, or both have exactly v/2 and both contain the (single)
        // distinguished node.
        let rule = DynamicLinearRule::new(6);
        // Two disjoint halves: only one can contain the distinguished node.
        assert!(rule.is_quorum_with(3, true));
        assert!(!rule.is_quorum_with(3, false));
    }
}
