//! Property-based tests of the quorum machinery.

use proptest::prelude::*;
use quorum::{DynamicLinearRule, MajorityRule, QuorumRule, Replica, ReplicaStore, VersionStamp};

proptest! {
    /// Majority and dynamic-linear agree whenever the tiebreak is moot
    /// (odd electorate, or vote counts away from exactly half).
    #[test]
    fn dlv_equals_majority_away_from_ties(v in 1usize..100, g in 0usize..100) {
        let g = g % (v + 1);
        let majority = MajorityRule::new(v).is_quorum(g);
        let dlv = DynamicLinearRule::new(v);
        if v % 2 == 1 || g != v / 2 {
            prop_assert_eq!(dlv.is_quorum_with(g, true), majority);
            prop_assert_eq!(dlv.is_quorum_with(g, false), majority);
        }
    }

    /// Replica merge is monotone in stamps: after any merge sequence the
    /// stamp never decreases and equals the max stamp seen.
    #[test]
    fn replica_merge_monotone(stamps in prop::collection::vec(0u64..1000, 1..30)) {
        let mut local = Replica::new(0usize);
        let mut max_seen = 0u64;
        for (i, s) in stamps.iter().enumerate() {
            local.merge(Replica::at(i, VersionStamp::new(*s)));
            max_seen = max_seen.max(*s);
            prop_assert_eq!(local.stamp().get(), max_seen);
        }
    }

    /// Applying the same set of replicas in any two orders converges to
    /// the same store (last-writer-wins by stamp is order-independent
    /// when stamps are distinct).
    #[test]
    fn store_apply_is_order_independent(
        mut entries in prop::collection::vec((0u8..5, 0u64..100), 1..20),
    ) {
        // Make stamps unique so ties cannot make order matter.
        for (i, e) in entries.iter_mut().enumerate() {
            e.1 = e.1 * 100 + i as u64;
        }
        let mut a: ReplicaStore<u8, u64> = ReplicaStore::new();
        for (k, s) in &entries {
            a.apply(*k, Replica::at(*s, VersionStamp::new(*s)));
        }
        let mut rev = entries.clone();
        rev.reverse();
        let mut b: ReplicaStore<u8, u64> = ReplicaStore::new();
        for (k, s) in &rev {
            b.apply(*k, Replica::at(*s, VersionStamp::new(*s)));
        }
        prop_assert_eq!(a, b);
    }
}
