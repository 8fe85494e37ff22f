use crate::Addr;
use quorum::VersionStamp;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Allocation state of a single address.
///
/// `Vacant` is distinct from `Free`: a vacant address was allocated and
/// later returned (graceful departure) or reclaimed, which matters for the
/// protocol's fragmentation accounting and for auditing reclamation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AddrStatus {
    /// Never allocated since the block was delegated.
    Free,
    /// Allocated to the node with the given simulator identifier.
    Allocated(u64),
    /// Previously allocated, returned or reclaimed, available again.
    Vacant,
}

impl AddrStatus {
    /// Returns `true` if the address can be handed to a new node.
    #[must_use]
    pub fn is_available(self) -> bool {
        matches!(self, AddrStatus::Free | AddrStatus::Vacant)
    }
}

impl fmt::Display for AddrStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddrStatus::Free => write!(f, "free"),
            AddrStatus::Allocated(n) => write!(f, "allocated(node {n})"),
            AddrStatus::Vacant => write!(f, "vacant"),
        }
    }
}

/// A timestamped allocation record for one address — "each copy of an IP
/// address is associated with a time stamp … incrementally increased each
/// time the copy is updated" (§II-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddrRecord {
    /// Current allocation status.
    pub status: AddrStatus,
    /// Version stamp of this copy.
    pub stamp: VersionStamp,
}

impl AddrRecord {
    /// A fresh, never-updated record.
    #[must_use]
    pub fn free() -> Self {
        AddrRecord {
            status: AddrStatus::Free,
            stamp: VersionStamp::ZERO,
        }
    }
}

impl Default for AddrRecord {
    fn default() -> Self {
        AddrRecord::free()
    }
}

/// A per-address allocation table with version stamps and freshest-copy
/// merge — the structure replicated between a cluster head and its `QDSet`.
///
/// Addresses absent from the table are implicitly [`AddrStatus::Free`] at
/// [`VersionStamp::ZERO`]; only touched addresses are materialized.
///
/// # Example
///
/// ```
/// use addrspace::{Addr, AddrStatus, AllocationTable};
///
/// let mut table = AllocationTable::new();
/// table.set(Addr::new(1), AddrStatus::Allocated(7));
/// assert_eq!(table.status(Addr::new(1)), AddrStatus::Allocated(7));
/// assert_eq!(table.status(Addr::new(2)), AddrStatus::Free);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocationTable {
    records: BTreeMap<Addr, AddrRecord>,
}

impl AllocationTable {
    /// Creates an empty table (all addresses implicitly free).
    #[must_use]
    pub fn new() -> Self {
        AllocationTable {
            records: BTreeMap::new(),
        }
    }

    /// Returns the status of `addr` (implicitly free if untouched).
    #[must_use]
    pub fn status(&self, addr: Addr) -> AddrStatus {
        self.records
            .get(&addr)
            .map_or(AddrStatus::Free, |r| r.status)
    }

    /// Returns the full record for `addr` (implicit default if untouched).
    #[must_use]
    pub fn record(&self, addr: Addr) -> AddrRecord {
        self.records.get(&addr).copied().unwrap_or_default()
    }

    /// Sets the status of `addr`, bumping its stamp. Returns the new
    /// stamp.
    pub fn set(&mut self, addr: Addr, status: AddrStatus) -> VersionStamp {
        let rec = self.records.entry(addr).or_default();
        rec.status = status;
        rec.stamp.bump()
    }

    /// Applies a record received from another replica holder: kept only if
    /// strictly fresher than the local copy. Returns `true` on change.
    pub fn apply(&mut self, addr: Addr, incoming: AddrRecord) -> bool {
        let rec = self.records.entry(addr).or_default();
        if incoming.stamp.supersedes(rec.stamp) {
            *rec = incoming;
            true
        } else {
            false
        }
    }

    /// Merges a whole incoming table, keeping the freshest copy of every
    /// address. Returns the number of records that changed.
    pub fn merge(&mut self, incoming: &AllocationTable) -> usize {
        incoming
            .records
            .iter()
            .filter(|(addr, rec)| self.apply(**addr, **rec))
            .count()
    }

    /// Removes the materialized record for `addr`, if any (ceding the
    /// address to another owner — e.g. the losing side of a
    /// pool-ownership reconciliation handing its records over).
    pub fn remove(&mut self, addr: Addr) -> Option<AddrRecord> {
        self.records.remove(&addr)
    }

    /// Number of materialized (touched) records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if no address has ever been touched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over materialized `(address, record)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, AddrRecord)> + '_ {
        self.records.iter().map(|(a, r)| (*a, *r))
    }

    /// Iterates over addresses currently allocated, with their owners.
    pub fn allocated(&self) -> impl Iterator<Item = (Addr, u64)> + '_ {
        self.records.iter().filter_map(|(a, r)| match r.status {
            AddrStatus::Allocated(owner) => Some((*a, owner)),
            _ => None,
        })
    }

    /// Counts addresses currently allocated.
    #[must_use]
    pub fn allocated_count(&self) -> usize {
        self.allocated().count()
    }

    /// The addresses of `[lo, hi]` that cannot be handed out, ascending.
    /// Walks the materialized records of the range, not its addresses:
    /// an untouched address is free by definition. Empty when `lo > hi`.
    pub fn unavailable_in(&self, lo: Addr, hi: Addr) -> impl Iterator<Item = Addr> + '_ {
        (lo <= hi)
            .then(|| self.records.range(lo..=hi))
            .into_iter()
            .flatten()
            .filter(|(_, r)| !r.status.is_available())
            .map(|(a, _)| *a)
    }

    /// Returns `true` if some address of `[lo, hi]` cannot be handed out.
    #[must_use]
    pub fn any_unavailable_in(&self, lo: Addr, hi: Addr) -> bool {
        self.unavailable_in(lo, hi).next().is_some()
    }

    /// The lowest available address of `[lo, hi]`, `None` when every one
    /// is taken (or `lo > hi`): the first address the run of unavailable
    /// records starting at `lo` does not cover.
    #[must_use]
    pub fn first_available_in(&self, lo: Addr, hi: Addr) -> Option<Addr> {
        let mut candidate = lo;
        for taken in self.unavailable_in(lo, hi) {
            if taken > candidate {
                break;
            }
            candidate = taken.checked_offset(1)?;
        }
        (candidate <= hi).then_some(candidate)
    }
}

impl FromIterator<(Addr, AddrRecord)> for AllocationTable {
    fn from_iter<I: IntoIterator<Item = (Addr, AddrRecord)>>(iter: I) -> Self {
        AllocationTable {
            records: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_addresses_are_free() {
        let t = AllocationTable::new();
        assert_eq!(t.status(Addr::new(9)), AddrStatus::Free);
        assert_eq!(t.record(Addr::new(9)).stamp, VersionStamp::ZERO);
        assert!(t.is_empty());
    }

    #[test]
    fn set_bumps_stamp_each_time() {
        let mut t = AllocationTable::new();
        let a = Addr::new(1);
        let s1 = t.set(a, AddrStatus::Allocated(7));
        let s2 = t.set(a, AddrStatus::Vacant);
        assert!(s2.supersedes(s1));
        assert_eq!(t.status(a), AddrStatus::Vacant);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn apply_keeps_freshest() {
        let mut t = AllocationTable::new();
        let a = Addr::new(1);
        t.set(a, AddrStatus::Allocated(7)); // stamp 1
        let stale = AddrRecord {
            status: AddrStatus::Free,
            stamp: VersionStamp::new(1),
        };
        assert!(!t.apply(a, stale), "equal stamp must not overwrite");
        let fresh = AddrRecord {
            status: AddrStatus::Vacant,
            stamp: VersionStamp::new(2),
        };
        assert!(t.apply(a, fresh));
        assert_eq!(t.status(a), AddrStatus::Vacant);
    }

    #[test]
    fn merge_counts_changes() {
        let mut ours = AllocationTable::new();
        ours.set(Addr::new(1), AddrStatus::Allocated(1)); // stamp 1

        let mut theirs = AllocationTable::new();
        theirs.set(Addr::new(1), AddrStatus::Vacant); // stamp 1 — tie, ignored
        theirs.set(Addr::new(2), AddrStatus::Allocated(2)); // new → applied

        assert_eq!(ours.merge(&theirs), 1);
        assert_eq!(ours.status(Addr::new(1)), AddrStatus::Allocated(1));
        assert_eq!(ours.status(Addr::new(2)), AddrStatus::Allocated(2));
    }

    #[test]
    fn merge_is_idempotent() {
        let mut ours = AllocationTable::new();
        let mut theirs = AllocationTable::new();
        theirs.set(Addr::new(5), AddrStatus::Allocated(9));
        assert_eq!(ours.merge(&theirs), 1);
        assert_eq!(ours.merge(&theirs), 0);
        assert_eq!(ours, theirs);
    }

    #[test]
    fn allocated_iterator() {
        let mut t = AllocationTable::new();
        t.set(Addr::new(1), AddrStatus::Allocated(10));
        t.set(Addr::new(2), AddrStatus::Vacant);
        t.set(Addr::new(3), AddrStatus::Allocated(30));
        let allocs: Vec<(Addr, u64)> = t.allocated().collect();
        assert_eq!(allocs, vec![(Addr::new(1), 10), (Addr::new(3), 30)]);
        assert_eq!(t.allocated_count(), 2);
    }

    #[test]
    fn status_availability() {
        assert!(AddrStatus::Free.is_available());
        assert!(AddrStatus::Vacant.is_available());
        assert!(!AddrStatus::Allocated(1).is_available());
    }

    #[test]
    fn collect_from_iterator() {
        let t: AllocationTable = (0..3).map(|i| (Addr::new(i), AddrRecord::free())).collect();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn status_display() {
        assert_eq!(AddrStatus::Free.to_string(), "free");
        assert_eq!(AddrStatus::Allocated(3).to_string(), "allocated(node 3)");
        assert_eq!(AddrStatus::Vacant.to_string(), "vacant");
    }
}
