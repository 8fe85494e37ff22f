use crate::{Addr, AddrBlock, AddrSpaceError, AddrStatus, AllocationTable};
use quorum::VersionStamp;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A cluster head's `IPSpace`: the disjoint address blocks it owns plus the
/// allocation state of every address inside them.
///
/// Supports the operations the protocol needs:
///
/// * [`AddressPool::first_free`] / [`AddressPool::allocate`] — configure a
///   common node,
/// * [`AddressPool::split_half`] — delegate half the space to a new
///   cluster head,
/// * [`AddressPool::release`] — graceful departure returns an address,
/// * [`AddressPool::absorb`] — take back a departing cluster head's block,
/// * [`AddressPool::table`] — snapshot for replication to the `QDSet`.
///
/// # Example
///
/// ```
/// use addrspace::{Addr, AddrBlock, AddressPool};
///
/// let mut pool = AddressPool::from_block(AddrBlock::new(Addr::new(0), 16)?);
/// let ip = pool.first_free().unwrap();
/// pool.allocate(ip, 1)?;
/// assert_eq!(pool.free_count(), 15);
/// pool.release(ip)?;
/// assert_eq!(pool.free_count(), 16);
/// # Ok::<(), addrspace::AddrSpaceError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressPool {
    /// Owned blocks, disjoint and sorted by base address.
    blocks: Vec<AddrBlock>,
    /// Allocation state of addresses within the owned blocks.
    table: AllocationTable,
}

impl AddressPool {
    /// Creates an empty pool owning no address space.
    #[must_use]
    pub fn new() -> Self {
        AddressPool::default()
    }

    /// Creates a pool owning a single block, all free.
    #[must_use]
    pub fn from_block(block: AddrBlock) -> Self {
        AddressPool {
            blocks: vec![block],
            table: AllocationTable::new(),
        }
    }

    /// The owned blocks, disjoint and sorted by base address.
    #[must_use]
    pub fn blocks(&self) -> &[AddrBlock] {
        &self.blocks
    }

    /// The allocation table (for replication to adjacent cluster heads).
    #[must_use]
    pub fn table(&self) -> &AllocationTable {
        &self.table
    }

    /// Mutable access to the allocation table, for merging replicas.
    pub fn table_mut(&mut self) -> &mut AllocationTable {
        &mut self.table
    }

    /// Total number of owned addresses.
    #[must_use]
    pub fn total_len(&self) -> u64 {
        self.blocks.iter().map(|b| u64::from(b.len())).sum()
    }

    /// Returns `true` if `addr` lies inside an owned block.
    #[must_use]
    pub fn owns(&self, addr: Addr) -> bool {
        self.blocks.iter().any(|b| b.contains(addr))
    }

    /// Number of owned addresses currently available (free or vacant).
    /// Merged tables may carry records for addresses outside the owned
    /// blocks (absorbed lineages); only records inside them count.
    #[must_use]
    pub fn free_count(&self) -> u64 {
        let allocated_inside = self
            .table
            .allocated()
            .filter(|(a, _)| self.owns(*a))
            .count() as u64;
        self.total_len() - allocated_inside
    }

    /// The lowest available address, or `None` if the pool is exhausted.
    #[must_use]
    pub fn first_free(&self) -> Option<Addr> {
        self.first_free_at_or_after(Addr::MIN)
    }

    /// The lowest available owned address at or after `from`, no wrap.
    /// Blocks are sorted and disjoint, so the first block with an answer
    /// has the lowest; a block wholly below `from` is an empty range.
    fn first_free_at_or_after(&self, from: Addr) -> Option<Addr> {
        self.blocks
            .iter()
            .find_map(|b| self.table.first_available_in(b.base().max(from), b.last()))
    }

    /// The first available address at or after `from` in address order,
    /// wrapping around to the lowest owned address. Proposing addresses
    /// near the allocator's own keeps the far half of its block clean
    /// for future delegation.
    #[must_use]
    pub fn first_free_from(&self, from: Addr) -> Option<Addr> {
        self.first_free_at_or_after(from)
            .or_else(|| self.first_free())
    }

    /// Marks `addr` as allocated to `owner`, bumping its stamp.
    ///
    /// # Errors
    ///
    /// * [`AddrSpaceError::NotOwned`] — the address is outside the pool,
    /// * [`AddrSpaceError::AlreadyAllocated`] — the address is taken.
    pub fn allocate(&mut self, addr: Addr, owner: u64) -> Result<VersionStamp, AddrSpaceError> {
        if !self.owns(addr) {
            return Err(AddrSpaceError::NotOwned(addr));
        }
        if !self.table.status(addr).is_available() {
            return Err(AddrSpaceError::AlreadyAllocated(addr));
        }
        Ok(self.table.set(addr, AddrStatus::Allocated(owner)))
    }

    /// Allocates the lowest available address to `owner`.
    ///
    /// # Errors
    ///
    /// Returns [`AddrSpaceError::Exhausted`] if nothing is available.
    pub fn allocate_first(&mut self, owner: u64) -> Result<Addr, AddrSpaceError> {
        let addr = self.first_free().ok_or(AddrSpaceError::Exhausted)?;
        self.allocate(addr, owner)?;
        Ok(addr)
    }

    /// Marks an allocated address vacant (returned or reclaimed), bumping
    /// its stamp.
    ///
    /// # Errors
    ///
    /// * [`AddrSpaceError::NotOwned`] — the address is outside the pool,
    /// * [`AddrSpaceError::NotAllocated`] — the address is not in use.
    pub fn release(&mut self, addr: Addr) -> Result<VersionStamp, AddrSpaceError> {
        if !self.owns(addr) {
            return Err(AddrSpaceError::NotOwned(addr));
        }
        match self.table.status(addr) {
            AddrStatus::Allocated(_) => Ok(self.table.set(addr, AddrStatus::Vacant)),
            _ => Err(AddrSpaceError::NotAllocated(addr)),
        }
    }

    /// Splits off roughly half the pool's *largest* block for delegation
    /// to a new cluster head. Only a fully available half may be handed
    /// over (allocated addresses must stay with their allocator), so the
    /// upper half is preferred and the lower half used as fallback.
    ///
    /// Returns the delegated block.
    ///
    /// # Errors
    ///
    /// Returns [`AddrSpaceError::Exhausted`] if no block has a clean
    /// half (every block is a single address or has allocations in both
    /// halves).
    pub fn split_half(&mut self) -> Result<AddrBlock, AddrSpaceError> {
        #[derive(Clone, Copy)]
        enum Side {
            Upper,
            Lower,
        }
        let mut best: Option<(usize, u32, Side)> = None;
        for (i, b) in self.blocks.iter().enumerate() {
            if b.len() < 2 {
                continue;
            }
            let (lower, upper) = halves(b);
            let upper_clean = !self.table.any_unavailable_in(upper.base(), upper.last());
            let lower_clean = !self.table.any_unavailable_in(lower.base(), lower.last());
            let side = if upper_clean {
                Some(Side::Upper)
            } else if lower_clean {
                Some(Side::Lower)
            } else {
                None
            };
            if let Some(side) = side {
                if best.is_none_or(|(_, len, _)| b.len() > len) {
                    best = Some((i, b.len(), side));
                }
            }
        }
        let (idx, _, side) = best.ok_or(AddrSpaceError::Exhausted)?;
        let half = match side {
            Side::Upper => self.blocks[idx].split_half().expect("validated len >= 2"),
            Side::Lower => self.blocks[idx]
                .split_half_lower()
                .expect("validated len >= 2"),
        };
        self.blocks.sort();
        Ok(half)
    }

    /// Like [`AddressPool::split_half`], but never fails on allocated
    /// addresses: the half with fewer allocations is delegated and the
    /// allocation records inside it are carved out and returned with the
    /// block, so the receiving head can import them ("only IPSpace of
    /// the allocator is divided and assigned during configuration" —
    /// existing assignments ride along).
    ///
    /// # Errors
    ///
    /// Returns [`AddrSpaceError::Exhausted`] only when no block has two
    /// addresses.
    pub fn split_half_carrying(
        &mut self,
    ) -> Result<(AddrBlock, Vec<(Addr, crate::AddrRecord)>), AddrSpaceError> {
        // Prefer a clean half if one exists anywhere.
        if let Ok(block) = self.split_half() {
            return Ok((block, Vec::new()));
        }
        // Otherwise split the largest block on the side with fewer
        // allocations and carve out the records.
        let idx = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.len() >= 2)
            .max_by_key(|(_, b)| b.len())
            .map(|(i, _)| i)
            .ok_or(AddrSpaceError::Exhausted)?;
        let b = self.blocks[idx];
        let (lower, upper) = halves(&b);
        let upper_allocs = self
            .table
            .unavailable_in(upper.base(), upper.last())
            .count();
        let lower_allocs = self
            .table
            .unavailable_in(lower.base(), lower.last())
            .count();
        let half = if upper_allocs <= lower_allocs {
            self.blocks[idx].split_half().expect("len >= 2")
        } else {
            self.blocks[idx].split_half_lower().expect("len >= 2")
        };
        self.blocks.sort();
        let mut carried = Vec::new();
        let records: Vec<Addr> = self
            .table
            .iter()
            .filter(|(a, _)| half.contains(*a))
            .map(|(a, _)| a)
            .collect();
        for a in records {
            let rec = self.table.record(a);
            carried.push((a, rec));
        }
        Ok((half, carried))
    }

    /// Adds a block to the pool (a departing cluster head returning its
    /// space, or address borrowing). Coalesces with adjoining blocks.
    ///
    /// # Errors
    ///
    /// Returns [`AddrSpaceError::Overlapping`] if the block overlaps space
    /// the pool already owns.
    pub fn absorb(&mut self, block: AddrBlock) -> Result<(), AddrSpaceError> {
        if self.blocks.iter().any(|b| b.overlaps(&block)) {
            return Err(AddrSpaceError::Overlapping);
        }
        self.blocks.push(block);
        self.blocks.sort();
        // Coalesce adjoining runs.
        let mut merged: Vec<AddrBlock> = Vec::with_capacity(self.blocks.len());
        for b in self.blocks.drain(..) {
            match merged.last_mut() {
                Some(last) if last.adjoins(&b) => {
                    last.coalesce(b).expect("adjoining blocks coalesce");
                }
                _ => merged.push(b),
            }
        }
        self.blocks = merged;
        Ok(())
    }

    /// Removes the part of the owned space covered by `region` — the
    /// losing side of a pool-ownership reconciliation ceding contested
    /// space to the quorum-confirmed owner. Partial overlaps split the
    /// affected blocks and keep the uncovered remainders. Returns the
    /// drained allocation records inside the ceded space so they can be
    /// handed to the new owner (live leases ride along). Calling with a
    /// region the pool does not own is a no-op that returns nothing, so
    /// a re-delivered cede is idempotent.
    pub fn carve(&mut self, region: &AddrBlock) -> Vec<(Addr, crate::AddrRecord)> {
        if !self.blocks.iter().any(|b| b.overlaps(region)) {
            return Vec::new();
        }
        let mut kept = Vec::with_capacity(self.blocks.len() + 1);
        for b in self.blocks.drain(..) {
            kept.extend(b.subtract(region));
        }
        self.blocks = kept;
        let ceded: Vec<Addr> = self
            .table
            .iter()
            .filter(|(a, _)| region.contains(*a))
            .map(|(a, _)| a)
            .collect();
        ceded
            .into_iter()
            .filter_map(|a| self.table.remove(a).map(|r| (a, r)))
            .collect()
    }

    /// Removes all owned space and allocation state, returning the blocks
    /// (a cluster head handing everything back before departure).
    pub fn surrender(&mut self) -> (Vec<AddrBlock>, AllocationTable) {
        (
            std::mem::take(&mut self.blocks),
            std::mem::take(&mut self.table),
        )
    }

    /// Iterates over every owned address with its status.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, AddrStatus)> + '_ {
        self.blocks
            .iter()
            .flat_map(|b| b.iter())
            .map(|a| (a, self.table.status(a)))
    }

    /// Takes an accounting snapshot for conformance checking.
    ///
    /// Cost is proportional to the number of table *records*, not the
    /// owned space, so the conformance oracle can afford one snapshot
    /// per pool after every simulator event.
    #[must_use]
    pub fn view(&self) -> PoolView {
        let allocated: Vec<(Addr, u64)> = self
            .table
            .allocated()
            .filter(|(a, _)| self.owns(*a))
            .collect();
        PoolView {
            blocks: self.blocks.clone(),
            total: self.total_len(),
            free: self.free_count(),
            allocated,
        }
    }
}

/// The blocks [`AddrBlock::split_half_lower`] and
/// [`AddrBlock::split_half`] would hand over from `b` (two addresses or
/// more): what a split may give away is asked of the split itself.
fn halves(b: &AddrBlock) -> (AddrBlock, AddrBlock) {
    let (mut keeps_upper, mut keeps_lower) = (*b, *b);
    (
        keeps_upper.split_half_lower().expect("len >= 2"),
        keeps_lower.split_half().expect("len >= 2"),
    )
}

/// An accounting snapshot of one [`AddressPool`], used by the
/// conformance oracle's leak-freedom invariant: every owned address is
/// either free or allocated, blocks never overlap within or across
/// pools, and every configured node's address is backed by an
/// `Allocated` record in the owning pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolView {
    /// The owned blocks (disjoint and sorted by base, per the pool's
    /// own invariant — the checker re-verifies this).
    pub blocks: Vec<AddrBlock>,
    /// Total owned addresses.
    pub total: u64,
    /// Available addresses as reported by [`AddressPool::free_count`].
    pub free: u64,
    /// Allocated addresses inside owned blocks with their holder ids.
    pub allocated: Vec<(Addr, u64)>,
}

impl fmt::Display for AddressPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pool of {} addresses in {} blocks ({} free)",
            self.total_len(),
            self.blocks.len(),
            self.free_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(len: u32) -> AddressPool {
        AddressPool::from_block(AddrBlock::new(Addr::new(0), len).unwrap())
    }

    #[test]
    fn empty_pool_has_nothing() {
        let p = AddressPool::new();
        assert_eq!(p.total_len(), 0);
        assert_eq!(p.first_free(), None);
        assert!(!p.owns(Addr::new(0)));
    }

    #[test]
    fn allocate_first_walks_upward() {
        let mut p = pool(4);
        assert_eq!(p.allocate_first(1).unwrap(), Addr::new(0));
        assert_eq!(p.allocate_first(2).unwrap(), Addr::new(1));
        assert_eq!(p.free_count(), 2);
    }

    #[test]
    fn allocate_rejects_taken_and_foreign() {
        let mut p = pool(4);
        p.allocate(Addr::new(2), 1).unwrap();
        assert_eq!(
            p.allocate(Addr::new(2), 2).unwrap_err(),
            AddrSpaceError::AlreadyAllocated(Addr::new(2))
        );
        assert_eq!(
            p.allocate(Addr::new(99), 2).unwrap_err(),
            AddrSpaceError::NotOwned(Addr::new(99))
        );
    }

    #[test]
    fn release_then_reallocate() {
        let mut p = pool(2);
        let a = p.allocate_first(1).unwrap();
        p.release(a).unwrap();
        assert_eq!(p.table().status(a), AddrStatus::Vacant);
        // Vacant addresses are handed out again.
        assert_eq!(p.allocate_first(2).unwrap(), a);
    }

    #[test]
    fn release_errors() {
        let mut p = pool(2);
        assert_eq!(
            p.release(Addr::new(0)).unwrap_err(),
            AddrSpaceError::NotAllocated(Addr::new(0))
        );
        assert_eq!(
            p.release(Addr::new(50)).unwrap_err(),
            AddrSpaceError::NotOwned(Addr::new(50))
        );
    }

    #[test]
    fn exhaustion() {
        let mut p = pool(2);
        p.allocate_first(1).unwrap();
        p.allocate_first(2).unwrap();
        assert_eq!(p.allocate_first(3).unwrap_err(), AddrSpaceError::Exhausted);
        assert_eq!(p.free_count(), 0);
    }

    #[test]
    fn split_half_delegates_upper() {
        let mut p = pool(16);
        let upper = p.split_half().unwrap();
        assert_eq!(upper, AddrBlock::new(Addr::new(8), 8).unwrap());
        assert_eq!(p.total_len(), 8);
        assert!(!p.owns(Addr::new(8)));
    }

    #[test]
    fn split_half_falls_back_to_clean_lower() {
        let mut p = pool(8);
        p.allocate(Addr::new(6), 1).unwrap(); // dirty upper half
        let lower = p.split_half().unwrap();
        assert_eq!(lower, AddrBlock::new(Addr::new(0), 4).unwrap());
        assert!(p.owns(Addr::new(6)));
        assert!(!p.owns(Addr::new(0)));
    }

    #[test]
    fn split_half_fails_when_both_halves_dirty() {
        let mut p = pool(8);
        p.allocate(Addr::new(1), 1).unwrap();
        p.allocate(Addr::new(6), 1).unwrap();
        assert_eq!(p.split_half().unwrap_err(), AddrSpaceError::Exhausted);
    }

    #[test]
    fn split_carrying_hands_over_fewest_allocations() {
        let mut p = pool(8);
        p.allocate(Addr::new(1), 10).unwrap();
        p.allocate(Addr::new(2), 11).unwrap();
        p.allocate(Addr::new(6), 12).unwrap(); // upper half: 1 alloc
        let (half, carried) = p.split_half_carrying().unwrap();
        assert_eq!(half, AddrBlock::new(Addr::new(4), 4).unwrap());
        assert_eq!(carried.len(), 1);
        assert_eq!(carried[0].0, Addr::new(6));
        assert!(matches!(carried[0].1.status, AddrStatus::Allocated(12)));
        assert!(!p.owns(Addr::new(6)));
    }

    #[test]
    fn split_carrying_prefers_clean_half() {
        let mut p = pool(8);
        p.allocate(Addr::new(1), 1).unwrap(); // lower dirty, upper clean
        let (half, carried) = p.split_half_carrying().unwrap();
        assert!(carried.is_empty());
        assert_eq!(half.base(), Addr::new(4));
    }

    #[test]
    fn first_free_from_wraps() {
        let mut p = pool(8);
        p.allocate(Addr::new(6), 1).unwrap();
        p.allocate(Addr::new(7), 1).unwrap();
        assert_eq!(p.first_free_from(Addr::new(6)), Some(Addr::new(0)));
        assert_eq!(p.first_free_from(Addr::new(3)), Some(Addr::new(3)));
    }

    #[test]
    fn split_half_prefers_largest_block() {
        let mut p = pool(8);
        p.absorb(AddrBlock::new(Addr::new(100), 32).unwrap())
            .unwrap();
        let upper = p.split_half().unwrap();
        assert_eq!(upper.base(), Addr::new(116));
        assert_eq!(upper.len(), 16);
    }

    #[test]
    fn absorb_rejects_overlap_and_coalesces() {
        let mut p = pool(8);
        assert_eq!(
            p.absorb(AddrBlock::new(Addr::new(4), 8).unwrap())
                .unwrap_err(),
            AddrSpaceError::Overlapping
        );
        p.absorb(AddrBlock::new(Addr::new(8), 8).unwrap()).unwrap();
        assert_eq!(p.blocks().len(), 1, "adjoining blocks coalesce");
        assert_eq!(p.total_len(), 16);
    }

    #[test]
    fn absorb_nonadjacent_stays_separate() {
        let mut p = pool(8);
        p.absorb(AddrBlock::new(Addr::new(100), 8).unwrap())
            .unwrap();
        assert_eq!(p.blocks().len(), 2);
        assert_eq!(p.total_len(), 16);
        assert!(p.owns(Addr::new(104)));
    }

    #[test]
    fn carve_removes_contested_space_and_drains_records() {
        let mut p = pool(16);
        p.allocate(Addr::new(2), 9).unwrap();
        p.allocate(Addr::new(10), 11).unwrap();
        let region = AddrBlock::new(Addr::new(8), 8).unwrap();
        let ceded = p.carve(&region);
        assert_eq!(p.blocks(), &[AddrBlock::new(Addr::new(0), 8).unwrap()]);
        assert_eq!(p.total_len(), 8);
        assert_eq!(ceded.len(), 1);
        assert_eq!(ceded[0].0, Addr::new(10));
        assert!(matches!(ceded[0].1.status, AddrStatus::Allocated(11)));
        // The surviving allocation is untouched.
        assert_eq!(p.table().status(Addr::new(2)), AddrStatus::Allocated(9));
        assert_eq!(p.free_count(), 7);
        // Re-delivering the same cede is a no-op.
        assert!(p.carve(&region).is_empty());
        assert_eq!(p.total_len(), 8);
    }

    #[test]
    fn carve_partial_overlap_splits_block() {
        let mut p = pool(16);
        let region = AddrBlock::new(Addr::new(4), 4).unwrap();
        let ceded = p.carve(&region);
        assert!(ceded.is_empty());
        assert_eq!(
            p.blocks(),
            &[
                AddrBlock::new(Addr::new(0), 4).unwrap(),
                AddrBlock::new(Addr::new(8), 8).unwrap(),
            ]
        );
        assert_eq!(p.total_len(), 12);
        assert!(!p.owns(Addr::new(5)));
    }

    #[test]
    fn carve_everything_leaves_empty_pool() {
        let mut p = pool(8);
        p.allocate_first(1).unwrap();
        let region = AddrBlock::new(Addr::new(0), 8).unwrap();
        let ceded = p.carve(&region);
        assert_eq!(ceded.len(), 1);
        assert_eq!(p.total_len(), 0);
        assert!(p.blocks().is_empty());
        assert_eq!(p.free_count(), 0);
    }

    #[test]
    fn surrender_empties_pool() {
        let mut p = pool(8);
        p.allocate_first(1).unwrap();
        let (blocks, table) = p.surrender();
        assert_eq!(blocks.len(), 1);
        assert_eq!(table.allocated_count(), 1);
        assert_eq!(p.total_len(), 0);
    }

    #[test]
    fn iter_reports_statuses() {
        let mut p = pool(3);
        p.allocate(Addr::new(1), 9).unwrap();
        let statuses: Vec<AddrStatus> = p.iter().map(|(_, s)| s).collect();
        assert_eq!(
            statuses,
            vec![AddrStatus::Free, AddrStatus::Allocated(9), AddrStatus::Free]
        );
    }

    #[test]
    fn free_count_ignores_foreign_records() {
        let mut p = pool(4);
        // A merged foreign record outside the owned blocks must not
        // affect (let alone underflow) the free count.
        p.table_mut().set(Addr::new(100), AddrStatus::Allocated(9));
        assert_eq!(p.free_count(), 4);
        p.allocate(Addr::new(1), 1).unwrap();
        assert_eq!(p.free_count(), 3);
    }

    #[test]
    fn view_accounts_for_every_address() {
        let mut p = pool(8);
        p.allocate(Addr::new(1), 9).unwrap();
        p.allocate(Addr::new(5), 11).unwrap();
        p.release(Addr::new(5)).unwrap(); // vacant counts as free
        let v = p.view();
        assert_eq!(v.total, 8);
        assert_eq!(v.free, 7);
        assert_eq!(v.allocated, vec![(Addr::new(1), 9)]);
        assert_eq!(v.free + v.allocated.len() as u64, v.total);
    }

    #[test]
    fn display_summarizes() {
        let mut p = pool(4);
        p.allocate_first(1).unwrap();
        assert_eq!(p.to_string(), "pool of 4 addresses in 1 blocks (3 free)");
    }
}
