use crate::{Addr, AddrSpaceError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A contiguous, non-empty range of IPv4 addresses `[base, base + len)`.
///
/// Blocks are the unit of delegation between cluster heads: when a node
/// becomes a new cluster head, its allocator "assigns half its IP block
/// after quorum collection" (§IV-B). [`AddrBlock::split_half`] implements
/// that halving.
///
/// # Example
///
/// ```
/// use addrspace::{Addr, AddrBlock};
///
/// let mut block = AddrBlock::new(Addr::new(0), 100)?;
/// let upper = block.split_half()?;
/// assert_eq!(block.len(), 50);
/// assert_eq!(upper.base(), Addr::new(50));
/// assert_eq!(upper.len(), 50);
/// # Ok::<(), addrspace::AddrSpaceError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AddrBlock {
    base: Addr,
    len: u32,
}

/// The stock address space every protocol allocates from unless told
/// otherwise: 10.0.0.0 with 2^16 addresses, plenty for the paper's 200
/// nodes and for each shard of a city-scale storm, while keeping block
/// arithmetic visible in traces.
pub const STOCK_SPACE: AddrBlock = AddrBlock {
    base: Addr::new(0x0A00_0000),
    len: 1 << 16,
};

impl AddrBlock {
    /// Creates a block of `len` addresses starting at `base`.
    ///
    /// # Errors
    ///
    /// Returns [`AddrSpaceError::InvalidBlock`] if `len == 0` or the range
    /// would overflow the 32-bit address space.
    pub fn new(base: Addr, len: u32) -> Result<Self, AddrSpaceError> {
        if len == 0 || base.bits().checked_add(len - 1).is_none() {
            return Err(AddrSpaceError::InvalidBlock);
        }
        Ok(AddrBlock { base, len })
    }

    /// First address of the block. A newly promoted cluster head is
    /// "configured with the first address of the IP block" (§IV-B).
    #[must_use]
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Number of addresses in the block.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Blocks are never empty, so this is always `false`; provided for
    /// idiom completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Last address of the block (inclusive).
    #[must_use]
    pub fn last(&self) -> Addr {
        self.base.offset(self.len - 1)
    }

    /// Returns `true` if `addr` lies inside the block.
    #[must_use]
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr <= self.last()
    }

    /// Returns `true` if the blocks share any address.
    #[must_use]
    pub fn overlaps(&self, other: &AddrBlock) -> bool {
        self.base <= other.last() && other.base <= self.last()
    }

    /// The range shared with `other`, or `None` when the blocks are
    /// disjoint.
    #[must_use]
    pub fn intersect(&self, other: &AddrBlock) -> Option<AddrBlock> {
        let base = self.base.max(other.base);
        let last = self.last().min(other.last());
        if base > last {
            return None;
        }
        Some(AddrBlock {
            base,
            len: last.bits() - base.bits() + 1,
        })
    }

    /// The parts of `self` not covered by `other`: zero, one, or two
    /// pieces (the sub-ranges below and above `other`), in address
    /// order. Returns the whole of `self` when the blocks are disjoint.
    #[must_use]
    pub fn subtract(&self, other: &AddrBlock) -> Vec<AddrBlock> {
        if !self.overlaps(other) {
            return vec![*self];
        }
        let mut pieces = Vec::new();
        if self.base < other.base {
            pieces.push(AddrBlock {
                base: self.base,
                len: other.base.bits() - self.base.bits(),
            });
        }
        if self.last() > other.last() {
            let base = other.last().offset(1);
            pieces.push(AddrBlock {
                base,
                len: self.last().bits() - base.bits() + 1,
            });
        }
        pieces
    }

    /// Returns `true` if `other` starts exactly where `self` ends, so the
    /// two can be coalesced.
    #[must_use]
    pub fn adjoins(&self, other: &AddrBlock) -> bool {
        self.last().checked_offset(1) == Some(other.base)
            || other.last().checked_offset(1) == Some(self.base)
    }

    /// Splits off the upper half, keeping the lower half in `self`.
    /// For odd lengths the upper half receives `len/2` addresses (the
    /// donor keeps the extra one).
    ///
    /// # Errors
    ///
    /// Returns [`AddrSpaceError::InvalidBlock`] if the block holds a
    /// single address and cannot be split.
    pub fn split_half(&mut self) -> Result<AddrBlock, AddrSpaceError> {
        if self.len < 2 {
            return Err(AddrSpaceError::InvalidBlock);
        }
        let upper_len = self.len / 2;
        let lower_len = self.len - upper_len;
        let upper = AddrBlock {
            base: self.base.offset(lower_len),
            len: upper_len,
        };
        self.len = lower_len;
        Ok(upper)
    }

    /// Splits off the lower half, keeping the upper half in `self`.
    /// For odd lengths the lower half receives `len/2` addresses (the
    /// donor keeps the extra one).
    ///
    /// # Errors
    ///
    /// Returns [`AddrSpaceError::InvalidBlock`] if the block holds a
    /// single address and cannot be split.
    pub fn split_half_lower(&mut self) -> Result<AddrBlock, AddrSpaceError> {
        if self.len < 2 {
            return Err(AddrSpaceError::InvalidBlock);
        }
        let lower_len = self.len / 2;
        let lower = AddrBlock {
            base: self.base,
            len: lower_len,
        };
        self.base = self.base.offset(lower_len);
        self.len -= lower_len;
        Ok(lower)
    }

    /// Merges an adjoining block into this one.
    ///
    /// # Errors
    ///
    /// Returns [`AddrSpaceError::InvalidBlock`] if the blocks do not
    /// adjoin.
    pub fn coalesce(&mut self, other: AddrBlock) -> Result<(), AddrSpaceError> {
        if !self.adjoins(&other) {
            return Err(AddrSpaceError::InvalidBlock);
        }
        self.base = self.base.min(other.base);
        self.len += other.len;
        Ok(())
    }

    /// Iterates over every address in the block, in order.
    pub fn iter(&self) -> impl Iterator<Item = Addr> + '_ {
        (0..self.len).map(move |i| self.base.offset(i))
    }
}

impl fmt::Display for AddrBlock {
    /// Formats as `base+len`, e.g. `10.0.0.0+256`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}", self.base, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_overflowing() {
        assert_eq!(
            AddrBlock::new(Addr::new(0), 0).unwrap_err(),
            AddrSpaceError::InvalidBlock
        );
        assert_eq!(
            AddrBlock::new(Addr::MAX, 2).unwrap_err(),
            AddrSpaceError::InvalidBlock
        );
        // Exactly reaching MAX is fine.
        assert!(AddrBlock::new(Addr::MAX, 1).is_ok());
        assert!(AddrBlock::new(Addr::new(u32::MAX - 9), 10).is_ok());
    }

    #[test]
    fn bounds_and_contains() {
        let b = AddrBlock::new(Addr::new(100), 10).unwrap();
        assert_eq!(b.base(), Addr::new(100));
        assert_eq!(b.last(), Addr::new(109));
        assert!(b.contains(Addr::new(100)));
        assert!(b.contains(Addr::new(109)));
        assert!(!b.contains(Addr::new(99)));
        assert!(!b.contains(Addr::new(110)));
    }

    #[test]
    fn split_even_length() {
        let mut b = AddrBlock::new(Addr::new(0), 8).unwrap();
        let upper = b.split_half().unwrap();
        assert_eq!(b.len(), 4);
        assert_eq!(upper.base(), Addr::new(4));
        assert_eq!(upper.len(), 4);
    }

    #[test]
    fn split_odd_length_donor_keeps_extra() {
        let mut b = AddrBlock::new(Addr::new(0), 9).unwrap();
        let upper = b.split_half().unwrap();
        assert_eq!(b.len(), 5);
        assert_eq!(upper.len(), 4);
        assert_eq!(upper.base(), Addr::new(5));
    }

    #[test]
    fn split_lower_even_and_odd() {
        let mut b = AddrBlock::new(Addr::new(0), 8).unwrap();
        let lower = b.split_half_lower().unwrap();
        assert_eq!(lower, AddrBlock::new(Addr::new(0), 4).unwrap());
        assert_eq!(b, AddrBlock::new(Addr::new(4), 4).unwrap());

        let mut odd = AddrBlock::new(Addr::new(0), 9).unwrap();
        let lower = odd.split_half_lower().unwrap();
        assert_eq!(lower.len(), 4);
        assert_eq!(odd.len(), 5);
        assert_eq!(odd.base(), Addr::new(4));
    }

    #[test]
    fn split_singleton_fails() {
        let mut b = AddrBlock::new(Addr::new(0), 1).unwrap();
        assert!(b.split_half().is_err());
        assert_eq!(b.len(), 1, "failed split must not shrink the block");
    }

    #[test]
    fn repeated_splits_never_lose_addresses() {
        let mut b = AddrBlock::new(Addr::new(0), 1000).unwrap();
        let mut total = 0u32;
        while let Ok(upper) = b.split_half() {
            total += upper.len();
            assert!(!b.overlaps(&upper));
        }
        assert_eq!(b.len() + total, 1000);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn overlap_detection() {
        let a = AddrBlock::new(Addr::new(0), 10).unwrap();
        let b = AddrBlock::new(Addr::new(9), 5).unwrap();
        let c = AddrBlock::new(Addr::new(10), 5).unwrap();
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(a.adjoins(&c));
        assert!(c.adjoins(&a));
        assert!(!a.adjoins(&b));
    }

    #[test]
    fn intersect_shared_range() {
        let a = AddrBlock::new(Addr::new(0), 10).unwrap();
        let b = AddrBlock::new(Addr::new(5), 10).unwrap();
        assert_eq!(
            a.intersect(&b),
            Some(AddrBlock::new(Addr::new(5), 5).unwrap())
        );
        assert_eq!(b.intersect(&a), a.intersect(&b));
        // Nested: the smaller block.
        let inner = AddrBlock::new(Addr::new(2), 3).unwrap();
        assert_eq!(a.intersect(&inner), Some(inner));
        // Disjoint: nothing.
        let far = AddrBlock::new(Addr::new(50), 5).unwrap();
        assert_eq!(a.intersect(&far), None);
        // Identical: the block itself.
        assert_eq!(a.intersect(&a), Some(a));
    }

    #[test]
    fn subtract_leaves_uncovered_pieces() {
        let a = AddrBlock::new(Addr::new(10), 10).unwrap(); // [10, 19]
                                                            // Middle bite → two pieces.
        let mid = AddrBlock::new(Addr::new(13), 3).unwrap();
        assert_eq!(
            a.subtract(&mid),
            vec![
                AddrBlock::new(Addr::new(10), 3).unwrap(),
                AddrBlock::new(Addr::new(16), 4).unwrap(),
            ]
        );
        // Prefix bite → one upper piece.
        let prefix = AddrBlock::new(Addr::new(5), 8).unwrap();
        assert_eq!(
            a.subtract(&prefix),
            vec![AddrBlock::new(Addr::new(13), 7).unwrap()]
        );
        // Full cover → nothing left.
        assert!(a.subtract(&a).is_empty());
        let cover = AddrBlock::new(Addr::new(0), 100).unwrap();
        assert!(a.subtract(&cover).is_empty());
        // Disjoint → unchanged.
        let far = AddrBlock::new(Addr::new(50), 5).unwrap();
        assert_eq!(a.subtract(&far), vec![a]);
        // subtract ∪ intersect always re-covers the block exactly.
        for bite in [mid, prefix, cover, far] {
            let mut total: u64 = a.subtract(&bite).iter().map(|p| u64::from(p.len())).sum();
            if let Some(i) = a.intersect(&bite) {
                total += u64::from(i.len());
            }
            assert_eq!(total, u64::from(a.len()));
        }
    }

    #[test]
    fn coalesce_adjoining() {
        let mut a = AddrBlock::new(Addr::new(10), 5).unwrap();
        let b = AddrBlock::new(Addr::new(15), 5).unwrap();
        a.coalesce(b).unwrap();
        assert_eq!(a, AddrBlock::new(Addr::new(10), 10).unwrap());

        // Also in the other direction.
        let mut hi = AddrBlock::new(Addr::new(20), 4).unwrap();
        let lo = AddrBlock::new(Addr::new(16), 4).unwrap();
        hi.coalesce(lo).unwrap();
        assert_eq!(hi, AddrBlock::new(Addr::new(16), 8).unwrap());
    }

    #[test]
    fn coalesce_disjoint_fails() {
        let mut a = AddrBlock::new(Addr::new(0), 5).unwrap();
        let b = AddrBlock::new(Addr::new(6), 5).unwrap();
        assert!(a.coalesce(b).is_err());
    }

    #[test]
    fn iter_yields_all_in_order() {
        let b = AddrBlock::new(Addr::new(5), 3).unwrap();
        let addrs: Vec<Addr> = b.iter().collect();
        assert_eq!(addrs, vec![Addr::new(5), Addr::new(6), Addr::new(7)]);
    }

    #[test]
    fn display_format() {
        let b = AddrBlock::new(Addr::new(0x0A00_0000), 256).unwrap();
        assert_eq!(b.to_string(), "10.0.0.0+256");
    }
}
