//! Property-based tests of address-space management.

use addrspace::{Addr, AddrBlock, AddrRecord, AddrStatus, AddressPool, AllocationTable};
use proptest::prelude::*;
use quorum::VersionStamp;

proptest! {
    /// Blocks never overlap after arbitrary split/absorb interleavings,
    /// and the pool's address count is conserved.
    #[test]
    fn pool_split_absorb_conserves(ops in prop::collection::vec(prop::bool::ANY, 0..60)) {
        let total = 1u64 << 12;
        let mut pool = AddressPool::from_block(AddrBlock::new(Addr::new(0), 1 << 12).unwrap());
        let mut lent: Vec<AddrBlock> = Vec::new();
        for op in ops {
            if op {
                if let Ok(b) = pool.split_half() {
                    lent.push(b);
                }
            } else if let Some(b) = lent.pop() {
                pool.absorb(b).unwrap();
            }
        }
        let held: u64 = lent.iter().map(|b| u64::from(b.len())).sum();
        prop_assert_eq!(pool.total_len() + held, total);
        // Owned blocks are pairwise disjoint and disjoint from lent ones.
        let blocks = pool.blocks();
        for (i, a) in blocks.iter().enumerate() {
            for b in blocks.iter().skip(i + 1) {
                prop_assert!(!a.overlaps(b));
            }
            for b in &lent {
                prop_assert!(!a.overlaps(b));
            }
        }
    }

    /// `first_free` always returns an available owned address, and skips
    /// exactly the allocated ones.
    #[test]
    fn first_free_is_correct(allocs in prop::collection::vec(0u32..64, 0..64)) {
        let mut pool = AddressPool::from_block(AddrBlock::new(Addr::new(0), 64).unwrap());
        for a in allocs {
            let _ = pool.allocate(Addr::new(a), 1);
        }
        match pool.first_free() {
            Some(addr) => {
                prop_assert!(pool.owns(addr));
                prop_assert!(pool.table().status(addr).is_available());
                // Nothing below it is available.
                for lower in 0..addr.bits() {
                    prop_assert!(!pool.table().status(Addr::new(lower)).is_available());
                }
            }
            None => prop_assert_eq!(pool.free_count(), 0),
        }
    }

    /// Table merge implements freshest-copy-wins regardless of order.
    #[test]
    fn table_merge_freshest_wins(
        records in prop::collection::vec((0u32..10, 0u64..2, 1u64..50), 1..40),
    ) {
        // Build two tables from interleaved records with distinct stamps.
        let mut left = AllocationTable::new();
        let mut right = AllocationTable::new();
        let mut freshest: std::collections::HashMap<u32, (u64, AddrStatus)> =
            std::collections::HashMap::new();
        for (i, (addr, status_pick, stamp_base)) in records.iter().enumerate() {
            let stamp = stamp_base * 100 + i as u64; // unique
            let status = if *status_pick == 0 {
                AddrStatus::Allocated(i as u64)
            } else {
                AddrStatus::Vacant
            };
            let rec = AddrRecord { status, stamp: VersionStamp::new(stamp) };
            if i % 2 == 0 {
                left.apply(Addr::new(*addr), rec);
            } else {
                right.apply(Addr::new(*addr), rec);
            }
            let e = freshest.entry(*addr).or_insert((0, AddrStatus::Free));
            if stamp > e.0 {
                *e = (stamp, status);
            }
        }
        let mut merged_lr = left.clone();
        merged_lr.merge(&right);
        let mut merged_rl = right.clone();
        merged_rl.merge(&left);
        prop_assert_eq!(&merged_lr, &merged_rl, "merge must commute");
        for (addr, (stamp, status)) in freshest {
            let rec = merged_lr.record(Addr::new(addr));
            prop_assert_eq!(rec.stamp.get(), stamp);
            prop_assert_eq!(rec.status, status);
        }
    }

    /// Display / Ipv4 conversion round-trips.
    #[test]
    fn addr_ipv4_roundtrip(bits in any::<u32>()) {
        let a = Addr::new(bits);
        let ip: std::net::Ipv4Addr = a.into();
        prop_assert_eq!(Addr::from(ip), a);
        prop_assert_eq!(a.to_string(), ip.to_string());
    }
}

// ---------------------------------------------------------------------
// The pool's scans over records vs. the scan over addresses
// ---------------------------------------------------------------------

/// The address-by-address definitions the pool's record-walking scans
/// must agree with: probe `status` for every owned address, in order.
mod by_address {
    use super::*;

    pub fn first_free(pool: &AddressPool) -> Option<Addr> {
        pool.blocks()
            .iter()
            .flat_map(|b| b.iter())
            .find(|a| pool.table().status(*a).is_available())
    }

    pub fn first_free_from(pool: &AddressPool, from: Addr) -> Option<Addr> {
        pool.blocks()
            .iter()
            .flat_map(|b| b.iter())
            .filter(|a| *a >= from)
            .find(|a| pool.table().status(*a).is_available())
            .or_else(|| first_free(pool))
    }

    /// Unavailable addresses among the `len` starting at `base`.
    fn taken(pool: &AddressPool, base: Addr, len: u32) -> usize {
        (0..len)
            .filter(|k| !pool.table().status(base.offset(*k)).is_available())
            .count()
    }

    /// `(taken in the lower half, taken in the upper half)` of `b`.
    fn taken_halves(pool: &AddressPool, b: &AddrBlock) -> (usize, usize) {
        let half = b.len() / 2;
        (
            taken(pool, b.base(), half),
            taken(pool, b.base().offset(b.len() - half), half),
        )
    }

    /// The block `split_half` hands over and what the pool keeps.
    pub fn split_half(pool: &AddressPool) -> Option<(AddrBlock, Vec<AddrBlock>)> {
        let mut best: Option<(usize, bool)> = None;
        for (i, b) in pool.blocks().iter().enumerate() {
            if b.len() < 2 {
                continue;
            }
            let (lower, upper) = taken_halves(pool, b);
            if (upper == 0 || lower == 0)
                && best.is_none_or(|(j, _)| b.len() > pool.blocks()[j].len())
            {
                best = Some((i, upper == 0));
            }
        }
        best.map(|(i, upper)| give(pool, i, upper))
    }

    /// The same for `split_half_carrying`; the records that ride along
    /// are the table's records inside the block handed over.
    pub fn split_half_carrying(pool: &AddressPool) -> Option<(AddrBlock, Vec<AddrBlock>)> {
        if let Some(clean) = split_half(pool) {
            return Some(clean);
        }
        let (i, b) = pool
            .blocks()
            .iter()
            .enumerate()
            .filter(|(_, b)| b.len() >= 2)
            .max_by_key(|(_, b)| b.len())?;
        let (lower, upper) = taken_halves(pool, b);
        Some(give(pool, i, upper <= lower))
    }

    /// Splits block `i` on the given side: `(handed over, kept, sorted)`.
    fn give(pool: &AddressPool, i: usize, upper: bool) -> (AddrBlock, Vec<AddrBlock>) {
        let mut kept = pool.blocks().to_vec();
        let half = if upper {
            kept[i].split_half().unwrap()
        } else {
            kept[i].split_half_lower().unwrap()
        };
        kept.sort();
        (half, kept)
    }
}

proptest! {
    /// `first_free`, `first_free_from` (wrap included), `split_half` and
    /// `split_half_carrying` answer like the address-by-address scans on
    /// pools of one to four blocks, with allocated, vacant and
    /// materialized-free records inside the blocks, in the gaps between
    /// them and beyond both ends, and `from` anywhere from below the
    /// first block to above the last.
    #[test]
    fn record_scans_equal_address_scans(
        start in 0u32..20,
        layout in prop::collection::vec((0u32..40, 1u32..48), 1..5),
        records in prop::collection::vec((0u32..420, 0u8..4), 0..160),
        dense in prop::bool::ANY,
        froms in prop::collection::vec(0u32..420, 1..12),
    ) {
        let mut pool = AddressPool::new();
        let mut next = start;
        for &(gap, len) in &layout {
            // A zero gap adjoins the previous block and coalesces.
            pool.absorb(AddrBlock::new(Addr::new(next + gap), len).unwrap()).unwrap();
            next += gap + len;
        }
        for &(addr, kind) in &records {
            let status = match kind {
                0 | 1 => AddrStatus::Allocated(u64::from(addr)),
                2 => AddrStatus::Vacant,
                _ => AddrStatus::Free,
            };
            pool.table_mut().set(Addr::new(addr), status);
        }
        if dense {
            // Exhaust the lowest block, so scans must leave it.
            let lowest = pool.blocks()[0];
            for a in lowest.iter() {
                pool.table_mut().set(a, AddrStatus::Allocated(1));
            }
        }
        prop_assert_eq!(pool.first_free(), by_address::first_free(&pool));
        for from in froms.into_iter().chain([0, next, u32::MAX]) {
            let from = Addr::new(from);
            prop_assert_eq!(
                pool.first_free_from(from),
                by_address::first_free_from(&pool, from),
                "from {}", from
            );
        }
        let mut split = pool.clone();
        match by_address::split_half(&pool) {
            Some((half, kept)) => {
                prop_assert_eq!(split.split_half(), Ok(half));
                prop_assert_eq!(split.blocks(), &kept[..]);
            }
            None => prop_assert!(split.split_half().is_err()),
        }
        let mut carrying = pool.clone();
        match by_address::split_half_carrying(&pool) {
            Some((half, kept)) => {
                let carried: Vec<_> = match by_address::split_half(&pool) {
                    Some(_) => Vec::new(),
                    None => pool.table().iter().filter(|(a, _)| half.contains(*a)).collect(),
                };
                prop_assert_eq!(carrying.split_half_carrying(), Ok((half, carried)));
                prop_assert_eq!(carrying.blocks(), &kept[..]);
            }
            None => prop_assert!(carrying.split_half_carrying().is_err()),
        }
    }
}

/// The range helpers at the edges a block never reaches: an inverted
/// range, and a run of taken addresses ending at `Addr::MAX`.
#[test]
fn table_range_helpers_at_the_edges() {
    let mut t = AllocationTable::new();
    t.set(Addr::MAX, AddrStatus::Allocated(1));
    t.set(Addr::new(5), AddrStatus::Allocated(2));
    t.set(Addr::new(6), AddrStatus::Vacant);
    assert_eq!(t.first_available_in(Addr::MAX, Addr::MAX), None);
    assert_eq!(t.first_available_in(Addr::new(5), Addr::new(5)), None);
    assert_eq!(
        t.first_available_in(Addr::new(5), Addr::new(9)),
        Some(Addr::new(6))
    );
    assert_eq!(t.first_available_in(Addr::new(9), Addr::new(5)), None);
    assert!(!t.any_unavailable_in(Addr::new(9), Addr::new(5)));
    assert!(!t.any_unavailable_in(Addr::new(6), Addr::new(100)));
    assert_eq!(t.unavailable_in(Addr::MIN, Addr::MAX).count(), 2);
}
