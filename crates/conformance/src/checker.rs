//! The step-wise invariant checker.

use crate::adapter::{ConformanceAdapter, Guarantees};
use addrspace::{Addr, AddrBlock, PoolView};
use manet_sim::{NodeId, SimDuration, SimTime, World};
use proto_io::IdMap;
use std::fmt;
use std::hash::Hash;

/// How long two mutually reachable nodes may keep a conflicting claim —
/// overlapping owned blocks, or one address held twice — before the
/// checker flags it. A partition legally duplicates state (each side
/// reclaims the unreachable side's space and re-grants from it, §IV-D);
/// once the parties are back in contact the merge machinery —
/// hello-driven detection, a quorum vote, the `OWN_CLAIM` / `OWN_GRANT`
/// exchange, and the forced re-init of a displaced address holder —
/// needs a few protocol rounds to restore consistency.
const RECONCILE_GRACE: SimDuration = SimDuration::from_secs(5);

/// The four conformance invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// No duplicate addresses within a connected component.
    AddrUnique,
    /// Leak-freedom: pool accounting, block disjointness, and
    /// assigned-address coverage.
    PoolConserved,
    /// Quorum-grant monotonicity: a configured address never changes
    /// in place.
    GrantStable,
    /// Replica version stamps never decrease.
    StampMonotonic,
}

impl Invariant {
    /// Stable name used in artifacts and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Invariant::AddrUnique => "addr-unique",
            Invariant::PoolConserved => "pool-conserved",
            Invariant::GrantStable => "grant-stable",
            Invariant::StampMonotonic => "stamp-monotonic",
        }
    }

    /// Inverse of [`Invariant::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Invariant> {
        Some(match name {
            "addr-unique" => Invariant::AddrUnique,
            "pool-conserved" => Invariant::PoolConserved,
            "grant-stable" => Invariant::GrantStable,
            "stamp-monotonic" => Invariant::StampMonotonic,
            _ => return None,
        })
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How close a clean run came to tripping a grace-windowed invariant:
/// the longest time each family of reconcilable conflict (duplicate
/// holders, overlapping owner blocks, uncovered assignments) stood
/// while its parties were mutually reachable. A run whose standing
/// times approach `RECONCILE_GRACE` nearly violated; the fuzzer uses
/// these distances as coverage signal to steer toward the boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NearMiss {
    /// Longest a duplicate address stood between reachable holders.
    pub dup_standing: SimDuration,
    /// Longest two reachable owners held overlapping blocks.
    pub contested_standing: SimDuration,
    /// Longest an assigned address went unbacked by a reachable
    /// owner's allocation record.
    pub uncovered_standing: SimDuration,
}

/// One invariant violation, pinned to the simulator event (step) after
/// which it was observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Events dispatched before the violating state was observed.
    pub step: u64,
    /// Which invariant broke.
    pub invariant: Invariant,
    /// Human-readable single-line description.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step {}: {}: {}", self.step, self.invariant, self.detail)
    }
}

/// When each standing conflict of one family first had its parties in
/// contact. A pass [`tick`](Grace::tick)s the conflicts it can see into
/// `live`; a clean pass ends by making that `since`, so a conflict not
/// ticked has lapsed (its clock restarts on the next contact) and a
/// violation leaves the clocks as the failing step found them.
#[derive(Debug, Default)]
struct Grace<K> {
    since: IdMap<K, SimTime>,
    live: IdMap<K, SimTime>,
}

impl<K: Eq + Hash> Grace<K> {
    /// Keeps `key`'s clock running, started at `now` on first sight, and
    /// raises `worst` to how long it has stood: an error once that is
    /// past [`RECONCILE_GRACE`].
    fn tick(&mut self, key: K, now: SimTime, worst: &mut SimDuration) -> Result<(), SimDuration> {
        let since = self.since.get(&key).copied().unwrap_or(now);
        *worst = (*worst).max(now - since);
        if now - since > RECONCILE_GRACE {
            self.live.clear();
            return Err(now - since);
        }
        self.live.insert(key, since);
        Ok(())
    }

    fn commit(&mut self) {
        std::mem::swap(&mut self.since, &mut self.live);
        self.live.clear();
    }
}

/// `true` when `key` strictly ascends along `v`: sorted, no key twice.
fn ascending<T, K: Ord>(v: &[T], key: impl Fn(&T) -> K) -> bool {
    v.windows(2).all(|p| key(&p[0]) < key(&p[1]))
}

/// `true` when `a` and `b` can exchange messages: alive, in one radio
/// component, and not kept apart by a scripted partition or jam.
fn in_contact<M: Clone + fmt::Debug>(w: &mut World<M>, a: NodeId, b: NodeId) -> bool {
    let comp = w.component_id(a);
    comp.is_some() && comp == w.component_id(b) && !w.fault_severed(a, b)
}

/// Evaluates the invariant set after every simulator event, at the cost
/// of what changed since the event before.
///
/// It keeps the previous step's three adapter views: what `grant-stable`
/// and `stamp-monotonic` compare against, and the memo key of the rest.
/// Most steps do not build them at all: when the adapter's
/// [`views_generation`](ConformanceAdapter::views_generation) and the
/// world's [`roster_version`](World::roster_version) are the pair the
/// last clean check stored, nothing the views read was written since,
/// so they are the stored ones (debug builds rebuild them anyway and
/// assert that). Such a step still walks the candidate lists below, so
/// grace clocks keep maturing. The pair is stored only on `Ok`, so a
/// step after a violation always rebuilds.
///
/// A view is a deterministic function of protocol state, so
/// `grant-stable` (reads `assigned`), pool accounting (`views`) and
/// `stamp-monotonic` (`stamps`) run only on a step whose view differs
/// from the one before; a violation leaves the stored view alone, so
/// the next call re-reports it. `addr-unique`, cross-owner disjointness
/// and `assigned-covered` also read connectivity and the clock, but only
/// about the parties of a *candidate* — an address held twice anywhere,
/// two owners with overlapping blocks, an assignment without its owner's
/// record. The candidate lists are functions of the views alone, rebuilt
/// when those change and walked on every step: an empty list is the
/// whole skip, while a standing candidate, in contact or excused by a
/// partition, is asked about every step, so its grace clock starts on
/// contact and matures with `now` whether or not any view moves.
/// (DESIGN.md, *Conformance oracle — Cost*.)
#[derive(Debug, Default)]
pub struct Checker {
    g: Guarantees,
    assigned: Vec<(NodeId, Addr)>,
    views: Vec<(NodeId, PoolView)>,
    stamps: Vec<((NodeId, NodeId, Addr), u64)>,
    /// The entries of `assigned` whose address another entry holds too.
    dup_cands: Vec<(NodeId, Addr)>,
    /// Owner pairs of `views` with overlapping blocks, and the first
    /// such pair of blocks.
    overlaps: Vec<(NodeId, NodeId, AddrBlock, AddrBlock)>,
    /// `(owner, holder, addr)`: assignments inside an owner's blocks
    /// with no `Allocated` record there. Total head loss produces these
    /// legally: a restarted founder claims the whole space before the
    /// merge machinery re-registers the survivors' leases.
    gaps: Vec<(NodeId, NodeId, Addr)>,
    /// `gaps` predates the stored `assigned` or `views`.
    gaps_stale: bool,
    /// Holder pairs of one address in contact: the merge repair must
    /// displace one within [`RECONCILE_GRACE`].
    dup_holders: Grace<(Addr, NodeId, NodeId)>,
    /// Owner pairs of `overlaps` in contact.
    contested: Grace<(NodeId, NodeId)>,
    /// Entries of `gaps` whose owner and holder are in contact.
    uncovered: Grace<(NodeId, NodeId, Addr)>,
    near_miss: NearMiss,
    /// `(views_generation, roster_version)` at the last clean check;
    /// `None` before one, after a violation, or for an adapter that
    /// does not track its state.
    clean_at: Option<(u64, u64)>,
    /// Checks that built the views.
    rebuilds: u64,
}

impl Checker {
    /// A checker holding the protocol to the given guarantee envelope.
    #[must_use]
    pub fn new(g: Guarantees) -> Self {
        Checker {
            g,
            ..Checker::default()
        }
    }

    /// The worst grace-window proximity observed so far (see
    /// [`NearMiss`]).
    #[must_use]
    pub fn near_miss(&self) -> NearMiss {
        self.near_miss
    }

    /// How many checks built the adapter views; the rest found the
    /// state they read unwritten and reused the stored ones.
    #[must_use]
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// `true` when some claimed invariant reads the pool views.
    fn reads_pools(&self) -> bool {
        self.g.pool_accounting || self.g.pool_disjoint || self.g.assigned_covered
    }

    /// The views `p` shows now are the stored ones: what a skipped step
    /// takes on trust.
    fn assert_views_stored<P: ConformanceAdapter>(&self, w: &World<P::Msg>, p: &P) {
        let stale = "a view changed while its generation and the roster stood still";
        assert_eq!(p.assigned_pairs(w), self.assigned, "{stale}");
        if self.reads_pools() {
            assert_eq!(p.pool_views(w), self.views, "{stale}");
        }
        if self.g.stamps_monotonic {
            assert_eq!(p.stamp_views(w), self.stamps, "{stale}");
        }
    }

    /// Checks every claimed invariant against the current state.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, pinned to `step`.
    pub fn check<P: ConformanceAdapter>(
        &mut self,
        step: u64,
        w: &mut World<P::Msg>,
        p: &P,
    ) -> Result<(), Violation> {
        let fail = |invariant, detail| {
            Err(Violation {
                step,
                invariant,
                detail,
            })
        };
        let now = w.now();
        let key = p.views_generation().map(|g| (g, w.roster_version()));
        let rebuild = key.is_none() || key != self.clean_at.take();
        if rebuild {
            self.rebuilds += 1;
        } else if cfg!(debug_assertions) {
            self.assert_views_stored(w, p);
        }

        let changed = rebuild.then(|| p.assigned_pairs(w));
        if let Some(assigned) = changed.filter(|a| *a != self.assigned) {
            debug_assert!(ascending(&assigned, |e| e.0), "assigned_pairs unsorted");
            if self.g.grant_stable {
                // Nodes that died or re-initialized are missing from one
                // side, so a later re-assignment is legal; only an
                // in-place change is flagged.
                let mut before = self.assigned.iter().peekable();
                for (n, a) in &assigned {
                    while before.next_if(|(m, _)| m < n).is_some() {}
                    if let Some((_, prev)) = before.next_if(|(m, prev)| m == n && prev != a) {
                        let n = n.index();
                        return fail(
                            Invariant::GrantStable,
                            format!("node {n} changed address {prev} -> {a} without re-joining"),
                        );
                    }
                }
            }
            if self.g.unique {
                let mut addrs: Vec<Addr> = assigned.iter().map(|(_, a)| *a).collect();
                addrs.sort_unstable();
                let held_twice = |a: &Addr| {
                    let first = addrs.partition_point(|x| x < a);
                    addrs.get(first + 1) == Some(a)
                };
                self.dup_cands.clear();
                let twice = assigned.iter().filter(|(_, a)| held_twice(a));
                self.dup_cands.extend(twice);
            }
            self.assigned = assigned;
            self.gaps_stale = true;
        }

        if self.g.unique {
            for (i, &(n, a)) in self.dup_cands.iter().enumerate() {
                let Some(comp) = w.component_id(n) else {
                    continue;
                };
                // `n` collides with the latest holder before it, in node
                // order, in its own component.
                let mut earlier = self.dup_cands[..i].iter().rev();
                let Some(&(prev, _)) =
                    earlier.find(|(m, b)| *b == a && w.component_id(*m) == Some(comp))
                else {
                    continue;
                };
                let (pi, ni) = (prev.index(), n.index());
                let held = || format!("address {a} held by nodes {pi} and {ni} in one partition");
                if !self.g.merge_grace {
                    return fail(Invariant::AddrUnique, held());
                }
                // While a fault keeps the holders apart the duplicate is
                // the paper's accepted cross-partition double allocation;
                // the merge repair must displace one within
                // RECONCILE_GRACE of the pair coming into contact.
                if w.fault_severed(prev, n) {
                    continue;
                }
                let worst = &mut self.near_miss.dup_standing;
                if let Err(stood) = self.dup_holders.tick((a, prev, n), now, worst) {
                    return fail(
                        Invariant::AddrUnique,
                        format!("{} {stood} after becoming mutually reachable", held()),
                    );
                }
            }
            self.dup_holders.commit();
        }

        if self.reads_pools() {
            let changed = rebuild.then(|| p.pool_views(w));
            if let Some(views) = changed.filter(|v| *v != self.views) {
                debug_assert!(ascending(&views, |e| e.0), "pool_views unsorted");
                if self.g.pool_accounting {
                    for (owner, v) in &views {
                        let (owner, free, held) = (owner.index(), v.free, v.allocated.len());
                        if free + held as u64 != v.total {
                            return fail(
                                Invariant::PoolConserved,
                                format!(
                                    "owner {owner}: {free} free + {held} allocated != {} total",
                                    v.total
                                ),
                            );
                        }
                        for (i, b) in v.blocks.iter().enumerate() {
                            if let Some(other) = v.blocks[i + 1..].iter().find(|o| b.overlaps(o)) {
                                return fail(
                                    Invariant::PoolConserved,
                                    format!("owner {owner}: own blocks {b} and {other} overlap"),
                                );
                            }
                        }
                    }
                }
                self.overlaps.clear();
                if self.g.pool_disjoint {
                    for (i, (owner_a, va)) in views.iter().enumerate() {
                        for (owner_b, vb) in &views[i + 1..] {
                            let overlap = va.blocks.iter().find_map(|ba| {
                                let bb = vb.blocks.iter().find(|bb| ba.overlaps(bb))?;
                                Some((*owner_a, *owner_b, *ba, *bb))
                            });
                            self.overlaps.extend(overlap);
                        }
                    }
                }
                self.views = views;
                self.gaps_stale = true;
            }

            // While a fault keeps two owners apart, duplicated ownership
            // is the paper's intended §IV-D behavior (the majority side
            // reclaimed the unreachable head's space). Once they are in
            // contact, reconciliation must restore disjointness within
            // RECONCILE_GRACE.
            for &(owner_a, owner_b, ba, bb) in &self.overlaps {
                let (ai, bi) = (owner_a.index(), owner_b.index());
                if !self.g.merge_grace {
                    return fail(
                        Invariant::PoolConserved,
                        format!("owners {ai} and {bi} own overlapping blocks {ba} / {bb}"),
                    );
                }
                if !in_contact(w, owner_a, owner_b) {
                    continue;
                }
                let worst = &mut self.near_miss.contested_standing;
                if let Err(stood) = self.contested.tick((owner_a, owner_b), now, worst) {
                    return fail(
                        Invariant::PoolConserved,
                        format!(
                            "owners {ai} and {bi} still own overlapping blocks {ba} / {bb} \
                             {stood} after becoming mutually reachable"
                        ),
                    );
                }
            }
            self.contested.commit();

            if self.g.assigned_covered && self.gaps_stale {
                self.gaps.clear();
                for (owner, v) in &self.views {
                    debug_assert!(ascending(&v.allocated, |e| e.0), "allocated unsorted");
                    let gap = |a: Addr| {
                        v.blocks.iter().any(|b| b.contains(a))
                            && v.allocated.binary_search_by_key(&a, |(x, _)| *x).is_err()
                    };
                    let holders = self.assigned.iter().filter(|(_, a)| gap(*a));
                    self.gaps.extend(holders.map(|(n, a)| (*owner, *n, *a)));
                }
                self.gaps_stale = false;
            }
            // A gap is not always a leak: the hello-driven merge
            // re-registers a fresh founder's survivors within a few
            // protocol rounds (measured ~0.5 s), so under merge-grace
            // envelopes the gap must close within RECONCILE_GRACE of
            // owner and holder coming into contact. (`gaps` stays empty
            // unless `assigned-covered` is claimed.)
            for &(owner, n, a) in &self.gaps {
                let (oi, ni) = (owner.index(), n.index());
                if !self.g.merge_grace {
                    return fail(
                        Invariant::PoolConserved,
                        format!(
                            "node {ni} holds {a} but owner {oi}'s pool has no allocation for it"
                        ),
                    );
                }
                if !in_contact(w, owner, n) {
                    continue;
                }
                let worst = &mut self.near_miss.uncovered_standing;
                if let Err(stood) = self.uncovered.tick((owner, n, a), now, worst) {
                    return fail(
                        Invariant::PoolConserved,
                        format!(
                            "node {ni} still holds {a} with no allocation in owner {oi}'s \
                             pool {stood} after becoming mutually reachable"
                        ),
                    );
                }
            }
            self.uncovered.commit();
        }

        if self.g.stamps_monotonic && rebuild {
            let stamps = p.stamp_views(w);
            if stamps != self.stamps {
                // The step before's records, in key order for lookup. A
                // vanished holder (crashed head) retires its records; a
                // revived node legitimately restarts from stamp zero.
                self.stamps.sort_unstable();
                debug_assert!(
                    ascending(&self.stamps, |e| e.0),
                    "stamp_views repeats a key"
                );
                for &(key, s) in &stamps {
                    let Ok(at) = self.stamps.binary_search_by_key(&key, |(k, _)| *k) else {
                        continue;
                    };
                    let prev = self.stamps[at].1;
                    if s < prev {
                        let (holder, owner, addr) = (key.0.index(), key.1.index(), key.2);
                        return fail(
                            Invariant::StampMonotonic,
                            format!(
                                "stamp for {addr} (owner {owner}) regressed {prev} -> {s} \
                                 on holder {holder}"
                            ),
                        );
                    }
                }
                self.stamps = stamps;
            }
        }

        self.clean_at = key;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invariant_names_round_trip() {
        for inv in [
            Invariant::AddrUnique,
            Invariant::PoolConserved,
            Invariant::GrantStable,
            Invariant::StampMonotonic,
        ] {
            assert_eq!(Invariant::from_name(inv.name()), Some(inv));
        }
        assert_eq!(Invariant::from_name("bogus"), None);
    }

    #[test]
    fn violation_displays_all_fields() {
        let v = Violation {
            step: 17,
            invariant: Invariant::AddrUnique,
            detail: "x".into(),
        };
        assert_eq!(v.to_string(), "step 17: addr-unique: x");
    }
}
