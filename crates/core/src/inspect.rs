//! Inspection and auditing helpers for tests and the experiment harness.

use crate::msg::Msg;
use crate::protocol::Qbac;
use crate::roles::{HeadState, NodeRole};
use addrspace::{Addr, PoolView};
use proto_io::{IdMap, NetBackend, NodeId};

/// A duplicate-address violation found by [`Qbac::audit_unique`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateAddress {
    /// The address assigned twice.
    pub addr: Addr,
    /// First holder.
    pub a: NodeId,
    /// Second holder.
    pub b: NodeId,
}

impl Qbac {
    /// Moves whenever the state [`assigned`](Self::assigned),
    /// [`pool_views`](Self::pool_views) and
    /// [`stamp_views`](Self::stamp_views) read may have changed.
    #[must_use]
    pub fn allocation_version(&self) -> u64 {
        self.roles.version()
    }

    /// Addresses of every alive configured node.
    #[must_use]
    pub fn assigned<B: NetBackend<Msg> + ?Sized>(&self, w: &B) -> Vec<(NodeId, Addr)> {
        let mut v: Vec<(NodeId, Addr)> = self
            .roles_iter()
            .filter(|(n, _)| w.is_alive(*n))
            .filter_map(|(n, r)| r.ip().map(|ip| (n, ip)))
            .collect();
        v.sort_unstable();
        v
    }

    /// Alive cluster heads.
    #[must_use]
    pub fn heads<B: NetBackend<Msg> + ?Sized>(&self, w: &B) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .roles_iter()
            .filter(|(n, r)| w.is_alive(*n) && r.is_head())
            .map(|(n, _)| n)
            .collect();
        v.sort_unstable();
        v
    }

    /// Alive configured common nodes.
    #[must_use]
    pub fn common_nodes<B: NetBackend<Msg> + ?Sized>(&self, w: &B) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .roles_iter()
            .filter(|(n, r)| w.is_alive(*n) && matches!(r, NodeRole::Common(_)))
            .map(|(n, _)| n)
            .collect();
        v.sort_unstable();
        v
    }

    /// Read-only access to a head's full state (for the harness's
    /// Figure 12/13 measurements).
    #[must_use]
    pub fn head(&self, node: NodeId) -> Option<&HeadState> {
        self.head_state(node)
    }

    /// `|QDSet|` of every alive head.
    #[must_use]
    pub fn qdset_sizes<B: NetBackend<Msg> + ?Sized>(&self, w: &B) -> Vec<usize> {
        self.heads(w)
            .into_iter()
            .filter_map(|h| self.head_state(h).map(|s| s.qd_set.len()))
            .collect()
    }

    /// For every alive head, the ratio of its extended space (own +
    /// replicated) to its own space — the Figure 12 quantity.
    #[must_use]
    pub fn extension_ratios<B: NetBackend<Msg> + ?Sized>(&self, w: &B) -> Vec<f64> {
        self.heads(w)
            .into_iter()
            .filter_map(|h| self.head_state(h))
            .filter(|s| s.pool.total_len() > 0)
            .map(|s| s.extended_space() as f64 / s.pool.total_len() as f64)
            .collect()
    }

    /// Checks the core safety property: within one connected component
    /// and one network, no two alive configured nodes share an address.
    ///
    /// # Errors
    ///
    /// Returns all violations found.
    pub fn audit_unique<B: NetBackend<Msg> + ?Sized>(
        &self,
        w: &mut B,
    ) -> Result<(), Vec<DuplicateAddress>> {
        let mut seen: IdMap<(usize, Addr), NodeId> = IdMap::default();
        let mut dups = Vec::new();
        for (n, ip) in self.assigned(w) {
            let Some(comp) = w.component_id(n) else {
                continue;
            };
            match seen.insert((comp, ip), n) {
                Some(prev) if prev != n => dups.push(DuplicateAddress {
                    addr: ip,
                    a: prev,
                    b: n,
                }),
                _ => {}
            }
        }
        if dups.is_empty() {
            Ok(())
        } else {
            Err(dups)
        }
    }

    /// Address-leak audit for chaos studies: of the member records held
    /// by alive heads, how many point at nodes that are no longer alive?
    /// Those addresses stay blocked until reclamation frees them.
    ///
    /// Returns `(leaked, tracked)` record counts.
    #[must_use]
    pub fn leak_audit<B: NetBackend<Msg> + ?Sized>(&self, w: &B) -> (u64, u64) {
        let mut leaked = 0;
        let mut tracked = 0;
        for h in self.heads(w) {
            let Some(state) = self.head_state(h) else {
                continue;
            };
            for holder in state.members.values() {
                tracked += 1;
                if !w.is_alive(*holder) {
                    leaked += 1;
                }
            }
        }
        (leaked, tracked)
    }

    /// For Figure 13: the vanished heads whose state survived. A departed
    /// head's state is preserved if at least half of its `QDSet` is still
    /// alive ("as long as half of the cluster heads in its QDSet exist
    /// ... at least one quorum remains").
    ///
    /// Returns `(preserved, lost)` counts over the given set of heads
    /// that left abruptly.
    #[must_use]
    pub fn preservation_audit<B: NetBackend<Msg> + ?Sized>(
        &self,
        w: &B,
        departed_heads: &[NodeId],
    ) -> (usize, usize) {
        let mut preserved = 0;
        let mut lost = 0;
        for &h in departed_heads {
            let Some(state) = self.head_state(h) else {
                continue; // was not a head when it left
            };
            if state.qd_set.is_empty() {
                lost += 1;
                continue;
            }
            let alive = state.qd_set.keys().filter(|m| w.is_alive(**m)).count();
            // Ceiling half: a quorum (majority with the allocator's copy
            // gone) survives when at least half the replicas remain.
            if 2 * alive >= state.qd_set.len() {
                preserved += 1;
            } else {
                lost += 1;
            }
        }
        (preserved, lost)
    }

    /// Accounting snapshots of every alive head's `IPSpace`, for the
    /// conformance oracle's leak-freedom invariant.
    #[must_use]
    pub fn pool_views<B: NetBackend<Msg> + ?Sized>(&self, w: &B) -> Vec<(NodeId, PoolView)> {
        self.heads(w)
            .into_iter()
            .filter_map(|h| self.head_state(h).map(|s| (h, s.pool.view())))
            .collect()
    }

    /// Every version-stamped allocation record visible to alive heads —
    /// their own tables plus the `QuorumSpace` replicas — keyed by
    /// `(holder, owner, addr)`. The conformance oracle checks that each
    /// key's stamp never decreases between simulator events (§II-C:
    /// stamps are "incrementally increased each time the copy is
    /// updated").
    #[must_use]
    pub fn stamp_views<B: NetBackend<Msg> + ?Sized>(
        &self,
        w: &B,
    ) -> Vec<((NodeId, NodeId, Addr), u64)> {
        let mut v = Vec::new();
        for h in self.heads(w) {
            let Some(state) = self.head_state(h) else {
                continue;
            };
            for (addr, rec) in state.pool.table().iter() {
                v.push(((h, h, addr), rec.stamp.get()));
            }
            for (owner, rs) in &state.quorum_space {
                for (addr, rec) in rs.table.iter() {
                    v.push(((h, *owner, addr), rec.stamp.get()));
                }
            }
        }
        v
    }

    fn roles_iter(&self) -> impl Iterator<Item = (NodeId, &NodeRole)> {
        self.roles.iter().map(|(n, r)| (*n, r))
    }
}
