//! Network partition and merging (§V-C).
//!
//! Partitions are identified by a network ID (the lowest address of the
//! network, assigned at creation and inherited by every configured node).
//! Detection is passive: a hello carrying a different network ID means two
//! networks are in contact, and every node of the higher-ID network
//! reacquires an address in the lower-ID one (handled in
//! [`Qbac::on_hello`](crate::Qbac)).
//!
//! This module covers the *isolated cluster head* case: a head cut off
//! from its entire `QDSet` with no other head reachable "becomes the
//! first cluster head in the network and regains all the addresses" —
//! it re-initializes its partition as a fresh network and makes its
//! stranded members reacquire addresses from it.

use crate::auth::SCENARIO_AUTH_KEY;
use crate::msg::{Msg, QuorumOp};
use crate::protocol::Qbac;
use crate::roles::{HeadState, NodeRole};
use crate::vote::VotePurpose;
use addrspace::{Addr, AddrBlock, AddrRecord, AddrStatus, AddressPool};
use proto_io::{FlowKind, FlowStage, MsgCategory, Net, NodeId};

impl Qbac {
    /// Re-initializes an isolated head's partition (§V-C).
    ///
    /// The head regains the full address space under a fresh random
    /// founder address (= new network ID), so later contact with any
    /// other network is detected and resolved by the merge rule.
    pub(crate) fn reinitialize_network(&mut self, w: &mut Net<'_, Msg>, head: NodeId) {
        if self.head_state(head).is_none() {
            return;
        }
        self.stats.reinits += 1;

        let mut pool = AddressPool::from_block(self.cfg.space);
        // Fresh random founder address — see `become_first_head`: the new
        // network's ID must differ from every other live network's.
        let offset = w.rng_range_u64(0..u64::from(self.cfg.space.len())) as u32;
        let ip = self.cfg.space.base().offset(offset);
        pool.allocate(ip, head.index())
            .expect("random address lies inside the fresh space");
        let network_id = ip;
        let mut state = HeadState::new(ip, pool, network_id);
        state.configurer = None;
        state.configurer_ip = None;
        self.roles.insert(head, NodeRole::Head(state));

        // Tell the partition: everyone must reacquire an address here.
        let _ = w.flood(
            head,
            MsgCategory::Maintenance,
            Msg::Reinit {
                network_id,
                force: false,
            },
        );
    }

    /// A node hears that its partition was re-initialized (or that its
    /// network dissolved as a duplicate).
    pub(crate) fn on_reinit(
        &mut self,
        w: &mut Net<'_, Msg>,
        node: NodeId,
        _from: NodeId,
        network_id: Addr,
        force: bool,
    ) {
        match self.roles.get(&node) {
            Some(NodeRole::Unconfigured(_)) | None => {}
            Some(role) if !force && role.network_id() == Some(network_id) => {}
            Some(_) => self.rejoin_network(w, node, network_id),
        }
    }

    // ------------------------------------------------------------------
    // Pool-ownership reconciliation after a merge
    // ------------------------------------------------------------------
    //
    // A partition can leave two heads owning the same blocks: while cut
    // off, one side presumes the other dead and reclaims its space
    // (§IV-D), yet both survive the heal. The duplicated ownership is
    // visible in the replicas the heads exchange once back in contact.
    // The head that wins the deterministic tiebreak — lower `(ip, id)`,
    // the same order the replica-merge rule has always used — claims the
    // contested region through the regular quorum machinery
    // (`QuorumOp::ClaimBlocks`, rival excluded from the electorate) and,
    // on success, tells the rival to cede with `OWN_CLAIM`. The rival
    // carves the region out of its pool and hands over the live leases
    // inside it (`OWN_GRANT`); the winner re-homes them.

    /// Scans this head's `QuorumSpace` for rivals whose blocks overlap
    /// its own pool and opens (or feeds) a reconciliation per rival.
    /// Called on every hello tick and after each replica merge, so a
    /// claim dropped by a failed vote or a lost message is retried.
    pub(crate) fn check_ownership_conflicts(&mut self, w: &mut Net<'_, Msg>, node: NodeId) {
        let Some(state) = self.head_state(node) else {
            return;
        };
        let my_ip = state.ip;
        let conflicts: Vec<(NodeId, Addr, Vec<AddrBlock>)> = state
            .quorum_space
            .iter()
            .filter(|(rival, _)| **rival != node)
            .filter_map(|(rival, rep)| {
                let contested: Vec<AddrBlock> = state
                    .pool
                    .blocks()
                    .iter()
                    .flat_map(|own| rep.blocks.iter().filter_map(move |b| own.intersect(b)))
                    .collect();
                (!contested.is_empty()).then_some((*rival, rep.owner_ip, contested))
            })
            .collect();

        for (rival, rival_ip, contested) in conflicts {
            if (my_ip, node) < (rival_ip, rival) {
                // We win the tiebreak: claim, unless a claim against this
                // rival is already in flight.
                let already = self.votes.values().any(|v| {
                    !v.decided
                        && v.allocator == node
                        && matches!(&v.purpose,
                            VotePurpose::OwnBlocks { rival: r, .. } if *r == rival)
                });
                if already {
                    continue;
                }
                w.flow_event(FlowKind::MergeOwnership, node, FlowStage::Started);
                // Refresh our replica first so the electorate can back
                // the claim against its copy of our space.
                self.push_replica(w, node, MsgCategory::Maintenance);
                self.start_vote(
                    w,
                    node,
                    QuorumOp::ClaimBlocks {
                        claimant: node,
                        rival,
                        blocks: contested.clone(),
                    },
                    VotePurpose::OwnBlocks {
                        rival,
                        blocks: contested,
                    },
                    0,
                    MsgCategory::Maintenance,
                );
            } else {
                // We lose: make sure the winner holds our replica, so its
                // own scan sees the conflict and opens the claim.
                let Some(state) = self.head_state(node) else {
                    return;
                };
                let msg = Msg::ReplicaPush {
                    owner: node,
                    owner_ip: state.ip,
                    blocks: state.pool.blocks().to_vec(),
                    table: state.pool.table().clone(),
                    reply_requested: false,
                };
                let _ = w.unicast(node, rival, MsgCategory::Maintenance, msg);
            }
        }
    }

    /// Hardened replay window: accepts `stamp` for `(node, claimant_ip)`
    /// iff it is serially fresh relative to the last accepted one
    /// ([`crate::vote::stamp_fresh`]), recording it on acceptance. The
    /// window is protocol state, so it survives partition heals: a claim
    /// captured before a heal and replayed after it still presents a
    /// stale stamp and is rejected.
    pub(crate) fn claim_stamp_fresh(
        &mut self,
        node: NodeId,
        claimant_ip: Addr,
        stamp: u64,
    ) -> bool {
        let key = (node, claimant_ip);
        if let Some(&last) = self.claim_stamps.get(&key) {
            if !crate::vote::stamp_fresh(last, stamp) {
                return false;
            }
        }
        self.claim_stamps.insert(key, stamp);
        true
    }

    /// The losing head receives `OWN_CLAIM`: the quorum confirmed the
    /// claimant's ownership of `blocks`. Verify the tiebreak, carve the
    /// region out of our pool, and send the drained leases back.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_own_claim(
        &mut self,
        w: &mut Net<'_, Msg>,
        node: NodeId,
        from: NodeId,
        claimant_ip: Addr,
        blocks: Vec<AddrBlock>,
        claim_stamp: u64,
        auth: u64,
    ) {
        // Hardened: the claim must carry a tag bound to *us* (a captured
        // claim replayed at a different head never verifies) and a fresh
        // stamp (the same claim replayed at the original recipient is a
        // stale serial). Auth first, so a forged claim cannot burn a
        // stamp.
        if self.cfg.harden {
            if auth != crate::auth::own_claim_tag(SCENARIO_AUTH_KEY, claimant_ip, node, claim_stamp)
            {
                return;
            }
            if !self.claim_stamp_fresh(node, claimant_ip, claim_stamp) {
                return;
            }
        }
        let Some(state) = self.head_state_mut(node) else {
            // No pool to cede (we already dissolved or demoted): grant
            // vacuously so the claimant closes its flow.
            let _ = w.unicast(
                node,
                from,
                MsgCategory::Maintenance,
                Msg::OwnGrant {
                    blocks,
                    records: Vec::new(),
                },
            );
            return;
        };
        // Re-verify the deterministic tiebreak; a claim we would win
        // ourselves is bogus and ignored.
        if (claimant_ip, from) >= (state.ip, node) {
            return;
        }
        let mut records: Vec<(Addr, AddrRecord)> = Vec::new();
        let mut changed = false;
        for b in &blocks {
            changed |= state.pool.blocks().iter().any(|own| own.overlaps(b));
            records.extend(state.pool.carve(b));
        }
        // Leases that rode away stop being our members.
        for (a, _) in &records {
            state.members.remove(a);
        }
        // Grant even when nothing was ceded (duplicate claim): the reply
        // is what closes the claimant's flow, so it must be idempotent.
        let _ = w.unicast(
            node,
            from,
            MsgCategory::Maintenance,
            Msg::OwnGrant { blocks, records },
        );
        if changed {
            self.push_replica(w, node, MsgCategory::Maintenance);
        }
    }

    /// The winning head receives `OWN_GRANT`: the rival ceded the
    /// contested blocks. Re-home the leases that rode along and drop the
    /// region from our stored replica of the rival.
    pub(crate) fn on_own_grant(
        &mut self,
        w: &mut Net<'_, Msg>,
        node: NodeId,
        from: NodeId,
        blocks: Vec<AddrBlock>,
        records: Vec<(Addr, AddrRecord)>,
    ) {
        let Some(state) = self.head_state_mut(node) else {
            return;
        };
        let my_ip = state.ip;
        let network = state.network_id;
        let mut displaced: Vec<NodeId> = Vec::new();
        let mut rehomed: Vec<NodeId> = Vec::new();
        for (addr, rec) in records {
            let AddrStatus::Allocated(holder) = rec.status else {
                continue;
            };
            let holder = NodeId::new(holder);
            if !state.pool.owns(addr) {
                continue; // our shape changed under the claim; let §IV-D recover it
            }
            match state.pool.table().status(addr) {
                AddrStatus::Allocated(mine) if mine == holder.index() => {
                    state.members.insert(addr, holder);
                }
                AddrStatus::Allocated(_) => {
                    // We assigned this address to someone else while
                    // partitioned: a real duplicate. The rival's lease
                    // loses — that node must reconfigure.
                    displaced.push(holder);
                }
                AddrStatus::Free | AddrStatus::Vacant => {
                    state
                        .pool
                        .table_mut()
                        .set(addr, AddrStatus::Allocated(holder.index()));
                    state.members.insert(addr, holder);
                    if holder != node && holder != from {
                        rehomed.push(holder);
                    }
                }
            }
        }
        // The rival no longer owns the ceded region.
        if let Some(rep) = state.quorum_space.get_mut(&from) {
            for b in &blocks {
                rep.blocks = rep.blocks.iter().flat_map(|r| r.subtract(b)).collect();
            }
        }
        for n in displaced {
            let _ = w.unicast(
                node,
                n,
                MsgCategory::Maintenance,
                Msg::Reinit {
                    network_id: network,
                    force: true,
                },
            );
        }
        for n in rehomed {
            let _ = w.unicast(
                node,
                n,
                MsgCategory::Maintenance,
                Msg::AllocatorChange {
                    new_configurer: my_ip,
                },
            );
        }
        self.stats.ownership_reconciliations += 1;
        w.flow_event(FlowKind::MergeOwnership, node, FlowStage::Finalized);
        // The quorum must see the re-homed leases.
        self.push_replica(w, node, MsgCategory::Maintenance);
    }
}

#[cfg(test)]
mod tests {
    use crate::{ProtocolConfig, Qbac};
    use addrspace::Addr;
    use proto_io::NodeId;

    fn hardened() -> Qbac {
        Qbac::new(ProtocolConfig {
            harden: true,
            ..ProtocolConfig::default()
        })
    }

    #[test]
    fn claim_stamp_window_rejects_replay_across_a_heal() {
        let mut q = hardened();
        let (node, claimant) = (NodeId::new(4), Addr::new(0x0A00_0001));
        // Legitimate claim before the partition heals.
        assert!(q.claim_stamp_fresh(node, claimant, 7));
        // The heal changes topology, not protocol state: the window
        // persists, so the captured claim replayed afterwards is stale.
        assert!(!q.claim_stamp_fresh(node, claimant, 7));
        assert!(!q.claim_stamp_fresh(node, claimant, 3));
        // The claimant's next genuine claim still goes through.
        assert!(q.claim_stamp_fresh(node, claimant, 8));
    }

    #[test]
    fn claim_stamp_window_is_per_recipient_and_claimant() {
        let mut q = hardened();
        let claimant = Addr::new(0x0A00_0002);
        assert!(q.claim_stamp_fresh(NodeId::new(1), claimant, 5));
        // A different recipient has its own window: the same stamp is
        // fresh there (the auth tag, not the window, stops cross-victim
        // replays).
        assert!(q.claim_stamp_fresh(NodeId::new(2), claimant, 5));
        // A different claimant at the first recipient is independent too.
        assert!(q.claim_stamp_fresh(NodeId::new(1), Addr::new(0x0A00_0003), 5));
    }

    #[test]
    fn claim_stamp_window_accepts_wrapped_counter() {
        let mut q = hardened();
        let (node, claimant) = (NodeId::new(9), Addr::new(0x0A00_0004));
        assert!(q.claim_stamp_fresh(node, claimant, u64::MAX));
        // The counter wrapped: 1 is ahead of u64::MAX, not behind it.
        assert!(q.claim_stamp_fresh(node, claimant, 1));
        assert!(!q.claim_stamp_fresh(node, claimant, u64::MAX));
    }
}
