//! Node movement and departure (§IV-C) plus the hello beaconing that
//! drives neighbor discovery, quorum growth, and partition detection.

use crate::msg::Msg;
use crate::params::{HELLO_INTERVAL, LOC_UPDATE_INTERVAL, TR};
use crate::protocol::{tag, Qbac};
use crate::roles::NodeRole;
use addrspace::{Addr, AddrStatus};
use proto_io::{FlowKind, FlowStage, MsgCategory, Net, NodeId};

impl Qbac {
    // ------------------------------------------------------------------
    // Hello beaconing
    // ------------------------------------------------------------------

    /// Periodic hello: beacon to one-hop neighbors, and for heads run the
    /// neighborhood scan that grows the quorum set when new heads appear
    /// (§V-B: "quorum sets are updated whenever a new cluster head enters
    /// the neighborhood").
    pub(crate) fn on_hello_timer(&mut self, w: &mut Net<'_, Msg>, node: NodeId) {
        let Some(role) = self.roles.get(&node) else {
            return;
        };
        if !role.is_configured() {
            return; // stop beaconing; restarts when reconfigured
        }
        let msg = Msg::Hello {
            sender_ip: role.ip(),
            is_head: role.is_head(),
            network_id: role.network_id(),
        };
        let _ = w.broadcast_within(node, 1, MsgCategory::Hello, msg);

        if role.is_head() {
            self.grow_quorum(w, node);
            // Reconciliation retry point: a conflict whose claim lapsed
            // (failed vote, lost OWN_CLAIM) is re-detected here.
            self.check_ownership_conflicts(w, node);
        }

        w.set_timer(node, HELLO_INTERVAL, tag::mk(tag::HELLO, 0));
    }

    /// Adds newly adjacent heads (within three hops, same network) to the
    /// `QDSet`, exchanging replicas with them. Prioritized when the
    /// replication floor `|QDSet| < min_qdset` is violated, but newcomers
    /// are always adopted.
    pub(crate) fn grow_quorum(&mut self, w: &mut Net<'_, Msg>, head: NodeId) {
        let Some(state) = self.head_state(head) else {
            return;
        };
        let network = state.network_id;
        // A qd_set member with no replica in hand means our push (or its
        // reply) was lost in flight — a partition can swallow the
        // handshake right after the member was added. Keep re-sending to
        // those members; only a completed exchange settles the entry.
        let known: Vec<NodeId> = state
            .qd_set
            .keys()
            .filter(|n| state.quorum_space.contains_key(n))
            .copied()
            .collect();
        let candidates: Vec<NodeId> = self
            .heads_within(w, head, 3, Some(network))
            .into_iter()
            .map(|(n, _)| n)
            .filter(|n| !known.contains(n) && *n != head)
            .collect();
        if candidates.is_empty() {
            return;
        }
        for cand in candidates {
            let Some(cand_ip) = self.head_state(cand).map(|s| s.ip) else {
                continue;
            };
            let Some(state) = self.head_state_mut(head) else {
                return;
            };
            state.qd_set.insert(cand, cand_ip);
            let msg = Msg::ReplicaPush {
                owner: head,
                owner_ip: state.ip,
                blocks: state.pool.blocks().to_vec(),
                table: state.pool.table().clone(),
                reply_requested: true,
            };
            let _ = w.unicast(head, cand, MsgCategory::Maintenance, msg);
        }
    }

    /// A hello arrived: partition detection (§V-C), plus passive repair
    /// of reclamation races (in the spirit of the passive-DAD work the
    /// paper surveys): a head that hears a hello carrying an address it
    /// owns checks its record — a vacant record means the reclamation
    /// wrongly presumed the holder dead (restore it); a record naming a
    /// different holder means a real duplicate (the hello sender lost
    /// the race and must reconfigure).
    pub(crate) fn on_hello(
        &mut self,
        w: &mut Net<'_, Msg>,
        node: NodeId,
        from: NodeId,
        sender_ip: Option<Addr>,
        is_head: bool,
        their_network: Option<Addr>,
    ) {
        let Some(theirs) = their_network else {
            return;
        };
        let Some(role) = self.roles.get(&node) else {
            return;
        };
        let Some(mine) = role.network_id() else {
            return;
        };
        if mine > theirs {
            self.rejoin_network(w, node, theirs);
            return;
        }
        if mine != theirs || is_head {
            return;
        }
        // Same network, sender is a common node: audit its address
        // against our pool if we own it.
        let (Some(sender_ip), true) = (sender_ip, role.is_head()) else {
            return;
        };
        let Some(state) = self.head_state_mut(node) else {
            return;
        };
        if !state.pool.owns(sender_ip) {
            return;
        }
        match state.pool.table().status(sender_ip) {
            AddrStatus::Allocated(holder) if holder == from.index() => {}
            AddrStatus::Allocated(_) => {
                // A different node holds the record: the hello sender is
                // the surviving twin of a reclamation race — it must
                // reacquire an address.
                let _ = w.unicast(
                    node,
                    from,
                    MsgCategory::Maintenance,
                    Msg::Reinit {
                        network_id: mine,
                        force: true,
                    },
                );
            }
            AddrStatus::Free | AddrStatus::Vacant => {
                // We presumed the holder dead; it seems alive. A hello
                // can also arrive moments after its sender departed
                // (stale in flight), so confirm liveness before
                // restoring — this stands in for the probe a deployment
                // would fire.
                if !w.is_alive(from) {
                    return;
                }
                state
                    .pool
                    .table_mut()
                    .set(sender_ip, AddrStatus::Allocated(from.index()));
                state.members.insert(sender_ip, from);
                let record = state.pool.table().record(sender_ip);
                let grants: std::collections::BTreeSet<NodeId> =
                    state.electorate().into_iter().collect();
                self.commit_to_quorum(
                    w,
                    MsgCategory::Maintenance,
                    node,
                    node,
                    sender_ip,
                    record,
                    &grants,
                );
            }
        }
    }

    /// Drops the node's current configuration and re-enters the protocol
    /// targeting `network` (merge or re-init).
    pub(crate) fn rejoin_network(&mut self, w: &mut Net<'_, Msg>, node: NodeId, network: Addr) {
        self.stats.merges += 1;
        w.flow_event(FlowKind::Merge, node, FlowStage::Started);
        let js = crate::roles::JoinState {
            target_network: Some(network),
            ..Default::default()
        };
        self.roles.insert(node, NodeRole::Unconfigured(js));
        self.attempt_join(w, node);
    }

    // ------------------------------------------------------------------
    // Location updates (§IV-C.1)
    // ------------------------------------------------------------------

    /// Periodic check: a common node more than three hops from both its
    /// configurer and its administrator reports to the nearest head.
    pub(crate) fn on_loc_check(&mut self, w: &mut Net<'_, Msg>, node: NodeId) {
        let Some(NodeRole::Common(c)) = self.roles.get(&node) else {
            return;
        };
        let configurer = c.configurer;
        let administrator = c.administrator;
        let (ip, configurer_ip, network) = (c.ip, c.configurer_ip, c.network_id);

        let near_configurer = w.within_hops(node, configurer, 3);
        let near_admin = administrator.is_some_and(|a| w.within_hops(node, a, 3));

        if !near_configurer && !near_admin {
            if let Some((nearest, _)) = self.nearest_head(w, node, Some(network)) {
                if nearest != configurer {
                    let _ = w.unicast(
                        node,
                        nearest,
                        MsgCategory::Maintenance,
                        Msg::UpdateLoc {
                            configurer: configurer_ip,
                            ip,
                        },
                    );
                    if let Some(NodeRole::Common(c)) = self.roles.get_mut(&node) {
                        c.administrator = Some(nearest);
                    }
                }
            }
        }

        w.set_timer(node, LOC_UPDATE_INTERVAL, tag::mk(tag::LOC_CHECK, 0));
    }

    /// A head records an `UPDATE_LOC` (it is now the node's
    /// administrator). The head keeps no extra state beyond what routing
    /// already provides; the message cost is the measured quantity.
    pub(crate) fn on_update_loc(
        &mut self,
        _w: &mut Net<'_, Msg>,
        _head: NodeId,
        _from: NodeId,
        _configurer: Addr,
        _ip: Addr,
    ) {
    }

    // ------------------------------------------------------------------
    // Departure (§IV-C)
    // ------------------------------------------------------------------

    /// Graceful departure entry point.
    pub(crate) fn graceful_leave(&mut self, w: &mut Net<'_, Msg>, node: NodeId) {
        match self.roles.get(&node) {
            None | Some(NodeRole::Unconfigured(_)) => {
                w.remove_node(node);
            }
            Some(NodeRole::Common(c)) => {
                let (ip, configurer_ip, network) = (c.ip, c.configurer_ip, c.network_id);
                // Return the address via the nearest head (§IV-C.1).
                if let Some((nearest, _)) = self.nearest_head(w, node, Some(network)) {
                    if w.unicast(
                        node,
                        nearest,
                        MsgCategory::Maintenance,
                        Msg::ReturnAddr {
                            configurer: configurer_ip,
                            ip,
                        },
                    )
                    .is_ok()
                    {
                        // Leave once acknowledged; a safety timer prevents
                        // an immortal node if the head dies first.
                        w.set_timer(node, TR, tag::mk(tag::DEPART_TIMEOUT, 0));
                        return;
                    }
                }
                w.remove_node(node);
            }
            Some(NodeRole::Head(_)) => self.head_graceful_leave(w, node),
        }
    }

    /// A departing cluster head returns its block (§IV-C.2): to its
    /// configurer if within three hops, otherwise to the `QDSet` member
    /// with the smallest block.
    fn head_graceful_leave(&mut self, w: &mut Net<'_, Msg>, node: NodeId) {
        let Some(state) = self.head_state(node) else {
            w.remove_node(node);
            return;
        };
        let configurer = state
            .configurer
            .filter(|c| w.is_alive(*c) && w.within_hops(node, *c, 3));
        let successor = configurer.or_else(|| {
            // Smallest replicated space among alive QDSet members.
            self.head_state(node).and_then(|s| {
                s.qd_set
                    .keys()
                    .filter(|m| w.is_alive(**m))
                    .min_by_key(|m| {
                        s.quorum_space
                            .get(m)
                            .map_or(u64::MAX, |rep| rep.space_len())
                    })
                    .copied()
            })
        });

        let Some(state) = self.head_state(node) else {
            return;
        };
        let qd: Vec<NodeId> = state.qd_set.keys().copied().collect();
        let Some(succ) = successor else {
            // Lone head: nobody can absorb the space.
            w.remove_node(node);
            return;
        };

        let msg = Msg::ReturnBlock {
            blocks: state.pool.blocks().to_vec(),
            table: state.pool.table().clone(),
            ip: state.ip,
            members: state.members.iter().map(|(a, n)| (*a, *n)).collect(),
        };
        if w.unicast(node, succ, MsgCategory::Maintenance, msg)
            .is_err()
        {
            w.remove_node(node);
            return;
        }
        // Resign from every QDSet that lists us (§IV-C.2).
        for m in qd {
            if m != succ {
                let _ = w.unicast(node, m, MsgCategory::Maintenance, Msg::Resign);
            }
        }
        w.set_timer(node, TR, tag::mk(tag::DEPART_TIMEOUT, 0));
    }

    /// The departure safety timer fired before the ack arrived: leave
    /// anyway (the address may leak; reclamation will recover it).
    pub(crate) fn on_depart_timeout(&mut self, w: &mut Net<'_, Msg>, node: NodeId) {
        w.remove_node(node);
    }

    /// A head receives a returned address (§IV-C.1).
    pub(crate) fn on_return_addr(
        &mut self,
        w: &mut Net<'_, Msg>,
        head: NodeId,
        from: NodeId,
        configurer_ip: Addr,
        ip: Addr,
    ) {
        // Acknowledge first so the departing node can leave.
        let _ = w.unicast(head, from, MsgCategory::Maintenance, Msg::ReturnAddrAck);

        let Some(state) = self.head_state(head) else {
            return;
        };

        if state.pool.owns(ip) {
            // We are the allocator: vacate and tell the quorum.
            let Some(state) = self.head_state_mut(head) else {
                return;
            };
            if state.pool.release(ip).is_ok() {
                state.members.remove(&ip);
                let record = state.pool.table().record(ip);
                let grants: std::collections::BTreeSet<NodeId> =
                    state.electorate().into_iter().collect();
                self.commit_to_quorum(w, MsgCategory::Maintenance, head, head, ip, record, &grants);
            }
            return;
        }

        // Route to the allocator if it is still around.
        if let Some(allocator) = self.head_by_ip(configurer_ip).filter(|a| w.is_alive(*a)) {
            if allocator != head {
                let _ = w.unicast(
                    head,
                    allocator,
                    MsgCategory::Maintenance,
                    Msg::ReturnAddr {
                        configurer: configurer_ip,
                        ip,
                    },
                );
                return;
            }
        }

        // The allocator is gone but we may hold a replica of the space
        // (we are "a cluster head E which belongs to the QDSet of the
        // configurer", §IV-C.1).
        let owner = state
            .quorum_space
            .iter()
            .find_map(|(o, rep)| rep.blocks.iter().any(|b| b.contains(ip)).then_some(*o));
        if let Some(owner) = owner {
            let Some(state) = self.head_state_mut(head) else {
                return;
            };
            let Some(rep) = state.quorum_space.get_mut(&owner) else {
                return;
            };
            rep.table.set(ip, AddrStatus::Vacant);
            let record = rep.table.record(ip);
            let grants: std::collections::BTreeSet<NodeId> =
                state.electorate().into_iter().collect();
            self.commit_to_quorum(
                w,
                MsgCategory::Maintenance,
                head,
                owner,
                ip,
                record,
                &grants,
            );
        }
        // Otherwise the address leaks until reclamation.
    }

    /// A successor head absorbs a departing head's space (§IV-C.2).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_return_block(
        &mut self,
        w: &mut Net<'_, Msg>,
        succ: NodeId,
        from: NodeId,
        blocks: Vec<addrspace::AddrBlock>,
        table: addrspace::AllocationTable,
        departed_ip: Addr,
        members: Vec<(Addr, NodeId)>,
    ) {
        let _ = w.unicast(succ, from, MsgCategory::Maintenance, Msg::ReturnBlockAck);
        let Some(state) = self.head_state_mut(succ) else {
            return;
        };
        for b in blocks {
            let _ = state.pool.absorb(b);
        }
        state.pool.table_mut().merge(&table);
        // Version stamps are only comparable within one owner's lineage:
        // a merged foreign record may carry a higher stamp that wrongly
        // frees our own address or a member's. Re-assert them.
        let own_ip = state.ip;
        if state.pool.owns(own_ip) {
            state
                .pool
                .table_mut()
                .set(own_ip, AddrStatus::Allocated(succ.index()));
        }
        let mine: Vec<(Addr, proto_io::NodeId)> =
            state.members.iter().map(|(a, n)| (*a, *n)).collect();
        for (a, n) in mine {
            if state.pool.owns(a) && w.is_alive(n) {
                state
                    .pool
                    .table_mut()
                    .set(a, AddrStatus::Allocated(n.index()));
            }
        }
        // The departing head's own address becomes vacant.
        if state.pool.owns(departed_ip)
            && matches!(
                state.pool.table().status(departed_ip),
                AddrStatus::Allocated(_)
            )
        {
            let _ = state.pool.release(departed_ip);
        }
        state.qd_set.remove(&from);
        state.suspended.remove(&from);
        state.quorum_space.remove(&from);

        // Take over the departed head's members and tell them (§IV-C.2:
        // "inform each node configured by U of the change of their
        // allocator").
        let new_ip = state.ip;
        for (addr, member) in members {
            state.members.insert(addr, member);
        }
        let notify: Vec<NodeId> = self
            .head_state(succ)
            .map(|s| s.members.values().copied().collect())
            .unwrap_or_default();
        for m in notify {
            if let Some(NodeRole::Common(c)) = self.roles.get(&m) {
                if c.configurer == from {
                    let _ = w.unicast(
                        succ,
                        m,
                        MsgCategory::Maintenance,
                        Msg::AllocatorChange {
                            new_configurer: new_ip,
                        },
                    );
                }
            }
        }
        // Replicas must reflect the enlarged space.
        self.push_replica(w, succ, MsgCategory::Maintenance);
    }

    /// A `QDSet` member processes a departing head's resignation.
    pub(crate) fn on_resign(&mut self, _w: &mut Net<'_, Msg>, member: NodeId, departing: NodeId) {
        if let Some(state) = self.head_state_mut(member) {
            state.qd_set.remove(&departing);
            state.suspended.remove(&departing);
            state.quorum_space.remove(&departing);
        }
    }

    /// A common node learns its allocator changed.
    pub(crate) fn on_allocator_change(
        &mut self,
        _w: &mut Net<'_, Msg>,
        node: NodeId,
        from: NodeId,
        new_configurer: Addr,
    ) {
        if let Some(NodeRole::Common(c)) = self.roles.get_mut(&node) {
            c.configurer = from;
            c.configurer_ip = new_configurer;
            c.administrator = None;
        }
    }

    /// Abrupt departure: the node is already dead; nothing is sent.
    /// Detection and recovery happen through quorum adjustment (§V-B) and
    /// reclamation (§IV-D) at the surviving heads.
    pub(crate) fn abrupt_leave(&mut self, _w: &mut Net<'_, Msg>, _node: NodeId) {
        // State intentionally retained: the harness audits what was lost,
        // and surviving heads discover the absence via probes.
    }
}
