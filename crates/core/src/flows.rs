//! Configuration flows (§IV-B, Figures 2 and 3, Table 1) plus address
//! borrowing and agent forwarding (§V-A).

use crate::auth::SCENARIO_AUTH_KEY;
use crate::msg::{Msg, QuorumOp};
use crate::params::{join_backoff, JOIN_ATTEMPTS, MAX_R};
use crate::protocol::{tag, Qbac};
use crate::roles::{CommonState, HeadState, NodeRole};
use crate::vote::VotePurpose;
use addrspace::{Addr, AddrBlock, AddrStatus, AllocationTable};
use proto_io::{FlowKind, FlowStage, MsgCategory, Net, NodeId};

impl Qbac {
    // ------------------------------------------------------------------
    // Vote completion
    // ------------------------------------------------------------------

    /// Applies the outcome of a completed quorum collection.
    pub(crate) fn finish_vote(&mut self, w: &mut Net<'_, Msg>, seq: u64, ok: bool) {
        let Some(vote) = self.votes.remove(&seq) else {
            return;
        };
        let allocator = vote.allocator;
        let spent = vote.hops + vote.req_hops;

        // One quorum round normally; two when the §V-B shrink kicked in.
        w.metrics_mut()
            .record_vote_rounds(if vote.shrunk { 2 } else { 1 });
        let (flow_kind, flow_node) = match &vote.purpose {
            VotePurpose::CommonConfig { requestor, .. }
            | VotePurpose::Borrow { requestor, .. }
            | VotePurpose::HeadConfig { requestor } => (FlowKind::Join, *requestor),
            VotePurpose::OwnBlocks { .. } => (FlowKind::MergeOwnership, allocator),
        };
        w.flow_event(
            flow_kind,
            flow_node,
            FlowStage::VotesGathered {
                grants: vote.grants.len() as u32,
                refusals: vote.refusals.len() as u32,
            },
        );

        match vote.purpose {
            VotePurpose::CommonConfig { requestor, addr } => {
                if !ok {
                    self.reject_common(w, allocator, requestor);
                    return;
                }
                let Some(head) = self.head_state_mut(allocator) else {
                    return;
                };
                if head.pool.allocate(addr, requestor.index()).is_err() {
                    self.reject_common(w, allocator, requestor);
                    return;
                }
                let record = head.pool.table().record(addr);
                let configurer_ip = head.ip;
                let network_id = head.network_id;
                head.members.insert(addr, requestor);
                // The quorum update happens *after* the requestor is
                // configured (§IV-B), so it adds overhead but no latency.
                self.commit_to_quorum(
                    w,
                    MsgCategory::Configuration,
                    allocator,
                    allocator,
                    addr,
                    record,
                    &vote.grants,
                );
                self.send_com_cfg(
                    w,
                    allocator,
                    requestor,
                    addr,
                    configurer_ip,
                    network_id,
                    spent,
                );
            }

            VotePurpose::Borrow {
                requestor,
                owner,
                addr,
            } => {
                if !ok {
                    self.reject_common(w, allocator, requestor);
                    return;
                }
                let Some(head) = self.head_state_mut(allocator) else {
                    return;
                };
                let Some(rep) = head.quorum_space.get_mut(&owner) else {
                    self.reject_common(w, allocator, requestor);
                    return;
                };
                rep.table
                    .set(addr, AddrStatus::Allocated(requestor.index()));
                let record = rep.table.record(addr);
                let configurer_ip = head.ip;
                let network_id = head.network_id;
                head.members.insert(addr, requestor);
                self.stats.borrows += 1;
                self.commit_to_quorum(
                    w,
                    MsgCategory::Configuration,
                    allocator,
                    owner,
                    addr,
                    record,
                    &vote.grants,
                );
                // The owner's authoritative copy must learn of the borrow
                // even if it was not among the granters.
                if !vote.grants.contains(&owner) {
                    let auth =
                        crate::auth::quorum_commit_tag(SCENARIO_AUTH_KEY, owner, addr, record);
                    let _ = w.unicast(
                        allocator,
                        owner,
                        MsgCategory::Configuration,
                        Msg::QuorumCommit {
                            owner,
                            addr,
                            record,
                            auth,
                        },
                    );
                }
                self.send_com_cfg(
                    w,
                    allocator,
                    requestor,
                    addr,
                    configurer_ip,
                    network_id,
                    spent,
                );
            }

            VotePurpose::HeadConfig { requestor } => {
                if !ok {
                    self.reject_head(w, allocator, requestor);
                    return;
                }
                let Some(head) = self.head_state_mut(allocator) else {
                    return;
                };
                let Ok((block, records)) = head.pool.split_half_carrying() else {
                    self.reject_head(w, allocator, requestor);
                    return;
                };
                // The new head's own address: the first free one of the
                // delegated block (carried allocations are skipped).
                let taken: std::collections::BTreeSet<Addr> = records
                    .iter()
                    .filter(|(_, r)| !r.status.is_available())
                    .map(|(a, _)| *a)
                    .collect();
                let Some(new_ip) = block.iter().find(|a| !taken.contains(a)) else {
                    // Fully-allocated half: hand it back and give up.
                    if let Some(head) = self.head_state_mut(allocator) {
                        let _ = head.pool.absorb(block);
                        for (a, r) in records {
                            head.pool.table_mut().apply(a, r);
                        }
                    }
                    self.reject_head(w, allocator, requestor);
                    return;
                };
                // Members riding along stop being ours.
                for (a, r) in &records {
                    if !r.status.is_available() {
                        head.members.remove(a);
                    }
                }
                let configurer_ip = head.ip;
                let network_id = head.network_id;
                let cfg_hops = w.hops_between(allocator, requestor).unwrap_or(0);
                // The allocator's space changed shape: refresh replicas.
                // Replica distribution is post-configuration overhead, not
                // latency.
                self.push_replica(w, allocator, MsgCategory::Configuration);
                let msg = Msg::ChCfg {
                    block,
                    ip: new_ip,
                    configurer: configurer_ip,
                    network_id,
                    spent_hops: spent + cfg_hops,
                    records: records.clone(),
                };
                if w.unicast(allocator, requestor, MsgCategory::Configuration, msg)
                    .is_err()
                {
                    // Requestor vanished: take the block back.
                    if let Some(head) = self.head_state_mut(allocator) {
                        let _ = head.pool.absorb(block);
                        for (a, r) in records {
                            head.pool.table_mut().apply(a, r);
                        }
                    }
                }
            }

            VotePurpose::OwnBlocks { rival, blocks } => {
                let Some(head) = self.head_state(allocator) else {
                    return;
                };
                if !ok {
                    // Quorum refused or shrank away: drop this claim.
                    // The per-hello conflict scan re-detects the overlap
                    // and retries with a fresher electorate.
                    w.flow_event(FlowKind::MergeOwnership, allocator, FlowStage::Abandoned);
                    return;
                }
                let claimant_ip = head.ip;
                let claim_stamp = self.fresh_claim_stamp();
                let auth =
                    crate::auth::own_claim_tag(SCENARIO_AUTH_KEY, claimant_ip, rival, claim_stamp);
                if w.unicast(
                    allocator,
                    rival,
                    MsgCategory::Maintenance,
                    Msg::OwnClaim {
                        claimant_ip,
                        blocks,
                        claim_stamp,
                        auth,
                    },
                )
                .is_err()
                {
                    // Rival unreachable: the claim lapses; the scan will
                    // reopen it once the rival is back in contact.
                    w.flow_event(FlowKind::MergeOwnership, allocator, FlowStage::Abandoned);
                }
            }
        }
    }

    /// Sends `QUORUM_COMMIT` for a changed record to the granting quorum
    /// members, charged to `category`; returns the hop cost.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn commit_to_quorum(
        &mut self,
        w: &mut Net<'_, Msg>,
        category: MsgCategory,
        allocator: NodeId,
        owner: NodeId,
        addr: Addr,
        record: addrspace::AddrRecord,
        grants: &std::collections::BTreeSet<NodeId>,
    ) -> u32 {
        let auth = crate::auth::quorum_commit_tag(SCENARIO_AUTH_KEY, owner, addr, record);
        let mut hops = 0;
        for member in grants {
            if let Ok(h) = w.unicast(
                allocator,
                *member,
                category,
                Msg::QuorumCommit {
                    owner,
                    addr,
                    record,
                    auth,
                },
            ) {
                hops += h;
            }
        }
        hops
    }

    #[allow(clippy::too_many_arguments)]
    fn send_com_cfg(
        &mut self,
        w: &mut Net<'_, Msg>,
        allocator: NodeId,
        requestor: NodeId,
        ip: Addr,
        configurer: Addr,
        network_id: Addr,
        spent_hops: u32,
    ) {
        let cfg_hops = w.hops_between(allocator, requestor).unwrap_or(0);
        let auth = crate::auth::com_cfg_tag(SCENARIO_AUTH_KEY, configurer, ip, requestor);
        let msg = Msg::ComCfg {
            ip,
            configurer,
            network_id,
            spent_hops: spent_hops + cfg_hops,
            auth,
        };
        if w.unicast(allocator, requestor, MsgCategory::Configuration, msg)
            .is_err()
        {
            // Requestor unreachable: roll the allocation back locally and
            // tell the quorum.
            if let Some(head) = self.head_state_mut(allocator) {
                if head.pool.owns(ip) && head.pool.release(ip).is_ok() {
                    let record = head.pool.table().record(ip);
                    head.members.remove(&ip);
                    let grants: std::collections::BTreeSet<NodeId> =
                        head.electorate().into_iter().collect();
                    self.commit_to_quorum(
                        w,
                        MsgCategory::Configuration,
                        allocator,
                        allocator,
                        ip,
                        record,
                        &grants,
                    );
                }
            }
        }
    }

    fn reject_common(&mut self, w: &mut Net<'_, Msg>, allocator: NodeId, requestor: NodeId) {
        let _ = w.unicast(
            allocator,
            requestor,
            MsgCategory::Configuration,
            Msg::ComRej,
        );
    }

    fn reject_head(&mut self, w: &mut Net<'_, Msg>, allocator: NodeId, requestor: NodeId) {
        let _ = w.unicast(allocator, requestor, MsgCategory::Configuration, Msg::ChRej);
    }

    // ------------------------------------------------------------------
    // Common-node configuration (Figure 2)
    // ------------------------------------------------------------------

    /// An allocator receives `COM_REQ` (or a forwarded one as agent).
    pub(crate) fn on_com_req(
        &mut self,
        w: &mut Net<'_, Msg>,
        allocator: NodeId,
        from: NodeId,
        forwarded_for: Option<NodeId>,
    ) {
        let requestor = forwarded_for.unwrap_or(from);
        let Some(head) = self.head_state(allocator) else {
            // The first-node probe broadcasts COM_REQ; non-heads ignore it.
            return;
        };

        // Idempotent re-request: if this requestor already holds an
        // assignment (its COM_CFG reply was lost and it timed out), re-send
        // the same address instead of burning a second one on a new vote.
        if let Some(addr) = head
            .members
            .iter()
            .find(|(_, n)| **n == requestor)
            .map(|(a, _)| *a)
        {
            let configurer_ip = head.ip;
            let network_id = head.network_id;
            self.send_com_cfg(w, allocator, requestor, addr, configurer_ip, network_id, 0);
            return;
        }

        // Propose the first free address of IPSpace, scanning from the
        // head's own address so allocations cluster in its half of the
        // block and the far half stays clean for delegation (§IV-B).
        if let Some(addr) = head.pool.first_free_from(head.ip) {
            self.start_vote(
                w,
                allocator,
                QuorumOp::CheckAddr {
                    owner: allocator,
                    addr,
                },
                VotePurpose::CommonConfig { requestor, addr },
                0,
                MsgCategory::Configuration,
            );
            return;
        }

        // IPSpace exhausted: borrow from QuorumSpace (§V-A).
        let borrow = if self.cfg.enable_borrowing {
            head.quorum_space
                .iter()
                .find_map(|(owner, rep)| rep.first_free().map(|addr| (*owner, addr)))
        } else {
            None
        };
        if let Some((owner, addr)) = borrow {
            self.start_vote(
                w,
                allocator,
                QuorumOp::CheckAddr { owner, addr },
                VotePurpose::Borrow {
                    requestor,
                    owner,
                    addr,
                },
                0,
                MsgCategory::Configuration,
            );
            return;
        }

        // Both spaces depleted: act as agent and forward to the
        // configurer (§V-A). Never forward a forward (no loops).
        if forwarded_for.is_none() {
            if let Some(parent) = self.head_state(allocator).and_then(|h| h.configurer) {
                if w.is_alive(parent)
                    && w.unicast(
                        allocator,
                        parent,
                        MsgCategory::Configuration,
                        Msg::ComReqFwd { requestor },
                    )
                    .is_ok()
                {
                    self.stats.agent_forwards += 1;
                    return;
                }
            }
        }
        self.reject_common(w, allocator, requestor);
    }

    /// The requestor receives `COM_CFG` and becomes a common node.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_com_cfg(
        &mut self,
        w: &mut Net<'_, Msg>,
        node: NodeId,
        from: NodeId,
        ip: Addr,
        configurer: Addr,
        network_id: Addr,
        spent_hops: u32,
        auth: u64,
    ) {
        // Hardened: a grant must carry the tag only a key-holding
        // allocator can compute for (configurer, ip, us) — a squatted
        // grant from a rogue head is dropped and the join retry keeps
        // the node probing legitimate allocators.
        if self.cfg.harden
            && auth != crate::auth::com_cfg_tag(SCENARIO_AUTH_KEY, configurer, ip, node)
        {
            return;
        }
        let Some(NodeRole::Unconfigured(js)) = self.roles.get(&node) else {
            return; // duplicate or stale configuration
        };
        let base_hops = js.hops_spent;
        let attempts = js.attempts;
        let ack_hops = w
            .unicast(node, from, MsgCategory::Configuration, Msg::ComAck)
            .unwrap_or(0);
        self.roles.insert(
            node,
            NodeRole::Common(CommonState {
                ip,
                configurer: from,
                configurer_ip: configurer,
                administrator: None,
                network_id,
            }),
        );
        self.stats.common_configured += 1;
        w.metrics_mut().record_join_retries(u64::from(attempts));
        self.record_first_config(w, node, base_hops + spent_hops + ack_hops);
        w.mark_configured(node);
        self.start_common_timers(w, node);
    }

    /// A configuration attempt was rejected; retry after a pause. A node
    /// that exhausts its attempt budget records one failure and drops to
    /// a slow background retry — it keeps trying as long as it lives
    /// (mobility may reconnect it at any time).
    pub(crate) fn on_config_rejected(&mut self, w: &mut Net<'_, Msg>, node: NodeId) {
        let Some(NodeRole::Unconfigured(js)) = self.roles.get_mut(&node) else {
            return;
        };
        js.pending_allocator = None;
        js.attempts += 1;
        w.flow_event(
            FlowKind::Join,
            node,
            FlowStage::Retry {
                attempt: js.attempts,
            },
        );
        if js.attempts == JOIN_ATTEMPTS {
            w.metrics_mut().record_config_failure();
            w.metrics_mut().record_join_retries(u64::from(js.attempts));
            w.flow_event(FlowKind::Join, node, FlowStage::Abandoned);
        }
        let retry = join_backoff(js.attempts);
        let gen = u64::from(js.attempts);
        w.set_timer(node, retry, tag::mk(tag::JOIN_RETRY, gen));
    }

    /// The join-retry timer fired: if still unconfigured and this is the
    /// latest armed retry (stale generations are ignored so parallel
    /// timers cannot multiply), try again.
    pub(crate) fn on_join_retry(&mut self, w: &mut Net<'_, Msg>, node: NodeId, gen: u32) {
        match self.roles.get_mut(&node) {
            Some(NodeRole::Unconfigured(js)) if !js.first_node_probe => {
                if gen < js.attempts {
                    return; // a newer retry is already armed
                }
                js.pending_allocator = None;
                js.attempts += 1;
                w.flow_event(
                    FlowKind::Join,
                    node,
                    FlowStage::Retry {
                        attempt: js.attempts,
                    },
                );
                if js.attempts == JOIN_ATTEMPTS {
                    w.metrics_mut().record_config_failure();
                    w.metrics_mut().record_join_retries(u64::from(js.attempts));
                    w.flow_event(FlowKind::Join, node, FlowStage::Abandoned);
                }
                self.attempt_join(w, node);
            }
            _ => {}
        }
    }

    /// The first-node `T_e` timer fired (§IV-B).
    pub(crate) fn on_first_retry(&mut self, w: &mut Net<'_, Msg>, node: NodeId) {
        let Some(NodeRole::Unconfigured(js)) = self.roles.get(&node) else {
            return;
        };
        if !js.first_node_probe {
            return;
        }
        // If a configured network appeared meanwhile, join it instead.
        if self.nearest_head(w, node, None).is_some() {
            if let Some(NodeRole::Unconfigured(js)) = self.roles.get_mut(&node) {
                js.first_node_probe = false;
                js.attempts = 0;
                js.seen_network = true;
            }
            self.attempt_join(w, node);
            return;
        }
        if js.attempts >= MAX_R {
            self.become_first_head(w, node);
        } else {
            self.first_node_probe(w, node);
        }
    }

    // ------------------------------------------------------------------
    // Cluster-head configuration (Figure 3, Table 1)
    // ------------------------------------------------------------------

    /// A head receives `CH_REQ`: answer with a proposal.
    pub(crate) fn on_ch_req(&mut self, w: &mut Net<'_, Msg>, allocator: NodeId, requestor: NodeId) {
        let Some(head) = self.head_state(allocator) else {
            return;
        };
        if head.pool.total_len() < 2 || head.pool.free_count() < 2 {
            self.reject_head(w, allocator, requestor);
            return;
        }
        let available = head.pool.free_count();
        if let Ok(h) = w.unicast(
            allocator,
            requestor,
            MsgCategory::Configuration,
            Msg::ChPrp { available },
        ) {
            *self.alloc_spent.entry((allocator, requestor)).or_insert(0) += h;
        }
    }

    /// The requestor receives `CH_PRP` and confirms.
    pub(crate) fn on_ch_prp(
        &mut self,
        w: &mut Net<'_, Msg>,
        node: NodeId,
        from: NodeId,
        _available: u64,
    ) {
        let Some(NodeRole::Unconfigured(js)) = self.roles.get_mut(&node) else {
            return;
        };
        if js.pending_allocator != Some(from) {
            return;
        }
        if let Ok(h) = w.unicast(node, from, MsgCategory::Configuration, Msg::ChCnf) {
            if let Some(NodeRole::Unconfigured(js)) = self.roles.get_mut(&node) {
                js.hops_spent += h;
            }
        }
    }

    /// The allocator receives `CH_CNF`: run the split vote.
    pub(crate) fn on_ch_cnf(&mut self, w: &mut Net<'_, Msg>, allocator: NodeId, requestor: NodeId) {
        if self.head_state(allocator).is_none() {
            return;
        }
        let req_hops = self
            .alloc_spent
            .remove(&(allocator, requestor))
            .unwrap_or(0);
        self.start_vote(
            w,
            allocator,
            QuorumOp::SplitBlock { owner: allocator },
            VotePurpose::HeadConfig { requestor },
            req_hops,
            MsgCategory::Configuration,
        );
    }

    /// The requestor receives `CH_CFG` and becomes a cluster head.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_ch_cfg(
        &mut self,
        w: &mut Net<'_, Msg>,
        node: NodeId,
        from: NodeId,
        block: AddrBlock,
        ip: Addr,
        configurer: Addr,
        network_id: Addr,
        spent_hops: u32,
        records: Vec<(Addr, addrspace::AddrRecord)>,
    ) {
        let Some(NodeRole::Unconfigured(js)) = self.roles.get(&node) else {
            return;
        };
        let mut total = js.hops_spent + spent_hops;
        let attempts = js.attempts;

        let mut pool = addrspace::AddressPool::from_block(block);
        // Import the allocation records that rode along with the block.
        for (a, r) in &records {
            pool.table_mut().apply(*a, *r);
        }
        if pool.allocate(ip, node.index()).is_err() {
            // Malformed delegation; retry from scratch.
            self.on_config_rejected(w, node);
            return;
        }
        let mut state = HeadState::new(ip, pool, network_id);
        // Members inherited with the block are ours now.
        for (a, r) in &records {
            if let addrspace::AddrStatus::Allocated(owner) = r.status {
                state.members.insert(*a, NodeId::new(owner));
            }
        }
        state.configurer = Some(from);
        state.configurer_ip = Some(configurer);

        // Initialize QDSet: adjacent cluster heads within three hops
        // (§IV-A), same network.
        let adjacent = self.heads_within(w, node, 3, Some(network_id));
        for (h, _) in &adjacent {
            if let Some(other) = self.head_state(*h) {
                state.qd_set.insert(*h, other.ip);
            }
        }
        self.roles.insert(node, NodeRole::Head(state));

        total += w
            .unicast(node, from, MsgCategory::Configuration, Msg::ChAck)
            .unwrap_or(0);
        // Distribute replicas to the QDSet and request theirs in return
        // (overhead only; the head is already configured).
        self.push_replica_full(w, node, MsgCategory::Configuration, true);
        // Tell inherited members their allocator changed (§IV-C.2's
        // notification, applied to delegation).
        let inherited: Vec<NodeId> = records
            .iter()
            .filter_map(|(_, r)| match r.status {
                addrspace::AddrStatus::Allocated(owner) => Some(NodeId::new(owner)),
                _ => None,
            })
            .filter(|m| *m != node)
            .collect();
        let my_ip = ip;
        for m in inherited {
            let _ = w.unicast(
                node,
                m,
                MsgCategory::Configuration,
                Msg::AllocatorChange {
                    new_configurer: my_ip,
                },
            );
        }

        self.stats.heads_configured += 1;
        w.metrics_mut().record_join_retries(u64::from(attempts));
        self.record_first_config(w, node, total);
        w.mark_configured(node);
        self.start_head_timers(w, node);
    }

    // ------------------------------------------------------------------
    // Replica distribution
    // ------------------------------------------------------------------

    /// Pushes this head's current space to its entire `QDSet` without
    /// requesting replies. Returns the hop cost.
    pub(crate) fn push_replica(
        &mut self,
        w: &mut Net<'_, Msg>,
        head: NodeId,
        category: MsgCategory,
    ) -> u32 {
        self.push_replica_full(w, head, category, false)
    }

    pub(crate) fn push_replica_full(
        &mut self,
        w: &mut Net<'_, Msg>,
        head: NodeId,
        category: MsgCategory,
        reply_requested: bool,
    ) -> u32 {
        let Some(state) = self.head_state(head) else {
            return 0;
        };
        let msg = Msg::ReplicaPush {
            owner: head,
            owner_ip: state.ip,
            blocks: state.pool.blocks().to_vec(),
            table: state.pool.table().clone(),
            reply_requested,
        };
        let members: Vec<NodeId> = state.qd_set.keys().copied().collect();
        let mut hops = 0;
        for m in members {
            if let Ok(h) = w.unicast(head, m, category, msg.clone()) {
                hops += h;
            }
        }
        hops
    }

    /// A head receives a replica of an adjacent head's space.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_replica_push(
        &mut self,
        w: &mut Net<'_, Msg>,
        node: NodeId,
        owner: NodeId,
        owner_ip: Addr,
        blocks: Vec<AddrBlock>,
        table: AllocationTable,
        reply_requested: bool,
    ) {
        let Some(state) = self.head_state_mut(node) else {
            return;
        };
        let rep = state.quorum_space.entry(owner).or_default();
        rep.owner_ip = owner_ip;
        rep.blocks = blocks;
        rep.table.merge(&table);
        state.qd_set.insert(owner, owner_ip);
        state.suspended.remove(&owner);

        if reply_requested {
            let reply = Msg::ReplicaPush {
                owner: node,
                owner_ip: state.ip,
                blocks: state.pool.blocks().to_vec(),
                table: state.pool.table().clone(),
                reply_requested: false,
            };
            let _ = w.unicast(node, owner, MsgCategory::Configuration, reply);
        }
        // A replica overlapping our own pool means a merge left two
        // heads owning the same space — open (or feed) reconciliation
        // instead of dissolving the whole network.
        self.check_ownership_conflicts(w, node);
    }

    /// A quorum member applies a committed record to its replica (or a
    /// head applies it to its own authoritative copy, for borrows).
    pub(crate) fn on_quorum_commit(
        &mut self,
        _w: &mut Net<'_, Msg>,
        node: NodeId,
        owner: NodeId,
        addr: Addr,
        record: addrspace::AddrRecord,
        auth: u64,
    ) {
        // Hardened: the commit must carry the tag only a key-holding
        // head can compute for exactly this (owner, addr, record). A
        // reflected commit with the status flipped to vacant and a
        // superseding stamp would free a live lease in the owner's
        // authoritative table — the spoof-cfm attack's payload.
        if self.cfg.harden
            && auth != crate::auth::quorum_commit_tag(SCENARIO_AUTH_KEY, owner, addr, record)
        {
            return;
        }
        let Some(state) = self.head_state_mut(node) else {
            return;
        };
        if node == owner {
            // Our own space changed remotely (a borrow commit).
            state.pool.table_mut().apply(addr, record);
            if let AddrStatus::Allocated(n) = record.status {
                state.members.insert(addr, NodeId::new(n));
            }
        } else if let Some(rep) = state.quorum_space.get_mut(&owner) {
            rep.table.apply(addr, record);
        }
    }
}
