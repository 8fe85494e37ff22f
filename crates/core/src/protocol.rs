use crate::msg::Msg;
use crate::params::{
    join_backoff, AllocatorChoice, ProtocolConfig, HELLO_INTERVAL, JOIN_ATTEMPTS,
    LOC_UPDATE_INTERVAL, TE,
};
use crate::roles::{HeadState, JoinState, NodeRole};
use crate::vote::PendingVote;
use addrspace::{Addr, AddressPool};
use proto_io::{
    FlowKind, FlowStage, IdMap, IdSet, MsgCategory, Net, NodeId, ProtocolCore, Versioned,
};

/// Timer tag kinds (low byte of the tag; payload in the high bits).
pub(crate) mod tag {
    pub const HELLO: u64 = 1;
    pub const LOC_CHECK: u64 = 2;
    pub const FIRST_RETRY: u64 = 3;
    pub const VOTE_TIMEOUT: u64 = 4;
    pub const REP_TIMEOUT: u64 = 5;
    pub const RECLAIM_FINALIZE: u64 = 6;
    pub const JOIN_RETRY: u64 = 7;
    pub const DEPART_TIMEOUT: u64 = 8;

    pub fn mk(kind: u64, payload: u64) -> u64 {
        kind | (payload << 8)
    }
    pub fn kind(tag: u64) -> u64 {
        tag & 0xff
    }
    pub fn payload(tag: u64) -> u64 {
        tag >> 8
    }
}

/// Aggregate protocol statistics exposed to the harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Nodes configured as common nodes.
    pub common_configured: u64,
    /// Nodes configured as cluster heads.
    pub heads_configured: u64,
    /// Successful address borrows from `QuorumSpace`.
    pub borrows: u64,
    /// Configurations served by agent forwarding (§V-A).
    pub agent_forwards: u64,
    /// Quorum shrinks performed (§V-B).
    pub quorum_shrinks: u64,
    /// Address reclamations initiated (§IV-D).
    pub reclamations: u64,
    /// Network re-initializations by isolated cluster heads (§V-C).
    pub reinits: u64,
    /// Merge-triggered reconfigurations (§V-C).
    pub merges: u64,
    /// Pool-ownership reconciliations completed after a merge (contested
    /// blocks ceded by the tiebreak loser and re-homed by the winner).
    pub ownership_reconciliations: u64,
}

/// The quorum-based IP address autoconfiguration protocol (Xu & Wu,
/// ICDCS 2007).
///
/// One `Qbac` value models the protocol state of every node in the
/// simulated MANET; the [`ProtocolCore`] implementation dispatches simulator
/// events into the flows described in the paper:
///
/// * §IV-B network initialization and address configuration,
/// * §IV-C node movement and departure,
/// * §IV-D address reclamation,
/// * §V-A address borrowing, §V-B quorum adjustment,
/// * §V-C network partition and merging.
///
/// # Example
///
/// ```
/// use manet_sim::{Point, Sim, SimDuration, WorldConfig};
/// use qbac_core::{ProtocolConfig, Qbac};
///
/// let mut sim = Sim::new(WorldConfig::default(), Qbac::new(ProtocolConfig::default()));
/// let first = sim.spawn_at(Point::new(500.0, 500.0));
/// sim.run_for(SimDuration::from_secs(5));
/// assert!(sim.protocol().role(first).unwrap().is_head());
/// ```
#[derive(Debug)]
pub struct Qbac {
    pub(crate) cfg: ProtocolConfig,
    /// Every node's role and, for heads, pool and replicas: all the
    /// conformance views read.
    pub(crate) roles: Versioned<IdMap<NodeId, NodeRole>>,
    pub(crate) votes: IdMap<u64, PendingVote>,
    pub(crate) next_seq: u64,
    /// Outstanding liveness probes: prober → probed head.
    pub(crate) probes: IdMap<(NodeId, NodeId), u64>,
    /// Nodes that have completed at least one configuration — merge
    /// reconfigurations do not produce new latency samples.
    pub(crate) configured_once: IdSet<NodeId>,
    /// In-flight reclamations at their initiators, keyed by target.
    pub(crate) reclaims: IdMap<NodeId, crate::reclaim::ReclaimState>,
    /// Allocator-side hop spend per (allocator, requestor), accumulated
    /// before the vote starts (CH_PRP etc.).
    pub(crate) alloc_spent: IdMap<(NodeId, NodeId), u32>,
    /// Who is reclaiming each vanished head, learned from `ADDR_REC`
    /// floods — used to forward `REC_REP`s.
    pub(crate) reclaim_initiators: IdMap<NodeId, NodeId>,
    pub(crate) stats: ProtocolStats,
    /// Hardened replay windows: last accepted `OWN_CLAIM` stamp per
    /// `(recipient, claimant_ip)`.
    pub(crate) claim_stamps: IdMap<(NodeId, Addr), u64>,
    /// Hardened rate limiter: `(window start, accepted)` `ADDR_REC`
    /// floods per `(receiver, initiator)`.
    pub(crate) reclaim_accepts: IdMap<(NodeId, NodeId), (proto_io::SimTime, u32)>,
    /// Monotonic counter stamping outgoing `OWN_CLAIM`s. Separate from
    /// `next_seq` so stamping claims never perturbs vote sequencing.
    pub(crate) next_claim_stamp: u64,
    /// State of the fault plan's Byzantine attacker nodes (empty unless
    /// the plan designates attackers).
    pub(crate) adversary: crate::adversary::AdversaryState,
}

impl Qbac {
    /// Creates the protocol with the given parameters.
    #[must_use]
    pub fn new(cfg: ProtocolConfig) -> Self {
        Qbac {
            cfg,
            roles: Versioned::default(),
            votes: IdMap::default(),
            next_seq: 0,
            probes: IdMap::default(),
            configured_once: IdSet::default(),
            reclaims: IdMap::default(),
            alloc_spent: IdMap::default(),
            reclaim_initiators: IdMap::default(),
            stats: ProtocolStats::default(),
            claim_stamps: IdMap::default(),
            reclaim_accepts: IdMap::default(),
            next_claim_stamp: 0,
            adversary: crate::adversary::AdversaryState::default(),
        }
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> ProtocolStats {
        self.stats
    }

    // ------------------------------------------------------------------
    // Registry helpers
    // ------------------------------------------------------------------

    /// The role of `node`, if it ever joined.
    #[must_use]
    pub fn role(&self, node: NodeId) -> Option<&NodeRole> {
        self.roles.get(&node)
    }

    pub(crate) fn head_state(&self, node: NodeId) -> Option<&HeadState> {
        match self.roles.get(&node) {
            Some(NodeRole::Head(h)) => Some(h),
            _ => None,
        }
    }

    pub(crate) fn head_state_mut(&mut self, node: NodeId) -> Option<&mut HeadState> {
        match self.roles.get_mut(&node) {
            Some(NodeRole::Head(h)) => Some(h),
            _ => None,
        }
    }

    /// Cluster heads within `k` hops of `node`, with distances, sorted by
    /// `(distance, id)`. Optionally restricted to one network.
    pub(crate) fn heads_within(
        &self,
        w: &mut Net<'_, Msg>,
        node: NodeId,
        k: u32,
        network: Option<Addr>,
    ) -> Vec<(NodeId, u32)> {
        w.nodes_within(node, k)
            .into_iter()
            .filter(|(n, _)| match self.roles.get(n) {
                Some(NodeRole::Head(h)) => network.is_none_or(|net| h.network_id == net),
                _ => false,
            })
            .collect()
    }

    /// The nearest cluster head reachable from `node`, with its hop
    /// distance.
    pub(crate) fn nearest_head(
        &self,
        w: &mut Net<'_, Msg>,
        node: NodeId,
        network: Option<Addr>,
    ) -> Option<(NodeId, u32)> {
        self.nearest_head_excluding(w, node, network, None)
    }

    /// [`nearest_head`](Self::nearest_head), skipping `excluded`. The
    /// hardened reclamation path uses this to keep a member's `REC_REP`
    /// from being relayed through the very head whose silence is being
    /// reclaimed — a Byzantine head would black-hole the report and get
    /// its surviving members' leases vacated.
    pub(crate) fn nearest_head_excluding(
        &self,
        w: &mut Net<'_, Msg>,
        node: NodeId,
        network: Option<Addr>,
        excluded: Option<NodeId>,
    ) -> Option<(NodeId, u32)> {
        w.nearest(node, &mut |n| {
            Some(n) != excluded
                && matches!(self.roles.get(&n), Some(NodeRole::Head(h))
                    if network.is_none_or(|net| h.network_id == net))
        })
    }

    /// Looks up a head by its configured address (lowest node id wins so
    /// the result is deterministic even if duplicate networks briefly
    /// give two heads the same address).
    pub(crate) fn head_by_ip(&self, ip: Addr) -> Option<NodeId> {
        self.roles
            .iter()
            .filter_map(|(n, r)| match r {
                NodeRole::Head(h) if h.ip == ip => Some(*n),
                _ => None,
            })
            .min()
    }

    pub(crate) fn fresh_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    pub(crate) fn fresh_claim_stamp(&mut self) -> u64 {
        self.next_claim_stamp += 1;
        self.next_claim_stamp
    }

    // ------------------------------------------------------------------
    // Join flow (§IV-B)
    // ------------------------------------------------------------------

    pub(crate) fn attempt_join(&mut self, w: &mut Net<'_, Msg>, node: NodeId) {
        let target_network = match self.roles.get_mut(&node) {
            Some(NodeRole::Unconfigured(js)) => {
                // Latency measures the successful exchange; hops of
                // abandoned attempts are overhead (already charged to
                // Metrics) but not configuration time.
                js.hops_spent = 0;
                js.target_network
            }
            _ => return,
        };

        // Candidates for common-node configuration: heads within two hops
        // (the clustering rule of §II-B).
        let near = self.heads_within(w, node, 2, target_network);
        if !near.is_empty() {
            let pick = match self.cfg.allocator_choice {
                AllocatorChoice::Nearest => near[0].0,
                AllocatorChoice::LargestBlock => {
                    // The alternative scheme: poll neighborhood heads for
                    // their available block sizes (§IV-B). Charge the
                    // 2-hop discovery broadcast plus one reply per head.
                    let _ = w.broadcast_within(node, 2, MsgCategory::Configuration, Msg::ComReq);
                    if let Some(NodeRole::Unconfigured(js)) = self.roles.get_mut(&node) {
                        js.hops_spent += 1; // the discovery broadcast
                    }
                    for (h, d) in &near {
                        let _ = h;
                        if let Some(NodeRole::Unconfigured(js)) = self.roles.get_mut(&node) {
                            js.hops_spent += d; // each head's size reply
                        }
                        w.metrics_mut()
                            .add_send(MsgCategory::Configuration, u64::from(*d));
                    }
                    *near
                        .iter()
                        .max_by_key(|(h, _)| self.head_state(*h).map_or(0, |s| s.pool.free_count()))
                        .map(|(h, _)| h)
                        .expect("near is non-empty")
                }
            };
            if let Ok(hops) = w.unicast(node, pick, MsgCategory::Configuration, Msg::ComReq) {
                let gen = if let Some(NodeRole::Unconfigured(js)) = self.roles.get_mut(&node) {
                    js.hops_spent += hops;
                    js.pending_allocator = Some(pick);
                    js.seen_network = true;
                    js.attempts
                } else {
                    0
                };
                let retry = join_backoff(gen);
                w.set_timer(node, retry, tag::mk(tag::JOIN_RETRY, u64::from(gen)));
                return;
            }
        }

        // No head within two hops: ask the nearest head anywhere for a
        // block and become a new cluster head (§IV-B, Figure 3).
        if let Some((head, _)) = self.nearest_head(w, node, target_network) {
            if let Ok(hops) = w.unicast(node, head, MsgCategory::Configuration, Msg::ChReq) {
                let gen = if let Some(NodeRole::Unconfigured(js)) = self.roles.get_mut(&node) {
                    js.hops_spent += hops;
                    js.pending_allocator = Some(head);
                    js.seen_network = true;
                    js.attempts
                } else {
                    0
                };
                let retry = join_backoff(gen);
                w.set_timer(node, retry, tag::mk(tag::JOIN_RETRY, u64::from(gen)));
                return;
            }
        }

        // Nobody reachable. The first-node procedure is reserved for
        // nodes that have never observed a network: anyone who has (a
        // merge rejoiner, or a joiner whose allocator drifted away)
        // keeps retrying until reconnected — founding a second network
        // would only create a duplicate space for a later merge to
        // dissolve.
        let seen = self.nearest_head(w, node, None).is_some()
            || match self.roles.get(&node) {
                Some(NodeRole::Unconfigured(js)) => js.seen_network,
                _ => false,
            };
        if seen || target_network.is_some() {
            if let Some(NodeRole::Unconfigured(js)) = self.roles.get_mut(&node) {
                js.seen_network = true;
                if js.attempts >= JOIN_ATTEMPTS {
                    // Long-stranded: give up on the old target but keep
                    // the slow retry (reconnection may come any time).
                    js.target_network = None;
                }
                let retry = join_backoff(js.attempts);
                let gen = u64::from(js.attempts);
                w.set_timer(node, retry, tag::mk(tag::JOIN_RETRY, gen));
            }
            return;
        }
        // Run the first-node procedure (broadcast the request, wait T_e,
        // retry up to Max_r times).
        self.first_node_probe(w, node);
    }

    pub(crate) fn first_node_probe(&mut self, w: &mut Net<'_, Msg>, node: NodeId) {
        let _ = w.broadcast_within(node, 1, MsgCategory::Configuration, Msg::ComReq);
        if let Some(NodeRole::Unconfigured(js)) = self.roles.get_mut(&node) {
            js.first_node_probe = true;
            js.attempts += 1;
            js.hops_spent += 1;
        }
        w.set_timer(node, TE, tag::mk(tag::FIRST_RETRY, 0));
    }

    pub(crate) fn become_first_head(&mut self, w: &mut Net<'_, Msg>, node: NodeId) {
        let (hops_spent, attempts) = match self.roles.get(&node) {
            Some(NodeRole::Unconfigured(js)) => (js.hops_spent, js.attempts),
            _ => return,
        };
        w.metrics_mut().record_join_retries(u64::from(attempts));
        let mut pool = AddressPool::from_block(self.cfg.space);
        // The founder takes a random address of the space: the network ID
        // (the founder's address) is then distinct across independently
        // founded networks, so hello-based merge detection works at any
        // distance — with identical IDs no side would ever rejoin.
        let offset = w.rng_range_u64(0..u64::from(self.cfg.space.len())) as u32;
        let ip = self.cfg.space.base().offset(offset);
        pool.allocate(ip, node.index())
            .expect("random address lies inside the fresh space");
        let network_id = ip;
        self.roles
            .insert(node, NodeRole::Head(HeadState::new(ip, pool, network_id)));
        self.stats.heads_configured += 1;
        self.record_first_config(w, node, hops_spent);
        w.mark_configured(node);
        self.start_head_timers(w, node);
    }

    /// Records a configuration-latency sample the first time `node`
    /// configures; merge reconfigurations are tracked in
    /// [`ProtocolStats::merges`] instead. Either way the corresponding
    /// flow span closes here: `Assigned` for a first configuration,
    /// `Finalized` for an open merge flow.
    pub(crate) fn record_first_config(&mut self, w: &mut Net<'_, Msg>, node: NodeId, hops: u32) {
        if self.configured_once.insert(node) {
            w.metrics_mut().record_config_latency(hops);
            w.flow_event(FlowKind::Join, node, FlowStage::Assigned);
        } else {
            w.flow_event(FlowKind::Merge, node, FlowStage::Finalized);
        }
    }

    pub(crate) fn start_head_timers(&mut self, w: &mut Net<'_, Msg>, node: NodeId) {
        w.set_timer(node, HELLO_INTERVAL, tag::mk(tag::HELLO, 0));
    }

    pub(crate) fn start_common_timers(&mut self, w: &mut Net<'_, Msg>, node: NodeId) {
        w.set_timer(node, HELLO_INTERVAL, tag::mk(tag::HELLO, 0));
        if self.cfg.update_policy == crate::params::UpdatePolicy::Periodic {
            w.set_timer(node, LOC_UPDATE_INTERVAL, tag::mk(tag::LOC_CHECK, 0));
        }
    }
}

impl ProtocolCore for Qbac {
    type Msg = Msg;

    fn on_join(&mut self, w: &mut Net<'_, Msg>, node: NodeId) {
        self.roles
            .insert(node, NodeRole::Unconfigured(JoinState::default()));
        w.flow_event(FlowKind::Join, node, FlowStage::Started);
        self.attempt_join(w, node);
    }

    fn on_message(&mut self, w: &mut Net<'_, Msg>, to: NodeId, from: NodeId, msg: Msg) {
        // Fault-plan attacker nodes divert delivery to the adversary
        // plane once their start time has passed. With no attack
        // directives in the plan both checks are a single `None` each —
        // no RNG, no trace impact (the zero-cost-off guarantee).
        if let Some(kind) = w.attack_role(to) {
            if self.adversary_on_message(w, to, from, &msg, kind) {
                return;
            }
        } else if matches!(msg, Msg::OwnClaim { .. }) && w.attack_assigned(to).is_some() {
            // A designated replay-claim attacker captures claims it
            // receives honestly before its start time, then processes
            // them honestly (it is still undercover).
            self.adversary_capture_claim(w, to, &msg);
        }
        match msg {
            Msg::Hello {
                sender_ip,
                is_head,
                network_id,
            } => self.on_hello(w, to, from, sender_ip, is_head, network_id),

            Msg::ComReq => self.on_com_req(w, to, from, None),
            Msg::ComReqFwd { requestor } => self.on_com_req(w, to, from, Some(requestor)),
            Msg::ComCfg {
                ip,
                configurer,
                network_id,
                spent_hops,
                auth,
            } => self.on_com_cfg(w, to, from, ip, configurer, network_id, spent_hops, auth),
            Msg::ComAck => {}
            Msg::ComRej => self.on_config_rejected(w, to),

            Msg::ChReq => self.on_ch_req(w, to, from),
            Msg::ChPrp { available } => self.on_ch_prp(w, to, from, available),
            Msg::ChCnf => self.on_ch_cnf(w, to, from),
            Msg::ChCfg {
                block,
                ip,
                configurer,
                network_id,
                spent_hops,
                records,
            } => self.on_ch_cfg(
                w, to, from, block, ip, configurer, network_id, spent_hops, records,
            ),
            Msg::ChAck => {}
            Msg::ChRej => self.on_config_rejected(w, to),

            Msg::QuorumClt { seq, op } => self.on_quorum_clt(w, to, from, seq, op),
            Msg::QuorumCfm {
                seq,
                grant,
                stamp,
                auth,
            } => {
                self.on_quorum_cfm(w, to, from, seq, grant, stamp, auth);
            }
            Msg::QuorumCommit {
                owner,
                addr,
                record,
                auth,
            } => {
                self.on_quorum_commit(w, to, owner, addr, record, auth);
            }

            Msg::ReplicaPush {
                owner,
                owner_ip,
                blocks,
                table,
                reply_requested,
            } => self.on_replica_push(w, to, owner, owner_ip, blocks, table, reply_requested),

            Msg::UpdateLoc { configurer, ip } => self.on_update_loc(w, to, from, configurer, ip),
            Msg::ReturnAddr { configurer, ip } => {
                self.on_return_addr(w, to, from, configurer, ip);
            }
            Msg::ReturnAddrAck | Msg::ReturnBlockAck => {
                // Departure handshake complete: the node may now leave.
                w.remove_node(to);
            }
            Msg::ReturnBlock {
                blocks,
                table,
                ip,
                members,
            } => self.on_return_block(w, to, from, blocks, table, ip, members),
            Msg::Resign => self.on_resign(w, to, from),
            Msg::AllocatorChange { new_configurer } => {
                self.on_allocator_change(w, to, from, new_configurer);
            }

            Msg::AddrRec {
                target,
                target_ip,
                initiator,
                initiator_ip,
                auth,
            } => self.on_addr_rec(w, to, target, target_ip, initiator, initiator_ip, auth),
            Msg::RecRep {
                target_ip,
                ip,
                node,
                target,
            } => self.on_rec_rep(w, to, from, target_ip, ip, node, target),

            Msg::RepReq => {
                let _ = w.unicast(to, from, MsgCategory::Maintenance, Msg::RepAck);
            }
            Msg::RepAck => self.on_rep_ack(w, to, from),

            Msg::Reinit { network_id, force } => self.on_reinit(w, to, from, network_id, force),

            Msg::OwnClaim {
                claimant_ip,
                blocks,
                claim_stamp,
                auth,
            } => self.on_own_claim(w, to, from, claimant_ip, blocks, claim_stamp, auth),
            Msg::OwnGrant { blocks, records } => self.on_own_grant(w, to, from, blocks, records),
        }
    }

    fn on_timer(&mut self, w: &mut Net<'_, Msg>, node: NodeId, t: u64) {
        // An active attacker repurposes its hello tick as the adversary
        // action beat and lets its other timers lapse; before it is
        // configured it stays honest so it can acquire an insider
        // identity first.
        if let Some(kind) = w.attack_role(node) {
            if self.adversary_on_timer(w, node, t, kind) {
                return;
            }
        }
        match tag::kind(t) {
            tag::HELLO => self.on_hello_timer(w, node),
            tag::LOC_CHECK => self.on_loc_check(w, node),
            tag::FIRST_RETRY => self.on_first_retry(w, node),
            tag::VOTE_TIMEOUT => self.on_vote_timeout(w, node, tag::payload(t)),
            tag::REP_TIMEOUT => self.on_rep_timeout(w, node, NodeId::new(tag::payload(t))),
            tag::RECLAIM_FINALIZE => {
                self.on_reclaim_finalize(w, node, NodeId::new(tag::payload(t)));
            }
            tag::JOIN_RETRY => self.on_join_retry(w, node, tag::payload(t) as u32),
            tag::DEPART_TIMEOUT => self.on_depart_timeout(w, node),
            _ => {}
        }
    }

    fn on_leave(&mut self, w: &mut Net<'_, Msg>, node: NodeId, graceful: bool) {
        if graceful {
            self.graceful_leave(w, node);
        } else {
            self.abrupt_leave(w, node);
        }
    }

    fn is_cluster_head(&self, node: NodeId) -> bool {
        self.roles.get(&node).is_some_and(NodeRole::is_head)
    }
}
