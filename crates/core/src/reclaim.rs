//! Address reclamation (§IV-D).
//!
//! When a cluster head vanishes without returning its space, the head
//! that detected the silence (via the §V-B probe) becomes the
//! *initiator*: it floods `ADDR_REC`, collects `REC_REP`s from the
//! vanished head's surviving members, and after a collection window
//! absorbs the space — confirmed addresses stay allocated, everything
//! else becomes vacant.

use crate::auth::SCENARIO_AUTH_KEY;
use crate::msg::Msg;
use crate::params::{MAX_RECLAIMS_PER_WINDOW, RECLAIM_COLLECT, RECLAIM_RATE_WINDOW};
use crate::protocol::{tag, Qbac};
use crate::roles::NodeRole;
use addrspace::{Addr, AddrStatus};
use proto_io::{FlowKind, FlowStage, MsgCategory, Net, NodeId};

/// Collection state at a reclamation initiator.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReclaimState {
    /// The vanished head's address.
    pub target_ip: Addr,
    /// Members of the vanished head that reported in: `(address, node)`.
    pub confirmed: Vec<(Addr, NodeId)>,
}

impl Qbac {
    /// Starts reclaiming the space of `target`, a vanished head adjacent
    /// to `initiator`.
    pub(crate) fn start_reclamation(
        &mut self,
        w: &mut Net<'_, Msg>,
        initiator: NodeId,
        target: NodeId,
        target_ip: Addr,
    ) {
        if self.reclaims.contains_key(&target) {
            return; // already collecting
        }
        let Some(state) = self.head_state(initiator) else {
            return;
        };
        // Reclamation needs the replica; without one the space is only
        // recoverable by a future network re-initialization.
        if !state.quorum_space.contains_key(&target) {
            return;
        }
        let initiator_ip = state.ip;
        self.stats.reclamations += 1;
        self.reclaims.insert(
            target,
            ReclaimState {
                target_ip,
                confirmed: Vec::new(),
            },
        );
        self.reclaim_initiators.insert(target, initiator);
        w.flow_event(FlowKind::Reclaim, target, FlowStage::Started);
        let auth = crate::auth::addr_rec_tag(SCENARIO_AUTH_KEY, initiator, target_ip);
        let _ = w.flood(
            initiator,
            MsgCategory::Reclamation,
            Msg::AddrRec {
                target,
                target_ip,
                initiator,
                initiator_ip,
                auth,
            },
        );
        w.set_timer(
            initiator,
            RECLAIM_COLLECT,
            tag::mk(tag::RECLAIM_FINALIZE, target.index()),
        );
    }

    /// Hardened rate limit: at most [`MAX_RECLAIMS_PER_WINDOW`]
    /// `ADDR_REC` floods accepted per initiator per receiver within the
    /// sliding window. A legitimate reclamation needs one flood; a
    /// false-reclaim attacker evicting head after head needs many.
    pub(crate) fn accept_reclaim_rate(
        &mut self,
        now: proto_io::SimTime,
        node: NodeId,
        initiator: NodeId,
    ) -> bool {
        let e = self
            .reclaim_accepts
            .entry((node, initiator))
            .or_insert((now, 0));
        if now - e.0 > RECLAIM_RATE_WINDOW {
            *e = (now, 0);
        }
        if e.1 >= MAX_RECLAIMS_PER_WINDOW {
            return false;
        }
        e.1 += 1;
        true
    }

    /// Every node processes the `ADDR_REC` flood.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_addr_rec(
        &mut self,
        w: &mut Net<'_, Msg>,
        node: NodeId,
        target: NodeId,
        target_ip: Addr,
        initiator: NodeId,
        initiator_ip: Addr,
        auth: u64,
    ) {
        // Hardened: the flood must carry the initiator's tag over the
        // reclaimed head, and stay under the per-initiator rate limit —
        // an injected reclamation for a live lease fails the first
        // check, a flood barrage the second.
        if self.cfg.harden {
            if auth != crate::auth::addr_rec_tag(SCENARIO_AUTH_KEY, initiator, target_ip) {
                return;
            }
            if !self.accept_reclaim_rate(w.now(), node, initiator) {
                return;
            }
        }
        // A falsely-suspected head objects: it is alive and reachable
        // (the flood reached it). The REP_ACK cancels the reclamation.
        if node == target {
            let _ = w.unicast(node, initiator, MsgCategory::Reclamation, Msg::RepAck);
            return;
        }
        self.reclaim_initiators.insert(target, initiator);

        match self.roles.get_mut(&node) {
            Some(NodeRole::Head(state)) => {
                // Drop the vanished head from quorum bookkeeping. The
                // initiator keeps its replica — it needs it to finalize.
                state.qd_set.remove(&target);
                state.suspended.remove(&target);
                if node != initiator {
                    state.quorum_space.remove(&target);
                }
            }
            Some(NodeRole::Common(c)) if c.configurer_ip == target_ip => {
                // A member of the vanished head: report in via the
                // closest head (§IV-D) and adopt the initiator as the new
                // configurer.
                let my_ip = c.ip;
                let network = c.network_id;
                c.configurer = initiator;
                c.configurer_ip = initiator_ip;
                c.administrator = None;
                // Hardened: never relay the report through the head being
                // reclaimed. A crashed or partitioned target can never be
                // the nearest live head anyway, but an alive-and-silent
                // Byzantine one can — and it would swallow the REC_REP,
                // vacating this member's lease at finalize time.
                let excluded = self.cfg.harden.then_some(target);
                if let Some((nearest, _)) =
                    self.nearest_head_excluding(w, node, Some(network), excluded)
                {
                    let _ = w.unicast(
                        node,
                        nearest,
                        MsgCategory::Reclamation,
                        Msg::RecRep {
                            target_ip,
                            ip: my_ip,
                            node,
                            target,
                        },
                    );
                }
            }
            _ => {}
        }
    }

    /// A head receives a `REC_REP`: forward it to the initiator (or
    /// record it, if we are the initiator). Holders of a replica also
    /// refresh their copy.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_rec_rep(
        &mut self,
        w: &mut Net<'_, Msg>,
        head: NodeId,
        _from: NodeId,
        target_ip: Addr,
        ip: Addr,
        node: NodeId,
        target: NodeId,
    ) {
        if let Some(rs) = self.reclaims.get_mut(&target) {
            if self.reclaim_initiators.get(&target) == Some(&head) {
                if !rs.confirmed.iter().any(|(a, _)| *a == ip) {
                    rs.confirmed.push((ip, node));
                }
                return;
            }
        }
        // Refresh our replica if we hold one.
        if let Some(state) = self.head_state_mut(head) {
            if let Some(rep) = state.quorum_space.get_mut(&target) {
                rep.table.set(ip, AddrStatus::Allocated(node.index()));
            }
        }
        // Forward toward the initiator (§IV-D: "it will forward the
        // message to its adjacent cluster heads until the allocation
        // information is updated").
        if let Some(&initiator) = self.reclaim_initiators.get(&target) {
            if initiator != head && w.is_alive(initiator) {
                let _ = w.unicast(
                    head,
                    initiator,
                    MsgCategory::Reclamation,
                    Msg::RecRep {
                        target_ip,
                        ip,
                        node,
                        target,
                    },
                );
            }
        }
    }

    /// The collection window closed: absorb the vanished head's space.
    pub(crate) fn on_reclaim_finalize(
        &mut self,
        w: &mut Net<'_, Msg>,
        initiator: NodeId,
        target: NodeId,
    ) {
        let Some(rs) = self.reclaims.remove(&target) else {
            return;
        };
        self.reclaim_initiators.remove(&target);
        w.flow_event(FlowKind::Reclaim, target, FlowStage::Finalized);
        let Some(state) = self.head_state_mut(initiator) else {
            return;
        };
        let Some(rep) = state.quorum_space.remove(&target) else {
            return;
        };
        state.qd_set.remove(&target);
        state.suspended.remove(&target);

        // Absorb the blocks; skip any that somehow overlap our space.
        for b in &rep.blocks {
            let _ = state.pool.absorb(*b);
        }
        // Merge the replica's last-known records, then correct them with
        // what the collection learned: confirmed members stay allocated,
        // every other previously-allocated address (including the head's
        // own) becomes vacant.
        state.pool.table_mut().merge(&rep.table);
        let previously_allocated: Vec<Addr> = rep
            .table
            .iter()
            .filter(|(a, r)| matches!(r.status, AddrStatus::Allocated(_)) && state.pool.owns(*a))
            .map(|(a, _)| a)
            .collect();
        for a in previously_allocated {
            if !rs.confirmed.iter().any(|(ca, _)| *ca == a) {
                state.pool.table_mut().set(a, AddrStatus::Vacant);
                state.members.remove(&a);
            }
        }
        if state.pool.owns(rs.target_ip)
            && matches!(
                state.pool.table().status(rs.target_ip),
                AddrStatus::Allocated(_)
            )
        {
            state.pool.table_mut().set(rs.target_ip, AddrStatus::Vacant);
        }
        for (addr, member) in &rs.confirmed {
            if state.pool.owns(*addr) {
                state
                    .pool
                    .table_mut()
                    .set(*addr, AddrStatus::Allocated(member.index()));
            }
            state.members.insert(*addr, *member);
        }
        // Foreign stamps are not comparable with ours: re-assert our own
        // address (and pre-existing members) against any merged record.
        let own_ip = state.ip;
        if state.pool.owns(own_ip) {
            state
                .pool
                .table_mut()
                .set(own_ip, AddrStatus::Allocated(initiator.index()));
        }

        // Replicate the enlarged space.
        self.push_replica(w, initiator, MsgCategory::Reclamation);
    }
}
