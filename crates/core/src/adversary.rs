//! The Byzantine adversary plane.
//!
//! A fault plan can designate *attacker nodes*
//! ([`manet_sim::faults::AttackRole`], grammar `attack <node> <kind> at
//! <time>`). An attacker joins the network honestly, acquires an
//! insider identity (an address, a network ID, often a seat in
//! somebody's `QDSet`), and from its start time on is diverted here by
//! the [`ProtocolCore`](proto_io::ProtocolCore) dispatch instead of running
//! the honest handlers. Four roles, one per way the protocol can be
//! lied to:
//!
//! * **squat** — promote a rival head's free addresses into a private
//!   grant queue and hand them to joiners by unsolicited `COM_CFG`,
//!   without ever assembling a quorum. The victim's table never learns
//!   of the squatted grants, so its own next allocations collide with
//!   them: duplicate addresses among honest nodes.
//! * **spoof-cfm** — stay honest except at the voting booth: answer
//!   every `QUORUM_CLT` with a forged grant, and cast additional
//!   grants *in the names of the allocator's other electorate members*
//!   (the simulator's unicast takes the claimed sender, modelling
//!   source-address spoofing). Votes that should fail — stale replicas
//!   after a heal, borrow checks against the owner's authoritative
//!   copy — wrongly carry.
//! * **false-reclaim** — flood a forged `ADDR_REC` naming a live,
//!   well-connected head. Honest heads evict the victim from their
//!   quorum bookkeeping, its members defect to the attacker, and the
//!   victim's live leases go into the attacker's grant queue: stolen
//!   leases re-granted to joiners are instant duplicates.
//! * **replay-claim** — capture every `OWN_CLAIM` legitimately
//!   received (also before the start time, while still undercover),
//!   refuse to cede, and replay the captured credential — claimant
//!   address and stamp kept verbatim — at every other head after a
//!   merge, amplified to cover each victim's own blocks (the attacker
//!   knows them from its replica bookkeeping). Unhardened victims that
//!   lose the tiebreak to the stale claimant carve their pools and
//!   mail the drained live leases to the attacker, which re-grants
//!   them.
//!
//! The adversary is deliberately *omniscient*: it reads the global
//! role registry to pick victims and electorates, the strongest
//! deterministic attacker the simulation can express. It is **not**
//! omnipotent — it holds no scenario key, so every forged tag is
//! computed under [`auth::ADVERSARY_TAINT`](crate::auth) and fails
//! verification at hardened receivers.
//!
//! Every attack action bumps its counter on
//! [`manet_sim::FaultCounters`] (`squats` for unquorumed grants,
//! `spoofed_cfms`, `false_reclaims`, `replayed_claims`) and emits an
//! [`FlowKind::Attack`](manet_sim::FlowKind) span, so manifests and
//! `repro attacks` can quantify the degradation.

use crate::auth;
use crate::msg::Msg;
use crate::params::HELLO_INTERVAL;
use crate::protocol::{tag, Qbac};
use crate::roles::NodeRole;
use addrspace::{Addr, AddrBlock, AddrRecord, AddrStatus};
use proto_io::{AttackKind, FlowKind, FlowStage, IdMap, IdSet, MsgCategory, Net, NodeId};
use quorum::VersionStamp;
use std::collections::VecDeque;

/// How many squatted grants an attacker pushes per hello tick.
const GRANTS_PER_TICK: usize = 2;
/// How deep the squat queue digs into the victim's free space.
const SQUAT_QUEUE: usize = 8;
/// The key attackers forge tags with: outside the trust domain.
const TAINTED_KEY: u64 = auth::SCENARIO_AUTH_KEY ^ auth::ADVERSARY_TAINT;

/// An `OWN_CLAIM` captured by a replay-claim attacker.
#[derive(Debug, Clone)]
pub(crate) struct CapturedClaim {
    claimant_ip: Addr,
    blocks: Vec<AddrBlock>,
    claim_stamp: u64,
}

/// Mutable state of every attacker node, keyed by attacker. Empty (and
/// untouched) unless the fault plan designates attackers.
#[derive(Debug, Default)]
pub(crate) struct AdversaryState {
    /// Addresses queued for unquorumed granting, per attacker.
    grant_queues: IdMap<NodeId, VecDeque<Addr>>,
    /// Attackers whose one-shot setup action (victim selection, flood)
    /// already ran.
    engaged: IdSet<NodeId>,
    /// Captured ownership claims, per replay-claim attacker.
    captured: IdMap<NodeId, Vec<CapturedClaim>>,
    /// `(attacker, victim, claim index, amplified)` replays already
    /// fired. The amplified form (blocks widened to the victim's own
    /// replica) fires once per victim on top of the verbatim one: the
    /// replica may only become known ticks after the first replay.
    replays_sent: IdSet<(NodeId, NodeId, usize, bool)>,
}

impl Qbac {
    /// The attacker's insider identity `(ip, network_id)`, if it has
    /// finished its honest join.
    fn attacker_identity(&self, node: NodeId) -> Option<(Addr, Addr)> {
        match self.roles.get(&node) {
            Some(NodeRole::Common(c)) => Some((c.ip, c.network_id)),
            Some(NodeRole::Head(h)) => Some((h.ip, h.network_id)),
            _ => None,
        }
    }

    /// Honest, live cluster heads (victim candidates), excluding every
    /// designated attacker, sorted by id for determinism.
    fn honest_heads(&self, w: &Net<'_, Msg>) -> Vec<NodeId> {
        let mut heads: Vec<NodeId> = self
            .roles
            .iter()
            .filter(|(n, r)| r.is_head() && w.is_alive(**n) && w.attack_assigned(**n).is_none())
            .map(|(n, _)| *n)
            .collect();
        heads.sort_unstable();
        heads
    }

    /// Live, still-unconfigured nodes — the squatted-grant targets.
    fn grant_targets(&self, w: &Net<'_, Msg>) -> Vec<NodeId> {
        let mut t: Vec<NodeId> = self
            .roles
            .iter()
            .filter(|(n, r)| {
                matches!(r, NodeRole::Unconfigured(_))
                    && w.is_alive(**n)
                    && w.attack_assigned(**n).is_none()
            })
            .map(|(n, _)| *n)
            .collect();
        t.sort_unstable();
        t
    }

    fn attack_span(w: &mut Net<'_, Msg>, node: NodeId) {
        w.flow_event(FlowKind::Attack, node, FlowStage::Started);
        w.flow_event(FlowKind::Attack, node, FlowStage::Finalized);
    }

    // ------------------------------------------------------------------
    // Dispatch diversion
    // ------------------------------------------------------------------

    /// Handles a message delivered to an active attacker. Returns
    /// `false` to fall through to honest processing (the attacker is
    /// still acquiring its identity, or the role leaves this message
    /// honest).
    pub(crate) fn adversary_on_message(
        &mut self,
        w: &mut Net<'_, Msg>,
        to: NodeId,
        from: NodeId,
        msg: &Msg,
        kind: AttackKind,
    ) -> bool {
        match kind {
            // The spoofer keeps its honest persona — a trusted QDSet
            // member — and lies only in the quorum-confirmation traffic:
            // forged vote slates, and poisoned reflections of the
            // commits it is trusted to replicate.
            AttackKind::SpoofCfm => match msg {
                Msg::QuorumClt { seq, .. } => {
                    self.spoof_votes(w, to, from, *seq);
                    true
                }
                Msg::QuorumCommit {
                    owner,
                    addr,
                    record,
                    ..
                } if *owner != to => {
                    // Reflect a forged commit at the owner: same address,
                    // status flipped to vacant, stamp superseding the
                    // authentic one. An unhardened owner applies it to
                    // its authoritative table and frees the live lease it
                    // just granted. Fall through so the honest replica
                    // update still runs (the spoofer stays undercover).
                    self.reflect_poisoned_commit(w, to, *owner, *addr, *record);
                    false
                }
                _ => false,
            },
            AttackKind::Squat | AttackKind::FalseReclaim | AttackKind::ReplayClaim => {
                if self.attacker_identity(to).is_none() {
                    return false; // join honestly first
                }
                match msg {
                    // A requestor found us: grant from the rogue queue.
                    Msg::ComReq => {
                        self.rogue_grant(w, to, from);
                        true
                    }
                    Msg::OwnClaim {
                        claimant_ip,
                        blocks,
                        claim_stamp,
                        ..
                    } if kind == AttackKind::ReplayClaim => {
                        // Capture, and refuse to cede (no OWN_GRANT).
                        self.capture_claim(to, *claimant_ip, blocks.clone(), *claim_stamp);
                        true
                    }
                    Msg::OwnGrant { records, .. } if kind == AttackKind::ReplayClaim => {
                        // A replayed claim paid out: harvest the live
                        // leases for re-granting.
                        let q = self.adversary.grant_queues.entry(to).or_default();
                        for (a, r) in records {
                            if !r.status.is_available() {
                                q.push_back(*a);
                            }
                        }
                        true
                    }
                    // Byzantine silence to everything else: probes go
                    // unanswered, replicas are not returned, claims are
                    // not honored.
                    _ => true,
                }
            }
        }
    }

    /// Handles a timer at an active attacker. The hello tick becomes
    /// the adversary action beat; every other timer lapses.
    pub(crate) fn adversary_on_timer(
        &mut self,
        w: &mut Net<'_, Msg>,
        node: NodeId,
        t: u64,
        kind: AttackKind,
    ) -> bool {
        if kind == AttackKind::SpoofCfm {
            return false; // honest timers; the lies live in the votes
        }
        if self.attacker_identity(node).is_none() {
            return false; // keep the honest join machinery running
        }
        if tag::kind(t) == tag::HELLO {
            self.adversary_tick(w, node, kind);
            w.set_timer(node, HELLO_INTERVAL, tag::mk(tag::HELLO, 0));
        }
        true
    }

    /// Pre-start capture hook: a *designated* replay-claim attacker
    /// records every `OWN_CLAIM` it receives while still honest. The
    /// claim is then also processed honestly by the caller.
    pub(crate) fn adversary_capture_claim(&mut self, w: &Net<'_, Msg>, to: NodeId, msg: &Msg) {
        if w.attack_assigned(to) != Some(AttackKind::ReplayClaim) {
            return;
        }
        if let Msg::OwnClaim {
            claimant_ip,
            blocks,
            claim_stamp,
            ..
        } = msg
        {
            self.capture_claim(to, *claimant_ip, blocks.clone(), *claim_stamp);
        }
    }

    fn capture_claim(
        &mut self,
        node: NodeId,
        claimant_ip: Addr,
        blocks: Vec<AddrBlock>,
        stamp: u64,
    ) {
        let caps = self.adversary.captured.entry(node).or_default();
        if !caps
            .iter()
            .any(|c| c.claimant_ip == claimant_ip && c.claim_stamp == stamp)
        {
            caps.push(CapturedClaim {
                claimant_ip,
                blocks,
                claim_stamp: stamp,
            });
        }
    }

    // ------------------------------------------------------------------
    // Per-tick attack actions
    // ------------------------------------------------------------------

    fn adversary_tick(&mut self, w: &mut Net<'_, Msg>, node: NodeId, kind: AttackKind) {
        match kind {
            AttackKind::Squat => {
                if self.adversary.engaged.insert(node) {
                    self.setup_squat(w, node);
                }
                self.drain_grants(w, node);
            }
            AttackKind::FalseReclaim => {
                if self.adversary.engaged.insert(node) {
                    self.setup_false_reclaim(w, node);
                }
                self.drain_grants(w, node);
            }
            AttackKind::ReplayClaim => {
                self.replay_captured(w, node);
                self.drain_grants(w, node);
            }
            AttackKind::SpoofCfm => {}
        }
    }

    /// Squat setup: target the busiest honest allocator and queue its
    /// next allocations — the same addresses, in the same first-free
    /// order the victim will propose them.
    fn setup_squat(&mut self, w: &mut Net<'_, Msg>, node: NodeId) {
        let victim = self.honest_heads(w).into_iter().max_by_key(|h| {
            (
                self.head_state(*h).map_or(0, |s| s.pool.free_count()),
                std::cmp::Reverse(*h),
            )
        });
        let Some(victim) = victim else { return };
        let Some(vs) = self.head_state(victim) else {
            return;
        };
        let victim_ip = vs.ip;
        let mut avail: Vec<Addr> = vs
            .pool
            .blocks()
            .iter()
            .flat_map(|b| b.iter())
            .filter(|a| vs.pool.table().record(*a).status.is_available())
            .collect();
        avail.sort_unstable();
        // First-free order starts at the victim's own address (§IV-B).
        let split = avail.partition_point(|a| *a < victim_ip);
        let queue: VecDeque<Addr> = avail[split..]
            .iter()
            .chain(avail[..split].iter())
            .copied()
            .take(SQUAT_QUEUE)
            .collect();
        self.adversary.grant_queues.insert(node, queue);
    }

    /// False-reclaim setup: flood a forged `ADDR_REC` against the
    /// honest head with the most live leases, and queue those leases
    /// for stealing.
    fn setup_false_reclaim(&mut self, w: &mut Net<'_, Msg>, node: NodeId) {
        let Some((my_ip, _)) = self.attacker_identity(node) else {
            return;
        };
        let victim = self.honest_heads(w).into_iter().max_by_key(|h| {
            (
                self.head_state(*h).map_or(0, |s| s.members.len()),
                std::cmp::Reverse(*h),
            )
        });
        let Some(victim) = victim else { return };
        let Some(vs) = self.head_state(victim) else {
            return;
        };
        let victim_ip = vs.ip;
        let mut leases: Vec<Addr> = vs.members.keys().copied().collect();
        leases.sort_unstable();
        self.adversary
            .grant_queues
            .insert(node, leases.into_iter().collect());

        // The forged tag is computed under the tainted key: hardened
        // receivers drop the flood, unhardened ones evict the victim.
        let forged = auth::addr_rec_tag(TAINTED_KEY, node, victim_ip);
        let _ = w.flood(
            node,
            MsgCategory::Reclamation,
            Msg::AddrRec {
                target: victim,
                target_ip: victim_ip,
                initiator: node,
                initiator_ip: my_ip,
                auth: forged,
            },
        );
        w.metrics_mut().faults_mut().false_reclaims += 1;
        Self::attack_span(w, node);
    }

    /// Replays every captured claim credential at every honest head not
    /// yet hit. The claimant address and stamp are kept verbatim (the
    /// replay signature a hardened stamp window catches); the claimed
    /// region is amplified to the victim's own blocks, read from the
    /// attacker's replica of it, so a victim that loses the tiebreak to
    /// the stale claimant cedes everything it owns.
    fn replay_captured(&mut self, w: &mut Net<'_, Msg>, node: NodeId) {
        let caps = match self.adversary.captured.get(&node) {
            Some(c) if !c.is_empty() => c.clone(),
            _ => return,
        };
        let victims: Vec<(NodeId, Option<Vec<AddrBlock>>)> = self
            .honest_heads(w)
            .into_iter()
            .map(|v| {
                let replica = self
                    .head_state(node)
                    .and_then(|s| s.quorum_space.get(&v))
                    .map(|rep| rep.blocks.clone())
                    .filter(|b| !b.is_empty());
                (v, replica)
            })
            .collect();
        for (idx, c) in caps.iter().enumerate() {
            for (v, replica) in &victims {
                let amplified = replica.is_some();
                if !self
                    .adversary
                    .replays_sent
                    .insert((node, *v, idx, amplified))
                {
                    continue;
                }
                let blocks = replica.clone().unwrap_or_else(|| c.blocks.clone());
                let forged = auth::own_claim_tag(TAINTED_KEY, c.claimant_ip, *v, c.claim_stamp);
                if w.unicast(
                    node,
                    *v,
                    MsgCategory::Maintenance,
                    Msg::OwnClaim {
                        claimant_ip: c.claimant_ip,
                        blocks,
                        claim_stamp: c.claim_stamp,
                        auth: forged,
                    },
                )
                .is_ok()
                {
                    w.metrics_mut().faults_mut().replayed_claims += 1;
                    Self::attack_span(w, node);
                }
            }
        }
    }

    /// Hands out up to [`GRANTS_PER_TICK`] queued addresses to live
    /// unconfigured nodes by unsolicited, unquorumed `COM_CFG`.
    fn drain_grants(&mut self, w: &mut Net<'_, Msg>, node: NodeId) {
        let Some((my_ip, network_id)) = self.attacker_identity(node) else {
            return;
        };
        let targets = self.grant_targets(w);
        for target in targets.into_iter().take(GRANTS_PER_TICK) {
            let Some(addr) = self
                .adversary
                .grant_queues
                .get_mut(&node)
                .and_then(VecDeque::pop_front)
            else {
                return;
            };
            self.send_rogue_cfg(w, node, target, addr, my_ip, network_id);
        }
    }

    /// A requestor asked the attacker directly: same rogue grant.
    fn rogue_grant(&mut self, w: &mut Net<'_, Msg>, node: NodeId, requestor: NodeId) {
        let Some((my_ip, network_id)) = self.attacker_identity(node) else {
            return;
        };
        let Some(addr) = self
            .adversary
            .grant_queues
            .get_mut(&node)
            .and_then(VecDeque::pop_front)
        else {
            return; // silence; the requestor's retry finds a real head
        };
        self.send_rogue_cfg(w, node, requestor, addr, my_ip, network_id);
    }

    fn send_rogue_cfg(
        &mut self,
        w: &mut Net<'_, Msg>,
        node: NodeId,
        target: NodeId,
        addr: Addr,
        my_ip: Addr,
        network_id: Addr,
    ) {
        let forged = auth::com_cfg_tag(TAINTED_KEY, my_ip, addr, target);
        if w.unicast(
            node,
            target,
            MsgCategory::Configuration,
            Msg::ComCfg {
                ip: addr,
                configurer: my_ip,
                network_id,
                spent_hops: 0,
                auth: forged,
            },
        )
        .is_ok()
        {
            w.metrics_mut().faults_mut().squats += 1;
            Self::attack_span(w, node);
        }
    }

    /// Forges a full slate of grants for one `QUORUM_CLT`: our own vote
    /// plus one in the name of every other member of the allocator's
    /// electorate (source-address spoofing at the network layer).
    fn spoof_votes(&mut self, w: &mut Net<'_, Msg>, node: NodeId, allocator: NodeId, seq: u64) {
        let mut voters = vec![node];
        if let Some(head) = self.head_state(allocator) {
            for m in head.electorate() {
                if m != node && w.is_alive(m) {
                    voters.push(m);
                }
            }
        }
        let mut forged = 0u64;
        for voter in voters {
            let auth = auth::quorum_cfm_tag(TAINTED_KEY, voter, seq, true);
            if w.unicast(
                voter,
                allocator,
                MsgCategory::Configuration,
                Msg::QuorumCfm {
                    seq,
                    grant: true,
                    stamp: VersionStamp::ZERO,
                    auth,
                },
            )
            .is_ok()
            {
                forged += 1;
            }
        }
        if forged > 0 {
            w.metrics_mut().faults_mut().spoofed_cfms += forged;
            Self::attack_span(w, node);
        }
    }

    /// Reflects a poisoned `QUORUM_COMMIT` back at the space's owner:
    /// the record the spoofer was just trusted to replicate, with the
    /// status flipped to vacant and the stamp bumped past the authentic
    /// one so the freshest-copy rule at the owner prefers it.
    fn reflect_poisoned_commit(
        &mut self,
        w: &mut Net<'_, Msg>,
        node: NodeId,
        owner: NodeId,
        addr: Addr,
        record: AddrRecord,
    ) {
        let poisoned = AddrRecord {
            status: AddrStatus::Vacant,
            stamp: VersionStamp::new(record.stamp.get().wrapping_add(1)),
        };
        let auth = auth::quorum_commit_tag(TAINTED_KEY, owner, addr, poisoned);
        if w.unicast(
            node,
            owner,
            MsgCategory::Configuration,
            Msg::QuorumCommit {
                owner,
                addr,
                record: poisoned,
                auth,
            },
        )
        .is_ok()
        {
            w.metrics_mut().faults_mut().spoofed_cfms += 1;
            Self::attack_span(w, node);
        }
    }
}
