//! The quorum-collection engine (§II-C, §II-D, §V-B).
//!
//! Every allocation-affecting operation runs a vote over the allocator's
//! active `QDSet`. The allocator's own copy counts as one implicit grant;
//! external members vote by checking their replicas. A strict majority of
//! `|electorate| + 1` copies carries the vote, with the dynamic-linear
//! tiebreak for even counts: the *distinguished node* is the head whose
//! `IPSpace` contains the address (Definition 2) — the allocator itself
//! for ordinary allocations, the space's owner for borrows.
//!
//! Unresponsive members trigger the §V-B adjustment: after `T_d` they are
//! suspended (quorum shrink), probed with `REP_REQ`, and either restored
//! on `REP_ACK` or reclaimed after `T_r`.

use crate::auth::SCENARIO_AUTH_KEY;
use crate::msg::{Msg, QuorumOp};
use crate::params::{PROBE_ATTEMPTS, TD, TR};
use crate::protocol::{tag, Qbac};
use addrspace::{Addr, AddrBlock};
use proto_io::{FlowKind, FlowStage, MsgCategory, Net, NodeId};
use quorum::{DynamicLinearRule, VersionStamp};
use std::collections::BTreeSet;

/// RFC-1982-style serial-number freshness over the `u64` stamp space:
/// `stamp` is fresh relative to `last` iff it is not equal to it and
/// lies in the half-space ahead of it. Monotonic counters that wrap
/// stay comparable; a replayed (older or equal) stamp is never fresh.
pub(crate) fn stamp_fresh(last: u64, stamp: u64) -> bool {
    stamp != last && stamp.wrapping_sub(last) < 1 << 63
}

/// Why a vote is being collected; determines what happens on completion.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum VotePurpose {
    /// Configure `requestor` as a common node with `addr` from the
    /// allocator's own space.
    CommonConfig { requestor: NodeId, addr: Addr },
    /// Configure `requestor` as a common node with `addr` borrowed from
    /// `owner`'s space (§V-A).
    Borrow {
        requestor: NodeId,
        owner: NodeId,
        addr: Addr,
    },
    /// Split half the allocator's block for `requestor`, a new head.
    HeadConfig { requestor: NodeId },
    /// Claim the contested `blocks` from `rival` after a partition
    /// merge left both heads owning them (pool-ownership
    /// reconciliation). The allocator is the deterministic tiebreak
    /// winner; on success it sends `OWN_CLAIM` to the rival.
    OwnBlocks {
        rival: NodeId,
        blocks: Vec<AddrBlock>,
    },
}

/// An in-flight quorum collection at an allocator.
#[derive(Debug, Clone)]
pub(crate) struct PendingVote {
    pub allocator: NodeId,
    pub purpose: VotePurpose,
    /// Members polled in this round.
    pub polled: Vec<NodeId>,
    pub grants: BTreeSet<NodeId>,
    pub refusals: BTreeSet<NodeId>,
    /// The distinguished node if it is *not* the allocator (borrows).
    pub distinguished: Option<NodeId>,
    /// Freshest stamp seen among refusing replicas (diagnostic).
    pub freshest_refusal: VersionStamp,
    /// Critical-path hop cost of this collection. The vote requests go
    /// out in parallel and the allocator proceeds as soon as a majority
    /// has answered, so latency is the round trip of the *k-th fastest*
    /// member, where k grants complete the quorum — not the slowest and
    /// not the sum. Total hop *overhead* is still charged to
    /// [`manet_sim::Metrics`] per message.
    pub hops: u32,
    /// Whether the §V-B shrink already ran for this vote.
    pub shrunk: bool,
    /// Extra hops the requestor already spent (carried through from the
    /// triggering request).
    pub req_hops: u32,
    /// Set once decided, so late votes and the timeout are ignored.
    pub decided: bool,
}

impl PendingVote {
    /// Evaluates the quorum condition over the currently responding
    /// electorate: `polled` voters plus the allocator's implicit grant.
    pub(crate) fn quorum_met(&self) -> bool {
        let voters = self.polled.len() + 1;
        let grants = self.grants.len() + 1;
        let has_distinguished = match self.distinguished {
            None => true, // the allocator itself holds the address
            Some(d) => self.grants.contains(&d),
        };
        DynamicLinearRule::new(voters).is_quorum_with(grants, has_distinguished)
    }

    /// Returns `true` if enough refusals arrived that the quorum can no
    /// longer be met even if every silent member granted.
    pub(crate) fn quorum_impossible(&self) -> bool {
        let voters = self.polled.len() + 1;
        let potential = voters - self.refusals.len();
        let has_distinguished = match self.distinguished {
            None => true,
            Some(d) => !self.refusals.contains(&d),
        };
        !DynamicLinearRule::new(voters).is_quorum_with(potential, has_distinguished)
    }
}

impl Qbac {
    /// Starts a quorum collection at `allocator`. With an empty
    /// electorate (a lone head) the vote succeeds immediately.
    pub(crate) fn start_vote(
        &mut self,
        w: &mut Net<'_, Msg>,
        allocator: NodeId,
        op: QuorumOp,
        purpose: VotePurpose,
        req_hops: u32,
        category: MsgCategory,
    ) {
        let Some(head) = self.head_state(allocator) else {
            return;
        };
        let mut electorate = head.electorate();
        // For borrows the owner must be polled even if outside the
        // allocator's QDSet — its copy is the distinguished one.
        let distinguished = match &purpose {
            VotePurpose::Borrow { owner, .. } => {
                if !electorate.contains(owner) && w.is_alive(*owner) {
                    electorate.push(*owner);
                }
                Some(*owner)
            }
            // The contested party must not vote on its own dispossession.
            VotePurpose::OwnBlocks { rival, .. } => {
                let rival = *rival;
                electorate.retain(|m| *m != rival);
                None
            }
            _ => None,
        };

        let seq = self.fresh_seq();
        let mut vote = PendingVote {
            allocator,
            purpose,
            polled: Vec::new(),
            grants: BTreeSet::new(),
            refusals: BTreeSet::new(),
            distinguished,
            freshest_refusal: VersionStamp::ZERO,
            hops: 0,
            shrunk: false,
            req_hops,
            decided: false,
        };

        let mut rtts: Vec<u32> = Vec::new();
        for member in electorate {
            // A member we cannot reach is still polled: the sender has no
            // way to know the message was lost, so it waits out T_d like
            // the paper's allocator does — this is how vanished heads get
            // detected (§V-B).
            if let Ok(h) = w.unicast(
                allocator,
                member,
                category,
                Msg::QuorumClt {
                    seq,
                    op: op.clone(),
                },
            ) {
                rtts.push(2 * h)
            }
            vote.polled.push(member);
        }
        // Latency: the k-th fastest round trip, where k external grants
        // complete a majority of (polled + self).
        rtts.sort_unstable();
        let threshold = vote.polled.len().div_ceil(2) + 1;
        let external_needed = threshold.saturating_sub(1);
        vote.hops = match external_needed {
            0 => 0,
            k => rtts
                .get(k - 1)
                .copied()
                .unwrap_or_else(|| rtts.last().copied().unwrap_or(0)),
        };

        if vote.polled.is_empty() {
            // Singleton electorate: the allocator's own copy is a
            // majority of one.
            vote.decided = true;
            self.votes.insert(seq, vote);
            self.finish_vote(w, seq, true);
            return;
        }

        w.set_timer(allocator, TD, tag::mk(tag::VOTE_TIMEOUT, seq));
        self.votes.insert(seq, vote);
    }

    /// A `QDSet` member answers a `QUORUM_CLT` by checking its replica
    /// (or its own pool, when it is the owner being asked for a borrow).
    pub(crate) fn on_quorum_clt(
        &mut self,
        w: &mut Net<'_, Msg>,
        member: NodeId,
        allocator: NodeId,
        seq: u64,
        op: QuorumOp,
    ) {
        let (grant, stamp) = match (&op, self.head_state(member)) {
            (QuorumOp::CheckAddr { owner, addr }, Some(head)) => {
                if *owner == member {
                    // We own the space (borrow case): authoritative copy.
                    let rec = head.pool.table().record(*addr);
                    (
                        rec.status.is_available() && head.pool.owns(*addr),
                        rec.stamp,
                    )
                } else if let Some(rep) = head.quorum_space.get(owner) {
                    let rec = rep.table.record(*addr);
                    (rec.status.is_available(), rec.stamp)
                } else {
                    (false, VersionStamp::ZERO)
                }
            }
            (QuorumOp::SplitBlock { owner }, Some(head)) => {
                // Granting a split only requires holding a copy of the
                // owner's space; the vote serializes concurrent splits.
                (head.quorum_space.contains_key(owner), VersionStamp::ZERO)
            }
            (
                QuorumOp::ClaimBlocks {
                    claimant,
                    rival,
                    blocks,
                },
                Some(head),
            ) => {
                let touches = |owned: &[AddrBlock]| {
                    blocks.iter().any(|c| owned.iter().any(|b| b.overlaps(c)))
                };
                // Our replica of the claimant backs the claim outright.
                let backed = head
                    .quorum_space
                    .get(claimant)
                    .is_some_and(|rep| touches(&rep.blocks));
                // A head other than the two disputants (including
                // ourselves) also claiming the region contradicts it.
                let contradicted = touches(head.pool.blocks())
                    || head
                        .quorum_space
                        .iter()
                        .any(|(h, rep)| h != claimant && h != rival && touches(&rep.blocks));
                // With no contradicting knowledge, defer to the
                // deterministic tiebreak that selected the claimant.
                (backed || !contradicted, VersionStamp::ZERO)
            }
            // Non-heads hold no replicas and refuse.
            (_, None) => (false, VersionStamp::ZERO),
        };
        let auth = crate::auth::quorum_cfm_tag(SCENARIO_AUTH_KEY, member, seq, grant);
        let _ = w.unicast(
            member,
            allocator,
            MsgCategory::Configuration,
            Msg::QuorumCfm {
                seq,
                grant,
                stamp,
                auth,
            },
        );
    }

    /// The allocator tallies a `QUORUM_CFM`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_quorum_cfm(
        &mut self,
        w: &mut Net<'_, Msg>,
        allocator: NodeId,
        voter: NodeId,
        seq: u64,
        grant: bool,
        stamp: VersionStamp,
        auth: u64,
    ) {
        // Hardened: a vote must carry the tag only a key-holding member
        // can compute for `(voter, seq, grant)` — forged or spoofed-
        // origin votes are discarded before they touch the tally.
        if self.cfg.harden
            && auth != crate::auth::quorum_cfm_tag(SCENARIO_AUTH_KEY, voter, seq, grant)
        {
            return;
        }
        let Some(vote) = self.votes.get_mut(&seq) else {
            return;
        };
        if vote.decided || vote.allocator != allocator || !vote.polled.contains(&voter) {
            return;
        }
        if grant {
            vote.grants.insert(voter);
        } else {
            vote.refusals.insert(voter);
            vote.freshest_refusal = vote.freshest_refusal.max(stamp);
        }
        if vote.quorum_met() {
            vote.decided = true;
            self.finish_vote(w, seq, true);
        } else if vote.quorum_impossible() {
            vote.decided = true;
            self.finish_vote(w, seq, false);
        }
    }

    /// `T_d` expired: run the §V-B quorum adjustment — suspend silent
    /// members, probe them with `REP_REQ`, and re-evaluate the vote over
    /// the shrunken electorate.
    pub(crate) fn on_vote_timeout(&mut self, w: &mut Net<'_, Msg>, allocator: NodeId, seq: u64) {
        let Some(vote) = self.votes.get(&seq) else {
            return;
        };
        if vote.decided || vote.allocator != allocator {
            return;
        }
        let silent: Vec<NodeId> = vote
            .polled
            .iter()
            .filter(|m| !vote.grants.contains(m) && !vote.refusals.contains(m))
            .copied()
            .collect();

        if !silent.is_empty() {
            self.stats.quorum_shrinks += 1;
            for m in &silent {
                self.suspend_member(w, allocator, *m);
            }
        }

        let Some(vote) = self.votes.get_mut(&seq) else {
            return;
        };
        // Re-evaluate over responders only.
        vote.polled.retain(|m| !silent.contains(m));
        vote.shrunk = true;
        let outcome = if vote.quorum_met() {
            Some(true)
        } else {
            // Even a full house of remaining silence can't help now:
            // everyone left has voted.
            Some(false)
        };
        if let Some(ok) = outcome {
            vote.decided = true;
            self.finish_vote(w, seq, ok);
        }
    }

    /// Suspends a silent `QDSet` member and probes it (§V-B).
    pub(crate) fn suspend_member(&mut self, w: &mut Net<'_, Msg>, head: NodeId, member: NodeId) {
        let Some(state) = self.head_state_mut(head) else {
            return;
        };
        let Some(ip) = state.qd_set.get(&member).copied() else {
            return;
        };
        state.suspended.insert(member, ip);
        if self.probes.contains_key(&(head, member)) {
            return;
        }
        let _ = w.unicast(head, member, MsgCategory::Maintenance, Msg::RepReq);
        w.set_timer(head, TR, tag::mk(tag::REP_TIMEOUT, member.index()));
        self.probes.insert((head, member), 1);
    }

    /// A probed member answered: restore it to the active electorate,
    /// and cancel any reclamation we started against it (a mobility
    /// pocket, not a death).
    pub(crate) fn on_rep_ack(&mut self, w: &mut Net<'_, Msg>, head: NodeId, member: NodeId) {
        self.probes.remove(&(head, member));
        if self.reclaim_initiators.get(&member) == Some(&head) {
            if self.reclaims.remove(&member).is_some() {
                w.flow_event(FlowKind::Reclaim, member, FlowStage::Abandoned);
            }
            self.reclaim_initiators.remove(&member);
        }
        let member_ip = self.head_state(member).map(|s| s.ip).or_else(|| {
            self.head_state(head)
                .and_then(|s| s.suspended.get(&member).copied())
        });
        if let Some(state) = self.head_state_mut(head) {
            if let Some(ip) = state.suspended.remove(&member) {
                state.qd_set.insert(member, member_ip.unwrap_or(ip));
            }
        }
    }

    /// `T_r` expired without a `REP_ACK`. Mobility makes one missed probe
    /// a weak signal, so the probe is retried a few times; only a member
    /// that stays silent is declared gone and reclaimed (§V-B → §IV-D),
    /// or, if we are left with nothing, the partition re-initializes.
    pub(crate) fn on_rep_timeout(&mut self, w: &mut Net<'_, Msg>, head: NodeId, member: NodeId) {
        let Some(attempts) = self.probes.get(&(head, member)).copied() else {
            return; // answered in time
        };
        if attempts < PROBE_ATTEMPTS {
            let _ = w.unicast(head, member, MsgCategory::Maintenance, Msg::RepReq);
            w.set_timer(head, TR, tag::mk(tag::REP_TIMEOUT, member.index()));
            self.probes.insert((head, member), attempts + 1);
            return;
        }
        self.probes.remove(&(head, member));
        let Some(state) = self.head_state_mut(head) else {
            return;
        };
        let member_ip = state
            .suspended
            .remove(&member)
            .or_else(|| state.qd_set.remove(&member));
        state.qd_set.remove(&member);
        let Some(member_ip) = member_ip else {
            return;
        };
        // With a replica of the vanished head we can reclaim its space
        // (§IV-D). Without one, and with nothing left to allocate from
        // and no head in reach, we are an isolated cluster head and
        // re-initialize the partition (§V-C).
        let has_replica = state.quorum_space.contains_key(&member);
        let exhausted = state.pool.free_count() == 0 && state.quorum_space.is_empty();
        if has_replica {
            self.start_reclamation(w, head, member, member_ip);
        } else if self.head_state(head).is_some_and(|s| s.qd_set.is_empty())
            && exhausted
            && self.heads_within(w, head, u32::MAX, None).is_empty()
        {
            self.reinitialize_network(w, head);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::stamp_fresh;

    #[test]
    fn stamp_window_boundary_rejects_equal_accepts_successor() {
        // The boundary stamp (exactly the last seen value) is a replay.
        assert!(!stamp_fresh(5, 5));
        assert!(stamp_fresh(5, 6));
        assert!(!stamp_fresh(5, 4));
        // Zero against zero is still a replay; the first real stamp of a
        // fresh counter (1 against an initial 0) is accepted.
        assert!(!stamp_fresh(0, 0));
        assert!(stamp_fresh(0, 1));
    }

    #[test]
    fn stamp_window_wraps_across_u64_max() {
        // A counter near the top of the space wraps: small stamps are
        // *ahead* of huge ones, not behind them.
        assert!(stamp_fresh(u64::MAX - 1, 2));
        assert!(stamp_fresh(u64::MAX, 0));
        // ...but the old huge stamp is stale relative to the wrapped one.
        assert!(!stamp_fresh(2, u64::MAX - 1));
    }

    #[test]
    fn stamp_window_rejects_stale_half_space() {
        assert!(!stamp_fresh(10, 3));
        // Exactly half the space ahead is the ambiguous point; the
        // strict `< 2^63` window rejects it (RFC 1982's undefined case
        // resolved conservatively).
        assert!(!stamp_fresh(0, 1 << 63));
        assert!(stamp_fresh(0, (1 << 63) - 1));
    }
}
