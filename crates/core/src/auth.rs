//! HMAC-shaped message-origin authentication stubs.
//!
//! The paper's protocol assumes every node is honest; the Byzantine
//! adversary plane (see the fault plan's `attack` directives) breaks
//! that assumption, and the hardened protocol variant
//! ([`ProtocolConfig::harden`](crate::ProtocolConfig)) answers with
//! origin authentication on the five security-critical messages:
//! `COM_CFG` grants, `QUORUM_CFM` votes, `QUORUM_COMMIT` record
//! updates, `ADDR_REC` reclamation floods, and `OWN_CLAIM` ownership
//! transfers.
//!
//! The tag here is a *stub*, not cryptography: a 64-bit keyed
//! mix shaped like HMAC (inner hash over origin and payload under the
//! key with an inner pad, outer hash under the key with an outer pad).
//! The scenario key models the deployment credential all honest members
//! hold; the adversary is outside that trust domain, so the tags it
//! forges (computed under a tainted key) never verify. A real
//! deployment would substitute per-identity signatures — the protocol
//! changes (which messages carry tags, who verifies, what a failed
//! check does) are exactly what this module lets the simulation
//! exercise.
//!
//! Honest senders always compute tags (pure arithmetic, no RNG, no
//! extra messages), so enabling or disabling hardening never perturbs
//! honest-path scheduling: an unhardened run with an empty adversary
//! plan stays byte-identical to pre-adversary builds.

use addrspace::{Addr, AddrRecord, AddrStatus};
use proto_io::NodeId;

/// The scenario-wide authentication key ("QBACKEY1") every honest member
/// tags and verifies under.
pub const SCENARIO_AUTH_KEY: u64 = 0x5142_4143_4b45_5931;

/// XOR mask modelling the adversary's forged credential: attackers tag
/// with `key ^ ADVERSARY_TAINT`, which never verifies against honest
/// recipients' key.
pub const ADVERSARY_TAINT: u64 = 0xDEC0_DE0F_F00D_5EED;

const IPAD: u64 = 0x3636_3636_3636_3636;
const OPAD: u64 = 0x5c5c_5c5c_5c5c_5c5c;

/// SplitMix64 finalizer: the stand-in compression function.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// HMAC-shaped keyed tag over `(origin, payload)`.
#[must_use]
pub fn auth_tag(key: u64, origin: u64, payload: u64) -> u64 {
    let inner = mix((key ^ IPAD)
        .wrapping_add(mix(origin))
        .wrapping_add(mix(payload).rotate_left(17)));
    mix((key ^ OPAD).wrapping_add(inner))
}

/// Tag for a `COM_CFG` grant: binds the allocator, the assigned
/// address, and the requestor, so a grant cannot be forged for (or
/// redirected to) another node.
#[must_use]
pub fn com_cfg_tag(key: u64, configurer: Addr, ip: Addr, requestor: NodeId) -> u64 {
    auth_tag(
        key,
        u64::from(configurer.bits()),
        (u64::from(ip.bits()) << 20) ^ requestor.index(),
    )
}

/// Tag for a `QUORUM_CFM` vote: binds the voter, the collection round,
/// and the verdict, so votes cannot be cast in another member's name.
#[must_use]
pub fn quorum_cfm_tag(key: u64, voter: NodeId, seq: u64, grant: bool) -> u64 {
    auth_tag(key, voter.index(), (seq << 1) | u64::from(grant))
}

/// Tag for a `QUORUM_COMMIT` record update: binds the space's owner,
/// the address, and the committed record (status and stamp). The commit
/// is the one message that rewrites a head's *authoritative* table
/// remotely, so a reflected commit with the status flipped and a
/// superseding stamp — the spoof-cfm attacker's second move — must
/// never verify.
#[must_use]
pub fn quorum_commit_tag(key: u64, owner: NodeId, addr: Addr, record: AddrRecord) -> u64 {
    let status_word = match record.status {
        AddrStatus::Free => 0,
        AddrStatus::Vacant => 1,
        AddrStatus::Allocated(n) => 2 ^ n.rotate_left(2),
    };
    auth_tag(
        key,
        owner.index() ^ (u64::from(addr.bits()) << 24),
        record.stamp.get() ^ status_word.rotate_left(48),
    )
}

/// Tag for an `ADDR_REC` reclamation flood: binds the initiator and the
/// reclaimed head's address, so reclamations cannot be injected for
/// live leases by nodes outside the trust domain.
#[must_use]
pub fn addr_rec_tag(key: u64, initiator: NodeId, target_ip: Addr) -> u64 {
    auth_tag(key, initiator.index(), u64::from(target_ip.bits()))
}

/// Tag for an `OWN_CLAIM` ownership transfer: binds the claimant, the
/// *recipient*, and the claim stamp. Binding the recipient means a
/// captured claim replayed at a different victim never verifies;
/// replaying it at the same victim is caught by the stamp window
/// (see `vote::stamp_fresh`).
#[must_use]
pub fn own_claim_tag(key: u64, claimant_ip: Addr, recipient: NodeId, claim_stamp: u64) -> u64 {
    auth_tag(
        key,
        u64::from(claimant_ip.bits()) ^ recipient.index().rotate_left(32),
        claim_stamp,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_deterministic_and_key_sensitive() {
        let t = auth_tag(SCENARIO_AUTH_KEY, 7, 9);
        assert_eq!(t, auth_tag(SCENARIO_AUTH_KEY, 7, 9));
        assert_ne!(t, auth_tag(SCENARIO_AUTH_KEY ^ ADVERSARY_TAINT, 7, 9));
        assert_ne!(t, auth_tag(SCENARIO_AUTH_KEY, 8, 9));
        assert_ne!(t, auth_tag(SCENARIO_AUTH_KEY, 7, 10));
    }

    #[test]
    fn com_cfg_tag_binds_requestor() {
        let k = SCENARIO_AUTH_KEY;
        let (c, ip) = (Addr::new(10), Addr::new(20));
        assert_ne!(
            com_cfg_tag(k, c, ip, NodeId::new(1)),
            com_cfg_tag(k, c, ip, NodeId::new(2))
        );
    }

    #[test]
    fn quorum_cfm_tag_binds_voter_seq_and_verdict() {
        let k = SCENARIO_AUTH_KEY;
        let base = quorum_cfm_tag(k, NodeId::new(3), 5, true);
        assert_ne!(base, quorum_cfm_tag(k, NodeId::new(4), 5, true));
        assert_ne!(base, quorum_cfm_tag(k, NodeId::new(3), 6, true));
        assert_ne!(base, quorum_cfm_tag(k, NodeId::new(3), 5, false));
    }

    #[test]
    fn quorum_commit_tag_binds_record_status_and_stamp() {
        use quorum::VersionStamp;
        let k = SCENARIO_AUTH_KEY;
        let rec = |status, stamp| AddrRecord {
            status,
            stamp: VersionStamp::new(stamp),
        };
        let base = quorum_commit_tag(
            k,
            NodeId::new(1),
            Addr::new(9),
            rec(AddrStatus::Allocated(4), 7),
        );
        assert_ne!(
            base,
            quorum_commit_tag(k, NodeId::new(1), Addr::new(9), rec(AddrStatus::Vacant, 7)),
            "flipping the status must change the tag"
        );
        assert_ne!(
            base,
            quorum_commit_tag(
                k,
                NodeId::new(1),
                Addr::new(9),
                rec(AddrStatus::Allocated(4), 8)
            ),
            "bumping the stamp must change the tag"
        );
        assert_ne!(
            base,
            quorum_commit_tag(
                k,
                NodeId::new(2),
                Addr::new(9),
                rec(AddrStatus::Allocated(4), 7)
            )
        );
    }

    #[test]
    fn own_claim_tag_binds_recipient_and_stamp() {
        let k = SCENARIO_AUTH_KEY;
        let c = Addr::new(42);
        let base = own_claim_tag(k, c, NodeId::new(1), 9);
        assert_ne!(base, own_claim_tag(k, c, NodeId::new(2), 9));
        assert_ne!(base, own_claim_tag(k, c, NodeId::new(1), 10));
    }
}
