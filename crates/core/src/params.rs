use addrspace::{AddrBlock, STOCK_SPACE};
use proto_io::SimDuration;

/// How a common node reports its location as it moves (§IV-C.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdatePolicy {
    /// Periodic `UPDATE_LOC` whenever the node drifts more than three hops
    /// from its configurer/administrator (the paper's default).
    #[default]
    Periodic,
    /// The "upon-leave update" alternative: no location updates; the node
    /// only sends `RETURN_ADDR` to the nearest cluster head on departure.
    UponLeave,
}

/// How an entering node picks its allocator among candidate cluster heads
/// (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocatorChoice {
    /// The nearest cluster head (fewest hops).
    #[default]
    Nearest,
    /// The paper's alternative for even address distribution: the
    /// candidate with the largest available IP block.
    LargestBlock,
}

/// First-node retry period `T_e` (§IV-B): how long the very first node
/// waits for a response to its broadcast before retrying.
pub const TE: SimDuration = SimDuration::from_millis(200);

/// First-node retry threshold `Max_r` (§IV-B).
pub const MAX_R: u32 = 3;

/// Quorum-collection patience `T_d` (§V-B): after this, unresponsive
/// `QDSet` members are excluded (quorum shrink) and probed with
/// `REP_REQ`.
pub const TD: SimDuration = SimDuration::from_millis(300);

/// Liveness-probe patience `T_r` (§V-B): a `REP_REQ` unanswered for this
/// long is retried; after [`PROBE_ATTEMPTS`] silent rounds the cluster
/// head is declared gone and reclaimed.
pub const TR: SimDuration = SimDuration::from_secs(1);

/// How many `REP_REQ` rounds a silent head gets before reclamation.
pub const PROBE_ATTEMPTS: u64 = 3;

/// Interval between hello beacons.
pub const HELLO_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Interval at which common nodes check their distance to their
/// configurer/administrator (periodic update policy).
pub const LOC_UPDATE_INTERVAL: SimDuration = SimDuration::from_secs(2);

/// How long a reclamation initiator collects `REC_REP` responses before
/// finalizing.
pub const RECLAIM_COLLECT: SimDuration = SimDuration::from_millis(500);

/// How long an entering node that found no allocator waits before
/// retrying its join (before [`join_backoff`] scales it).
pub const JOIN_RETRY: SimDuration = SimDuration::from_millis(600);

/// How many times an entering node retries before giving up.
pub const JOIN_ATTEMPTS: u32 = 12;

/// Hardened only: sliding window over which a receiver counts accepted
/// `ADDR_REC` floods per initiator.
pub const RECLAIM_RATE_WINDOW: SimDuration = SimDuration::from_secs(5);

/// Hardened only: `ADDR_REC` floods accepted from one initiator within
/// [`RECLAIM_RATE_WINDOW`] before further floods from it are ignored.
/// One legitimate reclamation needs a single flood; a false-reclaim
/// attacker needs many.
pub const MAX_RECLAIMS_PER_WINDOW: u32 = 2;

// A probe outwaits a vote, and the rate limit admits one legitimate
// reclamation.
const _: () = assert!(TR.as_micros() > TD.as_micros() && MAX_RECLAIMS_PER_WINDOW >= 1);

/// Retry pause before join attempt `attempts + 1`: exponential backoff
/// doubling every other failed attempt, capped at 8× [`JOIN_RETRY`]. A
/// joiner facing total reply loss keeps probing forever, but without
/// saturating the channel.
#[must_use]
pub fn join_backoff(attempts: u32) -> SimDuration {
    let shift = (attempts / 2).min(3);
    JOIN_RETRY * (1u64 << shift)
}

/// The settable parameters of the quorum-based autoconfiguration
/// protocol: the policies its evaluation varies. The paper's timers and
/// bounds are the constants above.
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// The network's total address space, owned by the first cluster head.
    pub space: AddrBlock,
    /// Location-update policy.
    pub update_policy: UpdatePolicy,
    /// Allocator-selection policy.
    pub allocator_choice: AllocatorChoice,
    /// Replication floor: cluster heads grow their quorum set when
    /// `|QDSet|` drops below this (§V-B gives 3).
    pub min_qdset: usize,
    /// Enables address borrowing from `QuorumSpace` (§V-A). Disabling it
    /// is the ablation: depleted heads must agent-forward or reject.
    pub enable_borrowing: bool,
    /// Enables the Byzantine-hardened variant: origin-authentication
    /// checks on `COM_CFG`/`QUORUM_CFM`/`ADDR_REC`/`OWN_CLAIM`,
    /// stamp-window replay rejection on ownership claims, and
    /// reclamation rate-limiting. Off by default — the paper's protocol
    /// trusts every member. Honest *senders* always stamp and tag their
    /// messages (pure arithmetic) under [`crate::auth::SCENARIO_AUTH_KEY`],
    /// so this flag changes only what receivers verify and never perturbs
    /// honest-path scheduling.
    pub harden: bool,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            space: STOCK_SPACE,
            update_policy: UpdatePolicy::Periodic,
            allocator_choice: AllocatorChoice::Nearest,
            min_qdset: 3,
            enable_borrowing: true,
            harden: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ProtocolConfig::default();
        assert_eq!(c.space, STOCK_SPACE);
        assert_eq!(c.min_qdset, 3);
        assert_eq!(c.update_policy, UpdatePolicy::Periodic);
        assert_eq!(c.allocator_choice, AllocatorChoice::Nearest);
        assert!(!c.harden, "paper protocol is unhardened by default");
    }
}
