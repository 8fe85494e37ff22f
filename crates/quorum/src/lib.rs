//! Majority voting, the dynamic-linear tiebreak, and timestamped replica stores.
//!
//! This crate provides the consistency-control machinery used by the
//! quorum-based IP autoconfiguration protocol (Xu & Wu, ICDCS 2007):
//!
//! * [`VoteTally`] — collecting votes for an operation and deciding whether
//!   a quorum has been reached,
//! * [`MajorityRule`] and [`DynamicLinearRule`] — quorum predicates,
//!   including the dynamic-linear-voting tiebreak with a *distinguished
//!   node* (Jajodia & Mutchler) for even replica counts,
//! * [`Replica`] / [`ReplicaStore`] — timestamped copies of replicated
//!   state with freshest-read semantics.
//!
//! # Example
//!
//! ```
//! use quorum::{MajorityRule, QuorumRule, VoteTally};
//!
//! // Five replicas; a majority write quorum needs three voters.
//! let rule = MajorityRule::new(5);
//! let mut tally = VoteTally::new(rule.threshold());
//! tally.grant(1u32);
//! tally.grant(2);
//! assert!(!tally.reached());
//! tally.grant(3);
//! assert!(tally.reached());
//! assert!(rule.is_quorum(tally.granted()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod replica;
mod rules;
mod stamp;
mod tally;

pub use replica::{Replica, ReplicaStore};
pub use rules::{DynamicLinearRule, MajorityRule, QuorumRule};
pub use stamp::VersionStamp;
pub use tally::{TallyOutcome, VoteTally};
