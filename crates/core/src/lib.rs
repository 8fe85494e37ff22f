//! Quorum-based IP address autoconfiguration for MANETs.
//!
//! A from-scratch reproduction of *"Quorum Based IP Address
//! Autoconfiguration in Mobile Ad Hoc Networks"* (Tinghui Xu and Jie Wu,
//! ICDCS 2007 workshops). The protocol is **stateful** with **partial
//! replication**: cluster heads own disjoint IP address blocks, replicate
//! each block at the adjacent cluster heads (the `QDSet`), and serialize
//! every allocation through **quorum voting** — a strict majority of
//! replicas, with a dynamic-linear-voting tiebreak — so that
//!
//! * no two nodes are ever configured with the same address,
//! * a partitioned network cannot double-allocate (only the majority side
//!   can assemble a quorum), and
//! * the space of an abruptly departed head stays usable as long as half
//!   its replicas survive.
//!
//! The crate provides [`Qbac`], an implementation of
//! [`proto_io::ProtocolCore`] that runs the full protocol as a
//! message-passing state machine over the `manet_sim` discrete-event
//! simulator: configuration of common nodes and cluster heads (§IV-B),
//! movement and departure (§IV-C), address reclamation (§IV-D), address
//! borrowing (§V-A), quorum adjustment (§V-B), and network partition and
//! merging (§V-C).
//!
//! # Quickstart
//!
//! ```
//! use manet_sim::{Point, Sim, SimDuration, WorldConfig};
//! use qbac_core::{ProtocolConfig, Qbac};
//!
//! let mut sim = Sim::new(WorldConfig::default(), Qbac::new(ProtocolConfig::default()));
//! // The first node becomes the first cluster head and owns the space.
//! let first = sim.spawn_at(Point::new(500.0, 500.0));
//! sim.run_for(SimDuration::from_secs(2));
//! // A nearby joiner is configured as a common node via quorum voting.
//! let second = sim.spawn_at(Point::new(550.0, 500.0));
//! sim.run_for(SimDuration::from_secs(2));
//!
//! let assigned = sim.protocol().assigned(sim.world());
//! assert_eq!(assigned.len(), 2);
//! assert!(sim.protocol().role(first).unwrap().is_head());
//! # let _ = second;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
pub mod auth;
mod flows;
mod inspect;
mod maintenance;
mod msg;
mod params;
mod partition;
mod protocol;
mod reclaim;
mod roles;
mod vote;
pub mod wire;

pub use inspect::DuplicateAddress;
pub use msg::{Msg, QuorumOp};
pub use params::{
    join_backoff, AllocatorChoice, ProtocolConfig, UpdatePolicy, HELLO_INTERVAL, JOIN_ATTEMPTS,
    JOIN_RETRY, LOC_UPDATE_INTERVAL, MAX_R, MAX_RECLAIMS_PER_WINDOW, PROBE_ATTEMPTS,
    RECLAIM_COLLECT, RECLAIM_RATE_WINDOW, TD, TE, TR,
};
pub use protocol::{ProtocolStats, Qbac};
pub use roles::{CommonState, HeadState, JoinState, NodeRole, ReplicatedSpace};
