//! A discrete-event mobile ad hoc network (MANET) simulator.
//!
//! This crate is the substrate on which the quorum-based autoconfiguration
//! protocol and its baselines run. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer virtual time (microseconds),
//! * [`Arena`], [`Point`] — 2-D geometry for the simulation area,
//! * random-waypoint [`mobility`] at a configurable speed,
//! * a unit-disk radio model with reliable in-range delivery (the paper's
//!   §IV-B assumption) and multi-hop routing over the connectivity graph
//!   at the start of the current topology quantum ([`topology`],
//!   [`World::topology`]),
//! * hop-count message accounting per traffic category ([`Metrics`]),
//! * an event loop ([`Sim`]) driving implementations of [`ProtocolCore`]
//!   through join / message / timer / leave callbacks,
//! * seeded deterministic fault injection ([`faults`]): message drops,
//!   delays and duplication, scheduled crashes/restarts, cluster-head
//!   kills, jamming regions, and scripted partitions, all applied at
//!   the per-recipient delivery choke point every send of a faulted
//!   world takes,
//! * one event log ([`EventLog`]) of two classes, both off by default so
//!   the hot path allocates nothing: a bounded ring of net-level events
//!   for debugging ([`World::enable_trace`], read back via
//!   [`World::trace`], exported as JSON Lines by [`EventLog::to_jsonl`])
//!   and the transcript of protocol I/O ([`World::enable_transcript`])
//!   that the backend differentials compare,
//! * flow spans ([`observer`]) — correlation-ID-stamped protocol
//!   lifecycle records (join started → votes gathered → address
//!   assigned/abandoned, ditto reclamation and partition merge), also
//!   off by default and enabled per run with [`World::enable_observer`],
//! * fixed-bucket log2 [`Histogram`]s behind [`Metrics`] for config
//!   latency, hop costs, quorum vote rounds, and retry counts
//!   (p50/p90/p99, mergeable across replications).
//!
//! Costs are *measured* by running protocols as message-passing state
//! machines, not computed analytically: a unicast charges the shortest-path
//! hop count at send time, a bounded flood charges one transmission per
//! relaying node, and a global flood charges one transmission per node in
//! the connected component.
//!
//! # Example
//!
//! ```
//! use manet_sim::{Net, NodeId, Point, ProtocolCore, Sim, SimDuration, WorldConfig};
//!
//! /// A protocol in which every joining node pings node 0 (its one
//! /// message is a `u8`, which has a one-byte wire form).
//! struct Ping;
//! impl ProtocolCore for Ping {
//!     type Msg = u8;
//!     fn on_join(&mut self, w: &mut Net<'_, Self::Msg>, node: NodeId) {
//!         if node != NodeId::new(0) {
//!             let _ = w.unicast(node, NodeId::new(0), Default::default(), 1);
//!         }
//!     }
//!     fn on_message(&mut self, _w: &mut Net<'_, Self::Msg>, _to: NodeId, _from: NodeId, _m: u8) {}
//! }
//!
//! let mut sim = Sim::new(WorldConfig::default(), Ping);
//! let a = sim.spawn_at(manet_sim::Point::new(10.0, 10.0));
//! let b = sim.spawn_at(manet_sim::Point::new(60.0, 10.0));
//! sim.run_for(SimDuration::from_secs(1));
//! assert_eq!(sim.world().metrics().total_messages(), 1);
//! # let _ = (a, b);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
mod event;
pub mod faults;
pub mod mobility;
pub mod observer;
pub mod routing;
mod sim;
pub mod topology;
mod world;

pub use proto_io::histogram;
pub use proto_io::{
    Arena, AttackKind, Event, EventLog, FaultCounters, FlowKind, FlowStage, Histogram, Input,
    Metrics, MsgCategory, Net, NetBackend, NodeId, PerfCounters, Point, ProtocolCore, Record,
    SendError, SimDuration, SimRng, SimTime, TimerId, WireError, WireMsg,
};

pub use engine::IncrementalTopology;
pub use faults::{AttackRole, FaultPlan};
pub use mobility::{MobilityConfig, MobilityModel, RetargetCtx};
pub use observer::{FlowTally, Observer};
pub use sim::Sim;
pub use world::{WireShadow, World, WorldConfig, HOP_DELAY};

/// Schema version stamped into every JSON artifact the workspace emits
/// (run manifests, `sweep.json`, `BENCH_*.json`). Readers check it
/// before interpreting fields; bump it when an artifact's shape changes
/// incompatibly.
pub const ARTIFACT_SCHEMA_VERSION: u32 = 1;
