//! Transport-agnostic protocol vocabulary and the sans-io core contract.
//!
//! This crate is everything a protocol implementation needs and nothing a
//! transport provides: identifiers ([`NodeId`]), integer virtual time
//! ([`SimTime`]), accounting ([`Metrics`], [`Histogram`]), flow telemetry
//! vocabulary ([`FlowKind`], [`FlowStage`]), the seeded [`SimRng`], and —
//! at its heart — the **sans-io contract**:
//!
//! * [`ProtocolCore`] — the protocol state machine. It consumes
//!   [`Input`]s (join, message, timer, link change, leave) and performs
//!   every effect through a [`Net`] handle; it never touches a simulator
//!   or a socket directly.
//! * [`NetBackend`] / [`Net`] — the effect boundary. `NetBackend` is the
//!   trait a transport implements (the discrete-event simulator's world,
//!   with the UDP mesh riding inside it); `Net<'_, M>` is that trait as an
//!   object, `dyn NetBackend<M>`, so a protocol calls the backend's own
//!   methods: one dynamic call per effect, performed *eagerly* — effect
//!   ordering is exactly call ordering, which is what makes behavior
//!   across backends comparable at all.
//! * [`WireMsg`] — the one message trait: every message has a binary
//!   wire form, and [`wire_codec!`] generates it from one declaration of
//!   the layout.
//! * [`EventLog`] — the one recorder: typed, fixed-size [`Event`]
//!   records in the order things happened, rendered only when read. Its
//!   net-level class is the JSONL debugging trace; its protocol-I/O class
//!   is the *transcript*, the wall-clock-free canonical record of every
//!   input a core was fed and every effect it performed. Two backends are
//!   *equivalent on a scenario* when their transcripts are byte-identical;
//!   [`EventLog::diff`] reports the first divergence when they are not.
//!
//! The crate deliberately has no dependency on any transport: protocol
//! crates depending on `proto-io` alone provably cannot reach around the
//! contract (a lint test in `qbac-core` enforces this).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attack;
mod core;
mod flow;
mod fnv;
mod geometry;
pub mod histogram;
mod idmap;
mod ids;
mod io;
mod log;
mod metrics;
mod net;
mod rng;
mod time;
mod timer;
mod trace;
mod transcript;
mod versioned;
pub mod wire;

pub use attack::AttackKind;
pub use core::ProtocolCore;
pub use flow::{FlowKind, FlowStage};
pub use fnv::{fnv1a, fnv1a_extend, FNV1A_INIT};
pub use geometry::{Arena, Point};
pub use histogram::Histogram;
pub use idmap::{IdHasher, IdMap, IdSet};
pub use ids::NodeId;
pub use io::Input;
pub use log::{DropCause, Event, EventLog, Record, Span};
pub use metrics::{FaultCounters, Metrics, MsgCategory, PerfCounters};
pub use net::{Net, NetBackend, SendError};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use timer::TimerId;
pub use versioned::Versioned;
pub use wire::{WireError, WireMsg};
