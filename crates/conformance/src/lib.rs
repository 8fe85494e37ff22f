//! Model-conformance oracle for the address-autoconfiguration
//! protocols.
//!
//! The paper's core claim is a *safety* claim: quorum voting serializes
//! allocation so no two nodes ever hold the same address, even across
//! partitions and cluster-head failures (§IV). End-of-run audits
//! (`audit_unique`, `leak_audit`) only spot-check that claim; this
//! crate hunts violating schedules automatically.
//!
//! The oracle models the address-allocation state machine abstractly —
//! a pool of addresses partitioned among owners, grants serialized by
//! the allocator, reclaim/merge reconciliation — and checks four
//! invariants after **every** simulator event:
//!
//! * **`addr-unique`** — no two alive configured nodes in one connected
//!   component hold the same address.
//! * **`pool-conserved`** — leak-freedom: each pool's free + allocated
//!   records account for its whole space, blocks never overlap within
//!   or across alive owners (in-flight delegations may leave gaps —
//!   that is what `leak_audit` measures — but never double-ownership),
//!   and every configured address inside an alive pool is backed by an
//!   `Allocated` record there.
//! * **`grant-stable`** — quorum-grant monotonicity: a configured
//!   node's address never changes without the node first passing
//!   through the unconfigured state (merge/re-init does exactly that).
//! * **`stamp-monotonic`** — per `(holder, owner, addr)` replica
//!   record, the version stamp never decreases (§II-C).
//!
//! Protocols plug in through the [`ConformanceAdapter`] trait, are
//! named in [`registry`] ([`for_protocol!`]), and declare a *guarantee
//! envelope* per fault plan: the baselines genuinely lose uniqueness
//! under lossy links (that is the paper's point), so the oracle only
//! holds each protocol to what it claims. The quorum protocol claims
//! uniqueness, grant stability, and stamp monotonicity under every plan (see [`adapters`] for the
//! two envelope concessions the oracle itself motivated).
//!
//! Drive the oracle with [`drive::run_check`] under the seeded chaos
//! [`schedules`](registry::chaos_schedules); when a run violates an
//! invariant, [`shrink::shrink`] delta-debugs the fault schedule and
//! node count down to a smallest failing repro and emits a replayable
//! [`Artifact`] that `repro replay <file>` reproduces
//! byte-for-byte.

#![forbid(unsafe_code)]

pub mod adapter;
pub mod adapters;
pub mod artifact;
pub mod attacks;
pub mod broken;
pub mod checker;
pub mod drive;
pub mod registry;
pub mod shrink;

pub use adapter::{clean_links, partition_free, ConformanceAdapter, Guarantees};
pub use artifact::Artifact;
pub use attacks::{attack_canaries, AttackCanary, HardenedQbac};
pub use broken::DoubleGrant;
pub use checker::{Checker, Invariant, NearMiss, Violation};
pub use drive::{run_check, step_workload, CheckConfig, CheckOutcome};
pub use registry::{chaos_schedules, replay_check, run_named, shrink_named, NamedSchedule};
pub use shrink::shrink;
