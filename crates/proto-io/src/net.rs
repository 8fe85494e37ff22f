use crate::flow::{FlowKind, FlowStage};
use crate::ids::NodeId;
use crate::metrics::{Metrics, MsgCategory};
use crate::time::{SimDuration, SimTime};
use crate::timer::TimerId;
use crate::AttackKind;
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Why a send failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SendError {
    /// The sender is not alive.
    SenderDead,
    /// No multi-hop path currently exists to the destination (different
    /// partition, or the destination is gone).
    Unreachable,
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::SenderDead => write!(f, "sender is not alive"),
            SendError::Unreachable => write!(f, "destination unreachable"),
        }
    }
}

impl Error for SendError {}

/// The effect boundary of the sans-io contract: everything a protocol
/// may ask of, or do to, the network it runs on.
///
/// A backend owns delivery, timers, topology knowledge, the seeded RNG,
/// and the measurement sink. Protocol code holds it as `&mut` [`Net`] —
/// this trait as an object — and calls these methods directly: one
/// dynamic call per effect, performed *eagerly* (effect ordering is call
/// ordering; nothing is buffered or reordered). The discrete-event
/// simulator's `World` is the one implementor; the UDP mesh rides inside
/// it as a wire shadow.
///
/// A backend that records protocol I/O appends each effect's
/// [`Event`](crate::Event) to its [`EventLog`](crate::EventLog) *after*
/// the effect completes, so the record carries the backend's verdict
/// (hop counts, recipients, assigned timer ids) — a flood's recipients
/// only there: the protocol gets their count.
///
/// Every method must be deterministic given the backend's seed and event
/// history: transcript equivalence across backends depends on it.
pub trait NetBackend<M> {
    /// Current virtual time.
    fn now(&self) -> SimTime;

    /// Whether `node` is currently alive.
    fn is_alive(&self, node: NodeId) -> bool;

    /// Whether `node` has declared itself configured.
    fn is_configured(&self, node: NodeId) -> bool;

    /// One-hop neighbors of `node`, sorted by id.
    fn neighbors(&mut self, node: NodeId) -> Vec<NodeId>;

    /// Alive nodes within `k` hops of `node` (excluding itself), with
    /// their hop distances, sorted by `(distance, id)`.
    fn nodes_within(&mut self, node: NodeId, k: u32) -> Vec<(NodeId, u32)>;

    /// Shortest-path hop count between two nodes, if connected.
    fn hops_between(&mut self, a: NodeId, b: NodeId) -> Option<u32>;

    /// Whether `b` is at most `k` hops from `a` — the answer of
    /// `hops_between(a, b).is_some_and(|h| h <= k)`, without looking
    /// further than `k` hops from `a`.
    fn within_hops(&mut self, a: NodeId, b: NodeId, k: u32) -> bool;

    /// The alive node other than `node` nearest to it that satisfies
    /// `pred` — fewest hops, lowest id among equals — with its distance.
    /// Candidates are offered in exactly that order and the search stops
    /// at the first one accepted.
    fn nearest(
        &mut self,
        node: NodeId,
        pred: &mut dyn FnMut(NodeId) -> bool,
    ) -> Option<(NodeId, u32)>;

    /// The connected component containing `node`.
    fn component_of(&mut self, node: NodeId) -> Vec<NodeId>;

    /// A label for the connected component containing `node`: two alive
    /// nodes can reach each other iff their labels are equal. `None` if
    /// `node` is not alive.
    fn component_id(&mut self, node: NodeId) -> Option<usize>;

    /// One uniform draw from the backend's seeded protocol RNG stream.
    fn rng_range_u64(&mut self, range: Range<u64>) -> u64;

    /// The attack role `node` is *actively* running right now, if any.
    fn attack_role(&self, node: NodeId) -> Option<AttackKind>;

    /// The attack role assigned to `node` by the fault plan (whether or
    /// not it has activated yet), if any.
    fn attack_assigned(&self, node: NodeId) -> Option<AttackKind>;

    /// The measurement sink for protocol-observed statistics.
    fn metrics_mut(&mut self) -> &mut Metrics;

    /// Emit a flow-span lifecycle event.
    fn flow_event(&mut self, kind: FlowKind, node: NodeId, stage: FlowStage);

    /// Declare `node` configured (starts mobility in the simulator).
    fn mark_configured(&mut self, node: NodeId);

    /// Remove `node` from the network.
    fn remove_node(&mut self, node: NodeId);

    /// Multi-hop unicast; returns the charged hop count.
    ///
    /// # Errors
    ///
    /// [`SendError::SenderDead`] if `from` is not alive,
    /// [`SendError::Unreachable`] if no path to `to` exists right now.
    fn unicast(
        &mut self,
        from: NodeId,
        to: NodeId,
        category: MsgCategory,
        msg: M,
    ) -> Result<u32, SendError>;

    /// Bounded flood to every alive node within `k` hops; returns how
    /// many it reached. A recording backend's record lists them.
    ///
    /// # Errors
    ///
    /// [`SendError::SenderDead`] if `from` is not alive.
    fn broadcast_within(
        &mut self,
        from: NodeId,
        k: u32,
        category: MsgCategory,
        msg: M,
    ) -> Result<usize, SendError>;

    /// Global flood over `from`'s connected component; returns how many
    /// nodes it reached. A recording backend's record lists them.
    ///
    /// # Errors
    ///
    /// [`SendError::SenderDead`] if `from` is not alive.
    fn flood(&mut self, from: NodeId, category: MsgCategory, msg: M) -> Result<usize, SendError>;

    /// Schedule a timer on `node`; `tag` is passed back on firing.
    fn set_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) -> TimerId;

    /// Cancel a pending timer (no-op if already fired or cancelled).
    fn cancel_timer(&mut self, id: TimerId);
}

/// The handle a [`ProtocolCore`](crate::ProtocolCore) callback receives:
/// the backend itself, as a trait object.
pub type Net<'a, M> = dyn NetBackend<M> + 'a;

impl<M> dyn NetBackend<M> + '_ {
    /// Chooses a uniformly random element of a slice, or `None` if
    /// empty. Draw-for-draw identical to `SimRng::choose`: an empty
    /// slice consumes nothing from the stream.
    pub fn rng_choose<'t, T>(&mut self, items: &'t [T]) -> Option<&'t T> {
        if items.is_empty() {
            None
        } else {
            let i = self.rng_range_u64(0..items.len() as u64) as usize;
            Some(&items[i])
        }
    }
}
