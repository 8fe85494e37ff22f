use crate::flow::{FlowKind, FlowStage};
use crate::ids::NodeId;
use crate::io::{Cast, Output, SendResult};
use crate::metrics::{Metrics, MsgCategory};
use crate::msg::ProtoMsg;
use crate::time::{SimDuration, SimTime};
use crate::timer::TimerId;
use crate::transcript::Transcript;
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

/// The transport side of the sans-io contract.
///
/// A backend owns delivery, timers, topology knowledge, the seeded RNG,
/// and the measurement sink. The discrete-event simulator's `World` is
/// one backend; the UDP mesh's per-node driver is another. Protocol code
/// never sees this trait — it works through the [`Net`] facade, which
/// forwards eagerly and transcribes.
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
    /// their hop distances.
    fn nodes_within(&mut self, node: NodeId, k: u32) -> Vec<(NodeId, u32)>;

    /// Shortest-path hop count between two nodes, if connected.
    fn hops_between(&mut self, a: NodeId, b: NodeId) -> Option<u32>;

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

    /// Bounded flood to every alive node within `k` hops; returns the
    /// recipients.
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
    ) -> Result<Vec<NodeId>, SendError>;

    /// Global flood over `from`'s connected component; returns the
    /// recipients.
    ///
    /// # Errors
    ///
    /// [`SendError::SenderDead`] if `from` is not alive.
    fn flood(
        &mut self,
        from: NodeId,
        category: MsgCategory,
        msg: M,
    ) -> Result<Vec<NodeId>, SendError>;

    /// Schedule a timer on `node`; `tag` is passed back on firing.
    fn set_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) -> TimerId;

    /// Cancel a pending timer (no-op if already fired or cancelled).
    fn cancel_timer(&mut self, id: TimerId);

    /// The transcript recorder, when this run is being transcribed.
    /// Default: not recording.
    fn transcript_mut(&mut self) -> Option<&mut Transcript> {
        None
    }
}

/// The protocol-facing effect handle: a thin facade over a
/// [`NetBackend`].
///
/// Every call forwards to the backend *eagerly* (effect ordering is call
/// ordering — nothing is buffered or reordered, so backends observe the
/// exact sequence the protocol performed) and, when the backend carries a
/// [`Transcript`], appends the canonical [`Output`] record after the
/// effect completes (records carry the backend's verdict: hop counts,
/// recipients, assigned timer ids).
pub struct Net<'a, M> {
    backend: &'a mut dyn NetBackend<M>,
}

impl<'a, M: ProtoMsg> Net<'a, M> {
    /// Wraps a backend for one protocol callback.
    pub fn new(backend: &'a mut dyn NetBackend<M>) -> Self {
        Net { backend }
    }

    fn record(&mut self, output: Output) {
        let now = self.backend.now();
        if let Some(t) = self.backend.transcript_mut() {
            t.push_output(now, &output);
        }
    }

    fn canon_if_recording(&mut self, msg: &M) -> Option<Vec<u8>> {
        if self.backend.transcript_mut().is_some() {
            let mut bytes = Vec::new();
            msg.canon(&mut bytes);
            Some(bytes)
        } else {
            None
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.backend.now()
    }

    /// Whether `node` is currently alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.backend.is_alive(node)
    }

    /// Whether `node` has declared itself configured.
    pub fn is_configured(&self, node: NodeId) -> bool {
        self.backend.is_configured(node)
    }

    /// One-hop neighbors of `node`, sorted by id.
    pub fn neighbors(&mut self, node: NodeId) -> Vec<NodeId> {
        self.backend.neighbors(node)
    }

    /// Alive nodes within `k` hops of `node` (excluding itself), with
    /// their hop distances.
    pub fn nodes_within(&mut self, node: NodeId, k: u32) -> Vec<(NodeId, u32)> {
        self.backend.nodes_within(node, k)
    }

    /// Shortest-path hop count between two nodes, if connected.
    pub fn hops_between(&mut self, a: NodeId, b: NodeId) -> Option<u32> {
        self.backend.hops_between(a, b)
    }

    /// The alive node other than `node` nearest to it that satisfies
    /// `pred` (fewest hops, lowest id among equals), with its distance.
    pub fn nearest(
        &mut self,
        node: NodeId,
        mut pred: impl FnMut(NodeId) -> bool,
    ) -> Option<(NodeId, u32)> {
        self.backend.nearest(node, &mut pred)
    }

    /// The connected component containing `node`.
    pub fn component_of(&mut self, node: NodeId) -> Vec<NodeId> {
        self.backend.component_of(node)
    }

    /// One uniform draw in `range` from the backend's protocol RNG.
    pub fn rng_range_u64(&mut self, range: Range<u64>) -> u64 {
        self.backend.rng_range_u64(range)
    }

    /// Chooses a uniformly random element of a slice, or `None` if
    /// empty. Draw-for-draw identical to `SimRng::choose`: an empty
    /// slice consumes nothing from the stream.
    pub fn rng_choose<'t, T>(&mut self, items: &'t [T]) -> Option<&'t T> {
        if items.is_empty() {
            None
        } else {
            let i = self.backend.rng_range_u64(0..items.len() as u64) as usize;
            Some(&items[i])
        }
    }

    /// The attack role `node` is actively running right now, if any.
    pub fn attack_role(&self, node: NodeId) -> Option<AttackKind> {
        self.backend.attack_role(node)
    }

    /// The attack role assigned to `node` by the fault plan, if any.
    pub fn attack_assigned(&self, node: NodeId) -> Option<AttackKind> {
        self.backend.attack_assigned(node)
    }

    /// The measurement sink for protocol-observed statistics.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        self.backend.metrics_mut()
    }

    /// Emit a flow-span lifecycle event.
    pub fn flow_event(&mut self, kind: FlowKind, node: NodeId, stage: FlowStage) {
        self.backend.flow_event(kind, node, stage);
        self.record(Output::FlowEvent { node, kind, stage });
    }

    /// Declare `node` configured.
    pub fn mark_configured(&mut self, node: NodeId) {
        self.backend.mark_configured(node);
        self.record(Output::Configured { node });
    }

    /// Remove `node` from the network.
    pub fn remove_node(&mut self, node: NodeId) {
        self.backend.remove_node(node);
        self.record(Output::Removed { node });
    }

    /// Multi-hop unicast; returns the charged hop count.
    ///
    /// # Errors
    ///
    /// See [`NetBackend::unicast`].
    pub fn unicast(
        &mut self,
        from: NodeId,
        to: NodeId,
        category: MsgCategory,
        msg: M,
    ) -> Result<u32, SendError> {
        let canon = self.canon_if_recording(&msg);
        let result = self.backend.unicast(from, to, category, msg);
        if let Some(bytes) = canon {
            let record = match &result {
                Ok(hops) => SendResult::Hops(*hops),
                Err(e) => SendResult::Failed(*e),
            };
            self.record(Output::Send {
                from,
                cast: Cast::Unicast(to),
                category,
                msg: bytes,
                result: record,
            });
        }
        result
    }

    /// Bounded flood within `k` hops; returns the recipients.
    ///
    /// # Errors
    ///
    /// See [`NetBackend::broadcast_within`].
    pub fn broadcast_within(
        &mut self,
        from: NodeId,
        k: u32,
        category: MsgCategory,
        msg: M,
    ) -> Result<Vec<NodeId>, SendError> {
        let canon = self.canon_if_recording(&msg);
        let result = self.backend.broadcast_within(from, k, category, msg);
        if let Some(bytes) = canon {
            let record = match &result {
                Ok(recipients) => SendResult::Recipients(recipients.clone()),
                Err(e) => SendResult::Failed(*e),
            };
            self.record(Output::Send {
                from,
                cast: Cast::Within(k),
                category,
                msg: bytes,
                result: record,
            });
        }
        result
    }

    /// Global flood over `from`'s component; returns the recipients.
    ///
    /// # Errors
    ///
    /// See [`NetBackend::flood`].
    pub fn flood(
        &mut self,
        from: NodeId,
        category: MsgCategory,
        msg: M,
    ) -> Result<Vec<NodeId>, SendError> {
        let canon = self.canon_if_recording(&msg);
        let result = self.backend.flood(from, category, msg);
        if let Some(bytes) = canon {
            let record = match &result {
                Ok(recipients) => SendResult::Recipients(recipients.clone()),
                Err(e) => SendResult::Failed(*e),
            };
            self.record(Output::Send {
                from,
                cast: Cast::Flood,
                category,
                msg: bytes,
                result: record,
            });
        }
        result
    }

    /// Schedule a timer on `node`; `tag` is passed back on firing.
    pub fn set_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) -> TimerId {
        let id = self.backend.set_timer(node, delay, tag);
        self.record(Output::SetTimer {
            node,
            id,
            delay,
            tag,
        });
        id
    }

    /// Cancel a pending timer (no-op if already fired or cancelled).
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.backend.cancel_timer(id);
        self.record(Output::CancelTimer { id });
    }
}
