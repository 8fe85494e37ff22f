//! Protocol wrappers the benchmark drives the simulator with: a timing
//! shim around any [`ProtocolCore`], and a no-op core for event-loop
//! floor probes. Both live here because the benchmark edits no file of
//! the program; they see a handler only from outside, through
//! [`ProtocolCore::handle`].

use addrspace::{Addr, PoolView};
use conformance::{ConformanceAdapter, Guarantees};
use manet_sim::{FaultPlan, World};
use proto_io::{Input, MsgCategory, Net, NodeId, ProtocolCore, SimDuration};
use std::time::Instant;

/// Input kinds the wrapper accounts separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Input::Join`.
    Join = 0,
    /// `Input::Message`.
    Msg = 1,
    /// `Input::TimerFired`.
    Timer = 2,
    /// `Input::Leave` and `Input::LinkChange`.
    Other = 3,
}

/// Span names per [`Kind`], indexable by `Kind as usize`.
pub const KIND_SPANS: [&str; 4] = [
    "handler.join",
    "handler.msg",
    "handler.timer",
    "handler.other",
];

/// Busy time and call counts per input kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Busy {
    /// Nanoseconds inside `handle`, inclusive of the `Net` effects the
    /// handler triggers.
    pub ns: [u64; 4],
    /// Calls.
    pub calls: [u64; 4],
}

impl Busy {
    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &Busy) {
        for k in 0..4 {
            self.ns[k] += other.ns[k];
            self.calls[k] += other.calls[k];
        }
    }

    /// Busy nanoseconds over all kinds.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Mean nanoseconds per call of one kind (0 without calls).
    #[must_use]
    pub fn mean_ns(&self, kind: Kind) -> f64 {
        let k = kind as usize;
        if self.calls[k] == 0 {
            0.0
        } else {
            self.ns[k] as f64 / self.calls[k] as f64
        }
    }
}

/// Every how many messages the wrapper keeps one for the codec probes.
const CAPTURE_STRIDE: u64 = 16;
/// Cap on kept messages.
const CAPTURE_MAX: usize = 8192;

/// Times every [`ProtocolCore::handle`] call of the wrapped core with
/// two clock reads, by input kind. Behaviour is the inner core's: the
/// wrapper forwards every input unchanged and adds no effect.
#[derive(Debug)]
pub struct Timed<P: ProtocolCore> {
    inner: P,
    busy: Busy,
    capture: bool,
    captured: Vec<P::Msg>,
    seen: u64,
}

impl<P: ProtocolCore> Timed<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        Timed {
            inner,
            busy: Busy::default(),
            capture: false,
            captured: Vec::new(),
            seen: 0,
        }
    }

    /// Wraps `inner` and keeps every 16th delivered message (up to
    /// 8192) as the message mix for the codec probes.
    pub fn capturing(inner: P) -> Self {
        Timed {
            capture: true,
            ..Timed::new(inner)
        }
    }

    /// The tally so far.
    #[must_use]
    pub fn busy(&self) -> Busy {
        self.busy
    }

    /// The kept message sample.
    #[must_use]
    pub fn captured(&self) -> &[P::Msg] {
        &self.captured
    }
}

impl<P: ProtocolCore> ProtocolCore for Timed<P> {
    type Msg = P::Msg;

    fn on_join(&mut self, w: &mut Net<'_, Self::Msg>, node: NodeId) {
        self.inner.on_join(w, node);
    }

    fn on_message(&mut self, w: &mut Net<'_, Self::Msg>, to: NodeId, from: NodeId, msg: Self::Msg) {
        self.inner.on_message(w, to, from, msg);
    }

    fn on_timer(&mut self, w: &mut Net<'_, Self::Msg>, node: NodeId, tag: u64) {
        self.inner.on_timer(w, node, tag);
    }

    fn on_link_change(&mut self, w: &mut Net<'_, Self::Msg>, node: NodeId, neighbors: &[NodeId]) {
        self.inner.on_link_change(w, node, neighbors);
    }

    fn on_leave(&mut self, w: &mut Net<'_, Self::Msg>, node: NodeId, graceful: bool) {
        self.inner.on_leave(w, node, graceful);
    }

    fn is_cluster_head(&self, node: NodeId) -> bool {
        self.inner.is_cluster_head(node)
    }

    fn handle(&mut self, w: &mut Net<'_, Self::Msg>, node: NodeId, input: Input<Self::Msg>) {
        let kind = match &input {
            Input::Join => Kind::Join,
            Input::Message { msg, .. } => {
                if self.capture {
                    if self.seen.is_multiple_of(CAPTURE_STRIDE) && self.captured.len() < CAPTURE_MAX
                    {
                        self.captured.push(msg.clone());
                    }
                    self.seen += 1;
                }
                Kind::Msg
            }
            Input::TimerFired { .. } => Kind::Timer,
            Input::LinkChange { .. } | Input::Leave { .. } => Kind::Other,
        } as usize;
        let start = Instant::now();
        self.inner.handle(w, node, input);
        self.busy.ns[kind] += start.elapsed().as_nanos() as u64;
        self.busy.calls[kind] += 1;
    }
}

/// The oracle reads protocol state through the adapter; the wrapper
/// answers with the inner core's, so a checked run of `Timed<P>` is a
/// checked run of `P`.
impl<P: ConformanceAdapter> ConformanceAdapter for Timed<P> {
    fn fresh() -> Self {
        Timed::new(P::fresh())
    }

    fn name() -> &'static str {
        P::name()
    }

    fn guarantees(plan: &FaultPlan) -> Guarantees {
        P::guarantees(plan)
    }

    fn assigned_pairs(&self, w: &World<Self::Msg>) -> Vec<(NodeId, Addr)> {
        self.inner.assigned_pairs(w)
    }

    fn pool_views(&self, w: &World<Self::Msg>) -> Vec<(NodeId, PoolView)> {
        self.inner.pool_views(w)
    }

    fn stamp_views(&self, w: &World<Self::Msg>) -> Vec<((NodeId, NodeId, Addr), u64)> {
        self.inner.stamp_views(w)
    }
}

/// What a [`Null`] node does when its timer fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NullMode {
    /// Re-arm the timer: queue push, pop and dispatch, nothing else.
    Timer,
    /// One-hop broadcast, then re-arm: the hello path with an empty
    /// receive handler.
    Fanout,
    /// One unicast to a random node, no re-arm: each source pays one
    /// fresh BFS over the snapshot.
    Unicast,
}

/// A core that does no protocol work, for measuring the simulator's own
/// cost per event.
#[derive(Debug)]
pub struct Null {
    mode: NullMode,
    nodes: u64,
}

impl Null {
    /// A no-op core over `nodes` nodes (ids `0..nodes`).
    #[must_use]
    pub fn new(mode: NullMode, nodes: u64) -> Self {
        Null { mode, nodes }
    }
}

/// Timer period of the no-op core.
const NULL_PERIOD: SimDuration = SimDuration::from_millis(100);

impl ProtocolCore for Null {
    type Msg = ();

    fn on_join(&mut self, w: &mut Net<'_, ()>, node: NodeId) {
        w.set_timer(node, NULL_PERIOD, 0);
    }

    fn on_message(&mut self, _w: &mut Net<'_, ()>, _to: NodeId, _from: NodeId, _msg: ()) {}

    fn on_timer(&mut self, w: &mut Net<'_, ()>, node: NodeId, _tag: u64) {
        match self.mode {
            NullMode::Timer => {
                w.set_timer(node, NULL_PERIOD, 0);
            }
            NullMode::Fanout => {
                let _ = w.broadcast_within(node, 1, MsgCategory::Hello, ());
                w.set_timer(node, NULL_PERIOD, 0);
            }
            NullMode::Unicast => {
                let to = NodeId::new(w.rng_range_u64(0..self.nodes));
                let _ = w.unicast(node, to, MsgCategory::Maintenance, ());
            }
        }
    }
}
