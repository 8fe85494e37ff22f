use crate::flow::{FlowKind, FlowStage};
use crate::io::Input;
use crate::metrics::MsgCategory;
use crate::net::SendError;
use crate::time::{SimDuration, SimTime};
use crate::timer::TimerId;
use crate::wire::WireMsg;
use crate::NodeId;
use std::collections::VecDeque;
use std::fmt;

/// Why the fault plane dropped a delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// A link fault's drop probability fired.
    Link,
    /// Sender or receiver stood in an active jam region.
    Jam,
    /// The delivery crossed an active partition boundary.
    Partition,
}

impl fmt::Display for DropCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DropCause::Link => "link",
            DropCause::Jam => "jam",
            DropCause::Partition => "partition",
        })
    }
}

/// A run of payload bytes or of node ids inside an [`EventLog`]'s
/// arenas; [`EventLog::payload`] and [`EventLog::node_list`] resolve it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn new(start: usize, end: usize) -> Self {
        let narrow = |n: usize| u32::try_from(n).expect("event log arena stays under 4 GiB");
        Span {
            start: narrow(start),
            len: narrow(end - start),
        }
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// One logged event, of one of two classes.
///
/// *Net-level* events (the first ten variants) are what the network did:
/// written by the backend's own send, lifecycle and fault paths whoever
/// calls them, rendered by [`EventLog::to_jsonl`]. *Protocol-I/O* events
/// are what crossed the sans-io boundary — the five [`Input`]s a driver
/// fed and the effects a protocol performed through its
/// [`NetBackend`](crate::NetBackend) — rendered by [`EventLog::lines`]
/// and its siblings. Message payloads and node lists are [`Span`]s into
/// the log's arenas, so every event is a fixed-size `Copy` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Event {
    /// A unicast was sent (`hops` = charged path length).
    Unicast {
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Traffic category.
        category: MsgCategory,
        /// Charged hops.
        hops: u32,
    },
    /// A bounded or global flood was sent.
    Broadcast {
        /// Originator.
        from: NodeId,
        /// Hop bound (`None` = component-wide flood).
        k: Option<u32>,
        /// Traffic category.
        category: MsgCategory,
        /// Number of recipients.
        recipients: usize,
        /// Charged transmissions.
        charge: u64,
    },
    /// A node joined the network.
    Join {
        /// The node.
        node: NodeId,
    },
    /// A node was removed.
    Remove {
        /// The node.
        node: NodeId,
    },
    /// The fault plane dropped a scheduled delivery.
    FaultDrop {
        /// Sender.
        from: NodeId,
        /// Intended recipient.
        to: NodeId,
        /// Traffic category.
        category: MsgCategory,
        /// Why it was dropped.
        cause: DropCause,
    },
    /// The fault plane added extra latency to a delivery.
    FaultDelay {
        /// Sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
        /// Injected extra latency.
        by: SimDuration,
    },
    /// The fault plane delivered extra copies of a message.
    FaultDuplicate {
        /// Sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
        /// Number of extra copies.
        copies: u32,
    },
    /// A scheduled crash (or head kill) removed a node.
    Crash {
        /// The node that died.
        node: NodeId,
    },
    /// A crashed node restarted as a fresh joiner.
    Restart {
        /// The node that came back.
        node: NodeId,
    },
    /// A flow span: one lifecycle stage of a correlation-ID-stamped
    /// protocol flow, as the backend's observer numbered it.
    Flow {
        /// Correlation ID shared by every stage of the flow.
        flow: u64,
        /// What the flow is doing (join, reclaim, merge).
        kind: FlowKind,
        /// The node the flow concerns.
        node: NodeId,
        /// The lifecycle stage reached.
        stage: FlowStage,
    },
    /// An [`Input`] was fed to `node`'s core; its message is held as the
    /// [`WireMsg::wire_encode`] bytes and its neighbor list as a node span.
    Fed {
        /// The node the input was fed to.
        node: NodeId,
        /// The input.
        input: Input<Span, Span>,
    },
    /// A protocol sent a unicast.
    SendUnicast {
        /// The sending node.
        from: NodeId,
        /// The destination.
        to: NodeId,
        /// Accounting category.
        category: MsgCategory,
        /// The message's [`WireMsg::wire_encode`] bytes.
        bytes: Span,
        /// The backend's verdict: the charged hop count.
        hops: Result<u32, SendError>,
    },
    /// A protocol sent a bounded or global flood.
    SendFlood {
        /// The sending node.
        from: NodeId,
        /// Hop bound (`None` = component-wide flood).
        k: Option<u32>,
        /// Accounting category.
        category: MsgCategory,
        /// The message's [`WireMsg::wire_encode`] bytes.
        bytes: Span,
        /// The backend's verdict: who was reached, in its
        /// deterministic order.
        recipients: Result<Span, SendError>,
    },
    /// A protocol set a timer.
    SetTimer {
        /// The node the timer belongs to.
        node: NodeId,
        /// The backend-assigned id.
        id: TimerId,
        /// Delay until firing.
        delay: SimDuration,
        /// Protocol-chosen tag, passed back on firing.
        tag: u64,
    },
    /// A protocol cancelled a pending timer.
    CancelTimer {
        /// The id being cancelled.
        id: TimerId,
    },
    /// A protocol emitted a flow-span lifecycle event.
    FlowEvent {
        /// The node the flow concerns.
        node: NodeId,
        /// Which flow kind.
        kind: FlowKind,
        /// The lifecycle stage.
        stage: FlowStage,
    },
    /// A protocol declared `node` configured.
    Configured {
        /// The node.
        node: NodeId,
    },
    /// A protocol removed `node` from the network.
    Removed {
        /// The node.
        node: NodeId,
    },
}

impl Event {
    /// Whether this is a protocol-I/O event (an input or an effect)
    /// rather than a net-level one.
    #[must_use]
    pub fn is_io(&self) -> bool {
        matches!(
            self,
            Event::Fed { .. }
                | Event::SendUnicast { .. }
                | Event::SendFlood { .. }
                | Event::SetTimer { .. }
                | Event::CancelTimer { .. }
                | Event::FlowEvent { .. }
                | Event::Configured { .. }
                | Event::Removed { .. }
        )
    }
}

/// A timestamped log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// When the event happened.
    pub at: SimTime,
    /// What happened.
    pub event: Event,
}

/// The one recorder of a run: an append-only log of typed, fixed-size
/// [`Record`]s in the order things happened, rendered only when read.
///
/// Two classes of [`Event`] share it, each behind its own switch and
/// both off by default. A push of a class that is off costs one branch,
/// and a message is encoded ([`WireMsg::wire_encode`], straight into the
/// byte arena) only while protocol I/O is being recorded.
///
/// * [`enable_net`](EventLog::enable_net) keeps the latest `capacity`
///   net-level records — a ring for debugging that counts what it evicts
///   in [`dropped`](EventLog::dropped) — for
///   [`to_jsonl`](EventLog::to_jsonl).
/// * [`enable_io`](EventLog::enable_io) keeps every protocol-I/O record
///   — the *transcript* — for [`lines`](EventLog::lines),
///   [`render`](EventLog::render), [`fingerprint`](EventLog::fingerprint)
///   and [`diff`](EventLog::diff). A transcript that evicts cannot be
///   compared, so while it is on the ring's bound is lifted.
///
/// # The transcript
///
/// Each line is an input (`<`, logged by the driver as it feeds the
/// core) or an effect (`>`, logged by the
/// [`NetBackend`](crate::NetBackend) once the effect has happened, so it
/// carries the backend's verdict). Nothing host- or transport-specific
/// appears in a line — no wall clock, no socket addresses — so two
/// backends running the same scenario produce byte-identical transcripts
/// exactly when they drove the protocol identically.
///
/// * Timestamps are virtual microseconds (`@123456`).
/// * Message payloads appear as their [`WireMsg::wire_encode`] bytes in
///   lowercase hex (`-` when empty), so the mesh (recording what it
///   decoded off the socket) and the simulator (recording what it passed
///   in memory) agree only if the codec round-trips.
/// * Node lists (flood recipients, link-change neighborhoods) keep the
///   backend's deterministic order.
/// * Timer ids appear verbatim: both backends allocate them from a
///   single monotonic counter, so id equality is part of the proof.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    /// Most records the ring retains while only net-level events are
    /// recorded (0 = that class is off).
    capacity: usize,
    io: bool,
    records: VecDeque<Record>,
    bytes: Vec<u8>,
    nodes: Vec<NodeId>,
    dropped: u64,
}

impl EventLog {
    /// Starts recording net-level events, retaining the latest
    /// `capacity` of them (0 stops).
    pub fn enable_net(&mut self, capacity: usize) {
        self.capacity = capacity;
    }

    /// Starts recording protocol I/O, unbounded.
    pub fn enable_io(&mut self) {
        self.io = true;
    }

    /// Whether either class is being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0 || self.io
    }

    /// Whether protocol I/O is being recorded.
    #[must_use]
    pub fn records_io(&self) -> bool {
        self.io
    }

    /// Appends `event` if its class is being recorded.
    #[inline]
    pub fn push(&mut self, at: SimTime, event: Event) {
        let on = if event.is_io() {
            self.io
        } else {
            self.capacity > 0
        };
        if on {
            self.append(at, event);
        }
    }

    fn append(&mut self, at: SimTime, event: Event) {
        if !self.io && self.records.len() >= self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(Record { at, event });
    }

    /// Appends one input a driver fed to `node`'s core.
    pub fn push_input<M: WireMsg>(&mut self, at: SimTime, node: NodeId, input: &Input<M>) {
        if !self.io {
            return;
        }
        let input = match input {
            Input::Join => Input::Join,
            Input::Message { from, msg } => Input::Message {
                from: *from,
                msg: self.intern_msg(msg).expect("recording protocol I/O"),
            },
            Input::TimerFired { tag } => Input::TimerFired { tag: *tag },
            Input::LinkChange { neighbors } => Input::LinkChange {
                neighbors: self.intern_nodes(neighbors.iter().copied()),
            },
            Input::Leave { graceful } => Input::Leave {
                graceful: *graceful,
            },
        };
        self.append(at, Event::Fed { node, input });
    }

    /// `msg`'s wire encoding, appended to the byte arena for the
    /// record about to be pushed; `None`, and `msg` untouched, unless
    /// protocol I/O is being recorded.
    pub fn intern_msg<M: WireMsg>(&mut self, msg: &M) -> Option<Span> {
        self.io.then(|| {
            let start = self.bytes.len();
            msg.wire_encode(&mut self.bytes);
            Span::new(start, self.bytes.len())
        })
    }

    /// Appends `nodes` to the node arena for the record about to be
    /// pushed.
    pub fn intern_nodes(&mut self, nodes: impl IntoIterator<Item = NodeId>) -> Span {
        let start = self.nodes.len();
        self.nodes.extend(nodes);
        Span::new(start, self.nodes.len())
    }

    /// The payload bytes a record's `bytes` span names.
    #[must_use]
    pub fn payload(&self, span: Span) -> &[u8] {
        &self.bytes[span.range()]
    }

    /// The nodes a record's `neighbors` or `recipients` span names.
    #[must_use]
    pub fn node_list(&self, span: Span) -> &[NodeId] {
        &self.nodes[span.range()]
    }

    /// The retained records of both classes, oldest first: the total
    /// order in which the run's events happened.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.records.iter()
    }

    /// Number of retained records, of both classes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}
