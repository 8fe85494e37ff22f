use crate::ids::NodeId;

/// One event a [`ProtocolCore`](crate::ProtocolCore) consumes.
///
/// Inputs are produced by drivers (the simulator's event loop, the mesh
/// transport's socket reader) and fed to
/// [`ProtocolCore::handle`](crate::ProtocolCore::handle); the core never
/// learns where they came from. `L` is how a neighbor list is held:
/// owned when fed to a core, a [`Span`](crate::Span) — like the message —
/// in the [`EventLog`](crate::EventLog)'s record of the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input<M, L = Vec<NodeId>> {
    /// The node has just entered the network.
    Join,
    /// A message addressed to the node arrived.
    Message {
        /// The original sender.
        from: NodeId,
        /// The delivered message.
        msg: M,
    },
    /// A timer previously set by the core fired.
    TimerFired {
        /// The tag passed to `set_timer`.
        tag: u64,
    },
    /// The node's one-hop neighborhood changed (transports that track
    /// link state deliver the new neighbor set; the discrete-event
    /// simulator, whose topology queries are part of the [`Net`]
    /// contract, does not emit these).
    ///
    /// [`Net`]: crate::Net
    LinkChange {
        /// The node's current one-hop neighbors, sorted by id.
        neighbors: L,
    },
    /// The node is departing. Graceful nodes are still alive and may run
    /// their departure handshake; abrupt nodes are already dead.
    Leave {
        /// Whether the departure is graceful.
        graceful: bool,
    },
}
