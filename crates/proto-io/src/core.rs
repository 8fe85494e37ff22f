use crate::io::Input;
use crate::net::Net;
use crate::wire::WireMsg;
use crate::NodeId;

/// A sans-io protocol state machine.
///
/// One `ProtocolCore` value holds the state of *every* node (the model is
/// a single-process view of the whole network); callbacks identify which
/// node the event concerns. Implementations react by querying and sending
/// through the [`Net`] handle — the backend itself, as a
/// [`NetBackend`](crate::NetBackend) object — and never touch a simulator,
/// a socket, or a clock directly, which is what lets the same core run
/// unmodified on the discrete-event simulator and the UDP mesh transport,
/// with transcript equality as the proof.
///
/// # Lifecycle
///
/// * [`on_join`](ProtocolCore::on_join) — the node has just entered the
///   network (powered on in radio range of whoever is nearby). Protocols
///   usually begin their configuration exchange here.
/// * [`on_message`](ProtocolCore::on_message) — a message addressed to
///   `to` arrived.
/// * [`on_timer`](ProtocolCore::on_timer) — a timer set via
///   [`set_timer`](crate::NetBackend::set_timer) fired.
/// * [`on_link_change`](ProtocolCore::on_link_change) — the transport
///   observed a new one-hop neighbor set for the node. Only emitted by
///   transports that track link state as events.
/// * [`on_leave`](ProtocolCore::on_leave) — the node is departing. For
///   graceful leaves the node is still alive and may run its departure
///   handshake; the protocol must eventually call
///   [`remove_node`](crate::NetBackend::remove_node). For abrupt leaves
///   the node is already dead and can no longer send.
///
/// Drivers may either call the individual callbacks or feed typed
/// [`Input`]s through [`handle`](ProtocolCore::handle); the two are
/// equivalent by construction.
pub trait ProtocolCore {
    /// The protocol's message type.
    type Msg: WireMsg;

    /// A node has entered the network.
    fn on_join(&mut self, w: &mut Net<'_, Self::Msg>, node: NodeId);

    /// A message has been delivered to `to`.
    fn on_message(&mut self, w: &mut Net<'_, Self::Msg>, to: NodeId, from: NodeId, msg: Self::Msg);

    /// A timer set by this protocol fired on `node`. `tag` is the value
    /// passed to `set_timer`. Default: ignore.
    fn on_timer(&mut self, w: &mut Net<'_, Self::Msg>, node: NodeId, tag: u64) {
        let _ = (w, node, tag);
    }

    /// The transport observed a new one-hop neighbor set for `node`.
    /// Default: ignore (cores that need topology query it through
    /// [`Net`] instead; this input exists for link-state transports).
    fn on_link_change(&mut self, w: &mut Net<'_, Self::Msg>, node: NodeId, neighbors: &[NodeId]) {
        let _ = (w, node, neighbors);
    }

    /// `node` is leaving. `graceful` nodes are still alive and should run
    /// their departure handshake; abrupt nodes are already dead.
    /// Default: for graceful leaves, remove the node immediately.
    fn on_leave(&mut self, w: &mut Net<'_, Self::Msg>, node: NodeId, graceful: bool) {
        if graceful {
            w.remove_node(node);
        }
    }

    /// Whether `node` currently acts as a cluster head (or equivalent
    /// leader/allocator role). The fault plane uses this to resolve
    /// targeted head-kill schedules; leaderless protocols keep the
    /// default. Default: no node is a head.
    fn is_cluster_head(&self, node: NodeId) -> bool {
        let _ = node;
        false
    }

    /// Single sans-io entry point: consume one [`Input`] for `node`,
    /// performing every resulting effect through `w`. Provided — it
    /// dispatches to the callbacks above.
    fn handle(&mut self, w: &mut Net<'_, Self::Msg>, node: NodeId, input: Input<Self::Msg>) {
        match input {
            Input::Join => self.on_join(w, node),
            Input::Message { from, msg } => self.on_message(w, node, from, msg),
            Input::TimerFired { tag } => self.on_timer(w, node, tag),
            Input::LinkChange { neighbors } => self.on_link_change(w, node, &neighbors),
            Input::Leave { graceful } => self.on_leave(w, node, graceful),
        }
    }
}
