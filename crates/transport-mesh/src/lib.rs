//! Backend #2 of the sans-io stack: an in-process UDP mesh.
//!
//! The discrete-event simulator ([`manet_sim`]) is backend #1 — it
//! moves typed messages through an event queue and never serializes
//! anything. This crate is backend #2: every node runs as a socket
//! task (one thread, one `UdpSocket` on localhost), and every logical
//! delivery is realized as real datagrams carrying the protocol's wire
//! encoding, relayed hop-by-hop along the simulator's link map. A
//! topology filter at each task drops datagrams that did not come from
//! the authorized link peer, so the mesh cannot cheat the radio range.
//!
//! The mesh plugs in underneath the simulator as a
//! [`WireShadow`]: virtual time, RNG streams,
//! timers, and event ordering stay with the simulator, while the
//! message *content* that reaches each recipient is whatever its
//! socket task decoded off the wire. Because the delivered copy is the
//! decoded one, a codec that drops information produces different
//! protocol behaviour — and a transcript divergence — instead of
//! silently passing. That is the property the transcript-differential
//! acceptance suite (in the harness) leans on: byte-identical
//! transcripts across backends prove core, codec, and transports agree
//! end to end.
//!
//! # Quick start
//!
//! ```
//! use manet_sim::{Point, Sim, SimDuration, WorldConfig};
//! use qbac_core::{ProtocolConfig, Qbac};
//! use transport_mesh::MeshShadow;
//!
//! let mut sim = Sim::new(WorldConfig::default(), Qbac::new(ProtocolConfig::default()));
//! sim.world_mut().set_wire_shadow(Box::new(MeshShadow::new()));
//! sim.spawn_at(Point::new(100.0, 100.0));
//! sim.spawn_at(Point::new(180.0, 100.0));
//! sim.run_for(SimDuration::from_secs(2));
//! // Every protocol message just crossed a real UDP socket pair.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod worker;

use manet_sim::WireShadow;
use proto_io::{MsgCategory, NodeId, WireMsg};
use std::collections::HashMap;
use std::fmt;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use worker::{Cmd, RecvOutcome};

/// How long the coordinator waits for one hop's receive report before
/// treating the attempt as failed. Generous against a loaded CI box;
/// loopback transfer itself is microseconds.
const HOP_WAIT: Duration = Duration::from_secs(5);

/// Send attempts per hop before giving up. Loopback UDP loses datagrams
/// only under severe buffer pressure, and the mesh is lockstep (one
/// datagram in flight), so retries are essentially never taken.
const HOP_TRIES: u32 = 3;

/// Transfer counters, exposed for tests and run manifests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshStats {
    /// Datagrams transmitted (one per link traversal, including
    /// self-delivery loopbacks and retries).
    pub datagrams: u64,
    /// Datagrams dropped by the topology filter (wrong source address).
    pub filtered: u64,
    /// Hop attempts retried after a receive timeout.
    pub retries: u64,
}

#[derive(Debug, Default)]
struct SharedStats {
    datagrams: AtomicU64,
    filtered: AtomicU64,
    retries: AtomicU64,
}

impl SharedStats {
    fn snapshot(&self) -> MeshStats {
        MeshStats {
            datagrams: self.datagrams.load(Ordering::Relaxed),
            filtered: self.filtered.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }
}

/// A cloneable view of a mesh's [`MeshStats`] that outlives the shadow
/// handing-off into [`manet_sim::World::set_wire_shadow`] — grab one
/// with [`MeshShadow::stats_handle`] before installing, read it after
/// the run.
#[derive(Clone, Debug)]
pub struct MeshStatsHandle(Arc<SharedStats>);

impl MeshStatsHandle {
    /// The counters as of now.
    #[must_use]
    pub fn snapshot(&self) -> MeshStats {
        self.0.snapshot()
    }
}

struct NodeTask<M> {
    commands: Sender<Cmd<M>>,
    addr: SocketAddr,
    handle: Option<JoinHandle<()>>,
}

/// The UDP-mesh shadow transport. Install on a world with
/// [`manet_sim::World::set_wire_shadow`]; see the [crate docs](self).
pub struct MeshShadow<M: WireMsg + Send + 'static> {
    tasks: HashMap<NodeId, NodeTask<M>>,
    stats: Arc<SharedStats>,
}

impl<M: WireMsg + Send + 'static> MeshShadow<M> {
    /// Creates an empty mesh; node tasks spawn lazily the first time a
    /// node appears on a delivery path.
    #[must_use]
    pub fn new() -> Self {
        MeshShadow {
            tasks: HashMap::new(),
            stats: Arc::new(SharedStats::default()),
        }
    }

    /// Transfer counters so far.
    #[must_use]
    pub fn stats(&self) -> MeshStats {
        self.stats.snapshot()
    }

    /// A counters view that stays readable after the shadow is moved
    /// into the world.
    #[must_use]
    pub fn stats_handle(&self) -> MeshStatsHandle {
        MeshStatsHandle(Arc::clone(&self.stats))
    }

    /// The socket address of `node`'s task, if it has one yet. Tests
    /// use this to aim rogue datagrams at the topology filter.
    #[must_use]
    pub fn addr_of(&self, node: NodeId) -> Option<SocketAddr> {
        self.tasks.get(&node).map(|t| t.addr)
    }

    /// Number of node tasks spawned so far.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    fn task(&mut self, node: NodeId) -> &NodeTask<M> {
        self.tasks.entry(node).or_insert_with(|| {
            let socket = UdpSocket::bind("127.0.0.1:0").expect("bind loopback socket");
            let addr = socket.local_addr().expect("bound socket has an address");
            let (tx, rx) = channel();
            let handle = std::thread::Builder::new()
                .name(format!("mesh-{node}"))
                .spawn(move || worker::run::<M>(socket, rx))
                .expect("spawn node task");
            NodeTask {
                commands: tx,
                addr,
                handle: Some(handle),
            }
        })
    }

    /// Moves `bytes` across one link `from → to` and returns the bytes
    /// and decoded message as received by `to`'s task.
    fn hop(&mut self, from: NodeId, to: NodeId, bytes: &[u8]) -> (M, Vec<u8>) {
        let from_addr = self.task(from).addr;
        let to_addr = self.task(to).addr;
        for attempt in 0..HOP_TRIES {
            if attempt > 0 {
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
            }
            let (reply_tx, reply_rx) = channel();
            let recv = Cmd::Recv {
                expect_from: from_addr,
                reply: reply_tx,
            };
            let send = Cmd::Send {
                to: to_addr,
                bytes: bytes.to_vec(),
            };
            if from == to {
                // One task plays both ends: it must transmit before it
                // blocks on the receive (the datagram waits in its own
                // socket buffer).
                self.tasks[&from].commands.send(send).expect("task alive");
                self.tasks[&to].commands.send(recv).expect("task alive");
            } else {
                // Queue the receive first; a datagram that lands before
                // the task reads the command waits in the socket buffer.
                self.tasks[&to].commands.send(recv).expect("task alive");
                self.tasks[&from].commands.send(send).expect("task alive");
            }
            self.stats.datagrams.fetch_add(1, Ordering::Relaxed);
            match reply_rx.recv_timeout(HOP_WAIT) {
                Ok(RecvOutcome::Got {
                    msg,
                    bytes,
                    filtered,
                }) => {
                    self.stats.filtered.fetch_add(filtered, Ordering::Relaxed);
                    return (msg, bytes);
                }
                Ok(RecvOutcome::TimedOut { filtered }) => {
                    self.stats.filtered.fetch_add(filtered, Ordering::Relaxed);
                }
                Ok(RecvOutcome::DecodeError { reason }) => {
                    panic!("mesh hop {from} -> {to}: datagram failed to decode: {reason}")
                }
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                    panic!("mesh hop {from} -> {to}: node task stopped responding")
                }
            }
        }
        panic!("mesh hop {from} -> {to}: no datagram arrived after {HOP_TRIES} attempts")
    }
}

impl<M: WireMsg + Send + 'static> Default for MeshShadow<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: WireMsg + Send + 'static> fmt::Debug for MeshShadow<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MeshShadow")
            .field("tasks", &self.tasks.len())
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

impl<M: WireMsg + Send + 'static> WireShadow<M> for MeshShadow<M> {
    fn carry(&mut self, path: &[NodeId], _category: MsgCategory, msg: &M) -> M {
        let mut bytes = Vec::new();
        msg.wire_encode(&mut bytes);
        let (first, rest) = path.split_first().expect("paths are non-empty");
        if rest.is_empty() {
            // Self-delivery: still cross the socket, so even a node's
            // messages to itself transit the wire encoding.
            let (decoded, _) = self.hop(*first, *first, &bytes);
            return decoded;
        }
        let mut at = *first;
        let mut decoded = None;
        for &next in rest {
            // Store-and-forward: each relay decodes what it received
            // and re-encodes for the next link, exactly like a real
            // forwarding node — corrupt or lossy encodings die at the
            // first relay.
            let (msg, received) = self.hop(at, next, &bytes);
            bytes = received;
            decoded = Some(msg);
            at = next;
        }
        decoded.expect("at least one hop was taken")
    }
}

impl<M: WireMsg + Send + 'static> Drop for MeshShadow<M> {
    fn drop(&mut self) {
        for task in self.tasks.values_mut() {
            let _ = task.commands.send(Cmd::Shutdown);
        }
        for task in self.tasks.values_mut() {
            if let Some(handle) = task.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Echo(u32);

    impl proto_io::ProtoMsg for Echo {
        fn canon(&self, out: &mut Vec<u8>) {
            proto_io::WireMsg::wire_encode(self, out);
        }
    }

    impl WireMsg for Echo {
        fn wire_encode(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.0.to_be_bytes());
        }

        fn wire_decode(bytes: &[u8]) -> Result<Self, String> {
            let arr: [u8; 4] = bytes.try_into().map_err(|_| "need 4 bytes".to_string())?;
            Ok(Echo(u32::from_be_bytes(arr)))
        }
    }

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn single_hop_round_trips_over_a_socket() {
        let mut mesh = MeshShadow::<Echo>::new();
        let got = mesh.carry(&[n(0), n(1)], MsgCategory::Configuration, &Echo(0xBEEF));
        assert_eq!(got, Echo(0xBEEF));
        assert_eq!(mesh.stats().datagrams, 1);
        assert_eq!(mesh.task_count(), 2);
    }

    #[test]
    fn multi_hop_relays_along_the_path() {
        let mut mesh = MeshShadow::<Echo>::new();
        let got = mesh.carry(
            &[n(0), n(1), n(2), n(3)],
            MsgCategory::Maintenance,
            &Echo(7),
        );
        assert_eq!(got, Echo(7));
        assert_eq!(mesh.stats().datagrams, 3, "one datagram per link");
        assert_eq!(mesh.task_count(), 4);
    }

    #[test]
    fn self_delivery_loops_through_own_socket() {
        let mut mesh = MeshShadow::<Echo>::new();
        let got = mesh.carry(&[n(5)], MsgCategory::Configuration, &Echo(42));
        assert_eq!(got, Echo(42));
        assert_eq!(mesh.stats().datagrams, 1);
        assert_eq!(mesh.task_count(), 1);
    }

    #[test]
    fn topology_filter_drops_rogue_datagrams() {
        let mut mesh = MeshShadow::<Echo>::new();
        // Spawn the two tasks and learn the receiver's address.
        mesh.carry(&[n(0), n(1)], MsgCategory::Configuration, &Echo(1));
        let victim = mesh.addr_of(n(1)).expect("task exists");
        // A rogue (not on any link to n1) plants a datagram in n1's
        // socket buffer; the filter must discard it, and the real
        // transfer must still deliver the authentic message.
        let rogue = UdpSocket::bind("127.0.0.1:0").expect("bind rogue");
        let mut forged = Vec::new();
        Echo(0xDEAD).wire_encode(&mut forged);
        rogue.send_to(&forged, victim).expect("send forged");
        let got = mesh.carry(&[n(0), n(1)], MsgCategory::Configuration, &Echo(2));
        assert_eq!(got, Echo(2), "authentic message survives");
        assert_eq!(mesh.stats().filtered, 1, "forged datagram filtered");
    }

    #[test]
    fn reused_tasks_keep_their_sockets() {
        let mut mesh = MeshShadow::<Echo>::new();
        mesh.carry(&[n(0), n(1)], MsgCategory::Configuration, &Echo(1));
        let a0 = mesh.addr_of(n(0));
        mesh.carry(&[n(1), n(0)], MsgCategory::Configuration, &Echo(2));
        assert_eq!(mesh.addr_of(n(0)), a0);
        assert_eq!(mesh.task_count(), 2);
    }
}
