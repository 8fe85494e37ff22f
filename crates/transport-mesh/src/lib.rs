//! Backend #2 of the sans-io stack: an in-process UDP mesh.
//!
//! The discrete-event simulator ([`manet_sim`]) is backend #1 — it
//! moves typed messages through an event queue and never serializes
//! anything. This crate is backend #2: every node owns one `UdpSocket`
//! on localhost, and every logical delivery is realized as real
//! datagrams carrying the protocol's wire encoding, relayed hop-by-hop
//! along the simulator's link map. A topology filter at each receive
//! drops datagrams that did not come from the authorized link peer, so
//! the mesh cannot cheat the radio range.
//!
//! One [`MeshShadow`] owns every socket and drives them from the
//! caller's thread: a hop is a `send_to` on the sender's socket followed
//! by a blocking read on the receiver's, the datagram waiting in the
//! kernel's socket buffer in between. The simulator asks for one
//! delivery at a time and a path is walked one link at a time, so there
//! is never more than one datagram in flight and nothing for a second
//! thread to do. A thread per node behind a command channel costs three
//! scheduler wake-ups a link: measured on the `mesh_udp` benchmark
//! workload, 15.8 µs a datagram against 2.5 µs for the two system calls
//! alone.
//!
//! The mesh plugs in underneath the simulator as a
//! [`WireShadow`]: virtual time, RNG streams,
//! timers, and event ordering stay with the simulator, while the
//! message *content* that reaches each recipient is whatever was
//! decoded off its socket. Because the delivered copy is the
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

use manet_sim::WireShadow;
use proto_io::{IdMap, MsgCategory, NodeId, WireMsg};
use std::fmt;
use std::io::ErrorKind;
use std::marker::PhantomData;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long one blocking read waits before the receive re-checks its
/// budget.
const READ_SLICE: Duration = Duration::from_millis(20);

/// Read slices a receive spends waiting for one authorized datagram
/// before reporting a timeout (the hop is then retried).
const READ_BUDGET: u32 = 50;

/// Send attempts per hop before giving up. Loopback UDP loses datagrams
/// only under severe buffer pressure, and the mesh is lockstep (one
/// datagram in flight), so retries are essentially never taken.
const HOP_TRIES: u32 = 3;

/// The largest UDP datagram, so no read ever truncates.
const MAX_DATAGRAM: usize = 65536;

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

/// One node's end of the mesh: its socket and the address peers see.
struct Endpoint {
    socket: UdpSocket,
    addr: SocketAddr,
}

/// The UDP-mesh shadow transport. Install on a world with
/// [`manet_sim::World::set_wire_shadow`]; see the [crate docs](self).
pub struct MeshShadow<M: WireMsg> {
    endpoints: IdMap<NodeId, Endpoint>,
    /// The one receive buffer: only one datagram is ever in flight.
    buf: Box<[u8]>,
    stats: Arc<SharedStats>,
    _msg: PhantomData<fn() -> M>,
}

impl<M: WireMsg> MeshShadow<M> {
    /// Creates an empty mesh; a node's socket is bound lazily the first
    /// time the node appears on a delivery path.
    #[must_use]
    pub fn new() -> Self {
        MeshShadow {
            endpoints: IdMap::default(),
            buf: vec![0; MAX_DATAGRAM].into_boxed_slice(),
            stats: Arc::new(SharedStats::default()),
            _msg: PhantomData,
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

    /// The socket address of `node`, if it has one yet. Tests use this
    /// to aim rogue datagrams at the topology filter.
    #[must_use]
    pub fn addr_of(&self, node: NodeId) -> Option<SocketAddr> {
        self.endpoints.get(&node).map(|e| e.addr)
    }

    /// Number of node sockets bound so far.
    #[must_use]
    pub fn socket_count(&self) -> usize {
        self.endpoints.len()
    }

    /// `node`'s address, binding its socket on first use.
    fn bind(&mut self, node: NodeId) -> SocketAddr {
        self.endpoints
            .entry(node)
            .or_insert_with(|| {
                let socket = UdpSocket::bind("127.0.0.1:0").expect("bind loopback socket");
                socket
                    .set_read_timeout(Some(READ_SLICE))
                    .expect("loopback socket accepts a read timeout");
                let addr = socket.local_addr().expect("bound socket has an address");
                Endpoint { socket, addr }
            })
            .addr
    }

    /// Moves `bytes` across one link `from → to` and returns the bytes
    /// and decoded message as read off `to`'s socket.
    fn hop(&mut self, from: NodeId, to: NodeId, bytes: &[u8]) -> (M, Vec<u8>) {
        let from_addr = self.bind(from);
        let to_addr = self.bind(to);
        for attempt in 0..HOP_TRIES {
            if attempt > 0 {
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
            }
            // Transmit, then read: the datagram waits in `to`'s socket
            // buffer (which is `from`'s own on a self-delivery).
            self.endpoints[&from]
                .socket
                .send_to(bytes, to_addr)
                .expect("loopback datagram send succeeds");
            self.stats.datagrams.fetch_add(1, Ordering::Relaxed);
            if let Some(len) = self.recv_one(to, from_addr) {
                let received = self.buf[..len].to_vec();
                return match M::wire_decode(&received) {
                    Ok(msg) => (msg, received),
                    Err(reason) => {
                        panic!("mesh hop {from} -> {to}: datagram failed to decode: {reason}")
                    }
                };
            }
        }
        panic!("mesh hop {from} -> {to}: no datagram arrived after {HOP_TRIES} attempts")
    }

    /// Waits on `node`'s socket for one datagram from `expect_from` and
    /// returns its length in the receive buffer, or `None` once
    /// [`READ_BUDGET`] slices have passed empty. This is the topology
    /// filter: a datagram from anyone but the link peer is dropped and
    /// counted, never delivered. It costs no slice either — it was
    /// already in the buffer, and charging it would let a burst of
    /// forgeries force a retry whose duplicate the next hop over this
    /// link would read as its own.
    fn recv_one(&mut self, node: NodeId, expect_from: SocketAddr) -> Option<usize> {
        let socket = &self.endpoints[&node].socket;
        let mut waited = 0;
        while waited < READ_BUDGET {
            match socket.recv_from(&mut self.buf) {
                Ok((len, src)) if src == expect_from => return Some(len),
                Ok(_) => {
                    self.stats.filtered.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    waited += 1;
                }
                Err(e) => panic!("loopback recv failed: {e}"),
            }
        }
        None
    }
}

impl<M: WireMsg> Default for MeshShadow<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: WireMsg> fmt::Debug for MeshShadow<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MeshShadow")
            .field("sockets", &self.endpoints.len())
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

impl<M: WireMsg> WireShadow<M> for MeshShadow<M> {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn single_hop_round_trips_over_a_socket() {
        let mut mesh = MeshShadow::<u64>::new();
        let got = mesh.carry(&[n(0), n(1)], MsgCategory::Configuration, &0xBEEF);
        assert_eq!(got, 0xBEEF);
        assert_eq!(mesh.stats().datagrams, 1);
        assert_eq!(mesh.socket_count(), 2);
    }

    #[test]
    fn multi_hop_relays_along_the_path() {
        let mut mesh = MeshShadow::<u64>::new();
        let got = mesh.carry(&[n(0), n(1), n(2), n(3)], MsgCategory::Maintenance, &7);
        assert_eq!(got, 7);
        assert_eq!(mesh.stats().datagrams, 3, "one datagram per link");
        assert_eq!(mesh.socket_count(), 4);
    }

    #[test]
    fn self_delivery_loops_through_own_socket() {
        let mut mesh = MeshShadow::<u64>::new();
        let got = mesh.carry(&[n(5)], MsgCategory::Configuration, &42);
        assert_eq!(got, 42);
        assert_eq!(mesh.stats().datagrams, 1);
        assert_eq!(mesh.socket_count(), 1);
    }

    #[test]
    fn topology_filter_drops_rogue_datagrams() {
        let mut mesh = MeshShadow::<u64>::new();
        // Bind the two sockets and learn the receiver's address.
        mesh.carry(&[n(0), n(1)], MsgCategory::Configuration, &1);
        let victim = mesh.addr_of(n(1)).expect("socket bound");
        let rogue = UdpSocket::bind("127.0.0.1:0").expect("bind rogue");
        let mut forged = Vec::new();
        0xDEAD_u64.wire_encode(&mut forged);
        let noise = vec![0xA5; 65_507];
        // What a rogue (not on any link to n1) plants in n1's socket
        // buffer ahead of each transfer: a well-formed forgery, an empty
        // datagram, one byte, the largest payload UDP carries, and a
        // burst twice the read budget. The filter must discard every
        // one, and the transfer must still deliver the authentic
        // message at the first attempt.
        let plants: [(&[u8], u64); 5] = [
            (&forged, 1),
            (&[], 1),
            (&[0x7F], 1),
            (&noise, 1),
            (&forged, 2 * u64::from(READ_BUDGET)),
        ];
        let mut planted = 0;
        for (authentic, (payload, copies)) in (2u64..).zip(plants) {
            for _ in 0..copies {
                rogue.send_to(payload, victim).expect("send forged");
            }
            planted += copies;
            let got = mesh.carry(&[n(0), n(1)], MsgCategory::Configuration, &authentic);
            assert_eq!(got, authentic, "authentic message survives");
            assert_eq!(mesh.stats().filtered, planted, "every plant filtered");
        }
        assert_eq!(mesh.stats().retries, 0, "a forgery costs no read slice");
        assert_eq!(mesh.stats().datagrams, 6, "nothing was sent twice");
    }

    #[test]
    fn reused_nodes_keep_their_sockets() {
        let mut mesh = MeshShadow::<u64>::new();
        mesh.carry(&[n(0), n(1)], MsgCategory::Configuration, &1);
        let a0 = mesh.addr_of(n(0));
        mesh.carry(&[n(1), n(0)], MsgCategory::Configuration, &2);
        assert_eq!(mesh.addr_of(n(0)), a0);
        assert_eq!(mesh.socket_count(), 2);
    }

    #[test]
    fn two_meshes_over_the_same_nodes_stay_apart() {
        let mut a = MeshShadow::<u64>::new();
        let mut b = MeshShadow::<u64>::new();
        for i in 0..50 {
            let (x, y) = (n(i % 3), n((i + 1) % 3));
            let got = a.carry(&[x, y], MsgCategory::Configuration, &i);
            assert_eq!(got, i);
            let got = b.carry(&[y, x], MsgCategory::Configuration, &!i);
            assert_eq!(got, !i);
        }
        for node in 0..3 {
            assert_ne!(a.addr_of(n(node)), b.addr_of(n(node)), "one socket each");
        }
        let apart = MeshStats {
            datagrams: 50,
            filtered: 0,
            retries: 0,
        };
        assert_eq!((a.stats(), b.stats()), (apart, apart));
    }

    #[test]
    fn a_line_of_64_nodes_costs_63_datagrams() {
        let mut mesh = MeshShadow::<u64>::new();
        let path: Vec<NodeId> = (0..64).map(n).collect();
        let got = mesh.carry(&path, MsgCategory::Maintenance, &0x0BAD_CAFE);
        assert_eq!(got, 0x0BAD_CAFE);
        assert_eq!(mesh.stats().datagrams, 63, "one datagram per link");
        assert_eq!(mesh.socket_count(), 64);
    }
}
