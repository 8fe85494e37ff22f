use crate::event::{Due, EventKind, Queue, Queued, Run};
use crate::faults::{AttackKind, DeliveryFate, FaultPlan, FaultState};
use crate::mobility::{MobilityConfig, MobilityModel, MobilityState, RetargetCtx};
use crate::observer::{FlowKind, FlowStage, Observer};
use crate::topology::Topology;
use crate::TimerId;
use crate::{
    Arena, Event, EventLog, Input, Metrics, MsgCategory, NetBackend, NodeId, Point, SendError,
    SimDuration, SimRng, SimTime, WireMsg,
};
use proto_io::{IdSet, Span};
use std::fmt;

/// Virtual time one hop takes (per-hop transmission + processing).
pub const HOP_DELAY: SimDuration = SimDuration::from_millis(5);

/// Static parameters of a simulation run.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Simulation area (paper: 1 km × 1 km).
    pub arena: Arena,
    /// Radio transmission range in meters (paper: 150 m baseline).
    pub range: f64,
    /// Node speed once configured, m/s (paper: 20 m/s). Zero disables
    /// mobility.
    pub speed: f64,
    /// Movement policy once configured (paper: random waypoint). Only
    /// consulted when `speed` is positive.
    pub mobility: MobilityConfig,
    /// Per-message delivery loss probability in `[0, 1]`. The paper
    /// assumes reliable in-range delivery (0.0, the default); non-zero
    /// values are the robustness ablation — transmissions are still
    /// charged, deliveries silently vanish.
    pub loss_rate: f64,
    /// Topology-cache quantum: the connectivity snapshot places every
    /// node where its current leg has it at the quantum's start, and is
    /// reused instead of rebuilt per event. At the paper's 20 m/s a node
    /// moves 2 m per default 100 ms quantum — noise next to the 150 m
    /// radio range — while large simulations get orders of magnitude
    /// fewer rebuilds. Set to zero for a snapshot per instant.
    pub topology_quantum: SimDuration,
    /// RNG seed; runs with equal configs and scenarios are bit-identical.
    pub seed: u64,
    /// Deterministic fault-injection plan (empty by default). Non-empty
    /// plans draw from their own seeded RNG, so enabling faults never
    /// perturbs the main random stream — and an empty plan costs
    /// nothing, keeping fault-free runs bit-identical.
    pub fault_plan: FaultPlan,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            arena: Arena::default(),
            range: 150.0,
            speed: 20.0,
            mobility: MobilityConfig::RandomWaypoint,
            loss_rate: 0.0,
            topology_quantum: SimDuration::from_millis(100),
            seed: 0,
            fault_plan: FaultPlan::default(),
        }
    }
}

/// Node state in struct-of-arrays layout: each per-node attribute is
/// its own column, so the hot loops — collecting alive positions for a
/// topology rebuild, scanning liveness — stream through one dense
/// array instead of striding over a wide per-node struct. Columns grow
/// in lockstep; a node's id is its index in every column.
#[derive(Debug, Default)]
struct NodeTable {
    alive: Vec<bool>,
    /// Created but not yet joined (scheduled arrival).
    dormant: Vec<bool>,
    configured: Vec<bool>,
    mobility: Vec<MobilityState>,
    mobility_epoch: Vec<u64>,
    joined_at: Vec<SimTime>,
}

impl NodeTable {
    fn len(&self) -> usize {
        self.alive.len()
    }

    /// Appends a dormant, unconfigured, parked node; returns its index.
    fn push_parked(&mut self, pos: Point) -> usize {
        self.alive.push(false);
        self.dormant.push(true);
        self.configured.push(false);
        self.mobility.push(MobilityState::parked(pos));
        self.mobility_epoch.push(0);
        self.joined_at.push(SimTime::ZERO);
        self.alive.len() - 1
    }

    /// The column index of `node`, if it exists.
    fn idx(&self, node: NodeId) -> Option<usize> {
        let i = node.index() as usize;
        (i < self.len()).then_some(i)
    }
}

/// The simulated network: virtual time, nodes, radio, event queue, and
/// measurement sink. Protocols interact with the simulation exclusively
/// through this type.
///
/// A *shadow transport*: realizes every logical delivery as real I/O
/// before it is scheduled.
///
/// When installed via [`World::set_wire_shadow`], the world calls
/// [`carry`](WireShadow::carry) at its per-recipient delivery choke
/// point, which every send takes while a shadow is installed, with one
/// deterministic shortest path per `(sender, recipient)` pair. The
/// shadow moves the message hop-by-hop over its own medium (the UDP
/// mesh backend moves real datagrams between per-node sockets) and
/// returns the copy decoded at the destination — *that* copy is what
/// gets delivered, so a lossy or lying transport shows up as a
/// transcript divergence, not a silently patched-over bug.
///
/// The shadow must not touch virtual time, the world RNG, or the event
/// queue: scheduling stays byte-identical with and without a shadow.
pub trait WireShadow<M>: fmt::Debug + Send {
    /// Carries `msg` along `path` (consecutive one-hop neighbors,
    /// sender first, recipient last; a single-element path is a
    /// self-delivery) and returns the message as decoded by the
    /// recipient.
    fn carry(&mut self, path: &[NodeId], category: MsgCategory, msg: &M) -> M;
}

/// The recipients one send has decided so far that share a firing time:
/// the run [`World::schedule_delivery`] is filling, on the per-recipient
/// path of a world with loss, faults or a shadow. It holds no message:
/// the send's own copy goes into the run that is queued last.
struct Outbox {
    from: NodeId,
    at: SimTime,
    /// The run's first recipient, held inline; `None` while it is empty.
    first: Option<NodeId>,
    /// The recipients after `first`.
    rest: Vec<NodeId>,
    /// Room the next run begun at a new firing time reserves: the size
    /// of the hop level being decided, until one run has taken it. So a
    /// broadcast without faults allocates each level's run once and
    /// never regrows it, and with faults the reservations still add up
    /// to the reach.
    room: usize,
}

impl Outbox {
    fn new(from: NodeId, room: usize) -> Self {
        Outbox {
            from,
            at: SimTime::ZERO,
            first: None,
            rest: Vec::new(),
            room,
        }
    }
}

/// Most membership changes a refresh splices one by one. On bit rows a
/// splice shifts `n · ⌈n/64⌉` words, where one sweep costs `n log n +
/// links` and refills every row: at the benchmark's 128- and 600-node
/// densities a sweep costs about twenty splices (a splice pair 3.5 µs
/// against a 32 µs sweep at 128 nodes, 15 µs against 167 µs at 600, on
/// a 2-vCPU x86-64 host), so a burst of up to twenty costs at most about
/// one sweep, and the limit keeps a longer burst of joins between two
/// queries from going quadratic.
const SPLICE_LIMIT: usize = 20;

/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct World<M> {
    config: WorldConfig,
    now: SimTime,
    queue: Queue<M>,
    /// The run popped last, firing at `now`, with the recipients
    /// [`World::next_recipient`] has not handed out yet.
    current: Option<Run<M>>,
    nodes: NodeTable,
    rng: SimRng,
    metrics: Metrics,
    cancelled_timers: IdSet<TimerId>,
    next_timer: u64,
    topo_cache: Option<(SimTime, u64, Topology)>,
    topo_version: u64,
    /// Moves whenever an `alive` or `configured` flag flips; see
    /// [`World::roster_version`].
    roster_version: u64,
    /// What the snapshot lacks, oldest first: activations (`true`) and
    /// removals (`false`) — a write that moved an alive node's snapshot
    /// position is logged as its removal then activation. Stops growing
    /// one past [`SPLICE_LIMIT`]: by then a sweep is due anyway.
    since_snapshot: Vec<(NodeId, bool)>,
    /// Nodes whose [`MobilityState::is_moving`], dead ones included.
    moving: usize,
    /// Refreshes of the snapshot that swept every position.
    sweeps: u64,
    /// The run's one recorder; both of its classes are off by default.
    pub(crate) log: EventLog,
    observer: Observer,
    faults: Option<Box<FaultState>>,
    mobility_model: Box<dyn MobilityModel>,
    shadow: Option<Box<dyn WireShadow<M>>>,
}

impl<M: Clone + fmt::Debug> World<M> {
    pub(crate) fn new(config: WorldConfig) -> Self {
        let rng = SimRng::seed_from(config.seed);
        let faults = (!config.fault_plan.is_empty())
            .then(|| Box::new(FaultState::new(config.fault_plan.clone())));
        let mobility_model = config.mobility.build(config.seed);
        let mut world = World {
            config,
            now: SimTime::ZERO,
            queue: Queue::default(),
            current: None,
            nodes: NodeTable::default(),
            rng,
            metrics: Metrics::new(),
            cancelled_timers: IdSet::default(),
            next_timer: 0,
            topo_cache: None,
            topo_version: 0,
            roster_version: 0,
            since_snapshot: Vec::new(),
            moving: 0,
            sweeps: 0,
            log: EventLog::default(),
            observer: Observer::default(),
            faults,
            mobility_model,
            shadow: None,
        };
        world.schedule_fault_events();
        world
    }

    /// Queues the plan's scheduled faults (crashes, restarts, head
    /// kills) as ordinary events so they interleave deterministically
    /// with protocol traffic.
    fn schedule_fault_events(&mut self) {
        let Some(fs) = self.faults.as_ref() else {
            return;
        };
        let plan = fs.plan().clone();
        for crash in &plan.crashes {
            self.push_at(crash.at, EventKind::Crash { node: crash.node });
            if let Some(restart_at) = crash.restart_at {
                self.push_at(restart_at, EventKind::Restart { node: crash.node });
            }
        }
        for kill in &plan.head_kills {
            self.push_at(kill.at, EventKind::HeadKill { count: kill.count });
        }
    }

    /// Enables event tracing: the log's net-level class, retaining up
    /// to `capacity` records.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.log.enable_net(capacity);
    }

    /// The event log (empty unless a class of it was enabled).
    #[must_use]
    pub fn trace(&self) -> &EventLog {
        &self.log
    }

    /// Enables flow-span observation (off by default; a disabled
    /// observer costs one branch per [`World::flow_event`] call).
    pub fn enable_observer(&mut self) {
        self.observer = Observer::enabled();
    }

    /// The flow observer (disabled unless
    /// [`World::enable_observer`] was called).
    #[must_use]
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Reports a flow lifecycle stage for `(kind, node)`.
    ///
    /// No-op while the observer is disabled. When enabled, the stage is
    /// stamped with the flow's correlation ID, tallied in the
    /// [`Observer`], and logged (if tracing is also enabled) as an
    /// [`Event::Flow`] — so a chaos failure can be replayed as a
    /// per-flow timeline from the JSONL export.
    pub fn flow_event(&mut self, kind: FlowKind, node: NodeId, stage: FlowStage) {
        if !self.observer.is_enabled() {
            return;
        }
        if let Some(flow) = self.observer.observe(kind, node, stage) {
            self.log.push(
                self.now,
                Event::Flow {
                    flow,
                    kind,
                    node,
                    stage,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The simulation arena.
    #[must_use]
    pub fn arena(&self) -> Arena {
        self.config.arena
    }

    /// Radio transmission range in meters.
    #[must_use]
    pub fn range(&self) -> f64 {
        self.config.range
    }

    /// The run's configuration.
    #[must_use]
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// The measurement sink.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access to the measurement sink (protocols record latency
    /// samples here).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The deterministic RNG.
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Returns `true` if `node` exists and is alive.
    #[must_use]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes.idx(node).is_some_and(|i| self.nodes.alive[i])
    }

    /// Returns `true` if `node` has been marked configured.
    #[must_use]
    pub fn is_configured(&self, node: NodeId) -> bool {
        self.nodes
            .idx(node)
            .is_some_and(|i| self.nodes.configured[i])
    }

    /// When `node` joined the network (meaningless for dormant nodes).
    #[must_use]
    pub fn joined_at(&self, node: NodeId) -> Option<SimTime> {
        self.nodes
            .idx(node)
            .filter(|&i| self.nodes.alive[i])
            .map(|i| self.nodes.joined_at[i])
    }

    /// Exact position of `node` at `now`, if alive: what the fault
    /// plane's partitions and jam regions judge. The topology snapshot
    /// places it at [`snapshot_position`](World::snapshot_position)
    /// instead, at most `speed × topology_quantum` away.
    #[must_use]
    pub fn position(&self, node: NodeId) -> Option<Point> {
        self.position_at(node, self.now)
    }

    /// Position of `node` in this quantum's topology snapshot, if alive:
    /// its current leg evaluated at the start of the quantum bucket
    /// `now` falls in (a leg that departed later is still at its
    /// origin). See [`World::topology`].
    #[must_use]
    pub fn snapshot_position(&self, node: NodeId) -> Option<Point> {
        self.position_at(node, self.quantum_start())
    }

    fn position_at(&self, node: NodeId, at: SimTime) -> Option<Point> {
        self.nodes
            .idx(node)
            .filter(|&i| self.nodes.alive[i])
            .map(|i| self.nodes.mobility[i].position(at))
    }

    /// The start of the topology-quantum bucket `now` falls in (`now`
    /// itself at a zero quantum).
    fn quantum_start(&self) -> SimTime {
        let quantum = self.config.topology_quantum.as_micros();
        self.now
            .as_micros()
            .checked_div(quantum)
            .map_or(self.now, |b| SimTime::from_micros(b * quantum))
    }

    /// All alive node ids, ascending.
    #[must_use]
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| NodeId::new(i as u64))
            .collect()
    }

    /// A counter that moves whenever some node's [`is_alive`](World::is_alive)
    /// or [`is_configured`](World::is_configured) answer changes: a join,
    /// a removal, a restart, a configuration. Unlike the topology key it
    /// stays put when nodes only move. The conformance oracle pairs it
    /// with a protocol's state version to tell when its views cannot
    /// have changed.
    #[must_use]
    pub fn roster_version(&self) -> u64 {
        self.roster_version
    }

    /// Number of alive nodes.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.nodes.alive.iter().filter(|&&a| a).count()
    }

    // ------------------------------------------------------------------
    // Topology queries
    // ------------------------------------------------------------------

    /// The connectivity snapshot of this quantum: the unit-disk graph of
    /// the alive nodes at their [`snapshot_position`](World::snapshot_position)s,
    /// each node's current leg evaluated at the quantum's start. It is a
    /// pure function of the alive set, the [`MobilityState`]s and the
    /// quantum bucket, so no query — a handler's, the oracle's, a
    /// test's — can change what another one sees. Cached under the key
    /// `(quantum bucket, topo_version)`; the version moves on a join, a
    /// leave, and a mobility write that moves an alive node's position
    /// at the cached snapshot's bucket (a waypoint arrival, a park, a
    /// revive — not a parked node starting its first leg).
    ///
    /// The snapshot is built with the spatial-grid engine and carries
    /// its own resumable per-source traversals and memoized component
    /// partition (see [`topology`](crate::topology)), so repeated
    /// `within`/`nearest`/`component_of` queries visit each link at most
    /// once per source, and only as far out as the answers need. A pair
    /// query (`hops`, `within_hops`) resumes a traversal either end
    /// already has and otherwise meets in the middle, leaving none
    /// behind.
    ///
    /// A call that finds the key stale refreshes the snapshot by the
    /// least that makes it the one a sweep would build. Within the
    /// snapshot's quantum, or across quanta while no node is en route,
    /// every position it was filled from still holds except those the
    /// change log names, so
    ///
    /// * a rotated bucket alone **re-keys** it — memoized traversals and
    ///   components stay, they are still answers about this graph;
    /// * joins, leaves and moved nodes (a leave, then a join) since then
    ///   are **spliced** in, one node's links at a time and in the order
    ///   they happened (`Topology::insert` / `remove`), which forgets the
    ///   memo.
    ///
    /// Anything else — a new quantum while some node is en route, or
    /// more than `SPLICE_LIMIT` changes at once — is a **sweep**
    /// ([`Topology::rebuild`]) into the storage the stale snapshot held.
    /// The three are indistinguishable to every query; only
    /// [`snapshot_sweeps`](World::snapshot_sweeps) tells them apart.
    pub fn topology(&mut self) -> &Topology {
        self.query_snapshot();
        &self.topo_cache.as_ref().expect("cache just filled").2
    }

    /// Counts one topology query, refreshing the snapshot if its key is
    /// stale.
    fn query_snapshot(&mut self) {
        let key = (self.quantum_start(), self.topo_version);
        if matches!(&self.topo_cache, Some((t, v, _)) if (*t, *v) == key) {
            self.metrics.perf_mut().topo_hits += 1;
        } else {
            self.metrics.perf_mut().topo_builds += 1;
            self.refresh_snapshot(key);
        }
    }

    /// Makes `topo_cache` the snapshot of this quantum, under `key`.
    fn refresh_snapshot(&mut self, key: (SimTime, u64)) {
        let (bucket, range) = (key.0, self.config.range);
        let nodes = &self.nodes;
        let position = |node: NodeId| nodes.mobility[node.index() as usize].position(bucket);
        let since = &mut self.since_snapshot;
        match &mut self.topo_cache {
            Some((t, v, topo))
                if since.len() <= SPLICE_LIMIT && (*t == bucket || self.moving == 0) =>
            {
                for &(node, joined) in since.iter() {
                    if joined {
                        topo.insert(node, position(node), range, position);
                    } else {
                        topo.remove(node);
                    }
                }
                (*t, *v) = key;
            }
            cache => {
                self.sweeps += 1;
                let positions: Vec<(NodeId, Point)> = (0u64..)
                    .map(NodeId::new)
                    .zip(&nodes.alive)
                    .filter(|(_, &alive)| alive)
                    .map(|(node, _)| (node, position(node)))
                    .collect();
                match cache {
                    // The stale snapshot's storage takes the new one.
                    Some((t, v, topo)) => {
                        topo.rebuild(&positions, range);
                        (*t, *v) = key;
                    }
                    None => *cache = Some((key.0, key.1, Topology::build(&positions, range))),
                }
            }
        }
        since.clear();
    }

    /// How many refreshes of the topology snapshot swept every alive
    /// node's position ([`Topology::build`] / [`Topology::rebuild`]) —
    /// the rest of [`PerfCounters::topo_builds`](crate::PerfCounters)
    /// were spliced or re-keyed (see [`World::topology`]). A world where
    /// nobody ever moves sweeps once; a moving one at most once per
    /// quantum, bar bursts of more than `SPLICE_LIMIT` changes.
    #[must_use]
    pub fn snapshot_sweeps(&self) -> u64 {
        self.sweeps
    }

    /// One-hop neighbors of `node`, read off its row of the snapshot.
    ///
    /// Materializes a `Vec<NodeId>`; loops over dense indices can borrow
    /// [`Topology::neighbor_indices`] via [`World::topology`] instead
    /// (a CSR slice, built on the first ask on a dense snapshot).
    pub fn neighbors(&mut self, node: NodeId) -> Vec<NodeId> {
        self.topology().neighbors(node)
    }

    /// Degree (one-hop neighbor count) of `node`, counted off its row
    /// without materializing the neighbor list.
    pub fn degree(&mut self, node: NodeId) -> usize {
        self.topology().degree(node)
    }

    /// Alive nodes within `k` hops of `node`, with distances.
    pub fn nodes_within(&mut self, node: NodeId, k: u32) -> Vec<(NodeId, u32)> {
        self.topology().within(node, k)
    }

    /// The alive node other than `node` nearest to it (fewest hops,
    /// lowest id among equals) that satisfies `pred`, with its distance.
    pub fn nearest(
        &mut self,
        node: NodeId,
        pred: impl FnMut(NodeId) -> bool,
    ) -> Option<(NodeId, u32)> {
        self.topology().nearest(node, pred)
    }

    /// Shortest-path hop count between two alive nodes.
    pub fn hops_between(&mut self, a: NodeId, b: NodeId) -> Option<u32> {
        self.topology().hops(a, b)
    }

    /// Whether `b` is at most `k` hops from `a`, looking no further
    /// than `k` hops out (see [`Topology::within_hops`]).
    pub fn within_hops(&mut self, a: NodeId, b: NodeId, k: u32) -> bool {
        self.topology().within_hops(a, b, k)
    }

    /// The connected component containing `node`.
    pub fn component_of(&mut self, node: NodeId) -> Vec<NodeId> {
        self.topology().component_of(node)
    }

    /// All connected components.
    pub fn components(&mut self) -> Vec<Vec<NodeId>> {
        self.topology().components()
    }

    /// The label of the connected component containing `node` (see
    /// [`Topology::component_id`]): equal labels mean mutually
    /// reachable, `None` means not alive.
    pub fn component_id(&mut self, node: NodeId) -> Option<usize> {
        self.topology().component_id(node)
    }

    /// `true` if a scripted position-based fault (an active partition
    /// boundary or jam region) would currently drop deliveries between
    /// `a` and `b`. Radio-range topology is *not* consulted — this is
    /// the fault plane's view only, which [`components`](World::components)
    /// cannot see. Dead or dormant endpoints count as severed. Consults
    /// no RNG, so the answer is a pure function of `(plan, now,
    /// positions)`.
    #[must_use]
    pub fn fault_severed(&self, a: NodeId, b: NodeId) -> bool {
        let (Some(pa), Some(pb)) = (self.position(a), self.position(b)) else {
            return true;
        };
        self.faults
            .as_deref()
            .is_some_and(|fs| fs.severs(self.now, pa, pb))
    }

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    /// Sends `msg` from `from` to `to` along the current shortest path.
    /// Charges the hop count to `category` and returns it. Delivery is
    /// scheduled `hops × `[`HOP_DELAY`] in the future.
    ///
    /// # Errors
    ///
    /// * [`SendError::SenderDead`] — `from` is not alive,
    /// * [`SendError::Unreachable`] — no path to `to` exists right now
    ///   (nothing is charged).
    pub fn unicast(
        &mut self,
        from: NodeId,
        to: NodeId,
        category: MsgCategory,
        msg: M,
    ) -> Result<u32, SendError> {
        if !self.is_alive(from) {
            return Err(SendError::SenderDead);
        }
        let hops = self
            .topology()
            .hops(from, to)
            .ok_or(SendError::Unreachable)?;
        self.metrics.add_send(category, u64::from(hops));
        self.log.push(
            self.now,
            Event::Unicast {
                from,
                to,
                category,
                hops,
            },
        );
        self.deliver_each(from, &[(to, hops)], category, msg);
        Ok(hops)
    }

    /// Bounded flood: delivers `msg` to every alive node within `k` hops
    /// of `from`. Charges one transmission for the originator plus one per
    /// relaying node (nodes closer than `k` hops), and returns how many
    /// nodes it reached.
    ///
    /// # Errors
    ///
    /// Returns [`SendError::SenderDead`] if `from` is not alive.
    pub fn broadcast_within(
        &mut self,
        from: NodeId,
        k: u32,
        category: MsgCategory,
        msg: M,
    ) -> Result<usize, SendError> {
        let (recipients, _) = self.send_flood(from, Some(k), category, msg, false)?;
        Ok(recipients)
    }

    /// Global flood: delivers `msg` to every node in `from`'s connected
    /// component (classic flooding — every node retransmits once, so the
    /// charge is the component size). Returns how many nodes it reached.
    ///
    /// # Errors
    ///
    /// Returns [`SendError::SenderDead`] if `from` is not alive.
    pub fn flood(
        &mut self,
        from: NodeId,
        category: MsgCategory,
        msg: M,
    ) -> Result<usize, SendError> {
        let (recipients, _) = self.send_flood(from, None, category, msg, false)?;
        Ok(recipients)
    }

    /// A flood bounded by `k` hops, or by none: its charge, its trace
    /// record and its deliveries; with `record`, also its recipients
    /// interned in the log as its transcript record lists them (a
    /// bounded flood's in `(distance, id)` order, a component-wide one's
    /// by id). Returns how many nodes it reached. Where no recipient's
    /// fate can differ from another's, each hop level of the traversal
    /// is queued as it stands, one run firing [`HOP_DELAY`] per hop out,
    /// with no draw and no list of the reach; otherwise every recipient
    /// takes [`World::schedule_delivery`], level by level.
    fn send_flood(
        &mut self,
        from: NodeId,
        k: Option<u32>,
        category: MsgCategory,
        msg: M,
        record: bool,
    ) -> Result<(usize, Option<Span>), SendError> {
        if !self.is_alive(from) {
            return Err(SendError::SenderDead);
        }
        self.query_snapshot();
        let per_recipient = self.per_recipient();
        let bound = k.unwrap_or(u32::MAX);
        // The reach view holds the snapshot's memo, so it lives in this
        // block only: the per-recipient path below asks the topology
        // for routes.
        let (recipients, listed, each) = {
            let topo = &self.topo_cache.as_ref().expect("cache just filled").2;
            let reach = topo
                .reach(from, bound)
                .expect("an alive sender is in the snapshot");
            let recipients = reach.count(bound);
            // Relays: the originator plus every node strictly inside
            // the rim. A flood has no rim, so every node it reaches
            // relays.
            let charge = 1 + reach.count(bound.saturating_sub(1)) as u64;
            self.metrics.add_send(category, charge);
            self.log.push(
                self.now,
                Event::Broadcast {
                    from,
                    k,
                    category,
                    recipients,
                    charge,
                },
            );
            let listed = record.then(|| match k {
                Some(_) => self
                    .log
                    .intern_nodes((1..=reach.depth()).flat_map(|d| reach.level(d))),
                None => self.log.intern_nodes(reach.by_id()),
            });
            if per_recipient {
                (recipients, listed, Some((reach.near(), msg)))
            } else {
                let now = self.now;
                let perf = self.metrics.perf_mut();
                let mut push_level = |d: u32, msg: M| {
                    let mut level = reach.level(d);
                    let first = level.next().expect("a level up to the depth holds a node");
                    let run = Run::new(from, msg, first, level.collect());
                    self.queue
                        .push_run(now + HOP_DELAY * u64::from(d), run, perf);
                };
                let depth = reach.depth();
                for d in 1..depth {
                    push_level(d, msg.clone());
                }
                if depth > 0 {
                    push_level(depth, msg);
                }
                (recipients, listed, None)
            }
        };
        if let Some((near, msg)) = each {
            self.deliver_each(from, &near, category, msg);
        }
        Ok((recipients, listed))
    }

    /// Whether a recipient's fate can differ from another's: a loss
    /// rate, a fault plan or a shadow each decide it per recipient.
    fn per_recipient(&self) -> bool {
        self.config.loss_rate > 0.0 || self.faults.is_some() || self.shadow.is_some()
    }

    /// Schedules `msg` for every entry of `reach`, in its `(depth, id)`
    /// order — event sequence numbers break same-instant ties, so this
    /// order is the delivery order.
    fn deliver_each(
        &mut self,
        from: NodeId,
        reach: &[(NodeId, u32)],
        category: MsgCategory,
        msg: M,
    ) {
        let mut out = Outbox::new(from, 0);
        for level in reach.chunk_by(|x, y| x.1 == y.1) {
            out.room = level.len();
            for &(to, d) in level {
                self.schedule_delivery(&mut out, to, d, category, &msg);
            }
        }
        self.flush(&mut out, msg);
    }

    /// Draws a loss event. Never touches the RNG at the default zero
    /// rate, so reliable runs stay bit-identical.
    fn lost(&mut self) -> bool {
        self.config.loss_rate > 0.0 && self.rng.chance(self.config.loss_rate)
    }

    /// The per-recipient delivery choke point: in a world with a loss
    /// rate, a fault plan or a shadow, every unicast, bounded-flood and
    /// global-flood recipient passes through here, so the loss draw,
    /// the fault plane and the shadow see every delivery. A world with
    /// none of them has nothing to decide per recipient, and its sends
    /// queue their runs directly.
    ///
    /// Every draw happens here, per recipient, at send time; what is
    /// batched is only the queue entry. Copies that fire at the instant
    /// `out` already holds join its run, any other instant starts a new
    /// one, so one hop level of a broadcast is one entry and a fault
    /// delay splits it exactly where the firing times part.
    fn schedule_delivery(
        &mut self,
        out: &mut Outbox,
        to: NodeId,
        dist_hops: u32,
        category: MsgCategory,
        msg: &M,
    ) {
        // The shadow transmits unconditionally — a datagram that the
        // logical layer then loses was still physically sent, exactly
        // like a real radio. The copy it decoded is the recipient's own
        // message, so it is queued at once as a run of one.
        let from = out.from;
        let copy = (self.shadow.is_some()).then(|| self.shadow_carry(from, to, category, msg));
        let Some((at, copies)) = self.fate(from, to, dist_hops, category) else {
            return;
        };
        let Some(copy) = copy else {
            for _ in 0..copies {
                self.post(out, at, to, msg);
            }
            return;
        };
        let perf = self.metrics.perf_mut();
        for _ in 1..copies {
            let run = Run::new(from, copy.clone(), to, Vec::new());
            self.queue.push_run(at, run, perf);
        }
        let run = Run::new(from, copy, to, Vec::new());
        self.queue.push_run(at, run, perf);
    }

    /// Decides one delivery's fate: applies the legacy `loss_rate` first
    /// (on the main RNG, exactly as before the fault plane existed) and
    /// then the fault plan (on its own RNG), recording injected outcomes
    /// in metrics and trace. Returns when the delivery's copies fire and
    /// how many there are, or `None` when it is lost or dropped.
    #[inline]
    fn fate(
        &mut self,
        from: NodeId,
        to: NodeId,
        dist_hops: u32,
        category: MsgCategory,
    ) -> Option<(SimTime, u32)> {
        if self.lost() {
            return None; // charged but never delivered
        }
        let base_at = self.now + HOP_DELAY * u64::from(dist_hops);
        if self.faults.is_none() {
            return Some((base_at, 1));
        }
        let now = self.now;
        let pos = |nodes: &NodeTable, node: NodeId| {
            nodes
                .idx(node)
                .filter(|&i| nodes.alive[i])
                .map(|i| nodes.mobility[i].position(now))
        };
        let from_pos = pos(&self.nodes, from);
        let to_pos = pos(&self.nodes, to);
        let fate = self
            .faults
            .as_mut()
            .expect("fault state checked above")
            .judge(now, category, from_pos, to_pos);
        match fate {
            DeliveryFate::Drop(cause) => {
                self.metrics.faults_mut().dropped += 1;
                self.log.push(
                    now,
                    Event::FaultDrop {
                        from,
                        to,
                        category,
                        cause,
                    },
                );
                None
            }
            DeliveryFate::Pass {
                extra,
                duplicates,
                delayed,
            } => {
                if delayed {
                    self.metrics.faults_mut().delayed += 1;
                    self.log.push(
                        now,
                        Event::FaultDelay {
                            from,
                            to,
                            by: extra,
                        },
                    );
                }
                if duplicates > 0 {
                    self.metrics.faults_mut().duplicated += u64::from(duplicates);
                    self.log.push(
                        now,
                        Event::FaultDuplicate {
                            from,
                            to,
                            copies: duplicates,
                        },
                    );
                }
                Some((base_at + extra, 1 + duplicates))
            }
        }
    }

    /// Appends `to` to the run `out` is filling, queueing that run
    /// first, with a clone of `msg`, if it fires at another instant.
    fn post(&mut self, out: &mut Outbox, at: SimTime, to: NodeId, msg: &M) {
        if out.first.is_some() && at != out.at {
            self.flush(out, msg.clone());
        }
        if out.first.is_some() {
            out.rest.push(to);
            return;
        }
        out.at = at;
        out.first = Some(to);
        let room = std::mem::take(&mut out.room);
        out.rest.reserve_exact(room.saturating_sub(1));
    }

    /// Queues the run `out` holds, if any, as one entry carrying `msg`.
    fn flush(&mut self, out: &mut Outbox, msg: M) {
        let Some(first) = out.first.take() else {
            return;
        };
        let run = Run::new(out.from, msg, first, std::mem::take(&mut out.rest));
        self.queue.push_run(out.at, run, self.metrics.perf_mut());
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Arms a timer on `node` that fires after `delay`, delivering `tag`
    /// to [`ProtocolCore::on_timer`](crate::ProtocolCore::on_timer).
    pub fn set_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) -> TimerId {
        let id = TimerId::from_raw(self.next_timer);
        self.next_timer += 1;
        self.push_at(self.now + delay, EventKind::Timer { node, id, tag });
        id
    }

    /// Cancels a pending timer. Cancelling an already-fired timer is a
    /// no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.cancelled_timers.insert(id);
    }

    // ------------------------------------------------------------------
    // Node lifecycle & mobility
    // ------------------------------------------------------------------

    /// Creates a node slot at `pos`. Dormant until joined.
    pub(crate) fn create_node(&mut self, pos: Point) -> NodeId {
        let idx = self.nodes.push_parked(self.config.arena.clamp(pos));
        NodeId::new(idx as u64)
    }

    /// Marks a dormant node alive. Returns `false` if it was already
    /// joined or removed.
    pub(crate) fn activate(&mut self, node: NodeId) -> bool {
        let now = self.now;
        let Some(i) = self.nodes.idx(node) else {
            return false;
        };
        if !self.nodes.dormant[i] {
            return false;
        }
        self.nodes.dormant[i] = false;
        self.nodes.alive[i] = true;
        self.roster_version += 1;
        self.nodes.joined_at[i] = now;
        self.membership_changed(node, true);
        self.log.push(now, Event::Join { node });
        true
    }

    /// Removes `node` from the network: it stops receiving messages and
    /// timers, and disappears from the topology. Graceful departures call
    /// this after their handshake completes; abrupt departures are removed
    /// by the simulator before the protocol hears about them.
    pub fn remove_node(&mut self, node: NodeId) {
        let now = self.now;
        if let Some(i) = self.nodes.idx(node) {
            if self.nodes.alive[i] {
                self.nodes.alive[i] = false;
                self.nodes.dormant[i] = false;
                self.roster_version += 1;
                self.membership_changed(node, false);
                self.log.push(now, Event::Remove { node });
            }
        }
    }

    /// `node` became alive (`joined`) or stopped being: the snapshot is
    /// stale, and this is what it lacks.
    fn membership_changed(&mut self, node: NodeId, joined: bool) {
        self.topo_version += 1;
        let log = &mut self.since_snapshot;
        if log.len() <= SPLICE_LIMIT {
            log.push((node, joined));
        }
    }

    /// The one way a [`MobilityState`] is written once its node exists:
    /// keeps the count of nodes en route and, if the write moved an
    /// alive node's position at the cached snapshot's bucket, logs the
    /// node's links as stale (a leave, then a join). A write that moved
    /// nothing there — a parked node starting a leg — leaves the
    /// snapshot and its memo standing.
    fn write_mobility(&mut self, i: usize, write: impl FnOnce(&mut MobilityState)) {
        let bucket = self.topo_cache.as_ref().map(|(t, ..)| *t);
        let state = &mut self.nodes.mobility[i];
        let (was_moving, was_at) = (state.is_moving(), bucket.map(|b| state.position(b)));
        write(state);
        self.moving = self.moving + usize::from(state.is_moving()) - usize::from(was_moving);
        self.nodes.mobility_epoch[i] += 1;
        if self.nodes.alive[i] && was_at != bucket.map(|b| state.position(b)) {
            let node = NodeId::new(i as u64);
            self.membership_changed(node, false);
            self.membership_changed(node, true);
        }
    }

    /// Records a fault-plane crash of `node` (metrics + trace). The
    /// actual removal goes through the normal abrupt-leave path.
    pub(crate) fn record_crash(&mut self, node: NodeId) {
        let now = self.now;
        self.metrics.faults_mut().crashes += 1;
        self.log.push(now, Event::Crash { node });
    }

    /// Revives a crashed node as a fresh, unconfigured joiner parked at
    /// its last position. Returns `false` if the node is missing, still
    /// alive, or never joined in the first place.
    pub(crate) fn revive(&mut self, node: NodeId) -> bool {
        let now = self.now;
        let Some(i) = self.nodes.idx(node) else {
            return false;
        };
        if self.nodes.alive[i] || self.nodes.dormant[i] {
            return false;
        }
        self.write_mobility(i, |m| m.park(now));
        self.nodes.configured[i] = false;
        self.roster_version += 1;
        self.nodes.dormant[i] = true;
        self.metrics.faults_mut().restarts += 1;
        self.log.push(now, Event::Restart { node });
        self.activate(node)
    }

    /// The fault plan's dedicated RNG, if a plan is active (used by the
    /// driver to pick head-kill victims deterministically).
    pub(crate) fn fault_rng(&mut self) -> Option<&mut SimRng> {
        self.faults.as_deref_mut().map(FaultState::rng_mut)
    }

    /// The Byzantine role `node` is running right now, if the fault
    /// plan assigns it one whose start time has passed. Protocols under
    /// test consult this at their dispatch points; honest protocols
    /// simply never ask. Consults no RNG and costs one `Option` check
    /// when no fault plan is active.
    #[must_use]
    pub fn attack_role(&self, node: NodeId) -> Option<AttackKind> {
        self.faults
            .as_deref()
            .and_then(|fs| fs.plan().attack_on(node, self.now))
    }

    /// The Byzantine role `node` is *designated* for, even before its
    /// start time (see [`FaultPlan::attack_assigned`]).
    #[must_use]
    pub fn attack_assigned(&self, node: NodeId) -> Option<AttackKind> {
        self.faults
            .as_deref()
            .and_then(|fs| fs.plan().attack_assigned(node))
    }

    /// Marks `node` configured: records the fact and, if the world has a
    /// positive speed, starts movement under the configured
    /// [`MobilityModel`] (the paper's nodes move only "after
    /// configuration with the network").
    pub fn mark_configured(&mut self, node: NodeId) {
        let speed = self.config.speed;
        let Some(i) = self.nodes.idx(node) else {
            return;
        };
        if !self.nodes.alive[i] || self.nodes.configured[i] {
            return;
        }
        self.nodes.configured[i] = true;
        self.roster_version += 1;
        if speed > 0.0 {
            self.start_leg(node);
        }
    }

    /// Consults the mobility model for `node`'s next leg, starts it, and
    /// schedules the waypoint-arrival event. The model draws from the
    /// world's main RNG stream (plus any model-internal state), so runs
    /// stay bit-identical per `(WorldConfig, scenario)`.
    fn start_leg(&mut self, node: NodeId) {
        let now = self.now;
        let arena = self.config.arena;
        let speed = self.config.speed;
        let Some(here) = self
            .nodes
            .idx(node)
            .map(|i| self.nodes.mobility[i].position(now))
        else {
            return;
        };
        let mut rng = self.rng.clone();
        let ctx = RetargetCtx {
            node,
            now,
            here,
            arena: &arena,
            speed,
        };
        let (dest, leg_speed) = self.mobility_model.next_leg(&ctx, &mut rng);
        let dest = arena.clamp(dest);
        let Some(i) = self.nodes.idx(node) else {
            return;
        };
        self.write_mobility(i, |m| m.set_leg(now, here, dest, leg_speed));
        let epoch = self.nodes.mobility_epoch[i];
        let arrival = self.nodes.mobility[i].arrival();
        self.rng = rng;
        // A model may park a node (e.g. a degenerate street grid); no
        // arrival means no further waypoint events for this epoch.
        if let Some(arrival) = arrival {
            self.push_at(arrival, EventKind::Waypoint { node, epoch });
        }
    }

    /// Stops `node` where it stands.
    pub fn park_node(&mut self, node: NodeId) {
        let now = self.now;
        if let Some(i) = self.nodes.idx(node) {
            self.write_mobility(i, |m| m.park(now));
        }
    }

    /// Handles a waypoint-arrival event: picks the next leg.
    pub(crate) fn handle_waypoint(&mut self, node: NodeId, epoch: u64) {
        let speed = self.config.speed;
        let Some(i) = self.nodes.idx(node) else {
            return;
        };
        if !self.nodes.alive[i] || self.nodes.mobility_epoch[i] != epoch || speed <= 0.0 {
            return;
        }
        self.start_leg(node);
    }

    // ------------------------------------------------------------------
    // Event queue internals (used by Sim)
    // ------------------------------------------------------------------

    pub(crate) fn push_at(&mut self, at: SimTime, kind: EventKind) {
        self.queue.push_event(at, kind, self.metrics.perf_mut());
    }

    /// Takes the earliest entry due by `until` off the queue, if any;
    /// the clock moves to its firing time. A run is not handed out here
    /// but becomes the run under way, whose recipients
    /// [`World::next_recipient`] hands out before the queue is looked at
    /// again.
    ///
    /// That is the order one entry per recipient would give: the
    /// recipients would hold consecutive sequence numbers at one
    /// instant, so nothing could fire between them, and whatever a
    /// recipient's handler schedules for the same instant is numbered
    /// after the run's tail.
    pub(crate) fn pop_due(&mut self, until: SimTime) -> Option<Due> {
        let (at, entry) = self.queue.pop_due(until)?;
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        match entry {
            Queued::Event(kind) => {
                self.count_event();
                Some(Due::Event(kind))
            }
            Queued::Run(run) => {
                self.current = Some(run);
                Some(Due::Run)
            }
        }
    }

    /// The next recipient of the run under way, if one is left and the
    /// run, firing at `now`, is due by `until`. What it receives is
    /// [`World::delivery`].
    pub(crate) fn next_recipient(&mut self, until: SimTime) -> Option<NodeId> {
        let run = self.current.as_mut()?;
        if self.now > until {
            return None;
        }
        let Some(to) = run.advance() else {
            self.current = None;
            return None;
        };
        self.count_event();
        Some(to)
    }

    /// The input for the recipient [`World::next_recipient`] handed out
    /// last: a clone of the run's message, or the message itself if that
    /// recipient was the run's last.
    pub(crate) fn delivery(&mut self) -> Input<M> {
        let run = self.current.as_ref().expect("a recipient was handed out");
        if run.next.is_some() {
            let (from, msg) = (run.from, run.msg.clone());
            return Input::Message { from, msg };
        }
        let Run { from, msg, .. } = self.current.take().expect("checked above");
        Input::Message { from, msg }
    }

    fn count_event(&mut self) {
        self.queue.dispatched();
        self.metrics.perf_mut().events += 1;
    }

    /// `(entries held, slots)` of the queue's event slab, then of its
    /// run slab.
    #[cfg(test)]
    pub(crate) fn queue_shape(&self) -> [(usize, usize); 2] {
        self.queue.shape()
    }

    pub(crate) fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    pub(crate) fn timer_cancelled(&mut self, id: TimerId) -> bool {
        self.cancelled_timers.remove(&id)
    }

    /// Number of events still queued (including cancelled timers),
    /// every recipient of a queued delivery counted as one.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.queue.pending()
    }
}

impl<M: Clone + fmt::Debug> World<M> {
    /// Installs a shadow transport (see [`WireShadow`]): from now on
    /// every delivery is first carried over the shadow's medium and the
    /// recipient-decoded copy is what gets scheduled.
    pub fn set_wire_shadow(&mut self, shadow: Box<dyn WireShadow<M>>) {
        self.shadow = Some(shadow);
    }

    /// Runs the installed shadow transport for one `(from, to)`
    /// delivery and returns the message copy the recipient decoded.
    fn shadow_carry(&mut self, from: NodeId, to: NodeId, category: MsgCategory, msg: &M) -> M {
        // One deterministic shortest path over the current link map
        // (a single-element path for a self-delivery).
        let path = self
            .topology()
            .route(from, to)
            .expect("a recipient is reachable in the snapshot that chose it");
        let mut shadow = self.shadow.take().expect("a shadow is installed");
        let carried = shadow.carry(&path, category, msg);
        self.shadow = Some(shadow);
        carried
    }

    /// Enables transcript recording — the log's protocol-I/O class:
    /// every input the driver feeds and every effect the protocol
    /// performs through its [`Net`](crate::Net) handle — this world as
    /// `dyn NetBackend` — is logged. Off by default (one branch per
    /// effect, and no message is encoded).
    pub fn enable_transcript(&mut self) {
        self.log.enable_io();
    }

    /// The event log, when it is recording a transcript.
    #[must_use]
    pub fn transcript(&self) -> Option<&EventLog> {
        self.log.records_io().then_some(&self.log)
    }

    /// Takes the event log out of the world when it is recording a
    /// transcript (ends all recording).
    pub fn take_transcript(&mut self) -> Option<EventLog> {
        self.log.records_io().then(|| std::mem::take(&mut self.log))
    }
}

impl<M: WireMsg> World<M> {
    /// A protocol's flood, bounded by `k` or component-wide: the
    /// inherent send, then its record when transcribing.
    fn flood_logged(
        &mut self,
        from: NodeId,
        k: Option<u32>,
        category: MsgCategory,
        msg: M,
    ) -> Result<usize, SendError> {
        let bytes = self.log.intern_msg(&msg);
        let result = self.send_flood(from, k, category, msg, bytes.is_some());
        if let Some(bytes) = bytes {
            let recipients =
                result.map(|(_, listed)| listed.expect("a recording send interns its recipients"));
            self.log.push(
                self.now,
                Event::SendFlood {
                    from,
                    k,
                    category,
                    bytes,
                    recipients,
                },
            );
        }
        result.map(|(recipients, _)| recipients)
    }
}

/// The protocol-facing choke point: a protocol reaches the world only
/// through `&mut dyn NetBackend`, so each effect here runs the inherent
/// method — same metrics, trace, fault plane and scheduling, in the same
/// order — and then logs its protocol-I/O [`Event`], which is kept only
/// when transcribing. The inherent methods themselves stay untranscribed
/// for the harness, the oracle and tests.
impl<M: WireMsg> NetBackend<M> for World<M> {
    fn now(&self) -> SimTime {
        World::now(self)
    }

    fn is_alive(&self, node: NodeId) -> bool {
        World::is_alive(self, node)
    }

    fn is_configured(&self, node: NodeId) -> bool {
        World::is_configured(self, node)
    }

    fn neighbors(&mut self, node: NodeId) -> Vec<NodeId> {
        World::neighbors(self, node)
    }

    fn nodes_within(&mut self, node: NodeId, k: u32) -> Vec<(NodeId, u32)> {
        World::nodes_within(self, node, k)
    }

    fn hops_between(&mut self, a: NodeId, b: NodeId) -> Option<u32> {
        World::hops_between(self, a, b)
    }

    fn within_hops(&mut self, a: NodeId, b: NodeId, k: u32) -> bool {
        World::within_hops(self, a, b, k)
    }

    fn nearest(
        &mut self,
        node: NodeId,
        pred: &mut dyn FnMut(NodeId) -> bool,
    ) -> Option<(NodeId, u32)> {
        World::nearest(self, node, pred)
    }

    fn component_of(&mut self, node: NodeId) -> Vec<NodeId> {
        World::component_of(self, node)
    }

    fn component_id(&mut self, node: NodeId) -> Option<usize> {
        World::component_id(self, node)
    }

    fn rng_range_u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        self.rng.range_u64(range)
    }

    fn attack_role(&self, node: NodeId) -> Option<AttackKind> {
        World::attack_role(self, node)
    }

    fn attack_assigned(&self, node: NodeId) -> Option<AttackKind> {
        World::attack_assigned(self, node)
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        World::metrics_mut(self)
    }

    fn flow_event(&mut self, kind: FlowKind, node: NodeId, stage: FlowStage) {
        World::flow_event(self, kind, node, stage);
        self.log
            .push(self.now, Event::FlowEvent { node, kind, stage });
    }

    fn mark_configured(&mut self, node: NodeId) {
        World::mark_configured(self, node);
        self.log.push(self.now, Event::Configured { node });
    }

    fn remove_node(&mut self, node: NodeId) {
        World::remove_node(self, node);
        self.log.push(self.now, Event::Removed { node });
    }

    fn unicast(
        &mut self,
        from: NodeId,
        to: NodeId,
        category: MsgCategory,
        msg: M,
    ) -> Result<u32, SendError> {
        let bytes = self.log.intern_msg(&msg);
        let hops = World::unicast(self, from, to, category, msg);
        if let Some(bytes) = bytes {
            self.log.push(
                self.now,
                Event::SendUnicast {
                    from,
                    to,
                    category,
                    bytes,
                    hops,
                },
            );
        }
        hops
    }

    fn broadcast_within(
        &mut self,
        from: NodeId,
        k: u32,
        category: MsgCategory,
        msg: M,
    ) -> Result<usize, SendError> {
        self.flood_logged(from, Some(k), category, msg)
    }

    fn flood(&mut self, from: NodeId, category: MsgCategory, msg: M) -> Result<usize, SendError> {
        self.flood_logged(from, None, category, msg)
    }

    fn set_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) -> TimerId {
        let id = World::set_timer(self, node, delay, tag);
        self.log.push(
            self.now,
            Event::SetTimer {
                node,
                id,
                delay,
                tag,
            },
        );
        id
    }

    fn cancel_timer(&mut self, id: TimerId) {
        World::cancel_timer(self, id);
        self.log.push(self.now, Event::CancelTimer { id });
    }
}
