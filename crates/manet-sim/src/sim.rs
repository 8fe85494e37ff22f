use crate::event::{Due, EventKind};
use crate::{Input, NodeId, Point, ProtocolCore, SimDuration, SimTime, World, WorldConfig};

/// The simulation driver: owns the [`World`] and the [`ProtocolCore`] and
/// dispatches events to the protocol's callbacks in timestamp order.
///
/// Scenario code (the experiment harness) uses `Sim` to place nodes and
/// schedule arrivals/departures; the protocol reacts through the
/// callbacks. See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Sim<P: ProtocolCore> {
    world: World<P::Msg>,
    protocol: P,
}

impl<P: ProtocolCore> Sim<P> {
    /// Creates a simulation with the given configuration and protocol.
    pub fn new(config: WorldConfig, protocol: P) -> Self {
        Sim {
            world: World::new(config),
            protocol,
        }
    }

    /// The simulated network.
    #[must_use]
    pub fn world(&self) -> &World<P::Msg> {
        &self.world
    }

    /// Mutable access to the network (for scenario-level tweaks).
    pub fn world_mut(&mut self) -> &mut World<P::Msg> {
        &mut self.world
    }

    /// The protocol under simulation.
    #[must_use]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Mutable access to the protocol (for inspection helpers in tests).
    pub fn protocol_mut(&mut self) -> &mut P {
        &mut self.protocol
    }

    /// Simultaneous mutable access to world and protocol (e.g. for audits
    /// that read protocol state while querying the topology).
    pub fn parts_mut(&mut self) -> (&mut World<P::Msg>, &mut P) {
        (&mut self.world, &mut self.protocol)
    }

    // ------------------------------------------------------------------
    // Scenario API
    // ------------------------------------------------------------------

    /// Spawns a node at `pos` and joins it immediately (the protocol's
    /// `on_join` runs before this returns).
    pub fn spawn_at(&mut self, pos: Point) -> NodeId {
        let node = self.world.create_node(pos);
        self.world.activate(node);
        self.feed(node, Input::Join);
        node
    }

    /// Spawns a node at a uniformly random position, joining immediately.
    pub fn spawn_random(&mut self) -> NodeId {
        let arena = self.world.arena();
        let pos = self.world.rng_mut().point_in(&arena);
        self.spawn_at(pos)
    }

    /// Creates a node at `pos` that will join at time `at`.
    pub fn schedule_spawn_at(&mut self, at: SimTime, pos: Point) -> NodeId {
        let node = self.world.create_node(pos);
        self.world.push_at(at, EventKind::Join { node });
        node
    }

    /// Creates a node at a random position that will join at time `at`.
    pub fn schedule_spawn_random(&mut self, at: SimTime) -> NodeId {
        let arena = self.world.arena();
        let pos = self.world.rng_mut().point_in(&arena);
        self.schedule_spawn_at(at, pos)
    }

    /// Schedules `node` to leave at time `at`. Graceful leaves run the
    /// protocol's departure handshake; abrupt leaves kill the node first.
    pub fn schedule_leave(&mut self, at: SimTime, node: NodeId, graceful: bool) {
        self.world.push_at(at, EventKind::Leave { node, graceful });
    }

    /// Makes `node` leave right now.
    pub fn leave_now(&mut self, node: NodeId, graceful: bool) {
        self.dispatch_leave(node, graceful);
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Processes all events with timestamps `≤ until`, then advances the
    /// clock to `until`. Returns the number of events processed.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        let mut processed = 0;
        while self.step(until) {
            processed += 1;
        }
        self.world.advance_to(until);
        processed
    }

    /// Processes the single earliest event with a timestamp `≤ until`
    /// and returns `true`. When no event is due, advances the clock to
    /// `until` and returns `false`. Each recipient of a send is one
    /// event, exactly as in [`Sim::run_until`]: both drive the same step.
    ///
    /// This is the hook the conformance oracle uses to interleave an
    /// invariant check after every simulator event:
    ///
    /// ```ignore
    /// let mut step = 0;
    /// while sim.step_until(deadline) {
    ///     step += 1;
    ///     let (w, p) = sim.parts_mut();
    ///     checker.check(step, w, &*p)?;
    /// }
    /// ```
    pub fn step_until(&mut self, until: SimTime) -> bool {
        let stepped = self.step(until);
        if !stepped {
            self.world.advance_to(until);
        }
        stepped
    }

    /// Runs for `span` of virtual time from the current instant.
    pub fn run_for(&mut self, span: SimDuration) -> u64 {
        let until = self.world.now().saturating_add(span);
        self.run_until(until)
    }

    /// Processes events until the queue is empty (only safe for protocols
    /// without self-rescheduling periodic timers) or `max_events` is hit.
    /// Returns the number of events processed.
    pub fn drain(&mut self, max_events: u64) -> u64 {
        let mut processed = 0;
        while processed < max_events && self.step(SimTime::MAX) {
            processed += 1;
        }
        processed
    }

    /// Dispatches the one logical event due next by `until`, if any: the
    /// next recipient of the run under way, or else the queue's head. A
    /// popped run only becomes the run under way, so its first recipient
    /// is this step's event.
    fn step(&mut self, until: SimTime) -> bool {
        let to = match self.world.next_recipient(until) {
            Some(next) => next,
            None => match self.world.pop_due(until) {
                None => return false,
                Some(Due::Event(kind)) => {
                    self.dispatch(kind);
                    return true;
                }
                Some(Due::Run) => self
                    .world
                    .next_recipient(until)
                    .expect("a run is never empty"),
            },
        };
        // A dead recipient's turn is an event, not a delivery, and
        // costs no clone.
        if self.world.is_alive(to) {
            self.world.metrics_mut().perf_mut().deliveries += 1;
            let input = self.world.delivery();
            self.feed(to, input);
        }
        true
    }

    /// Feeds one sans-io [`Input`] to the protocol core: records it in
    /// the transcript (when recording) and hands the world over as the
    /// protocol's [`Net`](crate::Net) handle.
    fn feed(&mut self, node: NodeId, input: Input<P::Msg>) {
        self.world.log.push_input(self.world.now(), node, &input);
        self.protocol.handle(&mut self.world, node, input);
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Timer { node, id, tag } => {
                if !self.world.timer_cancelled(id) && self.world.is_alive(node) {
                    self.world.metrics_mut().perf_mut().timers_fired += 1;
                    self.feed(node, Input::TimerFired { tag });
                }
            }
            EventKind::Join { node } => {
                if self.world.activate(node) {
                    self.feed(node, Input::Join);
                }
            }
            EventKind::Leave { node, graceful } => {
                self.dispatch_leave(node, graceful);
            }
            EventKind::Waypoint { node, epoch } => {
                self.world.handle_waypoint(node, epoch);
            }
            EventKind::Crash { node } => {
                if self.world.is_alive(node) {
                    self.world.record_crash(node);
                    self.dispatch_leave(node, false);
                }
            }
            EventKind::Restart { node } => {
                if self.world.revive(node) {
                    self.feed(node, Input::Join);
                }
            }
            EventKind::HeadKill { count } => self.dispatch_head_kill(count),
        }
    }

    /// Kills up to `count` currently-serving cluster heads, chosen by
    /// the fault RNG among the heads the protocol reports as alive.
    /// The victims die abruptly, exactly like scheduled crashes.
    fn dispatch_head_kill(&mut self, count: u32) {
        let mut heads: Vec<NodeId> = self
            .world
            .alive_nodes()
            .into_iter()
            .filter(|&n| self.protocol.is_cluster_head(n))
            .collect();
        if let Some(rng) = self.world.fault_rng() {
            rng.shuffle(&mut heads);
        }
        heads.truncate(count as usize);
        for node in heads {
            if self.world.is_alive(node) {
                self.world.record_crash(node);
                self.dispatch_leave(node, false);
            }
        }
    }

    fn dispatch_leave(&mut self, node: NodeId, graceful: bool) {
        if !self.world.is_alive(node) {
            return;
        }
        if graceful {
            // The protocol runs its handshake and is responsible for the
            // eventual `remove_node`.
            self.feed(node, Input::Leave { graceful: true });
        } else {
            self.world.remove_node(node);
            self.feed(node, Input::Leave { graceful: false });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, MsgCategory, Net, SendError, WireShadow, HOP_DELAY};
    use proto_io::IdMap;

    /// Echo protocol: node 0 is the server; every other joiner sends it a
    /// `Req` and the server replies `Rep`.
    #[derive(Default)]
    struct Echo {
        requests: u32,
        replies: u32,
        left: Vec<(NodeId, bool)>,
    }

    #[derive(Debug, Clone, Copy)]
    enum Say {
        Req,
        Rep,
    }

    proto_io::wire_codec! { Say { Req = 0x01, Rep = 0x02 } }

    impl ProtocolCore for Echo {
        type Msg = Say;

        fn on_join(&mut self, w: &mut Net<'_, Self::Msg>, node: NodeId) {
            if node.index() != 0 {
                let _ = w.unicast(node, NodeId::new(0), MsgCategory::Configuration, Say::Req);
            }
        }

        fn on_message(
            &mut self,
            w: &mut Net<'_, Self::Msg>,
            to: NodeId,
            from: NodeId,
            msg: Self::Msg,
        ) {
            match msg {
                Say::Req => {
                    self.requests += 1;
                    let _ = w.unicast(to, from, MsgCategory::Configuration, Say::Rep);
                }
                Say::Rep => {
                    self.replies += 1;
                    w.mark_configured(to);
                }
            }
        }

        fn on_leave(&mut self, w: &mut Net<'_, Self::Msg>, node: NodeId, graceful: bool) {
            self.left.push((node, graceful));
            if graceful {
                w.remove_node(node);
            }
        }
    }

    fn still_config() -> WorldConfig {
        WorldConfig {
            speed: 0.0,
            ..WorldConfig::default()
        }
    }

    #[test]
    fn request_reply_roundtrip() {
        let mut sim = Sim::new(still_config(), Echo::default());
        sim.spawn_at(Point::new(0.0, 0.0));
        sim.spawn_at(Point::new(100.0, 0.0));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.protocol().requests, 1);
        assert_eq!(sim.protocol().replies, 1);
        // One hop each way.
        assert_eq!(sim.world().metrics().hops(MsgCategory::Configuration), 2);
        assert!(sim.world().is_configured(NodeId::new(1)));
    }

    #[test]
    fn multi_hop_charges_path_length() {
        let mut sim = Sim::new(still_config(), Echo::default());
        sim.spawn_at(Point::new(0.0, 0.0));
        // Relay chain: 140 m spacing, 150 m range.
        let relay = sim.spawn_at(Point::new(140.0, 0.0));
        let far = sim.spawn_at(Point::new(280.0, 0.0));
        sim.run_for(SimDuration::from_secs(1));
        // relay: 1 hop each way; far: 2 hops each way.
        assert_eq!(sim.world().metrics().hops(MsgCategory::Configuration), 6);
        assert_eq!(sim.protocol().replies, 2);
        let _ = (relay, far);
    }

    #[test]
    fn unreachable_send_fails_without_charge() {
        let mut sim = Sim::new(still_config(), Echo::default());
        sim.spawn_at(Point::new(0.0, 0.0));
        sim.spawn_at(Point::new(900.0, 900.0)); // out of range of node 0
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.protocol().requests, 0);
        assert_eq!(sim.world().metrics().total_hops(), 0);
    }

    #[test]
    fn scheduled_join_fires_in_order() {
        let mut sim = Sim::new(still_config(), Echo::default());
        sim.spawn_at(Point::new(0.0, 0.0));
        let late = sim.schedule_spawn_at(SimTime::from_micros(500_000), Point::new(50.0, 0.0));
        assert!(!sim.world().is_alive(late));
        sim.run_until(SimTime::from_micros(400_000));
        assert!(!sim.world().is_alive(late));
        sim.run_until(SimTime::from_micros(600_000));
        assert!(sim.world().is_alive(late));
        assert_eq!(
            sim.world().joined_at(late),
            Some(SimTime::from_micros(500_000))
        );
    }

    #[test]
    fn abrupt_leave_kills_before_callback() {
        let mut sim = Sim::new(still_config(), Echo::default());
        sim.spawn_at(Point::new(0.0, 0.0));
        let b = sim.spawn_at(Point::new(50.0, 0.0));
        sim.run_for(SimDuration::from_secs(1));
        sim.leave_now(b, false);
        assert!(!sim.world().is_alive(b));
        assert_eq!(sim.protocol().left, vec![(b, false)]);
    }

    #[test]
    fn graceful_leave_lets_protocol_remove() {
        let mut sim = Sim::new(still_config(), Echo::default());
        let a = sim.spawn_at(Point::new(0.0, 0.0));
        sim.run_for(SimDuration::from_secs(1));
        sim.schedule_leave(sim.world().now(), a, true);
        sim.run_for(SimDuration::from_secs(1));
        assert!(!sim.world().is_alive(a));
        assert_eq!(sim.protocol().left, vec![(a, true)]);
    }

    #[test]
    fn leave_of_dead_node_is_noop() {
        let mut sim = Sim::new(still_config(), Echo::default());
        let a = sim.spawn_at(Point::new(0.0, 0.0));
        sim.leave_now(a, false);
        sim.leave_now(a, false);
        sim.leave_now(a, true);
        assert_eq!(sim.protocol().left.len(), 1);
    }

    #[test]
    fn messages_to_dead_nodes_are_dropped() {
        struct SendLater;
        impl ProtocolCore for SendLater {
            type Msg = ();
            fn on_join(&mut self, w: &mut Net<'_, ()>, node: NodeId) {
                if node.index() == 1 {
                    // Queued for delivery one hop later.
                    let _ = w.unicast(node, NodeId::new(0), MsgCategory::Hello, ());
                }
            }
            fn on_message(&mut self, _w: &mut Net<'_, ()>, _t: NodeId, _f: NodeId, _m: ()) {
                panic!("must not deliver to a dead node");
            }
        }
        let mut sim = Sim::new(still_config(), SendLater);
        let a = sim.spawn_at(Point::new(0.0, 0.0));
        sim.spawn_at(Point::new(50.0, 0.0));
        sim.leave_now(a, false); // dies before the queued delivery fires
        sim.run_for(SimDuration::from_secs(1));
    }

    #[test]
    fn timer_fires_and_cancel_works() {
        #[derive(Default)]
        struct Timers {
            fired: Vec<u64>,
        }
        impl ProtocolCore for Timers {
            type Msg = ();
            fn on_join(&mut self, w: &mut Net<'_, ()>, node: NodeId) {
                w.set_timer(node, SimDuration::from_millis(10), 1);
                let cancel_me = w.set_timer(node, SimDuration::from_millis(20), 2);
                w.set_timer(node, SimDuration::from_millis(30), 3);
                w.cancel_timer(cancel_me);
            }
            fn on_message(&mut self, _w: &mut Net<'_, ()>, _t: NodeId, _f: NodeId, _m: ()) {}
            fn on_timer(&mut self, _w: &mut Net<'_, ()>, _node: NodeId, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut sim = Sim::new(still_config(), Timers::default());
        sim.spawn_at(Point::new(0.0, 0.0));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.protocol().fired, vec![1, 3]);
    }

    #[test]
    fn timers_die_with_node() {
        #[derive(Default)]
        struct T {
            fired: u32,
        }
        impl ProtocolCore for T {
            type Msg = ();
            fn on_join(&mut self, w: &mut Net<'_, ()>, node: NodeId) {
                w.set_timer(node, SimDuration::from_millis(100), 0);
            }
            fn on_message(&mut self, _w: &mut Net<'_, ()>, _t: NodeId, _f: NodeId, _m: ()) {}
            fn on_timer(&mut self, _w: &mut Net<'_, ()>, _n: NodeId, _tag: u64) {
                self.fired += 1;
            }
        }
        let mut sim = Sim::new(still_config(), T::default());
        let a = sim.spawn_at(Point::new(0.0, 0.0));
        sim.leave_now(a, false);
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.protocol().fired, 0);
    }

    #[test]
    fn step_until_matches_run_until() {
        let run = |stepped: bool| {
            let mut sim = Sim::new(still_config(), Echo::default());
            sim.spawn_at(Point::new(0.0, 0.0));
            for i in 1..6u64 {
                sim.schedule_spawn_at(
                    SimTime::from_micros(i * 100_000),
                    Point::new(i as f64 * 50.0, 0.0),
                );
            }
            let until = SimTime::from_micros(2_000_000);
            if stepped {
                let mut steps = 0u64;
                while sim.step_until(until) {
                    steps += 1;
                }
                assert!(steps > 0);
                // Idempotent once drained: clock stays put, no event fires.
                assert!(!sim.step_until(until));
            } else {
                sim.run_until(until);
            }
            assert_eq!(sim.world().now(), until);
            let m = sim.world().metrics();
            (m.total_messages(), m.total_hops(), sim.protocol().replies)
        };
        assert_eq!(run(true), run(false));
    }

    /// Logs every dispatch; optionally one node's handler removes
    /// another node or arms a zero-delay timer on itself.
    #[derive(Default)]
    struct Fan {
        /// `(now, node, tag)` per dispatch; a message logs tag 0.
        log: Vec<(SimTime, NodeId, u64)>,
        /// `(killer, victim)`: the killer's message handler removes the victim.
        kill: Option<(NodeId, NodeId)>,
        /// This node's message handler arms a zero-delay timer, tag 7.
        echo: Option<NodeId>,
    }

    impl ProtocolCore for Fan {
        type Msg = ();
        fn on_join(&mut self, _w: &mut Net<'_, ()>, _node: NodeId) {}
        fn on_message(&mut self, w: &mut Net<'_, ()>, to: NodeId, _from: NodeId, _m: ()) {
            self.log.push((w.now(), to, 0));
            if let Some((_, victim)) = self.kill.filter(|&(killer, _)| killer == to) {
                w.remove_node(victim);
            }
            if self.echo == Some(to) {
                w.set_timer(to, SimDuration::ZERO, 7);
            }
        }
        fn on_timer(&mut self, w: &mut Net<'_, ()>, node: NodeId, tag: u64) {
            self.log.push((w.now(), node, tag));
        }
    }

    /// Node 0 in the middle of `k` one-hop neighbours, ids `1..=k`.
    fn star(k: u64, fan: Fan) -> Sim<Fan> {
        let mut sim = Sim::new(still_config(), fan);
        sim.spawn_at(Point::new(500.0, 500.0));
        for i in 0..k {
            sim.spawn_at(Point::new(450.0 + 10.0 * i as f64, 520.0));
        }
        sim
    }

    /// Node 0 says hello `k` hops out; the nodes it reaches, in the
    /// `(distance, id)` order their deliveries are queued in.
    fn hello(sim: &mut Sim<Fan>, k: u32) -> Vec<NodeId> {
        let w = sim.world_mut();
        let reach: Vec<NodeId> = w
            .nodes_within(NodeId::new(0), k)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let sent = w.broadcast_within(NodeId::new(0), k, MsgCategory::Hello, ());
        assert_eq!(sent, Ok(reach.len()));
        reach
    }

    #[test]
    fn a_broadcast_is_one_logical_event_per_recipient() {
        let mut sim = star(9, Fan::default());
        assert_eq!(sim.world().pending_events(), 0);
        let recipients = hello(&mut sim, 1);
        assert_eq!(recipients.len(), 9);
        // One queue entry, nine logical events: that is what the
        // counters and the oracle's stepping see.
        assert_eq!(sim.world().pending_events(), 9);
        assert_eq!(sim.world().metrics().perf().queue_high_water, 9);
        let until = SimTime::from_micros(1_000_000);
        for (i, to) in recipients.iter().enumerate() {
            assert!(sim.step_until(until));
            assert_eq!(sim.protocol().log.len(), i + 1, "one dispatch per step");
            assert_eq!(sim.protocol().log[i].1, *to);
            assert_eq!(sim.world().pending_events(), 8 - i);
        }
        assert!(!sim.step_until(until));
        let perf = sim.world().metrics().perf();
        assert_eq!((perf.events, perf.deliveries), (9, 9));
        assert_eq!(perf.queue_high_water, 9);
        // Stepping is run_until, one event at a time.
        let mut whole = star(9, Fan::default());
        hello(&mut whole, 1);
        assert_eq!(whole.run_until(until), 9);
        assert_eq!(whole.protocol().log, sim.protocol().log);
    }

    #[test]
    fn a_recipient_removed_mid_run_is_skipped() {
        let fan = Fan {
            kill: Some((NodeId::new(2), NodeId::new(5))),
            ..Fan::default()
        };
        let mut sim = star(6, fan);
        hello(&mut sim, 1);
        // The dead recipient's turn is still an event, just not a delivery.
        assert_eq!(sim.run_for(SimDuration::from_secs(1)), 6);
        let got: Vec<u64> = sim.protocol().log.iter().map(|l| l.1.index()).collect();
        assert_eq!(got, vec![1, 2, 3, 4, 6]);
        assert_eq!(sim.world().metrics().perf().deliveries, 5);
    }

    #[test]
    fn what_a_handler_schedules_for_the_same_instant_fires_after_the_runs_tail() {
        let fan = Fan {
            echo: Some(NodeId::new(2)),
            ..Fan::default()
        };
        let mut sim = star(4, fan);
        hello(&mut sim, 1);
        sim.run_for(SimDuration::from_secs(1));
        let at = SimTime::ZERO + HOP_DELAY;
        let want: Vec<(SimTime, NodeId, u64)> = [(1, 0), (2, 0), (3, 0), (4, 0), (2, 7)]
            .into_iter()
            .map(|(n, tag)| (at, NodeId::new(n), tag))
            .collect();
        assert_eq!(sim.protocol().log, want);
    }

    #[test]
    fn delay_and_dup_faults_dispatch_in_per_recipient_at_seq_order() {
        use crate::Event;
        use crate::FaultPlan;
        let plan = FaultPlan::new(9)
            .with_delay(
                0.5,
                SimDuration::from_millis(1),
                SimDuration::from_millis(20),
            )
            .with_duplication(0.4);
        let config = WorldConfig {
            fault_plan: plan,
            ..still_config()
        };
        let mut sim = Sim::new(config, Fan::default());
        // A 5 × 5 lattice, 100 m apart: three hop levels from the corner.
        for i in 0..25 {
            sim.spawn_at(Point::new((i % 5) as f64 * 100.0, (i / 5) as f64 * 100.0));
        }
        sim.world_mut().enable_trace(1 << 12);
        let recipients = hello(&mut sim, 3);
        assert!(recipients.len() > 8);
        // Each recipient's fate, as the send recorded it.
        let (mut extra, mut copies) = (IdMap::default(), IdMap::default());
        for r in sim.world().trace().records() {
            match r.event {
                Event::FaultDelay { to, by, .. } => {
                    extra.insert(to, by);
                }
                Event::FaultDuplicate { to, copies: c, .. } => {
                    copies.insert(to, c);
                }
                _ => {}
            }
        }
        assert!(!extra.is_empty() && !copies.is_empty(), "plan must bite");
        // One queue entry per copy, numbered in send order, popped by
        // `(at, seq)`: the order the runs must reproduce.
        let mut want = Vec::new();
        for to in recipients {
            let d = sim.world_mut().hops_between(NodeId::new(0), to).unwrap();
            let at = SimTime::ZERO
                + HOP_DELAY * u64::from(d)
                + extra.get(&to).copied().unwrap_or(SimDuration::ZERO);
            for _ in 0..=copies.get(&to).copied().unwrap_or(0) {
                want.push((at, want.len(), to));
            }
        }
        want.sort();
        assert_eq!(sim.world().pending_events(), want.len());
        sim.run_for(SimDuration::from_secs(1));
        let got: Vec<(SimTime, NodeId)> = sim.protocol().log.iter().map(|l| (l.0, l.1)).collect();
        let want: Vec<(SimTime, NodeId)> = want.into_iter().map(|(at, _, to)| (at, to)).collect();
        assert_eq!(got, want);
    }

    /// Logs every message it receives; every node beacons one hop at a
    /// 50 ms period from its join on, its message tagged 999.
    #[derive(Default)]
    struct Beacon {
        /// `(now, node, msg)` per delivery.
        log: Vec<(SimTime, NodeId, u64)>,
    }

    impl ProtocolCore for Beacon {
        type Msg = u64;
        fn on_join(&mut self, w: &mut Net<'_, u64>, node: NodeId) {
            w.set_timer(node, SimDuration::from_millis(50), 0);
        }
        fn on_message(&mut self, w: &mut Net<'_, u64>, to: NodeId, _from: NodeId, msg: u64) {
            self.log.push((w.now(), to, msg));
        }
        fn on_timer(&mut self, w: &mut Net<'_, u64>, node: NodeId, _tag: u64) {
            let _ = w.broadcast_within(node, 1, MsgCategory::Hello, 999);
            w.set_timer(node, SimDuration::from_millis(50), 0);
        }
    }

    /// A 5 × 5 lattice of beacons, 100 m apart (up to four neighbours).
    fn lattice(config: WorldConfig) -> Sim<Beacon> {
        let mut sim = Sim::new(config, Beacon::default());
        for i in 0..25 {
            sim.spawn_at(Point::new((i % 5) as f64 * 100.0, (i / 5) as f64 * 100.0));
        }
        sim
    }

    /// Loss, delays and duplicates: runs split where firing times part.
    fn fragmenting() -> WorldConfig {
        let plan = FaultPlan::new(5)
            .with_loss(0.1)
            .with_delay(
                0.5,
                SimDuration::from_millis(1),
                SimDuration::from_millis(20),
            )
            .with_duplication(0.4);
        WorldConfig {
            fault_plan: plan,
            loss_rate: 0.1,
            ..still_config()
        }
    }

    #[test]
    fn a_shadow_copy_reaches_its_own_recipient_in_run_order() {
        /// Hands each recipient a copy tagged with its own id.
        #[derive(Debug)]
        struct Tagger;
        impl WireShadow<u64> for Tagger {
            fn carry(&mut self, path: &[NodeId], _c: MsgCategory, _msg: &u64) -> u64 {
                path.last().expect("a path ends at its recipient").index()
            }
        }
        let run = |shadow: bool| {
            let mut sim = lattice(fragmenting());
            if shadow {
                sim.world_mut().set_wire_shadow(Box::new(Tagger));
            }
            sim.run_for(SimDuration::from_secs(1));
            // The shadow asks the topology for paths: `topo_hits` moves.
            let p = sim.world().metrics().perf();
            let perf = (p.events, p.deliveries, p.timers_fired, p.queue_high_water);
            (sim.protocol_mut().log.split_off(0), perf)
        };
        let (plain, plain_perf) = run(false);
        let (tagged, tagged_perf) = run(true);
        assert!(plain.len() > 200, "the lattice beacons");
        assert!(plain.iter().all(|&(_, _, msg)| msg == 999));
        assert!(tagged.iter().all(|&(_, to, msg)| msg == to.index()));
        let order = |log: &[(SimTime, NodeId, u64)]| -> Vec<(SimTime, NodeId)> {
            log.iter().map(|&(at, to, _)| (at, to)).collect()
        };
        assert_eq!(order(&tagged), order(&plain));
        assert_eq!(tagged_perf, plain_perf);
    }

    #[test]
    fn the_slab_holds_no_more_slots_than_the_queue_held_entries() {
        let mut sim = lattice(still_config());
        let until = SimTime::from_micros(5_000_000);
        // Per slab: timers, then hello runs.
        let mut peak = [0, 0];
        let mut steps = 0u64;
        loop {
            for (peak, (held, _)) in peak.iter_mut().zip(sim.world().queue_shape()) {
                *peak = (*peak).max(held);
            }
            if !sim.step_until(until) {
                break;
            }
            steps += 1;
        }
        assert!(steps > 5_000, "a long storm: {steps} steps");
        for (peak, (_, slots)) in peak.into_iter().zip(sim.world().queue_shape()) {
            assert!(slots <= peak, "{slots} slots for at most {peak} entries");
            assert!(peak <= 25, "one timer and one hello run a node");
        }
    }

    #[test]
    fn step_until_matches_run_until_on_fragmenting_runs() {
        let run = |stepped: bool| {
            let mut sim = lattice(fragmenting());
            let until = SimTime::from_micros(2_000_000);
            let mut events = 0;
            if stepped {
                while sim.step_until(until) {
                    events += 1;
                }
            } else {
                events = sim.run_until(until);
            }
            assert_eq!(sim.world().now(), until);
            let faults = *sim.world().metrics().faults();
            assert!(faults.dropped > 0 && faults.delayed > 0 && faults.duplicated > 0);
            let perf = *sim.world().metrics().perf();
            (
                events,
                perf,
                sim.world().pending_events(),
                faults,
                sim.protocol_mut().log.split_off(0),
            )
        };
        let (stepped, whole) = (run(true), run(false));
        assert_eq!(stepped.0, stepped.1.events);
        assert_eq!(stepped, whole);
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let mut sim = Sim::new(still_config(), Echo::default());
        sim.run_until(SimTime::from_micros(123));
        assert_eq!(sim.world().now(), SimTime::from_micros(123));
    }

    #[test]
    fn mobility_moves_configured_nodes() {
        let config = WorldConfig {
            speed: 20.0,
            ..WorldConfig::default()
        };
        let mut sim = Sim::new(config, Echo::default());
        sim.spawn_at(Point::new(500.0, 500.0));
        let b = sim.spawn_at(Point::new(520.0, 500.0));
        sim.run_for(SimDuration::from_secs(1));
        assert!(sim.world().is_configured(b));
        let before = sim.world().position(b).unwrap();
        sim.run_for(SimDuration::from_secs(30));
        let after = sim.world().position(b).unwrap();
        assert!(
            before.distance(after) > 1.0,
            "configured node should have moved: {before} → {after}"
        );
        // Unconfigured node 0 stays put.
        let p0 = sim.world().position(NodeId::new(0)).unwrap();
        assert_eq!(p0, Point::new(500.0, 500.0));
    }

    #[test]
    fn flood_reaches_component_and_charges_size() {
        struct Flooder;
        impl ProtocolCore for Flooder {
            type Msg = ();
            fn on_join(&mut self, w: &mut Net<'_, ()>, node: NodeId) {
                if node.index() == 3 {
                    let got = w.flood(node, MsgCategory::Sync, ());
                    assert_eq!(got, Ok(3)); // other three in the chain
                }
            }
            fn on_message(&mut self, _w: &mut Net<'_, ()>, _t: NodeId, _f: NodeId, _m: ()) {}
        }
        let mut sim = Sim::new(still_config(), Flooder);
        for i in 0..4 {
            sim.spawn_at(Point::new(i as f64 * 100.0, 0.0));
        }
        // Flood charge = component size (4 transmissions).
        assert_eq!(sim.world().metrics().hops(MsgCategory::Sync), 4);
    }

    #[test]
    fn broadcast_within_k() {
        struct B;
        impl ProtocolCore for B {
            type Msg = ();
            fn on_join(&mut self, w: &mut Net<'_, ()>, node: NodeId) {
                if node.index() == 4 {
                    // Chain of 5 nodes, 100 m apart; node 4 broadcasts 2 hops.
                    let got = w.broadcast_within(node, 2, MsgCategory::Hello, ());
                    assert_eq!(got, Ok(2)); // nodes 3 and 2
                }
            }
            fn on_message(&mut self, _w: &mut Net<'_, ()>, _t: NodeId, _f: NodeId, _m: ()) {}
        }
        let mut sim = Sim::new(still_config(), B);
        for i in 0..5 {
            sim.spawn_at(Point::new(i as f64 * 100.0, 0.0));
        }
        // Transmissions: originator + 1 relay (node 3).
        assert_eq!(sim.world().metrics().hops(MsgCategory::Hello), 2);
    }

    #[test]
    fn dead_sender_cannot_send() {
        let mut sim = Sim::new(still_config(), Echo::default());
        let a = sim.spawn_at(Point::new(0.0, 0.0));
        let b = sim.spawn_at(Point::new(10.0, 0.0));
        sim.run_for(SimDuration::from_secs(1));
        sim.leave_now(a, false);
        let err = sim
            .world_mut()
            .unicast(a, b, MsgCategory::Hello, Say::Req)
            .unwrap_err();
        assert_eq!(err, SendError::SenderDead);
    }

    #[test]
    fn determinism_same_seed_same_run() {
        fn run(seed: u64) -> (u64, u64) {
            let config = WorldConfig {
                seed,
                ..WorldConfig::default()
            };
            let mut sim = Sim::new(config, Echo::default());
            for _ in 0..20 {
                sim.spawn_random();
            }
            sim.run_for(SimDuration::from_secs(10));
            let m = sim.world().metrics();
            (m.total_messages(), m.total_hops())
        }
        assert_eq!(run(42), run(42));
    }
}
