//! Workload generation: the paper's simulation setup (§VI-A).
//!
//! "Simulations are performed on a MANET with nodes moving to a random
//! destination at the speed of 20 m/s after configuration. Networks with
//! a maximum of 50–200 nodes are simulated and the simulation area is
//! 1 km × 1 km. Nodes arrive in a sequential manner and are randomly
//! chosen to depart gracefully or abruptly."

use addrspace::STOCK_SPACE;
use manet_sim::{
    Arena, FaultPlan, Metrics, MobilityConfig, NodeId, ProtocolCore, Sim, SimDuration, SimTime,
    World, WorldConfig,
};

use crate::sweep::run_jobs;

/// A reproducible experiment scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Number of nodes (the paper sweeps 50–200).
    pub nn: usize,
    /// Transmission range in meters (baseline 150).
    pub tr: f64,
    /// Arena side length in meters (paper: 1000).
    pub area: f64,
    /// Node speed after configuration, m/s (paper: 20).
    pub speed: f64,
    /// Mobility model driving configured nodes (paper: random
    /// waypoint; the alternatives stress spatially-correlated and
    /// burst-join movement). Irrelevant at speed 0.
    pub mobility: MobilityConfig,
    /// Gap between sequential arrivals.
    pub arrival_gap: SimDuration,
    /// Extra time after the last arrival before departures begin.
    pub settle: SimDuration,
    /// Fraction of nodes that depart during the departure phase
    /// (0 disables departures).
    pub depart_fraction: f64,
    /// Probability that a departure is abrupt (paper sweeps 5%–50%).
    pub abrupt_ratio: f64,
    /// Time window over which departures are spread.
    pub depart_window: SimDuration,
    /// Time to keep running after the departure window (detection,
    /// reclamation).
    pub cooldown: SimDuration,
    /// Nodes that arrive *after* the departure window — they trigger
    /// allocation traffic that detects vanished heads (reclamation
    /// studies).
    pub post_arrivals: usize,
    /// When `true` (default), each arrival is placed within radio range
    /// of the existing network, as the paper's sequential-arrival setup
    /// implies. Uniform placement would found several independent
    /// networks that all carry the same network ID (the lowest address),
    /// an ambiguity the paper's merge scheme cannot resolve.
    pub connected_arrivals: bool,
    /// Per-message delivery loss probability in `[0, 1]` (default 0,
    /// the paper's reliable-delivery assumption). Sweep cells use this
    /// for the robustness axis without building a fault plan.
    pub loss_rate: f64,
    /// RNG seed; also perturbs node placement and departures.
    pub seed: u64,
    /// Fault-injection plan applied on top of the workload (default:
    /// none — zero overhead, bit-identical to a fault-free run).
    pub fault_plan: FaultPlan,
    /// When `true`, enables the flow-span [`Observer`](manet_sim::Observer)
    /// so the run tallies join/reclaim/merge lifecycles (default: off,
    /// zero hot-path cost).
    pub observe: bool,
    /// When non-zero, enables bounded event tracing with this capacity
    /// so the run can be exported as JSONL (default: 0, off).
    pub trace_capacity: usize,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            nn: 100,
            tr: 150.0,
            area: 1000.0,
            speed: 20.0,
            mobility: MobilityConfig::default(),
            arrival_gap: SimDuration::from_millis(1000),
            settle: SimDuration::from_secs(10),
            depart_fraction: 0.0,
            abrupt_ratio: 0.2,
            depart_window: SimDuration::from_secs(30),
            cooldown: SimDuration::from_secs(20),
            post_arrivals: 0,
            connected_arrivals: true,
            loss_rate: 0.0,
            seed: 1,
            fault_plan: FaultPlan::default(),
            observe: false,
            trace_capacity: 0,
        }
    }
}

/// Why a [`ScenarioBuilder`] refused to build.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A field was set to a value outside its meaningful domain.
    /// Carries the field name and the offending value.
    OutOfRange {
        /// The builder setter that received the value.
        field: &'static str,
        /// The rejected value, rendered for the error message.
        value: String,
        /// The accepted domain, e.g. `"within [0, 1]"`.
        expected: &'static str,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::OutOfRange {
                field,
                value,
                expected,
            } => write!(f, "scenario field `{field}` = {value} must be {expected}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Chainable constructor for [`Scenario`] with unit-suffixed setters
/// and domain validation at [`build`](ScenarioBuilder::build) time.
///
/// ```
/// # use harness::scenario::Scenario;
/// let s = Scenario::builder()
///     .nn(50)
///     .arrival_gap_ms(500)
///     .settle_secs(5)
///     .depart_fraction(0.3)
///     .build()
///     .expect("valid scenario");
/// assert_eq!(s.nn, 50);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    s: Scenario,
}

impl ScenarioBuilder {
    /// Number of nodes (the paper sweeps 50–200).
    #[must_use]
    pub fn nn(mut self, nn: usize) -> Self {
        self.s.nn = nn;
        self
    }

    /// Transmission range in meters (baseline 150).
    #[must_use]
    pub fn tr_m(mut self, tr: f64) -> Self {
        self.s.tr = tr;
        self
    }

    /// Arena side length in meters (paper: 1000).
    #[must_use]
    pub fn area_m(mut self, area: f64) -> Self {
        self.s.area = area;
        self
    }

    /// Node speed after configuration in m/s (paper: 20).
    #[must_use]
    pub fn speed_mps(mut self, speed: f64) -> Self {
        self.s.speed = speed;
        self
    }

    /// Mobility model driving configured nodes.
    #[must_use]
    pub fn mobility(mut self, mobility: MobilityConfig) -> Self {
        self.s.mobility = mobility;
        self
    }

    /// Gap between sequential arrivals, in milliseconds.
    #[must_use]
    pub fn arrival_gap_ms(mut self, ms: u64) -> Self {
        self.s.arrival_gap = SimDuration::from_millis(ms);
        self
    }

    /// Settle time after the last arrival, in seconds.
    #[must_use]
    pub fn settle_secs(mut self, secs: u64) -> Self {
        self.s.settle = SimDuration::from_secs(secs);
        self
    }

    /// Fraction of nodes that depart (0 disables departures).
    #[must_use]
    pub fn depart_fraction(mut self, fraction: f64) -> Self {
        self.s.depart_fraction = fraction;
        self
    }

    /// Probability that a departure is abrupt (paper sweeps 5%–50%).
    #[must_use]
    pub fn abrupt_ratio(mut self, ratio: f64) -> Self {
        self.s.abrupt_ratio = ratio;
        self
    }

    /// Departure window length, in seconds.
    #[must_use]
    pub fn depart_window_secs(mut self, secs: u64) -> Self {
        self.s.depart_window = SimDuration::from_secs(secs);
        self
    }

    /// Departure window length, in milliseconds, for compressed
    /// near-simultaneous exoduses.
    #[must_use]
    pub fn depart_window_ms(mut self, ms: u64) -> Self {
        self.s.depart_window = SimDuration::from_millis(ms);
        self
    }

    /// Post-departure cooldown, in seconds.
    #[must_use]
    pub fn cooldown_secs(mut self, secs: u64) -> Self {
        self.s.cooldown = SimDuration::from_secs(secs);
        self
    }

    /// Arrivals scheduled after the departure window.
    #[must_use]
    pub fn post_arrivals(mut self, n: usize) -> Self {
        self.s.post_arrivals = n;
        self
    }

    /// Whether arrivals anchor within radio range of the network.
    #[must_use]
    pub fn connected_arrivals(mut self, connected: bool) -> Self {
        self.s.connected_arrivals = connected;
        self
    }

    /// Per-message delivery loss probability (0 disables).
    #[must_use]
    pub fn loss_rate(mut self, loss: f64) -> Self {
        self.s.loss_rate = loss;
        self
    }

    /// RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.s.seed = seed;
        self
    }

    /// Fault-injection plan applied on top of the workload.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.s.fault_plan = plan;
        self
    }

    /// Enables the flow-span observer.
    #[must_use]
    pub fn observe(mut self, observe: bool) -> Self {
        self.s.observe = observe;
        self
    }

    /// Enables bounded event tracing with this capacity (0 disables).
    #[must_use]
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.s.trace_capacity = capacity;
        self
    }

    /// Validates the accumulated fields and produces the scenario.
    ///
    /// # Errors
    ///
    /// Rejects values outside their meaningful domain: `nn == 0`, `nn`
    /// larger than [`STOCK_SPACE`] (more nodes than addresses cannot all
    /// configure, which every metric downstream assumes), `tr <= 0`,
    /// `area <= 0`, `speed < 0`, `depart_fraction` or `abrupt_ratio` outside
    /// `[0, 1]`, fault-plan crash/attack events naming nodes the
    /// scenario never spawns (those would otherwise sit in the
    /// schedule and silently never fire — or worse, fire against a
    /// later-spawned post-arrival the author never meant to target),
    /// and mobility parameters that cannot shape movement inside the
    /// arena (non-positive Manhattan spacing or spacing wider than the
    /// arena, empty groups, non-positive group/crowd radii, negative
    /// crowd deadlines).
    ///
    /// City-scale storms beyond the stock space's 2^16 addresses run
    /// as many disjoint shard scenarios ([`crate::scale`]).
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let out_of_range = |field: &'static str, value: String, expected: &'static str| {
            Err(ScenarioError::OutOfRange {
                field,
                value,
                expected,
            })
        };
        let s = self.s;
        if s.nn == 0 {
            return out_of_range("nn", s.nn.to_string(), "at least 1");
        }
        if s.nn > STOCK_SPACE.len() as usize {
            return out_of_range(
                "nn",
                s.nn.to_string(),
                "at most the stock space's 65536 addresses",
            );
        }
        let spawned = (s.nn + s.post_arrivals) as u64;
        if let Some(c) = s
            .fault_plan
            .crashes
            .iter()
            .find(|c| c.node.index() >= spawned)
        {
            return out_of_range(
                "fault_plan",
                format!("crash of node {}", c.node.index()),
                "a node the scenario spawns",
            );
        }
        if let Some(a) = s
            .fault_plan
            .attacks
            .iter()
            .find(|a| a.node.index() >= spawned)
        {
            return out_of_range(
                "fault_plan",
                format!("attack role on node {}", a.node.index()),
                "a node the scenario spawns",
            );
        }
        if s.tr.is_nan() || s.tr <= 0.0 {
            return out_of_range("tr_m", s.tr.to_string(), "positive");
        }
        if s.area.is_nan() || s.area <= 0.0 {
            return out_of_range("area_m", s.area.to_string(), "positive");
        }
        if s.speed.is_nan() || s.speed < 0.0 {
            return out_of_range("speed_mps", s.speed.to_string(), "non-negative");
        }
        if !(0.0..=1.0).contains(&s.depart_fraction) {
            return out_of_range(
                "depart_fraction",
                s.depart_fraction.to_string(),
                "within [0, 1]",
            );
        }
        if !(0.0..=1.0).contains(&s.abrupt_ratio) {
            return out_of_range("abrupt_ratio", s.abrupt_ratio.to_string(), "within [0, 1]");
        }
        if !(0.0..=1.0).contains(&s.loss_rate) {
            return out_of_range("loss_rate", s.loss_rate.to_string(), "within [0, 1]");
        }
        if let Err(want) = s.mobility.check() {
            return out_of_range("mobility", s.mobility.to_string(), want);
        }
        if let MobilityConfig::Manhattan { spacing } = s.mobility {
            if spacing > s.area {
                return out_of_range(
                    "mobility",
                    s.mobility.to_string(),
                    "spacing no wider than the arena",
                );
            }
        }
        Ok(s)
    }
}

impl Scenario {
    /// A builder seeded with the paper's default setup.
    #[must_use]
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder {
            s: Scenario::default(),
        }
    }

    /// The world configuration this scenario induces.
    #[must_use]
    pub fn world_config(&self) -> WorldConfig {
        WorldConfig {
            arena: Arena::new(self.area, self.area),
            range: self.tr,
            speed: self.speed,
            mobility: self.mobility,
            loss_rate: self.loss_rate,
            seed: self.seed,
            fault_plan: self.fault_plan.clone(),
            ..WorldConfig::default()
        }
    }

    /// When the last arrival happens.
    #[must_use]
    pub fn arrivals_done(&self) -> SimTime {
        SimTime::ZERO + self.arrival_gap * (self.nn as u64)
    }
}

/// What a scenario run produced, for figure drivers.
#[derive(Debug, Clone)]
pub struct RunMeasurements {
    /// Final metrics snapshot.
    pub metrics: Metrics,
    /// Nodes that departed abruptly during the departure phase.
    pub abrupt_departures: Vec<NodeId>,
    /// Nodes that departed gracefully during the departure phase.
    pub graceful_departures: Vec<NodeId>,
    /// All spawned nodes in arrival order.
    pub nodes: Vec<NodeId>,
}

/// What [`run_scenario`] produced: the finished simulation (for
/// protocol-state inspection) plus the [`RunMeasurements`] the figure
/// drivers consume, behind accessors instead of tuple positions.
pub struct RunReport<P: ProtocolCore> {
    sim: Sim<P>,
    measurements: RunMeasurements,
}

impl<P: ProtocolCore> RunReport<P> {
    /// The finished simulation.
    #[must_use]
    pub fn sim(&self) -> &Sim<P> {
        &self.sim
    }

    /// Mutable access to the finished simulation (topology queries need
    /// `&mut World`).
    pub fn sim_mut(&mut self) -> &mut Sim<P> {
        &mut self.sim
    }

    /// The world at end of run.
    #[must_use]
    pub fn world(&self) -> &World<P::Msg> {
        self.sim.world()
    }

    /// The protocol state at end of run.
    #[must_use]
    pub fn protocol(&self) -> &P {
        self.sim.protocol()
    }

    /// The run's measurements.
    #[must_use]
    pub fn measurements(&self) -> &RunMeasurements {
        &self.measurements
    }

    /// The final metrics snapshot.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.measurements.metrics
    }

    /// Consumes the report, keeping only the measurements (the common
    /// figure-driver shape: metrics in, simulation dropped).
    #[must_use]
    pub fn into_measurements(self) -> RunMeasurements {
        self.measurements
    }
}

/// Runs `protocol` through the scenario: sequential random arrivals, a
/// settling period, then the departure phase, then cooldown.
pub fn run_scenario<P: ProtocolCore>(s: &Scenario, protocol: P) -> RunReport<P> {
    run_scenario_with(s, protocol, |_| {})
}

/// [`run_scenario`] with a setup hook that runs before the first
/// arrival — the place to enable transcript recording or install a
/// shadow transport (the transcript-differential suite runs the same
/// scenario once per backend this way).
pub fn run_scenario_with<P: ProtocolCore>(
    s: &Scenario,
    protocol: P,
    setup: impl FnOnce(&mut Sim<P>),
) -> RunReport<P> {
    drive(s, protocol, setup, |sim, until| {
        sim.run_until(until);
    })
}

/// [`run_scenario_with`] that also hands the world and the protocol
/// state to `after_event` after every event it dispatches: how the
/// oracle-neutrality tests ride the conformance checker on a scenario.
/// The topology snapshot is a pure function of the world's state and
/// quantum, so topology queries cannot change the run.
#[doc(hidden)]
pub fn run_scenario_observed<P: ProtocolCore>(
    s: &Scenario,
    protocol: P,
    setup: impl FnOnce(&mut Sim<P>),
    mut after_event: impl FnMut(&mut World<P::Msg>, &P),
) -> RunReport<P> {
    drive(s, protocol, setup, |sim, until| {
        while sim.step_until(until) {
            let (w, p) = sim.parts_mut();
            after_event(w, p);
        }
    })
}

/// The scenario, with `run_until` advancing the simulation to each of
/// its instants.
fn drive<P: ProtocolCore>(
    s: &Scenario,
    protocol: P,
    setup: impl FnOnce(&mut Sim<P>),
    mut run_until: impl FnMut(&mut Sim<P>, SimTime),
) -> RunReport<P> {
    let mut sim = Sim::new(s.world_config(), protocol);
    if s.observe {
        sim.world_mut().enable_observer();
    }
    if s.trace_capacity > 0 {
        sim.world_mut().enable_trace(s.trace_capacity);
    }
    setup(&mut sim);

    // Sequential arrivals. Positions are drawn when the node powers on,
    // so connected arrivals can anchor to wherever the network is *now*.
    let mut nodes: Vec<NodeId> = Vec::with_capacity(s.nn);
    for i in 0..s.nn {
        let at = SimTime::ZERO + s.arrival_gap * (i as u64);
        run_until(&mut sim, at);
        nodes.push(spawn_arrival(&mut sim, s));
    }

    let settled = s.arrivals_done() + s.settle;
    run_until(&mut sim, settled);

    // Departure phase: a random subset leaves, each graceful or abrupt.
    let departures = ((s.nn as f64) * s.depart_fraction).round() as usize;
    let mut abrupt = Vec::new();
    let mut graceful = Vec::new();
    if departures > 0 {
        let mut order = nodes.clone();
        sim.world_mut().rng_mut().shuffle(&mut order);
        let window_us = s.depart_window.as_micros().max(1);
        for node in order.into_iter().take(departures) {
            let jitter = sim.world_mut().rng_mut().range_u64(0..window_us);
            let at = settled + SimDuration::from_micros(jitter);
            let is_abrupt = sim.world_mut().rng_mut().chance(s.abrupt_ratio);
            sim.schedule_leave(at, node, !is_abrupt);
            if is_abrupt {
                abrupt.push(node);
            } else {
                graceful.push(node);
            }
        }
        let after_departures = settled + s.depart_window;
        for i in 0..s.post_arrivals {
            let at = after_departures + s.arrival_gap * (i as u64 + 1);
            run_until(&mut sim, at);
            spawn_arrival(&mut sim, s);
        }
        run_until(&mut sim, after_departures + s.cooldown);
    }

    let metrics = sim.world().metrics().clone();
    RunReport {
        sim,
        measurements: RunMeasurements {
            metrics,
            abrupt_departures: abrupt,
            graceful_departures: graceful,
            nodes,
        },
    }
}

/// Spawns one arrival: uniform for the first node (or when connected
/// arrivals are disabled), otherwise within radio range of a random
/// alive node.
fn spawn_arrival<P: ProtocolCore>(sim: &mut Sim<P>, s: &Scenario) -> NodeId {
    let arena = sim.world().arena();
    let alive = sim.world().alive_nodes();
    if !s.connected_arrivals || alive.is_empty() {
        return sim.spawn_random();
    }
    // Prefer anchoring next to an already-configured node so the joiner
    // lands inside the network, not beside another stranded joiner.
    let configured: Vec<_> = alive
        .iter()
        .copied()
        .filter(|n| sim.world().is_configured(*n))
        .collect();
    let pool = if configured.is_empty() {
        &alive
    } else {
        &configured
    };
    let anchor = *sim
        .world_mut()
        .rng_mut()
        .choose(pool)
        .expect("pool is non-empty");
    let center = sim.world().position(anchor).expect("anchor is alive");
    let (r, theta) = {
        let rng = sim.world_mut().rng_mut();
        (
            rng.range_f64(0.0..s.tr * 0.9),
            rng.range_f64(0.0..std::f64::consts::TAU),
        )
    };
    let p = arena.clamp(manet_sim::Point::new(
        center.x + r * theta.cos(),
        center.y + r * theta.sin(),
    ));
    sim.spawn_at(p)
}

/// Runs `rounds` independent replications on [`run_jobs`]' worker pool
/// (one worker per CPU), mapping each seed through `f` and collecting
/// the results in seed order.
///
/// # Panics
///
/// Re-raises the first panicking round's message, so a failing round
/// still fails its caller.
pub fn parallel_rounds<T, F>(rounds: u64, base_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    run_jobs(rounds as usize, threads, |i| {
        f(base_seed.wrapping_add(i as u64))
    })
    .into_iter()
    .map(|r| r.unwrap_or_else(|msg| panic!("round panicked: {msg}")))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbac_core::{ProtocolConfig, Qbac};

    #[test]
    fn scenario_runs_and_configures_most_nodes() {
        let s = Scenario::builder()
            .nn(30)
            .settle_secs(5)
            .build()
            .expect("valid scenario");
        let report = run_scenario(&s, Qbac::new(ProtocolConfig::default()));
        assert_eq!(report.measurements().nodes.len(), 30);
        assert!(
            report.metrics().configured_nodes() >= 25,
            "most nodes configured: {}",
            report.metrics().configured_nodes()
        );
    }

    #[test]
    fn departures_split_graceful_abrupt() {
        let s = Scenario::builder()
            .nn(20)
            .depart_fraction(0.5)
            .abrupt_ratio(0.5)
            .settle_secs(5)
            .depart_window_secs(5)
            .cooldown_secs(5)
            .build()
            .expect("valid scenario");
        let m = run_scenario(&s, Qbac::new(ProtocolConfig::default())).into_measurements();
        assert_eq!(m.abrupt_departures.len() + m.graceful_departures.len(), 10);
    }

    #[test]
    fn same_seed_same_measurements() {
        let s = Scenario::builder()
            .nn(15)
            .settle_secs(3)
            .build()
            .expect("valid scenario");
        let a = run_scenario(&s, Qbac::new(ProtocolConfig::default()));
        let b = run_scenario(&s, Qbac::new(ProtocolConfig::default()));
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn builder_rejects_out_of_domain_fields() {
        assert!(Scenario::builder().build().is_ok(), "defaults are valid");
        for (broken, field) in [
            (Scenario::builder().nn(0), "nn"),
            (Scenario::builder().tr_m(0.0), "tr_m"),
            (Scenario::builder().tr_m(-5.0), "tr_m"),
            (Scenario::builder().tr_m(f64::NAN), "tr_m"),
            (Scenario::builder().area_m(-1.0), "area_m"),
            (Scenario::builder().speed_mps(-1.0), "speed_mps"),
            (Scenario::builder().depart_fraction(1.5), "depart_fraction"),
            (Scenario::builder().depart_fraction(-0.1), "depart_fraction"),
            (Scenario::builder().abrupt_ratio(2.0), "abrupt_ratio"),
            (
                Scenario::builder().mobility(MobilityConfig::Manhattan { spacing: 0.0 }),
                "mobility",
            ),
            (
                Scenario::builder().mobility(MobilityConfig::Manhattan { spacing: 5000.0 }),
                "mobility",
            ),
            (
                Scenario::builder().mobility(MobilityConfig::Group {
                    size: 0,
                    radius: 50.0,
                }),
                "mobility",
            ),
            (
                Scenario::builder().mobility(MobilityConfig::Group {
                    size: 4,
                    radius: -1.0,
                }),
                "mobility",
            ),
            (
                Scenario::builder().mobility(MobilityConfig::FlashCrowd {
                    radius: f64::NAN,
                    until_s: 30.0,
                }),
                "mobility",
            ),
            (
                Scenario::builder().mobility(MobilityConfig::FlashCrowd {
                    radius: 80.0,
                    until_s: -3.0,
                }),
                "mobility",
            ),
        ] {
            let err = broken.build().expect_err(field);
            let ScenarioError::OutOfRange { field: got, .. } = err;
            assert_eq!(got, field);
        }
    }

    #[test]
    fn builder_lifts_node_cap_but_requires_pool_capacity() {
        // Every address of the stock space may go to a node.
        let full = Scenario::builder()
            .nn(1 << 16)
            .build()
            .expect("one node per stock address is valid");
        assert_eq!(full.nn, 1 << 16);
        // More nodes than addresses is rejected with an OutOfRange.
        let err = Scenario::builder()
            .nn((1 << 16) + 1)
            .build()
            .expect_err("the 2^16 stock space cannot hold 65537 nodes");
        let ScenarioError::OutOfRange { field, .. } = err;
        assert_eq!(field, "nn");
    }

    #[test]
    fn builder_range_checks_fault_plan_node_references() {
        use manet_sim::AttackKind;

        // In-range references are fine, including post-arrival indices.
        let plan = FaultPlan::default()
            .with_crash(NodeId::new(9), SimTime::from_micros(1_000_000), None)
            .with_attack(
                NodeId::new(11),
                AttackKind::Squat,
                SimTime::from_micros(2_000_000),
            );
        assert!(Scenario::builder()
            .nn(10)
            .post_arrivals(2)
            .fault_plan(plan.clone())
            .build()
            .is_ok());
        // A crash of a node the scenario never spawns is rejected at
        // build time instead of silently never firing.
        let err = Scenario::builder()
            .nn(10)
            .fault_plan(plan)
            .build()
            .expect_err("node 11 is out of range for nn=10");
        let ScenarioError::OutOfRange { field, value, .. } = err;
        assert_eq!(field, "fault_plan");
        assert!(value.contains("11"), "{value}");
    }

    #[test]
    fn builder_setters_map_units() {
        let s = Scenario::builder()
            .tr_m(175.0)
            .area_m(800.0)
            .speed_mps(10.0)
            .arrival_gap_ms(250)
            .settle_secs(7)
            .depart_window_secs(12)
            .cooldown_secs(9)
            .post_arrivals(3)
            .connected_arrivals(false)
            .seed(42)
            .observe(true)
            .trace_capacity(64)
            .build()
            .expect("valid scenario");
        assert_eq!(s.tr, 175.0);
        assert_eq!(s.area, 800.0);
        assert_eq!(s.speed, 10.0);
        assert_eq!(s.arrival_gap, SimDuration::from_millis(250));
        assert_eq!(s.settle, SimDuration::from_secs(7));
        assert_eq!(s.depart_window, SimDuration::from_secs(12));
        assert_eq!(s.cooldown, SimDuration::from_secs(9));
        assert_eq!(s.post_arrivals, 3);
        assert!(!s.connected_arrivals);
        assert_eq!(s.seed, 42);
        assert!(s.observe);
        assert_eq!(s.trace_capacity, 64);
    }

    #[test]
    fn mobility_flows_through_to_world_config() {
        let m = MobilityConfig::Group {
            size: 4,
            radius: 50.0,
        };
        let s = Scenario::builder()
            .mobility(m)
            .build()
            .expect("valid mobility");
        assert_eq!(s.mobility, m);
        assert_eq!(s.world_config().mobility, m);
        // Every canned spec builds a runnable scenario.
        for spec in [
            "random-waypoint",
            "manhattan:100",
            "group:4,50",
            "flash-crowd:80,30",
        ] {
            let cfg = MobilityConfig::parse(spec).expect("spec parses");
            assert!(Scenario::builder().mobility(cfg).build().is_ok(), "{spec}");
        }
    }

    #[test]
    fn scenario_error_displays_field_and_domain() {
        let err = Scenario::builder()
            .depart_fraction(7.0)
            .build()
            .unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("depart_fraction") && text.contains("[0, 1]"),
            "{text}"
        );
    }

    #[test]
    fn parallel_rounds_preserve_order_and_count() {
        let vals = parallel_rounds(8, 100, |seed| seed * 2);
        assert_eq!(vals, vec![200, 202, 204, 206, 208, 210, 212, 214]);
    }

    #[test]
    fn parallel_rounds_zero_is_empty_without_workers() {
        let calls = std::sync::atomic::AtomicU64::new(0);
        let vals = parallel_rounds(0, 100, |seed| {
            calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            seed
        });
        assert!(vals.is_empty());
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    #[test]
    fn parallel_rounds_single_round() {
        assert_eq!(parallel_rounds(1, 7, |seed| seed + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "round panicked: seed 102")]
    fn parallel_rounds_re_raise_a_failing_round() {
        let _ = parallel_rounds(4, 100, |seed| assert!(seed != 102, "seed {seed}"));
    }
}
