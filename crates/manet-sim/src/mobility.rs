//! Pluggable node mobility.
//!
//! The paper's setup (§VI-A): "nodes moving to a random destination at the
//! speed of 20 m/s after its configuration with the network". A node is
//! stationary until the protocol marks it configured, then moves according
//! to the world's [`MobilityModel`] (zero pause time between legs).
//!
//! Four models ship with the simulator, selected by [`MobilityConfig`]:
//!
//! * **random-waypoint** (the paper's default): uniform random destination
//!   anywhere in the arena, straight line at cruise speed.
//! * **manhattan** (`manhattan:SPACING`): movement constrained to a street
//!   grid with `SPACING` meters between streets; every leg travels to an
//!   adjacent intersection, never leaving the arena.
//! * **group** (`group:SIZE,RADIUS`): reference-point group mobility —
//!   nodes are partitioned into groups of `SIZE` by node id; each group's
//!   reference point does random waypoint, and members pick destinations
//!   within `RADIUS` meters of where the reference point is heading.
//! * **flash-crowd** (`flash-crowd:RADIUS,UNTIL`): a flash-crowd join —
//!   until `UNTIL` seconds every leg converges on a hotspot at the arena
//!   center (within `RADIUS` meters), after which the crowd disperses
//!   into random waypoint.
//!
//! All models draw only from seeded [`SimRng`] state, so runs remain
//! bit-identical for a fixed `(WorldConfig, scenario)`. The default
//! random-waypoint model consumes exactly the same RNG stream as the
//! pre-pluggable simulator, keeping historical trace fingerprints valid.

use crate::{Arena, NodeId, Point, SimRng, SimTime};
use proto_io::IdMap;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-node mobility state: either parked, or en route to a waypoint.
///
/// Positions are interpolated lazily — [`MobilityState::position`] is exact
/// for any query time between the leg's start and arrival.
///
/// # Example
///
/// ```
/// use manet_sim::mobility::MobilityState;
/// use manet_sim::{Point, SimDuration, SimTime};
///
/// let mut m = MobilityState::parked(Point::new(0.0, 0.0));
/// let t0 = SimTime::ZERO;
/// m.set_leg(t0, Point::new(0.0, 0.0), Point::new(100.0, 0.0), 10.0);
/// let mid = t0 + SimDuration::from_secs(5);
/// assert_eq!(m.position(mid).x, 50.0);
/// assert_eq!(m.arrival(), Some(t0 + SimDuration::from_secs(10)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MobilityState {
    origin: Point,
    depart: SimTime,
    dest: Point,
    arrival: Option<SimTime>,
    speed: f64,
}

impl MobilityState {
    /// A stationary node at `at`.
    #[must_use]
    pub fn parked(at: Point) -> Self {
        MobilityState {
            origin: at,
            depart: SimTime::ZERO,
            dest: at,
            arrival: None,
            speed: 0.0,
        }
    }

    /// Starts a leg from `from` to `to` at `speed` m/s, departing `now`.
    /// A zero or negative speed parks the node at `from` instead.
    pub fn set_leg(&mut self, now: SimTime, from: Point, to: Point, speed: f64) {
        if speed <= 0.0 {
            *self = MobilityState::parked(from);
            return;
        }
        let dist = from.distance(to);
        let travel = crate::SimDuration::from_secs_f64(dist / speed);
        self.origin = from;
        self.depart = now;
        self.dest = to;
        self.speed = speed;
        self.arrival = Some(now + travel);
    }

    /// Parks the node at its position as of `now`.
    pub fn park(&mut self, now: SimTime) {
        let here = self.position(now);
        *self = MobilityState::parked(here);
    }

    /// The node's exact position at `at`.
    #[must_use]
    pub fn position(&self, at: SimTime) -> Point {
        match self.arrival {
            None => self.origin,
            Some(arrival) => {
                if at >= arrival {
                    self.dest
                } else if at <= self.depart {
                    self.origin
                } else {
                    let total = (arrival - self.depart).as_secs_f64();
                    let gone = (at - self.depart).as_secs_f64();
                    self.origin.lerp(self.dest, gone / total)
                }
            }
        }
    }

    /// When the node reaches its current waypoint, if moving.
    #[must_use]
    pub fn arrival(&self) -> Option<SimTime> {
        self.arrival
    }

    /// Returns `true` if the node is currently en route.
    #[must_use]
    pub fn is_moving(&self) -> bool {
        self.arrival.is_some()
    }

    /// Current speed in m/s (zero when parked).
    #[must_use]
    pub fn speed(&self) -> f64 {
        if self.is_moving() {
            self.speed
        } else {
            0.0
        }
    }

    /// Picks the next random waypoint: starts a new leg from the current
    /// position to a uniform random point in the arena.
    pub fn retarget(&mut self, now: SimTime, arena: &Arena, speed: f64, rng: &mut SimRng) {
        let here = self.position(now);
        let dest = rng.point_in(arena);
        self.set_leg(now, here, dest, speed);
    }
}

/// Everything a [`MobilityModel`] may consult when picking a node's
/// next leg.
#[derive(Debug, Clone, Copy)]
pub struct RetargetCtx<'a> {
    /// The node being retargeted.
    pub node: NodeId,
    /// Current virtual time.
    pub now: SimTime,
    /// The node's exact current position.
    pub here: Point,
    /// The simulation area.
    pub arena: &'a Arena,
    /// The world's configured cruise speed (m/s, always positive when a
    /// model is consulted).
    pub speed: f64,
}

/// A movement policy: given a node that just became configured or
/// reached its waypoint, pick the destination and speed of its next leg.
///
/// Implementations must be deterministic functions of their own state
/// and the provided RNG — the simulator owns when and for whom a leg is
/// requested. Destinations outside the arena are clamped by the caller.
pub trait MobilityModel: fmt::Debug + Send {
    /// Picks the next leg as `(destination, speed_mps)`. A non-positive
    /// speed parks the node.
    fn next_leg(&mut self, ctx: &RetargetCtx<'_>, rng: &mut SimRng) -> (Point, f64);
}

/// The paper's §VI-A model: uniform random destination in the arena at
/// cruise speed. Draws exactly one arena point per leg, preserving the
/// RNG stream of the original hardwired implementation.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomWaypoint;

impl MobilityModel for RandomWaypoint {
    fn next_leg(&mut self, ctx: &RetargetCtx<'_>, rng: &mut SimRng) -> (Point, f64) {
        (rng.point_in(ctx.arena), ctx.speed)
    }
}

/// Manhattan-grid mobility: streets every `spacing` meters in both axes;
/// a leg moves to the nearest intersection first, then street by street
/// to a uniformly chosen adjacent intersection.
#[derive(Debug, Clone, Copy)]
pub struct ManhattanGrid {
    spacing: f64,
}

impl ManhattanGrid {
    /// A grid with `spacing` meters between adjacent streets.
    ///
    /// # Panics
    ///
    /// Panics if `spacing` is not strictly positive and finite.
    #[must_use]
    pub fn new(spacing: f64) -> Self {
        assert!(
            spacing > 0.0 && spacing.is_finite(),
            "street spacing must be positive and finite"
        );
        ManhattanGrid { spacing }
    }

    /// Nearest street intersection, clamped into the arena.
    fn snap(&self, p: Point, arena: &Arena) -> Point {
        arena.clamp(Point::new(
            (p.x / self.spacing).round() * self.spacing,
            (p.y / self.spacing).round() * self.spacing,
        ))
    }
}

impl MobilityModel for ManhattanGrid {
    fn next_leg(&mut self, ctx: &RetargetCtx<'_>, rng: &mut SimRng) -> (Point, f64) {
        let at = self.snap(ctx.here, ctx.arena);
        // Off the grid (initial placement): first walk to the nearest
        // intersection.
        if ctx.here.distance(at) > 1e-9 {
            return (at, ctx.speed);
        }
        // On an intersection: step to a uniformly chosen in-arena
        // neighbor. Both axes always have at least one valid direction
        // because the arena is wider than one spacing or the clamp
        // degenerates the move to staying put (filtered below).
        let candidates: Vec<Point> = [
            Point::new(at.x + self.spacing, at.y),
            Point::new(at.x - self.spacing, at.y),
            Point::new(at.x, at.y + self.spacing),
            Point::new(at.x, at.y - self.spacing),
        ]
        .into_iter()
        .filter(|p| ctx.arena.contains(*p))
        .collect();
        match rng.choose(&candidates) {
            Some(dest) => (*dest, ctx.speed),
            None => (at, 0.0), // arena smaller than one street block
        }
    }
}

/// Reference-point group mobility: groups of `size` consecutive node ids
/// share a reference point that itself does random waypoint; members
/// head to points within `radius` meters of the reference destination.
///
/// Group reference trajectories draw from per-group RNGs derived from
/// the model seed, so a member's leg depends only on `(seed, group,
/// time)` — never on scheduling order across groups.
#[derive(Debug)]
pub struct GroupMobility {
    size: u64,
    radius: f64,
    seed: u64,
    groups: IdMap<u64, GroupState>,
}

#[derive(Debug)]
struct GroupState {
    rng: SimRng,
    reference: MobilityState,
}

impl GroupMobility {
    /// Groups of `size` nodes scattering at most `radius` meters around
    /// their reference point, seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or `radius` is not positive and finite.
    #[must_use]
    pub fn new(size: u64, radius: f64, seed: u64) -> Self {
        assert!(size > 0, "group size must be at least 1");
        assert!(
            radius > 0.0 && radius.is_finite(),
            "group radius must be positive and finite"
        );
        GroupMobility {
            size,
            radius,
            seed,
            groups: IdMap::default(),
        }
    }
}

impl MobilityModel for GroupMobility {
    fn next_leg(&mut self, ctx: &RetargetCtx<'_>, _rng: &mut SimRng) -> (Point, f64) {
        let group = ctx.node.index() / self.size;
        let state = self.groups.entry(group).or_insert_with(|| GroupState {
            rng: SimRng::seed_from(self.seed ^ (group + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            reference: MobilityState::parked(ctx.here),
        });
        // Advance the group's reference point if it reached its waypoint.
        if state.reference.arrival().is_none_or(|a| a <= ctx.now) {
            let here = state.reference.position(ctx.now);
            let dest = state.rng.point_in(ctx.arena);
            state.reference.set_leg(ctx.now, here, dest, ctx.speed);
        }
        let target = state.reference.arrival().map_or_else(
            || state.reference.position(ctx.now),
            |a| state.reference.position(a),
        );
        let dest = point_in_disk(target, self.radius, &mut state.rng);
        (ctx.arena.clamp(dest), ctx.speed)
    }
}

/// Flash-crowd join: until `until`, every leg converges on a hotspot at
/// the arena center (within `radius` meters); afterwards the crowd
/// disperses into plain random waypoint.
#[derive(Debug, Clone, Copy)]
pub struct FlashCrowd {
    radius: f64,
    until: SimTime,
}

impl FlashCrowd {
    /// A crowd gathering within `radius` meters of the arena center
    /// until `until`.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not positive and finite.
    #[must_use]
    pub fn new(radius: f64, until: SimTime) -> Self {
        assert!(
            radius > 0.0 && radius.is_finite(),
            "crowd radius must be positive and finite"
        );
        FlashCrowd { radius, until }
    }
}

impl MobilityModel for FlashCrowd {
    fn next_leg(&mut self, ctx: &RetargetCtx<'_>, rng: &mut SimRng) -> (Point, f64) {
        if ctx.now < self.until {
            let center = Point::new(ctx.arena.width() / 2.0, ctx.arena.height() / 2.0);
            let dest = point_in_disk(center, self.radius, rng);
            (ctx.arena.clamp(dest), ctx.speed)
        } else {
            (rng.point_in(ctx.arena), ctx.speed)
        }
    }
}

/// Uniform random point in the disk of `radius` around `center`.
fn point_in_disk(center: Point, radius: f64, rng: &mut SimRng) -> Point {
    let theta = rng.range_f64(0.0..std::f64::consts::TAU);
    let r = radius * rng.range_f64(0.0..1.0).sqrt();
    Point::new(center.x + r * theta.cos(), center.y + r * theta.sin())
}

/// Serializable description of a mobility model, carried by
/// [`WorldConfig`](crate::WorldConfig) and scenario artifacts. Parses
/// from and renders to a canonical one-token text form (the `to_text` /
/// `parse` fixed point the replay artifacts rely on):
///
/// * `random-waypoint`
/// * `manhattan:SPACING` (meters)
/// * `group:SIZE,RADIUS` (nodes per group, meters)
/// * `flash-crowd:RADIUS,UNTIL` (meters, seconds)
///
/// # Example
///
/// ```
/// use manet_sim::mobility::MobilityConfig;
///
/// let m = MobilityConfig::parse("manhattan:120").unwrap();
/// assert_eq!(m, MobilityConfig::Manhattan { spacing: 120.0 });
/// assert_eq!(m.to_string(), "manhattan:120");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum MobilityConfig {
    /// The paper's uniform random-waypoint model (the default).
    #[default]
    RandomWaypoint,
    /// Manhattan street grid with the given street spacing in meters.
    Manhattan {
        /// Meters between adjacent streets.
        spacing: f64,
    },
    /// Reference-point group mobility.
    Group {
        /// Nodes per group (by consecutive node id).
        size: u64,
        /// Maximum member distance from the group reference point, m.
        radius: f64,
    },
    /// Flash-crowd join converging on the arena center.
    FlashCrowd {
        /// Crowd radius around the hotspot, meters.
        radius: f64,
        /// Gathering ends at this many seconds of virtual time.
        until_s: f64,
    },
}

impl MobilityConfig {
    /// Instantiates the model. `seed` feeds models that keep internal
    /// RNG state (group reference trajectories); stateless models ignore
    /// it and draw from the world's main stream.
    #[must_use]
    pub fn build(&self, seed: u64) -> Box<dyn MobilityModel> {
        match *self {
            MobilityConfig::RandomWaypoint => Box::new(RandomWaypoint),
            MobilityConfig::Manhattan { spacing } => Box::new(ManhattanGrid::new(spacing)),
            MobilityConfig::Group { size, radius } => {
                Box::new(GroupMobility::new(size, radius, seed))
            }
            MobilityConfig::FlashCrowd { radius, until_s } => Box::new(FlashCrowd::new(
                radius,
                SimTime::ZERO + crate::SimDuration::from_secs_f64(until_s),
            )),
        }
    }

    /// Model keyword without parameters (`random-waypoint`, `manhattan`,
    /// `group`, `flash-crowd`).
    #[must_use]
    pub fn keyword(&self) -> &'static str {
        match self {
            MobilityConfig::RandomWaypoint => "random-waypoint",
            MobilityConfig::Manhattan { .. } => "manhattan",
            MobilityConfig::Group { .. } => "group",
            MobilityConfig::FlashCrowd { .. } => "flash-crowd",
        }
    }

    /// Checks the parameters a model needs whatever the arena: a
    /// positive finite street spacing, a non-empty group, a positive
    /// finite radius and a non-negative finite gather deadline.
    ///
    /// # Errors
    ///
    /// The domain the first offending parameter must lie in, e.g.
    /// `"positive spacing"`.
    pub fn check(&self) -> Result<(), &'static str> {
        let positive = |x: f64| x > 0.0 && x.is_finite();
        match *self {
            MobilityConfig::Manhattan { spacing } if !positive(spacing) => Err("positive spacing"),
            MobilityConfig::Group { size: 0, .. } => Err("a non-empty group"),
            MobilityConfig::Group { radius, .. } | MobilityConfig::FlashCrowd { radius, .. }
                if !positive(radius) =>
            {
                Err("positive radius")
            }
            MobilityConfig::FlashCrowd { until_s, .. }
                if !(until_s >= 0.0 && until_s.is_finite()) =>
            {
                Err("a non-negative gather deadline")
            }
            _ => Ok(()),
        }
    }

    /// Parses the canonical text form (see the type docs for the
    /// grammar). Parameters may be omitted for model defaults:
    /// `manhattan` = `manhattan:100`, `group` = `group:4,50`,
    /// `flash-crowd` = `flash-crowd:80,30`.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed token, or of the
    /// parameter [`check`](Self::check) rejects.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (name, params) = match text.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (text, None),
        };
        let nums = |p: &str, want: usize| -> Result<Vec<f64>, String> {
            let vals: Result<Vec<f64>, _> = p.split(',').map(str::parse::<f64>).collect();
            let vals = vals.map_err(|e| format!("bad mobility parameter in `{text}`: {e}"))?;
            if vals.len() != want {
                return Err(format!(
                    "mobility model `{name}` takes {want} parameter(s), got {}",
                    vals.len()
                ));
            }
            Ok(vals)
        };
        let cfg = match (name, params) {
            ("random-waypoint" | "rwp", None) => Ok(MobilityConfig::RandomWaypoint),
            ("random-waypoint" | "rwp", Some(_)) => {
                Err("random-waypoint takes no parameters".into())
            }
            ("manhattan", None) => Ok(MobilityConfig::Manhattan { spacing: 100.0 }),
            ("manhattan", Some(p)) => {
                let v = nums(p, 1)?;
                Ok(MobilityConfig::Manhattan { spacing: v[0] })
            }
            ("group", None) => Ok(MobilityConfig::Group {
                size: 4,
                radius: 50.0,
            }),
            ("group", Some(p)) => {
                let v = nums(p, 2)?;
                if v[0] < 1.0 || v[0].fract() != 0.0 {
                    return Err(format!(
                        "group size must be a positive integer, got {}",
                        v[0]
                    ));
                }
                Ok(MobilityConfig::Group {
                    size: v[0] as u64,
                    radius: v[1],
                })
            }
            ("flash-crowd", None) => Ok(MobilityConfig::FlashCrowd {
                radius: 80.0,
                until_s: 30.0,
            }),
            ("flash-crowd", Some(p)) => {
                let v = nums(p, 2)?;
                Ok(MobilityConfig::FlashCrowd {
                    radius: v[0],
                    until_s: v[1],
                })
            }
            _ => Err(format!(
                "unknown mobility model `{name}` (expected random-waypoint, \
                 manhattan, group, or flash-crowd)"
            )),
        }?;
        cfg.check()
            .map_err(|want| format!("mobility `{text}` must have {want}"))?;
        Ok(cfg)
    }
}

impl fmt::Display for MobilityConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MobilityConfig::RandomWaypoint => f.write_str("random-waypoint"),
            MobilityConfig::Manhattan { spacing } => write!(f, "manhattan:{spacing}"),
            MobilityConfig::Group { size, radius } => write!(f, "group:{size},{radius}"),
            MobilityConfig::FlashCrowd { radius, until_s } => {
                write!(f, "flash-crowd:{radius},{until_s}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    #[test]
    fn parked_never_moves() {
        let m = MobilityState::parked(Point::new(5.0, 5.0));
        assert!(!m.is_moving());
        assert_eq!(m.speed(), 0.0);
        assert_eq!(
            m.position(SimTime::from_micros(u64::MAX)),
            Point::new(5.0, 5.0)
        );
    }

    #[test]
    fn linear_interpolation() {
        let mut m = MobilityState::parked(Point::new(0.0, 0.0));
        m.set_leg(
            SimTime::ZERO,
            Point::new(0.0, 0.0),
            Point::new(0.0, 100.0),
            20.0,
        );
        assert!(m.is_moving());
        assert_eq!(m.speed(), 20.0);
        let quarter = SimTime::ZERO + SimDuration::from_millis(1250);
        let p = m.position(quarter);
        assert!((p.y - 25.0).abs() < 1e-6);
        assert_eq!(m.arrival(), Some(SimTime::ZERO + SimDuration::from_secs(5)));
    }

    #[test]
    fn position_clamps_outside_leg() {
        let mut m = MobilityState::parked(Point::new(0.0, 0.0));
        let t0 = SimTime::from_micros(1_000_000);
        m.set_leg(t0, Point::new(10.0, 0.0), Point::new(20.0, 0.0), 10.0);
        // Before departure → origin; after arrival → destination.
        assert_eq!(m.position(SimTime::ZERO), Point::new(10.0, 0.0));
        assert_eq!(
            m.position(t0 + SimDuration::from_secs(100)),
            Point::new(20.0, 0.0)
        );
    }

    #[test]
    fn zero_speed_parks() {
        let mut m = MobilityState::parked(Point::new(0.0, 0.0));
        m.set_leg(
            SimTime::ZERO,
            Point::new(3.0, 3.0),
            Point::new(50.0, 50.0),
            0.0,
        );
        assert!(!m.is_moving());
        assert_eq!(m.position(SimTime::from_micros(10)), Point::new(3.0, 3.0));
    }

    #[test]
    fn park_freezes_current_position() {
        let mut m = MobilityState::parked(Point::new(0.0, 0.0));
        m.set_leg(
            SimTime::ZERO,
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            10.0,
        );
        let mid = SimTime::ZERO + SimDuration::from_secs(5);
        m.park(mid);
        assert!(!m.is_moving());
        assert_eq!(m.position(mid + SimDuration::from_secs(60)).x, 50.0);
    }

    #[test]
    fn retarget_stays_in_arena() {
        let arena = Arena::new(200.0, 200.0);
        let mut rng = SimRng::seed_from(1);
        let mut m = MobilityState::parked(Point::new(100.0, 100.0));
        for step in 0..20 {
            let now = SimTime::from_micros(step * 1_000_000);
            m.retarget(now, &arena, 20.0, &mut rng);
            let arrival = m.arrival().unwrap_or(now);
            assert!(arena.contains(m.position(arrival)));
        }
    }

    #[test]
    fn zero_distance_leg_arrives_immediately() {
        let mut m = MobilityState::parked(Point::new(1.0, 1.0));
        m.set_leg(
            SimTime::ZERO,
            Point::new(1.0, 1.0),
            Point::new(1.0, 1.0),
            20.0,
        );
        assert_eq!(m.arrival(), Some(SimTime::ZERO));
        assert_eq!(m.position(SimTime::from_micros(1)), Point::new(1.0, 1.0));
    }

    #[test]
    fn random_waypoint_matches_legacy_rng_stream() {
        // The pluggable default must consume the exact draws the old
        // hardwired `retarget` did: one `point_in` per leg.
        let arena = Arena::new(500.0, 500.0);
        let mut legacy = SimRng::seed_from(42);
        let mut current = SimRng::seed_from(42);
        let mut model = RandomWaypoint;
        for step in 0..16 {
            let expected = legacy.point_in(&arena);
            let ctx = RetargetCtx {
                node: NodeId::new(0),
                now: SimTime::from_micros(step * 1_000_000),
                here: Point::new(250.0, 250.0),
                arena: &arena,
                speed: 20.0,
            };
            let (dest, speed) = model.next_leg(&ctx, &mut current);
            assert_eq!(dest, expected);
            assert_eq!(speed, 20.0);
        }
    }

    #[test]
    fn manhattan_moves_along_streets() {
        let arena = Arena::new(1000.0, 1000.0);
        let mut model = ManhattanGrid::new(100.0);
        let mut rng = SimRng::seed_from(7);
        // Off-grid start: first leg snaps to the nearest intersection.
        let ctx = RetargetCtx {
            node: NodeId::new(0),
            now: SimTime::ZERO,
            here: Point::new(133.0, 449.0),
            arena: &arena,
            speed: 20.0,
        };
        let (dest, _) = model.next_leg(&ctx, &mut rng);
        assert_eq!(dest, Point::new(100.0, 400.0));
        // From an intersection: each leg changes exactly one axis by
        // one spacing and stays in the arena.
        let mut here = dest;
        for step in 1..200u64 {
            let ctx = RetargetCtx {
                node: NodeId::new(0),
                now: SimTime::from_micros(step * 1_000_000),
                here,
                arena: &arena,
                speed: 20.0,
            };
            let (next, _) = model.next_leg(&ctx, &mut rng);
            let (dx, dy) = ((next.x - here.x).abs(), (next.y - here.y).abs());
            assert!(
                (dx == 100.0 && dy == 0.0) || (dx == 0.0 && dy == 100.0),
                "non-street move {here} -> {next}"
            );
            assert!(arena.contains(next));
            here = next;
        }
    }

    #[test]
    fn group_members_cluster_near_reference() {
        let arena = Arena::new(1000.0, 1000.0);
        let mut model = GroupMobility::new(4, 50.0, 9);
        let mut rng = SimRng::seed_from(1);
        // Two members of group 0 must target points within one disk
        // diameter of each other (same reference destination).
        let mut dests = Vec::new();
        for id in 0..2u64 {
            let ctx = RetargetCtx {
                node: NodeId::new(id),
                now: SimTime::ZERO,
                here: Point::new(500.0, 500.0),
                arena: &arena,
                speed: 20.0,
            };
            dests.push(model.next_leg(&ctx, &mut rng).0);
        }
        assert!(dests[0].distance(dests[1]) <= 100.0 + 1e-9);
    }

    #[test]
    fn flash_crowd_gathers_then_disperses() {
        let arena = Arena::new(1000.0, 1000.0);
        let until = SimTime::ZERO + SimDuration::from_secs(30);
        let mut model = FlashCrowd::new(80.0, until);
        let mut rng = SimRng::seed_from(3);
        let center = Point::new(500.0, 500.0);
        let ctx = RetargetCtx {
            node: NodeId::new(0),
            now: SimTime::ZERO,
            here: Point::new(10.0, 10.0),
            arena: &arena,
            speed: 20.0,
        };
        let (gather, _) = model.next_leg(&ctx, &mut rng);
        assert!(gather.distance(center) <= 80.0 + 1e-9);
        let late = RetargetCtx {
            now: until + SimDuration::from_secs(1),
            ..ctx
        };
        // After the gathering window the model is plain random waypoint;
        // over many draws some destination must leave the hotspot disk.
        let dispersed = (0..64).any(|_| {
            let (d, _) = model.next_leg(&late, &mut rng);
            d.distance(center) > 80.0
        });
        assert!(dispersed);
    }

    #[test]
    fn mobility_config_text_round_trip() {
        for text in [
            "random-waypoint",
            "manhattan:100",
            "manhattan:62.5",
            "group:4,50",
            "group:12,75.5",
            "flash-crowd:80,30",
            "flash-crowd:60.25,12.5",
        ] {
            let cfg = MobilityConfig::parse(text).unwrap();
            assert_eq!(cfg.to_string(), text);
            assert_eq!(MobilityConfig::parse(&cfg.to_string()).unwrap(), cfg);
        }
    }

    #[test]
    fn mobility_config_defaults_and_errors() {
        assert_eq!(
            MobilityConfig::parse("manhattan").unwrap(),
            MobilityConfig::Manhattan { spacing: 100.0 }
        );
        assert_eq!(
            MobilityConfig::parse("group").unwrap(),
            MobilityConfig::Group {
                size: 4,
                radius: 50.0
            }
        );
        assert_eq!(
            MobilityConfig::parse("flash-crowd").unwrap(),
            MobilityConfig::FlashCrowd {
                radius: 80.0,
                until_s: 30.0
            }
        );
        assert_eq!(
            MobilityConfig::parse("rwp").unwrap(),
            MobilityConfig::RandomWaypoint
        );
        assert!(MobilityConfig::parse("teleport").is_err());
        assert!(MobilityConfig::parse("manhattan:a").is_err());
        assert!(MobilityConfig::parse("group:0,50").is_err());
        assert!(MobilityConfig::parse("group:1.5,50").is_err());
        assert!(MobilityConfig::parse("flash-crowd:80").is_err());
        assert!(MobilityConfig::parse("random-waypoint:1").is_err());
    }

    /// A spec whose numbers parse but would build a model that panics
    /// is an error, naming what the model needs.
    #[test]
    fn parse_rejects_out_of_domain_parameters() {
        for (text, want) in [
            ("manhattan:0", "positive spacing"),
            ("manhattan:-5", "positive spacing"),
            ("manhattan:NaN", "positive spacing"),
            ("manhattan:inf", "positive spacing"),
            ("group:4,NaN", "positive radius"),
            ("group:4,0", "positive radius"),
            ("flash-crowd:0,30", "positive radius"),
            ("flash-crowd:80,-1", "a non-negative gather deadline"),
            ("flash-crowd:80,NaN", "a non-negative gather deadline"),
        ] {
            let err = MobilityConfig::parse(text).expect_err(text);
            assert_eq!(err, format!("mobility `{text}` must have {want}"));
        }
        assert_eq!(
            MobilityConfig::Group {
                size: 0,
                radius: 50.0
            }
            .check(),
            Err("a non-empty group")
        );
        assert_eq!(
            MobilityConfig::parse("flash-crowd:80,0").unwrap().check(),
            Ok(())
        );
    }
}
