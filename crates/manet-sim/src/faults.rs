//! Deterministic fault injection for simulation runs.
//!
//! A [`FaultPlan`] is a declarative, seeded description of everything
//! that should go wrong during a run: probabilistic per-link message
//! drops, delays and duplications (optionally scoped to one traffic
//! [`MsgCategory`]), scheduled node crashes with optional restarts,
//! targeted cluster-head kill schedules, rectangular jamming regions,
//! and scripted partition/heal events.
//!
//! The plan is applied at the simulator's per-recipient delivery choke
//! point, which every unicast, bounded flood and global flood of a world
//! with a plan passes through (only a world without one queues a send's
//! hop levels directly). An
//! empty plan costs nothing: the fault state is not even allocated and
//! the main RNG stream is untouched, so runs stay bit-identical with
//! pre-fault-plane builds. A non-empty plan draws from its *own* seeded
//! RNG, which means `(WorldConfig, FaultPlan, scenario)` reproduces a
//! chaotic run exactly.
//!
//! # Example
//!
//! ```
//! use manet_sim::faults::FaultPlan;
//! use manet_sim::{NodeId, SimTime, WorldConfig};
//!
//! let plan = FaultPlan::new(7)
//!     .with_loss(0.2)
//!     .with_crash(NodeId::new(3), SimTime::from_micros(5_000_000), None);
//! let config = WorldConfig { fault_plan: plan, ..WorldConfig::default() };
//! assert!(!config.fault_plan.is_empty());
//! ```

use crate::{MsgCategory, NodeId, Point, SimDuration, SimRng, SimTime};

pub use proto_io::DropCause;

/// The longest extra delay one delay fault draws: one simulated hour.
/// [`FaultPlan::parse`] refuses a bound above it and the draw clamps
/// both bounds to it, so neither the draw's span nor the delivery
/// instant it pushes out can wrap.
pub const MAX_DELAY: SimDuration = SimDuration::from_secs(3600);

/// A probabilistic delay applied to matching deliveries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayFault {
    /// Probability a matching delivery is delayed.
    pub prob: f64,
    /// Smallest extra delay.
    pub min: SimDuration,
    /// Largest extra delay (inclusive).
    pub max: SimDuration,
}

/// Per-link message fault: drop, delay, and duplication probabilities,
/// optionally restricted to one traffic category.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFault {
    /// Apply only to this category (`None` = every category).
    pub category: Option<MsgCategory>,
    /// Probability a matching delivery silently vanishes.
    pub drop: f64,
    /// Optional extra-latency injection.
    pub delay: Option<DelayFault>,
    /// Probability a matching delivery arrives twice.
    pub duplicate: f64,
}

impl LinkFault {
    /// A fault that does nothing (useful as a starting point).
    #[must_use]
    pub fn none() -> Self {
        LinkFault {
            category: None,
            drop: 0.0,
            delay: None,
            duplicate: 0.0,
        }
    }

    fn matches(&self, category: MsgCategory) -> bool {
        self.category.is_none_or(|c| c == category)
    }
}

/// A scheduled abrupt node crash, with an optional later restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The node to kill.
    pub node: NodeId,
    /// When it dies (abruptly — no departure handshake).
    pub at: SimTime,
    /// When it comes back as a fresh, unconfigured joiner (`None` =
    /// never).
    pub restart_at: Option<SimTime>,
}

/// A scheduled kill of `count` currently-serving cluster heads, chosen
/// uniformly by the fault RNG among the heads alive at `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadKillEvent {
    /// When the kill fires.
    pub at: SimTime,
    /// How many heads die (fewer if fewer exist).
    pub count: u32,
}

/// A rectangular region in which radio reception fails during a time
/// window: any delivery whose sender or receiver stands inside an
/// active region is dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JamRegion {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
    /// Jamming starts (inclusive).
    pub from: SimTime,
    /// Jamming ends (exclusive).
    pub until: SimTime,
}

impl JamRegion {
    fn active(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }

    fn covers(&self, p: Point) -> bool {
        self.min.x <= p.x && p.x <= self.max.x && self.min.y <= p.y && p.y <= self.max.y
    }
}

/// A scripted network partition: while active, deliveries crossing the
/// vertical line `x = boundary_x` are dropped, splitting the arena into
/// two halves that heal at `heal`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionEvent {
    /// The dividing vertical line.
    pub boundary_x: f64,
    /// Partition starts (inclusive).
    pub start: SimTime,
    /// Partition heals (exclusive).
    pub heal: SimTime,
}

impl PartitionEvent {
    fn active(&self, now: SimTime) -> bool {
        self.start <= now && now < self.heal
    }

    fn separates(&self, a: Point, b: Point) -> bool {
        (a.x < self.boundary_x) != (b.x < self.boundary_x)
    }
}

pub use proto_io::AttackKind;

/// One attacker node assignment: `node` runs `kind` from `start` until
/// the end of the run (it behaves honestly before `start`, which lets
/// it join and acquire state like any other member first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackRole {
    /// The node that turns Byzantine.
    pub node: NodeId,
    /// Which attack it runs.
    pub kind: AttackKind,
    /// When the attack activates (inclusive).
    pub start: SimTime,
}

/// A seeded, fully deterministic fault-injection plan.
///
/// Build one with the `with_*` combinators or parse the text form with
/// [`FaultPlan::parse`]. Attach it via
/// [`WorldConfig::fault_plan`](crate::WorldConfig::fault_plan).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Probabilistic per-delivery faults.
    pub link_faults: Vec<LinkFault>,
    /// Scheduled crashes (and optional restarts).
    pub crashes: Vec<CrashEvent>,
    /// Scheduled cluster-head kills.
    pub head_kills: Vec<HeadKillEvent>,
    /// Jamming regions.
    pub jams: Vec<JamRegion>,
    /// Scripted partitions.
    pub partitions: Vec<PartitionEvent>,
    /// Byzantine attacker role assignments.
    pub attacks: Vec<AttackRole>,
    /// Seed for the dedicated fault RNG (independent of the world seed).
    pub seed: u64,
}

impl FaultPlan {
    /// An empty plan with the given fault seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// `true` if the plan injects nothing — the simulator then skips the
    /// fault plane entirely and runs bit-identically to a build without
    /// it.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.link_faults
            .iter()
            .all(|f| f.drop <= 0.0 && f.duplicate <= 0.0 && f.delay.is_none_or(|d| d.prob <= 0.0))
            && self.crashes.is_empty()
            && self.head_kills.is_empty()
            && self.jams.is_empty()
            && self.partitions.is_empty()
            && self.attacks.is_empty()
    }

    /// Adds a uniform (all-category) drop probability.
    #[must_use]
    pub fn with_loss(mut self, p: f64) -> Self {
        self.link_faults.push(LinkFault {
            drop: p,
            ..LinkFault::none()
        });
        self
    }

    /// Adds a drop probability for one traffic category.
    #[must_use]
    pub fn with_category_loss(mut self, category: MsgCategory, p: f64) -> Self {
        self.link_faults.push(LinkFault {
            category: Some(category),
            drop: p,
            ..LinkFault::none()
        });
        self
    }

    /// Adds a probabilistic extra delay to every delivery.
    #[must_use]
    pub fn with_delay(mut self, prob: f64, min: SimDuration, max: SimDuration) -> Self {
        self.link_faults.push(LinkFault {
            delay: Some(DelayFault { prob, min, max }),
            ..LinkFault::none()
        });
        self
    }

    /// Adds a duplication probability to every delivery.
    #[must_use]
    pub fn with_duplication(mut self, p: f64) -> Self {
        self.link_faults.push(LinkFault {
            duplicate: p,
            ..LinkFault::none()
        });
        self
    }

    /// Schedules an abrupt crash (and optional restart) of one node.
    #[must_use]
    pub fn with_crash(mut self, node: NodeId, at: SimTime, restart_at: Option<SimTime>) -> Self {
        self.crashes.push(CrashEvent {
            node,
            at,
            restart_at,
        });
        self
    }

    /// Schedules a kill of `count` cluster heads at `at`.
    #[must_use]
    pub fn with_head_kill(mut self, at: SimTime, count: u32) -> Self {
        self.head_kills.push(HeadKillEvent { at, count });
        self
    }

    /// Adds a jamming region active during `[from, until)`.
    #[must_use]
    pub fn with_jam(mut self, min: Point, max: Point, from: SimTime, until: SimTime) -> Self {
        self.jams.push(JamRegion {
            min,
            max,
            from,
            until,
        });
        self
    }

    /// Adds a scripted partition along `x = boundary_x` during
    /// `[start, heal)`.
    #[must_use]
    pub fn with_partition(mut self, boundary_x: f64, start: SimTime, heal: SimTime) -> Self {
        self.partitions.push(PartitionEvent {
            boundary_x,
            start,
            heal,
        });
        self
    }

    /// Assigns `node` the Byzantine role `kind`, active from `start`.
    #[must_use]
    pub fn with_attack(mut self, node: NodeId, kind: AttackKind, start: SimTime) -> Self {
        self.attacks.push(AttackRole { node, kind, start });
        self
    }

    /// The attack role `node` is running at `now`, if any. Attacker
    /// nodes behave honestly before their start time. Consults no RNG.
    #[must_use]
    pub fn attack_on(&self, node: NodeId, now: SimTime) -> Option<AttackKind> {
        self.attacks
            .iter()
            .find(|a| a.node == node && a.start <= now)
            .map(|a| a.kind)
    }

    /// The attack role `node` is *designated* for, regardless of start
    /// time. A replay-claim attacker uses this to capture messages it
    /// receives honestly before its start (the captured material is
    /// only replayed once active).
    #[must_use]
    pub fn attack_assigned(&self, node: NodeId) -> Option<AttackKind> {
        self.attacks.iter().find(|a| a.node == node).map(|a| a.kind)
    }

    /// Parses the line-oriented text form (see the crate's README for
    /// the full grammar). Lines:
    ///
    /// ```text
    /// seed 7
    /// loss 0.2 [configuration|maintenance|reclamation|sync|hello]
    /// delay 0.1 10ms 50ms [category]
    /// dup 0.05 [category]
    /// crash 3 at 5s [restart 20s]
    /// headkill 2 at 10s
    /// jam 0,0 500,500 from 5s until 15s
    /// partition x=500 from 10s heal 30s
    /// attack 4 squat at 8s
    /// ```
    ///
    /// Attack kinds: `squat`, `spoof-cfm`, `false-reclaim`,
    /// `replay-claim`.
    ///
    /// Blank lines and lines starting with `#` are ignored. Durations
    /// accept the suffixes `s`, `ms`, and `us`; a delay bound may not
    /// exceed one simulated hour ([`MAX_DELAY`]). Coordinates must be
    /// finite.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
            let mut words = line.split_whitespace();
            let keyword = words.next().unwrap_or_default();
            let rest: Vec<&str> = words.collect();
            match keyword {
                "seed" => {
                    plan.seed = rest
                        .first()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| err("expected `seed <u64>`"))?;
                }
                "loss" => {
                    let p = parse_prob(rest.first()).ok_or_else(|| err("bad probability"))?;
                    let category = match rest.get(1) {
                        Some(w) => Some(parse_category(w).ok_or_else(|| err("bad category"))?),
                        None => None,
                    };
                    plan.link_faults.push(LinkFault {
                        category,
                        drop: p,
                        ..LinkFault::none()
                    });
                }
                "delay" => {
                    let prob = parse_prob(rest.first()).ok_or_else(|| err("bad probability"))?;
                    let min = parse_duration(rest.get(1)).ok_or_else(|| err("bad min delay"))?;
                    let max = parse_duration(rest.get(2)).ok_or_else(|| err("bad max delay"))?;
                    if max < min {
                        return Err(err("max delay below min"));
                    }
                    if max > MAX_DELAY {
                        return Err(err("delay above one simulated hour"));
                    }
                    let category = match rest.get(3) {
                        Some(w) => Some(parse_category(w).ok_or_else(|| err("bad category"))?),
                        None => None,
                    };
                    plan.link_faults.push(LinkFault {
                        category,
                        delay: Some(DelayFault { prob, min, max }),
                        ..LinkFault::none()
                    });
                }
                "dup" => {
                    let p = parse_prob(rest.first()).ok_or_else(|| err("bad probability"))?;
                    let category = match rest.get(1) {
                        Some(w) => Some(parse_category(w).ok_or_else(|| err("bad category"))?),
                        None => None,
                    };
                    plan.link_faults.push(LinkFault {
                        category,
                        duplicate: p,
                        ..LinkFault::none()
                    });
                }
                "crash" => {
                    // crash <node> at <time> [restart <time>]
                    let node: u64 = rest
                        .first()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| err("bad node id"))?;
                    if rest.get(1) != Some(&"at") {
                        return Err(err("expected `at`"));
                    }
                    let at = parse_time(rest.get(2)).ok_or_else(|| err("bad crash time"))?;
                    let restart_at = match rest.get(3) {
                        Some(&"restart") => {
                            Some(parse_time(rest.get(4)).ok_or_else(|| err("bad restart time"))?)
                        }
                        Some(_) => return Err(err("expected `restart`")),
                        None => None,
                    };
                    plan.crashes.push(CrashEvent {
                        node: NodeId::new(node),
                        at,
                        restart_at,
                    });
                }
                "headkill" => {
                    // headkill <count> at <time>
                    let count: u32 = rest
                        .first()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| err("bad count"))?;
                    if rest.get(1) != Some(&"at") {
                        return Err(err("expected `at`"));
                    }
                    let at = parse_time(rest.get(2)).ok_or_else(|| err("bad kill time"))?;
                    plan.head_kills.push(HeadKillEvent { at, count });
                }
                "jam" => {
                    // jam <x,y> <x,y> from <time> until <time>
                    let min = parse_point(rest.first()).ok_or_else(|| err("bad corner"))?;
                    let max = parse_point(rest.get(1)).ok_or_else(|| err("bad corner"))?;
                    if rest.get(2) != Some(&"from") || rest.get(4) != Some(&"until") {
                        return Err(err("expected `from <t> until <t>`"));
                    }
                    let from = parse_time(rest.get(3)).ok_or_else(|| err("bad start time"))?;
                    let until = parse_time(rest.get(5)).ok_or_else(|| err("bad end time"))?;
                    plan.jams.push(JamRegion {
                        min,
                        max,
                        from,
                        until,
                    });
                }
                "partition" => {
                    // partition x=<f64> from <time> heal <time>
                    let boundary_x = rest
                        .first()
                        .and_then(|w| w.strip_prefix("x="))
                        .and_then(parse_finite)
                        .ok_or_else(|| err("expected `x=<boundary>`"))?;
                    if rest.get(1) != Some(&"from") || rest.get(3) != Some(&"heal") {
                        return Err(err("expected `from <t> heal <t>`"));
                    }
                    let start = parse_time(rest.get(2)).ok_or_else(|| err("bad start time"))?;
                    let heal = parse_time(rest.get(4)).ok_or_else(|| err("bad heal time"))?;
                    plan.partitions.push(PartitionEvent {
                        boundary_x,
                        start,
                        heal,
                    });
                }
                "attack" => {
                    // attack <node> <kind> at <time>
                    let node: u64 = rest
                        .first()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| err("bad node id"))?;
                    let kind = rest
                        .get(1)
                        .and_then(|w| parse_attack_kind(w))
                        .ok_or_else(|| err("bad attack kind"))?;
                    if rest.get(2) != Some(&"at") {
                        return Err(err("expected `at`"));
                    }
                    let start = parse_time(rest.get(3)).ok_or_else(|| err("bad attack time"))?;
                    plan.attacks.push(AttackRole {
                        node: NodeId::new(node),
                        kind,
                        start,
                    });
                }
                _ => return Err(err("unknown keyword")),
            }
        }
        Ok(plan)
    }

    /// Serializes the plan to the line grammar accepted by
    /// [`FaultPlan::parse`].
    ///
    /// The output is canonical: parsing it back reproduces the same
    /// fault behaviour, and the text is stable across a parse
    /// round-trip (`to_text(parse(to_text(p))) == to_text(p)`), which
    /// is what lets the conformance shrinker emit failing-schedule
    /// artifacts that replay byte-for-byte. A [`LinkFault`] combining
    /// several aspects (drop + delay + duplicate) is split into one
    /// line per aspect; the fault RNG draws in the same order either
    /// way, so the judged fates are unchanged. Zero-probability aspects
    /// are omitted for the same reason.
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "seed {}", self.seed);
        for f in &self.link_faults {
            let cat = match f.category {
                Some(c) => format!(" {}", category_keyword(c)),
                None => String::new(),
            };
            if f.drop > 0.0 {
                let _ = writeln!(out, "loss {}{cat}", f.drop);
            }
            if let Some(d) = f.delay {
                if d.prob > 0.0 {
                    let _ = writeln!(
                        out,
                        "delay {} {} {}{cat}",
                        d.prob,
                        fmt_micros(d.min.as_micros()),
                        fmt_micros(d.max.as_micros())
                    );
                }
            }
            if f.duplicate > 0.0 {
                let _ = writeln!(out, "dup {}{cat}", f.duplicate);
            }
        }
        for c in &self.crashes {
            let _ = write!(
                out,
                "crash {} at {}",
                c.node.index(),
                fmt_micros(c.at.as_micros())
            );
            match c.restart_at {
                Some(r) => {
                    let _ = writeln!(out, " restart {}", fmt_micros(r.as_micros()));
                }
                None => out.push('\n'),
            }
        }
        for h in &self.head_kills {
            let _ = writeln!(
                out,
                "headkill {} at {}",
                h.count,
                fmt_micros(h.at.as_micros())
            );
        }
        for j in &self.jams {
            let _ = writeln!(
                out,
                "jam {},{} {},{} from {} until {}",
                j.min.x,
                j.min.y,
                j.max.x,
                j.max.y,
                fmt_micros(j.from.as_micros()),
                fmt_micros(j.until.as_micros())
            );
        }
        for p in &self.partitions {
            let _ = writeln!(
                out,
                "partition x={} from {} heal {}",
                p.boundary_x,
                fmt_micros(p.start.as_micros()),
                fmt_micros(p.heal.as_micros())
            );
        }
        for a in &self.attacks {
            let _ = writeln!(
                out,
                "attack {} {} at {}",
                a.node.index(),
                a.kind.keyword(),
                fmt_micros(a.start.as_micros())
            );
        }
        out
    }
}

fn category_keyword(c: MsgCategory) -> &'static str {
    match c {
        MsgCategory::Configuration => "configuration",
        MsgCategory::Maintenance => "maintenance",
        MsgCategory::Reclamation => "reclamation",
        MsgCategory::Sync => "sync",
        MsgCategory::Hello => "hello",
    }
}

/// Renders a microsecond count in the largest exact unit (`s`, `ms`,
/// `us`) so parsed plans serialize back to the text they came from.
fn fmt_micros(us: u64) -> String {
    if us.is_multiple_of(1_000_000) {
        format!("{}s", us / 1_000_000)
    } else if us.is_multiple_of(1_000) {
        format!("{}ms", us / 1_000)
    } else {
        format!("{us}us")
    }
}

fn parse_prob(word: Option<&&str>) -> Option<f64> {
    let p: f64 = word?.parse().ok()?;
    (0.0..=1.0).contains(&p).then_some(p)
}

fn parse_category(word: &str) -> Option<MsgCategory> {
    Some(match word {
        "configuration" => MsgCategory::Configuration,
        "maintenance" => MsgCategory::Maintenance,
        "reclamation" => MsgCategory::Reclamation,
        "sync" => MsgCategory::Sync,
        "hello" => MsgCategory::Hello,
        _ => return None,
    })
}

fn parse_duration(word: Option<&&str>) -> Option<SimDuration> {
    let w = word?;
    let (digits, scale) = if let Some(d) = w.strip_suffix("ms") {
        (d, 1_000)
    } else if let Some(d) = w.strip_suffix("us") {
        (d, 1)
    } else if let Some(d) = w.strip_suffix('s') {
        (d, 1_000_000)
    } else {
        (*w, 1)
    };
    let n: u64 = digits.parse().ok()?;
    Some(SimDuration::from_micros(n.checked_mul(scale)?))
}

fn parse_time(word: Option<&&str>) -> Option<SimTime> {
    parse_duration(word).map(|d| SimTime::ZERO + d)
}

fn parse_attack_kind(word: &str) -> Option<AttackKind> {
    AttackKind::ALL.into_iter().find(|k| k.keyword() == word)
}

/// A finite coordinate. `f64::from_str` also takes `NaN` and `inf`, but
/// a region bounded by either compares false everywhere and never fires.
fn parse_finite(word: &str) -> Option<f64> {
    word.parse().ok().filter(|v: &f64| v.is_finite())
}

fn parse_point(word: Option<&&str>) -> Option<Point> {
    let (x, y) = word?.split_once(',')?;
    Some(Point::new(parse_finite(x)?, parse_finite(y)?))
}

/// What the fault plane decided about one scheduled delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeliveryFate {
    /// Drop it; the cause feeds metrics and trace.
    Drop(DropCause),
    /// Deliver `1 + duplicates` copies after `extra` additional latency.
    Pass {
        extra: SimDuration,
        duplicates: u32,
        delayed: bool,
    },
}

/// Runtime state of the fault plane: the plan plus its dedicated RNG.
/// Allocated only for non-empty plans.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: SimRng,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let rng = SimRng::seed_from(plan.seed);
        FaultState { plan, rng }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub(crate) fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// `true` if a delivery between positions `a` and `b` at `now`
    /// would be dropped by a scripted position-based fault (an active
    /// [`PartitionEvent`] boundary between them, or an active
    /// [`JamRegion`] covering either endpoint). Consults no RNG, so
    /// observers (e.g. the conformance checker) can ask without
    /// perturbing judged delivery fates.
    pub(crate) fn severs(&self, now: SimTime, a: Point, b: Point) -> bool {
        self.plan
            .jams
            .iter()
            .any(|jam| jam.active(now) && (jam.covers(a) || jam.covers(b)))
            || self
                .plan
                .partitions
                .iter()
                .any(|part| part.active(now) && part.separates(a, b))
    }

    /// Decides the fate of one delivery. `from_pos`/`to_pos` are the
    /// endpoints' positions at send time (used by jam and partition
    /// checks; `None` for endpoints without a position is treated as
    /// unaffected).
    pub(crate) fn judge(
        &mut self,
        now: SimTime,
        category: MsgCategory,
        from_pos: Option<Point>,
        to_pos: Option<Point>,
    ) -> DeliveryFate {
        for jam in &self.plan.jams {
            if jam.active(now)
                && (from_pos.is_some_and(|p| jam.covers(p))
                    || to_pos.is_some_and(|p| jam.covers(p)))
            {
                return DeliveryFate::Drop(DropCause::Jam);
            }
        }
        if let (Some(a), Some(b)) = (from_pos, to_pos) {
            for part in &self.plan.partitions {
                if part.active(now) && part.separates(a, b) {
                    return DeliveryFate::Drop(DropCause::Partition);
                }
            }
        }
        let mut extra = SimDuration::ZERO;
        let mut duplicates = 0;
        let mut delayed = false;
        for fault in &self.plan.link_faults {
            if !fault.matches(category) {
                continue;
            }
            if fault.drop > 0.0 && self.rng.chance(fault.drop) {
                return DeliveryFate::Drop(DropCause::Link);
            }
            if let Some(d) = fault.delay {
                if d.prob > 0.0 && self.rng.chance(d.prob) {
                    let min = d.min.min(MAX_DELAY).as_micros();
                    let span = d.max.min(MAX_DELAY).as_micros().saturating_sub(min);
                    let drawn = if span == 0 {
                        min
                    } else {
                        min + self.rng.range_u64(0..span + 1)
                    };
                    extra = extra + SimDuration::from_micros(drawn);
                    delayed = true;
                }
            }
            if fault.duplicate > 0.0 && self.rng.chance(fault.duplicate) {
                duplicates += 1;
            }
        }
        DeliveryFate::Pass {
            extra,
            duplicates,
            delayed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty() {
        assert!(FaultPlan::default().is_empty());
        assert!(FaultPlan::new(99).is_empty());
    }

    #[test]
    fn zero_probability_faults_still_count_as_empty() {
        let plan = FaultPlan::new(1).with_loss(0.0).with_duplication(0.0);
        assert!(plan.is_empty());
        assert!(!FaultPlan::new(1).with_loss(0.1).is_empty());
    }

    #[test]
    fn builders_accumulate() {
        let plan = FaultPlan::new(3)
            .with_loss(0.1)
            .with_category_loss(MsgCategory::Hello, 0.5)
            .with_delay(
                0.2,
                SimDuration::from_millis(1),
                SimDuration::from_millis(5),
            )
            .with_duplication(0.05)
            .with_crash(NodeId::new(1), SimTime::from_micros(10), None)
            .with_head_kill(SimTime::from_micros(20), 2)
            .with_jam(
                Point::new(0.0, 0.0),
                Point::new(100.0, 100.0),
                SimTime::ZERO,
                SimTime::from_micros(50),
            )
            .with_partition(500.0, SimTime::ZERO, SimTime::from_micros(50));
        assert_eq!(plan.link_faults.len(), 4);
        assert_eq!(plan.crashes.len(), 1);
        assert_eq!(plan.head_kills.len(), 1);
        assert_eq!(plan.jams.len(), 1);
        assert_eq!(plan.partitions.len(), 1);
        assert!(!plan.is_empty());
    }

    #[test]
    fn parse_full_grammar() {
        let text = "
            # a chaotic day
            seed 7
            loss 0.2
            loss 0.5 hello
            delay 0.1 10ms 50ms
            dup 0.05
            crash 3 at 5s
            crash 4 at 5s restart 20s
            headkill 2 at 10s
            jam 0,0 500,500 from 5s until 15s
            partition x=500 from 10s heal 30s
        ";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.link_faults.len(), 4);
        assert_eq!(plan.link_faults[1].category, Some(MsgCategory::Hello));
        assert_eq!(plan.crashes.len(), 2);
        assert_eq!(
            plan.crashes[1].restart_at,
            Some(SimTime::from_micros(20_000_000))
        );
        assert_eq!(
            plan.head_kills,
            vec![HeadKillEvent {
                at: SimTime::from_micros(10_000_000),
                count: 2,
            }]
        );
        assert_eq!(plan.jams[0].min, Point::new(0.0, 0.0));
        assert_eq!(plan.partitions[0].boundary_x, 500.0);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(FaultPlan::parse("loss").is_err());
        assert!(FaultPlan::parse("loss 1.5").is_err());
        assert!(FaultPlan::parse("loss 0.2 bogus").is_err());
        assert!(FaultPlan::parse("crash x at 5s").is_err());
        assert!(FaultPlan::parse("crash 3 by 5s").is_err());
        assert!(FaultPlan::parse("delay 0.1 50ms 10ms").is_err());
        assert!(FaultPlan::parse("warp 9").is_err());
        assert!(FaultPlan::parse("partition y=3 from 1s heal 2s").is_err());
        // Non-finite geometry never fires, and NaN is not equal to itself.
        for line in [
            "partition x=NaN from 1s heal 2s",
            "partition x=inf from 1s heal 2s",
            "jam NaN,0 10,10 from 1s until 2s",
        ] {
            let err = FaultPlan::parse(line).expect_err(line);
            assert!(err.starts_with("line 1:"), "{err}");
        }
    }

    #[test]
    fn to_text_round_trips_through_parse() {
        let text = "\
            seed 7\n\
            loss 0.2\n\
            loss 0.5 hello\n\
            delay 0.1 10ms 50ms\n\
            dup 0.05\n\
            crash 3 at 5s\n\
            crash 4 at 5s restart 20s\n\
            headkill 2 at 10s\n\
            jam 0,0 500,500 from 5s until 15s\n\
            partition x=500 from 10s heal 30s\n\
        ";
        let plan = FaultPlan::parse(text).unwrap();
        let canon = plan.to_text();
        let reparsed = FaultPlan::parse(&canon).unwrap();
        assert_eq!(reparsed, plan);
        // Canonical text is a fixed point of parse ∘ to_text.
        assert_eq!(reparsed.to_text(), canon);
    }

    #[test]
    fn to_text_handles_scoped_delay_and_dup() {
        let plan = FaultPlan::parse("delay 0.25 1500us 2ms sync\ndup 0.125 hello\n").unwrap();
        assert_eq!(plan.link_faults[0].category, Some(MsgCategory::Sync));
        assert_eq!(plan.link_faults[1].category, Some(MsgCategory::Hello));
        assert_eq!(FaultPlan::parse(&plan.to_text()).unwrap(), plan);
    }

    #[test]
    fn to_text_splits_combined_faults_without_changing_fates() {
        let mut plan = FaultPlan::new(21);
        plan.link_faults.push(LinkFault {
            category: Some(MsgCategory::Hello),
            drop: 0.3,
            delay: Some(DelayFault {
                prob: 0.4,
                min: SimDuration::from_millis(1),
                max: SimDuration::from_millis(2),
            }),
            duplicate: 0.2,
        });
        let reparsed = FaultPlan::parse(&plan.to_text()).unwrap();
        assert_eq!(reparsed.link_faults.len(), 3);
        let mut a = FaultState::new(plan);
        let mut b = FaultState::new(reparsed);
        for i in 0..500 {
            let now = SimTime::from_micros(i);
            let cat = if i % 3 == 0 {
                MsgCategory::Hello
            } else {
                MsgCategory::Sync
            };
            assert_eq!(a.judge(now, cat, None, None), b.judge(now, cat, None, None));
        }
    }

    #[test]
    fn attack_directives_parse_and_round_trip() {
        let text = "\
            seed 7\n\
            loss 0.1\n\
            crash 3 at 5s\n\
            attack 4 squat at 8s\n\
            attack 5 spoof-cfm at 10s\n\
            attack 6 false-reclaim at 12s\n\
            attack 7 replay-claim at 1500ms\n\
        ";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.attacks.len(), 4);
        assert_eq!(
            plan.attacks[0],
            AttackRole {
                node: NodeId::new(4),
                kind: AttackKind::Squat,
                start: SimTime::from_micros(8_000_000),
            }
        );
        assert_eq!(plan.attacks[3].kind, AttackKind::ReplayClaim);
        let canon = plan.to_text();
        let reparsed = FaultPlan::parse(&canon).unwrap();
        assert_eq!(reparsed, plan);
        // Canonical text is a fixed point of parse ∘ to_text.
        assert_eq!(reparsed.to_text(), canon);
        // One directive per line so the line-level shrinker can drop
        // attacks individually.
        assert_eq!(canon.lines().filter(|l| l.starts_with("attack")).count(), 4);
    }

    #[test]
    fn attack_parse_rejects_malformed_lines() {
        assert!(FaultPlan::parse("attack x squat at 5s").is_err());
        assert!(FaultPlan::parse("attack 3 warp at 5s").is_err());
        assert!(FaultPlan::parse("attack 3 squat by 5s").is_err());
        assert!(FaultPlan::parse("attack 3 squat at never").is_err());
    }

    #[test]
    fn attack_plan_is_not_empty_and_roles_gate_on_start() {
        let plan = FaultPlan::new(1).with_attack(
            NodeId::new(2),
            AttackKind::FalseReclaim,
            SimTime::from_micros(1_000),
        );
        assert!(!plan.is_empty());
        assert_eq!(plan.attack_on(NodeId::new(2), SimTime::ZERO), None);
        assert_eq!(
            plan.attack_on(NodeId::new(2), SimTime::from_micros(1_000)),
            Some(AttackKind::FalseReclaim)
        );
        assert_eq!(
            plan.attack_on(NodeId::new(3), SimTime::from_micros(5_000)),
            None
        );
    }

    #[test]
    fn judge_is_deterministic() {
        let plan = FaultPlan::new(11)
            .with_loss(0.3)
            .with_delay(
                0.5,
                SimDuration::from_millis(1),
                SimDuration::from_millis(9),
            )
            .with_duplication(0.2);
        let mut a = FaultState::new(plan.clone());
        let mut b = FaultState::new(plan);
        for i in 0..200 {
            let now = SimTime::from_micros(i);
            assert_eq!(
                a.judge(now, MsgCategory::Configuration, None, None),
                b.judge(now, MsgCategory::Configuration, None, None)
            );
        }
    }

    #[test]
    fn category_scoping_is_respected() {
        // Hello traffic always dropped, configuration never touched.
        let plan = FaultPlan::new(5).with_category_loss(MsgCategory::Hello, 1.0);
        let mut fs = FaultState::new(plan);
        for i in 0..50 {
            let now = SimTime::from_micros(i);
            assert_eq!(
                fs.judge(now, MsgCategory::Hello, None, None),
                DeliveryFate::Drop(DropCause::Link)
            );
            assert_eq!(
                fs.judge(now, MsgCategory::Configuration, None, None),
                DeliveryFate::Pass {
                    extra: SimDuration::ZERO,
                    duplicates: 0,
                    delayed: false,
                }
            );
        }
    }

    #[test]
    fn jam_region_drops_covered_endpoints() {
        let plan = FaultPlan::new(0).with_jam(
            Point::new(0.0, 0.0),
            Point::new(100.0, 100.0),
            SimTime::from_micros(10),
            SimTime::from_micros(20),
        );
        let mut fs = FaultState::new(plan);
        let inside = Some(Point::new(50.0, 50.0));
        let outside = Some(Point::new(500.0, 500.0));
        // Active window, receiver inside: dropped.
        assert_eq!(
            fs.judge(SimTime::from_micros(15), MsgCategory::Sync, outside, inside),
            DeliveryFate::Drop(DropCause::Jam)
        );
        // Outside the window: passes.
        assert!(matches!(
            fs.judge(SimTime::from_micros(25), MsgCategory::Sync, outside, inside),
            DeliveryFate::Pass { .. }
        ));
        // Active window but both endpoints clear: passes.
        assert!(matches!(
            fs.judge(
                SimTime::from_micros(15),
                MsgCategory::Sync,
                outside,
                outside
            ),
            DeliveryFate::Pass { .. }
        ));
    }

    #[test]
    fn partition_separates_halves_until_heal() {
        let plan = FaultPlan::new(0).with_partition(
            500.0,
            SimTime::from_micros(10),
            SimTime::from_micros(20),
        );
        let mut fs = FaultState::new(plan);
        let west = Some(Point::new(100.0, 0.0));
        let east = Some(Point::new(900.0, 0.0));
        assert_eq!(
            fs.judge(SimTime::from_micros(15), MsgCategory::Sync, west, east),
            DeliveryFate::Drop(DropCause::Partition)
        );
        assert!(matches!(
            fs.judge(SimTime::from_micros(15), MsgCategory::Sync, west, west),
            DeliveryFate::Pass { .. }
        ));
        assert!(matches!(
            fs.judge(SimTime::from_micros(20), MsgCategory::Sync, west, east),
            DeliveryFate::Pass { .. }
        ));
    }

    #[test]
    fn delay_bounds_past_an_hour_are_refused_and_never_wrap() {
        for text in [
            "seed 3\ndelay 1.0 0us 18446744073709551615us",
            "seed 3\ndelay 1.0 18446744073709551615us 18446744073709551615us",
            "seed 3\ndelay 1.0 0us 3600000001us",
        ] {
            let err = FaultPlan::parse(text).expect_err(text);
            assert!(
                err.starts_with("line 2: delay above one simulated hour"),
                "{err}"
            );
        }
        // At the ceiling, and past it when built in code: the draw stays
        // within the hour.
        let at_ceiling = FaultPlan::parse("seed 3\ndelay 1.0 0us 3600s").expect("at the ceiling");
        let past = FaultPlan::new(3).with_delay(
            1.0,
            SimDuration::from_micros(u64::MAX),
            SimDuration::from_micros(u64::MAX),
        );
        for plan in [at_ceiling, past] {
            let mut fs = FaultState::new(plan);
            for i in 0..100 {
                match fs.judge(SimTime::from_micros(i), MsgCategory::Sync, None, None) {
                    DeliveryFate::Pass { extra, .. } => assert!(extra <= MAX_DELAY, "{extra}"),
                    other => panic!("expected pass, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn delay_draw_stays_in_bounds() {
        let plan = FaultPlan::new(13).with_delay(
            1.0,
            SimDuration::from_millis(10),
            SimDuration::from_millis(50),
        );
        let mut fs = FaultState::new(plan);
        for i in 0..100 {
            match fs.judge(SimTime::from_micros(i), MsgCategory::Sync, None, None) {
                DeliveryFate::Pass { extra, delayed, .. } => {
                    assert!(delayed);
                    assert!(
                        SimDuration::from_millis(10) <= extra
                            && extra <= SimDuration::from_millis(50),
                        "delay {extra} out of bounds"
                    );
                }
                other => panic!("expected pass, got {other:?}"),
            }
        }
    }
}
