//! What the checker's section memo must never get wrong, driven by a
//! scripted adapter: the test hands in the three views, no protocol
//! runs, and only the world's clock and topology move.
//!
//! Every scenario runs three times. The frozen run shows the checker
//! views that change only when the script says so, so unchanged steps
//! take the memo's skips; the jittered run adds one inert entry (a dead
//! node with an address outside every block, an owner of nothing, a lone
//! stamp) to each view on every other call, so no step ever equals the
//! one before and every section is re-derived from scratch — the
//! un-memoised evaluation; the versioned run is the frozen one with a
//! views generation that moves on every write of the script, so
//! unchanged steps do not even build the views. The three must agree on
//! every verdict, step, detail string and standing time.

use addrspace::{Addr, AddrBlock, PoolView};
use conformance::{Checker, ConformanceAdapter, Guarantees, Invariant, NearMiss, Violation};
use manet_sim::faults::FaultPlan;
use manet_sim::{NodeId, Point, ProtocolCore, Sim, SimDuration, SimTime, World, WorldConfig};
use proto_io::{Net, Versioned};
use std::cell::Cell;
use std::ops::{Deref, DerefMut};

type Stamps = Vec<((NodeId, NodeId, Addr), u64)>;

/// The three views, as the script last wrote them.
#[derive(Debug, Default)]
struct Views {
    assigned: Vec<(NodeId, Addr)>,
    views: Vec<(NodeId, PoolView)>,
    stamps: Stamps,
}

/// How a run shows its views to the checker.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
enum Mode {
    /// As written, with no generation.
    #[default]
    Frozen,
    /// With an inert entry on every other call.
    Jittered,
    /// As written, with the generation of the script's writes.
    Versioned,
}

/// An adapter whose views are whatever the test last wrote. The script
/// writes through `DerefMut`, so every write moves the generation.
#[derive(Debug, Default)]
struct Scripted {
    written: Versioned<Views>,
    mode: Mode,
    /// Calls so far of each of the three view methods.
    calls: [Cell<u64>; 3],
}

impl Scripted {
    /// `true` on every other call of view `which` in a jittered run.
    fn odd_call(&self, which: usize) -> bool {
        let calls = &self.calls[which];
        calls.set(calls.get() + 1);
        self.mode == Mode::Jittered && calls.get() % 2 == 1
    }
}

impl Deref for Scripted {
    type Target = Views;
    fn deref(&self) -> &Views {
        &self.written
    }
}

impl DerefMut for Scripted {
    fn deref_mut(&mut self) -> &mut Views {
        &mut self.written
    }
}

impl ProtocolCore for Scripted {
    type Msg = ();
    fn on_join(&mut self, _: &mut Net<'_, ()>, _: NodeId) {}
    fn on_message(&mut self, _: &mut Net<'_, ()>, _: NodeId, _: NodeId, _: ()) {}
}

impl ConformanceAdapter for Scripted {
    fn fresh() -> Self {
        Scripted::default()
    }
    fn name() -> &'static str {
        "scripted"
    }
    fn guarantees(_: &FaultPlan) -> Guarantees {
        quorum_like()
    }
    fn assigned_pairs(&self, _: &World<()>) -> Vec<(NodeId, Addr)> {
        let mut v = self.assigned.clone();
        if self.odd_call(0) {
            v.push((NodeId::new(9_000), addr(60_000)));
        }
        v
    }
    fn pool_views(&self, _: &World<()>) -> Vec<(NodeId, PoolView)> {
        let mut v = self.views.clone();
        if self.odd_call(1) {
            v.push((NodeId::new(9_001), pool(&[], &[])));
        }
        v
    }
    fn stamp_views(&self, _: &World<()>) -> Stamps {
        let mut v = self.stamps.clone();
        if self.odd_call(2) {
            v.push(((NodeId::new(9_002), NodeId::new(9_002), addr(60_000)), 1));
        }
        v
    }
    fn views_generation(&self) -> Option<u64> {
        (self.mode == Mode::Versioned).then(|| self.written.version())
    }
}

/// The quorum adapter's envelope under clean links: everything, with
/// merge grace.
fn quorum_like() -> Guarantees {
    Guarantees {
        unique: true,
        pool_accounting: true,
        pool_disjoint: true,
        assigned_covered: true,
        grant_stable: true,
        stamps_monotonic: true,
        merge_grace: true,
    }
}

fn addr(offset: u32) -> Addr {
    Addr::new(0x0A00_0000 + offset)
}

fn block(base: u32, len: u32) -> AddrBlock {
    AddrBlock::new(addr(base), len).expect("test block is valid")
}

/// A pool owning `blocks` with `allocated` (offsets) handed out.
fn pool(blocks: &[AddrBlock], allocated: &[u32]) -> PoolView {
    let total: u64 = blocks.iter().map(|b| u64::from(b.len())).sum();
    PoolView {
        blocks: blocks.to_vec(),
        total,
        free: total - allocated.len() as u64,
        allocated: allocated.iter().map(|&o| (addr(o), 0)).collect(),
    }
}

const TICK: SimDuration = SimDuration::from_millis(100);
const GRACE: SimDuration = SimDuration::from_secs(5);

/// What one scripted run produced.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Every failing check's verdict, in step order.
    errors: Vec<Violation>,
    near_miss: NearMiss,
    /// First step at which `watch` were in contact (one component, no
    /// scripted fault between them).
    contact: Option<u64>,
}

/// Spawns `nodes`, then checks at step 0 and after each of `steps`
/// 100 ms ticks; `script(step, sim)` runs before the tick's check. The
/// run does not stop at a violation: every failing check is recorded.
/// Also returns how many checks built the views.
fn drive(
    mode: Mode,
    plan: &str,
    nodes: &[Point],
    watch: (u64, u64),
    steps: u64,
    script: impl Fn(u64, &mut Sim<Scripted>),
) -> (Outcome, u64) {
    let wc = WorldConfig {
        speed: 0.0,
        fault_plan: FaultPlan::parse(plan).expect("plan parses"),
        ..WorldConfig::default()
    };
    let mut sim = Sim::new(wc, Scripted::default());
    sim.protocol_mut().mode = mode;
    for pos in nodes {
        sim.spawn_at(*pos);
    }
    let mut checker = Checker::new(quorum_like());
    let mut out = Outcome {
        errors: Vec::new(),
        near_miss: NearMiss::default(),
        contact: None,
    };
    for step in 0..=steps {
        sim.run_until(SimTime::ZERO.saturating_add(TICK * step));
        script(step, &mut sim);
        let (w, p) = sim.parts_mut();
        let (a, b) = (NodeId::new(watch.0), NodeId::new(watch.1));
        let together = w.component_id(a).is_some()
            && w.component_id(a) == w.component_id(b)
            && !w.fault_severed(a, b);
        if together && out.contact.is_none() {
            out.contact = Some(step);
        }
        out.errors.extend(checker.check(step, w, &*p).err());
    }
    out.near_miss = checker.near_miss();
    (out, checker.rebuilds())
}

/// Runs the scenario frozen, jittered and versioned, demands they agree,
/// and returns the one outcome.
fn all_three(
    plan: &str,
    nodes: &[Point],
    watch: (u64, u64),
    steps: u64,
    script: impl Fn(u64, &mut Sim<Scripted>),
) -> Outcome {
    let (frozen, built) = drive(Mode::Frozen, plan, nodes, watch, steps, &script);
    assert_eq!(built, steps + 1, "with no generation every check builds");
    let (jittered, _) = drive(Mode::Jittered, plan, nodes, watch, steps, &script);
    assert_eq!(frozen, jittered, "memoised and full evaluation disagree");
    let (versioned, built) = drive(Mode::Versioned, plan, nodes, watch, steps, &script);
    assert_eq!(frozen, versioned, "skipped and rebuilt views disagree");
    assert!(
        built < steps / 2,
        "{built} of {steps} checks built the views"
    );
    frozen
}

/// First step whose clock reads more than the grace past `contact`.
fn matures(contact: u64) -> u64 {
    contact + GRACE.as_micros() / TICK.as_micros() + 1
}

/// Nodes 0 and 1 hold one address; nothing else is claimed.
fn duplicate_script(step: u64, sim: &mut Sim<Scripted>) {
    if step == 0 {
        sim.protocol_mut().assigned = vec![(NodeId::new(0), addr(7)), (NodeId::new(1), addr(7))];
    }
}

#[test]
fn duplicate_across_components_matures_after_contact() {
    // 400 m apart: two components until a bridge spawns at step 20.
    let nodes = [Point::new(300.0, 500.0), Point::new(700.0, 500.0)];
    let out = all_three("seed 1\n", &nodes, (0, 1), 80, |step, sim| {
        duplicate_script(step, sim);
        if step == 20 {
            for x in [400.0, 500.0, 600.0] {
                sim.spawn_at(Point::new(x, 500.0));
            }
        }
    });
    assert_eq!(out.contact, Some(20), "the bridge joins the components");
    let first = &out.errors[0];
    assert_eq!(first.invariant, Invariant::AddrUnique);
    assert_eq!(first.step, matures(20), "grace runs from contact");
    assert!(first
        .detail
        .contains("5.100s after becoming mutually reachable"));
}

#[test]
fn standing_duplicate_matures_though_no_view_ever_changes() {
    let nodes = [Point::new(450.0, 500.0), Point::new(550.0, 500.0)];
    let out = all_three("seed 1\n", &nodes, (0, 1), 60, duplicate_script);
    assert_eq!(out.contact, Some(0));
    assert_eq!(out.errors[0].step, matures(0));
    assert_eq!(out.near_miss.dup_standing, GRACE + TICK * (60 - 50));
}

#[test]
fn partition_excuses_a_duplicate_until_it_heals() {
    // One radio component throughout; the scripted partition keeps the
    // holders apart for the first three seconds.
    let nodes = [Point::new(450.0, 500.0), Point::new(550.0, 500.0)];
    let plan = "seed 1\npartition x=500 from 0s heal 3s\n";
    let out = all_three(plan, &nodes, (0, 1), 90, duplicate_script);
    let contact = out.contact.expect("the partition heals");
    assert!((29..=31).contains(&contact), "healed at {contact}");
    assert_eq!(out.errors[0].step, matures(contact));
}

#[test]
fn a_violation_is_reported_again_on_the_next_call() {
    let nodes = [Point::new(450.0, 500.0), Point::new(550.0, 500.0)];
    let out = all_three("seed 1\n", &nodes, (0, 1), 70, |step, sim| {
        duplicate_script(step, sim);
        let p = sim.protocol_mut();
        match step {
            // In-place address change: grant-stable, twice, then undone.
            10 => p.assigned[0].1 = addr(8),
            12 => p.assigned[0].1 = addr(7),
            // Broken accounting, twice, then repaired.
            20 => p.views = vec![(NodeId::new(0), pool(&[block(100, 8)], &[]))],
            21 => p.views[0].1.free -= 1,
            23 => p.views[0].1.free += 1,
            // A regressing stamp, twice, then restored.
            30 => p.stamps = vec![((NodeId::new(0), NodeId::new(0), addr(100)), 5)],
            31 => p.stamps[0].1 = 4,
            33 => p.stamps[0].1 = 5,
            _ => {}
        }
    });
    let seen: Vec<(u64, Invariant)> = out.errors.iter().map(|v| (v.step, v.invariant)).collect();
    let mut want = vec![
        (10, Invariant::GrantStable),
        (11, Invariant::GrantStable),
        (21, Invariant::PoolConserved),
        (22, Invariant::PoolConserved),
        (31, Invariant::StampMonotonic),
        (32, Invariant::StampMonotonic),
    ];
    // The standing duplicate's clock kept running through all of it (a
    // failing step abandons its pass, not the clocks) and, once mature,
    // fails every step.
    want.extend((matures(0)..=70).map(|s| (s, Invariant::AddrUnique)));
    assert_eq!(seen, want);
}

#[test]
fn standing_times_of_all_three_families_survive_the_memo() {
    // Owners 0 and 1 overlap on [100, 108); node 2 holds an address in
    // owner 0's block that owner 0 has no record of; nodes 2 and 3 share
    // it. All in one component. At step 20 everything is repaired.
    let nodes: Vec<Point> = (0..4)
        .map(|i| Point::new(400.0 + 60.0 * f64::from(i), 500.0))
        .collect();
    let out = all_three("seed 1\n", &nodes, (0, 1), 40, |step, sim| {
        let p = sim.protocol_mut();
        if step == 0 {
            p.assigned = vec![(NodeId::new(2), addr(101)), (NodeId::new(3), addr(101))];
            p.views = vec![
                (NodeId::new(0), pool(&[block(100, 8)], &[])),
                (NodeId::new(1), pool(&[block(104, 8)], &[])),
            ];
        }
        if step == 20 {
            p.assigned = vec![(NodeId::new(2), addr(101))];
            p.views = vec![
                (NodeId::new(0), pool(&[block(100, 4)], &[101])),
                (NodeId::new(1), pool(&[block(104, 8)], &[])),
            ];
        }
    });
    assert_eq!(out.errors, Vec::new());
    let stood = TICK * 19;
    assert_eq!(
        out.near_miss,
        NearMiss {
            dup_standing: stood,
            contested_standing: stood,
            uncovered_standing: stood,
        }
    );
}

#[test]
fn a_failing_pass_is_abandoned_not_half_committed() {
    // Pair (2, 3) stands from step 0; pair (0, 1) only once the bridge
    // spawns at step 20. At step 51 the walk clocks (0, 1) at 3.1 s and
    // then fails on (2, 3), which is repaired at once. A partition
    // excuses (0, 1) for step 52 alone, so its clock must restart at 53:
    // a clock carried out of the failed pass would fire 3.2 s early.
    let nodes = [
        Point::new(300.0, 500.0),
        Point::new(700.0, 500.0),
        Point::new(300.0, 600.0),
        Point::new(350.0, 600.0),
    ];
    let plan = "seed 1\npartition x=500 from 5150ms heal 5250ms\n";
    let out = all_three(plan, &nodes, (0, 1), 110, |step, sim| {
        let held = |n, a| (NodeId::new(n), addr(a));
        match step {
            0 => sim.protocol_mut().assigned = vec![held(0, 7), held(1, 7), held(2, 9), held(3, 9)],
            20 => [400.0, 500.0, 600.0].iter().for_each(|&x| {
                sim.spawn_at(Point::new(x, 500.0));
            }),
            52 => sim.protocol_mut().assigned = vec![held(0, 7), held(1, 7), held(2, 9)],
            _ => {}
        }
    });
    let steps: Vec<u64> = out.errors.iter().map(|v| v.step).collect();
    let mut want = vec![51];
    want.extend(matures(53)..=110);
    assert_eq!(steps, want);
    assert!(out.errors[0]
        .detail
        .starts_with("address 10.0.0.9 held by nodes 2 and 3"));
}
