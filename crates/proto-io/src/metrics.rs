use crate::histogram::Histogram;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Traffic categories under which message costs are accounted, matching
/// the paper's evaluation axes.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum MsgCategory {
    /// Address configuration exchanges (Figures 5-8).
    #[default]
    Configuration,
    /// Location updates and graceful departures (Figures 9-11).
    Maintenance,
    /// Address reclamation after abrupt departures (Figure 14).
    Reclamation,
    /// Periodic state synchronization (the Buddy and C-tree baselines).
    Sync,
    /// Periodic hello beacons (excluded from the paper's comparisons,
    /// tracked separately so figures can ignore them).
    Hello,
}

impl MsgCategory {
    /// All categories, for iteration in reports.
    pub const ALL: [MsgCategory; 5] = [
        MsgCategory::Configuration,
        MsgCategory::Maintenance,
        MsgCategory::Reclamation,
        MsgCategory::Sync,
        MsgCategory::Hello,
    ];
}

impl fmt::Display for MsgCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MsgCategory::Configuration => "configuration",
            MsgCategory::Maintenance => "maintenance",
            MsgCategory::Reclamation => "reclamation",
            MsgCategory::Sync => "sync",
            MsgCategory::Hello => "hello",
        };
        f.write_str(s)
    }
}

/// Per-category message and hop counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CategoryCounter {
    /// Number of logical messages (a flood counts once).
    pub messages: u64,
    /// Total hop cost (transmissions) charged.
    pub hops: u64,
}

/// Counters for injected faults (see the simulator's `FaultPlan`).
///
/// All zeros unless a fault plan is active.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Deliveries dropped by the fault plane (link loss, jamming, or an
    /// active partition) — not counting the legacy `loss_rate` drops.
    pub dropped: u64,
    /// Deliveries that received injected extra latency.
    pub delayed: u64,
    /// Extra copies delivered due to duplication faults.
    pub duplicated: u64,
    /// Scheduled node crashes that fired (including head kills).
    pub crashes: u64,
    /// Crashed nodes that restarted.
    pub restarts: u64,
    /// Addresses granted by a squatting attacker without quorum.
    pub squats: u64,
    /// Forged `QUORUM_CFM` votes injected by a spoofing attacker.
    pub spoofed_cfms: u64,
    /// `ADDR_REC` floods injected for live leases.
    pub false_reclaims: u64,
    /// Captured `OWN_CLAIM` messages replayed after a merge.
    pub replayed_claims: u64,
}

impl FaultCounters {
    /// Total injected fault events of any kind.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.dropped
            + self.delayed
            + self.duplicated
            + self.crashes
            + self.restarts
            + self.attack_total()
    }

    /// Total Byzantine attack actions of any kind.
    #[must_use]
    pub fn attack_total(&self) -> u64 {
        self.squats + self.spoofed_cfms + self.false_reclaims + self.replayed_claims
    }

    /// Merges another set of counters into this one. Every field is
    /// combined here, so a newly added counter cannot be silently
    /// dropped from [`Metrics::merge`].
    pub fn merge(&mut self, other: &FaultCounters) {
        let FaultCounters {
            dropped,
            delayed,
            duplicated,
            crashes,
            restarts,
            squats,
            spoofed_cfms,
            false_reclaims,
            replayed_claims,
        } = other;
        self.dropped += dropped;
        self.delayed += delayed;
        self.duplicated += duplicated;
        self.crashes += crashes;
        self.restarts += restarts;
        self.squats += squats;
        self.spoofed_cfms += spoofed_cfms;
        self.false_reclaims += false_reclaims;
        self.replayed_claims += replayed_claims;
    }
}

/// Simulator-internal performance counters: how much machinery one run
/// exercised. The event loop and the topology cache feed these; the
/// sweep harness renders them per cell so parameter sweeps double as
/// profiles.
///
/// Every value is a deterministic function of the run (no wall clock
/// lives here), so perf counters are safe inside fingerprinted
/// artifacts. They are intentionally **not** part of
/// [`Metrics::to_json`]: the run-snapshot fingerprint pins protocol
/// *behavior*, and a pure engine optimization (say, a better memo) must
/// be able to change rebuild counts without moving it. Render them
/// explicitly with [`PerfCounters::to_json`] where profiles belong.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerfCounters {
    /// Logical events dispatched by the event loop: every timer, join,
    /// leave, waypoint and fault event, and every *recipient* of a
    /// delivery — not every queue pop, since one queue entry carries all
    /// the recipients of a send that fire at one instant. The recipient
    /// is the unit the conformance oracle steps on and `Sim::drain`
    /// budgets, so it is the unit counted.
    pub events: u64,
    /// `Deliver` events handed to the protocol (dead-target deliveries
    /// and fault-plane drops never count).
    pub deliveries: u64,
    /// Timer events that actually fired (cancelled timers excluded).
    pub timers_fired: u64,
    /// High-water mark of the event-queue length, in logical events
    /// (see [`events`](Self::events)).
    pub queue_high_water: u64,
    /// Topology snapshot refreshes (swept, spliced or re-keyed): every
    /// query that found the snapshot's `(quantum, version)` key stale,
    /// however little it took to make it current. The version moves on a
    /// join, a leave and a mobility write that moved a node in the
    /// snapshot, so this counts what changed between queries, not what
    /// a refresh cost — that is told apart elsewhere
    /// (`World::snapshot_sweeps`). It is rendered into
    /// `BENCH_sweep.json`, `BENCH_scale.json` and the benchmark's
    /// behaviour digests: an engine that refreshes by less must not move
    /// it.
    pub topo_builds: u64,
    /// Topology queries served from the cached snapshot. It counts the
    /// questions the protocols and the world ask, so, unlike
    /// [`topo_builds`](Self::topo_builds), a protocol that gets the same
    /// answers from fewer queries moves it.
    pub topo_hits: u64,
}

impl PerfCounters {
    /// Merges another set of counters: totals add, the queue high-water
    /// mark takes the maximum across shards (the shards ran as separate
    /// event loops, so their peaks never coexisted in one queue).
    pub fn merge(&mut self, other: &PerfCounters) {
        let PerfCounters {
            events,
            deliveries,
            timers_fired,
            queue_high_water,
            topo_builds,
            topo_hits,
        } = other;
        self.events += events;
        self.deliveries += deliveries;
        self.timers_fired += timers_fired;
        self.queue_high_water = self.queue_high_water.max(*queue_high_water);
        self.topo_builds += topo_builds;
        self.topo_hits += topo_hits;
    }

    /// Renders the counters as one JSON object with fixed key order.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"events\":{},\"deliveries\":{},\"timers_fired\":{},\"queue_high_water\":{},\"topo_builds\":{},\"topo_hits\":{}}}",
            self.events,
            self.deliveries,
            self.timers_fired,
            self.queue_high_water,
            self.topo_builds,
            self.topo_hits
        )
    }
}

/// Simulation-wide measurement sink.
///
/// The delivery engine records every send's hop cost here; protocols add
/// latency samples when a configuration completes. The harness reads the
/// totals to produce the paper's figures.
///
/// Distributions are kept as fixed-bucket log2 [`Histogram`]s rather
/// than raw sample vectors: constant memory per run, O(buckets) merges
/// across replications, and p50/p90/p99 within one bucket width (count,
/// sum, min, max and therefore the mean stay exact).
///
/// # Example
///
/// ```
/// use proto_io::{Metrics, MsgCategory};
///
/// let mut m = Metrics::default();
/// m.add_send(MsgCategory::Configuration, 3);
/// m.record_config_latency(5);
/// assert_eq!(m.hops(MsgCategory::Configuration), 3);
/// assert_eq!(m.mean_config_latency(), Some(5.0));
/// assert_eq!(m.config_latency().p99(), Some(5));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    counters: BTreeMap<MsgCategory, CategoryCounter>,
    config_latency: Histogram,
    hop_cost: Histogram,
    vote_rounds: Histogram,
    retries: Histogram,
    configured_nodes: u64,
    failed_configurations: u64,
    faults: FaultCounters,
    perf: PerfCounters,
}

impl Metrics {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Charges one message of `hops` transmissions to `category` and
    /// feeds the per-send hop-cost distribution.
    pub fn add_send(&mut self, category: MsgCategory, hops: u64) {
        let c = self.counters.entry(category).or_default();
        c.messages += 1;
        c.hops += hops;
        self.hop_cost.record(hops);
    }

    /// Records the hop-count latency of one completed configuration.
    pub fn record_config_latency(&mut self, hops: u32) {
        self.config_latency.record(u64::from(hops));
        self.configured_nodes += 1;
    }

    /// Records a configuration attempt that was abandoned.
    pub fn record_config_failure(&mut self) {
        self.failed_configurations += 1;
    }

    /// Records how many polling rounds one completed quorum vote took
    /// (1 = decided before `T_d`, 2 = needed the §V-B shrink).
    pub fn record_vote_rounds(&mut self, rounds: u64) {
        self.vote_rounds.record(rounds);
    }

    /// Records the number of join retries a node accumulated before its
    /// configuration attempt concluded (successfully or not).
    pub fn record_join_retries(&mut self, retries: u64) {
        self.retries.record(retries);
    }

    /// Hop total for a category.
    #[must_use]
    pub fn hops(&self, category: MsgCategory) -> u64 {
        self.counters.get(&category).map_or(0, |c| c.hops)
    }

    /// Message count for a category.
    #[must_use]
    pub fn messages(&self, category: MsgCategory) -> u64 {
        self.counters.get(&category).map_or(0, |c| c.messages)
    }

    /// Total messages across all categories.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.counters.values().map(|c| c.messages).sum()
    }

    /// Total hops across all categories.
    #[must_use]
    pub fn total_hops(&self) -> u64 {
        self.counters.values().map(|c| c.hops).sum()
    }

    /// Total protocol hops excluding hello beacons — the quantity the
    /// paper's overhead figures compare.
    #[must_use]
    pub fn protocol_hops(&self) -> u64 {
        MsgCategory::ALL
            .iter()
            .filter(|c| **c != MsgCategory::Hello)
            .map(|c| self.hops(*c))
            .sum()
    }

    /// The configuration-latency distribution (hops per completed
    /// configuration).
    #[must_use]
    pub fn config_latency(&self) -> &Histogram {
        &self.config_latency
    }

    /// The per-send hop-cost distribution (every charged send).
    #[must_use]
    pub fn hop_cost(&self) -> &Histogram {
        &self.hop_cost
    }

    /// The quorum-vote round distribution (see
    /// [`Metrics::record_vote_rounds`]).
    #[must_use]
    pub fn vote_rounds(&self) -> &Histogram {
        &self.vote_rounds
    }

    /// The join-retry distribution (see
    /// [`Metrics::record_join_retries`]).
    #[must_use]
    pub fn retries(&self) -> &Histogram {
        &self.retries
    }

    /// Mean configuration latency in hops, `None` before any completion.
    /// Exact: histograms carry exact counts and sums.
    #[must_use]
    pub fn mean_config_latency(&self) -> Option<f64> {
        self.config_latency.mean()
    }

    /// Number of nodes that completed configuration.
    #[must_use]
    pub fn configured_nodes(&self) -> u64 {
        self.configured_nodes
    }

    /// Number of abandoned configuration attempts.
    #[must_use]
    pub fn failed_configurations(&self) -> u64 {
        self.failed_configurations
    }

    /// Injected-fault counters (all zeros without a fault plan).
    #[must_use]
    pub fn faults(&self) -> &FaultCounters {
        &self.faults
    }

    /// Mutable access to the injected-fault counters (the delivery engine
    /// records fault outcomes here).
    pub fn faults_mut(&mut self) -> &mut FaultCounters {
        &mut self.faults
    }

    /// Simulator performance counters (see [`PerfCounters`]).
    #[must_use]
    pub fn perf(&self) -> &PerfCounters {
        &self.perf
    }

    /// Mutable access to the performance counters (the event loop and
    /// topology cache record here).
    pub fn perf_mut(&mut self) -> &mut PerfCounters {
        &mut self.perf
    }

    /// Merges another sink into this one (for aggregating replications).
    pub fn merge(&mut self, other: &Metrics) {
        for (cat, c) in &other.counters {
            let mine = self.counters.entry(*cat).or_default();
            mine.messages += c.messages;
            mine.hops += c.hops;
        }
        self.config_latency.merge(&other.config_latency);
        self.hop_cost.merge(&other.hop_cost);
        self.vote_rounds.merge(&other.vote_rounds);
        self.retries.merge(&other.retries);
        self.configured_nodes += other.configured_nodes;
        self.failed_configurations += other.failed_configurations;
        self.faults.merge(&other.faults);
        self.perf.merge(&other.perf);
    }

    /// Renders the sink as one JSON object: per-category counters,
    /// configuration outcomes, fault counters, and every distribution
    /// (see [`Histogram::to_json`] for the histogram encoding). Key
    /// order is fixed, so equal metrics render byte-identically.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("{\"categories\":{");
        for (k, cat) in MsgCategory::ALL.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{cat}\":{{\"messages\":{},\"hops\":{}}}",
                self.messages(*cat),
                self.hops(*cat)
            );
        }
        let _ = write!(
            s,
            "}},\"configured_nodes\":{},\"failed_configurations\":{}",
            self.configured_nodes, self.failed_configurations
        );
        let f = &self.faults;
        let _ = write!(
            s,
            ",\"faults\":{{\"dropped\":{},\"delayed\":{},\"duplicated\":{},\"crashes\":{},\"restarts\":{},\"squats\":{},\"spoofed_cfms\":{},\"false_reclaims\":{},\"replayed_claims\":{},\"total\":{}}}",
            f.dropped, f.delayed, f.duplicated, f.crashes, f.restarts,
            f.squats, f.spoofed_cfms, f.false_reclaims, f.replayed_claims, f.total()
        );
        let _ = write!(
            s,
            ",\"config_latency\":{},\"hop_cost\":{},\"vote_rounds\":{},\"retries\":{}}}",
            self.config_latency.to_json(),
            self.hop_cost.to_json(),
            self.vote_rounds.to_json(),
            self.retries.to_json()
        );
        s
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} msgs / {} hops, {} configured",
            self.total_messages(),
            self.total_hops(),
            self.configured_nodes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_category() {
        let mut m = Metrics::new();
        m.add_send(MsgCategory::Configuration, 3);
        m.add_send(MsgCategory::Configuration, 2);
        m.add_send(MsgCategory::Hello, 1);
        assert_eq!(m.hops(MsgCategory::Configuration), 5);
        assert_eq!(m.messages(MsgCategory::Configuration), 2);
        assert_eq!(m.total_messages(), 3);
        assert_eq!(m.total_hops(), 6);
    }

    #[test]
    fn protocol_hops_excludes_hello() {
        let mut m = Metrics::new();
        m.add_send(MsgCategory::Hello, 100);
        m.add_send(MsgCategory::Maintenance, 7);
        m.add_send(MsgCategory::Reclamation, 2);
        assert_eq!(m.protocol_hops(), 9);
        assert_eq!(m.total_hops(), 109);
    }

    #[test]
    fn latency_statistics() {
        let mut m = Metrics::new();
        assert_eq!(m.mean_config_latency(), None);
        m.record_config_latency(4);
        m.record_config_latency(8);
        assert_eq!(m.mean_config_latency(), Some(6.0));
        assert_eq!(m.configured_nodes(), 2);
        assert_eq!(m.config_latency().count(), 2);
        assert_eq!(m.config_latency().min(), Some(4));
        assert_eq!(m.config_latency().max(), Some(8));
    }

    #[test]
    fn distributions_accumulate() {
        let mut m = Metrics::new();
        m.add_send(MsgCategory::Configuration, 3);
        m.add_send(MsgCategory::Hello, 1);
        m.record_vote_rounds(1);
        m.record_vote_rounds(2);
        m.record_join_retries(0);
        assert_eq!(m.hop_cost().count(), 2);
        assert_eq!(m.hop_cost().sum(), 4);
        assert_eq!(m.vote_rounds().max(), Some(2));
        assert_eq!(m.retries().min(), Some(0));
    }

    #[test]
    fn failures_tracked_separately() {
        let mut m = Metrics::new();
        m.record_config_failure();
        assert_eq!(m.failed_configurations(), 1);
        assert_eq!(m.configured_nodes(), 0);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Metrics::new();
        a.add_send(MsgCategory::Sync, 5);
        a.record_config_latency(3);
        let mut b = Metrics::new();
        b.add_send(MsgCategory::Sync, 7);
        b.record_config_latency(5);
        b.record_config_failure();
        a.merge(&b);
        assert_eq!(a.hops(MsgCategory::Sync), 12);
        assert_eq!(a.messages(MsgCategory::Sync), 2);
        assert_eq!(a.mean_config_latency(), Some(4.0));
        assert_eq!(a.failed_configurations(), 1);
        assert_eq!(a.config_latency().count(), 2);
        assert_eq!(a.hop_cost().sum(), 12);
    }

    #[test]
    fn zero_hop_send_counts_message() {
        let mut m = Metrics::new();
        m.add_send(MsgCategory::Maintenance, 0);
        assert_eq!(m.messages(MsgCategory::Maintenance), 1);
        assert_eq!(m.hops(MsgCategory::Maintenance), 0);
    }

    #[test]
    fn display_summarizes() {
        let mut m = Metrics::new();
        m.add_send(MsgCategory::Configuration, 4);
        m.record_config_latency(4);
        assert_eq!(m.to_string(), "1 msgs / 4 hops, 1 configured");
    }

    #[test]
    fn fault_counters_merge_and_total() {
        let mut a = Metrics::new();
        a.faults_mut().dropped = 3;
        a.faults_mut().crashes = 1;
        let mut b = Metrics::new();
        b.faults_mut().dropped = 2;
        b.faults_mut().delayed = 4;
        b.faults_mut().duplicated = 5;
        b.faults_mut().restarts = 1;
        a.merge(&b);
        assert_eq!(a.faults().dropped, 5);
        assert_eq!(a.faults().delayed, 4);
        assert_eq!(a.faults().duplicated, 5);
        assert_eq!(a.faults().crashes, 1);
        assert_eq!(a.faults().restarts, 1);
        assert_eq!(a.faults().total(), 16);
    }

    #[test]
    fn fault_counters_merge_totals_match_total() {
        // FaultCounters::merge must combine every field: the merged
        // total equals the sum of the inputs' totals.
        let a = FaultCounters {
            dropped: 1,
            delayed: 2,
            duplicated: 3,
            crashes: 4,
            restarts: 5,
            squats: 6,
            spoofed_cfms: 7,
            false_reclaims: 8,
            replayed_claims: 9,
        };
        let b = FaultCounters {
            dropped: 10,
            delayed: 20,
            duplicated: 30,
            crashes: 40,
            restarts: 50,
            squats: 60,
            spoofed_cfms: 70,
            false_reclaims: 80,
            replayed_claims: 90,
        };
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.total(), a.total() + b.total());
        assert_eq!(merged.dropped, 11);
        assert_eq!(merged.restarts, 55);
        assert_eq!(merged.squats, 66);
        assert_eq!(merged.replayed_claims, 99);
        assert_eq!(merged.attack_total(), a.attack_total() + b.attack_total());
    }

    #[test]
    fn attack_counters_flow_through_merge_and_json() {
        let mut a = Metrics::new();
        a.faults_mut().squats = 2;
        a.faults_mut().false_reclaims = 1;
        let mut b = Metrics::new();
        b.faults_mut().spoofed_cfms = 3;
        b.faults_mut().replayed_claims = 4;
        a.merge(&b);
        assert_eq!(a.faults().attack_total(), 10);
        let j = a.to_json();
        assert!(j.contains("\"squats\":2"));
        assert!(j.contains("\"spoofed_cfms\":3"));
        assert!(j.contains("\"false_reclaims\":1"));
        assert!(j.contains("\"replayed_claims\":4"));
        assert!(j.contains("\"total\":10"));
    }

    #[test]
    fn json_has_fixed_key_order() {
        let mut m = Metrics::new();
        m.add_send(MsgCategory::Configuration, 2);
        m.record_config_latency(2);
        let j = m.to_json();
        assert!(j.starts_with("{\"categories\":{\"configuration\":"));
        assert!(j.contains("\"configured_nodes\":1"));
        assert!(j.contains("\"faults\":{\"dropped\":0"));
        assert!(j.contains("\"config_latency\":{\"count\":1"));
        assert!(j.contains("\"hop_cost\":{\"count\":1"));
        assert!(j.ends_with('}'));
        // Equal metrics render byte-identically.
        let mut m2 = Metrics::new();
        m2.add_send(MsgCategory::Configuration, 2);
        m2.record_config_latency(2);
        assert_eq!(j, m2.to_json());
    }

    #[test]
    fn perf_counters_merge_sums_and_maxes() {
        let a = PerfCounters {
            events: 10,
            deliveries: 4,
            timers_fired: 3,
            queue_high_water: 7,
            topo_builds: 2,
            topo_hits: 20,
        };
        let b = PerfCounters {
            events: 5,
            deliveries: 1,
            timers_fired: 2,
            queue_high_water: 4,
            topo_builds: 1,
            topo_hits: 9,
        };
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.events, 15);
        assert_eq!(merged.deliveries, 5);
        assert_eq!(merged.timers_fired, 5);
        assert_eq!(merged.queue_high_water, 7, "high water is a max");
        assert_eq!(merged.topo_builds, 3);
        assert_eq!(merged.topo_hits, 29);
    }

    #[test]
    fn perf_counters_ride_metrics_merge_but_not_metrics_json() {
        let mut a = Metrics::new();
        a.perf_mut().events = 3;
        a.perf_mut().queue_high_water = 9;
        let mut b = Metrics::new();
        b.perf_mut().events = 4;
        b.perf_mut().queue_high_water = 2;
        a.merge(&b);
        assert_eq!(a.perf().events, 7);
        assert_eq!(a.perf().queue_high_water, 9);
        // Perf is rendered explicitly, never inside the behavior JSON
        // (the snapshot fingerprint must not move on engine tuning).
        assert!(!a.to_json().contains("queue_high_water"));
        let j = a.perf().to_json();
        assert!(j.starts_with("{\"events\":7"), "{j}");
        assert!(j.contains("\"queue_high_water\":9"), "{j}");
    }

    #[test]
    fn category_display_names() {
        let names: Vec<String> = MsgCategory::ALL.iter().map(|c| c.to_string()).collect();
        assert_eq!(
            names,
            vec![
                "configuration",
                "maintenance",
                "reclamation",
                "sync",
                "hello"
            ]
        );
    }
}
