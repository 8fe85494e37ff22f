//! The metric registry: every name the runner prints, with its unit and
//! direction. `BENCHMARK.json` must declare exactly these names (a test
//! holds the two together); the regression bounds live only there.
//!
//! Per-layer names read `<crate>.<part>.<what>`. A layer a workload does
//! not exercise reports 0 (the driver wants every name on every traced
//! run): `transport-mesh.datagrams` is non-zero only on `mesh_udp`.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// `true` for simulated statistics and counts that repeat exactly
    /// for a seed: `compare` holds them bit-for-bit instead of against a
    /// bound.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// The five workloads, in ledger order.
pub const WORKLOADS: [&str; 5] = [
    "storm_static",
    "city_mobile",
    "paper_grid",
    "oracle_chaos",
    "mesh_udp",
];

/// What a user of the system sees. Host-time metrics come from the
/// untraced reps; the hop metric is a simulated statistic.
pub const END_TO_END: &[MetricDef] = &[
    host("setup_s", "s", Lower),
    host("wall_s", "s", Lower),
    host("joins_per_s", "1/s", Higher),
    host("peak_rss_mb", "MB", Lower),
    exact("config_latency_mean_hops", "hops", Lower),
];

/// Single-layer metrics, printed by the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // Event loop.
    exact("manet-sim.sim.events", "count", Lower),
    exact("manet-sim.sim.deliveries", "count", Lower),
    exact("manet-sim.sim.timers_fired", "count", Lower),
    exact("manet-sim.sim.queue_high_water", "count", Lower),
    exact("manet-sim.sim.events_per_join", "count", Lower),
    host("manet-sim.sim.ns_per_event", "ns", Lower),
    host("manet-sim.sim.loop_self_s", "s", Lower),
    host("manet-sim.sim.null_timer_ns", "ns", Lower),
    host("manet-sim.sim.null_fanout_ns", "ns", Lower),
    host("manet-sim.sim.null_unicast_ns", "ns", Lower),
    // Topology cache and snapshot engine.
    exact("manet-sim.world.topo_builds", "count", Lower),
    exact("manet-sim.world.topo_hits", "count", Higher),
    exact("manet-sim.world.topo_hit_ratio", "ratio", Higher),
    host("manet-sim.topology.build_us_n128", "us", Lower),
    host("manet-sim.topology.build_us_ramp128", "us", Lower),
    host("manet-sim.topology.build_us_n600", "us", Lower),
    host("manet-sim.topology.build_us_n20000", "us", Lower),
    exact("manet-sim.topology.links_n20000", "count", Lower),
    host("manet-sim.topology.within1_us_n600", "us", Lower),
    host("manet-sim.topology.bfs_fresh_us_n600", "us", Lower),
    host("manet-sim.topology.bfs_memo_us_n600", "us", Lower),
    host("manet-sim.topology.components_us_n600", "us", Lower),
    host("manet-sim.topology.est_busy_s", "s", Lower),
    host("manet-sim.engine.incremental_update_us_n20000", "us", Lower),
    host("manet-sim.engine.incremental_strip_us_n20000", "us", Lower),
    host("manet-sim.engine.parallel_build_us_n20000", "us", Lower),
    // Mobility, fault plane, recorders.
    host("manet-sim.mobility.position_ns", "ns", Lower),
    host("manet-sim.mobility.retarget_ns", "ns", Lower),
    host("manet-sim.faults.parse_us", "us", Lower),
    exact("manet-sim.faults.dropped", "count", Lower),
    exact("manet-sim.faults.delayed", "count", Lower),
    exact("manet-sim.faults.duplicated", "count", Lower),
    host("manet-sim.observer.overhead_frac", "ratio", Lower),
    host("manet-sim.trace.overhead_frac", "ratio", Lower),
    host("proto-io.histogram.record_ns", "ns", Lower),
    host("proto-io.metrics.merge_us", "us", Lower),
    host("proto-io.transcript.overhead_frac", "ratio", Lower),
    exact("proto-io.metrics.configured_per_spawn", "ratio", Higher),
    exact("proto-io.metrics.config_latency_p99_hops", "hops", Lower),
    exact("proto-io.metrics.hops_per_join", "hops", Lower),
    // The quorum protocol's handlers and codec.
    host("qbac-core.handle.msg_ns", "ns", Lower),
    host("qbac-core.handle.timer_ns", "ns", Lower),
    host("qbac-core.handle.join_ns", "ns", Lower),
    host("qbac-core.handle.busy_s", "s", Lower),
    exact("qbac-core.hello_share", "ratio", Lower),
    exact("qbac-core.vote_rounds_mean", "count", Lower),
    exact("qbac-core.retries_per_join", "count", Lower),
    host("qbac-core.wire.encode_ns", "ns", Lower),
    host("qbac-core.wire.decode_ns", "ns", Lower),
    exact("qbac-core.wire.bytes_per_msg", "B", Lower),
    host("baselines.dad.wire.encode_ns", "ns", Lower),
    host("baselines.dad.wire.decode_ns", "ns", Lower),
    // Harness.
    host("harness.cell_wall_s.quorum", "s", Lower),
    host("harness.cell_wall_s.manetconf", "s", Lower),
    host("harness.cell_wall_s.buddy", "s", Lower),
    host("harness.cell_wall_s.ctree", "s", Lower),
    host("harness.cell_wall_s.dad", "s", Lower),
    host("harness.unit_ms_p50", "ms", Lower),
    host("harness.unit_ms_p95", "ms", Lower),
    host("harness.sweep.render_ms", "ms", Lower),
    host("harness.json.parse_ms", "ms", Lower),
    host("harness.gate.ms", "ms", Lower),
    host("harness.run_jobs.dispatch_us", "us", Lower),
    host("harness.run_jobs.speedup_t2", "x", Higher),
    host("harness.fuzz.runs_per_s", "1/s", Higher),
    // Oracle, UDP mesh, leaf data structures.
    host("conformance.check.ns_per_step", "ns", Lower),
    host("conformance.check.share", "ratio", Lower),
    exact("conformance.steps", "count", Lower),
    exact("conformance.violations", "count", Lower),
    host("transport-mesh.datagrams", "count", Lower),
    host("transport-mesh.retries", "count", Lower),
    host("transport-mesh.filtered", "count", Lower),
    host("transport-mesh.us_per_datagram", "us", Lower),
    host("transport-mesh.slowdown_x", "x", Lower),
    host("quorum.tally.grant_ns", "ns", Lower),
    host("quorum.replica.apply_ns", "ns", Lower),
    host("addrspace.pool.allocate_first_ns", "ns", Lower),
    host("addrspace.pool.split_half_ns", "ns", Lower),
    // The benchmark's own accounting.
    host("trace_overhead_frac", "ratio", Lower),
    host("machine.calib_ms", "ms", Lower),
];

/// The driver's charset for names: starts with a letter or digit, at
/// most 64 of `[A-Za-z0-9_.-]`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The driver's charset for units: at most 16 of `[A-Za-z0-9_/%.-]`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// Looks a metric up in either table.
#[must_use]
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charset_rule() {
        for good in ["wall_s", "manet-sim.sim.events", "a", "9lives", "A-b_c.d"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "-lead",
            ".lead",
            "_lead",
            "sp ace",
            "sla/sh",
            "pct%",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for good in ["ms", "1/s", "%", "count", "MB"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "per second", "seventeen_chars__", "µs"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn every_declared_name_is_legal_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{}: {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} declared twice", d.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w), "{w}");
        }
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
