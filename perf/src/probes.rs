//! Per-layer probes: small fixed measurements of single public
//! functions, run by every traced run after its traced drive. Inputs are
//! generated from the seed here, independent of the workload, so a probe
//! reads the same on every workload's traced run.
//!
//! Each probe takes well under a second; the large-n engine rows are the
//! dearest at about a second together.

use crate::stats::{median, time_ns};
use crate::timed::{Null, NullMode, Timed};
use crate::workloads::scenario_set::fresh as qbac;
use addrspace::{Addr, AddrBlock, AddressPool};
use harness::{run_scenario, run_scenario_with, FuzzConfig, Scenario, SweepGrid};
use manet_sim::mobility::MobilityState;
use manet_sim::topology::Topology;
use manet_sim::{
    Arena, FaultPlan, IncrementalTopology, NodeId, Point, Sim, SimDuration, SimRng, SimTime,
    WorldConfig,
};
use proto_io::{Histogram, Metrics, WireMsg};
use quorum::{MajorityRule, QuorumRule, Replica, ReplicaStore, VersionStamp, VoteTally};
use std::time::Instant;

/// Radio range every probe layout uses (the paper's 150 m).
const RANGE: f64 = 150.0;

use crate::MetricValues as Out;

/// One shard of the storm workload.
fn shard(seed: u64) -> Scenario {
    crate::workloads::scenario_set::shard(128, seed)
}

/// A uniform layout at constant density: side `spacing`·√n, so the mean
/// degree stays flat as n grows (≈28 neighbours at 50, ≈44 at the
/// city's 40).
fn layout(n: usize, spacing: f64, seed: u64) -> (Arena, Vec<(NodeId, Point)>) {
    let side = (n as f64).sqrt().max(1.0) * spacing;
    let arena = Arena::new(side, side);
    let mut rng = SimRng::seed_from(seed);
    let nodes = (0..n)
        .map(|i| (NodeId::new(i as u64), rng.point_in(&arena)))
        .collect();
    (arena, nodes)
}

fn seconds<R>(f: impl FnOnce() -> R) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64()
}

/// Median wall of `f` over `reps` calls, seconds.
fn median_s<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    median(&(0..reps).map(|_| seconds(&mut f)).collect::<Vec<_>>())
}

/// The simulator's own cost per event, with a core that does nothing.
fn sim_floor(seed: u64, smoke: bool, out: &mut Out) {
    let spawn = |n: usize, spacing: f64, mode: NullMode| {
        let (arena, nodes) = layout(n, spacing, seed);
        let config = WorldConfig {
            arena,
            range: RANGE,
            speed: 0.0,
            seed,
            ..WorldConfig::default()
        };
        let mut sim = Sim::new(config, Null::new(mode, n as u64));
        for (_, p) in nodes {
            sim.spawn_at(p);
        }
        sim
    };
    // Re-armed timers only: queue push, pop and dispatch.
    let mut sim = spawn(64, 50.0, NullMode::Timer);
    let span = SimDuration::from_secs(if smoke { 10 } else { 300 });
    let wall = seconds(|| sim.run_for(span));
    let events = sim.world().metrics().perf().events.max(1);
    out.insert("manet-sim.sim.null_timer_ns", wall * 1e9 / events as f64);

    // One-hop broadcasts into an empty handler, on a shard-sized world.
    let mut sim = spawn(128, 50.0, NullMode::Fanout);
    let span = SimDuration::from_secs(if smoke { 2 } else { 20 });
    let wall = seconds(|| sim.run_for(span));
    let deliveries = sim.world().metrics().perf().deliveries.max(1);
    out.insert(
        "manet-sim.sim.null_fanout_ns",
        wall * 1e9 / deliveries as f64,
    );

    // One unicast from every node of a city-sized static snapshot: each
    // source pays one fresh BFS.
    let mut sim = spawn(if smoke { 150 } else { 600 }, 40.0, NullMode::Unicast);
    let wall = seconds(|| sim.run_for(SimDuration::from_secs(1)));
    let sent = sim.world().metrics().total_messages().max(1);
    out.insert("manet-sim.sim.null_unicast_ns", wall * 1e9 / sent as f64);
}

/// Snapshot construction and queries at the workloads' sizes.
fn topology(seed: u64, smoke: bool, out: &mut Out) {
    // A storm shard's final layout.
    let report = run_scenario(&shard(seed), qbac());
    let shard_nodes: Vec<(NodeId, Point)> = report
        .world()
        .alive_nodes()
        .into_iter()
        .filter_map(|n| report.world().position(n).map(|p| (n, p)))
        .collect();
    out.insert(
        "manet-sim.topology.build_us_n128",
        time_ns(5, 200, || Topology::build(&shard_nodes, RANGE)) / 1e3,
    );
    // Arrivals are sequential and the shard is static, so the first k
    // nodes of the final layout are the network at the k-th join: the
    // mean over the prefixes is what a rebuild costs during the storm.
    out.insert(
        "manet-sim.topology.build_us_ramp128",
        time_ns(3, 4, || {
            for k in 1..=shard_nodes.len() {
                std::hint::black_box(Topology::build(&shard_nodes[..k], RANGE));
            }
        }) / 1e3
            / shard_nodes.len() as f64,
    );

    // A city-sized layout at the city's density.
    let (_, city) = layout(if smoke { 150 } else { 600 }, 40.0, seed);
    out.insert(
        "manet-sim.topology.build_us_n600",
        time_ns(5, 20, || Topology::build(&city, RANGE)) / 1e3,
    );
    // The hello path: `within(node, 1)` from a source the snapshot has
    // not answered for yet. Every node is a source once per snapshot;
    // snapshots are rebuilt outside the clock.
    let per_fresh_source = |f: &dyn Fn(&Topology, NodeId)| {
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let topo = Topology::build(&city, RANGE);
                let start = Instant::now();
                for (node, _) in &city {
                    f(&topo, *node);
                }
                start.elapsed().as_nanos() as f64 / city.len() as f64 / 1e3
            })
            .collect();
        median(&samples)
    };
    out.insert(
        "manet-sim.topology.within1_us_n600",
        per_fresh_source(&|t, n| {
            std::hint::black_box(t.within(n, 1));
        }),
    );
    out.insert(
        "manet-sim.topology.bfs_fresh_us_n600",
        per_fresh_source(&|t, n| {
            std::hint::black_box(t.hops(n, NodeId::new(0)));
        }),
    );
    let topo = Topology::build(&city, RANGE);
    let _ = topo.hops(NodeId::new(1), NodeId::new(0));
    out.insert(
        "manet-sim.topology.bfs_memo_us_n600",
        time_ns(5, 2000, || topo.hops(NodeId::new(1), NodeId::new(2))) / 1e3,
    );
    // The component partition is memoized per snapshot too.
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let fresh: Vec<Topology> = (0..8).map(|_| Topology::build(&city, RANGE)).collect();
            let start = Instant::now();
            for t in &fresh {
                std::hint::black_box(t.components().len());
            }
            start.elapsed().as_nanos() as f64 / fresh.len() as f64 / 1e3
        })
        .collect();
    out.insert("manet-sim.topology.components_us_n600", median(&samples));

    // The three engines on one large layout: the rows the one-engine
    // decision needs.
    let (_, nodes) = layout(if smoke { 2_000 } else { 20_000 }, 50.0, seed);
    let full = Topology::build(&nodes, RANGE);
    out.insert("manet-sim.topology.links_n20000", full.link_count() as f64);
    out.insert(
        "manet-sim.topology.build_us_n20000",
        time_ns(3, 1, || Topology::build(&nodes, RANGE)) / 1e3,
    );
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    out.insert(
        "manet-sim.engine.parallel_build_us_n20000",
        time_ns(3, 1, || Topology::build_parallel(&nodes, RANGE, threads)) / 1e3,
    );
    // Every node drifts 2 m: one topology quantum at 20 m/s. Two layouts
    // alternate so each timed update sees a real diff.
    let shifted = |dx: f64, only_below: f64| -> Vec<(NodeId, Point)> {
        nodes
            .iter()
            .map(|&(id, p)| {
                let moved = if p.y < only_below {
                    Point::new(p.x + dx, p.y)
                } else {
                    p
                };
                (id, moved)
            })
            .collect()
    };
    let alternate_us = |a: &[(NodeId, Point)], b: &[(NodeId, Point)]| {
        let mut inc = IncrementalTopology::new();
        let _ = inc.update(b, RANGE);
        let mut flip = false;
        time_ns(3, 1, || {
            flip = !flip;
            inc.update(if flip { a } else { b }, RANGE)
        }) / 1e3
    };
    let everywhere = shifted(2.0, f64::INFINITY);
    out.insert(
        "manet-sim.engine.incremental_update_us_n20000",
        alternate_us(&everywhere, &nodes),
    );
    // The localized drift `harness::scale` times: only the bottom 300 m.
    let strip = shifted(2.0, 300.0);
    out.insert(
        "manet-sim.engine.incremental_strip_us_n20000",
        alternate_us(&strip, &nodes),
    );
}

/// Mobility interpolation, the fault-plan grammar, and the recorders'
/// cost on one storm shard (recorder on ÷ off − 1).
fn recorders(seed: u64, out: &mut Out) {
    let arena = Arena::new(1000.0, 1000.0);
    let mut rng = SimRng::seed_from(seed);
    let mut state = MobilityState::parked(Point::new(500.0, 500.0));
    state.retarget(SimTime::ZERO, &arena, 20.0, &mut rng);
    let mut t = 0u64;
    out.insert(
        "manet-sim.mobility.position_ns",
        time_ns(5, 100_000, || {
            t = (t + 977) % 20_000_000;
            state.position(SimTime::from_micros(t))
        }),
    );
    out.insert(
        "manet-sim.mobility.retarget_ns",
        time_ns(5, 100_000, || {
            state.retarget(SimTime::ZERO, &arena, 20.0, &mut rng);
        }),
    );
    let plan_text = conformance::chaos_schedules()
        .into_iter()
        .find(|s| s.name == "splitbrain")
        .expect("splitbrain schedule is pinned")
        .plan
        .to_text();
    out.insert(
        "manet-sim.faults.parse_us",
        time_ns(5, 500, || FaultPlan::parse(&plan_text)) / 1e3,
    );

    let s = shard(seed);
    let plain = median_s(3, || run_scenario(&s, qbac()).metrics().configured_nodes());
    let mut observed = s.clone();
    observed.observe = true;
    let with_observer = median_s(3, || {
        run_scenario(&observed, qbac()).metrics().configured_nodes()
    });
    let mut traced = s.clone();
    traced.trace_capacity = 1 << 16;
    let with_trace = median_s(3, || {
        run_scenario(&traced, qbac()).metrics().configured_nodes()
    });
    let with_transcript = median_s(3, || {
        run_scenario_with(&s, qbac(), |sim| sim.world_mut().enable_transcript())
            .metrics()
            .configured_nodes()
    });
    out.insert(
        "manet-sim.observer.overhead_frac",
        with_observer / plain - 1.0,
    );
    out.insert("manet-sim.trace.overhead_frac", with_trace / plain - 1.0);
    out.insert(
        "proto-io.transcript.overhead_frac",
        with_transcript / plain - 1.0,
    );
}

/// Accounting primitives.
fn accounting(seed: u64, out: &mut Out) {
    let mut h = Histogram::new();
    let mut v = seed | 1;
    out.insert(
        "proto-io.histogram.record_ns",
        time_ns(5, 1_000_000, || {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            h.record(v >> 48);
        }),
    );
    let shard_metrics = run_scenario(&shard(seed), qbac())
        .into_measurements()
        .metrics;
    let mut sink = Metrics::new();
    out.insert(
        "proto-io.metrics.merge_us",
        time_ns(5, 2000, || sink.merge(&shard_metrics)) / 1e3,
    );
}

/// Encode and decode cost over a message sample, and bytes per message.
fn codec<M: WireMsg>(msgs: &[M]) -> (f64, f64, f64) {
    if msgs.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut buf = Vec::with_capacity(64);
    let encode_ns = time_ns(5, 1, || {
        for m in msgs {
            buf.clear();
            m.wire_encode(&mut buf);
            std::hint::black_box(&buf);
        }
    }) / msgs.len() as f64;
    let encoded: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| {
            let mut b = Vec::new();
            m.wire_encode(&mut b);
            b
        })
        .collect();
    let decode_ns = time_ns(5, 1, || {
        for b in &encoded {
            std::hint::black_box(M::wire_decode(b).is_ok());
        }
    }) / msgs.len() as f64;
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    (encode_ns, decode_ns, bytes as f64 / msgs.len() as f64)
}

/// The wire codecs, over the message mix a [`Timed`] wrapper captured
/// from one storm shard (QBAC) and one equally shaped DAD run.
fn codecs(seed: u64, out: &mut Out) {
    let s = shard(seed);
    let report = run_scenario(&s, Timed::capturing(qbac()));
    let (enc, dec, bytes) = codec(report.protocol().captured());
    out.insert("qbac-core.wire.encode_ns", enc);
    out.insert("qbac-core.wire.decode_ns", dec);
    out.insert("qbac-core.wire.bytes_per_msg", bytes);
    let report = run_scenario(&s, Timed::capturing(baselines::dad::QueryDad::default()));
    let (enc, dec, _) = codec(report.protocol().captured());
    out.insert("baselines.dad.wire.encode_ns", enc);
    out.insert("baselines.dad.wire.decode_ns", dec);
}

/// The harness's own machinery: artifact render/parse/gate on a smoke
/// sweep, job dispatch, two-thread scaling, and the fuzzer's run rate.
fn harness_layers(seed: u64, smoke: bool, out: &mut Out) {
    let report = harness::run_sweep(&SweepGrid::smoke(seed), 1).expect("smoke grid is registered");
    out.insert(
        "harness.sweep.render_ms",
        time_ns(5, 5, || report.to_json().len()) / 1e6,
    );
    let json = report.to_json();
    out.insert(
        "harness.json.parse_ms",
        time_ns(3, 1, || harness::Value::parse(&json).is_ok()) / 1e6,
    );
    out.insert(
        "harness.gate.ms",
        time_ns(3, 1, || harness::gate(&json, &json, 0.05).is_ok()) / 1e6,
    );

    let jobs = 20_000;
    out.insert(
        "harness.run_jobs.dispatch_us",
        median_s(5, || harness::run_jobs(jobs, 2, std::hint::black_box).len()) * 1e6 / jobs as f64,
    );
    let shards: Vec<Scenario> = (0..if smoke { 2 } else { 8 })
        .map(|i| shard(crate::workloads::mix(seed, 2000 + i)))
        .collect();
    let storm = |threads: usize| {
        seconds(|| {
            harness::run_jobs(shards.len(), threads, |i| {
                run_scenario(&shards[i], qbac())
                    .metrics()
                    .configured_nodes()
            })
            .len()
        })
    };
    out.insert("harness.run_jobs.speedup_t2", storm(1) / storm(2));

    let cfg = FuzzConfig {
        protocol: "quorum".into(),
        budget: harness::parse_time_budget("60s").expect("60s is a budget"),
        seed,
        quick: true,
    };
    let start = Instant::now();
    let runs = harness::run_fuzz(&cfg).runs;
    out.insert(
        "harness.fuzz.runs_per_s",
        runs as f64 / start.elapsed().as_secs_f64(),
    );
}

/// Leaf data structures.
fn leaves(out: &mut Out) {
    let rule = MajorityRule::new(16);
    out.insert(
        "quorum.tally.grant_ns",
        time_ns(5, 20_000, || {
            let mut t: VoteTally<u32> = VoteTally::new(rule.threshold());
            for v in 0..16u32 {
                t.grant(std::hint::black_box(v));
            }
            t.reached()
        }) / 16.0,
    );
    let mut store: ReplicaStore<u32, u64> = ReplicaStore::new();
    let mut stamp = 0u64;
    out.insert(
        "quorum.replica.apply_ns",
        time_ns(5, 200_000, || {
            stamp += 1;
            store.apply(
                (stamp % 256) as u32,
                Replica::at(stamp, VersionStamp::new(stamp)),
            )
        }),
    );
    let block = |len| AddrBlock::new(Addr::new(0), len).expect("block fits the space");
    let mut pool = AddressPool::from_block(block(4096));
    out.insert(
        "addrspace.pool.allocate_first_ns",
        time_ns(5, 20_000, || {
            let a = pool.allocate_first(1).expect("pool has free addresses");
            pool.release(a).expect("address was just allocated");
        }),
    );
    let mut pool = AddressPool::from_block(block(1 << 16));
    out.insert(
        "addrspace.pool.split_half_ns",
        time_ns(5, 20_000, || {
            let half = pool.split_half().expect("pool is splittable");
            pool.absorb(half).expect("half adjoins the pool");
        }),
    );
}

/// Runs every probe; returns the values and how long each group took.
#[must_use]
pub fn run_all(seed: u64, smoke: bool) -> (Out, Vec<(&'static str, f64)>) {
    let mut out = Out::new();
    let mut took = Vec::new();
    let mut group = |name: &'static str, f: &mut dyn FnMut(&mut Out)| {
        took.push((name, seconds(|| f(&mut out))));
    };
    group("sim floor", &mut |o| sim_floor(seed, smoke, o));
    group("topology", &mut |o| topology(seed, smoke, o));
    group("recorders", &mut |o| recorders(seed, o));
    group("accounting", &mut |o| accounting(seed, o));
    group("codecs", &mut |o| codecs(seed, o));
    group("harness", &mut |o| harness_layers(seed, smoke, o));
    group("leaves", &mut leaves);
    (out, took)
}
