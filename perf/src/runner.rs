//! One workload, one process: set-up, untraced reps for the measuring
//! time, one traced drive, and (with tracing on) the per-layer probes.
//!
//! Host-time end-to-end metrics come from the untraced reps only. The
//! traced drive runs in every invocation all the same, over the first
//! [`TRACED_REPS`] reps' inputs: it is where the simulated statistics are
//! read (two public entry points hide their `Metrics`), and its digests
//! must equal those reps' — the check that the run is deterministic and
//! that wrapping the handlers in clocks changed no behaviour. Per-layer
//! counts and busy times are means per rep over those reps, so they sit
//! beside `wall_s` on the same base.

use crate::machine::{self, Machine, Sentinel};
use crate::names::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::spans::SpanLog;
use crate::stats::{median, percentile_if_supported, ratio};
use crate::timed::{Kind, KIND_SPANS};
use crate::workloads::mesh_udp::MeshUdp;
use crate::workloads::oracle_chaos::OracleChaos;
use crate::workloads::paper_grid::PaperGrid;
use crate::workloads::scenario_set::{CityMobile, StormStatic};
use crate::workloads::{Rep, Traced, Workload, TRACED_REPS};
use crate::{probes, MetricValues};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// How many times a run sets up: before the untraced reps, after them,
/// and at the end. `setup_s` is the median of all eleven. The host has
/// bursts of up to a few seconds in which everything runs a third slower;
/// eleven set-ups back to back fit inside one, three rounds seconds apart
/// do not.
const SETUP_ROUNDS: [usize; 3] = [4, 4, 3];

/// Arguments of a single-workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Benchmark seed: every input derives from it.
    pub seed: u64,
    /// How long to keep starting untraced reps, seconds.
    pub seconds: f64,
    /// Print the per-layer metrics (and run the probes) instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Shrink every workload and probe to about a second.
    pub smoke: bool,
    /// Where to dump every span as JSON, if anywhere.
    pub spans_out: Option<PathBuf>,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Outputs checked out: no operation failed, the traced drive
    /// reproduced the untraced digests and the spans account for the
    /// traced wall.
    pub correct: bool,
    /// Operations attempted over all untraced reps.
    pub attempted: u64,
    /// Operations failed over all untraced reps.
    pub failed: u64,
    /// The metrics this run reports (end-to-end or per-layer).
    pub metrics: MetricValues,
    /// Human-readable account, printed before the result line.
    pub report: String,
    /// One JSON object of run facts for the ledger (digest, reps,
    /// sentinel, machine).
    pub detail: String,
}

/// Runs the named workload.
///
/// # Errors
///
/// Names an unknown workload.
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    match args.workload.as_str() {
        StormStatic::NAME => Ok(drive::<StormStatic>(args)),
        CityMobile::NAME => Ok(drive::<CityMobile>(args)),
        PaperGrid::NAME => Ok(drive::<PaperGrid>(args)),
        OracleChaos::NAME => Ok(drive::<OracleChaos>(args)),
        MeshUdp::NAME => Ok(drive::<MeshUdp>(args)),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// Everything one run measured, before it is turned into metrics.
struct Measured {
    setups: Vec<f64>,
    pinned: bool,
    reps: Vec<Rep>,
    rep_s: Vec<f64>,
    peak_rss_mb: f64,
    log: SpanLog,
    traced: Traced,
    traced_s: f64,
    /// Wall of the traced reps run untraced once more after the traced
    /// drive (traced runs only).
    rerun_s: Option<f64>,
}

impl Measured {
    /// The median untraced rep, seconds.
    fn wall_s(&self) -> f64 {
        median(&self.rep_s)
    }

    /// The untraced wall of the reps the traced drive repeated, seconds.
    /// A traced run ran them before and after the traced drive, and the
    /// mean of the two cancels a machine that drifts across the run.
    fn untraced_s(&self) -> f64 {
        let before: f64 = self.rep_s[..TRACED_REPS].iter().sum();
        self.rerun_s.map_or(before, |after| (before + after) / 2.0)
    }

    /// One digest over the reps both passes ran.
    fn digest(&self) -> u64 {
        let bytes: Vec<u8> = self.reps[..TRACED_REPS]
            .iter()
            .flat_map(|r| r.digest.to_le_bytes())
            .collect();
        harness::artifact::fnv1a(&bytes)
    }
}

/// Times `rounds` set-ups: generating rep 0's inputs from the seed and
/// warming up on them.
fn set_up<W: Workload>(args: &RunArgs, rounds: usize, setups: &mut Vec<f64>) {
    for _ in 0..rounds {
        let start = Instant::now();
        W::warm_up(&W::generate(args.seed, 0, args.smoke));
        setups.push(start.elapsed().as_secs_f64());
    }
}

fn measure<W: Workload>(args: &RunArgs) -> Measured {
    // Held until the traced drive is done; the probes run unpinned.
    let pin = W::ONE_CORE.then(machine::OneCore::pin).flatten();
    let mut setups = Vec::new();
    set_up::<W>(args, SETUP_ROUNDS[0], &mut setups);
    // The reps the traced drive repeats keep their inputs; every rep's
    // inputs are generated off the clock.
    let kept: Vec<W::Inputs> = (0..TRACED_REPS as u64)
        .map(|r| W::generate(args.seed, r, args.smoke))
        .collect();
    // Untraced reps, back to back, for the measuring time. Rep r runs
    // the r-th slice of the seed's unit stream.
    let mut reps: Vec<Rep> = Vec::new();
    let mut rep_s: Vec<f64> = Vec::new();
    let timed = Instant::now();
    while reps.len() < TRACED_REPS || timed.elapsed().as_secs_f64() < args.seconds {
        let later;
        let inputs = match kept.get(reps.len()) {
            Some(inputs) => inputs,
            None => {
                later = W::generate(args.seed, reps.len() as u64, args.smoke);
                &later
            }
        };
        let start = Instant::now();
        let rep = W::rep(inputs);
        rep_s.push(start.elapsed().as_secs_f64());
        reps.push(rep);
    }
    let peak_rss_mb = machine::peak_rss_mb();
    set_up::<W>(args, SETUP_ROUNDS[1], &mut setups);

    // The traced drive: a second execution of the first reps' inputs.
    let mut log = SpanLog::default();
    let root = log.open("workload", None, 0);
    let traced = W::traced(&kept, &mut log, root);
    log.close(root);
    let traced_s = log.spans()[root].duration_ns() as f64 / 1e9;
    let rerun_s = args.trace.then(|| {
        let start = Instant::now();
        for inputs in &kept {
            std::hint::black_box(W::rep(inputs).digest);
        }
        start.elapsed().as_secs_f64()
    });
    set_up::<W>(args, SETUP_ROUNDS[2], &mut setups);
    Measured {
        setups,
        pinned: pin.is_some(),
        reps,
        rep_s,
        peak_rss_mb,
        log,
        traced,
        traced_s,
        rerun_s,
    }
}

/// What is wrong with the run's outputs, if anything.
fn output_problems(m: &Measured) -> Vec<String> {
    let mut problems = Vec::new();
    // The workloads hold no operation that fails at the commit the
    // benchmark was defined on: one that does now is a wrong output (a
    // diverged mesh cell, a broken invariant, a network that never
    // formed).
    let failed: u64 = m.reps.iter().map(|r| r.failed).sum();
    if failed > 0 {
        problems.push(format!("{failed} operations failed"));
    }
    for (r, (rep, traced)) in m.reps.iter().zip(&m.traced.digests).enumerate() {
        if rep.digest != *traced {
            problems.push(format!(
                "traced drive diverged from rep {r} on the same inputs: digest {traced:016x} vs {:016x}",
                rep.digest
            ));
        }
    }
    if m.traced.digests.len() != TRACED_REPS {
        problems.push(format!(
            "traced drive covered {} reps, not {TRACED_REPS}",
            m.traced.digests.len()
        ));
    }
    let self_sum: u64 = m.log.self_by_name().values().map(|(ns, _)| ns).sum();
    let unaccounted = (self_sum as f64 / 1e9 - m.traced_s).abs() / m.traced_s;
    if unaccounted > 0.02 {
        problems.push(format!(
            "span self times miss the traced wall by {:.1}%",
            unaccounted * 100.0
        ));
    }
    problems
}

fn end_to_end(m: &Measured) -> MetricValues {
    let metrics = &m.traced.metrics;
    MetricValues::from([
        ("setup_s", median(&m.setups)),
        ("wall_s", m.wall_s()),
        // Joins per rep, over the reps the traced drive covered.
        (
            "joins_per_s",
            ratio(
                metrics.configured_nodes() as f64 / TRACED_REPS as f64,
                m.wall_s(),
            ),
        ),
        ("peak_rss_mb", m.peak_rss_mb),
        (
            "config_latency_mean_hops",
            metrics.mean_config_latency().unwrap_or(0.0),
        ),
    ])
}

/// The per-layer values: probes, then what the traced drive and the
/// untraced reps say about each layer. A layer the workload does not
/// reach reads 0.
fn per_layer<W: Workload>(m: &Measured, probed: MetricValues) -> MetricValues {
    let metrics = &m.traced.metrics;
    let (perf, faults) = (metrics.perf(), metrics.faults());
    let per_rep = |total: u64| total as f64 / TRACED_REPS as f64;
    let configured = metrics.configured_nodes() as f64;
    let busy = &m.traced.quorum_busy;
    let unit_ms: Vec<f64> = m
        .reps
        .iter()
        .flat_map(|r| r.unit_ms.iter().copied())
        .collect();
    let build_us = probed[W::REBUILD_PROBE];
    let handler_s: f64 = KIND_SPANS.iter().map(|name| m.log.total_s(name)).sum();
    // Without handler spans (`run_sweep` builds its own protocols) the
    // remainder is not the loop's: report 0.
    let loop_self_s = if handler_s > 0.0 {
        (m.traced_s - handler_s - m.log.total_s("checker")) / TRACED_REPS as f64
    } else {
        0.0
    };

    let mut values = probed;
    values.extend([
        ("manet-sim.sim.events", per_rep(perf.events)),
        ("manet-sim.sim.deliveries", per_rep(perf.deliveries)),
        ("manet-sim.sim.timers_fired", per_rep(perf.timers_fired)),
        (
            "manet-sim.sim.queue_high_water",
            perf.queue_high_water as f64,
        ),
        (
            "manet-sim.sim.events_per_join",
            ratio(perf.events as f64, configured),
        ),
        (
            "manet-sim.sim.ns_per_event",
            ratio(m.wall_s() * 1e9, per_rep(perf.events)),
        ),
        ("manet-sim.sim.loop_self_s", loop_self_s),
        ("manet-sim.world.topo_builds", per_rep(perf.topo_builds)),
        ("manet-sim.world.topo_hits", per_rep(perf.topo_hits)),
        (
            "manet-sim.world.topo_hit_ratio",
            ratio(
                perf.topo_hits as f64,
                (perf.topo_hits + perf.topo_builds) as f64,
            ),
        ),
        (
            "manet-sim.topology.est_busy_s",
            per_rep(perf.topo_builds) * build_us / 1e6,
        ),
        ("manet-sim.faults.dropped", per_rep(faults.dropped)),
        ("manet-sim.faults.delayed", per_rep(faults.delayed)),
        ("manet-sim.faults.duplicated", per_rep(faults.duplicated)),
        (
            "proto-io.metrics.configured_per_spawn",
            ratio(configured, m.traced.spawned as f64),
        ),
        (
            "proto-io.metrics.config_latency_p99_hops",
            metrics.config_latency().p99().unwrap_or(0) as f64,
        ),
        (
            "proto-io.metrics.hops_per_join",
            ratio(metrics.total_hops() as f64, configured),
        ),
        ("qbac-core.handle.msg_ns", busy.mean_ns(Kind::Msg)),
        ("qbac-core.handle.timer_ns", busy.mean_ns(Kind::Timer)),
        ("qbac-core.handle.join_ns", busy.mean_ns(Kind::Join)),
        ("qbac-core.handle.busy_s", per_rep(busy.total_ns()) / 1e9),
        (
            "qbac-core.hello_share",
            ratio(
                metrics.messages(proto_io::MsgCategory::Hello) as f64,
                metrics.total_messages() as f64,
            ),
        ),
        (
            "qbac-core.vote_rounds_mean",
            metrics.vote_rounds().mean().unwrap_or(0.0),
        ),
        (
            "qbac-core.retries_per_join",
            ratio(metrics.retries().sum() as f64, configured),
        ),
        ("harness.unit_ms_p50", median(&unit_ms)),
        // A tail read off fewer than ten samples beyond it is noise:
        // the metric stays 0 and the report says so.
        (
            "harness.unit_ms_p95",
            percentile_if_supported(&unit_ms, 95.0, 10).unwrap_or(0.0),
        ),
        ("trace_overhead_frac", m.traced_s / m.untraced_s() - 1.0),
    ]);
    values.extend(m.traced.layer.iter().map(|(k, v)| (*k, *v)));
    for def in PER_LAYER {
        values.entry(def.name).or_insert(0.0);
    }
    values
}

fn drive<W: Workload>(args: &RunArgs) -> RunOutput {
    let machine = Machine::probe();
    let before = Sentinel::read();
    let m = measure::<W>(args);
    let mut problems = output_problems(&m);

    let mut probe_times = Vec::new();
    let mut values = if args.trace {
        let (probed, took) = probes::run_all(args.seed, args.smoke);
        probe_times = took;
        per_layer::<W>(&m, probed)
    } else {
        end_to_end(&m)
    };
    let after = Sentinel::read();
    if args.trace {
        values.insert("machine.calib_ms", (before.calib_ms + after.calib_ms) / 2.0);
    }
    if let Some(path) = &args.spans_out {
        if let Err(e) = std::fs::write(path, m.log.to_json()) {
            problems.push(format!("could not write spans to {}: {e}", path.display()));
        }
    }

    let drift = machine::drift(before.calib_ms, after.calib_ms);
    let noisy = drift > machine::NOISY_DRIFT;
    let digest = m.digest();
    let attempted: u64 = m.reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = m.reps.iter().map(|r| r.failed).sum();

    // The human-readable account.
    let mut report = String::new();
    let _ = writeln!(
        report,
        "workload {} seed {} ({} mode{}): closed loop, one worker thread, {} reps of {} ops each in {:.2} s",
        W::NAME,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        if args.smoke { ", smoke sizes" } else { "" },
        m.reps.len(),
        m.reps[0].attempted,
        m.rep_s.iter().sum::<f64>(),
    );
    let _ = writeln!(
        report,
        "machine: {} cpus, {}, {}, commit {}",
        machine.nproc, machine.cpu, machine.rustc, machine.commit
    );
    let _ = writeln!(
        report,
        "sentinel: calib {:.2} ms -> {:.2} ms (drift {:.1}%), loadavg {:.2} -> {:.2}{}",
        before.calib_ms,
        after.calib_ms,
        drift * 100.0,
        before.loadavg,
        after.loadavg,
        if noisy {
            " -- NOISY: the machine changed speed under this run"
        } else {
            ""
        }
    );
    if !W::CAVEAT.is_empty() {
        let _ = writeln!(report, "note: {}", W::CAVEAT);
    }
    if W::ONE_CORE {
        let _ = writeln!(
            report,
            "note: {}",
            if m.pinned {
                "kept on one CPU, so lockstep hand-offs do not wait on the host to wake another"
            } else {
                "could NOT be kept on one CPU: hand-offs between cores make this run slower and unsteady"
            }
        );
    }
    let _ = writeln!(
        report,
        "behaviour_digest {digest:016x}  ops_attempted {attempted}  ops_failed {failed}  failed_frac {}",
        ratio(failed as f64, attempted as f64)
    );
    let _ = writeln!(
        report,
        "set-up s, in rounds of {SETUP_ROUNDS:?}: {}  (median {:.4})",
        m.setups
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
        median(&m.setups)
    );
    let _ = writeln!(
        report,
        "rep wall s (first 12): {}  (median {:.4}, n={})",
        m.rep_s
            .iter()
            .take(12)
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
        m.wall_s(),
        m.rep_s.len()
    );
    let _ = writeln!(
        report,
        "traced drive of the first {TRACED_REPS} reps' inputs {:.4} s = {:+.1}% over the same reps untraced ({:.4} s{}); self time by layer:",
        m.traced_s,
        (m.traced_s / m.untraced_s() - 1.0) * 100.0,
        m.untraced_s(),
        if m.rerun_s.is_some() {
            ", mean of a pass before and a pass after"
        } else {
            ""
        }
    );
    for (name, (ns, count)) in m.log.self_by_name() {
        let _ = writeln!(
            report,
            "  {name:<16} {:>10.4} s  {:>5.1}%  ({count} calls)",
            ns as f64 / 1e9,
            ns as f64 / 1e7 / m.traced_s
        );
    }
    if !probe_times.is_empty() {
        let _ = writeln!(
            report,
            "probes: {}",
            probe_times
                .iter()
                .map(|(name, s)| format!("{name} {s:.2} s"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    for def in if args.trace { PER_LAYER } else { END_TO_END } {
        let note = if def.name == "harness.unit_ms_p95" && values[def.name] == 0.0 {
            "  (unsupported: fewer than ten samples beyond p95)"
        } else {
            ""
        };
        let _ = writeln!(
            report,
            "{:<48} {:>16.6} {}{note}",
            def.name, values[def.name], def.unit
        );
    }
    for p in &problems {
        let _ = writeln!(report, "ERROR: {p}");
    }

    let detail = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"behaviour_digest\":\"{digest:016x}\",\"reps\":{},\"ops_attempted\":{attempted},\"ops_failed\":{failed},\"noisy\":{noisy},\"calib_ms\":[{},{}],\"loadavg\":[{},{}],\"machine\":{}}}",
        W::NAME,
        args.seed,
        args.trace,
        m.reps.len(),
        before.calib_ms,
        after.calib_ms,
        before.loadavg,
        after.loadavg,
        machine.to_json(),
    );
    RunOutput {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: values,
        report,
        detail,
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the metrics in registry order with all their digits.
#[must_use]
pub fn result_line(out: &RunOutput, trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|def| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                def.name,
                json_number(out.metrics[def.name]),
                def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(",")
    )
}

/// A float as a JSON number: shortest round-trip digits, and 0 for the
/// non-finite values JSON cannot carry.
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run of `TRACED_REPS` reps whose traced drive saw `traced`
    /// digests and whose last rep failed `failed` operations.
    fn measured(traced: Vec<u64>, failed: u64) -> Measured {
        let mut log = SpanLog::default();
        let root = log.open("workload", None, 0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        log.close(root);
        let traced_s = log.spans()[root].duration_ns() as f64 / 1e9;
        let mut reps: Vec<Rep> = (0..TRACED_REPS as u64)
            .map(|digest| Rep {
                digest,
                unit_ms: vec![1.0],
                attempted: 4,
                failed: 0,
            })
            .collect();
        reps[TRACED_REPS - 1].failed = failed;
        Measured {
            setups: vec![0.1],
            pinned: false,
            rep_s: vec![1.0; reps.len()],
            reps,
            peak_rss_mb: 1.0,
            log,
            traced: Traced {
                digests: traced,
                ..Traced::default()
            },
            traced_s,
            rerun_s: None,
        }
    }

    #[test]
    fn failed_operations_and_diverged_reps_are_wrong_outputs() {
        let same: Vec<u64> = (0..TRACED_REPS as u64).collect();
        assert!(output_problems(&measured(same.clone(), 0)).is_empty());

        let problems = output_problems(&measured(same.clone(), 2));
        assert_eq!(problems, ["2 operations failed"]);

        let mut diverged = same.clone();
        diverged[1] = 99;
        let problems = output_problems(&measured(diverged, 0));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("diverged from rep 1"), "{problems:?}");

        let problems = output_problems(&measured(same[..1].to_vec(), 0));
        assert!(problems[0].contains("covered 1 reps"), "{problems:?}");
    }
}
