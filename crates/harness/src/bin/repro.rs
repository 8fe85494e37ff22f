//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro figures             # every figure, default replication
//! repro figures --fig 5     # one figure
//! repro figures --rounds 50 # more replications (paper used 1000)
//! repro figures --quick     # shrunken sweeps (seconds, for smoke tests)
//! repro figures --csv out/  # also write one CSV per table
//! repro figures --metrics-out snapshot.json  # run manifest + metrics snapshot
//! repro figures --trace-out traces/          # per-protocol JSONL flow traces
//! repro chaos               # fault-injection suite (loss sweep + head kills)
//! repro chaos --loss 0.2 --head-kills 2      # one chaos cell
//! repro chaos --fault-plan plan.txt          # scripted faults (see DESIGN.md)
//! repro check               # conformance oracle: invariants after every event,
//!                           # attack canaries and their degradation table
//! repro check --quick --artifact-dir out/    # CI smoke; shrunk repros on failure
//! repro check --rounds 300                   # seed axis: world_seed + 0..300
//! repro replay out/quorum-storm.repro        # byte-for-byte reproduction
//! repro sweep --quick --threads 4 --out sweep.json   # parallel grid sweep
//! repro sweep --quick --mobility manhattan:100 --mobility group:4,50
//! repro scale --out BENCH_scale.json         # city-scale sharded join storm
//! repro scale --n 10000 --out scale.json     # CI smoke cell
//! repro topology --out BENCH_topology.json   # strip-sweep vs naive build timings
//! repro gate BENCH_sweep.json sweep.json     # regression gate vs baseline
//! repro gate BENCH_scale.json scale.json --subset    # smoke vs committed baseline
//! repro fuzz --time-budget 60s --seed 42     # coverage-guided schedule fuzz
//! repro mesh                                 # storm + attack canary over real UDP,
//!                                            # transcripts diffed against the simulator
//!                                            # (3x2, CI's equivalence smoke)
//! repro mesh --quick                         # 2x2 at nn 12: both QBAC variants only
//! ```
//!
//! The first argument picks the subcommand (none means `figures`), and
//! each subcommand accepts exactly the flags [`Mode::flags`] lists for
//! it; anything else is an `unknown argument for <subcommand>` error.
//!
//! With `REPRO_NO_WALL_CLOCK=1` the snapshot's per-phase `wall_us`
//! fields render as 0, making same-seed snapshots byte-identical.

use harness::chaos::{chaos_suite, ChaosOpts};
use harness::figures::{self, FigOpts};
use harness::snapshot::{self, Phase, Snapshot, SnapshotParams};
use manet_sim::{FaultPlan, MobilityConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The subcommands. `repro` with no subcommand is `Figures`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Mode {
    #[default]
    Figures,
    Chaos,
    Check,
    Replay,
    Sweep,
    Scale,
    Topology,
    Gate,
    Fuzz,
    Mesh,
}

impl Mode {
    const ALL: [Mode; 10] = [
        Mode::Figures,
        Mode::Chaos,
        Mode::Check,
        Mode::Replay,
        Mode::Sweep,
        Mode::Scale,
        Mode::Topology,
        Mode::Gate,
        Mode::Fuzz,
        Mode::Mesh,
    ];

    fn name(self) -> &'static str {
        match self {
            Mode::Figures => "figures",
            Mode::Chaos => "chaos",
            Mode::Check => "check",
            Mode::Replay => "replay",
            Mode::Sweep => "sweep",
            Mode::Scale => "scale",
            Mode::Topology => "topology",
            Mode::Gate => "gate",
            Mode::Fuzz => "fuzz",
            Mode::Mesh => "mesh",
        }
    }

    /// The flags this subcommand reads. A flag outside its list is an
    /// unknown argument, never silently ignored.
    fn flags(self) -> &'static [&'static str] {
        match self {
            Mode::Figures => &[
                "--fig",
                "--rounds",
                "--seed",
                "--quick",
                "--csv",
                "--metrics-out",
                "--trace-out",
            ],
            Mode::Chaos => &[
                "--loss",
                "--head-kills",
                "--fault-plan",
                "--rounds",
                "--seed",
                "--quick",
                "--csv",
                "--metrics-out",
                "--trace-out",
            ],
            Mode::Check => &["--quick", "--artifact-dir", "--rounds"],
            Mode::Replay => &[],
            Mode::Sweep => &[
                "--quick",
                "--seed",
                "--threads",
                "--out",
                "--with-chaos",
                "--mobility",
            ],
            Mode::Scale => &["--quick", "--n", "--threads", "--seed", "--out"],
            Mode::Topology => &["--out"],
            Mode::Gate => &["--tolerance", "--subset"],
            Mode::Fuzz => &[
                "--time-budget",
                "--seed",
                "--protocol",
                "--quick",
                "--artifact-dir",
                "--out",
            ],
            Mode::Mesh => &["--quick", "--seed"],
        }
    }

    /// How many positional file arguments the subcommand takes.
    fn files(self) -> usize {
        match self {
            Mode::Gate => 2,
            Mode::Replay => 1,
            _ => 0,
        }
    }
}

/// The parsed command line. Every field other than `mode` belongs to
/// one flag (or, for `files`, the positionals); a field stays at its
/// default when the subcommand does not list the flag.
#[derive(Debug, Default)]
struct Args {
    mode: Mode,
    /// `--seed`, `--quick`; see [`Args::round_count`] for `--rounds`.
    opts: FigOpts,
    rounds: Option<u64>,
    fig: Option<u32>,
    csv_dir: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    loss: Option<f64>,
    head_kills: Option<u32>,
    fault_plan: Option<FaultPlan>,
    artifact_dir: Option<PathBuf>,
    threads: Option<usize>,
    out: Option<PathBuf>,
    with_chaos: bool,
    /// `--mobility SPEC`, repeatable; each spec pre-validated against
    /// the [`MobilityConfig::parse`] grammar.
    mobilities: Option<Vec<String>>,
    /// `--n N`, repeatable: total node counts, one cell each.
    sizes: Option<Vec<usize>>,
    tolerance: Option<f64>,
    subset: bool,
    time_budget: Option<String>,
    protocol: Option<String>,
    /// `gate BASELINE CANDIDATE` / `replay FILE`.
    files: Vec<PathBuf>,
}

impl Args {
    /// `--rounds`, or the subcommand's default when it was not given:
    /// one seed round for `check`, the figures' replication count for
    /// `figures` and `chaos`.
    fn round_count(&self) -> u64 {
        self.rounds.unwrap_or(match self.mode {
            Mode::Check => 1,
            _ => FigOpts::default().rounds,
        })
    }
}

fn value(it: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs {what}"))
}

fn number<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value(it, flag, what)?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut it = argv.peekable();
    let named = it
        .peek()
        .and_then(|first| Mode::ALL.into_iter().find(|m| m.name() == first));
    if named.is_some() {
        it.next();
    }
    let mode = named.unwrap_or_default();
    let mut a = Args {
        mode,
        ..Args::default()
    };
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        if matches!(flag, "--help" | "-h") {
            print_help();
            std::process::exit(0);
        }
        if !flag.starts_with("--") && a.files.len() < mode.files() {
            a.files.push(PathBuf::from(flag));
            continue;
        }
        if !mode.flags().contains(&flag) {
            return Err(format!("unknown argument for {}: {flag}", mode.name()));
        }
        match flag {
            "--fig" => a.fig = Some(number(&mut it, flag, "a number (4-18)")?),
            "--rounds" => {
                let r = number(&mut it, flag, "a number")?;
                if r == 0 {
                    return Err("--rounds must be at least 1".into());
                }
                a.rounds = Some(r);
            }
            "--seed" => a.opts.seed = number(&mut it, flag, "a number")?,
            "--quick" => a.opts.quick = true,
            "--csv" => a.csv_dir = Some(value(&mut it, flag, "a directory")?.into()),
            "--metrics-out" => a.metrics_out = Some(value(&mut it, flag, "a file path")?.into()),
            "--trace-out" => a.trace_out = Some(value(&mut it, flag, "a directory")?.into()),
            "--loss" => {
                let p: f64 = number(&mut it, flag, "a probability (0-1)")?;
                if !(0.0..=1.0).contains(&p) {
                    return Err("--loss must be within 0-1".into());
                }
                a.loss = Some(p);
            }
            "--head-kills" => a.head_kills = Some(number(&mut it, flag, "a count")?),
            "--fault-plan" => {
                let v = value(&mut it, flag, "a file path")?;
                let text = std::fs::read_to_string(&v)
                    .map_err(|e| format!("--fault-plan: reading {v}: {e}"))?;
                let plan = FaultPlan::parse(&text)
                    .map_err(|e| format!("--fault-plan: parsing {v}: {e}"))?;
                a.fault_plan = Some(plan);
            }
            "--artifact-dir" => a.artifact_dir = Some(value(&mut it, flag, "a directory")?.into()),
            "--threads" => {
                let t: usize = number(&mut it, flag, "a count")?;
                if t == 0 {
                    return Err("--threads must be at least 1".into());
                }
                a.threads = Some(t);
            }
            "--out" => a.out = Some(value(&mut it, flag, "a file path")?.into()),
            "--with-chaos" => a.with_chaos = true,
            "--mobility" => {
                // Repeatable: each occurrence adds one model to the
                // sweep's mobility axis (specs may contain commas).
                let v = value(&mut it, flag, "a model spec (e.g. manhattan:100)")?;
                MobilityConfig::parse(&v).map_err(|e| format!("--mobility: {e}"))?;
                a.mobilities.get_or_insert_with(Vec::new).push(v);
            }
            "--n" => {
                let n: usize = number(&mut it, flag, "a node count")?;
                if n == 0 {
                    return Err("--n must be at least 1".into());
                }
                a.sizes.get_or_insert_with(Vec::new).push(n);
            }
            "--tolerance" => {
                let t: f64 = number(&mut it, flag, "a fraction (e.g. 0.1)")?;
                if !(0.0..=10.0).contains(&t) {
                    return Err("--tolerance must be within 0-10".into());
                }
                a.tolerance = Some(t);
            }
            "--subset" => a.subset = true,
            "--time-budget" => {
                a.time_budget = Some(value(&mut it, flag, "a duration (e.g. 60s)")?);
            }
            "--protocol" => a.protocol = Some(value(&mut it, flag, "a registry name")?),
            _ => unreachable!("{flag} is listed for {} without a parser", mode.name()),
        }
    }
    if a.files.len() != mode.files() {
        return Err(match mode {
            Mode::Gate => "gate needs exactly two files: gate BASELINE CANDIDATE",
            _ => "replay needs an artifact file path",
        }
        .into());
    }
    Ok(a)
}

fn print_help() {
    println!(
        "usage: repro [figures] [--fig N] [--rounds R] [--seed S] [--quick] [--csv DIR]\n\
         \x20            [--metrics-out FILE] [--trace-out DIR]\n\
         \x20      repro chaos [--loss P] [--head-kills K] [--fault-plan FILE] [--rounds R]\n\
         \x20                  [--seed S] [--quick] [--csv DIR] [--metrics-out FILE] [--trace-out DIR]\n\
         \x20      repro check [--quick] [--artifact-dir DIR] [--rounds R]\n\
         \x20      repro replay FILE\n\
         \x20      repro sweep [--quick] [--threads N] [--out FILE] [--seed S] [--with-chaos]\n\
         \x20                  [--mobility SPEC]...\n\
         \x20      repro scale [--quick] [--n N]... [--threads N] [--seed S] [--out BENCH_scale.json]\n\
         \x20      repro topology [--out BENCH_topology.json]\n\
         \x20      repro gate BASELINE CANDIDATE [--tolerance F] [--subset]\n\
         \x20      repro fuzz [--time-budget 60s] [--seed S] [--protocol P] [--quick]\n\
         \x20                 [--artifact-dir DIR] [--out FILE]\n\
         \x20      repro mesh [--quick] [--seed S]\n\
         Regenerates the evaluation figures (4-14, extras 15-18) of the quorum-based\n\
         IP autoconfiguration paper. Default subcommand: figures, {} rounds.\n\
         A flag a subcommand does not list above is an error, not ignored.\n\
         chaos runs the fault-injection suite: message-loss sweep plus scheduled\n\
         cluster-head kills, auditing duplicate addresses, address leaks and\n\
         join-latency inflation for every protocol.\n\
         --metrics-out writes a run manifest (seed, params, per-phase wall-clock,\n\
         per-protocol counters and histograms); --trace-out writes one JSONL flow\n\
         trace per protocol.\n\
         check runs the conformance oracle: every protocol under every canned\n\
         chaos schedule with invariants verified after each simulator event; a\n\
         violation is shrunk to a minimal replayable artifact (--artifact-dir),\n\
         and replay re-runs one artifact demanding byte-for-byte reproduction.\n\
         --rounds R (default 1) runs round r at world and plan seed\n\
         world_seed + r and ends with a per-invariant violation tally.\n\
         check also runs the attack-canary smoke: every pinned adversarial\n\
         schedule must be caught against open QBAC and held by the hardened\n\
         variant; it prints the degradation table for those canaries.\n\
         sweep fans a parameter grid (protocol x size x mobility x loss, plus\n\
         chaos schedules with --with-chaos) across worker threads and merges\n\
         per-shard telemetry into one deterministic sweep.json. --mobility\n\
         overrides the grid's mobility axis (random-waypoint, manhattan:SPACING,\n\
         group:SIZE,RADIUS, flash-crowd:RADIUS,UNTIL; repeat the flag for\n\
         several models).\n\
         scale decomposes a city-scale join storm into spatially disjoint\n\
         shard simulations fanned across worker threads (merged in a fixed\n\
         order, so the artifact is byte-identical for any --threads).\n\
         topology times the strip-sweep topology build, BFS and flood against\n\
         the naive all-pairs build at n = 100, 200, 350, 500 (wall clock, so\n\
         never byte-identical); every other timing lives in perf/.\n\
         gate compares two sweep artifacts and exits nonzero when a\n\
         latency/overhead/configured metric regresses past the tolerance\n\
         (default 10%); --subset compares only the cells both artifacts\n\
         share (for smoke runs gated against a larger committed baseline).\n\
         fuzz mutates fault schedules coverage-guided against the conformance\n\
         oracle for a deterministic simulated-time budget; violations are\n\
         shrunk to replayable artifacts (--artifact-dir) and the campaign\n\
         report (--out) is byte-identical for the same protocol/seed/budget.\n\
         mesh reruns the storm schedule and the squat attack canary with\n\
         every delivery carried over real UDP sockets (hop-by-hop along the\n\
         link map) and diffs the sans-io protocol transcripts against the\n\
         simulator; any divergence prints a minimized report and exits\n\
         nonzero. --quick shrinks it to 2x2 (QBAC open and hardened, nn 12).",
        FigOpts::default().rounds
    );
}

/// What a subcommand reports: `Ok(true)` exits 0, `Ok(false)` exits 1
/// (the run itself already said why), and `Err` prints `error: ...`
/// before exiting 1.
type Outcome = Result<bool, String>;

/// Writes one output file through the artifact seam and says so.
fn write_out(path: &Path, contents: &str) -> Result<(), String> {
    harness::artifact::write_file(path, contents)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn make_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// [`write_out`] into a directory that may not exist yet.
fn write_into(dir: &Path, file_name: &str, contents: &str) -> Result<(), String> {
    make_dir(dir)?;
    write_out(&dir.join(file_name), contents)
}

fn read_in(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Runs `f` and records its wall time as a snapshot phase.
fn timed<T>(phases: &mut Vec<Phase>, name: String, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    phases.push(Phase {
        name,
        wall_us: t0.elapsed().as_micros() as u64,
    });
    out
}

/// Runs `repro sweep`: the parallel grid sweep, writing the merged
/// artifact when `--out` is given.
fn run_sweep_mode(args: &Args) -> Outcome {
    let threads = args.threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
    });
    let mut grid = if args.opts.quick {
        harness::SweepGrid::smoke(args.opts.seed)
    } else {
        harness::SweepGrid::full(args.opts.seed)
    };
    if args.with_chaos {
        grid.plans = vec![
            "none".into(),
            "storm".into(),
            "splitbrain".into(),
            "reaper".into(),
        ];
    }
    if let Some(mobilities) = &args.mobilities {
        grid.mobilities = mobilities.clone();
    }
    let report = harness::run_sweep(&grid, threads).map_err(|e| e.to_string())?;
    for (cell, panic) in &report.failed {
        eprintln!("sweep FAIL {cell}: {panic}");
    }
    eprintln!(
        "sweep: {} cells over {} threads, {} failed, fingerprint fnv1a:{:016x}",
        report.cells.len(),
        threads,
        report.failed.len(),
        report.fingerprint()
    );
    if let Some(path) = &args.out {
        let json = if std::env::var_os("REPRO_NO_WALL_CLOCK").is_some() {
            report.deterministic_json()
        } else {
            report.to_json()
        };
        write_out(path, &json)?;
    }
    Ok(report.failed.is_empty())
}

/// Runs `repro scale`: the sharded city-scale join-storm, writing
/// `BENCH_scale.json` when `--out` is given. `--n` (repeatable)
/// overrides the size axis.
fn run_scale_mode(args: &Args) -> Outcome {
    let cfg = harness::ScaleConfig {
        sizes: args.sizes.clone().unwrap_or_else(|| {
            if args.opts.quick {
                vec![1_000]
            } else {
                harness::scale::DEFAULT_SIZES.to_vec()
            }
        }),
        base_seed: args.opts.seed,
        threads: args.threads.unwrap_or(0),
        quick: args.opts.quick,
        ..harness::ScaleConfig::default()
    };
    let report = harness::run_scale(&cfg);
    for (cell, shard, panic) in &report.failed {
        eprintln!("scale FAIL {cell} shard {shard}: {panic}");
    }
    for c in &report.cells {
        eprintln!(
            "scale n={} shards={} configured={} sim={}s wall={}s",
            c.params.nn,
            c.reps,
            c.metrics.configured_nodes(),
            c.sim_us / 1_000_000,
            c.wall_us / 1_000_000,
        );
    }
    eprintln!("scale: fingerprint fnv1a:{:016x}", report.fingerprint());
    if let Some(path) = &args.out {
        let json = if std::env::var_os("REPRO_NO_WALL_CLOCK").is_some() {
            report.deterministic_json()
        } else {
            report.to_json()
        };
        write_out(path, &json)?;
    }
    Ok(report.failed.is_empty())
}

/// Runs `repro topology`: the naive-vs-strip-sweep build baseline,
/// writing `BENCH_topology.json` when `--out` is given.
fn run_topology_mode(args: &Args) -> Outcome {
    let rows = harness::topology_baseline::run_topology_baseline();
    for r in &rows {
        println!(
            "topology n={}: naive build {:.1}us, grid build {:.1}us ({:.1}x), \
             bfs fresh {:.2}us, bfs memoized {:.3}us, flood+deliver {:.1}us",
            r.n,
            r.naive_build_us,
            r.grid_build_us,
            r.build_speedup(),
            r.bfs_fresh_us,
            r.bfs_memo_us,
            r.flood_deliver_us,
        );
    }
    if let Some(path) = &args.out {
        write_out(path, &harness::topology_baseline::to_json(&rows))?;
    }
    Ok(true)
}

/// Runs `repro fuzz`: a coverage-guided campaign against one protocol,
/// writing shrunk finding artifacts (`--artifact-dir`) and the
/// deterministic campaign report (`--out`). Exits nonzero when the
/// fuzzer found invariant violations.
fn run_fuzz_mode(args: &Args) -> Outcome {
    let budget_text = args.time_budget.as_deref().unwrap_or("60s");
    let budget =
        harness::parse_time_budget(budget_text).map_err(|e| format!("--time-budget: {e}"))?;
    let protocol = args.protocol.clone().unwrap_or_else(|| "quorum".into());
    if !conformance::registry::CHECKABLE.contains(&protocol.as_str()) {
        return Err(format!(
            "--protocol {protocol:?} is not checkable; pick one of {}",
            conformance::registry::CHECKABLE.join(", ")
        ));
    }
    let report = harness::run_fuzz(&harness::FuzzConfig {
        protocol,
        budget,
        seed: args.opts.seed,
        quick: args.opts.quick,
    });
    print!("{}", report.render_text());
    if let Some(dir) = &args.artifact_dir {
        // The directory appears even for a clean campaign, so CI can
        // upload it unconditionally.
        make_dir(dir)?;
        for (i, finding) in report.findings.iter().enumerate() {
            let path = dir.join(format!("fuzz-{}-{i}.repro", report.protocol));
            write_out(&path, &finding.artifact.to_text())?;
        }
    }
    if let Some(path) = &args.out {
        write_out(path, &report.render_text())?;
    }
    if !report.findings.is_empty() {
        eprintln!(
            "fuzz: {} invariant violation(s) found (artifacts above are replayable)",
            report.findings.len()
        );
    }
    Ok(report.findings.is_empty())
}

/// Runs `repro mesh`: the canned schedules end-to-end on both
/// transports, demanding byte-identical transcripts. Exits nonzero on
/// any divergence, printing the minimized first-difference report.
fn run_mesh_mode(args: &Args) -> bool {
    let cells = harness::mesh_equiv_suite(args.opts.quick, args.opts.seed);
    let mut failed = false;
    for cell in &cells {
        println!("{}", cell.line());
        if let Some(diff) = &cell.diff {
            failed = true;
            eprintln!("{diff}");
        }
        failed |= !cell.ok();
    }
    if failed {
        eprintln!("mesh: transcript divergence between simulator and UDP mesh (see diffs above)");
    }
    !failed
}

/// Runs `repro gate BASELINE CANDIDATE`: nonzero exit on regression.
fn run_gate_mode(args: &Args) -> Outcome {
    let (base_text, cand_text) = (read_in(&args.files[0])?, read_in(&args.files[1])?);
    let tolerance = args.tolerance.unwrap_or(0.10);
    let report = if args.subset {
        harness::gate_subset(&base_text, &cand_text, tolerance)
    } else {
        harness::gate(&base_text, &cand_text, tolerance)
    }
    .map_err(|e| e.to_string())?;
    print!("{}", report.render_text());
    Ok(report.pass())
}

/// Runs `repro replay FILE`: one artifact, byte-for-byte.
fn run_replay_mode(args: &Args) -> Outcome {
    let (line, ok) = harness::oracle::replay_file(&read_in(&args.files[0])?);
    println!("{line}");
    Ok(ok)
}

/// Runs `repro check`: the protocol × schedule suite over the seed
/// rounds, then the attack canaries and their degradation table, then
/// the violation tally; shrunk artifacts are written on failure.
fn run_check_mode(args: &Args) -> Outcome {
    let suite = harness::oracle::check_suite(args.opts.quick, args.round_count());
    let attacks = harness::attacks::attack_suite();
    let mut failed = false;
    for cell in suite
        .iter()
        .chain(&harness::attacks::canary_suite(&attacks))
    {
        println!("{}", cell.line);
        failed |= !cell.ok;
        if let (Some(dir), Some(artifact)) = (&args.artifact_dir, &cell.artifact) {
            write_into(dir, &format!("{}.repro", cell.stem), &artifact.to_text())?;
        }
    }
    println!("{}", harness::attacks::attack_table(&attacks).to_ascii());
    println!("{}", harness::oracle::tally_line(&suite));
    if failed {
        eprintln!("conformance: invariant violations found (artifacts above are replayable)");
    }
    Ok(!failed)
}

/// Runs `repro figures` / `repro chaos`: prints the tables, then writes
/// the CSVs, the run manifest and the flow traces that were asked for.
fn run_tables_mode(args: &Args) -> Outcome {
    let opts = FigOpts {
        rounds: args.round_count(),
        ..args.opts
    };
    let mut phases: Vec<Phase> = Vec::new();
    let tables = if args.mode == Mode::Chaos {
        let opts = ChaosOpts {
            fig: opts,
            loss: args.loss,
            head_kills: args.head_kills.unwrap_or(2),
            extra_plan: args.fault_plan.clone(),
        };
        timed(&mut phases, "chaos".into(), || chaos_suite(&opts))
    } else if let Some(n) = args.fig {
        let found = timed(&mut phases, format!("fig{n:02}"), || {
            figures::by_number(n, &opts)
        });
        found.ok_or_else(|| {
            format!(
                "no figure {n}; figures are 4-14 plus extras 15 (fragmentation), \
                 16 (ablation), 17 (stateless DAD), 18 (routing staleness)"
            )
        })?
    } else {
        let mut tables = Vec::new();
        for n in 4..=18u32 {
            tables.extend(timed(&mut phases, format!("fig{n:02}"), || {
                figures::by_number(n, &opts).expect("figures 4-18 exist")
            }));
        }
        tables
    };

    for t in &tables {
        println!("{}", t.to_ascii());
    }

    if let Some(dir) = &args.csv_dir {
        for t in &tables {
            let slug: String = t
                .title
                .chars()
                .take_while(|c| *c != '—')
                .filter(|c| c.is_ascii_alphanumeric())
                .collect::<String>()
                .to_lowercase();
            write_into(dir, &format!("{slug}.csv"), &t.to_csv())?;
        }
    }

    if let Some(path) = &args.metrics_out {
        let protocols = timed(&mut phases, "snapshot".into(), || {
            snapshot::protocol_runs(args.opts.seed, args.opts.quick)
        });
        let snap = Snapshot {
            params: SnapshotParams {
                seed: args.opts.seed,
                rounds: opts.rounds,
                quick: args.opts.quick,
                fig: args.fig,
                chaos: args.mode == Mode::Chaos,
                loss: args.loss,
                head_kills: args.head_kills,
            },
            phases,
            protocols,
        };
        let json = if std::env::var_os("REPRO_NO_WALL_CLOCK").is_some() {
            snap.deterministic_json()
        } else {
            snap.to_json()
        };
        write_out(path, &json)?;
    }

    if let Some(dir) = &args.trace_out {
        for (name, jsonl) in snapshot::protocol_traces(args.opts.seed, args.opts.quick) {
            write_into(dir, &format!("{name}.jsonl"), &jsonl)?;
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| match args.mode {
        Mode::Figures | Mode::Chaos => run_tables_mode(&args),
        Mode::Check => run_check_mode(&args),
        Mode::Replay => run_replay_mode(&args),
        Mode::Sweep => run_sweep_mode(&args),
        Mode::Scale => run_scale_mode(&args),
        Mode::Topology => run_topology_mode(&args),
        Mode::Gate => run_gate_mode(&args),
        Mode::Fuzz => run_fuzz_mode(&args),
        Mode::Mesh => Ok(run_mesh_mode(&args)),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_args, FigOpts, Mode};

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    /// Every flag any subcommand lists, with a value that parses (empty
    /// for a switch). `--fault-plan` reads its file at parse time, so
    /// its value is filled in by the test.
    const SAMPLES: [(&str, &str); 20] = [
        ("--fig", "5"),
        ("--rounds", "3"),
        ("--seed", "7"),
        ("--quick", ""),
        ("--csv", "out"),
        ("--metrics-out", "snap.json"),
        ("--trace-out", "traces"),
        ("--loss", "0.1"),
        ("--head-kills", "3"),
        ("--fault-plan", "PLAN"),
        ("--artifact-dir", "out"),
        ("--threads", "2"),
        ("--out", "x.json"),
        ("--with-chaos", ""),
        ("--mobility", "manhattan:100"),
        ("--n", "1000"),
        ("--tolerance", "0.2"),
        ("--subset", ""),
        ("--time-budget", "60s"),
        ("--protocol", "quorum"),
    ];

    #[test]
    fn every_subcommand_takes_its_own_flags_and_names_the_foreign_ones() {
        let plan = std::env::temp_dir().join(format!("repro-cli-{}.plan", std::process::id()));
        std::fs::write(&plan, "").expect("temp dir is writable");
        let samples: Vec<(&str, String)> = SAMPLES
            .iter()
            .map(|&(flag, v)| (flag, v.replace("PLAN", plan.to_str().expect("utf-8 path"))))
            .collect();
        for mode in Mode::ALL {
            for listed in mode.flags() {
                assert!(
                    samples.iter().any(|(flag, _)| flag == listed),
                    "{listed} has no sample value"
                );
            }
            let files = ["a.json", "b.json"][..mode.files()].join(" ");
            for (flag, v) in &samples {
                let line = format!("{} {files} {flag} {v}", mode.name());
                let parsed = parse_args(argv(&line));
                if mode.flags().contains(flag) {
                    let a = parsed.unwrap_or_else(|e| panic!("{line}: {e}"));
                    assert_eq!(a.mode, mode, "{line}");
                } else {
                    let err = parsed.expect_err(&line);
                    assert_eq!(
                        err,
                        format!("unknown argument for {}: {flag}", mode.name()),
                        "{line}"
                    );
                }
            }
        }
        let _ = std::fs::remove_file(&plan);
    }

    /// A mobility spec the models cannot build is refused while the
    /// arguments are read, not by every sweep cell it reaches.
    #[test]
    fn an_out_of_domain_mobility_is_an_argument_error() {
        let err = parse_args(argv("sweep --mobility manhattan:0")).expect_err("spacing 0");
        assert_eq!(
            err,
            "--mobility: mobility `manhattan:0` must have positive spacing"
        );
    }

    #[test]
    fn removed_spellings_are_unknown_arguments() {
        for line in [
            "--engine full",
            "scale --engine parallel:2",
            "sweep --engine incremental",
            "--chaos",
            "--check",
            "--check --replay x.repro",
            "--replay x.repro",
            "--backend mesh",
            "mesh --backend sim",
            "sweep --loss 0.1",
            "sweep --soak",
            "sweep --rounds 5",
            "attacks",
            "--bogus",
            "gate a.json b.json c.json",
            "figures extra",
        ] {
            let err = parse_args(argv(line)).expect_err(line);
            assert!(err.starts_with("unknown argument for "), "{line}: {err}");
        }
    }

    #[test]
    fn first_argument_selects_the_subcommand() {
        assert_eq!(parse_args(argv("")).unwrap().mode, Mode::Figures);
        for mode in Mode::ALL {
            let files = ["a", "b"][..mode.files()].join(" ");
            let a = parse_args(argv(&format!("{} {files}", mode.name()))).unwrap();
            assert_eq!(a.mode, mode);
        }
        // No subcommand: the whole line is `figures`' flags.
        let a = parse_args(argv(
            "--quick --fig 5 --metrics-out snap.json --trace-out traces",
        ))
        .unwrap();
        assert_eq!(a.mode, Mode::Figures);
        assert!(a.opts.quick);
        assert_eq!(a.fig, Some(5));
        assert_eq!(
            a.metrics_out.as_deref().unwrap().to_str(),
            Some("snap.json")
        );
        assert_eq!(a.trace_out.as_deref().unwrap().to_str(), Some("traces"));
        // A subcommand name anywhere else is not a subcommand.
        assert!(parse_args(argv("--quick chaos")).is_err());
    }

    #[test]
    fn chaos_and_check_flags_land_in_their_fields() {
        let a = parse_args(argv("chaos --loss 0.1 --head-kills 3")).unwrap();
        assert_eq!(a.loss, Some(0.1));
        assert_eq!(a.head_kills, Some(3));
        let a = parse_args(argv("chaos")).unwrap();
        assert_eq!(a.head_kills, None, "default applied later, at use site");

        let a = parse_args(argv("check --quick --artifact-dir out")).unwrap();
        assert!(a.opts.quick);
        assert_eq!(a.artifact_dir.as_deref().unwrap().to_str(), Some("out"));
    }

    #[test]
    fn rounds_default_per_subcommand() {
        // `check` runs one seed round unless told otherwise; the figures
        // keep their replication count.
        let rounds = |line: &str| parse_args(argv(line)).unwrap().round_count();
        assert_eq!(rounds("check"), 1);
        assert_eq!(rounds("check --rounds 3"), 3);
        assert_eq!(rounds("figures"), FigOpts::default().rounds);
        assert_eq!(rounds("chaos --rounds 3"), 3);
        assert!(parse_args(argv("check --rounds 0")).is_err());
    }

    /// README's subcommand table lists, row for row, exactly the flags
    /// each subcommand takes.
    #[test]
    fn readme_flag_table_matches_the_parser() {
        let readme = include_str!("../../../../README.md");
        let rows: Vec<&str> = readme
            .lines()
            .skip_while(|l| !l.starts_with("| Subcommand | Flags |"))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .collect();
        // The first word inside each `code span` of a cell.
        let words = |cell: &str| -> Vec<String> {
            cell.split('`')
                .skip(1)
                .step_by(2)
                .map(|span| span.split_whitespace().next().unwrap_or("").to_string())
                .collect()
        };
        let mut names = Vec::new();
        for row in rows {
            let cells: Vec<&str> = row.split('|').collect();
            let name = words(cells[1]).remove(0);
            let mode = Mode::ALL
                .into_iter()
                .find(|m| m.name() == name)
                .unwrap_or_else(|| panic!("README lists unknown subcommand {name}"));
            let mut listed = words(cells[2]);
            let mut flags: Vec<&str> = mode.flags().to_vec();
            listed.sort_unstable();
            flags.sort_unstable();
            assert_eq!(listed, flags, "README row for {name}");
            names.push(name);
        }
        let all: Vec<&str> = Mode::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names, all, "one row per subcommand, in Mode::ALL order");
    }

    #[test]
    fn positional_files_are_counted() {
        let a = parse_args(argv("replay out/quorum-storm.repro")).unwrap();
        assert_eq!(a.files[0].to_str(), Some("out/quorum-storm.repro"));
        assert!(parse_args(argv("replay")).is_err());
        assert!(parse_args(argv("replay --quick")).is_err());

        let a = parse_args(argv("gate BENCH_scale.json scale.json --subset")).unwrap();
        assert_eq!(a.files.len(), 2);
        assert!(a.subset);
        let a = parse_args(argv("gate a.json --tolerance 0.2 b.json")).unwrap();
        assert_eq!(a.tolerance, Some(0.2));
        assert!(!a.subset);
        assert!(parse_args(argv("gate only-one.json")).is_err());
        assert!(parse_args(argv("gate")).is_err());
    }

    #[test]
    fn sweep_scale_and_fuzz_flags_land_in_their_fields() {
        let a = parse_args(argv("sweep --quick --threads 4 --out sweep.json")).unwrap();
        assert!(a.opts.quick);
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.out.as_deref().unwrap().to_str(), Some("sweep.json"));
        assert!(!a.with_chaos && a.mobilities.is_none());
        assert!(parse_args(argv("sweep --with-chaos")).unwrap().with_chaos);

        let a = parse_args(argv(
            "sweep --quick --mobility manhattan:100 --mobility group:4,50",
        ))
        .unwrap();
        assert_eq!(
            a.mobilities.as_deref(),
            Some(&["manhattan:100".to_string(), "group:4,50".to_string()][..])
        );

        let a = parse_args(argv(
            "scale --quick --n 1000 --n 10000 --threads 8 --seed 7 --out BENCH_scale.json",
        ))
        .unwrap();
        assert_eq!(a.opts.seed, 7);
        assert_eq!(a.sizes.as_deref(), Some(&[1000usize, 10000][..]));
        assert_eq!(a.threads, Some(8));
        assert!(parse_args(argv("scale")).unwrap().sizes.is_none());

        let a = parse_args(argv("topology --out BENCH_topology.json")).unwrap();
        assert_eq!(
            a.out.as_deref().unwrap().to_str(),
            Some("BENCH_topology.json")
        );
        assert!(parse_args(argv("topology")).unwrap().out.is_none());

        let a = parse_args(argv(
            "fuzz --time-budget 60s --seed 42 --protocol quorum --quick --artifact-dir out --out fuzz.txt",
        ))
        .unwrap();
        assert_eq!(a.time_budget.as_deref(), Some("60s"));
        assert_eq!(a.protocol.as_deref(), Some("quorum"));
        assert_eq!(a.opts.seed, 42);
        assert_eq!(a.artifact_dir.as_deref().unwrap().to_str(), Some("out"));
        assert_eq!(a.out.as_deref().unwrap().to_str(), Some("fuzz.txt"));
        // Defaults: budget and protocol resolved at the run site.
        let a = parse_args(argv("fuzz")).unwrap();
        assert!(a.time_budget.is_none() && a.protocol.is_none());
    }

    #[test]
    fn malformed_values_error() {
        for line in [
            "--rounds 0",
            "--rounds x",
            "--metrics-out",
            "chaos --loss 1.5",
            "sweep --threads 0",
            "sweep --mobility",
            "scale --n 0",
            "gate a.json b.json --tolerance -1",
            "fuzz --time-budget",
        ] {
            assert!(parse_args(argv(line)).is_err(), "{line}");
        }
        // Malformed specs die at parse time, not mid-sweep.
        let err = parse_args(argv("sweep --mobility warp:9")).unwrap_err();
        assert!(err.contains("--mobility"), "{err}");
    }
}
