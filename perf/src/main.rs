//! `perf run` / `perf compare` / `perf spread`: see `perf/README.md`.

use perf::ledger::{self, LedgerArgs};
use perf::runner::{self, RunArgs};
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "\
usage: perf run --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke] [--spans FILE]
       perf run [--seed S] [--seconds T] [--smoke] [--out FILE]
       perf compare A.json B.json [--bounds BENCHMARK.json]
       perf spread [--workload W] [--seed S] [--seconds T] [--smoke] [--bounds BENCHMARK.json]

run      with --workload: one workload in this process; the last line of
         standard output is the result object. Without: every workload,
         untraced then traced, each in a fresh child process, written as
         one ledger to --out (or standard output); non-zero exit when a
         run stayed noisy after its retries.
compare  ledger B against ledger A, per workload and end-to-end metric,
         against the bounds in BENCHMARK.json; non-zero exit on a breach.
spread   the driver's steadiness check ahead of the driver: ten untraced
         runs on seeds S..S+10, and each end-to-end metric's quartile
         spread against its bound; non-zero exit when one is over.";

/// The flags of one subcommand, parsed by hand: the crate may depend on
/// nothing the image does not hold. A flag the subcommand does not list
/// is an error, never ignored.
struct Flags {
    values: BTreeMap<&'static str, String>,
    positional: Vec<String>,
}

impl Flags {
    /// `valued` flags take one value; `switches` take none (and read as
    /// present); anything else starting with `--` is refused.
    fn parse(
        args: &[String],
        valued: &[&'static str],
        switches: &[&'static str],
    ) -> Result<Flags, String> {
        let mut flags = Flags {
            values: BTreeMap::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = valued.iter().find(|f| *f == arg) {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.values.insert(name, value.clone());
            } else if let Some(name) = switches.iter().find(|f| *f == arg) {
                flags.values.insert(name, String::new());
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag {arg:?} for this subcommand"));
            } else {
                flags.positional.push(arg.clone());
            }
        }
        Ok(flags)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.values.contains_key(flag)
    }

    fn seed(&self) -> Result<u64, String> {
        self.get("--seed").map_or(Ok(1), |s| {
            s.parse()
                .map_err(|_| "--seed takes a whole number".to_string())
        })
    }

    fn seconds(&self) -> Result<f64, String> {
        self.get("--seconds").map_or(Ok(10.0), |s| {
            s.parse()
                .ok()
                .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                .ok_or_else(|| "--seconds takes a non-negative number".to_string())
        })
    }

    fn ledger_args(&self) -> Result<LedgerArgs, String> {
        Ok(LedgerArgs {
            seed: self.seed()?,
            seconds: self.seconds()?,
            smoke: self.has("--smoke"),
        })
    }

    fn bounds(&self) -> Result<String, String> {
        let path = self.get("--bounds").unwrap_or("BENCHMARK.json");
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    }

    fn no_positional(&self) -> Result<(), String> {
        match self.positional.first() {
            Some(stray) => Err(format!("unexpected argument {stray:?}")),
            None => Ok(()),
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    if !args.iter().any(|a| a == "--workload") {
        return run_ledger(args);
    }
    let f = Flags::parse(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--spans"],
        &["--smoke", "--detail"],
    )?;
    f.no_positional()?;
    let trace = match f.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let out = runner::run(&RunArgs {
        workload: f.get("--workload").unwrap_or_default().to_string(),
        seed: f.seed()?,
        seconds: f.seconds()?,
        trace,
        smoke: f.has("--smoke"),
        spans_out: f.get("--spans").map(Into::into),
    })?;
    print!("{}", out.report);
    if f.has("--detail") {
        println!("{}", out.detail);
    }
    println!("{}", runner::result_line(&out, trace));
    Ok(out.correct)
}

fn run_ledger(args: &[String]) -> Result<bool, String> {
    let f = Flags::parse(args, &["--seed", "--seconds", "--out"], &["--smoke"])?;
    f.no_positional()?;
    let ledger = ledger::run_all(&f.ledger_args()?)?;
    match f.get("--out") {
        Some(path) => {
            std::fs::write(path, &ledger.doc).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("ledger written to {path}");
        }
        None => print!("{}", ledger.doc),
    }
    for run in &ledger.noisy {
        eprintln!("NOISY {run}: the machine changed speed under every attempt");
    }
    Ok(ledger.noisy.is_empty())
}

fn spread(args: &[String]) -> Result<bool, String> {
    let f = Flags::parse(
        args,
        &["--workload", "--seed", "--seconds", "--bounds"],
        &["--smoke"],
    )?;
    f.no_positional()?;
    let all = perf::names::WORKLOADS;
    let one = f.get("--workload").map(|w| [w]);
    let args = f.ledger_args()?;
    let rows = ledger::steadiness(
        &args,
        one.as_ref().map_or(&all[..], |w| &w[..]),
        &f.bounds()?,
    )?;
    println!(
        "ten untraced runs per workload, seeds {}..{}, {} s each{}; spread = (q3 - q1) / median",
        args.seed,
        args.seed + 10,
        args.seconds,
        if args.smoke { ", smoke sizes" } else { "" }
    );
    print!("{}", ledger::render_steadiness(&rows));
    Ok(!rows.iter().any(ledger::Steadiness::refused))
}

fn compare(args: &[String]) -> Result<bool, String> {
    let f = Flags::parse(args, &["--bounds"], &[])?;
    let [a, b] = f.positional.as_slice() else {
        return Err("compare takes exactly two ledgers".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let report = ledger::compare(&read(a)?, &read(b)?, &f.bounds()?)?;
    print!("{}", ledger::render(&report));
    Ok(report.breaches.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare(rest),
        Some((cmd, rest)) if cmd == "spread" => spread(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
