//! The repository's one benchmark: native speculative-vs-sequential
//! wall time on five workloads, per-layer cost probes and a traced run.
//! See `benchmark/README.md`.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in this process and prints one JSON object as its last line
//! (the form the driver calls).  Without `--workload` it runs the whole
//! suite, each workload in a process of its own.

mod gate;
mod host;
mod kernels;
mod metrics;
mod probes;
mod run;
mod spans;
mod stats;
mod suite;
mod tap;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use kernels::Workload;

/// Seconds one run measures for unless `--seconds` says otherwise; the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 24;

/// Where span files and the suite's tables go, relative to the
/// repository root (`run.sh` changes to it).
pub const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--traced] [--aa] [--quick]
  --workload NAME  run one workload in this process: compute_loop, dense_reads,
                   tree_writes, conflict_mix or sim_replay (default: the whole suite)
  --seed N         workload seed (default 1)
  --seconds S      how long one run measures (default 24)
  --trace 0|1      0: end-to-end metrics, tracing off; 1: per-layer metrics and span file
  --traced         suite: the per-layer run of every workload
  --aa             suite: the timed set twice; fails if two runs of the same code disagree
  --quick          smoke run: tiny kernels, 2 repetitions";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        aa: false,
        quick: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let workload =
                    Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?;
                args.workload = Some(workload);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => args.trace = true,
            "--aa" => args.aa = true,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// One workload in this process: a line per metric, the span file of a
/// traced run, then the result object as the last line.
fn run_one(workload: Workload, args: &Args, started: Instant) -> ExitCode {
    let opts = run::Opts {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
    };
    let outcome = run::run(&opts, started);
    let name = workload.name();
    let mut json = String::new();
    for (metric, unit, s) in &outcome.rows {
        println!(
            "{name} {metric} {} {unit} n={} min={} median={} max={}",
            s.value, s.n, s.min, s.median, s.max
        );
        let comma = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{comma}\"{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            s.value
        );
    }
    println!("{name} ops_attempted {} count", outcome.attempted);
    println!("{name} ops_failed {} count", outcome.failed);
    if args.trace {
        let path = format!("{OUT_DIR}/trace-{name}.json");
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, outcome.spans.to_json(name)));
        match written {
            Ok(()) => println!("{name} span_file {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(workload, &args, started),
        None => suite::run(args.seed, args.seconds, args.trace, args.aa, args.quick),
    }
}
