//! `mutls-experiments` — regenerate the MUTLS paper's tables and figures
//! and run the repo's own sweeps.
//!
//! ```text
//! mutls-experiments <table2|fig3|...|fig11|adaptive|conflict|overflow|grain|trace|metrics|all> ... \
//!     [--scale tiny|scaled|paper] [--cpus 1,2,4,...] [--seed N] \
//!     [--json <path>] [--trace <path>] [--metrics <path>]
//! mutls-experiments -h|--help
//! ```
//!
//! With `--json <path>` the sweeps (adaptive, conflict, overflow, grain)
//! and the trace/metrics scenarios additionally write their rows as one
//! JSON document.  With `--trace <path>` every run enables the
//! speculation flight recorder and the drained lifecycle events are
//! exported as one Chrome trace-event document (open it at
//! <https://ui.perfetto.dev>).  With `--metrics <path>` every run enables
//! the live metrics plane and its final snapshot (plus its sampled time
//! series for `.json` paths) is exported — Prometheus text exposition by
//! default, JSON time series when the path ends in `.json`.

use std::process::ExitCode;

use mutls_harness::{
    run_experiment, ExperimentConfig, MetricsSink, TraceSink, BENCH_SCHEMA_VERSION,
    EXPERIMENT_NAMES,
};
use mutls_workloads::Scale;

/// Collects the machine-readable rows of the experiments that produce
/// them, keyed by experiment name (insertion order preserved).
#[derive(Default)]
struct JsonSink {
    entries: Vec<(String, String)>,
}

impl JsonSink {
    fn push(&mut self, name: &str, rows: String) {
        // An experiment selected twice (e.g. `all grain`) must not emit
        // duplicate JSON keys; the latest rows win.
        if let Some(entry) = self.entries.iter_mut().find(|(n, _)| n == name) {
            entry.1 = rows;
        } else {
            self.entries.push((name.to_string(), rows));
        }
    }

    fn render(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"mutls-bench-v{BENCH_SCHEMA_VERSION}\",\"schema_version\":{BENCH_SCHEMA_VERSION},\"experiments\":{{"
        );
        for (i, (name, rows)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(name);
            out.push_str("\":");
            out.push_str(rows);
        }
        out.push_str("}}\n");
        out
    }
}

/// Parsed command line: experiments to run, shared config, `--json` path,
/// `--trace` path, `--metrics` path.
type ParsedArgs = (
    Vec<String>,
    ExperimentConfig,
    Option<String>,
    Option<String>,
    Option<String>,
);

fn parse_args() -> Result<ParsedArgs, String> {
    let mut config = ExperimentConfig::default();
    let mut selected = Vec::new();
    let mut json_path = None;
    let mut trace_path = None;
    let mut metrics_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = args.next().ok_or("--scale needs a value")?;
                config.scale = match value.as_str() {
                    "tiny" => Scale::Tiny,
                    "scaled" => Scale::Scaled,
                    "paper" => Scale::Paper,
                    other => return Err(format!("unknown scale: {other}")),
                };
            }
            "--cpus" => {
                let value = args.next().ok_or("--cpus needs a value")?;
                config.cpus = value
                    .split(',')
                    .map(|s| s.trim().parse::<usize>().map_err(|e| e.to_string()))
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                config.seed = value.parse().map_err(|_| "bad seed".to_string())?;
            }
            "--json" => {
                json_path = Some(args.next().ok_or("--json needs a path")?);
            }
            "--trace" => {
                trace_path = Some(args.next().ok_or("--trace needs a path")?);
            }
            "--metrics" => {
                metrics_path = Some(args.next().ok_or("--metrics needs a path")?);
            }
            other if !other.starts_with("--") => selected.push(other.to_string()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok((selected, config, json_path, trace_path, metrics_path))
}

fn run_one(name: &str, config: &ExperimentConfig, sink: &mut JsonSink) -> Result<(), String> {
    if name == "all" {
        return EXPERIMENT_NAMES
            .iter()
            .try_for_each(|name| run_one(name, config, sink));
    }
    let (text, rows) =
        run_experiment(name, config).ok_or_else(|| format!("unknown experiment: {name}"))?;
    println!("{text}");
    if let Some(rows) = rows {
        sink.push(name, rows);
    }
    Ok(())
}

/// The usage text.  Its `experiments:` block lists one name (or one
/// `figN..figM` range) per line, exactly the names `run_experiment` knows
/// plus `all`; `crates/harness/tests/sweeps.rs` holds it to that.
fn usage() -> String {
    format!(
        "usage: mutls-experiments <experiment> [<experiment> ...] [options]\n\
         \x20      mutls-experiments -h|--help\n\
         \n\
         experiments:\n\
         \x20 table2          benchmark suite with measured memory densities\n\
         \x20 fig3..fig11     the paper's evaluation figures (simulator)\n\
         \x20 adaptive        governor policy sweep (simulator)\n\
         \x20 conflict        native conflict sweep, real dependence validation\n\
         \x20 overflow        native buffer-overflow pressure sweep\n\
         \x20 grain           commit-log grain sweep (word, line, page), native + replay\n\
         \x20 trace           flight-recorder scenario: event census + latency tables\n\
         \x20 metrics         live-metrics scenario: instrumented native run + replay,\n\
         \x20                 headline counters and derived gauges\n\
         \x20 all             everything above\n\
         \n\
         options:\n\
         \x20 --scale tiny|scaled|paper   problem-size preset (default scaled)\n\
         \x20 --cpus 1,2,4,...            CPU counts for the sweep figures\n\
         \x20 --seed N                    RNG seed (rollback injection)\n\
         \x20 --json <path>               write machine-readable rows (schema v{BENCH_SCHEMA_VERSION})\n\
         \x20 --trace <path>              enable the flight recorder and export\n\
         \x20                             Chrome trace-event JSON (Perfetto)\n\
         \x20 --metrics <path>            enable the live metrics plane and export every\n\
         \x20                             run's final snapshot — Prometheus text, or the\n\
         \x20                             full JSON time series if the path ends in .json\n\
         \x20 -h, --help                  print this text and exit"
    )
}

fn main() -> ExitCode {
    if std::env::args()
        .skip(1)
        .any(|arg| arg == "-h" || arg == "--help")
    {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let (selected, mut config, json_path, trace_path, metrics_path) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if selected.is_empty() {
        eprintln!("error: no experiment selected");
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    let trace_sink = trace_path.as_ref().map(|_| TraceSink::new());
    if let Some(sink) = &trace_sink {
        config = config.with_trace(sink.clone());
    }
    let metrics_sink = metrics_path.as_ref().map(|_| MetricsSink::new());
    if let Some(sink) = &metrics_sink {
        config = config.with_metrics(sink.clone());
    }
    let mut sink = JsonSink::default();
    for name in &selected {
        if let Err(e) = run_one(name, &config, &mut sink) {
            eprintln!("error: {e}");
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, sink.render()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote machine-readable rows to {path}");
    }
    if let (Some(path), Some(trace)) = (trace_path, trace_sink) {
        if let Err(e) = std::fs::write(&path, trace.chrome_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wrote {} traced runs to {path} (open at https://ui.perfetto.dev)",
            trace.len()
        );
    }
    if let (Some(path), Some(metrics)) = (metrics_path, metrics_sink) {
        let (body, format) = if path.ends_with(".json") {
            (metrics.json(), "JSON time series")
        } else {
            (metrics.prometheus_text(), "Prometheus text")
        };
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wrote metrics of {} instrumented runs to {path} ({format})",
            metrics.len()
        );
    }
    ExitCode::SUCCESS
}
