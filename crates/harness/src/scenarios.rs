//! The two observability scenarios: one fully dependent chain, run
//! natively and on the replay by the sweeps' runner, with the flight
//! recorder (`trace`) or the metrics plane (`metrics`) forced on.

use serde::Serialize;

use mutls_trace::LatencyReport;
use mutls_workloads::WorkloadKind;

use crate::report::{format_latency_table, Table};
use crate::sinks::{ExperimentConfig, Observe};
use crate::sweeps::{cpus_for, run_points, Engine, GrainMode, Point, Run, NATIVE_CPUS};
use crate::BENCH_SCHEMA_VERSION;

/// The fully dependent chain both observability scenarios run: 100 %
/// true sharing at word grain, once natively and once on the replay.
fn chain_scenario(config: &ExperimentConfig, observe: Observe) -> (usize, Run, Run) {
    let cpus = cpus_for(config, NATIVE_CPUS);
    let point = Point {
        sharing_permille: Some(1000),
        grain: GrainMode::Word,
        ..Point::new(WorkloadKind::ConflictChain)
    };
    let run = |engine| {
        run_points(&[point], engine, cpus, config.scale, config.seed, observe)
            .pop()
            .expect("one point, one run")
    };
    (cpus, run(Engine::Native), run(Engine::Replay))
}

/// One row of the `trace` scenario: lifecycle-event and latency totals of
/// one fully traced run (native runtime or deterministic replay).
#[derive(Debug, Clone, Serialize)]
pub struct TraceScenarioRow {
    /// Schema version of this row ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Scenario label (`native/...` or `replay/...`).
    pub scenario: String,
    /// Events captured, after ring drops.
    pub events: u64,
    /// Events dropped by the bounded per-thread rings (native runs only;
    /// the replay's event vector is unbounded).
    pub dropped: u64,
    /// `ForkAttempt` events.
    pub forks: u64,
    /// `Commit` events.
    pub commits: u64,
    /// `Rollback` events.
    pub rollbacks: u64,
    /// `Doom` events.
    pub dooms: u64,
    /// The report's committed threads: `commits` when no event was lost.
    pub committed_threads: u64,
    /// The report's rolled-back threads: `rollbacks` when no event was
    /// lost.
    pub rolled_back_threads: u64,
    /// Per-phase latency quantiles (ns native, virtual cycles replay).
    pub latency: LatencyReport,
}

/// The `trace` scenario: the chain scenario with the flight recorder
/// forced on, reported as a per-kind event census plus the full per-phase
/// latency tables.  Both streams also go to the config's trace sink, so
/// `mutls-experiments trace --trace out.json` exports a ready-to-open
/// Perfetto document without running a sweep.
pub fn trace_scenario(config: &ExperimentConfig) -> (Vec<TraceScenarioRow>, String) {
    let observe = Observe {
        trace: true,
        metrics: false,
    };
    let (cpus, native, replay) = chain_scenario(config, observe);
    let mut rows = Vec::new();
    let mut census = Table::new(
        format!("Flight Recorder Census at {cpus} CPUs (conflict_chain, 100% sharing)"),
        &["scenario", "event", "count"],
    );
    for (scenario, run) in [
        ("native/conflict_chain", &native),
        ("replay/conflict_chain", &replay),
    ] {
        let (events, dropped) = run.trace.as_ref().expect("tracing was observed");
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        for event in events {
            let name = event.kind.name();
            match counts.iter_mut().find(|(n, _)| *n == name) {
                Some((_, c)) => *c += 1,
                None => counts.push((name, 1)),
            }
        }
        counts.sort_by_key(|&(name, _)| name);
        let count_of = |kind: &str| {
            counts
                .iter()
                .find(|(n, _)| *n == kind)
                .map_or(0, |&(_, c)| c)
        };
        rows.push(TraceScenarioRow {
            schema_version: BENCH_SCHEMA_VERSION,
            scenario: scenario.to_string(),
            events: events.len() as u64,
            dropped: *dropped,
            forks: count_of("ForkAttempt"),
            commits: count_of("Commit"),
            rollbacks: count_of("Rollback"),
            dooms: count_of("Doom"),
            committed_threads: run.report.committed_threads,
            rolled_back_threads: run.report.rolled_back_threads,
            latency: run.report.latency.clone(),
        });
        for (name, count) in &counts {
            census.push_row(vec![
                scenario.to_string(),
                name.to_string(),
                count.to_string(),
            ]);
        }
    }
    let text = format!(
        "{}\n{}\n{}",
        census.render(),
        format_latency_table(
            "Phase latencies — native conflict_chain (ns)",
            &native.report.latency,
        ),
        format_latency_table(
            "Phase latencies — replayed conflict_chain (virtual cycles)",
            &replay.report.latency,
        ),
    );
    config.record("trace/native/conflict_chain", native.trace, None);
    config.record("trace/replay/conflict_chain", replay.trace, None);
    (rows, text)
}

/// One row of the `metrics` scenario: headline counters and derived
/// gauges read back from the *final exported snapshot* of one fully
/// instrumented run — the telemetry plane observing itself.
#[derive(Debug, Clone, Serialize)]
pub struct MetricsRow {
    /// Schema version of this row ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Scenario label (`native/...` or `replay/...`).
    pub scenario: String,
    /// Snapshots the sampler retained (wall-clock cadence natively,
    /// virtual-cycle cadence in the replay).
    pub samples: u64,
    /// `mutls_forks_total` in the final snapshot.
    pub forks: u64,
    /// `mutls_commits_total` in the final snapshot.
    pub commits: u64,
    /// `mutls_rollbacks_total` in the final snapshot.
    pub rolled_back: u64,
    /// `mutls_retries_total` in the final snapshot.
    pub retries: u64,
    /// `mutls_wasted_cycles_total` in the final snapshot (ns native,
    /// virtual cycles replay).
    pub wasted_cycles: u64,
    /// Derived gauge: wasted over committed cycles.
    pub rollback_amplification: f64,
    /// Derived gauge: commits over forks.
    pub speculation_success_rate: f64,
    /// Derived gauge: precise validation passes over commits.
    pub precise_pass_fraction: f64,
}

/// The `metrics` scenario: the chain scenario with the metrics plane
/// forced on, reported as the headline counters and derived gauges of
/// each final snapshot.  Both series also go to the config's metrics
/// sink, so `mutls-experiments metrics --metrics out.prom` exports a
/// ready-made Prometheus document without running a sweep.
pub fn metrics_scenario(config: &ExperimentConfig) -> (Vec<MetricsRow>, String) {
    let observe = Observe {
        trace: false,
        metrics: true,
    };
    let (cpus, native, replay) = chain_scenario(config, observe);
    let mut rows = Vec::new();
    let mut table = Table::new(
        format!("Live Metrics Scenario at {cpus} CPUs (conflict_chain, 100% sharing)"),
        &[
            "scenario",
            "samples",
            "forks",
            "commits",
            "rolled back",
            "retries",
            "wasted",
            "rollback amp",
            "success rate",
            "precise",
        ],
    );
    for (scenario, run) in [
        ("native/conflict_chain", native),
        ("replay/conflict_chain", replay),
    ] {
        let (series, last) = run.metrics.expect("metrics were observed");
        let counter = |name: &str| last.counter(name).unwrap_or(0);
        let gauge = |name: &str| last.gauge(name).unwrap_or(0.0);
        let row = MetricsRow {
            schema_version: BENCH_SCHEMA_VERSION,
            scenario: scenario.to_string(),
            samples: series.len() as u64,
            forks: counter("forks"),
            commits: counter("commits"),
            rolled_back: counter("rollbacks"),
            retries: counter("retries"),
            wasted_cycles: counter("wasted_cycles"),
            rollback_amplification: gauge("rollback_amplification"),
            speculation_success_rate: gauge("speculation_success_rate"),
            precise_pass_fraction: gauge("precise_pass_fraction"),
        };
        table.push_row(vec![
            row.scenario.clone(),
            row.samples.to_string(),
            row.forks.to_string(),
            row.commits.to_string(),
            row.rolled_back.to_string(),
            row.retries.to_string(),
            row.wasted_cycles.to_string(),
            format!("{:.3}", row.rollback_amplification),
            format!("{:.3}", row.speculation_success_rate),
            format!("{:.3}", row.precise_pass_fraction),
        ]);
        rows.push(row);
        config.record(&format!("metrics/{scenario}"), None, Some((series, last)));
    }
    (rows, table.render())
}
