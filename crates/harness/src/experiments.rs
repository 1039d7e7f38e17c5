//! Experiment definitions, one per table/figure of the paper's evaluation,
//! plus the native-runtime conflict and buffer-overflow sweeps that
//! validate the adaptive governor on *real* rollback causes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use serde::Serialize;

use mutls_adaptive::{GovernorConfig, PolicyKind};
use mutls_membuf::{
    BufferConfig, CommitLogConfig, GlobalMemory, RollbackReason, LINE_GRAIN_LOG2, PAGE_GRAIN_LOG2,
    WORD_GRAIN_LOG2,
};
use mutls_metrics::{MetricsConfig, MetricsSeries, MetricsSnapshot, PromWriter};
use mutls_runtime::{ForkModel, Phase, RunReport, Runtime, RuntimeConfig};
use mutls_simcpu::{record_region, simulate, Recording, SimConfig, SimResult};
use mutls_trace::{
    chrome_trace_json, LatencyPhase, LatencyReport, TraceConfig, TraceEvent, TraceRun,
};
use mutls_workloads::{
    arena_bytes, conflict, descriptor, reference_checksum, run_speculative, setup, site_label,
    Scale, WorkloadKind,
};

use crate::report::{
    format_breakdown_table, format_latency_table, format_rollback_cell, format_sweep_table, Table,
};

/// Map `f` over `items` across host threads, preserving input order in the
/// result.  The discrete-event simulator is single-threaded, so the
/// independent points of a sweep (workload × CPU count × policy) scale
/// with host cores; output stays deterministic because each result lands
/// in its input slot.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    if n <= 1 {
        return items.iter().map(&f).collect();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(&items[i]);
                *slots[i].lock() = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every slot filled"))
        .collect()
}

/// CPU counts used by the paper's breakdown figures 8 and 9.
pub const BREAKDOWN_CPUS: [usize; 15] = [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 20, 32, 48, 64];

/// Rollback probabilities of figure 11.
pub const ROLLBACK_PROBABILITIES: [f64; 6] = [0.01, 0.05, 0.10, 0.20, 0.50, 1.00];

/// Schema version stamped on every machine-readable benchmark row and on
/// the `--json` document wrapper.  Bump when row shapes change; v7 drops
/// the simulator-thread, recovery-engine and cascade columns.
pub const BENCH_SCHEMA_VERSION: u32 = 7;

/// Collects per-run flight-recorder streams across a sweep so the binary
/// can export one Chrome trace-event document (`--trace <path>`).
///
/// Sweeps record each traced run under a unique label; runs fanned out
/// across host threads land in arrival order, so [`TraceSink::chrome_json`]
/// sorts by label to keep the export deterministic.
#[derive(Debug, Default)]
pub struct TraceSink {
    runs: Mutex<Vec<TraceRun>>,
}

impl TraceSink {
    /// A new, empty sink, shared across sweep workers.
    pub fn new() -> Arc<TraceSink> {
        Arc::new(TraceSink::default())
    }

    /// Record one run's drained event stream and drop count.
    pub fn record(&self, label: impl Into<String>, events: Vec<TraceEvent>, dropped: u64) {
        let mut runs = self.runs.lock();
        runs.push(TraceRun {
            label: label.into(),
            events,
            dropped,
        });
    }

    /// Number of recorded runs.
    pub fn len(&self) -> usize {
        self.runs.lock().len()
    }

    /// True when no run has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render every recorded run as one Chrome trace-event JSON document
    /// (one Perfetto process per run, label-sorted so the export is
    /// deterministic regardless of worker arrival order).
    pub fn chrome_json(&self) -> String {
        let mut runs = self.runs.lock().clone();
        runs.sort_by(|a, b| a.label.cmp(&b.label));
        chrome_trace_json(&runs)
    }
}

/// One run's metrics capture recorded into a [`MetricsSink`]: the
/// sampler-filled time series plus the final end-of-run scrape.
#[derive(Debug, Clone, Serialize)]
pub struct MetricsRun {
    /// Unique run label (`<experiment>/<workload>/...`).
    pub label: String,
    /// The bounded time series collected while the run was live.
    pub series: MetricsSeries,
    /// The final scrape taken after the run completed.
    pub last: MetricsSnapshot,
}

/// Collects per-run metrics captures across a sweep so the binary can
/// export one Prometheus text exposition or JSON time-series document
/// (`--metrics <path>`).  Runs fanned out across host threads land in
/// arrival order, so both exporters sort by label to keep the output
/// deterministic.
#[derive(Debug, Default)]
pub struct MetricsSink {
    runs: Mutex<Vec<MetricsRun>>,
}

impl MetricsSink {
    /// A new, empty sink, shared across sweep workers.
    pub fn new() -> Arc<MetricsSink> {
        Arc::new(MetricsSink::default())
    }

    /// Record one run's series and final scrape.
    pub fn record(&self, label: impl Into<String>, series: MetricsSeries, last: MetricsSnapshot) {
        let mut runs = self.runs.lock();
        runs.push(MetricsRun {
            label: label.into(),
            series,
            last,
        });
    }

    /// Number of recorded runs.
    pub fn len(&self) -> usize {
        self.runs.lock().len()
    }

    /// True when no run has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Label-sorted clone of the recorded runs.
    fn sorted_runs(&self) -> Vec<MetricsRun> {
        let mut runs = self.runs.lock().clone();
        runs.sort_by(|a, b| a.label.cmp(&b.label));
        runs
    }

    /// Render every run's *final* scrape as one Prometheus text
    /// exposition, each run distinguished by a `run="<label>"` label.
    pub fn prometheus_text(&self) -> String {
        let mut writer = PromWriter::new();
        for run in self.sorted_runs() {
            writer.append(&run.last, &[("run".to_string(), run.label.clone())]);
        }
        writer.finish()
    }

    /// Render every run's full time series (plus final scrape) as one
    /// JSON document, label-sorted.
    pub fn json(&self) -> String {
        let runs = self.sorted_runs();
        let mut out = format!(
            "{{\"schema\":\"mutls-metrics-v{BENCH_SCHEMA_VERSION}\",\"schema_version\":{BENCH_SCHEMA_VERSION},\"runs\":"
        );
        runs.serialize_json(&mut out);
        out.push_str("}\n");
        out
    }
}

/// Shared configuration for all experiments.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Problem-size preset.
    pub scale: Scale,
    /// CPU counts for sweep figures (3–7).
    pub cpus: Vec<usize>,
    /// RNG seed (rollback injection).
    pub seed: u64,
    /// When set, the sweeps enable their flight recorders and drain each
    /// run's lifecycle events into this sink (the binary's
    /// `--trace <path>` export).  `None` keeps recording disabled — the
    /// zero-overhead default.
    pub trace: Option<Arc<TraceSink>>,
    /// When set, the sweeps enable the live metrics plane and record each
    /// run's time series plus final scrape into this sink (the binary's
    /// `--metrics <path>` export).  `None` keeps the registry disabled —
    /// the one-branch no-op default.
    pub metrics: Option<Arc<MetricsSink>>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: Scale::Scaled,
            cpus: vec![1, 2, 4, 8, 16, 32, 48, 64],
            seed: 0xAB5C155A,
            trace: None,
            metrics: None,
        }
    }
}

impl ExperimentConfig {
    /// A fast preset used by tests and smoke benches.
    pub fn quick() -> Self {
        ExperimentConfig {
            scale: Scale::Tiny,
            cpus: vec![1, 4, 16, 64],
            seed: 7,
            trace: None,
            metrics: None,
        }
    }

    /// Attach a trace sink: native sweeps enable their flight recorders
    /// and the deterministic replays emit virtual-time events into it.
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Attach a metrics sink: native sweeps enable the sampler-backed
    /// registry and the deterministic replays mirror it off the virtual
    /// clock, all recording into the sink.
    pub fn with_metrics(mut self, sink: Arc<MetricsSink>) -> Self {
        self.metrics = Some(sink);
        self
    }

    /// The native-runtime recorder configuration implied by `trace`.
    fn trace_config(&self) -> TraceConfig {
        if self.trace.is_some() {
            TraceConfig::enabled()
        } else {
            TraceConfig::default()
        }
    }

    /// Whether simulator replays should emit virtual-time events.
    fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Record one traced run into the sink, if one is attached.
    fn record_trace(&self, label: String, events: Vec<TraceEvent>, dropped: u64) {
        if let Some(sink) = &self.trace {
            sink.record(label, events, dropped);
        }
    }

    /// The native-runtime metrics configuration implied by `metrics`
    /// (millisecond sampling so even tiny-scale runs catch live samples).
    fn metrics_config(&self) -> MetricsConfig {
        if self.metrics.is_some() {
            MetricsConfig::enabled().sample_interval_ms(1)
        } else {
            MetricsConfig::default()
        }
    }

    /// The simulator metrics configuration implied by `metrics`: same
    /// plane, but sampled off the virtual clock (deterministic).
    fn sim_metrics_config(&self) -> MetricsConfig {
        if self.metrics.is_some() {
            MetricsConfig::enabled()
        } else {
            MetricsConfig::default()
        }
    }

    /// Record one run's metrics capture into the sink, if one is attached.
    fn record_metrics(&self, label: String, series: MetricsSeries, last: MetricsSnapshot) {
        if let Some(sink) = &self.metrics {
            sink.record(label, series, last);
        }
    }
}

/// One data point of a sweep figure.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRow {
    /// Benchmark name.
    pub workload: String,
    /// Number of speculative CPUs.
    pub cpus: usize,
    /// Absolute speedup `T_s / T_N`.
    pub speedup: f64,
    /// Critical path efficiency.
    pub critical_efficiency: f64,
    /// Speculative path efficiency.
    pub speculative_efficiency: f64,
    /// Power efficiency.
    pub power_efficiency: f64,
    /// Parallel execution coverage.
    pub coverage: f64,
    /// Committed speculative threads.
    pub committed: u64,
    /// Rolled-back speculative threads.
    pub rolled_back: u64,
}

/// One row of a breakdown figure (per-phase fractions at a CPU count).
#[derive(Debug, Clone, Serialize)]
pub struct BreakdownRow {
    /// Benchmark name.
    pub workload: String,
    /// Number of speculative CPUs.
    pub cpus: usize,
    /// Phase label → fraction of the path's runtime.
    pub fractions: Vec<(String, f64)>,
}

/// Which metric a sweep figure reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Absolute speedup (figures 3 and 4).
    Speedup,
    /// Critical path efficiency (figure 5).
    CriticalEfficiency,
    /// Speculative path efficiency (figure 6).
    SpeculativeEfficiency,
    /// Power efficiency (figure 7).
    PowerEfficiency,
}

/// Record a workload's speculation trace at the given scale.
pub fn record_workload(kind: WorkloadKind, scale: Scale) -> Recording {
    let memory = Arc::new(GlobalMemory::new(arena_bytes(kind, scale)));
    let data = setup(kind, scale, &memory);
    record_region(memory, |ctx| run_speculative(ctx, &data))
}

fn simulate_point(recording: &Recording, cpus: usize, seed: u64) -> SimResult {
    let config = SimConfig {
        num_cpus: cpus,
        seed,
        ..Default::default()
    };
    simulate(recording, config)
}

fn sweep_row(kind: WorkloadKind, cpus: usize, result: &SimResult) -> SweepRow {
    SweepRow {
        workload: kind.name().to_string(),
        cpus,
        speedup: result.speedup(),
        critical_efficiency: result.report.critical_path_efficiency(),
        speculative_efficiency: result.report.speculative_path_efficiency(),
        power_efficiency: result.power_efficiency(),
        coverage: result.report.coverage(),
        committed: result.report.committed_threads,
        rolled_back: result.report.rolled_back_threads,
    }
}

/// Sweep a set of workloads over the configured CPU counts.  Recordings
/// and the independent simulation points both fan out across host
/// threads; row order is deterministic regardless.
pub fn speedup_sweep(kinds: &[WorkloadKind], config: &ExperimentConfig) -> Vec<SweepRow> {
    let recordings = par_map(kinds, |&kind| record_workload(kind, config.scale));
    let points: Vec<(usize, usize)> = (0..kinds.len())
        .flat_map(|ki| config.cpus.iter().map(move |&cpus| (ki, cpus)))
        .collect();
    par_map(&points, |&(ki, cpus)| {
        let result = simulate_point(&recordings[ki], cpus, config.seed);
        sweep_row(kinds[ki], cpus, &result)
    })
}

fn metric_table(
    title: &str,
    kinds: &[WorkloadKind],
    config: &ExperimentConfig,
    metric: MetricKind,
) -> (Vec<SweepRow>, String) {
    let rows = speedup_sweep(kinds, config);
    let series: Vec<(String, Vec<f64>)> = kinds
        .iter()
        .map(|kind| {
            let values = config
                .cpus
                .iter()
                .map(|&cpus| {
                    rows.iter()
                        .find(|r| r.workload == kind.name() && r.cpus == cpus)
                        .map(|r| match metric {
                            MetricKind::Speedup => r.speedup,
                            MetricKind::CriticalEfficiency => r.critical_efficiency,
                            MetricKind::SpeculativeEfficiency => r.speculative_efficiency,
                            MetricKind::PowerEfficiency => r.power_efficiency,
                        })
                        .unwrap_or(f64::NAN)
                })
                .collect();
            (kind.name().to_string(), values)
        })
        .collect();
    let text = format_sweep_table(title, &config.cpus, &series);
    (rows, text)
}

/// Figure 3: speedup of the computation-intensive applications.
pub fn figure3(config: &ExperimentConfig) -> (Vec<SweepRow>, String) {
    metric_table(
        "Figure 3 — Performance of Computation-Intensive Applications (absolute speedup)",
        &WorkloadKind::COMPUTATION_INTENSIVE,
        config,
        MetricKind::Speedup,
    )
}

/// Figure 4: speedup of the memory-intensive applications.
pub fn figure4(config: &ExperimentConfig) -> (Vec<SweepRow>, String) {
    metric_table(
        "Figure 4 — Performance of Memory-Intensive Applications (absolute speedup)",
        &WorkloadKind::MEMORY_INTENSIVE,
        config,
        MetricKind::Speedup,
    )
}

/// Figure 5: critical path execution efficiency of all benchmarks.
pub fn figure5(config: &ExperimentConfig) -> (Vec<SweepRow>, String) {
    metric_table(
        "Figure 5 — Critical Path Execution Efficiency",
        &WorkloadKind::ALL,
        config,
        MetricKind::CriticalEfficiency,
    )
}

/// Figure 6: speculative path execution efficiency of all benchmarks.
pub fn figure6(config: &ExperimentConfig) -> (Vec<SweepRow>, String) {
    metric_table(
        "Figure 6 — Speculative Path Execution Efficiency",
        &WorkloadKind::ALL,
        config,
        MetricKind::SpeculativeEfficiency,
    )
}

/// Figure 7: power efficiency of all benchmarks.
pub fn figure7(config: &ExperimentConfig) -> (Vec<SweepRow>, String) {
    metric_table(
        "Figure 7 — Power Efficiency",
        &WorkloadKind::ALL,
        config,
        MetricKind::PowerEfficiency,
    )
}

/// Phase breakdown of either execution path for one workload.
pub fn breakdown(
    kind: WorkloadKind,
    config: &ExperimentConfig,
    cpus_list: &[usize],
    speculative_path: bool,
) -> Vec<BreakdownRow> {
    let recording = record_workload(kind, config.scale);
    let phases: [Phase; 10] = Phase::ALL;
    let mut rows = Vec::new();
    for &cpus in cpus_list {
        let result = simulate_point(&recording, cpus, config.seed);
        let stats = if speculative_path {
            &result.report.speculative
        } else {
            &result.report.critical
        };
        let fractions = phases
            .iter()
            .map(|p| (p.label().to_string(), stats.fraction(*p)))
            .collect();
        rows.push(BreakdownRow {
            workload: kind.name().to_string(),
            cpus,
            fractions,
        });
    }
    rows
}

fn breakdown_text(title: &str, rows: &[BreakdownRow]) -> String {
    let cpus: Vec<usize> = rows.iter().map(|r| r.cpus).collect();
    let phases: Vec<&str> = rows
        .first()
        .map(|r| r.fractions.iter().map(|(p, _)| p.as_str()).collect())
        .unwrap_or_default();
    let values: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| r.fractions.iter().map(|(_, v)| *v).collect())
        .collect();
    format_breakdown_table(title, &cpus, &phases, &values)
}

/// Figure 8: critical path breakdown for fft and md.
pub fn figure8(config: &ExperimentConfig) -> (Vec<BreakdownRow>, String) {
    let cpus: Vec<usize> = BREAKDOWN_CPUS
        .iter()
        .copied()
        .filter(|c| config.cpus.iter().max().map(|&m| *c <= m).unwrap_or(true))
        .collect();
    let mut rows = breakdown(WorkloadKind::Fft, config, &cpus, false);
    let fft_text = breakdown_text("Figure 8a — Critical Path Breakdown: FFT", &rows);
    let md_rows = breakdown(WorkloadKind::Md, config, &cpus, false);
    let md_text = breakdown_text(
        "Figure 8b — Critical Path Breakdown: Molecular Dynamics",
        &md_rows,
    );
    rows.extend(md_rows);
    (rows, format!("{fft_text}\n{md_text}"))
}

/// Figure 9: speculative path breakdown for fft and matmult.
pub fn figure9(config: &ExperimentConfig) -> (Vec<BreakdownRow>, String) {
    let cpus: Vec<usize> = BREAKDOWN_CPUS
        .iter()
        .copied()
        .filter(|c| *c >= 2 && config.cpus.iter().max().map(|&m| *c <= m).unwrap_or(true))
        .collect();
    let mut rows = breakdown(WorkloadKind::Fft, config, &cpus, true);
    let fft_text = breakdown_text("Figure 9a — Speculative Path Breakdown: FFT", &rows);
    let mm_rows = breakdown(WorkloadKind::Matmult, config, &cpus, true);
    let mm_text = breakdown_text("Figure 9b — Speculative Path Breakdown: Matmult", &mm_rows);
    rows.extend(mm_rows);
    (rows, format!("{fft_text}\n{mm_text}"))
}

/// Figure 10: speedups of the in-order and out-of-order models normalized
/// to the mixed model, for the tree-form recursion benchmarks.
pub fn figure10(config: &ExperimentConfig) -> (Vec<(String, usize, f64)>, String) {
    let mut rows = Vec::new();
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    for &kind in &WorkloadKind::TREE_RECURSION {
        let recording = record_workload(kind, config.scale);
        for model in [ForkModel::InOrder, ForkModel::OutOfOrder] {
            let mut values = Vec::new();
            for &cpus in &config.cpus {
                let mixed = simulate_point(&recording, cpus, config.seed).speedup();
                let other = simulate(
                    &recording,
                    SimConfig {
                        num_cpus: cpus,
                        fork_model: Some(model),
                        seed: config.seed,
                        ..Default::default()
                    },
                )
                .speedup();
                let normalized = other / mixed.max(f64::MIN_POSITIVE);
                rows.push((
                    format!("{} {}", kind.name(), model.label()),
                    cpus,
                    normalized,
                ));
                values.push(normalized);
            }
            series.push((format!("{} {}", kind.name(), model.label()), values));
        }
    }
    let text = format_sweep_table(
        "Figure 10 — Comparison of Forking Models (speedup normalized to mixed)",
        &config.cpus,
        &series,
    );
    (rows, text)
}

/// Figure 11: rollback sensitivity — relative slowdown with respect to the
/// non-rollback run at the largest configured CPU count.
pub fn figure11(config: &ExperimentConfig) -> (Vec<(String, f64, f64)>, String) {
    let kinds = [
        WorkloadKind::Mandelbrot,
        WorkloadKind::Md,
        WorkloadKind::Fft,
        WorkloadKind::Matmult,
        WorkloadKind::Nqueen,
        WorkloadKind::Tsp,
        WorkloadKind::Bh,
    ];
    let cpus = config.cpus.iter().copied().max().unwrap_or(64);
    let mut rows = Vec::new();
    let mut table = Table::new(
        format!("Figure 11 — Rollback Sensitivity at {cpus} CPUs (fraction of non-rollback speedup preserved)"),
        &["workload", "1%", "5%", "10%", "20%", "50%", "100%"],
    );
    // One parallel task per workload: record, baseline, probability sweep.
    let per_kind = par_map(&kinds, |&kind| {
        let recording = record_workload(kind, config.scale);
        let baseline = simulate_point(&recording, cpus, config.seed).speedup();
        let sensitivities: Vec<(f64, f64)> = ROLLBACK_PROBABILITIES
            .iter()
            .map(|&p| {
                let degraded = simulate(
                    &recording,
                    SimConfig {
                        num_cpus: cpus,
                        rollback_probability: p,
                        seed: config.seed,
                        ..Default::default()
                    },
                )
                .speedup();
                (p, degraded / baseline.max(f64::MIN_POSITIVE))
            })
            .collect();
        (kind, sensitivities)
    });
    for (kind, sensitivities) in per_kind {
        let mut row = vec![kind.name().to_string()];
        for (p, sensitivity) in sensitivities {
            rows.push((kind.name().to_string(), p, sensitivity));
            row.push(format!("{sensitivity:.2}"));
        }
        table.push_row(row);
    }
    (rows, table.render())
}

/// Injected rollback probability applied to the rollback-heavy workloads
/// (`tsp`, `bh`, `md`) in the adaptive-governor sweep, modelling the
/// conflict-heavy regime where throttling pays off.
pub const ADAPTIVE_ROLLBACK_PROBABILITY: f64 = 0.4;

/// The rollback-heavy workloads of the adaptive sweep.
pub const ROLLBACK_HEAVY: [WorkloadKind; 3] =
    [WorkloadKind::Tsp, WorkloadKind::Bh, WorkloadKind::Md];

/// One row of the adaptive-governor sweep.
#[derive(Debug, Clone, Serialize)]
pub struct AdaptiveRow {
    /// Schema version of this row ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Benchmark name.
    pub workload: String,
    /// Governor policy label.
    pub policy: String,
    /// Injected rollback probability for this run.
    pub rollback_probability: f64,
    /// Absolute speedup `T_s / T_N`.
    pub speedup: f64,
    /// Committed speculative threads.
    pub committed: u64,
    /// Rolled-back speculative threads.
    pub rolled_back: u64,
    /// Rollbacks split by cause, indexed by
    /// [`RollbackReason::index`](mutls_membuf::RollbackReason::index).
    pub rollback_reasons: [u64; RollbackReason::COUNT],
    /// Work discarded by rollbacks (virtual cycles).
    pub wasted_work: u64,
    /// Wasted cycles per committed cycle (schema v6).
    pub rollback_amplification: f64,
    /// Fork requests suppressed by the governor.
    pub throttled_forks: u64,
}

/// Render a `RunReport`'s per-site governor profile as a table, with the
/// rollback-cause split (conflicts / overflows / injected) per site and
/// the live commit-log grain the site's traffic last ran at (the
/// "grain" column shows what the adaptive-grain controller converged to
/// for each site's data; "-" = never observed).  The commit-path cost
/// counters (`cas_retries`, `ring_overflows`) are log-wide, not
/// per-site, so they render on a trailing `commit-log` summary row.
pub fn format_site_table(title: &str, report: &RunReport) -> String {
    let mut table = Table::new(
        title,
        &[
            "site",
            "forks",
            "throttled",
            "commits",
            "retries",
            "rollbacks",
            "conflicts",
            "false-share",
            "overflows",
            "injected",
            "rollback rate",
            "wasted work",
            "grain",
            "cas-retries",
            "ring-ovfl",
        ],
    );
    for profile in &report.sites {
        let name = site_label(profile.site)
            .map(str::to_string)
            .unwrap_or_else(|| format!("site {}", profile.site));
        table.push_row(vec![
            name,
            profile.forks.to_string(),
            profile.throttled.to_string(),
            profile.commits.to_string(),
            profile.retries.to_string(),
            profile.rollbacks.to_string(),
            profile.conflicts.to_string(),
            profile.false_sharing.to_string(),
            profile.overflows.to_string(),
            profile.injected.to_string(),
            format!("{:.2}", profile.rollback_rate),
            profile.wasted_work.to_string(),
            if profile.grain_log2 == 0 {
                "-".to_string()
            } else {
                grain_label(profile.grain_log2)
            },
            "-".to_string(),
            "-".to_string(),
        ]);
    }
    let log = report.commit_log;
    let mut summary = vec!["commit-log".to_string()];
    summary.resize(13, "-".to_string());
    summary.push(log.cas_retries.to_string());
    summary.push(log.ring_overflows.to_string());
    table.push_row(summary);
    table.render()
}

/// Simulate `recording` under a governor policy.  Seed, tracing and
/// metrics cadence come from `config`.
fn simulate_governed(
    recording: &Recording,
    config: &ExperimentConfig,
    cpus: usize,
    rollback_probability: f64,
    policy: PolicyKind,
) -> SimResult {
    simulate(
        recording,
        SimConfig {
            num_cpus: cpus,
            rollback_probability,
            seed: config.seed,
            governor: GovernorConfig::with_policy(policy),
            trace: config.trace_enabled(),
            metrics: config.sim_metrics_config(),
            ..Default::default()
        },
    )
}

/// Adaptive-governor sweep: Static vs Throttle vs ModelSelect across the
/// rollback-heavy workloads (run with injected rollbacks) plus the
/// remaining figure workloads (run clean), at the largest configured CPU
/// count.  Appends the per-site profile tables of the rollback-heavy
/// workloads under the throttle policy, showing which sites were
/// suppressed.
pub fn adaptive_sweep(config: &ExperimentConfig) -> (Vec<AdaptiveRow>, String) {
    let cpus = config.cpus.iter().copied().max().unwrap_or(16);
    let mut rows = Vec::new();
    let mut table = Table::new(
        format!("Adaptive Governor Sweep at {cpus} CPUs (per-site throttling and model selection)"),
        &[
            "workload",
            "policy",
            "inj. rollback",
            "speedup",
            "committed",
            "rolled back (C/O/I/X)",
            "wasted work",
            "throttled",
        ],
    );
    // One parallel task per workload; assembly below keeps input order.
    let per_kind = par_map(&WorkloadKind::ALL, |&kind| {
        let heavy = ROLLBACK_HEAVY.contains(&kind);
        let p = if heavy {
            ADAPTIVE_ROLLBACK_PROBABILITY
        } else {
            0.0
        };
        let recording = record_workload(kind, config.scale);
        let mut kind_rows = Vec::new();
        let mut site_tables = String::new();
        for policy in PolicyKind::ALL {
            let result = simulate_governed(&recording, config, cpus, p, policy);
            let report = &result.report;
            kind_rows.push(AdaptiveRow {
                schema_version: BENCH_SCHEMA_VERSION,
                workload: kind.name().to_string(),
                policy: policy.label().to_string(),
                rollback_probability: p,
                speedup: result.speedup(),
                committed: report.committed_threads,
                rolled_back: report.rolled_back_threads,
                rollback_reasons: report.rollback_reasons,
                wasted_work: report.wasted_work(),
                rollback_amplification: report.rollback_amplification(),
                throttled_forks: report.throttled_forks(),
            });
            if heavy && policy == PolicyKind::Throttle {
                site_tables.push_str(&format_site_table(
                    &format!(
                        "Per-site profile — {} under throttle ({}% injected rollbacks)",
                        kind.name(),
                        p * 100.0
                    ),
                    report,
                ));
                site_tables.push('\n');
            }
            let label = format!("adaptive/{}/{}", kind.name(), policy.label());
            config.record_trace(label.clone(), result.events, 0);
            if let Some(last) = result.metrics.latest().cloned() {
                config.record_metrics(label, result.metrics, last);
            }
        }
        (kind_rows, site_tables)
    });
    let mut site_tables = String::new();
    for (kind_rows, kind_tables) in per_kind {
        for row in kind_rows {
            table.push_row(vec![
                row.workload.clone(),
                row.policy.clone(),
                format!("{:.0}%", row.rollback_probability * 100.0),
                format!("{:.2}", row.speedup),
                row.committed.to_string(),
                format_rollback_cell(row.rolled_back, &row.rollback_reasons),
                row.wasted_work.to_string(),
                row.throttled_forks.to_string(),
            ]);
            rows.push(row);
        }
        site_tables.push_str(&kind_tables);
    }
    let text = format!("{}\n{site_tables}", table.render());
    (rows, text)
}

/// True-sharing rates (permille) swept by the conflict experiment.
pub const CONFLICT_SHARING_PERMILLE: [u32; 4] = [0, 250, 500, 1000];

/// The governor policies compared by the native-runtime sweeps.
pub const NATIVE_POLICIES: [PolicyKind; 2] = [PolicyKind::Static, PolicyKind::Throttle];

/// Compact `p50/p99/p999` cell for one latency phase of a *native* run,
/// where samples are nanoseconds (reported in µs); "-" when the phase
/// never fired.
fn latency_cell_us(report: &LatencyReport, phase: LatencyPhase) -> String {
    match report.row(phase) {
        Some(row) if row.count > 0 => format!(
            "{:.1}/{:.1}/{:.1}",
            row.p50 as f64 / 1e3,
            row.p99 as f64 / 1e3,
            row.p999 as f64 / 1e3
        ),
        _ => "-".to_string(),
    }
}

/// One row of a native-runtime sweep (conflict or buffer-overflow): the
/// rollback counts are *real* — no injection is configured — and split by
/// cause.
#[derive(Debug, Clone, Serialize)]
pub struct NativeRow {
    /// Schema version of this row ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Benchmark name.
    pub workload: String,
    /// Governor policy label.
    pub policy: String,
    /// True-sharing rate in `[0, 1]` (conflict sweep; 0 for overflow rows).
    pub sharing: f64,
    /// Committed speculative threads.
    pub committed: u64,
    /// Successful value-predict retries (never counted as rollbacks).
    pub retries: u64,
    /// Rolled-back speculative threads.
    pub rolled_back: u64,
    /// Rollbacks split by cause, indexed by
    /// [`RollbackReason::index`](mutls_membuf::RollbackReason::index).
    pub rollback_reasons: [u64; RollbackReason::COUNT],
    /// Work discarded by rollbacks (nanoseconds of native execution).
    pub wasted_work_ns: u64,
    /// Derived rollback amplification (schema v6): wasted work over
    /// committed speculative work — the metrics plane's headline
    /// efficiency gauge, stamped per row so the trajectory is trackable.
    pub rollback_amplification: f64,
    /// Fork requests suppressed by the governor.
    pub throttled_forks: u64,
    /// Per-phase latency quantiles (log2-bucket lower bounds, ns).
    pub latency: LatencyReport,
    /// Whether the final memory state matched the sequential reference.
    pub checksum_ok: bool,
}

impl NativeRow {
    fn from_report(
        workload: &str,
        policy: PolicyKind,
        sharing: f64,
        checksum_ok: bool,
        report: &RunReport,
    ) -> Self {
        NativeRow {
            schema_version: BENCH_SCHEMA_VERSION,
            workload: workload.to_string(),
            policy: policy.label().to_string(),
            sharing,
            committed: report.committed_threads,
            retries: report.retries(),
            rolled_back: report.rolled_back_threads,
            rollback_reasons: report.rollback_reasons,
            wasted_work_ns: report.wasted_work(),
            rollback_amplification: report.rollback_amplification(),
            throttled_forks: report.throttled_forks(),
            latency: report.latency.clone(),
            checksum_ok,
        }
    }

    fn table_row(&self) -> Vec<String> {
        vec![
            self.workload.clone(),
            format!("{:.0}%", self.sharing * 100.0),
            self.policy.clone(),
            self.committed.to_string(),
            self.retries.to_string(),
            format_rollback_cell(self.rolled_back, &self.rollback_reasons),
            format!("{:.1}", self.wasted_work_ns as f64 / 1_000.0),
            self.throttled_forks.to_string(),
            latency_cell_us(&self.latency, LatencyPhase::ForkToCommit),
            if self.checksum_ok { "ok" } else { "MISMATCH" }.to_string(),
        ]
    }
}

/// Number of speculative CPUs used by the native sweeps (real OS threads,
/// so capped independently of the simulated CPU counts).
fn native_cpus(config: &ExperimentConfig) -> usize {
    config.cpus.iter().copied().max().unwrap_or(8).min(8)
}

/// One configured conflict-family case: resolves the per-kind config once
/// so the sequential reference is computed once per (kind, sharing-rate)
/// point and shared by every policy run.
enum ConflictCase {
    Chain(conflict::ChainConfig),
    Hist(conflict::HistConfig),
}

impl ConflictCase {
    fn new(kind: WorkloadKind, scale: Scale, permille: u32) -> Self {
        match kind {
            WorkloadKind::ConflictChain => ConflictCase::Chain(
                conflict::ChainConfig::for_scale(scale).sharing_permille(permille),
            ),
            WorkloadKind::HistShared => ConflictCase::Hist(
                conflict::HistConfig::for_scale(scale).sharing_permille(permille),
            ),
            other => unreachable!("{} is not a conflict-family workload", other.name()),
        }
    }

    fn reference(&self) -> u64 {
        match self {
            ConflictCase::Chain(cfg) => conflict::chain_reference(*cfg),
            ConflictCase::Hist(cfg) => conflict::hist_reference(*cfg),
        }
    }

    /// Run the case natively, draining the run's flight recorder (empty
    /// unless the config enables tracing) and its metrics capture
    /// (series + final scrape; empty unless the config enables metrics).
    fn native_observed(
        &self,
        runtime_config: RuntimeConfig,
    ) -> (
        u64,
        RunReport,
        (Vec<TraceEvent>, u64),
        conflict::MetricsCapture,
    ) {
        match self {
            ConflictCase::Chain(cfg) => conflict::chain_native_observed(*cfg, runtime_config),
            ConflictCase::Hist(cfg) => conflict::hist_native_observed(*cfg, runtime_config),
        }
    }
}

/// Native-runtime conflict sweep: the conflict-generating workloads across
/// true-sharing rates, Static vs Throttle, with **no injected rollbacks**
/// — every rollback in the table is a genuine dependence violation
/// detected through the speculative buffers and the commit log.  The
/// summary lines report Throttle's wasted-work reduction over Static at
/// each sharing rate, which is the governor validated end-to-end on real
/// conflicts.
///
/// Runs at **word grain** ([`CommitLogConfig::word_grain`]): this sweep
/// measures *true* sharing, and only word-granular tracking makes "zero
/// sharing ⇒ zero conflict rollbacks" structural — coarser grains add
/// false sharing, which the `grain` sweep prices separately.
pub fn conflict_sweep(config: &ExperimentConfig) -> (Vec<NativeRow>, String) {
    let cpus = native_cpus(config);
    let mut rows = Vec::new();
    let mut table = Table::new(
        format!(
            "Conflict Sweep at {cpus} CPUs (native runtime, real dependence validation, no injection)"
        ),
        &[
            "workload",
            "sharing",
            "policy",
            "committed",
            "retries",
            "rolled back (C/O/I/X)",
            "wasted work (µs)",
            "throttled",
            "f2c p50/p99/p999 (µs)",
            "checksum",
        ],
    );
    let mut site_tables = String::new();
    let mut summary = String::from("# Throttle wasted-work reduction vs Static (real conflicts)\n");
    for kind in WorkloadKind::CONFLICT_FAMILY {
        for permille in CONFLICT_SHARING_PERMILLE {
            let sharing = permille as f64 / 1000.0;
            let case = ConflictCase::new(kind, config.scale, permille);
            let reference = case.reference();
            let mut wasted = HashMap::new();
            for policy in NATIVE_POLICIES {
                let (sum, report, (events, dropped), (series, last)) = case.native_observed(
                    RuntimeConfig::with_cpus(cpus)
                        .governor_policy(policy)
                        .commit_log(CommitLogConfig::word_grain())
                        .trace(config.trace_config())
                        .metrics(config.metrics_config()),
                );
                let label = format!(
                    "conflict/{}/sharing{permille:04}/{}",
                    kind.name(),
                    policy.label()
                );
                config.record_trace(label.clone(), events, dropped);
                config.record_metrics(label, series, last);
                let row =
                    NativeRow::from_report(kind.name(), policy, sharing, sum == reference, &report);
                table.push_row(row.table_row());
                wasted.insert(policy, row.wasted_work_ns);
                if permille == 1000 && policy == PolicyKind::Throttle {
                    site_tables.push_str(&format_site_table(
                        &format!(
                            "Per-site profile — {} under throttle (100% true sharing, rollbacks all real)",
                            kind.name()
                        ),
                        &report,
                    ));
                    site_tables.push('\n');
                    site_tables.push_str(&format_latency_table(
                        &format!(
                            "Phase latencies — {} under throttle (100% true sharing, ns)",
                            kind.name()
                        ),
                        &report.latency,
                    ));
                    site_tables.push('\n');
                }
                rows.push(row);
            }
            if permille > 0 {
                let stat = wasted[&PolicyKind::Static].max(1) as f64;
                let thr = wasted[&PolicyKind::Throttle].max(1) as f64;
                summary.push_str(&format!(
                    "{} at {:.0}% sharing: {:.1}x less wasted work under throttle\n",
                    kind.name(),
                    sharing * 100.0,
                    stat / thr,
                ));
            }
        }
    }
    let text = format!("{}\n{site_tables}{summary}", table.render());
    (rows, text)
}

/// Buffer-overflow pressure sweep: the memory-intensive benchmarks run on
/// the native runtime with [`BufferConfig::tiny`] buffers, so speculative
/// threads overflow and roll back with `RollbackReason::Overflow` — this
/// exercises the governor's overflow-rate threshold rather than its
/// rollback-rate one.
pub fn overflow_sweep(config: &ExperimentConfig) -> (Vec<NativeRow>, String) {
    let cpus = native_cpus(config);
    let kinds = [WorkloadKind::Fft, WorkloadKind::Matmult, WorkloadKind::Bh];
    let mut rows = Vec::new();
    let mut table = Table::new(
        format!(
            "Buffer-Overflow Pressure Sweep at {cpus} CPUs (native runtime, BufferConfig::tiny)"
        ),
        &[
            "workload",
            "sharing",
            "policy",
            "committed",
            "retries",
            "rolled back (C/O/I/X)",
            "wasted work (µs)",
            "throttled",
            "f2c p50/p99/p999 (µs)",
            "checksum",
        ],
    );
    for kind in kinds {
        let reference = reference_checksum(kind, config.scale);
        for policy in NATIVE_POLICIES {
            let runtime = Runtime::new(
                RuntimeConfig::with_cpus(cpus)
                    .memory_bytes(arena_bytes(kind, config.scale))
                    .buffer(BufferConfig::tiny())
                    .governor_policy(policy)
                    .trace(config.trace_config())
                    .metrics(config.metrics_config()),
            );
            let memory = runtime.memory();
            let data = setup(kind, config.scale, &memory);
            let (_, report) = runtime.run(|ctx| run_speculative(ctx, &data));
            let label = format!("overflow/{}/{}", kind.name(), policy.label());
            config.record_trace(
                label.clone(),
                runtime.drain_trace_events(),
                runtime.trace_dropped(),
            );
            config.record_metrics(label, runtime.metrics_series(), runtime.metrics_snapshot());
            let checksum_ok = mutls_workloads::checksum(&memory, &data) == reference;
            let row = NativeRow::from_report(kind.name(), policy, 0.0, checksum_ok, &report);
            table.push_row(row.table_row());
            rows.push(row);
        }
    }
    let text = table.render();
    (rows, text)
}

/// Commit-log grains swept by the `grain` experiment (log2 bytes):
/// word, cache line, page.
pub const GRAIN_SWEEP_GRAINS: [u32; 3] = [WORD_GRAIN_LOG2, LINE_GRAIN_LOG2, PAGE_GRAIN_LOG2];

/// Commit-log shard counts swept by the `grain` experiment: a single
/// shard (one epoch counter for every committer) vs the sharded default.
pub const GRAIN_SWEEP_SHARDS: [usize; 2] = [1, 8];

/// Human label for a tracking grain.
pub fn grain_label(grain_log2: u32) -> String {
    match grain_log2 {
        WORD_GRAIN_LOG2 => "word".to_string(),
        LINE_GRAIN_LOG2 => "line".to_string(),
        PAGE_GRAIN_LOG2 => "page".to_string(),
        g => format!("2^{g}B"),
    }
}

/// One row of the grain sweep: a native run at one (workload, grain,
/// shard-count) point, with the commit-log cost columns the coarser
/// grains and extra shards are meant to shrink.
#[derive(Debug, Clone, Serialize)]
pub struct GrainRow {
    /// Schema version of this row ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Benchmark name.
    pub workload: String,
    /// Commit-log tracking grain (log2 bytes).
    pub grain_log2: u32,
    /// Commit-log shard count.
    pub shards: usize,
    /// Committed speculative threads.
    pub committed: u64,
    /// Rolled-back speculative threads.
    pub rolled_back: u64,
    /// Rollbacks split by cause, indexed by
    /// [`RollbackReason::index`](mutls_membuf::RollbackReason::index).
    pub rollback_reasons: [u64; RollbackReason::COUNT],
    /// Conflict rollbacks classified as suspected false sharing.
    pub suspected_false_sharing: u64,
    /// Successful value-predict retries (coarse grains raise these in
    /// place of false-sharing rollbacks).
    pub retries: u64,
    /// Work discarded by rollbacks (nanoseconds of native execution).
    pub wasted_work_ns: u64,
    /// Commit batches recorded in the log.
    pub commits: u64,
    /// Range stamps written across all batches (cumulative log traffic —
    /// what a coarser grain shrinks).
    pub stamp_writes: u64,
    /// Estimated commit-publication time (µs): version reservation plus
    /// stamping, sampled (see `CommitLogStats::lock_ns`).
    pub commit_lock_us: f64,
    /// Commit throughput: batches per millisecond of publication time —
    /// higher is better; coarser grains raise it.
    pub commit_throughput: f64,
    /// Wall-clock commit throughput: batches per second of end-to-end run
    /// time.
    pub commits_per_sec: f64,
    /// CAS retries paid by the commit path (same-slot `compare_exchange`
    /// losses plus seqlock-forced re-stamps).
    pub cas_retries: u64,
    /// Ring probes whose observed version had already fallen off the
    /// version window.
    pub ring_overflows: u64,
    /// Derived rollback amplification (schema v6): wasted work over
    /// committed speculative work.
    pub rollback_amplification: f64,
    /// Regions regrained by the adaptive controller (0 here: the grain
    /// sweep runs static grains; the column keeps the row shape shared
    /// with the `graincontrol` sweep).
    pub regrains: u64,
    /// Reader-registry entries spilled to the overflow list (registry
    /// pressure: spilled ranges fall back to scan-everyone dooming).
    pub reader_spills: u64,
    /// Whether the final memory state matched the sequential reference.
    pub checksum_ok: bool,
}

/// Native grain sweep: workload × tracking grain × shard count, Static
/// policy, no injection.  Correctness must hold at every point (the
/// differential oracle in `tests/differential.rs` asserts the same
/// registry-wide); the commit-log columns show coarser grains stamping
/// fewer ranges and spending less time publishing, while the rollback
/// columns price the false sharing they introduce.
pub fn grain_sweep(config: &ExperimentConfig) -> (Vec<GrainRow>, String) {
    let cpus = native_cpus(config);
    // mandelbrot writes disjoint rows (no cross-thread sharing at any
    // grain): the clean commit-path signal.  matmult/fft genuinely share
    // (partial-product accumulation), so coarser grains also buy
    // false-sharing rollbacks there; conflict_chain's commit structure
    // is deterministic, which the tests lean on.
    let kinds = [
        WorkloadKind::Mandelbrot,
        WorkloadKind::Matmult,
        WorkloadKind::Fft,
        WorkloadKind::ConflictChain,
    ];
    let mut rows = Vec::new();
    let mut table = Table::new(
        format!("Commit-Log Grain Sweep at {cpus} CPUs (native runtime, static policy)"),
        &[
            "workload",
            "grain",
            "shards",
            "committed",
            "retries",
            "rolled back (C/O/I/X)",
            "false-share",
            "wasted (µs)",
            "commits",
            "stamps",
            "publish (µs)",
            "commits/ms publish",
            "commits/s",
            "cas-retries",
            "ring-ovfl",
            "regrains",
            "spills",
            "checksum",
        ],
    );
    for kind in kinds {
        let reference = reference_checksum(kind, config.scale);
        for grain_log2 in GRAIN_SWEEP_GRAINS {
            for shards in GRAIN_SWEEP_SHARDS {
                let runtime = Runtime::new(
                    RuntimeConfig::with_cpus(cpus)
                        .memory_bytes(arena_bytes(kind, config.scale))
                        .commit_log(
                            CommitLogConfig::default()
                                .grain_log2(grain_log2)
                                .shards(shards),
                        )
                        .trace(config.trace_config())
                        .metrics(config.metrics_config()),
                );
                let memory = runtime.memory();
                let data = setup(kind, config.scale, &memory);
                let run_started = Instant::now();
                let (_, report) = runtime.run(|ctx| run_speculative(ctx, &data));
                let run_secs = run_started.elapsed().as_secs_f64().max(1e-9);
                let label = format!(
                    "grain/{}/{}/shards{shards}",
                    kind.name(),
                    grain_label(grain_log2)
                );
                config.record_trace(
                    label.clone(),
                    runtime.drain_trace_events(),
                    runtime.trace_dropped(),
                );
                config.record_metrics(label, runtime.metrics_series(), runtime.metrics_snapshot());
                let checksum_ok = mutls_workloads::checksum(&memory, &data) == reference;
                let log = report.commit_log;
                let lock_ms = (log.lock_ns as f64 / 1e6).max(1e-6);
                let row = GrainRow {
                    schema_version: BENCH_SCHEMA_VERSION,
                    workload: kind.name().to_string(),
                    grain_log2,
                    shards,
                    committed: report.committed_threads,
                    rolled_back: report.rolled_back_threads,
                    rollback_reasons: report.rollback_reasons,
                    suspected_false_sharing: report.suspected_false_sharing(),
                    retries: report.retries(),
                    wasted_work_ns: report.wasted_work(),
                    commits: log.commits,
                    stamp_writes: log.stamp_writes,
                    commit_lock_us: log.lock_ns as f64 / 1e3,
                    commit_throughput: log.commits as f64 / lock_ms,
                    commits_per_sec: log.commits as f64 / run_secs,
                    cas_retries: log.cas_retries,
                    ring_overflows: log.ring_overflows,
                    rollback_amplification: report.rollback_amplification(),
                    regrains: log.regrains,
                    reader_spills: log.reader_spills,
                    checksum_ok,
                };
                table.push_row(vec![
                    row.workload.clone(),
                    grain_label(grain_log2),
                    shards.to_string(),
                    row.committed.to_string(),
                    row.retries.to_string(),
                    format_rollback_cell(row.rolled_back, &row.rollback_reasons),
                    row.suspected_false_sharing.to_string(),
                    format!("{:.1}", row.wasted_work_ns as f64 / 1e3),
                    row.commits.to_string(),
                    row.stamp_writes.to_string(),
                    format!("{:.1}", row.commit_lock_us),
                    format!("{:.0}", row.commit_throughput),
                    format!("{:.0}", row.commits_per_sec),
                    row.cas_retries.to_string(),
                    row.ring_overflows.to_string(),
                    row.regrains.to_string(),
                    row.reader_spills.to_string(),
                    if row.checksum_ok { "ok" } else { "MISMATCH" }.to_string(),
                ]);
                rows.push(row);
            }
        }
    }
    let text = table.render();
    (rows, text)
}

/// True-sharing rates (permille) swept by the `recovery` experiment.
pub const RECOVERY_SWEEP_PERMILLE: [u32; 3] = [0, 500, 1000];

/// Commit-log grains swept by the `recovery` experiment: word (true
/// sharing only) and line (adds false sharing, the precise-pass and
/// value-predict regime).
pub const RECOVERY_SWEEP_GRAINS: [u32; 2] = [WORD_GRAIN_LOG2, LINE_GRAIN_LOG2];

/// One row of the recovery sweep: a native run of a conflict-family
/// workload at one (grain, sharing rate) point.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryRow {
    /// Schema version of this row ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Benchmark name.
    pub workload: String,
    /// Commit-log tracking grain (log2 bytes).
    pub grain_log2: u32,
    /// True-sharing rate in `[0, 1]`.
    pub sharing: f64,
    /// Committed speculative threads.
    pub committed: u64,
    /// Successful value-predict retries (in-flight + join-time events).
    pub retries: u64,
    /// Rolled-back speculative threads.
    pub rolled_back: u64,
    /// Rollbacks split by cause, indexed by
    /// [`RollbackReason::index`](mutls_membuf::RollbackReason::index).
    pub rollback_reasons: [u64; RollbackReason::COUNT],
    /// Threads doomed surgically through the reader registry.
    pub targeted_dooms: u64,
    /// Work discarded by rollbacks (nanoseconds of native execution).
    pub wasted_work_ns: u64,
    /// Derived rollback amplification: wasted work over committed
    /// speculative work.
    pub rollback_amplification: f64,
    /// Commit batches recorded in the log.
    pub commits: u64,
    /// Commit throughput: batches per millisecond of publication time.
    pub commit_throughput: f64,
    /// Reader registrations that spilled past the bitmask window.
    pub reader_spills: u64,
    /// Validations a version-ring probe proved precise: a later
    /// same-range commit shown to have missed every word the thread
    /// read.
    pub precise_passes: u64,
    /// Ring probes whose observed version had already fallen off the
    /// version window, degrading that range to the single-version
    /// conservative verdict.
    pub ring_overflows: u64,
    /// Per-phase latency quantiles of the median run (ns).
    pub latency: LatencyReport,
    /// Whether the final memory state matched the sequential reference.
    pub checksum_ok: bool,
}

/// Repetitions per recovery-sweep point: native wasted-work figures are
/// wall-clock (thread-scheduling sensitive), so each point is run several
/// times and the **median**-wasted-work run is reported.
pub const RECOVERY_SWEEP_REPS: usize = 5;

/// Native recovery sweep: the conflict family × tracking grain ×
/// true-sharing rate under the runtime's recovery ladder (precise pass →
/// value-predict retry → targeted doom set).  No injection: every
/// rollback is a genuine dependence violation, every retry a genuine
/// value-predict repair, and correctness must hold at every point and
/// every repetition (the differential oracle asserts the same
/// registry-wide).  Each point reports its median-wasted-work run over
/// [`RECOVERY_SWEEP_REPS`] repetitions.
pub fn recovery_sweep(config: &ExperimentConfig) -> (Vec<RecoveryRow>, String) {
    let cpus = native_cpus(config);
    let mut rows = Vec::new();
    let mut table = Table::new(
        format!("Recovery Sweep at {cpus} CPUs (native runtime, real conflicts, no injection)"),
        &[
            "workload",
            "grain",
            "sharing",
            "committed",
            "retries",
            "rolled back (C/O/I/X)",
            "dooms",
            "wasted (µs)",
            "commits/ms publish",
            "spills",
            "precise/ovfl",
            "f2c p50/p99/p999 (µs)",
            "checksum",
        ],
    );
    for kind in WorkloadKind::CONFLICT_FAMILY {
        for grain_log2 in RECOVERY_SWEEP_GRAINS {
            for permille in RECOVERY_SWEEP_PERMILLE {
                let sharing = permille as f64 / 1000.0;
                let case = ConflictCase::new(kind, config.scale, permille);
                let reference = case.reference();
                // Median-of-reps: run the point several times, keep the
                // run with the median wasted work.  Correctness must hold
                // in *every* repetition.
                type Rep = (
                    u64,
                    bool,
                    RunReport,
                    (Vec<TraceEvent>, u64),
                    conflict::MetricsCapture,
                );
                let mut runs: Vec<Rep> = (0..RECOVERY_SWEEP_REPS)
                    .map(|_| {
                        let (sum, report, capture, metrics) = case.native_observed(
                            RuntimeConfig::with_cpus(cpus)
                                .commit_grain_log2(grain_log2)
                                .trace(config.trace_config())
                                .metrics(config.metrics_config()),
                        );
                        (
                            report.wasted_work(),
                            sum == reference,
                            report,
                            capture,
                            metrics,
                        )
                    })
                    .collect();
                let every_rep_correct = runs.iter().all(|(_, ok, _, _, _)| *ok);
                runs.sort_by_key(|(wasted, _, _, _, _)| *wasted);
                let (_, _, report, (events, dropped), (series, last)) =
                    runs.swap_remove(runs.len() / 2);
                let label = format!(
                    "recovery/{}/{}/sharing{permille:04}",
                    kind.name(),
                    grain_label(grain_log2),
                );
                config.record_trace(label.clone(), events, dropped);
                config.record_metrics(label, series, last);
                let log = report.commit_log;
                let lock_ms = (log.lock_ns as f64 / 1e6).max(1e-6);
                let row = RecoveryRow {
                    schema_version: BENCH_SCHEMA_VERSION,
                    workload: kind.name().to_string(),
                    grain_log2,
                    sharing,
                    committed: report.committed_threads,
                    retries: report.retries(),
                    rolled_back: report.rolled_back_threads,
                    rollback_reasons: report.rollback_reasons,
                    targeted_dooms: report.targeted_dooms(),
                    wasted_work_ns: report.wasted_work(),
                    rollback_amplification: report.rollback_amplification(),
                    commits: log.commits,
                    commit_throughput: log.commits as f64 / lock_ms,
                    reader_spills: log.reader_spills,
                    precise_passes: report.precise_passes(),
                    ring_overflows: log.ring_overflows,
                    latency: report.latency.clone(),
                    checksum_ok: every_rep_correct,
                };
                table.push_row(vec![
                    row.workload.clone(),
                    grain_label(grain_log2),
                    format!("{:.0}%", sharing * 100.0),
                    row.committed.to_string(),
                    row.retries.to_string(),
                    format_rollback_cell(row.rolled_back, &row.rollback_reasons),
                    row.targeted_dooms.to_string(),
                    format!("{:.1}", row.wasted_work_ns as f64 / 1e3),
                    format!("{:.0}", row.commit_throughput),
                    row.reader_spills.to_string(),
                    format!("{}/{}", row.precise_passes, row.ring_overflows),
                    latency_cell_us(&row.latency, LatencyPhase::ForkToCommit),
                    if row.checksum_ok { "ok" } else { "MISMATCH" }.to_string(),
                ]);
                rows.push(row);
            }
        }
    }
    (rows, table.render())
}

/// One row of the deterministic recovery replay: a conflict-family
/// recording simulated at one (grain, sharing rate) point (virtual
/// cycles, fully reproducible — the native sweep provides the wall-clock
/// evidence).
#[derive(Debug, Clone, Serialize)]
pub struct RecoverySimRow {
    /// Schema version of this row ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Benchmark name.
    pub workload: String,
    /// Commit-log tracking grain (log2 bytes).  At word grain every
    /// range hit is a word hit, so the rings never fire; line grain adds
    /// the false sharing they turn into precise passes.
    pub grain_log2: u32,
    /// True-sharing rate in `[0, 1]`.
    pub sharing: f64,
    /// Committed speculative fibers.
    pub committed: u64,
    /// Fibers whose conflict was repaired by value-predict-and-retry.
    pub retried: u64,
    /// Rolled-back speculative fibers.
    pub rolled_back: u64,
    /// Fibers doomed surgically at publish time.
    pub targeted_dooms: u64,
    /// Validations the simulated version rings proved precise.
    pub precise_passes: u64,
    /// Simulated ring probes that fell off the version window and
    /// degraded to the single-version conservative verdict.
    pub ring_overflows: u64,
    /// Work discarded by rollbacks (virtual cycles) — deterministic.
    pub wasted_cycles: u64,
    /// Derived rollback amplification: wasted cycles over committed
    /// speculative cycles — deterministic in the replay.
    pub rollback_amplification: f64,
    /// Absolute speedup over the sequential trace cost.
    pub speedup: f64,
}

/// Record a conflict-family workload at an explicit sharing rate.
fn record_conflict(kind: WorkloadKind, scale: Scale, permille: u32) -> Recording {
    let memory = Arc::new(GlobalMemory::new(conflict::ARENA_BYTES));
    match kind {
        WorkloadKind::ConflictChain => {
            let config = conflict::ChainConfig::for_scale(scale).sharing_permille(permille);
            let data = conflict::chain_setup(&memory, &config);
            record_region(memory, |ctx| conflict::chain_run(ctx, data, config))
        }
        WorkloadKind::HistShared => {
            let config = conflict::HistConfig::for_scale(scale).sharing_permille(permille);
            let data = conflict::hist_setup(&memory, &config);
            record_region(memory, |ctx| conflict::hist_run(ctx, data, config))
        }
        other => unreachable!("{} is not a conflict-family workload", other.name()),
    }
}

/// Deterministic recovery replay: the conflict family recorded at each
/// sharing rate and replayed on the discrete-event simulator at word and
/// line grain.  Identical inputs, virtual cycles — a doomed fiber stops
/// at its next check point instead of completing its conflict window,
/// and at line grain false-sharing conflicts become ring-probed precise
/// passes instead of dooms and retries.
pub fn recovery_replay(config: &ExperimentConfig) -> (Vec<RecoverySimRow>, String) {
    let cpus = native_cpus(config);
    let mut rows = Vec::new();
    let mut table = Table::new(
        format!("Recovery Replay at {cpus} CPUs (deterministic simulation)"),
        &[
            "workload",
            "grain",
            "sharing",
            "committed",
            "retried",
            "rolled back",
            "dooms",
            "precise/ovfl",
            "wasted (cycles)",
            "speedup",
        ],
    );
    for kind in WorkloadKind::CONFLICT_FAMILY {
        for permille in RECOVERY_SWEEP_PERMILLE {
            let sharing = permille as f64 / 1000.0;
            let recording = record_conflict(kind, config.scale, permille);
            for grain_log2 in RECOVERY_SWEEP_GRAINS {
                let result = simulate(
                    &recording,
                    SimConfig {
                        num_cpus: cpus,
                        seed: config.seed,
                        trace: config.trace_enabled(),
                        metrics: config.sim_metrics_config(),
                        ..SimConfig::default()
                    }
                    .grain_log2(grain_log2),
                );
                let report = &result.report;
                let row = RecoverySimRow {
                    schema_version: BENCH_SCHEMA_VERSION,
                    workload: kind.name().to_string(),
                    grain_log2,
                    sharing,
                    committed: report.committed_threads,
                    retried: report.retried_threads,
                    rolled_back: report.rolled_back_threads,
                    targeted_dooms: report.targeted_dooms(),
                    precise_passes: report.precise_passes(),
                    ring_overflows: report.commit_log.ring_overflows,
                    wasted_cycles: report.wasted_work(),
                    rollback_amplification: report.rollback_amplification(),
                    speedup: result.speedup(),
                };
                table.push_row(vec![
                    row.workload.clone(),
                    grain_label(grain_log2),
                    format!("{:.0}%", sharing * 100.0),
                    row.committed.to_string(),
                    row.retried.to_string(),
                    row.rolled_back.to_string(),
                    row.targeted_dooms.to_string(),
                    format!("{}/{}", row.precise_passes, row.ring_overflows),
                    row.wasted_cycles.to_string(),
                    format!("{:.2}", row.speedup),
                ]);
                rows.push(row);
                let label = format!(
                    "recovery_replay/{}/{}/sharing{permille:04}",
                    kind.name(),
                    grain_label(grain_log2),
                );
                config.record_trace(label.clone(), result.events, 0);
                if let Some(last) = result.metrics.latest().cloned() {
                    config.record_metrics(label, result.metrics, last);
                }
            }
        }
    }
    (rows, table.render())
}

/// One grain configuration compared by the `graincontrol` sweep: a
/// static grain or the online adaptive controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrainMode {
    /// Static commit-log grain (log2 bytes), controller off.
    Static(u32),
    /// Word-grain floor, regions start at page, the controller re-splits
    /// on false-sharing suspects and re-coarsens calm regions.
    Adaptive,
}

impl GrainMode {
    /// The grain modes the sweep compares, static ladder first.
    pub fn all() -> [GrainMode; 4] {
        [
            GrainMode::Static(WORD_GRAIN_LOG2),
            GrainMode::Static(LINE_GRAIN_LOG2),
            GrainMode::Static(PAGE_GRAIN_LOG2),
            GrainMode::Adaptive,
        ]
    }

    /// Table label.
    pub fn label(self) -> String {
        match self {
            GrainMode::Static(g) => grain_label(g),
            GrainMode::Adaptive => "adaptive".to_string(),
        }
    }

    fn grain_control(self) -> mutls_adaptive::GrainControlConfig {
        match self {
            GrainMode::Static(_) => mutls_adaptive::GrainControlConfig::default(),
            // tick_commits(2): tiny/CI-scale runs only issue a handful of
            // commit batches, so the controller must react within a
            // couple of them.
            GrainMode::Adaptive => mutls_adaptive::GrainControlConfig::adaptive().tick_commits(2),
        }
    }

    fn runtime_config(self, cpus: usize) -> RuntimeConfig {
        let base = RuntimeConfig::with_cpus(cpus);
        match self {
            GrainMode::Static(g) => base.commit_grain_log2(g),
            GrainMode::Adaptive => base
                .commit_grain_log2(WORD_GRAIN_LOG2)
                .grain_control(self.grain_control()),
        }
    }

    fn sim_config(self, cpus: usize, seed: u64) -> SimConfig {
        let grain = match self {
            GrainMode::Static(g) => g,
            GrainMode::Adaptive => WORD_GRAIN_LOG2,
        };
        SimConfig {
            num_cpus: cpus,
            seed,
            grain_control: self.grain_control(),
            ..SimConfig::default()
        }
        .grain_log2(grain)
    }
}

/// Render a run's final per-region grain census (`word:3 page:5`).
fn census_label(census: &[(u32, u64)]) -> String {
    if census.is_empty() {
        return "-".to_string();
    }
    census
        .iter()
        .map(|&(grain, regions)| format!("{}:{}", grain_label(grain), regions))
        .collect::<Vec<_>>()
        .join(" ")
}

/// True-sharing rates (permille) the `graincontrol` sweep runs the
/// conflict family at (mandelbrot has no sharing knob and runs once).
pub const GRAINCONTROL_SHARING_PERMILLE: [u32; 2] = [0, 1000];

/// Repetitions per native graincontrol point (median by wasted work, as
/// in the recovery sweep).
pub const GRAINCONTROL_REPS: usize = 3;

/// One row of the native `graincontrol` sweep.
#[derive(Debug, Clone, Serialize)]
pub struct GrainControlRow {
    /// Schema version of this row ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Benchmark name.
    pub workload: String,
    /// Grain-mode label (`word`, `line`, `page`, `adaptive`).
    pub mode: String,
    /// True-sharing rate in `[0, 1]` (0 for workloads without the knob).
    pub sharing: f64,
    /// Committed speculative threads.
    pub committed: u64,
    /// Successful value-predict retries.
    pub retries: u64,
    /// Rolled-back speculative threads.
    pub rolled_back: u64,
    /// Rollbacks split by cause.
    pub rollback_reasons: [u64; RollbackReason::COUNT],
    /// Conflict rollbacks classified as suspected false sharing.
    pub suspected_false_sharing: u64,
    /// Range stamps written (the log-traffic column coarser grains and
    /// the controller shrink).
    pub stamp_writes: u64,
    /// Regions the controller regrained at runtime.
    pub regrains: u64,
    /// Reader-registry entries spilled to the overflow list.
    pub reader_spills: u64,
    /// Validations a version-ring probe proved precise.
    pub precise_passes: u64,
    /// Work discarded by rollbacks (nanoseconds, median run).
    pub wasted_work_ns: u64,
    /// Wasted cycles per committed cycle.
    pub rollback_amplification: f64,
    /// Final per-region grain census (`(grain_log2, regions)` pairs).
    pub region_grains: Vec<(u32, u64)>,
    /// Whether every repetition matched the sequential reference.
    pub checksum_ok: bool,
}

/// One row of the deterministic `graincontrol` replay.
#[derive(Debug, Clone, Serialize)]
pub struct GrainControlSimRow {
    /// Schema version of this row ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Benchmark name.
    pub workload: String,
    /// Grain-mode label.
    pub mode: String,
    /// True-sharing rate in `[0, 1]`.
    pub sharing: f64,
    /// Committed speculative fibers.
    pub committed: u64,
    /// Fibers repaired by value-predict-and-retry.
    pub retried: u64,
    /// Rolled-back speculative fibers.
    pub rolled_back: u64,
    /// Simulated range stamps (deterministic — the acceptance column for
    /// the stamp-traffic claim).
    pub stamp_writes: u64,
    /// Regions regrained by the simulated controller.
    pub regrains: u64,
    /// Validations the simulated version rings proved precise.
    pub precise_passes: u64,
    /// Work discarded by rollbacks (virtual cycles, deterministic — the
    /// acceptance column for the wasted-work claim).
    pub wasted_cycles: u64,
    /// Wasted cycles per committed cycle.
    pub rollback_amplification: f64,
    /// Absolute speedup over the sequential trace cost.
    pub speedup: f64,
    /// Final per-region grain census.
    pub region_grains: Vec<(u32, u64)>,
}

/// The (workload, sharing permille) points of the graincontrol sweep:
/// mandelbrot is the stamp-traffic workload (disjoint rows, no sharing
/// knob), the conflict family prices false vs true sharing.
fn graincontrol_points() -> Vec<(WorkloadKind, u32)> {
    let mut points = vec![(WorkloadKind::Mandelbrot, 0)];
    for kind in WorkloadKind::CONFLICT_FAMILY {
        for permille in GRAINCONTROL_SHARING_PERMILLE {
            points.push((kind, permille));
        }
    }
    points
}

/// Native graincontrol sweep: workload × sharing × {static word, static
/// line, static page, adaptive}.  The adaptive mode runs a word-grain
/// floor with regions starting at page: calm dense-numeric regions keep
/// page-grain stamp traffic while conflicting regions re-split toward
/// word exactness — one binary serving both ends of the
/// dense-vs-pointer-chasing spectrum in the same run, which is the
/// mixed-model thesis applied to detection granularity.  Median of
/// [`GRAINCONTROL_REPS`] by wasted work; correctness must hold in every
/// repetition.  The quantitative adaptive-vs-static claims are asserted
/// on the deterministic replay ([`graincontrol_replay`]).
pub fn graincontrol_sweep(config: &ExperimentConfig) -> (Vec<GrainControlRow>, String) {
    let cpus = native_cpus(config);
    let mut rows = Vec::new();
    let mut table = Table::new(
        format!(
            "Adaptive Grain Control Sweep at {cpus} CPUs (native runtime, real conflicts, no injection)"
        ),
        &[
            "workload",
            "sharing",
            "mode",
            "committed",
            "retries",
            "rolled back (C/O/I/X)",
            "false-share",
            "stamps",
            "regrains",
            "spills",
            "precise",
            "wasted (µs)",
            "final grains",
            "checksum",
        ],
    );
    for (kind, permille) in graincontrol_points() {
        let sharing = permille as f64 / 1000.0;
        for mode in GrainMode::all() {
            type Rep = (
                u64,
                bool,
                RunReport,
                (Vec<TraceEvent>, u64),
                conflict::MetricsCapture,
            );
            let mut runs: Vec<Rep> = (0..GRAINCONTROL_REPS)
                .map(|_| {
                    let runtime_config = mode
                        .runtime_config(cpus)
                        .trace(config.trace_config())
                        .metrics(config.metrics_config());
                    let (ok, report, capture, metrics) = match kind {
                        WorkloadKind::Mandelbrot => {
                            let runtime = Runtime::new(
                                runtime_config.memory_bytes(arena_bytes(kind, config.scale)),
                            );
                            let memory = runtime.memory();
                            let data = setup(kind, config.scale, &memory);
                            let (_, report) = runtime.run(|ctx| run_speculative(ctx, &data));
                            let ok = mutls_workloads::checksum(&memory, &data)
                                == reference_checksum(kind, config.scale);
                            let capture = (runtime.drain_trace_events(), runtime.trace_dropped());
                            let metrics = (runtime.metrics_series(), runtime.metrics_snapshot());
                            (ok, report, capture, metrics)
                        }
                        _ => {
                            let case = ConflictCase::new(kind, config.scale, permille);
                            let (sum, report, capture, metrics) =
                                case.native_observed(runtime_config);
                            (sum == case.reference(), report, capture, metrics)
                        }
                    };
                    (report.wasted_work(), ok, report, capture, metrics)
                })
                .collect();
            let every_rep_correct = runs.iter().all(|(_, ok, _, _, _)| *ok);
            runs.sort_by_key(|(wasted, _, _, _, _)| *wasted);
            let (_, _, report, (events, dropped), (series, last)) =
                runs.swap_remove(runs.len() / 2);
            let label = format!(
                "graincontrol/{}/sharing{permille:04}/{}",
                kind.name(),
                mode.label(),
            );
            config.record_trace(label.clone(), events, dropped);
            config.record_metrics(label, series, last);
            let row = GrainControlRow {
                schema_version: BENCH_SCHEMA_VERSION,
                workload: kind.name().to_string(),
                mode: mode.label(),
                sharing,
                committed: report.committed_threads,
                retries: report.retries(),
                rolled_back: report.rolled_back_threads,
                rollback_reasons: report.rollback_reasons,
                suspected_false_sharing: report.suspected_false_sharing(),
                stamp_writes: report.commit_log.stamp_writes,
                regrains: report.commit_log.regrains,
                reader_spills: report.commit_log.reader_spills,
                precise_passes: report.precise_passes(),
                wasted_work_ns: report.wasted_work(),
                rollback_amplification: report.rollback_amplification(),
                region_grains: report.region_grains.clone(),
                checksum_ok: every_rep_correct,
            };
            table.push_row(vec![
                row.workload.clone(),
                format!("{:.0}%", sharing * 100.0),
                row.mode.clone(),
                row.committed.to_string(),
                row.retries.to_string(),
                format_rollback_cell(row.rolled_back, &row.rollback_reasons),
                row.suspected_false_sharing.to_string(),
                row.stamp_writes.to_string(),
                row.regrains.to_string(),
                row.reader_spills.to_string(),
                row.precise_passes.to_string(),
                format!("{:.1}", row.wasted_work_ns as f64 / 1e3),
                census_label(&row.region_grains),
                if row.checksum_ok { "ok" } else { "MISMATCH" }.to_string(),
            ]);
            rows.push(row);
        }
    }
    (rows, table.render())
}

/// Deterministic graincontrol replay: the same workload × sharing ×
/// grain-mode matrix on the discrete-event simulator — virtual cycles
/// and simulated stamp counts, fully reproducible.  This is where the
/// acceptance claims live: adaptive stamp traffic tracks the best static
/// grain on the calm workload (mandelbrot ≈ page) while adaptive wasted
/// work tracks the best static grain on the conflicting one
/// (conflict_chain ≈ word), in the *same* configuration.
pub fn graincontrol_replay(config: &ExperimentConfig) -> (Vec<GrainControlSimRow>, String) {
    let cpus = native_cpus(config);
    let mut rows = Vec::new();
    let mut table = Table::new(
        format!("Adaptive Grain Control Replay at {cpus} CPUs (deterministic simulation)"),
        &[
            "workload",
            "sharing",
            "mode",
            "committed",
            "retried",
            "rolled back",
            "stamps",
            "regrains",
            "precise",
            "wasted (cycles)",
            "speedup",
            "final grains",
        ],
    );
    for (kind, permille) in graincontrol_points() {
        let sharing = permille as f64 / 1000.0;
        let recording = match kind {
            WorkloadKind::Mandelbrot => record_workload(kind, config.scale),
            _ => record_conflict(kind, config.scale, permille),
        };
        for mode in GrainMode::all() {
            let mut sim_config = mode
                .sim_config(cpus, config.seed)
                .trace(config.trace_enabled());
            sim_config.metrics = config.sim_metrics_config();
            let result = simulate(&recording, sim_config);
            let report = &result.report;
            let row = GrainControlSimRow {
                schema_version: BENCH_SCHEMA_VERSION,
                workload: kind.name().to_string(),
                mode: mode.label(),
                sharing,
                committed: report.committed_threads,
                retried: report.retried_threads,
                rolled_back: report.rolled_back_threads,
                stamp_writes: report.commit_log.stamp_writes,
                regrains: report.commit_log.regrains,
                precise_passes: report.precise_passes(),
                wasted_cycles: report.wasted_work(),
                rollback_amplification: report.rollback_amplification(),
                speedup: result.speedup(),
                region_grains: report.region_grains.clone(),
            };
            table.push_row(vec![
                row.workload.clone(),
                format!("{:.0}%", sharing * 100.0),
                row.mode.clone(),
                row.committed.to_string(),
                row.retried.to_string(),
                row.rolled_back.to_string(),
                row.stamp_writes.to_string(),
                row.regrains.to_string(),
                row.precise_passes.to_string(),
                row.wasted_cycles.to_string(),
                format!("{:.2}", row.speedup),
                census_label(&row.region_grains),
            ]);
            rows.push(row);
            let label = format!(
                "graincontrol_replay/{}/sharing{permille:04}/{}",
                kind.name(),
                mode.label(),
            );
            config.record_trace(label.clone(), result.events, 0);
            if let Some(last) = result.metrics.latest().cloned() {
                config.record_metrics(label, result.metrics, last);
            }
        }
    }
    (rows, table.render())
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
    /// Per-phase latency quantiles (ns native, virtual cycles replay).
    pub latency: LatencyReport,
}

/// The `trace` scenario: one native conflict-chain run and one
/// deterministic replay of the same workload at 100% true sharing, both
/// with the flight recorder forced on, reported as a per-kind event
/// census plus the full per-phase latency tables.  Also records both
/// streams into the config's trace sink when one is attached, so
/// `mutls-experiments trace --trace out.json` exports a ready-to-open
/// Perfetto document even without running a full sweep.
pub fn trace_scenario(config: &ExperimentConfig) -> (Vec<TraceScenarioRow>, String) {
    let cpus = native_cpus(config);
    let chain = conflict::ChainConfig::for_scale(config.scale).sharing_permille(1000);
    let (_, native_report, (native_events, native_dropped)) = conflict::chain_native_traced(
        chain,
        RuntimeConfig::with_cpus(cpus)
            .commit_log(CommitLogConfig::word_grain())
            .trace(TraceConfig::enabled()),
    );
    let recording = record_conflict(WorkloadKind::ConflictChain, config.scale, 1000);
    let replay = simulate(
        &recording,
        SimConfig {
            num_cpus: cpus,
            seed: config.seed,
            commit_log: CommitLogConfig::word_grain(),
            trace: true,
            ..SimConfig::default()
        },
    );
    let mut rows = Vec::new();
    let mut census = Table::new(
        format!("Flight Recorder Census at {cpus} CPUs (conflict_chain, 100% sharing)"),
        &["scenario", "event", "count"],
    );
    let scenarios: [(&str, &[TraceEvent], u64, &LatencyReport); 2] = [
        (
            "native/conflict_chain",
            &native_events,
            native_dropped,
            &native_report.latency,
        ),
        (
            "replay/conflict_chain",
            &replay.events,
            0,
            &replay.report.latency,
        ),
    ];
    for (scenario, events, dropped, latency) in scenarios {
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
                .map(|&(_, c)| c)
                .unwrap_or(0)
        };
        rows.push(TraceScenarioRow {
            schema_version: BENCH_SCHEMA_VERSION,
            scenario: scenario.to_string(),
            events: events.len() as u64,
            dropped,
            forks: count_of("ForkAttempt"),
            commits: count_of("Commit"),
            rollbacks: count_of("Rollback"),
            dooms: count_of("Doom"),
            latency: latency.clone(),
        });
        for (name, count) in &counts {
            census.push_row(vec![
                scenario.to_string(),
                name.to_string(),
                count.to_string(),
            ]);
        }
    }
    let mut text = census.render();
    text.push('\n');
    text.push_str(&format_latency_table(
        "Phase latencies — native conflict_chain (ns)",
        &native_report.latency,
    ));
    text.push('\n');
    text.push_str(&format_latency_table(
        "Phase latencies — replayed conflict_chain (virtual cycles)",
        &replay.report.latency,
    ));
    config.record_trace(
        "trace/native/conflict_chain".to_string(),
        native_events,
        native_dropped,
    );
    config.record_trace("trace/replay/conflict_chain".to_string(), replay.events, 0);
    (rows, text)
}

/// One row of the `metrics` scenario: headline counters and derived
/// gauges read back from the *final exported snapshot* of one fully
/// instrumented run (native runtime or deterministic replay) — the
/// telemetry plane observing itself.
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

/// The `metrics` scenario: one native conflict-chain run and one
/// deterministic replay of the same workload at 100% true sharing, both
/// with the metrics plane forced on, reported as the headline counters
/// and derived gauges of each final snapshot.  Also records both series
/// into the config's metrics sink when one is attached, so
/// `mutls-experiments metrics --metrics out.prom` exports a ready-made
/// Prometheus document even without running a full sweep.
pub fn metrics_scenario(config: &ExperimentConfig) -> (Vec<MetricsRow>, String) {
    let cpus = native_cpus(config);
    let chain = conflict::ChainConfig::for_scale(config.scale).sharing_permille(1000);
    let (_, _, _, (native_series, native_last)) = conflict::chain_native_observed(
        chain,
        RuntimeConfig::with_cpus(cpus)
            .commit_log(CommitLogConfig::word_grain())
            .metrics(MetricsConfig::enabled().sample_interval_ms(1)),
    );
    let recording = record_conflict(WorkloadKind::ConflictChain, config.scale, 1000);
    let replay = simulate(
        &recording,
        SimConfig {
            num_cpus: cpus,
            seed: config.seed,
            commit_log: CommitLogConfig::word_grain(),
            metrics: MetricsConfig::enabled(),
            ..SimConfig::default()
        },
    );
    let replay_series = replay.metrics;
    let replay_last = replay_series
        .latest()
        .cloned()
        .expect("replay metrics were enabled");
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
    let scenarios: [(&str, u64, &MetricsSnapshot); 2] = [
        (
            "native/conflict_chain",
            native_series.len() as u64,
            &native_last,
        ),
        (
            "replay/conflict_chain",
            replay_series.len() as u64,
            &replay_last,
        ),
    ];
    for (scenario, samples, snap) in scenarios {
        let counter = |name: &str| snap.counter(name).unwrap_or(0);
        let gauge = |name: &str| snap.gauge(name).unwrap_or(0.0);
        let row = MetricsRow {
            schema_version: BENCH_SCHEMA_VERSION,
            scenario: scenario.to_string(),
            samples,
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
    }
    config.record_metrics(
        "metrics/native/conflict_chain".to_string(),
        native_series,
        native_last,
    );
    config.record_metrics(
        "metrics/replay/conflict_chain".to_string(),
        replay_series,
        replay_last,
    );
    (rows, table.render())
}

/// Table II: the benchmark suite, with the measured memory-access density
/// of each recording added as evidence for the computation/memory
/// classification.
pub fn table2(config: &ExperimentConfig) -> (HashMap<String, f64>, String) {
    let mut table = Table::new(
        "Table II — Benchmarks",
        &[
            "benchmark",
            "description",
            "amount of data (paper)",
            "pattern",
            "class",
            "measured mem density",
        ],
    );
    let mut densities = HashMap::new();
    for kind in WorkloadKind::ALL {
        let d = descriptor(kind);
        let recording = record_workload(kind, config.scale);
        let density = recording.memory_density();
        densities.insert(kind.name().to_string(), density);
        table.push_row(vec![
            d.name.to_string(),
            d.description.to_string(),
            d.amount_of_data.to_string(),
            d.pattern.to_string(),
            match d.class {
                mutls_workloads::WorkloadClass::ComputationIntensive => "computation".to_string(),
                mutls_workloads::WorkloadClass::MemoryIntensive => "memory".to_string(),
            },
            format!("{density:.3}"),
        ]);
    }
    (densities, table.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutls_membuf::DEFAULT_RING_DEPTH;

    fn quick() -> ExperimentConfig {
        ExperimentConfig::quick()
    }

    #[test]
    fn figure3_reports_scaling_compute_workloads() {
        let (rows, text) = figure3(&quick());
        assert!(text.contains("Figure 3"));
        // Speedup at 64 CPUs should be much larger than at 1 CPU for 3x+1.
        let s1 = rows
            .iter()
            .find(|r| r.workload == "3x+1" && r.cpus == 1)
            .unwrap()
            .speedup;
        let s64 = rows
            .iter()
            .find(|r| r.workload == "3x+1" && r.cpus == 64)
            .unwrap()
            .speedup;
        assert!(s64 > s1, "s64 {s64} vs s1 {s1}");
    }

    #[test]
    fn figure10_out_of_order_loses_on_tree_recursion() {
        let (rows, _) = figure10(&quick());
        let max_cpus = quick().cpus.into_iter().max().unwrap();
        let normalized = |kind: &str| {
            rows.iter()
                .find(|(name, cpus, _)| name == &format!("{kind} outoforder") && *cpus == max_cpus)
                .map(|(_, _, v)| *v)
                .unwrap()
        };
        // At tiny scale fft shows the divide-and-conquer gap clearly; the
        // DFS benchmarks have so little work per subtree that the models
        // converge, but out-of-order must never *beat* mixed.
        assert!(
            normalized("fft") < 1.0,
            "fft: out-of-order should trail mixed, got {}",
            normalized("fft")
        );
        for kind in ["matmult", "nqueen", "tsp"] {
            assert!(
                normalized(kind) <= 1.05,
                "{kind}: out-of-order should not beat mixed, got {}",
                normalized(kind)
            );
        }
    }

    #[test]
    fn figure11_sensitivity_is_monotone_in_probability() {
        let config = ExperimentConfig {
            scale: Scale::Tiny,
            cpus: vec![16],
            seed: 3,
            trace: None,
            metrics: None,
        };
        let (rows, _) = figure11(&config);
        let fft: Vec<f64> = rows
            .iter()
            .filter(|(name, _, _)| name == "fft")
            .map(|(_, _, v)| *v)
            .collect();
        assert_eq!(fft.len(), ROLLBACK_PROBABILITIES.len());
        assert!(fft.first().unwrap() >= fft.last().unwrap());
    }

    #[test]
    fn table2_densities_separate_classes() {
        let (densities, text) = table2(&quick());
        assert!(text.contains("Table II"));
        let compute_max = ["3x+1", "mandelbrot"]
            .iter()
            .map(|k| densities[*k])
            .fold(0.0f64, f64::max);
        let memory_min = ["fft", "matmult"]
            .iter()
            .map(|k| densities[*k])
            .fold(f64::INFINITY, f64::min);
        assert!(
            compute_max < memory_min,
            "computation-intensive density {compute_max} should be below memory-intensive {memory_min}"
        );
    }

    #[test]
    fn adaptive_sweep_covers_all_workloads_and_policies() {
        let (rows, text) = adaptive_sweep(&quick());
        assert!(text.contains("Adaptive Governor Sweep"));
        assert!(text.contains("Per-site profile"));
        assert_eq!(rows.len(), WorkloadKind::ALL.len() * PolicyKind::ALL.len());
        // The rollback-heavy workloads run with injected rollbacks.
        for kind in ROLLBACK_HEAVY {
            assert!(rows
                .iter()
                .any(|r| r.workload == kind.name() && r.rollback_probability > 0.0));
        }
        // The static policy never throttles (seed behaviour).
        assert!(rows
            .iter()
            .filter(|r| r.policy == "static")
            .all(|r| r.throttled_forks == 0));
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let rows = breakdown(WorkloadKind::Fft, &quick(), &[4], false);
        let total: f64 = rows[0].fractions.iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..64).collect();
        let doubled = par_map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(par_map(&[] as &[u64], |&x| x), Vec::<u64>::new());
    }

    #[test]
    fn conflict_sweep_detects_real_conflicts_and_stays_correct() {
        let (rows, text) = conflict_sweep(&quick());
        assert!(text.contains("Conflict Sweep"));
        assert!(text.contains("wasted-work reduction"));
        assert_eq!(
            rows.len(),
            WorkloadKind::CONFLICT_FAMILY.len()
                * CONFLICT_SHARING_PERMILLE.len()
                * NATIVE_POLICIES.len()
        );
        let conflict_idx = RollbackReason::Conflict.index();
        let injected_idx = RollbackReason::Injected.index();
        for row in &rows {
            // Correctness holds at every sharing rate and policy, and no
            // rollback is ever injected.
            assert!(row.checksum_ok, "{} {} diverged", row.workload, row.policy);
            assert_eq!(
                row.rollback_reasons[injected_idx], 0,
                "{}: injected rollbacks without opting in",
                row.workload
            );
            // Zero sharing → zero conflicts, structurally.
            if row.sharing == 0.0 {
                assert_eq!(
                    row.rollback_reasons[conflict_idx], 0,
                    "{} {}: conflicts without sharing",
                    row.workload, row.policy
                );
            }
        }
        // Full sharing under the static policy produces genuine conflicts…
        assert!(
            rows.iter()
                .filter(|r| r.sharing == 1.0 && r.policy == "static")
                .any(|r| r.rollback_reasons[conflict_idx] > 0),
            "no real conflicts detected at 100% sharing"
        );
    }

    #[test]
    fn throttle_engages_on_the_real_conflicts_of_a_replayed_chain() {
        // Whether the governor has seen enough of a native run's forks to
        // act depends on scheduling; on a replay of the recorded
        // 100%-sharing chain it does not.
        let recording = record_conflict(WorkloadKind::ConflictChain, Scale::Tiny, 1000);
        let result = simulate_governed(&recording, &quick(), 8, 0.0, PolicyKind::Throttle);
        let report = &result.report;
        assert!(
            report.rollbacks_with(RollbackReason::Conflict) > 0,
            "full sharing replayed without a conflict"
        );
        assert_eq!(report.rollbacks_with(RollbackReason::Injected), 0);
        assert!(
            report.throttled_forks() > 0,
            "throttle never engaged on real conflicts"
        );
    }

    #[test]
    fn grain_sweep_stays_correct_and_coarser_grains_stamp_less() {
        let (rows, text) = grain_sweep(&quick());
        assert!(text.contains("Grain Sweep"));
        assert_eq!(
            rows.len(),
            4 * GRAIN_SWEEP_GRAINS.len() * GRAIN_SWEEP_SHARDS.len()
        );
        for row in &rows {
            // False sharing may add rollbacks but never corrupts state.
            assert!(
                row.checksum_ok,
                "{} at grain 2^{} x{} shards diverged",
                row.workload, row.grain_log2, row.shards
            );
        }
        let row_at = |kind: &str, grain: u32| {
            rows.iter()
                .find(|r| r.workload == kind && r.grain_log2 == grain && r.shards == 8)
                .unwrap()
        };
        // Robust per-row sanity: every batch stamps at least one range.
        for row in &rows {
            assert!(
                row.stamp_writes >= row.commits,
                "{} at grain 2^{}: fewer stamps than batches",
                row.workload,
                row.grain_log2
            );
        }
        // mandelbrot's speculative chunks only *store* (empty read sets),
        // so validation can never fail: zero rollbacks at every grain is
        // structural, not scheduling-dependent.
        for grain in GRAIN_SWEEP_GRAINS {
            assert_eq!(
                row_at("mandelbrot", grain).rolled_back,
                0,
                "mandelbrot has no cross-thread reads to conflict on"
            );
        }
        // The strict "coarser grain ⇒ fewer stamps per identical batch"
        // guarantee is asserted deterministically in mutls-membuf's
        // commit-log tests; the native sweep's batch structure depends on
        // scheduling (rollback re-execution converts absorbed batches
        // into rank-0 single-word commits), so no cross-run stamp-total
        // ordering is asserted here.
    }

    #[test]
    fn recovery_sweep_stays_correct_at_every_point() {
        let (rows, text) = recovery_sweep(&quick());
        assert!(text.contains("Recovery Sweep"));
        assert_eq!(
            rows.len(),
            WorkloadKind::CONFLICT_FAMILY.len()
                * RECOVERY_SWEEP_GRAINS.len()
                * RECOVERY_SWEEP_PERMILLE.len()
        );
        for row in &rows {
            // Correctness holds at every point and repetition, nothing is
            // ever injected, and without sharing a word-grain log has
            // nothing to conflict on.
            assert!(
                row.checksum_ok,
                "{} at grain 2^{} / {:.0}% sharing diverged",
                row.workload,
                row.grain_log2,
                row.sharing * 100.0
            );
            assert_eq!(row.rollback_reasons[RollbackReason::Injected.index()], 0);
            if row.grain_log2 == WORD_GRAIN_LOG2 && row.sharing == 0.0 {
                assert_eq!(row.rollback_reasons[RollbackReason::Conflict.index()], 0);
                assert_eq!(
                    row.precise_passes, 0,
                    "{}: no range is shared",
                    row.workload
                );
            }
        }
    }

    #[test]
    fn recovery_replay_is_deterministic_and_dooms_stale_readers() {
        let (rows, text) = recovery_replay(&quick());
        assert!(text.contains("Recovery Replay"));
        for row in &rows {
            if row.sharing == 0.0 {
                assert_eq!(
                    (row.rolled_back, row.wasted_cycles),
                    (0, 0),
                    "{} at grain 2^{}: rollbacks without sharing",
                    row.workload,
                    row.grain_log2
                );
            } else {
                assert!(
                    row.targeted_dooms > 0,
                    "{} at grain 2^{} / {:.0}% sharing: nobody was doomed",
                    row.workload,
                    row.grain_log2,
                    row.sharing * 100.0
                );
            }
        }
        // A second replay is identical — zero divergence is the
        // acceptance bar for the ring probes.
        let (again, _) = recovery_replay(&quick());
        let key = |r: &RecoverySimRow| {
            (
                r.wasted_cycles,
                r.rolled_back,
                r.targeted_dooms,
                r.precise_passes,
                r.ring_overflows,
            )
        };
        assert!(
            rows.iter().map(key).eq(again.iter().map(key)),
            "recovery replay is nondeterministic"
        );
    }

    #[test]
    fn recovery_replay_mvcc_beats_single_version_at_line_grain() {
        // On the deterministic simulator, at line grain and >= 50%
        // sharing, the version rings strictly reduce the fibers squashed
        // or sent through a value-predict repair against the same log at
        // ring depth 1 on both conflict workloads, because false-sharing
        // conflicts become ring-probed precise passes instead.  Surgical
        // *dooms* may grow in exchange — a precise-passing fiber survives
        // to its real conflict, where dooming it early is exactly the
        // ladder's job — so the doomed fiber's budget is asserted through
        // wasted cycles (never worse pointwise) rather than doom counts.
        // At word grain the two depths must coincide counter-for-counter:
        // every range hit is a word hit there, so the rings never fire.
        let config = quick();
        let cpus = native_cpus(&config);
        let at = |recording: &Recording, grain_log2: u32, ring_depth: u32| {
            simulate(
                recording,
                SimConfig {
                    num_cpus: cpus,
                    seed: config.seed,
                    commit_log: CommitLogConfig::default()
                        .grain_log2(grain_log2)
                        .ring_depth(ring_depth),
                    ..SimConfig::default()
                },
            )
            .report
        };
        let traffic = |r: &RunReport| r.rolled_back_threads + r.retried_threads;
        for kind in WorkloadKind::CONFLICT_FAMILY {
            let name = kind.name();
            let mut single_version = 0;
            let mut mvcc = 0;
            let mut precise = 0;
            for permille in RECOVERY_SWEEP_PERMILLE {
                let recording = record_conflict(kind, config.scale, permille);
                let single = at(&recording, LINE_GRAIN_LOG2, 1);
                let ringed = at(&recording, LINE_GRAIN_LOG2, DEFAULT_RING_DEPTH);
                assert_eq!(single.precise_passes(), 0, "{name}: depth 1 ring-probed");
                if permille >= 500 {
                    single_version += traffic(&single);
                    mvcc += traffic(&ringed);
                    precise += ringed.precise_passes();
                    assert!(
                        ringed.wasted_work() <= single.wasted_work(),
                        "{name} at {permille}‰: rings wasted {} vs single-version {}",
                        ringed.wasted_work(),
                        single.wasted_work()
                    );
                    assert!(
                        ringed.committed_threads >= single.committed_threads,
                        "{name} at {permille}‰: rings committed fewer fibers"
                    );
                }
                // Word grain: the depths coincide exactly.
                let single = at(&recording, WORD_GRAIN_LOG2, 1);
                let ringed = at(&recording, WORD_GRAIN_LOG2, DEFAULT_RING_DEPTH);
                assert_eq!(
                    ringed.precise_passes(),
                    0,
                    "{name}: rings fired at word grain"
                );
                assert_eq!(
                    (
                        ringed.rolled_back_threads,
                        ringed.retried_threads,
                        ringed.wasted_work()
                    ),
                    (
                        single.rolled_back_threads,
                        single.retried_threads,
                        single.wasted_work()
                    ),
                    "{name} at {permille}‰: the depths diverged at word grain"
                );
            }
            assert!(
                mvcc < single_version,
                "{name} at line grain: squash+retry traffic {mvcc} with rings                  vs {single_version} without — the rings bought nothing"
            );
            assert!(
                precise > 0,
                "{name} at line grain: no precise passes despite shared lines"
            );
        }
    }

    #[test]
    fn graincontrol_sweep_stays_correct_and_the_controller_engages() {
        let (rows, text) = graincontrol_sweep(&quick());
        assert!(text.contains("Adaptive Grain Control Sweep"));
        assert_eq!(
            rows.len(),
            (1 + WorkloadKind::CONFLICT_FAMILY.len() * GRAINCONTROL_SHARING_PERMILLE.len())
                * GrainMode::all().len()
        );
        for row in &rows {
            assert!(
                row.checksum_ok,
                "{} {} at {:.0}% sharing diverged",
                row.workload,
                row.mode,
                row.sharing * 100.0
            );
            // Static modes never regrain; their census is a single entry
            // at the configured grain.
            if row.mode != "adaptive" {
                assert_eq!(row.regrains, 0, "{} {} regrained", row.workload, row.mode);
            }
        }
        // The controller actually moves grains somewhere in the sweep
        // (the conflict family at full sharing splits away from page).
        assert!(
            rows.iter()
                .filter(|r| r.mode == "adaptive" && r.sharing >= 0.5)
                .any(|r| r.regrains > 0),
            "the adaptive controller never regrained a contended region"
        );
    }

    #[test]
    fn graincontrol_replay_adaptive_tracks_the_best_static_grain() {
        // The PR's acceptance claims, on the deterministic simulator
        // (virtual cycles and simulated stamp counts — exact and
        // reproducible):
        //
        // 1. mandelbrot (disjoint rows, zero conflicts): adaptive stamp
        //    traffic within 10% of the *page*-grain optimum — calm
        //    regions keep the coarse grain.
        // 2. conflict_chain at 100% sharing: adaptive wasted work within
        //    10% of the *word*-grain optimum — contended regions re-split
        //    to exactness.
        //
        // One configuration serving both ends of the spectrum is the
        // mixed-model thesis applied to detection granularity.
        let (rows, text) = graincontrol_replay(&quick());
        assert!(text.contains("Adaptive Grain Control Replay"));
        let row = |kind: &str, sharing: f64, mode: &str| {
            rows.iter()
                .find(|r| r.workload == kind && r.sharing == sharing && r.mode == mode)
                .unwrap()
        };
        let mandel_adaptive = row("mandelbrot", 0.0, "adaptive");
        let mandel_page = row("mandelbrot", 0.0, "page");
        assert!(
            mandel_adaptive.stamp_writes as f64 <= mandel_page.stamp_writes as f64 * 1.1,
            "mandelbrot: adaptive stamps {} vs page {}",
            mandel_adaptive.stamp_writes,
            mandel_page.stamp_writes
        );
        assert!(
            mandel_adaptive.stamp_writes * 2 < row("mandelbrot", 0.0, "word").stamp_writes,
            "adaptive must stay far below word-grain stamp traffic"
        );

        let chain_adaptive = row("conflict_chain", 1.0, "adaptive");
        let chain_word = row("conflict_chain", 1.0, "word");
        assert!(
            chain_adaptive.wasted_cycles as f64 <= chain_word.wasted_cycles as f64 * 1.1,
            "conflict_chain: adaptive wasted {} vs word {}",
            chain_adaptive.wasted_cycles,
            chain_word.wasted_cycles
        );
        assert!(
            chain_adaptive.regrains > 0
                && chain_adaptive
                    .region_grains
                    .iter()
                    .all(|&(grain, _)| grain == WORD_GRAIN_LOG2),
            "the contended chain region must converge to word grain, got {:?}",
            chain_adaptive.region_grains
        );

        // Determinism: the replay reproduces itself exactly.
        let (again, _) = graincontrol_replay(&quick());
        let key = |r: &GrainControlSimRow| {
            (
                r.stamp_writes,
                r.wasted_cycles,
                r.regrains,
                r.precise_passes,
            )
        };
        assert!(
            rows.iter().map(key).eq(again.iter().map(key)),
            "graincontrol replay is nondeterministic"
        );
    }

    #[test]
    fn overflow_sweep_exercises_overflow_rollbacks() {
        let (rows, text) = overflow_sweep(&quick());
        assert!(text.contains("Buffer-Overflow Pressure"));
        let overflow_idx = RollbackReason::Overflow.index();
        for row in &rows {
            assert!(row.checksum_ok, "{} {} diverged", row.workload, row.policy);
        }
        assert!(
            rows.iter()
                .filter(|r| r.policy == "static")
                .any(|r| r.rollback_reasons[overflow_idx] > 0),
            "tiny buffers never overflowed"
        );
    }

    /// Golden render of the per-site profile table: exact output, so any
    /// accidental column/format drift fails loudly.
    #[test]
    fn site_table_renders_golden() {
        use mutls_runtime::SiteProfile;
        let report = RunReport {
            sites: vec![
                SiteProfile {
                    site: mutls_workloads::matmult::SITE_QUADRANT,
                    forks: 12,
                    throttled: 1,
                    commits: 10,
                    rollbacks: 2,
                    overflows: 1,
                    conflicts: 1,
                    false_sharing: 0,
                    retries: 3,
                    injected: 0,
                    committed_work: 0,
                    wasted_work: 420,
                    stall: 0,
                    rollback_rate: 0.25,
                    grain_log2: WORD_GRAIN_LOG2,
                },
                SiteProfile {
                    site: 999,
                    forks: 4,
                    commits: 4,
                    ..SiteProfile::default()
                },
            ],
            ..RunReport::default()
        };
        let text = format_site_table("Per-site profile — golden", &report);
        let expected = "\
# Per-site profile — golden
site              forks  throttled  commits  retries  rollbacks  conflicts  false-share  overflows  injected  rollback rate  wasted work  grain  cas-retries  ring-ovfl
-------------------------------------------------------------------------------------------------------------------------------------------------------------------------\n\
matmult/quadrant  12     1          10       3        2          1          0            1          0         0.25           420          word   -            -        \n\
site 999          4      0          4        0        0          0          0            0          0         0.00           0            -      -            -        \n\
commit-log        -      -          -        -        -          -          -            -          -         -              -            -      0            0        \n";
        assert_eq!(text, expected);
    }

    /// Golden render of the per-phase latency table.
    #[test]
    fn latency_table_renders_golden() {
        let recorder = mutls_trace::LatencyRecorder::new();
        recorder.record(LatencyPhase::ForkToCommit, 1000);
        recorder.record(LatencyPhase::ForkToCommit, 5000);
        recorder.record(LatencyPhase::Validation, 100);
        let text = format_latency_table("Phase latencies — golden (ns)", &recorder.report());
        let expected = "\
# Phase latencies — golden (ns)
phase             samples  p50  p99   p999
--------------------------------------------
fork-to-commit    2        512  4096  4096
validation        1        64   64    64  \n\
commit-lock-wait  0        0    0     0   \n\
commit-cas-retry  0        0    0     0   \n\
repair-retry      0        0    0     0   \n\
repair-doomset    0        0    0     0   \n";
        assert_eq!(text, expected);
    }

    /// Golden render of the grain-census cell and grain labels used by the
    /// grain/graincontrol tables.
    #[test]
    fn grain_census_renders_golden() {
        assert_eq!(grain_label(WORD_GRAIN_LOG2), "word");
        assert_eq!(grain_label(LINE_GRAIN_LOG2), "line");
        assert_eq!(grain_label(PAGE_GRAIN_LOG2), "page");
        assert_eq!(grain_label(8), "2^8B");
        assert_eq!(census_label(&[]), "-");
        assert_eq!(
            census_label(&[(WORD_GRAIN_LOG2, 3), (PAGE_GRAIN_LOG2, 5)]),
            "word:3 page:5"
        );
        assert_eq!(census_label(&[(8, 1)]), "2^8B:1");
    }

    #[test]
    fn trace_sink_collects_and_sorts_runs() {
        let sink = TraceSink::new();
        assert!(sink.is_empty());
        let ev = TraceEvent {
            ts: 10,
            rank: 1,
            site: 2,
            epoch: 3,
            kind: mutls_trace::EventKind::Commit,
        };
        sink.record("b/run", vec![ev], 0);
        sink.record("a/run", vec![], 4);
        assert_eq!(sink.len(), 2);
        let json = sink.chrome_json();
        // Deterministic export: sorted by label regardless of insertion
        // order, and structurally valid Chrome trace-event JSON.
        assert!(json.find("a/run").unwrap() < json.find("b/run").unwrap());
        let value = serde_json::parse(&json).expect("chrome trace JSON parses");
        let obj = value.as_object().expect("top level is an object");
        assert!(obj.iter().any(|(k, _)| k == "traceEvents"));
    }

    #[test]
    fn trace_scenario_captures_the_full_lifecycle() {
        let sink = TraceSink::new();
        let config = quick().with_trace(Arc::clone(&sink));
        let (rows, text) = trace_scenario(&config);
        assert!(text.contains("Flight Recorder Census"));
        assert_eq!(rows.len(), 2, "one native + one replay scenario row");
        for row in &rows {
            assert_eq!(row.schema_version, BENCH_SCHEMA_VERSION);
            assert!(row.events > 0, "{}: no events traced", row.scenario);
            assert!(row.forks > 0, "{}: no forks traced", row.scenario);
            assert!(row.commits > 0, "{}: no commits traced", row.scenario);
        }
        // The 100%-sharing chain must surface real conflict lifecycle
        // events, not just forks and commits.
        assert!(
            rows.iter().any(|r| r.rollbacks + r.dooms > 0),
            "full-sharing chain produced no rollback/doom events"
        );
        assert_eq!(sink.len(), 2, "both runs recorded to the sink");
        assert!(serde_json::parse(&sink.chrome_json()).is_ok());
    }
}
