//! The repo's own sweeps.  An experiment is a name, a list of [`Point`]s
//! and, per engine, a list of [`Column`]s: [`run_points`] is the one runner
//! (native runtime or deterministic replay), [`Row::from_report`] the one
//! projection of a `RunReport`, and [`col`] the one catalogue every table
//! picks its columns from.

use serde::Serialize;

use mutls_adaptive::{GovernorConfig, GrainControlConfig, PolicyKind};
use mutls_membuf::{
    BufferConfig, CommitLogStats, RollbackReason, LINE_GRAIN_LOG2, PAGE_GRAIN_LOG2, WORD_GRAIN_LOG2,
};
use mutls_metrics::{MetricsConfig, MetricsSeries, MetricsSnapshot};
use mutls_runtime::{RunReport, Runtime, RuntimeConfig};
use mutls_simcpu::{simulate, SimConfig};
use mutls_trace::{LatencyPhase, LatencyReport, TraceConfig, TraceEvent};
use mutls_workloads::{
    arena_bytes, checksum, reference_checksum_shared, run_speculative, setup_shared, Scale,
    WorkloadKind,
};

use crate::paper::{par_map, record_workload_shared};
use crate::report::{
    census_label, format_latency_table, format_rollback_cell, format_site_table, latency_cell_us,
    Table,
};
use crate::sinks::{ExperimentConfig, Observe};
use crate::BENCH_SCHEMA_VERSION;

/// How a point's commit log picks its tracking grain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrainMode {
    /// Static word grain: exact, no false sharing.
    Word,
    /// Static cache-line grain (the runtime's default).
    Line,
    /// Static page grain.
    Page,
    /// Word-grain floor, regions start at page, and the controller
    /// re-splits on false-sharing suspects and re-coarsens calm regions.
    Adaptive,
}

impl GrainMode {
    /// Every mode, static ladder first.
    pub const ALL: [GrainMode; 4] = [
        GrainMode::Word,
        GrainMode::Line,
        GrainMode::Page,
        GrainMode::Adaptive,
    ];

    /// Table and JSON label.
    pub fn label(self) -> &'static str {
        match self {
            GrainMode::Word => "word",
            GrainMode::Line => "line",
            GrainMode::Page => "page",
            GrainMode::Adaptive => "adaptive",
        }
    }

    /// The grain the log is allocated at (the floor, when the controller
    /// runs) and the controller's configuration.
    fn commit_log(self) -> (u32, GrainControlConfig) {
        match self {
            GrainMode::Word => (WORD_GRAIN_LOG2, GrainControlConfig::default()),
            GrainMode::Line => (LINE_GRAIN_LOG2, GrainControlConfig::default()),
            GrainMode::Page => (PAGE_GRAIN_LOG2, GrainControlConfig::default()),
            // tick_commits(2): tiny/CI-scale runs only issue a handful of
            // commit batches, so the controller must react within a
            // couple of them.
            GrainMode::Adaptive => (
                WORD_GRAIN_LOG2,
                GrainControlConfig::adaptive().tick_commits(2),
            ),
        }
    }
}

/// Which machine runs a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The native runtime: real threads, wall-clock nanoseconds, a
    /// checksum verdict.
    Native,
    /// The recording replayed on the simulator: virtual cycles, fully
    /// reproducible, a simulated speedup.
    Replay,
}

impl Engine {
    /// Table and JSON label.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Native => "native",
            Engine::Replay => "replay",
        }
    }
}

/// One point of a sweep: everything that distinguishes one run from
/// another within an experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// The workload.
    pub workload: WorkloadKind,
    /// True-sharing rate of the conflict family (permille); `None` keeps
    /// the scale's preset and is the only value for workloads without the
    /// knob.
    pub sharing_permille: Option<u32>,
    /// Commit-log grain mode.
    pub grain: GrainMode,
    /// Governor policy.
    pub policy: PolicyKind,
    /// Speculative buffer capacity (native engine only: the simulator
    /// has no buffers to overflow).
    pub buffer: BufferConfig,
    /// Probability that a valid join is rolled back anyway (§V-D).
    pub rollback_probability: f64,
    /// Native repetitions (≥ 1); the replay is deterministic and runs once.
    pub reps: usize,
}

impl Point {
    /// `workload` the way the runtime runs it by default: preset sharing,
    /// line grain, static policy, default buffers, no injection, one run.
    pub fn new(workload: WorkloadKind) -> Self {
        Point {
            workload,
            sharing_permille: None,
            grain: GrainMode::Line,
            policy: PolicyKind::Static,
            buffer: BufferConfig::default(),
            rollback_probability: 0.0,
            reps: 1,
        }
    }

    /// The native runtime's configuration for this point (the arena size
    /// is the runner's business).
    pub fn runtime_config(&self, cpus: usize, seed: u64, observe: Observe) -> RuntimeConfig {
        let (grain_log2, grain_control) = self.grain.commit_log();
        let mut config = RuntimeConfig::with_cpus(cpus)
            .buffer(self.buffer)
            .governor_policy(self.policy)
            .commit_grain_log2(grain_log2)
            .grain_control(grain_control)
            .rollback_probability(self.rollback_probability)
            .seed(seed);
        if observe.trace {
            config = config.trace(TraceConfig::enabled());
        }
        if observe.metrics {
            config = config.metrics(MetricsConfig::enabled().sample_interval_ms(1));
        }
        config
    }

    /// The simulator's configuration for this point.
    pub fn sim_config(&self, cpus: usize, seed: u64, observe: Observe) -> SimConfig {
        let (grain_log2, grain_control) = self.grain.commit_log();
        let metrics = if observe.metrics {
            MetricsConfig::enabled()
        } else {
            MetricsConfig::default()
        };
        SimConfig {
            num_cpus: cpus,
            rollback_probability: self.rollback_probability,
            seed,
            governor: GovernorConfig::with_policy(self.policy),
            grain_control,
            trace: observe.trace,
            metrics,
            ..SimConfig::default()
        }
        .grain_log2(grain_log2)
    }

    /// Sink label, unique among the points of one experiment.
    fn label(&self) -> String {
        let sharing = match self.sharing_permille {
            Some(permille) => format!("sharing{permille:04}"),
            None => "preset".to_string(),
        };
        format!(
            "{}/{sharing}/{}/{}",
            self.workload.name(),
            self.grain.label(),
            self.policy.label()
        )
    }
}

/// What the runner hands back for one point.
#[derive(Debug)]
pub struct Run {
    /// Native: whether the final memory state matched the sequential
    /// reference in *every* repetition.  `None` in the replay.
    pub checksum_ok: Option<bool>,
    /// Replay: simulated speedup over the sequential trace cost.  `None`
    /// natively.
    pub speedup: Option<f64>,
    /// The run's report (natively: of the median-wasted-work repetition).
    pub report: RunReport,
    /// Lifecycle events and the count the bounded rings dropped, when
    /// tracing was observed.
    pub trace: Option<(Vec<TraceEvent>, u64)>,
    /// Sampled series and final scrape, when metrics were observed.
    pub metrics: Option<(MetricsSeries, MetricsSnapshot)>,
}

/// The runner: every point of `points` on `engine` with `cpus`
/// speculative CPUs, results in input order.  Points on the same
/// (workload, sharing) share one sequential reference (native) or one
/// recording (replay).  Replay points fan out across host threads; native
/// points own the machine one at a time.
pub fn run_points(
    points: &[Point],
    engine: Engine,
    cpus: usize,
    scale: Scale,
    seed: u64,
    observe: Observe,
) -> Vec<Run> {
    let mut inputs: Vec<(WorkloadKind, Option<u32>)> = Vec::new();
    for point in points {
        let input = (point.workload, point.sharing_permille);
        if !inputs.contains(&input) {
            inputs.push(input);
        }
    }
    let input_of = |point: &Point| {
        inputs
            .iter()
            .position(|&input| input == (point.workload, point.sharing_permille))
            .expect("collected above")
    };
    match engine {
        Engine::Native => {
            let references: Vec<u64> = inputs
                .iter()
                .map(|&(kind, sharing)| reference_checksum_shared(kind, scale, sharing))
                .collect();
            points
                .iter()
                .map(|point| {
                    run_native(
                        point,
                        references[input_of(point)],
                        cpus,
                        scale,
                        seed,
                        observe,
                    )
                })
                .collect()
        }
        Engine::Replay => {
            let recordings = par_map(&inputs, |&(kind, sharing)| {
                record_workload_shared(kind, scale, sharing)
            });
            par_map(points, |point| {
                let result = simulate(
                    &recordings[input_of(point)],
                    point.sim_config(cpus, seed, observe),
                );
                let last = result.metrics.latest().cloned();
                Run {
                    checksum_ok: None,
                    speedup: Some(result.speedup()),
                    report: result.report,
                    trace: observe.trace.then_some((result.events, 0)),
                    metrics: last.map(|last| (result.metrics, last)),
                }
            })
        }
    }
}

/// Native wasted work is wall-clock, hence scheduling-sensitive: run the
/// point `reps` times, report the median-wasted-work repetition, and
/// require the checksum in every one.
fn run_native(
    point: &Point,
    reference: u64,
    cpus: usize,
    scale: Scale,
    seed: u64,
    observe: Observe,
) -> Run {
    let mut runs: Vec<Run> = (0..point.reps)
        .map(|_| {
            let runtime = Runtime::new(
                point
                    .runtime_config(cpus, seed, observe)
                    .memory_bytes(arena_bytes(point.workload, scale)),
            );
            let memory = runtime.memory();
            let data = setup_shared(point.workload, scale, point.sharing_permille, &memory);
            let (_, report) = runtime.run(|ctx| run_speculative(ctx, &data));
            Run {
                checksum_ok: Some(checksum(&memory, &data) == reference),
                speedup: None,
                report,
                trace: observe
                    .trace
                    .then(|| (runtime.drain_trace_events(), runtime.trace_dropped())),
                metrics: observe
                    .metrics
                    .then(|| (runtime.metrics_series(), runtime.metrics_snapshot())),
            }
        })
        .collect();
    let every_rep_correct = runs.iter().all(|run| run.checksum_ok == Some(true));
    runs.sort_by_key(|run| run.report.wasted_work());
    let mut median = runs.swap_remove(runs.len() / 2);
    median.checksum_ok = Some(every_rep_correct);
    median
}

/// One row of any sweep: the point, where it ran, the verdict and the
/// report's deciders.  Every experiment and both engines serialize the
/// same keys; units follow the engine (nanoseconds native, virtual cycles
/// replay).
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Schema version of this row ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Benchmark name.
    pub workload: String,
    /// [`Engine::label`].
    pub engine: String,
    /// Speculative CPUs.
    pub cpus: usize,
    /// [`Point::sharing_permille`].
    pub sharing_permille: Option<u32>,
    /// [`GrainMode::label`].
    pub grain: String,
    /// Governor policy label.
    pub policy: String,
    /// Write-set capacity of the speculative buffers (words).
    pub buffer_words: usize,
    /// Injected rollback probability.
    pub rollback_probability: f64,
    /// [`Point::reps`].
    pub reps: usize,
    /// [`Run::checksum_ok`].
    pub checksum_ok: Option<bool>,
    /// [`Run::speedup`].
    pub speedup: Option<f64>,
    /// Committed speculative threads.
    pub committed: u64,
    /// Threads whose conflict was repaired by value-predict-and-retry
    /// (they committed).
    pub retried: u64,
    /// Successful value-predict retries, in-flight and join-time.
    pub retries: u64,
    /// Rolled-back speculative threads.
    pub rolled_back: u64,
    /// Rollbacks split by cause, indexed by
    /// [`RollbackReason::index`](mutls_membuf::RollbackReason::index).
    pub rollback_reasons: [u64; RollbackReason::COUNT],
    /// Conflict rollbacks classified as suspected false sharing.
    pub suspected_false_sharing: u64,
    /// Threads doomed surgically through the reader registry.
    pub targeted_dooms: u64,
    /// Validations a version-ring probe proved precise.
    pub precise_passes: u64,
    /// Work discarded by rollbacks.
    pub wasted_work: u64,
    /// Wasted work per unit of committed speculative work.
    pub rollback_amplification: f64,
    /// Fork requests suppressed by the governor.
    pub throttled_forks: u64,
    /// Commit-log activity: batches, stamps, publication time, CAS
    /// retries, ring overflows, regrains, reader spills.
    pub commit_log: CommitLogStats,
    /// Final per-region grain census (`(grain_log2, regions)` pairs).
    pub region_grains: Vec<(u32, u64)>,
    /// Per-phase latency quantiles.
    pub latency: LatencyReport,
}

impl Row {
    /// The one projection of a run's report into a row.
    pub fn from_report(point: &Point, engine: Engine, cpus: usize, run: &Run) -> Row {
        let report = &run.report;
        Row {
            schema_version: BENCH_SCHEMA_VERSION,
            workload: point.workload.name().to_string(),
            engine: engine.label().to_string(),
            cpus,
            sharing_permille: point.sharing_permille,
            grain: point.grain.label().to_string(),
            policy: point.policy.label().to_string(),
            buffer_words: point.buffer.write_capacity_words,
            rollback_probability: point.rollback_probability,
            reps: point.reps,
            checksum_ok: run.checksum_ok,
            speedup: run.speedup,
            committed: report.committed_threads,
            retried: report.retried_threads,
            retries: report.retries(),
            rolled_back: report.rolled_back_threads,
            rollback_reasons: report.rollback_reasons,
            suspected_false_sharing: report.suspected_false_sharing(),
            targeted_dooms: report.targeted_dooms(),
            precise_passes: report.precise_passes(),
            wasted_work: report.wasted_work(),
            rollback_amplification: report.rollback_amplification(),
            throttled_forks: report.throttled_forks(),
            commit_log: report.commit_log,
            region_grains: report.region_grains.clone(),
            latency: report.latency.clone(),
        }
    }
}

/// One table column: a header and how to render a row's cell.
#[derive(Clone, Copy)]
pub struct Column {
    /// Header text.
    pub header: &'static str,
    /// Cell renderer.
    pub cell: fn(&Row) -> String,
}

/// The column catalogue.
pub mod col {
    use super::*;

    macro_rules! columns {
        ($($(#[$doc:meta])* $name:ident = $header:literal, $cell:expr;)*) => {$(
            $(#[$doc])*
            pub const $name: Column = Column { header: $header, cell: $cell };
        )*};
    }

    columns! {
        /// Benchmark name.
        WORKLOAD = "workload", |r| r.workload.clone();
        /// True-sharing rate (`-` for workloads run at their preset).
        SHARING = "sharing", |r| match r.sharing_permille {
            Some(permille) => format!("{:.0}%", permille as f64 / 10.0),
            None => "-".to_string(),
        };
        /// Grain mode.
        GRAIN = "grain", |r| r.grain.clone();
        /// Governor policy.
        POLICY = "policy", |r| r.policy.clone();
        /// Injected rollback probability.
        INJECTED = "inj. rollback", |r| format!("{:.0}%", r.rollback_probability * 100.0);
        /// Simulated speedup (replay).
        SPEEDUP = "speedup", |r| r.speedup.map_or("-".to_string(), |s| format!("{s:.2}"));
        /// Committed threads.
        COMMITTED = "committed", |r| r.committed.to_string();
        /// Successful value-predict retries.
        RETRIES = "retries", |r| r.retries.to_string();
        /// Threads repaired by a retry.
        RETRIED = "retried", |r| r.retried.to_string();
        /// Rolled-back threads with the per-cause split.
        ROLLED_BACK = "rolled back (C/O/I/X)",
            |r| format_rollback_cell(r.rolled_back, &r.rollback_reasons);
        /// Suspected false-sharing conflicts.
        FALSE_SHARE = "false-share", |r| r.suspected_false_sharing.to_string();
        /// Targeted dooms.
        DOOMS = "dooms", |r| r.targeted_dooms.to_string();
        /// Precise passes over ring probes that fell off the window.
        PRECISE = "precise/ovfl",
            |r| format!("{}/{}", r.precise_passes, r.commit_log.ring_overflows);
        /// Wasted work in the engine's unit.
        WASTED = "wasted work", |r| r.wasted_work.to_string();
        /// Wasted work of a native run, in microseconds.
        WASTED_US = "wasted work (µs)", |r| format!("{:.1}", r.wasted_work as f64 / 1e3);
        /// Forks the governor suppressed.
        THROTTLED = "throttled", |r| r.throttled_forks.to_string();
        /// Commit batches.
        COMMITS = "commits", |r| r.commit_log.commits.to_string();
        /// Range stamps written — what a coarser grain shrinks.
        STAMPS = "stamps", |r| r.commit_log.stamp_writes.to_string();
        /// Commit-publication time of a native run, in microseconds.
        PUBLISH_US = "publish (µs)", |r| format!("{:.1}", r.commit_log.lock_ns as f64 / 1e3);
        /// Commit batches per millisecond of publication time.
        COMMIT_RATE = "commits/ms publish", |r| {
            let publish_ms = (r.commit_log.lock_ns as f64 / 1e6).max(1e-6);
            format!("{:.0}", r.commit_log.commits as f64 / publish_ms)
        };
        /// CAS retries on the commit path.
        CAS_RETRIES = "cas-retries", |r| r.commit_log.cas_retries.to_string();
        /// Regions the controller regrained.
        REGRAINS = "regrains", |r| r.commit_log.regrains.to_string();
        /// Reader registrations by ranks past the registry's 63-rank
        /// bitmask (0 below 64 speculative CPUs, and in every replay).
        SPILLS = "spills", |r| r.commit_log.reader_spills.to_string();
        /// Final per-region grain census.
        FINAL_GRAINS = "final grains", |r| census_label(&r.region_grains);
        /// Fork-to-commit latency quantiles of a native run.
        F2C_US = "f2c p50/p99/p999 (µs)",
            |r| latency_cell_us(&r.latency, LatencyPhase::ForkToCommit);
        /// Checksum verdict (native).
        CHECKSUM = "checksum", |r| match r.checksum_ok {
            Some(true) => "ok",
            Some(false) => "MISMATCH",
            None => "-",
        }
        .to_string();
    }
}

/// Render `rows` as a table of `columns`.
pub fn render_rows(title: impl Into<String>, columns: &[Column], rows: &[Row]) -> String {
    let headers: Vec<&str> = columns.iter().map(|column| column.header).collect();
    let mut table = Table::new(title, &headers);
    for row in rows {
        table.push_row(columns.iter().map(|column| (column.cell)(row)).collect());
    }
    table.render()
}

/// One table of an experiment: the engine that fills it, its title
/// (`"<what> at N CPUs (<how>)"`) and its columns.
pub struct TableSpec {
    /// The engine the table's rows run on.
    pub engine: Engine,
    /// Title before the CPU count.
    pub what: &'static str,
    /// Parenthesised title suffix.
    pub how: &'static str,
    /// Columns, picked from [`col`].
    pub columns: &'static [Column],
}

/// A sweep experiment: a name, a point list, one table per engine.
pub struct Experiment {
    /// CLI name and JSON key.
    pub name: &'static str,
    /// The points, in table order.
    pub points: fn() -> Vec<Point>,
    /// One table per engine the points run on.
    pub tables: &'static [TableSpec],
    /// Cap on the CPU count taken from `--cpus`: [`NATIVE_CPUS`] when
    /// real threads are involved, unbounded for simulator-only sweeps.
    pub max_cpus: usize,
    /// Extra tables printed under a point's table (per-site profiles,
    /// phase latencies); empty for most points.
    appendix: fn(&Point, &RunReport) -> String,
    /// Closing lines computed over all rows.
    summary: fn(&[Row]) -> String,
}

/// Real OS threads: native sweeps never use more speculative CPUs.
pub const NATIVE_CPUS: usize = 8;

pub(crate) fn cpus_for(config: &ExperimentConfig, max_cpus: usize) -> usize {
    let largest = config.cpus.iter().copied().max().unwrap_or(16);
    largest.min(max_cpus)
}

impl Experiment {
    /// Run every point on every engine: the rows (table order, one engine
    /// after the other) and the rendered text.  Captures go to the
    /// config's sinks.
    pub fn run(&self, config: &ExperimentConfig) -> (Vec<Row>, String) {
        let cpus = cpus_for(config, self.max_cpus);
        let points = (self.points)();
        let mut rows = Vec::new();
        let mut text = String::new();
        for table in self.tables {
            let runs = run_points(
                &points,
                table.engine,
                cpus,
                config.scale,
                config.seed,
                config.observe(),
            );
            let first = rows.len();
            let mut appendix = String::new();
            for (point, run) in points.iter().zip(runs) {
                rows.push(Row::from_report(point, table.engine, cpus, &run));
                appendix.push_str(&(self.appendix)(point, &run.report));
                let label = format!("{}/{}/{}", self.name, table.engine.label(), point.label());
                config.record(&label, run.trace, run.metrics);
            }
            let title = format!("{} at {cpus} CPUs ({})", table.what, table.how);
            text.push_str(&render_rows(title, table.columns, &rows[first..]));
            text.push('\n');
            text.push_str(&appendix);
        }
        text.push_str(&(self.summary)(&rows));
        (rows, text)
    }
}

fn no_appendix(_: &Point, _: &RunReport) -> String {
    String::new()
}

fn no_summary(_: &[Row]) -> String {
    String::new()
}

/// Injected rollback probability applied to the rollback-heavy workloads
/// in the `adaptive` sweep, modelling the conflict-heavy regime where
/// throttling pays off.
pub const ADAPTIVE_ROLLBACK_PROBABILITY: f64 = 0.4;

/// The rollback-heavy workloads of the `adaptive` sweep.
pub const ROLLBACK_HEAVY: [WorkloadKind; 3] =
    [WorkloadKind::Tsp, WorkloadKind::Bh, WorkloadKind::Md];

/// `adaptive`: Static vs Throttle on the simulator at the largest
/// configured CPU count — the rollback-heavy workloads with injected
/// rollbacks, the others clean — plus the per-site profile of each
/// rollback-heavy workload under throttle, showing which sites were
/// suppressed.
pub const ADAPTIVE: Experiment = Experiment {
    name: "adaptive",
    points: || {
        let mut points = Vec::new();
        for workload in WorkloadKind::ALL {
            let rollback_probability = if ROLLBACK_HEAVY.contains(&workload) {
                ADAPTIVE_ROLLBACK_PROBABILITY
            } else {
                0.0
            };
            for policy in PolicyKind::ALL {
                points.push(Point {
                    policy,
                    rollback_probability,
                    ..Point::new(workload)
                });
            }
        }
        points
    },
    tables: &[TableSpec {
        engine: Engine::Replay,
        what: "Adaptive Governor Sweep",
        // Kept byte for byte: the table is diffed against earlier runs.
        how: "per-site throttling and model selection",
        columns: &[
            col::WORKLOAD,
            col::POLICY,
            col::INJECTED,
            col::SPEEDUP,
            col::COMMITTED,
            col::ROLLED_BACK,
            col::WASTED,
            col::THROTTLED,
        ],
    }],
    max_cpus: usize::MAX,
    appendix: |point, report| {
        if point.rollback_probability == 0.0 || point.policy != PolicyKind::Throttle {
            return String::new();
        }
        let title = format!(
            "Per-site profile — {} under throttle ({}% injected rollbacks)",
            point.workload.name(),
            point.rollback_probability * 100.0
        );
        format_site_table(&title, report) + "\n"
    },
    summary: no_summary,
};

/// True-sharing rates (permille) of the `conflict` sweep.
pub const CONFLICT_SHARING_PERMILLE: [u32; 4] = [0, 250, 500, 1000];

const NATIVE_POLICY_COLUMNS: &[Column] = &[
    col::WORKLOAD,
    col::SHARING,
    col::POLICY,
    col::COMMITTED,
    col::RETRIES,
    col::ROLLED_BACK,
    col::WASTED_US,
    col::THROTTLED,
    col::F2C_US,
    col::CHECKSUM,
];

/// `conflict`: the conflict family across true-sharing rates, Static vs
/// Throttle, on the native runtime with **no injected rollbacks** — every
/// rollback is a genuine dependence violation.  Word grain, because only
/// word-granular tracking makes "zero sharing ⇒ zero conflicts"
/// structural; the `grain` sweep prices false sharing separately.  The
/// summary reports Throttle's wasted-work reduction at each rate.
pub const CONFLICT: Experiment = Experiment {
    name: "conflict",
    points: || {
        let mut points = Vec::new();
        for workload in WorkloadKind::CONFLICT_FAMILY {
            for permille in CONFLICT_SHARING_PERMILLE {
                for policy in PolicyKind::ALL {
                    points.push(Point {
                        sharing_permille: Some(permille),
                        grain: GrainMode::Word,
                        policy,
                        ..Point::new(workload)
                    });
                }
            }
        }
        points
    },
    tables: &[TableSpec {
        engine: Engine::Native,
        what: "Conflict Sweep",
        how: "native runtime, real dependence validation, no injection",
        columns: NATIVE_POLICY_COLUMNS,
    }],
    max_cpus: NATIVE_CPUS,
    appendix: |point, report| {
        if point.sharing_permille != Some(1000) || point.policy != PolicyKind::Throttle {
            return String::new();
        }
        let name = point.workload.name();
        let sites = format_site_table(
            &format!(
                "Per-site profile — {name} under throttle (100% true sharing, rollbacks all real)"
            ),
            report,
        );
        let latencies = format_latency_table(
            &format!("Phase latencies — {name} under throttle (100% true sharing, ns)"),
            &report.latency,
        );
        format!("{sites}\n{latencies}\n")
    },
    summary: |rows| {
        let mut out = String::from("# Throttle wasted-work reduction vs Static (real conflicts)\n");
        let of = |policy: PolicyKind| move |row: &&Row| row.policy == policy.label();
        for stat in rows.iter().filter(of(PolicyKind::Static)) {
            let Some(permille) = stat.sharing_permille.filter(|&permille| permille > 0) else {
                continue;
            };
            let throttle = rows
                .iter()
                .filter(of(PolicyKind::Throttle))
                .find(|row| row.workload == stat.workload && row.sharing_permille == Some(permille))
                .expect("every static point has a throttle twin");
            out.push_str(&format!(
                "{} at {:.0}% sharing: {:.1}x less wasted work under throttle\n",
                stat.workload,
                permille as f64 / 10.0,
                stat.wasted_work.max(1) as f64 / throttle.wasted_work.max(1) as f64,
            ));
        }
        out
    },
};

/// `overflow`: the memory-intensive benchmarks on the native runtime with
/// [`BufferConfig::tiny`] buffers, so speculative threads roll back with
/// `RollbackReason::Overflow` — the governor's overflow-rate threshold
/// rather than its rollback-rate one.
pub const OVERFLOW: Experiment = Experiment {
    name: "overflow",
    points: || {
        let mut points = Vec::new();
        for workload in [WorkloadKind::Fft, WorkloadKind::Matmult, WorkloadKind::Bh] {
            for policy in PolicyKind::ALL {
                points.push(Point {
                    policy,
                    buffer: BufferConfig::tiny(),
                    ..Point::new(workload)
                });
            }
        }
        points
    },
    tables: &[TableSpec {
        engine: Engine::Native,
        what: "Buffer-Overflow Pressure Sweep",
        how: "native runtime, BufferConfig::tiny",
        columns: NATIVE_POLICY_COLUMNS,
    }],
    max_cpus: NATIVE_CPUS,
    appendix: no_appendix,
    summary: no_summary,
};

/// True-sharing rates (permille) the `grain` sweep runs the conflict
/// family at.
pub const GRAIN_SHARING_PERMILLE: [u32; 3] = [0, 500, 1000];

/// Native repetitions per `grain` point.
pub const GRAIN_REPS: usize = 3;

/// `grain`: workload × sharing × grain mode, natively and on the replay.
/// mandelbrot writes disjoint rows (the clean stamp-traffic signal),
/// matmult and fft genuinely share, the conflict family prices false
/// against true sharing.  The static ladder shows coarser grains stamping
/// less and false-sharing more; the adaptive mode serves both ends in one
/// configuration.  Quantitative claims are asserted on the replay rows.
pub const GRAIN: Experiment = Experiment {
    name: "grain",
    points: || {
        let mut inputs = vec![
            (WorkloadKind::Mandelbrot, None),
            (WorkloadKind::Matmult, None),
            (WorkloadKind::Fft, None),
        ];
        for workload in WorkloadKind::CONFLICT_FAMILY {
            for permille in GRAIN_SHARING_PERMILLE {
                inputs.push((workload, Some(permille)));
            }
        }
        let mut points = Vec::new();
        for (workload, sharing_permille) in inputs {
            for grain in GrainMode::ALL {
                points.push(Point {
                    sharing_permille,
                    grain,
                    reps: GRAIN_REPS,
                    ..Point::new(workload)
                });
            }
        }
        points
    },
    tables: &[
        TableSpec {
            engine: Engine::Native,
            what: "Commit-Log Grain Sweep",
            how: "native runtime, real conflicts, no injection",
            columns: &[
                col::WORKLOAD,
                col::SHARING,
                col::GRAIN,
                col::COMMITTED,
                col::RETRIES,
                col::ROLLED_BACK,
                col::FALSE_SHARE,
                col::DOOMS,
                col::PRECISE,
                col::WASTED_US,
                col::COMMITS,
                col::STAMPS,
                col::PUBLISH_US,
                col::COMMIT_RATE,
                col::CAS_RETRIES,
                col::REGRAINS,
                col::SPILLS,
                col::FINAL_GRAINS,
                col::CHECKSUM,
            ],
        },
        TableSpec {
            engine: Engine::Replay,
            what: "Commit-Log Grain Replay",
            how: "deterministic simulation",
            columns: &[
                col::WORKLOAD,
                col::SHARING,
                col::GRAIN,
                col::COMMITTED,
                col::RETRIED,
                col::ROLLED_BACK,
                col::DOOMS,
                col::PRECISE,
                col::STAMPS,
                col::REGRAINS,
                col::WASTED,
                col::SPEEDUP,
                col::FINAL_GRAINS,
            ],
        },
    ],
    max_cpus: NATIVE_CPUS,
    appendix: no_appendix,
    summary: no_summary,
};

/// Every sweep experiment.
pub const SWEEPS: [&Experiment; 4] = [&ADAPTIVE, &CONFLICT, &OVERFLOW, &GRAIN];
