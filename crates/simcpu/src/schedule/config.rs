//! What a replay is given and what it returns: [`SimConfig`] and
//! [`SimResult`].

use super::*;

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of speculative virtual CPUs.
    pub num_cpus: usize,
    /// When set, every fork point uses this model instead of the one the
    /// workload requested (used by the forking-model comparison).
    pub fork_model: Option<ForkModel>,
    /// Probability of forcing a rollback at an otherwise valid join.
    pub rollback_probability: f64,
    /// RNG seed for rollback injection.
    pub seed: u64,
    /// Virtual-cycle cost model.
    pub cost: CostModel,
    /// Adaptive speculation governor consulted at every simulated fork
    /// point (default: `Static`, i.e. the unconditional seed behaviour).
    pub governor: GovernorConfig,
    /// Configuration of the simulated commit log — the same type, the
    /// same default and the same normalization rule as the native
    /// runtime's (`RuntimeConfig::default().commit_log`).  Coarser grains
    /// mean fewer validation probes and commit stamps, but conflicts
    /// coarsen to ranges, so false sharing appears (conservative, never
    /// missed); a `ring_depth` above 1 turns range-only conflicts into
    /// precise passes until a range takes more publishes than the ring
    /// holds.  The recovery ladder is the native one: a publish stops its
    /// genuinely stale readers at their next check point (charging
    /// `CostModel::doom_signal` per victim), and a doomed fiber whose
    /// conflict was range-only re-validates by value at its join
    /// (`CostModel::retry_per_word`) and commits without re-execution.
    pub commit_log: CommitLogConfig,
    /// Adaptive-grain control mirrored from the native runtime (same
    /// policy type, same defaults: disabled).  When enabled,
    /// `commit_log.grain_log2` is the floor grain, regions (of
    /// `region_log2_for_grain(floor)` bytes) start at the controller's
    /// initial grain, and a deterministic controller tick every
    /// `tick_commits` publishes regrains regions — charging
    /// `CostModel::regrain_per_slot` per flushed slot and
    /// `CostModel::doom_signal` per conservatively doomed reader, so the
    /// replay prices regrains exactly and reproducibly.
    pub grain_control: GrainControlConfig,
    /// Record lifecycle [`TraceEvent`]s in **virtual time** into
    /// [`SimResult::events`].  Deterministic: two runs with the same
    /// recording and config produce byte-identical event streams.  The
    /// phase-latency histograms behind `RunReport.latency` are always on.
    pub trace: bool,
    /// The live telemetry plane, mirrored deterministically: samples are
    /// taken off the **virtual clock** every
    /// [`MetricsConfig::sim_cadence_cycles`] cycles (the wall-clock
    /// interval is ignored), so the series in [`SimResult::metrics`] is
    /// byte-identical across runs.
    pub metrics: MetricsConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            num_cpus: 4,
            fork_model: None,
            rollback_probability: 0.0,
            seed: 0xC0FFEE,
            cost: CostModel::default(),
            governor: GovernorConfig::default(),
            commit_log: RuntimeConfig::default().commit_log,
            grain_control: GrainControlConfig::default(),
            trace: false,
            metrics: MetricsConfig::default(),
        }
    }
}

impl SimConfig {
    /// Convenience constructor for a CPU sweep point.
    pub fn with_cpus(n: usize) -> Self {
        SimConfig {
            num_cpus: n,
            ..Default::default()
        }
    }

    /// Override the forking model (builder style).
    pub fn fork_model(mut self, model: ForkModel) -> Self {
        self.fork_model = Some(model);
        self
    }

    /// Set the injected rollback probability (builder style).
    pub fn rollback_probability(mut self, p: f64) -> Self {
        self.rollback_probability = p;
        self
    }

    /// Set the governor configuration (builder style).
    pub fn governor(mut self, governor: GovernorConfig) -> Self {
        self.governor = governor;
        self
    }

    /// Set the simulated commit-log grain (builder style).
    pub fn grain_log2(mut self, grain_log2: u32) -> Self {
        self.commit_log.grain_log2 = grain_log2;
        self
    }

    /// Set the simulated commit-log shard count (builder style).
    pub fn commit_shards(mut self, shards: usize) -> Self {
        self.commit_log.shards = shards;
        self
    }

    /// Set the adaptive-grain control configuration (builder style).
    pub fn grain_control(mut self, grain_control: GrainControlConfig) -> Self {
        self.grain_control = grain_control;
        self
    }

    /// Enable virtual-time lifecycle event tracing (builder style).
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Set the metrics-plane configuration (builder style).  The
    /// simulator samples off the virtual clock
    /// ([`MetricsConfig::sim_cadence_cycles`]); the wall-clock interval
    /// is ignored.
    pub fn metrics(mut self, metrics: MetricsConfig) -> Self {
        self.metrics = metrics;
        self
    }
}

/// Result of one simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Phase breakdowns and thread counts (times in virtual cycles).
    pub report: RunReport,
    /// Cost of executing the trace sequentially (no speculation, no
    /// buffering overhead), in virtual cycles.
    pub sequential_cycles: u64,
    /// Virtual runtime of the speculative execution.
    pub parallel_cycles: u64,
    /// Number of tasks in the trace.
    pub tasks: usize,
    /// Lifecycle events in virtual time, in emission order (empty unless
    /// [`SimConfig::trace`] is on).  Deterministic across identical runs.
    pub events: Vec<TraceEvent>,
    /// The deterministic metrics time series (empty unless
    /// [`SimConfig::metrics`] is enabled): one snapshot per virtual-cycle
    /// cadence boundary crossed, plus a final snapshot at `ts = runtime`.
    pub metrics: MetricsSeries,
}

impl SimResult {
    /// Absolute speedup `T_s / T_N`.
    pub fn speedup(&self) -> f64 {
        self.sequential_cycles as f64 / self.parallel_cycles.max(1) as f64
    }

    /// Power efficiency `η_power` (paper §V-B).
    pub fn power_efficiency(&self) -> f64 {
        self.report.power_efficiency(self.sequential_cycles)
    }

    /// Rolled-back threads split by cause (conflict / overflow / injected
    /// / other) — prefer this over the single
    /// [`RunReport::rolled_back_threads`] count when reporting.
    pub fn rollback_reasons(&self) -> [u64; mutls_membuf::RollbackReason::COUNT] {
        self.report.rollback_reasons
    }
}
