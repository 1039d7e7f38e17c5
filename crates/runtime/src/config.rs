//! Runtime configuration.

use crate::fork_model::ForkModel;
use mutls_adaptive::{GovernorConfig, GrainControlConfig, PolicyKind};
use mutls_membuf::{BufferConfig, CommitLogConfig, LocalBufferConfig};
use mutls_metrics::MetricsConfig;
use mutls_trace::TraceConfig;

/// Configuration of a [`Runtime`](crate::Runtime) instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Number of *speculative* virtual CPUs (ranks 1..=num_cpus).  The
    /// non-speculative thread (rank 0) always exists in addition.
    pub num_cpus: usize,
    /// Forking model applied to forks that do not specify one explicitly.
    pub fork_model: ForkModel,
    /// Capacity of every speculative thread's global buffer.
    pub buffer: BufferConfig,
    /// Capacity of every speculative thread's local buffer.
    pub local_buffer: LocalBufferConfig,
    /// Probability in `[0, 1]` that a join is forced to roll back even when
    /// validation succeeds — the paper's §V-D rollback-*sensitivity*
    /// experiment.  At the default of zero every rollback is the result of
    /// genuine dependence validation through the speculative buffers and
    /// the shared [`CommitLog`](mutls_membuf::CommitLog).
    pub rollback_probability: f64,
    /// Seed for the rollback-injection RNG, so experiments are repeatable.
    pub seed: u64,
    /// Size of the shared [`GlobalMemory`](mutls_membuf::GlobalMemory)
    /// arena in bytes.
    pub memory_bytes: u64,
    /// Adaptive speculation governor: per-fork-site profiling plus the
    /// fork-throttling policy (default: `Static`, the
    /// unconditional behaviour of the original runtime).
    pub governor: GovernorConfig,
    /// Granularity, sharding and version-ring depth of the shared commit
    /// log (default: 64-byte ranges across 8 shards, depth-4 rings).
    /// Coarser grains bound log growth and stamp traffic at the cost of
    /// false-sharing rollbacks; word grain
    /// ([`CommitLogConfig::word_grain`]) restores the exact per-word
    /// tracking of the original design.
    pub commit_log: CommitLogConfig,
    /// Online adaptive-grain control plane (default: disabled — the
    /// static `commit_log` grain).  When enabled, `commit_log.grain_log2`
    /// becomes the *floor* grain the version table is allocated at,
    /// regions start at `grain_control.initial_grain_log2`, and a
    /// [`GrainController`](mutls_adaptive::GrainController) regrains
    /// regions live from the commit/validate paths.
    pub grain_control: GrainControlConfig,
    /// The speculation flight recorder (default: lifecycle event tracing
    /// off).  The per-phase latency histograms behind
    /// `RunReport.latency` are always on; this knob only controls whether
    /// lifecycle events are captured into the per-rank rings for export
    /// as a Chrome/Perfetto trace.
    pub trace: TraceConfig,
    /// The live telemetry plane (default: disabled — every push is one
    /// always-false branch).  When enabled, the runtime feeds a sharded
    /// lock-free registry, a background sampler snapshots it on
    /// `metrics.sample_interval_ms` cadence into a bounded time series,
    /// and the aggregate can be exported as Prometheus text or a JSON
    /// time-series dump.
    pub metrics: MetricsConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            num_cpus: 4,
            fork_model: ForkModel::Mixed,
            buffer: BufferConfig::default(),
            local_buffer: LocalBufferConfig::default(),
            rollback_probability: 0.0,
            seed: 0x05EE_DCA0,
            memory_bytes: 64 << 20,
            governor: GovernorConfig::default(),
            commit_log: CommitLogConfig::default(),
            grain_control: GrainControlConfig::default(),
            trace: TraceConfig::default(),
            metrics: MetricsConfig::default(),
        }
    }
}

impl RuntimeConfig {
    /// Convenience constructor: `n` speculative CPUs, everything else
    /// default.
    pub fn with_cpus(n: usize) -> Self {
        RuntimeConfig {
            num_cpus: n,
            ..Default::default()
        }
    }

    /// Set the default forking model (builder style).
    pub fn fork_model(mut self, model: ForkModel) -> Self {
        self.fork_model = model;
        self
    }

    /// Set the injected rollback probability (builder style).  A non-zero
    /// probability opts in to injection; zero returns to
    /// real-conflicts-only behaviour.
    ///
    /// # Panics
    /// Panics if `p` is not within `[0, 1]`.
    pub fn rollback_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.rollback_probability = p;
        self
    }

    /// Set the global-buffer capacity of every speculative thread (builder
    /// style); shrink with [`BufferConfig::tiny`] to exercise the
    /// overflow-rollback paths.
    pub fn buffer(mut self, buffer: BufferConfig) -> Self {
        self.buffer = buffer;
        self
    }

    /// Set the shared memory arena size in bytes (builder style).
    pub fn memory_bytes(mut self, bytes: u64) -> Self {
        self.memory_bytes = bytes;
        self
    }

    /// Set the RNG seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the full governor configuration (builder style).
    pub fn governor(mut self, governor: GovernorConfig) -> Self {
        self.governor = governor;
        self
    }

    /// Select a governor policy with default tuning (builder style).
    pub fn governor_policy(mut self, policy: PolicyKind) -> Self {
        self.governor.policy = policy;
        self
    }

    /// Set the full commit-log configuration (builder style).
    pub fn commit_log(mut self, commit_log: CommitLogConfig) -> Self {
        self.commit_log = commit_log;
        self
    }

    /// Set the commit-log tracking grain as a log2 of bytes (builder
    /// style); 3 = word, 6 = cache line, 12 = page.
    pub fn commit_grain_log2(mut self, grain_log2: u32) -> Self {
        self.commit_log.grain_log2 = grain_log2;
        self
    }

    /// Set the commit-log shard count (builder style).
    pub fn commit_shards(mut self, shards: usize) -> Self {
        self.commit_log.shards = shards;
        self
    }

    /// Set the full adaptive-grain control configuration (builder style).
    pub fn grain_control(mut self, grain_control: GrainControlConfig) -> Self {
        self.grain_control = grain_control;
        self
    }

    /// Set the full flight-recorder configuration (builder style).
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Enable lifecycle event tracing at the default ring capacity
    /// (builder style).
    pub fn trace_events(mut self) -> Self {
        self.trace = TraceConfig::enabled();
        self
    }

    /// Set the full metrics-plane configuration (builder style).
    pub fn metrics(mut self, metrics: MetricsConfig) -> Self {
        self.metrics = metrics;
        self
    }

    /// Enable the adaptive-grain controller with default tuning
    /// (optimistic page start, split on false-sharing suspects) over a
    /// word-grain floor, so regions can re-split all the way to
    /// exactness (builder style).
    pub fn adaptive_grain(mut self) -> Self {
        self.commit_log.grain_log2 = mutls_membuf::WORD_GRAIN_LOG2;
        self.grain_control = GrainControlConfig::adaptive();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sensible() {
        let c = RuntimeConfig::default();
        assert!(c.num_cpus >= 1);
        assert_eq!(c.fork_model, ForkModel::Mixed);
        assert_eq!(c.rollback_probability, 0.0);
        assert_eq!(c.governor.policy, PolicyKind::Static);
    }

    #[test]
    fn rollback_probability_opts_into_injection() {
        // The probability is the whole knob: p = 0 never draws, p > 0 does.
        let draws = |config: RuntimeConfig| {
            crate::ThreadManager::new(config.memory_bytes(1 << 12)).draw_injected_rollback()
        };
        let c = RuntimeConfig::with_cpus(1).rollback_probability(1.0);
        assert!(draws(c));
        assert!(!draws(c.rollback_probability(0.0)));
    }

    #[test]
    fn buffer_builder_overrides_capacity() {
        let c = RuntimeConfig::default().buffer(BufferConfig::tiny());
        assert_eq!(c.buffer, BufferConfig::tiny());
    }

    #[test]
    fn governor_builders_select_policy() {
        let c = RuntimeConfig::default().governor_policy(PolicyKind::Throttle);
        assert_eq!(c.governor.policy, PolicyKind::Throttle);
    }

    #[test]
    fn builder_chain() {
        let c = RuntimeConfig::with_cpus(8)
            .fork_model(ForkModel::InOrder)
            .rollback_probability(0.05)
            .memory_bytes(1 << 20)
            .seed(7);
        assert_eq!(c.num_cpus, 8);
        assert_eq!(c.fork_model, ForkModel::InOrder);
        assert_eq!(c.rollback_probability, 0.05);
        assert_eq!(c.memory_bytes, 1 << 20);
        assert_eq!(c.seed, 7);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_panics() {
        let _ = RuntimeConfig::default().rollback_probability(1.5);
    }

    #[test]
    fn grain_control_builders() {
        let c = RuntimeConfig::default();
        assert!(!c.grain_control.enabled, "grain control defaults off");
        let c = c.adaptive_grain();
        assert!(c.grain_control.enabled);
        assert_eq!(
            c.commit_log.grain_log2,
            mutls_membuf::WORD_GRAIN_LOG2,
            "adaptive grain floors the table at word exactness"
        );
        assert_eq!(
            c.grain_control.initial_grain_log2,
            mutls_membuf::PAGE_GRAIN_LOG2,
            "regions start optimistically coarse"
        );
        let custom = GrainControlConfig::adaptive_from_floor(mutls_membuf::LINE_GRAIN_LOG2);
        let c = RuntimeConfig::default().grain_control(custom);
        assert_eq!(c.grain_control, custom);
    }

    #[test]
    fn trace_builders() {
        let c = RuntimeConfig::default();
        assert!(!c.trace.events, "event tracing defaults off");
        let c = c.trace_events();
        assert!(c.trace.events);
        let c = RuntimeConfig::default().trace(TraceConfig::enabled().ring_capacity(64));
        assert_eq!(c.trace.ring_capacity, 64);
    }

    #[test]
    fn commit_log_builders_set_grain_and_shards() {
        let c = RuntimeConfig::default();
        assert_eq!(c.commit_log, CommitLogConfig::default());
        let c = c.commit_grain_log2(3).commit_shards(2);
        assert_eq!(c.commit_log.grain_log2, 3);
        assert_eq!(c.commit_log.shards, 2);
        let c = c.commit_log(CommitLogConfig::page_grain());
        assert_eq!(c.commit_log, CommitLogConfig::page_grain());
        // Ring depth lives in the commit-log config and nowhere else.
        assert_eq!(
            RuntimeConfig::default().commit_log.ring_depth,
            mutls_membuf::DEFAULT_RING_DEPTH
        );
    }
}
