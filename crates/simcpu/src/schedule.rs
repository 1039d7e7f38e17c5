//! Discrete-event scheduling of a recorded speculation trace on N virtual
//! CPUs.
//!
//! The scheduler replays a [`Recording`] under a forking model and a
//! [`CostModel`], producing the same metrics the paper reports: virtual
//! runtime (hence speedup vs. the sequential cost of the trace), critical-
//! and speculative-path phase breakdowns, commit/rollback counts, coverage
//! and power efficiency.
//!
//! Two aspects of the MUTLS runtime are modelled faithfully because the
//! evaluation depends on them:
//!
//! * **Early synchronization (check points).**  When a joining thread
//!   reaches its join point before the speculative child has finished, the
//!   child is stopped at its next check point (here: the end of its
//!   in-flight segment), its partial work is validated and committed, and
//!   the joiner *continues the child's remaining execution itself* — the
//!   synchronization-table / stack-frame-reconstruction mechanism of paper
//!   §IV-E/H.  This is what lets loop speculation recycle CPUs and scale
//!   past `#chunks ≈ #CPUs`.
//! * **Conflict detection.**  A speculative task is doomed when an address
//!   it read is published (committed to main memory) by logically earlier
//!   work while the task is in flight — the condition MUTLS read-set
//!   validation detects.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mutls_adaptive::{
    ForkDecision, Governor, GovernorConfig, GrainControlConfig, GrainController, SiteOutcome,
};
use mutls_membuf::{
    region_log2_for_grain, Addr, CommitLogConfig, CommitLogStats, RegionProfile, RollbackReason,
    SpecFailure,
};
use mutls_metrics::{
    phase_share_gauges, CounterId, GaugeId, HistId, LabeledGauge, MetricsConfig, MetricsSeries,
    MetricsSnapshot, Registry, ScrapeExtras,
};
use mutls_runtime::{ForkModel, Phase, RunReport, RuntimeConfig, ThreadStats};
use mutls_trace::{
    DenyPolicy, DoomSource, EventKind, LatencyPhase, LatencyRecorder, PlanArm, RollbackCause,
    TraceEvent, ValidateOutcome,
};

use crate::cost::CostModel;
use crate::record::{NodeId, Recording, Segment, SimEvent};

/// Pops between sweeps of the publish log (fossil collection).
const FOSSIL_SWEEP_POPS: u64 = 64;

/// One published write batch: the commit time, the written word
/// addresses, and the range ids stamped at the publisher's live grains.
#[derive(Debug, Clone)]
struct PubEntry {
    /// Virtual time of the publish.
    time: u64,
    /// Word addresses written by the batch.
    words: HashSet<Addr>,
    /// Region-prefixed range ids the batch stamped.
    ranges: HashSet<u64>,
}

/// What a completed work segment did, derived from the recording, the
/// live grains and the publish log at its completion pop.
#[derive(Debug)]
struct SegEffects {
    /// Virtual cycles the segment costs (speculative or critical pricing).
    cycles: u64,
    /// `(addr, range_at(addr))` for every read of the segment.
    seg_read_ranges: Vec<(Addr, u64)>,
    /// Some publish since the segment started intersects its reads (word
    /// or range).
    hit: bool,
    /// Some such publish wrote a word the segment actually read.
    word_hit: bool,
    /// A range-only hit whose range overflowed the version ring (forces
    /// the conservative doom instead of a precise pass).
    overflow: bool,
    /// Lowest region id among the conflicting reads (telemetry target).
    region: Option<u64>,
}

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frame {
    node: NodeId,
    ip: usize,
    /// True when this frame is a rollback-triggered inline re-execution:
    /// a *speculative* fiber may not fork out of such frames (mirroring
    /// the native runtime, whose overlay-poisoned re-forks are pinned
    /// inline).
    reexec: bool,
}

struct Fiber {
    cpu: usize,
    speculative: bool,
    /// Fork-site ID this fiber was speculated from (0 for the root).
    site: u32,
    /// Forking model the fiber was launched under.
    model: ForkModel,
    frames: Vec<Frame>,
    time: u64,
    start_time: u64,
    segment_started: u64,
    stats: ThreadStats,
    reads: HashSet<Addr>,
    writes: HashSet<Addr>,
    /// Region-prefixed commit-log range ids covering `reads` (see
    /// `Scheduler::range_at`) — the grain conflicts are detected at.
    read_ranges: HashSet<u64>,
    doomed: Option<SpecFailure>,
    /// True when the dooming conflict was range-only (no word of the
    /// published batch was actually read) — suspected false sharing.
    doomed_false_sharing: bool,
    /// Region of the first conflicting read (grain-control telemetry:
    /// conflicts and retries are attributed here at the join).
    conflict_region: Option<u64>,
    /// True when the fiber's conflict was repaired by value-predict-and-
    /// retry at its join (it committed without re-execution).
    retried: bool,
    /// Fiber waiting at a join for this fiber to stop.
    waiter: Option<usize>,
    blocked_since: u64,
    finished: Option<u64>,
    /// Set while a work segment is in flight (effects applied at its
    /// completion time).
    seg_in_flight: bool,
    /// The joiner has requested this fiber to stop at its next check point.
    stop_requested: bool,
    /// Speculative fibers created (and not yet joined) by this fiber.
    child_fibers: HashMap<NodeId, usize>,
    /// Child fiber whose join this fiber is ready to process on resume.
    pending_join: Option<usize>,
    /// True once the fiber's outcome has been consumed by its joiner or it
    /// was cancelled by a cascading rollback.
    retired: bool,
}

impl Fiber {
    fn new(
        cpu: usize,
        speculative: bool,
        node: NodeId,
        start_time: u64,
        site: u32,
        model: ForkModel,
    ) -> Self {
        Fiber {
            cpu,
            speculative,
            site,
            model,
            frames: vec![Frame {
                node,
                ip: 0,
                reexec: false,
            }],
            time: start_time,
            start_time,
            segment_started: start_time,
            stats: ThreadStats::new(),
            reads: HashSet::new(),
            writes: HashSet::new(),
            read_ranges: HashSet::new(),
            doomed: None,
            doomed_false_sharing: false,
            conflict_region: None,
            retried: false,
            waiter: None,
            blocked_since: 0,
            finished: None,
            seg_in_flight: false,
            stop_requested: false,
            child_fibers: HashMap::new(),
            pending_join: None,
            retired: false,
        }
    }
}

/// Discrete-event scheduler.
pub struct Scheduler<'a> {
    recording: &'a Recording,
    config: SimConfig,
    fibers: Vec<Fiber>,
    queue: BinaryHeap<Reverse<(u64, u64, usize)>>,
    queue_seq: u64,
    cpu_free: Vec<bool>,
    most_speculative: Option<usize>,
    active_speculative: usize,
    rng: SmallRng,
    spec_stats: ThreadStats,
    committed: u64,
    rolled_back: u64,
    retried: u64,
    rolled_back_by_reason: [u64; RollbackReason::COUNT],
    /// Log of (time, published words, published ranges) used for
    /// conflict detection.  Ranges are computed at the publisher's
    /// current per-region grain; word-level overlap is always checked in
    /// addition, so a true conflict is never missed even when a regrain
    /// lands between the publish and the reader's check.  Pruned by
    /// fossil collection.
    publishes: Vec<PubEntry>,
    /// Adaptive speculation governor (per-site profiling + fork policy).
    governor: Governor,
    /// Log2 of the grain-control region size (mirrors the native log).
    region_log2: u32,
    /// Grain of the regions absent from `grains`: the controller's
    /// initial grain, or the floor grain when control is disabled.
    default_grain: u32,
    /// Live grain per regrained region.
    grains: HashMap<u64, u32>,
    /// Per-region telemetry: (stamps, conflicts, false sharing, retries),
    /// cumulative — the controller differences ticks itself.
    region_telemetry: HashMap<u64, [u64; 4]>,
    /// The deterministic grain controller (None when disabled).
    grain_controller: Option<GrainController>,
    /// Publishes since the run started (the controller's tick clock).
    publish_count: u64,
    /// Simulated commit-log traffic for the report: batches and range
    /// stamps (the grain sweep's headline columns), plus regrains.
    sim_commits: u64,
    sim_stamps: u64,
    sim_regrains: u64,
    /// Modeled CAS retries paid by commits.
    sim_cas_retries: u64,
    /// Modeled version-ring overflows: range conflicts classified
    /// conservatively because more publishes hit the range than the ring
    /// holds (always zero at depth 1, which never probes).
    sim_ring_overflows: u64,
    /// Lifecycle events in virtual time (only filled when tracing is on).
    events: Vec<TraceEvent>,
    /// Always-on phase-latency histograms (virtual cycles as "ns").
    latency: LatencyRecorder,
    /// Events popped so far (the fossil-collection clock).
    pop_count: u64,
    /// Speculative fibers spawned (the replay's fork counter).
    sim_forks: u64,
    /// Metrics-plane histogram bank, observed at the retire sites.
    /// Disabled (the default) every observe is one always-false branch.
    metrics_registry: Registry,
    /// The deterministic snapshot series (virtual-clock cadence).
    metrics_series: MetricsSeries,
    /// Next virtual-cycle boundary a sample is due at.
    next_metrics_tick: u64,
}

impl<'a> Scheduler<'a> {
    /// Create a scheduler for `recording` under `config`.
    pub fn new(recording: &'a Recording, mut config: SimConfig) -> Self {
        // SimConfig's fields are pub and call sites use struct literals,
        // so apply the commit log's own normalization rules here: the
        // shard count is used as a bit mask and the grain as a shift.
        config.commit_log = config.commit_log.normalized();
        let rng = SmallRng::seed_from_u64(config.seed);
        let num_cpus = config.num_cpus;
        let governor = Governor::new(config.governor);
        let region_log2 = region_log2_for_grain(config.commit_log.grain_log2);
        let grain_controller = config
            .grain_control
            .enabled
            .then(|| GrainController::new(config.grain_control, config.commit_log.grain_log2));
        let floor = config.commit_log.grain_log2;
        let default_grain = if config.grain_control.enabled {
            config
                .grain_control
                .initial_grain_log2
                .clamp(floor, region_log2)
        } else {
            floor
        };
        Scheduler {
            recording,
            fibers: Vec::new(),
            queue: BinaryHeap::new(),
            queue_seq: 0,
            cpu_free: vec![true; num_cpus],
            most_speculative: None,
            active_speculative: 0,
            rng,
            spec_stats: ThreadStats::new(),
            committed: 0,
            rolled_back: 0,
            retried: 0,
            rolled_back_by_reason: [0; RollbackReason::COUNT],
            publishes: Vec::new(),
            governor,
            region_log2,
            default_grain,
            grains: HashMap::new(),
            region_telemetry: HashMap::new(),
            grain_controller,
            publish_count: 0,
            sim_commits: 0,
            sim_stamps: 0,
            sim_regrains: 0,
            sim_cas_retries: 0,
            sim_ring_overflows: 0,
            events: Vec::new(),
            latency: LatencyRecorder::new(),
            pop_count: 0,
            sim_forks: 0,
            metrics_registry: Registry::new(config.metrics, 1),
            metrics_series: MetricsSeries::new(config.metrics.series_capacity),
            next_metrics_tick: config.metrics.sim_cadence_cycles.max(1),
            config,
        }
    }

    /// Record one lifecycle event in virtual time.  The epoch stamp is the
    /// simulated commit count — the same causal clock the native recorder
    /// reads off the commit log.
    fn emit(&mut self, rank: u32, site: u32, ts: u64, kind: EventKind) {
        if !self.config.trace {
            return;
        }
        self.events.push(TraceEvent {
            ts,
            rank,
            site,
            epoch: self.sim_commits,
            kind,
        });
    }

    /// Whether the simulated log keeps version rings (depth 1 is the
    /// single-version reference: every range hit dooms).
    fn mvcc(&self) -> bool {
        self.config.commit_log.ring_depth > 1
    }

    /// The live grain of `region`: the per-region map, falling back to
    /// the controller's initial grain (control enabled) or the
    /// configured grain (disabled).
    fn grain_of_region(&self, region: u64) -> u32 {
        *self.grains.get(&region).unwrap_or(&self.default_grain)
    }

    /// The live grain tracking `addr` right now.
    fn grain_at(&self, addr: Addr) -> u32 {
        self.grain_of_region(addr >> self.region_log2)
    }

    /// `addr`'s conflict-detection range id at its region's current
    /// grain, **prefixed with the region id**: numeric `addr >> grain`
    /// ids of different regions at different live grains collide (the
    /// native log dedups by concrete slot for the same reason), and a
    /// collision here would manufacture phantom cross-region conflicts
    /// in the replay.  The suffix is the offset-range within the region,
    /// which fits in `region_log2 - floor` bits at any live grain.
    fn range_at(&self, addr: Addr) -> u64 {
        let region = addr >> self.region_log2;
        let offset = addr & ((1u64 << self.region_log2) - 1);
        (region << (self.region_log2 - self.config.commit_log.grain_log2))
            | (offset >> self.grain_of_region(region))
    }

    /// Cost of executing the whole trace sequentially.
    pub fn sequential_cycles(recording: &Recording, cost: &CostModel) -> u64 {
        recording
            .nodes
            .iter()
            .flat_map(|n| n.events.iter())
            .map(|e| match e {
                SimEvent::Seg(s) => cost.segment_cycles(s.work, s.loads, s.stores),
                _ => 0,
            })
            .sum()
    }

    /// Run the simulation to completion.
    pub fn run(mut self) -> SimResult {
        self.event_loop();
        self.finish()
    }

    /// The discrete-event loop.
    fn event_loop(&mut self) {
        let root = self.spawn_fiber(0, false, 0, 0, 0, ForkModel::Mixed);
        debug_assert_eq!(root, 0);
        self.schedule(root, 0);
        while let Some(Reverse((time, _, fid))) = self.queue.pop() {
            self.pop_count += 1;
            if self.pop_count.is_multiple_of(FOSSIL_SWEEP_POPS) {
                self.fossil_collect(time);
            }
            // Sample off the virtual clock, so the series is
            // deterministic.
            if self.config.metrics.enabled && time >= self.next_metrics_tick {
                self.sample_metrics(time);
            }
            if self.fibers[fid].retired {
                continue;
            }
            self.resume(fid, time);
        }
    }

    /// Append one snapshot stamped at the largest cadence boundary not
    /// past `now`, and re-arm the next tick.
    fn sample_metrics(&mut self, now: u64) {
        let cadence = self.config.metrics.sim_cadence_cycles.max(1);
        let ts = now - now % cadence;
        let snapshot = self.scrape_metrics(ts);
        self.metrics_series.push(snapshot);
        self.next_metrics_tick = ts + cadence;
    }

    /// Aggregate the scheduler's accounting into one [`MetricsSnapshot`]
    /// at virtual timestamp `ts`, through the same naming/derivation path
    /// the native registry uses (every counter the scheduler owns is
    /// supplied as an override).
    fn scrape_metrics(&self, ts: u64) -> MetricsSnapshot {
        // Counters carried in fiber stats merge into `spec_stats` only at
        // retirement; fold the live fibers (the root included — its stats
        // never merge) in for a current view.  Vec order, deterministic.
        let mut totals = self.spec_stats.clone();
        for fiber in &self.fibers {
            if !fiber.retired {
                totals.merge(&fiber.stats);
            }
        }
        let counters = &totals.counters;
        let mut extras = ScrapeExtras {
            counter_overrides: vec![
                (CounterId::Forks, self.sim_forks),
                (CounterId::FailedForks, counters.failed_forks),
                (CounterId::ThrottledForks, counters.throttled_forks),
                (CounterId::Commits, self.committed),
                (CounterId::Rollbacks, self.rolled_back),
                (CounterId::rollback_reason(0), self.rolled_back_by_reason[0]),
                (CounterId::rollback_reason(1), self.rolled_back_by_reason[1]),
                (CounterId::rollback_reason(2), self.rolled_back_by_reason[2]),
                (CounterId::rollback_reason(3), self.rolled_back_by_reason[3]),
                (CounterId::Retries, self.retried),
                (CounterId::TargetedDooms, counters.targeted_dooms),
                (CounterId::PrecisePasses, counters.precise_passes),
                (CounterId::AdoptedThreads, counters.adopted_threads),
                (
                    CounterId::FalseSharingSuspects,
                    counters.false_sharing_suspects,
                ),
                // Wasted/committed cycles count *settled* fibers only
                // (mirroring the native push sites, which fire at joins).
                (
                    CounterId::WastedCycles,
                    self.spec_stats.get(Phase::WastedWork),
                ),
                (CounterId::CommittedCycles, self.spec_stats.get(Phase::Work)),
            ],
            extra_counters: vec![
                ("log_commits".to_string(), self.sim_commits),
                ("log_stamps".to_string(), self.sim_stamps),
                ("log_cas_retries".to_string(), self.sim_cas_retries),
                ("log_ring_overflows".to_string(), self.sim_ring_overflows),
                ("log_regrains".to_string(), self.sim_regrains),
                ("log_reader_spills".to_string(), 0),
            ],
            gauge_overrides: vec![(
                GaugeId::InFlightSpeculations,
                self.active_speculative as f64,
            )],
            ..ScrapeExtras::default()
        };
        for site in self.governor.snapshot() {
            let site_label = site.site.to_string();
            extras.labeled.push(LabeledGauge::new(
                "site_rollback_rate",
                "site",
                site_label.clone(),
                site.rollback_rate,
            ));
            extras.labeled.push(LabeledGauge::new(
                "site_throttled",
                "site",
                site_label,
                site.throttled as f64,
            ));
        }
        // Grain census over touched regions — BTreeMap, because HashMap
        // iteration order would leak into the serialized series.
        let mut census: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for &region in self.region_telemetry.keys() {
            *census.entry(self.grain_of_region(region)).or_insert(0) += 1;
        }
        for (grain_log2, regions) in census {
            extras.labeled.push(LabeledGauge::new(
                "grain_regions",
                "grain_log2",
                grain_log2.to_string(),
                regions as f64,
            ));
        }
        extras
            .labeled
            .extend(phase_share_gauges(&self.latency.approx_totals()));
        self.metrics_registry.scrape(ts, extras)
    }

    /// Truncate the publish-log entries no live speculative reader — and
    /// no future one, since fibers fork with `start_time >=` the current
    /// pop time — can ever match.  Every conflict scan filters on a
    /// strict `time > threshold` with `threshold >= start_time`, so
    /// entries at or below the horizon (the minimum `start_time` over live
    /// speculative fibers, capped by the pop clock) are fossils.  The log
    /// is scanned order-insensitively, but only a leading run is dropped.
    fn fossil_collect(&mut self, now: u64) {
        let mut horizon = now;
        for fiber in &self.fibers {
            if fiber.speculative && !fiber.retired {
                horizon = horizon.min(fiber.start_time);
            }
        }
        let dead = self
            .publishes
            .iter()
            .take_while(|e| e.time <= horizon)
            .count();
        self.publishes.drain(..dead);
    }

    /// Build the [`SimResult`] after the event loop has drained.
    fn finish(mut self) -> SimResult {
        let runtime = {
            let root_fiber = &self.fibers[0];
            root_fiber.finished.unwrap_or(root_fiber.time)
        };
        // One final sample at the end of virtual time, so short runs that
        // never crossed a cadence boundary still export a snapshot.
        if self.config.metrics.enabled {
            let snapshot = self.scrape_metrics(runtime);
            self.metrics_series.push(snapshot);
        }
        let root_fiber = &self.fibers[0];
        // Census of the live per-region grains over touched regions —
        // what the (simulated) grain controller converged to.
        let mut census: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for &region in self.region_telemetry.keys() {
            *census.entry(self.grain_of_region(region)).or_insert(0) += 1;
        }
        let report = RunReport {
            critical: root_fiber.stats.clone(),
            speculative: self.spec_stats.clone(),
            committed_threads: self.committed,
            rolled_back_threads: self.rolled_back,
            retried_threads: self.retried,
            rollback_reasons: self.rolled_back_by_reason,
            runtime,
            sites: self.governor.snapshot(),
            // Simulated log traffic: publish batches, range stamps at the
            // live per-region grains, and controller regrains.
            // `lock_ns` is a wall-clock quantity and stays zero.
            commit_log: CommitLogStats {
                commits: self.sim_commits,
                stamp_writes: self.sim_stamps,
                lock_ns: 0,
                cas_retries: self.sim_cas_retries,
                regrains: self.sim_regrains,
                // The simulator models reader tracking abstractly and
                // never spills past the bitmask window.
                reader_spills: 0,
                ring_overflows: self.sim_ring_overflows,
                grain_log2: self.config.commit_log.grain_log2,
                shards: self.config.commit_log.shards,
                ring_depth: self.config.commit_log.ring_depth,
            },
            region_grains: census.into_iter().collect(),
            latency: self.latency.report(),
        };
        SimResult {
            report,
            sequential_cycles: Self::sequential_cycles(self.recording, &self.config.cost),
            parallel_cycles: runtime,
            tasks: self.recording.task_count(),
            events: self.events,
            metrics: self.metrics_series,
        }
    }

    fn spawn_fiber(
        &mut self,
        node: NodeId,
        speculative: bool,
        cpu: usize,
        start: u64,
        site: u32,
        model: ForkModel,
    ) -> usize {
        let fiber = Fiber::new(cpu, speculative, node, start, site, model);
        if speculative {
            self.sim_forks += 1;
        }
        self.fibers.push(fiber);
        self.fibers.len() - 1
    }

    fn schedule(&mut self, fid: usize, time: u64) {
        self.queue_seq += 1;
        self.queue.push(Reverse((time, self.queue_seq, fid)));
    }

    /// Publish a set of written addresses to main memory at `time`,
    /// dooming any in-flight speculative fiber that already read a
    /// commit-log *range* the batch stamps (at word grain this is exact;
    /// coarser grains add false sharing but never miss a conflict).  The
    /// publish is also logged so that reads registered later (at segment
    /// completion) can be checked against it.
    ///
    /// The newly doomed fibers (the registered readers of the stamped
    /// ranges) are additionally asked to **stop at their next check
    /// point** instead of burning their whole conflict window; the
    /// returned cycles are the writer's doom-signalling cost
    /// (`CostModel::doom_signal` per victim), which the caller adds to
    /// the writer's clock.
    fn publish(&mut self, writes: &HashSet<Addr>, time: u64, writer: usize) -> u64 {
        if writes.is_empty() {
            return 0;
        }
        // Coarsen at each write's *current per-region* grain, counting the
        // simulated stamp traffic (one stamp per distinct range — the
        // column a coarser grain shrinks) and the per-region telemetry
        // the grain controller runs on.
        let mut ranges: HashSet<u64> = HashSet::new();
        let mut write_info: Vec<(Addr, u64, u64)> = Vec::with_capacity(writes.len());
        self.sim_commits += 1;
        for &w in writes {
            let (range, region) = (self.range_at(w), w >> self.region_log2);
            write_info.push((w, range, region));
            if ranges.insert(range) {
                self.sim_stamps += 1;
                self.region_telemetry.entry(region).or_default()[0] += 1;
            }
        }
        let mut newly_doomed: Vec<usize> = Vec::new();
        let mvcc = self.mvcc();
        let ring_depth = self.config.commit_log.ring_depth as usize;
        for (fid, fiber) in self.fibers.iter_mut().enumerate() {
            if fid == writer || !fiber.speculative || fiber.retired {
                continue;
            }
            if fiber.start_time >= time {
                continue;
            }
            if fiber.doomed.is_some() {
                // Already doomed: a later publish that hits an actually
                // read word upgrades a false-sharing classification to a
                // genuine conflict, matching the native classifier (which
                // re-checks every read value at join time).
                if fiber.doomed_false_sharing && intersects(writes, &fiber.reads) {
                    fiber.doomed_false_sharing = false;
                }
                continue;
            }
            // Word overlap is checked in addition to range overlap so a
            // true conflict is never missed even if a regrain re-indexed
            // the ranges between the read and this publish.
            let word_hit = intersects(writes, &fiber.reads);
            if word_hit || intersects(&ranges, &fiber.read_ranges) {
                if mvcc && !word_hit {
                    // mvcc precise validation: the publish stamped a range
                    // the fiber read, but the version ring's footprint
                    // proves every published word missed the fiber's
                    // actual reads — the fiber survives undoomed, no value
                    // re-read and no join-time retry.  Only a ring
                    // overflow (more publishes into the range than the
                    // ring holds since the fiber started — the sim's
                    // publish counter stands in for the shard version, a
                    // conservative proxy for the entry's read stamp)
                    // forces the range-conservative doom.
                    let overflow = fiber.read_ranges.iter().any(|r| {
                        ranges.contains(r)
                            && self
                                .publishes
                                .iter()
                                .filter(|e| e.time > fiber.start_time && e.ranges.contains(r))
                                .count()
                                + 1
                                >= ring_depth
                    });
                    if !overflow {
                        fiber.stats.counters.precise_passes += 1;
                        continue;
                    }
                    self.sim_ring_overflows += 1;
                }
                fiber.doomed = Some(SpecFailure::ReadConflict);
                fiber.doomed_false_sharing = !word_hit;
                // Lowest qualifying region, not "first": write_info is
                // built from a HashSet, whose order must never leak into
                // the deterministic replay.
                fiber.conflict_region = write_info
                    .iter()
                    .filter(|(w, range, _)| {
                        fiber.reads.contains(w) || fiber.read_ranges.contains(range)
                    })
                    .map(|(_, _, region)| *region)
                    .min();
                // Mirror the native in-flight retry: a false-sharing
                // victim re-validates by value and keeps running (it
                // retries at its join), so only genuinely stale readers
                // are stopped early.
                if !fiber.doomed_false_sharing {
                    newly_doomed.push(fid);
                }
            }
        }
        self.publishes.push(PubEntry {
            time,
            words: writes.clone(),
            ranges,
        });
        let mut cost = self.config.cost.doom_cycles(newly_doomed.len() as u64);
        if !newly_doomed.is_empty() {
            self.fibers[writer].stats.counters.targeted_dooms += newly_doomed.len() as u64;
            let writer_rank = self.fibers[writer].cpu as u32;
            let writer_site = self.fibers[writer].site;
            self.emit(
                writer_rank,
                writer_site,
                time,
                EventKind::Doom {
                    source: DoomSource::Commit,
                },
            );
            for fid in newly_doomed {
                self.request_stop(fid, time);
            }
        }
        self.publish_count += 1;
        cost += self.tick_grain_controller(time);
        cost
    }

    /// Every `tick_commits` publishes, run one deterministic grain
    /// controller tick: snapshot the per-region telemetry (ascending by
    /// region), apply the regrains to the region-grain map, and
    /// conservatively doom every in-flight reader of a regrained region
    /// (mirroring the native whole-region flush — value prediction
    /// retries them at their joins).  Returns the cycles charged to the
    /// publishing fiber: `regrain_per_slot` per flushed floor-grain slot
    /// plus `doom_signal` per doomed reader.
    fn tick_grain_controller(&mut self, time: u64) -> u64 {
        let Some(controller) = self.grain_controller.as_mut() else {
            return 0;
        };
        if !self
            .publish_count
            .is_multiple_of(self.config.grain_control.tick_commits.max(1))
        {
            return 0;
        }
        let mut profiles: Vec<RegionProfile> = Vec::new();
        let floor = self.config.commit_log.grain_log2;
        let mut regions: Vec<u64> = self.region_telemetry.keys().copied().collect();
        regions.sort_unstable();
        for region in regions {
            let [stamps, conflicts, false_sharing, retries] = self.region_telemetry[&region];
            profiles.push(RegionProfile {
                region,
                // (`grain_of_region`, spelled out: `controller` borrows
                // a field of `self`.)
                grain_log2: *self.grains.get(&region).unwrap_or(&self.default_grain),
                stamps,
                conflicts,
                false_sharing,
                retries,
            });
        }
        let actions = controller.tick(&profiles);
        if actions.is_empty() {
            return 0;
        }
        // Control-plane events use the lane past the last CPU, like the
        // native recorder's dedicated grain-controller lane.
        let control_lane = (self.config.num_cpus + 1) as u32;
        let action_count = actions.len() as u32;
        let slots_per_region = 1u64 << (self.region_log2 - floor);
        let mut cost = 0;
        let mut doomed = 0u64;
        for action in actions {
            let from = self.grain_of_region(action.region);
            self.grains.insert(action.region, action.new_grain_log2);
            self.sim_regrains += 1;
            cost += self.config.cost.regrain_cycles(slots_per_region);
            self.emit(
                control_lane,
                0,
                time,
                EventKind::Regrain {
                    region: action.region,
                    from,
                    to: action.new_grain_log2,
                },
            );
            // The native regrain stamps the whole region and dooms its
            // registered readers; mirror it by dooming every in-flight
            // speculative fiber with a read in the region.  The doom is
            // range-induced (no word was actually written), so value
            // prediction clears it at the join.
            let mut doomed_here = 0u64;
            for fiber in self.fibers.iter_mut() {
                if !fiber.speculative
                    || fiber.retired
                    || fiber.doomed.is_some()
                    || fiber.start_time >= time
                {
                    continue;
                }
                if fiber
                    .reads
                    .iter()
                    .any(|a| a >> self.region_log2 == action.region)
                {
                    fiber.doomed = Some(SpecFailure::ReadConflict);
                    fiber.doomed_false_sharing = true;
                    fiber.conflict_region = Some(action.region);
                    doomed_here += 1;
                }
            }
            doomed += doomed_here;
            if doomed_here > 0 {
                self.emit(
                    control_lane,
                    0,
                    time,
                    EventKind::Doom {
                        source: DoomSource::Regrain,
                    },
                );
            }
        }
        self.emit(
            control_lane,
            0,
            time,
            EventKind::GrainTick {
                actions: action_count,
            },
        );
        cost + self.config.cost.doom_cycles(doomed)
    }

    fn fork_allowed(&self, forker: usize, model: ForkModel) -> bool {
        let speculative = self.fibers[forker].speculative;
        let is_most = if self.active_speculative == 0 {
            !speculative
        } else {
            self.most_speculative == Some(forker)
        };
        model.allows_fork(speculative, is_most)
    }

    fn acquire_cpu(&mut self) -> Option<usize> {
        for (i, free) in self.cpu_free.iter_mut().enumerate() {
            if *free {
                *free = false;
                return Some(i + 1);
            }
        }
        None
    }

    fn release_cpu(&mut self, cpu: usize) {
        self.cpu_free[cpu - 1] = true;
    }

    /// Advance fiber `fid` at global time `now`.
    fn resume(&mut self, fid: usize, now: u64) {
        if self.fibers[fid].time < now {
            self.fibers[fid].time = now;
        }

        // A completed work segment: apply its effects.
        if self.fibers[fid].seg_in_flight {
            self.apply_segment_effects(fid);
            if self.fibers[fid].stop_requested {
                self.finish_fiber(fid);
                return;
            }
        }

        // A child we were blocked on has stopped: perform the join.
        if let Some(child) = self.fibers[fid].pending_join.take() {
            let idle = self.fibers[fid]
                .time
                .saturating_sub(self.fibers[fid].blocked_since);
            self.fibers[fid].stats.add(Phase::Idle, idle);
            if !self.process_join(fid, child) {
                return;
            }
        }

        loop {
            if self.fibers[fid].speculative && self.fibers[fid].stop_requested {
                self.finish_fiber(fid);
                return;
            }
            let frame = *self.fibers[fid].frames.last().expect("frame present");
            let events = &self.recording.nodes[frame.node].events;
            if frame.ip >= events.len() {
                if self.fibers[fid].frames.len() > 1 {
                    self.fibers[fid].frames.pop();
                    continue;
                }
                self.finish_fiber(fid);
                return;
            }
            match events[frame.ip].clone() {
                SimEvent::Seg(seg) => {
                    let cost = &self.config.cost;
                    let cycles = if self.fibers[fid].speculative {
                        cost.segment_cycles_speculative(seg.work, seg.loads, seg.stores)
                    } else {
                        cost.segment_cycles(seg.work, seg.loads, seg.stores)
                    };
                    let start = self.fibers[fid].time;
                    let end = start + cycles;
                    self.fibers[fid].segment_started = start;
                    self.fibers[fid].seg_in_flight = true;
                    self.schedule(fid, end);
                    return;
                }
                SimEvent::Fork {
                    child,
                    model,
                    point,
                } => {
                    self.process_fork(fid, child, model, point);
                    self.bump_ip(fid);
                }
                SimEvent::Join { child } => {
                    self.bump_ip(fid);
                    let child_fiber = self.fibers[fid].child_fibers.remove(&child);
                    match child_fiber {
                        None => {
                            // Not speculated: execute the child inline.
                            self.fibers[fid].frames.push(Frame {
                                node: child,
                                ip: 0,
                                reexec: false,
                            });
                        }
                        Some(cf) => {
                            if self.fibers[cf].finished.is_some() {
                                if !self.process_join(fid, cf) {
                                    return;
                                }
                            } else {
                                // Early synchronization: ask the child to
                                // stop at its next check point.
                                let now = self.fibers[fid].time;
                                self.fibers[fid].blocked_since = now;
                                self.fibers[fid].pending_join = Some(cf);
                                self.fibers[cf].waiter = Some(fid);
                                self.request_stop(cf, now);
                                return;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Ask fiber `cf` to stop at its next check point.
    fn request_stop(&mut self, cf: usize, now: u64) {
        self.fibers[cf].stop_requested = true;
        if self.fibers[cf].seg_in_flight {
            // Stops when the in-flight segment (its next check point)
            // completes; the completion event is already scheduled.
            return;
        }
        if self.fibers[cf].pending_join.is_some() {
            // The child is itself blocked waiting for a grandchild.  It
            // stops right away; its joiner will inherit that pending join.
            self.fibers[cf].time = self.fibers[cf].time.max(now);
            self.finish_fiber(cf);
            return;
        }
        if self.fibers[cf].finished.is_none() && self.fibers[cf].start_time > now {
            // Not even started: it stops immediately with no work done.
            self.fibers[cf].time = self.fibers[cf].start_time;
            self.finish_fiber(cf);
        }
        // Otherwise the fiber has a queued resume and will observe the
        // stop request at its next scheduling point.
    }

    fn bump_ip(&mut self, fid: usize) {
        let frame = self.fibers[fid].frames.last_mut().expect("frame present");
        frame.ip += 1;
    }

    /// Effects of the segment `seg`, started at `seg_start`, against the
    /// publish log: its priced cycles, its reads coarsened at the live
    /// grains and — for a speculative fiber — the conflict verdicts of
    /// everything published while it executed.
    fn segment_effects(&self, seg: &Segment, speculative: bool, seg_start: u64) -> SegEffects {
        let cost = &self.config.cost;
        let cycles = if speculative {
            cost.segment_cycles_speculative(seg.work, seg.loads, seg.stores)
        } else {
            cost.segment_cycles(seg.work, seg.loads, seg.stores)
        };
        let seg_read_ranges: Vec<(Addr, u64)> =
            seg.reads.iter().map(|&a| (a, self.range_at(a))).collect();
        let mut fx = SegEffects {
            cycles,
            seg_read_ranges,
            hit: false,
            word_hit: false,
            overflow: false,
            region: None,
        };
        if !speculative {
            return fx;
        }
        let entries = &self.publishes;
        let reads = &fx.seg_read_ranges;
        fx.hit = entries.iter().any(|e| {
            e.time > seg_start
                && reads
                    .iter()
                    .any(|(a, r)| e.words.contains(a) || e.ranges.contains(r))
        });
        if fx.hit {
            fx.word_hit = entries
                .iter()
                .any(|e| e.time > seg_start && seg.reads.iter().any(|a| e.words.contains(a)));
            if self.mvcc() && !fx.word_hit {
                // Conservative ring-overflow probe (only consulted on the
                // range-only path).
                let ring_depth = self.config.commit_log.ring_depth as usize;
                fx.overflow = reads.iter().any(|(_, r)| {
                    entries
                        .iter()
                        .filter(|e| e.time > seg_start && e.ranges.contains(r))
                        .count()
                        >= ring_depth
                });
            }
            // Lowest qualifying region, not "first": seg.reads is a
            // HashSet, whose order must never leak into the replay.
            fx.region = reads
                .iter()
                .filter(|(a, r)| {
                    entries.iter().any(|e| {
                        e.time > seg_start && (e.words.contains(a) || e.ranges.contains(r))
                    })
                })
                .map(|(a, _)| a >> self.region_log2)
                .min();
        }
        fx
    }

    fn apply_segment_effects(&mut self, fid: usize) {
        let frame = *self.fibers[fid].frames.last().expect("frame present");
        let recording = self.recording;
        let node = &recording.nodes[frame.node];
        if let SimEvent::Seg(seg) = &node.events[frame.ip] {
            let speculative = self.fibers[fid].speculative;
            let seg_start = self.fibers[fid].segment_started;
            let fx = self.segment_effects(seg, speculative, seg_start);
            {
                let fiber = &mut self.fibers[fid];
                fiber.stats.counters.loads += seg.loads;
                fiber.stats.counters.stores += seg.stores;
                fiber.stats.add(Phase::Work, fx.cycles);
                for (addr, range) in &fx.seg_read_ranges {
                    if !fiber.writes.contains(addr) {
                        fiber.reads.insert(*addr);
                        fiber.read_ranges.insert(*range);
                    }
                }
                fiber.writes.extend(seg.writes.iter().copied());
            }
            if speculative {
                // The reads of this segment were checked against anything
                // published to main memory while the segment executed —
                // range-grained like the in-flight doom check, with the
                // word-level overlap checked too so a regrain between the
                // publish and this check can never hide a true conflict.
                if fx.hit {
                    let word_hit = fx.word_hit;
                    // mvcc precise validation for late-registered reads:
                    // a range-only hit whose publishes all still fit in
                    // the range's version ring is proven word-disjoint by
                    // the footprints — a precise pass, not a doom.
                    let range_only = self.mvcc() && !word_hit && self.fibers[fid].doomed.is_none();
                    let overflow = range_only && fx.overflow;
                    if range_only && !overflow {
                        self.fibers[fid].stats.counters.precise_passes += 1;
                    } else {
                        if range_only {
                            self.sim_ring_overflows += 1;
                        }
                        match self.fibers[fid].doomed {
                            None => {
                                self.fibers[fid].doomed = Some(SpecFailure::ReadConflict);
                                self.fibers[fid].doomed_false_sharing = !word_hit;
                                self.fibers[fid].conflict_region = fx.region;
                            }
                            // Upgrade an earlier false-sharing
                            // classification when this segment's reads
                            // were genuinely hit.
                            Some(_) if word_hit => self.fibers[fid].doomed_false_sharing = false,
                            Some(_) => {}
                        }
                    }
                }
            } else {
                // Non-speculative writes reach main memory immediately,
                // surgically dooming their registered readers.
                let writes = seg.writes.clone();
                let time = self.fibers[fid].time;
                let doom_cost = self.publish(&writes, time, fid);
                self.fibers[fid].time += doom_cost;
            }
        }
        self.fibers[fid].seg_in_flight = false;
        self.bump_ip(fid);
    }

    fn process_fork(&mut self, fid: usize, child: NodeId, recorded_model: ForkModel, point: u32) {
        let forker_rank = self.fibers[fid].cpu as u32;
        let now = self.fibers[fid].time;
        self.emit(forker_rank, point, now, EventKind::ForkAttempt);
        // Mirror the native recovery engine: a speculative fiber
        // executing a rollback-inherited frame may not re-speculate (its
        // children would read underneath the uncommitted overlay); the
        // re-execution stays inline.
        if self.fibers[fid].speculative && self.fibers[fid].frames.iter().any(|f| f.reexec) {
            self.fibers[fid].stats.counters.failed_forks += 1;
            self.emit(
                forker_rank,
                point,
                now,
                EventKind::ForkDenied {
                    policy: DenyPolicy::Reexec,
                },
            );
            return;
        }
        let requested = self.config.fork_model.unwrap_or(recorded_model);
        let cost = self.config.cost;

        // The governor may suppress the fork or pick a per-site model; a
        // denial is decided before any fork overhead is spent, exactly as
        // in the native runtime.
        let model = match self.governor.decide(point, requested) {
            ForkDecision::Allow(model) => {
                self.emit(
                    forker_rank,
                    point,
                    now,
                    EventKind::GovernorDecision { allowed: true },
                );
                model
            }
            ForkDecision::Deny => {
                self.fibers[fid].stats.counters.throttled_forks += 1;
                self.emit(
                    forker_rank,
                    point,
                    now,
                    EventKind::GovernorDecision { allowed: false },
                );
                self.emit(
                    forker_rank,
                    point,
                    now,
                    EventKind::ForkDenied {
                        policy: DenyPolicy::Governor,
                    },
                );
                return;
            }
        };

        // Scanning for an idle CPU costs time on the forker.
        self.fibers[fid].time += cost.find_cpu;
        self.fibers[fid].stats.add(Phase::FindCpu, cost.find_cpu);

        if !self.fork_allowed(fid, model) {
            self.fibers[fid].stats.counters.failed_forks += 1;
            let now = self.fibers[fid].time;
            self.emit(
                forker_rank,
                point,
                now,
                EventKind::ForkDenied {
                    policy: DenyPolicy::Model,
                },
            );
            return;
        }
        let Some(cpu) = self.acquire_cpu() else {
            self.fibers[fid].stats.counters.failed_forks += 1;
            let now = self.fibers[fid].time;
            self.emit(
                forker_rank,
                point,
                now,
                EventKind::ForkDenied {
                    policy: DenyPolicy::NoCpu,
                },
            );
            return;
        };
        self.fibers[fid].time += cost.fork;
        self.fibers[fid].stats.add(Phase::Fork, cost.fork);
        self.fibers[fid].stats.counters.forks += 1;

        let start = self.fibers[fid].time + cost.spawn_latency;
        let child_fiber = self.spawn_fiber(child, true, cpu, start, point, model);
        self.emit(
            cpu as u32,
            point,
            start,
            EventKind::SpecStart {
                parent: forker_rank,
            },
        );
        self.governor.record_fork(point, model);
        self.fibers[fid].child_fibers.insert(child, child_fiber);
        self.most_speculative = Some(child_fiber);
        self.active_speculative += 1;
        self.schedule(child_fiber, start);
    }

    fn finish_fiber(&mut self, fid: usize) {
        if self.fibers[fid].finished.is_some() {
            return;
        }
        let time = self.fibers[fid].time;
        self.fibers[fid].finished = Some(time);
        if let Some(waiter) = self.fibers[fid].waiter {
            if self.fibers[waiter].pending_join == Some(fid) {
                self.schedule(waiter, time);
            }
        }
    }

    /// Whether fiber `cf` stopped before exhausting its own node's events.
    fn stopped_early(&self, cf: usize) -> bool {
        let fiber = &self.fibers[cf];
        if fiber.frames.len() > 1 || fiber.pending_join.is_some() {
            return true;
        }
        let frame = fiber.frames[0];
        frame.ip < self.recording.nodes[frame.node].events.len()
    }

    /// Join child fiber `cf` into parent fiber `fid`.  Returns `false`
    /// when the parent became blocked again (it inherited a pending join
    /// from an early-stopped child) and must not continue executing now.
    fn process_join(&mut self, fid: usize, cf: usize) -> bool {
        let cost = self.config.cost;
        let child_finish = self.fibers[cf].finished.expect("child stopped");
        let mut now = self.fibers[fid].time.max(child_finish);

        // Time the child spent waiting to be joined is speculative idle.
        let child_idle = now.saturating_sub(child_finish);
        self.fibers[cf].stats.add(Phase::Idle, child_idle);

        // Fixed synchronization bookkeeping on the joining thread.
        self.fibers[fid].stats.add(Phase::Join, cost.join);
        now += cost.join;

        // Validation (charged to the speculative path; the joiner idles).
        // The value comparison is per word; the commit-log probe is per
        // range, so coarser grains validate cheaper.
        let read_words = self.fibers[cf].reads.len() as u64;
        let read_ranges = self.fibers[cf].read_ranges.len() as u64;
        let write_words = self.fibers[cf].writes.len() as u64;
        let child_rank = self.fibers[cf].cpu as u32;
        let child_site = self.fibers[cf].site;
        self.emit(
            child_rank,
            child_site,
            now,
            EventKind::ValidateBegin {
                ranges: read_ranges as u32,
            },
        );
        let validation = cost.validation_cycles_grained(read_words, read_ranges);
        self.fibers[cf].stats.add(Phase::Validation, validation);
        self.fibers[fid].stats.add(Phase::Idle, validation);
        now += validation;
        self.latency.record(LatencyPhase::Validation, validation);

        let injected = self.draw_injected();
        let verdict: Result<(), SpecFailure> = if let Some(reason) = self.fibers[cf].doomed {
            // Recovery rung 1 — value-predict retry: a range-only
            // (false-sharing) conflict means every word the fiber read
            // still holds its first-read value, so a value re-validation
            // pass repairs the join in place, no re-execution.
            if reason == SpecFailure::ReadConflict
                && self.fibers[cf].doomed_false_sharing
                && !injected
            {
                let retry = cost.retry_cycles(read_words);
                self.fibers[cf].stats.add(Phase::Validation, retry);
                self.fibers[fid].stats.add(Phase::Idle, retry);
                now += retry;
                self.latency.record(LatencyPhase::RepairRetry, retry);
                self.fibers[cf].stats.counters.retries_succeeded += 1;
                self.fibers[cf].retried = true;
                self.fibers[cf].doomed = None;
                self.fibers[cf].doomed_false_sharing = false;
                // Grain-control telemetry: a retry is a conflict the
                // current grain made cheap — split evidence.
                if let Some(region) = self.fibers[cf].conflict_region.take() {
                    self.region_telemetry.entry(region).or_default()[3] += 1;
                }
                self.retried += 1;
                Ok(())
            } else {
                Err(reason)
            }
        } else if injected {
            Err(SpecFailure::Injected)
        } else {
            Ok(())
        };

        // Price the version-ring probes the fiber survived on in flight —
        // deterministic (the count is already in the fiber's stats), and
        // far cheaper than the value-predict retries they replace.
        let precise = self.fibers[cf].stats.counters.precise_passes;
        if precise > 0 {
            let probe = cost.ring_probe_cycles(precise);
            self.fibers[cf].stats.add(Phase::Validation, probe);
            self.fibers[fid].stats.add(Phase::Idle, probe);
            now += probe;
            self.latency.record(LatencyPhase::Validation, probe);
        }
        let outcome = match &verdict {
            Ok(()) if self.fibers[cf].retried => ValidateOutcome::Retried,
            Ok(()) if precise > 0 => ValidateOutcome::PrecisePass,
            Ok(()) => ValidateOutcome::Clean,
            Err(SpecFailure::ReadConflict) if self.fibers[cf].doomed_false_sharing => {
                // Every word the fiber read still held its first-read
                // value — the doom is grain (or ring-overflow) induced
                // conservatism, not a proven dependence violation.
                ValidateOutcome::ConservativeDoom
            }
            Err(SpecFailure::ReadConflict) | Err(SpecFailure::LocalValidationFailed) => {
                ValidateOutcome::Conflict
            }
            Err(_) => ValidateOutcome::Failed,
        };
        self.emit(
            child_rank,
            child_site,
            now,
            EventKind::ValidateEnd { outcome },
        );

        let finalize = cost.finalize_cycles(read_words + write_words);
        let mut blocked = false;
        match verdict {
            Ok(()) => {
                // Publishing to main memory pays the commit log's
                // contention term, one CAS retry per contender; absorbing
                // into a speculative parent records nothing in the log
                // and pays nothing.
                let shard_mask = (self.config.commit_log.shards as u64) - 1;
                let cas_attempts = if self.fibers[fid].speculative {
                    0
                } else {
                    // Shards stripe *regions* (grain-independent), as in
                    // the native log.
                    let shards: HashSet<u64> = self.fibers[cf]
                        .writes
                        .iter()
                        .map(|w| (w >> self.region_log2) & shard_mask)
                        .collect();
                    // Deterministic contention model: every *other*
                    // in-flight speculative fiber whose buffered writes
                    // map into a touched shard is one potential
                    // same-shard contender, costing this batch one CAS
                    // retry.  Disjoint-shard committers stay free — the
                    // whole point of the CAS-published slots.
                    self.fibers
                        .iter()
                        .enumerate()
                        .filter(|&(i, f)| {
                            i != cf && i != fid && f.speculative && f.finished.is_none()
                        })
                        .filter(|(_, f)| {
                            f.writes
                                .iter()
                                .any(|w| shards.contains(&((w >> self.region_log2) & shard_mask)))
                        })
                        .count() as u64
                };
                if cas_attempts > 0 {
                    self.sim_cas_retries += cas_attempts;
                    // The histogram records the *attempt count*, not a
                    // duration, mirroring the native runtime.
                    self.latency
                        .record(LatencyPhase::CommitCasRetry, cas_attempts);
                    self.emit(
                        child_rank,
                        child_site,
                        now,
                        EventKind::CommitCasRetry {
                            attempts: cas_attempts,
                        },
                    );
                }
                let commit = cost.commit_cycles(write_words) + cost.cas_retry_cycles(cas_attempts);
                self.fibers[cf].stats.add(Phase::Commit, commit);
                self.fibers[cf].stats.add(Phase::Finalize, finalize);
                self.fibers[fid].stats.add(Phase::Idle, commit + finalize);
                now += commit + finalize;

                let child_reads: Vec<(Addr, u64)> = self.fibers[cf]
                    .reads
                    .iter()
                    .map(|&a| (a, self.range_at(a)))
                    .collect();
                let child_writes: HashSet<Addr> = self.fibers[cf].writes.clone();
                if self.fibers[fid].speculative {
                    // Absorb into the speculative parent.
                    for (addr, range) in child_reads {
                        if !self.fibers[fid].writes.contains(&addr) {
                            self.fibers[fid].reads.insert(addr);
                            self.fibers[fid].read_ranges.insert(range);
                        }
                    }
                    self.fibers[fid].writes.extend(child_writes.iter().copied());
                } else {
                    now += self.publish(&child_writes, now, cf);
                }
                self.emit(child_rank, child_site, now, EventKind::Commit);
                self.latency.record(
                    LatencyPhase::ForkToCommit,
                    now.saturating_sub(self.fibers[cf].start_time),
                );
                self.fibers[fid].stats.counters.commits += 1;
                self.committed += 1;

                let early = self.stopped_early(cf);
                // Inherit the child's still-speculating children so their
                // joins (in the inherited frames) find them.
                let inherited: Vec<(NodeId, usize)> =
                    self.fibers[cf].child_fibers.drain().collect();
                self.fibers[fid].child_fibers.extend(inherited);

                if early {
                    // Stack frame reconstruction: the joiner continues the
                    // child's remaining execution.
                    let frames = self.fibers[cf].frames.clone();
                    self.fibers[fid].frames.extend(frames);
                    if let Some(gc) = self.fibers[cf].pending_join.take() {
                        // The child was blocked on its own child; the
                        // joiner takes over that join.
                        if self.fibers[gc].finished.is_some() {
                            self.fibers[fid].time = now;
                            self.retire_fiber(cf, true);
                            return self.process_join(fid, gc);
                        }
                        self.fibers[fid].blocked_since = now;
                        self.fibers[fid].pending_join = Some(gc);
                        self.fibers[gc].waiter = Some(fid);
                        blocked = true;
                    }
                }
                self.retire_fiber(cf, true);
            }
            Err(reason) => {
                // Remember why, for the governor's per-site profile.
                let _ = self.fibers[cf].doomed.get_or_insert(reason);
                if reason == SpecFailure::ReadConflict && self.fibers[cf].doomed_false_sharing {
                    self.fibers[cf].stats.counters.false_sharing_suspects += 1;
                }
                if reason == SpecFailure::ReadConflict {
                    // Grain-control telemetry: attribute the squash to the
                    // conflicting region (false-sharing flagged so the
                    // controller can split the grain out of the way).
                    let fs = self.fibers[cf].doomed_false_sharing;
                    if let Some(region) = self.fibers[cf].conflict_region.take() {
                        let counters = self.region_telemetry.entry(region).or_default();
                        counters[1] += 1;
                        if fs {
                            counters[2] += 1;
                        }
                    }
                }
                self.fibers[cf].stats.add(Phase::Finalize, finalize);
                self.fibers[fid].stats.add(Phase::Idle, finalize);
                now += finalize;
                // The doom itself was counted at publish time.
                let plan = if reason == SpecFailure::ReadConflict {
                    PlanArm::DoomSet
                } else {
                    PlanArm::None
                };
                // The join-side repair work is the buffer discard plus the
                // re-execution frame push, both priced by `finalize`.
                self.latency.record(LatencyPhase::RepairDoomSet, finalize);
                self.emit(
                    child_rank,
                    child_site,
                    now,
                    EventKind::Rollback {
                        reason: rollback_cause(reason),
                        plan,
                    },
                );
                self.fibers[fid]
                    .stats
                    .counters
                    .record_rollback(RollbackReason::from(reason));
                self.rolled_back += 1;
                self.rolled_back_by_reason[RollbackReason::from(reason).index()] += 1;
                // Cascading rollback confined to the child's subtree: every
                // speculative thread it spawned (and has not joined) is
                // discarded too.
                let grandchildren: Vec<usize> = self.fibers[cf]
                    .child_fibers
                    .drain()
                    .map(|(_, f)| f)
                    .collect();
                for gf in grandchildren {
                    self.cancel_subtree(gf);
                }
                if let Some(gc) = self.fibers[cf].pending_join.take() {
                    self.cancel_subtree(gc);
                }
                self.retire_fiber(cf, false);
                // The parent re-executes the child's region inline from the
                // beginning.
                let child_node = self.fibers[cf].frames[0].node;
                self.fibers[fid].frames.push(Frame {
                    node: child_node,
                    ip: 0,
                    reexec: true,
                });
            }
        }

        self.fibers[fid].time = now;
        !blocked
    }

    /// Cancel a speculative fiber and its whole subtree (cascading
    /// rollback).  Their work is wasted and their CPUs are reclaimed.
    fn cancel_subtree(&mut self, fid: usize) {
        if self.fibers[fid].retired {
            return;
        }
        let grandchildren: Vec<usize> = self.fibers[fid]
            .child_fibers
            .drain()
            .map(|(_, f)| f)
            .collect();
        for gf in grandchildren {
            self.cancel_subtree(gf);
        }
        if let Some(gc) = self.fibers[fid].pending_join.take() {
            self.cancel_subtree(gc);
        }
        self.rolled_back += 1;
        let reason = self.fibers[fid].doomed.unwrap_or(SpecFailure::Cascaded);
        self.rolled_back_by_reason[RollbackReason::from(reason).index()] += 1;
        self.retire_fiber(fid, false);
    }

    fn retire_fiber(&mut self, cf: usize, committed: bool) {
        if self.fibers[cf].retired {
            return;
        }
        self.fibers[cf].retired = true;
        if !committed {
            let wasted = self.fibers[cf].stats.mark_work_wasted();
            if self.fibers[cf].speculative {
                self.metrics_registry
                    .observe(HistId::RollbackWastedCycles, wasted);
            }
        }
        if self.fibers[cf].speculative {
            self.metrics_registry
                .observe(HistId::ThreadCycles, self.fibers[cf].stats.total());
        }
        if self.fibers[cf].speculative {
            let fiber = &self.fibers[cf];
            // Live grain of the fiber's traffic for the per-site grain
            // column (lowest written — else read — address, so HashSet
            // order cannot leak into the deterministic replay).
            let observed_grain = fiber
                .writes
                .iter()
                .min()
                .or_else(|| fiber.reads.iter().min())
                .map(|&a| self.grain_at(a))
                .unwrap_or(self.config.commit_log.grain_log2);
            let outcome = if committed {
                SiteOutcome::committed(
                    fiber.stats.get(Phase::Work),
                    fiber.stats.get(Phase::Idle),
                    fiber.model,
                )
                .with_retry(fiber.retried)
                .with_grain(observed_grain)
            } else {
                SiteOutcome::rolled_back(
                    fiber.doomed.unwrap_or(SpecFailure::Cascaded),
                    fiber.stats.get(Phase::WastedWork),
                    fiber.stats.get(Phase::Idle),
                    fiber.model,
                )
                .with_false_sharing(
                    fiber.doomed == Some(SpecFailure::ReadConflict) && fiber.doomed_false_sharing,
                )
                .with_grain(observed_grain)
            };
            self.governor.record_outcome(fiber.site, &outcome);
        }
        let stats = self.fibers[cf].stats.clone();
        self.spec_stats.merge(&stats);
        let cpu = self.fibers[cf].cpu;
        if cpu > 0 {
            self.release_cpu(cpu);
        }
        self.active_speculative = self.active_speculative.saturating_sub(1);
        if self.most_speculative == Some(cf) {
            self.most_speculative = None;
        }
    }

    fn draw_injected(&mut self) -> bool {
        let p = self.config.rollback_probability;
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.rng.gen_bool(p)
        }
    }
}

/// Map a simulated failure onto the trace vocabulary (same mapping the
/// native runtime uses).
fn rollback_cause(reason: SpecFailure) -> RollbackCause {
    match reason {
        SpecFailure::ReadConflict | SpecFailure::LocalValidationFailed => RollbackCause::Conflict,
        SpecFailure::BufferOverflow | SpecFailure::LocalBufferOverflow => RollbackCause::Overflow,
        SpecFailure::Injected => RollbackCause::Injected,
        SpecFailure::UnregisteredAddress | SpecFailure::Cascaded | SpecFailure::NoSync => {
            RollbackCause::Other
        }
    }
}

fn intersects(a: &HashSet<Addr>, b: &HashSet<Addr>) -> bool {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    small.iter().any(|x| large.contains(x))
}

/// Simulate `recording` under `config`.
pub fn simulate(recording: &Recording, config: SimConfig) -> SimResult {
    Scheduler::new(recording, config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record_region;
    use mutls_membuf::GlobalMemory;
    use mutls_runtime::{task, SpecResult, TlsContext};
    use std::sync::Arc;

    /// A region whose child reads a word that *false-shares* a line with
    /// the word the parent writes mid-flight: a range conflict at line
    /// grain, never a word conflict.
    fn false_sharing_recording() -> crate::Recording {
        let memory = Arc::new(GlobalMemory::new(1 << 12));
        let cells = memory.alloc::<u64>(16);
        record_region(Arc::clone(&memory), move |ctx| {
            fn region<C: TlsContext>(
                ctx: &mut C,
                cells: mutls_membuf::GPtr<u64>,
            ) -> SpecResult<()> {
                let cont = task(move |ctx: &mut C| {
                    // Word 1 shares line 0 with word 0 below.
                    let v = ctx.load(&cells, 1)?;
                    ctx.work(20_000)?;
                    ctx.store(&cells, 8, v + 1) // a different line
                });
                let handle = ctx.fork(1, cont)?;
                // Long enough that the child is already in flight, short
                // enough that it has not finished when this publishes.
                ctx.work(5_000)?;
                ctx.store(&cells, 0, 7)?;
                ctx.work(5_000)?;
                ctx.join(handle)?;
                Ok(())
            }
            region(ctx, cells)
        })
    }

    /// Line grain (where the recording's conflict is range-only) at an
    /// explicit ring depth.
    fn line_grain_at_depth(ring_depth: u32) -> SimConfig {
        SimConfig {
            commit_log: CommitLogConfig::line_grain().ring_depth(ring_depth),
            trace: true,
            ..SimConfig::with_cpus(2)
        }
    }

    fn ser(report: &RunReport) -> String {
        use serde::Serialize;
        let mut out = String::new();
        report.serialize_json(&mut out);
        out
    }

    #[test]
    fn sim_defaults_mirror_the_runtime() {
        assert_eq!(
            SimConfig::default().commit_log,
            RuntimeConfig::default().commit_log
        );
    }

    #[test]
    fn false_sharing_retries_at_ring_depth_one_and_vanishes_at_word_grain() {
        let recording = false_sharing_recording();
        // Single-version log: the conflict is range-only, value
        // prediction repairs it — a retry, not a rollback.  (With rings
        // it precise-passes instead; see
        // `mvcc_turns_false_sharing_retries_into_precise_passes`.)
        let repaired = simulate(&recording, line_grain_at_depth(1));
        assert_eq!(repaired.report.retried_threads, 1);
        assert_eq!(repaired.report.rolled_back_threads, 0);
        assert_eq!(repaired.report.speculative.counters.retries_succeeded, 1);
        assert_eq!(repaired.report.wasted_work(), 0);
        // At word grain the conflict does not exist at all.
        let exact = simulate(
            &recording,
            SimConfig {
                commit_log: CommitLogConfig::word_grain().ring_depth(1),
                ..SimConfig::with_cpus(2)
            },
        );
        assert_eq!(exact.report.retried_threads, 0);
        assert_eq!(exact.report.rolled_back_threads, 0);
    }

    #[test]
    fn mvcc_turns_false_sharing_retries_into_precise_passes() {
        let recording = false_sharing_recording();
        // Depth 1: the range-only conflict costs a value-predict retry at
        // the join.
        let single = simulate(&recording, line_grain_at_depth(1));
        assert_eq!(single.report.retried_threads, 1);
        assert_eq!(single.report.precise_passes(), 0);
        // Rings: the version ring proves the parent's line-sharing write
        // missed the word the child read — no doom, no retry, a precise
        // pass priced at one ring probe.
        let depth = mutls_membuf::DEFAULT_RING_DEPTH;
        let mvcc = simulate(&recording, line_grain_at_depth(depth));
        assert_eq!(mvcc.report.retried_threads, 0);
        assert_eq!(mvcc.report.rolled_back_threads, 0);
        assert!(mvcc.report.precise_passes() >= 1);
        assert_eq!(mvcc.report.commit_log.ring_depth, depth);
        assert_eq!(mvcc.report.commit_log.ring_overflows, 0);
        assert!(mvcc.events.iter().any(|e| matches!(
            e.kind,
            EventKind::ValidateEnd {
                outcome: ValidateOutcome::PrecisePass
            }
        )));
        // The probe undercuts the retry it replaces.
        assert!(mvcc.parallel_cycles <= single.parallel_cycles);
        // Determinism survives the rings.
        let again = simulate(&recording, line_grain_at_depth(depth));
        assert_eq!(ser(&mvcc.report), ser(&again.report));
    }

    #[test]
    fn grain_control_replay_splits_a_false_sharing_region_deterministically() {
        // Adaptive mode over a word floor, regions starting at page, on a
        // single-version log: the false-sharing recording keeps retrying
        // at page grain, so the controller must re-split the region — and
        // the whole run must stay byte-deterministic.
        let recording = false_sharing_recording();
        let config = || SimConfig {
            commit_log: CommitLogConfig::word_grain().ring_depth(1),
            grain_control: GrainControlConfig::adaptive().tick_commits(1),
            ..SimConfig::with_cpus(2)
        };
        let result = simulate(&recording, config());
        assert!(
            result.report.commit_log.regrains > 0,
            "suspect spikes must trigger a re-split"
        );
        assert!(
            result
                .report
                .region_grains
                .iter()
                .any(|&(grain, _)| grain < mutls_membuf::PAGE_GRAIN_LOG2),
            "some region must have left page grain: {:?}",
            result.report.region_grains
        );
        // Stamps are counted in replay (the graincontrol sweep's
        // acceptance column).
        assert!(result.report.commit_log.commits > 0);
        assert!(result.report.commit_log.stamp_writes >= result.report.commit_log.commits);
        // Determinism survives the controller.
        let again = simulate(&recording, config());
        assert_eq!(ser(&result.report), ser(&again.report));
    }

    /// Commits are priced per same-shard contender in flight, and the
    /// pricing stays byte-deterministic.
    #[test]
    fn commit_pricing_reports_cas_retries_for_in_flight_contenders() {
        // A speculation chain over one page (= one region, hence one
        // shard at any shard count): every chunk stores its word in an
        // *early* segment (split off by the check point) and then works
        // for a long time, so when chunk i commits at the root's join,
        // chunks i+1.. are still in flight with their stores already
        // buffered — in-flight same-shard contenders, each a modeled CAS
        // retry.
        let memory = Arc::new(GlobalMemory::new(1 << 12));
        let out = memory.alloc::<i64>(8);
        let recording = record_region(Arc::clone(&memory), move |ctx| {
            fn run<C: TlsContext>(
                ctx: &mut C,
                out: mutls_membuf::GPtr<i64>,
                i: usize,
                chunks: usize,
            ) -> SpecResult<()> {
                if i + 1 < chunks {
                    let cont = task(move |ctx: &mut C| run(ctx, out, i + 1, chunks));
                    let h = ctx.fork(0, cont)?;
                    ctx.store(&out, i, i as i64)?;
                    ctx.check_point()?;
                    ctx.work(50_000)?;
                    ctx.join(h)?;
                } else {
                    ctx.store(&out, i, i as i64)?;
                    ctx.work(50_000)?;
                }
                Ok(())
            }
            run(ctx, out, 0, 6)
        });
        let config = || SimConfig::with_cpus(8).commit_shards(8);
        let result = simulate(&recording, config());
        assert!(
            result.report.commit_log.cas_retries > 0,
            "publishing while later chunks are in flight must model contention"
        );
        let samples = |phase| result.report.latency.row(phase).unwrap().count;
        assert!(samples(LatencyPhase::CommitCasRetry) > 0);
        assert_eq!(samples(LatencyPhase::CommitLockWait), 0);
        assert_eq!(result.report.committed_threads, 5);
        let again = simulate(&recording, config());
        assert_eq!(ser(&result.report), ser(&again.report));
    }

    /// Degenerate pub-field configs (zero shards, sub-word grain) must be
    /// normalized by the scheduler, not panic or mis-mask — SimConfig is
    /// routinely built via struct literals.
    #[test]
    fn degenerate_grain_and_shard_configs_are_normalized() {
        let memory = Arc::new(GlobalMemory::new(1 << 12));
        let cell = memory.alloc::<u64>(4);
        let recording = record_region(Arc::clone(&memory), |ctx| {
            for i in 0..4 {
                let v = ctx.load(&cell, i)?;
                ctx.store(&cell, i, v + 1)?;
            }
            Ok(())
        });
        for (grain_log2, shards) in [(0u32, 0usize), (1, 3), (6, 1)] {
            let result = simulate(
                &recording,
                SimConfig {
                    commit_log: CommitLogConfig {
                        grain_log2,
                        shards,
                        ..CommitLogConfig::default()
                    },
                    ..SimConfig::with_cpus(2)
                },
            );
            assert!(result.parallel_cycles > 0);
        }
    }
}
