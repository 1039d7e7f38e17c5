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
//!
//! # What a replay costs
//!
//! Conflict detection asks the simulated commit log (`SimLog`) the
//! question the runtime asks its `CommitLog` — "was this range stamped
//! after my snapshot?" — and asks it the same way, by lookup:
//!
//! * the **publish index** keeps, per word, the latest publish time and,
//!   per range id, the latest `ring_depth` publish times.  That is
//!   exactly enough to decide a hit, a word hit, "at least `ring_depth`
//!   publishes since *t*" (a ring overflow) and the lowest conflicting
//!   region in one pass over a finished segment's reads
//!   (`Scheduler::check_reads`);
//! * the **reader registry** keeps, per range id, the live speculative
//!   fibers that read it, so a publish visits the readers of the ranges
//!   it stamps (`Scheduler::publish`) — never the fibers that have
//!   nothing to do with them, let alone the retired ones;
//! * footprints are ascending, duplicate-free address lists end to end:
//!   frozen per segment by the recorder, borrowed (not copied) by the
//!   scheduler, merged into a fiber's read and write sets, merged again
//!   into the joiner's when a speculative parent absorbs a child.
//!
//! So a segment costs O(reads + writes) and a publish O(writes +
//! registered readers of the stamped ranges), whatever the simulated CPU
//! count and however many fibers the run has spawned; the per-event
//! walks that remain (fossil horizon, commit contention, a regrain's
//! doom set) go over the live speculative fibers, at most one per CPU.
//! Fossil collection prunes index entries no in-flight or future reader
//! can count.  Under `cfg(test)` the log scan all of this replaced is
//! kept as the reference (`mod reference`) and every verdict is computed
//! both ways and compared.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mutls_adaptive::{
    ForkDecision, Governor, GovernorConfig, GrainControlConfig, GrainController, SiteOutcome,
};
use mutls_membuf::{
    region_log2_for_grain, Addr, CommitLogConfig, CommitLogStats, RegionProfile, SpecFailure,
};
use mutls_metrics::{MetricsConfig, MetricsSeries, MetricsSnapshot, Registry};
use mutls_runtime::ledger::{self, Books, Point};
use mutls_runtime::{
    ForkModel, Phase, RunReport, RunTotals, RuntimeConfig, ThreadCounters, ThreadStats,
};
use mutls_trace::{
    DenyPolicy, DoomSource, EventKind, LatencyRecorder, PlanArm, TraceEvent, ValidateOutcome,
};

use crate::cost::CostModel;
use crate::record::{NodeId, Recording, Segment, SimEvent};
use crate::simlog::{DetMap, SimLog};

/// Pops between fossil collections of the simulated log.
const FOSSIL_SWEEP_POPS: u64 = 64;

/// What was published under a finished speculative segment's reads while
/// it executed.
#[derive(Debug, Default, PartialEq, Eq)]
struct ReadVerdict {
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

/// One published word meeting one registered reader of its range.
#[derive(Debug, Clone, Copy)]
struct Touch {
    fid: usize,
    /// The fiber read this very word.
    word: bool,
    /// The fiber read the word's range, and the publish overflows the
    /// range's version ring as seen from the fiber's start.
    overflow: bool,
    /// Region of the published word.
    region: u64,
}

/// What one publish does to one in-flight reader of the ranges it stamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PublishVerdict {
    /// Already doomed as suspected false sharing, and the batch wrote a
    /// word it actually read: the doom is genuine after all (the native
    /// classifier re-checks every read value at join time).
    Genuine,
    /// The batch stamped a range the fiber read, but the version ring's
    /// footprint proves every published word missed its actual reads: it
    /// survives undoomed, with no value re-read and no join-time retry.
    PrecisePass,
    /// Doomed.  `false_sharing`: no word it read was written (range-only).
    /// `ring_overflow`: range-only, and more publishes hit the range since
    /// the fiber started than the ring holds, which is what forced the
    /// conservative doom.  `region`: lowest region of the conflicting
    /// writes.
    Doom {
        false_sharing: bool,
        ring_overflow: bool,
        region: u64,
    },
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
    /// Read and write sets of a *speculative* fiber (the non-speculative
    /// thread publishes at once and validates nothing, so its sets stay
    /// empty): ascending and duplicate-free, like the segment footprints
    /// they are merged from.  Released at retirement.
    reads: Vec<Addr>,
    writes: Vec<Addr>,
    /// Region-prefixed commit-log range ids covering `reads` (see
    /// `Scheduler::range_at`) — the grain conflicts are detected at.
    /// Ascending and duplicate-free.
    read_ranges: Vec<u64>,
    /// Range ids the fiber is registered as a reader of besides
    /// `read_ranges`: after a regrain, the new-grain ranges of the words
    /// it had already read.
    regrained_ranges: Vec<u64>,
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
    child_fibers: DetMap<NodeId, usize>,
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
            reads: Vec::new(),
            writes: Vec::new(),
            read_ranges: Vec::new(),
            regrained_ranges: Vec::new(),
            doomed: None,
            doomed_false_sharing: false,
            conflict_region: None,
            retried: false,
            waiter: None,
            blocked_since: 0,
            finished: None,
            seg_in_flight: false,
            stop_requested: false,
            child_fibers: DetMap::default(),
            pending_join: None,
            retired: false,
        }
    }
}

/// The replay's books (see [`ledger`]): it tells time in virtual cycles,
/// its causal epoch is the publishes so far — the clock the native
/// recorder reads off the commit log — and its events go to a `Vec`, in
/// emission order.
struct SimBooks {
    /// `None` unless events are kept ([`SimConfig::trace`]).
    events: Option<Vec<TraceEvent>>,
    /// Always-on phase-latency histograms (virtual cycles as "ns").
    latency: LatencyRecorder,
    /// Disabled (the default) every push is one always-false branch.
    registry: Registry,
}

impl Books for SimBooks {
    type At = (u64, u64);

    fn registry(&self) -> &Registry {
        &self.registry
    }

    fn latency(&self) -> &LatencyRecorder {
        &self.latency
    }

    fn keep(&mut self, (ts, epoch): (u64, u64), rank: u32, site: u32, kind: EventKind) {
        if let Some(events) = &mut self.events {
            events.push(TraceEvent {
                ts,
                rank,
                site,
                epoch,
                kind,
            });
        }
    }
}

/// Discrete-event scheduler.
pub struct Scheduler<'a> {
    recording: &'a Recording,
    config: SimConfig,
    fibers: Vec<Fiber>,
    /// The speculative fibers not yet retired, in spawn order — at most
    /// one per virtual CPU, however many fibers the run has spawned.
    live: Vec<usize>,
    /// Speculative fibers cancelled by a cascading rollback before they
    /// stopped.  They never finish, and the commit contention model has
    /// always counted every unfinished speculative fiber — so they stay
    /// potential contenders, with their buffered writes, to the end.
    cancelled_in_flight: Vec<usize>,
    queue: BinaryHeap<Reverse<(u64, u64, usize)>>,
    queue_seq: u64,
    cpu_free: Vec<bool>,
    most_speculative: Option<usize>,
    active_speculative: usize,
    rng: SmallRng,
    /// The retired speculative fibers, folded as the runtime folds its
    /// joined threads.
    totals: RunTotals,
    /// The simulated commit log.  Publish times by word and by range id
    /// are what conflict detection looks up: ranges are stamped at the
    /// publisher's current per-region grain, and word-level overlap is
    /// always checked in addition, so a true conflict is never missed
    /// even when a regrain lands between the publish and the reader's
    /// check.  Its reader registry mirrors the native log's per-range
    /// reader sets (`CommitLog::take_readers`): every live speculative
    /// fiber sits under its `read_ranges` (and `regrained_ranges`), so a
    /// publish visits the readers of the ranges it stamps and nobody
    /// else.  Pruned by fossil collection.
    log: SimLog,
    /// The log the index replaced, kept as the tests' reference: every
    /// verdict looked up is also searched for the way it used to be.
    #[cfg(test)]
    publishes: Vec<reference::PubEntry>,
    /// Adaptive speculation governor (per-site profiling + fork policy).
    governor: Governor,
    /// Log2 of the grain-control region size (mirrors the native log).
    region_log2: u32,
    /// Grain of the regions absent from `grains`: the controller's
    /// initial grain, or the floor grain when control is disabled.
    default_grain: u32,
    /// Live grain per regrained region.
    grains: DetMap<u64, u32>,
    /// Per-region telemetry: (stamps, conflicts, false sharing, retries),
    /// cumulative — the controller differences ticks itself.
    region_telemetry: DetMap<u64, [u64; 4]>,
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
    /// Where lifecycle points are written down.
    books: SimBooks,
    /// Events popped so far (the fossil-collection clock).
    pop_count: u64,
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
            live: Vec::new(),
            cancelled_in_flight: Vec::new(),
            queue: BinaryHeap::new(),
            queue_seq: 0,
            cpu_free: vec![true; num_cpus],
            most_speculative: None,
            active_speculative: 0,
            rng,
            totals: RunTotals::default(),
            log: SimLog::new(config.commit_log.ring_depth),
            #[cfg(test)]
            publishes: Vec::new(),
            governor,
            region_log2,
            default_grain,
            grains: DetMap::default(),
            region_telemetry: DetMap::default(),
            grain_controller,
            publish_count: 0,
            sim_commits: 0,
            sim_stamps: 0,
            sim_regrains: 0,
            sim_cas_retries: 0,
            sim_ring_overflows: 0,
            books: SimBooks {
                events: config.trace.then(Vec::new),
                latency: LatencyRecorder::new(),
                registry: Registry::new(config.metrics, 1),
            },
            pop_count: 0,
            metrics_series: MetricsSeries::new(config.metrics.series_capacity),
            next_metrics_tick: config.metrics.sim_cadence_cycles.max(1),
            config,
        }
    }

    /// Write `point`, reached at virtual time `ts`, down in the books of
    /// fiber `fid` (see [`ledger::observe`]); the event, if the point has
    /// one, goes on `lane` = (rank, site).
    fn observe(&mut self, ts: u64, lane: (u32, u32), fid: usize, point: Point) {
        let counters = &mut self.fibers[fid].stats.counters;
        let at = (ts, self.sim_commits);
        ledger::observe(&mut self.books, at, lane.0, lane.1, counters, point);
    }

    /// The lane of fiber `fid`'s own events: its CPU and its fork site.
    fn lane_of(&self, fid: usize) -> (u32, u32) {
        (self.fibers[fid].cpu as u32, self.fibers[fid].site)
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

    /// One [`MetricsSnapshot`] at virtual timestamp `ts`, through the
    /// scrape the native runtime uses.
    fn scrape_metrics(&self, ts: u64) -> MetricsSnapshot {
        let census: Vec<(u32, u64)> = self.grain_census().into_iter().collect();
        ledger::scrape(
            &self.books,
            ts,
            &self.log_stats(),
            &self.governor.snapshot(),
            &census,
        )
    }

    /// Simulated log traffic: publish batches, range stamps at the live
    /// per-region grains, and controller regrains.
    fn log_stats(&self) -> CommitLogStats {
        CommitLogStats {
            commits: self.sim_commits,
            stamp_writes: self.sim_stamps,
            // A wall-clock quantity.
            lock_ns: 0,
            cas_retries: self.sim_cas_retries,
            regrains: self.sim_regrains,
            // The simulator models reader tracking abstractly and never
            // spills past the bitmask window.
            reader_spills: 0,
            ring_overflows: self.sim_ring_overflows,
            grain_log2: self.config.commit_log.grain_log2,
            shards: self.config.commit_log.shards,
            ring_depth: self.config.commit_log.ring_depth,
        }
    }

    /// Census of the live per-region grains over touched regions — what
    /// the (simulated) grain controller converged to.  A BTreeMap, because
    /// the iteration order of a hash map must not reach a serialized
    /// report or series.
    fn grain_census(&self) -> BTreeMap<u32, u64> {
        let mut census = BTreeMap::new();
        for &region in self.region_telemetry.keys() {
            *census.entry(self.grain_of_region(region)).or_insert(0) += 1;
        }
        census
    }

    /// Prune the publish-index entries no live speculative reader — and
    /// no future one, since fibers fork with `start_time >=` the current
    /// pop time — can ever count.  Every lookup asks for publishes
    /// strictly after a threshold `>= start_time`, so entries at or below
    /// the horizon (the minimum `start_time` over live speculative fibers,
    /// capped by the pop clock) are fossils.
    fn fossil_collect(&mut self, now: u64) {
        let horizon = self
            .live
            .iter()
            .map(|&fid| self.fibers[fid].start_time)
            .fold(now, u64::min);
        self.log.prune(horizon);
        #[cfg(test)]
        self.fossil_collect_log(now, horizon);
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
        let report = RunReport {
            critical: self.fibers[0].stats.clone(),
            commit_log: self.log_stats(),
            region_grains: self.grain_census().into_iter().collect(),
            sites: self.governor.snapshot(),
            latency: self.books.latency.report(),
            runtime,
            speculative: self.totals.speculative,
            committed_threads: self.totals.committed,
            rolled_back_threads: self.totals.rolled_back,
            retried_threads: self.totals.retried,
            rollback_reasons: self.totals.by_reason,
        };
        SimResult {
            report,
            sequential_cycles: Self::sequential_cycles(self.recording, &self.config.cost),
            parallel_cycles: runtime,
            tasks: self.recording.task_count(),
            events: self.books.events.unwrap_or_default(),
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
        let fid = self.fibers.len();
        self.fibers
            .push(Fiber::new(cpu, speculative, node, start, site, model));
        if speculative {
            self.live.push(fid);
        }
        fid
    }

    fn schedule(&mut self, fid: usize, time: u64) {
        self.queue_seq += 1;
        self.queue.push(Reverse((time, self.queue_seq, fid)));
    }

    /// Publish a set of written addresses to main memory at `time`,
    /// dooming any in-flight speculative fiber that already read a
    /// commit-log *range* the batch stamps (at word grain this is exact;
    /// coarser grains add false sharing but never miss a conflict).  The
    /// publish is also entered in the index so that reads registered later
    /// (at segment completion) can be checked against it.
    ///
    /// The newly doomed fibers (the registered readers of the stamped
    /// ranges) are additionally asked to **stop at their next check
    /// point** instead of burning their whole conflict window; the
    /// returned cycles are the writer's doom-signalling cost
    /// (`CostModel::doom_signal` per victim), which the caller adds to
    /// the writer's clock.  `writes` is ascending, like every footprint.
    fn publish(&mut self, writes: &[Addr], time: u64, writer: usize) -> u64 {
        if writes.is_empty() {
            return 0;
        }
        debug_assert!(writes.is_sorted());
        // Coarsen at each write's *current per-region* grain, counting the
        // simulated stamp traffic (one stamp per distinct range — the
        // column a coarser grain shrinks) and the per-region telemetry
        // the grain controller runs on, and visit the registered readers
        // of every stamped range.
        let mvcc = self.mvcc();
        let ring_depth = self.config.commit_log.ring_depth as usize;
        let mut ranges: Vec<u64> = Vec::new();
        let mut touches: Vec<Touch> = Vec::new();
        self.sim_commits += 1;
        for &w in writes {
            let (range, region) = (self.range_at(w), w >> self.region_log2);
            // Range ids ascend with the address, so a repeat is adjacent.
            if ranges.last() != Some(&range) {
                ranges.push(range);
                self.sim_stamps += 1;
                self.region_telemetry.entry(region).or_default()[0] += 1;
            }
            for &fid in self.log.readers(range) {
                let fiber = &self.fibers[fid];
                if fid == writer || fiber.start_time >= time {
                    continue;
                }
                // Word overlap is checked in addition to range overlap so
                // a true conflict is never missed even if a regrain
                // re-indexed the ranges between the read and this publish
                // (the registry then holds the fiber under both ids).
                let word = fiber.reads.binary_search(&w).is_ok();
                let ranged = fiber.read_ranges.binary_search(&range).is_ok();
                if !word && !ranged {
                    continue;
                }
                // Ring overflow: more publishes into the range than the
                // ring holds since the fiber started — the sim's publish
                // times stand in for the shard version, a conservative
                // proxy for the entry's read stamp.
                let overflow = mvcc
                    && ranged
                    && self.log.range_since(range, fiber.start_time) + 1 >= ring_depth;
                touches.push(Touch {
                    fid,
                    word,
                    overflow,
                    region,
                });
            }
        }
        let verdicts = self.publish_verdicts(touches);
        #[cfg(test)]
        {
            assert_eq!(
                verdicts,
                self.publish_verdicts_by_scan(writes, &ranges, time, writer)
            );
            self.publishes.push(reference::PubEntry {
                time,
                words: writes.to_vec(),
                ranges: ranges.clone(),
            });
        }
        self.log.record(time, writes, &ranges);

        let mut newly_doomed: Vec<usize> = Vec::new();
        for (fid, verdict) in verdicts {
            let fiber = &mut self.fibers[fid];
            match verdict {
                PublishVerdict::Genuine => fiber.doomed_false_sharing = false,
                PublishVerdict::PrecisePass => {
                    self.observe(time, self.lane_of(fid), fid, Point::PrecisePasses(1));
                }
                PublishVerdict::Doom {
                    false_sharing,
                    ring_overflow,
                    region,
                } => {
                    fiber.doomed = Some(SpecFailure::ReadConflict);
                    fiber.doomed_false_sharing = false_sharing;
                    fiber.conflict_region = Some(region);
                    self.sim_ring_overflows += u64::from(ring_overflow);
                    // Mirror the native in-flight retry: a false-sharing
                    // victim re-validates by value and keeps running (it
                    // retries at its join), so only genuinely stale
                    // readers are stopped early.
                    if !false_sharing {
                        newly_doomed.push(fid);
                    }
                }
            }
        }
        let victims = newly_doomed.len() as u64;
        let mut cost = self.config.cost.doom_cycles(victims);
        let source = DoomSource::Commit;
        let doomed = Point::Doomed { source, victims };
        self.observe(time, self.lane_of(writer), writer, doomed);
        for fid in newly_doomed {
            self.request_stop(fid, time);
        }
        self.publish_count += 1;
        cost += self.tick_grain_controller(time);
        cost
    }

    /// Fold the (write, registered reader) touches of one publish into one
    /// verdict per touched fiber, in ascending fiber order — the order the
    /// victims are stopped in, hence part of the deterministic replay.
    fn publish_verdicts(&self, mut touches: Vec<Touch>) -> Vec<(usize, PublishVerdict)> {
        touches.sort_unstable_by_key(|t| t.fid);
        let mut verdicts = Vec::new();
        for group in touches.chunk_by(|a, b| a.fid == b.fid) {
            let fid = group[0].fid;
            let word_hit = group.iter().any(|t| t.word);
            let fiber = &self.fibers[fid];
            let verdict = if fiber.doomed.is_some() {
                if !(fiber.doomed_false_sharing && word_hit) {
                    continue;
                }
                PublishVerdict::Genuine
            } else {
                let range_only = self.mvcc() && !word_hit;
                let ring_overflow = range_only && group.iter().any(|t| t.overflow);
                if range_only && !ring_overflow {
                    PublishVerdict::PrecisePass
                } else {
                    PublishVerdict::Doom {
                        false_sharing: !word_hit,
                        ring_overflow,
                        // Lowest, not first: the unstable sort leaves a
                        // fiber's touches in no particular order.
                        region: group.iter().map(|t| t.region).min().expect("non-empty"),
                    }
                }
            };
            verdicts.push((fid, verdict));
        }
        verdicts
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
        // native recorder's dedicated grain-controller lane; it has no
        // thread, hence no counters.
        let control = |sched: &mut Self, point| {
            let at = (time, sched.sim_commits);
            let lane = (sched.config.num_cpus + 1) as u32;
            let nobody = &mut ThreadCounters::default();
            ledger::observe(&mut sched.books, at, lane, 0, nobody, point);
        };
        let action_count = actions.len() as u32;
        let slots_per_region = 1u64 << (self.region_log2 - floor);
        let mut cost = 0;
        let mut doomed = 0u64;
        for action in actions {
            let from = self.grain_of_region(action.region);
            self.grains.insert(action.region, action.new_grain_log2);
            self.sim_regrains += 1;
            cost += self.config.cost.regrain_cycles(slots_per_region);
            let (region, to) = (action.region, action.new_grain_log2);
            control(self, Point::Regrained { region, from, to });
            // The native regrain stamps the whole region and dooms its
            // registered readers; mirror it by dooming every in-flight
            // speculative fiber with a read in the region.  The doom is
            // range-induced (no word was actually written), so value
            // prediction clears it at the join.
            let mut doomed_here = 0u64;
            for i in 0..self.live.len() {
                let fid = self.live[i];
                let fiber = &self.fibers[fid];
                // The new-grain ranges of its reads in the region.
                let mut regrained: Vec<u64> = fiber
                    .reads
                    .iter()
                    .filter(|&&a| a >> self.region_log2 == action.region)
                    .map(|&a| self.range_at(a))
                    .collect();
                if regrained.is_empty() {
                    continue;
                }
                regrained.dedup();
                // `read_ranges` keeps the ids the reads were registered
                // under; also enter the fiber under the new ones, so a
                // later publish of a word it read still finds it.
                for range in regrained {
                    let fiber = &mut self.fibers[fid];
                    if fiber.read_ranges.binary_search(&range).is_err()
                        && !fiber.regrained_ranges.contains(&range)
                    {
                        fiber.regrained_ranges.push(range);
                        self.log.register(range, fid);
                    }
                }
                let fiber = &mut self.fibers[fid];
                if fiber.doomed.is_none() && fiber.start_time < time {
                    fiber.doomed = Some(SpecFailure::ReadConflict);
                    fiber.doomed_false_sharing = true;
                    fiber.conflict_region = Some(action.region);
                    doomed_here += 1;
                }
            }
            doomed += doomed_here;
            let (source, victims) = (DoomSource::Regrain, doomed_here);
            control(self, Point::Doomed { source, victims });
        }
        control(self, Point::GrainTicked(action_count));
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
            let recording: &'a Recording = self.recording;
            let events = &recording.nodes[frame.node].events;
            if frame.ip >= events.len() {
                if self.fibers[fid].frames.len() > 1 {
                    self.fibers[fid].frames.pop();
                    continue;
                }
                self.finish_fiber(fid);
                return;
            }
            match events[frame.ip] {
                SimEvent::Seg(ref seg) => {
                    let start = self.fibers[fid].time;
                    let end = start + self.segment_cycles(seg, self.fibers[fid].speculative);
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

    /// Virtual cycles `seg` costs at speculative or critical pricing.
    fn segment_cycles(&self, seg: &Segment, speculative: bool) -> u64 {
        let cost = &self.config.cost;
        if speculative {
            cost.segment_cycles_speculative(seg.work, seg.loads, seg.stores)
        } else {
            cost.segment_cycles(seg.work, seg.loads, seg.stores)
        }
    }

    /// The conflict verdicts of everything published after `since` under
    /// `reads` (a segment's sorted footprint), coarsened at the live
    /// grains: one index lookup per read and one per distinct range.
    fn check_reads(&self, reads: &[Addr], since: u64) -> ReadVerdict {
        let ring_depth = self.config.commit_log.ring_depth as usize;
        let mut verdict = ReadVerdict::default();
        // Sorted reads visit a range's words back to back.
        let mut last: Option<(u64, usize)> = None;
        for &a in reads {
            let range = self.range_at(a);
            let stamps = match last {
                Some((r, stamps)) if r == range => stamps,
                _ => self.log.range_since(range, since),
            };
            last = Some((range, stamps));
            let word = self.log.word_since(a, since);
            if word || stamps > 0 {
                verdict.hit = true;
                verdict.word_hit |= word;
                // Conservative ring-overflow probe (only consulted on the
                // range-only path).
                verdict.overflow |= stamps >= ring_depth;
                // Ascending reads: the first conflicting one is in the
                // lowest conflicting region.
                verdict.region.get_or_insert(a >> self.region_log2);
            }
        }
        verdict.overflow &= self.mvcc() && !verdict.word_hit;
        verdict
    }

    /// Merge the ascending `addrs` into speculative fiber `fid`'s read set
    /// — except what it wrote first — coarsened at the live grains, and
    /// enter it in the reader registry under every range new to it.
    fn register_reads(&mut self, fid: usize, addrs: &[Addr]) {
        let writes = &self.fibers[fid].writes;
        let unwritten: Vec<Addr>;
        let fresh = if writes.is_empty() {
            addrs
        } else {
            unwritten = addrs
                .iter()
                .copied()
                .filter(|a| writes.binary_search(a).is_err())
                .collect();
            &unwritten
        };
        // Range ids ascend with the address: sorted, repeats adjacent.
        let mut ranges: Vec<u64> = Vec::new();
        for &a in fresh {
            let range = self.range_at(a);
            if ranges.last() != Some(&range) {
                ranges.push(range);
            }
        }
        let fiber = &mut self.fibers[fid];
        merge_sorted(&mut fiber.reads, fresh, |_| {});
        merge_sorted(&mut fiber.read_ranges, &ranges, |range| {
            // A regrain may have entered the fiber under this id already.
            match fiber.regrained_ranges.iter().position(|&r| r == range) {
                Some(at) => drop(fiber.regrained_ranges.swap_remove(at)),
                None => self.log.register(range, fid),
            }
        });
    }

    fn apply_segment_effects(&mut self, fid: usize) {
        let frame = *self.fibers[fid].frames.last().expect("frame present");
        let recording: &'a Recording = self.recording;
        if let SimEvent::Seg(seg) = &recording.nodes[frame.node].events[frame.ip] {
            let speculative = self.fibers[fid].speculative;
            let cycles = self.segment_cycles(seg, speculative);
            let fiber = &mut self.fibers[fid];
            fiber.stats.counters.loads += seg.loads;
            fiber.stats.counters.stores += seg.stores;
            fiber.stats.add(Phase::Work, cycles);
            if speculative {
                // The reads of this segment are checked against anything
                // published to main memory while the segment executed —
                // range-grained like the in-flight doom check, with the
                // word-level overlap checked too so a regrain between the
                // publish and this check can never hide a true conflict.
                let fx = self.check_reads(&seg.reads, self.fibers[fid].segment_started);
                #[cfg(test)]
                assert_eq!(
                    fx,
                    self.check_reads_by_scan(&seg.reads, self.fibers[fid].segment_started)
                );
                self.register_reads(fid, &seg.reads);
                merge_sorted(&mut self.fibers[fid].writes, &seg.writes, |_| {});
                if fx.hit {
                    let word_hit = fx.word_hit;
                    // mvcc precise validation for late-registered reads:
                    // a range-only hit whose publishes all still fit in
                    // the range's version ring is proven word-disjoint by
                    // the footprints — a precise pass, not a doom.
                    let range_only = self.mvcc() && !word_hit && self.fibers[fid].doomed.is_none();
                    let overflow = range_only && fx.overflow;
                    if range_only && !overflow {
                        let now = self.fibers[fid].time;
                        self.observe(now, self.lane_of(fid), fid, Point::PrecisePasses(1));
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
                let time = self.fibers[fid].time;
                let doom_cost = self.publish(&seg.writes, time, fid);
                self.fibers[fid].time += doom_cost;
            }
        }
        self.fibers[fid].seg_in_flight = false;
        self.bump_ip(fid);
    }

    fn process_fork(&mut self, fid: usize, child: NodeId, recorded_model: ForkModel, point: u32) {
        let forker = (self.fibers[fid].cpu as u32, point);
        let now = self.fibers[fid].time;
        self.observe(now, forker, fid, Point::ForkAttempt);
        // Mirror the native recovery engine: a speculative fiber
        // executing a rollback-inherited frame may not re-speculate (its
        // children would read underneath the uncommitted overlay); the
        // re-execution stays inline.
        if self.fibers[fid].speculative && self.fibers[fid].frames.iter().any(|f| f.reexec) {
            self.observe(now, forker, fid, Point::ForkDenied(DenyPolicy::Reexec));
            return;
        }
        let requested = self.config.fork_model.unwrap_or(recorded_model);
        let cost = self.config.cost;

        // The governor may suppress the fork or pick a per-site model; a
        // denial is decided before any fork overhead is spent, exactly as
        // in the native runtime.
        let decision = self.governor.decide(point, requested);
        let allowed = decision != ForkDecision::Deny;
        self.observe(now, forker, fid, Point::GovernorRuled(allowed));
        let ForkDecision::Allow(model) = decision else {
            return;
        };

        // Scanning for an idle CPU costs time on the forker.
        self.fibers[fid].time += cost.find_cpu;
        self.fibers[fid].stats.add(Phase::FindCpu, cost.find_cpu);

        let now = self.fibers[fid].time;
        let cpu = if self.fork_allowed(fid, model) {
            self.acquire_cpu().ok_or(DenyPolicy::NoCpu)
        } else {
            Err(DenyPolicy::Model)
        };
        let cpu = match cpu {
            Ok(cpu) => cpu,
            Err(policy) => return self.observe(now, forker, fid, Point::ForkDenied(policy)),
        };
        self.fibers[fid].time += cost.fork;
        self.fibers[fid].stats.add(Phase::Fork, cost.fork);

        let start = self.fibers[fid].time + cost.spawn_latency;
        let child_fiber = self.spawn_fiber(child, true, cpu, start, point, model);
        self.observe(start, forker, fid, Point::SpecStart(cpu as u32));
        self.governor.record_fork(point);
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
        let (child, joiner) = (self.lane_of(cf), self.lane_of(fid));
        let ranges = read_ranges as u32;
        self.observe(now, child, cf, Point::ValidateBegin(ranges));
        let validation = cost.validation_cycles_grained(read_words, read_ranges);
        self.fibers[cf].stats.add(Phase::Validation, validation);
        self.fibers[fid].stats.add(Phase::Idle, validation);
        now += validation;

        let mut retry = None;
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
                let cycles = cost.retry_cycles(read_words);
                self.fibers[cf].stats.add(Phase::Validation, cycles);
                self.fibers[fid].stats.add(Phase::Idle, cycles);
                now += cycles;
                retry = Some(cycles);
                self.fibers[cf].retried = true;
                self.fibers[cf].doomed = None;
                self.fibers[cf].doomed_false_sharing = false;
                // Grain-control telemetry: a retry is a conflict the
                // current grain made cheap — split evidence.
                if let Some(region) = self.fibers[cf].conflict_region.take() {
                    self.region_telemetry.entry(region).or_default()[3] += 1;
                }
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
            let cycles = cost.ring_probe_cycles(precise);
            self.fibers[cf].stats.add(Phase::Validation, cycles);
            self.fibers[fid].stats.add(Phase::Idle, cycles);
            now += cycles;
            self.observe(now, child, cf, Point::RingProbesPriced(cycles));
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
        let validated = Point::Validated {
            outcome,
            took: validation,
            retry,
        };
        self.observe(now, child, cf, validated);

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
                    let shard_of = |w: &Addr| (w >> self.region_log2) & shard_mask;
                    let mut shards: Vec<u64> =
                        self.fibers[cf].writes.iter().map(shard_of).collect();
                    shards.sort_unstable();
                    shards.dedup();
                    // Deterministic contention model: every *other*
                    // unfinished speculative fiber whose buffered writes
                    // map into a touched shard is one potential
                    // same-shard contender, costing this batch one CAS
                    // retry.  Disjoint-shard committers stay free — the
                    // whole point of the CAS-published slots.
                    let contenders = self
                        .live
                        .iter()
                        .chain(&self.cancelled_in_flight)
                        .map(|&i| &self.fibers[i])
                        .filter(|f| f.finished.is_none())
                        .filter(|f| f.writes.iter().any(|w| shards.contains(&shard_of(w))))
                        .count() as u64;
                    #[cfg(test)]
                    assert_eq!(contenders, self.contenders_by_scan(cf, fid, &shards));
                    contenders
                };
                if cas_attempts > 0 {
                    self.sim_cas_retries += cas_attempts;
                    let attempts = cas_attempts;
                    self.observe(now, child, cf, Point::CommitCasRetried(attempts));
                }
                let commit = cost.commit_cycles(write_words) + cost.cas_retry_cycles(cas_attempts);
                self.fibers[cf].stats.add(Phase::Commit, commit);
                self.fibers[cf].stats.add(Phase::Finalize, finalize);
                self.fibers[fid].stats.add(Phase::Idle, commit + finalize);
                now += commit + finalize;

                let child_writes = self.fibers[cf].writes.clone();
                if self.fibers[fid].speculative {
                    // Absorb into the speculative parent.
                    let child_reads = self.fibers[cf].reads.clone();
                    self.register_reads(fid, &child_reads);
                    merge_sorted(&mut self.fibers[fid].writes, &child_writes, |_| {});
                } else {
                    now += self.publish(&child_writes, now, cf);
                }
                let committed = Point::Committed {
                    retried: self.fibers[cf].retried,
                    since_fork: now.saturating_sub(self.fibers[cf].start_time),
                };
                self.observe(now, child, cf, committed);
                self.observe(now, joiner, fid, Point::JoinCommitted);

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
                self.observe(now, child, cf, Point::RolledBack { reason, plan });
                // The join-side repair work is the buffer discard plus the
                // re-execution frame push, both priced by `finalize`.
                let repair = finalize;
                self.observe(now, joiner, fid, Point::JoinRolledBack { reason, repair });
                // Cascading rollback confined to the child's subtree: every
                // speculative thread it spawned (and has not joined) is
                // discarded too.
                let grandchildren: Vec<usize> = self.fibers[cf]
                    .child_fibers
                    .drain()
                    .map(|(_, f)| f)
                    .collect();
                for gf in grandchildren {
                    self.cancel_subtree(gf, now);
                }
                if let Some(gc) = self.fibers[cf].pending_join.take() {
                    self.cancel_subtree(gc, now);
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

    /// Cancel a speculative fiber and its whole subtree at `now` (cascading
    /// rollback).  Their work is wasted and their CPUs are reclaimed.
    fn cancel_subtree(&mut self, fid: usize, now: u64) {
        if self.fibers[fid].retired {
            return;
        }
        let grandchildren: Vec<usize> = self.fibers[fid]
            .child_fibers
            .drain()
            .map(|(_, f)| f)
            .collect();
        for gf in grandchildren {
            self.cancel_subtree(gf, now);
        }
        if let Some(gc) = self.fibers[fid].pending_join.take() {
            self.cancel_subtree(gc, now);
        }
        // Counted under what doomed it, if anything had.
        let blamed = self.fibers[fid].doomed.unwrap_or(SpecFailure::Cascaded);
        self.observe(now, self.lane_of(fid), fid, Point::Cascaded(blamed));
        self.retire_fiber(fid, false);
    }

    fn retire_fiber(&mut self, cf: usize, committed: bool) {
        if self.fibers[cf].retired {
            return;
        }
        self.fibers[cf].retired = true;
        self.live.retain(|&f| f != cf);
        debug_assert!(self.fibers[cf].speculative, "the root never retires");
        let stats = &mut self.fibers[cf].stats;
        let retired = Point::Retired {
            committed,
            cycles: if committed {
                stats.get(Phase::Work)
            } else {
                stats.mark_work_wasted()
            },
            total: stats.total(),
        };
        self.observe(self.fibers[cf].time, self.lane_of(cf), cf, retired);
        let fiber = &self.fibers[cf];
        // Live grain of the fiber's traffic for the per-site grain column,
        // taken at its lowest written — else read — address.
        let observed_grain = fiber
            .writes
            .first()
            .or(fiber.reads.first())
            .map(|&a| self.grain_at(a))
            .unwrap_or(self.config.commit_log.grain_log2);
        let idle = fiber.stats.get(Phase::Idle);
        let fate = if committed {
            Ok(fiber.retried)
        } else {
            Err(fiber.doomed.unwrap_or(SpecFailure::Cascaded))
        };
        let outcome = match fate {
            Ok(retried) => SiteOutcome::committed(fiber.stats.get(Phase::Work), idle, fiber.model)
                .with_retry(retried),
            Err(reason) => {
                let wasted = fiber.stats.get(Phase::WastedWork);
                SiteOutcome::rolled_back(reason, wasted, idle, fiber.model).with_false_sharing(
                    reason == SpecFailure::ReadConflict && fiber.doomed_false_sharing,
                )
            }
        };
        self.governor
            .record_outcome(fiber.site, &outcome.with_grain(observed_grain));
        self.totals.fold(&fiber.stats, fate);
        // Leave the reader registry and release the footprint: nothing
        // looks at a retired fiber's sets — except the contention model at
        // the writes of one cancelled in flight.
        let fiber = &mut self.fibers[cf];
        fiber.reads = Vec::new();
        let registered = std::mem::take(&mut fiber.read_ranges)
            .into_iter()
            .chain(std::mem::take(&mut fiber.regrained_ranges));
        for range in registered {
            self.log.unregister(range, cf);
        }
        if fiber.finished.is_some() {
            fiber.writes = Vec::new();
        } else if fiber.speculative {
            self.cancelled_in_flight.push(cf);
        }
        let cpu = fiber.cpu;
        self.release_cpu(cpu);
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

/// The publish log the index replaced, the scans over it and the
/// all-fiber loops the live list replaced, as they were: the reference
/// every looked-up verdict is compared against in this crate's tests.
#[cfg(test)]
mod reference {
    use super::*;

    /// One published write batch: the commit time, the written word
    /// addresses, and the range ids stamped at the publisher's live grains.
    #[derive(Debug, Clone)]
    pub(super) struct PubEntry {
        pub(super) time: u64,
        pub(super) words: Vec<Addr>,
        pub(super) ranges: Vec<u64>,
    }

    impl Scheduler<'_> {
        /// Drop the leading run of entries at or below the horizon.
        pub(super) fn fossil_collect_log(&mut self, now: u64, horizon: u64) {
            let mut scanned = now;
            for fiber in &self.fibers {
                if fiber.speculative && !fiber.retired {
                    scanned = scanned.min(fiber.start_time);
                }
            }
            assert_eq!(horizon, scanned);
            let dead = self
                .publishes
                .iter()
                .take_while(|e| e.time <= horizon)
                .count();
            self.publishes.drain(..dead);
        }

        pub(super) fn check_reads_by_scan(
            &self,
            seg_reads: &[Addr],
            seg_start: u64,
        ) -> ReadVerdict {
            let entries = &self.publishes;
            let reads: Vec<(Addr, u64)> =
                seg_reads.iter().map(|&a| (a, self.range_at(a))).collect();
            let mut fx = ReadVerdict {
                hit: entries.iter().any(|e| {
                    e.time > seg_start
                        && reads
                            .iter()
                            .any(|(a, r)| e.words.contains(a) || e.ranges.contains(r))
                }),
                ..ReadVerdict::default()
            };
            if fx.hit {
                fx.word_hit = entries
                    .iter()
                    .any(|e| e.time > seg_start && seg_reads.iter().any(|a| e.words.contains(a)));
                if self.mvcc() && !fx.word_hit {
                    let ring_depth = self.config.commit_log.ring_depth as usize;
                    fx.overflow = reads.iter().any(|(_, r)| {
                        entries
                            .iter()
                            .filter(|e| e.time > seg_start && e.ranges.contains(r))
                            .count()
                            >= ring_depth
                    });
                }
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

        pub(super) fn publish_verdicts_by_scan(
            &self,
            writes: &[Addr],
            ranges: &[u64],
            time: u64,
            writer: usize,
        ) -> Vec<(usize, PublishVerdict)> {
            let ring_depth = self.config.commit_log.ring_depth as usize;
            let mut verdicts = Vec::new();
            for (fid, fiber) in self.fibers.iter().enumerate() {
                if fid == writer || !fiber.speculative || fiber.retired {
                    continue;
                }
                if fiber.start_time >= time {
                    continue;
                }
                let word_hit = writes.iter().any(|w| fiber.reads.contains(w));
                if fiber.doomed.is_some() {
                    if fiber.doomed_false_sharing && word_hit {
                        verdicts.push((fid, PublishVerdict::Genuine));
                    }
                    continue;
                }
                if !word_hit && !ranges.iter().any(|r| fiber.read_ranges.contains(r)) {
                    continue;
                }
                let mut ring_overflow = false;
                if self.mvcc() && !word_hit {
                    ring_overflow = fiber.read_ranges.iter().any(|r| {
                        ranges.contains(r)
                            && self
                                .publishes
                                .iter()
                                .filter(|e| e.time > fiber.start_time && e.ranges.contains(r))
                                .count()
                                + 1
                                >= ring_depth
                    });
                    if !ring_overflow {
                        verdicts.push((fid, PublishVerdict::PrecisePass));
                        continue;
                    }
                }
                let region = writes
                    .iter()
                    .filter(|w| {
                        fiber.reads.contains(w) || fiber.read_ranges.contains(&self.range_at(**w))
                    })
                    .map(|w| w >> self.region_log2)
                    .min()
                    .expect("a hit has a conflicting write");
                verdicts.push((
                    fid,
                    PublishVerdict::Doom {
                        false_sharing: !word_hit,
                        ring_overflow,
                        region,
                    },
                ));
            }
            verdicts
        }

        pub(super) fn contenders_by_scan(&self, cf: usize, fid: usize, shards: &[u64]) -> u64 {
            let shard_mask = (self.config.commit_log.shards as u64) - 1;
            self.fibers
                .iter()
                .enumerate()
                .filter(|&(i, f)| i != cf && i != fid && f.speculative && f.finished.is_none())
                .filter(|(_, f)| {
                    f.writes
                        .iter()
                        .any(|w| shards.contains(&((w >> self.region_log2) & shard_mask)))
                })
                .count() as u64
        }
    }
}

/// Merge the ascending, duplicate-free `add` into the ascending,
/// duplicate-free `into`; `on_new` sees every element `into` lacked.
fn merge_sorted(into: &mut Vec<u64>, add: &[u64], mut on_new: impl FnMut(u64)) {
    use std::cmp::Ordering;
    if add.is_empty() {
        return;
    }
    let old = std::mem::take(into);
    into.reserve(old.len() + add.len());
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < add.len() {
        match old[i].cmp(&add[j]) {
            Ordering::Less => {
                into.push(old[i]);
                i += 1;
            }
            Ordering::Equal => {
                into.push(old[i]);
                i += 1;
                j += 1;
            }
            Ordering::Greater => {
                into.push(add[j]);
                on_new(add[j]);
                j += 1;
            }
        }
    }
    into.extend_from_slice(&old[i..]);
    for &x in &add[j..] {
        into.push(x);
        on_new(x);
    }
}

/// Simulate `recording` under `config`.
pub fn simulate(recording: &Recording, config: SimConfig) -> SimResult {
    Scheduler::new(recording, config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record_region;
    use mutls_membuf::{GlobalMemory, RollbackReason};
    use mutls_runtime::{task, SpecResult, TlsContext};
    use mutls_trace::LatencyPhase;
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

    /// One step of a random speculative program over `cells`.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Load(usize),
        Store(usize),
        Work(u64),
        CheckPoint,
        /// Fork the continuation that starts this many ops ahead; the
        /// forker runs the ops in between and joins.
        Fork(usize),
    }

    /// Interpret `ops[from..to]`.  A fork splits the rest of the range
    /// into the forker's body and the child's continuation, and either
    /// half may fork again, so flat op lists yield chains, trees and
    /// everything between.
    fn run_ops<C: TlsContext>(
        ctx: &mut C,
        cells: mutls_membuf::GPtr<u64>,
        ops: &Arc<[Op]>,
        from: usize,
        to: usize,
    ) -> SpecResult<()> {
        for i in from..to {
            match ops[i] {
                Op::Load(word) => {
                    ctx.load(&cells, word)?;
                }
                Op::Store(word) => ctx.store(&cells, word, i as u64)?,
                Op::Work(units) => ctx.work(units)?,
                Op::CheckPoint => ctx.check_point()?,
                Op::Fork(ahead) => {
                    let split = (i + 1 + ahead).min(to);
                    let rest = Arc::clone(ops);
                    let cont = task(move |ctx: &mut C| run_ops(ctx, cells, &rest, split, to));
                    let handle = ctx.fork(i as u32 % 3, cont)?;
                    run_ops(ctx, cells, ops, i + 1, split)?;
                    ctx.join(handle)?;
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Index ≡ scan, live list ≡ all-fiber loop: random task trees with
    /// random footprints on six lines of two pages, replayed at word,
    /// line and page grain, ring depth 1, 2 and 4, with and without a grain
    /// controller regraining every few publishes.  The comparison itself
    /// is in the scheduler — under `cfg(test)` every `check_reads`,
    /// `publish`, contention count and fossil horizon is also computed the
    /// old way (`mod reference`) and asserted equal — so this test only
    /// has to reach the paths, and says which ones it reached.
    #[test]
    fn index_and_registry_agree_with_the_log_scan_on_random_task_trees() {
        use proptest::prelude::*;
        use proptest::strategy::Strategy;
        // Three lines at the start of each of two pages (= two regions).
        let word = (0usize..48).prop_map(|i| i % 24 + (i / 24) * 512);
        let op = (0u32..13, word, 1u64..40).prop_map(|(kind, word, n)| match kind {
            0..=3 => Op::Load(word),
            4..=7 => Op::Store(word),
            8 => Op::Work(n * 100),
            9..=10 => Op::CheckPoint,
            _ => Op::Fork(n as usize % 16),
        });
        let program = collection::vec(op, 8..96);
        let grains = [
            CommitLogConfig::word_grain(),
            CommitLogConfig::line_grain(),
            CommitLogConfig::page_grain(),
        ];
        let case = (program, (0usize..3, 0usize..3, 0u64..4, 1usize..7));

        let mut gen = proptest::test_runner::Gen::new(0x1D3A);
        let cases = proptest::cases();
        let [mut dooms, mut passes, mut overflows, mut retries, mut regrains, mut cascades] =
            [0u64; 6];
        for _ in 0..cases {
            let (ops, (grain, rings, tick_commits, cpus)) = case.generate(&mut gen);
            let ops: Arc<[Op]> = ops.into();
            let memory = Arc::new(GlobalMemory::new(1 << 14));
            let cells = memory.alloc::<u64>(1024);
            let recording = record_region(Arc::clone(&memory), |ctx| {
                run_ops(ctx, cells, &ops, 0, ops.len())
            });
            let config = || SimConfig {
                commit_log: grains[grain].ring_depth([1, 2, 4][rings]),
                grain_control: if tick_commits == 0 {
                    GrainControlConfig::default()
                } else {
                    GrainControlConfig::adaptive().tick_commits(tick_commits)
                },
                ..SimConfig::with_cpus(cpus)
            };
            let result = simulate(&recording, config());
            let again = simulate(&recording, config());
            assert_eq!(ser(&result.report), ser(&again.report));
            let report = &result.report;
            dooms += report.speculative.counters.targeted_dooms
                + report.critical.counters.targeted_dooms;
            passes += report.precise_passes();
            overflows += report.commit_log.ring_overflows;
            retries += report.retried_threads;
            regrains += report.commit_log.regrains;
            cascades += report.rollback_reasons[RollbackReason::Other.index()];
        }
        // At the default case count every verdict kind must have occurred.
        if cases >= proptest::CASES {
            let reached = [dooms, passes, overflows, retries, regrains, cascades];
            assert!(reached.iter().all(|&n| n > 0), "paths reached: {reached:?}");
        }
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
