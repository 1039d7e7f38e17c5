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
//! **early synchronization** at check points (`events.rs` opens with it)
//! and **conflict detection** (`conflict.rs`, with what a replay costs).
//!
//! This file holds the state — the [`Scheduler`], its fibers, its books and
//! the verdict vocabulary of the simulated log — and the run from `new` to
//! `finish`; one job per file beside it:
//!
//! * `config.rs` — [`SimConfig`] and [`SimResult`];
//! * `events.rs` — the event loop: segments, forks and joins of a fiber in
//!   virtual time, and stopping a child at its next check point;
//! * `conflict.rs` — publishing, the reads of a finished segment, the
//!   reader registry and fossil collection;
//! * `grain.rs` — the live per-region grains and the grain tick;
//! * `fork.rs` — a fork point: admission, the CPU, the new fiber;
//! * `join.rs` — a join: validation, retry, commit or rollback, the
//!   cascade, retirement;
//! * `books.rs` — the ledger's clock and lanes, the metrics series;
//! * `reference.rs` (tests) — the log scan the index replaced.
//!
//! What a fork, a join, a retirement, a grain tick and an injected draw
//! *decide* is `mutls_runtime::protocol`, which the native runtime calls
//! with its own facts; `fork.rs`, `join.rs` and `grain.rs` gather the
//! replay's and charge its clock.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use mutls_adaptive::{Governor, GovernorConfig, GrainControlConfig, GrainController};
use mutls_membuf::{
    region_log2_for_grain, Addr, CommitLogConfig, CommitLogStats, RegionProfile, SpecFailure,
};
use mutls_metrics::{MetricsConfig, MetricsSeries, MetricsSnapshot, Registry};
use mutls_runtime::ledger::{self, Books, Point};
use mutls_runtime::protocol::{self, Forker, JoinFacts, JoinVerdict, Retirement};
use mutls_runtime::{
    ForkModel, Phase, RunReport, RunTotals, RuntimeConfig, ThreadCounters, ThreadStats,
};
use mutls_trace::{DenyPolicy, DoomSource, EventKind, LatencyRecorder, TraceEvent};

use crate::cost::CostModel;
use crate::record::{NodeId, Recording, Segment, SimEvent};
use crate::simlog::{DetMap, SimLog};

mod books;
mod config;
mod conflict;
mod events;
mod fork;
mod grain;
mod join;
#[cfg(test)]
mod reference;
#[cfg(test)]
mod tests;

pub use config::{SimConfig, SimResult};
use conflict::merge_sorted;

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
}

/// Simulate `recording` under `config`.
pub fn simulate(recording: &Recording, config: SimConfig) -> SimResult {
    Scheduler::new(recording, config).run()
}
