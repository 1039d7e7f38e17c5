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
//! * `conflict.rs` — publishing, the reads of a finished segment and the
//!   reader registry;
//! * `fork.rs` — a fork point: admission, the CPU, the new fiber;
//! * `join.rs` — a join: validation, retry, commit or rollback, the
//!   cascade, retirement;
//! * `books.rs` — the ledger's clock and lanes, the metrics series;
//! * `reference.rs` (tests) — the log scan the index replaced.
//!
//! What a fork, a join, a retirement and an injected draw *decide* is
//! `mutls_runtime::protocol`, which the native runtime calls with its own
//! facts; `fork.rs` and `join.rs` gather the replay's and charge its
//! clock.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use mutls_adaptive::{Governor, GovernorConfig};
use mutls_membuf::{CommitLogConfig, CommitLogStats, SpecFailure, WORD_BYTES};
use mutls_metrics::{MetricsConfig, MetricsHub, MetricsSeries, MetricsSnapshot, Registry};
use mutls_runtime::ledger::{self, Books, Point};
use mutls_runtime::protocol::{self, Forker, JoinFacts, JoinVerdict, Retirement};
use mutls_runtime::{ForkModel, Phase, RunReport, RuntimeConfig, ThreadStats};
use mutls_trace::{DenyPolicy, EventKind, LatencyRecorder, TraceEvent};

use crate::cost::CostModel;
use crate::record::{NodeId, Recording, Segment, SimEvent};
use crate::runs::{Run, Runs};
use crate::simlog::{DetMap, SimLog};

mod books;
mod config;
mod conflict;
mod events;
mod fork;
mod join;
#[cfg(test)]
mod reference;
#[cfg(test)]
mod tests;

pub use config::{SimConfig, SimResult};

/// Virtual cycles between metrics samples: the sampler's cadence off the
/// virtual clock, so sample ticks land at exact multiples of it and the
/// series is byte-identical across runs.
const METRICS_CADENCE_CYCLES: u64 = 50_000;

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
}

/// The words of one publish inside one range meeting one registered
/// reader of the range.
#[derive(Debug, Clone, Copy)]
struct Touch {
    fid: usize,
    /// The fiber read one of these very words.
    word: bool,
    /// The publish overflows the range's version ring as seen from the
    /// fiber's start.
    overflow: bool,
}

/// What one publish does to one in-flight reader of the ranges it stamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PublishVerdict {
    /// Already doomed on a range-only conflict, and the batch wrote a word
    /// it actually read: the doom is genuine after all (the native join
    /// re-checks every touched word's value).
    Genuine,
    /// The batch stamped a range the fiber read, but the version ring's
    /// footprint proves every published word missed its actual reads: it
    /// survives undoomed, with no value re-read and no join-time retry.
    PrecisePass,
    /// Doomed.  `false_sharing`: no word it read was written (range-only).
    /// `ring_overflow`: range-only, and more publishes hit the range since
    /// the fiber started than the ring holds, which is what forced the
    /// conservative doom.
    Doom {
        false_sharing: bool,
        ring_overflow: bool,
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
    /// empty): arena words as runs, like the segment footprints they are
    /// merged from; `reads` leaves out what the fiber wrote first.  Their
    /// word counts price validation, commit and finalization.  Released at
    /// retirement, or taken by the joiner that commits the fiber.
    reads: Runs,
    writes: Runs,
    /// Commit-log range ids covering `reads` (see `Scheduler::ranges_of`)
    /// — the grain conflicts are detected at, and the ids the fiber is
    /// registered under as a reader.
    read_ranges: Runs,
    doomed: Option<SpecFailure>,
    /// True when the dooming conflict was range-only (no word of the
    /// published batch was actually read): false sharing, which the join
    /// repairs with a value-predict retry.
    doomed_false_sharing: bool,
    /// True when the fiber's conflict was repaired by value-predict-and-
    /// retry at its join (it committed without re-execution).
    retried: bool,
    /// Read-set entries that passed precisely through the version rings
    /// in flight: its join prices a ring probe for each.
    precise_passes: u64,
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
            reads: Runs::default(),
            writes: Runs::default(),
            read_ranges: Runs::default(),
            doomed: None,
            doomed_false_sharing: false,
            retried: false,
            precise_passes: 0,
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
    /// The registry and its sample series.  Its counters always count;
    /// disabled (the default), a gauge or histogram push is one
    /// always-false branch.
    metrics: MetricsHub,
}

impl Books for SimBooks {
    type At = (u64, u64);

    fn registry(&self) -> &Registry {
        self.metrics.registry()
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
    queue: BinaryHeap<Reverse<(u64, u64, usize)>>,
    queue_seq: u64,
    /// The speculative fiber on each simulated CPU (`cpu - 1`), `None`
    /// where the CPU is free: a fiber holds its CPU from its fork until it
    /// retires, so this names every fiber the log holds as a reader.
    on_cpu: Vec<Option<usize>>,
    most_speculative: Option<usize>,
    active_speculative: usize,
    rng: SmallRng,
    /// The retired speculative fibers' statistics, summed as the runtime
    /// sums its retired threads'.
    speculative: ThreadStats,
    /// The simulated commit log.  Publish times by word and by range id
    /// are what conflict detection looks up: word-level overlap tells a
    /// genuine conflict from false sharing.  Its reader masks mirror the
    /// native log's (`CommitLog::publish` takes them): every unretired
    /// speculative fiber's CPU has its bit under the fiber's
    /// `read_ranges`, so a publish visits the readers of the ranges it
    /// stamps (through `on_cpu`) and nobody else.
    log: SimLog,
    /// The log the index replaced, kept as the tests' reference: every
    /// verdict looked up is also searched for the way it used to be.
    #[cfg(test)]
    publishes: Vec<reference::PubEntry>,
    /// Adaptive speculation governor (per-site profiling + fork policy).
    governor: Governor,
    /// Simulated commit-log traffic for the report: batches and range
    /// stamps (the grain sweep's headline columns).
    sim_commits: u64,
    sim_stamps: u64,
    /// Modeled version-ring overflows: range conflicts classified
    /// conservatively because more publishes hit the range than the ring
    /// holds (always zero at depth 1, which never probes).
    sim_ring_overflows: u64,
    /// Where lifecycle points are written down.
    books: SimBooks,
    /// Next virtual-cycle boundary a sample is due at.
    next_metrics_tick: u64,
}

impl<'a> Scheduler<'a> {
    /// Create a scheduler for `recording` under `config`.
    pub fn new(recording: &'a Recording, mut config: SimConfig) -> Self {
        // SimConfig's fields are pub and call sites use struct literals,
        // so apply the commit log's own normalization rules here: the
        // grain is used as a shift and the ring depth as a history length.
        config.commit_log = config.commit_log.normalized();
        let rng = SmallRng::seed_from_u64(config.seed);
        let num_cpus = config.num_cpus;
        let governor = Governor::new(config.governor);
        Scheduler {
            recording,
            fibers: Vec::new(),
            queue: BinaryHeap::new(),
            queue_seq: 0,
            on_cpu: vec![None; num_cpus],
            most_speculative: None,
            active_speculative: 0,
            rng,
            speculative: ThreadStats::new(),
            log: SimLog::new(config.commit_log.ring_depth, num_cpus),
            #[cfg(test)]
            publishes: Vec::new(),
            governor,
            sim_commits: 0,
            sim_stamps: 0,
            sim_ring_overflows: 0,
            books: SimBooks {
                events: config.trace.then(Vec::new),
                latency: LatencyRecorder::new(),
                metrics: MetricsHub::new(config.metrics, 1),
            },
            next_metrics_tick: METRICS_CADENCE_CYCLES,
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
    fn finish(self) -> SimResult {
        let runtime = {
            let root_fiber = &self.fibers[0];
            root_fiber.finished.unwrap_or(root_fiber.time)
        };
        // One final sample at the end of virtual time, so short runs that
        // never crossed a cadence boundary still export a snapshot.
        if self.config.metrics.enabled {
            let snapshot = self.scrape_metrics(runtime);
            self.books.metrics.push(snapshot);
        }
        let mut report = RunReport {
            critical: self.fibers[0].stats.clone(),
            commit_log: self.log_stats(),
            sites: self.governor.snapshot(),
            latency: self.books.latency.report(),
            runtime,
            speculative: self.speculative,
            ..RunReport::default()
        };
        ledger::read_counts(self.books.metrics.registry(), &mut report);
        SimResult {
            report,
            sequential_cycles: Self::sequential_cycles(self.recording, &self.config.cost),
            parallel_cycles: runtime,
            tasks: self.recording.task_count(),
            events: self.books.events.unwrap_or_default(),
            metrics: self.books.metrics.series(),
        }
    }
}

/// Simulate `recording` under `config`.
pub fn simulate(recording: &Recording, config: SimConfig) -> SimResult {
    Scheduler::new(recording, config).run()
}
