//! The `ThreadManager` (paper §IV-B): virtual CPUs, speculative thread
//! dispatch, the join/validation/commit protocol, early synchronization
//! and the tree-form mixed forking model bookkeeping.
//!
//! # Virtual CPUs, OS threads and the non-speculative role
//!
//! A virtual CPU (rank 1..=N) is a *slot*: status flags, the sync-request
//! mailbox, the CPU's buffers while no task holds them (see
//! [`ThreadBuffers`]) and — once its task finishes — the outcome: those
//! buffers, the statistics and the list of unjoined children.  A slot is
//! what a fork acquires and a join releases; it is **not** an OS thread.
//! The runtime has N + 1 OS threads — the N workers [`Runtime`] spawns and
//! the caller of `run` — and **any of them whose top frame is idle runs
//! any dispatched task**: forks push `(rank, request)` on one dispatch
//! queue, and idle threads pop from it.
//!
//! Rank 0 is not a thread either but a *role*, the non-speculative thread
//! of the paper: whoever holds it reads and writes main memory directly,
//! is logically earliest, and is the only one whose joins publish.  It
//! starts with the caller of `run` and moves by **early synchronization**
//! (paper §IV-E/H).  When its holder reaches a join and the child is still
//! running, it posts a sync request on the child's slot instead of sitting
//! the child out.  The child notices where it polls anyway
//! (`SpecContext::check_abort`, also while blocked in a nested join), runs
//! the ordinary [`validate_and_commit`](ThreadManager::validate_and_commit)
//! on its own buffers, releases its CPU and *carries on as the
//! non-speculative thread* — it is **promoted**.  The joiner is
//! *displaced*: until the promoted closure returns and
//! hands the role back (`hand_back`) it serves the dispatch queue like a
//! worker (`serve_until_handed_back`).
//! The first task it finds there is usually the promoted child's own
//! continuation: a fork the child was denied an instant earlier, *because
//! it held the last CPU itself*, is dispatched late on the CPU the
//! promotion freed.  That is how a loop of 64 chunks runs two at a time on
//! one speculative CPU: the role ping-pongs between the two OS threads,
//! one chunk each.  A promotion whose validation fails dooms the child,
//! which unwinds like any conflict; the joiner's rollback-and-re-execute
//! path is the only recovery.
//!
//! # Nobody starves
//!
//! Every OS thread's stack alternates *displaced join* frames with *task*
//! frames, and only its top frame can act.  Exactly one thread's top frame
//! holds the non-speculative role (or none, for the instant between a
//! request and its answer), and that thread never helps: it runs, or waits
//! for the one child it joins.  A speculative task's frame is always a top
//! frame — a speculative joiner blocks, it does not help.  So of N + 1
//! threads, one holds rank 0, `s` run speculative tasks, and the other
//! `N − s` have an idle top frame: a parked worker or a displaced joiner.
//! Each queued, started or deposited task holds one of the N slots, hence
//! `queued ≤ N − s`: **queued tasks ≤ threads with an idle top frame**, and
//! a push wakes one of them (a woken thread that leaves empty-handed
//! passes the wake-up on).  A displaced joiner running a task on top of
//! its join cannot take the role back until that task ends; that delays
//! the hand-back by at most the task, whose own completion needs no
//! thread below it.
//!
//! Waiting is the paper's flag barrier, in two steps: a bounded spin
//! (`IDLE_SPIN`, yielding the core each round so that a thread woken
//! onto the spinner's core runs at once), then parked on a condition
//! variable.  With both sides of a fork→join round trip inside their spin
//! nobody is woken through the kernel.
//!
//! # Synchronize only when it pays
//!
//! A promotion costs two hand-offs on the critical path (the late fork's
//! dispatch, the hand-back), its own bookkeeping, and validating,
//! committing and clearing every buffered entry; and the displaced
//! thread's fresh task pays its first-touch loads again.  What it buys is
//! overlap for as long as the region after the join resembles the one
//! before it.  The request therefore carries **S1**, the joiner's own
//! fork→join time, and the child takes it only while
//!
//! ```text
//! 8 × (2 × hand-off + 2 µs + entries × ns/entry) ≤ S1
//! ```
//!
//! — synchronizing may cost at most an eighth of the region it overlaps.
//! The hand-off is the fastest dispatch→start the runtime has observed
//! (the fastest, not the mean: one slow first wake-up would price
//! synchronization out for a whole run, and a sync not taken is never
//! measured) and the per-entry cost is that of its own earlier promotions;
//! the 8 and the 2 µs are constants (`sync_pays`).  A request turned down
//! is gone, and the joiner waits for the deposit as it always did.  There
//! is no switch because the measurements decide: on `compute_loop` (16 ms
//! chunks, nothing buffered) every join synchronizes; on `dense_reads`
//! (md: 12 µs chunks, ≈ 650 read entries a task) none does —
//! synchronizing there unconditionally was measured at 0.55–0.80 s a run
//! against 0.69 s, with `cpu_ratio` 1.9 → 4.0, every sync paying ≈ 14 µs
//! of validation and 768 fresh first-touch loads to overlap 12 µs.  A task
//! forked and joined at once has S1 ≈ 0 and stays speculative to its end.
//!
//! # The join protocol
//!
//! The synchronization protocol mirrors the paper's flag-based barrier:
//! the joining thread signals the child (`sync_status` ≙ the `abort` /
//! sync-request / result handshake here) and then waits for the child's
//! outcome (`valid_status` ≙ the deposited [`SpecOutcome`]) or promotion,
//! after which validation and commit/rollback are performed and charged to
//! the speculative thread's statistics.
//!
//! # The books
//!
//! What happened to a thread is written down in one place, the
//! [`ledger`](crate::ledger): this module and `SpecContext` tell it *that*
//! a lifecycle point was reached (`ThreadManager::observe`), it decides
//! which counter, registry cell, latency sample and trace event record
//! it.  The registry is fed live and a scrape only reads it; closing a
//! finished thread's books — committed, rolled back or discarded with its
//! subtree — is `close_books`, whoever consumed the outcome.
//!
//! [`Runtime`]: crate::Runtime

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mutls_adaptive::{Governor, GrainController, SiteId, SiteOutcome};
use mutls_membuf::{
    Addr, AddressSpace, BufferStats, CommitLog, GlobalBuffer, GlobalMemory, LocalBuffer,
    MainMemory, RollbackReason, SpecFailure, Validation,
};
use mutls_metrics::MetricsHub;
use mutls_trace::{DoomSource, PlanArm, Recorder, ValidateOutcome};

use crate::config::{RollbackSource, RuntimeConfig};
use crate::context::{
    SpecContext, COLD_HANDOFF_NS, COLD_SYNC_ENTRY_NS, IDLE_SPIN, SYNC_BASE_NS, SYNC_PAYBACK,
};
use crate::fork_model::ForkModel;
use crate::ledger::Point;
use crate::stats::{Phase, ThreadCounters, ThreadStats};
use crate::task::{Rank, SpecAbort, TaskRef, TaskStatus};

/// The buffers of one virtual CPU, reused by every task that runs on it.
///
/// **Ownership.**  A CPU's buffers are built once, at its first
/// speculation, and from then on are always in exactly one place:
///
/// 1. *idle CPU* — parked, cleared, in the CPU's slot;
/// 2. *running context* — `SpecContext::speculative` takes them when an
///    OS thread starts a task, building them if the CPU never speculated;
/// 3. *deposited outcome* — the finished task's [`SpecOutcome`] carries
///    them (read set, write set and all) to whoever consumes it;
/// 4. *back* — every path that consumes or discards an outcome (join,
///    `adopt_subtree`, `reap_subtree`, `drain_subtree`, an orphaned
///    deposit), and a task that is promoted, hands them to
///    [`ThreadManager::return_buffers`], which clears and parks them
///    **before** the CPU is released, so the CPU's next task finds them.
///
/// Because buffers never change CPU, the rank a [`GlobalBuffer`] registers
/// its reads under is always the rank of the CPU running it.
#[derive(Debug)]
pub struct ThreadBuffers {
    /// Buffered global (static/heap) accesses.
    pub global: GlobalBuffer,
    /// Buffered local (register) variables.
    pub local: LocalBuffer,
}

impl ThreadBuffers {
    /// Empty buffers for virtual CPU `rank`, whose global buffer registers
    /// its first-touch reads under that rank.
    fn new(config: &RuntimeConfig, rank: Rank) -> Self {
        ThreadBuffers {
            global: GlobalBuffer::for_reader(config.buffer, rank),
            local: LocalBuffer::new(config.local_buffer),
        }
    }

    /// Whether nothing of an earlier task is left behind.
    fn is_clean(&self) -> bool {
        let global = &self.global;
        !global.overflow_pending()
            && global.read_set_len() == 0
            && global.write_set_len() == 0
            && global.stats() == BufferStats::default()
            && self.local.registers().occupied() == 0
    }
}

/// Everything a finished speculative task deposits for its joiner.
pub struct SpecOutcome {
    /// How the task stopped.
    pub status: TaskStatus,
    /// The task's buffers (taken by the joiner for validation/commit).
    pub buffers: ThreadBuffers,
    /// Ranks of children the task forked but never joined.
    pub children: Vec<Rank>,
    /// The task's accumulated statistics.
    pub stats: ThreadStats,
    /// When the task stopped (used to charge the waiting-to-be-joined time
    /// as speculative idle).
    pub finished_at: Instant,
    /// The task already ran [`ThreadManager::validate_and_commit`] on
    /// these buffers itself — a promotion attempt that failed — so the
    /// `Failed` status *is* the verdict: it is traced, its readers are
    /// unregistered and its precise passes counted.  The joiner rolls back
    /// without validating a second time.
    pub settled: bool,
}

/// A dispatch request for a speculative task.
pub struct SpecRequest {
    /// The continuation closure to execute.
    pub task: TaskRef<SpecContext>,
    /// Register variables transferred from the parent at fork time
    /// (offset, raw value), installed in the child's bottom frame.
    pub regvars: Vec<(usize, mutls_membuf::RegisterValue)>,
}

/// Tasks dispatched to a virtual CPU and not yet started by an OS thread.
struct DispatchQueue {
    tasks: VecDeque<(Rank, SpecRequest)>,
    /// Threads parked on [`Dispatch::wake`]: a push or a hand-back only
    /// pays for a wake-up when somebody sleeps.
    sleepers: usize,
    shutdown: bool,
}

/// The one dispatch queue, drained by every OS thread whose top frame is
/// idle (see the module docs).
struct Dispatch {
    queue: Mutex<DispatchQueue>,
    wake: Condvar,
    /// `queue.tasks.len()`, readable without the lock by a spinning thread.
    queued: AtomicUsize,
}

const SYNC_REQUESTED: u8 = 0;
const SYNC_PROMOTED: u8 = 1;
const SYNC_FINISHED: u8 = 2;

/// Mailbox of one early synchronization, shared by the non-speculative
/// joiner that asked for it and the child that may take it.  It belongs
/// to the *join*, not to the child's slot, which is recycled the moment
/// the promoted child releases its CPU.
pub(crate) struct Handoff {
    /// The joiner's own fork→join time: how long the parallelism a sync
    /// buys lasted last time round.
    s1_ns: u64,
    state: AtomicU8,
    result: Mutex<Option<PromotedOutcome>>,
}

impl Handoff {
    pub(crate) fn new(s1_ns: u64) -> Self {
        Handoff {
            s1_ns,
            state: AtomicU8::new(SYNC_REQUESTED),
            result: Mutex::new(None),
        }
    }

    pub(crate) fn s1_ns(&self) -> u64 {
        self.s1_ns
    }

    /// The child committed and holds the non-speculative role (or already
    /// gave it back).  `Acquire` pairs with the `Release` stores of
    /// [`ThreadManager::publish_promotion`] and
    /// [`ThreadManager::hand_back`].
    fn promoted(&self) -> bool {
        self.state.load(Ordering::Acquire) != SYNC_REQUESTED
    }

    fn finished(&self) -> bool {
        self.state.load(Ordering::Acquire) == SYNC_FINISHED
    }
}

/// What a promoted closure hands back to the joiner it displaced.
pub(crate) struct PromotedOutcome {
    /// How the closure stopped.  `Failed` is the closure's own error as
    /// the non-speculative thread: its effects are committed, so the
    /// joiner propagates it like an inline execution's instead of rolling
    /// anything back.
    pub status: TaskStatus,
    /// How the promotion's validation finished.
    pub kind: CommitKind,
    /// Children the closure forked (before or after the promotion) and
    /// never joined.
    pub children: Vec<Rank>,
    /// Critical-path statistics of `[promoted_at, finished_at]`.
    pub stats: ThreadStats,
    /// When the child took over the non-speculative role.
    pub promoted_at: Instant,
    /// When its closure returned.
    pub finished_at: Instant,
}

const CPU_IDLE: u8 = 0;
const CPU_RUNNING: u8 = 1;

/// Per-virtual-CPU slot.
pub(crate) struct Slot {
    state: std::sync::atomic::AtomicU8,
    /// Set when the thread (or its subtree root) must abandon its work.
    abort: AtomicBool,
    /// Set by a committing writer that found this thread in the per-range
    /// reader registry: the thread's reads are (range-conservatively)
    /// stale and it should stop burning cycles now instead of failing
    /// validation at its join (targeted dooming).  The conflict is
    /// *published*, so the victim may attempt an in-flight value-predict
    /// retry against main memory before giving up.
    doomed: AtomicBool,
    /// Set by a speculative writer whose *buffered* store overlaps this
    /// thread's registered reads — the classic doomed-from-birth child of
    /// an inline re-execution.  The conflicting value lives in a private
    /// write-set, so no value revalidation against main memory can clear
    /// it: the victim must stop unconditionally.
    doomed_hard: AtomicBool,
    /// Set when nobody will ever join this thread; the worker cleans up
    /// after itself in that case.
    orphaned: AtomicBool,
    /// Whether this slot currently counts towards
    /// [`ThreadManager::exposed`]; `swap(false)` makes the retire
    /// idempotent.
    exposed: AtomicBool,
    /// Fork-site ID the running task was launched from (governor key).
    site: AtomicU32,
    /// `ForkModel::index()` of the model the task was launched under.
    model: AtomicU8,
    /// Recorder timestamp of the task's dispatch (fork-to-commit latency).
    forked_ns: AtomicU64,
    /// Logical rank of the running task: its fork-clock stamp.  Children
    /// fork strictly after their forker acquired its own stamp, so a
    /// smaller value means the thread executes logically *earlier* work
    /// (exact under in-order forking; out-of-order forks can only
    /// overestimate a thread's logical position, which under-dooms —
    /// sound, since join-time validation stays the oracle).  Committing
    /// writers use it to skip dooming their logical predecessors, whose
    /// reads legitimately precede the write (the RMW-predecessor
    /// over-rollback bug).
    logical: AtomicU64,
    /// A non-speculative joiner posted a sync request in `sync` — the one
    /// flag the running task polls.
    sync_posted: AtomicBool,
    /// The posted request.  Empty whenever the CPU is released: the task
    /// takes it when it notices, and a joiner whose child finished without
    /// noticing takes it back.
    sync: Mutex<Option<Arc<Handoff>>>,
    result: Mutex<Option<SpecOutcome>>,
    result_cv: Condvar,
    /// Bumped after every deposit and promotion, so a joiner can spin on
    /// it without taking `result`'s lock.
    signals: AtomicU64,
    /// This CPU's buffers while no task holds them (see
    /// [`ThreadBuffers`]); `None` until the CPU's first speculation.
    buffers: Mutex<Option<ThreadBuffers>>,
}

impl Slot {
    fn new() -> Self {
        Slot {
            state: AtomicU8::new(CPU_IDLE),
            abort: AtomicBool::new(false),
            doomed: AtomicBool::new(false),
            doomed_hard: AtomicBool::new(false),
            orphaned: AtomicBool::new(false),
            exposed: AtomicBool::new(false),
            site: AtomicU32::new(0),
            model: AtomicU8::new(ForkModel::Mixed.index() as u8),
            forked_ns: AtomicU64::new(0),
            logical: AtomicU64::new(0),
            sync_posted: AtomicBool::new(false),
            sync: Mutex::new(None),
            result: Mutex::new(None),
            result_cv: Condvar::new(),
            signals: AtomicU64::new(0),
            buffers: Mutex::new(None),
        }
    }

    /// The (site, model) the current task was dispatched with.
    fn launch_info(&self) -> (SiteId, ForkModel) {
        let site = self.site.load(Ordering::Relaxed);
        let model = ForkModel::ALL[self.model.load(Ordering::Relaxed) as usize];
        (site, model)
    }
}

/// Totals of one speculative region run so far (see
/// [`ThreadManager::run_snapshot`]); the simulator keeps the same.
#[derive(Debug, Clone, Default)]
pub struct RunTotals {
    /// Combined statistics of every speculative thread.
    pub speculative: ThreadStats,
    /// Speculative threads that committed (including retried ones).
    pub committed: u64,
    /// Speculative threads that rolled back.
    pub rolled_back: u64,
    /// Committed threads whose conflict was repaired by
    /// value-predict-and-retry (a subset of `committed`, never counted in
    /// `rolled_back`).
    pub retried: u64,
    /// Rolled-back threads split by cause.
    pub by_reason: [u64; RollbackReason::COUNT],
}

impl RunTotals {
    /// Fold in a thread whose books are closed: its statistics, and its
    /// fate — `Ok(retried)` for a commit, the failure for a rollback.
    pub fn fold(&mut self, stats: &ThreadStats, fate: Result<bool, SpecFailure>) {
        self.speculative.merge(stats);
        match fate {
            Ok(retried) => {
                self.committed += 1;
                self.retried += u64::from(retried);
            }
            Err(reason) => {
                self.rolled_back += 1;
                self.by_reason[RollbackReason::from(reason).index()] += 1;
            }
        }
    }
}

/// How a validated join finished (see
/// [`ThreadManager::validate_and_commit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitKind {
    /// Validation passed outright.
    Committed,
    /// Validation initially conflicted but value prediction re-validated
    /// every conflicting read in place: the thread committed without
    /// re-execution.
    Retried,
}

impl CommitKind {
    /// True for a value-predict retry.
    pub fn retried(self) -> bool {
        matches!(self, CommitKind::Retried)
    }
}

/// Central coordinator shared by every context and worker.
pub struct ThreadManager {
    config: RuntimeConfig,
    memory: Arc<GlobalMemory>,
    /// Versioned record of every write published to main memory; the
    /// substrate of real cross-thread conflict detection.
    commit_log: CommitLog,
    address_space: RwLock<AddressSpace>,
    slots: Vec<Slot>,
    /// Rank of the most recently speculated thread still in flight
    /// (0 = none); used by the in-order forking model.
    most_speculative: AtomicUsize,
    /// Number of speculative threads currently in flight.
    active: AtomicUsize,
    /// **Exposure count**: speculative threads whose read set may still be
    /// validated, absorbed or adopted.  While it is zero the
    /// non-speculative thread stores at native speed — memory only, no
    /// commit-log stamp, no reader dooming (`SpecContext::spec_write`).
    ///
    /// A slot is raised in [`try_acquire_cpu`](Self::try_acquire_cpu) and
    /// retired at the first of a `Failed` deposit or
    /// [`release_cpu`](Self::release_cpu).  Why skipping a stamp at zero
    /// can remove spurious dooms but never hide a conflict:
    ///
    /// 1. a stamp only matters to a snapshot taken *before* it;
    /// 2. zero means no task code runs on any speculative CPU (a slot
    ///    retires only after its task returned), so only rank 0 can fork;
    /// 3. hence every 0→1 transition is program-ordered after rank 0's own
    ///    earlier stores, and the child's reads happen-after `dispatch`:
    ///    it sees those values and snapshots after them;
    /// 4. every 1→0 transition by another thread is a `Release` RMW, so
    ///    rank 0's `Acquire` load of the zero happens-after everything the
    ///    retired threads did — and since only rank 0 raises the count
    ///    from zero, a zero it reads is the current value, never a stale
    ///    one.
    ///
    /// A `Failed` outcome is never validated, absorbed or adopted — its
    /// joiner re-executes inline — so its read set is dead the instant it
    /// is deposited.  `Completed`/`Barrier` outcomes are validated against
    /// the log when consumed, possibly long after the task stopped, so they
    /// stay exposed until `release_cpu`; a child absorbed by a speculative
    /// parent hands its reads to that (still exposed) parent.  This is why
    /// the gate cannot be `active`: a dead-but-unjoined child keeps
    /// `active` raised for almost all of rank 0's stores.
    exposed: AtomicUsize,
    accum: Mutex<RunTotals>,
    rng: Mutex<SmallRng>,
    /// Monotone counter of speculation events (diagnostics).
    speculations: AtomicU64,
    /// [`ThreadBuffers`] built since construction (diagnostics): at most
    /// one per virtual CPU while every outcome's buffers are returned.
    buffers_created: AtomicUsize,
    /// Fork clock: source of the per-slot logical-rank stamps.  Starts at
    /// 1 so stamp 0 uniquely means "the non-speculative thread" (rank 0),
    /// which is logically earliest and whose commits doom unfiltered.
    fork_clock: AtomicU64,
    /// Adaptive speculation governor: consulted before a fork is granted a
    /// CPU, fed with per-site join outcomes.
    governor: Governor,
    /// Online adaptive-grain controller (None when
    /// `RuntimeConfig::grain_control` is disabled): ticked from the
    /// commit/validate bookkeeping paths, it turns the commit log's
    /// per-region telemetry into live [`CommitLog::regrain`] calls.
    grain: Option<Mutex<GrainController>>,
    /// Commit/validate events since the run started (drives the grain
    /// controller's tick cadence).
    grain_events: AtomicU64,
    /// The speculation flight recorder: per-lane lifecycle event rings
    /// (when `RuntimeConfig::trace.events` is on) plus the always-on
    /// phase-latency histograms.  Lanes 0..=num_cpus belong to the
    /// threads; lane num_cpus+1 is the control plane (grain-controller
    /// ticks), serialized by the controller lock.
    recorder: Recorder,
    /// Zero point of recorder timestamps.
    trace_origin: Instant,
    /// The live telemetry plane: a sharded lock-free counter/gauge/
    /// histogram registry, fed by the ledger, plus the bounded snapshot
    /// series the sampler fills.  Disabled (the default) it is a single
    /// always-false branch per push, mirroring the recorder's no-op
    /// discipline.
    metrics: Arc<MetricsHub>,
    dispatch: Dispatch,
    /// Fastest dispatch→start hand-off seen since construction, starting
    /// from [`COLD_HANDOFF_NS`].  The fastest, not the mean, and never more
    /// than the cold estimate: a chain's first join has one sample to go
    /// by, the wake-up of a worker that may still have been starting, and
    /// that must not price synchronization out for the whole run.
    fastest_handoff_ns: AtomicU64,
    /// Time spent in, and buffered entries handled by, the promotions of
    /// non-empty buffers so far: their ratio prices an entry (that it
    /// re-counts those promotions' fixed part errs on the side of not
    /// synchronizing).
    sync_ns: AtomicU64,
    sync_entries: AtomicU64,
}

impl ThreadManager {
    /// Create the manager; the OS threads that serve its dispatch queue are
    /// spawned by [`Runtime::new`](crate::Runtime::new).
    pub fn new(config: RuntimeConfig) -> Arc<Self> {
        let memory = Arc::new(GlobalMemory::new(config.memory_bytes));
        let slots = (0..config.num_cpus).map(|_| Slot::new()).collect();
        let mut space = AddressSpace::new();
        // The whole arena below the allocation cursor grows as the program
        // allocates; individual allocations register themselves.
        space.register(GlobalMemory::BASE_ADDR, 0);
        // Size the log's dense fast path to the arena so every stamp and
        // lookup is a single atomic access with bounded memory; grain and
        // shard count and ring depth come from the runtime configuration.
        // Under grain control the configured grain is the floor the table
        // is allocated at and regions start at the controller's (usually
        // coarser) initial grain.
        let commit_log = if config.grain_control.enabled {
            CommitLog::with_initial_grain(
                config.commit_log,
                memory.size_bytes(),
                config.grain_control.initial_grain_log2,
            )
        } else {
            CommitLog::with_config(config.commit_log, memory.size_bytes())
        };
        let grain = config.grain_control.enabled.then(|| {
            Mutex::new(GrainController::new(
                config.grain_control,
                commit_log.config().grain_log2,
            ))
        });
        Arc::new(ThreadManager {
            config,
            memory,
            commit_log,
            address_space: RwLock::new(space),
            slots,
            most_speculative: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            exposed: AtomicUsize::new(0),
            accum: Mutex::new(RunTotals::default()),
            rng: Mutex::new(SmallRng::seed_from_u64(config.seed)),
            speculations: AtomicU64::new(0),
            buffers_created: AtomicUsize::new(0),
            fork_clock: AtomicU64::new(1),
            governor: Governor::new(config.governor),
            grain,
            grain_events: AtomicU64::new(0),
            recorder: Recorder::new(config.trace, config.num_cpus + 2),
            trace_origin: Instant::now(),
            // Shards for ranks 0..=num_cpus plus the hub's own control
            // shard for unranked pushes.
            metrics: Arc::new(MetricsHub::new(config.metrics, config.num_cpus + 1)),
            dispatch: Dispatch {
                queue: Mutex::new(DispatchQueue {
                    tasks: VecDeque::new(),
                    sleepers: 0,
                    shutdown: false,
                }),
                wake: Condvar::new(),
                queued: AtomicUsize::new(0),
            },
            fastest_handoff_ns: AtomicU64::new(COLD_HANDOFF_NS),
            sync_ns: AtomicU64::new(0),
            sync_entries: AtomicU64::new(0),
        })
    }

    /// The adaptive speculation governor.
    pub fn governor(&self) -> &Governor {
        &self.governor
    }

    /// The speculation flight recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The live telemetry hub (registry + snapshot series).
    pub fn metrics(&self) -> &Arc<MetricsHub> {
        &self.metrics
    }

    /// Nanoseconds since the recorder's origin (the event/latency clock).
    #[inline]
    pub fn trace_now_ns(&self) -> u64 {
        self.trace_origin.elapsed().as_nanos() as u64
    }

    /// The control-plane event lane (grain-controller ticks): one past the
    /// last thread rank, so its events never race a thread's SPSC ring.
    fn control_lane(&self) -> Rank {
        self.slots.len() + 1
    }

    /// The fork-site id `rank`'s current task was launched from (0 for the
    /// non-speculative thread).
    fn site_of(&self, rank: Rank) -> SiteId {
        if rank == 0 || rank > self.slots.len() {
            0
        } else {
            self.slots[rank - 1].site.load(Ordering::Relaxed)
        }
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Shared main memory arena.
    #[inline]
    pub fn memory(&self) -> &Arc<GlobalMemory> {
        &self.memory
    }

    /// The shared commit log every published write is recorded in.
    pub fn commit_log(&self) -> &CommitLog {
        &self.commit_log
    }

    /// Register `[addr, addr+len)` as valid global data.
    pub fn register_range(&self, addr: Addr, len: u64) {
        self.address_space.write().register(addr, len);
    }

    /// Unregister a range (object deallocation).
    pub fn unregister_range(&self, addr: Addr, len: u64) {
        self.address_space.write().unregister(addr, len);
    }

    /// Whether an access is inside the registered global address space.
    ///
    /// Anything handed out by the arena's bump allocator is implicitly
    /// registered (allocation *is* registration, as in §IV-G1 where heap
    /// allocation calls are intercepted); explicitly registered ranges are
    /// honoured in addition.
    ///
    /// An access that would run past the end of the address space — a
    /// garbage pointer read under speculation — is in neither.
    pub fn range_registered(&self, addr: Addr, len: u64) -> bool {
        let in_arena = addr >= GlobalMemory::BASE_ADDR
            && addr
                .checked_add(len)
                .is_some_and(|end| end <= self.memory.allocated_bytes());
        in_arena || self.address_space.read().contains(addr, len)
    }

    /// Count one commit/validate event and, every
    /// [`GrainControlConfig::tick_commits`](mutls_adaptive::GrainControlConfig::tick_commits),
    /// run an adaptive-grain controller tick: snapshot the commit log's
    /// per-region telemetry, apply the resulting regrains and doom the
    /// collected readers.  The doom is conservative recovery, not a
    /// penalty: a regrained region's outstanding snapshots are about to
    /// fail validation anyway, and a value-predict retry can still clear
    /// the doom in place.  `try_lock` keeps ticking off the hot path —
    /// if another thread is mid-tick, this event's tick is simply
    /// skipped.
    pub fn tick_grain_controller(&self) {
        let Some(controller) = &self.grain else {
            return;
        };
        let cadence = self.config.grain_control.tick_commits.max(1);
        if !(self.grain_events.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(cadence) {
            return;
        }
        let Some(mut controller) = controller.try_lock() else {
            return;
        };
        let profiles = self.commit_log.region_profiles();
        // The control plane has a lane but no thread, hence no counters.
        let (lane, nobody) = (self.control_lane(), &mut ThreadCounters::default());
        let mut actions = 0u32;
        for action in controller.tick(&profiles) {
            let (region, to) = (action.region, action.new_grain_log2);
            let from = self.commit_log.grain_of_region(region);
            let (_, readers) = self.commit_log.regrain(region, to);
            self.observe(lane, 0, nobody, Point::Regrained { region, from, to });
            let ranks: Vec<Rank> = readers.ranks().collect();
            let (source, victims) = (DoomSource::Regrain, self.doom_ranks(&ranks));
            self.observe(lane, 0, nobody, Point::Doomed { source, victims });
            actions += 1;
        }
        self.observe(lane, 0, nobody, Point::GrainTicked(actions));
    }

    /// The live grain the finished thread's traffic ran at, for per-site
    /// reporting: the static configured grain when the controller is
    /// disabled, else the current grain of the thread's first written
    /// (falling back to first read) region.
    pub fn observed_grain(&self, outcome: &SpecOutcome) -> u32 {
        if self.grain.is_none() {
            return self.commit_log.config().grain_log2;
        }
        outcome
            .buffers
            .global
            .write_addresses()
            .next()
            .or_else(|| outcome.buffers.global.read_addresses().next())
            .map(|addr| self.commit_log.grain_of(addr))
            .unwrap_or_else(|| self.commit_log.config().grain_log2)
    }

    /// Total number of speculation events since construction.
    pub fn total_speculations(&self) -> u64 {
        self.speculations.load(Ordering::Relaxed)
    }

    /// Number of [`ThreadBuffers`] built since construction.
    pub fn buffers_created(&self) -> usize {
        self.buffers_created.load(Ordering::Relaxed)
    }

    /// Take virtual CPU `rank`'s buffers for the task it is about to run,
    /// building them if this is the CPU's first speculation (so a runtime
    /// that never speculates on a CPU never pays for its buffers).
    pub(crate) fn take_buffers(&self, rank: Rank) -> ThreadBuffers {
        let parked = self.slots[rank - 1].buffers.lock().take();
        let buffers = parked.unwrap_or_else(|| {
            self.buffers_created.fetch_add(1, Ordering::Relaxed);
            ThreadBuffers::new(&self.config, rank)
        });
        debug_assert!(buffers.is_clean(), "rank {rank}: dirty buffers handed out");
        debug_assert_eq!(buffers.global.reader(), rank, "buffers changed CPU");
        buffers
    }

    /// Clear the buffers a finished task of virtual CPU `rank` left behind
    /// and park them for the CPU's next task.  Must run before
    /// [`release_cpu`](Self::release_cpu), or that task could start
    /// without them.
    pub fn return_buffers(&self, rank: Rank, mut buffers: ThreadBuffers) {
        buffers.global.clear();
        buffers.local.clear();
        *self.slots[rank - 1].buffers.lock() = Some(buffers);
    }

    /// Number of speculative threads currently in flight.
    pub fn active_speculations(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Number of speculative threads whose read set is still exposed (see
    /// the protocol on the `exposed` field).  The `Acquire` pairs with
    /// the `Release` decrement of a retire.
    #[inline]
    pub fn exposed_speculations(&self) -> usize {
        self.exposed.load(Ordering::Acquire)
    }

    /// Retire `slot`'s exposure; a no-op when it already was.  Must run
    /// before the event that lets the slot be re-acquired (publishing the
    /// outcome, marking the CPU idle), or it could retire the next task's
    /// exposure instead.
    fn retire_exposure(&self, slot: &Slot) {
        if slot.exposed.swap(false, Ordering::AcqRel) {
            self.exposed.fetch_sub(1, Ordering::Release);
        }
    }

    /// Invariant the elision rests on: an outcome is consumed (committed,
    /// absorbed, retried) only while still exposed, and a `Failed` one was
    /// retired at its deposit.
    fn exposure_matches(&self, rank: Rank, status: TaskStatus) -> bool {
        rank == 0
            || self.slots[rank - 1].exposed.load(Ordering::Acquire)
                != matches!(status, TaskStatus::Failed(_))
    }

    // ----- fork path -------------------------------------------------

    /// Whether `model` permits `forker` to fork right now — the ordering
    /// half of [`try_acquire_cpu`](Self::try_acquire_cpu), exposed so the
    /// fork path can distinguish a model denial from CPU exhaustion in
    /// the trace (racy against concurrent joins, which is fine for
    /// attribution).
    pub fn model_allows_fork(&self, forker: Rank, model: ForkModel) -> bool {
        let forker_is_spec = forker != 0;
        let most = self.most_speculative.load(Ordering::Acquire);
        let is_most = if self.active.load(Ordering::Acquire) == 0 {
            !forker_is_spec
        } else {
            forker == most
        };
        model.allows_fork(forker_is_spec, is_most)
    }

    /// Try to acquire an idle virtual CPU for a fork requested by
    /// `forker` under `model` (paper: `MUTLS_get_CPU`).
    pub fn try_acquire_cpu(&self, forker: Rank, model: ForkModel) -> Option<Rank> {
        let forker_is_spec = forker != 0;
        let most = self.most_speculative.load(Ordering::Acquire);
        let is_most = if self.active.load(Ordering::Acquire) == 0 {
            !forker_is_spec
        } else {
            forker == most
        };
        if !model.allows_fork(forker_is_spec, is_most) {
            return None;
        }
        for (i, slot) in self.slots.iter().enumerate() {
            if slot
                .state
                .compare_exchange(CPU_IDLE, CPU_RUNNING, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                let rank = i + 1;
                slot.abort.store(false, Ordering::Release);
                slot.doomed.store(false, Ordering::Release);
                slot.doomed_hard.store(false, Ordering::Release);
                slot.orphaned.store(false, Ordering::Release);
                slot.logical.store(
                    self.fork_clock.fetch_add(1, Ordering::Relaxed),
                    Ordering::Release,
                );
                *slot.result.lock() = None;
                self.exposed.fetch_add(1, Ordering::AcqRel);
                slot.exposed.store(true, Ordering::Release);
                self.active.fetch_add(1, Ordering::AcqRel);
                self.most_speculative.store(rank, Ordering::Release);
                self.speculations.fetch_add(1, Ordering::Relaxed);
                return Some(rank);
            }
        }
        None
    }

    /// Dispatch a speculative task to an acquired CPU.  `site` and `model`
    /// identify the fork point and forking model for governor feedback.
    pub fn dispatch(&self, rank: Rank, site: SiteId, model: ForkModel, request: SpecRequest) {
        let slot = &self.slots[rank - 1];
        slot.site.store(site, Ordering::Relaxed);
        slot.model.store(model.index() as u8, Ordering::Relaxed);
        slot.forked_ns.store(self.trace_now_ns(), Ordering::Relaxed);
        self.governor.record_fork(site);
        let dispatch = &self.dispatch;
        let mut queue = dispatch.queue.lock();
        queue.tasks.push_back((rank, request));
        dispatch.queued.fetch_add(1, Ordering::Release);
        let wake = queue.sleepers > 0;
        drop(queue);
        if wake {
            dispatch.wake.notify_one();
        }
    }

    /// Signal every worker to shut down (used by `Runtime::drop`).
    pub fn shutdown_workers(&self) {
        self.dispatch.queue.lock().shutdown = true;
        self.dispatch.wake.notify_all();
    }

    /// Take the next dispatched task, waiting for one — a bounded spin,
    /// then parked (the paper's flag barrier).  `None` once `done()`
    /// holds or the runtime shuts down; `done` must only turn true through
    /// [`hand_back`](Self::hand_back), which wakes the sleepers.
    fn next_task(&self, done: impl Fn() -> bool) -> Option<(Rank, SpecRequest)> {
        let dispatch = &self.dispatch;
        let deadline = Instant::now() + IDLE_SPIN;
        while dispatch.queued.load(Ordering::Acquire) == 0 && !done() && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let mut queue = dispatch.queue.lock();
        loop {
            if done() || queue.shutdown {
                // A push wakes one sleeper; if that was this thread and it
                // leaves empty-handed, the wake-up moves on.
                if !queue.tasks.is_empty() && queue.sleepers > 0 {
                    dispatch.wake.notify_one();
                }
                return None;
            }
            if let Some(next) = queue.tasks.pop_front() {
                dispatch.queued.fetch_sub(1, Ordering::Release);
                return Some(next);
            }
            queue.sleepers += 1;
            dispatch.wake.wait(&mut queue);
            queue.sleepers -= 1;
        }
    }

    /// Run one dispatched task to its end on the calling OS thread: a
    /// worker's, or a displaced joiner's.
    fn run_task(self: &Arc<Self>, rank: Rank, request: SpecRequest) {
        let slot = &self.slots[rank - 1];
        let handoff = self
            .trace_now_ns()
            .saturating_sub(slot.forked_ns.load(Ordering::Relaxed));
        self.fastest_handoff_ns
            .fetch_min(handoff.max(1), Ordering::Relaxed);
        let mut ctx = SpecContext::speculative(Arc::clone(self), rank, request.regvars);
        let status = match (request.task)(&mut ctx) {
            Ok(()) => TaskStatus::Completed,
            Err(SpecAbort::BarrierReached) => TaskStatus::Barrier,
            Err(SpecAbort::Failed(reason)) => TaskStatus::Failed(reason),
        };
        ctx.conclude(status);
    }

    // ----- early synchronization ---------------------------------------

    /// Estimated cost of synchronizing a task that buffers `entries`
    /// words: the two hand-offs a promotion puts on the critical path (the
    /// late fork's dispatch and the hand-back), the promotion itself, and
    /// validating, committing and clearing the entries — hand-off and
    /// per-entry cost as the runtime measured them.
    fn sync_cost_ns(&self, entries: usize) -> u64 {
        let handoff = self.fastest_handoff_ns.load(Ordering::Relaxed);
        let per_entry = match self.sync_entries.load(Ordering::Relaxed) {
            0 => COLD_SYNC_ENTRY_NS,
            handled => self.sync_ns.load(Ordering::Relaxed) / handled,
        };
        2 * handoff + SYNC_BASE_NS + entries as u64 * per_entry
    }

    /// Rule (4) of the module docs: synchronizing may cost at most
    /// 1/[`SYNC_PAYBACK`] of the region it overlaps.
    pub(crate) fn sync_pays(&self, entries: usize, s1_ns: u64) -> bool {
        SYNC_PAYBACK.saturating_mul(self.sync_cost_ns(entries)) <= s1_ns
    }

    /// Feed one promotion's measured cost back into the estimate.
    pub(crate) fn record_sync(&self, ns: u64, entries: usize) {
        if entries > 0 {
            self.sync_ns.fetch_add(ns, Ordering::Relaxed);
            self.sync_entries
                .fetch_add(entries as u64, Ordering::Relaxed);
        }
    }

    /// Ask the task running on `rank` to synchronize early.  Only the
    /// task's joiner posts, and only while it waits at the join.
    pub(crate) fn post_sync(&self, rank: Rank, handoff: Arc<Handoff>) {
        let slot = &self.slots[rank - 1];
        *slot.sync.lock() = Some(handoff);
        // `Release`: the task that sees the flag finds the request.
        slot.sync_posted.store(true, Ordering::Release);
    }

    /// Whether a sync request waits on `rank`'s slot (the task's poll).
    #[inline]
    pub(crate) fn sync_posted(&self, rank: Rank) -> bool {
        self.slots[rank - 1].sync_posted.load(Ordering::Acquire)
    }

    /// Take the request posted on `rank`'s slot: the task that noticed it,
    /// or the joiner whose child finished without noticing.
    pub(crate) fn take_sync(&self, rank: Rank) -> Option<Arc<Handoff>> {
        let slot = &self.slots[rank - 1];
        slot.sync_posted.store(false, Ordering::Relaxed);
        slot.sync.lock().take()
    }

    /// Tell the joiner that the task on `rank` committed and took over the
    /// non-speculative role.  Must precede [`release_cpu`](Self::release_cpu):
    /// published under the lock the joiner takes outcomes under, it lets
    /// the joiner tell its own child's deposit from one a later task made
    /// on the recycled slot.
    pub(crate) fn publish_promotion(&self, rank: Rank, handoff: &Handoff) {
        let slot = &self.slots[rank - 1];
        {
            let _outcomes = slot.result.lock();
            handoff.state.store(SYNC_PROMOTED, Ordering::Release);
        }
        slot.signals.fetch_add(1, Ordering::Release);
        slot.result_cv.notify_all();
    }

    /// The promoted closure returned: give the non-speculative role back
    /// to the joiner it displaced.
    pub(crate) fn hand_back(&self, handoff: &Handoff, outcome: PromotedOutcome) {
        *handoff.result.lock() = Some(outcome);
        handoff.state.store(SYNC_FINISHED, Ordering::Release);
        // Under the queue lock the joiner checks `finished` and parks
        // under, so the wake-up cannot fall between the two.
        let queue = self.dispatch.queue.lock();
        if queue.sleepers > 0 {
            self.dispatch.wake.notify_all();
        }
    }

    /// The displaced joiner's wait: serve dispatched tasks on this OS
    /// thread until the promoted closure hands the role back.
    pub(crate) fn serve_until_handed_back(self: &Arc<Self>, handoff: &Handoff) -> PromotedOutcome {
        while let Some((rank, request)) = self.next_task(|| handoff.finished()) {
            self.run_task(rank, request);
        }
        let outcome = handoff.result.lock().take();
        outcome.expect("a finished hand-off carries its outcome")
    }

    /// The non-speculative joiner's wait — a bounded spin, then parked:
    /// `rank`'s outcome, or `None` once the task took `handoff`'s sync
    /// request and holds the non-speculative role.
    pub(crate) fn wait_outcome_or_promotion(
        &self,
        rank: Rank,
        handoff: Option<&Handoff>,
    ) -> Option<SpecOutcome> {
        let slot = &self.slots[rank - 1];
        let deadline = Instant::now() + IDLE_SPIN;
        let mut seen = slot.signals.load(Ordering::Acquire);
        let mut outcomes = slot.result.lock();
        loop {
            // Promotion first: once promoted, whatever sits in the slot
            // belongs to a later task (see `publish_promotion`).
            if handoff.is_some_and(Handoff::promoted) {
                return None;
            }
            if let Some(outcome) = outcomes.take() {
                return Some(outcome);
            }
            if Instant::now() < deadline {
                drop(outcomes);
                while slot.signals.load(Ordering::Acquire) == seen && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                seen = slot.signals.load(Ordering::Acquire);
                outcomes = slot.result.lock();
            } else {
                slot.result_cv.wait(&mut outcomes);
            }
        }
    }

    /// Hard-doom `rank`'s own task (a promotion that failed validation):
    /// every later poll fails too, so the task unwinds even if its code
    /// swallows the first error.
    pub(crate) fn doom_hard(&self, rank: Rank) {
        self.slots[rank - 1]
            .doomed_hard
            .store(true, Ordering::Release);
    }

    /// The (site, model) `rank`'s running task was dispatched with.
    pub(crate) fn launch_info(&self, rank: Rank) -> (SiteId, ForkModel) {
        self.slots[rank - 1].launch_info()
    }

    // ----- join path -------------------------------------------------

    /// True if the speculative thread `rank` has been asked to abort.
    pub fn abort_requested(&self, rank: Rank) -> bool {
        rank != 0 && self.slots[rank - 1].abort.load(Ordering::Relaxed)
    }

    /// True if the speculative thread `rank` was doomed surgically by a
    /// committing writer (its registered reads are stale; an in-flight
    /// value-predict retry may still clear it).
    pub fn doom_requested(&self, rank: Rank) -> bool {
        rank != 0 && self.slots[rank - 1].doomed.load(Ordering::Relaxed)
    }

    /// True if the speculative thread `rank` was doomed by a *buffered*
    /// (uncommitted) write overlapping its reads — unconditional, no
    /// value revalidation can clear it (the conflicting value is in a
    /// private write-set, invisible in main memory).
    pub fn hard_doom_requested(&self, rank: Rank) -> bool {
        rank != 0 && self.slots[rank - 1].doomed_hard.load(Ordering::Relaxed)
    }

    /// Clear `rank`'s (soft) doom flag after an in-flight value-predict
    /// retry re-validated (and re-stamped) every conflicting read: the
    /// doom was range-induced false sharing (or a value-identical write)
    /// and the thread may keep running.  A commit racing the retry
    /// re-dooms or is caught by join-time validation against the fresh
    /// stamps.  Hard dooms are never cleared.
    pub fn clear_doom(&self, rank: Rank) {
        if rank != 0 {
            self.slots[rank - 1].doomed.store(false, Ordering::Release);
        }
    }

    /// Doom exactly the threads registered as readers of the ranges
    /// covering `addrs` — called by a committing writer right after the
    /// ranges were stamped (or by a rollback about to re-execute them).
    /// `exclude` (the finishing child, whose registrations are already
    /// dead) is never doomed.  Returns how many threads were doomed.
    /// Enumeration is complete at any thread count: ranks past the
    /// registry's 63-rank bitmask sit in a spill set per range
    /// (`CommitLogStats::reader_spills` counts their registrations).
    ///
    /// Dooming is sound in every interleaving: a doomed thread rolls back
    /// and re-executes, so a *spurious* doom (stale registration, or a
    /// registration racing the commit) costs time, never correctness —
    /// and join-time validation remains the oracle for anything the
    /// registry missed.  It is not optional, though: a running
    /// speculative thread polls its flags and nothing else
    /// (`SpecContext::poll`), so a doom is the one thing that stops a
    /// reader whose stale data keeps it from ever reaching its join.
    pub fn doom_readers<I: IntoIterator<Item = Addr>>(&self, addrs: I, exclude: Rank) -> u64 {
        self.doom_readers_with(addrs, exclude, false)
    }

    /// Like [`doom_readers`](Self::doom_readers), but the conflicting
    /// write is *buffered* (a speculative writer's private write-set), so
    /// the victims' doom is **hard**: no value revalidation against main
    /// memory can clear it.  This is what stops the doomed-from-birth
    /// children of an inline re-execution within one poll interval —
    /// they read main memory underneath their (re-executing) parent's
    /// uncommitted writes and can never validate.
    pub fn doom_readers_hard<I: IntoIterator<Item = Addr>>(&self, addrs: I, exclude: Rank) -> u64 {
        self.doom_readers_with(addrs, exclude, true)
    }

    /// The logical-rank stamp of `rank`'s current task (0 for the
    /// non-speculative thread, which is logically earliest).
    fn logical_of(&self, rank: Rank) -> u64 {
        if rank == 0 || rank > self.slots.len() {
            0
        } else {
            self.slots[rank - 1].logical.load(Ordering::Acquire)
        }
    }

    fn doom_readers_with<I: IntoIterator<Item = Addr>>(
        &self,
        addrs: I,
        exclude: Rank,
        hard: bool,
    ) -> u64 {
        let set = self.commit_log.take_readers(addrs);
        if set.is_empty() {
            return 0;
        }
        // Logical-order filter: a reader forked *before* the committing
        // writer executes logically earlier work, so its reads are
        // legitimately allowed to precede the write (the RMW-predecessor
        // pattern: the forker read the cell, forked the continuation,
        // and the continuation's commit must not doom it).  Skipping a
        // predecessor is always sound: its read is not stale, so no
        // verdict is owed to it.
        let committer = self.logical_of(exclude);
        let mut doomed = 0;
        for rank in set.ranks() {
            if rank == exclude || rank > self.slots.len() {
                continue;
            }
            let slot = &self.slots[rank - 1];
            // Only running threads are doomed — an idle slot's
            // registration is stale.
            if slot.state.load(Ordering::Acquire) == CPU_RUNNING
                && slot.logical.load(Ordering::Acquire) >= committer
            {
                if hard {
                    slot.doomed_hard.store(true, Ordering::Release);
                } else {
                    slot.doomed.store(true, Ordering::Release);
                }
                doomed += 1;
            }
        }
        doomed
    }

    /// The doom set of a join that failed dependence validation and could
    /// not retry: the registered readers of the child's write ranges,
    /// which the inline re-execution is about to rewrite — always a subset
    /// of the active speculative threads.  Registry enumeration is
    /// complete at any thread count (see
    /// [`doom_readers`](Self::doom_readers)).
    pub fn plan_rollback_recovery(&self, child: Rank, outcome: &SpecOutcome) -> Vec<Rank> {
        let set = self
            .commit_log
            .take_readers(outcome.buffers.global.write_addresses());
        // Same logical-order filter as `doom_readers_with`: the failing
        // child's re-execution rewrites its ranges, but readers running
        // logically *earlier* work are entitled to the pre-write values.
        let committer = self.logical_of(child);
        set.ranks()
            .filter(|&r| r != child && self.logical_of(r) >= committer)
            .collect()
    }

    /// Block until the speculative thread `rank` deposits its outcome, then
    /// take it.
    pub fn wait_outcome(&self, rank: Rank) -> SpecOutcome {
        let slot = &self.slots[rank - 1];
        let mut guard = slot.result.lock();
        while guard.is_none() {
            slot.result_cv.wait(&mut guard);
        }
        guard.take().expect("outcome present")
    }

    /// Like [`wait_outcome`](Self::wait_outcome), but the wait is
    /// abandoned (returning `None`) when `abandon()` reports that the
    /// *waiting* thread should stop — it was doomed or aborted while
    /// blocked at the join.  Without this, a doomed speculative joiner
    /// would sit out its child's entire (equally doomed) subtree before
    /// noticing; with it, the doom unwinds the whole blocked chain within
    /// the polling interval.  The abandoning caller still owns the child
    /// and must reap it.
    pub fn wait_outcome_where(
        &self,
        rank: Rank,
        mut abandon: impl FnMut() -> bool,
    ) -> Option<SpecOutcome> {
        const DOOM_POLL: std::time::Duration = std::time::Duration::from_micros(100);
        let slot = &self.slots[rank - 1];
        loop {
            if let Some(outcome) = slot.result.lock().take() {
                return Some(outcome);
            }
            // Outside the lock: a waiter that takes a sync request here
            // validates and commits, and the child must stay free to
            // deposit meanwhile.
            if abandon() {
                return None;
            }
            let mut guard = slot.result.lock();
            if guard.is_none() {
                let _ = slot.result_cv.wait_for(&mut guard, DOOM_POLL);
            }
        }
    }

    /// Deposit the outcome of a finished speculative task.  Returns `true`
    /// if someone will join it, `false` if it was orphaned and the worker
    /// must clean up after itself.
    pub fn deposit_outcome(&self, rank: Rank, outcome: SpecOutcome) -> bool {
        let slot = &self.slots[rank - 1];
        if matches!(outcome.status, TaskStatus::Failed(_)) {
            self.retire_exposure(slot);
        }
        {
            let mut guard = slot.result.lock();
            *guard = Some(outcome);
        }
        slot.signals.fetch_add(1, Ordering::Release);
        slot.result_cv.notify_all();
        if slot.orphaned.load(Ordering::Acquire) {
            // Re-take it; if the canceller got there first we are done.
            let taken = slot.result.lock().take();
            if let Some(outcome) = taken {
                self.finish_discarded(rank, outcome);
                return false;
            }
        }
        true
    }

    /// Release a virtual CPU after its outcome has been consumed.
    pub fn release_cpu(&self, rank: Rank, joiner: Rank) {
        let slot = &self.slots[rank - 1];
        self.retire_exposure(slot);
        slot.state.store(CPU_IDLE, Ordering::Release);
        self.active.fetch_sub(1, Ordering::AcqRel);
        let _ = self.most_speculative.compare_exchange(
            rank,
            joiner,
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
    }

    /// A deposited thread nobody will join is discarded, its subtree first.
    fn finish_discarded(&self, rank: Rank, outcome: SpecOutcome) {
        for child in &outcome.children {
            self.reap_subtree(*child);
        }
        self.discard(rank, outcome);
    }

    /// Abort and *synchronously* drain a speculative subtree: waits for
    /// every thread in the subtree to stop, accounts their work as wasted
    /// and reclaims their CPUs.  Used when a speculative region ends with
    /// children still unjoined.
    pub fn drain_subtree(&self, rank: Rank) {
        let slot = &self.slots[rank - 1];
        slot.abort.store(true, Ordering::Release);
        let outcome = self.wait_outcome(rank);
        for child in &outcome.children {
            self.drain_subtree(*child);
        }
        self.discard(rank, outcome);
    }

    /// Discard a stopped thread without a join of its own — a cascaded
    /// rollback — and free its CPU.
    fn discard(&self, rank: Rank, mut outcome: SpecOutcome) {
        // Dead registrations only cause spurious dooms.
        self.commit_log
            .unregister_reader(outcome.buffers.global.read_addresses(), rank);
        let (site, model) = self.slots[rank - 1].launch_info();
        let blamed = SpecFailure::Cascaded;
        let counters = &mut outcome.stats.counters;
        self.observe(rank, site, counters, Point::Cascaded(blamed));
        self.close_books(rank, site, model, outcome, Err(blamed));
        self.release_cpu(rank, 0);
    }

    /// Abort an entire speculative subtree rooted at `rank` (paper §IV-F:
    /// cascading rollbacks are confined to the subtree).
    pub fn reap_subtree(&self, rank: Rank) {
        let slot = &self.slots[rank - 1];
        slot.abort.store(true, Ordering::Release);
        slot.orphaned.store(true, Ordering::Release);
        // If the outcome is already there, clean up now; otherwise the
        // worker will observe `orphaned` when it deposits.
        let taken = slot.result.lock().take();
        if let Some(outcome) = taken {
            self.finish_discarded(rank, outcome);
        }
    }

    /// Opportunistically **adopt** the subtree rooted at `rank` instead of
    /// reaping it: a grandchild left unjoined by a child that just
    /// committed ran logically *after* state that has already reached the
    /// commit log, so its work is only stale if validation says so — it
    /// must not be re-speculated from scratch just because its joiner
    /// finished first.  Non-blocking: a thread that already deposited a
    /// `Completed` outcome is validated and committed/absorbed exactly
    /// like a joined child (recursing into *its* unjoined children on
    /// success); anything still running, failed, or conflicting is reaped
    /// as before.  Returns the number of threads whose work was salvaged.
    pub fn adopt_subtree(&self, rank: Rank, mut parent_buffer: Option<&mut GlobalBuffer>) -> u64 {
        let taken = self.slots[rank - 1].result.lock().take();
        let Some(mut outcome) = taken else {
            // Still running: joining would block the adopter on an
            // unbounded subtree — fall back to the reap.
            self.reap_subtree(rank);
            return 0;
        };
        if outcome.status != TaskStatus::Completed {
            self.finish_discarded(rank, outcome);
            return 0;
        }
        let verdict = self.validate_and_commit(rank, &mut outcome, parent_buffer.as_deref_mut());
        let children = std::mem::take(&mut outcome.children);
        let (site, model) = self.slots[rank - 1].launch_info();
        self.settle_child(rank, site, model, outcome, verdict);
        self.release_cpu(rank, 0);
        if verdict.is_err() {
            // `validate_and_commit` already unregistered the readers and
            // planned the rollback recovery; the subtree below a
            // conflicting thread read underneath it and only
            // re-speculation repairs it.
            for grandchild in children {
                self.reap_subtree(grandchild);
            }
            return 0;
        }
        let mut adopted = 1;
        for grandchild in children {
            adopted += self.adopt_subtree(grandchild, parent_buffer.as_deref_mut());
        }
        adopted
    }

    /// Validate a finished child and either publish, retry or discard its
    /// buffers — the join half of the **recovery engine**, which picks the
    /// cheapest sound repair per conflict (the README's decision table).
    ///
    /// `child` is the virtual CPU the task ran on (0 in unit tests that
    /// drive the protocol by hand); `parent_buffer` is `Some` when the
    /// joiner is itself speculative, in which case a valid child is
    /// *absorbed* into the parent's buffers instead of being committed to
    /// main memory.
    ///
    /// Validation is the real dependence check of paper §IV-F: every
    /// read-set entry is checked against the shared [`CommitLog`] — did a
    /// logically earlier thread commit a write to this address *after* we
    /// read it?  (Joins happen in logical order — speculative parents
    /// absorb their children and only the non-speculative joiner publishes
    /// to main memory — so every commit racing a child is by a logical
    /// predecessor.)  When the joiner is itself speculative, the child's
    /// reads are additionally compared against the parent's uncommitted
    /// write-set overlay, since the child could not observe those
    /// logically earlier writes at all.
    ///
    /// The recovery ladder on a conflict:
    ///
    /// 1. **Value-predict retry**: if every conflicting read still holds
    ///    its first-read value, re-stamp and commit in place — no
    ///    re-execution, `Ok(CommitKind::Retried)`.
    /// 2. **Targeted dooming**: otherwise enumerate the registered
    ///    readers of the child's write ranges (the inline re-execution is
    ///    about to rewrite them) and doom exactly those threads.
    ///
    /// Returns `Ok(kind)` on commit and `Err(reason)` on rollback.
    /// Validation/commit/finalize time is charged to the child's
    /// statistics, matching the paper's attribution of those phases to the
    /// speculative path.
    pub fn validate_and_commit(
        &self,
        child: Rank,
        outcome: &mut SpecOutcome,
        parent_buffer: Option<&mut GlobalBuffer>,
    ) -> Result<CommitKind, SpecFailure> {
        debug_assert!(
            self.exposure_matches(child, outcome.status),
            "rank {child}: a {:?} outcome reached the join with the wrong exposure",
            outcome.status
        );
        let started = Instant::now();
        let mem: &GlobalMemory = &self.memory;
        let site = self.site_of(child);
        // The points below are the child's, on its lane and in its books.
        let note = |outcome: &mut SpecOutcome, point| {
            self.observe(child, site, &mut outcome.stats.counters, point);
        };
        let ranges = outcome.buffers.global.read_set_len() as u32;
        note(outcome, Point::ValidateBegin(ranges));

        let failure = match outcome.status {
            TaskStatus::Failed(reason) => Some(reason),
            TaskStatus::Completed | TaskStatus::Barrier => None,
        };
        if let Some(reason) = failure {
            if reason == SpecFailure::ReadConflict && self.grain.is_some() {
                // An eagerly doomed thread never reaches join-time
                // validation, but its read set still holds the stale
                // entries: attribute them so the grain controller sees
                // contended regions regardless of *when* the conflict
                // surfaced.
                outcome
                    .buffers
                    .global
                    .attribute_conflicts(&self.commit_log, mem);
            }
            // The thread is dead either way: its registrations would only
            // cause spurious dooms from here on.  In-flight doom-watch
            // revalidations may still have precise-passed before the final
            // failure — keep those counted.
            let precise = outcome.buffers.global.stats().precise_passes;
            self.commit_log
                .unregister_reader(outcome.buffers.global.read_addresses(), child);
            let took = elapsed_ns(started);
            outcome.stats.add(Phase::Validation, took);
            note(outcome, Point::PrecisePasses(precise));
            let validated = Point::Validated {
                outcome: ValidateOutcome::Failed,
                took,
                retry: None,
            };
            note(outcome, validated);
            let plan = PlanArm::None;
            note(outcome, Point::RolledBack { reason, plan });
            return Err(reason);
        }

        // Dependence validation against the commit log (range grain,
        // classifying suspected false sharing), plus the parent write-set
        // overlay when the joiner is speculative.
        let precise_before = outcome.buffers.global.stats().precise_passes;
        let log_verdict = outcome
            .buffers
            .global
            .validate_against_with(&self.commit_log, mem);
        let mut retried = false;
        let log_valid = match log_verdict {
            Validation::Valid => true,
            Validation::Conflict { .. } => {
                // Recovery rung 1 — value prediction: the current
                // committed values validate the reads, so the execution
                // is equivalent to one that read after those commits.
                retried = outcome
                    .buffers
                    .global
                    .revalidate_by_value(&self.commit_log, mem);
                retried
            }
        };
        // The joining parent's view of a word: its own uncommitted
        // write-set overlaid on main memory.  Shared by overlay
        // validation and (on its failure) the per-region conflict
        // attribution, so the mask-merge semantics cannot drift apart.
        let overlay_view = |parent: &GlobalBuffer, addr: Addr| match parent
            .write_entries()
            .find(|e| e.addr == addr)
        {
            Some(e) if e.mask == u64::MAX => e.data,
            Some(e) => (mem.read_word(addr) & !e.mask) | (e.data & e.mask),
            None => mem.read_word(addr),
        };
        let valid = log_valid
            && match &parent_buffer {
                None => true,
                Some(parent) => outcome
                    .buffers
                    .global
                    .validate_view(|addr| overlay_view(parent, addr)),
            };
        let took = elapsed_ns(started);
        outcome.stats.add(Phase::Validation, took);
        // Single capture point for the buffer's ring-precision counter:
        // it covers both this join-time validation and any in-flight
        // doom-watch revalidations the thread survived along the way.
        let precise_total = outcome.buffers.global.stats().precise_passes;
        let suspect = Validation::Conflict {
            suspected_false_sharing: true,
        };
        let verdict = if !valid && log_verdict == suspect {
            // Every conflicting word still held its first-read value: the
            // rollback is most likely grain-induced false sharing (or a
            // value-identical ABA write), not a proven dependence
            // violation — recorded so the governor and the reports can
            // tell the regimes apart.
            ValidateOutcome::ConservativeDoom
        } else if !valid {
            ValidateOutcome::Conflict
        } else if retried {
            ValidateOutcome::Retried
        } else if precise_total > precise_before {
            ValidateOutcome::PrecisePass
        } else {
            ValidateOutcome::Clean
        };
        note(outcome, Point::PrecisePasses(precise_total));
        let validated = Point::Validated {
            outcome: verdict,
            took,
            // The in-place re-stamp is the whole repair for this arm.
            retry: retried.then_some(took),
        };
        note(outcome, validated);
        if !valid {
            if self.grain.is_some() {
                // Per-region conflict attribution — the grain
                // controller's split signal (only the extra read-set scan
                // is gated; the counters themselves are always-on).
                if !log_valid {
                    outcome
                        .buffers
                        .global
                        .attribute_conflicts(&self.commit_log, mem);
                } else if let Some(parent) = &parent_buffer {
                    // The conflict lives in the speculative parent's
                    // uncommitted overlay, invisible to the commit log;
                    // attribute the mismatching words' regions directly
                    // (true sharing by construction — the values differ).
                    // Dedup with a real set: read-set order is temporal,
                    // so interleaved regions are not adjacent.
                    let mut seen: std::collections::HashSet<mutls_membuf::RegionId> =
                        std::collections::HashSet::new();
                    for entry in outcome.buffers.global.read_entries() {
                        if overlay_view(parent, entry.addr) == entry.data {
                            continue;
                        }
                        if seen.insert(self.commit_log.region_of(entry.addr)) {
                            self.commit_log.note_conflict(entry.addr, false);
                        }
                    }
                }
            }
            self.commit_log
                .unregister_reader(outcome.buffers.global.read_addresses(), child);
            // Recovery rung 2 — the re-execution will rewrite the
            // child's write ranges; doom their registered readers now
            // instead of letting them burn their whole conflict window.
            let victims = self.doom_ranks(&self.plan_rollback_recovery(child, outcome));
            let (source, reason) = (DoomSource::Rollback, SpecFailure::ReadConflict);
            note(outcome, Point::Doomed { source, victims });
            let plan = PlanArm::DoomSet;
            note(outcome, Point::RolledBack { reason, plan });
            return Err(reason);
        }

        // Injected rollback — only under the opt-in sensitivity mode
        // (`RollbackSource::Injected`, paper §V-D).
        if self.draw_injected_rollback() {
            self.commit_log
                .unregister_reader(outcome.buffers.global.read_addresses(), child);
            let (reason, plan) = (SpecFailure::Injected, PlanArm::None);
            note(outcome, Point::RolledBack { reason, plan });
            return Err(reason);
        }

        // Commit.  Publishing to main memory records the batch in the
        // commit log (memory first, then the version bump — see the
        // ordering protocol on `CommitLog`), which is what dooms any
        // still-running logical successor that read stale values — now
        // surgically, through the reader registry.
        let commit_started = Instant::now();
        let commit_result = match parent_buffer {
            None => {
                // The child's own registrations die before its writes
                // publish, so an RMW thread never dooms itself.
                self.commit_log
                    .unregister_reader(outcome.buffers.global.read_addresses(), child);
                outcome.buffers.global.commit(mem);
                if outcome.buffers.global.write_set_len() > 0 {
                    let stamp_started = Instant::now();
                    let (_, attempts) = self
                        .commit_log
                        .record_counted(outcome.buffers.global.write_addresses());
                    note(outcome, Point::CommitStamped(elapsed_ns(stamp_started)));
                    // Contended batches surface their CAS-loop losses;
                    // uncontended commits stay silent, so the sample count
                    // doubles as a contention signal.
                    if attempts > 0 {
                        note(outcome, Point::CommitCasRetried(attempts));
                    }
                    let victims =
                        self.doom_readers(outcome.buffers.global.write_addresses(), child);
                    let source = DoomSource::Commit;
                    note(outcome, Point::Doomed { source, victims });
                }
                Ok(())
            }
            Some(parent) => {
                let absorbed = parent.absorb(&outcome.buffers.global);
                match absorbed {
                    Ok(()) => {
                        // The child's read dependences became the
                        // parent's: future commits to those ranges must
                        // doom the parent now.  Transferred only *after*
                        // a successful absorb — on overflow the child is
                        // discarded and the parent must not inherit
                        // registrations for ranges it never read.
                        self.commit_log.transfer_reader(
                            outcome.buffers.global.read_addresses(),
                            child,
                            parent.reader(),
                        );
                    }
                    Err(_) => {
                        // The child is about to be discarded; its
                        // registrations are dead.
                        self.commit_log
                            .unregister_reader(outcome.buffers.global.read_addresses(), child);
                    }
                }
                absorbed
            }
        };
        outcome.stats.add(Phase::Commit, elapsed_ns(commit_started));
        match commit_result {
            Ok(()) => {
                // (A hand-driven rank 0 was never dispatched.)
                let forked = child
                    .checked_sub(1)
                    .map_or(0, |slot| self.slots[slot].forked_ns.load(Ordering::Relaxed));
                let since_fork = self.trace_now_ns().saturating_sub(forked);
                let committed = Point::Committed {
                    retried,
                    since_fork,
                };
                note(outcome, committed);
                Ok(if retried {
                    CommitKind::Retried
                } else {
                    CommitKind::Committed
                })
            }
            // The parent could not hold the child's data; discard the child.
            Err(_) => {
                let (reason, plan) = (SpecFailure::BufferOverflow, PlanArm::None);
                note(outcome, Point::RolledBack { reason, plan });
                Err(reason)
            }
        }
    }

    /// A joined (or promoted, or adopted) child's verdict is in: one
    /// commit/validate event on the grain controller's clock, then its
    /// books are closed.  The caller still owns the CPU and releases it.
    pub(crate) fn settle_child(
        &self,
        child: Rank,
        site: SiteId,
        model: ForkModel,
        outcome: SpecOutcome,
        verdict: Result<CommitKind, SpecFailure>,
    ) {
        self.tick_grain_controller();
        self.close_books(child, site, model, outcome, verdict);
    }

    /// Close the books of a thread whose fate is known — the one place a
    /// finished thread is accounted for, whether it was joined, promoted,
    /// adopted or discarded: park its buffers for its CPU's next task
    /// (finalization is charged to the speculative path, as in the
    /// paper's breakdown), reclassify a rolled-back thread's work as
    /// wasted, feed the verdict to the governor's site profile — with the
    /// false-sharing classification, the retry verdict and the live grain,
    /// so Throttle can tell the regimes apart — and fold the statistics
    /// into the registry and the run's totals.
    fn close_books(
        &self,
        rank: Rank,
        site: SiteId,
        model: ForkModel,
        outcome: SpecOutcome,
        verdict: Result<CommitKind, SpecFailure>,
    ) {
        // Observed before the buffers are cleared.
        let observed_grain = self.observed_grain(&outcome);
        let finalize_started = Instant::now();
        self.return_buffers(rank, outcome.buffers);
        let mut stats = outcome.stats;
        stats.add(Phase::Finalize, elapsed_ns(finalize_started));
        let (site_outcome, cycles) = match verdict {
            Ok(kind) => {
                let work = stats.get(Phase::Work);
                let committed = SiteOutcome::committed(work, stats.get(Phase::Idle), model);
                (committed.with_retry(kind.retried()), work)
            }
            Err(reason) => {
                stats.mark_work_wasted();
                let wasted = stats.get(Phase::WastedWork);
                let rolled_back =
                    SiteOutcome::rolled_back(reason, wasted, stats.get(Phase::Idle), model);
                let suspect = stats.counters.false_sharing_suspects > 0;
                (rolled_back.with_false_sharing(suspect), wasted)
            }
        };
        self.governor
            .record_outcome(site, &site_outcome.with_grain(observed_grain));
        let retired = Point::Retired {
            committed: verdict.is_ok(),
            cycles,
            total: stats.total(),
        };
        self.observe(rank, site, &mut stats.counters, retired);
        self.accum
            .lock()
            .fold(&stats, verdict.map(CommitKind::retried));
    }

    /// Apply a doom set (see
    /// [`plan_rollback_recovery`](Self::plan_rollback_recovery)): set the
    /// doom flag of every listed rank that is still running.  Returns how many were doomed.
    fn doom_ranks(&self, ranks: &[Rank]) -> u64 {
        let mut doomed = 0;
        for &rank in ranks {
            if rank == 0 || rank > self.slots.len() {
                continue;
            }
            let slot = &self.slots[rank - 1];
            if slot.state.load(Ordering::Acquire) == CPU_RUNNING {
                slot.doomed.store(true, Ordering::Release);
                doomed += 1;
            }
        }
        doomed
    }

    /// Draw from the rollback-injection distribution.  Always `false`
    /// unless the sensitivity mode ([`RollbackSource::Injected`]) is
    /// enabled — real conflicts are the default rollback source.
    pub fn draw_injected_rollback(&self) -> bool {
        if self.config.rollback_source != RollbackSource::Injected {
            return false;
        }
        let p = self.config.rollback_probability;
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.rng.lock().gen_bool(p)
    }

    /// Wait until no speculative thread is in flight.  Orphans were
    /// aborted by their reaper and stop within one poll interval; waiting
    /// them out keeps them from folding their discard into the totals
    /// after the run's report was taken, or into the next run's.
    pub(crate) fn wait_quiescent(&self) {
        while self.active.load(Ordering::Acquire) != 0 {
            std::thread::yield_now();
        }
        debug_assert_eq!(self.exposed_speculations(), 0, "an exposure leaked");
    }

    /// Reset the per-run accumulators, the commit log and the governor's
    /// site profiles (called at the start of `Runtime::run`).
    pub fn reset_run(&self) {
        self.wait_quiescent();
        *self.accum.lock() = RunTotals::default();
        self.commit_log.clear();
        self.governor.reset();
        if let Some(controller) = &self.grain {
            controller.lock().reset();
        }
        self.grain_events.store(0, Ordering::Relaxed);
        self.recorder.reset();
        self.metrics.reset();
    }

    /// Scrape and append one sample to the hub's bounded series (the
    /// sampler tick).
    pub fn sample_metrics(&self) {
        let snapshot = self.scrape_metrics(self.trace_now_ns());
        self.metrics.push(snapshot);
    }

    /// Take a snapshot of the per-run accumulators: speculative-path
    /// stats, committed / rolled-back / retried thread counts and the
    /// per-reason rollback breakdown.
    pub fn run_snapshot(&self) -> RunTotals {
        self.accum.lock().clone()
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Loop of the `num_cpus` OS threads [`Runtime`](crate::Runtime) spawns:
/// run dispatched tasks until shutdown.
pub(crate) fn worker_loop(mgr: Arc<ThreadManager>) {
    while let Some((rank, request)) = mgr.next_task(|| false) {
        mgr.run_task(rank, request);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr(cpus: usize) -> Arc<ThreadManager> {
        ThreadManager::new(RuntimeConfig::with_cpus(cpus).memory_bytes(1 << 16))
    }

    /// A one-CPU manager whose CPU (rank 1) is acquired: the join protocol
    /// only consumes outcomes of an acquired CPU.
    fn mgr_with_child() -> Arc<ThreadManager> {
        let m = mgr(1);
        assert_eq!(m.try_acquire_cpu(0, ForkModel::Mixed), Some(1));
        m
    }

    #[test]
    fn acquire_respects_cpu_count() {
        let m = mgr(2);
        let a = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
        let b = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
        assert_ne!(a, b);
        assert!(m.try_acquire_cpu(0, ForkModel::Mixed).is_none());
        m.release_cpu(a, 0);
        assert!(m.try_acquire_cpu(0, ForkModel::Mixed).is_some());
    }

    #[test]
    fn synchronizing_may_cost_an_eighth_of_the_region_it_overlaps() {
        let m = mgr(1);
        // Nothing measured yet: two cold hand-offs, the base cost, and a
        // cold price per entry.
        let cold = 2 * COLD_HANDOFF_NS + SYNC_BASE_NS;
        assert!(m.sync_pays(0, SYNC_PAYBACK * cold));
        assert!(!m.sync_pays(0, SYNC_PAYBACK * cold - 1));
        assert!(!m.sync_pays(0, 0), "forked and joined at once");
        assert!(m.sync_pays(0, 16_000_000), "compute_loop's chunks");
        assert!(!m.sync_pays(650, 12_000), "md's chunks");
        // 650 entries measured at 14 µs: 21 ns each from now on.
        m.record_sync(14_000, 650);
        m.record_sync(3_000, 0);
        let measured = cold + 650 * 21;
        assert!(m.sync_pays(650, SYNC_PAYBACK * measured));
        assert!(!m.sync_pays(650, SYNC_PAYBACK * measured - 1));
        // A hand-off between running threads replaces the cold estimate; a
        // slower one (a first wake-up) never raises it.
        m.fastest_handoff_ns.fetch_min(1_000, Ordering::Relaxed);
        m.fastest_handoff_ns.fetch_min(90_000, Ordering::Relaxed);
        assert!(m.sync_pays(0, SYNC_PAYBACK * (2_000 + SYNC_BASE_NS)));
        assert!(!m.sync_pays(650, 12_000), "md's chunks, warmed up");
    }

    #[test]
    fn out_of_order_denies_speculative_forkers() {
        let m = mgr(4);
        let child = m.try_acquire_cpu(0, ForkModel::OutOfOrder).unwrap();
        // The speculative child may not fork under out-of-order.
        assert!(m.try_acquire_cpu(child, ForkModel::OutOfOrder).is_none());
        // But the non-speculative thread may keep forking.
        assert!(m.try_acquire_cpu(0, ForkModel::OutOfOrder).is_some());
    }

    #[test]
    fn in_order_only_most_speculative_forks() {
        let m = mgr(4);
        let first = m.try_acquire_cpu(0, ForkModel::InOrder).unwrap();
        // Non-speculative thread is no longer the most speculative.
        assert!(m.try_acquire_cpu(0, ForkModel::InOrder).is_none());
        let second = m.try_acquire_cpu(first, ForkModel::InOrder).unwrap();
        assert!(m.try_acquire_cpu(first, ForkModel::InOrder).is_none());
        assert!(m.try_acquire_cpu(second, ForkModel::InOrder).is_some());
    }

    #[test]
    fn mixed_allows_any_forker() {
        let m = mgr(4);
        let a = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
        let b = m.try_acquire_cpu(a, ForkModel::Mixed).unwrap();
        assert!(m.try_acquire_cpu(b, ForkModel::Mixed).is_some());
        assert!(m.try_acquire_cpu(0, ForkModel::Mixed).is_some());
        assert_eq!(m.active_speculations(), 4);
    }

    #[test]
    fn release_restores_most_speculative_to_joiner() {
        let m = mgr(2);
        let a = m.try_acquire_cpu(0, ForkModel::InOrder).unwrap();
        m.release_cpu(a, 0);
        // After the join the non-speculative thread can speculate again.
        assert!(m.try_acquire_cpu(0, ForkModel::InOrder).is_some());
    }

    #[test]
    fn rollback_injection_extremes() {
        let m = ThreadManager::new(
            RuntimeConfig::with_cpus(1)
                .memory_bytes(1 << 12)
                .rollback_probability(0.0),
        );
        assert!(!m.draw_injected_rollback());
        let m = ThreadManager::new(
            RuntimeConfig::with_cpus(1)
                .memory_bytes(1 << 12)
                .rollback_probability(1.0),
        );
        assert!(m.draw_injected_rollback());
    }

    #[test]
    fn injection_requires_the_sensitivity_mode() {
        // A probability set without opting into RollbackSource::Injected
        // (e.g. by direct field assignment) never injects: real conflicts
        // are the only rollback source by default.
        let mut config = RuntimeConfig::with_cpus(1).memory_bytes(1 << 12);
        config.rollback_probability = 1.0;
        assert_eq!(config.rollback_source, crate::RollbackSource::Real);
        let m = ThreadManager::new(config);
        assert!(!m.draw_injected_rollback());
    }

    /// A completed outcome wrapping `buffers`, ready for the join protocol.
    fn completed(buffers: ThreadBuffers) -> SpecOutcome {
        SpecOutcome {
            status: TaskStatus::Completed,
            buffers,
            children: Vec::new(),
            stats: ThreadStats::new(),
            finished_at: Instant::now(),
            settled: false,
        }
    }

    /// Buffers for a hand-driven thread (rank 0 stands in for "some
    /// writer" in the commit tests, so these bypass the per-CPU slots).
    fn fresh_buffers(m: &ThreadManager, rank: Rank) -> ThreadBuffers {
        ThreadBuffers::new(m.config(), rank)
    }

    /// An empty outcome of the acquired CPU `rank`, stopped with `status`.
    fn stopped(m: &ThreadManager, rank: Rank, status: TaskStatus) -> SpecOutcome {
        SpecOutcome {
            status,
            ..completed(m.take_buffers(rank))
        }
    }

    #[test]
    fn exposure_is_raised_at_acquire_and_retired_at_a_failed_deposit_or_release() {
        let m = mgr(3);
        assert_eq!(m.exposed_speculations(), 0);
        let failed = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
        let done = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
        let parked = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
        assert_eq!(m.exposed_speculations(), 3, "acquire exposes");

        // A failed outcome is never validated: dead at its deposit.
        let overflow = TaskStatus::Failed(SpecFailure::BufferOverflow);
        assert!(m.deposit_outcome(failed, stopped(&m, failed, overflow)));
        assert_eq!(m.exposed_speculations(), 2, "a Failed deposit retires");

        // Completed and Barrier outcomes are validated when consumed.
        assert!(m.deposit_outcome(done, stopped(&m, done, TaskStatus::Completed)));
        assert!(m.deposit_outcome(parked, stopped(&m, parked, TaskStatus::Barrier)));
        assert_eq!(
            m.exposed_speculations(),
            2,
            "consumable outcomes stay exposed"
        );

        // Releasing the already-retired slot must not retire a second time.
        m.release_cpu(failed, 0);
        assert_eq!(m.exposed_speculations(), 2, "double retire is a no-op");
        m.release_cpu(done, 0);
        m.release_cpu(parked, 0);
        assert_eq!(m.exposed_speculations(), 0, "release retires");
        assert_eq!(m.active_speculations(), 0);

        // A re-acquired slot is exposed afresh.
        let again = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
        assert_eq!(m.exposed_speculations(), 1);
        m.release_cpu(again, 0);
        m.reset_run();
    }

    #[test]
    fn every_discard_path_ends_with_no_exposure() {
        let cascaded = TaskStatus::Failed(SpecFailure::Cascaded);
        for status in [TaskStatus::Completed, TaskStatus::Barrier, cascaded] {
            let m = mgr(2);

            // Orphaned before it deposits: the worker cleans up itself.
            let orphan = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
            m.reap_subtree(orphan);
            assert_eq!(m.exposed_speculations(), 1, "still running");
            assert!(!m.deposit_outcome(orphan, stopped(&m, orphan, status)));
            assert_eq!(m.exposed_speculations(), 0, "orphaned deposit, {status:?}");

            // Reaped after it deposited, with a child of its own.
            let parent = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
            let child = m.try_acquire_cpu(parent, ForkModel::Mixed).unwrap();
            assert!(m.deposit_outcome(child, stopped(&m, child, status)));
            let mut outcome = stopped(&m, parent, status);
            outcome.children.push(child);
            assert!(m.deposit_outcome(parent, outcome));
            m.reap_subtree(parent);
            assert_eq!(m.exposed_speculations(), 0, "reap_subtree, {status:?}");

            // Drained at the end of a region.
            let unjoined = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
            assert!(m.deposit_outcome(unjoined, stopped(&m, unjoined, status)));
            m.drain_subtree(unjoined);
            assert_eq!(m.exposed_speculations(), 0, "drain_subtree, {status:?}");

            // Adopted (committed when Completed, discarded otherwise),
            // with a still-running grandchild that adoption reaps.
            let adoptee = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
            let running = m.try_acquire_cpu(adoptee, ForkModel::Mixed).unwrap();
            let mut outcome = stopped(&m, adoptee, status);
            outcome.children.push(running);
            assert!(m.deposit_outcome(adoptee, outcome));
            let adopted = m.adopt_subtree(adoptee, None);
            assert_eq!(adopted, u64::from(status == TaskStatus::Completed));
            assert_eq!(m.exposed_speculations(), 1, "the grandchild still runs");
            assert!(!m.deposit_outcome(running, stopped(&m, running, cascaded)));
            assert_eq!(m.exposed_speculations(), 0, "adopt_subtree, {status:?}");

            assert_eq!(m.active_speculations(), 0);
            // Each path above handed the buffers back before releasing
            // the CPU, so no `stopped` ever had to build a second set.
            assert_eq!(m.buffers_created(), 2, "one per CPU, {status:?}");
            m.reset_run();
        }
    }

    #[test]
    fn buffers_are_built_at_first_use_and_come_back_clean() {
        let m = ThreadManager::new(
            RuntimeConfig::with_cpus(2)
                .memory_bytes(1 << 16)
                .buffer(mutls_membuf::BufferConfig::tiny()),
        );
        assert_eq!(m.buffers_created(), 0, "not before a CPU speculates");
        let mem = Arc::clone(m.memory());
        let data = mem.alloc::<u64>(32);
        let mut dirty = m.take_buffers(2);
        for i in 0..20 {
            let addr = data.addr_of(i);
            let _ = dirty
                .global
                .load_logged(&*mem, Some(m.commit_log()), addr, 8);
            let _ = dirty.global.store(addr, 1, 8);
        }
        dirty
            .local
            .set_regvar(3, mutls_membuf::RegisterValue::Int(7))
            .unwrap();
        assert!(dirty.global.overflow_pending() && !dirty.is_clean());
        m.return_buffers(2, dirty);
        let again = m.take_buffers(2);
        assert!(again.is_clean());
        assert_eq!(again.global.reader(), 2, "still bound to its CPU");
        assert_eq!(m.buffers_created(), 1);
    }

    #[test]
    fn validate_and_commit_detects_a_real_predecessor_write() {
        let m = mgr_with_child();
        let mem = Arc::clone(m.memory());
        let cell = mem.alloc::<u64>(1);
        mem.set(&cell, 0, 7);

        // A speculative child reads the cell…
        let mut buffers = fresh_buffers(&m, 1);
        let value = buffers
            .global
            .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
            .unwrap();
        assert_eq!(value, 7);

        // …then a logical predecessor commits a *different value* to it:
        // value prediction cannot save this join.
        mem.set(&cell, 0, 8);
        m.commit_log().record_word(cell.addr_of(0));

        let mut outcome = completed(buffers);
        assert_eq!(
            m.validate_and_commit(1, &mut outcome, None),
            Err(SpecFailure::ReadConflict)
        );
        assert_eq!(outcome.stats.counters.retries_succeeded, 0);
    }

    #[test]
    fn validate_and_commit_publishes_writes_into_the_log() {
        let m = mgr_with_child();
        let mem = Arc::clone(m.memory());
        let cell = mem.alloc::<u64>(1);

        let mut buffers = fresh_buffers(&m, 1);
        buffers.global.store(cell.addr_of(0), 42, 8).unwrap();
        let mut outcome = completed(buffers);
        let epoch_before = m.commit_log().epoch();
        assert_eq!(
            m.validate_and_commit(1, &mut outcome, None),
            Ok(CommitKind::Committed)
        );
        assert_eq!(mem.get(&cell, 0), 42);
        // The committed address is now stamped: a thread that read it
        // before this commit will fail validation.
        assert!(m.commit_log().written_after(cell.addr_of(0), epoch_before));
    }

    #[test]
    fn value_predict_retry_commits_without_reexecution() {
        let m = mgr_with_child();
        let mem = Arc::clone(m.memory());
        let cell = mem.alloc::<u64>(2);
        mem.set(&cell, 0, 7);

        let mut buffers = fresh_buffers(&m, 1);
        let _ = buffers
            .global
            .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
            .unwrap();
        buffers.global.store(cell.addr_of(1), 9, 8).unwrap();

        // A predecessor commits the *same* value (ABA / false sharing):
        // version validation conflicts, value prediction repairs it.
        mem.set(&cell, 0, 7);
        m.commit_log().record_word(cell.addr_of(0));

        let mut outcome = completed(buffers);
        assert_eq!(
            m.validate_and_commit(1, &mut outcome, None),
            Ok(CommitKind::Retried)
        );
        assert_eq!(outcome.stats.counters.retries_succeeded, 1);
        assert_eq!(mem.get(&cell, 1), 9, "the retried write-set committed");
    }

    #[test]
    fn commit_dooms_exactly_the_registered_readers() {
        let m = mgr(3);
        let mem = Arc::clone(m.memory());
        let cell = mem.alloc::<u64>(64);
        // Occupy two CPUs so their slots count as running.
        let reader = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
        let bystander = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();

        // `reader` reads word 0 (registering); `bystander` reads word 32 —
        // far enough to be a different range even at line grain.
        let mut reader_buf = fresh_buffers(&m, reader);
        let _ = reader_buf
            .global
            .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
            .unwrap();
        let mut bystander_buf = fresh_buffers(&m, bystander);
        let _ = bystander_buf
            .global
            .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(32), 8)
            .unwrap();

        // A third thread commits a write covering word 0.
        let mut writer = fresh_buffers(&m, 0);
        writer.global.store(cell.addr_of(0), 5, 8).unwrap();
        let mut outcome = completed(writer);
        assert_eq!(
            m.validate_and_commit(0, &mut outcome, None),
            Ok(CommitKind::Committed)
        );
        assert_eq!(outcome.stats.counters.targeted_dooms, 1);
        assert!(m.doom_requested(reader), "stale reader doomed");
        assert!(!m.doom_requested(bystander), "bystander untouched");

        // The doom set was a subset of the running threads by
        // construction; releasing clears the flag for reuse.
        m.release_cpu(reader, 0);
        let again = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
        assert!(!m.doom_requested(again), "doom flag cleared on acquire");
    }

    #[test]
    fn commit_dooms_a_reader_past_the_registry_bitmask_and_spares_an_older_one() {
        // 70 CPUs acquired by hand, in rank order: rank r holds logical
        // stamp r, and rank 70 is past the registry's 63-rank bitmask.
        let m = mgr(70);
        let mem = Arc::clone(m.memory());
        let cell = mem.alloc::<u64>(1);
        let addr = cell.addr_of(0);
        let ranks: Vec<Rank> = (0..70)
            .map(|_| m.try_acquire_cpu(0, ForkModel::Mixed).unwrap())
            .collect();
        assert_eq!(ranks, (1..=70).collect::<Vec<Rank>>());
        let read_as = |rank: Rank| {
            let mut buffers = fresh_buffers(&m, rank);
            let _ = buffers
                .global
                .load_logged(&*mem, Some(m.commit_log()), addr, 8)
                .unwrap();
        };
        read_as(2);
        read_as(70);
        assert_eq!(m.commit_log().stats().reader_spills, 1);

        // Rank 0 — logically earliest — commits the word: both readers
        // are stale, the spilled one included.
        let commit_as = |rank: Rank| {
            let mut writer = fresh_buffers(&m, rank);
            writer.global.store(addr, 5, 8).unwrap();
            let mut outcome = completed(writer);
            assert_eq!(
                m.validate_and_commit(rank, &mut outcome, None),
                Ok(CommitKind::Committed)
            );
            outcome.stats.counters.targeted_dooms
        };
        assert_eq!(commit_as(0), 2);
        assert!(m.doom_requested(2), "the bitmask reader is doomed");
        assert!(m.doom_requested(70), "the spilled reader is doomed");

        // The logical-order filter reaches a spilled rank too: CPU 5 is
        // recycled, so its task (stamp 71) is younger than rank 70's, and
        // its commit takes rank 70's new registration without dooming it.
        m.release_cpu(5, 0);
        assert_eq!(m.try_acquire_cpu(0, ForkModel::Mixed), Some(5));
        m.clear_doom(70);
        read_as(70);
        assert_eq!(commit_as(5), 0);
        assert!(!m.doom_requested(70), "a logically older reader is spared");
        assert!(m.commit_log().registered_readers(addr).is_empty());
        assert_eq!(m.commit_log().stats().reader_spills, 2);
    }

    #[test]
    fn commit_spares_logically_older_readers() {
        let m = mgr(4);
        let mem = Arc::clone(m.memory());
        let cell = mem.alloc::<u64>(1);
        // Fork order is logical order here: predecessor (stamp 1), then
        // the committing writer (stamp 2), then a successor (stamp 3).
        let predecessor = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
        let writer = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
        let successor = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();

        // Both bystanders read the word the writer will commit.
        let mut pred_buf = fresh_buffers(&m, predecessor);
        let _ = pred_buf
            .global
            .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
            .unwrap();
        let mut succ_buf = fresh_buffers(&m, successor);
        let _ = succ_buf
            .global
            .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
            .unwrap();

        assert_eq!(m.doom_readers([cell.addr_of(0)], writer), 1);
        assert!(
            !m.doom_requested(predecessor),
            "a logical predecessor's read legitimately precedes the write"
        );
        assert!(m.doom_requested(successor), "the successor's read is stale");

        // The writer's own rollback plan applies the same filter.
        let mut writer_buf = fresh_buffers(&m, writer);
        writer_buf.global.store(cell.addr_of(0), 9, 8).unwrap();
        let _ = pred_buf
            .global
            .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
            .unwrap();
        let outcome = completed(writer_buf);
        assert!(
            !m.plan_rollback_recovery(writer, &outcome)
                .contains(&predecessor),
            "rollback recovery must spare logical predecessors"
        );
    }

    #[test]
    fn adoption_salvages_a_deposited_grandchild() {
        let m = mgr(4);
        let mem = Arc::clone(m.memory());
        let cell = mem.alloc::<u64>(1);
        mem.set(&cell, 0, 7);

        // A grandchild finished and deposited before its (committed)
        // parent was joined — the classic orphan the old code reaped.
        let gc = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
        let mut buffers = fresh_buffers(&m, gc);
        buffers.global.store(cell.addr_of(0), 42, 8).unwrap();
        assert!(m.deposit_outcome(gc, completed(buffers)));

        assert_eq!(m.adopt_subtree(gc, None), 1, "clean work is salvaged");
        assert_eq!(mem.get(&cell, 0), 42, "adopted writes reach memory");
        assert!(
            m.try_acquire_cpu(0, ForkModel::Mixed).is_some(),
            "the adopted thread's CPU is released"
        );
    }

    #[test]
    fn adoption_still_reaps_conflicting_and_running_grandchildren() {
        let m = mgr(4);
        let mem = Arc::clone(m.memory());
        let cell = mem.alloc::<u64>(1);
        mem.set(&cell, 0, 7);

        // Grandchild A read the cell before a predecessor overwrote it:
        // adoption must validate, fail, and discard — not blindly commit.
        let stale = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
        let mut stale_buf = fresh_buffers(&m, stale);
        let _ = stale_buf
            .global
            .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
            .unwrap();
        stale_buf.global.store(cell.addr_of(0), 99, 8).unwrap();

        let mut pred = fresh_buffers(&m, 0);
        pred.global.store(cell.addr_of(0), 13, 8).unwrap();
        let mut pred_outcome = completed(pred);
        m.validate_and_commit(0, &mut pred_outcome, None).unwrap();

        assert!(m.deposit_outcome(stale, completed(stale_buf)));
        assert_eq!(m.adopt_subtree(stale, None), 0, "stale work is discarded");
        assert_eq!(mem.get(&cell, 0), 13, "the stale write never commits");

        // Grandchild B never deposited: adoption must not block on it.
        let running = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
        assert_eq!(m.adopt_subtree(running, None), 0);
        assert!(
            m.abort_requested(running),
            "a still-running grandchild is reaped as before"
        );
    }

    #[test]
    fn rollback_recovery_dooms_readers_of_the_rewritten_ranges() {
        let m = mgr(3);
        let mem = Arc::clone(m.memory());
        let cell = mem.alloc::<u64>(64);
        mem.set(&cell, 0, 1);
        let victim = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();

        // The victim speculatively read the word the failing child wrote.
        let mut victim_buf = fresh_buffers(&m, victim);
        let _ = victim_buf
            .global
            .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(32), 8)
            .unwrap();

        // The child read word 0, then a predecessor committed a different
        // value there: genuine conflict, no retry.  The child also wrote
        // word 32 — which the victim read.
        let mut child_buf = fresh_buffers(&m, 0);
        let _ = child_buf
            .global
            .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
            .unwrap();
        child_buf.global.store(cell.addr_of(32), 9, 8).unwrap();
        mem.set(&cell, 0, 2);
        m.commit_log().record_word(cell.addr_of(0));

        let mut outcome = completed(child_buf);
        assert_eq!(
            m.validate_and_commit(0, &mut outcome, None),
            Err(SpecFailure::ReadConflict)
        );
        assert_eq!(outcome.stats.counters.targeted_dooms, 1);
        assert!(
            m.doom_requested(victim),
            "reader of the to-be-rewritten range must be doomed"
        );
    }

    #[test]
    fn grain_controller_ticks_regrain_and_doom_outstanding_readers() {
        use mutls_adaptive::GrainControlConfig;
        use mutls_membuf::{PAGE_GRAIN_LOG2, WORD_GRAIN_LOG2};
        let m = ThreadManager::new(
            RuntimeConfig::with_cpus(2)
                .memory_bytes(1 << 16)
                // Single-version validation: with rings the neighbour
                // commits below precise-pass instead of producing the
                // false-sharing retries this test feeds the controller.
                .commit_log(mutls_membuf::CommitLogConfig::default().ring_depth(1))
                .adaptive_grain()
                .grain_control(
                    GrainControlConfig::adaptive()
                        .tick_commits(1)
                        .initial_grain_log2(PAGE_GRAIN_LOG2),
                ),
        );
        let mem = Arc::clone(m.memory());
        let cell = mem.alloc::<u64>(1024);
        assert_eq!(
            m.commit_log().grain_of(cell.addr_of(0)),
            PAGE_GRAIN_LOG2,
            "regions start at the controller's initial grain"
        );

        // A speculative reader registers, then keeps conflicting with
        // false-sharing suspects: the word it read never changes value,
        // but its page-grain range is committed by a neighbour write.
        let reader = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
        for _ in 0..4 {
            let mut buf = fresh_buffers(&m, reader);
            let _ = buf
                .global
                .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
                .unwrap();
            // Neighbour word of the same page commits → range conflict,
            // value unchanged ⇒ suspected false sharing.
            mem.set(&cell, 8, 1);
            m.commit_log().record_word(cell.addr_of(8));
            let mut outcome = completed(buf);
            // The value is unchanged, so this is a Retried commit; the
            // retry feeds the controller's split evidence.
            let _ = m.validate_and_commit(reader, &mut outcome, None);
            m.tick_grain_controller();
        }
        assert!(
            m.commit_log().grain_of(cell.addr_of(0)) < PAGE_GRAIN_LOG2,
            "suspect spikes must re-split the region (grain now {})",
            m.commit_log().grain_of(cell.addr_of(0))
        );
        assert!(m.commit_log().regrains() > 0);

        // reset_run restores the initial grain and controller state.
        m.release_cpu(reader, 0);
        m.reset_run();
        assert_eq!(m.commit_log().grain_of(cell.addr_of(0)), PAGE_GRAIN_LOG2);
        assert_eq!(m.commit_log().regrains(), 0);
        let _ = WORD_GRAIN_LOG2;
    }

    #[test]
    fn observed_grain_reports_static_grain_without_the_controller() {
        let m = mgr(1);
        let mem = Arc::clone(m.memory());
        let cell = mem.alloc::<u64>(1);
        let mut buf = fresh_buffers(&m, 1);
        buf.global.store(cell.addr_of(0), 1, 8).unwrap();
        let outcome = completed(buf);
        assert_eq!(m.observed_grain(&outcome), m.config().commit_log.grain_log2);
    }

    #[test]
    fn address_registration_flows_through() {
        let m = mgr(1);
        m.register_range(0x100, 0x40);
        assert!(m.range_registered(0x100, 8));
        assert!(!m.range_registered(0x200, 8));
        // A wild pointer: `addr + len` wraps to 0, below the allocation
        // cursor, and must still be outside everything.
        assert!(!m.range_registered(u64::MAX - 7, 8));
        m.unregister_range(0x100, 0x40);
        assert!(!m.range_registered(0x100, 8));
    }

    #[test]
    fn run_accumulators_reset_and_snapshot() {
        let m = mgr(1);
        for verdict in [
            Ok(CommitKind::Committed),
            Ok(CommitKind::Retried),
            Err(SpecFailure::ReadConflict),
            Err(SpecFailure::Injected),
        ] {
            let rank = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
            let mut outcome = stopped(&m, rank, TaskStatus::Completed);
            outcome.stats.add(Phase::Work, 10);
            m.settle_child(rank, 0, ForkModel::Mixed, outcome, verdict);
            m.release_cpu(rank, 0);
        }
        let totals = m.run_snapshot();
        assert_eq!(totals.speculative.get(Phase::Work), 20);
        assert_eq!(totals.speculative.get(Phase::WastedWork), 20);
        assert_eq!(totals.committed, 2, "a retry is a commit");
        assert_eq!(totals.retried, 1);
        assert_eq!(totals.rolled_back, 2, "a retry is not a rollback");
        assert_eq!(totals.by_reason[RollbackReason::Conflict.index()], 1);
        assert_eq!(totals.by_reason[RollbackReason::Injected.index()], 1);
        m.commit_log().record_word(64);
        m.reset_run();
        let totals = m.run_snapshot();
        assert_eq!(totals.speculative.total(), 0);
        assert_eq!(totals.committed + totals.rolled_back + totals.retried, 0);
        assert_eq!(totals.by_reason, [0; RollbackReason::COUNT]);
        assert_eq!(m.commit_log().commits(), 0);
    }
}
