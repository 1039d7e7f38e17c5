//! The `ThreadManager` (paper §IV-B): virtual CPUs, speculative thread
//! dispatch, the join/validation/commit protocol, early synchronization
//! and the tree-form mixed forking model bookkeeping.
//!
//! This file holds the state every protocol shares — the [`ThreadManager`],
//! its per-CPU slots and the dispatch queue — and builds it; each protocol
//! over that state has a file of its own, which opens with the argument
//! for it:
//!
//! * `slots.rs` — virtual CPUs, OS threads and the non-speculative role:
//!   acquiring and releasing a CPU, its buffers, the exposure count, the
//!   abort and doom flags and who sets them;
//! * `dispatch.rs` — nobody starves: the one dispatch queue, the spin and
//!   the park, running a task;
//! * `sync.rs` — synchronize only when it pays: the sync request, its
//!   price, the promotion mailbox and the hand-back;
//! * `join.rs` — the join protocol: deposit, wait, validate, commit or roll
//!   back, adopt;
//! * `books.rs` — the books: settling a verdict, closing a thread's books,
//!   the grain tick, the discards.
//!
//! What a fork, a join, a retirement, a grain tick and an injected draw
//! *decide* is not here but in [`protocol`], which the simulator's replay
//! calls with its own facts; what they *record* is in
//! [`ledger`](crate::ledger).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use mutls_adaptive::{Governor, GrainController, SiteId};
use mutls_membuf::{
    Addr, AddressSpace, BufferStats, CommitLog, GlobalBuffer, GlobalMemory, LocalBuffer,
    MainMemory, RollbackReason, SpecFailure, Validation,
};
use mutls_metrics::MetricsHub;
use mutls_trace::{DenyPolicy, DoomSource, Recorder};

use crate::config::RuntimeConfig;
use crate::context::{
    SpecContext, COLD_HANDOFF_NS, COLD_SYNC_ENTRY_NS, IDLE_SPIN, SYNC_BASE_NS, SYNC_PAYBACK,
};
use crate::fork_model::ForkModel;
use crate::ledger::Point;
use crate::protocol::{self, Forker, JoinFacts, JoinVerdict, Retirement};
use crate::stats::{Phase, ThreadCounters, ThreadStats};
use crate::task::{Rank, SpecAbort, TaskRef, TaskStatus};

mod books;
mod dispatch;
mod join;
mod slots;
mod sync;
#[cfg(test)]
mod tests;

pub use books::RunTotals;
pub(crate) use dispatch::worker_loop;
pub use dispatch::SpecRequest;
pub use join::{CommitKind, SpecOutcome};
pub use slots::ThreadBuffers;
pub(crate) use sync::{Handoff, PromotedOutcome};

/// Tasks dispatched to a virtual CPU and not yet started by an OS thread.
struct DispatchQueue {
    tasks: VecDeque<(Rank, SpecRequest)>,
    /// Threads parked on [`Dispatch::wake`]: a push or a hand-back only
    /// pays for a wake-up when somebody sleeps.
    sleepers: usize,
    shutdown: bool,
}

/// The one dispatch queue, drained by every OS thread whose top frame is
/// idle (see `dispatch.rs`).
struct Dispatch {
    queue: Mutex<DispatchQueue>,
    wake: Condvar,
    /// `queue.tasks.len()`, readable without the lock by a spinning thread.
    queued: AtomicUsize,
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
