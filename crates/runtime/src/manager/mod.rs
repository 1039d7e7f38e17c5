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
//!   abort and doom bits of its status word and who sets them;
//! * `dispatch.rs` — nobody starves: the one dispatch queue, the spin and
//!   the park, running a task;
//! * `sync.rs` — synchronize only when it pays: the sync request, its
//!   price, the promotion mailbox and the hand-back;
//! * `join.rs` — the join protocol: deposit, wait, validate, commit or roll
//!   back;
//! * `books.rs` — the books: settling a verdict, closing a thread's books,
//!   the discards.
//!
//! What a fork, a join, a retirement and an injected draw
//! *decide* is not here but in [`protocol`], which the simulator's replay
//! calls with its own facts; what they *record* is in
//! [`ledger`](crate::ledger).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use mutls_adaptive::{Governor, SiteId};
use mutls_membuf::{
    Addr, CommitLog, GlobalBuffer, GlobalMemory, MainMemory, SpecFailure, Validation,
};
use mutls_metrics::MetricsHub;
use mutls_trace::{DenyPolicy, Recorder};

use crate::config::RuntimeConfig;
use crate::context::{SpecContext, COLD_HANDOFF_NS, COLD_SYNC_ENTRY_NS, IDLE_SPIN};
use crate::fork_model::ForkModel;
use crate::ledger::Point;
use crate::protocol::{self, Forker, JoinFacts, JoinVerdict, Price, Retirement};
use crate::stats::{Phase, ThreadStats};
use crate::task::{Rank, SpecAbort, TaskRef, TaskStatus};

mod books;
mod dispatch;
mod join;
mod slots;
mod sync;
#[cfg(test)]
mod tests;

pub(crate) use dispatch::worker_loop;
pub use join::{CommitKind, SpecOutcome};
pub(crate) use sync::{Handoff, PromotedOutcome};

/// Tasks dispatched to a virtual CPU and not yet started by an OS thread.
struct DispatchQueue {
    tasks: VecDeque<(Rank, TaskRef<SpecContext>)>,
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

/// The bits of a [`Slot`]'s status word (the table on [`Slot`]).
const RUNNING: u8 = 1 << 0;
const EXPOSED: u8 = 1 << 1;
const DEPOSITED: u8 = 1 << 2;
const ORPHANED: u8 = 1 << 3;
pub(crate) const ABORT: u8 = 1 << 4;
pub(crate) const DOOMED: u8 = 1 << 5;
pub(crate) const DOOMED_HARD: u8 = 1 << 6;
pub(crate) const SYNC_POSTED: u8 = 1 << 7;
/// The bits a running task's poll answers to.
const REQUESTS: u8 = ABORT | DOOMED | DOOMED_HARD | SYNC_POSTED;

/// Per-virtual-CPU slot.
///
/// Every lifecycle flag of the CPU is one bit of its status word, so each
/// step of a task's life is one atomic operation on one location:
///
/// | bit | set by | cleared by | ordering edge |
/// |---|---|---|---|
/// | `RUNNING` | claim | release | claim CAS and release swap, `AcqRel` |
/// | `EXPOSED` | claim | `Failed` deposit, release | cleared before the outcome can be taken |
/// | `DEPOSITED` | deposit | release | set under `result`'s lock |
/// | `ORPHANED` | reap | release | set before the reap's `take` |
/// | `ABORT` | reap, drain | release | none: the poll reads nothing behind it |
/// | `DOOMED` | publish | in-flight retry, release | none: a spurious doom is sound |
/// | `DOOMED_HARD` | failed promotion | release | as `DOOMED` |
/// | `SYNC_POSTED` | `post_sync` | `take_sync`, release | `Release`, after `sync` is filled |
///
/// The claim is one CAS from any word without `RUNNING` to exactly
/// `RUNNING | EXPOSED`: a writer checks `RUNNING` before it dooms, so a
/// doom bit can outlive a release, and the claim drops it.  The release is
/// one `swap(0)` whose old value says whether the exposure (the proof on
/// [`ThreadManager::exposed`]) still needs retiring; a `Failed` deposit
/// clears `EXPOSED` before it publishes, since a release may follow at
/// once.  A promotion is published on its hand-off before the release, or
/// the joiner could take a later task's deposit for its own child's.
///
/// **Deposit vs. reap.**  The deposit's `fetch_or(DEPOSITED)` runs in the
/// critical section of `result` that stores the outcome; the reap's
/// `fetch_or(ABORT | ORPHANED)` precedes its `take`.  If the reap's RMW
/// comes first, the deposit's old value shows `ORPHANED` and the depositor
/// discards the outcome itself; if not, the reap's `take` finds it.
/// Nobody takes the outcome before the deposit's RMW, so that RMW always
/// lands on its own task's word, and a joiner whose `Acquire` spin sees
/// `DEPOSITED` finds the outcome once it holds the lock.
pub(crate) struct Slot {
    /// The status word (the table above).
    status: AtomicU8,
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
    /// The posted sync request.  Empty whenever the CPU is released: the
    /// task takes it when it notices, and a joiner whose child finished
    /// without noticing takes it back.
    sync: Mutex<Option<Arc<Handoff>>>,
    result: Mutex<Option<SpecOutcome>>,
    result_cv: Condvar,
    /// This CPU's buffer while no task holds it (see `slots.rs`); `None`
    /// until the CPU's first speculation.
    buffer: Mutex<Option<GlobalBuffer>>,
}

impl Slot {
    fn new() -> Self {
        Slot {
            status: AtomicU8::new(0),
            site: AtomicU32::new(0),
            model: AtomicU8::new(ForkModel::Mixed.index() as u8),
            forked_ns: AtomicU64::new(0),
            logical: AtomicU64::new(0),
            sync: Mutex::new(None),
            result: Mutex::new(None),
            result_cv: Condvar::new(),
            buffer: Mutex::new(None),
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
    slots: Vec<Slot>,
    /// Rank of the most recently speculated thread still in flight
    /// (0 = none); used by the in-order forking model.
    most_speculative: AtomicUsize,
    /// Number of speculative threads currently in flight.
    active: AtomicUsize,
    /// **Exposure count**: speculative threads whose read set may still be
    /// validated or absorbed.  While it is zero the
    /// non-speculative thread stores at native speed — memory only, no
    /// commit-log stamp, no reader dooming (`SpecContext::spec_write`).
    ///
    /// A slot is raised in [`try_acquire_cpu`](Self::try_acquire_cpu) and
    /// retired at the first of a `Failed` deposit or
    /// [`release_cpu`](Self::release_cpu); its status word's `EXPOSED` bit
    /// says whether it still counts (the table on `Slot`).  Why skipping a
    /// stamp at zero can remove spurious dooms but never hide a conflict:
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
    /// A `Failed` outcome is never validated or absorbed — its
    /// joiner re-executes inline — so its read set is dead the instant it
    /// is deposited.  `Completed`/`Barrier` outcomes are validated against
    /// the log when consumed, possibly long after the task stopped, so they
    /// stay exposed until `release_cpu`; a child absorbed by a speculative
    /// parent hands its reads to that (still exposed) parent.  This is why
    /// the gate cannot be `active`: a dead-but-unjoined child keeps
    /// `active` raised for almost all of rank 0's stores.
    exposed: AtomicUsize,
    /// The speculative path's statistics: every retired thread's, summed.
    speculative: Mutex<ThreadStats>,
    rng: Mutex<SmallRng>,
    /// Buffers built since construction (diagnostics): at most one per
    /// virtual CPU while every outcome's buffer is returned.
    buffers_created: AtomicUsize,
    /// Fork clock: source of the per-slot logical-rank stamps.  Starts at
    /// 1 so stamp 0 uniquely means "the non-speculative thread" (rank 0),
    /// which is logically earliest and whose commits doom unfiltered.
    fork_clock: AtomicU64,
    /// Adaptive speculation governor: consulted before a fork is granted a
    /// CPU, fed with per-site join outcomes.
    governor: Governor,
    /// The speculation flight recorder: per-lane lifecycle event rings
    /// (when `RuntimeConfig::trace.events` is on) plus the always-on
    /// phase-latency histograms, one lane per rank 0..=num_cpus.
    recorder: Recorder,
    /// Zero point of recorder timestamps.
    trace_origin: Instant,
    /// The live telemetry plane: a sharded lock-free counter/gauge/
    /// histogram registry, fed by the ledger, plus the bounded snapshot
    /// series the sampler fills.  Its counters always count: they are the
    /// run's only store of a lifecycle count.  Disabled (the default), a
    /// gauge or histogram push is a single always-false branch, mirroring
    /// the recorder's no-op discipline.
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
    /// What a `fork_range` iteration costs per fork site on either side of
    /// a split (see [`protocol::forker_share`]): booked by rank 0 after each
    /// of its bodies and by a speculative task's commit, kept for the
    /// runtime's life.
    prices: Mutex<HashMap<SiteId, Price>>,
}

impl ThreadManager {
    /// Create the manager; the OS threads that serve its dispatch queue are
    /// spawned by [`Runtime::new`](crate::Runtime::new).
    pub fn new(config: RuntimeConfig) -> Arc<Self> {
        let memory = Arc::new(GlobalMemory::new(config.memory_bytes));
        let slots = (0..config.num_cpus).map(|_| Slot::new()).collect();
        // Size the log's dense fast path to the arena so every stamp and
        // lookup is a single atomic access with bounded memory; grain and
        // ring depth come from the runtime configuration.
        let commit_log = CommitLog::with_config(config.commit_log, memory.size_bytes());
        Arc::new(ThreadManager {
            config,
            memory,
            commit_log,
            slots,
            most_speculative: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            exposed: AtomicUsize::new(0),
            speculative: Mutex::new(ThreadStats::new()),
            rng: Mutex::new(SmallRng::seed_from_u64(config.seed)),
            buffers_created: AtomicUsize::new(0),
            fork_clock: AtomicU64::new(1),
            governor: Governor::new(config.governor),
            recorder: Recorder::new(config.trace, config.num_cpus + 1),
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
            prices: Mutex::new(HashMap::new()),
        })
    }

    /// What a `fork_range` iteration at `site` has cost on each side so far.
    pub(crate) fn price(&self, site: SiteId) -> Price {
        self.prices.lock().get(&site).copied().unwrap_or_default()
    }

    /// Add `price` to `site`'s books.
    pub(crate) fn book_price(&self, site: SiteId, price: Price) {
        self.prices.lock().entry(site).or_default().add(price);
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
        *self.speculative.lock() = ThreadStats::new();
        self.commit_log.clear();
        self.governor.reset();
        self.recorder.reset();
        self.metrics.reset();
    }

    /// Scrape and append one sample to the hub's bounded series (the
    /// sampler tick).
    pub fn sample_metrics(&self) {
        let snapshot = self.scrape_metrics(self.trace_now_ns());
        self.metrics.push(snapshot);
    }

    /// The speculative path's statistics so far: every retired thread's
    /// phases and access counts, summed.  Its lifecycle counts are the
    /// registry's ([`ledger::read_counts`](crate::ledger::read_counts)).
    pub fn run_snapshot(&self) -> ThreadStats {
        self.speculative.lock().clone()
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}
