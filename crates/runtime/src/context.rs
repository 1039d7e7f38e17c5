//! [`SpecContext`] — the execution context handed to speculative and
//! non-speculative code in the native runtime.
//!
//! It plays the role of the instrumented code produced by the speculator
//! pass plus the per-thread runtime state: loads and stores are redirected
//! through the thread's [`GlobalBuffer`] when
//! speculative, forks acquire a virtual CPU and dispatch the continuation,
//! and joins perform the synchronize/validate/commit-or-rollback protocol
//! of paper §IV-E/F.
//!
//! **Fork.**  A fork acquires an idle virtual CPU and queues the
//! continuation for whichever OS thread is idle.  A *speculative* forker
//! denied for want of a CPU keeps the request (`LateFork`): if the forker
//! is promoted before the matching join, the CPU it frees takes the fork
//! after all.
//!
//! **Join.**  A speculative joiner blocks until its child stops.  The
//! non-speculative thread does not: if the child is still running it asks
//! the child to synchronize early — commit where it stands and continue
//! as the non-speculative thread — and, once the child has, runs
//! dispatched tasks on its own OS thread until the child's closure hands
//! the role back.  A context can therefore *stop being speculative* at any
//! of its polls (a memory operation, a check point, a fork, a join, or
//! while blocked in a join): [`TlsContext::is_speculative`] and
//! [`TlsContext::rank`] answer for the moment they are called.  See the
//! [`manager`](crate::manager) docs for who runs what, why nobody
//! starves, and when synchronizing pays.

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mutls_membuf::{
    Addr, BufferError, GPtr, GlobalBuffer, GlobalMemory, LocalBuffer, RegisterValue, SpecFailure,
    WORD_BYTES,
};

use mutls_trace::{DenyPolicy, DoomSource};

use crate::fork_model::ForkModel;
use crate::ledger::Point;
use crate::manager::{
    CommitKind, Handoff, PromotedOutcome, SpecOutcome, SpecRequest, ThreadBuffers, ThreadManager,
};
use crate::protocol;
use crate::stats::{Phase, ThreadStats};
use crate::task::{
    failure, over_range, task, typed_load, typed_store, JoinOutcome, Rank, SpecAbort, SpecResult,
    TaskRef, TaskStatus, TlsContext, Word,
};

/// How often speculative memory operations poll the abort flag (and,
/// with it, the doom flags and the sync request).
const ABORT_POLL_INTERVAL: u32 = 256;

/// A synchronization may cost at most one part in this many of the
/// fork→join region it overlaps (see `ThreadManager::sync_pays`).
pub(crate) const SYNC_PAYBACK: u64 = 8;

/// How long a thread with nothing to run — a worker between tasks, a
/// joiner at its join — spins (yielding the core each round) before it
/// parks.  Long enough that the two waits of a loop that forks half of
/// itself once a step end inside the spin: the worker's, from its deposit
/// to the next step's fork (a join, a commit and the sequential stretch
/// between two ranges: md ≈ 100 µs), and the joiner's, for a half that
/// runs at speculative-access price (md ≈ 300 µs).  A parked thread comes
/// back through the kernel, and on a host shared with other tenants that
/// is the slowest and least steady step of a round trip: at 30 µs
/// `dense_reads` took 1.4–1.6 × the sequential run's time in a busy hour
/// and 1.0 × in a quiet one, at 200 µs and above 1.0–1.1 × in both.  Short
/// against anything that idles for long: an idle period costs at most
/// this much CPU.
pub(crate) const IDLE_SPIN: Duration = Duration::from_micros(500);

/// Dispatch→start hand-off assumed until a faster one is measured.
pub(crate) const COLD_HANDOFF_NS: u64 = 20_000;

/// What a promotion costs before its first buffered entry — validation
/// set-up, the site and run bookkeeping, publishing, releasing the CPU
/// (1.5–4 µs measured on the 2-core reference box).  A constant, not a
/// measurement: the first promotion of a run is its slowest, and a
/// promotion priced out is never measured again.
pub(crate) const SYNC_BASE_NS: u64 = 2_000;

/// Cost of validating, committing and clearing one buffered entry assumed
/// until the first promotion of a non-empty buffer is measured.
pub(crate) const COLD_SYNC_ENTRY_NS: u64 = 25;

/// Iterations a forker keeps of the `len ≥ 2` it has left when it forks
/// the rest: guided self-scheduling — one part in (`cpus` + 1), at least
/// one iteration.  Half on one speculative CPU; one iteration — the chain —
/// once the CPUs outnumber half the iterations.  By the CPUs the runtime
/// *has*, not the ones idle at the moment: deep in a dependent chain few
/// are idle, and a forker that kept more than one iteration there would
/// put more of its stores underneath its continuation's reads.
fn forker_share(len: usize, cpus: usize) -> usize {
    (len / (cpus + 1)).max(1)
}

/// Handle returned by a fork point and consumed by the matching join point.
pub struct SpecHandle {
    point: u32,
    task: TaskRef<SpecContext>,
    child: Option<Rank>,
    /// Forking model the child was launched under (governor feedback).
    model: ForkModel,
    /// True when the governor suppressed speculation at this fork point.
    throttled: bool,
    /// Id of the [`LateFork`] a speculative forker kept when no CPU was
    /// free: the join looks there for a child dispatched after all.
    late: Option<u32>,
    /// When the fork point returned; the join measures S1 from it.  (Not
    /// from its start: waking a parked worker can preempt the forker
    /// inside the dispatch, which is no evidence of a long region.)
    forked_at: Instant,
}

impl SpecHandle {
    /// Fork/join point id this handle belongs to.
    pub fn point(&self) -> u32 {
        self.point
    }

    /// True if a speculative thread was launched at the fork point (a
    /// fork denied there and dispatched late, after its forker's
    /// promotion, still reads false).
    pub fn speculated(&self) -> bool {
        self.child.is_some()
    }

    /// True if the adaptive governor suppressed speculation here.
    pub fn throttled(&self) -> bool {
        self.throttled
    }
}

/// A fork a *speculative* thread was denied for want of a CPU, kept in
/// case the thread is promoted before the matching join: the promotion
/// frees the CPU the thread itself was holding, which is the one its own
/// continuation fork just missed.
struct LateFork {
    id: u32,
    point: u32,
    model: ForkModel,
    task: TaskRef<SpecContext>,
    /// Register variables as they were at the fork point.
    regvars: Vec<(usize, RegisterValue)>,
    /// `children.len()` at the fork point: a child forked later is joined
    /// earlier, so while one is live this fork cannot go on top of it.
    children_at_fork: usize,
    /// The child, once dispatched.
    child: Option<Rank>,
}

/// A promoted context's way back to the joiner it displaced.
struct Promotion {
    handoff: Arc<Handoff>,
    kind: CommitKind,
}

/// Per-thread execution context of the native runtime.
pub struct SpecContext {
    mgr: Arc<ThreadManager>,
    rank: Rank,
    /// Global buffer — present only for speculative contexts; the
    /// non-speculative thread writes main memory directly.
    global: Option<GlobalBuffer>,
    /// Local (register) buffer; present for every context so the
    /// regvar transfer API is uniform.
    local: LocalBuffer,
    children: Vec<Rank>,
    /// Forks denied for want of a CPU while speculative, oldest first.
    late_forks: Vec<LateFork>,
    next_late_id: u32,
    stats: ThreadStats,
    /// Since when `stats` accounts for this thread's time: the start of
    /// the context, or its promotion.
    started: Instant,
    last_mark: Instant,
    op_counter: u32,
    /// Depth of rollback-triggered inline re-executions currently on the
    /// stack.  While positive, this thread's *buffered* stores hard-doom
    /// their registered readers: any child it re-forked that reads a
    /// range this thread rewrites is doomed from birth (it reads main
    /// memory underneath the uncommitted overlay) and should stop now.
    reexec_depth: u32,
    /// Set once this context, born speculative, was promoted.
    promotion: Option<Promotion>,
    /// A promotion attempt failed validation (see [`SpecOutcome::settled`]).
    settled: bool,
}

impl SpecContext {
    fn new(
        mgr: Arc<ThreadManager>,
        rank: Rank,
        global: Option<GlobalBuffer>,
        local: LocalBuffer,
    ) -> Self {
        let now = Instant::now();
        SpecContext {
            mgr,
            rank,
            global,
            local,
            children: Vec::new(),
            late_forks: Vec::new(),
            next_late_id: 0,
            stats: ThreadStats::new(),
            started: now,
            last_mark: now,
            op_counter: 0,
            reexec_depth: 0,
            promotion: None,
            settled: false,
        }
    }

    /// Create the non-speculative (rank 0) context.
    pub(crate) fn non_speculative(mgr: Arc<ThreadManager>) -> Self {
        let local = LocalBuffer::new(mgr.config().local_buffer);
        Self::new(mgr, 0, None, local)
    }

    /// Create a speculative context for virtual CPU `rank`, installing the
    /// register variables transferred from the parent.
    pub(crate) fn speculative(
        mgr: Arc<ThreadManager>,
        rank: Rank,
        regvars: Vec<(usize, RegisterValue)>,
    ) -> Self {
        let buffers = mgr.take_buffers(rank);
        let mut local = buffers.local;
        for (offset, value) in regvars {
            // Offsets were validated on the parent side; ignore overflow.
            let _ = local.set_regvar(offset, value);
        }
        Self::new(mgr, rank, Some(buffers.global), local)
    }

    /// Charge to `Work` whatever of `[started, now]` no phase has claimed.
    fn close_books(&mut self, now: Instant) {
        let total = now.duration_since(self.started).as_nanos() as u64;
        let claimed = self.stats.total();
        self.stats.add(Phase::Work, total.saturating_sub(claimed));
    }

    /// Consume the context into the outcome deposited for the joiner.
    pub(crate) fn into_outcome(mut self, status: TaskStatus) -> SpecOutcome {
        self.close_books(Instant::now());
        SpecOutcome {
            status,
            buffers: ThreadBuffers {
                global: self
                    .global
                    .expect("only a speculative context deposits an outcome"),
                local: self.local,
            },
            children: self.children,
            stats: self.stats,
            finished_at: Instant::now(),
            settled: self.settled,
        }
    }

    /// The task's closure returned `status`: deposit the outcome for the
    /// joiner or, if the task was promoted on the way, hand the
    /// non-speculative role back to the joiner it displaced.
    pub(crate) fn conclude(mut self, status: TaskStatus) {
        let mgr = Arc::clone(&self.mgr);
        let Some(promotion) = self.promotion.take() else {
            let rank = self.rank;
            mgr.deposit_outcome(rank, self.into_outcome(status));
            return;
        };
        let finished_at = Instant::now();
        self.close_books(finished_at);
        mgr.hand_back(
            &promotion.handoff,
            PromotedOutcome {
                status,
                kind: promotion.kind,
                children: self.children,
                stats: self.stats,
                promoted_at: self.started,
                finished_at,
            },
        );
    }

    /// Finish the non-speculative root context: return the critical-path
    /// statistics and the children left for the caller to drain.
    pub(crate) fn finish(mut self) -> (ThreadStats, Vec<Rank>) {
        self.close_books(Instant::now());
        (self.stats, self.children)
    }

    /// Shared memory arena.
    pub fn memory(&self) -> Arc<GlobalMemory> {
        Arc::clone(self.mgr.memory())
    }

    /// Allocate `count` elements of `T` from the shared arena and register
    /// the range in the global address space.
    ///
    /// # Panics
    /// Panics when called from a speculative context: speculative threads
    /// may not allocate memory (paper §IV-G1).
    pub fn alloc<T: Word>(&mut self, count: usize) -> GPtr<T> {
        assert!(
            self.rank == 0,
            "speculative threads may not allocate memory"
        );
        let ptr = self.mgr.memory().alloc::<T>(count);
        self.mgr
            .register_range(ptr.base_addr(), (count as u64) * WORD_BYTES);
        ptr
    }

    /// Store a register variable so it is transferred
    /// to children forked from this point on (`MUTLS_set_regvar_*`).
    pub fn set_regvar(&mut self, offset: usize, value: RegisterValue) -> SpecResult<()> {
        self.local
            .set_regvar(offset, value)
            .map_err(|_| failure(SpecFailure::LocalBufferOverflow))
    }

    /// Fetch a register variable transferred from the parent
    /// (`MUTLS_get_regvar_*`).
    pub fn get_regvar(&self, offset: usize) -> Option<RegisterValue> {
        self.local.get_regvar(offset)
    }

    /// Per-thread statistics gathered so far (primarily for tests).
    pub fn stats(&self) -> &ThreadStats {
        &self.stats
    }

    // ----- speculative memory routing ---------------------------------
    //
    // `spec_read` and `spec_write` are shells that hold what a *hit* needs
    // and nothing else, so that a kernel monomorphised over `SpecContext` —
    // in whichever crate — keeps the hit in its own loop: rank 0 counts the
    // access and touches the arena cell; a speculative thread counts, steps
    // the poll cadence and probes its sets.  Whatever happens once per
    // word, once per 256 accesses or once per rollback is a call to an
    // out-of-line arm.  The shells are `#[inline(always)]`, and so is every
    // level between them and the kernel: at half a dozen cold call sites apiece
    // LLVM prices them above what an `#[inline]` hint buys (and above what
    // its cross-unit import takes), and one level left out of line puts
    // the call back on every access.
    //
    // **Every address in a set was checked on the way in.**  An address
    // enters the read set at its first touch, the write set at the first
    // store of its word, and either set when a child's buffer is absorbed
    // (the child checked its own); `range_registered` runs there — before
    // the insert, so not even a task that swallows the error can commit a
    // wild word — and a hit does not ask again.

    /// Read one word of shared program data.
    ///
    /// This is the single entry point all workload memory traffic goes
    /// through (the `MUTLS_load_*` call the speculator pass would emit).
    /// Speculatively it redirects into the thread's [`GlobalBuffer`],
    /// stamping new read-set entries with the commit-log epoch so
    /// join-time validation can detect writes committed by logical
    /// predecessors *after* this read; non-speculatively it reads main
    /// memory directly.
    #[inline(always)]
    pub fn spec_read(&mut self, addr: Addr) -> SpecResult<u64> {
        self.stats.counters.loads += 1;
        if self.poll_due() {
            self.due_poll()?;
        }
        // (Not before the poll: a promotion there takes `global` away.)
        let mgr = &*self.mgr;
        let Some(buffer) = self.global.as_mut() else {
            return Ok(mgr.memory().word(addr).load(Ordering::Relaxed));
        };
        buffer
            .load_or(addr, WORD_BYTES, |buffer, word_addr| {
                Self::first_touch(mgr, buffer, word_addr)
            })
            .map_err(Self::map_buffer_error)
    }

    /// A word enters the read set: the address is checked here, once.
    #[cold]
    #[inline(never)]
    fn first_touch(
        mgr: &ThreadManager,
        buffer: &mut GlobalBuffer,
        word_addr: Addr,
    ) -> Result<u64, BufferError> {
        if !mgr.range_registered(word_addr, WORD_BYTES) {
            return Err(BufferError::UnregisteredAddress);
        }
        buffer.first_touch(mgr.memory().as_ref(), Some(mgr.commit_log()), word_addr)
    }

    /// Write one word of shared program data.
    ///
    /// Speculatively the store lands in the thread's write-set and stays
    /// private until the join commits it; non-speculatively the store is
    /// published immediately and, **while any speculative read set is
    /// exposed**, recorded in the commit log, which is what dooms any
    /// in-flight logical successor that already read the address (the
    /// store is a commit by definition — the non-speculative thread is
    /// always logically earliest).  With no read set exposed nobody holds
    /// a snapshot the stamp could invalidate, so the store runs at native
    /// speed (see `ThreadManager`'s exposure count).
    #[inline(always)]
    pub fn spec_write(&mut self, addr: Addr, value: u64) -> SpecResult<()> {
        self.stats.counters.stores += 1;
        if self.poll_due() {
            self.due_poll()?;
        }
        let mgr = &*self.mgr;
        let Some(buffer) = self.global.as_mut() else {
            // Memory first, then the version bump (see `CommitLog`'s
            // ordering protocol).
            mgr.memory().word(addr).store(value, Ordering::Relaxed);
            if mgr.exposed_speculations() != 0 {
                self.publish_store(addr);
            }
            return Ok(());
        };
        buffer
            .store_or(addr, value, WORD_BYTES, |buffer, word_addr, data, mask| {
                Self::first_store(mgr, buffer, word_addr, data, mask)
            })
            .map_err(Self::map_buffer_error)?;
        if self.reexec_depth > 0 {
            self.doom_overlaid_readers(addr);
        }
        Ok(())
    }

    /// A word enters the write set: the address is checked here, once.
    #[inline(never)]
    fn first_store(
        mgr: &ThreadManager,
        buffer: &mut GlobalBuffer,
        word_addr: Addr,
        data: u64,
        mask: u64,
    ) -> Result<(), BufferError> {
        if !mgr.range_registered(word_addr, WORD_BYTES) {
            return Err(BufferError::UnregisteredAddress);
        }
        buffer.first_store(word_addr, data, mask)
    }

    /// Rank 0 stored `addr` while a speculative read set is exposed: stamp
    /// the commit log and — the store is a commit by definition (rank 0 is
    /// always logically earliest) — doom the word's registered readers
    /// now, surgically, instead of letting them burn their whole conflict
    /// window before failing validation.
    #[inline(never)]
    fn publish_store(&mut self, addr: Addr) {
        self.mgr.commit_log().record_word(addr);
        let victims = self.mgr.doom_readers([addr], self.rank);
        if victims > 0 {
            self.note_doom(DoomSource::Commit, victims);
        }
    }

    /// A buffered store made during a rollback re-execution: if it is
    /// *blind* (the thread never read this word), any registered reader of
    /// the word is reading main memory underneath this uncommitted overlay
    /// and can never validate against it — hard-doom it now, before it
    /// wastes its window.  Three gates keep the doom surgical: it only
    /// fires while re-executing (`reexec_depth > 0`, the one gate the
    /// store site holds: there the registered readers are the
    /// doomed-from-birth threads that speculated past the rolled-back join
    /// — outside a re-execution a registered reader may be a logical
    /// *predecessor* whose read is perfectly valid, e.g. a thread that
    /// read the word and then forked this very continuation); RMW words
    /// (read before written) are skipped for the same predecessor reason;
    /// and only at **word** grain, where reader and writer provably touch
    /// the same word — at coarser grains a registered "reader" may only
    /// share the range (false sharing) and could still validate.  The
    /// grain is a live per-region property under the adaptive-grain
    /// controller, so the word-exactness gate asks the log for *this
    /// address's* current grain, not the static config.
    #[cold]
    #[inline(never)]
    fn doom_overlaid_readers(&mut self, addr: Addr) {
        let blind = self
            .global
            .as_ref()
            .is_some_and(|buffer| !buffer.has_read(addr));
        if blind && self.mgr.commit_log().grain_of(addr) == mutls_membuf::WORD_GRAIN_LOG2 {
            let victims = self.mgr.doom_readers_hard([addr], self.rank);
            self.note_doom(DoomSource::Buffered, victims);
        }
    }

    /// A store of this thread doomed `victims` running readers.  Out of
    /// line: the store path pays for it only when somebody was doomed.
    #[cold]
    fn note_doom(&mut self, source: DoomSource, victims: u64) {
        self.observe(0, Point::Doomed { source, victims });
    }

    /// Write a lifecycle point of this thread down in its own books.
    fn observe(&mut self, site: u32, point: Point) {
        self.mgr
            .observe(self.rank, site, &mut self.stats.counters, point);
    }

    // ----- internal helpers -------------------------------------------

    /// Charge the time since the last phase boundary to `Work` and return
    /// the instant at which the overhead phase starts.
    fn begin_overhead(&mut self) -> Instant {
        let now = Instant::now();
        let nanos = now.duration_since(self.last_mark).as_nanos() as u64;
        self.stats.add(Phase::Work, nanos);
        now
    }

    /// Charge the overhead phase and reset the work marker.
    fn end_overhead(&mut self, phase: Phase, started: Instant) {
        let now = Instant::now();
        self.stats
            .add(phase, now.duration_since(started).as_nanos() as u64);
        self.last_mark = now;
    }

    /// A poll point.  Rank 0 is never aborted, doomed or asked to
    /// synchronize, so the non-speculative thread pays a comparison.
    #[inline]
    fn check_abort(&mut self) -> SpecResult<()> {
        if self.rank == 0 {
            return Ok(());
        }
        self.poll()
    }

    /// A speculative thread's poll of its abort flag, its doom flags and
    /// its sync request.
    #[inline(never)]
    fn poll(&mut self) -> SpecResult<()> {
        if self.mgr.abort_requested(self.rank) {
            return Err(failure(SpecFailure::Cascaded));
        }
        if self.mgr.hard_doom_requested(self.rank) {
            // A speculative writer's *buffered* store overlaps this
            // thread's reads: the conflicting value is invisible in
            // main memory, so no revalidation can help — stop now.
            return Err(failure(SpecFailure::ReadConflict));
        }
        if self.mgr.doom_requested(self.rank) {
            // A committing writer found this thread in the reader
            // registry: its reads are (range-conservatively) stale.
            // In-flight value-predict retry first: the registry is
            // range-granular, so the doom may be false sharing — if
            // every conflicting word still holds its first-read
            // value, re-stamp, shrug the doom off and keep running.
            if let Some(buffer) = self.global.as_mut() {
                let memory = self.mgr.memory();
                let retry_started = Instant::now();
                if buffer.revalidate_by_value(self.mgr.commit_log(), memory.as_ref()) {
                    self.mgr.clear_doom(self.rank);
                    let took = retry_started.elapsed().as_nanos() as u64;
                    self.observe(0, Point::RetriedInFlight(took));
                    return Ok(());
                }
            }
            // Genuinely stale: stop now instead of burning the rest
            // of the conflict window; the join classifies this as a
            // conflict rollback.
            return Err(failure(SpecFailure::ReadConflict));
        }
        if self.mgr.sync_posted(self.rank) {
            return self.synchronize_early();
        }
        Ok(())
    }

    /// Early synchronization, child side (paper §IV-E/H): the
    /// non-speculative joiner reached the join while this task still runs
    /// and asks it to stop being speculative *here* — validate and commit
    /// what it has, release its CPU, and carry on as the non-speculative
    /// thread itself.  Taken only when it pays (`ThreadManager::sync_pays`);
    /// a request turned down is gone, and the joiner simply waits for the
    /// deposit as if it had never asked.
    ///
    /// On success the context is rank 0 from here on — `global` gone,
    /// fresh (critical-path) statistics — but keeps its register variables and
    /// its unjoined children: those read underneath this thread's
    /// write-set, which the commit just stamped into the log, so their
    /// own joins catch every stale read.  On a failed validation the task
    /// is doomed and unwinds like any conflict; its joiner's rollback and
    /// re-execution is the only recovery path.
    #[cold]
    fn synchronize_early(&mut self) -> SpecResult<()> {
        let Some(handoff) = self.mgr.take_sync(self.rank) else {
            return Ok(());
        };
        let global = self.global.as_ref().expect("only speculative tasks poll");
        let entries = global.read_set_len() + global.write_set_len();
        if !self.mgr.sync_pays(entries, handoff.s1_ns()) {
            return Ok(());
        }
        let rank = self.rank;
        let sync_started = Instant::now();
        self.close_books(sync_started);
        let global = self.global.take().expect("checked above");
        // What a joiner would find deposited had the task ended here; the
        // registers stay with the context, the CPU gets a fresh local buffer.
        let mut outcome = SpecOutcome {
            status: TaskStatus::Completed,
            buffers: ThreadBuffers {
                global,
                local: LocalBuffer::new(self.mgr.config().local_buffer),
            },
            children: Vec::new(),
            stats: std::mem::take(&mut self.stats),
            finished_at: sync_started,
            settled: false,
        };
        let verdict = self.mgr.validate_and_commit(rank, &mut outcome, None);
        let kind = match verdict {
            Ok(kind) => kind,
            Err(reason) => {
                self.global = Some(outcome.buffers.global);
                self.stats = outcome.stats;
                self.settled = true;
                self.mgr.doom_hard(rank);
                return Err(failure(reason));
            }
        };
        let (site, model) = self.mgr.launch_info(rank);
        self.mgr.settle_child(rank, site, model, outcome, verdict);
        let promoted_at = Instant::now();
        self.mgr.publish_promotion(rank, &handoff);
        self.mgr.release_cpu(rank, 0);
        self.mgr.record_sync(
            promoted_at.duration_since(sync_started).as_nanos() as u64,
            entries,
        );
        self.rank = 0;
        self.started = promoted_at;
        self.last_mark = promoted_at;
        self.promotion = Some(Promotion { handoff, kind });
        self.dispatch_late_fork();
        Ok(())
    }

    /// Right after a promotion: the CPU this thread held is free, so the
    /// newest fork it was denied for want of one — its own continuation,
    /// whose join is still ahead — is dispatched after all, unless a
    /// younger child is live (see [`LateFork::children_at_fork`]).
    fn dispatch_late_fork(&mut self) {
        let live = self.children.len();
        let Some(late) = self
            .late_forks
            .last_mut()
            .filter(|late| live <= late.children_at_fork)
        else {
            return;
        };
        let fork_started = Instant::now();
        let Ok(child) = self.mgr.try_acquire_cpu(0, late.model) else {
            return;
        };
        late.child = Some(child);
        let (point, model) = (late.point, late.model);
        let request = SpecRequest {
            task: Arc::clone(&late.task),
            regvars: std::mem::take(&mut late.regvars),
        };
        self.launch(child, point, model, request);
        self.end_overhead(Phase::Fork, fork_started);
    }

    /// Dispatch `request` to the acquired CPU `child` and push it on the
    /// children stack.
    fn launch(&mut self, child: Rank, point: u32, model: ForkModel, request: SpecRequest) {
        // The event goes on the child's lane, *before* the dispatch: the
        // queue push orders this write before anything the child emits,
        // keeping the ring single-producer.
        self.observe(point, Point::SpecStart(child as u32));
        self.mgr.dispatch(child, point, model, request);
        self.children.push(child);
    }

    /// Step a speculative thread's access count and say whether the poll
    /// of the abort flag (and, with it, of the doom flags and the sync
    /// request) is due.  Rank 0 is never aborted or doomed: nothing to
    /// count or poll.
    #[inline(always)]
    fn poll_due(&mut self) -> bool {
        if self.global.is_none() {
            return false;
        }
        self.op_counter = self.op_counter.wrapping_add(1);
        self.op_counter.is_multiple_of(ABORT_POLL_INTERVAL)
    }

    /// The poll of every [`ABORT_POLL_INTERVAL`]th access, as a cold call.
    #[cold]
    #[inline(never)]
    fn due_poll(&mut self) -> SpecResult<()> {
        self.poll()
    }

    /// Why a buffered access failed, as the rollback reason its joiner sees.
    fn map_buffer_error(err: BufferError) -> SpecAbort {
        match err {
            BufferError::OverflowFull => failure(SpecFailure::BufferOverflow),
            BufferError::LocalBufferFull => failure(SpecFailure::LocalBufferOverflow),
            BufferError::UnregisteredAddress => failure(SpecFailure::UnregisteredAddress),
            // OverflowPending is handled inside the buffer; alignment and
            // size problems indicate a misuse of the typed API and map to
            // a rollback so the parent re-executes safely.
            BufferError::OverflowPending
            | BufferError::Misaligned
            | BufferError::UnsupportedSize => failure(SpecFailure::BufferOverflow),
        }
    }

    /// The thread's register variables, as a forked child receives
    /// them (MUTLS_save_local / set_regvar on the parent side).
    fn fork_regvars(&self) -> Vec<(usize, RegisterValue)> {
        self.local.registers().iter().collect()
    }

    /// The handle of a fork point that launched nothing: the join runs
    /// `task` inline.
    fn inline_handle(
        &self,
        point: u32,
        task: TaskRef<SpecContext>,
        model: ForkModel,
        throttled: bool,
    ) -> SpecHandle {
        SpecHandle {
            point,
            task,
            child: None,
            model,
            throttled,
            late: None,
            forked_at: self.last_mark,
        }
    }

    /// Execute a task inline (the parent running the continuation itself).
    fn run_inline(&mut self, task: &TaskRef<SpecContext>) -> SpecResult<()> {
        match task(self) {
            Ok(()) | Err(SpecAbort::BarrierReached) => Ok(()),
            Err(other) => Err(other),
        }
    }

    /// Join a speculative child: synchronize, validate, commit (possibly
    /// via value-predict retry) or roll back, and release its CPU.
    /// `site` and `model` identify the fork point for governor feedback,
    /// `forked_at` is when it ran.  The inner result is the decision; the
    /// outer error is a promoted child's own failure *as the
    /// non-speculative thread*, which nothing can roll back and the caller
    /// propagates.
    ///
    /// Accounts for its own time, so that the phases partition the
    /// thread's wall time: waiting is `Idle`, the interval a promoted child
    /// held the non-speculative role is charged by that child (its
    /// statistics are merged in), and only what remains — bookkeeping — is
    /// `Join`.
    fn join_child(
        &mut self,
        child: Rank,
        site: u32,
        model: ForkModel,
        forked_at: Instant,
    ) -> SpecResult<Result<CommitKind, SpecFailure>> {
        let mut bookkeeping = self.begin_overhead();
        let verdict = self.join_child_from(child, site, model, forked_at, &mut bookkeeping);
        self.end_overhead(Phase::Join, bookkeeping);
        verdict
    }

    /// [`join_child`](Self::join_child) proper.  `*bookkeeping` is the
    /// start of the stretch of `Join` time not yet charged.
    fn join_child_from(
        &mut self,
        child: Rank,
        site: u32,
        model: ForkModel,
        forked_at: Instant,
        bookkeeping: &mut Instant,
    ) -> SpecResult<Result<CommitKind, SpecFailure>> {
        // Children-stack discipline (paper §IV-F): pop until the expected
        // child is found; anything popped in between violated the
        // mixed-model ordering assumption and is discarded (NOSYNC).
        loop {
            match self.children.pop() {
                Some(rank) if rank == child => break,
                Some(other) => self.mgr.reap_subtree(other),
                None => {
                    // The child was already discarded (e.g. by a cascading
                    // rollback); treat as a rollback so the caller
                    // re-executes inline.
                    return Ok(Err(SpecFailure::NoSync));
                }
            }
        }

        // Wait for the child to stop (its closure completed, reached a
        // barrier or failed) or — early synchronization — to take over.
        let wait_started = Instant::now();
        self.stats.add(
            Phase::Join,
            wait_started.duration_since(*bookkeeping).as_nanos() as u64,
        );
        let mgr = Arc::clone(&self.mgr);
        let mut outcome = loop {
            if self.rank == 0 {
                // The non-speculative thread does not sit a running child
                // out: it asks the child to synchronize here and, if the
                // child does, serves dispatched tasks on this OS thread
                // until the child's closure hands the role back.
                let s1_ns = wait_started.duration_since(forked_at).as_nanos() as u64;
                let handoff = mgr
                    .sync_pays(0, s1_ns)
                    .then(|| Arc::new(Handoff::new(s1_ns)));
                if let Some(handoff) = &handoff {
                    mgr.post_sync(child, Arc::clone(handoff));
                }
                if let Some(outcome) = mgr.wait_outcome_or_promotion(child, handoff.as_deref()) {
                    if handoff.is_some() {
                        // The child finished without taking the request.
                        mgr.take_sync(child);
                    }
                    break outcome;
                }
                let handoff = handoff.expect("only a posted request is taken");
                let promoted = mgr.serve_until_handed_back(&handoff);
                // A context promoted while it waited opened fresh books.
                let idle_since = wait_started.max(self.started);
                return self.resume_after(promoted, idle_since, bookkeeping);
            }
            // A *speculative* joiner keeps polling while blocked: a doom or
            // an abort abandons the join (waiting out the child's equally
            // doomed subtree would waste the whole window), and a sync
            // request from its own joiner promotes it right here, after
            // which it waits as the non-speculative thread it now is.
            let mut stop = None;
            let waited = mgr.wait_outcome_where(child, || match self.check_abort() {
                Ok(()) => self.rank == 0,
                Err(abort) => {
                    stop = Some(abort);
                    true
                }
            });
            match (waited, stop) {
                (Some(outcome), _) => break outcome,
                (None, None) => continue,
                (None, Some(abort)) => {
                    // Reap the child's subtree and unwind; this thread's
                    // own joiner re-executes.
                    self.mgr.reap_subtree(child);
                    let now = Instant::now();
                    self.stats.add(
                        Phase::Idle,
                        now.duration_since(wait_started).as_nanos() as u64,
                    );
                    *bookkeeping = now;
                    return Ok(Err(match abort {
                        SpecAbort::Failed(reason) => reason,
                        SpecAbort::BarrierReached => unreachable!("polls never reach a barrier"),
                    }));
                }
            }
        };
        let waited_until = Instant::now();
        let idle_since = wait_started.max(self.started);
        self.stats.add(
            Phase::Idle,
            waited_until.duration_since(idle_since).as_nanos() as u64,
        );
        *bookkeeping = waited_until;
        // Time the child spent waiting to be joined is speculative idle.
        outcome.stats.add(
            Phase::Idle,
            waited_until.duration_since(outcome.finished_at).as_nanos() as u64,
        );

        let verdict = match outcome.status {
            TaskStatus::Failed(reason) if outcome.settled => Err(reason),
            _ => self
                .mgr
                .validate_and_commit(child, &mut outcome, self.global.as_mut()),
        };
        let grandchildren = std::mem::take(&mut outcome.children);
        self.mgr.settle_child(child, site, model, outcome, verdict);
        self.inherit_children(grandchildren, verdict.is_ok());
        self.mgr.release_cpu(child, self.rank);
        Ok(verdict)
    }

    /// The unjoined children of a finished child: when the child
    /// *committed*, its state already reached the commit log (or the
    /// parent's overlay), so the grandchildren ran on top of valid state —
    /// adopt the completed ones into this joiner instead of
    /// re-speculating their work (see README "Recovery pipeline").  A
    /// child that rolled back invalidates the subtree.
    fn inherit_children(&mut self, grandchildren: Vec<Rank>, committed: bool) {
        for grandchild in grandchildren {
            if committed {
                let threads = self.mgr.adopt_subtree(grandchild, self.global.as_mut());
                self.observe(0, Point::Adopted(threads));
            } else {
                self.mgr.reap_subtree(grandchild);
            }
        }
    }

    /// Back in the non-speculative role after the child promoted at this
    /// join ran its closure to the end: `[idle_since, promoted_at]` and
    /// `[finished_at, now]` were idle here, the stretch between is the
    /// child's critical-path time, and what this OS thread did meanwhile
    /// is on the books of the speculative tasks it served.
    fn resume_after(
        &mut self,
        promoted: PromotedOutcome,
        idle_since: Instant,
        bookkeeping: &mut Instant,
    ) -> SpecResult<Result<CommitKind, SpecFailure>> {
        let now = Instant::now();
        let idle = promoted.promoted_at.saturating_duration_since(idle_since)
            + now.saturating_duration_since(promoted.finished_at);
        self.stats.add(Phase::Idle, idle.as_nanos() as u64);
        self.stats.merge(&promoted.stats);
        *bookkeeping = now;
        // Children a *failed* closure left unjoined ran ahead of a region
        // that aborts here: nothing behind the failure may reach memory.
        let ended = !matches!(promoted.status, TaskStatus::Failed(_));
        self.inherit_children(promoted.children, ended);
        match promoted.status {
            TaskStatus::Failed(reason) => Err(failure(reason)),
            TaskStatus::Completed | TaskStatus::Barrier => Ok(Ok(promoted.kind)),
        }
    }

    /// [`fork_range`](TlsContext::fork_range) over two or more iterations:
    /// walk the range, and at an iteration boundary where a CPU is idle
    /// fork the tail of what is left (lazy splitting).  The forker keeps
    /// [`forker_share`] of it, so on one speculative CPU the cut is the
    /// midpoint of what is left, and with a CPU for every other iteration
    /// the walk is the chain.  A tail forks its own tail the same way, and
    /// so does a thread promoted in the middle of a body: the CPU it gave
    /// up is idle at its next boundary.
    ///
    /// While no CPU is idle nothing is attempted: no denied fork, no
    /// closure.  A fork denied after all (a race for the CPU, the governor,
    /// a re-execution's pinned forks) ends this walk's offers; its tail is
    /// run inline by the join below and offers again on its own account.
    fn split_when_idle<F>(
        &mut self,
        point: u32,
        range: Range<usize>,
        body: &Arc<F>,
    ) -> SpecResult<()>
    where
        F: Fn(&mut Self, usize) -> SpecResult<()> + Send + Sync + 'static,
    {
        let (mut next, mut end) = (range.start, range.end);
        // Forked tails, the newest (and logically earliest) joined first.
        let mut tails = Vec::new();
        let mut offer = true;
        while next < end {
            if offer && end - next > 1 && self.has_idle_cpu() {
                let mid = next + forker_share(end - next, self.mgr.config().num_cpus);
                let rest = Arc::clone(body);
                let tail = task(move |ctx: &mut Self| ctx.split_when_idle(point, mid..end, &rest));
                let handle = self.fork(point, tail)?;
                offer = handle.speculated();
                tails.push(handle);
                end = mid;
            }
            match body(self, next) {
                // On the chain every iteration but a task's first is a
                // continuation of its own, which a barrier ends quietly.
                Err(SpecAbort::BarrierReached) if next > range.start => break,
                other => other?,
            }
            next += 1;
        }
        while let Some(handle) = tails.pop() {
            self.join(handle)?;
        }
        Ok(())
    }

    /// Whether a virtual CPU is held by no task right now (a racy reading:
    /// a fork that relies on it may still be denied).
    fn has_idle_cpu(&self) -> bool {
        self.mgr.active_speculations() < self.mgr.config().num_cpus
    }

    /// The child a fork point's [`LateFork`] was dispatched as, if it was;
    /// either way the entry (and any younger one, whose join was skipped)
    /// is done with.
    fn resolve_late_fork(&mut self, id: u32) -> Option<Rank> {
        let mut child = None;
        while self.late_forks.last().is_some_and(|late| late.id >= id) {
            let late = self.late_forks.pop().expect("just seen");
            if late.id == id {
                child = late.child;
            }
        }
        child
    }
}

impl TlsContext for SpecContext {
    type Handle = SpecHandle;

    #[inline]
    fn work(&mut self, _units: u64) -> SpecResult<()> {
        // Real time is measured directly; this is only a poll opportunity,
        // at the cadence of the memory operations.
        if self.poll_due() {
            self.due_poll()?;
        }
        Ok(())
    }

    #[inline(always)]
    fn load_word(&mut self, addr: Addr) -> SpecResult<u64> {
        self.spec_read(addr)
    }

    #[inline(always)]
    fn store_word(&mut self, addr: Addr, value: u64) -> SpecResult<()> {
        self.spec_write(addr, value)
    }

    /// The trait's `load`, overridden for its attribute only: the typed
    /// wrapper is the last level between the shells and the kernel.  On
    /// this context alone — kernels over the default's contexts
    /// (`DirectContext`, the simulator's recorder) are the sequential
    /// reference and compile as they always did.
    #[inline(always)]
    fn load<T: Word>(&mut self, ptr: &GPtr<T>, index: usize) -> SpecResult<T> {
        typed_load(self, ptr, index)
    }

    /// The trait's `store`, overridden for its attribute only.
    #[inline(always)]
    fn store<T: Word>(&mut self, ptr: &GPtr<T>, index: usize, value: T) -> SpecResult<()> {
        typed_store(self, ptr, index, value)
    }

    fn fork(&mut self, point: u32, task: TaskRef<Self>) -> SpecResult<SpecHandle> {
        self.fork_with_model(point, self.mgr.config().fork_model, task)
    }

    fn fork_with_model(
        &mut self,
        point: u32,
        model: ForkModel,
        task: TaskRef<Self>,
    ) -> SpecResult<SpecHandle> {
        self.check_abort()?;
        self.observe(point, Point::ForkAttempt);

        // A *speculative* parent re-executing a continuation after a
        // rollback must not re-speculate: its accumulated write-set is
        // invisible in main memory, so any child it forked would read
        // stale values underneath the overlay and be doomed from birth —
        // re-forking here is what turns one conflict into a cascade of
        // garbage subtrees.  The re-execution is pinned inline instead.
        // (Rank 0 re-executions keep forking: their stores publish
        // immediately, so re-forked children read fresh values and the
        // reader registry surgically dooms the genuinely stale ones.)
        let pinned = self.rank != 0 && self.reexec_depth > 0;

        // The adaptive governor is asked whether this fork site may
        // speculate (and under which model) before any fork overhead is
        // spent; only then is a CPU looked for.  (`begin_overhead` and
        // `end_overhead` spelled out: `self.mgr` is lent to the governor.)
        let (mgr, stats, mark, rank) =
            (&*self.mgr, &mut self.stats, &mut self.last_mark, self.rank);
        let ns = |from: Instant, to: Instant| to.duration_since(from).as_nanos() as u64;
        let admission = protocol::admit_fork(pinned, mgr.governor(), point, model, |model| {
            let started = Instant::now();
            stats.add(Phase::Work, ns(*mark, started));
            let child = mgr.try_acquire_cpu(rank, model);
            *mark = Instant::now();
            stats.add(Phase::FindCpu, ns(started, *mark));
            child
        });
        let (model, child) = match admission {
            Ok(granted) => granted,
            Err((policy, model)) => {
                // The governor ruled unless the pin spared it the question;
                // a denial that was not the governor's own is a failed fork.
                if policy != DenyPolicy::Reexec {
                    let allowed = policy != DenyPolicy::Governor;
                    self.observe(point, Point::GovernorRuled(allowed));
                }
                if policy != DenyPolicy::Governor {
                    self.observe(point, Point::ForkDenied(policy));
                }
                let throttled = policy == DenyPolicy::Governor;
                let mut handle = self.inline_handle(point, task, model, throttled);
                // Only a speculative thread can be promoted, and only a
                // promotion frees a CPU for a fork that found none.
                if policy == DenyPolicy::NoCpu && self.global.is_some() {
                    let id = self.next_late_id;
                    self.next_late_id += 1;
                    self.late_forks.push(LateFork {
                        id,
                        point,
                        model,
                        task: Arc::clone(&handle.task),
                        regvars: self.fork_regvars(),
                        children_at_fork: self.children.len(),
                        child: None,
                    });
                    handle.late = Some(id);
                }
                return Ok(handle);
            }
        };
        self.observe(point, Point::GovernorRuled(true));

        let fork_started = self.begin_overhead();
        let request = SpecRequest {
            task: Arc::clone(&task),
            regvars: self.fork_regvars(),
        };
        self.launch(child, point, model, request);
        self.end_overhead(Phase::Fork, fork_started);

        Ok(SpecHandle {
            point,
            task,
            child: Some(child),
            model,
            throttled: false,
            late: None,
            forked_at: self.last_mark,
        })
    }

    fn join(&mut self, handle: SpecHandle) -> SpecResult<JoinOutcome> {
        self.check_abort()?;
        let SpecHandle {
            point,
            task,
            child,
            model,
            late,
            forked_at,
            ..
        } = handle;

        // A fork denied for want of a CPU may have been dispatched since.
        let child = child.or_else(|| self.resolve_late_fork(late?));
        let Some(child) = child else {
            // Speculation never happened: execute the continuation inline.
            self.run_inline(&task)?;
            return Ok(JoinOutcome::NotSpeculated);
        };

        match self.join_child(child, point, model, forked_at)? {
            Ok(_kind) => {
                self.observe(point, Point::JoinCommitted);
                Ok(JoinOutcome::Committed)
            }
            Err(reason) => {
                // Rollback (squash): the parent re-executes the
                // continuation inline; the squash already cascaded into
                // the child's own speculative subtree above.  While the
                // re-execution runs, this thread's buffered stores
                // hard-doom their registered readers (see `spec_write`).
                self.reexec_depth += 1;
                let repair_started = Instant::now();
                let inline_result = self.run_inline(&task);
                let repair = repair_started.elapsed().as_nanos() as u64;
                self.observe(point, Point::JoinRolledBack { reason, repair });
                self.reexec_depth -= 1;
                inline_result?;
                Ok(JoinOutcome::RolledBack(reason))
            }
        }
    }

    fn barrier(&mut self) -> SpecResult<()> {
        // Everything up to here is valid; stop executing the closure on
        // both the speculative and the inline path so the code after the
        // barrier runs exactly once (in the parent, after its join).
        Err(SpecAbort::BarrierReached)
    }

    #[inline]
    fn check_point(&mut self) -> SpecResult<()> {
        self.check_abort()
    }

    #[inline]
    fn is_speculative(&self) -> bool {
        self.rank != 0
    }

    #[inline]
    fn rank(&self) -> Rank {
        self.rank
    }

    /// The default's chain leaves the forker one iteration per fork and
    /// whoever takes the continuation all the rest, so with fewer CPUs than
    /// iterations a child denied its own forks runs the loop alone at
    /// speculative-access price while the non-speculative thread idles at
    /// the join.  Here a tail is forked only for a CPU that is idle, and
    /// the forker keeps one part in (CPUs + 1) of what is left (see
    /// `split_when_idle`): half on one speculative CPU, one iteration —
    /// the chain — once there is a CPU for every other iteration, which is
    /// what a loop-carried dependence wants: a continuation only ever
    /// commits when it starts after the forker's *last* store.  Built on
    /// the public `fork`/`join` only, so promotion, the governor, rollback
    /// and inline re-execution apply to a tail as to any continuation.
    fn fork_range<F>(&mut self, point: u32, range: Range<usize>, body: F) -> SpecResult<()>
    where
        F: Fn(&mut Self, usize) -> SpecResult<()> + Send + Sync + 'static,
    {
        over_range(self, range, body, |ctx, range, body| {
            ctx.split_when_idle(point, range, body)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use mutls_membuf::MainMemory;

    /// Hand-driven (no worker threads), so "deposited but unjoined" is a
    /// program point, not a race: rank 0's direct store is stamped exactly
    /// while the child's read set can still be validated.
    #[test]
    fn direct_stores_publish_exactly_while_a_read_set_is_exposed() {
        let mgr = ThreadManager::new(RuntimeConfig::with_cpus(1).memory_bytes(1 << 16));
        let mut rank0 = SpecContext::non_speculative(Arc::clone(&mgr));
        let cell = rank0.alloc::<u64>(1);
        let addr = cell.addr_of(0);
        let deposit = |status: TaskStatus| {
            let child = mgr.try_acquire_cpu(0, ForkModel::Mixed).expect("idle CPU");
            let mut ctx = SpecContext::speculative(Arc::clone(&mgr), child, Vec::new());
            ctx.spec_read(addr).expect("registered address");
            assert!(mgr.deposit_outcome(child, ctx.into_outcome(status)));
            child
        };

        rank0.spec_write(addr, 1).unwrap();
        assert_eq!(mgr.commit_log().commits(), 0, "quiescent: memory only");
        assert_eq!(mgr.memory().read_word(addr), 1);

        // A failed child parked at its join exposes nothing.
        let failed = deposit(TaskStatus::Failed(SpecFailure::BufferOverflow));
        rank0.spec_write(addr, 2).unwrap();
        assert_eq!(mgr.commit_log().commits(), 0, "dead read set: memory only");
        let mut outcome = mgr.wait_outcome(failed);
        assert_eq!(
            mgr.validate_and_commit(failed, &mut outcome, None),
            Err(SpecFailure::BufferOverflow)
        );
        mgr.release_cpu(failed, 0);

        // A completed child parked at its join is validated later: the
        // store under it must be stamped, and the join must conflict.
        let parked = deposit(TaskStatus::Completed);
        rank0.spec_write(addr, 3).unwrap();
        assert_eq!(mgr.commit_log().commits(), 1, "exposed: published");
        let mut outcome = mgr.wait_outcome(parked);
        assert_eq!(
            mgr.validate_and_commit(parked, &mut outcome, None),
            Err(SpecFailure::ReadConflict)
        );
        mgr.release_cpu(parked, 0);

        rank0.spec_write(addr, 4).unwrap();
        assert_eq!(mgr.commit_log().commits(), 1, "quiescent again");
    }

    /// The one evaluation that denies a fork also says why.  Hand-driven:
    /// the first of two in-order threads is not the most speculative, and
    /// with a CPU idle the model denies its fork — no promotion lifts that,
    /// so nothing is kept for later; under the mixed model with every CPU
    /// taken it is denied for want of one, and keeps the fork.
    #[test]
    fn a_model_denial_is_reported_as_one_and_arms_no_late_fork() {
        use ForkModel::{InOrder, Mixed};
        let config = RuntimeConfig::with_cpus(3).memory_bytes(1 << 16);
        let mgr = ThreadManager::new(config.trace_events());
        let first = mgr.try_acquire_cpu(0, InOrder).expect("idle CPU");
        mgr.try_acquire_cpu(first, InOrder)
            .expect("the latest forks");
        let mut ctx = SpecContext::speculative(Arc::clone(&mgr), first, Vec::new());
        let nothing = task(|_: &mut SpecContext| Ok(()));

        let denied = ctx.fork_with_model(7, InOrder, Arc::clone(&nothing));
        assert!(denied.is_ok_and(|handle| !handle.speculated() && handle.late.is_none()));
        assert!(
            ctx.late_forks.is_empty(),
            "a model denial armed a late fork"
        );

        mgr.try_acquire_cpu(0, Mixed).expect("idle CPU");
        let denied = ctx.fork_with_model(8, Mixed, nothing);
        assert!(denied.is_ok_and(|handle| !handle.speculated() && handle.late.is_some()));
        assert_eq!(ctx.late_forks.len(), 1);

        assert_eq!(ctx.stats().counters.failed_forks, 2);
        let events = mgr.recorder().drain_events().into_iter();
        let denials: Vec<_> = events
            .filter_map(|event| match event.kind {
                mutls_trace::EventKind::ForkDenied { policy } => Some((event.site, policy)),
                _ => None,
            })
            .collect();
        assert_eq!(denials, [(7, DenyPolicy::Model), (8, DenyPolicy::NoCpu)]);
    }

    /// The forker's share: half of what is left on one speculative CPU, one
    /// part in (CPUs + 1) with more, the chain's single iteration once they
    /// outnumber half the iterations — and always a valid cut.
    #[test]
    fn forker_share_is_half_on_one_cpu_and_the_chain_on_many() {
        for cpus in 1..=8 {
            for len in 2..=70 {
                let kept = forker_share(len, cpus);
                assert!(0 < kept && kept < len, "{cpus} CPUs: kept {kept} of {len}");
                assert!(kept <= len / 2, "the forker never keeps more than half");
                match cpus {
                    1 => assert_eq!(kept, len / 2),
                    _ if len < 2 * (cpus + 1) => assert_eq!(kept, 1),
                    _ => assert_eq!(kept, len / (cpus + 1)),
                }
            }
        }
    }
}
