//! [`SpecContext`] — the execution context handed to speculative and
//! non-speculative code in the native runtime.
//!
//! It plays the role of the instrumented code produced by the speculator
//! pass plus the per-thread runtime state: loads and stores are redirected
//! through the thread's [`GlobalBuffer`] when
//! speculative, forks acquire a virtual CPU and dispatch the continuation,
//! and joins perform the synchronize/validate/commit-or-rollback protocol
//! of paper §IV-E/F.

use std::sync::Arc;
use std::time::Instant;

use mutls_membuf::{
    Addr, BufferError, GPtr, GlobalBuffer, GlobalMemory, LocalBuffer, MainMemory, RegisterValue,
    RollbackReason, SpecFailure, WORD_BYTES,
};

use mutls_adaptive::{ForkDecision, SiteOutcome};
use mutls_metrics::CounterId;
use mutls_trace::{DenyPolicy, DoomSource, EventKind, LatencyPhase};

use crate::config::RecoveryMode;
use crate::fork_model::ForkModel;
use crate::manager::{SpecOutcome, SpecRequest, ThreadBuffers, ThreadManager};
use crate::stats::{Phase, ThreadStats};
use crate::task::{
    failure, JoinOutcome, Rank, SpecAbort, SpecResult, TaskRef, TaskStatus, TlsContext, Word,
};

/// How often speculative memory operations poll the abort flag.
const ABORT_POLL_INTERVAL: u32 = 256;

/// Handle returned by a fork point and consumed by the matching join point.
pub struct SpecHandle {
    point: u32,
    task: TaskRef<SpecContext>,
    child: Option<Rank>,
    /// Forking model the child was launched under (governor feedback).
    model: ForkModel,
    /// True when the governor suppressed speculation at this fork point.
    throttled: bool,
}

impl SpecHandle {
    /// Fork/join point id this handle belongs to.
    pub fn point(&self) -> u32 {
        self.point
    }

    /// True if a speculative thread was actually launched.
    pub fn speculated(&self) -> bool {
        self.child.is_some()
    }

    /// True if the adaptive governor suppressed speculation here.
    pub fn throttled(&self) -> bool {
        self.throttled
    }
}

/// Per-thread execution context of the native runtime.
pub struct SpecContext {
    mgr: Arc<ThreadManager>,
    rank: Rank,
    /// Global buffer — present only for speculative contexts; the
    /// non-speculative thread writes main memory directly.
    global: Option<GlobalBuffer>,
    /// Local (register/stack) buffer; present for every context so the
    /// regvar transfer API is uniform.
    local: LocalBuffer,
    children: Vec<Rank>,
    stats: ThreadStats,
    last_mark: Instant,
    op_counter: u32,
    /// Depth of rollback-triggered inline re-executions currently on the
    /// stack.  While positive, this thread's *buffered* stores hard-doom
    /// their registered readers: any child it re-forked that reads a
    /// range this thread rewrites is doomed from birth (it reads main
    /// memory underneath the uncommitted overlay) and should stop now.
    reexec_depth: u32,
}

impl SpecContext {
    /// Create the non-speculative (rank 0) context.
    pub(crate) fn non_speculative(mgr: Arc<ThreadManager>) -> Self {
        let local = LocalBuffer::new(mgr.config().local_buffer);
        SpecContext {
            mgr,
            rank: 0,
            global: None,
            local,
            children: Vec::new(),
            stats: ThreadStats::new(),
            last_mark: Instant::now(),
            op_counter: 0,
            reexec_depth: 0,
        }
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
        SpecContext {
            mgr,
            rank,
            global: Some(buffers.global),
            local,
            children: Vec::new(),
            stats: ThreadStats::new(),
            last_mark: Instant::now(),
            op_counter: 0,
            reexec_depth: 0,
        }
    }

    /// Consume the context into the outcome deposited for the joiner.
    pub(crate) fn into_outcome(mut self, status: TaskStatus, started: Instant) -> SpecOutcome {
        let total = started.elapsed().as_nanos() as u64;
        let overhead = self.stats.total();
        self.stats.add(Phase::Work, total.saturating_sub(overhead));
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
        }
    }

    /// Finish the non-speculative root context: drain any unjoined
    /// children and return the critical-path statistics.
    pub(crate) fn finish(mut self, started: Instant) -> (ThreadStats, Vec<Rank>) {
        let total = started.elapsed().as_nanos() as u64;
        let overhead = self.stats.total();
        self.stats.add(Phase::Work, total.saturating_sub(overhead));
        (self.stats, std::mem::take(&mut self.children))
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

    /// Store a register variable in the current frame so it is transferred
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

    /// Read one word of shared program data.
    ///
    /// This is the single entry point all workload memory traffic goes
    /// through (the `MUTLS_load_*` call the speculator pass would emit).
    /// Speculatively it redirects into the thread's [`GlobalBuffer`],
    /// stamping new read-set entries with the commit-log epoch so
    /// join-time validation can detect writes committed by logical
    /// predecessors *after* this read; non-speculatively it reads main
    /// memory directly.
    #[inline]
    pub fn spec_read(&mut self, addr: Addr) -> SpecResult<u64> {
        self.stats.counters.loads += 1;
        self.poll_abort()?;
        match self.global.as_mut() {
            None => Ok(self.mgr.memory().read_word(addr)),
            Some(buffer) => {
                if !self.mgr.range_registered(addr, WORD_BYTES) {
                    return Err(failure(SpecFailure::UnregisteredAddress));
                }
                buffer
                    .load_logged(
                        self.mgr.memory().as_ref(),
                        Some(self.mgr.commit_log()),
                        addr,
                        WORD_BYTES,
                    )
                    .map_err(Self::map_buffer_error)
            }
        }
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
    #[inline]
    pub fn spec_write(&mut self, addr: Addr, value: u64) -> SpecResult<()> {
        self.stats.counters.stores += 1;
        self.poll_abort()?;
        match self.global.as_mut() {
            None => {
                // Memory first, then the version bump (see `CommitLog`'s
                // ordering protocol).
                self.mgr.memory().write_word(addr, value);
                if self.mgr.exposed_speculations() != 0 {
                    self.mgr.commit_log().record_word(addr);
                    // The store is a commit by definition (rank 0 is
                    // always logically earliest): doom its registered
                    // readers now — surgically, instead of letting them
                    // burn their whole conflict window before failing
                    // validation.
                    self.stats.counters.targeted_dooms += self.mgr.doom_readers([addr], self.rank);
                }
                Ok(())
            }
            Some(buffer) => {
                if !self.mgr.range_registered(addr, WORD_BYTES) {
                    return Err(failure(SpecFailure::UnregisteredAddress));
                }
                buffer
                    .store(addr, value, WORD_BYTES)
                    .map_err(Self::map_buffer_error)?;
                // A *blind* store (the thread never read this word) made
                // during a rollback re-execution: any registered reader
                // of the word is reading main memory underneath this
                // uncommitted overlay and can never validate against it
                // — hard-doom it now, before it wastes its window.
                // Three gates keep the doom surgical: it only fires
                // while re-executing (`reexec_depth > 0`, where the
                // registered readers are the doomed-from-birth threads
                // that speculated past the rolled-back join — outside a
                // re-execution a registered reader may be a logical
                // *predecessor* whose read is perfectly valid, e.g. a
                // thread that read the word and then forked this very
                // continuation); RMW words (read before written) are
                // skipped for the same predecessor reason; and only at
                // **word** grain, where reader and writer provably touch
                // the same word — at coarser grains a registered
                // "reader" may only share the range (false sharing) and
                // could still validate.  The grain is a live per-region
                // property under the adaptive-grain controller, so the
                // word-exactness gate asks the log for *this address's*
                // current grain, not the static config.
                if self.reexec_depth > 0
                    && self.mgr.commit_log().grain_of(addr) == mutls_membuf::WORD_GRAIN_LOG2
                    && !buffer.has_read(addr)
                {
                    self.doom_overlaid_readers(addr);
                }
                Ok(())
            }
        }
    }

    /// Hard-doom the registered readers of a word this re-executing thread
    /// just stored blindly.  [`spec_write`](Self::spec_write) holds the
    /// gates; this arm is out of line so a store site inlines only those.
    #[cold]
    fn doom_overlaid_readers(&mut self, addr: Addr) {
        let doomed = self.mgr.doom_readers_hard([addr], self.rank);
        self.stats.counters.targeted_dooms += doomed;
        if doomed > 0 {
            self.mgr.trace_event(
                self.rank,
                0,
                EventKind::Doom {
                    source: DoomSource::Buffered,
                },
            );
        }
    }

    /// Ranks of children forked but not yet joined.
    pub fn pending_children(&self) -> &[Rank] {
        &self.children
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

    fn check_abort(&mut self) -> SpecResult<()> {
        if self.rank != 0 {
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
                if self.mgr.config().recovery.value_predict {
                    if let Some(buffer) = self.global.as_mut() {
                        let memory = self.mgr.memory();
                        let retry_started = Instant::now();
                        if buffer.revalidate_by_value(self.mgr.commit_log(), memory.as_ref()) {
                            self.mgr.clear_doom(self.rank);
                            self.stats.counters.retries_succeeded += 1;
                            self.mgr.recorder().latency().record(
                                LatencyPhase::RepairRetry,
                                retry_started.elapsed().as_nanos() as u64,
                            );
                            self.mgr.trace_event(self.rank, 0, EventKind::RetryInFlight);
                            return Ok(());
                        }
                    }
                }
                // Genuinely stale: stop now instead of burning the rest
                // of the conflict window; the join classifies this as a
                // conflict rollback.
                return Err(failure(SpecFailure::ReadConflict));
            }
        }
        Ok(())
    }

    #[inline]
    fn poll_abort(&mut self) -> SpecResult<()> {
        // Rank 0 is never aborted or doomed: nothing to count or poll.
        if self.global.is_none() {
            return Ok(());
        }
        self.op_counter = self.op_counter.wrapping_add(1);
        if self.op_counter.is_multiple_of(ABORT_POLL_INTERVAL) {
            self.check_abort()?;
        }
        Ok(())
    }

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

    /// Execute a task inline (the parent running the continuation itself).
    fn run_inline(&mut self, task: &TaskRef<SpecContext>) -> SpecResult<()> {
        match task(self) {
            Ok(()) | Err(SpecAbort::BarrierReached) => Ok(()),
            Err(other) => Err(other),
        }
    }

    /// Join a speculative child: synchronize, validate, commit (possibly
    /// via value-predict retry) or roll back, and release its CPU.
    /// Returns the decision.  `site` and `model` identify the fork point
    /// for governor feedback.
    fn join_child(
        &mut self,
        child: Rank,
        site: u32,
        model: ForkModel,
    ) -> Result<crate::manager::CommitKind, SpecFailure> {
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
                    return Err(SpecFailure::NoSync);
                }
            }
        }

        // Wait for the child to stop (its closure completed, reached a
        // barrier or failed); this is idle time on the joining thread.
        // A *speculative* joiner keeps watching its own doom flags while
        // blocked: if a committing writer dooms it mid-wait, waiting out
        // the child's (equally doomed) subtree would waste the whole
        // window, so the join is abandoned and the subtree reaped now.
        let wait_started = Instant::now();
        let outcome = if self.rank == 0 {
            Some(self.mgr.wait_outcome(child))
        } else {
            let mgr = Arc::clone(&self.mgr);
            let rank = self.rank;
            let global = &mut self.global;
            let stats = &mut self.stats;
            mgr.wait_outcome_where(child, || {
                if mgr.abort_requested(rank) || mgr.hard_doom_requested(rank) {
                    return true;
                }
                if !mgr.doom_requested(rank) {
                    return false;
                }
                // In-flight value-predict retry, as in `check_abort`.
                if mgr.config().recovery.value_predict {
                    if let Some(buffer) = global.as_mut() {
                        let memory = mgr.memory();
                        let retry_started = Instant::now();
                        if buffer.revalidate_by_value(mgr.commit_log(), memory.as_ref()) {
                            mgr.clear_doom(rank);
                            stats.counters.retries_succeeded += 1;
                            mgr.recorder().latency().record(
                                LatencyPhase::RepairRetry,
                                retry_started.elapsed().as_nanos() as u64,
                            );
                            mgr.trace_event(rank, 0, EventKind::RetryInFlight);
                            return false;
                        }
                    }
                }
                true
            })
        };
        self.stats
            .add(Phase::Idle, wait_started.elapsed().as_nanos() as u64);
        let Some(mut outcome) = outcome else {
            // Doomed (or aborted) while blocked: reap the child's subtree
            // and unwind; the joiner's own joiner re-executes.
            self.mgr.reap_subtree(child);
            let reason = if self.mgr.abort_requested(self.rank) {
                SpecFailure::Cascaded
            } else {
                SpecFailure::ReadConflict
            };
            return Err(reason);
        };
        // Time the child spent waiting to be joined is speculative idle.
        outcome.stats.add(
            Phase::Idle,
            Instant::now()
                .duration_since(outcome.finished_at)
                .as_nanos() as u64,
        );

        let verdict = self
            .mgr
            .validate_and_commit(child, &mut outcome, self.global.as_mut());
        // Observed before the buffers are cleared: the live grain of the
        // child's written/read region, for the per-site grain column.
        let observed_grain = self.mgr.observed_grain(&outcome);

        // Finalize the child's buffers — clear them and park them for its
        // CPU's next task (the cost is charged to the speculative path, as
        // in the paper's breakdown).
        let finalize_started = Instant::now();
        self.mgr.return_buffers(child, outcome.buffers);
        outcome.stats.add(
            Phase::Finalize,
            finalize_started.elapsed().as_nanos() as u64,
        );

        // The unjoined children of a finished child: when the child
        // *committed*, its state already reached the commit log (or the
        // parent's overlay), so the grandchildren ran on top of valid
        // state — adopt the completed ones into this joiner instead of
        // re-speculating their work (see README "Recovery pipeline").
        // A child that rolled back invalidates the subtree as before.
        for grandchild in std::mem::take(&mut outcome.children) {
            if verdict.is_ok() {
                let adopted = self.mgr.adopt_subtree(grandchild, self.global.as_mut());
                self.stats.counters.adopted_threads += adopted;
                self.mgr
                    .metrics()
                    .registry()
                    .add(self.rank, CounterId::AdoptedThreads, adopted);
            } else {
                self.mgr.reap_subtree(grandchild);
            }
        }

        let committed = verdict.is_ok();
        if !committed {
            outcome.stats.mark_work_wasted();
        }
        // Feed the join outcome back into the governor's site profile,
        // carrying the false-sharing classification and the retry verdict
        // `validate_and_commit` recorded, so Throttle can back off
        // differently on grain-induced conflicts and treat a retried
        // conflict as the cheap repair it is.
        let site_outcome = match verdict {
            Ok(kind) => SiteOutcome::committed(
                outcome.stats.get(Phase::Work),
                outcome.stats.get(Phase::Idle),
                model,
            )
            .with_retry(kind.retried())
            .with_grain(observed_grain),
            Err(reason) => SiteOutcome::rolled_back(
                reason,
                outcome.stats.get(Phase::WastedWork),
                outcome.stats.get(Phase::Idle),
                model,
            )
            .with_false_sharing(outcome.stats.counters.false_sharing_suspects > 0)
            .with_grain(observed_grain),
        };
        self.mgr.governor().record_outcome(site, &site_outcome);
        self.mgr.record_speculative(
            &outcome.stats,
            verdict.err(),
            verdict
                .map(crate::manager::CommitKind::retried)
                .unwrap_or(false),
        );
        self.mgr.release_cpu(child, self.rank);
        verdict
    }
}

impl TlsContext for SpecContext {
    type Handle = SpecHandle;

    fn work(&mut self, _units: u64) -> SpecResult<()> {
        // Real time is measured directly; this is only a poll opportunity.
        self.poll_abort()
    }

    fn load_word(&mut self, addr: Addr) -> SpecResult<u64> {
        self.spec_read(addr)
    }

    fn store_word(&mut self, addr: Addr, value: u64) -> SpecResult<()> {
        self.spec_write(addr, value)
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
        self.mgr
            .trace_event(self.rank, point, EventKind::ForkAttempt);

        // A *speculative* parent re-executing a continuation after a
        // rollback must not re-speculate: its accumulated write-set is
        // invisible in main memory, so any child it forked would read
        // stale values underneath the overlay and be doomed from birth —
        // re-forking here is what turns one conflict into a cascade of
        // garbage subtrees.  The re-execution is pinned inline instead.
        // (Rank 0 re-executions keep forking: their stores publish
        // immediately, so re-forked children read fresh values and the
        // reader registry surgically dooms the genuinely stale ones.)
        if self.rank != 0 && self.reexec_depth > 0 {
            self.stats.counters.failed_forks += 1;
            self.mgr
                .metrics()
                .registry()
                .add(self.rank, CounterId::FailedForks, 1);
            self.mgr.trace_event(
                self.rank,
                point,
                EventKind::ForkDenied {
                    policy: DenyPolicy::Reexec,
                },
            );
            return Ok(SpecHandle {
                point,
                task,
                child: None,
                model,
                throttled: false,
            });
        }

        // Ask the adaptive governor whether this fork site may speculate
        // (and under which model) before spending any fork overhead.
        let model = match self.mgr.governor().decide(point, model) {
            ForkDecision::Allow(chosen) => {
                self.mgr.trace_event(
                    self.rank,
                    point,
                    EventKind::GovernorDecision { allowed: true },
                );
                chosen
            }
            ForkDecision::Deny => {
                self.stats.counters.throttled_forks += 1;
                self.mgr
                    .metrics()
                    .registry()
                    .add(self.rank, CounterId::ThrottledForks, 1);
                self.mgr.trace_event(
                    self.rank,
                    point,
                    EventKind::GovernorDecision { allowed: false },
                );
                self.mgr.trace_event(
                    self.rank,
                    point,
                    EventKind::ForkDenied {
                        policy: DenyPolicy::Governor,
                    },
                );
                return Ok(SpecHandle {
                    point,
                    task,
                    child: None,
                    model,
                    throttled: true,
                });
            }
        };

        let find_started = self.begin_overhead();
        let child = self.mgr.try_acquire_cpu(self.rank, model);
        self.end_overhead(Phase::FindCpu, find_started);

        let Some(child) = child else {
            self.stats.counters.failed_forks += 1;
            self.mgr
                .metrics()
                .registry()
                .add(self.rank, CounterId::FailedForks, 1);
            let policy = if self.mgr.model_allows_fork(self.rank, model) {
                DenyPolicy::NoCpu
            } else {
                DenyPolicy::Model
            };
            self.mgr
                .trace_event(self.rank, point, EventKind::ForkDenied { policy });
            return Ok(SpecHandle {
                point,
                task,
                child: None,
                model,
                throttled: false,
            });
        };

        let fork_started = self.begin_overhead();
        // Transfer the current frame's register variables to the child
        // (MUTLS_save_local / set_regvar on the parent side).
        let regvars: Vec<(usize, RegisterValue)> =
            self.local.current_frame().registers.iter().collect();
        // Emitted on the child's lane *before* the dispatch: the channel
        // send orders this write before anything the child emits, keeping
        // the ring single-producer.
        self.mgr.trace_event(
            child,
            point,
            EventKind::SpecStart {
                parent: self.rank as u32,
            },
        );
        self.mgr.dispatch(
            child,
            point,
            model,
            SpecRequest {
                task: Arc::clone(&task),
                regvars,
            },
        );
        self.children.push(child);
        self.stats.counters.forks += 1;
        self.end_overhead(Phase::Fork, fork_started);

        Ok(SpecHandle {
            point,
            task,
            child: Some(child),
            model,
            throttled: false,
        })
    }

    fn join(&mut self, handle: SpecHandle) -> SpecResult<JoinOutcome> {
        self.check_abort()?;
        let SpecHandle {
            point,
            task,
            child,
            model,
            ..
        } = handle;

        let Some(child) = child else {
            // Speculation never happened: execute the continuation inline.
            self.run_inline(&task)?;
            return Ok(JoinOutcome::NotSpeculated);
        };

        let join_started = self.begin_overhead();
        let verdict = self.join_child(child, point, model);
        self.end_overhead(Phase::Join, join_started);

        match verdict {
            Ok(_kind) => {
                self.stats.counters.commits += 1;
                Ok(JoinOutcome::Committed)
            }
            Err(reason) => {
                self.stats
                    .counters
                    .record_rollback(RollbackReason::from(reason));
                // Rollback (squash): the parent re-executes the
                // continuation inline; the squash already cascaded into
                // the child's own speculative subtree above.  While the
                // re-execution runs, this thread's buffered stores
                // hard-doom their registered readers (see `spec_write`).
                self.reexec_depth += 1;
                let repair_started = Instant::now();
                let inline_result = self.run_inline(&task);
                let phase = if self.mgr.config().recovery.mode == RecoveryMode::Targeted {
                    LatencyPhase::RepairDoomSet
                } else {
                    LatencyPhase::RepairCascade
                };
                self.mgr
                    .recorder()
                    .latency()
                    .record(phase, repair_started.elapsed().as_nanos() as u64);
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

    fn check_point(&mut self) -> SpecResult<()> {
        self.check_abort()
    }

    fn is_speculative(&self) -> bool {
        self.rank != 0
    }

    fn rank(&self) -> Rank {
        self.rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;

    /// Hand-driven (no worker threads), so "deposited but unjoined" is a
    /// program point, not a race: rank 0's direct store is stamped exactly
    /// while the child's read set can still be validated.
    #[test]
    fn direct_stores_publish_exactly_while_a_read_set_is_exposed() {
        let (mgr, _receivers) =
            ThreadManager::new(RuntimeConfig::with_cpus(1).memory_bytes(1 << 16));
        let mut rank0 = SpecContext::non_speculative(Arc::clone(&mgr));
        let cell = rank0.alloc::<u64>(1);
        let addr = cell.addr_of(0);
        let deposit = |status: TaskStatus| {
            let child = mgr.try_acquire_cpu(0, ForkModel::Mixed).expect("idle CPU");
            let mut ctx = SpecContext::speculative(Arc::clone(&mgr), child, Vec::new());
            ctx.spec_read(addr).expect("registered address");
            assert!(mgr.deposit_outcome(child, ctx.into_outcome(status, Instant::now())));
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
}
