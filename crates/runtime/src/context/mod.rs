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
//! continuation for whichever OS thread is idle.  A fork denied — for want
//! of a CPU, by the forking model or by the governor — keeps nothing: its
//! join runs the continuation inline, as the simulator's replay does.
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
//!
//! This file holds the context, its handle and its constants, and the
//! [`TlsContext`] implementation; each protocol the context runs has a file
//! of its own:
//!
//! * `access.rs` — the access shells: first touch and first store, rank
//!   0's published stores, the poll cadence;
//! * `sync.rs` — the poll: aborts, dooms and the child side of early
//!   synchronization;
//! * `join.rs` — the deposit and the hand-back, and the joiner's side:
//!   wait, verdict, the reap of unjoined children, resuming after a
//!   promotion;
//! * `range.rs` — `fork_range`'s lazy split and the prices it cuts by.

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mutls_membuf::{
    Addr, BufferError, GPtr, GlobalBuffer, GlobalMemory, SpecFailure, Validation, WORD_BYTES,
};

use mutls_trace::DenyPolicy;

use crate::fork_model::ForkModel;
use crate::ledger::Point;
use crate::manager::{CommitKind, Handoff, PromotedOutcome, SpecOutcome, ThreadManager};
use crate::protocol::{self, Price};
use crate::stats::{Phase, ThreadStats};
use crate::task::{
    failure, over_range, task, JoinOutcome, Rank, SpecAbort, SpecResult, TaskRef, TaskStatus,
    TlsContext, Word,
};

mod access;
mod join;
mod range;
mod sync;
#[cfg(test)]
mod tests;

/// How often speculative memory operations poll the abort flag (and,
/// with it, the doom flags and the sync request).
const ABORT_POLL_INTERVAL: u32 = 256;

/// The most exposed stores rank 0 holds unpublished: a full batch is
/// published at once (8 KiB of addresses, one sort and one walk of the
/// commit log).
pub(crate) const PENDING_CAP: usize = 1024;

/// How long a thread with nothing to run — a worker between tasks, a
/// joiner at its join — spins (yielding the core each round) before it
/// parks.  Long enough that the two waits of a loop that forks a tail of
/// itself once a step end inside the spin: the worker's, from its deposit
/// to the next step's fork (a join, a commit and the sequential stretch
/// between two ranges: md ≈ 100 µs), and the joiner's, for a tail still
/// running at speculative-access price when its own share is done (md ≈
/// 300 µs at the midpoint; the priced cut of `protocol::forker_share`
/// leaves only the imbalance, tens of µs).  A parked thread comes
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

/// Handle returned by a fork point and consumed by the matching join point.
pub struct SpecHandle {
    point: u32,
    task: TaskRef<SpecContext>,
    child: Option<Rank>,
    /// Forking model the child was launched under (governor feedback).
    model: ForkModel,
    /// True when the governor suppressed speculation at this fork point.
    throttled: bool,
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

    /// True if a speculative thread was launched at the fork point.
    pub fn speculated(&self) -> bool {
        self.child.is_some()
    }

    /// True if the adaptive governor suppressed speculation here.
    pub fn throttled(&self) -> bool {
        self.throttled
    }
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
    children: Vec<Rank>,
    stats: ThreadStats,
    /// Since when `stats` accounts for this thread's time: the start of
    /// the context, or its promotion.
    started: Instant,
    last_mark: Instant,
    op_counter: u32,
    /// Depth of rollback-triggered inline re-executions currently on the
    /// stack.  While positive, a speculative thread forks nothing (see
    /// `fork`).
    reexec_depth: u32,
    /// Set once this context, born speculative, was promoted.
    promotion: Option<Promotion>,
    /// A promotion attempt failed validation (see [`SpecOutcome::settled`]).
    settled: bool,
    /// What this task's `fork_range` bodies cost at speculative price, per
    /// fork site, until its commit books them.
    prices: Vec<(u32, Price)>,
    /// Addresses rank 0 stored while a read set was exposed, not yet
    /// published to the commit log (see `spec_write`); empty while the
    /// context is speculative.
    pending: Vec<Addr>,
}

impl SpecContext {
    fn new(mgr: Arc<ThreadManager>, rank: Rank, global: Option<GlobalBuffer>) -> Self {
        let now = Instant::now();
        SpecContext {
            mgr,
            rank,
            global,
            children: Vec::new(),
            stats: ThreadStats::new(),
            started: now,
            last_mark: now,
            op_counter: 0,
            reexec_depth: 0,
            promotion: None,
            settled: false,
            prices: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Create the non-speculative (rank 0) context.
    pub(crate) fn non_speculative(mgr: Arc<ThreadManager>) -> Self {
        Self::new(mgr, 0, None)
    }

    /// Create a speculative context for virtual CPU `rank`, on the CPU's
    /// own buffer.
    pub(crate) fn speculative(mgr: Arc<ThreadManager>, rank: Rank) -> Self {
        let buffer = mgr.take_buffer(rank);
        Self::new(mgr, rank, Some(buffer))
    }

    /// Charge to `Work` whatever of `[started, now]` no phase has claimed.
    fn close_books(&mut self, now: Instant) {
        let total = now.duration_since(self.started).as_nanos() as u64;
        let claimed = self.stats.total();
        self.stats.add(Phase::Work, total.saturating_sub(claimed));
    }

    /// Finish the non-speculative root context: publish its pending
    /// stores, return the critical-path statistics and the children left
    /// for the caller to drain.
    pub(crate) fn finish(mut self) -> (ThreadStats, Vec<Rank>) {
        self.publish_pending();
        self.close_books(Instant::now());
        (self.stats, self.children)
    }

    /// Shared memory arena.
    pub fn memory(&self) -> Arc<GlobalMemory> {
        Arc::clone(self.mgr.memory())
    }

    /// Allocate `count` elements of `T` from the shared arena; what the
    /// arena hands out is what a speculative access may touch
    /// ([`GlobalMemory::is_allocated`]).
    ///
    /// # Panics
    /// Panics when called from a speculative context: speculative threads
    /// may not allocate memory (paper §IV-G1).
    pub fn alloc<T: Word>(&mut self, count: usize) -> GPtr<T> {
        assert!(
            self.rank == 0,
            "speculative threads may not allocate memory"
        );
        self.mgr.memory().alloc::<T>(count)
    }

    /// Per-thread statistics gathered so far (primarily for tests).
    pub fn stats(&self) -> &ThreadStats {
        &self.stats
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
                return Ok(self.inline_handle(point, task, model, throttled));
            }
        };
        self.observe(point, Point::GovernorRuled(true));

        let fork_started = self.begin_overhead();
        // The event goes on the child's lane, *before* the dispatch: the
        // queue push orders this write before anything the child emits,
        // keeping the ring single-producer.
        self.observe(point, Point::SpecStart(child as u32));
        // The child's snapshots must cover every store it can see.
        self.publish_pending();
        self.mgr.dispatch(child, point, model, Arc::clone(&task));
        self.children.push(child);
        self.end_overhead(Phase::Fork, fork_started);

        Ok(SpecHandle {
            point,
            task,
            child: Some(child),
            model,
            throttled: false,
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
            forked_at,
            ..
        } = handle;

        let Some(child) = child else {
            // Speculation never happened: execute the continuation inline.
            self.run_inline(&task)?;
            return Ok(JoinOutcome::NotSpeculated);
        };

        match self.join_child(child, point, model, forked_at)? {
            Ok(_kind) => Ok(JoinOutcome::Committed),
            Err(reason) => {
                // Rollback (squash): the parent re-executes the
                // continuation inline; the squash already cascaded into
                // the child's own speculative subtree above.  While the
                // re-execution runs, a speculative thread forks nothing.
                self.reexec_depth += 1;
                let repair_started = Instant::now();
                let inline_result = self.run_inline(&task);
                let repair = repair_started.elapsed().as_nanos() as u64;
                self.observe(point, Point::JoinRolledBack(repair));
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
        // Rank 0's pending stores reach a running stale reader here too.
        if !self.pending.is_empty() {
            self.publish_pending();
        }
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
    /// the forker keeps what leaves both sides the same work at their
    /// measured prices per iteration (see `split_when_idle`): at equal
    /// price one part in (CPUs + 1) — half on one speculative CPU, one
    /// iteration, the chain, once there is a CPU for every other iteration,
    /// which is what a loop-carried dependence wants: a continuation only
    /// ever commits when it starts after the forker's *last* store.  Built
    /// on the public `fork`/`join` only, so promotion, the governor,
    /// rollback and inline re-execution apply to a tail as to any
    /// continuation.
    fn fork_range<F>(&mut self, point: u32, range: Range<usize>, body: F) -> SpecResult<()>
    where
        F: Fn(&mut Self, usize) -> SpecResult<()> + Send + Sync + 'static,
    {
        over_range(self, range, body, |ctx, range, body| {
            ctx.split_when_idle(point, range, body)
        })
    }
}
