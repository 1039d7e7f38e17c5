//! The slots: what is per virtual CPU — acquiring and releasing one, its
//! buffers, and its status word: its share of the exposure count, its
//! abort and doom bits.
//!
//! # Virtual CPUs, OS threads and the non-speculative role
//!
//! A virtual CPU (rank 1..=N) is a *slot*: one status word (the bit table
//! on `Slot`), the sync-request mailbox, the CPU's buffer while no task
//! holds it (see "A CPU's buffer" below) and — once its task finishes —
//! the outcome: that buffer, the statistics and the list of unjoined
//! children.  A slot is what a fork acquires and a join releases; it is
//! **not** an OS thread.  The runtime has N + 1 OS threads — the N workers
//! [`Runtime`] spawns and the caller of `run` — and **any of them whose top
//! frame is idle runs any dispatched task**: forks push `(rank, task)` on
//! one dispatch queue, and idle threads pop from it.
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
//! The first task it finds there is usually the promoted child's next
//! tail: the promotion freed the CPU the child held, so the child's
//! [`fork_range`](crate::TlsContext::fork_range) walk finds it idle at its
//! next iteration boundary and forks the tail of what is left there.  That
//! is how a range of long chunks keeps both OS threads busy on one
//! speculative CPU.  A fork denied for want of a CPU is not kept for such a
//! moment: its join runs the continuation inline, as the replay does.  A
//! promotion whose validation fails dooms the child, which unwinds like
//! any conflict; the joiner's rollback-and-re-execute path is the only
//! recovery.
//!
//! # A CPU's buffer
//!
//! A CPU's [`GlobalBuffer`] is built once, at its first speculation, and
//! from then on is always in exactly one place:
//!
//! 1. *idle CPU* — parked, cleared, in the CPU's slot;
//! 2. *running context* — `SpecContext::speculative` takes it when an OS
//!    thread starts a task, building it if the CPU never speculated;
//! 3. *deposited outcome* — the finished task's [`SpecOutcome`] carries it
//!    (read set, write set and all) to whoever consumes it;
//! 4. *back* — every path that consumes or discards an outcome (join,
//!    `reap_subtree`, `drain_subtree`, an orphaned deposit), and a task
//!    that is promoted, hands it to [`ThreadManager::return_buffer`]
//!    (through `settle_child`), which unregisters its reads, clears it and
//!    parks it **before** the CPU is released, so the CPU's next task
//!    finds it.
//!
//! Because a buffer never changes CPU, the rank it registers its reads
//! under is always the rank of the CPU running it.  A registration lives as
//! long as the read it covers: made where a read enters a read set (a
//! first touch, or an absorb), and dropped in step 4 and nowhere else.
//!
//! [`Runtime`]: crate::Runtime

use super::*;

/// Whether nothing of an earlier task is left in `buffer`.
pub(super) fn is_clean(buffer: &GlobalBuffer) -> bool {
    !buffer.overflow_pending()
        && buffer.registered_ranges().is_empty()
        && buffer.read_set_len() == 0
        && buffer.write_set_len() == 0
        && buffer.precise_passes() == 0
}

impl ThreadManager {
    /// Number of buffers built since construction.
    pub fn buffers_created(&self) -> usize {
        self.buffers_created.load(Ordering::Relaxed)
    }

    /// Take virtual CPU `rank`'s buffer for the task it is about to run,
    /// building it if this is the CPU's first speculation (so a runtime
    /// that never speculates on a CPU never pays for its buffer).
    pub(crate) fn take_buffer(&self, rank: Rank) -> GlobalBuffer {
        let parked = self.slots[rank - 1].buffer.lock().take();
        let buffer = parked.unwrap_or_else(|| {
            self.buffers_created.fetch_add(1, Ordering::Relaxed);
            GlobalBuffer::for_reader(self.config.buffer, rank)
        });
        debug_assert!(is_clean(&buffer), "rank {rank}: dirty buffer handed out");
        debug_assert_eq!(buffer.reader(), rank, "buffer changed CPU");
        buffer
    }

    /// Unregister the reads of the buffer a finished task of virtual CPU
    /// `rank` left behind — whatever its fate, the one place that happens,
    /// one RMW per range the buffer registered on — then clear it and park
    /// it for the CPU's next task.  Must run before
    /// [`release_cpu`](Self::release_cpu), or that task could start
    /// without it, and lose registrations of its own to this one.
    pub fn return_buffer(&self, rank: Rank, mut buffer: GlobalBuffer) {
        let ranges = buffer.registered_ranges().iter().copied();
        self.commit_log.unregister_reader(ranges, rank);
        buffer.clear();
        *self.slots[rank - 1].buffer.lock() = Some(buffer);
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

    /// Retire the exposure of a slot whose word read `old` in the RMW that
    /// cleared `EXPOSED` (a no-op when it already was clear).
    pub(super) fn retire_exposure(&self, old: u8) {
        if old & EXPOSED != 0 {
            self.exposed.fetch_sub(1, Ordering::Release);
        }
    }

    /// Invariant the elision rests on: an outcome is consumed (committed,
    /// absorbed, retried) only while still exposed, and a `Failed` one was
    /// retired at its deposit.
    pub(super) fn exposure_matches(&self, rank: Rank, status: TaskStatus) -> bool {
        rank == 0
            || (self.slots[rank - 1].status.load(Ordering::Acquire) & EXPOSED != 0)
                != matches!(status, TaskStatus::Failed(_))
    }

    /// Try to acquire an idle virtual CPU for a fork requested by
    /// `forker` under `model` (paper: `MUTLS_get_CPU`).  A denial says
    /// which of the two denied — the model or the want of a CPU — from the
    /// one evaluation that did (see [`protocol::claim_cpu`]).
    pub fn try_acquire_cpu(&self, forker: Rank, model: ForkModel) -> Result<Rank, DenyPolicy> {
        let most = self.most_speculative.load(Ordering::Acquire);
        let facts = Forker {
            speculative: forker != 0,
            any_in_flight: self.active.load(Ordering::Acquire) != 0,
            latest: forker == most,
        };
        protocol::claim_cpu(model, facts, || self.claim_idle_slot())
    }

    /// Claim the first idle virtual CPU, raising its exposure and the
    /// in-flight count.  One CAS per slot from any word without `RUNNING`
    /// to exactly `RUNNING | EXPOSED`: a doom bit that raced the last
    /// release goes with it.
    fn claim_idle_slot(&self) -> Option<Rank> {
        let claim = |word: u8| (word & RUNNING == 0).then_some(RUNNING | EXPOSED);
        let i = self.slots.iter().position(|slot| {
            slot.status
                .fetch_update(Ordering::AcqRel, Ordering::Relaxed, claim)
                .is_ok()
        })?;
        let (rank, slot) = (i + 1, &self.slots[i]);
        let stamp = self.fork_clock.fetch_add(1, Ordering::Relaxed);
        slot.logical.store(stamp, Ordering::Release);
        *slot.result.lock() = None;
        self.exposed.fetch_add(1, Ordering::AcqRel);
        self.active.fetch_add(1, Ordering::AcqRel);
        self.most_speculative.store(rank, Ordering::Release);
        Some(rank)
    }

    /// Hard-doom `rank`'s own task (a promotion that failed validation):
    /// every later poll fails too, so the task unwinds even if its code
    /// swallows the first error.
    pub(crate) fn doom_hard(&self, rank: Rank) {
        self.slots[rank - 1]
            .status
            .fetch_or(DOOMED_HARD, Ordering::Release);
    }

    /// The (site, model) `rank`'s running task was dispatched with.
    pub(crate) fn launch_info(&self, rank: Rank) -> (SiteId, ForkModel) {
        self.slots[rank - 1].launch_info()
    }

    /// The request bits of the speculative thread `rank`'s status word:
    /// the poll's one load.
    #[inline]
    pub(crate) fn requests(&self, rank: Rank) -> u8 {
        self.slots[rank - 1].status.load(Ordering::Acquire) & REQUESTS
    }

    /// True if the speculative thread `rank` has been asked to abort.
    pub fn abort_requested(&self, rank: Rank) -> bool {
        rank != 0 && self.requests(rank) & ABORT != 0
    }

    /// True if the speculative thread `rank` was doomed surgically by a
    /// publish (its registered reads are stale; an in-flight
    /// value-predict retry may still clear it).
    pub fn doom_requested(&self, rank: Rank) -> bool {
        rank != 0 && self.requests(rank) & DOOMED != 0
    }

    /// Clear `rank`'s (soft) doom flag after an in-flight value-predict
    /// retry re-validated (and re-stamped) every conflicting read: the
    /// doom was range-induced false sharing (or a value-identical write)
    /// and the thread may keep running.  A commit racing the retry
    /// re-dooms or is caught by join-time validation against the fresh
    /// stamps.  Hard dooms are never cleared.
    pub fn clear_doom(&self, rank: Rank) {
        if rank != 0 {
            self.slots[rank - 1]
                .status
                .fetch_and(!DOOMED, Ordering::Release);
        }
    }

    /// Publish `batch` — addresses `committer` already wrote to main
    /// memory — and doom exactly the threads registered as readers of the
    /// ranges it covers: the one publish of the runtime, for rank 0's
    /// pending stores and for a join that commits to main memory.  One
    /// walk of the commit log ([`CommitLog::publish`]) sorts the batch,
    /// stamps each range under one version and takes its readers; the
    /// dooms follow the whole take.  With `skip_unread` (rank 0's stores)
    /// a range no reader could hold stale is not stamped; a join stamps
    /// every range it writes, as the replay does.  `batch` is left empty.
    /// `committer` (rank 0, or the child a join commits, still registered
    /// until its buffer is returned) is never doomed.  Returns how many threads were
    /// doomed.  Enumeration is complete at any thread count: ranks past
    /// the registry's 63-rank bitmask sit in a spill set per range
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
    pub fn publish(&self, batch: &mut Vec<Addr>, committer: Rank, skip_unread: bool) -> u64 {
        // Only running threads are doomed — an idle slot's registration
        // is stale, and so is the committer's.  A release between the
        // check and the `fetch_or` leaves the bit on an idle word, which
        // the next claim drops.
        let live = |rank: Rank| {
            rank != committer
                && rank <= self.slots.len()
                && self.slots[rank - 1].status.load(Ordering::Acquire) & RUNNING != 0
        };
        // Logical-order filter: a reader forked *before* the committing
        // writer executes logically earlier work, so its reads are
        // legitimately allowed to precede the write (the RMW-predecessor
        // pattern: the forker read the cell, forked the continuation,
        // and the continuation's commit must not doom it).  Sparing a
        // predecessor is always sound: its read is not stale, so no
        // verdict is owed to it.  It keeps its registrations, so a later
        // publish by a logically earlier writer still dooms it.  Rank 0
        // (stamp 0) spares nobody; a task claimed after the committer
        // holds a later stamp, so whatever the take returns is no
        // predecessor.
        let stamp = self.logical_of(committer);
        let spare =
            |rank: Rank| live(rank) && self.slots[rank - 1].logical.load(Ordering::Acquire) < stamp;
        let (_, set) = self.commit_log.publish(batch, skip_unread, spare);
        // The dooms follow the whole take: a doomed reader's in-flight
        // retry re-registers, and no later range of the take may clear
        // that.
        let mut doomed = 0;
        for rank in set.ranks().filter(|&rank| live(rank)) {
            self.slots[rank - 1]
                .status
                .fetch_or(DOOMED, Ordering::Release);
            doomed += 1;
        }
        doomed
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

    /// Release a virtual CPU after its outcome has been consumed: one
    /// swap clears its whole status word, and the old value says whether
    /// the exposure still needs retiring.
    pub fn release_cpu(&self, rank: Rank, joiner: Rank) {
        let old = self.slots[rank - 1].status.swap(0, Ordering::AcqRel);
        self.retire_exposure(old);
        self.active.fetch_sub(1, Ordering::AcqRel);
        let _ = self.most_speculative.compare_exchange(
            rank,
            joiner,
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
    }
}
