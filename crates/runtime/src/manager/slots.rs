//! The slots: what is per virtual CPU — acquiring and releasing one, its
//! buffers, its share of the exposure count, its abort and doom flags.
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
//! [`Runtime`]: crate::Runtime

use super::*;

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
    pub(super) fn new(config: &RuntimeConfig, rank: Rank) -> Self {
        ThreadBuffers {
            global: GlobalBuffer::for_reader(config.buffer, rank),
            local: LocalBuffer::default(),
        }
    }

    /// Whether nothing of an earlier task is left behind.
    pub(super) fn is_clean(&self) -> bool {
        let global = &self.global;
        !global.overflow_pending()
            && global.read_set_len() == 0
            && global.write_set_len() == 0
            && global.stats() == BufferStats::default()
            && self.local.registers().occupied() == 0
    }
}

impl ThreadManager {
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
    pub(super) fn retire_exposure(&self, slot: &Slot) {
        if slot.exposed.swap(false, Ordering::AcqRel) {
            self.exposed.fetch_sub(1, Ordering::Release);
        }
    }

    /// Invariant the elision rests on: an outcome is consumed (committed,
    /// absorbed, retried) only while still exposed, and a `Failed` one was
    /// retired at its deposit.
    pub(super) fn exposure_matches(&self, rank: Rank, status: TaskStatus) -> bool {
        rank == 0
            || self.slots[rank - 1].exposed.load(Ordering::Acquire)
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
    /// in-flight count.
    fn claim_idle_slot(&self) -> Option<Rank> {
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
                return Some(rank);
            }
        }
        None
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
}
