//! The join: deposit, wait, validate, commit or roll back.
//!
//! # The join protocol
//!
//! The synchronization protocol mirrors the paper's flag-based barrier,
//! on the bits of the child's status word (the table on `Slot`): the
//! joining thread signals the child (`sync_status` ≙ `SYNC_POSTED`, with
//! the request in the slot's `sync`, or `ABORT` when the joiner discards
//! it) and then waits for the child's outcome (`valid_status` ≙
//! `DEPOSITED`, with the [`SpecOutcome`] in the slot's `result`) or its
//! promotion, after which validation and commit/rollback are performed and
//! charged to the speculative thread's statistics.

use super::*;

/// Everything a finished speculative task deposits for its joiner.
pub struct SpecOutcome {
    /// How the task stopped.
    pub status: TaskStatus,
    /// The task's buffer (taken by the joiner for validation/commit).
    pub buffer: GlobalBuffer,
    /// Ranks of children the task forked but never joined.
    pub children: Vec<Rank>,
    /// The task's accumulated statistics.
    pub stats: ThreadStats,
    /// When the task stopped (used to charge the waiting-to-be-joined time
    /// as speculative idle).
    pub finished_at: Instant,
    /// The task already ran [`ThreadManager::validate_and_commit`] on
    /// this buffer itself — a promotion attempt that failed — so the
    /// `Failed` status *is* the verdict: it is traced and its precise
    /// passes counted.  The joiner rolls back without validating a second
    /// time.
    pub settled: bool,
    /// What the task's `fork_range` bodies cost, per fork site: booked if
    /// it commits, forgotten if not.
    pub(crate) prices: Vec<(SiteId, Price)>,
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

impl ThreadManager {
    /// The fork-site id `rank`'s current task was launched from (0 for the
    /// non-speculative thread).
    fn site_of(&self, rank: Rank) -> SiteId {
        if rank == 0 || rank > self.slots.len() {
            0
        } else {
            self.slots[rank - 1].site.load(Ordering::Relaxed)
        }
    }

    /// Block until the speculative thread `rank` deposits its outcome, then
    /// take it — or return `None` once `abandon()` reports that the
    /// *waiting* thread should stop (it was doomed or aborted while blocked
    /// at the join).  Without that, a doomed speculative joiner would sit
    /// out its child's entire (equally doomed) subtree before noticing;
    /// with it, the doom unwinds the whole blocked chain within the polling
    /// interval.  The abandoning caller still owns the child and must reap
    /// it.
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
            // Dead at its deposit: retired before it is published.
            let old = slot.status.fetch_and(!EXPOSED, Ordering::AcqRel);
            self.retire_exposure(old);
        }
        let mut outcomes = slot.result.lock();
        // Deposit vs. reap (the table on `Slot`): a reap that came first
        // left `ORPHANED`, and its `take` found nothing.
        if slot.status.fetch_or(DEPOSITED, Ordering::AcqRel) & ORPHANED != 0 {
            drop(outcomes);
            self.finish_discarded(rank, outcome);
            return false;
        }
        *outcomes = Some(outcome);
        drop(outcomes);
        slot.result_cv.notify_all();
        true
    }

    /// Validate a finished child and either publish, retry or discard its
    /// buffer — the join half of the **recovery engine**, which picks the
    /// cheapest sound repair per conflict (the README's decision table).
    ///
    /// `child` is the virtual CPU the task ran on (0 in unit tests that
    /// drive the protocol by hand); `parent_buffer` is `Some` when the
    /// joiner is itself speculative, in which case a valid child is
    /// *absorbed* into the parent's buffer instead of being committed to
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
    /// The log check is one walk ([`GlobalBuffer::validate`]), and it
    /// climbs the ladder as it goes: a read whose word the version ring
    /// proves untouched passes precisely; a touched word still at its
    /// first-read value is re-stamped in place — the **value-predict
    /// retry**, a commit with no re-execution, `Ok(CommitKind::Retried)`;
    /// a changed value is a conflict.  A conflict in the log, or a child
    /// read the speculative parent's overlay contradicts, rolls the child
    /// back as a conflict, and its joiner re-executes it inline; nothing is
    /// doomed here.  The readers a write makes stale are doomed where it is
    /// published ([`publish`](Self::publish)): by this commit, or by the
    /// re-execution's stores.
    ///
    /// The child's registrations die with its buffer
    /// ([`return_buffer`](Self::return_buffer)), whatever the verdict: a
    /// commit publishes with them, and `publish` never dooms its
    /// committer.
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
        // The points below are the child's, on its lane.
        let note = |point| self.observe(child, site, point);
        // A child dead of `reason` — it stopped `Failed`, or this join
        // discards it after a validation that found nothing: the verdict
        // on a thread no recovery arm repairs.
        let dead = |reason| {
            let facts = JoinFacts {
                dead: Some(reason),
                ..JoinFacts::default()
            };
            protocol::join_verdict(facts)
        };
        let roll_back = |verdict: JoinVerdict| {
            let (reason, plan) = verdict.rollback.expect("the verdict rolls back");
            note(Point::RolledBack { reason, plan });
            reason
        };
        let ranges = outcome.buffer.read_set_len() as u32;
        note(Point::ValidateBegin(ranges));

        let failure = match outcome.status {
            TaskStatus::Failed(reason) => Some(reason),
            TaskStatus::Completed | TaskStatus::Barrier => None,
        };
        if let Some(reason) = failure {
            // In-flight doom-watch revalidations may still have
            // precise-passed before the final failure — keep those counted.
            let precise = outcome.buffer.precise_passes();
            let took = elapsed_ns(started);
            outcome.stats.add(Phase::Validation, took);
            let verdict = dead(reason);
            note(Point::PrecisePasses(precise));
            let validated = Point::Validated {
                outcome: verdict.outcome,
                took,
                retry: None,
            };
            note(validated);
            return Err(roll_back(verdict));
        }

        // Dependence validation against the commit log, repaired by value
        // where it can be, plus the parent write-set overlay when the
        // joiner is speculative.
        let log_verdict = outcome.buffer.validate(&self.commit_log, mem);
        let retried = log_verdict == Validation::Retried;
        // The joining parent's view of a word — its own uncommitted bytes
        // overlaid on main memory — serves overlay validation.
        let valid = log_verdict != Validation::Conflict
            && match &parent_buffer {
                None => true,
                Some(parent) => outcome
                    .buffer
                    .validate_view(|addr| parent.overlay(mem, addr)),
            };
        let took = elapsed_ns(started);
        outcome.stats.add(Phase::Validation, took);
        // Single capture point for the buffer's ring-precision counter:
        // it covers both this join-time validation and any in-flight
        // doom-watch revalidations the thread survived along the way.
        let precise_total = outcome.buffer.precise_passes();
        let facts = JoinFacts {
            dead: None,
            valid,
            retried,
            precise_pass: precise_total > 0,
        };
        let verdict = protocol::join_verdict(facts);
        note(Point::PrecisePasses(precise_total));
        let validated = Point::Validated {
            outcome: verdict.outcome,
            took,
            // The in-place re-stamp is the whole repair for this arm.
            retry: retried.then_some(took),
        };
        note(validated);
        if verdict.rollback.is_some() {
            return Err(roll_back(verdict));
        }

        // Injected rollback — only in the sensitivity experiment of paper
        // §V-D (`RuntimeConfig::rollback_probability` above zero).
        if self.draw_injected_rollback() {
            return Err(roll_back(dead(SpecFailure::Injected)));
        }

        // Commit.  Publishing to main memory records the batch in the
        // commit log (memory first, then the version bump — see the
        // ordering protocol on `CommitLog`), which is what dooms any
        // still-running logical successor that read stale values — now
        // surgically, through the reader registry.
        let commit_started = Instant::now();
        let commit_result = match parent_buffer {
            None => {
                // The one-sided guarantee's outcome: after the flush, with
                // no other committer, every word a `Valid` or `Retried`
                // child read from memory still holds what it read.
                debug_assert!(
                    outcome.buffer.validate_view(|addr| mem.read_word(addr)),
                    "rank {child}: a {log_verdict:?} join read a word memory no longer holds"
                );
                outcome.buffer.commit(mem);
                let writes = outcome.buffer.write_batch();
                if !writes.is_empty() {
                    let publish_started = Instant::now();
                    let victims = self.publish(writes, child, false);
                    note(Point::CommitStamped(elapsed_ns(publish_started)));
                    note(Point::Doomed(victims));
                }
                Ok(())
            }
            // The child's read dependences become the parent's, and so do
            // the registrations a publish dooms the parent through.
            Some(parent) => parent.absorb(&outcome.buffer, &self.commit_log),
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
                note(committed);
                Ok(if retried {
                    CommitKind::Retried
                } else {
                    CommitKind::Committed
                })
            }
            // The parent could not hold the child's data; discard the child.
            Err(_) => Err(roll_back(dead(SpecFailure::BufferOverflow))),
        }
    }
}
