//! The join: deposit, wait, validate, commit or roll back, adopt.
//!
//! # The join protocol
//!
//! The synchronization protocol mirrors the paper's flag-based barrier:
//! the joining thread signals the child (`sync_status` ≙ the `abort` /
//! sync-request / result handshake here) and then waits for the child's
//! outcome (`valid_status` ≙ the deposited [`SpecOutcome`]) or promotion,
//! after which validation and commit/rollback are performed and charged to
//! the speculative thread's statistics.

use super::*;

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
        // A child dead of `reason` — it stopped `Failed`, or this join
        // discards it after a validation that found nothing: the verdict
        // on a thread no recovery arm repairs.
        let dead = |reason| {
            let facts = JoinFacts {
                dead: Some(reason),
                ..JoinFacts::default()
            };
            protocol::join_verdict(facts, false)
        };
        let roll_back = |outcome: &mut SpecOutcome, verdict: JoinVerdict| {
            let (reason, plan) = verdict.rollback.expect("the verdict rolls back");
            note(outcome, Point::RolledBack { reason, plan });
            reason
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
            let verdict = dead(reason);
            note(outcome, Point::PrecisePasses(precise));
            let validated = Point::Validated {
                outcome: verdict.outcome,
                took,
                retry: None,
            };
            note(outcome, validated);
            return Err(roll_back(outcome, verdict));
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
        let facts = JoinFacts {
            dead: None,
            valid,
            // Every conflicting word still held its first-read value: the
            // rollback is most likely grain-induced false sharing (or a
            // value-identical ABA write), not a proven dependence
            // violation — recorded so the governor and the reports can
            // tell the regimes apart.
            suspect: log_verdict
                == Validation::Conflict {
                    suspected_false_sharing: true,
                },
            retried,
            // This join's validation only: drift (a) of `protocol`.
            precise_pass: precise_total > precise_before,
        };
        let verdict = protocol::join_verdict(facts, false);
        note(outcome, Point::PrecisePasses(precise_total));
        let validated = Point::Validated {
            outcome: verdict.outcome,
            took,
            // The in-place re-stamp is the whole repair for this arm.
            retry: retried.then_some(took),
        };
        note(outcome, validated);
        if verdict.rollback.is_some() {
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
            let victims = self.doom_readers(outcome.buffers.global.write_addresses(), child);
            let source = DoomSource::Rollback;
            note(outcome, Point::Doomed { source, victims });
            return Err(roll_back(outcome, verdict));
        }

        // Injected rollback — only in the sensitivity experiment of paper
        // §V-D (`RuntimeConfig::rollback_probability` above zero).
        if self.draw_injected_rollback() {
            self.commit_log
                .unregister_reader(outcome.buffers.global.read_addresses(), child);
            return Err(roll_back(outcome, dead(SpecFailure::Injected)));
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
            Err(_) => Err(roll_back(outcome, dead(SpecFailure::BufferOverflow))),
        }
    }
}
