//! The join: a task's deposit or hand-back, and the joiner's wait,
//! verdict and the reap of the children it left unjoined.

use super::*;

impl SpecContext {
    /// Consume the context into the outcome deposited for the joiner.
    pub(crate) fn into_outcome(mut self, status: TaskStatus) -> SpecOutcome {
        self.close_books(Instant::now());
        SpecOutcome {
            status,
            buffer: self
                .global
                .expect("only a speculative context deposits an outcome"),
            children: self.children,
            stats: self.stats,
            finished_at: Instant::now(),
            settled: self.settled,
            prices: self.prices,
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
        self.publish_pending();
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

    // ----- internal helpers -------------------------------------------

    /// Charge the time since the last phase boundary to `Work` and return
    /// the instant at which the overhead phase starts.
    pub(super) fn begin_overhead(&mut self) -> Instant {
        let now = Instant::now();
        let nanos = now.duration_since(self.last_mark).as_nanos() as u64;
        self.stats.add(Phase::Work, nanos);
        now
    }

    /// Charge the overhead phase and reset the work marker.
    pub(super) fn end_overhead(&mut self, phase: Phase, started: Instant) {
        let now = Instant::now();
        self.stats
            .add(phase, now.duration_since(started).as_nanos() as u64);
        self.last_mark = now;
    }

    /// The handle of a fork point that launched nothing: the join runs
    /// `task` inline.
    pub(super) fn inline_handle(
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
            forked_at: self.last_mark,
        }
    }

    /// Execute a task inline (the parent running the continuation itself).
    pub(super) fn run_inline(&mut self, task: &TaskRef<SpecContext>) -> SpecResult<()> {
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
    pub(super) fn join_child(
        &mut self,
        child: Rank,
        site: u32,
        model: ForkModel,
        forked_at: Instant,
    ) -> SpecResult<Result<CommitKind, SpecFailure>> {
        let mut bookkeeping = self.begin_overhead();
        // Before anything validates: the child's verdict, or its promotion.
        self.publish_pending();
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
                let (handoff_ns, entry_ns) = mgr.sync_costs();
                let handoff = protocol::sync_pays(0, handoff_ns, entry_ns, SYNC_BASE_NS, s1_ns)
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
        // A task counts only once its join commits it, and nothing joins
        // what the child left unjoined: whatever the verdict, its subtree
        // is discarded, as at a region's end and in the replay.
        for grandchild in grandchildren {
            self.mgr.reap_subtree(grandchild);
        }
        self.mgr.release_cpu(child, self.rank);
        Ok(verdict)
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
        // Children the closure left unjoined are discarded, as after a
        // join.
        for child in promoted.children {
            self.mgr.reap_subtree(child);
        }
        match promoted.status {
            TaskStatus::Failed(reason) => Err(failure(reason)),
            TaskStatus::Completed | TaskStatus::Barrier => Ok(Ok(promoted.kind)),
        }
    }
}
