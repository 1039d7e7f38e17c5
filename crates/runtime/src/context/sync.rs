//! The poll: aborts, dooms and the child side of early synchronization.

use super::*;
use crate::manager::{ABORT, DOOMED, DOOMED_HARD};

impl SpecContext {
    /// A poll point.  Rank 0 is never aborted, doomed or asked to
    /// synchronize, so the non-speculative thread pays a comparison.
    #[inline]
    pub(super) fn check_abort(&mut self) -> SpecResult<()> {
        if self.rank == 0 {
            return Ok(());
        }
        self.poll()
    }

    /// A speculative thread's poll of its slot's request bits: the abort,
    /// the two dooms and the sync request, in one load.
    #[inline(never)]
    pub(super) fn poll(&mut self) -> SpecResult<()> {
        let requests = self.mgr.requests(self.rank);
        if requests == 0 {
            return Ok(());
        }
        if requests & ABORT != 0 {
            return Err(failure(SpecFailure::Cascaded));
        }
        if requests & DOOMED_HARD != 0 {
            // This thread's own promotion failed validation: stop at
            // every poll, even if the task swallowed the first error.
            return Err(failure(SpecFailure::ReadConflict));
        }
        if requests & DOOMED != 0 {
            // A publish found this thread in the reader registry: its
            // reads are (range-conservatively) stale.
            // In-flight value-predict retry first: the registry is
            // range-granular, so the doom may be false sharing — if
            // every conflicting word still holds its first-read
            // value, re-stamp, restore the registrations the publish
            // took, shrug the doom off and keep running.
            if let Some(buffer) = self.global.as_mut() {
                let memory = self.mgr.memory();
                let log = self.mgr.commit_log();
                let retry_started = Instant::now();
                if buffer.validate(log, memory.as_ref()) != Validation::Conflict {
                    buffer.restore_registrations(log);
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
        // What is left is `SYNC_POSTED`.
        self.synchronize_early()
    }

    /// Early synchronization, child side (paper §IV-E/H): the
    /// non-speculative joiner reached the join while this task still runs
    /// and asks it to stop being speculative *here* — validate and commit
    /// what it has, release its CPU, and carry on as the non-speculative
    /// thread itself.  Taken only when it pays ([`protocol::sync_pays`]);
    /// a request turned down is gone, and the joiner simply waits for the
    /// deposit as if it had never asked.
    ///
    /// On success the context is rank 0 from here on — `global` gone,
    /// fresh (critical-path) statistics — but keeps its unjoined children:
    /// those read underneath this thread's write-set, which the commit just
    /// stamped into the log, so their own joins catch every stale read.  On
    /// a failed validation the task is doomed and unwinds like any
    /// conflict; its joiner's rollback and re-execution is the only
    /// recovery path.
    #[cold]
    fn synchronize_early(&mut self) -> SpecResult<()> {
        let Some(handoff) = self.mgr.take_sync(self.rank) else {
            return Ok(());
        };
        let global = self.global.as_ref().expect("only speculative tasks poll");
        let entries = global.read_set_len() + global.write_set_len();
        let (handoff_ns, entry_ns) = self.mgr.sync_costs();
        if !protocol::sync_pays(entries, handoff_ns, entry_ns, SYNC_BASE_NS, handoff.s1_ns()) {
            return Ok(());
        }
        let rank = self.rank;
        let sync_started = Instant::now();
        self.close_books(sync_started);
        let global = self.global.take().expect("checked above");
        // What a joiner would find deposited had the task ended here.
        let mut outcome = SpecOutcome {
            status: TaskStatus::Completed,
            buffer: global,
            children: Vec::new(),
            stats: std::mem::take(&mut self.stats),
            finished_at: sync_started,
            settled: false,
            prices: std::mem::take(&mut self.prices),
        };
        let verdict = self.mgr.validate_and_commit(rank, &mut outcome, None);
        let kind = match verdict {
            Ok(kind) => kind,
            Err(reason) => {
                self.global = Some(outcome.buffer);
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
        Ok(())
    }
}
