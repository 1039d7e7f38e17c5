//! Closing a thread's books: the verdict settled, the discards.
//!
//! # The books
//!
//! What happened to a thread is written down in one place, the
//! [`ledger`](crate::ledger): this module and `SpecContext` tell it *that*
//! a lifecycle point was reached (`ThreadManager::observe`), it decides
//! which registry count, latency sample and trace event record it.  The
//! registry is fed live and a scrape or a report only reads it; closing a
//! finished thread's books — committed, rolled back or discarded with its
//! subtree — is `settle_child`, whoever consumed the outcome.

use super::*;

impl ThreadManager {
    /// A deposited thread nobody will join is discarded, its subtree first.
    pub(super) fn finish_discarded(&self, rank: Rank, outcome: SpecOutcome) {
        for child in &outcome.children {
            self.reap_subtree(*child);
        }
        self.discard(rank, outcome);
    }

    /// Abort and *synchronously* drain a speculative subtree: waits for
    /// every thread in the subtree to stop, accounts their work as wasted
    /// and reclaims their CPUs.  Used when a speculative region ends with
    /// children still unjoined.
    pub fn drain_subtree(&self, rank: Rank) {
        let slot = &self.slots[rank - 1];
        slot.status.fetch_or(ABORT, Ordering::Release);
        let outcome = self
            .wait_outcome_where(rank, || false)
            .expect("a wait nobody abandons ends with the outcome");
        for child in &outcome.children {
            self.drain_subtree(*child);
        }
        self.discard(rank, outcome);
    }

    /// Discard a stopped thread without a join of its own — a cascaded
    /// rollback — and free its CPU.
    fn discard(&self, rank: Rank, outcome: SpecOutcome) {
        let (site, model) = self.slots[rank - 1].launch_info();
        self.observe(rank, site, Point::Cascaded);
        self.settle_child(rank, site, model, outcome, Err(SpecFailure::Cascaded));
        self.release_cpu(rank, 0);
    }

    /// Abort an entire speculative subtree rooted at `rank` (paper §IV-F:
    /// cascading rollbacks are confined to the subtree).
    pub fn reap_subtree(&self, rank: Rank) {
        let slot = &self.slots[rank - 1];
        // If the outcome is already there, clean up now; otherwise the
        // worker sees `ORPHANED` when it deposits (deposit vs. reap, the
        // table on `Slot`).
        slot.status.fetch_or(ABORT | ORPHANED, Ordering::AcqRel);
        let taken = slot.result.lock().take();
        if let Some(outcome) = taken {
            self.finish_discarded(rank, outcome);
        }
    }

    /// Close the books of a thread whose fate is known — the one place a
    /// finished thread is accounted for, whether it was joined, promoted
    /// or discarded: book a committed thread's `fork_range` prices,
    /// retire its reader registrations and park its buffer for its CPU's
    /// next task
    /// (finalization is charged to the speculative path, as in the
    /// paper's breakdown), reclassify a rolled-back thread's work as
    /// wasted, feed the verdict to the governor's site profile — a
    /// retried commit counts as a retry there — and fold the statistics
    /// into the speculative path's.  The caller still owns the CPU and releases it.
    pub(crate) fn settle_child(
        &self,
        rank: Rank,
        site: SiteId,
        model: ForkModel,
        outcome: SpecOutcome,
        verdict: Result<CommitKind, SpecFailure>,
    ) {
        if verdict.is_ok() {
            for &(site, price) in &outcome.prices {
                self.book_price(site, price);
            }
        }
        let finalize_started = Instant::now();
        self.return_buffer(rank, outcome.buffer);
        let mut stats = outcome.stats;
        stats.add(Phase::Finalize, elapsed_ns(finalize_started));
        let thread = Retirement {
            site,
            model,
            fate: verdict.map(CommitKind::retried),
        };
        let mut speculative = self.speculative.lock();
        let retired = protocol::retire(&mut stats, thread, &self.governor, &mut speculative);
        drop(speculative);
        self.observe(rank, site, retired);
    }

    /// Draw from the rollback-injection distribution.  Always `false` at
    /// the default probability of zero — real conflicts are the default
    /// rollback source.
    pub fn draw_injected_rollback(&self) -> bool {
        protocol::injected_draw(self.config.rollback_probability, || self.rng.lock())
    }
}
