//! Closing a thread's books: the verdict settled, the grain tick, the
//! discards.
//!
//! # The books
//!
//! What happened to a thread is written down in one place, the
//! [`ledger`](crate::ledger): this module and `SpecContext` tell it *that*
//! a lifecycle point was reached (`ThreadManager::observe`), it decides
//! which counter, registry cell, latency sample and trace event record
//! it.  The registry is fed live and a scrape only reads it; closing a
//! finished thread's books — committed, rolled back or discarded with its
//! subtree — is `close_books`, whoever consumed the outcome.

use super::*;

/// Totals of one speculative region run so far (see
/// [`ThreadManager::run_snapshot`]); the simulator keeps the same.
#[derive(Debug, Clone, Default)]
pub struct RunTotals {
    /// Combined statistics of every speculative thread.
    pub speculative: ThreadStats,
    /// Speculative threads that committed (including retried ones).
    pub committed: u64,
    /// Speculative threads that rolled back.
    pub rolled_back: u64,
    /// Committed threads whose conflict was repaired by
    /// value-predict-and-retry (a subset of `committed`, never counted in
    /// `rolled_back`).
    pub retried: u64,
    /// Rolled-back threads split by cause.
    pub by_reason: [u64; RollbackReason::COUNT],
}

impl RunTotals {
    /// Fold in a thread whose books are closed: its statistics, and its
    /// fate — `Ok(retried)` for a commit, the failure for a rollback.
    pub fn fold(&mut self, stats: &ThreadStats, fate: Result<bool, SpecFailure>) {
        self.speculative.merge(stats);
        match fate {
            Ok(retried) => {
                self.committed += 1;
                self.retried += u64::from(retried);
            }
            Err(reason) => {
                self.rolled_back += 1;
                self.by_reason[RollbackReason::from(reason).index()] += 1;
            }
        }
    }
}

impl ThreadManager {
    /// The control-plane event lane (grain-controller ticks): one past the
    /// last thread rank, so its events never race a thread's SPSC ring.
    fn control_lane(&self) -> Rank {
        self.slots.len() + 1
    }

    /// Count one commit/validate event and, every
    /// [`GrainControlConfig::tick_commits`](mutls_adaptive::GrainControlConfig::tick_commits),
    /// run an adaptive-grain controller tick: snapshot the commit log's
    /// per-region telemetry, apply the resulting regrains and doom the
    /// collected readers.  The doom is conservative recovery, not a
    /// penalty: a regrained region's outstanding snapshots are about to
    /// fail validation anyway, and a value-predict retry can still clear
    /// the doom in place.  `try_lock` keeps ticking off the hot path —
    /// if another thread is mid-tick, this event's tick is simply
    /// skipped.
    pub fn tick_grain_controller(&self) {
        let Some(controller) = &self.grain else {
            return;
        };
        let events = self.grain_events.fetch_add(1, Ordering::Relaxed) + 1;
        if !protocol::grain_tick_due(events, self.config.grain_control.tick_commits) {
            return;
        }
        let Some(mut controller) = controller.try_lock() else {
            return;
        };
        let profiles = self.commit_log.region_profiles();
        let points = protocol::grain_tick(&mut controller, &profiles, true, |action| {
            let from = self.commit_log.grain_of_region(action.region);
            let (_, readers) = self
                .commit_log
                .regrain(action.region, action.new_grain_log2);
            let ranks: Vec<Rank> = readers.ranks().collect();
            (from, self.doom_ranks(&ranks))
        });
        // The control plane has a lane but no thread, hence no counters.
        let (lane, nobody) = (self.control_lane(), &mut ThreadCounters::default());
        for point in points {
            self.observe(lane, 0, nobody, point);
        }
    }

    /// The live grain the finished thread's traffic ran at, for per-site
    /// reporting: the static configured grain when the controller is
    /// disabled, else the current grain of the thread's first written
    /// (falling back to first read) region.
    pub fn observed_grain(&self, outcome: &SpecOutcome) -> u32 {
        if self.grain.is_none() {
            return self.commit_log.config().grain_log2;
        }
        outcome
            .buffers
            .global
            .write_addresses()
            .next()
            .or_else(|| outcome.buffers.global.read_addresses().next())
            .map(|addr| self.commit_log.grain_of(addr))
            .unwrap_or_else(|| self.commit_log.config().grain_log2)
    }

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
        slot.abort.store(true, Ordering::Release);
        let outcome = self.wait_outcome(rank);
        for child in &outcome.children {
            self.drain_subtree(*child);
        }
        self.discard(rank, outcome);
    }

    /// Discard a stopped thread without a join of its own — a cascaded
    /// rollback — and free its CPU.
    fn discard(&self, rank: Rank, mut outcome: SpecOutcome) {
        // Dead registrations only cause spurious dooms.
        self.commit_log
            .unregister_reader(outcome.buffers.global.read_addresses(), rank);
        let (site, model) = self.slots[rank - 1].launch_info();
        let blamed = SpecFailure::Cascaded;
        let counters = &mut outcome.stats.counters;
        self.observe(rank, site, counters, Point::Cascaded(blamed));
        self.close_books(rank, site, model, outcome, Err(blamed));
        self.release_cpu(rank, 0);
    }

    /// Abort an entire speculative subtree rooted at `rank` (paper §IV-F:
    /// cascading rollbacks are confined to the subtree).
    pub fn reap_subtree(&self, rank: Rank) {
        let slot = &self.slots[rank - 1];
        slot.abort.store(true, Ordering::Release);
        slot.orphaned.store(true, Ordering::Release);
        // If the outcome is already there, clean up now; otherwise the
        // worker will observe `orphaned` when it deposits.
        let taken = slot.result.lock().take();
        if let Some(outcome) = taken {
            self.finish_discarded(rank, outcome);
        }
    }

    /// A joined (or promoted, or adopted) child's verdict is in: one
    /// commit/validate event on the grain controller's clock, then its
    /// books are closed.  The caller still owns the CPU and releases it.
    pub(crate) fn settle_child(
        &self,
        child: Rank,
        site: SiteId,
        model: ForkModel,
        outcome: SpecOutcome,
        verdict: Result<CommitKind, SpecFailure>,
    ) {
        self.tick_grain_controller();
        self.close_books(child, site, model, outcome, verdict);
    }

    /// Close the books of a thread whose fate is known — the one place a
    /// finished thread is accounted for, whether it was joined, promoted,
    /// adopted or discarded: park its buffers for its CPU's next task
    /// (finalization is charged to the speculative path, as in the
    /// paper's breakdown), reclassify a rolled-back thread's work as
    /// wasted, feed the verdict to the governor's site profile — with the
    /// false-sharing classification, the retry verdict and the live grain,
    /// so Throttle can tell the regimes apart — and fold the statistics
    /// into the registry and the run's totals.
    fn close_books(
        &self,
        rank: Rank,
        site: SiteId,
        model: ForkModel,
        outcome: SpecOutcome,
        verdict: Result<CommitKind, SpecFailure>,
    ) {
        // Observed before the buffers are cleared.
        let observed_grain = self.observed_grain(&outcome);
        let finalize_started = Instant::now();
        self.return_buffers(rank, outcome.buffers);
        let mut stats = outcome.stats;
        stats.add(Phase::Finalize, elapsed_ns(finalize_started));
        let thread = Retirement {
            site,
            model,
            fate: verdict.map(CommitKind::retried),
            // Whatever it rolled back for: drift (c) of `protocol`.
            false_sharing: stats.counters.false_sharing_suspects > 0,
            grain_log2: observed_grain,
        };
        let mut totals = self.accum.lock();
        let retired = protocol::retire(&mut stats, thread, &self.governor, &mut totals);
        drop(totals);
        self.observe(rank, site, &mut stats.counters, retired);
    }

    /// Draw from the rollback-injection distribution.  Always `false` at
    /// the default probability of zero — real conflicts are the default
    /// rollback source.
    pub fn draw_injected_rollback(&self) -> bool {
        protocol::injected_draw(self.config.rollback_probability, || self.rng.lock())
    }
}
