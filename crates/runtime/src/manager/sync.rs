//! Early synchronization: the request, its price, the promotion mailbox
//! and the hand-back.
//!
//! # Synchronize only when it pays
//!
//! A promotion costs two hand-offs on the critical path (the late fork's
//! dispatch, the hand-back), its own bookkeeping, and validating,
//! committing and clearing every buffered entry; and the displaced
//! thread's fresh task pays its first-touch loads again.  What it buys is
//! overlap for as long as the region after the join resembles the one
//! before it.  The request therefore carries **S1**, the joiner's own
//! fork→join time, and the child takes it only while
//!
//! ```text
//! 8 × (2 × hand-off + 2 µs + entries × ns/entry) ≤ S1
//! ```
//!
//! — synchronizing may cost at most an eighth of the region it overlaps.
//! The hand-off is the fastest dispatch→start the runtime has observed
//! (the fastest, not the mean: one slow first wake-up would price
//! synchronization out for a whole run, and a sync not taken is never
//! measured) and the per-entry cost is that of its own earlier promotions;
//! the 8 and the 2 µs are constants (`sync_pays`).  A request turned down
//! is gone, and the joiner waits for the deposit as it always did.  There
//! is no switch because the measurements decide: on `compute_loop` (16 ms
//! chunks, nothing buffered) every join synchronizes; on `dense_reads`
//! (md: 12 µs chunks, ≈ 650 read entries a task) none does —
//! synchronizing there unconditionally was measured at 0.55–0.80 s a run
//! against 0.69 s, with `cpu_ratio` 1.9 → 4.0, every sync paying ≈ 14 µs
//! of validation and 768 fresh first-touch loads to overlap 12 µs.  A task
//! forked and joined at once has S1 ≈ 0 and stays speculative to its end.

use super::*;

const SYNC_REQUESTED: u8 = 0;
const SYNC_PROMOTED: u8 = 1;
const SYNC_FINISHED: u8 = 2;

/// Mailbox of one early synchronization, shared by the non-speculative
/// joiner that asked for it and the child that may take it.  It belongs
/// to the *join*, not to the child's slot, which is recycled the moment
/// the promoted child releases its CPU.
pub(crate) struct Handoff {
    /// The joiner's own fork→join time: how long the parallelism a sync
    /// buys lasted last time round.
    s1_ns: u64,
    state: AtomicU8,
    result: Mutex<Option<PromotedOutcome>>,
}

impl Handoff {
    pub(crate) fn new(s1_ns: u64) -> Self {
        Handoff {
            s1_ns,
            state: AtomicU8::new(SYNC_REQUESTED),
            result: Mutex::new(None),
        }
    }

    pub(crate) fn s1_ns(&self) -> u64 {
        self.s1_ns
    }

    /// The child committed and holds the non-speculative role (or already
    /// gave it back).  `Acquire` pairs with the `Release` stores of
    /// [`ThreadManager::publish_promotion`] and
    /// [`ThreadManager::hand_back`].
    fn promoted(&self) -> bool {
        self.state.load(Ordering::Acquire) != SYNC_REQUESTED
    }

    fn finished(&self) -> bool {
        self.state.load(Ordering::Acquire) == SYNC_FINISHED
    }
}

/// What a promoted closure hands back to the joiner it displaced.
pub(crate) struct PromotedOutcome {
    /// How the closure stopped.  `Failed` is the closure's own error as
    /// the non-speculative thread: its effects are committed, so the
    /// joiner propagates it like an inline execution's instead of rolling
    /// anything back.
    pub status: TaskStatus,
    /// How the promotion's validation finished.
    pub kind: CommitKind,
    /// Children the closure forked (before or after the promotion) and
    /// never joined.
    pub children: Vec<Rank>,
    /// Critical-path statistics of `[promoted_at, finished_at]`.
    pub stats: ThreadStats,
    /// When the child took over the non-speculative role.
    pub promoted_at: Instant,
    /// When its closure returned.
    pub finished_at: Instant,
}

impl ThreadManager {
    /// Estimated cost of synchronizing a task that buffers `entries`
    /// words: the two hand-offs a promotion puts on the critical path (the
    /// late fork's dispatch and the hand-back), the promotion itself, and
    /// validating, committing and clearing the entries — hand-off and
    /// per-entry cost as the runtime measured them.
    fn sync_cost_ns(&self, entries: usize) -> u64 {
        let handoff = self.fastest_handoff_ns.load(Ordering::Relaxed);
        let per_entry = match self.sync_entries.load(Ordering::Relaxed) {
            0 => COLD_SYNC_ENTRY_NS,
            handled => self.sync_ns.load(Ordering::Relaxed) / handled,
        };
        2 * handoff + SYNC_BASE_NS + entries as u64 * per_entry
    }

    /// Rule (4) of the module docs: synchronizing may cost at most
    /// 1/[`SYNC_PAYBACK`] of the region it overlaps.
    pub(crate) fn sync_pays(&self, entries: usize, s1_ns: u64) -> bool {
        SYNC_PAYBACK.saturating_mul(self.sync_cost_ns(entries)) <= s1_ns
    }

    /// Feed one promotion's measured cost back into the estimate.
    pub(crate) fn record_sync(&self, ns: u64, entries: usize) {
        if entries > 0 {
            self.sync_ns.fetch_add(ns, Ordering::Relaxed);
            self.sync_entries
                .fetch_add(entries as u64, Ordering::Relaxed);
        }
    }

    /// Ask the task running on `rank` to synchronize early.  Only the
    /// task's joiner posts, and only while it waits at the join.
    pub(crate) fn post_sync(&self, rank: Rank, handoff: Arc<Handoff>) {
        let slot = &self.slots[rank - 1];
        *slot.sync.lock() = Some(handoff);
        // `Release`: the task that sees the flag finds the request.
        slot.sync_posted.store(true, Ordering::Release);
    }

    /// Whether a sync request waits on `rank`'s slot (the task's poll).
    #[inline]
    pub(crate) fn sync_posted(&self, rank: Rank) -> bool {
        self.slots[rank - 1].sync_posted.load(Ordering::Acquire)
    }

    /// Take the request posted on `rank`'s slot: the task that noticed it,
    /// or the joiner whose child finished without noticing.
    pub(crate) fn take_sync(&self, rank: Rank) -> Option<Arc<Handoff>> {
        let slot = &self.slots[rank - 1];
        slot.sync_posted.store(false, Ordering::Relaxed);
        slot.sync.lock().take()
    }

    /// Tell the joiner that the task on `rank` committed and took over the
    /// non-speculative role.  Must precede [`release_cpu`](Self::release_cpu):
    /// published under the lock the joiner takes outcomes under, it lets
    /// the joiner tell its own child's deposit from one a later task made
    /// on the recycled slot.
    pub(crate) fn publish_promotion(&self, rank: Rank, handoff: &Handoff) {
        let slot = &self.slots[rank - 1];
        {
            let _outcomes = slot.result.lock();
            handoff.state.store(SYNC_PROMOTED, Ordering::Release);
        }
        slot.signals.fetch_add(1, Ordering::Release);
        slot.result_cv.notify_all();
    }

    /// The promoted closure returned: give the non-speculative role back
    /// to the joiner it displaced.
    pub(crate) fn hand_back(&self, handoff: &Handoff, outcome: PromotedOutcome) {
        *handoff.result.lock() = Some(outcome);
        handoff.state.store(SYNC_FINISHED, Ordering::Release);
        // Under the queue lock the joiner checks `finished` and parks
        // under, so the wake-up cannot fall between the two.
        let queue = self.dispatch.queue.lock();
        if queue.sleepers > 0 {
            self.dispatch.wake.notify_all();
        }
    }

    /// The displaced joiner's wait: serve dispatched tasks on this OS
    /// thread until the promoted closure hands the role back.
    pub(crate) fn serve_until_handed_back(self: &Arc<Self>, handoff: &Handoff) -> PromotedOutcome {
        while let Some((rank, request)) = self.next_task(|| handoff.finished()) {
            self.run_task(rank, request);
        }
        let outcome = handoff.result.lock().take();
        outcome.expect("a finished hand-off carries its outcome")
    }

    /// The non-speculative joiner's wait — a bounded spin, then parked:
    /// `rank`'s outcome, or `None` once the task took `handoff`'s sync
    /// request and holds the non-speculative role.
    pub(crate) fn wait_outcome_or_promotion(
        &self,
        rank: Rank,
        handoff: Option<&Handoff>,
    ) -> Option<SpecOutcome> {
        let slot = &self.slots[rank - 1];
        let deadline = Instant::now() + IDLE_SPIN;
        let mut seen = slot.signals.load(Ordering::Acquire);
        let mut outcomes = slot.result.lock();
        loop {
            // Promotion first: once promoted, whatever sits in the slot
            // belongs to a later task (see `publish_promotion`).
            if handoff.is_some_and(Handoff::promoted) {
                return None;
            }
            if let Some(outcome) = outcomes.take() {
                return Some(outcome);
            }
            if Instant::now() < deadline {
                drop(outcomes);
                while slot.signals.load(Ordering::Acquire) == seen && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                seen = slot.signals.load(Ordering::Acquire);
                outcomes = slot.result.lock();
            } else {
                slot.result_cv.wait(&mut outcomes);
            }
        }
    }
}
