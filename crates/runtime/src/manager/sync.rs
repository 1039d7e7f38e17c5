//! Early synchronization: the request, its price, the promotion mailbox
//! and the hand-back.
//!
//! # Synchronize only when it pays
//!
//! A promotion costs two hand-offs on the critical path (the freed CPU's
//! next dispatch, the hand-back), its own bookkeeping, and validating,
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
//! the 8 and the 2 µs are constants.  The rule itself is
//! [`protocol::sync_pays`]; this module keeps the measurements it is
//! priced from ([`ThreadManager::sync_costs`]).  A request turned down
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
    /// What [`protocol::sync_pays`] prices a promotion from, as the
    /// runtime measured it, in ns: the fastest hand-off (a promotion puts
    /// two on the critical path: the freed CPU's next dispatch and the
    /// hand-back) and the cost of validating, committing and clearing one
    /// buffered entry in earlier promotions.
    pub(crate) fn sync_costs(&self) -> (u64, u64) {
        let handoff = self.fastest_handoff_ns.load(Ordering::Relaxed);
        let per_entry = match self.sync_entries.load(Ordering::Relaxed) {
            0 => COLD_SYNC_ENTRY_NS,
            handled => self.sync_ns.load(Ordering::Relaxed) / handled,
        };
        (handoff, per_entry)
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
        // `Release`: the task that sees the bit finds the request.
        slot.status.fetch_or(SYNC_POSTED, Ordering::Release);
    }

    /// Take the request posted on `rank`'s slot: the task that noticed it,
    /// or the joiner whose child finished without noticing.
    pub(crate) fn take_sync(&self, rank: Rank) -> Option<Arc<Handoff>> {
        let slot = &self.slots[rank - 1];
        slot.status.fetch_and(!SYNC_POSTED, Ordering::Relaxed);
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
        while let Some((rank, task)) = self.next_task(|| handoff.finished()) {
            self.run_task(rank, task);
        }
        let outcome = handoff.result.lock().take();
        outcome.expect("a finished hand-off carries its outcome")
    }

    /// The non-speculative joiner's wait — a bounded spin on the slot's
    /// `DEPOSITED` bit and the hand-off, then parked: `rank`'s outcome, or
    /// `None` once the task took `handoff`'s sync request and holds the
    /// non-speculative role.
    pub(crate) fn wait_outcome_or_promotion(
        &self,
        rank: Rank,
        handoff: Option<&Handoff>,
    ) -> Option<SpecOutcome> {
        let slot = &self.slots[rank - 1];
        let deadline = Instant::now() + IDLE_SPIN;
        let promoted = || handoff.is_some_and(Handoff::promoted);
        let mut outcomes = slot.result.lock();
        loop {
            // Promotion first: once promoted, whatever sits in the slot
            // belongs to a later task (see `publish_promotion`).
            if promoted() {
                return None;
            }
            if let Some(outcome) = outcomes.take() {
                return Some(outcome);
            }
            if Instant::now() < deadline {
                drop(outcomes);
                while slot.status.load(Ordering::Acquire) & DEPOSITED == 0
                    && !promoted()
                    && Instant::now() < deadline
                {
                    std::thread::yield_now();
                }
                outcomes = slot.result.lock();
            } else {
                slot.result_cv.wait(&mut outcomes);
            }
        }
    }
}
