//! The dispatch queue: who runs what, and why nobody starves.
//!
//! # Nobody starves
//!
//! Every OS thread's stack alternates *displaced join* frames with *task*
//! frames, and only its top frame can act.  Exactly one thread's top frame
//! holds the non-speculative role (or none, for the instant between a
//! request and its answer), and that thread never helps: it runs, or waits
//! for the one child it joins.  A speculative task's frame is always a top
//! frame — a speculative joiner blocks, it does not help.  So of N + 1
//! threads, one holds rank 0, `s` run speculative tasks, and the other
//! `N − s` have an idle top frame: a parked worker or a displaced joiner.
//! Each queued, started or deposited task holds one of the N slots, hence
//! `queued ≤ N − s`: **queued tasks ≤ threads with an idle top frame**, and
//! a push wakes one of them (a woken thread that leaves empty-handed
//! passes the wake-up on).  A displaced joiner running a task on top of
//! its join cannot take the role back until that task ends; that delays
//! the hand-back by at most the task, whose own completion needs no
//! thread below it.
//!
//! Waiting is the paper's flag barrier, in two steps: a bounded spin
//! (`IDLE_SPIN`, yielding the core each round so that a thread woken
//! onto the spinner's core runs at once), then parked on a condition
//! variable.  With both sides of a fork→join round trip inside their spin
//! nobody is woken through the kernel.

use std::any::Any;
use std::io::{self, Write};
use std::panic::{self, AssertUnwindSafe};
use std::process;

use super::*;

impl ThreadManager {
    /// Dispatch the continuation `task` to an acquired CPU.  `site` and
    /// `model` identify the fork point and forking model for governor
    /// feedback.
    pub fn dispatch(&self, rank: Rank, site: SiteId, model: ForkModel, task: TaskRef<SpecContext>) {
        let slot = &self.slots[rank - 1];
        slot.site.store(site, Ordering::Relaxed);
        slot.model.store(model.index() as u8, Ordering::Relaxed);
        slot.forked_ns.store(self.trace_now_ns(), Ordering::Relaxed);
        self.governor.record_fork(site);
        let dispatch = &self.dispatch;
        let mut queue = dispatch.queue.lock();
        queue.tasks.push_back((rank, task));
        dispatch.queued.fetch_add(1, Ordering::Release);
        let wake = queue.sleepers > 0;
        drop(queue);
        if wake {
            dispatch.wake.notify_one();
        }
    }

    /// Signal every worker to shut down (used by `Runtime::drop`).
    pub fn shutdown_workers(&self) {
        self.dispatch.queue.lock().shutdown = true;
        self.dispatch.wake.notify_all();
    }

    /// Take the next dispatched task, waiting for one — a bounded spin,
    /// then parked (the paper's flag barrier).  `None` once `done()`
    /// holds or the runtime shuts down; `done` must only turn true through
    /// [`hand_back`](Self::hand_back), which wakes the sleepers.
    pub(super) fn next_task(
        &self,
        done: impl Fn() -> bool,
    ) -> Option<(Rank, TaskRef<SpecContext>)> {
        let dispatch = &self.dispatch;
        let deadline = Instant::now() + IDLE_SPIN;
        while dispatch.queued.load(Ordering::Acquire) == 0 && !done() && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let mut queue = dispatch.queue.lock();
        loop {
            if done() || queue.shutdown {
                // A push wakes one sleeper; if that was this thread and it
                // leaves empty-handed, the wake-up moves on.
                if !queue.tasks.is_empty() && queue.sleepers > 0 {
                    dispatch.wake.notify_one();
                }
                return None;
            }
            if let Some(next) = queue.tasks.pop_front() {
                dispatch.queued.fetch_sub(1, Ordering::Release);
                return Some(next);
            }
            queue.sleepers += 1;
            dispatch.wake.wait(&mut queue);
            queue.sleepers -= 1;
        }
    }

    /// Run one dispatched task to its end on the calling OS thread: a
    /// worker's, or a displaced joiner's.  A panic in it ends the process
    /// ([`abort_on_task_panic`]).
    pub(super) fn run_task(self: &Arc<Self>, rank: Rank, task: TaskRef<SpecContext>) {
        let slot = &self.slots[rank - 1];
        let handoff = self
            .trace_now_ns()
            .saturating_sub(slot.forked_ns.load(Ordering::Relaxed));
        self.fastest_handoff_ns
            .fetch_min(handoff.max(1), Ordering::Relaxed);
        let run = || {
            let mut ctx = SpecContext::speculative(Arc::clone(self), rank);
            let status = match task(&mut ctx) {
                Ok(()) => TaskStatus::Completed,
                Err(SpecAbort::BarrierReached) => TaskStatus::Barrier,
                Err(SpecAbort::Failed(reason)) => TaskStatus::Failed(reason),
            };
            ctx.conclude(status);
        };
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(run)) {
            abort_on_task_panic(rank, payload);
        }
    }
}

/// End the process over a dispatched task's panic.  Nothing would hand the
/// task's outcome back, so its joiner would wait for it forever: a panic —
/// a failed check in the join path as much as a bug in the task — would
/// show up as a hang.  The message is written to stderr directly, because
/// a test harness captures `eprintln!` and would lose it with the process.
#[cold]
fn abort_on_task_panic(rank: Rank, payload: Box<dyn Any + Send>) -> ! {
    let message = match payload.downcast_ref::<&str>() {
        Some(message) => message,
        None => payload.downcast_ref::<String>().map_or("?", String::as_str),
    };
    let _ = writeln!(
        io::stderr(),
        "mutls: the task of rank {rank} panicked: {message}; aborting, as its joiner would wait forever"
    );
    process::abort()
}

/// Loop of the `num_cpus` OS threads [`Runtime`](crate::Runtime) spawns:
/// run dispatched tasks until shutdown.
pub(crate) fn worker_loop(mgr: Arc<ThreadManager>) {
    while let Some((rank, task)) = mgr.next_task(|| false) {
        mgr.run_task(rank, task);
    }
}
