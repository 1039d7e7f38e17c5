//! Task types and the [`TlsContext`] abstraction shared by the native
//! runtime and the multicore simulator.
//!
//! In MUTLS the code between a join point and the matching barrier point is
//! what a speculative thread executes (figure 1: the parent forks before
//! `S1`, the child starts at the join point and runs `S2`, stopping before
//! `S3`).  In this Rust reproduction that region is expressed as a *task
//! closure*: [`TaskRef`].  The parent provides it at the fork point, runs
//! its own code (`S1`), and at the join point either synchronizes with the
//! speculative child or — if speculation never happened or rolled back —
//! executes the closure inline.
//!
//! Workloads are written generically against [`TlsContext`] so that the
//! exact same benchmark code drives the native threaded runtime
//! ([`crate::SpecContext`]) and the discrete-event simulator's recording
//! context.

use std::ops::Range;
use std::sync::Arc;

use mutls_membuf::{Addr, GPtr, SpecFailure};

pub use mutls_membuf::memory::Word;

/// Virtual CPU identifier.  Rank `0` is the non-speculative thread; ranks
/// `1..=num_cpus` are speculative virtual CPUs.
pub type Rank = usize;

/// Reason a task closure stopped before running to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecAbort {
    /// The task reached a barrier point: everything up to the barrier is
    /// valid and committable, and nothing after it ran.
    BarrierReached,
    /// The task must be discarded for the given reason.
    Failed(SpecFailure),
}

/// Result type threaded through speculative code.
pub type SpecResult<T> = Result<T, SpecAbort>;

/// Reference-counted task closure, re-executable by the parent when
/// speculation fails.
pub type TaskRef<C> = Arc<dyn Fn(&mut C) -> SpecResult<()> + Send + Sync>;

/// Build a [`TaskRef`] from a closure.
pub fn task<C, F>(f: F) -> TaskRef<C>
where
    F: Fn(&mut C) -> SpecResult<()> + Send + Sync + 'static,
{
    Arc::new(f)
}

/// What happened at a join point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinOutcome {
    /// The speculative child validated and committed.
    Committed,
    /// The speculative child rolled back for the given reason; the parent
    /// re-executed the task inline.
    RolledBack(SpecFailure),
    /// No speculative thread had been launched for this fork point (no
    /// idle CPU, or the forking model forbade it); the parent executed the
    /// task inline.
    NotSpeculated,
}

impl JoinOutcome {
    /// True when the work was performed speculatively and committed.
    pub fn speculated(&self) -> bool {
        matches!(self, JoinOutcome::Committed)
    }
}

/// Status of a finished speculative task, as deposited by the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// The closure ran to completion.
    Completed,
    /// The closure stopped at a barrier point.
    Barrier,
    /// The closure failed and must roll back.
    Failed(SpecFailure),
}

/// Uniform interface to a speculative execution context.
///
/// Implemented by the native [`crate::SpecContext`] and by the simulator's
/// recording context, so workload code is written once:
///
/// ```
/// use mutls_runtime::{task, JoinOutcome, SpecResult, TlsContext};
/// use mutls_membuf::GPtr;
///
/// fn sum_halves<C: TlsContext>(ctx: &mut C, data: GPtr<i64>, out: GPtr<i64>) -> SpecResult<()> {
///     let n = data.len();
///     // Speculate on the second half (the continuation).
///     let second = task(move |ctx: &mut C| {
///         let mut acc = 0i64;
///         for i in n / 2..n {
///             acc += ctx.load(&data, i)?;
///         }
///         ctx.store(&out, 1, acc)?;
///         ctx.barrier()
///     });
///     let handle = ctx.fork(0, second)?;
///     let mut acc = 0i64;
///     for i in 0..n / 2 {
///         acc += ctx.load(&data, i)?;
///     }
///     ctx.store(&out, 0, acc)?;
///     let _outcome: JoinOutcome = ctx.join(handle)?;
///     Ok(())
/// }
/// ```
///
/// A loop whose iterations may run ahead of one another is one
/// [`fork_range`](Self::fork_range) call — no hand-written chain of
/// continuations:
///
/// ```
/// use std::sync::Arc;
/// use mutls_runtime::{DirectContext, SpecResult, TlsContext};
/// use mutls_membuf::{GlobalMemory, GPtr};
///
/// fn square_all<C: TlsContext>(ctx: &mut C, data: GPtr<i64>, out: GPtr<i64>) -> SpecResult<()> {
///     ctx.fork_range(0, 0..data.len(), move |ctx: &mut C, i| {
///         let x = ctx.load(&data, i)?;
///         ctx.store(&out, i, x * x)
///     })
/// }
///
/// let memory = Arc::new(GlobalMemory::new(1 << 12));
/// let (data, out) = (memory.alloc::<i64>(5), memory.alloc::<i64>(5));
/// for i in 0..5 {
///     memory.set(&data, i, i as i64);
/// }
/// square_all(&mut DirectContext::new(Arc::clone(&memory)), data, out).unwrap();
/// assert_eq!(memory.get(&out, 4), 16);
/// ```
pub trait TlsContext: Sized {
    /// Token returned by [`fork`](Self::fork) and consumed by
    /// [`join`](Self::join).
    type Handle;

    /// Charge `units` of abstract computation to this thread.
    ///
    /// The native runtime measures real time, so this is only an
    /// (inexpensive) bookkeeping hint and an implicit check point; the
    /// simulator charges `units` virtual cycles.
    fn work(&mut self, units: u64) -> SpecResult<()>;

    /// Load one word at a raw global address.
    fn load_word(&mut self, addr: Addr) -> SpecResult<u64>;

    /// Store one word at a raw global address.
    fn store_word(&mut self, addr: Addr, value: u64) -> SpecResult<()>;

    /// Attempt to fork a speculative thread executing `task` (the
    /// continuation from the matching join point).  Speculation may be
    /// denied — by the forking model or because no CPU is idle — in which
    /// case the returned handle simply carries the closure for inline
    /// execution at the join point.
    fn fork(&mut self, point: u32, task: TaskRef<Self>) -> SpecResult<Self::Handle>;

    /// Fork under an explicit forking model, overriding the configured
    /// default (paper: the `model` argument of `__builtin_MUTLS_fork`).
    fn fork_with_model(
        &mut self,
        point: u32,
        model: crate::ForkModel,
        task: TaskRef<Self>,
    ) -> SpecResult<Self::Handle>;

    /// Join point: synchronize with the speculative child (validate and
    /// commit or roll back) or execute the task inline.
    fn join(&mut self, handle: Self::Handle) -> SpecResult<JoinOutcome>;

    /// Barrier point: stop speculative execution here; everything before
    /// the barrier is committable.  By convention this is the final
    /// statement of a task closure (`ctx.barrier()` as the return
    /// expression); it also "succeeds by stopping" during inline
    /// execution, so code after it never runs on either path.
    fn barrier(&mut self) -> SpecResult<()>;

    /// Check point: poll for abort requests (and, in the simulator, give
    /// the scheduler a preemption opportunity).  Inserted inside loops and
    /// before calls, as the speculator pass does.
    fn check_point(&mut self) -> SpecResult<()>;

    /// True if this context belongs to a speculative thread.
    fn is_speculative(&self) -> bool;

    /// Rank of the executing virtual CPU (0 = non-speculative).
    fn rank(&self) -> Rank;

    /// Loop-level speculation: run `body(ctx, i)` for every `i` of `range`
    /// in ascending order; any *tail* of the range may run speculatively
    /// while its head still executes.  Returns with every iteration
    /// executed and joined.
    ///
    /// This default is the in-order chain at grain 1, written once:
    /// `fork(cont(lo + 1..hi)); body(lo); join`.  It is the *finest*
    /// decomposition of the loop, and it is what the sequential contexts
    /// execute and the simulator's recorder records.  Which tails actually
    /// run speculatively is the executor's decision: the native
    /// [`SpecContext`](crate::SpecContext) overrides this method to walk
    /// the range and fork a tail only at an iteration boundary where a CPU
    /// is idle, keeping what its measured price per iteration against the
    /// speculative side's makes its fair share
    /// ([`protocol::forker_share`](crate::protocol::forker_share)): at equal
    /// price one part in (CPUs + 1) — half of it on one speculative CPU
    /// rather than one iteration, one iteration, the chain, once there is a
    /// CPU for every other iteration.
    /// Every cut goes through [`fork`](Self::fork) / [`join`](Self::join)
    /// under site `point`, so denial, rollback and inline re-execution
    /// apply to a range as to any continuation.
    ///
    /// Edge cases, the same for every implementor:
    /// - an empty or reversed range returns `Ok(())` without attempting a
    ///   fork;
    /// - a one-iteration range calls `body` directly: no fork, nothing
    ///   allocated (a longer range shares one `body` between all of its
    ///   continuations, so `body` need not be `Clone`);
    /// - `body` returning `Err` — [`SpecAbort::BarrierReached`] or
    ///   [`SpecAbort::Failed`] — propagates exactly as from a hand-written
    ///   continuation: the pending tail is not joined here, and the
    ///   enclosing task or join point handles the abort.  (A barrier stops
    ///   the *task* it is reached in — on the chain, that iteration and
    ///   everything behind it — so only the first iteration's reaches the
    ///   caller; which of the later iterations still run is the executor's
    ///   cut: a loop body has no use for one.)
    /// - `fork_range` may be called from a speculative task, from a
    ///   rollback re-execution (where a speculative thread's forks are
    ///   pinned inline) and from inside another `fork_range` body.
    fn fork_range<F>(&mut self, point: u32, range: Range<usize>, body: F) -> SpecResult<()>
    where
        F: Fn(&mut Self, usize) -> SpecResult<()> + Send + Sync + 'static,
    {
        over_range(self, range, body, |ctx, range, body| {
            chain(ctx, point, range, body)
        })
    }

    /// Typed load from a [`GPtr`] allocation; panics on an index past
    /// `ptr.len()`.
    ///
    /// Inlined into the kernel for every context, so what an access costs
    /// is decided one level down, by the context's
    /// [`load_word`](Self::load_word): the native runtime's and the
    /// simulator's recorder are inlined too, [`DirectContext`]'s — the
    /// sequential reference — is a call.
    ///
    /// [`DirectContext`]: crate::DirectContext
    #[inline(always)]
    fn load<T: Word>(&mut self, ptr: &GPtr<T>, index: usize) -> SpecResult<T> {
        assert!(
            index < ptr.len(),
            "index {index} out of bounds {}",
            ptr.len()
        );
        Ok(T::from_word(self.load_word(ptr.addr_of(index))?))
    }

    /// Typed store into a [`GPtr`] allocation; panics on an index past
    /// `ptr.len()`.  Inlined like [`load`](Self::load).
    #[inline(always)]
    fn store<T: Word>(&mut self, ptr: &GPtr<T>, index: usize, value: T) -> SpecResult<()> {
        assert!(
            index < ptr.len(),
            "index {index} out of bounds {}",
            ptr.len()
        );
        self.store_word(ptr.addr_of(index), value.to_word())
    }
}

/// The edge cases of [`TlsContext::fork_range`], decided once for every
/// context: nothing to run, one iteration to call, or — two or more — a
/// range for `cut` to decompose, its `body` shared behind an `Arc`.
pub(crate) fn over_range<C, F>(
    ctx: &mut C,
    range: Range<usize>,
    body: F,
    cut: impl FnOnce(&mut C, Range<usize>, &Arc<F>) -> SpecResult<()>,
) -> SpecResult<()>
where
    F: Fn(&mut C, usize) -> SpecResult<()>,
{
    match range.len() {
        0 => Ok(()),
        1 => body(ctx, range.start),
        _ => cut(ctx, range, &Arc::new(body)),
    }
}

/// The in-order chain at grain 1 over a non-empty range: `fork(cont(lo +
/// 1..hi)); body(lo); join`.
fn chain<C, F>(ctx: &mut C, point: u32, range: Range<usize>, body: &Arc<F>) -> SpecResult<()>
where
    C: TlsContext,
    F: Fn(&mut C, usize) -> SpecResult<()> + Send + Sync + 'static,
{
    let Range { start: lo, end: hi } = range;
    if hi - lo == 1 {
        return body(ctx, lo);
    }
    let rest = Arc::clone(body);
    let cont = task(move |ctx: &mut C| chain(ctx, point, lo + 1..hi, &rest));
    let handle = ctx.fork(point, cont)?;
    body(ctx, lo)?;
    ctx.join(handle)?;
    Ok(())
}

/// Convenience conversion so `?` can be used on buffer errors inside
/// runtime internals.
pub fn failure(f: SpecFailure) -> SpecAbort {
    SpecAbort::Failed(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_outcome_speculated() {
        assert!(JoinOutcome::Committed.speculated());
        assert!(!JoinOutcome::NotSpeculated.speculated());
        assert!(!JoinOutcome::RolledBack(SpecFailure::ReadConflict).speculated());
    }

    #[test]
    fn task_helper_builds_arc() {
        struct Dummy;
        let t: TaskRef<Dummy> = task(|_d: &mut Dummy| Ok(()));
        let mut d = Dummy;
        assert!(t(&mut d).is_ok());
        let t2 = t.clone();
        assert_eq!(Arc::strong_count(&t), 2);
        drop(t2);
    }

    #[test]
    fn abort_equality() {
        assert_eq!(SpecAbort::BarrierReached, SpecAbort::BarrierReached);
        assert_ne!(
            SpecAbort::Failed(SpecFailure::ReadConflict),
            SpecAbort::Failed(SpecFailure::Injected)
        );
    }
}
