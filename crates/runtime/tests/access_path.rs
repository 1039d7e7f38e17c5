//! The invariant the inlined access path rests on — *every address in a
//! read or write set was checked on the way in* — through the public
//! `Runtime` surface, under the hang watchdog of `early_sync.rs`.
//!
//! A hit never asks whether its address is registered, so the first touch
//! and the first store of a word must: a garbage pointer read under
//! speculation has to end as `SpecFailure::UnregisteredAddress`, a
//! rollback and an inline re-execution — never as a panic on a worker
//! thread, which the joiner would wait out forever.  And the shells that
//! are inlined into every kernel count each access exactly once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mutls_membuf::{Addr, GPtr};
use mutls_runtime::{
    task, DirectContext, JoinOutcome, Runtime, RuntimeConfig, SpecFailure, SpecResult, TlsContext,
};
use mutls_workloads::{arena_bytes, run_speculative, setup, Scale, WorkloadKind};

mod common;
use common::{alloc_init, no_slot_leaked, try_reference, watchdog, words_of};

const ARENA_BYTES: u64 = 1 << 20;
const INIT: [u64; 4] = [11, 22, 33, 44];

#[derive(Debug, Clone, Copy)]
enum Wild {
    /// `addr + 8` wraps to 0, below any allocation cursor.
    TopOfAddressSpace,
    /// Word aligned and inside the arena's capacity, but never allocated.
    BeyondTheAllocationCursor,
}

#[derive(Debug, Clone, Copy)]
enum Access {
    Load,
    Store,
}

/// Fork a continuation that — only while it is speculative — makes
/// `warm_up` accesses to a registered word and then one to `wild`; join it.
/// `before_join` runs between the forker's own store and the join.
fn program<C: TlsContext>(
    ctx: &mut C,
    data: GPtr<u64>,
    (wild, access, warm_up): (Addr, Access, usize),
    reached: &Arc<AtomicBool>,
    before_join: impl FnOnce(&C::Handle),
) -> SpecResult<JoinOutcome> {
    let reached = Arc::clone(reached);
    let continuation = task(move |ctx: &mut C| {
        if ctx.is_speculative() {
            for _ in 0..warm_up {
                ctx.load(&data, 0)?;
            }
            // Nothing between here and the wild access polls (the access
            // count stands at 0 or 300), so the joiner released here cannot
            // turn this task non-speculative before it gets there.
            reached.store(true, Ordering::Release);
            match access {
                Access::Load => drop(ctx.load_word(wild)?),
                Access::Store => ctx.store_word(wild, 9)?,
            }
        }
        let seen = ctx.load(&data, 0)?;
        ctx.store(&data, 1, seen + 1)
    });
    let handle = ctx.fork(7, continuation)?;
    ctx.store(&data, 2, 5)?;
    before_join(&handle);
    ctx.join(handle)
}

/// A speculative access to an address outside every registered range —
/// as the task's first access and after the poll cadence was crossed on
/// hits, as a load and as a store — rolls the task back and the run
/// returns with the sequential run's memory.  (At the parent commit the
/// top-of-address-space cases wrap the range check, panic the worker in
/// the arena's bounds assert and hang the joiner.)
#[test]
fn a_wild_speculative_access_rolls_back_as_unregistered() {
    watchdog(|| {
        for wild in [Wild::TopOfAddressSpace, Wild::BeyondTheAllocationCursor] {
            for access in [Access::Load, Access::Store] {
                for warm_up in [0, 300] {
                    let case = format!("{wild:?} {access:?} after {warm_up} hits");
                    let rt = Runtime::new(RuntimeConfig::with_cpus(1).memory_bytes(ARENA_BYTES));
                    let data = alloc_init(&rt, &INIT);
                    let addr = match wild {
                        Wild::TopOfAddressSpace => u64::MAX - 7,
                        Wild::BeyondTheAllocationCursor => {
                            let addr = rt.memory().allocated_bytes() + 4096;
                            assert!(addr.is_multiple_of(8) && addr + 8 <= ARENA_BYTES, "{case}");
                            addr
                        }
                    };
                    let reached = Arc::new(AtomicBool::new(false));
                    let (outcome, report) = rt.run(|ctx| {
                        program(ctx, data, (addr, access, warm_up), &reached, |handle| {
                            assert!(handle.speculated(), "{case}: an idle CPU was denied");
                            while !reached.load(Ordering::Acquire) {
                                std::thread::yield_now();
                            }
                        })
                    });
                    assert_eq!(
                        outcome,
                        JoinOutcome::RolledBack(SpecFailure::UnregisteredAddress),
                        "{case}"
                    );
                    assert_eq!(report.rolled_back_threads, 1, "{case}");
                    let (direct, expected) = try_reference(&INIT, |ctx, data| {
                        program(ctx, data, (addr, access, warm_up), &reached, |_| ()).map(drop)
                    });
                    direct.expect("a sequential run cannot abort");
                    assert_eq!(words_of(&rt, &data), expected, "{case}");
                    no_slot_leaked(&rt, 1);
                }
            }
        }
    });
}

/// The inlined shells count every access exactly once: with no speculative
/// CPU every access of every kernel is rank 0's, and the run's loads and
/// stores add up to what `DirectContext` counts for the same program.
#[test]
fn rank_zero_counts_what_the_sequential_context_counts() {
    watchdog(|| {
        let kinds = WorkloadKind::ALL
            .into_iter()
            .chain(WorkloadKind::CONFLICT_FAMILY);
        for kind in kinds {
            let bytes = arena_bytes(kind, Scale::Tiny);
            let rt = Runtime::new(RuntimeConfig::with_cpus(0).memory_bytes(bytes));
            let data = setup(kind, Scale::Tiny, &rt.memory());
            let ((), report) = rt.run(|ctx| run_speculative(ctx, &data));
            let counted = &report.critical.counters;

            let memory = Arc::new(mutls_membuf::GlobalMemory::new(bytes));
            let data = setup(kind, Scale::Tiny, &memory);
            let mut direct = DirectContext::new(memory);
            run_speculative(&mut direct, &data).expect("a sequential run cannot abort");

            assert!(direct.memory_ops() > 0, "{}: no access made", kind.name());
            assert_eq!(
                counted.loads + counted.stores,
                direct.memory_ops(),
                "{}: {} loads + {} stores",
                kind.name(),
                counted.loads,
                counted.stores
            );
            assert_eq!(report.speculative.counters.loads, 0, "{}", kind.name());
            assert_eq!(report.speculative.counters.stores, 0, "{}", kind.name());
        }
    });
}
