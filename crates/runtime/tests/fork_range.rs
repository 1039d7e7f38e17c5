//! Loop-level speculation (`TlsContext::fork_range`) through the public
//! `Runtime` surface.  The native context forks a tail of a range only
//! where a CPU is idle (at the site's first cut half of what is left on
//! one, a third on two, …; then by the measured price of each side) where
//! the sequential ones walk it as a chain, so every test runs the
//! same generic program through both and compares memory word for word —
//! on 0, 1, 2 and 3 speculative CPUs, under the hang watchdog of
//! `early_sync.rs`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use mutls_membuf::{BufferConfig, GPtr};
use mutls_runtime::{
    failure, task, DenyPolicy, EventKind, Runtime, RuntimeConfig, SpecAbort, SpecContext,
    SpecFailure, SpecResult, TlsContext,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{alloc_init, no_slot_leaked, reference, set_words, try_reference, watchdog, words_of};

/// Words every iteration may read and none writes.
const PREFIX: usize = 64;
/// One cell an iteration, behind the prefix.
const CELLS: usize = 80;

fn initial_words() -> Vec<u64> {
    (0..(PREFIX + CELLS) as u64).map(|w| w * w + 1).collect()
}

fn runtime(cpus: usize, buffer: BufferConfig) -> Runtime {
    Runtime::new(
        RuntimeConfig::with_cpus(cpus)
            .memory_bytes(1 << 20)
            .buffer(buffer),
    )
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Reads the shared prefix, writes its own cell: no dependence.
    Independent,
    /// Reads the cell of iteration `i − 1`: every tail that ran ahead of
    /// its head read a stale word and must roll back.
    Dependent,
}

fn body<C: TlsContext>(ctx: &mut C, data: GPtr<u64>, shape: Shape, i: usize) -> SpecResult<()> {
    let value = match shape {
        Shape::Independent => {
            let mut acc = i as u64;
            for word in 0..PREFIX {
                acc = acc.wrapping_mul(31).wrapping_add(ctx.load(&data, word)?);
            }
            acc
        }
        Shape::Dependent => ctx
            .load(&data, PREFIX + i - 1)?
            .wrapping_mul(3)
            .wrapping_add(i as u64),
    };
    ctx.store(&data, PREFIX + i, value)
}

fn sweep<C: TlsContext>(
    ctx: &mut C,
    data: GPtr<u64>,
    shape: Shape,
    (lo, hi): (usize, usize),
) -> SpecResult<()> {
    ctx.fork_range(1, lo..hi, move |ctx: &mut C, i| body(ctx, data, shape, i))
}

/// Random ranges of 0..=70 iterations × independent bodies, bodies with a
/// true dependence on the previous iteration, and — on `BufferConfig::tiny`
/// — bodies whose read set cannot be buffered, so a tail that did
/// speculate is re-executed inline.
#[test]
fn random_ranges_match_the_sequential_result() {
    watchdog(|| {
        let init = initial_words();
        for cpus in 0..=3 {
            let roomy = runtime(cpus, BufferConfig::default());
            let tiny = runtime(cpus, BufferConfig::tiny());
            let (roomy_data, tiny_data) = (alloc_init(&roomy, &init), alloc_init(&tiny, &init));
            let mut rng = SmallRng::seed_from_u64(cpus as u64);
            let mut overflows = 0;
            for _ in 0..24 {
                let lo = rng.gen_range(0..8) as usize;
                let bounds = (lo, lo + rng.gen_range(0..71) as usize);
                for (rt, data, shape, fits) in [
                    (&roomy, roomy_data, Shape::Independent, true),
                    (&roomy, roomy_data, Shape::Dependent, true),
                    (&tiny, tiny_data, Shape::Independent, false),
                ] {
                    let expected = reference(&init, |ctx, data| sweep(ctx, data, shape, bounds));
                    set_words(rt, &data, &init);
                    let (_, report) = rt.run(|ctx| sweep(ctx, data, shape, bounds));
                    assert_eq!(
                        words_of(rt, &data),
                        expected,
                        "{shape:?} over {bounds:?} on {cpus} CPUs"
                    );
                    no_slot_leaked(rt, cpus);
                    if !fits {
                        // All but a child promoted before its 37th word.
                        overflows += report.rolled_back_threads;
                    }
                }
            }
            assert_eq!(overflows > 0, cpus > 0, "whatever speculated overflowed");
        }
    });
}

/// The edges the method's documentation promises: an empty or reversed
/// range attempts no fork and runs nothing; one iteration runs `body` and
/// attempts no fork either.
#[test]
fn empty_reversed_and_single_ranges_attempt_no_fork() {
    watchdog(|| {
        let rt = Runtime::new(
            RuntimeConfig::with_cpus(1)
                .memory_bytes(1 << 20)
                .trace_events(),
        );
        let init = initial_words();
        let data = alloc_init(&rt, &init);
        #[allow(clippy::reversed_empty_ranges)]
        for (lo, hi) in [(5, 5), (7, 3), (4, 5)] {
            let bounds = (lo, hi);
            let expected = reference(&init, |ctx, data| {
                sweep(ctx, data, Shape::Dependent, bounds)
            });
            let ran = (PREFIX..PREFIX + CELLS)
                .filter(|&word| expected[word] != init[word])
                .count();
            assert_eq!(ran, usize::from(lo < hi), "{bounds:?} sequentially");

            set_words(&rt, &data, &init);
            rt.run(|ctx| sweep(ctx, data, Shape::Dependent, bounds));
            assert_eq!(words_of(&rt, &data), expected, "{bounds:?}");
            let attempts = rt
                .drain_trace_events()
                .iter()
                .filter(|event| matches!(event.kind, EventKind::ForkAttempt))
                .count();
            assert_eq!(attempts, 0, "{bounds:?} attempted a fork");
        }
    });
}

/// A body that fails — here at iteration `k`, wherever it runs — is rolled
/// back where it ran speculatively and, re-executed by the non-speculative
/// thread, aborts the region exactly where the sequential run aborts: the
/// iterations before `k` are in memory, `k` and the ones behind it are not.
#[test]
fn a_failing_body_aborts_the_region_where_the_sequential_run_does() {
    fn failing<C: TlsContext>(ctx: &mut C, data: GPtr<u64>, k: usize) -> SpecResult<()> {
        ctx.fork_range(1, 0..9, move |ctx: &mut C, i| {
            if i == k {
                return Err(failure(SpecFailure::Injected));
            }
            body(ctx, data, Shape::Independent, i)
        })
    }
    watchdog(|| {
        let init = initial_words();
        for cpus in 0..=3 {
            let rt = runtime(cpus, BufferConfig::default());
            let data = alloc_init(&rt, &init);
            for k in 0..9 {
                let (result, expected) = try_reference(&init, |ctx, data| failing(ctx, data, k));
                assert_eq!(result, Err(failure(SpecFailure::Injected)));
                set_words(&rt, &data, &init);
                let (result, _) = rt.try_run(|ctx| failing(ctx, data, k));
                assert_eq!(result, Err(failure(SpecFailure::Injected)), "k = {k}");
                assert_eq!(words_of(&rt, &data), expected, "k = {k} on {cpus} CPUs");
                no_slot_leaked(&rt, cpus);
            }
        }
    });
}

/// A barrier stops the *task* it is reached in.  On the default chain that
/// task is "iteration `k` and everything behind it", which is what a
/// hand-written continuation gives, so only the head's barrier reaches the
/// caller — natively too.  Which iterations behind `k` the native context
/// had already forked is its cut, so all it promises besides is that the
/// iterations before `k` ran and nothing hangs.
#[test]
fn a_barrier_in_a_body_stops_the_task_it_is_reached_in() {
    fn stopping<C: TlsContext>(ctx: &mut C, data: GPtr<u64>, k: usize) -> SpecResult<()> {
        ctx.fork_range(1, 0..9, move |ctx: &mut C, i| {
            if i == k {
                return ctx.barrier();
            }
            body(ctx, data, Shape::Independent, i)
        })
    }
    watchdog(|| {
        let init = initial_words();
        let complete = reference(&init, |ctx, data| stopping(ctx, data, usize::MAX));
        let rt = runtime(2, BufferConfig::default());
        let data = alloc_init(&rt, &init);
        for k in 0..9 {
            let (result, words) = try_reference(&init, |ctx, data| stopping(ctx, data, k));
            let head = if k == 0 {
                Err(SpecAbort::BarrierReached)
            } else {
                Ok(())
            };
            assert_eq!(result, head, "only the head's barrier reaches the caller");
            let cells = PREFIX + k;
            assert_eq!(words[..cells], complete[..cells]);
            assert_eq!(words[cells..], init[cells..], "the chain ends at {k}");

            set_words(&rt, &data, &init);
            let (result, _) = rt.try_run(|ctx| stopping(ctx, data, k));
            assert_eq!(result, head);
            assert_eq!(words_of(&rt, &data)[..cells], complete[..cells], "k = {k}");
            no_slot_leaked(&rt, 2);
        }
    });
}

/// A range inside a range's body: rows outside, columns inside, each cell
/// computed from the one above it — a dependence between *outer*
/// iterations carried through the inner loops.
#[test]
fn a_range_nested_in_a_range_body_matches_the_sequential_result() {
    const ROWS: usize = 7;
    const COLUMNS: usize = 9;
    fn grid<C: TlsContext>(ctx: &mut C, data: GPtr<u64>) -> SpecResult<()> {
        ctx.fork_range(1, 1..ROWS, move |ctx: &mut C, row| {
            ctx.fork_range(2, 0..COLUMNS, move |ctx: &mut C, column| {
                let above = ctx.load(&data, (row - 1) * COLUMNS + column)?;
                let cell = above.wrapping_mul(5).wrapping_add((row + column) as u64);
                ctx.store(&data, row * COLUMNS + column, cell)
            })
        })
    }
    watchdog(|| {
        let init: Vec<u64> = (0..(ROWS * COLUMNS) as u64).collect();
        let expected = reference(&init, grid);
        for cpus in 0..=3 {
            let rt = runtime(cpus, BufferConfig::default());
            let data = alloc_init(&rt, &init);
            for round in 0..8 {
                set_words(&rt, &data, &init);
                rt.run(|ctx| grid(ctx, data));
                assert_eq!(
                    words_of(&rt, &data),
                    expected,
                    "round {round} on {cpus} CPUs"
                );
                no_slot_leaked(&rt, cpus);
            }
        }
    });
}

/// A range issued by a speculative task, and re-executed by it.  The task
/// forks the upper half of a dependent loop onto the second CPU; that half
/// read underneath the task's own buffered store, so the task's join rolls
/// it back and re-executes it with `reexec_depth > 0` — where a speculative
/// thread's forks are pinned inline, every cut of the re-executed half
/// included.  Rank 0 holds its join until the task is through, so the task
/// is speculative all the way.
#[test]
fn a_speculative_task_re_executes_a_range_with_its_forks_pinned_inline() {
    watchdog(|| {
        let init = initial_words();
        let expected = reference(&init, |ctx, data| {
            sweep(ctx, data, Shape::Dependent, (0, 16))
        });
        let rt = Runtime::new(
            RuntimeConfig::with_cpus(2)
                .memory_bytes(1 << 20)
                .trace_events(),
        );
        let data = alloc_init(&rt, &init);
        let through = Arc::new(AtomicBool::new(false));
        let done = Arc::clone(&through);
        let speculative_task = task(move |ctx: &mut SpecContext| {
            sweep(ctx, data, Shape::Dependent, (0, 16))?;
            assert!(ctx.is_speculative(), "nobody asked it to synchronize");
            done.store(true, Ordering::SeqCst);
            Ok(())
        });
        let (_, report) = rt.run(|ctx| {
            let handle = ctx.fork(0, speculative_task)?;
            assert!(handle.speculated());
            while !through.load(Ordering::SeqCst) {
                thread::yield_now();
            }
            ctx.join(handle)
        });
        assert_eq!(words_of(&rt, &data), expected);
        assert!(report.rolled_back_threads >= 1, "the upper half was stale");
        let pinned = rt
            .drain_trace_events()
            .iter()
            .filter(|event| {
                matches!(
                    event.kind,
                    EventKind::ForkDenied {
                        policy: DenyPolicy::Reexec
                    }
                )
            })
            .count();
        assert!(
            pinned >= 1,
            "the re-execution forked instead of running inline"
        );
        no_slot_leaked(&rt, 2);
    });
}

/// The property the chain lacks.  md's shape — 64 read-dense bodies of
/// some 12 µs on one speculative CPU — never clears the sync-payback rule,
/// so on a chain rank 0 runs one body per call and idles while its child
/// runs the other 63 alone.  Through the range the child gets a tail and
/// rank 0 keeps the head — the lower half at the first call, then the
/// share the two sides' measured prices give: at least one child commits
/// per call, and rank 0 executes at least a quarter of the bodies.
#[test]
fn on_one_cpu_rank_zero_keeps_its_share_of_an_md_shaped_range() {
    const BODIES: usize = 64;
    const READS: usize = 768;
    const CALLS: usize = 40;
    /// Apart from the read words by more than a commit-log line.
    const OUT: usize = READS + 64;
    static AT_RANK_ZERO: AtomicUsize = AtomicUsize::new(0);
    fn md_shaped<C: TlsContext>(ctx: &mut C, data: GPtr<u64>) -> SpecResult<()> {
        ctx.fork_range(1, 0..BODIES, move |ctx: &mut C, i| {
            let mut acc = 0u64;
            for word in 0..READS {
                acc = acc.wrapping_add(ctx.load(&data, (i * 37 + word) % READS)?);
            }
            AT_RANK_ZERO.fetch_add(usize::from(!ctx.is_speculative()), Ordering::Relaxed);
            ctx.store(&data, OUT + i, acc)
        })
    }
    watchdog(|| {
        let init: Vec<u64> = (0..(OUT + BODIES) as u64).collect();
        let expected = reference(&init, md_shaped);
        AT_RANK_ZERO.store(0, Ordering::Relaxed);
        let rt = runtime(1, BufferConfig::default());
        let data = alloc_init(&rt, &init);
        for call in 0..CALLS {
            let (_, report) = rt.run(|ctx| md_shaped(ctx, data));
            assert_eq!(words_of(&rt, &data), expected);
            assert_eq!(report.rolled_back_threads, 0, "call {call}");
            assert!(
                report.committed_threads >= 1,
                "call {call} committed nobody"
            );
            no_slot_leaked(&rt, 1);
        }
        if cfg!(debug_assertions) {
            // Unoptimized, a body takes some 100 µs and synchronizing pays:
            // the shares below are md's only at md's speed.
            return;
        }
        let at_rank_zero = AT_RANK_ZERO.load(Ordering::Relaxed);
        assert!(
            at_rank_zero >= CALLS * BODIES / 4,
            "rank 0 ran {at_rank_zero} of {} bodies",
            CALLS * BODIES
        );
    });
}
