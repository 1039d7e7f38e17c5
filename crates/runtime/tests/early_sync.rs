//! Early synchronization (paper §IV-E/H), through the public `Runtime`
//! surface: the non-speculative thread that reaches a join before its
//! child has finished asks the child to commit where it stands and carry
//! on as the non-speculative thread, and meanwhile runs dispatched tasks
//! on its own OS thread.
//!
//! Every test checks its result against the sequential one — the same
//! code run through `DirectContext` wherever the program is written
//! against `TlsContext` — and runs under a watchdog: a hand-off that is
//! never taken, or a role that is never handed back, is a hang, and a hang
//! must fail, not stall the suite.  Orderings that decide an assertion are
//! forced with a channel or by a task that only ends once it was promoted;
//! durations only have to be long (or short) against the runtime's own
//! measured hand-off cost, so the tests run one at a time — a thread
//! preempted by a neighbouring test would stretch the very intervals the
//! runtime decides on.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use mutls_membuf::GPtr;
use mutls_runtime::{
    task, EventKind, JoinOutcome, Phase, Runtime, RuntimeConfig, SpecContext, SpecFailure,
    SpecResult, TlsContext, ValidateOutcome,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{alloc_init, no_slot_leaked, reference, watchdog, words_of};

fn runtime(cpus: usize) -> Runtime {
    warmed(Runtime::new(
        RuntimeConfig::with_cpus(cpus).memory_bytes(1 << 20),
    ))
}

/// A few empty round trips, so that the fastest hand-off the runtime has
/// measured is one between running threads and not the first wake-up of a
/// worker that had just been spawned.
fn warmed(rt: Runtime) -> Runtime {
    let empty = task(|_: &mut SpecContext| Ok(()));
    rt.run(|ctx| {
        for _ in 0..32 {
            let handle = ctx.fork(0, Arc::clone(&empty))?;
            ctx.join(handle)?;
        }
        Ok(())
    });
    rt
}

/// Compute for `span` of wall time, passing a check point each round —
/// where a speculative task notices a sync request.
fn busy<C: TlsContext>(ctx: &mut C, span: Duration) -> SpecResult<()> {
    let started = Instant::now();
    while started.elapsed() < span {
        ctx.check_point()?;
    }
    Ok(())
}

/// Run until promoted: ends at once on the non-speculative thread, and
/// never on a speculative task nobody synchronizes (the watchdog's case).
fn until_promoted<C: TlsContext>(ctx: &mut C) -> SpecResult<()> {
    while ctx.is_speculative() {
        ctx.check_point()?;
    }
    Ok(())
}

/// A loop of `chunks` chunks in chain form, written by hand: each task
/// forks its continuation (the remaining chunks) and then runs its own
/// chunk.
fn chain<C: TlsContext + 'static>(
    ctx: &mut C,
    chunks: usize,
    i: usize,
    chunk: fn(&mut C, GPtr<u64>, usize) -> SpecResult<()>,
    data: GPtr<u64>,
) -> SpecResult<()> {
    if i + 1 < chunks {
        let rest = task(move |ctx: &mut C| chain(ctx, chunks, i + 1, chunk, data));
        let handle = ctx.fork(1, rest)?;
        chunk(ctx, data, i)?;
        ctx.join(handle)?;
    } else {
        chunk(ctx, data, i)?;
    }
    Ok(())
}

/// (i) and the accounting fix: on one speculative CPU a range of long
/// chunks keeps both OS threads busy — the joiner hands the
/// non-speculative role to the running child and takes the tail that child
/// forks next on the CPU it freed — and the critical path's phases
/// partition the run's wall time.
#[test]
fn a_compute_chain_alternates_between_both_os_threads() {
    const CHUNKS: usize = 64;
    /// The OS thread of every chunk run so far.
    static RAN_ON: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
    fn chunk<C: TlsContext>(ctx: &mut C, data: GPtr<u64>, i: usize) -> SpecResult<()> {
        RAN_ON.lock().unwrap().push(thread::current().id());
        busy(ctx, Duration::from_millis(3))?;
        ctx.store(&data, i, 3 * i as u64 + 1)
    }
    fn range<C: TlsContext>(ctx: &mut C, data: GPtr<u64>) -> SpecResult<()> {
        ctx.fork_range(1, 0..CHUNKS, move |ctx, i| chunk(ctx, data, i))
    }
    watchdog(|| {
        let expected = reference(&[0; CHUNKS], range);
        RAN_ON.lock().unwrap().clear();
        let rt = runtime(1);
        let data = alloc_init(&rt, &[0; CHUNKS]);
        let (_, report) = rt.run(|ctx| range(ctx, data));

        assert_eq!(words_of(&rt, &data), expected);
        let ran_on: HashSet<ThreadId> = RAN_ON.lock().unwrap().drain(..).collect();
        assert_eq!(ran_on.len(), 2, "both OS threads ran chunks");
        assert_eq!(report.rolled_back_threads, 0);
        // Every tail forked committed, at its join or by its promotion.
        let forks = report.critical.counters.forks + report.speculative.counters.forks;
        assert_eq!(forks, report.committed_threads);

        let critical = report.critical.total() as f64;
        let runtime = report.runtime as f64;
        assert!(
            (critical - runtime).abs() <= 0.05 * runtime,
            "critical-path phases sum to {critical} ns of a {runtime} ns run"
        );
        assert!(
            report.critical.get(Phase::Work) as f64 >= 0.9 * runtime,
            "the non-speculative role worked {} ns of {runtime}",
            report.critical.get(Phase::Work)
        );
        no_slot_leaked(&rt, 1);
    });
}

/// (ii) The probe's contract (`benchmark/src/probes.rs`): a task forked
/// and joined at once is still speculative when it ends, however long it
/// runs — S1 is nil, so no hand-off can pay.
#[test]
fn a_task_joined_at_once_stays_speculative() {
    watchdog(|| {
        let rt = runtime(1);
        let words: Vec<u64> = (0..1 << 12).collect();
        let data = alloc_init(&rt, &words);
        let sum = rt.alloc::<u64>(1);
        let speculative_at_end = Arc::new(AtomicU64::new(0));
        let flag = Arc::clone(&speculative_at_end);
        let reader = task(move |ctx: &mut SpecContext| {
            let mut acc = 0u64;
            for _ in 0..64 {
                for i in 0..data.len() {
                    acc = acc.wrapping_add(ctx.load(&data, i)?);
                }
            }
            ctx.store(&sum, 0, acc)?;
            flag.fetch_add(u64::from(ctx.is_speculative()), Ordering::SeqCst);
            Ok(())
        });
        const ROUNDS: u64 = 20;
        for _ in 0..ROUNDS {
            let (outcome, _) = rt.run(|ctx| {
                let handle = ctx.fork(0, Arc::clone(&reader))?;
                ctx.join(handle)
            });
            assert_eq!(outcome, JoinOutcome::Committed);
        }
        assert_eq!(speculative_at_end.load(Ordering::SeqCst), ROUNDS);
        let n = data.len() as u64;
        assert_eq!(rt.memory().get(&sum, 0), 64 * (n * (n - 1) / 2));
        no_slot_leaked(&rt, 1);
    });
}

/// (iii) A promotion that fails validation: a word the child read is
/// overwritten, then rank 0 asks the running child to synchronize.  The
/// child validates where it stands, fails, and unwinds; rank 0's ordinary
/// rollback re-executes — and the failure is validated, traced and counted
/// once, not again at the join.  (The overwrite goes to memory and the
/// commit log by hand, without the eager doom a store through `ctx` sends
/// the registered reader: dooming only accelerates the verdict, and this
/// test is about the verdict a promotion reaches without it.)
#[test]
fn a_failed_promotion_rolls_back_once_and_reexecutes() {
    watchdog(|| {
        let rt = warmed(Runtime::new(
            RuntimeConfig::with_cpus(1)
                .memory_bytes(1 << 20)
                .trace_events(),
        ));
        let cells = alloc_init(&rt, &[1, 0]);
        let (read_tx, read_rx) = mpsc::channel();
        let child = task(move |ctx: &mut SpecContext| {
            let seen = ctx.load(&cells, 0)?;
            if ctx.is_speculative() {
                read_tx.send(seen).expect("rank 0 is waiting");
            }
            // Stopped only by the request it cannot honour.
            until_promoted(ctx)?;
            ctx.store(&cells, 1, seen * 10)
        });
        let (outcome, report) = rt.run(|ctx| {
            let handle = ctx.fork(0, child)?;
            assert_eq!(read_rx.recv().expect("the child speculated"), 1);
            // Data first, then the stamp: the commit log's ordering.  No
            // doom: the child must meet the request it cannot honour.
            rt.memory().set(&cells, 0, 2);
            let log = rt.manager().commit_log();
            log.publish(&mut vec![cells.addr_of(0)], false, |_| true);
            // Long enough a region that synchronizing pays.
            busy(ctx, Duration::from_millis(5))?;
            ctx.join(handle)
        });
        assert_eq!(outcome, JoinOutcome::RolledBack(SpecFailure::ReadConflict));
        assert_eq!(
            rt.memory().get(&cells, 1),
            20,
            "re-executed on the new value"
        );
        assert_eq!(report.rolled_back_threads, 1);
        assert_eq!(report.committed_threads, 0);
        let events = rt.drain_trace_events();
        let of_child = |wanted: fn(&EventKind) -> bool| {
            events
                .iter()
                .filter(|event| event.rank == 1 && wanted(&event.kind))
                .count()
        };
        assert_eq!(
            of_child(|kind| matches!(kind, EventKind::ValidateBegin { .. })),
            1
        );
        // The one verdict is the promotion's own (`Conflict`), not that of a
        // task already stopped by a doom (`Failed`).
        assert_eq!(
            of_child(|kind| matches!(
                kind,
                EventKind::ValidateEnd {
                    outcome: ValidateOutcome::Conflict
                }
            )),
            1
        );
        assert_eq!(
            of_child(|kind| matches!(kind, EventKind::ValidateEnd { .. })),
            1
        );
        assert_eq!(
            of_child(|kind| matches!(kind, EventKind::Rollback { .. })),
            1
        );
        no_slot_leaked(&rt, 1);
    });
}

/// (iv) Children a task forked while speculative stay sound across its
/// promotion: the grandchild read a word underneath the child's buffered
/// store, the promotion's commit stamps that word, and the grandchild's own
/// join — now at the non-speculative thread — rolls it back instead of
/// committing the stale read.
#[test]
fn a_grandchild_that_read_under_the_childs_writes_is_rolled_back() {
    /// `native`: the forks speculate, so rank 0 can (and must) hold its
    /// request until the grandchild has read.
    fn program<C: TlsContext + 'static>(
        ctx: &mut C,
        cells: GPtr<u64>,
        native: bool,
        verdict: Arc<Mutex<Option<JoinOutcome>>>,
    ) -> SpecResult<()> {
        let has_read = Arc::new(AtomicBool::new(false));
        let seen_by_child = Arc::clone(&has_read);
        let child = task(move |ctx: &mut C| {
            ctx.store(&cells, 0, 5)?;
            let read = Arc::clone(&seen_by_child);
            let grandchild = task(move |ctx: &mut C| {
                let seen = ctx.load(&cells, 0)?;
                ctx.store(&cells, 1, seen + 1)?;
                read.store(true, Ordering::SeqCst);
                Ok(())
            });
            let handle = ctx.fork(1, grandchild)?;
            // Speculative: hold the join until the grandchild has read
            // underneath the store above, and this task was promoted.
            while ctx.is_speculative() && !seen_by_child.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            until_promoted(ctx)?;
            *verdict.lock().unwrap() = Some(ctx.join(handle)?);
            Ok(())
        });
        let handle = ctx.fork(0, child)?;
        while native && !has_read.load(Ordering::SeqCst) {
            thread::yield_now();
        }
        busy(ctx, Duration::from_millis(5))?;
        ctx.join(handle)?;
        Ok(())
    }
    watchdog(|| {
        let expected = reference(&[0, 0], |ctx, cells| {
            program(ctx, cells, false, Arc::default())
        });
        assert_eq!(expected, [5, 6]);

        let rt = runtime(2);
        let cells = alloc_init(&rt, &[0, 0]);
        let verdict: Arc<Mutex<Option<JoinOutcome>>> = Arc::default();
        let (_, report) = rt.run(|ctx| program(ctx, cells, true, Arc::clone(&verdict)));
        assert_eq!(words_of(&rt, &cells), expected);
        assert_eq!(
            *verdict.lock().unwrap(),
            Some(JoinOutcome::RolledBack(SpecFailure::ReadConflict)),
            "the stale grandchild must not commit"
        );
        assert_eq!(report.committed_threads, 1, "the promoted child");
        assert_eq!(report.rolled_back_threads, 1, "the grandchild");
        no_slot_leaked(&rt, 2);
    });
}

/// (v) A speculative task blocked in its own nested join polls there too:
/// it is promoted while it waits, and then, as the non-speculative thread,
/// synchronizes the child it was waiting for.
#[test]
fn a_task_blocked_in_a_nested_join_is_promoted_there() {
    /// `native`: the forks speculate, so rank 0 can (and must) hold its
    /// join until the outer task has reached its own.
    fn program<C: TlsContext + 'static>(
        ctx: &mut C,
        cells: GPtr<u64>,
        native: bool,
        promoted_in_join: Arc<AtomicBool>,
    ) -> SpecResult<()> {
        let at_its_join = Arc::new(AtomicBool::new(false));
        let reached = Arc::clone(&at_its_join);
        let outer = task(move |ctx: &mut C| {
            // Ends only once it holds the non-speculative role.
            let inner = task(move |ctx: &mut C| {
                until_promoted(ctx)?;
                ctx.store(&cells, 1, 2)
            });
            let handle = ctx.fork(1, inner)?;
            busy(ctx, Duration::from_millis(5))?;
            let was_speculative = ctx.is_speculative();
            reached.store(true, Ordering::SeqCst);
            ctx.join(handle)?;
            if was_speculative && !ctx.is_speculative() {
                promoted_in_join.store(true, Ordering::SeqCst);
            }
            ctx.store(&cells, 0, 1)
        });
        let handle = ctx.fork(0, outer)?;
        if native {
            // Off the CPU meanwhile: both tasks need one.
            while !at_its_join.load(Ordering::SeqCst) {
                thread::yield_now();
            }
            busy(ctx, Duration::from_millis(1))?;
        }
        ctx.join(handle)?;
        ctx.store(&cells, 2, 3)
    }
    watchdog(|| {
        let expected = reference(&[0; 3], |ctx, cells| {
            program(ctx, cells, false, Arc::default())
        });
        let rt = runtime(3);
        let cells = alloc_init(&rt, &[0; 3]);
        let promoted_in_join = Arc::new(AtomicBool::new(false));
        let (_, report) = rt.run(|ctx| program(ctx, cells, true, Arc::clone(&promoted_in_join)));
        assert_eq!(words_of(&rt, &cells), expected);
        assert!(promoted_in_join.load(Ordering::SeqCst));
        assert_eq!(report.committed_threads, 2);
        assert_eq!(report.rolled_back_threads, 0);
        no_slot_leaked(&rt, 3);
    });
}

/// (vi) Where it must not act: a chain of read-dense chunks a few
/// microseconds long (md's shape).  A sync there validates and clears
/// hundreds of entries to overlap a region shorter than that takes, so
/// every request is turned down and the fork counts are what they are
/// under a blocking join: one fork a step, every other one denied.
#[test]
fn short_read_dense_chunks_are_never_synchronized() {
    const STEPS: usize = 40;
    const CHUNKS: usize = 16;
    const READS: usize = 256;
    fn chunk<C: TlsContext>(ctx: &mut C, data: GPtr<u64>, i: usize) -> SpecResult<()> {
        let mut acc = 0u64;
        for word in 0..READS {
            acc = acc.wrapping_add(ctx.load(&data, CHUNKS + (i * 37 + word) % READS)?);
        }
        let mine = ctx.load(&data, i)?;
        ctx.store(&data, i, mine.wrapping_add(acc))
    }
    fn steps<C: TlsContext + 'static>(ctx: &mut C, data: GPtr<u64>) -> SpecResult<()> {
        for _ in 0..STEPS {
            chain(ctx, CHUNKS, 0, chunk, data)?;
        }
        Ok(())
    }
    watchdog(|| {
        let init: Vec<u64> = (0..(CHUNKS + READS) as u64).collect();
        let expected = reference(&init, steps);
        let rt = runtime(1);
        let data = alloc_init(&rt, &init);
        // Let the runtime price a buffered entry in this build first, on
        // promotions that do pay: a task holding a chunk's read set,
        // joined after 2 ms.
        let holder = task(move |ctx: &mut SpecContext| {
            for word in 0..READS {
                ctx.load(&data, CHUNKS + word)?;
            }
            until_promoted(ctx)
        });
        for _ in 0..3 {
            let (outcome, _) = rt.run(|ctx| {
                let handle = ctx.fork(0, Arc::clone(&holder))?;
                busy(ctx, Duration::from_millis(2))?;
                ctx.join(handle)
            });
            assert_eq!(outcome, JoinOutcome::Committed);
        }
        let (_, report) = rt.run(|ctx| steps(ctx, data));
        assert_eq!(words_of(&rt, &data), expected);
        no_slot_leaked(&rt, 1);
        if cfg!(debug_assertions) {
            // Unoptimized, a chunk takes some 100 µs, and a hand-off at the
            // very start of a task (nothing buffered yet) does pay then:
            // the counts below are md's only at md's speed.
            return;
        }
        let counters = |count: fn(&mutls_runtime::ThreadCounters) -> u64| {
            count(&report.critical.counters) + count(&report.speculative.counters)
        };
        assert_eq!(counters(|c| c.forks), STEPS as u64, "one fork a step");
        assert_eq!(
            counters(|c| c.failed_forks),
            (STEPS * (CHUNKS - 2)) as u64,
            "every fork behind the running child was denied"
        );
        assert_eq!(report.committed_threads, STEPS as u64);
    });
}

/// One node of a random fork/join tree: `pre`, then — if it forks — the
/// `body` subtree while `continuation` is speculated, the join, and `post`.
struct Node {
    pre: Vec<Update>,
    span: Duration,
    fork: Option<(Arc<Node>, Arc<Node>)>,
    post: Vec<Update>,
}

/// `cells[dst] = cells[src] * 3 + add`.
struct Update {
    dst: usize,
    src: usize,
    add: u64,
}

const CELLS: usize = 6;

fn random_tree(rng: &mut SmallRng, depth: u32) -> Arc<Node> {
    let updates = |rng: &mut SmallRng| {
        (0..rng.gen_range(0..3))
            .map(|_| Update {
                dst: rng.gen_range(0..CELLS as u64) as usize,
                src: rng.gen_range(0..CELLS as u64) as usize,
                add: rng.gen_range(1..100),
            })
            .collect()
    };
    let pre = updates(rng);
    let post = updates(rng);
    // Spans on both sides of what a hand-off costs.
    let span = Duration::from_micros([0, 20, 300, 1500][rng.gen_range(0..4) as usize]);
    let fork = (depth > 0 && rng.gen_bool(0.75))
        .then(|| (random_tree(rng, depth - 1), random_tree(rng, depth - 1)));
    Arc::new(Node {
        pre,
        span,
        fork,
        post,
    })
}

fn run_tree<C: TlsContext + 'static>(
    ctx: &mut C,
    cells: GPtr<u64>,
    node: &Arc<Node>,
) -> SpecResult<()> {
    let apply = |ctx: &mut C, updates: &[Update]| {
        for update in updates {
            let value = ctx.load(&cells, update.src)?;
            ctx.store(
                &cells,
                update.dst,
                value.wrapping_mul(3).wrapping_add(update.add),
            )?;
        }
        Ok(())
    };
    apply(ctx, &node.pre)?;
    busy(ctx, node.span)?;
    if let Some((body, continuation)) = &node.fork {
        let continuation = Arc::clone(continuation);
        let rest = task(move |ctx: &mut C| run_tree(ctx, cells, &continuation));
        let handle = ctx.fork(1, rest)?;
        run_tree(ctx, cells, body)?;
        ctx.join(handle)?;
    }
    apply(ctx, &node.post)
}

/// (vii) Random fork/join trees, spans on both sides of the hand-off cost,
/// dependences through a handful of shared cells: whatever mix of commits,
/// promotions, refusals and rollbacks a run takes, it ends,
/// matches the sequential result, and leaves every slot free.
#[test]
fn random_trees_never_hang_and_never_leak_a_slot() {
    watchdog(|| {
        for cpus in 1..=3 {
            let rt = runtime(cpus);
            let cells = rt.alloc::<u64>(CELLS);
            for seed in 0..8 {
                let tree = random_tree(&mut SmallRng::seed_from_u64(seed * 3 + cpus as u64), 4);
                let expected = reference(&[0; CELLS], |ctx, cells| run_tree(ctx, cells, &tree));
                (0..CELLS).for_each(|i| rt.memory().set(&cells, i, 0));
                rt.run(|ctx| run_tree(ctx, cells, &tree));
                assert_eq!(words_of(&rt, &cells), expected, "seed {seed}, {cpus} CPUs");
                no_slot_leaked(&rt, cpus);
            }
        }
    });
}
