//! The scheduler's unit tests.

use super::*;
use crate::record_region;
use mutls_membuf::{GlobalMemory, RollbackReason};
use mutls_runtime::{task, SpecResult, TlsContext};
use mutls_trace::{LatencyPhase, ValidateOutcome};
use std::sync::Arc;

/// A region whose child reads a word that *false-shares* a line with
/// the word the parent writes mid-flight: a range conflict at line
/// grain, never a word conflict.
fn false_sharing_recording() -> crate::Recording {
    let memory = Arc::new(GlobalMemory::new(1 << 12));
    let cells = memory.alloc::<u64>(16);
    record_region(Arc::clone(&memory), move |ctx| {
        fn region<C: TlsContext>(ctx: &mut C, cells: mutls_membuf::GPtr<u64>) -> SpecResult<()> {
            let cont = task(move |ctx: &mut C| {
                // Word 1 shares line 0 with word 0 below.
                let v = ctx.load(&cells, 1)?;
                ctx.work(20_000)?;
                ctx.store(&cells, 8, v + 1) // a different line
            });
            let handle = ctx.fork(1, cont)?;
            // Long enough that the child is already in flight, short
            // enough that it has not finished when this publishes.
            ctx.work(5_000)?;
            ctx.store(&cells, 0, 7)?;
            ctx.work(5_000)?;
            ctx.join(handle)?;
            Ok(())
        }
        region(ctx, cells)
    })
}

/// Line grain (where the recording's conflict is range-only) at an
/// explicit ring depth.
fn line_grain_at_depth(ring_depth: u32) -> SimConfig {
    SimConfig {
        commit_log: CommitLogConfig::line_grain().ring_depth(ring_depth),
        trace: true,
        ..SimConfig::with_cpus(2)
    }
}

fn ser(report: &RunReport) -> String {
    use serde::Serialize;
    let mut out = String::new();
    report.serialize_json(&mut out);
    out
}

#[test]
fn sim_defaults_mirror_the_runtime() {
    assert_eq!(
        SimConfig::default().commit_log,
        RuntimeConfig::default().commit_log
    );
}

#[test]
fn false_sharing_retries_at_ring_depth_one_and_vanishes_at_word_grain() {
    let recording = false_sharing_recording();
    // Single-version log: the conflict is range-only, value
    // prediction repairs it — a retry, not a rollback.  (With rings
    // it precise-passes instead; see
    // `mvcc_turns_false_sharing_retries_into_precise_passes`.)
    let repaired = simulate(&recording, line_grain_at_depth(1));
    assert_eq!(repaired.report.retried_threads, 1);
    assert_eq!(repaired.report.rolled_back_threads, 0);
    assert_eq!(repaired.report.speculative.counters.retries_succeeded, 1);
    assert_eq!(repaired.report.wasted_work(), 0);
    // At word grain the conflict does not exist at all.
    let exact = simulate(
        &recording,
        SimConfig {
            commit_log: CommitLogConfig::word_grain().ring_depth(1),
            ..SimConfig::with_cpus(2)
        },
    );
    assert_eq!(exact.report.retried_threads, 0);
    assert_eq!(exact.report.rolled_back_threads, 0);
}

#[test]
fn mvcc_turns_false_sharing_retries_into_precise_passes() {
    let recording = false_sharing_recording();
    // Depth 1: the range-only conflict costs a value-predict retry at
    // the join.
    let single = simulate(&recording, line_grain_at_depth(1));
    assert_eq!(single.report.retried_threads, 1);
    assert_eq!(single.report.precise_passes(), 0);
    // Rings: the version ring proves the parent's line-sharing write
    // missed the word the child read — no doom, no retry, a precise
    // pass priced at one ring probe.
    let depth = mutls_membuf::DEFAULT_RING_DEPTH;
    let mvcc = simulate(&recording, line_grain_at_depth(depth));
    assert_eq!(mvcc.report.retried_threads, 0);
    assert_eq!(mvcc.report.rolled_back_threads, 0);
    assert!(mvcc.report.precise_passes() >= 1);
    assert_eq!(mvcc.report.commit_log.ring_depth, depth);
    assert_eq!(mvcc.report.commit_log.ring_overflows, 0);
    assert!(mvcc.events.iter().any(|e| matches!(
        e.kind,
        EventKind::ValidateEnd {
            outcome: ValidateOutcome::PrecisePass
        }
    )));
    // The probe undercuts the retry it replaces.
    assert!(mvcc.parallel_cycles <= single.parallel_cycles);
    // Determinism survives the rings.
    let again = simulate(&recording, line_grain_at_depth(depth));
    assert_eq!(ser(&mvcc.report), ser(&again.report));
}

/// The log has one committer at a time, so a publish pays no
/// contention, however many writers are in flight, and the pricing
/// stays byte-deterministic.
#[test]
fn a_publish_with_later_chunks_in_flight_pays_no_contention() {
    // A speculation chain over one page (= one region): every chunk
    // stores its word in an *early* segment (split off by the check
    // point) and then works for a long time, so when chunk i commits at
    // the root's join, chunks i+1.. are still in flight with their
    // stores already buffered in the same region.
    let memory = Arc::new(GlobalMemory::new(1 << 12));
    let out = memory.alloc::<i64>(8);
    let recording = record_region(Arc::clone(&memory), move |ctx| {
        fn run<C: TlsContext>(
            ctx: &mut C,
            out: mutls_membuf::GPtr<i64>,
            i: usize,
            chunks: usize,
        ) -> SpecResult<()> {
            if i + 1 < chunks {
                let cont = task(move |ctx: &mut C| run(ctx, out, i + 1, chunks));
                let h = ctx.fork(0, cont)?;
                ctx.store(&out, i, i as i64)?;
                ctx.check_point()?;
                ctx.work(50_000)?;
                ctx.join(h)?;
            } else {
                ctx.store(&out, i, i as i64)?;
                ctx.work(50_000)?;
            }
            Ok(())
        }
        run(ctx, out, 0, 6)
    });
    let config = || SimConfig::with_cpus(8);
    let result = simulate(&recording, config());
    assert_eq!(result.report.commit_log.cas_retries, 0);
    let phases = &result.report.latency.phases;
    assert!(phases.iter().all(|row| row.phase != "commit-cas-retry"));
    let samples = |phase| result.report.latency.row(phase).unwrap().count;
    assert_eq!(samples(LatencyPhase::CommitLockWait), 0);
    assert_eq!(result.report.committed_threads, 5);
    let again = simulate(&recording, config());
    assert_eq!(ser(&result.report), ser(&again.report));
}

/// One step of a random speculative program over `cells`.
#[derive(Debug, Clone, Copy)]
enum Op {
    Load(usize),
    Store(usize),
    Work(u64),
    CheckPoint,
    /// Fork the continuation that starts this many ops ahead; the
    /// forker runs the ops in between and joins.
    Fork(usize),
}

/// Interpret `ops[from..to]`.  A fork splits the rest of the range
/// into the forker's body and the child's continuation, and either
/// half may fork again, so flat op lists yield chains, trees and
/// everything between.
fn run_ops<C: TlsContext>(
    ctx: &mut C,
    cells: mutls_membuf::GPtr<u64>,
    ops: &Arc<[Op]>,
    from: usize,
    to: usize,
) -> SpecResult<()> {
    for i in from..to {
        match ops[i] {
            Op::Load(word) => {
                ctx.load(&cells, word)?;
            }
            Op::Store(word) => ctx.store(&cells, word, i as u64)?,
            Op::Work(units) => ctx.work(units)?,
            Op::CheckPoint => ctx.check_point()?,
            Op::Fork(ahead) => {
                let split = (i + 1 + ahead).min(to);
                let rest = Arc::clone(ops);
                let cont = task(move |ctx: &mut C| run_ops(ctx, cells, &rest, split, to));
                let handle = ctx.fork(i as u32 % 3, cont)?;
                run_ops(ctx, cells, ops, i + 1, split)?;
                ctx.join(handle)?;
                return Ok(());
            }
        }
    }
    Ok(())
}

/// Index ≡ scan, CPU table ≡ all-fiber loop: random task trees with
/// random footprints on six lines of two pages, replayed at word,
/// line and page grain and ring depth 1, 2 and 4.  The comparison itself
/// is in the scheduler — under `cfg(test)` every `check_reads` and
/// `publish` is also computed the old way, and the CPU table checked
/// against every fiber at every pop (`mod reference`) — so this test
/// only has to reach the paths, and says which ones it reached.
#[test]
fn index_and_registry_agree_with_the_log_scan_on_random_task_trees() {
    use proptest::prelude::*;
    use proptest::strategy::Strategy;
    // Three lines at the start of each of two pages.
    let word = (0usize..48).prop_map(|i| i % 24 + (i / 24) * 512);
    let op = (0u32..13, word, 1u64..40).prop_map(|(kind, word, n)| match kind {
        0..=3 => Op::Load(word),
        4..=7 => Op::Store(word),
        8 => Op::Work(n * 100),
        9..=10 => Op::CheckPoint,
        _ => Op::Fork(n as usize % 16),
    });
    let program = collection::vec(op, 8..96);
    let grains = [
        CommitLogConfig::word_grain(),
        CommitLogConfig::line_grain(),
        CommitLogConfig::page_grain(),
    ];
    let case = (program, (0usize..3, 0usize..3, 1usize..7));

    let mut gen = proptest::test_runner::Gen::new(0x1D3A);
    let cases = proptest::cases();
    let [mut dooms, mut passes, mut overflows, mut retries, mut cascades] = [0u64; 5];
    for _ in 0..cases {
        let (ops, (grain, rings, cpus)) = case.generate(&mut gen);
        let ops: Arc<[Op]> = ops.into();
        let memory = Arc::new(GlobalMemory::new(1 << 14));
        let cells = memory.alloc::<u64>(1024);
        let recording = record_region(Arc::clone(&memory), |ctx| {
            run_ops(ctx, cells, &ops, 0, ops.len())
        });
        let config = || SimConfig {
            commit_log: grains[grain].ring_depth([1, 2, 4][rings]),
            ..SimConfig::with_cpus(cpus)
        };
        let result = simulate(&recording, config());
        let again = simulate(&recording, config());
        assert_eq!(ser(&result.report), ser(&again.report));
        let report = &result.report;
        dooms +=
            report.speculative.counters.targeted_dooms + report.critical.counters.targeted_dooms;
        passes += report.precise_passes();
        overflows += report.commit_log.ring_overflows;
        retries += report.retried_threads;
        cascades += report.rollback_reasons[RollbackReason::Other.index()];
    }
    // At the default case count every verdict kind must have occurred.
    if cases >= proptest::CASES {
        let reached = [dooms, passes, overflows, retries, cascades];
        assert!(reached.iter().all(|&n| n > 0), "paths reached: {reached:?}");
    }
}

/// Degenerate pub-field configs (sub-word grain) must be normalized by the
/// scheduler, not panic or mis-shift — SimConfig is routinely built via
/// struct literals.
#[test]
fn degenerate_grain_configs_are_normalized() {
    let memory = Arc::new(GlobalMemory::new(1 << 12));
    let cell = memory.alloc::<u64>(4);
    let recording = record_region(Arc::clone(&memory), |ctx| {
        for i in 0..4 {
            let v = ctx.load(&cell, i)?;
            ctx.store(&cell, i, v + 1)?;
        }
        Ok(())
    });
    for grain_log2 in [0u32, 1, 6] {
        let result = simulate(
            &recording,
            SimConfig {
                commit_log: CommitLogConfig {
                    grain_log2,
                    ..CommitLogConfig::default()
                },
                ..SimConfig::with_cpus(2)
            },
        );
        assert!(result.parallel_cycles > 0);
    }
}

/// A chain as wide as the machine, entirely in flight before the root's
/// first publish: chunk `k` runs on CPU `k`, reads one word of the line
/// of word 0 and
/// writes a word of its own elsewhere; the root writes word 0, which only
/// the last chunk reads.  Replayed on 65 and 130 CPUs, that publish
/// passes readers on both sides of a lane boundary precisely and dooms
/// the one on the last CPU.  The scheduler checks every verdict against
/// the log scan (`mod reference`); this test checks that the readers past
/// CPU 64 were reached.
#[test]
fn readers_past_sixty_four_cpus_agree_with_the_log_scan() {
    fn run<C: TlsContext>(
        ctx: &mut C,
        cells: mutls_membuf::GPtr<u64>,
        i: usize,
        chunks: usize,
    ) -> SpecResult<()> {
        let cont = task(move |ctx: &mut C| run(ctx, cells, i + 1, chunks));
        let next = if i + 1 < chunks {
            Some(ctx.fork(0, cont)?)
        } else {
            None
        };
        let read = if i + 1 == chunks { 0 } else { 1 + i % 6 };
        let v = ctx.load(&cells, read)?;
        // Registered as a reader now, long before the root publishes.
        ctx.check_point()?;
        ctx.work(400_000)?;
        ctx.store(&cells, if i == 0 { 0 } else { 8 + i }, v + 1)?;
        next.map_or(Ok(()), |handle| ctx.join(handle).map(drop))
    }
    for cpus in [65, 130] {
        let memory = Arc::new(GlobalMemory::new(1 << 12));
        let cells = memory.alloc::<u64>(8 + cpus + 1);
        let recording = record_region(Arc::clone(&memory), move |ctx| run(ctx, cells, 0, cpus + 1));
        let config = || SimConfig {
            trace: true,
            ..SimConfig::with_cpus(cpus)
        };
        let result = simulate(&recording, config());
        assert_eq!(
            ser(&result.report),
            ser(&simulate(&recording, config()).report)
        );
        let ranks = |kind: fn(&EventKind) -> bool| -> Vec<u32> {
            let events = result.events.iter().filter(|e| kind(&e.kind));
            events.map(|e| e.rank).collect()
        };
        let conflicts = ranks(|kind| {
            matches!(
                kind,
                EventKind::Rollback {
                    reason: mutls_trace::RollbackCause::Conflict,
                    ..
                }
            )
        });
        assert_eq!(conflicts, [cpus as u32]);
        let passes = ranks(|kind| {
            matches!(
                kind,
                EventKind::ValidateEnd {
                    outcome: ValidateOutcome::PrecisePass
                }
            )
        });
        assert_eq!(passes, (1..cpus as u32).collect::<Vec<_>>());
    }
}
