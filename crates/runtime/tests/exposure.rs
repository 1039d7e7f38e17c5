//! The non-speculative thread publishes a store to the commit log only
//! while a speculative read set is exposed.  These tests drive the four
//! interleavings that decide whether that elision is sound, through the
//! public `Runtime`/`SpecContext` surface, each forced with a channel,
//! barrier or a spin on the exposure count — never a sleep.

use std::sync::mpsc;
use std::sync::{Arc, Barrier};

use mutls_membuf::BufferConfig;
use mutls_runtime::{
    task, JoinOutcome, RollbackReason, Runtime, RuntimeConfig, SpecContext, SpecFailure, TlsContext,
};

fn runtime(cpus: usize) -> Runtime {
    Runtime::new(RuntimeConfig::with_cpus(cpus).memory_bytes(1 << 16))
}

/// Spin until no speculative read set is exposed.
fn await_quiescence(rt: &Runtime) {
    while rt.manager().exposed_speculations() != 0 {
        std::thread::yield_now();
    }
}

#[test]
fn quiescent_stores_skip_the_log_and_a_later_child_still_sees_them() {
    let rt = runtime(1);
    let cells = rt.alloc::<u64>(64);
    let sum = rt.alloc::<u64>(1);
    let (outcome, report) = rt.run(|ctx| {
        for i in 0..64 {
            ctx.store(&cells, i, i as u64 + 1)?;
        }
        // Nobody could hold a snapshot: none of the 64 stores was stamped.
        assert_eq!(rt.manager().commit_log().commits(), 0);
        let child = task(move |ctx: &mut SpecContext| {
            let mut acc = 0;
            for i in 0..64 {
                acc += ctx.load(&cells, i)?;
            }
            ctx.store(&sum, 0, acc)
        });
        let handle = ctx.fork(0, child)?;
        ctx.join(handle)
    });
    assert_eq!(outcome, JoinOutcome::Committed, "the child validates clean");
    assert_eq!(rt.memory().get(&sum, 0), 64 * 65 / 2);
    assert_eq!(report.rolled_back_threads, 0);
    assert_eq!(report.commit_log.commits, 1, "only the child's write-set");
}

#[test]
fn a_store_under_a_completed_but_unjoined_child_still_conflicts() {
    let rt = runtime(1);
    let cell = rt.alloc::<u64>(1);
    let copy = rt.alloc::<u64>(1);
    rt.memory().set(&cell, 0, 7);
    let (read_tx, read_rx) = mpsc::channel();
    let (outcome, report) = rt.run(|ctx| {
        let child = task(move |ctx: &mut SpecContext| {
            let seen = ctx.load(&cell, 0)?;
            ctx.store(&copy, 0, seen)?;
            if ctx.is_speculative() {
                read_tx.send(seen).expect("rank 0 is waiting");
            }
            Ok(()) // Completed, then parked until the join.
        });
        let handle = ctx.fork(0, child)?;
        assert_eq!(read_rx.recv().expect("the child speculated"), 7);
        // The child's read set is exposed whether or not it deposited
        // yet, so this store must be stamped.
        ctx.store(&cell, 0, 8)?;
        ctx.join(handle)
    });
    assert_eq!(outcome, JoinOutcome::RolledBack(SpecFailure::ReadConflict));
    assert_eq!(report.rollbacks_with(RollbackReason::Conflict), 1);
    assert_eq!(rt.memory().get(&copy, 0), 8, "sequential-equal state");
    assert!(report.commit_log.commits >= 1, "the store was published");
}

#[test]
fn stores_under_an_overflowed_child_are_not_recorded() {
    let rt = Runtime::new(
        RuntimeConfig::with_cpus(1)
            .memory_bytes(1 << 16)
            .buffer(BufferConfig::tiny()),
    );
    let data = rt.alloc::<u64>(256);
    let (outcome, report) = rt.run(|ctx| {
        // Reads then writes far more words than the tiny buffer holds.
        let child = task(move |ctx: &mut SpecContext| {
            for i in 0..128 {
                let v = ctx.load(&data, i)?;
                ctx.store(&data, 128 + i, v + 1)?;
            }
            Ok(())
        });
        let handle = ctx.fork(0, child)?;
        // Its failed deposit retires the exposure before anyone joins.
        await_quiescence(&rt);
        let before = rt.manager().commit_log().commits();
        for i in 0..128 {
            ctx.store(&data, i, i as u64)?;
        }
        assert_eq!(
            rt.manager().commit_log().commits(),
            before,
            "a dead read set needs no stamps"
        );
        ctx.join(handle)
    });
    assert_eq!(
        outcome,
        JoinOutcome::RolledBack(SpecFailure::BufferOverflow)
    );
    assert_eq!(report.rollbacks_with(RollbackReason::Overflow), 1);
    for i in 0..128 {
        assert_eq!(rt.memory().get(&data, 128 + i), i as u64 + 1);
    }
}

#[test]
fn a_child_forked_across_a_racing_failed_deposit_never_validates_stale() {
    const ROUNDS: u64 = 300;
    let rt = Runtime::new(
        RuntimeConfig::with_cpus(2)
            .memory_bytes(1 << 16)
            .buffer(BufferConfig::tiny()),
    );
    let cell = rt.alloc::<u64>(1);
    let copy = rt.alloc::<u64>(1);
    let scratch = rt.alloc::<u64>(64);
    let start = Arc::new(Barrier::new(2));
    let (read_tx, read_rx) = mpsc::channel();
    for round in 0..ROUNDS {
        let (outcome, _) = rt.run(|ctx| {
            // `doomed` overflows its tiny buffer: its Failed deposit drops
            // the exposure count while rank 0 is mid store loop.
            let gate = Arc::clone(&start);
            let doomed = task(move |ctx: &mut SpecContext| {
                if ctx.is_speculative() {
                    gate.wait();
                }
                for i in 0..64 {
                    ctx.store(&scratch, i, round)?;
                }
                Ok(())
            });
            let read_tx = read_tx.clone();
            let reader = task(move |ctx: &mut SpecContext| {
                let seen = ctx.load(&cell, 0)?;
                ctx.store(&copy, 0, seen)?;
                if ctx.is_speculative() {
                    read_tx.send(seen).expect("rank 0 is waiting");
                }
                Ok(())
            });

            let doomed_handle = ctx.fork(0, doomed)?;
            assert!(doomed_handle.speculated());
            start.wait();
            for k in 0..64 {
                ctx.store(&cell, 0, round * 1000 + k)?;
            }
            // Re-fork on the other CPU: whatever the count did meanwhile,
            // the new child must see the loop's last value…
            let reader_handle = ctx.fork(1, reader)?;
            assert!(reader_handle.speculated());
            let seen = read_rx.recv().expect("the reader speculated");
            assert_eq!(seen, round * 1000 + 63, "reads happen-after dispatch");
            // …and a store after its read must not go unnoticed.
            ctx.store(&cell, 0, round * 1000 + 999)?;
            let outcome = ctx.join(reader_handle)?;
            assert_eq!(
                ctx.join(doomed_handle)?,
                JoinOutcome::RolledBack(SpecFailure::BufferOverflow)
            );
            Ok(outcome)
        });
        assert_eq!(outcome, JoinOutcome::RolledBack(SpecFailure::ReadConflict));
        assert_eq!(
            rt.memory().get(&copy, 0),
            round * 1000 + 999,
            "round {round}"
        );
    }
}
