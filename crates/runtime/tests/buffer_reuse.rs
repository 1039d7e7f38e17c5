//! A virtual CPU's buffers outlive a fork: they are built at the CPU's
//! first speculation, carried by each task's outcome and handed back —
//! cleared — by whoever consumes or discards it.  These tests drive,
//! through the public `Runtime`/`SpecContext` surface, the ways a recycled
//! buffer could go wrong.  Interleavings that decide an assertion are
//! forced with a channel or a barrier, never a sleep; where a discard path
//! is left to the race (a deposit against its reaper), the assertions hold
//! on both sides of it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};

use mutls_membuf::BufferConfig;
use mutls_runtime::{
    task, JoinOutcome, Runtime, RuntimeConfig, SpecContext, SpecFailure, TlsContext,
};

fn runtime(cpus: usize) -> Runtime {
    Runtime::new(RuntimeConfig::with_cpus(cpus).memory_bytes(1 << 16))
}

#[test]
fn a_recycled_read_set_never_serves_the_previous_tasks_value() {
    let rt = runtime(1);
    let cell = rt.alloc::<u64>(1);
    let seen = rt.alloc::<u64>(2);
    rt.memory().set(&cell, 0, 1);
    rt.run(|ctx| {
        for round in 0..2 {
            let reader = task(move |ctx: &mut SpecContext| {
                let value = ctx.load(&cell, 0)?;
                ctx.store(&seen, round, value)
            });
            let handle = ctx.fork(0, reader)?;
            assert!(handle.speculated(), "round {round}");
            assert_eq!(ctx.join(handle)?, JoinOutcome::Committed);
            // Nobody is exposed, so this store is not stamped: if the next
            // task on the CPU found the old entry in its read set it would
            // return 1 and validation would have nothing to catch it with.
            let stamped = rt.manager().commit_log().commits();
            ctx.store(&cell, 0, 2)?;
            assert_eq!(rt.manager().commit_log().commits(), stamped);
        }
        Ok(())
    });
    assert_eq!(rt.memory().get(&seen, 0), 1);
    assert_eq!(rt.memory().get(&seen, 1), 2, "read through to memory");
    assert_eq!(rt.manager().buffers_created(), 1, "both tasks shared one");
}

#[test]
fn a_task_after_an_overflow_rollback_starts_with_empty_sets() {
    let rt = Runtime::new(
        RuntimeConfig::with_cpus(1)
            .memory_bytes(1 << 16)
            .buffer(BufferConfig::tiny()),
    );
    let data = rt.alloc::<u64>(256);
    for i in 0..256 {
        rt.memory().set(&data, i, i as u64);
    }
    let (first, second) = rt
        .run(|ctx| {
            // Fills every slot and the overflow area of both sets.
            let hog = task(move |ctx: &mut SpecContext| {
                for i in 0..64 {
                    let value = ctx.load(&data, i)?;
                    ctx.store(&data, 64 + i, value + 1)?;
                }
                Ok(())
            });
            let handle = ctx.fork(0, hog)?;
            let first = ctx.join(handle)?;
            // Exactly as many words as each set has slots, and no more:
            // one entry left behind would push it over.
            let modest = task(move |ctx: &mut SpecContext| {
                for i in 0..16 {
                    let value = ctx.load(&data, 128 + i)?;
                    ctx.store(&data, 192 + i, value + 7)?;
                }
                Ok(())
            });
            let handle = ctx.fork(1, modest)?;
            assert!(handle.speculated());
            Ok((first, ctx.join(handle)?))
        })
        .0;
    assert_eq!(first, JoinOutcome::RolledBack(SpecFailure::BufferOverflow));
    assert_eq!(second, JoinOutcome::Committed);
    for i in 0..64 {
        assert_eq!(rt.memory().get(&data, 64 + i), i as u64 + 1);
    }
    for i in 0..16 {
        assert_eq!(rt.memory().get(&data, 192 + i), 128 + i as u64 + 7);
    }
    assert_eq!(rt.manager().buffers_created(), 1);
}

#[test]
fn first_touch_reads_register_the_rank_of_the_cpu_running_them() {
    let rt = runtime(2);
    let cell = rt.alloc::<u64>(1);
    let addr = cell.addr_of(0);
    let (rank_tx, rank_rx) = mpsc::channel();
    let reader_gate = Arc::new(Barrier::new(2));
    let blocker_gate = Arc::new(Barrier::new(2));
    let gate = Arc::clone(&reader_gate);
    // Reads the cell, reports where it ran and parks with the read live.
    let reader = task(move |ctx: &mut SpecContext| {
        ctx.load(&cell, 0)?;
        if ctx.is_speculative() {
            rank_tx.send(ctx.rank()).expect("rank 0 is waiting");
            gate.wait();
        }
        Ok(())
    });
    let gate = Arc::clone(&blocker_gate);
    let blocker = task(move |ctx: &mut SpecContext| {
        if ctx.is_speculative() {
            gate.wait();
        }
        Ok(())
    });
    rt.run(|ctx| {
        // Alone the reader runs on CPU 1; behind a blocker, on CPU 2 — in
        // buffers CPU 2 never used, then in ones it did.
        for (occupied, expected) in [(false, 1), (true, 2), (false, 1), (true, 2)] {
            let blocked = occupied
                .then(|| ctx.fork(0, Arc::clone(&blocker)))
                .transpose()?;
            let handle = ctx.fork(1, Arc::clone(&reader))?;
            let ran_on = rank_rx.recv().expect("the reader speculated");
            let readers = rt.manager().commit_log().registered_readers(addr);
            // Unpark everyone before asserting: a panic under a parked
            // worker would hang the runtime's drop instead of reporting.
            reader_gate.wait();
            if occupied {
                blocker_gate.wait();
            }
            assert_eq!(ran_on, expected);
            assert_eq!(readers.ranks().collect::<Vec<_>>(), vec![expected]);
            assert_eq!(ctx.join(handle)?, JoinOutcome::Committed);
            if let Some(blocked) = blocked {
                assert_eq!(ctx.join(blocked)?, JoinOutcome::Committed);
            }
        }
        Ok(())
    });
    assert_eq!(rt.manager().buffers_created(), 2);
}

/// Every way an outcome leaves the system returns its buffers: 200 forks
/// over two CPUs, through the join, `drain_subtree`, `reap_subtree`, an
/// orphaned deposit and `adopt_subtree` of a completed, a failed and a
/// possibly still running grandchild, build two buffer sets in all.
#[test]
fn every_discard_path_hands_the_buffers_back() {
    const ROUNDS: u64 = 25;
    let rt = runtime(2);
    let out = rt.alloc::<u64>(4);
    let scratch = rt.alloc::<u64>(8);
    // Forks by rank 0, and by its speculative children.
    let mut forks = 0;
    let nested_forks = Arc::new(AtomicU64::new(0));
    for round in 1..=ROUNDS {
        // Joined and committed.
        rt.run(|ctx| {
            let handle = ctx.fork(
                0,
                task(move |ctx: &mut SpecContext| ctx.store(&out, 0, round)),
            )?;
            forks += u64::from(handle.speculated());
            assert_eq!(ctx.join(handle)?, JoinOutcome::Committed);
            Ok(())
        });

        // Never joined: drained when the region ends, its store discarded.
        rt.run(|ctx| {
            let handle = ctx.fork(
                1,
                task(move |ctx: &mut SpecContext| ctx.store(&out, 1, round)),
            )?;
            forks += u64::from(handle.speculated());
            Ok(())
        });

        // Joined out of order: joining `older` pops `younger` off the
        // children stack and reaps it.  On even rounds `younger` is parked
        // until after the reap, so it deposits as an orphan and its own
        // worker cleans up; on odd rounds the deposit races the reaper.
        let park = round % 2 == 0;
        let gate = Arc::new(Barrier::new(2));
        let held = Arc::clone(&gate);
        let parked = task(move |ctx: &mut SpecContext| {
            if park && ctx.is_speculative() {
                held.wait();
            }
            ctx.store(&out, 2, round)
        });
        rt.run(|ctx| {
            let older = ctx.fork(
                2,
                task(move |ctx: &mut SpecContext| ctx.store(&scratch, 0, round)),
            )?;
            let younger = ctx.fork(3, Arc::clone(&parked))?;
            forks += u64::from(older.speculated()) + u64::from(younger.speculated());
            let first = ctx.join(older)?;
            if park {
                gate.wait();
            }
            assert_eq!(first, JoinOutcome::Committed);
            assert_eq!(
                ctx.join(younger)?,
                JoinOutcome::RolledBack(SpecFailure::NoSync),
                "already discarded: re-executed inline"
            );
            Ok(())
        });

        // A child that commits with a grandchild still unjoined: the
        // joiner adopts the grandchild — committing it when it completed,
        // discarding it when it failed (an unregistered address) — or
        // reaps it when it has not deposited yet.  The grandchild's only
        // store goes to a cell nothing asserts on, so every arm is
        // sequential-equal.
        for failing in [false, true] {
            let done = Arc::new(Barrier::new(2));
            let finished = Arc::clone(&done);
            let grandchild = task(move |ctx: &mut SpecContext| {
                if failing {
                    ctx.load_word(1 << 40)?;
                }
                ctx.store(&scratch, 1, round)?;
                if ctx.is_speculative() {
                    finished.wait();
                }
                Ok(())
            });
            let nested = Arc::clone(&nested_forks);
            let child = task(move |ctx: &mut SpecContext| {
                let handle = ctx.fork(5, Arc::clone(&grandchild))?;
                if ctx.is_speculative() && handle.speculated() {
                    nested.fetch_add(1, Ordering::Relaxed);
                    if !failing {
                        done.wait();
                    }
                }
                ctx.store(&out, 3, round)
            });
            rt.run(|ctx| {
                let handle = ctx.fork(4, child)?;
                forks += u64::from(handle.speculated());
                assert_eq!(ctx.join(handle)?, JoinOutcome::Committed);
                Ok(())
            });
        }

        let mem = rt.memory();
        assert_eq!(mem.get(&out, 0), round);
        assert_eq!(mem.get(&out, 1), 0, "an unjoined continuation never ran");
        assert_eq!(mem.get(&out, 2), round);
        assert_eq!(mem.get(&out, 3), round);
    }
    // Orphans of the last run may still be cleaning up.
    while rt.manager().active_speculations() != 0 {
        std::thread::yield_now();
    }
    let forks = forks + nested_forks.load(Ordering::Relaxed);
    assert_eq!(forks, 8 * ROUNDS, "every fork found an idle CPU");
    assert_eq!(rt.manager().exposed_speculations(), 0);
    assert_eq!(rt.manager().buffers_created(), 2, "one per CPU, ever");
}
