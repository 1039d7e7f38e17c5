//! The manager's unit tests: each protocol driven by hand, no worker
//! threads.

use super::*;
use mutls_metrics::CounterId;

fn mgr(cpus: usize) -> Arc<ThreadManager> {
    ThreadManager::new(RuntimeConfig::with_cpus(cpus).memory_bytes(1 << 16))
}

/// A one-CPU manager whose CPU (rank 1) is acquired: the join protocol
/// only consumes outcomes of an acquired CPU.
fn mgr_with_child() -> Arc<ThreadManager> {
    let m = mgr(1);
    assert_eq!(m.try_acquire_cpu(0, ForkModel::Mixed), Ok(1));
    m
}

/// A logical predecessor commits `addr`, already in memory, without the
/// doom a real commit issues (the publish walk with every reader spared):
/// for a test whose verdict is validation's alone.  A test that wants the
/// doom too calls `ThreadManager::publish`.
fn commit_dooming_nobody(m: &ThreadManager, addr: Addr) {
    m.commit_log().publish(&mut vec![addr], false, |_| true);
}

#[test]
fn acquire_respects_cpu_count() {
    let m = mgr(2);
    let a = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
    let b = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
    assert_ne!(a, b);
    assert!(m.try_acquire_cpu(0, ForkModel::Mixed).is_err());
    m.release_cpu(a, 0);
    assert!(m.try_acquire_cpu(0, ForkModel::Mixed).is_ok());
}

/// What `protocol::sync_pays` prices a promotion from: the cold estimates
/// until something is measured, then the mean cost per entry of the
/// promotions that buffered anything, and the fastest hand-off, which a
/// slower one (a first wake-up) never raises.
#[test]
fn a_promotion_is_priced_from_the_runtimes_own_measurements() {
    let m = mgr(1);
    assert_eq!(m.sync_costs(), (COLD_HANDOFF_NS, COLD_SYNC_ENTRY_NS));
    // 650 entries measured at 14 µs: 21 ns each from now on.
    m.record_sync(14_000, 650);
    m.record_sync(3_000, 0);
    assert_eq!(m.sync_costs(), (COLD_HANDOFF_NS, 21));
    m.fastest_handoff_ns.fetch_min(1_000, Ordering::Relaxed);
    m.fastest_handoff_ns.fetch_min(90_000, Ordering::Relaxed);
    assert_eq!(m.sync_costs(), (1_000, 21));
}

#[test]
fn release_restores_most_speculative_to_joiner() {
    let m = mgr(2);
    let a = m.try_acquire_cpu(0, ForkModel::InOrder).unwrap();
    m.release_cpu(a, 0);
    // After the join the non-speculative thread can speculate again.
    assert!(m.try_acquire_cpu(0, ForkModel::InOrder).is_ok());
}

#[test]
fn rollback_injection_extremes() {
    let m = ThreadManager::new(
        RuntimeConfig::with_cpus(1)
            .memory_bytes(1 << 12)
            .rollback_probability(0.0),
    );
    assert!(!m.draw_injected_rollback());
    let m = ThreadManager::new(
        RuntimeConfig::with_cpus(1)
            .memory_bytes(1 << 12)
            .rollback_probability(1.0),
    );
    assert!(m.draw_injected_rollback());
}

#[test]
fn injection_requires_the_sensitivity_mode() {
    // The sensitivity mode is a probability above zero and nothing
    // else: at the default real conflicts are the only rollback
    // source, however often a join asks; above it a join draws,
    // whether a builder or a field assignment set it.
    let mut config = RuntimeConfig::with_cpus(1).memory_bytes(1 << 12);
    assert_eq!(config.rollback_probability, 0.0);
    let m = ThreadManager::new(config);
    assert!((0..1000).all(|_| !m.draw_injected_rollback()));
    config.rollback_probability = 0.5;
    let m = ThreadManager::new(config);
    let hits = (0..1000).filter(|_| m.draw_injected_rollback()).count();
    assert!((300..700).contains(&hits), "{hits} of 1000 at p = 0.5");
}

/// A completed outcome wrapping `buffer`, ready for the join protocol.
fn completed(buffer: GlobalBuffer) -> SpecOutcome {
    SpecOutcome {
        status: TaskStatus::Completed,
        buffer,
        children: Vec::new(),
        stats: ThreadStats::new(),
        finished_at: Instant::now(),
        settled: false,
        prices: Vec::new(),
    }
}

/// What `rank`'s shard of the registry has counted of `id`.
fn counted(m: &ThreadManager, rank: Rank, id: CounterId) -> u64 {
    m.metrics().registry().counter_on(rank, id)
}

/// A buffer for a hand-driven thread (rank 0 stands in for "some
/// writer" in the commit tests, so these bypass the per-CPU slots).
fn fresh_buffer(m: &ThreadManager, rank: Rank) -> GlobalBuffer {
    GlobalBuffer::for_reader(m.config().buffer, rank)
}

/// An empty outcome of the acquired CPU `rank`, stopped with `status`.
fn stopped(m: &ThreadManager, rank: Rank, status: TaskStatus) -> SpecOutcome {
    SpecOutcome {
        status,
        ..completed(m.take_buffer(rank))
    }
}

#[test]
fn exposure_is_raised_at_acquire_and_retired_at_a_failed_deposit_or_release() {
    let m = mgr(3);
    assert_eq!(m.exposed_speculations(), 0);
    let failed = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
    let done = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
    let parked = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
    assert_eq!(m.exposed_speculations(), 3, "acquire exposes");

    // A failed outcome is never validated: dead at its deposit.
    let overflow = TaskStatus::Failed(SpecFailure::BufferOverflow);
    assert!(m.deposit_outcome(failed, stopped(&m, failed, overflow)));
    assert_eq!(m.exposed_speculations(), 2, "a Failed deposit retires");

    // Completed and Barrier outcomes are validated when consumed.
    assert!(m.deposit_outcome(done, stopped(&m, done, TaskStatus::Completed)));
    assert!(m.deposit_outcome(parked, stopped(&m, parked, TaskStatus::Barrier)));
    assert_eq!(
        m.exposed_speculations(),
        2,
        "consumable outcomes stay exposed"
    );

    // Releasing the already-retired slot must not retire a second time.
    m.release_cpu(failed, 0);
    assert_eq!(m.exposed_speculations(), 2, "double retire is a no-op");
    m.release_cpu(done, 0);
    m.release_cpu(parked, 0);
    assert_eq!(m.exposed_speculations(), 0, "release retires");
    assert_eq!(m.active_speculations(), 0);

    // A re-acquired slot is exposed afresh.
    let again = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
    assert_eq!(m.exposed_speculations(), 1);
    m.release_cpu(again, 0);
    m.reset_run();
}

/// `rank`'s status word.
fn word(m: &ThreadManager, rank: Rank) -> u8 {
    m.slots[rank - 1].status.load(Ordering::Acquire)
}

#[test]
fn every_discard_path_ends_with_no_exposure() {
    let cascaded = TaskStatus::Failed(SpecFailure::Cascaded);
    for status in [TaskStatus::Completed, TaskStatus::Barrier, cascaded] {
        let m = mgr(2);

        // Orphaned before it deposits: the worker cleans up itself.
        let orphan = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
        m.reap_subtree(orphan);
        assert_eq!(m.exposed_speculations(), 1, "still running");
        assert!(!m.deposit_outcome(orphan, stopped(&m, orphan, status)));
        assert_eq!(m.exposed_speculations(), 0, "orphaned deposit, {status:?}");
        assert_eq!(word(&m, orphan), 0, "an orphaned deposit");

        // Reaped after it deposited, with a child of its own.
        let parent = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
        let child = m.try_acquire_cpu(parent, ForkModel::Mixed).unwrap();
        assert!(m.deposit_outcome(child, stopped(&m, child, status)));
        let mut outcome = stopped(&m, parent, status);
        outcome.children.push(child);
        assert!(m.deposit_outcome(parent, outcome));
        m.reap_subtree(parent);
        assert_eq!(m.exposed_speculations(), 0, "reap_subtree, {status:?}");
        assert_eq!((word(&m, parent), word(&m, child)), (0, 0), "reap");

        // Drained at the end of a region.
        let unjoined = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
        assert!(m.deposit_outcome(unjoined, stopped(&m, unjoined, status)));
        m.drain_subtree(unjoined);
        assert_eq!(m.exposed_speculations(), 0, "drain_subtree, {status:?}");
        assert_eq!(word(&m, unjoined), 0, "drain_subtree");

        assert_eq!(m.active_speculations(), 0);
        // Each path above handed the buffer back before releasing
        // the CPU, so no `stopped` ever had to build a second set.
        assert_eq!(m.buffers_created(), 2, "one per CPU, {status:?}");
        m.reset_run();
    }
}

#[test]
fn buffers_are_built_at_first_use_and_come_back_clean() {
    let m = ThreadManager::new(
        RuntimeConfig::with_cpus(2)
            .memory_bytes(1 << 16)
            .buffer(mutls_membuf::BufferConfig::tiny()),
    );
    assert_eq!(m.buffers_created(), 0, "not before a CPU speculates");
    let mem = Arc::clone(m.memory());
    let data = mem.alloc::<u64>(64);
    let mut dirty = m.take_buffer(2);
    // More words than the map's 32 slots.
    for i in 0..40 {
        let addr = data.addr_of(i);
        let _ = dirty.load_logged(&*mem, Some(m.commit_log()), addr, 8);
        let _ = dirty.store(addr, 1, 8);
    }
    assert!(dirty.overflow_pending() && !slots::is_clean(&dirty));
    m.return_buffer(2, dirty);
    let again = m.take_buffer(2);
    assert!(slots::is_clean(&again));
    assert_eq!(again.reader(), 2, "still bound to its CPU");
    assert_eq!(m.buffers_created(), 1);
}

#[test]
fn validate_and_commit_detects_a_real_predecessor_write() {
    let m = mgr_with_child();
    let mem = Arc::clone(m.memory());
    let cell = mem.alloc::<u64>(1);
    mem.set(&cell, 0, 7);

    // A speculative child reads the cell…
    let mut buffer = fresh_buffer(&m, 1);
    let value = buffer
        .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
        .unwrap();
    assert_eq!(value, 7);

    // …then a logical predecessor commits a *different value* to it:
    // value prediction cannot save this join.
    mem.set(&cell, 0, 8);
    commit_dooming_nobody(&m, cell.addr_of(0));

    let mut outcome = completed(buffer);
    assert_eq!(
        m.validate_and_commit(1, &mut outcome, None),
        Err(SpecFailure::ReadConflict)
    );
    assert_eq!(counted(&m, 1, CounterId::Retries), 0);
}

#[test]
fn validate_and_commit_publishes_writes_into_the_log() {
    let m = mgr_with_child();
    let mem = Arc::clone(m.memory());
    let cell = mem.alloc::<u64>(1);

    let mut buffer = fresh_buffer(&m, 1);
    buffer.store(cell.addr_of(0), 42, 8).unwrap();
    let mut outcome = completed(buffer);
    let epoch_before = m.commit_log().epoch();
    assert_eq!(
        m.validate_and_commit(1, &mut outcome, None),
        Ok(CommitKind::Committed)
    );
    assert_eq!(mem.get(&cell, 0), 42);
    // The committed address is now stamped: a thread that read it
    // before this commit will fail validation.
    assert!(m.commit_log().written_after(cell.addr_of(0), epoch_before));
}

#[test]
fn value_predict_retry_commits_without_reexecution() {
    let m = mgr_with_child();
    let mem = Arc::clone(m.memory());
    let cell = mem.alloc::<u64>(2);
    mem.set(&cell, 0, 7);

    let mut buffer = fresh_buffer(&m, 1);
    let _ = buffer
        .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
        .unwrap();
    buffer.store(cell.addr_of(1), 9, 8).unwrap();

    // A predecessor commits the *same* value (ABA / false sharing):
    // version validation conflicts, value prediction repairs it.
    mem.set(&cell, 0, 7);
    commit_dooming_nobody(&m, cell.addr_of(0));

    let mut outcome = completed(buffer);
    assert_eq!(
        m.validate_and_commit(1, &mut outcome, None),
        Ok(CommitKind::Retried)
    );
    assert_eq!(counted(&m, 1, CounterId::Retries), 1);
    assert_eq!(mem.get(&cell, 1), 9, "the retried write-set committed");
}

/// A child whose log conflict the value retry repairs, but whose read of
/// a word its speculative parent has since written is stale, rolls back as
/// a `Conflict`: what the ladder cannot repair is a conflict.
#[test]
fn a_retried_child_its_parent_overwrote_is_a_conflict() {
    use mutls_trace::{EventKind, ValidateOutcome};
    let config = RuntimeConfig::with_cpus(1).memory_bytes(1 << 16);
    let m = ThreadManager::new(config.trace_events());
    assert_eq!(m.try_acquire_cpu(0, ForkModel::Mixed), Ok(1));
    let mem = Arc::clone(m.memory());
    let cells = mem.alloc::<u64>(24);
    // Two words of different lines: X, and Y at 5.
    let (x, y) = (cells.addr_of(0), cells.addr_of(16));
    mem.set(&cells, 16, 5);

    // The child reads X's old value from memory, and Y.
    let mut buffer = fresh_buffer(&m, 1);
    for addr in [x, y] {
        let _ = buffer.load_logged(&*mem, Some(m.commit_log()), addr, 8);
    }
    // A value-identical commit to Y: a range-only conflict, repaired by
    // the retry.
    commit_dooming_nobody(&m, y);
    // The speculative parent has buffered a write to X.
    let mut parent = GlobalBuffer::new(m.config().buffer);
    parent.store(x, 1, 8).unwrap();

    let mut outcome = completed(buffer);
    assert_eq!(
        m.validate_and_commit(1, &mut outcome, Some(&mut parent)),
        Err(SpecFailure::ReadConflict)
    );
    let verdicts: Vec<_> = m
        .recorder()
        .drain_events()
        .into_iter()
        .filter_map(|event| match event.kind {
            EventKind::ValidateEnd { outcome } => Some(outcome),
            _ => None,
        })
        .collect();
    assert_eq!(verdicts, [ValidateOutcome::Conflict]);
    assert_eq!(parent.read_set_len(), 0, "nothing was absorbed");
}

/// A join that retries counts each precise pass once: the walk that
/// repairs the conflict is the walk that probed the ring.
#[test]
fn a_retried_join_counts_each_precise_pass_once() {
    let m = mgr_with_child();
    let mem = Arc::clone(m.memory());
    let cells = mem.alloc::<u64>(24);
    // A line-aligned word, its neighbour, and a word of the next line.
    let line = (0..8)
        .find(|&i| cells.addr_of(i).is_multiple_of(64))
        .unwrap();
    let (read, neighbour, other) = (line, line + 1, line + 8);

    let mut buffer = fresh_buffer(&m, 1);
    for i in [read, other] {
        let _ = buffer.load_logged(&*mem, Some(m.commit_log()), cells.addr_of(i), 8);
    }
    // A neighbour write: the ring passes `read` precisely.  A
    // value-identical write of `other`: touched but unchanged, a retry.
    commit_dooming_nobody(&m, cells.addr_of(neighbour));
    commit_dooming_nobody(&m, cells.addr_of(other));

    let mut outcome = completed(buffer);
    assert_eq!(
        m.validate_and_commit(1, &mut outcome, None),
        Ok(CommitKind::Retried)
    );
    assert_eq!(counted(&m, 1, CounterId::PrecisePasses), 1);
}

/// A retried join registers nothing again: validation decides there, and
/// the child's registrations die with its buffer.  Rank 70 is past the
/// registry's bitmask, so every registration it makes is a counted spill.
#[test]
fn a_retried_join_restores_no_registration() {
    const N: usize = 12;
    let m = mgr(70);
    for rank in 1..=70 {
        assert_eq!(m.try_acquire_cpu(0, ForkModel::Mixed), Ok(rank));
    }
    let mem = Arc::clone(m.memory());
    // One word per line: N ranges at the default grain.
    let cells = mem.alloc::<u64>(8 * N);
    let mut buffer = m.take_buffer(70);
    for i in 0..N {
        let addr = cells.addr_of(8 * i);
        let _ = buffer.load_logged(&*mem, Some(m.commit_log()), addr, 8);
    }
    let spills = m.commit_log().stats().reader_spills;
    assert_eq!(spills, N as u64);

    // A neighbour commits the very value the child read: a retry.
    commit_dooming_nobody(&m, cells.addr_of(0));
    let mut outcome = completed(buffer);
    let verdict = m.validate_and_commit(70, &mut outcome, None);
    assert_eq!(verdict, Ok(CommitKind::Retried));
    m.settle_child(70, 0, ForkModel::Mixed, outcome, verdict);
    m.release_cpu(70, 0);
    assert_eq!(m.commit_log().stats().reader_spills, spills);
    for i in 0..N {
        let readers = m.commit_log().registered_readers(cells.addr_of(8 * i));
        assert!(readers.is_empty(), "word {i}: {readers:?}");
    }
}

/// Every fate a thread can meet retires its reader registrations, once,
/// where its buffer is returned: after `settle_child` the child's rank is
/// registered on no range it read.  An absorb registers the parent on
/// exactly the reads it takes — none on a word the parent fully wrote — and
/// one that overflows on exactly those it took before it failed.
#[test]
fn every_fate_leaves_the_child_registered_on_nothing_it_read() {
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fate {
        Committed,
        Retried,
        Conflict,
        Injected,
        FailedDeposit,
        FailedPromotion,
        Reaped,
        Absorbed,
        AbsorbOverflowed,
    }
    use Fate::*;
    let fates = [
        Committed,
        Retried,
        Conflict,
        Injected,
        FailedDeposit,
        FailedPromotion,
        Reaped,
        Absorbed,
        AbsorbOverflowed,
    ];
    for fate in fates {
        let p = if fate == Injected { 1.0 } else { 0.0 };
        let config = RuntimeConfig::with_cpus(2).memory_bytes(1 << 16);
        let m = ThreadManager::new(config.rollback_probability(p));
        let mem = Arc::clone(m.memory());
        let registered =
            |rank: Rank, addr: Addr| m.commit_log().registered_readers(addr).contains(rank);
        // One word per line: a range each at the default grain.  The
        // parent, if any, forked the child.
        let cells = mem.alloc::<u64>(8 * 40);
        let word = |i: usize| cells.addr_of(8 * i);
        mem.set(&cells, 8 * 2, 7);
        let absorbing = matches!(fate, Absorbed | AbsorbOverflowed);
        let parent = absorbing.then(|| m.try_acquire_cpu(0, ForkModel::Mixed).unwrap());
        let child = m
            .try_acquire_cpu(parent.unwrap_or(0), ForkModel::Mixed)
            .unwrap();

        // The child reads its words and writes back the first: an RMW.
        let mut buffer = m.take_buffer(child);
        let words = if fate == AbsorbOverflowed { 40 } else { 3 };
        for i in 0..words {
            let _ = buffer.load_logged(&*mem, Some(m.commit_log()), word(i), 8);
        }
        buffer.store(word(0), 1, 8).unwrap();
        let read: Vec<Addr> = buffer.read_addresses().collect();
        assert_eq!(read.len(), words, "{fate:?}");
        assert!(read.iter().all(|&addr| registered(child, addr)));
        let mut outcome = completed(buffer);

        // A predecessor commits word 1: the value the child read, or a
        // new one.
        if matches!(fate, Conflict | FailedPromotion) {
            mem.set(&cells, 8, 5);
        }
        if matches!(fate, Retried | Conflict | FailedPromotion) {
            commit_dooming_nobody(&m, word(1));
        }
        // The speculative parent's buffer: word 2 fully written with the
        // value the child read, or one too full to take the child's reads.
        let mut parent_buffer = parent.map(|parent| match fate {
            Absorbed => {
                let mut buffer = m.take_buffer(parent);
                buffer.store(word(2), 7, 8).unwrap();
                buffer
            }
            _ => {
                let mut buffer =
                    GlobalBuffer::for_reader(mutls_membuf::BufferConfig::tiny(), parent);
                let fill = mem.alloc::<u64>(64);
                let full = (0..64).any(|i| buffer.store(fill.addr_of(i), 1, 8).is_err());
                assert!(full, "the parent's buffer filled up");
                buffer
            }
        });

        // The verdict, and the outcome still to settle (a reap settles it).
        let (verdict, unsettled) = match fate {
            Committed | Retried | Conflict | Injected | Absorbed | AbsorbOverflowed => {
                let verdict = m.validate_and_commit(child, &mut outcome, parent_buffer.as_mut());
                (verdict, Some(outcome))
            }
            FailedDeposit => {
                outcome.status = TaskStatus::Failed(SpecFailure::BufferOverflow);
                assert!(m.deposit_outcome(child, outcome));
                let mut outcome = m.wait_outcome_where(child, || false).unwrap();
                let verdict = m.validate_and_commit(child, &mut outcome, None);
                (verdict, Some(outcome))
            }
            FailedPromotion => {
                // The child's own validation fails; it is doomed and
                // unwinds, registrations and all, to its settled join.
                let failed = m.validate_and_commit(child, &mut outcome, None);
                let reason = failed.expect_err("the promotion's validation fails");
                assert!(read.iter().all(|&addr| registered(child, addr)));
                m.doom_hard(child);
                outcome.status = TaskStatus::Failed(reason);
                outcome.settled = true;
                assert!(m.deposit_outcome(child, outcome));
                (Err(reason), m.wait_outcome_where(child, || false))
            }
            Reaped => {
                assert!(m.deposit_outcome(child, outcome));
                m.reap_subtree(child);
                (Err(SpecFailure::Cascaded), None)
            }
        };
        let expected = match fate {
            Committed | Absorbed => Ok(CommitKind::Committed),
            Retried => Ok(CommitKind::Retried),
            Conflict | FailedPromotion => Err(SpecFailure::ReadConflict),
            Injected => Err(SpecFailure::Injected),
            FailedDeposit | AbsorbOverflowed => Err(SpecFailure::BufferOverflow),
            Reaped => Err(SpecFailure::Cascaded),
        };
        assert_eq!(verdict, expected, "{fate:?}");
        if let Some(outcome) = unsettled {
            // The commit arm publishes with the child registered, and the
            // child is not doomed by its own write.
            assert!(!m.doom_requested(child), "{fate:?}: self-doomed");
            m.settle_child(child, 0, ForkModel::Mixed, outcome, verdict);
            m.release_cpu(child, parent.unwrap_or(0));
        }
        for &addr in &read {
            assert!(!registered(child, addr), "{fate:?}: child on {addr:#x}");
        }
        if let (Some(parent), Some(buffer)) = (parent, parent_buffer) {
            let taken: Vec<Addr> = buffer.read_addresses().collect();
            if fate == Absorbed {
                assert_eq!(taken.len(), 2, "word 2 took no read");
                assert!(!taken.contains(&word(2)));
            } else {
                assert!(taken.len() < read.len(), "the absorb overflowed");
            }
            for &addr in &read {
                let held = registered(parent, addr);
                assert_eq!(held, taken.contains(&addr), "{fate:?}: parent on {addr:#x}");
            }
        }
    }
}

#[test]
fn commit_dooms_exactly_the_registered_readers() {
    let m = mgr(3);
    let mem = Arc::clone(m.memory());
    let cell = mem.alloc::<u64>(64);
    // Occupy two CPUs so their slots count as running.
    let reader = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
    let bystander = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();

    // `reader` reads word 0 (registering); `bystander` reads word 32 —
    // far enough to be a different range even at line grain.
    let mut reader_buf = fresh_buffer(&m, reader);
    let _ = reader_buf
        .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
        .unwrap();
    let mut bystander_buf = fresh_buffer(&m, bystander);
    let _ = bystander_buf
        .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(32), 8)
        .unwrap();

    // A third thread commits a write covering word 0.
    let mut writer = fresh_buffer(&m, 0);
    writer.store(cell.addr_of(0), 5, 8).unwrap();
    let mut outcome = completed(writer);
    assert_eq!(
        m.validate_and_commit(0, &mut outcome, None),
        Ok(CommitKind::Committed)
    );
    assert_eq!(counted(&m, 0, CounterId::TargetedDooms), 1);
    assert!(m.doom_requested(reader), "stale reader doomed");
    assert!(!m.doom_requested(bystander), "bystander untouched");

    // The doom set was a subset of the running threads by
    // construction; releasing clears the flag for reuse.
    m.release_cpu(reader, 0);
    let again = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
    assert!(!m.doom_requested(again), "doom flag cleared on acquire");

    // Every request bit set when the CPU is released, and again on the
    // idle word, as a doom that raced the release leaves it: the next
    // claim starts from exactly a running, exposed word.
    let stale = || {
        m.slots[again - 1]
            .status
            .fetch_or(REQUESTS, Ordering::Release)
    };
    stale();
    m.release_cpu(again, 0);
    stale();
    let clean = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
    assert_eq!(clean, again, "the first idle CPU");
    assert_eq!(word(&m, clean), RUNNING | EXPOSED, "stale bits on claim");
}

#[test]
fn commit_dooms_a_reader_past_the_registry_bitmask_and_spares_an_older_one() {
    // 70 CPUs acquired by hand, in rank order: rank r holds logical
    // stamp r, and rank 70 is past the registry's 63-rank bitmask.
    let m = mgr(70);
    let mem = Arc::clone(m.memory());
    let cell = mem.alloc::<u64>(1);
    let addr = cell.addr_of(0);
    let ranks: Vec<Rank> = (0..70)
        .map(|_| m.try_acquire_cpu(0, ForkModel::Mixed).unwrap())
        .collect();
    assert_eq!(ranks, (1..=70).collect::<Vec<Rank>>());
    let read_as = |rank: Rank| {
        let mut buffer = fresh_buffer(&m, rank);
        let _ = buffer
            .load_logged(&*mem, Some(m.commit_log()), addr, 8)
            .unwrap();
    };
    read_as(2);
    read_as(70);
    assert_eq!(m.commit_log().stats().reader_spills, 1);

    // Rank 0 — logically earliest — commits the word: both readers
    // are stale, the spilled one included.
    let commit_as = |rank: Rank| {
        let mut writer = fresh_buffer(&m, rank);
        writer.store(addr, 5, 8).unwrap();
        let mut outcome = completed(writer);
        assert_eq!(
            m.validate_and_commit(rank, &mut outcome, None),
            Ok(CommitKind::Committed)
        );
        counted(&m, rank, CounterId::TargetedDooms)
    };
    assert_eq!(commit_as(0), 2);
    assert!(m.doom_requested(2), "the bitmask reader is doomed");
    assert!(m.doom_requested(70), "the spilled reader is doomed");

    // The logical-order filter reaches a spilled rank too: CPU 5 is
    // recycled, so its task (stamp 71) is younger than rank 70's, and
    // its commit finds rank 70's new registration and spares it, spill
    // set entry and all, for rank 0's next store to doom.
    m.release_cpu(5, 0);
    assert_eq!(m.try_acquire_cpu(0, ForkModel::Mixed), Ok(5));
    m.clear_doom(70);
    read_as(70);
    assert_eq!(commit_as(5), 0);
    assert!(!m.doom_requested(70), "a logically older reader is spared");
    let kept = m.commit_log().registered_readers(addr);
    assert_eq!(kept.ranks().collect::<Vec<_>>(), vec![70]);
    assert_eq!(m.commit_log().stats().reader_spills, 2);
    assert_eq!(m.publish(&mut vec![addr], 0, false), 1);
    assert!(m.doom_requested(70), "the spared reader stays doomable");
    assert!(m.commit_log().registered_readers(addr).is_empty());
}

#[test]
fn commit_spares_logically_older_readers() {
    let m = mgr(4);
    let mem = Arc::clone(m.memory());
    let cell = mem.alloc::<u64>(1);
    // Fork order is logical order here: predecessor (stamp 1), then
    // the committing writer (stamp 2), then a successor (stamp 3).
    let predecessor = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
    let writer = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
    let successor = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();

    // Both bystanders read the word the writer will commit.
    let mut pred_buf = fresh_buffer(&m, predecessor);
    let _ = pred_buf
        .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
        .unwrap();
    let mut succ_buf = fresh_buffer(&m, successor);
    let _ = succ_buf
        .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
        .unwrap();

    assert_eq!(m.publish(&mut vec![cell.addr_of(0)], writer, false), 1);
    assert!(
        !m.doom_requested(predecessor),
        "a logical predecessor's read legitimately precedes the write"
    );
    assert!(m.doom_requested(successor), "the successor's read is stale");
}

/// A reader the logical-order filter spares keeps its registration: a
/// later publish by a logically earlier writer (here rank 0's store) finds
/// it and dooms it.
#[test]
fn a_reader_a_commit_spares_stays_doomable() {
    let m = mgr(2);
    let mem = Arc::clone(m.memory());
    let cell = mem.alloc::<u64>(1);
    let addr = cell.addr_of(0);
    let predecessor = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
    let writer = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();

    let mut pred_buf = fresh_buffer(&m, predecessor);
    let _ = pred_buf
        .load_logged(&*mem, Some(m.commit_log()), addr, 8)
        .unwrap();
    assert_eq!(
        m.publish(&mut vec![addr], writer, false),
        0,
        "the writer spares it"
    );
    assert_eq!(
        m.publish(&mut vec![addr], 0, false),
        1,
        "the spared predecessor's read is now stale"
    );
    assert!(m.doom_requested(predecessor));
}

#[test]
fn a_reaped_subtree_keeps_no_work_finished_or_running() {
    let m = mgr(4);
    let mem = Arc::clone(m.memory());
    let cell = mem.alloc::<u64>(1);
    mem.set(&cell, 0, 7);

    // A thread that deposited clean work, with a child of its own still
    // running: nothing joins either, so neither counts.
    let done = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
    let running = m.try_acquire_cpu(done, ForkModel::Mixed).unwrap();
    let mut buffer = fresh_buffer(&m, done);
    buffer.store(cell.addr_of(0), 42, 8).unwrap();
    let mut outcome = completed(buffer);
    outcome.children.push(running);
    assert!(m.deposit_outcome(done, outcome));

    m.reap_subtree(done);
    assert_eq!(mem.get(&cell, 0), 7, "unjoined work never reaches memory");
    assert_eq!(counted(&m, done, CounterId::RollbacksOther), 1, "a cascade");
    assert!(
        m.abort_requested(running),
        "the running child is told to stop"
    );
    assert_eq!(
        m.active_speculations(),
        1,
        "and keeps its CPU until it does"
    );

    // It must not block the reaper: its own deposit cleans up.
    let finished = stopped(&m, running, TaskStatus::Completed);
    assert!(!m.deposit_outcome(running, finished));
    assert_eq!(counted(&m, running, CounterId::RollbacksOther), 1);
    assert_eq!(m.active_speculations(), 0);
    assert_eq!(m.exposed_speculations(), 0);
}

/// A rollback dooms nobody: no value has changed yet.  The victim stays
/// registered, so the publish of the re-execution's store — the one
/// change of the value — is what dooms it, past any in-flight retry.
#[test]
fn a_rolled_back_childs_readers_are_doomed_by_the_re_executions_publish() {
    let m = mgr(3);
    let mem = Arc::clone(m.memory());
    let cell = mem.alloc::<u64>(64);
    mem.set(&cell, 0, 1);
    let word = cell.addr_of(32);
    let victim = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();

    // The victim speculatively read the word the failing child wrote.
    let mut victim_buf = fresh_buffer(&m, victim);
    let _ = victim_buf
        .load_logged(&*mem, Some(m.commit_log()), word, 8)
        .unwrap();

    // The child read word 0, then a predecessor committed a different
    // value there: genuine conflict, no retry.  The child also wrote
    // word 32 — which the victim read.
    let mut child_buf = fresh_buffer(&m, 0);
    let _ = child_buf
        .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
        .unwrap();
    child_buf.store(word, 9, 8).unwrap();
    mem.set(&cell, 0, 2);
    m.publish(&mut vec![cell.addr_of(0)], 0, false);

    let mut outcome = completed(child_buf);
    assert_eq!(
        m.validate_and_commit(0, &mut outcome, None),
        Err(SpecFailure::ReadConflict)
    );
    assert!(!m.doom_requested(victim), "the rollback changed no value");
    assert!(
        m.commit_log().registered_readers(word).contains(victim),
        "the victim stays registered for the publish to find"
    );

    // Rank 0 re-executes the child and stores word 32: memory, then — at
    // the publish of its pending batch, which its next join, fork or check
    // point runs — the commit-log stamp and the doom of the word's readers.
    let dooms = counted(&m, 0, CounterId::TargetedDooms);
    let mut rank0 = SpecContext::non_speculative(Arc::clone(&m));
    rank0.spec_write(word, 9).unwrap();
    rank0.publish_pending();
    assert!(m.doom_requested(victim), "the publish dooms the reader");
    assert_eq!(counted(&m, 0, CounterId::TargetedDooms), dooms + 1);
    assert_eq!(
        victim_buf.validate(m.commit_log(), &*mem),
        Validation::Conflict,
        "the value changed: no in-flight retry clears this doom"
    );
}

/// A reader that reads every word of a line registers on it once and is
/// retired from it once: a tracked rank, and a spilled one, whose one
/// registration is one counted spill.  Returning the buffer leaves no bit
/// behind on any word of the line.
#[test]
fn a_line_read_word_by_word_registers_and_retires_once() {
    let m = mgr(70);
    for rank in 1..=70 {
        assert_eq!(m.try_acquire_cpu(0, ForkModel::Mixed), Ok(rank));
    }
    let mem = Arc::clone(m.memory());
    let cells = mem.alloc::<u64>(16);
    let first = (0..8)
        .find(|&i| cells.addr_of(i).is_multiple_of(64))
        .unwrap();
    let line: Vec<Addr> = (first..first + 8).map(|i| cells.addr_of(i)).collect();
    for rank in [1, 70] {
        let mut buffer = m.take_buffer(rank);
        for &addr in &line {
            let _ = buffer.load_logged(&*mem, Some(m.commit_log()), addr, 8);
        }
        assert_eq!(buffer.read_set_len(), 8);
        assert_eq!(buffer.registered_ranges(), &line[..1], "rank {rank}");
        assert!(m.commit_log().registered_readers(line[7]).contains(rank));
        m.return_buffer(rank, buffer);
        for &addr in &line {
            let readers = m.commit_log().registered_readers(addr);
            assert!(readers.is_empty(), "rank {rank}: {readers:?} on {addr:#x}");
        }
    }
    assert_eq!(m.commit_log().stats().reader_spills, 1);
}

/// A task's `fork_range` prices reach the site's books with its commit:
/// not with a rollback, not with a discard, so a site nothing committed at
/// has no speculative sample and cuts at equal price.
#[test]
fn only_a_committed_task_books_its_prices() {
    let m = mgr(1);
    let priced = |rank| SpecOutcome {
        prices: vec![(7, Price::spec(30))],
        ..stopped(&m, rank, TaskStatus::Completed)
    };
    let rank = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
    let conflict = Err(SpecFailure::ReadConflict);
    m.settle_child(rank, 7, ForkModel::Mixed, priced(rank), conflict);
    m.release_cpu(rank, 0);
    let rank = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
    assert!(m.deposit_outcome(rank, priced(rank)));
    m.reap_subtree(rank);
    assert_eq!(m.price(7), Price::default(), "rolled back, then discarded");

    let rank = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
    let committed = Ok(CommitKind::Committed);
    m.settle_child(rank, 7, ForkModel::Mixed, priced(rank), committed);
    m.release_cpu(rank, 0);
    assert_eq!(m.price(7), Price::spec(30));
}

#[test]
fn run_accumulators_reset_and_snapshot() {
    let m = mgr(1);
    for verdict in [
        Ok(CommitKind::Committed),
        Ok(CommitKind::Retried),
        Err(SpecFailure::ReadConflict),
        Err(SpecFailure::Injected),
    ] {
        let rank = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
        let mut outcome = stopped(&m, rank, TaskStatus::Completed);
        outcome.stats.add(Phase::Work, 10);
        m.settle_child(rank, 0, ForkModel::Mixed, outcome, verdict);
        m.release_cpu(rank, 0);
    }
    let speculative = m.run_snapshot();
    assert_eq!(speculative.get(Phase::Work), 20);
    assert_eq!(speculative.get(Phase::WastedWork), 20);
    // Retirement counts with metrics off: the registry is the only book.
    let registry = m.metrics().registry();
    assert_eq!(registry.counter_total(CounterId::CommittedCycles), 20);
    assert_eq!(registry.counter_total(CounterId::WastedCycles), 20);
    m.publish(&mut vec![64], 0, false);
    m.reset_run();
    assert_eq!(m.run_snapshot().total(), 0);
    assert_eq!(registry.counter_total(CounterId::CommittedCycles), 0);
    assert_eq!(m.commit_log().commits(), 0);
}
