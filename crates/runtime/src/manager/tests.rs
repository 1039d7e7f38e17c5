//! The manager's unit tests: each protocol driven by hand, no worker
//! threads.

use super::*;

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

#[test]
fn synchronizing_may_cost_an_eighth_of_the_region_it_overlaps() {
    let m = mgr(1);
    // Nothing measured yet: two cold hand-offs, the base cost, and a
    // cold price per entry.
    let cold = 2 * COLD_HANDOFF_NS + SYNC_BASE_NS;
    assert!(m.sync_pays(0, SYNC_PAYBACK * cold));
    assert!(!m.sync_pays(0, SYNC_PAYBACK * cold - 1));
    assert!(!m.sync_pays(0, 0), "forked and joined at once");
    assert!(m.sync_pays(0, 16_000_000), "compute_loop's chunks");
    assert!(!m.sync_pays(650, 12_000), "md's chunks");
    // 650 entries measured at 14 µs: 21 ns each from now on.
    m.record_sync(14_000, 650);
    m.record_sync(3_000, 0);
    let measured = cold + 650 * 21;
    assert!(m.sync_pays(650, SYNC_PAYBACK * measured));
    assert!(!m.sync_pays(650, SYNC_PAYBACK * measured - 1));
    // A hand-off between running threads replaces the cold estimate; a
    // slower one (a first wake-up) never raises it.
    m.fastest_handoff_ns.fetch_min(1_000, Ordering::Relaxed);
    m.fastest_handoff_ns.fetch_min(90_000, Ordering::Relaxed);
    assert!(m.sync_pays(0, SYNC_PAYBACK * (2_000 + SYNC_BASE_NS)));
    assert!(!m.sync_pays(650, 12_000), "md's chunks, warmed up");
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

/// A completed outcome wrapping `buffers`, ready for the join protocol.
fn completed(buffers: ThreadBuffers) -> SpecOutcome {
    SpecOutcome {
        status: TaskStatus::Completed,
        buffers,
        children: Vec::new(),
        stats: ThreadStats::new(),
        finished_at: Instant::now(),
        settled: false,
    }
}

/// Buffers for a hand-driven thread (rank 0 stands in for "some
/// writer" in the commit tests, so these bypass the per-CPU slots).
fn fresh_buffers(m: &ThreadManager, rank: Rank) -> ThreadBuffers {
    ThreadBuffers::new(m.config(), rank)
}

/// An empty outcome of the acquired CPU `rank`, stopped with `status`.
fn stopped(m: &ThreadManager, rank: Rank, status: TaskStatus) -> SpecOutcome {
    SpecOutcome {
        status,
        ..completed(m.take_buffers(rank))
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

        // Reaped after it deposited, with a child of its own.
        let parent = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
        let child = m.try_acquire_cpu(parent, ForkModel::Mixed).unwrap();
        assert!(m.deposit_outcome(child, stopped(&m, child, status)));
        let mut outcome = stopped(&m, parent, status);
        outcome.children.push(child);
        assert!(m.deposit_outcome(parent, outcome));
        m.reap_subtree(parent);
        assert_eq!(m.exposed_speculations(), 0, "reap_subtree, {status:?}");

        // Drained at the end of a region.
        let unjoined = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
        assert!(m.deposit_outcome(unjoined, stopped(&m, unjoined, status)));
        m.drain_subtree(unjoined);
        assert_eq!(m.exposed_speculations(), 0, "drain_subtree, {status:?}");

        // Adopted (committed when Completed, discarded otherwise),
        // with a still-running grandchild that adoption reaps.
        let adoptee = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
        let running = m.try_acquire_cpu(adoptee, ForkModel::Mixed).unwrap();
        let mut outcome = stopped(&m, adoptee, status);
        outcome.children.push(running);
        assert!(m.deposit_outcome(adoptee, outcome));
        let adopted = m.adopt_subtree(adoptee, None);
        assert_eq!(adopted, u64::from(status == TaskStatus::Completed));
        assert_eq!(m.exposed_speculations(), 1, "the grandchild still runs");
        assert!(!m.deposit_outcome(running, stopped(&m, running, cascaded)));
        assert_eq!(m.exposed_speculations(), 0, "adopt_subtree, {status:?}");

        assert_eq!(m.active_speculations(), 0);
        // Each path above handed the buffers back before releasing
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
    let data = mem.alloc::<u64>(32);
    let mut dirty = m.take_buffers(2);
    for i in 0..20 {
        let addr = data.addr_of(i);
        let _ = dirty
            .global
            .load_logged(&*mem, Some(m.commit_log()), addr, 8);
        let _ = dirty.global.store(addr, 1, 8);
    }
    dirty
        .local
        .set_regvar(3, mutls_membuf::RegisterValue::Int(7))
        .unwrap();
    assert!(dirty.global.overflow_pending() && !dirty.is_clean());
    m.return_buffers(2, dirty);
    let again = m.take_buffers(2);
    assert!(again.is_clean());
    assert_eq!(again.global.reader(), 2, "still bound to its CPU");
    assert_eq!(m.buffers_created(), 1);
}

#[test]
fn validate_and_commit_detects_a_real_predecessor_write() {
    let m = mgr_with_child();
    let mem = Arc::clone(m.memory());
    let cell = mem.alloc::<u64>(1);
    mem.set(&cell, 0, 7);

    // A speculative child reads the cell…
    let mut buffers = fresh_buffers(&m, 1);
    let value = buffers
        .global
        .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
        .unwrap();
    assert_eq!(value, 7);

    // …then a logical predecessor commits a *different value* to it:
    // value prediction cannot save this join.
    mem.set(&cell, 0, 8);
    m.commit_log().record_word(cell.addr_of(0));

    let mut outcome = completed(buffers);
    assert_eq!(
        m.validate_and_commit(1, &mut outcome, None),
        Err(SpecFailure::ReadConflict)
    );
    assert_eq!(outcome.stats.counters.retries_succeeded, 0);
}

#[test]
fn validate_and_commit_publishes_writes_into_the_log() {
    let m = mgr_with_child();
    let mem = Arc::clone(m.memory());
    let cell = mem.alloc::<u64>(1);

    let mut buffers = fresh_buffers(&m, 1);
    buffers.global.store(cell.addr_of(0), 42, 8).unwrap();
    let mut outcome = completed(buffers);
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

    let mut buffers = fresh_buffers(&m, 1);
    let _ = buffers
        .global
        .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
        .unwrap();
    buffers.global.store(cell.addr_of(1), 9, 8).unwrap();

    // A predecessor commits the *same* value (ABA / false sharing):
    // version validation conflicts, value prediction repairs it.
    mem.set(&cell, 0, 7);
    m.commit_log().record_word(cell.addr_of(0));

    let mut outcome = completed(buffers);
    assert_eq!(
        m.validate_and_commit(1, &mut outcome, None),
        Ok(CommitKind::Retried)
    );
    assert_eq!(outcome.stats.counters.retries_succeeded, 1);
    assert_eq!(mem.get(&cell, 1), 9, "the retried write-set committed");
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
    let mut reader_buf = fresh_buffers(&m, reader);
    let _ = reader_buf
        .global
        .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
        .unwrap();
    let mut bystander_buf = fresh_buffers(&m, bystander);
    let _ = bystander_buf
        .global
        .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(32), 8)
        .unwrap();

    // A third thread commits a write covering word 0.
    let mut writer = fresh_buffers(&m, 0);
    writer.global.store(cell.addr_of(0), 5, 8).unwrap();
    let mut outcome = completed(writer);
    assert_eq!(
        m.validate_and_commit(0, &mut outcome, None),
        Ok(CommitKind::Committed)
    );
    assert_eq!(outcome.stats.counters.targeted_dooms, 1);
    assert!(m.doom_requested(reader), "stale reader doomed");
    assert!(!m.doom_requested(bystander), "bystander untouched");

    // The doom set was a subset of the running threads by
    // construction; releasing clears the flag for reuse.
    m.release_cpu(reader, 0);
    let again = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
    assert!(!m.doom_requested(again), "doom flag cleared on acquire");
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
        let mut buffers = fresh_buffers(&m, rank);
        let _ = buffers
            .global
            .load_logged(&*mem, Some(m.commit_log()), addr, 8)
            .unwrap();
    };
    read_as(2);
    read_as(70);
    assert_eq!(m.commit_log().stats().reader_spills, 1);

    // Rank 0 — logically earliest — commits the word: both readers
    // are stale, the spilled one included.
    let commit_as = |rank: Rank| {
        let mut writer = fresh_buffers(&m, rank);
        writer.global.store(addr, 5, 8).unwrap();
        let mut outcome = completed(writer);
        assert_eq!(
            m.validate_and_commit(rank, &mut outcome, None),
            Ok(CommitKind::Committed)
        );
        outcome.stats.counters.targeted_dooms
    };
    assert_eq!(commit_as(0), 2);
    assert!(m.doom_requested(2), "the bitmask reader is doomed");
    assert!(m.doom_requested(70), "the spilled reader is doomed");

    // The logical-order filter reaches a spilled rank too: CPU 5 is
    // recycled, so its task (stamp 71) is younger than rank 70's, and
    // its commit takes rank 70's new registration without dooming it.
    m.release_cpu(5, 0);
    assert_eq!(m.try_acquire_cpu(0, ForkModel::Mixed), Ok(5));
    m.clear_doom(70);
    read_as(70);
    assert_eq!(commit_as(5), 0);
    assert!(!m.doom_requested(70), "a logically older reader is spared");
    assert!(m.commit_log().registered_readers(addr).is_empty());
    assert_eq!(m.commit_log().stats().reader_spills, 2);
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
    let mut pred_buf = fresh_buffers(&m, predecessor);
    let _ = pred_buf
        .global
        .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
        .unwrap();
    let mut succ_buf = fresh_buffers(&m, successor);
    let _ = succ_buf
        .global
        .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
        .unwrap();

    assert_eq!(m.doom_readers([cell.addr_of(0)], writer), 1);
    assert!(
        !m.doom_requested(predecessor),
        "a logical predecessor's read legitimately precedes the write"
    );
    assert!(m.doom_requested(successor), "the successor's read is stale");

    // The writer's own rollback dooms through the same filter: the
    // readers of the ranges its re-execution is about to rewrite.
    let mut writer_buf = fresh_buffers(&m, writer);
    writer_buf.global.store(cell.addr_of(0), 9, 8).unwrap();
    let _ = pred_buf
        .global
        .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
        .unwrap();
    let outcome = completed(writer_buf);
    m.doom_readers(outcome.buffers.global.write_addresses(), writer);
    assert!(
        !m.doom_requested(predecessor),
        "rollback recovery must spare logical predecessors"
    );
}

#[test]
fn adoption_salvages_a_deposited_grandchild() {
    let m = mgr(4);
    let mem = Arc::clone(m.memory());
    let cell = mem.alloc::<u64>(1);
    mem.set(&cell, 0, 7);

    // A grandchild finished and deposited before its (committed)
    // parent was joined — the classic orphan the old code reaped.
    let gc = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
    let mut buffers = fresh_buffers(&m, gc);
    buffers.global.store(cell.addr_of(0), 42, 8).unwrap();
    assert!(m.deposit_outcome(gc, completed(buffers)));

    assert_eq!(m.adopt_subtree(gc, None), 1, "clean work is salvaged");
    assert_eq!(mem.get(&cell, 0), 42, "adopted writes reach memory");
    assert!(
        m.try_acquire_cpu(0, ForkModel::Mixed).is_ok(),
        "the adopted thread's CPU is released"
    );
}

#[test]
fn adoption_still_reaps_conflicting_and_running_grandchildren() {
    let m = mgr(4);
    let mem = Arc::clone(m.memory());
    let cell = mem.alloc::<u64>(1);
    mem.set(&cell, 0, 7);

    // Grandchild A read the cell before a predecessor overwrote it:
    // adoption must validate, fail, and discard — not blindly commit.
    let stale = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
    let mut stale_buf = fresh_buffers(&m, stale);
    let _ = stale_buf
        .global
        .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
        .unwrap();
    stale_buf.global.store(cell.addr_of(0), 99, 8).unwrap();

    let mut pred = fresh_buffers(&m, 0);
    pred.global.store(cell.addr_of(0), 13, 8).unwrap();
    let mut pred_outcome = completed(pred);
    m.validate_and_commit(0, &mut pred_outcome, None).unwrap();

    assert!(m.deposit_outcome(stale, completed(stale_buf)));
    assert_eq!(m.adopt_subtree(stale, None), 0, "stale work is discarded");
    assert_eq!(mem.get(&cell, 0), 13, "the stale write never commits");

    // Grandchild B never deposited: adoption must not block on it.
    let running = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
    assert_eq!(m.adopt_subtree(running, None), 0);
    assert!(
        m.abort_requested(running),
        "a still-running grandchild is reaped as before"
    );
}

#[test]
fn rollback_recovery_dooms_readers_of_the_rewritten_ranges() {
    let m = mgr(3);
    let mem = Arc::clone(m.memory());
    let cell = mem.alloc::<u64>(64);
    mem.set(&cell, 0, 1);
    let victim = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();

    // The victim speculatively read the word the failing child wrote.
    let mut victim_buf = fresh_buffers(&m, victim);
    let _ = victim_buf
        .global
        .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(32), 8)
        .unwrap();

    // The child read word 0, then a predecessor committed a different
    // value there: genuine conflict, no retry.  The child also wrote
    // word 32 — which the victim read.
    let mut child_buf = fresh_buffers(&m, 0);
    let _ = child_buf
        .global
        .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
        .unwrap();
    child_buf.global.store(cell.addr_of(32), 9, 8).unwrap();
    mem.set(&cell, 0, 2);
    m.commit_log().record_word(cell.addr_of(0));

    let mut outcome = completed(child_buf);
    assert_eq!(
        m.validate_and_commit(0, &mut outcome, None),
        Err(SpecFailure::ReadConflict)
    );
    assert_eq!(outcome.stats.counters.targeted_dooms, 1);
    assert!(
        m.doom_requested(victim),
        "reader of the to-be-rewritten range must be doomed"
    );
}

#[test]
fn grain_controller_ticks_regrain_and_doom_outstanding_readers() {
    use mutls_adaptive::GrainControlConfig;
    use mutls_membuf::{PAGE_GRAIN_LOG2, WORD_GRAIN_LOG2};
    let m = ThreadManager::new(
        RuntimeConfig::with_cpus(2)
            .memory_bytes(1 << 16)
            // Single-version validation: with rings the neighbour
            // commits below precise-pass instead of producing the
            // false-sharing retries this test feeds the controller.
            .commit_log(mutls_membuf::CommitLogConfig::default().ring_depth(1))
            .adaptive_grain()
            .grain_control(
                GrainControlConfig::adaptive()
                    .tick_commits(1)
                    .initial_grain_log2(PAGE_GRAIN_LOG2),
            ),
    );
    let mem = Arc::clone(m.memory());
    let cell = mem.alloc::<u64>(1024);
    assert_eq!(
        m.commit_log().grain_of(cell.addr_of(0)),
        PAGE_GRAIN_LOG2,
        "regions start at the controller's initial grain"
    );

    // A speculative reader registers, then keeps conflicting with
    // false-sharing suspects: the word it read never changes value,
    // but its page-grain range is committed by a neighbour write.
    let reader = m.try_acquire_cpu(0, ForkModel::Mixed).unwrap();
    for _ in 0..4 {
        let mut buf = fresh_buffers(&m, reader);
        let _ = buf
            .global
            .load_logged(&*mem, Some(m.commit_log()), cell.addr_of(0), 8)
            .unwrap();
        // Neighbour word of the same page commits → range conflict,
        // value unchanged ⇒ suspected false sharing.
        mem.set(&cell, 8, 1);
        m.commit_log().record_word(cell.addr_of(8));
        let mut outcome = completed(buf);
        // The value is unchanged, so this is a Retried commit; the
        // retry feeds the controller's split evidence.
        let _ = m.validate_and_commit(reader, &mut outcome, None);
        m.tick_grain_controller();
    }
    assert!(
        m.commit_log().grain_of(cell.addr_of(0)) < PAGE_GRAIN_LOG2,
        "suspect spikes must re-split the region (grain now {})",
        m.commit_log().grain_of(cell.addr_of(0))
    );
    assert!(m.commit_log().regrains() > 0);

    // reset_run restores the initial grain and controller state.
    m.release_cpu(reader, 0);
    m.reset_run();
    assert_eq!(m.commit_log().grain_of(cell.addr_of(0)), PAGE_GRAIN_LOG2);
    assert_eq!(m.commit_log().regrains(), 0);
    let _ = WORD_GRAIN_LOG2;
}

#[test]
fn observed_grain_reports_static_grain_without_the_controller() {
    let m = mgr(1);
    let mem = Arc::clone(m.memory());
    let cell = mem.alloc::<u64>(1);
    let mut buf = fresh_buffers(&m, 1);
    buf.global.store(cell.addr_of(0), 1, 8).unwrap();
    let outcome = completed(buf);
    assert_eq!(m.observed_grain(&outcome), m.config().commit_log.grain_log2);
}

#[test]
fn address_registration_flows_through() {
    let m = mgr(1);
    m.register_range(0x100, 0x40);
    assert!(m.range_registered(0x100, 8));
    assert!(!m.range_registered(0x200, 8));
    // A wild pointer: `addr + len` wraps to 0, below the allocation
    // cursor, and must still be outside everything.
    assert!(!m.range_registered(u64::MAX - 7, 8));
    m.unregister_range(0x100, 0x40);
    assert!(!m.range_registered(0x100, 8));
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
    let totals = m.run_snapshot();
    assert_eq!(totals.speculative.get(Phase::Work), 20);
    assert_eq!(totals.speculative.get(Phase::WastedWork), 20);
    assert_eq!(totals.committed, 2, "a retry is a commit");
    assert_eq!(totals.retried, 1);
    assert_eq!(totals.rolled_back, 2, "a retry is not a rollback");
    assert_eq!(totals.by_reason[RollbackReason::Conflict.index()], 1);
    assert_eq!(totals.by_reason[RollbackReason::Injected.index()], 1);
    m.commit_log().record_word(64);
    m.reset_run();
    let totals = m.run_snapshot();
    assert_eq!(totals.speculative.total(), 0);
    assert_eq!(totals.committed + totals.rolled_back + totals.retried, 0);
    assert_eq!(totals.by_reason, [0; RollbackReason::COUNT]);
    assert_eq!(m.commit_log().commits(), 0);
}
