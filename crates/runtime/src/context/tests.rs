//! Hand-driven unit tests of the context (no worker threads).

use super::*;
use crate::config::RuntimeConfig;
use mutls_membuf::MainMemory;
use mutls_metrics::CounterId;

/// Hand-driven (no worker threads), so "deposited but unjoined" is a
/// program point, not a race: rank 0's direct store is stamped exactly
/// while the child's read set can still be validated.  A store joins rank
/// 0's pending batch, so each count is read after the publish a join runs
/// before it validates.
#[test]
fn direct_stores_publish_exactly_while_a_read_set_is_exposed() {
    let mgr = ThreadManager::new(RuntimeConfig::with_cpus(1).memory_bytes(1 << 16));
    let mut rank0 = SpecContext::non_speculative(Arc::clone(&mgr));
    let cell = rank0.alloc::<u64>(1);
    let addr = cell.addr_of(0);
    let deposit = |status: TaskStatus| {
        let child = mgr.try_acquire_cpu(0, ForkModel::Mixed).expect("idle CPU");
        let mut ctx = SpecContext::speculative(Arc::clone(&mgr), child);
        ctx.spec_read(addr).expect("an allocated address");
        assert!(mgr.deposit_outcome(child, ctx.into_outcome(status)));
        child
    };

    rank0.spec_write(addr, 1).unwrap();
    rank0.publish_pending();
    assert_eq!(mgr.commit_log().commits(), 0, "quiescent: memory only");
    assert_eq!(mgr.memory().read_word(addr), 1);

    // A failed child parked at its join exposes nothing.
    let failed = deposit(TaskStatus::Failed(SpecFailure::BufferOverflow));
    rank0.spec_write(addr, 2).unwrap();
    rank0.publish_pending();
    assert_eq!(mgr.commit_log().commits(), 0, "dead read set: memory only");
    let mut outcome = mgr.wait_outcome_where(failed, || false).unwrap();
    assert_eq!(
        mgr.validate_and_commit(failed, &mut outcome, None),
        Err(SpecFailure::BufferOverflow)
    );
    mgr.release_cpu(failed, 0);

    // A completed child parked at its join is validated later: the
    // store under it must be stamped, and the join must conflict.
    let parked = deposit(TaskStatus::Completed);
    rank0.spec_write(addr, 3).unwrap();
    rank0.publish_pending();
    assert_eq!(mgr.commit_log().commits(), 1, "exposed: published");
    let mut outcome = mgr.wait_outcome_where(parked, || false).unwrap();
    assert_eq!(
        mgr.validate_and_commit(parked, &mut outcome, None),
        Err(SpecFailure::ReadConflict)
    );
    mgr.release_cpu(parked, 0);

    rank0.spec_write(addr, 4).unwrap();
    rank0.publish_pending();
    assert_eq!(mgr.commit_log().commits(), 1, "quiescent again");
}

/// The one evaluation that denies a fork also says why, and a denied
/// fork runs at its join, whatever happened in between — as in the
/// replay.  Hand-driven: the first of two in-order threads is not the
/// most speculative, and with a CPU idle the model denies its fork;
/// under the mixed model with every CPU taken it is denied for want of
/// one.  The forker's promotion then frees its CPU, and the join still
/// runs the continuation inline.
#[test]
fn a_denied_fork_is_reported_once_and_runs_inline_at_its_join() {
    use ForkModel::{InOrder, Mixed};
    let config = RuntimeConfig::with_cpus(3).memory_bytes(1 << 16);
    let mgr = ThreadManager::new(config.trace_events());
    let first = mgr.try_acquire_cpu(0, InOrder).expect("idle CPU");
    mgr.try_acquire_cpu(first, InOrder)
        .expect("the latest forks");
    let mut ctx = SpecContext::speculative(Arc::clone(&mgr), first);
    let nothing = task(|_: &mut SpecContext| Ok(()));

    let model_denied = ctx.fork_with_model(7, InOrder, Arc::clone(&nothing));
    let model_denied = model_denied.expect("a denial is no failure");
    assert!(!model_denied.speculated());

    mgr.try_acquire_cpu(0, Mixed).expect("idle CPU");
    let cell = mgr.memory().alloc::<u64>(1);
    let continuation = task(move |ctx: &mut SpecContext| {
        assert!(!ctx.is_speculative(), "run inline by the promoted joiner");
        ctx.store(&cell, 0, 1)
    });
    let cpu_denied = ctx.fork_with_model(8, Mixed, continuation);
    let cpu_denied = cpu_denied.expect("a denial is no failure");
    assert!(!cpu_denied.speculated());
    let registry = mgr.metrics().registry();
    assert_eq!(registry.counter_on(first, CounterId::FailedForks), 2);

    // Promoted at a joiner's request that pays: its CPU is free now.
    mgr.post_sync(first, Arc::new(Handoff::new(u64::MAX)));
    ctx.check_point().unwrap();
    assert!(!ctx.is_speculative(), "the request was taken");
    assert_eq!(mgr.active_speculations(), 2, "nothing took the freed CPU");
    let joined = ctx.join(cpu_denied).unwrap();
    assert_eq!(joined, JoinOutcome::NotSpeculated);
    assert_eq!(mgr.memory().get(&cell, 0), 1);
    assert_eq!(ctx.join(model_denied).unwrap(), JoinOutcome::NotSpeculated);

    let events = mgr.recorder().drain_events().into_iter();
    let denials: Vec<_> = events
        .filter_map(|event| match event.kind {
            mutls_trace::EventKind::ForkDenied { policy } => Some((event.site, policy)),
            _ => None,
        })
        .collect();
    assert_eq!(denials, [(7, DenyPolicy::Model), (8, DenyPolicy::NoCpu)]);
}

/// The price books, hand-driven: a stretch run speculatively waits for
/// its task's commit, a stretch the context was promoted in books
/// nothing, and rank 0's own stretches book at once — failed ones not.
#[test]
fn a_stretch_books_on_its_side_and_a_promoted_one_books_nothing() {
    let mgr = ThreadManager::new(RuntimeConfig::with_cpus(1).memory_bytes(1 << 16));
    let child = mgr.try_acquire_cpu(0, ForkModel::Mixed).expect("idle CPU");
    let mut ctx = SpecContext::speculative(Arc::clone(&mgr), child);
    ctx.run_priced(7, |_| Ok(())).unwrap();
    assert_eq!(mgr.price(7), Price::default(), "not before the commit");
    // Promoted inside the next stretch, at a joiner's request that pays.
    mgr.post_sync(child, Arc::new(Handoff::new(u64::MAX)));
    ctx.run_priced(7, |ctx| ctx.check_point()).unwrap();
    assert!(!ctx.is_speculative(), "the request was taken");
    let books = mgr.price(7);
    assert_eq!((books.spec_iters, books.crit_iters), (1, 0));
    ctx.run_priced(7, |_| Ok(())).unwrap();
    let _ = ctx.run_priced(7, |_| Err(failure(SpecFailure::Injected)));
    assert_eq!(mgr.price(7).crit_iters, 1, "rank 0 books at once");
}

/// Both sides of a speculative forker's split pay the speculative
/// price, so it cuts at equal price whatever the site's books say.
#[test]
fn a_speculative_forker_cuts_at_equal_price() {
    let mgr = ThreadManager::new(RuntimeConfig::with_cpus(2).memory_bytes(1 << 16));
    let mut dear = Price::crit(10);
    dear.add(Price::spec(30));
    mgr.book_price(7, dear);
    let rank0 = SpecContext::non_speculative(Arc::clone(&mgr));
    assert_eq!(protocol::forker_share(64, 1, rank0.price_of(7)), 48);
    let child = mgr.try_acquire_cpu(0, ForkModel::Mixed).expect("idle CPU");
    let forker = SpecContext::speculative(Arc::clone(&mgr), child);
    assert_eq!(forker.price_of(7), Price::default());
    assert_eq!(protocol::forker_share(64, 2, forker.price_of(7)), 64 / 3);
}

/// Exposed stores wait in rank 0's pending batch: N of them publish
/// ⌈N / PENDING_CAP⌉ batches — each full one at once, the rest at the next
/// publish point.  A word a running child read is stamped; a line nobody
/// read, and nothing stamped, is not, and a batch of such lines alone is no
/// commit.
#[test]
fn exposed_stores_publish_one_batch_per_cap() {
    const N: usize = 2 * PENDING_CAP + PENDING_CAP / 2;
    let mgr = ThreadManager::new(RuntimeConfig::with_cpus(1).memory_bytes(1 << 16));
    let mut rank0 = SpecContext::non_speculative(Arc::clone(&mgr));
    let cells = rank0.alloc::<u64>(N);
    let (read, unread) = (cells.addr_of(0), cells.addr_of(N - 1));
    // A running child reads the first word of each batch.
    let child = mgr.try_acquire_cpu(0, ForkModel::Mixed).expect("idle CPU");
    let mut ctx = SpecContext::speculative(Arc::clone(&mgr), child);
    for i in (0..N).step_by(PENDING_CAP) {
        ctx.spec_read(cells.addr_of(i))
            .expect("an allocated address");
    }
    for i in 0..N {
        rank0.spec_write(cells.addr_of(i), i as u64).unwrap();
    }
    let log = mgr.commit_log();
    assert_eq!(log.commits(), (N / PENDING_CAP) as u64, "the full batches");
    rank0.check_point().unwrap();
    assert_eq!(log.commits(), N.div_ceil(PENDING_CAP) as u64);
    assert!(log.version_of(read) > 0, "the child's read is stamped");
    assert_eq!(log.version_of(unread), 0, "nobody read that line");
    // A word stored twice in one batch is stamped once.
    let stamps = log.stats().stamp_writes;
    rank0.spec_write(read, 1).unwrap();
    rank0.spec_write(read, 2).unwrap();
    rank0.check_point().unwrap();
    assert_eq!(log.stats().stamp_writes, stamps + 1);
    let commits = log.commits();
    rank0.spec_write(unread, 1).unwrap();
    rank0.check_point().unwrap();
    assert_eq!(log.commits(), commits, "nothing to stamp");
}
