//! Rank 0's exposed stores are written to memory at once and published to
//! the commit log in batches.  These tests race a real speculative reader
//! against a pending store and check the two publish points a running
//! reader depends on: a fork's dispatch (a new child must not pay for a
//! store older than itself) and a check point (a stale reader must not wait
//! for rank 0's next join to be stopped).  Orderings are forced with
//! channels and flags, and each test runs under the hang watchdog: a doom
//! that never arrives is a reader that spins forever.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

use mutls_runtime::{
    task, JoinOutcome, Runtime, RuntimeConfig, SpecContext, SpecFailure, TlsContext,
};

mod common;
use common::{alloc_init, watchdog};

fn runtime(cpus: usize) -> Runtime {
    Runtime::new(RuntimeConfig::with_cpus(cpus).memory_bytes(1 << 16))
}

/// A task that reads `cells[0]`, reports the value and then polls until
/// `release` is raised: it stops only when released or doomed.  `stopped`
/// hears which check point failed; the inline re-execution runs through.
fn stale_reader(
    cells: mutls_membuf::GPtr<u64>,
    read_tx: mpsc::Sender<u64>,
    stopped_tx: mpsc::Sender<()>,
    release: Arc<AtomicBool>,
) -> mutls_runtime::TaskRef<SpecContext> {
    task(move |ctx: &mut SpecContext| {
        let seen = ctx.load(&cells, 0)?;
        if !ctx.is_speculative() {
            return ctx.store(&cells, 1, seen);
        }
        read_tx.send(seen).expect("rank 0 is waiting");
        while !release.load(Ordering::Acquire) {
            if let Err(abort) = ctx.check_point() {
                let _ = stopped_tx.send(());
                return Err(abort);
            }
            std::hint::spin_loop();
        }
        ctx.store(&cells, 1, seen)
    })
}

/// A store under an exposed reader, then a fork: the publish before the
/// dispatch dooms the stale reader, and the new child, which reads the
/// stored value, is neither doomed nor flagged by it.
#[test]
fn a_fork_publishes_the_pending_stores_before_the_child_starts() {
    watchdog(|| {
        let rt = runtime(2);
        let cells = alloc_init(&rt, &[7, 0, 0]);
        let release = Arc::new(AtomicBool::new(false));
        let (read_tx, read_rx) = mpsc::channel();
        let (stopped_tx, stopped_rx) = mpsc::channel();
        let reader = stale_reader(cells, read_tx, stopped_tx, Arc::clone(&release));
        let (seen_tx, seen_rx) = mpsc::channel();
        let fresh = task(move |ctx: &mut SpecContext| {
            let seen = ctx.load(&cells, 0)?;
            if ctx.is_speculative() {
                seen_tx.send(seen).expect("rank 0 is waiting");
            }
            ctx.store(&cells, 2, seen)
        });
        let ((stale, late), report) = rt.run(|ctx| {
            let stale = ctx.fork(0, reader)?;
            assert!(stale.speculated(), "a CPU was idle");
            assert_eq!(read_rx.recv().expect("the reader speculated"), 7);
            ctx.store(&cells, 0, 8)?;
            let commits = rt.manager().commit_log().commits();
            assert_eq!(commits, 0, "the store is pending");
            let late = ctx.fork(1, fresh)?;
            assert!(late.speculated(), "a CPU was idle");
            assert_eq!(seen_rx.recv().expect("the child speculated"), 8);
            stopped_rx
                .recv()
                .expect("the publish doomed the stale reader");
            release.store(true, Ordering::Release);
            let late = ctx.join(late)?;
            let stale = ctx.join(stale)?;
            Ok((stale, late))
        });
        assert_eq!(
            late,
            JoinOutcome::Committed,
            "the new child validates clean"
        );
        assert_eq!(stale, JoinOutcome::RolledBack(SpecFailure::ReadConflict));
        assert_eq!(report.targeted_dooms(), 1, "only the stale reader");
        assert_eq!(report.retries(), 0);
        let memory = rt.memory();
        assert_eq!((memory.get(&cells, 1), memory.get(&cells, 2)), (8, 8));
    });
}

/// A store under a running reader, then a check point and nothing else:
/// the check point's publish dooms the reader, which stops at its next
/// poll although rank 0 has not reached its join.
#[test]
fn a_check_point_delivers_a_pending_doom_to_a_running_stale_reader() {
    watchdog(|| {
        let rt = runtime(1);
        let cells = alloc_init(&rt, &[7, 0]);
        let release = Arc::new(AtomicBool::new(false));
        let (read_tx, read_rx) = mpsc::channel();
        let (stopped_tx, stopped_rx) = mpsc::channel();
        let reader = stale_reader(cells, read_tx, stopped_tx, Arc::clone(&release));
        let (outcome, report) = rt.run(|ctx| {
            let handle = ctx.fork(0, reader)?;
            assert!(handle.speculated(), "a CPU was idle");
            assert_eq!(read_rx.recv().expect("the reader speculated"), 7);
            ctx.store(&cells, 0, 8)?;
            assert_eq!(rt.manager().commit_log().commits(), 0, "pending");
            ctx.check_point()?;
            assert_eq!(rt.manager().commit_log().commits(), 1, "published");
            stopped_rx.recv().expect("the doom stopped the reader");
            release.store(true, Ordering::Release);
            ctx.join(handle)
        });
        assert_eq!(outcome, JoinOutcome::RolledBack(SpecFailure::ReadConflict));
        assert_eq!(report.targeted_dooms(), 1);
        assert_eq!(
            rt.memory().get(&cells, 1),
            8,
            "re-executed on the new value"
        );
    });
}
