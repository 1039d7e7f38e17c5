//! The correctness gate: every op is attempted under a watchdog and a
//! panic guard, and its checksum must equal the sequential reference.
//! An op that mismatches or panics is counted as failed — never dropped
//! — and the command exits non-zero after printing everything.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest one op may run before the watchdog gives up on the process.
const OP_LIMIT: Duration = Duration::from_secs(60);

/// Exit code of a run the watchdog ended.
const WATCHDOG_EXIT: i32 = 3;

enum Signal {
    Arm(&'static str),
    Disarm,
}

/// A thread that sleeps on a channel: armed before an op, disarmed after
/// it.  An op still armed after [`OP_LIMIT`] is a hang the process
/// cannot recover from (its threads cannot be killed), so the watchdog
/// reports it and exits without a result line.
struct Watchdog {
    tx: Option<Sender<Signal>>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    fn spawn(limit: Duration) -> Self {
        let (tx, rx) = channel();
        let thread = std::thread::Builder::new()
            .name("bench-watchdog".into())
            .spawn(move || {
                while let Ok(signal) = rx.recv() {
                    let Signal::Arm(what) = signal else { continue };
                    match rx.recv_timeout(limit) {
                        Ok(_) => {}
                        Err(RecvTimeoutError::Disconnected) => return,
                        Err(RecvTimeoutError::Timeout) => {
                            eprintln!(
                                "watchdog: op `{what}` exceeded {limit:?}; failed op, giving up"
                            );
                            std::process::exit(WATCHDOG_EXIT);
                        }
                    }
                }
            })
            .expect("spawn watchdog thread");
        Watchdog {
            tx: Some(tx),
            thread: Some(thread),
        }
    }

    fn send(&self, signal: Signal) {
        if let Some(tx) = &self.tx {
            // The watchdog only ends when this sender is dropped.
            let _ = tx.send(signal);
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.tx = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    reference: Option<u64>,
    watchdog: Watchdog,
}

impl Gate {
    pub fn new() -> Self {
        Gate {
            attempted: 0,
            failed: 0,
            reference: None,
            watchdog: Watchdog::spawn(OP_LIMIT),
        }
    }

    /// Attempt one op.  `None` means it panicked and was counted failed.
    pub fn attempt<T>(&mut self, what: &'static str, op: impl FnOnce() -> T) -> Option<T> {
        self.attempted += 1;
        self.watchdog.send(Signal::Arm(what));
        let outcome = catch_unwind(AssertUnwindSafe(op));
        self.watchdog.send(Signal::Disarm);
        if outcome.is_err() {
            eprintln!("failed op: `{what}` panicked");
            self.failed += 1;
        }
        outcome.ok()
    }

    /// A sequential op's checksum: the first one is the reference, every
    /// later one must repeat it.
    pub fn check_reference(&mut self, what: &str, checksum: u64) -> bool {
        let reference = *self.reference.get_or_insert(checksum);
        self.check(what, checksum, reference)
    }

    /// A measured op's checksum must equal the reference.
    pub fn check_measured(&mut self, what: &str, checksum: u64) -> bool {
        let reference = self
            .reference
            .expect("a reference op runs before any measured op");
        self.check(what, checksum, reference)
    }

    /// An exact count that must repeat across repetitions (simulated
    /// cycles).
    pub fn check_repeats<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        first: &T,
        this: &T,
    ) -> bool {
        if first != this {
            eprintln!("failed op: `{what}` gave {this:?}, earlier {first:?}");
            self.failed += 1;
        }
        first == this
    }

    fn check(&mut self, what: &str, checksum: u64, reference: u64) -> bool {
        if checksum != reference {
            eprintln!("failed op: `{what}` checksum {checksum:#x} != reference {reference:#x}");
            self.failed += 1;
        }
        checksum == reference
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_checksum_is_a_failed_op_not_a_dropped_one() {
        let mut gate = Gate::new();
        let reference = gate.attempt("reference", || 0xC0FFEE_u64).unwrap();
        assert!(gate.check_reference("reference", reference));
        let measured = gate.attempt("measured", || 0xC0FFEE_u64 ^ 1).unwrap();
        assert!(!gate.check_measured("measured", measured));
        assert_eq!((gate.attempted, gate.failed), (2, 1));
        // A reference that stops repeating fails too.
        gate.attempt("reference", || ());
        assert!(!gate.check_reference("reference", reference + 1));
        assert!(!gate.check_repeats("cycles", &[1, 2], &[1, 3]));
        assert_eq!((gate.attempted, gate.failed), (3, 3));
    }

    #[test]
    fn a_panicking_op_is_counted_and_the_run_continues() {
        let mut gate = Gate::new();
        let outcome: Option<()> = gate.attempt("boom", || panic!("boom"));
        assert!(outcome.is_none());
        assert_eq!(gate.attempt("after", || 7), Some(7));
        assert_eq!((gate.attempted, gate.failed), (2, 1));
    }

    #[test]
    fn the_watchdog_stays_quiet_for_ops_inside_the_limit() {
        let watchdog = Watchdog::spawn(Duration::from_secs(5));
        watchdog.send(Signal::Arm("quick"));
        watchdog.send(Signal::Disarm);
        drop(watchdog); // joins the thread: it must have gone back to waiting
    }
}
