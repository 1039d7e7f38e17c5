//! What the native-runtime integration tests share: the hang watchdog and
//! the word-for-word comparison against `DirectContext`.

#![allow(dead_code)] // each test binary uses its own subset

use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

use mutls_membuf::{GPtr, GlobalMemory};
use mutls_runtime::{DirectContext, Runtime, SpecResult};

/// One test at a time: a thread preempted by a neighbouring test would
/// stretch the very intervals the runtime decides on.
static SERIAL: Mutex<()> = Mutex::new(());

/// Run `body` on a thread of its own and fail if it is not done in time: a
/// hand-off never taken, or a role never handed back, is a hang, and a
/// hang must fail, not stall the suite.
pub fn watchdog(body: impl FnOnce() + Send + 'static) {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (done_tx, done_rx) = mpsc::channel();
    let runner = thread::spawn(move || {
        body();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(Duration::from_secs(120)) {
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("hung: the run did not finish"),
        // Done, or panicked and dropped the sender: report which.
        _ => {
            if let Err(panic) = runner.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

/// The words of `data`, initially `init`, after `run` went through
/// `DirectContext`, and what `run` returned.
pub fn try_reference(
    init: &[u64],
    run: impl FnOnce(&mut DirectContext, GPtr<u64>) -> SpecResult<()>,
) -> (SpecResult<()>, Vec<u64>) {
    let memory = Arc::new(GlobalMemory::new(1 << 20));
    let data = memory.alloc::<u64>(init.len());
    init.iter()
        .enumerate()
        .for_each(|(i, &word)| memory.set(&data, i, word));
    let mut ctx = DirectContext::new(Arc::clone(&memory));
    let result = run(&mut ctx, data);
    let words = (0..init.len()).map(|i| memory.get(&data, i)).collect();
    (result, words)
}

/// [`try_reference`] of a run that cannot abort.
pub fn reference(
    init: &[u64],
    run: impl FnOnce(&mut DirectContext, GPtr<u64>) -> SpecResult<()>,
) -> Vec<u64> {
    let (result, words) = try_reference(init, run);
    result.expect("a sequential run cannot abort");
    words
}

/// `init` in `rt`'s arena.
pub fn alloc_init(rt: &Runtime, init: &[u64]) -> GPtr<u64> {
    let data = rt.alloc::<u64>(init.len());
    set_words(rt, &data, init);
    data
}

pub fn set_words(rt: &Runtime, data: &GPtr<u64>, words: &[u64]) {
    words
        .iter()
        .enumerate()
        .for_each(|(i, &word)| rt.memory().set(data, i, word));
}

pub fn words_of(rt: &Runtime, data: &GPtr<u64>) -> Vec<u64> {
    (0..data.len()).map(|i| rt.memory().get(data, i)).collect()
}

pub fn no_slot_leaked(rt: &Runtime, cpus: usize) {
    let mgr = rt.manager();
    assert_eq!(mgr.active_speculations(), 0, "a CPU was never released");
    assert_eq!(mgr.exposed_speculations(), 0, "an exposure leaked");
    assert!(mgr.buffers_created() <= cpus, "buffers changed CPU");
}
