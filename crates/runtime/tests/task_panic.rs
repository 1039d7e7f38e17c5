//! A panic inside a dispatched task ends the process instead of hanging
//! its joiner.  Nothing would hand the task's outcome back, so the joiner
//! would wait for it forever; `ThreadManager::run_task` aborts instead,
//! with the rank and the panic's message on the process's stderr.
//!
//! An abort cannot be observed from inside the process, so the test runs
//! its own binary again as a child, selected by an environment variable,
//! in which a forked task panics.  The parent waits for the child with a
//! deadline and checks how it died.
#![cfg(unix)]

use std::io::Read;
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use mutls_runtime::{task, Runtime, RuntimeConfig, SpecContext, TlsContext};

/// Set in the child's environment: run the panicking program.
const CHILD: &str = "MUTLS_TASK_PANIC_CHILD";

/// What the forked task panics with.
const MESSAGE: &str = "a speculative task panics";

/// Long against a hand-off and a debug build's start-up.
const DEADLINE: Duration = Duration::from_secs(30);

/// The child: fork a task that panics as soon as it runs speculatively,
/// and keep the forker busy until a worker has surely taken it.
fn panicking_program() {
    let rt = Runtime::new(RuntimeConfig::with_cpus(1).memory_bytes(1 << 20));
    let boom = task(|ctx: &mut SpecContext| {
        if ctx.is_speculative() {
            panic!("{MESSAGE}");
        }
        Ok(())
    });
    rt.run(|ctx| {
        // A fork denied for want of a CPU runs at its join, not
        // speculatively: try again.
        for _ in 0..100 {
            let handle = ctx.fork(0, Arc::clone(&boom))?;
            let started = Instant::now();
            while started.elapsed() < Duration::from_millis(50) {
                ctx.check_point()?;
            }
            ctx.join(handle)?;
        }
        Ok(())
    });
    panic!("no fork ran speculatively");
}

#[test]
fn a_panicking_task_aborts_the_process_instead_of_hanging_its_joiner() {
    if std::env::var_os(CHILD).is_some() {
        panicking_program();
    }
    let mut child = Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "a_panicking_task_aborts_the_process_instead_of_hanging_its_joiner",
            "--test-threads=1",
        ])
        .env(CHILD, "1")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut pipe = child.stderr.take().unwrap();
    let stderr = thread::spawn(move || {
        let mut text = String::new();
        let _ = pipe.read_to_string(&mut text);
        text
    });
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if started.elapsed() > DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            panic!("the child still ran after {DEADLINE:?}: a panicking task hung its joiner");
        }
        thread::sleep(Duration::from_millis(20));
    };
    let stderr = stderr.join().unwrap();
    assert!(
        status.signal().is_some(),
        "the child was not killed by a signal ({status}); its stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("mutls: the task of rank") && stderr.contains(MESSAGE),
        "the abort did not say why; the child's stderr:\n{stderr}"
    );
}
