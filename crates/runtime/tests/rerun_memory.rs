//! A runtime runs again at the cost of what the run touched.  The commit
//! log's tables cover the whole arena (six words per 64-byte line), and
//! each `Runtime::run` clears what the previous run wrote into the log: a
//! clear that stored into every table would fault all of them in.  Its own
//! test binary, so the peak resident set it reads is this test's alone.

use mutls_runtime::{task, Runtime, RuntimeConfig, SpecContext, TlsContext};

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod os {
    /// The process's peak resident set (`VmHWM`), in KiB.
    pub fn peak_rss_kib() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").expect("the process's status");
        let line = status.lines().find(|line| line.starts_with("VmHWM:"));
        let kib = line.and_then(|line| line.split_whitespace().nth(1));
        kib.and_then(|kib| kib.parse().ok())
            .expect("a VmHWM line in KiB")
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod os {
    /// No peak to read (and the tables are not mapped): the bound holds
    /// trivially.
    pub fn peak_rss_kib() -> u64 {
        0
    }
}

/// One runtime, a 128 MiB arena, three runs of one fork, one speculative
/// load and one store each: after the first run, the peak resident set
/// grows by less than 4 MiB.
#[test]
fn a_rerun_faults_in_only_what_it_touches() {
    let rt = Runtime::new(RuntimeConfig::with_cpus(1).memory_bytes(128 << 20));
    let cells = rt.alloc::<u64>(2);
    let mut peaks = Vec::new();
    for run in 0..3u64 {
        let (_, report) = rt.run(|ctx| {
            let child = task(move |ctx: &mut SpecContext| {
                let seen = ctx.load(&cells, 0)?;
                ctx.store(&cells, 1, seen + 1)
            });
            let handle = ctx.fork(0, child)?;
            ctx.store(&cells, 0, run)?;
            ctx.join(handle)
        });
        assert_eq!(report.critical.counters.forks, 1, "run {run} forked");
        peaks.push(os::peak_rss_kib());
    }
    assert!(
        peaks[2] < peaks[0] + (4 << 10),
        "VmHWM after each run, KiB: {peaks:?}"
    );
}
