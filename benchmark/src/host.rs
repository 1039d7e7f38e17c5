//! What the benchmark reads from the host: core count, process CPU
//! time, peak resident memory and the provenance stamped on every row.

use std::process::Command;

/// Cores available to this process; every thread-dependent number is
/// reported beside it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Speculative CPUs of a native run: rank 0 plus the workers make
/// `nproc` threads, never more.
pub fn spec_cpus() -> usize {
    nproc().saturating_sub(1).max(1)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system) this process has consumed so far, over
/// all of its threads, living and joined.  `/proc/self/stat` counts the
/// same thing in 10 ms ticks — a fifth of `sim_replay`'s reference op —
/// so the nanosecond clock behind it is read instead.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) and the clock id is a
    // constant the kernel defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |model| model.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host provenance as the members of a JSON object (no braces), stamped
/// on every row the suite writes.
pub fn provenance_json() -> String {
    format!(
        "\"nproc\": {}, \"spec_cpus\": {}, \"cpu_model\": \"{}\", \"profile\": \"release\", \
         \"rustc\": \"{}\", \"commit\": \"{}\"",
        nproc(),
        spec_cpus(),
        cpu_model().replace('"', "'"),
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "HEAD"]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
        assert!(spec_cpus() >= 1 && spec_cpus() <= nproc().max(1));
    }
}
