//! The 3x+1 (Collatz) benchmark — computation intensive, loop pattern.
//!
//! Enumerates the integers `1..=n`, counts the Collatz steps of each, and
//! accumulates per-chunk partial step counts.  The speculative version
//! splits the range into `chunks` chunks and speculates on the loop
//! continuation (the paper's workload-distribution strategy splits the
//! computation into 64 loop iterations).

use mutls_membuf::{GPtr, GlobalMemory};
use mutls_runtime::{SpecResult, TlsContext};

/// Problem configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Number of integers to enumerate.
    pub n: u64,
    /// Number of loop chunks (speculative tasks).
    pub chunks: usize,
}

impl Config {
    /// Paper-scale problem: 40 M integers, 64 chunks.
    pub fn paper() -> Self {
        Config {
            n: 40_000_000,
            chunks: 64,
        }
    }

    /// Scaled-down problem for simulation and native testing.
    pub fn scaled() -> Self {
        Config {
            n: 60_000,
            chunks: 64,
        }
    }

    /// Tiny problem for unit tests.
    pub fn tiny() -> Self {
        Config { n: 500, chunks: 8 }
    }
}

/// Arena-resident data: one partial step count per chunk.
#[derive(Debug, Clone, Copy)]
pub struct Data {
    /// Per-chunk partial sums of Collatz step counts.
    pub partial: GPtr<u64>,
}

/// Allocate the benchmark's shared data.
pub fn setup(memory: &GlobalMemory, config: &Config) -> Data {
    Data {
        partial: memory.alloc::<u64>(config.chunks),
    }
}

/// Number of Collatz steps until `x` reaches 1.
fn collatz_steps(mut x: u64) -> u64 {
    let mut steps = 0;
    while x != 1 {
        x = if x.is_multiple_of(2) {
            x / 2
        } else {
            3 * x + 1
        };
        steps += 1;
    }
    steps
}

/// Process chunk `i`: count steps for its sub-range and store the partial
/// sum.
fn chunk_body<C: TlsContext>(ctx: &mut C, data: Data, config: Config, i: usize) -> SpecResult<()> {
    let per = config.n / config.chunks as u64;
    let lo = 1 + i as u64 * per;
    let hi = if i + 1 == config.chunks {
        config.n
    } else {
        lo + per - 1
    };
    let mut sum = 0u64;
    for x in lo..=hi {
        let steps = collatz_steps(x);
        ctx.work(steps)?;
        sum += steps;
    }
    ctx.store(&data.partial, i, sum)
}

/// Fork-site ID of the chunk-loop continuation speculation.
pub const SITE_CHUNK: u32 = 10;

/// The speculative region: processes all chunks, later chunks
/// speculated ahead of earlier ones.
pub fn run<C: TlsContext>(ctx: &mut C, data: Data, config: Config) -> SpecResult<()> {
    ctx.fork_range(SITE_CHUNK, 0..config.chunks, move |ctx: &mut C, i| {
        chunk_body(ctx, data, config, i)
    })
}

/// Result extractor: total step count across all chunks.
pub fn result(memory: &GlobalMemory, data: &Data, config: &Config) -> u64 {
    (0..config.chunks)
        .map(|i| memory.get(&data.partial, i))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutls_runtime::DirectContext;
    use std::sync::Arc;

    #[test]
    fn collatz_known_values() {
        assert_eq!(collatz_steps(1), 0);
        assert_eq!(collatz_steps(2), 1);
        assert_eq!(collatz_steps(6), 8);
        assert_eq!(collatz_steps(27), 111);
    }

    #[test]
    fn direct_run_matches_plain_computation() {
        let config = Config::tiny();
        let memory = Arc::new(GlobalMemory::new(1 << 16));
        let data = setup(&memory, &config);
        let mut ctx = DirectContext::new(Arc::clone(&memory));
        run(&mut ctx, data, config).unwrap();
        let expected: u64 = (1..=config.n).map(collatz_steps).sum();
        assert_eq!(result(&memory, &data, &config), expected);
        assert!(ctx.work_units() > 0);
    }

    #[test]
    fn chunk_ranges_cover_everything_exactly_once() {
        let config = Config { n: 103, chunks: 8 };
        let memory = Arc::new(GlobalMemory::new(1 << 16));
        let data = setup(&memory, &config);
        let mut ctx = DirectContext::new(Arc::clone(&memory));
        run(&mut ctx, data, config).unwrap();
        let expected: u64 = (1..=config.n).map(collatz_steps).sum();
        assert_eq!(result(&memory, &data, &config), expected);
    }
}
