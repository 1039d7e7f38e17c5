//! The nqueen benchmark — N-queens solution counting, memory intensive,
//! depth-first-search pattern.
//!
//! The first-row column choices are explored as a speculative DFS: each
//! choice forks the continuation exploring the remaining choices (the
//! tree-form recursion the mixed model is designed for) and solves its own
//! subtree with a bitmask DFS, storing the per-subtree solution count in a
//! distinct arena cell.

use mutls_membuf::{GPtr, GlobalMemory};
use mutls_runtime::{SpecResult, TlsContext};

/// Problem configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Board size (number of queens).
    pub n: usize,
}

impl Config {
    /// Paper-scale problem: 14 queens.
    pub fn paper() -> Self {
        Config { n: 14 }
    }

    /// Scaled-down problem for simulation and native testing.
    pub fn scaled() -> Self {
        Config { n: 10 }
    }

    /// Tiny problem for unit tests.
    pub fn tiny() -> Self {
        Config { n: 7 }
    }
}

/// Arena-resident data: per-first-column solution counts.
#[derive(Debug, Clone, Copy)]
pub struct Data {
    /// `counts[c]` = number of solutions whose first-row queen is in
    /// column `c`.
    pub counts: GPtr<u64>,
}

/// Allocate the benchmark's shared data.
pub fn setup(memory: &GlobalMemory, config: &Config) -> Data {
    Data {
        counts: memory.alloc::<u64>(config.n),
    }
}

/// Count solutions of the sub-board where `cols`, `diag1`, `diag2` encode
/// already-attacked columns/diagonals, charging work per visited node.
fn solve<C: TlsContext>(
    ctx: &mut C,
    n: usize,
    row: usize,
    cols: u32,
    diag1: u32,
    diag2: u32,
) -> SpecResult<u64> {
    if row == n {
        return Ok(1);
    }
    let mut count = 0;
    let full = (1u32 << n) - 1;
    let mut free = full & !(cols | diag1 | diag2);
    while free != 0 {
        let bit = free & free.wrapping_neg();
        free -= bit;
        ctx.work(3)?;
        count += solve(
            ctx,
            n,
            row + 1,
            cols | bit,
            (diag1 | bit) << 1,
            (diag2 | bit) >> 1,
        )?;
    }
    Ok(count)
}

/// Explore first-row column `c` and store its subtree's solution count.
fn subtree<C: TlsContext>(ctx: &mut C, data: Data, config: Config, c: usize) -> SpecResult<()> {
    let bit = 1u32 << c;
    let count = solve(ctx, config.n, 1, bit, bit << 1, bit >> 1)?;
    ctx.store(&data.counts, c, count)
}

/// Fork-site ID of the first-row column continuation speculation.
pub const SITE_COLUMN: u32 = 17;
/// The speculative region: the whole search, a DFS over first-row
/// choices with the remaining choices speculated ahead.
pub fn run<C: TlsContext>(ctx: &mut C, data: Data, config: Config) -> SpecResult<()> {
    ctx.fork_range(SITE_COLUMN, 0..config.n, move |ctx: &mut C, c| {
        subtree(ctx, data, config, c)
    })
}

/// Result extractor: total number of solutions.
pub fn result(memory: &GlobalMemory, data: &Data, config: &Config) -> u64 {
    (0..config.n).map(|c| memory.get(&data.counts, c)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutls_runtime::DirectContext;
    use std::sync::Arc;

    fn count(n: usize) -> u64 {
        let config = Config { n };
        let memory = Arc::new(GlobalMemory::new(1 << 16));
        let data = setup(&memory, &config);
        run(&mut DirectContext::new(Arc::clone(&memory)), data, config).unwrap();
        result(&memory, &data, &config)
    }

    #[test]
    fn known_solution_counts() {
        assert_eq!(count(4), 2);
        assert_eq!(count(5), 10);
        assert_eq!(count(6), 4);
        assert_eq!(count(7), 40);
        assert_eq!(count(8), 92);
    }

    #[test]
    fn per_column_counts_are_symmetric() {
        let config = Config { n: 6 };
        let memory = Arc::new(GlobalMemory::new(1 << 16));
        let data = setup(&memory, &config);
        run(&mut DirectContext::new(Arc::clone(&memory)), data, config).unwrap();
        for c in 0..config.n {
            let mirror = config.n - 1 - c;
            assert_eq!(
                memory.get(&data.counts, c),
                memory.get(&data.counts, mirror),
                "column {c} vs its mirror"
            );
        }
    }
}
