//! The tsp benchmark — exact travelling-salesperson search, memory
//! intensive, depth-first-search pattern.
//!
//! A branch-and-bound DFS over tours starting at city 0.  The second-city
//! choices form the top level of the speculative DFS (each choice forks
//! the continuation exploring the remaining choices); every subtree keeps
//! its own best-tour length in a distinct arena cell so subtrees are
//! independent, as in the paper's embarrassingly parallel configuration.
//! The distance matrix lives in the arena and is read through the TLS
//! context, which is what makes the benchmark memory intensive.

use mutls_membuf::{GPtr, GlobalMemory};
use mutls_runtime::{SpecResult, TlsContext};

/// Problem configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Number of cities.
    pub cities: usize,
}

impl Config {
    /// Paper-scale problem: 12 cities.
    pub fn paper() -> Self {
        Config { cities: 12 }
    }

    /// Scaled-down problem for simulation and native testing.
    pub fn scaled() -> Self {
        Config { cities: 9 }
    }

    /// Tiny problem for unit tests.
    pub fn tiny() -> Self {
        Config { cities: 6 }
    }
}

/// Arena-resident data.
#[derive(Debug, Clone, Copy)]
pub struct Data {
    /// Row-major distance matrix (quantized to integers).
    pub dist: GPtr<u64>,
    /// Best tour length found in each second-city subtree.
    pub best: GPtr<u64>,
}

/// Allocate and deterministically initialize city coordinates / distances.
pub fn setup(memory: &GlobalMemory, config: &Config) -> Data {
    let n = config.cities;
    let data = Data {
        dist: memory.alloc::<u64>(n * n),
        best: memory.alloc::<u64>(n),
    };
    // Deterministic city layout on a noisy circle.
    let coords: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            let angle = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            let radius = 100.0 + 37.0 * ((i * 2654435761) % 97) as f64 / 97.0;
            (radius * angle.cos(), radius * angle.sin())
        })
        .collect();
    for i in 0..n {
        for j in 0..n {
            let dx = coords[i].0 - coords[j].0;
            let dy = coords[i].1 - coords[j].1;
            memory.set(&data.dist, i * n + j, (dx * dx + dy * dy).sqrt() as u64);
        }
    }
    for i in 0..n {
        memory.set(&data.best, i, u64::MAX);
    }
    data
}

/// Branch-and-bound DFS over the remaining cities.
#[allow(clippy::too_many_arguments)]
fn search<C: TlsContext>(
    ctx: &mut C,
    data: Data,
    n: usize,
    visited: u32,
    current: usize,
    length: u64,
    best: &mut u64,
) -> SpecResult<()> {
    ctx.work(2)?;
    if length >= *best {
        return Ok(()); // bound
    }
    if visited == (1u32 << n) - 1 {
        let back = ctx.load(&data.dist, current * n)?;
        let total = length + back;
        if total < *best {
            *best = total;
        }
        return Ok(());
    }
    for next in 1..n {
        if visited & (1 << next) != 0 {
            continue;
        }
        let step = ctx.load(&data.dist, current * n + next)?;
        search(
            ctx,
            data,
            n,
            visited | (1 << next),
            next,
            length + step,
            best,
        )?;
    }
    Ok(())
}

/// Explore the subtree whose second city is `second`.
fn subtree<C: TlsContext>(
    ctx: &mut C,
    data: Data,
    config: Config,
    second: usize,
) -> SpecResult<()> {
    let n = config.cities;
    let first_leg = ctx.load(&data.dist, second)?;
    let mut best = u64::MAX;
    search(
        ctx,
        data,
        n,
        1 | (1 << second),
        second,
        first_leg,
        &mut best,
    )?;
    ctx.store(&data.best, second, best)
}

/// Fork-site ID of the second-city continuation speculation.
pub const SITE_SECOND_CITY: u32 = 18;
/// The speculative region: the whole search, a DFS over second-city
/// choices (1..n) with the remaining choices speculated ahead.
pub fn run<C: TlsContext>(ctx: &mut C, data: Data, config: Config) -> SpecResult<()> {
    ctx.fork_range(
        SITE_SECOND_CITY,
        1..config.cities,
        move |ctx: &mut C, second| subtree(ctx, data, config, second),
    )
}

/// Result extractor: the optimal tour length.
pub fn result(memory: &GlobalMemory, data: &Data, config: &Config) -> u64 {
    (1..config.cities)
        .map(|c| memory.get(&data.best, c))
        .min()
        .unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutls_runtime::DirectContext;
    use std::sync::Arc;

    /// Brute-force optimum on host copies of the distance matrix.
    fn brute_force(memory: &GlobalMemory, data: &Data, n: usize) -> u64 {
        let dist: Vec<u64> = (0..n * n).map(|i| memory.get(&data.dist, i)).collect();
        let mut cities: Vec<usize> = (1..n).collect();
        let mut best = u64::MAX;
        permute(&mut cities, 0, &dist, n, &mut best);
        best
    }

    fn permute(cities: &mut Vec<usize>, k: usize, dist: &[u64], n: usize, best: &mut u64) {
        if k == cities.len() {
            let mut len = 0;
            let mut prev = 0;
            for &c in cities.iter() {
                len += dist[prev * n + c];
                prev = c;
            }
            len += dist[prev * n];
            *best = (*best).min(len);
            return;
        }
        for i in k..cities.len() {
            cities.swap(k, i);
            permute(cities, k + 1, dist, n, best);
            cities.swap(k, i);
        }
    }

    #[test]
    fn finds_the_optimal_tour() {
        let config = Config::tiny();
        let memory = Arc::new(GlobalMemory::new(1 << 16));
        let data = setup(&memory, &config);
        run(&mut DirectContext::new(Arc::clone(&memory)), data, config).unwrap();
        let got = result(&memory, &data, &config);
        let want = brute_force(&memory, &data, config.cities);
        assert_eq!(got, want);
    }

    #[test]
    fn distances_are_symmetric_with_zero_diagonal() {
        let config = Config::tiny();
        let memory = Arc::new(GlobalMemory::new(1 << 16));
        let data = setup(&memory, &config);
        let n = config.cities;
        for i in 0..n {
            assert_eq!(memory.get(&data.dist, i * n + i), 0);
            for j in 0..n {
                assert_eq!(
                    memory.get(&data.dist, i * n + j),
                    memory.get(&data.dist, j * n + i)
                );
            }
        }
    }
}
