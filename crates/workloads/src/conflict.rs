//! Conflict-generating workload family (repo extension, not in the
//! paper's Table II): kernels with a *tunable true-sharing rate* that
//! exercise the runtime's real cross-thread dependence validation — the
//! behaviour the paper's evaluation induced with injected rollbacks is
//! produced here by genuine read-after-future-write violations.
//!
//! * [`conflict_chain`](self) — a value chain: chunk `i` reads either the
//!   cell its logical predecessor writes (true sharing → guaranteed
//!   dependence) or a private pre-initialized cell, mixes it through a
//!   long arithmetic chain, and writes its own cell.  Under chain
//!   speculation the successor's read happens long before the
//!   predecessor's write commits, so every shared chunk is a genuine
//!   dependence violation.
//! * [`hist_shared`](self) — a shared histogram: each chunk folds its
//!   slice of items into bins; with probability `sharing` an item lands
//!   in a small globally shared bin range (read-modify-write races across
//!   chunks), otherwise in a chunk-private range (never conflicts).
//!
//! Both kernels read their cross-thread dependence *first* and write it
//! *last*, separated by the heavy mixing work — the widest possible
//! conflict window, mirroring how real loop-carried dependences behave.

use std::sync::Arc;

use mutls_membuf::{GPtr, GlobalMemory};
use mutls_runtime::{
    DirectContext, MetricsSeries, MetricsSnapshot, RunReport, Runtime, RuntimeConfig, SpecContext,
    SpecResult, TlsContext, TraceEvent,
};

/// A native run's metrics capture: the sampler-filled time series plus
/// the final end-of-run scrape (both empty-ish unless the runtime config
/// enabled the metrics plane).
pub type MetricsCapture = (MetricsSeries, MetricsSnapshot);

/// Fork-site ID of the chain-continuation speculation.
pub const SITE_CHAIN: u32 = 20;
/// Fork-site ID of the histogram chunk-continuation speculation.
pub const SITE_HIST_CHUNK: u32 = 21;

/// Arena size (bytes) ample for either kernel at any scale.
pub const ARENA_BYTES: u64 = 1 << 20;

/// SplitMix64 — the deterministic hash both kernels draw decisions from.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Data-dependent arithmetic chain of `rounds` LCG steps; the value feeds
/// the kernel's stores so the work cannot be optimized away.
fn mix_chain(seed: u64, rounds: u64) -> u64 {
    let mut y = seed | 1;
    for _ in 0..rounds {
        y = y
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    y
}

/// Check points inserted into one link's mixing chain.
const MIX_SLICES: u64 = 16;

/// [`mix_chain`] interleaved with runtime polls: the chain is cut into
/// [`MIX_SLICES`] slices with a `work`/`check_point` pair after each, the
/// way instrumented loop back-edges poll in a real TLS build.  This is
/// what lets *targeted dooming* pay off — a thread doomed mid-window
/// stops within one slice instead of finishing the whole chain.  The
/// arithmetic is identical to running [`mix_chain`] in one piece, so the
/// kernel's checksums don't depend on the slicing.
fn mix_chain_polled<C: TlsContext>(ctx: &mut C, seed: u64, rounds: u64) -> SpecResult<u64> {
    let mut y = seed | 1;
    let slice = (rounds / MIX_SLICES).max(1);
    let mut done = 0;
    while done < rounds {
        let n = slice.min(rounds - done);
        for _ in 0..n {
            y = y
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        done += n;
        ctx.work(n)?;
        ctx.check_point()?;
    }
    Ok(y)
}

// ---------------------------------------------------------------------
// conflict_chain
// ---------------------------------------------------------------------

/// Configuration of the `conflict_chain` kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainConfig {
    /// Number of chain links (speculative tasks).
    pub chunks: usize,
    /// Mixing rounds per link — the conflict window between a link's read
    /// and its predecessor's write.
    pub work_per_chunk: u64,
    /// True-sharing rate in permille (0 = fully private, 1000 = every
    /// link reads its predecessor's cell).
    pub sharing_permille: u32,
    /// Seed of the per-link sharing decision.
    pub seed: u64,
}

impl ChainConfig {
    /// Paper-style scale for native measurement runs.
    pub fn paper() -> Self {
        ChainConfig {
            chunks: 64,
            work_per_chunk: 2_000_000,
            sharing_permille: 500,
            seed: 0xC0AF_11C7,
        }
    }

    /// Scaled-down preset for sweeps.
    pub fn scaled() -> Self {
        ChainConfig {
            chunks: 64,
            work_per_chunk: 150_000,
            sharing_permille: 500,
            seed: 0xC0AF_11C7,
        }
    }

    /// Tiny preset for unit tests.  Sized so the governor still sees
    /// fork decisions after its warm-up samples even though targeted
    /// dooming resolves conflicts with little re-fork churn.
    pub fn tiny() -> Self {
        ChainConfig {
            chunks: 16,
            work_per_chunk: 150_000,
            sharing_permille: 500,
            seed: 0xC0AF_11C7,
        }
    }

    /// The preset for a problem-size scale — the single mapping shared by
    /// the registry and the harness sweeps.
    pub fn for_scale(scale: crate::registry::Scale) -> Self {
        match scale {
            crate::registry::Scale::Tiny => Self::tiny(),
            crate::registry::Scale::Scaled => Self::scaled(),
            crate::registry::Scale::Paper => Self::paper(),
        }
    }

    /// Override the true-sharing rate (builder style).
    ///
    /// # Panics
    /// Panics if `permille` exceeds 1000.
    pub fn sharing_permille(mut self, permille: u32) -> Self {
        assert!(permille <= 1000, "sharing rate is in permille (0..=1000)");
        self.sharing_permille = permille;
        self
    }
}

/// Arena-resident data of a `conflict_chain` instance.
#[derive(Debug, Clone, Copy)]
pub struct ChainData {
    /// The chain cells: link `i` writes `cells[i]`; a *sharing* link
    /// `i` reads `cells[i-1]` (its logical predecessor's output).
    pub cells: GPtr<u64>,
    /// Private per-link inputs read by non-sharing links.
    pub private: GPtr<u64>,
    /// Per-link result accumulators.
    pub partial: GPtr<u64>,
}

/// Allocate and initialize the chain's shared data.
pub fn chain_setup(memory: &GlobalMemory, config: &ChainConfig) -> ChainData {
    let cells = memory.alloc::<u64>(config.chunks);
    let private = memory.alloc::<u64>(config.chunks);
    let partial = memory.alloc::<u64>(config.chunks);
    for i in 0..config.chunks {
        memory.set(&cells, i, mix64(config.seed ^ (i as u64)));
        memory.set(&private, i, mix64(config.seed.rotate_left(17) ^ (i as u64)));
    }
    ChainData {
        cells,
        private,
        partial,
    }
}

/// Whether link `i` carries a true dependence on its predecessor.
fn chain_shared(config: &ChainConfig, i: usize) -> bool {
    i > 0 && mix64(config.seed ^ 0xD1CE ^ (i as u64)) % 1000 < config.sharing_permille as u64
}

/// Mixing rounds of link `i`: heterogeneous per link, drawn
/// deterministically from the seed in `[work/4, work*9/4)` (mean ≈
/// `work_per_chunk`).  Real loop iterations vary in cost; the variance
/// also matters mechanically — when a reader's window outlives its
/// predecessor's, there is real work left for targeted dooming to save,
/// whereas perfectly uniform windows always finish just as the doom
/// arrives.
fn chain_work(config: &ChainConfig, i: usize) -> u64 {
    let base = config.work_per_chunk;
    base / 4 + mix64(config.seed ^ 0xB10C ^ (i as u64)) % (base * 2).max(1)
}

/// One chain link: read the dependence, mix, publish.
fn chain_body<C: TlsContext>(
    ctx: &mut C,
    data: ChainData,
    config: ChainConfig,
    i: usize,
) -> SpecResult<()> {
    // Cross-thread read FIRST: the widest conflict window.
    let x = if chain_shared(&config, i) {
        ctx.load(&data.cells, i - 1)?
    } else {
        ctx.load(&data.private, i)?
    };
    // The mixing chain polls at slice boundaries, so a thread doomed by a
    // predecessor's commit stops mid-window instead of wasting it all;
    // links have heterogeneous depths (see `chain_work`).
    let y = mix_chain_polled(ctx, x, chain_work(&config, i))?;
    // Publish LAST: a speculative successor reading `cells[i]` before this
    // store commits has a genuine dependence violation.
    ctx.store(&data.cells, i, y)?;
    ctx.store(&data.partial, i, y ^ x)
}

/// The speculative region of `conflict_chain`: the links as one
/// speculated loop, as in the loop benchmarks.
pub fn chain_run<C: TlsContext>(
    ctx: &mut C,
    data: ChainData,
    config: ChainConfig,
) -> SpecResult<()> {
    ctx.fork_range(SITE_CHAIN, 0..config.chunks, move |ctx: &mut C, i| {
        chain_body(ctx, data, config, i)
    })
}

/// Result checksum over the final memory state (cells and partials).
pub fn chain_result(memory: &GlobalMemory, data: &ChainData, config: &ChainConfig) -> u64 {
    let mut acc = 0u64;
    for i in 0..config.chunks {
        acc = acc
            .rotate_left(7)
            .wrapping_add(memory.get(&data.cells, i))
            .wrapping_add(memory.get(&data.partial, i));
    }
    acc
}

// ---------------------------------------------------------------------
// hist_shared
// ---------------------------------------------------------------------

/// Configuration of the `hist_shared` kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistConfig {
    /// Total items folded into the histogram.
    pub items: u64,
    /// Number of loop chunks (speculative tasks).
    pub chunks: usize,
    /// Bins in the globally shared range.
    pub shared_bins: usize,
    /// Bins in each chunk's private range.
    pub private_bins: usize,
    /// Probability (permille) that an item lands in the shared range.
    pub sharing_permille: u32,
    /// Mixing rounds per item.
    pub work_per_item: u64,
    /// Seed of the item → bin mapping.
    pub seed: u64,
}

impl HistConfig {
    /// Paper-style scale for native measurement runs.
    pub fn paper() -> Self {
        HistConfig {
            items: 4096,
            chunks: 64,
            shared_bins: 16,
            private_bins: 16,
            sharing_permille: 500,
            work_per_item: 100_000,
            seed: 0x415B_10C5,
        }
    }

    /// Scaled-down preset for sweeps.
    pub fn scaled() -> Self {
        HistConfig {
            items: 512,
            chunks: 32,
            shared_bins: 8,
            private_bins: 8,
            sharing_permille: 500,
            work_per_item: 20_000,
            seed: 0x415B_10C5,
        }
    }

    /// Tiny preset for unit tests (see `ChainConfig::tiny` on sizing).
    pub fn tiny() -> Self {
        HistConfig {
            items: 120,
            chunks: 12,
            shared_bins: 4,
            private_bins: 4,
            sharing_permille: 500,
            work_per_item: 20_000,
            seed: 0x415B_10C5,
        }
    }

    /// The preset for a problem-size scale — the single mapping shared by
    /// the registry and the harness sweeps.
    pub fn for_scale(scale: crate::registry::Scale) -> Self {
        match scale {
            crate::registry::Scale::Tiny => Self::tiny(),
            crate::registry::Scale::Scaled => Self::scaled(),
            crate::registry::Scale::Paper => Self::paper(),
        }
    }

    /// Override the true-sharing rate (builder style).
    ///
    /// # Panics
    /// Panics if `permille` exceeds 1000.
    pub fn sharing_permille(mut self, permille: u32) -> Self {
        assert!(permille <= 1000, "sharing rate is in permille (0..=1000)");
        self.sharing_permille = permille;
        self
    }

    /// Total bins allocated (shared range + every chunk's private range).
    pub fn total_bins(&self) -> usize {
        self.shared_bins + self.chunks * self.private_bins
    }
}

/// Arena-resident data of a `hist_shared` instance.
#[derive(Debug, Clone, Copy)]
pub struct HistData {
    /// The histogram: bins `[0, shared_bins)` are shared by every chunk,
    /// then `private_bins` bins per chunk.
    pub hist: GPtr<u64>,
}

/// Allocate the histogram (all bins start at zero).
pub fn hist_setup(memory: &GlobalMemory, config: &HistConfig) -> HistData {
    HistData {
        hist: memory.alloc::<u64>(config.total_bins()),
    }
}

/// Bin index of item `j` processed by chunk `chunk`.
fn hist_bin(config: &HistConfig, chunk: usize, j: u64) -> usize {
    let h = mix64(config.seed ^ j);
    if h % 1000 < config.sharing_permille as u64 {
        ((h >> 10) as usize) % config.shared_bins
    } else {
        config.shared_bins
            + chunk * config.private_bins
            + ((h >> 10) as usize) % config.private_bins
    }
}

/// Fold chunk `chunk`'s slice of items into the histogram.
fn hist_body<C: TlsContext>(
    ctx: &mut C,
    data: HistData,
    config: HistConfig,
    chunk: usize,
) -> SpecResult<()> {
    let per = config.items / config.chunks as u64;
    let lo = chunk as u64 * per;
    let hi = if chunk + 1 == config.chunks {
        config.items
    } else {
        lo + per
    };
    for j in lo..hi {
        let bin = hist_bin(&config, chunk, j);
        // Read-modify-write: the read opens the conflict window, the heavy
        // mixing keeps it open, the store closes it.
        let v = ctx.load(&data.hist, bin)?;
        let y = mix_chain(mix64(config.seed ^ j), config.work_per_item);
        ctx.work(config.work_per_item)?;
        ctx.store(&data.hist, bin, v.wrapping_add(1 + (y & 0xF)))?;
        ctx.check_point()?;
    }
    Ok(())
}

/// The speculative region of `hist_shared`: the histogram chunks as one
/// speculated loop.
pub fn hist_run<C: TlsContext>(ctx: &mut C, data: HistData, config: HistConfig) -> SpecResult<()> {
    ctx.fork_range(
        SITE_HIST_CHUNK,
        0..config.chunks,
        move |ctx: &mut C, chunk| hist_body(ctx, data, config, chunk),
    )
}

/// Result checksum over the final histogram.
pub fn hist_result(memory: &GlobalMemory, data: &HistData, config: &HistConfig) -> u64 {
    let mut acc = 0u64;
    for bin in 0..config.total_bins() {
        acc = acc.rotate_left(9).wrapping_add(memory.get(&data.hist, bin));
    }
    acc
}

// ---------------------------------------------------------------------
// native verification
// ---------------------------------------------------------------------

/// Run one kernel sequentially through a fresh arena and return its
/// result checksum — the correctness reference of every native run.
fn reference_of<Cfg: Copy, D: Copy>(
    config: Cfg,
    setup: fn(&GlobalMemory, &Cfg) -> D,
    run_seq: fn(&mut DirectContext, D, Cfg) -> SpecResult<()>,
    result: fn(&GlobalMemory, &D, &Cfg) -> u64,
) -> u64 {
    let memory = Arc::new(GlobalMemory::new(ARENA_BYTES));
    let data = setup(&memory, &config);
    let mut ctx = DirectContext::new(Arc::clone(&memory));
    run_seq(&mut ctx, data, config).expect("sequential run cannot abort");
    result(&memory, &data, &config)
}

/// Run one kernel on the native runtime and return its result checksum,
/// the run report, the drained flight recorder (events, dropped count —
/// empty unless `runtime_config` enabled event tracing) and the metrics
/// capture (time series + final scrape).
fn native_observed_run_of<Cfg: Copy, D: Copy + Send + Sync + 'static>(
    config: Cfg,
    runtime_config: RuntimeConfig,
    setup: fn(&GlobalMemory, &Cfg) -> D,
    run_spec: fn(&mut SpecContext, D, Cfg) -> SpecResult<()>,
    result: fn(&GlobalMemory, &D, &Cfg) -> u64,
) -> (u64, RunReport, (Vec<TraceEvent>, u64), MetricsCapture) {
    let runtime = Runtime::new(runtime_config.memory_bytes(ARENA_BYTES));
    let memory = runtime.memory();
    let data = setup(&memory, &config);
    let (_, report) = runtime.run(|ctx| run_spec(ctx, data, config));
    let capture = (runtime.drain_trace_events(), runtime.trace_dropped());
    let metrics = (runtime.metrics_series(), runtime.metrics_snapshot());
    (result(&memory, &data, &config), report, capture, metrics)
}

/// Sequential reference checksum of `conflict_chain` for `config`.
/// Compute it once per configuration when sweeping policies — the
/// reference does not depend on the runtime configuration.
pub fn chain_reference(config: ChainConfig) -> u64 {
    reference_of(
        config,
        chain_setup,
        chain_run::<DirectContext>,
        chain_result,
    )
}

/// Run `conflict_chain` on the native runtime: its checksum (compare
/// with [`chain_reference`]), the run report, the drained flight recorder
/// and the metrics capture (both empty unless the config enabled them).
pub fn chain_native_observed(
    config: ChainConfig,
    runtime_config: RuntimeConfig,
) -> (u64, RunReport, (Vec<TraceEvent>, u64), MetricsCapture) {
    native_observed_run_of(
        config,
        runtime_config,
        chain_setup,
        chain_run::<SpecContext>,
        chain_result,
    )
}

/// Native verification of `conflict_chain`: `true` iff the native run's
/// final memory state equals the sequential reference.
pub fn chain_verify_native(
    config: ChainConfig,
    runtime_config: RuntimeConfig,
) -> (bool, RunReport) {
    let reference = chain_reference(config);
    let (got, report, ..) = chain_native_observed(config, runtime_config);
    (got == reference, report)
}

/// Sequential reference checksum of `hist_shared` for `config`.
pub fn hist_reference(config: HistConfig) -> u64 {
    reference_of(config, hist_setup, hist_run::<DirectContext>, hist_result)
}

/// Run `hist_shared` on the native runtime; see
/// [`chain_native_observed`] for the tuple.
pub fn hist_native_observed(
    config: HistConfig,
    runtime_config: RuntimeConfig,
) -> (u64, RunReport, (Vec<TraceEvent>, u64), MetricsCapture) {
    native_observed_run_of(
        config,
        runtime_config,
        hist_setup,
        hist_run::<SpecContext>,
        hist_result,
    )
}

/// Native verification of `hist_shared`.
pub fn hist_verify_native(config: HistConfig, runtime_config: RuntimeConfig) -> (bool, RunReport) {
    let reference = hist_reference(config);
    let (got, report, ..) = hist_native_observed(config, runtime_config);
    (got == reference, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutls_runtime::DirectContext;
    use std::sync::Arc;

    fn chain_reference(config: &ChainConfig) -> u64 {
        let memory = Arc::new(GlobalMemory::new(1 << 16));
        let data = chain_setup(&memory, config);
        let mut ctx = DirectContext::new(Arc::clone(&memory));
        chain_run(&mut ctx, data, *config).unwrap();
        chain_result(&memory, &data, config)
    }

    fn hist_reference(config: &HistConfig) -> u64 {
        let memory = Arc::new(GlobalMemory::new(1 << 16));
        let data = hist_setup(&memory, config);
        let mut ctx = DirectContext::new(Arc::clone(&memory));
        hist_run(&mut ctx, data, *config).unwrap();
        hist_result(&memory, &data, config)
    }

    #[test]
    fn chain_is_deterministic_sequentially() {
        let fast = ChainConfig {
            work_per_chunk: 64,
            ..ChainConfig::tiny()
        };
        assert_eq!(chain_reference(&fast), chain_reference(&fast));
        // The sharing rate changes the dataflow, hence the result.
        let private = fast.sharing_permille(0);
        assert_ne!(chain_reference(&fast), chain_reference(&private));
    }

    #[test]
    fn chain_sharing_rate_extremes() {
        let all = ChainConfig::tiny().sharing_permille(1000);
        let none = ChainConfig::tiny().sharing_permille(0);
        assert!((1..all.chunks).all(|i| chain_shared(&all, i)));
        assert!(!chain_shared(&all, 0), "link 0 has no predecessor");
        assert!((0..none.chunks).all(|i| !chain_shared(&none, i)));
    }

    #[test]
    fn hist_is_deterministic_and_bins_stay_in_range() {
        let fast = HistConfig {
            work_per_item: 16,
            ..HistConfig::tiny()
        };
        assert_eq!(hist_reference(&fast), hist_reference(&fast));
        for chunk in 0..fast.chunks {
            for j in 0..fast.items {
                let bin = hist_bin(&fast, chunk, j);
                assert!(bin < fast.total_bins());
            }
        }
    }

    #[test]
    fn hist_private_bins_are_disjoint_across_chunks() {
        let cfg = HistConfig::tiny().sharing_permille(0);
        for chunk in 0..cfg.chunks {
            for j in 0..cfg.items {
                let bin = hist_bin(&cfg, chunk, j);
                let lo = cfg.shared_bins + chunk * cfg.private_bins;
                assert!((lo..lo + cfg.private_bins).contains(&bin));
            }
        }
    }

    #[test]
    #[should_panic(expected = "permille")]
    fn sharing_rate_is_validated() {
        let _ = ChainConfig::tiny().sharing_permille(1001);
    }
}
