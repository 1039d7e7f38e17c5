//! The mandelbrot benchmark — computation intensive, loop pattern.
//!
//! Generates a `width × height` escape-time image with up to `max_iter`
//! iterations per pixel.  Rows are grouped into chunks and the loop
//! continuation is speculated, as in the paper's loop speculation.

use mutls_membuf::{GPtr, GlobalMemory};
use mutls_runtime::{SpecResult, TlsContext};

/// Problem configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Maximum escape-time iterations per pixel.
    pub max_iter: u32,
    /// Number of row chunks (speculative tasks).
    pub chunks: usize,
}

impl Config {
    /// Paper-scale problem: 512×512 image, 80 000 iterations.
    pub fn paper() -> Self {
        Config {
            width: 512,
            height: 512,
            max_iter: 80_000,
            chunks: 64,
        }
    }

    /// Scaled-down problem for simulation and native testing.
    pub fn scaled() -> Self {
        Config {
            width: 64,
            height: 64,
            max_iter: 2_000,
            chunks: 64,
        }
    }

    /// Tiny problem for unit tests.
    pub fn tiny() -> Self {
        Config {
            width: 16,
            height: 16,
            max_iter: 100,
            chunks: 4,
        }
    }
}

/// Arena-resident data: the iteration-count image.
#[derive(Debug, Clone, Copy)]
pub struct Data {
    /// Row-major iteration counts.
    pub image: GPtr<u64>,
}

/// Allocate the benchmark's shared data.
pub fn setup(memory: &GlobalMemory, config: &Config) -> Data {
    Data {
        image: memory.alloc::<u64>(config.width * config.height),
    }
}

/// Escape-time iteration count for one pixel.
fn escape_time(cx: f64, cy: f64, max_iter: u32) -> u32 {
    let (mut x, mut y) = (0.0f64, 0.0f64);
    let mut i = 0;
    while i < max_iter && x * x + y * y <= 4.0 {
        let nx = x * x - y * y + cx;
        y = 2.0 * x * y + cy;
        x = nx;
        i += 1;
    }
    i
}

/// Rows of chunk `chunk`, assigned round-robin so that the expensive rows
/// (those crossing the set) are spread across chunks.
fn chunk_rows(config: &Config, chunk: usize) -> impl Iterator<Item = usize> {
    (chunk..config.height).step_by(config.chunks.max(1))
}

/// Render the rows of chunk `i`.
fn chunk_body<C: TlsContext>(ctx: &mut C, data: Data, config: Config, i: usize) -> SpecResult<()> {
    for row in chunk_rows(&config, i) {
        let cy = -1.5 + 3.0 * row as f64 / config.height as f64;
        for col in 0..config.width {
            let cx = -2.0 + 3.0 * col as f64 / config.width as f64;
            let iters = escape_time(cx, cy, config.max_iter);
            ctx.work(iters as u64 + 1)?;
            ctx.store(&data.image, row * config.width + col, iters as u64)?;
        }
    }
    Ok(())
}

/// Fork-site ID of the row-chunk continuation speculation.
pub const SITE_CHUNK: u32 = 11;

/// The speculative region: renders the whole image, later row chunks
/// speculated ahead of earlier ones.
pub fn run<C: TlsContext>(ctx: &mut C, data: Data, config: Config) -> SpecResult<()> {
    ctx.fork_range(SITE_CHUNK, 0..config.chunks, move |ctx: &mut C, i| {
        chunk_body(ctx, data, config, i)
    })
}

/// Result extractor: sum of all iteration counts (image checksum).
pub fn result(memory: &GlobalMemory, data: &Data, config: &Config) -> u64 {
    (0..config.width * config.height)
        .map(|i| memory.get(&data.image, i))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutls_runtime::DirectContext;
    use std::sync::Arc;

    #[test]
    fn escape_time_basics() {
        // The origin never escapes; far-away points escape immediately.
        assert_eq!(escape_time(0.0, 0.0, 50), 50);
        assert_eq!(escape_time(2.0, 2.0, 50), 1);
    }

    #[test]
    fn chunk_rows_partition_the_image() {
        let config = Config {
            width: 8,
            height: 10,
            max_iter: 10,
            chunks: 4,
        };
        let mut covered: Vec<usize> = (0..config.chunks)
            .flat_map(|c| chunk_rows(&config, c).collect::<Vec<_>>())
            .collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..config.height).collect::<Vec<_>>());
    }

    #[test]
    fn direct_run_fills_every_pixel() {
        let config = Config::tiny();
        let memory = Arc::new(GlobalMemory::new(1 << 20));
        let data = setup(&memory, &config);
        let mut ctx = DirectContext::new(Arc::clone(&memory));
        run(&mut ctx, data, config).unwrap();
        let sum = result(&memory, &data, &config);
        assert!(sum > 0);
        // Interior pixel (center of the set) must hit max_iter.
        let center = (config.height / 2) * config.width + config.width / 3;
        assert_eq!(memory.get(&data.image, center), config.max_iter as u64);
    }
}
