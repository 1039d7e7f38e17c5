//! The md benchmark — 3D molecular dynamics, computation intensive, loop
//! pattern.
//!
//! A velocity-Verlet style simulation of `particles` point masses with a
//! soft pairwise potential over `steps` time steps.  Within each step the
//! O(N²) force computation is split into particle chunks whose loop
//! continuation is speculated; the integration update is performed by the
//! non-speculative thread between steps (it is a tiny fraction of the
//! work, as in the original benchmark).

use mutls_membuf::{GPtr, GlobalMemory};
use mutls_runtime::{SpecResult, TlsContext};

/// Problem configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Number of particles.
    pub particles: usize,
    /// Number of simulation steps.
    pub steps: usize,
    /// Number of force chunks per step (speculative tasks).
    pub chunks: usize,
}

impl Config {
    /// Paper-scale problem: 256 particles, 400 steps.
    pub fn paper() -> Self {
        Config {
            particles: 256,
            steps: 400,
            chunks: 64,
        }
    }

    /// Scaled-down problem for simulation and native testing.
    pub fn scaled() -> Self {
        Config {
            particles: 128,
            steps: 6,
            chunks: 32,
        }
    }

    /// Tiny problem for unit tests.
    pub fn tiny() -> Self {
        Config {
            particles: 16,
            steps: 2,
            chunks: 4,
        }
    }
}

/// Arena-resident particle state (structure of arrays, 3 coordinates each).
#[derive(Debug, Clone, Copy)]
pub struct Data {
    /// Positions, laid out `[x0..xn, y0..yn, z0..zn]`.
    pub pos: GPtr<f64>,
    /// Velocities, same layout.
    pub vel: GPtr<f64>,
    /// Forces, same layout.
    pub force: GPtr<f64>,
}

/// Allocate and deterministically initialize the particle system.
pub fn setup(memory: &GlobalMemory, config: &Config) -> Data {
    let n = config.particles;
    let data = Data {
        pos: memory.alloc::<f64>(3 * n),
        vel: memory.alloc::<f64>(3 * n),
        force: memory.alloc::<f64>(3 * n),
    };
    // Deterministic pseudo-random initial positions in a unit box.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for d in 0..3 {
        for i in 0..n {
            memory.set(&data.pos, d * n + i, next());
            memory.set(&data.vel, d * n + i, 0.0);
            memory.set(&data.force, d * n + i, 0.0);
        }
    }
    data
}

/// Compute forces on the particles of chunk `chunk` from all particles.
fn force_chunk<C: TlsContext>(
    ctx: &mut C,
    data: Data,
    config: Config,
    chunk: usize,
) -> SpecResult<()> {
    let n = config.particles;
    let per = n.div_ceil(config.chunks);
    let lo = chunk * per;
    let hi = ((chunk + 1) * per).min(n);
    for i in lo..hi {
        let xi = ctx.load(&data.pos, i)?;
        let yi = ctx.load(&data.pos, n + i)?;
        let zi = ctx.load(&data.pos, 2 * n + i)?;
        let (mut fx, mut fy, mut fz) = (0.0f64, 0.0f64, 0.0f64);
        for j in 0..n {
            if i == j {
                continue;
            }
            let dx = ctx.load(&data.pos, j)? - xi;
            let dy = ctx.load(&data.pos, n + j)? - yi;
            let dz = ctx.load(&data.pos, 2 * n + j)? - zi;
            let r2 = dx * dx + dy * dy + dz * dz + 1e-6;
            // Soft attractive/repulsive potential.
            let inv = 1.0 / r2;
            let mag = inv * inv - 0.5 * inv;
            fx += mag * dx;
            fy += mag * dy;
            fz += mag * dz;
            ctx.work(40)?;
        }
        ctx.store(&data.force, i, fx)?;
        ctx.store(&data.force, n + i, fy)?;
        ctx.store(&data.force, 2 * n + i, fz)?;
    }
    Ok(())
}

/// Fork-site ID of the force-phase chunk continuation speculation.
pub const SITE_FORCE_CHUNK: u32 = 12;
/// Speculation over the force chunks within one step.
fn force_phase<C: TlsContext>(ctx: &mut C, data: Data, config: Config) -> SpecResult<()> {
    ctx.fork_range(
        SITE_FORCE_CHUNK,
        0..config.chunks,
        move |ctx: &mut C, chunk| force_chunk(ctx, data, config, chunk),
    )
}

/// Integrate positions and velocities (non-speculative part of each step).
fn integrate<C: TlsContext>(ctx: &mut C, data: Data, config: Config) -> SpecResult<()> {
    let n = config.particles;
    let dt = 1e-3;
    for d in 0..3 {
        for i in 0..n {
            let f = ctx.load(&data.force, d * n + i)?;
            let v = ctx.load(&data.vel, d * n + i)? + dt * f;
            let p = ctx.load(&data.pos, d * n + i)? + dt * v;
            ctx.store(&data.vel, d * n + i, v)?;
            ctx.store(&data.pos, d * n + i, p)?;
            ctx.work(4)?;
        }
    }
    Ok(())
}

/// The speculative region: all simulation steps.
pub fn run<C: TlsContext>(ctx: &mut C, data: Data, config: Config) -> SpecResult<()> {
    for _ in 0..config.steps {
        force_phase(ctx, data, config)?;
        integrate(ctx, data, config)?;
    }
    Ok(())
}

/// Result extractor: quantized sum of final positions.
pub fn result(memory: &GlobalMemory, data: &Data, config: &Config) -> u64 {
    let n = config.particles;
    let mut acc = 0i64;
    for i in 0..3 * n {
        acc = acc.wrapping_add((memory.get(&data.pos, i) * 1e9).round() as i64);
    }
    acc as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutls_runtime::DirectContext;
    use std::sync::Arc;

    #[test]
    fn setup_is_deterministic() {
        let config = Config::tiny();
        let m1 = Arc::new(GlobalMemory::new(1 << 20));
        let m2 = Arc::new(GlobalMemory::new(1 << 20));
        let d1 = setup(&m1, &config);
        let d2 = setup(&m2, &config);
        for i in 0..3 * config.particles {
            assert_eq!(m1.get(&d1.pos, i), m2.get(&d2.pos, i));
        }
    }

    #[test]
    fn particles_move_under_forces() {
        let config = Config::tiny();
        let memory = Arc::new(GlobalMemory::new(1 << 20));
        let data = setup(&memory, &config);
        let before = result(&memory, &data, &config);
        let mut ctx = DirectContext::new(Arc::clone(&memory));
        run(&mut ctx, data, config).unwrap();
        let after = result(&memory, &data, &config);
        assert_ne!(before, after, "positions should change");
        // Positions stay finite.
        for i in 0..3 * config.particles {
            assert!(memory.get(&data.pos, i).is_finite());
        }
    }

    #[test]
    fn direct_run_is_reproducible() {
        let config = Config::tiny();
        let m1 = Arc::new(GlobalMemory::new(1 << 20));
        let d1 = setup(&m1, &config);
        run(&mut DirectContext::new(Arc::clone(&m1)), d1, config).unwrap();
        let m2 = Arc::new(GlobalMemory::new(1 << 20));
        let d2 = setup(&m2, &config);
        run(&mut DirectContext::new(Arc::clone(&m2)), d2, config).unwrap();
        assert_eq!(result(&m1, &d1, &config), result(&m2, &d2, &config));
    }
}
