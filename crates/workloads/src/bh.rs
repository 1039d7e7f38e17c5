//! The bh benchmark — Barnes-Hut N-body force calculation, memory
//! intensive, loop pattern.
//!
//! Bodies live in the shared arena.  Each step the quadtree is built by
//! the non-speculative thread (sequential, as in common parallel BH
//! codes), its nodes are stored in arena arrays, and the O(N log N) force
//! evaluation is split into body chunks whose loop continuation is
//! speculated.  The force phase traverses the tree through TLS loads,
//! which is what makes the benchmark memory intensive.

use mutls_membuf::{GPtr, GlobalMemory};
use mutls_runtime::{SpecResult, TlsContext};

/// Problem configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Number of bodies.
    pub bodies: usize,
    /// Number of force-evaluation steps.
    pub steps: usize,
    /// Number of body chunks per step (speculative tasks).
    pub chunks: usize,
    /// Barnes-Hut opening angle θ.
    pub theta: f64,
}

impl Config {
    /// Paper-scale problem: 12 800 bodies.
    pub fn paper() -> Self {
        Config {
            bodies: 12_800,
            steps: 4,
            chunks: 64,
            theta: 0.5,
        }
    }

    /// Scaled-down problem for simulation and native testing.
    pub fn scaled() -> Self {
        Config {
            bodies: 512,
            steps: 2,
            chunks: 32,
            theta: 0.5,
        }
    }

    /// Tiny problem for unit tests.
    pub fn tiny() -> Self {
        Config {
            bodies: 32,
            steps: 1,
            chunks: 4,
            theta: 0.5,
        }
    }
}

/// Maximum quadtree nodes allocated (4·bodies is ample for a quadtree with
/// one body per leaf).
fn max_nodes(bodies: usize) -> usize {
    8 * bodies.max(4)
}

/// Arena-resident data.
#[derive(Debug, Clone, Copy)]
pub struct Data {
    /// Body x positions.
    pub x: GPtr<f64>,
    /// Body y positions.
    pub y: GPtr<f64>,
    /// Body masses.
    pub mass: GPtr<f64>,
    /// Body x accelerations (output of the force phase).
    pub ax: GPtr<f64>,
    /// Body y accelerations.
    pub ay: GPtr<f64>,
    /// Quadtree node centre-of-mass x.
    pub node_x: GPtr<f64>,
    /// Quadtree node centre-of-mass y.
    pub node_y: GPtr<f64>,
    /// Quadtree node total mass.
    pub node_mass: GPtr<f64>,
    /// Quadtree node cell side length.
    pub node_size: GPtr<f64>,
    /// Quadtree children indices (4 per node; 0 = none, else index+1).
    pub node_child: GPtr<u64>,
    /// Body index + 1 when the node is a leaf holding a single body.
    pub node_body: GPtr<u64>,
    /// Number of quadtree nodes in use (cell 0).
    pub node_count: GPtr<u64>,
}

/// Allocate and deterministically initialize the bodies.
pub fn setup(memory: &GlobalMemory, config: &Config) -> Data {
    let n = config.bodies;
    let m = max_nodes(n);
    let data = Data {
        x: memory.alloc::<f64>(n),
        y: memory.alloc::<f64>(n),
        mass: memory.alloc::<f64>(n),
        ax: memory.alloc::<f64>(n),
        ay: memory.alloc::<f64>(n),
        node_x: memory.alloc::<f64>(m),
        node_y: memory.alloc::<f64>(m),
        node_mass: memory.alloc::<f64>(m),
        node_size: memory.alloc::<f64>(m),
        node_child: memory.alloc::<u64>(4 * m),
        node_body: memory.alloc::<u64>(m),
        node_count: memory.alloc::<u64>(1),
    };
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for i in 0..n {
        memory.set(&data.x, i, next() * 1000.0);
        memory.set(&data.y, i, next() * 1000.0);
        memory.set(&data.mass, i, 1.0 + next());
    }
    data
}

/// Host-side quadtree node used during (sequential) tree construction.
#[derive(Debug, Clone, Copy)]
struct BuildNode {
    cx: f64,
    cy: f64,
    half: f64,
    com_x: f64,
    com_y: f64,
    mass: f64,
    child: [usize; 4],
    /// Single resident body `(index, x, y, mass)` while the node is a leaf.
    body: Option<(usize, f64, f64, f64)>,
}

impl BuildNode {
    fn new(cx: f64, cy: f64, half: f64) -> Self {
        BuildNode {
            cx,
            cy,
            half,
            com_x: 0.0,
            com_y: 0.0,
            mass: 0.0,
            child: [usize::MAX; 4],
            body: None,
        }
    }

    fn is_leaf(&self) -> bool {
        self.child.iter().all(|&c| c == usize::MAX)
    }
}

/// Build the quadtree from the current body positions and publish it into
/// the arena node arrays (performed by the non-speculative thread).
fn build_tree<C: TlsContext>(ctx: &mut C, data: Data, config: Config) -> SpecResult<()> {
    let n = config.bodies;
    let mut bodies = Vec::with_capacity(n);
    for i in 0..n {
        bodies.push((
            ctx.load(&data.x, i)?,
            ctx.load(&data.y, i)?,
            ctx.load(&data.mass, i)?,
        ));
    }
    let half = 600.0;
    let mut nodes = vec![BuildNode::new(500.0, 500.0, half)];
    for (i, &(bx, by, bm)) in bodies.iter().enumerate() {
        insert(&mut nodes, 0, (i, bx, by, bm), 0);
        ctx.work(4)?;
    }
    // Publish the tree into the arena (truncate if the node budget is hit).
    let limit = max_nodes(n);
    let count = nodes.len().min(limit);
    ctx.store(&data.node_count, 0, count as u64)?;
    for (idx, node) in nodes.iter().take(count).enumerate() {
        let (com_x, com_y) = if node.mass > 0.0 {
            (node.com_x / node.mass, node.com_y / node.mass)
        } else {
            (node.cx, node.cy)
        };
        ctx.store(&data.node_x, idx, com_x)?;
        ctx.store(&data.node_y, idx, com_y)?;
        ctx.store(&data.node_mass, idx, node.mass)?;
        ctx.store(&data.node_size, idx, node.half * 2.0)?;
        ctx.store(
            &data.node_body,
            idx,
            node.body.map(|(i, ..)| i as u64 + 1).unwrap_or(0),
        )?;
        for q in 0..4 {
            let c = node.child[q];
            let encoded = if c == usize::MAX || c >= limit {
                0
            } else {
                c as u64 + 1
            };
            ctx.store(&data.node_child, 4 * idx + q, encoded)?;
        }
    }
    Ok(())
}

fn quadrant_of(node: &BuildNode, x: f64, y: f64) -> usize {
    (usize::from(x >= node.cx)) | (usize::from(y >= node.cy) << 1)
}

/// Insert a body into the quadtree rooted at `idx`, accumulating its mass
/// into every node along the path.
fn insert(nodes: &mut Vec<BuildNode>, idx: usize, body: (usize, f64, f64, f64), depth: usize) {
    let (_, x, y, m) = body;
    nodes[idx].com_x += x * m;
    nodes[idx].com_y += y * m;
    nodes[idx].mass += m;
    if depth > 48 {
        // Degenerate (near-coincident) bodies: aggregate into this cell.
        return;
    }
    if nodes[idx].is_leaf() {
        match nodes[idx].body.take() {
            None => {
                nodes[idx].body = Some(body);
            }
            Some(resident) => {
                // Split the leaf: push the resident and the new body down.
                push_down(nodes, idx, resident, depth);
                push_down(nodes, idx, body, depth);
            }
        }
    } else {
        push_down(nodes, idx, body, depth);
    }
}

/// Route a body into the appropriate child cell, creating it if needed.
fn push_down(nodes: &mut Vec<BuildNode>, idx: usize, body: (usize, f64, f64, f64), depth: usize) {
    let (_, x, y, _) = body;
    let q = quadrant_of(&nodes[idx], x, y);
    if nodes[idx].child[q] == usize::MAX {
        let half = nodes[idx].half / 2.0;
        let cx = nodes[idx].cx + if q & 1 == 1 { half } else { -half };
        let cy = nodes[idx].cy + if q & 2 == 2 { half } else { -half };
        nodes.push(BuildNode::new(cx, cy, half));
        let child_idx = nodes.len() - 1;
        nodes[idx].child[q] = child_idx;
        insert(nodes, child_idx, body, depth + 1);
    } else {
        let child_idx = nodes[idx].child[q];
        insert(nodes, child_idx, body, depth + 1);
    }
}

/// Compute accelerations for the bodies of one chunk by traversing the
/// arena-resident quadtree.
fn force_chunk<C: TlsContext>(
    ctx: &mut C,
    data: Data,
    config: Config,
    chunk: usize,
) -> SpecResult<()> {
    let n = config.bodies;
    let per = n.div_ceil(config.chunks);
    let lo = chunk * per;
    let hi = ((chunk + 1) * per).min(n);
    for i in lo..hi {
        let bx = ctx.load(&data.x, i)?;
        let by = ctx.load(&data.y, i)?;
        let (mut ax, mut ay) = (0.0f64, 0.0f64);
        // Explicit traversal stack of node indices.
        let mut stack = vec![0usize];
        while let Some(node) = stack.pop() {
            let mass = ctx.load(&data.node_mass, node)?;
            if mass <= 0.0 {
                continue;
            }
            let nx = ctx.load(&data.node_x, node)?;
            let ny = ctx.load(&data.node_y, node)?;
            let size = ctx.load(&data.node_size, node)?;
            let dx = nx - bx;
            let dy = ny - by;
            let dist2 = dx * dx + dy * dy + 1e-3;
            let dist = dist2.sqrt();
            let body_tag = ctx.load(&data.node_body, node)?;
            let is_self = body_tag == i as u64 + 1;
            let leaf_or_far = body_tag != 0 || size / dist < config.theta;
            ctx.work(10)?;
            if leaf_or_far {
                if !is_self {
                    let f = mass / (dist2 * dist);
                    ax += f * dx;
                    ay += f * dy;
                }
            } else {
                for q in 0..4 {
                    let child = ctx.load(&data.node_child, 4 * node + q)?;
                    if child != 0 {
                        stack.push(child as usize - 1);
                    }
                }
            }
        }
        ctx.store(&data.ax, i, ax)?;
        ctx.store(&data.ay, i, ay)?;
    }
    Ok(())
}

/// Fork-site ID of the force-phase body-chunk continuation speculation.
pub const SITE_FORCE_CHUNK: u32 = 13;
/// Speculation over the body chunks of one force phase.
fn force_phase<C: TlsContext>(ctx: &mut C, data: Data, config: Config) -> SpecResult<()> {
    ctx.fork_range(
        SITE_FORCE_CHUNK,
        0..config.chunks,
        move |ctx: &mut C, chunk| force_chunk(ctx, data, config, chunk),
    )
}

/// Advance body positions slightly using the computed accelerations
/// (non-speculative, between force phases).
fn advance<C: TlsContext>(ctx: &mut C, data: Data, config: Config) -> SpecResult<()> {
    let dt = 1e-2;
    for i in 0..config.bodies {
        let x = ctx.load(&data.x, i)? + dt * ctx.load(&data.ax, i)?;
        let y = ctx.load(&data.y, i)? + dt * ctx.load(&data.ay, i)?;
        ctx.store(&data.x, i, x)?;
        ctx.store(&data.y, i, y)?;
        ctx.work(2)?;
    }
    Ok(())
}

/// The speculative region: `steps` Barnes-Hut force phases.
pub fn run<C: TlsContext>(ctx: &mut C, data: Data, config: Config) -> SpecResult<()> {
    for step in 0..config.steps {
        build_tree(ctx, data, config)?;
        force_phase(ctx, data, config)?;
        if step + 1 < config.steps {
            advance(ctx, data, config)?;
        }
    }
    Ok(())
}

/// Result extractor: quantized sum of accelerations.
pub fn result(memory: &GlobalMemory, data: &Data, config: &Config) -> u64 {
    let mut acc = 0i64;
    for i in 0..config.bodies {
        acc = acc.wrapping_add((memory.get(&data.ax, i) * 1e6).round() as i64);
        acc = acc.wrapping_add((memory.get(&data.ay, i) * 1e6).round() as i64);
    }
    acc as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutls_runtime::DirectContext;
    use std::sync::Arc;

    #[test]
    fn tree_mass_is_conserved() {
        let config = Config::tiny();
        let memory = Arc::new(GlobalMemory::new(1 << 22));
        let data = setup(&memory, &config);
        let mut ctx = DirectContext::new(Arc::clone(&memory));
        build_tree(&mut ctx, data, config).unwrap();
        let total_mass: f64 = (0..config.bodies).map(|i| memory.get(&data.mass, i)).sum();
        let root_mass = memory.get(&data.node_mass, 0);
        assert!((total_mass - root_mass).abs() < 1e-9);
        assert!(memory.get(&data.node_count, 0) > 1);
    }

    #[test]
    fn forces_roughly_match_direct_summation() {
        let config = Config::tiny();
        let memory = Arc::new(GlobalMemory::new(1 << 22));
        let data = setup(&memory, &config);
        run(&mut DirectContext::new(Arc::clone(&memory)), data, config).unwrap();
        // Direct O(N²) reference on host copies.
        let n = config.bodies;
        let xs: Vec<f64> = (0..n).map(|i| memory.get(&data.x, i)).collect();
        let ys: Vec<f64> = (0..n).map(|i| memory.get(&data.y, i)).collect();
        let ms: Vec<f64> = (0..n).map(|i| memory.get(&data.mass, i)).collect();
        for i in (0..n).step_by(7) {
            let (mut ax, mut ay) = (0.0, 0.0);
            for j in 0..n {
                if i == j {
                    continue;
                }
                let dx = xs[j] - xs[i];
                let dy = ys[j] - ys[i];
                let d2 = dx * dx + dy * dy + 1e-3;
                let f = ms[j] / (d2 * d2.sqrt());
                ax += f * dx;
                ay += f * dy;
            }
            let got_ax = memory.get(&data.ax, i);
            let got_ay = memory.get(&data.ay, i);
            let scale = (ax * ax + ay * ay).sqrt().max(1e-12);
            let err = ((got_ax - ax).powi(2) + (got_ay - ay).powi(2)).sqrt() / scale;
            assert!(err < 0.25, "body {i}: relative error {err}");
        }
    }

    #[test]
    fn result_is_deterministic() {
        let config = Config::tiny();
        let m1 = Arc::new(GlobalMemory::new(1 << 22));
        let d1 = setup(&m1, &config);
        run(&mut DirectContext::new(Arc::clone(&m1)), d1, config).unwrap();
        let m2 = Arc::new(GlobalMemory::new(1 << 22));
        let d2 = setup(&m2, &config);
        run(&mut DirectContext::new(Arc::clone(&m2)), d2, config).unwrap();
        assert_eq!(result(&m1, &d1, &config), result(&m2, &d2, &config));
    }
}
