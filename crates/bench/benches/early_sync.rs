//! What early synchronization and loop-level ranges buy and what a join
//! costs, through the public `Runtime` surface on **one** speculative CPU
//! (two OS threads):
//!
//! * `early_sync/chain/{12us,100us,1ms}x64@1cpu` — a 64-chunk loop in
//!   hand-built chain form (each task forks the remaining chunks, then
//!   computes its own chunk for the named time): where synchronizing pays,
//!   the joiner hands the non-speculative role to the running child and
//!   takes the child's late-forked continuation itself, so chunks run two
//!   at a time; at 12 µs it does not pay, and the child runs 63 chunks
//!   alone;
//! * `early_sync/range/{12us,100us,1ms}x64@1cpu` — the same chunks through
//!   `TlsContext::fork_range`, of which the native context forks the upper
//!   half to the idle CPU: rank 0 keeps half of the loop whatever the
//!   grain.  Read against the chain arm above it: the grain below which
//!   the chain stops paying and the range still does is a printed number;
//! * `early_sync/chain/{12us,100us,1ms}x64@direct` — the same loop through
//!   `DirectContext`, the sequential wall both are measured against (64 ×
//!   the chunk time, by construction): divide for the speedup;
//! * `early_sync/fork_join_empty` — fork, run, validate, commit and join of
//!   a task that touches nothing, [`FORKS`] round trips a sample: the trip
//!   the idle spin keeps out of the kernel, and a join that must *not*
//!   synchronize (S1 ≈ 0).
//!
//! Runtime, arena and task closures are built once, outside the timed
//! closure (the `Duration::span`-around-the-edit discipline of SNIPPETS.md's
//! `EvalHashMap` harness); a chunk busy-waits on the clock, so its length
//! does not depend on the build.  A 2-core host runs both OS threads at
//! once; on one core the native arms measure time-slicing, not overlap.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use mutls_membuf::{GPtr, GlobalMemory};
use mutls_runtime::{
    task, DirectContext, JoinOutcome, Runtime, RuntimeConfig, SpecContext, SpecResult, TlsContext,
};

/// Chunks of one chain.
const CHUNKS: usize = 64;
/// Round trips per `fork_join_empty` sample.
const FORKS: usize = 1 << 12;

/// Chunk `i` of a chain: compute for `span`, passing a check point each
/// round, then publish one word.
fn chunk<C: TlsContext>(ctx: &mut C, out: GPtr<u64>, i: usize, span: Duration) -> SpecResult<()> {
    let started = Instant::now();
    while started.elapsed() < span {
        ctx.check_point()?;
    }
    ctx.store(&out, i, i as u64)
}

/// The chain from chunk `i` on, as `threex1` forks it.
fn chain<C: TlsContext + 'static>(
    ctx: &mut C,
    out: GPtr<u64>,
    i: usize,
    span: Duration,
) -> SpecResult<()> {
    if i + 1 < CHUNKS {
        let rest = task(move |ctx: &mut C| chain(ctx, out, i + 1, span));
        let handle = ctx.fork(1, rest)?;
        chunk(ctx, out, i, span)?;
        ctx.join(handle)?;
    } else {
        chunk(ctx, out, i, span)?;
    }
    Ok(())
}

fn bench_early_sync(c: &mut Criterion) {
    let rt = Runtime::new(RuntimeConfig::with_cpus(1).memory_bytes(1 << 20));
    let out = rt.alloc::<u64>(CHUNKS);
    let memory = Arc::new(GlobalMemory::new(1 << 20));
    let direct_out = memory.alloc::<u64>(CHUNKS);
    let empty = task(|_: &mut SpecContext| Ok(()));
    let round_trips = |rt: &Runtime, trips: usize| {
        rt.run(|ctx| {
            for _ in 0..trips {
                let handle = ctx.fork(0, Arc::clone(&empty))?;
                black_box(ctx.join(handle)? == JoinOutcome::Committed);
            }
            Ok(())
        })
    };
    // Lazy set-up, out of the timed region: the worker's first wake-up is
    // the slowest hand-off it will ever make, and the runtime prices a
    // synchronization by the fastest it has seen.
    round_trips(&rt, 32);

    let mut group = c.benchmark_group("early_sync");
    group.sample_size(10);
    for (name, span) in [
        ("12us", Duration::from_micros(12)),
        ("100us", Duration::from_micros(100)),
        ("1ms", Duration::from_millis(1)),
    ] {
        group.bench_function(format!("chain/{name}x{CHUNKS}@1cpu"), |b| {
            b.iter(|| rt.run(|ctx| chain(ctx, out, 0, span)).1.committed_threads)
        });
        group.bench_function(format!("range/{name}x{CHUNKS}@1cpu"), |b| {
            let ranged = |ctx: &mut SpecContext| {
                ctx.fork_range(1, 0..CHUNKS, move |ctx: &mut SpecContext, i| {
                    chunk(ctx, out, i, span)
                })
            };
            b.iter(|| rt.run(ranged).1.committed_threads)
        });
        group.bench_function(format!("chain/{name}x{CHUNKS}@direct"), |b| {
            b.iter(|| {
                let mut ctx = DirectContext::new(Arc::clone(&memory));
                chain(&mut ctx, direct_out, 0, span).expect("a sequential run cannot abort");
            })
        });
    }
    group.bench_function("fork_join_empty", |b| b.iter(|| round_trips(&rt, FORKS)));
    group.finish();
}

criterion_group!(benches, bench_early_sync);
criterion_main!(benches);
