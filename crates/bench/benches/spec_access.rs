//! Cost of the speculative access path, through the public `Runtime`
//! surface — what a forked task pays per buffered access and what a fork
//! itself costs now that a CPU's buffers outlive it:
//!
//! * `spec_access/load_hit` — loads of words the task already read (one
//!   write-set emptiness check plus one read-set probe);
//! * `spec_access/load_first_touch` — loads of words new to the task
//!   (reader registration, log snapshot, memory read, read-set insert), in
//!   tasks of [`TOUCHES`] words so no read set overflows; each word's share
//!   of its join (validation, clearing) is part of the figure, as it is in
//!   a real region;
//! * `spec_access/store` — buffered stores (one write-set probe);
//! * `spec_access/fork_join_empty` — fork, run, validate, commit and join
//!   of a task that touches nothing.
//!
//! The benchmark ledger's `runtime.spec_load_ns`, `runtime.spec_store_ns`
//! and `runtime.fork_join_ns` probes replay a workload's own address tape;
//! this bench keeps the same layer measured outside the ledger, on a
//! fixed cache-resident footprint.  Each sample is one region of [`OPS`]
//! accesses ([`FORKS`] round trips for `fork_join_empty`): divide the
//! printed median by that count for nanoseconds per operation.  Runtime,
//! data and task closures are built once, outside the timed closure; the
//! forks a region needs are amortised over its accesses.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use mutls_runtime::{task, JoinOutcome, Runtime, RuntimeConfig, SpecContext, TaskRef, TlsContext};

/// Accesses per sample.
const OPS: usize = 1 << 20;
/// Words cycled through by the hit and store arms (cache resident, as in a
/// hot loop).
const WORDS: usize = 1 << 12;
/// Distinct words one first-touch task reads: half the default read-set
/// capacity.
const TOUCHES: usize = 1 << 15;
/// Round trips per `fork_join_empty` sample.
const FORKS: usize = 1 << 12;

/// One region: fork `body` `forks` times, joining each before the next.
fn region(rt: &Runtime, body: &TaskRef<SpecContext>, forks: usize) {
    rt.run(|ctx| {
        for _ in 0..forks {
            let handle = ctx.fork(0, Arc::clone(body))?;
            assert!(handle.speculated(), "the arm's premise");
            assert_eq!(ctx.join(handle)?, JoinOutcome::Committed);
        }
        Ok(())
    });
}

fn bench_spec_access(c: &mut Criterion) {
    let rt = Runtime::new(RuntimeConfig::with_cpus(1).memory_bytes(1 << 20));
    let data = rt.alloc::<u64>(TOUCHES);
    let load_hit = task(move |ctx: &mut SpecContext| {
        for i in 0..OPS {
            black_box(ctx.load(&data, i % WORDS)?);
        }
        Ok(())
    });
    let load_first_touch = task(move |ctx: &mut SpecContext| {
        for i in 0..TOUCHES {
            black_box(ctx.load(&data, i)?);
        }
        Ok(())
    });
    let store = task(move |ctx: &mut SpecContext| {
        for i in 0..OPS {
            ctx.store(&data, i % WORDS, i as u64)?;
        }
        Ok(())
    });
    let empty = task(|_: &mut SpecContext| Ok(()));

    let mut group = c.benchmark_group("spec_access");
    group.sample_size(10);
    for (arm, body, forks) in [
        ("load_hit", load_hit, 1),
        ("load_first_touch", load_first_touch, OPS / TOUCHES),
        ("store", store, 1),
        ("fork_join_empty", empty, FORKS),
    ] {
        group.bench_function(arm, |b| b.iter(|| region(&rt, &body, forks)));
    }
    group.finish();
}

criterion_group!(benches, bench_spec_access);
criterion_main!(benches);
