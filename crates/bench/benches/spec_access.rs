//! Cost of the access path, through the public `Runtime` surface — what
//! rank 0 pays over the sequential reference, what a forked task pays per
//! buffered access over rank 0, and what a fork itself costs — from one
//! process, on one footprint:
//!
//! * `spec_access/reference/{load, store}` — the loop through
//!   `DirectContext`, the `T_s` of every speedup (two calls an access);
//! * `spec_access/rank0/load` — the same loop through the non-speculative
//!   `SpecContext`: a counter and the arena cell, inlined into the loop;
//! * `spec_access/rank0/store_quiescent` — no speculative read set is
//!   exposed, so the store is a plain memory write behind the exposure gate;
//! * `spec_access/rank0/store_exposed` — one `Completed` child sits parked
//!   at its join, so every store is also stamped into the commit log and
//!   looked up in the reader registry (the out-of-line publish);
//! * `spec_access/load_hit` — loads of words the task already read (the
//!   poll cadence, one write-set emptiness check and one read-set probe,
//!   all in the loop);
//! * `spec_access/load_first_touch` — loads of words new to the task (the
//!   `#[cold]` arm: range check, reader registration, log snapshot, memory
//!   read, read-set insert), in tasks of [`TOUCHES`] words so no read set
//!   overflows; each word's share of its join (validation, clearing) is
//!   part of the figure, as it is in a real region;
//! * `spec_access/store` — buffered stores (one write-set probe; the first
//!   store of each word goes out of line);
//! * `spec_access/fork_join_empty` — fork, run, validate, commit and join
//!   of a task that touches nothing.
//!
//! The benchmark ledger's `runtime.{direct,spec}_{load,store}_ns` and
//! `runtime.fork_join_ns` probes replay a workload's own address tape (and
//! its direct-store probe sees the quiescent path only); this bench keeps
//! the same layer measured outside the ledger, on a fixed cache-resident
//! footprint.  Each sample is one region of [`OPS`] accesses ([`FORKS`]
//! round trips for `fork_join_empty`): divide the printed median by that
//! count for nanoseconds per operation.  Runtime, data and task closures
//! are built once, outside the timed closure; the forks a region needs are
//! amortised over its accesses.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use mutls_membuf::GPtr;
use mutls_runtime::{
    task, DirectContext, JoinOutcome, Runtime, RuntimeConfig, SpecContext, SpecResult, TaskRef,
    TlsContext,
};

/// Accesses per sample.
const OPS: usize = 1 << 20;
/// Words cycled through by every arm but `load_first_touch` (cache
/// resident, as in a hot loop).
const WORDS: usize = 1 << 12;
/// Distinct words one first-touch task reads: half the default read-set
/// capacity.
const TOUCHES: usize = 1 << 15;
/// Round trips per `fork_join_empty` sample.
const FORKS: usize = 1 << 12;

/// The load loop every `load` arm runs, whatever the context.
fn loads<C: TlsContext>(ctx: &mut C, data: GPtr<u64>) -> SpecResult<()> {
    for i in 0..OPS {
        black_box(ctx.load(&data, i % WORDS)?);
    }
    Ok(())
}

/// The store loop every `store` arm runs, whatever the context.
fn stores<C: TlsContext>(ctx: &mut C, data: GPtr<u64>) -> SpecResult<()> {
    for i in 0..OPS {
        ctx.store(&data, i % WORDS, i as u64)?;
    }
    Ok(())
}

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

/// Rank 0's store loop with (`exposed`) or without a `Completed` child
/// parked at its join.
fn rank0_stores(rt: &Runtime, data: GPtr<u64>, exposed: bool) {
    rt.run(|ctx| {
        let parked = exposed
            .then(|| ctx.fork(0, task(|_: &mut SpecContext| Ok(()))))
            .transpose()?;
        assert_eq!(
            rt.manager().exposed_speculations(),
            usize::from(exposed),
            "the arm's premise"
        );
        stores(ctx, data)?;
        parked.map(|handle| ctx.join(handle)).transpose()?;
        Ok(())
    });
}

fn bench_spec_access(c: &mut Criterion) {
    let rt = Runtime::new(RuntimeConfig::with_cpus(1).memory_bytes(1 << 20));
    let data = rt.alloc::<u64>(TOUCHES);
    let mut group = c.benchmark_group("spec_access");
    group.sample_size(10);

    let mut reference = DirectContext::new(rt.memory());
    group.bench_function("reference/load", |b| b.iter(|| loads(&mut reference, data)));
    group.bench_function("reference/store", |b| {
        b.iter(|| stores(&mut reference, data))
    });
    group.bench_function("rank0/load", |b| b.iter(|| rt.run(|ctx| loads(ctx, data))));
    for (arm, exposed) in [
        ("rank0/store_quiescent", false),
        ("rank0/store_exposed", true),
    ] {
        group.bench_function(arm, |b| b.iter(|| rank0_stores(&rt, data, exposed)));
    }

    let load_first_touch = task(move |ctx: &mut SpecContext| {
        for i in 0..TOUCHES {
            black_box(ctx.load(&data, i)?);
        }
        Ok(())
    });
    for (arm, body, forks) in [
        (
            "load_hit",
            task(move |ctx: &mut SpecContext| loads(ctx, data)),
            1,
        ),
        ("load_first_touch", load_first_touch, OPS / TOUCHES),
        (
            "store",
            task(move |ctx: &mut SpecContext| stores(ctx, data)),
            1,
        ),
        ("fork_join_empty", task(|_: &mut SpecContext| Ok(())), FORKS),
    ] {
        group.bench_function(arm, |b| b.iter(|| region(&rt, &body, forks)));
    }
    group.finish();
}

criterion_group!(benches, bench_spec_access);
criterion_main!(benches);
