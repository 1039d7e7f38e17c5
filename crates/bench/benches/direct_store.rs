//! Cost of one non-speculative (rank 0) store, on both sides of the
//! exposure gate in `SpecContext::spec_write`:
//!
//! * `direct_store/quiescent` — no speculative read set is exposed, so
//!   the store is a plain memory write;
//! * `direct_store/exposed` — one `Completed` child sits parked at its
//!   join, so every store is also stamped into the commit log and looked
//!   up in the reader registry.
//!
//! The benchmark ledger's `runtime.direct_store_ns` probe runs with no
//! speculative thread and therefore reads the quiescent path only; this
//! bench keeps the publishing path measured beside it.  Each sample is
//! one region of [`STORES`] stores (the exposed arm's single fork and
//! join are amortised over them): divide the printed median by
//! [`STORES`] for nanoseconds per store.

use criterion::{criterion_group, criterion_main, Criterion};

use mutls_runtime::{task, Runtime, RuntimeConfig, SpecContext, TlsContext};

/// Stores per sample.
const STORES: usize = 1 << 20;
/// Words cycled through (cache resident, as in a hot loop).
const WORDS: usize = 1 << 12;

fn bench_direct_store(c: &mut Criterion) {
    let rt = Runtime::new(RuntimeConfig::with_cpus(1).memory_bytes(1 << 20));
    let data = rt.alloc::<u64>(WORDS);
    let mut group = c.benchmark_group("direct_store");
    group.sample_size(10);
    for (arm, exposed) in [("quiescent", false), ("exposed", true)] {
        group.bench_function(arm, |b| {
            b.iter(|| {
                rt.run(|ctx| {
                    let handle = exposed
                        .then(|| ctx.fork(0, task(|_: &mut SpecContext| Ok(()))))
                        .transpose()?;
                    assert_eq!(
                        rt.manager().exposed_speculations(),
                        usize::from(exposed),
                        "the arm's premise"
                    );
                    for i in 0..STORES {
                        ctx.store(&data, i % WORDS, i as u64)?;
                    }
                    if let Some(handle) = handle {
                        ctx.join(handle)?;
                    }
                    Ok(())
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_direct_store);
criterion_main!(benches);
