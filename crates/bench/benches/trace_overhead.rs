//! Flight-recorder overhead benchmarks.
//!
//! The recorder's contract is "free when off": with `TraceConfig`
//! disabled the hot path costs one branch, and nothing about speculation
//! behaviour or accounting may change.  That contract is asserted before
//! the timing groups run as **virtual-time neutrality** — enabling the
//! recorder must not move a single virtual cycle of the simulated
//! timeline: events are recorded off the clock, so the traced and
//! untraced replays of one recording agree exactly on cycles and report.
//!
//! The Criterion groups then measure the real-world cost of both recorder
//! states on the simulator and the native runtime, so `cargo bench`
//! output records the enabled-mode overhead alongside the zero-cost
//! disabled mode.

use std::sync::Arc;
use std::sync::Once;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mutls_membuf::{CommitLogConfig, GlobalMemory};
use mutls_runtime::RuntimeConfig;
use mutls_simcpu::{record_region, simulate, SimConfig};
use mutls_trace::TraceConfig;
use mutls_workloads::{arena_bytes, conflict, run_speculative, setup, Scale, WorkloadKind};
use serde::Serialize;

const CPUS: usize = 16;

static ASSERT_NO_REGRESSION: Once = Once::new();

/// Assert the disabled-recorder contract once per bench run (also honoured
/// under `cargo bench -- --test`).
fn assert_no_regression_once() {
    ASSERT_NO_REGRESSION.call_once(|| {
        // Turning the recorder on never moves the simulated timeline.
        let kind = WorkloadKind::ConflictChain;
        let memory = Arc::new(GlobalMemory::new(arena_bytes(kind, Scale::Tiny)));
        let data = setup(kind, Scale::Tiny, &memory);
        let recording = record_region(Arc::clone(&memory), |ctx| run_speculative(ctx, &data));
        let config = |trace| SimConfig {
            num_cpus: CPUS,
            trace,
            ..SimConfig::default()
        };
        let off = simulate(&recording, config(false));
        let on = simulate(&recording, config(true));
        assert!(off.events.is_empty() && !on.events.is_empty());
        assert_eq!(
            off.parallel_cycles, on.parallel_cycles,
            "tracing must not move the virtual clock"
        );
        let json = |result: &mutls_simcpu::SimResult| {
            let mut out = String::new();
            result.report.serialize_json(&mut out);
            out
        };
        assert_eq!(json(&off), json(&on), "tracing must not change the report");
    });
}

/// Simulator wall-clock with the recorder off vs. on.
fn bench_simulate_recorder_states(c: &mut Criterion) {
    assert_no_regression_once();
    let kind = WorkloadKind::ConflictChain;
    let memory = Arc::new(GlobalMemory::new(arena_bytes(kind, Scale::Tiny)));
    let data = setup(kind, Scale::Tiny, &memory);
    let recording = record_region(Arc::clone(&memory), |ctx| run_speculative(ctx, &data));
    let mut group = c.benchmark_group("trace_overhead_simulate");
    group.sample_size(10);
    for (label, trace) in [("disabled", false), ("enabled", true)] {
        group.bench_with_input(
            BenchmarkId::new("conflict_chain", label),
            &recording,
            |b, rec| {
                b.iter(|| {
                    simulate(
                        rec,
                        SimConfig {
                            num_cpus: CPUS,
                            trace,
                            ..SimConfig::default()
                        },
                    )
                    .report
                    .runtime
                })
            },
        );
    }
    group.finish();
}

/// Native runtime wall-clock with the recorder off vs. on (per-thread
/// SPSC rings live only in the enabled arm).
fn bench_native_recorder_states(c: &mut Criterion) {
    assert_no_regression_once();
    let chain = conflict::ChainConfig::for_scale(Scale::Tiny).sharing_permille(1000);
    let mut group = c.benchmark_group("trace_overhead_native");
    group.sample_size(10);
    for (label, trace) in [
        ("disabled", TraceConfig::default()),
        ("enabled", TraceConfig::enabled()),
    ] {
        group.bench_function(BenchmarkId::new("conflict_chain", label), |b| {
            b.iter(|| {
                let (checksum, ..) = conflict::chain_native_observed(
                    chain,
                    RuntimeConfig::with_cpus(4)
                        .commit_log(CommitLogConfig::word_grain())
                        .trace(trace),
                );
                checksum
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_simulate_recorder_states,
    bench_native_recorder_states,
);
criterion_main!(benches);
