//! Live-metrics-plane overhead benchmarks.
//!
//! The metrics registry's contract is "free when off": with
//! `MetricsConfig` disabled every instrumentation site costs one branch,
//! no sampler thread is spawned, and nothing about speculation behaviour
//! or accounting may change.  That contract is asserted before the
//! timing groups run as **virtual-time neutrality** — enabling the
//! registry and the virtual-clock sampler must not move a single virtual
//! cycle of the simulated timeline: snapshots are scraped off the clock,
//! so the instrumented and dark replays of one recording agree exactly on
//! cycles and report.
//!
//! The Criterion groups then measure the real-world cost of both
//! registry states on the simulator and the native runtime, so
//! `cargo bench` output records the enabled-mode overhead alongside the
//! zero-cost disabled mode.

use std::sync::Arc;
use std::sync::Once;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mutls_membuf::{CommitLogConfig, GlobalMemory};
use mutls_metrics::MetricsConfig;
use mutls_runtime::RuntimeConfig;
use mutls_simcpu::{record_region, simulate, SimConfig};
use mutls_workloads::{arena_bytes, conflict, run_speculative, setup, Scale, WorkloadKind};
use serde::Serialize;

const CPUS: usize = 16;

static ASSERT_NO_REGRESSION: Once = Once::new();

/// Assert the disabled-registry contract once per bench run (also
/// honoured under `cargo bench -- --test`).
fn assert_no_regression_once() {
    ASSERT_NO_REGRESSION.call_once(|| {
        // Turning the metrics plane on never moves the simulated timeline.
        let kind = WorkloadKind::ConflictChain;
        let memory = Arc::new(GlobalMemory::new(arena_bytes(kind, Scale::Tiny)));
        let data = setup(kind, Scale::Tiny, &memory);
        let recording = record_region(Arc::clone(&memory), |ctx| run_speculative(ctx, &data));
        let config = |metrics| SimConfig {
            num_cpus: CPUS,
            metrics,
            ..SimConfig::default()
        };
        let off = simulate(&recording, config(MetricsConfig::default()));
        let on = simulate(&recording, config(MetricsConfig::enabled()));
        assert!(off.metrics.is_empty() && !on.metrics.is_empty());
        assert_eq!(
            off.parallel_cycles, on.parallel_cycles,
            "metrics sampling must not move the virtual clock"
        );
        let json = |result: &mutls_simcpu::SimResult| {
            let mut out = String::new();
            result.report.serialize_json(&mut out);
            out
        };
        assert_eq!(json(&off), json(&on), "metrics must not change the report");
    });
}

/// Simulator wall-clock with the metrics plane off vs. on.
fn bench_simulate_metrics_states(c: &mut Criterion) {
    assert_no_regression_once();
    let kind = WorkloadKind::ConflictChain;
    let memory = Arc::new(GlobalMemory::new(arena_bytes(kind, Scale::Tiny)));
    let data = setup(kind, Scale::Tiny, &memory);
    let recording = record_region(Arc::clone(&memory), |ctx| run_speculative(ctx, &data));
    let mut group = c.benchmark_group("metrics_overhead_simulate");
    group.sample_size(10);
    for (label, metrics) in [
        ("disabled", MetricsConfig::default()),
        ("enabled", MetricsConfig::enabled()),
    ] {
        group.bench_with_input(
            BenchmarkId::new("conflict_chain", label),
            &recording,
            |b, rec| {
                b.iter(|| {
                    simulate(
                        rec,
                        SimConfig {
                            num_cpus: CPUS,
                            metrics,
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

/// Native runtime wall-clock with the metrics plane off vs. on (the
/// per-thread sharded cells and the sampler thread live only in the
/// enabled arm).
fn bench_native_metrics_states(c: &mut Criterion) {
    assert_no_regression_once();
    let chain = conflict::ChainConfig::for_scale(Scale::Tiny).sharing_permille(1000);
    let mut group = c.benchmark_group("metrics_overhead_native");
    group.sample_size(10);
    for (label, metrics) in [
        ("disabled", MetricsConfig::default()),
        ("enabled", MetricsConfig::enabled().sample_interval_ms(1)),
    ] {
        group.bench_function(BenchmarkId::new("conflict_chain", label), |b| {
            b.iter(|| {
                let (checksum, _, _, _) = conflict::chain_native_observed(
                    chain,
                    RuntimeConfig::with_cpus(4)
                        .commit_log(CommitLogConfig::word_grain())
                        .metrics(metrics),
                );
                checksum
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_simulate_metrics_states,
    bench_native_metrics_states,
);
criterion_main!(benches);
