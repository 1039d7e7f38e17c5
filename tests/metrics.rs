//! Live-metrics-plane oracle: series determinism, zero-cost disabled
//! path, and end-to-end export.
//!
//! The telemetry plane makes three promises this file pins down:
//!
//! 1. **Byte-identical series** — the simulator samples its registry off
//!    the *virtual* clock, so the serialized metrics time series (like
//!    the `RunReport`) is byte-identical whichever host thread runs the
//!    replay, under every governor policy.
//! 2. **Free when off** — a disabled registry is a one-branch no-op: a
//!    metrics-enabled replay moves zero *virtual* cycles relative to a
//!    disabled one (the report serializes identically), and the native
//!    runtime spawns no sampler thread.
//! 3. **Live derived gauges** — an instrumented native conflict run
//!    exports Prometheus text with non-zero rollback counters and the
//!    derived `rollback_amplification` / `speculation_success_rate` /
//!    `precise_pass_fraction` gauges.

use std::sync::Arc;

use serde::Serialize;

use mutls::membuf::GlobalMemory;
use mutls::runtime::{GovernorConfig, MetricsConfig, PolicyKind, RuntimeConfig};
use mutls::simcpu::{record_region, simulate, Recording, SimConfig};
use mutls::workloads::conflict::{self, ChainConfig};
use mutls::workloads::Scale;

fn to_json<T: Serialize>(value: &T) -> String {
    let mut out = String::new();
    value.serialize_json(&mut out);
    out
}

/// A conflict-chain recording at full true sharing — rollback-heavy, so
/// every counter the plane tracks actually moves.
fn chain_recording() -> Recording {
    let config = ChainConfig::for_scale(Scale::Tiny).sharing_permille(1000);
    let memory = Arc::new(GlobalMemory::new(conflict::ARENA_BYTES));
    let data = conflict::chain_setup(&memory, &config);
    record_region(memory, |ctx| conflict::chain_run(ctx, data, config))
}

fn sim_config(metrics: MetricsConfig) -> SimConfig {
    SimConfig {
        num_cpus: 8,
        seed: 7,
        metrics,
        ..SimConfig::default()
    }
}

#[test]
fn sim_metric_series_is_byte_identical_across_threads_and_policies() {
    // The harness fans replays out across host threads; neither the
    // series nor the report may depend on which thread ran one, or on
    // what ran beside it — under any governor policy.
    let recording = chain_recording();
    for policy in PolicyKind::ALL {
        let config = || SimConfig {
            governor: GovernorConfig::with_policy(policy),
            ..sim_config(MetricsConfig::enabled())
        };
        let baseline = simulate(&recording, config());
        assert!(
            !baseline.metrics.is_empty(),
            "enabled metrics must sample at least the final snapshot"
        );
        let (series, report) = (baseline.metrics.to_json(), to_json(&baseline.report));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let result = simulate(&recording, config());
                    assert_eq!(
                        result.metrics.to_json(),
                        series,
                        "metrics series diverged under {}",
                        policy.label()
                    );
                    assert_eq!(
                        to_json(&result.report),
                        report,
                        "report diverged under {}",
                        policy.label()
                    );
                });
            }
        });
    }
}

#[test]
fn enabling_metrics_moves_zero_virtual_cycles() {
    let recording = chain_recording();
    let disabled = simulate(&recording, sim_config(MetricsConfig::default()));
    let enabled = simulate(&recording, sim_config(MetricsConfig::enabled()));
    assert!(
        disabled.metrics.is_empty(),
        "disabled metrics must not sample"
    );
    assert_eq!(
        disabled.parallel_cycles, enabled.parallel_cycles,
        "metrics sampling must be invisible to the virtual clock"
    );
    assert_eq!(
        to_json(&disabled.report),
        to_json(&enabled.report),
        "metrics sampling must not perturb the simulated execution"
    );
}

#[test]
fn sim_final_snapshot_carries_live_counters_and_derived_gauges() {
    let result = simulate(&chain_recording(), sim_config(MetricsConfig::enabled()));
    let last = result.metrics.latest().expect("final snapshot");
    assert_eq!(
        last.counter("commits"),
        Some(result.report.committed_threads)
    );
    assert_eq!(
        last.counter("rollbacks"),
        Some(result.report.rolled_back_threads)
    );
    assert!(
        last.counter("rollbacks").unwrap_or(0) > 0,
        "the replayed 100%-sharing chain must roll threads back"
    );
    assert_eq!(
        last.counter("wasted_cycles"),
        Some(result.report.wasted_work())
    );
    let amplification = last.gauge("rollback_amplification").expect("derived gauge");
    assert!(
        (amplification - result.report.rollback_amplification()).abs() < 1e-12,
        "snapshot amplification {amplification} != report {}",
        result.report.rollback_amplification()
    );
    assert!(last.gauge("speculation_success_rate").is_some());
    assert!(last.gauge("precise_pass_fraction").is_some());
}

#[test]
fn native_conflict_run_exports_live_prometheus_metrics() {
    let chain = ChainConfig::for_scale(Scale::Tiny).sharing_permille(1000);
    let (sum, report, _, (series, last)) = conflict::chain_native_observed(
        chain,
        RuntimeConfig::with_cpus(4).metrics(MetricsConfig::enabled().sample_interval_ms(1)),
    );
    assert_eq!(sum, conflict::chain_reference(chain), "checksum mismatch");
    assert!(!series.is_empty(), "the sampler must retain snapshots");
    assert_eq!(last.counter("commits"), Some(report.committed_threads));
    assert_eq!(last.counter("rollbacks"), Some(report.rolled_back_threads));
    assert!(
        last.counter("rollbacks").unwrap_or(0) > 0,
        "100% sharing must roll threads back"
    );
    let text = mutls::runtime::metrics::prometheus_text(&last, &[]);
    assert!(text.contains("# TYPE mutls_rollbacks_total counter"));
    assert!(text.contains("mutls_rollback_amplification"));
    assert!(text.contains("mutls_speculation_success_rate"));
    assert!(text.contains("mutls_precise_pass_fraction"));
}

#[test]
fn disabled_native_metrics_capture_is_empty() {
    let chain = ChainConfig::for_scale(Scale::Tiny).sharing_permille(0);
    let (_, _, _, (series, last)) =
        conflict::chain_native_observed(chain, RuntimeConfig::with_cpus(2));
    assert!(series.is_empty(), "disabled metrics must not sample");
    assert_eq!(
        last.counter("forks"),
        Some(0),
        "disabled registry stays zero"
    );
}
