//! Live-metrics-plane oracle: series determinism, zero-cost disabled
//! path, end-to-end export, and agreement with the other ledgers.
//!
//! The telemetry plane makes four promises this file pins down:
//!
//! 1. **Byte-identical series** — the simulator samples its registry off
//!    the *virtual* clock, so the serialized metrics time series (like
//!    the `RunReport`) is byte-identical whichever host thread runs the
//!    replay, under every governor policy.
//! 2. **Invisible when off** — a disabled metrics plane samples nothing
//!    and keeps its gauge and histograms still, though its counters count
//!    (they are the only store of a lifecycle count): a replay with it or
//!    the flight recorder enabled moves zero *virtual* cycles relative to
//!    a dark one (the report serializes identically), and the native
//!    runtime spawns no sampler thread.
//! 3. **Live derived gauges** — an instrumented native conflict run
//!    exports Prometheus text with non-zero rollback counters and the
//!    derived `rollback_amplification` / `speculation_success_rate` /
//!    `precise_pass_fraction` gauges.
//! 4. **One ledger** — a lifecycle point is written down once
//!    (`mutls_runtime::ledger`) and the report's counts are read off the
//!    registry, so the registry's snapshot, the latency samples and the
//!    event stream of one run agree, natively and in the replay.

use std::sync::Arc;

use serde::Serialize;

use mutls::membuf::{BufferConfig, GlobalMemory};
use mutls::runtime::{
    EventKind, GovernorConfig, LatencyPhase, MetricsConfig, MetricsSnapshot, PolicyKind, RunReport,
    Runtime, RuntimeConfig, TraceConfig, TraceEvent,
};
use mutls::simcpu::{record_region, simulate, Recording, SimConfig};
use mutls::workloads::conflict::{self, ChainConfig};
use mutls::workloads::registry::{self, WorkloadData};
use mutls::workloads::{Scale, WorkloadKind};

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
    // Neither observer is on the virtual clock — the registry is scraped
    // and the flight recorder's events are kept off it — so turning either
    // on, or both, moves no cycle and no byte of the report.
    let recording = chain_recording();
    let run = |trace, metrics| {
        let config = SimConfig {
            trace,
            ..sim_config(metrics)
        };
        simulate(&recording, config)
    };
    let (off, on) = (MetricsConfig::default(), MetricsConfig::enabled());
    let dark = run(false, off);
    assert!(dark.metrics.is_empty(), "disabled metrics must not sample");
    assert!(dark.events.is_empty(), "a disabled recorder keeps no event");
    for (trace, metrics) in [(false, on), (true, off), (true, on)] {
        let observed = run(trace, metrics);
        assert_eq!(observed.metrics.is_empty(), !metrics.enabled);
        assert_eq!(observed.events.is_empty(), !trace);
        assert_eq!(
            dark.parallel_cycles, observed.parallel_cycles,
            "observation must be invisible to the virtual clock (trace {trace}, {metrics:?})"
        );
        assert_eq!(
            to_json(&dark.report),
            to_json(&observed.report),
            "observation must not perturb the simulated execution (trace {trace}, {metrics:?})"
        );
    }
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
    let (_, _, _, (series, _)) =
        conflict::chain_native_observed(chain, RuntimeConfig::with_cpus(2));
    assert!(series.is_empty(), "disabled metrics must not sample");
}

#[test]
fn disabled_native_registry_reads_the_reports_counts() {
    // The registry is the report's only book, so it counts with metrics
    // off; only the gauge and the histograms stay still.
    let chain = ChainConfig::for_scale(Scale::Tiny).sharing_permille(1000);
    let (_, report, _, (_, last)) =
        conflict::chain_native_observed(chain, RuntimeConfig::with_cpus(4));
    let forks = report.critical.counters.forks + report.speculative.counters.forks;
    assert!(forks > 0, "a chain on 4 CPUs forks");
    assert_eq!(last.counter("forks"), Some(forks));
    assert_eq!(last.counter("commits"), Some(report.committed_threads));
    assert_eq!(last.counter("rollbacks"), Some(report.rolled_back_threads));
    assert!(last.histograms.iter().all(|h| h.count == 0));
}

/// One traced, metrics-on native run of `workload`, its checksum checked
/// against the sequential reference: the report, every event (none
/// dropped) and the final scrape.
fn native_ledgers(
    workload: impl FnOnce(&GlobalMemory) -> WorkloadData,
    reference: u64,
    arena_bytes: u64,
    config: RuntimeConfig,
) -> (RunReport, Vec<TraceEvent>, MetricsSnapshot) {
    let runtime = Runtime::new(
        config
            .memory_bytes(arena_bytes)
            .trace(TraceConfig::enabled())
            .metrics(MetricsConfig::enabled().sample_interval_ms(0)),
    );
    let memory = runtime.memory();
    let data = workload(&memory);
    let (_, report) = runtime.run(|ctx| registry::run_speculative(ctx, &data));
    assert_eq!(registry::checksum(&memory, &data), reference);
    assert_eq!(runtime.trace_dropped(), 0, "the rings must hold the run");
    let last = runtime.metrics_series().latest().cloned();
    (
        report,
        runtime.drain_trace_events(),
        last.expect("a run ends with its final scrape"),
    )
}

/// [`native_ledgers`] of a registry workload at its default configuration.
fn registry_ledgers(
    kind: WorkloadKind,
    scale: Scale,
    config: RuntimeConfig,
) -> (RunReport, Vec<TraceEvent>, MetricsSnapshot) {
    native_ledgers(
        |memory| registry::setup(kind, scale, memory),
        registry::reference_checksum(kind, scale),
        registry::arena_bytes(kind, scale),
        config,
    )
}

/// The relations that make the three records of a run one ledger: the
/// registry's counts, the latency samples and the events.  The report's
/// counts are read off the registry; the governor's per-site table is a
/// book of its own.
fn assert_one_ledger(run: &str, report: &RunReport, events: &[TraceEvent], last: &MetricsSnapshot) {
    let events_of =
        |is: fn(&EventKind) -> bool| events.iter().filter(|e| is(&e.kind)).count() as u64;
    let snapshot = |name: &str| last.counter(name).expect("a static counter");
    let fork_to_commit = report
        .latency
        .row(LatencyPhase::ForkToCommit)
        .unwrap()
        .count;

    let commits = events_of(|k| matches!(k, EventKind::Commit));
    assert_eq!(commits, snapshot("commits"), "{run}: Commit events");
    assert_eq!(commits, fork_to_commit, "{run}: fork-to-commit samples");

    let rollbacks = events_of(|k| matches!(k, EventKind::Rollback { .. }));
    assert_eq!(rollbacks, snapshot("rollbacks"), "{run}: Rollback events");

    let starts = events_of(|k| matches!(k, EventKind::SpecStart { .. }));
    assert_eq!(starts, snapshot("forks"), "{run}: SpecStart events");

    let denied = events_of(|k| matches!(k, EventKind::ForkDenied { .. }));
    assert_eq!(
        denied,
        snapshot("failed_forks") + snapshot("throttled_forks"),
        "{run}: ForkDenied events"
    );

    assert_eq!(
        events_of(|k| matches!(k, EventKind::ValidateBegin { .. })),
        events_of(|k| matches!(k, EventKind::ValidateEnd { .. })),
        "{run}: Validate spans"
    );

    let throttled =
        report.critical.counters.throttled_forks + report.speculative.counters.throttled_forks;
    assert_eq!(report.throttled_forks(), throttled, "{run}: site table");

    let dooms = snapshot("targeted_dooms");
    let doom_events = events_of(|k| matches!(k, EventKind::Doom));
    assert!(
        dooms == 0 || doom_events > 0,
        "{run}: {dooms} dooms, no Doom event"
    );
}

#[test]
fn every_ledger_of_a_run_agrees_natively_and_in_the_replay() {
    for kind in [WorkloadKind::Matmult, WorkloadKind::Fft] {
        let config = RuntimeConfig::with_cpus(3);
        let (report, events, last) = registry_ledgers(kind, Scale::Scaled, config);
        assert_one_ledger(kind.name(), &report, &events, &last);
    }

    // Tiny buffers: every other child ends in an overflow rollback.
    let tiny = RuntimeConfig::with_cpus(3).buffer(BufferConfig::tiny());
    let (report, events, last) = registry_ledgers(WorkloadKind::Fft, Scale::Tiny, tiny);
    assert!(report.rolled_back_threads > 0, "tiny buffers must overflow");
    assert_one_ledger("fft, tiny buffers", &report, &events, &last);

    // Real dependence violations, hence dooms and cascaded discards.
    let chain = ChainConfig::for_scale(Scale::Tiny).sharing_permille(1000);
    let (report, events, last) = native_ledgers(
        |memory| WorkloadData::ConflictChain(conflict::chain_setup(memory, &chain), chain),
        conflict::chain_reference(chain),
        conflict::ARENA_BYTES,
        RuntimeConfig::with_cpus(4),
    );
    assert!(
        report.rolled_back_threads > 0,
        "100% sharing must roll back"
    );
    assert_one_ledger("conflict_chain", &report, &events, &last);

    let replay = simulate(
        &chain_recording(),
        SimConfig {
            trace: true,
            metrics: MetricsConfig::enabled(),
            ..SimConfig::with_cpus(4)
        },
    );
    let last = replay.metrics.latest().expect("final snapshot");
    assert!(
        replay.report.targeted_dooms() > 0,
        "the replay dooms readers"
    );
    assert_one_ledger(
        "conflict_chain replay",
        &replay.report,
        &replay.events,
        last,
    );

    // The governor throttles: the site table and the registry each count.
    let throttled = simulate(
        &chain_recording(),
        SimConfig {
            trace: true,
            metrics: MetricsConfig::enabled(),
            governor: GovernorConfig::with_policy(PolicyKind::Throttle),
            ..SimConfig::with_cpus(4)
        },
    );
    assert!(throttled.report.throttled_forks() > 0, "Throttle throttles");
    let last = throttled.metrics.latest().expect("final snapshot");
    assert_one_ledger(
        "conflict_chain replay, throttled",
        &throttled.report,
        &throttled.events,
        last,
    );
}
