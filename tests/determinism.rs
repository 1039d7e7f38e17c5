//! Determinism oracle: same seed + same configuration ⇒ byte-identical
//! serialized results.
//!
//! The simulator is the deterministic substrate of every figure in the
//! harness, and PR-level changes keep adding concurrency (the parallel
//! sweep fan-out, the lock-free commit log).  These tests pin the
//! guarantee down where it is supposed to be exact: the discrete-event
//! simulator and everything built on it, including the `par_map` sweep
//! fan-out, must reproduce byte-identical serialized output across runs.
//! (The *native* runtime reports wall-clock nanoseconds and is
//! intentionally out of scope.)

use std::sync::Arc;

use serde::Serialize;

use mutls::harness::{speedup_sweep, ExperimentConfig};
use mutls::membuf::{GlobalMemory, LINE_GRAIN_LOG2};
use mutls::simcpu::{record_region, simulate, SimConfig};
use mutls::workloads::{arena_bytes, run_speculative, setup, Scale, WorkloadKind};

fn to_json<T: Serialize>(value: &T) -> String {
    let mut out = String::new();
    value.serialize_json(&mut out);
    out
}

/// One full record → simulate pipeline, from a fresh arena.
fn pipeline(kind: WorkloadKind, config: &SimConfig) -> String {
    let memory = Arc::new(GlobalMemory::new(arena_bytes(kind, Scale::Tiny)));
    let data = setup(kind, Scale::Tiny, &memory);
    let recording = record_region(memory, |ctx| run_speculative(ctx, &data));
    let result = simulate(&recording, config.clone());
    to_json(&result.report)
}

#[test]
fn simulated_run_reports_are_byte_identical_across_runs() {
    // Exercise the nondeterminism-prone paths deliberately: injected
    // rollbacks (RNG) and a coarse commit-log grain (range conflicts).
    let config = SimConfig::with_cpus(16)
        .rollback_probability(0.3)
        .grain_log2(LINE_GRAIN_LOG2);
    for kind in [
        WorkloadKind::Fft,
        WorkloadKind::ConflictChain,
        WorkloadKind::Nqueen,
    ] {
        let first = pipeline(kind, &config);
        let second = pipeline(kind, &config);
        assert_eq!(
            first,
            second,
            "{}: two identical record+simulate pipelines diverged",
            kind.name()
        );
        assert!(first.contains("committed_threads"), "report serialized");
    }
}

#[test]
fn parallel_sweep_fan_out_is_byte_identical_across_runs() {
    // The sweep fans its points out across host threads (par_map); the
    // serialized row set must not depend on scheduling.
    let kinds = [
        WorkloadKind::Fft,
        WorkloadKind::ThreeXPlusOne,
        WorkloadKind::HistShared,
    ];
    let config = ExperimentConfig {
        scale: Scale::Tiny,
        cpus: vec![1, 4, 16],
        seed: 42,
        trace: None,
        metrics: None,
    };
    let first = to_json(&speedup_sweep(&kinds, &config));
    let second = to_json(&speedup_sweep(&kinds, &config));
    assert_eq!(first, second, "parallel sweep fan-out is nondeterministic");
    assert!(first.contains("\"workload\":\"fft\""));
}
