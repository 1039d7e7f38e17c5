//! # mutls-harness — experiment harness regenerating the paper's evaluation
//!
//! Every table and figure of the MUTLS evaluation (§V) has a corresponding
//! generator here:
//!
//! | Paper artefact | Generator |
//! |----------------|-----------|
//! | Table II (benchmarks)                | [`table2`] |
//! | Fig. 3 (speedup, computation-intensive) | [`figure3`] |
//! | Fig. 4 (speedup, memory-intensive)      | [`figure4`] |
//! | Fig. 5 (critical path efficiency)       | [`figure5`] |
//! | Fig. 6 (speculative path efficiency)    | [`figure6`] |
//! | Fig. 7 (power efficiency)               | [`figure7`] |
//! | Fig. 8 (critical path breakdown)        | [`figure8`] |
//! | Fig. 9 (speculative path breakdown)     | [`figure9`] |
//! | Fig. 10 (forking model comparison)      | [`figure10`] |
//! | Fig. 11 (rollback sensitivity)          | [`figure11`] |
//! | Adaptive governor sweep (this repo)     | [`adaptive_sweep`] |
//! | Conflict sweep, real rollbacks (this repo) | [`conflict_sweep`] |
//! | Buffer-overflow pressure sweep (this repo) | [`overflow_sweep`] |
//! | Commit-log grain sweep (this repo)      | [`grain_sweep`] |
//! | Recovery sweep (this repo)              | [`recovery_sweep`] |
//! | Adaptive grain-control sweep (this repo) | [`graincontrol_sweep`] |
//! | Flight-recorder scenario (this repo)    | [`trace_scenario`] |
//! | Live-metrics scenario (this repo)       | [`metrics_scenario`] |
//!
//! `mutls-experiments --json <path>` additionally writes the sweep rows
//! of the native experiments as machine-readable JSON (schema
//! [`BENCH_SCHEMA_VERSION`]), so per-point wasted-work, latency-quantile
//! and commit-throughput figures can be tracked, and
//! `--trace <path>` exports every traced run of the selected experiments
//! as one Chrome trace-event document (open it in Perfetto).
//!
//! The `mutls-experiments` binary wraps these functions; the Criterion
//! benches in `crates/bench` regenerate the same rows under `cargo bench`.
//!
//! The figure experiments run on the deterministic multicore simulator
//! (`mutls-simcpu`), which substitutes for the paper's 64-core AMD Opteron
//! testbed (see `DESIGN.md` §2), so they are reproducible on any host;
//! independent sweep points fan out across host threads with
//! deterministic output ordering.  The conflict and overflow sweeps run on
//! the *native* runtime, because their whole point is exercising real
//! dependence validation and buffer pressure end-to-end.

#![warn(missing_docs)]

pub mod experiments;
pub mod report;

pub use experiments::{
    adaptive_sweep, breakdown, conflict_sweep, figure10, figure11, figure3, figure4, figure5,
    figure6, figure7, figure8, figure9, format_site_table, grain_label, grain_sweep,
    graincontrol_replay, graincontrol_sweep, metrics_scenario, overflow_sweep, record_workload,
    recovery_replay, recovery_sweep, speedup_sweep, table2, trace_scenario, AdaptiveRow,
    BreakdownRow, ExperimentConfig, GrainControlRow, GrainControlSimRow, GrainMode, GrainRow,
    MetricKind, MetricsRow, MetricsRun, MetricsSink, NativeRow, RecoveryRow, RecoverySimRow,
    SweepRow, TraceScenarioRow, TraceSink, ADAPTIVE_ROLLBACK_PROBABILITY, BENCH_SCHEMA_VERSION,
    CONFLICT_SHARING_PERMILLE, GRAINCONTROL_REPS, GRAINCONTROL_SHARING_PERMILLE,
    GRAIN_SWEEP_GRAINS, GRAIN_SWEEP_SHARDS, NATIVE_POLICIES, RECOVERY_SWEEP_GRAINS,
    RECOVERY_SWEEP_PERMILLE, RECOVERY_SWEEP_REPS, ROLLBACK_HEAVY,
};
pub use report::{
    format_breakdown_table, format_latency_table, format_rollback_cell, format_sweep_table, Table,
};
