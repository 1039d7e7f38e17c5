//! # mutls-harness — experiment harness regenerating the paper's evaluation
//!
//! | Experiment | Where | What |
//! |------------|-------|------|
//! | `table2`, `fig3`…`fig11` | [`paper`] | Table II and Fig. 3–11 of the paper's §V, on the deterministic simulator (`mutls-simcpu`), which stands in for the paper's 64-core testbed |
//! | `adaptive`, `conflict`, `overflow`, `grain` | [`sweeps`] | the repo's own sweeps: each is a list of [`Point`]s run by [`run_points`] natively and/or on the replay, one [`Row`] per point, tables picked from the column catalogue [`sweeps::col`] |
//! | `trace`, `metrics` | [`scenarios`] | one fully dependent chain, native and replayed, with the flight recorder or the metrics plane forced on |
//!
//! [`run_experiment`] dispatches on the names in [`EXPERIMENT_NAMES`]; the
//! `mutls-experiments` binary wraps it.  `--json <path>` writes the rows
//! of the sweeps and scenarios (schema [`BENCH_SCHEMA_VERSION`]),
//! `--trace <path>` every traced run as one Chrome trace-event document,
//! `--metrics <path>` every instrumented run's final snapshot or series
//! ([`sinks`]).
//!
//! Simulated experiments are reproducible on any host; independent points
//! fan out across host threads with deterministic output ordering.
//! Native points exercise real dependence validation and buffer pressure
//! end to end: their counts depend on thread timing, their checksums
//! never do.

#![warn(missing_docs)]

pub mod paper;
pub mod report;
pub mod scenarios;
pub mod sinks;
pub mod sweeps;

use serde::Serialize;

pub use paper::{
    breakdown, figure10, figure11, figure3, figure4, figure5, figure6, figure7, figure8, figure9,
    record_workload, record_workload_shared, speedup_sweep, table2, BreakdownRow, MetricKind,
    SweepRow,
};
pub use report::{
    format_breakdown_table, format_latency_table, format_rollback_cell, format_site_table,
    format_sweep_table, grain_label, Table,
};
pub use scenarios::{metrics_scenario, trace_scenario, MetricsRow, TraceScenarioRow};
pub use sinks::{ExperimentConfig, MetricsRun, MetricsSink, Observe, TraceSink};
pub use sweeps::{run_points, Column, Engine, Experiment, GrainMode, Point, Row, Run, SWEEPS};

/// Schema version stamped on every machine-readable row and on the
/// `--json` / `--metrics` document wrappers.  v8: every sweep row is one
/// [`Row`] (same keys for every experiment and both engines).  v9: a row
/// lost its per-region grain list and `commit_log.regrains`, a metrics
/// snapshot `log_regrains` and the `grain_regions` gauges.  v10: a row's
/// `commit_log` lost `shards`.  v11: a metrics snapshot lost
/// `adopted_threads`.  v12: a row lost `suspected_false_sharing`, a
/// report's counters and a metrics snapshot `false_sharing_suspects`, and
/// a site profile `false_sharing`.
pub const BENCH_SCHEMA_VERSION: u32 = 12;

/// Every experiment `mutls-experiments` accepts, in the order `all` runs
/// them.
pub const EXPERIMENT_NAMES: [&str; 16] = [
    "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "adaptive",
    "conflict", "overflow", "grain", "trace", "metrics",
];

fn rows_json<T: Serialize>(rows: &[T]) -> String {
    let mut out = String::new();
    rows.serialize_json(&mut out);
    out
}

/// Run the experiment called `name`: its printed text and, for the sweeps
/// and scenarios, its rows as a JSON array.  `None` for an unknown name.
pub fn run_experiment(name: &str, config: &ExperimentConfig) -> Option<(String, Option<String>)> {
    if let Some(sweep) = SWEEPS.iter().find(|sweep| sweep.name == name) {
        let (rows, text) = sweep.run(config);
        return Some((text, Some(rows_json(&rows))));
    }
    Some(match name {
        "table2" => (table2(config).1, None),
        "fig3" => (figure3(config).1, None),
        "fig4" => (figure4(config).1, None),
        "fig5" => (figure5(config).1, None),
        "fig6" => (figure6(config).1, None),
        "fig7" => (figure7(config).1, None),
        "fig8" => (figure8(config).1, None),
        "fig9" => (figure9(config).1, None),
        "fig10" => (figure10(config).1, None),
        "fig11" => (figure11(config).1, None),
        "trace" => {
            let (rows, text) = trace_scenario(config);
            (text, Some(rows_json(&rows)))
        }
        "metrics" => {
            let (rows, text) = metrics_scenario(config);
            (text, Some(rows_json(&rows)))
        }
        _ => return None,
    })
}
