//! Where a sweep's captures go: the trace and metrics sinks behind the
//! binary's `--trace` / `--metrics` exports, and the configuration every
//! experiment shares.

use std::sync::Arc;

use parking_lot::Mutex;
use serde::Serialize;

use mutls_metrics::{MetricsSeries, MetricsSnapshot, PromWriter};
use mutls_trace::{chrome_trace_json, TraceEvent, TraceRun};
use mutls_workloads::Scale;

use crate::BENCH_SCHEMA_VERSION;

/// What one run captures besides its `RunReport`: lifecycle events
/// (flight recorder natively, virtual-time events in the replay) and the
/// live metrics plane (sampled every millisecond natively so even
/// tiny-scale runs catch live samples, off the virtual clock in the
/// replay).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observe {
    /// Capture lifecycle events.
    pub trace: bool,
    /// Enable the metrics plane.
    pub metrics: bool,
}

/// Collects per-run flight-recorder streams across a sweep so the binary
/// can export one Chrome trace-event document (`--trace <path>`).
///
/// Sweeps record each traced run under a unique label; runs fanned out
/// across host threads land in arrival order, so [`TraceSink::chrome_json`]
/// sorts by label to keep the export deterministic.
#[derive(Debug, Default)]
pub struct TraceSink {
    runs: Mutex<Vec<TraceRun>>,
}

impl TraceSink {
    /// A new, empty sink, shared across sweep workers.
    pub fn new() -> Arc<TraceSink> {
        Arc::new(TraceSink::default())
    }

    /// Record one run's drained event stream and drop count.
    pub fn record(&self, label: impl Into<String>, events: Vec<TraceEvent>, dropped: u64) {
        let mut runs = self.runs.lock();
        runs.push(TraceRun {
            label: label.into(),
            events,
            dropped,
        });
    }

    /// Number of recorded runs.
    pub fn len(&self) -> usize {
        self.runs.lock().len()
    }

    /// True when no run has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render every recorded run as one Chrome trace-event JSON document
    /// (one Perfetto process per run, label-sorted so the export is
    /// deterministic regardless of worker arrival order).
    pub fn chrome_json(&self) -> String {
        let mut runs = self.runs.lock().clone();
        runs.sort_by(|a, b| a.label.cmp(&b.label));
        chrome_trace_json(&runs)
    }
}

/// One run's metrics capture recorded into a [`MetricsSink`]: the
/// sampler-filled time series plus the final end-of-run scrape.
#[derive(Debug, Clone, Serialize)]
pub struct MetricsRun {
    /// Unique run label (`<experiment>/<workload>/...`).
    pub label: String,
    /// The bounded time series collected while the run was live.
    pub series: MetricsSeries,
    /// The final scrape taken after the run completed.
    pub last: MetricsSnapshot,
}

/// Collects per-run metrics captures across a sweep so the binary can
/// export one Prometheus text exposition or JSON time-series document
/// (`--metrics <path>`).  Runs fanned out across host threads land in
/// arrival order, so both exporters sort by label to keep the output
/// deterministic.
#[derive(Debug, Default)]
pub struct MetricsSink {
    runs: Mutex<Vec<MetricsRun>>,
}

impl MetricsSink {
    /// A new, empty sink, shared across sweep workers.
    pub fn new() -> Arc<MetricsSink> {
        Arc::new(MetricsSink::default())
    }

    /// Record one run's series and final scrape.
    pub fn record(&self, label: impl Into<String>, series: MetricsSeries, last: MetricsSnapshot) {
        let mut runs = self.runs.lock();
        runs.push(MetricsRun {
            label: label.into(),
            series,
            last,
        });
    }

    /// Number of recorded runs.
    pub fn len(&self) -> usize {
        self.runs.lock().len()
    }

    /// True when no run has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Label-sorted clone of the recorded runs.
    fn sorted_runs(&self) -> Vec<MetricsRun> {
        let mut runs = self.runs.lock().clone();
        runs.sort_by(|a, b| a.label.cmp(&b.label));
        runs
    }

    /// Render every run's *final* scrape as one Prometheus text
    /// exposition, each run distinguished by a `run="<label>"` label.
    pub fn prometheus_text(&self) -> String {
        let mut writer = PromWriter::new();
        for run in self.sorted_runs() {
            writer.append(&run.last, &[("run".to_string(), run.label.clone())]);
        }
        writer.finish()
    }

    /// Render every run's full time series (plus final scrape) as one
    /// JSON document, label-sorted.
    pub fn json(&self) -> String {
        let runs = self.sorted_runs();
        let mut out = format!(
            "{{\"schema\":\"mutls-metrics-v{BENCH_SCHEMA_VERSION}\",\"schema_version\":{BENCH_SCHEMA_VERSION},\"runs\":"
        );
        runs.serialize_json(&mut out);
        out.push_str("}\n");
        out
    }
}

/// Shared configuration for all experiments.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Problem-size preset.
    pub scale: Scale,
    /// CPU counts for sweep figures (3–7).
    pub cpus: Vec<usize>,
    /// RNG seed (rollback injection).
    pub seed: u64,
    /// When set, the sweeps enable their flight recorders and drain each
    /// run's lifecycle events into this sink (the binary's
    /// `--trace <path>` export).  `None` keeps recording disabled — the
    /// zero-overhead default.
    pub trace: Option<Arc<TraceSink>>,
    /// When set, the sweeps enable the live metrics plane and record each
    /// run's time series plus final scrape into this sink (the binary's
    /// `--metrics <path>` export).  `None` keeps the registry disabled —
    /// the one-branch no-op default.
    pub metrics: Option<Arc<MetricsSink>>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: Scale::Scaled,
            cpus: vec![1, 2, 4, 8, 16, 32, 48, 64],
            seed: 0xAB5C155A,
            trace: None,
            metrics: None,
        }
    }
}

impl ExperimentConfig {
    /// A fast preset used by tests and smoke benches.
    pub fn quick() -> Self {
        ExperimentConfig {
            scale: Scale::Tiny,
            cpus: vec![1, 4, 16, 64],
            seed: 7,
            trace: None,
            metrics: None,
        }
    }

    /// Attach a trace sink: native sweeps enable their flight recorders
    /// and the deterministic replays emit virtual-time events into it.
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Attach a metrics sink: native sweeps enable the sampler-backed
    /// registry and the deterministic replays mirror it off the virtual
    /// clock, all recording into the sink.
    pub fn with_metrics(mut self, sink: Arc<MetricsSink>) -> Self {
        self.metrics = Some(sink);
        self
    }

    /// What the runs of a sweep should capture: event tracing and the
    /// metrics plane are on exactly when a sink is attached.
    pub fn observe(&self) -> Observe {
        Observe {
            trace: self.trace.is_some(),
            metrics: self.metrics.is_some(),
        }
    }

    /// Hand one run's captures to the attached sinks under `label`.
    pub(crate) fn record(
        &self,
        label: &str,
        trace: Option<(Vec<TraceEvent>, u64)>,
        metrics: Option<(MetricsSeries, MetricsSnapshot)>,
    ) {
        if let (Some(sink), Some((events, dropped))) = (&self.trace, trace) {
            sink.record(label, events, dropped);
        }
        if let (Some(sink), Some((series, last))) = (&self.metrics, metrics) {
            sink.record(label, series, last);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_sink_collects_and_sorts_runs() {
        let sink = TraceSink::new();
        assert!(sink.is_empty());
        let ev = TraceEvent {
            ts: 10,
            rank: 1,
            site: 2,
            epoch: 3,
            kind: mutls_trace::EventKind::Commit,
        };
        sink.record("b/run", vec![ev], 0);
        sink.record("a/run", vec![], 4);
        assert_eq!(sink.len(), 2);
        let json = sink.chrome_json();
        // Deterministic export: sorted by label regardless of insertion
        // order, and structurally valid Chrome trace-event JSON.
        assert!(json.find("a/run").unwrap() < json.find("b/run").unwrap());
        let value = serde_json::parse(&json).expect("chrome trace JSON parses");
        let obj = value.as_object().expect("top level is an object");
        assert!(obj.iter().any(|(k, _)| k == "traceEvents"));
    }
}
