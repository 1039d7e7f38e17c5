//! Scrape products: one aggregated [`MetricsSnapshot`] per sample tick,
//! collected into a bounded [`MetricsSeries`].
//!
//! Both types round-trip through the workspace serde (derive
//! `Serialize` + `Deserialize`), which is what the JSON time-series
//! exporter writes and what the round-trip tests parse back.

use serde::{Deserialize, Serialize};

/// A gauge with free-form labels (per-site throttle state, per-region
/// grain census, phase attribution...).
/// Label values are escaped by the Prometheus exporter, not here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledGauge {
    /// Metric name without the `mutls_` prefix (e.g. `site_rollback_rate`).
    pub name: String,
    /// Label key/value pairs, in emission order.
    pub labels: Vec<(String, String)>,
    /// The gauge value.
    pub value: f64,
}

impl LabeledGauge {
    /// Convenience constructor for a single-label gauge.
    pub fn new(
        name: impl Into<String>,
        key: impl Into<String>,
        label: impl Into<String>,
        value: f64,
    ) -> Self {
        LabeledGauge {
            name: name.into(),
            labels: vec![(key.into(), label.into())],
            value,
        }
    }
}

/// One histogram's state at scrape time: log2 buckets with the trailing
/// zero run trimmed (bucket `k >= 1` holds values in `[2^(k-1), 2^k-1]`,
/// bucket 0 holds the value 0).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name without the `mutls_` prefix.
    pub name: String,
    /// Total observations (the sum of `buckets`).
    pub count: u64,
    /// Per-bucket observation counts.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Approximate sum of all observations: `Σ count × bucket_floor`
    /// (floors are powers of two, so this is a lower bound within 2×).
    pub fn approx_sum(&self) -> u64 {
        self.buckets
            .iter()
            .enumerate()
            .map(|(k, &c)| if k == 0 { 0 } else { c << (k - 1) })
            .sum()
    }
}

/// What a scraper appends to the registry's own totals, because a
/// registry cannot know it.
///
/// * `extra_counters` / `extra_gauges` follow the static ids (commit-log
///   counters such as `log_stamps`, `log_cas_retries`).
/// * `labeled` carries the per-site / per-region / per-phase gauges.
#[derive(Debug, Clone, Default)]
pub struct ScrapeExtras {
    /// Appended free-form counters (cumulative, monotone).
    pub extra_counters: Vec<(String, u64)>,
    /// Appended free-form gauges.
    pub extra_gauges: Vec<(String, f64)>,
    /// Labeled gauges (sites, regions, phases, shards).
    pub labeled: Vec<LabeledGauge>,
}

/// One aggregated view of every metric at a single timestamp (`ts` is
/// nanoseconds since run start natively, virtual cycles in the replay).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Sample timestamp.
    pub ts: u64,
    /// Counter totals, static ids first (in [`crate::CounterId::ALL`] order),
    /// then the scrape's extra counters.
    pub counters: Vec<(String, u64)>,
    /// Gauges: static ids, then the derived gauges
    /// (`rollback_amplification`, `speculation_success_rate`,
    /// `precise_pass_fraction`), then the scrape's extra gauges.
    pub gauges: Vec<(String, f64)>,
    /// Histogram states.
    pub histograms: Vec<HistogramSnapshot>,
    /// Labeled gauges.
    pub labeled: Vec<LabeledGauge>,
}

impl MetricsSnapshot {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// A bounded in-memory time series of snapshots: pushing past
/// `capacity` drops the oldest sample and counts it, so a long-running
/// service holds a recent-complete window at fixed memory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSeries {
    /// Maximum retained samples (0 = unbounded).
    pub capacity: usize,
    /// Samples dropped after the series filled.
    pub dropped: u64,
    /// Retained samples, oldest first.
    pub samples: Vec<MetricsSnapshot>,
}

impl MetricsSeries {
    /// An empty series with the given capacity (0 = unbounded).
    pub fn new(capacity: usize) -> Self {
        MetricsSeries {
            capacity,
            dropped: 0,
            samples: Vec::new(),
        }
    }

    /// Append a snapshot, evicting the oldest once full.
    pub fn push(&mut self, snapshot: MetricsSnapshot) {
        if self.capacity > 0 && self.samples.len() >= self.capacity {
            self.samples.remove(0);
            self.dropped += 1;
        }
        self.samples.push(snapshot);
    }

    /// The most recent sample.
    pub fn latest(&self) -> Option<&MetricsSnapshot> {
        self.samples.last()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been sampled yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Drop every sample (run boundaries).
    pub fn clear(&mut self) {
        self.samples.clear();
        self.dropped = 0;
    }

    /// The series as one JSON document (the `--metrics <path>.json`
    /// exporter payload; round-trips through `serde_json::parse` +
    /// `Deserialize`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.serialize_json(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(ts: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            ts,
            counters: vec![("commits".to_string(), ts)],
            gauges: vec![("rollback_amplification".to_string(), 0.5)],
            histograms: vec![HistogramSnapshot {
                name: "thread_cycles".to_string(),
                count: 2,
                buckets: vec![0, 1, 1],
            }],
            labeled: vec![LabeledGauge::new(
                "phase_share",
                "phase",
                "validation",
                0.25,
            )],
        }
    }

    #[test]
    fn bounded_series_drops_oldest() {
        let mut series = MetricsSeries::new(2);
        series.push(snap(1));
        series.push(snap(2));
        series.push(snap(3));
        assert_eq!(series.len(), 2);
        assert_eq!(series.dropped, 1);
        assert_eq!(series.samples[0].ts, 2);
        assert_eq!(series.latest().unwrap().ts, 3);
    }

    #[test]
    fn approx_sum_uses_bucket_floors() {
        let hist = HistogramSnapshot {
            name: "h".to_string(),
            count: 3,
            // One zero, one value in [2,3], one in [4,7].
            buckets: vec![1, 0, 1, 1],
        };
        assert_eq!(hist.approx_sum(), 2 + 4);
    }
}
