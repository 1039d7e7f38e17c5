//! Log2-bucket latency histograms and their p50/p99/p999 report rows.
//!
//! Durations are folded into 65 power-of-two buckets (`0`, `[1,2)`,
//! `[2,4)`, … `[2^63, 2^64)`) with one relaxed `fetch_add` per sample, so
//! the histograms stay on even when event tracing is off — they are what
//! feeds `RunReport.latency`.  Quantiles are reported as the *lower bound*
//! of the bucket the quantile falls in: deterministic, monotone, and never
//! over-reports a latency by more than 2×.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Number of log2 buckets: one for zero plus one per bit of a `u64`.
const BUCKETS: usize = 65;

/// Which per-phase duration a sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyPhase {
    /// Fork dispatch to successful commit of the same thread.
    ForkToCommit,
    /// Join-time read-set validation.
    Validation,
    /// Commit publication: version reservation plus write-set stamping.
    CommitLockWait,
    /// Conflict repaired in place by value-predict retry.
    RepairRetry,
    /// Rollback repaired by inline re-execution, whose publishes doom the
    /// readers of what it rewrites.
    RepairDoomSet,
}

impl LatencyPhase {
    /// Every phase, in presentation order.
    pub const ALL: [LatencyPhase; 5] = [
        LatencyPhase::ForkToCommit,
        LatencyPhase::Validation,
        LatencyPhase::CommitLockWait,
        LatencyPhase::RepairRetry,
        LatencyPhase::RepairDoomSet,
    ];

    /// Stable label used in tables and JSON rows.
    pub fn label(self) -> &'static str {
        match self {
            LatencyPhase::ForkToCommit => "fork-to-commit",
            LatencyPhase::Validation => "validation",
            LatencyPhase::CommitLockWait => "commit-lock-wait",
            LatencyPhase::RepairRetry => "repair-retry",
            LatencyPhase::RepairDoomSet => "repair-doomset",
        }
    }

    fn index(self) -> usize {
        match self {
            LatencyPhase::ForkToCommit => 0,
            LatencyPhase::Validation => 1,
            LatencyPhase::CommitLockWait => 2,
            LatencyPhase::RepairRetry => 3,
            LatencyPhase::RepairDoomSet => 4,
        }
    }
}

/// One concurrent log2-bucket histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index of a value: 0 for 0, else `floor(log2(v)) + 1`.
fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Lower bound of a bucket (the reported representative value).
fn bucket_floor(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else {
        1u64 << (bucket - 1)
    }
}

impl Histogram {
    /// A new, empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Samples per bucket: bucket 0 holds the value 0, bucket `k >= 1`
    /// the values in `[2^(k-1), 2^k)`.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (in thousandths: 500 = p50, 999 = p999) as the
    /// lower bound of the bucket it falls in; 0 when empty.
    pub fn quantile_millis(&self, q: u64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((total * q).div_ceil(1000)).max(1);
        let mut cumulative = 0;
        for (bucket, count) in counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= target {
                return bucket_floor(bucket);
            }
        }
        bucket_floor(BUCKETS - 1)
    }

    /// Approximate sum of all samples: `Σ count × bucket_floor`.  Floors
    /// are powers of two, so this is a deterministic lower bound within
    /// 2× — good enough for share-of-total attribution.
    pub fn approx_total(&self) -> u64 {
        self.buckets
            .iter()
            .enumerate()
            .map(|(bucket, count)| {
                count
                    .load(Ordering::Relaxed)
                    .saturating_mul(bucket_floor(bucket))
            })
            .sum()
    }

    /// Zero every bucket.
    pub fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

/// One phase's row in [`LatencyReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyRow {
    /// Phase label (see [`LatencyPhase::label`]).
    pub phase: String,
    /// Number of samples.
    pub count: u64,
    /// Median, as the lower bound of its log2 bucket.
    pub p50: u64,
    /// 99th percentile, lower bound of its log2 bucket.
    pub p99: u64,
    /// 99.9th percentile, lower bound of its log2 bucket.
    pub p999: u64,
}

/// Per-phase latency quantiles of one run (`RunReport.latency`).
///
/// Always carries one row per [`LatencyPhase`], in `ALL` order, so the
/// serialized shape is stable for golden tests and determinism checks.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyReport {
    /// One row per phase, in [`LatencyPhase::ALL`] order.
    pub phases: Vec<LatencyRow>,
}

impl LatencyReport {
    /// The row for `phase`, if present.
    pub fn row(&self, phase: LatencyPhase) -> Option<&LatencyRow> {
        self.phases.iter().find(|r| r.phase == phase.label())
    }

    /// Total samples across all phases.
    pub fn total_samples(&self) -> u64 {
        self.phases.iter().map(|r| r.count).sum()
    }
}

/// The always-on per-phase histogram bank.
#[derive(Debug, Default)]
pub struct LatencyRecorder {
    histograms: [Histogram; LatencyPhase::ALL.len()],
}

impl LatencyRecorder {
    /// A new bank of empty histograms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration sample for `phase`.
    #[inline]
    pub fn record(&self, phase: LatencyPhase, value: u64) {
        self.histograms[phase.index()].record(value);
    }

    /// Direct access to one phase's histogram.
    pub fn histogram(&self, phase: LatencyPhase) -> &Histogram {
        &self.histograms[phase.index()]
    }

    /// Snapshot the quantile rows for every phase.
    pub fn report(&self) -> LatencyReport {
        LatencyReport {
            phases: LatencyPhase::ALL
                .iter()
                .map(|&phase| {
                    let h = &self.histograms[phase.index()];
                    LatencyRow {
                        phase: phase.label().to_string(),
                        count: h.count(),
                        p50: h.quantile_millis(500),
                        p99: h.quantile_millis(990),
                        p999: h.quantile_millis(999),
                    }
                })
                .collect(),
        }
    }

    /// Per-phase approximate totals (`Σ count × bucket_floor`), in
    /// [`LatencyPhase::ALL`] order — the metrics plane's phase-attribution
    /// input.
    pub fn approx_totals(&self) -> Vec<(&'static str, u64)> {
        LatencyPhase::ALL
            .iter()
            .map(|&phase| (phase.label(), self.histograms[phase.index()].approx_total()))
            .collect()
    }

    /// Zero every histogram.
    pub fn reset(&self) {
        for histogram in &self.histograms {
            histogram.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(64), 1u64 << 63);
    }

    #[test]
    fn quantiles_of_uniform_samples() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        // p50 of 1..=1000 is 500, whose bucket [512,1024) floor... 500 is
        // in [256,512): floor 256.
        assert_eq!(h.quantile_millis(500), 256);
        // p99 = 990 → bucket [512,1024).
        assert_eq!(h.quantile_millis(990), 512);
        assert_eq!(h.quantile_millis(999), 512);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile_millis(500), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let h = Histogram::new();
        h.record(1 << 20);
        for q in [500, 990, 999] {
            assert_eq!(h.quantile_millis(q), 1 << 20);
        }
    }

    #[test]
    fn recorder_reports_all_phases_in_order() {
        let rec = LatencyRecorder::new();
        rec.record(LatencyPhase::Validation, 100);
        rec.record(LatencyPhase::Validation, 100);
        let report = rec.report();
        assert_eq!(report.phases.len(), LatencyPhase::ALL.len());
        for (row, phase) in report.phases.iter().zip(LatencyPhase::ALL) {
            assert_eq!(row.phase, phase.label());
        }
        let row = report.row(LatencyPhase::Validation).unwrap();
        assert_eq!(row.count, 2);
        assert_eq!(row.p50, 64, "100 falls in bucket [64,128)");
        assert_eq!(report.total_samples(), 2);
        rec.reset();
        assert_eq!(rec.report().total_samples(), 0);
    }

    #[test]
    fn latency_report_round_trips_through_json() {
        let rec = LatencyRecorder::new();
        rec.record(LatencyPhase::ForkToCommit, 12345);
        rec.record(LatencyPhase::RepairDoomSet, 7);
        let report = rec.report();
        let mut json = String::new();
        report.serialize_json(&mut json);
        let value = serde_json::from_str::<LatencyReport>(&json).unwrap();
        assert_eq!(value, report);
    }
}
