//! Exporters: Prometheus text exposition format.
//!
//! (The JSON time-series exporter is [`MetricsSeries::to_json`] — the
//! snapshot types serialize directly.)
//!
//! [`MetricsSeries::to_json`]: crate::MetricsSeries::to_json

use std::collections::BTreeSet;

use crate::{CounterId, GaugeId, HistId, MetricsSnapshot};

/// Every exported metric name carries this prefix.
pub const PROM_PREFIX: &str = "mutls_";

/// Escape a label value per the Prometheus text format: backslash,
/// double quote and newline.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Escape a `# HELP` text: backslash and newline.
fn escape_help(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Render a label set `{k="v",...}` (empty string when no labels).
fn label_block(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        out.push_str(&escape_label(value));
        out.push('"');
    }
    out.push('}');
    out
}

/// Incremental Prometheus text writer.  `# HELP` / `# TYPE` headers are
/// emitted once per metric name across every appended snapshot, so a
/// multi-run export (one snapshot per run, distinguished by a `run`
/// label) is still a valid single exposition.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
    seen: BTreeSet<String>,
}

impl PromWriter {
    /// An empty writer.
    pub fn new() -> Self {
        PromWriter::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        if self.seen.insert(name.to_string()) {
            self.out
                .push_str(&format!("# HELP {name} {}\n", escape_help(help)));
            self.out.push_str(&format!("# TYPE {name} {kind}\n"));
        }
    }

    /// Append one snapshot under `base_labels` (e.g.
    /// `[("run", "native/conflict_chain")]`).
    pub fn append(&mut self, snapshot: &MetricsSnapshot, base_labels: &[(String, String)]) {
        let base = label_block(base_labels);

        for (name, value) in &snapshot.counters {
            let full = format!("{PROM_PREFIX}{name}_total");
            let help = CounterId::ALL
                .iter()
                .find(|id| id.name() == name)
                .map(|id| id.help().to_string())
                .unwrap_or_else(|| format!("Scraped counter {name}"));
            self.header(&full, &help, "counter");
            self.out.push_str(&format!("{full}{base} {value}\n"));
        }

        for (name, value) in &snapshot.gauges {
            let full = format!("{PROM_PREFIX}{name}");
            let help = GaugeId::ALL
                .iter()
                .find(|id| id.name() == name)
                .map(|id| id.help().to_string())
                .unwrap_or_else(|| match name.as_str() {
                    "rollback_amplification" => {
                        "Derived: wasted_cycles / max(1, committed_cycles)".to_string()
                    }
                    "speculation_success_rate" => {
                        "Derived: commits / max(1, commits + rollbacks)".to_string()
                    }
                    "precise_pass_fraction" => {
                        "Derived: precise_passes / max(1, commits)".to_string()
                    }
                    _ => format!("Scraped gauge {name}"),
                });
            self.header(&full, &help, "gauge");
            self.out.push_str(&format!("{full}{base} {value}\n"));
        }

        for hist in &snapshot.histograms {
            let full = format!("{PROM_PREFIX}{}", hist.name);
            let help = HistId::ALL
                .iter()
                .find(|id| id.name() == hist.name)
                .map(|id| id.help())
                .unwrap_or("Log2-bucket histogram");
            self.header(
                &full,
                &format!("{help} (sum approximated from bucket floors)"),
                "histogram",
            );
            let mut cumulative = 0u64;
            for (k, &count) in hist.buckets.iter().enumerate() {
                cumulative += count;
                // Bucket 0 holds the value 0; bucket k >= 1 holds
                // [2^(k-1), 2^k - 1], so its upper bound is 2^k - 1.
                let le = if k == 0 {
                    "0".to_string()
                } else if k >= 64 {
                    u64::MAX.to_string()
                } else {
                    ((1u64 << k) - 1).to_string()
                };
                let mut labels = base_labels.to_vec();
                labels.push(("le".to_string(), le));
                self.out.push_str(&format!(
                    "{full}_bucket{} {cumulative}\n",
                    label_block(&labels)
                ));
            }
            let mut labels = base_labels.to_vec();
            labels.push(("le".to_string(), "+Inf".to_string()));
            self.out.push_str(&format!(
                "{full}_bucket{} {}\n",
                label_block(&labels),
                hist.count
            ));
            self.out
                .push_str(&format!("{full}_sum{base} {}\n", hist.approx_sum()));
            self.out
                .push_str(&format!("{full}_count{base} {}\n", hist.count));
        }

        for gauge in &snapshot.labeled {
            let full = format!("{PROM_PREFIX}{}", gauge.name);
            let help = match gauge.name.as_str() {
                "phase_share" => {
                    "Derived: phase's share of summed phase wall (from latency histograms)"
                }
                "site_rollback_rate" => "Per-site recency-weighted rollback rate",
                "site_throttled" => "Per-site governor throttle denials",
                "grain_regions" => "Regions currently tracked at each commit-log grain",
                _ => "Scraped labeled gauge",
            };
            self.header(&full, help, "gauge");
            let mut labels = base_labels.to_vec();
            labels.extend(gauge.labels.iter().cloned());
            self.out
                .push_str(&format!("{full}{} {}\n", label_block(&labels), gauge.value));
        }
    }

    /// True when nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// The finished exposition document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// One-shot exposition of a single snapshot.
pub fn prometheus_text(snapshot: &MetricsSnapshot, base_labels: &[(String, String)]) -> String {
    let mut writer = PromWriter::new();
    writer.append(snapshot, base_labels);
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HistogramSnapshot, LabeledGauge};

    /// Golden test: exact exposition of a hand-built snapshot — metric
    /// names, HELP/TYPE lines, cumulative buckets and label escaping.
    #[test]
    fn golden_prometheus_exposition() {
        let snapshot = MetricsSnapshot {
            ts: 42,
            counters: vec![("commits".to_string(), 3), ("log_stamps".to_string(), 17)],
            gauges: vec![("rollback_amplification".to_string(), 0.5)],
            histograms: vec![HistogramSnapshot {
                name: "thread_cycles".to_string(),
                count: 3,
                buckets: vec![1, 0, 2],
            }],
            labeled: vec![LabeledGauge::new(
                "phase_share",
                "phase",
                "va\"l\\id\nation",
                0.25,
            )],
        };
        let run = [("run".to_string(), "native/conflict".to_string())];
        let text = prometheus_text(&snapshot, &run);
        let expected = concat!(
            "# HELP mutls_commits_total Speculative threads committed\n",
            "# TYPE mutls_commits_total counter\n",
            "mutls_commits_total{run=\"native/conflict\"} 3\n",
            "# HELP mutls_log_stamps_total Scraped counter log_stamps\n",
            "# TYPE mutls_log_stamps_total counter\n",
            "mutls_log_stamps_total{run=\"native/conflict\"} 17\n",
            "# HELP mutls_rollback_amplification Derived: wasted_cycles / max(1, committed_cycles)\n",
            "# TYPE mutls_rollback_amplification gauge\n",
            "mutls_rollback_amplification{run=\"native/conflict\"} 0.5\n",
            "# HELP mutls_thread_cycles Cycles per retired speculative thread (log2 buckets) (sum approximated from bucket floors)\n",
            "# TYPE mutls_thread_cycles histogram\n",
            "mutls_thread_cycles_bucket{run=\"native/conflict\",le=\"0\"} 1\n",
            "mutls_thread_cycles_bucket{run=\"native/conflict\",le=\"1\"} 1\n",
            "mutls_thread_cycles_bucket{run=\"native/conflict\",le=\"3\"} 3\n",
            "mutls_thread_cycles_bucket{run=\"native/conflict\",le=\"+Inf\"} 3\n",
            "mutls_thread_cycles_sum{run=\"native/conflict\"} 4\n",
            "mutls_thread_cycles_count{run=\"native/conflict\"} 3\n",
            "# HELP mutls_phase_share Derived: phase's share of summed phase wall (from latency histograms)\n",
            "# TYPE mutls_phase_share gauge\n",
            "mutls_phase_share{run=\"native/conflict\",phase=\"va\\\"l\\\\id\\nation\"} 0.25\n",
        );
        assert_eq!(text, expected);
    }

    #[test]
    fn multi_snapshot_export_emits_headers_once() {
        let snapshot = MetricsSnapshot {
            ts: 0,
            counters: vec![("commits".to_string(), 1)],
            gauges: vec![],
            histograms: vec![],
            labeled: vec![],
        };
        let mut writer = PromWriter::new();
        writer.append(&snapshot, &[("run".to_string(), "a".to_string())]);
        writer.append(&snapshot, &[("run".to_string(), "b".to_string())]);
        let text = writer.finish();
        assert_eq!(text.matches("# TYPE mutls_commits_total").count(), 1);
        assert!(text.contains("mutls_commits_total{run=\"a\"} 1"));
        assert!(text.contains("mutls_commits_total{run=\"b\"} 1"));
    }
}
