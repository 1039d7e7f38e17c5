//! Plain-text table rendering for experiment output.

use std::fmt::Write as _;

use mutls_membuf::{RollbackReason, LINE_GRAIN_LOG2, PAGE_GRAIN_LOG2, WORD_GRAIN_LOG2};
use mutls_runtime::RunReport;
use mutls_trace::{LatencyPhase, LatencyReport};
use mutls_workloads::site_label;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table title (printed above the header).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Render as an aligned text block.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let header: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:width$}", h, width = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }
}

/// Format a rolled-back thread count together with its per-reason
/// breakdown (`total (C…/O…/I…/X…)` = conflict / overflow / injected /
/// other), so tables surface *why* speculation failed instead of a single
/// opaque rollback count.
pub fn format_rollback_cell(total: u64, reasons: &[u64; RollbackReason::COUNT]) -> String {
    format!(
        "{total} (C{}/O{}/I{}/X{})",
        reasons[RollbackReason::Conflict.index()],
        reasons[RollbackReason::Overflow.index()],
        reasons[RollbackReason::Injected.index()],
        reasons[RollbackReason::Other.index()],
    )
}

/// Render a speedup/efficiency sweep as a table: one row per CPU count and
/// one column per workload.
pub fn format_sweep_table(title: &str, cpus: &[usize], series: &[(String, Vec<f64>)]) -> String {
    let mut headers = vec!["CPUs".to_string()];
    headers.extend(series.iter().map(|(name, _)| name.clone()));
    let mut table = Table {
        title: title.to_string(),
        headers,
        rows: Vec::new(),
    };
    for (i, &n) in cpus.iter().enumerate() {
        let mut row = vec![n.to_string()];
        for (_, values) in series {
            row.push(format!("{:.2}", values.get(i).copied().unwrap_or(f64::NAN)));
        }
        table.push_row(row);
    }
    table.render()
}

/// Render a per-phase breakdown (one row per CPU count, one column per
/// phase, values are percentages).
pub fn format_breakdown_table(
    title: &str,
    cpus: &[usize],
    phases: &[&str],
    rows: &[Vec<f64>],
) -> String {
    let mut headers = vec!["CPUs".to_string()];
    headers.extend(phases.iter().map(|p| p.to_string()));
    let mut table = Table {
        title: title.to_string(),
        headers,
        rows: Vec::new(),
    };
    for (i, &n) in cpus.iter().enumerate() {
        let mut row = vec![n.to_string()];
        for value in &rows[i] {
            row.push(format!("{:5.1}%", value * 100.0));
        }
        table.push_row(row);
    }
    table.render()
}

/// Render a [`LatencyReport`] as a table: one row per lifecycle phase
/// with the sample count and log2-bucket p50/p99/p999 quantile floors.
/// Values are in the run's native unit — nanoseconds for the native
/// runtime, virtual cycles for the simulator — so the caller should say
/// which in `title`.
pub fn format_latency_table(title: &str, report: &LatencyReport) -> String {
    let mut table = Table::new(title, &["phase", "samples", "p50", "p99", "p999"]);
    for row in &report.phases {
        table.push_row(vec![
            row.phase.clone(),
            row.count.to_string(),
            row.p50.to_string(),
            row.p99.to_string(),
            row.p999.to_string(),
        ]);
    }
    table.render()
}

/// Human label for a tracking grain.
pub fn grain_label(grain_log2: u32) -> String {
    match grain_log2 {
        WORD_GRAIN_LOG2 => "word".to_string(),
        LINE_GRAIN_LOG2 => "line".to_string(),
        PAGE_GRAIN_LOG2 => "page".to_string(),
        g => format!("2^{g}B"),
    }
}

/// Compact `p50/p99/p999` cell for one latency phase of a *native* run,
/// where samples are nanoseconds (reported in µs); "-" when the phase
/// never fired.
pub(crate) fn latency_cell_us(report: &LatencyReport, phase: LatencyPhase) -> String {
    match report.row(phase) {
        Some(row) if row.count > 0 => format!(
            "{:.1}/{:.1}/{:.1}",
            row.p50 as f64 / 1e3,
            row.p99 as f64 / 1e3,
            row.p999 as f64 / 1e3
        ),
        _ => "-".to_string(),
    }
}

/// Render a `RunReport`'s per-site governor profile as a table, with the
/// rollback-cause split (conflicts / overflows / injected) per site and
/// the commit log's grain, which every site's traffic ran at ("-" = no
/// child of the site was ever retired).  The commit-path cost
/// counters (`cas_retries`, `ring_overflows`) are log-wide, not
/// per-site, so they render on a trailing `commit-log` summary row.
pub fn format_site_table(title: &str, report: &RunReport) -> String {
    let mut table = Table::new(
        title,
        &[
            "site",
            "forks",
            "throttled",
            "commits",
            "retries",
            "rollbacks",
            "conflicts",
            "overflows",
            "injected",
            "rollback rate",
            "wasted work",
            "grain",
            "cas-retries",
            "ring-ovfl",
        ],
    );
    for profile in &report.sites {
        let name = site_label(profile.site)
            .map(str::to_string)
            .unwrap_or_else(|| format!("site {}", profile.site));
        table.push_row(vec![
            name,
            profile.forks.to_string(),
            profile.throttled.to_string(),
            profile.commits.to_string(),
            profile.retries.to_string(),
            profile.rollbacks.to_string(),
            profile.conflicts.to_string(),
            profile.overflows.to_string(),
            profile.injected.to_string(),
            format!("{:.2}", profile.rollback_rate),
            profile.wasted_work.to_string(),
            if profile.commits + profile.rollbacks == 0 {
                "-".to_string()
            } else {
                grain_label(report.commit_log.grain_log2)
            },
            "-".to_string(),
            "-".to_string(),
        ]);
    }
    let log = report.commit_log;
    let mut summary = vec!["commit-log".to_string()];
    summary.resize(12, "-".to_string());
    summary.push(log.cas_retries.to_string());
    summary.push(log.ring_overflows.to_string());
    table.push_row(summary);
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.push_row(vec!["fft".into(), "3.72".into()]);
        t.push_row(vec!["matmult".into(), "2.01".into()]);
        let text = t.render();
        assert!(text.contains("# demo"));
        assert!(text.contains("fft"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    fn sweep_table_has_one_row_per_cpu() {
        let text = format_sweep_table(
            "speedup",
            &[1, 2, 4],
            &[("fft".to_string(), vec![1.0, 1.8, 3.1])],
        );
        assert_eq!(text.lines().count(), 3 + 3);
        assert!(text.contains("3.10"));
    }

    #[test]
    fn rollback_cell_orders_reasons_stably() {
        let mut reasons = [0u64; RollbackReason::COUNT];
        reasons[RollbackReason::Conflict.index()] = 3;
        reasons[RollbackReason::Injected.index()] = 2;
        assert_eq!(format_rollback_cell(5, &reasons), "5 (C3/O0/I2/X0)");
    }

    #[test]
    fn breakdown_table_formats_percentages() {
        let text =
            format_breakdown_table("breakdown", &[2], &["work", "idle"], &[vec![0.75, 0.25]]);
        assert!(text.contains("75.0%"));
        assert!(text.contains("25.0%"));
    }

    /// Golden render of the per-site profile table: exact output, so any
    /// accidental column/format drift fails loudly.
    #[test]
    fn site_table_renders_golden() {
        use mutls_membuf::CommitLogStats;
        use mutls_runtime::SiteProfile;
        let report = RunReport {
            sites: vec![
                SiteProfile {
                    site: mutls_workloads::matmult::SITE_QUADRANT,
                    forks: 12,
                    throttled: 1,
                    commits: 10,
                    rollbacks: 2,
                    overflows: 1,
                    conflicts: 1,
                    retries: 3,
                    injected: 0,
                    committed_work: 0,
                    wasted_work: 420,
                    stall: 0,
                    rollback_rate: 0.25,
                },
                // Forked, nothing joined yet: no grain to print.
                SiteProfile {
                    site: 999,
                    forks: 4,
                    ..SiteProfile::default()
                },
            ],
            commit_log: CommitLogStats {
                grain_log2: WORD_GRAIN_LOG2,
                ..CommitLogStats::default()
            },
            ..RunReport::default()
        };
        let text = format_site_table("Per-site profile — golden", &report);
        let expected = "\
# Per-site profile — golden
site              forks  throttled  commits  retries  rollbacks  conflicts  overflows  injected  rollback rate  wasted work  grain  cas-retries  ring-ovfl
------------------------------------------------------------------------------------------------------------------------------------------------------------\n\
matmult/quadrant  12     1          10       3        2          1          1          0         0.25           420          word   -            -        \n\
site 999          4      0          0        0        0          0          0          0         0.00           0            -      -            -        \n\
commit-log        -      -          -        -        -          -          -          -         -              -            -      0            0        \n";
        assert_eq!(text, expected);
    }

    /// Golden render of the per-phase latency table.
    #[test]
    fn latency_table_renders_golden() {
        let recorder = mutls_trace::LatencyRecorder::new();
        recorder.record(LatencyPhase::ForkToCommit, 1000);
        recorder.record(LatencyPhase::ForkToCommit, 5000);
        recorder.record(LatencyPhase::Validation, 100);
        let text = format_latency_table("Phase latencies — golden (ns)", &recorder.report());
        let expected = "\
# Phase latencies — golden (ns)
phase             samples  p50  p99   p999
--------------------------------------------
fork-to-commit    2        512  4096  4096
validation        1        64   64    64  \n\
commit-lock-wait  0        0    0     0   \n\
repair-retry      0        0    0     0   \n\
repair-doomset    0        0    0     0   \n";
        assert_eq!(text, expected);
    }

    /// Golden render of the grain labels of the site tables.
    #[test]
    fn grain_labels_render_golden() {
        assert_eq!(grain_label(WORD_GRAIN_LOG2), "word");
        assert_eq!(grain_label(LINE_GRAIN_LOG2), "line");
        assert_eq!(grain_label(PAGE_GRAIN_LOG2), "page");
        assert_eq!(grain_label(8), "2^8B");
    }
}
