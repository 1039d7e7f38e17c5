//! Execution statistics: per-thread phase breakdowns and run-level metrics.
//!
//! The paper's evaluation (§V-B) splits execution time of the
//! *critical path* (the non-speculative thread) into
//! `work / join / idle / fork / find CPU`, and of the *speculative path*
//! into `wasted work / finalize / commit / validation / overflow / idle /
//! fork / find CPU` (plus useful work).  [`Phase`] enumerates those
//! categories and [`ThreadStats`] accumulates time per category, for both
//! the native runtime (nanoseconds) and the discrete-event simulator
//! (virtual cycles) — the unit is opaque to this module.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use mutls_adaptive::SiteProfile;
use mutls_membuf::{CommitLogStats, RollbackReason};
use mutls_trace::LatencyReport;
use serde::{Deserialize, JsonValue, Serialize};

/// Execution-time category, matching the paper's breakdown figures 8 and 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Useful work performed by the thread.
    Work,
    /// Work that was discarded because the thread rolled back.
    WastedWork,
    /// Scanning for an idle virtual CPU at a fork point.
    FindCpu,
    /// Setting up a speculative thread (saving locals, dispatch).
    Fork,
    /// Waiting: the non-speculative thread waiting at a join point, or a
    /// speculative thread waiting to be joined (barrier / completion).
    Idle,
    /// Synchronization bookkeeping at join points.
    Join,
    /// Read-set validation.
    Validation,
    /// Write-set commit (to memory or into the parent's buffers).
    Commit,
    /// Buffer finalization (clearing) after commit or rollback.
    Finalize,
    /// Time lost to buffer-overflow stalls.
    Overflow,
}

impl Phase {
    /// All phases in presentation order.
    pub const ALL: [Phase; 10] = [
        Phase::Work,
        Phase::WastedWork,
        Phase::FindCpu,
        Phase::Fork,
        Phase::Idle,
        Phase::Join,
        Phase::Validation,
        Phase::Commit,
        Phase::Finalize,
        Phase::Overflow,
    ];

    /// Human-readable label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Work => "work",
            Phase::WastedWork => "wasted work",
            Phase::FindCpu => "find CPU",
            Phase::Fork => "fork",
            Phase::Idle => "idle",
            Phase::Join => "join",
            Phase::Validation => "validation",
            Phase::Commit => "commit",
            Phase::Finalize => "finalize",
            Phase::Overflow => "overflow",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl Serialize for Phase {
    fn serialize_json(&self, out: &mut String) {
        self.label().serialize_json(out);
    }
}

impl Deserialize for Phase {
    fn deserialize(value: &JsonValue) -> Result<Self, String> {
        let label = String::deserialize(value)?;
        Phase::ALL
            .into_iter()
            .find(|p| p.label() == label)
            .ok_or_else(|| format!("unknown phase label `{label}`"))
    }
}

/// Event counters of one thread.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadCounters {
    /// Speculative threads forked by this thread.  A fork denied for want
    /// of a CPU and dispatched late, after its forker's promotion, counts
    /// once — here, when it is dispatched.
    pub forks: u64,
    /// Fork attempts that found no idle CPU or were denied by the model.
    /// A fork dispatched late keeps the tick of its earlier denial, so
    /// `forks + failed_forks` can exceed the fork points executed.  A
    /// hand-written chain of `n` iterations attempts `n − 1` forks, and
    /// with fewer CPUs than iterations most of them land here; a native
    /// [`fork_range`](crate::TlsContext::fork_range) attempts one only
    /// where a CPU looks idle, so a loop that goes through it adds next to
    /// nothing (`dense_reads`: 18 600 on the chain, 0 through the range).
    pub failed_forks: u64,
    /// Fork attempts suppressed by the adaptive speculation governor.
    pub throttled_forks: u64,
    /// Joins that committed.
    pub commits: u64,
    /// Joins that rolled back.
    pub rollbacks: u64,
    /// Rollbacks split by cause, indexed by [`RollbackReason::index`].
    pub rollbacks_by_reason: [u64; RollbackReason::COUNT],
    /// Conflict rollbacks whose conflicting words all still held their
    /// first-read values — suspected *false sharing* introduced by a
    /// commit-log grain coarser than a word (estimate; a value-identical
    /// ABA write is indistinguishable).
    pub false_sharing_suspects: u64,
    /// Joins whose conflict was repaired by value-predict-and-retry: the
    /// conflicting reads re-validated by value and the thread committed
    /// without re-execution.  **Not** counted in `rollbacks`.
    pub retries_succeeded: u64,
    /// Threads doomed surgically through the per-range reader registry
    /// (counted on the thread whose commit or rollback triggered the
    /// dooming).
    pub targeted_dooms: u64,
    /// Read-set entries that passed validation *precisely* through the
    /// commit log's version rings: the range version had moved, but the
    /// ring footprints proved the commits missed the word (mvcc — at
    /// ring depth 1 this is always zero).
    pub precise_passes: u64,
    /// Unjoined threads of a committed child that were adopted
    /// (validated and committed/absorbed) by this thread instead of
    /// being reaped and re-speculated.
    pub adopted_threads: u64,
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
}

impl ThreadCounters {
    /// Add another thread's counters to these.
    fn merge(&mut self, other: &ThreadCounters) {
        self.forks += other.forks;
        self.failed_forks += other.failed_forks;
        self.throttled_forks += other.throttled_forks;
        self.commits += other.commits;
        self.rollbacks += other.rollbacks;
        for (mine, theirs) in self
            .rollbacks_by_reason
            .iter_mut()
            .zip(other.rollbacks_by_reason)
        {
            *mine += theirs;
        }
        self.false_sharing_suspects += other.false_sharing_suspects;
        self.retries_succeeded += other.retries_succeeded;
        self.targeted_dooms += other.targeted_dooms;
        self.precise_passes += other.precise_passes;
        self.adopted_threads += other.adopted_threads;
        self.loads += other.loads;
        self.stores += other.stores;
    }
}

/// Per-thread accumulated statistics.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadStats {
    /// Time per phase (only phases actually touched are present; the
    /// BTreeMap keeps serialization order deterministic).
    phases: BTreeMap<Phase, u64>,
    /// Event counters.
    pub counters: ThreadCounters,
}

impl ThreadStats {
    /// New, empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `amount` time units to `phase`.
    pub fn add(&mut self, phase: Phase, amount: u64) {
        *self.phases.entry(phase).or_insert(0) += amount;
    }

    /// Time accumulated in `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.phases.get(&phase).copied().unwrap_or(0)
    }

    /// Total time across all phases (the thread's runtime).
    pub fn total(&self) -> u64 {
        self.phases.values().sum()
    }

    /// Reclassify all useful work as wasted work (called when the thread
    /// rolls back).  Returns the amount moved, so rollback sites can feed
    /// the wasted-cycles metric without re-reading the phase map.
    pub fn mark_work_wasted(&mut self) -> u64 {
        let w = self.get(Phase::Work);
        if w > 0 {
            self.phases.insert(Phase::Work, 0);
            self.add(Phase::WastedWork, w);
        }
        w
    }

    /// Merge another thread's statistics into this one.
    pub fn merge(&mut self, other: &ThreadStats) {
        for (phase, amount) in &other.phases {
            self.add(*phase, *amount);
        }
        self.counters.merge(&other.counters);
    }

    /// Fraction of this thread's runtime spent in `phase` (0 when the
    /// thread has no recorded time).
    pub fn fraction(&self, phase: Phase) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(phase) as f64 / total as f64
        }
    }
}

/// Aggregated result of one speculative run.
///
/// Serializes deterministically (`serde::Serialize`): two runs with the
/// same seed and configuration on the simulator produce byte-identical
/// JSON, which the determinism tests assert.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Statistics of the non-speculative thread (the critical path).
    pub critical: ThreadStats,
    /// Combined statistics of every speculative thread (the speculative
    /// path).
    pub speculative: ThreadStats,
    /// Number of speculative threads that committed.
    pub committed_threads: u64,
    /// Number of speculative threads that rolled back (any reason).
    pub rolled_back_threads: u64,
    /// Number of speculative threads whose conflict was repaired by
    /// value-predict-and-retry.  These threads **committed** — they are
    /// included in `committed_threads` and deliberately *not* in
    /// `rolled_back_threads` or `rollback_reasons` (a successful retry is
    /// not a rollback).
    pub retried_threads: u64,
    /// Rolled-back threads split by cause, indexed by
    /// [`RollbackReason::index`].
    pub rollback_reasons: [u64; RollbackReason::COUNT],
    /// Wall-clock (or virtual) runtime of the whole region.
    pub runtime: u64,
    /// Per-fork-site profile table gathered by the adaptive governor,
    /// sorted by site ID (empty when no fork point was reached).
    pub sites: Vec<SiteProfile>,
    /// Commit-log activity: batches, range stamps, publication time, CAS
    /// retries, ring overflows, regrains and `reader_spills`
    /// (registrations by ranks past the registry's 63-rank bitmask) —
    /// the grain cost the `grain` sweep reports.  Simulated runs fill the
    /// batch/stamp/retry/overflow/regrain counters from their publish
    /// model and leave the wall-clock publication time and the spills
    /// zero.
    pub commit_log: CommitLogStats,
    /// Census of the live per-region grains at the end of the run:
    /// `(grain_log2, regions)` pairs over touched regions, ascending by
    /// grain — what the adaptive-grain controller converged to (a single
    /// entry at the configured grain when the controller is disabled).
    pub region_grains: Vec<(u32, u64)>,
    /// Per-phase latency quantiles (p50/p99/p999 per log2-bucket
    /// histogram): fork-to-commit, validation, commit-lock wait and the
    /// rollback-repair arms.  Nanoseconds native, virtual cycles
    /// simulated.  Always populated — the histograms stay on even with
    /// event tracing disabled.
    pub latency: LatencyReport,
}

impl RunReport {
    /// Critical path efficiency `η_crit = T_work_nonspec / T_runtime_nonspec`.
    pub fn critical_path_efficiency(&self) -> f64 {
        let total = self.critical.total();
        if total == 0 {
            return 1.0;
        }
        self.critical.get(Phase::Work) as f64 / total as f64
    }

    /// Speculative path efficiency `η_sp = Σ T_work_sp / Σ T_runtime_sp`.
    pub fn speculative_path_efficiency(&self) -> f64 {
        let total = self.speculative.total();
        if total == 0 {
            return 1.0;
        }
        self.speculative.get(Phase::Work) as f64 / total as f64
    }

    /// Parallel execution coverage `C = Σ T_runtime_sp / T_runtime_nonspec`.
    pub fn coverage(&self) -> f64 {
        let crit = self.critical.total();
        if crit == 0 {
            return 0.0;
        }
        self.speculative.total() as f64 / crit as f64
    }

    /// Total work discarded by rollbacks on the speculative path.
    pub fn wasted_work(&self) -> u64 {
        self.speculative.get(Phase::WastedWork)
    }

    /// Rollback amplification: wasted speculative work per unit of work
    /// that survived to commit (`wasted / max(1, useful)`).  The headline
    /// wasted-work-attribution gauge of the metrics plane; 0 means no
    /// speculation was discarded, 1 means every committed cycle paid one
    /// discarded cycle.
    pub fn rollback_amplification(&self) -> f64 {
        self.wasted_work() as f64 / (self.speculative.get(Phase::Work).max(1)) as f64
    }

    /// Rolled-back threads whose cause was `reason`.
    pub fn rollbacks_with(&self, reason: RollbackReason) -> u64 {
        self.rollback_reasons[reason.index()]
    }

    /// Compact `conflict=N overflow=N injected=N other=N` breakdown of the
    /// rolled-back thread count, for report tables and logs.
    pub fn rollback_breakdown(&self) -> String {
        let mut out = String::new();
        for reason in RollbackReason::ALL {
            if !out.is_empty() {
                out.push(' ');
            }
            let _ = write!(out, "{}={}", reason.label(), self.rollbacks_with(reason));
        }
        out
    }

    /// Total fork requests suppressed by the governor, over all sites.
    pub fn throttled_forks(&self) -> u64 {
        self.sites.iter().map(|s| s.throttled).sum()
    }

    /// Conflict rollbacks classified as suspected false sharing (see
    /// [`ThreadCounters::false_sharing_suspects`]).
    pub fn suspected_false_sharing(&self) -> u64 {
        self.speculative.counters.false_sharing_suspects
    }

    /// Successful value-predict retries across both paths (see
    /// [`ThreadCounters::retries_succeeded`]).
    pub fn retries(&self) -> u64 {
        self.critical.counters.retries_succeeded + self.speculative.counters.retries_succeeded
    }

    /// Threads doomed surgically through the reader registry, across both
    /// paths (see [`ThreadCounters::targeted_dooms`]).
    pub fn targeted_dooms(&self) -> u64 {
        self.critical.counters.targeted_dooms + self.speculative.counters.targeted_dooms
    }

    /// Read-set entries that precise-passed through the version rings,
    /// across both paths (see [`ThreadCounters::precise_passes`]).
    pub fn precise_passes(&self) -> u64 {
        self.critical.counters.precise_passes + self.speculative.counters.precise_passes
    }

    /// Committed-subtree adoptions across both paths (see
    /// [`ThreadCounters::adopted_threads`]).
    pub fn adopted_threads(&self) -> u64 {
        self.critical.counters.adopted_threads + self.speculative.counters.adopted_threads
    }

    /// Power efficiency `η_power = T_s / (T_runtime_nonspec + Σ T_runtime_sp)`
    /// given the sequential runtime `sequential` in the same units.
    pub fn power_efficiency(&self, sequential: u64) -> f64 {
        let busy = self.critical.total() + self.speculative.total();
        if busy == 0 {
            return 1.0;
        }
        sequential as f64 / busy as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_total() {
        let mut s = ThreadStats::new();
        s.add(Phase::Work, 70);
        s.add(Phase::Idle, 20);
        s.add(Phase::Work, 10);
        assert_eq!(s.get(Phase::Work), 80);
        assert_eq!(s.get(Phase::Join), 0);
        assert_eq!(s.total(), 100);
        assert!((s.fraction(Phase::Work) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn mark_work_wasted_moves_everything() {
        let mut s = ThreadStats::new();
        s.add(Phase::Work, 50);
        s.add(Phase::Validation, 5);
        s.mark_work_wasted();
        assert_eq!(s.get(Phase::Work), 0);
        assert_eq!(s.get(Phase::WastedWork), 50);
        assert_eq!(s.total(), 55);
    }

    #[test]
    fn merge_accumulates_phases_and_counters() {
        let mut a = ThreadStats::new();
        a.add(Phase::Work, 10);
        a.counters.forks = 1;
        let mut b = ThreadStats::new();
        b.add(Phase::Work, 5);
        b.add(Phase::Commit, 2);
        b.counters.forks = 2;
        b.counters.rollbacks = 1;
        a.merge(&b);
        assert_eq!(a.get(Phase::Work), 15);
        assert_eq!(a.get(Phase::Commit), 2);
        assert_eq!(a.counters.forks, 3);
        assert_eq!(a.counters.rollbacks, 1);
    }

    #[test]
    fn report_metrics() {
        let mut report = RunReport::default();
        report.critical.add(Phase::Work, 90);
        report.critical.add(Phase::Idle, 10);
        report.speculative.add(Phase::Work, 150);
        report.speculative.add(Phase::Validation, 25);
        report.speculative.add(Phase::WastedWork, 25);
        assert!((report.critical_path_efficiency() - 0.9).abs() < 1e-12);
        assert!((report.speculative_path_efficiency() - 0.75).abs() < 1e-12);
        assert!((report.coverage() - 2.0).abs() < 1e-12);
        assert!((report.power_efficiency(150) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_well_defined() {
        let report = RunReport::default();
        assert_eq!(report.critical_path_efficiency(), 1.0);
        assert_eq!(report.speculative_path_efficiency(), 1.0);
        assert_eq!(report.coverage(), 0.0);
        assert_eq!(report.power_efficiency(100), 1.0);
    }

    #[test]
    fn rollback_reason_counters_merge_and_render() {
        let conflict = RollbackReason::Conflict.index();
        let mut a = ThreadStats::new();
        a.counters.rollbacks = 1;
        a.counters.rollbacks_by_reason[conflict] = 1;
        let mut b = ThreadStats::new();
        b.counters.rollbacks = 2;
        b.counters.rollbacks_by_reason[conflict] = 1;
        b.counters.rollbacks_by_reason[RollbackReason::Injected.index()] = 1;
        a.merge(&b);
        assert_eq!(a.counters.rollbacks, 3);
        assert_eq!(a.counters.rollbacks_by_reason[conflict], 2);
        let mut report = RunReport::default();
        report.rollback_reasons[RollbackReason::Overflow.index()] = 4;
        assert_eq!(report.rollbacks_with(RollbackReason::Overflow), 4);
        assert_eq!(
            report.rollback_breakdown(),
            "conflict=0 overflow=4 injected=0 other=0"
        );
    }

    #[test]
    fn fraction_of_empty_stats_is_zero() {
        let s = ThreadStats::new();
        assert_eq!(s.fraction(Phase::Work), 0.0);
    }

    #[test]
    fn phase_labels_unique() {
        let labels: std::collections::HashSet<_> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), Phase::ALL.len());
    }

    #[test]
    fn false_sharing_suspects_merge_and_surface() {
        let mut a = ThreadStats::new();
        a.counters.false_sharing_suspects = 2;
        let mut b = ThreadStats::new();
        b.counters.false_sharing_suspects = 3;
        a.merge(&b);
        assert_eq!(a.counters.false_sharing_suspects, 5);
        let report = RunReport {
            speculative: a,
            ..Default::default()
        };
        assert_eq!(report.suspected_false_sharing(), 5);
    }

    #[test]
    fn recovery_counters_merge_and_surface() {
        let mut a = ThreadStats::new();
        a.counters.retries_succeeded = 1;
        a.counters.targeted_dooms = 2;
        let mut b = ThreadStats::new();
        b.counters.retries_succeeded = 3;
        a.merge(&b);
        assert_eq!(a.counters.retries_succeeded, 4);
        assert_eq!(a.counters.targeted_dooms, 2);
        let mut report = RunReport {
            speculative: a,
            retried_threads: 4,
            ..Default::default()
        };
        report.critical.counters.targeted_dooms = 5;
        assert_eq!(report.retries(), 4);
        assert_eq!(report.targeted_dooms(), 7);
        // A retry is not a rollback.
        assert_eq!(report.rolled_back_threads, 0);
    }

    #[test]
    fn run_report_serializes_deterministically() {
        let mut report = RunReport::default();
        report.critical.add(Phase::Work, 90);
        report.speculative.add(Phase::Validation, 7);
        report.committed_threads = 3;
        report.rollback_reasons[RollbackReason::Conflict.index()] = 1;
        let ser = |r: &RunReport| {
            let mut out = String::new();
            r.serialize_json(&mut out);
            out
        };
        let first = ser(&report);
        assert_eq!(first, ser(&report.clone()), "serialization is stable");
        assert!(first.contains("\"committed_threads\":3"));
        assert!(first.contains("\"work\""), "phases serialize by label");
    }

    #[test]
    fn phase_deserializes_from_its_label() {
        for phase in Phase::ALL {
            let mut json = String::new();
            phase.serialize_json(&mut json);
            assert_eq!(serde_json::from_str::<Phase>(&json).unwrap(), phase);
        }
        assert!(serde_json::from_str::<Phase>("\"nonsense\"").is_err());
    }

    #[test]
    fn run_report_round_trips_through_json() {
        let recorder = mutls_trace::LatencyRecorder::new();
        recorder.record(mutls_trace::LatencyPhase::ForkToCommit, 4096);
        recorder.record(mutls_trace::LatencyPhase::Validation, 100);
        recorder.record(mutls_trace::LatencyPhase::Validation, 90);
        let mut report = RunReport {
            committed_threads: 5,
            rolled_back_threads: 2,
            retried_threads: 1,
            runtime: 123_456,
            sites: vec![SiteProfile {
                site: 7,
                forks: 9,
                rollback_rate: 0.25,
                grain_log2: 4,
                ..SiteProfile::default()
            }],
            commit_log: CommitLogStats {
                commits: 11,
                stamp_writes: 40,
                regrains: 2,
                reader_spills: 3,
                grain_log2: 3,
                shards: 8,
                ..CommitLogStats::default()
            },
            region_grains: vec![(3, 12), (6, 2)],
            latency: recorder.report(),
            ..RunReport::default()
        };
        report.critical.add(Phase::Work, 90);
        report.critical.add(Phase::Join, 4);
        report.critical.counters.forks = 5;
        report.speculative.add(Phase::Validation, 7);
        report.speculative.counters.rollbacks = 1;
        report.speculative.counters.rollbacks_by_reason[RollbackReason::Conflict.index()] = 1;
        report.rollback_reasons[RollbackReason::Conflict.index()] = 2;

        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.latency.total_samples(), 3);
        assert_eq!(
            back.latency
                .row(mutls_trace::LatencyPhase::Validation)
                .unwrap()
                .count,
            2
        );
        assert_eq!(back.critical.get(Phase::Work), 90);
    }
}
