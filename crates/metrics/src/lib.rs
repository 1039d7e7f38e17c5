//! Live telemetry plane for the MUTLS runtime and simulator.
//!
//! `RunReport` only exists after a run completes and the flight recorder
//! (`mutls-trace`) only yields post-mortem event dumps; this crate is the
//! *live* view: a lock-free [`Registry`] of counters, gauges and
//! log2-bucket histograms, a background [`Sampler`]
//! thread that snapshots the registry on a configurable cadence into a
//! bounded in-memory time series, and two exporters — Prometheus text
//! exposition ([`export::PromWriter`]) and a JSON time-series dump
//! ([`MetricsSeries`] round-trips through serde).
//!
//! # Hot-path discipline
//!
//! Counters are **per-thread sharded cells** and always count: each rank
//! increments its own cache-line-aligned cell with a relaxed `fetch_add`
//! and the shards are only summed on read, so the hot path never
//! contends.  They are the only store of a lifecycle count — `RunReport`'s
//! counts are read off them when the report is built — so they cannot be
//! switched off.  [`MetricsConfig::enabled`] gates what only an observer
//! wants: the sampler thread, the in-flight gauge and the histograms.
//! With it off (the default) every [`Registry::gauge_add`] /
//! [`Registry::observe`] call is a single predictable branch, and nothing
//! about speculation behaviour or accounting may change
//! (`tests/metrics.rs::enabling_metrics_moves_zero_virtual_cycles` holds
//! an enabled replay to the disabled one's cycles and report).
//!
//! # Who feeds it
//!
//! The registry is a *sink*: the runtime and the simulator push every
//! static counter, gauge and histogram live, from the one place that
//! writes down a lifecycle point (`mutls_runtime::ledger`), so a scrape
//! sums shards and nothing else, and a run's report reads its counts off
//! the same cells.  What a registry cannot know — the
//! commit log's counters, the governor's per-site profile, the grain
//! census, the latency phases' shares — is appended by the scraper as
//! [`ScrapeExtras`].  The histograms are `mutls-trace`'s log2 buckets.
//!
//! # Derived gauges
//!
//! Every scrape computes three derived gauges from the counter totals:
//!
//! * **rollback amplification** = `wasted_cycles / max(1, committed_cycles)`
//!   — the TLP survey's headline efficiency cost: how much speculative
//!   work is thrown away per unit of work that commits.
//! * **speculation success rate** = `commits / max(1, commits + rollbacks)`.
//! * **precise-pass fraction** = `precise_passes / max(1, commits)` — how
//!   often MVCC precise validation cleared a range conflict.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use mutls_trace::Histogram;
use parking_lot::Mutex;

mod export;
mod sampler;
mod snapshot;

pub use export::{prometheus_text, PromWriter};
pub use sampler::Sampler;
pub use snapshot::{HistogramSnapshot, LabeledGauge, MetricsSeries, MetricsSnapshot, ScrapeExtras};

/// Metrics configuration, carried by value in `RuntimeConfig` /
/// `SimConfig` (hence `Copy`).  Disabled by default: no sampler thread is
/// spawned, and the gauge and the histograms stay still; the counters
/// count either way.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricsConfig {
    /// Switches on the sampler thread, the in-flight gauge and the
    /// histograms.  Off, those cost one branch each on the hot path; the
    /// counters count either way.
    pub enabled: bool,
    /// Native sampler cadence in milliseconds.  `0` disables the
    /// background thread — the registry still counts and can be scraped
    /// on demand (`Runtime::metrics_snapshot`).  The simulator samples
    /// off its virtual clock instead, every 50 000 cycles.
    pub sample_interval_ms: u64,
}

/// Bound on a [`MetricsHub`]'s time series; the oldest samples are
/// dropped (and counted) once it fills.
const SERIES_CAPACITY: usize = 1024;

impl MetricsConfig {
    /// The standard enabled preset: 5 ms native cadence.
    pub fn enabled() -> Self {
        MetricsConfig {
            enabled: true,
            sample_interval_ms: 5,
        }
    }

    /// Set the native sampler cadence (builder style).
    pub fn sample_interval_ms(mut self, ms: u64) -> Self {
        self.sample_interval_ms = ms;
        self
    }
}

/// Statically known monotone counters.  Scrapes emit them in declaration
/// order, so native and simulated snapshots agree on name ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum CounterId {
    /// Speculative threads launched.
    Forks,
    /// Fork requests that found no idle CPU (or were denied by the model).
    FailedForks,
    /// Fork requests suppressed by the governor.
    ThrottledForks,
    /// Speculative threads that committed.
    Commits,
    /// Speculative threads discarded (all causes).
    Rollbacks,
    /// Rollbacks caused by a genuine dependence violation.
    RollbacksConflict,
    /// Rollbacks caused by speculative-buffer overflow.
    RollbacksOverflow,
    /// Rollbacks injected by the sensitivity experiment.
    RollbacksInjected,
    /// Cascades, order violations and other rollbacks.
    RollbacksOther,
    /// Commits repaired by value-predict-and-retry.
    Retries,
    /// Dooms shrugged off in flight by a value-predict re-validation.
    RetriesInFlight,
    /// Readers doomed surgically by a committing writer.
    TargetedDooms,
    /// MVCC precise validation passes.
    PrecisePasses,
    /// Work cycles discarded by rollbacks (ns native / virtual cycles
    /// replay).
    WastedCycles,
    /// Speculative work cycles that committed.
    CommittedCycles,
}

impl CounterId {
    /// Every counter, in scrape order.
    pub const ALL: [CounterId; 15] = [
        CounterId::Forks,
        CounterId::FailedForks,
        CounterId::ThrottledForks,
        CounterId::Commits,
        CounterId::Rollbacks,
        CounterId::RollbacksConflict,
        CounterId::RollbacksOverflow,
        CounterId::RollbacksInjected,
        CounterId::RollbacksOther,
        CounterId::Retries,
        CounterId::RetriesInFlight,
        CounterId::TargetedDooms,
        CounterId::PrecisePasses,
        CounterId::WastedCycles,
        CounterId::CommittedCycles,
    ];

    /// Number of counters.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name (the Prometheus name is
    /// `mutls_<name>_total`).
    pub fn name(self) -> &'static str {
        match self {
            CounterId::Forks => "forks",
            CounterId::FailedForks => "failed_forks",
            CounterId::ThrottledForks => "throttled_forks",
            CounterId::Commits => "commits",
            CounterId::Rollbacks => "rollbacks",
            CounterId::RollbacksConflict => "rollbacks_conflict",
            CounterId::RollbacksOverflow => "rollbacks_overflow",
            CounterId::RollbacksInjected => "rollbacks_injected",
            CounterId::RollbacksOther => "rollbacks_other",
            CounterId::Retries => "retries",
            CounterId::RetriesInFlight => "retries_in_flight",
            CounterId::TargetedDooms => "targeted_dooms",
            CounterId::PrecisePasses => "precise_passes",
            CounterId::WastedCycles => "wasted_cycles",
            CounterId::CommittedCycles => "committed_cycles",
        }
    }

    /// One-line help string for the Prometheus `# HELP` line.
    pub fn help(self) -> &'static str {
        match self {
            CounterId::Forks => "Speculative threads launched",
            CounterId::FailedForks => "Fork requests denied by the model or CPU exhaustion",
            CounterId::ThrottledForks => "Fork requests suppressed by the governor",
            CounterId::Commits => "Speculative threads committed",
            CounterId::Rollbacks => "Speculative threads discarded (all causes)",
            CounterId::RollbacksConflict => "Rollbacks: genuine dependence violations",
            CounterId::RollbacksOverflow => "Rollbacks: speculative buffer overflow",
            CounterId::RollbacksInjected => "Rollbacks: injected by the sensitivity experiment",
            CounterId::RollbacksOther => "Rollbacks: cascades and order violations",
            CounterId::Retries => "Commits repaired by value-predict-and-retry",
            CounterId::RetriesInFlight => "Dooms shrugged off in flight by value re-validation",
            CounterId::TargetedDooms => "Readers doomed surgically by committing writers",
            CounterId::PrecisePasses => "MVCC precise validation passes",
            CounterId::WastedCycles => "Work discarded by rollbacks (ns native, cycles replay)",
            CounterId::CommittedCycles => {
                "Speculative work that committed (ns native, cycles replay)"
            }
        }
    }
}

/// Statically known gauges (instantaneous values; derived gauges are
/// computed at scrape time and are not listed here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum GaugeId {
    /// Speculative threads currently in flight.
    InFlightSpeculations,
}

impl GaugeId {
    /// Every gauge, in scrape order.
    pub const ALL: [GaugeId; 1] = [GaugeId::InFlightSpeculations];

    /// Number of gauges.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name (the Prometheus name is `mutls_<name>`).
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::InFlightSpeculations => "in_flight_speculations",
        }
    }

    /// One-line help string.
    pub fn help(self) -> &'static str {
        match self {
            GaugeId::InFlightSpeculations => "Speculative threads currently in flight",
        }
    }
}

/// Statically known log2-bucket histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistId {
    /// Total cycles (ns native / virtual cycles replay) per retired
    /// speculative thread.
    ThreadCycles,
    /// Wasted cycles per rolled-back thread.
    RollbackWastedCycles,
}

impl HistId {
    /// Every histogram, in scrape order.
    pub const ALL: [HistId; 2] = [HistId::ThreadCycles, HistId::RollbackWastedCycles];

    /// Number of histograms.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            HistId::ThreadCycles => "thread_cycles",
            HistId::RollbackWastedCycles => "rollback_wasted_cycles",
        }
    }

    /// One-line help string.
    pub fn help(self) -> &'static str {
        match self {
            HistId::ThreadCycles => "Cycles per retired speculative thread (log2 buckets)",
            HistId::RollbackWastedCycles => "Wasted cycles per rolled-back thread (log2 buckets)",
        }
    }
}

/// `hist`'s state at scrape time, trailing zero buckets trimmed.
fn hist_snapshot(id: HistId, hist: &Histogram) -> HistogramSnapshot {
    let mut buckets = hist.bucket_counts();
    while buckets.last() == Some(&0) && buckets.len() > 1 {
        buckets.pop();
    }
    HistogramSnapshot {
        name: id.name().to_string(),
        count: buckets.iter().sum(),
        buckets,
    }
}

/// One rank's counter cells, padded to a cache line boundary so two
/// ranks' increments never share a line.
#[repr(align(128))]
#[derive(Debug)]
struct CounterShard {
    cells: [AtomicU64; CounterId::COUNT],
}

impl CounterShard {
    fn new() -> Self {
        CounterShard {
            cells: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The lock-free metrics registry: per-rank sharded counters, shared
/// gauges and log2-bucket histograms.  A counter add is a relaxed atomic
/// op on the caller's own shard, enabled or not; a gauge or histogram
/// write is one on a shared cell when enabled and a single branch when
/// not.
#[derive(Debug)]
pub struct Registry {
    enabled: bool,
    /// One shard per rank plus a trailing *control* shard for callers
    /// without a rank (manager-side accounting, tests).
    shards: Box<[CounterShard]>,
    gauges: [AtomicI64; GaugeId::COUNT],
    hists: [Histogram; HistId::COUNT],
}

impl Registry {
    /// A registry with `ranks` counter shards (plus the control shard).
    pub fn new(config: MetricsConfig, ranks: usize) -> Self {
        Registry {
            enabled: config.enabled,
            shards: (0..=ranks.max(1)).map(|_| CounterShard::new()).collect(),
            gauges: std::array::from_fn(|_| AtomicI64::new(0)),
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Whether the gauge and the histograms are recording (one branch —
    /// their whole disabled-mode cost).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Add `n` to a counter on `rank`'s shard (relaxed; ranks beyond the
    /// shard table and unranked callers share the control shard).  Adding
    /// zero touches nothing: most joins add no retry, precise pass or doom.
    #[inline]
    pub fn add(&self, rank: usize, id: CounterId, n: u64) {
        if n == 0 {
            return;
        }
        let shard = rank.min(self.shards.len() - 1);
        self.shards[shard].cells[id as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Add `n` to a counter on the control shard (callers without a
    /// rank).
    #[inline]
    pub fn add_unranked(&self, id: CounterId, n: u64) {
        self.add(usize::MAX, id, n);
    }

    /// Adjust a gauge by `delta` (relaxed; shared cell).
    #[inline]
    pub fn gauge_add(&self, id: GaugeId, delta: i64) {
        if !self.enabled {
            return;
        }
        self.gauges[id as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Record one histogram observation.
    #[inline]
    pub fn observe(&self, id: HistId, value: u64) {
        if !self.enabled {
            return;
        }
        self.hists[id as usize].record(value);
    }

    /// The current value of a counter on `rank`'s shard alone (ranks
    /// beyond the shard table read the control shard).
    pub fn counter_on(&self, rank: usize, id: CounterId) -> u64 {
        let shard = rank.min(self.shards.len() - 1);
        self.shards[shard].cells[id as usize].load(Ordering::Relaxed)
    }

    /// The current total of a counter across all shards.
    pub fn counter_total(&self, id: CounterId) -> u64 {
        self.shards
            .iter()
            .map(|s| s.cells[id as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// The current value of a gauge.
    pub fn gauge_value(&self, id: GaugeId) -> i64 {
        self.gauges[id as usize].load(Ordering::Relaxed)
    }

    /// Zero every counter, gauge and histogram (run boundaries).
    pub fn reset(&self) {
        for shard in self.shards.iter() {
            for cell in &shard.cells {
                cell.store(0, Ordering::Relaxed);
            }
        }
        for gauge in &self.gauges {
            gauge.store(0, Ordering::Relaxed);
        }
        for hist in &self.hists {
            hist.reset();
        }
    }

    /// Aggregate the registry into one [`MetricsSnapshot`] stamped `ts`,
    /// computing the derived gauges from the counter totals and appending
    /// the scraper's [`ScrapeExtras`].
    pub fn scrape(&self, ts: u64, extras: ScrapeExtras) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = CounterId::ALL
            .iter()
            .map(|&id| (id.name().to_string(), self.counter_total(id)))
            .collect();
        counters.extend(extras.extra_counters);

        let mut gauges: Vec<(String, f64)> = GaugeId::ALL
            .iter()
            .map(|&id| (id.name().to_string(), self.gauge_value(id) as f64))
            .collect();
        let commits = self.counter_total(CounterId::Commits);
        let rollbacks = self.counter_total(CounterId::Rollbacks);
        gauges.push((
            "rollback_amplification".to_string(),
            self.counter_total(CounterId::WastedCycles) as f64
                / self.counter_total(CounterId::CommittedCycles).max(1) as f64,
        ));
        gauges.push((
            "speculation_success_rate".to_string(),
            commits as f64 / (commits + rollbacks).max(1) as f64,
        ));
        gauges.push((
            "precise_pass_fraction".to_string(),
            self.counter_total(CounterId::PrecisePasses) as f64 / commits.max(1) as f64,
        ));
        gauges.extend(extras.extra_gauges);

        let histograms = HistId::ALL
            .iter()
            .map(|&id| hist_snapshot(id, &self.hists[id as usize]))
            .collect();

        MetricsSnapshot {
            ts,
            counters,
            gauges,
            histograms,
            labeled: extras.labeled,
        }
    }
}

/// Shared metrics state: the registry plus the bounded time series the
/// sampler appends to.  Constructed by the `ThreadManager`, shared with
/// the `Runtime`'s sampler thread; the simulator keeps one of its own.
#[derive(Debug)]
pub struct MetricsHub {
    config: MetricsConfig,
    registry: Registry,
    series: Mutex<MetricsSeries>,
}

impl MetricsHub {
    /// A hub for `ranks` worker shards under `config`.
    pub fn new(config: MetricsConfig, ranks: usize) -> Self {
        MetricsHub {
            config,
            registry: Registry::new(config, ranks),
            series: Mutex::new(MetricsSeries::new(SERIES_CAPACITY)),
        }
    }

    /// The configuration the hub was built with.
    pub fn config(&self) -> MetricsConfig {
        self.config
    }

    /// The lock-free registry (feed + scrape surface).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Append one snapshot to the bounded time series.
    pub fn push(&self, snapshot: MetricsSnapshot) {
        self.series.lock().push(snapshot);
    }

    /// A clone of the time series captured so far.
    pub fn series(&self) -> MetricsSeries {
        self.series.lock().clone()
    }

    /// Clear the registry and the series (run boundaries).
    pub fn reset(&self) {
        self.registry.reset();
        self.series.lock().clear();
    }
}

/// Build the phase-attribution labeled gauges from per-phase approximate
/// cycle totals (`Σ bucket_count × bucket_floor` over a latency
/// histogram): each phase's share of the summed wall across all phases.
/// Returns one `phase_share{phase="..."}` gauge per phase, in input
/// order, plus nothing when every total is zero.
pub fn phase_share_gauges(totals: &[(&str, u64)]) -> Vec<LabeledGauge> {
    let sum: u64 = totals.iter().map(|&(_, t)| t).sum();
    if sum == 0 {
        return Vec::new();
    }
    totals
        .iter()
        .map(|&(phase, total)| LabeledGauge {
            name: "phase_share".to_string(),
            labels: vec![("phase".to_string(), phase.to_string())],
            value: total as f64 / sum as f64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_still_counts_its_gauge_and_histograms_stay_inert() {
        let reg = Registry::new(MetricsConfig::default(), 8);
        reg.add(3, CounterId::Commits, 5);
        reg.gauge_add(GaugeId::InFlightSpeculations, 2);
        reg.observe(HistId::ThreadCycles, 100);
        assert_eq!(reg.counter_total(CounterId::Commits), 5);
        assert_eq!(reg.counter_on(3, CounterId::Commits), 5);
        assert_eq!(reg.counter_on(0, CounterId::Commits), 0);
        assert_eq!(reg.gauge_value(GaugeId::InFlightSpeculations), 0);
        let snap = reg.scrape(0, ScrapeExtras::default());
        assert!(snap.histograms.iter().all(|h| h.count == 0));
    }

    #[test]
    fn sharded_counters_aggregate_on_scrape() {
        let reg = Registry::new(MetricsConfig::enabled(), 4);
        for rank in 0..6 {
            reg.add(rank, CounterId::Forks, 2);
        }
        // Ranks beyond the shard table land on the control shard; all 12
        // increments survive.
        assert_eq!(reg.counter_total(CounterId::Forks), 12);
        reg.add_unranked(CounterId::Forks, 1);
        assert_eq!(reg.counter_total(CounterId::Forks), 13);
    }

    #[test]
    fn derived_gauges_follow_the_documented_formulas() {
        let reg = Registry::new(MetricsConfig::enabled(), 1);
        reg.add(0, CounterId::Commits, 3);
        reg.add(0, CounterId::Rollbacks, 1);
        reg.add(0, CounterId::WastedCycles, 500);
        reg.add(0, CounterId::CommittedCycles, 1000);
        reg.add(0, CounterId::PrecisePasses, 6);
        let snap = reg.scrape(7, ScrapeExtras::default());
        assert_eq!(snap.gauge("rollback_amplification"), Some(0.5));
        assert_eq!(snap.gauge("speculation_success_rate"), Some(0.75));
        assert_eq!(snap.gauge("precise_pass_fraction"), Some(2.0));
        assert_eq!(snap.ts, 7);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let reg = Registry::new(MetricsConfig::enabled(), 1);
        reg.observe(HistId::ThreadCycles, 3);
        reg.observe(HistId::ThreadCycles, 3);
        reg.observe(HistId::ThreadCycles, 1024);
        let snap = reg.scrape(0, ScrapeExtras::default());
        let hist = &snap.histograms[0];
        assert_eq!(hist.name, "thread_cycles");
        assert_eq!(hist.count, 3);
        assert_eq!(hist.buckets[2], 2);
        assert_eq!(hist.buckets[11], 1);
        assert_eq!(hist.buckets.len(), 12, "trailing zero buckets trimmed");
    }

    #[test]
    fn phase_shares_sum_to_one() {
        let gauges = phase_share_gauges(&[("validation", 300), ("commit", 700)]);
        assert_eq!(gauges.len(), 2);
        assert_eq!(gauges[0].value, 0.3);
        assert_eq!(gauges[1].value, 0.7);
        assert!(phase_share_gauges(&[("validation", 0)]).is_empty());
    }

    #[test]
    fn reset_zeroes_everything() {
        let hub = MetricsHub::new(MetricsConfig::enabled(), 2);
        hub.registry().add(1, CounterId::Forks, 4);
        hub.registry().observe(HistId::ThreadCycles, 8);
        hub.push(hub.registry().scrape(1, ScrapeExtras::default()));
        hub.reset();
        assert_eq!(hub.registry().counter_total(CounterId::Forks), 0);
        assert!(hub.series().samples.is_empty());
    }
}
