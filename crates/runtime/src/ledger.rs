//! The ledger: what is written down at each lifecycle point of a
//! speculative thread, said once.
//!
//! A lifecycle point — a fork denied, a validation finished, a commit, a
//! doom — can leave up to three records: a count in a `mutls-metrics`
//! counter cell (and, with metrics on, a gauge or histogram move), an
//! always-on latency-phase sample, and a flight-recorder event.
//! [`observe`] is the only code of this crate and of `mutls-simcpu` that
//! writes any of the three, and its `match` *is* the table in the
//! README's "Observability" section.  The counter cells are the only store
//! of a count: `RunReport`'s counts are a projection of them, read once
//! when the report is built ([`read_counts`]).
//!
//! The caller owns *when*, the ledger owns *what*: `ThreadManager` and the
//! simulator's scheduler each bring what only they know — a clock (wall
//! nanoseconds / virtual cycles), a causal epoch (the commit log's / the
//! publishes so far) and an event store (per-rank SPSC rings / a `Vec`) —
//! as [`Books`].  `loads` and `stores` are not lifecycle points: they stay
//! plain increments of the thread's [`ThreadCounters`] on the per-access
//! path.

use mutls_adaptive::SiteProfile;
use mutls_membuf::{CommitLogStats, RollbackReason, SpecFailure};
use mutls_metrics::{
    phase_share_gauges, CounterId, GaugeId, HistId, LabeledGauge, MetricsSnapshot, Registry,
    ScrapeExtras,
};
use mutls_trace::{
    DenyPolicy, EventKind, LatencyPhase, LatencyRecorder, PlanArm, RollbackCause, TraceEvent,
    ValidateOutcome,
};

use crate::manager::ThreadManager;
use crate::stats::{RunReport, ThreadCounters};
use crate::task::Rank;

/// Where a caller of [`observe`] keeps its records, and how it tells time.
pub trait Books {
    /// When a point happened, in the caller's terms: `()` natively (the
    /// wall clock and the commit log's epoch are read only if an event is
    /// kept), `(virtual cycles, publishes so far)` in the replay.
    type At: Copy;

    /// The live metrics registry.
    fn registry(&self) -> &Registry;

    /// The always-on latency histograms.
    fn latency(&self) -> &LatencyRecorder;

    /// Keep one event on `rank`'s lane, if events are being kept.
    fn keep(&mut self, at: Self::At, rank: u32, site: u32, kind: EventKind);
}

/// One lifecycle point.  Durations are in the caller's unit (ns native,
/// cycles replay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Point {
    /// A fork point asked for a speculative thread.
    ForkAttempt,
    /// The governor allowed the request, or not: a throttled fork.
    GovernorRuled(bool),
    /// The fork was denied by the model, for want of a CPU, or because a
    /// speculative re-execution is pinned inline.
    ForkDenied(DenyPolicy),
    /// The forker (whose books these are) launched a thread on this rank,
    /// whose lane takes the event.
    SpecStart(u32),
    /// Validation of the thread's read set, this many ranges, began.
    ValidateBegin(u32),
    /// Validation ended.
    Validated {
        /// The verdict.
        outcome: ValidateOutcome,
        /// How long validation took.
        took: u64,
        /// What the value-predict re-validation cost, if one ran.
        retry: Option<u64>,
    },
    /// The replay priced, at this, the version-ring probes a thread
    /// survived on.
    RingProbesPriced(u64),
    /// This many read-set entries passed validation precisely, through the
    /// version rings.
    PrecisePasses(u64),
    /// The write set was stamped into the commit log (version reservation
    /// plus stamping took this long).
    CommitStamped(u64),
    /// A publish doomed this many running threads.
    Doomed(u64),
    /// The thread's write set was published or absorbed.
    Committed {
        /// A value-predict retry repaired its validation.
        retried: bool,
        /// Time since its dispatch.
        since_fork: u64,
    },
    /// The thread's join discarded it.
    RolledBack {
        /// Why.
        reason: SpecFailure,
        /// Which recovery arm repairs it.
        plan: PlanArm,
    },
    /// The thread was discarded without a join of its own — an ancestor
    /// rolled back, or its region ended.
    Cascaded,
    /// The joiner saw its child roll back and re-executed it inline, at
    /// this cost.
    JoinRolledBack(u64),
    /// A doomed thread re-validated by value, at this cost, and kept
    /// running.
    RetriedInFlight(u64),
    /// The thread's books are closed and its CPU is about to be free.
    Retired {
        /// Whether it committed.
        committed: bool,
        /// Its committed work, or the work its rollback wasted.
        cycles: u64,
        /// Everything it spent, all phases.
        total: u64,
    },
}

/// Write `point` down in every record it has.  `rank` and `site` name the
/// lane of the thread the point is about; its counts go to `rank`'s shard,
/// which is 0 for whichever thread holds the non-speculative role.
pub fn observe<B: Books>(books: &mut B, at: B::At, rank: u32, site: u32, point: Point) {
    let shard = rank as usize;
    match point {
        Point::ForkAttempt => books.keep(at, rank, site, EventKind::ForkAttempt),
        Point::GovernorRuled(allowed) => {
            books.keep(at, rank, site, EventKind::GovernorDecision { allowed });
            if !allowed {
                books.registry().add(shard, CounterId::ThrottledForks, 1);
                let policy = DenyPolicy::Governor;
                books.keep(at, rank, site, EventKind::ForkDenied { policy });
            }
        }
        Point::ForkDenied(policy) => {
            books.registry().add(shard, CounterId::FailedForks, 1);
            books.keep(at, rank, site, EventKind::ForkDenied { policy });
        }
        Point::SpecStart(child) => {
            books.registry().add(shard, CounterId::Forks, 1);
            books.registry().gauge_add(GaugeId::InFlightSpeculations, 1);
            books.keep(at, child, site, EventKind::SpecStart { parent: rank });
        }
        Point::ValidateBegin(ranges) => {
            books.keep(at, rank, site, EventKind::ValidateBegin { ranges });
        }
        Point::Validated {
            outcome,
            took,
            retry,
        } => {
            books.latency().record(LatencyPhase::Validation, took);
            if let Some(retry) = retry {
                books.latency().record(LatencyPhase::RepairRetry, retry);
            }
            books.keep(at, rank, site, EventKind::ValidateEnd { outcome });
        }
        // Replay only, and kept that way: a join that also had precise
        // passes leaves two `Validation` samples there, one natively
        // (whose measured validation time already contains its probes).
        Point::RingProbesPriced(cycles) => {
            books.latency().record(LatencyPhase::Validation, cycles);
        }
        Point::PrecisePasses(n) => {
            books.registry().add(shard, CounterId::PrecisePasses, n);
        }
        // Native only, and kept that way: the replay prices the stamping
        // inside `commit_cycles` but leaves neither sample nor event.
        Point::CommitStamped(took) => {
            books.latency().record(LatencyPhase::CommitLockWait, took);
            books.keep(at, rank, site, EventKind::CommitLockWait { ns: took });
        }
        Point::Doomed(victims) => {
            books
                .registry()
                .add(shard, CounterId::TargetedDooms, victims);
            if victims > 0 {
                books.keep(at, rank, site, EventKind::Doom);
            }
        }
        Point::Committed {
            retried,
            since_fork,
        } => {
            let retries = u64::from(retried);
            books.registry().add(shard, CounterId::Commits, 1);
            books.registry().add(shard, CounterId::Retries, retries);
            books
                .latency()
                .record(LatencyPhase::ForkToCommit, since_fork);
            books.keep(at, rank, site, EventKind::Commit);
        }
        Point::RolledBack { reason, plan } => {
            let reason = count_rollback(books.registry(), shard, reason);
            books.keep(at, rank, site, EventKind::Rollback { reason, plan });
        }
        Point::Cascaded => {
            count_rollback(books.registry(), shard, SpecFailure::Cascaded);
            let (reason, plan) = (RollbackCause::Other, PlanArm::None);
            books.keep(at, rank, site, EventKind::Rollback { reason, plan });
        }
        Point::JoinRolledBack(repair) => {
            books.latency().record(LatencyPhase::RepairDoomSet, repair);
        }
        // `retries` counts retried *threads*, at their commit; this is
        // counted apart.
        Point::RetriedInFlight(took) => {
            books.registry().add(shard, CounterId::RetriesInFlight, 1);
            books.latency().record(LatencyPhase::RepairRetry, took);
            books.keep(at, rank, site, EventKind::RetryInFlight);
        }
        Point::Retired {
            committed,
            cycles,
            total,
        } => {
            let registry = books.registry();
            registry.gauge_add(GaugeId::InFlightSpeculations, -1);
            registry.observe(HistId::ThreadCycles, total);
            if committed {
                registry.add(shard, CounterId::CommittedCycles, cycles);
            } else {
                registry.add(shard, CounterId::WastedCycles, cycles);
                registry.observe(HistId::RollbackWastedCycles, cycles);
            }
        }
    }
}

/// Count one rolled-back thread under `reason`'s class, and name the
/// class in the event vocabulary.
fn count_rollback(registry: &Registry, shard: usize, reason: SpecFailure) -> RollbackCause {
    let class = RollbackReason::from(reason);
    registry.add(shard, CounterId::Rollbacks, 1);
    registry.add(shard, rollback_counter(class), 1);
    match class {
        RollbackReason::Conflict => RollbackCause::Conflict,
        RollbackReason::Overflow => RollbackCause::Overflow,
        RollbackReason::Injected => RollbackCause::Injected,
        RollbackReason::Other => RollbackCause::Other,
    }
}

/// The counter of one rollback class.
fn rollback_counter(class: RollbackReason) -> CounterId {
    match class {
        RollbackReason::Conflict => CounterId::RollbacksConflict,
        RollbackReason::Overflow => CounterId::RollbacksOverflow,
        RollbackReason::Injected => CounterId::RollbacksInjected,
        RollbackReason::Other => CounterId::RollbacksOther,
    }
}

/// Fill in `report`'s lifecycle counts, read once off the registry
/// [`observe`] counted them into, when the run is over: the critical
/// path's from shard 0, the speculative path's from every other shard,
/// the thread totals from all of them.  `loads` and `stores` are left as
/// the caller summed them.  The runtime and the replay build their
/// reports through it.
pub fn read_counts(registry: &Registry, report: &mut RunReport) {
    let total = |id| registry.counter_total(id);
    let critical = |id| registry.counter_on(0, id);
    project(&mut report.critical.counters, critical);
    project(&mut report.speculative.counters, |id| {
        total(id) - critical(id)
    });
    report.committed_threads = total(CounterId::Commits);
    report.rolled_back_threads = total(CounterId::Rollbacks);
    report.retried_threads = total(CounterId::Retries);
    report.rollback_reasons = RollbackReason::ALL.map(|class| total(rollback_counter(class)));
}

/// One path's counts, `count` reading the path's shards.
fn project(counters: &mut ThreadCounters, count: impl Fn(CounterId) -> u64) {
    counters.forks = count(CounterId::Forks);
    counters.failed_forks = count(CounterId::FailedForks);
    counters.throttled_forks = count(CounterId::ThrottledForks);
    counters.retries_succeeded = count(CounterId::Retries) + count(CounterId::RetriesInFlight);
    counters.targeted_dooms = count(CounterId::TargetedDooms);
    counters.precise_passes = count(CounterId::PrecisePasses);
}

/// One snapshot of `books`' registry at `ts`, followed by what a registry
/// cannot know: the commit log's counters, the governor's per-site gauges
/// and each latency phase's share of the summed wall.
pub fn scrape<B: Books>(
    books: &B,
    ts: u64,
    log: &CommitLogStats,
    sites: &[SiteProfile],
) -> MetricsSnapshot {
    let mut labeled = Vec::new();
    for site in sites {
        let label = site.site.to_string();
        labeled.push(LabeledGauge::new(
            "site_rollback_rate",
            "site",
            label.clone(),
            site.rollback_rate,
        ));
        labeled.push(LabeledGauge::new(
            "site_throttled",
            "site",
            label,
            site.throttled as f64,
        ));
    }
    labeled.extend(phase_share_gauges(&books.latency().approx_totals()));
    let extras = ScrapeExtras {
        extra_counters: vec![
            ("log_commits".to_string(), log.commits),
            ("log_stamps".to_string(), log.stamp_writes),
            ("log_cas_retries".to_string(), log.cas_retries),
            ("log_ring_overflows".to_string(), log.ring_overflows),
            ("log_reader_spills".to_string(), log.reader_spills),
        ],
        labeled,
        ..ScrapeExtras::default()
    };
    books.registry().scrape(ts, extras)
}

/// The native runtime's books: wall nanoseconds since the recorder's
/// origin, the commit log's epoch, the recorder's per-rank rings.
struct Wall<'a>(&'a ThreadManager);

impl Books for Wall<'_> {
    type At = ();

    fn registry(&self) -> &Registry {
        self.0.metrics().registry()
    }

    fn latency(&self) -> &LatencyRecorder {
        self.0.recorder().latency()
    }

    fn keep(&mut self, (): (), rank: u32, site: u32, kind: EventKind) {
        let recorder = self.0.recorder();
        if recorder.enabled() {
            recorder.emit(TraceEvent {
                ts: self.0.trace_now_ns(),
                rank,
                site,
                epoch: self.0.commit_log().epoch(),
                kind,
            });
        }
    }
}

impl ThreadManager {
    /// [`observe`] on this manager's books.
    pub(crate) fn observe(&self, rank: Rank, site: u32, point: Point) {
        observe(&mut Wall(self), (), rank as u32, site, point);
    }

    /// Aggregate every telemetry source into one [`MetricsSnapshot`] at
    /// timestamp `ts` (the sampler's tick body and the final scrape).
    pub fn scrape_metrics(&self, ts: u64) -> MetricsSnapshot {
        scrape(
            &Wall(self),
            ts,
            &self.commit_log().stats(),
            &self.governor().snapshot(),
        )
    }
}
