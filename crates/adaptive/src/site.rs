//! Per-fork-site profiling: a lock-striped registry of speculation
//! statistics keyed by fork-site ID.
//!
//! Every fork point in a workload carries a stable 32-bit *site ID* (the
//! `point` argument of `TlsContext::fork`).  The [`SiteProfiler`]
//! accumulates, per site, how speculation at that site actually went —
//! commits, rollbacks, buffer overflows, committed vs. wasted work and
//! stall time — so a [`GovernorPolicy`](crate::GovernorPolicy) can adapt
//! future fork decisions.
//!
//! The registry is sharded dashmap-style: the site ID hashes to one of
//! [`SHARD_COUNT`] shards, each an independently locked map, so
//! concurrent threads profiling different sites rarely contend.  Each
//! site's record sits behind its own mutex (reached through an `Arc`), so
//! the shard lock is held only for the map lookup, never while a record
//! is updated.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use mutls_membuf::RollbackReason;

/// Identifier of one fork point (the `point` of `TlsContext::fork`).
pub type SiteId = u32;

/// Number of lock stripes; a power of two so the shard index is a mask.
pub const SHARD_COUNT: usize = 16;

/// Mutable per-site accumulator handed to policies.
#[derive(Debug, Clone, Default)]
pub struct SiteRecord {
    /// Speculative threads actually launched from this site.
    pub forks: u64,
    /// Fork requests suppressed by the governor.
    pub throttled: u64,
    /// Children that validated and committed.
    pub commits: u64,
    /// Children that rolled back (any reason).
    pub rollbacks: u64,
    /// Rollbacks whose reason was a buffer overflow.
    pub overflows: u64,
    /// Rollbacks caused by a real cross-thread dependence violation.
    pub conflicts: u64,
    /// Conflict rollbacks classified as suspected false sharing (the
    /// tracking grain, not genuine sharing, most likely caused them).
    pub false_sharing: u64,
    /// Commits repaired by value-predict-and-retry (a subset of
    /// `commits`, never counted in `rollbacks`): the conflict cost one
    /// re-validation pass instead of a squash-and-re-execute.
    pub retries: u64,
    /// Rollbacks injected by the sensitivity experiment.
    pub injected: u64,
    /// Work (ns native / cycles simulated) that committed.
    pub committed_work: u64,
    /// Work that was rolled back and discarded.
    pub wasted_work: u64,
    /// Stall (idle) time attributed to this site's children.
    pub stall: u64,
    /// Exponentially decayed commit count (recency-weighted).
    pub hot_commits: f64,
    /// Exponentially decayed rollback count.
    pub hot_rollbacks: f64,
    /// Exponentially decayed overflow count.
    pub hot_overflows: f64,
    /// Exponentially decayed suspected-false-sharing count.
    pub hot_false_sharing: f64,
    /// Exponentially decayed retry count (retries also feed
    /// `hot_commits`: a retried conflict is a success, not a squash).
    pub hot_retries: f64,
    /// Consecutive throttle denials since the last probe (throttle policy).
    pub denied_streak: u64,
    /// Monotone count of governor decisions at this site.
    pub decisions: u64,
}

impl SiteRecord {
    /// Joined children so far (commits + rollbacks).
    pub fn samples(&self) -> u64 {
        self.commits + self.rollbacks
    }

    /// Recency-weighted rollback rate in `[0, 1]` (0 with no samples).
    pub fn rollback_rate(&self) -> f64 {
        let total = self.hot_commits + self.hot_rollbacks;
        if total <= 0.0 {
            return 0.0;
        }
        self.hot_rollbacks / total
    }

    /// Recency-weighted buffer-overflow rate in `[0, 1]`.
    pub fn overflow_rate(&self) -> f64 {
        let total = self.hot_commits + self.hot_rollbacks;
        if total <= 0.0 {
            return 0.0;
        }
        self.hot_overflows / total
    }

    /// Recency-weighted fraction of rollbacks that were suspected false
    /// sharing (0 with no rollbacks): when this dominates, the site's
    /// problem is the commit-log grain, not genuine sharing, and the
    /// throttle policy backs off more leniently.
    pub fn false_sharing_fraction(&self) -> f64 {
        if self.hot_rollbacks <= 0.0 {
            return 0.0;
        }
        (self.hot_false_sharing / self.hot_rollbacks).min(1.0)
    }

    /// Recency-weighted fraction of *commits* that needed a value-predict
    /// retry (0 with no commits).  A high fraction means the site keeps
    /// conflicting but the conflicts are cheap — information for cost
    /// models, not a reason to throttle.
    pub fn retry_fraction(&self) -> f64 {
        if self.hot_commits <= 0.0 {
            return 0.0;
        }
        (self.hot_retries / self.hot_commits).min(1.0)
    }

    /// Fold one join outcome into the record.  `reason` carries the cause
    /// when the child rolled back (`None` = committed), `false_sharing`
    /// whether a conflict was classified as suspected false sharing, and
    /// `retried` whether a commit was repaired by value prediction (a
    /// retried conflict counts as a *commit* — the policies must treat it
    /// as far cheaper than a squash).  `decay` is the exponential
    /// forgetting factor applied to the recency-weighted counters before
    /// the new sample is added, so old behaviour fades and a throttled
    /// site can re-earn speculation.
    #[allow(clippy::too_many_arguments)]
    pub fn absorb(
        &mut self,
        reason: Option<RollbackReason>,
        false_sharing: bool,
        retried: bool,
        work: u64,
        wasted: u64,
        stall: u64,
        decay: f64,
    ) {
        self.hot_commits *= decay;
        self.hot_rollbacks *= decay;
        self.hot_overflows *= decay;
        self.hot_false_sharing *= decay;
        self.hot_retries *= decay;
        match reason {
            None => {
                self.commits += 1;
                self.hot_commits += 1.0;
                self.committed_work += work;
                if retried {
                    self.retries += 1;
                    self.hot_retries += 1.0;
                }
            }
            Some(reason) => {
                self.rollbacks += 1;
                self.hot_rollbacks += 1.0;
                self.wasted_work += wasted;
                match reason {
                    RollbackReason::Overflow => {
                        self.overflows += 1;
                        self.hot_overflows += 1.0;
                    }
                    RollbackReason::Conflict => {
                        self.conflicts += 1;
                        if false_sharing {
                            self.false_sharing += 1;
                            self.hot_false_sharing += 1.0;
                        }
                    }
                    RollbackReason::Injected => self.injected += 1,
                    RollbackReason::Other => {}
                }
            }
        }
        self.stall += stall;
    }
}

/// Immutable snapshot of one site, exposed in `RunReport` tables.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SiteProfile {
    /// The fork-site ID.
    pub site: SiteId,
    /// Speculative threads launched.
    pub forks: u64,
    /// Fork requests suppressed by the governor.
    pub throttled: u64,
    /// Committed children.
    pub commits: u64,
    /// Rolled-back children.
    pub rollbacks: u64,
    /// Buffer-overflow rollbacks.
    pub overflows: u64,
    /// Real dependence-violation rollbacks.
    pub conflicts: u64,
    /// Conflicts classified as suspected false sharing.
    pub false_sharing: u64,
    /// Commits repaired by value-predict-and-retry.
    pub retries: u64,
    /// Injected (sensitivity-mode) rollbacks.
    pub injected: u64,
    /// Committed work.
    pub committed_work: u64,
    /// Discarded work.
    pub wasted_work: u64,
    /// Stall time of this site's children.
    pub stall: u64,
    /// Recency-weighted rollback rate at snapshot time.
    pub rollback_rate: f64,
}

impl SiteProfile {
    fn from_record(site: SiteId, record: &SiteRecord) -> Self {
        SiteProfile {
            site,
            forks: record.forks,
            throttled: record.throttled,
            commits: record.commits,
            rollbacks: record.rollbacks,
            overflows: record.overflows,
            conflicts: record.conflicts,
            false_sharing: record.false_sharing,
            retries: record.retries,
            injected: record.injected,
            committed_work: record.committed_work,
            wasted_work: record.wasted_work,
            stall: record.stall,
            rollback_rate: record.rollback_rate(),
        }
    }
}

/// Lock-striped registry of [`SiteRecord`]s.
#[derive(Debug, Default)]
pub struct SiteProfiler {
    shards: [RwLock<HashMap<SiteId, Arc<Mutex<SiteRecord>>>>; SHARD_COUNT],
}

/// Fibonacci-hash the site ID into a shard index.
fn shard_of(site: SiteId) -> usize {
    let h = (site as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 60) as usize & (SHARD_COUNT - 1)
}

impl SiteProfiler {
    /// Create an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    fn cell(&self, site: SiteId) -> Arc<Mutex<SiteRecord>> {
        let shard = &self.shards[shard_of(site)];
        if let Some(cell) = shard.read().get(&site) {
            return Arc::clone(cell);
        }
        let mut map = shard.write();
        Arc::clone(map.entry(site).or_default())
    }

    /// Run `f` with exclusive access to the site's record, creating the
    /// record on first touch.
    pub fn with_site<R>(&self, site: SiteId, f: impl FnOnce(&mut SiteRecord) -> R) -> R {
        let cell = self.cell(site);
        let mut record = cell.lock();
        f(&mut record)
    }

    /// Number of sites profiled so far.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when no site has been touched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot every site, sorted by site ID.
    ///
    /// Lock discipline (the >64-CPU scale path): shard locks are taken
    /// **one at a time** and held only long enough to clone the `Arc`s out
    /// of the map — never while a record mutex is locked, and never more
    /// than one shard at once.  Hot-path threads recording outcomes on
    /// other shards (or on this shard's records, whose mutexes are
    /// outside the shard lock) are therefore not serialized behind a
    /// snapshot, which runs concurrently with profiling at every point.
    pub fn snapshot(&self) -> Vec<SiteProfile> {
        let mut rows: Vec<SiteProfile> = Vec::new();
        for shard in &self.shards {
            let cells: Vec<(SiteId, Arc<Mutex<SiteRecord>>)> = {
                let map = shard.read();
                map.iter()
                    .map(|(site, cell)| (*site, Arc::clone(cell)))
                    .collect()
            };
            // Shard lock released: lock each record individually.
            for (site, cell) in cells {
                let record = cell.lock();
                rows.push(SiteProfile::from_record(site, &record));
            }
        }
        rows.sort_by_key(|p| p.site);
        rows
    }

    /// Drop every record (start of a new run).
    pub fn reset(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_created_on_first_touch() {
        let p = SiteProfiler::new();
        assert!(p.is_empty());
        p.with_site(7, |r| r.forks += 1);
        p.with_site(7, |r| r.forks += 1);
        p.with_site(9, |r| r.forks += 1);
        assert_eq!(p.len(), 2);
        assert_eq!(p.with_site(7, |r| r.forks), 2);
    }

    #[test]
    fn absorb_tracks_rates_and_decay() {
        let mut r = SiteRecord::default();
        for _ in 0..4 {
            r.absorb(Some(RollbackReason::Conflict), false, false, 0, 100, 0, 0.5);
        }
        assert_eq!(r.rollbacks, 4);
        assert_eq!(r.conflicts, 4);
        assert_eq!(r.wasted_work, 400);
        assert!(r.rollback_rate() > 0.99);
        // Commits push the decayed rate down geometrically.
        for _ in 0..4 {
            r.absorb(None, false, false, 100, 0, 0, 0.5);
        }
        assert!(r.rollback_rate() < 0.1, "rate = {}", r.rollback_rate());
        assert_eq!(r.samples(), 8);
    }

    #[test]
    fn rollback_reasons_are_counted_separately() {
        let mut r = SiteRecord::default();
        r.absorb(Some(RollbackReason::Overflow), false, false, 0, 10, 0, 0.9);
        r.absorb(Some(RollbackReason::Conflict), false, false, 0, 10, 0, 0.9);
        r.absorb(Some(RollbackReason::Injected), false, false, 0, 10, 0, 0.9);
        assert_eq!(r.overflows, 1);
        assert_eq!(r.conflicts, 1);
        assert_eq!(r.injected, 1);
        assert_eq!(r.rollbacks, 3);
        assert!(r.overflow_rate() > 0.0 && r.overflow_rate() < r.rollback_rate() + 1e-12);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let p = SiteProfiler::new();
        for site in [44u32, 2, 17, 300] {
            p.with_site(site, |r| {
                r.forks = site as u64;
                r.absorb(None, false, false, 5, 0, 1, 0.9);
            });
        }
        let rows = p.snapshot();
        assert_eq!(rows.len(), 4);
        let sites: Vec<u32> = rows.iter().map(|r| r.site).collect();
        assert_eq!(sites, vec![2, 17, 44, 300]);
        assert!(rows.iter().all(|r| r.commits == 1 && r.stall == 1));
        p.reset();
        assert!(p.snapshot().is_empty());
    }

    #[test]
    fn profiler_is_safe_under_concurrent_updates() {
        let p = std::sync::Arc::new(SiteProfiler::new());
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let p = std::sync::Arc::clone(&p);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u32 {
                    p.with_site(i % 13 + t % 2, |r| r.forks += 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = p.snapshot().iter().map(|r| r.forks).sum();
        assert_eq!(total, 8 * 1000);
    }
}
