//! Per-fork-site profiling: what speculation at each fork site did.
//!
//! Every fork point in a workload carries a stable 32-bit *site ID* (the
//! `point` argument of `TlsContext::fork`).  A site's record accumulates
//! how speculation there actually went — commits, rollbacks, buffer
//! overflows, committed vs. wasted work and stall time — and feeds the
//! governor's fork decisions; [`SiteProfile`] is its snapshot.

use mutls_membuf::RollbackReason;

use crate::governor::SiteOutcome;
use crate::policy::DECAY;

/// Identifier of one fork point (the `point` of `TlsContext::fork`).
pub type SiteId = u32;

/// One site's accumulator, kept by the governor.
#[derive(Debug, Clone, Default)]
pub(crate) struct SiteRecord {
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
    /// Commits repaired by value-predict-and-retry (a subset of
    /// `commits`, never counted in `rollbacks`).
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
    /// Consecutive throttle denials since the last probe.
    pub denied_streak: u64,
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

    /// Fold one join outcome into the record.  The recency-weighted
    /// counters decay by [`DECAY`] before the new sample is added, so old
    /// behaviour fades and a throttled site can re-earn speculation.  A
    /// retried conflict counts as a *commit*: far cheaper than a squash.
    pub fn absorb(&mut self, outcome: &SiteOutcome) {
        self.hot_commits *= DECAY;
        self.hot_rollbacks *= DECAY;
        match outcome.reason() {
            None => {
                self.commits += 1;
                self.hot_commits += 1.0;
                self.committed_work += outcome.work;
                self.retries += outcome.retried as u64;
            }
            Some(reason) => {
                self.rollbacks += 1;
                self.hot_rollbacks += 1.0;
                self.wasted_work += outcome.wasted_work;
                match reason {
                    RollbackReason::Overflow => self.overflows += 1,
                    RollbackReason::Conflict => self.conflicts += 1,
                    RollbackReason::Injected => self.injected += 1,
                    RollbackReason::Other => {}
                }
            }
        }
        self.stall += outcome.stall;
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
    pub(crate) fn from_record(site: SiteId, record: &SiteRecord) -> Self {
        SiteProfile {
            site,
            forks: record.forks,
            throttled: record.throttled,
            commits: record.commits,
            rollbacks: record.rollbacks,
            overflows: record.overflows,
            conflicts: record.conflicts,
            retries: record.retries,
            injected: record.injected,
            committed_work: record.committed_work,
            wasted_work: record.wasted_work,
            stall: record.stall,
            rollback_rate: record.rollback_rate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fork_model::ForkModel;
    use mutls_membuf::SpecFailure;

    fn rolled_back(reason: SpecFailure, wasted: u64) -> SiteOutcome {
        SiteOutcome::rolled_back(reason, wasted, 0, ForkModel::Mixed)
    }

    #[test]
    fn absorb_tracks_rates_and_decay() {
        let mut r = SiteRecord::default();
        for _ in 0..4 {
            r.absorb(&rolled_back(SpecFailure::ReadConflict, 100));
        }
        assert_eq!(r.rollbacks, 4);
        assert_eq!(r.conflicts, 4);
        assert_eq!(r.wasted_work, 400);
        assert!(r.rollback_rate() > 0.99);
        // Commits push the decayed rate down geometrically.
        for _ in 0..16 {
            r.absorb(&SiteOutcome::committed(100, 0, ForkModel::Mixed));
        }
        assert!(r.rollback_rate() < 0.1, "rate = {}", r.rollback_rate());
        assert_eq!(r.samples(), 20);
    }

    #[test]
    fn rollback_reasons_are_counted_separately() {
        let mut r = SiteRecord::default();
        r.absorb(&rolled_back(SpecFailure::BufferOverflow, 10));
        r.absorb(&rolled_back(SpecFailure::ReadConflict, 10));
        r.absorb(&rolled_back(SpecFailure::Injected, 10));
        assert_eq!(r.overflows, 1);
        assert_eq!(r.conflicts, 1);
        assert_eq!(r.injected, 1);
        assert_eq!(r.rollbacks, 3);
    }
}
