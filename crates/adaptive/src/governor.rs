//! The [`Governor`]: the profiler and the configured policy behind one
//! thread-safe facade the runtime and the simulator both consult.

use mutls_membuf::{RollbackReason, SpecFailure};

use crate::fork_model::ForkModel;
use crate::policy::{build_policy, ForkDecision, GovernorConfig, GovernorPolicy};
use crate::site::{SiteId, SiteProfile, SiteProfiler};

/// Everything the runtime reports back about one joined (or discarded)
/// speculative child.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteOutcome {
    /// True when the child validated and committed.
    pub committed: bool,
    /// Failure reason when the child rolled back.
    pub failure: Option<SpecFailure>,
    /// True when a conflict rollback was classified as suspected false
    /// sharing (grain-induced, not genuine sharing).
    pub false_sharing: bool,
    /// True when the child's conflict was repaired by value-predict-and-
    /// retry: the join *committed* (`committed` is true) at the cost of a
    /// re-validation pass instead of a re-execution.  Policies treat this
    /// as a success, not a squash.
    pub retried: bool,
    /// Useful work the child contributed (ns native / cycles simulated).
    pub work: u64,
    /// Work discarded by the rollback.
    pub wasted_work: u64,
    /// Idle/stall time of the child.
    pub stall: u64,
    /// Forking model the child was launched under.
    pub model: ForkModel,
    /// Live commit-log grain (log2 bytes) the child's traffic ran at —
    /// the grain of its conflicting (or, for commits, written) region at
    /// join time; 0 = not observed.  Lets the per-site tables show what
    /// the grain controller converged to for each site's data.
    pub grain_log2: u32,
}

impl SiteOutcome {
    /// A committed child.
    pub fn committed(work: u64, stall: u64, model: ForkModel) -> Self {
        SiteOutcome {
            committed: true,
            failure: None,
            false_sharing: false,
            retried: false,
            work,
            wasted_work: 0,
            stall,
            model,
            grain_log2: 0,
        }
    }

    /// A rolled-back child.
    pub fn rolled_back(reason: SpecFailure, wasted: u64, stall: u64, model: ForkModel) -> Self {
        SiteOutcome {
            committed: false,
            failure: Some(reason),
            false_sharing: false,
            retried: false,
            work: 0,
            wasted_work: wasted,
            stall,
            model,
            grain_log2: 0,
        }
    }

    /// Mark a rolled-back outcome as suspected false sharing (builder
    /// style).
    pub fn with_false_sharing(mut self, false_sharing: bool) -> Self {
        self.false_sharing = false_sharing;
        self
    }

    /// Mark a committed outcome as a value-predict retry (builder style).
    pub fn with_retry(mut self, retried: bool) -> Self {
        self.retried = retried;
        self
    }

    /// Record the live grain the child's traffic ran at (builder style).
    pub fn with_grain(mut self, grain_log2: u32) -> Self {
        self.grain_log2 = grain_log2;
        self
    }

    /// The coarse cause class of this outcome (`None` = committed).
    pub fn reason(&self) -> Option<RollbackReason> {
        self.failure.map(RollbackReason::from)
    }
}

/// The adaptive speculation governor.
pub struct Governor {
    config: GovernorConfig,
    profiler: SiteProfiler,
    policy: Box<dyn GovernorPolicy>,
}

impl std::fmt::Debug for Governor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Governor")
            .field("config", &self.config)
            .field("policy", &self.policy.name())
            .field("sites", &self.profiler.len())
            .finish()
    }
}

impl Governor {
    /// Build a governor running the policy named in `config`.
    pub fn new(config: GovernorConfig) -> Self {
        Governor {
            policy: build_policy(config.policy),
            profiler: SiteProfiler::new(),
            config,
        }
    }

    /// The governor's configuration.
    pub fn config(&self) -> &GovernorConfig {
        &self.config
    }

    /// Decide whether fork-site `site` may speculate right now, and under
    /// which model.  A denial is recorded in the site's profile.
    pub fn decide(&self, site: SiteId, default_model: ForkModel) -> ForkDecision {
        self.profiler.with_site(site, |record| {
            let decision = self.policy.decide(record, &self.config, default_model);
            if !decision.allowed() {
                record.throttled += 1;
            }
            decision
        })
    }

    /// Record that a speculative thread was actually launched from `site`.
    pub fn record_fork(&self, site: SiteId) {
        self.profiler.with_site(site, |record| record.forks += 1);
    }

    /// Record the outcome of a child launched from `site`.
    pub fn record_outcome(&self, site: SiteId, outcome: &SiteOutcome) {
        let decay = self.config.decay;
        self.profiler.with_site(site, |record| {
            if outcome.grain_log2 != 0 {
                record.grain_log2 = outcome.grain_log2;
            }
            record.absorb(
                outcome.reason(),
                outcome.false_sharing,
                outcome.retried,
                outcome.work,
                outcome.wasted_work,
                outcome.stall,
                decay,
            );
        });
    }

    /// Snapshot every profiled site, sorted by site ID.
    pub fn snapshot(&self) -> Vec<SiteProfile> {
        self.profiler.snapshot()
    }

    /// Forget all profiles (start of a new speculative region run).
    pub fn reset(&self) {
        self.profiler.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;

    fn drive(governor: &Governor, site: SiteId, committed: bool, rounds: usize) -> (u64, u64) {
        let mut allowed = 0;
        let mut denied = 0;
        for _ in 0..rounds {
            match governor.decide(site, ForkModel::Mixed) {
                ForkDecision::Allow(model) => {
                    allowed += 1;
                    governor.record_fork(site);
                    let outcome = if committed {
                        SiteOutcome::committed(100, 5, model)
                    } else {
                        SiteOutcome::rolled_back(SpecFailure::ReadConflict, 100, 5, model)
                    };
                    governor.record_outcome(site, &outcome);
                }
                ForkDecision::Deny => denied += 1,
            }
        }
        (allowed, denied)
    }

    #[test]
    fn static_governor_never_denies() {
        let governor = Governor::new(GovernorConfig::default());
        let (allowed, denied) = drive(&governor, 1, false, 100);
        assert_eq!((allowed, denied), (100, 0));
        let profile = &governor.snapshot()[0];
        assert_eq!(profile.rollbacks, 100);
        assert_eq!(profile.throttled, 0);
    }

    #[test]
    fn throttle_governor_suppresses_bad_site_but_not_good_site() {
        let governor = Governor::new(GovernorConfig::with_policy(PolicyKind::Throttle));
        let (bad_allowed, bad_denied) = drive(&governor, 1, false, 100);
        let (good_allowed, good_denied) = drive(&governor, 2, true, 100);
        assert!(
            bad_denied > bad_allowed * 5,
            "bad site: {bad_allowed} allowed, {bad_denied} denied"
        );
        assert_eq!((good_allowed, good_denied), (100, 0));
        let rows = governor.snapshot();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].throttled > 0);
        assert_eq!(rows[1].throttled, 0);
        assert!(
            rows[0].wasted_work < 100 * 100,
            "throttling caps wasted work"
        );
    }

    #[test]
    fn outcomes_accumulate_work_and_stall() {
        let governor = Governor::new(GovernorConfig::default());
        governor.record_fork(9);
        governor.record_outcome(9, &SiteOutcome::committed(40, 7, ForkModel::InOrder));
        governor.record_outcome(
            9,
            &SiteOutcome::rolled_back(SpecFailure::BufferOverflow, 13, 2, ForkModel::InOrder),
        );
        governor.record_outcome(
            9,
            &SiteOutcome::rolled_back(SpecFailure::ReadConflict, 4, 1, ForkModel::InOrder),
        );
        let p = &governor.snapshot()[0];
        assert_eq!(p.committed_work, 40);
        assert_eq!(p.wasted_work, 17);
        assert_eq!(p.stall, 10);
        assert_eq!(p.overflows, 1);
        assert_eq!(p.conflicts, 1);
        assert_eq!(p.injected, 0);
        governor.reset();
        assert!(governor.snapshot().is_empty());
    }
}
