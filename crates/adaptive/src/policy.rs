//! Governor policies: how per-site profiles turn into fork decisions.
//!
//! * [`StaticPolicy`] — always allow, always the configured model: exactly
//!   the seed runtime's unconditional speculation.
//! * [`ThrottlePolicy`] — suppress speculation at sites whose
//!   recency-weighted rollback or overflow rate crosses a threshold.
//!   Exponential decay plus periodic *probe* forks let a suppressed site
//!   re-earn speculation when its behaviour improves (cf. Prophet's
//!   profile-guided speculation filtering).

use std::fmt;
use std::str::FromStr;

use crate::fork_model::ForkModel;
use crate::site::SiteRecord;

/// Which governor policy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PolicyKind {
    /// Unconditional speculation with the configured model (seed behavior).
    #[default]
    Static,
    /// Suppress speculation at unprofitable sites.
    Throttle,
}

impl PolicyKind {
    /// All policies, for sweeps.
    pub const ALL: [PolicyKind; 2] = [PolicyKind::Static, PolicyKind::Throttle];

    /// Short label for experiment output.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Static => "static",
            PolicyKind::Throttle => "throttle",
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "static" => Ok(PolicyKind::Static),
            "throttle" => Ok(PolicyKind::Throttle),
            other => Err(format!("unknown governor policy: {other}")),
        }
    }
}

/// Configuration of the adaptive governor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorConfig {
    /// The policy to run.
    pub policy: PolicyKind,
    /// Rollback-rate threshold above which Throttle suppresses a site.
    pub rollback_threshold: f64,
    /// Overflow-rate threshold above which Throttle suppresses a site.
    pub overflow_threshold: f64,
    /// Joined samples a site must have before Throttle may suppress it.
    pub min_samples: u64,
    /// Exponential forgetting factor in `(0, 1]` applied per outcome to
    /// the recency-weighted counters (1.0 = never forget).
    pub decay: f64,
    /// While a site is suppressed, every `probe_interval`-th fork request
    /// is allowed through as a probe so the site can re-earn speculation.
    pub probe_interval: u64,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            policy: PolicyKind::Static,
            rollback_threshold: 0.5,
            overflow_threshold: 0.5,
            min_samples: 4,
            decay: 0.9,
            probe_interval: 16,
        }
    }
}

impl GovernorConfig {
    /// Convenience constructor for a policy with default tuning.
    pub fn with_policy(policy: PolicyKind) -> Self {
        GovernorConfig {
            policy,
            ..Default::default()
        }
    }

    /// Set the rollback-rate threshold (builder style).
    ///
    /// # Panics
    /// Panics if `t` is not within `[0, 1]`.
    pub fn rollback_threshold(mut self, t: f64) -> Self {
        assert!((0.0..=1.0).contains(&t), "threshold must be in [0,1]");
        self.rollback_threshold = t;
        self
    }

    /// Set the overflow-rate threshold (builder style).
    ///
    /// # Panics
    /// Panics if `t` is not within `[0, 1]`.
    pub fn overflow_threshold(mut self, t: f64) -> Self {
        assert!((0.0..=1.0).contains(&t), "threshold must be in [0,1]");
        self.overflow_threshold = t;
        self
    }

    /// Set the warm-up sample count (builder style).
    pub fn min_samples(mut self, n: u64) -> Self {
        self.min_samples = n;
        self
    }

    /// Set the exponential forgetting factor (builder style).
    ///
    /// # Panics
    /// Panics if `d` is not within `(0, 1]`.
    pub fn decay(mut self, d: f64) -> Self {
        assert!(d > 0.0 && d <= 1.0, "decay must be in (0,1]");
        self.decay = d;
        self
    }

    /// Set the probe interval (builder style).
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn probe_interval(mut self, n: u64) -> Self {
        assert!(n > 0, "probe interval must be positive");
        self.probe_interval = n;
        self
    }
}

/// The governor's answer to "may this site speculate right now?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForkDecision {
    /// Speculate, using the given forking model.
    Allow(ForkModel),
    /// Do not speculate; the parent will run the continuation inline.
    Deny,
}

impl ForkDecision {
    /// True when speculation was allowed.
    pub fn allowed(&self) -> bool {
        matches!(self, ForkDecision::Allow(_))
    }
}

/// A pluggable fork-decision policy.
///
/// Policies receive exclusive access to the site's record, so they may
/// keep per-site policy state (probe streaks, decision counters) in it.
pub trait GovernorPolicy: Send + Sync {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Decide whether (and under which model) the site may speculate.
    fn decide(
        &self,
        record: &mut SiteRecord,
        config: &GovernorConfig,
        default_model: ForkModel,
    ) -> ForkDecision;
}

/// Seed behaviour: always allow, always the configured default model.
#[derive(Debug, Default)]
pub struct StaticPolicy;

impl GovernorPolicy for StaticPolicy {
    fn name(&self) -> &'static str {
        "static"
    }

    fn decide(
        &self,
        record: &mut SiteRecord,
        _config: &GovernorConfig,
        default_model: ForkModel,
    ) -> ForkDecision {
        record.decisions += 1;
        ForkDecision::Allow(default_model)
    }
}

/// Suppress speculation at sites that keep rolling back or overflowing.
///
/// Conflict rollbacks classified as *suspected false sharing* (see
/// `SiteRecord::false_sharing_fraction`) are treated more leniently: the
/// right fix for a grain-induced conflict is a finer commit-log grain,
/// not less parallelism, so when false sharing dominates a site's recent
/// rollbacks the policy raises its deny threshold halfway toward 1 and
/// probes twice as often — the site keeps most of its speculation while
/// genuinely conflicting sites are still shut down hard.
///
/// Conflicts repaired by **value-predict-and-retry** never reach the
/// rollback rate at all: a retried join is absorbed as a *commit* (plus a
/// `hot_retries` sample), so a site whose conflicts are consistently
/// repaired for the price of a re-validation pass keeps speculating,
/// while a site whose conflicts force squash-and-re-execute is shut
/// down — the policy prices a retried conflict as cheap and a squashed
/// one as expensive, exactly the recovery engine's cost order.
#[derive(Debug, Default)]
pub struct ThrottlePolicy;

/// Fraction of recent rollbacks that must be suspected false sharing
/// before [`ThrottlePolicy`] switches to its lenient regime.
pub const FALSE_SHARING_DOMINANCE: f64 = 0.5;

impl GovernorPolicy for ThrottlePolicy {
    fn name(&self) -> &'static str {
        "throttle"
    }

    fn decide(
        &self,
        record: &mut SiteRecord,
        config: &GovernorConfig,
        default_model: ForkModel,
    ) -> ForkDecision {
        record.decisions += 1;
        if record.samples() < config.min_samples {
            return ForkDecision::Allow(default_model);
        }
        let fs_dominated = record.false_sharing_fraction() > FALSE_SHARING_DOMINANCE;
        let rollback_threshold = if fs_dominated {
            // Halfway between the configured threshold and 1: suspected
            // false sharing has to be far more severe before forks stop.
            (config.rollback_threshold + 1.0) / 2.0
        } else {
            config.rollback_threshold
        };
        let unprofitable = record.rollback_rate() > rollback_threshold
            || record.overflow_rate() > config.overflow_threshold;
        if !unprofitable {
            record.denied_streak = 0;
            return ForkDecision::Allow(default_model);
        }
        record.denied_streak += 1;
        let probe_interval = if fs_dominated {
            (config.probe_interval / 2).max(1)
        } else {
            config.probe_interval
        };
        if record.denied_streak >= probe_interval {
            // Probe: let one fork through so the decayed rates can recover
            // if the site's behaviour changed.
            record.denied_streak = 0;
            return ForkDecision::Allow(default_model);
        }
        ForkDecision::Deny
    }
}

/// Build the policy object configured in `config`.
pub fn build_policy(kind: PolicyKind) -> Box<dyn GovernorPolicy> {
    match kind {
        PolicyKind::Static => Box::new(StaticPolicy),
        PolicyKind::Throttle => Box::new(ThrottlePolicy),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rollback_heavy(record: &mut SiteRecord, n: usize, decay: f64) {
        for _ in 0..n {
            record.absorb(
                Some(mutls_membuf::RollbackReason::Conflict),
                false,
                false,
                0,
                50,
                0,
                decay,
            );
        }
    }

    #[test]
    fn static_policy_always_allows_default() {
        let mut r = SiteRecord::default();
        rollback_heavy(&mut r, 50, 0.9);
        let cfg = GovernorConfig::default();
        for _ in 0..10 {
            assert_eq!(
                StaticPolicy.decide(&mut r, &cfg, ForkModel::InOrder),
                ForkDecision::Allow(ForkModel::InOrder)
            );
        }
    }

    #[test]
    fn throttle_allows_during_warmup_then_denies() {
        let mut r = SiteRecord::default();
        let cfg = GovernorConfig::with_policy(PolicyKind::Throttle);
        assert!(ThrottlePolicy
            .decide(&mut r, &cfg, ForkModel::Mixed)
            .allowed());
        rollback_heavy(&mut r, cfg.min_samples as usize, cfg.decay);
        assert_eq!(
            ThrottlePolicy.decide(&mut r, &cfg, ForkModel::Mixed),
            ForkDecision::Deny
        );
    }

    #[test]
    fn throttle_probes_every_interval() {
        let mut r = SiteRecord::default();
        let cfg = GovernorConfig::with_policy(PolicyKind::Throttle).probe_interval(4);
        rollback_heavy(&mut r, 8, cfg.decay);
        let decisions: Vec<bool> = (0..8)
            .map(|_| {
                ThrottlePolicy
                    .decide(&mut r, &cfg, ForkModel::Mixed)
                    .allowed()
            })
            .collect();
        // Deny, deny, deny, probe, deny, deny, deny, probe.
        assert_eq!(
            decisions,
            vec![false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn throttled_site_re_earns_speculation_after_commits() {
        let mut r = SiteRecord::default();
        let cfg = GovernorConfig::with_policy(PolicyKind::Throttle)
            .probe_interval(2)
            .decay(0.5);
        rollback_heavy(&mut r, 6, cfg.decay);
        assert!(!ThrottlePolicy
            .decide(&mut r, &cfg, ForkModel::Mixed)
            .allowed());
        // The site's behaviour flips to always-commit; probes feed the
        // decayed counters until the rate crosses back under the threshold.
        for _ in 0..6 {
            r.absorb(None, false, false, 50, 0, 0, cfg.decay);
        }
        assert!(
            ThrottlePolicy
                .decide(&mut r, &cfg, ForkModel::Mixed)
                .allowed(),
            "rate {} should be back under {}",
            r.rollback_rate(),
            cfg.rollback_threshold
        );
    }

    #[test]
    fn throttle_reacts_to_overflow_rate_too() {
        let mut r = SiteRecord::default();
        let cfg = GovernorConfig::with_policy(PolicyKind::Throttle)
            .rollback_threshold(1.0) // only overflows can trip it
            .overflow_threshold(0.3);
        for _ in 0..4 {
            r.absorb(
                Some(mutls_membuf::RollbackReason::Overflow),
                false,
                false,
                0,
                10,
                0,
                cfg.decay,
            );
        }
        assert_eq!(
            ThrottlePolicy.decide(&mut r, &cfg, ForkModel::Mixed),
            ForkDecision::Deny
        );
    }

    #[test]
    fn throttle_backs_off_leniently_on_suspected_false_sharing() {
        let cfg = GovernorConfig::with_policy(PolicyKind::Throttle).probe_interval(8);
        // Two sites with an identical 100% conflict-rollback history; at
        // one of them every conflict is suspected false sharing.
        let mut genuine = SiteRecord::default();
        let mut false_shared = SiteRecord::default();
        for _ in 0..8 {
            genuine.absorb(
                Some(mutls_membuf::RollbackReason::Conflict),
                false,
                false,
                0,
                50,
                0,
                cfg.decay,
            );
            false_shared.absorb(
                Some(mutls_membuf::RollbackReason::Conflict),
                true,
                false,
                0,
                50,
                0,
                cfg.decay,
            );
        }
        assert!(false_shared.false_sharing_fraction() > FALSE_SHARING_DOMINANCE);
        let allows = |r: &mut SiteRecord| {
            (0..16)
                .filter(|_| ThrottlePolicy.decide(r, &cfg, ForkModel::Mixed).allowed())
                .count()
        };
        let genuine_allows = allows(&mut genuine);
        let fs_allows = allows(&mut false_shared);
        // Both rollback rates are 1.0, above even the lenient threshold,
        // so both deny — but the false-sharing site probes twice as often.
        assert!(
            fs_allows >= genuine_allows * 2,
            "false-sharing site allowed {fs_allows}, genuine {genuine_allows}"
        );
        // Below the lenient threshold the false-sharing site flows freely
        // while the genuinely conflicting site keeps getting denied.
        for _ in 0..3 {
            genuine.absorb(None, false, false, 50, 0, 0, cfg.decay);
            false_shared.absorb(None, false, false, 50, 0, 0, cfg.decay);
        }
        assert!(
            genuine.rollback_rate() > cfg.rollback_threshold,
            "rate {} still above base threshold",
            genuine.rollback_rate()
        );
        assert!(!ThrottlePolicy
            .decide(&mut genuine, &cfg, ForkModel::Mixed)
            .allowed());
        assert!(ThrottlePolicy
            .decide(&mut false_shared, &cfg, ForkModel::Mixed)
            .allowed());
    }

    #[test]
    fn throttle_treats_retried_conflicts_as_cheaper_than_squashes() {
        // Two sites that conflict on every single join.  At one of them
        // the recovery engine repairs every conflict by value prediction
        // (reason None + retried), at the other every conflict squashes.
        let cfg = GovernorConfig::with_policy(PolicyKind::Throttle);
        let mut retrying = SiteRecord::default();
        let mut squashing = SiteRecord::default();
        for _ in 0..8 {
            retrying.absorb(None, false, true, 50, 0, 0, cfg.decay);
            squashing.absorb(
                Some(mutls_membuf::RollbackReason::Conflict),
                false,
                false,
                0,
                50,
                0,
                cfg.decay,
            );
        }
        assert!(retrying.retry_fraction() > 0.9);
        assert_eq!(retrying.retries, 8);
        assert_eq!(retrying.rollbacks, 0, "a retry is not a rollback");
        // The retry-repaired site keeps speculating; the squashing site
        // is shut down.
        assert!(ThrottlePolicy
            .decide(&mut retrying, &cfg, ForkModel::Mixed)
            .allowed());
        assert!(!ThrottlePolicy
            .decide(&mut squashing, &cfg, ForkModel::Mixed)
            .allowed());
    }

    #[test]
    fn policy_kind_parses_and_builds() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.label().parse::<PolicyKind>().unwrap(), kind);
            assert_eq!(build_policy(kind).name(), kind.label());
        }
        assert!("nope".parse::<PolicyKind>().is_err());
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn invalid_threshold_panics() {
        let _ = GovernorConfig::default().rollback_threshold(1.5);
    }
}
