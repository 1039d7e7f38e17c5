//! The governor's policy and its one rule.
//!
//! * `Static` — always allow, always the configured model: exactly the
//!   seed runtime's unconditional speculation.
//! * `Throttle` — suppress speculation at sites whose recency-weighted
//!   rollback rate (buffer overflows included) crosses a threshold.
//!   Exponential decay plus periodic *probe* forks let a suppressed site
//!   re-earn speculation when its behaviour improves (cf. Prophet's
//!   profile-guided speculation filtering).
//!
//! The rule's tuning is constants: nothing sets it.

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

/// Configuration of the adaptive governor: the policy, nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GovernorConfig {
    /// The policy to run.
    pub policy: PolicyKind,
}

impl GovernorConfig {
    /// A governor running `policy`.
    pub fn with_policy(policy: PolicyKind) -> Self {
        GovernorConfig { policy }
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

/// Rollback rate above which Throttle suppresses a site.  Overflows are
/// rollbacks, so it bounds the overflow rate too.
const ROLLBACK_THRESHOLD: f64 = 0.5;
/// Joined samples a site must have before Throttle may suppress it.
const MIN_SAMPLES: u64 = 4;
/// While a site is suppressed, every `PROBE_INTERVAL`-th fork request is
/// allowed through as a probe so the site can re-earn speculation.
const PROBE_INTERVAL: u64 = 16;
/// Exponential forgetting factor applied per outcome to a site's
/// recency-weighted counters.
pub(crate) const DECAY: f64 = 0.9;

/// Throttle's rule: true when the site must not speculate now.  A conflict
/// repaired by value-predict-and-retry never reaches the rollback rate: it
/// is absorbed as a commit.
pub(crate) fn throttles(record: &mut SiteRecord) -> bool {
    if record.samples() < MIN_SAMPLES || record.rollback_rate() <= ROLLBACK_THRESHOLD {
        record.denied_streak = 0;
        return false;
    }
    record.denied_streak += 1;
    if record.denied_streak >= PROBE_INTERVAL {
        // Probe: let one fork through so the decayed rates can recover
        // if the site's behaviour changed.
        record.denied_streak = 0;
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::SiteOutcome;
    use mutls_membuf::SpecFailure;

    fn conflict() -> SiteOutcome {
        SiteOutcome::rolled_back(SpecFailure::ReadConflict, 50, 0, ForkModel::Mixed)
    }

    fn commit() -> SiteOutcome {
        SiteOutcome::committed(50, 0, ForkModel::Mixed)
    }

    fn absorb_n(record: &mut SiteRecord, outcome: &SiteOutcome, n: usize) {
        for _ in 0..n {
            record.absorb(outcome);
        }
    }

    #[test]
    fn throttle_allows_during_warmup_then_denies() {
        let mut r = SiteRecord::default();
        assert!(!throttles(&mut r));
        absorb_n(&mut r, &conflict(), MIN_SAMPLES as usize);
        assert!(throttles(&mut r));
    }

    #[test]
    fn throttle_probes_every_interval() {
        let mut r = SiteRecord::default();
        absorb_n(&mut r, &conflict(), 8);
        let allows: Vec<bool> = (0..2 * PROBE_INTERVAL)
            .map(|_| !throttles(&mut r))
            .collect();
        // Deny `PROBE_INTERVAL - 1` times, probe, and again.
        let mut expected = vec![false; PROBE_INTERVAL as usize - 1];
        expected.push(true);
        assert_eq!(allows, expected.repeat(2));
    }

    #[test]
    fn throttled_site_re_earns_speculation_after_commits() {
        let mut r = SiteRecord::default();
        absorb_n(&mut r, &conflict(), 6);
        assert!(throttles(&mut r));
        // The site's behaviour flips to always-commit; probes feed the
        // decayed counters until the rate crosses back under the threshold.
        absorb_n(&mut r, &commit(), 6);
        assert!(
            !throttles(&mut r),
            "rate {} should be back under {ROLLBACK_THRESHOLD}",
            r.rollback_rate()
        );
    }

    #[test]
    fn throttle_reacts_to_overflows() {
        let mut r = SiteRecord::default();
        let overflow =
            SiteOutcome::rolled_back(SpecFailure::BufferOverflow, 10, 0, ForkModel::Mixed);
        absorb_n(&mut r, &overflow, 4);
        assert!(throttles(&mut r));
    }

    #[test]
    fn throttle_treats_retried_conflicts_as_cheaper_than_squashes() {
        // Two sites that conflict on every single join.  At one of them
        // the recovery engine repairs every conflict by value prediction
        // (committed + retried), at the other every conflict squashes.
        let mut retrying = SiteRecord::default();
        let mut squashing = SiteRecord::default();
        absorb_n(&mut retrying, &commit().with_retry(true), 8);
        absorb_n(&mut squashing, &conflict(), 8);
        assert_eq!(retrying.retries, 8);
        assert_eq!(retrying.rollbacks, 0, "a retry is not a rollback");
        // The retry-repaired site keeps speculating; the squashing site
        // is shut down.
        assert!(!throttles(&mut retrying));
        assert!(throttles(&mut squashing));
    }

    #[test]
    fn policy_kind_parses() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.label().parse::<PolicyKind>().unwrap(), kind);
        }
        assert!("nope".parse::<PolicyKind>().is_err());
    }
}
