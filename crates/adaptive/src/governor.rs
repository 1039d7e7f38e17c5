//! The [`Governor`]: the per-site records and the configured policy
//! behind one lock, consulted by the runtime and the simulator alike.

use std::collections::BTreeMap;

use parking_lot::Mutex;

use mutls_membuf::{RollbackReason, SpecFailure};

use crate::fork_model::ForkModel;
use crate::policy::{throttles, ForkDecision, GovernorConfig, PolicyKind};
use crate::site::{SiteId, SiteProfile, SiteRecord};

/// Everything the runtime reports back about one joined (or discarded)
/// speculative child.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteOutcome {
    /// True when the child validated and committed.
    pub committed: bool,
    /// Failure reason when the child rolled back.
    pub failure: Option<SpecFailure>,
    /// True when the child's conflict was repaired by value-predict-and-
    /// retry: the join *committed* (`committed` is true) at the cost of a
    /// re-validation pass instead of a re-execution.  Throttle treats this
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
}

impl SiteOutcome {
    /// A committed child.  Besides the runtime and the replay, the
    /// benchmark's governor probe calls it, so its signature is frozen
    /// until ROADMAP item 2(e).
    pub fn committed(work: u64, stall: u64, model: ForkModel) -> Self {
        SiteOutcome {
            committed: true,
            failure: None,
            retried: false,
            work,
            wasted_work: 0,
            stall,
            model,
        }
    }

    /// A rolled-back child.
    pub fn rolled_back(reason: SpecFailure, wasted: u64, stall: u64, model: ForkModel) -> Self {
        SiteOutcome {
            committed: false,
            failure: Some(reason),
            retried: false,
            work: 0,
            wasted_work: wasted,
            stall,
            model,
        }
    }

    /// Mark a committed outcome as a value-predict retry (builder style).
    pub fn with_retry(mut self, retried: bool) -> Self {
        self.retried = retried;
        self
    }

    /// The coarse cause class of this outcome (`None` = committed).
    pub fn reason(&self) -> Option<RollbackReason> {
        self.failure.map(RollbackReason::from)
    }
}

/// The adaptive speculation governor: the policy and one record per
/// fork site, kept sorted by site ID behind one lock.
#[derive(Debug)]
pub struct Governor {
    policy: PolicyKind,
    sites: Mutex<BTreeMap<SiteId, SiteRecord>>,
}

impl Governor {
    /// Build a governor running the policy named in `config`.
    pub fn new(config: GovernorConfig) -> Self {
        Governor {
            policy: config.policy,
            sites: Mutex::new(BTreeMap::new()),
        }
    }

    /// Decide whether fork-site `site` may speculate right now, and under
    /// which model.  `Static` is the throttle switched off.  A denial is
    /// recorded in the site's profile.
    pub fn decide(&self, site: SiteId, default_model: ForkModel) -> ForkDecision {
        let mut sites = self.sites.lock();
        let record = sites.entry(site).or_default();
        if self.policy == PolicyKind::Throttle && throttles(record) {
            record.throttled += 1;
            return ForkDecision::Deny;
        }
        ForkDecision::Allow(default_model)
    }

    /// Record that a speculative thread was actually launched from `site`.
    pub fn record_fork(&self, site: SiteId) {
        self.sites.lock().entry(site).or_default().forks += 1;
    }

    /// Record the outcome of a child launched from `site`.
    pub fn record_outcome(&self, site: SiteId, outcome: &SiteOutcome) {
        self.sites.lock().entry(site).or_default().absorb(outcome);
    }

    /// Snapshot every profiled site, sorted by site ID.
    pub fn snapshot(&self) -> Vec<SiteProfile> {
        let sites = self.sites.lock();
        sites
            .iter()
            .map(|(&site, record)| SiteProfile::from_record(site, record))
            .collect()
    }

    /// Forget all profiles (start of a new speculative region run).
    pub fn reset(&self) {
        self.sites.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(
            governor.decide(1, ForkModel::InOrder),
            ForkDecision::Allow(ForkModel::InOrder)
        );
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

    /// The outcome a site's child reports at step `i` of a script.
    type Script = fn(usize) -> SiteOutcome;

    const SCRIPTS: [(&str, Script); 7] = [
        ("commits", |_| {
            SiteOutcome::committed(10, 1, ForkModel::Mixed)
        }),
        ("conflicts then commits", |i| {
            if i < 32 {
                SiteOutcome::rolled_back(SpecFailure::ReadConflict, 7, 2, ForkModel::Mixed)
            } else {
                SiteOutcome::committed(10, 1, ForkModel::Mixed)
            }
        }),
        ("every other conflicts", |i| {
            if i % 2 == 0 {
                SiteOutcome::rolled_back(SpecFailure::ReadConflict, 7, 2, ForkModel::Mixed)
            } else {
                SiteOutcome::committed(10, 1, ForkModel::Mixed)
            }
        }),
        ("three in four overflow", |i| {
            if i % 4 != 3 {
                SiteOutcome::rolled_back(SpecFailure::BufferOverflow, 7, 2, ForkModel::Mixed)
            } else {
                SiteOutcome::committed(10, 1, ForkModel::Mixed)
            }
        }),
        ("injected", |_| {
            SiteOutcome::rolled_back(SpecFailure::Injected, 7, 2, ForkModel::Mixed)
        }),
        ("retried commits", |i| {
            if i % 4 == 0 {
                SiteOutcome::rolled_back(SpecFailure::ReadConflict, 7, 2, ForkModel::Mixed)
            } else {
                SiteOutcome::committed(10, 1, ForkModel::Mixed).with_retry(true)
            }
        }),
        ("forty conflicts then commits", |i| {
            if i < 40 {
                SiteOutcome::rolled_back(SpecFailure::ReadConflict, 7, 2, ForkModel::Mixed)
            } else {
                SiteOutcome::committed(10, 1, ForkModel::Mixed)
            }
        }),
    ];

    /// Drive every script for 64 decisions, script `k` at site `k + 1`: a
    /// step's outcome is recorded only when its fork was allowed.  Returns
    /// one `+`/`-` string of decisions per script.
    fn run_scripts(policy: PolicyKind) -> (Vec<String>, Vec<SiteProfile>) {
        let governor = Governor::new(GovernorConfig::with_policy(policy));
        let mut decisions = Vec::new();
        for (k, (_, script)) in SCRIPTS.iter().enumerate() {
            let site = k as SiteId + 1;
            let mut line = String::new();
            for i in 0..64 {
                match governor.decide(site, ForkModel::Mixed) {
                    ForkDecision::Allow(model) => {
                        assert_eq!(model, ForkModel::Mixed);
                        line.push('+');
                        governor.record_fork(site);
                        governor.record_outcome(site, &script(i));
                    }
                    ForkDecision::Deny => line.push('-'),
                }
            }
            decisions.push(line);
        }
        (decisions, governor.snapshot())
    }

    /// Per site: its decisions, then every `SiteProfile` field (the rate
    /// exactly, as its shortest round-trip decimal).
    fn pin(policy: PolicyKind) -> Vec<(String, String)> {
        let (decisions, profiles) = run_scripts(policy);
        assert_eq!(profiles.len(), SCRIPTS.len());
        decisions
            .into_iter()
            .zip(&profiles)
            .map(|(line, p)| {
                let profile = format!(
                    "site {} forks {} throttled {} commits {} rollbacks {} overflows {} \
                     conflicts {} retries {} injected {} work {} wasted {} \
                     stall {} rate {:?}",
                    p.site,
                    p.forks,
                    p.throttled,
                    p.commits,
                    p.rollbacks,
                    p.overflows,
                    p.conflicts,
                    p.retries,
                    p.injected,
                    p.committed_work,
                    p.wasted_work,
                    p.stall,
                    p.rollback_rate
                );
                (line, profile)
            })
            .collect()
    }

    /// Every script's decisions and final profile under `Static`.
    const STATIC_PIN: [(&str, &str); 7] = [
        (
            "++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++",
            "site 1 forks 64 throttled 0 commits 64 rollbacks 0 overflows 0 conflicts 0 retries 0 injected 0 work 640 wasted 0 stall 64 rate 0.0",
        ),
        (
            "++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++",
            "site 2 forks 64 throttled 0 commits 32 rollbacks 32 overflows 0 conflicts 32 retries 0 injected 0 work 320 wasted 224 stall 96 rate 0.0331969595732301",
        ),
        (
            "++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++",
            "site 3 forks 64 throttled 0 commits 32 rollbacks 32 overflows 0 conflicts 32 retries 0 injected 0 work 320 wasted 224 stall 96 rate 0.47368421052631576",
        ),
        (
            "++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++",
            "site 4 forks 64 throttled 0 commits 16 rollbacks 48 overflows 48 conflicts 0 retries 0 injected 0 work 160 wasted 336 stall 112 rate 0.7092177958708927",
        ),
        (
            "++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++",
            "site 5 forks 64 throttled 0 commits 0 rollbacks 64 overflows 0 conflicts 0 retries 0 injected 64 work 0 wasted 448 stall 128 rate 1.0",
        ),
        (
            "++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++",
            "site 6 forks 64 throttled 0 commits 48 rollbacks 16 overflows 0 conflicts 16 retries 48 injected 0 work 480 wasted 112 stall 80 rate 0.21198022681011924",
        ),
        (
            "++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++",
            "site 7 forks 64 throttled 0 commits 24 rollbacks 40 overflows 0 conflicts 40 retries 0 injected 0 work 240 wasted 280 stall 104 rate 0.07868019001538798",
        ),
    ];

    /// The same scripts under `Throttle`.
    const THROTTLE_PIN: [(&str, &str); 7] = [
        (
            "++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++",
            "site 1 forks 64 throttled 0 commits 64 rollbacks 0 overflows 0 conflicts 0 retries 0 injected 0 work 640 wasted 0 stall 64 rate 0.0",
        ),
        (
            "++++---------------+---------------+---------------+------------",
            "site 2 forks 7 throttled 57 commits 2 rollbacks 5 overflows 0 conflicts 5 retries 0 injected 0 work 20 wasted 35 stall 12 rate 0.6358081828534276",
        ),
        (
            "+++++---------------+---------------+---------------+-----------",
            "site 3 forks 8 throttled 56 commits 2 rollbacks 6 overflows 0 conflicts 6 retries 0 injected 0 work 20 wasted 42 stall 14 rate 0.791488563810347",
        ),
        (
            "++++---------------+---------------++---------------+-----------",
            "site 4 forks 8 throttled 56 commits 3 rollbacks 5 overflows 5 conflicts 0 retries 0 injected 0 work 30 wasted 35 stall 13 rate 0.6145788199481895",
        ),
        (
            "++++---------------+---------------+---------------+------------",
            "site 5 forks 7 throttled 57 commits 0 rollbacks 7 overflows 0 conflicts 0 retries 0 injected 7 work 0 wasted 49 stall 14 rate 1.0",
        ),
        (
            "++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++++",
            "site 6 forks 64 throttled 0 commits 48 rollbacks 16 overflows 0 conflicts 16 retries 48 injected 0 work 480 wasted 112 stall 80 rate 0.21198022681011924",
        ),
        (
            "++++---------------+---------------+---------------+------------",
            "site 7 forks 7 throttled 57 commits 1 rollbacks 6 overflows 0 conflicts 6 retries 0 injected 0 work 10 wasted 42 stall 13 rate 0.8083200962386461",
        ),
    ];

    /// Both policies over every script: the exact allow/deny sequence and
    /// the final profile of each site.
    #[test]
    fn decisions_are_pinned() {
        for (policy, expected) in [
            (PolicyKind::Static, STATIC_PIN),
            (PolicyKind::Throttle, THROTTLE_PIN),
        ] {
            for (((name, _), got), want) in SCRIPTS.iter().zip(pin(policy)).zip(expected) {
                assert_eq!(
                    (got.0.as_str(), got.1.as_str()),
                    want,
                    "{policy}, script {name:?}"
                );
            }
        }
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let governor = Governor::new(GovernorConfig::default());
        for site in [44u32, 2, 17, 300] {
            governor.record_fork(site);
            governor.record_outcome(site, &SiteOutcome::committed(5, 1, ForkModel::Mixed));
        }
        let rows = governor.snapshot();
        let sites: Vec<u32> = rows.iter().map(|r| r.site).collect();
        assert_eq!(sites, vec![2, 17, 44, 300]);
        assert!(rows
            .iter()
            .all(|r| r.forks == 1 && r.commits == 1 && r.stall == 1));
        governor.reset();
        assert!(governor.snapshot().is_empty());
    }

    #[test]
    fn governor_is_safe_under_concurrent_updates() {
        let governor = std::sync::Arc::new(Governor::new(GovernorConfig::default()));
        let handles: Vec<_> = (0..8u32)
            .map(|t| {
                let governor = std::sync::Arc::clone(&governor);
                std::thread::spawn(move || {
                    for i in 0..1000u32 {
                        governor.record_fork(i % 13 + t % 2);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let rows = governor.snapshot();
        assert_eq!(rows.len(), 14);
        assert_eq!(rows.iter().map(|r| r.forks).sum::<u64>(), 8 * 1000);
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
