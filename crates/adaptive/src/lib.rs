//! # mutls-adaptive — adaptive speculation governor for MUTLS
//!
//! MUTLS's headline idea is *mixing* forking models to fit each program's
//! speculation structure, but a static configuration still speculates
//! unconditionally — even at fork sites that always roll back.  This crate
//! adds the feedback loop:
//!
//! * [`SiteProfiler`] — a lock-striped (dashmap-style) registry keyed by
//!   fork-site ID, accumulating commits, rollbacks, buffer overflows,
//!   stall time and speculative work per site.
//! * [`GovernorPolicy`] — pluggable fork-decision policies:
//!   [`StaticPolicy`] (the seed's unconditional behaviour) and
//!   [`ThrottlePolicy`] (suppress unprofitable sites, with exponential
//!   decay and probe forks so sites can re-earn speculation).
//! * [`Governor`] — the thread-safe facade `mutls-runtime`'s
//!   `ThreadManager` and `mutls-simcpu`'s scheduler consult before
//!   granting a speculative CPU, and report join outcomes back to.
//! * [`GrainController`] — the online adaptive-grain control plane: it
//!   consumes the commit log's per-region telemetry (stamps, conflicts,
//!   false-sharing suspects, retries) and decides per-region regrains
//!   (coarsen calm regions word → line → page, re-split on suspect
//!   spikes), applied through `CommitLog::regrain` natively and through
//!   the simulator's region-grain map in replay.
//!
//! The [`ForkModel`] type lives here (re-exported by `mutls-runtime` for
//! compatibility) so policies can choose models without a dependency
//! cycle.
//!
//! ```
//! use mutls_adaptive::{ForkDecision, ForkModel, Governor, GovernorConfig, PolicyKind, SiteOutcome};
//! use mutls_membuf::SpecFailure;
//!
//! let governor = Governor::new(GovernorConfig::with_policy(PolicyKind::Throttle));
//! // Site 1 keeps rolling back...
//! for _ in 0..8 {
//!     if let ForkDecision::Allow(model) = governor.decide(1, ForkModel::Mixed) {
//!         governor.record_fork(1);
//!         governor.record_outcome(
//!             1,
//!             &SiteOutcome::rolled_back(SpecFailure::ReadConflict, 100, 0, model),
//!         );
//!     }
//! }
//! // ...so the governor stops granting it speculative CPUs.
//! assert_eq!(governor.decide(1, ForkModel::Mixed), ForkDecision::Deny);
//! ```

#![warn(missing_docs)]

pub mod fork_model;
pub mod governor;
pub mod grain;
pub mod policy;
pub mod site;

pub use fork_model::ForkModel;
pub use governor::{Governor, SiteOutcome};
pub use grain::{GrainAction, GrainControlConfig, GrainControlStats, GrainController};
pub use policy::{
    build_policy, ForkDecision, GovernorConfig, GovernorPolicy, PolicyKind, StaticPolicy,
    ThrottlePolicy, FALSE_SHARING_DOMINANCE,
};
pub use site::{SiteId, SiteProfile, SiteProfiler, SiteRecord, SHARD_COUNT};
