//! # mutls-adaptive — adaptive speculation governor for MUTLS
//!
//! MUTLS's headline idea is *mixing* forking models to fit each program's
//! speculation structure, but a static configuration still speculates
//! unconditionally — even at fork sites that always roll back.  This crate
//! adds the feedback loop:
//!
//! * [`Governor`] — the one fork-decision function `mutls-runtime`'s
//!   `ThreadManager` and `mutls-simcpu`'s scheduler consult before
//!   granting a speculative CPU, and report join outcomes back to.  It
//!   keeps one record per fork site (commits, rollbacks, buffer overflows,
//!   stall time, speculative work; [`SiteProfile`] is the snapshot) in one
//!   sorted map behind one lock.  [`PolicyKind::Static`] (the seed's
//!   unconditional behaviour) is the throttle switched off;
//!   [`PolicyKind::Throttle`] suppresses unprofitable sites, with
//!   exponential decay and probe forks so sites can re-earn speculation.
//!   Its tuning is constants: [`GovernorConfig`] names the policy and
//!   nothing else.
//! * [`GrainController`] — a per-region grain policy over commit-log
//!   telemetry, applied nowhere: a commit log has one grain, fixed at
//!   construction.  Kept only for the benchmark's grain-controller probe
//!   (ROADMAP item 2(e) deletes it).
//!
//! The [`ForkModel`] type lives here (re-exported by `mutls-runtime` for
//! compatibility) so the governor can hand out models without a dependency
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
pub use grain::{GrainAction, GrainControlConfig, GrainController};
pub use policy::{ForkDecision, GovernorConfig, PolicyKind};
pub use site::{SiteId, SiteProfile};
