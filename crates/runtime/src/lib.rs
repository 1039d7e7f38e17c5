//! # mutls-runtime — the MUTLS software-TLS runtime
//!
//! Native implementation of the MUTLS thread-level-speculation runtime
//! (Cao & Verbrugge, ICPP 2013): virtual CPUs served by a pool of worker
//! threads, programmer-directed fork/join/barrier points, speculative
//! memory buffering with validation and commit/rollback, early
//! synchronization of a running child by the non-speculative thread, the
//! three forking models (in-order, out-of-order and tree-form mixed),
//! per-thread phase statistics and rollback injection for sensitivity
//! experiments.
//!
//! The typical entry point is [`Runtime`]:
//!
//! ```
//! use mutls_runtime::{task, JoinOutcome, Runtime, RuntimeConfig, SpecContext, TlsContext};
//!
//! let rt = Runtime::new(RuntimeConfig::with_cpus(2).memory_bytes(1 << 16));
//! let cells = rt.alloc::<i64>(2);
//! let (_, report) = rt.run(|ctx| {
//!     // Speculate on the continuation that fills cells[1]...
//!     let continuation = task(move |ctx: &mut SpecContext| {
//!         ctx.store(&cells, 1, 41)?;
//!         ctx.barrier()
//!     });
//!     let handle = ctx.fork(0, continuation)?;
//!     // ...while the parent fills cells[0].
//!     ctx.store(&cells, 0, 1)?;
//!     let outcome = ctx.join(handle)?;
//!     assert!(matches!(outcome, JoinOutcome::Committed | JoinOutcome::NotSpeculated));
//!     Ok(())
//! });
//! assert_eq!(rt.memory().get(&cells, 0) + rt.memory().get(&cells, 1), 42);
//! assert_eq!(report.rolled_back_threads, 0);
//! ```
//!
//! Workload code is written against the [`TlsContext`] trait so that the
//! same source drives both this native runtime and the discrete-event
//! multicore simulator in `mutls-simcpu`.

#![warn(missing_docs)]

pub mod config;
pub mod context;
pub mod direct;
pub mod ledger;
pub mod manager;
pub mod protocol;
pub mod runtime;
pub mod stats;
pub mod task;

// The forking models and the adaptive speculation governor live in
// `mutls-adaptive` (so policies can choose models without a dependency
// cycle); re-export them under the historical paths.
pub use mutls_adaptive::fork_model;

pub use config::RuntimeConfig;
pub use context::{SpecContext, SpecHandle};
pub use direct::DirectContext;
pub use fork_model::ForkModel;
pub use manager::{CommitKind, SpecOutcome, ThreadManager};
pub use runtime::Runtime;
pub use stats::{Phase, RunReport, ThreadCounters, ThreadStats};
pub use task::{
    failure, task, JoinOutcome, Rank, SpecAbort, SpecResult, TaskRef, TaskStatus, TlsContext, Word,
};

// Re-export the adaptive governor layer for downstream convenience.
pub use mutls_adaptive as adaptive;
pub use mutls_adaptive::{
    ForkDecision, Governor, GovernorConfig, PolicyKind, SiteId, SiteOutcome, SiteProfile,
};

// Re-export the buffering layer for downstream convenience.
pub use mutls_membuf as membuf;
pub use mutls_membuf::{Addr, CommitLog, GPtr, GlobalMemory, RollbackReason, SpecFailure};

// Re-export the flight recorder so harnesses can configure tracing and
// consume drained events without naming the leaf crate.
pub use mutls_metrics as metrics;
pub use mutls_metrics::{MetricsConfig, MetricsSeries, MetricsSnapshot};
pub use mutls_trace as trace;
pub use mutls_trace::{
    DenyPolicy, EventKind, LatencyPhase, LatencyReport, LatencyRow, PlanArm, Recorder,
    RollbackCause, TraceConfig, TraceEvent, ValidateOutcome,
};
