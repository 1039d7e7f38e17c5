//! # MUTLS-RS — Mixed Model Universal Software Thread-Level Speculation
//!
//! Facade crate re-exporting the whole MUTLS workspace:
//!
//! * [`membuf`] — speculative memory buffering (read/write sets, local
//!   buffers, the commit log, the shared [`membuf::GlobalMemory`] arena
//!   whose allocated window bounds every speculative access).
//! * [`adaptive`] — the adaptive speculation governor: per-fork-site
//!   profiling plus the fork-throttling policy.
//! * [`runtime`] — the native TLS runtime: virtual CPUs, fork models
//!   (in-order, out-of-order, tree-form mixed), speculation, validation,
//!   commit, rollback and per-thread statistics.
//! * [`simcpu`] — a deterministic discrete-event multicore simulator used
//!   to reproduce the paper's 64-core evaluation on small hosts.
//! * [`workloads`] — the eight benchmarks of Table II, sequential and
//!   speculative.
//! * [`harness`] — experiment definitions regenerating every figure and
//!   table of the paper's evaluation section, plus the repo's own sweeps.
//!
//! See `README.md` for a quickstart, the crate map and the experiment
//! table.

pub use mutls_adaptive as adaptive;
pub use mutls_harness as harness;
pub use mutls_membuf as membuf;
pub use mutls_runtime as runtime;
pub use mutls_simcpu as simcpu;
pub use mutls_workloads as workloads;

/// Commonly used items for writing speculative programs against the native
/// runtime.
pub mod prelude {
    pub use mutls_adaptive::{ForkDecision, Governor, GovernorConfig, PolicyKind, SiteProfile};
    pub use mutls_membuf::{GPtr, GlobalMemory};
    pub use mutls_runtime::{ForkModel, Runtime, RuntimeConfig, SpecContext};
    pub use mutls_workloads::WorkloadKind;
}
