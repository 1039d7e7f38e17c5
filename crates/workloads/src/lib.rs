//! # mutls-workloads — the benchmark suite of MUTLS Table II
//!
//! Eight benchmarks, each written once against
//! [`TlsContext`](mutls_runtime::TlsContext) so the same code drives:
//!
//! * the **sequential baseline** (through
//!   [`DirectContext`](mutls_runtime::DirectContext) — no speculation),
//! * the **native threaded runtime** (`mutls-runtime`), and
//! * the **multicore simulator** (`mutls-simcpu`) used to regenerate the
//!   paper's figures.
//!
//! | Benchmark | Pattern | Class |
//! |-----------|---------|-------|
//! | 3x+1        | loop               | computation intensive |
//! | mandelbrot  | loop               | computation intensive |
//! | md          | loop               | computation intensive |
//! | bh          | loop               | memory intensive      |
//! | fft         | divide and conquer | memory intensive      |
//! | matmult     | divide and conquer | memory intensive      |
//! | nqueen      | depth-first search | memory intensive      |
//! | tsp         | depth-first search | memory intensive      |
//!
//! The loop benchmarks speculate on the loop continuation (chunk chains);
//! the divide-and-conquer and DFS benchmarks speculate on the second
//! recursive call / the remaining choices — the tree-form recursion the
//! mixed forking model targets.
//!
//! Beyond Table II, the [`conflict`] module adds a *conflict-generating*
//! family (`conflict_chain`, `hist_shared`) with a tunable true-sharing
//! rate, used to exercise the runtime's real dependence validation instead
//! of injected rollbacks.

#![warn(missing_docs)]

pub mod bh;
pub mod conflict;
pub mod fft;
pub mod mandelbrot;
pub mod matmult;
pub mod md;
pub mod nqueen;
pub mod registry;
pub mod threex1;
pub mod tsp;

pub use registry::{
    arena_bytes, checksum, descriptor, reference_checksum, reference_checksum_shared,
    run_speculative, setup, setup_shared, site_label, Scale, WorkloadClass, WorkloadData,
    WorkloadDescriptor, WorkloadKind,
};
