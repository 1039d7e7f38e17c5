//! Uniform access to the benchmark suite: kinds, scales, descriptors
//! (Table II) and dispatch helpers used by the experiment harness.

use std::str::FromStr;
use std::sync::Arc;

use mutls_membuf::GlobalMemory;
use mutls_runtime::{DirectContext, SpecResult, TlsContext};

use crate::{bh, conflict, fft, mandelbrot, matmult, md, nqueen, threex1, tsp};

/// The eight benchmarks of the paper's Table II, plus the
/// conflict-generating family this repo adds on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// 3x+1 problem in number theory.
    ThreeXPlusOne,
    /// Mandelbrot fractal generation.
    Mandelbrot,
    /// 3D molecular dynamics simulation.
    Md,
    /// Barnes-Hut N-body simulation.
    Bh,
    /// Recursive Fast Fourier Transform.
    Fft,
    /// Block-based matrix multiplication.
    Matmult,
    /// N-queen problem.
    Nqueen,
    /// Travelling salesperson problem.
    Tsp,
    /// Value chain with a tunable true-sharing rate (repo extension).
    ConflictChain,
    /// Shared histogram with a tunable true-sharing rate (repo extension).
    HistShared,
}

impl WorkloadKind {
    /// All benchmarks in the paper's presentation order.
    pub const ALL: [WorkloadKind; 8] = [
        WorkloadKind::ThreeXPlusOne,
        WorkloadKind::Mandelbrot,
        WorkloadKind::Md,
        WorkloadKind::Bh,
        WorkloadKind::Fft,
        WorkloadKind::Matmult,
        WorkloadKind::Nqueen,
        WorkloadKind::Tsp,
    ];

    /// The three computation-intensive benchmarks (figure 3).
    pub const COMPUTATION_INTENSIVE: [WorkloadKind; 3] = [
        WorkloadKind::ThreeXPlusOne,
        WorkloadKind::Mandelbrot,
        WorkloadKind::Md,
    ];

    /// The five memory-intensive benchmarks (figure 4).
    pub const MEMORY_INTENSIVE: [WorkloadKind; 5] = [
        WorkloadKind::Fft,
        WorkloadKind::Matmult,
        WorkloadKind::Nqueen,
        WorkloadKind::Tsp,
        WorkloadKind::Bh,
    ];

    /// The tree-form recursion benchmarks used in the forking-model
    /// comparison (figure 10).
    pub const TREE_RECURSION: [WorkloadKind; 4] = [
        WorkloadKind::Fft,
        WorkloadKind::Matmult,
        WorkloadKind::Nqueen,
        WorkloadKind::Tsp,
    ];

    /// The conflict-generating family (repo extension): workloads with a
    /// tunable true-sharing rate that produce *real* cross-thread
    /// dependence violations, used to validate the governor without
    /// injected rollbacks.
    pub const CONFLICT_FAMILY: [WorkloadKind; 2] =
        [WorkloadKind::ConflictChain, WorkloadKind::HistShared];

    /// Short name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::ThreeXPlusOne => "3x+1",
            WorkloadKind::Mandelbrot => "mandelbrot",
            WorkloadKind::Md => "md",
            WorkloadKind::Bh => "bh",
            WorkloadKind::Fft => "fft",
            WorkloadKind::Matmult => "matmult",
            WorkloadKind::Nqueen => "nqueen",
            WorkloadKind::Tsp => "tsp",
            WorkloadKind::ConflictChain => "conflict_chain",
            WorkloadKind::HistShared => "hist_shared",
        }
    }
}

impl FromStr for WorkloadKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "3x+1" | "3xp1" | "threex1" | "collatz" => Ok(WorkloadKind::ThreeXPlusOne),
            "mandelbrot" => Ok(WorkloadKind::Mandelbrot),
            "md" => Ok(WorkloadKind::Md),
            "bh" | "barnes-hut" => Ok(WorkloadKind::Bh),
            "fft" => Ok(WorkloadKind::Fft),
            "matmult" | "matmul" => Ok(WorkloadKind::Matmult),
            "nqueen" | "nqueens" => Ok(WorkloadKind::Nqueen),
            "tsp" => Ok(WorkloadKind::Tsp),
            "conflict_chain" | "conflict-chain" | "conflictchain" => {
                Ok(WorkloadKind::ConflictChain)
            }
            "hist_shared" | "hist-shared" | "histshared" => Ok(WorkloadKind::HistShared),
            other => Err(format!("unknown workload: {other}")),
        }
    }
}

/// Computation- vs. memory-intensive classification (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadClass {
    /// High computation density (few memory accesses per unit of work).
    ComputationIntensive,
    /// High memory-access density.
    MemoryIntensive,
}

/// Table II row for one benchmark.
#[derive(Debug, Clone)]
pub struct WorkloadDescriptor {
    /// Benchmark name.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Amount of data at paper scale.
    pub amount_of_data: &'static str,
    /// Parallelism pattern.
    pub pattern: &'static str,
    /// Source language(s) in the paper.
    pub language: &'static str,
    /// Computation- or memory-intensive.
    pub class: WorkloadClass,
}

/// The Table II descriptor of a benchmark.
pub fn descriptor(kind: WorkloadKind) -> WorkloadDescriptor {
    match kind {
        WorkloadKind::ThreeXPlusOne => WorkloadDescriptor {
            name: "3x+1",
            description: "3x+1 problem in number theory",
            amount_of_data: "40M integers (enumerate)",
            pattern: "loop",
            language: "C/Fortran",
            class: WorkloadClass::ComputationIntensive,
        },
        WorkloadKind::Mandelbrot => WorkloadDescriptor {
            name: "mandelbrot",
            description: "mandelbrot fractal generation",
            amount_of_data: "512x512 image, maximum 80000 iterations",
            pattern: "loop",
            language: "C/Fortran",
            class: WorkloadClass::ComputationIntensive,
        },
        WorkloadKind::Md => WorkloadDescriptor {
            name: "md",
            description: "3D molecular dynamics simulation",
            amount_of_data: "256 particles, 400 iteration steps",
            pattern: "loop",
            language: "C/Fortran",
            class: WorkloadClass::ComputationIntensive,
        },
        WorkloadKind::Bh => WorkloadDescriptor {
            name: "bh",
            description: "Barnes-Hut N-body simulation",
            amount_of_data: "12800 bodies",
            pattern: "loop",
            language: "C++",
            class: WorkloadClass::MemoryIntensive,
        },
        WorkloadKind::Fft => WorkloadDescriptor {
            name: "fft",
            description: "recursive Fast Fourier Transform",
            amount_of_data: "2^20 doubles",
            pattern: "divide and conquer",
            language: "C",
            class: WorkloadClass::MemoryIntensive,
        },
        WorkloadKind::Matmult => WorkloadDescriptor {
            name: "matmult",
            description: "block-based matrix multiplication",
            amount_of_data: "1024x1024 matrices",
            pattern: "divide and conquer",
            language: "C",
            class: WorkloadClass::MemoryIntensive,
        },
        WorkloadKind::Nqueen => WorkloadDescriptor {
            name: "nqueen",
            description: "N-queen problem",
            amount_of_data: "14 queens",
            pattern: "depth-first search",
            language: "C",
            class: WorkloadClass::MemoryIntensive,
        },
        WorkloadKind::Tsp => WorkloadDescriptor {
            name: "tsp",
            description: "travelling sales person (TSP) problem",
            amount_of_data: "12 cities",
            pattern: "depth-first search",
            language: "C",
            class: WorkloadClass::MemoryIntensive,
        },
        WorkloadKind::ConflictChain => WorkloadDescriptor {
            name: "conflict_chain",
            description: "value chain with tunable true sharing (repo extension)",
            amount_of_data: "64 links, 50% shared",
            pattern: "loop (loop-carried dependence)",
            language: "Rust",
            class: WorkloadClass::MemoryIntensive,
        },
        WorkloadKind::HistShared => WorkloadDescriptor {
            name: "hist_shared",
            description: "shared histogram with tunable true sharing (repo extension)",
            amount_of_data: "4096 items, 16 shared bins",
            pattern: "loop (read-modify-write races)",
            language: "Rust",
            class: WorkloadClass::MemoryIntensive,
        },
    }
}

/// Human-readable label of a workload fork-site ID (the `point` passed to
/// `TlsContext::fork`), for per-site governor profile tables.
pub fn site_label(site: u32) -> Option<&'static str> {
    match site {
        threex1::SITE_CHUNK => Some("3x+1/chunk"),
        mandelbrot::SITE_CHUNK => Some("mandelbrot/chunk"),
        md::SITE_FORCE_CHUNK => Some("md/force-chunk"),
        bh::SITE_FORCE_CHUNK => Some("bh/force-chunk"),
        fft::SITE_SPLIT => Some("fft/split"),
        matmult::SITE_QUADRANT => Some("matmult/quadrant"),
        matmult::SITE_PARTIAL => Some("matmult/partial"),
        nqueen::SITE_COLUMN => Some("nqueen/column"),
        tsp::SITE_SECOND_CITY => Some("tsp/second-city"),
        conflict::SITE_CHAIN => Some("conflict_chain/link"),
        conflict::SITE_HIST_CHUNK => Some("hist_shared/chunk"),
        _ => None,
    }
}

/// Problem-size presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Minimal sizes for unit tests.
    Tiny,
    /// Sizes suitable for simulation sweeps and native runs on small
    /// machines (the default of the experiment harness).
    #[default]
    Scaled,
    /// The paper's original problem sizes.
    Paper,
}

/// Arena-resident data of a configured benchmark instance.
pub enum WorkloadData {
    /// 3x+1 data.
    ThreeXPlusOne(threex1::Data, threex1::Config),
    /// Mandelbrot data.
    Mandelbrot(mandelbrot::Data, mandelbrot::Config),
    /// Molecular-dynamics data.
    Md(md::Data, md::Config),
    /// Barnes-Hut data.
    Bh(bh::Data, bh::Config),
    /// FFT data.
    Fft(fft::Data, fft::Config),
    /// Matrix-multiplication data.
    Matmult(matmult::Data, matmult::Config),
    /// N-queens data.
    Nqueen(nqueen::Data, nqueen::Config),
    /// TSP data.
    Tsp(tsp::Data, tsp::Config),
    /// Conflict-chain data.
    ConflictChain(conflict::ChainData, conflict::ChainConfig),
    /// Shared-histogram data.
    HistShared(conflict::HistData, conflict::HistConfig),
}

/// Recommended arena size (bytes) for a benchmark at a scale.
pub fn arena_bytes(kind: WorkloadKind, scale: Scale) -> u64 {
    match (kind, scale) {
        (WorkloadKind::Fft, Scale::Paper) => 256 << 20,
        (WorkloadKind::Matmult, Scale::Paper) => 128 << 20,
        (WorkloadKind::Bh, Scale::Paper) => 64 << 20,
        (WorkloadKind::ConflictChain | WorkloadKind::HistShared, _) => conflict::ARENA_BYTES,
        (_, Scale::Paper) => 32 << 20,
        (_, Scale::Scaled) => 16 << 20,
        (_, Scale::Tiny) => 4 << 20,
    }
}

/// Allocate and initialize a benchmark instance in `memory`.
pub fn setup(kind: WorkloadKind, scale: Scale, memory: &GlobalMemory) -> WorkloadData {
    setup_shared(kind, scale, None, memory)
}

/// [`setup`] with the conflict family's true-sharing rate set explicitly
/// (permille; `None` keeps the scale's preset).
///
/// # Panics
/// Panics if a rate is given for a workload without the knob.
pub fn setup_shared(
    kind: WorkloadKind,
    scale: Scale,
    sharing_permille: Option<u32>,
    memory: &GlobalMemory,
) -> WorkloadData {
    assert!(
        sharing_permille.is_none() || WorkloadKind::CONFLICT_FAMILY.contains(&kind),
        "{} has no sharing knob",
        kind.name()
    );
    match kind {
        WorkloadKind::ThreeXPlusOne => {
            let config = match scale {
                Scale::Tiny => threex1::Config::tiny(),
                Scale::Scaled => threex1::Config::scaled(),
                Scale::Paper => threex1::Config::paper(),
            };
            WorkloadData::ThreeXPlusOne(threex1::setup(memory, &config), config)
        }
        WorkloadKind::Mandelbrot => {
            let config = match scale {
                Scale::Tiny => mandelbrot::Config::tiny(),
                Scale::Scaled => mandelbrot::Config::scaled(),
                Scale::Paper => mandelbrot::Config::paper(),
            };
            WorkloadData::Mandelbrot(mandelbrot::setup(memory, &config), config)
        }
        WorkloadKind::Md => {
            let config = match scale {
                Scale::Tiny => md::Config::tiny(),
                Scale::Scaled => md::Config::scaled(),
                Scale::Paper => md::Config::paper(),
            };
            WorkloadData::Md(md::setup(memory, &config), config)
        }
        WorkloadKind::Bh => {
            let config = match scale {
                Scale::Tiny => bh::Config::tiny(),
                Scale::Scaled => bh::Config::scaled(),
                Scale::Paper => bh::Config::paper(),
            };
            WorkloadData::Bh(bh::setup(memory, &config), config)
        }
        WorkloadKind::Fft => {
            let config = match scale {
                Scale::Tiny => fft::Config::tiny(),
                Scale::Scaled => fft::Config::scaled(),
                Scale::Paper => fft::Config::paper(),
            };
            WorkloadData::Fft(fft::setup(memory, &config), config)
        }
        WorkloadKind::Matmult => {
            let config = match scale {
                Scale::Tiny => matmult::Config::tiny(),
                Scale::Scaled => matmult::Config::scaled(),
                Scale::Paper => matmult::Config::paper(),
            };
            WorkloadData::Matmult(matmult::setup(memory, &config), config)
        }
        WorkloadKind::Nqueen => {
            let config = match scale {
                Scale::Tiny => nqueen::Config::tiny(),
                Scale::Scaled => nqueen::Config::scaled(),
                Scale::Paper => nqueen::Config::paper(),
            };
            WorkloadData::Nqueen(nqueen::setup(memory, &config), config)
        }
        WorkloadKind::Tsp => {
            let config = match scale {
                Scale::Tiny => tsp::Config::tiny(),
                Scale::Scaled => tsp::Config::scaled(),
                Scale::Paper => tsp::Config::paper(),
            };
            WorkloadData::Tsp(tsp::setup(memory, &config), config)
        }
        WorkloadKind::ConflictChain => {
            let mut config = conflict::ChainConfig::for_scale(scale);
            if let Some(permille) = sharing_permille {
                config = config.sharing_permille(permille);
            }
            WorkloadData::ConflictChain(conflict::chain_setup(memory, &config), config)
        }
        WorkloadKind::HistShared => {
            let mut config = conflict::HistConfig::for_scale(scale);
            if let Some(permille) = sharing_permille {
                config = config.sharing_permille(permille);
            }
            WorkloadData::HistShared(conflict::hist_setup(memory, &config), config)
        }
    }
}

/// Run the speculative version of a benchmark instance in `ctx`.
pub fn run_speculative<C: TlsContext>(ctx: &mut C, data: &WorkloadData) -> SpecResult<()> {
    match data {
        WorkloadData::ThreeXPlusOne(d, c) => threex1::run(ctx, *d, *c),
        WorkloadData::Mandelbrot(d, c) => mandelbrot::run(ctx, *d, *c),
        WorkloadData::Md(d, c) => md::run(ctx, *d, *c),
        WorkloadData::Bh(d, c) => bh::run(ctx, *d, *c),
        WorkloadData::Fft(d, c) => fft::run(ctx, *d, *c),
        WorkloadData::Matmult(d, c) => matmult::run(ctx, *d, *c),
        WorkloadData::Nqueen(d, c) => nqueen::run(ctx, *d, *c),
        WorkloadData::Tsp(d, c) => tsp::run(ctx, *d, *c),
        WorkloadData::ConflictChain(d, c) => conflict::chain_run(ctx, *d, *c),
        WorkloadData::HistShared(d, c) => conflict::hist_run(ctx, *d, *c),
    }
}

/// Extract the benchmark's result checksum from `memory`.
pub fn checksum(memory: &GlobalMemory, data: &WorkloadData) -> u64 {
    match data {
        WorkloadData::ThreeXPlusOne(d, c) => threex1::result(memory, d, c),
        WorkloadData::Mandelbrot(d, c) => mandelbrot::result(memory, d, c),
        WorkloadData::Md(d, c) => md::result(memory, d, c),
        WorkloadData::Bh(d, c) => bh::result(memory, d, c),
        WorkloadData::Fft(d, c) => fft::result(memory, d, c),
        WorkloadData::Matmult(d, c) => matmult::result(memory, d, c),
        WorkloadData::Nqueen(d, c) => nqueen::result(memory, d, c),
        WorkloadData::Tsp(d, c) => tsp::result(memory, d, c),
        WorkloadData::ConflictChain(d, c) => conflict::chain_result(memory, d, c),
        WorkloadData::HistShared(d, c) => conflict::hist_result(memory, d, c),
    }
}

/// Sequential baseline: run the benchmark through a [`DirectContext`]
/// (no speculation) in a fresh arena and return its result checksum.
pub fn reference_checksum(kind: WorkloadKind, scale: Scale) -> u64 {
    reference_checksum_shared(kind, scale, None)
}

/// [`reference_checksum`] at an explicit sharing rate (see
/// [`setup_shared`]).
pub fn reference_checksum_shared(
    kind: WorkloadKind,
    scale: Scale,
    sharing_permille: Option<u32>,
) -> u64 {
    let memory = Arc::new(GlobalMemory::new(arena_bytes(kind, scale)));
    let data = setup_shared(kind, scale, sharing_permille, &memory);
    let mut ctx = DirectContext::new(Arc::clone(&memory));
    run_speculative(&mut ctx, &data).expect("sequential baseline cannot abort");
    checksum(&memory, &data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_back() {
        for kind in WorkloadKind::ALL
            .iter()
            .chain(&WorkloadKind::CONFLICT_FAMILY)
        {
            assert_eq!(kind.name().parse::<WorkloadKind>().unwrap(), *kind);
        }
        assert!("nope".parse::<WorkloadKind>().is_err());
    }

    #[test]
    fn conflict_family_is_registered_end_to_end() {
        for kind in WorkloadKind::CONFLICT_FAMILY {
            let a = reference_checksum(kind, Scale::Tiny);
            let b = reference_checksum(kind, Scale::Tiny);
            assert_eq!(a, b, "{} not deterministic", kind.name());
            // The sharing rate changes the dataflow, hence the result.
            assert_ne!(
                reference_checksum_shared(kind, Scale::Tiny, Some(0)),
                reference_checksum_shared(kind, Scale::Tiny, Some(1000)),
                "{}: the sharing rate never reached the kernel",
                kind.name()
            );
            assert_eq!(descriptor(kind).class, WorkloadClass::MemoryIntensive);
        }
        assert!(site_label(crate::conflict::SITE_CHAIN)
            .unwrap()
            .contains("conflict_chain"));
        assert!(site_label(crate::conflict::SITE_HIST_CHUNK)
            .unwrap()
            .contains("hist_shared"));
    }

    #[test]
    fn classification_matches_table_two() {
        for kind in WorkloadKind::COMPUTATION_INTENSIVE {
            assert_eq!(descriptor(kind).class, WorkloadClass::ComputationIntensive);
        }
        for kind in WorkloadKind::MEMORY_INTENSIVE {
            assert_eq!(descriptor(kind).class, WorkloadClass::MemoryIntensive);
        }
    }

    #[test]
    fn every_workload_runs_at_tiny_scale_and_is_deterministic() {
        for kind in WorkloadKind::ALL {
            let a = reference_checksum(kind, Scale::Tiny);
            let b = reference_checksum(kind, Scale::Tiny);
            assert_eq!(a, b, "{} not deterministic", kind.name());
        }
    }

    #[test]
    fn descriptors_have_paper_data_sizes() {
        assert!(descriptor(WorkloadKind::Fft)
            .amount_of_data
            .contains("2^20"));
        assert!(descriptor(WorkloadKind::Nqueen)
            .amount_of_data
            .contains("14"));
        assert_eq!(WorkloadKind::ALL.len(), 8);
    }
}
