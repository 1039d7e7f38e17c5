//! The five workloads and the kernels behind them.
//!
//! A [`Kernel`] is one `mutls-workloads` benchmark at one size: its
//! arena, `setup`, generic `run` and `result` checksum.  Sizes are fixed
//! here so one measured op is 1–2 s on the reference 2-core box; the
//! number of repetitions follows from `--seconds`.

use mutls_membuf::GlobalMemory;
use mutls_runtime::{SpecResult, TlsContext};
use mutls_workloads::{conflict, fft, md, threex1};

pub trait Kernel: Copy + Send + Sync + 'static {
    type Data: Copy + Send + Sync + 'static;
    fn arena_bytes(&self) -> u64;
    fn setup(&self, memory: &GlobalMemory) -> Self::Data;
    fn run<C: TlsContext>(&self, ctx: &mut C, data: Self::Data) -> SpecResult<()>;
    fn result(&self, memory: &GlobalMemory, data: &Self::Data) -> u64;
}

macro_rules! kernel {
    ($name:ident, $config:ty, $data:ty, $setup:path, $run:path, $result:path) => {
        #[derive(Debug, Clone, Copy)]
        pub struct $name {
            pub config: $config,
            pub arena: u64,
        }

        impl Kernel for $name {
            type Data = $data;

            fn arena_bytes(&self) -> u64 {
                self.arena
            }

            fn setup(&self, memory: &GlobalMemory) -> $data {
                $setup(memory, &self.config)
            }

            fn run<C: TlsContext>(&self, ctx: &mut C, data: $data) -> SpecResult<()> {
                $run(ctx, data, self.config)
            }

            fn result(&self, memory: &GlobalMemory, data: &$data) -> u64 {
                $result(memory, data, &self.config)
            }
        }
    };
}

kernel!(
    ThreeX1,
    threex1::Config,
    threex1::Data,
    threex1::setup,
    threex1::run,
    threex1::result
);
kernel!(Md, md::Config, md::Data, md::setup, md::run, md::result);
kernel!(
    Fft,
    fft::Config,
    fft::Data,
    fft::setup,
    fft::run,
    fft::result
);
kernel!(
    Hist,
    conflict::HistConfig,
    conflict::HistData,
    conflict::hist_setup,
    conflict::hist_run,
    conflict::hist_result
);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ComputeLoop,
    DenseReads,
    TreeWrites,
    ConflictMix,
    SimReplay,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ComputeLoop,
        Workload::DenseReads,
        Workload::TreeWrites,
        Workload::ConflictMix,
        Workload::SimReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ComputeLoop => "compute_loop",
            Workload::DenseReads => "dense_reads",
            Workload::TreeWrites => "tree_writes",
            Workload::ConflictMix => "conflict_mix",
            Workload::SimReplay => "sim_replay",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `compute_loop`: 0 buffered loads, 64 stores — bypasses membuf.
pub fn compute_loop(quick: bool) -> ThreeX1 {
    ThreeX1 {
        config: threex1::Config {
            n: if quick { 100_000 } else { 5_000_000 },
            chunks: 64,
        },
        arena: 16 << 20,
    }
}

/// `dense_reads` (300 steps, ~58 M speculative loads) and `sim_replay`
/// (40 steps, ~8 M recorded memory ops) share the md kernel.
pub fn md_steps(steps: usize, quick: bool) -> Md {
    Md {
        config: md::Config {
            particles: if quick { 64 } else { 256 },
            steps: if quick { steps.div_ceil(20) } else { steps },
            chunks: if quick { 16 } else { 64 },
        },
        arena: 32 << 20,
    }
}

/// `tree_writes`: ~19 M direct loads and stores at rank 0; every
/// speculative child overflows.
pub fn tree_writes(quick: bool) -> Fft {
    Fft {
        config: fft::Config {
            n: if quick { 1 << 12 } else { 1 << 18 },
            fork_threshold: if quick { 1 << 7 } else { 1 << 12 },
        },
        arena: if quick { 8 << 20 } else { 128 << 20 },
    }
}

/// `conflict_mix`: the only kernel with a seed; every other workload is
/// fixed-input by construction.
pub fn conflict_mix(seed: u64, quick: bool) -> Hist {
    Hist {
        config: conflict::HistConfig {
            items: if quick { 1 << 16 } else { 1 << 24 },
            chunks: 64,
            shared_bins: 16,
            private_bins: 16,
            sharing_permille: 500,
            work_per_item: 200,
            seed,
        },
        arena: conflict::ARENA_BYTES,
    }
}
