//! Differential sequential-vs-speculative oracle.
//!
//! The range-granular commit log changes *what* validation compares
//! (range versions instead of word versions), which is exactly the kind
//! of change that can corrupt results silently: a missed conflict
//! produces a wrong answer, not a crash.  This suite therefore runs
//! **every** workload in the registry speculatively and sequentially and
//! asserts the final memory states agree — across tracking grains (word,
//! cache line, page) and, for the conflict family, across true-sharing
//! rates.
//!
//! The guarantee under test is one-sided by design:
//!
//! * at every grain, speculative execution must equal the sequential
//!   reference (false sharing may roll threads back, never corrupt);
//! * at **word** grain, zero sharing must produce zero conflict
//!   rollbacks *structurally* — coarser grains are exempt, since
//!   adjacent private words may share a range.
//!
//! A proptest harness additionally fuzzes (grain, shards, CPUs, sharing
//! rate, ring depth, adaptive-grain control, seed) on a fast chain
//! kernel; CI pins `PROPTEST_CASES` low in its dedicated job, while
//! local runs default to the full case count.  A dedicated pass runs the
//! whole registry with the adaptive-grain controller enabled (live
//! regrains, conservative whole-region flushes, eager reader dooming),
//! since regraining mid-run is exactly the kind of change that could
//! corrupt state silently.

use proptest::prelude::*;

use mutls::membuf::{
    BufferConfig, CommitLogConfig, RollbackReason, DEFAULT_RING_DEPTH, LINE_GRAIN_LOG2,
    PAGE_GRAIN_LOG2, WORD_GRAIN_LOG2,
};
use mutls::runtime::{GrainControlConfig, RunReport, Runtime, RuntimeConfig};
use mutls::workloads::conflict::{self, ChainConfig, HistConfig};
use mutls::workloads::{
    arena_bytes, checksum, reference_checksum, run_speculative, setup, Scale, WorkloadKind,
};

/// The two validation precisions the recovery ladder runs at: the
/// default version rings (precise passes, time-travel retry) and depth 1,
/// the single-version reference every range hit dooms or retries under.
const RING_DEPTHS: [u32; 2] = [DEFAULT_RING_DEPTH, 1];

/// The grains the oracle sweeps.
const GRAINS: [u32; 3] = [WORD_GRAIN_LOG2, LINE_GRAIN_LOG2, PAGE_GRAIN_LOG2];

/// True-sharing rates (permille) swept for the conflict family.
const SHARING_PERMILLE: [u32; 3] = [0, 250, 1000];

/// Every workload the registry knows: the paper's Table II suite plus
/// the conflict-generating family.
fn registry() -> impl Iterator<Item = WorkloadKind> {
    WorkloadKind::ALL
        .into_iter()
        .chain(WorkloadKind::CONFLICT_FAMILY)
}

/// The speculative buffer sizes the registry-wide pass sweeps: the
/// default, and a tiny one under which nearly every child overflows — an
/// overflow storm that keeps flapping the runtime's exposure count, and
/// with it whether the non-speculative thread's stores reach the commit
/// log.
fn buffers() -> [(&'static str, BufferConfig); 2] {
    [
        ("default", BufferConfig::default()),
        ("tiny", BufferConfig::tiny()),
    ]
}

/// Run `kind` on the native runtime at the given commit-log grain and
/// speculative buffer size and return its checksum plus the run report.
fn native_at_grain(
    kind: WorkloadKind,
    grain_log2: u32,
    buffer: BufferConfig,
    cpus: usize,
) -> (u64, RunReport) {
    let runtime = Runtime::new(
        RuntimeConfig::with_cpus(cpus)
            .memory_bytes(arena_bytes(kind, Scale::Tiny))
            .commit_grain_log2(grain_log2)
            .buffer(buffer),
    );
    let memory = runtime.memory();
    let data = setup(kind, Scale::Tiny, &memory);
    let (_, report) = runtime.run(|ctx| run_speculative(ctx, &data));
    (checksum(&memory, &data), report)
}

#[test]
fn every_registry_workload_matches_sequential_at_every_grain() {
    // The runtime default is the full recovery ladder (targeted dooming +
    // time-travel retry over the version rings), so this registry-wide
    // pass exercises reader registration, surgical dooming, ring-precise
    // validation and in-place retries at every grain.
    for kind in registry() {
        let expected = reference_checksum(kind, Scale::Tiny);
        for grain_log2 in GRAINS {
            for (buffer_name, buffer) in buffers() {
                let (got, report) = native_at_grain(kind, grain_log2, buffer, 3);
                assert_eq!(
                    got,
                    expected,
                    "{} diverged from the sequential reference at grain 2^{grain_log2}B, \
                     {buffer_name} buffers ({} rollbacks: {})",
                    kind.name(),
                    report.rolled_back_threads,
                    report.rollback_breakdown()
                );
                assert_eq!(
                    report.rollbacks_with(RollbackReason::Injected),
                    0,
                    "{}: injected rollbacks without opting in",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn every_registry_workload_matches_sequential_with_the_grain_controller() {
    // The adaptive-grain control plane changes *when* regions are tracked
    // at which grain — live, mid-run, with conservative whole-region
    // flushes and eager reader dooming on every regrain.  None of that
    // may change *what* commits: the whole registry must still converge
    // to the sequential state with the controller enabled (word floor,
    // page start, aggressive tick cadence so tiny runs actually regrain).
    for kind in registry() {
        let expected = reference_checksum(kind, Scale::Tiny);
        let runtime = Runtime::new(
            RuntimeConfig::with_cpus(3)
                .memory_bytes(arena_bytes(kind, Scale::Tiny))
                .adaptive_grain()
                .grain_control(GrainControlConfig::adaptive().tick_commits(1)),
        );
        let memory = runtime.memory();
        let data = setup(kind, Scale::Tiny, &memory);
        let (_, report) = runtime.run(|ctx| run_speculative(ctx, &data));
        assert_eq!(
            checksum(&memory, &data),
            expected,
            "{} diverged under the grain controller ({} rollbacks: {}, {} regrains)",
            kind.name(),
            report.rolled_back_threads,
            report.rollback_breakdown(),
            report.commit_log.regrains
        );
        assert_eq!(
            report.rollbacks_with(RollbackReason::Injected),
            0,
            "{}: injected rollbacks without opting in",
            kind.name()
        );
    }
}

#[test]
fn conflict_family_matches_sequential_under_every_recovery_engine() {
    // Recovery-equivalence oracle: with the version rings and at the
    // single-version depth 1 the ladder must converge to the sequential
    // state at every grain — a precise pass, a doomed thread, an
    // abandoned join or an in-place retry may change *when* work is
    // discarded, never *what* commits.
    for ring_depth in RING_DEPTHS {
        for grain_log2 in GRAINS {
            let config = RuntimeConfig::with_cpus(4).commit_log(
                CommitLogConfig::default()
                    .grain_log2(grain_log2)
                    .ring_depth(ring_depth),
            );

            let chain = ChainConfig::tiny().sharing_permille(500);
            let (state_ok, report) = conflict::chain_verify_native(chain, config);
            assert!(
                state_ok,
                "conflict_chain diverged at ring depth {ring_depth}, grain 2^{grain_log2}B ({})",
                report.rollback_breakdown()
            );

            let hist = HistConfig::tiny().sharing_permille(500);
            let (state_ok, report) = conflict::hist_verify_native(hist, config);
            assert!(
                state_ok,
                "hist_shared diverged at ring depth {ring_depth}, grain 2^{grain_log2}B ({})",
                report.rollback_breakdown()
            );

            // Depth 1 keeps no rings to probe.
            if ring_depth == 1 {
                assert_eq!(report.precise_passes(), 0, "depth 1 ring-probed");
            }
        }
    }
}

#[test]
fn conflict_family_matches_sequential_across_sharing_and_grain() {
    for permille in SHARING_PERMILLE {
        for grain_log2 in GRAINS {
            let config = RuntimeConfig::with_cpus(4).commit_grain_log2(grain_log2);

            let chain = ChainConfig::tiny().sharing_permille(permille);
            let (state_ok, report) = conflict::chain_verify_native(chain, config);
            assert!(
                state_ok,
                "conflict_chain diverged at {permille}‰ sharing, grain 2^{grain_log2}B"
            );
            assert_conflict_structure("conflict_chain", &report, permille, grain_log2);

            let hist = HistConfig::tiny().sharing_permille(permille);
            let (state_ok, report) = conflict::hist_verify_native(hist, config);
            assert!(
                state_ok,
                "hist_shared diverged at {permille}‰ sharing, grain 2^{grain_log2}B"
            );
            assert_conflict_structure("hist_shared", &report, permille, grain_log2);
        }
    }
}

/// The structural assertions of the oracle: no injection ever; zero
/// sharing at word grain means zero conflict rollbacks; full sharing at
/// word grain means real conflicts were detected.
fn assert_conflict_structure(name: &str, report: &RunReport, permille: u32, grain_log2: u32) {
    assert_eq!(
        report.rollbacks_with(RollbackReason::Injected),
        0,
        "{name}: injected rollbacks without opting in"
    );
    if grain_log2 == WORD_GRAIN_LOG2 {
        if permille == 0 {
            assert_eq!(
                report.rollbacks_with(RollbackReason::Conflict),
                0,
                "{name}: conflict rollbacks with zero sharing at word grain ({})",
                report.rollback_breakdown()
            );
        }
        if permille == 1000 {
            assert!(
                report.rollbacks_with(RollbackReason::Conflict) > 0,
                "{name}: full sharing produced no conflicts at word grain ({})",
                report.rollback_breakdown()
            );
        }
    }
}

/// Fast chain kernel for the fuzzing harness: small link count and a
/// short mixing chain keep one case in the low milliseconds.
fn fast_chain(permille: u32, seed: u64) -> ChainConfig {
    ChainConfig {
        chunks: 10,
        work_per_chunk: 2_000,
        sharing_permille: permille,
        seed,
    }
}

proptest! {
    /// Randomized differential property: for arbitrary (grain, shards,
    /// CPU count, sharing rate, ring depth, seed), the speculative chain
    /// execution equals the sequential reference and nothing is ever
    /// injected.
    #[test]
    fn randomized_chain_differential(
        grain_i in 0u32..3,
        shards in (0u32..3).prop_map(|i| [1usize, 4, 16][i as usize]),
        cpus in 2usize..6,
        permille in 0u32..1001,
        ring_depth_i in 0usize..2,
        adaptive_grain in any::<bool>(),
        tick_commits in 1u64..5,
        seed in any::<u64>(),
    ) {
        let grain_log2 = GRAINS[grain_i as usize];
        let ring_depth = RING_DEPTHS[ring_depth_i];
        let chain = fast_chain(permille, seed);
        let mut runtime_config = RuntimeConfig::with_cpus(cpus).commit_log(CommitLogConfig {
            grain_log2,
            shards,
            ring_depth,
            ..CommitLogConfig::default()
        });
        if adaptive_grain {
            // Live regrains (page start over the swept floor grain, at a
            // random tick cadence) must preserve the oracle too.
            runtime_config = runtime_config
                .grain_control(GrainControlConfig::adaptive().tick_commits(tick_commits));
        }
        let (state_ok, report) = conflict::chain_verify_native(chain, runtime_config);
        prop_assert!(
            state_ok,
            "chain diverged: grain 2^{}B, {} shards, {} cpus, {}‰ sharing, ring depth {}, seed {seed:#x} ({})",
            grain_log2,
            shards,
            cpus,
            permille,
            ring_depth,
            report.rollback_breakdown()
        );
        prop_assert_eq!(report.rollbacks_with(RollbackReason::Injected), 0);
        if permille == 0 && grain_log2 == WORD_GRAIN_LOG2 && !adaptive_grain {
            // Structural only at a *static* word grain: the controller's
            // page-start regions can false-share (and conservatively
            // doom) before they re-split.
            prop_assert_eq!(report.rollbacks_with(RollbackReason::Conflict), 0);
        }
    }
}
