//! Golden virtual results.
//!
//! The simulator's host-side data structures may change; the simulated
//! machine may not.  Every row below is hard-coded: sequential cycles,
//! parallel cycles and an FNV-1a digest of the serialized `RunReport`
//! (every counter, phase breakdown, histogram and per-site row).  md is
//! the benchmark's `sim_replay` recording; the small recordings take the
//! paths md does not — genuine conflicts, range-only hits that
//! precise-pass or overflow the ring, value-predict retries, cascading
//! rollbacks, injected rollbacks under either governor.
//!
//! The cycles were computed at the commit *before* the publish log became
//! an index (PR 16) and re-pinned once, in PR 25, when the replay stopped
//! charging commit-time CAS contention a single-committer log cannot have:
//! only the `hist50/*` rows moved, each by 8 cycles per CAS retry it used
//! to pay on the critical path.  The digests were re-pinned with them —
//! the latency report lost its `commit-cas-retry` phase, and a thread dead
//! before its join and a cascaded discard are now classified as the
//! native runtime classifies them.
//!
//! The digests were re-pinned once more, with no cycle moved, when online
//! regrain left: the serialized report lost its per-region grain list
//! and `commit_log.regrains`, and the final snapshot `log_regrains` and
//! the `grain_regions` gauges.  Each new digest is of the old JSON with
//! exactly those keys removed.
//!
//! And once more, again with no cycle moved, when the commit log dropped
//! its shards for one epoch: the report's `commit_log` lost `shards`.
//! Each new digest is of the old JSON with exactly that key removed.
//!
//! And once more, with no cycle moved and no event stream changed, when
//! the metrics registry became the only store of a lifecycle count: both
//! paths' `counters` lost `commits`, `rollbacks` and
//! `rollbacks_by_reason` (the joiner-side counts), and each site row lost
//! `grain_log2` (the commit log's grain, printed from `commit_log`).  Each
//! new report digest is of the old JSON with exactly those keys removed;
//! each final-snapshot digest is of the old snapshot with the new
//! counter `retries_in_flight` (0 in the replay) after `retries`.
//!
//! And once more, with no cycle moved and no event stream changed, when
//! the native runtime stopped adopting an unjoined child's subtree: both
//! paths' `counters` lost `adopted_threads`, and the final snapshot the
//! `adopted_threads` counter (0 in the replay, which never adopted).
//! Each new report digest is of the old JSON with exactly those keys
//! removed; each final-snapshot digest is of the old snapshot without
//! that counter.
//!
//! And once more, with no cycle, report digest or snapshot digest moved,
//! when a doom came to be issued only by a publish: the `Doom` event lost
//! its `source` (always `commit` in the replay).  Each new event-stream
//! digest is of the old stream with every `,"source":"commit"` removed.
//!
//! And once more, with no cycle and no event stream moved, when the
//! false-sharing-suspect label left (the replay never produced one): both
//! paths' `counters` lost `false_sharing_suspects` and each site row
//! `false_sharing`, and the final snapshot the `false_sharing_suspects`
//! counter.  Each new report and snapshot digest is of the old JSON with
//! exactly those keys removed.
//!
//! `OBSERVED_GOLDEN` pins what the observers see of the same machine: the
//! serialized event stream and the final metrics snapshot of a traced,
//! metrics-on replay.

use std::sync::Arc;

use mutls_adaptive::{GovernorConfig, PolicyKind};
use mutls_membuf::{CommitLogConfig, GlobalMemory};
use mutls_metrics::MetricsConfig;
use mutls_simcpu::{record_region, simulate, Recording, SimConfig};
use mutls_trace::{EventKind, PlanArm, RollbackCause, TraceEvent};
use mutls_workloads::{conflict, fft, md};

/// `(sequential_cycles, parallel_cycles, fnv1a(serialized report))`, or —
/// in `OBSERVED_GOLDEN` — the FNV-1a digests of `(event stream, event
/// stream without cascaded discards, final metrics snapshot)`.
type Golden = (u64, u64, u64);

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn digest<T: serde::Serialize + ?Sized>(value: &T) -> u64 {
    let mut json = String::new();
    value.serialize_json(&mut json);
    fnv1a(&json)
}

fn measure(recording: &Recording, config: SimConfig) -> Golden {
    let result = simulate(recording, config);
    (
        result.sequential_cycles,
        result.parallel_cycles,
        digest(&result.report),
    )
}

/// The benchmark's `sim_replay` recording: md, 256 particles × 40 steps
/// in 64 chunks.
fn md_recording() -> Recording {
    let config = md::Config {
        particles: 256,
        steps: 40,
        chunks: 64,
    };
    let memory = Arc::new(GlobalMemory::new(32 << 20));
    let data = md::setup(&memory, &config);
    record_region(memory, |ctx| md::run(ctx, data, config))
}

fn chain_recording(permille: u32) -> Recording {
    let config = conflict::ChainConfig::tiny().sharing_permille(permille);
    let memory = Arc::new(GlobalMemory::new(conflict::ARENA_BYTES));
    let data = conflict::chain_setup(&memory, &config);
    record_region(memory, |ctx| conflict::chain_run(ctx, data, config))
}

fn hist_recording(permille: u32) -> Recording {
    let config = conflict::HistConfig::tiny().sharing_permille(permille);
    let memory = Arc::new(GlobalMemory::new(conflict::ARENA_BYTES));
    let data = conflict::hist_setup(&memory, &config);
    record_region(memory, |ctx| conflict::hist_run(ctx, data, config))
}

/// Compare every row at once, so one run prints the whole table.
fn assert_golden(actual: &[(String, Golden)], golden: &[(&str, Golden)]) {
    let table: String = actual
        .iter()
        .map(|(name, (seq, par, digest))| {
            // Cycle counts read in decimal, digests in hex.
            if *seq > u64::from(u32::MAX) {
                format!("    (\"{name}\", (0x{seq:016X}, 0x{par:016X}, 0x{digest:016X})),\n")
            } else {
                format!("    (\"{name}\", ({seq}, {par}, 0x{digest:016X})),\n")
            }
        })
        .collect();
    let same = actual.len() == golden.len()
        && actual
            .iter()
            .zip(golden)
            .all(|((name, row), (golden_name, golden_row))| {
                name == golden_name && row == golden_row
            });
    assert!(same, "simulated results moved; this run computed:\n{table}");
}

/// The benchmark's `sim_replay` workload at the four CPU counts it replays.
#[test]
fn md_replay_cycles_are_pinned_at_every_benchmarked_cpu_count() {
    let recording = md_recording();
    assert_eq!(recording.task_count(), 2521);
    let actual: Vec<(String, Golden)> = [1, 4, 16, 64]
        .into_iter()
        .map(|cpus| {
            (
                format!("md/{cpus}"),
                measure(&recording, SimConfig::with_cpus(cpus)),
            )
        })
        .collect();
    assert_golden(&actual, MD_GOLDEN);
}

/// fft (tree recursion, overflow-free at this size), `conflict_chain` and
/// `hist_shared` (real dependence violations) at {word, line} grain ×
/// ring depth {4, 1}, 16 CPUs; then
/// `conflict_chain` at 50 % sharing with injected rollbacks (p = 0.3, the
/// default seed) under each governor policy — the draw after a passing
/// validation, and what the governor hears of the rollbacks it forces.
#[test]
fn conflict_and_recovery_paths_are_pinned_across_grain_and_ring() {
    let fft_recording = {
        let config = fft::Config::tiny();
        let memory = Arc::new(GlobalMemory::new(4 << 20));
        let data = fft::setup(&memory, &config);
        record_region(memory, |ctx| fft::run(ctx, data, config))
    };
    let recordings = [
        ("fft", fft_recording),
        ("chain100", chain_recording(1000)),
        ("chain50", chain_recording(500)),
        ("hist100", hist_recording(1000)),
        ("hist50", hist_recording(500)),
    ];
    let mut actual = Vec::new();
    for (name, recording) in &recordings {
        for (grain_name, grain) in [
            ("word", CommitLogConfig::word_grain()),
            ("line", CommitLogConfig::line_grain()),
        ] {
            for ring_depth in [4, 1] {
                let config = SimConfig {
                    commit_log: grain.ring_depth(ring_depth),
                    ..SimConfig::with_cpus(16)
                };
                actual.push((
                    format!("{name}/{grain_name}/ring{ring_depth}/control-off"),
                    measure(recording, config),
                ));
            }
        }
    }
    for policy in PolicyKind::ALL {
        let config = SimConfig {
            commit_log: CommitLogConfig::word_grain().ring_depth(4),
            ..SimConfig::with_cpus(16)
        }
        .rollback_probability(0.3)
        .governor(GovernorConfig::with_policy(policy));
        actual.push((
            format!("chain50/word/ring4/p0.3/{policy}"),
            measure(&recordings[2].1, config),
        ));
    }
    assert_golden(&actual, SMALL_GOLDEN);
}

/// What the flight recorder and the metrics plane see of md at 4 CPUs and
/// of the conflict family at line grain, ring depth 4, 16 CPUs.  The
/// middle digest is of the stream without its cascaded-discard
/// `Rollback { Other, None }` events: what the stream was before a cascade
/// left an event (PR 18), with PR 25's labels.
#[test]
fn event_streams_and_final_snapshots_are_pinned() {
    let observed = |config: SimConfig| SimConfig {
        trace: true,
        metrics: MetricsConfig::enabled(),
        ..config
    };
    let conflict_config = || SimConfig {
        commit_log: CommitLogConfig::line_grain().ring_depth(4),
        ..SimConfig::with_cpus(16)
    };
    let runs = [
        ("md/4", md_recording(), SimConfig::with_cpus(4)),
        ("chain100", chain_recording(1000), conflict_config()),
        ("chain50", chain_recording(500), conflict_config()),
        ("hist100", hist_recording(1000), conflict_config()),
        ("hist50", hist_recording(500), conflict_config()),
    ];
    let cascaded = EventKind::Rollback {
        reason: RollbackCause::Other,
        plan: PlanArm::None,
    };
    let actual: Vec<(String, Golden)> = runs
        .into_iter()
        .map(|(name, recording, config)| {
            let result = simulate(&recording, observed(config));
            let uncascaded: Vec<TraceEvent> = result
                .events
                .iter()
                .copied()
                .filter(|event| event.kind != cascaded)
                .collect();
            let last = result.metrics.latest().expect("final snapshot");
            (
                name.to_string(),
                (digest(&result.events), digest(&uncascaded), digest(last)),
            )
        })
        .collect();
    assert_golden(&actual, OBSERVED_GOLDEN);
}

#[rustfmt::skip]
const MD_GOLDEN: &[(&str, Golden)] = &[
    ("md/1", (120668160, 90905760, 0x992A81BE3E104C0D)),
    ("md/4", (120668160, 44073680, 0x67D7B463D807078D)),
    ("md/16", (120668160, 21646400, 0x0B66D9458ED74B7E)),
    ("md/64", (120668160, 14170640, 0xDD9D1552B0CFC2A3)),
];

#[rustfmt::skip]
const SMALL_GOLDEN: &[(&str, Golden)] = &[
    ("fft/word/ring4/control-off", (8832, 11668, 0x01E190942C63D429)),
    ("fft/word/ring1/control-off", (8832, 11668, 0x6D106423C7F551A2)),
    ("fft/line/ring4/control-off", (8832, 11496, 0x966B82A8B2B1994E)),
    ("fft/line/ring1/control-off", (8832, 11772, 0xB150F04B0C4D51E6)),
    ("chain100/word/ring4/control-off", (2672608, 2742761, 0xBA0CF57D3C1D3E63)),
    ("chain100/word/ring1/control-off", (2672608, 2742761, 0x6AF753BEED33B364)),
    ("chain100/line/ring4/control-off", (2672608, 2742761, 0x280BDDF7815FBF87)),
    ("chain100/line/ring1/control-off", (2672608, 2742761, 0x5284C9C38D5D0EDD)),
    ("chain50/word/ring4/control-off", (2672608, 577806, 0xDC13D5E13D367769)),
    ("chain50/word/ring1/control-off", (2672608, 577806, 0xD285A37165D3302A)),
    ("chain50/line/ring4/control-off", (2672608, 577778, 0x1B5B19D2B2E0E83E)),
    ("chain50/line/ring1/control-off", (2672608, 577778, 0x0BDDBEE1EDA69165)),
    ("hist100/word/ring4/control-off", (2400480, 2413358, 0x95E5278AC692F65B)),
    ("hist100/word/ring1/control-off", (2400480, 2413358, 0x27CA4C622CD7C7FC)),
    ("hist100/line/ring4/control-off", (2400480, 2414962, 0x83DE7F46B67C9CBE)),
    ("hist100/line/ring1/control-off", (2400480, 2418334, 0x10BC9F4ABC69732E)),
    ("hist50/word/ring4/control-off", (2400480, 2213196, 0x73140C757F056747)),
    ("hist50/word/ring1/control-off", (2400480, 2213196, 0x993ECE8D1E0B57D8)),
    ("hist50/line/ring4/control-off", (2400480, 2215642, 0x34B5012CCCEBBA8B)),
    ("hist50/line/ring1/control-off", (2400480, 2217160, 0x50884DA59A4EA1FA)),
    ("chain50/word/ring4/p0.3/static", (2672608, 1313224, 0x3F87CCE1ABFB98A7)),
    ("chain50/word/ring4/p0.3/throttle", (2672608, 2673425, 0xB698448C83CD2F27)),
];

#[rustfmt::skip]
const OBSERVED_GOLDEN: &[(&str, Golden)] = &[
    ("md/4", (0xD9432497307AC465, 0xD9432497307AC465, 0x6ED785599F537C7F)),
    ("chain100", (0x0E84B6DAA844365B, 0x539D715C5107EE83, 0xB2D868B061290CFD)),
    ("chain50", (0xC0027D5BDAC52D2B, 0xC0027D5BDAC52D2B, 0x8B183AEC8192BEF8)),
    ("hist100", (0xC2C5E99483F94314, 0x48C37502789555B0, 0x588F7E6CFB907842)),
    ("hist50", (0x6D8E87A809AC5AA0, 0x8FC0F946408FC384, 0xB212DBCFDD39AF6E)),
];
