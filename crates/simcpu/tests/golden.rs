//! Golden virtual results.
//!
//! The simulator's host-side data structures may change; the simulated
//! machine may not.  Every row below was computed at the commit *before*
//! the publish log became an index (PR 16) and is hard-coded: sequential
//! cycles, parallel cycles and an FNV-1a digest of the serialized
//! `RunReport` (every counter, phase breakdown, histogram and per-site
//! row).  md is the benchmark's `sim_replay` recording; the small
//! recordings take the paths md does not — genuine conflicts, range-only
//! hits that precise-pass or overflow the ring, value-predict retries,
//! regrains, cascading rollbacks.
//!
//! `OBSERVED_GOLDEN` pins what the observers see of the same machine: the
//! serialized event stream and the final metrics snapshot of a traced,
//! metrics-on replay.

use std::sync::Arc;

use mutls_adaptive::GrainControlConfig;
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
/// ring depth {4, 1} × grain control {off, on}, 16 CPUs.
#[test]
fn conflict_and_recovery_paths_are_pinned_across_grain_ring_and_control() {
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
                for (control_name, grain_control) in [
                    ("off", GrainControlConfig::default()),
                    ("on", GrainControlConfig::adaptive()),
                ] {
                    let config = SimConfig {
                        commit_log: grain.ring_depth(ring_depth),
                        grain_control,
                        ..SimConfig::with_cpus(16)
                    };
                    actual.push((
                        format!("{name}/{grain_name}/ring{ring_depth}/control-{control_name}"),
                        measure(recording, config),
                    ));
                }
            }
        }
    }
    assert_golden(&actual, SMALL_GOLDEN);
}

/// What the flight recorder and the metrics plane see of md at 4 CPUs and
/// of the conflict family at line grain, ring depth 4, 16 CPUs.  The
/// middle digest is of the stream without its cascaded-discard
/// `Rollback { Other, None }` events and was computed at the commit before
/// lifecycle points went through one ledger — when a cascade left no event
/// at all and that stream was the whole stream: nothing else may move.
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
    ("md/1", (120668160, 90905760, 0x80D845496E67722E)),
    ("md/4", (120668160, 44073680, 0x7A458C1B2897D823)),
    ("md/16", (120668160, 21646400, 0x851CBBA3335EA11A)),
    ("md/64", (120668160, 14170640, 0xA2D6363F575F686E)),
];

#[rustfmt::skip]
const SMALL_GOLDEN: &[(&str, Golden)] = &[
    ("fft/word/ring4/control-off", (8832, 11668, 0x91CEE9765DFB09FB)),
    ("fft/word/ring4/control-on", (8832, 11660, 0xF0917586545A29D8)),
    ("fft/word/ring1/control-off", (8832, 11668, 0xE723E1549DDDDCF0)),
    ("fft/word/ring1/control-on", (8832, 11786, 0xCA59D9255BF68650)),
    ("fft/line/ring4/control-off", (8832, 11496, 0xF5E1D593874C2BE2)),
    ("fft/line/ring4/control-on", (8832, 11660, 0xD03B2DF94B644603)),
    ("fft/line/ring1/control-off", (8832, 11772, 0xFA4FE8D27B4B91F2)),
    ("fft/line/ring1/control-on", (8832, 11786, 0x4F472EB9DDE5F15D)),
    ("chain100/word/ring4/control-off", (2672608, 2742761, 0x0E6425CB20D81740)),
    ("chain100/word/ring4/control-on", (2672608, 2743785, 0xBD0AB39B8BE97EE6)),
    ("chain100/word/ring1/control-off", (2672608, 2742761, 0xCFFAC60332A8C6EF)),
    ("chain100/word/ring1/control-on", (2672608, 2743785, 0x6A5B0494C6F22105)),
    ("chain100/line/ring4/control-off", (2672608, 2742761, 0x067B0D0BB59F86CA)),
    ("chain100/line/ring4/control-on", (2672608, 2742825, 0x218433F916D117DB)),
    ("chain100/line/ring1/control-off", (2672608, 2742761, 0x9CFE17BA38293FC2)),
    ("chain100/line/ring1/control-on", (2672608, 2742825, 0xCB8B9F1A1DE97B26)),
    ("chain50/word/ring4/control-off", (2672608, 577806, 0x439DA1A786E04E97)),
    ("chain50/word/ring4/control-on", (2672608, 578348, 0xB5BD241F5DFC0BD1)),
    ("chain50/word/ring1/control-off", (2672608, 577806, 0xD9935E08BBFCC4F8)),
    ("chain50/word/ring1/control-on", (2672608, 578311, 0x98ED71D17A31B5CE)),
    ("chain50/line/ring4/control-off", (2672608, 577778, 0xCDDCA920D0C3C970)),
    ("chain50/line/ring4/control-on", (2672608, 577900, 0x2B9C1B56385F875F)),
    ("chain50/line/ring1/control-off", (2672608, 577778, 0xA758E655D066D8AB)),
    ("chain50/line/ring1/control-on", (2672608, 577863, 0x162C31BA0B4AA528)),
    ("hist100/word/ring4/control-off", (2400480, 2413358, 0x2F9BA696485F3DE9)),
    ("hist100/word/ring4/control-on", (2400480, 2414420, 0x2F42B74428244CEC)),
    ("hist100/word/ring1/control-off", (2400480, 2413358, 0xF5AF7A740F019432)),
    ("hist100/word/ring1/control-on", (2400480, 2415582, 0xC1CA5F21E915A632)),
    ("hist100/line/ring4/control-off", (2400480, 2414962, 0x15DE3B58CECC7D00)),
    ("hist100/line/ring4/control-on", (2400480, 2415056, 0xEFBA1C3EA03DA2EC)),
    ("hist100/line/ring1/control-off", (2400480, 2418334, 0xE3A2B89FEBCA4542)),
    ("hist100/line/ring1/control-on", (2400480, 2418334, 0x025C155934D31DE3)),
    ("hist50/word/ring4/control-off", (2400480, 2213340, 0x3BA86E1FD02C0819)),
    ("hist50/word/ring4/control-on", (2400480, 2214040, 0x66FE77B0E7341B0F)),
    ("hist50/word/ring1/control-off", (2400480, 2213340, 0x729267315DC01DF0)),
    ("hist50/word/ring1/control-on", (2400480, 2214050, 0x9528A7C24C5042A2)),
    ("hist50/line/ring4/control-off", (2400480, 2215866, 0xDAE47351FF511797)),
    ("hist50/line/ring4/control-on", (2400480, 2215890, 0xDDC4ECA5189EBE27)),
    ("hist50/line/ring1/control-off", (2400480, 2217504, 0xA36F70B0F101A17C)),
    ("hist50/line/ring1/control-on", (2400480, 2217510, 0x9B65AC29349A4942)),
];

#[rustfmt::skip]
const OBSERVED_GOLDEN: &[(&str, Golden)] = &[
    ("md/4", (0xD9432497307AC465, 0xD9432497307AC465, 0x0206776A95271AA2)),
    ("chain100", (0x47BCD6C8C838789F, 0xB1AFE02B6B1AD807, 0xC87CC8989A3F660E)),
    ("chain50", (0xA5D8F427559D35FD, 0xA5D8F427559D35FD, 0xD0BDF79BC2C2289F)),
    ("hist100", (0x59D86F2171E97348, 0x29ACFE358A878F96, 0xCB2DD2FC42E0D563)),
    ("hist50", (0x4D6ED705F45BEE59, 0x3F7246C83442CF39, 0x3A0831DE713258AC)),
];
