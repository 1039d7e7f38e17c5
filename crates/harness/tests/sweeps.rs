//! The sweeps through the public API: the structure of the point lists
//! and the row shape, then what each experiment's rows must show.  Native
//! counts depend on thread timing, so natively only structural facts are
//! asserted (checksums, causes, zero-sharing ⇒ zero conflicts); the
//! quantitative claims live on the deterministic replay rows.

use std::sync::Arc;

use mutls_adaptive::PolicyKind;
use mutls_harness::sweeps::{
    col, render_rows, ADAPTIVE, CONFLICT, CONFLICT_SHARING_PERMILLE, GRAIN, GRAIN_SHARING_PERMILLE,
    NATIVE_CPUS, OVERFLOW, ROLLBACK_HEAVY,
};
use mutls_harness::{
    record_workload_shared, run_experiment, run_points, trace_scenario, Engine, ExperimentConfig,
    GrainMode, Observe, Point, Row, Run, TraceSink, BENCH_SCHEMA_VERSION, EXPERIMENT_NAMES, SWEEPS,
};
use mutls_membuf::{
    CommitLogConfig, RollbackReason, DEFAULT_RING_DEPTH, LINE_GRAIN_LOG2, WORD_GRAIN_LOG2,
};
use mutls_runtime::RunReport;
use mutls_simcpu::{simulate, SimConfig};
use mutls_workloads::{Scale, WorkloadKind};
use serde::Serialize;

fn quick() -> ExperimentConfig {
    ExperimentConfig::quick()
}

fn json_keys<T: Serialize>(value: &T) -> Vec<String> {
    let mut out = String::new();
    value.serialize_json(&mut out);
    let parsed = serde_json::parse(&out).expect("row JSON parses");
    let object = parsed.as_object().expect("a row is an object");
    object.iter().map(|(key, _)| key.clone()).collect()
}

fn blank_run() -> Run {
    Run {
        checksum_ok: None,
        speedup: None,
        report: RunReport::default(),
        trace: None,
        metrics: None,
    }
}

#[test]
fn every_experiment_name_has_a_definition() {
    assert_eq!(EXPERIMENT_NAMES.len(), 16);
    let config = ExperimentConfig {
        cpus: vec![1, 4],
        ..quick()
    };
    for name in EXPERIMENT_NAMES {
        // A sweep is defined by its entry in `SWEEPS` (each is run by its
        // own test below); everything else is cheap enough to run here.
        let defined = SWEEPS.iter().any(|sweep| sweep.name == name)
            || run_experiment(name, &config).is_some();
        assert!(defined, "{name} is accepted but not defined");
    }
    for sweep in SWEEPS {
        assert!(EXPERIMENT_NAMES.contains(&sweep.name), "{}", sweep.name);
    }
    for gone in ["recovery", "graincontrol", "recovery_replay", "nope"] {
        assert!(run_experiment(gone, &config).is_none(), "{gone} still runs");
    }
}

#[test]
fn points_are_distinct_and_every_row_has_one_shape() {
    let reference = json_keys(&Row::from_report(
        &Point::new(WorkloadKind::Fft),
        Engine::Native,
        1,
        &blank_run(),
    ));
    assert!(reference.contains(&"schema_version".to_string()));
    assert_eq!(BENCH_SCHEMA_VERSION, 8);
    for sweep in SWEEPS {
        let points = (sweep.points)();
        assert!(!points.is_empty(), "{} has no points", sweep.name);
        for (i, a) in points.iter().enumerate() {
            for b in &points[i + 1..] {
                assert_ne!(a, b, "{} runs a point twice", sweep.name);
            }
        }
        for table in sweep.tables {
            for point in &points {
                let row = Row::from_report(point, table.engine, 8, &blank_run());
                assert_eq!(json_keys(&row), reference, "{}", sweep.name);
            }
        }
    }
}

#[test]
fn adaptive_covers_all_workloads_and_policies() {
    let (rows, text) = ADAPTIVE.run(&quick());
    assert!(text.contains("Adaptive Governor Sweep at 64 CPUs"));
    assert!(text.contains("Per-site profile"));
    assert_eq!(rows.len(), WorkloadKind::ALL.len() * PolicyKind::ALL.len());
    for kind in ROLLBACK_HEAVY {
        assert!(rows
            .iter()
            .any(|r| r.workload == kind.name() && r.rollback_probability > 0.0));
    }
    for row in &rows {
        assert_eq!(row.engine, "replay");
        assert!(row.speedup.is_some() && row.checksum_ok.is_none());
        // The static policy never throttles (seed behaviour).
        if row.policy == "static" {
            assert_eq!(row.throttled_forks, 0, "{}", row.workload);
        }
    }
}

#[test]
fn throttle_engages_on_the_real_conflicts_of_a_replayed_chain() {
    // Whether the governor has seen enough of a native run's forks to act
    // depends on scheduling; on a replay of the recorded 100%-sharing
    // chain it does not.
    let point = Point {
        sharing_permille: Some(1000),
        policy: PolicyKind::Throttle,
        ..Point::new(WorkloadKind::ConflictChain)
    };
    let runs = run_points(
        &[point],
        Engine::Replay,
        NATIVE_CPUS,
        Scale::Tiny,
        7,
        Observe::default(),
    );
    let report = &runs[0].report;
    assert!(
        report.rollbacks_with(RollbackReason::Conflict) > 0,
        "full sharing replayed without a conflict"
    );
    assert_eq!(report.rollbacks_with(RollbackReason::Injected), 0);
    assert!(
        report.throttled_forks() > 0,
        "throttle never engaged on real conflicts"
    );
}

#[test]
fn conflict_detects_real_conflicts_and_stays_correct() {
    let (rows, text) = CONFLICT.run(&quick());
    assert!(text.contains("Conflict Sweep at 8 CPUs"));
    assert!(text.contains("Per-site profile — conflict_chain under throttle"));
    assert!(text.contains("Phase latencies — hist_shared under throttle"));
    assert!(text.contains("wasted-work reduction"));
    let summary_lines = text
        .lines()
        .filter(|line| line.ends_with("less wasted work under throttle"))
        .count();
    assert_eq!(
        summary_lines,
        WorkloadKind::CONFLICT_FAMILY.len() * (CONFLICT_SHARING_PERMILLE.len() - 1)
    );
    assert_eq!(
        rows.len(),
        WorkloadKind::CONFLICT_FAMILY.len() * CONFLICT_SHARING_PERMILLE.len() * 2
    );
    let conflicts = |row: &Row| row.rollback_reasons[RollbackReason::Conflict.index()];
    for row in &rows {
        // Correctness holds at every sharing rate and policy, and no
        // rollback is ever injected.
        assert_eq!(
            row.checksum_ok,
            Some(true),
            "{} {} diverged",
            row.workload,
            row.policy
        );
        assert_eq!(row.rollback_reasons[RollbackReason::Injected.index()], 0);
        // Zero sharing → zero conflicts, structurally.
        if row.sharing_permille == Some(0) {
            assert_eq!(conflicts(row), 0, "{} {}", row.workload, row.policy);
        }
    }
    assert!(
        rows.iter()
            .filter(|r| r.sharing_permille == Some(1000) && r.policy == "static")
            .any(|r| conflicts(r) > 0),
        "no real conflicts detected at 100% sharing"
    );
}

#[test]
fn overflow_exercises_overflow_rollbacks() {
    let (rows, text) = OVERFLOW.run(&quick());
    assert!(text.contains("Buffer-Overflow Pressure"));
    assert_eq!(rows.len(), 3 * 2);
    for row in &rows {
        assert_eq!(
            row.checksum_ok,
            Some(true),
            "{} {} diverged",
            row.workload,
            row.policy
        );
    }
    assert!(
        rows.iter()
            .filter(|r| r.policy == "static")
            .any(|r| r.rollback_reasons[RollbackReason::Overflow.index()] > 0),
        "tiny buffers never overflowed"
    );
}

#[test]
fn grain_is_correct_natively_and_tracks_the_best_static_grain_on_the_replay() {
    let config = quick();
    let (rows, text) = GRAIN.run(&config);
    assert!(text.contains("Commit-Log Grain Sweep at 8 CPUs"));
    assert!(text.contains("Commit-Log Grain Replay at 8 CPUs"));
    let inputs = 3 + WorkloadKind::CONFLICT_FAMILY.len() * GRAIN_SHARING_PERMILLE.len();
    assert_eq!(rows.len(), 2 * inputs * GrainMode::ALL.len());
    let (native, replay) = rows.split_at(rows.len() / 2);
    assert!(native.iter().all(|r| r.engine == "native"));
    assert!(replay.iter().all(|r| r.engine == "replay"));
    let conflicts = |row: &Row| row.rollback_reasons[RollbackReason::Conflict.index()];

    for row in native {
        let at = format!("{} {:?} {}", row.workload, row.sharing_permille, row.grain);
        // Correct in every repetition; false sharing may add rollbacks
        // but never corrupts state; nothing is ever injected.
        assert_eq!(row.checksum_ok, Some(true), "{at} diverged");
        assert_eq!(row.rollback_reasons[RollbackReason::Injected.index()], 0);
        // Every batch stamps at least one range.
        assert!(
            row.commit_log.stamp_writes >= row.commit_log.commits,
            "{at}"
        );
        // Static modes never regrain.
        if row.grain != "adaptive" {
            assert_eq!(row.commit_log.regrains, 0, "{at} regrained");
        }
        // Without sharing a word-grain log has nothing to conflict on.
        if row.grain == "word" && row.sharing_permille == Some(0) {
            assert_eq!(conflicts(row), 0, "{at}");
            assert_eq!(row.precise_passes, 0, "{at}: no range is shared");
        }
        // mandelbrot's speculative chunks only *store* (empty read sets),
        // so validation can never fail: structural at every grain.
        if row.workload == "mandelbrot" {
            assert_eq!(row.rolled_back, 0, "{at}");
        }
    }
    // The controller actually moves grains somewhere natively (the
    // conflict family under sharing splits away from page).
    assert!(
        native
            .iter()
            .filter(|r| r.grain == "adaptive" && r.sharing_permille >= Some(500))
            .any(|r| r.commit_log.regrains > 0),
        "the adaptive controller never regrained a contended region"
    );

    let at = |kind: &str, sharing: Option<u32>, grain: &str| {
        replay
            .iter()
            .find(|r| r.workload == kind && r.sharing_permille == sharing && r.grain == grain)
            .unwrap()
    };
    for row in replay {
        let at = format!("{} {:?} {}", row.workload, row.sharing_permille, row.grain);
        assert_eq!(row.rollback_reasons[RollbackReason::Injected.index()], 0);
        if !WorkloadKind::CONFLICT_FAMILY
            .iter()
            .any(|k| k.name() == row.workload)
        {
            continue;
        }
        match row.sharing_permille {
            Some(0) => assert_eq!((row.rolled_back, row.wasted_work), (0, 0), "{at}"),
            // Stale readers are doomed surgically.
            _ => assert!(row.targeted_dooms > 0, "{at}: nobody was doomed"),
        }
    }
    // The same batches stamp no more ranges at a coarser static grain.
    for input in replay.chunks(GrainMode::ALL.len()) {
        let stamps = |grain: &str| {
            let row = input.iter().find(|r| r.grain == grain).unwrap();
            row.commit_log.stamp_writes
        };
        assert!(
            stamps("word") >= stamps("line") && stamps("line") >= stamps("page"),
            "{}: stamps {} / {} / {}",
            input[0].workload,
            stamps("word"),
            stamps("line"),
            stamps("page")
        );
    }

    // The adaptive mode serves both ends of the spectrum in one
    // configuration:
    //
    // 1. mandelbrot (disjoint rows, zero conflicts): adaptive stamp
    //    traffic within 10% of the *page*-grain optimum — calm regions
    //    keep the coarse grain.
    // 2. conflict_chain at 100% sharing: adaptive wasted work within 10%
    //    of the *word*-grain optimum — contended regions re-split to
    //    exactness.
    let mandel_adaptive = at("mandelbrot", None, "adaptive");
    let mandel_page = at("mandelbrot", None, "page");
    assert!(
        mandel_adaptive.commit_log.stamp_writes as f64
            <= mandel_page.commit_log.stamp_writes as f64 * 1.1,
        "mandelbrot: adaptive stamps {} vs page {}",
        mandel_adaptive.commit_log.stamp_writes,
        mandel_page.commit_log.stamp_writes
    );
    assert!(
        mandel_adaptive.commit_log.stamp_writes * 2
            < at("mandelbrot", None, "word").commit_log.stamp_writes,
        "adaptive must stay far below word-grain stamp traffic"
    );
    let chain_adaptive = at("conflict_chain", Some(1000), "adaptive");
    let chain_word = at("conflict_chain", Some(1000), "word");
    assert!(
        chain_adaptive.wasted_work as f64 <= chain_word.wasted_work as f64 * 1.1,
        "conflict_chain: adaptive wasted {} vs word {}",
        chain_adaptive.wasted_work,
        chain_word.wasted_work
    );
    assert!(
        chain_adaptive.commit_log.regrains > 0
            && chain_adaptive
                .region_grains
                .iter()
                .all(|&(grain, _)| grain == WORD_GRAIN_LOG2),
        "the contended chain region must converge to word grain, got {:?}",
        chain_adaptive.region_grains
    );

    // Determinism: a second replay reproduces every row exactly.
    let points = (GRAIN.points)();
    let again = run_points(
        &points,
        Engine::Replay,
        NATIVE_CPUS,
        config.scale,
        config.seed,
        Observe::default(),
    );
    let json = |row: &Row| {
        let mut out = String::new();
        row.serialize_json(&mut out);
        out
    };
    for ((point, run), first) in points.iter().zip(&again).zip(replay) {
        let second = Row::from_report(point, Engine::Replay, NATIVE_CPUS, run);
        assert_eq!(json(first), json(&second), "the replay is nondeterministic");
    }
}

#[test]
fn mvcc_beats_single_version_at_line_grain() {
    // On the deterministic simulator, at line grain and >= 50% sharing,
    // the version rings strictly reduce the fibers squashed or sent
    // through a value-predict repair against the same log at ring depth
    // 1 on both conflict workloads, because false-sharing conflicts
    // become ring-probed precise passes instead.  Surgical *dooms* may
    // grow in exchange — a precise-passing fiber survives to its real
    // conflict, where dooming it early is exactly the ladder's job — so
    // the doomed fiber's budget is asserted through wasted cycles (never
    // worse pointwise) rather than doom counts.  At word grain the two
    // depths must coincide counter-for-counter: every range hit is a
    // word hit there, so the rings never fire.
    let config = quick();
    let at = |recording: &mutls_simcpu::Recording, grain_log2: u32, ring_depth: u32| {
        simulate(
            recording,
            SimConfig {
                num_cpus: NATIVE_CPUS,
                seed: config.seed,
                commit_log: CommitLogConfig::default()
                    .grain_log2(grain_log2)
                    .ring_depth(ring_depth),
                ..SimConfig::default()
            },
        )
        .report
    };
    let traffic = |r: &RunReport| r.rolled_back_threads + r.retried_threads;
    for kind in WorkloadKind::CONFLICT_FAMILY {
        let name = kind.name();
        let mut single_version = 0;
        let mut mvcc = 0;
        let mut precise = 0;
        for permille in GRAIN_SHARING_PERMILLE {
            let recording = record_workload_shared(kind, config.scale, Some(permille));
            let single = at(&recording, LINE_GRAIN_LOG2, 1);
            let ringed = at(&recording, LINE_GRAIN_LOG2, DEFAULT_RING_DEPTH);
            assert_eq!(single.precise_passes(), 0, "{name}: depth 1 ring-probed");
            if permille >= 500 {
                single_version += traffic(&single);
                mvcc += traffic(&ringed);
                precise += ringed.precise_passes();
                assert!(
                    ringed.wasted_work() <= single.wasted_work(),
                    "{name} at {permille}‰: rings wasted {} vs single-version {}",
                    ringed.wasted_work(),
                    single.wasted_work()
                );
                assert!(
                    ringed.committed_threads >= single.committed_threads,
                    "{name} at {permille}‰: rings committed fewer fibers"
                );
            }
            // Word grain: the depths coincide exactly.
            let single = at(&recording, WORD_GRAIN_LOG2, 1);
            let ringed = at(&recording, WORD_GRAIN_LOG2, DEFAULT_RING_DEPTH);
            assert_eq!(
                ringed.precise_passes(),
                0,
                "{name}: rings fired at word grain"
            );
            assert_eq!(
                (
                    ringed.rolled_back_threads,
                    ringed.retried_threads,
                    ringed.wasted_work()
                ),
                (
                    single.rolled_back_threads,
                    single.retried_threads,
                    single.wasted_work()
                ),
                "{name} at {permille}‰: the depths diverged at word grain"
            );
        }
        assert!(
            mvcc < single_version,
            "{name} at line grain: squash+retry traffic {mvcc} with rings \
             vs {single_version} without — the rings bought nothing"
        );
        assert!(
            precise > 0,
            "{name} at line grain: no precise passes despite shared lines"
        );
    }
}

/// Golden render of a `grain` table built from the column catalogue.
#[test]
fn grain_table_renders_golden() {
    let mut report = RunReport {
        committed_threads: 45,
        rolled_back_threads: 50,
        retried_threads: 2,
        region_grains: vec![(WORD_GRAIN_LOG2, 1)],
        ..RunReport::default()
    };
    report.rollback_reasons[RollbackReason::Conflict.index()] = 15;
    report.rollback_reasons[RollbackReason::Other.index()] = 35;
    report.commit_log.stamp_writes = 30;
    report.commit_log.regrains = 2;
    report.commit_log.ring_overflows = 1;
    let run = Run {
        speedup: Some(0.974),
        report,
        ..blank_run()
    };
    let chain = Point {
        sharing_permille: Some(1000),
        grain: GrainMode::Adaptive,
        ..Point::new(WorkloadKind::ConflictChain)
    };
    let rows = [
        Row::from_report(&chain, Engine::Replay, 8, &run),
        Row::from_report(
            &Point::new(WorkloadKind::Mandelbrot),
            Engine::Replay,
            8,
            &blank_run(),
        ),
    ];
    let replay = &GRAIN.tables[1];
    assert_eq!(replay.engine, Engine::Replay);
    let text = render_rows("Grain replay — golden", replay.columns, &rows);
    let expected = "\
# Grain replay — golden
workload        sharing  grain     committed  retried  rolled back (C/O/I/X)  dooms  precise/ovfl  stamps  regrains  wasted work  speedup  final grains
---------------------------------------------------------------------------------------------------------------------------------------------------------
conflict_chain  100%     adaptive  45         2        50 (C15/O0/I0/X35)     0      0/1           30      2         0            0.97     word:1      \n\
mandelbrot      -        line      0          0        0 (C0/O0/I0/X0)        0      0/0           0       0         0            -        -           \n";
    assert_eq!(text, expected);
    // A native-only cell on a replay row, and the reverse, read "-".
    assert_eq!((col::CHECKSUM.cell)(&rows[0]), "-");
    assert_eq!((col::SPEEDUP.cell)(&rows[1]), "-");
}

#[test]
fn trace_scenario_captures_the_full_lifecycle() {
    let sink = TraceSink::new();
    let config = quick().with_trace(Arc::clone(&sink));
    let (rows, text) = trace_scenario(&config);
    assert!(text.contains("Flight Recorder Census"));
    assert_eq!(rows.len(), 2, "one native + one replay scenario row");
    for row in &rows {
        assert_eq!(row.schema_version, BENCH_SCHEMA_VERSION);
        assert!(row.events > 0, "{}: no events traced", row.scenario);
        assert!(row.forks > 0, "{}: no forks traced", row.scenario);
        assert!(row.commits > 0, "{}: no commits traced", row.scenario);
    }
    // The 100%-sharing chain must surface real conflict lifecycle
    // events, not just forks and commits.
    assert!(
        rows.iter().any(|r| r.rollbacks + r.dooms > 0),
        "full-sharing chain produced no rollback/doom events"
    );
    assert_eq!(sink.len(), 2, "both runs recorded to the sink");
    assert!(serde_json::parse(&sink.chrome_json()).is_ok());
}
