//! One workload, one process: a closed loop with one client.
//!
//! Each repetition runs the *reference op* (the kernel through
//! `DirectContext` in a fresh arena — the sequential baseline) and then
//! the *measured op*, interleaved so drift hits both.  One unmeasured
//! warm-up repetition comes first, and repetitions go on until the next
//! one would no longer fit in `--seconds`.  Every op is verified by the
//! [`Gate`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use mutls_membuf::GlobalMemory;
use mutls_metrics::MetricsConfig;
use mutls_runtime::{DirectContext, Phase, RunReport, Runtime, RuntimeConfig};
use mutls_simcpu::{record_region, simulate, SimConfig};
use mutls_trace::TraceConfig;

use crate::gate::Gate;
use crate::host::{cpu_seconds, nproc, peak_rss_mib, spec_cpus};
use crate::kernels::{self, Kernel, Workload};
use crate::metrics::{Measured, Row};
use crate::probes::{self, Effort};
use crate::spans::SpanLog;
use crate::stats::{fastest, ratio, Summary};

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

pub struct Outcome {
    pub rows: Vec<Row>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: SpanLog,
}

/// Simulated CPU counts of one `sim_replay` op, with the span and metric
/// names of each.
const SIM_CPUS: [(usize, &str, &str, &str); 4] = [
    (
        1,
        "simcpu.simulate.1",
        "simcpu.replay_s.1",
        "simcpu.sim_cycles.1",
    ),
    (
        4,
        "simcpu.simulate.4",
        "simcpu.replay_s.4",
        "simcpu.sim_cycles.4",
    ),
    (
        16,
        "simcpu.simulate.16",
        "simcpu.replay_s.16",
        "simcpu.sim_cycles.16",
    ),
    (
        64,
        "simcpu.simulate.64",
        "simcpu.replay_s.64",
        "simcpu.sim_cycles.64",
    ),
];

/// Repetitions a run's numbers rest on, at least.
const MIN_REPS: usize = 3;
/// Repetitions of a `--quick` run.
const QUICK_REPS: usize = 2;
/// Native ops of a traced `sim_replay` run, for `simcpu.native_speedup`.
const NATIVE_SIDE_OPS: usize = 3;

/// What one op measured.
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    setup_s: f64,
    checksum: u64,
    /// Native ops only.
    report: Option<RunReport>,
    /// `sim_replay` ops only: sequential cycles, then parallel cycles per
    /// CPU count, and the recording's memory ops.
    sim: Option<(Vec<u64>, u64)>,
}

/// The reference op: the kernel under `DirectContext` in a fresh arena.
fn reference_op<K: Kernel>(kernel: &K, spans: &mut SpanLog, rep: u32) -> Sample {
    let set_up = Instant::now();
    let memory = Arc::new(GlobalMemory::new(kernel.arena_bytes()));
    let span = spans.begin("workloads.setup", rep);
    let data = kernel.setup(&memory);
    spans.end(span);
    let setup_s = set_up.elapsed().as_secs_f64();

    let span = spans.begin("workloads.reference", rep);
    let cpu_before = cpu_seconds();
    let started = Instant::now();
    let mut ctx = DirectContext::new(Arc::clone(&memory));
    kernel
        .run(&mut ctx, data)
        .expect("a sequential run cannot abort");
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu_before;
    spans.end(span);

    let span = spans.begin("workloads.checksum", rep);
    let checksum = kernel.result(&memory, &data);
    spans.end(span);
    Sample {
        wall_s,
        cpu_s,
        setup_s,
        checksum,
        report: None,
        sim: None,
    }
}

/// The measured op of a native workload: `Runtime::run` only is timed;
/// arena allocation, kernel `setup` and `Runtime::new` (worker spawn)
/// are its set-up.
fn native_op<K: Kernel>(
    kernel: &K,
    config: RuntimeConfig,
    spans: &mut SpanLog,
    rep: u32,
) -> Sample {
    let set_up = Instant::now();
    let span = spans.begin("runtime.new", rep);
    let runtime = Runtime::new(config.memory_bytes(kernel.arena_bytes()));
    spans.end(span);
    let span = spans.begin("workloads.setup", rep);
    let memory = runtime.memory();
    let data = kernel.setup(&memory);
    spans.end(span);
    let setup_s = set_up.elapsed().as_secs_f64();

    let span = spans.begin("runtime.run", rep);
    let cpu_before = cpu_seconds();
    let started = Instant::now();
    let (_, report) = runtime.run(|ctx| kernel.run(ctx, data));
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu_before;
    spans.end(span);

    let span = spans.begin("workloads.checksum", rep);
    let checksum = kernel.result(&memory, &data);
    spans.end(span);
    let span = spans.begin("runtime.drop", rep);
    drop(runtime);
    spans.end(span);
    Sample {
        wall_s,
        cpu_s,
        setup_s,
        checksum,
        report: Some(report),
        sim: None,
    }
}

/// The measured op of `sim_replay`: record the kernel once, replay it at
/// four CPU counts, single-threaded.
fn sim_op<K: Kernel>(kernel: &K, spans: &mut SpanLog, rep: u32) -> Sample {
    let set_up = Instant::now();
    let memory = Arc::new(GlobalMemory::new(kernel.arena_bytes()));
    let span = spans.begin("workloads.setup", rep);
    let data = kernel.setup(&memory);
    spans.end(span);
    let setup_s = set_up.elapsed().as_secs_f64();

    let cpu_before = cpu_seconds();
    let started = Instant::now();
    let span = spans.begin("simcpu.record", rep);
    let recording = record_region(memory, |ctx| kernel.run(ctx, data));
    spans.end(span);
    let mut cycles = Vec::with_capacity(1 + SIM_CPUS.len());
    for (cpus, span_name, _, _) in SIM_CPUS {
        let span = spans.begin(span_name, rep);
        let result = simulate(&recording, SimConfig::with_cpus(cpus));
        spans.end(span);
        if cycles.is_empty() {
            cycles.push(result.sequential_cycles);
        }
        cycles.push(result.parallel_cycles);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu_before;

    let span = spans.begin("workloads.checksum", rep);
    let checksum = kernel.result(&recording.memory, &data);
    spans.end(span);
    let memory_ops = recording.total_memory_ops();
    Sample {
        wall_s,
        cpu_s,
        setup_s,
        checksum,
        report: None,
        sim: Some((cycles, memory_ops)),
    }
}

/// Which measured op a workload times.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Measure {
    Native,
    SimReplay,
}

pub fn run(opts: &Opts, started: Instant) -> Outcome {
    let q = opts.quick;
    match opts.workload {
        Workload::ComputeLoop => drive(kernels::compute_loop(q), Measure::Native, opts, started),
        Workload::DenseReads => drive(kernels::md_steps(300, q), Measure::Native, opts, started),
        Workload::TreeWrites => drive(kernels::tree_writes(q), Measure::Native, opts, started),
        Workload::ConflictMix => drive(
            kernels::conflict_mix(opts.seed, q),
            Measure::Native,
            opts,
            started,
        ),
        Workload::SimReplay => drive(kernels::md_steps(40, q), Measure::SimReplay, opts, started),
    }
}

fn drive<K: Kernel>(kernel: K, measure: Measure, opts: &Opts, started: Instant) -> Outcome {
    let mut driver = Driver {
        kernel,
        measure,
        // Everything default but the CPU count and the arena: mvcc
        // recovery, lock-free log, line grain, `Static` governor, trace
        // and metrics off.
        native: RuntimeConfig::with_cpus(spec_cpus()),
        opts,
        started,
        gate: Gate::new(),
        spans: SpanLog::new(false),
    };
    let rows = if opts.trace {
        let mut layers = Measured::default();
        let side = driver.side_ops(&mut layers);
        let reps = driver.closed_loop();
        driver.per_layer(&reps, &side, layers)
    } else {
        end_to_end(&driver.closed_loop())
    };
    Outcome {
        rows,
        attempted: driver.gate.attempted,
        failed: driver.gate.failed,
        spans: driver.spans,
    }
}

fn column(samples: &[Sample], of: fn(&Sample) -> f64) -> Vec<f64> {
    samples.iter().map(of).collect()
}

/// What a traced run does besides the loop.
struct SideOps {
    /// Wall time of one measured op with the flight recorder on, and of
    /// one with the metrics plane on (0 if the op failed).
    enabled_walls: [f64; 2],
    /// `sim_replay` only: plain native ops of its kernel.
    native: Vec<Sample>,
}

/// The verified samples of the loop's repetitions, warm-up left out.
struct Reps {
    references: Vec<Sample>,
    measured: Vec<Sample>,
    /// Which measured samples were taken with spans on (traced run).
    spanned: Vec<bool>,
}

/// One workload's run: what every op needs, and the gate and span log
/// every op goes through.
struct Driver<'a, K> {
    kernel: K,
    measure: Measure,
    native: RuntimeConfig,
    opts: &'a Opts,
    started: Instant,
    gate: Gate,
    spans: SpanLog,
}

impl<K: Kernel> Driver<'_, K> {
    /// One verified native op outside the loop.
    fn side_native_op(&mut self, what: &'static str, config: RuntimeConfig) -> Option<Sample> {
        self.gate
            .attempt(what, || native_op(&self.kernel, config, &mut self.spans, 0))
            .filter(|sample| self.gate.check_measured(what, sample.checksum))
    }

    /// The traced run's tap, probes and extra native ops, all verified.
    fn side_ops(&mut self, layers: &mut Measured) -> SideOps {
        if let Some((tape, checksum)) = self.gate.attempt("tap", || probes::tap(&self.kernel)) {
            if self.gate.check_reference("tap", checksum) {
                let effort = Effort::of(self.opts.quick);
                probes::layer_costs(&self.kernel, &tape, effort, layers);
                layers.put_value("workloads.ops_total", tape.ops_total() as f64);
                layers.put_value(
                    "workloads.store_frac",
                    ratio(tape.stores as f64, tape.ops_total() as f64),
                );
            }
        }
        // One extra measured op each with the flight recorder and the
        // metrics plane on: the enabled-path cost, end to end.
        let enabled = [
            (
                "native, trace on",
                self.native.trace(TraceConfig::enabled()),
            ),
            (
                "native, metrics on",
                self.native.metrics(MetricsConfig::enabled()),
            ),
        ];
        let enabled_walls = enabled
            .map(|(what, config)| self.side_native_op(what, config).map_or(0.0, |s| s.wall_s));
        // `sim_replay` never runs the native runtime in its loop; its
        // traced run does (with spans, for `runtime.new_s`), for the
        // simulator's error against the machine.
        let mut native = Vec::new();
        if self.measure == Measure::SimReplay {
            self.spans.on = true;
            for _ in 0..NATIVE_SIDE_OPS {
                native.extend(self.side_native_op("native", self.native));
            }
        }
        SideOps {
            enabled_walls,
            native,
        }
    }

    fn closed_loop(&mut self) -> Reps {
        let Driver {
            kernel,
            gate,
            spans,
            ..
        } = self;
        let (opts, native) = (self.opts, self.native);
        let budget = Duration::from_secs_f64(opts.seconds);
        // A traced run needs two repetitions with spans and two without.
        let min_reps = if opts.trace { MIN_REPS + 1 } else { MIN_REPS };
        let mut reps = Reps {
            references: Vec::new(),
            measured: Vec::new(),
            spanned: Vec::new(),
        };
        let mut first_cycles: Option<Vec<u64>> = None;
        let mut longest_rep = Duration::ZERO;
        let mut rep = 0u32; // 0 is the warm-up
        loop {
            let warm_up = rep == 0;
            // The traced run records spans on every other repetition; the
            // halves give the tracing overhead.
            spans.on = opts.trace && !warm_up && rep % 2 == 1;
            let rep_started = Instant::now();
            let rep_span = spans.begin("bench.rep", rep);

            let reference = gate
                .attempt("reference", || reference_op(kernel, spans, rep))
                .filter(|sample| gate.check_reference("reference", sample.checksum));
            let op = match self.measure {
                Measure::Native => gate.attempt("native", || native_op(kernel, native, spans, rep)),
                Measure::SimReplay => gate.attempt("sim_replay", || sim_op(kernel, spans, rep)),
            };
            let op = op.filter(|sample| {
                let same = gate.check_measured("measured", sample.checksum);
                // Simulated cycles repeat exactly.
                let repeats = sample.sim.as_ref().is_none_or(|(cycles, _)| {
                    let first = first_cycles.get_or_insert_with(|| cycles.clone());
                    gate.check_repeats("simulated cycles", first, cycles)
                });
                same && repeats
            });
            spans.end(rep_span);

            if !warm_up {
                reps.references.extend(reference);
                if let Some(sample) = op {
                    reps.measured.push(sample);
                    reps.spanned.push(spans.on);
                }
            }
            longest_rep = longest_rep.max(rep_started.elapsed());
            let reps_done = rep as usize;
            rep += 1;
            let enough = if opts.quick {
                reps_done >= QUICK_REPS
            } else {
                // Stop when the next repetition would not fit in the budget.
                reps_done >= min_reps && self.started.elapsed() + longest_rep > budget
            };
            if enough {
                break;
            }
        }
        spans.on = false;
        reps
    }

    /// The traced run's numbers: the probes already in `layers`, plus
    /// counts and span times.
    fn per_layer(&self, reps: &Reps, side: &SideOps, mut layers: Measured) -> Vec<Row> {
        let wall = column(&reps.measured, |s| s.wall_s);
        let native_samples = match self.measure {
            Measure::Native => &reps.measured,
            Measure::SimReplay => &side.native,
        };
        runtime_counts(native_samples, &mut layers);
        let native_wall_s = fastest(&column(native_samples, |s| s.wall_s));
        let [trace_on, metrics_on] = side.enabled_walls;
        layers.put_value("trace.enabled_wall_ratio", ratio(trace_on, native_wall_s));
        layers.put_value(
            "metrics.enabled_wall_ratio",
            ratio(metrics_on, native_wall_s),
        );
        let half = |on: bool| -> Vec<f64> {
            let spanned = wall.iter().zip(&reps.spanned);
            spanned.filter(|(_, &s)| s == on).map(|(&w, _)| w).collect()
        };
        layers.put_value(
            "bench.trace_overhead_frac",
            ratio(fastest(&half(true)), fastest(&half(false))) - 1.0,
        );
        for (metric, span) in [
            ("runtime.new_s", "runtime.new"),
            ("runtime.drop_s", "runtime.drop"),
            ("workloads.setup_s", "workloads.setup"),
        ] {
            layers.put(metric, Summary::fastest(&self.spans.durations_s(span)));
        }
        if self.measure == Measure::SimReplay {
            let seq_wall_s = fastest(&column(&reps.references, |s| s.wall_s));
            simulator(
                &self.kernel,
                &reps.measured,
                &self.spans,
                seq_wall_s,
                native_wall_s,
                &mut layers,
            );
        }
        layers.per_layer()
    }
}

/// The timed run's numbers.  A time is the fastest repetition.
fn end_to_end(reps: &Reps) -> Vec<Row> {
    let wall = column(&reps.measured, |s| s.wall_s);
    let seq_wall = column(&reps.references, |s| s.wall_s);
    let cpu = fastest(&column(&reps.measured, |s| s.cpu_s));
    let seq_cpu = fastest(&column(&reps.references, |s| s.cpu_s));
    let mut e2e = Measured::default();
    e2e.put("wall_s", Summary::fastest(&wall));
    e2e.put("seq_wall_s", Summary::fastest(&seq_wall));
    e2e.put(
        "speedup",
        Summary::derived(ratio(fastest(&seq_wall), fastest(&wall)), wall.len()),
    );
    e2e.put(
        "cpu_ratio",
        Summary::derived(ratio(cpu, seq_cpu), wall.len()),
    );
    e2e.put(
        "setup_s",
        Summary::fastest(&column(&reps.measured, |s| s.setup_s)),
    );
    e2e.put_value("peak_rss_mib", peak_rss_mib());
    e2e.end_to_end()
}

/// Counts the program already returns in `RunReport`, as medians over
/// the native ops (they depend on the schedule, so min and max are
/// printed beside them).
fn runtime_counts(samples: &[Sample], out: &mut Measured) {
    let reports: Vec<&RunReport> = samples.iter().filter_map(|s| s.report.as_ref()).collect();
    let mut put = |name: &'static str, value: &dyn Fn(&RunReport) -> f64| {
        let values: Vec<f64> = reports.iter().map(|r| value(r)).collect();
        out.put(name, Summary::typical(&values));
    };
    let crit = |phase: Phase| move |r: &RunReport| r.critical.fraction(phase);
    let spec = |phase: Phase| move |r: &RunReport| r.speculative.fraction(phase);
    put("runtime.phase.crit.work_frac", &crit(Phase::Work));
    put("runtime.phase.crit.idle_frac", &crit(Phase::Idle));
    put("runtime.phase.crit.join_frac", &crit(Phase::Join));
    put("runtime.phase.crit.fork_frac", &crit(Phase::Fork));
    put("runtime.phase.spec.work_frac", &spec(Phase::Work));
    put("runtime.phase.spec.wasted_frac", &spec(Phase::WastedWork));
    put("runtime.phase.spec.idle_frac", &spec(Phase::Idle));
    put(
        "runtime.phase.spec.validation_frac",
        &spec(Phase::Validation),
    );
    put("runtime.phase.spec.commit_frac", &spec(Phase::Commit));
    put("runtime.phase.spec.finalize_frac", &spec(Phase::Finalize));
    let busy =
        |r: &RunReport, phase: Phase| (r.critical.get(phase) + r.speculative.get(phase)) as f64;
    put("runtime.cpu_busy_frac", &|r| {
        ratio(
            busy(r, Phase::Work) + busy(r, Phase::WastedWork),
            r.runtime as f64 * nproc() as f64,
        )
    });
    put("runtime.wasted_frac", &|r| {
        let wasted = busy(r, Phase::WastedWork);
        ratio(wasted, busy(r, Phase::Work) + wasted)
    });
    put("runtime.commit_ratio", &|r| {
        ratio(
            r.committed_threads as f64,
            (r.committed_threads + r.rolled_back_threads) as f64,
        )
    });
    use mutls_membuf::RollbackReason::{Conflict, Other, Overflow};
    put("runtime.rollbacks.conflict", &|r| {
        r.rollbacks_with(Conflict) as f64
    });
    put("runtime.rollbacks.overflow", &|r| {
        r.rollbacks_with(Overflow) as f64
    });
    put("runtime.rollbacks.other", &|r| {
        r.rollbacks_with(Other) as f64
    });
    put("runtime.retries", &|r| r.retries() as f64);
    put("runtime.targeted_dooms", &|r| r.targeted_dooms() as f64);
    put("runtime.precise_passes", &|r| r.precise_passes() as f64);
    let both = |r: &RunReport, count: fn(&mutls_runtime::ThreadCounters) -> u64| {
        (count(&r.critical.counters) + count(&r.speculative.counters)) as f64
    };
    put("runtime.forks", &|r| both(r, |c| c.forks));
    put("runtime.failed_forks", &|r| both(r, |c| c.failed_forks));
    put("runtime.loads.crit", &|r| r.critical.counters.loads as f64);
    put("runtime.loads.spec", &|r| {
        r.speculative.counters.loads as f64
    });
    put("runtime.stores.crit", &|r| {
        r.critical.counters.stores as f64
    });
    put("runtime.stores.spec", &|r| {
        r.speculative.counters.stores as f64
    });
    put("membuf.commitlog.commits", &|r| r.commit_log.commits as f64);
    put("membuf.commitlog.stamp_writes", &|r| {
        r.commit_log.stamp_writes as f64
    });
    put("membuf.commitlog.lock_ns", &|r| r.commit_log.lock_ns as f64);
    put("membuf.commitlog.cas_retries", &|r| {
        r.commit_log.cas_retries as f64
    });
    put("membuf.commitlog.ring_overflows", &|r| {
        r.commit_log.ring_overflows as f64
    });
    put("membuf.commitlog.reader_spills", &|r| {
        r.commit_log.reader_spills as f64
    });
}

/// `simcpu.*`: the simulator's host time from the spans, its exact
/// cycles, and its predicted speed-up beside the native one.
fn simulator<K: Kernel>(
    kernel: &K,
    measured: &[Sample],
    spans: &SpanLog,
    seq_wall_s: f64,
    native_wall_s: f64,
    out: &mut Measured,
) {
    let Some((cycles, memory_ops)) = measured.first().and_then(|s| s.sim.as_ref()) else {
        return;
    };
    out.put(
        "simcpu.record_s",
        Summary::fastest(&spans.durations_s("simcpu.record")),
    );
    let mut replay_s = 0.0;
    for (i, (_, span, replay_metric, cycles_metric)) in SIM_CPUS.into_iter().enumerate() {
        let durations = Summary::fastest(&spans.durations_s(span));
        replay_s += durations.value;
        out.put(replay_metric, durations);
        out.put_value(cycles_metric, cycles[1 + i] as f64);
    }
    out.put_value(
        "simcpu.replay_ns_per_memop",
        ratio(replay_s * 1e9, (SIM_CPUS.len() as u64 * memory_ops) as f64),
    );
    // The simulator's answer for the machine this runs on.
    let memory = Arc::new(GlobalMemory::new(kernel.arena_bytes()));
    let data = kernel.setup(&memory);
    let recording = record_region(memory, |ctx| kernel.run(ctx, data));
    let predicted = simulate(&recording, SimConfig::with_cpus(spec_cpus())).speedup();
    let native = ratio(seq_wall_s, native_wall_s);
    out.put_value("simcpu.predicted_speedup", predicted);
    out.put_value("simcpu.native_speedup", native);
    out.put_value("simcpu.speedup_error", ratio(predicted, native) - 1.0);
}
