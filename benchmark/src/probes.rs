//! Layer probes: the workload's own address stream, caught by
//! [`TapContext`], replayed through each layer's public functions.
//!
//! Only the operation under test is timed; set-up is hoisted out of the
//! timed region.  A number is the fastest of [`Effort::rounds`] rounds of
//! at least [`Effort::calls`] calls (2^20 and 5 in a full run).  The
//! round trips that cost microseconds (`runtime.fork_join_ns`,
//! `adaptive.grain.tick_ns`) make 2^10 calls a round instead.

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mutls_adaptive::{GovernorConfig, GrainControlConfig, GrainController, SiteOutcome};
use mutls_membuf::{
    Addr, BufferConfig, CommitLog, CommitLogConfig, GlobalBuffer, GlobalMemory, MainMemory,
    WordMap, DEFAULT_RING_DEPTH, WORD_BYTES,
};
use mutls_metrics::{CounterId, MetricsConfig, Registry};
use mutls_runtime::{
    task, ForkModel, Governor, JoinOutcome, Runtime, RuntimeConfig, SpecContext, SpecResult,
    TlsContext,
};
use mutls_trace::{EventKind, Recorder, TraceConfig, TraceEvent};

use crate::kernels::Kernel;
use crate::metrics::Measured;
use crate::stats::Summary;
use crate::tap::{TapContext, Tape};

/// How much work one probe number rests on.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    pub calls: usize,
    pub slow_calls: usize,
    pub rounds: usize,
}

impl Effort {
    pub fn of(quick: bool) -> Self {
        if quick {
            Effort {
                calls: 1 << 14,
                slow_calls: 1 << 8,
                rounds: 3,
            }
        } else {
            Effort {
                calls: 1 << 20,
                slow_calls: 1 << 10,
                rounds: 5,
            }
        }
    }
}

/// Run the kernel once, sequentially, under the tap.
pub fn tap<K: Kernel>(kernel: &K) -> (Tape, u64) {
    let memory = Arc::new(GlobalMemory::new(kernel.arena_bytes()));
    let data = kernel.setup(&memory);
    let mut ctx = TapContext::new(Arc::clone(&memory));
    kernel
        .run(&mut ctx, data)
        .expect("a sequential run cannot abort");
    (ctx.finish(), kernel.result(&memory, &data))
}

/// The tape as the probes replay it.
struct Replay {
    /// Distinct words in first-touch order, kept while a default
    /// speculative buffer holds them in its direct-mapped slots (at most
    /// half its capacity): every probe stays on the path a thread takes
    /// before it overflows.
    first_touch: Vec<Addr>,
    /// The kept operations, in program order, that touch those words —
    /// the workload's own mix of first and repeat touches.
    hot: Vec<Addr>,
}

impl Replay {
    fn of(tape: &Tape) -> Self {
        let config = BufferConfig::default();
        let mut fits = WordMap::new(config.read_capacity_words, config.overflow_capacity);
        let mut first_touch = Vec::new();
        for (addr, _) in tape.ops() {
            if first_touch.len() == config.read_capacity_words / 2 {
                break;
            }
            if fits.get(addr).is_none() && fits.insert_word(addr, 0).is_ok() {
                first_touch.push(addr);
            }
        }
        let kept: HashSet<Addr> = first_touch.iter().copied().collect();
        let hot = tape
            .ops()
            .map(|(addr, _)| addr)
            .filter(|a| kept.contains(a))
            .collect();
        Replay { first_touch, hot }
    }
}

/// Ns per call: the fastest of `effort.rounds` rounds.  A round repeats
/// (`prepare` untimed, `pass` timed) until `effort.calls` calls were
/// made; `pass` makes `calls_per_pass` of them.
fn ns_per_call<S>(
    effort: Effort,
    state: &mut S,
    calls_per_pass: usize,
    prepare: impl Fn(&mut S),
    pass: impl Fn(&mut S),
) -> Summary {
    let calls_per_pass = calls_per_pass.max(1);
    let passes = effort.calls.div_ceil(calls_per_pass);
    let rounds: Vec<f64> = (0..effort.rounds)
        .map(|_| {
            let mut timed = Duration::ZERO;
            for _ in 0..passes {
                prepare(state);
                let started = Instant::now();
                pass(state);
                timed += started.elapsed();
            }
            timed.as_nanos() as f64 / (passes * calls_per_pass) as f64
        })
        .collect();
    Summary::fastest(&rounds)
}

fn no_prepare<S>(_: &mut S) {}

/// The log a default runtime builds over an arena of `arena` bytes.
fn default_log(arena: u64) -> CommitLog {
    CommitLog::with_config(
        CommitLogConfig::default().ring_depth(DEFAULT_RING_DEPTH),
        arena,
    )
}

/// Every probe metric of every layer, on `kernel`'s tape.
pub fn layer_costs<K: Kernel>(kernel: &K, tape: &Tape, effort: Effort, out: &mut Measured) {
    let replay = Replay::of(tape);
    membuf(kernel, &replay, effort, out);
    runtime(kernel, &replay, effort, out);
    control_planes(effort, out);
}

fn membuf<K: Kernel>(kernel: &K, replay: &Replay, effort: Effort, out: &mut Measured) {
    let arena = kernel.arena_bytes();
    let memory = GlobalMemory::new(arena);
    kernel.setup(&memory);
    let log = default_log(arena);
    let config = BufferConfig::default();
    let (first_touch, hot) = (&replay.first_touch[..], &replay.hot[..]);

    // ----- WordMap ----------------------------------------------------
    let mut map = WordMap::new(config.read_capacity_words, config.overflow_capacity);
    let insert = ns_per_call(effort, &mut map, first_touch.len(), WordMap::clear, |m| {
        for &a in first_touch {
            let _ = black_box(m.insert_word_versioned(a, a, 1));
        }
    });
    out.put("membuf.wordmap.insert_ns", insert);
    let get_hit = ns_per_call(effort, &mut map, hot.len(), no_prepare, |m| {
        for &a in hot {
            black_box(m.get(a));
        }
    });
    out.put("membuf.wordmap.get_hit_ns", get_hit);
    // A first touch looks up a set that holds other words already.
    let (present, absent) = first_touch.split_at(first_touch.len() / 2);
    map.clear();
    for &a in present {
        let _ = map.insert_word(a, a);
    }
    let get_miss = ns_per_call(effort, &mut map, absent.len(), no_prepare, |m| {
        for &a in absent {
            black_box(m.get(a));
        }
    });
    out.put("membuf.wordmap.get_miss_ns", get_miss);

    // ----- main memory ------------------------------------------------
    let read_word = ns_per_call(effort, &mut (), hot.len(), no_prepare, |_| {
        for &a in hot {
            black_box(memory.read_word(a));
        }
    });
    out.put("membuf.memory.read_word_ns", read_word);
    let write_word = ns_per_call(effort, &mut (), hot.len(), no_prepare, |_| {
        for &a in hot {
            memory.write_word(a, black_box(a));
        }
    });
    out.put("membuf.memory.write_word_ns", write_word);

    // ----- CommitLog: the per-access calls ----------------------------
    let snapshot = ns_per_call(effort, &mut (), hot.len(), no_prepare, |_| {
        for &a in hot {
            black_box(log.snapshot(a));
        }
    });
    out.put("membuf.commitlog.snapshot_ns", snapshot);
    let register = ns_per_call(effort, &mut (), hot.len(), no_prepare, |_| {
        for &a in hot {
            black_box(log.register_reader(a, 1));
        }
    });
    out.put("membuf.commitlog.register_reader_ns", register);
    // What a direct store of rank 0 does after the memory write: one
    // single-word stamp, then enumerate-and-clear the range's readers —
    // a registered one on a range's first store, none after.
    let record_word = ns_per_call(effort, &mut (), hot.len(), no_prepare, |_| {
        for &a in hot {
            black_box(log.record_word(a));
        }
    });
    out.put("membuf.commitlog.record_word_ns", record_word);
    let register_all = |_: &mut ()| {
        for &a in first_touch {
            log.register_reader(a, 1);
        }
    };
    let take_readers = ns_per_call(effort, &mut (), hot.len(), register_all, |_| {
        for &a in hot {
            black_box(log.take_readers([a]));
        }
    });
    out.put("membuf.commitlog.take_readers_ns", take_readers);

    // ----- GlobalBuffer: speculative loads -----------------------------
    let mut buffer = GlobalBuffer::for_reader(config, 1);
    let load = |b: &mut GlobalBuffer, a: Addr| {
        let _ = black_box(b.load_logged(&memory, Some(&log), a, WORD_BYTES));
    };
    let load_miss = ns_per_call(
        effort,
        &mut buffer,
        first_touch.len(),
        GlobalBuffer::clear,
        |b| {
            for &a in first_touch {
                load(b, a);
            }
        },
    );
    out.put("membuf.buffer.load_miss_ns", load_miss);
    let load_hit = ns_per_call(effort, &mut buffer, hot.len(), no_prepare, |b| {
        for &a in hot {
            load(b, a);
        }
    });
    out.put("membuf.buffer.load_hit_ns", load_hit);

    // ----- join time: validate, commit, stamp, clear -------------------
    // Nothing stamped the log since the buffer's snapshots, so the pass
    // visits every word instead of stopping at a conflict.
    let validate = ns_per_call(effort, &mut buffer, first_touch.len(), no_prepare, |b| {
        assert!(
            black_box(b.validate_against(&log)),
            "an undisturbed read-set validates"
        );
    });
    out.put("membuf.buffer.validate_ns_per_word", validate);
    // One range in eight committed since the snapshot: those probes go
    // through the version ring, the rest take the unwritten fast path.
    let snapshots: Vec<u64> = first_touch.iter().map(|&a| log.snapshot(a)).collect();
    log.record(first_touch.iter().copied().step_by(8));
    let probe = ns_per_call(effort, &mut (), first_touch.len(), no_prepare, |_| {
        for (&a, &version) in first_touch.iter().zip(&snapshots) {
            black_box(log.probe_written(a, version));
        }
    });
    out.put("membuf.commitlog.probe_ns", probe);

    let store = ns_per_call(
        effort,
        &mut buffer,
        first_touch.len(),
        GlobalBuffer::clear,
        |b| {
            for &a in first_touch {
                let _ = black_box(b.store(a, a, WORD_BYTES));
            }
        },
    );
    out.put("membuf.buffer.store_ns", store);
    let commit = ns_per_call(effort, &mut buffer, first_touch.len(), no_prepare, |b| {
        b.commit(&memory);
    });
    out.put("membuf.buffer.commit_ns_per_word", commit);
    // A committing thread stamps its write-set as one batch; 64 words is
    // a chunk's worth.
    let stamp_batches = |_: &mut ()| {
        for batch in first_touch.chunks(64) {
            black_box(log.record(batch.iter().copied()));
        }
    };
    let stamps_before = log.stats().stamp_writes;
    stamp_batches(&mut ());
    let ranges_per_pass = (log.stats().stamp_writes - stamps_before) as usize;
    let record_batch = ns_per_call(effort, &mut (), ranges_per_pass, no_prepare, stamp_batches);
    out.put("membuf.commitlog.record_batch_ns_per_range", record_batch);
    let fill = |b: &mut GlobalBuffer| {
        for &a in first_touch {
            load(b, a);
            let _ = b.store(a, a, WORD_BYTES);
        }
    };
    let clear = ns_per_call(
        effort,
        &mut buffer,
        2 * first_touch.len(),
        fill,
        GlobalBuffer::clear,
    );
    out.put("membuf.buffer.clear_ns_per_word", clear);

    // ----- the grain controller, on this log's region telemetry --------
    let profiles = log.region_profiles();
    let mut controller =
        GrainController::new(GrainControlConfig::adaptive(), log.config().grain_log2);
    let slow = Effort {
        calls: effort.slow_calls,
        ..effort
    };
    let tick = ns_per_call(slow, &mut controller, 1, no_prepare, |c| {
        black_box(c.tick(&profiles));
    });
    out.put("adaptive.grain.tick_ns", tick);
}

fn runtime<K: Kernel>(kernel: &K, replay: &Replay, effort: Effort, out: &mut Measured) {
    // One speculative CPU: the probes need one forked task at a time,
    // and rank 0 plus one worker fit every host.
    let rt = Runtime::new(RuntimeConfig::with_cpus(1).memory_bytes(kernel.arena_bytes()));
    kernel.setup(&rt.memory());
    let hot = Arc::new(replay.hot.clone());
    let passes = effort.calls.div_ceil(hot.len());
    let calls = (passes * hot.len()) as f64;

    // ----- rank 0, no forks: the direct path ---------------------------
    let direct = |store: bool| {
        let rounds: Vec<f64> = (0..effort.rounds)
            .map(|_| {
                let (ns, _) = rt.run(|ctx| {
                    let started = Instant::now();
                    replay_through(ctx, &hot, passes, store)?;
                    Ok(started.elapsed().as_nanos() as f64 / calls)
                });
                ns
            })
            .collect();
        Summary::fastest(&rounds)
    };
    out.put("runtime.direct_load_ns", direct(false));
    out.put("runtime.direct_store_ns", direct(true));

    // ----- inside one forked task: the speculative path ----------------
    let speculative = |store: bool| {
        let rounds: Vec<f64> = (0..effort.rounds)
            .map(|_| {
                // Written only by a task that ran speculatively; an
                // inline re-execution at the join leaves it alone.
                let timed_ns = Arc::new(AtomicU64::new(0));
                let (hot, sink) = (Arc::clone(&hot), Arc::clone(&timed_ns));
                let body = task(move |ctx: &mut SpecContext| {
                    let started = Instant::now();
                    replay_through(ctx, &hot, passes, store)?;
                    if ctx.is_speculative() {
                        sink.store(started.elapsed().as_nanos() as u64, Ordering::SeqCst);
                    }
                    Ok(())
                });
                rt.run(|ctx| {
                    let handle = ctx.fork(0, Arc::clone(&body))?;
                    ctx.join(handle)?;
                    Ok(())
                });
                let ns = timed_ns.load(Ordering::SeqCst);
                assert!(ns > 0, "the probe task ran speculatively");
                ns as f64 / calls
            })
            .collect();
        Summary::fastest(&rounds)
    };
    out.put("runtime.spec_load_ns", speculative(false));
    out.put("runtime.spec_store_ns", speculative(true));

    // ----- fork → commit → join of an empty task -----------------------
    let empty = task(|_: &mut SpecContext| Ok(()));
    let trips = effort.slow_calls;
    let rounds: Vec<f64> = (0..effort.rounds)
        .map(|_| {
            let (ns, _) = rt.run(|ctx| {
                let started = Instant::now();
                for _ in 0..trips {
                    let handle = ctx.fork(1, Arc::clone(&empty))?;
                    black_box(ctx.join(handle)? == JoinOutcome::Committed);
                }
                Ok(started.elapsed().as_nanos() as f64 / trips as f64)
            });
            ns
        })
        .collect();
    out.put("runtime.fork_join_ns", Summary::fastest(&rounds));

    // ----- a fork with no free CPU -------------------------------------
    // A blocker task holds the only CPU, as a joiner does in a chunk
    // loop; every fork behind it is denied and only `fork` is timed.
    let batch = 1 << 10;
    let batches = effort.calls.div_ceil(batch);
    let rounds: Vec<f64> = (0..effort.rounds)
        .map(|_| {
            let release = Arc::new(AtomicBool::new(false));
            let held = Arc::clone(&release);
            let blocker = task(move |ctx: &mut SpecContext| {
                while !held.load(Ordering::Acquire) {
                    ctx.check_point()?;
                    std::hint::spin_loop();
                }
                Ok(())
            });
            let (ns, report) = rt.run(|ctx| {
                let blocked = ctx.fork(2, Arc::clone(&blocker))?;
                let mut handles = Vec::with_capacity(batch);
                let mut timed = Duration::ZERO;
                for _ in 0..batches {
                    let started = Instant::now();
                    for _ in 0..batch {
                        handles.push(ctx.fork(3, Arc::clone(&empty))?);
                    }
                    timed += started.elapsed();
                    for handle in handles.drain(..) {
                        ctx.join(handle)?;
                    }
                }
                release.store(true, Ordering::Release);
                ctx.join(blocked)?;
                Ok(timed.as_nanos() as f64 / (batches * batch) as f64)
            });
            assert_eq!(
                report.critical.counters.failed_forks,
                (batches * batch) as u64,
                "every fork behind the blocker was denied"
            );
            ns
        })
        .collect();
    out.put("runtime.fork_denied_ns", Summary::fastest(&rounds));
}

/// `passes` passes over `hot` through `ctx`, all loads or all stores.
fn replay_through(
    ctx: &mut SpecContext,
    hot: &[Addr],
    passes: usize,
    store: bool,
) -> SpecResult<()> {
    for _ in 0..passes {
        for &a in hot {
            if store {
                ctx.store_word(a, black_box(a))?;
            } else {
                black_box(ctx.load_word(a)?);
            }
        }
    }
    Ok(())
}

/// Governor, flight recorder and metrics registry: workload-independent
/// calls, predicted to move nothing at the default configuration.
fn control_planes(effort: Effort, out: &mut Measured) {
    let calls = effort.calls;
    let governor = Governor::new(GovernorConfig::default());
    let decide = ns_per_call(effort, &mut (), calls, no_prepare, |_| {
        for _ in 0..calls {
            black_box(governor.decide(black_box(12), ForkModel::Mixed));
        }
    });
    out.put("adaptive.governor.decide_ns", decide);
    let outcome = SiteOutcome::committed(100, 10, ForkModel::Mixed);
    let record = ns_per_call(effort, &mut (), calls, no_prepare, |_| {
        for _ in 0..calls {
            governor.record_outcome(black_box(12), black_box(&outcome));
        }
    });
    out.put("adaptive.governor.record_outcome_ns", record);

    let event = TraceEvent {
        ts: 1,
        rank: 1,
        site: 12,
        epoch: 1,
        kind: EventKind::Commit,
    };
    for (name, recorder) in [
        ("trace.emit_disabled_ns", Recorder::disabled()),
        (
            "trace.emit_enabled_ns",
            Recorder::new(TraceConfig::enabled(), 2),
        ),
    ] {
        let emit = ns_per_call(effort, &mut (), calls, no_prepare, |_| {
            for _ in 0..calls {
                black_box(&recorder).emit(black_box(event));
            }
        });
        out.put(name, emit);
    }
    for (name, config) in [
        ("metrics.add_disabled_ns", MetricsConfig::default()),
        ("metrics.add_enabled_ns", MetricsConfig::enabled()),
    ] {
        let registry = Registry::new(config, 2);
        let add = ns_per_call(effort, &mut (), calls, no_prepare, |_| {
            for _ in 0..calls {
                black_box(&registry).add(black_box(1), CounterId::Forks, 1);
            }
        });
        out.put(name, add);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use mutls_runtime::DirectContext;

    /// The tap is the sequential context: same checksum, same op totals.
    fn tap_matches_direct<K: Kernel>(kernel: K) {
        let memory = Arc::new(GlobalMemory::new(kernel.arena_bytes()));
        let data = kernel.setup(&memory);
        let mut direct = DirectContext::new(Arc::clone(&memory));
        kernel.run(&mut direct, data).unwrap();
        let (tape, checksum) = tap(&kernel);
        assert_eq!(checksum, kernel.result(&memory, &data));
        assert_eq!(tape.ops_total(), direct.memory_ops());
        assert_eq!(
            tape.ops().count() as u64,
            tape.ops_total().min(crate::tap::TAP_CAPACITY as u64)
        );
        assert_eq!(
            tape.ops().filter(|op| op.1).count() as u64,
            tape.stores.min(tape.ops().count() as u64)
        );
    }

    #[test]
    fn tap_context_agrees_with_direct_context_on_every_kernel() {
        tap_matches_direct(kernels::compute_loop(true));
        tap_matches_direct(kernels::md_steps(300, true));
        tap_matches_direct(kernels::md_steps(40, true));
        tap_matches_direct(kernels::tree_writes(true));
        tap_matches_direct(kernels::conflict_mix(7, true));
    }

    #[test]
    fn replay_keeps_words_a_default_buffer_holds_without_spilling() {
        let (tape, _) = tap(&kernels::tree_writes(true));
        let replay = Replay::of(&tape);
        let config = BufferConfig::default();
        let mut map = WordMap::new(config.read_capacity_words, config.overflow_capacity);
        for &a in &replay.first_touch {
            map.insert_word(a, 0).expect("no spill");
        }
        assert!(!map.overflow_pending() && !replay.first_touch.is_empty());
        assert!(replay.hot.len() >= replay.first_touch.len());
    }

    #[test]
    fn every_probe_gives_a_positive_cost() {
        let kernel = kernels::md_steps(40, true);
        let (tape, _) = tap(&kernel);
        let mut measured = Measured::default();
        let effort = Effort {
            calls: 1 << 10,
            slow_calls: 1 << 4,
            rounds: 1,
        };
        layer_costs(&kernel, &tape, effort, &mut measured);
        for (name, _, summary) in measured.per_layer() {
            let timed = name.ends_with("_ns") || name.contains("_ns_per_");
            let counted = name.starts_with("simcpu.") || name == "membuf.commitlog.lock_ns";
            if timed && !counted {
                assert!(summary.value > 0.0, "{name} = {}", summary.value);
            }
        }
    }
}
