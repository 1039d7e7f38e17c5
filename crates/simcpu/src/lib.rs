//! # mutls-simcpu — deterministic multicore simulation for MUTLS
//!
//! The paper evaluates MUTLS on a 64-core AMD Opteron 6274.  This crate
//! substitutes for that machine: it executes a speculative program *once,
//! sequentially*, recording the task tree induced by its fork/join
//! annotations ([`RecordContext`] / [`Recording`]), and then replays the
//! trace on any number of virtual CPUs with a discrete-event scheduler
//! ([`Scheduler`]) under a configurable [`CostModel`], forking model and
//! injected rollback probability.
//!
//! Results are deterministic and independent of the host's core count, so
//! the paper's speedup curves, efficiency metrics, breakdowns and
//! forking-model comparisons (Figures 3–11) can be regenerated anywhere.
//!
//! ```
//! use std::sync::Arc;
//! use mutls_membuf::GlobalMemory;
//! use mutls_runtime::{task, TlsContext};
//! use mutls_simcpu::{record_region, simulate, RecordContext, SimConfig};
//!
//! let memory = Arc::new(GlobalMemory::new(1 << 16));
//! let out = memory.alloc::<i64>(2);
//! let recording = record_region(Arc::clone(&memory), |ctx| {
//!     let second = task(move |ctx: &mut RecordContext| {
//!         ctx.work(100_000)?;
//!         ctx.store(&out, 1, 2)?;
//!         ctx.barrier()
//!     });
//!     let h = ctx.fork(0, second)?;
//!     ctx.work(100_000)?;
//!     ctx.store(&out, 0, 1)?;
//!     ctx.join(h)?;
//!     Ok(())
//! });
//! let result = simulate(&recording, SimConfig::with_cpus(1));
//! assert!(result.speedup() > 1.5, "two halves overlap on 1+1 CPUs");
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod record;
pub mod runs;
pub mod schedule;
mod simlog;

pub use cost::CostModel;
pub use mutls_metrics::{MetricsConfig, MetricsSeries, MetricsSnapshot};
pub use record::{NodeId, RecordContext, Recording, Segment, SimEvent, TaskNode};
pub use runs::{Run, Runs};
pub use schedule::{simulate, Scheduler, SimConfig, SimResult};

use std::sync::Arc;

use mutls_membuf::GlobalMemory;
use mutls_runtime::{SpecAbort, SpecResult};

/// Record the speculative region `f` against `memory`, producing a
/// [`Recording`] that can be simulated any number of times.
///
/// The closure is executed exactly once, sequentially, so all of its
/// memory effects are applied to `memory` (program results are correct
/// regardless of later simulated speculation decisions).
///
/// # Panics
/// Panics if the region itself aborts (which indicates a structural error
/// in the workload, not a speculation failure).
pub fn record_region<F>(memory: Arc<GlobalMemory>, f: F) -> Recording
where
    F: FnOnce(&mut RecordContext) -> SpecResult<()>,
{
    let mut ctx = RecordContext::new(memory);
    match f(&mut ctx) {
        Ok(()) | Err(SpecAbort::BarrierReached) => {}
        Err(other) => panic!("recording aborted: {other:?}"),
    }
    ctx.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutls_runtime::{task, ForkModel, TlsContext};

    /// Build a chain-of-chunks recording: `chunks` chunks of `work` units,
    /// each chunk forking the continuation that processes the rest
    /// (the loop-speculation pattern).
    fn chain_recording(chunks: usize, work: u64) -> Recording {
        let memory = Arc::new(GlobalMemory::new(1 << 20));
        let out = memory.alloc::<i64>(chunks);
        fn run(
            ctx: &mut RecordContext,
            out: mutls_membuf::GPtr<i64>,
            i: usize,
            chunks: usize,
            work: u64,
        ) -> SpecResult<()> {
            if i + 1 < chunks {
                let cont = task(move |ctx: &mut RecordContext| run(ctx, out, i + 1, chunks, work));
                let h = ctx.fork(0, cont)?;
                ctx.work(work)?;
                ctx.store(&out, i, i as i64)?;
                ctx.join(h)?;
            } else {
                ctx.work(work)?;
                ctx.store(&out, i, i as i64)?;
            }
            Ok(())
        }
        record_region(Arc::clone(&memory), |ctx| run(ctx, out, 0, chunks, work))
    }

    /// A divide-and-conquer tree recording of depth `depth`.
    fn tree_recording(depth: u32, leaf_work: u64) -> Recording {
        let memory = Arc::new(GlobalMemory::new(1 << 20));
        fn run(ctx: &mut RecordContext, depth: u32, leaf_work: u64) -> SpecResult<()> {
            if depth == 0 {
                return ctx.work(leaf_work);
            }
            let cont = task(move |ctx: &mut RecordContext| {
                run(ctx, depth - 1, leaf_work)?;
                ctx.barrier()
            });
            let h = ctx.fork(depth, cont)?;
            run(ctx, depth - 1, leaf_work)?;
            ctx.join(h)?;
            Ok(())
        }
        record_region(memory, |ctx| run(ctx, depth, leaf_work))
    }

    #[test]
    fn chain_speedup_scales_with_cpus() {
        let rec = chain_recording(32, 50_000);
        let s1 = simulate(&rec, SimConfig::with_cpus(1)).speedup();
        let s4 = simulate(&rec, SimConfig::with_cpus(4)).speedup();
        let s16 = simulate(&rec, SimConfig::with_cpus(16)).speedup();
        assert!(s1 > 1.0, "s1 = {s1}");
        assert!(s4 > s1, "s4 = {s4} vs s1 = {s1}");
        assert!(s16 > s4 * 1.5, "s16 = {s16} vs s4 = {s4}");
        assert!(s16 < 32.0);
    }

    #[test]
    fn out_of_order_bounds_loop_parallelism_to_two_threads() {
        let rec = chain_recording(32, 50_000);
        let mixed = simulate(&rec, SimConfig::with_cpus(16)).speedup();
        let ooo = simulate(
            &rec,
            SimConfig::with_cpus(16).fork_model(ForkModel::OutOfOrder),
        )
        .speedup();
        assert!(ooo <= 2.2, "out-of-order speedup should be ≈2, got {ooo}");
        assert!(mixed > ooo * 2.0, "mixed {mixed} vs out-of-order {ooo}");
    }

    #[test]
    fn in_order_matches_mixed_on_chains_but_not_trees() {
        let chain = chain_recording(32, 50_000);
        let in_order = simulate(
            &chain,
            SimConfig::with_cpus(16).fork_model(ForkModel::InOrder),
        )
        .speedup();
        let mixed = simulate(&chain, SimConfig::with_cpus(16)).speedup();
        assert!(
            (in_order / mixed) > 0.8,
            "in-order {in_order} vs mixed {mixed}"
        );

        let tree = tree_recording(6, 20_000);
        let in_order_tree = simulate(
            &tree,
            SimConfig::with_cpus(16).fork_model(ForkModel::InOrder),
        )
        .speedup();
        let mixed_tree = simulate(&tree, SimConfig::with_cpus(16)).speedup();
        assert!(
            mixed_tree > in_order_tree * 1.3,
            "mixed {mixed_tree} should beat in-order {in_order_tree} on tree recursion"
        );
    }

    #[test]
    fn conflicts_cause_rollbacks_and_hurt_speedup() {
        let memory = Arc::new(GlobalMemory::new(1 << 16));
        let shared = memory.alloc::<i64>(4);
        let rec = record_region(Arc::clone(&memory), |ctx| {
            let shared2 = shared;
            let cont = task(move |ctx: &mut RecordContext| {
                ctx.work(10_000)?;
                // Reads an address the parent writes during S1 → conflict.
                let v = ctx.load(&shared2, 0)?;
                ctx.store(&shared2, 1, v + 1)?;
                ctx.barrier()
            });
            let h = ctx.fork(0, cont)?;
            ctx.work(10_000)?;
            ctx.store(&shared, 0, 99)?;
            ctx.join(h)?;
            Ok(())
        });
        let result = simulate(&rec, SimConfig::with_cpus(2));
        assert_eq!(result.report.rolled_back_threads, 1);
        assert!(result.speedup() < 1.1, "rollback removes the overlap");
        // Correctness of the recording itself is unaffected.
        assert_eq!(rec.memory.get(&shared, 1), 100);
    }

    #[test]
    fn injected_rollbacks_degrade_performance_monotonically() {
        let rec = chain_recording(32, 50_000);
        let clean = simulate(&rec, SimConfig::with_cpus(8)).speedup();
        let some = simulate(&rec, SimConfig::with_cpus(8).rollback_probability(0.2)).speedup();
        let all = simulate(&rec, SimConfig::with_cpus(8).rollback_probability(1.0)).speedup();
        assert!(clean > some, "clean {clean} vs 20% {some}");
        assert!(some > all, "20% {some} vs 100% {all}");
        assert!(all <= 1.05, "all-rollback is sequential or worse: {all}");
    }

    #[test]
    fn simulation_is_deterministic() {
        let rec = tree_recording(5, 10_000);
        let a = simulate(&rec, SimConfig::with_cpus(7).rollback_probability(0.3));
        let b = simulate(&rec, SimConfig::with_cpus(7).rollback_probability(0.3));
        assert_eq!(a.parallel_cycles, b.parallel_cycles);
        assert_eq!(a.report.rolled_back_threads, b.report.rolled_back_threads);
    }

    #[test]
    fn trace_event_stream_is_deterministic_and_causal() {
        use mutls_trace::EventKind;
        use serde::Serialize;

        let rec = chain_recording(16, 20_000);
        let config = || {
            SimConfig::with_cpus(4)
                .rollback_probability(0.25)
                .trace(true)
        };
        let a = simulate(&rec, config());
        let b = simulate(&rec, config());
        assert!(!a.events.is_empty(), "tracing on records events");

        // Byte-identical streams across two identical runs: the flight
        // recorder must never leak host state or hash order into the
        // deterministic replay.
        let json = |events: &[mutls_trace::TraceEvent]| {
            let mut out = String::new();
            for event in events {
                event.serialize_json(&mut out);
                out.push('\n');
            }
            out
        };
        assert_eq!(json(&a.events), json(&b.events));

        // The causal chain is present: forks start threads, validations
        // bracket joins, and the injected rollbacks surface as events.
        let count =
            |pred: fn(&EventKind) -> bool| a.events.iter().filter(|e| pred(&e.kind)).count();
        assert!(count(|k| matches!(k, EventKind::SpecStart { .. })) > 0);
        assert!(count(|k| matches!(k, EventKind::Commit)) > 0);
        assert!(count(|k| matches!(k, EventKind::Rollback { .. })) > 0);
        assert_eq!(
            count(|k| matches!(k, EventKind::ValidateBegin { .. })),
            count(|k| matches!(k, EventKind::ValidateEnd { .. })),
        );
        // Timestamps are monotone within each lane (virtual time).
        for rank in a
            .events
            .iter()
            .map(|e| e.rank)
            .collect::<std::collections::BTreeSet<_>>()
        {
            let lane: Vec<u64> = a
                .events
                .iter()
                .filter(|e| e.rank == rank)
                .map(|e| e.ts)
                .collect();
            assert!(
                lane.windows(2).all(|w| w[0] <= w[1]),
                "lane {rank} monotone"
            );
        }

        // The histograms are always on — even an untraced run reports
        // validation latency — while the event stream stays empty.
        let untraced = simulate(&rec, SimConfig::with_cpus(4));
        assert!(untraced.events.is_empty());
        let validation = untraced
            .report
            .latency
            .phases
            .iter()
            .find(|row| row.phase == "validation")
            .expect("validation row");
        assert!(validation.count > 0);
    }

    #[test]
    fn report_phases_cover_runtime() {
        let rec = tree_recording(5, 10_000);
        let result = simulate(&rec, SimConfig::with_cpus(8));
        let report = &result.report;
        assert!(report.critical_path_efficiency() > 0.0);
        assert!(report.critical_path_efficiency() <= 1.0);
        assert!(report.speculative_path_efficiency() > 0.0);
        assert!(report.coverage() > 0.0);
        assert!(result.power_efficiency() <= 1.05);
        // Every speculative thread launched was either committed or rolled
        // back (re-executions may launch more threads than there are tasks).
        assert!(report.committed_threads + report.rolled_back_threads >= 1);
    }

    #[test]
    fn more_cpus_never_hurt_much() {
        let rec = tree_recording(7, 5_000);
        let s8 = simulate(&rec, SimConfig::with_cpus(8)).speedup();
        let s64 = simulate(&rec, SimConfig::with_cpus(64)).speedup();
        assert!(s64 >= s8 * 0.9, "s64 {s64} vs s8 {s8}");
    }
}
