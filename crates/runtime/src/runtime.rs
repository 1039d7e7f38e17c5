//! The [`Runtime`] facade: owns the virtual CPUs, the worker threads that
//! (with the caller of `run`) execute what is dispatched to them, the
//! shared memory arena and the speculative region entry point.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mutls_membuf::{GPtr, GlobalMemory};
use mutls_metrics::{MetricsSeries, MetricsSnapshot, Sampler};

use crate::config::RuntimeConfig;
use crate::context::SpecContext;
use crate::ledger;
use crate::manager::{worker_loop, ThreadManager};
use crate::stats::RunReport;
use crate::task::{SpecResult, Word};

/// A native MUTLS runtime instance.
///
/// ```
/// use mutls_runtime::{Runtime, RuntimeConfig, SpecContext, TlsContext, task, JoinOutcome};
///
/// let rt = Runtime::new(RuntimeConfig::with_cpus(2).memory_bytes(1 << 16));
/// let data = rt.alloc::<i64>(8);
/// let mem = rt.memory();
/// for i in 0..8 {
///     mem.set(&data, i, i as i64);
/// }
/// let (sum, report) = rt.run(|ctx| {
///     let continuation = task(move |ctx: &mut SpecContext| {
///         let mut acc = 0;
///         for i in 4..8 {
///             acc += ctx.load(&data, i)?;
///         }
///         ctx.store(&data, 7, acc)?;
///         ctx.barrier()
///     });
///     let handle = ctx.fork(0, continuation)?;
///     let mut acc = 0;
///     for i in 0..4 {
///         acc += ctx.load(&data, i)?;
///     }
///     let _ = ctx.join(handle)?;
///     acc += ctx.load(&data, 7)?;
///     Ok(acc)
/// });
/// assert_eq!(sum, 0 + 1 + 2 + 3 + (4 + 5 + 6 + 7));
/// assert!(report.runtime > 0);
/// ```
pub struct Runtime {
    mgr: Arc<ThreadManager>,
    workers: Vec<JoinHandle<()>>,
    /// Background metrics sampler (None unless the metrics plane is
    /// enabled with a non-zero interval).  Stopped before the workers
    /// shut down so no scrape observes a torn-down manager.
    sampler: Option<Sampler>,
}

impl Runtime {
    /// Create a runtime with `config.num_cpus` speculative virtual CPUs and
    /// as many worker OS threads.  Any of them — and, while it is displaced
    /// at a join, the thread calling [`run`](Self::run) — executes any
    /// dispatched task (see the [`manager`](crate::manager) docs).
    pub fn new(config: RuntimeConfig) -> Self {
        let mgr = ThreadManager::new(config);
        let workers = (1..=config.num_cpus)
            .map(|i| {
                let mgr = Arc::clone(&mgr);
                std::thread::Builder::new()
                    .name(format!("mutls-worker-{i}"))
                    .spawn(move || worker_loop(mgr))
                    .expect("spawn worker thread")
            })
            .collect();
        let sampler =
            (config.metrics.enabled && config.metrics.sample_interval_ms > 0).then(|| {
                let mgr = Arc::clone(&mgr);
                Sampler::spawn(
                    Duration::from_millis(config.metrics.sample_interval_ms),
                    move || mgr.sample_metrics(),
                )
            });
        Runtime {
            mgr,
            workers,
            sampler,
        }
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        self.mgr.config()
    }

    /// Shared main memory arena.
    pub fn memory(&self) -> Arc<GlobalMemory> {
        Arc::clone(self.mgr.memory())
    }

    /// Low-level access to the thread manager (tests drive its protocols
    /// and read its commit log through it).
    pub fn manager(&self) -> &Arc<ThreadManager> {
        &self.mgr
    }

    /// Allocate `count` elements of `T` in the shared arena; what the
    /// arena hands out is what a speculative access may touch
    /// ([`GlobalMemory::is_allocated`]).
    pub fn alloc<T: Word>(&self, count: usize) -> GPtr<T> {
        self.mgr.memory().alloc::<T>(count)
    }

    /// Execute a speculative region on the calling thread (rank 0) and
    /// return its value together with the run report.
    ///
    /// # Panics
    /// Panics if the root closure itself aborts (e.g. calls
    /// [`TlsContext::barrier`](crate::TlsContext::barrier) at rank 0),
    /// which indicates a program structure error.
    pub fn run<R>(&self, f: impl FnOnce(&mut SpecContext) -> SpecResult<R>) -> (R, RunReport) {
        let (result, report) = self.try_run(f);
        match result {
            Ok(value) => (value, report),
            Err(abort) => panic!("non-speculative region aborted: {abort:?}"),
        }
    }

    /// Like [`run`](Self::run) but surfaces an abort of the root closure
    /// instead of panicking.
    pub fn try_run<R>(
        &self,
        f: impl FnOnce(&mut SpecContext) -> SpecResult<R>,
    ) -> (SpecResult<R>, RunReport) {
        self.mgr.reset_run();
        let started = Instant::now();
        let mut ctx = SpecContext::non_speculative(Arc::clone(&self.mgr));
        let result = f(&mut ctx);
        let (critical, unjoined) = ctx.finish();
        // Anything never joined is drained so its CPU is reclaimed and its
        // (wasted) work is accounted for.
        for child in unjoined {
            self.mgr.drain_subtree(child);
        }
        // Threads orphaned by a reap were aborted and stop within one poll
        // interval; only then are the totals final, and the report equal
        // to any later scrape.
        self.mgr.wait_quiescent();
        let runtime = started.elapsed().as_nanos() as u64;
        let mut report = RunReport {
            critical,
            speculative: self.mgr.run_snapshot(),
            runtime,
            sites: self.mgr.governor().snapshot(),
            commit_log: self.mgr.commit_log().stats(),
            latency: self.mgr.recorder().latency_report(),
            ..RunReport::default()
        };
        ledger::read_counts(self.mgr.metrics().registry(), &mut report);
        if self.mgr.config().metrics.enabled {
            // The series ends with the run's final scrape however few
            // sampler ticks the run outlasted.
            self.mgr.sample_metrics();
        }
        (result, report)
    }

    /// Drain the flight recorder's buffered lifecycle events (merged
    /// across all lanes, ordered by timestamp).  Empty unless
    /// [`RuntimeConfig::trace`] enabled event tracing.  Call between
    /// runs — the recorder requires quiescence to drain.
    pub fn drain_trace_events(&self) -> Vec<mutls_trace::TraceEvent> {
        self.mgr.recorder().drain_events()
    }

    /// Events overwritten in the recorder's rings before they could be
    /// drained (ring-capacity pressure).
    pub fn trace_dropped(&self) -> u64 {
        self.mgr.recorder().dropped()
    }

    /// Scrape every telemetry source right now into one aggregated
    /// snapshot (without appending it to the series).  The registry's
    /// counters count whether or not [`RuntimeConfig::metrics`] is
    /// enabled — after a run they read the report's counts; disabled, the
    /// in-flight gauge and the histograms read zero.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.mgr.scrape_metrics(self.mgr.trace_now_ns())
    }

    /// The sampler-filled bounded time series collected so far (clone).
    pub fn metrics_series(&self) -> MetricsSeries {
        self.mgr.metrics().series()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Stop sampling first: a scrape must never race worker teardown.
        if let Some(sampler) = &mut self.sampler {
            sampler.stop();
        }
        self.mgr.shutdown_workers();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}
