//! # mutls-trace — the speculation flight recorder
//!
//! Every speculative thread writes lifecycle events ([`TraceEvent`]) into
//! its own bounded, lock-free SPSC ring ([`EventRing`]) with drop-oldest
//! overflow semantics; when tracing is disabled the hot path costs exactly
//! one predictable branch ([`Recorder::enabled`]).  On top of the event
//! stream, per-phase durations are folded into always-on log2-bucket
//! latency histograms ([`LatencyRecorder`]) whose p50/p99/p999 quantiles
//! surface as `RunReport.latency`.  Drained event streams export to Chrome
//! trace-event JSON ([`chrome_trace_json`]) loadable in Perfetto or
//! `chrome://tracing`.
//!
//! The crate is a leaf: it knows nothing about the runtime, simulator or
//! harness.  Each layer maps its own vocabulary (rollback reasons,
//! recovery plans, fork policies) onto the small export enums here.

#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod histogram;
pub mod ring;

pub use chrome::{chrome_trace_json, TraceRun};
pub use event::{DenyPolicy, EventKind, PlanArm, RollbackCause, TraceEvent, ValidateOutcome};
pub use histogram::{Histogram, LatencyPhase, LatencyRecorder, LatencyReport, LatencyRow};
pub use ring::EventRing;

/// Per-rank ring capacity in events (drop-oldest beyond this).
const RING_CAPACITY: usize = 4096;

/// Recorder knobs carried inside a runtime configuration (`Copy` so the
/// owning config stays `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceConfig {
    /// Record lifecycle events into the per-rank rings.  Off by default:
    /// the disabled hot path is a single branch and the latency
    /// histograms stay on regardless.
    pub events: bool,
}

impl TraceConfig {
    /// Event tracing enabled.
    pub fn enabled() -> Self {
        TraceConfig { events: true }
    }
}

/// The flight recorder: one SPSC event ring per thread rank plus the
/// always-on latency histogram bank.
///
/// Constructed once per runtime with one ring per rank (`0..ranks`); each
/// rank's ring is written only by the thread running as that rank, which
/// is what makes the rings SPSC without any further coordination.  Event
/// drains happen at quiescence only (between runs).
pub struct Recorder {
    enabled: bool,
    rings: Vec<EventRing>,
    latency: LatencyRecorder,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled)
            .field("rings", &self.rings.len())
            .finish()
    }
}

impl Recorder {
    /// A recorder for ranks `0..ranks` under `config`, a ring of 4096
    /// events each.  When event tracing is off no rings are allocated at
    /// all — the recorder is just the latency histogram bank plus a
    /// `false` flag.
    pub fn new(config: TraceConfig, ranks: usize) -> Self {
        let rings = if config.events {
            (0..ranks).map(|_| EventRing::new(RING_CAPACITY)).collect()
        } else {
            Vec::new()
        };
        Recorder {
            enabled: config.events,
            rings,
            latency: LatencyRecorder::new(),
        }
    }

    /// A recorder with event tracing off (histograms still live).
    pub fn disabled() -> Self {
        Recorder::new(TraceConfig::default(), 0)
    }

    /// Whether lifecycle events are being recorded.  This is the one
    /// branch the disabled hot path pays.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record one lifecycle event into `ev.rank`'s ring.  No-op when
    /// disabled or when the rank has no ring.
    #[inline]
    pub fn emit(&self, ev: TraceEvent) {
        if !self.enabled {
            return;
        }
        if let Some(ring) = self.rings.get(ev.rank as usize) {
            ring.push(ev);
        }
    }

    /// The always-on latency histogram bank.
    #[inline]
    pub fn latency(&self) -> &LatencyRecorder {
        &self.latency
    }

    /// Snapshot the per-phase latency quantiles.
    pub fn latency_report(&self) -> LatencyReport {
        self.latency.report()
    }

    /// Drain every ring and merge the streams into one list ordered by
    /// `(ts, rank)`.  **Quiescence only** — no speculative thread may be
    /// emitting concurrently.
    pub fn drain_events(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self.rings.iter().flat_map(|r| r.drain()).collect();
        all.sort_by_key(|e| (e.ts, e.rank));
        all
    }

    /// Total events overwritten before they could be drained, across all
    /// rings.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped()).sum()
    }

    /// Discard buffered events, zero the drop counters and reset the
    /// latency histograms (start of a new run).
    pub fn reset(&self) {
        for ring in &self.rings {
            ring.reset();
        }
        self.latency.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, rank: u32) -> TraceEvent {
        TraceEvent {
            ts,
            rank,
            site: 0,
            epoch: 0,
            kind: EventKind::Commit,
        }
    }

    #[test]
    fn disabled_recorder_drops_everything_cheaply() {
        let rec = Recorder::disabled();
        assert!(!rec.enabled());
        rec.emit(ev(1, 0));
        assert!(rec.drain_events().is_empty());
        assert_eq!(rec.dropped(), 0);
        // Latency histograms still work with tracing off.
        rec.latency().record(LatencyPhase::Validation, 42);
        assert_eq!(rec.latency_report().total_samples(), 1);
    }

    #[test]
    fn enabled_recorder_merges_ranks_by_timestamp() {
        let rec = Recorder::new(TraceConfig::enabled(), 3);
        rec.emit(ev(30, 2));
        rec.emit(ev(10, 1));
        rec.emit(ev(20, 0));
        rec.emit(ev(10, 0));
        let events = rec.drain_events();
        let order: Vec<(u64, u32)> = events.iter().map(|e| (e.ts, e.rank)).collect();
        assert_eq!(order, vec![(10, 0), (10, 1), (20, 0), (30, 2)]);
    }

    #[test]
    fn out_of_range_rank_is_ignored() {
        let rec = Recorder::new(TraceConfig::enabled(), 1);
        rec.emit(ev(1, 5));
        assert!(rec.drain_events().is_empty());
    }

    #[test]
    fn reset_clears_events_and_latency() {
        // One two-event ring, so five events overflow it.
        let rec = Recorder {
            rings: vec![EventRing::new(2)],
            ..Recorder::new(TraceConfig::enabled(), 0)
        };
        for i in 0..5 {
            rec.emit(ev(i, 0));
        }
        rec.latency().record(LatencyPhase::ForkToCommit, 7);
        assert!(rec.dropped() > 0);
        rec.reset();
        assert!(rec.drain_events().is_empty());
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.latency_report().total_samples(), 0);
    }
}
