//! The replay's side of the ledger: every lifecycle point goes through
//! [`ledger::observe`] with the virtual clock and the publishes so far as
//! its epoch, and the metrics series is sampled off that clock.

use super::*;

impl<'a> Scheduler<'a> {
    /// Write `point`, reached at virtual time `ts`, down on `lane` =
    /// (rank, site) (see [`ledger::observe`]).  The root's rank is 0 and
    /// every other fiber's a CPU past it, whose counts share the
    /// registry's control shard.
    pub(super) fn observe(&mut self, ts: u64, lane: (u32, u32), point: Point) {
        let at = (ts, self.sim_commits);
        ledger::observe(&mut self.books, at, lane.0, lane.1, point);
    }

    /// The lane of fiber `fid`'s own events: its CPU and its fork site.
    pub(super) fn lane_of(&self, fid: usize) -> (u32, u32) {
        (self.fibers[fid].cpu as u32, self.fibers[fid].site)
    }

    /// Append one snapshot stamped at the largest cadence boundary not
    /// past `now`, and re-arm the next tick.
    pub(super) fn sample_metrics(&mut self, now: u64) {
        let ts = now - now % METRICS_CADENCE_CYCLES;
        let snapshot = self.scrape_metrics(ts);
        self.books.metrics.push(snapshot);
        self.next_metrics_tick = ts + METRICS_CADENCE_CYCLES;
    }

    /// One [`MetricsSnapshot`] at virtual timestamp `ts`, through the
    /// scrape the native runtime uses.
    pub(super) fn scrape_metrics(&self, ts: u64) -> MetricsSnapshot {
        ledger::scrape(
            &self.books,
            ts,
            &self.log_stats(),
            &self.governor.snapshot(),
        )
    }

    /// Simulated log traffic: publish batches and range stamps.
    pub(super) fn log_stats(&self) -> CommitLogStats {
        CommitLogStats {
            commits: self.sim_commits,
            stamp_writes: self.sim_stamps,
            // A wall-clock quantity.
            lock_ns: 0,
            // One committer at a time: nothing to retry against.
            cas_retries: 0,
            // The simulator models reader tracking abstractly and never
            // spills past the bitmask window.
            reader_spills: 0,
            ring_overflows: self.sim_ring_overflows,
            grain_log2: self.config.commit_log.grain_log2,
            ring_depth: self.config.commit_log.ring_depth,
        }
    }
}
