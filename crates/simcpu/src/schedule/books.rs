//! The replay's side of the ledger: every lifecycle point goes through
//! [`ledger::observe`] with the virtual clock and the publishes so far as
//! its epoch, and the metrics series is sampled off that clock.

use super::*;

impl<'a> Scheduler<'a> {
    /// Write `point`, reached at virtual time `ts`, down in the books of
    /// fiber `fid` (see [`ledger::observe`]); the event, if the point has
    /// one, goes on `lane` = (rank, site).
    pub(super) fn observe(&mut self, ts: u64, lane: (u32, u32), fid: usize, point: Point) {
        let counters = &mut self.fibers[fid].stats.counters;
        let at = (ts, self.sim_commits);
        ledger::observe(&mut self.books, at, lane.0, lane.1, counters, point);
    }

    /// The lane of fiber `fid`'s own events: its CPU and its fork site.
    pub(super) fn lane_of(&self, fid: usize) -> (u32, u32) {
        (self.fibers[fid].cpu as u32, self.fibers[fid].site)
    }

    /// Append one snapshot stamped at the largest cadence boundary not
    /// past `now`, and re-arm the next tick.
    pub(super) fn sample_metrics(&mut self, now: u64) {
        let cadence = self.config.metrics.sim_cadence_cycles.max(1);
        let ts = now - now % cadence;
        let snapshot = self.scrape_metrics(ts);
        self.metrics_series.push(snapshot);
        self.next_metrics_tick = ts + cadence;
    }

    /// One [`MetricsSnapshot`] at virtual timestamp `ts`, through the
    /// scrape the native runtime uses.
    pub(super) fn scrape_metrics(&self, ts: u64) -> MetricsSnapshot {
        let census: Vec<(u32, u64)> = self.grain_census().into_iter().collect();
        ledger::scrape(
            &self.books,
            ts,
            &self.log_stats(),
            &self.governor.snapshot(),
            &census,
        )
    }

    /// Simulated log traffic: publish batches, range stamps at the live
    /// per-region grains, and controller regrains.
    pub(super) fn log_stats(&self) -> CommitLogStats {
        CommitLogStats {
            commits: self.sim_commits,
            stamp_writes: self.sim_stamps,
            // A wall-clock quantity.
            lock_ns: 0,
            cas_retries: self.sim_cas_retries,
            regrains: self.sim_regrains,
            // The simulator models reader tracking abstractly and never
            // spills past the bitmask window.
            reader_spills: 0,
            ring_overflows: self.sim_ring_overflows,
            grain_log2: self.config.commit_log.grain_log2,
            shards: self.config.commit_log.shards,
            ring_depth: self.config.commit_log.ring_depth,
        }
    }
}
