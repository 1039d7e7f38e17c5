//! The commit log's **regrain protocol** — one region's grain moved under
//! live commits — and the per-region telemetry that decides when.
//!
//! ## Regrain protocol
//!
//! [`CommitLog::regrain`]`(region, new_grain_log2)` runs under the
//! owning shard's slow-path lock:
//!
//! 1. flip the region's sequence word to **odd** (`SeqCst`) — in-flight
//!    fast-path committers will observe the change after their CAS pass
//!    and re-stamp; new ones hold off;
//! 2. publish the new grain (release) and only *then* reserve the
//!    regrain version `v` from the epoch (`SeqCst` `fetch_add`): a
//!    reader whose snapshot observes `>= v` therefore also observes the
//!    new grain and consults the right slot;
//! 3. raise **every floor-grain slot of the region** to at least `v`
//!    (`fetch_max` — never lowering a racing committer's newer stamp).
//!    Whichever grain a concurrent reader observed, arbitrarily stale,
//!    the slot it consults holds at least `v`, so every snapshot taken
//!    before the regrain conservatively fails validation (false sharing
//!    allowed, missed conflicts structurally impossible);
//! 4. collect-and-clear the region's registered readers (the caller
//!    dooms them eagerly — they are about to fail validation anyway,
//!    and value-predict retry can re-stamp them in place);
//! 5. flip the sequence word back to **even**, releasing the fast path.
//!
//! ## Per-region telemetry
//!
//! The log keeps per-region counters — range stamps, conflict
//! attributions, suspected false sharing, value-predict retries — cheap
//! relaxed atomics fed by the stamp loop and by
//! [`note_conflict`](CommitLog::note_conflict) /
//! [`note_retry`](CommitLog::note_retry).
//! [`region_profiles`](CommitLog::region_profiles) snapshots them for the
//! grain controller (`mutls-adaptive`), which turns them into
//! [`regrain`](CommitLog::regrain) calls.

use std::sync::atomic::{AtomicU64, Ordering};

use super::readers::{ReaderSet, READER_SPILL_BIT};
use super::ring::RING_FULL_FOOTPRINT;
use super::{CommitLog, CommitVersion, RegionId};
use crate::memory::Addr;

/// Per-region telemetry snapshot consumed by the grain controller (see
/// [`CommitLog::region_profiles`]).  Counters are cumulative since the
/// log was created or [`clear`](CommitLog::clear)ed; the controller
/// differences successive snapshots itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct RegionProfile {
    /// The region id (`addr >> region_log2`).
    pub region: RegionId,
    /// The region's current live grain (log2 bytes).
    pub grain_log2: u32,
    /// Range stamps written into this region (log traffic).
    pub stamps: u64,
    /// Conflicts attributed to this region's ranges
    /// ([`note_conflict`](CommitLog::note_conflict)).
    pub conflicts: u64,
    /// Conflicts classified as suspected false sharing — the signal that
    /// the region's grain, not genuine sharing, is dooming readers.
    pub false_sharing: u64,
    /// Value-predict retries that re-validated reads of this region
    /// ([`note_retry`](CommitLog::note_retry)): conflicts the current
    /// grain made cheap instead of fatal.
    pub retries: u64,
}

/// Per-region telemetry accumulators (all relaxed; they feed policy, not
/// correctness).
#[derive(Debug, Default)]
pub(super) struct RegionCounters {
    pub(super) stamps: AtomicU64,
    pub(super) conflicts: AtomicU64,
    pub(super) false_sharing: AtomicU64,
    pub(super) retries: AtomicU64,
}

impl CommitLog {
    /// Rebuild `region`'s slice of the version table at
    /// `new_grain_log2` (clamped to `[grain_log2, region_log2]`), under
    /// the owning shard's slow-path lock, with an epoch bump — the
    /// grain-control *mechanism* (see the module-level regrain protocol).
    ///
    /// Every floor-grain slot of the region is stamped with the new
    /// version, so **every** outstanding snapshot of the region
    /// conservatively fails its next validation regardless of which grain
    /// it was taken under: false sharing allowed, missed conflicts
    /// structurally impossible, for any regrain interleaving.
    ///
    /// Returns the published version plus the region's registered readers
    /// (collected-and-cleared): they are about to fail validation anyway,
    /// so the caller should doom them eagerly — value-predict retry can
    /// still re-stamp them in place.
    pub fn regrain(&self, region: RegionId, new_grain_log2: u32) -> (CommitVersion, ReaderSet) {
        let new_grain = new_grain_log2.clamp(self.config.grain_log2, self.region_log2);
        let idx = self.region_index(region);
        let shard_idx = self.shard_of_region(region);
        let shard = &self.shards[shard_idx];
        let _guard = shard.slow_lock.lock();
        if self.region_grains[idx].load(Ordering::Relaxed) == new_grain {
            return (shard.epoch.load(Ordering::Relaxed), ReaderSet::default());
        }
        self.touch();
        let block = (region >> self.shard_bits) as usize * self.slots_per_region;
        let mut bits = 0u64;
        // 1. Hold the region's seqlock word odd: committers mid-pass
        //    will fail their re-check and redo; new ones hold off until
        //    step 5.
        self.region_seqs[idx].fetch_add(1, Ordering::SeqCst);
        // 2. New grain first (release), then the version reservation
        //    (SeqCst fetch_add — which also publishes the epoch): a
        //    reader whose snapshot observes `>= version` therefore also
        //    observes the new grain and consults a live slot.
        self.region_grains[idx].store(new_grain, Ordering::Release);
        let version = shard.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        for local in block..block + self.slots_per_region {
            // 3. Conservative whole-region flush: every slot any (however
            //    stale) grain observation could index now holds at least
            //    `version` — fetch_max, never lowering a racing
            //    committer's newer stamp.  The ring merge (full
            //    footprint, before the version flush) is the MVCC
            //    truncation: no pre-regrain read of the region can probe
            //    Precise past this version.
            self.ring_merge(shard, local, version, RING_FULL_FOOTPRINT);
            shard.dense[local].fetch_max(version, Ordering::AcqRel);
            // 4. Collect-and-clear the readers (sound after the epoch
            //    bump: a registration this swap misses re-reads the epoch
            //    afterwards in the SC order, so its snapshot covers the
            //    regrain).
            bits |= shard.readers[local].swap(0, Ordering::SeqCst);
        }
        let mut spilled = Vec::new();
        if bits & READER_SPILL_BIT != 0 {
            let mut spill = shard.readers_spill.write();
            for local in block..block + self.slots_per_region {
                if let Some(set) = spill.remove(&local) {
                    spilled.extend(set);
                }
            }
        }
        // 5. Back to even: release the fast path.
        self.region_seqs[idx].fetch_add(1, Ordering::SeqCst);
        self.regrains.fetch_add(1, Ordering::Relaxed);
        (version, ReaderSet::from_parts(bits, spilled))
    }

    /// Attribute one conflict to `addr`'s region (`suspected_false_sharing`
    /// when the conflicting word still held its first-read value) — the
    /// grain controller's split signal.
    pub fn note_conflict(&self, addr: Addr, suspected_false_sharing: bool) {
        let stats = &self.region_stats[self.region_index_of(addr)];
        self.touch();
        stats.conflicts.fetch_add(1, Ordering::Relaxed);
        if suspected_false_sharing {
            stats.false_sharing.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Attribute one successful value-predict retry to `addr`'s region —
    /// a conflict the current grain made cheap instead of fatal.
    pub fn note_retry(&self, addr: Addr) {
        let stats = &self.region_stats[self.region_index_of(addr)];
        self.touch();
        stats.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the per-region telemetry of every *touched* region
    /// (any nonzero counter), ascending by region id — the grain
    /// controller's input.
    pub fn region_profiles(&self) -> Vec<RegionProfile> {
        let mut rows = Vec::new();
        for (idx, stats) in self.region_stats.iter().enumerate() {
            let stamps = stats.stamps.load(Ordering::Relaxed);
            let conflicts = stats.conflicts.load(Ordering::Relaxed);
            let false_sharing = stats.false_sharing.load(Ordering::Relaxed);
            let retries = stats.retries.load(Ordering::Relaxed);
            if stamps == 0 && conflicts == 0 && retries == 0 {
                continue;
            }
            rows.push(RegionProfile {
                region: idx as RegionId,
                grain_log2: self.region_grains[idx].load(Ordering::Acquire),
                stamps,
                conflicts,
                false_sharing,
                retries,
            });
        }
        rows
    }

    /// Census of the live grains across touched regions:
    /// `(grain_log2, regions)` pairs, ascending by grain — what the
    /// controller converged to.
    pub fn grain_census(&self) -> Vec<(u32, u64)> {
        let mut counts: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for (idx, stats) in self.region_stats.iter().enumerate() {
            if stats.stamps.load(Ordering::Relaxed) == 0
                && stats.conflicts.load(Ordering::Relaxed) == 0
            {
                continue;
            }
            *counts
                .entry(self.region_grains[idx].load(Ordering::Acquire))
                .or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit_log::{CommitLogConfig, LINE_GRAIN_LOG2, PAGE_GRAIN_LOG2, WORD_GRAIN_LOG2};

    #[test]
    fn regrain_coarsens_and_resplits_a_live_region() {
        let log = CommitLog::with_config(CommitLogConfig::word_grain().shards(2), 1 << 14);
        assert_eq!(log.grain_of(8), WORD_GRAIN_LOG2);
        // Word grain: a write to word 0 does not flag word 8.
        log.record_word(0);
        assert!(!log.written_after(8, log.snapshot(8)));
        // Coarsen region 0 to line grain.
        let (v, _) = log.regrain(0, LINE_GRAIN_LOG2);
        assert!(v > 0);
        assert_eq!(log.grain_of(8), LINE_GRAIN_LOG2);
        assert_eq!(log.regrains(), 1);
        // Now a write to word 0 flags its line-mate word 8 (false
        // sharing allowed)…
        let snap = log.snapshot(8);
        log.record_word(0);
        assert!(log.written_after(8, snap));
        // …and a re-split restores word exactness for post-split reads.
        let (_, _) = log.regrain(0, WORD_GRAIN_LOG2);
        assert_eq!(log.grain_of(8), WORD_GRAIN_LOG2);
        let snap = log.snapshot(8);
        log.record_word(0);
        assert!(!log.written_after(8, snap));
        // Other regions are untouched.
        let region_bytes = 1u64 << log.region_log2();
        assert_eq!(log.grain_of(region_bytes), WORD_GRAIN_LOG2);
    }

    #[test]
    fn regrain_conservatively_invalidates_outstanding_snapshots() {
        // The PR 3 one-sided guarantee across the regrain: any snapshot
        // taken before the regrain fails validation for any address of
        // the region afterwards (false sharing allowed), so a commit
        // racing the grain flip can never slip under a stale snapshot.
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 1 << 13);
        let snap = log.snapshot(8);
        log.regrain(0, LINE_GRAIN_LOG2);
        assert!(
            log.written_after(8, snap),
            "pre-regrain snapshot must conservatively conflict"
        );
        assert!(
            log.written_after(2048, snap),
            "…for every address of the region"
        );
        // A snapshot taken after the regrain validates until a commit.
        let fresh = log.snapshot(8);
        assert!(!log.written_after(8, fresh));
        log.record_word(8);
        assert!(log.written_after(8, fresh));
    }

    #[test]
    fn regrain_never_misses_a_conflict_in_any_interleaving() {
        // read → regrain → commit → regrain: the read must still be
        // flagged (the stamp lives at whatever grain is current, the
        // reader may consult either grain's slot — both hold a version
        // above the stale snapshot).
        for (g1, g2) in [
            (LINE_GRAIN_LOG2, PAGE_GRAIN_LOG2),
            (PAGE_GRAIN_LOG2, WORD_GRAIN_LOG2),
            (LINE_GRAIN_LOG2, WORD_GRAIN_LOG2),
        ] {
            let log = CommitLog::with_config(CommitLogConfig::word_grain(), 1 << 13);
            let snap = log.register_reader(8, 3);
            log.regrain(0, g1);
            log.record_word(8);
            log.regrain(0, g2);
            assert!(
                log.written_after(8, snap),
                "missed conflict across regrain {g1}→{g2}"
            );
        }
    }

    #[test]
    fn regrain_collects_and_clears_the_regions_readers() {
        let log = CommitLog::with_config(CommitLogConfig::word_grain().shards(2), 1 << 14);
        log.register_reader(8, 3);
        log.register_reader(512, 100); // spilled rank, same region
        let region_bytes = 1u64 << log.region_log2();
        log.register_reader(region_bytes, 5); // different region
        let (_, readers) = log.regrain(0, LINE_GRAIN_LOG2);
        assert!(readers.contains(3) && readers.contains(100));
        assert!(!readers.contains(5), "other region's reader untouched");
        assert!(log.registered_readers(8).is_empty(), "cleared on regrain");
        assert!(log.registered_readers(region_bytes).contains(5));
        // A no-op regrain (same grain) collects nothing.
        let (_, readers) = log.regrain(0, LINE_GRAIN_LOG2);
        assert!(readers.is_empty());
    }

    #[test]
    fn initial_grain_and_clear_restore_it() {
        let log =
            CommitLog::with_initial_grain(CommitLogConfig::word_grain(), 1 << 13, PAGE_GRAIN_LOG2);
        assert_eq!(log.grain_of(8), PAGE_GRAIN_LOG2, "starts coarse");
        log.regrain(0, WORD_GRAIN_LOG2);
        assert_eq!(log.grain_of(8), WORD_GRAIN_LOG2);
        log.clear();
        assert_eq!(log.grain_of(8), PAGE_GRAIN_LOG2, "clear restores initial");
        assert_eq!(log.regrains(), 0, "clear resets the regrain count");
        // The initial grain is clamped into [floor, region].
        let log = CommitLog::with_initial_grain(CommitLogConfig::line_grain(), 1 << 13, 0);
        assert_eq!(log.grain_of(8), LINE_GRAIN_LOG2, "clamped to the floor");
    }

    #[test]
    fn region_telemetry_feeds_the_controller() {
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 1 << 14);
        let region_bytes = 1u64 << log.region_log2();
        log.record([8, 16, region_bytes]);
        log.note_conflict(8, true);
        log.note_conflict(8, false);
        log.note_retry(region_bytes);
        let profiles = log.region_profiles();
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].region, 0);
        assert_eq!(profiles[0].stamps, 2);
        assert_eq!(profiles[0].conflicts, 2);
        assert_eq!(profiles[0].false_sharing, 1);
        assert_eq!(profiles[0].retries, 0);
        assert_eq!(profiles[1].region, 1);
        assert_eq!(profiles[1].retries, 1);
        // The census reflects live grains of touched regions only.
        assert_eq!(log.grain_census(), vec![(WORD_GRAIN_LOG2, 2)]);
        log.regrain(0, PAGE_GRAIN_LOG2);
        assert_eq!(
            log.grain_census(),
            vec![(WORD_GRAIN_LOG2, 1), (PAGE_GRAIN_LOG2, 1)]
        );
        log.clear();
        assert!(log.region_profiles().is_empty());
    }
}
