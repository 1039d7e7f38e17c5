//! The commit log's **version rings** (MVCC validation):
//! [`probe_written`](CommitLog::probe_written), the packed ring entry and
//! the merge a committer runs before each stamp.
//!
//! With [`CommitLogConfig::ring_depth`]` > 1` every dense slot carries a
//! small **ring of packed `(version, footprint)` entries** recording the
//! recent commit history of the range, published lock-free on the same
//! fast path (one ring store per touched slot, *before* the dense version
//! store).  The footprint is a 16-bit Bloom hash of the **word offsets
//! written** within the range — deliberately value-independent, so a
//! hash collision can only ever *add* conservatism (a value hash could
//! collide two different values and mask a genuine conflict; an offset
//! hash at worst blames an unwritten word).
//!
//! Entries are indexed by **version bucket**: bucket
//! `version >> RING_BUCKET_LOG2` (64 consecutive versions) owns ring slot
//! `bucket % ring_depth`.  The one committer merges into its bucket's
//! slot with a load and a store (same bucket: its version, the footprints
//! OR-ed; an older bucket: replaced — versions rise strictly, so a newer
//! bucket is never there).  That makes *overflow detection purely
//! arithmetic*: a snapshot older than `ring_depth` buckets, or a probed
//! bucket whose slot was reused by a newer bucket, yields
//! [`RingCheck::Overflow`] (counted in
//! [`CommitLogStats::ring_overflows`]) and validation falls back to the
//! single-version conservatism of
//! [`written_after`](CommitLog::written_after).
//!
//! [`CommitLog::probe_written`] is the precise replacement for
//! [`written_after`](CommitLog::written_after): instead of "did the
//! range's version move", it answers "did any post-snapshot commit
//! *touch the read word*" ([`RingCheck::Touched`]) or "commits landed
//! but none touched it" ([`RingCheck::Precise`] — the false-sharing
//! survivals that motivate MVCC).  The one-sided guarantee is
//! unchanged at every depth: probes may report false touches (bucket
//! aggregation, offset-hash collisions), but a genuine
//! dependence violation is flagged through every interleaving,
//! because a committer's ring merge precedes its dense stamp and
//! join-time validation runs after the relevant commit's
//! [`publish`](CommitLog::publish) returned.  Depth 1 allocates no rings
//! and degenerates to exactly the single-version behavior — the
//! reference the property tests sandwich deeper rings against.

use std::sync::atomic::Ordering;

use super::{CommitLog, CommitVersion, WORD_GRAIN_LOG2};
#[cfg(doc)]
use super::{CommitLogConfig, CommitLogStats};
use crate::memory::Addr;

/// Default version-ring depth ([`CommitLogConfig::ring_depth`]); 1
/// disables the rings.
pub const DEFAULT_RING_DEPTH: u32 = 4;

/// Log2 of a ring bucket's width: 64 consecutive versions share one ring
/// slot, footprints OR-merged.  Wider buckets reach further back at lower
/// word precision.
pub(crate) const RING_BUCKET_LOG2: u32 = 6;

/// Largest ring depth [`CommitLogConfig::normalized`] allows — 64 slots
/// (512 B) of history per range is already far past the point of
/// diminishing precision returns.
pub const MAX_RING_DEPTH: u32 = 64;

/// Bits of a packed ring entry holding the written-word footprint; the
/// remaining 48 bits hold the commit version (a log that exhausts 2^48
/// versions saturates to [`RingCheck::Overflow`], never wraps).
const RING_FOOTPRINT_BITS: u32 = 16;

/// Footprint mask of a packed ring entry.
const RING_FOOTPRINT_MASK: u64 = (1 << RING_FOOTPRINT_BITS) - 1;

/// First version a packed ring entry cannot represent.
const RING_VERSION_CAP: u64 = 1 << (64 - RING_FOOTPRINT_BITS);

/// Pack a ring entry.  Caller guarantees `version < RING_VERSION_CAP`.
fn ring_pack(version: CommitVersion, footprint: u64) -> u64 {
    (version << RING_FOOTPRINT_BITS) | (footprint & RING_FOOTPRINT_MASK)
}

/// The commit version of a packed ring entry.
fn ring_version(entry: u64) -> CommitVersion {
    entry >> RING_FOOTPRINT_BITS
}

/// The written-word footprint of a packed ring entry.
fn ring_footprint(entry: u64) -> u64 {
    entry & RING_FOOTPRINT_MASK
}

/// The footprint bit of the word holding `addr`: word index within the
/// range, folded to 16 bits.  Value-independent by design — collisions
/// (two words, one bit) only ever add conservatism.
pub(super) fn footprint_bit(addr: Addr) -> u64 {
    1 << ((addr >> WORD_GRAIN_LOG2) & (RING_FOOTPRINT_BITS as u64 - 1))
}

/// Answer of [`CommitLog::probe_written`]: what the version ring knows
/// about commits to `addr`'s range after the probed snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingCheck {
    /// No commit wrote the range after the snapshot (exactly
    /// [`written_after`](CommitLog::written_after)` == false`).
    Clean,
    /// Commits wrote the range after the snapshot, but the ring proves
    /// none of them touched the probed *word* — a precise pass that
    /// single-version validation would have doomed as false sharing.
    /// Only possible at `ring_depth > 1`.
    Precise,
    /// Some post-snapshot commit touched (or may have touched) the
    /// probed word; `newest_touch` is the newest ring version whose
    /// footprint covers it — the time-travel restamp target.
    Touched {
        /// Newest ring entry version whose footprint covers the word.
        newest_touch: CommitVersion,
    },
    /// The ring's history does not reach back to the snapshot (depth
    /// exceeded, bucket evicted, or version space exhausted): fall back
    /// to single-version conservatism.  Counted in
    /// [`CommitLogStats::ring_overflows`].
    Overflow,
}

impl RingCheck {
    /// Whether the probe proves the read is still valid (either nothing
    /// wrote the range, or nothing touched the word).
    pub fn is_valid(self) -> bool {
        matches!(self, RingCheck::Clean | RingCheck::Precise)
    }
}

impl CommitLog {
    /// Probe the version ring of `addr`'s range: did any commit after
    /// `read_version` touch the *word* holding `addr`?
    ///
    /// Never less conservative than
    /// [`written_after`](Self::written_after): a genuine post-snapshot
    /// write of the word always yields [`RingCheck::Touched`] or
    /// [`RingCheck::Overflow`] (a committer ring-merges before its
    /// dense stamp, and validation runs after the relevant commit's
    /// [`publish`](Self::publish) returned — the same join-ordering
    /// contract the single-version path relies on).  May be *more*
    /// precise: post-snapshot commits to other words of the range yield
    /// [`RingCheck::Precise`] instead of a false-sharing doom.  At
    /// depth 1 and on overflow it degenerates to the single-version
    /// answer.
    pub fn probe_written(&self, addr: Addr, read_version: CommitVersion) -> RingCheck {
        let local = self.slot_of(addr);
        let cur = self.dense[local].load(Ordering::Acquire);
        if cur <= read_version {
            return RingCheck::Clean;
        }
        let depth = self.config.ring_depth as u64;
        if depth <= 1 || self.rings.is_empty() {
            return RingCheck::Touched { newest_touch: cur };
        }
        if cur >= RING_VERSION_CAP {
            // Version space exhausted: entries past the cap were never
            // published, so the ring cannot be trusted.
            self.ring_overflows.fetch_add(1, Ordering::Relaxed);
            return RingCheck::Overflow;
        }
        let cur_bucket = cur >> RING_BUCKET_LOG2;
        let read_bucket = read_version >> RING_BUCKET_LOG2;
        if cur_bucket - read_bucket >= depth {
            self.ring_overflows.fetch_add(1, Ordering::Relaxed);
            return RingCheck::Overflow;
        }
        let my_bit = footprint_bit(addr);
        let mut newest_touch = 0;
        for bucket in read_bucket..=cur_bucket {
            let idx = local * depth as usize + (bucket % depth) as usize;
            let entry = self.rings[idx].load(Ordering::Acquire);
            let entry_bucket = ring_version(entry) >> RING_BUCKET_LOG2;
            if entry_bucket < bucket {
                // No commit of this bucket published here.  (One that
                // races this probe mid-merge reserved a version above
                // `cur` and is not a predecessor — the join ordering
                // puts every relevant commit's merge before the probe.)
                continue;
            }
            if entry_bucket > bucket {
                // The bucket's history was evicted by a newer one:
                // conservative fallback.
                self.ring_overflows.fetch_add(1, Ordering::Relaxed);
                return RingCheck::Overflow;
            }
            let entry_version = ring_version(entry);
            if entry_version <= read_version {
                // Every merge into this bucket so far predates the
                // snapshot (the entry version is the bucket's max).
                continue;
            }
            if ring_footprint(entry) & my_bit != 0 {
                // The bucket's footprint covers the probed word.  (It
                // is OR-aggregated across the bucket, so the touch may
                // predate the snapshot — conservative, never missed.)
                newest_touch = newest_touch.max(entry_version);
            }
        }
        if newest_touch > 0 {
            RingCheck::Touched { newest_touch }
        } else {
            RingCheck::Precise
        }
    }

    /// Merge a commit's `(version, footprint)` into slot `local`'s ring,
    /// **before** the dense version stamp (so a probe that sees the raised
    /// slot sees the ring entry too, under the join-ordering contract).
    /// Same bucket: the new version with the footprints OR-ed; older
    /// bucket: replaced.  One committer stamps strictly rising versions,
    /// so the entry there is always older than `version`.
    pub(super) fn ring_merge(&self, local: usize, version: CommitVersion, footprint: u64) {
        let depth = self.config.ring_depth as u64;
        if depth <= 1 || self.rings.is_empty() || version >= RING_VERSION_CAP {
            return;
        }
        let bucket = version >> RING_BUCKET_LOG2;
        let slot = &self.rings[local * depth as usize + (bucket % depth) as usize];
        let cur = slot.load(Ordering::Relaxed);
        debug_assert!(
            ring_version(cur) < version,
            "slot {local}'s ring already holds version {version} or later"
        );
        let footprint = if ring_version(cur) >> RING_BUCKET_LOG2 == bucket {
            ring_footprint(cur) | footprint
        } else {
            footprint
        };
        slot.store(ring_pack(version, footprint), Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;

    use super::*;
    use crate::commit_log::{publish_sparing_all, CommitLogConfig};

    #[test]
    fn ring_probe_distinguishes_touched_from_false_sharing() {
        let log = CommitLog::with_config(CommitLogConfig::line_grain(), 1 << 12);
        assert_eq!(log.config().ring_depth, DEFAULT_RING_DEPTH);
        let v = publish_sparing_all(&log, &[8]);
        // The written word conflicts…
        assert_eq!(
            log.probe_written(8, 0),
            RingCheck::Touched { newest_touch: v }
        );
        // …its line-mate does not (the precise pass single-version
        // validation cannot give)…
        assert_eq!(log.probe_written(16, 0), RingCheck::Precise);
        assert!(log.written_after(16, 0), "single-version would doom it");
        // …a post-commit snapshot is clean, as is an untouched line.
        assert_eq!(log.probe_written(8, v), RingCheck::Clean);
        assert_eq!(log.probe_written(64, 0), RingCheck::Clean);
        assert_eq!(log.stats().ring_overflows, 0);
    }

    #[test]
    fn ring_footprints_merge_within_a_version_bucket() {
        // Two writes to different words of one line share the default
        // bucket: probing either word flags it, probing a third stays
        // precise, and the touch restamp target is the bucket's newest
        // version (conservative for the older write).
        let log = CommitLog::with_config(CommitLogConfig::line_grain().ring_depth(4), 1 << 12);
        let v1 = publish_sparing_all(&log, &[8]);
        let v2 = publish_sparing_all(&log, &[16]);
        assert!(v2 > v1);
        assert_eq!(
            log.probe_written(8, 0),
            RingCheck::Touched { newest_touch: v2 }
        );
        assert_eq!(
            log.probe_written(16, v1),
            RingCheck::Touched { newest_touch: v2 }
        );
        assert_eq!(log.probe_written(24, 0), RingCheck::Precise);
    }

    #[test]
    fn ring_depth_one_degenerates_to_single_version() {
        let log = CommitLog::with_config(CommitLogConfig::line_grain().ring_depth(1), 1 << 12);
        assert_eq!(log.config().ring_depth, 1);
        let v = publish_sparing_all(&log, &[8]);
        // Any post-snapshot commit to the range flags any word of it —
        // exactly `written_after`, never Precise.
        assert_eq!(
            log.probe_written(16, 0),
            RingCheck::Touched { newest_touch: v }
        );
        assert_eq!(log.probe_written(8, v), RingCheck::Clean);
        assert_eq!(log.stats().ring_overflows, 0, "no rings, no overflows");
    }

    #[test]
    fn ring_overflow_falls_back_conservatively_and_is_counted() {
        // Depth 2 reaches two buckets back: a snapshot in bucket 0 of a
        // range last written in bucket 2 overflows instead of guessing.
        let bucket = 1u64 << RING_BUCKET_LOG2;
        let log = CommitLog::with_config(CommitLogConfig::line_grain().ring_depth(2), 1 << 12);
        for _ in 0..2 * bucket {
            publish_sparing_all(&log, &[16]);
        }
        assert_eq!(log.probe_written(8, 0), RingCheck::Overflow);
        assert_eq!(log.stats().ring_overflows, 1);
        // A snapshot one bucket back still probes precisely.
        assert_eq!(log.probe_written(8, bucket), RingCheck::Precise);
        // A deeper ring over the same commits stays precise.
        let deep = CommitLog::with_config(CommitLogConfig::line_grain().ring_depth(4), 1 << 12);
        for _ in 0..2 * bucket {
            publish_sparing_all(&deep, &[16]);
        }
        assert_eq!(deep.probe_written(8, 0), RingCheck::Precise);
        assert_eq!(
            deep.probe_written(16, 1),
            RingCheck::Touched {
                newest_touch: 2 * bucket
            }
        );
        assert_eq!(deep.stats().ring_overflows, 0);
    }

    #[test]
    fn ring_probe_never_misses_under_commit_races() {
        // A committer keeps writing while the probe for a stale snapshot
        // races it: once the first commit of the word is visible, no
        // probe may report Clean/Precise for it — the ring analogue of
        // the single-version race test.
        let log = std::sync::Arc::new(CommitLog::with_config(
            CommitLogConfig::word_grain().ring_depth(4),
            1 << 12,
        ));
        let stale = log.register_reader(8, 3);
        let stop = std::sync::Arc::new(AtomicU64::new(0));
        let committer = {
            let log = std::sync::Arc::clone(&log);
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                while stop.load(Ordering::Acquire) == 0 {
                    publish_sparing_all(&log, &[8, 24]);
                }
            })
        };
        while !log.written_after(8, stale) {
            std::thread::yield_now();
        }
        for _ in 0..1_000 {
            assert!(
                !log.probe_written(8, stale).is_valid(),
                "stale written word probed valid mid-race"
            );
        }
        stop.store(1, Ordering::Release);
        committer.join().unwrap();
        assert!(!log.probe_written(8, stale).is_valid());
    }
}
