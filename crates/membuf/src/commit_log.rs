//! The shared commit log: the versioned view of main memory that makes
//! cross-thread conflict detection *real* instead of injected.
//!
//! Every write that reaches main memory while any speculative read set
//! is exposed — a direct store by the non-speculative thread or a
//! committed speculative write-set — is recorded here as one *commit
//! batch*.  (With no read set exposed nobody holds a snapshot a stamp
//! could invalidate, and the runtime's non-speculative thread skips the
//! log entirely; see `ThreadManager`'s exposure count.)  A speculative
//! read stamps its read-set entry with the version snapshot observed at
//! read time; join-time validation then asks, per read entry, whether any
//! logically earlier work committed a write covering that address *after*
//! the read
//! ([`CommitLog::written_after`]).  This detects exactly the
//! read-before-predecessor-write dependences MUTLS read-set validation is
//! specified to catch (paper §IV-F), including the value-ABA case a pure
//! value comparison would miss.
//!
//! ## Range granularity — now per region, live
//!
//! Versions are stamped per *range* of bytes, not per word.  Coarsening
//! the grain bounds log growth on long regions — a commit batch stamps
//! one version per *range* touched, not one per word — at the cost of
//! **false sharing**: a commit to any word of a range dooms a reader of
//! any other word of the same range.
//!
//! Since the grain-control subsystem landed, the grain is **no longer a
//! single global constant**: the address space is divided into *regions*
//! of `2^`[`CommitLog::region_log2`] bytes (at least one 4 KiB page) and
//! every region carries its own live grain in
//! `[`[`CommitLogConfig::grain_log2`]`, region_log2]`.  The configured
//! grain is the *floor* (the finest grain the version table is allocated
//! for); [`CommitLog::regrain`] moves one region's grain up (coarsen) or
//! down (re-split) at runtime, so a dense-numeric region can run at page
//! grain while a pointer-chasing region in the same program runs at word
//! grain.
//!
//! The guarantee is one-sided by design, at every grain and across any
//! regrain interleaving:
//!
//! * **False sharing is allowed.**  A range-grain conflict may be
//!   spurious (different words, same range).  The reader rolls back and
//!   re-executes (or value-predict-retries in place); the result is still
//!   correct, merely slower.
//! * **Missed conflicts are impossible.**  Every word maps into exactly
//!   one range of its region's current grain, and a write to the word
//!   always advances that range's version past every snapshot taken
//!   before the commit.  A genuine dependence violation is therefore
//!   always flagged.
//!
//! ## Sharding — by region
//!
//! The version table is split across [`CommitLogConfig::shards`]
//! independent shards, each with its own epoch counter, slow-path lock,
//! dense version array and sparse fallback map.  A region maps to shard
//! `region_id & (shards - 1)` — consecutive regions interleave across
//! shards.  Sharding *by region* (rather than by range, as before
//! grain control) is what keeps the read-snapshot protocol sound under
//! live regrains: an address's owning shard — and hence the epoch counter
//! its snapshots and versions live on — never depends on the current
//! grain, so a snapshot taken at one grain remains comparable to versions
//! stamped at another.
//!
//! Per-range versions live in a per-shard *dense* array covering the
//! main-memory arena, one slot per **floor-grain** range (lock-free
//! stamping and lookup), sized via [`CommitLog::with_dense_bytes`]; the
//! capacity is rounded **up** to whole regions.  A region running at a
//! coarser grain uses a prefix of its slot block (slot
//! `offset_in_region >> grain`).  Ranges beyond the dense window fall
//! back to a per-shard map at the floor grain (out-of-window addresses
//! are never regrained), so the log also works standalone with arbitrary
//! addresses.
//!
//! ## Lock-free commit path
//!
//! The dense fast path publishes **without any lock**.  Per shard:
//!
//! * **Version reservation = epoch publish.**  A committer reserves its
//!   version with one `SeqCst` `fetch_add` on the shard epoch.  The RMW
//!   chain on the epoch word forms a release sequence, so a reader whose
//!   [`snapshot`](CommitLog::snapshot) observes epoch `>= v`
//!   synchronizes with committer `v`'s reservation — and the committer
//!   wrote its data words to main memory *before* calling
//!   [`record`](CommitLog::record) — hence the reader's subsequent data
//!   loads see commit `v`'s values.  Contrapositive: a reader that read
//!   *stale* data has a snapshot `< v`.
//! * **CAS-published slots.**  Each touched range's dense slot is then
//!   raised to `v` with a monotone `load → check → compare_exchange`
//!   loop ([`stamp_writes`](CommitLogStats::stamp_writes) counts the
//!   slots, [`cas_retries`](CommitLogStats::cas_retries) the loop
//!   retries): if the slot already holds a version `>= v` a concurrent
//!   later commit owns it and the stamp is free.  Committers stamping
//!   **disjoint** ranges never contend; same-slot races cost a bounded
//!   retry, never a wait.  Join-time validation reads the slot *after*
//!   the relevant commit's `record` returned (the runtime's join
//!   ordering), so the slot is `>= v` and any reader with a stale
//!   snapshot `s < v` is flagged: missed conflicts stay structurally
//!   impossible.
//! * **Seqlock grain probing.**  Every dense region carries a sequence
//!   word ([`CommitLog::regrain`] holds it *odd* while rebuilding the
//!   region).  The fast path double-checks it around the stamp loop:
//!   read the sequence (spin while odd), read the region's live grain,
//!   CAS the slots, re-read the sequence — if it moved, a regrain raced
//!   the stamps and the committer simply re-stamps at the now-current
//!   grain.  Fast-path committers only *observe* the word; they never
//!   take the slow-path lock.
//!
//! The sparse fallback map, the reader-registry spill sets, `regrain`
//! and [`clear`](CommitLog::clear) stay under the per-shard slow-path
//! lock (a striped `parking_lot` mutex) — they are the cold paths.
//!
//! ## Version rings (MVCC validation)
//!
//! With [`CommitLogConfig::ring_depth`]` > 1` every dense slot carries a
//! small **ring of packed `(version, footprint)` entries** recording the
//! recent commit history of the range, published lock-free on the same
//! fast path (one CAS-merge per touched slot, *before* the dense version
//! CAS).  The footprint is a 16-bit Bloom hash of the **word offsets
//! written** within the range — deliberately value-independent, so a
//! hash collision can only ever *add* conservatism (a value hash could
//! collide two different values and mask a genuine conflict; an offset
//! hash at worst blames an unwritten word).
//!
//! Entries are indexed by **version bucket**: bucket
//! `version >> `[`CommitLogConfig::ring_bucket_log2`] owns ring slot
//! `bucket % ring_depth`.  A committer CAS-merges into its bucket's slot
//! (same bucket: max the version, OR the footprint; older bucket:
//! replace; newer bucket already present: leave it — the lost footprint
//! is conservatively covered, because a validator of the displaced
//! bucket sees the newer entry at its index and falls back).  That makes
//! *overflow detection purely arithmetic*: a snapshot older than
//! `ring_depth` buckets, or a probed bucket whose slot was reused by a
//! newer bucket, yields [`RingCheck::Overflow`] (counted in
//! [`CommitLogStats::ring_overflows`]) and validation falls back to the
//! single-version conservatism above.
//!
//! [`CommitLog::probe_written`] is the precise replacement for
//! [`written_after`](CommitLog::written_after): instead of "did the
//! range's version move", it answers "did any post-snapshot commit
//! *touch the read word*" ([`RingCheck::Touched`]) or "commits landed
//! but none touched it" ([`RingCheck::Precise`] — the false-sharing
//! survivals that motivate MVCC).  The one-sided guarantee is
//! unchanged at every depth: probes may report false touches (bucket
//! aggregation, offset-hash collisions, regrain truncation — a
//! [`regrain`](CommitLog::regrain) merges a *full* footprint at its
//! flush version into every slot of the region), but a genuine
//! dependence violation is flagged through every interleaving,
//! because a committer's ring merge precedes its dense stamp and
//! join-time validation runs after the relevant commit's
//! [`record`](CommitLog::record) returned.  Depth 1 allocates no rings
//! and degenerates to exactly the single-version behavior — the
//! reference the property tests sandwich deeper rings against.
//!
//! ## Memory-ordering protocol (per shard)
//!
//! Soundness under concurrency relies on the order of operations, applied
//! independently per shard:
//!
//! * **Committer** (always executing logically earlier work): write the
//!   data words to main memory *first*, then call [`CommitLog::record`],
//!   which reserves-and-publishes the shard version with the `SeqCst`
//!   epoch `fetch_add` *before* CAS-stamping the touched slots.  That
//!   order keeps the invariant that matters: **a snapshot at least the
//!   committer's version implies the committer's data is visible**, and
//!   **a stale read implies a snapshot below the version the
//!   validation-time slot carries**.
//! * **Reader** (a speculative thread): sample
//!   [`CommitLog::snapshot`]`(addr)` — the epoch of the shard owning the
//!   address's *region* — with acquire *before* loading the word from
//!   main memory.
//!
//! If the reader's sampled shard epoch is at least the committer's
//! version, the acquire edge (to the epoch RMW's release sequence)
//! guarantees the committed data was visible to the
//! read — no conflict.  If it is smaller, the read raced the commit and
//! validation flags it; at worst this is a conservative false positive
//! (the thread re-executes), never a missed conflict.
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
//! Shard epochs advance independently, so versions are only comparable
//! *within* a shard.  That is safe because an address always maps to the
//! same region and hence the same shard: a read snapshot and the commits
//! that could invalidate it live on the same counter.  The global
//! [`CommitLog::epoch`] (the max over shards) is a monotone diagnostic
//! bound — it must **not** be used as a read snapshot, because a shard
//! lagging the max would make its next commit version look old.
//! Buffer-merge paths (`WordMap::weaken_version`, `GlobalBuffer::absorb`)
//! compare two snapshots *of the same word*, which is always same-shard
//! and therefore well-defined.
//!
//! ## Reader registry
//!
//! Alongside each range's version the log keeps a *reader registry*: a
//! bitmask of the thread ids (ranks `1..=`[`MAX_TRACKED_READERS`]) whose
//! read sets currently cover the range, plus — since the rank cap was
//! lifted — a per-range **spill set** (a hash set behind the shard's
//! lock stripe, dashmap-style) holding the ranks beyond the bitmask
//! window.  A committing writer can
//! [`take_readers`](CommitLog::take_readers) of the ranges it just
//! stamped and doom exactly those threads (*targeted dooming*) instead of
//! squashing every logical successor; enumeration is complete at any
//! thread count, so the old cascade fallback for >63-rank sweeps is gone.
//!
//! Registration stays **off the slow-path lock**: a tracked reader ORs its
//! bit into the range's mask with a single atomic RMW and then
//! (re-)reads the shard epoch — a seqlock-style double-checked read,
//! since a snapshot sampled *before* the registration could let a racing
//! committer both miss the bit and stay below the snapshot.  With the
//! registration sequenced first (all four operations `SeqCst`), a
//! committer whose [`take_readers`](CommitLog::take_readers) misses the
//! bit must have published its epoch before the reader's snapshot, so
//! the reader's snapshot covers the commit and no conflict existed.  A
//! spilled (rank > 63) reader inserts into the spill set *under its
//! stripe lock* and sets the sticky spill-marker bit before re-reading
//! the epoch; the lock's release/acquire edges plus the `SeqCst` epoch
//! accesses give the same guarantee.  Hence:
//!
//! * **Missed reader ⇒ impossible** *to go uncorrected*: either the
//!   committer enumerates the reader (eager doom), or the reader's
//!   snapshot already covers the commit (no conflict) — and join-time
//!   version validation remains the oracle regardless, so eager dooming
//!   is purely an accelerator and can never mask a genuine conflict.
//!   A regrain that re-indexes a range's registry slot can strand a
//!   registration on the old slot; the regrain's whole-region stamp
//!   guarantees that reader fails validation conservatively instead.
//! * **Stale reader ⇒ spurious doom only**: a bit left behind by a
//!   thread that already finished dooms whatever now runs on that rank;
//!   the doomed thread rolls back and re-executes — slower, never wrong.
//!   Staleness is bounded by clearing masks on enumeration and by the
//!   runtime unregistering a thread's reads when it is joined.
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

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use crate::memory::Addr;
use crate::wordmap::zeroed_boxed;

/// Monotone version assigned to a commit batch within a shard
/// (0 = "never written").
pub type CommitVersion = u64;

/// Identifier of one version-tracking range: `addr >> grain_log2` at the
/// owning region's current grain.
pub type RangeId = u64;

/// Identifier of one grain-control region: `addr >> region_log2`.
pub type RegionId = u64;

/// `grain_log2` of word-granular tracking (8-byte ranges): the exact,
/// false-sharing-free grain of the original design.
pub const WORD_GRAIN_LOG2: u32 = 3;

/// `grain_log2` of cache-line-granular tracking (64-byte ranges), the
/// default.
pub const LINE_GRAIN_LOG2: u32 = 6;

/// `grain_log2` of page-granular tracking (4096-byte ranges) — the
/// BOP-style coarse end of the spectrum.
pub const PAGE_GRAIN_LOG2: u32 = 12;

/// Log2 of the minimum grain-control region size (one 4 KiB page).  The
/// actual region size is `max(MIN_REGION_LOG2, grain_log2)` so a region
/// always covers at least one floor-grain range.
pub const MIN_REGION_LOG2: u32 = PAGE_GRAIN_LOG2;

/// Region size (log2 bytes) used by a log whose floor grain is
/// `grain_log2` — shared with the simulator so both layers coarsen
/// addresses identically.
pub fn region_log2_for_grain(grain_log2: u32) -> u32 {
    grain_log2.max(MIN_REGION_LOG2)
}

/// Log2 of the commit-lock timing sample rate: one batch in
/// `2^LOCK_SAMPLE_LOG2` is wall-clock timed and its lock-hold duration
/// scaled up into [`CommitLogStats::lock_ns`].
pub const LOCK_SAMPLE_LOG2: u32 = 3;

/// Default version-ring depth ([`CommitLogConfig::ring_depth`]); 1
/// disables the rings.
pub const DEFAULT_RING_DEPTH: u32 = 4;

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

/// The "every word of the range may have been written" footprint —
/// merged by [`CommitLog::regrain`]'s conservative truncation.
const RING_FULL_FOOTPRINT: u64 = RING_FOOTPRINT_MASK;

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
fn footprint_bit(addr: Addr) -> u64 {
    1 << ((addr >> WORD_GRAIN_LOG2) & (RING_FOOTPRINT_BITS as u64 - 1))
}

/// Highest thread rank the reader registry tracks in the per-range
/// bitmask; ranks beyond it land in the per-range spill set (enumeration
/// stays complete — the pre-PR5 cascade fallback is gone).
pub const MAX_TRACKED_READERS: usize = 63;

/// Registry bit marking "a reader beyond [`MAX_TRACKED_READERS`] is in
/// this range's spill set": enumeration must consult the spill map.
const READER_SPILL_BIT: u64 = 1 << 63;

/// Registry bit of thread rank `rank` (0 = the non-speculative thread,
/// which never registers: it reads coherent main memory directly; ranks
/// past the bitmask window use the spill set, marked by
/// [`READER_SPILL_BIT`]).
fn reader_bit(rank: usize) -> u64 {
    match rank {
        0 => 0,
        r if r <= MAX_TRACKED_READERS => 1 << (r - 1),
        _ => READER_SPILL_BIT,
    }
}

/// The set of reader ranks enumerated from the registry for a batch of
/// ranges (see [`CommitLog::take_readers`]): a bitmask for ranks
/// `1..=`[`MAX_TRACKED_READERS`] plus an explicit (sorted) list of
/// spilled ranks beyond the window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReaderSet {
    bits: u64,
    /// Spilled ranks (> [`MAX_TRACKED_READERS`]), ascending, deduplicated.
    spilled: Vec<usize>,
}

impl ReaderSet {
    fn from_parts(bits: u64, mut spilled: Vec<usize>) -> Self {
        spilled.sort_unstable();
        spilled.dedup();
        ReaderSet {
            bits: bits & !READER_SPILL_BIT,
            spilled,
        }
    }

    /// True when no reader is registered.
    pub fn is_empty(&self) -> bool {
        self.bits == 0 && self.spilled.is_empty()
    }

    /// Number of reader ranks in the set (tracked and spilled).
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize + self.spilled.len()
    }

    /// Whether `rank` is in the set.
    pub fn contains(&self, rank: usize) -> bool {
        if rank == 0 {
            return false;
        }
        if rank <= MAX_TRACKED_READERS {
            self.bits & (1 << (rank - 1)) != 0
        } else {
            self.spilled.binary_search(&rank).is_ok()
        }
    }

    /// The reader ranks, ascending: the bitmask window first, then the
    /// spilled ranks.
    pub fn ranks(&self) -> impl Iterator<Item = usize> + '_ {
        let mut bits = self.bits;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let tz = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(tz + 1)
        })
        .chain(self.spilled.iter().copied())
    }
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

/// Granularity and sharding of the commit log's version table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitLogConfig {
    /// Log2 of the **floor** range size in bytes; clamped to at least
    /// [`WORD_GRAIN_LOG2`] (a range can never be smaller than a word).
    /// The version table is allocated at this grain; per-region live
    /// grains may only coarsen from it (see [`CommitLog::regrain`]).
    pub grain_log2: u32,
    /// Number of independent shards; rounded up to a power of two, at
    /// least 1.
    pub shards: usize,
    /// Per-slot version-ring depth for MVCC validation (see the module
    /// docs), [`DEFAULT_RING_DEPTH`] by default: rings let
    /// [`CommitLog::probe_written`] answer precisely whether the probed
    /// *word* was overwritten; 1 allocates no rings and keeps exact
    /// single-version behavior.  Clamped to `1..=`[`MAX_RING_DEPTH`].
    pub ring_depth: u32,
    /// Log2 of the ring's version-bucket width: `2^ring_bucket_log2`
    /// consecutive versions share one ring slot (footprints OR-merged),
    /// so a depth-`d` ring reaches `d * 2^ring_bucket_log2` versions
    /// back before overflowing.  Coarser buckets reach further at lower
    /// word precision.  Clamped to `0..=16`.
    pub ring_bucket_log2: u32,
}

impl Default for CommitLogConfig {
    fn default() -> Self {
        CommitLogConfig {
            grain_log2: LINE_GRAIN_LOG2,
            shards: 8,
            ring_depth: DEFAULT_RING_DEPTH,
            ring_bucket_log2: 6,
        }
    }
}

impl CommitLogConfig {
    /// Word-granular tracking (no false sharing) with the default shard
    /// count.
    pub fn word_grain() -> Self {
        CommitLogConfig {
            grain_log2: WORD_GRAIN_LOG2,
            ..Default::default()
        }
    }

    /// Cache-line-granular tracking (the default).
    pub fn line_grain() -> Self {
        Self::default()
    }

    /// Page-granular tracking.
    pub fn page_grain() -> Self {
        CommitLogConfig {
            grain_log2: PAGE_GRAIN_LOG2,
            ..Default::default()
        }
    }

    /// Set the range size as a log2 of bytes (builder style).
    pub fn grain_log2(mut self, grain_log2: u32) -> Self {
        self.grain_log2 = grain_log2;
        self
    }

    /// Set the shard count (builder style).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Set the MVCC version-ring depth (builder style); 1 disables the
    /// rings entirely.
    pub fn ring_depth(mut self, ring_depth: u32) -> Self {
        self.ring_depth = ring_depth;
        self
    }

    /// Set the ring version-bucket width as a log2 (builder style).
    pub fn ring_bucket_log2(mut self, ring_bucket_log2: u32) -> Self {
        self.ring_bucket_log2 = ring_bucket_log2;
        self
    }

    /// Floor range size in bytes.
    pub fn grain_bytes(&self) -> u64 {
        1u64 << self.grain_log2.max(WORD_GRAIN_LOG2)
    }

    /// The config with degenerate values clamped: grain at least a word,
    /// shard count a nonzero power of two.  [`CommitLog::with_config`]
    /// applies this automatically; other consumers of the raw pub fields
    /// (e.g. the simulator) should apply it too so one set of rules
    /// governs every layer.
    pub fn normalized(self) -> Self {
        CommitLogConfig {
            grain_log2: self.grain_log2.max(WORD_GRAIN_LOG2),
            shards: self.shards.max(1).next_power_of_two(),
            ring_depth: self.ring_depth.clamp(1, MAX_RING_DEPTH),
            ring_bucket_log2: self.ring_bucket_log2.min(16),
        }
    }
}

/// Aggregate commit-log activity counters, for throughput reporting
/// (see the harness `grain` / `graincontrol` sweeps).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CommitLogStats {
    /// Commit batches recorded (non-empty `record` calls).
    pub commits: u64,
    /// Range stamps *written* across all batches, cumulatively — the
    /// actual log traffic; coarser grains stamp fewer ranges per batch.
    /// (Distinct from [`CommitLog::stamped_ranges`], which counts ranges
    /// *currently* carrying a stamp; regrain flushes are counted in
    /// [`regrains`](Self::regrains), not here.)
    pub stamp_writes: u64,
    /// Estimated wall-clock nanoseconds of commit publication — the
    /// reservation-plus-stamp section (sampled: one batch in
    /// `2^LOCK_SAMPLE_LOG2` is timed, scaled up).  On coarse-resolution
    /// clocks short sections may register as zero.
    pub lock_ns: u64,
    /// CAS retries on the stamp path, cumulative: same-slot
    /// `compare_exchange` losses plus whole-group re-stamps forced by a
    /// racing regrain's seqlock word.  Disjoint-range committers should
    /// keep it near zero at any thread count.
    pub cas_retries: u64,
    /// Regions whose grain the controller changed at runtime
    /// ([`CommitLog::regrain`] calls that actually flipped a grain).
    pub regrains: u64,
    /// Reader registrations that landed past the bitmask window and
    /// spilled into the per-range hash sets (each spill pays a shard
    /// `RwLock` write instead of one `fetch_or`) — the registry's slow
    /// path, surfaced so capacity pressure on
    /// [`MAX_TRACKED_READERS`] is visible in reports.
    pub reader_spills: u64,
    /// Version-ring probes that fell back to single-version
    /// conservatism because the ring's history did not reach the
    /// probed snapshot ([`RingCheck::Overflow`]) — the MVCC precision
    /// pressure signal.  Always 0 at `ring_depth` 1.
    pub ring_overflows: u64,
    /// Configured floor range size (log2 bytes), echoed for reports.
    pub grain_log2: u32,
    /// Configured shard count, echoed for reports.
    pub shards: usize,
    /// Configured (normalized) version-ring depth, echoed for reports.
    pub ring_depth: u32,
}

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
struct RegionCounters {
    stamps: AtomicU64,
    conflicts: AtomicU64,
    false_sharing: AtomicU64,
    retries: AtomicU64,
}

/// One independent slice of the version table (one stripe of regions).
#[derive(Debug)]
struct Shard {
    /// Version of this shard's most recent *published* commit batch:
    /// committers `fetch_add` it to reserve-and-publish in one `SeqCst`
    /// RMW (the release sequence readers synchronize with).
    epoch: AtomicU64,
    /// The striped **slow-path** lock: serializes `regrain`, `clear`
    /// and the other cold mutators against each other.  Committers
    /// never take it (they only observe the per-region sequence words).
    slow_lock: Mutex<()>,
    /// Dense per-range versions for this shard's regions: region `r`
    /// (with `r & mask == shard index`) owns the slot block
    /// `[(r >> shard_bits) * slots_per_region, ..)`, one slot per
    /// floor-grain range; a coarser live grain uses the block's prefix.
    /// Raised monotonically via CAS.
    dense: Vec<AtomicU64>,
    /// Packed MVCC version-ring entries, `ring_depth` per dense slot
    /// (slot `local` owns `rings[local * depth .. (local + 1) * depth]`,
    /// indexed by version bucket modulo depth).  Empty at depth 1.
    /// Published by CAS-merge *before* the dense version stamp (see the
    /// module docs).
    rings: Vec<AtomicU64>,
    /// Sparse fallback for ranges beyond the dense window (always at the
    /// floor grain — out-of-window addresses are never regrained).
    /// Stamped with max-insert under the write lock: a slow path by
    /// construction.
    sparse: RwLock<HashMap<RangeId, CommitVersion>>,
    /// Dense per-range reader bitmasks (same indexing as `dense`);
    /// registration/enumeration are lock-free atomic RMWs.
    readers_dense: Vec<AtomicU64>,
    /// Spill sets for ranks past the bitmask window, keyed by dense slot
    /// index (dashmap-style: the shard is the lock stripe).
    readers_spill_dense: RwLock<HashMap<usize, HashSet<usize>>>,
    /// Sparse reader-bitmask fallback for ranges beyond the dense
    /// window.  The values are atomics so registration is a `fetch_or`
    /// under the *read* lock — the write lock is only taken to insert a
    /// missing entry or to remove one.
    readers_sparse: RwLock<HashMap<RangeId, AtomicU64>>,
    /// Spill sets for sparse ranges.
    readers_spill_sparse: RwLock<HashMap<RangeId, HashSet<usize>>>,
}

/// `len` atomics at zero.  The dense tables are sized to the arena (six
/// words a commit-log line, 24 MiB for a 32 MiB arena) and a run stamps the
/// few lines it shares, so they come zeroed from the allocator instead of
/// being written: building a log costs no page fault per table page, and
/// does not depend on whether the allocator hands back memory it had
/// already faulted in.
fn zeroed_atomics(len: usize) -> Vec<AtomicU64> {
    // SAFETY: an `AtomicU64` is a `u64` in memory, and zero is its value 0.
    unsafe { zeroed_boxed(len) }.into_vec()
}

impl Shard {
    fn new(dense_slots: usize, ring_slots: usize) -> Self {
        Shard {
            epoch: AtomicU64::new(0),
            slow_lock: Mutex::new(()),
            dense: zeroed_atomics(dense_slots),
            rings: zeroed_atomics(ring_slots),
            sparse: RwLock::new(HashMap::new()),
            readers_dense: zeroed_atomics(dense_slots),
            readers_spill_dense: RwLock::new(HashMap::new()),
            readers_sparse: RwLock::new(HashMap::new()),
            readers_spill_sparse: RwLock::new(HashMap::new()),
        }
    }

    /// Raise a sparse range's version to at least `version` (never
    /// lower it — concurrent committers can reach the map out of
    /// reservation order).
    fn stamp_sparse_max(&self, range: RangeId, version: CommitVersion) {
        let mut sparse = self.sparse.write();
        let slot = sparse.entry(range).or_insert(0);
        *slot = (*slot).max(version);
    }
}

/// Where an address's version/registry entry lives right now.
enum Slot {
    /// Dense slot `local` of shard `shard` (the lock-free fast path).
    Dense { shard: usize, local: usize },
    /// Sparse floor-grain range of shard `shard`.
    Sparse { shard: usize, range: RangeId },
}

/// Append-only versioned record of every write published to main memory,
/// region-sharded with per-region live grains (see the module docs for
/// the protocol).
#[derive(Debug)]
pub struct CommitLog {
    config: CommitLogConfig,
    /// Log2 of the region size in bytes (`max(MIN_REGION_LOG2, grain)`).
    region_log2: u32,
    /// Floor-grain slots per region (`1 << (region_log2 - grain_log2)`).
    slots_per_region: usize,
    /// `shards.len() - 1`; shard of a region is `region & shard_mask`.
    shard_mask: u64,
    /// `log2(shards.len())`; a shard's n-th region block is region
    /// `region >> shard_bits`.
    shard_bits: u32,
    /// Dense regions per shard (every shard allocates the same number of
    /// region blocks, so the last stripe is dense everywhere).
    regions_per_shard: u64,
    shards: Vec<Shard>,
    /// Live grain of every dense region, indexed by region id.  Written
    /// only under the owning shard's slow-path lock; read lock-free
    /// (acquire) by snapshot/validation paths and — bracketed by the
    /// region's sequence word — by committers.
    region_grains: Vec<AtomicU32>,
    /// Per-region seqlock words guarding grain flips against committers
    /// (same indexing as `region_grains`): a regrain holds
    /// the word **odd** while it rebuilds the region; fast-path
    /// committers read it before and after their CAS pass and re-stamp
    /// on any movement.  They only observe it, never take the slow lock.
    region_seqs: Vec<AtomicU32>,
    /// Per-region telemetry, same indexing as `region_grains`.
    region_stats: Vec<RegionCounters>,
    /// Grain every region starts at (and returns to on
    /// [`clear`](Self::clear)); clamped to `[grain_log2, region_log2]`.
    initial_grain: u32,
    /// Multi-address commit batches recorded (monotone; survives shard
    /// distribution).  Doubles as the batch path's lock-time sampling
    /// clock.
    batches: AtomicU64,
    /// Single-address commits recorded (the non-speculative direct-store
    /// path).  Each is exactly one batch, one range stamp and one tick of
    /// the sampling clock, so this is the only telemetry RMW that path
    /// pays; the public totals add it in.
    singles: AtomicU64,
    /// Range stamps written across all multi-address batches.
    stamped: AtomicU64,
    /// Regions regrained (grain actually flipped).
    regrains: AtomicU64,
    /// Estimated nanoseconds of commit publication: every
    /// `2^LOCK_SAMPLE_LOG2`-th batch is timed (two clock reads)
    /// and its duration scaled up, so the commit-throughput reporting
    /// the `grain` sweep is built on costs the hot publish path almost
    /// nothing; all counters use relaxed atomics.
    lock_ns: AtomicU64,
    /// Reader registrations that spilled past the bitmask window.
    reader_spills: AtomicU64,
    /// CAS retries on the stamp path (same-slot losses plus
    /// seqlock-forced re-stamps); relaxed, telemetry only.
    cas_retries: AtomicU64,
    /// Ring probes that fell back to single-version conservatism
    /// ([`RingCheck::Overflow`]); relaxed, telemetry only.
    ring_overflows: AtomicU64,
}

/// Whether the commit that drew ticket `nth` from its path's counter has
/// its lock-hold time measured: one in `2^LOCK_SAMPLE_LOG2` is timed and
/// its duration scaled up, so the hot publish path pays the two clock
/// reads only on a small fraction of commits.
fn lock_time_sampled(nth: u64) -> bool {
    nth & ((1 << LOCK_SAMPLE_LOG2) - 1) == 0
}

impl Default for CommitLog {
    fn default() -> Self {
        Self::new()
    }
}

impl CommitLog {
    /// Create an empty log with the default config and no dense window
    /// (every range goes through the sharded sparse maps — fine for tests
    /// and small address sets).
    pub fn new() -> Self {
        Self::with_config(CommitLogConfig::default(), 0)
    }

    /// Create a log with the default grain/shard config whose dense fast
    /// path covers addresses `[0, capacity_bytes)`.
    pub fn with_dense_bytes(capacity_bytes: u64) -> Self {
        Self::with_config(CommitLogConfig::default(), capacity_bytes)
    }

    /// Create a log with an explicit grain/shard config whose dense fast
    /// path covers `[0, capacity_bytes)` — size it to the main-memory
    /// arena so the whole program's traffic stamps lock-free with bounded
    /// memory (one version word per floor-grain range).  The capacity is
    /// rounded *up* to whole regions, so a trailing partial range or
    /// region is still dense.
    pub fn with_config(config: CommitLogConfig, capacity_bytes: u64) -> Self {
        let grain = config.normalized().grain_log2;
        Self::with_initial_grain(config, capacity_bytes, grain)
    }

    /// Like [`with_config`](Self::with_config), but every dense region
    /// starts at `initial_grain_log2` (clamped to
    /// `[grain_log2, region_log2]`) instead of the floor grain — the
    /// grain controller's optimistic-coarse starting point.
    pub fn with_initial_grain(
        config: CommitLogConfig,
        capacity_bytes: u64,
        initial_grain_log2: u32,
    ) -> Self {
        let config = config.normalized();
        let shard_count = config.shards;
        let region_log2 = region_log2_for_grain(config.grain_log2);
        let slots_per_region = 1usize << (region_log2 - config.grain_log2);
        let dense_regions = capacity_bytes.div_ceil(1u64 << region_log2);
        // Every shard covers regions up to the next multiple of the shard
        // count, so the last partial stripe is dense everywhere.
        let regions_per_shard = dense_regions.div_ceil(shard_count as u64);
        let dense_slots = if dense_regions == 0 {
            0
        } else {
            regions_per_shard as usize * slots_per_region
        };
        // Rings are only materialized past depth 1, so the
        // single-version layout pays no extra memory.
        let ring_slots = if config.ring_depth > 1 {
            dense_slots * config.ring_depth as usize
        } else {
            0
        };
        let shards = (0..shard_count)
            .map(|_| Shard::new(dense_slots, ring_slots))
            .collect();
        let region_count = regions_per_shard as usize * shard_count;
        let initial_grain = initial_grain_log2.clamp(config.grain_log2, region_log2);
        let mut region_grains = Vec::with_capacity(region_count);
        region_grains.resize_with(region_count, || AtomicU32::new(initial_grain));
        let mut region_seqs = Vec::with_capacity(region_count);
        region_seqs.resize_with(region_count, || AtomicU32::new(0));
        let mut region_stats = Vec::with_capacity(region_count);
        region_stats.resize_with(region_count, RegionCounters::default);
        CommitLog {
            config,
            region_log2,
            slots_per_region,
            shard_mask: (shard_count as u64) - 1,
            shard_bits: shard_count.trailing_zeros(),
            regions_per_shard,
            shards,
            region_grains,
            region_seqs,
            region_stats,
            initial_grain,
            batches: AtomicU64::new(0),
            singles: AtomicU64::new(0),
            stamped: AtomicU64::new(0),
            regrains: AtomicU64::new(0),
            lock_ns: AtomicU64::new(0),
            reader_spills: AtomicU64::new(0),
            cas_retries: AtomicU64::new(0),
            ring_overflows: AtomicU64::new(0),
        }
    }

    /// The grain/shard configuration this log runs with (`grain_log2` is
    /// the floor grain).
    pub fn config(&self) -> CommitLogConfig {
        self.config
    }

    /// Log2 of the grain-control region size in bytes.
    pub fn region_log2(&self) -> u32 {
        self.region_log2
    }

    /// The region covering `addr`.
    pub fn region_of(&self, addr: Addr) -> RegionId {
        addr >> self.region_log2
    }

    /// The live grain (log2 bytes) of `region` — the configured floor
    /// grain for regions beyond the dense window, which are never
    /// regrained.
    pub fn grain_of_region(&self, region: RegionId) -> u32 {
        match usize::try_from(region) {
            Ok(idx) if idx < self.region_grains.len() => {
                self.region_grains[idx].load(Ordering::Acquire)
            }
            _ => self.config.grain_log2,
        }
    }

    /// The live grain (log2 bytes) tracking `addr` right now.
    pub fn grain_of(&self, addr: Addr) -> u32 {
        self.grain_of_region(self.region_of(addr))
    }

    /// The range covering `addr` at its region's current grain.
    pub fn range_of(&self, addr: Addr) -> RangeId {
        addr >> self.grain_of(addr)
    }

    fn shard_of_region(&self, region: RegionId) -> usize {
        (region & self.shard_mask) as usize
    }

    /// Whether `region` is inside the dense (lock-free, regrainable)
    /// window.
    fn region_is_dense(&self, region: RegionId) -> bool {
        (region >> self.shard_bits) < self.regions_per_shard
    }

    /// Locate `addr`'s slot at grain `grain_log2`.
    fn slot_at(&self, addr: Addr, grain_log2: u32) -> Slot {
        let region = self.region_of(addr);
        let shard = self.shard_of_region(region);
        if self.region_is_dense(region) {
            let block = (region >> self.shard_bits) as usize * self.slots_per_region;
            let offset = addr & ((1u64 << self.region_log2) - 1);
            Slot::Dense {
                shard,
                local: block + (offset >> grain_log2) as usize,
            }
        } else {
            Slot::Sparse {
                shard,
                range: addr >> self.config.grain_log2,
            }
        }
    }

    /// Locate `addr`'s slot at its region's current grain.
    fn slot_of(&self, addr: Addr) -> Slot {
        self.slot_at(addr, self.grain_of(addr))
    }

    /// Whether `addr` is covered by the dense (lock-free) version window.
    pub fn dense_covers(&self, addr: Addr) -> bool {
        self.region_is_dense(self.region_of(addr))
    }

    /// The read snapshot for `addr`: the current epoch of the shard
    /// owning the address's region (acquire).
    ///
    /// Speculative readers sample this *before* loading the word from
    /// main memory and stamp the read-set entry with it; join-time
    /// validation compares it against [`version_of`](Self::version_of) on
    /// the same shard counter.  The shard is determined by the *region*,
    /// never the grain, so snapshots survive regrains.
    pub fn snapshot(&self, addr: Addr) -> CommitVersion {
        self.shards[self.shard_of_region(self.region_of(addr))]
            .epoch
            .load(Ordering::Acquire)
    }

    /// Version of the last commit that wrote any word of `addr`'s range
    /// (0 = never written through the log; a regrain of the region counts
    /// as a conservative whole-region write).
    pub fn version_of(&self, addr: Addr) -> CommitVersion {
        match self.slot_of(addr) {
            Slot::Dense { shard, local } => self.shards[shard].dense[local].load(Ordering::Acquire),
            Slot::Sparse { shard, range } => self.shards[shard]
                .sparse
                .read()
                .get(&range)
                .copied()
                .unwrap_or(0),
        }
    }

    /// True when a commit wrote `addr`'s *range* after a read of `addr`
    /// stamped with `read_version` — the (range-conservative) dependence
    /// violation condition.  May flag false sharing (a different word of
    /// the same range, or a conservative regrain flush); never misses a
    /// genuine conflict.
    pub fn written_after(&self, addr: Addr, read_version: CommitVersion) -> bool {
        self.version_of(addr) > read_version
    }

    /// The configured (normalized) version-ring depth; 1 = no rings.
    pub fn ring_depth(&self) -> u32 {
        self.config.ring_depth
    }

    /// Probe the version ring of `addr`'s range: did any commit after
    /// `read_version` touch the *word* holding `addr`?
    ///
    /// Never less conservative than
    /// [`written_after`](Self::written_after): a genuine post-snapshot
    /// write of the word always yields [`RingCheck::Touched`] or
    /// [`RingCheck::Overflow`] (a committer ring-merges before its
    /// dense stamp, and validation runs after the relevant commit's
    /// [`record`](Self::record) returned — the same join-ordering
    /// contract the single-version path relies on).  May be *more*
    /// precise: post-snapshot commits to other words of the range yield
    /// [`RingCheck::Precise`] instead of a false-sharing doom.  At
    /// depth 1, for sparse ranges, and on overflow it degenerates to
    /// the single-version answer.
    pub fn probe_written(&self, addr: Addr, read_version: CommitVersion) -> RingCheck {
        let (shard_idx, local) = match self.slot_of(addr) {
            Slot::Dense { shard, local } => (shard, local),
            Slot::Sparse { shard, range } => {
                // Sparse ranges keep no history: single-version answer.
                let cur = self.shards[shard]
                    .sparse
                    .read()
                    .get(&range)
                    .copied()
                    .unwrap_or(0);
                return if cur > read_version {
                    RingCheck::Touched { newest_touch: cur }
                } else {
                    RingCheck::Clean
                };
            }
        };
        let shard = &self.shards[shard_idx];
        let cur = shard.dense[local].load(Ordering::Acquire);
        if cur <= read_version {
            return RingCheck::Clean;
        }
        let depth = self.config.ring_depth as u64;
        if depth <= 1 || shard.rings.is_empty() {
            return RingCheck::Touched { newest_touch: cur };
        }
        if cur >= RING_VERSION_CAP {
            // Version space exhausted: entries past the cap were never
            // published, so the ring cannot be trusted.
            self.ring_overflows.fetch_add(1, Ordering::Relaxed);
            return RingCheck::Overflow;
        }
        let bucket_log2 = self.config.ring_bucket_log2;
        let cur_bucket = cur >> bucket_log2;
        let read_bucket = read_version >> bucket_log2;
        if cur_bucket - read_bucket >= depth {
            self.ring_overflows.fetch_add(1, Ordering::Relaxed);
            return RingCheck::Overflow;
        }
        let my_bit = footprint_bit(addr);
        let mut newest_touch = 0;
        for bucket in read_bucket..=cur_bucket {
            let idx = local * depth as usize + (bucket % depth) as usize;
            let entry = shard.rings[idx].load(Ordering::Acquire);
            let entry_bucket = ring_version(entry) >> bucket_log2;
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

    /// CAS-merge a commit's `(version, footprint)` into slot `local`'s
    /// ring, **before** the dense version stamp (so a probe that sees
    /// the raised slot sees the ring entry too, under the join-ordering
    /// contract).  Same bucket: max the version, OR the footprint;
    /// older bucket: replace; newer bucket already present: leave it —
    /// the displaced bucket's validators fall back conservatively.
    fn ring_merge(&self, shard: &Shard, local: usize, version: CommitVersion, footprint: u64) {
        let depth = self.config.ring_depth as u64;
        if depth <= 1 || shard.rings.is_empty() || version >= RING_VERSION_CAP {
            return;
        }
        let bucket_log2 = self.config.ring_bucket_log2;
        let bucket = version >> bucket_log2;
        let slot = &shard.rings[local * depth as usize + (bucket % depth) as usize];
        let mut cur = slot.load(Ordering::Relaxed);
        loop {
            let cur_bucket = ring_version(cur) >> bucket_log2;
            let proposed = if cur_bucket == bucket {
                ring_pack(
                    ring_version(cur).max(version),
                    ring_footprint(cur) | footprint,
                )
            } else if cur_bucket < bucket {
                ring_pack(version, footprint)
            } else {
                return;
            };
            if proposed == cur {
                return;
            }
            match slot.compare_exchange_weak(cur, proposed, Ordering::Release, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// The maximum shard epoch (acquire per shard) — a monotone bound for
    /// diagnostics.  **Not** a valid read snapshot: shard counters
    /// advance independently, so use [`snapshot`](Self::snapshot) when
    /// stamping reads.
    pub fn epoch(&self) -> CommitVersion {
        self.shards
            .iter()
            .map(|s| s.epoch.load(Ordering::Acquire))
            .max()
            .unwrap_or(0)
    }

    // ----- commit path ------------------------------------------------

    /// Record one commit batch covering `addrs` and return the largest
    /// shard version the batch published (the current [`epoch`](Self::epoch)
    /// for an empty batch, which records nothing).
    ///
    /// The caller must have already written the data words to main memory
    /// (see the module-level ordering protocol).  The batch's addresses
    /// are grouped by shard (a region-level property, independent of any
    /// concurrent regrain).  Each shard's version is
    /// reserved-and-published with one `SeqCst` `fetch_add` and the
    /// touched slots raised by CAS under the per-region seqlock words.
    pub fn record<I: IntoIterator<Item = Addr>>(&self, addrs: I) -> CommitVersion {
        self.record_counted(addrs).0
    }

    /// Like [`record`](Self::record), but also return the number of CAS
    /// retries this batch paid on the stamp path (same-slot
    /// `compare_exchange` losses plus seqlock-forced re-stamps) — the
    /// runtime surfaces it per commit as a
    /// `CommitCasRetry` trace event.
    pub fn record_counted<I: IntoIterator<Item = Addr>>(&self, addrs: I) -> (CommitVersion, u64) {
        let mut iter = addrs.into_iter();
        let Some(first) = iter.next() else {
            return (self.epoch(), 0);
        };
        let mut addrs: Vec<Addr> = iter.collect();
        if addrs.is_empty() {
            // Single-address batch: the non-speculative direct-store fast
            // path — one shard, no grouping allocation.
            return self.record_single(first);
        }
        addrs.push(first);
        // Sorting by (shard, addr) groups each shard's addresses into one
        // contiguous run, so the publish loop below walks slices of this
        // single Vec — no per-shard bucket allocation on the commit path.
        // Within a run addresses ascend, so equal ranges are adjacent and
        // the stamp walk can deduplicate by slot.
        let region_log2 = self.region_log2;
        let mask = self.shard_mask;
        addrs.sort_unstable_by_key(|a| ((a >> region_log2) & mask, *a));
        addrs.dedup();
        let sample = lock_time_sampled(self.batches.fetch_add(1, Ordering::Relaxed));
        let mut max_version = 0;
        let mut retries = 0u64;
        let mut start = 0;
        while start < addrs.len() {
            let shard_idx = self.shard_of_region(self.region_of(addrs[start]));
            let mut end = start + 1;
            while end < addrs.len() && self.shard_of_region(self.region_of(addrs[end])) == shard_idx
            {
                end += 1;
            }
            let shard = &self.shards[shard_idx];
            let started = sample.then(Instant::now);
            let version = self.publish_run(shard, &addrs[start..end], &mut retries);
            if let Some(started) = started {
                self.lock_ns.fetch_add(
                    (started.elapsed().as_nanos() as u64) << LOCK_SAMPLE_LOG2,
                    Ordering::Relaxed,
                );
            }
            max_version = max_version.max(version);
            start = end;
        }
        if retries > 0 {
            self.cas_retries.fetch_add(retries, Ordering::Relaxed);
        }
        (max_version, retries)
    }

    /// Publish one shard's (sorted, deduplicated) address run.
    /// Reserve-and-publish the version with one `SeqCst`
    /// `fetch_add`, then raise each touched slot by CAS, bracketing
    /// every region's stamps with its seqlock word so a racing regrain
    /// forces a re-stamp at the then-current grain (see the module
    /// docs for why each step is sound).
    fn publish_run(&self, shard: &Shard, run: &[Addr], retries: &mut u64) -> CommitVersion {
        let version = shard.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let mut stamped = 0u64;
        // Addresses ascend within the run, so each region's addresses
        // form one contiguous subgroup — the unit the seqlock check
        // brackets (a regrain rebuilds exactly one region).
        let mut start = 0;
        while start < run.len() {
            let region = self.region_of(run[start]);
            let mut end = start + 1;
            while end < run.len() && self.region_of(run[end]) == region {
                end += 1;
            }
            stamped +=
                self.stamp_region_group_cas(shard, region, &run[start..end], version, retries);
            start = end;
        }
        self.stamped.fetch_add(stamped, Ordering::Relaxed);
        version
    }

    /// CAS-stamp one region's (sorted, deduplicated) addresses with
    /// `version` under the region's seqlock word; returns the number of
    /// distinct slots stamped.  Spins while a regrain holds the word
    /// odd, re-stamps if it moved across the pass.
    fn stamp_region_group_cas(
        &self,
        shard: &Shard,
        region: RegionId,
        group: &[Addr],
        version: CommitVersion,
        retries: &mut u64,
    ) -> u64 {
        if !self.region_is_dense(region) {
            // Sparse fallback: never regrained, no seqlock word — a
            // max-insert under the stripe's write lock (the slow path
            // by design).
            let mut stamped = 0u64;
            let mut last: Option<RangeId> = None;
            for &addr in group {
                let range = addr >> self.config.grain_log2;
                if last == Some(range) {
                    continue;
                }
                last = Some(range);
                shard.stamp_sparse_max(range, version);
                stamped += 1;
            }
            return stamped;
        }
        let seq = &self.region_seqs[region as usize];
        loop {
            let before = seq.load(Ordering::SeqCst);
            if before & 1 == 1 {
                // A regrain is rebuilding this region: wait it out
                // (observe only — committers never take the slow lock).
                std::hint::spin_loop();
                std::thread::yield_now();
                continue;
            }
            // The grain read is guarded by the seqlock bracket, not a
            // lock: if a regrain flips it mid-pass the re-check below
            // fails and the pass redoes at the then-current grain.
            let grain = self.grain_of_region(region);
            let mut stamped = 0u64;
            // Adjacent same-slot addresses accumulate one footprint (a
            // coarse range holds many words, each its own ring bit), so
            // the flush below publishes the whole slot's footprint in
            // one ring merge before the one dense CAS.
            let mut pending: Option<(usize, u64)> = None;
            let flush = |pending: &mut Option<(usize, u64)>, retries: &mut u64| {
                let Some((local, footprint)) = pending.take() else {
                    return;
                };
                // Ring first (see `ring_merge`), then the monotone
                // CAS-max: a slot already at or above `version` was
                // raised by a concurrent later commit (or a regrain
                // flush) — the stamp is free, never lowered.
                self.ring_merge(shard, local, version, footprint);
                let slot = &shard.dense[local];
                let mut cur = slot.load(Ordering::Relaxed);
                while cur < version {
                    match slot.compare_exchange_weak(
                        cur,
                        version,
                        Ordering::Release,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(actual) => {
                            *retries += 1;
                            cur = actual;
                        }
                    }
                }
            };
            for &addr in group {
                let Slot::Dense { local, .. } = self.slot_at(addr, grain) else {
                    unreachable!("dense region resolved to a sparse slot");
                };
                match &mut pending {
                    Some((l, footprint)) if *l == local => {
                        *footprint |= footprint_bit(addr);
                        continue;
                    }
                    _ => {}
                }
                flush(&mut pending, retries);
                pending = Some((local, footprint_bit(addr)));
                stamped += 1;
            }
            flush(&mut pending, retries);
            if seq.load(Ordering::SeqCst) == before {
                // No regrain raced the pass: every stamp landed on a
                // live slot of the observed grain.
                self.bump_region_stamps_by(region, stamped);
                return stamped;
            }
            // A regrain moved the grain under the pass: its flush
            // already raised every floor slot, but our stamps may sit
            // on dead slots — redo at the new grain.
            *retries += 1;
        }
    }

    fn bump_region_stamps_by(&self, region: RegionId, n: u64) {
        if n == 0 {
            return;
        }
        if let Ok(idx) = usize::try_from(region) {
            if idx < self.region_stats.len() {
                self.region_stats[idx]
                    .stamps
                    .fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    fn record_single(&self, addr: Addr) -> (CommitVersion, u64) {
        let sample = lock_time_sampled(self.singles.fetch_add(1, Ordering::Relaxed));
        let region = self.region_of(addr);
        let shard_idx = self.shard_of_region(region);
        let shard = &self.shards[shard_idx];
        let started = sample.then(Instant::now);
        let mut retries = 0u64;
        let version = shard.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        // One address is a one-element region group: the seqlock
        // bracket, grain read, and CAS-max all apply unchanged.
        let stamped = self.stamp_region_group_cas(shard, region, &[addr], version, &mut retries);
        debug_assert_eq!(stamped, 1);
        if retries > 0 {
            self.cas_retries.fetch_add(retries, Ordering::Relaxed);
        }
        if let Some(started) = started {
            self.lock_ns.fetch_add(
                (started.elapsed().as_nanos() as u64) << LOCK_SAMPLE_LOG2,
                Ordering::Relaxed,
            );
        }
        (version, retries)
    }

    /// Record a single-word commit (the non-speculative direct-store path).
    pub fn record_word(&self, addr: Addr) -> CommitVersion {
        self.record_single(addr).0
    }

    // ----- regrain ----------------------------------------------------

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
    /// still re-stamp them in place.  Regions beyond the dense window are
    /// not regrainable; the call is a no-op returning an empty set.
    pub fn regrain(&self, region: RegionId, new_grain_log2: u32) -> (CommitVersion, ReaderSet) {
        let new_grain = new_grain_log2.clamp(self.config.grain_log2, self.region_log2);
        if !self.region_is_dense(region) {
            return (0, ReaderSet::default());
        }
        let idx = region as usize;
        let shard_idx = self.shard_of_region(region);
        let shard = &self.shards[shard_idx];
        let _guard = shard.slow_lock.lock();
        if self.region_grains[idx].load(Ordering::Relaxed) == new_grain {
            return (shard.epoch.load(Ordering::Relaxed), ReaderSet::default());
        }
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
            bits |= shard.readers_dense[local].swap(0, Ordering::SeqCst);
        }
        let mut spilled = Vec::new();
        if bits & READER_SPILL_BIT != 0 {
            let mut spill = shard.readers_spill_dense.write();
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

    // ----- reader registry --------------------------------------------

    /// Register thread `rank` as a reader of `addr`'s range and return the
    /// read snapshot to stamp the read-set entry with.
    ///
    /// This is the seqlock-style protocol of the module docs: the
    /// registration lands first (one `SeqCst` RMW for tracked ranks, a
    /// spill-set insert plus the sticky marker bit for ranks past the
    /// window — both off the slow-path lock) and the shard epoch is
    /// (re-)read *after* the registration is globally visible.  A
    /// committer whose [`take_readers`](Self::take_readers) misses the
    /// registration must therefore have published its epoch before this
    /// snapshot, so the snapshot covers the commit and the read is not
    /// stale.  Rank 0 (the non-speculative thread) registers nothing.
    pub fn register_reader(&self, addr: Addr, rank: usize) -> CommitVersion {
        let region = self.region_of(addr);
        let shard = &self.shards[self.shard_of_region(region)];
        let bit = reader_bit(rank);
        if bit != 0 {
            if bit == READER_SPILL_BIT {
                self.reader_spills.fetch_add(1, Ordering::Relaxed);
            }
            match self.slot_of(addr) {
                Slot::Dense { local, .. } => {
                    if bit == READER_SPILL_BIT {
                        shard
                            .readers_spill_dense
                            .write()
                            .entry(local)
                            .or_default()
                            .insert(rank);
                    }
                    shard.readers_dense[local].fetch_or(bit, Ordering::SeqCst);
                }
                Slot::Sparse { range, .. } => {
                    if bit == READER_SPILL_BIT {
                        shard
                            .readers_spill_sparse
                            .write()
                            .entry(range)
                            .or_default()
                            .insert(rank);
                    }
                    // Registration is a fetch_or under the *read* lock —
                    // the write lock is only paid once, to materialize a
                    // missing entry (the `fetch_or` keeps the SeqCst slot
                    // in the registry's ordering argument either way).
                    let registered = shard
                        .readers_sparse
                        .read()
                        .get(&range)
                        .map(|bits| {
                            bits.fetch_or(bit, Ordering::SeqCst);
                        })
                        .is_some();
                    if !registered {
                        shard
                            .readers_sparse
                            .write()
                            .entry(range)
                            .or_insert_with(|| AtomicU64::new(0))
                            .fetch_or(bit, Ordering::SeqCst);
                    }
                }
            }
        }
        shard.epoch.load(Ordering::SeqCst)
    }

    /// Remove thread `rank` from the reader registry of every range
    /// covering `addrs` (a joined thread's read set — committed or
    /// squashed, its registrations are dead and would only cause spurious
    /// dooms).  The spill marker stays sticky while other spilled ranks
    /// remain; it is cleared when the last one leaves.
    pub fn unregister_reader<I: IntoIterator<Item = Addr>>(&self, addrs: I, rank: usize) {
        let bit = reader_bit(rank);
        if bit == 0 {
            return;
        }
        let mut last_dense: Option<(usize, usize)> = None;
        let mut last_sparse: Option<(usize, RangeId)> = None;
        for addr in addrs {
            let shard_idx = self.shard_of_region(self.region_of(addr));
            let shard = &self.shards[shard_idx];
            match self.slot_of(addr) {
                Slot::Dense { local, .. } => {
                    if last_dense == Some((shard_idx, local)) {
                        continue;
                    }
                    last_dense = Some((shard_idx, local));
                    if bit == READER_SPILL_BIT {
                        let mut spill = shard.readers_spill_dense.write();
                        if let Some(set) = spill.get_mut(&local) {
                            set.remove(&rank);
                            if set.is_empty() {
                                spill.remove(&local);
                                shard.readers_dense[local].fetch_and(!bit, Ordering::SeqCst);
                            }
                        }
                    } else {
                        shard.readers_dense[local].fetch_and(!bit, Ordering::SeqCst);
                    }
                }
                Slot::Sparse { range, .. } => {
                    if last_sparse == Some((shard_idx, range)) {
                        continue;
                    }
                    last_sparse = Some((shard_idx, range));
                    if bit == READER_SPILL_BIT {
                        let mut spill = shard.readers_spill_sparse.write();
                        let emptied = match spill.get_mut(&range) {
                            Some(set) => {
                                set.remove(&rank);
                                set.is_empty()
                            }
                            None => false,
                        };
                        if !emptied {
                            continue;
                        }
                        spill.remove(&range);
                    }
                    let mut sparse = shard.readers_sparse.write();
                    if let Some(bits) = sparse.get_mut(&range) {
                        if bits.fetch_and(!bit, Ordering::SeqCst) & !bit == 0 {
                            sparse.remove(&range);
                        }
                    }
                }
            }
        }
    }

    /// Move the registrations for `addrs` from thread `from` to thread
    /// `to` — a speculative parent absorbing its child's read set inherits
    /// the child's dependences, so future commits to those ranges must
    /// doom the *parent* now.
    pub fn transfer_reader<I: IntoIterator<Item = Addr>>(&self, addrs: I, from: usize, to: usize) {
        let mut last: Option<Addr> = None;
        let grain = self.config.grain_log2;
        for addr in addrs {
            // Conservative dedup at the floor grain (same floor range ⇒
            // same slot at any live grain).
            let floor = addr >> grain;
            if last == Some(floor) {
                continue;
            }
            last = Some(floor);
            self.register_reader_as(addr, to);
            self.unregister_reader([addr], from);
        }
    }

    /// Registration half of [`transfer_reader`](Self::transfer_reader)
    /// (no snapshot needed).
    fn register_reader_as(&self, addr: Addr, rank: usize) {
        if reader_bit(rank) == 0 {
            return;
        }
        let _ = self.register_reader(addr, rank);
    }

    /// Enumerate *and clear* the registered readers of every range
    /// covering `addrs` — called by a committing writer immediately after
    /// [`record`](Self::record), so the returned set is exactly the
    /// threads whose read sets overlap the just-stamped ranges (tracked
    /// bitmask ranks plus every spilled rank; enumeration is complete at
    /// any thread count).  Clearing on enumeration bounds registry
    /// staleness: the returned readers are about to be doomed and will
    /// re-register when they re-execute.
    pub fn take_readers<I: IntoIterator<Item = Addr>>(&self, addrs: I) -> ReaderSet {
        let mut bits = 0u64;
        let mut spilled: Vec<usize> = Vec::new();
        let mut last_dense: Option<(usize, usize)> = None;
        let mut last_sparse: Option<(usize, RangeId)> = None;
        for addr in addrs {
            let shard_idx = self.shard_of_region(self.region_of(addr));
            let shard = &self.shards[shard_idx];
            match self.slot_of(addr) {
                Slot::Dense { local, .. } => {
                    if last_dense == Some((shard_idx, local)) {
                        continue;
                    }
                    last_dense = Some((shard_idx, local));
                    // Fast path: an unread range stays a single load — but
                    // it must be SeqCst, not relaxed, or it could miss a
                    // registration that precedes this enumeration in the
                    // SC order and break the missed-reader argument of the
                    // module docs (a relaxed load participates in no SC
                    // total order).
                    if shard.readers_dense[local].load(Ordering::SeqCst) != 0 {
                        let taken = shard.readers_dense[local].swap(0, Ordering::SeqCst);
                        bits |= taken;
                        if taken & READER_SPILL_BIT != 0 {
                            if let Some(set) = shard.readers_spill_dense.write().remove(&local) {
                                spilled.extend(set);
                            }
                        }
                    }
                }
                Slot::Sparse { range, .. } => {
                    if last_sparse == Some((shard_idx, range)) {
                        continue;
                    }
                    last_sparse = Some((shard_idx, range));
                    let occupied = !shard.readers_sparse.read().is_empty();
                    if occupied {
                        if let Some(found) = shard.readers_sparse.write().remove(&range) {
                            let found = found.into_inner();
                            bits |= found;
                            if found & READER_SPILL_BIT != 0 {
                                if let Some(set) = shard.readers_spill_sparse.write().remove(&range)
                                {
                                    spilled.extend(set);
                                }
                            }
                        }
                    }
                }
            }
        }
        ReaderSet::from_parts(bits, spilled)
    }

    /// Enumerate-and-clear the readers of a single word's range (the
    /// non-speculative direct-store fast path).
    pub fn take_readers_of_word(&self, addr: Addr) -> ReaderSet {
        self.take_readers([addr])
    }

    /// The registered readers of `addr`'s range (tests and diagnostics;
    /// does not clear).
    pub fn registered_readers(&self, addr: Addr) -> ReaderSet {
        let shard = &self.shards[self.shard_of_region(self.region_of(addr))];
        let (bits, spilled) = match self.slot_of(addr) {
            Slot::Dense { local, .. } => {
                let bits = shard.readers_dense[local].load(Ordering::SeqCst);
                let spilled = if bits & READER_SPILL_BIT != 0 {
                    shard
                        .readers_spill_dense
                        .read()
                        .get(&local)
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default()
                } else {
                    Vec::new()
                };
                (bits, spilled)
            }
            Slot::Sparse { range, .. } => {
                let bits = shard
                    .readers_sparse
                    .read()
                    .get(&range)
                    .map(|b| b.load(Ordering::SeqCst))
                    .unwrap_or(0);
                let spilled = if bits & READER_SPILL_BIT != 0 {
                    shard
                        .readers_spill_sparse
                        .read()
                        .get(&range)
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default()
                } else {
                    Vec::new()
                };
                (bits, spilled)
            }
        };
        ReaderSet::from_parts(bits, spilled)
    }

    // ----- telemetry --------------------------------------------------

    /// Attribute one conflict to `addr`'s region (`suspected_false_sharing`
    /// when the conflicting word still held its first-read value) — the
    /// grain controller's split signal.  No-op outside the dense window.
    pub fn note_conflict(&self, addr: Addr, suspected_false_sharing: bool) {
        let region = self.region_of(addr);
        if let Ok(idx) = usize::try_from(region) {
            if idx < self.region_stats.len() {
                self.region_stats[idx]
                    .conflicts
                    .fetch_add(1, Ordering::Relaxed);
                if suspected_false_sharing {
                    self.region_stats[idx]
                        .false_sharing
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Attribute one successful value-predict retry to `addr`'s region —
    /// a conflict the current grain made cheap instead of fatal.
    pub fn note_retry(&self, addr: Addr) {
        let region = self.region_of(addr);
        if let Ok(idx) = usize::try_from(region) {
            if idx < self.region_stats.len() {
                self.region_stats[idx]
                    .retries
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Snapshot the per-region telemetry of every *touched* dense region
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

    /// Census of the live grains across touched dense regions:
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

    /// Number of commit batches recorded so far.
    pub fn commits(&self) -> u64 {
        self.batches.load(Ordering::Relaxed) + self.singles.load(Ordering::Relaxed)
    }

    /// Number of regions whose grain was flipped at runtime.
    pub fn regrains(&self) -> u64 {
        self.regrains.load(Ordering::Relaxed)
    }

    /// Cumulative CAS retries on the stamp path — the commit-path
    /// contention signal.
    pub fn cas_retries(&self) -> u64 {
        self.cas_retries.load(Ordering::Relaxed)
    }

    /// Number of distinct ranges currently carrying a stamp.  (A regrain
    /// conservatively stamps its whole region, so this is an upper bound
    /// on commit-touched ranges once the controller is active.)
    pub fn stamped_ranges(&self) -> usize {
        let dense: usize = self
            .shards
            .iter()
            .flat_map(|s| s.dense.iter())
            .filter(|v| v.load(Ordering::Relaxed) != 0)
            .count();
        let sparse: usize = self.shards.iter().map(|s| s.sparse.read().len()).sum();
        dense + sparse
    }

    /// Aggregate activity counters since construction or the last
    /// [`clear`](Self::clear).
    pub fn stats(&self) -> CommitLogStats {
        CommitLogStats {
            commits: self.commits(),
            stamp_writes: self.stamped.load(Ordering::Relaxed)
                + self.singles.load(Ordering::Relaxed),
            lock_ns: self.lock_ns.load(Ordering::Relaxed),
            cas_retries: self.cas_retries.load(Ordering::Relaxed),
            regrains: self.regrains.load(Ordering::Relaxed),
            reader_spills: self.reader_spills.load(Ordering::Relaxed),
            ring_overflows: self.ring_overflows.load(Ordering::Relaxed),
            grain_log2: self.config.grain_log2,
            shards: self.config.shards,
            ring_depth: self.config.ring_depth,
        }
    }

    /// Forget everything (start of a new speculative region run): stamps,
    /// registries, telemetry, and every region's grain back to the
    /// initial grain.
    pub fn clear(&self) {
        for shard in &self.shards {
            let _guard = shard.slow_lock.lock();
            for v in &shard.dense {
                v.store(0, Ordering::Relaxed);
            }
            for v in &shard.rings {
                v.store(0, Ordering::Relaxed);
            }
            shard.sparse.write().clear();
            for r in &shard.readers_dense {
                r.store(0, Ordering::Relaxed);
            }
            shard.readers_spill_dense.write().clear();
            shard.readers_sparse.write().clear();
            shard.readers_spill_sparse.write().clear();
            shard.epoch.store(0, Ordering::Release);
        }
        for grain in &self.region_grains {
            grain.store(self.initial_grain, Ordering::Release);
        }
        for seq in &self.region_seqs {
            seq.store(0, Ordering::Release);
        }
        for stats in &self.region_stats {
            stats.stamps.store(0, Ordering::Relaxed);
            stats.conflicts.store(0, Ordering::Relaxed);
            stats.false_sharing.store(0, Ordering::Relaxed);
            stats.retries.store(0, Ordering::Relaxed);
        }
        self.batches.store(0, Ordering::Relaxed);
        self.singles.store(0, Ordering::Relaxed);
        self.stamped.store(0, Ordering::Relaxed);
        self.regrains.store(0, Ordering::Relaxed);
        self.lock_ns.store(0, Ordering::Relaxed);
        self.reader_spills.store(0, Ordering::Relaxed);
        self.cas_retries.store(0, Ordering::Relaxed);
        self.ring_overflows.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A word-granular, single-shard log behaves exactly like the old
    /// design for these unit tests.
    fn word_log() -> CommitLog {
        CommitLog::with_config(CommitLogConfig::word_grain().shards(1), 0)
    }

    #[test]
    fn versions_are_monotone_per_batch() {
        let log = word_log();
        assert_eq!(log.epoch(), 0);
        let v1 = log.record([8, 16]);
        let v2 = log.record([24]);
        assert!(v2 > v1);
        assert_eq!(log.version_of(8), v1);
        assert_eq!(log.version_of(16), v1);
        assert_eq!(log.version_of(24), v2);
        assert_eq!(log.version_of(32), 0);
        assert_eq!(log.commits(), 2);
        assert_eq!(log.stamped_ranges(), 3);
    }

    #[test]
    fn written_after_flags_only_later_commits() {
        let log = word_log();
        let before = log.snapshot(64);
        log.record_word(64);
        // A read stamped before the commit conflicts…
        assert!(log.written_after(64, before));
        // …a read stamped at (or after) the commit does not.
        assert!(!log.written_after(64, log.snapshot(64)));
        // Untouched addresses never conflict.
        assert!(!log.written_after(72, before));
    }

    #[test]
    fn rewrite_bumps_the_version() {
        let log = word_log();
        let v1 = log.record_word(8);
        let v2 = log.record_word(8);
        assert!(v2 > v1);
        assert!(log.written_after(8, v1));
    }

    #[test]
    fn dense_range_and_sparse_fallback_agree() {
        // Dense window covers the first 512 bytes (rounded up to a whole
        // region); everything beyond falls back to the sparse maps
        // transparently.
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 512);
        assert!(log.dense_covers(504));
        assert!(!log.dense_covers(1 << 20));
        log.record([8, 504, 512, 1 << 20, (1 << 20) + 4096]);
        for addr in [8, 504, 512, 1 << 20, (1 << 20) + 4096] {
            assert!(log.version_of(addr) > 0, "addr {addr}");
            assert!(log.written_after(addr, 0));
        }
        assert_eq!(log.stamped_ranges(), 5);
        log.clear();
        for addr in [8, 504, 512, 1 << 20, (1 << 20) + 4096] {
            assert_eq!(log.version_of(addr), 0, "addr {addr}");
        }
        assert_eq!(log.stamped_ranges(), 0);
    }

    #[test]
    fn dense_capacity_rounds_up_to_whole_regions() {
        // Regression: a capacity that is not word- (or range-) aligned
        // must still cover the trailing partial word densely — the dense
        // window now rounds up to whole grain-control regions.
        let log = CommitLog::with_config(CommitLogConfig::word_grain().shards(1), 509);
        assert!(log.dense_covers(504));
        let log = CommitLog::with_config(CommitLogConfig::default(), 65);
        assert!(log.dense_covers(64));
    }

    #[test]
    fn range_grain_coarsens_conservatively() {
        // At line grain, two words of the same 64-byte range share a
        // version (false sharing allowed)…
        let log = CommitLog::with_config(CommitLogConfig::line_grain(), 0);
        let before = log.snapshot(8);
        log.record_word(8);
        assert!(log.written_after(8, before), "the written word conflicts");
        assert!(
            log.written_after(56, before),
            "a neighbour in the same line conflicts too (false sharing)"
        );
        // …but a word in the next range does not (no missed conflicts is
        // about ranges *covering* the write, not about spill-over).
        assert!(!log.written_after(64, log.snapshot(64)));
        assert_eq!(log.stamped_ranges(), 1, "one line, one stamp");
    }

    #[test]
    fn shard_epochs_advance_independently() {
        // Consecutive *regions* (not ranges) interleave across shards
        // since grain control landed: addresses one region apart map to
        // different shards with 2+ shards; each shard versions its own
        // commits from 1.
        let config = CommitLogConfig::word_grain().shards(2);
        let log = CommitLog::with_config(config, 0);
        let region_bytes = 1u64 << log.region_log2();
        let v_a = log.record_word(0); // region 0 → shard 0
        let v_b = log.record_word(region_bytes); // region 1 → shard 1
        assert_eq!(v_a, 1);
        assert_eq!(v_b, 1, "second shard starts its own epoch");
        assert_eq!(log.epoch(), 1, "global epoch is the max over shards");
        let v_a2 = log.record_word(0);
        assert_eq!(v_a2, 2);
        assert_eq!(log.epoch(), 2);
        assert_eq!(log.commits(), 3);
        // Same region ⇒ same shard, at any grain.
        assert!(log.snapshot(0) == log.snapshot(8));
    }

    #[test]
    fn multi_shard_batch_stamps_every_shard() {
        let config = CommitLogConfig::word_grain().shards(4);
        let log = CommitLog::with_config(config, 1 << 16);
        let region = 1u64 << log.region_log2();
        let batch = [0, region, 2 * region, 3 * region];
        let before: Vec<_> = batch.iter().map(|&a| log.snapshot(a)).collect();
        // One batch spanning all four shards.
        log.record(batch);
        for (addr, before) in batch.into_iter().zip(before) {
            assert!(log.written_after(addr, before), "addr {addr}");
        }
        assert_eq!(log.commits(), 1);
        assert_eq!(log.stamped_ranges(), 4);
        assert_eq!(log.stats().stamp_writes, 4);
    }

    #[test]
    fn lock_free_snapshot_covers_the_data_not_the_stamp() {
        // A commit publishes the epoch *before* stamping, so
        // `version_of >= snapshot` does not hold transiently.  The
        // invariants are: a slot never exceeds a subsequently-sampled
        // shard epoch (the stamp's version was reserved from that epoch
        // first), slots are monotone, and once the committer is
        // quiescent every stamp has caught up exactly.
        let log = std::sync::Arc::new(CommitLog::with_dense_bytes(1 << 12));
        let stop = std::sync::Arc::new(AtomicU64::new(0));
        let writer = {
            let log = std::sync::Arc::clone(&log);
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                for _ in 0..20_000 {
                    log.record([8, 256, 1024]);
                }
                stop.store(1, Ordering::Release);
            })
        };
        let mut floor = [0u64; 3];
        while stop.load(Ordering::Acquire) == 0 {
            for (i, addr) in [8u64, 256, 1024].into_iter().enumerate() {
                let version = log.version_of(addr);
                assert!(version >= floor[i], "slots are monotone");
                floor[i] = version;
                assert!(
                    log.snapshot(addr) >= version,
                    "a stamp outran the epoch it was reserved from"
                );
            }
        }
        writer.join().unwrap();
        assert_eq!(log.commits(), 20_000);
        for addr in [8u64, 256, 1024] {
            assert_eq!(
                log.version_of(addr),
                log.snapshot(addr),
                "quiescent stamps catch up to the epoch"
            );
        }
    }

    #[test]
    fn lock_free_two_committers_racing_one_slot() {
        // The two-committer same-slot race, driven through a barrier so
        // both CAS passes genuinely overlap: whatever the interleaving,
        // the two reservations are distinct, the slot ends at their max,
        // and the epoch equals the reservation count — no stamp is ever
        // lost and no slot is ever lowered.
        for _ in 0..200 {
            let log = std::sync::Arc::new(CommitLog::with_dense_bytes(64));
            let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let log = std::sync::Arc::clone(&log);
                    let barrier = std::sync::Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        barrier.wait();
                        log.record_word(8)
                    })
                })
                .collect();
            let versions: Vec<CommitVersion> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert_ne!(versions[0], versions[1], "reservations are unique");
            assert_eq!(versions.iter().copied().max(), Some(2));
            assert_eq!(log.version_of(8), 2, "slot holds the max stamp");
            assert_eq!(log.snapshot(8), 2, "epoch equals the reservations");
            assert_eq!(log.commits(), 2);
        }
    }

    #[test]
    fn lock_free_disjoint_committers_scale_without_losing_stamps() {
        // N committers on N disjoint ranges of one shard: every stamp is
        // visible afterwards, the versions are a permutation of 1..=N,
        // and (disjoint slots) the barrier race costs no lost update.
        const N: usize = 8;
        let log = std::sync::Arc::new(CommitLog::with_config(
            CommitLogConfig::word_grain().shards(1),
            1 << 12,
        ));
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(N));
        let handles: Vec<_> = (0..N)
            .map(|i| {
                let log = std::sync::Arc::clone(&log);
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    log.record_word(i as Addr * 8)
                })
            })
            .collect();
        let mut versions: Vec<CommitVersion> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        versions.sort_unstable();
        assert_eq!(versions, (1..=N as u64).collect::<Vec<_>>());
        for i in 0..N {
            assert!(log.version_of(i as Addr * 8) > 0, "stamp {i} lost");
        }
        assert_eq!(log.epoch(), N as u64);
        assert_eq!(log.stats().stamp_writes, N as u64);
    }

    #[test]
    fn lock_free_commits_racing_regrains_never_miss_a_conflict() {
        // Committers hammer one region while the main thread flips its
        // grain back and forth: the seqlock word forces racing stamp
        // passes to redo at the current grain, so a reader's stale
        // snapshot is flagged through every interleaving, and slots stay
        // monotone (the regrain flush is a fetch_max).
        let log = std::sync::Arc::new(CommitLog::with_config(
            CommitLogConfig::word_grain().shards(1),
            1 << 12,
        ));
        let stale = log.register_reader(8, 3);
        let stop = std::sync::Arc::new(AtomicU64::new(0));
        let committers: Vec<_> = (0..2)
            .map(|t| {
                let log = std::sync::Arc::clone(&log);
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0;
                    while stop.load(Ordering::Acquire) == 0 {
                        let v = log.record_word(8 + t * 16);
                        assert!(v > last, "reservations are monotone per shard");
                        last = v;
                    }
                })
            })
            .collect();
        for grain in [
            LINE_GRAIN_LOG2,
            WORD_GRAIN_LOG2,
            PAGE_GRAIN_LOG2,
            WORD_GRAIN_LOG2,
        ] {
            for _ in 0..50 {
                log.regrain(0, grain);
                std::thread::yield_now();
            }
        }
        stop.store(1, Ordering::Release);
        for h in committers {
            h.join().unwrap();
        }
        assert!(
            log.written_after(8, stale),
            "stale reader slipped through a commit/regrain race"
        );
        assert!(
            log.snapshot(8) >= log.version_of(8),
            "a stamp outran the epoch it was reserved from"
        );
    }

    #[test]
    fn cas_retry_counts_are_consistent() {
        // Single-threaded commits never retry; the aggregate stat equals
        // the sum of per-batch counts; clear() resets the counter.
        let log = CommitLog::with_dense_bytes(1 << 12);
        let mut total = 0;
        for i in 0..32u64 {
            let (_, retries) = log.record_counted([i * 8, i * 8 + 2048]);
            total += retries;
        }
        assert_eq!(total, 0, "uncontended commits pay no retries");
        assert_eq!(log.stats().cas_retries, 0);
        assert_eq!(log.cas_retries(), 0);
        log.clear();
        assert_eq!(log.stats().cas_retries, 0);
    }

    #[test]
    fn single_threaded_script_yields_pinned_versions_and_stats() {
        // The observable single-threaded semantics of the publish path,
        // pinned to literals: region 0 lives on shard 0 and region 1 on
        // shard 1, each shard versions its own commits from 1, a regrain
        // takes a version and collects the region's readers.
        let log = CommitLog::with_config(CommitLogConfig::word_grain().shards(2), 1 << 13);
        let snap = log.register_reader(8, 3);
        assert_eq!(snap, 0);
        assert_eq!(log.record([8, 64, 4096]), 1, "both shards publish 1");
        assert_eq!(log.record_counted([8]), (2, 0));
        assert_eq!(log.regrain(0, PAGE_GRAIN_LOG2).0, 3);
        assert_eq!(log.record_word(16), 4);
        assert!(log.written_after(8, snap));
        assert_eq!(log.version_of(64), 4, "one page slot after the regrain");
        assert_eq!(log.version_of(4096), 1, "the other shard is untouched");
        let stats = log.stats();
        assert_eq!((stats.commits, stats.stamp_writes), (3, 5));
        assert!(log.take_readers([8]).is_empty(), "the regrain took them");
    }

    #[test]
    fn clear_resets_epochs_and_maps() {
        let log = CommitLog::with_config(CommitLogConfig::word_grain().shards(4), 0);
        log.record([8, 16, 24]);
        log.clear();
        assert_eq!(log.epoch(), 0);
        assert_eq!(log.version_of(8), 0);
        assert_eq!(log.stamped_ranges(), 0);
        assert_eq!(log.commits(), 0);
        assert_eq!(
            log.stats(),
            CommitLogStats {
                grain_log2: WORD_GRAIN_LOG2,
                shards: 4,
                ring_depth: DEFAULT_RING_DEPTH,
                ..Default::default()
            }
        );
    }

    #[test]
    fn concurrent_commits_and_lookups_are_safe() {
        let log = std::sync::Arc::new(CommitLog::with_dense_bytes(256));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let log = std::sync::Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let addr = ((t * 500 + i) % 64) * 8 + 8;
                    log.record_word(addr);
                    let _ = log.version_of(addr);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.commits(), 2000);
    }

    #[test]
    fn identical_batches_stamp_strictly_fewer_ranges_at_coarser_grain() {
        // The deterministic form of the grain sweep's headline claim:
        // one 64-word batch costs 64 stamps at word grain, 8 at line
        // grain and 1 at page grain.  (The native sweep can't assert
        // this strictly — its batch structure depends on scheduling.)
        let batch: Vec<Addr> = (0..64u64).map(|i| i * 8).collect();
        let stamps_at = |grain_log2: u32| {
            let log =
                CommitLog::with_config(CommitLogConfig::default().grain_log2(grain_log2), 1 << 12);
            log.record(batch.iter().copied());
            log.stats().stamp_writes
        };
        assert_eq!(stamps_at(WORD_GRAIN_LOG2), 64);
        assert_eq!(stamps_at(LINE_GRAIN_LOG2), 8);
        assert_eq!(stamps_at(PAGE_GRAIN_LOG2), 1);
    }

    #[test]
    fn lock_time_is_sampled_but_counters_are_exact() {
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 0);
        for i in 0..32u64 {
            log.record_word(i * 8);
        }
        // The counters are exact regardless of sampling.  (lock_ns is
        // not asserted non-zero: on coarse-resolution clocks a sampled
        // tens-of-ns critical section can legitimately register as 0.)
        assert_eq!(log.stats().commits, 32);
        assert_eq!(log.stats().stamp_writes, 32);
    }

    #[test]
    fn reader_registry_roundtrip_register_take_unregister() {
        let log = CommitLog::with_config(CommitLogConfig::word_grain().shards(2), 256);
        // Registration returns a snapshot usable exactly like snapshot().
        let v = log.register_reader(8, 3);
        assert_eq!(v, log.snapshot(8));
        log.register_reader(8, 5);
        log.register_reader(16, 7); // different range, untouched below
        let set = log.registered_readers(8);
        assert!(set.contains(3) && set.contains(5) && !set.contains(7));
        assert_eq!(set.len(), 2);
        // Enumeration returns exactly the overlapping readers and clears.
        let taken = log.take_readers([8]);
        assert_eq!(taken.ranks().collect::<Vec<_>>(), vec![3, 5]);
        assert!(log.registered_readers(8).is_empty());
        assert!(
            log.registered_readers(16).contains(7),
            "disjoint range kept"
        );
        // Unregister removes a single rank without touching others.
        log.register_reader(16, 9);
        log.unregister_reader([16], 7);
        let set = log.registered_readers(16);
        assert!(!set.contains(7) && set.contains(9));
        // Rank 0 (non-speculative) never registers.
        log.register_reader(24, 0);
        assert!(log.registered_readers(24).is_empty());
    }

    #[test]
    fn reader_registry_tracks_ranges_not_words() {
        // At line grain two words of the same line share one reader mask,
        // and a commit to either word enumerates the reader.
        let log = CommitLog::with_config(CommitLogConfig::line_grain(), 0);
        log.register_reader(8, 2);
        assert!(log.registered_readers(56).contains(2), "same line");
        assert!(!log.registered_readers(64).contains(2), "next line");
        let taken = log.take_readers_of_word(48);
        assert!(taken.contains(2));
    }

    #[test]
    fn reader_registry_spills_past_the_tracked_window() {
        // Ranks beyond the bitmask window land in the per-range spill
        // set and are still enumerated exactly — the pre-PR5 cascade
        // fallback for >63-thread sweeps is gone.
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 0);
        log.register_reader(8, MAX_TRACKED_READERS);
        log.register_reader(8, MAX_TRACKED_READERS + 1);
        log.register_reader(8, 200);
        let set = log.take_readers([8]);
        assert!(set.contains(MAX_TRACKED_READERS));
        assert!(set.contains(MAX_TRACKED_READERS + 1));
        assert!(set.contains(200));
        assert_eq!(set.len(), 3);
        assert_eq!(
            set.ranks().collect::<Vec<_>>(),
            vec![MAX_TRACKED_READERS, MAX_TRACKED_READERS + 1, 200]
        );
        // Cleared on take, spill set included.
        assert!(log.take_readers([8]).is_empty());
        // Unregister removes a single spilled rank; the other survives.
        log.register_reader(16, 100);
        log.register_reader(16, 101);
        log.unregister_reader([16], 100);
        let set = log.registered_readers(16);
        assert!(!set.contains(100) && set.contains(101));
        // Spilled ranks work on the sparse fallback too (no dense window
        // here), and on dense windows alike.
        let dense = CommitLog::with_config(CommitLogConfig::word_grain(), 1 << 12);
        dense.register_reader(8, 77);
        assert!(dense.take_readers([8]).contains(77));
    }

    #[test]
    fn reader_spills_are_counted_in_stats() {
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 1 << 12);
        log.register_reader(8, 1); // in-window: no spill
        assert_eq!(log.stats().reader_spills, 0);
        log.register_reader(8, MAX_TRACKED_READERS + 1);
        log.register_reader(1 << 20, 200); // sparse fallback spills too
        assert_eq!(log.stats().reader_spills, 2);
        log.clear();
        assert_eq!(log.stats().reader_spills, 0, "clear resets the counter");
    }

    #[test]
    fn reader_transfer_moves_the_dependence_to_the_parent() {
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 512);
        log.register_reader(8, 4);
        log.register_reader(1 << 20, 4); // sparse range
        log.register_reader(16, 99); // spilled rank transfers too
        log.transfer_reader([8, 1 << 20], 4, 2);
        for addr in [8u64, 1 << 20] {
            let set = log.registered_readers(addr);
            assert!(set.contains(2), "parent registered at {addr}");
            assert!(!set.contains(4), "child unregistered at {addr}");
        }
        log.transfer_reader([16], 99, 100);
        let set = log.registered_readers(16);
        assert!(set.contains(100) && !set.contains(99));
    }

    #[test]
    fn clear_resets_the_reader_registry() {
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 64);
        log.register_reader(8, 1);
        log.register_reader(8, 150); // spilled
        log.register_reader(1 << 16, 2); // sparse
        log.clear();
        assert!(log.registered_readers(8).is_empty());
        assert!(log.registered_readers(1 << 16).is_empty());
    }

    #[test]
    fn registered_reader_with_stale_snapshot_is_always_enumerated() {
        // The deterministic half of the seqlock argument: a reader whose
        // registration precedes a commit is enumerated by that commit's
        // take_readers — the "doom exactly the stale readers" contract.
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 64);
        let snapshot = log.register_reader(8, 7);
        let version = log.record_word(8);
        assert!(version > snapshot, "the read is stale");
        let taken = log.take_readers_of_word(8);
        assert!(taken.contains(7), "stale reader missed by enumeration");
        // A second enumeration finds nothing (cleared on take).
        assert!(log.take_readers_of_word(8).is_empty());
    }

    #[test]
    fn concurrent_registration_and_enumeration_never_strands_a_stale_reader() {
        // Concurrent hammer of the protocol: after a commit, a reader is
        // either enumerated by some take_readers or its snapshot covers
        // the commit (no conflict) — a reader can never be both stale and
        // permanently invisible.  The reader thread checks its own half.
        // Rank 77 exercises the spill-set path of the same argument.
        // The committer runs until the reader has finished its quota, so
        // the two sides always genuinely interleave (a fixed iteration
        // count can finish before the reader thread is even scheduled
        // under parallel test load).
        for rank in [7usize, 77] {
            let log = std::sync::Arc::new(CommitLog::with_dense_bytes(64));
            let reader_done = std::sync::Arc::new(AtomicU64::new(0));
            let enumerated = std::sync::Arc::new(AtomicU64::new(0));
            let committer = {
                let log = std::sync::Arc::clone(&log);
                let reader_done = std::sync::Arc::clone(&reader_done);
                let enumerated = std::sync::Arc::clone(&enumerated);
                std::thread::spawn(move || {
                    while reader_done.load(Ordering::Acquire) == 0 {
                        log.record_word(8);
                        if log.take_readers_of_word(8).contains(rank) {
                            enumerated.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            };
            let mut covered = 0u64;
            for _ in 0..2_000 {
                let snapshot = log.register_reader(8, rank);
                if log.version_of(8) <= snapshot {
                    // Snapshot covers every commit so far: a take_readers
                    // that missed this registration missed nothing stale.
                    covered += 1;
                }
            }
            reader_done.store(1, Ordering::Release);
            committer.join().unwrap();
            assert!(
                covered > 0 || enumerated.load(Ordering::Relaxed) > 0,
                "rank {rank}: reader neither covered nor ever enumerated"
            );
        }
    }

    #[test]
    fn config_normalizes_degenerate_values() {
        let log = CommitLog::with_config(
            CommitLogConfig {
                grain_log2: 0,
                shards: 0,
                ring_depth: 0,
                ring_bucket_log2: 40,
            },
            128,
        );
        assert_eq!(log.config().grain_log2, WORD_GRAIN_LOG2);
        assert_eq!(log.config().shards, 1);
        assert_eq!(log.config().ring_depth, 1, "ring depth clamps to 1");
        assert_eq!(log.config().ring_bucket_log2, 16, "bucket width clamps");
        assert_eq!(
            CommitLogConfig::default()
                .ring_depth(999)
                .normalized()
                .ring_depth,
            MAX_RING_DEPTH
        );
        let log = CommitLog::with_config(
            CommitLogConfig {
                grain_log2: 6,
                shards: 3,
                ..Default::default()
            },
            0,
        );
        assert_eq!(log.config().shards, 4, "shards round up to a power of two");
        assert_eq!(CommitLogConfig::page_grain().grain_bytes(), 4096);
    }

    // ----- regrain / grain control ------------------------------------

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

    #[test]
    fn regrain_outside_the_dense_window_is_a_noop() {
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 64);
        let far = 1u64 << 40;
        let region = log.region_of(far);
        let (v, readers) = log.regrain(region, PAGE_GRAIN_LOG2);
        assert_eq!(v, 0);
        assert!(readers.is_empty());
        assert_eq!(log.grain_of(far), WORD_GRAIN_LOG2, "sparse stays at floor");
    }

    // ----- MVCC version rings -----------------------------------------

    #[test]
    fn ring_probe_distinguishes_touched_from_false_sharing() {
        let log = CommitLog::with_config(CommitLogConfig::line_grain().shards(1), 1 << 12);
        assert_eq!(log.ring_depth(), DEFAULT_RING_DEPTH);
        let v = log.record_word(8);
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
        let log = CommitLog::with_config(
            CommitLogConfig::line_grain().shards(1).ring_depth(4),
            1 << 12,
        );
        let v1 = log.record_word(8);
        let v2 = log.record_word(16);
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
        let log = CommitLog::with_config(
            CommitLogConfig::line_grain().shards(1).ring_depth(1),
            1 << 12,
        );
        assert_eq!(log.ring_depth(), 1);
        let v = log.record_word(8);
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
        // Depth 2 with single-version buckets reaches 2 commits back:
        // a snapshot 3 commits old overflows instead of guessing.
        let log = CommitLog::with_config(
            CommitLogConfig::line_grain()
                .shards(1)
                .ring_depth(2)
                .ring_bucket_log2(0),
            1 << 12,
        );
        for _ in 0..3 {
            log.record_word(16);
        }
        assert_eq!(log.probe_written(8, 0), RingCheck::Overflow);
        assert_eq!(log.stats().ring_overflows, 1);
        // A recent-enough snapshot still probes precisely.
        assert_eq!(log.probe_written(8, 2), RingCheck::Precise);
        // Deeper history at the same bucket width stays precise.
        let deep = CommitLog::with_config(
            CommitLogConfig::line_grain()
                .shards(1)
                .ring_depth(4)
                .ring_bucket_log2(0),
            1 << 12,
        );
        for _ in 0..3 {
            deep.record_word(16);
        }
        assert_eq!(deep.probe_written(8, 0), RingCheck::Precise);
        assert_eq!(
            deep.probe_written(16, 1),
            RingCheck::Touched { newest_touch: 3 }
        );
        assert_eq!(deep.stats().ring_overflows, 0);
    }

    #[test]
    fn regrain_truncates_the_rings_conservatively() {
        // Single-version buckets keep the regrain's full-footprint
        // flush out of the next commit's bucket, so the precision
        // assertions below are exact.
        let log = CommitLog::with_config(
            CommitLogConfig::word_grain()
                .shards(1)
                .ring_depth(4)
                .ring_bucket_log2(0),
            1 << 13,
        );
        log.regrain(0, LINE_GRAIN_LOG2);
        // The regrain's full-footprint flush: no pre-regrain snapshot of
        // the region may probe Clean or Precise.
        for addr in [8u64, 16, 2048] {
            assert!(
                matches!(log.probe_written(addr, 0), RingCheck::Touched { .. }),
                "addr={addr}"
            );
        }
        // Post-regrain snapshots probe precisely again.
        let fresh = log.snapshot(8);
        assert_eq!(log.probe_written(8, fresh), RingCheck::Clean);
        log.record_word(8);
        assert_eq!(log.probe_written(16, fresh), RingCheck::Precise);
    }

    #[test]
    fn ring_probe_agrees_with_sparse_fallback() {
        // Out-of-window ranges keep no rings: the probe degenerates to
        // the single-version answer there, at any configured depth.
        let log = CommitLog::with_config(CommitLogConfig::line_grain().shards(1).ring_depth(4), 64);
        let far = 1u64 << 30;
        let v = log.record_word(far);
        assert_eq!(
            log.probe_written(far + 8, 0),
            RingCheck::Touched { newest_touch: v },
            "sparse neighbour words stay conservatively flagged"
        );
        assert_eq!(log.probe_written(far, v), RingCheck::Clean);
    }

    #[test]
    fn clear_resets_the_rings() {
        let log = CommitLog::with_config(
            CommitLogConfig::line_grain()
                .shards(1)
                .ring_depth(2)
                .ring_bucket_log2(0),
            1 << 12,
        );
        for _ in 0..3 {
            log.record_word(8);
        }
        assert_eq!(log.probe_written(8, 0), RingCheck::Overflow);
        log.clear();
        assert_eq!(log.stats().ring_overflows, 0, "clear resets the counter");
        assert_eq!(log.probe_written(8, 0), RingCheck::Clean);
        let v = log.record_word(8);
        assert_eq!(
            log.probe_written(8, 0),
            RingCheck::Touched { newest_touch: v },
            "stale pre-clear entries do not resurface"
        );
        assert_eq!(log.probe_written(16, 0), RingCheck::Precise);
    }

    #[test]
    fn ring_probe_never_misses_under_commit_regrain_races() {
        // Concurrent committers and regrains: a probe for a stale
        // snapshot must never report Clean/Precise for a written word —
        // the ring analogue of the single-version race test.
        let log = std::sync::Arc::new(CommitLog::with_config(
            CommitLogConfig::word_grain().shards(1).ring_depth(4),
            1 << 12,
        ));
        let stale = log.register_reader(8, 3);
        let stop = std::sync::Arc::new(AtomicU64::new(0));
        let committer = {
            let log = std::sync::Arc::clone(&log);
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                while stop.load(Ordering::Acquire) == 0 {
                    log.record([8, 24]);
                }
            })
        };
        for grain in [LINE_GRAIN_LOG2, WORD_GRAIN_LOG2] {
            for _ in 0..50 {
                log.regrain(0, grain);
                assert!(
                    !log.probe_written(8, stale).is_valid(),
                    "stale written word probed valid mid-race"
                );
                std::thread::yield_now();
            }
        }
        stop.store(1, Ordering::Release);
        committer.join().unwrap();
        assert!(!log.probe_written(8, stale).is_valid());
    }
}
