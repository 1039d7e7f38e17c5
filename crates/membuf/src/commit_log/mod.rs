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
//! One protocol, one file, each opening with its soundness argument and
//! closing with its tests: this file (the one-sided guarantee, sharding,
//! the per-shard memory-ordering protocol; types, addressing, snapshots
//! and versions), `stamp.rs` (the lock-free commit path), `ring.rs` (the
//! MVCC version rings), `readers.rs` (the reader registry) and
//! `regrain.rs` (the regrain protocol, per-region telemetry).
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
//! independent shards, each with its own epoch counter, slow-path lock
//! and dense version array.  A region maps to shard
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
//! stamping and lookup), sized by [`CommitLog::with_config`]; the
//! capacity is rounded **up** to whole regions times shards.  A region
//! running at a coarser grain uses a prefix of its slot block (slot
//! `offset_in_region >> grain`).
//!
//! ## The window — the arena and nothing else
//!
//! That table is all there is.  MUTLS confines speculative traffic to
//! the *registered* address space (paper §IV-G: an access outside it
//! rolls the thread back), and the runtime checks every address against
//! it when the address enters a read or write set — before the log sees
//! it.  An address at or past the window is therefore a bug in the
//! caller, and every entry point that takes one panics with the address
//! and the window size, exactly as `GlobalMemory::word` does for the same
//! address one call earlier.
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

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock};

use crate::memory::Addr;
use crate::zeroed::ZeroedAtomics;

mod readers;
mod regrain;
mod ring;
mod stamp;

pub use readers::{ReaderSet, MAX_TRACKED_READERS};
pub use regrain::RegionProfile;
pub use ring::{RingCheck, DEFAULT_RING_DEPTH, MAX_RING_DEPTH};

use regrain::RegionCounters;

/// Monotone version assigned to a commit batch within a shard
/// (0 = "never written").
pub type CommitVersion = u64;

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
/// (every run report carries them; the harness `grain` sweep and the
/// benchmark ledger print them).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CommitLogStats {
    /// Commit batches recorded (non-empty `record` calls).
    pub commits: u64,
    /// Range stamps *written* across all batches, cumulatively — the
    /// actual log traffic; coarser grains stamp fewer ranges per batch.
    /// (Regrain flushes are counted in [`regrains`](Self::regrains), not
    /// here.)
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
    /// Registrations by ranks greater than [`MAX_TRACKED_READERS`]: each
    /// lands in its range's spill set (a shard `RwLock` write on top of
    /// the marker-bit `fetch_or`) — the registry's slow path, surfaced so
    /// a run on more than 63 speculative CPUs shows what it pays.
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

/// One independent slice of the version table (one stripe of regions).
///
/// The dense tables are sized to the arena (six words a commit-log line,
/// 24 MiB for a 32 MiB arena) and a run stamps the few lines it shares, so
/// they come zeroed instead of being written: building a log costs no page
/// fault per table page.
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
    dense: ZeroedAtomics,
    /// Packed MVCC version-ring entries, `ring_depth` per dense slot
    /// (slot `local` owns `rings[local * depth .. (local + 1) * depth]`,
    /// indexed by version bucket modulo depth).  Empty at depth 1.
    /// Published by CAS-merge *before* the dense version stamp (see the
    /// module docs).
    rings: ZeroedAtomics,
    /// Per-range reader bitmasks (same indexing as `dense`);
    /// registration/enumeration are lock-free atomic RMWs.
    readers: ZeroedAtomics,
    /// Spill sets for ranks past the bitmask window, keyed by slot index
    /// (dashmap-style: the shard is the lock stripe).
    readers_spill: RwLock<HashMap<usize, HashSet<usize>>>,
}

impl Shard {
    fn new(dense_slots: usize, ring_slots: usize) -> Self {
        Shard {
            epoch: AtomicU64::new(0),
            slow_lock: Mutex::new(()),
            dense: ZeroedAtomics::new(dense_slots),
            rings: ZeroedAtomics::new(ring_slots),
            readers: ZeroedAtomics::new(dense_slots),
            readers_spill: RwLock::new(HashMap::new()),
        }
    }
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
    shards: Vec<Shard>,
    /// Live grain of every region of the window, indexed by region id
    /// (every shard allocates the same number of region blocks, so the
    /// window is a whole number of stripes).  Written
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
    /// Whether anything was written into the log since construction or
    /// the last [`clear`](Self::clear): raised by every mutator
    /// ([`touch`](Self::touch)), so clearing a log nothing used — a
    /// runtime's first run — writes none of its tables.
    touched: AtomicBool,
}

impl CommitLog {
    /// Create a log with an explicit grain/shard config whose window
    /// covers `[0, capacity_bytes)` — size it to the main-memory arena:
    /// the whole program's traffic stamps lock-free with bounded memory
    /// (one version word per floor-grain range), and an address past the
    /// window is a caller bug that panics.  The capacity is rounded *up*
    /// to whole regions (times shards), so a trailing partial range or
    /// region is covered.
    pub fn with_config(config: CommitLogConfig, capacity_bytes: u64) -> Self {
        let grain = config.normalized().grain_log2;
        Self::with_initial_grain(config, capacity_bytes, grain)
    }

    /// Like [`with_config`](Self::with_config), but every region
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
        // count, so the last partial stripe is whole.
        let regions_per_shard = dense_regions.div_ceil(shard_count as u64);
        let dense_slots = regions_per_shard as usize * slots_per_region;
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
            touched: AtomicBool::new(false),
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

    /// The live grain (log2 bytes) of `region`.
    pub fn grain_of_region(&self, region: RegionId) -> u32 {
        self.region_grains[self.region_index(region)].load(Ordering::Acquire)
    }

    /// The live grain (log2 bytes) tracking `addr` right now.
    pub fn grain_of(&self, addr: Addr) -> u32 {
        self.region_grains[self.region_index_of(addr)].load(Ordering::Acquire)
    }

    /// `addr`'s region as an index into the per-region tables — **the**
    /// window check: every entry point that takes an address (or a
    /// region) comes through here before it touches a table, so an
    /// address the arena does not hold panics from one place.
    #[inline]
    fn region_index_of(&self, addr: Addr) -> usize {
        let region = addr >> self.region_log2;
        if region >= self.region_grains.len() as u64 {
            self.outside_window(addr);
        }
        region as usize
    }

    /// [`region_index_of`](Self::region_index_of) for a caller that holds
    /// a region id (checked through the region's first address).
    fn region_index(&self, region: RegionId) -> usize {
        self.region_index_of(region.saturating_mul(1 << self.region_log2))
    }

    #[cold]
    #[inline(never)]
    fn outside_window(&self, addr: Addr) -> ! {
        panic!(
            "address {addr:#x} outside the commit log's window of {} bytes",
            (self.region_grains.len() as u64) << self.region_log2
        );
    }

    fn shard_of_region(&self, region: RegionId) -> usize {
        (region & self.shard_mask) as usize
    }

    /// `addr`'s slot at grain `grain_log2`, as an index into its shard's
    /// tables (the caller checked the address against the window).
    fn slot_at(&self, addr: Addr, grain_log2: u32) -> usize {
        let block = (self.region_of(addr) >> self.shard_bits) as usize * self.slots_per_region;
        let offset = addr & ((1u64 << self.region_log2) - 1);
        block + (offset >> grain_log2) as usize
    }

    /// `addr`'s owning shard and its slot there at its region's current
    /// grain.
    fn slot_of(&self, addr: Addr) -> (usize, usize) {
        let local = self.slot_at(addr, self.grain_of(addr));
        (self.shard_of_region(self.region_of(addr)), local)
    }

    /// Note that the log now holds something [`clear`](Self::clear) must
    /// wipe; every mutator calls it first.  Read before written, so the
    /// hot mutators only ever read the flag's line after the first.
    /// Relaxed: the flag publishes nothing — `clear` runs between runs,
    /// and whatever quiesced the log's users for it orders the flag as it
    /// orders the tables `clear` stores into (relaxed, too).
    #[inline]
    fn touch(&self) {
        if !self.touched.load(Ordering::Relaxed) {
            self.touched.store(true, Ordering::Relaxed);
        }
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
        let region = self.region_index_of(addr) as RegionId;
        self.shards[self.shard_of_region(region)]
            .epoch
            .load(Ordering::Acquire)
    }

    /// Version of the last commit that wrote any word of `addr`'s range
    /// (0 = never written through the log; a regrain of the region counts
    /// as a conservative whole-region write).
    pub fn version_of(&self, addr: Addr) -> CommitVersion {
        let (shard, local) = self.slot_of(addr);
        self.shards[shard].dense[local].load(Ordering::Acquire)
    }

    /// True when a commit wrote `addr`'s *range* after a read of `addr`
    /// stamped with `read_version` — the (range-conservative) dependence
    /// violation condition.  May flag false sharing (a different word of
    /// the same range, or a conservative regrain flush); never misses a
    /// genuine conflict.
    pub fn written_after(&self, addr: Addr, read_version: CommitVersion) -> bool {
        self.version_of(addr) > read_version
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

    /// Number of commit batches recorded so far.
    pub fn commits(&self) -> u64 {
        self.batches.load(Ordering::Relaxed) + self.singles.load(Ordering::Relaxed)
    }

    /// Number of regions whose grain was flipped at runtime.
    pub fn regrains(&self) -> u64 {
        self.regrains.load(Ordering::Relaxed)
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
    /// initial grain.  A log nothing was written into since construction
    /// or the last `clear` already is all of that, word for word, and is
    /// left alone — its tables came as zero pages and stay unfaulted.
    pub fn clear(&self) {
        if !self.touched.load(Ordering::Relaxed) {
            return;
        }
        for shard in &self.shards {
            let _guard = shard.slow_lock.lock();
            for v in shard.dense.iter() {
                v.store(0, Ordering::Relaxed);
            }
            for v in shard.rings.iter() {
                v.store(0, Ordering::Relaxed);
            }
            for r in shard.readers.iter() {
                r.store(0, Ordering::Relaxed);
            }
            shard.readers_spill.write().clear();
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
        self.touched.store(false, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;

    /// A word-granular, single-shard log behaves exactly like the old
    /// design for these unit tests.
    fn word_log() -> CommitLog {
        CommitLog::with_config(CommitLogConfig::word_grain().shards(1), 1 << 12)
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
        assert_eq!(log.stats().stamp_writes, 3);
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
    fn range_grain_coarsens_conservatively() {
        // At line grain, two words of the same 64-byte range share a
        // version (false sharing allowed)…
        let log = CommitLog::with_config(CommitLogConfig::line_grain(), 1 << 12);
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
        assert_eq!(log.stats().stamp_writes, 1, "one line, one stamp");
    }

    #[test]
    fn shard_epochs_advance_independently() {
        // Consecutive *regions* (not ranges) interleave across shards
        // since grain control landed: addresses one region apart map to
        // different shards with 2+ shards; each shard versions its own
        // commits from 1.
        let config = CommitLogConfig::word_grain().shards(2);
        let log = CommitLog::with_config(config, 2 << 12);
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
    }

    #[test]
    fn every_entry_point_panics_on_the_first_word_past_the_window() {
        // 5 000 bytes is not a whole region: the window rounds up to two
        // regions, and from there to one whole stripe of the four shards.
        let log = CommitLog::with_config(CommitLogConfig::word_grain().shards(4), 5_000);
        let window = 4u64 << log.region_log2();
        let (last, past) = (window - 8, window);
        type EntryPoint = fn(&CommitLog, Addr);
        let entry_points: [(&str, EntryPoint); 12] = [
            ("snapshot", |log, a| {
                log.snapshot(a);
            }),
            ("version_of", |log, a| {
                log.version_of(a);
            }),
            ("probe_written", |log, a| {
                log.probe_written(a, 0);
            }),
            ("record", |log, a| {
                log.record([8, a]);
            }),
            ("record_word", |log, a| {
                log.record_word(a);
            }),
            ("register_reader", |log, a| {
                log.register_reader(a, 1);
            }),
            ("unregister_reader", |log, a| log.unregister_reader([a], 1)),
            ("take_readers", |log, a| {
                log.take_readers([a]);
            }),
            ("registered_readers", |log, a| {
                log.registered_readers(a);
            }),
            ("grain_of", |log, a| {
                log.grain_of(a);
            }),
            ("note_conflict", |log, a| log.note_conflict(a, false)),
            ("regrain", |log, a| {
                log.regrain(log.region_of(a), LINE_GRAIN_LOG2);
            }),
        ];
        for (name, call) in entry_points {
            call(&log, last);
            let panic = catch_unwind(AssertUnwindSafe(|| call(&log, past)))
                .expect_err("an address past the window went through");
            let message = panic.downcast_ref::<String>().expect("a formatted panic");
            assert!(
                message.contains(&format!("{past:#x}"))
                    && message.contains(&format!("{window} bytes")),
                "{name}: {message}"
            );
        }
    }

    /// Everything a log holds — every table, counter, lock and the
    /// touched flag — as its derived `Debug` prints it.
    fn contents(log: &CommitLog) -> String {
        format!("{log:?}")
    }

    #[test]
    fn clear_after_any_one_mutator_leaves_a_freshly_built_log() {
        // Two regions on two shards, starting coarse, shallow rings with
        // one version a bucket: every table has something to lose.
        let build = || {
            CommitLog::with_initial_grain(
                CommitLogConfig::word_grain()
                    .shards(2)
                    .ring_depth(2)
                    .ring_bucket_log2(0),
                2 << 12,
                LINE_GRAIN_LOG2,
            )
        };
        let fresh = contents(&build());
        // `clear` on a log nothing used changes nothing.
        let unused = build();
        unused.clear();
        assert!(contents(&unused) == fresh);
        // A mutator that forgot to raise the flag would leave its mark
        // behind the early return and fail its row.
        type Mutator = fn(&CommitLog);
        let mutators: [(&str, Mutator); 8] = [
            ("record", |log| {
                for _ in 0..3 {
                    log.record([8, 4096 + 16]);
                }
                // Three versions back on a depth-2 ring: counted.
                assert_eq!(log.probe_written(8, 0), RingCheck::Overflow);
            }),
            ("record_word", |log| {
                log.record_word(4096 + 8);
            }),
            ("register_reader, rank 1", |log| {
                log.register_reader(8, 1);
            }),
            ("register_reader, rank 200", |log| {
                log.register_reader(4096 + 8, 200);
            }),
            ("transfer_reader", |log| {
                log.transfer_reader([8, 72], 3, 150)
            }),
            ("regrain", |log| {
                log.regrain(1, WORD_GRAIN_LOG2);
            }),
            ("note_conflict", |log| log.note_conflict(8, true)),
            ("note_retry", |log| log.note_retry(4096 + 8)),
        ];
        for (name, mutate) in mutators {
            let log = build();
            mutate(&log);
            assert!(contents(&log) != fresh, "{name} left no mark to clear");
            log.clear();
            assert!(contents(&log) == fresh, "{name} survived the clear");
        }
    }
}
