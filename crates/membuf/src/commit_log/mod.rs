//! The shared commit log: the versioned view of main memory that makes
//! cross-thread conflict detection *real* instead of injected.
//!
//! Every write that reaches main memory while any speculative read set
//! is exposed — a direct store by the non-speculative thread or a
//! committed speculative write-set — is recorded here in a *commit
//! batch*: a committed write-set is one batch, and the non-speculative
//! thread's direct stores are gathered into batches it publishes before
//! anything validates against them (the flush rule below).  (With no read
//! set exposed nobody holds a snapshot a stamp could invalidate, and the
//! runtime's non-speculative thread skips the log entirely; see
//! `ThreadManager`'s exposure count.)  A speculative
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
//! closing with its tests: this file (the one-sided guarantee, the window,
//! the memory-ordering protocol; types, addressing, snapshots, versions and
//! per-region telemetry), `stamp.rs` (the commit path, the log's one
//! writer),
//! `ring.rs` (the MVCC version rings) and `readers.rs` (the reader
//! registry).
//!
//! ## Range granularity — one grain, fixed at construction
//!
//! Versions are stamped per *range* of bytes, not per word: a log has one
//! grain, [`CommitLogConfig::grain_log2`] (word, line or page), fixed when
//! it is built.  Coarsening the grain bounds log growth on long regions —
//! a commit batch stamps one version per *range* touched, not one per
//! word — at the cost of **false sharing**: a commit to any word of a
//! range dooms a reader of any other word of the same range.
//!
//! The guarantee is one-sided by design, at every grain:
//!
//! * **False sharing is allowed.**  A range-grain conflict may be
//!   spurious (different words, same range).  The reader rolls back and
//!   re-executes (or value-predict-retries in place); the result is still
//!   correct, merely slower.
//! * **Missed conflicts are impossible.**  Every word maps into exactly
//!   one range, and a write to the word always advances that range's
//!   version past every snapshot taken before the commit.  A genuine
//!   dependence violation is therefore always flagged.
//!
//! ## The window — the arena and nothing else
//!
//! Per-range versions live in one *dense* array covering the main-memory
//! arena, one slot per range (lock-free stamping and lookup), sized by
//! [`CommitLog::with_config`].  The capacity is rounded **up** to whole
//! *regions* of `2^`[`CommitLog::region_log2`] bytes (at least one 4 KiB
//! page), the unit the log counts its stamps in.
//!
//! That table is all there is.  MUTLS confines speculative traffic to
//! the arena's allocated window (paper §IV-G: an access outside it rolls
//! the thread back), and the runtime checks every address against it
//! ([`GlobalMemory::is_allocated`](crate::GlobalMemory::is_allocated))
//! when the address enters a read or write set — before the log sees it.
//! An address at or past the window is therefore a bug in the caller, and
//! every entry point that takes one panics with the address and the window
//! size, exactly as `GlobalMemory::word` does for the same address one
//! call earlier.
//!
//! ## Memory-ordering protocol
//!
//! Soundness under concurrency relies on the order of operations:
//!
//! * **Committer** (always executing logically earlier work): write the
//!   data words to main memory *first*, then call [`CommitLog::publish`]
//!   — the one code that stamps the log or takes its readers — which
//!   reserves-and-publishes the log's version with the `SeqCst` epoch
//!   `fetch_add` *before* it stores the touched slots' stamps (one
//!   committer at a time, `stamp.rs`: a stamp is a plain store), and takes
//!   each stamped range's readers right after its stamp.  That order keeps
//!   the invariant that matters: **a snapshot at least the committer's
//!   version implies the committer's data is visible**, and **a stale read
//!   implies a snapshot below the version the validation-time slot
//!   carries**.
//! * **Reader** (a speculative thread): sample
//!   [`CommitLog::snapshot`]`(addr)` — the log's epoch — with acquire
//!   *before* loading the word from main memory.
//!
//! If the reader's sampled epoch is at least the committer's version, the
//! acquire edge (to the epoch RMW's release sequence) guarantees the
//! committed data was visible to the read — no conflict.  If it is
//! smaller, the read raced the commit and validation flags it; at worst
//! this is a conservative false positive (the thread re-executes), never a
//! missed conflict.
//!
//! **Flush before validation.**  A committer may stamp *late*: the
//! runtime's non-speculative thread writes each store to memory at once
//! but publishes its addresses in batches ([`CommitLog::publish`]), at a
//! fork's dispatch, at the start of a join, at a check point, at a
//! promoted context's hand-back, at the end of the run and whenever a
//! batch is full.  That is sound because every validation against main
//! memory runs after the committer's flush: the non-speculative thread
//! validates only inside its join, after it flushed, and a promoted child
//! validates only after its joiner posted the sync request from inside that
//! join.  A late stamp then only adds conservative conflicts — a reader
//! that loaded the new value before the stamp landed has a snapshot below
//! it and is flagged (and its value check repairs it) — and never hides
//! one.  The flush at a fork's dispatch keeps the new child's snapshot
//! above every stamp of a store it can see, so a child is never flagged
//! by a store older than itself.  Such a batch also skips every range no
//! reader could hold stale (see [`CommitLog::publish`]): the version is
//! still reserved first, which is what a reader registering after the
//! check synchronizes with.
//!
//! One epoch orders every commit, so any two versions are comparable and
//! [`CommitLog::epoch`] is the snapshot of every address in the window.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::memory::Addr;
use crate::zeroed::ZeroedAtomics;

mod readers;
mod ring;
mod stamp;

pub use readers::{ReaderSet, MAX_TRACKED_READERS};
#[cfg(test)]
pub(crate) use ring::RING_BUCKET_LOG2;
pub use ring::{RingCheck, DEFAULT_RING_DEPTH, MAX_RING_DEPTH};

/// Monotone version assigned to a commit batch by the log
/// (0 = "never written").
pub type CommitVersion = u64;

/// Identifier of one region: `addr >> region_log2`.
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

/// Log2 of the minimum region size (one 4 KiB page).  The actual region
/// size is `max(MIN_REGION_LOG2, grain_log2)` so a region always covers
/// at least one range.
const MIN_REGION_LOG2: u32 = PAGE_GRAIN_LOG2;

/// Log2 of the commit-lock timing sample rate: one batch in
/// `2^LOCK_SAMPLE_LOG2` is wall-clock timed and its lock-hold duration
/// scaled up into [`CommitLogStats::lock_ns`].
pub const LOCK_SAMPLE_LOG2: u32 = 3;

/// Granularity and version-ring shape of the commit log's version table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitLogConfig {
    /// Log2 of the range size in bytes, fixed for the log's life; clamped
    /// to at least [`WORD_GRAIN_LOG2`] (a range can never be smaller than
    /// a word).
    pub grain_log2: u32,
    /// Per-slot version-ring depth for MVCC validation (see the module
    /// docs), [`DEFAULT_RING_DEPTH`] by default: rings let
    /// [`CommitLog::probe_written`] answer precisely whether the probed
    /// *word* was overwritten; 1 allocates no rings and keeps exact
    /// single-version behavior.  Clamped to `1..=`[`MAX_RING_DEPTH`].
    /// One ring slot holds a bucket of 64 consecutive versions
    /// (footprints OR-merged), so a depth-`d` ring reaches `d × 64`
    /// versions back before overflowing.
    pub ring_depth: u32,
}

impl Default for CommitLogConfig {
    fn default() -> Self {
        CommitLogConfig {
            grain_log2: LINE_GRAIN_LOG2,
            ring_depth: DEFAULT_RING_DEPTH,
        }
    }
}

impl CommitLogConfig {
    /// Word-granular tracking (no false sharing).
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

    /// Set the MVCC version-ring depth (builder style); 1 disables the
    /// rings entirely.
    pub fn ring_depth(mut self, ring_depth: u32) -> Self {
        self.ring_depth = ring_depth;
        self
    }

    /// The config with degenerate values clamped: grain at least a word,
    /// ring depth in range.  [`CommitLog::with_config`] applies this
    /// automatically; other consumers of the raw pub fields
    /// (e.g. the simulator) should apply it too so one set of rules
    /// governs every layer.
    pub fn normalized(self) -> Self {
        CommitLogConfig {
            grain_log2: self.grain_log2.max(WORD_GRAIN_LOG2),
            ring_depth: self.ring_depth.clamp(1, MAX_RING_DEPTH),
        }
    }
}

/// Aggregate commit-log activity counters, for throughput reporting
/// (every run report carries them; the harness `grain` sweep and the
/// benchmark ledger print them).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CommitLogStats {
    /// Commit batches recorded: `publish` calls that stamped a range (a
    /// batch that skipped every range is not counted).
    pub commits: u64,
    /// Range stamps *written* across all batches, cumulatively — the
    /// actual log traffic; coarser grains stamp fewer ranges per batch.
    pub stamp_writes: u64,
    /// Estimated wall-clock nanoseconds of commit publication — the
    /// reservation, the stamps and the take of each range's readers
    /// (sampled: one batch in
    /// `2^LOCK_SAMPLE_LOG2` is timed, scaled up).  On coarse-resolution
    /// clocks short sections may register as zero.
    pub lock_ns: u64,
    /// Always 0: the log has one committer, whose stamps are stores, not
    /// CAS loops.  The field stays while the benchmark's frozen code reads
    /// it (ROADMAP item 2(e) removes it with its readers).
    pub cas_retries: u64,
    /// Registrations by ranks greater than [`MAX_TRACKED_READERS`]: each
    /// lands in its range's spill set (an `RwLock` write on top of the
    /// marker-bit `fetch_or`) — the registry's slow path, surfaced so a
    /// run on more than 63 speculative CPUs shows what it pays.
    pub reader_spills: u64,
    /// Version-ring probes that fell back to single-version
    /// conservatism because the ring's history did not reach the
    /// probed snapshot ([`RingCheck::Overflow`]) — the MVCC precision
    /// pressure signal.  Always 0 at `ring_depth` 1.
    pub ring_overflows: u64,
    /// Configured range size (log2 bytes), echoed for reports.
    pub grain_log2: u32,
    /// Configured (normalized) version-ring depth, echoed for reports.
    pub ring_depth: u32,
}

/// Per-region telemetry snapshot (see [`CommitLog::region_profiles`]).
/// Its only reader is the benchmark's grain-controller probe, which
/// ROADMAP item 2(e) deletes.  Only `stamps` counts; the other counters
/// read 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct RegionProfile {
    /// The region id (`addr >> region_log2`).
    pub region: RegionId,
    /// The log's grain (log2 bytes).
    pub grain_log2: u32,
    /// Range stamps written into this region (log traffic).
    pub stamps: u64,
    /// Always 0.
    pub conflicts: u64,
    /// Always 0.
    pub false_sharing: u64,
    /// Always 0.
    pub retries: u64,
}

/// Append-only versioned record of every write published to main memory,
/// at one grain under one epoch (see the module docs for the protocol).
///
/// The dense tables are sized to the arena (six words a commit-log line,
/// 24 MiB for a 32 MiB arena) and a run stamps the few lines it shares, so
/// they come zeroed instead of being written: building a log costs no page
/// fault per table page.
#[derive(Debug)]
pub struct CommitLog {
    config: CommitLogConfig,
    /// Log2 of the region size in bytes (`max(MIN_REGION_LOG2, grain)`).
    region_log2: u32,
    /// Version of the most recent *published* commit batch: committers
    /// `fetch_add` it to reserve-and-publish in one `SeqCst` RMW (the
    /// release sequence readers synchronize with).
    epoch: AtomicU64,
    /// Dense per-range versions: the range holding `addr` owns slot
    /// `addr >> grain_log2`.  Raised by the one committer's stores.
    dense: ZeroedAtomics,
    /// Packed MVCC version-ring entries, `ring_depth` per dense slot
    /// (slot `local` owns `rings[local * depth .. (local + 1) * depth]`,
    /// indexed by version bucket modulo depth).  Empty at depth 1.
    /// Stored by the one committer *before* the dense version stamp (see
    /// the module docs).
    rings: ZeroedAtomics,
    /// Per-range reader bitmasks (same indexing as `dense`);
    /// registration/enumeration are lock-free atomic RMWs.
    readers: ZeroedAtomics,
    /// Spill sets for ranks past the bitmask window, keyed by slot index.
    readers_spill: RwLock<HashMap<usize, HashSet<usize>>>,
    /// Range stamps per region of the window, indexed by region id;
    /// relaxed, telemetry only.
    region_stamps: ZeroedAtomics,
    /// Commit batches published (monotone): those that stamped at least
    /// one range.
    batches: AtomicU64,
    /// Range stamps written across all batches.
    stamped: AtomicU64,
    /// Estimated nanoseconds of commit publication: every
    /// `2^LOCK_SAMPLE_LOG2`-th batch is timed (two clock reads)
    /// and its duration scaled up, so the commit-throughput reporting
    /// the `grain` sweep is built on costs the hot publish path almost
    /// nothing; all counters use relaxed atomics.
    lock_ns: AtomicU64,
    /// Reader registrations that spilled past the bitmask window.
    reader_spills: AtomicU64,
    /// Ring probes that fell back to single-version conservatism
    /// ([`RingCheck::Overflow`]); relaxed, telemetry only.
    ring_overflows: AtomicU64,
    /// Whether a publish is under way: the debug build's check that the
    /// log has one committer at a time (`stamp.rs`).
    #[cfg(debug_assertions)]
    committing: AtomicBool,
    /// Whether anything was written into the log since construction or
    /// the last [`clear`](Self::clear): raised by every mutator
    /// ([`touch`](Self::touch)), so clearing a log nothing used — a
    /// runtime's first run — writes none of its tables.
    touched: AtomicBool,
}

impl CommitLog {
    /// Create a log with an explicit grain config whose window covers
    /// `[0, capacity_bytes)` — size it to the main-memory arena: the whole
    /// program's traffic stamps lock-free with bounded memory (one version
    /// word per range), and an address past the window is a caller bug
    /// that panics.  The capacity is rounded *up* to whole regions, so a
    /// trailing partial range or region is covered.
    pub fn with_config(config: CommitLogConfig, capacity_bytes: u64) -> Self {
        let config = config.normalized();
        let region_log2 = config.grain_log2.max(MIN_REGION_LOG2);
        let region_count = capacity_bytes.div_ceil(1u64 << region_log2) as usize;
        let dense_slots = region_count << (region_log2 - config.grain_log2);
        // Rings are only materialized past depth 1, so the
        // single-version layout pays no extra memory.
        let ring_slots = if config.ring_depth > 1 {
            dense_slots * config.ring_depth as usize
        } else {
            0
        };
        CommitLog {
            config,
            region_log2,
            epoch: AtomicU64::new(0),
            dense: ZeroedAtomics::new(dense_slots),
            rings: ZeroedAtomics::new(ring_slots),
            readers: ZeroedAtomics::new(dense_slots),
            readers_spill: RwLock::new(HashMap::new()),
            region_stamps: ZeroedAtomics::new(region_count),
            batches: AtomicU64::new(0),
            stamped: AtomicU64::new(0),
            lock_ns: AtomicU64::new(0),
            reader_spills: AtomicU64::new(0),
            ring_overflows: AtomicU64::new(0),
            #[cfg(debug_assertions)]
            committing: AtomicBool::new(false),
            touched: AtomicBool::new(false),
        }
    }

    /// The grain configuration this log runs with.  Besides the runtime,
    /// read by the benchmark's grain-controller probe, which ROADMAP item
    /// 2(e) deletes.
    pub fn config(&self) -> CommitLogConfig {
        self.config
    }

    /// Log2 of the region size in bytes.
    pub fn region_log2(&self) -> u32 {
        self.region_log2
    }

    fn region_of(&self, addr: Addr) -> RegionId {
        addr >> self.region_log2
    }

    /// `addr`'s region as an index into the per-region tables — **the**
    /// window check: every entry point that takes an address comes
    /// through here before it touches a table, so an address the arena
    /// does not hold panics from one place.
    #[inline]
    fn region_index_of(&self, addr: Addr) -> usize {
        let region = addr >> self.region_log2;
        if region >= self.region_stamps.len() as u64 {
            self.outside_window(addr);
        }
        region as usize
    }

    #[cold]
    #[inline(never)]
    fn outside_window(&self, addr: Addr) -> ! {
        panic!(
            "address {addr:#x} outside the commit log's window of {} bytes",
            (self.region_stamps.len() as u64) << self.region_log2
        );
    }

    /// `addr`'s slot, as an index into the per-range tables (the caller
    /// checked the address against the window).
    fn slot_at(&self, addr: Addr) -> usize {
        (addr >> self.config.grain_log2) as usize
    }

    /// `addr`'s slot, window-checked.
    fn slot_of(&self, addr: Addr) -> usize {
        self.region_index_of(addr);
        self.slot_at(addr)
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

    /// The read snapshot for `addr`: the log's current epoch (acquire),
    /// after the window check.
    ///
    /// Speculative readers sample this *before* loading the word from
    /// main memory and stamp the read-set entry with it; join-time
    /// validation compares it against [`version_of`](Self::version_of).
    pub fn snapshot(&self, addr: Addr) -> CommitVersion {
        self.region_index_of(addr);
        self.epoch()
    }

    /// Version of the last commit that wrote any word of `addr`'s range
    /// (0 = never written through the log).
    pub fn version_of(&self, addr: Addr) -> CommitVersion {
        self.dense[self.slot_of(addr)].load(Ordering::Acquire)
    }

    /// True when a commit wrote `addr`'s *range* after a read of `addr`
    /// stamped with `read_version` — the (range-conservative) dependence
    /// violation condition.  May flag false sharing (a different word of
    /// the same range); never misses a genuine conflict.
    pub fn written_after(&self, addr: Addr, read_version: CommitVersion) -> bool {
        self.version_of(addr) > read_version
    }

    /// The version of the most recent published commit (acquire) — the
    /// snapshot of every address in the window.
    pub fn epoch(&self) -> CommitVersion {
        self.epoch.load(Ordering::Acquire)
    }

    /// Number of commit batches recorded so far.
    pub fn commits(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Aggregate activity counters since construction or the last
    /// [`clear`](Self::clear).
    pub fn stats(&self) -> CommitLogStats {
        CommitLogStats {
            commits: self.commits(),
            stamp_writes: self.stamped.load(Ordering::Relaxed),
            lock_ns: self.lock_ns.load(Ordering::Relaxed),
            cas_retries: 0,
            reader_spills: self.reader_spills.load(Ordering::Relaxed),
            ring_overflows: self.ring_overflows.load(Ordering::Relaxed),
            grain_log2: self.config.grain_log2,
            ring_depth: self.config.ring_depth,
        }
    }

    /// Every region with a stamp, ascending by region id, with its stamp
    /// count.  Its only reader is the benchmark's grain-controller probe,
    /// which ROADMAP item 2(e) deletes.
    pub fn region_profiles(&self) -> Vec<RegionProfile> {
        let stamped = self.region_stamps.iter().enumerate();
        stamped
            .map(|(region, stamps)| (region, stamps.load(Ordering::Relaxed)))
            .filter(|&(_, stamps)| stamps > 0)
            .map(|(region, stamps)| RegionProfile {
                region: region as RegionId,
                grain_log2: self.config.grain_log2,
                stamps,
                ..RegionProfile::default()
            })
            .collect()
    }

    /// Forget everything (start of a new speculative region run): stamps,
    /// registries and telemetry.  The caller quiesces the log's users
    /// first.  A log nothing was written into since construction or the
    /// last `clear` already is all of that, word for word, and is left
    /// alone — its tables came as zero pages and stay unfaulted.  A used
    /// log's mapped tables hand their pages back to the kernel instead of
    /// being written, so a clear costs the pages the run touched, not the
    /// arena's size.
    pub fn clear(&self) {
        if !self.touched.load(Ordering::Relaxed) {
            return;
        }
        for table in [&self.dense, &self.rings, &self.readers, &self.region_stamps] {
            table.zero();
        }
        self.readers_spill.write().clear();
        self.epoch.store(0, Ordering::Release);
        self.batches.store(0, Ordering::Relaxed);
        self.stamped.store(0, Ordering::Relaxed);
        self.lock_ns.store(0, Ordering::Relaxed);
        self.reader_spills.store(0, Ordering::Relaxed);
        self.ring_overflows.store(0, Ordering::Relaxed);
        self.touched.store(false, Ordering::Relaxed);
    }
}

/// A logical predecessor's commit of `addrs`, already in memory, that
/// dooms nobody: the publish walk with every reader spared.
#[cfg(test)]
pub(crate) fn publish_sparing_all(log: &CommitLog, addrs: &[Addr]) -> CommitVersion {
    log.publish(&mut addrs.to_vec(), false, |_| true).0
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;

    /// A word-granular log behaves exactly like the old design for these
    /// unit tests.
    fn word_log() -> CommitLog {
        CommitLog::with_config(CommitLogConfig::word_grain(), 1 << 12)
    }

    #[test]
    fn versions_are_monotone_per_batch() {
        let log = word_log();
        assert_eq!(log.epoch(), 0);
        let v1 = publish_sparing_all(&log, &[8, 16]);
        let v2 = publish_sparing_all(&log, &[24]);
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
        publish_sparing_all(&log, &[64]);
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
        let v1 = publish_sparing_all(&log, &[8]);
        let v2 = publish_sparing_all(&log, &[8]);
        assert!(v2 > v1);
        assert!(log.written_after(8, v1));
    }

    #[test]
    fn range_grain_coarsens_conservatively() {
        // At line grain, two words of the same 64-byte range share a
        // version (false sharing allowed)…
        let log = CommitLog::with_config(CommitLogConfig::line_grain(), 1 << 12);
        let before = log.snapshot(8);
        publish_sparing_all(&log, &[8]);
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
    fn every_region_versions_on_the_one_epoch() {
        // Addresses one region apart take consecutive versions from the
        // one epoch, and every address snapshots it.
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 2 << 12);
        let region_bytes = 1u64 << log.region_log2();
        let v_a = publish_sparing_all(&log, &[0]);
        let v_b = publish_sparing_all(&log, &[region_bytes]);
        assert_eq!(v_a, 1);
        assert_eq!(v_b, 2, "the second region continues the epoch");
        assert_eq!(log.epoch(), 2);
        let v_a2 = publish_sparing_all(&log, &[0]);
        assert_eq!(v_a2, 3);
        assert_eq!(log.epoch(), 3);
        assert_eq!(log.commits(), 3);
        assert!(log.snapshot(0) == log.snapshot(8));
        assert_eq!(log.snapshot(region_bytes), log.epoch());
    }

    #[test]
    fn config_normalizes_degenerate_values() {
        let log = CommitLog::with_config(
            CommitLogConfig {
                grain_log2: 0,
                ring_depth: 0,
            },
            128,
        );
        assert_eq!(log.config().grain_log2, WORD_GRAIN_LOG2);
        assert_eq!(log.config().ring_depth, 1, "ring depth clamps to 1");
        assert_eq!(
            CommitLogConfig::default()
                .ring_depth(999)
                .normalized()
                .ring_depth,
            MAX_RING_DEPTH
        );
    }

    #[test]
    fn every_entry_point_panics_on_the_first_word_past_the_window() {
        // 5 000 bytes is not a whole region: the window rounds up to two
        // regions.
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 5_000);
        let window = 2u64 << log.region_log2();
        let (last, past) = (window - 8, window);
        type EntryPoint = fn(&CommitLog, Addr);
        let entry_points: [(&str, EntryPoint); 8] = [
            ("snapshot", |log, a| {
                log.snapshot(a);
            }),
            ("version_of", |log, a| {
                log.version_of(a);
            }),
            ("probe_written", |log, a| {
                log.probe_written(a, 0);
            }),
            ("publish", |log, a| {
                log.publish(&mut vec![8, a], false, |_| false);
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

    #[test]
    fn region_profiles_count_the_stamps_of_each_region() {
        let log = CommitLog::with_config(CommitLogConfig::word_grain(), 1 << 14);
        let region_bytes = 1u64 << log.region_log2();
        publish_sparing_all(&log, &[8, 16, region_bytes]);
        publish_sparing_all(&log, &[8]);
        let profile = |region, stamps| RegionProfile {
            region,
            grain_log2: WORD_GRAIN_LOG2,
            stamps,
            ..RegionProfile::default()
        };
        assert_eq!(log.region_profiles(), [profile(0, 3), profile(1, 1)]);
        log.clear();
        assert!(log.region_profiles().is_empty());
    }

    /// Everything a log holds — every table, counter and the
    /// touched flag — as its derived `Debug` prints it.
    fn contents(log: &CommitLog) -> String {
        format!("{log:?}")
    }

    #[test]
    fn clear_after_any_one_mutator_leaves_a_freshly_built_log() {
        // Two regions, shallow rings: every table has something to lose.
        // At 8 KiB every table is a box, which `clear` writes; at 1 MiB the
        // per-range tables are mappings, whose pages `clear` drops.
        for capacity in [2 << 12, 1 << 20] {
            clear_leaves_a_freshly_built_log(capacity);
        }
    }

    fn clear_leaves_a_freshly_built_log(capacity: u64) {
        let build =
            || CommitLog::with_config(CommitLogConfig::word_grain().ring_depth(2), capacity);
        let fresh = contents(&build());
        // `clear` on a log nothing used changes nothing.
        let unused = build();
        unused.clear();
        assert!(contents(&unused) == fresh);
        // A mutator that forgot to raise the flag would leave its mark
        // behind the early return and fail its row.
        type Mutator = fn(&CommitLog);
        let mutators: [(&str, Mutator); 5] = [
            ("publish, sparing every reader", |log| {
                log.register_reader(8, 1);
                for _ in 0..2 << RING_BUCKET_LOG2 {
                    publish_sparing_all(log, &[8, 4096 + 16]);
                }
                // Two whole buckets back on a depth-2 ring: counted.
                assert_eq!(log.probe_written(8, 0), RingCheck::Overflow);
            }),
            ("publish", |log| {
                log.register_reader(8, 1);
                log.publish(&mut vec![4096 + 16, 8], false, |_| false);
            }),
            ("register_reader, rank 1", |log| {
                log.register_reader(8, 1);
            }),
            ("register_reader, rank 200", |log| {
                log.register_reader(4096 + 8, 200);
            }),
            ("register_reader, rank 150, then unregister_reader", |log| {
                log.register_reader(8, 150);
                log.register_reader(72, 150);
                log.unregister_reader([8], 150);
            }),
        ];
        for (name, mutate) in mutators {
            let log = build();
            mutate(&log);
            assert!(contents(&log) != fresh, "{name} left no mark to clear");
            log.clear();
            assert!(
                contents(&log) == fresh,
                "{name} survived the clear of {capacity}"
            );
        }
    }
}
