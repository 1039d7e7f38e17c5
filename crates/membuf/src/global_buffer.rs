//! Read-set/write-set buffering of non-local memory accesses (paper §IV-G2).
//!
//! Every speculative thread owns one [`GlobalBuffer`].  Writes to the global
//! address space are redirected into the write-set; loads return the value
//! from the write-set if present, else from the read-set, else the value is
//! loaded from main memory and recorded in the read-set.
//!
//! The two hot accessors, [`GlobalBuffer::load_logged`] and
//! [`GlobalBuffer::store`], probe each [`WordMap`] at most once per call —
//! one cache line per probe — and are `#[inline]`, so the size/alignment
//! checks fold away for the constant word-sized accesses the runtime
//! issues.  Everything that happens once per *word* rather than once per
//! *access* (the first touch that registers the reader, snapshots the log,
//! reads main memory and inserts; the overflow bookkeeping) lives in
//! `#[cold]` out-of-line arms.  The load's overlay rule is written once, in
//! [`GlobalBuffer::load_or`]; what a first touch does besides is the
//! caller's to say.
//!
//! Conflicts only occur when a speculative thread reads an address before a
//! logically earlier thread writes it, so validation simply re-reads every
//! read-set entry from main memory and compares; commit then publishes the
//! write-set (masked by the bytes actually written).

use crate::commit_log::{CommitLog, RingCheck};
use crate::error::BufferError;
use crate::memory::{Addr, MainMemory, WORD_BYTES};
use crate::wordmap::{byte_mask, WordEntry, WordMap};

/// Outcome of a commit-log validation pass (see
/// [`GlobalBuffer::validate_against_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Validation {
    /// No commit invalidated any read — the thread may commit.
    Valid,
    /// At least one read's range was committed after the read.
    Conflict {
        /// True when every conflicting word still holds its first-read
        /// value — the conflict is most likely false sharing introduced
        /// by a coarse tracking grain (or a value-identical ABA write).
        suspected_false_sharing: bool,
    },
}

impl Validation {
    /// True when validation passed.
    pub fn is_valid(&self) -> bool {
        matches!(self, Validation::Valid)
    }
}

/// Capacity configuration of a speculative thread's buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferConfig {
    /// Direct-mapped slots in the read-set.
    pub read_capacity_words: usize,
    /// Direct-mapped slots in the write-set.
    pub write_capacity_words: usize,
    /// Entries in each overflow area.
    pub overflow_capacity: usize,
}

impl Default for BufferConfig {
    fn default() -> Self {
        // Defaults sized for the paper's memory-intensive benchmarks
        // (2^20 doubles FFT working set split across recursive tasks).
        BufferConfig {
            read_capacity_words: 1 << 16,
            write_capacity_words: 1 << 16,
            overflow_capacity: 1 << 10,
        }
    }
}

impl BufferConfig {
    /// A deliberately tiny configuration useful in tests that exercise
    /// overflow and rollback paths.
    pub fn tiny() -> Self {
        BufferConfig {
            read_capacity_words: 16,
            write_capacity_words: 16,
            overflow_capacity: 4,
        }
    }
}

/// Counters describing buffer activity, consumed by the statistics layer
/// and the discrete-event simulator cost model.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BufferStats {
    /// Speculative loads served (any source).
    pub loads: u64,
    /// Speculative stores buffered.
    pub stores: u64,
    /// Loads that had to touch main memory (read-set misses).
    pub memory_loads: u64,
    /// Words validated at join time.
    pub validated_words: u64,
    /// Words committed at join time.
    pub committed_words: u64,
    /// Hash conflicts that landed in the overflow area.
    pub overflow_events: u64,
    /// Reads whose range was committed after the read but whose *word*
    /// the version ring proved untouched ([`RingCheck::Precise`]) —
    /// false-sharing dooms MVCC validation survived.  Always 0 at ring
    /// depth 1.
    pub precise_passes: u64,
}

/// Per-thread buffering of global (static/heap/non-speculative-stack) data.
#[derive(Debug)]
pub struct GlobalBuffer {
    read_set: WordMap,
    write_set: WordMap,
    stats: BufferStats,
    /// Thread rank registered in the commit log's reader registry on every
    /// first-touch read (0 = anonymous: snapshot without registering).
    reader: usize,
}

impl GlobalBuffer {
    /// Create a buffer with the given capacities.
    pub fn new(config: BufferConfig) -> Self {
        GlobalBuffer {
            read_set: WordMap::new(config.read_capacity_words, config.overflow_capacity),
            write_set: WordMap::new(config.write_capacity_words, config.overflow_capacity),
            stats: BufferStats::default(),
            reader: 0,
        }
    }

    /// Create a buffer whose first-touch reads register thread `rank` in
    /// the commit log's reader registry (see `CommitLog::register_reader`),
    /// so committing writers can doom this thread surgically.
    pub fn for_reader(config: BufferConfig, rank: usize) -> Self {
        let mut buffer = Self::new(config);
        buffer.reader = rank;
        buffer
    }

    /// The rank this buffer registers as a reader (0 = anonymous).
    pub fn reader(&self) -> usize {
        self.reader
    }

    /// Activity counters accumulated since the last [`clear`](Self::clear).
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Number of words currently buffered in the read-set.
    pub fn read_set_len(&self) -> usize {
        self.read_set.len()
    }

    /// Whether the word at `addr` is in the read-set — i.e. the thread
    /// read it from shared state before (or without) writing it.  The
    /// runtime uses this to tell a *blind* store (write-only word: any
    /// registered reader is reading underneath this thread's overlay)
    /// from a read-modify-write (registered readers may be logical
    /// predecessors and must not be doomed at store time).
    pub fn has_read(&self, addr: Addr) -> bool {
        self.read_set.entry(addr & !(WORD_BYTES - 1)).is_some()
    }

    /// Number of words currently buffered in the write-set.
    pub fn write_set_len(&self) -> usize {
        self.write_set.len()
    }

    /// True if either set had to spill into its overflow area; the runtime
    /// stalls the thread at its next check point in that case.
    pub fn overflow_pending(&self) -> bool {
        self.read_set.overflow_pending() || self.write_set.overflow_pending()
    }

    /// The word holding `addr`, the access's byte offset in it and its
    /// byte mask — or why the access is unsupported: a size other than 1,
    /// 2, 4 or 8 bytes, or an address that is not a multiple of it.
    #[inline]
    fn split(addr: Addr, size: u64) -> Result<(Addr, u64, u64), BufferError> {
        let word_addr = addr & !(WORD_BYTES - 1);
        let offset = addr - word_addr;
        Ok((word_addr, offset, byte_mask(offset, size)?))
    }

    /// Speculatively load `size` bytes (1, 2, 4 or 8) at `addr`.
    ///
    /// The value is returned in the low bits of the result.  Read-set
    /// entries are stamped with version 0; use
    /// [`load_logged`](Self::load_logged) when join-time validation goes
    /// through a [`CommitLog`].
    pub fn load(
        &mut self,
        mem: &dyn MainMemory,
        addr: Addr,
        size: u64,
    ) -> Result<u64, BufferError> {
        self.load_logged(mem, None, addr, size)
    }

    /// Speculatively load `size` bytes at `addr`, stamping any new
    /// read-set entry with the commit-log epoch observed *before* the
    /// memory read (see the ordering protocol in [`CommitLog`]):
    /// [`load_or`](Self::load_or) with [`first_touch`](Self::first_touch)
    /// as the miss.
    #[inline]
    pub fn load_logged(
        &mut self,
        mem: &dyn MainMemory,
        log: Option<&CommitLog>,
        addr: Addr,
        size: u64,
    ) -> Result<u64, BufferError> {
        self.load_or(addr, size, |buffer, word_addr| {
            buffer.first_touch(mem, log, word_addr)
        })
    }

    /// The overlay rule of a speculative load, with the first touch of a
    /// word left to the caller: `miss(self, word_addr)` must return the
    /// word's value and record it in the read-set —
    /// [`first_touch`](Self::first_touch), after whatever the caller has to
    /// decide before an address may *enter* the set (the runtime checks
    /// there that the address is registered, so a hit never re-checks it).
    ///
    /// Probe order: **one** write-set probe (skipped outright while the
    /// thread has written nothing), whose result serves both the
    /// fully-written shortcut — such a word carries no read dependence, so
    /// the read-set is not consulted and no false conflict can arise — and
    /// the overlay of the thread's own bytes; then **one** read-set probe.
    /// Only a read-set miss leaves the inlined path.
    #[inline(always)]
    pub fn load_or<F>(&mut self, addr: Addr, size: u64, miss: F) -> Result<u64, BufferError>
    where
        F: FnOnce(&mut Self, Addr) -> Result<u64, BufferError>,
    {
        self.stats.loads += 1;
        let (word_addr, offset, mask) = Self::split(addr, size)?;
        // The thread's own bytes of the word and which they are (none: an
        // empty mask — a buffered word's never is).
        let (own, own_mask) = if self.write_set.is_empty() {
            (0, 0)
        } else {
            self.write_set
                .entry(word_addr)
                .map_or((0, 0), |w| (w.data, w.mask))
        };
        let word = if own_mask == u64::MAX {
            own
        } else {
            let read = match self.read_set.entry(word_addr) {
                Some(r) => r.data,
                None => miss(self, word_addr)?,
            };
            // Overlay any bytes the thread itself has written.
            (read & !own_mask) | (own & own_mask)
        };
        Ok((word & mask) >> (offset * 8))
    }

    /// First access to a word: read it from main memory and record it in
    /// the read-set.  Out of line: it happens once per word, not once per
    /// access.  Only for a word the read-set does not hold — the miss of
    /// [`load_or`](Self::load_or): an entry keeps its *first* read.
    #[cold]
    #[inline(never)]
    pub fn first_touch(
        &mut self,
        mem: &dyn MainMemory,
        log: Option<&CommitLog>,
        word_addr: Addr,
    ) -> Result<u64, BufferError> {
        debug_assert_eq!(word_addr % WORD_BYTES, 0, "first touch of a word");
        self.stats.memory_loads += 1;
        // Sample the owning shard's epoch BEFORE reading the word: a
        // commit racing in between then stamps a higher version and
        // validation flags the read (conservatively), never misses it.
        // With a reader identity, registration precedes the snapshot
        // (CommitLog's seqlock protocol), so a committer that misses the
        // registration is covered by the snapshot.
        let version = log
            .map(|l| {
                if self.reader != 0 {
                    l.register_reader(word_addr, self.reader)
                } else {
                    l.snapshot(word_addr)
                }
            })
            .unwrap_or(0);
        let value = mem.read_word(word_addr);
        let inserted = self
            .read_set
            .insert_word_versioned(word_addr, value, version);
        self.note_overflow(inserted)?;
        Ok(value)
    }

    /// Speculatively store the low `size` bytes of `value` at `addr`:
    /// [`store_or`](Self::store_or) with [`first_store`](Self::first_store)
    /// as the miss.
    #[inline]
    pub fn store(&mut self, addr: Addr, value: u64, size: u64) -> Result<(), BufferError> {
        self.store_or(addr, value, size, Self::first_store)
    }

    /// A speculative store with the first store of a word left to the
    /// caller: one write-set probe, and a word that sits in its home slot
    /// takes the bytes in place.  Otherwise `miss(self, word_addr, data,
    /// mask)` must buffer them — [`first_store`](Self::first_store), after
    /// whatever the caller has to decide before an address may *enter* the
    /// set (the counterpart of [`load_or`](Self::load_or)'s miss).
    #[inline(always)]
    pub fn store_or<F>(
        &mut self,
        addr: Addr,
        value: u64,
        size: u64,
        miss: F,
    ) -> Result<(), BufferError>
    where
        F: FnOnce(&mut Self, Addr, u64, u64) -> Result<(), BufferError>,
    {
        self.stats.stores += 1;
        let (word_addr, offset, mask) = Self::split(addr, size)?;
        let data = value << (offset * 8);
        if self.write_set.update(word_addr, data, mask) {
            return Ok(());
        }
        miss(self, word_addr, data, mask)
    }

    /// Buffer the bytes `mask` selects of `data` — what
    /// [`store_or`](Self::store_or) leaves to its miss: the first store of
    /// a word, or a store to a word the overflow area holds.  Out of line,
    /// with the overflow bookkeeping: it happens once per word, not once
    /// per access.
    #[inline(never)]
    pub fn first_store(
        &mut self,
        word_addr: Addr,
        data: u64,
        mask: u64,
    ) -> Result<(), BufferError> {
        match self.write_set.merge(word_addr, data, mask) {
            Ok(()) => Ok(()),
            overflowed => self.note_overflow(overflowed),
        }
    }

    /// Count an insert that landed in the overflow area (the data *is*
    /// buffered, so the access succeeds); pass any other result through.
    #[cold]
    fn note_overflow(&mut self, inserted: Result<(), BufferError>) -> Result<(), BufferError> {
        if inserted == Err(BufferError::OverflowPending) {
            self.stats.overflow_events += 1;
            return Ok(());
        }
        inserted
    }

    /// Validate the read-set against main memory.
    ///
    /// Returns `true` when every read value still matches main memory —
    /// i.e. no logically earlier thread wrote any address this thread read.
    pub fn validate(&mut self, mem: &dyn MainMemory) -> bool {
        for entry in self.read_set.iter() {
            self.stats.validated_words += 1;
            if mem.read_word(entry.addr) != entry.data {
                return false;
            }
        }
        true
    }

    /// Commit the write-set to main memory.
    ///
    /// Only bytes actually written are published; a fully written word is
    /// committed with a single word store (the paper's "-1 mark" fast
    /// path).
    pub fn commit(&mut self, mem: &dyn MainMemory) {
        for entry in self.write_set.iter() {
            self.stats.committed_words += 1;
            if entry.mask == u64::MAX {
                mem.write_word(entry.addr, entry.data);
            } else {
                mem.write_word_masked(entry.addr, entry.data, entry.mask);
            }
        }
    }

    /// Discard all buffered state and reset the overflow flag
    /// (finalization after commit, or rollback).
    pub fn clear(&mut self) {
        self.read_set.clear();
        self.write_set.clear();
        self.stats = BufferStats::default();
    }

    /// Iterate over the addresses currently in the read-set (used by the
    /// discrete-event simulator for deterministic conflict detection).
    pub fn read_addresses(&self) -> impl Iterator<Item = Addr> + '_ {
        self.read_set.iter().map(|e| e.addr)
    }

    /// Iterate over the addresses currently in the write-set.
    pub fn write_addresses(&self) -> impl Iterator<Item = Addr> + '_ {
        self.write_set.iter().map(|e| e.addr)
    }

    /// Iterate over the read-set entries (address, first-read data, mask).
    pub fn read_entries(&self) -> impl Iterator<Item = WordEntry> + '_ {
        self.read_set.iter()
    }

    /// Iterate over the write-set entries (address, buffered data, mask).
    pub fn write_entries(&self) -> impl Iterator<Item = WordEntry> + '_ {
        self.write_set.iter()
    }

    /// Validate the read-set against the shared [`CommitLog`]: the thread
    /// is valid iff **no** commit wrote any *range* covering an address in
    /// its read-set after the read was taken (version comparison, not
    /// value comparison — so the ABA case where a predecessor writes back
    /// the same value is still flagged).
    ///
    /// This is the *real* dependence-violation check of paper §IV-F: the
    /// log records exactly the writes published by logically earlier work,
    /// so `version_of(addr) > read_version` means a logical predecessor
    /// committed a write this thread should have observed.  At grains
    /// coarser than a word the check is conservative: a commit to a
    /// *different* word of the same range also fails validation (false
    /// sharing), but a genuine conflict is never missed.
    ///
    /// With version rings
    /// ([`CommitLogConfig::ring_depth`](crate::commit_log::CommitLogConfig::ring_depth)
    /// `> 1`) the check
    /// goes through [`CommitLog::probe_written`] instead: a
    /// post-snapshot commit whose ring footprint provably missed the
    /// read *word* passes precisely
    /// ([`precise_passes`](BufferStats::precise_passes)) rather than
    /// dooming as false sharing; ring overflow falls back to the
    /// single-version answer.  Missed conflicts stay impossible at
    /// every depth.
    pub fn validate_against(&mut self, log: &CommitLog) -> bool {
        for entry in self.read_set.iter() {
            self.stats.validated_words += 1;
            match log.probe_written(entry.addr, entry.version) {
                RingCheck::Clean => {}
                RingCheck::Precise => self.stats.precise_passes += 1,
                RingCheck::Touched { .. } | RingCheck::Overflow => return false,
            }
        }
        true
    }

    /// Like [`validate_against`](Self::validate_against), additionally
    /// classifying a conflict as *suspected false sharing*: every
    /// conflicting read-set word still holds its first-read value in main
    /// memory, so the commits that advanced the range versions most
    /// likely wrote *neighbouring* words of the shared ranges.
    ///
    /// The classification is an estimate, not a proof — a predecessor
    /// that wrote the same value back (ABA) is indistinguishable from a
    /// neighbour write.  At *word* grain, where false sharing is
    /// structurally impossible, the estimate is suppressed entirely so a
    /// value-identical ABA conflict (a genuine dependence violation) is
    /// never soft-pedalled.  It feeds the per-reason statistics and lets
    /// the adaptive governor back off differently when a coarse grain,
    /// rather than genuine sharing, is causing rollbacks.
    pub fn validate_against_with(&mut self, log: &CommitLog, mem: &dyn MainMemory) -> Validation {
        let mut conflicted = false;
        let mut values_unchanged = true;
        for entry in self.read_set.iter() {
            self.stats.validated_words += 1;
            match log.probe_written(entry.addr, entry.version) {
                RingCheck::Clean => {}
                // The ring proved the post-snapshot commits missed this
                // word: the doom single-version validation would have
                // charged as false sharing never happens.
                RingCheck::Precise => self.stats.precise_passes += 1,
                RingCheck::Touched { .. } | RingCheck::Overflow => {
                    conflicted = true;
                    // Ranges of one word can only conflict on the word
                    // itself; the grain is a live per-region property now,
                    // so the exactness check is per entry, not per log.
                    let grain_can_false_share =
                        log.grain_of(entry.addr) > crate::commit_log::WORD_GRAIN_LOG2;
                    if !grain_can_false_share || mem.read_word(entry.addr) != entry.data {
                        // A changed value (or a word-grain range) proves
                        // true sharing; stop scanning.
                        values_unchanged = false;
                        break;
                    }
                }
            }
        }
        if !conflicted {
            Validation::Valid
        } else {
            Validation::Conflict {
                suspected_false_sharing: values_unchanged,
            }
        }
    }

    /// Value-predict retry, generalized to **time-travel retry**:
    /// re-validate every read whose *range* conflicts under `log` by
    /// comparing its first-read **value** against main memory right now,
    /// revalidating against the version chain actually observed rather
    /// than the current epoch.
    ///
    /// Returns `true` — and re-stamps the conflicting entries — when
    /// every conflicting word still holds its first-read value: the
    /// commits that advanced the range versions published the very
    /// values this thread read (or only touched neighbouring words of a
    /// coarse range), so the execution is equivalent to one that read
    /// *after* those commits and the thread may commit without
    /// re-executing.  This covers both grain-induced false sharing and
    /// the value-identical ABA case, which is serializable for the same
    /// reason (the seed runtime's value validation relied on exactly
    /// this).
    ///
    /// Per conflicting entry, the version-ring probe decides the repair:
    ///
    /// * [`RingCheck::Precise`] — the post-snapshot commits provably
    ///   missed the word: the entry needs no value check and no restamp
    ///   at all (it will keep probing precise).
    /// * [`RingCheck::Touched`] — the entry is restamped to the *newest
    ///   ring version that touched the word*, not the current epoch:
    ///   later unrelated commits to the range stay precisely probeable
    ///   instead of re-dooming the thread (this is the time travel, and
    ///   it is never less conservative than the legacy fresh-snapshot
    ///   restamp because the target is older).
    /// * [`RingCheck::Overflow`] (and any touch at ring depth 1) — the
    ///   legacy behavior: a fresh snapshot sampled *before* the value
    ///   re-read, so a commit racing the retry stamps a higher version
    ///   and a later validation pass flags the entry again.
    ///
    /// On success the thread's **whole read set is re-registered** in
    /// the per-range reader registry: the committer that doomed this
    /// thread consumed its registrations for every range it stamped —
    /// including ranges whose entries are clean here (read after that
    /// commit) — and without the repair a *second* conflicting commit
    /// would miss the thread and leave the doom to join-time validation
    /// only.  (`register_reader` is an idempotent `fetch_or`; this is
    /// the cold doom-repair path.)  On `false` (some value changed: a
    /// genuine dependence violation) nothing is re-stamped.
    pub fn revalidate_by_value(&mut self, log: &CommitLog, mem: &dyn MainMemory) -> bool {
        let mut refreshed: Vec<(Addr, u64)> = Vec::new();
        for entry in self.read_set.iter() {
            match log.probe_written(entry.addr, entry.version) {
                RingCheck::Clean => continue,
                RingCheck::Precise => {
                    self.stats.precise_passes += 1;
                    continue;
                }
                RingCheck::Touched { newest_touch } => {
                    self.stats.validated_words += 1;
                    if mem.read_word(entry.addr) != entry.data {
                        return false;
                    }
                    // Time travel: every ring-known touch of this word is
                    // at most `newest_touch` and the value survived them
                    // all; a racing commit lands above the version the
                    // probe saw and re-flags the entry later.
                    refreshed.push((entry.addr, newest_touch));
                }
                RingCheck::Overflow => {
                    self.stats.validated_words += 1;
                    // Snapshot first, then the value read (the standard
                    // ordering).
                    let fresh = log.snapshot(entry.addr);
                    if mem.read_word(entry.addr) != entry.data {
                        return false;
                    }
                    refreshed.push((entry.addr, fresh));
                }
            }
        }
        if self.reader != 0 {
            // Registry-driven re-read repair (see the doc comment): the
            // dooming committer's take_readers cleared this thread's
            // registrations; restore every one of them before declaring
            // the retry succeeded.
            for entry in self.read_set.iter() {
                log.register_reader(entry.addr, self.reader);
            }
        }
        for (addr, version) in refreshed {
            // Per-region retry telemetry: a conflict the current grain
            // made cheap — the grain controller's "keep this grain"
            // signal.
            log.note_retry(addr);
            self.read_set.refresh_version(addr, version);
        }
        true
    }

    /// Attribute this buffer's *currently conflicting* reads to their
    /// commit-log regions ([`CommitLog::note_conflict`]) — called on the
    /// rollback path so the grain controller sees which regions are
    /// squashing threads, and whether the conflicts look like false
    /// sharing (value unchanged at a coarser-than-word grain).
    pub fn attribute_conflicts(&self, log: &CommitLog, mem: &dyn MainMemory) {
        // Read-set iteration is in *insertion* (temporal) order, so a
        // thread whose reads interleave regions would double-count with
        // adjacent-only dedup; a real set keeps the attribution one per
        // region.  Rollback path only — the allocation is off the hot
        // path.
        let mut seen: std::collections::HashSet<crate::commit_log::RegionId> =
            std::collections::HashSet::new();
        for entry in self.read_set.iter() {
            if !log.written_after(entry.addr, entry.version) {
                continue;
            }
            if !seen.insert(log.region_of(entry.addr)) {
                continue;
            }
            let suspected = log.grain_of(entry.addr) > crate::commit_log::WORD_GRAIN_LOG2
                && mem.read_word(entry.addr) == entry.data;
            log.note_conflict(entry.addr, suspected);
        }
    }

    /// Validate the read-set against an arbitrary memory *view*.
    ///
    /// The view maps a word-aligned address to its current value; a
    /// speculative parent joining its own child uses "parent write-set
    /// overlaid on main memory" as the view, the non-speculative thread
    /// uses main memory directly.
    pub fn validate_view<F: Fn(Addr) -> u64>(&mut self, view: F) -> bool {
        for entry in self.read_set.iter() {
            self.stats.validated_words += 1;
            if view(entry.addr) != entry.data {
                return false;
            }
        }
        true
    }

    /// Absorb a (validated) child buffer into this one: the child's writes
    /// become this thread's writes and the child's read dependences become
    /// this thread's read dependences, so they are re-validated when this
    /// thread itself is eventually joined.
    ///
    /// Used when a *speculative* parent joins its own speculative child —
    /// nothing may reach main memory until the whole subtree is joined by
    /// the non-speculative thread.
    pub fn absorb(&mut self, child: &GlobalBuffer) -> Result<(), BufferError> {
        for entry in child.read_set.iter() {
            // A word this thread has already fully written carries no read
            // dependence for the subtree; and if we already recorded a read
            // for it, the earlier (first) read is the one to validate.
            let fully_written = self
                .write_set
                .get(entry.addr)
                .map(|w| w.mask == u64::MAX)
                .unwrap_or(false);
            if fully_written {
                continue;
            }
            if self.read_set.get(entry.addr).is_some() {
                // Both threads read this word: keep the OLDEST snapshot
                // version, since a commit between the two reads must still
                // flag the subtree when it is eventually validated.
                self.read_set.weaken_version(entry.addr, entry.version);
                continue;
            }
            // Preserve the child's snapshot version: when this (absorbing)
            // thread is itself validated later, the child's reads must be
            // checked against commits made after the *child* read them.
            match self
                .read_set
                .insert_word_versioned(entry.addr, entry.data, entry.version)
            {
                Ok(()) | Err(BufferError::OverflowPending) => {}
                Err(e) => return Err(e),
            }
        }
        for entry in child.write_set.iter() {
            self.stats.committed_words += 1;
            match self.write_set.merge(entry.addr, entry.data, entry.mask) {
                Ok(()) | Err(BufferError::OverflowPending) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit_log::{CommitLog, CommitLogConfig};
    use crate::memory::GlobalMemory;

    fn setup() -> (GlobalMemory, GlobalBuffer) {
        let mem = GlobalMemory::new(4096);
        let buf = GlobalBuffer::new(BufferConfig::default());
        (mem, buf)
    }

    /// Word-granular log: adjacent words are distinct ranges, as the
    /// word-disjointness assertions below require.
    fn word_log() -> CommitLog {
        CommitLog::with_config(CommitLogConfig::word_grain(), 1 << 13)
    }

    #[test]
    fn load_reads_through_to_memory_once() {
        let (mem, mut buf) = setup();
        let p = mem.alloc::<u64>(4);
        mem.set(&p, 0, 77);
        let a = p.addr_of(0);
        assert_eq!(buf.load(&mem, a, 8).unwrap(), 77);
        // Memory changes after first read are not observed again (the
        // read-set caches the first value) — exactly what validation later
        // checks against.
        mem.set(&p, 0, 99);
        assert_eq!(buf.load(&mem, a, 8).unwrap(), 77);
        assert_eq!(buf.stats().memory_loads, 1);
        assert_eq!(buf.stats().loads, 2);
    }

    #[test]
    fn store_then_load_returns_buffered_value_without_touching_memory() {
        let (mem, mut buf) = setup();
        let p = mem.alloc::<u64>(1);
        mem.set(&p, 0, 5);
        let a = p.addr_of(0);
        buf.store(a, 123, 8).unwrap();
        assert_eq!(buf.load(&mem, a, 8).unwrap(), 123);
        // Main memory untouched until commit.
        assert_eq!(mem.get(&p, 0), 5);
        // Fully-written word produces no read-set entry → no false conflict.
        assert_eq!(buf.read_set_len(), 0);
    }

    #[test]
    fn partial_store_overlays_memory_bytes() {
        let (mem, mut buf) = setup();
        let p = mem.alloc::<u64>(1);
        mem.set(&p, 0, 0x1111_2222_3333_4444);
        let a = p.addr_of(0);
        buf.store(a, 0xAAAA, 2).unwrap();
        assert_eq!(buf.load(&mem, a, 8).unwrap(), 0x1111_2222_3333_AAAA);
        assert_eq!(buf.load(&mem, a + 4, 4).unwrap(), 0x1111_2222);
    }

    #[test]
    fn validate_detects_conflicting_write() {
        let (mem, mut buf) = setup();
        let p = mem.alloc::<u64>(2);
        mem.set(&p, 0, 10);
        let _ = buf.load(&mem, p.addr_of(0), 8).unwrap();
        assert!(buf.validate(&mem));
        // A logically earlier thread writes the address we read.
        mem.set(&p, 0, 11);
        assert!(!buf.validate(&mem));
    }

    #[test]
    fn validate_ignores_addresses_only_written() {
        let (mem, mut buf) = setup();
        let p = mem.alloc::<u64>(1);
        buf.store(p.addr_of(0), 3, 8).unwrap();
        mem.set(&p, 0, 100);
        // Write-after-write is not a conflict in this model.
        assert!(buf.validate(&mem));
    }

    #[test]
    fn commit_publishes_only_written_bytes() {
        let (mem, mut buf) = setup();
        let p = mem.alloc::<u64>(2);
        mem.set(&p, 0, 0xFFFF_FFFF_FFFF_FFFF);
        buf.store(p.addr_of(0), 0xAB, 1).unwrap();
        buf.store(p.addr_of(1), 0x1234_5678_9ABC_DEF0, 8).unwrap();
        buf.commit(&mem);
        assert_eq!(mem.get(&p, 0), 0xFFFF_FFFF_FFFF_FFAB);
        assert_eq!(mem.get(&p, 1), 0x1234_5678_9ABC_DEF0);
        assert_eq!(buf.stats().committed_words, 2);
    }

    #[test]
    fn clear_discards_buffered_writes() {
        let (mem, mut buf) = setup();
        let p = mem.alloc::<u64>(1);
        buf.store(p.addr_of(0), 42, 8).unwrap();
        buf.clear();
        buf.commit(&mem);
        assert_eq!(mem.get(&p, 0), 0);
        assert_eq!(buf.write_set_len(), 0);
        assert_eq!(buf.stats(), BufferStats::default());
    }

    #[test]
    fn misaligned_and_bad_sizes_are_rejected() {
        let (mem, mut buf) = setup();
        assert_eq!(buf.load(&mem, 9, 8).unwrap_err(), BufferError::Misaligned);
        assert_eq!(
            buf.load(&mem, 8, 3).unwrap_err(),
            BufferError::UnsupportedSize
        );
        assert_eq!(buf.store(10, 0, 4).unwrap_err(), BufferError::Misaligned);
    }

    #[test]
    fn overflow_is_reported_and_survivable() {
        let mem = GlobalMemory::new(1 << 14);
        let mut buf = GlobalBuffer::new(BufferConfig::tiny());
        let p = mem.alloc::<u64>(64);
        // 16 direct slots: indices 0..15 occupy every slot, 16 and 17 then
        // collide and must land in the overflow area without failing.
        for i in 0..18 {
            buf.store(p.addr_of(i), i as u64, 8).unwrap();
        }
        assert!(buf.overflow_pending());
        assert_eq!(buf.stats().overflow_events, 2);
        // The overflowed data is still readable and committable.
        assert_eq!(buf.load(&mem, p.addr_of(16), 8).unwrap(), 16);
        buf.commit(&mem);
        assert_eq!(mem.get(&p, 17), 17);
    }

    #[test]
    fn false_sharing_classification_follows_the_grain() {
        // At line grain, a value-unchanged conflict is suspected false
        // sharing; at word grain false sharing is structurally
        // impossible, so the same value-unchanged (ABA) conflict must be
        // classified as genuine — Throttle must not soft-pedal it.
        for (config, expect_false_sharing) in [
            (CommitLogConfig::line_grain(), true),
            (CommitLogConfig::word_grain(), false),
        ] {
            let mem = GlobalMemory::new(4096);
            let log = CommitLog::with_config(config, mem.size_bytes());
            let mut buf = GlobalBuffer::new(BufferConfig::default());
            let p = mem.alloc::<u64>(1);
            mem.set(&p, 0, 5);
            let _ = buf.load_logged(&mem, Some(&log), p.addr_of(0), 8).unwrap();
            // Value-identical commit to the very word that was read.
            log.record_word(p.addr_of(0));
            assert_eq!(
                buf.validate_against_with(&log, &mem),
                Validation::Conflict {
                    suspected_false_sharing: expect_false_sharing
                },
                "grain_log2 {}",
                config.grain_log2
            );
        }
        // A genuine neighbour-only write at line grain stays classified
        // as suspected false sharing, and value changes prove sharing.
        // (Single-version: a ring would pass the neighbour write precisely.)
        let mem = GlobalMemory::new(4096);
        let log = CommitLog::with_config(
            CommitLogConfig::line_grain().ring_depth(1),
            mem.size_bytes(),
        );
        let mut buf = GlobalBuffer::new(BufferConfig::default());
        let p = mem.alloc::<u64>(2);
        let _ = buf.load_logged(&mem, Some(&log), p.addr_of(0), 8).unwrap();
        mem.set(&p, 0, 9);
        log.record_word(p.addr_of(1)); // same line, different word
        assert_eq!(
            buf.validate_against_with(&log, &mem),
            Validation::Conflict {
                suspected_false_sharing: false
            },
            "changed value proves true sharing even on a neighbour write"
        );
    }

    #[test]
    fn reader_identity_registers_on_first_touch_only() {
        let mem = GlobalMemory::new(4096);
        let log = word_log();
        let mut buf = GlobalBuffer::for_reader(BufferConfig::default(), 5);
        assert_eq!(buf.reader(), 5);
        let p = mem.alloc::<u64>(2);
        let _ = buf.load_logged(&mem, Some(&log), p.addr_of(0), 8).unwrap();
        assert!(log.registered_readers(p.addr_of(0)).contains(5));
        assert!(!log.registered_readers(p.addr_of(1)).contains(5));
        // A word the thread fully wrote itself carries no registration.
        buf.store(p.addr_of(1), 9, 8).unwrap();
        let _ = buf.load_logged(&mem, Some(&log), p.addr_of(1), 8).unwrap();
        assert!(!log.registered_readers(p.addr_of(1)).contains(5));
    }

    #[test]
    fn value_predict_retry_succeeds_on_unchanged_values_and_restamps() {
        let mem = GlobalMemory::new(4096);
        let log = word_log();
        let mut buf = GlobalBuffer::new(BufferConfig::default());
        let p = mem.alloc::<u64>(2);
        mem.set(&p, 0, 5);
        let _ = buf.load_logged(&mem, Some(&log), p.addr_of(0), 8).unwrap();
        // A value-identical (ABA) commit to the read word: version
        // validation flags it, value prediction validates it.
        mem.set(&p, 0, 5);
        log.record_word(p.addr_of(0));
        assert!(!buf.validate_against(&log));
        assert!(buf.revalidate_by_value(&log, &mem));
        // The entry was re-stamped: validation passes until a new commit.
        assert!(buf.validate_against(&log));
        log.record_word(p.addr_of(0));
        assert!(!buf.validate_against(&log), "retry is not a free pass");
    }

    #[test]
    fn value_predict_retry_fails_on_changed_values_without_restamping() {
        let mem = GlobalMemory::new(4096);
        let log = word_log();
        let mut buf = GlobalBuffer::new(BufferConfig::default());
        let p = mem.alloc::<u64>(1);
        mem.set(&p, 0, 5);
        let _ = buf.load_logged(&mem, Some(&log), p.addr_of(0), 8).unwrap();
        mem.set(&p, 0, 6);
        log.record_word(p.addr_of(0));
        assert!(!buf.revalidate_by_value(&log, &mem));
        // Nothing was re-stamped: the conflict is still visible.
        assert!(!buf.validate_against(&log));
    }

    #[test]
    fn validate_against_flags_commits_after_the_read() {
        let (mem, mut buf) = setup();
        let log = word_log();
        let p = mem.alloc::<u64>(2);
        mem.set(&p, 0, 10);
        let _ = buf.load_logged(&mem, Some(&log), p.addr_of(0), 8).unwrap();
        assert!(buf.validate_against(&log));
        // A disjoint commit does not conflict.
        log.record_word(p.addr_of(1));
        assert!(buf.validate_against(&log));
        // A commit covering the read address does — even when the value is
        // unchanged (the ABA case value comparison would miss).
        mem.set(&p, 0, 10);
        log.record_word(p.addr_of(0));
        assert!(!buf.validate_against(&log));
    }

    #[test]
    fn validate_against_ignores_commits_before_the_read() {
        let (mem, mut buf) = setup();
        let log = word_log();
        let p = mem.alloc::<u64>(1);
        mem.set(&p, 0, 5);
        log.record_word(p.addr_of(0));
        // Read AFTER the commit: the snapshot version covers it.
        let v = buf.load_logged(&mem, Some(&log), p.addr_of(0), 8).unwrap();
        assert_eq!(v, 5);
        assert!(buf.validate_against(&log));
    }

    #[test]
    fn absorb_preserves_child_read_versions() {
        let (mem, mut parent) = setup();
        let mut child = GlobalBuffer::new(BufferConfig::default());
        let log = word_log();
        let p = mem.alloc::<u64>(2);
        // Child reads before any commit; child also writes a second word.
        let _ = child
            .load_logged(&mem, Some(&log), p.addr_of(0), 8)
            .unwrap();
        child.store(p.addr_of(1), 99, 8).unwrap();
        parent.absorb(&child).unwrap();
        // The absorbed write is visible through the parent's write-set.
        assert_eq!(parent.load(&mem, p.addr_of(1), 8).unwrap(), 99);
        // A commit after the child's read must still flag the parent.
        log.record_word(p.addr_of(0));
        assert!(!parent.validate_against(&log));
    }

    #[test]
    fn absorb_weakens_to_the_childs_older_read_version() {
        // Parent reads X *after* a commit, child read it *before*: the
        // merged read-set must keep the child's older snapshot so that
        // commit still flags the subtree at final validation.
        let (mem, mut parent) = setup();
        let mut child = GlobalBuffer::new(BufferConfig::default());
        let log = word_log();
        let p = mem.alloc::<u64>(1);
        let _ = child
            .load_logged(&mem, Some(&log), p.addr_of(0), 8)
            .unwrap();
        log.record_word(p.addr_of(0));
        let _ = parent
            .load_logged(&mem, Some(&log), p.addr_of(0), 8)
            .unwrap();
        assert!(parent.validate_against(&log), "parent's own read is fresh");
        parent.absorb(&child).unwrap();
        assert!(
            !parent.validate_against(&log),
            "child's stale read must survive the merge"
        );
    }

    /// Line-granular mvcc log: one-version-per-bucket so ring entries
    /// stay per-commit precise (the bucketed default would merge
    /// footprints of nearby versions).
    fn mvcc_line_log() -> CommitLog {
        // The window covers the whole test arena.
        CommitLog::with_config(
            CommitLogConfig::line_grain()
                .ring_depth(4)
                .ring_bucket_log2(0),
            4096,
        )
    }

    #[test]
    fn mvcc_validation_passes_precisely_on_neighbour_writes() {
        let mem = GlobalMemory::new(4096);
        let log = mvcc_line_log();
        let mut buf = GlobalBuffer::new(BufferConfig::default());
        let p = mem.alloc::<u64>(2);
        let _ = buf.load_logged(&mem, Some(&log), p.addr_of(0), 8).unwrap();
        // A neighbour-word commit advances the line's version; the ring
        // proves the read word was missed, so validation still passes.
        log.record_word(p.addr_of(1));
        assert!(log.written_after(p.addr_of(0), 0), "range version moved");
        assert!(buf.validate_against(&log));
        assert_eq!(buf.stats().precise_passes, 1);
        // Depth-1 (single-version) would have doomed the same snapshot.
        let single = CommitLog::with_config(CommitLogConfig::line_grain().ring_depth(1), 4096);
        let mut single_buf = GlobalBuffer::new(BufferConfig::default());
        let _ = single_buf
            .load_logged(&mem, Some(&single), p.addr_of(0), 8)
            .unwrap();
        single.record_word(p.addr_of(1));
        assert!(!single_buf.validate_against(&single));
        // A commit that does touch the read word still dooms precisely.
        log.record_word(p.addr_of(0));
        assert!(!buf.validate_against(&log));
    }

    #[test]
    fn time_travel_retry_restamps_to_the_observed_touch_version() {
        let mem = GlobalMemory::new(4096);
        let log = mvcc_line_log();
        let mut buf = GlobalBuffer::new(BufferConfig::default());
        let p = mem.alloc::<u64>(2);
        mem.set(&p, 0, 5);
        let _ = buf.load_logged(&mem, Some(&log), p.addr_of(0), 8).unwrap();
        // v1: value-identical (ABA) commit to the read word — flagged by
        // the ring, survived by the value check, restamped to v1 (the
        // version actually observed, not the then-current epoch).
        mem.set(&p, 0, 5);
        log.record_word(p.addr_of(0));
        assert!(!buf.validate_against(&log));
        assert!(buf.revalidate_by_value(&log, &mem));
        // v2: a neighbour-word commit after the restamp. Time travel put
        // the entry at v1, and the ring shows v2 missed the word —
        // validation passes precisely instead of re-dooming.
        log.record_word(p.addr_of(1));
        assert!(buf.validate_against(&log));
        // v3: touching the read word again still dooms.
        log.record_word(p.addr_of(0));
        assert!(!buf.validate_against(&log), "retry is not a free pass");
    }

    #[test]
    fn retry_re_registers_the_whole_read_set() {
        let mem = GlobalMemory::new(4096);
        let log = mvcc_line_log();
        let mut buf = GlobalBuffer::for_reader(BufferConfig::default(), 5);
        let p = mem.alloc::<u64>(64); // two distinct lines
        mem.set(&p, 0, 7);
        let _ = buf.load_logged(&mem, Some(&log), p.addr_of(0), 8).unwrap();
        let far = p.addr_of(63);
        let _ = buf.load_logged(&mem, Some(&log), far, 8).unwrap();
        // A committing writer dooms the thread and consumes its
        // registrations for every stamped range — model both ranges.
        let taken = log.take_readers([p.addr_of(0), far]);
        assert!(taken.contains(5));
        mem.set(&p, 0, 7);
        log.record_word(p.addr_of(0));
        assert!(!log.registered_readers(p.addr_of(0)).contains(5));
        assert!(!log.registered_readers(far).contains(5));
        // The in-flight retry must repair the registry for the entire
        // read set — including the far range, whose entry is clean.
        assert!(buf.revalidate_by_value(&log, &mem));
        assert!(log.registered_readers(p.addr_of(0)).contains(5));
        assert!(log.registered_readers(far).contains(5));
    }

    #[test]
    fn ring_overflow_falls_back_to_fresh_snapshot_retry() {
        let mem = GlobalMemory::new(4096);
        // Depth 2 with one version per bucket: three commits evict the
        // snapshot's window and force the conservative path.
        let log = CommitLog::with_config(
            CommitLogConfig::line_grain()
                .ring_depth(2)
                .ring_bucket_log2(0),
            4096,
        );
        let mut buf = GlobalBuffer::new(BufferConfig::default());
        let p = mem.alloc::<u64>(2);
        mem.set(&p, 0, 5);
        let _ = buf.load_logged(&mem, Some(&log), p.addr_of(0), 8).unwrap();
        // Three neighbour-only commits: individually precise-passable,
        // but the window has rolled past the snapshot.
        for _ in 0..3 {
            log.record_word(p.addr_of(1));
        }
        assert!(!buf.validate_against(&log), "overflow dooms conservatively");
        assert!(log.stats().ring_overflows > 0);
        // The value is untouched, so the legacy fresh-snapshot retry
        // still rescues the thread.
        assert!(buf.revalidate_by_value(&log, &mem));
        assert!(buf.validate_against(&log));
    }

    #[test]
    fn read_and_write_address_iterators() {
        let (mem, mut buf) = setup();
        let p = mem.alloc::<u64>(4);
        let _ = buf.load(&mem, p.addr_of(1), 8).unwrap();
        buf.store(p.addr_of(2), 9, 8).unwrap();
        let reads: Vec<_> = buf.read_addresses().collect();
        let writes: Vec<_> = buf.write_addresses().collect();
        assert_eq!(reads, vec![p.addr_of(1)]);
        assert_eq!(writes, vec![p.addr_of(2)]);
    }
}
