//! Buffering of a speculative thread's non-local memory accesses (paper
//! §IV-G2).
//!
//! Every speculative thread owns one [`GlobalBuffer`], and the buffer is one
//! [`WordMap`]: a word the thread touched is one record holding what it read
//! (the first-read value and its commit-log version) and what it wrote (its
//! own bytes and their mask).  Writes to the global address space land in
//! the record; a load returns the record's view of the word — the thread's
//! own bytes over its first read — and only a word the thread has neither
//! read nor fully written is loaded from main memory and recorded.
//!
//! The two hot accessors, [`GlobalBuffer::load_logged`] and
//! [`GlobalBuffer::store`], probe the map once per call — one cache line —
//! and are `#[inline]`, so the size/alignment checks fold away for the
//! constant word-sized accesses the runtime issues.  Everything that happens
//! once per *word* rather than once per *access* (the first touch that
//! registers the reader, snapshots the log, reads main memory and records;
//! the first store; the overflow bookkeeping) lives in out-of-line arms.
//! The load's rule is written once, in [`GlobalBuffer::load_or`]; what a
//! first touch does besides is the caller's to say.
//!
//! Conflicts only occur when a speculative thread reads an address before a
//! logically earlier thread writes it, so validation checks every record
//! with a read against the commit log — one walk that also repairs what a
//! value check can repair ([`GlobalBuffer::validate`]); commit then
//! publishes every record with a write (masked by the bytes actually
//! written).  Each join-time pass walks the one table.

use crate::commit_log::{CommitLog, RingCheck};
use crate::error::BufferError;
use crate::memory::{Addr, MainMemory, WORD_BYTES};
use crate::wordmap::{byte_mask, WordEntry, WordMap};

/// Outcome of the join's validation walk (see [`GlobalBuffer::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Validation {
    /// No commit touched a word the thread read after the read: every read
    /// probed clean, or precise through the version rings.
    Valid,
    /// Commits touched words the thread read, but every such word still
    /// holds its first-read value: the reads were re-stamped in place and
    /// the thread may commit without re-executing (the value-predict
    /// retry).
    Retried,
    /// A touched word's value changed since the thread read it: a genuine
    /// dependence violation.
    Conflict,
}

/// Capacity configuration of a speculative thread's buffer: one map of
/// `read_capacity_words + write_capacity_words` direct-mapped slots, the
/// bytes two separate sets of those sizes would take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferConfig {
    /// The map's direct-mapped slots sized for the words a thread reads.
    pub read_capacity_words: usize,
    /// The map's direct-mapped slots sized for the words a thread writes.
    pub write_capacity_words: usize,
    /// Entries in the map's overflow area.
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

/// Per-thread buffering of global (static/heap/non-speculative-stack) data.
#[derive(Debug)]
pub struct GlobalBuffer {
    words: WordMap,
    /// Reads whose range was committed after the read but whose *word* the
    /// version ring proved untouched ([`RingCheck::Precise`]), summed over
    /// every validation walk since the last [`clear`](Self::clear).  Always
    /// 0 at ring depth 1.
    precise_passes: u64,
    /// Thread rank registered in the commit log's reader registry on every
    /// first-touch read (0 = anonymous: snapshot without registering).
    reader: usize,
    /// One address in each range whose registration this buffer set (a
    /// first touch or an absorb that found the rank's bit missing): what
    /// is retired when the buffer is returned and restored after a doom,
    /// one entry per range instead of one per read word.  At most one
    /// entry per read, so bounded by the buffer's capacity.
    registered: Vec<Addr>,
    /// The write set's addresses, gathered for the commit log's publish
    /// walk ([`write_batch`](Self::write_batch)); kept, like the map, for
    /// the CPU's next task.
    batch: Vec<Addr>,
}

impl GlobalBuffer {
    /// Create a buffer with the given capacities.
    pub fn new(config: BufferConfig) -> Self {
        let slots = config.read_capacity_words + config.write_capacity_words;
        GlobalBuffer {
            words: WordMap::new(slots, config.overflow_capacity),
            precise_passes: 0,
            reader: 0,
            registered: Vec::new(),
            batch: Vec::new(),
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

    /// Reads the version rings passed precisely since the last
    /// [`clear`](Self::clear): their range was committed after the read,
    /// but no commit touched the word.
    pub fn precise_passes(&self) -> u64 {
        self.precise_passes
    }

    /// Number of buffered words the thread read (its read set).
    pub fn read_set_len(&self) -> usize {
        self.words.reads()
    }

    /// Number of buffered words the thread wrote (its write set).
    pub fn write_set_len(&self) -> usize {
        self.words.writes()
    }

    /// True if the map had to spill into its overflow area since the last
    /// [`clear`](Self::clear).  Nothing stalls on it: the thread runs on
    /// until the area is full, and the runtime reads the flag only to check
    /// that a recycled buffer comes back clean.
    pub fn overflow_pending(&self) -> bool {
        self.words.overflow_pending()
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

    /// Speculatively load `size` bytes (1, 2, 4 or 8) at `addr`, in the low
    /// bits of the result, stamping a first read with the commit-log epoch
    /// observed *before* the memory read (see the ordering protocol in
    /// [`CommitLog`]; `None` stamps 0): [`load_or`](Self::load_or) with
    /// [`first_touch`](Self::first_touch) as the miss.
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

    /// The rule of a speculative load, with the first touch of a word left
    /// to the caller: `miss(self, word_addr)` must record the word's first
    /// read and return the word as the thread sees it —
    /// [`first_touch`](Self::first_touch), after whatever the caller has to
    /// decide before an address may *enter* the map (the runtime checks
    /// there that the address is registered, so a hit never re-checks it).
    ///
    /// **One** probe: a record the thread read, or wrote every byte of, is
    /// the hit and serves its view of the word.  A fully written word carries
    /// no read dependence, so no read is recorded and no false conflict can
    /// arise.  Anything else — no record, or some bytes written and none
    /// read — leaves the inlined path.
    #[inline(always)]
    pub fn load_or<F>(&mut self, addr: Addr, size: u64, miss: F) -> Result<u64, BufferError>
    where
        F: FnOnce(&mut Self, Addr) -> Result<u64, BufferError>,
    {
        let (word_addr, offset, mask) = Self::split(addr, size)?;
        let word = match self.words.entry(word_addr) {
            Some(word) if word.complete() => word.data,
            _ => miss(self, word_addr)?,
        };
        Ok((word & mask) >> (offset * 8))
    }

    /// First read of a word: read it from main memory and record it; return
    /// the thread's own bytes over it.  Out of line: it happens once per
    /// word, not once per access.  Only for a word the thread has not read —
    /// the miss of [`load_or`](Self::load_or): a record keeps its *first*
    /// read.
    #[cold]
    #[inline(never)]
    pub fn first_touch(
        &mut self,
        mem: &dyn MainMemory,
        log: Option<&CommitLog>,
        word_addr: Addr,
    ) -> Result<u64, BufferError> {
        debug_assert_eq!(word_addr % WORD_BYTES, 0, "first touch of a word");
        // Sample the log's epoch BEFORE reading the word: a commit racing
        // in between then stamps a higher version and validation flags the
        // read (conservatively), never misses it.
        // With a reader identity, registration precedes the snapshot
        // (CommitLog's seqlock protocol), so a committer that misses the
        // registration is covered by the snapshot.
        let version = log.map_or(0, |l| self.register(l, word_addr));
        let value = mem.read_word(word_addr);
        // A word in the overflow area is buffered all the same.
        let (word, _spilled) = self.words.note_read(word_addr, value, version)?;
        Ok(word)
    }

    /// Speculatively store the low `size` bytes of `value` at `addr`:
    /// [`store_or`](Self::store_or) with [`first_store`](Self::first_store)
    /// as the miss.
    #[inline]
    pub fn store(&mut self, addr: Addr, value: u64, size: u64) -> Result<(), BufferError> {
        self.store_or(addr, value, size, Self::first_store)
    }

    /// A speculative store with the first store of a word left to the
    /// caller: one probe, and a word already written that sits in its home
    /// slot takes the bytes in place.  Otherwise `miss(self, word_addr,
    /// data, mask)` must buffer them — [`first_store`](Self::first_store),
    /// after whatever the caller has to decide before an address may
    /// *enter* the map (the counterpart of [`load_or`](Self::load_or)'s
    /// miss).
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
        let (word_addr, offset, mask) = Self::split(addr, size)?;
        let data = value << (offset * 8);
        if self.words.update(word_addr, data, mask) {
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
        self.words.note_write(word_addr, data, mask)?;
        Ok(())
    }

    /// Commit the thread's writes to main memory.
    ///
    /// Only bytes actually written are published; a fully written word is
    /// committed with a single word store (the paper's "-1 mark" fast
    /// path).
    pub fn commit(&mut self, mem: &dyn MainMemory) {
        for entry in self.words.iter().filter(|e| e.written() != 0) {
            mem.write_word_masked(entry.addr, entry.data, entry.mask());
        }
    }

    /// Discard all buffered state and reset the overflow flag
    /// (finalization after commit, or rollback).  The caller retires the
    /// registrations first ([`registered_ranges`](Self::registered_ranges)).
    pub fn clear(&mut self) {
        self.words.clear();
        self.precise_passes = 0;
        self.registered.clear();
        self.batch.clear();
    }

    /// The read snapshot of `word_addr` for a read entering the read set:
    /// with a reader identity, the registration first (the log's seqlock
    /// protocol), remembered when this call set it.
    fn register(&mut self, log: &CommitLog, word_addr: Addr) -> u64 {
        if self.reader == 0 {
            return log.snapshot(word_addr);
        }
        let (version, set) = log.register(word_addr, self.reader);
        if set {
            self.registered.push(word_addr);
        }
        version
    }

    /// One address in each range this buffer registered its reader rank
    /// on (see [`register_reader`](CommitLog::register_reader)): what the
    /// runtime retires when the buffer is returned.
    pub fn registered_ranges(&self) -> &[Addr] {
        &self.registered
    }

    /// The addresses the thread wrote, as a batch for
    /// [`CommitLog::publish`] (which sorts it and leaves it empty).
    pub fn write_batch(&mut self) -> &mut Vec<Addr> {
        self.batch.clear();
        let written = self.words.iter().filter(|e| e.written() != 0);
        self.batch.extend(written.map(|e| e.addr));
        &mut self.batch
    }

    /// The words the thread read, with their first reads and versions.
    pub fn read_entries(&self) -> impl Iterator<Item = WordEntry> + '_ {
        self.words.iter().filter(WordEntry::has_read)
    }

    /// The addresses the thread read.
    pub fn read_addresses(&self) -> impl Iterator<Item = Addr> + '_ {
        self.read_entries().map(|e| e.addr)
    }

    /// The word at `addr` as a logically later thread should see it: main
    /// memory with this thread's own bytes on top.
    pub fn overlay(&self, mem: &dyn MainMemory, addr: Addr) -> u64 {
        let under = mem.read_word(addr);
        self.words.entry(addr).map_or(under, |e| e.overlay(under))
    }

    /// Validate the reads against the shared [`CommitLog`]: the thread is
    /// valid iff **no** commit wrote any *range* covering an address it
    /// read after the read was taken (version comparison, not value
    /// comparison — so the ABA case where a predecessor writes back the
    /// same value is still flagged).  A word read and then overwritten
    /// keeps its read dependence.
    ///
    /// At grains coarser than a word the check is conservative: a commit
    /// to a *different* word of the same range also fails it (false
    /// sharing), but a genuine conflict is never missed.  With version
    /// rings
    /// ([`CommitLogConfig::ring_depth`](crate::commit_log::CommitLogConfig::ring_depth)
    /// `> 1`) a post-snapshot commit whose ring footprint provably missed
    /// the read *word* passes precisely
    /// ([`precise_passes`](Self::precise_passes)); ring overflow falls
    /// back to the single-version answer.  The join uses
    /// [`validate`](Self::validate), which also repairs what it can; this
    /// is the same probe without the repair.
    pub fn validate_against(&mut self, log: &CommitLog) -> bool {
        for entry in self.words.iter().filter(WordEntry::has_read) {
            match log.probe_written(entry.addr, entry.version()) {
                RingCheck::Clean => {}
                RingCheck::Precise => self.precise_passes += 1,
                RingCheck::Touched { .. } | RingCheck::Overflow => return false,
            }
        }
        true
    }

    /// The join's validation (paper §IV-F) and its repair, in one walk over
    /// the read set: each read is probed once against the [`CommitLog`],
    /// and main memory is read only for a read whose word a later commit
    /// touched (or may have touched).
    ///
    /// Per read, the version-ring probe decides:
    ///
    /// * [`RingCheck::Clean`] — no commit wrote the range since the read.
    /// * [`RingCheck::Precise`] — the post-snapshot commits provably
    ///   missed the word: counted in
    ///   [`precise_passes`](Self::precise_passes), no value check and no
    ///   restamp (it will keep probing precise).
    /// * [`RingCheck::Touched`] — the word's value decides: unchanged, the
    ///   read is restamped to the *newest ring version that touched the
    ///   word*, not the current epoch, so later unrelated commits to the
    ///   range stay precisely probeable (time travel, never less
    ///   conservative than a fresh snapshot because the target is older).
    /// * [`RingCheck::Overflow`] (and any touch at ring depth 1) — a fresh
    ///   snapshot sampled *before* the value read, so a commit racing the
    ///   walk stamps a higher version and a later pass flags the read
    ///   again.
    ///
    /// A touched word still at its first-read value means the commits
    /// published the very value the thread read (a value-identical ABA
    /// write) or only wrote neighbouring words of a coarse range: the
    /// execution is equivalent to one that read after them, and the walk
    /// returns [`Validation::Retried`] with every such read restamped.
    /// This repairs every range-only conflict by construction, so what it
    /// cannot repair — a changed value — is a [`Validation::Conflict`],
    /// and then nothing is restamped.  What the thread wrote over a word
    /// it read plays no part: the first read is what is compared.
    ///
    /// Reader registrations are left alone: a thread that survives a doom
    /// in flight restores them with
    /// [`restore_registrations`](Self::restore_registrations), and at the
    /// join they live on until the runtime retires them with the buffer.
    pub fn validate(&mut self, log: &CommitLog, mem: &dyn MainMemory) -> Validation {
        let mut refreshed: Vec<(Addr, u64)> = Vec::new();
        for entry in self.words.iter().filter(WordEntry::has_read) {
            let fresh = match log.probe_written(entry.addr, entry.version()) {
                RingCheck::Clean => continue,
                RingCheck::Precise => {
                    self.precise_passes += 1;
                    continue;
                }
                // Every ring-known touch of this word is at most
                // `newest_touch`; a racing commit lands above the version
                // the probe saw and re-flags the read later.
                RingCheck::Touched { newest_touch } => newest_touch,
                // Snapshot first, then the value read (the standard
                // ordering).
                RingCheck::Overflow => log.snapshot(entry.addr),
            };
            if mem.read_word(entry.addr) != entry.read {
                return Validation::Conflict;
            }
            refreshed.push((entry.addr, fresh));
        }
        if refreshed.is_empty() {
            return Validation::Valid;
        }
        for (addr, version) in refreshed {
            self.words.refresh_version(addr, version);
        }
        Validation::Retried
    }

    /// Register the **whole read set** again under this buffer's reader
    /// rank, one range at a time (an anonymous buffer registers nothing).
    /// A committer that doomed the thread consumed its registrations for
    /// every range it stamped — including ranges whose reads are clean
    /// (read after that commit) — and without them a *second* conflicting
    /// commit would miss the thread and leave the doom to its join.  Every
    /// range the read set covers has an entry in
    /// [`registered_ranges`](Self::registered_ranges), and
    /// `register_reader` leaves a registration that is still there alone;
    /// this is the cold doom-repair path of a thread that survived its
    /// doom in flight (a join never needs it).
    pub fn restore_registrations(&self, log: &CommitLog) {
        if self.reader != 0 {
            for &addr in &self.registered {
                log.register_reader(addr, self.reader);
            }
        }
    }

    /// Validate the reads against an arbitrary memory *view*.
    ///
    /// The view maps a word-aligned address to its current value; a
    /// speculative parent joining its own child uses "parent's bytes
    /// overlaid on main memory" ([`overlay`](Self::overlay)) as the view,
    /// the non-speculative thread uses main memory directly.
    pub fn validate_view<F: Fn(Addr) -> u64>(&self, view: F) -> bool {
        self.words
            .iter()
            .filter(WordEntry::has_read)
            .all(|entry| view(entry.addr) == entry.read)
    }

    /// Absorb a (validated) child buffer into this one: the child's writes
    /// become this thread's writes and the child's read dependences become
    /// this thread's read dependences, so they are re-validated when this
    /// thread itself is eventually joined.
    ///
    /// Each read taken is registered under this buffer's rank in `log`, as
    /// at a first touch (once per range); a word this thread fully wrote
    /// takes neither.  The child's own registrations are left to die with
    /// its buffer.
    ///
    /// Used when a *speculative* parent joins its own speculative child —
    /// nothing may reach main memory until the whole subtree is joined by
    /// the non-speculative thread.
    pub fn absorb(&mut self, child: &GlobalBuffer, log: &CommitLog) -> Result<(), BufferError> {
        for entry in child.words.iter() {
            // The read first, against what this thread wrote before the
            // child's bytes land on top: a word this thread has fully
            // written carries no read dependence for the subtree.  Else the
            // child's read is checked against commits made after the
            // *child* read it — and if both threads read the word, after
            // the older of the two reads.
            let own = self.words.get(entry.addr);
            if entry.has_read() && own.is_none_or(|own| own.written() != u8::MAX) {
                let read =
                    self.words
                        .insert_word_versioned(entry.addr, entry.read, entry.version());
                keep_spilled(read)?;
                // No snapshot: the entry keeps the (older) version it had.
                let _ = self.register(log, entry.addr);
            }
            if entry.written() != 0 {
                keep_spilled(self.words.merge(entry.addr, entry.data, entry.mask()))?;
            }
        }
        Ok(())
    }
}

/// A word in the overflow area is buffered all the same.
fn keep_spilled(inserted: Result<(), BufferError>) -> Result<(), BufferError> {
    match inserted {
        Err(BufferError::OverflowPending) => Ok(()),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit_log::{publish_sparing_all, CommitLog, CommitLogConfig, RING_BUCKET_LOG2};
    use crate::memory::GlobalMemory;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn setup() -> (GlobalMemory, GlobalBuffer) {
        let mem = GlobalMemory::new(4096);
        let buf = GlobalBuffer::new(BufferConfig::default());
        (mem, buf)
    }

    /// An unversioned load: no commit log.
    fn load(
        buf: &mut GlobalBuffer,
        mem: &GlobalMemory,
        addr: Addr,
        size: u64,
    ) -> Result<u64, BufferError> {
        buf.load_logged(mem, None, addr, size)
    }

    /// Word-granular log: adjacent words are distinct ranges, as the
    /// word-disjointness assertions below require.
    fn word_log() -> CommitLog {
        CommitLog::with_config(CommitLogConfig::word_grain(), 1 << 13)
    }

    #[test]
    fn store_then_load_returns_buffered_value_without_touching_memory() {
        let (mem, mut buf) = setup();
        let p = mem.alloc::<u64>(1);
        mem.set(&p, 0, 5);
        let a = p.addr_of(0);
        buf.store(a, 123, 8).unwrap();
        assert_eq!(load(&mut buf, &mem, a, 8).unwrap(), 123);
        // Main memory untouched until commit.
        assert_eq!(mem.get(&p, 0), 5);
        // A fully written word records no read → no false conflict.
        assert_eq!(buf.read_set_len(), 0);
        assert!(buf.read_addresses().next().is_none());
    }

    #[test]
    fn partial_store_overlays_memory_bytes() {
        let (mem, mut buf) = setup();
        let p = mem.alloc::<u64>(1);
        mem.set(&p, 0, 0x1111_2222_3333_4444);
        let a = p.addr_of(0);
        buf.store(a, 0xAAAA, 2).unwrap();
        assert!(buf.read_addresses().next().is_none());
        assert_eq!(load(&mut buf, &mem, a, 8).unwrap(), 0x1111_2222_3333_AAAA);
        assert_eq!(load(&mut buf, &mem, a + 4, 4).unwrap(), 0x1111_2222);
        assert!(
            buf.read_addresses().eq([a]),
            "the unwritten bytes came from memory"
        );
    }

    #[test]
    fn validate_view_detects_a_changed_read_and_ignores_a_write_only_word() {
        let (mem, mut buf) = setup();
        let p = mem.alloc::<u64>(2);
        mem.set(&p, 0, 10);
        let _ = load(&mut buf, &mem, p.addr_of(0), 8).unwrap();
        buf.store(p.addr_of(1), 3, 8).unwrap();
        // Write-after-write is not a conflict in this model.
        mem.set(&p, 1, 100);
        assert!(buf.validate_view(|a| mem.read_word(a)));
        // A logically earlier thread writes the address we read.
        mem.set(&p, 0, 11);
        assert!(!buf.validate_view(|a| mem.read_word(a)));
    }

    #[test]
    fn a_read_word_fully_overwritten_keeps_its_read_dependence() {
        let (mem, mut buf) = setup();
        let log = word_log();
        let p = mem.alloc::<u64>(1);
        let a = p.addr_of(0);
        mem.set(&p, 0, 5);
        assert_eq!(buf.load_logged(&mem, Some(&log), a, 8), Ok(5));
        buf.store(a, 9, 8).unwrap();
        assert_eq!(load(&mut buf, &mem, a, 8), Ok(9), "the own bytes win");
        assert!(buf.read_addresses().eq([a]) && buf.write_set_len() == 1);
        // A value-identical commit to the word flags it all the same…
        publish_sparing_all(&log, &[a]);
        assert!(!buf.validate_against(&log));
        // …and the retry compares the *first read*, 5, not the own 9.
        assert_eq!(buf.validate(&log, &mem), Validation::Retried);
        assert!(buf.validate_against(&log));
        mem.set(&p, 0, 6);
        publish_sparing_all(&log, &[a]);
        assert_eq!(buf.validate(&log, &mem), Validation::Conflict, "5 ≠ 6");
    }

    #[test]
    fn commit_publishes_only_written_bytes() {
        let (mem, mut buf) = setup();
        let p = mem.alloc::<u64>(3);
        mem.set(&p, 0, 0xFFFF_FFFF_FFFF_FFFF);
        buf.store(p.addr_of(0), 0xAB, 1).unwrap();
        buf.store(p.addr_of(1), 0x1234_5678_9ABC_DEF0, 8).unwrap();
        let _ = load(&mut buf, &mem, p.addr_of(2), 8);
        mem.set(&p, 2, 4);
        buf.commit(&mem);
        assert_eq!(mem.get(&p, 0), 0xFFFF_FFFF_FFFF_FFAB);
        assert_eq!(mem.get(&p, 1), 0x1234_5678_9ABC_DEF0);
        assert_eq!(mem.get(&p, 2), 4, "a word only read is not published");
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
    }

    #[test]
    fn overflow_is_reported_and_survivable() {
        let mem = GlobalMemory::new(1 << 14);
        let mut buf = GlobalBuffer::new(BufferConfig::tiny());
        let p = mem.alloc::<u64>(64);
        // 32 direct slots: indices 0..31 occupy every slot, 32 and 33 then
        // collide and must land in the overflow area without failing.
        for i in 0..34 {
            buf.store(p.addr_of(i), i as u64, 8).unwrap();
        }
        assert!(buf.overflow_pending());
        assert_eq!(buf.words.overflow_len(), 2);
        // The overflowed data is still readable and committable.
        assert_eq!(load(&mut buf, &mem, p.addr_of(32), 8).unwrap(), 32);
        buf.commit(&mem);
        assert_eq!(mem.get(&p, 33), 33);
    }

    /// The walk repairs a value-unchanged conflict at every grain — a
    /// neighbour write of a coarse range or a value-identical (ABA) write
    /// of the word itself — and whatever it cannot repair, a changed
    /// value, is a conflict, also when the commit only wrote a neighbour.
    #[test]
    fn the_walk_retries_every_unchanged_value_and_nothing_else() {
        for config in [CommitLogConfig::line_grain(), CommitLogConfig::word_grain()] {
            let mem = GlobalMemory::new(4096);
            let log = CommitLog::with_config(config, mem.size_bytes());
            let mut buf = GlobalBuffer::new(BufferConfig::default());
            let p = mem.alloc::<u64>(1);
            mem.set(&p, 0, 5);
            let _ = buf.load_logged(&mem, Some(&log), p.addr_of(0), 8).unwrap();
            // Value-identical commit to the very word that was read.
            publish_sparing_all(&log, &[p.addr_of(0)]);
            let verdict = buf.validate(&log, &mem);
            assert_eq!(verdict, Validation::Retried, "{config:?}");
            assert_eq!(buf.validate(&log, &mem), Validation::Valid, "restamped");
        }
        // Single-version: a ring would pass the neighbour write precisely.
        let mem = GlobalMemory::new(4096);
        let log = CommitLog::with_config(
            CommitLogConfig::line_grain().ring_depth(1),
            mem.size_bytes(),
        );
        let mut buf = GlobalBuffer::new(BufferConfig::default());
        let p = mem.alloc::<u64>(2);
        let _ = buf.load_logged(&mem, Some(&log), p.addr_of(0), 8).unwrap();
        mem.set(&p, 0, 9);
        publish_sparing_all(&log, &[p.addr_of(1)]); // same line, different word
        assert_eq!(
            buf.validate(&log, &mem),
            Validation::Conflict,
            "a changed value is a conflict even on a neighbour write"
        );
    }

    /// Main memory that counts its word reads.
    struct CountingMemory<'a> {
        mem: &'a GlobalMemory,
        reads: AtomicU32,
    }

    impl MainMemory for CountingMemory<'_> {
        fn read_word(&self, addr: Addr) -> u64 {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.mem.read_word(addr)
        }
        fn write_word(&self, addr: Addr, value: u64) {
            self.mem.write_word(addr, value);
        }
        fn size_bytes(&self) -> u64 {
            self.mem.size_bytes()
        }
    }

    /// One walk: a clean read and a precise one cost no memory read, a
    /// touched one costs one, and each precise read is counted once.
    #[test]
    fn the_walk_reads_memory_only_for_touched_words() {
        let mem = GlobalMemory::new(4096);
        let log = mvcc_line_log();
        let mut buf = GlobalBuffer::new(BufferConfig::default());
        let p = mem.alloc::<u64>(32); // four lines
        for i in [0, 8, 16] {
            let _ = buf.load_logged(&mem, Some(&log), p.addr_of(i), 8).unwrap();
        }
        publish_sparing_all(&log, &[p.addr_of(1)]); // word 0's neighbour: precise
        publish_sparing_all(&log, &[p.addr_of(8)]); // word 8, same value: touched
        let counting = CountingMemory {
            mem: &mem,
            reads: AtomicU32::new(0),
        };
        assert_eq!(buf.validate(&log, &counting), Validation::Retried);
        let reads = counting.reads.load(Ordering::Relaxed);
        assert_eq!(reads, 1, "only the touched word is read");
        assert_eq!(buf.precise_passes(), 1);
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
        publish_sparing_all(&log, &[p.addr_of(0)]);
        assert!(!buf.validate_against(&log));
        assert_eq!(buf.validate(&log, &mem), Validation::Retried);
        // The read was re-stamped: validation passes until a new commit.
        assert!(buf.validate_against(&log));
        publish_sparing_all(&log, &[p.addr_of(0)]);
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
        publish_sparing_all(&log, &[p.addr_of(0)]);
        assert_eq!(buf.validate(&log, &mem), Validation::Conflict);
        // Nothing was re-stamped: the conflict is still visible.
        assert!(!buf.validate_against(&log));
    }

    #[test]
    fn validate_against_flags_commits_after_the_read_only() {
        let (mem, mut buf) = setup();
        let log = word_log();
        let p = mem.alloc::<u64>(3);
        mem.set(&p, 0, 10);
        // Read AFTER a commit: the snapshot version covers it.
        publish_sparing_all(&log, &[p.addr_of(2)]);
        let _ = buf.load_logged(&mem, Some(&log), p.addr_of(2), 8).unwrap();
        let _ = buf.load_logged(&mem, Some(&log), p.addr_of(0), 8).unwrap();
        assert!(buf.validate_against(&log));
        // A disjoint commit does not conflict.
        publish_sparing_all(&log, &[p.addr_of(1)]);
        assert!(buf.validate_against(&log));
        // A commit covering the read address does — even when the value is
        // unchanged (the ABA case value comparison would miss).
        mem.set(&p, 0, 10);
        publish_sparing_all(&log, &[p.addr_of(0)]);
        assert!(!buf.validate_against(&log));
    }

    /// A record with both halves, absorbed into one with both halves: the
    /// older of the two reads' versions survives, and the child's bytes land
    /// on top of the parent's.
    #[test]
    fn absorb_of_both_halves_keeps_the_older_version_and_merges_the_bytes() {
        let (mem, mut parent) = setup();
        let mut child = GlobalBuffer::new(BufferConfig::default());
        let log = word_log();
        let p = mem.alloc::<u64>(1);
        let a = p.addr_of(0);
        mem.set(&p, 0, 0x1111_2222_3333_4444);
        // The child reads first, then a commit, then the parent reads.
        let _ = child.load_logged(&mem, Some(&log), a, 8).unwrap();
        child.store(a, 0xBB, 1).unwrap();
        publish_sparing_all(&log, &[a]);
        let _ = parent.load_logged(&mem, Some(&log), a, 8).unwrap();
        parent.store(a + 4, 0xAAAA_AAAA, 4).unwrap();
        assert!(parent.validate_against(&log), "the parent's read is fresh");
        parent.absorb(&child, &log).unwrap();
        let merged = parent.words.get(a).unwrap();
        assert_eq!(merged.data, 0xAAAA_AAAA_3333_44BB);
        assert_eq!(merged.written(), 0b1111_0001);
        assert!(
            !parent.validate_against(&log),
            "the child's older read survives"
        );
        assert_eq!((parent.read_set_len(), parent.write_set_len()), (1, 1));
    }

    /// An absorb registers the parent on each read it takes — a tracked and
    /// a spilled rank alike, in a far region too — and on no word the
    /// parent fully wrote; the child's registrations stay as they were.
    #[test]
    fn absorb_registers_the_parent_on_each_read_it_takes() {
        for parent_rank in [2, 99] {
            let mem = GlobalMemory::new((1 << 20) + 64);
            let log = CommitLog::with_config(CommitLogConfig::word_grain(), mem.size_bytes());
            let p = mem.alloc::<u64>((1 << 17) + 1);
            let (read, written, far) = (p.addr_of(0), p.addr_of(1), p.addr_of(1 << 17));
            let mut child = GlobalBuffer::for_reader(BufferConfig::default(), 4);
            for addr in [read, written, far] {
                let _ = child.load_logged(&mem, Some(&log), addr, 8).unwrap();
            }
            let mut parent = GlobalBuffer::for_reader(BufferConfig::default(), parent_rank);
            parent.store(written, 9, 8).unwrap();
            parent.absorb(&child, &log).unwrap();
            let mut taken: Vec<Addr> = parent.read_addresses().collect();
            taken.sort_unstable();
            assert_eq!(taken, [read, far], "the fully written word takes no read");
            for addr in [read, written, far] {
                let readers = log.registered_readers(addr);
                assert!(readers.contains(4), "the child's registration stays");
                let parent_registered = readers.contains(parent_rank);
                assert_eq!(parent_registered, addr != written, "{addr:#x}");
            }
        }
    }

    /// Line-granular mvcc log, depth-4 rings of 64-version buckets.
    fn mvcc_line_log() -> CommitLog {
        // The window covers the whole test arena.
        CommitLog::with_config(CommitLogConfig::line_grain().ring_depth(4), 4096)
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
        publish_sparing_all(&log, &[p.addr_of(1)]);
        assert!(log.written_after(p.addr_of(0), 0), "range version moved");
        assert!(buf.validate_against(&log));
        assert_eq!(buf.precise_passes(), 1);
        // Depth-1 (single-version) would have doomed the same snapshot.
        let single = CommitLog::with_config(CommitLogConfig::line_grain().ring_depth(1), 4096);
        let mut single_buf = GlobalBuffer::new(BufferConfig::default());
        let _ = single_buf
            .load_logged(&mem, Some(&single), p.addr_of(0), 8)
            .unwrap();
        publish_sparing_all(&single, &[p.addr_of(1)]);
        assert!(!single_buf.validate_against(&single));
        // A commit that does touch the read word still dooms precisely.
        publish_sparing_all(&log, &[p.addr_of(0)]);
        assert!(!buf.validate_against(&log));
        buf.clear();
        assert_eq!(buf.precise_passes(), 0, "a clear resets the count");
    }

    #[test]
    fn time_travel_retry_restamps_to_the_observed_touch_version() {
        let mem = GlobalMemory::new(4096);
        let log = mvcc_line_log();
        let mut buf = GlobalBuffer::new(BufferConfig::default());
        let p = mem.alloc::<u64>(2);
        // A word of another line, whose commits only move the epoch.
        let pad = mem.alloc::<u64>(16).addr_of(15);
        mem.set(&p, 0, 5);
        let _ = buf.load_logged(&mem, Some(&log), p.addr_of(0), 8).unwrap();
        // v1: value-identical (ABA) commit to the read word — flagged by
        // the ring, survived by the value check, restamped to v1 (the
        // version actually observed, not the then-current epoch).
        mem.set(&p, 0, 5);
        publish_sparing_all(&log, &[p.addr_of(0)]);
        assert!(!buf.validate_against(&log));
        assert_eq!(buf.validate(&log, &mem), Validation::Retried);
        // v2, in a bucket (and a footprint) of its own: a neighbour-word
        // commit after the restamp. Time travel put the read at v1, and
        // the ring shows v2 missed the word — validation passes precisely
        // instead of re-dooming.
        while !(log.epoch() + 1).is_multiple_of(1 << RING_BUCKET_LOG2) {
            publish_sparing_all(&log, &[pad]);
        }
        publish_sparing_all(&log, &[p.addr_of(1)]);
        assert!(buf.validate_against(&log));
        // v3: touching the read word again still dooms.
        publish_sparing_all(&log, &[p.addr_of(0)]);
        assert!(!buf.validate_against(&log), "retry is not a free pass");
    }

    #[test]
    fn a_restore_re_registers_the_whole_read_set() {
        let mem = GlobalMemory::new(4096);
        let log = mvcc_line_log();
        let mut buf = GlobalBuffer::for_reader(BufferConfig::default(), 5);
        let p = mem.alloc::<u64>(64); // two distinct lines
        mem.set(&p, 0, 7);
        let _ = buf.load_logged(&mem, Some(&log), p.addr_of(0), 8).unwrap();
        let far = p.addr_of(63);
        let _ = buf.load_logged(&mem, Some(&log), far, 8).unwrap();
        // A committing writer stores the value the thread read into the
        // near range, dooms the thread and consumes its registration there.
        mem.set(&p, 0, 7);
        let (_, taken) = log.publish(&mut vec![p.addr_of(0)], false, |_| false);
        assert!(taken.contains(5));
        // The far range loses its registration without a stamp (a later
        // registration and snapshot, then a take), so its read stays clean.
        log.unregister_reader([far], 5);
        assert!(!log.registered_readers(p.addr_of(0)).contains(5));
        assert!(!log.registered_readers(far).contains(5));
        // The walk leaves the registry alone; the restore repairs it for
        // the entire read set — including the far range, whose read is
        // clean.
        assert_eq!(buf.validate(&log, &mem), Validation::Retried);
        assert!(!log.registered_readers(p.addr_of(0)).contains(5));
        buf.restore_registrations(&log);
        assert!(log.registered_readers(p.addr_of(0)).contains(5));
        assert!(log.registered_readers(far).contains(5));
    }

    #[test]
    fn ring_overflow_falls_back_to_fresh_snapshot_retry() {
        let mem = GlobalMemory::new(4096);
        // Depth 2: two whole buckets of commits evict the snapshot's
        // window and force the conservative path.
        let log = CommitLog::with_config(CommitLogConfig::line_grain().ring_depth(2), 4096);
        let mut buf = GlobalBuffer::new(BufferConfig::default());
        let p = mem.alloc::<u64>(2);
        mem.set(&p, 0, 5);
        let _ = buf.load_logged(&mem, Some(&log), p.addr_of(0), 8).unwrap();
        // Neighbour-only commits: individually precise-passable, but the
        // window has rolled past the snapshot.
        for _ in 0..2 << RING_BUCKET_LOG2 {
            publish_sparing_all(&log, &[p.addr_of(1)]);
        }
        assert!(!buf.validate_against(&log), "overflow dooms conservatively");
        assert!(log.stats().ring_overflows > 0);
        // The value is untouched, so the fresh-snapshot retry still
        // rescues the thread.
        assert_eq!(buf.validate(&log, &mem), Validation::Retried);
        assert!(buf.validate_against(&log));
    }

    #[test]
    fn read_and_write_address_iterators() {
        let (mem, mut buf) = setup();
        let p = mem.alloc::<u64>(4);
        let _ = load(&mut buf, &mem, p.addr_of(1), 8).unwrap();
        buf.store(p.addr_of(2), 9, 8).unwrap();
        let reads: Vec<_> = buf.read_addresses().collect();
        assert_eq!(reads, vec![p.addr_of(1)]);
        assert_eq!(*buf.write_batch(), vec![p.addr_of(2)]);
    }
}
