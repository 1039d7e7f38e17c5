//! The static-memory, word-granular hash map of MUTLS (paper §IV-G2).
//!
//! The paper avoids dynamically growing hash maps (whose rehashing cost
//! would land on the speculative fast path) with statically sized parallel
//! arrays (`buffer`, `addresses`, a per-byte `mark`) plus the `offsets`
//! stack of used slots.  This map keeps the static sizing and the stack but
//! stores a word as **one 32-byte record per slot** ([`WordEntry`]; address
//! 0 = empty): a probe reads the address and a hit reads the rest, so
//! parallel arrays cost one cache line per array on every access, records
//! one line in all — and validate, commit and clear walk a single array.
//!
//! * `slots` — the records, allocated zeroed, so slots never touched stay
//!   non-resident however large the configured capacity;
//! * `used` — the stack of used slot indices (the paper's `offsets`): join
//!   work stays proportional to the data touched, not to the capacity;
//! * a small *temporary overflow buffer* for an address whose home slot
//!   holds a different one: once used, the thread should stop at its next
//!   check point and wait to be joined; once full, the thread rolls back.
//!   Entries only enter it on such a conflict and slots are only emptied
//!   by [`WordMap::clear`], which empties it too — so an address whose
//!   home slot is *empty* is in neither, and only a conflict scans it.

use crate::error::BufferError;
use crate::memory::{Addr, WORD_BYTES};
use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};

/// One buffered word: its address, data, per-byte write mask and the
/// commit-log version observed when the word was first buffered.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WordEntry {
    /// Word-aligned byte address in the global address space.
    pub addr: Addr,
    /// Buffered data for the whole word.
    pub data: u64,
    /// Byte mask: every byte equal to `0xFF` marks a byte actually written
    /// (for the write-set) or read (for the read-set).
    pub mask: u64,
    /// Commit-log snapshot sampled when the entry was first inserted (0
    /// when the access was not versioned): the epoch of the log *shard*
    /// owning the address's range (`CommitLog::snapshot`).  For read-set
    /// entries this is the version join-time dependence validation
    /// compares against the range's current stamp in the
    /// [`CommitLog`](crate::CommitLog).  Versions of the same word are
    /// always same-shard and therefore comparable — which is what lets
    /// [`weaken_version`](WordMap::weaken_version) keep the oldest
    /// snapshot when read sets merge.
    pub version: u64,
}

/// Statically sized word-granular hash map with linear overflow area.
#[derive(Debug)]
pub struct WordMap {
    /// Direct-mapped slot records (a power of two of them).
    slots: Box<[WordEntry]>,
    /// Stack of used slot indices ("offsets" in the paper).
    used: Vec<u32>,
    overflow: Vec<WordEntry>,
    overflow_capacity: usize,
    /// True once the overflow area has been used at least once since the
    /// last clear; the runtime uses this to stall the thread at its next
    /// check point.
    overflow_pending: bool,
}

/// `len` all-zero `T`s straight from the allocator's zeroed pages: a table
/// that is mostly never touched faults in only the pages that are, where
/// writing the zeros would fault in every one.
///
/// # Safety
/// All-zero bytes must be a valid `T`.
pub(crate) unsafe fn zeroed_boxed<T>(len: usize) -> Box<[T]> {
    let layout = Layout::array::<T>(len).expect("table fits in memory");
    if layout.size() == 0 {
        return Box::new([]);
    }
    // SAFETY: the layout is not zero-sized (checked above); all-zero bytes
    // are a valid `T` (the caller's promise); and a `Box<[T]>` of this
    // length frees under this very layout.
    unsafe {
        let ptr = alloc_zeroed(layout).cast::<T>();
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, len))
    }
}

impl WordMap {
    /// Create a map with `capacity_words` direct-mapped slots (rounded up
    /// to the next power of two) and `overflow_capacity` overflow entries.
    pub fn new(capacity_words: usize, overflow_capacity: usize) -> Self {
        let capacity = capacity_words.max(8).next_power_of_two();
        WordMap {
            // SAFETY: a `WordEntry` is four `u64`s, all zero in the empty slot.
            slots: unsafe { zeroed_boxed(capacity) },
            used: Vec::with_capacity(capacity.min(1024)),
            overflow: Vec::with_capacity(overflow_capacity.min(64)),
            overflow_capacity,
            overflow_pending: false,
        }
    }

    /// Number of direct-mapped slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of distinct words currently buffered (direct + overflow).
    pub fn len(&self) -> usize {
        self.used.len() + self.overflow.len()
    }

    /// True when no word is buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.used.is_empty() && self.overflow.is_empty()
    }

    /// True once a hash conflict has pushed an entry into the overflow
    /// area since the last [`clear`](Self::clear).
    pub fn overflow_pending(&self) -> bool {
        self.overflow_pending
    }

    /// Number of entries currently sitting in the overflow area.
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// `addr`'s home slot.  It always exists, the capacity being a power
    /// of two; the inlined accessors nevertheless read it through
    /// `get`/`get_mut`, which folds the bounds check into their miss
    /// instead of giving every probe site a panic path.
    #[inline]
    fn home(&self, addr: Addr) -> usize {
        (addr / WORD_BYTES) as usize & self.slots.len().wrapping_sub(1)
    }

    /// `addr`'s home slot and the address occupying it (0 = none): the
    /// address itself on a hit, a different one on a hash conflict.
    fn probe(&self, addr: Addr) -> (usize, Addr) {
        let slot = self.home(addr);
        (slot, self.slots[slot].addr)
    }

    /// Look up the buffered word for `addr` (word aligned).  An empty home
    /// slot is a definite miss (see the module docs).
    #[inline]
    pub fn get(&self, addr: Addr) -> Option<WordEntry> {
        self.entry(addr).copied()
    }

    /// [`get`](Self::get) without the copy — what the buffer's inlined
    /// load probes with: a hit is a pointer, a miss is null, and the scan
    /// of the overflow area behind a conflicting home slot is a call.
    #[inline]
    pub(crate) fn entry(&self, addr: Addr) -> Option<&WordEntry> {
        debug_assert_eq!(addr % WORD_BYTES, 0);
        let home = self.slots.get(self.home(addr))?;
        match home.addr {
            0 => None,
            occupant if occupant == addr => Some(home),
            _ => self.overflowed(addr),
        }
    }

    /// The hash-conflict arm of [`entry`](Self::entry).
    #[cold]
    fn overflowed(&self, addr: Addr) -> Option<&WordEntry> {
        self.overflow.iter().find(|e| e.addr == addr)
    }

    /// [`get`](Self::get), for updating the entry in place.
    fn entry_mut(&mut self, addr: Addr) -> Option<&mut WordEntry> {
        match self.probe(addr) {
            (_, 0) => None,
            (slot, occupant) if occupant == addr => Some(&mut self.slots[slot]),
            _ => self.overflow.iter_mut().find(|e| e.addr == addr),
        }
    }

    /// Merge `value` under byte-mask `mask` into the word buffered for
    /// `addr`, inserting the word if it is not present.
    ///
    /// Returns [`BufferError::OverflowPending`] when the insert had to use
    /// the overflow area (the data *is* recorded) and
    /// [`BufferError::OverflowFull`] when it could not be recorded at all.
    #[inline]
    pub fn merge(&mut self, addr: Addr, value: u64, mask: u64) -> Result<(), BufferError> {
        self.merge_versioned(addr, value, mask, 0)
    }

    /// Like [`merge`](Self::merge), stamping a freshly inserted word with
    /// `version` (the owning commit-log shard's epoch observed at access
    /// time).  Updating an existing entry keeps the *original* version:
    /// for the read-set, the first read's snapshot is the one dependence
    /// validation must check.
    #[inline]
    pub fn merge_versioned(
        &mut self,
        addr: Addr,
        value: u64,
        mask: u64,
        version: u64,
    ) -> Result<(), BufferError> {
        if self.update(addr, value, mask) {
            return Ok(());
        }
        self.insert(WordEntry {
            addr,
            data: value & mask,
            mask,
            version,
        })
    }

    /// The hit of a merge: `addr` sits in its home slot and takes `value`
    /// under `mask` in place.  `false` — nothing done — when the word is
    /// not there: not buffered yet, or buffered in the overflow area;
    /// [`insert`](Self::insert) handles both.
    #[inline]
    pub(crate) fn update(&mut self, addr: Addr, value: u64, mask: u64) -> bool {
        debug_assert_eq!(addr % WORD_BYTES, 0, "unaligned word address {addr:#x}");
        let slot = self.home(addr);
        match self.slots.get_mut(slot) {
            // (Address 0 is the empty slot's, never a buffered word's.)
            Some(entry) if entry.addr == addr && addr != 0 => {
                entry.data = (entry.data & !mask) | (value & mask);
                entry.mask |= mask;
                true
            }
            _ => false,
        }
    }

    /// What [`update`](Self::update) left undone, out of line: fill the
    /// word's empty home slot, or merge it into the overflow area.
    fn insert(&mut self, new: WordEntry) -> Result<(), BufferError> {
        match self.probe(new.addr) {
            (slot, 0) => {
                self.slots[slot] = new;
                self.used.push(slot as u32);
                Ok(())
            }
            _ => self.merge_overflow(new),
        }
    }

    /// The hash-conflict arm of [`insert`](Self::insert).
    #[cold]
    fn merge_overflow(&mut self, new: WordEntry) -> Result<(), BufferError> {
        if let Some(e) = self.overflow.iter_mut().find(|e| e.addr == new.addr) {
            e.data = (e.data & !new.mask) | new.data;
            e.mask |= new.mask;
        } else if self.overflow.len() >= self.overflow_capacity {
            return Err(BufferError::OverflowFull);
        } else {
            self.overflow.push(new);
        }
        self.overflow_pending = true;
        Err(BufferError::OverflowPending)
    }

    /// Insert a whole word (mask = all bytes).  Convenience for the
    /// read-set, which always records complete words.
    pub fn insert_word(&mut self, addr: Addr, value: u64) -> Result<(), BufferError> {
        self.merge(addr, value, u64::MAX)
    }

    /// Insert a whole word stamped with a commit-log version.
    pub fn insert_word_versioned(
        &mut self,
        addr: Addr,
        value: u64,
        version: u64,
    ) -> Result<(), BufferError> {
        self.merge_versioned(addr, value, u64::MAX, version)
    }

    /// Lower the stored version of `addr` to `version` if the entry exists
    /// and currently carries a newer stamp.  Used when two threads' read
    /// sets are merged: the *oldest* snapshot is the one every later
    /// commit must be checked against.
    pub fn weaken_version(&mut self, addr: Addr, version: u64) {
        if let Some(e) = self.entry_mut(addr) {
            e.version = e.version.min(version);
        }
    }

    /// Raise the stored version of `addr` to `version` if the entry
    /// exists and currently carries an older stamp.  Used by the
    /// value-predict retry path: a read whose conflicting range was
    /// re-validated by value is re-stamped with the snapshot observed at
    /// re-validation time, so only commits *after* the retry can flag it
    /// again.  (The dual of [`weaken_version`](Self::weaken_version).)
    pub fn refresh_version(&mut self, addr: Addr, version: u64) {
        if let Some(e) = self.entry_mut(addr) {
            e.version = e.version.max(version);
        }
    }

    /// Iterate over every buffered word (direct-mapped entries in
    /// insertion order, then overflow entries).
    pub fn iter(&self) -> impl Iterator<Item = WordEntry> + '_ {
        self.used
            .iter()
            .map(move |&slot| self.slots[slot as usize])
            .chain(self.overflow.iter().copied())
    }

    /// Remove every entry, touching only the slots that were used
    /// (finalization cost is proportional to the data accessed).
    pub fn clear(&mut self) {
        for &slot in &self.used {
            self.slots[slot as usize] = WordEntry::default();
        }
        self.used.clear();
        self.overflow.clear();
        self.overflow_pending = false;
    }
}

/// Build a byte mask covering `size` bytes starting at byte offset
/// `offset_in_word` of a word, e.g. `byte_mask(2, 4) == 0x0000_FFFF_FFFF_0000`
/// on a little-endian layout.
///
/// `size` must be 1, 2, 4 or 8 and the access must not straddle the word.
#[inline]
pub fn byte_mask(offset_in_word: u64, size: u64) -> Result<u64, BufferError> {
    if !matches!(size, 1 | 2 | 4 | 8) {
        return Err(BufferError::UnsupportedSize);
    }
    if !offset_in_word.is_multiple_of(size) || offset_in_word + size > WORD_BYTES {
        return Err(BufferError::Misaligned);
    }
    let base: u64 = if size == 8 {
        u64::MAX
    } else {
        (1u64 << (size * 8)) - 1
    };
    Ok(base << (offset_in_word * 8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get_roundtrip() {
        let mut m = WordMap::new(64, 8);
        assert!(m.is_empty());
        m.insert_word(0x100, 42).unwrap();
        m.insert_word(0x108, 7).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(0x100).unwrap().data, 42);
        assert_eq!(m.get(0x108).unwrap().data, 7);
        assert!(m.get(0x110).is_none());
    }

    #[test]
    fn merge_partial_bytes_accumulates_mask() {
        let mut m = WordMap::new(16, 4);
        let lo = byte_mask(0, 4).unwrap();
        let hi = byte_mask(4, 4).unwrap();
        m.merge(0x200, 0x0000_0000_1111_2222, lo).unwrap();
        m.merge(0x200, 0x3333_4444_0000_0000, hi).unwrap();
        let e = m.get(0x200).unwrap();
        assert_eq!(e.data, 0x3333_4444_1111_2222);
        assert_eq!(e.mask, u64::MAX);
    }

    #[test]
    fn hash_conflict_goes_to_overflow() {
        let mut m = WordMap::new(8, 2);
        // capacity rounds to 8 slots; addresses 8 words apart collide.
        let a = 0x80;
        let b = a + 8 * WORD_BYTES;
        m.insert_word(a, 1).unwrap();
        let err = m.insert_word(b, 2).unwrap_err();
        assert_eq!(err, BufferError::OverflowPending);
        assert!(m.overflow_pending());
        assert_eq!(m.get(b).unwrap().data, 2);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn overflow_exhaustion_reports_full() {
        let mut m = WordMap::new(8, 1);
        let a = 0x80;
        m.insert_word(a, 1).unwrap();
        assert_eq!(
            m.insert_word(a + 8 * WORD_BYTES, 2).unwrap_err(),
            BufferError::OverflowPending
        );
        assert_eq!(
            m.insert_word(a + 16 * WORD_BYTES, 3).unwrap_err(),
            BufferError::OverflowFull
        );
    }

    #[test]
    fn overflow_entry_can_be_updated_in_place() {
        let mut m = WordMap::new(8, 2);
        let a = 0x80;
        let b = a + 8 * WORD_BYTES;
        m.insert_word(a, 1).unwrap();
        assert_eq!(
            m.insert_word(b, 2).unwrap_err(),
            BufferError::OverflowPending
        );
        assert_eq!(
            m.insert_word(b, 9).unwrap_err(),
            BufferError::OverflowPending
        );
        assert_eq!(m.get(b).unwrap().data, 9);
        assert_eq!(m.overflow_len(), 1);
    }

    #[test]
    fn overflow_entries_keep_an_occupied_home_slot() {
        assert_eq!(std::mem::size_of::<WordEntry>(), 32, "one slot, one record");
        let mut m = WordMap::new(8, 4);
        for shift in [0, 3] {
            // Two addresses in each of four slots; the other four stay empty.
            for i in 0..8u64 {
                let _ = m.insert_word(0x80 + ((i % 4 + shift) % 8 + i / 4 * 8) * WORD_BYTES, i);
            }
            assert_eq!(m.overflow_len(), 4);
            for e in &m.overflow {
                let (_, occupant) = m.probe(e.addr);
                assert!(occupant != 0 && occupant != e.addr, "{e:?}");
            }
            // …which is why an empty home slot is a miss without a scan.
            assert!(m.get(0x80 + (4 + shift) % 8 * WORD_BYTES).is_none());
            m.clear();
            assert_eq!(m.overflow_len(), 0, "clear empties both together");
        }
    }

    #[test]
    fn clear_resets_everything() {
        let mut m = WordMap::new(8, 2);
        m.insert_word(0x80, 1).unwrap();
        let _ = m.insert_word(0x80 + 8 * WORD_BYTES, 2);
        m.clear();
        assert!(m.is_empty());
        assert!(!m.overflow_pending());
        assert!(m.get(0x80).is_none());
        // slot is reusable afterwards
        m.insert_word(0x80, 5).unwrap();
        assert_eq!(m.get(0x80).unwrap().data, 5);
    }

    #[test]
    fn iter_visits_direct_then_overflow() {
        let mut m = WordMap::new(8, 2);
        let a = 0x80;
        let b = a + 8 * WORD_BYTES;
        m.insert_word(a, 1).unwrap();
        let _ = m.insert_word(b, 2);
        let collected: Vec<_> = m.iter().collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[0].addr, a);
        assert_eq!(collected[1].addr, b);
    }

    #[test]
    fn byte_mask_validation() {
        assert_eq!(byte_mask(0, 8).unwrap(), u64::MAX);
        assert_eq!(byte_mask(0, 1).unwrap(), 0xFF);
        assert_eq!(byte_mask(6, 2).unwrap(), 0xFFFF_0000_0000_0000);
        assert_eq!(byte_mask(3, 2).unwrap_err(), BufferError::Misaligned);
        assert_eq!(byte_mask(0, 3).unwrap_err(), BufferError::UnsupportedSize);
        assert_eq!(byte_mask(6, 4).unwrap_err(), BufferError::Misaligned);
    }

    #[test]
    fn first_insertion_version_is_sticky() {
        let mut m = WordMap::new(8, 2);
        m.insert_word_versioned(0x100, 1, 7).unwrap();
        // Later merges to the same word keep the first snapshot version.
        m.merge_versioned(0x100, 2, u64::MAX, 9).unwrap();
        assert_eq!(m.get(0x100).unwrap().version, 7);
        assert_eq!(m.get(0x100).unwrap().data, 2);
        // Unversioned inserts stamp 0.
        m.insert_word(0x108, 3).unwrap();
        assert_eq!(m.get(0x108).unwrap().version, 0);
        // Overflow entries carry versions too.
        let conflicting = 0x100 + 8 * WORD_BYTES;
        let _ = m.insert_word_versioned(conflicting, 4, 11);
        assert_eq!(m.get(conflicting).unwrap().version, 11);
    }

    #[test]
    fn weaken_version_keeps_the_oldest_snapshot() {
        let mut m = WordMap::new(8, 2);
        m.insert_word_versioned(0x100, 1, 9).unwrap();
        m.weaken_version(0x100, 4);
        assert_eq!(m.get(0x100).unwrap().version, 4);
        // Weakening never raises a version.
        m.weaken_version(0x100, 7);
        assert_eq!(m.get(0x100).unwrap().version, 4);
        // Missing entries are a no-op; overflow entries are reachable.
        m.weaken_version(0x900, 1);
        let conflicting = 0x100 + 8 * WORD_BYTES;
        let _ = m.insert_word_versioned(conflicting, 2, 9);
        m.weaken_version(conflicting, 3);
        assert_eq!(m.get(conflicting).unwrap().version, 3);
    }

    #[test]
    fn refresh_version_only_raises() {
        let mut m = WordMap::new(8, 2);
        m.insert_word_versioned(0x100, 1, 4).unwrap();
        m.refresh_version(0x100, 9);
        assert_eq!(m.get(0x100).unwrap().version, 9);
        // Refreshing never lowers a version.
        m.refresh_version(0x100, 2);
        assert_eq!(m.get(0x100).unwrap().version, 9);
        // Missing entries are a no-op; overflow entries are reachable.
        m.refresh_version(0x900, 11);
        let conflicting = 0x100 + 8 * WORD_BYTES;
        let _ = m.insert_word_versioned(conflicting, 2, 3);
        m.refresh_version(conflicting, 6);
        assert_eq!(m.get(conflicting).unwrap().version, 6);
    }

    /// Characterization, not a wish: the home slot is the low bits of the
    /// word index, so two arrays a multiple of the capacity apart share
    /// their home slots element for element, and a loop that touches
    /// `a[i]` and `b[i]` fills the overflow area long before the map —
    /// 2 × 1 025 words into 2^16 slots.  This, not the size of its write
    /// set, is what rolls back every speculative child of the 2^18-point
    /// fft (`re`/`im` arrays 2^18 words apart; ROADMAP item 1(b)).
    #[test]
    fn arrays_a_multiple_of_the_map_apart_alias_slot_for_slot() {
        let config = crate::BufferConfig::default();
        let mut m = WordMap::new(config.write_capacity_words, config.overflow_capacity);
        assert_eq!((m.capacity(), config.overflow_capacity), (1 << 16, 1 << 10));
        let a: Addr = 0x1000;
        let b = a + (1 << 18) * WORD_BYTES;
        for i in 0..(1u64 << 12) {
            assert_eq!(m.insert_word(a + i * WORD_BYTES, i), Ok(()));
            let conflicting = m.insert_word(b + i * WORD_BYTES, i);
            if i < 1 << 10 {
                assert_eq!(conflicting, Err(BufferError::OverflowPending), "i = {i}");
            } else {
                assert_eq!(i, 1 << 10, "the 1 025th conflicting insert");
                assert_eq!(conflicting, Err(BufferError::OverflowFull));
                break;
            }
        }
        assert_eq!((m.len(), m.overflow_len()), (2 * 1024 + 1, 1024));
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let m = WordMap::new(100, 4);
        assert_eq!(m.capacity(), 128);
        let m2 = WordMap::new(1, 4);
        assert_eq!(m2.capacity(), 8);
    }
}
