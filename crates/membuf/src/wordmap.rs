//! The static-memory, word-granular hash map of MUTLS (paper §IV-G2): a
//! speculative thread buffers every word it reads or writes in one.
//!
//! The paper avoids dynamically growing hash maps (whose rehashing cost
//! would land on the speculative fast path) with statically sized parallel
//! arrays (`buffer`, `addresses`, a per-byte `mark`) plus the `offsets`
//! stack of used slots, one set for the reads and one for the writes.  This
//! map keeps the static sizing and the stack but stores a word as **one
//! 32-byte record per slot** ([`WordEntry`]; address 0 = empty) holding
//! both halves: the first-read value and its commit-log version, and the
//! thread's own bytes with the mask of which bytes they are.  A load or a
//! store probes one slot, one cache line, and validate, commit and clear
//! walk one array.
//!
//! * `slots` — the records, in zeroed pages (`zeroed.rs`), so slots never
//!   touched stay non-resident however large the configured capacity;
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
use crate::zeroed::{Zeroable, Zeroed};

/// The read bit of [`WordEntry`]'s packed word; the written-byte mask sits
/// below it, one bit per byte.
const READ: u64 = 1 << 8;
/// Every byte written.
const FULL: u64 = 0xFF;
/// Where the version starts in the packed word.
const VERSION_SHIFT: u32 = 9;

/// One buffered word: what the thread read of it and what it wrote.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WordEntry {
    /// Word-aligned byte address in the global address space.
    pub addr: Addr,
    /// The word as the thread first read it from shared state; meaningful
    /// only when [`has_read`](Self::has_read).  What validation by value
    /// compares, whatever the thread wrote over it since.
    pub read: u64,
    /// The word as the thread sees it: its own bytes
    /// ([`mask`](Self::mask)) over the first read.
    pub data: u64,
    /// The first read's commit-log version above [`VERSION_SHIFT`], the
    /// read bit, and the written-byte mask.
    meta: u64,
}

// SAFETY: four `u64`s, all zero in the empty slot.
unsafe impl Zeroable for WordEntry {}

impl WordEntry {
    /// Commit-log snapshot sampled at the word's first read (0 when the read
    /// was not versioned): the log's epoch (`CommitLog::snapshot`), which
    /// join-time dependence validation compares against the range's current
    /// stamp.  One epoch versions every commit, so any two versions are
    /// comparable — which is what lets a word keep the oldest snapshot when
    /// two threads' reads merge.
    pub fn version(&self) -> u64 {
        self.meta >> VERSION_SHIFT
    }

    /// Whether the thread read the word from shared state: a read
    /// dependence for validation to check.
    pub fn has_read(&self) -> bool {
        self.meta & READ != 0
    }

    /// The bytes the thread wrote, one bit per byte.
    pub(crate) fn written(&self) -> u8 {
        self.meta as u8
    }

    /// The bytes the thread wrote, as a mask of `0xFF` bytes.
    pub fn mask(&self) -> u64 {
        let spread = u64::from(self.written()).wrapping_mul(0x0101_0101_0101_0101);
        // Byte i keeps bit i of the written bits; a set one becomes 0xFF.
        let bits = spread & 0x8040_2010_0804_0201;
        let high = bits.wrapping_add(0x7F7F_7F7F_7F7F_7F7F) & 0x8080_8080_8080_8080;
        (high >> 7).wrapping_mul(0xFF)
    }

    /// Whether the thread knows every byte of the word — it read it or
    /// wrote all of it — so a load is served from [`data`](Self::data).
    #[inline]
    pub(crate) fn complete(&self) -> bool {
        self.meta & (READ | FULL) >= FULL
    }

    /// Versions past what the packed word holds are kept as its largest,
    /// which only ever flags more commits.
    fn set_version(&mut self, version: u64) {
        let version = version.min(u64::MAX >> VERSION_SHIFT);
        self.meta = (self.meta & (READ | FULL)) | (version << VERSION_SHIFT);
    }

    /// `under` with the thread's own bytes on top.
    pub(crate) fn overlay(&self, under: u64) -> u64 {
        let mask = self.mask();
        (under & !mask) | (self.data & mask)
    }

    /// Take a read of `value` stamped `version`: the first read's value is
    /// kept, with the thread's own bytes on top, and so is the *older*
    /// version — the snapshot every later commit must be checked against,
    /// also when two threads' reads merge.
    fn note_read(&mut self, value: u64, version: u64) {
        if self.has_read() {
            self.set_version(self.version().min(version));
            return;
        }
        self.read = value;
        self.data = self.overlay(value);
        self.meta |= READ;
        self.set_version(version);
    }

    /// Take the bytes `mask` selects of `data` as the thread's own.
    #[inline]
    fn note_write(&mut self, data: u64, mask: u64) {
        self.data = (self.data & !mask) | (data & mask);
        // One bit per byte: bit 8i of the mask moves to bit i.
        let bits = (mask & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        self.meta |= bits;
    }
}

/// Where a record sits.
#[derive(Clone, Copy)]
enum Place {
    Home(usize),
    Spilled(usize),
}

/// Statically sized word-granular hash map with linear overflow area.
#[derive(Debug)]
pub struct WordMap {
    /// Direct-mapped slot records (a power of two of them).
    slots: Zeroed<WordEntry>,
    /// Stack of used slot indices ("offsets" in the paper).
    used: Vec<u32>,
    overflow: Vec<WordEntry>,
    overflow_capacity: usize,
    /// True once the overflow area has been used at least once since the
    /// last clear.  Nothing stalls on it: the runtime reads it only to
    /// check that a recycled buffer comes back clean.
    overflow_pending: bool,
    /// Records with a read, and records with a written byte.
    reads: usize,
    writes: usize,
}

impl WordMap {
    /// Create a map with `capacity_words` direct-mapped slots (rounded up
    /// to the next power of two) and `overflow_capacity` overflow entries.
    pub fn new(capacity_words: usize, overflow_capacity: usize) -> Self {
        let capacity = capacity_words.max(8).next_power_of_two();
        WordMap {
            slots: Zeroed::new(capacity),
            used: Vec::with_capacity(capacity.min(1024)),
            overflow: Vec::with_capacity(overflow_capacity.min(64)),
            overflow_capacity,
            overflow_pending: false,
            reads: 0,
            writes: 0,
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

    /// Number of buffered words the thread read (its read set).
    pub fn reads(&self) -> usize {
        self.reads
    }

    /// Number of buffered words the thread wrote (its write set).
    pub fn writes(&self) -> usize {
        self.writes
    }

    /// True once a hash conflict has pushed an entry into the overflow
    /// area since the last [`clear`](Self::clear).  A thread whose map
    /// spilled runs on; only an insert into a full area fails it
    /// ([`BufferError::OverflowFull`]).
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
        let slot = self.home(addr);
        match self.slots[slot].addr {
            0 => None,
            occupant if occupant == addr => Some(&mut self.slots[slot]),
            _ => self.overflow.iter_mut().find(|e| e.addr == addr),
        }
    }

    /// The hit of a store: `addr` sits in its home slot, already written,
    /// and takes the bytes `mask` selects of `data` in place.  `false` —
    /// nothing done — otherwise: not buffered, only read so far, or in the
    /// overflow area; [`merge`](Self::merge) handles all three.
    #[inline]
    pub(crate) fn update(&mut self, addr: Addr, data: u64, mask: u64) -> bool {
        debug_assert_eq!(addr % WORD_BYTES, 0, "unaligned word address {addr:#x}");
        let slot = self.home(addr);
        match self.slots.get_mut(slot) {
            // (Address 0 is the empty slot's, never a buffered word's.)
            Some(entry) if entry.addr == addr && addr != 0 && entry.written() != 0 => {
                entry.note_write(data, mask);
                true
            }
            _ => false,
        }
    }

    /// Where `addr`'s record is, created empty if the map holds none: its
    /// home slot, or — when another word holds that — the overflow area.
    fn place(&mut self, addr: Addr) -> Result<Place, BufferError> {
        debug_assert_eq!(addr % WORD_BYTES, 0, "unaligned word address {addr:#x}");
        let slot = self.home(addr);
        match self.slots[slot].addr {
            0 => {
                self.slots[slot].addr = addr;
                self.used.push(slot as u32);
                Ok(Place::Home(slot))
            }
            occupant if occupant == addr => Ok(Place::Home(slot)),
            _ => self.spill(addr),
        }
    }

    /// The hash-conflict arm of [`place`](Self::place).
    #[cold]
    fn spill(&mut self, addr: Addr) -> Result<Place, BufferError> {
        let at = match self.overflow.iter().position(|e| e.addr == addr) {
            Some(at) => at,
            None if self.overflow.len() >= self.overflow_capacity => {
                return Err(BufferError::OverflowFull)
            }
            None => {
                self.overflow.push(WordEntry {
                    addr,
                    ..WordEntry::default()
                });
                self.overflow.len() - 1
            }
        };
        self.overflow_pending = true;
        Ok(Place::Spilled(at))
    }

    fn at(&mut self, place: Place) -> &mut WordEntry {
        match place {
            Place::Home(slot) => &mut self.slots[slot],
            Place::Spilled(at) => &mut self.overflow[at],
        }
    }

    /// The thread read `value` from `addr`, the commit-log version `version`
    /// current before it did (see [`WordEntry`]'s `note_read`).  Returns the
    /// word as the thread sees it, and whether its record sits in the
    /// overflow area.
    pub(crate) fn note_read(
        &mut self,
        addr: Addr,
        value: u64,
        version: u64,
    ) -> Result<(u64, bool), BufferError> {
        let place = self.place(addr)?;
        let entry = self.at(place);
        let first = !entry.has_read();
        entry.note_read(value, version);
        let word = entry.data;
        self.reads += usize::from(first);
        Ok((word, matches!(place, Place::Spilled(_))))
    }

    /// The thread wrote the bytes `mask` selects of `data` to `addr`.
    /// Returns whether the record sits in the overflow area.
    pub(crate) fn note_write(
        &mut self,
        addr: Addr,
        data: u64,
        mask: u64,
    ) -> Result<bool, BufferError> {
        let place = self.place(addr)?;
        let entry = self.at(place);
        let first = entry.written() == 0;
        entry.note_write(data, mask);
        self.writes += usize::from(first);
        Ok(matches!(place, Place::Spilled(_)))
    }

    /// A record in the overflow area is buffered all the same, which the
    /// public inserts report as [`BufferError::OverflowPending`].
    fn placed(spilled: bool) -> Result<(), BufferError> {
        if spilled {
            Err(BufferError::OverflowPending)
        } else {
            Ok(())
        }
    }

    /// Merge the bytes `mask` selects of `value` into the word buffered for
    /// `addr` as the thread's own, inserting the word if it is not present.
    ///
    /// Returns [`BufferError::OverflowPending`] when the word is in the
    /// overflow area (the data *is* recorded) and
    /// [`BufferError::OverflowFull`] when it could not be recorded at all.
    pub fn merge(&mut self, addr: Addr, value: u64, mask: u64) -> Result<(), BufferError> {
        self.note_write(addr, value, mask).and_then(Self::placed)
    }

    /// Record a read of the whole word `value` at `addr`, unversioned.
    pub fn insert_word(&mut self, addr: Addr, value: u64) -> Result<(), BufferError> {
        self.insert_word_versioned(addr, value, 0)
    }

    /// Record a read of the whole word `value` at `addr` stamped with the
    /// commit log's epoch observed before it.  A word read before keeps its
    /// *first* read and the *older* version: that snapshot is the one
    /// dependence validation must check, also when two threads' reads
    /// merge.
    pub fn insert_word_versioned(
        &mut self,
        addr: Addr,
        value: u64,
        version: u64,
    ) -> Result<(), BufferError> {
        self.note_read(addr, value, version)
            .and_then(|(_, spilled)| Self::placed(spilled))
    }

    /// Raise the version of `addr`'s read to `version` if it carries an
    /// older stamp.  Used by the value-predict retry path: a read whose
    /// conflicting range was re-validated by value is re-stamped with the
    /// snapshot observed at re-validation time, so only commits *after*
    /// the retry can flag it again.
    pub fn refresh_version(&mut self, addr: Addr, version: u64) {
        if let Some(e) = self.entry_mut(addr).filter(|e| e.has_read()) {
            e.set_version(e.version().max(version));
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
        self.reads = 0;
        self.writes = 0;
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
    fn a_record_is_one_half_cache_line_and_packs_both_halves() {
        assert_eq!(std::mem::size_of::<WordEntry>(), 32, "one slot, one record");
        let mut m = WordMap::new(64, 8);
        m.insert_word_versioned(0x100, 0x1111_2222_3333_4444, 7)
            .unwrap();
        m.merge(0x100, 0xAAAA_0000, byte_mask(2, 2).unwrap())
            .unwrap();
        m.merge(0x108, 5, u64::MAX).unwrap();
        let e = m.get(0x100).unwrap();
        assert_eq!(
            (e.read, e.data),
            (0x1111_2222_3333_4444, 0x1111_2222_AAAA_4444)
        );
        assert_eq!((e.version(), e.has_read(), e.written()), (7, true, 0b1100));
        assert_eq!(e.mask(), 0xFFFF_0000);
        assert!(!m.get(0x108).unwrap().has_read());
        assert_eq!((m.len(), m.reads(), m.writes()), (2, 1, 2));
        // The mask round-trips for every byte pattern.
        let mut w = WordEntry::default();
        for bits in 0..=255u8 {
            let byte = |i: u64| (u64::from((bits >> i) & 1) * 0xFF) << (8 * i);
            let mask = (0..8).fold(0u64, |m, i| m | byte(i));
            w.meta = 0;
            w.note_write(0, mask);
            assert_eq!((w.written(), w.mask()), (bits, mask));
        }
    }

    #[test]
    fn overflow_fills_then_reports_full_and_updates_in_place() {
        let mut m = WordMap::new(8, 2);
        // capacity rounds to 8 slots; addresses 8 words apart collide.
        let (a, b, c) = (0x80, 0x80 + 8 * WORD_BYTES, 0x80 + 16 * WORD_BYTES);
        m.insert_word(a, 1).unwrap();
        assert_eq!(m.insert_word(b, 2), Err(BufferError::OverflowPending));
        assert!(m.overflow_pending());
        assert_eq!(m.merge(b, 9, u64::MAX), Err(BufferError::OverflowPending));
        assert_eq!((m.get(b).unwrap().read, m.get(b).unwrap().data), (2, 9));
        assert_eq!(m.insert_word(c, 3), Err(BufferError::OverflowPending));
        let d = 0x80 + 24 * WORD_BYTES;
        assert_eq!(m.insert_word(d, 4), Err(BufferError::OverflowFull));
        assert_eq!((m.len(), m.overflow_len()), (3, 2));
    }

    #[test]
    fn overflow_entries_keep_an_occupied_home_slot() {
        let mut m = WordMap::new(8, 4);
        for shift in [0, 3] {
            // Two addresses in each of four slots; the other four stay empty.
            for i in 0..8u64 {
                let _ = m.insert_word(0x80 + ((i % 4 + shift) % 8 + i / 4 * 8) * WORD_BYTES, i);
            }
            assert_eq!(m.overflow_len(), 4);
            for e in &m.overflow {
                let occupant = m.slots[m.home(e.addr)].addr;
                assert!(occupant != 0 && occupant != e.addr, "{e:?}");
            }
            // …which is why an empty home slot is a miss without a scan.
            assert!(m.get(0x80 + (4 + shift) % 8 * WORD_BYTES).is_none());
            m.clear();
            assert_eq!(m.overflow_len(), 0, "clear empties both together");
        }
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

    /// A later read keeps the first value and the older snapshot; a retry's
    /// refresh only ever raises it — in a home slot and in the overflow area.
    #[test]
    fn a_read_keeps_its_first_value_and_oldest_version_until_refreshed() {
        let mut m = WordMap::new(8, 2);
        let conflicting = 0x100 + 8 * WORD_BYTES;
        for addr in [0x100, conflicting] {
            let _ = m.insert_word_versioned(addr, 1, 6);
            let _ = m.insert_word_versioned(addr, 2, 9);
            let _ = m.insert_word_versioned(addr, 3, 4);
            assert_eq!(
                (m.get(addr).unwrap().read, m.get(addr).unwrap().version()),
                (1, 4)
            );
            m.refresh_version(addr, 9);
            m.refresh_version(addr, 2);
            assert_eq!(m.get(addr).unwrap().version(), 9);
        }
        // Unversioned reads stamp 0; a missing word, or one never read, is
        // not refreshed.
        m.insert_word(0x108, 3).unwrap();
        assert_eq!(m.get(0x108).unwrap().version(), 0);
        m.refresh_version(0x900, 1);
        m.merge(0x110, 1, u64::MAX).unwrap();
        m.refresh_version(0x110, 5);
        assert_eq!(m.get(0x110).unwrap().version(), 0);
    }

    /// Characterization, not a wish: the home slot is the low bits of the
    /// word index, so two arrays a multiple of the capacity apart share
    /// their home slots element for element, and a loop that touches
    /// `a[i]` and `b[i]` fills the overflow area long before the map —
    /// 2 × 1 025 words into 2^17 slots.  This, not the size of its buffer,
    /// is what rolls back every speculative child of the 2^18-point fft
    /// (`re`/`im` arrays 2^18 words apart; ROADMAP item 3).
    #[test]
    fn arrays_a_multiple_of_the_map_apart_alias_slot_for_slot() {
        let config = crate::BufferConfig::default();
        let slots = config.read_capacity_words + config.write_capacity_words;
        let mut m = WordMap::new(slots, config.overflow_capacity);
        assert_eq!((m.capacity(), config.overflow_capacity), (1 << 17, 1 << 10));
        let a: Addr = 0x1000;
        let b = a + (1 << 18) * WORD_BYTES;
        for i in 0..(1u64 << 12) {
            assert_eq!(m.insert_word(a + i * WORD_BYTES, i), Ok(()));
            let conflicting = m.merge(b + i * WORD_BYTES, i, u64::MAX);
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
